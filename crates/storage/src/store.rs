//! The page store: ground-truth page contents keyed by [`PageId`].

use std::collections::HashMap;
use std::sync::Arc;

use df_relalg::{Page, Relation, Result, Schema};

/// A globally unique page identifier.
///
/// Identity, not location: the simulated devices record *where* a page
/// currently resides and what moving it costs; the content always lives in
/// the [`PageStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Ground-truth storage of page contents.
///
/// Pages are held behind [`Arc`]: loading a relation, staging an in-flight
/// operand, or materializing a result shares one buffer instead of deep-
/// copying page contents. Byte accounting is unaffected — costs are charged
/// per simulated page movement, not per host-memory copy.
#[derive(Debug, Clone, Default)]
pub struct PageStore {
    pages: HashMap<PageId, Arc<Page>>,
    next_id: u64,
}

impl PageStore {
    /// An empty store.
    pub fn new() -> PageStore {
        PageStore::default()
    }

    /// Store a page, returning its fresh id. Accepts either an owned
    /// [`Page`] or a shared `Arc<Page>` handle (no copy in either case).
    pub fn put(&mut self, page: impl Into<Arc<Page>>) -> PageId {
        let id = PageId(self.next_id);
        self.next_id += 1;
        self.pages.insert(id, page.into());
        id
    }

    /// Look up a page's contents.
    ///
    /// # Panics
    /// Panics on an unknown id: ids are only minted by [`PageStore::put`],
    /// so a miss is a simulator bug, not a runtime condition.
    pub fn get(&self, id: PageId) -> &Page {
        self.pages
            .get(&id)
            .unwrap_or_else(|| panic!("PageStore: unknown page id {id}"))
    }

    /// A shared handle to a page's contents (cheap clone of the `Arc`, not
    /// of the page) — the zero-copy route for handing a page to another
    /// relation, store slot, or compaction buffer.
    ///
    /// # Panics
    /// Panics on an unknown id, like [`PageStore::get`].
    pub fn get_arc(&self, id: PageId) -> Arc<Page> {
        Arc::clone(
            self.pages
                .get(&id)
                .unwrap_or_else(|| panic!("PageStore: unknown page id {id}")),
        )
    }

    /// Remove a page (e.g. an intermediate page that has been fully consumed
    /// and will never be referenced again), returning its contents.
    pub fn remove(&mut self, id: PageId) -> Option<Arc<Page>> {
        self.pages.remove(&id)
    }

    /// Number of stored pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Wire bytes of a page (header + stored tuples).
    pub fn wire_bytes(&self, id: PageId) -> usize {
        self.get(id).wire_bytes()
    }

    /// Load every page of `relation` into the store, returning their ids in
    /// relation order. Shares the relation's page buffers (no deep copy).
    pub fn load_relation(&mut self, relation: &Relation) -> Vec<PageId> {
        relation
            .pages()
            .iter()
            .map(|p| self.put(Arc::clone(p)))
            .collect()
    }

    /// Materialize a relation back out of a list of page ids, sharing the
    /// stored page buffers.
    ///
    /// # Errors
    /// Fails if pages disagree with the given schema/page size.
    pub fn materialize(
        &self,
        name: &str,
        schema: Schema,
        page_size: usize,
        ids: &[PageId],
    ) -> Result<Relation> {
        let mut rel = Relation::new(name, schema, page_size)?;
        for &id in ids {
            rel.append_page(self.get_arc(id))?;
        }
        Ok(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_relalg::{DataType, Tuple, Value};

    fn schema() -> Schema {
        Schema::build().attr("k", DataType::Int).finish().unwrap()
    }

    fn page_with(k: i64) -> Page {
        let mut p = Page::new(schema(), 100).unwrap();
        p.push(&Tuple::new(vec![Value::Int(k)])).unwrap();
        p
    }

    #[test]
    fn put_get_remove() {
        let mut s = PageStore::new();
        let id = s.put(page_with(7));
        assert_eq!(s.get(id).len(), 1);
        assert_eq!(s.len(), 1);
        assert!(s.remove(id).is_some());
        assert!(s.is_empty());
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut s = PageStore::new();
        let a = s.put(page_with(1));
        let b = s.put(page_with(2));
        assert_ne!(a, b);
        assert!(a < b);
    }

    #[test]
    #[should_panic(expected = "unknown page id")]
    fn get_unknown_panics() {
        let s = PageStore::new();
        let _ = s.get(PageId(5));
    }

    #[test]
    fn relation_round_trip() {
        let mut s = PageStore::new();
        let rel = Relation::from_tuples(
            "t",
            schema(),
            40, // header 16 + 3 tuples of 8
            (0..7).map(|k| Tuple::new(vec![Value::Int(k)])),
        )
        .unwrap();
        let ids = s.load_relation(&rel);
        assert_eq!(ids.len(), rel.num_pages());
        let back = s.materialize("t2", schema(), 40, &ids).unwrap();
        assert!(rel.same_contents(&back));
        // Load and materialize share buffers with the source relation.
        for (i, (&id, src)) in ids.iter().zip(rel.pages()).enumerate() {
            assert!(
                Arc::ptr_eq(&s.get_arc(id), src),
                "page {i} was deep-copied on load"
            );
        }
        for (src, out) in rel.pages().iter().zip(back.pages()) {
            assert!(Arc::ptr_eq(src, out));
        }
    }

    #[test]
    fn get_arc_shares_and_remove_returns_handle() {
        let mut s = PageStore::new();
        let id = s.put(Arc::new(page_with(3)));
        let h1 = s.get_arc(id);
        let h2 = s.get_arc(id);
        assert!(Arc::ptr_eq(&h1, &h2));
        let removed = s.remove(id).unwrap();
        assert!(Arc::ptr_eq(&h1, &removed));
        assert!(s.is_empty());
        // The handle keeps the page alive after removal.
        assert_eq!(h1.len(), 1);
    }

    #[test]
    fn wire_bytes_delegates() {
        let mut s = PageStore::new();
        let id = s.put(page_with(1));
        assert_eq!(s.wire_bytes(id), 16 + 8);
    }
}
