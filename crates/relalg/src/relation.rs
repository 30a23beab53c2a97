//! Relations: a named schema plus a sequence of pages.

use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::page::Page;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::tuple_ref::TupleRef;

/// A materialized relation. Tuples live in fixed-size [`Page`]s, in order.
/// Appends fill only the last page, so a relation built by appending has
/// every page full but the last; any page may be partially full once a
/// page-level delete has replaced a page by its survivors (pages are
/// never repacked across). [`Relation::compact`] restores the packed
/// layout.
///
/// Pages are held behind [`Arc`] so that loading a relation into a
/// simulated machine's page store (or materializing a result back out)
/// shares the underlying buffers instead of deep-copying them; mutation
/// goes through copy-on-write ([`Arc::make_mut`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    name: String,
    schema: Schema,
    page_size: usize,
    pages: Vec<Arc<Page>>,
}

impl Relation {
    /// An empty relation with the given page size.
    ///
    /// # Errors
    /// Fails if one tuple of `schema` cannot fit in `page_size` bytes.
    pub fn new(name: &str, schema: Schema, page_size: usize) -> Result<Relation> {
        // Validate the page size once, up front.
        Page::new(schema.clone(), page_size)?;
        Ok(Relation {
            name: name.to_owned(),
            schema,
            page_size,
            pages: Vec::new(),
        })
    }

    /// Build a relation from an iterator of tuples.
    pub fn from_tuples<I>(
        name: &str,
        schema: Schema,
        page_size: usize,
        tuples: I,
    ) -> Result<Relation>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let mut r = Relation::new(name, schema, page_size)?;
        for t in tuples {
            r.append(t)?;
        }
        Ok(r)
    }

    /// The relation's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename (used for intermediate results).
    pub fn set_name(&mut self, name: &str) {
        self.name = name.to_owned();
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Configured page size.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The pages, in order (shared handles — cheap to clone into a page
    /// store or another relation).
    #[inline]
    pub fn pages(&self) -> &[Arc<Page>] {
        &self.pages
    }

    /// Number of pages.
    #[inline]
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total number of tuples.
    pub fn num_tuples(&self) -> usize {
        self.pages.iter().map(|p| p.len()).sum()
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.num_tuples() == 0
    }

    /// Total wire/disk bytes across all pages (headers included).
    pub fn total_bytes(&self) -> usize {
        self.pages.iter().map(|p| p.wire_bytes()).sum()
    }

    /// Append one tuple, opening a new page when the last one is full.
    pub fn append(&mut self, tuple: Tuple) -> Result<()> {
        tuple.conforms_to(&self.schema)?;
        if self.pages.last().is_none_or_full() {
            self.open_page()?;
        }
        Arc::make_mut(
            self.pages
                .last_mut()
                .expect("just ensured a non-full page exists"),
        )
        .push(&tuple)
    }

    /// Append raw tuple images (`images` holds whole images of the
    /// relation's schema, concatenated): they fill the last page, then
    /// fresh ones, exactly as the same tuples through [`Relation::append`]
    /// would — but without a decode or re-encode. Each page receives whole
    /// images only, so the relation is valid after every step. A page is
    /// allocated at full size when it is opened, so packing never regrows
    /// one.
    ///
    /// # Errors
    /// [`Error::Corrupt`] if `images` is not a whole number of images.
    pub fn append_images(&mut self, images: &[u8]) -> Result<()> {
        let w = self.schema.tuple_width();
        if images.len() % w != 0 {
            return Err(Error::Corrupt {
                detail: format!("{} image bytes for schema of width {w}", images.len()),
            });
        }
        let mut rest = images;
        while !rest.is_empty() {
            if self.pages.last().is_none_or_full() {
                self.open_page()?;
            }
            let page = Arc::make_mut(
                self.pages
                    .last_mut()
                    .expect("just ensured a non-full page exists"),
            );
            let take = (page.capacity() - page.len()).min(rest.len() / w);
            page.extend_raw(&rest[..take * w], take);
            rest = &rest[take * w..];
        }
        Ok(())
    }

    /// Push a fresh last page with its data area allocated at full size,
    /// so the appends that fill it never regrow it.
    fn open_page(&mut self) -> Result<()> {
        let mut page = Page::new(self.schema.clone(), self.page_size)?;
        page.reserve_full();
        self.pages.push(Arc::new(page));
        Ok(())
    }

    /// Append a whole page, taking shared ownership (an `Arc<Page>` handed
    /// in is not copied; a bare `Page` is wrapped).
    ///
    /// # Errors
    /// Fails if the page's schema differs or its size differs from the
    /// relation's configured page size.
    pub fn append_page(&mut self, page: impl Into<Arc<Page>>) -> Result<()> {
        let page: Arc<Page> = page.into();
        if page.schema() != &self.schema {
            return Err(Error::SchemaMismatch {
                detail: format!(
                    "appending page of schema {} to relation of schema {}",
                    page.schema(),
                    self.schema
                ),
            });
        }
        if page.page_size() != self.page_size {
            return Err(Error::SchemaMismatch {
                detail: format!(
                    "appending page of size {} to relation with page size {}",
                    page.page_size(),
                    self.page_size
                ),
            });
        }
        self.pages.push(page);
        Ok(())
    }

    /// Iterate over all tuples across all pages.
    pub fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.pages.iter().flat_map(|p| p.tuples())
    }

    /// Iterate over all tuples as borrowed zero-copy views.
    pub fn tuple_refs(&self) -> impl Iterator<Item = TupleRef<'_>> {
        self.pages.iter().flat_map(|p| p.tuple_refs())
    }

    /// Compact all pages so that every page except possibly the last is full
    /// (the IC-side "compression" of §4.2, applied relation-wide).
    pub fn compact(&mut self) {
        let mut compacted: Vec<Arc<Page>> = Vec::with_capacity(self.pages.len());
        for mut page in std::mem::take(&mut self.pages) {
            if page.is_empty() {
                continue;
            }
            if let Some(open) = compacted.last_mut() {
                let _ = Arc::make_mut(open)
                    .compact_from(Arc::make_mut(&mut page))
                    .expect("pages of one relation share a schema");
            }
            if !page.is_empty() {
                compacted.push(page);
            }
        }
        self.pages = compacted;
    }

    /// Multiset equality with another relation: same schema and the same
    /// tuples with the same multiplicities, regardless of page layout or
    /// tuple order. This is the equivalence the oracle-vs-machine tests use
    /// (the data-flow machines produce tuples in a different order than the
    /// sequential executor).
    pub fn same_contents(&self, other: &Relation) -> bool {
        if self.schema != other.schema {
            return false;
        }
        let mut a: Vec<Vec<u8>> = self
            .tuples()
            .map(|t| {
                let mut buf = Vec::new();
                t.encode(&self.schema, &mut buf)
                    .expect("stored tuple conforms");
                buf
            })
            .collect();
        let mut b: Vec<Vec<u8>> = other
            .tuples()
            .map(|t| {
                let mut buf = Vec::new();
                t.encode(&other.schema, &mut buf)
                    .expect("stored tuple conforms");
                buf
            })
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }
}

/// Small extension so `append` reads naturally.
trait LastPage {
    fn is_none_or_full(&self) -> bool;
}

impl LastPage for Option<&Arc<Page>> {
    fn is_none_or_full(&self) -> bool {
        match self {
            None => true,
            Some(p) => p.is_full(),
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{} tuples, {} pages, {} bytes]",
            self.name,
            self.schema,
            self.num_tuples(),
            self.num_pages(),
            self.total_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    fn schema() -> Schema {
        Schema::build()
            .attr("k", DataType::Int)
            .attr("pad", DataType::Str(92))
            .finish()
            .unwrap()
    }

    fn tup(k: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::str("p")])
    }

    fn rel(n: usize) -> Relation {
        Relation::from_tuples("t", schema(), 516, (0..n as i64).map(tup)).unwrap()
    }

    #[test]
    fn paging_on_append() {
        let r = rel(12); // 5 tuples per page
        assert_eq!(r.num_pages(), 3);
        assert_eq!(r.num_tuples(), 12);
        assert_eq!(r.pages()[0].len(), 5);
        assert_eq!(r.pages()[2].len(), 2);
    }

    #[test]
    fn tuple_iteration_order() {
        let r = rel(7);
        let keys: Vec<i64> = r
            .tuples()
            .map(|t| match t.get(0).unwrap() {
                Value::Int(k) => *k,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn append_page_validation() {
        let mut r = rel(0);
        let good = Page::new(schema(), 516).unwrap();
        r.append_page(good).unwrap();
        let wrong_size = Page::new(schema(), 1016).unwrap();
        assert!(r.append_page(wrong_size).is_err());
        let other = Schema::build().attr("z", DataType::Int).finish().unwrap();
        let wrong_schema = Page::new(other, 516).unwrap();
        assert!(r.append_page(wrong_schema).is_err());
    }

    #[test]
    fn compaction_packs_partial_pages() {
        let mut r = rel(0);
        // Three pages with 2 tuples each (simulating partial result pages).
        for base in [0i64, 10, 20] {
            let mut p = Page::new(schema(), 516).unwrap();
            p.push(&tup(base)).unwrap();
            p.push(&tup(base + 1)).unwrap();
            r.append_page(p).unwrap();
        }
        assert_eq!(r.num_pages(), 3);
        let before = r.num_tuples();
        r.compact();
        assert_eq!(r.num_tuples(), before);
        assert_eq!(r.num_pages(), 2); // 5 + 1
        assert_eq!(r.pages()[0].len(), 5);
        assert_eq!(r.pages()[1].len(), 1);
    }

    #[test]
    fn same_contents_ignores_layout_and_order() {
        let a = rel(11);
        let mut b = Relation::new("t2", schema(), 1016).unwrap();
        for k in (0..11).rev() {
            b.append(tup(k)).unwrap();
        }
        assert!(a.same_contents(&b));
        // Different multiplicity breaks equality.
        b.append(tup(5)).unwrap();
        assert!(!a.same_contents(&b));
    }

    #[test]
    fn total_bytes_counts_headers() {
        let r = rel(5); // exactly one full page
        assert_eq!(r.total_bytes(), 16 + 5 * 100);
    }

    #[test]
    fn append_page_shares_arcs() {
        let r = rel(7);
        let mut copy = Relation::new("copy", schema(), 516).unwrap();
        for p in r.pages() {
            copy.append_page(std::sync::Arc::clone(p)).unwrap();
        }
        assert!(r
            .pages()
            .iter()
            .zip(copy.pages())
            .all(|(a, b)| std::sync::Arc::ptr_eq(a, b)));
        assert!(r.same_contents(&copy));
        // CoW: appending to the copy must not disturb the original.
        let mut copy2 = copy.clone();
        copy2.append(tup(99)).unwrap();
        assert_eq!(r.num_tuples(), 7);
        assert_eq!(copy2.num_tuples(), 8);
        let refs: Vec<i64> = r
            .tuple_refs()
            .map(|t| match t.value(0).unwrap() {
                Value::Int(k) => k,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(refs, (0..7).collect::<Vec<_>>());
    }

    /// Pages of 2, 5 (full) and 1 tuples: partial pages in the middle, the
    /// layout a page-level delete leaves.
    fn with_partial_middle_pages() -> Relation {
        let mut r = rel(0);
        for keys in [&[0, 1][..], &[2, 3, 4, 5, 6], &[7]] {
            let mut p = Page::new(schema(), 516).unwrap();
            for &k in keys {
                p.push(&tup(k)).unwrap();
            }
            r.append_page(p).unwrap();
        }
        r
    }

    fn page_lens(r: &Relation) -> Vec<usize> {
        r.pages().iter().map(|p| p.len()).collect()
    }

    fn image(k: i64) -> Vec<u8> {
        let mut buf = Vec::new();
        tup(k).encode(&schema(), &mut buf).unwrap();
        buf
    }

    #[test]
    fn appends_to_partial_middle_pages_fill_only_the_last_page() {
        let mut r = with_partial_middle_pages();
        r.append(tup(8)).unwrap();
        assert_eq!(page_lens(&r), vec![2, 5, 2]);
        let images: Vec<u8> = (9..14).flat_map(image).collect();
        r.append_images(&images).unwrap();
        assert_eq!(page_lens(&r), vec![2, 5, 5, 2]);
        // The same tuples appended one at a time give the same pages.
        let mut one_by_one = with_partial_middle_pages();
        for k in 8..14 {
            one_by_one.append(tup(k)).unwrap();
        }
        assert_eq!(r, one_by_one);
        assert!(r.append_images(&images[..7]).is_err(), "not a whole image");
        assert_eq!(r.num_tuples(), 14);
    }

    #[test]
    fn partial_middle_pages_compact_and_compare_by_contents() {
        let mut r = with_partial_middle_pages();
        assert_eq!(r.num_pages(), 3);
        assert!(r.same_contents(&rel(8)), "layout is not contents");
        r.compact();
        assert_eq!(page_lens(&r), vec![5, 3]);
        assert_eq!(r.pages(), rel(8).pages());
    }

    #[test]
    fn append_rejects_nonconforming() {
        let mut r = rel(0);
        assert!(r.append(Tuple::new(vec![Value::Int(1)])).is_err());
        assert!(r.is_empty());
    }
}
