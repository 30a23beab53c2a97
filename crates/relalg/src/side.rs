//! What one operand of a join has received so far, as the join's units
//! read it: the pages in arrival order ([`SidePages`]), and for a
//! nested-loops join on an `Int` key, their keys as one dense column
//! ([`SideKeyColumn`]). The hash-join side, [`crate::SideKeyIndex`], keeps
//! its pages the same way.
//!
//! Pages are only ever appended, so the first `upto` pages — and every
//! entry derived from them — form a prefix that never changes once added:
//! a unit bounded by `upto` sees exactly the pages received before that
//! bound was taken, however many arrive afterwards.

use std::sync::Arc;

use crate::page::Page;
use crate::value::DataType;

/// Where a side's tuple lives: the page's arrival ordinal on its side, and
/// the slot within that page.
pub type SideEntry = (u32, u32);

/// The pages one operand of a join has received, in arrival order, with a
/// running wire-byte prefix.
#[derive(Debug, Clone, Default)]
pub struct SidePages {
    /// Tuple width of the side's schema (0 until the first page).
    width: usize,
    pages: Vec<Arc<Page>>,
    /// `prefix_bytes[i]`: the wire bytes of pages `0..=i`, so the bytes
    /// of any prefix of `pages` are one lookup.
    prefix_bytes: Vec<u64>,
}

impl SidePages {
    /// No pages yet.
    pub fn new() -> SidePages {
        SidePages::default()
    }

    /// The arrival ordinal the next page pushed will get.
    ///
    /// # Panics
    /// Panics past `u32::MAX` pages.
    pub fn next_ordinal(&self) -> u32 {
        u32::try_from(self.pages.len()).expect("a side of at most u32::MAX pages")
    }

    /// Append `page` behind every page pushed before it.
    pub fn push(&mut self, page: Arc<Page>) {
        if self.pages.is_empty() {
            self.width = page.schema().tuple_width();
        }
        let before = self.prefix_bytes.last().copied().unwrap_or(0);
        self.prefix_bytes.push(before + page.wire_bytes() as u64);
        self.pages.push(page);
    }

    /// Every page pushed, in arrival order.
    pub fn pages(&self) -> &[Arc<Page>] {
        &self.pages
    }

    /// How many pages were pushed.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Total wire bytes of the first `upto` pages pushed, in O(1).
    ///
    /// # Panics
    /// Panics if `upto` exceeds the pages pushed.
    pub fn wire_bytes(&self, upto: usize) -> u64 {
        upto.checked_sub(1)
            .map_or(0, |last| self.prefix_bytes[last])
    }

    /// The encoded image of the tuple at `entry`.
    #[inline]
    pub fn image(&self, (page, slot): SideEntry) -> &[u8] {
        let at = slot as usize * self.width;
        &self.pages[page as usize].raw_data()[at..at + self.width]
    }
}

/// Every `Int` key one operand of a nested-loops join has received so far,
/// decoded once into one dense column in arrival order: the side a θ-join's
/// arriving page is probed against (df-query's
/// `JoinSweep::probe_column_into`).
///
/// Position `i` of the column is one tuple: its key is `keys[i]`, and it
/// lives at `entries[i]`, its `(page ordinal, slot)`. Each page's end
/// offset is kept, so the keys of the first `upto` pages are one
/// contiguous prefix of the column that never changes once added. A key
/// costs 16 bytes: the `i64` and its entry.
#[derive(Debug, Clone)]
pub struct SideKeyColumn {
    key: usize,
    received: SidePages,
    /// Every tuple's key, in arrival order.
    keys: Vec<i64>,
    /// `entries[i]`: where the tuple keyed `keys[i]` lives.
    entries: Vec<SideEntry>,
    /// `ends[i]`: how many keys pages `0..=i` hold.
    ends: Vec<usize>,
}

impl SideKeyColumn {
    /// An empty column over attribute `key` of its pages' schema.
    pub fn new(key: usize) -> SideKeyColumn {
        SideKeyColumn {
            key,
            received: SidePages::new(),
            keys: Vec::new(),
            entries: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Append one delivered batch of `pages`, in order, behind every page
    /// keyed before them; returns the tuples keyed.
    ///
    /// The column is sized once for the batch's tuples, and each key is
    /// read straight off its row. A page's end and the page itself are
    /// recorded only after its keys, so a panic midway leaves keys past the
    /// last end, where no prefix reaches; the next extend drops them first.
    ///
    /// # Panics
    /// Panics if `key` is not an `Int` attribute of the pages' schema, or
    /// past `u32::MAX` pages.
    pub fn extend(&mut self, pages: &[Arc<Page>]) -> usize {
        let Some(first) = pages.first() else {
            return 0;
        };
        let schema = first.schema();
        assert_eq!(
            schema.attrs()[self.key].dtype,
            DataType::Int,
            "a key column holds Int keys"
        );
        let (range, width) = (schema.attr_range(self.key), schema.tuple_width());
        let end = self.ends.last().copied().unwrap_or(0);
        self.keys.truncate(end);
        self.entries.truncate(end);
        let tuples = pages.iter().map(|p| p.len()).sum();
        self.keys.reserve(tuples);
        self.entries.reserve(tuples);
        for page in pages {
            let ordinal = self.received.next_ordinal();
            for (slot, row) in page.raw_data().chunks_exact(width).enumerate() {
                let image = row[range.clone()].try_into().expect("Int key is 8 bytes");
                self.keys.push(i64::from_be_bytes(image));
                self.entries.push((ordinal, slot as u32));
            }
            self.ends.push(self.keys.len());
            self.received.push(Arc::clone(page));
        }
        tuples
    }

    /// The keys of the first `upto` pages added, in arrival order:
    /// position `i` is the tuple whose image is
    /// [`SideKeyColumn::image`]`(i)`.
    ///
    /// # Panics
    /// Panics if `upto` exceeds the pages added.
    #[inline]
    pub fn keys(&self, upto: usize) -> &[i64] {
        let end = upto.checked_sub(1).map_or(0, |last| self.ends[last]);
        &self.keys[..end]
    }

    /// The encoded image of the tuple at column position `at`.
    #[inline]
    pub fn image(&self, at: usize) -> &[u8] {
        self.received.image(self.entries[at])
    }

    /// The pages added, in arrival order.
    pub fn received(&self) -> &SidePages {
        &self.received
    }

    /// The keyed attribute.
    pub fn key(&self) -> usize {
        self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use crate::value::Value;

    fn page(keys: &[i64]) -> Arc<Page> {
        let schema = Schema::build()
            .attr("v", DataType::Int)
            .attr("k", DataType::Int)
            .finish()
            .unwrap();
        let mut p = Page::new(schema, 16 + 16 * keys.len().max(1)).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            p.push(&Tuple::new(vec![Value::Int(i as i64), Value::Int(k)]))
                .unwrap();
        }
        Arc::new(p)
    }

    #[test]
    fn column_prefixes_follow_page_ends() {
        let mut column = SideKeyColumn::new(1);
        assert!(column.keys(0).is_empty());
        for keys in [&[7, -3, 7][..], &[], &[i64::MIN, i64::MAX]] {
            column.extend(&[page(keys)]);
        }
        assert_eq!(column.key(), 1);
        assert_eq!(column.keys(0), &[] as &[i64]);
        assert_eq!(column.keys(1), &[7, -3, 7]);
        assert_eq!(column.keys(2), &[7, -3, 7]);
        assert_eq!(column.keys(3), &[7, -3, 7, i64::MIN, i64::MAX]);
        // Each position resolves to its tuple: (v = slot, k = key).
        let images: Vec<&[u8]> = (0..5).map(|at| column.image(at)).collect();
        let pages = [page(&[7, -3, 7]), page(&[i64::MIN, i64::MAX])];
        let (first, third) = (pages[0].raw_data(), pages[1].raw_data());
        assert_eq!(
            images,
            [
                &first[..16],
                &first[16..32],
                &first[32..],
                &third[..16],
                &third[16..]
            ]
        );
        assert_eq!(column.received().pages().len(), 3);
    }

    #[test]
    #[should_panic(expected = "a key column holds Int keys")]
    fn a_column_refuses_a_non_int_key() {
        let schema = Schema::build()
            .attr("s", DataType::Str(8))
            .finish()
            .unwrap();
        let mut column = SideKeyColumn::new(0);
        column.extend(&[Arc::new(Page::new(schema, 64).unwrap())]);
    }
}
