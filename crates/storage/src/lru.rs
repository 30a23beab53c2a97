//! A deterministic LRU index over page ids, with pinning.
//!
//! Shared by the disk cache and IC local memories. Each page's (last-use
//! stamp, pin count) lives in a [`PageMap`], indexed by the page id (ids are
//! minted densely from 0 by [`PageStore::put`](crate::PageStore::put)), so
//! finding a page's entry is O(1). What stays O(log n) is the eviction
//! order: an ordered set of (last-use, id) over the *unpinned* pages, which
//! insert, touch, pin, unpin, remove and evict each update once. Ties are
//! impossible because the use counter is globally monotone.

use std::collections::BTreeSet;

use crate::page_map::PageMap;
use crate::store::PageId;

/// LRU bookkeeping for a set of resident pages.
#[derive(Debug, Clone, Default)]
pub struct LruIndex {
    /// page -> (last_use stamp, pin count)
    entries: PageMap<(u64, u32)>,
    /// (last_use stamp, page) for all *unpinned* pages.
    order: BTreeSet<(u64, PageId)>,
    clock: u64,
}

impl LruIndex {
    /// An empty index.
    pub fn new() -> LruIndex {
        LruIndex::default()
    }

    /// Number of tracked pages (pinned and unpinned).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `id` is tracked.
    pub fn contains(&self, id: PageId) -> bool {
        self.entries.contains(id)
    }

    /// Insert a page as most-recently-used (unpinned).
    ///
    /// # Panics
    /// Panics if the page is already tracked (double-insert is a simulator
    /// bug: residency is decided by the owning device).
    pub fn insert(&mut self, id: PageId) {
        self.clock += 1;
        let stamp = self.clock;
        let prev = self.entries.insert(id, (stamp, 0));
        assert!(prev.is_none(), "LruIndex: double insert of {id}");
        self.order.insert((stamp, id));
    }

    /// Mark `id` as just-used.
    ///
    /// # Panics
    /// Panics if the page is not tracked.
    pub fn touch(&mut self, id: PageId) {
        self.clock += 1;
        let stamp = self.clock;
        let entry = self
            .entries
            .get_mut(id)
            .unwrap_or_else(|| panic!("LruIndex: touch of untracked {id}"));
        if entry.1 == 0 {
            let removed = self.order.remove(&(entry.0, id));
            debug_assert!(removed);
            self.order.insert((stamp, id));
        }
        entry.0 = stamp;
    }

    /// Pin `id` (exempt from eviction). Pins nest.
    pub fn pin(&mut self, id: PageId) {
        let entry = self
            .entries
            .get_mut(id)
            .unwrap_or_else(|| panic!("LruIndex: pin of untracked {id}"));
        if entry.1 == 0 {
            let removed = self.order.remove(&(entry.0, id));
            debug_assert!(removed);
        }
        entry.1 += 1;
    }

    /// Undo one pin.
    pub fn unpin(&mut self, id: PageId) {
        let entry = self
            .entries
            .get_mut(id)
            .unwrap_or_else(|| panic!("LruIndex: unpin of untracked {id}"));
        assert!(entry.1 > 0, "LruIndex: unpin of unpinned {id}");
        entry.1 -= 1;
        if entry.1 == 0 {
            self.order.insert((entry.0, id));
        }
    }

    /// Remove `id` entirely (e.g. page migrated to another level).
    pub fn remove(&mut self, id: PageId) {
        if let Some((stamp, pins)) = self.entries.remove(id) {
            if pins == 0 {
                self.order.remove(&(stamp, id));
            }
        }
    }

    /// The least-recently-used *unpinned* page, if any.
    pub fn lru_candidate(&self) -> Option<PageId> {
        self.order.iter().next().map(|&(_, id)| id)
    }

    /// Evict and return the LRU unpinned page.
    pub fn evict(&mut self) -> Option<PageId> {
        let id = self.lru_candidate()?;
        self.remove(id);
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pid(n: u64) -> PageId {
        PageId(n)
    }

    #[test]
    fn evicts_in_lru_order() {
        let mut l = LruIndex::new();
        for n in 0..3 {
            l.insert(pid(n));
        }
        l.touch(pid(0)); // order now: 1, 2, 0
        assert_eq!(l.evict(), Some(pid(1)));
        assert_eq!(l.evict(), Some(pid(2)));
        assert_eq!(l.evict(), Some(pid(0)));
        assert_eq!(l.evict(), None);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let mut l = LruIndex::new();
        l.insert(pid(0));
        l.insert(pid(1));
        l.pin(pid(0));
        assert_eq!(l.evict(), Some(pid(1)));
        assert_eq!(l.evict(), None); // only a pinned page remains
        l.unpin(pid(0));
        assert_eq!(l.evict(), Some(pid(0)));
    }

    #[test]
    fn nested_pins() {
        let mut l = LruIndex::new();
        l.insert(pid(0));
        l.pin(pid(0));
        l.pin(pid(0));
        l.unpin(pid(0));
        assert_eq!(l.evict(), None);
        l.unpin(pid(0));
        assert_eq!(l.evict(), Some(pid(0)));
    }

    #[test]
    fn touch_while_pinned_updates_stamp() {
        let mut l = LruIndex::new();
        l.insert(pid(0));
        l.insert(pid(1));
        l.pin(pid(0));
        l.touch(pid(0)); // must not corrupt order set
        l.unpin(pid(0));
        // 0 was touched after 1 was inserted -> 1 evicts first.
        assert_eq!(l.evict(), Some(pid(1)));
        assert_eq!(l.evict(), Some(pid(0)));
    }

    #[test]
    fn contains_and_len() {
        let mut l = LruIndex::new();
        assert!(l.is_empty());
        l.insert(pid(5));
        assert!(l.contains(pid(5)));
        assert_eq!(l.len(), 1);
        l.remove(pid(5));
        assert!(!l.contains(pid(5)));
    }

    #[test]
    #[should_panic(expected = "double insert")]
    fn double_insert_panics() {
        let mut l = LruIndex::new();
        l.insert(pid(0));
        l.insert(pid(0));
    }

    #[test]
    #[should_panic(expected = "unpin of unpinned")]
    fn unbalanced_unpin_panics() {
        let mut l = LruIndex::new();
        l.insert(pid(0));
        l.unpin(pid(0));
    }

    /// The naive model: every tracked page with its last-use stamp and pin
    /// count; the LRU candidate is the unpinned page of least stamp.
    #[derive(Default)]
    struct Naive {
        pages: Vec<(PageId, u64, u32)>,
        clock: u64,
    }

    impl Naive {
        fn find(&mut self, id: PageId) -> Option<&mut (PageId, u64, u32)> {
            self.pages.iter_mut().find(|e| e.0 == id)
        }

        fn candidate(&self) -> Option<PageId> {
            (self.pages.iter())
                .filter(|e| e.2 == 0)
                .min_by_key(|e| e.1)
                .map(|e| e.0)
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64),
        Touch(u64),
        Pin(u64),
        Unpin(u64),
        Remove(u64),
        Evict,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..24).prop_map(Op::Insert),
            (0u64..24).prop_map(Op::Touch),
            (0u64..24).prop_map(Op::Pin),
            (0u64..24).prop_map(Op::Unpin),
            (0u64..24).prop_map(Op::Remove),
            Just(Op::Evict),
        ]
    }

    proptest! {
        /// Random insert/touch/pin/unpin/remove/evict sequences evict what
        /// the naive model evicts, in the same order. Operations the index
        /// rejects by panicking (double insert, touching, pinning or
        /// unpinning an untracked page, unbalanced unpin) are skipped.
        #[test]
        fn agrees_with_a_naive_model(ops in proptest::collection::vec(op(), 0..300)) {
            let mut l = LruIndex::new();
            let mut naive = Naive::default();
            for op in ops {
                match op {
                    Op::Insert(k) => {
                        if naive.find(pid(k)).is_none() {
                            naive.clock += 1;
                            naive.pages.push((pid(k), naive.clock, 0));
                            l.insert(pid(k));
                        }
                    }
                    Op::Touch(k) => {
                        naive.clock += 1;
                        let clock = naive.clock;
                        if let Some(e) = naive.find(pid(k)) {
                            e.1 = clock;
                            l.touch(pid(k));
                        }
                    }
                    Op::Pin(k) => {
                        if let Some(e) = naive.find(pid(k)) {
                            e.2 += 1;
                            l.pin(pid(k));
                        }
                    }
                    Op::Unpin(k) => {
                        if let Some(e) = naive.find(pid(k)).filter(|e| e.2 > 0) {
                            e.2 -= 1;
                            l.unpin(pid(k));
                        }
                    }
                    Op::Remove(k) => {
                        naive.pages.retain(|e| e.0 != pid(k));
                        l.remove(pid(k));
                    }
                    Op::Evict => {
                        let victim = naive.candidate();
                        naive.pages.retain(|e| Some(e.0) != victim);
                        prop_assert_eq!(l.evict(), victim);
                    }
                }
                prop_assert_eq!(l.lru_candidate(), naive.candidate());
                prop_assert_eq!(l.len(), naive.pages.len());
                for k in 0..24 {
                    prop_assert_eq!(l.contains(pid(k)), naive.pages.iter().any(|e| e.0 == pid(k)));
                }
            }
        }
    }
}
