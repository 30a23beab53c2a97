//! IC local memory: a small private page buffer with LRU spill.
//!
//! Paper §4.1: *"Each IC has a local memory for pages of source relations
//! which will be used as operands in the instruction packets it distributes
//! to the IPs. When the local memory of an IC fills, the IC will write the
//! least desirable pages to its segment of the multiport disk cache."*
//! "Least desirable" is modelled as least-recently-used.

use df_sim::stats::ByteCounter;

use crate::lru::LruIndex;
use crate::store::PageId;

/// A bounded local page buffer. Accesses are charged no simulated time of
/// their own (local memory is orders of magnitude faster than the cache and
/// disk); the interesting quantity is *what spills*, which the owner charges
/// against the disk cache.
#[derive(Debug, Clone)]
pub struct LocalMemory {
    capacity_pages: usize,
    lru: LruIndex,
    /// Bytes admitted.
    pub in_traffic: ByteCounter,
    /// Bytes spilled out.
    pub spill_traffic: ByteCounter,
}

impl LocalMemory {
    /// A local memory holding at most `capacity_pages` pages.
    ///
    /// # Panics
    /// Panics if the capacity is zero.
    pub fn new(capacity_pages: usize) -> LocalMemory {
        assert!(capacity_pages > 0, "local memory needs at least one page");
        LocalMemory {
            capacity_pages,
            lru: LruIndex::new(),
            in_traffic: ByteCounter::new(),
            spill_traffic: ByteCounter::new(),
        }
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity_pages
    }

    /// Pages currently held.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Whether `id` is resident.
    pub fn contains(&self, id: PageId) -> bool {
        self.lru.contains(id)
    }

    /// Admit a page, spilling LRU unpinned pages as needed.
    ///
    /// Returns the spilled page ids (with the byte size recorded via
    /// `spill_bytes`, supplied by the caller per page because page sizes may
    /// vary). The caller must route spills to the disk cache.
    pub fn insert(
        &mut self,
        id: PageId,
        bytes: usize,
        spill_bytes: impl Fn(PageId) -> usize,
    ) -> Vec<PageId> {
        let mut spilled = Vec::new();
        while self.lru.len() >= self.capacity_pages {
            match self.lru.evict() {
                Some(victim) => {
                    self.spill_traffic.record(spill_bytes(victim) as u64);
                    spilled.push(victim);
                }
                None => break, // all pinned: overcommit
            }
        }
        self.lru.insert(id);
        self.in_traffic.record(bytes as u64);
        spilled
    }

    /// Refresh a page's recency.
    pub fn touch(&mut self, id: PageId) {
        self.lru.touch(id);
    }

    /// Pin a resident page. Pins nest.
    pub fn pin(&mut self, id: PageId) {
        self.lru.pin(id);
    }

    /// Undo one pin.
    pub fn unpin(&mut self, id: PageId) {
        self.lru.unpin(id);
    }

    /// Drop a page (fully consumed).
    pub fn remove(&mut self, id: PageId) {
        self.lru.remove(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> PageId {
        PageId(n)
    }

    #[test]
    fn spills_lru_when_full() {
        let mut m = LocalMemory::new(2);
        assert!(m.insert(pid(1), 100, |_| 100).is_empty());
        assert!(m.insert(pid(2), 100, |_| 100).is_empty());
        m.touch(pid(1)); // 2 becomes LRU
        let spilled = m.insert(pid(3), 100, |_| 100);
        assert_eq!(spilled, vec![pid(2)]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.spill_traffic.bytes, 100);
        assert!(m.contains(pid(1)) && m.contains(pid(3)));
    }

    #[test]
    fn pinned_pages_do_not_spill() {
        let mut m = LocalMemory::new(1);
        m.insert(pid(1), 50, |_| 50);
        m.pin(pid(1));
        let spilled = m.insert(pid(2), 50, |_| 50);
        assert!(spilled.is_empty()); // overcommit
        assert_eq!(m.len(), 2);
        m.unpin(pid(1));
        m.remove(pid(1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn room_accounting() {
        let mut m = LocalMemory::new(2);
        assert!(m.is_empty());
        m.insert(pid(1), 10, |_| 10);
        m.insert(pid(2), 10, |_| 10);
        assert_eq!(m.len(), m.capacity());
        assert!(!m.is_empty());
        assert_eq!(m.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_panics() {
        let _ = LocalMemory::new(0);
    }
}
