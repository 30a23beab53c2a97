//! The multiport disk cache (Intel 2314 CCD in the paper).
//!
//! A fixed pool of page frames between mass storage and the processors.
//! Supports optional per-owner segmentation: paper §4.1 suggests dividing
//! the cache "among the ICs according to the number of IPs each is
//! controlling", with each IC swapping to disk when its own segment fills.
//! The DIRECT-style machine of `df-core` uses a single shared segment.

use std::collections::HashMap;

use df_sim::stats::ByteCounter;
use df_sim::{Duration, Resource, SimTime};

use crate::lru::LruIndex;
use crate::store::PageId;

/// The owner of a cache segment (an IC index, or 0 for a shared cache).
pub type OwnerId = usize;

/// Timing and sizing parameters for [`DiskCache`].
#[derive(Debug, Clone)]
pub struct CacheParams {
    /// Total frames in the cache.
    pub frames: usize,
    /// Transfer rate of one port in bytes/second.
    ///
    /// CCD serial memories of the era sustained on the order of megabytes
    /// per second per port; the default is 4 MB/s.
    pub bytes_per_sec: f64,
    /// Number of independent ports ("multiport disk cache").
    pub ports: usize,
}

impl Default for CacheParams {
    fn default() -> Self {
        CacheParams {
            frames: 256,
            bytes_per_sec: 4_000_000.0,
            ports: 4,
        }
    }
}

impl CacheParams {
    /// Port service time for `bytes`.
    pub fn service_time(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

/// A page frame's metadata.
#[derive(Debug, Clone, Copy)]
struct FrameMeta {
    owner: OwnerId,
    bytes: usize,
}

/// The simulated multiport disk cache.
#[derive(Debug, Clone)]
pub struct DiskCache {
    params: CacheParams,
    ports: Resource,
    resident: HashMap<PageId, FrameMeta>,
    /// Per-owner LRU (deterministic iteration is irrelevant: lookups are by key).
    lru: HashMap<OwnerId, LruIndex>,
    /// Per-owner frame quota; owners absent from the map share the slack.
    quotas: HashMap<OwnerId, usize>,
    /// Per-owner frame occupancy.
    occupancy: HashMap<OwnerId, usize>,
    /// Bytes moved into the cache.
    pub in_traffic: ByteCounter,
    /// Bytes read out of the cache.
    pub out_traffic: ByteCounter,
}

impl DiskCache {
    /// A cache with the given parameters and no per-owner quotas (all
    /// owners share the full frame pool).
    pub fn new(params: CacheParams) -> DiskCache {
        let ports = params.ports;
        DiskCache {
            params,
            ports: Resource::new("cache-ports", ports),
            resident: HashMap::new(),
            lru: HashMap::new(),
            quotas: HashMap::new(),
            occupancy: HashMap::new(),
            in_traffic: ByteCounter::new(),
            out_traffic: ByteCounter::new(),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Set `owner`'s frame quota (paper: proportional to the IPs it
    /// controls). Owners without a quota are bounded only by the pool.
    pub fn set_quota(&mut self, owner: OwnerId, frames: usize) {
        self.quotas.insert(owner, frames);
    }

    /// Total frames in use.
    pub fn frames_used(&self) -> usize {
        self.resident.len()
    }

    /// Frames in use by `owner`.
    fn frames_used_by(&self, owner: OwnerId) -> usize {
        self.occupancy.get(&owner).copied().unwrap_or(0)
    }

    /// Whether `id` is cached.
    pub fn contains(&self, id: PageId) -> bool {
        self.resident.contains_key(&id)
    }

    /// Insert page `id` for `owner`, charging one port transfer.
    ///
    /// If the owner's quota (or the pool) is full, least-recently-used
    /// unpinned pages of the same owner are evicted first; the evicted ids
    /// are returned so the caller can write them to mass storage (and charge
    /// that time). If nothing evictable exists the insert still succeeds —
    /// the cache overcommits rather than deadlocks — mirroring the paper's
    /// MC granting emergency frames; callers can detect overcommit via
    /// [`DiskCache::frames_used`].
    ///
    /// Returns `(start, completion, evicted)`.
    pub fn insert(
        &mut self,
        now: SimTime,
        owner: OwnerId,
        id: PageId,
        bytes: usize,
    ) -> (SimTime, SimTime, Vec<PageId>) {
        assert!(
            !self.resident.contains_key(&id),
            "DiskCache::insert: page {id} already cached"
        );
        let mut evicted = Vec::new();
        // Enforce the owner quota first, then the global pool.
        while self.over_quota(owner, 1) {
            match self.lru.get_mut(&owner).and_then(LruIndex::evict) {
                Some(victim) => {
                    self.forget(victim);
                    evicted.push(victim);
                }
                None => break, // everything pinned: overcommit
            }
        }
        while self.resident.len() + 1 > self.params.frames {
            match self.evict_any() {
                Some(victim) => evicted.push(victim),
                None => break, // overcommit
            }
        }

        self.resident.insert(id, FrameMeta { owner, bytes });
        *self.occupancy.entry(owner).or_insert(0) += 1;
        self.lru.entry(owner).or_default().insert(id);
        self.in_traffic.record(bytes as u64);
        let service = self.params.service_time(bytes);
        let (s, c) = self.ports.submit(now, service);
        (s, c, evicted)
    }

    /// Read page `id` out of the cache, charging one port transfer and
    /// refreshing its LRU position. Returns `(start, completion)`.
    ///
    /// # Panics
    /// Panics if the page is not cached.
    pub fn read(&mut self, now: SimTime, id: PageId) -> (SimTime, SimTime) {
        let meta = *self
            .resident
            .get(&id)
            .unwrap_or_else(|| panic!("DiskCache::read: page {id} not cached"));
        self.lru
            .get_mut(&meta.owner)
            .expect("owner has an LRU index")
            .touch(id);
        self.out_traffic.record(meta.bytes as u64);
        let service = self.params.service_time(meta.bytes);
        self.ports.submit(now, service)
    }

    /// Pin a cached page against eviction. Pins nest.
    pub fn pin(&mut self, id: PageId) {
        let meta = *self
            .resident
            .get(&id)
            .unwrap_or_else(|| panic!("DiskCache::pin: page {id} not cached"));
        self.lru
            .get_mut(&meta.owner)
            .expect("owner has an LRU index")
            .pin(id);
    }

    /// Undo one pin.
    pub fn unpin(&mut self, id: PageId) {
        let meta = *self
            .resident
            .get(&id)
            .unwrap_or_else(|| panic!("DiskCache::unpin: page {id} not cached"));
        self.lru
            .get_mut(&meta.owner)
            .expect("owner has an LRU index")
            .unpin(id);
    }

    /// Drop a page without charging time (dead intermediate reclamation).
    pub fn discard(&mut self, id: PageId) {
        if let Some(meta) = self.resident.get(&id).copied() {
            self.lru
                .get_mut(&meta.owner)
                .expect("owner has an LRU index")
                .remove(id);
            self.forget(id);
        }
    }

    fn over_quota(&self, owner: OwnerId, adding: usize) -> bool {
        match self.quotas.get(&owner) {
            Some(&q) => self.frames_used_by(owner) + adding > q,
            None => false,
        }
    }

    /// Evict the globally least-recently-used unpinned page.
    fn evict_any(&mut self) -> Option<PageId> {
        // Deterministic: scan owners in ascending order, pick the best
        // candidate by (stamp-free) comparison of per-owner LRU heads using
        // page id as the final tiebreak. Owner count is small (≤ #ICs).
        let mut owners: Vec<OwnerId> = self.lru.keys().copied().collect();
        owners.sort_unstable();
        let victim = owners
            .into_iter()
            .filter_map(|o| self.lru[&o].lru_candidate())
            .min()?;
        let meta = self.resident[&victim];
        self.lru
            .get_mut(&meta.owner)
            .expect("owner has an LRU index")
            .remove(victim);
        self.forget(victim);
        Some(victim)
    }

    fn forget(&mut self, id: PageId) {
        if let Some(meta) = self.resident.remove(&id) {
            let occ = self
                .occupancy
                .get_mut(&meta.owner)
                .expect("occupancy tracked per owner");
            *occ -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> PageId {
        PageId(n)
    }

    fn cache(frames: usize) -> DiskCache {
        DiskCache::new(CacheParams {
            frames,
            bytes_per_sec: 1e6,
            ports: 1,
        })
    }

    #[test]
    fn insert_and_read_charge_port_time() {
        let mut c = cache(4);
        let (_, done, ev) = c.insert(SimTime::ZERO, 0, pid(1), 1_000);
        assert!(ev.is_empty());
        assert_eq!(done, SimTime::ZERO + Duration::from_millis(1));
        let (s, _) = c.read(done, pid(1));
        assert_eq!(s, done);
        assert_eq!(c.in_traffic.bytes, 1000);
        assert_eq!(c.out_traffic.bytes, 1000);
    }

    #[test]
    fn pool_eviction_is_lru() {
        let mut c = cache(2);
        c.insert(SimTime::ZERO, 0, pid(1), 10);
        c.insert(SimTime::ZERO, 0, pid(2), 10);
        c.read(SimTime::ZERO, pid(1)); // 2 is now LRU
        let (_, _, ev) = c.insert(SimTime::ZERO, 0, pid(3), 10);
        assert_eq!(ev, vec![pid(2)]);
        assert!(c.contains(pid(1)) && c.contains(pid(3)));
        assert_eq!(c.frames_used(), 2);
    }

    #[test]
    fn owner_quota_evicts_own_pages_first() {
        let mut c = cache(10);
        c.set_quota(1, 2);
        c.insert(SimTime::ZERO, 1, pid(1), 10);
        c.insert(SimTime::ZERO, 1, pid(2), 10);
        c.insert(SimTime::ZERO, 2, pid(3), 10);
        let (_, _, ev) = c.insert(SimTime::ZERO, 1, pid(4), 10);
        assert_eq!(ev, vec![pid(1)]);
        assert!(c.contains(pid(3)), "other owner untouched");
        assert_eq!(c.frames_used_by(1), 2);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let mut c = cache(2);
        c.insert(SimTime::ZERO, 0, pid(1), 10);
        c.pin(pid(1));
        c.insert(SimTime::ZERO, 0, pid(2), 10);
        let (_, _, ev) = c.insert(SimTime::ZERO, 0, pid(3), 10);
        assert_eq!(ev, vec![pid(2)]);
        assert!(c.contains(pid(1)));
        // Now both remaining evictables are gone -> overcommit.
        c.pin(pid(3));
        let (_, _, ev) = c.insert(SimTime::ZERO, 0, pid(4), 10);
        assert!(ev.is_empty());
        assert_eq!(c.frames_used(), 3); // overcommitted past 2 frames
        c.unpin(pid(1));
        c.unpin(pid(3));
    }

    #[test]
    fn discard_frees_frames() {
        let mut c = cache(2);
        c.insert(SimTime::ZERO, 0, pid(1), 10);
        c.discard(pid(1));
        assert!(!c.contains(pid(1)));
        assert_eq!(c.frames_used(), 0);
        // Discarding twice is a no-op.
        c.discard(pid(1));
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_panics() {
        let mut c = cache(2);
        c.insert(SimTime::ZERO, 0, pid(1), 10);
        c.insert(SimTime::ZERO, 0, pid(1), 10);
    }

    #[test]
    #[should_panic(expected = "not cached")]
    fn read_of_absent_page_panics() {
        let mut c = cache(2);
        c.read(SimTime::ZERO, pid(9));
    }
}
