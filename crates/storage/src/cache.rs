//! The multiport disk cache (Intel 2314 CCD in the paper).
//!
//! A fixed pool of page frames between mass storage and the processors.
//! Supports optional per-owner segmentation: paper §4.1 suggests dividing
//! the cache "among the ICs according to the number of IPs each is
//! controlling", with each IC swapping to disk when its own segment fills.
//! The DIRECT-style machine of `df-core` uses a single shared segment.

use df_sim::stats::ByteCounter;
use df_sim::{Duration, Resource, SimTime};

use crate::lru::LruIndex;
use crate::page_map::PageMap;
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

/// One owner's segment of the cache.
#[derive(Debug, Clone, Default)]
struct Segment {
    lru: LruIndex,
    /// Frame quota; an owner without one shares the slack.
    quota: Option<usize>,
    /// Frames in use.
    occupancy: usize,
}

/// The simulated multiport disk cache.
#[derive(Debug, Clone)]
pub struct DiskCache {
    params: CacheParams,
    ports: Resource,
    resident: PageMap<FrameMeta>,
    /// Per-owner segments, indexed by owner id (owners are few: ≤ #ICs), so
    /// scanning them in order visits owners in ascending id.
    segments: Vec<Segment>,
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
            resident: PageMap::new(),
            segments: Vec::new(),
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
        self.segment(owner).quota = Some(frames);
    }

    /// `owner`'s segment, created empty on first use.
    fn segment(&mut self, owner: OwnerId) -> &mut Segment {
        if owner >= self.segments.len() {
            self.segments.resize_with(owner + 1, Segment::default);
        }
        &mut self.segments[owner]
    }

    /// The LRU index of a resident page's owner.
    fn lru_of(&mut self, id: PageId, op: &str) -> &mut LruIndex {
        let meta = *self
            .resident
            .get(id)
            .unwrap_or_else(|| panic!("DiskCache::{op}: page {id} not cached"));
        &mut self.segments[meta.owner].lru
    }

    /// Total frames in use.
    pub fn frames_used(&self) -> usize {
        self.resident.len()
    }

    /// Frames in use by `owner`.
    fn frames_used_by(&self, owner: OwnerId) -> usize {
        self.segments.get(owner).map_or(0, |s| s.occupancy)
    }

    /// Whether `id` is cached.
    pub fn contains(&self, id: PageId) -> bool {
        self.resident.contains(id)
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
            !self.resident.contains(id),
            "DiskCache::insert: page {id} already cached"
        );
        let mut evicted = Vec::new();
        // Enforce the owner quota first, then the global pool.
        while self.over_quota(owner, 1) {
            match self.segments.get_mut(owner).and_then(|s| s.lru.evict()) {
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
        let segment = self.segment(owner);
        segment.occupancy += 1;
        segment.lru.insert(id);
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
            .get(id)
            .unwrap_or_else(|| panic!("DiskCache::read: page {id} not cached"));
        self.segments[meta.owner].lru.touch(id);
        self.out_traffic.record(meta.bytes as u64);
        let service = self.params.service_time(meta.bytes);
        self.ports.submit(now, service)
    }

    /// Pin a cached page against eviction. Pins nest.
    pub fn pin(&mut self, id: PageId) {
        self.lru_of(id, "pin").pin(id);
    }

    /// Undo one pin.
    pub fn unpin(&mut self, id: PageId) {
        self.lru_of(id, "unpin").unpin(id);
    }

    /// Drop a page without charging time (dead intermediate reclamation).
    pub fn discard(&mut self, id: PageId) {
        if self.resident.contains(id) {
            self.lru_of(id, "discard").remove(id);
            self.forget(id);
        }
    }

    fn over_quota(&self, owner: OwnerId, adding: usize) -> bool {
        match self.segments.get(owner).and_then(|s| s.quota) {
            Some(q) => self.frames_used_by(owner) + adding > q,
            None => false,
        }
    }

    /// Evict an unpinned page to make room in the pool: of the owners'
    /// least-recently-used pages, the one of least page id (each owner keeps
    /// its own use clock, so their stamps do not compare).
    fn evict_any(&mut self) -> Option<PageId> {
        let victim = (self.segments.iter())
            .filter_map(|s| s.lru.lru_candidate())
            .min()?;
        self.lru_of(victim, "evict").remove(victim);
        self.forget(victim);
        Some(victim)
    }

    fn forget(&mut self, id: PageId) {
        if let Some(meta) = self.resident.remove(id) {
            self.segments[meta.owner].occupancy -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The reference cache: every resident page with its owner, bytes and
    /// last-use stamp, searched linearly.
    #[derive(Default)]
    struct Naive {
        pages: Vec<(PageId, OwnerId, usize, u64)>,
        clock: u64,
        in_bytes: u64,
        out_bytes: u64,
        inserts: u64,
        reads: u64,
    }

    impl Naive {
        /// An owner's least-recently-used page.
        fn lru_of(&self, owner: OwnerId) -> Option<PageId> {
            (self.pages.iter())
                .filter(|p| p.1 == owner)
                .min_by_key(|p| p.3)
                .map(|p| p.0)
        }

        fn drop_page(&mut self, id: PageId) {
            self.pages.retain(|p| p.0 != id);
        }

        /// Insert as [`DiskCache::insert`] specifies it: evict the owner's
        /// LRU pages while it is over its quota, then, while the pool is
        /// full, the least page id among the owners' LRU pages.
        fn insert(
            &mut self,
            frames: usize,
            quota: &[Option<usize>],
            owner: OwnerId,
            id: PageId,
            bytes: usize,
        ) -> Vec<PageId> {
            let mut evicted = Vec::new();
            while let Some(q) = quota[owner] {
                let used = self.pages.iter().filter(|p| p.1 == owner).count();
                if used < q {
                    break;
                }
                let victim = self.lru_of(owner).expect("nothing is pinned");
                self.drop_page(victim);
                evicted.push(victim);
            }
            while self.pages.len() >= frames {
                let victim = (0..quota.len())
                    .filter_map(|o| self.lru_of(o))
                    .min()
                    .expect("nothing is pinned");
                self.drop_page(victim);
                evicted.push(victim);
            }
            self.clock += 1;
            self.pages.push((id, owner, bytes, self.clock));
            self.in_bytes += bytes as u64;
            self.inserts += 1;
            evicted
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(OwnerId, u64, usize),
        Read(u64),
        Discard(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..2, 0u64..40, 1usize..200).prop_map(|(o, k, b)| Op::Insert(o, k, b)),
            (0u64..40).prop_map(Op::Read),
            (0u64..40).prop_map(Op::Discard),
        ]
    }

    proptest! {
        /// Two owners share an 8-frame pool, owner 0 under a 3-frame quota.
        /// Random insert/read/discard sequences evict the reference's ids
        /// in the reference's order and move the same bytes.
        #[test]
        fn agrees_with_a_naive_model(ops in proptest::collection::vec(op(), 0..300)) {
            const FRAMES: usize = 8;
            let quota = [Some(3), None];
            let mut c = cache(FRAMES);
            c.set_quota(0, 3);
            let mut naive = Naive::default();
            for op in ops {
                match op {
                    Op::Insert(owner, k, bytes) => {
                        if !c.contains(pid(k)) {
                            let want = naive.insert(FRAMES, &quota, owner, pid(k), bytes);
                            let (_, _, got) = c.insert(SimTime::ZERO, owner, pid(k), bytes);
                            prop_assert_eq!(got, want);
                        }
                    }
                    Op::Read(k) => {
                        naive.clock += 1;
                        let clock = naive.clock;
                        if let Some(p) = naive.pages.iter_mut().find(|p| p.0 == pid(k)) {
                            p.3 = clock;
                            naive.out_bytes += p.2 as u64;
                            naive.reads += 1;
                            c.read(SimTime::ZERO, pid(k));
                        }
                    }
                    Op::Discard(k) => {
                        naive.drop_page(pid(k));
                        c.discard(pid(k));
                    }
                }
                prop_assert_eq!(c.frames_used(), naive.pages.len());
                for owner in 0..2 {
                    prop_assert_eq!(
                        c.frames_used_by(owner),
                        naive.pages.iter().filter(|p| p.1 == owner).count()
                    );
                }
                prop_assert_eq!(c.in_traffic.bytes, naive.in_bytes);
                prop_assert_eq!(c.in_traffic.transfers, naive.inserts);
                prop_assert_eq!(c.out_traffic.bytes, naive.out_bytes);
                prop_assert_eq!(c.out_traffic.transfers, naive.reads);
            }
        }
    }
}
