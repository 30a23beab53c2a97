//! Mass storage: IBM-3330-like disk drives.
//!
//! Paper §4.1 assumes "two IBM 3330 disk drives for mass storage of
//! relations". The 3330's published characteristics — 30 ms average seek,
//! 16.7 ms full rotation (8.35 ms average latency), 806 KB/s transfer — are
//! the defaults here. Requests queue FCFS on the set of drive arms.

use std::collections::BTreeSet;

use df_sim::stats::ByteCounter;
use df_sim::{Duration, Resource, SimTime};

use crate::store::PageId;

/// Timing and configuration parameters for [`MassStorage`].
#[derive(Debug, Clone)]
pub struct DiskParams {
    /// Average seek time charged per request.
    pub avg_seek: Duration,
    /// Average rotational latency charged per request (half a rotation).
    pub avg_rotational_latency: Duration,
    /// Sustained transfer rate in bytes/second.
    pub bytes_per_sec: f64,
    /// Number of independent drives (arms).
    pub drives: usize,
}

impl Default for DiskParams {
    /// Two IBM 3330 drives, as in the paper.
    fn default() -> Self {
        DiskParams {
            avg_seek: Duration::from_millis(30),
            avg_rotational_latency: Duration::from_micros(8_350),
            bytes_per_sec: 806_000.0,
            drives: 2,
        }
    }
}

impl DiskParams {
    /// Service time for transferring `bytes` (seek + latency + transfer).
    pub fn service_time(&self, bytes: usize) -> Duration {
        self.avg_seek
            + self.avg_rotational_latency
            + Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

/// The simulated mass-storage subsystem.
#[derive(Debug, Clone)]
pub struct MassStorage {
    params: DiskParams,
    arms: Resource,
    /// Pages currently resident on disk.
    resident: BTreeSet<PageId>,
    /// Bytes read from disk.
    pub read_traffic: ByteCounter,
    /// Bytes written to disk.
    pub write_traffic: ByteCounter,
}

impl MassStorage {
    /// A disk subsystem with the given parameters.
    pub fn new(params: DiskParams) -> MassStorage {
        let drives = params.drives;
        MassStorage {
            params,
            arms: Resource::new("disk-arms", drives),
            resident: BTreeSet::new(),
            read_traffic: ByteCounter::new(),
            write_traffic: ByteCounter::new(),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Declare `id` resident on disk without charging time (initial database
    /// load — the paper's benchmark starts with all source relations on
    /// mass storage).
    pub fn preload(&mut self, id: PageId) {
        self.resident.insert(id);
    }

    /// Whether `id` is on disk.
    pub fn contains(&self, id: PageId) -> bool {
        self.resident.contains(&id)
    }

    /// Read `bytes` of page `id`, queueing on a drive arm.
    ///
    /// Returns `(start, completion)`.
    ///
    /// # Panics
    /// Panics if the page is not on disk — the caller's residency tracking
    /// has diverged from the device's.
    pub fn read(&mut self, now: SimTime, id: PageId, bytes: usize) -> (SimTime, SimTime) {
        assert!(
            self.resident.contains(&id),
            "MassStorage::read: page {id} is not on disk"
        );
        self.read_traffic.record(bytes as u64);
        let service = self.params.service_time(bytes);
        self.arms.submit(now, service)
    }

    /// Write `bytes` of page `id` to disk (page becomes resident).
    ///
    /// Returns `(start, completion)`.
    pub fn write(&mut self, now: SimTime, id: PageId, bytes: usize) -> (SimTime, SimTime) {
        self.resident.insert(id);
        self.write_traffic.record(bytes as u64);
        let service = self.params.service_time(bytes);
        self.arms.submit(now, service)
    }

    /// Drop a page from disk (space reclamation for dead intermediates).
    pub fn discard(&mut self, id: PageId) {
        self.resident.remove(&id);
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.read_traffic.bytes + self.write_traffic.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> PageId {
        PageId(n)
    }

    #[test]
    fn service_time_model() {
        let p = DiskParams::default();
        // 16 KB page: 30ms + 8.35ms + 16384/806000 s ≈ 58.68 ms.
        let t = p.service_time(16 * 1024);
        let expect_ms = 30.0 + 8.35 + 16384.0 / 806_000.0 * 1000.0;
        assert!((t.as_millis_f64() - expect_ms).abs() < 0.01, "{t}");
    }

    #[test]
    fn read_requires_residency() {
        let mut d = MassStorage::new(DiskParams::default());
        d.preload(pid(1));
        let (s, c) = d.read(SimTime::ZERO, pid(1), 1000);
        assert_eq!(s, SimTime::ZERO);
        assert!(c > s);
        assert_eq!(d.read_traffic.bytes, 1000);
    }

    #[test]
    #[should_panic(expected = "not on disk")]
    fn read_of_absent_page_panics() {
        let mut d = MassStorage::new(DiskParams::default());
        d.read(SimTime::ZERO, pid(1), 1000);
    }

    #[test]
    fn writes_make_pages_resident() {
        let mut d = MassStorage::new(DiskParams::default());
        d.write(SimTime::ZERO, pid(2), 500);
        assert!(d.contains(pid(2)));
        assert_eq!(d.write_traffic.bytes, 500);
        assert_eq!(d.total_bytes(), 500);
        d.discard(pid(2));
        assert!(!d.contains(pid(2)));
    }

    #[test]
    fn two_drives_overlap_but_three_requests_queue() {
        let params = DiskParams {
            avg_seek: Duration::from_millis(10),
            avg_rotational_latency: Duration::ZERO,
            bytes_per_sec: 1e9, // transfer negligible
            drives: 2,
        };
        let mut d = MassStorage::new(params);
        for n in 0..3 {
            d.preload(pid(n));
        }
        let (_, c1) = d.read(SimTime::ZERO, pid(0), 10);
        let (_, c2) = d.read(SimTime::ZERO, pid(1), 10);
        let (s3, _) = d.read(SimTime::ZERO, pid(2), 10);
        assert_eq!(c1, c2); // parallel arms
        assert_eq!(s3, c1); // third waits
    }
}
