//! Measurement utilities: byte counters.

use crate::time::SimTime;

/// A monotone byte/packet counter with a derived average-bandwidth view.
///
/// This is the primitive behind every bandwidth number in the reproduction:
/// the paper's Figure 4.2 reports "total number of bytes transferred divided
/// by the execution time of the benchmark", which is exactly
/// [`ByteCounter::mean_bandwidth_mbps`] (in megabits per second).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteCounter {
    /// Total bytes recorded.
    pub bytes: u64,
    /// Total transfer operations (packets/pages) recorded.
    pub transfers: u64,
}

impl ByteCounter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        ByteCounter {
            bytes: 0,
            transfers: 0,
        }
    }

    /// Record one transfer of `bytes` bytes.
    #[inline]
    pub fn record(&mut self, bytes: u64) {
        self.bytes += bytes;
        self.transfers += 1;
    }

    /// Merge another counter into this one.
    #[inline]
    pub fn merge(&mut self, other: &ByteCounter) {
        self.bytes += other.bytes;
        self.transfers += other.transfers;
    }

    /// Average bandwidth in bytes/second over `[0, horizon]` (0 if horizon is 0).
    fn mean_bandwidth_bps(&self, horizon: SimTime) -> f64 {
        let s = horizon.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.bytes as f64 / s
        }
    }

    /// Average bandwidth in megabits/second over `[0, horizon]`.
    ///
    /// The paper quotes ring capacities in Mbps (40 Mbps shift-register ring,
    /// 400 Mbps fiber), so Figure 4.2 is reported in the same unit.
    pub fn mean_bandwidth_mbps(&self, horizon: SimTime) -> f64 {
        self.mean_bandwidth_bps(horizon) * 8.0 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_counter_bandwidth() {
        let mut c = ByteCounter::new();
        c.record(1_000_000);
        c.record(1_000_000);
        // 2 MB over 2 seconds = 1 MB/s = 8 Mbps.
        let t = SimTime::from_nanos(2_000_000_000);
        assert!((c.mean_bandwidth_bps(t) - 1e6).abs() < 1e-6);
        assert!((c.mean_bandwidth_mbps(t) - 8.0).abs() < 1e-9);
        assert_eq!(c.transfers, 2);
    }

    #[test]
    fn byte_counter_merge_and_zero_horizon() {
        let mut a = ByteCounter::new();
        a.record(10);
        let mut b = ByteCounter::new();
        b.record(32);
        a.merge(&b);
        assert_eq!(a.bytes, 42);
        assert_eq!(a.transfers, 2);
        assert_eq!(a.mean_bandwidth_bps(SimTime::ZERO), 0.0);
    }
}
