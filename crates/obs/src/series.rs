//! Per-interval byte accounting — bandwidth demand as a *curve*.
//!
//! The paper's Figure 4.2 reports average demand (total bytes / makespan);
//! a single average hides bursts that would saturate a 40 Mbps ring long
//! before the mean suggests. An [`IntervalSeries`] accumulates traced
//! bytes into fixed-width time buckets and exposes the resulting Mbps
//! series, so the demand curves can be re-derived from *measured*
//! transfers rather than the closed-form §3.3 arithmetic.

/// Self-scaling per-interval byte accumulator.
///
/// Buckets have a fixed width; when a record lands beyond the last
/// representable bucket the series coalesces adjacent pairs and doubles
/// the width, so any horizon fits in at most `max_buckets` buckets and
/// recording stays O(1) amortized. Totals are conserved exactly through
/// coalescing — `total_bytes` always equals the sum of all records.
///
/// ```
/// use df_obs::IntervalSeries;
/// let mut s = IntervalSeries::new(1_000, 4); // 1 µs buckets, at most 4
/// s.record(0, 100);
/// s.record(3_500, 50);
/// assert_eq!(s.total_bytes(), 150);
/// assert_eq!(s.buckets(), &[100, 0, 0, 50]);
/// s.record(7_999, 50); // beyond bucket 3 → coalesce, width doubles
/// assert_eq!(s.interval_secs(), 2e-6);
/// assert_eq!(s.buckets(), &[100, 50, 0, 50]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSeries {
    interval_ns: u64,
    max_buckets: usize,
    buckets: Vec<u64>,
}

impl Default for IntervalSeries {
    /// 1 ms initial buckets, at most 512 of them — suits both the host
    /// executor (runs of milliseconds to minutes) and the simulators
    /// (makespans of seconds).
    fn default() -> IntervalSeries {
        IntervalSeries::new(1_000_000, 512)
    }
}

impl IntervalSeries {
    /// A series with `initial_interval_ns`-wide buckets (≥ 1 ns), holding
    /// at most `max_buckets` (≥ 2) before coalescing.
    pub fn new(initial_interval_ns: u64, max_buckets: usize) -> IntervalSeries {
        IntervalSeries {
            interval_ns: initial_interval_ns.max(1),
            max_buckets: max_buckets.max(2),
            buckets: Vec::new(),
        }
    }

    /// Add `bytes` at time `t_ns`.
    pub fn record(&mut self, t_ns: u64, bytes: u64) {
        let mut idx = (t_ns / self.interval_ns) as usize;
        while idx >= self.max_buckets {
            self.coalesce();
            idx = (t_ns / self.interval_ns) as usize;
        }
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += bytes;
    }

    /// Halve the resolution: sum adjacent bucket pairs, double the width.
    fn coalesce(&mut self) {
        let merged: Vec<u64> = self
            .buckets
            .chunks(2)
            .map(|pair| pair.iter().sum())
            .collect();
        self.buckets = merged;
        self.interval_ns *= 2;
    }

    /// Current bucket width in seconds.
    pub fn interval_secs(&self) -> f64 {
        self.interval_ns as f64 / 1e9
    }

    /// Bytes per bucket, from t = 0.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Sum of all recorded bytes (conserved through coalescing).
    pub fn total_bytes(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// The demand curve: average megabits/second within each interval
    /// (the paper quotes ring capacities in Mbps).
    pub fn mbps_series(&self) -> Vec<f64> {
        let secs = self.interval_secs();
        self.buckets
            .iter()
            .map(|&b| b as f64 * 8.0 / 1e6 / secs)
            .collect()
    }

    /// Mean demand over the recorded horizon in Mbps — comparable to the
    /// `ByteCounter`-derived Figure 4.2 averages (0 when empty).
    pub fn mean_mbps(&self) -> f64 {
        if self.buckets.is_empty() {
            return 0.0;
        }
        let horizon = self.interval_secs() * self.buckets.len() as f64;
        self.total_bytes() as f64 * 8.0 / 1e6 / horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_into_the_right_buckets() {
        let mut s = IntervalSeries::new(1_000, 8);
        s.record(0, 1);
        s.record(999, 2);
        s.record(1_000, 4);
        assert_eq!(s.buckets(), &[3, 4]);
        assert_eq!(s.total_bytes(), 7);
    }

    #[test]
    fn coalescing_conserves_totals() {
        let mut s = IntervalSeries::new(1, 4);
        for t in 0..64u64 {
            s.record(t, 10);
        }
        assert_eq!(s.total_bytes(), 640);
        assert!(s.buckets().len() <= 4);
        // 64 ns of records in ≤ 4 buckets → width ≥ 16 ns.
        assert!(s.interval_ns >= 16);
    }

    #[test]
    fn far_future_record_scales_in_one_call() {
        let mut s = IntervalSeries::new(1, 4);
        s.record(0, 5);
        s.record(1_000_000, 5); // forces many doublings at once
        assert_eq!(s.total_bytes(), 10);
        assert!(s.buckets().len() <= 4);
    }

    #[test]
    fn mbps_views() {
        // 1 s buckets: 1 MB in bucket 0, nothing in bucket 1.
        let mut s = IntervalSeries::new(1_000_000_000, 16);
        s.record(0, 1_000_000);
        s.record(1_500_000_000, 0);
        let curve = s.mbps_series();
        assert_eq!(curve.len(), 2);
        assert!((curve[0] - 8.0).abs() < 1e-9);
        assert_eq!(curve[1], 0.0);
        assert!((s.mean_mbps() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_is_safe() {
        let s = IntervalSeries::default();
        assert!(s.is_empty());
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.mean_mbps(), 0.0);
        assert!(s.mbps_series().is_empty());
    }
}
