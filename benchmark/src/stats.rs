//! The benchmark's own arithmetic: percentiles, the round-median
//! throughput estimator, and the quartile spread the `aa` sub-command
//! reports. Everything here is unit-tested because every reported number
//! passes through it.

/// Sort a sample ascending (latencies and rates are always finite).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// The `p`-th percentile (0 < p ≤ 1) of an ascending sample by the
/// nearest-rank rule: the smallest value with at least `p` of the sample
/// at or below it. 0.0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// The 1-based nearest rank of the `p`-th percentile in `n ≥ 1` samples.
/// The small allowance keeps a product such as 0.9 × 100, which floating
/// point puts a hair above 90, from rounding up to the next rank.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The true median: the middle value, or the mean of the two middle
/// values of an even-sized sample. 0.0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it in a sample of `n` — the tail a run of this size can
/// state honestly. `None` below 20 samples (not even the median has ten
/// beyond it).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.5]
        .into_iter()
        .find(|&p| n >= 1 && n - rank(p, n) >= 10)
}

/// Throughput as the median over timed rounds of (ops in the round ÷ the
/// round's wall seconds). Work per round is constant, so one stolen
/// time-slice spoils one round's rate, not the run's.
pub fn round_median_rate(rounds: &[(u64, f64)]) -> f64 {
    let rates: Vec<f64> = rounds
        .iter()
        .filter(|(_, secs)| *secs > 0.0)
        .map(|(ops, secs)| *ops as f64 / secs)
        .collect();
    median(&rates)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them: the driver computes run-to-run spread with that function,
/// so `aa` must too. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, linearly interpolated and
        // clamped to the sample, as CPython does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile range as a share of the median — the run-to-run spread
/// the benchmark contract bounds. 0.0 when the median is 0 or the sample
/// has fewer than two values.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_is_the_true_median_not_a_lower_quartile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // A bimodal sample: the median sits between the modes, never at
        // the 25th percentile.
        assert_eq!(median(&[1.0, 1.0, 1.0, 9.0, 9.0, 9.0]), 5.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn one_slow_round_does_not_move_the_round_median() {
        let steady = vec![(100u64, 1.0f64); 9];
        let mut spoiled = steady.clone();
        spoiled[4] = (100, 3.0); // a stolen time-slice
        assert_eq!(round_median_rate(&steady), 100.0);
        assert_eq!(round_median_rate(&spoiled), 100.0);
        // The mean-based estimate would have moved by ~18 %.
        let total_ops: u64 = spoiled.iter().map(|r| r.0).sum();
        let total_secs: f64 = spoiled.iter().map(|r| r.1).sum();
        assert!(total_ops as f64 / total_secs < 85.0);
        assert_eq!(round_median_rate(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[5.0, 5.0, 5.0]), 0.0);
    }
}
