//! The yardstick: one fixed piece of computing, owned by the benchmark
//! and independent of the program, timed between rounds. The vCPUs of
//! this shared VM run the same code 20–90 % slower or faster from one
//! quarter-second to the next (neighbours on the host), so a timing by
//! itself does not repeat. The whole benchmark — program threads, the
//! `df-serve` child, the load generator — is pinned to ONE vCPU (see
//! `affinity.rs`), where every slowdown is common to all of them, and a
//! pass runs on that same vCPU while everything else is idle. A pass's
//! time ÷ [`NOMINAL_S`] is the vCPU's *speed factor* at that moment, and
//! every timing the benchmark gates is divided by the factor of the
//! passes right before and after it. Rounds are kept short (a few
//! hundred ms) because the factor is only as good as it is close in
//! time: with 1.6 s between passes the normalised readings of identical
//! runs spread 6–8 %, with 0.2 s between passes 1–2 %. Raw timings are
//! printed beside the normalised ones.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::gen::splitmix64;

/// What one pass takes on this VM when its neighbours are quiet. Only
/// ratios of normalised values are ever compared, so the constant's
/// exact value matters to nobody; it keeps normalised numbers close to
/// the raw ones of a quiet machine.
pub const NOMINAL_S: f64 = 0.0105;

/// Values sorted and counted by a pass (2.3 MiB: larger than L2, so the
/// pass feels cache and memory contention as well as lost cycles).
const VALUES: usize = 300_000;
/// Distinct keys the values are counted under.
const KEYS: u64 = 50_021;

/// The yardstick's buffers, allocated once so that a pass asks the
/// kernel for nothing and the process's peak memory does not depend on
/// how many passes ran. The map hashes with fixed keys: with the default
/// per-process random keys every run had a table layout, hence a pass
/// time, of its own (7–20 % apart in alternated runs).
pub struct Yardstick {
    values: Vec<u64>,
    counts: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        Yardstick {
            values: vec![0; VALUES],
            counts: HashMap::with_capacity_and_hasher(2 * KEYS as usize, Default::default()),
        }
    }

    /// One pass on the calling thread; returns its wall seconds.
    pub fn pass(&mut self) -> f64 {
        let start = Instant::now();
        for (i, v) in self.values.iter_mut().enumerate() {
            *v = splitmix64(i as u64);
        }
        self.values.sort_unstable();
        self.counts.clear();
        for (i, v) in self.values.iter().enumerate() {
            *self.counts.entry(v % KEYS).or_insert(0) += i;
        }
        black_box((&self.values, &self.counts));
        start.elapsed().as_secs_f64()
    }
}

/// The speed factor of a stretch of work from the pass taken right
/// before it and the pass taken right after it: their mean ÷
/// [`NOMINAL_S`].
pub fn factor(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_repeat_the_same_work_in_the_same_buffers() {
        let mut y = Yardstick::new();
        assert!(y.pass() > 0.0);
        let (capacity, keys) = (y.counts.capacity(), y.counts.len());
        let first: usize = y.counts.values().sum();
        assert!(y.pass() > 0.0);
        assert_eq!(y.counts.values().sum::<usize>(), first);
        assert_eq!((y.counts.capacity(), y.counts.len()), (capacity, keys));
        assert_eq!(y.values.len(), VALUES);
    }

    #[test]
    fn a_factor_is_the_mean_of_the_two_passes_over_nominal() {
        assert!((factor(NOMINAL_S, NOMINAL_S) - 1.0).abs() < 1e-12);
        assert!((factor(NOMINAL_S, 3.0 * NOMINAL_S) - 2.0).abs() < 1e-12);
    }
}
