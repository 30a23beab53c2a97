//! Deterministic fault injection for the host executor.
//!
//! The stream-processing literature treats worker loss and reassignment as
//! the baseline operating condition, not an abort; a fault-tolerance claim
//! is only as good as the harness that exercises it. A [`FaultPlan`] lets
//! tests (and `host_run --fault-*`) inject three failure modes on demand,
//! all derived deterministically from the plan and each unit's global
//! dispatch sequence number:
//!
//! * **kernel panics** — a chosen unit (`panic_on_unit`) or a seeded
//!   fraction of all units (`panic_rate` drawn from `seed`) panics inside
//!   the kernel; the executor must contain it to the queries that read
//!   the unit's cell;
//! * **delays** — every `delay_every`-th unit sleeps for `delay` before
//!   running, stressing interleavings and the stall detector;
//! * **dead workers** — the listed helper threads exit before receiving
//!   any work, simulating an IP that never comes up; the scheduler must
//!   shrink the pool and requeue anything routed to them.
//!
//! An active plan runs in the same shape as an inert one — the caller is
//! processor 0 and serves runs beside its helpers — but it spawns all
//! `workers` − 1 helpers whatever the CPUs or the call's size, so the
//! workers it names exist ([`crate::HostParams::processors`]).

use std::time::Duration;

/// What the scheduler injects into one dispatched work unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InjectedFault {
    /// The kernel panics instead of running.
    Panic,
    /// The kernel sleeps this long before running.
    Delay(Duration),
}

/// A deterministic fault-injection plan. The default plan injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Panic the kernel of the unit with this global dispatch sequence
    /// number (units are numbered from 0 in dispatch order).
    pub panic_on_unit: Option<u64>,
    /// Panic each unit's kernel with this probability (0.0 disables). The
    /// draw is a pure function of `seed` and the unit's sequence number,
    /// so a given plan faults the same unit numbers on every run.
    pub panic_rate: f64,
    /// Seed for the `panic_rate` draws.
    pub seed: u64,
    /// Delay the kernel of every `delay_every`-th unit (sequence numbers
    /// divisible by it) by [`FaultPlan::delay`].
    pub delay_every: Option<u64>,
    /// The injected delay duration.
    pub delay: Duration,
    /// Helper ids (1 ≤ id < `workers`) that die before receiving any
    /// work. Worker 0 is the caller, which cannot die.
    pub dead_workers: Vec<usize>,
}

#[allow(clippy::derivable_impls)] // an explicit Default documents "no faults"
impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            panic_on_unit: None,
            panic_rate: 0.0,
            seed: 0,
            delay_every: None,
            delay: Duration::ZERO,
            dead_workers: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// True when the plan injects at least one fault kind.
    pub fn is_active(&self) -> bool {
        self.panic_on_unit.is_some()
            || self.panic_rate > 0.0
            || self.delay_every.is_some()
            || !self.dead_workers.is_empty()
    }

    /// The fault (if any) injected into the unit with dispatch sequence
    /// number `seq`. Panics take precedence over delays.
    pub(crate) fn fault_for(&self, seq: u64) -> Option<InjectedFault> {
        if self.panic_on_unit == Some(seq) {
            return Some(InjectedFault::Panic);
        }
        if self.panic_rate > 0.0 && unit_draw(self.seed, seq) < self.panic_rate {
            return Some(InjectedFault::Panic);
        }
        if let Some(n) = self.delay_every {
            if seq % n == 0 {
                return Some(InjectedFault::Delay(self.delay));
            }
        }
        None
    }

    /// True when worker `id` is planned to die at start.
    pub(crate) fn worker_dead_at_start(&self, id: usize) -> bool {
        self.dead_workers.contains(&id)
    }
}

/// A uniform draw in `[0, 1)` that depends only on `(seed, seq)` — a
/// splitmix64 finalizer, the same mixer `df-sim`'s RNG builds on.
fn unit_draw(seed: u64, seq: u64) -> f64 {
    let mut z = seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        assert!(!p.is_active());
        for seq in 0..1000 {
            assert_eq!(p.fault_for(seq), None);
        }
        assert!(!p.worker_dead_at_start(0));
    }

    #[test]
    fn targeted_panic_hits_exactly_one_unit() {
        let p = FaultPlan {
            panic_on_unit: Some(7),
            ..FaultPlan::default()
        };
        assert!(p.is_active());
        let hits: Vec<u64> = (0..100)
            .filter(|&s| p.fault_for(s) == Some(InjectedFault::Panic))
            .collect();
        assert_eq!(hits, vec![7]);
    }

    #[test]
    fn seeded_rate_is_deterministic_and_roughly_calibrated() {
        let p = FaultPlan {
            panic_rate: 0.25,
            seed: 42,
            ..FaultPlan::default()
        };
        let hits = |plan: &FaultPlan| -> Vec<u64> {
            (0..4000)
                .filter(|&s| plan.fault_for(s) == Some(InjectedFault::Panic))
                .collect()
        };
        let first = hits(&p);
        assert_eq!(first, hits(&p), "same plan, same faults");
        let frac = first.len() as f64 / 4000.0;
        assert!((0.2..0.3).contains(&frac), "rate 0.25 drew {frac}");
        let other = FaultPlan { seed: 43, ..p };
        assert_ne!(first, hits(&other), "different seed, different faults");
    }

    #[test]
    fn delays_hit_every_nth_unit_and_lose_to_panics() {
        let p = FaultPlan {
            panic_on_unit: Some(4),
            delay_every: Some(2),
            delay: Duration::from_millis(5),
            ..FaultPlan::default()
        };
        assert_eq!(
            p.fault_for(2),
            Some(InjectedFault::Delay(Duration::from_millis(5)))
        );
        assert_eq!(p.fault_for(3), None);
        assert_eq!(p.fault_for(4), Some(InjectedFault::Panic));
    }

    /// Every fault kind — all of them injected into the host — makes the
    /// plan active, and an active plan decides the executor's shape: it
    /// fixes the helper count (`HostParams::processors`).
    #[test]
    fn only_host_faults_decide_the_executors_shape() {
        let host = [
            FaultPlan {
                panic_on_unit: Some(0),
                ..FaultPlan::default()
            },
            FaultPlan {
                panic_rate: 0.5,
                ..FaultPlan::default()
            },
            FaultPlan {
                delay_every: Some(1),
                ..FaultPlan::default()
            },
            FaultPlan {
                dead_workers: vec![1],
                ..FaultPlan::default()
            },
        ];
        for plan in host {
            assert!(plan.is_active(), "{plan:?}");
        }
    }

    #[test]
    fn dead_worker_lookup() {
        let p = FaultPlan {
            dead_workers: vec![0, 2],
            ..FaultPlan::default()
        };
        assert!(p.worker_dead_at_start(0));
        assert!(!p.worker_dead_at_start(1));
        assert!(p.worker_dead_at_start(2));
    }
}
