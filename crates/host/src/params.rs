//! Host-executor configuration.

use std::sync::Arc;
use std::time::Duration;

use df_core::{AllocationStrategy, TransferMode};
use df_obs::Tracer;
use df_query::JoinAlgo;

use crate::error::{HostError, HostResult};
use crate::fault::FaultPlan;

/// Configuration of the real-threads executor.
#[derive(Debug, Clone)]
pub struct HostParams {
    /// Number of worker threads playing the IPs (≥ 1).
    pub workers: usize,
    /// Page size (bytes, header included) for intermediate and result
    /// pages. Cells whose output tuples do not fit (deep join chains widen
    /// tuples) grow their own page size to hold at least one tuple.
    pub page_size: usize,
    /// Which instruction's ready work a freed worker picks up — the same
    /// four policies the simulated machines use.
    pub strategy: AllocationStrategy,
    /// Join algorithm the plan's join cells are lowered with
    /// ([`df_query::Kernel::lower`], once per cell at plan build).
    /// Under [`JoinAlgo::Hash`] each side of a hash-lowered cell keeps one
    /// growing raw-byte key index over every page it has received
    /// ([`df_relalg::SideKeyIndex`]), extended by the scheduler as pages
    /// arrive, and an arriving page probes the opposite side's index once
    /// — a symmetric hash join — instead of sweeping it against each
    /// opposite page. A condition the hash path cannot run (non-equi θ,
    /// mixed-width string keys) is lowered as the nested-loops sweep;
    /// results are multiset-identical either way. A nested-loops join on
    /// `Int` keys keeps each side as one dense key column instead
    /// ([`df_relalg::SideKeyColumn`]), which an arriving page probes once.
    pub join: JoinAlgo,
    /// How chained unary operators exchange results. Under
    /// [`TransferMode::Materialize`] (the paper's design) every
    /// restrict/project cell packs its survivors into its own output pages
    /// and ships them to the parent cell. Under [`TransferMode::Pipeline`]
    /// the planner fuses maximal restrict→project chains into a single
    /// span cell: one work unit evaluates the whole chain per operand page
    /// and only the final survivors are paged, so the intermediate pages
    /// (and their distribution/arbitration bytes) never exist. Results are
    /// byte-identical either way.
    pub transfer: TransferMode,
    /// When set, every query's result relation is canonicalized (tuple
    /// images sorted lexicographically, pages repacked full) so repeated
    /// runs are byte-identical regardless of thread interleaving. The
    /// executor has no RNG: interleaving is its only nondeterminism, and it
    /// only affects result *order*, never the result multiset.
    pub deterministic: bool,
    /// How long the scheduler waits for a completion while units are in
    /// flight before declaring the call stalled ([`HostError::Stalled`])
    /// instead of hanging on a wedged kernel. A worker reports once per
    /// *run*, so this must comfortably exceed the worst-case kernel time
    /// of a whole run — up to ⌈a cell's pending units ÷ min(alive workers,
    /// CPUs)⌉ units, the guided self-scheduling share per *processor*
    /// (the CPU count the default `workers` uses), so on one CPU a run is
    /// a cell's whole pending set — not of a single unit; the generous
    /// default only trips on genuine wedges. A call small enough to be
    /// served on the calling thread has no watchdog: its work is bounded
    /// by the size test instead.
    pub stall_timeout: Duration,
    /// Deterministic fault injection (inert by default) — see
    /// [`FaultPlan`].
    pub fault: FaultPlan,
    /// Structured event tracer (see [`df_obs::Tracer`]). `None` — the
    /// default — costs one branch per would-be event; an installed tracer
    /// records the packet-level lifecycle (cell fires, dispatches, kernel
    /// spans, page-transfer bytes, queue depths, faults) shared by the
    /// scheduler and every worker thread.
    pub trace: Option<Arc<Tracer>>,
}

impl Default for HostParams {
    fn default() -> HostParams {
        HostParams {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            page_size: 1016,
            strategy: AllocationStrategy::default(),
            join: JoinAlgo::default(),
            transfer: TransferMode::default(),
            deterministic: false,
            stall_timeout: Duration::from_secs(60),
            fault: FaultPlan::default(),
            trace: None,
        }
    }
}

impl HostParams {
    /// Default parameters with an explicit worker count.
    pub fn with_workers(workers: usize) -> HostParams {
        HostParams {
            workers,
            ..HostParams::default()
        }
    }

    /// Validate the configuration up front, so misconfiguration surfaces
    /// as a structured [`HostError::InvalidParams`] before any thread is
    /// spawned — never as a panic deep inside the scheduler.
    ///
    /// # Errors
    /// Returns [`HostError::InvalidParams`] on zero workers, a zero stall
    /// timeout, or an
    /// out-of-range fault plan (`panic_rate` outside `[0, 1]`,
    /// `delay_every == 0`, a dead-worker id ≥ `workers`).
    pub fn validate(&self) -> HostResult<()> {
        let invalid = |detail: String| Err(HostError::InvalidParams { detail });
        if self.workers == 0 {
            return invalid("`workers` must be >= 1".into());
        }
        if self.stall_timeout.is_zero() {
            return invalid("`stall_timeout` must be nonzero".into());
        }
        if !(0.0..=1.0).contains(&self.fault.panic_rate) {
            return invalid(format!(
                "`fault.panic_rate` must be in [0, 1], got {}",
                self.fault.panic_rate
            ));
        }
        if self.fault.delay_every == Some(0) {
            return invalid("`fault.delay_every` must be >= 1".into());
        }
        if let Some(&w) = self.fault.dead_workers.iter().find(|&&w| w >= self.workers) {
            return invalid(format!(
                "`fault.dead_workers` names worker {w}, but only {} exist",
                self.workers
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = HostParams::default();
        assert!(p.workers >= 1);
        assert!(p.page_size >= 116); // header + one 100-byte tuple
        assert_eq!(p.join, JoinAlgo::Nested);
        assert_eq!(p.transfer, TransferMode::Materialize);
        assert!(!p.fault.is_active());
        assert!(p.validate().is_ok());
        assert_eq!(HostParams::with_workers(3).workers, 3);
    }

    #[test]
    fn zero_workers_is_rejected_up_front() {
        let err = HostParams::with_workers(0).validate().unwrap_err();
        assert!(matches!(err, HostError::InvalidParams { .. }));
        assert!(err.to_string().contains("workers"));
    }

    #[test]
    fn bad_fault_plans_are_rejected() {
        let mut p = HostParams::with_workers(2);
        p.fault.panic_rate = 1.5;
        assert!(p.validate().is_err());

        let mut p = HostParams::with_workers(2);
        p.fault.delay_every = Some(0);
        assert!(p.validate().is_err());

        let mut p = HostParams::with_workers(2);
        p.fault.dead_workers = vec![2];
        let err = p.validate().unwrap_err();
        assert!(err.to_string().contains("worker 2"));

        // Killing every *existing* worker is a legal plan (the all-dead
        // containment tests rely on it).
        let mut p = HostParams::with_workers(2);
        p.fault.dead_workers = vec![0, 1];
        assert!(p.validate().is_ok());
    }

    #[test]
    fn zero_timeout_is_rejected() {
        let mut p = HostParams::with_workers(1);
        p.stall_timeout = Duration::ZERO;
        assert!(p.validate().is_err());
    }
}
