//! Host-executor configuration.

use std::sync::Arc;
use std::time::Duration;

use df_core::{AllocationStrategy, TransferMode};
use df_obs::Tracer;
use df_query::{JoinAlgo, Op, QueryTree};
use df_relalg::Catalog;

use crate::error::{HostError, HostResult};
use crate::fault::FaultPlan;

/// Configuration of the real-threads executor.
#[derive(Debug, Clone)]
pub struct HostParams {
    /// Number of processors playing the IPs (≥ 1): the calling thread plus
    /// up to `workers` − 1 helper threads, as many as the CPUs and the
    /// call's size warrant ([`HostParams::processors`]).
    pub workers: usize,
    /// Page size (bytes, header included) for intermediate and result
    /// pages. Cells whose output tuples do not fit (deep join chains widen
    /// tuples) grow their own page size to hold at least one tuple.
    pub page_size: usize,
    /// Which instruction's ready work a freed worker picks up — the same
    /// four policies the simulated machines use.
    pub strategy: AllocationStrategy,
    /// Join algorithm of the plan's join cells, which shapes each cell's
    /// operand sides once, when the cell is created. Under
    /// [`JoinAlgo::Hash`] each side of a cell whose condition can hash
    /// keeps one growing raw-byte key index over every page it has
    /// received ([`df_relalg::SideKeyIndex`]), extended by the scheduler
    /// as pages arrive, and an arriving page probes the opposite side's
    /// index once — a symmetric hash join — instead of sweeping it against
    /// each opposite page. A condition the hash path cannot run (non-equi
    /// θ, mixed-width string keys) sweeps as under `Nested`; results are
    /// multiset-identical either way. Any other join on `Int` keys keeps
    /// each side as one dense key column instead
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
    /// How long the scheduler, with nothing to serve itself, waits for a
    /// helper's completion before declaring the call stalled
    /// ([`HostError::Stalled`]) instead of hanging on a wedged kernel. A
    /// helper reports once per *run* — up to ⌈a cell's pending units ÷
    /// min(processors, CPUs)⌉ units — so this must comfortably exceed the
    /// worst-case kernel time of a whole run; the generous default only
    /// trips on genuine wedges. Only helper runs are watched: a run the
    /// caller serves has no watchdog, so a unit wedged there hangs the call
    /// — on one CPU, or in a call of at most 128 operand pages, that is
    /// every run ([`HostParams::processors`]).
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

thread_local! {
    /// The CPUs this thread may run on, read once per thread (the read parses
    /// cgroup files, ≈ 14 µs). A thread re-pinned after its first call keeps
    /// its first count: that changes how work is split, never the answers.
    pub(crate) static CPUS: usize = std::thread::available_parallelism().map_or(1, |n| n.get());
}

/// A call whose operand pages (Σ base-relation pages over its queries'
/// scans) number at most this spawns no helper: the caller serves it alone.
///
/// Measured with `benchmark/run.sh --trace 1` (EXPERIMENTS.md
/// PERF-HANDOFF): handing a one-page call to threads costs
/// `host.call_floor_us` ≈ 45 µs (41–59 µs over six runs: spawn, channels,
/// join), and `serve-read`'s calls spend ≈ 29 µs of kernel time over 67
/// units, ≈ 0.43 µs per operand page. 45 µs ÷ 0.43 µs ≈ 105 pages: below
/// that, a helper costs more than all the kernel time it could overlap.
/// Rounded up to a power of two.
const SOLO_MAX_PAGES: usize = 128;

/// Who serves a call's runs ([`HostParams::processors`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Processors {
    /// The calling thread serves runs itself, as processor 0. False only
    /// under a fault plan that injects into the host, where the caller
    /// only schedules and every worker is a helper thread.
    pub caller_serves: bool,
    /// Helper threads the call spawns, numbered from 1 when the caller
    /// serves and from 0 when it does not.
    pub helpers: usize,
}

impl HostParams {
    /// Who serves a call of `queries` over `db` made from this thread.
    /// With an inert plan the caller is processor 0 and spawns
    /// min(`workers`, CPUs) − 1 helpers — none when the call's operands
    /// total at most 128 pages, where a helper costs more than it could
    /// overlap. A plan that injects into the host
    /// ([`FaultPlan::injects_into_host`]) spawns all `workers` helpers, and
    /// the caller only schedules.
    ///
    /// # Errors
    /// [`HostError`] when a query scans a relation `db` does not hold.
    pub fn processors(&self, db: &Catalog, queries: &[QueryTree]) -> HostResult<Processors> {
        // Read first, so a thread's first call pays the read here whichever
        // way the call goes (the scheduler reads it too).
        let cpus = CPUS.with(|&n| n);
        if self.fault.injects_into_host() {
            return Ok(Processors {
                caller_serves: false,
                helpers: self.workers,
            });
        }
        let mut operand_pages = 0;
        for node in queries.iter().flat_map(QueryTree::nodes) {
            if let Op::Scan { relation } = &node.op {
                operand_pages += db.require(relation)?.pages().len();
            }
        }
        let processors = if operand_pages <= SOLO_MAX_PAGES {
            1
        } else {
            self.workers.min(cpus)
        };
        Ok(Processors {
            caller_serves: true,
            helpers: processors.saturating_sub(1),
        })
    }

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

    /// A call of `pages` one-tuple pages scanning one relation.
    fn scan_of(pages: usize) -> (Catalog, Vec<QueryTree>) {
        use df_query::TreeBuilder;
        use df_relalg::{DataType, Relation, Schema, Tuple, Value};
        let schema = Schema::build().attr("k", DataType::Int).finish().unwrap();
        let tuples = (0..pages as i64).map(|i| Tuple::new(vec![Value::Int(i)]));
        let mut db = Catalog::new();
        let rel = Relation::from_tuples("r", schema, 16 + 8, tuples).unwrap();
        assert_eq!(rel.num_pages(), pages);
        db.insert(rel).unwrap();
        let query = TreeBuilder::new(&db).scan("r").unwrap().finish();
        (db, vec![query])
    }

    #[test]
    fn small_calls_spawn_no_helper_and_host_faults_spawn_every_worker() {
        let cpus = CPUS.with(|&n| n);
        let (small, at_bound) = (scan_of(SOLO_MAX_PAGES), scan_of(SOLO_MAX_PAGES + 1));
        for workers in [1, 2, 4] {
            let p = HostParams::with_workers(workers);
            let solo = Processors {
                caller_serves: true,
                helpers: 0,
            };
            assert_eq!(p.processors(&small.0, &small.1).unwrap(), solo);
            let above = p.processors(&at_bound.0, &at_bound.1).unwrap();
            assert!(above.caller_serves);
            assert_eq!(above.helpers, workers.min(cpus) - 1, "{workers} workers");
            // Every scan counts: two queries over one 65-page relation
            // make 130 operand pages, above the bound.
            let (half, scan) = scan_of(SOLO_MAX_PAGES / 2 + 1);
            let twice = [scan[0].clone(), scan[0].clone()];
            let halves = p.processors(&half, &twice).unwrap();
            assert_eq!(halves.helpers, workers.min(cpus) - 1, "{workers} workers");

            let faulty = HostParams {
                fault: FaultPlan {
                    dead_workers: vec![0],
                    ..FaultPlan::default()
                },
                ..p.clone()
            };
            let threaded = Processors {
                caller_serves: false,
                helpers: workers,
            };
            assert_eq!(faulty.processors(&small.0, &small.1).unwrap(), threaded);
            let lane_only = HostParams {
                fault: FaultPlan {
                    lane_panic_task: Some(0),
                    ..FaultPlan::default()
                },
                ..p
            };
            assert_eq!(lane_only.processors(&small.0, &small.1).unwrap(), solo);
        }
    }

    #[test]
    fn zero_timeout_is_rejected() {
        let mut p = HostParams::with_workers(1);
        p.stall_timeout = Duration::ZERO;
        assert!(p.validate().is_err());
    }
}
