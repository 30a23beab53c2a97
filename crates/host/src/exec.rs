//! The real-threads data-flow executor.
//!
//! One scheduler (the calling thread) plays the paper's MC/IC layer: it
//! admits queries under the shared relation-granularity lock manager
//! ([`df_core::LockTable`]), tracks each instruction cell's operand page
//! tables, applies the §2 firing rule as pages arrive, and picks which
//! ready instruction a freed worker serves next via a
//! [`df_core::WorkPicker`]. A pool of worker threads plays the IPs: each
//! receives work over a bounded channel (the distribution network), runs
//! the cell's [`Kernel`] — the operator code the plan was lowered to once,
//! at build, and the same code the simulated machines execute — drains the
//! resulting [`TupleBuf`]s into output pages, and sends them back over a
//! bounded MPSC channel (the arbitration network). Pages flow cell → parent
//! cell → query result with `Arc` sharing — never copied.
//!
//! # Units and runs
//!
//! The *unit* — one firing of one instruction on one operand page (or page
//! pair list, or complete operand) — is the atom of everything counted:
//! its own dispatch sequence number, fault draw, panic guard, kernel span
//! and `units_fired`. The *message* between scheduler and worker is a
//! **run**: every unit the freed worker takes from the picked cell in one
//! dispatch, ⌈pending ÷ alive workers⌉ of them (guided self-scheduling, so
//! runs shrink as a cell drains and the workers finish together). The
//! paper fires at page rather than tuple granularity because tuple traffic
//! "needlessly multiplies" arbitration-network load (§3.3); a channel
//! hand-off per page repeats that mistake one level up. A run travels as
//! one message, comes back as one completion, and writes into one
//! [`OutputPager`] — the IP output buffer of §4.2 — so its output arrives
//! as full pages (only a run's last page may be partial) and every cell
//! above it sees fewer, fuller operand pages.
//!
//! # Small calls run on the calling thread
//!
//! A call whose operands total at most [`INLINE_MAX_PAGES`] pages and whose
//! fault plan is inert spawns no thread: the scheduler serves each run
//! itself through the same [`serve_run`] the workers use. Such a call has
//! no watchdog — nobody is left to time the caller out — which is
//! acceptable because its work is bounded by the size test, and a kernel
//! panic is still caught per unit and fails only the owning query.
//!
//! # Fault containment
//!
//! The paper's §4 case for *distributed* control is that no single
//! component failure stalls the machine; the executor holds itself to the
//! same standard. A kernel panic is caught on the worker
//! (`catch_unwind`, per unit), reported in the run's completion, and fails
//! only the owning query — the worker thread and every other in-flight
//! query survive. (The run's shared output buffer may hold the panicked
//! unit's partial output; that is safe only because the scheduler discards
//! every page of a doomed query.) A worker thread that dies outright
//! (simulated by [`crate::FaultPlan::dead_workers`], or a panic escaping
//! the kernel guard) announces itself through a drop guard; the scheduler
//! shrinks the pool, requeues the whole run that worker held, and keeps
//! draining with the survivors. Only when *every* worker is gone do the
//! still-unfinished queries fail, each with a structured
//! [`HostError::WorkersExhausted`] — never a hang: the completion wait is
//! bounded by [`crate::HostParams::stall_timeout`], after which a wedged
//! run returns [`HostError::Stalled`] with a diagnostic instead of
//! blocking forever.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use df_core::instr::Kernel;
use df_core::{JoinAlgo, LockRequest, LockTable, StrategyPicker, WorkCandidate, WorkPicker};
use df_obs::{EventKind, Path, Tracer};
use df_query::ops::hash_join_probe_into;
use df_query::{Firing, Op, QueryTree};
use df_relalg::{Catalog, Page, PageKeyIndex, Relation, Schema, TupleBuf};

use crate::error::{HostError, HostResult};
use crate::fault::InjectedFault;
use crate::metrics::{HostMetrics, QueryStats, WorkerStats};
use crate::params::HostParams;
use crate::plan::QueryPlan;

/// One page in a pair-sweep cell's operand page table, bundled with its
/// lazily built raw-byte key index (the hash-accelerated equi-join path).
///
/// The index is per *cell*, not per base page: the same `Arc<Page>` of a
/// base relation can feed several join cells keyed on different
/// attributes, so each cell's table wraps the page in its own
/// `OperandPage`. The first worker whose probe needs the index builds it
/// (`OnceLock`); every later pair unit touching this page — on any worker
/// — reuses it through the shared `Arc`.
#[derive(Debug)]
struct OperandPage {
    page: Arc<Page>,
    index: OnceLock<PageKeyIndex>,
}

impl OperandPage {
    fn new(page: Arc<Page>) -> OperandPage {
        OperandPage {
            page,
            index: OnceLock::new(),
        }
    }

    /// The page's key index over attribute `key`, built on first use.
    fn index_for(&self, key: usize) -> &PageKeyIndex {
        let idx = self
            .index
            .get_or_init(|| PageKeyIndex::build(&self.page, key));
        // A pair-sweep cell has exactly one join condition, so every probe
        // of this page asks for the same key attribute.
        debug_assert_eq!(idx.key(), key, "one cell, one join key");
        idx
    }
}

/// The operand payload of one work unit. `Clone` is cheap (`Arc`s only);
/// the scheduler clones a unit's payload only to requeue it when the worker
/// holding its run dies.
#[derive(Debug, Clone)]
enum WorkKind {
    /// One operand page (restrict, non-dedup project).
    Page(Arc<Page>),
    /// A pair sweep: the newly arrived page against every page of the
    /// opposite operand received so far (join, cross product). Pages of
    /// one delivery see the same opposite list, so they share one snapshot.
    Sweep {
        new_page: Arc<OperandPage>,
        opposite: Arc<[Arc<OperandPage>]>,
        new_is_outer: bool,
    },
    /// Complete operands of a blocking operator (union, difference,
    /// dedup project — `right` is empty for unary operators).
    Complete {
        left: Vec<Arc<Page>>,
        right: Vec<Arc<Page>>,
    },
}

/// One instruction firing inside a [`Run`].
#[derive(Debug)]
struct RunUnit {
    kind: WorkKind,
    /// Global dispatch sequence number (the fault plan's unit key).
    seq: u64,
    /// Fault injected into this unit, if the plan says so.
    fault: Option<InjectedFault>,
}

/// The message between scheduler and worker: every unit one dispatch took
/// from one instruction cell. Shared (`Arc`) so the scheduler can requeue
/// the units if the worker holding them dies.
#[derive(Debug)]
struct Run {
    plan: Arc<QueryPlan>,
    query: usize,
    cell: usize,
    units: Vec<RunUnit>,
}

/// How a pair-sweep unit was served, for the probe/sweep metrics split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitClass {
    /// Every page pair of the unit went through the hash-index probe.
    Probe,
    /// Nested-loops or cross-product sweep (incl. θ-join fallback).
    Sweep,
    /// Not a pair unit (restrict, project, union, …).
    Other,
}

/// A served run: what its units did, summed, and the pages they produced.
#[derive(Debug, Default)]
struct RunDone {
    worker: usize,
    query: usize,
    cell: usize,
    /// Units served, panicked ones included.
    units: usize,
    probe_units: usize,
    sweep_units: usize,
    /// Operand pages (and their wire bytes) the units read.
    pages_in: usize,
    bytes_in: u64,
    /// The run's output, packed: every page but the last is full.
    pages: Vec<Arc<Page>>,
    bytes_out: u64,
    /// Stringified payload of each unit whose kernel panicked. The panics
    /// were caught and the worker survives, but `pages` may then hold
    /// partial output and must not be routed.
    panics: Vec<String>,
}

/// What a worker sends back over the arbitration channel.
#[derive(Debug)]
enum Completion {
    /// A run was served to its end.
    Run(RunDone),
    /// The worker thread itself died (sent by its drop guard). Whatever
    /// run it held must be requeued and the pool shrunk.
    WorkerDied { worker: usize },
}

/// A call whose operand pages (Σ base-relation pages over its queries)
/// number at most this is served on the calling thread.
///
/// Measured at the parent of this change with `benchmark/run.sh --trace 1`
/// (EXPERIMENTS.md PERF-HANDOFF): the threaded path's fixed cost for a
/// one-page call is `host.call_floor_us` ≈ 45 µs (41–59 µs over six runs:
/// spawn, channels, join), and `serve-read`'s calls spend ≈ 29 µs of kernel
/// time over 67 units, ≈ 0.43 µs per operand page. 45 µs ÷ 0.43 µs ≈ 105
/// pages: below that, handing the work to threads costs more than all the
/// kernel time they could overlap. Rounded up to a power of two.
const INLINE_MAX_PAGES: usize = 128;

/// Output of [`run_host_queries`].
#[derive(Debug)]
pub struct HostRunOutput {
    /// One outcome per query, in input order: the result relation (named
    /// `"result"`), or the structured error that killed that query while
    /// the rest of the batch kept running.
    pub results: Vec<Result<Relation, HostError>>,
    /// Wall-clock metrics.
    pub metrics: HostMetrics,
}

/// Execute a batch of read-only queries on real threads, admitting them
/// concurrently under relation-granularity locking.
///
/// Results are multiset-identical to [`df_query::execute_readonly`] for
/// every worker count and allocation strategy (asserted by the
/// `host_vs_oracle` differential tests).
///
/// # Errors
/// A run-level `Err` means nothing useful happened: invalid parameters
/// ([`HostError::InvalidParams`]), a query that fails validation or uses
/// an update operator, or a stalled scheduler ([`HostError::Stalled`]).
/// Worker faults do **not** fail the run: a kernel panic or the loss of
/// the whole pool is contained to per-query `Err` entries in
/// [`HostRunOutput::results`] while every other query completes normally.
pub fn run_host_queries(
    db: &Catalog,
    queries: &[QueryTree],
    params: &HostParams,
) -> HostResult<HostRunOutput> {
    params.validate()?;
    let plans: Vec<Arc<QueryPlan>> = queries
        .iter()
        .map(|q| {
            QueryPlan::build(db, q, params.page_size, params.join, params.transfer).map(Arc::new)
        })
        .collect::<HostResult<_>>()?;

    // The size test: base-relation pages the call's scans will feed in.
    let mut operand_pages = 0usize;
    for plan in &plans {
        for node in &plan.plan.nodes {
            if let Op::Scan { relation } = &node.op {
                operand_pages += db.require(relation)?.pages().len();
            }
        }
    }

    let started = Instant::now();
    let (outcome, per_worker) = if operand_pages <= INLINE_MAX_PAGES && !params.fault.is_active() {
        // Small call: the scheduler serves every run itself. Worker 0
        // reports the caller's kernel time; the other entries keep
        // `per_worker.len() == params.workers`, all with the call's wall
        // time.
        let mut per_worker = vec![WorkerStats::default(); params.workers];
        let caller = Pool::Inline(&mut per_worker[0]);
        let outcome = Scheduler::new(db, queries, plans, params, caller).run()?;
        let wall = started.elapsed();
        for w in &mut per_worker {
            w.wall = wall;
        }
        (outcome, per_worker)
    } else {
        run_on_threads(db, queries, plans, params)?
    };
    Ok(HostRunOutput {
        results: outcome.results,
        metrics: HostMetrics {
            elapsed: started.elapsed(),
            per_query: outcome.per_query,
            per_worker,
        },
    })
}

/// Serve a call with `params.workers` worker threads, spawned here and
/// joined before returning (except on a run-level error).
fn run_on_threads(
    db: &Catalog,
    queries: &[QueryTree],
    plans: Vec<Arc<QueryPlan>>,
    params: &HostParams,
) -> HostResult<(SchedulerOutcome, Vec<WorkerStats>)> {
    // The networks: one bounded SPSC channel per worker for dispatch, one
    // shared bounded MPSC channel for completions. A worker is handed its
    // next run only after `on_run_done` recycled it, so the completion
    // channel never holds more than one `Completion::Run` plus one
    // `WorkerDied` per worker: sized so, a send on it never blocks.
    let poisoned = Arc::new(AtomicBool::new(false));
    let (done_tx, done_rx) = sync_channel::<Completion>(2 * params.workers);
    let mut work_txs = Vec::with_capacity(params.workers);
    let mut handles = Vec::with_capacity(params.workers);
    for id in 0..params.workers {
        let (tx, rx) = sync_channel::<Arc<Run>>(1);
        work_txs.push(tx);
        let done = done_tx.clone();
        let poisoned = Arc::clone(&poisoned);
        let dead_at_start = params.fault.worker_dead_at_start(id);
        let trace = params.trace.clone();
        handles.push(
            thread::Builder::new()
                .name(format!("df-host-worker-{id}"))
                .spawn(move || worker_loop(id, rx, done, poisoned, dead_at_start, trace))
                .expect("spawning worker thread"),
        );
    }
    drop(done_tx);

    let pool = Pool::Threads { work_txs, done_rx };
    let outcome = match Scheduler::new(db, queries, plans, params, pool).run() {
        Ok(outcome) => outcome,
        Err(e) => {
            // Run-level failure. The scheduler (and with it every channel
            // endpoint) is already dropped, so workers wake and exit on
            // their own; `poisoned` makes them skip every unit they still
            // hold. We deliberately do not join: a genuinely wedged kernel
            // (the `Stalled` case) would block the caller forever.
            poisoned.store(true, Ordering::Relaxed);
            drop(handles);
            return Err(e);
        }
    };

    // Workers exit when their dispatch channel closes (`Scheduler::run`
    // drops the senders); collect their stats. A thread that died is a
    // contained fault, not a reason to kill the caller.
    let mut per_worker = Vec::with_capacity(params.workers);
    for (id, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(mut stats) => {
                stats.lost = outcome.dead[id];
                per_worker.push(stats);
            }
            Err(_panic) => {
                // The thread unwound outside the kernel guard; its stats
                // are gone but the run survived without it.
                per_worker.push(WorkerStats {
                    lost: true,
                    ..WorkerStats::default()
                });
            }
        }
    }
    Ok((outcome, per_worker))
}

/// Single-query convenience wrapper around [`run_host_queries`].
///
/// # Errors
/// See [`run_host_queries`]; the single query's own fault (e.g.
/// [`HostError::UnitPanicked`]) is flattened into the returned `Err`.
pub fn run_host_query(
    db: &Catalog,
    query: &QueryTree,
    params: &HostParams,
) -> HostResult<(Relation, HostMetrics)> {
    let mut out = run_host_queries(db, std::slice::from_ref(query), params)?;
    let rel = out.results.remove(0)?;
    Ok((rel, out.metrics))
}

// ---------------------------------------------------------------------------
// Scheduler (the MC/IC layer)
// ---------------------------------------------------------------------------

/// Scheduler-side state of one instruction cell.
#[derive(Debug, Default)]
struct CellState {
    /// Operand page table, one list per port. Pair-sweep cells read the
    /// cached per-page key index off these entries; other firings only
    /// use the wrapped page.
    received: Vec<Vec<Arc<OperandPage>>>,
    /// Which operand streams are complete.
    port_done: Vec<bool>,
    /// Work units created but not yet dispatched.
    pending: VecDeque<WorkKind>,
    /// Work units dispatched but not yet completed.
    in_flight: usize,
    /// A blocking cell's single unit has been created.
    fired_blocking: bool,
    /// All operands done and no work outstanding.
    complete: bool,
}

/// Scheduler-side state of one admitted query.
struct QueryState {
    plan: Arc<QueryPlan>,
    cells: Vec<CellState>,
    /// Base for globally unique instruction ids (`base + cell index`).
    base: usize,
    admitted_at: Instant,
    result_pages: Vec<Arc<Page>>,
    stats: QueryStats,
    /// Units dispatched and not yet accounted for, across all cells.
    in_flight_total: usize,
    /// Set when the query is doomed (a unit panicked, or the pool died);
    /// its pending work is discarded and it concludes once the last
    /// in-flight unit drains.
    failed: Option<HostError>,
}

/// What [`Scheduler::run`] hands back on a (possibly partially failed,
/// but orderly) run.
struct SchedulerOutcome {
    results: Vec<Result<Relation, HostError>>,
    per_query: Vec<QueryStats>,
    /// Which workers died mid-run, by id.
    dead: Vec<bool>,
}

/// Who serves the runs the scheduler dispatches.
enum Pool<'a> {
    /// Worker threads: one dispatch channel each (the distribution
    /// network) and the shared completion channel (the arbitration
    /// network).
    Threads {
        work_txs: Vec<SyncSender<Arc<Run>>>,
        done_rx: Receiver<Completion>,
    },
    /// The calling thread, as worker 0: a dispatched run is served on the
    /// spot and its completion handled before the next dispatch.
    Inline(&'a mut WorkerStats),
}

struct Scheduler<'a> {
    db: &'a Catalog,
    queries: &'a [QueryTree],
    plans: Vec<Arc<QueryPlan>>,
    params: &'a HostParams,
    pool: Pool<'a>,
    picker: StrategyPicker,
    locks: LockTable,
    waiting: VecDeque<usize>,
    active: Vec<Option<QueryState>>,
    results: Vec<Option<Result<Relation, HostError>>>,
    per_query: Vec<QueryStats>,
    idle: Vec<usize>,
    /// Which workers have died (dispatch channel refused, or their drop
    /// guard reported in). Dead workers never rejoin the idle pool.
    dead: Vec<bool>,
    /// The run each busy worker currently holds, kept so a dead worker's
    /// run can be requeued.
    assigned: Vec<Option<Arc<Run>>>,
    next_base: usize,
    /// Global dispatch sequence number (the fault plan's unit key).
    next_seq: u64,
    finished: usize,
    /// Units dispatched and not yet accounted for, across all queries.
    dispatched: usize,
}

impl<'a> Scheduler<'a> {
    fn new(
        db: &'a Catalog,
        queries: &'a [QueryTree],
        plans: Vec<Arc<QueryPlan>>,
        params: &'a HostParams,
        pool: Pool<'a>,
    ) -> Scheduler<'a> {
        let n = queries.len();
        let workers = match &pool {
            Pool::Threads { work_txs, .. } => work_txs.len(),
            Pool::Inline(_) => 1,
        };
        Scheduler {
            db,
            queries,
            plans,
            params,
            pool,
            picker: StrategyPicker::new(params.strategy),
            locks: LockTable::new(),
            waiting: (0..n).collect(),
            active: (0..n).map(|_| None).collect(),
            results: (0..n).map(|_| None).collect(),
            per_query: vec![QueryStats::default(); n],
            idle: (0..workers).collect(),
            dead: vec![false; workers],
            assigned: (0..workers).map(|_| None).collect(),
            next_base: 0,
            next_seq: 0,
            finished: 0,
            dispatched: 0,
        }
    }

    /// Workers still able to serve units.
    fn alive(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// The installed tracer, if any. Borrows only the (shared) params
    /// reference, so it composes with mutable borrows of scheduler state.
    fn trace(&self) -> Option<&'a Tracer> {
        self.params.trace.as_deref()
    }

    fn run(mut self) -> HostResult<SchedulerOutcome> {
        self.admit_compatible()?;
        while self.finished < self.queries.len() {
            self.dispatch_ready()?;
            if self.finished == self.queries.len() {
                break;
            }
            if self.dispatched == 0 && self.alive() > 0 {
                // Workers are alive and idle, yet nothing is in flight and
                // nothing was dispatchable: the firing bookkeeping broke.
                // The old scheduler `expect()`ed here; report instead.
                return Err(HostError::Stalled {
                    in_flight: 0,
                    waited: Duration::ZERO,
                    detail: self.stall_detail(),
                });
            }
            let Pool::Threads { done_rx, .. } = &self.pool else {
                unreachable!("an inline call leaves nothing in flight")
            };
            if self.alive() == 0 {
                // The pool is gone. Drain completions that made it out
                // before the last death, then fail whatever still needs a
                // worker — a structured per-query error, never a hang.
                let drained: Vec<Completion> = done_rx.try_iter().collect();
                for completion in drained {
                    self.on_completion(completion)?;
                }
                if self.finished < self.queries.len() {
                    self.fail_survivorless_queries()?;
                }
                continue;
            }
            match done_rx.recv_timeout(self.params.stall_timeout) {
                Ok(completion) => self.on_completion(completion)?,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(HostError::Stalled {
                        in_flight: self.dispatched,
                        waited: self.params.stall_timeout,
                        detail: self.stall_detail(),
                    });
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Every worker (and its death guard) is gone without a
                    // report — treat them all as dead; the next iteration
                    // fails the remaining queries.
                    for worker in 0..self.dead.len() {
                        self.on_worker_died(worker)?;
                    }
                }
            }
        }
        // Dropping `self.pool` closes the dispatch channels, which shuts
        // the workers down.
        let results = self
            .results
            .into_iter()
            .map(|r| r.expect("every query concluded"))
            .collect();
        Ok(SchedulerOutcome {
            results,
            per_query: self.per_query,
            dead: self.dead,
        })
    }

    /// One-line state dump for [`HostError::Stalled`].
    fn stall_detail(&self) -> String {
        let mut active = 0usize;
        let mut pending = 0usize;
        let mut in_flight = 0usize;
        for state in self.active.iter().flatten() {
            active += 1;
            in_flight += state.in_flight_total;
            pending += state.cells.iter().map(|c| c.pending.len()).sum::<usize>();
        }
        format!(
            "{}/{} queries finished, {active} active ({pending} pending units, \
             {in_flight} in flight), {} waiting on locks, {}/{} workers alive",
            self.finished,
            self.queries.len(),
            self.waiting.len(),
            self.alive(),
            self.dead.len()
        )
    }

    /// Admit every waiting query whose lock request is compatible, in
    /// arrival order (a non-conflicting younger query may overtake a
    /// blocked older one, like the ring MC).
    fn admit_compatible(&mut self) -> HostResult<()> {
        let mut still_waiting = VecDeque::new();
        while let Some(q) = self.waiting.pop_front() {
            let tree = &self.queries[q];
            let request = LockRequest::new(tree.referenced_relations(), tree.written_relations());
            if !self.locks.compatible(&request) {
                still_waiting.push_back(q);
                continue;
            }
            self.locks.grant(q, &request);
            self.admit(q)?;
        }
        self.waiting = still_waiting;
        Ok(())
    }

    /// Turn query `q` active: instantiate cell state and feed every scan
    /// cell's pages from the page store (the "disk" of the host machine —
    /// base relations are memory-resident `Arc` pages, shared not copied).
    fn admit(&mut self, q: usize) -> HostResult<()> {
        let plan = Arc::clone(&self.plans[q]);
        let cells = plan
            .plan
            .nodes
            .iter()
            .map(|spec| CellState {
                received: vec![Vec::new(); spec.children.len()],
                port_done: vec![false; spec.children.len()],
                ..CellState::default()
            })
            .collect();
        self.active[q] = Some(QueryState {
            plan: Arc::clone(&plan),
            cells,
            base: self.next_base,
            admitted_at: Instant::now(),
            result_pages: Vec::new(),
            stats: QueryStats::default(),
            in_flight_total: 0,
            failed: None,
        });
        self.next_base += plan.plan.nodes.len();
        if let Some(t) = self.trace() {
            t.record(
                EventKind::QueryAdmit,
                q as u32,
                u32::MAX,
                plan.plan.nodes.len() as u64,
                0,
            );
        }

        for (idx, spec) in plan.plan.nodes.iter().enumerate() {
            if spec.firing != Firing::Source {
                continue;
            }
            let Op::Scan { relation } = &spec.op else {
                unreachable!("source cells are scans");
            };
            let pages: Vec<Arc<Page>> = self.db.require(relation)?.pages().to_vec();
            self.route_output(q, idx, pages)?;
            self.complete_cell(q, idx)?;
        }
        Ok(())
    }

    /// Deliver `pages` produced by cell `from` to its parent (or the query
    /// result if `from` is the root).
    fn route_output(&mut self, q: usize, from: usize, pages: Vec<Arc<Page>>) -> HostResult<()> {
        if pages.is_empty() {
            return Ok(());
        }
        let state = self.active[q].as_mut().expect("query is active");
        match state.plan.cell(from).parent {
            None => state.result_pages.extend(pages),
            Some((parent, port)) => self.on_pages(q, parent, port, pages),
        }
        Ok(())
    }

    /// The §2 firing rule: operand pages arrived at `cell`'s `port`.
    fn on_pages(&mut self, q: usize, cell: usize, port: usize, pages: Vec<Arc<Page>>) {
        let trace = self.params.trace.as_deref();
        let state = self.active[q].as_mut().expect("query is active");
        let firing = state.plan.cell(cell).firing;
        let cs = &mut state.cells[cell];
        let mut fired = 0u64;
        match firing {
            Firing::Source => unreachable!("scan cells have no operands"),
            Firing::PerPage => {
                for p in pages {
                    cs.pending.push_back(WorkKind::Page(p));
                    fired += 1;
                }
            }
            Firing::PairSweep => {
                // Pair each new page with every opposite page received so
                // far; later opposite arrivals will pick this page up, so
                // each page pair is swept exactly once. Every page of this
                // delivery sees the same opposite list, so one snapshot
                // serves them all. The `OperandPage` wrapper gives each
                // page a per-cell key-index slot shared by every pair unit
                // that touches it.
                let opposite: Arc<[Arc<OperandPage>]> = cs.received[1 - port].as_slice().into();
                for p in pages {
                    let new_page = Arc::new(OperandPage::new(p));
                    if !opposite.is_empty() {
                        cs.pending.push_back(WorkKind::Sweep {
                            new_page: Arc::clone(&new_page),
                            opposite: Arc::clone(&opposite),
                            new_is_outer: port == 0,
                        });
                        fired += 1;
                    }
                    cs.received[port].push(new_page);
                }
            }
            Firing::Complete => {
                cs.received[port].extend(pages.into_iter().map(|p| Arc::new(OperandPage::new(p))))
            }
        }
        if fired > 0 {
            if let Some(t) = trace {
                t.record(
                    EventKind::CellFire,
                    q as u32,
                    cell as u32,
                    cs.pending.len() as u64,
                    fired,
                );
            }
        }
    }

    /// Cell `cell` finished all its work: propagate completion upward.
    fn complete_cell(&mut self, q: usize, cell: usize) -> HostResult<()> {
        let state = self.active[q].as_mut().expect("query is active");
        debug_assert!(!state.cells[cell].complete);
        state.cells[cell].complete = true;
        let parent = state.plan.cell(cell).parent;
        match parent {
            None => self.finish_query(q)?,
            Some((parent, port)) => {
                let state = self.active[q].as_mut().expect("query is active");
                state.cells[parent].port_done[port] = true;
                self.try_fire_blocking(q, parent);
                self.try_complete(q, parent)?;
            }
        }
        Ok(())
    }

    /// A blocking cell with all operands complete fires its single unit.
    fn try_fire_blocking(&mut self, q: usize, cell: usize) {
        let state = self.active[q].as_mut().expect("query is active");
        let spec = state.plan.cell(cell);
        let cs = &mut state.cells[cell];
        if spec.firing != Firing::Complete || cs.fired_blocking || !cs.port_done.iter().all(|&d| d)
        {
            return;
        }
        cs.fired_blocking = true;
        // Blocking kernels take plain pages; unwrap the operand wrappers
        // (their index slots are never populated for non-join cells).
        let unwrap = |ops: Vec<Arc<OperandPage>>| {
            ops.into_iter()
                .map(|op| Arc::clone(&op.page))
                .collect::<Vec<_>>()
        };
        let left = unwrap(std::mem::take(&mut cs.received[0]));
        let right = if spec.children.len() > 1 {
            unwrap(std::mem::take(&mut cs.received[1]))
        } else {
            Vec::new()
        };
        cs.pending.push_back(WorkKind::Complete { left, right });
        if let Some(t) = self.trace() {
            t.record(EventKind::CellFire, q as u32, cell as u32, 1, 1);
        }
    }

    /// Complete `cell` if its operands are done and no work is outstanding.
    fn try_complete(&mut self, q: usize, cell: usize) -> HostResult<()> {
        let state = self.active[q].as_mut().expect("query is active");
        let spec = state.plan.cell(cell);
        let cs = &state.cells[cell];
        let blocked_on_fire = spec.firing == Firing::Complete && !cs.fired_blocking;
        if cs.complete
            || blocked_on_fire
            || !cs.port_done.iter().all(|&d| d)
            || !cs.pending.is_empty()
            || cs.in_flight > 0
        {
            return Ok(());
        }
        self.complete_cell(q, cell)
    }

    /// The root cell completed: assemble the result relation, release the
    /// query's locks, and admit whatever those locks were blocking.
    fn finish_query(&mut self, q: usize) -> HostResult<()> {
        let state = self.active[q].take().expect("query is active");
        let root = state.plan.plan.root;
        let schema = &state.plan.cell(root).out_schema;
        let page_size = state.plan.out_page_size[root];
        let mut rel = Relation::new("result", schema.clone(), page_size)?;
        if self.params.deterministic {
            for page in canonicalize(&state.result_pages, schema, page_size)? {
                rel.append_page(page)?;
            }
        } else {
            for page in state.result_pages {
                rel.append_page(page)?;
            }
        }
        let mut stats = state.stats;
        stats.result_tuples = rel.num_tuples();
        stats.result_payload_bytes = rel.tuple_refs().map(|t| t.raw().len() as u64).sum();
        stats.elapsed = state.admitted_at.elapsed();
        if let Some(t) = self.trace() {
            t.transfer(Path::QueryResult, q as u32, stats.result_payload_bytes);
            t.record(
                EventKind::QueryDone,
                q as u32,
                u32::MAX,
                0,
                stats.result_tuples as u64,
            );
        }
        self.per_query[q] = stats;
        self.results[q] = Some(Ok(rel));
        self.finished += 1;
        self.locks.release(q);
        self.admit_compatible()
    }

    /// Doom query `q`: record `err` (first fault wins), discard its
    /// not-yet-dispatched work, and conclude it once nothing of it remains
    /// in flight. Everything else the scheduler holds keeps running.
    fn fail_query(&mut self, q: usize, err: HostError) -> HostResult<()> {
        let Some(state) = self.active[q].as_mut() else {
            return Ok(());
        };
        if state.failed.is_none() {
            state.failed = Some(err);
            for cs in &mut state.cells {
                cs.pending.clear();
            }
        }
        if state.in_flight_total == 0 {
            self.conclude_failed(q)?;
        }
        Ok(())
    }

    /// The last in-flight unit of a doomed query drained: publish its
    /// error, release its locks, and admit whatever those locks blocked.
    fn conclude_failed(&mut self, q: usize) -> HostResult<()> {
        let state = self.active[q].take().expect("query is active");
        let err = state.failed.expect("concluding a query that never failed");
        let mut stats = state.stats;
        stats.elapsed = state.admitted_at.elapsed();
        if let Some(t) = self.trace() {
            t.record(EventKind::QueryDone, q as u32, u32::MAX, 1, 0);
        }
        self.per_query[q] = stats;
        self.results[q] = Some(Err(err));
        self.finished += 1;
        self.locks.release(q);
        self.admit_compatible()
    }

    /// The whole pool is dead: every query still needing worker service
    /// fails with a structured error. (Queries admitted by the released
    /// locks may still *complete* here — a scan-only query needs no
    /// worker — so this loops via `admit_compatible` until quiescent.)
    fn fail_survivorless_queries(&mut self) -> HostResult<()> {
        for q in 0..self.queries.len() {
            if self.active[q].is_some() {
                self.fail_query(
                    q,
                    HostError::WorkersExhausted {
                        workers: self.params.workers,
                    },
                )?;
            }
        }
        Ok(())
    }

    /// Worker `worker` died: shrink the pool and requeue whatever run it
    /// held so a survivor can serve it. Idempotent — the death may be
    /// noticed twice (a refused dispatch, then the drop-guard report).
    fn on_worker_died(&mut self, worker: usize) -> HostResult<()> {
        if self.dead[worker] {
            return Ok(());
        }
        self.dead[worker] = true;
        self.idle.retain(|&w| w != worker);
        if let Some(t) = self.trace() {
            t.record_global(EventKind::Fault, 1, worker as u64);
        }
        if let Some(run) = self.assigned[worker].take() {
            let (q, units) = (run.query, run.units.len());
            self.dispatched -= units;
            let state = self.active[q].as_mut().expect("query is active");
            state.cells[run.cell].in_flight -= units;
            state.in_flight_total -= units;
            if state.failed.is_some() {
                if state.in_flight_total == 0 {
                    self.conclude_failed(q)?;
                }
            } else {
                self.requeue(&run, worker);
            }
        }
        Ok(())
    }

    /// Put every unit of `run` back at the head of its cell's queue, in
    /// order, because `worker` died holding it.
    fn requeue(&mut self, run: &Run, worker: usize) {
        let state = self.active[run.query].as_mut().expect("query is active");
        state.stats.requeued_units += run.units.len();
        for unit in run.units.iter().rev() {
            state.cells[run.cell].pending.push_front(unit.kind.clone());
            if let Some(t) = self.params.trace.as_deref() {
                t.record(
                    EventKind::Fault,
                    run.query as u32,
                    run.cell as u32,
                    2,
                    worker as u64,
                );
            }
        }
    }

    /// While a worker is idle and ready work exists, let the allocation
    /// policy pick the instruction to serve and dispatch a run of its
    /// units.
    fn dispatch_ready(&mut self) -> HostResult<()> {
        if let Some(t) = self.trace() {
            if t.is_enabled() {
                let pending: usize = self
                    .active
                    .iter()
                    .flatten()
                    .flat_map(|s| s.cells.iter().map(|c| c.pending.len()))
                    .sum();
                t.record(
                    EventKind::QueueDepth,
                    u32::MAX,
                    u32::MAX,
                    pending as u64,
                    self.idle.len() as u64,
                );
            }
        }
        let mut candidates: Vec<WorkCandidate> = Vec::new();
        let mut owners: Vec<(usize, usize)> = Vec::new();
        while let Some(&worker) = self.idle.last() {
            candidates.clear();
            owners.clear();
            for (q, state) in self.active.iter().enumerate() {
                let Some(state) = state else { continue };
                for (c, cs) in state.cells.iter().enumerate() {
                    if !cs.pending.is_empty() {
                        candidates.push(WorkCandidate {
                            instr: state.base + c,
                            in_flight: cs.in_flight,
                            depth: state.plan.depth[c],
                        });
                        owners.push((q, c));
                    }
                }
            }
            if candidates.is_empty() {
                return Ok(());
            }
            let instr = self.picker.pick(&candidates);
            let (q, c) = owners[candidates
                .iter()
                .position(|cand| cand.instr == instr)
                .expect("picker returns a candidate id")];
            // Guided self-scheduling: an equal share of what the cell has
            // pending, so runs shrink as it drains and the workers finish
            // together.
            let alive = self.alive();
            let state = self.active[q].as_mut().expect("query is active");
            let pending = &mut state.cells[c].pending;
            let take = pending.len().div_ceil(alive);
            let units = pending
                .drain(..take)
                .zip(self.next_seq..)
                .map(|(kind, seq)| RunUnit {
                    kind,
                    seq,
                    fault: self.params.fault.fault_for(seq),
                })
                .collect();
            let run = Arc::new(Run {
                plan: Arc::clone(&state.plan),
                query: q,
                cell: c,
                units,
            });
            self.idle.pop();
            if let Pool::Threads { work_txs, .. } = &self.pool {
                if work_txs[worker].send(Arc::clone(&run)).is_err() {
                    // The worker's receiver is gone: it died before ever
                    // accepting work. Shrink the pool, requeue the run,
                    // and keep dispatching to the survivors.
                    self.dead[worker] = true;
                    self.requeue(&run, worker);
                    continue;
                }
            }
            self.next_seq += take as u64;
            self.dispatched += take;
            let state = self.active[q].as_mut().expect("query is active");
            state.cells[c].in_flight += take;
            state.in_flight_total += take;
            if let Some(t) = self.trace() {
                for unit in &run.units {
                    t.record(
                        EventKind::UnitDispatch,
                        q as u32,
                        c as u32,
                        unit.seq,
                        worker as u64,
                    );
                }
            }
            // The completion channel's bound rests on this: one run per
            // worker outstanding.
            debug_assert!(
                self.assigned[worker].is_none(),
                "worker {worker} holds a run"
            );
            match &mut self.pool {
                Pool::Threads { .. } => self.assigned[worker] = Some(run),
                Pool::Inline(caller) => {
                    let done = serve_run(worker, &run, caller, self.params.trace.as_deref(), None);
                    self.on_run_done(done)?;
                }
            }
        }
        Ok(())
    }

    /// A worker reported back: account for its run, route the output, and
    /// cascade whatever that unblocks — or contain its failure.
    fn on_completion(&mut self, completion: Completion) -> HostResult<()> {
        match completion {
            Completion::WorkerDied { worker } => self.on_worker_died(worker),
            Completion::Run(done) => self.on_run_done(done),
        }
    }

    /// Account for a served run unit by unit, then either route its pages
    /// to the parent cell or — if any unit panicked, or the query was
    /// already doomed — discard them all.
    fn on_run_done(&mut self, done: RunDone) -> HostResult<()> {
        let (q, cell) = (done.query, done.cell);
        let trace = self.trace();
        self.recycle_worker(done.worker);
        self.dispatched -= done.units;
        let state = self.active[q].as_mut().expect("query is active");
        state.cells[cell].in_flight -= done.units;
        state.in_flight_total -= done.units;
        state.stats.units_fired += done.units;
        state.stats.probe_units += done.probe_units;
        state.stats.sweep_units += done.sweep_units;
        state.stats.failed_units += done.panics.len();
        state.stats.pages_moved += done.pages_in + done.pages.len();
        state.stats.bytes_moved += done.bytes_in + done.bytes_out;
        if let Some(t) = trace {
            for _ in &done.panics {
                t.record(
                    EventKind::Fault,
                    q as u32,
                    cell as u32,
                    0,
                    done.worker as u64,
                );
            }
        }
        if let Some(payload) = done.panics.into_iter().next() {
            // The panics were contained on the worker; it lives on and has
            // rejoined the pool. Only the owning query is doomed, and with
            // it every page of this run.
            let op = state.plan.cell(cell).op.name().to_string();
            return self.fail_query(
                q,
                HostError::UnitPanicked {
                    query: q,
                    cell,
                    op,
                    payload,
                },
            );
        }
        if state.failed.is_some() {
            // A late completion of an already-doomed query: the work is
            // discarded, the worker goes back to the pool.
            if state.in_flight_total == 0 {
                self.conclude_failed(q)?;
            }
            return Ok(());
        }
        self.route_output(q, cell, done.pages)?;
        self.try_complete(q, cell)
    }

    /// Return `worker` to the idle pool (unless it has since died).
    fn recycle_worker(&mut self, worker: usize) {
        self.assigned[worker] = None;
        if !self.dead[worker] {
            self.idle.push(worker);
        }
    }
}

/// Sort result tuple images lexicographically and repack them into full
/// pages — the deterministic-mode canonical form. The tuple encoding is
/// canonical (equal tuples ⟺ equal images), so byte order is a total,
/// run-independent order.
fn canonicalize(
    pages: &[Arc<Page>],
    schema: &Schema,
    page_size: usize,
) -> df_relalg::Result<Vec<Page>> {
    let mut images: Vec<&[u8]> = pages
        .iter()
        .flat_map(|p| p.tuple_refs().map(|t| t.raw()).collect::<Vec<_>>())
        .collect();
    images.sort_unstable();
    let mut out: Vec<Page> = Vec::new();
    for img in images {
        if out.last().map_or(true, Page::is_full) {
            out.push(Page::new(schema.clone(), page_size)?);
        }
        out.last_mut().expect("just pushed").push_raw(img)?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Workers (the IPs)
// ---------------------------------------------------------------------------

/// Accumulates kernel output batches into output pages, draining each
/// [`TupleBuf`] page-at-a-time (the IP output buffer of §4.2).
struct OutputPager {
    schema: Schema,
    page_size: usize,
    pages: Vec<Page>,
}

impl OutputPager {
    fn new(schema: Schema, page_size: usize) -> OutputPager {
        OutputPager {
            schema,
            page_size,
            pages: Vec::new(),
        }
    }

    fn absorb(&mut self, buf: &mut TupleBuf) {
        while !buf.is_empty() {
            if self.pages.last().map_or(true, Page::is_full) {
                self.pages.push(
                    Page::new(self.schema.clone(), self.page_size)
                        .expect("cell page size fits one tuple"),
                );
            }
            buf.drain_into(self.pages.last_mut().expect("just pushed"));
        }
    }

    fn finish(self) -> Vec<Arc<Page>> {
        self.pages
            .into_iter()
            .filter(|p| !p.is_empty())
            .map(Arc::new)
            .collect()
    }
}

/// Announces a worker's death to the scheduler if its thread exits any way
/// other than the orderly shutdown paths (which disarm it): an injected
/// dead-at-start fault, or a panic escaping the kernel guard.
struct DeathGuard {
    id: usize,
    done: SyncSender<Completion>,
    armed: bool,
}

impl Drop for DeathGuard {
    fn drop(&mut self) {
        if self.armed {
            // The scheduler may itself be gone (error path) — best effort.
            let _ = self.done.send(Completion::WorkerDied { worker: self.id });
        }
    }
}

/// Render a caught panic payload for the [`HostError::UnitPanicked`] report.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One worker thread: receive a run, serve it, send the completion back.
fn worker_loop(
    id: usize,
    rx: Receiver<Arc<Run>>,
    done: SyncSender<Completion>,
    poisoned: Arc<AtomicBool>,
    dead_at_start: bool,
    trace: Option<Arc<Tracer>>,
) -> WorkerStats {
    let spawned = Instant::now();
    let mut stats = WorkerStats::default();
    let mut guard = DeathGuard {
        id,
        done: done.clone(),
        armed: true,
    };
    if dead_at_start {
        // Injected fault: this IP never comes up. Returning with the guard
        // armed reports the death to the scheduler.
        stats.wall = spawned.elapsed();
        return stats;
    }
    while let Ok(run) = rx.recv() {
        stats.runs += 1;
        let completion = serve_run(id, &run, &mut stats, trace.as_deref(), Some(&poisoned));
        let s0 = Instant::now();
        let sent = done.send(Completion::Run(completion));
        stats.send_wait += s0.elapsed();
        if sent.is_err() {
            // Scheduler gone (error path): stop quietly.
            poisoned.store(true, Ordering::Relaxed);
            break;
        }
    }
    guard.armed = false;
    stats.wall = spawned.elapsed();
    stats
}

/// Serve one run as worker `id`: each unit under its own panic guard and
/// kernel span, all of them writing into one output buffer so the run's
/// output leaves as full pages. Shared by the worker threads and by the
/// scheduler of an inline call. `poisoned` (threads only) is set once the
/// scheduler has given the call up; the remaining units are then skipped,
/// since nobody will read the completion.
fn serve_run(
    id: usize,
    run: &Run,
    stats: &mut WorkerStats,
    trace: Option<&Tracer>,
    poisoned: Option<&AtomicBool>,
) -> RunDone {
    let spec = run.plan.cell(run.cell);
    let (query, cell) = (run.query as u32, run.cell as u32);
    // A fused span unit runs `k` logical operators in one kernel; each
    // still counts as its own kernel span (start/end pair, busy time
    // split evenly) so the per-operator accounting — and the df-obs
    // conservation identities over it — hold in both transfer modes.
    let logical_kernels = spec.steps.len().max(1);
    let mut pager = OutputPager::new(spec.out_schema.clone(), run.plan.out_page_size[run.cell]);
    let mut done = RunDone {
        worker: id,
        query: run.query,
        cell: run.cell,
        ..RunDone::default()
    };
    for unit in &run.units {
        if poisoned.is_some_and(|p| p.load(Ordering::Relaxed)) {
            break;
        }
        let span = trace.map(|t| t.span(query, cell, unit.seq));
        let t0 = Instant::now();
        let executed = catch_unwind(AssertUnwindSafe(|| {
            match unit.fault {
                Some(InjectedFault::Panic) => {
                    panic!("injected fault: kernel panic on unit {}", unit.seq)
                }
                Some(InjectedFault::Delay(d)) => thread::sleep(d),
                None => {}
            }
            execute_unit(&run.plan, run.cell, &unit.kind, &mut pager)
        }));
        let busy = t0.elapsed();
        stats.units += 1;
        stats.busy += busy;
        stats.kernel_spans += logical_kernels;
        done.units += 1;
        if let (Some(t), Some(span)) = (trace, span) {
            let class = match &executed {
                Ok((_, _, UnitClass::Probe)) => 1,
                Ok((_, _, UnitClass::Sweep)) => 2,
                _ => 0,
            };
            let per = busy.as_nanos() as u64 / logical_kernels as u64;
            span.end_with(
                t,
                class,
                busy.as_nanos() as u64 - per * (logical_kernels - 1) as u64,
            );
            for _ in 1..logical_kernels {
                let extra = t.span(query, cell, unit.seq);
                extra.end_with(t, class, per);
            }
        }
        match executed {
            Ok((pages_in, bytes_in, class)) => {
                done.pages_in += pages_in;
                done.bytes_in += bytes_in;
                match class {
                    UnitClass::Probe => done.probe_units += 1,
                    UnitClass::Sweep => done.sweep_units += 1,
                    UnitClass::Other => {}
                }
                stats.bytes_in += bytes_in;
                if let Some(t) = trace {
                    // Operand pages crossed the distribution network to
                    // this IP.
                    t.transfer(Path::Distribution, query, bytes_in);
                }
            }
            Err(payload) => {
                // Contained: note the failure and keep serving. The IP
                // survives its instruction the way the paper's distributed
                // control survives a node.
                stats.panics += 1;
                done.panics.push(panic_message(payload.as_ref()));
            }
        }
    }
    done.pages = pager.finish();
    done.bytes_out = done.pages.iter().map(|p| p.wire_bytes() as u64).sum();
    stats.bytes_out += done.bytes_out;
    if let Some(t) = trace {
        // Result pages go back over the arbitration network.
        t.transfer(Path::Arbitration, query, done.bytes_out);
    }
    done
}

/// Run the kernel for one work unit of `cell`, absorbing its output into
/// the run's `pager`. Returns (operand page count, operand bytes, unit
/// class). The unit's kind — fixed by the cell's firing class — says which
/// [`Kernel`] entry point to call; which operator that is, only the kernel
/// knows. What is decided here is what depends on host state: a hash join
/// probes the key index cached on each operand page instead of rebuilding
/// it per pair, and a cross product is absorbed pair by pair so the batch
/// stays bounded.
fn execute_unit(
    plan: &QueryPlan,
    cell: usize,
    kind: &WorkKind,
    pager: &mut OutputPager,
) -> (usize, u64, UnitClass) {
    /// Operand pages read and their wire bytes.
    fn count<'a>(pages: impl Iterator<Item = &'a Page>) -> (usize, u64) {
        pages.fold((0, 0), |(n, b), p| (n + 1, b + p.wire_bytes() as u64))
    }
    fn pages(operands: &[Arc<OperandPage>]) -> impl Iterator<Item = &Page> {
        operands.iter().map(|opp| &*opp.page)
    }
    let (kernel, out_schema) = (&plan.kernels[cell], &plan.cell(cell).out_schema);
    match kind {
        WorkKind::Page(page) => {
            pager.absorb(&mut kernel.run_unit_raw(&[page], out_schema));
            (1, page.wire_bytes() as u64, UnitClass::Other)
        }
        WorkKind::Sweep {
            new_page,
            opposite,
            new_is_outer,
        } => {
            // One reused output batch per unit.
            let mut out = TupleBuf::new(out_schema.clone());
            let class = match kernel {
                Kernel::JoinPair(sweep, JoinAlgo::Hash) => {
                    // The inner page is indexed on the condition's right
                    // attribute (the inner side is always port 1); probing
                    // outer slots in page order reproduces the nested-loops
                    // output byte for byte.
                    let condition = sweep.condition();
                    for opp in opposite.iter() {
                        let (outer, inner) = if *new_is_outer {
                            (new_page.as_ref(), opp.as_ref())
                        } else {
                            (opp.as_ref(), new_page.as_ref())
                        };
                        hash_join_probe_into(
                            &outer.page,
                            &inner.page,
                            inner.index_for(condition.right),
                            condition,
                            &mut out,
                        );
                    }
                    pager.absorb(&mut out);
                    UnitClass::Probe
                }
                _ => {
                    // A join sweeps the whole list into the one batch; a
                    // cross product's output is large, so it is absorbed
                    // pair by pair.
                    let batch = match kernel {
                        Kernel::CrossPair => 1,
                        _ => opposite.len().max(1),
                    };
                    for pairs in opposite.chunks(batch) {
                        kernel.run_sweep_raw_into(
                            &new_page.page,
                            pages(pairs),
                            *new_is_outer,
                            &mut out,
                        );
                        pager.absorb(&mut out);
                    }
                    UnitClass::Sweep
                }
            };
            let (n, b) = count(pages(opposite));
            (n + 1, b + new_page.page.wire_bytes() as u64, class)
        }
        WorkKind::Complete { left, right } => {
            let inputs = [left, right].map(|port| port.iter().map(Arc::as_ref).collect::<Vec<_>>());
            pager.absorb(&mut kernel.run_final_raw(&inputs, out_schema));
            let (n, b) = count(inputs.iter().flatten().copied());
            (n, b, UnitClass::Other)
        }
    }
}
