//! The real-threads data-flow executor.
//!
//! One scheduler (the calling thread) plays the paper's MC/IC layer: it
//! admits queries under the shared relation-granularity lock manager
//! ([`df_core::LockTable`]), delivers every produced page to its parent
//! instruction cell, and picks which ready instruction a freed worker
//! serves next via a [`df_core::WorkPicker`]. A pool of worker threads
//! plays the IPs: each receives work over a bounded channel (the
//! distribution network), runs the cell's [`df_query::Kernel`] — the
//! operator code the plan was lowered to once, at build, and the same code
//! the simulated machines execute — packs the output into pages, and sends
//! them back over a bounded MPSC channel (the arbitration network). Pages
//! flow cell → parent cell → query result with `Arc` sharing — never
//! copied.
//!
//! The modules follow those seams: `sched` admits, routes, picks work and
//! contains faults; `cell` holds one instruction cell's operands and the
//! §2 firing rule; `run` serves a run of units into packed output pages;
//! `worker` is the thread loop and its death guard; this module holds the
//! entry points, the size test and the inline/threaded `Pool`.
//!
//! # Units and runs
//!
//! The *unit* — one firing of one instruction on one operand page (or page
//! pair list, or complete operand) — is the atom of everything counted:
//! its own dispatch sequence number, fault draw, panic guard, kernel-span
//! count and `units_fired`. Its own clock pair and kernel-span events are
//! paid only while a tracer records; otherwise a run is timed as a whole,
//! and its units share one mask and one output batch. The *message* between scheduler and worker is a
//! **run**: every unit the freed worker takes from the picked cell in one
//! dispatch, ⌈pending ÷ min(alive workers, CPUs the call may run on)⌉ of
//! them. That is guided self-scheduling (Polychronopoulos & Kuck, 1987),
//! whose divisor is *processors*: runs shrink as a cell drains so the
//! processors finish together, and workers beyond the CPUs — which can
//! only take turns — never split a run between them. The CPU count is the
//! one the default `workers` already uses (`available_parallelism`), read
//! once per threaded call; an inline call has one processor. The paper
//! fires at page rather than tuple granularity because tuple traffic
//! "needlessly multiplies" arbitration-network load (§3.3); a channel
//! hand-off per page repeats that mistake one level up. A run travels as
//! one message, comes back as one completion, and packs into one set of
//! output pages — the IP output buffer of §4.2 — so its output arrives as
//! full pages (only a run's last page may be partial) and every cell above
//! it sees fewer, fuller operand pages.
//!
//! # Small calls run on the calling thread
//!
//! A call whose operands total at most [`INLINE_MAX_PAGES`] pages and whose
//! fault plan is inert spawns no thread: the scheduler serves each run
//! itself through the same `serve_run` the workers use. Such a call has
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
//! the kernel guard) is noticed by a refused dispatch or by its drop
//! guard's report, and both go through one death handler: the scheduler
//! records the death once, shrinks the pool, requeues the whole run that
//! worker held, and keeps draining with the survivors. Only when *every*
//! worker is gone do the still-unfinished queries fail, each with a
//! structured [`HostError::WorkersExhausted`] — never a hang: the
//! completion wait is bounded by [`crate::HostParams::stall_timeout`],
//! after which a wedged run returns [`HostError::Stalled`] with a
//! diagnostic instead of blocking forever.

mod cell;
mod run;
mod sched;
mod worker;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use df_query::{Op, QueryTree};
use df_relalg::{Catalog, Relation};

use self::run::Run;
use self::sched::{Scheduler, SchedulerOutcome};
use self::worker::{worker_loop, Completion};
use crate::error::{HostError, HostResult};
use crate::metrics::{HostMetrics, WorkerStats};
use crate::params::HostParams;
use crate::plan::QueryPlan;

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
    let per_worker = (handles.into_iter().zip(&outcome.dead))
        .map(|(h, &lost)| match h.join() {
            Ok(stats) => WorkerStats { lost, ..stats },
            // The thread unwound outside the kernel guard; its stats are
            // gone but the run survived without it.
            Err(_panic) => WorkerStats {
                lost: true,
                ..WorkerStats::default()
            },
        })
        .collect();
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
