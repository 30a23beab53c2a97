//! The real-threads data-flow executor.
//!
//! One scheduler (the calling thread) plays the paper's MC/IC layer: it
//! admits queries under the shared relation-granularity lock manager
//! ([`df_core::LockTable`]), delivers every produced page to its parent
//! instruction cell, and picks which ready instruction a processor serves
//! next via a [`df_core::WorkPicker`]. The processors play the IPs: the
//! calling thread itself and min(workers, CPUs) − 1 helper threads. A
//! helper receives work over a bounded channel (the distribution network),
//! runs the cell's [`df_query::Kernel`] — the operator code the plan was
//! lowered to once, at build, and the same code the simulated machines
//! execute — packs the output into pages, and sends them back over a
//! bounded MPSC channel (the arbitration network). Pages flow cell →
//! parent cell → query result with `Arc` sharing — never copied.
//!
//! The modules follow those seams: `sched` admits, routes, picks work,
//! serves the caller's runs and contains faults; `cell` holds one cell's
//! operands and the §2 firing rule; `run` serves a run of units into packed
//! output pages; `worker` is the helper thread loop and its death guard;
//! this module holds the entry points and spawns and joins the helpers.
//!
//! # Units and runs
//!
//! The *unit* — one firing of one instruction on one operand page (or page
//! pair list, or complete operand) — is the atom of everything counted:
//! its own dispatch sequence number, fault draw, panic guard, kernel-span
//! count and `units_fired`. Its own clock pair and kernel-span events are
//! paid only while a tracer records; otherwise a run is timed as a whole,
//! and its units share one mask and one output batch. What a processor
//! serves is a **run**: every unit it takes from the picked cell in one
//! dispatch, ⌈pending ÷ min(processors, CPUs the call may run on)⌉ of them.
//! That is guided self-scheduling (Polychronopoulos & Kuck, 1987), whose
//! divisor is *processors*: runs shrink as a cell drains so the processors
//! finish together, and workers beyond the CPUs — which could only take
//! turns — are never spawned. The CPU count is `available_parallelism`,
//! read once per calling thread.
//! The paper fires at page rather than tuple granularity because tuple
//! traffic "needlessly multiplies" arbitration-network load (§3.3); a
//! channel hand-off per page repeats that mistake one level up. A run
//! travels as one message, comes back as one completion, and packs into
//! one set of output pages — the IP output buffer of §4.2 — so its output
//! arrives as full pages (only a run's last page may be partial) and every
//! cell above it sees fewer, fuller operand pages.
//!
//! # The caller is a processor
//!
//! Whenever work is left after every idle helper got a run, and no
//! completion is waiting, the calling thread serves a run itself through
//! the same `serve_run` the helpers use; it blocks on the completion
//! channel only when it has nothing to serve. A call spawns min(workers,
//! CPUs) − 1 helpers, so on one CPU it spawns no thread at all — and
//! neither does a call whose operands total at most 128 pages, where a
//! helper's spawn and hand-off cost more than the kernel time it could
//! overlap ([`HostParams::processors`]). A fault plan that injects into the
//! host keeps every worker a helper thread, and the caller only schedules.
//!
//! # Fault containment
//!
//! The paper's §4 case for *distributed* control is that no single
//! component failure stalls the machine; the executor holds itself to the
//! same standard. A kernel panic is caught on the processor
//! (`catch_unwind`, per unit), reported in the run's completion, and fails
//! only the owning query — the processor and every other in-flight query
//! survive. (The run's shared output buffer may hold the panicked
//! unit's partial output; that is safe only because the scheduler discards
//! every page of a doomed query.) A helper thread that dies outright
//! (simulated by [`crate::FaultPlan::dead_workers`], or a panic escaping
//! the kernel guard) is noticed by a refused dispatch or by its drop
//! guard's report, and both go through one death handler: the scheduler
//! records the death once, shrinks the pool, requeues the whole run that
//! helper held, and keeps draining with the survivors. Only when *every*
//! processor is gone do the still-unfinished queries fail, each with a
//! structured [`HostError::WorkersExhausted`]; while the caller serves it
//! never is. The stall watchdog covers helper runs only: the completion
//! wait is bounded by [`crate::HostParams::stall_timeout`], after which a
//! wedged helper run returns [`HostError::Stalled`] with a diagnostic
//! instead of blocking forever. A run the caller serves has no watchdog —
//! nobody is left to time the caller out — so a unit wedged there hangs
//! the call; its kernel panics are still caught per unit.

mod cell;
mod run;
mod sched;
mod worker;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use df_query::QueryTree;
use df_relalg::{Catalog, Relation};

use self::run::Run;
use self::sched::Scheduler;
use self::worker::{worker_loop, Completion};
use crate::error::{HostError, HostResult};
use crate::metrics::{HostMetrics, WorkerStats};
use crate::params::{HostParams, Processors};
use crate::plan::QueryPlan;

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
        .map(|q| QueryPlan::build(db, q, params.page_size, params.transfer).map(Arc::new))
        .collect::<HostResult<_>>()?;
    let processors = params.processors(db, queries)?;
    execute(db, queries, plans, params, processors)
}

/// Run built `plans` with the given processors: spawn the helpers, let the
/// scheduler drain the batch, join the helpers and assemble the metrics.
fn execute(
    db: &Catalog,
    queries: &[QueryTree],
    plans: Vec<Arc<QueryPlan>>,
    params: &HostParams,
    processors: Processors,
) -> HostResult<HostRunOutput> {
    let started = Instant::now();

    // Each helper has a bounded dispatch channel; they share one
    // completion channel, which never holds more than one
    // `Completion::Run` plus one `WorkerDied` per helper (a helper gets its
    // next run only after `on_run_done` recycled it): sized so, a send on
    // it never blocks. No helpers, no channels.
    // Helpers are numbered from 1 when the caller is processor 0.
    let Processors {
        caller_serves,
        helpers,
    } = processors;
    let first = usize::from(caller_serves);
    let poisoned = Arc::new(AtomicBool::new(false));
    let mut work_txs = Vec::with_capacity(helpers);
    let mut handles = Vec::with_capacity(helpers);
    let mut done_rx = None;
    if helpers > 0 {
        let (done_tx, rx) = sync_channel::<Completion>(2 * helpers);
        for id in first..first + helpers {
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
        done_rx = Some(rx);
    }

    let outcome = match Scheduler::new(db, queries, plans, params, first, work_txs, done_rx).run() {
        Ok(outcome) => outcome,
        Err(e) => {
            // Run-level failure. The scheduler (and with it every channel
            // endpoint) is already dropped, so helpers wake and exit on
            // their own; `poisoned` makes them skip every unit they still
            // hold. We deliberately do not join: a genuinely wedged kernel
            // (the `Stalled` case) would block the caller forever.
            poisoned.store(true, Ordering::Relaxed);
            drop(handles);
            return Err(e);
        }
    };

    // Helpers exit when their dispatch channel closes (`Scheduler::run`
    // drops the senders); collect their stats. A thread that died is a
    // contained fault, not a reason to kill the caller. The caller's entry
    // and every entry without a thread report the call's wall time.
    let mut per_worker = vec![WorkerStats::default(); params.workers];
    per_worker[0] = outcome.caller;
    for ((entry, h), &lost) in
        (per_worker[first..].iter_mut().zip(handles)).zip(&outcome.dead[first..])
    {
        *entry = match h.join() {
            Ok(stats) => WorkerStats { lost, ..stats },
            // The thread unwound outside the kernel guard; its stats are
            // gone but the run survived without it.
            Err(_panic) => WorkerStats {
                lost: true,
                ..WorkerStats::default()
            },
        };
    }
    let elapsed = started.elapsed();
    for (id, entry) in per_worker.iter_mut().enumerate() {
        if !(first..first + helpers).contains(&id) {
            entry.wall = elapsed;
        }
    }
    Ok(HostRunOutput {
        results: outcome.results,
        metrics: HostMetrics {
            elapsed,
            per_query: outcome.per_query,
            per_worker,
        },
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use df_workload::{benchmark_queries, generate_database, BenchmarkSpec};

    fn pages(results: &[Result<Relation, HostError>]) -> Vec<Vec<Vec<u8>>> {
        let rels = results.iter().map(|r| r.as_ref().expect("query succeeds"));
        let page_images =
            |rel: &Relation| rel.pages().iter().map(|p| p.raw_data().to_vec()).collect();
        rels.map(page_images).collect()
    }

    /// Helpers die at start while the caller serves — the shape an inert
    /// plan runs in production, here with the helper count fixed and the
    /// deaths injected. The first pass offers each idle helper a run, so
    /// every dead helper is handed one and its death requeues it. Whether
    /// one of two helpers dies or both do, the caller and any survivor
    /// serve every run (the caller alone when both die), no query fails
    /// (the caller never dies, so the pool is never exhausted), and the
    /// results equal a one-worker call's page for page.
    #[test]
    fn helpers_dying_while_the_caller_serves_lose_nothing() {
        let spec = BenchmarkSpec::scaled(0.01);
        let db = generate_database(&spec.database);
        let queries = benchmark_queries(&db, &spec).expect("benchmark queries build");
        let params = |workers: usize, dead_workers: Vec<usize>| HostParams {
            deterministic: true,
            fault: FaultPlan {
                dead_workers,
                ..FaultPlan::default()
            },
            ..HostParams::with_workers(workers)
        };
        let one = run_host_queries(&db, &queries, &params(1, Vec::new())).expect("host executes");
        let want = pages(&one.results);
        for dead in [vec![2], vec![1, 2]] {
            let params = params(3, dead.clone());
            let plans = (queries.iter())
                .map(|q| QueryPlan::build(&db, q, params.page_size, params.transfer))
                .map(|plan| plan.map(Arc::new))
                .collect::<HostResult<_>>()
                .expect("plans build");
            let processors = Processors {
                caller_serves: true,
                helpers: 2,
            };
            let out = execute(&db, &queries, plans, &params, processors).expect("host executes");
            let at = format!("helpers {dead:?} dead");
            assert_eq!(
                pages(&out.results),
                want,
                "{at}: pages differ from 1 worker"
            );
            let m = &out.metrics;
            assert_eq!(m.workers_lost(), dead.len(), "{at}");
            for &id in &dead {
                let w = &m.per_worker[id];
                assert!(w.lost, "{at}: helper {id} not reported lost");
                assert_eq!((w.runs, w.units), (0, 0), "{at}: helper {id} served");
            }
            assert!(!m.per_worker[0].lost, "{at}: the caller died");
            if dead.len() == processors.helpers {
                let caller = m.per_worker[0].units;
                assert_eq!(caller, m.total_units(), "{at}: the caller served part");
            }
            let requeued: usize = m.per_query.iter().map(|q| q.requeued_units).sum();
            assert!(requeued > 0, "{at}: no dead helper's run was requeued");
        }
    }
}
