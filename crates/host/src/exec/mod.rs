//! The real-threads data-flow executor.
//!
//! A call runs its whole batch as **one data-flow graph**:
//! [`df_query::Graph::merged`] compiles the queries' plans, after span
//! fusion, into one set of instruction cells, and two nodes become one
//! cell iff they run the same operators over the same merged inputs — the
//! paper's one instruction per query-tree node (§2.3), held once for every
//! user whose query contains it. A scan leaf is no cell: its relation is a
//! source whose catalog pages feed its consumers' ports. One scheduler (the
//! calling thread) plays the paper's MC/IC layer: it admits every query
//! when the call starts (they only read, so there is nothing to lock),
//! feeds every source's pages to its consumers, delivers every produced
//! page to each consumer of its cell (an `Arc` clone per consumer, and one
//! per query rooted there), and picks which ready instruction a processor
//! serves next: the one with the fewest units in flight, the lowest cell
//! id first (the data-flow strategy of \[4\]; ids are assigned in query
//! order). The processors
//! play the IPs: the calling thread itself, processor 0, and up to
//! workers − 1 helper threads. A
//! helper receives work over a bounded channel (the distribution network),
//! runs the cell's [`df_query::Kernel`] — the operator code its plan node
//! carries, compiled once with the plan, the same code the simulated
//! machines execute — packs the output into pages, and sends them back over a
//! bounded MPSC channel (the arbitration network). Pages flow cell →
//! consumer cells → query results with `Arc` sharing — never copied.
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
//! turns — are not spawned unless a fault plan is active. The CPU count
//! is `available_parallelism`, read once per calling thread.
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
//! overlap ([`HostParams::processors`]). An active fault plan runs in this
//! same shape, with the helper count fixed at workers − 1 so the helpers
//! it names exist.
//!
//! # Fault containment
//!
//! The paper's §4 case for *distributed* control is that no single
//! component failure stalls the machine; the executor holds itself to the
//! same standard. A kernel panic is caught on the processor
//! (`catch_unwind`, per unit), reported in the run's completion, and fails
//! only the queries that read its cell, each error naming its own query —
//! the processor and every other in-flight query survive. (The run's
//! shared output buffer may hold the panicked unit's partial output; that
//! is safe only because the scheduler discards every page of the run.) A
//! cell drops its pending work once every query reading it is doomed, and
//! what a shared cell does — units, bytes, spans, trace events — is
//! counted once, against its lowest-index reader. A helper thread that
//! dies outright (simulated by [`crate::FaultPlan::dead_workers`], or a
//! panic escaping the kernel guard) is noticed by a refused dispatch or by
//! its drop guard's report, and both go through one death handler: the
//! scheduler records the death once, shrinks the pool, requeues the whole
//! run that helper held, and keeps draining with the survivors — the
//! caller among them, so losing every helper fails no query. The stall watchdog covers
//! helper runs only: the completion wait is bounded by
//! [`crate::HostParams::stall_timeout`], after which a wedged helper run
//! returns [`HostError::Stalled`] with a diagnostic instead of blocking
//! forever. A run the caller serves has no watchdog —
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

use df_query::{Graph, QueryTree};
use df_relalg::{Catalog, Relation};

use self::run::Run;
use self::sched::Scheduler;
use self::worker::{worker_loop, Completion};
use crate::error::{HostError, HostResult};
use crate::metrics::{HostMetrics, WorkerStats};
use crate::params::HostParams;

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

/// Execute a batch of read-only queries on real threads as one data-flow
/// graph: every query is admitted at once, and a subtree that several
/// queries contain fires once for all of them.
///
/// Results are multiset-identical to [`df_query::execute_readonly`] for
/// every worker count (asserted by the `host_vs_oracle` differential
/// tests).
///
/// # Errors
/// A run-level `Err` means nothing useful happened: invalid parameters
/// ([`HostError::InvalidParams`]), a query that fails validation
/// ([`HostError::Data`]) or uses an update operator
/// ([`HostError::ReadOnlyExecutor`]: updates stay on the oracle and the
/// simulated machines, which own catalog mutation), or a stalled scheduler
/// ([`HostError::Stalled`]).
/// Worker faults do **not** fail the run: a kernel panic is contained to
/// the `Err` entries in [`HostRunOutput::results`] of the queries that
/// read its cell while every other query completes normally, and a dead
/// helper's work is requeued.
pub fn run_host_queries(
    db: &Catalog,
    queries: &[QueryTree],
    params: &HostParams,
) -> HostResult<HostRunOutput> {
    params.validate()?;
    let graph = Graph::merged(db, queries, params.transfer)?;
    if let Some(update) = graph.cells.iter().find(|c| c.node().op.is_update()) {
        let op = update.node().op.name().to_string();
        return Err(HostError::ReadOnlyExecutor { op });
    }
    let helpers = params.processors(db, queries)?;
    let started = Instant::now();

    // Each helper has a bounded dispatch channel; they share one
    // completion channel, which never holds more than one
    // `Completion::Run` plus one `WorkerDied` per helper (a helper gets its
    // next run only after `on_run_done` recycled it): sized so, a send on
    // it never blocks. No helpers, no channels. The caller is processor 0,
    // so helpers are numbered from 1.
    let poisoned = Arc::new(AtomicBool::new(false));
    let mut work_txs = Vec::with_capacity(helpers);
    let mut handles = Vec::with_capacity(helpers);
    let mut done_rx = None;
    if helpers > 0 {
        let (done_tx, rx) = sync_channel::<Completion>(2 * helpers);
        for id in 1..=helpers {
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

    let outcome = match Scheduler::new(db, &graph, params, work_txs, done_rx).run() {
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
    for ((entry, h), &lost) in (per_worker[1..].iter_mut().zip(handles)).zip(&outcome.dead[1..]) {
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
        if !(1..=helpers).contains(&id) {
            entry.wall = elapsed;
        }
    }
    Ok(HostRunOutput {
        results: outcome.results,
        metrics: HostMetrics {
            elapsed,
            cells: graph.cells.len(),
            per_query: outcome.per_query,
            per_worker,
            side_build: outcome.side_build.0,
            side_tuples: outcome.side_build.1,
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
    use df_query::{TransferMode, TreeBuilder};
    use df_relalg::{CmpOp, DataType, Schema, Tuple, Value, PAGE_HEADER_BYTES};
    use df_workload::{benchmark_queries, generate_database, BenchmarkSpec};

    /// `emp(id, dept)`: eight 16-byte tuples.
    fn emp() -> Catalog {
        let mut db = Catalog::new();
        let s = Schema::build()
            .attr("id", DataType::Int)
            .attr("dept", DataType::Int)
            .finish()
            .unwrap();
        let tuples = (0..8).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 2)]));
        db.insert(Relation::from_tuples("emp", s, 1024, tuples).unwrap())
            .unwrap();
        db
    }

    /// df-host runs read-only queries: an update root is refused under
    /// both transfer modes, a fusible chain below it included.
    #[test]
    fn rejects_updates() {
        let db = emp();
        let delete = TreeBuilder::new(&db)
            .delete_where("emp", "id", CmpOp::Eq, Value::Int(0))
            .unwrap();
        let append = TreeBuilder::new(&db)
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Gt, Value::Int(2))
            .unwrap()
            .project(&["id", "dept"], false)
            .unwrap()
            .append_to("emp")
            .unwrap()
            .finish();
        for transfer in [TransferMode::Materialize, TransferMode::Pipeline] {
            let params = HostParams {
                transfer,
                ..HostParams::with_workers(1)
            };
            for (query, op) in [(&delete, "delete"), (&append, "append")] {
                let err = run_host_query(&db, query, &params).unwrap_err();
                assert!(err.to_string().contains("read-only"), "{transfer:?}");
                assert!(
                    matches!(err, HostError::ReadOnlyExecutor { op: ref o } if o == op),
                    "{transfer:?}: {err}"
                );
            }
        }
    }

    /// A page size too small for one tuple grows to hold exactly one.
    #[test]
    fn tiny_page_size_grows_to_fit_one_tuple() {
        let db = emp();
        let q = TreeBuilder::new(&db).scan("emp").unwrap().finish();
        // Deterministic mode repacks the result: a bare scan's own pages
        // are the catalog's.
        let params = HostParams {
            page_size: 8,
            deterministic: true,
            ..HostParams::with_workers(1)
        };
        let (rel, _) = run_host_query(&db, &q, &params).unwrap();
        assert_eq!(rel.page_size(), PAGE_HEADER_BYTES + 16);
        assert_eq!(rel.num_pages(), 8);
    }

    /// A bare-scan root emits the catalog's own pages, so its result takes
    /// their size, whatever page size the call packs its runs into.
    #[test]
    fn a_bare_scan_root_keeps_the_catalogs_page_size() {
        let db = emp();
        let q = TreeBuilder::new(&db).scan("emp").unwrap().finish();
        let params = HostParams {
            page_size: 512,
            ..HostParams::with_workers(1)
        };
        let (rel, _) = run_host_query(&db, &q, &params).unwrap();
        let catalog = db.require("emp").unwrap();
        assert_eq!(rel.page_size(), catalog.page_size());
        assert!(rel.same_contents(catalog));
    }

    /// A fused span's run packs into pages sized for its chain top's
    /// tuples, not its bottom's: here the 8-byte projected tuples, one to a
    /// page, which the result (its pages taken as the run made them)
    /// accepts only at that size.
    #[test]
    fn pipeline_span_takes_its_chain_tops_page_size() {
        let db = emp();
        // scan(0) -> restrict(1) -> project(2): one span under Pipeline.
        let q = TreeBuilder::new(&db)
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Gt, Value::Int(2))
            .unwrap()
            .project(&["dept"], false)
            .unwrap()
            .finish();
        for transfer in [TransferMode::Materialize, TransferMode::Pipeline] {
            let params = HostParams {
                page_size: 8,
                transfer,
                ..HostParams::with_workers(1)
            };
            let (rel, metrics) = run_host_query(&db, &q, &params).unwrap();
            assert_eq!(rel.page_size(), PAGE_HEADER_BYTES + 8, "{transfer:?}");
            assert_eq!((rel.num_tuples(), rel.num_pages()), (5, 5), "{transfer:?}");
            // The span fires once on emp's one page; unfused, the project
            // fires once per restrict output page too.
            let want = if transfer == TransferMode::Pipeline {
                1
            } else {
                6
            };
            assert_eq!(metrics.total_units(), want, "{transfer:?}");
        }
    }

    fn pages(results: &[Result<Relation, HostError>]) -> Vec<Vec<Vec<u8>>> {
        let rels = results.iter().map(|r| r.as_ref().expect("query succeeds"));
        let page_images =
            |rel: &Relation| rel.pages().iter().map(|p| p.raw_data().to_vec()).collect();
        rels.map(page_images).collect()
    }

    /// Helpers die at start while the caller serves. The plan fixes the
    /// helper count at two, and the first pass offers each idle helper a
    /// run, so every dead helper is handed one and its death requeues it.
    /// Whether one of two helpers dies or both do, the caller and any
    /// survivor serve every run (the caller alone when both die), no query
    /// fails, and the results equal a one-worker call's page for page.
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
            let out =
                run_host_queries(&db, &queries, &params(3, dead.clone())).expect("host executes");
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
            if dead.len() == 2 {
                let caller = m.per_worker[0].units;
                assert_eq!(caller, m.total_units(), "{at}: the caller served part");
            }
            let requeued: usize = m.per_query.iter().map(|q| q.requeued_units).sum();
            assert!(requeued > 0, "{at}: no dead helper's run was requeued");
        }
    }
}
