//! Fault containment: injected worker failures must stay contained — the
//! victim query gets a structured error, every concurrent query's result
//! stays byte-identical to a fault-free run, and the run always
//! terminates (structured error, never a hang).
//!
//! Faults run in the shape every call runs: the caller is processor 0 and
//! serves runs beside its helpers. An active plan only fixes the helper
//! count at `workers` − 1, so the helpers it names exist, and an idle
//! helper always takes the call's first run.
//!
//! A call runs its batch as one graph, in which a subtree several queries
//! contain is one cell: a panic there fails every query that reads it.

mod common;

use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use df_host::{run_host_queries, run_host_query, FaultPlan, HostError, HostParams};
use df_obs::{EventKind, Tracer};
use df_query::{execute_readonly, ExecParams, QueryTree, TreeBuilder};
use df_relalg::{Catalog, CmpOp, Relation, Value};
use df_workload::{benchmark_queries, generate_database, BenchmarkSpec};

fn setup() -> (Catalog, Vec<QueryTree>) {
    setup_at(0.01)
}

fn setup_at(scale: f64) -> (Catalog, Vec<QueryTree>) {
    let spec = BenchmarkSpec::scaled(scale);
    let db = generate_database(&spec.database);
    let queries = benchmark_queries(&db, &spec).expect("benchmark queries build");
    (db, queries)
}

/// `restrict(scan r00)` at selectivity 0.5, optionally under a bag
/// project: one per-page cell whose units all become pending at admission,
/// so the first dispatch's run length is known — ⌈pages ÷ min(alive
/// workers, CPUs)⌉.
fn restrict_r00(db: &Catalog, project: bool) -> (QueryTree, usize) {
    let restricted = TreeBuilder::new(db)
        .scan("r00")
        .unwrap()
        .restrict_where("val", CmpOp::Lt, Value::Int(500))
        .unwrap();
    let tree = if project {
        restricted.project(&["key", "val"], false).unwrap().finish()
    } else {
        restricted.finish()
    };
    (tree, db.require("r00").unwrap().pages().len())
}

fn oracles(db: &Catalog, queries: &[QueryTree]) -> Vec<Relation> {
    queries
        .iter()
        .map(|q| execute_readonly(db, q, &ExecParams::default()).expect("oracle executes"))
        .collect()
}

/// Canonical page images of every successful query (deterministic mode
/// makes these run-independent).
fn images(results: &[Result<Relation, HostError>]) -> Vec<Option<Vec<Vec<u8>>>> {
    results
        .iter()
        .map(|r| {
            r.as_ref()
                .ok()
                .map(|rel| rel.pages().iter().map(|p| p.raw_data().to_vec()).collect())
        })
        .collect()
}

/// The threads injected kernel panics unwound on, in order.
static INJECTED_ON: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());

/// Injected panics unwind through the default panic hook, which would spam
/// the test output with expected backtraces; silence the injected ones —
/// on a helper or on the caller — and note the thread each unwound on.
/// Any other panic still prints. (The library itself never touches the
/// hook.)
fn quiet_worker_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = (info.payload().downcast_ref::<String>())
                .is_some_and(|s| s.starts_with("injected fault"));
            if injected {
                let mut on = INJECTED_ON.lock().unwrap_or_else(PoisonError::into_inner);
                on.push(thread::current().id());
            } else {
                default(info);
            }
        }));
    });
}

/// Injected panics that unwound on thread `id` so far.
fn injected_on(id: ThreadId) -> usize {
    let on = INJECTED_ON.lock().unwrap_or_else(PoisonError::into_inner);
    on.iter().filter(|&&t| t == id).count()
}

/// One worker under an active plan spawns no helper: the calling thread
/// serves every unit — the injected panic among them — and contains it to
/// the owning query, while every other query matches the oracle. The
/// caller cannot be planned dead: `dead_workers: [0]` is refused up front.
#[test]
fn an_injected_panic_on_the_caller_is_contained() {
    quiet_worker_panics();
    let (db, queries) = setup();
    let want = oracles(&db, &queries);
    let params = HostParams {
        fault: FaultPlan {
            panic_on_unit: Some(5),
            ..FaultPlan::default()
        },
        ..HostParams::with_workers(1)
    };
    let me = thread::current().id();
    let out = run_host_queries(&db, &queries, &params).expect("run survives the panic");
    assert_eq!(
        injected_on(me),
        1,
        "the panic unwound on the calling thread"
    );
    let caller = &out.metrics.per_worker[..];
    assert_eq!(caller.len(), 1);
    assert_eq!(caller[0].panics, 1);
    assert_eq!(caller[0].units, out.metrics.total_units());
    let failed: Vec<usize> = (0..queries.len())
        .filter(|&i| out.results[i].is_err())
        .collect();
    assert_eq!(failed.len(), 1, "exactly one victim: {failed:?}");
    assert!(matches!(
        out.results[failed[0]],
        Err(HostError::UnitPanicked { query, .. }) if query == failed[0]
    ));
    for (i, (got, want)) in out.results.iter().zip(&want).enumerate() {
        if let Ok(got) = got {
            assert!(got.same_contents(want), "survivor {i} vs oracle");
        }
    }

    let dead_caller = HostParams {
        fault: FaultPlan {
            dead_workers: vec![0],
            ..FaultPlan::default()
        },
        ..HostParams::with_workers(2)
    };
    let err = run_host_queries(&db, &queries, &dead_caller).unwrap_err();
    assert!(matches!(err, HostError::InvalidParams { .. }), "{err:?}");
}

/// The old executor asserted `workers >= 1` deep inside the scheduler;
/// misconfiguration must now surface as a structured error up front.
#[test]
fn zero_workers_is_a_structured_error_not_a_panic() {
    let (db, queries) = setup();
    let err = run_host_queries(&db, &queries, &HostParams::with_workers(0)).unwrap_err();
    assert!(matches!(err, HostError::InvalidParams { .. }), "{err:?}");
    assert!(err.to_string().contains("workers"));
}

/// The tentpole acceptance test: one injected kernel panic mid-run fails
/// exactly the queries reading its cell with [`HostError::UnitPanicked`],
/// while every other query of the batch stays byte-identical to a
/// fault-free run and multiset-identical to the sequential oracle. Where
/// unit 5 lands depends on the CPUs: on one, the helper's first run holds
/// all of `σ r00`, which Q1 alone reads; on more, the caller's first run
/// is `σ r02`, which Q2, Q3 and Q6 read.
#[test]
fn injected_panic_is_contained_to_the_owning_query() {
    quiet_worker_panics();
    let (db, queries) = setup();
    let want = oracles(&db, &queries);

    let clean = HostParams {
        deterministic: true,
        ..HostParams::with_workers(2)
    };
    let clean_images = images(
        &run_host_queries(&db, &queries, &clean)
            .expect("fault-free run")
            .results,
    );

    let mut faulted = clean.clone();
    faulted.fault = FaultPlan {
        panic_on_unit: Some(5),
        ..FaultPlan::default()
    };
    let out = run_host_queries(&db, &queries, &faulted).expect("run survives the panic");

    let failed: Vec<usize> = (0..queries.len())
        .filter(|&i| out.results[i].is_err())
        .collect();
    let Some(Err(HostError::UnitPanicked { cell, .. })) = out.results.iter().find(|r| r.is_err())
    else {
        panic!("expected a UnitPanicked victim: {failed:?}");
    };
    let readers = common::model(&db, &queries, clean.transfer).readers(*cell);
    assert_eq!(failed, readers, "exactly the readers of cell {cell} fail");
    for &victim in &failed {
        match out.results[victim].as_ref().unwrap_err() {
            HostError::UnitPanicked {
                query,
                cell: at,
                payload,
                ..
            } => {
                assert_eq!((*query, at), (victim, cell));
                assert!(payload.contains("injected fault"), "payload: {payload}");
            }
            other => panic!("expected UnitPanicked, got {other:?}"),
        }
    }
    assert_eq!(out.metrics.total_panics(), 1);
    // The cell's owner, its lowest-index reader, is charged the unit.
    assert_eq!(out.metrics.per_query[failed[0]].failed_units, 1);
    assert_eq!(out.metrics.workers_lost(), 0, "the worker itself survives");

    let got_images = images(&out.results);
    for i in 0..queries.len() {
        if failed.contains(&i) {
            continue;
        }
        let got = out.results[i].as_ref().expect("survivor succeeds");
        assert!(
            got.same_contents(&want[i]),
            "survivor query {i} diverged from the oracle"
        );
        assert_eq!(
            got_images[i], clean_images[i],
            "survivor query {i} is not byte-identical to the fault-free run"
        );
    }
}

/// A helper that dies before accepting any work shrinks the pool; the run
/// it was handed is requeued on the survivor, the caller, and every query
/// still matches the oracle.
#[test]
fn dead_worker_at_start_shrinks_the_pool_and_requeues() {
    let (db, queries) = setup();
    let want = oracles(&db, &queries);
    let params = HostParams {
        fault: FaultPlan {
            dead_workers: vec![1],
            ..FaultPlan::default()
        },
        ..HostParams::with_workers(2)
    };
    let out = run_host_queries(&db, &queries, &params).expect("run survives the death");
    for (i, (got, want)) in out.results.iter().zip(&want).enumerate() {
        let got = got.as_ref().expect("every query completes on the survivor");
        assert!(got.same_contents(want), "query {i} diverged");
    }
    assert_eq!(out.metrics.workers_lost(), 1);
    assert!(out.metrics.per_worker[1].lost);
    assert!(!out.metrics.per_worker[0].lost);
    assert_eq!(out.metrics.per_worker[1].units, 0);
}

/// A worker's death is traced exactly once, however it was noticed: a
/// dispatch refused by its closed channel and its drop guard's report race,
/// and whichever comes first must record the global `Fault { a: 1 }` — the
/// other is a no-op. Looped, because which one wins varies run to run.
#[test]
fn every_lost_worker_is_traced_once() {
    let (db, queries) = setup();
    for i in 0..64 {
        let tracer = Arc::new(Tracer::new(Tracer::DEFAULT_CAPACITY));
        let params = HostParams {
            fault: FaultPlan {
                dead_workers: vec![1],
                ..FaultPlan::default()
            },
            trace: Some(Arc::clone(&tracer)),
            ..HostParams::with_workers(2)
        };
        let out = run_host_queries(&db, &queries, &params).expect("run survives the death");
        assert!(out.results.iter().all(Result::is_ok));
        assert_eq!(out.metrics.workers_lost(), 1);
        let snap = tracer.snapshot();
        let deaths: Vec<u64> = snap
            .of_kind(EventKind::Fault)
            .filter(|e| e.a == 1)
            .map(|e| e.b)
            .collect();
        assert_eq!(deaths, [1], "iteration {i}: one death event, for worker 1");
        let requeued: usize = out.metrics.per_query.iter().map(|q| q.requeued_units).sum();
        let requeue_events = snap.of_kind(EventKind::Fault).filter(|e| e.a == 2).count();
        assert_eq!(requeue_events, requeued, "iteration {i}");
    }
}

/// Injected delays perturb interleavings but never the answer.
#[test]
fn injected_delays_leave_results_byte_identical() {
    let (db, queries) = setup();
    let clean = HostParams {
        deterministic: true,
        ..HostParams::with_workers(4)
    };
    let baseline = images(
        &run_host_queries(&db, &queries, &clean)
            .expect("fault-free run")
            .results,
    );
    let mut delayed = clean.clone();
    delayed.fault = FaultPlan {
        delay_every: Some(3),
        delay: Duration::from_millis(1),
        ..FaultPlan::default()
    };
    let out = run_host_queries(&db, &queries, &delayed).expect("delays are harmless");
    assert_eq!(images(&out.results), baseline);
}

/// Delay unit 0 alone — the first unit of the first run, which the idle
/// helper takes — by `delay`.
fn wedge_the_first_unit(delay: Duration) -> FaultPlan {
    FaultPlan {
        delay_every: Some(u64::MAX),
        delay,
        ..FaultPlan::default()
    }
}

/// A wedged kernel (simulated by a delay far past the stall timeout) on the
/// helper: the caller serves what it can, then waits for the helper and
/// reports [`HostError::Stalled`] instead of blocking forever.
#[test]
fn wedged_kernel_trips_the_stall_diagnostic() {
    let (db, queries) = setup();
    let params = HostParams {
        stall_timeout: Duration::from_millis(20),
        fault: wedge_the_first_unit(Duration::from_secs(2)),
        ..HostParams::with_workers(2)
    };
    let err = run_host_queries(&db, &queries, &params).unwrap_err();
    match err {
        HostError::Stalled {
            in_flight, waited, ..
        } => {
            assert!(in_flight > 0, "units were in flight when the run stalled");
            assert_eq!(waited, Duration::from_millis(20));
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
}

/// Seeded random panics at 1 and 2 workers: every query either matches the
/// oracle or reports the contained panic, and the counters reconcile. The
/// sharing rule, exactly: every failed query names a cell it reads where a
/// panic was counted.
#[test]
fn seeded_panic_rate_matrix_contains_every_fault() {
    quiet_worker_panics();
    let (db, queries) = setup();
    let want = oracles(&db, &queries);
    for workers in [1usize, 2] {
        let tracer = Arc::new(Tracer::new(Tracer::DEFAULT_CAPACITY));
        let params = HostParams {
            fault: FaultPlan {
                panic_rate: 0.05,
                seed: 0xD0E5,
                ..FaultPlan::default()
            },
            trace: Some(Arc::clone(&tracer)),
            ..HostParams::with_workers(workers)
        };
        let model = common::model(&db, &queries, params.transfer);
        let out = run_host_queries(&db, &queries, &params).expect("run survives");
        assert_eq!(out.metrics.cells, model.cells);
        let snap = tracer.snapshot();
        let panicked: Vec<usize> = (snap.of_kind(EventKind::Fault))
            .filter(|e| e.a == 0)
            .map(|e| e.cell as usize)
            .collect();
        assert_eq!(panicked.len(), out.metrics.total_panics());
        for (i, r) in out.results.iter().enumerate() {
            match r {
                Ok(got) => assert!(
                    got.same_contents(&want[i]),
                    "query {i} diverged at {workers} workers"
                ),
                Err(HostError::UnitPanicked { query, cell, .. }) => {
                    assert_eq!(*query, i, "the error names its own query");
                    assert!(model.reads[i].contains(cell), "query {i} reads cell {cell}");
                    assert!(panicked.contains(cell), "no panic counted at cell {cell}");
                }
                Err(other) => panic!("query {i}: unexpected error {other:?}"),
            }
        }
        let failed_units: usize = out.metrics.per_query.iter().map(|q| q.failed_units).sum();
        assert_eq!(failed_units, out.metrics.total_panics());
        assert_eq!(out.metrics.workers_lost(), 0);
    }
}

/// A panic aimed at `σ r02`, the root of Q2 and a leaf of Q3 and Q6, fails
/// exactly those three, each error naming its own query and the one cell;
/// the other seven queries are byte-identical to the fault-free run. One
/// worker makes the dispatch order, and so the unit's sequence number,
/// the fault-free run's.
#[test]
fn a_panic_in_a_shared_cell_fails_every_reader() {
    quiet_worker_panics();
    let (db, queries) = setup();
    let tracer = Arc::new(Tracer::new(Tracer::DEFAULT_CAPACITY));
    let clean = HostParams {
        deterministic: true,
        trace: Some(Arc::clone(&tracer)),
        ..HostParams::with_workers(1)
    };
    let clean_out = run_host_queries(&db, &queries, &clean).expect("fault-free run");
    let model = common::model(&db, &queries, clean.transfer);
    let shared = model.roots[1];
    assert_eq!(model.readers(shared), [1, 2, 5], "σ r02's readers");
    let seq = (tracer.snapshot().of_kind(EventKind::UnitDispatch))
        .find(|e| e.cell as usize == shared)
        .expect("σ r02 fires")
        .a;

    let faulted = HostParams {
        trace: None,
        fault: FaultPlan {
            panic_on_unit: Some(seq),
            ..FaultPlan::default()
        },
        ..clean
    };
    let out = run_host_queries(&db, &queries, &faulted).expect("run survives the panic");
    let failed: Vec<usize> = (0..queries.len())
        .filter(|&i| out.results[i].is_err())
        .collect();
    assert_eq!(failed, [1, 2, 5]);
    for &victim in &failed {
        match out.results[victim].as_ref().unwrap_err() {
            HostError::UnitPanicked {
                query, cell, op, ..
            } => assert_eq!((*query, *cell, op.as_str()), (victim, shared, "restrict")),
            other => panic!("expected UnitPanicked, got {other:?}"),
        }
    }
    // Q2, the cell's lowest-index reader, is charged the panicked unit.
    let failed_units: Vec<usize> = out
        .metrics
        .per_query
        .iter()
        .map(|q| q.failed_units)
        .collect();
    assert_eq!(failed_units, [0, 1, 0, 0, 0, 0, 0, 0, 0, 0]);
    let (want, got) = (images(&clean_out.results), images(&out.results));
    for i in (0..queries.len()).filter(|i| !failed.contains(i)) {
        assert_eq!(got[i], want[i], "survivor {i} is not byte-identical");
    }
}

/// Worker wall clocks run from spawn, so even a worker that never receives
/// a unit reports a nonzero lifetime (the old executor clocked from first
/// receive and reported zero).
#[test]
fn idle_workers_report_nonzero_wall_time() {
    let (db, queries) = setup();
    let query = &queries[0];
    let (_, metrics) =
        run_host_query(&db, query, &HostParams::with_workers(8)).expect("host executes");
    assert_eq!(metrics.per_worker.len(), 8);
    for (id, w) in metrics.per_worker.iter().enumerate() {
        assert!(!w.wall.is_zero(), "worker {id} reports zero wall time");
        assert!(w.busy + w.send_wait <= w.wall + Duration::from_millis(5));
    }
}

/// A helper that dies holding a multi-unit run: the whole run is requeued
/// on the survivor, the caller, unit for unit, and the answer is unharmed.
/// Helper 1 is offered the first run — the restrict's pages split over
/// both workers (still looking alive) or the CPUs, whichever is fewer —
/// whether it dies before or after the hand-off.
#[test]
fn dead_worker_requeues_its_whole_run() {
    let (db, queries) = setup_at(0.05);
    let (query, pages) = restrict_r00(&db, false);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let first_run = pages.div_ceil(2.min(cpus));
    assert!(first_run > 1, "the run must hold several units");
    let params = HostParams {
        fault: FaultPlan {
            dead_workers: vec![1],
            ..FaultPlan::default()
        },
        ..HostParams::with_workers(2)
    };
    let (got, metrics) = run_host_query(&db, &query, &params).expect("run survives the death");
    let want = execute_readonly(&db, &query, &ExecParams::default()).expect("oracle");
    assert!(got.same_contents(&want));
    assert_eq!(metrics.per_query[0].requeued_units, first_run);
    assert_eq!(metrics.per_query[0].units_fired, pages);
    assert_eq!(
        metrics.per_worker[0].units, pages,
        "the survivor serves all"
    );
    assert_eq!(metrics.workers_lost(), 1);

    // The same death under the ten-query batch: every query still equals
    // the oracle, and what was requeued was a run, not a unit.
    let out = run_host_queries(&db, &queries, &params).expect("run survives the death");
    for (i, (got, want)) in out.results.iter().zip(oracles(&db, &queries)).enumerate() {
        let got = got.as_ref().expect("every query completes on the survivor");
        assert!(got.same_contents(&want), "query {i} diverged");
    }
    let requeued: usize = out.metrics.per_query.iter().map(|q| q.requeued_units).sum();
    assert!(requeued > 1, "{requeued} units requeued");
}

/// A panic in the *middle* of a run. The run's shared output buffer holds
/// what the units before (and after) the panicked one produced, so the
/// scheduler must discard every page of it: nothing reaches the parent
/// cell, and the query fails having fired exactly that one run.
#[test]
fn panic_inside_a_run_discards_the_runs_pages() {
    quiet_worker_panics();
    let (db, _) = setup_at(0.05);
    let (query, pages) = restrict_r00(&db, true);
    assert!(pages >= 3);
    let tracer = Arc::new(Tracer::new(Tracer::DEFAULT_CAPACITY));
    // One worker: the first run is all of the restrict's units.
    let params = HostParams {
        fault: FaultPlan {
            panic_on_unit: Some(pages as u64 / 2),
            ..FaultPlan::default()
        },
        trace: Some(Arc::clone(&tracer)),
        ..HostParams::with_workers(1)
    };
    let out = run_host_queries(&db, std::slice::from_ref(&query), &params).expect("contained");
    match out.results[0].as_ref().unwrap_err() {
        HostError::UnitPanicked { cell, op, .. } => {
            assert_eq!(op, "restrict");
            let snap = tracer.snapshot();
            // The only firing is the restrict's own, at admission: its
            // parent (a per-page project, which fires on any delivery)
            // never received a page.
            let fires: Vec<_> = snap.of_kind(EventKind::CellFire).collect();
            assert_eq!(fires.len(), 1, "{fires:?}");
            assert_eq!(fires[0].cell as usize, *cell);
            assert_eq!(fires[0].b as usize, pages);
            assert_eq!(snap.of_kind(EventKind::UnitDispatch).count(), pages);
        }
        other => panic!("expected UnitPanicked, got {other:?}"),
    }
    let stats = &out.metrics.per_query[0];
    assert_eq!(stats.units_fired, pages, "the run was served to its end");
    assert_eq!(stats.failed_units, 1);
    assert_eq!(out.metrics.total_panics(), 1);
    assert_eq!(out.metrics.total_runs(), 1, "one hand-off held every unit");
    assert_eq!(out.metrics.workers_lost(), 0);
}

/// The same mid-run panic under the ten-query batch, at a scale where
/// every cell's first run holds at least five units (the smallest relation
/// has five pages): exactly one query fails, the survivors are
/// byte-identical to the fault-free run, and the counters reconcile.
#[test]
fn panic_inside_a_run_is_contained_to_the_owning_query() {
    quiet_worker_panics();
    let (db, queries) = setup_at(0.05);
    let want = oracles(&db, &queries);
    for workers in [1usize, 2] {
        let clean = HostParams {
            deterministic: true,
            ..HostParams::with_workers(workers)
        };
        let clean_images = images(
            &run_host_queries(&db, &queries, &clean)
                .expect("fault-free run")
                .results,
        );
        let tracer = Arc::new(Tracer::new(Tracer::DEFAULT_CAPACITY));
        let mut faulted = clean.clone();
        faulted.fault.panic_on_unit = Some(1);
        faulted.trace = Some(Arc::clone(&tracer));
        let out = run_host_queries(&db, &queries, &faulted).expect("run survives the panic");

        // Unit 1 sat inside a run: units 0 and 2 went to the same cell
        // and the same worker in the same dispatch (before any kernel of
        // another run could have ended).
        let snap = tracer.snapshot();
        let dispatches: Vec<_> = snap.of_kind(EventKind::UnitDispatch).take(3).collect();
        assert_eq!(
            dispatches.iter().map(|e| e.a).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert!(dispatches.iter().all(|e| (e.query, e.cell, e.b)
            == (dispatches[0].query, dispatches[0].cell, dispatches[0].b)));

        let failed: Vec<usize> = (0..queries.len())
            .filter(|&i| out.results[i].is_err())
            .collect();
        assert_eq!(failed.len(), 1, "exactly one victim: {failed:?}");
        let victim = failed[0];
        assert_eq!(victim, dispatches[0].query as usize);
        assert!(matches!(
            out.results[victim],
            Err(HostError::UnitPanicked { .. })
        ));
        let failed_units: usize = out.metrics.per_query.iter().map(|q| q.failed_units).sum();
        assert_eq!(failed_units, out.metrics.total_panics());
        assert_eq!(failed_units, 1);

        let got_images = images(&out.results);
        for i in (0..queries.len()).filter(|&i| i != victim) {
            let got = out.results[i].as_ref().expect("survivor succeeds");
            assert!(got.same_contents(&want[i]), "survivor {i} vs oracle");
            assert_eq!(
                got_images[i], clean_images[i],
                "survivor {i} is not byte-identical to the fault-free run"
            );
        }
    }
}

/// A wedged unit inside a multi-unit run on the helper: the scheduler
/// waits for the run's one completion, so the stall surfaces after
/// `stall_timeout`, with the whole run in flight, while the caller has
/// served the rest of the cell — not after the wedged unit's delay.
#[test]
fn wedged_unit_inside_a_run_stalls_within_the_timeout() {
    let (db, _) = setup_at(0.05);
    let (query, pages) = restrict_r00(&db, false);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let first_run = pages.div_ceil(2.min(cpus));
    assert!(first_run > 1, "the run must hold several units");
    let delay = Duration::from_secs(2);
    let params = HostParams {
        stall_timeout: Duration::from_millis(30),
        fault: wedge_the_first_unit(delay),
        ..HostParams::with_workers(2)
    };
    let started = Instant::now();
    let err = run_host_query(&db, &query, &params).unwrap_err();
    let took = started.elapsed();
    match err {
        HostError::Stalled {
            in_flight, waited, ..
        } => {
            assert_eq!(in_flight, first_run, "the whole run was in flight");
            assert_eq!(waited, Duration::from_millis(30));
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
    // The caller was released before the wedged unit's delay elapsed.
    assert!(took < delay, "returned after {took:?}");
}
