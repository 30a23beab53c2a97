//! Observability invariants: an installed tracer must account for every
//! byte and every unit exactly, and tracing must never perturb results.
//!
//! The load-bearing identity: the `QueryResult` path records each query's
//! result payload (the sum of its tuple image lengths), which is
//! packing-independent — so traced byte totals are directly comparable to
//! the sequential oracle's relation sizes.

use std::sync::Arc;

use df_host::{run_host_queries, HostParams};
use df_obs::{EventKind, Path, Tracer};
use df_query::{execute_readonly, ExecParams, QueryTree};
use df_relalg::{Catalog, Relation};
use df_sim::rng::SimRng;
use df_workload::{benchmark_queries, generate_database, random_query, BenchmarkSpec};
use proptest::prelude::*;

fn setup(scale: f64) -> (Catalog, Vec<QueryTree>, i64) {
    let spec = BenchmarkSpec::scaled(scale);
    let db = generate_database(&spec.database);
    let queries = benchmark_queries(&db, &spec).expect("benchmark queries build");
    (db, queries, spec.cutoff())
}

/// Payload bytes of a relation: the packing-independent sum of its tuple
/// image lengths.
fn payload_bytes(rel: &Relation) -> u64 {
    rel.tuple_refs().map(|t| t.raw().len() as u64).sum()
}

fn traced_params(workers: usize) -> (HostParams, Arc<Tracer>) {
    let tracer = Arc::new(Tracer::new(Tracer::DEFAULT_CAPACITY));
    let params = HostParams {
        trace: Some(Arc::clone(&tracer)),
        ..HostParams::with_workers(workers)
    };
    (params, tracer)
}

/// Traced `QueryResult` bytes equal the oracle's relation payload sizes —
/// per query (via `QueryStats::result_payload_bytes`) and in total (via
/// the tracer's exact path counter) — across all ten benchmark queries.
#[test]
fn traced_result_bytes_equal_oracle_payload_for_all_ten_queries() {
    let (db, queries, _) = setup(0.01);
    let (params, tracer) = traced_params(4);
    let out = run_host_queries(&db, &queries, &params).expect("host executes");

    let mut oracle_total = 0u64;
    for (i, (query, stats)) in queries.iter().zip(&out.metrics.per_query).enumerate() {
        let want = execute_readonly(&db, query, &ExecParams::default()).expect("oracle");
        let want_bytes = payload_bytes(&want);
        assert_eq!(
            stats.result_payload_bytes, want_bytes,
            "query {i}: traced payload vs oracle"
        );
        oracle_total += want_bytes;
    }
    let snap = tracer.snapshot();
    assert_eq!(
        snap.bytes(Path::QueryResult),
        oracle_total,
        "QueryResult path total vs oracle payload sum"
    );
    assert_eq!(
        snap.transfers(Path::QueryResult),
        queries.len() as u64,
        "one QueryResult transfer per query"
    );
}

/// Units served by helper threads — every entry but the caller's, 0.
fn helper_units(metrics: &df_host::HostMetrics) -> usize {
    metrics.per_worker[1..].iter().map(|w| w.units).sum()
}

/// Whether the two-worker calls below spawn a helper when above the size
/// test: the caller spawns min(workers, CPUs) − 1, and an idle helper is
/// offered a run first.
fn two_workers_cross_threads() -> bool {
    std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2
}

/// The tracer's distribution/arbitration byte totals equal the worker
/// stats' own accounting, and the event stream is internally consistent:
/// every dispatched unit has a kernel span, every span's class matches the
/// probe/sweep unit counts, every query is admitted and concluded.
#[test]
fn event_stream_is_conserved_against_metrics() {
    // Scale 0.01 is below the 128-page size test: the caller serves
    // every unit itself.
    let m = event_stream_is_conserved(0.01);
    assert_eq!(helper_units(&m), 0);
}

/// The same identities when runs cross threads (scale 0.05 is above the
/// size test; helpers serve on two or more CPUs): the
/// unit stays the atom of the event stream however many of them one run
/// carries.
#[test]
fn event_stream_is_conserved_when_runs_cross_threads() {
    let m = event_stream_is_conserved(0.05);
    assert_eq!(helper_units(&m) > 0, two_workers_cross_threads());
    assert!(
        m.total_runs() < m.total_units(),
        "{} runs for {} units",
        m.total_runs(),
        m.total_units()
    );
}

fn event_stream_is_conserved(scale: f64) -> df_host::HostMetrics {
    let (db, queries, _) = setup(scale);
    let (params, tracer) = traced_params(2);
    let out = run_host_queries(&db, &queries, &params).expect("host executes");
    let m = &out.metrics;
    let snap = tracer.snapshot();
    assert_eq!(
        snap.dropped, 0,
        "ring must hold the whole run at this scale"
    );

    let bytes_in: u64 = m.per_worker.iter().map(|w| w.bytes_in).sum();
    let bytes_out: u64 = m.per_worker.iter().map(|w| w.bytes_out).sum();
    assert_eq!(snap.bytes(Path::Distribution), bytes_in);
    assert_eq!(snap.bytes(Path::Arbitration), bytes_out);

    let units = m.total_units();
    assert_eq!(snap.of_kind(EventKind::UnitDispatch).count(), units);
    // Kernel spans are counted per *logical operator*: in materialize mode
    // (the default here) every unit runs exactly one, so all three agree.
    assert_eq!(m.total_kernel_spans(), units);
    assert_eq!(
        snap.of_kind(EventKind::KernelStart).count(),
        m.total_kernel_spans()
    );
    assert_eq!(
        snap.of_kind(EventKind::KernelEnd).count(),
        m.total_kernel_spans()
    );

    // KernelEnd carries the unit class in `a`: 0 other, 1 probe, 2 sweep.
    let class = |c: u64| {
        snap.of_kind(EventKind::KernelEnd)
            .filter(|e| e.a == c)
            .count()
    };
    let probes: usize = m.per_query.iter().map(|q| q.probe_units).sum();
    let sweeps: usize = m.per_query.iter().map(|q| q.sweep_units).sum();
    assert_eq!(class(1), probes, "probe spans vs probe units");
    assert_eq!(class(2), sweeps, "sweep spans vs sweep units");

    assert_eq!(snap.of_kind(EventKind::QueryAdmit).count(), queries.len());
    let done: Vec<_> = snap.of_kind(EventKind::QueryDone).collect();
    assert_eq!(done.len(), queries.len());
    assert!(done.iter().all(|e| e.a == 0), "no query failed");

    // Units fired per the cell-fire events (`b` = units created by the
    // arrival) equal the units dispatched.
    let fired: u64 = snap.of_kind(EventKind::CellFire).map(|e| e.b).sum();
    assert_eq!(fired as usize, units, "cell fires vs dispatches");
    out.metrics
}

/// Pipeline mode dispatches a fused restrict→project chain as ONE unit but
/// must still account one kernel span per logical operator: the traced
/// `KernelStart`/`KernelEnd` counts equal the workers' `kernel_spans`
/// total, which strictly exceeds the unit count (some chain fused), while
/// the distribution/arbitration byte identities keep holding.
#[test]
fn pipeline_span_units_conserve_per_operator_kernel_spans() {
    use df_query::TransferMode;
    use df_workload::pipeline_queries;
    let spec = BenchmarkSpec::scaled(0.01);
    let db = generate_database(&spec.database);
    let queries = pipeline_queries(&db, &spec).expect("pipeline suite builds");
    let tracer = Arc::new(Tracer::new(Tracer::DEFAULT_CAPACITY));
    let params = HostParams {
        transfer: TransferMode::Pipeline,
        trace: Some(Arc::clone(&tracer)),
        ..HostParams::with_workers(2)
    };
    let out = run_host_queries(&db, &queries, &params).expect("host executes");
    let m = &out.metrics;
    let snap = tracer.snapshot();
    assert_eq!(snap.dropped, 0, "ring must hold the whole run");

    let units = m.total_units();
    let spans = m.total_kernel_spans();
    assert_eq!(snap.of_kind(EventKind::UnitDispatch).count(), units);
    assert_eq!(snap.of_kind(EventKind::KernelStart).count(), spans);
    assert_eq!(snap.of_kind(EventKind::KernelEnd).count(), spans);
    assert!(
        spans > units,
        "the pipeline suite has restrict→project chains, so fused units \
         must carry more logical spans ({spans}) than units ({units})"
    );

    let bytes_in: u64 = m.per_worker.iter().map(|w| w.bytes_in).sum();
    let bytes_out: u64 = m.per_worker.iter().map(|w| w.bytes_out).sum();
    assert_eq!(snap.bytes(Path::Distribution), bytes_in);
    assert_eq!(snap.bytes(Path::Arbitration), bytes_out);
}

/// Installing a tracer must not change results: deterministic-mode page
/// images are byte-identical with tracing on, off (`set_enabled(false)`),
/// and absent (`trace: None`).
#[test]
fn tracing_leaves_results_byte_identical() {
    let (db, queries, _) = setup(0.01);
    let images = |trace: Option<Arc<Tracer>>| -> Vec<Vec<Vec<u8>>> {
        let params = HostParams {
            deterministic: true,
            trace,
            ..HostParams::with_workers(4)
        };
        run_host_queries(&db, &queries, &params)
            .expect("host executes")
            .results
            .iter()
            .map(|r| {
                let r = r.as_ref().expect("query succeeds");
                r.pages().iter().map(|p| p.raw_data().to_vec()).collect()
            })
            .collect()
    };
    let untraced = images(None);
    let traced = images(Some(Arc::new(Tracer::new(4096))));
    assert_eq!(untraced, traced, "tracing changed result bytes");

    let disabled_tracer = Arc::new(Tracer::new(4096));
    disabled_tracer.set_enabled(false);
    let disabled = images(Some(Arc::clone(&disabled_tracer)));
    assert_eq!(untraced, disabled, "disabled tracer changed result bytes");
    assert!(
        disabled_tracer.snapshot().events.is_empty(),
        "disabled tracer must record nothing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random join-chain trees: the traced `QueryResult` byte total always
    /// equals the sequential oracle's relation payload, at any worker
    /// count and tracer capacity (byte counters are exact even when the
    /// tiny event ring wraps).
    #[test]
    fn traced_payload_matches_oracle_on_random_chains(
        seed in 0u64..1_000,
        workers in 1usize..5,
        capacity in prop_oneof![Just(8usize), Just(64 * 1024)],
    ) {
        let (db, _, cutoff) = setup(0.01);
        let mut rng = SimRng::new(seed);
        let query = random_query(&db, 5, 3, cutoff, &mut rng).expect("query builds");
        let want = execute_readonly(&db, &query, &ExecParams::default()).expect("oracle");

        let tracer = Arc::new(Tracer::new(capacity));
        let params = HostParams {
            trace: Some(Arc::clone(&tracer)),
            ..HostParams::with_workers(workers)
        };
        let out = run_host_queries(&db, std::slice::from_ref(&query), &params)
            .expect("host executes");
        let got = out.results[0].as_ref().expect("query succeeds");
        prop_assert!(got.same_contents(&want), "seed {} diverged", seed);

        let snap = tracer.snapshot();
        prop_assert_eq!(
            snap.bytes(Path::QueryResult),
            payload_bytes(&want),
            "seed {}: traced payload vs oracle", seed
        );
        prop_assert_eq!(
            out.metrics.per_query[0].result_payload_bytes,
            payload_bytes(got)
        );
    }
}
