//! Differential tests: the real-threads executor must produce exactly the
//! oracle's tuple multiset for every worker count — parallelism may reorder
//! pages, never change the answer.

use df_host::{run_host_queries, run_host_query, HostMetrics, HostParams};
use df_query::{execute_readonly, ExecParams, QueryTree};
use df_relalg::Catalog;
use df_sim::rng::SimRng;
use df_workload::{benchmark_queries, generate_database, random_query, BenchmarkSpec};
use proptest::prelude::*;

fn setup(scale: f64) -> (Catalog, Vec<QueryTree>, i64) {
    let spec = BenchmarkSpec::scaled(scale);
    let db = generate_database(&spec.database);
    let queries = benchmark_queries(&db, &spec).expect("benchmark queries build");
    (db, queries, spec.cutoff())
}

/// CPUs this thread may run on: what the executor sizes its helpers by.
fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Units served by helper threads — every entry but the caller's, 0.
fn helper_units(metrics: &HostMetrics) -> usize {
    metrics.per_worker[1..].iter().map(|w| w.units).sum()
}

/// The path rule under an inert fault plan: the caller is processor 0 and
/// spawns min(workers, CPUs) − 1 helpers, none for a call of at most 128
/// operand pages (`small`), and an idle helper is offered a run before the
/// caller serves one. So helpers serve units exactly when the call is above
/// the size test, fires any unit, has two or more workers and may run on
/// two or more CPUs; otherwise the caller serves them all.
fn helpers_serve(workers: usize, small: bool, metrics: &HostMetrics) -> bool {
    !small && workers >= 2 && cpus() >= 2 && metrics.total_units() > 0
}

fn worker_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut counts = vec![1, 2, cores];
    counts.dedup();
    counts
}

/// All ten benchmark queries, at 1, 2 and `available_parallelism` workers,
/// tuple-set-identical to the sequential oracle.
#[test]
fn ten_queries_match_oracle_at_all_worker_counts() {
    let (db, queries, _) = setup(0.01);
    let oracle_params = ExecParams::default();
    let oracles: Vec<_> = queries
        .iter()
        .map(|q| execute_readonly(&db, q, &oracle_params).expect("oracle executes"))
        .collect();

    for workers in worker_counts() {
        let params = HostParams::with_workers(workers);
        let out = run_host_queries(&db, &queries, &params).expect("host executes");
        assert_eq!(out.results.len(), queries.len());
        for (i, (got, want)) in out.results.iter().zip(&oracles).enumerate() {
            let got = got.as_ref().expect("query succeeds");
            assert!(
                got.same_contents(want),
                "query {i} diverged from oracle at {workers} workers: {} tuples vs {}",
                got.num_tuples(),
                want.num_tuples(),
            );
        }
        assert_eq!(out.metrics.per_worker.len(), workers);
    }
}

/// Sorted tuple images of the oracle's answer — what deterministic mode
/// serves, tuple for tuple.
fn sorted_oracle_images(db: &Catalog, query: &QueryTree) -> Vec<Vec<u8>> {
    let rel = execute_readonly(db, query, &ExecParams::default()).expect("oracle executes");
    let mut images: Vec<Vec<u8>> = rel.tuple_refs().map(|t| t.raw().to_vec()).collect();
    images.sort_unstable();
    images
}

fn tuple_images(rel: &df_relalg::Relation) -> Vec<Vec<u8>> {
    rel.tuple_refs().map(|t| t.raw().to_vec()).collect()
}

fn page_images(rel: &df_relalg::Relation) -> Vec<Vec<u8>> {
    rel.pages().iter().map(|p| p.raw_data().to_vec()).collect()
}

/// One scheduler and one kernel path, whether helper threads serve or the
/// caller serves alone. The ten queries at a scale on each side of the
/// size test, at every worker count: deterministic-mode results equal the
/// oracle tuple for tuple and each other page for page, and helpers serve
/// units exactly as [`helpers_serve`] says.
#[test]
fn ten_queries_agree_on_both_sides_of_the_size_test() {
    for (scale, small) in [(0.005, true), (0.05, false)] {
        let (db, queries, _) = setup(scale);
        let want: Vec<_> = queries
            .iter()
            .map(|q| sorted_oracle_images(&db, q))
            .collect();
        let mut first: Option<Vec<Vec<Vec<u8>>>> = None;
        for workers in worker_counts() {
            let params = HostParams {
                deterministic: true,
                ..HostParams::with_workers(workers)
            };
            let out = run_host_queries(&db, &queries, &params).expect("host executes");
            let at = format!("scale {scale}, {workers} workers");
            assert_eq!(
                helper_units(&out.metrics) > 0,
                helpers_serve(workers, small, &out.metrics),
                "{at}: {} units on helpers on {} CPUs",
                helper_units(&out.metrics),
                cpus()
            );
            assert_eq!(out.metrics.per_worker.len(), workers, "{at}");
            let fired: usize = out.metrics.per_query.iter().map(|q| q.units_fired).sum();
            assert_eq!(fired, out.metrics.total_units(), "{at}");
            let rels: Vec<_> = out
                .results
                .iter()
                .map(|r| r.as_ref().expect("query succeeds"))
                .collect();
            for (i, (rel, want)) in rels.iter().zip(&want).enumerate() {
                assert_eq!(&tuple_images(rel), want, "{at}: query {i} vs oracle");
            }
            let pages: Vec<_> = rels.iter().map(|r| page_images(r)).collect();
            match &first {
                None => first = Some(pages),
                Some(first) => assert_eq!(&pages, first, "{at}: page images diverged"),
            }
        }
    }
}

/// A run writes into one output buffer, so its output leaves as full
/// pages: a restrict at selectivity 0.5 over N pages returns at most one
/// partial page per run, whichever processor served it — not one per
/// operand page.
#[test]
fn a_runs_output_leaves_as_full_pages() {
    use df_query::TreeBuilder;
    use df_relalg::{CmpOp, Value};
    for (scale, workers) in [(0.01, 2), (0.3, 1), (0.3, 2)] {
        let (db, _, cutoff) = setup(scale);
        let query = TreeBuilder::new(&db)
            .scan("r00")
            .unwrap()
            .restrict_where("val", CmpOp::Lt, Value::Int(cutoff))
            .unwrap()
            .finish();
        let operand_pages = db.require("r00").unwrap().pages().len();
        let (rel, metrics) =
            run_host_query(&db, &query, &HostParams::with_workers(workers)).expect("host");
        assert_eq!(metrics.total_units(), operand_pages, "one unit per page");
        let partial = rel.pages().iter().filter(|p| !p.is_full()).count();
        let runs = metrics.total_runs().max(1);
        assert!(
            partial <= runs,
            "scale {scale}, {workers} workers: {partial} partial pages from {runs} runs \
             over {operand_pages} operand pages"
        );
        assert!(
            runs < operand_pages,
            "scale {scale}, {workers} workers: {runs} runs for {operand_pages} units"
        );
    }
}

/// Concurrent admission of the whole batch (single `run_host_queries` call
/// admits all ten at once — the benchmark is read-only, so every query
/// holds shared locks concurrently) still matches per-query runs.
#[test]
fn batch_metrics_are_consistent() {
    let (db, queries, _) = setup(0.01);
    let params = HostParams::with_workers(4);
    let out = run_host_queries(&db, &queries, &params).expect("host executes");

    assert_eq!(out.metrics.per_query.len(), queries.len());
    let fired: usize = out.metrics.per_query.iter().map(|q| q.units_fired).sum();
    assert_eq!(
        fired,
        out.metrics.total_units(),
        "scheduler and worker unit counts agree"
    );
    for (i, (q, rel)) in out.metrics.per_query.iter().zip(&out.results).enumerate() {
        let rel = rel.as_ref().expect("query succeeds");
        assert_eq!(
            q.result_tuples,
            rel.num_tuples(),
            "query {i} result accounting"
        );
        assert!(q.elapsed <= out.metrics.elapsed);
    }
    assert!(out.metrics.total_bytes() > 0);
}

/// Deterministic mode: repeated runs are byte-identical page-for-page, not
/// just multiset-equal, regardless of interleaving.
#[test]
fn deterministic_mode_repeated_runs_agree_exactly() {
    let (db, queries, _) = setup(0.01);
    let params = HostParams {
        deterministic: true,
        ..HostParams::with_workers(4)
    };
    let images = |queries: &[QueryTree]| -> Vec<Vec<Vec<u8>>> {
        run_host_queries(&db, queries, &params)
            .expect("host executes")
            .results
            .iter()
            .map(|r| {
                let r = r.as_ref().expect("query succeeds");
                r.pages().iter().map(|p| p.raw_data().to_vec()).collect()
            })
            .collect()
    };
    let first = images(&queries);
    for _ in 0..3 {
        assert_eq!(images(&queries), first, "deterministic runs diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random join-chain trees at random worker counts always match the
    /// oracle.
    #[test]
    fn random_chain_queries_match_oracle(seed in 0u64..1_000, workers in 1usize..5) {
        let (db, _, cutoff) = setup(0.01);
        let mut rng = SimRng::new(seed);
        let query = random_query(&db, 5, 3, cutoff, &mut rng).expect("query builds");
        let params = HostParams::with_workers(workers);

        let want = execute_readonly(&db, &query, &ExecParams::default()).expect("oracle");
        let (got, metrics) = run_host_query(&db, &query, &params).expect("host");
        prop_assert!(
            got.same_contents(&want),
            "seed {} diverged: {} tuples vs {}", seed, got.num_tuples(), want.num_tuples()
        );
        prop_assert_eq!(metrics.per_worker.len(), workers);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random join chains on both sides of the size test: at scale 0.005
    /// the whole database is ~30 pages, so the caller serves every chain
    /// alone; at 0.4 the smallest of the five relations alone exceeds the
    /// 128-page bound. Either way the deterministic result equals the
    /// oracle tuple for tuple, and helpers serve units exactly as
    /// [`helpers_serve`] says.
    #[test]
    fn random_chains_agree_on_both_sides_of_the_size_test(
        seed in 0u64..1_000,
        workers in 1usize..5,
    ) {
        for (scale, small) in [(0.005, true), (0.4, false)] {
            let (db, _, cutoff) = setup(scale);
            let mut rng = SimRng::new(seed);
            let query = random_query(&db, 5, 3, cutoff, &mut rng).expect("query builds");
            let params = HostParams {
                deterministic: true,
                ..HostParams::with_workers(workers)
            };
            let (got, metrics) = run_host_query(&db, &query, &params).expect("host");
            prop_assert_eq!(
                tuple_images(&got),
                sorted_oracle_images(&db, &query),
                "seed {} diverged at scale {}", seed, scale
            );
            // A scan-only chain fires no unit at all.
            prop_assert_eq!(
                helper_units(&metrics) > 0,
                helpers_serve(workers, small, &metrics),
                "seed {} at scale {}: {} of {} units on helpers",
                seed, scale, helper_units(&metrics), metrics.total_units()
            );
        }
    }
}

/// Hash-accelerated equi-joins: every benchmark query's result is
/// byte-identical (deterministic mode) to the nested-loops run, and the
/// equi-join queries actually take the probe path — served by the caller
/// alone at scale 0.01, below the size test, and at 0.05, where with two
/// or more CPUs helper threads read one side's key index while the
/// scheduler extends it on the calling thread.
#[test]
fn hash_join_matches_nested_byte_for_byte_on_all_ten_queries() {
    use df_query::JoinAlgo;
    for (scale, workers) in [(0.01, &[4][..]), (0.05, &[1, 2, 4])] {
        let (db, queries, _) = setup(scale);
        for &workers in workers {
            let run = |join: JoinAlgo| {
                let params = HostParams {
                    deterministic: true,
                    join,
                    ..HostParams::with_workers(workers)
                };
                run_host_queries(&db, &queries, &params).expect("host executes")
            };
            let nested = run(JoinAlgo::Nested);
            let hashed = run(JoinAlgo::Hash);
            let at = format!("scale {scale}, {workers} workers");
            assert_eq!(
                helper_units(&hashed.metrics) > 0,
                helpers_serve(workers, scale < 0.02, &hashed.metrics),
                "{at} on {} CPUs",
                cpus()
            );
            assert_eq!(
                result_pages(&nested.results),
                result_pages(&hashed.results),
                "{at}: hash join changed some query's result bytes"
            );
            let probes: usize = hashed.metrics.per_query.iter().map(|q| q.probe_units).sum();
            let nested_probes: usize = nested.metrics.per_query.iter().map(|q| q.probe_units).sum();
            assert!(
                probes > 0,
                "{at}: no benchmark equi-join took the probe path"
            );
            assert_eq!(nested_probes, 0, "{at}: nested algorithm must never probe");
            for q in &hashed.metrics.per_query {
                assert!(
                    q.probe_units + q.sweep_units <= q.units_fired,
                    "{at}: pair units exceed total units"
                );
            }
        }
    }
}

/// Each query's result as its pages' raw bytes.
fn result_pages(results: &[df_host::HostResult<df_relalg::Relation>]) -> Vec<Vec<Vec<u8>>> {
    results
        .iter()
        .map(|r| {
            let r = r.as_ref().expect("query succeeds");
            r.pages().iter().map(|p| p.raw_data().to_vec()).collect()
        })
        .collect()
}

/// A duplicate-heavy self-join (`d ⋈ d` on an attribute with eight
/// values): the same pages arrive on both ports, every probe hits long
/// entry lists, and the call (900 operand pages) is above the size test,
/// so with two or more workers and CPUs helper threads serve units. Under hash it is byte-identical to nested and equal to the
/// oracle, with the arriving page as outer and as inner.
#[test]
fn duplicate_heavy_self_join_hash_equals_nested() {
    use df_query::parse_query;
    use df_query::JoinAlgo;
    use df_relalg::{DataType, Relation, Schema, Tuple, Value};

    let schema = Schema::build()
        .attr("k", DataType::Int)
        .attr("v", DataType::Int)
        .finish()
        .unwrap();
    let mut db = Catalog::new();
    let tuples = (0..600i64).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 8)]));
    db.insert(Relation::from_tuples("d", schema, 16 + 16 * 4, tuples).unwrap())
        .unwrap();
    let queries: Vec<QueryTree> = [
        "(join (scan d) (scan d) (= v v))",
        "(join (restrict (scan d) (< k 300)) (scan d) (= v v))",
        "(join (scan d) (restrict (scan d) (>= k 200)) (= v v))",
    ]
    .iter()
    .map(|text| parse_query(&db, text).expect("query parses"))
    .collect();
    let want: Vec<_> = queries
        .iter()
        .map(|q| sorted_oracle_images(&db, q))
        .collect();
    for workers in [1, 2, 4] {
        let run = |join: JoinAlgo| {
            let params = HostParams {
                deterministic: true,
                join,
                ..HostParams::with_workers(workers)
            };
            run_host_queries(&db, &queries, &params).expect("host executes")
        };
        let (nested, hashed) = (run(JoinAlgo::Nested), run(JoinAlgo::Hash));
        assert_eq!(
            helper_units(&hashed.metrics) > 0,
            helpers_serve(workers, false, &hashed.metrics),
            "{workers} workers on {} CPUs",
            cpus()
        );
        assert_eq!(
            result_pages(&nested.results),
            result_pages(&hashed.results),
            "{workers} workers"
        );
        for (i, q) in hashed.metrics.per_query.iter().enumerate() {
            assert!(q.probe_units > 0, "{workers} workers, query {i}: no probe");
            let rel = hashed.results[i].as_ref().expect("query succeeds");
            assert_eq!(tuple_images(rel), want[i], "{workers} workers, query {i}");
        }
    }
}

/// Every θ on `Int` keys, under both join algorithms, with the restricted
/// side as the outer and as the inner operand, in a small call (at two
/// workers) and a larger one (at one and two): each result equals the
/// sorted oracle images, and helpers serve units as [`helpers_serve`]
/// says. Only an equi-join under `Hash` probes a key index; every other
/// join sweeps — the nested ones through the side's key column.
#[test]
fn non_equi_theta_join_under_hash_falls_back_to_sweep() {
    use df_query::JoinAlgo;
    use df_query::TreeBuilder;
    use df_relalg::{CmpOp, DataType, Relation, Schema, Tuple, Value};

    let s = Schema::build()
        .attr("k", DataType::Int)
        .attr("v", DataType::Int)
        .finish()
        .unwrap();
    // 13 operand pages (below the 128-page size test), then 160 (above).
    let sizes: [((i64, i64), &[usize], bool); 2] =
        [((30, 20), &[2], true), ((400, 240), &[1, 2], false)];
    for ((na, nb), workers, small) in sizes {
        let mut db = Catalog::new();
        for (name, n) in [("a", na), ("b", nb)] {
            db.insert(
                Relation::from_tuples(
                    name,
                    s.clone(),
                    16 + 16 * 4,
                    (0..n).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 5)])),
                )
                .unwrap(),
            )
            .unwrap();
        }
        let b = TreeBuilder::new(&db);
        let restricted = || {
            b.scan("a")
                .unwrap()
                .restrict_where("k", CmpOp::Lt, Value::Int(8))
                .unwrap()
        };
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let queries = [
                (
                    "outer",
                    restricted().join_on(b.scan("b").unwrap(), "v", op, "k"),
                ),
                (
                    "inner",
                    b.scan("b").unwrap().join_on(restricted(), "k", op, "v"),
                ),
            ];
            for (restricted_is, q) in queries {
                let q = q.unwrap().finish();
                let want = sorted_oracle_images(&db, &q);
                for (&workers, join) in workers.iter().flat_map(|w| JoinAlgo::ALL.map(|j| (w, j))) {
                    let params = HostParams {
                        join,
                        deterministic: true,
                        ..HostParams::with_workers(workers)
                    };
                    let (got, metrics) = run_host_query(&db, &q, &params).expect("host");
                    let at =
                        format!("{op:?} {join}, restricted {restricted_is}, {workers} workers");
                    let helpers = helpers_serve(workers, small, &metrics);
                    assert_eq!(helper_units(&metrics) > 0, helpers, "{at}");
                    assert_eq!(tuple_images(&got), want, "{at}: diverged from the oracle");
                    let stats = &metrics.per_query[0];
                    let probes = op == CmpOp::Eq && join == JoinAlgo::Hash;
                    assert_eq!(stats.probe_units > 0, probes, "{at}");
                    assert_eq!(stats.sweep_units > 0, !probes, "{at}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hash and nested runs of random join-chain trees are byte-identical
    /// in deterministic mode.
    #[test]
    fn random_chain_queries_hash_equals_nested(seed in 0u64..1_000, workers in 1usize..5) {
        use df_query::JoinAlgo;
        let (db, _, cutoff) = setup(0.01);
        let mut rng = SimRng::new(seed);
        let query = random_query(&db, 5, 3, cutoff, &mut rng).expect("query builds");
        let run = |join: JoinAlgo| -> Vec<Vec<u8>> {
            let params = HostParams {
                deterministic: true,
                join,
                ..HostParams::with_workers(workers)
            };
            let (rel, _) = run_host_query(&db, &query, &params).expect("host");
            rel.pages().iter().map(|p| p.raw_data().to_vec()).collect()
        };
        prop_assert_eq!(run(JoinAlgo::Nested), run(JoinAlgo::Hash), "seed {} diverged", seed);
    }
}

/// Every operator class the executor can fire, through the one kernel
/// each cell's plan node carries: θ- and equi-joins whose pages arrive as the outer
/// operand (the scan side is delivered at admission, the restrict's output
/// arrives later on port 0) and as the inner (the mirror image), a cross
/// product, the three blocking finalizers and a restrict→project chain —
/// under both transfer modes and both join algorithms, on both sides of
/// the size test, equal to the sorted oracle images tuple for tuple.
#[test]
fn every_operator_class_matches_oracle_in_every_mode() {
    use df_query::parse_query;
    use df_query::{JoinAlgo, TransferMode};

    /// Which pair units a case fires: none, sweeps whatever the knob, or
    /// an equi-join (probes under hash, sweeps under nested).
    #[derive(Clone, Copy)]
    enum Pairs {
        None,
        Sweep,
        Equi,
    }
    let cases = [
        (
            "(join (restrict (scan r13) (< val 600)) (scan r14) (< val val))",
            Pairs::Sweep,
        ),
        (
            "(join (scan r13) (restrict (scan r14) (< val 600)) (< val val))",
            Pairs::Sweep,
        ),
        (
            "(join (restrict (scan r13) (< val 600)) (scan r14) (= fk key))",
            Pairs::Equi,
        ),
        (
            "(join (scan r13) (restrict (scan r14) (< val 600)) (= fk key))",
            Pairs::Equi,
        ),
        (
            "(cross (restrict (scan r11) (< val 400)) (restrict (scan r12) (< val 400)))",
            Pairs::Sweep,
        ),
        (
            "(union (restrict (scan r00) (< val 600)) (restrict (scan r00) (>= val 300)))",
            Pairs::None,
        ),
        (
            "(difference (scan r01) (restrict (scan r01) (< val 500)))",
            Pairs::None,
        ),
        ("(project-distinct (scan r02) (val))", Pairs::None),
        (
            "(project (restrict (scan r03) (< val 500)) (key val))",
            Pairs::None,
        ),
    ];
    for (scale, small) in [(0.005, true), (0.05, false)] {
        let (db, _, _) = setup(scale);
        let queries: Vec<QueryTree> = cases
            .iter()
            .map(|(text, _)| parse_query(&db, text).expect("query parses"))
            .collect();
        let want: Vec<_> = queries
            .iter()
            .map(|q| sorted_oracle_images(&db, q))
            .collect();
        assert!(
            want.iter().all(|images| !images.is_empty()),
            "scale {scale}: a case with an empty answer proves nothing"
        );
        for transfer in TransferMode::ALL {
            for join in JoinAlgo::ALL {
                let params = HostParams {
                    deterministic: true,
                    join,
                    transfer,
                    ..HostParams::with_workers(2)
                };
                let out = run_host_queries(&db, &queries, &params).expect("host executes");
                let at = format!("scale {scale}, {transfer:?}, {join:?}");
                let helpers = helpers_serve(2, small, &out.metrics);
                assert_eq!(helper_units(&out.metrics) > 0, helpers, "{at}");
                for (i, &(text, pairs)) in cases.iter().enumerate() {
                    let rel = out.results[i].as_ref().expect("query succeeds");
                    assert_eq!(tuple_images(rel), want[i], "{at}: {text}");
                    let stats = &out.metrics.per_query[i];
                    let (probes, sweeps) = match (pairs, join) {
                        (Pairs::None, _) => (false, false),
                        (Pairs::Equi, JoinAlgo::Hash) => (true, false),
                        _ => (false, true),
                    };
                    assert_eq!(
                        (stats.probe_units > 0, stats.sweep_units > 0),
                        (probes, sweeps),
                        "{at}: {text}: {} probe, {} sweep units",
                        stats.probe_units,
                        stats.sweep_units
                    );
                }
            }
        }
    }
}
