//! The central correctness property of the reproduction: for every query,
//! at every operand granularity, under every allocation strategy, the
//! simulated data-flow machine produces exactly the tuples the uniprocessor
//! oracle produces (as multisets — the machines interleave work).

use df_core::{run_queries, run_query, AllocationStrategy, Granularity, MachineParams};
use df_query::oracle::{eval_read_nodes, merge_join_relations};
use df_query::{execute_readonly, parse_query, ExecParams, Op};
use df_relalg::{Catalog, Relation};
use df_sim::rng::SimRng;
use df_workload::{benchmark_queries, chain_query, generate_database, random_query, BenchmarkSpec};

fn setup() -> (Catalog, BenchmarkSpec) {
    let spec = BenchmarkSpec::scaled(0.01); // ~55 KB, fast enough for CI
    let db = generate_database(&spec.database);
    (db, spec)
}

fn machine_params() -> MachineParams {
    let mut p = MachineParams::with_processors(6);
    p.cache.frames = 64;
    p
}

#[test]
fn benchmark_queries_match_oracle_at_every_granularity() {
    let (db, spec) = setup();
    let queries = benchmark_queries(&db, &spec).unwrap();
    let oracles: Vec<_> = queries
        .iter()
        .map(|q| execute_readonly(&db, q, &ExecParams::default()).unwrap())
        .collect();
    for granularity in Granularity::ALL {
        for (i, (q, oracle)) in queries.iter().zip(&oracles).enumerate() {
            let (out, _) = run_query(&db, q, &machine_params(), granularity).unwrap();
            assert!(
                out.same_contents(oracle),
                "Q{} at {granularity} granularity: {} tuples vs oracle {}",
                i + 1,
                out.num_tuples(),
                oracle.num_tuples()
            );
        }
    }
}

#[test]
fn whole_benchmark_batch_matches_oracle() {
    let (db, spec) = setup();
    let queries = benchmark_queries(&db, &spec).unwrap();
    let out = run_queries(
        &db,
        &queries,
        &machine_params(),
        Granularity::Page,
        AllocationStrategy::default(),
    )
    .unwrap();
    for (i, (q, rel)) in queries.iter().zip(&out.results).enumerate() {
        let oracle = execute_readonly(&db, q, &ExecParams::default()).unwrap();
        assert!(rel.same_contents(&oracle), "batched Q{} mismatch", i + 1);
    }
    assert_eq!(out.metrics.query_completions.len(), queries.len());
}

#[test]
fn every_allocation_strategy_is_correct() {
    let (db, spec) = setup();
    let q = chain_query(&db, 15, 2, 2, 3, spec.cutoff()).unwrap();
    let oracle = execute_readonly(&db, &q, &ExecParams::default()).unwrap();
    for strategy in AllocationStrategy::ALL {
        let out = run_queries(
            &db,
            std::slice::from_ref(&q),
            &machine_params(),
            Granularity::Page,
            strategy,
        )
        .unwrap();
        assert!(
            out.results[0].same_contents(&oracle),
            "strategy {strategy} produced wrong results"
        );
    }
}

#[test]
fn random_queries_match_oracle() {
    let (db, spec) = setup();
    let mut rng = SimRng::new(0xbeef);
    for trial in 0..15 {
        let q = random_query(&db, 15, 3, spec.cutoff(), &mut rng).unwrap();
        let oracle = execute_readonly(&db, &q, &ExecParams::default()).unwrap();
        for granularity in [Granularity::Page, Granularity::Relation] {
            let (out, _) = run_query(&db, &q, &machine_params(), granularity).unwrap();
            assert!(
                out.same_contents(&oracle),
                "trial {trial} at {granularity} granularity"
            );
        }
    }
}

#[test]
fn oracle_join_algorithms_agree_with_machine() {
    let (db, spec) = setup();
    let q = chain_query(&db, 15, 4, 1, 2, spec.cutoff()).unwrap();
    // The oracle joins by nested loops; sort-merge the chain's join from
    // the same inputs and compare.
    let nodes = eval_read_nodes(&db, &q, &ExecParams::default()).unwrap();
    let mut joins = 0;
    for id in q.topo_order() {
        let node = q.node(id);
        let Op::Join { condition } = &node.op else {
            continue;
        };
        let [outer, inner] = [0, 1].map(|i| &nodes[node.children[i].0]);
        let merged = merge_join_relations(outer, inner, condition).unwrap();
        let nested = &nodes[id.0];
        let merged = Relation::from_tuples("m", nested.schema().clone(), 4096, merged).unwrap();
        assert!(nested.same_contents(&merged), "join {id}");
        joins += 1;
    }
    assert_eq!(joins, 1);
    let nl = nodes.last().unwrap();
    let (machine, _) = run_query(&db, &q, &machine_params(), Granularity::Page).unwrap();
    assert!(machine.same_contents(nl));
}

#[test]
fn non_standard_page_sizes_are_correct() {
    let (db, spec) = setup();
    let q = chain_query(&db, 15, 1, 1, 2, spec.cutoff()).unwrap();
    let oracle = execute_readonly(&db, &q, &ExecParams::default()).unwrap();
    for page_size in [216usize, 516, 2016, 4016] {
        let mut p = machine_params();
        p.page_size = page_size;
        let out = run_queries(
            &db,
            std::slice::from_ref(&q),
            &p,
            Granularity::Page,
            AllocationStrategy::default(),
        )
        .unwrap();
        assert!(
            out.results[0].same_contents(&oracle),
            "page size {page_size} broke the pipeline"
        );
    }
}

#[test]
fn updates_agree_between_machine_and_oracle() {
    let (db, _) = setup();
    // Delete via the machine.
    let mut db_machine = db.clone();
    let tree = parse_query(&db, "(delete r03 (< val 250))").unwrap();
    let mut out = run_queries(
        &db_machine,
        std::slice::from_ref(&tree),
        &machine_params(),
        Granularity::Page,
        AllocationStrategy::default(),
    )
    .unwrap();
    out.apply_updates(&mut db_machine).unwrap();
    // Delete via the oracle.
    let mut db_oracle = db.clone();
    df_query::execute(&mut db_oracle, &tree, &ExecParams::default()).unwrap();
    assert!(db_machine
        .get("r03")
        .unwrap()
        .same_contents(db_oracle.get("r03").unwrap()));
}
