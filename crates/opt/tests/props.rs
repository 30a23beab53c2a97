//! Property tests: the optimizer preserves semantics on random query
//! shapes, and optimizing the naive form recovers the hand-optimized form's
//! behaviour.

use df_opt::{optimize, CatalogStats};
use df_query::{execute_readonly, ExecParams};
use df_sim::rng::SimRng;
use df_workload::{
    chain_query, chain_query_naive, generate_database, random_query, DatabaseSpec, VAL_DOMAIN,
};
use proptest::prelude::*;

fn setup() -> (df_relalg::Catalog, CatalogStats) {
    let db = generate_database(&DatabaseSpec::scaled(0.01));
    let stats = CatalogStats::gather(&db);
    (db, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// optimize ∘ oracle ≡ oracle for random chain queries.
    #[test]
    fn optimizer_preserves_random_queries(seed in 0u64..10_000) {
        let (db, stats) = setup();
        let mut rng = SimRng::new(seed);
        let q = random_query(&db, 15, 3, 450, &mut rng).unwrap();
        let optimized = optimize(&db, &q, &stats).unwrap();
        let a = execute_readonly(&db, &q, &ExecParams::default()).unwrap();
        let b = execute_readonly(&db, &optimized.tree, &ExecParams::default()).unwrap();
        prop_assert!(a.same_contents(&b), "seed {seed}: {:?}", optimized.applied);
    }

    /// Naive (restricts-on-top) and hand-optimized (restricts-at-leaves)
    /// trees agree, and optimizing the naive one pushes every restrict
    /// down to a leaf position.
    #[test]
    fn optimizing_naive_chains_recovers_pushdown(
        start in 0usize..15,
        njoins in 1usize..4,
        restricts in 1usize..3,
        cutoff in 100i64..900,
    ) {
        let (db, stats) = setup();
        let restricts = restricts.min(njoins + 1);
        let naive = chain_query_naive(&db, 15, start, njoins, restricts, cutoff).unwrap();
        let hand = chain_query(&db, 15, start, njoins, restricts, cutoff).unwrap();
        let optimized = optimize(&db, &naive, &stats).unwrap();

        let a = execute_readonly(&db, &naive, &ExecParams::default()).unwrap();
        let b = execute_readonly(&db, &hand, &ExecParams::default()).unwrap();
        let c = execute_readonly(&db, &optimized.tree, &ExecParams::default()).unwrap();
        prop_assert!(a.same_contents(&b), "naive != hand-optimized");
        prop_assert!(a.same_contents(&c), "optimizer broke the naive tree");

        // Every restrict in the optimized tree sits directly on a scan.
        let parents_ok = optimized
            .tree
            .topo_order()
            .filter(|&id| optimized.tree.node(id).op.name() == "restrict")
            .all(|id| {
                let child = optimized.tree.node(id).children[0];
                optimized.tree.node(child).op.name() == "scan"
            });
        prop_assert!(
            parents_ok,
            "restricts not fully pushed: {:?}",
            optimized.applied
        );
        prop_assert!(optimized.applied.iter().any(|r| r == "pushdown-through-join"));
    }

    /// VAL_DOMAIN-edge cutoffs (empty / full selections) don't break rules.
    #[test]
    fn edge_selectivities_survive(
        cutoff in prop_oneof![Just(0i64), Just(VAL_DOMAIN), Just(i64::MIN), Just(i64::MAX)]
    ) {
        let (db, stats) = setup();
        let naive = chain_query_naive(&db, 15, 2, 2, 3, cutoff).unwrap();
        let optimized = optimize(&db, &naive, &stats).unwrap();
        let a = execute_readonly(&db, &naive, &ExecParams::default()).unwrap();
        let b = execute_readonly(&db, &optimized.tree, &ExecParams::default()).unwrap();
        prop_assert!(a.same_contents(&b));
    }
}
