//! The ten-query benchmark and helpers for building join-chain queries.

use df_query::{QueryTree, TreeBuilder};
use df_relalg::{Catalog, CmpOp, Result, Value};
use df_sim::rng::SimRng;

use crate::dbgen::{parent_of, DatabaseSpec, FK_ATTR, KEY_ATTR, VAL_ATTR, VAL_DOMAIN};

/// Benchmark configuration: the database spec plus restrict selectivity.
#[derive(Debug, Clone)]
pub struct BenchmarkSpec {
    /// The database the queries run against.
    pub database: DatabaseSpec,
    /// Selectivity of every restrict leaf (fraction of tuples kept).
    pub restrict_selectivity: f64,
}

impl BenchmarkSpec {
    /// Full scale, as in the paper's §3.2 experiment.
    pub fn paper() -> BenchmarkSpec {
        BenchmarkSpec {
            database: DatabaseSpec::paper(),
            restrict_selectivity: 0.5,
        }
    }

    /// Scaled down for tests and smoke runs.
    pub fn scaled(factor: f64) -> BenchmarkSpec {
        BenchmarkSpec {
            database: DatabaseSpec::scaled(factor),
            restrict_selectivity: 0.5,
        }
    }

    /// The restrict predicate constant: `val < cutoff`.
    pub fn cutoff(&self) -> i64 {
        (self.restrict_selectivity * VAL_DOMAIN as f64).round() as i64
    }
}

/// Build a left-deep join chain query starting at relation `start`:
///
/// `σ(r_start) ⋈ σ(parent) ⋈ σ(parent²) ⋈ …` with `njoins` joins. Each join
/// is `previous.fk = next.key`. `restricts` of the `njoins + 1` leaves get a
/// `val < cutoff` restrict (left to right); the rest are raw scans — this is
/// how Q9's "4 joins and 4 restricts" (5 leaves, one unrestricted) is built.
pub fn chain_query(
    db: &Catalog,
    n_relations: usize,
    start: usize,
    njoins: usize,
    restricts: usize,
    cutoff: i64,
) -> Result<QueryTree> {
    assert!(
        restricts <= njoins + 1,
        "cannot place {restricts} restricts on {} leaves",
        njoins + 1
    );
    let b = TreeBuilder::new(db);
    let make_leaf = |rel_index: usize, restricted: bool| {
        let name = DatabaseSpec::relation_name(rel_index);
        let scan = b.scan(&name)?;
        if restricted {
            scan.restrict_where(VAL_ATTR, CmpOp::Lt, Value::Int(cutoff))
        } else {
            Ok(scan)
        }
    };

    let mut rel = start;
    let mut tree = make_leaf(rel, restricts >= 1)?;
    // After k joins, the newest relation's fk attribute is "r_"*k + "fk".
    let mut fk_attr = FK_ATTR.to_owned();
    for k in 0..njoins {
        rel = parent_of(rel, n_relations);
        let right = make_leaf(rel, restricts >= k + 2)?;
        tree = tree.join_on(right, &fk_attr, CmpOp::Eq, KEY_ATTR)?;
        fk_attr = format!("r_{fk_attr}");
    }
    Ok(tree.finish())
}

/// Like [`chain_query`], but with every restrict stacked *above* the join
/// chain instead of at the leaves — the un-optimized form a naive host
/// front end would ship. `df-opt`'s pushdown turns one into the other;
/// `experiments abl_opt` measures the difference on the machine.
pub fn chain_query_naive(
    db: &Catalog,
    n_relations: usize,
    start: usize,
    njoins: usize,
    restricts: usize,
    cutoff: i64,
) -> Result<QueryTree> {
    assert!(
        restricts <= njoins + 1,
        "cannot place {restricts} restricts on {} leaves",
        njoins + 1
    );
    let b = TreeBuilder::new(db);
    let mut rel = start;
    let mut tree = b.scan(&DatabaseSpec::relation_name(rel))?;
    let mut fk_attr = FK_ATTR.to_owned();
    // The k-th joined relation's attributes carry k `r_` prefixes.
    let mut val_attrs = vec![VAL_ATTR.to_owned()];
    for _ in 0..njoins {
        rel = parent_of(rel, n_relations);
        let right = b.scan(&DatabaseSpec::relation_name(rel))?;
        tree = tree.join_on(right, &fk_attr, CmpOp::Eq, KEY_ATTR)?;
        fk_attr = format!("r_{fk_attr}");
        val_attrs.push(format!(
            "r_{}",
            val_attrs.last().expect("non-empty").clone()
        ));
    }
    // Stack the restricts on top, leftmost leaves first.
    for attr in val_attrs.iter().take(restricts) {
        tree = tree.restrict_where(attr, CmpOp::Lt, Value::Int(cutoff))?;
    }
    Ok(tree.finish())
}

/// The paper's ten-query benchmark (§3.2):
///
/// | queries | joins | restricts |
/// |---------|-------|-----------|
/// | 2       | 0     | 1         |
/// | 3       | 1     | 2         |
/// | 2       | 2     | 3         |
/// | 1       | 3     | 4         |
/// | 1       | 4     | 4         |
/// | 1       | 5     | 6         |
///
/// Starting relations are spread over the database so the queries touch
/// different (overlapping) relation subsets, as a multi-user benchmark
/// would.
pub fn benchmark_queries(db: &Catalog, spec: &BenchmarkSpec) -> Result<Vec<QueryTree>> {
    let n = spec.database.relations;
    let cutoff = spec.cutoff();
    // (start relation, joins, restricts) per query.
    let shapes: [(usize, usize, usize); 10] = [
        (0, 0, 1), // Q1: 1 restrict on the largest relation
        (2, 0, 1), // Q2: 1 restrict
        (1, 1, 2), // Q3: 1 join + 2 restricts
        (3, 1, 2), // Q4
        (5, 1, 2), // Q5
        (2, 2, 3), // Q6: 2 joins + 3 restricts
        (6, 2, 3), // Q7
        (4, 3, 4), // Q8: 3 joins + 4 restricts
        (7, 4, 4), // Q9: 4 joins + 4 restricts (one raw scan leaf)
        (8, 5, 6), // Q10: 5 joins + 6 restricts
    ];
    shapes
        .iter()
        .map(|&(start, joins, restricts)| chain_query(db, n, start, joins, restricts, cutoff))
        .collect()
}

/// Like [`chain_query`], but every restricted leaf projects away the
/// 76-byte `pad` filler right after its restrict, and the root carries a
/// final restrict→project pair — so every query holds maximal
/// restrict→project chains below (and above) its joins. This is the
/// workload the materialize-vs-pipeline shoot-out runs: under
/// `TransferMode::Pipeline` each chain fuses into one span and the
/// intermediate pages (pad bytes included) never cross the network.
pub fn pipeline_chain_query(
    db: &Catalog,
    n_relations: usize,
    start: usize,
    njoins: usize,
    restricts: usize,
    cutoff: i64,
) -> Result<QueryTree> {
    assert!(
        restricts <= njoins + 1,
        "cannot place {restricts} restricts on {} leaves",
        njoins + 1
    );
    let b = TreeBuilder::new(db);
    let make_leaf = |rel_index: usize, restricted: bool| {
        let name = DatabaseSpec::relation_name(rel_index);
        let scan = b.scan(&name)?;
        if restricted {
            // restrict → project: the fusible leaf chain.
            scan.restrict_where(VAL_ATTR, CmpOp::Lt, Value::Int(cutoff))?
                .project(&[KEY_ATTR, FK_ATTR, VAL_ATTR], false)
        } else {
            Ok(scan)
        }
    };

    let mut rel = start;
    let mut tree = make_leaf(rel, restricts >= 1)?;
    let mut fk_attr = FK_ATTR.to_owned();
    let mut top_key = KEY_ATTR.to_owned();
    for k in 0..njoins {
        rel = parent_of(rel, n_relations);
        let right = make_leaf(rel, restricts >= k + 2)?;
        tree = tree.join_on(right, &fk_attr, CmpOp::Eq, KEY_ATTR)?;
        fk_attr = format!("r_{fk_attr}");
        top_key = format!("r_{top_key}");
    }
    // The above-join chain: one more (redundant-at-worst) restrict plus a
    // narrowing project, fusible with the leaf chain when njoins == 0.
    tree = tree
        .restrict_where(VAL_ATTR, CmpOp::Lt, Value::Int(cutoff))?
        .project(&[VAL_ATTR, &top_key], false)?;
    Ok(tree.finish())
}

/// The ten-query benchmark in its pipeline-bearing form: the same §3.2
/// shapes as [`benchmark_queries`], rebuilt with [`pipeline_chain_query`]
/// so every query contains restrict→project chains for span fusion to
/// collapse. Answers are oracle-checked like the plain suite; the byte
/// traffic difference between `TransferMode::Materialize` and
/// `TransferMode::Pipeline` on this suite is the PERF-PIPE experiment.
pub fn pipeline_queries(db: &Catalog, spec: &BenchmarkSpec) -> Result<Vec<QueryTree>> {
    let n = spec.database.relations;
    let cutoff = spec.cutoff();
    let shapes: [(usize, usize, usize); 10] = [
        (0, 0, 1),
        (2, 0, 1),
        (1, 1, 2),
        (3, 1, 2),
        (5, 1, 2),
        (2, 2, 3),
        (6, 2, 3),
        (4, 3, 4),
        (7, 4, 4),
        (8, 5, 6),
    ];
    shapes
        .iter()
        .map(|&(start, joins, restricts)| {
            pipeline_chain_query(db, n, start, joins, restricts, cutoff)
        })
        .collect()
}

/// Exponentially distributed arrival times for an open multi-user stream:
/// `n` arrivals with the given mean inter-arrival gap (seconds), starting
/// at t = 0. Deterministic in `rng`. Pairs with
/// `df_ring::run_ring_queries_at` to measure response time vs offered load
/// (requirement 1's "simultaneous execution of multiple queries from
/// several users").
pub fn poisson_arrivals(n: usize, mean_gap_secs: f64, rng: &mut SimRng) -> Vec<df_sim::SimTime> {
    assert!(mean_gap_secs >= 0.0, "mean gap must be non-negative");
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 {
            // Inverse-CDF exponential draw; u in (0, 1].
            let u = 1.0 - rng.next_f64();
            t += -mean_gap_secs * u.ln();
        }
        out.push(df_sim::SimTime::from_nanos((t * 1e9) as u64));
    }
    out
}

/// A random chain query (for property tests and extra workloads):
/// uniformly picks a start relation, 0..=max_joins joins, and restricts.
pub fn random_query(
    db: &Catalog,
    n_relations: usize,
    max_joins: usize,
    cutoff: i64,
    rng: &mut SimRng,
) -> Result<QueryTree> {
    let start = rng.gen_range(0..n_relations);
    let njoins = rng.gen_range(0..=max_joins);
    let restricts = rng.gen_range(0..=njoins + 1);
    chain_query(db, n_relations, start, njoins, restricts, cutoff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::generate_database;
    use df_query::{execute_readonly, validate, ExecParams};

    fn setup() -> (Catalog, BenchmarkSpec) {
        let spec = BenchmarkSpec::scaled(0.02);
        let db = generate_database(&spec.database);
        (db, spec)
    }

    #[test]
    fn benchmark_has_the_paper_mix() {
        let (db, spec) = setup();
        let queries = benchmark_queries(&db, &spec).unwrap();
        assert_eq!(queries.len(), 10);
        let mix: Vec<(usize, usize)> = queries
            .iter()
            .map(|q| (q.count_op("join"), q.count_op("restrict")))
            .collect();
        assert_eq!(
            mix,
            vec![
                (0, 1),
                (0, 1),
                (1, 2),
                (1, 2),
                (1, 2),
                (2, 3),
                (2, 3),
                (3, 4),
                (4, 4),
                (5, 6)
            ]
        );
    }

    #[test]
    fn all_benchmark_queries_validate_and_execute() {
        let (db, spec) = setup();
        for (i, q) in benchmark_queries(&db, &spec).unwrap().iter().enumerate() {
            validate(&db, q).unwrap_or_else(|e| panic!("Q{} invalid: {e}", i + 1));
            let out = execute_readonly(&db, q, &ExecParams::default())
                .unwrap_or_else(|e| panic!("Q{} failed: {e}", i + 1));
            // At 2% scale, each 0.5-selectivity join step halves the rows, so
            // the deepest chains (Q9, Q10) may legitimately drain to zero;
            // shallow queries must not.
            if q.count_op("join") <= 3 {
                assert!(out.num_tuples() > 0, "Q{} produced an empty result", i + 1);
            }
        }
    }

    #[test]
    fn pipeline_queries_validate_and_carry_fusible_chains() {
        let (db, spec) = setup();
        let queries = pipeline_queries(&db, &spec).unwrap();
        assert_eq!(queries.len(), 10);
        for (i, q) in queries.iter().enumerate() {
            validate(&db, q).unwrap_or_else(|e| panic!("PQ{} invalid: {e}", i + 1));
            execute_readonly(&db, q, &ExecParams::default())
                .unwrap_or_else(|e| panic!("PQ{} failed: {e}", i + 1));
            // Every restricted leaf projects, plus the root pair: each
            // query has at least one project per restrict placement.
            assert!(
                q.count_op("project") >= 2,
                "PQ{} has no fusible chain",
                i + 1
            );
        }
        // Same join mix as the paper suite.
        let joins: Vec<usize> = queries.iter().map(|q| q.count_op("join")).collect();
        assert_eq!(joins, vec![0, 0, 1, 1, 1, 2, 2, 3, 4, 5]);
    }

    #[test]
    fn chain_query_join_fanout_is_bounded() {
        // Unrestricted chain: |A ⋈ parent| == |A| (every fk matches one key).
        let (db, _) = setup();
        let q = chain_query(&db, 15, 0, 1, 0, VAL_DOMAIN).unwrap();
        let out = execute_readonly(&db, &q, &ExecParams::default()).unwrap();
        let a = db.get("r00").unwrap().num_tuples();
        assert_eq!(out.num_tuples(), a);
    }

    #[test]
    fn restrict_selectivity_is_roughly_honoured() {
        let (db, spec) = setup();
        let q = chain_query(&db, 15, 0, 0, 1, spec.cutoff()).unwrap();
        let out = execute_readonly(&db, &q, &ExecParams::default()).unwrap();
        let n = db.get("r00").unwrap().num_tuples() as f64;
        let kept = out.num_tuples() as f64;
        assert!(
            (kept / n - 0.5).abs() < 0.1,
            "selectivity {kept}/{n} far from 0.5"
        );
    }

    #[test]
    fn random_queries_always_validate() {
        let (db, spec) = setup();
        let mut rng = SimRng::new(7);
        for _ in 0..25 {
            let q = random_query(&db, 15, 4, spec.cutoff(), &mut rng).unwrap();
            validate(&db, &q).unwrap();
        }
    }

    #[test]
    fn poisson_arrivals_are_ordered_and_calibrated() {
        let mut rng = SimRng::new(5);
        let arrivals = poisson_arrivals(2000, 0.1, &mut rng);
        assert_eq!(arrivals[0], df_sim::SimTime::ZERO);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap within 10% of the target.
        let total = arrivals.last().unwrap().as_secs_f64();
        let mean = total / (arrivals.len() - 1) as f64;
        assert!((mean - 0.1).abs() < 0.01, "mean gap {mean}");
        // Deterministic.
        let mut rng2 = SimRng::new(5);
        assert_eq!(arrivals, poisson_arrivals(2000, 0.1, &mut rng2));
    }

    #[test]
    fn naive_and_leaf_restricted_chains_agree() {
        let (db, spec) = setup();
        let a = chain_query(&db, 15, 3, 2, 3, spec.cutoff()).unwrap();
        let b = chain_query_naive(&db, 15, 3, 2, 3, spec.cutoff()).unwrap();
        let ra = execute_readonly(&db, &a, &ExecParams::default()).unwrap();
        let rb = execute_readonly(&db, &b, &ExecParams::default()).unwrap();
        assert!(ra.same_contents(&rb));
        // Shape differs: naive restricts sit above the joins.
        assert_eq!(b.node(b.root()).op.name(), "restrict");
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn too_many_restricts_panics() {
        let (db, _) = setup();
        let _ = chain_query(&db, 15, 0, 1, 3, 500);
    }
}
