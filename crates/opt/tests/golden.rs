//! Golden output of the optimizer over a fixed corpus of trees.
//!
//! Every record holds the input tree, the optimized tree, the rules that
//! fired and the estimated root rows of both trees, rendered exactly (no
//! label is cut short). The expected text is `golden_optimizer.txt` next
//! to this file; a refactor of the optimizer must leave it byte-identical.
//! On a mismatch the test writes what it produced to
//! `golden_optimizer.actual.txt` in cargo's test scratch directory, so the
//! two files can be compared with `diff`.

use std::collections::HashSet;
use std::fmt::Write as _;

use df_opt::{estimate, optimize, CatalogStats};
use df_query::{parse_query, render_tree, validate, Op, QueryTree, TreeBuilder};
use df_relalg::{Catalog, Predicate};
use df_sim::rng::SimRng;
use df_workload::{
    benchmark_queries, chain_query_naive, generate_database, random_query, BenchmarkSpec,
    DatabaseSpec,
};

const SCALES: [f64; 2] = [0.01, 0.2];

/// Restricts long enough that `render_tree` cuts their labels: the two
/// texts differ only past that column.
const LONG_RESTRICT: &str = "(restrict (scan r08) (and (> val 10) (and (< val 500) \
     (and (> key 3) (and (> val 11) (< key 900000))))))";
const LONG_RESTRICT_TWIN: &str = "(restrict (scan r08) (and (> val 10) (and (< val 500) \
     (and (> key 3) (and (> val 11) (< key 900001))))))";

/// One hand-written text per rule the parser can reach, plus shapes the
/// cost-based rule decides on.
const TEXTS: [(&str, &str); 14] = [
    (
        "pushdown-through-union",
        "(restrict (union (scan r13) (scan r14)) (< val 500))",
    ),
    (
        "pushdown-through-difference",
        "(restrict (difference (scan r13) (scan r13)) (< val 500))",
    ),
    (
        "pushdown-through-project",
        "(restrict (project (scan r05) (val key)) (< key 40))",
    ),
    (
        "collapse-projections",
        "(project (project (scan r00) (key fk val)) (val key))",
    ),
    (
        "collapse-under-distinct",
        "(project-distinct (project (scan r00) (key fk val)) (fk))",
    ),
    (
        "pushdown-through-cross",
        "(restrict (cross (scan r13) (scan r14)) (and (< val 300) (and (> r_val 200) (< key r_key))))",
    ),
    (
        "double-negation",
        "(restrict (scan r00) (not (not (< val 500))))",
    ),
    (
        "fuse-restricts",
        "(restrict (restrict (scan r00) (< val 800)) (> val 100))",
    ),
    (
        "non-equi-join",
        "(restrict (join (scan r14) (scan r00) (< key val)) (and (> val 100) (< r_val 600)))",
    ),
    (
        "pushdown-through-join",
        "(restrict (join (scan r01) (scan r02) (= fk key)) (and (< val 300) (> r_val 200)))",
    ),
    (
        "mixed-conjunct-stays",
        "(restrict (join (scan r13) (scan r14) (= fk key)) (< key r_key))",
    ),
    ("swap-join-inputs", "(join (scan r14) (scan r00) (= fk key))"),
    ("long-restrict", LONG_RESTRICT),
    ("long-restrict-twin", LONG_RESTRICT_TWIN),
];

/// An exact, diffable rendering: one line per node, indented by depth.
/// Projections list their output attribute names, so a rename shows.
fn exact(db: &Catalog, tree: &QueryTree) -> String {
    let schemas = validate(db, tree).expect("corpus trees validate");
    let mut out = String::new();
    let mut stack = vec![(tree.root(), 0usize)];
    while let Some((id, depth)) = stack.pop() {
        let node = tree.node(id);
        let label = match &node.op {
            Op::Scan { relation } => format!("scan {relation}"),
            Op::Restrict { predicate } => format!("restrict {predicate}"),
            Op::Project { projection, dedup } => {
                let names: Vec<&str> = schemas
                    .schema(id)
                    .attrs()
                    .iter()
                    .map(|a| a.name.as_str())
                    .collect();
                format!(
                    "project{} {:?} as ({})",
                    if *dedup { "-distinct" } else { "" },
                    projection.indices(),
                    names.join(" ")
                )
            }
            Op::Join { condition } => format!(
                "join #{} {} #{}",
                condition.left, condition.op, condition.right
            ),
            Op::Delete { target, predicate } => format!("delete {target} {predicate}"),
            other => format!("{other:?}"),
        };
        let _ = writeln!(out, "  {}{label}", "  ".repeat(depth));
        for &c in node.children.iter().rev() {
            stack.push((c, depth + 1));
        }
    }
    out
}

struct Corpus {
    text: String,
    trees: Vec<QueryTree>,
}

impl Corpus {
    fn record(&mut self, db: &Catalog, stats: &CatalogStats, name: &str, tree: QueryTree) {
        let optimized = optimize(db, &tree, stats).expect("corpus trees optimize");
        let rows = |t: &QueryTree| estimate(db, t, stats).expect("estimates").output_rows(t);
        let _ = write!(
            self.text,
            "## {name}\ninput:\n{}output:\n{}applied: {:?}\nrows: {:?} -> {:?}\n\n",
            exact(db, &tree),
            exact(db, &optimized.tree),
            optimized.applied,
            rows(&tree),
            rows(&optimized.tree),
        );
        self.trees.push(tree);
        self.trees.push(optimized.tree);
    }
}

fn corpus() -> Corpus {
    let mut corpus = Corpus {
        text: String::new(),
        trees: Vec::new(),
    };
    for scale in SCALES {
        let spec = BenchmarkSpec::scaled(scale);
        let db = generate_database(&spec.database);
        let stats = CatalogStats::gather(&db);
        let n = spec.database.relations;

        for (i, q) in benchmark_queries(&db, &spec)
            .unwrap()
            .into_iter()
            .enumerate()
        {
            corpus.record(&db, &stats, &format!("Q{} @ {scale}", i + 1), q);
        }
        for seed in 0..40u64 {
            let mut rng = SimRng::new(seed);
            let q = random_query(&db, n, 3, 450, &mut rng).unwrap();
            corpus.record(&db, &stats, &format!("random seed {seed} @ {scale}"), q);
        }
        for start in [0, 5, 10, 14] {
            for njoins in 1..=3 {
                for restricts in 1..=(njoins + 1).min(3) {
                    for cutoff in [150, 700] {
                        let q =
                            chain_query_naive(&db, n, start, njoins, restricts, cutoff).unwrap();
                        let name = format!(
                            "naive chain start {start} joins {njoins} restricts {restricts} \
                             cutoff {cutoff} @ {scale}"
                        );
                        corpus.record(&db, &stats, &name, q);
                    }
                }
            }
        }
        for (name, text) in TEXTS {
            let q = parse_query(&db, text).unwrap();
            corpus.record(&db, &stats, &format!("{name} @ {scale}"), q);
        }
        let trivial = TreeBuilder::new(&db)
            .scan(&DatabaseSpec::relation_name(3))
            .unwrap()
            .restrict(Predicate::True)
            .unwrap()
            .finish();
        corpus.record(
            &db,
            &stats,
            &format!("drop-trivial-restrict @ {scale}"),
            trivial,
        );
    }
    corpus
}

#[test]
fn optimizer_output_matches_the_golden_file() {
    let corpus = corpus();
    let expected = include_str!("golden_optimizer.txt");
    if corpus.text != expected {
        let actual =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_optimizer.actual.txt");
        std::fs::write(&actual, &corpus.text).expect("write the actual output");
        let line = corpus
            .text
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or_else(
                || "past the shorter file's end".into(),
                |i| format!("{}", i + 1),
            );
        panic!(
            "optimizer output differs from the golden file at line {line}; \
             actual output written to {}",
            actual.display()
        );
    }
}

/// The corpus contains trees `render_tree` cannot tell apart, so a key on
/// it is not injective. df-serve keys run fusion and in-flight joining on
/// the tree's `Debug` form instead: distinct trees give distinct keys.
#[test]
fn distinct_corpus_trees_have_distinct_debug_keys() {
    let corpus = corpus();
    let mut distinct: Vec<&QueryTree> = Vec::new();
    for tree in &corpus.trees {
        if !distinct.contains(&tree) {
            distinct.push(tree);
        }
    }
    let keys: HashSet<String> = distinct.iter().map(|t| format!("{t:?}")).collect();
    assert_eq!(keys.len(), distinct.len());
    let renderings: HashSet<String> = distinct.iter().map(|t| render_tree(t)).collect();
    assert!(
        renderings.len() < distinct.len(),
        "the long-restrict twins should share a rendering"
    );
}
