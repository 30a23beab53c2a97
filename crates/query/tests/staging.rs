//! Differential properties of the raw write path: [`run_plan`] against
//! the oracle's per-node evaluation, and [`stage_write`] + [`apply_write`]
//! against the oracle's [`execute`], over random depth-1..4 append sources
//! (joins, cross products, set operators, dedup) and random deletes on
//! duplicate-heavy catalogs with 3-tuple pages, so page boundaries are
//! everywhere.

use std::sync::Arc;

use df_query::{
    apply_write, execute, oracle, parse_query, run_plan, stage_write, ExecParams, Plan,
};
use df_relalg::{Catalog, DataType, Page, Relation, Schema, Tuple, Value};
use proptest::prelude::*;

const BASES: [&str; 3] = ["b0", "b1", "b2"];
/// Three (key, val) tuples per base page.
const BASE_PAGE: usize = 16 + 16 * 3;

fn base_schema() -> Schema {
    Schema::build()
        .attr("key", DataType::Int)
        .attr("val", DataType::Int)
        .finish()
        .expect("schema")
}

/// Three same-schema bases filled from `rows`, drawing keys and vals from
/// tiny domains so duplicates are the common case.
fn catalog(rows: &[(u8, u8, u8)]) -> Catalog {
    let mut db = Catalog::new();
    for (i, name) in BASES.iter().enumerate() {
        let tuples = rows
            .iter()
            .filter(|(base, _, _)| *base as usize % BASES.len() == i)
            .map(|&(_, k, v)| {
                Tuple::new(vec![
                    Value::Int(i64::from(k % 6)),
                    Value::Int(i64::from(v % 5)),
                ])
            });
        db.insert(Relation::from_tuples(name, base_schema(), BASE_PAGE, tuples).expect("relation"))
            .expect("insert");
    }
    db
}

/// A deterministic word stream over the drawn entropy (cycled, so deep
/// trees never exhaust it).
struct Words<'a> {
    words: &'a [u64],
    next: usize,
}

impl Words<'_> {
    fn draw(&mut self) -> u64 {
        let w = self.words[self.next % self.words.len()];
        self.next += 1;
        w
    }
}

/// A random tree over the bases that keeps the (key, val) schema at every
/// node, so any subtree can feed a binary operator or an append. A
/// product above two subtrees is deduplicated, which keeps every input
/// small however deep the tree; a product over two scans keeps its bag
/// order, which is what the page-pair sweep order is checked on.
fn gen_tree(w: &mut Words<'_>, depth: usize) -> String {
    if depth == 0 {
        return format!("(scan {})", BASES[w.draw() as usize % BASES.len()]);
    }
    let project = if depth == 1 {
        "project"
    } else {
        "project-distinct"
    };
    match w.draw() % 8 {
        0 => format!(
            "(restrict {} (< val {}))",
            gen_tree(w, depth - 1),
            w.draw() % 5
        ),
        1 => format!(
            "(restrict {} (>= key {}))",
            gen_tree(w, depth - 1),
            w.draw() % 6
        ),
        2 => format!("(project-distinct {} (key val))", gen_tree(w, depth - 1)),
        3 => format!(
            "({project} (join {} {} (= key key)) (key val))",
            gen_tree(w, depth - 1),
            gen_tree(w, depth - 1)
        ),
        4 => format!(
            "({project} (join {} {} (< val key)) (key val))",
            gen_tree(w, depth - 1),
            gen_tree(w, depth - 1)
        ),
        5 => format!(
            "({project} (cross {} {}) (key val))",
            gen_tree(w, depth - 1),
            gen_tree(w, depth - 1)
        ),
        6 => format!(
            "(union {} {})",
            gen_tree(w, depth - 1),
            gen_tree(w, depth - 1)
        ),
        _ => format!(
            "(difference {} {})",
            gen_tree(w, depth - 1),
            gen_tree(w, depth - 1)
        ),
    }
}

/// The (key, val) of one tuple image.
fn key_val(page: &Page, slot: usize) -> (i64, i64) {
    let t = page.tuple_ref(slot).expect("slot");
    match (t.value(0), t.value(1)) {
        (Ok(Value::Int(k)), Ok(Value::Int(v))) => (k, v),
        other => panic!("not a (key, val) image: {other:?}"),
    }
}

/// A random delete on `target` as it stands in `db`: one that removes
/// nothing, everything, every duplicate of one stored image, the key at a
/// page boundary, or a random range.
fn gen_delete(w: &mut Words<'_>, db: &Catalog, target: &str) -> String {
    let rel = db.get(target).expect("target");
    let pages: Vec<&Arc<Page>> = rel.pages().iter().filter(|p| !p.is_empty()).collect();
    let pick = |w: &mut Words<'_>| {
        let page = pages[w.draw() as usize % pages.len()];
        let slot = if w.draw() % 2 == 0 { 0 } else { page.len() - 1 };
        key_val(page, slot)
    };
    let predicate = match w.draw() % 5 {
        0 => "(> key 100)".to_string(),
        1 => "(>= key 0)".to_string(),
        2 if !pages.is_empty() => {
            let (k, v) = pick(w);
            format!("(and (= key {k}) (= val {v}))")
        }
        3 if !pages.is_empty() => format!("(= key {})", pick(w).0),
        _ => format!("(< val {})", w.draw() % 5),
    };
    format!("(delete {target} {predicate})")
}

fn images(rel: &Relation) -> Vec<Vec<u8>> {
    rel.tuple_refs().map(|t| t.raw().to_vec()).collect()
}

fn sorted(mut images: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    images.sort();
    images
}

/// Whether every base holds the same page images in both catalogs.
fn same_layout(a: &Catalog, b: &Catalog) -> bool {
    BASES.iter().all(|name| {
        let (x, y) = (a.get(name).unwrap().pages(), b.get(name).unwrap().pages());
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.raw_data() == q.raw_data())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sequential scheduler's per-node results equal the oracle's
    /// page for page: same tuples, same order, same page boundaries.
    #[test]
    fn scheduler_nodes_equal_oracle_page_for_page(
        rows in prop::collection::vec((0u8..6, 0u8..6, 0u8..5), 0..30),
        entropy in prop::collection::vec(0u64..u64::MAX, 24),
        depth in 1usize..=4,
        page_tuples in 1usize..5,
    ) {
        let mut w = Words { words: &entropy, next: 0 };
        let text = gen_tree(&mut w, depth);
        let db = catalog(&rows);
        let tree = parse_query(&db, &text).expect("tree parses");
        // Room for `page_tuples` join outputs (four `Int`s) per page.
        let page_size = 16 + 32 * page_tuples;
        let params = ExecParams { page_size };
        let plan = Plan::compile(&db, &tree).expect("plan compiles");
        let got = run_plan(&db, &plan, page_size).expect("scheduler runs");
        let want = oracle::eval_read_nodes(&db, &tree, &params).expect("oracle runs");
        prop_assert_eq!(got, want, "{}", text);
    }

    /// Random writes staged on raw pages against the oracle's decoded
    /// `execute`, write after write. While the served catalog still has
    /// the oracle's page layout, the reply and the target's tuple sequence
    /// are byte-identical; after a raw delete has left partial pages they
    /// are multiset-identical (join order follows page boundaries). A
    /// delete shares every target page it does not touch, and an append
    /// every page but the last.
    #[test]
    fn staged_writes_match_the_oracle(
        rows in prop::collection::vec((0u8..6, 0u8..6, 0u8..5), 3..30),
        entropy in prop::collection::vec(0u64..u64::MAX, 32),
        depth in 1usize..=4,
        num_writes in 1usize..=8,
    ) {
        let mut w = Words { words: &entropy, next: 0 };
        let mut served = catalog(&rows);
        let mut reference = served.clone();
        let params = ExecParams { page_size: 16 + 16 * 2 };
        for i in 0..num_writes {
            let target = BASES[w.draw() as usize % BASES.len()];
            let text = if w.draw() % 2 == 0 {
                format!("(append {} {target})", gen_tree(&mut w, depth))
            } else {
                gen_delete(&mut w, &served, target)
            };
            let packed = same_layout(&served, &reference);
            let tree = parse_query(&served, &text).expect("write parses");
            let before: Vec<Arc<Page>> = served.get(target).unwrap().pages().to_vec();

            let delta = stage_write(&served, &tree, &params).expect("write stages");
            prop_assert_eq!(served.get(target).unwrap().pages(), &before[..], "staging mutated");
            let got = apply_write(&mut served, delta).expect("write applies");
            let want = execute(&mut reference, &tree, &params).expect("oracle runs");
            let (got_target, want_target) =
                (served.get(target).unwrap(), reference.get(target).unwrap());
            if packed {
                prop_assert_eq!(&got, &want, "write {} `{}`", i, text);
                prop_assert_eq!(images(got_target), images(want_target), "write {} `{}`", i, text);
            } else {
                prop_assert_eq!(sorted(images(&got)), sorted(images(&want)), "write {} `{}`", i, text);
                prop_assert_eq!(
                    sorted(images(got_target)),
                    sorted(images(want_target)),
                    "write {} `{}`", i, text
                );
            }

            let after = got_target.pages();
            if text.starts_with("(append") {
                let kept = before.len().saturating_sub(1);
                prop_assert!(after.len() >= kept);
                for (b, a) in before[..kept].iter().zip(after) {
                    prop_assert!(Arc::ptr_eq(b, a), "append rebuilt a full page");
                }
            } else {
                // Each untouched page survives as the same allocation; a
                // touched one becomes its survivors or disappears.
                let deleted = sorted(images(&got));
                let mut at = after.iter();
                for page in &before {
                    let survivors: Vec<Vec<u8>> = page
                        .tuple_refs()
                        .map(|t| t.raw().to_vec())
                        .filter(|img| deleted.binary_search(img).is_err())
                        .collect();
                    if survivors.len() == page.len() {
                        prop_assert!(Arc::ptr_eq(page, at.next().unwrap()), "untouched page copied");
                    } else if !survivors.is_empty() {
                        let replaced = at.next().unwrap();
                        prop_assert!(!Arc::ptr_eq(page, replaced));
                        let kept: Vec<Vec<u8>> =
                            replaced.tuple_refs().map(|t| t.raw().to_vec()).collect();
                        prop_assert_eq!(kept, survivors);
                    }
                }
                prop_assert!(at.next().is_none(), "a delete adds no page");
            }
        }
    }
}
