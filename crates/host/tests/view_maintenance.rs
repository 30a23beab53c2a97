//! Property-based differential tests for incremental view maintenance:
//! for random view trees (depth 1–4, mixing restricts, bag and dedup
//! projections, set-ops and joins) over random duplicate-heavy write batches
//! (appends *and* deletes), the maintained [`StandingView`] must stay
//! **byte-identical** to re-running the defining query from scratch
//! after every single write — never "close", never "same multiset,
//! different order".

use df_host::StandingView;
use df_query::{apply_write, execute_readonly, parse_query, stage_write, ExecParams};
use df_relalg::{Catalog, DataType, Relation, Schema, Tuple, Value};
use proptest::prelude::*;

const PAGE_SIZE: usize = 128;
const BASES: [&str; 3] = ["b0", "b1", "b2"];

fn base_schema() -> Schema {
    Schema::build()
        .attr("key", DataType::Int)
        .attr("val", DataType::Int)
        .finish()
        .expect("schema")
}

/// A catalog of three same-schema bases filled from `rows`, which draws
/// keys and vals from tiny domains so duplicates are the common case.
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
        db.insert(Relation::from_tuples(name, base_schema(), PAGE_SIZE, tuples).expect("relation"))
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

/// A schema-preserving expression over the bases: scans, restricts (one
/// with an `or`, which takes the general predicate path), bag projects
/// and counted set-ops, nested to `depth`. Every node keeps the
/// (key, val) schema, so any two chains can feed a set-op or a join.
fn gen_chain(w: &mut Words<'_>, depth: usize) -> String {
    if depth == 0 {
        return format!("(scan {})", BASES[w.draw() as usize % BASES.len()]);
    }
    match w.draw() % 6 {
        4 => format!("(project {} (key val))", gen_chain(w, depth - 1)),
        5 => format!(
            "(restrict {} (or (< val {}) (= key {})))",
            gen_chain(w, depth - 1),
            w.draw() % 5,
            w.draw() % 6
        ),
        0 => format!("(scan {})", BASES[w.draw() as usize % BASES.len()]),
        1 => format!(
            "(restrict {} (< val {}))",
            gen_chain(w, depth - 1),
            w.draw() % 5
        ),
        2 => format!(
            "(union {} {})",
            gen_chain(w, depth - 1),
            gen_chain(w, depth - 1)
        ),
        _ => format!(
            "(difference {} {})",
            gen_chain(w, depth - 1),
            gen_chain(w, depth - 1)
        ),
    }
}

/// A full view definition: a chain, optionally capped by a join (the
/// retained-state delta path) or a dedup projection (the counted path).
fn gen_view(w: &mut Words<'_>, depth: usize) -> String {
    let body = gen_chain(w, depth.saturating_sub(1));
    match w.draw() % 4 {
        0 => body,
        1 => format!(
            "(join {} {} (= key key))",
            body,
            gen_chain(w, depth.saturating_sub(1))
        ),
        2 => format!("(project-distinct {} (key))", body),
        _ => format!("(project {} (val))", body),
    }
}

/// One write statement against a random base: an append whose source
/// restriction selects several (often duplicate) tuples from another
/// base, or a predicate delete.
fn gen_write(w: &mut Words<'_>) -> String {
    let target = BASES[w.draw() as usize % BASES.len()];
    if w.draw() % 3 == 0 {
        let attr = if w.draw() % 2 == 0 { "key" } else { "val" };
        format!("(delete {target} (= {attr} {}))", w.draw() % 6)
    } else {
        let source = BASES[w.draw() as usize % BASES.len()];
        format!(
            "(append (restrict (scan {source}) (< val {})) {target})",
            w.draw() % 5 + 1
        )
    }
}

/// The from-scratch oracle: parse and execute the defining query against
/// the current catalog, images in canonical (sorted) order.
fn oracle_images(db: &Catalog, text: &str) -> Vec<Vec<u8>> {
    let tree = parse_query(db, text).expect("oracle parse");
    let params = ExecParams {
        page_size: PAGE_SIZE,
    };
    let rel = execute_readonly(db, &tree, &params).expect("oracle run");
    let mut images: Vec<Vec<u8>> = rel.tuple_refs().map(|t| t.raw().to_vec()).collect();
    images.sort();
    images
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The differential contract: install a random view, stream random
    /// write batches through the same staged-delta path the serve engine
    /// uses, and demand byte-identity with the scratch oracle after
    /// every batch.
    #[test]
    fn maintained_view_matches_scratch_oracle_after_every_write(
        rows in prop::collection::vec((0u8..6, 0u8..6, 0u8..5), 3..40),
        entropy in prop::collection::vec(0u64..u64::MAX, 24),
        depth in 1usize..=4,
        num_writes in 1usize..=8,
    ) {
        let mut w = Words { words: &entropy, next: 0 };
        let text = gen_view(&mut w, depth);
        let mut db = catalog(&rows);
        let tree = parse_query(&db, &text).expect("view parses");
        let mut view = StandingView::install("v", &text, &db, &tree, PAGE_SIZE)
            .expect("view installs");
        prop_assert_eq!(
            view.tuple_images(),
            oracle_images(&db, &text),
            "installation materialized the oracle result: {}",
            text
        );

        let params = ExecParams { page_size: PAGE_SIZE };
        for i in 0..num_writes {
            let write = gen_write(&mut w);
            let write_tree = parse_query(&db, &write).expect("write parses");
            let delta = stage_write(&db, &write_tree, &params).expect("write stages");
            let target = delta.target().to_string();
            let (inserts, deletes) = delta.base_change();
            apply_write(&mut db, delta).expect("write applies");
            view.apply_write(&target, &inserts, &deletes).expect("view maintains");
            prop_assert_eq!(
                view.tuple_images(),
                oracle_images(&db, &text),
                "view `{}` diverged after write {} (`{}`)",
                text, i, write
            );
        }
    }

    /// Replaying a batch's inserts and deletes through a view that does
    /// not read the target must be a no-op that moves zero delta pages.
    #[test]
    fn unrelated_writes_move_no_delta_pages(
        rows in prop::collection::vec((0u8..6, 0u8..6, 0u8..5), 3..30),
        entropy in prop::collection::vec(0u64..u64::MAX, 8),
    ) {
        let mut w = Words { words: &entropy, next: 0 };
        let db = catalog(&rows);
        // A view pinned to b0 only; writes target b1.
        let text = format!("(restrict (scan b0) (< val {}))", w.draw() % 5 + 1);
        let tree = parse_query(&db, &text).expect("view parses");
        let mut view = StandingView::install("v", &text, &db, &tree, PAGE_SIZE)
            .expect("view installs");
        let before = view.tuple_images();
        let images: Vec<Vec<u8>> = (0..4)
            .map(|_| {
                let mut buf = Vec::new();
                Tuple::new(vec![
                    Value::Int((w.draw() % 6) as i64),
                    Value::Int((w.draw() % 5) as i64),
                ])
                .encode(&base_schema(), &mut buf)
                .expect("encode");
                buf
            })
            .collect();
        let update = view.apply_write("b1", &images, &images[..2]).expect("no-op replay");
        prop_assert_eq!(update.delta_pages, 0);
        prop_assert!(!update.result_changed);
        prop_assert_eq!(view.tuple_images(), before);
    }
}
