//! Join kernels: the page×page entry points (nested loops and the hash
//! probe), and the symmetric hash join's page-against-side probe.
//!
//! The paper (§2.1) argues the O(n²) nested-loops algorithm is "the best
//! algorithm for execution of the join operator on multiple processors"
//! because each page (or tuple) of the outer relation can be joined with the
//! inner relation independently — one page pair is precisely that unit of
//! independent work. The machines run it as the compiled [`JoinSweep`]
//! (`sweep.rs`) over raw page bytes — page against page lists, or, in
//! df-host's nested `Int` join, page against the opposite side's key column
//! ([`JoinSweep::probe_column_into`]); [`crate::oracle::join_pages`] is the
//! decoded-tuple oracle it must match byte for byte, and the hash probe is
//! defined as identical to both. Both side probes — [`hash_join_side_into`]
//! over a [`SideKeyIndex`] and the column probe — emit (page slot, opposite
//! arrival) order. The oracle also holds the whole-relation nested-loops
//! and sort-merge baselines from Blasgen & Eswaran \[5\] the unit tests
//! below compare against.

use df_relalg::{JoinCondition, Page, PageKeyIndex, Schema, SideKeyIndex, TupleBuf};

use super::sweep::JoinSweep;

/// Zero-copy page×page nested-loops join: compiles `condition` against the
/// two page schemas and runs the one [`JoinSweep`] pair loop over the raw
/// page bytes — nothing is decoded or re-encoded. `out_schema` is the
/// concatenated output schema carried by the instruction packet.
///
/// A convenience for one-off pairs; executors hold the plan's compiled
/// sweep and call [`JoinSweep::sweep_list_into`] with one buffer per unit.
pub fn join_pages_raw(
    outer: &Page,
    inner: &Page,
    condition: &JoinCondition,
    out_schema: &Schema,
) -> TupleBuf {
    let mut out = TupleBuf::new(out_schema.clone());
    JoinSweep::compile(outer.schema(), inner.schema(), condition)
        .sweep_into(outer, inner, &mut out);
    out
}

/// Page×page equi-join through a prebuilt [`PageKeyIndex`] over the inner
/// page: each outer tuple probes the index, emitting O(n + matches) work
/// in the nested sweep's order (outer tuples in page order, each probe's
/// slots ascending), so the output is byte-identical to
/// [`join_pages_raw`]. No executor runs it; the repository benchmark's
/// `query.ops.join_hash_mib_s` times it.
///
/// Callers must have checked [`JoinSweep::hash_applicable`]; `index` must be
/// built over `inner` on `condition.right`.
///
/// # Panics
/// Panics (debug) if `index` was built on a different attribute.
pub fn hash_join_probe(
    outer: &Page,
    inner: &Page,
    index: &PageKeyIndex,
    condition: &JoinCondition,
    out_schema: &Schema,
) -> TupleBuf {
    debug_assert_eq!(index.key(), condition.right, "index/condition mismatch");
    let mut out = TupleBuf::new(out_schema.clone());
    let (inner_data, w) = (inner.raw_data(), inner.schema().tuple_width());
    for o in outer.tuple_refs() {
        for &slot in index.probe(o.attr_bytes(condition.left)) {
            let at = slot as usize * w;
            out.push_concat(o.raw(), &inner_data[at..at + w]);
        }
    }
    out
}

/// The symmetric hash join's unit: every tuple of the arriving `page`
/// probes `side` — the opposite operand's index — over its first `upto`
/// pages, appending each match to `out` in the condition's orientation
/// (`page` is the outer operand when `page_is_outer`). Matches leave in
/// (page slot, opposite arrival) order; as a multiset they are the union
/// of [`join_pages_raw`] over `page` paired with each of those pages.
///
/// Callers must have checked [`JoinSweep::hash_applicable`]; `side` must be
/// keyed on the condition's attribute of the opposite operand.
pub fn hash_join_side_into(
    page: &Page,
    side: &SideKeyIndex,
    upto: usize,
    condition: &JoinCondition,
    page_is_outer: bool,
    out: &mut TupleBuf,
) {
    let (key, side_key) = if page_is_outer {
        (condition.left, condition.right)
    } else {
        (condition.right, condition.left)
    };
    debug_assert_eq!(side.key(), side_key, "side index/condition mismatch");
    for t in page.tuple_refs() {
        for entry in side.probe(t.attr_bytes(key), upto) {
            let opposite = side.received().image(entry);
            if page_is_outer {
                out.push_concat(t.raw(), opposite);
            } else {
                out.push_concat(opposite, t.raw());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_support::*;
    use crate::oracle::{join_pages, merge_join_relations, nested_loops_join_relations};
    use df_relalg::{CmpOp, Relation, Tuple, Value};

    fn rel(pairs: &[(i64, i64)]) -> Relation {
        Relation::from_tuples(
            "t",
            kv_schema(),
            16 + 16 * 3, // 3 tuples/page
            pairs.iter().map(|&(k, v)| kv(k, v)),
        )
        .unwrap()
    }

    fn cond(outer: &Schema, inner: &Schema) -> JoinCondition {
        JoinCondition::equi(outer, "k", inner, "k").unwrap()
    }

    #[test]
    fn page_join_matches_pairs() {
        let a = kv_page(&[(1, 10), (2, 20)]);
        let b = kv_page(&[(2, 200), (3, 300), (2, 201)]);
        let c = cond(&kv_schema(), &kv_schema());
        let out = join_pages(&a, &b, &c);
        assert_eq!(out.len(), 2);
        assert_eq!(
            out[0].values(),
            &[
                Value::Int(2),
                Value::Int(20),
                Value::Int(2),
                Value::Int(200)
            ]
        );
    }

    #[test]
    fn raw_join_matches_decoded_for_all_ops() {
        let a = kv_page(&[(1, 10), (2, 20), (3, 30)]);
        let b = kv_page(&[(2, 200), (3, 300), (2, 201), (5, 500)]);
        let out_schema = kv_schema().concat(&kv_schema());
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let c = JoinCondition::new(&kv_schema(), "k", op, &kv_schema(), "k").unwrap();
            assert_eq!(
                join_pages_raw(&a, &b, &c, &out_schema).to_tuples(),
                join_pages(&a, &b, &c),
                "op {op}"
            );
        }
    }

    #[test]
    fn theta_join_non_equi() {
        let a = kv_page(&[(1, 0), (5, 0)]);
        let b = kv_page(&[(3, 0)]);
        let c = JoinCondition::new(&kv_schema(), "k", CmpOp::Lt, &kv_schema(), "k").unwrap();
        let out = join_pages(&a, &b, &c);
        assert_eq!(out.len(), 1); // only 1 < 3
    }

    #[test]
    fn nested_loops_equals_merge_join_on_equi() {
        let outer = rel(&[(1, 1), (2, 2), (2, 3), (4, 4), (7, 7)]);
        let inner = rel(&[(2, 20), (2, 21), (4, 40), (9, 90)]);
        let c = cond(outer.schema(), inner.schema());
        let mut nl = nested_loops_join_relations(&outer, &inner, &c);
        let mut mj = merge_join_relations(&outer, &inner, &c).unwrap();
        // Compare as multisets.
        let key = |t: &Tuple| format!("{t}");
        nl.sort_by_key(key);
        mj.sort_by_key(key);
        assert_eq!(nl, mj);
        assert_eq!(nl.len(), 2 * 2 + 1); // (2,2),(2,3) × (2,20),(2,21) + (4,4)×(4,40)
    }

    #[test]
    fn merge_join_rejects_non_equi() {
        let outer = rel(&[(1, 1)]);
        let inner = rel(&[(1, 1)]);
        let c = JoinCondition::new(outer.schema(), "k", CmpOp::Lt, inner.schema(), "k").unwrap();
        assert!(merge_join_relations(&outer, &inner, &c).is_err());
    }

    #[test]
    fn empty_inputs() {
        let empty = rel(&[]);
        let full = rel(&[(1, 1)]);
        let c = cond(empty.schema(), full.schema());
        assert!(nested_loops_join_relations(&empty, &full, &c).is_empty());
        assert!(merge_join_relations(&full, &empty, &c).unwrap().is_empty());
    }

    #[test]
    fn join_output_width_is_concat() {
        let a = kv_page(&[(1, 10)]);
        let b = kv_page(&[(1, 99)]);
        let c = cond(&kv_schema(), &kv_schema());
        let out = join_pages(&a, &b, &c);
        assert_eq!(out[0].arity(), 4);
    }
}
