//! Property-based tests of the relational operators: algebraic identities
//! that must hold for arbitrary data, plus kernel/oracle agreement.

use df_query::ops::{
    cross_pages_raw, dedup_pages_raw, difference_pages_raw, join_pages_raw, project_page_raw,
    restrict_page_raw, span_output_schema, union_pages_raw, SpanStep, UnaryKernel,
};
use df_query::oracle::{
    cross_pages, dedup_tuples, difference_relations, join_pages, merge_join_relations,
    nested_loops_join_relations, project_page, restrict_page, union_relations,
};
use df_query::Kernel;
use df_relalg::{
    CmpOp, DataType, JoinCondition, Page, Predicate, Projection, Relation, Schema, Tuple, Value,
};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::build()
        .attr("a", DataType::Int)
        .attr("b", DataType::Int)
        .finish()
        .expect("schema")
}

fn relation(name: &str, rows: &[(i64, i64)]) -> Relation {
    Relation::from_tuples(
        name,
        schema(),
        16 + 16 * 3,
        rows.iter()
            .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)])),
    )
    .expect("relation")
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((-20i64..20, -20i64..20), 0..max)
}

fn count_matches(rows: &[(i64, i64)], pred: impl Fn(&(i64, i64)) -> bool) -> usize {
    rows.iter().filter(|r| pred(r)).count()
}

// ---- mixed-schema fixtures for the zero-copy/decoded equivalence tests ----

fn mixed_schema() -> Schema {
    Schema::build()
        .attr("id", DataType::Int)
        .attr("flag", DataType::Bool)
        .attr("tag", DataType::Str(6))
        .finish()
        .expect("schema")
}

/// (id, flag, tag) rows; tags draw from a tiny alphabet at varying lengths
/// so padding, prefixes, and duplicates all occur.
fn arb_mixed_rows(max: usize) -> impl Strategy<Value = Vec<(i64, i64, Vec<char>)>> {
    prop::collection::vec(
        (
            -30i64..30,
            0i64..2,
            prop::collection::vec(prop::char::range('a', 'c'), 0..6),
        ),
        0..max,
    )
}

fn mixed_tuple((id, flag, tag): &(i64, i64, Vec<char>)) -> Tuple {
    Tuple::new(vec![
        Value::Int(*id),
        Value::Bool(*flag % 2 == 1),
        Value::str(&tag.iter().collect::<String>()),
    ])
}

fn mixed_relation(rows: &[(i64, i64, Vec<char>)]) -> Relation {
    Relation::from_tuples(
        "m",
        mixed_schema(),
        16 + mixed_schema().tuple_width() * 3,
        rows.iter().map(mixed_tuple),
    )
    .expect("relation")
}

/// One right-operand row of the join fixtures: a mixed row plus the chars
/// of its `wide` string.
type WideRow = ((i64, i64, Vec<char>), Vec<char>);

/// Join keys: the small domain of [`arb_mixed_rows`] with the two `i64`
/// extremes mixed in (a sign slip in the integer comparator shows there).
fn arb_join_id() -> impl Strategy<Value = i64> {
    prop_oneof![-3i64..3, -30i64..30, Just(i64::MIN), Just(i64::MAX)]
}

fn arb_tag(max_len: usize) -> impl Strategy<Value = Vec<char>> {
    prop::collection::vec(prop::char::range('a', 'c'), 0..=max_len)
}

fn arb_left_rows(
    size: impl Into<prop::collection::SizeRange>,
) -> impl Strategy<Value = Vec<(i64, i64, Vec<char>)>> {
    prop::collection::vec((arb_join_id(), 0i64..2, arb_tag(3)), size)
}

fn arb_right_rows(
    size: impl Into<prop::collection::SizeRange>,
) -> impl Strategy<Value = Vec<WideRow>> {
    prop::collection::vec(((arb_join_id(), 0i64..2, arb_tag(3)), arb_tag(4)), size)
}

/// The right operand of the join fixtures: wider than [`mixed_schema`], its
/// keys at other offsets, and a `Str(9)` to pair with the left's `Str(6)`.
fn wide_schema() -> Schema {
    Schema::build()
        .attr("pad", DataType::Int)
        .attr("wide", DataType::Str(9))
        .attr("id", DataType::Int)
        .attr("tag", DataType::Str(6))
        .attr("flag", DataType::Bool)
        .finish()
        .expect("schema")
}

/// One page holding exactly `tuples` (capacity grows to fit).
fn page_of(schema: &Schema, tuples: impl ExactSizeIterator<Item = Tuple>) -> Page {
    let size = 16 + schema.tuple_width() * tuples.len().max(1);
    let mut page = Page::new(schema.clone(), size).expect("page");
    for t in tuples {
        page.push(&t).expect("page sized to fit");
    }
    page
}

fn left_page(rows: &[(i64, i64, Vec<char>)]) -> Page {
    page_of(&mixed_schema(), rows.iter().map(mixed_tuple))
}

fn right_page(rows: &[WideRow]) -> Page {
    page_of(
        &wide_schema(),
        rows.iter().map(|((id, flag, tag), wide)| {
            Tuple::new(vec![
                Value::Int(id.wrapping_mul(7)),
                Value::str(&wide.iter().collect::<String>()),
                Value::Int(*id),
                Value::str(&tag.iter().collect::<String>()),
                Value::Bool(*flag == 1),
            ])
        }),
    )
}

/// The compiled sweep against the decoded oracle on one page pair: every
/// key kind (`Int`, `Bool`, equal-width `Str`, mixed-width `Str`) × all
/// six operators, byte for byte — same rows, same order, same images.
fn assert_sweep_byte_identical(lp: &Page, rp: &Page) {
    let out_schema = lp.schema().concat(rp.schema());
    for (lkey, rkey) in [
        ("id", "id"),
        ("flag", "flag"),
        ("tag", "tag"),
        ("tag", "wide"),
    ] {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let c = JoinCondition::new(lp.schema(), lkey, op, rp.schema(), rkey).unwrap();
            let raw = join_pages_raw(lp, rp, &c, &out_schema);
            assert_eq!(
                raw_bytes(&raw),
                encode_all(&out_schema, &join_pages(lp, rp, &c)),
                "{lkey} {op} {rkey} on {} x {} tuples",
                lp.len(),
                rp.len()
            );
        }
    }
}

/// Canonical encoding of a decoded tuple stream (the byte-identity oracle).
fn encode_all(schema: &Schema, tuples: &[Tuple]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tuples {
        t.encode(schema, &mut out).expect("conforming tuple");
    }
    out
}

/// The raw images a zero-copy kernel produced, concatenated.
fn raw_bytes(buf: &df_relalg::TupleBuf) -> Vec<u8> {
    buf.refs().flat_map(|r| r.raw().to_vec()).collect()
}

/// One random span step over `schema`, drawn from `word`. A restrict
/// mixes an `Int`-constant compare (the specialized stride loop) with
/// `Str` and `Bool` compares under `or`, `and` and `not` (the general
/// path); a projection keeps a shuffled non-empty subset of the
/// attributes.
fn random_step(schema: &Schema, restrict: bool, word: u64) -> SpanStep {
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let attrs = schema.attrs();
    let n = attrs.len() as u64;
    if !restrict {
        let mut indices: Vec<usize> = (0..attrs.len()).collect();
        let mut w = word;
        for i in (1..indices.len()).rev() {
            indices.swap(i, (w % (i as u64 + 1)) as usize);
            w /= i as u64 + 1;
        }
        indices.truncate(1 + (w % n) as usize);
        return SpanStep::Project(Projection::from_indices(schema, indices).unwrap());
    }
    // Compare attribute `i` against a constant of its type, from `w`.
    let atom = |i: usize, w: u64| {
        let value = match attrs[i].dtype {
            DataType::Int => Value::Int((w % 61) as i64 - 30),
            DataType::Bool => Value::Bool(w % 2 == 0),
            _ => Value::str(["", "a", "ab", "bb", "c"][(w % 5) as usize]),
        };
        let op = OPS[((w >> 8) % 6) as usize];
        Predicate::cmp_const(schema, &attrs[i].name, op, value).unwrap()
    };
    let (a, b) = ((word >> 16) % n, (word >> 24) % n);
    let (wa, wb) = (word >> 32, word.rotate_left(17));
    let int = attrs.iter().position(|at| at.dtype == DataType::Int);
    SpanStep::Restrict(match word % 4 {
        0 => atom(int.unwrap_or(a as usize), wa),
        1 => atom(a as usize, wa).or(atom(b as usize, wb)),
        2 => atom(a as usize, wa).not(),
        _ => atom(int.unwrap_or(a as usize), wa).and(atom(b as usize, wb)),
    })
}

/// The oracle's decoded restrict and project kernels composed one step at
/// a time, each intermediate repacked into one page.
fn stepwise(page: &Page, steps: &[SpanStep]) -> Vec<Tuple> {
    let mut schema = page.schema().clone();
    let mut tuples: Vec<Tuple> = page.tuples().collect();
    for step in steps {
        let p = page_of(&schema, tuples.into_iter());
        tuples = match step {
            SpanStep::Restrict(pred) => restrict_page(&p, pred),
            SpanStep::Project(proj) => {
                schema = proj.output_schema(&schema).unwrap();
                project_page(&p, proj)
            }
        };
    }
    tuples
}

proptest! {
    /// σ keeps exactly the matching tuples, page by page.
    #[test]
    fn restrict_counts_match_reference(rows in arb_rows(60), cutoff in -20i64..20) {
        let rel = relation("t", &rows);
        let p = Predicate::cmp_const(rel.schema(), "a", CmpOp::Lt, Value::Int(cutoff)).unwrap();
        let kept: usize = rel.pages().iter().map(|pg| restrict_page(pg, &p).len()).sum();
        prop_assert_eq!(kept, count_matches(&rows, |&(a, _)| a < cutoff));
    }

    /// σ_p(σ_q(R)) ≡ σ_{p∧q}(R).
    #[test]
    fn restrict_composes_as_conjunction(rows in arb_rows(60), c1 in -20i64..20, c2 in -20i64..20) {
        let rel = relation("t", &rows);
        let p = Predicate::cmp_const(rel.schema(), "a", CmpOp::Lt, Value::Int(c1)).unwrap();
        let q = Predicate::cmp_const(rel.schema(), "b", CmpOp::Ge, Value::Int(c2)).unwrap();
        let pq = p.clone().and(q.clone());
        let two_pass: Vec<Tuple> = rel
            .pages()
            .iter()
            .flat_map(|pg| restrict_page(pg, &p))
            .filter(|t| q.eval(t))
            .collect();
        let one_pass: Vec<Tuple> = rel
            .pages()
            .iter()
            .flat_map(|pg| restrict_page(pg, &pq))
            .collect();
        prop_assert_eq!(two_pass, one_pass);
    }

    /// Nested loops and sort-merge agree (as multisets) on any equi-join.
    #[test]
    fn join_algorithms_agree(left in arb_rows(40), right in arb_rows(40)) {
        let l = relation("l", &left);
        let r = relation("r", &right);
        let cond = JoinCondition::equi(l.schema(), "a", r.schema(), "a").unwrap();
        let mut nl = nested_loops_join_relations(&l, &r, &cond);
        let mut sm = merge_join_relations(&l, &r, &cond).unwrap();
        let key = |t: &Tuple| format!("{t}");
        nl.sort_by_key(key);
        sm.sort_by_key(key);
        prop_assert_eq!(nl, sm);
    }

    /// |R ⋈ S| on the key attribute equals the sum over key groups of
    /// |R_k|·|S_k| (the textbook cardinality identity).
    #[test]
    fn join_cardinality_identity(left in arb_rows(40), right in arb_rows(40)) {
        let l = relation("l", &left);
        let r = relation("r", &right);
        let cond = JoinCondition::equi(l.schema(), "a", r.schema(), "a").unwrap();
        let joined = nested_loops_join_relations(&l, &r, &cond).len();
        let expected: usize = (-20i64..20)
            .map(|k| {
                count_matches(&left, |&(a, _)| a == k) * count_matches(&right, |&(a, _)| a == k)
            })
            .sum();
        prop_assert_eq!(joined, expected);
    }

    /// Cross product cardinality is |R|·|S| (page-wise kernel).
    #[test]
    fn cross_cardinality(left in arb_rows(25), right in arb_rows(25)) {
        let l = relation("l", &left);
        let r = relation("r", &right);
        let mut n = 0;
        for lp in l.pages() {
            for rp in r.pages() {
                n += cross_pages(lp, rp).len();
            }
        }
        prop_assert_eq!(n, left.len() * right.len());
    }

    /// Set identities: |R ∪ S| = |distinct R| + |S − R|;  R − R = ∅;
    /// union is commutative as a set.
    #[test]
    fn set_operator_identities(left in arb_rows(40), right in arb_rows(40)) {
        let l = relation("l", &left);
        let r = relation("r", &right);
        let union_lr = union_relations(&l, &r).unwrap();
        let union_rl = union_relations(&r, &l).unwrap();
        prop_assert_eq!(union_lr.len(), union_rl.len());
        let distinct_l = dedup_tuples(l.tuples()).len();
        let r_minus_l = difference_relations(&r, &l).unwrap().len();
        prop_assert_eq!(union_lr.len(), distinct_l + r_minus_l);
        prop_assert!(difference_relations(&l, &l).unwrap().is_empty());
    }

    /// π is idempotent on the identity projection and length-preserving.
    #[test]
    fn projection_laws(rows in arb_rows(40)) {
        let rel = relation("t", &rows);
        let ident = Projection::new(rel.schema(), &["a", "b"]).unwrap();
        for pg in rel.pages() {
            let out = project_page(pg, &ident);
            prop_assert_eq!(out.len(), pg.len());
            let back: Vec<Tuple> = pg.tuples().collect();
            prop_assert_eq!(out, back);
        }
        let narrow = Projection::new(rel.schema(), &["b"]).unwrap();
        let projected: usize = rel.pages().iter().map(|pg| project_page(pg, &narrow).len()).sum();
        prop_assert_eq!(projected, rows.len());
    }

    /// join_pages over all page pairs equals the whole-relation kernel.
    #[test]
    fn page_kernel_composes_to_relation_kernel(left in arb_rows(30), right in arb_rows(30)) {
        let l = relation("l", &left);
        let r = relation("r", &right);
        let cond = JoinCondition::new(l.schema(), "a", CmpOp::Le, r.schema(), "b").unwrap();
        let mut page_wise = Vec::new();
        for lp in l.pages() {
            for rp in r.pages() {
                page_wise.extend(join_pages(lp, rp, &cond));
            }
        }
        let mut whole = nested_loops_join_relations(&l, &r, &cond);
        let key = |t: &Tuple| format!("{t}");
        page_wise.sort_by_key(key);
        whole.sort_by_key(key);
        prop_assert_eq!(page_wise, whole);
    }

    /// Zero-copy restrict emits byte-identical images to the decoded
    /// kernel on a mixed Int/Bool/Str schema (string predicates exercise
    /// the NUL-padding-aware encoded comparison).
    #[test]
    fn raw_restrict_byte_identical(rows in arb_mixed_rows(50), cut in -30i64..30) {
        let rel = mixed_relation(&rows);
        let s = rel.schema().clone();
        let p = Predicate::cmp_const(&s, "id", CmpOp::Ge, Value::Int(cut))
            .unwrap()
            .or(Predicate::cmp_const(&s, "tag", CmpOp::Lt, Value::str("bb")).unwrap())
            .and(Predicate::cmp_const(&s, "flag", CmpOp::Eq, Value::Bool(true)).unwrap());
        for pg in rel.pages() {
            let raw = restrict_page_raw(pg, &p);
            let decoded = restrict_page(pg, &p);
            prop_assert_eq!(raw.len(), decoded.len());
            prop_assert_eq!(encode_all(&s, &decoded), raw_bytes(&raw));
        }
    }

    /// One compiled per-page form over a random chain of 0–6 restrict and
    /// project steps, reused over every page of a relation and an empty
    /// page, is byte-identical to the oracle's kernels run step by step,
    /// and is charged n × max(1, steps) tuple operations.
    #[test]
    fn unary_kernel_matches_stepwise_oracle(
        rows in arb_mixed_rows(50),
        seeds in prop::collection::vec((any::<bool>(), any::<u64>()), 0..=6),
    ) {
        let rel = mixed_relation(&rows);
        let s = rel.schema().clone();
        let mut steps = Vec::new();
        let mut at = s.clone();
        for &(restrict, word) in &seeds {
            let step = random_step(&at, restrict, word);
            if let SpanStep::Project(proj) = &step {
                at = proj.output_schema(&at).unwrap();
            }
            steps.push(step);
        }
        let out_schema = span_output_schema(&s, &steps).unwrap();
        prop_assert_eq!(&out_schema, &at);
        let kernel = Kernel::Unary(UnaryKernel::compile(&steps, &s));
        let empty = page_of(&s, std::iter::empty());
        for pg in rel.pages().iter().map(|p| p.as_ref()).chain([&empty]) {
            let raw = kernel.run_unit_raw(&[pg], &out_schema);
            let want = stepwise(pg, &steps);
            prop_assert_eq!(raw_bytes(&raw), encode_all(&out_schema, &want));
            prop_assert_eq!(kernel.tuple_ops(&[pg.len()]), pg.len() * steps.len().max(1));
        }
    }

    /// Zero-copy projection (attribute byte-range copies) matches the
    /// decoded kernel, including reordering, byte for byte.
    #[test]
    fn raw_project_byte_identical(rows in arb_mixed_rows(50)) {
        let rel = mixed_relation(&rows);
        let s = rel.schema().clone();
        for names in [&["tag"][..], &["tag", "id"][..], &["flag", "id", "tag"][..]] {
            let proj = Projection::new(&s, names).unwrap();
            let out_schema = proj.output_schema(&s).unwrap();
            for pg in rel.pages() {
                let raw = project_page_raw(pg, &proj, &out_schema);
                let decoded = project_page(pg, &proj);
                prop_assert_eq!(encode_all(&out_schema, &decoded), raw_bytes(&raw));
            }
        }
    }

    /// The compiled nested-loops sweep is byte-identical to the decoded
    /// kernel for every comparison operator and key kind, on empty,
    /// 3-tuple and odd-sized small pages (key columns on the stack); the
    /// raw cross product likewise.
    #[test]
    fn raw_join_matches_decoded(left in arb_left_rows(0..12), right in arb_right_rows(0..12)) {
        for l in [&left[..], &left[..left.len().min(3)], &[]] {
            for r in [&right[..], &right[..right.len().min(3)], &[]] {
                let (lp, rp) = (left_page(l), right_page(r));
                assert_sweep_byte_identical(&lp, &rp);
                let out_schema = lp.schema().concat(rp.schema());
                prop_assert_eq!(
                    raw_bytes(&cross_pages_raw(&lp, &rp, &out_schema)),
                    encode_all(&out_schema, &cross_pages(&lp, &rp))
                );
            }
        }
    }

    /// Zero-copy set operators (raw-image hashing) agree with the decoded
    /// relation kernels tuple for tuple, in order.
    #[test]
    fn raw_set_ops_match_decoded(left in arb_mixed_rows(40), right in arb_mixed_rows(40)) {
        let l = mixed_relation(&left);
        let r = mixed_relation(&right);
        let s = l.schema().clone();
        let lp: Vec<&Page> = l.pages().iter().map(|p| p.as_ref()).collect();
        let rp: Vec<&Page> = r.pages().iter().map(|p| p.as_ref()).collect();
        prop_assert_eq!(
            union_pages_raw(&lp, &rp, &s).to_tuples(),
            union_relations(&l, &r).unwrap()
        );
        prop_assert_eq!(
            difference_pages_raw(&lp, &rp, &s).to_tuples(),
            difference_relations(&l, &r).unwrap()
        );
        prop_assert_eq!(dedup_pages_raw(&lp, &s).to_tuples(), dedup_tuples(l.tuples()));
    }

    /// dedup is idempotent and order-preserving on first occurrences.
    #[test]
    fn dedup_idempotent(rows in arb_rows(50)) {
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]))
            .collect();
        let once = dedup_tuples(tuples.clone());
        let twice = dedup_tuples(once.clone());
        prop_assert_eq!(&once, &twice);
        // Every output tuple appears in the input, in order of first occurrence.
        let mut cursor = 0;
        for t in &once {
            let pos = tuples[cursor..].iter().position(|u| u == t);
            prop_assert!(pos.is_some());
            cursor += pos.unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same identity on pages of 160–200 tuples — the simulators' page
    /// shape, where the key columns spill to the heap — against each other
    /// and against 3-tuple and empty pages.
    #[test]
    fn raw_join_matches_decoded_on_large_pages(
        left in arb_left_rows(160..=200),
        right in arb_right_rows(160..=200),
    ) {
        let (lp, rp) = (left_page(&left), right_page(&right));
        assert_sweep_byte_identical(&lp, &rp);
        assert_sweep_byte_identical(&lp, &right_page(&right[..3]));
        assert_sweep_byte_identical(&left_page(&left[..3]), &rp);
        assert_sweep_byte_identical(&lp, &right_page(&[]));
        assert_sweep_byte_identical(&left_page(&[]), &rp);
    }
}

/// Each tuple image of a batch, sorted: the batch as a multiset.
fn sorted_images(buf: &df_relalg::TupleBuf) -> Vec<Vec<u8>> {
    let mut images: Vec<Vec<u8>> = buf.refs().map(|r| r.raw().to_vec()).collect();
    images.sort();
    images
}

proptest! {
    /// The symmetric hash join's unit: one page probing a side index over
    /// N pushed pages yields, as a multiset, exactly the per-pair
    /// `join_pages_raw` sweeps against the first `upto` of them —
    /// with the arriving page as outer and as inner, on duplicate-heavy
    /// `Int` keys (the word map), `Bool` and `Str` keys (the bytes map),
    /// empty pages on either side, and pages at or past `upto` invisible.
    #[test]
    fn side_index_probe_equals_per_pair_hash_joins(
        arriving_left in arb_left_rows(0..12),
        arriving_right in arb_right_rows(0..12),
        lefts in prop::collection::vec(arb_left_rows(0..8), 0..5),
        rights in prop::collection::vec(arb_right_rows(0..8), 0..5),
        upto in 0usize..6,
    ) {
        use df_query::ops::hash_join_side_into;
        use df_relalg::{SideKeyIndex, TupleBuf};
        use std::sync::Arc;

        let lefts: Vec<Page> = lefts.iter().map(|rows| left_page(rows)).collect();
        let rights: Vec<Page> = rights.iter().map(|rows| right_page(rows)).collect();
        let (left, right) = (left_page(&arriving_left), right_page(&arriving_right));
        let out_schema = mixed_schema().concat(&wide_schema());
        for key in ["id", "flag", "tag"] {
            let c = JoinCondition::equi(&mixed_schema(), key, &wide_schema(), key).unwrap();
            // (arriving page, the pages its opposite side received, the
            // side's key attribute, whether the arriving page is outer)
            let cases = [
                (&left, &rights, c.right, true),
                (&right, &lefts, c.left, false),
            ];
            for (page, opposite, side_key, page_is_outer) in cases {
                let mut side = SideKeyIndex::new(side_key);
                for p in opposite {
                    side.extend(&[Arc::new(p.clone())]);
                }
                let upto = upto.min(opposite.len());
                let mut got = TupleBuf::new(out_schema.clone());
                hash_join_side_into(page, &side, upto, &c, page_is_outer, &mut got);
                let mut want: Vec<Vec<u8>> = opposite[..upto]
                    .iter()
                    .flat_map(|p| {
                        let (outer, inner) = if page_is_outer { (page, p) } else { (p, page) };
                        sorted_images(&join_pages_raw(outer, inner, &c, &out_schema))
                    })
                    .collect();
                want.sort();
                prop_assert_eq!(
                    sorted_images(&got),
                    want,
                    "key {} outer {} upto {}/{}", key, page_is_outer, upto, opposite.len()
                );
            }
        }
    }
}

proptest! {
    /// The nested-loops join's column unit: one page probing a key column
    /// over N pushed pages yields, as a multiset, exactly the oracle's
    /// decoded `join_pages` against the first `upto` of them, encoded — a
    /// reference that shares no compare with the probe — for all six θs, with the arriving page as outer and as inner, on
    /// duplicate-heavy `Int` keys (sides long enough to fill 16-key
    /// chunks and leave a remainder), empty pages on either side, and
    /// pages at or past `upto` invisible.
    #[test]
    fn column_probe_equals_per_pair_sweeps(
        arriving_left in arb_left_rows(0..12),
        arriving_right in arb_right_rows(0..12),
        lefts in prop::collection::vec(arb_left_rows(0..12), 0..6),
        rights in prop::collection::vec(arb_right_rows(0..12), 0..6),
        upto in 0usize..7,
    ) {
        use df_query::ops::JoinSweep;
        use df_relalg::{CmpOp, SideKeyColumn, TupleBuf};
        use std::sync::Arc;

        let lefts: Vec<Page> = lefts.iter().map(|rows| left_page(rows)).collect();
        let rights: Vec<Page> = rights.iter().map(|rows| right_page(rows)).collect();
        let (left, right) = (left_page(&arriving_left), right_page(&arriving_right));
        let out_schema = mixed_schema().concat(&wide_schema());
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let c = JoinCondition::new(&mixed_schema(), "id", op, &wide_schema(), "id").unwrap();
            let sweep = JoinSweep::compile(&mixed_schema(), &wide_schema(), &c);
            // (arriving page, the pages its opposite side received, the
            // side's key attribute, whether the arriving page is outer)
            let cases = [
                (&left, &rights, c.right, true),
                (&right, &lefts, c.left, false),
            ];
            for (page, opposite, side_key, page_is_outer) in cases {
                let mut column = SideKeyColumn::new(side_key);
                for p in opposite {
                    column.extend(&[Arc::new(p.clone())]);
                }
                let upto = upto.min(opposite.len());
                let mut got = TupleBuf::new(out_schema.clone());
                sweep.probe_column_into(page, &column, upto, page_is_outer, &mut got);
                let mut want: Vec<Vec<u8>> = opposite[..upto]
                    .iter()
                    .flat_map(|p| {
                        let (outer, inner) = if page_is_outer { (page, p) } else { (p, page) };
                        join_pages(outer, inner, &c)
                    })
                    .map(|t| encode_all(&out_schema, &[t]))
                    .collect();
                want.sort();
                prop_assert_eq!(
                    sorted_images(&got),
                    want,
                    "op {} outer {} upto {}/{}", op, page_is_outer, upto, opposite.len()
                );
            }
        }
    }
}
