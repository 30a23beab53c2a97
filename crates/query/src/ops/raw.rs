//! Shared machinery for the vectorized raw kernels.
//!
//! The canonical tuple encoding is fixed-width, so the unary kernels are
//! stride loops over a page's raw byte area. This module turns the
//! per-tuple interpreted hot loops (recursive predicate walk, per-attribute
//! range recomputation) into a two-pass shape:
//!
//! 1. **mask pass** — each comparison specialized out of the predicate tree
//!    runs as its own tight stride loop over the column bytes, AND-ing into
//!    a selection mask (branchless per row, auto-vectorizable);
//! 2. **copy pass** — surviving rows are copied with their projected
//!    attribute ranges coalesced into contiguous byte runs, so consecutive
//!    survivors of a whole-row copy collapse into single `memcpy`s.
//!
//! [`super::UnaryKernel`] is these two passes, compiled once per plan node;
//! `restrict_page_raw`, `project_page_raw` and `span_page_raw` wrap it.

use df_relalg::{CmpOp, DataType, Page, Predicate, Schema, Value};

/// One conjunct of a restriction, specialized for the mask pass.
#[derive(Debug, Clone)]
enum Cmp {
    /// `Int` attribute vs constant: an 8-byte big-endian column compare.
    IntConst { off: usize, op: CmpOp, rhs: i64 },
    /// `Int` attribute vs `Int` attribute within one tuple.
    IntAttrs { l: usize, op: CmpOp, r: usize },
    /// Anything else falls back to the interpreted zero-copy evaluator.
    General(Predicate),
}

/// A restriction compiled into per-conjunct stride loops.
///
/// Top-level conjunctions are flattened; `Int` comparisons (the workload's
/// common case) become direct word compares over the column bytes, and every
/// other shape keeps its exact `eval_ref` semantics.
#[derive(Debug, Clone)]
pub(super) struct RowFilter {
    cmps: Vec<Cmp>,
}

impl RowFilter {
    /// Compile the conjunction of `preds` against the input `schema`.
    pub(super) fn compile(preds: &[Predicate], schema: &Schema) -> RowFilter {
        let mut cmps = Vec::new();
        for p in preds {
            flatten(p, schema, &mut cmps);
        }
        RowFilter { cmps }
    }

    /// True when the filter keeps every row (the `True` predicate).
    pub(super) fn is_trivial(&self) -> bool {
        self.cmps.is_empty()
    }

    /// AND each row's verdict into `mask` (one slot per page tuple).
    pub(super) fn apply(&self, page: &Page, mask: &mut [bool]) {
        debug_assert_eq!(mask.len(), page.len());
        let w = page.schema().tuple_width();
        let data = page.raw_data();
        // Specializing the operator *outside* the stride loop leaves each
        // inner loop a plain load→compare→store the compiler can unroll
        // and vectorize (bswap + compare have SIMD forms).
        let int_at =
            |o: usize| i64::from_be_bytes(data[o..o + 8].try_into().expect("Int attr is 8 bytes"));
        fn stride(mask: &mut [bool], mut test: impl FnMut(usize) -> bool) {
            for (i, m) in mask.iter_mut().enumerate() {
                *m &= test(i);
            }
        }
        for c in &self.cmps {
            match *c {
                Cmp::IntConst { off, op, rhs } => {
                    let v = |i: usize| int_at(off + i * w);
                    match op {
                        CmpOp::Eq => stride(mask, |i| v(i) == rhs),
                        CmpOp::Ne => stride(mask, |i| v(i) != rhs),
                        CmpOp::Lt => stride(mask, |i| v(i) < rhs),
                        CmpOp::Le => stride(mask, |i| v(i) <= rhs),
                        CmpOp::Gt => stride(mask, |i| v(i) > rhs),
                        CmpOp::Ge => stride(mask, |i| v(i) >= rhs),
                    }
                }
                Cmp::IntAttrs { l, op, r } => {
                    let lv = |i: usize| int_at(l + i * w);
                    let rv = |i: usize| int_at(r + i * w);
                    match op {
                        CmpOp::Eq => stride(mask, |i| lv(i) == rv(i)),
                        CmpOp::Ne => stride(mask, |i| lv(i) != rv(i)),
                        CmpOp::Lt => stride(mask, |i| lv(i) < rv(i)),
                        CmpOp::Le => stride(mask, |i| lv(i) <= rv(i)),
                        CmpOp::Gt => stride(mask, |i| lv(i) > rv(i)),
                        CmpOp::Ge => stride(mask, |i| lv(i) >= rv(i)),
                    }
                }
                Cmp::General(ref p) => {
                    for (m, t) in mask.iter_mut().zip(page.tuple_refs()) {
                        if *m {
                            *m = p.eval_ref(&t);
                        }
                    }
                }
            }
        }
    }
}

/// Flatten top-level conjunctions, specializing `Int` comparisons.
fn flatten(p: &Predicate, schema: &Schema, out: &mut Vec<Cmp>) {
    let is_int = |i: usize| schema.attrs()[i].dtype == DataType::Int;
    match p {
        Predicate::True => {}
        Predicate::And(a, b) => {
            flatten(a, schema, out);
            flatten(b, schema, out);
        }
        Predicate::CmpConst {
            index,
            op,
            value: Value::Int(k),
        } if is_int(*index) => out.push(Cmp::IntConst {
            off: schema.offsets()[*index],
            op: *op,
            rhs: *k,
        }),
        Predicate::CmpAttrs { left, op, right } if is_int(*left) && is_int(*right) => {
            out.push(Cmp::IntAttrs {
                l: schema.offsets()[*left],
                op: *op,
                r: schema.offsets()[*right],
            });
        }
        other => out.push(Cmp::General(other.clone())),
    }
}

/// Coalesce an attribute index list into contiguous `(offset, len)` byte
/// runs over the input tuple layout: adjacent source attributes kept in
/// input order copy as one run.
pub(super) fn attr_runs(indices: &[usize], schema: &Schema) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for &i in indices {
        let r = schema.attr_range(i);
        match runs.last_mut() {
            Some((off, len)) if *off + *len == r.start => *len += r.end - r.start,
            _ => runs.push((r.start, r.end - r.start)),
        }
    }
    runs
}

/// Copy pass: append each selected row's byte runs, in row order, to
/// `out`. `mask: None` keeps every row; a whole-row run list collapses
/// consecutive survivors into single bulk copies.
pub(super) fn copy_rows(
    data: &[u8],
    w_in: usize,
    mask: Option<&[bool]>,
    runs: &[(usize, usize)],
    out: &mut Vec<u8>,
) {
    let n = data.len() / w_in;
    let keep = |i: usize| mask.map_or(true, |m| m[i]);
    if runs.len() == 1 && runs[0] == (0, w_in) {
        let mut i = 0;
        while i < n {
            let s = i;
            while i < n && keep(i) {
                i += 1;
            }
            out.extend_from_slice(&data[s * w_in..i * w_in]);
            while i < n && !keep(i) {
                i += 1;
            }
        }
    } else {
        for (i, row) in data.chunks_exact(w_in).enumerate() {
            if keep(i) {
                for &(off, len) in runs {
                    out.extend_from_slice(&row[off..off + len]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_support::*;

    #[test]
    fn attr_runs_coalesce_adjacent_attributes() {
        let s = kv_schema(); // (k: Int, v: Int) -> offsets 0, 8
        assert_eq!(attr_runs(&[0, 1], &s), vec![(0, 16)]);
        assert_eq!(attr_runs(&[1, 0], &s), vec![(8, 8), (0, 8)]);
        assert_eq!(attr_runs(&[1], &s), vec![(8, 8)]);
    }

    #[test]
    fn row_filter_matches_eval_ref_on_every_shape() {
        use df_relalg::{CmpOp, Value};
        let s = kv_schema();
        let page = kv_page(&[(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]);
        let preds = vec![
            Predicate::True,
            Predicate::cmp_const(&s, "k", CmpOp::Ge, Value::Int(3)).unwrap(),
            Predicate::cmp_attrs(&s, "k", CmpOp::Lt, "v").unwrap(),
            Predicate::cmp_const(&s, "k", CmpOp::Eq, Value::Int(2))
                .unwrap()
                .or(Predicate::cmp_const(&s, "v", CmpOp::Gt, Value::Int(35)).unwrap()),
            Predicate::cmp_const(&s, "k", CmpOp::Ne, Value::Int(4))
                .unwrap()
                .not(),
        ];
        for p in &preds {
            let preds_slice = std::slice::from_ref(p);
            let filter = RowFilter::compile(preds_slice, &s);
            let mut mask = vec![true; page.len()];
            filter.apply(&page, &mut mask);
            let expect: Vec<bool> = page.tuple_refs().map(|t| p.eval_ref(&t)).collect();
            assert_eq!(mask, expect, "pred {p}");
        }
    }
}
