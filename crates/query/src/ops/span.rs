//! The one per-page operator form, [`UnaryKernel`]: select rows, then
//! copy byte ranges. A restrict, bag project or delete filter is one
//! [`SpanStep`], a scan or append none (the identity). A *span* collapses a
//! maximal restrict→project→restrict… chain into one form that evaluates
//! every predicate and the composed projection per tuple over the **input**
//! page's raw bytes and writes only the final survivors — the intermediate
//! pages the paper's cells materialize are never built, so the
//! page-transfer cost between chained unary operators disappears (the
//! `TransferMode::Pipeline` knob; see DESIGN.md §7 for the deviation note).
//!
//! Correctness rests on the canonical encoding: projection is a pure byte
//! re-arrangement, so a predicate written against a projected schema can be
//! *remapped* ([`Predicate::remap`]) onto the original input layout and
//! compare the very same bytes. Restricts only filter and projects are 1:1,
//! so a tuple survives the chain iff it passes the conjunction of all
//! remapped predicates, and the output order is the input order — the fused
//! result is byte-identical to running the steps one page at a time.

use df_relalg::{Page, Predicate, Projection, Schema, TupleBuf};

use super::raw::{attr_runs, copy_rows, RowFilter};

/// One logical operator inside a fused span, in chain order (bottom first).
#[derive(Debug, Clone, PartialEq)]
pub enum SpanStep {
    /// A restriction (σ) applied to the chain's intermediate schema.
    Restrict(Predicate),
    /// A projection (π, no dedup) applied to the chain's intermediate schema.
    Project(Projection),
}

/// A [`SpanStep`] list compiled once, per plan node, against its input
/// schema: every predicate remapped onto the input layout and specialized
/// into a `RowFilter`, the composed projection coalesced into byte runs.
/// The form keeps the steps it was compiled from, so a chain of forms can
/// be fused into one ([`crate::Plan::fuse_spans`]).
#[derive(Debug, Clone)]
pub struct UnaryKernel {
    filter: RowFilter,
    /// `(offset, len)` byte runs of an input tuple, in output order.
    runs: Vec<(usize, usize)>,
    w_in: usize,
    w_out: usize,
    span: Vec<SpanStep>,
}

impl UnaryKernel {
    /// Compile `steps` (bottom first) for pages of `input`.
    ///
    /// # Panics
    /// Panics if a step references an attribute its intermediate schema
    /// lacks (plans are validated before they compile).
    pub fn compile(steps: &[SpanStep], input: &Schema) -> UnaryKernel {
        // Output attribute `j` is input attribute `map[j]`.
        let mut map: Vec<usize> = (0..input.arity()).collect();
        let mut preds = Vec::new();
        for step in steps {
            match step {
                SpanStep::Restrict(p) => preds.push(p.remap(&map)),
                SpanStep::Project(proj) => map = proj.indices().iter().map(|&i| map[i]).collect(),
            }
        }
        let runs = attr_runs(&map, input);
        UnaryKernel {
            filter: RowFilter::compile(&preds, input),
            w_in: input.tuple_width(),
            w_out: runs.iter().map(|&(_, len)| len).sum(),
            runs,
            span: steps.to_vec(),
        }
    }

    /// The logical operators compiled in: 0 for the identity.
    pub fn steps(&self) -> usize {
        self.span.len()
    }

    /// The steps compiled in, bottom first.
    pub fn span(&self) -> &[SpanStep] {
        &self.span
    }

    /// Mask pass: one verdict per tuple of `page`, `true` if kept.
    pub fn select(&self, page: &Page, mask: &mut Vec<bool>) {
        debug_assert_eq!(page.schema().tuple_width(), self.w_in);
        mask.clear();
        mask.resize(page.len(), true);
        self.filter.apply(page, mask);
    }

    /// Copy pass: append the output images of the tuples `mask` selects
    /// (all for `None`), in page order, to `out`.
    pub fn copy(&self, page: &Page, mask: Option<&[bool]>, out: &mut Vec<u8>) {
        copy_rows(page.raw_data(), self.w_in, mask, &self.runs, out);
    }

    /// Both passes over one page: append the images of the tuples the form
    /// keeps to `out`, with `mask` as the mask pass's scratch. A caller
    /// that reuses both across pages allocates nothing per page.
    pub fn pack(&self, page: &Page, mask: &mut Vec<bool>, out: &mut TupleBuf) {
        debug_assert_eq!(out.schema().tuple_width(), self.w_out);
        out.extend_images(|bytes| {
            if self.filter.is_trivial() {
                self.copy(page, None, bytes);
            } else {
                self.select(page, mask);
                self.copy(page, Some(mask), bytes);
            }
        });
    }

    /// Both passes over one page into a batch of its own; `out_schema` is
    /// the last step's output.
    pub fn run_page(&self, page: &Page, out_schema: &Schema) -> TupleBuf {
        let mut out = TupleBuf::new(out_schema.clone());
        out.reserve(page.len());
        self.pack(page, &mut Vec::new(), &mut out);
        out
    }
}

/// Run a fused span over one page without materializing intermediates,
/// compiling its form for this one call. `out_schema` is the final step's
/// output schema (carried by the instruction packet).
pub fn span_page_raw(page: &Page, steps: &[SpanStep], out_schema: &Schema) -> TupleBuf {
    UnaryKernel::compile(steps, page.schema()).run_page(page, out_schema)
}

/// The output schema a span produces when fed `input`: fold each step's
/// schema derivation.
///
/// # Errors
/// Fails if any step references attributes its intermediate schema lacks.
pub fn span_output_schema(input: &Schema, steps: &[SpanStep]) -> df_relalg::Result<Schema> {
    let mut schema = input.clone();
    for step in steps {
        if let SpanStep::Project(proj) = step {
            schema = proj.output_schema(&schema)?;
        }
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_support::*;
    use crate::ops::{project_page_raw, restrict_page_raw};
    use crate::oracle::{project_page, restrict_page};
    use df_relalg::{CmpOp, Tuple, Value};

    fn page() -> Page {
        kv_page(&[(1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60)])
    }

    /// Apply the steps unfused, one materialized TupleBuf per hop.
    fn unfused(page: &Page, steps: &[SpanStep]) -> TupleBuf {
        let mut cur = TupleBuf::from_images(page.schema().clone(), page.raw_data().to_vec());
        for step in steps {
            // Repack the intermediate into a page to reuse the unary kernels.
            let mut p = Page::new(
                cur.schema().clone(),
                16 + cur.schema().tuple_width() * cur.len().max(1),
            )
            .unwrap();
            cur.drain_into(&mut p);
            cur = match step {
                SpanStep::Restrict(pred) => restrict_page_raw(&p, pred),
                SpanStep::Project(proj) => {
                    let out = proj.output_schema(p.schema()).unwrap();
                    project_page_raw(&p, proj, &out)
                }
            };
        }
        cur
    }

    /// The oracle's decoded kernels composed one step at a time, each
    /// intermediate repacked into a single page.
    fn oracle(page: &Page, steps: &[SpanStep]) -> Vec<Tuple> {
        let mut schema = page.schema().clone();
        let mut tuples: Vec<Tuple> = page.tuples().collect();
        for step in steps {
            let size = 16 + schema.tuple_width() * tuples.len().max(1);
            let mut p = Page::new(schema.clone(), size).unwrap();
            for t in &tuples {
                p.push(t).unwrap();
            }
            match step {
                SpanStep::Restrict(pred) => tuples = restrict_page(&p, pred),
                SpanStep::Project(proj) => {
                    tuples = project_page(&p, proj);
                    schema = proj.output_schema(&schema).unwrap();
                }
            }
        }
        tuples
    }

    #[test]
    fn fused_matches_unfused_restrict_project_restrict() {
        let s = kv_schema();
        let steps = vec![
            SpanStep::Restrict(Predicate::cmp_const(&s, "k", CmpOp::Ge, Value::Int(2)).unwrap()),
            SpanStep::Project(Projection::new(&s, &["v", "k"]).unwrap()),
            // After the projection, attribute 0 is `v`.
            SpanStep::Restrict(Predicate::CmpConst {
                index: 0,
                op: CmpOp::Le,
                value: Value::Int(50),
            }),
        ];
        let p = page();
        let out_schema = span_output_schema(p.schema(), &steps).unwrap();
        let fused = span_page_raw(&p, &steps, &out_schema);
        let by_hand = unfused(&p, &steps);
        assert_eq!(fused.to_tuples(), by_hand.to_tuples());
        assert_eq!(fused.len(), 4); // k in 2..=5
        assert_eq!(fused.to_tuples(), oracle(&p, &steps));
    }

    #[test]
    fn projection_chains_compose() {
        let s = kv_schema();
        let steps = vec![
            SpanStep::Project(Projection::new(&s, &["v", "k"]).unwrap()),
            // (v, k) -> keep attribute 1 (= original k).
            SpanStep::Project(Projection::from_indices(&span_single(&s), vec![1]).unwrap()),
        ];
        let p = page();
        let out_schema = span_output_schema(p.schema(), &steps).unwrap();
        assert_eq!(out_schema.attrs()[0].name, "k");
        let fused = span_page_raw(&p, &steps, &out_schema);
        assert_eq!(fused.to_tuples(), oracle(&p, &steps));
        assert_eq!(fused.len(), p.len());
    }

    fn span_single(s: &Schema) -> Schema {
        Projection::new(s, &["v", "k"])
            .unwrap()
            .output_schema(s)
            .unwrap()
    }

    #[test]
    fn empty_page_and_empty_steps() {
        let p = kv_page(&[]);
        let out = span_page_raw(&p, &[], p.schema());
        assert!(out.is_empty());
        let p2 = page();
        // No steps: the span is the identity.
        let out2 = span_page_raw(&p2, &[], p2.schema());
        assert_eq!(out2.len(), p2.len());
        assert_eq!(out2.to_tuples(), p2.tuples().collect::<Vec<_>>());
    }

    #[test]
    fn all_filtered_out_yields_empty() {
        let s = kv_schema();
        let steps = vec![SpanStep::Restrict(
            Predicate::cmp_const(&s, "k", CmpOp::Gt, Value::Int(100)).unwrap(),
        )];
        let p = page();
        let out = span_page_raw(&p, &steps, p.schema());
        assert!(out.is_empty());
    }
}
