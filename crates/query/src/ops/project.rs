//! The project (π) kernel and duplicate elimination.
//!
//! Paper §5 reports the authors had "not yet developed an algorithm for
//! which a high degree of parallelism can be maintained" for projection
//! with duplicate elimination. We therefore split the operator exactly the
//! way their machines would have to:
//!
//! 1. [`project_page_raw`] — the embarrassingly parallel part (attribute
//!    elimination), run per page on any IP;
//! 2. [`super::dedup_raw_where`] — the blocking part (duplicate
//!    elimination), run where the projected stream is gathered (the IC
//!    that owns the project instruction).

use df_relalg::{Page, Projection, Schema, TupleBuf};

use super::{SpanStep, UnaryKernel};

/// Zero-copy projection: builds each output image by copying the selected
/// attributes' byte ranges out of the input image — no value is decoded.
/// `out_schema` is the projection's output schema (derived once by the
/// caller, typically carried by the instruction packet). A one-step
/// [`UnaryKernel`], compiled for this call: the selected ranges coalesce
/// into contiguous byte runs, so an adjacent-attribute projection is one
/// memcpy per row.
pub fn project_page_raw(page: &Page, projection: &Projection, out_schema: &Schema) -> TupleBuf {
    let step = SpanStep::Project(projection.clone());
    UnaryKernel::compile(std::slice::from_ref(&step), page.schema()).run_page(page, out_schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_support::*;
    use crate::oracle::{dedup_tuples, project_page};
    use df_relalg::Value;

    #[test]
    fn projects_attributes() {
        let page = kv_page(&[(1, 10), (2, 20)]);
        let proj = Projection::new(&kv_schema(), &["v"]).unwrap();
        let out = project_page(&page, &proj);
        assert_eq!(out[0].values(), &[Value::Int(10)]);
        assert_eq!(out[1].values(), &[Value::Int(20)]);
    }

    #[test]
    fn projection_can_reorder() {
        let page = kv_page(&[(1, 10)]);
        let proj = Projection::new(&kv_schema(), &["v", "k"]).unwrap();
        let out = project_page(&page, &proj);
        assert_eq!(out[0].values(), &[Value::Int(10), Value::Int(1)]);
    }

    #[test]
    fn raw_project_matches_decoded_including_reorder() {
        let page = kv_page(&[(1, 10), (2, 20), (3, 30)]);
        for names in [&["v"][..], &["v", "k"][..], &["k", "v"][..]] {
            let proj = Projection::new(&kv_schema(), names).unwrap();
            let out_schema = proj.output_schema(&kv_schema()).unwrap();
            assert_eq!(
                project_page_raw(&page, &proj, &out_schema).to_tuples(),
                project_page(&page, &proj),
                "projection {names:?}"
            );
        }
    }

    #[test]
    fn dedup_removes_duplicates_keeping_first() {
        let ts = vec![kv(1, 1), kv(2, 2), kv(1, 1), kv(3, 3), kv(2, 2)];
        let out = dedup_tuples(ts);
        assert_eq!(out, vec![kv(1, 1), kv(2, 2), kv(3, 3)]);
    }

    #[test]
    fn dedup_of_unique_stream_is_identity() {
        let ts = vec![kv(1, 1), kv(2, 2)];
        assert_eq!(dedup_tuples(ts.clone()), ts);
    }

    #[test]
    fn projection_then_dedup_models_distinct() {
        // π_v over (1,7),(2,7),(3,8) with dedup -> {7, 8}
        let page = kv_page(&[(1, 7), (2, 7), (3, 8)]);
        let proj = Projection::new(&kv_schema(), &["v"]).unwrap();
        let out = dedup_tuples(project_page(&page, &proj));
        assert_eq!(out.len(), 2);
    }
}
