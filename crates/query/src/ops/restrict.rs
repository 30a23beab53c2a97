//! The restrict (σ) kernel.

use df_relalg::{Page, Predicate, TupleBuf};

use super::{SpanStep, UnaryKernel};

/// Apply `predicate` to every tuple of `page`, returning the survivors —
/// the unit of work an IP performs for one restrict instruction packet:
/// one source page in, up to one page worth of result tuples out.
///
/// Zero-copy restrict: a one-step [`UnaryKernel`], compiled for this call.
/// The predicate's `Int` comparisons run as branchless stride loops AND-ing
/// into a selection mask; runs of consecutive survivors then copy as single
/// `memcpy`s. No tuple is decoded or re-encoded.
pub fn restrict_page_raw(page: &Page, predicate: &Predicate) -> TupleBuf {
    let step = SpanStep::Restrict(predicate.clone());
    UnaryKernel::compile(std::slice::from_ref(&step), page.schema()).run_page(page, page.schema())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_support::*;
    use crate::oracle::restrict_page;
    use df_relalg::{CmpOp, Value};

    #[test]
    fn filters_tuples() {
        let page = kv_page(&[(1, 10), (2, 20), (3, 30)]);
        let p = Predicate::cmp_const(&kv_schema(), "k", CmpOp::Ge, Value::Int(2)).unwrap();
        let out = restrict_page(&page, &p);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], kv(2, 20));
    }

    #[test]
    fn true_predicate_keeps_everything() {
        let page = kv_page(&[(1, 1), (2, 2)]);
        assert_eq!(restrict_page(&page, &Predicate::True).len(), 2);
    }

    #[test]
    fn empty_page_yields_nothing() {
        let page = kv_page(&[]);
        assert!(restrict_page(&page, &Predicate::True).is_empty());
    }

    #[test]
    fn raw_restrict_is_byte_identical_to_decoded() {
        let page = kv_page(&[(1, 10), (2, 20), (3, 30), (4, 40)]);
        let p = Predicate::cmp_const(&kv_schema(), "k", CmpOp::Ge, Value::Int(2))
            .unwrap()
            .and(Predicate::cmp_const(&kv_schema(), "v", CmpOp::Ne, Value::Int(30)).unwrap());
        assert_eq!(
            restrict_page_raw(&page, &p).to_tuples(),
            restrict_page(&page, &p)
        );
    }

    #[test]
    fn preserves_input_order() {
        let page = kv_page(&[(3, 0), (1, 0), (2, 0)]);
        let p = Predicate::cmp_const(&kv_schema(), "k", CmpOp::Le, Value::Int(3)).unwrap();
        let ks: Vec<i64> = restrict_page(&page, &p)
            .iter()
            .map(|t| match t.get(0).unwrap() {
                Value::Int(k) => *k,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ks, vec![3, 1, 2]);
    }
}
