//! Page-at-a-time operator kernels.
//!
//! These functions are the "opcode" implementations an instruction processor
//! runs on the data pages inside an instruction packet (paper Fig 4.3). They
//! work on the encoded tuple images — nothing is decoded — and are what
//! [`crate::Kernel`] dispatches to for every executor. Their independent
//! decoded-[`df_relalg::Tuple`] counterparts live in [`crate::oracle`];
//! neither calls the other — that independence is what makes a machine
//! result matching the oracle's evidence of correctness.

mod join;
mod project;
mod raw;
mod restrict;
mod set_ops;
mod span;
mod sweep;

pub use join::{
    hash_join_pages_raw, hash_join_pages_raw_into, hash_join_probe, hash_join_side_into,
    join_pages_raw,
};
pub use project::project_page_raw;
pub use restrict::restrict_page_raw;
pub use set_ops::{
    cross_pages_raw, cross_pages_raw_into, dedup_pages_raw, dedup_raw_where, difference_pages_raw,
    difference_pages_raw_where, union_pages_raw, union_pages_raw_where,
};
pub use span::{span_output_schema, span_page_raw, SpanStep, UnaryKernel};
pub use sweep::{JoinSweep, KeyClass};

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for kernel tests.
    use df_relalg::{DataType, Page, Schema, Tuple, Value};

    pub fn kv_schema() -> Schema {
        Schema::build()
            .attr("k", DataType::Int)
            .attr("v", DataType::Int)
            .finish()
            .unwrap()
    }

    pub fn kv(k: i64, v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::Int(v)])
    }

    /// A page holding the given (k, v) pairs.
    pub fn kv_page(pairs: &[(i64, i64)]) -> Page {
        let mut p = Page::new(kv_schema(), 16 + 16 * pairs.len().max(1)).unwrap();
        for &(k, v) in pairs {
            p.push(&kv(k, v)).unwrap();
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use df_relalg::Relation;

    /// The oracle packs every result with [`Relation::from_tuples`]: full
    /// pages, the last one partial.
    #[test]
    fn pack_tuples_pages_correctly() {
        let r = Relation::from_tuples("t", kv_schema(), 16 + 32, (0..5).map(|i| kv(i, i))).unwrap();
        assert_eq!(r.num_pages(), 3); // 2 per page
        assert_eq!(r.num_tuples(), 5);
    }
}
