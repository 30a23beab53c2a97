//! Cross product, union, and difference kernels.

use std::collections::HashSet;

use df_relalg::{Page, Schema, TupleBuf, TupleRef};

/// Cross product of one page pair (the join kernel with θ ≡ true, kept
/// separate so metrics can distinguish the operators), zero-copy: every
/// output row is the concatenation of two
/// borrowed images.
pub fn cross_pages_raw(outer: &Page, inner: &Page, out_schema: &Schema) -> TupleBuf {
    let mut out = TupleBuf::new(out_schema.clone());
    cross_pages_raw_into(outer, inner, &mut out);
    out
}

/// [`cross_pages_raw`] appending to a caller-supplied batch (whose schema
/// must be the concatenated output schema). The output size is known, so
/// room for all n·m rows is reserved up front.
pub fn cross_pages_raw_into(outer: &Page, inner: &Page, out: &mut TupleBuf) {
    out.reserve(outer.len() * inner.len());
    let (wo, wi) = (outer.schema().tuple_width(), inner.schema().tuple_width());
    for o in outer.raw_data().chunks_exact(wo) {
        for i in inner.raw_data().chunks_exact(wi) {
            out.push_concat(o, i);
        }
    }
}

/// First-occurrence duplicate elimination over raw tuple images, restricted
/// to the tuples `keep` accepts — the one loop behind every set finalizer.
/// Membership hashes the images themselves (the encoding is canonical —
/// images are equal exactly when tuples are), so nothing is decoded.
/// `keep` is how a machine runs one hash bucket of a partitioned
/// finalizer; the serial finalizers pass `|_| true`.
pub fn dedup_raw_where<'a>(
    tuples: impl IntoIterator<Item = TupleRef<'a>>,
    schema: &Schema,
    keep: impl Fn(&TupleRef<'a>) -> bool,
) -> TupleBuf {
    let mut seen: HashSet<&[u8]> = HashSet::new();
    let mut out = TupleBuf::new(schema.clone());
    for t in tuples {
        if keep(&t) && seen.insert(t.raw()) {
            out.push_ref(&t);
        }
    }
    out
}

fn refs<'a>(pages: &'a [&'a Page]) -> impl Iterator<Item = TupleRef<'a>> {
    pages.iter().flat_map(|p| p.tuple_refs())
}

/// Zero-copy set union over complete page lists, in first-occurrence order
/// like the oracle's [`crate::oracle::union_relations`].
pub fn union_pages_raw(left: &[&Page], right: &[&Page], schema: &Schema) -> TupleBuf {
    union_pages_raw_where(left, right, schema, |_| true)
}

/// [`union_pages_raw`] over the tuples `keep` accepts.
pub fn union_pages_raw_where<'a>(
    left: &'a [&'a Page],
    right: &'a [&'a Page],
    schema: &Schema,
    keep: impl Fn(&TupleRef<'a>) -> bool,
) -> TupleBuf {
    dedup_raw_where(refs(left).chain(refs(right)), schema, keep)
}

/// Zero-copy set difference `left − right` over complete page lists.
pub fn difference_pages_raw(left: &[&Page], right: &[&Page], schema: &Schema) -> TupleBuf {
    difference_pages_raw_where(left, right, schema, |_| true)
}

/// [`difference_pages_raw`] over the tuples `keep` accepts (on both sides:
/// equal tuples are kept or dropped together, so a dropped `right` tuple
/// could only have excluded dropped `left` tuples).
pub fn difference_pages_raw_where<'a>(
    left: &'a [&'a Page],
    right: &'a [&'a Page],
    schema: &Schema,
    keep: impl Fn(&TupleRef<'a>) -> bool,
) -> TupleBuf {
    let exclude: HashSet<&[u8]> = refs(right).filter(&keep).map(|t| t.raw()).collect();
    dedup_raw_where(refs(left), schema, |t| {
        keep(t) && !exclude.contains(t.raw())
    })
}

/// Zero-copy duplicate elimination over complete page lists — the π-dedup
/// finalizer's hot path.
pub fn dedup_pages_raw(pages: &[&Page], schema: &Schema) -> TupleBuf {
    dedup_raw_where(refs(pages), schema, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_support::*;
    use crate::oracle::{cross_pages, dedup_tuples, difference_relations, union_relations};
    use df_relalg::Relation;

    fn rel(pairs: &[(i64, i64)]) -> Relation {
        Relation::from_tuples(
            "t",
            kv_schema(),
            16 + 32,
            pairs.iter().map(|&(k, v)| kv(k, v)),
        )
        .unwrap()
    }

    #[test]
    fn cross_is_full_product() {
        let a = kv_page(&[(1, 1), (2, 2)]);
        let b = kv_page(&[(9, 9), (8, 8), (7, 7)]);
        assert_eq!(cross_pages(&a, &b).len(), 6);
        assert_eq!(cross_pages(&a, &kv_page(&[])).len(), 0);
    }

    #[test]
    fn union_removes_duplicates() {
        let a = rel(&[(1, 1), (2, 2), (2, 2)]);
        let b = rel(&[(2, 2), (3, 3)]);
        let out = union_relations(&a, &b).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn raw_set_ops_match_decoded_kernels() {
        let a = rel(&[(1, 1), (2, 2), (2, 2), (3, 3), (1, 1)]);
        let b = rel(&[(2, 2), (4, 4), (4, 4)]);
        let s = kv_schema();
        let ap: Vec<&df_relalg::Page> = a.pages().iter().map(|p| p.as_ref()).collect();
        let bp: Vec<&df_relalg::Page> = b.pages().iter().map(|p| p.as_ref()).collect();
        assert_eq!(
            union_pages_raw(&ap, &bp, &s).to_tuples(),
            union_relations(&a, &b).unwrap()
        );
        assert_eq!(
            difference_pages_raw(&ap, &bp, &s).to_tuples(),
            difference_relations(&a, &b).unwrap()
        );
        assert_eq!(
            dedup_pages_raw(&ap, &s).to_tuples(),
            dedup_tuples(a.tuples())
        );
        // Cross product, raw vs decoded.
        let out_schema = s.concat(&s);
        assert_eq!(
            cross_pages_raw(ap[0], bp[0], &out_schema).to_tuples(),
            cross_pages(ap[0], bp[0])
        );
    }

    #[test]
    fn union_incompatible_schemas_fail() {
        let a = rel(&[(1, 1)]);
        let other_schema = df_relalg::Schema::build()
            .attr("z", df_relalg::DataType::Int)
            .finish()
            .unwrap();
        let b = Relation::new("b", other_schema, 100).unwrap();
        assert!(union_relations(&a, &b).is_err());
    }

    #[test]
    fn difference_subtracts_and_dedups() {
        let a = rel(&[(1, 1), (2, 2), (2, 2), (3, 3)]);
        let b = rel(&[(2, 2)]);
        let out = difference_relations(&a, &b).unwrap();
        assert_eq!(out, vec![kv(1, 1), kv(3, 3)]);
    }

    #[test]
    fn difference_with_empty_right_is_dedup_of_left() {
        let a = rel(&[(1, 1), (1, 1)]);
        let b = rel(&[]);
        assert_eq!(difference_relations(&a, &b).unwrap().len(), 1);
    }
}
