//! Property-based tests for the relational model's core invariants.

use std::sync::Arc;

use df_relalg::{
    DataType, Page, Relation, Schema, SideEntry, SideKeyColumn, SideKeyIndex, Tuple, Value,
    PAGE_HEADER_BYTES,
};
use proptest::prelude::*;

/// Strategy: an arbitrary schema of 1..=6 attributes.
fn arb_schema() -> impl Strategy<Value = Schema> {
    prop::collection::vec(
        prop_oneof![
            Just(DataType::Int),
            Just(DataType::Bool),
            (1u16..24).prop_map(DataType::Str),
        ],
        1..=6,
    )
    .prop_map(|types| {
        let mut b = Schema::build();
        for (i, t) in types.into_iter().enumerate() {
            b = b.attr(&format!("a{i}"), t);
        }
        b.finish().expect("generated names are unique")
    })
}

/// Strategy: a value inhabiting `dtype`.
fn arb_value(dtype: DataType) -> BoxedStrategy<Value> {
    match dtype {
        DataType::Int => any::<i64>().prop_map(Value::Int).boxed(),
        DataType::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
        DataType::Str(n) => prop::collection::vec(prop::char::range('a', 'z'), 0..=n as usize)
            .prop_map(|cs| Value::Str(cs.into_iter().collect()))
            .boxed(),
    }
}

/// Strategy: a (schema, tuples) pair where every tuple conforms.
fn arb_schema_and_tuples(max_tuples: usize) -> impl Strategy<Value = (Schema, Vec<Tuple>)> {
    arb_schema().prop_flat_map(move |schema| {
        let tuple_strat = schema
            .attrs()
            .iter()
            .map(|a| arb_value(a.dtype))
            .collect::<Vec<_>>()
            .prop_map(Tuple::new);
        (
            Just(schema),
            prop::collection::vec(tuple_strat, 0..=max_tuples),
        )
    })
}

proptest! {
    /// encode ∘ decode = identity for conforming tuples.
    #[test]
    fn tuple_encode_decode_round_trip((schema, tuples) in arb_schema_and_tuples(16)) {
        for t in &tuples {
            let mut buf = Vec::new();
            t.encode(&schema, &mut buf).unwrap();
            prop_assert_eq!(buf.len(), schema.tuple_width());
            let back = Tuple::decode(&schema, &buf).unwrap();
            prop_assert_eq!(&back, t);
        }
    }

    /// A page never exceeds its configured byte size and never loses tuples.
    #[test]
    fn page_respects_size_and_preserves_tuples((schema, tuples) in arb_schema_and_tuples(32)) {
        let page_size = PAGE_HEADER_BYTES + schema.tuple_width() * 4;
        let mut pages = vec![Page::new(schema.clone(), page_size).unwrap()];
        for t in &tuples {
            if pages.last().unwrap().is_full() {
                pages.push(Page::new(schema.clone(), page_size).unwrap());
            }
            pages.last_mut().unwrap().push(t).unwrap();
        }
        let mut seen = Vec::new();
        for p in &pages {
            prop_assert!(p.wire_bytes() <= page_size);
            prop_assert!(p.len() <= p.capacity());
            seen.extend(p.tuples());
        }
        prop_assert_eq!(seen, tuples);
    }

    /// Relation::append distributes tuples over pages without loss or
    /// reordering, for any page size that can hold at least one tuple.
    #[test]
    fn relation_append_preserves_order(
        (schema, tuples) in arb_schema_and_tuples(64),
        extra_slots in 0usize..8,
    ) {
        let page_size = PAGE_HEADER_BYTES + schema.tuple_width() * (1 + extra_slots);
        let r = Relation::from_tuples("t", schema.clone(), page_size, tuples.clone()).unwrap();
        prop_assert_eq!(r.num_tuples(), tuples.len());
        let back: Vec<Tuple> = r.tuples().collect();
        prop_assert_eq!(back, tuples);
        // All pages except possibly the last are full.
        if let Some((last, rest)) = r.pages().split_last() {
            for p in rest {
                prop_assert!(p.is_full());
            }
            prop_assert!(!last.is_empty());
        }
    }

    /// Compaction preserves multiset contents and leaves at most one
    /// non-full page.
    #[test]
    fn compaction_invariants((schema, tuples) in arb_schema_and_tuples(48)) {
        let page_size = PAGE_HEADER_BYTES + schema.tuple_width() * 5;
        // Build a deliberately fragmented relation: one tuple per page.
        let mut r = Relation::new("frag", schema.clone(), page_size).unwrap();
        for t in &tuples {
            let mut p = Page::new(schema.clone(), page_size).unwrap();
            p.push(t).unwrap();
            r.append_page(p).unwrap();
        }
        let reference = r.clone();
        r.compact();
        prop_assert!(r.same_contents(&reference));
        let non_full = r.pages().iter().filter(|p| !p.is_full()).count();
        prop_assert!(non_full <= 1);
        prop_assert!(r.pages().iter().all(|p| !p.is_empty()));
    }

    /// same_contents is insensitive to tuple order (it is multiset equality).
    #[test]
    fn same_contents_is_order_insensitive((schema, mut tuples) in arb_schema_and_tuples(24)) {
        let a = Relation::from_tuples("a", schema.clone(), PAGE_HEADER_BYTES + schema.tuple_width() * 3, tuples.clone()).unwrap();
        tuples.reverse();
        let b = Relation::from_tuples("b", schema.clone(), PAGE_HEADER_BYTES + schema.tuple_width() * 7, tuples).unwrap();
        prop_assert!(a.same_contents(&b));
    }

    /// Schema::concat always yields unique names and the summed width.
    #[test]
    fn concat_width_and_uniqueness(left in arb_schema(), right in arb_schema()) {
        let joined = left.concat(&right);
        prop_assert_eq!(joined.arity(), left.arity() + right.arity());
        prop_assert_eq!(joined.tuple_width(), left.tuple_width() + right.tuple_width());
        let mut names: Vec<_> = joined.attrs().iter().map(|a| a.name.clone()).collect();
        names.sort();
        names.dedup();
        prop_assert_eq!(names.len(), joined.arity());
    }
}

/// Key `i` of a ten-key domain of `dtype`, distinct for every `i`.
fn domain_key(dtype: DataType, i: u8) -> Value {
    match dtype {
        DataType::Str(_) => Value::str(&char::from(b'a' + i).to_string()),
        _ => Value::Int((i64::from(i) - 5) * ((1 << 32) + 7)),
    }
}

fn encoded(v: &Value, dtype: DataType) -> Vec<u8> {
    let mut out = Vec::new();
    v.encode(dtype, &mut out).unwrap();
    out
}

proptest! {
    /// A join side extended by delivered batches holds exactly what the
    /// same pages give extended one at a time, and what a per-tuple model
    /// of `(page ordinal, slot)` gives: every key's probe (eight present
    /// keys and two absent ones) at every bound, each probed entry's image,
    /// a key column's prefixes and images, and the pages themselves.
    /// Batches hold empty pages, a batch may be empty, and keys are `Int`
    /// (the word map and the key column) or `Str(n)` (the byte map, or the
    /// word map at `Str(8)`).
    #[test]
    fn side_extended_by_batches_equals_pages_one_at_a_time(
        dtype in prop_oneof![Just(DataType::Int), (1u16..12).prop_map(DataType::Str)],
        batch_keys in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u8..8, 0..6), 0..4),
            0..6,
        ),
    ) {
        let schema = Schema::build()
            .attr("k", dtype)
            .attr("v", DataType::Int)
            .finish()
            .unwrap();
        let page_size = PAGE_HEADER_BYTES + schema.tuple_width() * 6;
        let page = |keys: &[u8]| {
            let mut p = Page::new(schema.clone(), page_size).unwrap();
            for (slot, &k) in keys.iter().enumerate() {
                let row = vec![domain_key(dtype, k), Value::Int(slot as i64)];
                p.push(&Tuple::new(row)).unwrap();
            }
            Arc::new(p)
        };
        let batches: Vec<Vec<Arc<Page>>> = (batch_keys.iter())
            .map(|batch| batch.iter().map(|keys| page(keys)).collect())
            .collect();
        let pages = batches.concat();
        let page_keys = batch_keys.concat();
        // The model: key `i`'s entries among the first `upto` pages.
        let model = |i: u8, upto: usize| -> Vec<SideEntry> {
            (page_keys[..upto].iter().enumerate())
                .flat_map(|(ordinal, keys)| {
                    (keys.iter().enumerate())
                        .filter(move |&(_, &k)| k == i)
                        .map(move |(slot, _)| (ordinal as u32, slot as u32))
                })
                .collect()
        };
        let tuples: usize = page_keys.iter().map(Vec::len).sum();

        let (mut batched, mut single) = (SideKeyIndex::new(0), SideKeyIndex::new(0));
        let indexed: usize = batches.iter().map(|batch| batched.extend(batch)).sum();
        for page in &pages {
            single.extend(std::slice::from_ref(page));
        }
        prop_assert_eq!(indexed, tuples);
        for side in [&batched, &single] {
            let received = side.received().pages();
            prop_assert_eq!(received.len(), pages.len());
            prop_assert!(received.iter().zip(&pages).all(|(a, b)| Arc::ptr_eq(a, b)));
        }
        for upto in 0..=pages.len() {
            for i in 0..10 {
                let key = encoded(&domain_key(dtype, i), dtype);
                let got: Vec<SideEntry> = batched.probe(&key, upto).collect();
                let one_at_a_time: Vec<SideEntry> = single.probe(&key, upto).collect();
                prop_assert_eq!(&got, &one_at_a_time, "key {} upto {}", i, upto);
                prop_assert_eq!(&got, &model(i, upto), "key {} upto {}", i, upto);
                for &entry in &got {
                    let image = batched.received().image(entry);
                    prop_assert!(image.starts_with(&key));
                    prop_assert_eq!(image, single.received().image(entry));
                }
            }
        }

        // A key column keys `Int`s alone.
        if dtype == DataType::Int {
            let (mut batched, mut single) = (SideKeyColumn::new(0), SideKeyColumn::new(0));
            let keyed: usize = batches.iter().map(|batch| batched.extend(batch)).sum();
            for page in &pages {
                single.extend(std::slice::from_ref(page));
            }
            prop_assert_eq!(keyed, tuples);
            prop_assert_eq!(batched.received().len(), pages.len());
            for upto in 0..=pages.len() {
                let want: Vec<i64> = (page_keys[..upto].iter().flatten())
                    .map(|&k| match domain_key(dtype, k) {
                        Value::Int(k) => k,
                        other => unreachable!("an Int key: {other}"),
                    })
                    .collect();
                prop_assert_eq!(batched.keys(upto), &want[..], "upto {}", upto);
                prop_assert_eq!(single.keys(upto), &want[..], "upto {}", upto);
            }
            for at in 0..tuples {
                prop_assert_eq!(batched.image(at), single.image(at));
            }
            let images: Vec<&[u8]> = (0..tuples).map(|at| batched.image(at)).collect();
            let rows: Vec<&[u8]> = (pages.iter())
                .flat_map(|p| p.raw_data().chunks_exact(schema.tuple_width()))
                .collect();
            prop_assert_eq!(images, rows);
        }
    }
}
