//! Base-relation statistics and selectivity estimation.
//!
//! Statistics are exact and per relation: [`RelationStats::gather`] scans
//! one relation's raw tuple images, decoding only its `Int` columns. A
//! [`CatalogStats`] can hold every relation ([`CatalogStats::gather`], the
//! from-scratch form) or only the ones a caller has needed so far. The
//! optimizer looks statistics up only for the relations a tree scans and
//! the target it writes, so a long-lived holder such as df-serve keeps
//! them relation-scoped: [`CatalogStats::refresh`] gathers exactly the
//! relations a query names that it does not hold.
//!
//! Such a holder keeps its entries exact across writes by folding each
//! write's change into them instead of gathering again: it
//! [`CatalogStats::take`]s the target's entry before the write applies and
//! hands it to [`CatalogStats::fold_write`] with the relation after the
//! apply and the write's tuple images. Folding needs each `Int` column's
//! values, kept sorted; an entry keeps them only once a write has reached
//! its relation, so a relation that is only read costs its statistics
//! alone. Whatever such a holder has is what a whole-catalog gather would
//! give for the same relations, so plans do not depend on which form was
//! used.

use std::collections::BTreeMap;
use std::ops::Range;

use df_relalg::{Catalog, CmpOp, DataType, Predicate, Relation, Value};

/// Per-attribute statistics (integer attributes only; strings and booleans
/// fall back to default selectivities).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrStats {
    /// Smallest value observed.
    pub min: i64,
    /// Largest value observed.
    pub max: i64,
    /// Number of distinct values observed.
    pub distinct: usize,
}

/// Statistics for one relation, gathered by one exact scan.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationStats {
    /// Tuple count.
    pub tuples: usize,
    /// Page count.
    pub pages: usize,
    /// Per-attribute stats (index-aligned with the schema; `None` for
    /// non-integer attributes).
    pub attrs: Vec<Option<AttrStats>>,
}

impl RelationStats {
    /// Scan `relation` and compute exact statistics.
    ///
    /// Reads the raw tuple images and decodes only the `Int` columns, one
    /// column at a time into one reused buffer; `sort_unstable` gives
    /// min, max and the distinct count. No `Tuple` or `String` is built
    /// per row, and no column is kept.
    pub fn gather(relation: &Relation) -> RelationStats {
        HeldStats::gather(relation, false).stats
    }

    /// Estimated selectivity of `attr op constant` under uniformity.
    pub fn selectivity(&self, attr: usize, op: CmpOp, value: &Value) -> f64 {
        let Some(Some(st)) = self.attrs.get(attr) else {
            return default_selectivity(op);
        };
        let Value::Int(c) = value else {
            return default_selectivity(op);
        };
        if self.tuples == 0 {
            return 0.0;
        }
        // In i128: the differences of two i64s overflow i64 near its ends.
        let span = (st.max as i128 - st.min as i128) as f64 + 1.0;
        let frac_below = (((*c as i128 - st.min as i128) as f64) / span).clamp(0.0, 1.0);
        let eq = 1.0 / st.distinct.max(1) as f64;
        match op {
            CmpOp::Eq => eq,
            CmpOp::Ne => 1.0 - eq,
            CmpOp::Lt => frac_below,
            CmpOp::Le => (frac_below + eq).min(1.0),
            CmpOp::Gt => 1.0 - (frac_below + eq).min(1.0),
            CmpOp::Ge => 1.0 - frac_below,
        }
    }

    /// Estimated selectivity of an arbitrary predicate (independence
    /// assumption for conjunction/disjunction).
    pub fn predicate_selectivity(&self, predicate: &Predicate) -> f64 {
        match predicate {
            Predicate::True => 1.0,
            Predicate::CmpConst { index, op, value } => self.selectivity(*index, *op, value),
            // Attribute-vs-attribute: classic 1/max(distinct) heuristic.
            Predicate::CmpAttrs { left, op, right } => {
                let d = [*left, *right]
                    .iter()
                    .filter_map(|&i| self.attrs.get(i).copied().flatten())
                    .map(|s| s.distinct)
                    .max()
                    .unwrap_or(10);
                match op {
                    CmpOp::Eq => 1.0 / d.max(1) as f64,
                    CmpOp::Ne => 1.0 - 1.0 / d.max(1) as f64,
                    _ => 1.0 / 3.0,
                }
            }
            Predicate::And(a, b) => self.predicate_selectivity(a) * self.predicate_selectivity(b),
            Predicate::Or(a, b) => {
                let (sa, sb) = (self.predicate_selectivity(a), self.predicate_selectivity(b));
                (sa + sb - sa * sb).min(1.0)
            }
            Predicate::Not(a) => 1.0 - self.predicate_selectivity(a),
        }
    }
}

fn default_selectivity(op: CmpOp) -> f64 {
    match op {
        CmpOp::Eq => 0.1,
        CmpOp::Ne => 0.9,
        _ => 1.0 / 3.0,
    }
}

/// One relation's entry in a [`CatalogStats`]: its statistics and, once a
/// write has reached the relation, each `Int` column's values in ascending
/// order — what [`CatalogStats::fold_write`] folds a write into.
#[derive(Debug, Clone)]
pub struct HeldStats {
    stats: RelationStats,
    /// `(attribute index, sorted values)` for every `Int` attribute; `None`
    /// for an entry whose relation no write has reached.
    columns: Option<Vec<(usize, Vec<i64>)>>,
}

impl HeldStats {
    /// The one gather behind both forms: decode each `Int` column, sort
    /// it and summarize it; keep the sorted columns if `keep_columns`.
    fn gather(relation: &Relation, keep_columns: bool) -> HeldStats {
        let schema = relation.schema();
        let tuples = relation.num_tuples();
        let mut attrs = vec![None; schema.arity()];
        let mut columns = Vec::new();
        let mut column: Vec<i64> = Vec::with_capacity(tuples);
        for (i, attr) in schema.attrs().iter().enumerate() {
            if attr.dtype != DataType::Int {
                continue;
            }
            let range = schema.attr_range(i);
            column.clear();
            column.extend(relation.tuple_refs().map(|t| int_at(t.raw(), &range)));
            column.sort_unstable();
            attrs[i] = summarize(&column);
            if keep_columns {
                columns.push((
                    i,
                    std::mem::replace(&mut column, Vec::with_capacity(tuples)),
                ));
            }
        }
        HeldStats {
            stats: RelationStats {
                tuples,
                pages: relation.num_pages(),
                attrs,
            },
            columns: keep_columns.then_some(columns),
        }
    }

    /// This entry with one applied write folded in, or `None` if a deleted
    /// tuple was not there to delete.
    fn fold(
        mut self,
        relation: &Relation,
        inserts: &[Vec<u8>],
        deletes: &[Vec<u8>],
    ) -> Option<HeldStats> {
        let schema = relation.schema();
        let columns = self.columns.as_mut()?;
        for (i, column) in columns.iter_mut() {
            let range = schema.attr_range(*i);
            let values = |images: &[Vec<u8>]| images.iter().map(|t| int_at(t, &range)).collect();
            let attr = &mut self.stats.attrs[*i];
            let mut distinct = attr.map_or(0, |a| a.distinct);
            if !fold_column(column, &mut distinct, values(inserts), values(deletes)) {
                return None;
            }
            *attr = match (column.first(), column.last()) {
                (Some(&min), Some(&max)) => Some(AttrStats { min, max, distinct }),
                _ => None,
            };
        }
        self.stats.tuples = (self.stats.tuples + inserts.len()).checked_sub(deletes.len())?;
        self.stats.pages = relation.num_pages();
        Some(self)
    }
}

/// The `Int` at `range` of a raw tuple image.
fn int_at(image: &[u8], range: &Range<usize>) -> i64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&image[range.clone()]);
    i64::from_be_bytes(bytes)
}

/// Min, max and distinct count of an ascending column; `None` if empty.
fn summarize(sorted: &[i64]) -> Option<AttrStats> {
    Some(AttrStats {
        min: *sorted.first()?,
        max: *sorted.last()?,
        distinct: 1 + sorted.windows(2).filter(|w| w[0] != w[1]).count(),
    })
}

/// Fold one write into an ascending column and its distinct count: remove
/// one copy of each deleted value, then merge the inserted ones in.
/// `false` if a deleted value is not in the column. Each pass starts at the
/// binary-searched place of the write's smallest value, so a one-tuple
/// write moves what a `Vec::remove` or `Vec::insert` would, and a large
/// write moves each held value at most once. A value counts towards
/// `distinct` only while some copy of it is held, which a binary search
/// tells.
fn fold_column(
    column: &mut Vec<i64>,
    distinct: &mut usize,
    mut inserted: Vec<i64>,
    mut deleted: Vec<i64>,
) -> bool {
    deleted.sort_unstable();
    if let Some(&low) = deleted.first() {
        let mut pending = deleted.iter().peekable();
        let start = column.partition_point(|&v| v < low);
        let mut kept = start;
        for read in start..column.len() {
            let v = column[read];
            if pending.next_if_eq(&&v).is_none() {
                column[kept] = v;
                kept += 1;
            }
        }
        if pending.peek().is_some() {
            return false;
        }
        column.truncate(kept);
        deleted.dedup();
        *distinct -= deleted
            .iter()
            .filter(|v| column.binary_search(v).is_err())
            .count();
    }
    inserted.sort_unstable();
    let mut fresh = inserted.clone();
    fresh.dedup();
    *distinct += fresh
        .iter()
        .filter(|v| column.binary_search(v).is_err())
        .count();
    // Merge from the back: each held value above an inserted one moves up
    // once, by the number of inserted values below it.
    let mut read = column.len();
    column.resize(read + inserted.len(), 0);
    let mut write = column.len();
    for &v in inserted.iter().rev() {
        while read > 0 && column[read - 1] > v {
            read -= 1;
            write -= 1;
            column[write] = column[read];
        }
        write -= 1;
        column[write] = v;
    }
    true
}

/// Statistics for some or all relations of a catalog, keyed by name.
#[derive(Debug, Clone, Default)]
pub struct CatalogStats {
    stats: BTreeMap<String, HeldStats>,
}

impl CatalogStats {
    /// Gather exact statistics for every relation in `db` — the
    /// from-scratch form, and the oracle a relation-scoped holder is
    /// checked against. No column is kept.
    pub fn gather(db: &Catalog) -> CatalogStats {
        CatalogStats {
            stats: db
                .iter()
                .map(|r| (r.name().to_owned(), HeldStats::gather(r, false)))
                .collect(),
        }
    }

    /// Gather every relation of `relations` that `db` holds and this set
    /// does not, and return how many were gathered. Held entries are
    /// trusted: the caller keeps them current through
    /// [`CatalogStats::take`] and [`CatalogStats::fold_write`]. An entry
    /// is inserted only once its scan has finished, so a panic part-way
    /// leaves it absent, never half-built.
    pub fn refresh(&mut self, db: &Catalog, relations: &[String]) -> usize {
        let mut gathered = 0;
        for name in relations {
            if self.stats.contains_key(name) {
                continue;
            }
            if let Some(relation) = db.get(name) {
                self.stats
                    .insert(name.clone(), HeldStats::gather(relation, false));
                gathered += 1;
            }
        }
        gathered
    }

    /// Take `relation`'s entry out before a write to it applies; give it
    /// back through [`CatalogStats::fold_write`] once the write has
    /// applied. Until then the relation has no entry, so a write that
    /// fails or panics leaves its statistics absent, never stale.
    pub fn take(&mut self, relation: &str) -> Option<HeldStats> {
        self.stats.remove(relation)
    }

    /// Fold one applied write into `held`, the entry [`CatalogStats::take`]
    /// returned for `relation` before the apply, and hold the result.
    /// `relation` is the relation after the apply; `inserts` and `deletes`
    /// are the write's tuple images in its encoding
    /// (`df_query::WriteDelta::base_change`). Returns the relations
    /// gathered: an entry without columns (its first write) is gathered
    /// again from `relation`, keeping them, and every later write folds in
    /// without a scan. A delete of a tuple the entry does not hold breaks
    /// the entry's invariant; the entry is dropped.
    pub fn fold_write(
        &mut self,
        held: HeldStats,
        relation: &Relation,
        inserts: &[Vec<u8>],
        deletes: &[Vec<u8>],
    ) -> usize {
        let name = relation.name().to_owned();
        if held.columns.is_none() {
            self.stats.insert(name, HeldStats::gather(relation, true));
            return 1;
        }
        let folded = held.fold(relation, inserts, deletes);
        debug_assert!(
            folded.is_some(),
            "a write to {name} deleted a tuple it does not hold"
        );
        if let Some(folded) = folded {
            self.stats.insert(name, folded);
        }
        0
    }

    /// Statistics for `relation`, if gathered.
    pub fn get(&self, relation: &str) -> Option<&RelationStats> {
        self.stats.get(relation).map(|held| &held.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_relalg::{Schema, Tuple};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn rel() -> Relation {
        let s = Schema::build()
            .attr("k", DataType::Int)
            .attr("name", DataType::Str(4))
            .finish()
            .unwrap();
        Relation::from_tuples(
            "t",
            s,
            256,
            (0..100).map(|i| Tuple::new(vec![Value::Int(i % 50), Value::str("x")])),
        )
        .unwrap()
    }

    #[test]
    fn gather_is_exact() {
        let st = RelationStats::gather(&rel());
        assert_eq!(st.tuples, 100);
        let a = st.attrs[0].unwrap();
        assert_eq!((a.min, a.max, a.distinct), (0, 49, 50));
        assert!(st.attrs[1].is_none(), "string attrs have no int stats");
    }

    #[test]
    fn range_selectivities_are_sane() {
        let st = RelationStats::gather(&rel());
        let half = st.selectivity(0, CmpOp::Lt, &Value::Int(25));
        assert!((half - 0.5).abs() < 0.05, "σ(k<25) ≈ 0.5, got {half}");
        let eq = st.selectivity(0, CmpOp::Eq, &Value::Int(10));
        assert!((eq - 0.02).abs() < 1e-9);
        let none = st.selectivity(0, CmpOp::Lt, &Value::Int(-5));
        assert_eq!(none, 0.0);
        let all = st.selectivity(0, CmpOp::Ge, &Value::Int(-5));
        assert_eq!(all, 1.0);
    }

    /// A span and an offset computed as `i64` differences overflow for
    /// values near `i64::MIN`/`MAX`; the selectivity stays in [0, 1].
    #[test]
    fn selectivity_survives_the_ends_of_i64() {
        let s = Schema::build().attr("k", DataType::Int).finish().unwrap();
        let r = Relation::from_tuples(
            "t",
            s,
            256,
            [i64::MIN, 0, i64::MAX].map(|k| Tuple::new(vec![Value::Int(k)])),
        )
        .unwrap();
        let st = RelationStats::gather(&r);
        for c in [i64::MIN, -1, 0, 1, i64::MAX] {
            for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                let sel = st.selectivity(0, op, &Value::Int(c));
                assert!((0.0..=1.0).contains(&sel), "{op} {c}: {sel}");
            }
        }
        assert_eq!(st.selectivity(0, CmpOp::Lt, &Value::Int(i64::MIN)), 0.0);
        let half = st.selectivity(0, CmpOp::Lt, &Value::Int(0));
        assert!((half - 0.5).abs() < 1e-9, "σ(k<0) ≈ 0.5, got {half}");
    }

    #[test]
    fn predicate_selectivity_composes() {
        let st = RelationStats::gather(&rel());
        let s = st.predicate_selectivity(&Predicate::True);
        assert_eq!(s, 1.0);
        let p = Predicate::CmpConst {
            index: 0,
            op: CmpOp::Lt,
            value: Value::Int(25),
        };
        let and = st.predicate_selectivity(&p.clone().and(p.clone()));
        assert!((and - 0.25).abs() < 0.05);
        let not = st.predicate_selectivity(&p.not());
        assert!((not - 0.5).abs() < 0.05);
    }

    #[test]
    fn catalog_stats_lookup() {
        let mut db = Catalog::new();
        db.insert(rel()).unwrap();
        let cs = CatalogStats::gather(&db);
        assert!(cs.get("t").is_some());
        assert!(cs.get("missing").is_none());
    }

    #[test]
    fn refresh_gathers_only_what_is_missing_and_take_drops() {
        let db = df_workload::generate_database(&df_workload::DatabaseSpec::scaled(0.01));
        let names = |ns: &[&str]| ns.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let full = CatalogStats::gather(&db);
        let mut cs = CatalogStats::default();
        assert_eq!(cs.refresh(&db, &names(&["r01", "r05"])), 2);
        assert_eq!(cs.refresh(&db, &names(&["r01", "r05"])), 0, "both held");
        // Relations the catalog lacks are skipped, not counted.
        assert_eq!(cs.refresh(&db, &names(&["r01", "nope"])), 0);
        assert!(cs.get("nope").is_none());
        assert!(cs.take("r01").is_some());
        assert!(cs.get("r01").is_none());
        assert_eq!(cs.refresh(&db, &names(&["r00", "r01", "r05"])), 2);
        for name in ["r00", "r01", "r05"] {
            assert_eq!(cs.get(name), full.get(name), "{name}");
        }
        assert!(cs.get("r02").is_none(), "never named, never gathered");
    }

    /// Only a relation a write has reached keeps its columns: its first
    /// write gathers it once more, keeping them, and later writes fold in
    /// without a scan. A relation that is only read keeps its statistics
    /// alone.
    #[test]
    fn only_a_written_relation_keeps_its_columns() {
        let db = df_workload::generate_database(&df_workload::DatabaseSpec::scaled(0.01));
        let full = CatalogStats::gather(&db);
        let mut cs = CatalogStats::default();
        cs.refresh(&db, &["r01".to_string(), "r05".to_string()]);
        let r01 = db.get("r01").unwrap();
        let held = cs.take("r01").unwrap();
        assert!(held.columns.is_none(), "a refresh keeps no column");
        assert_eq!(
            cs.fold_write(held, r01, &[], &[]),
            1,
            "the first write gathers"
        );
        let held = cs.take("r01").unwrap();
        assert!(
            held.columns.is_some(),
            "a written relation keeps its columns"
        );
        assert_eq!(cs.fold_write(held, r01, &[], &[]), 0, "later writes fold");
        assert_eq!(cs.get("r01"), full.get("r01"));
        assert!(cs.stats["r05"].columns.is_none(), "r05 is only read");
    }

    /// A delete of a tuple the entry does not hold breaks its invariant:
    /// a debug build stops there, a release build drops the entry.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "does not hold"))]
    fn a_delete_of_a_value_not_held_drops_the_entry() {
        let relation = relation_of(&[DataType::Int], vec![vec![Value::Int(1)]], 4);
        let stray = relation_of(&[DataType::Int], vec![vec![Value::Int(2)]], 4);
        let stray: Vec<Vec<u8>> = stray.tuple_refs().map(|t| t.raw().to_vec()).collect();
        let mut cs = CatalogStats::default();
        let held = HeldStats::gather(&relation, true);
        assert_eq!(cs.fold_write(held, &relation, &[], &stray), 0);
        assert!(cs.get("t").is_none());
    }

    /// The pre-raw gather: decode every tuple and collect each `Int`
    /// column into a `BTreeSet`. Kept only as the reference the raw
    /// gather must equal.
    fn gather_reference(relation: &Relation) -> RelationStats {
        let arity = relation.schema().arity();
        let mut mins = vec![i64::MAX; arity];
        let mut maxs = vec![i64::MIN; arity];
        let mut values: Vec<std::collections::BTreeSet<i64>> = vec![Default::default(); arity];
        let mut tuples = 0usize;
        for t in relation.tuples() {
            tuples += 1;
            for (i, v) in t.values().iter().enumerate() {
                if let Value::Int(x) = v {
                    mins[i] = mins[i].min(*x);
                    maxs[i] = maxs[i].max(*x);
                    values[i].insert(*x);
                }
            }
        }
        let attrs = (0..arity)
            .map(|i| {
                (!values[i].is_empty()).then(|| AttrStats {
                    min: mins[i],
                    max: maxs[i],
                    distinct: values[i].len(),
                })
            })
            .collect();
        RelationStats {
            tuples,
            pages: relation.num_pages(),
            attrs,
        }
    }

    /// A relation of the given column types holding `rows`, `per_page`
    /// tuples to a page (16-byte page header).
    fn relation_of(types: &[DataType], rows: Vec<Vec<Value>>, per_page: usize) -> Relation {
        let schema = types
            .iter()
            .enumerate()
            .fold(Schema::build(), |b, (i, &t)| b.attr(&format!("a{i}"), t))
            .finish()
            .unwrap();
        let page_size = 16 + per_page * schema.tuple_width();
        Relation::from_tuples("t", schema, page_size, rows.into_iter().map(Tuple::new)).unwrap()
    }

    fn value_of(dtype: DataType) -> BoxedStrategy<Value> {
        match dtype {
            DataType::Int => prop_oneof![
                Just(i64::MIN),
                Just(i64::MAX),
                -3i64..=3, // duplicate-heavy
                any::<i64>(),
            ]
            .prop_map(Value::Int)
            .boxed(),
            DataType::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
            DataType::Str(n) => prop::collection::vec(prop::char::range('a', 'c'), 0..=n as usize)
                .prop_map(|cs| Value::Str(cs.into_iter().collect()))
                .boxed(),
        }
    }

    /// A page-level delete leaves partial pages in the middle; the page
    /// count is the pages the relation really holds, not its tuples over
    /// the page capacity.
    #[test]
    fn gather_counts_partial_middle_pages() {
        let packed = relation_of(
            &[DataType::Int],
            (0..9).map(|i| vec![Value::Int(i)]).collect(),
            4,
        );
        let mut sparse = Relation::new("t", packed.schema().clone(), packed.page_size()).unwrap();
        for page in packed.pages() {
            let mut p = df_relalg::Page::new(packed.schema().clone(), packed.page_size()).unwrap();
            p.push(&page.get(0).unwrap()).unwrap();
            sparse.append_page(p).unwrap();
        }
        let st = RelationStats::gather(&sparse);
        assert_eq!((st.tuples, st.pages), (3, 3));
        assert_eq!(st, gather_reference(&sparse));
    }

    #[test]
    fn raw_gather_of_an_empty_relation_has_no_attr_stats() {
        let empty = relation_of(&[DataType::Int, DataType::Str(3)], Vec::new(), 4);
        let st = RelationStats::gather(&empty);
        assert_eq!(st, gather_reference(&empty));
        assert_eq!((st.tuples, st.pages), (0, 0));
        assert_eq!(st.attrs, vec![None, None]);
    }

    /// One write to `relation`, applied the way a write lands: `Insert`
    /// appends its rows as new pages; `Delete` drops each tuple whose
    /// position's bit is set in the mask (position mod 64), keeping the
    /// survivors of a page on a page of their own and dropping emptied
    /// pages, so middle pages go partial. Returns the relation after the
    /// write and its `(inserts, deletes)` images.
    #[derive(Debug, Clone)]
    enum Write {
        Insert(Vec<Vec<Value>>),
        Delete(u64),
    }

    type Images = Vec<Vec<u8>>;

    fn apply(relation: &Relation, write: &Write) -> (Relation, Images, Images) {
        let (schema, page_size) = (relation.schema(), relation.page_size());
        let mut after = Relation::new("t", schema.clone(), page_size).unwrap();
        let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
        match write {
            Write::Insert(rows) => {
                for page in relation.pages() {
                    after.append_page(Arc::clone(page)).unwrap();
                }
                let per_page = (page_size - 16) / schema.tuple_width();
                let types: Vec<DataType> = schema.attrs().iter().map(|a| a.dtype).collect();
                for page in relation_of(&types, rows.clone(), per_page).pages() {
                    inserts.extend(page.tuple_refs().map(|t| t.raw().to_vec()));
                    after.append_page(Arc::clone(page)).unwrap();
                }
            }
            Write::Delete(mask) => {
                let mut position = 0;
                for page in relation.pages() {
                    let mut kept = df_relalg::Page::new(schema.clone(), page_size).unwrap();
                    for t in page.tuple_refs() {
                        if mask >> (position % 64) & 1 == 1 {
                            deletes.push(t.raw().to_vec());
                        } else {
                            kept.push_ref(&t).unwrap();
                        }
                        position += 1;
                    }
                    if !kept.is_empty() {
                        after.append_page(kept).unwrap();
                    }
                }
            }
        }
        (after, inserts, deletes)
    }

    /// Fold `writes` one by one into an entry gathered with its columns;
    /// after each, the entry equals the reference gather of the relation.
    fn fold_matches_reference(mut relation: Relation, writes: &[Write]) {
        let mut held = HeldStats::gather(&relation, true);
        for (step, write) in writes.iter().enumerate() {
            let (after, inserts, deletes) = apply(&relation, write);
            held = held
                .fold(&after, &inserts, &deletes)
                .unwrap_or_else(|| panic!("step {step}: a deleted tuple was not held"));
            assert_eq!(
                held.stats,
                gather_reference(&after),
                "step {step}: {write:?}"
            );
            relation = after;
        }
    }

    /// Duplicates and the ends of `i64`: deleting one of several copies
    /// of the min and of the max keeps them; deleting the last copy moves
    /// them. Emptying the relation takes `attrs` back to `None`, and a
    /// refill brings them back.
    #[test]
    fn fold_tracks_duplicates_extremes_emptying_and_refilling() {
        let row = |k: i64| vec![Value::Int(k), Value::str("x")];
        // Pages [MIN, 7] [MIN, 0] [MAX, MAX].
        let rows = [i64::MIN, 7, i64::MIN, 0, i64::MAX, i64::MAX].map(row);
        let relation = relation_of(&[DataType::Int, DataType::Str(2)], rows.to_vec(), 2);
        fold_matches_reference(
            relation,
            &[
                Write::Delete(0b100),  // one of two MINs; the middle page goes partial
                Write::Delete(0b1),    // the last MIN: min is 0
                Write::Delete(0b1000), // one of two MAXs
                Write::Delete(0b100),  // the last MAX: max is 7
                Write::Insert(vec![row(0), row(i64::MAX)]),
                Write::Delete(u64::MAX), // empty: attrs back to None
                Write::Insert(vec![row(-3), row(-3)]),
            ],
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Folding random insert/delete sequences into an entry keeps it
        /// equal to the reference gather of the resulting relation, over
        /// mixed schemas, duplicate-heavy and extreme `Int`s, relations
        /// emptied and refilled, and partial middle pages.
        #[test]
        fn folded_writes_equal_a_reference_gather(
            (types, rows, per_page, writes) in prop::collection::vec(
                prop_oneof![
                    Just(DataType::Int),
                    Just(DataType::Int),
                    Just(DataType::Bool),
                    (1u16..=4).prop_map(DataType::Str),
                ],
                1..=4,
            )
            .prop_flat_map(|types| {
                let row: Vec<BoxedStrategy<Value>> = types.iter().map(|&t| value_of(t)).collect();
                let write = prop_oneof![
                    prop::collection::vec(row.clone(), 1..=6).prop_map(Write::Insert),
                    prop_oneof![
                        Just(u64::MAX),
                        (0u32..64).prop_map(|bit| 1u64 << bit),
                        any::<u64>(),
                    ]
                    .prop_map(Write::Delete),
                ];
                (
                    Just(types),
                    prop::collection::vec(row, 0..=40),
                    1usize..=5,
                    prop::collection::vec(write, 1..=12),
                )
            })
        ) {
            fold_matches_reference(relation_of(&types, rows, per_page), &writes);
        }

        /// The raw gather equals the decoded `BTreeSet` reference —
        /// `tuples`, `pages` and every `attrs[i]` — over mixed `Int` /
        /// `Bool` / `Str(n)` schemas, extreme and duplicate-heavy `Int`s,
        /// empty and multi-page relations.
        #[test]
        fn raw_gather_equals_decoded_reference(
            (types, rows, per_page) in prop::collection::vec(
                prop_oneof![
                    Just(DataType::Int),
                    Just(DataType::Bool),
                    (1u16..=6).prop_map(DataType::Str),
                ],
                1..=5,
            )
            .prop_flat_map(|types| {
                let row: Vec<BoxedStrategy<Value>> = types.iter().map(|&t| value_of(t)).collect();
                (Just(types), prop::collection::vec(row, 0..=120), 1usize..=9)
            })
        ) {
            let relation = relation_of(&types, rows, per_page);
            prop_assert_eq!(RelationStats::gather(&relation), gather_reference(&relation));
        }
    }
}
