//! Base-relation statistics and selectivity estimation.
//!
//! Statistics are exact and per relation: [`RelationStats::gather`] scans
//! one relation's raw tuple images, decoding only its `Int` columns. A
//! [`CatalogStats`] can hold every relation ([`CatalogStats::gather`], the
//! from-scratch form) or only the ones a caller has needed so far. The
//! optimizer looks statistics up only for the relations a tree scans and
//! the target it writes, so a long-lived holder such as df-serve keeps
//! them relation-scoped: [`CatalogStats::refresh`] gathers exactly the
//! relations a query names that it does not hold, and
//! [`CatalogStats::invalidate`] drops the ones a write changed. Whatever
//! such a holder has is then what a whole-catalog gather would give for
//! the same relations, so plans do not depend on which form was used.

use std::collections::BTreeMap;

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
    /// column at a time into one reused buffer; `sort_unstable` + `dedup`
    /// give min, max and the distinct count. No `Tuple` or `String` is
    /// built per row.
    pub fn gather(relation: &Relation) -> RelationStats {
        let schema = relation.schema();
        let tuples = relation.num_tuples();
        let mut attrs = vec![None; schema.arity()];
        let mut column: Vec<i64> = Vec::with_capacity(tuples);
        for (i, attr) in schema.attrs().iter().enumerate() {
            if attr.dtype != DataType::Int || tuples == 0 {
                continue;
            }
            let range = schema.attr_range(i);
            column.clear();
            column.extend(relation.tuple_refs().map(|t| {
                let mut image = [0u8; 8];
                image.copy_from_slice(&t.raw()[range.clone()]);
                i64::from_be_bytes(image)
            }));
            column.sort_unstable();
            let (min, max) = (column[0], column[column.len() - 1]);
            column.dedup();
            attrs[i] = Some(AttrStats {
                min,
                max,
                distinct: column.len(),
            });
        }
        RelationStats {
            tuples,
            pages: relation.num_pages(),
            attrs,
        }
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

/// Statistics for some or all relations of a catalog, keyed by name.
#[derive(Debug, Clone, Default)]
pub struct CatalogStats {
    stats: BTreeMap<String, RelationStats>,
}

impl CatalogStats {
    /// Gather exact statistics for every relation in `db` — the
    /// from-scratch form, and the oracle a relation-scoped holder is
    /// checked against.
    pub fn gather(db: &Catalog) -> CatalogStats {
        CatalogStats {
            stats: db
                .iter()
                .map(|r| (r.name().to_owned(), RelationStats::gather(r)))
                .collect(),
        }
    }

    /// Gather every relation of `relations` that `db` holds and this set
    /// does not, and return how many were gathered. Held entries are
    /// trusted: the caller keeps them current with
    /// [`CatalogStats::invalidate`]. An entry is inserted only once its
    /// scan has finished, so a panic part-way leaves it absent, never
    /// half-built.
    pub fn refresh(&mut self, db: &Catalog, relations: &[String]) -> usize {
        let mut gathered = 0;
        for name in relations {
            if self.stats.contains_key(name) {
                continue;
            }
            if let Some(relation) = db.get(name) {
                self.stats
                    .insert(name.clone(), RelationStats::gather(relation));
                gathered += 1;
            }
        }
        gathered
    }

    /// Drop the statistics of `relations` (a write changed them); the
    /// next [`CatalogStats::refresh`] naming one gathers it afresh.
    pub fn invalidate(&mut self, relations: &[String]) {
        for name in relations {
            self.stats.remove(name);
        }
    }

    /// Statistics for `relation`, if gathered.
    pub fn get(&self, relation: &str) -> Option<&RelationStats> {
        self.stats.get(relation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_relalg::{Schema, Tuple};
    use proptest::prelude::*;

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
    fn refresh_gathers_only_what_is_missing_and_invalidate_drops() {
        let db = df_workload::generate_database(&df_workload::DatabaseSpec::scaled(0.01));
        let names = |ns: &[&str]| ns.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let full = CatalogStats::gather(&db);
        let mut cs = CatalogStats::default();
        assert_eq!(cs.refresh(&db, &names(&["r01", "r05"])), 2);
        assert_eq!(cs.refresh(&db, &names(&["r01", "r05"])), 0, "both held");
        // Relations the catalog lacks are skipped, not counted.
        assert_eq!(cs.refresh(&db, &names(&["r01", "nope"])), 0);
        assert!(cs.get("nope").is_none());
        cs.invalidate(&names(&["r01"]));
        assert!(cs.get("r01").is_none());
        assert_eq!(cs.refresh(&db, &names(&["r00", "r01", "r05"])), 2);
        for name in ["r00", "r01", "r05"] {
            assert_eq!(cs.get(name), full.get(name), "{name}");
        }
        assert!(cs.get("r02").is_none(), "never named, never gathered");
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

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
