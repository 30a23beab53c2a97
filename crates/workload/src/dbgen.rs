//! Synthetic database generation.
//!
//! Every relation has the same four-attribute schema totalling 100 bytes —
//! the tuple size the paper's §3.3 bandwidth analysis assumes:
//!
//! | attribute | type      | bytes | contents                                  |
//! |-----------|-----------|-------|-------------------------------------------|
//! | `key`     | int       | 8     | unique 0..n, shuffled                     |
//! | `fk`      | int       | 8     | uniform over the *parent* relation's keys |
//! | `val`     | int       | 8     | uniform 0..[`VAL_DOMAIN`]                 |
//! | `pad`     | str(76)   | 76    | filler                                    |
//!
//! Parents form a ring (`parent_of(i) = (i+1) % n`), so the equi-join
//! `child.fk = parent.key` matches every child tuple against exactly one
//! parent tuple: join chains neither explode nor die out, which keeps the
//! benchmark's intermediate sizes stable and comparable across runs.

use df_relalg::{Catalog, DataType, Relation, Schema, Tuple, Value};
use df_sim::rng::SimRng;

/// Name of the unique-key attribute.
pub const KEY_ATTR: &str = "key";
/// Name of the foreign-key attribute (references the parent's `key`).
pub const FK_ATTR: &str = "fk";
/// Name of the uniform value attribute used by selectivity predicates.
pub const VAL_ATTR: &str = "val";
/// `val` is uniform in `0..VAL_DOMAIN`; `val < s·VAL_DOMAIN` has
/// selectivity `s`.
pub const VAL_DOMAIN: i64 = 1000;

/// The parent of relation `i` in the foreign-key ring of `n` relations.
pub fn parent_of(i: usize, n: usize) -> usize {
    (i + 1) % n
}

/// Parse the `--scale` value of a command line: a finite number greater
/// than zero (1.0 is the paper's 5.5 MB).
///
/// # Errors
/// A message naming `--scale` and the value, for anything else — `nan`,
/// `inf`, zero and negative numbers included.
pub fn parse_scale(value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!(
            "bad value `{value}` for --scale: expected a finite number > 0"
        )),
    }
}

/// Parameters of the synthetic database.
#[derive(Debug, Clone)]
pub struct DatabaseSpec {
    /// Number of relations (paper: 15).
    pub relations: usize,
    /// Target combined size in bytes (paper: 5.5 MB).
    pub total_bytes: usize,
    /// Page size in bytes, header included (paper §3.3 reasons with
    /// 1000-byte pages of ten 100-byte tuples; with our explicit 16-byte
    /// header that is a 1016-byte page).
    pub page_size: usize,
    /// RNG seed — the entire database is a pure function of the spec.
    pub seed: u64,
}

impl DatabaseSpec {
    /// The paper's database: 15 relations, 5.5 MB combined.
    pub fn paper() -> DatabaseSpec {
        DatabaseSpec {
            relations: 15,
            total_bytes: 5_500_000,
            page_size: 1016,
            seed: 0x1979_d1f0,
        }
    }

    /// The paper's database scaled by `factor` (for tests and benches).
    /// The size is clamped, so a `factor` read from outside the program
    /// goes through [`parse_scale`] first.
    pub fn scaled(factor: f64) -> DatabaseSpec {
        let mut s = DatabaseSpec::paper();
        s.total_bytes = ((s.total_bytes as f64 * factor) as usize).max(s.relations * 1000);
        s
    }

    /// The fixed 100-byte tuple schema shared by all generated relations.
    pub fn schema() -> Schema {
        Schema::build()
            .attr(KEY_ATTR, DataType::Int)
            .attr(FK_ATTR, DataType::Int)
            .attr(VAL_ATTR, DataType::Int)
            .attr("pad", DataType::Str(76))
            .finish()
            .expect("static schema is valid")
    }

    /// Relation-size weights: a mix of large, medium, and small relations
    /// (the paper does not give per-relation sizes; a skewed mix is the
    /// realistic choice and exercises the cache harder than equal sizes).
    fn weights(&self) -> Vec<usize> {
        const BASE: [usize; 15] = [10, 8, 6, 5, 4, 4, 3, 3, 2, 2, 2, 2, 2, 1, 1];
        (0..self.relations).map(|i| BASE[i % BASE.len()]).collect()
    }

    /// Number of tuples for each relation.
    pub fn tuple_counts(&self) -> Vec<usize> {
        let weights = self.weights();
        let total_weight: usize = weights.iter().sum();
        let schema = Self::schema();
        let total_tuples = self.total_bytes / schema.tuple_width();
        weights
            .iter()
            .map(|w| (total_tuples * w / total_weight).max(1))
            .collect()
    }

    /// The generated name of relation `i`.
    pub fn relation_name(i: usize) -> String {
        format!("r{i:02}")
    }
}

/// Generate the database described by `spec`. Deterministic in the spec.
pub fn generate_database(spec: &DatabaseSpec) -> Catalog {
    let root = SimRng::new(spec.seed);
    let schema = DatabaseSpec::schema();
    let counts = spec.tuple_counts();
    let mut db = Catalog::new();

    for (i, &n) in counts.iter().enumerate() {
        let mut rng = root.fork(&format!("rel{i}"));
        let parent_n = counts[parent_of(i, spec.relations)];
        // Unique keys 0..n in shuffled order (real tables are not sorted).
        let mut keys: Vec<i64> = (0..n as i64).collect();
        rng.shuffle(&mut keys);

        let name = DatabaseSpec::relation_name(i);
        let tuples = keys.into_iter().map(|key| {
            let fk = rng.gen_range(0..parent_n as i64);
            let val = rng.gen_range(0..VAL_DOMAIN);
            Tuple::new(vec![
                Value::Int(key),
                Value::Int(fk),
                Value::Int(val),
                Value::Str(format!("pad-{name}-{key}")),
            ])
        });
        let rel = Relation::from_tuples(&name, schema.clone(), spec.page_size, tuples)
            .expect("generated tuples conform to the static schema");
        db.insert(rel).expect("generated names are unique");
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scale_accepts_only_finite_positive_numbers() {
        for bad in ["nan", "inf", "0", "-1", "abc"] {
            let err = parse_scale(bad).unwrap_err();
            assert!(err.contains("--scale") && err.contains(bad), "{err}");
        }
        assert_eq!(parse_scale("0.05"), Ok(0.05));
        assert_eq!(parse_scale("1"), Ok(1.0));
    }

    #[test]
    fn paper_spec_matches_stated_constraints() {
        let spec = DatabaseSpec::paper();
        let db = generate_database(&spec);
        assert_eq!(db.len(), 15);
        // Combined size within 2% of 5.5 MB (integer division slack).
        let bytes = db.total_bytes() as f64;
        assert!(
            (bytes - 5.5e6).abs() / 5.5e6 < 0.02,
            "database is {bytes} bytes"
        );
        // 100-byte tuples.
        assert_eq!(DatabaseSpec::schema().tuple_width(), 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate_database(&DatabaseSpec::scaled(0.02));
        let b = generate_database(&DatabaseSpec::scaled(0.02));
        assert_eq!(a, b);
        let mut other = DatabaseSpec::scaled(0.02);
        other.seed ^= 1;
        let c = generate_database(&other);
        assert_ne!(a, c);
    }

    #[test]
    fn keys_are_unique_per_relation() {
        let db = generate_database(&DatabaseSpec::scaled(0.02));
        for rel in db.iter() {
            let mut keys: Vec<i64> = rel
                .tuples()
                .map(|t| match t.get(0).unwrap() {
                    Value::Int(k) => *k,
                    _ => unreachable!(),
                })
                .collect();
            keys.sort_unstable();
            let n = keys.len();
            keys.dedup();
            assert_eq!(keys.len(), n, "duplicate keys in {}", rel.name());
            assert_eq!(keys, (0..n as i64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fks_reference_parent_key_domain() {
        let spec = DatabaseSpec::scaled(0.02);
        let db = generate_database(&spec);
        let counts = spec.tuple_counts();
        for i in 0..spec.relations {
            let rel = db.get(&DatabaseSpec::relation_name(i)).unwrap();
            let parent_n = counts[parent_of(i, spec.relations)] as i64;
            for t in rel.tuples() {
                match t.get(1).unwrap() {
                    Value::Int(fk) => assert!((0..parent_n).contains(fk)),
                    _ => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn size_skew_exists() {
        let spec = DatabaseSpec::paper();
        let counts = spec.tuple_counts();
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max >= &(min * 5), "sizes should be skewed: {counts:?}");
    }

    #[test]
    fn parent_ring_covers_all_relations() {
        let mut seen = [false; 15];
        let mut i = 0;
        for _ in 0..15 {
            seen[i] = true;
            i = parent_of(i, 15);
        }
        assert!(seen.iter().all(|&s| s));
    }
}
