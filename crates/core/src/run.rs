//! High-level entry points.

use df_query::QueryTree;
use df_relalg::{Catalog, Relation, Result};

use crate::allocation::AllocationStrategy;
use crate::granularity::Granularity;
use crate::machine::Machine;
use crate::metrics::Metrics;
use crate::params::MachineParams;

/// Result of running a batch of queries on the simulated machine.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// One result relation per query, in batch order.
    pub results: Vec<Relation>,
    /// Whole-run metrics.
    pub metrics: Metrics,
    /// Each update query's tree, `None` for a read-only one (apply with
    /// [`RunOutput::apply_updates`]).
    updates: Vec<Option<QueryTree>>,
}

impl RunOutput {
    /// Apply the append/delete updates the batch requested to `db`, in
    /// batch order; each update query's entry in `results` becomes the
    /// tuples its write appended or deleted ([`Machine::apply_updates`]).
    pub fn apply_updates(&mut self, db: &mut Catalog) -> Result<()> {
        Machine::apply_updates(db, &self.updates, &mut self.results)
    }
}

/// Run a batch of queries concurrently on the simulated data-flow machine.
///
/// This is the form the paper's experiment uses: the ten-query benchmark is
/// a single batch whose makespan is the reported execution time.
///
/// # Errors
/// Propagates query validation errors.
pub fn run_queries(
    db: &Catalog,
    queries: &[QueryTree],
    params: &MachineParams,
    granularity: Granularity,
    strategy: AllocationStrategy,
) -> Result<RunOutput> {
    let machine = Machine::new(db, queries, params.clone(), granularity, strategy)?;
    let (results, metrics) = machine.run();
    Ok(RunOutput {
        results,
        metrics,
        updates: (queries.iter())
            .map(|q| q.node(q.root()).op.is_update().then(|| q.clone()))
            .collect(),
    })
}

/// Run a single query; returns its result relation and the metrics.
///
/// # Errors
/// Propagates query validation errors.
pub fn run_query(
    db: &Catalog,
    query: &QueryTree,
    params: &MachineParams,
    granularity: Granularity,
) -> Result<(Relation, Metrics)> {
    let mut out = run_queries(
        db,
        std::slice::from_ref(query),
        params,
        granularity,
        AllocationStrategy::default(),
    )?;
    Ok((out.results.remove(0), out.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_query::parse_query;
    use df_relalg::{DataType, Schema, Tuple, Value};

    fn db() -> Catalog {
        let mut db = Catalog::new();
        let s = Schema::build()
            .attr("k", DataType::Int)
            .attr("v", DataType::Int)
            .finish()
            .unwrap();
        db.insert(
            Relation::from_tuples(
                "t",
                s,
                16 + 16 * 4,
                (0..16).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 3)])),
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn run_query_smoke() {
        let db = db();
        let q = parse_query(&db, "(restrict (scan t) (= v 0))").unwrap();
        let (rel, metrics) = run_query(
            &db,
            &q,
            &MachineParams::with_processors(2),
            Granularity::Page,
        )
        .unwrap();
        assert_eq!(rel.num_tuples(), 6);
        assert!(metrics.elapsed.as_nanos() > 0);
        assert_eq!(metrics.query_completions.len(), 1);
    }

    #[test]
    fn run_output_applies_updates() {
        let mut db = db();
        let q = parse_query(&db, "(append (restrict (scan t) (< k 2)) t)").unwrap();
        let mut out = run_queries(
            &db,
            &[q],
            &MachineParams::with_processors(2),
            Granularity::Page,
            AllocationStrategy::default(),
        )
        .unwrap();
        out.apply_updates(&mut db).unwrap();
        assert_eq!(db.get("t").unwrap().num_tuples(), 18);
    }
}
