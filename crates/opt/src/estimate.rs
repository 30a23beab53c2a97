//! Bottom-up cardinality estimation for query trees.

use df_query::{validate, NodeId, Op, QueryTree};
use df_relalg::{Catalog, CmpOp, Result};

use crate::stats::CatalogStats;

/// Estimated output cardinality (tuples) of every node, in node order.
#[derive(Debug, Clone)]
pub struct NodeEstimates {
    rows: Vec<f64>,
}

impl NodeEstimates {
    /// Estimated output rows of `id`.
    pub fn rows(&self, id: NodeId) -> f64 {
        self.rows[id.0]
    }

    /// Estimated rows of the root.
    pub fn output_rows(&self, tree: &QueryTree) -> f64 {
        self.rows(tree.root())
    }
}

/// Estimate per-node output cardinalities.
///
/// ```
/// use df_opt::{estimate, CatalogStats};
/// use df_query::parse_query;
/// use df_workload::{generate_database, DatabaseSpec};
/// let db = generate_database(&DatabaseSpec::scaled(0.01));
/// let stats = CatalogStats::gather(&db);
/// let q = parse_query(&db, "(restrict (scan r00) (< val 500))").unwrap();
/// let est = estimate(&db, &q, &stats).unwrap();
/// let half = db.get("r00").unwrap().num_tuples() as f64 / 2.0;
/// assert!((est.output_rows(&q) - half).abs() / half < 0.2);
/// ```
///
/// Each node's estimate comes from one per-node rule (`node_estimate`:
/// uniformity and independence for selectivities, `|L|·|R| / max(d_L, d_R)`
/// for equi-joins), folded leaf to root.
///
/// # Errors
/// Propagates validation errors for malformed trees.
pub fn estimate(db: &Catalog, tree: &QueryTree, stats: &CatalogStats) -> Result<NodeEstimates> {
    validate(db, tree)?; // schemas are sound; estimation cannot panic
    let mut est: Vec<(f64, Option<&str>)> = Vec::with_capacity(tree.len());
    for id in tree.topo_order() {
        let node = tree.node(id);
        let children = node.children.iter().map(|c| est[c.0]);
        let node_est = node_estimate(db, stats, &node.op, children);
        est.push(node_est);
    }
    Ok(NodeEstimates {
        rows: est.into_iter().map(|(rows, _)| rows).collect(),
    })
}

/// One node's estimated output rows and its *dominant* relation, from its
/// children's, in operand order: the one cardinality rule, which
/// [`estimate`] and the optimizer's join ordering both fold bottom-up.
///
/// The dominant relation is the nearest leaf on the left spine; its base
/// statistics stand in for the node's when a predicate's selectivity is
/// estimated. Selectivities use uniformity and independence; joins use the
/// classic `|L|·|R| / max(d_L, d_R)` equi-join estimate with the *base*
/// statistics of the two dominant relations (restricts do not change
/// distinct-value spans drastically under uniformity, which is the
/// standard System-R-era simplification).
pub(crate) fn node_estimate<'t>(
    db: &Catalog,
    stats: &CatalogStats,
    op: &'t Op,
    children: impl IntoIterator<Item = (f64, Option<&'t str>)>,
) -> (f64, Option<&'t str>) {
    let mut inputs = [(0.0, None); 2];
    for (slot, child) in inputs.iter_mut().zip(children) {
        *slot = child;
    }
    let rows = |i: usize| inputs[i].0;
    let dominant = inputs[0].1;
    match op {
        Op::Scan { relation } => {
            let n = stats
                .get(relation)
                .map(|s| s.tuples as f64)
                .unwrap_or_else(|| {
                    db.get(relation)
                        .map(|r| r.num_tuples() as f64)
                        .unwrap_or(0.0)
                });
            (n, Some(relation))
        }
        Op::Restrict { predicate } => {
            let sel = dominant
                .and_then(|name| stats.get(name).map(|s| s.predicate_selectivity(predicate)))
                .unwrap_or(1.0 / 3.0);
            (rows(0) * sel, dominant)
        }
        Op::Project { dedup, .. } => {
            let n = rows(0);
            // Duplicate elimination: square-root heuristic bounded by n.
            let out = if *dedup { n.sqrt().max(1.0).min(n) } else { n };
            (out, dominant)
        }
        Op::Join { condition } => {
            let (l, r) = (rows(0), rows(1));
            if condition.op == CmpOp::Eq {
                let d = inputs
                    .iter()
                    .filter_map(|&(_, dom)| stats.get(dom?).map(|s| s.tuples))
                    .max()
                    .unwrap_or(10)
                    .max(1);
                ((l * r / d as f64).max(0.0), dominant)
            } else {
                (l * r / 3.0, dominant)
            }
        }
        Op::CrossProduct => (rows(0) * rows(1), dominant),
        Op::Union => (rows(0) + rows(1), dominant),
        Op::Difference => ((rows(0) - rows(1)).max(0.0), dominant),
        Op::Append { .. } => (rows(0), dominant),
        Op::Delete { target, .. } => {
            let n = stats.get(target).map(|s| s.tuples as f64).unwrap_or(0.0);
            (n / 3.0, Some(target))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_query::parse_query;
    use df_workload::{generate_database, DatabaseSpec};

    fn setup() -> (Catalog, CatalogStats) {
        let db = generate_database(&DatabaseSpec::scaled(0.02));
        let stats = CatalogStats::gather(&db);
        (db, stats)
    }

    #[test]
    fn scan_estimate_is_exact() {
        let (db, stats) = setup();
        let q = parse_query(&db, "(scan r00)").unwrap();
        let est = estimate(&db, &q, &stats).unwrap();
        assert_eq!(
            est.output_rows(&q) as usize,
            db.get("r00").unwrap().num_tuples()
        );
    }

    #[test]
    fn restrict_estimate_tracks_selectivity() {
        let (db, stats) = setup();
        let q = parse_query(&db, "(restrict (scan r00) (< val 500))").unwrap();
        let est = estimate(&db, &q, &stats).unwrap();
        let n = db.get("r00").unwrap().num_tuples() as f64;
        let predicted = est.output_rows(&q);
        assert!(
            (predicted / n - 0.5).abs() < 0.1,
            "predicted {predicted} of {n}"
        );
    }

    #[test]
    fn fk_join_estimate_is_near_child_size() {
        // fk joins match each child tuple with exactly one parent key, so
        // |A ⋈ B| ≈ |A|.
        let (db, stats) = setup();
        let q = parse_query(&db, "(join (scan r00) (scan r01) (= fk key))").unwrap();
        let est = estimate(&db, &q, &stats).unwrap();
        let actual = df_query::execute_readonly(&db, &q, &df_query::ExecParams::default())
            .unwrap()
            .num_tuples() as f64;
        let predicted = est.output_rows(&q);
        assert!(
            predicted / actual < 3.0 && actual / predicted < 3.0,
            "predicted {predicted} vs actual {actual}"
        );
    }

    #[test]
    fn union_and_cross_compose() {
        let (db, stats) = setup();
        let q = parse_query(&db, "(union (scan r13) (scan r14))").unwrap();
        let est = estimate(&db, &q, &stats).unwrap();
        let expect =
            (db.get("r13").unwrap().num_tuples() + db.get("r14").unwrap().num_tuples()) as f64;
        assert_eq!(est.output_rows(&q), expect);

        let q = parse_query(&db, "(cross (scan r13) (scan r14))").unwrap();
        let est = estimate(&db, &q, &stats).unwrap();
        let expect =
            (db.get("r13").unwrap().num_tuples() * db.get("r14").unwrap().num_tuples()) as f64;
        assert_eq!(est.output_rows(&q), expect);
    }
}
