//! The uniprocessor oracle executor.
//!
//! Evaluates a query tree bottom-up, one node at a time, using the same
//! page-level kernels the simulated machines run. This is the ground truth:
//! every machine execution in `df-core` and `df-ring` is checked against it
//! by the integration tests (as multiset equality — the machines interleave
//! work and therefore produce tuples in a different order).

use df_relalg::{Catalog, Error, Relation, Result, Tuple};

use crate::ops;
use crate::tree::{Op, QueryTree};
use crate::validate::{validate, NodeSchemas};

/// Which join algorithm the oracle uses (\[5\] compares both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinAlgorithm {
    /// O(n·m) nested loops — the paper's choice for multiprocessors, and the
    /// default so the oracle exercises exactly the machine kernels.
    #[default]
    NestedLoops,
    /// O(n log n) sort-merge — the faster uniprocessor algorithm; falls back
    /// to nested loops for non-equi joins.
    SortMerge,
}

/// Execution parameters for the oracle.
#[derive(Debug, Clone)]
pub struct ExecParams {
    /// Page size (bytes, header included) for intermediate and result
    /// relations.
    pub page_size: usize,
    /// Join algorithm.
    pub join_algorithm: JoinAlgorithm,
}

impl Default for ExecParams {
    fn default() -> Self {
        ExecParams {
            page_size: 1024,
            join_algorithm: JoinAlgorithm::NestedLoops,
        }
    }
}

/// Execute a read-only query, returning the result relation (named
/// `"result"`).
///
/// # Errors
/// Fails on validation errors or if the tree contains update operators.
pub fn execute_readonly(db: &Catalog, tree: &QueryTree, params: &ExecParams) -> Result<Relation> {
    if !tree.written_relations().is_empty() {
        return Err(Error::SchemaMismatch {
            detail: "execute_readonly called on an updating query".into(),
        });
    }
    // Updates never run, so the mutable path is unreachable; a clone keeps
    // the signature honest without copying (relations are only read).
    let mut scratch = db.clone();
    execute(&mut scratch, tree, params)
}

/// Execute a query, applying any root update operator to `db`.
///
/// Returns the root's result relation:
/// * read-only root → the query result,
/// * `Append` → the tuples that were appended,
/// * `Delete` → the tuples that were deleted.
///
/// Updating queries run as [`stage_write`] followed immediately by
/// [`apply_write`]; callers that interleave other work between the read
/// and write phases (df-serve's lanes) call the two halves directly.
pub fn execute(db: &mut Catalog, tree: &QueryTree, params: &ExecParams) -> Result<Relation> {
    if !tree.written_relations().is_empty() {
        let delta = stage_write(db, tree, params)?;
        return apply_write(db, delta);
    }
    let schemas = validate(db, tree)?;
    let mut results = eval_read_nodes(db, tree, &schemas, params)?;
    let mut out = results.pop().expect("validated tree has at least one node");
    // The loop pushes in topo order; the root is last.
    debug_assert_eq!(tree.root().0, results.len());
    out.set_name("result");
    Ok(out)
}

/// The staged effect of an updating query: the expensive read phase of a
/// write, computed against an immutable catalog, ready to be applied by
/// [`apply_write`] under exclusive access.
///
/// The split is only sound if the **target** relation cannot change
/// between the two calls — a `Delete` stages the kept/deleted partition
/// of the target it saw, an `Append` stages tuples computed from its
/// sources — so the caller must hold the target exclusively (or, like
/// the oracle, apply immediately). df-serve's per-relation writer marks
/// provide exactly that guarantee.
#[derive(Debug)]
pub struct WriteDelta {
    target: String,
    kind: WriteKind,
    result: Relation,
}

#[derive(Debug)]
enum WriteKind {
    /// Tuples to append to the target.
    Append(Vec<Tuple>),
    /// The rebuilt (post-delete) target relation.
    Replace(Relation),
}

impl WriteDelta {
    /// The relation the apply phase will mutate.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// The staged change to the target as raw tuple images, in the
    /// target's encoding: `(inserted, deleted)`. An `Append` inserts its
    /// staged result tuples; a `Delete` deletes them. Standing views
    /// (df-host's IVM layer) extract this before [`apply_write`] consumes
    /// the delta and replay it through their delta dataflow.
    pub fn base_change(&self) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let images: Vec<Vec<u8>> = self
            .result
            .pages()
            .iter()
            .flat_map(|p| p.tuple_refs())
            .map(|t| t.raw().to_vec())
            .collect();
        match self.kind {
            WriteKind::Append(_) => (images, Vec::new()),
            WriteKind::Replace(_) => (Vec::new(), images),
        }
    }
}

/// Run the read phase of an updating query: validate, evaluate the
/// source subtree (`Append`) or partition the target (`Delete`), and
/// package the effect as a [`WriteDelta`]. `db` is not mutated.
///
/// # Errors
/// Fails on validation errors or if the tree is read-only.
pub fn stage_write(db: &Catalog, tree: &QueryTree, params: &ExecParams) -> Result<WriteDelta> {
    let schemas = validate(db, tree)?;
    let root = tree.node(tree.root());
    let name = format!("{}_{}", tree.root(), root.op.name());
    let schema = schemas.schema(tree.root()).clone();
    match &root.op {
        Op::Append { target } => {
            let results = eval_read_nodes(db, tree, &schemas, params)?;
            let to_add: Vec<Tuple> = results[root.children[0].0].tuples().collect();
            let result =
                Relation::from_tuples(&name, schema, params.page_size, to_add.iter().cloned())?;
            Ok(WriteDelta {
                target: target.clone(),
                kind: WriteKind::Append(to_add),
                result,
            })
        }
        Op::Delete { target, predicate } => {
            let target_rel = db.require(target)?;
            let (kept, deleted): (Vec<_>, Vec<_>) =
                target_rel.tuples().partition(|t| !predicate.eval(t));
            let rebuilt = Relation::from_tuples(
                target,
                target_rel.schema().clone(),
                target_rel.page_size(),
                kept,
            )?;
            let result = Relation::from_tuples(&name, schema, params.page_size, deleted)?;
            Ok(WriteDelta {
                target: target.clone(),
                kind: WriteKind::Replace(rebuilt),
                result,
            })
        }
        _ => Err(Error::SchemaMismatch {
            detail: "stage_write called on a read-only query".into(),
        }),
    }
}

/// Apply a staged write to `db`, returning the query's result relation
/// (the appended or deleted tuples, named `"result"`).
///
/// Every intermediate state is structurally valid: `Append` adds whole
/// tuples one at a time, `Delete` swaps in a fully rebuilt relation — so
/// even a caller that recovers from a panic mid-apply observes a
/// consistent (if partially applied) catalog.
pub fn apply_write(db: &mut Catalog, delta: WriteDelta) -> Result<Relation> {
    db.require(&delta.target)?;
    match delta.kind {
        WriteKind::Append(tuples) => {
            let target_rel = db.get_mut(&delta.target).expect("just required");
            for t in tuples {
                target_rel.append(t)?;
            }
        }
        WriteKind::Replace(rebuilt) => {
            db.insert_or_replace(rebuilt);
        }
    }
    let mut out = delta.result;
    out.set_name("result");
    Ok(out)
}

/// Evaluate every read-only node of `tree` in topo order, returning one
/// relation per node, indexed by `NodeId`. This is the install-time
/// materialization pass of a standing view: each stateful operator seeds
/// its retained operand state from its children's node results.
///
/// # Errors
/// Fails on validation errors or if the tree contains update operators.
pub fn execute_read_nodes(
    db: &Catalog,
    tree: &QueryTree,
    params: &ExecParams,
) -> Result<Vec<Relation>> {
    if !tree.written_relations().is_empty() {
        return Err(Error::SchemaMismatch {
            detail: "execute_read_nodes called on an updating query".into(),
        });
    }
    let schemas = validate(db, tree)?;
    eval_read_nodes(db, tree, &schemas, params)
}

/// Evaluate every read-only node of `tree` in topo order; the returned
/// vector is indexed by `NodeId`. Stops before the root when the root is
/// an update operator (validation guarantees updates appear nowhere
/// else, and topo order puts the root last).
fn eval_read_nodes(
    db: &Catalog,
    tree: &QueryTree,
    schemas: &NodeSchemas,
    params: &ExecParams,
) -> Result<Vec<Relation>> {
    let mut results: Vec<Relation> = Vec::with_capacity(tree.len());

    for id in tree.topo_order() {
        let node = tree.node(id);
        if node.op.is_update() {
            break;
        }
        let schema = schemas.schema(id).clone();
        let child = |i: usize| -> &Relation { &results[node.children[i].0] };
        let name = format!("{id}_{}", node.op.name());

        let rel = match &node.op {
            Op::Scan { relation } => db.require(relation)?.clone(),
            Op::Restrict { predicate } => {
                let input = child(0);
                let tuples = input
                    .pages()
                    .iter()
                    .flat_map(|p| ops::restrict_page(p, predicate));
                Relation::from_tuples(&name, schema, params.page_size, tuples)?
            }
            Op::Project { projection, dedup } => {
                let input = child(0);
                let projected: Vec<_> = input
                    .pages()
                    .iter()
                    .flat_map(|p| ops::project_page(p, projection))
                    .collect();
                let tuples = if *dedup {
                    ops::dedup_tuples(projected)
                } else {
                    projected
                };
                Relation::from_tuples(&name, schema, params.page_size, tuples)?
            }
            Op::Join { condition } => {
                let (outer, inner) = (child(0), child(1));
                let tuples = match params.join_algorithm {
                    JoinAlgorithm::NestedLoops => {
                        ops::nested_loops_join_relations(outer, inner, condition)
                    }
                    JoinAlgorithm::SortMerge => {
                        match ops::merge_join_relations(outer, inner, condition) {
                            Ok(ts) => ts,
                            // Non-equi θ: sort-merge does not apply.
                            Err(_) => ops::nested_loops_join_relations(outer, inner, condition),
                        }
                    }
                };
                Relation::from_tuples(&name, schema, params.page_size, tuples)?
            }
            Op::CrossProduct => {
                let (outer, inner) = (child(0), child(1));
                let mut tuples = Vec::new();
                for op_ in outer.pages() {
                    for ip in inner.pages() {
                        tuples.extend(ops::cross_pages(op_, ip));
                    }
                }
                Relation::from_tuples(&name, schema, params.page_size, tuples)?
            }
            Op::Union => {
                let tuples = ops::union_relations(child(0), child(1))?;
                Relation::from_tuples(&name, schema, params.page_size, tuples)?
            }
            Op::Difference => {
                let tuples = ops::difference_relations(child(0), child(1))?;
                Relation::from_tuples(&name, schema, params.page_size, tuples)?
            }
            Op::Append { .. } | Op::Delete { .. } => unreachable!("is_update checked above"),
        };
        results.push(rel);
    }

    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;
    use df_relalg::{CmpOp, DataType, Schema, Tuple, Value};

    fn db() -> Catalog {
        let mut db = Catalog::new();
        let emp = Schema::build()
            .attr("id", DataType::Int)
            .attr("dept", DataType::Int)
            .attr("salary", DataType::Int)
            .finish()
            .unwrap();
        db.insert(
            Relation::from_tuples(
                "emp",
                emp,
                128,
                (0..20).map(|i| {
                    Tuple::new(vec![Value::Int(i), Value::Int(i % 4), Value::Int(i * 10)])
                }),
            )
            .unwrap(),
        )
        .unwrap();
        let dept = Schema::build()
            .attr("dno", DataType::Int)
            .attr("floor", DataType::Int)
            .finish()
            .unwrap();
        db.insert(
            Relation::from_tuples(
                "dept",
                dept,
                128,
                (0..4).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i + 1)])),
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn restrict_counts() {
        let db = db();
        let q = TreeBuilder::new(&db)
            .scan("emp")
            .unwrap()
            .restrict_where("salary", CmpOp::Ge, Value::Int(100))
            .unwrap()
            .finish();
        let out = execute_readonly(&db, &q, &ExecParams::default()).unwrap();
        assert_eq!(out.num_tuples(), 10); // ids 10..20
    }

    #[test]
    fn join_fanout() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let q = b
            .scan("emp")
            .unwrap()
            .equi_join(b.scan("dept").unwrap(), "dept", "dno")
            .unwrap()
            .finish();
        let out = execute_readonly(&db, &q, &ExecParams::default()).unwrap();
        assert_eq!(out.num_tuples(), 20); // every emp matches exactly one dept
        assert_eq!(out.schema().arity(), 5);
    }

    #[test]
    fn both_join_algorithms_agree() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let q = b
            .scan("emp")
            .unwrap()
            .equi_join(b.scan("dept").unwrap(), "dept", "dno")
            .unwrap()
            .finish();
        let nl = execute_readonly(
            &db,
            &q,
            &ExecParams {
                join_algorithm: JoinAlgorithm::NestedLoops,
                ..Default::default()
            },
        )
        .unwrap();
        let sm = execute_readonly(
            &db,
            &q,
            &ExecParams {
                join_algorithm: JoinAlgorithm::SortMerge,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(nl.same_contents(&sm));
    }

    #[test]
    fn sort_merge_falls_back_on_theta() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let q = b
            .scan("dept")
            .unwrap()
            .join_on(b.scan("dept").unwrap(), "dno", CmpOp::Lt, "dno")
            .unwrap()
            .finish();
        let out = execute_readonly(
            &db,
            &q,
            &ExecParams {
                join_algorithm: JoinAlgorithm::SortMerge,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.num_tuples(), 6); // pairs (i, j) with i < j, 4 depts
    }

    #[test]
    fn project_distinct() {
        let db = db();
        let q = TreeBuilder::new(&db)
            .scan("emp")
            .unwrap()
            .project(&["dept"], true)
            .unwrap()
            .finish();
        let out = execute_readonly(&db, &q, &ExecParams::default()).unwrap();
        assert_eq!(out.num_tuples(), 4);
    }

    #[test]
    fn union_and_difference() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let low = b
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Lt, Value::Int(10))
            .unwrap();
        let high = b
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Ge, Value::Int(5))
            .unwrap();
        let u = low.clone().union(high.clone()).unwrap().finish();
        let out = execute_readonly(&db, &u, &ExecParams::default()).unwrap();
        assert_eq!(out.num_tuples(), 20);
        let d = low.difference(high).unwrap().finish();
        let out = execute_readonly(&db, &d, &ExecParams::default()).unwrap();
        assert_eq!(out.num_tuples(), 5); // ids 0..5
    }

    #[test]
    fn append_mutates_database() {
        let mut db = db();
        let b = TreeBuilder::new(&db);
        let q = b
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Lt, Value::Int(3))
            .unwrap()
            .append_to("emp")
            .unwrap()
            .finish();
        let appended = execute(&mut db, &q, &ExecParams::default()).unwrap();
        assert_eq!(appended.num_tuples(), 3);
        assert_eq!(db.get("emp").unwrap().num_tuples(), 23);
    }

    #[test]
    fn delete_mutates_database() {
        let mut db = db();
        let q = TreeBuilder::new(&db)
            .delete_where("emp", "dept", CmpOp::Eq, Value::Int(0))
            .unwrap();
        let deleted = execute(&mut db, &q, &ExecParams::default()).unwrap();
        assert_eq!(deleted.num_tuples(), 5);
        assert_eq!(db.get("emp").unwrap().num_tuples(), 15);
    }

    #[test]
    fn staged_append_matches_direct_execute() {
        let mut direct = db();
        let mut staged = db();
        let b = TreeBuilder::new(&direct);
        let q = b
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Lt, Value::Int(3))
            .unwrap()
            .append_to("emp")
            .unwrap()
            .finish();
        let direct_out = execute(&mut direct, &q, &ExecParams::default()).unwrap();
        let delta = stage_write(&staged, &q, &ExecParams::default()).unwrap();
        assert_eq!(delta.target(), "emp");
        // Staging alone must not mutate.
        assert_eq!(staged.get("emp").unwrap().num_tuples(), 20);
        let staged_out = apply_write(&mut staged, delta).unwrap();
        assert!(direct_out.same_contents(&staged_out));
        assert!(direct
            .get("emp")
            .unwrap()
            .same_contents(staged.get("emp").unwrap()));
    }

    #[test]
    fn staged_delete_matches_direct_execute() {
        let mut direct = db();
        let mut staged = db();
        let q = TreeBuilder::new(&direct)
            .delete_where("emp", "dept", CmpOp::Eq, Value::Int(0))
            .unwrap();
        let direct_out = execute(&mut direct, &q, &ExecParams::default()).unwrap();
        let delta = stage_write(&staged, &q, &ExecParams::default()).unwrap();
        assert_eq!(staged.get("emp").unwrap().num_tuples(), 20);
        let staged_out = apply_write(&mut staged, delta).unwrap();
        assert!(direct_out.same_contents(&staged_out));
        assert!(direct
            .get("emp")
            .unwrap()
            .same_contents(staged.get("emp").unwrap()));
    }

    #[test]
    fn base_change_reports_staged_images() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let append = b
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Lt, Value::Int(2))
            .unwrap()
            .append_to("emp")
            .unwrap()
            .finish();
        let delta = stage_write(&db, &append, &ExecParams::default()).unwrap();
        let (ins, del) = delta.base_change();
        assert_eq!((ins.len(), del.len()), (2, 0));
        let width = db.get("emp").unwrap().schema().tuple_width();
        assert!(ins.iter().all(|img| img.len() == width));

        let delete = TreeBuilder::new(&db)
            .delete_where("emp", "dept", CmpOp::Eq, Value::Int(1))
            .unwrap();
        let delta = stage_write(&db, &delete, &ExecParams::default()).unwrap();
        let (ins, del) = delta.base_change();
        assert_eq!((ins.len(), del.len()), (0, 5));
    }

    #[test]
    fn read_nodes_expose_per_node_results() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let q = b
            .scan("emp")
            .unwrap()
            .equi_join(b.scan("dept").unwrap(), "dept", "dno")
            .unwrap()
            .finish();
        let nodes = execute_read_nodes(&db, &q, &ExecParams::default()).unwrap();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].num_tuples(), 20);
        assert_eq!(nodes[1].num_tuples(), 4);
        assert_eq!(nodes[2].num_tuples(), 20);
        let update = TreeBuilder::new(&db)
            .delete_where("emp", "id", CmpOp::Eq, Value::Int(0))
            .unwrap();
        assert!(execute_read_nodes(&db, &update, &ExecParams::default()).is_err());
    }

    #[test]
    fn stage_write_rejects_read_only_trees() {
        let db = db();
        let q = TreeBuilder::new(&db).scan("emp").unwrap().finish();
        assert!(stage_write(&db, &q, &ExecParams::default()).is_err());
    }

    #[test]
    fn readonly_rejects_updates() {
        let db = db();
        let q = TreeBuilder::new(&db)
            .delete_where("emp", "id", CmpOp::Eq, Value::Int(0))
            .unwrap();
        assert!(execute_readonly(&db, &q, &ExecParams::default()).is_err());
    }

    #[test]
    fn deep_tree_figure_2_1() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let r1 = b
            .scan("emp")
            .unwrap()
            .restrict_where("salary", CmpOp::Gt, Value::Int(0))
            .unwrap();
        let r2 = b
            .scan("dept")
            .unwrap()
            .restrict_where("floor", CmpOp::Ge, Value::Int(1))
            .unwrap();
        let q = r1
            .equi_join(r2, "dept", "dno")
            .unwrap()
            .project(&["id", "floor"], false)
            .unwrap()
            .finish();
        let out = execute_readonly(&db, &q, &ExecParams::default()).unwrap();
        assert_eq!(out.num_tuples(), 19); // id 0 has salary 0
        assert_eq!(out.schema().arity(), 2);
    }
}
