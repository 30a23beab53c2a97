//! The query entry points: the oracle executor, and the served write path
//! on raw pages.
//!
//! [`execute`] / [`execute_readonly`] are the uniprocessor oracle
//! ([`crate::oracle`]): the ground truth every machine execution in
//! `df-core`, `df-ring` and `df-host`, every served write and every
//! standing view is checked against (as multiset equality where the
//! executors interleave work and so produce tuples in a different order).
//!
//! [`stage_write`] / [`apply_write`] are the split-phase write df-serve
//! runs, and [`run_plan`] is the sequential scheduler it stages appends
//! with (standing views install through it too). They run only the raw
//! [`Kernel`]s over page images — nothing is decoded — and leave the
//! untouched pages of a delete's target shared with the catalog.

use std::sync::Arc;

use df_relalg::{Catalog, Error, Page, Relation, Result, TupleBuf};

use crate::kernel::Kernel;
use crate::ops::UnaryKernel;
use crate::oracle;
use crate::plan::{Firing, Plan, PlanNode};
use crate::tree::{NodeId, Op, QueryTree};

/// Execution parameters for the oracle. It joins by nested loops, the
/// paper's multiprocessor algorithm.
#[derive(Debug, Clone)]
pub struct ExecParams {
    /// Page size (bytes, header included) for intermediate and result
    /// relations, grown for a relation whose tuples would not fit one to a
    /// page ([`df_relalg::Schema::fit_page_size`]).
    pub page_size: usize,
}

impl Default for ExecParams {
    fn default() -> Self {
        ExecParams { page_size: 1024 }
    }
}

/// Execute a read-only query on the oracle, returning the result relation
/// (named `"result"`).
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

/// Execute a query on the oracle, applying any root update operator to
/// `db`.
///
/// Returns the root's result relation:
/// * read-only root → the query result,
/// * `Append` → the tuples that were appended,
/// * `Delete` → the tuples that were deleted.
///
/// Updating queries run on decoded tuples too — the reference the raw
/// [`stage_write`] followed by [`apply_write`] is checked against.
pub fn execute(db: &mut Catalog, tree: &QueryTree, params: &ExecParams) -> Result<Relation> {
    if !tree.written_relations().is_empty() {
        return oracle::execute_write(db, tree, params);
    }
    let mut results = oracle::eval_read_nodes(db, tree, params)?;
    let mut out = results.pop().expect("validated tree has at least one node");
    // The loop pushes in topo order; the root is last.
    debug_assert_eq!(tree.root().0, results.len());
    out.set_name("result");
    Ok(out)
}

/// Evaluate every read-only node of an unfused `plan` in topological order
/// — the sequential scheduler of the one [`Kernel`]. Each node's kernel is
/// fired through the entry point its [`Firing`] class names: a `PerPage` node once per input page, a `PairSweep` node once per
/// outer page against the whole inner page list, a `Complete` node once
/// over its complete inputs. A scan is its catalog relation (pages shared).
///
/// Every other node's output is packed into full pages of `page_size`,
/// grown for a node whose tuples would not fit one to a page. The
/// raw kernels keep the oracle's order (page-pair-major sweeps,
/// first-occurrence set finalizers), so each node's result equals
/// [`oracle::eval_read_nodes`]'s page for page. The returned vector is
/// indexed by node id and stops before an update root.
///
/// # Errors
/// Fails on an unknown relation.
pub fn run_plan(db: &Catalog, plan: &Plan, page_size: usize) -> Result<Vec<Relation>> {
    let mut results: Vec<Relation> = Vec::with_capacity(plan.nodes.len());
    for (id, node) in plan.nodes.iter().enumerate() {
        debug_assert!(!node.absorbed, "run_plan takes an unfused plan");
        let rel = match &node.op {
            op if op.is_update() => break,
            Op::Scan { relation } => db.require(relation)?.clone(),
            op => {
                let inputs: Vec<&Relation> = node.children.iter().map(|&c| &results[c]).collect();
                let name = format!("{}_{}", NodeId(id), op.name());
                run_node(node, &inputs, &name, page_size)?
            }
        };
        results.push(rel);
    }
    Ok(results)
}

/// Fire one non-scan node over its complete inputs, as [`run_plan`]
/// describes.
fn run_node(
    node: &PlanNode,
    inputs: &[&Relation],
    name: &str,
    page_size: usize,
) -> Result<Relation> {
    let (schema, kernel) = (&node.out_schema, &node.kernel);
    let pages = |port: usize| inputs[port].pages().iter().map(AsRef::as_ref);
    let mut out = Relation::new(name, schema.clone(), schema.fit_page_size(page_size))?;
    match node.firing {
        Firing::PerPage => {
            for page in pages(0) {
                out.append_images(kernel.run_unit_raw(&[page], schema).images())?;
            }
        }
        Firing::PairSweep => {
            let mut buf = TupleBuf::new(schema.clone());
            for outer in pages(0) {
                buf.clear();
                kernel.run_sweep_raw_into(outer, pages(1), true, &mut buf);
                out.append_images(buf.images())?;
            }
        }
        Firing::Complete => {
            let lists: Vec<Vec<&Page>> = (0..inputs.len()).map(|p| pages(p).collect()).collect();
            out.append_images(kernel.run_final_raw(&lists, schema).images())?;
        }
        Firing::Source => unreachable!("a scan is its catalog relation"),
    }
    Ok(out)
}

/// The page-level delete: split `target` into the relation without the
/// tuples `filter` selects and those tuples, in target order. `filter` is
/// the delete node's compiled form (one restrict step over the target's
/// schema). Each page is partitioned by the form's selection mask, and
/// both sides are copied by its copy pass. A page the predicate does not
/// touch is shared (`Arc::clone`), not rebuilt; a touched page is replaced
/// by its survivors, or dropped if none survive — pages are never repacked
/// across, so the kept relation may have partial middle pages.
///
/// # Errors
/// Fails only if the target's own pages do not fit its page size.
pub fn partition_delete(target: &Relation, filter: &UnaryKernel) -> Result<(Relation, TupleBuf)> {
    let schema = target.schema();
    let mut kept = Relation::new(target.name(), schema.clone(), target.page_size())?;
    let mut deleted = TupleBuf::new(schema.clone());
    let (mut mask, mut survivors) = (Vec::new(), TupleBuf::new(schema.clone()));
    for page in target.pages() {
        filter.select(page, &mut mask);
        let hits = mask.iter().filter(|&&m| m).count();
        if hits == 0 {
            kept.append_page(Arc::clone(page))?;
            continue;
        }
        deleted.extend_images(|bytes| filter.copy(page, Some(&mask), bytes));
        if hits < page.len() {
            mask.iter_mut().for_each(|m| *m = !*m);
            survivors.extend_images(|bytes| filter.copy(page, Some(&mask), bytes));
            let mut survivor_page = Page::new(schema.clone(), target.page_size())?;
            survivors.drain_into(&mut survivor_page);
            kept.append_page(survivor_page)?;
        }
    }
    Ok((kept, deleted))
}

/// The staged effect of an updating query: the expensive read phase of a
/// write, computed against an immutable catalog, ready to be applied by
/// [`apply_write`] under exclusive access.
///
/// The split is only sound if the **target** relation cannot change
/// between the two calls — a `Delete` stages the kept/deleted partition
/// of the target it saw, an `Append` stages pages computed from its
/// sources — so the caller must hold the target exclusively (or apply
/// immediately). df-serve's per-relation writer marks provide exactly that
/// guarantee.
#[derive(Debug)]
pub struct WriteDelta {
    target: String,
    kind: WriteKind,
    /// The appended or deleted tuples, packed into full pages.
    result: Relation,
}

#[derive(Debug)]
enum WriteKind {
    /// Append the result's page images to the target.
    Append,
    /// The post-delete target relation (untouched pages shared).
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
        let images: Vec<Vec<u8>> = self.result.tuple_refs().map(|t| t.raw().to_vec()).collect();
        match self.kind {
            WriteKind::Append => (images, Vec::new()),
            WriteKind::Replace(_) => (Vec::new(), images),
        }
    }
}

/// Run the read phase of an updating query on raw pages and package the
/// effect as a [`WriteDelta`]; `db` is not mutated. An `Append`'s source
/// subtree runs through [`run_plan`]; a `Delete` partitions its target
/// with [`partition_delete`]. Nothing is decoded. The result is the
/// oracle's, byte for byte, and so is the target's tuple sequence after
/// [`apply_write`] (a delete leaves different page boundaries).
///
/// # Errors
/// Fails on validation errors or if the tree is read-only.
pub fn stage_write(db: &Catalog, tree: &QueryTree, params: &ExecParams) -> Result<WriteDelta> {
    let plan = Plan::compile(db, tree)?;
    let root = &plan.nodes[plan.root];
    let name = format!("{}_{}", NodeId(plan.root), root.op.name());
    let (target, kind, result) = match (&root.op, &root.kernel) {
        (Op::Append { target }, _) => {
            let mut nodes = run_plan(db, &plan, params.page_size)?;
            let mut result = nodes.swap_remove(root.children[0]);
            result.set_name(&name);
            (target, WriteKind::Append, result)
        }
        (Op::Delete { target, .. }, Kernel::Unary(filter)) => {
            let (kept, deleted) = partition_delete(db.require(target)?, filter)?;
            let schema = &root.out_schema;
            let mut result = Relation::new(
                &name,
                schema.clone(),
                schema.fit_page_size(params.page_size),
            )?;
            result.append_images(deleted.images())?;
            (target, WriteKind::Replace(kept), result)
        }
        _ => {
            return Err(Error::SchemaMismatch {
                detail: "stage_write called on a read-only query".into(),
            })
        }
    };
    Ok(WriteDelta {
        target: target.clone(),
        kind,
        result,
    })
}

/// Apply a staged write to `db`, returning the query's result relation
/// (the appended or deleted tuples, named `"result"`).
///
/// Every intermediate state is structurally valid: `Append` adds the
/// staged page images one page at a time into the target's last page and
/// fresh ones, `Delete` swaps in the staged relation whole — so even a
/// caller that recovers from a panic mid-apply observes a consistent (if
/// partially applied) catalog.
pub fn apply_write(db: &mut Catalog, delta: WriteDelta) -> Result<Relation> {
    db.require(&delta.target)?;
    match delta.kind {
        WriteKind::Append => {
            let target_rel = db.get_mut(&delta.target).expect("just required");
            for page in delta.result.pages() {
                target_rel.append_images(page.raw_data())?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;
    use crate::parser::parse_query;
    use df_relalg::{CmpOp, DataType, Predicate, Schema, Tuple, Value};

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
        let Op::Join { condition } = &q.node(q.root()).op else {
            unreachable!("the root is the join");
        };
        let nested = execute_readonly(&db, &q, &ExecParams::default()).unwrap();
        let (emp, dept) = (db.require("emp").unwrap(), db.require("dept").unwrap());
        let merged = oracle::merge_join_relations(emp, dept, condition).unwrap();
        let merged = Relation::from_tuples("m", nested.schema().clone(), 1024, merged).unwrap();
        assert!(nested.same_contents(&merged));
    }

    /// A page too small for a node's output tuple grows to hold one, in the
    /// oracle and in `run_plan` alike: emp (24-byte tuples) fits 40-byte
    /// pages, its join with dept (40-byte tuples) needs 56.
    #[test]
    fn small_pages_grow_to_fit_a_wide_join_tuple() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let q = b
            .scan("emp")
            .unwrap()
            .equi_join(b.scan("dept").unwrap(), "dept", "dno")
            .unwrap()
            .finish();
        let want = execute_readonly(&db, &q, &ExecParams::default()).unwrap();
        let small = ExecParams { page_size: 40 };
        let got = execute_readonly(&db, &q, &small).unwrap();
        assert!(got.same_contents(&want));
        assert_eq!(got.page_size(), 56);
        assert_eq!(got.pages().len(), want.num_tuples(), "one tuple per page");
        let plan = Plan::compile(&db, &q).unwrap();
        let nodes = run_plan(&db, &plan, small.page_size).unwrap();
        assert!(nodes[plan.root].same_contents(&want));
        assert_eq!(nodes[plan.root].page_size(), 56);
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
        let nodes = run_plan(&db, &Plan::compile(&db, &q).unwrap(), 1024).unwrap();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].num_tuples(), 20);
        assert_eq!(nodes[1].num_tuples(), 4);
        assert_eq!(nodes[2].num_tuples(), 20);
        let oracle = oracle::eval_read_nodes(&db, &q, &ExecParams::default()).unwrap();
        assert_eq!(nodes, oracle);
        // An update root is not evaluated: a delete has no read-only node.
        let update = TreeBuilder::new(&db)
            .delete_where("emp", "id", CmpOp::Eq, Value::Int(0))
            .unwrap();
        let plan = Plan::compile(&db, &update).unwrap();
        assert!(run_plan(&db, &plan, 1024).unwrap().is_empty());
    }

    /// Stage and apply `text` on `db`, returning the reply.
    fn write(db: &mut Catalog, text: &str) -> Relation {
        let tree = parse_query(db, text).unwrap();
        let delta = stage_write(db, &tree, &ExecParams::default()).unwrap();
        apply_write(db, delta).unwrap()
    }

    fn page_lens(rel: &Relation) -> Vec<usize> {
        rel.pages().iter().map(|p| p.len()).collect()
    }

    #[test]
    fn raw_deletes_match_the_oracle_at_the_edges() {
        let mut db = db();
        // Every tuple twice: (id, dept, salary) images duplicated in place.
        let emp = db.get("emp").unwrap().clone();
        let doubled = emp.tuples().flat_map(|t| [t.clone(), t]);
        let doubled = Relation::from_tuples("emp", emp.schema().clone(), 128, doubled).unwrap();
        db.insert_or_replace(doubled);
        for text in [
            "(delete emp (> id 100))",                // removes nothing
            "(delete emp (and (= id 7) (= dept 3)))", // both copies of one image
            "(delete emp (= id 4))",                  // a key across a page boundary
            "(delete emp (< salary 60))",             // a run of whole pages
            "(delete emp (>= id 0))",                 // removes everything
        ] {
            let before = db.get("emp").unwrap().pages().to_vec();
            let mut reference = db.clone();
            let got = write(&mut db, text);
            let tree = parse_query(&reference, text).unwrap();
            let want = execute(&mut reference, &tree, &ExecParams::default()).unwrap();
            assert_eq!(got, want, "{text}");
            let (target, oracle_target) = (db.get("emp").unwrap(), reference.get("emp").unwrap());
            assert_eq!(
                target.tuple_refs().map(|t| t.raw()).collect::<Vec<_>>(),
                oracle_target
                    .tuple_refs()
                    .map(|t| t.raw())
                    .collect::<Vec<_>>(),
                "{text}"
            );
            // Untouched pages are shared, never copied.
            let shared = target
                .pages()
                .iter()
                .filter(|p| before.iter().any(|b| Arc::ptr_eq(b, p)))
                .count();
            let touched = before
                .iter()
                .filter(|p| p.tuples().any(|t| tree_predicate(&tree).eval(&t)))
                .count();
            assert_eq!(shared, before.len() - touched, "{text}");
        }
        assert_eq!(db.get("emp").unwrap().num_pages(), 0);
    }

    /// The predicate of a delete tree.
    fn tree_predicate(tree: &QueryTree) -> &Predicate {
        match &tree.node(tree.root()).op {
            Op::Delete { predicate, .. } => predicate,
            other => panic!("not a delete: {}", other.name()),
        }
    }

    /// `serve-write`'s cycle: appending one new key and deleting it again
    /// leaves every page as it was, whether the append opened a page or
    /// filled the last one.
    #[test]
    fn append_then_delete_of_one_key_leaves_the_layout_unchanged() {
        for n in [20, 19] {
            let mut db = db();
            let emp = db.get("emp").unwrap().clone();
            let first_n =
                Relation::from_tuples("emp", emp.schema().clone(), 128, emp.tuples().take(n))
                    .unwrap();
            db.insert_or_replace(first_n.clone());
            let new_key = Tuple::new(vec![Value::Int(100), Value::Int(0), Value::Int(0)]);
            db.insert(Relation::from_tuples("src", emp.schema().clone(), 128, [new_key]).unwrap())
                .unwrap();
            let appended = write(&mut db, "(append (scan src) emp)");
            assert_eq!(appended.num_tuples(), 1);
            assert_eq!(db.get("emp").unwrap().num_tuples(), n + 1);
            let deleted = write(&mut db, "(delete emp (= id 100))");
            assert_eq!(
                deleted
                    .tuple_refs()
                    .map(|t| t.raw().to_vec())
                    .collect::<Vec<_>>(),
                appended
                    .tuple_refs()
                    .map(|t| t.raw().to_vec())
                    .collect::<Vec<_>>()
            );
            let after = db.get("emp").unwrap();
            assert_eq!(page_lens(after), page_lens(&first_n), "{n} tuples");
            assert_eq!(after.pages(), first_n.pages(), "{n} tuples");
            // Every page but a refilled last one is the original allocation.
            let full = n / 4;
            for (a, b) in after.pages()[..full].iter().zip(first_n.pages()) {
                assert!(Arc::ptr_eq(a, b));
            }
        }
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
