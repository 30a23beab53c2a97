//! Query compilation: the shared [`df_query::Plan`] plus what only the host
//! executor needs. Each plan node is an *instruction cell*, the host's
//! counterpart of the paper's instructions held by memory cells / ICs: the
//! plan gives a cell its operator, derived output schema, parent (and which
//! operand port of the parent it feeds) and firing class; this module adds
//! the [`Kernel`] the operator lowers to (the code a worker runs — the same
//! lowering the simulated machines execute), its depth from the root (the
//! `RootFirst` policy's input) and its output page size.

use df_core::TransferMode;
use df_query::{Kernel, Plan, PlanNode, QueryTree};
use df_relalg::{Catalog, PAGE_HEADER_BYTES};

use crate::error::{HostError, HostResult};

/// A compiled query: cells are the plan's nodes, indexed by tree node id in
/// topological (leaf-before-parent) order. Under
/// [`TransferMode::Pipeline`] the plan is fused: absorbed cells stay in
/// place but nothing ever routes pages to them.
#[derive(Debug, Clone)]
pub(crate) struct QueryPlan {
    pub plan: Plan,
    /// Per cell: the operator code its units run.
    pub kernels: Vec<Kernel>,
    /// Per cell: distance from the root (root = 0), along the routes pages
    /// actually take — a span sits at its chain top's depth.
    pub depth: Vec<usize>,
    /// Per cell: page size for its output pages — the configured size,
    /// grown if necessary so at least one (possibly very wide) tuple fits.
    pub out_page_size: Vec<usize>,
}

impl QueryPlan {
    /// Compile `tree` against `db`.
    ///
    /// # Errors
    /// Fails on validation errors ([`HostError::Data`]), and on update
    /// operators ([`HostError::ReadOnlyExecutor`]): the host executor runs
    /// read-only queries (updates stay on the oracle and the simulated
    /// machines, which own catalog mutation).
    pub fn build(
        db: &Catalog,
        tree: &QueryTree,
        page_size: usize,
        transfer: TransferMode,
    ) -> HostResult<QueryPlan> {
        let mut plan = Plan::compile(db, tree)?;
        if let Some(update) = plan.nodes.iter().find(|n| n.op.is_update()) {
            return Err(HostError::ReadOnlyExecutor {
                op: update.op.name().to_string(),
            });
        }
        if transfer == TransferMode::Pipeline {
            plan.fuse_spans();
        }
        // Parents have larger ids, so a reverse sweep sees every parent
        // before its children.
        let mut depth = vec![0usize; plan.nodes.len()];
        for (id, node) in plan.nodes.iter().enumerate().rev() {
            if let Some((p, _)) = node.parent {
                depth[id] = depth[p] + 1;
            }
        }
        let out_page_size = plan
            .nodes
            .iter()
            .map(|n| page_size.max(PAGE_HEADER_BYTES + n.out_schema.tuple_width()))
            .collect();
        let kernels = plan.nodes.iter().map(Kernel::lower).collect();
        Ok(QueryPlan {
            plan,
            kernels,
            depth,
            out_page_size,
        })
    }

    /// Cell `cell`'s plan node.
    pub fn cell(&self, cell: usize) -> &PlanNode {
        &self.plan.nodes[cell]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_query::{Firing, TreeBuilder};
    use df_relalg::{CmpOp, DataType, Relation, Schema, Tuple, Value};

    fn db() -> Catalog {
        let mut db = Catalog::new();
        let s = Schema::build()
            .attr("id", DataType::Int)
            .attr("dept", DataType::Int)
            .finish()
            .unwrap();
        db.insert(
            Relation::from_tuples(
                "emp",
                s,
                1024,
                (0..8).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 2)])),
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn compiles_depths_over_the_shared_plan() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let q = b
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Gt, Value::Int(2))
            .unwrap()
            .equi_join(b.scan("emp").unwrap(), "dept", "dept")
            .unwrap()
            .finish();
        let plan = QueryPlan::build(&db, &q, 1024, TransferMode::Materialize).unwrap();
        assert_eq!(plan.plan.nodes.len(), 4);
        assert_eq!(plan.plan.root, 3);
        assert_eq!(plan.depth, vec![2, 1, 1, 0]);
        assert_eq!(plan.cell(3).firing, Firing::PairSweep);
        assert_eq!(plan.cell(0).firing, Firing::Source);
        assert_eq!(plan.cell(1).parent, Some((3, 0)));
    }

    #[test]
    fn tiny_page_size_grows_to_fit_one_tuple() {
        let db = db();
        let q = TreeBuilder::new(&db).scan("emp").unwrap().finish();
        let plan = QueryPlan::build(&db, &q, 8, TransferMode::Materialize).unwrap();
        assert!(plan.out_page_size[0] >= PAGE_HEADER_BYTES + 16);
    }

    #[test]
    fn pipeline_span_takes_its_chain_tops_depth_and_page_size() {
        let db = db();
        let b = TreeBuilder::new(&db);
        // scan(0) -> restrict(1) -> project(2) -> join(4) <- scan(3)
        let q = b
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Gt, Value::Int(2))
            .unwrap()
            .project(&["dept"], false)
            .unwrap()
            .equi_join(b.scan("emp").unwrap(), "dept", "dept")
            .unwrap()
            .finish();
        let build = |transfer| QueryPlan::build(&db, &q, 8, transfer).unwrap();
        let (mat, pipe) = (
            build(TransferMode::Materialize),
            build(TransferMode::Pipeline),
        );
        let steps =
            |plan: &QueryPlan, cell: usize| plan.cell(cell).unary.as_ref().map(|u| u.steps());
        let mat_steps: Vec<_> = (0..5).map(|c| steps(&mat, c)).collect();
        assert_eq!(mat_steps, [Some(0), Some(1), Some(1), Some(0), None]);
        assert_eq!(mat.depth, vec![3, 2, 1, 1, 0]);
        // The restrict became the span: it feeds the join directly, from
        // the project's depth, in pages sized for the project's tuples.
        assert_eq!(steps(&pipe, 1), Some(2));
        assert!(pipe.cell(2).absorbed);
        assert_eq!(pipe.cell(1).parent, Some((4, 0)));
        assert_eq!(pipe.depth[1], mat.depth[2]);
        assert_eq!(pipe.depth[0], 2);
        assert_eq!(pipe.out_page_size[1], mat.out_page_size[2]);
        assert!(pipe.out_page_size[1] < mat.out_page_size[1]);
    }

    #[test]
    fn rejects_updates() {
        let db = db();
        let q = TreeBuilder::new(&db)
            .delete_where("emp", "id", CmpOp::Eq, Value::Int(0))
            .unwrap();
        let err = QueryPlan::build(&db, &q, 1024, TransferMode::Materialize).unwrap_err();
        assert!(err.to_string().contains("read-only"));
        // A fusible chain under an update root is rejected all the same.
        let q = TreeBuilder::new(&db)
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Gt, Value::Int(2))
            .unwrap()
            .project(&["id", "dept"], false)
            .unwrap()
            .append_to("emp")
            .unwrap()
            .finish();
        let err = QueryPlan::build(&db, &q, 1024, TransferMode::Pipeline).unwrap_err();
        assert!(matches!(err, HostError::ReadOnlyExecutor { ref op } if op == "append"));
    }
}
