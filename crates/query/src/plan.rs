//! The compiled plan: a validated [`QueryTree`] annotated, once, with
//! everything every executor needs to run it.
//!
//! Paper §2.3: *"the instruction in each memory cell corresponds to a node
//! in the query tree"*, and §3.2 gives each operator class one firing
//! rule. [`Plan::compile`] derives, per tree node, the output schema, the
//! `(parent, port)` its pages flow to, and — in one `match` over [`Op`],
//! the only classification of an operator in the workspace — its
//! [`Firing`] class and the [`Kernel`] its units run, compiled against its
//! operand schemas. Every scheduler reads that kernel off the node in
//! place — the simulated machines and the host executor through the cells
//! of a [`crate::Graph`], [`crate::run_plan`] directly — and standing
//! views fire it over delta pages. [`Plan::fuse_spans`] is the
//! only span-fusion pass: the pipeline transfer mode is this one call.

use std::fmt;
use std::str::FromStr;

use df_relalg::{Catalog, Result, Schema};

use crate::kernel::Kernel;
use crate::ops::{JoinSweep, SpanStep, UnaryKernel};
use crate::tree::{Op, QueryTree};
use crate::validate::validate;

/// How an operator fires as operand pages arrive (§3.2) and — the same
/// partition read incrementally — how a write delta flows through it in a
/// standing view. DESIGN.md §5 tabulates class → delta rule → kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Firing {
    /// Leaf: pages come from the page store, no work units. *Delta rule:*
    /// a write to the scanned relation enters the dataflow here as a
    /// signed multiset of raw tuple images.
    Source,
    /// One work unit per arriving operand page (`delete` has no child: its
    /// operand pages are its target relation's). *Delta rule:* linear in
    /// the bag algebra — delta pages flow through the unchanged
    /// page-at-a-time kernel with no retained state.
    PerPage,
    /// One work unit per (new page × opposite pages so far) sweep — the
    /// paper's independent nested-loops work units. *Delta rule:* the bag
    /// product Δ(L ⋈ R) = ΔL ⋈ R + (L + ΔL) ⋈ ΔR over both operand
    /// multisets, retained.
    PairSweep,
    /// One work unit once every operand is complete — the operators the
    /// paper calls out as blocking. *Delta rule:* set semantics are
    /// indicator functions over retained per-port counts; a delta is
    /// emitted only on a 0 ↔ positive transition.
    Complete,
}

/// The one classification of an operator: its firing class and its kernel,
/// compiled against `inputs`, the operand schemas in port order (a leaf
/// reads pages of its own output schema, so that is its one input).
fn classify(op: &Op, inputs: &[&Schema]) -> (Firing, Kernel) {
    let form = |step: Option<SpanStep>| UnaryKernel::compile(step.as_slice(), inputs[0]);
    match op {
        Op::Scan { .. } => (Firing::Source, Kernel::Unary(form(None))),
        // An append passes its operand through; the catalog update it
        // requests happens after the run.
        Op::Append { .. } => (Firing::PerPage, Kernel::Unary(form(None))),
        // A delete filters like a restrict: it emits the tuples it removes.
        Op::Restrict { predicate } | Op::Delete { predicate, .. } => {
            let step = SpanStep::Restrict(predicate.clone());
            (Firing::PerPage, Kernel::Unary(form(Some(step))))
        }
        Op::Project { projection, dedup } => {
            let projected = form(Some(SpanStep::Project(projection.clone())));
            if *dedup {
                (Firing::Complete, Kernel::ProjectDedupFinal(projected))
            } else {
                (Firing::PerPage, Kernel::Unary(projected))
            }
        }
        Op::Join { condition } => {
            let sweep = JoinSweep::compile(inputs[0], inputs[1], condition);
            (Firing::PairSweep, Kernel::JoinPair(sweep))
        }
        Op::CrossProduct => (Firing::PairSweep, Kernel::CrossPair),
        Op::Union => (Firing::Complete, Kernel::UnionFinal),
        Op::Difference => (Firing::Complete, Kernel::DifferenceFinal),
    }
}

/// How results move between chained unary operators.
///
/// The paper's instruction cells materialize a whole result page between
/// every operator (§3.2 fires a cell only when an operand page is
/// complete). `Pipeline` keeps the firing rule but fuses maximal
/// restrict→project→… chains into one [`Kernel::Unary`] form: the
/// chain's predicates and projections run per tuple over the *input* page
/// and only final survivors are written, so the intermediate pages — and
/// their transfer cost — never exist. Output is byte-identical either way.
/// It is a property of the plan, not of a machine: `Pipeline` is one call
/// of [`Plan::fuse_spans`], made by every executor whose params ask for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransferMode {
    /// One materialized result page per operator (the paper's design).
    #[default]
    Materialize,
    /// Fused restrict/project spans: one transfer per chain.
    Pipeline,
}

impl TransferMode {
    /// Both modes, for sweeps.
    pub const ALL: [TransferMode; 2] = [TransferMode::Materialize, TransferMode::Pipeline];
}

impl fmt::Display for TransferMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TransferMode::Materialize => "materialize",
            TransferMode::Pipeline => "pipeline",
        };
        write!(f, "{s}")
    }
}

impl FromStr for TransferMode {
    type Err = String;

    /// Parse the [`fmt::Display`] form back (round-trip guaranteed).
    fn from_str(s: &str) -> std::result::Result<TransferMode, String> {
        match s {
            "materialize" => Ok(TransferMode::Materialize),
            "pipeline" => Ok(TransferMode::Pipeline),
            other => Err(format!(
                "unknown transfer mode `{other}` (expected one of: materialize, pipeline)"
            )),
        }
    }
}

/// One compiled tree node.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// The relational operation (predicates/projections pre-resolved by the
    /// tree builder, re-checked by `validate`).
    pub op: Op,
    /// Operand nodes in port order.
    pub children: Vec<usize>,
    /// Derived output schema.
    pub out_schema: Schema,
    /// `(parent node, operand port)` this node's pages flow to — `None`
    /// for the root.
    pub parent: Option<(usize, usize)>,
    /// Firing class.
    pub firing: Firing,
    /// The operator code its units run, compiled once against its operand
    /// schemas. After [`Plan::fuse_spans`] a chain bottom's
    /// [`Kernel::Unary`] runs the whole chain, bottom to top, in one unit
    /// per operand page; `op` keeps the bottom operator for diagnostics,
    /// `out_schema` and `parent` are the chain top's.
    pub kernel: Kernel,
    /// Set by [`Plan::fuse_spans`] on the upper nodes of a fused chain:
    /// nothing routes pages to them and no unit ever fires on them.
    pub absorbed: bool,
}

/// A compiled query: one [`PlanNode`] per tree node, indexed by node id, in
/// topological (leaf-before-parent) order.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The nodes.
    pub nodes: Vec<PlanNode>,
    /// The node whose output pages are the query result.
    pub root: usize,
}

impl Plan {
    /// Compile `tree` against `db`.
    ///
    /// # Errors
    /// Propagates validation errors (unknown relations, type mismatches…).
    pub fn compile(db: &Catalog, tree: &QueryTree) -> Result<Plan> {
        let schemas = validate(db, tree)?;
        let mut parent = vec![None; tree.len()];
        for (id, node) in tree.nodes().iter().enumerate() {
            for (port, child) in node.children.iter().enumerate() {
                parent[child.0] = Some((id, port));
            }
        }
        let nodes = tree
            .topo_order()
            .map(|id| {
                let node = tree.node(id);
                let mut inputs: Vec<&Schema> =
                    node.children.iter().map(|&c| schemas.schema(c)).collect();
                if inputs.is_empty() {
                    inputs.push(schemas.schema(id));
                }
                let (firing, kernel) = classify(&node.op, &inputs);
                PlanNode {
                    op: node.op.clone(),
                    children: node.children.iter().map(|c| c.0).collect(),
                    out_schema: schemas.schema(id).clone(),
                    parent: parent[id.0],
                    firing,
                    kernel,
                    absorbed: false,
                }
            })
            .collect();
        Ok(Plan {
            nodes,
            root: tree.root().0,
        })
    }

    /// The pipeline transfer mode: collapse every maximal chain (length
    /// ≥ 2) of restricts and bag projects into one fused span.
    ///
    /// Node indices never change (executors address nodes by them): the
    /// chain's *bottom* node's [`Kernel::Unary`] is rewritten in place to
    /// run the whole chain and the upper nodes are marked
    /// [`PlanNode::absorbed`] — with the bottom's `parent` repointed past
    /// them no page is ever routed their way. The update operators fire per
    /// page too but never fuse: their output feeds a catalog update.
    pub fn fuse_spans(&mut self) {
        /// A node's own per-page form, if the node can be a chain link.
        fn link(node: &PlanNode) -> Option<&UnaryKernel> {
            match &node.kernel {
                Kernel::Unary(form) if node.firing == Firing::PerPage && !node.op.is_update() => {
                    Some(form)
                }
                _ => None,
            }
        }
        // Bottom-up: a link reached unabsorbed is a chain bottom, because
        // a link below it would have walked up through it already.
        for bottom in 0..self.nodes.len() {
            if self.nodes[bottom].absorbed {
                continue;
            }
            let Some(form) = link(&self.nodes[bottom]) else {
                continue;
            };
            let (mut chain, mut steps) = (vec![bottom], form.span().to_vec());
            while let Some((p, _)) = self.nodes[chain[chain.len() - 1]].parent {
                let Some(form) = link(&self.nodes[p]) else {
                    break;
                };
                steps.extend_from_slice(form.span());
                chain.push(p);
            }
            let top = chain[chain.len() - 1];
            if top == bottom {
                continue;
            }
            for &c in &chain[1..] {
                self.nodes[c].absorbed = true;
            }
            let input = &self.nodes[self.nodes[bottom].children[0]].out_schema;
            let kernel = Kernel::Unary(UnaryKernel::compile(&steps, input));
            let (out_schema, parent) = (self.nodes[top].out_schema.clone(), self.nodes[top].parent);
            let node = &mut self.nodes[bottom];
            node.kernel = kernel;
            node.out_schema = out_schema;
            node.parent = parent;
            if self.root == top {
                self.root = bottom;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;
    use crate::parser::parse_query;
    use df_relalg::{CmpOp, DataType, Relation, Tuple, Value};
    use proptest::prelude::*;

    fn db() -> Catalog {
        let mut db = Catalog::new();
        let kv = Schema::build()
            .attr("k", DataType::Int)
            .attr("v", DataType::Int)
            .finish()
            .unwrap();
        for name in ["a", "b"] {
            db.insert(
                Relation::from_tuples(
                    name,
                    kv.clone(),
                    128,
                    (0..4).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 2)])),
                )
                .unwrap(),
            )
            .unwrap();
        }
        db
    }

    fn plan(db: &Catalog, text: &str, fuse: bool) -> Plan {
        let mut plan = Plan::compile(db, &parse_query(db, text).unwrap()).unwrap();
        if fuse {
            plan.fuse_spans();
        }
        plan
    }

    /// The logical operators a node's per-page form runs (0 for none).
    fn steps(node: &PlanNode) -> usize {
        match &node.kernel {
            Kernel::Unary(form) => form.steps(),
            _ => 0,
        }
    }

    #[test]
    fn classifies_every_operator() {
        let db = db();
        let firings = |text: &str| -> Vec<Firing> {
            plan(&db, text, false)
                .nodes
                .iter()
                .map(|n| n.firing)
                .collect()
        };
        use Firing::*;
        assert_eq!(
            firings("(project-distinct (join (restrict (scan a) (>= k 0)) (scan b) (= k k)) (k))"),
            vec![Source, PerPage, Source, PairSweep, Complete]
        );
        assert_eq!(
            firings("(project (cross (scan a) (scan b)) (k))"),
            vec![Source, Source, PairSweep, PerPage]
        );
        assert_eq!(
            firings("(union (scan a) (scan b))"),
            vec![Source, Source, Complete]
        );
        assert_eq!(
            firings("(difference (scan a) (scan b))"),
            vec![Source, Source, Complete]
        );
        assert_eq!(firings("(append (scan a) b)"), vec![Source, PerPage]);
        assert_eq!(firings("(delete a (> k 1))"), vec![PerPage]);
    }

    #[test]
    fn compiles_shapes_parents_and_schemas() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let q = b
            .scan("a")
            .unwrap()
            .restrict_where("k", CmpOp::Gt, Value::Int(2))
            .unwrap()
            .equi_join(b.scan("b").unwrap(), "v", "v")
            .unwrap()
            .finish();
        let plan = Plan::compile(&db, &q).unwrap();
        assert_eq!(plan.nodes.len(), 4);
        assert_eq!(plan.root, 3);
        // scan -> restrict (port 0 of the join's outer side).
        assert_eq!(plan.nodes[0].parent, Some((1, 0)));
        assert_eq!(plan.nodes[1].parent, Some((3, 0)));
        assert_eq!(plan.nodes[2].parent, Some((3, 1)));
        assert_eq!(plan.nodes[3].parent, None);
        assert_eq!(plan.nodes[3].children, vec![1, 2]);
        // Join output is wider than either input.
        assert_eq!(plan.nodes[3].out_schema.arity(), 4);
        let steps: Vec<usize> = plan.nodes.iter().map(steps).collect();
        assert_eq!(steps, vec![0, 1, 0, 0]);
        assert!(matches!(plan.nodes[3].kernel, Kernel::JoinPair(_)));
        assert!(matches!(plan.nodes[2].kernel, Kernel::Unary(_)));
        assert!(plan.nodes.iter().all(|n| !n.absorbed));
        assert!(Plan::compile(&Catalog::new(), &q).is_err());
    }

    #[test]
    fn fuses_chain_without_renumbering() {
        let db = db();
        let plan = plan(&db, "(project (restrict (scan a) (> k 2)) (v))", true);
        // Nodes keep their tree indices; the restrict (node 1) became the
        // span, absorbing the project (node 2), and took over as root.
        assert_eq!(plan.nodes.len(), 3);
        assert_eq!(plan.root, 1);
        let span = &plan.nodes[1];
        assert_eq!(steps(span), 2);
        assert_eq!(span.parent, None);
        assert_eq!(span.out_schema.arity(), 1);
        assert_eq!(span.firing, Firing::PerPage);
        assert!(plan.nodes[2].absorbed && !span.absorbed);
        // The scan still feeds the span node at port 0.
        assert_eq!(plan.nodes[0].parent, Some((1, 0)));
    }

    #[test]
    fn fuses_legs_below_a_join_but_not_lone_operators() {
        let db = db();
        // scan(0) -> restrict(1) -> restrict(2) -> join(4) <- scan(3); the
        // two restricts fuse into node 1, feeding the join's port 0.
        let p = plan(
            &db,
            "(join (restrict (restrict (scan a) (> k 1)) (< k 6)) (scan b) (= v v))",
            true,
        );
        assert_eq!(steps(&p.nodes[1]), 2);
        assert_eq!(p.nodes[1].parent, Some((4, 0)));
        assert_eq!(p.root, 4);
        // A lone restrict (or project) never fuses: chain length 1.
        let p = plan(&db, "(restrict (scan a) (> k 2))", true);
        assert!(p.nodes.iter().all(|n| steps(n) <= 1 && !n.absorbed));
    }

    #[test]
    fn dedup_project_splits_a_chain_into_two_spans() {
        let db = db();
        // restrict(1) project(2) | project-distinct(3) | restrict(4) project(5)
        let p = plan(
            &db,
            "(project (restrict (project-distinct \
               (project (restrict (scan a) (> k 0)) (v k)) (v k)) (> k 1)) (v))",
            true,
        );
        // Absorbed nodes (2, 5) keep their own one-step forms, unused.
        let steps: Vec<usize> = p.nodes.iter().map(steps).collect();
        assert_eq!(steps, vec![0, 2, 1, 0, 2, 1]);
        assert_eq!(p.nodes[1].parent, Some((3, 0)));
        assert_eq!(p.nodes[3].parent, Some((4, 0)));
        assert_eq!(p.root, 4);
    }

    #[test]
    fn update_roots_never_fuse() {
        let db = db();
        let p = plan(
            &db,
            "(append (project (restrict (scan a) (> k 0)) (k v)) b)",
            true,
        );
        assert_eq!(steps(&p.nodes[1]), 2);
        assert_eq!(p.nodes[1].parent, Some((3, 0)));
        assert!(!p.nodes[3].absorbed && steps(&p.nodes[3]) == 0);
        assert_eq!(p.root, 3);
    }

    /// A random read-only tree over `a`/`b` that keeps the (k, v) schema at
    /// every node, so any two subtrees can feed a binary operator.
    fn gen_tree(words: &mut impl Iterator<Item = u64>, depth: usize) -> String {
        let mut draw = || words.next().expect("cycled");
        if depth == 0 {
            return format!("(scan {})", ["a", "b"][draw() as usize % 2]);
        }
        match draw() % 7 {
            0 => format!("(restrict {} (< v {}))", gen_tree(words, depth - 1), 3),
            1 => format!("(project {} (k v))", gen_tree(words, depth - 1)),
            2 => format!("(project-distinct {} (k v))", gen_tree(words, depth - 1)),
            3 => format!(
                "(project (join {} {} (= k k)) (k v))",
                gen_tree(words, depth - 1),
                gen_tree(words, depth - 1)
            ),
            4 => format!(
                "(union {} {})",
                gen_tree(words, depth - 1),
                gen_tree(words, depth - 1)
            ),
            5 => format!(
                "(difference {} {})",
                gen_tree(words, depth - 1),
                gen_tree(words, depth - 1)
            ),
            _ => format!("(restrict {} (>= k 1))", gen_tree(words, depth - 1)),
        }
    }

    proptest! {
        /// Fusion neither loses nor invents an operator: the live cells
        /// plus the steps folded into spans are exactly the tree's
        /// non-scan nodes, every span is a run of per-page nodes, and
        /// every live node's pages still reach the root.
        #[test]
        fn live_cells_plus_fused_steps_equal_non_scan_nodes(
            words in proptest::collection::vec(any::<u64>(), 8..32),
            depth in 0usize..5,
        ) {
            let db = db();
            let text = gen_tree(&mut words.iter().copied().cycle(), depth);
            let plan = plan(&db, &text, true);
            let non_scan = plan.nodes.iter().filter(|n| n.firing != Firing::Source).count();
            let live = plan
                .nodes
                .iter()
                .filter(|n| n.firing != Firing::Source && !n.absorbed)
                .count();
            let folded: usize = plan
                .nodes
                .iter()
                .filter(|n| !n.absorbed)
                .map(|n| steps(n).saturating_sub(1))
                .sum();
            prop_assert_eq!(live + folded, non_scan, "{}", text);
            let absorbed = plan.nodes.iter().filter(|n| n.absorbed).count();
            prop_assert_eq!(absorbed, folded);
            for (i, node) in plan.nodes.iter().enumerate() {
                if node.absorbed {
                    continue;
                }
                prop_assert!(steps(node) <= 1 || node.firing == Firing::PerPage);
                let mut at = i;
                while let Some((p, _)) = plan.nodes[at].parent {
                    prop_assert!(p > at && !plan.nodes[p].absorbed);
                    at = p;
                }
                prop_assert_eq!(at, plan.root);
            }
        }
    }
}
