//! The query-tree IR.

use df_relalg::{JoinCondition, Predicate, Projection};

/// Index of a node within its [`QueryTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A relational algebra operation (one "instruction" in data-flow terms).
///
/// Predicates, projections and join conditions are already resolved to
/// attribute indices against the node's *derived input schema(s)* — the
/// [`crate::TreeBuilder`] and [`crate::parse_query`] do the resolution, and
/// [`crate::validate`] re-checks it.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Leaf: read a base relation from the database.
    Scan {
        /// Name of the base relation.
        relation: String,
    },
    /// σ: keep tuples satisfying the predicate. One child.
    Restrict {
        /// The restriction predicate (indices into the child's schema).
        predicate: Predicate,
    },
    /// π: keep the listed attributes; optionally eliminate duplicates.
    /// One child.
    Project {
        /// Attributes to keep (indices into the child's schema).
        projection: Projection,
        /// Set semantics (duplicate elimination) — the operator the paper's
        /// §5 calls out as hard to parallelize.
        dedup: bool,
    },
    /// ⋈: θ-join of two children (left = outer, right = inner).
    Join {
        /// The join condition (left index into outer schema, right into inner).
        condition: JoinCondition,
    },
    /// ×: cross product of two children.
    CrossProduct,
    /// ∪ with set semantics (children must be union-compatible).
    Union,
    /// − with set semantics (left minus right).
    Difference,
    /// Root-only: append the child's result to a base relation.
    Append {
        /// Target base relation.
        target: String,
    },
    /// Root-only leafless update: delete tuples matching the predicate from
    /// a base relation.
    Delete {
        /// Target base relation.
        target: String,
        /// Tuples matching this are removed.
        predicate: Predicate,
    },
}

impl Op {
    /// How many children this operator requires.
    pub fn arity(&self) -> usize {
        match self {
            Op::Scan { .. } | Op::Delete { .. } => 0,
            Op::Restrict { .. } | Op::Project { .. } | Op::Append { .. } => 1,
            Op::Join { .. } | Op::CrossProduct | Op::Union | Op::Difference => 2,
        }
    }

    /// Short name for display and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Scan { .. } => "scan",
            Op::Restrict { .. } => "restrict",
            Op::Project { .. } => "project",
            Op::Join { .. } => "join",
            Op::CrossProduct => "cross",
            Op::Union => "union",
            Op::Difference => "difference",
            Op::Append { .. } => "append",
            Op::Delete { .. } => "delete",
        }
    }

    /// Whether this is a database-modifying root operator.
    pub fn is_update(&self) -> bool {
        matches!(self, Op::Append { .. } | Op::Delete { .. })
    }
}

/// One node of a query tree.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryNode {
    /// The operation.
    pub op: Op,
    /// Children in operand order (outer first for joins).
    pub children: Vec<NodeId>,
}

/// A relational algebra query: a tree of [`QueryNode`]s.
///
/// Nodes are stored in a flat arena; children always have smaller ids than
/// their parent (the builder constructs bottom-up), which the simulators use
/// to iterate leaf-to-root.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTree {
    nodes: Vec<QueryNode>,
    root: NodeId,
}

impl QueryTree {
    /// Assemble a tree from an arena and a root (checked for basic shape).
    ///
    /// # Panics
    /// Panics if the root id is out of range, a child id is not smaller than
    /// its parent's, or a node's child count mismatches its operator arity.
    /// Trees are built by this crate's own builder/parser, so violations are
    /// construction bugs, not user errors.
    pub fn from_parts(nodes: Vec<QueryNode>, root: NodeId) -> QueryTree {
        assert!(root.0 < nodes.len(), "root {root} out of range");
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(
                n.children.len(),
                n.op.arity(),
                "node n{i} ({}) has {} children, needs {}",
                n.op.name(),
                n.children.len(),
                n.op.arity()
            );
            for c in &n.children {
                assert!(c.0 < i, "node n{i} has non-topological child {c}");
            }
        }
        QueryTree { nodes, root }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The node arena, in topological (leaf-before-parent) order.
    pub fn nodes(&self) -> &[QueryNode] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &QueryNode {
        &self.nodes[id.0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for the (degenerate) empty tree — never produced by the builder.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids in topological order (children before parents).
    pub fn topo_order(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// The parent of each node (None for the root and detached nodes).
    pub fn parents(&self) -> Vec<Option<NodeId>> {
        let mut parents = vec![None; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for c in &n.children {
                parents[c.0] = Some(NodeId(i));
            }
        }
        parents
    }

    /// Count of nodes whose operator name matches `name` (used by the
    /// workload generator to verify the paper's exact query mix).
    pub fn count_op(&self, name: &str) -> usize {
        self.nodes.iter().filter(|n| n.op.name() == name).count()
    }

    /// Names of all base relations this query reads or writes.
    pub fn referenced_relations(&self) -> Vec<String> {
        let mut names = Vec::new();
        for n in &self.nodes {
            match &n.op {
                Op::Scan { relation } => names.push(relation.clone()),
                Op::Append { target } | Op::Delete { target, .. } => names.push(target.clone()),
                _ => {}
            }
        }
        names.sort();
        names.dedup();
        names
    }

    /// Names of base relations this query *writes* (empty for read-only).
    pub fn written_relations(&self) -> Vec<String> {
        let mut names = Vec::new();
        for n in &self.nodes {
            match &n.op {
                Op::Append { target } | Op::Delete { target, .. } => names.push(target.clone()),
                _ => {}
            }
        }
        names.sort();
        names.dedup();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_relalg::{CmpOp, JoinCondition};

    fn scan(rel: &str) -> QueryNode {
        QueryNode {
            op: Op::Scan {
                relation: rel.into(),
            },
            children: vec![],
        }
    }

    fn join(l: usize, r: usize) -> QueryNode {
        QueryNode {
            op: Op::Join {
                condition: JoinCondition {
                    left: 0,
                    op: CmpOp::Eq,
                    right: 0,
                },
            },
            children: vec![NodeId(l), NodeId(r)],
        }
    }

    #[test]
    fn shape_accessors() {
        let t = QueryTree::from_parts(vec![scan("a"), scan("b"), join(0, 1)], NodeId(2));
        assert_eq!(t.len(), 3);
        assert_eq!(t.root(), NodeId(2));
        assert_eq!(t.node(NodeId(0)).op.name(), "scan");
        assert_eq!(t.count_op("scan"), 2);
        assert_eq!(t.count_op("join"), 1);
        assert_eq!(t.referenced_relations(), vec!["a", "b"]);
        assert!(t.written_relations().is_empty());
        assert_eq!(t.parents(), vec![Some(NodeId(2)), Some(NodeId(2)), None]);
    }

    #[test]
    fn arity_rules() {
        assert_eq!(
            Op::Scan {
                relation: "x".into()
            }
            .arity(),
            0
        );
        assert_eq!(Op::Union.arity(), 2);
        assert_eq!(Op::Append { target: "x".into() }.arity(), 1);
    }

    #[test]
    #[should_panic(expected = "non-topological")]
    fn rejects_forward_child_references() {
        let _ = QueryTree::from_parts(vec![join(1, 2), scan("a"), scan("b")], NodeId(0));
    }

    #[test]
    #[should_panic(expected = "children")]
    fn rejects_wrong_arity() {
        let bad = QueryNode {
            op: Op::Union,
            children: vec![NodeId(0)],
        };
        let _ = QueryTree::from_parts(vec![scan("a"), bad], NodeId(1));
    }
}
