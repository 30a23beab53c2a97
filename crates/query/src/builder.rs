//! Fluent, name-based query-tree construction.
//!
//! Predicates, projections and join conditions are specified by attribute
//! *name* and resolved to indices immediately — exactly once — against
//! the subtree's output schema. Each new node then passes through
//! [`Op::output_schema`], the same per-node rule `validate`
//! runs, which checks it and derives the next output schema.

use df_relalg::{Catalog, CmpOp, JoinCondition, Predicate, Projection, Result, Schema, Value};

use crate::tree::{NodeId, Op, QueryNode, QueryTree};

/// Entry point: builds [`SubTree`]s against a database catalog.
#[derive(Debug, Clone, Copy)]
pub struct TreeBuilder<'a> {
    db: &'a Catalog,
}

impl<'a> TreeBuilder<'a> {
    /// A builder over `db`.
    pub fn new(db: &'a Catalog) -> TreeBuilder<'a> {
        TreeBuilder { db }
    }

    /// A leaf scanning base relation `name`.
    pub fn scan(&self, name: &str) -> Result<SubTree<'a>> {
        let op = Op::Scan {
            relation: name.to_owned(),
        };
        Ok(SubTree {
            db: self.db,
            schema: op.output_schema(self.db, |_| unreachable!("a scan has no input"))?,
            nodes: vec![QueryNode {
                op,
                children: vec![],
            }],
        })
    }

    /// A complete single-node delete query:
    /// `delete from target where attr op value`.
    pub fn delete_where(
        &self,
        target: &str,
        attr: &str,
        op: CmpOp,
        value: Value,
    ) -> Result<QueryTree> {
        let schema = self.db.require(target)?.schema().clone();
        let predicate = Predicate::cmp_const(&schema, attr, op, value)?;
        Ok(QueryTree::from_parts(
            vec![QueryNode {
                op: Op::Delete {
                    target: target.to_owned(),
                    predicate,
                },
                children: vec![],
            }],
            NodeId(0),
        ))
    }
}

/// A partially built query with a known output schema.
///
/// Nodes are stored bottom-up; combining two subtrees concatenates their
/// arenas (remapping the right side's ids), which keeps the final tree in
/// topological order without any shared mutable state.
#[derive(Debug, Clone)]
pub struct SubTree<'a> {
    db: &'a Catalog,
    nodes: Vec<QueryNode>,
    schema: Schema,
}

impl<'a> SubTree<'a> {
    /// The derived output schema so far.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    fn root(&self) -> NodeId {
        NodeId(self.nodes.len() - 1)
    }

    /// Put `op` on top of this subtree (and of `right`, for a binary
    /// operator) once [`Op::output_schema`] accepts it.
    fn push(mut self, op: Op, right: Option<SubTree<'a>>) -> Result<SubTree<'a>> {
        let schema = op.output_schema(self.db, |i| match (i, &right) {
            (1, Some(right)) => &right.schema,
            _ => &self.schema,
        })?;
        let mut children = vec![self.root()];
        if let Some(right) = right {
            // Merge right's arena into ours, remapping its ids.
            let offset = self.nodes.len();
            self.nodes.extend(right.nodes.into_iter().map(|mut n| {
                for c in &mut n.children {
                    c.0 += offset;
                }
                n
            }));
            children.push(self.root());
        }
        self.nodes.push(QueryNode { op, children });
        self.schema = schema;
        Ok(self)
    }

    /// σ with an arbitrary predicate (already resolved against
    /// [`SubTree::schema`] — use [`SubTree::restrict_where`] for the common
    /// case).
    pub fn restrict(self, predicate: Predicate) -> Result<SubTree<'a>> {
        self.push(Op::Restrict { predicate }, None)
    }

    /// σ(attr op value).
    pub fn restrict_where(self, attr: &str, op: CmpOp, value: Value) -> Result<SubTree<'a>> {
        let predicate = Predicate::cmp_const(&self.schema, attr, op, value)?;
        self.restrict(predicate)
    }

    /// π onto the named attributes; `dedup` selects set semantics.
    pub fn project(self, names: &[&str], dedup: bool) -> Result<SubTree<'a>> {
        let projection = Projection::new(&self.schema, names)?;
        self.push(Op::Project { projection, dedup }, None)
    }

    /// θ-join with `right`: `self.left_attr op right.right_attr`.
    pub fn join_on(
        self,
        right: SubTree<'a>,
        left_attr: &str,
        op: CmpOp,
        right_attr: &str,
    ) -> Result<SubTree<'a>> {
        let condition = JoinCondition::new(&self.schema, left_attr, op, &right.schema, right_attr)?;
        self.push(Op::Join { condition }, Some(right))
    }

    /// Equi-join shorthand.
    pub fn equi_join(
        self,
        right: SubTree<'a>,
        left_attr: &str,
        right_attr: &str,
    ) -> Result<SubTree<'a>> {
        self.join_on(right, left_attr, CmpOp::Eq, right_attr)
    }

    /// Cross product.
    pub fn cross(self, right: SubTree<'a>) -> SubTree<'a> {
        self.push(Op::CrossProduct, Some(right))
            .expect("any two subtrees have a cross product")
    }

    /// Set union (inputs must be union-compatible).
    pub fn union(self, right: SubTree<'a>) -> Result<SubTree<'a>> {
        self.push(Op::Union, Some(right))
    }

    /// Set difference `self − right`.
    pub fn difference(self, right: SubTree<'a>) -> Result<SubTree<'a>> {
        self.push(Op::Difference, Some(right))
    }

    /// Append the result to base relation `target` (root operator).
    pub fn append_to(self, target: &str) -> Result<SubTree<'a>> {
        let op = Op::Append {
            target: target.to_owned(),
        };
        self.push(op, None)
    }

    /// Seal into a [`QueryTree`].
    pub fn finish(self) -> QueryTree {
        let root = self.root();
        QueryTree::from_parts(self.nodes, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_relalg::{DataType, Relation, Tuple};

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
                1024,
                (0..6).map(|i| {
                    Tuple::new(vec![Value::Int(i), Value::Int(i % 2), Value::Int(i * 100)])
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
                1024,
                (0..2).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i + 1)])),
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn builds_figure_2_1_shape() {
        // Figure 2.1: two joins over three restricted scans.
        let db = db();
        let b = TreeBuilder::new(&db);
        let r1 = b
            .scan("emp")
            .unwrap()
            .restrict_where("salary", CmpOp::Gt, Value::Int(100))
            .unwrap();
        let r2 = b
            .scan("dept")
            .unwrap()
            .restrict_where("floor", CmpOp::Ge, Value::Int(1))
            .unwrap();
        let r3 = b
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Lt, Value::Int(5))
            .unwrap();
        let j1 = r1.equi_join(r2, "dept", "dno").unwrap();
        let q = j1.equi_join(r3, "id", "id").unwrap().finish();
        assert_eq!(q.count_op("restrict"), 3);
        assert_eq!(q.count_op("join"), 2);
        assert_eq!(q.count_op("scan"), 3);
        // Topological order is enforced by from_parts (would panic otherwise).
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn schema_flows_through_operators() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let t = b
            .scan("emp")
            .unwrap()
            .project(&["id", "salary"], false)
            .unwrap();
        assert_eq!(t.schema().arity(), 2);
        let joined = t.equi_join(b.scan("dept").unwrap(), "id", "dno").unwrap();
        assert_eq!(joined.schema().arity(), 4);
    }

    #[test]
    fn name_errors_surface_early() {
        let db = db();
        let b = TreeBuilder::new(&db);
        assert!(b.scan("missing").is_err());
        assert!(b
            .scan("emp")
            .unwrap()
            .restrict_where("nope", CmpOp::Eq, Value::Int(0))
            .is_err());
        assert!(b.scan("emp").unwrap().project(&["nope"], false).is_err());
    }

    #[test]
    fn union_requires_compatibility() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let ok = b
            .scan("emp")
            .unwrap()
            .union(b.scan("emp").unwrap())
            .unwrap()
            .finish();
        assert_eq!(ok.count_op("union"), 1);
        assert!(b
            .scan("emp")
            .unwrap()
            .difference(b.scan("dept").unwrap())
            .is_err());
    }

    #[test]
    fn delete_builder() {
        let db = db();
        let q = TreeBuilder::new(&db)
            .delete_where("emp", "id", CmpOp::Eq, Value::Int(3))
            .unwrap();
        assert_eq!(q.count_op("delete"), 1);
        assert_eq!(q.written_relations(), vec!["emp"]);
    }

    #[test]
    fn cross_concatenates_schemas() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let t = b.scan("emp").unwrap().cross(b.scan("dept").unwrap());
        assert_eq!(t.schema().arity(), 5);
        let q = t.finish();
        assert_eq!(q.count_op("cross"), 1);
    }
}
