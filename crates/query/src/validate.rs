//! Whole-tree validation and output-schema derivation.

use df_relalg::{Catalog, Error, Result, Schema};

use crate::tree::{NodeId, Op, QueryTree};

/// The derived schema of every node of a validated tree, in node order.
#[derive(Debug, Clone)]
pub struct NodeSchemas {
    schemas: Vec<Schema>,
}

impl NodeSchemas {
    /// The derived schema of `id`.
    pub fn schema(&self, id: NodeId) -> &Schema {
        &self.schemas[id.0]
    }

    /// The root's (i.e. the query's) output schema.
    pub fn output(&self, tree: &QueryTree) -> &Schema {
        self.schema(tree.root())
    }
}

impl Op {
    /// Check this node against its input schemas and derive its output
    /// schema: the one per-node schema rule. `child(i)` is the output
    /// schema of the `i`-th child. A scanned or written relation must
    /// exist, predicates, projections and join conditions must
    /// type-check against the inputs, set operations must be
    /// union-compatible, and an append's source must match its target.
    /// [`validate`] runs it over a whole tree; the [`crate::TreeBuilder`]
    /// and df-opt's rewrites run it one node at a time.
    ///
    /// # Errors
    /// Fails if the node does not check against its inputs.
    pub fn output_schema<'s>(
        &self,
        db: &Catalog,
        child: impl Fn(usize) -> &'s Schema,
    ) -> Result<Schema> {
        Ok(match self {
            Op::Scan { relation } => db.require(relation)?.schema().clone(),
            Op::Restrict { predicate } => {
                predicate.validate_against(child(0))?;
                child(0).clone()
            }
            Op::Project { projection, .. } => {
                projection.validate_against(child(0))?;
                projection.output_schema(child(0))?
            }
            Op::Join { condition } => {
                condition.validate_against(child(0), child(1))?;
                child(0).concat(child(1))
            }
            Op::CrossProduct => child(0).concat(child(1)),
            Op::Union | Op::Difference => {
                if child(0) != child(1) {
                    return Err(Error::SchemaMismatch {
                        detail: format!(
                            "{} inputs are not union-compatible: {} vs {}",
                            self.name(),
                            child(0),
                            child(1)
                        ),
                    });
                }
                child(0).clone()
            }
            Op::Append { target } => {
                let target_schema = db.require(target)?.schema();
                if child(0) != target_schema {
                    return Err(Error::SchemaMismatch {
                        detail: format!(
                            "append source {} does not match target `{target}` {target_schema}",
                            child(0)
                        ),
                    });
                }
                target_schema.clone()
            }
            Op::Delete { target, predicate } => {
                let target_schema = db.require(target)?.schema().clone();
                predicate.validate_against(&target_schema)?;
                target_schema
            }
        })
    }
}

/// Validate `tree` against `db`: every node passes
/// [`Op::output_schema`] against its children's derived schemas, and
/// update operators appear only at the root.
pub fn validate(db: &Catalog, tree: &QueryTree) -> Result<NodeSchemas> {
    let mut schemas: Vec<Schema> = Vec::with_capacity(tree.len());
    for id in tree.topo_order() {
        let node = tree.node(id);
        if node.op.is_update() && id != tree.root() {
            return Err(Error::SchemaMismatch {
                detail: format!("update operator `{}` must be the root", node.op.name()),
            });
        }
        let derived = node
            .op
            .output_schema(db, |i| &schemas[node.children[i].0])?;
        schemas.push(derived);
    }
    Ok(NodeSchemas { schemas })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;
    use df_relalg::{CmpOp, DataType, Relation, Tuple, Value};

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
                s.clone(),
                1024,
                (0..4).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 2)])),
            )
            .unwrap(),
        )
        .unwrap();
        let d = Schema::build()
            .attr("dno", DataType::Int)
            .attr("floor", DataType::Int)
            .finish()
            .unwrap();
        db.insert(Relation::new("dept", d, 1024).unwrap()).unwrap();
        db
    }

    #[test]
    fn derives_join_output_schema() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let q = b
            .scan("emp")
            .unwrap()
            .join_on(b.scan("dept").unwrap(), "dept", CmpOp::Eq, "dno")
            .unwrap()
            .finish();
        let schemas = validate(&db, &q).unwrap();
        let out = schemas.output(&q);
        assert_eq!(out.arity(), 4);
        assert_eq!(out.attrs()[2].name, "dno");
    }

    #[test]
    fn rejects_unknown_relation() {
        let db = db();
        let tree = TreeBuilder::new(&db).scan("emp").unwrap().finish();
        // Forge a scan of a missing relation by validating against empty db.
        let empty = Catalog::new();
        assert!(validate(&empty, &tree).is_err());
    }

    #[test]
    fn rejects_incompatible_union() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let q = b
            .scan("emp")
            .unwrap()
            .union(b.scan("dept").unwrap())
            .unwrap_err();
        // The builder already rejects it; the message mentions compatibility.
        assert!(q.to_string().contains("union"));
    }

    #[test]
    fn append_schema_must_match() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let bad = b.scan("dept").unwrap().append_to("emp");
        assert!(bad.is_err());
        let good = b.scan("emp").unwrap().append_to("emp").unwrap().finish();
        assert!(validate(&db, &good).is_ok());
    }
}
