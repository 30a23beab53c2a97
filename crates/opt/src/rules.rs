//! The rewrite rules and the optimizer driver.
//!
//! Rewrites operate on an owned recursive form of the query tree
//! ([`RNode`]: an [`Op`] and its owned children) converted from the
//! arena-based [`QueryTree`], which makes structural surgery (splitting a
//! conjunction across a join, inserting a compensating projection)
//! straightforward. The nodes are the IR's own [`Op`]s, so the rules
//! derive schemas with [`Op::output_schema`] and cardinalities with
//! [`node_estimate`], the rules `validate` and `estimate` run. Every rule
//! preserves semantics exactly — the property tests compare oracle
//! outputs before and after on random trees.

use df_query::{validate, NodeId, Op, QueryNode, QueryTree};
use df_relalg::{Catalog, Error, JoinCondition, Predicate, Projection, Result, Schema};

use crate::estimate::node_estimate;
use crate::stats::CatalogStats;

/// The optimizer's result: the rewritten tree and the rules that fired.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The rewritten, validated query tree.
    pub tree: QueryTree,
    /// Human-readable names of the rules applied, in order.
    pub applied: Vec<String>,
}

/// Owned working form: an operator over its children, in operand order.
#[derive(Debug, Clone)]
struct RNode {
    op: Op,
    children: Vec<RNode>,
}

impl RNode {
    fn restrict(predicate: Predicate, input: RNode) -> RNode {
        RNode {
            op: Op::Restrict { predicate },
            children: vec![input],
        }
    }

    /// Output schema, through [`Op::output_schema`].
    fn schema(&self, db: &Catalog) -> Result<Schema> {
        let children = self
            .children
            .iter()
            .map(|c| c.schema(db))
            .collect::<Result<Vec<_>>>()?;
        self.op.output_schema(db, |i| &children[i])
    }

    /// Estimated output rows and dominant relation, through
    /// [`node_estimate`].
    fn estimate(&self, db: &Catalog, stats: &CatalogStats) -> (f64, Option<&str>) {
        let children = self.children.iter().map(|c| c.estimate(db, stats));
        node_estimate(db, stats, &self.op, children)
    }
}

fn to_rnode(tree: &QueryTree, id: NodeId) -> RNode {
    let node = tree.node(id);
    RNode {
        op: node.op.clone(),
        children: node.children.iter().map(|&c| to_rnode(tree, c)).collect(),
    }
}

fn from_rnode(node: RNode, arena: &mut Vec<QueryNode>) -> NodeId {
    let children = node
        .children
        .into_iter()
        .map(|c| from_rnode(c, arena))
        .collect();
    arena.push(QueryNode {
        op: node.op,
        children,
    });
    NodeId(arena.len() - 1)
}

// --------------------------------------------------------- predicate utils

/// All attribute indices a predicate references.
fn pred_refs(p: &Predicate, out: &mut Vec<usize>) {
    match p {
        Predicate::True => {}
        Predicate::CmpConst { index, .. } => out.push(*index),
        Predicate::CmpAttrs { left, right, .. } => {
            out.push(*left);
            out.push(*right);
        }
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            pred_refs(a, out);
            pred_refs(b, out);
        }
        Predicate::Not(a) => pred_refs(a, out),
    }
}

/// Split a top-level conjunction into its conjuncts.
fn conjuncts(p: Predicate) -> Vec<Predicate> {
    match p {
        Predicate::And(a, b) => {
            let mut out = conjuncts(*a);
            out.extend(conjuncts(*b));
            out
        }
        other => vec![other],
    }
}

/// Rebuild a conjunction (None for an empty list ≡ True).
fn conjoin(ps: Vec<Predicate>) -> Predicate {
    ps.into_iter()
        .reduce(|a, b| a.and(b))
        .unwrap_or(Predicate::True)
}

/// Algebraic simplification: `p ∧ true → p`, `¬¬p → p`, `true ∨ p → true`.
fn simplify_pred(p: Predicate) -> (Predicate, bool) {
    match p {
        Predicate::And(a, b) => {
            let (a, ca) = simplify_pred(*a);
            let (b, cb) = simplify_pred(*b);
            match (a, b) {
                (Predicate::True, x) | (x, Predicate::True) => (x, true),
                (a, b) => (a.and(b), ca || cb),
            }
        }
        Predicate::Or(a, b) => {
            let (a, ca) = simplify_pred(*a);
            let (b, cb) = simplify_pred(*b);
            match (a, b) {
                (Predicate::True, _) | (_, Predicate::True) => (Predicate::True, true),
                (a, b) => (a.or(b), ca || cb),
            }
        }
        Predicate::Not(inner) => {
            let (inner, ci) = simplify_pred(*inner);
            match inner {
                Predicate::Not(x) => (*x, true),
                other => (other.not(), ci),
            }
        }
        leaf => (leaf, false),
    }
}

// ------------------------------------------------------------------ rules

struct Rewriter<'a> {
    db: &'a Catalog,
    stats: &'a CatalogStats,
    applied: Vec<String>,
}

impl<'a> Rewriter<'a> {
    /// One full bottom-up pass; returns the rewritten node and whether
    /// anything changed.
    fn pass(&mut self, mut node: RNode) -> Result<(RNode, bool)> {
        // Rewrite children first, in operand order.
        let mut changed = false;
        let mut children = Vec::with_capacity(node.children.len());
        for child in std::mem::take(&mut node.children) {
            let (child, c) = self.pass(child)?;
            changed |= c;
            children.push(child);
        }
        node.children = children;
        // Then try the local rules until none fires at this node.
        loop {
            let (next, fired) = self.apply_local(node)?;
            node = next;
            if !fired {
                break;
            }
            changed = true;
        }
        Ok((node, changed))
    }

    /// Try each local rule at `node`; returns (node, fired).
    fn apply_local(&mut self, node: RNode) -> Result<(RNode, bool)> {
        let RNode { op, mut children } = node;
        match op {
            Op::Restrict { predicate } => {
                let input = children.pop().expect("a restrict has one input");
                // Rule: predicate simplification.
                let (predicate, simplified) = simplify_pred(predicate);
                if simplified {
                    self.applied.push("simplify-predicate".into());
                }
                // Rule: σ(true) elimination.
                if matches!(predicate, Predicate::True) {
                    self.applied.push("drop-trivial-restrict".into());
                    return Ok((input, true));
                }
                match input {
                    // Rule: restrict fusion.
                    RNode {
                        op: Op::Restrict { predicate: inner },
                        children,
                    } => {
                        self.applied.push("fuse-restricts".into());
                        let op = Op::Restrict {
                            predicate: predicate.and(inner),
                        };
                        Ok((RNode { op, children }, true))
                    }
                    // Rule: pushdown.
                    input => {
                        let (node, moved) = self.push_restrict(predicate, input)?;
                        Ok((node, moved || simplified))
                    }
                }
            }
            // Rule: projection collapse (inner must be duplicate-preserving).
            Op::Project { projection, dedup } => match children.pop() {
                Some(RNode {
                    op:
                        Op::Project {
                            projection: inner,
                            dedup: false,
                        },
                    children,
                }) => {
                    let composed: Vec<usize> = projection
                        .indices()
                        .iter()
                        .map(|&i| inner.indices()[i])
                        .collect();
                    let projection =
                        Projection::from_indices(&children[0].schema(self.db)?, composed)?;
                    self.applied.push("collapse-projections".into());
                    let op = Op::Project { projection, dedup };
                    Ok((RNode { op, children }, true))
                }
                input => {
                    let op = Op::Project { projection, dedup };
                    let children = input.into_iter().collect();
                    Ok((RNode { op, children }, false))
                }
            },
            // Rule: join input ordering — the machines parallelize over
            // outer pages and broadcast inner pages, so the larger input
            // belongs outside. A compensating projection restores the
            // original column order.
            Op::Join { condition } => {
                let rows = |i: usize| children[i].estimate(self.db, self.stats).0;
                if rows(0) * 1.2 < rows(1) {
                    let swapped = self.swap_join(condition, children)?;
                    self.applied.push("swap-join-inputs".into());
                    return Ok((swapped, true));
                }
                let op = Op::Join { condition };
                Ok((RNode { op, children }, false))
            }
            op => Ok((RNode { op, children }, false)),
        }
    }

    /// Swap a join's inputs under a compensating projection that
    /// restores the original column order *and names* (concat renames
    /// collide differently after the swap).
    fn swap_join(&self, condition: JoinCondition, mut children: Vec<RNode>) -> Result<RNode> {
        let l_schema = children[0].schema(self.db)?;
        let r_schema = children[1].schema(self.db)?;
        let (l_arity, r_arity) = (l_schema.arity(), r_schema.arity());
        children.reverse();
        let swapped = RNode {
            op: Op::Join {
                condition: JoinCondition {
                    left: condition.right,
                    op: condition.op.flip(),
                    right: condition.left,
                },
            },
            children,
        };
        let perm: Vec<usize> = (0..l_arity)
            .map(|i| r_arity + i)
            .chain(0..r_arity)
            .collect();
        let names: Vec<String> = l_schema
            .concat(&r_schema)
            .attrs()
            .iter()
            .map(|a| a.name.clone())
            .collect();
        let swapped_schema = swapped
            .op
            .output_schema(self.db, |i| [&r_schema, &l_schema][i])?;
        Ok(RNode {
            op: Op::Project {
                projection: Projection::with_renames(&swapped_schema, perm, names)?,
                dedup: false,
            },
            children: vec![swapped],
        })
    }

    /// Push the conjuncts of `predicate` below `input` where legal.
    /// Returns the restrict over `input` unchanged if nothing moved.
    fn push_restrict(&mut self, predicate: Predicate, mut input: RNode) -> Result<(RNode, bool)> {
        match &input.op {
            Op::Join { .. } | Op::CrossProduct => return self.push_into_binary(predicate, input),
            Op::Project { projection, .. } => {
                // σ(π(R)) → π(σ'(R)) with indices remapped through π. Legal
                // for both bag and set projection: the predicate only reads
                // projected attributes.
                let remapped = predicate.remap(projection.indices());
                self.applied.push("pushdown-through-project".into());
                restrict_child(&mut input, 0, remapped);
            }
            Op::Union => {
                // σ(A ∪ B) = σA ∪ σB.
                self.applied.push("pushdown-through-union".into());
                restrict_child(&mut input, 0, predicate.clone());
                restrict_child(&mut input, 1, predicate);
            }
            Op::Difference => {
                // σ(A − B) = σA − B.
                self.applied.push("pushdown-through-difference".into());
                restrict_child(&mut input, 0, predicate);
            }
            _ => return Ok((RNode::restrict(predicate, input), false)),
        }
        Ok((input, true))
    }

    /// Split `predicate` across a binary product node: conjuncts touching
    /// only left attributes go left, only right attributes go right
    /// (indices shifted), mixed ones stay above.
    fn push_into_binary(&mut self, predicate: Predicate, product: RNode) -> Result<(RNode, bool)> {
        let l_arity = product.children[0].schema(self.db)?.arity();
        let mut to_left = Vec::new();
        let mut to_right = Vec::new();
        let mut stay = Vec::new();
        for c in conjuncts(predicate.clone()) {
            let mut refs = Vec::new();
            pred_refs(&c, &mut refs);
            match refs.iter().max() {
                Some(_) if refs.iter().all(|&i| i < l_arity) => to_left.push(c),
                Some(&top) if refs.iter().all(|&i| i >= l_arity) => {
                    let shift: Vec<usize> = (0..=top).map(|i| i.saturating_sub(l_arity)).collect();
                    to_right.push(c.remap(&shift));
                }
                _ => stay.push(c),
            }
        }
        if to_left.is_empty() && to_right.is_empty() {
            return Ok((RNode::restrict(predicate, product), false));
        }
        self.applied.push("pushdown-through-join".into());
        let RNode { op, children } = product;
        let children = children
            .into_iter()
            .zip([to_left, to_right])
            .map(|(child, part)| wrap_restrict(conjoin(part), child))
            .collect();
        Ok((wrap_restrict(conjoin(stay), RNode { op, children }), true))
    }
}

/// Put a restrict by `predicate` over child `i` of `node`.
fn restrict_child(node: &mut RNode, i: usize, predicate: Predicate) {
    let child = node.children.remove(i);
    node.children.insert(i, RNode::restrict(predicate, child));
}

/// Wrap `input` in a restrict unless the predicate is `true`.
fn wrap_restrict(predicate: Predicate, input: RNode) -> RNode {
    if matches!(predicate, Predicate::True) {
        input
    } else {
        RNode::restrict(predicate, input)
    }
}

/// Optimize `tree` against `db` using `stats`.
///
/// # Errors
/// Propagates validation errors; the returned tree is re-validated.
pub fn optimize(db: &Catalog, tree: &QueryTree, stats: &CatalogStats) -> Result<Optimized> {
    validate(db, tree)?;
    let mut node = to_rnode(tree, tree.root());
    let mut rewriter = Rewriter {
        db,
        stats,
        applied: Vec::new(),
    };
    for _ in 0..8 {
        let (next, changed) = rewriter.pass(node)?;
        node = next;
        if !changed {
            break;
        }
    }
    let mut arena = Vec::new();
    let root = from_rnode(node, &mut arena);
    let tree = QueryTree::from_parts(arena, root);
    validate(db, &tree).map_err(|e| Error::SchemaMismatch {
        detail: format!("optimizer produced an invalid tree: {e}"),
    })?;
    Ok(Optimized {
        tree,
        applied: rewriter.applied,
    })
}
