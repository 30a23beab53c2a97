//! The decoded-tuple oracle: every operator re-implemented over owned
//! [`Tuple`]s, composed bottom-up one whole relation at a time.
//!
//! This is the ground truth every executor is checked against —
//! [`crate::execute`] and [`crate::execute_readonly`] run here, reads and
//! writes alike. It shares no code with the raw kernels in [`crate::ops`]
//! or with [`crate::Kernel`]: predicates go through [`Predicate::eval`],
//! joins through [`JoinCondition::matches`], set operators through hashed
//! `Tuple`s. Neither side calls the other, which is what makes a machine,
//! a served write or a standing view matching the oracle evidence of
//! correctness. No served path calls into this module.

use std::cmp::Ordering;
use std::collections::HashSet;

use df_relalg::{
    Catalog, CmpOp, Error, JoinCondition, Page, Predicate, Projection, Relation, Result, Tuple,
};

use crate::exec::ExecParams;
use crate::tree::{Op, QueryTree};
use crate::validate::validate;

/// Apply `predicate` to every tuple of `page`, returning the survivors in
/// page order — the oracle's σ for one page.
pub fn restrict_page(page: &Page, predicate: &Predicate) -> Vec<Tuple> {
    page.tuples().filter(|t| predicate.eval(t)).collect()
}

/// Project every tuple of `page` onto the given attribute list.
pub fn project_page(page: &Page, projection: &Projection) -> Vec<Tuple> {
    page.tuples()
        .map(|t| {
            projection
                .apply(&t)
                .expect("projection validated against page schema")
        })
        .collect()
}

/// Eliminate duplicates from a tuple stream, preserving first occurrence
/// order. Order preservation makes the oracle deterministic; the machines'
/// outputs are compared as multisets so their gather order doesn't matter.
pub fn dedup_tuples(tuples: impl IntoIterator<Item = Tuple>) -> Vec<Tuple> {
    let mut seen: HashSet<Tuple> = HashSet::new();
    let mut out = Vec::new();
    for t in tuples {
        if seen.insert(t.clone()) {
            out.push(t);
        }
    }
    out
}

/// Join one outer page against one inner page: the IP work unit for a join
/// instruction packet (Fig 4.3 carries exactly these two data pages).
///
/// Emits `outer ++ inner` concatenated tuples for every pair satisfying the
/// condition, in (outer slot, inner slot) order — the order the compiled
/// [`crate::ops::JoinSweep`] must reproduce byte for byte.
pub fn join_pages(outer: &Page, inner: &Page, condition: &JoinCondition) -> Vec<Tuple> {
    let inner_tuples: Vec<Tuple> = inner.tuples().collect();
    let mut out = Vec::new();
    for o in outer.tuples() {
        for i in &inner_tuples {
            if condition.matches(&o, i) {
                out.push(o.concat(i));
            }
        }
    }
    out
}

/// Whole-relation nested-loops join (the uniprocessor form of the paper's
/// chosen algorithm): [`join_pages`] over every page pair, outer page
/// major.
pub fn nested_loops_join_relations(
    outer: &Relation,
    inner: &Relation,
    condition: &JoinCondition,
) -> Vec<Tuple> {
    let mut out = Vec::new();
    for op in outer.pages() {
        for ip in inner.pages() {
            out.extend(join_pages(op, ip, condition));
        }
    }
    out
}

/// Sort-merge join (\[5\]'s "sorted-merge", O(n log n)) — the faster
/// uniprocessor algorithm the paper sets nested loops against. Only
/// defined for equi-joins; other θs fall back to an error so callers choose
/// nested loops.
///
/// Handles duplicate keys on both sides (emits the full cross product of
/// each matching group).
pub fn merge_join_relations(
    outer: &Relation,
    inner: &Relation,
    condition: &JoinCondition,
) -> Result<Vec<Tuple>> {
    if condition.op != CmpOp::Eq {
        return Err(Error::TypeMismatch {
            detail: format!(
                "sort-merge join requires an equi-join, got `{}`",
                condition.op
            ),
        });
    }
    let key_of = |t: &Tuple, idx: usize| t.get(idx).expect("condition validated").clone();

    let mut left: Vec<Tuple> = outer.tuples().collect();
    let mut right: Vec<Tuple> = inner.tuples().collect();
    let lcmp = |a: &Tuple, b: &Tuple| {
        key_of(a, condition.left)
            .partial_cmp_typed(&key_of(b, condition.left))
            .expect("join keys share a type")
    };
    let rcmp = |a: &Tuple, b: &Tuple| {
        key_of(a, condition.right)
            .partial_cmp_typed(&key_of(b, condition.right))
            .expect("join keys share a type")
    };
    left.sort_by(lcmp);
    right.sort_by(rcmp);

    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        let lk = key_of(&left[i], condition.left);
        let rk = key_of(&right[j], condition.right);
        match lk.partial_cmp_typed(&rk).expect("join keys share a type") {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                // Find both duplicate groups, emit their cross product.
                let i_end = (i..left.len())
                    .find(|&x| key_of(&left[x], condition.left) != lk)
                    .unwrap_or(left.len());
                let j_end = (j..right.len())
                    .find(|&x| key_of(&right[x], condition.right) != rk)
                    .unwrap_or(right.len());
                for l in &left[i..i_end] {
                    for r in &right[j..j_end] {
                        out.push(l.concat(r));
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    Ok(out)
}

/// Cross product of one page pair (the join kernel with θ ≡ true, kept
/// separate so metrics can distinguish the operators).
pub fn cross_pages(outer: &Page, inner: &Page) -> Vec<Tuple> {
    let inner_tuples: Vec<Tuple> = inner.tuples().collect();
    let mut out = Vec::new();
    for o in outer.tuples() {
        for i in &inner_tuples {
            out.push(o.concat(i));
        }
    }
    out
}

/// Fail unless two set-operator inputs are union-compatible.
fn check_compatible(what: &str, left: &Relation, right: &Relation) -> Result<()> {
    if left.schema() == right.schema() {
        return Ok(());
    }
    Err(Error::SchemaMismatch {
        detail: format!(
            "{what} of incompatible schemas {} vs {}",
            left.schema(),
            right.schema()
        ),
    })
}

/// Set union of two relations (duplicates across and within inputs
/// removed), in first-occurrence order.
///
/// # Errors
/// Fails if the inputs are not union-compatible (different schemas).
pub fn union_relations(left: &Relation, right: &Relation) -> Result<Vec<Tuple>> {
    check_compatible("union", left, right)?;
    Ok(dedup_tuples(left.tuples().chain(right.tuples())))
}

/// Set difference `left − right`, in first-occurrence order.
///
/// This operator is *blocking* on its right input: no tuple of `left` can be
/// emitted until all of `right` has been seen — which is why
/// [`crate::Op::Difference`] is classified [`crate::Firing::Complete`] and
/// every scheduler fires it only once both operands are complete.
///
/// # Errors
/// Fails if the inputs are not union-compatible.
pub fn difference_relations(left: &Relation, right: &Relation) -> Result<Vec<Tuple>> {
    check_compatible("difference", left, right)?;
    let exclude: HashSet<Tuple> = right.tuples().collect();
    Ok(dedup_tuples(left.tuples().filter(|t| !exclude.contains(t))))
}

/// Evaluate every read-only node of `tree` in topo order, one whole
/// relation per node, each packed into full pages of `params.page_size`,
/// grown for a node whose tuples would not fit one to a page (a scan is
/// its catalog relation). The returned vector is indexed by
/// `NodeId` and stops before an update root (validation puts updates at
/// the root only, and topo order puts the root last).
///
/// # Errors
/// Fails on validation errors.
pub fn eval_read_nodes(
    db: &Catalog,
    tree: &QueryTree,
    params: &ExecParams,
) -> Result<Vec<Relation>> {
    let schemas = validate(db, tree)?;
    let mut results: Vec<Relation> = Vec::with_capacity(tree.len());

    for id in tree.topo_order() {
        let node = tree.node(id);
        if node.op.is_update() {
            break;
        }
        let schema = schemas.schema(id).clone();
        let child = |i: usize| -> &Relation { &results[node.children[i].0] };
        let tuples = match &node.op {
            Op::Scan { relation } => {
                results.push(db.require(relation)?.clone());
                continue;
            }
            Op::Restrict { predicate } => child(0)
                .pages()
                .iter()
                .flat_map(|p| restrict_page(p, predicate))
                .collect(),
            Op::Project { projection, dedup } => {
                let projected = child(0)
                    .pages()
                    .iter()
                    .flat_map(|p| project_page(p, projection));
                if *dedup {
                    dedup_tuples(projected)
                } else {
                    projected.collect()
                }
            }
            Op::Join { condition } => nested_loops_join_relations(child(0), child(1), condition),
            Op::CrossProduct => {
                let mut tuples = Vec::new();
                for op in child(0).pages() {
                    for ip in child(1).pages() {
                        tuples.extend(cross_pages(op, ip));
                    }
                }
                tuples
            }
            Op::Union => union_relations(child(0), child(1))?,
            Op::Difference => difference_relations(child(0), child(1))?,
            Op::Append { .. } | Op::Delete { .. } => unreachable!("is_update checked above"),
        };
        let name = format!("{id}_{}", node.op.name());
        let page_size = schema.fit_page_size(params.page_size);
        results.push(Relation::from_tuples(&name, schema, page_size, tuples)?);
    }

    Ok(results)
}

/// Execute an updating query on decoded tuples and apply it to `db`: an
/// `Append` evaluates its source with [`eval_read_nodes`] and appends the
/// tuples one at a time; a `Delete` partitions the target with
/// [`Predicate::eval`] and swaps in a relation rebuilt from the kept
/// tuples. Returns the appended or deleted tuples (named `"result"`) —
/// the reference the raw [`crate::stage_write`] + [`crate::apply_write`]
/// are checked against.
///
/// # Errors
/// Fails on validation errors or if the tree is read-only.
pub(crate) fn execute_write(
    db: &mut Catalog,
    tree: &QueryTree,
    params: &ExecParams,
) -> Result<Relation> {
    let schemas = validate(db, tree)?;
    let root = tree.node(tree.root());
    let name = format!("{}_{}", tree.root(), root.op.name());
    let schema = schemas.schema(tree.root()).clone();
    let changed = match &root.op {
        Op::Append { target } => {
            let results = eval_read_nodes(db, tree, params)?;
            let to_add: Vec<Tuple> = results[root.children[0].0].tuples().collect();
            let target_rel = db.get_mut(target).ok_or_else(|| Error::UnknownRelation {
                name: target.clone(),
            })?;
            for t in &to_add {
                target_rel.append(t.clone())?;
            }
            to_add
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
            db.insert_or_replace(rebuilt);
            deleted
        }
        _ => {
            return Err(Error::SchemaMismatch {
                detail: "execute_write called on a read-only query".into(),
            })
        }
    };
    let page_size = schema.fit_page_size(params.page_size);
    let mut out = Relation::from_tuples(&name, schema, page_size, changed)?;
    out.set_name("result");
    Ok(out)
}
