//! Standing views: incremental maintenance of an installed query tree.
//!
//! A [`StandingView`] keeps a read-only query resident after one normal
//! materializing execution and thereafter updates its result from
//! base-relation write deltas, never re-running the tree. The design
//! promotes the machine's transient execution state to owned view state:
//! during a normal run, a join cell accumulates its operands' pages-so-far
//! tables and throws them away at completion — here those operand
//! multisets are *retained*, so the bag-algebra product rule
//!
//! ```text
//! Δ(L ⋈ R) = ΔL ⋈ R  +  (L + ΔL) ⋈ ΔR
//! ```
//!
//! fires the very same page-at-a-time join kernel over delta pages
//! against the retained side. Deltas are signed counted multisets of raw
//! tuple images (insert = +n, delete = −n):
//!
//! * **linear** operators (restrict, bag project) run the plan node's
//!   kernel, its compiled per-page form, over packed pages of the distinct
//!   delta images, and each selected row carries its image's signed count;
//! * **product** operators (join, cross) fire their kernel over delta
//!   pages against the retained opposite operand, output sign = input
//!   sign;
//! * **counted** operators (union, difference, dedup project) keep
//!   per-port counts and emit a delta only on a 0 ↔ positive transition
//!   of their set-semantics indicator function. A dedup project is a
//!   union over one port: its kernel's projection form turns the delta
//!   into projected images, counted like a union's left port.
//!
//! Which rule a node follows is read off the kernel its plan node carries;
//! the only operator the view looks at is a scan, for its relation.
//!
//! The maintained result is itself a counted multiset; reads expand it
//! in lexicographic image order, which is exactly the canonical order
//! deterministic mode sorts results into — so a maintained view is
//! byte-identical on the wire to a from-scratch re-execution.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use df_query::ops::UnaryKernel;
use df_query::{run_plan, Firing, Kernel, Op, Plan, PlanNode, QueryTree};
use df_relalg::{Catalog, Error, Page, Relation, Result, Schema, TupleBuf, PAGE_HEADER_BYTES};

/// A signed counted multiset of raw tuple images. `BTreeMap` keeps every
/// iteration (packing order, result expansion) deterministic.
type Counts = BTreeMap<Vec<u8>, i64>;

/// Add `n` to an image's count, removing the entry when it hits zero.
fn add(counts: &mut Counts, image: &[u8], n: i64) {
    if n == 0 {
        return;
    }
    let slot = counts.entry(image.to_vec()).or_insert(0);
    *slot += n;
    if *slot == 0 {
        counts.remove(image);
    }
}

/// Fold a whole delta into `counts`.
fn fold(counts: &mut Counts, delta: &Counts) {
    for (image, &n) in delta {
        add(counts, image, n);
    }
}

/// The counted multiset of a materialized relation's images.
fn counts_of(rel: &Relation) -> Counts {
    let mut counts = Counts::new();
    for p in rel.pages() {
        for t in p.tuple_refs() {
            add(&mut counts, t.raw(), 1);
        }
    }
    counts
}

/// Pack `(image, repeat)` pairs into delta pages of `schema`, grown to
/// hold one tuple (delta trees can concatenate schemas past the
/// configured page size).
fn pack_images<'a>(
    schema: &Schema,
    page_size: usize,
    images: impl Iterator<Item = (&'a [u8], i64)>,
) -> Result<Vec<Page>> {
    let mut buf = TupleBuf::new(schema.clone());
    for (image, n) in images {
        for _ in 0..n {
            buf.push_raw(image);
        }
    }
    let size = schema.fit_page_size(page_size);
    let mut pages = Vec::new();
    while !buf.is_empty() {
        let mut page = Page::new(schema.clone(), size)?;
        buf.drain_into(&mut page);
        pages.push(page);
    }
    Ok(pages)
}

/// Pack each *distinct* image of a delta once (multiplicities are
/// re-applied after the kernel runs — linear kernels are per-tuple, so
/// one representative per image is enough).
fn pack_distinct(schema: &Schema, page_size: usize, delta: &Counts) -> Result<Vec<Page>> {
    pack_images(schema, page_size, delta.keys().map(|k| (k.as_slice(), 1)))
}

/// How many delta pages a multiset of `n` images of `schema` occupies
/// (the page accounting for source injections, which never run a kernel).
fn pages_needed(n: usize, schema: &Schema, page_size: usize) -> u64 {
    if n == 0 {
        return 0;
    }
    let cap = (schema.fit_page_size(page_size) - PAGE_HEADER_BYTES) / schema.tuple_width();
    n.div_ceil(cap) as u64
}

/// One retained operand of a product (join/cross) node: the counted
/// multiset plus its packed page image, rebuilt lazily after a delta
/// lands on this side (the other side's cache survives untouched).
#[derive(Debug)]
struct SideState {
    counts: Counts,
    /// `Arc`-shared with the catalog pages that seeded it, exactly like
    /// the transient operand tables during a normal execution.
    pages: Option<Vec<Arc<Page>>>,
}

impl SideState {
    /// Seed from the install-time materialization of this operand —
    /// the node result the transient execution would have discarded.
    fn seed(rel: &Relation) -> SideState {
        SideState {
            counts: counts_of(rel),
            pages: Some(rel.pages().to_vec()),
        }
    }

    /// The packed multiset (each image repeated by its count).
    fn pages(&mut self, schema: &Schema, page_size: usize) -> Result<&[Arc<Page>]> {
        if self.pages.is_none() {
            self.pages = Some(
                pack_images(
                    schema,
                    page_size,
                    self.counts.iter().map(|(k, &n)| (k.as_slice(), n)),
                )?
                .into_iter()
                .map(Arc::new)
                .collect(),
            );
        }
        Ok(self.pages.as_ref().expect("just built"))
    }

    /// Fold a delta into this side, invalidating the packed cache.
    fn fold(&mut self, delta: &Counts) {
        if delta.is_empty() {
            return;
        }
        fold(&mut self.counts, delta);
        debug_assert!(
            self.counts.values().all(|&n| n > 0),
            "operand went negative"
        );
        self.pages = None;
    }
}

/// Per-node retained state, indexed like the tree's arena.
#[derive(Debug)]
enum NodeState {
    /// Source and linear nodes hold nothing.
    Stateless,
    /// Join/cross: both operand multisets, promoted from the transient
    /// pages-so-far tables.
    Product { left: SideState, right: SideState },
    /// Union, difference and dedup project: per-port counts for the
    /// indicator function. A dedup project counts the *projected* images of
    /// its one port; its right port stays empty.
    Ports { left: Counts, right: Counts },
}

/// What one write did to a standing view.
#[derive(Debug, Clone, Copy, Default)]
pub struct ViewUpdate {
    /// Delta pages that flowed through the standing dataflow (source
    /// injections plus every packed kernel input).
    pub delta_pages: u64,
    /// Whether the maintained result changed at all.
    pub result_changed: bool,
}

/// An installed standing query: its compiled [`Plan`], the retained
/// per-node operand state, and the maintained result multiset.
#[derive(Debug)]
pub struct StandingView {
    name: String,
    text: String,
    plan: Plan,
    base_relations: Vec<String>,
    page_size: usize,
    states: Vec<NodeState>,
    result: Counts,
    /// The result's cardinality (the sum of its counts), kept as each
    /// root delta folds in.
    len: usize,
}

impl StandingView {
    /// Install `tree` (parsed from `text`) as a standing view:
    /// materialize every node once on the raw kernels
    /// ([`df_query::run_plan`], pages of `page_size`), seed the retained
    /// operand state from the per-node results, and keep the root's
    /// multiset as the maintained result.
    ///
    /// # Errors
    /// Fails on validation errors or if the tree is not read-only.
    pub fn install(
        name: &str,
        text: &str,
        db: &Catalog,
        tree: &QueryTree,
        page_size: usize,
    ) -> Result<StandingView> {
        if !tree.written_relations().is_empty() {
            return Err(Error::SchemaMismatch {
                detail: "a standing view must be defined by a read-only query".into(),
            });
        }
        let plan = Plan::compile(db, tree)?;
        let nodes = run_plan(db, &plan, page_size)?;
        let mut states = Vec::with_capacity(tree.len());
        for node in &plan.nodes {
            let child = |i: usize| -> &Relation { &nodes[node.children[i]] };
            let state = match node.firing {
                Firing::Source | Firing::PerPage => NodeState::Stateless,
                Firing::PairSweep => NodeState::Product {
                    left: SideState::seed(child(0)),
                    right: SideState::seed(child(1)),
                },
                Firing::Complete => NodeState::Ports {
                    left: match &node.kernel {
                        Kernel::ProjectDedupFinal(form) => {
                            projected_counts(form, child(0), node.out_schema.tuple_width())
                        }
                        _ => counts_of(child(0)),
                    },
                    right: node
                        .children
                        .get(1)
                        .map_or_else(Counts::new, |_| counts_of(child(1))),
                },
            };
            states.push(state);
        }
        let root = &nodes[tree.root().0];
        let (result, len) = (counts_of(root), root.num_tuples());
        Ok(StandingView {
            name: name.to_string(),
            text: text.to_string(),
            plan,
            base_relations: tree.referenced_relations(),
            page_size,
            states,
            result,
            len,
        })
    }

    /// The view's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The defining query text (the differential oracle re-executes it).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The view's output schema.
    pub fn schema(&self) -> &Schema {
        &self.plan.nodes[self.plan.root].out_schema
    }

    /// Sorted, deduplicated base relations the view depends on.
    pub fn base_relations(&self) -> &[String] {
        &self.base_relations
    }

    /// Whether a write to `relation` must be replayed through this view.
    pub fn reads(&self, relation: &str) -> bool {
        self.base_relations.iter().any(|r| r == relation)
    }

    /// Current number of result tuples (multiset cardinality).
    pub fn num_tuples(&self) -> usize {
        self.len
    }

    /// The maintained result as raw tuple images in canonical
    /// (lexicographic) order — the order deterministic mode serves — each
    /// image yielded as many times as it is counted.
    pub fn images(&self) -> impl Iterator<Item = &[u8]> {
        self.result
            .iter()
            .flat_map(|(image, &n)| std::iter::repeat(image.as_slice()).take(n as usize))
    }

    /// [`StandingView::images`], collected.
    pub fn tuple_images(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(self.len);
        for image in self.images() {
            out.push(image.to_vec());
        }
        out
    }

    /// Replay one base-relation write through the standing dataflow.
    /// `inserts` and `deletes` are raw tuple images in the target's
    /// encoding, exactly as [`df_query::WriteDelta::base_change`]
    /// reports them. A write to a relation the view does not read is a
    /// no-op.
    ///
    /// # Errors
    /// Fails only on page-packing errors (which indicate a schema bug,
    /// not a data condition).
    pub fn apply_write(
        &mut self,
        target: &str,
        inserts: &[Vec<u8>],
        deletes: &[Vec<u8>],
    ) -> Result<ViewUpdate> {
        if !self.reads(target) || (inserts.is_empty() && deletes.is_empty()) {
            return Ok(ViewUpdate::default());
        }
        let plan = &self.plan;
        let states = &mut self.states;
        let schema_of = |node: usize| -> &Schema { &plan.nodes[node].out_schema };
        let mut delta_pages = 0u64;
        let mut deltas: Vec<Counts> = Vec::with_capacity(plan.nodes.len());
        for (id, node) in plan.nodes.iter().enumerate() {
            // Earlier deltas are read-only here: split borrow.
            let input = |port: usize| -> &Counts { &deltas[node.children[port]] };
            let quiet = node.children.iter().all(|&c| deltas[c].is_empty());
            let delta = match (&node.op, &node.kernel, &mut states[id]) {
                (Op::Scan { relation }, ..) if relation == target => {
                    let schema = schema_of(id);
                    delta_pages += pages_needed(inserts.len(), schema, self.page_size)
                        + pages_needed(deletes.len(), schema, self.page_size);
                    let mut d = Counts::new();
                    for image in inserts {
                        add(&mut d, image, 1);
                    }
                    for image in deletes {
                        add(&mut d, image, -1);
                    }
                    d
                }
                // A scan of another relation, or no operand changed.
                _ if quiet => Counts::new(),
                (_, Kernel::Unary(form), _) => run_form(
                    form,
                    schema_of(node.children[0]),
                    schema_of(id).tuple_width(),
                    self.page_size,
                    input(0),
                    &mut delta_pages,
                )?,
                (_, _, NodeState::Product { left, right }) => {
                    let (c0, c1) = (node.children[0], node.children[1]);
                    fire_product(
                        node,
                        schema_of(c0),
                        schema_of(c1),
                        self.page_size,
                        left,
                        right,
                        input(0),
                        input(1),
                        &mut delta_pages,
                    )?
                }
                (_, kernel @ Kernel::ProjectDedupFinal(form), NodeState::Ports { left, right }) => {
                    let projected = run_form(
                        form,
                        schema_of(node.children[0]),
                        schema_of(id).tuple_width(),
                        self.page_size,
                        input(0),
                        &mut delta_pages,
                    )?;
                    set_op_delta(kernel, left, right, &projected, &Counts::new())
                }
                (_, kernel, NodeState::Ports { left, right }) => {
                    set_op_delta(kernel, left, right, input(0), input(1))
                }
                (_, kernel, NodeState::Stateless) => {
                    unreachable!("a {kernel:?} node keeps operand state")
                }
            };
            deltas.push(delta);
        }
        let root_delta = &deltas[plan.root];
        let result_changed = !root_delta.is_empty();
        fold(&mut self.result, root_delta);
        self.len = (self.len as i64 + root_delta.values().sum::<i64>()) as usize;
        debug_assert!(
            self.result.values().all(|&n| n > 0),
            "maintained result went negative"
        );
        Ok(ViewUpdate {
            delta_pages,
            result_changed,
        })
    }
}

/// Run a compiled per-page form over packed pages of the distinct images
/// of `delta`. Packed row i is the i-th distinct image and the form is
/// order-preserving, so its j-th output row comes from the j-th selected
/// row and carries that row's signed count.
fn run_form(
    form: &UnaryKernel,
    in_schema: &Schema,
    width: usize,
    page_size: usize,
    delta: &Counts,
    delta_pages: &mut u64,
) -> Result<Counts> {
    let pages = pack_distinct(in_schema, page_size, delta)?;
    *delta_pages += pages.len() as u64;
    let mut counts = delta.values();
    let (mut mask, mut copy, mut out) = (Vec::new(), Vec::new(), Counts::new());
    for page in &pages {
        form.select(page, &mut mask);
        copy.clear();
        form.copy(page, Some(&mask), &mut copy);
        let mut images = copy.chunks_exact(width);
        // Take every row's count, kept or not, so the next page starts
        // at its own first row.
        for (&kept, &n) in mask.iter().zip(counts.by_ref().take(page.len())) {
            if kept {
                add(&mut out, images.next().expect("one image per kept row"), n);
            }
        }
    }
    Ok(out)
}

/// The projected multiset of a relation's images (with multiplicities —
/// the node's own deduped output would lose them).
fn projected_counts(form: &UnaryKernel, rel: &Relation, width: usize) -> Counts {
    let (mut counts, mut copy) = (Counts::new(), Vec::new());
    for page in rel.pages() {
        copy.clear();
        form.copy(page, None, &mut copy);
        for image in copy.chunks_exact(width) {
            add(&mut counts, image, 1);
        }
    }
    counts
}

/// The counted-transition delta of a set-semantics operator, folding
/// each port's delta into its retained counts: a union (and a dedup
/// project, a union over one port) is present iff either port count is
/// positive, a difference iff the left is positive and the right is zero.
/// Output multiplicity is always 1.
fn set_op_delta(
    kernel: &Kernel,
    left: &mut Counts,
    right: &mut Counts,
    dl: &Counts,
    dr: &Counts,
) -> Counts {
    let present = |l: i64, r: i64| -> bool {
        match kernel {
            Kernel::UnionFinal | Kernel::ProjectDedupFinal(_) => l > 0 || r > 0,
            Kernel::DifferenceFinal => l > 0 && r == 0,
            _ => unreachable!("set_op_delta on a streaming kernel"),
        }
    };
    let mut out = Counts::new();
    let affected: BTreeSet<&Vec<u8>> = dl.keys().chain(dr.keys()).collect();
    for image in affected {
        let (ol, or) = (
            left.get(image).copied().unwrap_or(0),
            right.get(image).copied().unwrap_or(0),
        );
        let (nl, nr) = (
            ol + dl.get(image).copied().unwrap_or(0),
            or + dr.get(image).copied().unwrap_or(0),
        );
        debug_assert!(nl >= 0 && nr >= 0, "set-op port count went negative");
        let transition = i64::from(present(nl, nr)) - i64::from(present(ol, or));
        add(&mut out, image, transition);
    }
    fold(left, dl);
    fold(right, dr);
    out
}

/// Fire the product rule for a join or cross node: each delta page swept
/// by the node's [`Kernel`] against the retained opposite operand's page
/// list, folding each side's delta into its retained multiset between the
/// two half-rules so a self-join's simultaneous deltas compose exactly
/// (ΔL ⋈ R, then (L + ΔL) ⋈ ΔR).
#[allow(clippy::too_many_arguments)]
fn fire_product(
    node: &PlanNode,
    left_schema: &Schema,
    right_schema: &Schema,
    page_size: usize,
    left: &mut SideState,
    right: &mut SideState,
    dl: &Counts,
    dr: &Counts,
    delta_pages: &mut u64,
) -> Result<Counts> {
    let (w_left, kernel) = (left_schema.tuple_width(), &node.kernel);
    // One batch for the whole rule, refilled per delta page.
    let mut buf = TupleBuf::new(node.out_schema.clone());
    let mut out = Counts::new();
    // ΔL ⋈ R_old: distinct ΔL images fire against the retained right
    // multiset; each emitted row carries its left image's signed count.
    if !dl.is_empty() {
        let dl_pages = pack_distinct(left_schema, page_size, dl)?;
        *delta_pages += dl_pages.len() as u64;
        let right_pages = right.pages(right_schema, page_size)?;
        for dp in &dl_pages {
            buf.clear();
            kernel.run_sweep_raw_into(dp, right_pages.iter().map(AsRef::as_ref), true, &mut buf);
            for t in buf.refs() {
                add(&mut out, t.raw(), dl[&t.raw()[..w_left]]);
            }
        }
        left.fold(dl);
    }
    // (L + ΔL) ⋈ ΔR: the updated left multiset against distinct ΔR
    // images; each emitted row carries its right image's signed count.
    if !dr.is_empty() {
        let dr_pages = pack_distinct(right_schema, page_size, dr)?;
        *delta_pages += dr_pages.len() as u64;
        let left_pages = left.pages(left_schema, page_size)?;
        for dp in &dr_pages {
            buf.clear();
            kernel.run_sweep_raw_into(dp, left_pages.iter().map(AsRef::as_ref), false, &mut buf);
            for t in buf.refs() {
                add(&mut out, t.raw(), dr[&t.raw()[w_left..]]);
            }
        }
        right.fold(dr);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_query::{execute_readonly, parse_query, ExecParams};
    use df_relalg::{DataType, Tuple, Value};

    fn kv_schema() -> Schema {
        Schema::build()
            .attr("key", DataType::Int)
            .attr("val", DataType::Int)
            .finish()
            .unwrap()
    }

    fn image(key: i64, val: i64) -> Vec<u8> {
        let mut buf = Vec::new();
        Tuple::new(vec![Value::Int(key), Value::Int(val)])
            .encode(&kv_schema(), &mut buf)
            .unwrap();
        buf
    }

    fn db() -> Catalog {
        let mut db = Catalog::new();
        for (name, n) in [("a", 8i64), ("b", 6i64)] {
            db.insert(
                Relation::from_tuples(
                    name,
                    kv_schema(),
                    128,
                    (0..n).map(|i| Tuple::new(vec![Value::Int(i % 4), Value::Int(i * 10)])),
                )
                .unwrap(),
            )
            .unwrap();
        }
        db
    }

    /// The from-scratch oracle: sorted raw images of a fresh execution.
    fn oracle(db: &Catalog, text: &str) -> Vec<Vec<u8>> {
        let tree = parse_query(db, text).unwrap();
        let rel = execute_readonly(db, &tree, &ExecParams::default()).unwrap();
        let mut images: Vec<Vec<u8>> = rel.tuple_refs().map(|t| t.raw().to_vec()).collect();
        images.sort();
        images
    }

    /// A write batch against one target: (target, inserts, deletes).
    type WriteBatch<'a> = (&'a str, Vec<Vec<u8>>, Vec<Vec<u8>>);

    /// Install over `db`, apply `writes` both to the view and the
    /// catalog, and check byte-identity with the oracle after each one.
    fn check_maintenance(db: Catalog, text: &str, writes: &[WriteBatch<'_>]) {
        check_maintenance_at(1024, db, text, writes);
    }

    /// [`check_maintenance`] with delta pages of `page_size` bytes.
    fn check_maintenance_at(
        page_size: usize,
        mut db: Catalog,
        text: &str,
        writes: &[WriteBatch<'_>],
    ) {
        let tree = parse_query(&db, text).unwrap();
        let mut view = StandingView::install("v", text, &db, &tree, page_size).unwrap();
        assert_eq!(view.tuple_images(), oracle(&db, text), "install mismatch");
        assert_counted(&view);
        for (i, (target, inserts, deletes)) in writes.iter().enumerate() {
            view.apply_write(target, inserts, deletes).unwrap();
            assert_counted(&view);
            apply_to_catalog(&mut db, target, inserts, deletes);
            assert_eq!(
                view.tuple_images(),
                oracle(&db, text),
                "write {i} to {target} diverged"
            );
        }
    }

    /// The kept cardinality is the sum of the result's counts.
    fn assert_counted(view: &StandingView) {
        let sum: i64 = view.result.values().sum();
        assert_eq!(view.num_tuples() as i64, sum, "kept count drifted");
    }

    /// Mirror a raw-image write into the catalog the slow way.
    fn apply_to_catalog(db: &mut Catalog, target: &str, inserts: &[Vec<u8>], deletes: &[Vec<u8>]) {
        let rel = db.get(target).unwrap();
        let schema = rel.schema().clone();
        let page_size = rel.page_size();
        let mut images: Vec<Vec<u8>> = rel.tuple_refs().map(|t| t.raw().to_vec()).collect();
        for d in deletes {
            let pos = images.iter().position(|i| i == d).expect("delete exists");
            images.remove(pos);
        }
        images.extend(inserts.iter().cloned());
        let tuples: Vec<Tuple> = images
            .iter()
            .map(|i| df_relalg::TupleRef::new(&schema, i).unwrap().to_tuple())
            .collect();
        db.insert_or_replace(Relation::from_tuples(target, schema, page_size, tuples).unwrap());
    }

    #[test]
    fn restrict_view_tracks_inserts_and_deletes() {
        check_maintenance(
            db(),
            "(restrict (scan a) (< val 35))",
            &[
                ("a", vec![image(9, 5), image(9, 99)], vec![]),
                ("a", vec![], vec![image(0, 0), image(9, 5)]),
                ("b", vec![image(1, 1)], vec![]), // unrelated: no-op
            ],
        );
    }

    #[test]
    fn linear_nodes_carry_each_selected_rows_count() {
        // Mixed multiplicities in one write, and the restrict drops the
        // first distinct image: each kept row must take its own count.
        let inserts = vec![image(1, 99), image(2, 3), image(9, 5), image(9, 5)];
        let deletes = vec![image(9, 5), image(9, 5), image(2, 3)];
        for text in [
            "(restrict (scan a) (< val 35))",
            "(project (restrict (scan a) (or (< val 35) (= key 7))) (val))",
        ] {
            check_maintenance(
                db(),
                text,
                &[
                    ("a", inserts.clone(), vec![]),
                    ("a", vec![], deletes.clone()),
                ],
            );
        }
    }

    #[test]
    fn multi_page_deltas_keep_counts_aligned() {
        // 128-byte pages hold 7 (key, val) images; distinct images pack in
        // (key, val) order. Page 1 ends in a dropped row (10, 99), page 2
        // keeps nothing, page 3 keeps rows of different counts.
        let mut inserts = Vec::new();
        for (key, val, n) in [(10, 0, 2), (10, 1, 1), (10, 2, 3), (10, 3, 1), (10, 4, 1)] {
            inserts.extend(std::iter::repeat_n(image(key, val), n));
        }
        inserts.extend([image(10, 5), image(10, 5), image(10, 99)]);
        inserts.extend((90..97).map(|val| image(11, val)));
        for (val, n) in [(5, 2), (6, 3), (7, 1)] {
            inserts.extend(std::iter::repeat_n(image(12, val), n));
        }
        let deletes = vec![image(12, 6), image(12, 6), image(10, 2), image(11, 90)];
        for text in [
            "(restrict (scan a) (< val 35))",
            "(project (restrict (scan a) (or (< val 35) (= key 7))) (val))",
            "(project-distinct (restrict (scan a) (< val 35)) (val))",
        ] {
            check_maintenance_at(
                128,
                db(),
                text,
                &[
                    ("a", inserts.clone(), vec![]),
                    ("a", vec![], deletes.clone()),
                ],
            );
        }
    }

    #[test]
    fn join_view_uses_retained_operands() {
        check_maintenance(
            db(),
            "(join (scan a) (scan b) (= key key))",
            &[
                ("a", vec![image(2, 77)], vec![]),
                ("b", vec![image(2, 88), image(2, 88)], vec![]),
                ("a", vec![], vec![image(2, 77)]),
                ("b", vec![], vec![image(2, 88)]),
            ],
        );
    }

    #[test]
    fn self_join_composes_simultaneous_deltas() {
        check_maintenance(
            db(),
            "(join (scan a) (scan a) (= key key))",
            &[
                ("a", vec![image(5, 50)], vec![]),
                ("a", vec![image(5, 51), image(6, 60)], vec![image(5, 50)]),
            ],
        );
    }

    #[test]
    fn theta_join_views_sweep_the_retained_operand() {
        // 128-byte pages hold 7 images, and both operands grow past 7, so
        // each delta page sweeps a list of several retained pages.
        for text in [
            "(join (scan a) (scan b) (< key key))",
            "(join (scan a) (scan b) (!= val val))",
        ] {
            check_maintenance_at(
                128,
                db(),
                text,
                &[
                    (
                        "b",
                        vec![image(3, 0), image(2, 7), image(1, 1), image(0, 9)],
                        vec![image(0, 0)],
                    ),
                    ("a", vec![image(1, 5), image(1, 5)], vec![]),
                    ("b", vec![image(3, 3)], vec![image(3, 0)]),
                    ("a", vec![], vec![image(1, 5), image(0, 0)]),
                ],
            );
        }
    }

    #[test]
    fn cross_product_view_tracks_both_operands() {
        check_maintenance_at(
            128,
            db(),
            "(cross (scan a) (scan b))",
            &[
                ("b", vec![image(8, 80), image(8, 81), image(7, 70)], vec![]),
                ("a", vec![image(9, 90), image(9, 90)], vec![]),
                ("b", vec![image(6, 60)], vec![image(1, 10)]),
                ("a", vec![], vec![image(9, 90), image(2, 20)]),
            ],
        );
    }

    #[test]
    fn self_join_deletes_a_key_held_more_than_once() {
        check_maintenance(
            db(),
            "(join (scan a) (scan a) (= key key))",
            &[
                ("a", vec![image(5, 50), image(5, 50), image(5, 50)], vec![]),
                ("a", vec![], vec![image(5, 50), image(5, 50)]),
                ("a", vec![image(5, 51)], vec![image(5, 50)]),
                // Key 1 is held by (1, 10) and (1, 50).
                ("a", vec![], vec![image(1, 10)]),
            ],
        );
    }

    #[test]
    fn union_and_difference_follow_indicator_transitions() {
        for text in [
            "(union (scan a) (scan b))",
            "(difference (scan a) (scan b))",
        ] {
            check_maintenance(
                db(),
                text,
                &[
                    ("a", vec![image(7, 70)], vec![]),
                    ("b", vec![image(7, 70)], vec![]),
                    ("b", vec![], vec![image(7, 70)]),
                    ("a", vec![image(0, 0)], vec![]), // duplicate of an existing image
                    ("a", vec![], vec![image(0, 0)]), // still present once: no transition
                ],
            );
        }
    }

    #[test]
    fn dedup_project_counts_multiplicities() {
        check_maintenance(
            db(),
            "(project-distinct (scan a) (key))",
            &[
                ("a", vec![image(4, 1)], vec![]),
                ("a", vec![image(4, 2)], vec![]),
                ("a", vec![], vec![image(4, 1)]), // key 4 still present via (4, 2)
                ("a", vec![], vec![image(4, 2)]), // now it disappears
            ],
        );
    }

    #[test]
    fn delta_pages_flow_and_noops_are_free() {
        let db = db();
        let text = "(restrict (scan a) (> val 10))";
        let tree = parse_query(&db, text).unwrap();
        let mut view = StandingView::install("v", text, &db, &tree, 1024).unwrap();
        let up = view.apply_write("a", &[image(1, 100)], &[]).unwrap();
        assert!(up.delta_pages > 0, "delta pages counted");
        assert!(up.result_changed);
        let up = view.apply_write("zzz", &[image(1, 100)], &[]).unwrap();
        assert_eq!(up.delta_pages, 0, "unrelated target is a no-op");
        let up = view.apply_write("a", &[image(1, 3)], &[]).unwrap();
        assert!(up.delta_pages > 0, "pages flowed");
        assert!(!up.result_changed, "filtered out before the root");
    }

    #[test]
    fn install_rejects_updating_definitions() {
        let db = db();
        let tree = parse_query(&db, "(append (scan a) b)").unwrap();
        assert!(StandingView::install("v", "q", &db, &tree, 1024).is_err());
    }
}
