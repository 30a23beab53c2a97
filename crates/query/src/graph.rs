//! The compiled batch every executor runs: the queries' [`Plan`]s as one
//! graph of instruction cells (§2.3's instruction per query-tree node, each
//! in a memory cell, the base relations' page tables on mass storage).
//!
//! A *cell* is a live plan node — one [`Plan::fuse_spans`] did not absorb —
//! that is not a scan leaf. A scan leaf is no cell: its relation is a
//! [`Source`] whose pages feed its parent's port, complete from the start.
//! A bare-scan root is a cell, an identity over its relation, and so is a
//! leafless delete root; port 0 of each reads its own relation. Cells are
//! numbered query by query in node order, so a producer precedes its
//! consumers.
//!
//! The two builds differ only in whether equal subtrees share a cell.
//! [`Graph::per_query`] (the simulated machines') gives every node its own
//! cell. [`Graph::merged`] (df-host's) makes two nodes one cell iff they
//! run the same operators over the same merged inputs: it keys every node
//! bottom-up on its [`Op`] and its children's subtree ids, over the
//! unfused tree (fusion leaves `children` as compiled), and a live node on
//! its chain top's subtree id: a fused chain's key covers every operator
//! of the chain, while its bottom's `op` names only the bottom operator.
//! Equal keys are equal subtrees, so the key is exactly the subtree's
//! `Debug` form, compared as a few integers and one `Op` equality per node
//! instead of a string.

use std::sync::Arc;

use df_relalg::{Catalog, Result, Schema};

use crate::kernel::Kernel;
use crate::plan::{Firing, Plan, PlanNode, TransferMode};
use crate::tree::{Op, QueryTree};

/// One instruction cell: the node whose kernel it fires, and who reads its
/// output.
#[derive(Debug)]
pub struct CellSpec {
    /// The plan holding the cell's node: the first query, in batch order,
    /// that contains it.
    pub plan: Arc<Plan>,
    /// The node's index in `plan`.
    pub node: usize,
    /// The queries whose result is this cell's output.
    pub results: Vec<usize>,
    /// The lowest-index query that reads the cell.
    pub owner: usize,
    /// How many queries read the cell.
    pub readers: usize,
}

/// The base relation a leafless node reads: a scan's relation, or a
/// delete's own target.
fn base_relation(node: &PlanNode) -> Option<&str> {
    match &node.op {
        Op::Scan { relation } => Some(relation),
        Op::Delete { target, .. } => Some(target),
        _ => None,
    }
}

impl CellSpec {
    /// The compiled node the cell runs.
    pub fn node(&self) -> &PlanNode {
        &self.plan.nodes[self.node]
    }

    /// The cell's operands (1 or 2) in port order: the tuple schema of each
    /// operand's pages, and the base relation a source operand is loaded
    /// from (`None` when a producer cell feeds it). A leafless cell — a
    /// bare scan or a delete — reads its own relation.
    pub fn operands(&self) -> impl Iterator<Item = (&Schema, Option<&str>)> {
        let node = self.node();
        let ports = if node.children.is_empty() {
            std::slice::from_ref(&self.node)
        } else {
            &node.children[..]
        };
        ports.iter().map(move |&n| {
            let operand = &self.plan.nodes[n];
            (&operand.out_schema, base_relation(operand))
        })
    }

    /// Display name of the cell's operator: `"span"` for a fused chain.
    pub fn op_name(&self) -> &'static str {
        let node = self.node();
        match &node.kernel {
            Kernel::Unary(form) if form.steps() > 1 => "span",
            _ => node.op.name(),
        }
    }
}

/// A base relation the batch reads, and the cell ports its pages feed.
#[derive(Debug)]
pub struct Source {
    /// The relation's catalog name.
    pub relation: String,
    /// `(cell, port)` per consumer, in cell order.
    pub consumers: Vec<(usize, usize)>,
}

/// A compiled batch: its cells, the base relations feeding them, and each
/// query's view of them.
#[derive(Debug)]
pub struct Graph {
    /// The cells, producers before consumers, numbered in query order.
    pub cells: Vec<CellSpec>,
    /// The base relations read, in order of first occurrence.
    pub sources: Vec<Source>,
    /// Per query, the cells it reads, each once.
    pub reads: Vec<Vec<usize>>,
    /// Every cell's consumers, cell after cell: cell `c`'s are
    /// `consumers[first[c]..first[c + 1]]`.
    consumers: Vec<(usize, usize)>,
    first: Vec<usize>,
}

/// One interned subtree: its root operator over its children's subtree
/// ids, and its cell if it is a live node's key. Subtrees over the same
/// first child — and the leaves, which have none — form a chain, newest
/// first, so a node is looked up among the few subtrees over its first
/// child rather than hashed.
struct Subtree<'p> {
    op: &'p Op,
    kids: [usize; 2],
    /// The subtree interned before this one over the same first child.
    next: usize,
    /// The newest subtree over this one as its first child.
    parents: usize,
    cell: usize,
}

/// "No child", "no subtree", "no cell", "no source".
const NONE: usize = usize::MAX;

impl Graph {
    /// Compile `queries` into one graph in which equal subtrees share a
    /// cell: df-host's call, which fires such a subtree once for every
    /// query that contains it.
    ///
    /// # Errors
    /// Propagates validation errors (unknown relations, type mismatches…).
    pub fn merged(db: &Catalog, queries: &[QueryTree], transfer: TransferMode) -> Result<Graph> {
        Graph::compile(db, queries, transfer, true)
    }

    /// Compile `queries` into one cell per node: the simulated machines'
    /// batch, whose queries run independently.
    ///
    /// # Errors
    /// Propagates validation errors (unknown relations, type mismatches…).
    pub fn per_query(db: &Catalog, queries: &[QueryTree], transfer: TransferMode) -> Result<Graph> {
        Graph::compile(db, queries, transfer, false)
    }

    /// Compile each tree's [`Plan`], fuse it under
    /// [`TransferMode::Pipeline`], and build the graph.
    fn compile(
        db: &Catalog,
        queries: &[QueryTree],
        transfer: TransferMode,
        share: bool,
    ) -> Result<Graph> {
        let mut plans = Vec::with_capacity(queries.len());
        for tree in queries {
            let mut plan = Plan::compile(db, tree)?;
            if transfer == TransferMode::Pipeline {
                plan.fuse_spans();
            }
            plans.push(Arc::new(plan));
        }
        Ok(Graph::build(&plans, share))
    }

    /// Build the graph of `plans`, sharing a cell between equal subtrees
    /// iff `share`.
    fn build(plans: &[Arc<Plan>], share: bool) -> Graph {
        let total = plans.iter().map(|p| p.nodes.len()).sum();
        let mut subtrees: Vec<Subtree> = Vec::with_capacity(total);
        // The newest leaf subtree: the head of the leaves' chain.
        let mut leaves = NONE;
        let mut cells: Vec<CellSpec> = Vec::with_capacity(total);
        let mut sources: Vec<Source> = Vec::new();
        // `(producer, consumer, port)`, in consumer order.
        let mut edges: Vec<[usize; 3]> = Vec::with_capacity(total);
        let mut reads = Vec::with_capacity(plans.len());
        let most = plans.iter().map(|p| p.nodes.len()).max().unwrap_or(0);
        let mut key = Vec::with_capacity(most);
        let mut bottom = Vec::with_capacity(most);
        let mut cell_at = Vec::with_capacity(most);
        for (q, plan) in plans.iter().enumerate() {
            // Per node: its key — its subtree id, except that a chain
            // bottom's becomes its chain top's — and the live node heading
            // its chain. Nodes are leaf-before-parent and a chain runs
            // upward, so the last link to write its bottom's key is the
            // top. A subtree id is read only by the node's one parent,
            // before any link above it overwrites the bottom's.
            key.clear();
            bottom.clear();
            cell_at.clear();
            for (at, node) in plan.nodes.iter().enumerate() {
                let kids = [0, 1].map(|i| node.children.get(i).map_or(NONE, |&c| key[c]));
                let head = match kids[0] {
                    NONE => leaves,
                    first => subtrees[first].parents,
                };
                let mut id = head;
                while id != NONE && (subtrees[id].kids != kids || *subtrees[id].op != node.op) {
                    id = subtrees[id].next;
                }
                if id == NONE {
                    id = subtrees.len();
                    subtrees.push(Subtree {
                        op: &node.op,
                        kids,
                        next: head,
                        parents: NONE,
                        cell: NONE,
                    });
                    match kids[0] {
                        NONE => leaves = id,
                        first => subtrees[first].parents = id,
                    }
                }
                key.push(id);
                bottom.push(if node.absorbed {
                    bottom[node.children[0]]
                } else {
                    at
                });
                if node.absorbed {
                    key[bottom[at]] = id;
                }
            }
            let mut mine = Vec::with_capacity(plan.nodes.len());
            for (at, node) in plan.nodes.iter().enumerate() {
                let source = base_relation(node).map(|relation| {
                    let known = sources.iter().position(|s| s.relation == relation);
                    known.unwrap_or_else(|| {
                        let relation = relation.to_owned();
                        sources.push(Source {
                            relation,
                            consumers: Vec::new(),
                        });
                        sources.len() - 1
                    })
                });
                // A scan leaf is no cell: its entry names its source.
                let scan_leaf = node.firing == Firing::Source && at != plan.root;
                cell_at.push(match source {
                    Some(s) if scan_leaf => s,
                    _ => NONE,
                });
                if node.absorbed || scan_leaf {
                    continue;
                }
                let subtree = &mut subtrees[key[at]].cell;
                if !share || *subtree == NONE {
                    let c = cells.len();
                    *subtree = c;
                    if let (Some(s), true) = (source, node.children.is_empty()) {
                        sources[s].consumers.push((c, 0));
                    }
                    for (port, &child) in node.children.iter().enumerate() {
                        let from = bottom[child];
                        match plan.nodes[from].firing {
                            Firing::Source => sources[cell_at[from]].consumers.push((c, port)),
                            _ => edges.push([cell_at[from], c, port]),
                        }
                    }
                    cells.push(CellSpec {
                        plan: Arc::clone(plan),
                        node: at,
                        results: Vec::new(),
                        owner: q,
                        readers: 0,
                    });
                }
                let c = *subtree;
                cell_at[at] = c;
                if !mine.contains(&c) {
                    cells[c].readers += 1;
                    mine.push(c);
                }
            }
            cells[cell_at[plan.root]].results.push(q);
            reads.push(mine);
        }
        // Group the edges by producer, each cell's in consumer order.
        let mut first = vec![0; cells.len() + 1];
        for &[from, ..] in &edges {
            first[from + 1] += 1;
        }
        for c in 0..cells.len() {
            first[c + 1] += first[c];
        }
        let mut consumers = vec![(0, 0); edges.len()];
        let mut next = first.clone();
        for [from, to, port] in edges {
            consumers[next[from]] = (to, port);
            next[from] += 1;
        }
        Graph {
            cells,
            sources,
            reads,
            consumers,
            first,
        }
    }

    /// Where cell `c`'s output pages flow: one `(cell, port)` per
    /// consumer. A self-join of two identical subtrees consumes on both
    /// ports. In a per-query graph a cell has one consumer, its plan
    /// parent, or none: it is its query's root.
    pub fn consumers(&self, c: usize) -> &[(usize, usize)] {
        &self.consumers[self.first[c]..self.first[c + 1]]
    }

    /// The queries that read cell `c`.
    pub fn readers(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.reads.len()).filter(move |&q| self.reads[q].contains(&c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use df_relalg::{DataType, Relation, Tuple, Value};
    use proptest::prelude::*;

    /// Two relations `a` and `b` over `(k, v)`.
    fn db() -> Catalog {
        let mut db = Catalog::new();
        let kv = Schema::build()
            .attr("k", DataType::Int)
            .attr("v", DataType::Int)
            .finish()
            .unwrap();
        for name in ["a", "b"] {
            let tuples = (0..4).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 2)]));
            let rel = Relation::from_tuples(name, kv.clone(), 128, tuples).unwrap();
            db.insert(rel).unwrap();
        }
        db
    }

    fn plans(db: &Catalog, texts: &[String], transfer: TransferMode) -> Vec<Arc<Plan>> {
        let plan = |text: &String| {
            let mut plan = Plan::compile(db, &parse_query(db, text).unwrap()).unwrap();
            if transfer == TransferMode::Pipeline {
                plan.fuse_spans();
            }
            Arc::new(plan)
        };
        texts.iter().map(plan).collect()
    }

    /// The live node heading the chain that node `at` belongs to: `at`
    /// itself unless it was absorbed into a span.
    fn live(plan: &Plan, mut at: usize) -> usize {
        while plan.nodes[at].absorbed {
            at = plan.nodes[at].children[0];
        }
        at
    }

    /// Whether live node `at` is a cell: not a scan leaf.
    fn is_cell(plan: &Plan, at: usize) -> bool {
        plan.nodes[at].firing != Firing::Source || at == plan.root
    }

    /// The subtree under live node `at`, spelled out: operator, kernel (a
    /// fused span's covers its chain) and the operands' forms, an absorbed
    /// operand standing for its chain's bottom.
    fn form(plan: &Plan, at: usize) -> String {
        let node = &plan.nodes[at];
        let operands: Vec<String> = (node.children.iter())
            .map(|&c| form(plan, live(plan, c)))
            .collect();
        format!("{:?} {:?} [{}]", node.op, node.kernel, operands.join(", "))
    }

    /// Each port of cell `c` that a scan feeds is a consumer of that scan's
    /// source, and the sources feed no other port.
    fn check_sources(graph: &Graph) {
        let mut fed = 0;
        for (c, spec) in graph.cells.iter().enumerate() {
            for (port, (_, relation)) in spec.operands().enumerate() {
                let Some(relation) = relation else { continue };
                let source = (graph.sources.iter())
                    .find(|s| s.relation == relation)
                    .expect("a scanned relation is a source");
                assert!(
                    source.consumers.contains(&(c, port)),
                    "cell {c} port {port}"
                );
                fed += 1;
            }
        }
        let consumers: usize = graph.sources.iter().map(|s| s.consumers.len()).sum();
        assert_eq!(fed, consumers, "a source feeds a port no scan feeds");
    }

    /// Every cell node of every plan, with its subtree's form and the cell
    /// the merge gave it; and the graph's own consistency.
    fn check(plans: &[Arc<Plan>]) -> Vec<(String, usize, &Op)> {
        let graph = Graph::build(plans, true);
        let mut nodes = Vec::new();
        for (q, plan) in plans.iter().enumerate() {
            let mine = &graph.reads[q];
            let cells = (0..plan.nodes.len()).filter(|&at| !plan.nodes[at].absorbed);
            for at in cells.filter(|&at| is_cell(plan, at)) {
                let (node, form) = (&plan.nodes[at], form(plan, at));
                let cell = (mine.iter().copied())
                    .find(|&c| self::form(&graph.cells[c].plan, graph.cells[c].node) == form)
                    .expect("a query reads the cell of each of its nodes");
                if at == plan.root {
                    assert!(graph.cells[cell].results.contains(&q));
                }
                nodes.push((form, cell, &node.op));
            }
            let mut sorted = mine.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), mine.len(), "a cell is read once per query");
        }
        // Distinct cells run distinct subtrees, so finding a node's cell by
        // its form above is unambiguous.
        let mut forms: Vec<String> = (graph.cells.iter())
            .map(|s| form(&s.plan, s.node))
            .collect();
        forms.sort_unstable();
        forms.dedup();
        assert_eq!(forms.len(), graph.cells.len(), "two cells run one subtree");
        for (c, spec) in graph.cells.iter().enumerate() {
            let readers: Vec<usize> = graph.readers(c).collect();
            assert_eq!((readers.len(), readers[0]), (spec.readers, spec.owner));
            for &(to, port) in graph.consumers(c) {
                assert!(to > c, "ids are topological");
                let consumer = &graph.cells[to];
                let operand = live(&consumer.plan, consumer.node().children[port]);
                assert_eq!(
                    form(&consumer.plan, operand),
                    form(&spec.plan, spec.node),
                    "cell {c} feeds port {port} of cell {to}"
                );
            }
        }
        check_sources(&graph);
        nodes
    }

    /// Nodes share a cell iff their subtrees' forms are equal.
    fn merges_iff_forms_equal(nodes: &[(String, usize, &Op)]) {
        for (form_a, cell_a, _) in nodes {
            for (form_b, cell_b, _) in nodes {
                assert_eq!(form_a == form_b, cell_a == cell_b, "{form_a}\n{form_b}");
            }
        }
    }

    #[test]
    fn nodes_merge_iff_their_subtrees_are_equal() {
        let db = db();
        let texts = [
            "(restrict (scan a) (> k 1))",
            // A fused chain whose bottom is the bare restrict above.
            "(project (restrict (scan a) (> k 1)) (v))",
            // The same bottom under another top, and a longer chain.
            "(project (restrict (scan a) (> k 1)) (k))",
            "(restrict (project (restrict (scan a) (> k 1)) (v k)) (< v 6))",
            // A self-join of two identical subtrees, and the chain again
            // under a join.
            "(join (restrict (scan a) (> k 1)) (restrict (scan a) (> k 1)) (= k k))",
            "(join (project (restrict (scan a) (> k 1)) (v)) (scan b) (= v k))",
            "(union (scan a) (scan b))",
            "(project-distinct (union (scan a) (scan b)) (k))",
            // A bare-scan root is a cell; the scan leaves above are not.
            "(scan a)",
        ]
        .map(String::from);
        for transfer in TransferMode::ALL {
            let plans = plans(&db, &texts, transfer);
            let nodes = check(&plans);
            merges_iff_forms_equal(&nodes);
            let graph = Graph::build(&plans, true);
            // The bare restrict and the fused chain's bottom carry the same
            // `op`; only under Pipeline are they different cells.
            let (bare, fused) = (graph.reads[0][0], &graph.reads[1]);
            let bottoms = (fused.iter())
                .filter(|&&c| graph.cells[c].node().op == graph.cells[bare].node().op);
            let shared = bottoms.clone().any(|&c| c == bare);
            assert_eq!(
                shared,
                transfer == TransferMode::Materialize,
                "{transfer:?}"
            );
            assert_eq!(bottoms.count(), 1, "{transfer:?}");
            // The self-join reads its leg's cell on both ports.
            let (leg, join) = (graph.reads[4][0], graph.reads[4][1]);
            assert_eq!(graph.cells[join].node().op.name(), "join");
            let leg = graph.consumers(leg);
            assert!(
                leg.contains(&(join, 0)) && leg.contains(&(join, 1)),
                "{leg:?}"
            );
            // Sources in order of first occurrence; the bare-scan root
            // reads `a` on its port 0.
            let relations: Vec<&str> = (graph.sources.iter())
                .map(|s| s.relation.as_str())
                .collect();
            assert_eq!(relations, ["a", "b"], "{transfer:?}");
            let root = graph.reads[8][0];
            assert_eq!(graph.cells[root].results, [8]);
            assert!(graph.sources[0].consumers.contains(&(root, 0)));
        }
    }

    /// A random read-only tree over `a`/`b` that keeps the `(k, v)` schema at
    /// every node, drawn from a small vocabulary so that batches share
    /// subtrees often.
    fn gen_tree(words: &mut impl Iterator<Item = u64>, depth: usize) -> String {
        let mut draw = || words.next().expect("cycled");
        if depth == 0 {
            return format!("(scan {})", ["a", "b"][draw() as usize % 2]);
        }
        let c = draw() % 3;
        match draw() % 7 {
            0 => format!("(restrict {} (< v {c}))", gen_tree(words, depth - 1)),
            1 => format!("(project {} (k v))", gen_tree(words, depth - 1)),
            2 => format!("(project-distinct {} (k v))", gen_tree(words, depth - 1)),
            3 => {
                let side = gen_tree(words, depth - 1);
                let other = if c == 0 {
                    side.clone()
                } else {
                    gen_tree(words, depth - 1)
                };
                format!("(project (join {side} {other} (= k k)) (k v))")
            }
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
            _ => format!("(restrict {} (>= k {c}))", gen_tree(words, depth - 1)),
        }
    }

    /// The per-query build of `plans`: one cell per live node that is not
    /// a scan leaf, in query-then-node order; every non-root cell feeds
    /// exactly its plan parent, on the same port; every root is its
    /// query's result; and every scan child is a source of its parent's
    /// port.
    fn check_per_query(plans: &[Arc<Plan>]) {
        let graph = Graph::build(plans, false);
        let mut want = Vec::new();
        for (q, plan) in plans.iter().enumerate() {
            for at in 0..plan.nodes.len() {
                if !plan.nodes[at].absorbed && is_cell(plan, at) {
                    want.push((q, at));
                }
            }
        }
        let got: Vec<(usize, usize)> = graph.cells.iter().map(|s| (s.owner, s.node)).collect();
        assert_eq!(got, want);
        let cell_of = |q: usize, at: usize| want.iter().position(|&w| w == (q, at)).unwrap();
        for (c, spec) in graph.cells.iter().enumerate() {
            let q = spec.owner;
            assert!(Arc::ptr_eq(&spec.plan, &plans[q]));
            assert_eq!(spec.readers, 1);
            assert!(graph.reads[q].contains(&c));
            match spec.node().parent {
                Some((p, port)) => {
                    assert_eq!(graph.consumers(c), [(cell_of(q, p), port)]);
                    assert!(spec.results.is_empty());
                }
                None => {
                    assert!(graph.consumers(c).is_empty());
                    assert_eq!(spec.results, [q]);
                }
            }
        }
        check_sources(&graph);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random batches in both transfer modes: nodes share a cell iff
        /// their subtrees' forms are equal.
        #[test]
        fn random_batches_merge_iff_forms_equal(
            words in proptest::collection::vec(any::<u64>(), 16..64),
            depths in proptest::collection::vec(0usize..4, 1..5),
        ) {
            let db = db();
            let mut words = words.iter().copied().cycle();
            let texts: Vec<String> = depths.iter().map(|&d| gen_tree(&mut words, d)).collect();
            for transfer in TransferMode::ALL {
                let plans = plans(&db, &texts, transfer);
                merges_iff_forms_equal(&check(&plans));
            }
        }

        /// Random batches in both transfer modes: the per-query build
        /// numbers and routes cells as the plans do.
        #[test]
        fn random_batches_build_per_query_as_their_plans(
            words in proptest::collection::vec(any::<u64>(), 16..64),
            depths in proptest::collection::vec(0usize..4, 1..5),
        ) {
            let db = db();
            let mut words = words.iter().copied().cycle();
            let texts: Vec<String> = depths.iter().map(|&d| gen_tree(&mut words, d)).collect();
            for transfer in TransferMode::ALL {
                check_per_query(&plans(&db, &texts, transfer));
            }
        }
    }
}
