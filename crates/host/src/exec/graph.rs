//! One data-flow graph per call: the batch's compiled plans merged so that
//! identical subtrees become one cell (§2.3's instruction per query-tree
//! node, held once for every user whose query contains that node).
//!
//! Two plan nodes become one cell iff they run the same operators over
//! the same merged inputs. [`Graph::merge`] keys every node bottom-up on
//! its [`Op`] and its children's subtree ids, over the unfused tree
//! (fusion leaves `children` as compiled), and a live node — one
//! [`Plan::fuse_spans`] did not absorb — on its chain top's subtree id:
//! a fused chain's key covers every operator of the chain, while its
//! bottom's `op` names only the bottom operator. Equal keys are equal
//! subtrees, so the key is exactly the subtree's `Debug` form, compared as
//! a few integers and one `Op` equality per node instead of a string.

use std::sync::Arc;

use df_query::{Op, Plan, PlanNode};

/// What the scheduler knows of one cell before it runs: the node whose
/// kernel it fires, where its output goes, and who reads it.
#[derive(Debug)]
pub(super) struct CellSpec {
    /// The plan holding the cell's node: the first query, in batch order,
    /// that contains it.
    pub plan: Arc<Plan>,
    /// The node's index in `plan`.
    pub node: usize,
    /// The queries whose result is this cell's output.
    pub results: Vec<usize>,
    /// The lowest-index query that reads the cell: its units, bytes, spans
    /// and trace events are counted against this query alone.
    pub owner: usize,
    /// How many queries read the cell.
    pub readers: usize,
}

impl CellSpec {
    /// The compiled node the cell runs.
    pub fn node(&self) -> &PlanNode {
        &self.plan.nodes[self.node]
    }
}

/// The merged graph of one call: its cells, in topological order with ids
/// assigned in query order, and each query's view of them.
#[derive(Debug)]
pub(super) struct Graph {
    pub cells: Vec<CellSpec>,
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

/// "No child", "no subtree", "no cell".
const NONE: usize = usize::MAX;

impl Graph {
    /// Merge `plans` (already fused, in the pipeline mode) into one graph.
    pub fn merge(plans: &[Arc<Plan>]) -> Graph {
        let total = plans.iter().map(|p| p.nodes.len()).sum();
        let mut subtrees: Vec<Subtree> = Vec::with_capacity(total);
        // The newest leaf subtree: the head of the leaves' chain.
        let mut leaves = NONE;
        let mut cells: Vec<CellSpec> = Vec::with_capacity(total);
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
                cell_at.push(NONE);
                if node.absorbed {
                    continue;
                }
                let cell = &mut subtrees[key[at]].cell;
                if *cell == NONE {
                    *cell = cells.len();
                    for (port, &child) in node.children.iter().enumerate() {
                        edges.push([cell_at[bottom[child]], *cell, port]);
                    }
                    cells.push(CellSpec {
                        plan: Arc::clone(plan),
                        node: at,
                        results: Vec::new(),
                        owner: q,
                        readers: 0,
                    });
                }
                let c = *cell;
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
            reads,
            consumers,
            first,
        }
    }

    /// Where cell `c`'s output pages flow: one `(cell, port)` per
    /// consumer. A self-join of two identical subtrees consumes on both
    /// ports.
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
    use df_query::parse_query;
    use df_query::TransferMode;
    use df_relalg::{Catalog, DataType, Relation, Schema, Tuple, Value};
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

    /// The subtree under live node `at`, spelled out: operator, kernel (a
    /// fused span's covers its chain) and the operands' forms, an absorbed
    /// operand standing for its chain's bottom.
    fn form(plan: &Plan, at: usize) -> String {
        let node = &plan.nodes[at];
        let operands: Vec<String> = (node.children.iter())
            .map(|&c| {
                let mut live = c;
                while plan.nodes[live].absorbed {
                    live = plan.nodes[live].children[0];
                }
                form(plan, live)
            })
            .collect();
        format!("{:?} {:?} [{}]", node.op, node.kernel, operands.join(", "))
    }

    /// Every live node of every plan, with its subtree's form and the cell
    /// the merge gave it; and the graph's own consistency.
    fn check(plans: &[Arc<Plan>]) -> Vec<(String, usize, &Op)> {
        let graph = Graph::merge(plans);
        let mut nodes = Vec::new();
        for (q, plan) in plans.iter().enumerate() {
            let mine = &graph.reads[q];
            for at in (0..plan.nodes.len()).filter(|&at| !plan.nodes[at].absorbed) {
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
                let mut operand = consumer.node().children[port];
                while consumer.plan.nodes[operand].absorbed {
                    operand = consumer.plan.nodes[operand].children[0];
                }
                assert_eq!(
                    form(&consumer.plan, operand),
                    form(&spec.plan, spec.node),
                    "cell {c} feeds port {port} of cell {to}"
                );
            }
        }
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
        ]
        .map(String::from);
        for transfer in TransferMode::ALL {
            let plans = plans(&db, &texts, transfer);
            let nodes = check(&plans);
            merges_iff_forms_equal(&nodes);
            let graph = Graph::merge(&plans);
            // The bare restrict and the fused chain's bottom carry the same
            // `op`; only under Pipeline are they different cells.
            let (bare, fused) = (graph.reads[0][1], &graph.reads[1]);
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
            let join = &graph.cells[graph.reads[4][2]];
            assert_eq!(join.node().op.name(), "join");
            let leg = graph.consumers(graph.reads[4][1]);
            let join = graph.reads[4][2];
            assert!(
                leg.contains(&(join, 0)) && leg.contains(&(join, 1)),
                "{leg:?}"
            );
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
    }
}
