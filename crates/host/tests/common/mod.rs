//! A model of the one graph `run_host_queries` builds for a batch, from the
//! definition rather than the executor's code: two live plan nodes are one
//! cell iff their subtrees' `Debug` forms are equal, and cell ids are
//! assigned in query order, plan node by plan node. A scan leaf is no cell
//! (its relation feeds its parent's port); a bare-scan root is one.

use std::collections::HashMap;

use df_query::TransferMode;
use df_query::{Firing, Plan, QueryTree};
use df_relalg::Catalog;

/// The merged graph, as the model sees it.
#[allow(dead_code)] // each test binary reads its own part of it
pub struct Model {
    /// Cells the call runs.
    pub cells: usize,
    /// Per query, the cells it reads, ascending.
    pub reads: Vec<Vec<usize>>,
    /// Per query, the cell whose output is its result.
    pub roots: Vec<usize>,
}

#[allow(dead_code)]
impl Model {
    /// The queries that read `cell`, ascending.
    pub fn readers(&self, cell: usize) -> Vec<usize> {
        (0..self.reads.len())
            .filter(|&q| self.reads[q].contains(&cell))
            .collect()
    }
}

/// The subtree of live node `at`, spelled out: its operator, the kernel it
/// runs (a fused span's covers its whole chain), and its operands' forms.
fn form(plan: &Plan, at: usize) -> String {
    let node = &plan.nodes[at];
    let operands: Vec<String> = (node.children.iter())
        .map(|&c| {
            // An absorbed operand is a fused chain's top: the cell is the
            // chain's bottom.
            let mut live = c;
            while plan.nodes[live].absorbed {
                live = plan.nodes[live].children[0];
            }
            form(plan, live)
        })
        .collect();
    format!("{:?} {:?} [{}]", node.op, node.kernel, operands.join(", "))
}

/// Model the graph of `queries` under `transfer`.
pub fn model(db: &Catalog, queries: &[QueryTree], transfer: TransferMode) -> Model {
    let mut ids: HashMap<String, usize> = HashMap::new();
    let (mut reads, mut roots) = (Vec::new(), Vec::new());
    for query in queries {
        let mut plan = Plan::compile(db, query).expect("query compiles");
        if transfer == TransferMode::Pipeline {
            plan.fuse_spans();
        }
        let mut mine = Vec::new();
        let is_cell = |at: usize| {
            let node = &plan.nodes[at];
            !node.absorbed && (node.firing != Firing::Source || at == plan.root)
        };
        for at in (0..plan.nodes.len()).filter(|&at| is_cell(at)) {
            let next = ids.len();
            let id = *ids.entry(form(&plan, at)).or_insert(next);
            mine.push(id);
            if at == plan.root {
                roots.push(id);
            }
        }
        mine.sort_unstable();
        mine.dedup();
        reads.push(mine);
    }
    Model {
        cells: ids.len(),
        reads,
        roots,
    }
}
