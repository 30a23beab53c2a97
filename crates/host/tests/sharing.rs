//! One graph per call: random batches whose queries share subtrees — a
//! subtree of one query run as a query of its own, under a new restrict or
//! bag project, or self-joined — in both transfer modes and under both
//! join algorithms, each query checked against the sequential oracle, with
//! and without seeded kernel panics.

mod common;

use std::sync::{Arc, Once};

use df_host::{run_host_queries, FaultPlan, HostError, HostParams};
use df_obs::{EventKind, Tracer};
use df_query::{execute_readonly, ExecParams, NodeId, Op, Plan, QueryNode, QueryTree};
use df_query::{JoinAlgo, TransferMode};
use df_relalg::{Catalog, CmpOp, JoinCondition, Predicate, Projection, Schema, Value};
use df_sim::rng::SimRng;
use df_workload::{generate_database, random_query, BenchmarkSpec};
use proptest::prelude::*;

/// The nodes of `tree` under `root`, renumbered from 0, children first.
fn subtree(tree: &QueryTree, root: NodeId) -> Vec<QueryNode> {
    let mut keep = vec![false; tree.len()];
    keep[root.0] = true;
    for at in (0..=root.0).rev() {
        if keep[at] {
            for c in &tree.node(NodeId(at)).children {
                keep[c.0] = true;
            }
        }
    }
    let mut renumbered = vec![usize::MAX; tree.len()];
    let mut nodes = Vec::new();
    for at in (0..=root.0).filter(|&at| keep[at]) {
        let mut node = tree.node(NodeId(at)).clone();
        for c in &mut node.children {
            c.0 = renumbered[c.0];
        }
        renumbered[at] = nodes.len();
        nodes.push(node);
    }
    nodes
}

fn schema(db: &Catalog, nodes: &[QueryNode]) -> Schema {
    let tree = QueryTree::from_parts(nodes.to_vec(), NodeId(nodes.len() - 1));
    let plan = Plan::compile(db, &tree).expect("subtree compiles");
    plan.nodes[plan.root].out_schema.clone()
}

/// `op` over `nodes`, and over a second copy of them for a binary `op`.
fn on_top(mut nodes: Vec<QueryNode>, op: Op) -> QueryTree {
    let (left, n) = (NodeId(nodes.len() - 1), nodes.len());
    let mut children = vec![left];
    if op.arity() == 2 {
        let copy: Vec<QueryNode> = (nodes.iter().cloned())
            .map(|mut node| {
                node.children.iter_mut().for_each(|c| c.0 += n);
                node
            })
            .collect();
        nodes.extend(copy);
        children.push(NodeId(2 * n - 1));
    }
    nodes.push(QueryNode { op, children });
    let root = NodeId(nodes.len() - 1);
    QueryTree::from_parts(nodes, root)
}

/// A batch of two to four random join chains, then two to four queries
/// built from random subtrees of them, shuffled so that any query may be a
/// shared cell's lowest-index reader.
fn batch(db: &Catalog, relations: usize, cutoff: i64, rng: &mut SimRng) -> Vec<QueryTree> {
    let chains: Vec<QueryTree> = (0..rng.gen_range(2..=4))
        .map(|_| random_query(db, relations, 2, cutoff, rng).expect("query builds"))
        .collect();
    let mut queries = chains.clone();
    for _ in 0..rng.gen_range(2..=4) {
        let from = rng.choose(&chains).expect("chains");
        let nodes = subtree(from, NodeId(rng.gen_range(0..from.len())));
        let s = schema(db, &nodes);
        let query = match rng.gen_range(0..4) {
            0 => {
                let root = NodeId(nodes.len() - 1);
                QueryTree::from_parts(nodes, root)
            }
            1 => {
                let predicate = Predicate::cmp_const(&s, "val", CmpOp::Lt, Value::Int(cutoff))
                    .expect("every chain carries val");
                on_top(nodes, Op::Restrict { predicate })
            }
            2 => {
                let projection = Projection::new(&s, &["key", "val"]).expect("key and val");
                let dedup = false;
                on_top(nodes, Op::Project { projection, dedup })
            }
            _ => {
                let condition = JoinCondition::new(&s, "key", CmpOp::Eq, &s, "key")
                    .expect("every chain carries key");
                on_top(nodes, Op::Join { condition })
            }
        };
        queries.push(query);
    }
    rng.shuffle(&mut queries);
    queries
}

/// Injected panics are expected; keep their backtraces out of the output.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = (info.payload().downcast_ref::<String>())
                .is_some_and(|s| s.starts_with("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every query of a sharing batch equals the oracle — or, under a
    /// seeded panic plan, fails with `UnitPanicked` naming itself and a
    /// cell it reads where a panic was counted. The call runs exactly the
    /// model's cells, and what each cell did is counted once.
    #[test]
    fn shared_subtrees_answer_every_query(
        seed in any::<u64>(),
        workers in prop_oneof![Just(1usize), Just(2), Just(4)],
        pipeline in any::<bool>(),
        hash in any::<bool>(),
        faulty in any::<bool>(),
    ) {
        quiet_injected_panics();
        let spec = BenchmarkSpec::scaled(0.01);
        let db = generate_database(&spec.database);
        let mut rng = SimRng::new(seed);
        let queries = batch(&db, spec.database.relations, spec.cutoff(), &mut rng);
        let tracer = Arc::new(Tracer::new(Tracer::DEFAULT_CAPACITY));
        let transfer = [TransferMode::Materialize, TransferMode::Pipeline][pipeline as usize];
        let params = HostParams {
            transfer,
            join: [JoinAlgo::Nested, JoinAlgo::Hash][hash as usize],
            fault: FaultPlan {
                panic_rate: if faulty { 0.03 } else { 0.0 },
                seed,
                ..FaultPlan::default()
            },
            trace: Some(Arc::clone(&tracer)),
            ..HostParams::with_workers(workers)
        };
        let at = format!("seed {seed}, {workers} workers, {transfer:?}, {}", params.join);
        let model = common::model(&db, &queries, transfer);
        let out = run_host_queries(&db, &queries, &params).expect("host executes");
        let m = &out.metrics;
        prop_assert_eq!(m.cells, model.cells, "{}", at);
        let fired: usize = m.per_query.iter().map(|q| q.units_fired).sum();
        prop_assert_eq!(fired, m.total_units(), "{}: units counted once", at);

        let snap = tracer.snapshot();
        prop_assert_eq!(snap.dropped, 0);
        let panicked: Vec<usize> = (snap.of_kind(EventKind::Fault))
            .filter(|e| e.a == 0)
            .map(|e| e.cell as usize)
            .collect();
        prop_assert_eq!(panicked.len(), m.total_panics(), "{}", at);
        for (i, (query, got)) in queries.iter().zip(&out.results).enumerate() {
            match got {
                Ok(got) => {
                    let want = execute_readonly(&db, query, &ExecParams::default())
                        .expect("oracle executes");
                    prop_assert!(got.same_contents(&want), "{}: query {} vs oracle", at, i);
                }
                Err(HostError::UnitPanicked { query, cell, .. }) => {
                    prop_assert!(faulty, "{}: query {} failed unfaulted", at, i);
                    prop_assert_eq!(*query, i, "{}: the error names its own query", at);
                    prop_assert!(model.reads[i].contains(cell), "{}: {} reads {}", at, i, cell);
                    prop_assert!(panicked.contains(cell), "{}: no panic at {}", at, cell);
                }
                Err(other) => panic!("{at}: query {i}: unexpected error {other:?}"),
            }
        }
    }
}
