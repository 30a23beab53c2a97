//! Compiling query trees into machine instructions.
//!
//! Paper §2.3: *"the instruction in each memory cell corresponds to a node
//! in the query tree"*. A [`Program`] holds the batch's compiled [`Plan`]s,
//! and an [`Instruction`] is a reference to one live node of them: its
//! dense id, its query, its node index and where its pages go. The
//! machines read everything else off the node in place — the [`Kernel`] an
//! instruction processor executes on the pages of a work unit, the firing
//! class, the output schema. Scans are not instructions: a scan child
//! makes its parent's operand a *source* operand whose page table is
//! complete from the start (the relation sits on mass storage).

use std::sync::Arc;

use df_query::{Firing, NodeId, Op, Plan, PlanNode, QueryTree, TransferMode};
use df_relalg::{Catalog, Result, Schema};

/// The operator code executed per work unit and the bucket hash of the
/// partitioned finalizers; defined next to the plan that carries them in
/// df-query and re-exported here.
pub use df_query::{tuple_bucket, Kernel};

/// Index of an instruction within a [`Program`].
pub type InstrId = usize;
/// Index of a query within a batch.
pub type QueryId = usize;

/// A compiled instruction: a reference to its plan node (runtime state
/// lives in the machine).
#[derive(Debug, Clone)]
pub struct Instruction {
    /// This instruction's id.
    pub id: InstrId,
    /// The query it belongs to, whose plan holds the node.
    pub query: QueryId,
    /// The plan node it was compiled from.
    pub node: NodeId,
    /// Where output pages go: `Some((parent, operand_index))`, or `None`
    /// for the query root (output pages are the query result).
    pub parent: Option<(InstrId, usize)>,
}

/// A compiled batch of queries.
#[derive(Debug, Clone)]
pub struct Program {
    /// Each query's compiled plan, fused under [`TransferMode::Pipeline`].
    plans: Vec<Arc<Plan>>,
    /// All instructions, children before parents within each query.
    pub instructions: Vec<Instruction>,
    /// Root instruction of each query.
    pub roots: Vec<InstrId>,
    /// Names of every base relation the program reads, sorted.
    pub base_relations: Vec<String>,
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

impl Program {
    /// The plan node instruction `id` reads in place.
    pub(crate) fn node(&self, id: InstrId) -> &PlanNode {
        let instr = &self.instructions[id];
        &self.plans[instr.query].nodes[instr.node.0]
    }

    /// The operator code instruction `id` runs.
    pub fn kernel(&self, id: InstrId) -> &Kernel {
        &self.node(id).kernel
    }

    /// The tuple schema of instruction `id`'s output pages.
    pub fn out_schema(&self, id: InstrId) -> &Schema {
        &self.node(id).out_schema
    }

    /// How operand pages of instruction `id` turn into work units. Never
    /// [`Firing::Source`]: a bare-scan root is an identity over its own
    /// relation and fires per page.
    pub fn firing(&self, id: InstrId) -> Firing {
        match self.node(id).firing {
            Firing::Source => Firing::PerPage,
            fires => fires,
        }
    }

    /// Display name of instruction `id`'s operator: `"span"` for a fused
    /// chain.
    pub fn op_name(&self, id: InstrId) -> &'static str {
        let node = self.node(id);
        match &node.kernel {
            Kernel::Unary(form) if form.steps() > 1 => "span",
            _ => node.op.name(),
        }
    }

    /// Instruction `id`'s operands (1 or 2) in port order: the tuple schema
    /// of each operand's pages, and the base relation a source operand is
    /// loaded from (`None` when a child instruction feeds it). A leafless
    /// instruction — a bare scan or a delete — reads its own relation.
    pub fn operands(&self, id: InstrId) -> impl Iterator<Item = (&Schema, Option<&str>)> {
        let instr = &self.instructions[id];
        let plan = &self.plans[instr.query];
        let node = &plan.nodes[instr.node.0];
        let ports = if node.children.is_empty() {
            std::slice::from_ref(&instr.node.0)
        } else {
            &node.children[..]
        };
        ports.iter().map(move |&n| {
            let operand = &plan.nodes[n];
            (&operand.out_schema, base_relation(operand))
        })
    }

    /// Whether operand `slot` of instruction `id` is fed by a child
    /// instruction rather than loaded from a base relation.
    pub fn is_intermediate(&self, id: InstrId, slot: usize) -> bool {
        let (_, source) = self.operands(id).nth(slot).expect("a valid operand slot");
        source.is_none()
    }
}

/// Compile a batch of query trees into a [`Program`]: each tree's
/// [`Plan`] (fused under [`TransferMode::Pipeline`]) gets dense
/// instruction ids in topological order for its live nodes, skipping
/// scans — they are their parent's source operands — and nodes absorbed
/// into a span. The machines pass their params' transfer mode through
/// here.
///
/// # Errors
/// Propagates validation errors (unknown relations, type mismatches…).
pub fn compile_with(
    db: &Catalog,
    queries: &[QueryTree],
    transfer: TransferMode,
) -> Result<Program> {
    let mut plans = Vec::with_capacity(queries.len());
    let mut instructions: Vec<Instruction> = Vec::new();
    let mut roots = Vec::new();
    let mut base: Vec<String> = Vec::new();

    for (qid, tree) in queries.iter().enumerate() {
        let mut plan = Plan::compile(db, tree)?;
        if transfer == TransferMode::Pipeline {
            plan.fuse_spans();
        }
        // Dense ids for the nodes that become instructions. A bare scan
        // root is one too (an identity over its own relation), so the
        // machine has something to execute.
        let mut ids: Vec<Option<InstrId>> = vec![None; plan.nodes.len()];
        let mut next = instructions.len();
        for (n, node) in plan.nodes.iter().enumerate() {
            if !node.absorbed && (node.firing != Firing::Source || n == plan.root) {
                ids[n] = Some(next);
                next += 1;
            }
        }
        for (n, node) in plan.nodes.iter().enumerate() {
            base.extend(base_relation(node).map(str::to_owned));
            let Some(id) = ids[n] else { continue };
            instructions.push(Instruction {
                id,
                query: qid,
                node: NodeId(n),
                parent: node
                    .parent
                    .map(|(p, port)| (ids[p].expect("a live node feeds a live node"), port)),
            });
        }
        roots.push(ids[plan.root].expect("the root is live"));
        plans.push(Arc::new(plan));
    }

    base.sort();
    base.dedup();
    Ok(Program {
        plans,
        instructions,
        roots,
        base_relations: base,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_query::ops::{self, JoinSweep, SpanStep, UnaryKernel};
    use df_query::{oracle, parse_query, TreeBuilder};
    use df_relalg::{
        CmpOp, DataType, JoinCondition, Page, Predicate, Projection, Relation, Tuple, TupleBuf,
        Value,
    };

    /// The paper's configuration: nested-loops joins, materializing transfers.
    fn compile(db: &Catalog, queries: &[QueryTree]) -> Result<Program> {
        compile_with(db, queries, TransferMode::default())
    }

    /// The base relation each operand of instruction `id` is loaded from.
    fn sources_of(prog: &Program, id: InstrId) -> Vec<Option<&str>> {
        prog.operands(id).map(|(_, source)| source).collect()
    }

    fn refs(rel: &Relation) -> Vec<&Page> {
        rel.pages().iter().map(|p| p.as_ref()).collect()
    }

    fn images(buf: &TupleBuf) -> Vec<&[u8]> {
        buf.refs().map(|t| t.raw()).collect()
    }

    /// The per-page kernel of `steps` over pages of `input`.
    fn unary(steps: &[SpanStep], input: &Schema) -> Kernel {
        Kernel::Unary(UnaryKernel::compile(steps, input))
    }

    /// Whether `kernel` is a per-page form of `n` steps.
    fn is_unary(kernel: &Kernel, n: usize) -> bool {
        matches!(kernel, Kernel::Unary(form) if form.steps() == n)
    }

    fn db() -> Catalog {
        let mut db = Catalog::new();
        let s = Schema::build()
            .attr("k", DataType::Int)
            .attr("v", DataType::Int)
            .finish()
            .unwrap();
        for name in ["a", "b", "c"] {
            db.insert(
                Relation::from_tuples(
                    name,
                    s.clone(),
                    16 + 16 * 4,
                    (0..10).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 2)])),
                )
                .unwrap(),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn compiles_join_over_restricts() {
        let db = db();
        let q = parse_query(
            &db,
            "(join (restrict (scan a) (> k 2)) (restrict (scan b) (< k 8)) (= k k))",
        )
        .unwrap();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(prog.instructions.len(), 3); // 2 restricts + 1 join
        assert_eq!(prog.roots, vec![2]);
        assert!(matches!(prog.kernel(2), Kernel::JoinPair(_)));
        assert_eq!(prog.instructions[2].node, NodeId(4)); // scans 0/2, restricts 1/3, join 4
        let sources: Vec<_> = prog.operands(2).map(|(_, source)| source).collect();
        assert_eq!(sources, vec![None, None]); // fed by the restricts
        assert_eq!(prog.instructions[0].parent, Some((2, 0)));
        assert_eq!(sources_of(&prog, 0), vec![Some("a")]);
        assert_eq!(prog.base_relations, vec!["a", "b"]);
    }

    #[test]
    fn bare_scan_becomes_identity() {
        let db = db();
        let q = parse_query(&db, "(scan a)").unwrap();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(prog.instructions.len(), 1);
        assert!(is_unary(prog.kernel(0), 0));
        assert_eq!(sources_of(&prog, 0), vec![Some("a")]);
        assert_eq!(prog.node(0).firing, Firing::Source);
        assert_eq!(prog.firing(0), Firing::PerPage);
    }

    #[test]
    fn updates_are_recorded() {
        let db = db();
        // An update root is an instruction whose plan node names the write.
        let q = parse_query(&db, "(append (scan a) b)").unwrap();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(prog.op_name(0), "append");
        assert!(matches!(&prog.node(0).op, Op::Append { target } if target == "b"));
        assert_eq!(sources_of(&prog, 0), vec![Some("a")]);
        assert_eq!(prog.base_relations, vec!["a"]);
        // A delete reads its own target.
        let q = parse_query(&db, "(delete a (> k 5))").unwrap();
        let prog = compile(&db, &[q]).unwrap();
        let s = db.get("a").unwrap().schema();
        let predicate = Predicate::cmp_const(s, "k", CmpOp::Gt, Value::Int(5)).unwrap();
        assert!(matches!(
            &prog.node(0).op,
            Op::Delete { target, predicate: p } if target == "a" && *p == predicate
        ));
        assert_eq!(sources_of(&prog, 0), vec![Some("a")]);
        assert_eq!(prog.base_relations, vec!["a"]);
        assert!(is_unary(prog.kernel(0), 1));
    }

    #[test]
    fn multi_query_batches_share_nothing() {
        let db = db();
        let q1 = parse_query(&db, "(restrict (scan a) (> k 1))").unwrap();
        let q2 = parse_query(&db, "(restrict (scan a) (< k 9))").unwrap();
        let prog = compile(&db, &[q1, q2]).unwrap();
        assert_eq!(prog.instructions.len(), 2);
        assert_eq!(prog.roots, vec![0, 1]);
        assert_eq!(prog.instructions[0].query, 0);
        assert_eq!(prog.instructions[1].query, 1);
        assert_eq!(prog.base_relations, vec!["a"]);
    }

    #[test]
    fn kernel_unit_classes() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let q = b.scan("a").unwrap().project(&["v"], true).unwrap().finish();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(prog.firing(0), Firing::Complete);
        let q = b
            .scan("a")
            .unwrap()
            .restrict_where("k", CmpOp::Gt, Value::Int(0))
            .unwrap()
            .finish();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(prog.firing(0), Firing::PerPage);
    }

    #[test]
    fn kernel_run_unit_matches_ops() {
        let db = db();
        let a = db.get("a").unwrap();
        let page = &a.pages()[0];
        let pred = Predicate::cmp_const(a.schema(), "k", CmpOp::Lt, Value::Int(2)).unwrap();
        let restrict = unary(&[SpanStep::Restrict(pred.clone())], a.schema());
        let out = restrict.run_unit_raw(&[page], a.schema());
        assert_eq!(out.to_tuples(), oracle::restrict_page(page, &pred));
        let ident = unary(&[], a.schema()).run_unit_raw(&[page], a.schema());
        assert_eq!(ident.to_tuples(), page.tuples().collect::<Vec<_>>());
    }

    #[test]
    fn final_kernels_match_set_semantics() {
        let db = db();
        let a = db.get("a").unwrap();
        let s = a.schema();
        let inputs = [refs(a), refs(a)];
        // a ∪ a = a (set semantics)
        let u = Kernel::UnionFinal.run_final_raw(&inputs, s);
        assert_eq!(u.to_tuples(), oracle::union_relations(a, a).unwrap());
        assert_eq!(u.len(), 10);
        // a − a = ∅
        let d = Kernel::DifferenceFinal.run_final_raw(&inputs, s);
        assert_eq!(d.to_tuples(), oracle::difference_relations(a, a).unwrap());
        assert!(d.is_empty());
    }

    /// The machines' raw kernels against the oracle's decoded ones — two
    /// independent implementations of every operator.
    #[test]
    fn raw_unit_and_final_kernels_match_oracle_kernels() {
        let db = db();
        let a = db.get("a").unwrap();
        let s = a.schema().clone();
        let page = &a.pages()[0];
        let other = &a.pages()[1];

        let pred = Predicate::cmp_const(&s, "k", CmpOp::Ge, Value::Int(2)).unwrap();
        let proj = Projection::new(&s, &["v", "k"]).unwrap();
        let all: Vec<Tuple> = page.tuples().collect();
        for (kernel, out_schema, want) in [
            (
                unary(&[SpanStep::Restrict(pred.clone())], &s),
                s.clone(),
                oracle::restrict_page(page, &pred),
            ),
            (
                unary(&[SpanStep::Project(proj.clone())], &s),
                proj.output_schema(&s).unwrap(),
                oracle::project_page(page, &proj),
            ),
            (unary(&[], &s), s.clone(), all),
        ] {
            assert_eq!(
                kernel.run_unit_raw(&[page], &out_schema).to_tuples(),
                want,
                "{kernel:?}"
            );
        }
        let c = JoinCondition::equi(&s, "v", &s, "v").unwrap();
        let sweep = JoinSweep::compile(&s, &s, &c);
        let joined = s.concat(&s);
        for (kernel, want) in [
            (Kernel::JoinPair(sweep), oracle::join_pages(page, other, &c)),
            (Kernel::CrossPair, oracle::cross_pages(page, other)),
        ] {
            assert_eq!(
                kernel.run_unit_raw(&[page, other], &joined).to_tuples(),
                want,
                "{kernel:?}"
            );
        }

        // Finalizers over a and a shifted copy (half overlap). The serial
        // case equals the oracle kernel; the buckets of a partitioned run
        // partition that result exactly — disjoint, nothing lost, and
        // in-bucket order preserved.
        let b = Relation::from_tuples(
            "b",
            s.clone(),
            16 + 16 * 4,
            (5..15).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 2)])),
        )
        .unwrap();
        let inputs = [refs(a), refs(&b)];
        let v = Projection::new(&s, &["v"]).unwrap();
        let vs = v.output_schema(&s).unwrap();
        let projected: Vec<Tuple> = a
            .pages()
            .iter()
            .flat_map(|p| oracle::project_page(p, &v))
            .collect();
        let projected_rel =
            Relation::from_tuples("p", vs.clone(), 128, projected.iter().cloned()).unwrap();
        for (kernel, out_schema, want, host_form) in [
            (
                Kernel::UnionFinal,
                s.clone(),
                oracle::union_relations(a, &b).unwrap(),
                ops::union_pages_raw(&inputs[0], &inputs[1], &s),
            ),
            (
                Kernel::DifferenceFinal,
                s.clone(),
                oracle::difference_relations(a, &b).unwrap(),
                ops::difference_pages_raw(&inputs[0], &inputs[1], &s),
            ),
            (
                Kernel::ProjectDedupFinal(UnaryKernel::compile(
                    &[SpanStep::Project(v.clone())],
                    &s,
                )),
                vs.clone(),
                oracle::dedup_tuples(projected.iter().cloned()),
                ops::dedup_pages_raw(&refs(&projected_rel), &vs),
            ),
        ] {
            let serial = kernel.run_final_raw(&inputs, &out_schema);
            // Bucket 0 of 1 is the public serial finalizer, byte for byte.
            assert_eq!(images(&serial), images(&host_form), "{kernel:?}");
            let serial = serial.to_tuples();
            assert_eq!(serial, want, "{kernel:?}");
            let buckets = 3;
            let parts: Vec<Vec<Tuple>> = (0..buckets)
                .map(|bucket| {
                    kernel
                        .run_final_bucket_raw(&inputs, bucket, buckets, &out_schema)
                        .to_tuples()
                })
                .collect();
            assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), serial.len());
            for (bucket, part) in parts.iter().enumerate() {
                let in_bucket: Vec<Tuple> = serial
                    .iter()
                    .filter(|t| tuple_bucket(t, buckets) == bucket as u64)
                    .cloned()
                    .collect();
                assert_eq!(part, &in_bucket, "{kernel:?} bucket {bucket}/{buckets}");
            }
        }
    }

    #[test]
    fn tuple_ops_cost_proxy() {
        let s = db().get("a").unwrap().schema().clone();
        let restrict = unary(&[SpanStep::Restrict(Predicate::True)], &s);
        assert_eq!(restrict.tuple_ops(&[7]), 7);
        // The identity still touches every tuple once.
        assert_eq!(unary(&[], &s).tuple_ops(&[7]), 7);
        let sweep = JoinSweep::compile(&s, &s, &JoinCondition::equi(&s, "k", &s, "k").unwrap());
        assert_eq!(Kernel::JoinPair(sweep).tuple_ops(&[3, 5]), 15);
        assert_eq!(Kernel::CrossPair.tuple_ops(&[3, 5]), 15);
        assert_eq!(Kernel::UnionFinal.tuple_ops(&[3, 5]), 8);
    }

    #[test]
    fn pipeline_fuses_restrict_project_chains() {
        let db = db();
        // restrict -> project -> restrict over a scan: one span of 3 steps.
        let q = parse_query(
            &db,
            "(restrict (project (restrict (scan a) (> k 2)) (v)) (< v 16))",
        )
        .unwrap();
        let prog = compile_with(&db, std::slice::from_ref(&q), TransferMode::Pipeline).unwrap();
        assert_eq!(prog.instructions.len(), 1);
        let span = &prog.instructions[0];
        assert!(is_unary(prog.kernel(0), 3));
        assert_eq!(prog.op_name(0), "span");
        assert_eq!(span.parent, None);
        assert_eq!(span.id, 0);
        assert_eq!(prog.roots, vec![0]);
        assert_eq!(sources_of(&prog, 0), vec![Some("a")]);
        // Output schema is the chain top's (just `v`).
        assert_eq!(prog.out_schema(0).arity(), 1);
        assert_eq!(prog.out_schema(0).attrs()[0].name, "v");
        // Span cost = sum of step costs.
        assert_eq!(prog.kernel(0).tuple_ops(&[10]), 30);

        // Materialize mode leaves the chain alone.
        let prog = compile_with(&db, std::slice::from_ref(&q), TransferMode::Materialize).unwrap();
        assert_eq!(prog.instructions.len(), 3);
    }

    #[test]
    fn pipeline_fuses_below_and_above_joins() {
        let db = db();
        // Two restrict->project legs feeding a join, whose output is then
        // restricted and projected: three chains fuse, the join stays.
        let q = parse_query(
            &db,
            "(project (restrict \
               (join (project (restrict (scan a) (> k 1)) (k v)) \
                     (project (restrict (scan b) (< k 9)) (k v)) \
                     (= k k)) \
               (> v 0)) (v))",
        )
        .unwrap();
        let prog = compile_with(&db, std::slice::from_ref(&q), TransferMode::Pipeline).unwrap();
        // 2 leg spans + join + output span.
        assert_eq!(prog.instructions.len(), 4);
        let spans: Vec<_> = prog
            .instructions
            .iter()
            .filter(|i| prog.op_name(i.id) == "span")
            .collect();
        assert_eq!(spans.len(), 3);
        let join = prog
            .instructions
            .iter()
            .find(|i| matches!(prog.kernel(i.id), Kernel::JoinPair(..)))
            .expect("join survives fusion");
        // The leg spans feed the join's two operand slots.
        let leg_parents: Vec<_> = spans
            .iter()
            .filter_map(|s| s.parent)
            .filter(|(p, _)| *p == join.id)
            .collect();
        assert_eq!(leg_parents.len(), 2);
        assert_ne!(leg_parents[0].1, leg_parents[1].1);
        // The output span is the root.
        assert!(is_unary(prog.kernel(prog.roots[0]), 2));
        // Ids stay dense and children precede parents.
        for (i, instr) in prog.instructions.iter().enumerate() {
            assert_eq!(instr.id, i);
            if let Some((p, _)) = instr.parent {
                assert!(p > i, "child {i} precedes parent {p}");
            }
        }
    }

    /// Fused and unfused programs over the same tree produce identical
    /// results when executed kernel-by-kernel.
    #[test]
    fn span_kernel_matches_unfused_execution() {
        let db = db();
        let q = parse_query(
            &db,
            "(restrict (project (restrict (scan a) (> k 2)) (v)) (< v 16))",
        )
        .unwrap();
        let fused = compile_with(&db, std::slice::from_ref(&q), TransferMode::Pipeline).unwrap();
        let span = fused.kernel(0);
        assert!(is_unary(span, 3));
        let a = db.get("a").unwrap();
        for page in a.pages() {
            let raw = span.run_unit_raw(&[page], fused.out_schema(0));
            // Unfused reference: the oracle's restrict, then project and
            // restrict by hand.
            let s = a.schema();
            let p1 = Predicate::cmp_const(s, "k", CmpOp::Gt, Value::Int(2)).unwrap();
            let proj = Projection::new(s, &["v"]).unwrap();
            let mid: Vec<Tuple> = oracle::restrict_page(page, &p1)
                .iter()
                .map(|t| proj.apply(t).unwrap())
                .collect();
            let out_schema = proj.output_schema(s).unwrap();
            let p2 = Predicate::cmp_const(&out_schema, "v", CmpOp::Lt, Value::Int(16)).unwrap();
            let unfused: Vec<Tuple> = mid.into_iter().filter(|t| p2.eval(t)).collect();
            assert_eq!(raw.to_tuples(), unfused);
        }
    }

    /// A sweep unit whose page is the *inner* operand of every pair equals
    /// the per-pair calls with the operands swapped.
    #[test]
    fn inner_oriented_sweep_equals_per_pair_calls_with_operands_swapped() {
        let db = db();
        let a = db.get("a").unwrap();
        let s = a.schema().clone();
        let joined = s.concat(&s);
        let list = refs(a);
        let page = list[0];
        // outer.v θ inner.k, with v = 2k: not symmetric in its operands.
        let compile =
            |op| JoinSweep::compile(&s, &s, &JoinCondition::new(&s, "v", op, &s, "k").unwrap());
        for kernel in [
            Kernel::JoinPair(compile(CmpOp::Eq)),
            Kernel::JoinPair(compile(CmpOp::Lt)),
            Kernel::CrossPair,
        ] {
            let mut got = TupleBuf::new(joined.clone());
            kernel.run_sweep_raw_into(page, list.iter().copied(), false, &mut got);
            let mut want = TupleBuf::new(joined.clone());
            for &outer in &list {
                kernel.run_sweep_raw_into(outer, [page], true, &mut want);
            }
            assert!(!got.is_empty(), "{kernel:?}");
            assert_eq!(images(&got), images(&want), "{kernel:?}");
            // ...and is not what the outer orientation produces.
            let mut outer_first = TupleBuf::new(joined.clone());
            kernel.run_sweep_raw_into(page, list.iter().copied(), true, &mut outer_first);
            assert_ne!(images(&got), images(&outer_first), "{kernel:?}");
        }
    }

    /// [`Plan::compile`]'s one classification pairs every operator's firing
    /// class with a kernel the class's entry point accepts, and the entry
    /// points of the other classes refuse it. (The unit entry also takes a
    /// pair kernel: an explicit (outer, inner) pair.)
    #[test]
    fn kernel_agrees_with_firing_for_every_operator() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let db = db();
        let page: &Page = &db.get("a").unwrap().pages()[0];
        // Every operator, each over scans of the one (k, v) schema, so
        // `page` is a valid operand page for every live node.
        for (text, fuse) in [
            ("(restrict (scan a) (> k 2))", false),
            ("(project (scan a) (v))", false),
            ("(project-distinct (scan a) (v))", false),
            ("(join (scan a) (scan b) (= k k))", false),
            ("(join (scan a) (scan b) (< k k))", false),
            ("(cross (scan a) (scan b))", false),
            ("(union (scan a) (scan b))", false),
            ("(difference (scan a) (scan b))", false),
            ("(append (scan a) b)", false),
            ("(delete a (> k 5))", false),
            ("(project (restrict (scan a) (> k 2)) (v))", true),
        ] {
            let mut plan = Plan::compile(&db, &parse_query(&db, text).unwrap()).unwrap();
            if fuse {
                plan.fuse_spans();
            }
            for node in plan.nodes.iter().filter(|n| !n.absorbed) {
                let (kernel, s) = (&node.kernel, &node.out_schema);
                let accepted = [
                    catch_unwind(AssertUnwindSafe(|| {
                        kernel.run_unit_raw(&[page, page], s);
                    })),
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut out = TupleBuf::new(s.clone());
                        kernel.run_sweep_raw_into(page, [page], true, &mut out);
                    })),
                    catch_unwind(AssertUnwindSafe(|| {
                        kernel.run_final_raw(&[vec![page], vec![page]], s);
                    })),
                ]
                .map(|r| r.is_ok());
                let want = match node.firing {
                    Firing::Source | Firing::PerPage => [true, false, false],
                    Firing::PairSweep => [true, true, false],
                    Firing::Complete => [false, false, true],
                };
                assert_eq!(accepted, want, "{text}: {} as {kernel:?}", node.op.name());
            }
        }
    }
}
