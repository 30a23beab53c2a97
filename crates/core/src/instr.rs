//! Compiling query trees into machine instructions.
//!
//! Paper §2.3: *"the instruction in each memory cell corresponds to a node
//! in the query tree"*. Scans are not instructions — a scan child simply
//! makes its parent's operand a *source* operand whose page table is
//! complete from the start (the relation sits on mass storage). Every other
//! node becomes an [`Instruction`] with a [`Kernel`] — the actual operator
//! code an instruction processor executes on the pages in a work unit.

use df_query::{Firing, NodeId, Op, Plan, QueryTree};
use df_relalg::{Catalog, Predicate, Result, Schema};

use crate::params::TransferMode;

/// The operator code executed per work unit and the bucket hash of the
/// partitioned finalizers; defined next to the plan they lower in
/// df-query and re-exported here.
pub use df_query::{tuple_bucket, Kernel};

/// Index of an instruction within a [`Program`].
pub type InstrId = usize;
/// Index of a query within a batch.
pub type QueryId = usize;

/// One operand of an instruction: either a base relation (pages on disk at
/// t = 0, page table complete) or the output of a child instruction (page
/// table filled as the child produces).
#[derive(Debug, Clone)]
pub struct OperandSpec {
    /// Tuple schema of the operand's pages.
    pub schema: Schema,
    /// `Some(name)` for a base-relation operand; `None` when fed by a child.
    pub source: Option<String>,
}

/// A compiled instruction (static plan; runtime state lives in the machine).
#[derive(Debug, Clone)]
pub struct Instruction {
    /// This instruction's id.
    pub id: InstrId,
    /// The query it belongs to.
    pub query: QueryId,
    /// The query-tree node it was compiled from.
    pub node: NodeId,
    /// Operator code.
    pub kernel: Kernel,
    /// How operand pages turn into work units (never [`Firing::Source`]:
    /// scans are operands, not instructions).
    pub firing: Firing,
    /// Display name of the operator.
    pub op_name: &'static str,
    /// Operands (1 or 2).
    pub operands: Vec<OperandSpec>,
    /// Output tuple schema.
    pub output_schema: Schema,
    /// Where output pages go: `Some((parent, operand_index))`, or `None`
    /// for the query root (output pages are the query result).
    pub parent: Option<(InstrId, usize)>,
}

/// A post-run database update the query requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateSpec {
    /// Append the query result to `target`.
    Append {
        /// Target base relation.
        target: String,
    },
    /// Remove the tuples `predicate` selects from `target` — the query
    /// result — by the page-level partition served writes use.
    Delete {
        /// Target base relation.
        target: String,
        /// The delete's restriction over `target`.
        predicate: Predicate,
    },
}

/// A compiled batch of queries.
#[derive(Debug, Clone)]
pub struct Program {
    /// All instructions, children before parents within each query.
    pub instructions: Vec<Instruction>,
    /// Root instruction of each query.
    pub roots: Vec<InstrId>,
    /// Per-query update to apply after the run (None for read-only).
    pub updates: Vec<Option<UpdateSpec>>,
    /// Names of every base relation the program reads.
    pub base_relations: Vec<String>,
}

/// Compile a batch of query trees into a [`Program`]: each tree's
/// [`Plan`] (fused under [`TransferMode::Pipeline`]) is lowered to dense
/// instructions in topological order, skipping scans — they are their
/// parent's source operands — and nodes absorbed into a span. The machines
/// pass their params' transfer mode through here.
///
/// # Errors
/// Propagates validation errors (unknown relations, type mismatches…).
pub fn compile_with(
    db: &Catalog,
    queries: &[QueryTree],
    transfer: TransferMode,
) -> Result<Program> {
    let mut instructions: Vec<Instruction> = Vec::new();
    let mut roots = Vec::new();
    let mut updates = Vec::new();
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

        let mut update = None;
        for (n, node) in plan.nodes.iter().enumerate() {
            // Leafless operators read a base relation directly; its schema
            // is their own output schema.
            let reads = match &node.op {
                Op::Scan { relation } => Some(relation),
                Op::Delete { target, .. } => Some(target),
                _ => None,
            };
            base.extend(reads.cloned());
            let Some(id) = ids[n] else { continue };
            let operands = match reads {
                Some(relation) => vec![OperandSpec {
                    schema: node.out_schema.clone(),
                    source: Some(relation.clone()),
                }],
                None => node
                    .children
                    .iter()
                    .map(|&c| OperandSpec {
                        schema: plan.nodes[c].out_schema.clone(),
                        source: match &plan.nodes[c].op {
                            Op::Scan { relation } => Some(relation.clone()),
                            _ => None,
                        },
                    })
                    .collect(),
            };
            let kernel = Kernel::lower(node);
            match &node.op {
                Op::Append { target } => {
                    update = Some(UpdateSpec::Append {
                        target: target.clone(),
                    });
                }
                Op::Delete { target, predicate } => {
                    update = Some(UpdateSpec::Delete {
                        target: target.clone(),
                        predicate: predicate.clone(),
                    });
                }
                _ => {}
            }
            let op_name = match &kernel {
                Kernel::Unary(form) if form.steps() > 1 => "span",
                _ => node.op.name(),
            };
            instructions.push(Instruction {
                id,
                query: qid,
                node: NodeId(n),
                kernel,
                firing: match node.firing {
                    Firing::Source => Firing::PerPage,
                    fires => fires,
                },
                op_name,
                operands,
                output_schema: node.out_schema.clone(),
                parent: node
                    .parent
                    .map(|(p, port)| (ids[p].expect("a live node feeds a live node"), port)),
            });
        }
        roots.push(ids[plan.root].expect("the root is live"));
        updates.push(update);
    }

    base.sort();
    base.dedup();
    Ok(Program {
        instructions,
        roots,
        updates,
        base_relations: base,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_query::ops::{self, JoinSweep, SpanStep, UnaryKernel};
    use df_query::{oracle, parse_query, TreeBuilder};
    use df_relalg::{
        CmpOp, DataType, JoinCondition, Page, Projection, Relation, Tuple, TupleBuf, Value,
    };

    /// The paper's configuration: nested-loops joins, materializing transfers.
    fn compile(db: &Catalog, queries: &[QueryTree]) -> Result<Program> {
        compile_with(db, queries, TransferMode::default())
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
        let join = &prog.instructions[2];
        assert!(matches!(join.kernel, Kernel::JoinPair(_)));
        assert_eq!(join.node, NodeId(4)); // scans 0/2, restricts 1/3, join 4
        assert_eq!(join.operands.len(), 2);
        assert!(join.operands[0].source.is_none()); // fed by restrict
        let r0 = &prog.instructions[0];
        assert_eq!(r0.parent, Some((2, 0)));
        assert_eq!(r0.operands[0].source.as_deref(), Some("a"));
        assert_eq!(prog.base_relations, vec!["a", "b"]);
    }

    #[test]
    fn bare_scan_becomes_identity() {
        let db = db();
        let q = parse_query(&db, "(scan a)").unwrap();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(prog.instructions.len(), 1);
        assert!(is_unary(&prog.instructions[0].kernel, 0));
        assert_eq!(
            prog.instructions[0].operands[0].source.as_deref(),
            Some("a")
        );
        assert_eq!(prog.instructions[0].firing, Firing::PerPage);
    }

    #[test]
    fn updates_are_recorded() {
        let db = db();
        let q = parse_query(&db, "(append (scan a) b)").unwrap();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(
            prog.updates[0],
            Some(UpdateSpec::Append { target: "b".into() })
        );
        let q = parse_query(&db, "(delete a (> k 5))").unwrap();
        let prog = compile(&db, &[q]).unwrap();
        let s = db.get("a").unwrap().schema();
        assert_eq!(
            prog.updates[0],
            Some(UpdateSpec::Delete {
                target: "a".into(),
                predicate: Predicate::cmp_const(s, "k", CmpOp::Gt, Value::Int(5)).unwrap(),
            })
        );
        assert!(is_unary(&prog.instructions[0].kernel, 1));
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
        assert_eq!(prog.instructions[0].firing, Firing::Complete);
        let q = b
            .scan("a")
            .unwrap()
            .restrict_where("k", CmpOp::Gt, Value::Int(0))
            .unwrap()
            .finish();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(prog.instructions[0].firing, Firing::PerPage);
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
                Kernel::ProjectDedupFinal(v.clone()),
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
        assert!(is_unary(&span.kernel, 3));
        assert_eq!(span.op_name, "span");
        assert_eq!(span.parent, None);
        assert_eq!(span.id, 0);
        assert_eq!(prog.roots, vec![0]);
        assert_eq!(span.operands[0].source.as_deref(), Some("a"));
        // Output schema is the chain top's (just `v`).
        assert_eq!(span.output_schema.arity(), 1);
        assert_eq!(span.output_schema.attrs()[0].name, "v");
        // Span cost = sum of step costs.
        assert_eq!(span.kernel.tuple_ops(&[10]), 30);

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
            .filter(|i| i.op_name == "span")
            .collect();
        assert_eq!(spans.len(), 3);
        let join = prog
            .instructions
            .iter()
            .find(|i| matches!(i.kernel, Kernel::JoinPair(..)))
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
        let root = &prog.instructions[prog.roots[0]];
        assert!(is_unary(&root.kernel, 2));
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
        let span = &fused.instructions[0];
        assert!(is_unary(&span.kernel, 3));
        let a = db.get("a").unwrap();
        for page in a.pages() {
            let raw = span.kernel.run_unit_raw(&[page], &span.output_schema);
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

    /// [`Kernel::lower`] and [`Firing::of`] classify every operator the same
    /// way: the entry point a node's firing class names accepts the node's
    /// kernel, and the entry points of the other classes refuse it. (The
    /// unit entry also takes a pair kernel: an explicit (outer, inner) pair.)
    #[test]
    fn lowering_agrees_with_firing_for_every_operator() {
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
                let kernel = Kernel::lower(node);
                let s = &node.out_schema;
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
