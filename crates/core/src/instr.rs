//! The simulated machines' instructions: the cells of a per-query
//! [`Graph`].
//!
//! Paper §2.3: *"the instruction in each memory cell corresponds to a node
//! in the query tree"*. Both machines compile a batch with
//! [`Graph::per_query`]: an instruction is a cell, numbered per query in
//! node order, and the machines read its kernel, firing class and schema
//! off the plan node in place. Scans are not instructions: a scan child
//! makes its parent's operand a *source* operand whose page table is
//! complete from the start (the relation sits on mass storage).

use df_query::{CellSpec, Firing, Graph};
use df_relalg::Schema;

/// Index of an instruction: its cell's id in the batch's [`Graph`]. The
/// ring machine places instruction `i` on IC `i % ics`.
pub type InstrId = usize;

/// How operand pages of `cell` turn into work units. Never
/// [`Firing::Source`]: a bare-scan root is an identity over its own
/// relation and fires per page.
pub fn firing(cell: &CellSpec) -> Firing {
    match cell.node().firing {
        Firing::Source => Firing::PerPage,
        fires => fires,
    }
}

/// Where instruction `id`'s output pages go: its one consumer
/// `(instruction, operand)`, or `None` for its query's root (its pages are
/// the query result).
pub fn parent(graph: &Graph, id: InstrId) -> Option<(InstrId, usize)> {
    graph.consumers(id).first().copied()
}

/// Whether operand `slot` of `cell` is fed by a producer instruction
/// rather than loaded from a base relation.
pub fn is_intermediate(cell: &CellSpec, slot: usize) -> bool {
    let (_, source) = cell.operands().nth(slot).expect("a valid operand slot");
    source.is_none()
}

/// The base relations `graph` reads, in name order: the order both
/// machines load them onto mass storage in, which fixes their page ids.
pub fn base_relations(graph: &Graph) -> Vec<&str> {
    let mut names: Vec<&str> = graph.sources.iter().map(|s| s.relation.as_str()).collect();
    names.sort_unstable();
    names
}

/// The tuple schema of query `q`'s result: its root instruction's output.
pub fn root_schema(graph: &Graph, q: usize) -> &Schema {
    let mut roots = graph.cells.iter().filter(|c| c.results.contains(&q));
    &roots
        .next()
        .expect("every query has a root")
        .node()
        .out_schema
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_query::ops::{self, JoinSweep, SpanStep, UnaryKernel};
    use df_query::{
        oracle, parse_query, tuple_bucket, Kernel, Op, Plan, QueryTree, TransferMode, TreeBuilder,
    };
    use df_relalg::{
        Catalog, CmpOp, DataType, JoinCondition, Page, Predicate, Projection, Relation, Result,
        Schema, Tuple, TupleBuf, Value,
    };

    /// The paper's configuration: materializing transfers.
    fn compile(db: &Catalog, queries: &[QueryTree]) -> Result<Graph> {
        Graph::per_query(db, queries, TransferMode::default())
    }

    /// The base relation each operand of instruction `id` is loaded from.
    fn sources_of(prog: &Graph, id: InstrId) -> Vec<Option<&str>> {
        prog.cells[id]
            .operands()
            .map(|(_, source)| source)
            .collect()
    }

    /// The kernel instruction `id` runs.
    fn kernel(prog: &Graph, id: InstrId) -> &Kernel {
        &prog.cells[id].node().kernel
    }

    /// Each query's root instruction.
    fn roots(prog: &Graph) -> Vec<InstrId> {
        let root = |q| prog.cells.iter().position(|c| c.results == [q]).unwrap();
        (0..prog.reads.len()).map(root).collect()
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
        assert_eq!(prog.cells.len(), 3); // 2 restricts + 1 join
        assert_eq!(roots(&prog), vec![2]);
        assert!(matches!(kernel(&prog, 2), Kernel::JoinPair(_)));
        assert_eq!(prog.cells[2].node, 4); // scans 0/2, restricts 1/3, join 4
        assert_eq!(sources_of(&prog, 2), vec![None, None]); // fed by the restricts
        assert_eq!(parent(&prog, 0), Some((2, 0)));
        assert_eq!(sources_of(&prog, 0), vec![Some("a")]);
        assert_eq!(base_relations(&prog), vec!["a", "b"]);
    }

    #[test]
    fn bare_scan_becomes_identity() {
        let db = db();
        let q = parse_query(&db, "(scan a)").unwrap();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(prog.cells.len(), 1);
        assert!(is_unary(kernel(&prog, 0), 0));
        assert_eq!(sources_of(&prog, 0), vec![Some("a")]);
        assert_eq!(prog.cells[0].node().firing, Firing::Source);
        assert_eq!(firing(&prog.cells[0]), Firing::PerPage);
    }

    #[test]
    fn updates_are_recorded() {
        let db = db();
        // An update root is an instruction whose plan node names the write.
        let q = parse_query(&db, "(append (scan a) b)").unwrap();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(prog.cells[0].op_name(), "append");
        assert!(matches!(&prog.cells[0].node().op, Op::Append { target } if target == "b"));
        assert_eq!(sources_of(&prog, 0), vec![Some("a")]);
        assert_eq!(base_relations(&prog), vec!["a"]);
        // A delete reads its own target.
        let q = parse_query(&db, "(delete a (> k 5))").unwrap();
        let prog = compile(&db, &[q]).unwrap();
        let s = db.get("a").unwrap().schema();
        let predicate = Predicate::cmp_const(s, "k", CmpOp::Gt, Value::Int(5)).unwrap();
        assert!(matches!(
            &prog.cells[0].node().op,
            Op::Delete { target, predicate: p } if target == "a" && *p == predicate
        ));
        assert_eq!(sources_of(&prog, 0), vec![Some("a")]);
        assert_eq!(base_relations(&prog), vec!["a"]);
        assert!(is_unary(kernel(&prog, 0), 1));
    }

    #[test]
    fn multi_query_batches_share_nothing() {
        let db = db();
        let q1 = parse_query(&db, "(restrict (scan a) (> k 1))").unwrap();
        let q2 = parse_query(&db, "(restrict (scan a) (< k 9))").unwrap();
        let prog = compile(&db, &[q1, q2]).unwrap();
        assert_eq!(prog.cells.len(), 2);
        assert_eq!(roots(&prog), vec![0, 1]);
        assert_eq!(prog.cells[0].owner, 0);
        assert_eq!(prog.cells[1].owner, 1);
        assert_eq!(base_relations(&prog), vec!["a"]);
    }

    #[test]
    fn kernel_unit_classes() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let q = b.scan("a").unwrap().project(&["v"], true).unwrap().finish();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(firing(&prog.cells[0]), Firing::Complete);
        let q = b
            .scan("a")
            .unwrap()
            .restrict_where("k", CmpOp::Gt, Value::Int(0))
            .unwrap()
            .finish();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(firing(&prog.cells[0]), Firing::PerPage);
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
        let prog = Graph::per_query(&db, std::slice::from_ref(&q), TransferMode::Pipeline).unwrap();
        assert_eq!(prog.cells.len(), 1);
        assert!(is_unary(kernel(&prog, 0), 3));
        assert_eq!(prog.cells[0].op_name(), "span");
        assert_eq!(parent(&prog, 0), None);
        assert_eq!(roots(&prog), vec![0]);
        assert_eq!(sources_of(&prog, 0), vec![Some("a")]);
        // Output schema is the chain top's (just `v`).
        let out_schema = &prog.cells[0].node().out_schema;
        assert_eq!(out_schema.arity(), 1);
        assert_eq!(out_schema.attrs()[0].name, "v");
        // Span cost = sum of step costs.
        assert_eq!(kernel(&prog, 0).tuple_ops(&[10]), 30);

        // Materialize mode leaves the chain alone.
        let prog =
            Graph::per_query(&db, std::slice::from_ref(&q), TransferMode::Materialize).unwrap();
        assert_eq!(prog.cells.len(), 3);
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
        let prog = Graph::per_query(&db, std::slice::from_ref(&q), TransferMode::Pipeline).unwrap();
        // 2 leg spans + join + output span.
        assert_eq!(prog.cells.len(), 4);
        let ids = 0..prog.cells.len();
        let spans: Vec<InstrId> = (ids.clone())
            .filter(|&i| prog.cells[i].op_name() == "span")
            .collect();
        assert_eq!(spans.len(), 3);
        let join = (ids.clone())
            .find(|&i| matches!(kernel(&prog, i), Kernel::JoinPair(..)))
            .expect("join survives fusion");
        // The leg spans feed the join's two operand slots.
        let leg_parents: Vec<_> = (spans.iter())
            .filter_map(|&s| parent(&prog, s))
            .filter(|(p, _)| *p == join)
            .collect();
        assert_eq!(leg_parents.len(), 2);
        assert_ne!(leg_parents[0].1, leg_parents[1].1);
        // The output span is the root.
        assert!(is_unary(kernel(&prog, roots(&prog)[0]), 2));
        // Children precede parents.
        for i in ids {
            if let Some((p, _)) = parent(&prog, i) {
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
        let fused =
            Graph::per_query(&db, std::slice::from_ref(&q), TransferMode::Pipeline).unwrap();
        let span = kernel(&fused, 0);
        assert!(is_unary(span, 3));
        let a = db.get("a").unwrap();
        for page in a.pages() {
            let raw = span.run_unit_raw(&[page], &fused.cells[0].node().out_schema);
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
