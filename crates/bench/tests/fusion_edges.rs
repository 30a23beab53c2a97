//! Span-fusion edge cases on all three executors, against the sequential
//! oracle: the shapes where the one fusion pass (`df_query::Plan::fuse_spans`)
//! has to *stop* — a blocking operator in mid-chain, an update root, a
//! join fed twice by the same relation — plus the conservation identity
//! that fusion neither loses nor invents an operator.

use df_core::instr::{compile_with, Kernel, Program};
use df_core::{run_queries, AllocationStrategy, Granularity, MachineParams, TransferMode};
use df_host::{HostError, HostMetrics, HostParams};
use df_query::{execute, execute_readonly, parse_query, ExecParams, QueryTree};
use df_relalg::{Catalog, DataType, Relation, Schema, Tuple, Value};
use df_ring::RingParams;
use proptest::prelude::*;

/// `t` and `u`: same (k, v) schema, 60 and 24 rows over small domains, so
/// duplicates, join matches and set-op overlaps are all common; tiny pages,
/// so every operator sees many of them.
fn db() -> Catalog {
    let schema = Schema::build()
        .attr("k", DataType::Int)
        .attr("v", DataType::Int)
        .finish()
        .unwrap();
    let mut db = Catalog::new();
    for (name, rows, modulus) in [("t", 60i64, 7i64), ("u", 24, 5)] {
        let tuples =
            (0..rows).map(|i| Tuple::new(vec![Value::Int(i % 12), Value::Int((i * 3) % modulus)]));
        db.insert(Relation::from_tuples(name, schema.clone(), 16 + 16 * 5, tuples).unwrap())
            .unwrap();
    }
    db
}

fn core_params(transfer: TransferMode) -> MachineParams {
    let mut p = MachineParams::with_processors(3);
    p.cache.frames = 1024;
    p.transfer = transfer;
    p
}

fn ring_params(transfer: TransferMode) -> RingParams {
    let mut p = RingParams::with_pools(2, 3);
    p.cache.frames = 1024;
    p.transfer = transfer;
    p
}

fn on_core(db: &Catalog, q: &QueryTree, transfer: TransferMode) -> Relation {
    let out = run_queries(
        db,
        std::slice::from_ref(q),
        &core_params(transfer),
        Granularity::Page,
        AllocationStrategy::default(),
    )
    .expect("core runs");
    out.results.into_iter().next().unwrap()
}

fn on_ring(db: &Catalog, q: &QueryTree, transfer: TransferMode) -> Relation {
    let out = df_ring::run_ring_queries(db, std::slice::from_ref(q), &ring_params(transfer))
        .expect("ring runs");
    out.results.into_iter().next().unwrap()
}

fn on_host(db: &Catalog, q: &QueryTree, transfer: TransferMode) -> (Relation, HostMetrics) {
    let params = HostParams {
        transfer,
        deterministic: true,
        ..HostParams::with_workers(2)
    };
    df_host::run_host_query(db, q, &params).expect("host runs")
}

/// The simulators' program for `q` under `transfer`.
fn program(db: &Catalog, q: &QueryTree, transfer: TransferMode) -> Program {
    compile_with(db, std::slice::from_ref(q), transfer).unwrap()
}

/// Step counts of the program's span instructions, in instruction order.
fn span_lengths(program: &Program) -> Vec<usize> {
    program
        .instructions
        .iter()
        .filter_map(|i| match &i.kernel {
            Kernel::Unary(form) if form.steps() > 1 => Some(form.steps()),
            _ => None,
        })
        .collect()
}

/// Every executor, in both transfer modes, agrees with the oracle on a
/// read-only query; the fused host run needs strictly fewer units.
fn assert_all_executors_match_oracle(db: &Catalog, q: &QueryTree) {
    let want = execute_readonly(db, q, &ExecParams::default()).expect("oracle");
    let mut units = Vec::new();
    for transfer in TransferMode::ALL {
        assert!(
            on_core(db, q, transfer).same_contents(&want),
            "core {transfer}"
        );
        assert!(
            on_ring(db, q, transfer).same_contents(&want),
            "ring {transfer}"
        );
        let (host, metrics) = on_host(db, q, transfer);
        assert!(host.same_contents(&want), "host {transfer}");
        units.push(metrics.total_units());
    }
    assert!(
        units[1] < units[0],
        "fused host run must fire fewer units: {units:?}"
    );
}

#[test]
fn dedup_project_in_mid_chain_splits_it_into_two_spans() {
    let db = db();
    let q = parse_query(
        &db,
        "(project (restrict (project-distinct \
           (project (restrict (scan t) (> k 1)) (v k)) (v k)) (< k 9)) (v))",
    )
    .unwrap();
    let fused = program(&db, &q, TransferMode::Pipeline);
    // span(restrict, project) → project-distinct → span(restrict, project)
    assert_eq!(span_lengths(&fused), vec![2, 2]);
    assert_eq!(fused.instructions.len(), 3);
    assert!(matches!(
        fused.instructions[1].kernel,
        Kernel::ProjectDedupFinal(_)
    ));
    assert_eq!(
        program(&db, &q, TransferMode::Materialize)
            .instructions
            .len(),
        5
    );
    assert_all_executors_match_oracle(&db, &q);
}

#[test]
fn both_legs_of_a_self_join_fuse_independently() {
    let db = db();
    let q = parse_query(
        &db,
        "(join (project (restrict (scan t) (> k 2)) (k v)) \
               (restrict (project (restrict (scan t) (< k 10)) (v k)) (> v 0)) \
               (= k k))",
    )
    .unwrap();
    let fused = program(&db, &q, TransferMode::Pipeline);
    assert_eq!(span_lengths(&fused), vec![2, 3]);
    let join = &fused.instructions[fused.roots[0]];
    assert!(matches!(join.kernel, Kernel::JoinPair(..)));
    // Each span reads `t` itself and feeds its own port of the join.
    for (leg, port) in [(0, 0), (1, 1)] {
        let span = &fused.instructions[leg];
        assert_eq!(span.operands[0].source.as_deref(), Some("t"));
        assert_eq!(span.parent, Some((join.id, port)));
    }
    assert_eq!(fused.base_relations, vec!["t"]);
    assert_all_executors_match_oracle(&db, &q);
}

#[test]
fn chain_under_an_update_root_fuses_but_the_update_never_does() {
    let db = db();
    let append = parse_query(
        &db,
        "(append (project (restrict (scan t) (> k 6)) (k v)) u)",
    )
    .unwrap();
    let fused = program(&db, &append, TransferMode::Pipeline);
    assert_eq!(span_lengths(&fused), vec![2]);
    assert_eq!(fused.instructions.len(), 2);
    let root = &fused.instructions[fused.roots[0]];
    assert_eq!(root.op_name, "append");
    assert!(matches!(&root.kernel, Kernel::Unary(form) if form.steps() == 0));
    assert_eq!(fused.instructions[0].parent, Some((root.id, 0)));
    // A delete fires per page like a restrict, and still stands alone.
    let delete = parse_query(&db, "(delete t (> k 6))").unwrap();
    let program = program(&db, &delete, TransferMode::Pipeline);
    assert!(span_lengths(&program).is_empty());
    assert!(matches!(
        &program.instructions[0].kernel,
        Kernel::Unary(form) if form.steps() == 1
    ));

    for q in [&append, &delete] {
        let mut want_db = db.clone();
        let want = execute(&mut want_db, q, &ExecParams::default()).expect("oracle");
        for transfer in TransferMode::ALL {
            // df-core
            let mut got_db = db.clone();
            let out = run_queries(
                &got_db,
                std::slice::from_ref(q),
                &core_params(transfer),
                Granularity::Page,
                AllocationStrategy::default(),
            )
            .expect("core runs");
            assert!(out.results[0].same_contents(&want), "core {transfer}");
            out.apply_updates(&mut got_db).unwrap();
            // df-ring
            let mut ring_db = db.clone();
            let out = df_ring::run_ring_queries(
                &ring_db,
                std::slice::from_ref(q),
                &ring_params(transfer),
            )
            .expect("ring runs");
            assert!(out.results[0].same_contents(&want), "ring {transfer}");
            out.apply_updates(&mut ring_db).unwrap();
            for name in ["t", "u"] {
                let want = want_db.get(name).unwrap();
                assert!(got_db.get(name).unwrap().same_contents(want), "core {name}");
                assert!(
                    ring_db.get(name).unwrap().same_contents(want),
                    "ring {name}"
                );
            }
            // df-host is a read-only executor, fused chain or not.
            let params = HostParams {
                transfer,
                ..HostParams::with_workers(2)
            };
            let err = df_host::run_host_query(&db, q, &params).unwrap_err();
            assert!(
                matches!(err, HostError::ReadOnlyExecutor { .. }),
                "host {transfer}: {err}"
            );
        }
    }
}

/// A random read-only tree over `t`/`u` that keeps the (k, v) schema at
/// every node, so any two subtrees can feed a binary operator. Joins are
/// capped by a project back onto (k, v).
fn gen_tree(words: &mut impl Iterator<Item = u64>, depth: usize) -> String {
    let mut draw = |n: u64| words.next().expect("cycled") % n;
    if depth == 0 {
        return format!("(scan {})", ["t", "u"][draw(2) as usize]);
    }
    let (op, a, b) = (draw(8), draw(6) + 1, draw(8));
    let mut sub = || gen_tree(words, depth - 1);
    match op {
        0 => format!("(restrict {} (< v {a}))", sub()),
        1 => format!("(restrict {} (>= k {b}))", sub()),
        2 => format!("(project {} (k v))", sub()),
        3 => format!("(project-distinct {} (k v))", sub()),
        4 => format!("(project (join {} {} (= k k)) (k v))", sub(), sub()),
        5 => format!("(union {} {})", sub(), sub()),
        6 => format!("(difference {} {})", sub(), sub()),
        _ => format!("(restrict (project {} (k v)) (> v 0))", sub()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over random trees: the fused program's live instructions plus the
    /// steps folded into its spans are exactly the tree's non-scan nodes
    /// (the materialize program has one instruction per non-scan node),
    /// and all three executors still agree with the oracle.
    #[test]
    fn live_cells_plus_fused_steps_equal_non_scan_nodes(
        words in proptest::collection::vec(any::<u64>(), 8..40),
        depth in 1usize..5,
    ) {
        let db = db();
        let text = gen_tree(&mut words.iter().copied().cycle(), depth);
        let q = parse_query(&db, &text).expect("generated query parses");
        let non_scan = q.len() - q.count_op("scan");
        // A bare scan still compiles to one identity instruction.
        let cells = non_scan.max(1);

        let fused = program(&db, &q, TransferMode::Pipeline);
        let folded: usize = span_lengths(&fused).iter().map(|len| len - 1).sum();
        prop_assert_eq!(fused.instructions.len() + folded, cells, "{}", &text);
        prop_assert_eq!(
            program(&db, &q, TransferMode::Materialize).instructions.len(),
            cells
        );
        for (id, instr) in fused.instructions.iter().enumerate() {
            prop_assert_eq!(instr.id, id);
            prop_assert!(instr.parent.map_or(true, |(p, _)| p > id), "{}", &text);
        }

        let want = execute_readonly(&db, &q, &ExecParams::default()).expect("oracle");
        let transfer = TransferMode::Pipeline;
        prop_assert!(on_core(&db, &q, transfer).same_contents(&want), "core: {}", &text);
        prop_assert!(on_ring(&db, &q, transfer).same_contents(&want), "ring: {}", &text);
        let (host, metrics) = on_host(&db, &q, transfer);
        prop_assert!(host.same_contents(&want), "host: {}", &text);
        // The host counts one kernel span per logical operator per unit,
        // so spans exceed units only where a fused unit ran.
        prop_assert!(metrics.total_kernel_spans() >= metrics.total_units());
        if folded == 0 {
            prop_assert_eq!(metrics.total_kernel_spans(), metrics.total_units());
        }
    }
}
