//! Golden instruction order of both simulated machines.
//!
//! The ring machine places instruction `i` on IC `i % ics`, and both
//! machines break scheduling ties by instruction id, so the order in which
//! a batch's plan nodes are numbered is part of every simulated figure.
//! The pins and the Fig 0.05 golden see only aggregates; this test records
//! the order itself: for the ten benchmark queries at scale 0.05, in both
//! transfer modes, df-core's `Metrics::instructions` and df-ring's
//! `instruction_timeline`, one `id op query` line per instruction. The
//! expected text is `instruction_order.txt` next to this file. On a
//! mismatch the test writes what it produced to
//! `instruction_order.actual.txt` in cargo's test scratch directory.

use std::fmt::Write as _;

use df_bench::setup;
use df_core::{run_queries, AllocationStrategy, Granularity, MachineParams, TransferMode};
use df_ring::{run_ring_queries, RingParams};

fn record(text: &mut String, title: &str, rows: impl Iterator<Item = (String, usize)>) {
    writeln!(text, "# {title}").unwrap();
    for (id, (op, query)) in rows.enumerate() {
        writeln!(text, "{id} {op} q{query}").unwrap();
    }
}

#[test]
fn simulators_number_instructions_as_the_golden_file() {
    let s = setup(0.05);
    let mut text = String::new();
    for transfer in TransferMode::ALL {
        let params = MachineParams {
            transfer,
            ..MachineParams::default()
        };
        let core = run_queries(
            &s.db,
            &s.queries,
            &params,
            Granularity::Page,
            AllocationStrategy::default(),
        )
        .expect("df-core runs");
        let rows = (core.metrics.instructions.iter()).map(|i| (i.op_name.to_string(), i.query));
        record(&mut text, &format!("df-core {transfer}"), rows);

        let params = RingParams {
            transfer,
            ..RingParams::default()
        };
        let ring = run_ring_queries(&s.db, &s.queries, &params).expect("df-ring runs");
        let rows = (ring.metrics.instruction_timeline.iter()).map(|(op, q, ..)| (op.clone(), *q));
        record(&mut text, &format!("df-ring {transfer}"), rows);
    }
    let expected = include_str!("instruction_order.txt");
    if text != expected {
        let actual =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("instruction_order.actual.txt");
        std::fs::write(&actual, &text).expect("write the actual output");
        panic!(
            "instruction order differs from instruction_order.txt; got {}",
            actual.display()
        );
    }
}
