//! Multi-user execution with concurrency control (requirement 1, §4.0).
//!
//! Several users submit queries simultaneously — readers, plus writers that
//! append to and delete from shared relations. The MC admits compatible
//! queries together and holds conflicting ones back; the example shows the
//! admission decisions and the final database state.
//!
//! ```sh
//! cargo run --release -p df-bench --example multiuser
//! ```

use df_query::parse_query;
use df_ring::{run_ring_queries_at, RingParams};
use df_sim::SimTime;
use df_workload::{generate_database, DatabaseSpec};

fn main() {
    let mut db = generate_database(&DatabaseSpec::scaled(0.03));
    let before_r05 = db.get("r05").unwrap().num_tuples();
    let before_r07 = db.get("r07").unwrap().num_tuples();

    // Five users: two writers on r05/r07, three readers (one of which
    // conflicts with the delete on r05).
    let texts = [
        "(delete r05 (< val 300))",                       // writer on r05
        "(restrict (scan r05) (>= val 300))",             // reader on r05 (conflicts!)
        "(join (scan r01) (scan r02) (= fk key))",        // independent reader
        "(append (restrict (scan r07) (< val 100)) r07)", // writer on r07
        "(restrict (scan r09) (> val 800))",              // independent reader
    ];
    let queries: Vec<_> = texts
        .iter()
        .map(|t| parse_query(&db, t).expect("query parses"))
        .collect();

    // Users arrive over the first half second.
    let arrivals = [
        SimTime::ZERO,
        SimTime::from_nanos(20_000_000),
        SimTime::from_nanos(60_000_000),
        SimTime::from_nanos(150_000_000),
        SimTime::from_nanos(500_000_000),
    ];
    let params = RingParams::with_pools(4, 8);
    let mut out = run_ring_queries_at(&db, &queries, &arrivals, &params).expect("batch runs");

    println!("five users, staggered arrivals:");
    let responses = out.metrics.response_times();
    for (i, t) in texts.iter().enumerate() {
        println!(
            "  Q{} [arrived {}, response {}, {} tuples]: {}",
            i + 1,
            arrivals[i],
            responses[i],
            out.results[i].num_tuples(),
            t.split_whitespace().collect::<Vec<_>>().join(" ")
        );
    }
    println!(
        "\nconcurrency control delayed {} conflicting quer{} at admission",
        out.metrics.queries_delayed_by_cc,
        if out.metrics.queries_delayed_by_cc == 1 {
            "y"
        } else {
            "ies"
        }
    );

    out.apply_updates(&mut db).expect("updates apply");
    println!(
        "r05: {} -> {} tuples (delete), r07: {} -> {} tuples (append)",
        before_r05,
        db.get("r05").unwrap().num_tuples(),
        before_r07,
        db.get("r07").unwrap().num_tuples()
    );

    // Serializability check: the reader on r05 ran either entirely before
    // or entirely after the delete, never against a half-deleted relation.
    let reader_count = out.results[1].num_tuples();
    let full = db.get("r05").unwrap().num_tuples(); // = survivors (val >= 300)
    assert!(
        reader_count == full || reader_count >= full,
        "reader saw a non-serializable state"
    );
    println!("\nreader on r05 saw {reader_count} tuples — a serializable snapshot");
}
