//! End-to-end tests of the §4 ring machine against the uniprocessor oracle.

use df_query::{execute_readonly, parse_query, ExecParams};
use df_relalg::{Catalog, DataType, Relation, Schema, Tuple, Value};
use df_ring::{run_ring_queries, run_ring_queries_at, RingParams};
use df_sim::SimTime;

fn db() -> Catalog {
    let mut db = Catalog::new();
    let s = Schema::build()
        .attr("k", DataType::Int)
        .attr("v", DataType::Int)
        .finish()
        .unwrap();
    for (name, n) in [("a", 40i64), ("b", 24i64), ("c", 12i64)] {
        db.insert(
            Relation::from_tuples(
                name,
                s.clone(),
                16 + 16 * 4, // 4 tuples per page
                (0..n).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 6)])),
            )
            .unwrap(),
        )
        .unwrap();
    }
    db
}

fn small_params() -> RingParams {
    let mut p = RingParams::with_pools(3, 6);
    p.page_size = 16 + 16 * 4;
    p.ic_memory_pages = 8;
    p.cache.frames = 32;
    p
}

fn check_against_oracle(db: &Catalog, q: &str, params: &RingParams) -> df_ring::RingMetrics {
    let tree = parse_query(db, q).unwrap();
    let oracle = execute_readonly(db, &tree, &ExecParams::default()).unwrap();
    let out = run_ring_queries(db, &[tree], params).unwrap();
    assert!(
        out.results[0].same_contents(&oracle),
        "ring result ({} tuples) != oracle ({} tuples) for {q}",
        out.results[0].num_tuples(),
        oracle.num_tuples()
    );
    out.metrics
}

#[test]
fn restrict_matches_oracle() {
    let db = db();
    let m = check_against_oracle(&db, "(restrict (scan a) (> k 10))", &small_params());
    assert!(m.elapsed > SimTime::ZERO);
    assert!(m.instruction_packets > 0);
    assert!(m.result_packets > 0);
}

#[test]
fn join_matches_oracle_and_uses_broadcasts() {
    let db = db();
    let m = check_against_oracle(
        &db,
        "(join (restrict (scan a) (< k 30)) (scan b) (= v k))",
        &small_params(),
    );
    assert!(m.broadcasts > 0, "join protocol must broadcast inner pages");
    assert!(m.control_packets > 0);
}

#[test]
fn deep_chain_matches_oracle() {
    let db = db();
    check_against_oracle(
        &db,
        "(join (join (restrict (scan a) (< k 32)) (scan b) (= v k)) (scan c) (= r_v k))",
        &small_params(),
    );
}

#[test]
fn blocking_operators_match_oracle() {
    let db = db();
    for q in [
        "(project-distinct (scan a) (v))",
        "(union (restrict (scan a) (< k 10)) (restrict (scan a) (>= k 5)))",
        "(difference (scan a) (restrict (scan a) (< k 35)))",
    ] {
        check_against_oracle(&db, q, &small_params());
    }
}

#[test]
fn tiny_ip_memory_exercises_missed_page_catchup() {
    let db = db();
    let mut p = small_params();
    p.ip_memory_pages = 2; // outer + one inner: broadcasts often ignored
    p.ips = 4;
    let m = check_against_oracle(&db, "(join (scan a) (scan b) (= v k))", &p);
    assert!(
        m.pages_missed > 0,
        "2-page IPs must miss some broadcasts (got {} misses)",
        m.pages_missed
    );
}

#[test]
fn multi_query_batch_matches_oracle() {
    let db = db();
    let queries = [
        "(restrict (scan a) (> k 5))",
        "(join (scan b) (scan c) (= v k))",
        "(restrict (scan c) (< k 9))",
    ];
    let trees: Vec<_> = queries
        .iter()
        .map(|q| parse_query(&db, q).unwrap())
        .collect();
    let oracles: Vec<_> = trees
        .iter()
        .map(|t| execute_readonly(&db, t, &ExecParams::default()).unwrap())
        .collect();
    let out = run_ring_queries(&db, &trees, &small_params()).unwrap();
    for (i, (res, ora)) in out.results.iter().zip(&oracles).enumerate() {
        assert!(res.same_contents(ora), "query {i} mismatch");
    }
    assert_eq!(out.metrics.query_completions.len(), 3);
}

#[test]
fn concurrency_control_serializes_writers() {
    let mut db = db();
    let q1 = parse_query(&db, "(delete a (< k 10))").unwrap();
    let q2 = parse_query(&db, "(restrict (scan a) (> k 0))").unwrap();
    let params = small_params();
    let out = run_ring_queries(&db, &[q1, q2], &params).unwrap();
    // The reader conflicts with the deleter: one of them must wait.
    assert!(
        out.metrics.queries_delayed_by_cc >= 1,
        "expected CC to delay a conflicting query"
    );
    // Apply the delete and check the database.
    out.apply_updates(&mut db).unwrap();
    assert_eq!(db.get("a").unwrap().num_tuples(), 30);
}

#[test]
fn concurrency_control_admits_disjoint_queries_together() {
    let db = db();
    let q1 = parse_query(&db, "(restrict (scan a) (> k 0))").unwrap();
    let q2 = parse_query(&db, "(restrict (scan b) (> k 0))").unwrap();
    let out = run_ring_queries(&db, &[q1, q2], &small_params()).unwrap();
    assert_eq!(out.metrics.queries_delayed_by_cc, 0);
}

#[test]
fn deterministic_metrics() {
    let db = db();
    let q = "(join (scan a) (scan b) (= v k))";
    let m1 = check_against_oracle(&db, q, &small_params());
    let m2 = check_against_oracle(&db, q, &small_params());
    assert_eq!(m1.elapsed, m2.elapsed);
    assert_eq!(m1.outer_ring.bytes, m2.outer_ring.bytes);
    assert_eq!(m1.broadcasts, m2.broadcasts);
    assert_eq!(m1.instruction_packets, m2.instruction_packets);
}

#[test]
fn direct_routing_reduces_outer_ring_traffic() {
    let db = db();
    let q = "(join (restrict (scan a) (< k 36)) (restrict (scan b) (< k 20)) (= v k))";
    let mut with = small_params();
    with.direct_routing = true;
    let m_direct = check_against_oracle(&db, q, &with);
    let m_normal = check_against_oracle(&db, q, &small_params());
    assert!(m_direct.direct_routed_pages > 0, "direct routing unused");
    assert!(
        m_direct.outer_ring.bytes < m_normal.outer_ring.bytes,
        "direct {} !< normal {}",
        m_direct.outer_ring.bytes,
        m_normal.outer_ring.bytes
    );
}

#[test]
fn more_ips_do_not_slow_the_machine_down_much() {
    let db = db();
    let q = "(join (scan a) (scan b) (= v k))";
    let tree = parse_query(&db, q).unwrap();
    let mut last = None;
    for ips in [1usize, 2, 6] {
        let mut p = small_params();
        p.ips = ips;
        let out = run_ring_queries(&db, std::slice::from_ref(&tree), &p).unwrap();
        if let Some(prev) = last {
            // Allow mild protocol overhead, but more IPs must not blow up.
            assert!(
                out.metrics.elapsed.as_secs_f64() <= 1.5 * f64::max(prev, 1e-9),
                "{ips} IPs: {} vs previous {prev}",
                out.metrics.elapsed
            );
        }
        last = Some(out.metrics.elapsed.as_secs_f64());
    }
}

#[test]
fn staggered_arrivals_run_and_measure_response_times() {
    let db = db();
    let queries = [
        "(restrict (scan a) (> k 5))",
        "(join (scan b) (scan c) (= v k))",
        "(restrict (scan c) (< k 9))",
    ];
    let trees: Vec<_> = queries
        .iter()
        .map(|q| parse_query(&db, q).unwrap())
        .collect();
    let oracles: Vec<_> = trees
        .iter()
        .map(|t| execute_readonly(&db, t, &ExecParams::default()).unwrap())
        .collect();
    let arrivals = [
        SimTime::ZERO,
        SimTime::from_nanos(50_000_000),  // 50 ms
        SimTime::from_nanos(400_000_000), // 400 ms
    ];
    let out = run_ring_queries_at(&db, &trees, &arrivals, &small_params()).unwrap();
    for (i, (res, ora)) in out.results.iter().zip(&oracles).enumerate() {
        assert!(res.same_contents(ora), "query {i} mismatch under arrivals");
    }
    // No query can finish before it arrives; response = completion − arrival.
    let responses = out.metrics.response_times();
    assert_eq!(responses.len(), 3);
    for ((done, arrived), resp) in out
        .metrics
        .query_completions
        .iter()
        .zip(&arrivals)
        .zip(&responses)
    {
        assert!(done > arrived, "completed before arrival");
        assert_eq!(done.saturating_since(*arrived), *resp);
    }
    // The late query must not have started before its arrival: its
    // completion is strictly after 400 ms.
    assert!(out.metrics.query_completions[2] > arrivals[2]);
}

#[test]
fn writer_arriving_mid_read_waits_for_lock_release() {
    let mut db = db();
    // Long reader on `a` starts at t=0; a delete on `a` arrives early while
    // the reader is still running and must wait for admission.
    let reader = parse_query(&db, "(join (scan a) (scan a) (= v k))").unwrap();
    let deleter = parse_query(&db, "(delete a (< k 10))").unwrap();
    let arrivals = [SimTime::ZERO, SimTime::from_nanos(1_000_000)];
    let out =
        run_ring_queries_at(&db, &[reader.clone(), deleter], &arrivals, &small_params()).unwrap();
    assert!(
        out.metrics.query_completions[1] >= out.metrics.query_completions[0],
        "the writer must be serialized after the conflicting reader"
    );
    // The reader saw the pre-delete state.
    let oracle = execute_readonly(&db, &reader, &ExecParams::default()).unwrap();
    assert!(out.results[0].same_contents(&oracle));
    out.apply_updates(&mut db).unwrap();
    assert_eq!(db.get("a").unwrap().num_tuples(), 30);
}

#[test]
fn empty_results_complete_cleanly() {
    let db = db();
    let m = check_against_oracle(&db, "(restrict (scan a) (> k 999))", &small_params());
    assert!(m.elapsed > SimTime::ZERO);
}

#[test]
fn bare_scan_round_trips() {
    let db = db();
    check_against_oracle(&db, "(scan c)", &small_params());
}

/// Observability: the per-interval bandwidth series are fed from exactly
/// the sends that feed the `ByteCounter`s, so their totals must agree to
/// the byte — and an installed tracer's path counters must agree too.
#[test]
fn bandwidth_series_totals_equal_byte_counters_exactly() {
    use df_obs::{Path, Tracer};
    use std::sync::Arc;

    let db = db();
    let tracer = Arc::new(Tracer::new(Tracer::DEFAULT_CAPACITY));
    let mut params = small_params();
    params.trace = Some(Arc::clone(&tracer));
    let q = "(join (restrict (scan a) (< k 30)) (scan b) (= v k))";
    let tree = parse_query(&db, q).unwrap();
    let m = run_ring_queries(&db, &[tree], &params).unwrap().metrics;

    assert_eq!(m.inner_ring_series.total_bytes(), m.inner_ring.bytes);
    assert_eq!(m.outer_ring_series.total_bytes(), m.outer_ring.bytes);
    assert_eq!(
        m.disk_series.total_bytes(),
        m.disk_read.bytes + m.disk_write.bytes
    );
    assert_eq!(
        m.cache_series.total_bytes(),
        m.cache_in.bytes + m.cache_out.bytes
    );
    assert!(m.outer_ring_series.total_bytes() > 0, "join moved pages");

    // The tracer saw the same transfers, stamped with simulated time.
    let snap = tracer.snapshot();
    assert_eq!(snap.bytes(Path::InnerRing), m.inner_ring.bytes);
    assert_eq!(snap.bytes(Path::OuterRing), m.outer_ring.bytes);
    assert_eq!(
        snap.bytes(Path::DiskRead) + snap.bytes(Path::DiskWrite),
        m.disk_read.bytes + m.disk_write.bytes
    );
    assert_eq!(
        snap.bytes(Path::CacheIn) + snap.bytes(Path::CacheOut),
        m.cache_in.bytes + m.cache_out.bytes
    );
    // Simulated timestamps: every event's time is within the makespan.
    let horizon = m.elapsed.as_nanos();
    assert!(snap.events.iter().all(|e| e.t_ns <= horizon));
}
