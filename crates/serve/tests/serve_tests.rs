//! Integration tests for the serving layer: admission semantics (lock
//! serialization, fusion, backpressure, priority, fairness), the plan
//! cache, cross-batch in-flight fusion, multi-lane execution, structured
//! error propagation under fault injection, and the socket front-end
//! end to end.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use df_obs::{EventKind, Tracer};
use df_query::{execute_readonly, parse_query, render_tree, ExecParams};
use df_relalg::{Catalog, DataType, Relation, Schema, Tuple, Value};
use df_serve::engine::LaneHold;
use df_serve::proto::{HostErrorKind, Priority, QueryResult, Request, Response, ServeError};
use df_serve::{Engine, ServeClient, ServeConfig, Server};
use df_workload::{generate_database, DatabaseSpec};

fn small_db() -> Catalog {
    generate_database(&DatabaseSpec::scaled(0.01))
}

fn test_config() -> ServeConfig {
    let mut config = ServeConfig::default();
    config.host.workers = 4;
    config
}

/// Collects replies as `(client, response)` in arrival order.
#[derive(Clone, Default)]
struct Replies(Arc<Mutex<Vec<(usize, Response)>>>);

impl Replies {
    fn reply_for(&self, client: usize) -> df_serve::engine::Reply {
        let sink = Arc::clone(&self.0);
        Box::new(move |response| {
            sink.lock().expect("replies lock").push((client, response));
        })
    }

    fn take(&self) -> Vec<(usize, Response)> {
        std::mem::take(&mut self.0.lock().expect("replies lock"))
    }
}

/// The sequential-oracle tuple images for a read query, sorted (the
/// engine runs deterministic mode, which canonicalizes result order).
fn oracle_tuples(db: &Catalog, text: &str, page_size: usize) -> Vec<Vec<u8>> {
    let tree = parse_query(db, text).expect("oracle parse");
    let params = ExecParams { page_size };
    let rel = execute_readonly(db, &tree, &params).expect("oracle run");
    let mut tuples: Vec<Vec<u8>> = rel.tuple_refs().map(|t| t.raw().to_vec()).collect();
    tuples.sort();
    tuples
}

fn result(response: &Response) -> &QueryResult {
    match response {
        Response::Result(r) => r,
        other => panic!("expected a result, got {other:?}"),
    }
}

/// Keep expected injected worker and serve-lane panics out of the test
/// output.
fn quiet_worker_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quiet = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("df-host-worker") || n.starts_with("serve-lane"));
            if !quiet {
                default(info);
            }
        }));
    });
}

#[test]
fn identical_concurrent_reads_fuse_to_one_execution() {
    let db = small_db();
    let mut config = test_config();
    let trace = Arc::new(Tracer::new(Tracer::DEFAULT_CAPACITY));
    config.trace = Some(Arc::clone(&trace));
    let page_size = config.host.page_size;
    let text = "(restrict (scan r02) (< val 600))";
    let want = oracle_tuples(&db, text, page_size);

    let mut engine = Engine::new(db, config).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let clients: Vec<usize> = (0..6).map(|_| handle.register_client()).collect();
    for &c in &clients {
        handle.submit(
            c,
            c as u64,
            Priority::Normal,
            false,
            text.to_string(),
            replies.reply_for(c),
        );
    }
    assert!(engine.run_batch());
    handle.quiesce();

    // One execution, five fused followers.
    let stats = handle.stats();
    assert_eq!(stats.submitted.load(Ordering::Relaxed), 6);
    assert_eq!(stats.executed.load(Ordering::Relaxed), 1);
    assert_eq!(stats.fused.load(Ordering::Relaxed), 5);
    assert_eq!(stats.inflight_joins.load(Ordering::Relaxed), 0);

    // The `query_admit` trace event shows one admission carrying all six
    // waiters.
    let admits: Vec<_> = trace
        .snapshot()
        .events
        .iter()
        .filter(|e| e.kind == EventKind::QueryAdmit)
        .map(|e| e.a)
        .collect();
    assert_eq!(admits, vec![6]);

    // Every waiter gets the result, byte-identical to the oracle (and
    // therefore to each other), with the shared fan-out stamped on it.
    let got = replies.take();
    assert_eq!(got.len(), 6);
    for (client, response) in got {
        let r = result(&response);
        assert_eq!(r.id, client as u64, "responses correlate by request id");
        assert_eq!(r.fan_out, 6);
        let mut tuples = r.tuples.clone();
        tuples.sort();
        assert_eq!(tuples, want, "client {client} diverged from the oracle");
    }
}

#[test]
fn distinct_reads_do_not_fuse() {
    let db = small_db();
    let mut engine = Engine::new(db, test_config()).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let c = handle.register_client();
    for (i, text) in ["(restrict (scan r02) (< val 100))", "(scan r03)"]
        .iter()
        .enumerate()
    {
        handle.submit(
            c,
            i as u64,
            Priority::Normal,
            false,
            text.to_string(),
            replies.reply_for(c),
        );
    }
    assert!(engine.run_batch());
    handle.quiesce();
    assert_eq!(handle.stats().executed.load(Ordering::Relaxed), 2);
    assert_eq!(handle.stats().fused.load(Ordering::Relaxed), 0);
    assert_eq!(replies.take().len(), 2);
}

#[test]
fn conflicting_writes_serialize_without_lost_updates() {
    let db = small_db();
    let config = test_config();
    let page_size = config.host.page_size;
    let baseline = oracle_tuples(&db, "(scan r01)", page_size).len();

    let mut engine = Engine::new(db, config).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    // Two clients race appends into the same target relation; each
    // restriction selects exactly one tuple (keys are unique).
    let a = handle.register_client();
    let b = handle.register_client();
    let per_client = 4usize;
    for i in 0..per_client {
        for &c in &[a, b] {
            let key = c * per_client + i; // distinct keys per request
            handle.submit(
                c,
                (c * 100 + i) as u64,
                Priority::Normal,
                false,
                format!("(append (restrict (scan r00) (= key {key})) r01)"),
                replies.reply_for(c),
            );
        }
    }
    while handle.stats().executed.load(Ordering::Relaxed) < 2 * per_client as u64 {
        assert!(engine.run_batch());
    }
    // Writes are lane tasks now: wait for them to apply and fan out.
    handle.quiesce();
    let got = replies.take();
    assert_eq!(got.len(), 2 * per_client);
    for (client, response) in &got {
        let r = result(response);
        assert_eq!(r.tuples.len(), 1, "client {client}: append touched 1 tuple");
    }
    assert_eq!(
        handle.stats().writes_applied.load(Ordering::Relaxed),
        2 * per_client as u64
    );

    // No lost updates: the target grew by exactly one tuple per append.
    let check = handle.register_client();
    handle.submit(
        check,
        999,
        Priority::Normal,
        false,
        "(scan r01)".to_string(),
        replies.reply_for(check),
    );
    assert!(engine.run_batch());
    handle.quiesce();
    let got = replies.take();
    assert_eq!(result(&got[0].1).tuples.len(), baseline + 2 * per_client);

    // Submission order holds inside one batch too: a client's read sent
    // after its own write sees the write, even when another client's
    // read of the same relation sits earlier in the batch (regrouping by
    // lock compatibility used to fuse the two reads and answer both
    // before the write).
    for lanes in [1usize, 2, 4] {
        for write in [
            "(append (restrict (scan r00) (= key 3)) r01)",
            "(delete r01 (= key 3))",
        ] {
            let mut oracle_db = small_db();
            let before = oracle_tuples(&oracle_db, "(scan r01)", page_size);
            let tree = parse_query(&oracle_db, write).expect("oracle parse");
            df_query::execute(&mut oracle_db, &tree, &ExecParams::default()).expect("oracle write");
            let after = oracle_tuples(&oracle_db, "(scan r01)", page_size);
            assert_ne!(before.len(), after.len(), "`{write}` changes r01");

            let mut config = test_config();
            config.lanes = lanes;
            let mut engine = Engine::new(small_db(), config).expect("engine");
            let handle = engine.handle();
            let replies = Replies::default();
            let c0 = handle.register_client();
            let c1 = handle.register_client();
            for (c, id, text) in [(c0, 1, "(scan r01)"), (c1, 2, write), (c1, 3, "(scan r01)")] {
                handle.submit(
                    c,
                    id,
                    Priority::Normal,
                    false,
                    text.to_string(),
                    replies.reply_for(c),
                );
            }
            assert!(engine.run_batch());
            handle.quiesce();
            let got = replies.take();
            let ids: Vec<u64> = got.iter().map(|(_, r)| result(r).id).collect();
            assert_eq!(ids, vec![1, 2, 3], "lanes={lanes} `{write}`: reply order");
            let sorted = |r: &QueryResult| {
                let mut tuples = r.tuples.clone();
                tuples.sort();
                tuples
            };
            assert_eq!(
                sorted(result(&got[0].1)),
                before,
                "c0 read precedes the write"
            );
            let own_read = result(&got[2].1);
            assert_eq!(
                own_read.fan_out, 1,
                "lanes={lanes} `{write}`: not fused past it"
            );
            assert_eq!(
                sorted(own_read),
                after,
                "lanes={lanes} `{write}`: c1's read sees c1's write"
            );
        }

        // The same order for view traffic: read, write to the base, read
        // again — one client, one batch.
        let mut config = test_config();
        config.lanes = lanes;
        let mut engine = Engine::new(small_db(), config).expect("engine");
        let handle = engine.handle();
        let replies = Replies::default();
        let c = handle.register_client();
        handle.install_view(
            c,
            0,
            "v".to_string(),
            "(scan r01)".to_string(),
            replies.reply_for(c),
        );
        assert!(engine.run_batch());
        handle.quiesce();
        replies.take();
        handle.read_view(c, 1, "v".to_string(), replies.reply_for(c));
        handle.submit(
            c,
            2,
            Priority::Normal,
            false,
            "(append (restrict (scan r00) (= key 3)) r01)".to_string(),
            replies.reply_for(c),
        );
        handle.read_view(c, 3, "v".to_string(), replies.reply_for(c));
        assert!(engine.run_batch());
        handle.quiesce();
        let got = replies.take();
        let ids: Vec<u64> = got.iter().map(|(_, r)| result(r).id).collect();
        assert_eq!(ids, vec![1, 2, 3], "lanes={lanes}: view reply order");
        assert_eq!(result(&got[0].1).tuples.len(), baseline);
        assert_eq!(result(&got[2].1).tuples.len(), baseline + 1);
    }
}

#[test]
fn full_queue_rejects_with_busy_immediately() {
    let db = small_db();
    let mut config = test_config();
    config.queue_capacity = 2;
    let mut engine = Engine::new(db, config).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let c = handle.register_client();
    // Nothing drains the queue (the dispatcher is not running), so the
    // third submission must bounce without blocking.
    for i in 0..4u64 {
        handle.submit(
            c,
            i,
            Priority::Normal,
            false,
            "(scan r02)".to_string(),
            replies.reply_for(c),
        );
    }
    let got = replies.take();
    assert_eq!(got.len(), 2, "two submissions rejected synchronously");
    for (_, response) in &got {
        match response {
            Response::Error {
                error: ServeError::Busy { capacity },
                ..
            } => assert_eq!(*capacity, 2),
            other => panic!("expected Busy, got {other:?}"),
        }
    }
    assert_eq!(handle.stats().busy_rejected.load(Ordering::Relaxed), 2);
    assert_eq!(handle.stats().submitted.load(Ordering::Relaxed), 2);
    // The queued pair still executes normally.
    assert!(engine.run_batch());
    handle.quiesce();
    assert_eq!(replies.take().len(), 2);
}

#[test]
fn priority_classes_drain_high_to_low() {
    let db = small_db();
    let mut engine = Engine::new(db, test_config()).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    // One client per request so queue-front collection sees all three.
    let submit = |priority, id: u64, text: &str| {
        let c = handle.register_client();
        handle.submit(
            c,
            id,
            priority,
            false,
            text.to_string(),
            replies.reply_for(c),
        );
    };
    submit(Priority::Low, 0, "(restrict (scan r02) (< val 100))");
    submit(Priority::Normal, 1, "(restrict (scan r03) (< val 100))");
    submit(Priority::High, 2, "(restrict (scan r04) (< val 100))");
    assert!(engine.run_batch());
    handle.quiesce();
    let order: Vec<u64> = replies.take().iter().map(|(_, r)| result(r).id).collect();
    assert_eq!(order, vec![2, 1, 0], "high drains first, low last");
}

#[test]
fn round_robin_interleaves_clients_within_a_class() {
    let db = small_db();
    let mut engine = Engine::new(db, test_config()).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let a = handle.register_client();
    let b = handle.register_client();
    // Client A floods three requests before B's arrive; collection must
    // still alternate queue fronts, not drain A first.
    for (c, ids) in [(a, [0u64, 1, 2]), (b, [10, 11, 12])] {
        for id in ids {
            handle.submit(
                c,
                id,
                Priority::Normal,
                false,
                format!("(restrict (scan r{:02}) (< val {}))", 2 + c, 100 + id),
                replies.reply_for(c),
            );
        }
    }
    assert!(engine.run_batch());
    handle.quiesce();
    let order: Vec<u64> = replies.take().iter().map(|(_, r)| result(r).id).collect();
    assert_eq!(order, vec![0, 10, 1, 11, 2, 12]);
}

#[test]
fn injected_fault_fails_exactly_that_query_with_structured_error() {
    quiet_worker_panics();
    let db = small_db();
    let mut config = test_config();
    // Panic the very first dispatched unit: the batch's first read dies,
    // the other keeps running.
    config.host.fault.panic_on_unit = Some(0);
    let page_size = config.host.page_size;
    let queries = [
        "(restrict (scan r02) (< val 400))",
        "(restrict (scan r03) (< val 700))",
    ];
    let oracles: Vec<_> = queries
        .iter()
        .map(|q| oracle_tuples(&db, q, page_size))
        .collect();

    let mut engine = Engine::new(db, config).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    for (i, text) in queries.iter().enumerate() {
        let c = handle.register_client();
        handle.submit(
            c,
            i as u64,
            Priority::Normal,
            false,
            text.to_string(),
            replies.reply_for(c),
        );
    }
    assert!(engine.run_batch());
    handle.quiesce();
    let got = replies.take();
    assert_eq!(got.len(), 2, "every client hears back");
    let mut failed = 0;
    for (_, response) in &got {
        match response {
            Response::Error {
                id,
                error: ServeError::Host { kind, detail },
            } => {
                failed += 1;
                assert_eq!(*kind, HostErrorKind::UnitPanicked);
                assert!(detail.contains("panicked"), "detail: {detail}");
                assert!(*id < 2);
            }
            Response::Result(r) => {
                let mut tuples = r.tuples.clone();
                tuples.sort();
                assert_eq!(
                    tuples, oracles[r.id as usize],
                    "survivor diverged from the oracle"
                );
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(failed, 1, "exactly one query dies");
    assert_eq!(handle.stats().failed.load(Ordering::Relaxed), 1);
}

#[test]
fn parse_errors_answer_only_the_offender() {
    let db = small_db();
    let mut engine = Engine::new(db, test_config()).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let a = handle.register_client();
    let b = handle.register_client();
    handle.submit(
        a,
        0,
        Priority::Normal,
        false,
        "(restrict (scan r99) (< val 1))".to_string(),
        replies.reply_for(a),
    );
    handle.submit(
        b,
        1,
        Priority::Normal,
        false,
        "(scan r02)".to_string(),
        replies.reply_for(b),
    );
    assert!(engine.run_batch());
    handle.quiesce();
    let got = replies.take();
    assert_eq!(got.len(), 2);
    for (client, response) in got {
        if client == a {
            assert!(
                matches!(
                    response,
                    Response::Error {
                        id: 0,
                        error: ServeError::Parse { .. }
                    }
                ),
                "bad query gets a parse error, got {response:?}"
            );
        } else {
            assert_eq!(result(&response).fan_out, 1, "good query still runs");
        }
    }
}

#[test]
fn cross_batch_inflight_fusion_is_byte_identical() {
    let db = small_db();
    let mut config = test_config();
    let trace = Arc::new(Tracer::new(Tracer::DEFAULT_CAPACITY));
    config.trace = Some(Arc::clone(&trace));
    let hold = Arc::new(LaneHold::default());
    config.lane_hold = Some(Arc::clone(&hold));
    let page_size = config.host.page_size;
    let text = "(restrict (scan r04) (< val 800))";
    let want = oracle_tuples(&db, text, page_size);

    let mut engine = Engine::new(db, config).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let a = handle.register_client();
    let b = handle.register_client();

    // Batch 1: the read dispatches to a lane, which is parked by the
    // hold — the execution stays in flight.
    hold.hold();
    handle.submit(
        a,
        7,
        Priority::Normal,
        false,
        text.to_string(),
        replies.reply_for(a),
    );
    assert!(engine.run_batch());

    // Batch 2: the twin arrives while batch 1 executes; it must join the
    // in-flight execution instead of scheduling a second one.
    handle.submit(
        b,
        8,
        Priority::Normal,
        false,
        text.to_string(),
        replies.reply_for(b),
    );
    assert!(engine.run_batch());
    hold.release();
    handle.quiesce();

    let stats = handle.stats();
    assert_eq!(stats.reads.load(Ordering::Relaxed), 2);
    assert_eq!(stats.read_execs.load(Ordering::Relaxed), 1, "one execution");
    assert_eq!(stats.fused.load(Ordering::Relaxed), 0, "not same-batch");
    assert_eq!(stats.inflight_joins.load(Ordering::Relaxed), 1);
    // Conservation: every read is executed, fused, or joined — once.
    assert_eq!(
        stats.reads.load(Ordering::Relaxed),
        stats.read_execs.load(Ordering::Relaxed)
            + stats.fused.load(Ordering::Relaxed)
            + stats.inflight_joins.load(Ordering::Relaxed)
    );

    // Both the original admit and the late join are traced against the
    // same execution id.
    let admits: Vec<(u64, u64)> = trace
        .snapshot()
        .events
        .iter()
        .filter(|e| e.kind == EventKind::QueryAdmit)
        .map(|e| (e.a, e.b))
        .collect();
    assert_eq!(admits, vec![(1, 0), (1, 0)], "admit then join, same exec");

    // The late joiner's bytes equal the first waiter's and the oracle's,
    // and the fan-out covers both.
    let got = replies.take();
    assert_eq!(got.len(), 2);
    let first = result(&got[0].1);
    let second = result(&got[1].1);
    assert_eq!(first.fan_out, 2);
    assert_eq!(second.fan_out, 2);
    assert_eq!(first.tuples, second.tuples, "fan-out is byte-identical");
    let mut tuples = second.tuples.clone();
    tuples.sort();
    assert_eq!(tuples, want, "late joiner matches the oracle");
}

#[test]
fn plan_cache_hits_skip_parsing_and_writes_invalidate() {
    let db = small_db();
    let config = test_config();
    let page_size = config.host.page_size;
    let baseline = oracle_tuples(&db, "(scan r01)", page_size).len();

    let mut engine = Engine::new(db, config).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let c = handle.register_client();
    let read = "(scan r01)";
    let mut run_one = |text: &str| {
        handle.submit(
            c,
            0,
            Priority::Normal,
            false,
            text.to_string(),
            replies.reply_for(c),
        );
        assert!(engine.run_batch());
        handle.quiesce();
        replies.take()
    };

    // Cold read parses; an immediate repeat (with different whitespace)
    // hits the cache and does not parse again.
    run_one(read);
    run_one("  (scan\n r01)  ");
    let stats = handle.stats();
    assert_eq!(stats.plan_cache_hits.load(Ordering::Relaxed), 1);
    assert_eq!(stats.plan_cache_misses.load(Ordering::Relaxed), 1);
    assert_eq!(
        stats.parses.load(Ordering::Relaxed),
        stats.plan_cache_misses.load(Ordering::Relaxed),
        "exactly one parse per cache miss, never two"
    );

    // A write invalidates the cached plan; the next read re-plans
    // against the post-write catalog and sees the appended row.
    run_one("(append (restrict (scan r00) (= key 3)) r01)");
    let got = run_one(read);
    assert_eq!(result(&got[0].1).tuples.len(), baseline + 1);
    assert_eq!(
        stats.plan_cache_hits.load(Ordering::Relaxed),
        1,
        "post-write read is a miss: the cache was invalidated"
    );
    assert_eq!(stats.plan_cache_misses.load(Ordering::Relaxed), 3);
    assert_eq!(
        stats.parses.load(Ordering::Relaxed),
        stats.plan_cache_misses.load(Ordering::Relaxed)
    );
}

/// Two string constants that differ only in inner whitespace are two
/// queries: the plan-cache key keeps a `"…"` literal verbatim, so each
/// optimizing read is answered with its own tuple.
#[test]
fn string_literals_differing_in_whitespace_get_their_own_plans() {
    let config = test_config();
    let page_size = config.host.page_size;
    let schema = Schema::build()
        .attr("k", DataType::Int)
        .attr("pad", DataType::Str(8))
        .finish()
        .expect("schema");
    let rows =
        [(1, "a b"), (2, "a  b")].map(|(k, pad)| Tuple::new(vec![Value::Int(k), Value::str(pad)]));
    let mut db = Catalog::new();
    db.insert(Relation::from_tuples("t", schema, page_size, rows).expect("relation"))
        .expect("insert");
    let texts = [
        "(restrict (scan t) (= pad \"a b\"))",
        "(restrict (scan t) (= pad \"a  b\"))",
    ];
    let wants = texts.map(|text| oracle_tuples(&db, text, page_size));
    assert_ne!(
        wants[0], wants[1],
        "the two constants select different tuples"
    );

    let mut engine = Engine::new(db, config).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let c = handle.register_client();
    for (text, want) in texts.iter().zip(&wants) {
        handle.submit(
            c,
            0,
            Priority::Normal,
            true,
            text.to_string(),
            replies.reply_for(c),
        );
        assert!(engine.run_batch());
        handle.quiesce();
        let got = replies.take();
        assert_eq!(&result(&got[0].1).tuples, want, "{text} got another's plan");
    }
    assert_eq!(handle.stats().plan_cache_misses.load(Ordering::Relaxed), 2);
}

/// Two reads whose trees differ only past the column where
/// `render_tree` cuts a restrict's label are two queries: fused in one
/// batch, each still gets its own answer.
#[test]
fn reads_differing_past_the_rendered_label_are_not_fused() {
    let db = small_db();
    let config = test_config();
    let page_size = config.host.page_size;
    let texts = ["20", "200"].map(|cut| {
        format!(
            "(restrict (scan r00) (and (> val 10) (and (< val 500) (and (> key 3) \
             (and (> val 11) (and (> val 12) (< key {cut})))))))"
        )
    });
    let trees = texts
        .clone()
        .map(|text| parse_query(&db, &text).expect("parse"));
    assert_ne!(trees[0], trees[1]);
    assert_eq!(
        render_tree(&trees[0]),
        render_tree(&trees[1]),
        "the renderings collide"
    );
    let wants = texts
        .clone()
        .map(|text| oracle_tuples(&db, &text, page_size));
    assert_ne!(wants[0], wants[1], "the two reads select different tuples");

    let mut engine = Engine::new(db, config).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let c = handle.register_client();
    for (id, text) in texts.iter().enumerate() {
        handle.submit(
            c,
            id as u64,
            Priority::Normal,
            false,
            text.clone(),
            replies.reply_for(c),
        );
    }
    assert!(engine.run_batch());
    handle.quiesce();
    assert_eq!(handle.stats().fused.load(Ordering::Relaxed), 0);
    let got = replies.take();
    assert_eq!(got.len(), 2);
    for (_, response) in got {
        let r = result(&response);
        let mut tuples = r.tuples.clone();
        tuples.sort();
        assert_eq!(
            tuples, wants[r.id as usize],
            "read {} got another's answer",
            r.id
        );
    }
}

/// A restrict by a constant at the end of `i64`'s range, under a join,
/// makes the optimizer estimate its selectivity against the relation's
/// value span; the optimizing read is answered like any other.
#[test]
fn optimizing_a_restrict_at_the_ends_of_i64_gets_an_answer() {
    let db = small_db();
    let config = test_config();
    let page_size = config.host.page_size;
    let texts = [i64::MIN, i64::MAX]
        .map(|c| format!("(join (restrict (scan r00) (< val {c})) (scan r01) (= key key))"));
    let wants = texts
        .clone()
        .map(|text| oracle_tuples(&db, &text, page_size));
    let mut engine = Engine::new(db, config).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let c = handle.register_client();
    for (text, want) in texts.iter().zip(&wants) {
        handle.submit(
            c,
            0,
            Priority::Normal,
            true,
            text.clone(),
            replies.reply_for(c),
        );
        assert!(engine.run_batch());
        handle.quiesce();
        let got = replies.take();
        let mut tuples = result(&got[0].1).tuples.clone();
        tuples.sort();
        assert_eq!(&tuples, want, "{text}");
    }
}

/// Optimizer statistics are relation-scoped and folded across writes: a
/// read gathers each relation it names once; a write's first apply to a
/// held relation gathers it once more, keeping its columns, and every
/// later write folds in without a scan, so reads after writes gather
/// nothing. Unoptimized reads never gather, but an unoptimized write
/// still keeps a held entry current.
#[test]
fn writes_fold_into_held_stats_without_regathering() {
    let mut engine = Engine::new(small_db(), test_config()).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let c = handle.register_client();
    let mut run_one = |optimize: bool, text: &str| {
        handle.submit(
            c,
            0,
            Priority::Normal,
            optimize,
            text.to_string(),
            replies.reply_for(c),
        );
        assert!(engine.run_batch());
        handle.quiesce();
        let got = replies.take();
        result(&got[0].1);
    };
    let stats = handle.stats();
    let gathers = || stats.stats_gathers.load(Ordering::Relaxed);

    run_one(true, "(scan r01)");
    run_one(true, "(scan r05)");
    assert_eq!(gathers(), 2, "one gather per relation first named");
    // The optimizing write names r00 and r01; r01 is held.
    run_one(true, "(append (restrict (scan r00) (= key 3)) r01)");
    assert_eq!(
        gathers(),
        4,
        "the write gathers its source, and its target once more on its first apply"
    );
    run_one(true, "(restrict (scan r01) (< val 500))");
    run_one(true, "(delete r01 (= key 3))");
    run_one(true, "(restrict (scan r01) (< val 600))");
    assert_eq!(gathers(), 4, "later writes to r01 fold: nothing to gather");
    run_one(true, "(restrict (scan r05) (< val 500))");
    assert_eq!(gathers(), 4, "r05 was never written: nothing to gather");

    run_one(false, "(restrict (scan r02) (< val 10))");
    assert_eq!(gathers(), 4, "unoptimized reads never gather");
    run_one(false, "(append (restrict (scan r00) (= key 4)) r05)");
    assert_eq!(gathers(), 5, "r05's first write gathers it once more");
    run_one(false, "(append (restrict (scan r00) (= key 5)) r05)");
    run_one(true, "(restrict (scan r05) (< val 600))");
    assert_eq!(gathers(), 5, "r05's later write folded");
    assert_eq!(
        stats.parses.load(Ordering::Relaxed),
        stats.plan_cache_misses.load(Ordering::Relaxed)
    );
}

#[test]
fn multi_lane_execution_matches_sequential_oracle() {
    let queries: Vec<String> = (0..10)
        .map(|i| {
            format!(
                "(restrict (scan r{:02}) (< val {}))",
                2 + i % 5,
                300 + 50 * i
            )
        })
        .collect();
    let db = small_db();
    let page_size = test_config().host.page_size;
    let oracles: Vec<_> = queries
        .iter()
        .map(|q| oracle_tuples(&db, q, page_size))
        .collect();

    for lanes in [1, 2, 4] {
        let mut config = test_config();
        config.lanes = lanes;
        // Small batches force several concurrent lane tasks.
        config.batch_max = 3;
        let mut engine = Engine::new(small_db(), config).expect("engine");
        let handle = engine.handle();
        let replies = Replies::default();
        for (i, text) in queries.iter().enumerate() {
            let c = handle.register_client();
            handle.submit(
                c,
                i as u64,
                Priority::Normal,
                false,
                text.clone(),
                replies.reply_for(c),
            );
        }
        let mut batches = 0;
        while replies.0.lock().expect("replies lock").len() < queries.len() {
            assert!(engine.run_batch());
            batches += 1;
            assert!(
                batches <= queries.len(),
                "dispatcher stopped making progress"
            );
            handle.quiesce();
        }
        assert!(batches >= 4, "batch_max=3 splits ten requests");
        for (_, response) in replies.take() {
            let r = result(&response);
            let mut tuples = r.tuples.clone();
            tuples.sort();
            assert_eq!(
                tuples, oracles[r.id as usize],
                "lanes={lanes}: query {} diverged from the oracle",
                r.id
            );
        }
        // Per-lane counters cover every distinct execution.
        let stats = handle.stats();
        let lane_total: u64 = stats
            .lane_execs
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .sum();
        assert_eq!(stats.lane_execs.len(), lanes);
        assert_eq!(lane_total, stats.read_execs.load(Ordering::Relaxed));
    }
}

#[test]
fn priorities_drain_in_order_with_many_lanes() {
    let mut config = test_config();
    config.lanes = 4;
    let mut engine = Engine::new(small_db(), config).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let priorities = [
        Priority::Low,
        Priority::High,
        Priority::Normal,
        Priority::High,
        Priority::Low,
        Priority::Normal,
    ];
    for (i, &priority) in priorities.iter().enumerate() {
        let c = handle.register_client();
        handle.submit(
            c,
            i as u64,
            priority,
            false,
            format!("(restrict (scan r{:02}) (< val 100))", 2 + i),
            replies.reply_for(c),
        );
    }
    // One batch → one compatible read group → one in-order fan-out, so
    // reply order equals collection order even with four lanes racing.
    assert!(engine.run_batch());
    handle.quiesce();
    let order: Vec<u64> = replies.take().iter().map(|(_, r)| result(r).id).collect();
    assert_eq!(order, vec![1, 3, 5, 2, 4, 0], "high, then normal, then low");
}

#[test]
fn socket_round_trip_with_concurrent_clients() {
    let db = small_db();
    let config = test_config();
    let page_size = config.host.page_size;
    let text = "(restrict (scan r05) (< val 500))";
    let want = oracle_tuples(&db, text, page_size);
    let engine = Engine::new(db, config).expect("engine");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = Server::start(listener, engine).expect("server");
    let addr = server.local_addr();

    let results: Vec<Vec<Vec<u8>>> = std::thread::scope(|s| {
        (0..8)
            .map(|_| {
                s.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    match client.query(text, Priority::Normal, false).expect("query") {
                        Response::Result(r) => {
                            let mut tuples = r.tuples;
                            tuples.sort();
                            tuples
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for tuples in &results {
        assert_eq!(tuples, &want, "socket results match the oracle");
    }

    let mut control = ServeClient::connect(addr).expect("connect");
    assert!(matches!(
        control.request(&Request::Ping).expect("ping"),
        Response::Ok
    ));
    match control.request(&Request::Relations).expect("relations") {
        Response::Relations(rows) => assert_eq!(rows.len(), 15),
        other => panic!("unexpected {other:?}"),
    }
    match control.request(&Request::Stats).expect("stats") {
        Response::Stats(rows) => {
            let get = |k: &str| {
                rows.iter()
                    .find(|(name, _)| name == k)
                    .map(|(_, v)| *v)
                    .expect("counter present")
            };
            assert_eq!(get("submitted"), 8);
            assert!(get("bytes_in") > 0 && get("bytes_out") > 0);
            // The new counters ride the same open key-value stats frame.
            assert_eq!(get("lanes"), 2);
            assert_eq!(get("reads"), 8);
            assert_eq!(
                get("reads"),
                get("read_execs") + get("fused") + get("inflight_joins"),
                "read conservation identity over the wire"
            );
            assert_eq!(get("parses"), get("plan_cache_misses"));
        }
        other => panic!("unexpected {other:?}"),
    }

    // Pipelining: one connection sends a write and then a read of the
    // written relation without waiting in between, while a second
    // connection keeps the same read in flight. Each pair is answered in
    // the order sent, and the read always sees the write before it.
    let scan = "(scan r01)";
    let base = match control.query(scan, Priority::Normal, false).expect("scan") {
        Response::Result(r) => r.tuples.len(),
        other => panic!("unexpected {other:?}"),
    };
    // Raised when the pipelining loop ends — by a failed assertion too,
    // so the looper stops and the scope can report it.
    struct Raise<'a>(&'a AtomicBool);
    impl Drop for Raise<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let looper = s.spawn(|| {
            let mut client = ServeClient::connect(addr).expect("connect");
            let mut rounds = 0u32;
            while !done.load(Ordering::SeqCst) {
                let response = client.query(scan, Priority::Normal, false).expect("scan");
                assert!(result(&response).tuples.len() >= base);
                rounds += 1;
            }
            rounds
        });
        let stop = Raise(&done);
        for key in 0..48usize {
            let text = format!("(append (restrict (scan r00) (= key {key})) r01)");
            let append = control.query_request(&text, Priority::Normal, false);
            let read = control.query_request(scan, Priority::Normal, false);
            control.send(&append).expect("send append");
            control.send(&read).expect("send scan");
            let first = control.recv().expect("first reply");
            let second = control.recv().expect("second reply");
            let (appended, seen) = (result(&first), result(&second));
            let id_of = |request: &Request| match request {
                Request::Query { id, .. } => *id,
                other => panic!("not a query: {other:?}"),
            };
            assert_eq!(appended.id, id_of(&append), "write answered first");
            assert_eq!(seen.id, id_of(&read), "read answered second");
            assert_eq!(appended.tuples.len(), 1);
            assert_eq!(seen.tuples.len(), base + key + 1, "append {key} is visible");
            assert!(seen.tuples.contains(&appended.tuples[0]));
        }
        drop(stop);
        assert!(looper.join().expect("looper thread") > 0);
    });

    // Clean shutdown: Ok now, ShuttingDown for late queries, and both
    // service threads exit.
    assert!(matches!(
        control.request(&Request::Shutdown).expect("shutdown"),
        Response::Ok
    ));
    match control
        .query("(scan r02)", Priority::Normal, false)
        .expect("late query")
    {
        Response::Error {
            error: ServeError::ShuttingDown,
            ..
        } => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    server.join();
}

#[test]
fn closed_client_queue_is_dropped() {
    let db = small_db();
    let mut engine = Engine::new(db, test_config()).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let a = handle.register_client();
    let b = handle.register_client();
    handle.submit(
        a,
        0,
        Priority::Normal,
        false,
        "(scan r02)".to_string(),
        replies.reply_for(a),
    );
    handle.submit(
        b,
        1,
        Priority::Normal,
        false,
        "(scan r03)".to_string(),
        replies.reply_for(b),
    );
    handle.close_client(a);
    assert!(engine.run_batch());
    handle.quiesce();
    let got = replies.take();
    // Only the live client's query ran; the disconnected one's queued
    // request was discarded, and new submissions bounce.
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0, b);
    handle.submit(
        a,
        2,
        Priority::Normal,
        false,
        "(scan r02)".to_string(),
        replies.reply_for(a),
    );
    assert!(matches!(
        replies.take()[0].1,
        Response::Error {
            error: ServeError::ShuttingDown,
            ..
        }
    ));
}

#[test]
fn relation_scoped_invalidation_spares_unrelated_plans() {
    let db = small_db();
    let config = test_config();
    let page_size = config.host.page_size;
    let r01_baseline = oracle_tuples(&db, "(scan r01)", page_size).len();

    let mut engine = Engine::new(db, config).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let c = handle.register_client();
    let mut run_one = |text: &str| {
        handle.submit(
            c,
            0,
            Priority::Normal,
            false,
            text.to_string(),
            replies.reply_for(c),
        );
        assert!(engine.run_batch());
        handle.quiesce();
        replies.take()
    };
    let stats = handle.stats();
    let misses = || stats.plan_cache_misses.load(Ordering::Relaxed);
    let hits = || stats.plan_cache_hits.load(Ordering::Relaxed);
    let evicted = || stats.cache_evictions_partial.load(Ordering::Relaxed);

    let join = "(join (scan r00) (scan r02) (= key key))";
    run_one("(scan r01)");
    run_one("(scan r02)");
    run_one(join);
    assert_eq!((misses(), hits()), (3, 0), "three cold plans");

    // A write to r01 evicts exactly the plans whose read-set includes
    // r01: the r01 scan and the write plan itself (an append's read-set
    // includes its target).
    run_one("(append (restrict (scan r00) (= key 0)) r01)");
    assert_eq!(misses(), 4, "the write itself parses once");
    assert_eq!(evicted(), 2, "r01 scan + the write plan");

    // Differential: plans reading only r02 (and the r00⋈r02 join)
    // survive the r01 write...
    run_one("(scan r02)");
    run_one(join);
    assert_eq!(hits(), 2, "unrelated plans stayed cached");
    // ...while the r01 reader re-plans against the post-write catalog.
    let got = run_one("(scan r01)");
    assert_eq!(result(&got[0].1).tuples.len(), r01_baseline + 1);
    assert_eq!(misses(), 5, "the evicted r01 plan re-parses");

    // A write to a join *input* (r02) evicts plans over either side of
    // the join: the r02 scan and the join itself.
    run_one("(append (restrict (scan r00) (= key 1)) r02)");
    assert_eq!(
        evicted(),
        5,
        "r02 scan + the join over it + the write plan itself"
    );
    run_one("(scan r01)");
    assert_eq!(hits(), 3, "the r01 plan survives the r02 write");
    run_one("(scan r02)");
    run_one(join);
    assert_eq!(misses(), 8, "both r02 readers re-parse");

    // The per-relation invariant holds throughout.
    assert_eq!(stats.parses.load(Ordering::Relaxed), misses());
}

#[test]
fn disjoint_writes_overlap_and_match_sequential_oracle() {
    // Five clients append to five distinct targets (r10..r14) from a
    // shared read source; the per-relation gate lets them all overlap.
    let writers = 5usize;
    let per_writer = 3usize;
    let write_text = |w: usize, i: usize| {
        format!(
            "(append (restrict (scan r00) (= key {})) r{})",
            w * per_writer + i,
            10 + w
        )
    };

    // Sequential oracle: the same writes applied one at a time.
    let mut oracle_db = small_db();
    for i in 0..per_writer {
        for w in 0..writers {
            let tree = parse_query(&oracle_db, &write_text(w, i)).expect("oracle parse");
            df_query::execute(&mut oracle_db, &tree, &ExecParams::default()).expect("oracle write");
        }
    }

    for lanes in [1usize, 2, 4] {
        let mut config = test_config();
        config.lanes = lanes;
        let hold = Arc::new(LaneHold::default());
        config.lane_hold = Some(Arc::clone(&hold));
        let page_size = config.host.page_size;
        let mut engine = Engine::new(small_db(), config).expect("engine");
        let handle = engine.handle();
        let replies = Replies::default();
        let clients: Vec<usize> = (0..writers).map(|_| handle.register_client()).collect();

        // Round 0 rides a lane hold: all five disjoint writes are
        // dispatched while the previous ones are still parked in flight,
        // so the overlap counter fires deterministically. (Only one
        // write per target — a second write to a *held* target would
        // rightly block the dispatcher at the gate.)
        hold.hold();
        for (w, &c) in clients.iter().enumerate() {
            handle.submit(
                c,
                (w * 100) as u64,
                Priority::Normal,
                false,
                write_text(w, 0),
                replies.reply_for(c),
            );
        }
        while handle.stats().executed.load(Ordering::Relaxed) < writers as u64 {
            assert!(engine.run_batch());
        }
        hold.release();
        handle.quiesce();
        assert_eq!(
            handle
                .stats()
                .concurrent_write_batches
                .load(Ordering::Relaxed),
            writers as u64 - 1,
            "lanes={lanes}: every round-0 write after the first was \
             dispatched while its predecessors were in flight"
        );

        // Remaining rounds run free: writes to the same target serialize
        // through the gate, disjoint targets keep overlapping.
        for i in 1..per_writer {
            for (w, &c) in clients.iter().enumerate() {
                handle.submit(
                    c,
                    (w * 100 + i) as u64,
                    Priority::Normal,
                    false,
                    write_text(w, i),
                    replies.reply_for(c),
                );
            }
        }
        let total = (writers * per_writer) as u64;
        while handle.stats().executed.load(Ordering::Relaxed) < total {
            assert!(engine.run_batch());
        }
        handle.quiesce();

        let stats = handle.stats();
        assert_eq!(stats.writes_applied.load(Ordering::Relaxed), total);
        assert!(
            stats.concurrent_write_batches.load(Ordering::Relaxed) > 0,
            "lanes={lanes}: disjoint writes were dispatched while others \
             were still in flight"
        );
        assert_eq!(replies.take().len(), writers * per_writer);

        // Byte-identity with the sequential oracle, per target relation.
        for w in 0..writers {
            let target = format!("(scan r{})", 10 + w);
            let want = oracle_tuples(&oracle_db, &target, page_size);
            let c = handle.register_client();
            handle.submit(
                c,
                999,
                Priority::Normal,
                false,
                target.clone(),
                replies.reply_for(c),
            );
            assert!(engine.run_batch());
            handle.quiesce();
            let got = replies.take();
            let mut tuples = result(&got[0].1).tuples.clone();
            tuples.sort();
            assert_eq!(tuples, want, "lanes={lanes}: {target} diverged");
        }
    }
}

#[test]
fn lane_panic_is_contained_to_its_task() {
    quiet_worker_panics();
    let mut config = test_config();
    // Panic the serve lane itself (not a host worker) on lane task 0.
    config.lane_panic_task = Some(0);
    let db = small_db();
    let page_size = config.host.page_size;
    let survivor = "(restrict (scan r03) (< val 500))";
    let want = oracle_tuples(&db, survivor, page_size);

    let mut engine = Engine::new(db, config).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let a = handle.register_client();
    let b = handle.register_client();

    // Task 0: this read dies inside the lane.
    handle.submit(
        a,
        0,
        Priority::Normal,
        false,
        "(restrict (scan r02) (< val 400))".to_string(),
        replies.reply_for(a),
    );
    assert!(engine.run_batch());
    handle.quiesce();
    let got = replies.take();
    assert_eq!(got.len(), 1, "the victim still hears back");
    match &got[0].1 {
        Response::Error {
            error: ServeError::Host { kind, detail },
            ..
        } => {
            assert_eq!(*kind, HostErrorKind::UnitPanicked);
            assert!(detail.contains("serve lane"), "detail: {detail}");
        }
        other => panic!("expected a contained lane panic, got {other:?}"),
    }
    assert_eq!(handle.stats().failed.load(Ordering::Relaxed), 1);

    // The gate marks and the lane were recovered: a read of the same
    // relation, a different read, and a write all still work.
    for text in [
        "(restrict (scan r02) (< val 400))",
        survivor,
        "(append (restrict (scan r00) (= key 0)) r01)",
    ] {
        handle.submit(
            b,
            1,
            Priority::Normal,
            false,
            text.to_string(),
            replies.reply_for(b),
        );
        assert!(engine.run_batch());
        handle.quiesce();
    }
    let got = replies.take();
    assert_eq!(got.len(), 3, "the server keeps serving after the panic");
    let mut tuples = result(&got[1].1).tuples.clone();
    tuples.sort();
    assert_eq!(tuples, want, "survivor is oracle-identical");
    assert_eq!(handle.stats().writes_applied.load(Ordering::Relaxed), 1);
}

#[test]
fn shutdown_with_zero_clients_does_not_hang() {
    // The old implementation woke the acceptor by connecting to itself —
    // racy with real clients and dependent on the connect succeeding.
    // Shutting the listening socket down must work with nobody
    // connected at all.
    let engine = Engine::new(small_db(), test_config()).expect("engine");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = Server::start(listener, engine).expect("server");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        server.join();
        tx.send(()).expect("send");
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("shutdown with zero clients completed");
}

#[test]
fn standing_views_stay_byte_identical_under_writes() {
    // The IVM differential contract, end to end through the engine: after
    // every write batch, a maintained view must be byte-identical to
    // re-running its defining query from scratch against the current
    // catalog — at every lane count.
    let views = [
        ("vjoin", "(join (scan r00) (scan r01) (= key key))"),
        ("vset", "(union (scan r02) (scan r03))"),
    ];
    for lanes in [1usize, 2, 4] {
        let mut config = test_config();
        config.lanes = lanes;
        let mut engine = Engine::new(small_db(), config).expect("engine");
        let handle = engine.handle();
        let replies = Replies::default();
        let c = handle.register_client();
        for (name, text) in views {
            handle.install_view(
                c,
                0,
                name.to_string(),
                text.to_string(),
                replies.reply_for(c),
            );
        }
        assert!(engine.run_batch());
        handle.quiesce();
        let got = replies.take();
        assert_eq!(got.len(), 2);
        for (_, response) in &got {
            assert!(
                !result(response).schema.is_empty(),
                "install acks with the view schema"
            );
        }
        assert_eq!(handle.stats().views_installed.load(Ordering::Relaxed), 2);

        // Write batches touching every base relation: appends (inserts,
        // duplicate-heavy keys) and deletes, interleaved.
        let writes = [
            "(append (restrict (scan r00) (< key 4)) r01)",
            "(append (restrict (scan r00) (< key 6)) r02)",
            "(delete r03 (< key 8))",
            "(append (restrict (scan r00) (= key 2)) r01)",
            "(delete r01 (= key 2))",
            "(append (restrict (scan r00) (< key 3)) r03)",
        ];
        for (i, text) in writes.iter().enumerate() {
            handle.submit(
                c,
                i as u64,
                Priority::Normal,
                false,
                text.to_string(),
                replies.reply_for(c),
            );
            assert!(engine.run_batch());
            handle.quiesce();
            replies.take();

            for (name, text) in views {
                handle.read_view(c, 100, name.to_string(), replies.reply_for(c));
                handle.submit(
                    c,
                    200,
                    Priority::Normal,
                    false,
                    text.to_string(),
                    replies.reply_for(c),
                );
                assert!(engine.run_batch());
                handle.quiesce();
                let got = replies.take();
                assert_eq!(got.len(), 2);
                let by_id = |id: u64| {
                    got.iter()
                        .map(|(_, r)| result(r))
                        .find(|r| r.id == id)
                        .expect("reply present")
                };
                let maintained = by_id(100).tuples.clone();
                let mut fresh = by_id(200).tuples.clone();
                fresh.sort();
                assert_eq!(
                    maintained, fresh,
                    "lanes={lanes}: view {name} diverged after write {i}"
                );
            }
        }

        let stats = handle.stats();
        assert!(
            stats.delta_pages.load(Ordering::Relaxed) > 0,
            "lanes={lanes}: maintenance moved delta pages"
        );
        assert_eq!(
            stats.view_reads_served.load(Ordering::Relaxed),
            (writes.len() * views.len()) as u64
        );
        // View traffic must not disturb the query-path conservation
        // identities: every read is executed, fused, or joined — view
        // reads are none of those — and parsing stays a statement about
        // query traffic only.
        assert_eq!(
            stats.reads.load(Ordering::Relaxed),
            stats.read_execs.load(Ordering::Relaxed)
                + stats.fused.load(Ordering::Relaxed)
                + stats.inflight_joins.load(Ordering::Relaxed)
        );
        assert_eq!(
            stats.parses.load(Ordering::Relaxed),
            stats.plan_cache_misses.load(Ordering::Relaxed)
        );

        // Drop both views; reads now answer "not installed".
        for (name, _) in views {
            handle.drop_view(c, 300, name.to_string(), replies.reply_for(c));
        }
        assert!(engine.run_batch());
        handle.quiesce();
        assert_eq!(replies.take().len(), 2);
        handle.read_view(c, 301, "vjoin".to_string(), replies.reply_for(c));
        assert!(engine.run_batch());
        handle.quiesce();
        let got = replies.take();
        assert!(
            matches!(
                &got[0].1,
                Response::Error {
                    error: ServeError::View { .. },
                    ..
                }
            ),
            "read of a dropped view fails, got {:?}",
            got[0].1
        );
    }
}

#[test]
fn view_install_rejects_duplicates_updates_and_bad_queries() {
    let mut engine = Engine::new(small_db(), test_config()).expect("engine");
    let handle = engine.handle();
    let replies = Replies::default();
    let c = handle.register_client();
    let view_error = |response: &Response| -> String {
        match response {
            Response::Error {
                error: ServeError::View { detail },
                ..
            } => detail.clone(),
            other => panic!("expected a view error, got {other:?}"),
        }
    };

    handle.install_view(
        c,
        0,
        "v".to_string(),
        "(scan r02)".to_string(),
        replies.reply_for(c),
    );
    // Same batch: the duplicate is refused at dispatch, before the first
    // install even materializes.
    handle.install_view(
        c,
        1,
        "v".to_string(),
        "(scan r03)".to_string(),
        replies.reply_for(c),
    );
    // A view definition must be read-only.
    handle.install_view(
        c,
        2,
        "w".to_string(),
        "(append (scan r00) r01)".to_string(),
        replies.reply_for(c),
    );
    // Unknown relations are a parse error, not a view error.
    handle.install_view(
        c,
        3,
        "x".to_string(),
        "(scan r99)".to_string(),
        replies.reply_for(c),
    );
    // Dropping / reading names never installed.
    handle.drop_view(c, 4, "nope".to_string(), replies.reply_for(c));
    handle.read_view(c, 5, "nope".to_string(), replies.reply_for(c));
    assert!(engine.run_batch());
    handle.quiesce();

    let got = replies.take();
    assert_eq!(got.len(), 6);
    for (_, response) in &got {
        match response {
            Response::Result(r) => assert_eq!(r.id, 0, "only the first install succeeds"),
            Response::Error { id: 1, error, .. } => {
                assert!(error.to_string().contains("already installed"), "{error}");
            }
            Response::Error { id: 2, .. } => {
                assert!(view_error(response).contains("read-only"));
            }
            Response::Error { id: 3, error, .. } => {
                assert!(matches!(error, ServeError::Parse { .. }), "{error}");
            }
            Response::Error { id: 4 | 5, .. } => {
                assert!(view_error(response).contains("not installed"));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(handle.stats().views_installed.load(Ordering::Relaxed), 1);
    // Failed installs retracted their name: `x` is installable now.
    handle.install_view(
        c,
        6,
        "x".to_string(),
        "(scan r03)".to_string(),
        replies.reply_for(c),
    );
    assert!(engine.run_batch());
    handle.quiesce();
    let got = replies.take();
    assert_eq!(result(&got[0].1).id, 6, "name freed after a failed install");
}

#[test]
fn socket_view_round_trip_maintains_across_writes() {
    let db = small_db();
    let config = test_config();
    let engine = Engine::new(db, config).expect("engine");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = Server::start(listener, engine).expect("server");
    let addr = server.local_addr();
    let text = "(join (scan r00) (scan r01) (= key key))";

    let mut client = ServeClient::connect(addr).expect("connect");
    match client.install_view("v", text).expect("install") {
        Response::Result(r) => assert!(!r.schema.is_empty()),
        other => panic!("install failed: {other:?}"),
    }
    for key in 0..4 {
        let write = format!("(append (restrict (scan r00) (= key {key})) r01)");
        match client
            .query(&write, Priority::Normal, false)
            .expect("write")
        {
            Response::Result(_) => {}
            other => panic!("write failed: {other:?}"),
        }
    }
    let maintained = match client.read_view("v").expect("read view") {
        Response::Result(r) => r.tuples,
        other => panic!("read failed: {other:?}"),
    };
    let mut fresh = match client.query(text, Priority::Normal, false).expect("query") {
        Response::Result(r) => r.tuples,
        other => panic!("query failed: {other:?}"),
    };
    fresh.sort();
    assert_eq!(maintained, fresh, "socket view read matches fresh run");

    match client.request(&Request::Stats).expect("stats") {
        Response::Stats(rows) => {
            let get = |k: &str| {
                rows.iter()
                    .find(|(name, _)| name == k)
                    .map(|(_, v)| *v)
                    .expect("counter present")
            };
            assert_eq!(get("views_installed"), 1);
            assert!(get("delta_pages") > 0);
            assert_eq!(get("view_reads_served"), 1);
        }
        other => panic!("unexpected {other:?}"),
    }
    match client.drop_view("v").expect("drop") {
        Response::Result(_) => {}
        other => panic!("drop failed: {other:?}"),
    }
    assert!(matches!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::Ok
    ));
    server.join();
}

/// A result frame as it was built before results were encoded in one
/// pass — one `Vec<u8>` per tuple, pushed into a payload grown as it
/// goes, then `write_frame` — the reference a served view frame is held
/// to.
fn reference_frame(id: u64, schema: &str, tuples: &[Vec<u8>]) -> Vec<u8> {
    let put = |out: &mut Vec<u8>, bytes: &[u8]| {
        out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(bytes);
    };
    let mut payload = vec![0];
    payload.extend_from_slice(&id.to_be_bytes());
    payload.extend_from_slice(&1u32.to_be_bytes());
    put(&mut payload, schema.as_bytes());
    payload.extend_from_slice(&(tuples.len() as u32).to_be_bytes());
    for t in tuples {
        put(&mut payload, t);
    }
    let mut frame = Vec::new();
    df_serve::proto::write_frame(&mut frame, &payload).expect("writes to memory");
    frame
}

/// Property: for random view states — multiplicities above one, an empty
/// view, joins over duplicate keys, relations packed down to one tuple
/// per page — the frame the server writes for a view read is, byte for
/// byte, the reference frame of the from-scratch result (sorted, as
/// deterministic mode serves it) under the schema the install acked.
#[test]
fn view_frames_are_the_reference_bytes_over_the_socket() {
    use std::io::{Read, Write};
    let views = [
        ("bag", "(project (scan t) (c0))"),
        ("none", "(restrict (scan t) (> c0 100))"),
        ("pairs", "(join (scan t) (scan s) (= c0 c0))"),
        ("either", "(union (scan t) (scan s))"),
    ];
    for seed in 0..6u64 {
        // splitmix64 draws.
        let mut state = seed;
        let mut draw = move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let mut build = Schema::build().attr("c0", DataType::Int);
        for i in 1..=draw(3) {
            let ty = [DataType::Int, DataType::Str(2 + draw(9) as u16)][draw(2) as usize];
            build = build.attr(&format!("c{i}"), ty);
        }
        let schema = build.finish().expect("schema");
        let per_page = [1usize, 3, 64][draw(3) as usize];
        let page_size = 16 + per_page * schema.tuple_width();
        let mut db = Catalog::new();
        for name in ["t", "s"] {
            let tuples: Vec<Tuple> = (0..draw(30))
                .map(|_| {
                    let values = schema.attrs().iter().map(|a| match a.dtype {
                        DataType::Int => Value::Int(draw(5) as i64),
                        _ => Value::Str(["", "a"][draw(2) as usize].into()),
                    });
                    Tuple::new(values.collect())
                })
                .collect();
            let rel = Relation::from_tuples(name, schema.clone(), page_size, tuples);
            db.insert(rel.expect("relation")).expect("fresh name");
        }
        let mut config = test_config();
        config.host.page_size = page_size;
        let engine = Engine::new(db, config).expect("engine");
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let server = Server::start(listener, engine).expect("server");
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");
        let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        let mut schemas = Vec::new();
        for (name, text) in views {
            match client.install_view(name, text).expect("install") {
                Response::Result(r) => schemas.push(r.schema),
                other => panic!("install {name} failed: {other:?}"),
            }
        }
        for step in 0..6u64 {
            let k = draw(5);
            let write = match draw(2) {
                0 => format!("(append (restrict (scan s) (< c0 {k})) t)"),
                _ => format!("(delete t (= c0 {k}))"),
            };
            match client
                .query(&write, Priority::Normal, false)
                .expect("write")
            {
                Response::Result(_) => {}
                other => panic!("write failed: {other:?}"),
            }
            for ((name, text), schema) in views.iter().zip(&schemas) {
                let mut fresh = match client.query(text, Priority::Normal, false).expect("query") {
                    Response::Result(r) => r.tuples,
                    other => panic!("query failed: {other:?}"),
                };
                fresh.sort();
                let id = 1000 * seed + step;
                let request = Request::ReadView {
                    id,
                    name: name.to_string(),
                };
                let mut out = Vec::new();
                df_serve::proto::write_frame(&mut out, &request.encode()).expect("encodes");
                raw.write_all(&out).expect("sends");
                let mut frame = vec![0; 4];
                raw.read_exact(&mut frame).expect("prefix");
                let len = u32::from_be_bytes(frame[..4].try_into().expect("4 bytes"));
                frame.resize(4 + len as usize, 0);
                raw.read_exact(&mut frame[4..]).expect("payload");
                assert_eq!(
                    frame,
                    reference_frame(id, schema, &fresh),
                    "seed {seed} step {step}: view {name} after {write}"
                );
            }
        }
        assert!(matches!(
            client.request(&Request::Shutdown).expect("shutdown"),
            Response::Ok
        ));
        server.join();
    }
}
