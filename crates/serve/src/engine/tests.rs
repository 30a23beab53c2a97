//! Plan-cache unit tests (kept at `engine::tests` so their names are
//! stable), the differential tests of the optimizer statistics the
//! engine holds, which need to see `Shared`, and the byte-identity tests
//! of the frames the engine answers with, which need its frame replies.

#![cfg(test)]

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};

use df_host::{run_host_queries, HostParams};
use df_opt::{optimize, CatalogStats, RelationStats};
use df_query::{apply_write, parse_query, render_tree, stage_write, ExecParams};
use df_relalg::{Catalog, DataType, Relation, Schema, Tuple, Value, PAGE_HEADER_BYTES};
use df_workload::{benchmark_queries, BenchmarkSpec, DatabaseSpec};

use super::admission::{FrameReply, Submission, SubmissionKind};
use super::plan::{normalize_text, optimize_scoped, Plan, PlanCache};
use super::{lock, read_lock, Engine, LaneHold, Reply, ServeConfig};
use crate::proto::{result_frame, write_frame, Priority, Request, Response, ServeError, MAX_FRAME};

fn dummy_plan(tag: &str) -> Plan {
    // The cache keys on text, not the tree; a minimal parsed tree of
    // any shape works. The tag only tells entries apart.
    plan_for(tag, "(scan r00)")
}

/// A real plan for `text` (so its read-set tags are genuine), keyed
/// by `tag`.
fn plan_for(tag: &str, text: &str) -> Plan {
    let db = df_workload::generate_database(&df_workload::DatabaseSpec::scaled(0.01));
    let tree = df_query::parse_query(&db, text).expect("parse");
    Plan {
        key: Arc::from(tag),
        ..Plan::from_tree(tree)
    }
}

#[test]
fn normalize_collapses_whitespace_runs() {
    assert_eq!(
        normalize_text("  (scan\n\t r00)  "),
        "(scan r00)".to_string()
    );
    assert_eq!(normalize_text("(scan r00)"), "(scan r00)");
    assert_eq!(normalize_text(""), "");
    // String literals are copied verbatim — the tokenizer keeps them byte
    // for byte — while whitespace around them still collapses.
    assert_eq!(
        normalize_text("(restrict  (scan t)\n (= pad \"a  b\") )"),
        "(restrict (scan t) (= pad \"a  b\") )"
    );
    assert_ne!(
        normalize_text("(= pad \"a  b\")"),
        normalize_text("(= pad \"a b\")")
    );
    assert_eq!(normalize_text("(= pad \" \t \")  "), "(= pad \" \t \")");
}

#[test]
fn plan_cache_evicts_least_recently_used() {
    let mut cache = PlanCache::new(2);
    cache.insert(("a".into(), false), dummy_plan("a"));
    cache.insert(("b".into(), false), dummy_plan("b"));
    // Touch `a` so `b` is the LRU victim when `c` arrives.
    assert!(cache.get(&("a".into(), false)).is_some());
    cache.insert(("c".into(), false), dummy_plan("c"));
    assert!(cache.get(&("a".into(), false)).is_some());
    assert!(cache.get(&("b".into(), false)).is_none(), "b evicted");
    assert!(cache.get(&("c".into(), false)).is_some());
}

#[test]
fn plan_cache_zero_capacity_never_stores() {
    let mut cache = PlanCache::new(0);
    cache.insert(("a".into(), false), dummy_plan("a"));
    assert!(cache.get(&("a".into(), false)).is_none());
}

#[test]
fn plan_cache_keys_on_optimize_flag() {
    let mut cache = PlanCache::new(4);
    cache.insert(("q".into(), false), dummy_plan("plain"));
    assert!(cache.get(&("q".into(), true)).is_none());
    assert!(cache.get(&("q".into(), false)).is_some());
}

#[test]
fn evict_reading_is_relation_scoped() {
    let mut cache = PlanCache::new(8);
    cache.insert(("a".into(), false), plan_for("a", "(scan r00)"));
    cache.insert(("b".into(), false), plan_for("b", "(scan r01)"));
    cache.insert(
        ("j".into(), false),
        plan_for("j", "(join (scan r00) (scan r02) (= key key))"),
    );
    // A write to r01 evicts only the r01 reader.
    assert_eq!(cache.evict_reading(&["r01".to_string()]), 1);
    assert!(cache.get(&("a".into(), false)).is_some());
    assert!(cache.get(&("b".into(), false)).is_none());
    assert!(cache.get(&("j".into(), false)).is_some());
    // A write to a join input evicts the join (and the scan sharing
    // that input).
    assert_eq!(cache.evict_reading(&["r02".to_string()]), 1);
    assert!(cache.get(&("j".into(), false)).is_none());
    assert_eq!(cache.evict_reading(&["r00".to_string()]), 1);
    assert!(cache.get(&("a".into(), false)).is_none());
    // Nothing left to evict.
    assert_eq!(cache.evict_reading(&["r00".to_string()]), 0);
}

const SCALE: f64 = 0.01;

/// Every optimizer statistic the engine holds equals a fresh gather of
/// the relation as the catalog has it now.
fn assert_held_stats_are_fresh(engine: &Engine, context: &str) {
    let db = read_lock(&engine.shared.db);
    let held = lock(&engine.shared.opt_stats);
    for relation in db.iter() {
        if let Some(stats) = held.get(relation.name()) {
            assert_eq!(
                stats,
                &RelationStats::gather(relation),
                "{context}: held statistics of {} are stale",
                relation.name()
            );
        }
    }
}

/// A reply that forwards the response into `tx`.
fn reply_into(tx: &mpsc::Sender<Response>) -> Reply {
    let tx = tx.clone();
    Box::new(move |r| tx.send(r).expect("test receiver alive"))
}

/// Submit `texts` (all optimizing) on one client, dispatch until every
/// one is answered, and return the replies.
fn run_all(engine: &mut Engine, texts: &[String]) -> Vec<Response> {
    let handle = engine.handle();
    let client = handle.register_client();
    let (tx, rx) = mpsc::channel();
    for (id, text) in texts.iter().enumerate() {
        let reply = reply_into(&tx);
        handle.submit(
            client,
            id as u64,
            Priority::Normal,
            true,
            text.clone(),
            reply,
        );
    }
    let mut replies = Vec::new();
    while replies.len() < texts.len() {
        assert!(engine.run_batch());
        handle.quiesce();
        replies.extend(rx.try_iter());
    }
    replies
}

/// splitmix64: a seeded stream of draws for the random write sequences.
fn draws(mut state: u64) -> impl FnMut(u64) -> u64 {
    move |bound| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }
}

/// ROADMAP 1(a)'s oracle, relation-scoped: random `append`/`delete`
/// sequences interleaved with optimizing reads of the written relations,
/// at lanes {1, 2, 4}. After every reply the statistics the engine holds
/// equal a fresh gather, and planning each of the ten workload queries
/// through the engine's held statistics (refreshed as resolve does)
/// renders the same optimized tree as planning against a whole-catalog
/// gather.
#[test]
fn held_stats_equal_a_fresh_gather_after_every_reply() {
    let spec = BenchmarkSpec::scaled(SCALE);
    let queries = benchmark_queries(
        &df_workload::generate_database(&DatabaseSpec::scaled(SCALE)),
        &spec,
    )
    .expect("the ten queries build");
    let targets = ["r01", "r02", "r05"];
    for lanes in [1usize, 2, 4] {
        let config = ServeConfig {
            lanes,
            batch_max: 3,
            ..ServeConfig::default()
        };
        let db = df_workload::generate_database(&DatabaseSpec::scaled(SCALE));
        let mut engine = Engine::new(db, config).expect("engine");
        let mut draw = draws(lanes as u64);
        for step in 0..24 {
            let texts: Vec<String> = (0..1 + draw(4))
                .map(|_| {
                    let target = targets[draw(3) as usize];
                    let key = draw(40);
                    match draw(3) {
                        0 => format!("(append (restrict (scan r00) (= key {key})) {target})"),
                        1 => format!("(delete {target} (= key {key}))"),
                        _ => format!("(restrict (scan {target}) (< val {}))", draw(1000)),
                    }
                })
                .collect();
            for reply in run_all(&mut engine, &texts) {
                assert!(
                    matches!(reply, Response::Result(_)),
                    "lanes={lanes} step {step}: {reply:?}"
                );
            }
            let context = format!("lanes={lanes} step {step} {texts:?}");
            assert_held_stats_are_fresh(&engine, &context);
            let db = read_lock(&engine.shared.db);
            let full = CatalogStats::gather(&db);
            for (i, q) in queries.iter().enumerate() {
                let scoped = optimize_scoped(&engine.shared, &db, q.clone());
                let whole = optimize(&db, q, &full).map_or_else(|_| q.clone(), |o| o.tree);
                assert_eq!(
                    render_tree(&scoped),
                    render_tree(&whole),
                    "{context}: Q{} planned differently",
                    i + 1
                );
            }
        }
        assert!(engine.shared.stats.writes_applied.load(Ordering::Relaxed) > 0);
    }
}

/// The window a dispatch-time invalidation leaves open: a read of the
/// target resolved after the write is dispatched but before it applies
/// gathers the pre-write relation. Where the write is applied, that
/// entry is brought up to the post-write relation: folded, or on the
/// target's first write (as here) gathered again keeping its columns.
#[test]
fn stats_gathered_while_a_write_is_in_flight_are_folded_when_it_applies() {
    let hold = Arc::new(LaneHold::default());
    let config = ServeConfig {
        lane_hold: Some(Arc::clone(&hold)),
        ..ServeConfig::default()
    };
    let db = df_workload::generate_database(&DatabaseSpec::scaled(SCALE));
    let mut engine = Engine::new(db, config).expect("engine");
    let handle = engine.handle();
    let client = handle.register_client();
    let (tx, rx) = mpsc::channel();
    let submit = |text: &str| {
        let reply = reply_into(&tx);
        handle.submit(client, 0, Priority::Normal, true, text.to_string(), reply);
    };
    let parses = || handle.stats().parses.load(Ordering::Relaxed);

    hold.hold();
    submit("(append (restrict (scan r00) (= key 3)) r01)");
    assert!(engine.run_batch(), "the write is dispatched and parked");
    submit("(restrict (scan r01) (< val 500))");
    std::thread::scope(|s| {
        // Resolves the read (gathering r01 before the write applied),
        // then waits at the gate behind the parked write.
        let dispatcher = s.spawn(|| engine.run_batch());
        // `parses` moves once resolve holds the catalog read lock, which
        // it keeps until the refresh is done — so the write's apply
        // (which needs the write lock) comes strictly after the gather.
        while parses() < 2 {
            std::thread::yield_now();
        }
        hold.release();
        assert!(dispatcher.join().expect("dispatcher thread"));
    });
    handle.quiesce();
    drop(tx);
    let replies: Vec<Response> = rx.iter().collect();
    assert_eq!(replies.len(), 2);
    assert!(replies.iter().all(|r| matches!(r, Response::Result(_))));
    assert!(
        lock(&engine.shared.opt_stats).get("r01").is_some(),
        "the in-flight write's apply kept the statistics gathered before it"
    );
    assert_held_stats_are_fresh(&engine, "after the in-flight write applied");
}

// ------------------------------------------------------------ frames

/// A result payload exactly as it was built before results were encoded
/// in one pass: one `Vec<u8>` per tuple, pushed into a payload grown as
/// it goes. The reference the served frames are held to.
fn reference_payload(id: u64, fan_out: u32, schema: &str, tuples: &[Vec<u8>]) -> Vec<u8> {
    let put = |out: &mut Vec<u8>, bytes: &[u8]| {
        out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(bytes);
    };
    let mut out = vec![0];
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&fan_out.to_be_bytes());
    put(&mut out, schema.as_bytes());
    out.extend_from_slice(&(tuples.len() as u32).to_be_bytes());
    for t in tuples {
        put(&mut out, t);
    }
    out
}

/// [`reference_payload`] behind `write_frame`'s length prefix.
fn reference_frame(id: u64, fan_out: u32, rel: &Relation) -> Vec<u8> {
    let tuples: Vec<Vec<u8>> = rel.tuple_refs().map(|t| t.raw().to_vec()).collect();
    let payload = reference_payload(id, fan_out, &rel.schema().to_string(), &tuples);
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("writes to memory");
    frame
}

/// Collects the frames the engine answers with, in arrival order.
#[derive(Clone, Default)]
struct Frames(Arc<Mutex<Vec<Vec<u8>>>>);

impl Frames {
    fn reply(&self) -> FrameReply {
        let sink = Arc::clone(&self.0);
        Box::new(move |frame| lock(&sink).push(frame))
    }

    fn take(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut lock(&self.0))
    }
}

/// Two relations `t` and `s` of one random schema (an `int` first
/// column, then up to three `int`/`str(n)` columns), holding few
/// distinct values so duplicates are common, packed `per_page` tuples to
/// a page.
fn random_catalog(draw: &mut impl FnMut(u64) -> u64) -> (Catalog, usize) {
    let mut build = Schema::build().attr("c0", DataType::Int);
    let mut types = vec![DataType::Int];
    for i in 1..=draw(4) {
        let ty = match draw(2) {
            0 => DataType::Int,
            _ => DataType::Str(2 + draw(11) as u16),
        };
        build = build.attr(&format!("c{i}"), ty);
        types.push(ty);
    }
    let schema = build.finish().expect("schema");
    let per_page = [1usize, 2, 64][draw(3) as usize];
    let page_size = PAGE_HEADER_BYTES + per_page * schema.tuple_width();
    let mut db = Catalog::new();
    for name in ["t", "s"] {
        let n = draw(40);
        let tuples: Vec<Tuple> = (0..n)
            .map(|_| {
                let values = types.iter().map(|ty| match ty {
                    DataType::Str(_) => Value::Str(["", "a", "bb"][draw(3) as usize].into()),
                    _ => Value::Int(draw(6) as i64),
                });
                Tuple::new(values.collect())
            })
            .collect();
        let rel = Relation::from_tuples(name, schema.clone(), page_size, tuples).expect("rel");
        db.insert(rel).expect("fresh name");
    }
    (db, page_size)
}

/// Property: on random relations — schema widths, empty relations, down
/// to one tuple per page, result pages of the same sizes — every frame
/// the engine answers a read or a write with is the reference frame of
/// the relation the same execution yields, byte for byte.
#[test]
fn served_frames_are_the_reference_bytes_for_random_relations() {
    for seed in 0..48 {
        let mut draw = draws(seed);
        let (db, page_size) = random_catalog(&mut draw);
        let host = HostParams {
            workers: 1,
            page_size,
            deterministic: true,
            ..HostParams::default()
        };
        let config = ServeConfig {
            lanes: 1,
            host: host.clone(),
            ..ServeConfig::default()
        };
        let mut mirror = db.clone();
        let mut engine = Engine::new(db, config).expect("engine");
        let handle = engine.handle();
        let client = handle.register_client();
        let frames = Frames::default();
        for step in 0..8u64 {
            let k = draw(7);
            let text = match draw(5) {
                0 => "(scan t)".to_string(),
                1 => format!("(restrict (scan t) (< c0 {k}))"),
                2 => "(project (scan s) (c0))".to_string(),
                3 => format!("(append (restrict (scan s) (< c0 {k})) t)"),
                _ => format!("(delete t (= c0 {k}))"),
            };
            let tree = parse_query(&mirror, &text).expect("parses");
            let want = if tree.written_relations().is_empty() {
                let out = run_host_queries(&mirror, std::slice::from_ref(&tree), &host);
                let rel = out.expect("runs").results.remove(0).expect("ok");
                reference_frame(step, 1, &rel)
            } else {
                let exec = ExecParams { page_size };
                let delta = stage_write(&mirror, &tree, &exec).expect("stages");
                let rel = apply_write(&mut mirror, delta).expect("applies");
                reference_frame(step, 1, &rel)
            };
            let request = Request::Query {
                id: step,
                priority: Priority::Normal,
                optimize: false,
                text: text.clone(),
            };
            handle.serve(client, request, frames.reply());
            assert!(engine.run_batch());
            handle.quiesce();
            let got = frames.take();
            assert_eq!(got, vec![want], "seed {seed} step {step}: {text}");
        }
    }
}

/// A fused read is encoded once: with four waiters on one execution,
/// each waiter's frame is the reference frame for its own id, and the
/// frames differ from one another only in the 8 id bytes.
#[test]
fn fused_waiters_frames_differ_only_in_their_ids() {
    let hold = Arc::new(LaneHold::default());
    let config = ServeConfig {
        lane_hold: Some(Arc::clone(&hold)),
        ..ServeConfig::default()
    };
    let db = df_workload::generate_database(&DatabaseSpec::scaled(SCALE));
    let text = "(restrict (scan r04) (< val 800))";
    let tree = parse_query(&db, text).expect("parses");
    let host = HostParams {
        deterministic: true,
        ..config.host.clone()
    };
    let out = run_host_queries(&db, std::slice::from_ref(&tree), &host).expect("runs");
    let rel = out.results.into_iter().next().expect("one").expect("ok");

    let mut engine = Engine::new(db, config).expect("engine");
    let handle = engine.handle();
    let frames = Frames::default();
    let submit = |client: usize, id: u64| {
        let request = Request::Query {
            id,
            priority: Priority::Normal,
            optimize: false,
            text: text.to_string(),
        };
        handle.serve(client, request, frames.reply());
    };
    // The first read parks on its lane; the next batch's three twins
    // (two fused with each other) join it in flight.
    hold.hold();
    submit(handle.register_client(), 100);
    assert!(engine.run_batch());
    for id in [101, 102, 103] {
        submit(handle.register_client(), id);
    }
    assert!(engine.run_batch());
    hold.release();
    handle.quiesce();
    let got = frames.take();
    assert_eq!(got.len(), 4);
    assert_eq!(handle.stats().read_execs.load(Ordering::Relaxed), 1);
    for (frame, id) in got.iter().zip(100u64..) {
        assert_eq!(frame, &reference_frame(id, 4, &rel), "waiter {id}");
        let (a, b) = (&got[0], frame);
        let differing: Vec<usize> = (0..a.len()).filter(|&i| a[i] != b[i]).collect();
        assert!(
            differing.iter().all(|i| (5..13).contains(i)),
            "{differing:?}"
        );
    }
}

/// The refusal of a result past `MAX_FRAME` reaches the client as an
/// error for its own id, and `failed` counts it; nothing is encoded.
#[test]
fn conclude_answers_an_oversized_result_with_an_error_for_its_id() {
    let engine = Engine::new(Catalog::new(), ServeConfig::default()).expect("engine");
    let frames = Frames::default();
    let sub = Submission {
        client: 0,
        id: 42,
        priority: Priority::Normal,
        optimize: false,
        text: String::new(),
        kind: SubmissionKind::Query,
        reply: frames.reply(),
    };
    let count = MAX_FRAME / 4;
    let untouched = std::iter::repeat_with(|| -> &[u8] { panic!("an image was read") });
    let outcome = result_frame(0, 1, "k:int", count, 8, untouched);
    engine.shared.conclude(&None, sub, outcome);
    let got = frames.take();
    assert_eq!(got.len(), 1);
    match Response::decode(&got[0][4..]).expect("decodes") {
        Response::Error {
            id: 42,
            error: ServeError::ResultTooLarge { bytes, limit },
        } => {
            assert!(bytes > limit);
            assert_eq!(limit, MAX_FRAME as u64);
        }
        other => panic!("expected the refusal for id 42, got {other:?}"),
    }
    assert_eq!(engine.shared.stats.failed.load(Ordering::Relaxed), 1);
}
