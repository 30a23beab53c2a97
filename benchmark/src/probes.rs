//! Per-layer probes of a traced run: each times calls into one crate's
//! *public* functions over the workload's own catalog, from the
//! benchmark's files. None of these numbers is gated; they say which
//! layer an end-to-end change came from.

use std::hint::black_box;
use std::io::Cursor;
use std::sync::mpsc;
use std::time::Instant;

use df_host::{run_host_query, HostParams, StandingView};
use df_obs::{EventKind, Tracer};
use df_opt::{optimize, CatalogStats};
use df_query::ops::{
    dedup_pages_raw, difference_pages_raw, hash_join_probe, join_pages_raw, project_page_raw,
    restrict_page_raw, span_output_schema, span_page_raw, union_pages_raw, SpanStep,
};
use df_query::{apply_write, parse_query, render_tree, stage_write, ExecParams, QueryTree};
use df_relalg::{
    Catalog, CmpOp, JoinCondition, Page, PageKeyIndex, Predicate, Projection, Relation, Value,
};
use df_serve::proto::{read_frame, write_frame, Priority, QueryResult, Request, Response};
use df_serve::{Engine, ServeConfig};
use df_sim::{EventQueue, SimTime};
use df_storage::{CacheParams, DiskCache, PageId};
use df_workload::{parent_of, BenchmarkSpec, DatabaseSpec};

use crate::gen::Stream;
use crate::report::Report;
use crate::stats;

/// The standing views the write workload installs — the same two
/// `RequestMix::VIEWS` of `serve_bench`: one join-bearing, one set-op,
/// both over `r01`.
pub const VIEWS: [(&str, &str); 2] = [
    ("bench_join", "(join (scan r00) (scan r01) (= key key))"),
    ("bench_set", "(union (scan r02) (scan r01))"),
];

/// Knobs every workload pins, echoed in each run's output.
pub const WORKERS: usize = 2;
/// Serve lanes.
pub const LANES: usize = 2;
/// Plan-cache capacity in plans.
pub const PLAN_CACHE: usize = 128;
/// Page size in bytes (header included).
pub const PAGE_SIZE: usize = 1016;

/// The pinned executor configuration.
pub fn host_params() -> HostParams {
    HostParams {
        workers: WORKERS,
        page_size: PAGE_SIZE,
        ..HostParams::default()
    }
}

/// The pinned serve configuration (what the `df-serve` child is started
/// with, and what in-process engine probes use).
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        lanes: LANES,
        plan_cache_capacity: PLAN_CACHE,
        host: host_params(),
        ..ServeConfig::default()
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Median seconds per call of `f`: five batches, each sized from one
/// calibration call to about 8 ms, so a stolen time-slice spoils one
/// batch.
pub fn per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.008 / once) as usize).clamp(1, 1_000_000);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    stats::median(&batches)
}

fn data_bytes(pages: &[&Page]) -> f64 {
    pages
        .iter()
        .map(|p| p.len() * p.schema().tuple_width())
        .sum::<usize>() as f64
}

fn rel<'a>(db: &'a Catalog, name: &str) -> &'a Relation {
    db.get(name)
        .unwrap_or_else(|| panic!("catalog has no `{name}`"))
}

/// df-relalg and the df-query kernels, each over the workload's own
/// pages (r00 as the outer/left operand, r01 as the inner/right).
pub fn kernels(db: &Catalog, report: &mut Report) {
    let (r00, r01) = (rel(db, "r00"), rel(db, "r01"));
    let schema = r00.schema().clone();
    let outer: Vec<&Page> = r00.pages().iter().map(|p| &**p).collect();
    let inner: Vec<&Page> = r01.pages().iter().map(|p| &**p).collect();
    let mib_s = |bytes: f64, secs: f64| bytes / MIB / secs;

    report.put("relalg.catalog_mib", db.total_bytes() as f64 / MIB, 0);

    let secs = per_call(|| {
        for p in &inner {
            black_box(PageKeyIndex::build(p, 0));
        }
    });
    report.put(
        "relalg.key_index_build_mib_s",
        mib_s(data_bytes(&inner), secs),
        inner.len(),
    );

    let fk = schema.index_of("fk").expect("fk attribute");
    let index = PageKeyIndex::build(inner[0], 0);
    let probes: usize = outer.iter().map(|p| p.len()).sum();
    let secs = per_call(|| {
        for p in &outer {
            for t in p.tuple_refs() {
                black_box(index.probe(t.attr_bytes(fk)));
            }
        }
    });
    report.put(
        "relalg.key_index_probe_ns",
        secs * 1e9 / probes as f64,
        probes,
    );

    let pred = Predicate::cmp_const(&schema, "val", CmpOp::Lt, Value::Int(500)).expect("pred");
    let secs = per_call(|| {
        for p in &outer {
            black_box(restrict_page_raw(p, &pred));
        }
    });
    let bytes = data_bytes(&outer);
    report.put("query.ops.restrict_mib_s", mib_s(bytes, secs), outer.len());

    let proj = Projection::new(&schema, &["key", "val"]).expect("projection");
    let proj_schema = proj.output_schema(&schema).expect("projected schema");
    let secs = per_call(|| {
        for p in &outer {
            black_box(project_page_raw(p, &proj, &proj_schema));
        }
    });
    report.put("query.ops.project_mib_s", mib_s(bytes, secs), outer.len());

    let steps = vec![SpanStep::Restrict(pred.clone()), SpanStep::Project(proj)];
    let span_schema = span_output_schema(&schema, &steps).expect("span schema");
    let secs = per_call(|| {
        for p in &outer {
            black_box(span_page_raw(p, &steps, &span_schema));
        }
    });
    report.put("query.ops.span_mib_s", mib_s(bytes, secs), outer.len());

    // Page pairs as the executors form them: each outer page against an
    // inner page, fk = key.
    let cond = JoinCondition::equi(&schema, "fk", &schema, "key").expect("join condition");
    let joined = schema.concat(&schema);
    let pairs: Vec<(&Page, &Page)> = outer
        .iter()
        .take(64)
        .enumerate()
        .map(|(i, o)| (*o, inner[i % inner.len()]))
        .collect();
    let pair_bytes: f64 = pairs.iter().map(|(o, i)| data_bytes(&[o, i])).sum();
    let secs = per_call(|| {
        for (o, i) in &pairs {
            black_box(join_pages_raw(o, i, &cond, &joined));
        }
    });
    report.put(
        "query.ops.join_nested_mib_s",
        mib_s(pair_bytes, secs),
        pairs.len(),
    );
    // The hash path as df-host runs it: the inner page's index is built
    // once and cached, so the kernel is the probe.
    let indexes: Vec<PageKeyIndex> = pairs
        .iter()
        .map(|(_, i)| PageKeyIndex::build(i, cond.right))
        .collect();
    let secs = per_call(|| {
        for ((o, i), index) in pairs.iter().zip(&indexes) {
            black_box(hash_join_probe(o, i, index, &cond, &joined));
        }
    });
    report.put(
        "query.ops.join_hash_mib_s",
        mib_s(pair_bytes, secs),
        pairs.len(),
    );

    let left = &outer[..outer.len().min(32)];
    let right = &inner[..inner.len().min(32)];
    let secs = per_call(|| {
        black_box(dedup_pages_raw(left, &schema));
    });
    report.put(
        "query.ops.dedup_mib_s",
        mib_s(data_bytes(left), secs),
        left.len(),
    );
    let both = data_bytes(left) + data_bytes(right);
    let secs = per_call(|| {
        black_box(union_pages_raw(left, right, &schema));
    });
    report.put(
        "query.ops.union_mib_s",
        mib_s(both, secs),
        left.len() + right.len(),
    );
    let secs = per_call(|| {
        black_box(difference_pages_raw(left, right, &schema));
    });
    report.put(
        "query.ops.difference_mib_s",
        mib_s(both, secs),
        left.len() + right.len(),
    );
}

/// The source key a probe's write cycle appends: the first key that
/// exists in r00 but not in r01.
fn free_key(db: &Catalog) -> usize {
    let (source, target) = (rel(db, "r00").num_tuples(), rel(db, "r01").num_tuples());
    assert!(target < source, "r01 must be smaller than r00");
    target
}

/// df-query's front and back end and df-opt, over the workload's own
/// query texts (up to 64 of them).
pub fn front_back(db: &Catalog, texts: &[String], report: &mut Report) {
    let texts = &texts[..texts.len().min(64)];
    let trees: Vec<QueryTree> = texts
        .iter()
        .map(|t| parse_query(db, t).expect("workload text parses"))
        .collect();
    let n = texts.len();

    let secs = per_call(|| {
        for t in texts {
            black_box(parse_query(db, t).expect("parses"));
        }
    });
    report.put("query.parse_us", secs * 1e6 / n as f64, n);
    let secs = per_call(|| {
        for t in &trees {
            black_box(render_tree(t));
        }
    });
    report.put("query.render_us", secs * 1e6 / n as f64, n);

    let stats = CatalogStats::gather(db);
    let secs = per_call(|| {
        for t in &trees {
            black_box(optimize(db, t, &stats).expect("optimizes"));
        }
    });
    report.put("opt.optimize_us", secs * 1e6 / n as f64, n);
    let secs = per_call(|| {
        black_box(CatalogStats::gather(db));
    });
    report.put("opt.stats_gather_ms", secs * 1e3, 0);

    // One append + delete pair per sample on a private copy, so the
    // relation is back at its starting size for the next sample.
    let mut copy = db.clone();
    let key = free_key(db);
    let append = parse_query(
        &copy,
        &format!("(append (restrict (scan r00) (= key {key})) r01)"),
    )
    .expect("append parses");
    let delete = parse_query(&copy, &format!("(delete r01 (= key {key}))")).expect("delete parses");
    let exec = ExecParams {
        page_size: PAGE_SIZE,
        ..ExecParams::default()
    };
    let (mut stage_us, mut apply_us) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        for tree in [&append, &delete] {
            let t = Instant::now();
            let delta = stage_write(&copy, tree, &exec).expect("stages");
            stage_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            black_box(apply_write(&mut copy, delta).expect("applies"));
            apply_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    report.put(
        "query.stage_write_us",
        stats::median(&stage_us),
        stage_us.len(),
    );
    report.put(
        "query.apply_write_us",
        stats::median(&apply_us),
        apply_us.len(),
    );
}

/// df-host standing views: install both bench views, then replay
/// single-tuple insert/delete deltas on `r01` through them.
pub fn views(db: &Catalog, report: &mut Report) {
    let t = Instant::now();
    let mut installed: Vec<StandingView> = VIEWS
        .iter()
        .map(|(name, text)| {
            let tree = parse_query(db, text).expect("view text parses");
            StandingView::install(name, text, db, &tree, PAGE_SIZE).expect("view installs")
        })
        .collect();
    report.put(
        "host.view.install_ms",
        t.elapsed().as_secs_f64() * 1e3,
        VIEWS.len(),
    );

    let key = free_key(db) as i64;
    let image: Vec<u8> = rel(db, "r00")
        .tuple_refs()
        .find(|t| t.value(0).ok() == Some(Value::Int(key)))
        .expect("free key exists in r00")
        .raw()
        .to_vec();
    let (mut apply_us, mut delta_pages, mut writes) = (Vec::new(), 0u64, 0u64);
    for _ in 0..20 {
        for (ins, del) in [(vec![image.clone()], vec![]), (vec![], vec![image.clone()])] {
            for view in &mut installed {
                let t = Instant::now();
                let update = view.apply_write("r01", &ins, &del).expect("delta applies");
                apply_us.push(t.elapsed().as_secs_f64() * 1e6);
                delta_pages += update.delta_pages;
            }
            writes += 1;
        }
    }
    report.put(
        "host.view.apply_us",
        stats::median(&apply_us),
        apply_us.len(),
    );
    report.put(
        "host.view.delta_pages_per_write",
        delta_pages as f64 / writes as f64,
        writes as usize,
    );
    let secs = per_call(|| {
        for view in &installed {
            black_box(view.tuple_images());
        }
    });
    report.put(
        "host.view.read_us",
        secs * 1e6 / installed.len() as f64,
        installed.len(),
    );
}

/// df-serve's wire protocol over one of the workload's own responses.
pub fn proto(text: &str, result: &QueryResult, report: &mut Report) {
    let request = Request::Query {
        id: 7,
        priority: Priority::Normal,
        optimize: true,
        text: text.to_string(),
    };
    let secs = per_call(|| {
        black_box(Request::decode(&black_box(&request).encode()).expect("decodes"));
    });
    report.put("serve.proto.req_codec_ns", secs * 1e9, 0);

    let response = Response::Result(result.clone());
    let payload = response.encode();
    let mib = payload.len() as f64 / MIB;
    let secs = per_call(|| {
        black_box(black_box(&response).encode());
    });
    report.put(
        "serve.proto.resp_encode_mib_s",
        mib / secs,
        result.tuples.len(),
    );
    let secs = per_call(|| {
        black_box(Response::decode(black_box(&payload)).expect("decodes"));
    });
    report.put(
        "serve.proto.resp_decode_mib_s",
        mib / secs,
        result.tuples.len(),
    );
    let secs = per_call(|| {
        let mut wire = Vec::with_capacity(payload.len() + 4);
        write_frame(&mut wire, &payload).expect("writes to memory");
        black_box(read_frame(&mut Cursor::new(wire)).expect("reads back"));
    });
    report.put("serve.proto.frame_mib_s", mib / secs, 0);
}

/// `EngineHandle::submit` round trip against an in-process engine (no
/// socket, no frame codec): admission, dispatch, plan cache, lane
/// hand-off, one execution, reply.
pub fn engine_submit(db: &Catalog, text: &str, report: &mut Report) {
    let engine = Engine::new(db.clone(), serve_config()).expect("pinned config is valid");
    let handle = engine.handle();
    let dispatcher = std::thread::spawn(move || engine.run());
    let client = handle.register_client();
    let mut submit_us = Vec::new();
    let mut failed = 0usize;
    for id in 0..200u64 {
        let (tx, rx) = mpsc::channel();
        let t = Instant::now();
        handle.submit(
            client,
            id,
            Priority::Normal,
            true,
            text.to_string(),
            Box::new(move |response| {
                // The receiver outlives the reply: it is read right below.
                let _ = tx.send(response);
            }),
        );
        let response = rx.recv().expect("engine replies exactly once");
        submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        failed += usize::from(!matches!(response, Response::Result(_)));
    }
    handle.shutdown();
    dispatcher.join().expect("dispatcher thread panicked");
    assert_eq!(failed, 0, "in-process engine refused a probe query");
    report.put(
        "serve.engine.submit_us",
        stats::median(&submit_us),
        submit_us.len(),
    );
}

/// The per-call floor of `run_host_queries`: a one-page query, so what
/// remains is worker spawn, channels and teardown.
pub fn host_call_floor(db: &Catalog, report: &mut Report) {
    let r00 = rel(db, "r00");
    let mut tiny = Relation::new("tiny", r00.schema().clone(), PAGE_SIZE).expect("relation");
    tiny.append_page(r00.pages()[0].clone())
        .expect("page conforms");
    let mut catalog = Catalog::new();
    catalog.insert(tiny).expect("fresh catalog");
    let tree = parse_query(&catalog, "(restrict (scan tiny) (< val 500))").expect("parses");
    let params = host_params();
    let secs = per_call(|| {
        black_box(run_host_query(&catalog, &tree, &params).expect("one-page query runs"));
    });
    report.put("host.call_floor_us", secs * 1e6, 0);
}

/// df-obs: cost of one recorded event.
pub fn obs(report: &mut Report) {
    let tracer = Tracer::new(Tracer::DEFAULT_CAPACITY);
    let secs = per_call(|| {
        for i in 0..1000u64 {
            tracer.record(EventKind::UnitDispatch, 0, 0, i, 0);
        }
    });
    report.put("obs.tracer_record_ns", secs * 1e9 / 1000.0, 1000);
}

/// Simulator substrate: `DiskCache::insert`/`read` over a seeded trace
/// twice the cache's size (so inserts evict), and `EventQueue`
/// schedule + pop.
pub fn sim_substrate(seed: u64, report: &mut Report) {
    const FRAMES: usize = 256;
    let mut stream = Stream::new(seed, 0);
    let trace: Vec<u64> = (0..4096)
        .map(|_| stream.next_u64() % (2 * FRAMES as u64))
        .collect();
    let secs = per_call(|| {
        let mut cache = DiskCache::new(CacheParams {
            frames: FRAMES,
            ..CacheParams::default()
        });
        let mut now = SimTime::ZERO;
        for &page in &trace {
            let id = PageId(page);
            let (_, done) = if cache.contains(id) {
                cache.read(now, id)
            } else {
                let (start, done, _evicted) = cache.insert(now, 0, id, PAGE_SIZE);
                (start, done)
            };
            now = done;
        }
        black_box(cache.frames_used());
    });
    report.put(
        "storage.cache_read_ns",
        secs * 1e9 / trace.len() as f64,
        trace.len(),
    );

    let times: Vec<u64> = (0..4096).map(|_| stream.next_u64() % 1_000_000).collect();
    let secs = per_call(|| {
        let mut queue: EventQueue<u32> = EventQueue::new();
        // Events may not be scheduled in the past: keep a backlog of 64
        // and schedule relative to the advancing clock.
        for (i, &t) in times.iter().enumerate() {
            queue.schedule(SimTime::from_nanos(queue.now().as_nanos() + t), i as u32);
            if queue.len() > 64 {
                black_box(queue.pop());
            }
        }
        while let Some(e) = queue.pop() {
            black_box(e);
        }
    });
    report.put(
        "sim.event_queue_ns",
        secs * 1e9 / times.len() as f64,
        times.len(),
    );
}

/// The ten paper queries as s-expression texts (what a client would
/// send): the `(start relation, joins, restricts)` shapes of
/// `df_workload::benchmark_queries`, left-deep `fk = key` chains with a
/// `val < cutoff` restrict on the first `restricts` leaves. A unit test
/// keeps them equal to the trees that function builds.
pub fn paper_query_texts(spec: &BenchmarkSpec) -> Vec<String> {
    const SHAPES: [(usize, usize, usize); 10] = [
        (0, 0, 1),
        (2, 0, 1),
        (1, 1, 2),
        (3, 1, 2),
        (5, 1, 2),
        (2, 2, 3),
        (6, 2, 3),
        (4, 3, 4),
        (7, 4, 4),
        (8, 5, 6),
    ];
    let n = spec.database.relations;
    let cutoff = spec.cutoff();
    let leaf = |rel: usize, restricted: bool| {
        let scan = format!("(scan {})", DatabaseSpec::relation_name(rel));
        if restricted {
            format!("(restrict {scan} (< val {cutoff}))")
        } else {
            scan
        }
    };
    SHAPES
        .iter()
        .map(|&(start, joins, restricts)| {
            let mut rel = start;
            let mut text = leaf(rel, restricts >= 1);
            let mut fk = String::from("fk");
            for k in 0..joins {
                rel = parent_of(rel, n);
                text = format!(
                    "(join {text} {} (= {fk} key))",
                    leaf(rel, restricts >= k + 2)
                );
                fk = format!("r_{fk}");
            }
            text
        })
        .collect()
}

/// One result relation as it would travel the wire.
pub fn wire_result(rel: &Relation) -> QueryResult {
    QueryResult {
        id: 0,
        fan_out: 1,
        schema: rel.schema().to_string(),
        tuples: rel.tuple_refs().map(|t| t.raw().to_vec()).collect(),
    }
}

/// Every probe that needs nothing but the workload's catalog and texts.
pub fn common(db: &Catalog, texts: &[String], sample: &QueryResult, report: &mut Report) {
    kernels(db, report);
    front_back(db, texts, report);
    views(db, report);
    proto(&texts[0], sample, report);
    engine_submit(db, &texts[0], report);
    obs(report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_workload::{benchmark_queries, generate_database};

    #[test]
    fn paper_query_texts_parse_to_the_workload_crates_trees() {
        let spec = BenchmarkSpec::scaled(0.02);
        let db = generate_database(&spec.database);
        let trees = benchmark_queries(&db, &spec).expect("benchmark queries build");
        let texts = paper_query_texts(&spec);
        assert_eq!(texts.len(), trees.len());
        for (text, tree) in texts.iter().zip(&trees) {
            let parsed = parse_query(&db, text).expect("text parses");
            assert_eq!(render_tree(&parsed), render_tree(tree), "{text}");
        }
    }

    #[test]
    fn per_call_reports_seconds_per_single_call() {
        let secs = per_call(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!((0.002..0.02).contains(&secs), "{secs}");
    }

    #[test]
    fn pinned_knobs_are_valid_configurations() {
        assert!(host_params().validate().is_ok());
        assert!(serve_config().validate().is_ok());
        assert_eq!(host_params().workers, 2);
        assert_eq!(serve_config().lanes, 2);
        assert_eq!(serve_config().plan_cache_capacity, 128);
        assert_eq!(host_params().page_size, 1016);
    }
}
