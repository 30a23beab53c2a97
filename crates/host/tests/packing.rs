//! A run packs straight into full-size pages: a unit allocates nothing of
//! its own, and the counters a run reports do not depend on whether a
//! tracer is installed or recording.
//!
//! The allocation tests count this thread's heap allocations (reallocations
//! included) with a counting global allocator. A one-worker call with an
//! inert fault plan spawns no helper thread — the caller serves it all —
//! so the count covers the whole call and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use df_host::{run_host_queries, run_host_query, FaultPlan, HostMetrics, HostParams, QueryStats};
use df_obs::Tracer;
use df_query::TransferMode;
use df_query::{JoinAlgo, QueryTree, TreeBuilder};
use df_relalg::{Catalog, CmpOp, DataType, Relation, Schema, Tuple, Value};
use df_workload::{benchmark_queries, generate_database, BenchmarkSpec};

/// Counts every allocation and reallocation made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A const-initialized `Cell` needs no lazy setup or destructor, so
    // touching it from inside the allocator cannot recurse.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `body` makes on this thread.
fn allocations<T>(body: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = body();
    (ALLOCS.with(Cell::get) - before, out)
}

/// 16 + 8 tuples of 16 bytes: eight `(k, v)` tuples per base page.
const BASE_PAGE: usize = 144;

fn kv_schema() -> Schema {
    Schema::build()
        .attr("k", DataType::Int)
        .attr("v", DataType::Int)
        .finish()
        .expect("two Int attributes")
}

/// `pages` full pages of `(k, v)` tuples, keys from `first_key` up.
fn kv_relation(name: &str, pages: usize, first_key: i64) -> Relation {
    let tuples =
        (0..pages as i64 * 8).map(|i| Tuple::new(vec![Value::Int(first_key + i), Value::Int(i)]));
    let rel = Relation::from_tuples(name, kv_schema(), BASE_PAGE, tuples).expect("tuples fit");
    assert_eq!(rel.num_pages(), pages);
    rel
}

fn one_relation(pages: usize) -> Catalog {
    let mut db = Catalog::new();
    db.insert(kv_relation("a", pages, 0)).expect("fresh name");
    db
}

/// `v < 0` keeps no row, `v >= 0` every row.
fn restrict(db: &Catalog, op: CmpOp) -> QueryTree {
    TreeBuilder::new(db)
        .scan("a")
        .and_then(|s| s.restrict_where("v", op, Value::Int(0)))
        .expect("restrict builds")
        .finish()
}

/// Allocations of one call of the restrict over `pages` base pages, served
/// on this thread, and the result's page count.
fn restrict_allocations(pages: usize, op: CmpOp) -> (u64, usize) {
    let db = one_relation(pages);
    let query = restrict(&db, op);
    // Built outside the count: `HostParams::default` reads the CPU count,
    // and so does this thread's first `processors()`.
    let params = HostParams::with_workers(1);
    let processors = params.processors(&db, std::slice::from_ref(&query));
    assert_eq!(processors.expect("a scans"), 0, "no helper");
    let (n, out) = allocations(|| run_host_query(&db, &query, &params));
    let (rel, metrics) = out.expect("host executes");
    assert_eq!(metrics.total_units(), pages);
    (n, rel.num_pages())
}

/// A restrict that keeps no row: the call over 128 pages allocates at most
/// a small constant more than over 64 — no unit allocates a mask, a byte
/// vector or a batch of its own.
#[test]
fn an_empty_unit_allocates_nothing() {
    let (small, pages_small) = restrict_allocations(64, CmpOp::Lt);
    let (large, pages_large) = restrict_allocations(128, CmpOp::Lt);
    assert_eq!((pages_small, pages_large), (0, 0), "no row is kept");
    assert!(
        large <= small + 8,
        "64 more empty units cost {} more allocations ({small} -> {large})",
        large.saturating_sub(small)
    );
}

/// A restrict that keeps every row: output pages (1016 bytes, 62 tuples)
/// are filled by several units each, yet each is allocated once at full
/// size — a bounded number of allocations per output page, not per unit
/// and not per regrowth.
#[test]
fn a_full_unit_allocates_per_output_page_only() {
    let (small, pages_small) = restrict_allocations(64, CmpOp::Ge);
    let (large, pages_large) = restrict_allocations(128, CmpOp::Ge);
    let more_pages = (pages_large - pages_small) as u64;
    assert!(more_pages > 0);
    assert!(
        large <= small + 3 * more_pages + 8,
        "{more_pages} more output pages cost {} more allocations ({small} -> {large})",
        large.saturating_sub(small)
    );
}

/// How a call is traced.
#[derive(Debug, Clone, Copy)]
enum Tracing {
    Absent,
    Disabled,
    Enabled,
}

impl Tracing {
    const ALL: [Tracing; 3] = [Tracing::Absent, Tracing::Disabled, Tracing::Enabled];

    fn tracer(self) -> Option<Arc<Tracer>> {
        let tracer = || Arc::new(Tracer::new(Tracer::DEFAULT_CAPACITY));
        match self {
            Tracing::Absent => None,
            Tracing::Disabled => {
                let t = tracer();
                t.set_enabled(false);
                Some(t)
            }
            Tracing::Enabled => Some(tracer()),
        }
    }
}

/// What a call must report identically however it is traced: each
/// query's result pages and its unit, span and transfer counters.
#[derive(Debug, PartialEq)]
struct Observed {
    pages: Vec<Vec<Vec<u8>>>,
    counters: Vec<[u64; 5]>,
    kernel_spans: usize,
}

/// One call under `tracing`: what it observed, and its metrics.
fn observe(
    db: &Catalog,
    queries: &[QueryTree],
    params: &HostParams,
    tracing: Tracing,
) -> (Observed, HostMetrics) {
    let params = HostParams {
        trace: tracing.tracer(),
        ..params.clone()
    };
    let out = run_host_queries(db, queries, &params).expect("host executes");
    let pages = (out.results.iter())
        .map(|r| {
            let rel = r.as_ref().expect("query succeeds");
            rel.pages().iter().map(|p| p.raw_data().to_vec()).collect()
        })
        .collect();
    let counters = (out.metrics.per_query.iter())
        .map(|q: &QueryStats| {
            [
                q.units_fired as u64,
                q.probe_units as u64,
                q.sweep_units as u64,
                q.pages_moved as u64,
                q.bytes_moved,
            ]
        })
        .collect();
    let observed = Observed {
        pages,
        counters,
        kernel_spans: out.metrics.total_kernel_spans(),
    };
    (observed, out.metrics)
}

/// Run `queries` with tracing absent, disabled and enabled, under
/// nested/materialize and hash/pipeline and at each worker count: all
/// three must agree. Returns each untraced call's worker count and
/// metrics.
fn assert_tracing_neutral(
    db: &Catalog,
    queries: &[QueryTree],
    base: &HostParams,
    workers: &[usize],
) -> Vec<(usize, HostMetrics)> {
    let configs = [
        (JoinAlgo::Nested, TransferMode::Materialize),
        (JoinAlgo::Hash, TransferMode::Pipeline),
    ];
    let mut calls = Vec::new();
    for (join, transfer) in configs {
        for &workers in workers {
            let params = HostParams {
                join,
                transfer,
                workers,
                ..base.clone()
            };
            let [absent, disabled, enabled] =
                Tracing::ALL.map(|t| observe(db, queries, &params, t));
            let at = format!("{join}/{transfer:?}, {workers} workers");
            assert_eq!(absent.0, disabled.0, "{at}: absent vs disabled tracer");
            assert_eq!(absent.0, enabled.0, "{at}: absent vs enabled tracer");
            calls.push((workers, absent.1));
        }
    }
    calls
}

/// CPUs this thread may run on: what the executor sizes its helpers by.
fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Units served by helper threads — every entry but the caller's, 0.
fn helper_units(metrics: &HostMetrics) -> usize {
    metrics.per_worker[1..].iter().map(|w| w.units).sum()
}

fn ten_queries(scale: f64) -> (Catalog, Vec<QueryTree>) {
    let spec = BenchmarkSpec::scaled(scale);
    let db = generate_database(&spec.database);
    let queries = benchmark_queries(&db, &spec).expect("benchmark queries build");
    (db, queries)
}

/// The ten benchmark queries at scale 0.01 are below the 128-page size
/// test, so the caller serves them alone at one and two workers on any
/// number of CPUs. The schedule is fixed: results page for page and every
/// counter agree.
#[test]
fn inline_counters_do_not_depend_on_tracing() {
    let (db, queries) = ten_queries(0.01);
    let calls = assert_tracing_neutral(&db, &queries, &HostParams::default(), &[1, 2]);
    for (workers, m) in calls {
        assert_eq!(helper_units(&m), 0, "{workers} workers: a helper served");
    }
}

/// Queries whose counters do not depend on run boundaries, over 320
/// operand pages (above the size test): each unit of the restrict and
/// project cells turns one full base page into one full page, a restrict
/// that keeps nothing sends nothing on, and a join that matches nothing
/// reads each page pair exactly once whichever side arrives first.
fn boundary_free_queries() -> (Catalog, [QueryTree; 3]) {
    let mut db = Catalog::new();
    db.insert(kv_relation("a", 80, 0)).expect("fresh name");
    // Keys disjoint from `a`'s: the join matches nothing.
    db.insert(kv_relation("b", 80, 1_000_000))
        .expect("fresh name");
    let b = TreeBuilder::new(&db);
    let keep_all =
        |rel: &str| (b.scan(rel)).and_then(|s| s.restrict_where("v", CmpOp::Ge, Value::Int(0)));
    let queries = [
        keep_all("a").and_then(|s| s.project(&["v", "k"], false)),
        (b.scan("b")).and_then(|s| s.restrict_where("v", CmpOp::Lt, Value::Int(0))),
        keep_all("a").and_then(|s| s.equi_join(b.scan("b")?, "k", "k")),
    ]
    .map(|q| q.expect("query builds").finish());
    (db, queries)
}

fn boundary_free_params() -> HostParams {
    HostParams {
        page_size: BASE_PAGE,
        deterministic: true,
        ..HostParams::default()
    }
}

/// An active but harmless plan — a zero delay on every unit — spawns the
/// one helper of two workers whatever the CPUs, and the idle helper takes
/// the call's first run, so a helper thread serves beside the caller even
/// on one CPU. The two split runs by timing, yet the
/// [`boundary_free_queries`] counters agree, traced or not.
#[test]
fn threaded_counters_do_not_depend_on_tracing() {
    let (db, queries) = boundary_free_queries();
    let params = HostParams {
        fault: FaultPlan {
            delay_every: Some(1),
            ..FaultPlan::default()
        },
        ..boundary_free_params()
    };
    let two = HostParams {
        workers: 2,
        ..params.clone()
    };
    let helpers = two.processors(&db, &queries).expect("queries scan");
    assert_eq!(helpers, 1, "whatever the CPUs");
    let calls = assert_tracing_neutral(&db, &queries, &params, &[2]);
    for (_, m) in calls {
        assert!(helper_units(&m) > 0, "the helper thread served");
    }
}

/// Inert, two processors — the caller and a helper thread — run only on
/// two or more CPUs, and split runs by timing too; the
/// [`boundary_free_queries`] counters must agree at two workers, traced or
/// not.
#[test]
fn threaded_counters_do_not_depend_on_tracing_at_two_workers() {
    let (db, queries) = boundary_free_queries();
    let calls = assert_tracing_neutral(&db, &queries, &boundary_free_params(), &[1, 2]);
    for (workers, m) in calls {
        let helpers = workers >= 2 && cpus() >= 2;
        assert_eq!(helper_units(&m) > 0, helpers, "{workers} workers");
    }
}
