//! One processor, several workers: the caller is processor 0 and spawns
//! min(workers, CPUs) − 1 helper threads, so on one CPU it spawns none and
//! serves every run itself, and guided self-scheduling divides a cell's
//! pending units by the processors, not by the workers — and the answers
//! stay exactly those of one worker.
//!
//! Each test pins a thread of its own to one CPU with `sched_setaffinity`
//! (declared via `extern "C"`; std already links the C library), and any
//! helper threads a call spawns inherit that set. Linux only; where the
//! kernel refuses the mask the test skips with a message.

use std::ffi::c_int;
use std::time::Duration;

use df_host::{run_host_queries, run_host_query, FaultPlan, HostMetrics, HostParams};
use df_query::TransferMode;
use df_query::{execute_readonly, ExecParams, JoinAlgo, TreeBuilder};
use df_relalg::{CmpOp, Relation, Value};
use df_workload::{benchmark_queries, generate_database, BenchmarkSpec};

/// glibc's `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
}

/// Pin the calling thread to the last CPU it may run on. Returns that CPU,
/// or `None` when the kernel refuses.
fn pin_to_one_cpu() -> Option<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return None;
    }
    let cpu = (0..64 * set.len()).rfind(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed,
    // only read by the kernel; pid 0 names the calling thread.
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0;
    pinned.then_some(cpu)
}

/// Run `body` on a fresh thread pinned to one CPU (the test harness's own
/// thread keeps its set), or skip with a message if pinning is refused.
fn on_one_cpu(body: impl FnOnce() + Send + 'static) {
    // The harness names its thread after the test.
    let name = std::thread::current().name().unwrap_or("test").to_string();
    std::thread::spawn(move || {
        let Some(cpu) = pin_to_one_cpu() else {
            eprintln!("{name}: skipped, the kernel refused a one-CPU affinity mask");
            return;
        };
        let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
        assert_eq!(cpus, 1, "pinned to CPU {cpu}, yet {cpus} CPUs are reported");
        body();
    })
    .join()
    .expect("pinned test thread panicked");
}

fn tuple_images(rel: &Relation) -> Vec<Vec<u8>> {
    rel.tuple_refs().map(|t| t.raw().to_vec()).collect()
}

fn page_images(rel: &Relation) -> Vec<Vec<u8>> {
    rel.pages().iter().map(|p| p.raw_data().to_vec()).collect()
}

/// Units served by helper threads — every entry but the caller's, 0.
fn helper_units(metrics: &HostMetrics) -> usize {
    metrics.per_worker[1..].iter().map(|w| w.units).sum()
}

/// A per-page cell over a few hundred pages, at four workers on one CPU:
/// every unit is pending at admission, so the first run takes them all and
/// the call makes exactly one dispatch. Dividing by the four workers
/// instead would take ⌈pages ÷ 4⌉ per run — at least four runs.
#[test]
fn one_cpu_serves_a_per_page_cell_in_one_run() {
    on_one_cpu(|| {
        let spec = BenchmarkSpec::scaled(0.3);
        let db = generate_database(&spec.database);
        let query = TreeBuilder::new(&db)
            .scan("r00")
            .unwrap()
            .restrict_where("val", CmpOp::Lt, Value::Int(spec.cutoff()))
            .unwrap()
            .finish();
        let pages = db.require("r00").unwrap().pages().len();
        // Above the 128-page size test: one CPU, not the call's size,
        // keeps the helpers away.
        assert!(pages > 128, "{pages} operand pages");
        let (got, metrics) =
            run_host_query(&db, &query, &HostParams::with_workers(4)).expect("host executes");
        let want = execute_readonly(&db, &query, &ExecParams::default()).expect("oracle");
        assert!(got.same_contents(&want));
        assert_eq!(metrics.total_units(), pages, "one unit per page");
        assert_eq!(metrics.total_runs(), 1, "{pages} units on one CPU");
        assert_eq!(metrics.per_worker.len(), 4, "an entry per worker");
    });
}

/// The ten queries under both join/transfer configurations, in
/// deterministic mode: at two and four workers on one CPU no helper serves
/// a unit, and the results are byte-identical, page for page, to one
/// worker's and tuple for tuple to the oracle's.
#[test]
fn one_cpu_answers_match_one_worker_and_the_oracle() {
    on_one_cpu(|| {
        let spec = BenchmarkSpec::scaled(0.05);
        let db = generate_database(&spec.database);
        let queries = benchmark_queries(&db, &spec).expect("benchmark queries build");
        let want: Vec<Vec<Vec<u8>>> = queries
            .iter()
            .map(|q| {
                let rel = execute_readonly(&db, q, &ExecParams::default()).expect("oracle");
                let mut images = tuple_images(&rel);
                images.sort_unstable();
                images
            })
            .collect();
        let configs = [
            (JoinAlgo::Nested, TransferMode::Materialize),
            (JoinAlgo::Hash, TransferMode::Pipeline),
        ];
        for (join, transfer) in configs {
            let mut first: Option<Vec<Vec<Vec<u8>>>> = None;
            for workers in [1, 2, 4] {
                let params = HostParams {
                    join,
                    transfer,
                    deterministic: true,
                    ..HostParams::with_workers(workers)
                };
                let at = format!("{join:?}/{transfer:?}, {workers} workers");
                let out = run_host_queries(&db, &queries, &params).expect("host executes");
                assert_eq!(helper_units(&out.metrics), 0, "{at}: a helper served");
                assert_eq!(out.metrics.per_worker.len(), workers, "{at}");
                let rels: Vec<_> = (out.results.iter())
                    .map(|r| r.as_ref().expect("query succeeds"))
                    .collect();
                for (i, (rel, want)) in rels.iter().zip(&want).enumerate() {
                    assert_eq!(&tuple_images(rel), want, "{at}: query {i} vs oracle");
                }
                let pages: Vec<_> = rels.iter().map(|r| page_images(r)).collect();
                match &first {
                    None => first = Some(pages),
                    Some(first) => assert_eq!(&pages, first, "{at}: pages differ from 1 worker"),
                }
            }
        }
    });
}

/// The gate for "no helper on one CPU": at two and four workers with an
/// inert fault plan, every entry but the caller's reports zero runs and
/// units, and the call makes exactly the runs and units of a one-worker
/// call, with page-identical results. An active but harmless plan (a zero
/// delay on every unit) fixes the helper count at workers − 1 whatever the
/// CPUs: the idle helper takes the first run, so entry 1 serves units
/// beside the caller, and the results still match page for page.
#[test]
fn one_cpu_spawns_no_helper() {
    on_one_cpu(|| {
        let spec = BenchmarkSpec::scaled(0.05);
        let db = generate_database(&spec.database);
        let queries = benchmark_queries(&db, &spec).expect("benchmark queries build");
        let configs = [
            (JoinAlgo::Nested, TransferMode::Materialize),
            (JoinAlgo::Hash, TransferMode::Pipeline),
        ];
        for (join, transfer) in configs {
            let params = |workers: usize, fault: FaultPlan| HostParams {
                join,
                transfer,
                deterministic: true,
                fault,
                ..HostParams::with_workers(workers)
            };
            let call = |params: &HostParams| {
                let out = run_host_queries(&db, &queries, params).expect("host executes");
                let pages: Vec<_> = (out.results.iter())
                    .map(|r| page_images(r.as_ref().expect("query succeeds")))
                    .collect();
                (pages, out.metrics)
            };
            let (want, one) = call(&params(1, FaultPlan::default()));
            for workers in [2, 4] {
                let at = format!("{join:?}/{transfer:?}, {workers} workers");
                let (pages, m) = call(&params(workers, FaultPlan::default()));
                assert_eq!(m.per_worker.len(), workers, "{at}");
                for (id, w) in m.per_worker.iter().enumerate().skip(1) {
                    assert_eq!((w.runs, w.units), (0, 0), "{at}: entry {id} served");
                }
                assert_eq!(m.total_runs(), one.total_runs(), "{at}: runs");
                assert_eq!(m.total_units(), one.total_units(), "{at}: units");
                assert_eq!(pages, want, "{at}: pages differ from 1 worker");
            }
            let harmless = FaultPlan {
                delay_every: Some(1),
                delay: std::time::Duration::ZERO,
                ..FaultPlan::default()
            };
            let at = format!("{join:?}/{transfer:?}, 2 workers, zero delays");
            let (pages, m) = call(&params(2, harmless));
            assert!(helper_units(&m) > 0, "{at}: helper 1 never served");
            assert_eq!(pages, want, "{at}: pages differ from 1 worker");
        }
    });
}

/// Join sides are written on the caller's path and timed there: a batch
/// without a join builds no side, while the ten queries under the hash
/// join index tuples, in measurable time. On one processor each side is
/// written in the same deliveries call after call, so the tuples indexed
/// repeat exactly.
#[test]
fn one_cpu_side_build_is_timed_and_repeats() {
    on_one_cpu(|| {
        let spec = BenchmarkSpec::scaled(0.05);
        let db = generate_database(&spec.database);
        let params = HostParams {
            join: JoinAlgo::Hash,
            transfer: TransferMode::Pipeline,
            ..HostParams::with_workers(2)
        };
        let restrict = |relation: &str| {
            TreeBuilder::new(&db)
                .scan(relation)
                .unwrap()
                .restrict_where("val", CmpOp::Lt, Value::Int(spec.cutoff()))
                .unwrap()
                .finish()
        };
        let join_free = [restrict("r00"), restrict("r01")];
        let m = run_host_queries(&db, &join_free, &params)
            .expect("host executes")
            .metrics;
        assert_eq!((m.side_build, m.side_tuples), (Duration::ZERO, 0));

        let queries = benchmark_queries(&db, &spec).expect("benchmark queries build");
        let calls: Vec<HostMetrics> = (0..2)
            .map(|_| {
                let out = run_host_queries(&db, &queries, &params).expect("host executes");
                assert!(out.results.iter().all(Result::is_ok));
                out.metrics
            })
            .collect();
        assert!(calls[0].side_tuples > 0, "a hash join indexes its sides");
        assert!(!calls[0].side_build.is_zero(), "side building is timed");
        assert_eq!(calls[0].side_tuples, calls[1].side_tuples);
    });
}
