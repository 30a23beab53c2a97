//! `batch-nested` and `batch-hash`: one op is one in-process
//! `run_host_queries` over the ten paper queries at scale 0.5.

use std::sync::Arc;
use std::time::Instant;

use df_core::{JoinAlgo, TransferMode};
use df_host::{run_host_queries, HostMetrics, HostParams};
use df_obs::{EventKind, Tracer};
use df_query::{execute_readonly, ExecParams, QueryTree};
use df_relalg::{Catalog, Relation};
use df_workload::{benchmark_queries, generate_database, BenchmarkSpec};

use crate::probes;
use crate::report::Report;
use crate::runner::{self, Check, Conn, Outcome, Rounds, RunArgs, SetupClock};
use crate::trace::{self, SpanBuf};
use crate::yardstick::Yardstick;

const SCALE: f64 = 0.5;
/// One op (100–200 ms) is one round; every op does the same work.
const PLAN: Rounds = Rounds { ops: 1, cycle: 1 };

/// A relation's tuple images in canonical (lexicographic) order — the
/// order deterministic mode serves, and the form every byte-for-byte
/// comparison against the oracle uses.
pub fn sorted_images(rel: &Relation) -> Vec<Vec<u8>> {
    let mut images: Vec<Vec<u8>> = rel.tuple_refs().map(|t| t.raw().to_vec()).collect();
    images.sort_unstable();
    images
}

/// Sums of `HostMetrics` over the ops a connection ran.
#[derive(Debug, Default, Clone)]
pub struct HostTotals {
    pub calls: u64,
    pub elapsed_s: f64,
    pub units: u64,
    pub probe_units: u64,
    pub sweep_units: u64,
    pub kernel_spans: u64,
    pub bytes_moved: u64,
    pub busy_s: f64,
    pub send_wait_s: f64,
    pub util: f64,
    pub failed_units: u64,
    pub requeued_units: u64,
    pub result_bytes: u64,
}

impl HostTotals {
    /// Fold one call's metrics in.
    pub fn add(&mut self, m: &HostMetrics) {
        self.calls += 1;
        self.elapsed_s += m.elapsed.as_secs_f64();
        self.units += m.total_units() as u64;
        self.kernel_spans += m.total_kernel_spans() as u64;
        self.util += m.worker_utilization();
        for q in &m.per_query {
            self.probe_units += q.probe_units as u64;
            self.sweep_units += q.sweep_units as u64;
            self.bytes_moved += q.bytes_moved;
            self.failed_units += q.failed_units as u64;
            self.requeued_units += q.requeued_units as u64;
            self.result_bytes += q.result_payload_bytes;
        }
        for w in &m.per_worker {
            self.busy_s += w.busy.as_secs_f64();
            self.send_wait_s += w.send_wait.as_secs_f64();
        }
    }

    /// Print the `host.*` executor metrics as per-call means.
    /// `oracle_ms` is the sequential oracle's time for the same queries.
    pub fn put(&self, oracle_ms: f64, report: &mut Report) {
        let n = self.calls as usize;
        let per = |x: f64| x / self.calls.max(1) as f64;
        let batch_ms = per(self.elapsed_s) * 1e3;
        let busy_ms = per(self.busy_s) * 1e3;
        report.put("host.batch_ms", batch_ms, n);
        report.put("host.units", per(self.units as f64), n);
        report.put("host.probe_units", per(self.probe_units as f64), n);
        report.put("host.sweep_units", per(self.sweep_units as f64), n);
        report.put("host.kernel_spans", per(self.kernel_spans as f64), n);
        report.put(
            "host.bytes_moved_mib",
            per(self.bytes_moved as f64) / (1024.0 * 1024.0),
            n,
        );
        report.put("host.worker_busy_ms", busy_ms, n);
        report.put("host.worker_util", per(self.util), n);
        report.put("host.send_wait_ms", per(self.send_wait_s) * 1e3, n);
        // Wall time no worker spent in a kernel, were the busy time
        // spread evenly: scheduling, transfer, spawn and teardown.
        report.put(
            "host.sched_gap_ms",
            batch_ms - busy_ms / probes::WORKERS as f64,
            n,
        );
        report.put("host.failed_units", per(self.failed_units as f64), n);
        report.put("host.requeued_units", per(self.requeued_units as f64), n);
        report.put("host.speedup_vs_oracle", oracle_ms / batch_ms, n);
    }
}

/// The program's own tracer of one traced op, kept until the timed phase
/// is over: copying its events out is the benchmark's work, not the op's.
struct OpTracer {
    tracer: Arc<Tracer>,
    /// Span-buffer time at which the tracer was created (its epoch).
    base_ns: u64,
    /// The `host.run_host_queries` span the kernel spans hang under.
    parent: Option<u32>,
    op: u64,
}

struct BatchConn<'a> {
    db: &'a Catalog,
    queries: &'a [QueryTree],
    params: HostParams,
    reference: &'a [Vec<Vec<u8>>],
    spans: SpanBuf,
    next_op: u64,
    host: HostTotals,
    op_tracers: Vec<OpTracer>,
}

impl BatchConn<'_> {
    /// Turn the kept tracers' kernel events into child spans of their
    /// ops' host calls.
    fn drain_kernel_spans(&mut self) {
        for t in self.op_tracers.drain(..) {
            for e in t.tracer.snapshot().of_kind(EventKind::KernelEnd) {
                let name = match e.a {
                    1 => "query.ops.join_probe",
                    2 => "query.ops.join_sweep",
                    _ => "query.ops.unary",
                };
                let end = t.base_ns + e.t_ns;
                self.spans
                    .push_closed(name, end.saturating_sub(e.b), end, t.parent, t.op);
            }
        }
    }
}

impl Conn for BatchConn<'_> {
    fn op(&mut self, _index: usize, check: Check) -> bool {
        let op = self.next_op;
        self.next_op += 1;
        let whole = self.spans.open("bench.op", op);
        let mut params = self.params.clone();
        // A traced op installs the program's own tracer (an empty ring:
        // creating it allocates nothing), whose kernel spans become
        // children of the host call's span once the timed phase is over.
        let tracer = self.spans.is_on().then(|| Arc::new(Tracer::new(1 << 18)));
        let base_ns = self.spans.now_ns();
        params.trace = tracer.clone();
        let call = self.spans.open("host.run_host_queries", op);
        let out = run_host_queries(self.db, self.queries, &params);
        self.spans.close(call);
        if let Some(tracer) = tracer {
            self.op_tracers.push(OpTracer {
                tracer,
                base_ns,
                parent: call,
                op,
            });
        }
        let ok = match out {
            Ok(out) => {
                self.host.add(&out.metrics);
                out.results.len() == self.reference.len()
                    && out.results.iter().zip(self.reference).all(|(got, want)| {
                        got.as_ref().is_ok_and(|rel| match check {
                            Check::Counts => rel.num_tuples() == want.len(),
                            Check::Bytes => sorted_images(rel) == *want,
                        })
                    })
            }
            Err(_) => false,
        };
        self.spans.close(whole);
        ok
    }

    fn spans(&mut self) -> &mut SpanBuf {
        &mut self.spans
    }
}

/// Everything one set-up builds: the database, the ten queries and
/// their oracle references, verified by a warm-up round.
struct Setup {
    db: Catalog,
    queries: Vec<QueryTree>,
    oracle: Vec<Relation>,
    reference: Vec<Vec<Vec<u8>>>,
    dbgen_ms: f64,
    queries_build_ms: f64,
    oracle_ms: f64,
}

impl Setup {
    fn conn(&self, params: &HostParams, args: &RunArgs) -> BatchConn<'_> {
        BatchConn {
            db: &self.db,
            queries: &self.queries,
            params: params.clone(),
            reference: &self.reference,
            spans: SpanBuf::new(args.started),
            next_op: 0,
            host: HostTotals::default(),
            op_tracers: Vec::new(),
        }
    }
}

fn setup(
    params: &HostParams,
    warmup_ops: usize,
    args: &RunArgs,
    clock: &mut SetupClock,
) -> Result<Setup, String> {
    let spec = BenchmarkSpec::scaled(SCALE);
    let t = Instant::now();
    let db = generate_database(&spec.database);
    let dbgen_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let queries = benchmark_queries(&db, &spec).map_err(|e| format!("queries: {e}"))?;
    let queries_build_ms = t.elapsed().as_secs_f64() * 1e3;
    clock.lap();

    let exec = ExecParams {
        page_size: params.page_size,
        ..ExecParams::default()
    };
    let t = Instant::now();
    let oracle: Vec<Relation> = queries
        .iter()
        .map(|q| execute_readonly(&db, q, &exec).map_err(|e| format!("oracle: {e}")))
        .collect::<Result<_, _>>()?;
    let oracle_ms = t.elapsed().as_secs_f64() * 1e3;
    let reference = oracle.iter().map(sorted_images).collect();
    clock.lap();
    let setup = Setup {
        db,
        queries,
        oracle,
        reference,
        dbgen_ms,
        queries_build_ms,
        oracle_ms,
    };
    // Verified warm-up: every result byte-for-byte against the oracle.
    let failed = clock.warm_up(
        &mut [setup.conn(params, args)],
        PLAN,
        warmup_ops,
        Check::Bytes,
    );
    if failed > 0 {
        return Err(format!("{failed} warm-up ops diverged from the oracle"));
    }
    Ok(setup)
}

/// Run one batch workload.
pub fn run(workload: &'static str, args: &RunArgs, report: &mut Report) -> Result<Outcome, String> {
    // Verified warm-up ops sized so that a set-up takes about a second.
    let (join, transfer, warmup_ops) = match workload {
        "batch-nested" => (JoinAlgo::Nested, TransferMode::Materialize, 6),
        _ => (JoinAlgo::Hash, TransferMode::Pipeline, 9),
    };
    let params = HostParams {
        join,
        transfer,
        ..probes::host_params()
    };
    report.note(&format!(
        "knobs: scale {SCALE}, workers {}, page {} B, join {join}, transfer {transfer}, \
         1 caller (closed loop), round = 1 op, warm-up = {warmup_ops} ops",
        params.workers, params.page_size
    ));

    let mut yard = Yardstick::new();
    let (s, setup_time) = runner::timed_setup(args, &mut yard, |clock| {
        setup(&params, warmup_ops, args, clock)
    })?;
    let mut conns = [s.conn(&params, args)];
    let rounds = runner::run_timed(&mut conns, PLAN, args, None, &mut yard)?;
    let outcome = runner::tally(&rounds);

    if !args.trace {
        let rss = crate::procfs::peak_rss_mib(None)?;
        runner::put_end_to_end(report, setup_time, &rounds, rss);
        return Ok(outcome);
    }

    // A traced batch round is exactly "HostParams.trace set", so here
    // `trace.overhead_ratio` is also the PERF-OBS bar.
    runner::put_round_layers(report, &rounds);
    conns[0].drain_kernel_spans();
    let timed_s: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let host = conns[0].host.clone();
    host.put(s.oracle_ms, report);
    report.put(
        "client.result_mib_s",
        host.result_bytes as f64 / (1024.0 * 1024.0) / timed_s,
        host.calls as usize,
    );

    report.put("workload.dbgen_ms", s.dbgen_ms, 0);
    report.put("workload.queries_build_ms", s.queries_build_ms, 0);
    report.put("query.oracle_batch_ms", s.oracle_ms, s.queries.len());
    let texts = probes::paper_query_texts(&BenchmarkSpec::scaled(SCALE));
    probes::common(&s.db, &texts, &probes::wire_result(&s.oracle[0]), report);
    probes::host_call_floor(&s.db, report);

    trace::finish(workload, args, &[("caller", &conns[0].spans)])?;
    Ok(outcome)
}
