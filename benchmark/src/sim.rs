//! `sim-paper`: host time of the paper reproduction. One op is one
//! page-granularity `df_core::run_queries` (16 processors, cache at a
//! third of the database — the Fig 3.1 regime) plus one
//! `df_ring::run_ring_queries` (8 ICs × 30 IPs, 16 KB pages — the Fig 4.2
//! point) over the ten queries at scale 0.2. Every simulated statistic is
//! pinned in `pins.json`: a change meant to speed the simulators up must
//! leave them identical. `--seed` does not alter the inputs.

use std::collections::BTreeMap;
use std::time::Instant;

use df_core::{run_queries, AllocationStrategy, Granularity, MachineParams, Metrics};
use df_obs::JsonValue;
use df_query::{execute_readonly, ExecParams, QueryTree};
use df_relalg::{Catalog, Relation};
use df_ring::{run_ring_queries, RingMetrics, RingParams};
use df_workload::{benchmark_queries, generate_database, BenchmarkSpec};

use crate::batch::sorted_images;
use crate::probes;
use crate::report::Report;
use crate::runner::{self, Check, Conn, Outcome, Rounds, RunArgs, SetupClock};
use crate::trace::{self, SpanBuf};
use crate::yardstick::Yardstick;

const SCALE: f64 = 0.2;
/// Every op does the same work (~40 ms); five make a round.
const PLAN: Rounds = Rounds { ops: 5, cycle: 1 };
/// Verified rounds every set-up ends with.
const WARMUP_ROUNDS: usize = 6;
const CORE_PROCESSORS: usize = 16;
const RING_ICS: usize = 8;
const RING_IPS: usize = 30;
const RING_PAGE_SIZE: usize = 16 * 1024;
const MIB: f64 = 1024.0 * 1024.0;

/// The committed exact statistics (`df-benchmark pins` regenerates them).
const PINS: &str = include_str!("../pins.json");

struct Machine<P> {
    db: Catalog,
    queries: Vec<QueryTree>,
    params: P,
}

struct Setup {
    core: Machine<MachineParams>,
    ring: Machine<RingParams>,
    dbgen_ms: f64,
    queries_build_ms: f64,
}

fn setup() -> Result<Setup, String> {
    let build = |page_size: usize| -> Result<(Catalog, Vec<QueryTree>, f64, f64), String> {
        let mut spec = BenchmarkSpec::scaled(SCALE);
        spec.database.page_size = page_size;
        let t = Instant::now();
        let db = generate_database(&spec.database);
        let dbgen_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let queries = benchmark_queries(&db, &spec).map_err(|e| format!("queries: {e}"))?;
        Ok((db, queries, dbgen_ms, t.elapsed().as_secs_f64() * 1e3))
    };

    let (db, queries, dbgen_ms, queries_build_ms) = build(probes::PAGE_SIZE)?;
    let mut params = MachineParams::with_processors(CORE_PROCESSORS);
    params.cache.frames = (db.total_bytes() / params.page_size / 3).max(16);
    let core = Machine {
        db,
        queries,
        params,
    };

    // Figure 4.2 assumes 16 KB operands, so the source relations are
    // paged at 16 KB too; the cache holds the working database and the
    // read-only benchmark runs without concurrency control.
    let (db, queries, _, _) = build(RING_PAGE_SIZE)?;
    let mut params = RingParams::with_pools(RING_ICS, RING_IPS);
    params.page_size = RING_PAGE_SIZE;
    params.cache.frames = (db.total_bytes() / params.page_size * 2).max(64);
    params.ic_memory_pages = 32;
    params.ip_memory_pages = 4;
    params.concurrency_control = false;
    params.rebroadcast_window = params
        .outer_transit(params.page_size + 64)
        .saturating_mul(2);
    let ring = Machine {
        db,
        queries,
        params,
    };
    Ok(Setup {
        core,
        ring,
        dbgen_ms,
        queries_build_ms,
    })
}

type Stats = BTreeMap<String, u64>;

fn result_tuples(results: &[Relation]) -> u64 {
    results.iter().map(|r| r.num_tuples() as u64).sum()
}

/// Every exact statistic of a df-core run, as integers.
fn core_stats(m: &Metrics, results: &[Relation], into: &mut Stats) {
    let mut put = |k: &str, v: u64| {
        into.insert(format!("core.{k}"), v);
    };
    put("elapsed_ns", m.elapsed.as_nanos());
    put("proc_busy_ns", m.proc_busy.as_nanos());
    put("units_dispatched", m.units_dispatched);
    put("arbitration_bytes", m.arbitration.bytes);
    put("arbitration_transfers", m.arbitration.transfers);
    put("distribution_bytes", m.distribution.bytes);
    put("distribution_transfers", m.distribution.transfers);
    put("disk_read_bytes", m.disk_read.bytes);
    put("disk_write_bytes", m.disk_write.bytes);
    put("cache_in_bytes", m.cache_in.bytes);
    put("cache_out_bytes", m.cache_out.bytes);
    put(
        "query_completions_sum_ns",
        m.query_completions.iter().map(|t| t.as_nanos()).sum(),
    );
    put("result_tuples", result_tuples(results));
}

/// Every exact statistic of a df-ring run, as integers.
fn ring_stats(m: &RingMetrics, results: &[Relation], into: &mut Stats) {
    let mut put = |k: &str, v: u64| {
        into.insert(format!("ring.{k}"), v);
    };
    put("elapsed_ns", m.elapsed.as_nanos());
    put("ip_busy_ns", m.ip_busy.as_nanos());
    put("inner_ring_bytes", m.inner_ring.bytes);
    put("outer_ring_bytes", m.outer_ring.bytes);
    put("outer_ring_transfers", m.outer_ring.transfers);
    put("disk_read_bytes", m.disk_read.bytes);
    put("disk_write_bytes", m.disk_write.bytes);
    put("cache_in_bytes", m.cache_in.bytes);
    put("cache_out_bytes", m.cache_out.bytes);
    put("instruction_packets", m.instruction_packets);
    put("result_packets", m.result_packets);
    put("control_packets", m.control_packets);
    put("broadcasts", m.broadcasts);
    put("requests_ignored", m.requests_ignored);
    put("pages_missed", m.pages_missed);
    put("peak_busy_ips", m.peak_busy_ips);
    put(
        "query_completions_sum_ns",
        m.query_completions.iter().map(|t| t.as_nanos()).sum(),
    );
    put("result_tuples", result_tuples(results));
}

fn parse_pins() -> Result<Stats, String> {
    let JsonValue::Obj(map) = JsonValue::parse(PINS).map_err(|e| format!("pins.json: {e}"))? else {
        return Err("pins.json: not an object".into());
    };
    map.into_iter()
        .map(|(k, v)| {
            v.as_u64()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("pins.json: `{k}` is not a whole number"))
        })
        .collect()
}

/// One op's worth of simulation: `(stats, core results, ring results,
/// core metrics, ring metrics, core host seconds, ring host seconds)`.
struct OpOutput {
    stats: Stats,
    core_results: Vec<Relation>,
    ring_results: Vec<Relation>,
    core: Metrics,
    ring: RingMetrics,
    core_host_s: f64,
    ring_host_s: f64,
}

fn simulate(s: &Setup, op: u64, spans: &mut SpanBuf) -> Result<OpOutput, String> {
    let span = spans.open("core.run_queries", op);
    let t = Instant::now();
    let core = run_queries(
        &s.core.db,
        &s.core.queries,
        &s.core.params,
        Granularity::Page,
        AllocationStrategy::default(),
    )
    .map_err(|e| format!("df-core: {e}"))?;
    let core_host_s = t.elapsed().as_secs_f64();
    spans.close(span);

    let span = spans.open("ring.run_ring_queries", op);
    let t = Instant::now();
    let ring = run_ring_queries(&s.ring.db, &s.ring.queries, &s.ring.params)
        .map_err(|e| format!("df-ring: {e}"))?;
    let ring_host_s = t.elapsed().as_secs_f64();
    spans.close(span);

    let mut stats = Stats::new();
    core_stats(&core.metrics, &core.results, &mut stats);
    ring_stats(&ring.metrics, &ring.results, &mut stats);
    Ok(OpOutput {
        stats,
        core_results: core.results,
        ring_results: ring.results,
        core: core.metrics,
        ring: ring.metrics,
        core_host_s,
        ring_host_s,
    })
}

/// `pins.json` regenerated from one op.
pub fn render_pins() -> Result<String, String> {
    let s = setup()?;
    let out = simulate(&s, 0, &mut SpanBuf::new(Instant::now()))?;
    let mut root = JsonValue::obj();
    for (k, v) in &out.stats {
        root.set(k, *v);
    }
    Ok(root.to_pretty())
}

struct SimConn<'a> {
    setup: &'a Setup,
    pins: &'a Stats,
    reference: &'a [Vec<Vec<u8>>],
    spans: SpanBuf,
    next_op: u64,
    core_host_s: f64,
    ring_host_s: f64,
    result_bytes: u64,
    last: Option<(Metrics, RingMetrics)>,
    pins_matched: usize,
}

impl Conn for SimConn<'_> {
    fn op(&mut self, _index: usize, check: Check) -> bool {
        let op = self.next_op;
        self.next_op += 1;
        let whole = self.spans.open("bench.op", op);
        let ok = match simulate(self.setup, op, &mut self.spans) {
            Ok(out) => {
                self.core_host_s += out.core_host_s;
                self.ring_host_s += out.ring_host_s;
                self.pins_matched = self
                    .pins
                    .iter()
                    .filter(|(k, v)| out.stats.get(*k) == Some(v))
                    .count();
                let results_ok = [&out.core_results, &out.ring_results]
                    .iter()
                    .all(|results| {
                        results.len() == self.reference.len()
                            && results
                                .iter()
                                .zip(self.reference)
                                .all(|(got, want)| match check {
                                    Check::Counts => got.num_tuples() == want.len(),
                                    Check::Bytes => sorted_images(got) == *want,
                                })
                    });
                self.result_bytes += out
                    .core_results
                    .iter()
                    .chain(&out.ring_results)
                    .map(|r| (r.num_tuples() * r.schema().tuple_width()) as u64)
                    .sum::<u64>();
                self.last = Some((out.core, out.ring));
                results_ok && out.stats == *self.pins
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

/// Everything one set-up builds: both machines with their databases,
/// the pins and the oracle references, verified by a warm-up round.
struct Prepared {
    setup: Setup,
    pins: Stats,
    oracle: Vec<Relation>,
    reference: Vec<Vec<Vec<u8>>>,
    oracle_ms: f64,
}

impl Prepared {
    fn conn(&self, args: &RunArgs) -> SimConn<'_> {
        SimConn {
            setup: &self.setup,
            pins: &self.pins,
            reference: &self.reference,
            spans: SpanBuf::new(args.started),
            next_op: 0,
            core_host_s: 0.0,
            ring_host_s: 0.0,
            result_bytes: 0,
            last: None,
            pins_matched: 0,
        }
    }
}

fn prepare(args: &RunArgs, clock: &mut SetupClock) -> Result<Prepared, String> {
    let setup = setup()?;
    let pins = parse_pins()?;
    clock.lap();
    let exec = ExecParams {
        page_size: probes::PAGE_SIZE,
        ..ExecParams::default()
    };
    let t = Instant::now();
    let oracle: Vec<Relation> = setup
        .core
        .queries
        .iter()
        .map(|q| execute_readonly(&setup.core.db, q, &exec).map_err(|e| format!("oracle: {e}")))
        .collect::<Result<_, _>>()?;
    let oracle_ms = t.elapsed().as_secs_f64() * 1e3;
    let reference = oracle.iter().map(sorted_images).collect();
    clock.lap();
    let p = Prepared {
        setup,
        pins,
        oracle,
        reference,
        oracle_ms,
    };
    let mut conns = [p.conn(args)];
    let failed = clock.warm_up(&mut conns, PLAN, WARMUP_ROUNDS, Check::Bytes);
    if failed > 0 {
        return Err(format!(
            "{failed} warm-up ops diverged: results differ from the oracle, or \
             simulated statistics from pins.json ({} of {} pins matched; after a deliberate \
             model change regenerate them with `bash benchmark/run.sh pins > benchmark/pins.json`)",
            conns[0].pins_matched,
            p.pins.len()
        ));
    }
    Ok(p)
}

/// Run `sim-paper`.
pub fn run(workload: &'static str, args: &RunArgs, report: &mut Report) -> Result<Outcome, String> {
    report.note(&format!(
        "knobs: scale {SCALE}, df-core {CORE_PROCESSORS} processors page-level \
         cache 1/3 DB {} B pages, df-ring {RING_ICS} ICs x {RING_IPS} IPs {RING_PAGE_SIZE} B pages, \
         1 caller (closed loop), round = {} ops, warm-up = {WARMUP_ROUNDS} rounds",
        probes::PAGE_SIZE,
        PLAN.ops
    ));
    let mut yard = Yardstick::new();
    let (p, setup_time) = runner::timed_setup(args, &mut yard, |clock| prepare(args, clock))?;
    let mut conns = [p.conn(args)];
    let rounds = runner::run_timed(&mut conns, PLAN, args, None, &mut yard)?;
    let outcome = runner::tally(&rounds);

    if !args.trace {
        let rss = crate::procfs::peak_rss_mib(None)?;
        runner::put_end_to_end(report, setup_time, &rounds, rss);
        return Ok(outcome);
    }

    runner::put_round_layers(report, &rounds);
    let c = &conns[0];
    let ops = c.next_op as f64;
    let (core_s, ring_s) = (c.core_host_s, c.ring_host_s);
    let timed_s: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let (core, ring) = c.last.as_ref().expect("at least one op ran");
    report.put("core.sim_run_ms", core_s * 1e3 / ops, ops as usize);
    report.put(
        "core.units_per_host_s",
        core.units_dispatched as f64 * ops / core_s,
        ops as usize,
    );
    report.put("ring.sim_run_ms", ring_s * 1e3 / ops, ops as usize);
    let packets = ring.instruction_packets + ring.result_packets + ring.control_packets;
    report.put(
        "ring.packets_per_host_s",
        packets as f64 * ops / ring_s,
        ops as usize,
    );
    report.put("core.sim_elapsed_ms", core.elapsed.as_millis_f64(), 0);
    report.put("core.proc_util", core.processor_utilization(), 0);
    report.put(
        "core.arbitration_mib",
        core.arbitration.bytes as f64 / MIB,
        0,
    );
    report.put(
        "core.distribution_mib",
        core.distribution.bytes as f64 / MIB,
        0,
    );
    report.put("ring.sim_elapsed_ms", ring.elapsed.as_millis_f64(), 0);
    report.put("ring.ip_util", ring.ip_utilization(), 0);
    report.put("ring.outer_ring_mbps", ring.outer_ring_mbps(), 0);
    report.put("ring.inner_ring_mbps", ring.inner_ring_mbps(), 0);
    report.put(
        "storage.disk_read_mib",
        core.disk_read.bytes as f64 / MIB,
        0,
    );
    report.put("storage.cache_in_mib", core.cache_in.bytes as f64 / MIB, 0);
    report.put("sim.digest_ok", c.pins_matched as f64, p.pins.len());
    report.put(
        "client.result_mib_s",
        c.result_bytes as f64 / MIB / timed_s,
        ops as usize,
    );
    report.put("workload.dbgen_ms", p.setup.dbgen_ms, 0);
    report.put("workload.queries_build_ms", p.setup.queries_build_ms, 0);
    report.put("query.oracle_batch_ms", p.oracle_ms, p.oracle.len());

    probes::sim_substrate(args.seed, report);
    let texts = probes::paper_query_texts(&BenchmarkSpec::scaled(SCALE));
    probes::common(
        &p.setup.core.db,
        &texts,
        &probes::wire_result(&p.oracle[0]),
        report,
    );

    trace::finish(workload, args, &[("caller", &c.spans)])?;
    Ok(outcome)
}
