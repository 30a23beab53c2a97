//! Regenerate every table and figure of Boral & DeWitt 1980 at full scale
//! (the 5.5 MB, 15-relation database and the ten-query benchmark), plus
//! the ablations recorded in `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run --release -p df-bench --bin experiments            # everything
//! cargo run --release -p df-bench --bin experiments -- fig3_1  # one table
//! cargo run --release -p df-bench --bin experiments -- --join hash fig3_1
//! cargo run --release -p df-bench --bin experiments -- \
//!     --scale 0.05 --json artifacts fig4_2 perf_pipe   # CI perf-smoke mode
//! ```
//!
//! The tables are [`TABLES`]; any other name is an error. Every number
//! printed is simulated time or a counted quantity, deterministic in the
//! seed — host time is measured by `bash benchmark/run.sh`, not here. The
//! flag `--join {nested,hash}` switches the join algorithm of the machine
//! configurations built in `main` (default `nested`, the paper's choice);
//! `--scale F` shrinks the database (default 1.0, the paper's 5.5 MB);
//! `--json DIR` additionally serializes the `fig3_1`, `fig4_2` and
//! `perf_pipe` tables into `DIR/BENCH_<name>.json` artifacts
//! (DESIGN.md §7).

use std::path::{Path, PathBuf};

use df_bench::report::{ring_artifact, sweep_artifact, write_artifact};
use df_bench::{
    fig31_params, fig42_params, run_core, run_ring, setup, setup_with_page_size, BenchSetup,
};
use df_core::{bandwidth, run_queries, AllocationStrategy, Granularity, JoinAlgo, MachineParams};
use df_obs::SweepRow;
use df_workload::{benchmark_queries, chain_query, generate_database, VAL_DOMAIN};

/// Every table this binary prints, in print order.
const TABLES: [&str; 11] = [
    "fig3_1",
    "sec3_3",
    "fig4_2",
    "abl_pgsz",
    "abl_alloc",
    "abl_bcast",
    "abl_route",
    "abl_proj",
    "abl_multi",
    "abl_opt",
    "perf_pipe",
];

fn main() {
    let mut join = JoinAlgo::default();
    let mut scale = 1.0f64;
    let mut json_dir: Option<PathBuf> = None;
    let mut which: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| {
        args.next().unwrap_or_else(|| {
            eprintln!("experiments: {flag} needs a value");
            std::process::exit(2);
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--join" => {
                join = value("--join", &mut args)
                    .parse()
                    .unwrap_or_else(|e: String| {
                        eprintln!("experiments: {e}");
                        std::process::exit(2);
                    });
            }
            "--scale" => {
                let v = value("--scale", &mut args);
                scale = v.parse().unwrap_or_else(|_| {
                    eprintln!("experiments: bad value `{v}` for --scale");
                    std::process::exit(2);
                });
            }
            "--json" => json_dir = Some(PathBuf::from(value("--json", &mut args))),
            _ if TABLES.contains(&a.as_str()) => which.push(a),
            _ => {
                eprintln!(
                    "experiments: unknown table `{a}` (one of: {})",
                    TABLES.join(" ")
                );
                std::process::exit(2);
            }
        }
    }
    let want = |name: &str| which.is_empty() || which.iter().any(|w| w == name);
    let json_dir = json_dir.as_deref();

    println!("=== dataflow-dbm experiment harness (scale {scale}: 10 queries) ===");
    let mut s = setup(scale);
    s.join = join;
    let s = s;
    println!(
        "database: {} relations, {} bytes, {} tuples\n",
        s.db.len(),
        s.db.total_bytes(),
        s.db.total_tuples()
    );

    if want("fig3_1") {
        fig3_1(&s, json_dir);
    }
    if want("sec3_3") {
        sec3_3();
    }
    if want("fig4_2") {
        // Figure 4.2's stated assumption: 16 KB operand pages.
        let mut s16 = setup_with_page_size(scale, 16 * 1024);
        s16.join = join;
        fig4_2(&s16, json_dir);
    }
    if want("abl_pgsz") {
        abl_pgsz(&s);
    }
    if want("abl_alloc") {
        abl_alloc(&s);
    }
    if want("abl_bcast") {
        abl_bcast(&s);
    }
    if want("abl_route") {
        abl_route(&s);
    }
    if want("abl_proj") {
        abl_proj();
    }
    if want("abl_multi") {
        abl_multi();
    }
    if want("abl_opt") {
        abl_opt();
    }
    if want("perf_pipe") {
        perf_pipe(scale.min(0.2), json_dir);
    }
}

/// Write `artifact` into the `--json` directory, if one was given.
fn emit(json_dir: Option<&Path>, artifact: &df_obs::BenchArtifact) {
    let Some(dir) = json_dir else { return };
    match write_artifact(dir, artifact) {
        Ok(path) => println!("json: wrote {}", path.display()),
        Err(e) => {
            eprintln!(
                "experiments: cannot write artifact `{}`: {e}",
                artifact.name
            );
            std::process::exit(2);
        }
    }
}

/// PERF-PIPE: fused pipelined spans vs the paper's per-cell page
/// materialization, by what each moves: the ten pipeline-bearing queries
/// in both transfer modes × both join algorithms on the real-threads
/// executor, and on the ring machine where the saved intermediate-page
/// traffic shows up as outer-ring bytes. (Kernel throughput is the
/// benchmark's `query.ops.{restrict,project,span}_mib_s`.)
fn perf_pipe(scale: f64, json_dir: Option<&Path>) {
    use df_bench::report::series_row;
    use df_core::TransferMode;
    use df_host::{run_host_queries, HostParams};
    use df_ring::run_ring_queries;
    use df_workload::pipeline_queries;

    println!(
        "--- PERF-PIPE: pipelined spans vs per-cell materialization (scale {scale}, 4096 B pages)"
    );
    let s = setup_with_page_size(scale, 4096);
    let queries = pipeline_queries(&s.db, &s.spec).expect("pipeline suite builds");

    // End to end on the real-threads executor: both modes must agree on
    // every answer (deterministic canonical pages) while pipeline mode
    // moves strictly fewer bytes on this chain-bearing suite.
    let mut rows = Vec::new();
    let mut counters: Vec<(String, f64)> = Vec::new();
    println!(
        "host (ten pipeline-bearing queries, {} workers):",
        HostParams::default().workers
    );
    for join in JoinAlgo::ALL {
        let mut bytes_by_mode = Vec::new();
        for transfer in TransferMode::ALL {
            let params = HostParams {
                page_size: 4096,
                join,
                transfer,
                deterministic: true,
                ..HostParams::default()
            };
            let out = run_host_queries(&s.db, &queries, &params).expect("host run");
            let m = &out.metrics;
            println!(
                "  {join:<6} {transfer:<11}  elapsed {:>8.2?}  units {:>6} (spans {:>6})  \
                 moved {:>9.1} KB",
                m.elapsed,
                m.total_units(),
                m.total_kernel_spans(),
                m.total_bytes() as f64 / 1024.0
            );
            rows.push(SweepRow {
                label: format!("host_{join}_{transfer}"),
                values: vec![
                    ("elapsed_secs".into(), m.elapsed.as_secs_f64()),
                    ("units".into(), m.total_units() as f64),
                    ("kernel_spans".into(), m.total_kernel_spans() as f64),
                    ("bytes_moved".into(), m.total_bytes() as f64),
                ],
            });
            counters.push((
                format!("host_bytes_{join}_{transfer}"),
                m.total_bytes() as f64,
            ));
            bytes_by_mode.push(m.total_bytes());
        }
        assert!(
            bytes_by_mode[1] < bytes_by_mode[0],
            "pipeline mode must move strictly fewer bytes than materialize \
             ({} vs {}, {join} join)",
            bytes_by_mode[1],
            bytes_by_mode[0],
        );
        println!(
            "  {join:<6} saved: {:.1} KB of intermediate-page traffic ({:.1}%)",
            (bytes_by_mode[0] - bytes_by_mode[1]) as f64 / 1024.0,
            100.0 * (bytes_by_mode[0] - bytes_by_mode[1]) as f64 / bytes_by_mode[0] as f64,
        );
    }

    // Ring machine: the eliminated intermediate pages are outer-ring
    // traffic; keep the per-path bandwidth-demand curves of both modes.
    println!("ring (8 ICs x 30 IPs):");
    let mut series = Vec::new();
    let mut ring_bytes = Vec::new();
    for transfer in TransferMode::ALL {
        let mut params = fig42_params(&s, 30);
        params.transfer = transfer;
        let m = run_ring_queries(&s.db, &queries, &params)
            .expect("ring run")
            .metrics;
        println!(
            "  {transfer:<11}  elapsed {:>8.3}s  outer ring {:>8} KB ({:>6.2} Mbps)",
            m.elapsed.as_secs_f64(),
            m.outer_ring.bytes / 1024,
            m.outer_ring_mbps(),
        );
        rows.push(SweepRow {
            label: format!("ring_{transfer}"),
            values: vec![
                ("elapsed_secs".into(), m.elapsed.as_secs_f64()),
                ("outer_ring_bytes".into(), m.outer_ring.bytes as f64),
                ("outer_ring_mbps".into(), m.outer_ring_mbps()),
            ],
        });
        for (path, curve) in m.bandwidth_series() {
            if let Some(mut r) = series_row(path, curve) {
                r.path = format!("{transfer}/{path}");
                series.push(r);
            }
        }
        ring_bytes.push(m.outer_ring.bytes);
    }
    assert!(
        ring_bytes[1] < ring_bytes[0],
        "pipeline mode must shrink outer-ring traffic ({} vs {})",
        ring_bytes[1],
        ring_bytes[0],
    );

    let mut a = sweep_artifact("pipeline", rows);
    a.param("scale", scale)
        .param("page_size", 4096)
        .param("queries", queries.len());
    a.series = series;
    for (key, v) in counters {
        a.counter(&key, v);
    }
    a.counter("ring_outer_bytes_materialize", ring_bytes[0] as f64)
        .counter("ring_outer_bytes_pipeline", ring_bytes[1] as f64)
        .counter(
            "ring_outer_bytes_saved",
            (ring_bytes[0] - ring_bytes[1]) as f64,
        );
    emit(json_dir, &a);
    println!("deviation from the paper (DESIGN.md §5, §7): spans skip per-cell materialization\n");
}

/// FIG-3.1: page vs relation granularity over a processor sweep.
fn fig3_1(s: &BenchSetup, json_dir: Option<&Path>) {
    println!("--- FIG-3.1: benchmark execution time, relation vs page granularity");
    println!(
        "{:>6} {:>12} {:>12} {:>7} {:>14} {:>14}",
        "procs", "relation", "page", "ratio", "rel disk KB", "page disk KB"
    );
    let mut rows = Vec::new();
    let mut last_page = None;
    for procs in [4usize, 8, 16, 24, 32, 48, 64] {
        let params = fig31_params(s, procs);
        let rel = run_core(s, &params, Granularity::Relation);
        let page = run_core(s, &params, Granularity::Page);
        println!(
            "{:>6} {:>11.3}s {:>11.3}s {:>7.2} {:>14} {:>14}",
            procs,
            rel.elapsed.as_secs_f64(),
            page.elapsed.as_secs_f64(),
            rel.elapsed.as_secs_f64() / page.elapsed.as_secs_f64(),
            (rel.disk_read.bytes + rel.disk_write.bytes) / 1024,
            (page.disk_read.bytes + page.disk_write.bytes) / 1024,
        );
        rows.push(SweepRow {
            label: format!("procs={procs}"),
            values: vec![
                ("relation_secs".into(), rel.elapsed.as_secs_f64()),
                ("page_secs".into(), page.elapsed.as_secs_f64()),
                (
                    "rel_disk_bytes".into(),
                    (rel.disk_read.bytes + rel.disk_write.bytes) as f64,
                ),
                (
                    "page_disk_bytes".into(),
                    (page.disk_read.bytes + page.disk_write.bytes) as f64,
                ),
            ],
        });
        last_page = Some(page);
    }
    emit(json_dir, &sweep_artifact("fig3_1", rows));
    if let Some(m) = last_page {
        // Bandwidth-demand curves of the widest page-granularity run.
        emit(
            json_dir,
            &df_bench::report::core_artifact("fig3_1_series", &m),
        );
    }
    println!("paper: page-level outperforms relation-level by a factor of about two\n");
}

/// SEC-3.3: tuple vs page arbitration-network bytes, closed form + measured.
fn sec3_3() {
    println!("--- SEC-3.3: arbitration network traffic, tuple vs page granularity");
    println!("closed form (n = m = 1000 tuples of 100 B, 10 tuples/page):");
    println!(
        "{:>6} {:>16} {:>16} {:>7}",
        "c", "tuple bytes", "page bytes", "ratio"
    );
    for c in [0usize, 32, 50, 100, 200] {
        let t = bandwidth::tuple_level_join_bytes(1000, 1000, 100, c);
        let p = bandwidth::page_level_join_bytes(1000, 1000, 100, 10, c);
        println!("{:>6} {:>16} {:>16} {:>7.2}", c, t, p, t as f64 / p as f64);
    }

    // Measured on the simulator: one unrestricted join at 10% scale (a
    // full-scale tuple-granularity join would schedule ~10^8 tuple pairs).
    let db = generate_database(&df_workload::DatabaseSpec::scaled(0.1));
    let q = chain_query(&db, 15, 9, 1, 0, VAL_DOMAIN).expect("join");
    let mut params = MachineParams::with_processors(16);
    params.broadcast_join = false;
    params.max_inner_batch = 1; // one (outer, inner) pair per packet: §3.3's setting
    params.cache.frames = 2048;
    let run = |g| {
        run_queries(
            &db,
            std::slice::from_ref(&q),
            &params,
            g,
            AllocationStrategy::default(),
        )
        .expect("runs")
        .metrics
    };
    let tuple = run(Granularity::Tuple);
    let page = run(Granularity::Page);
    let (n, m) = (
        db.get("r09").unwrap().num_tuples(),
        db.get("r10").unwrap().num_tuples(),
    );
    println!(
        "measured (join of r09 x r10, n={n}, m={m}, c={}, broadcast off):",
        params.packet_overhead
    );
    println!(
        "  tuple: {:>12} B in {:>10} packets   elapsed {:>9.3}s",
        tuple.arbitration.bytes,
        tuple.arbitration.transfers,
        tuple.elapsed.as_secs_f64()
    );
    println!(
        "  page : {:>12} B in {:>10} packets   elapsed {:>9.3}s",
        page.arbitration.bytes,
        page.arbitration.transfers,
        page.elapsed.as_secs_f64()
    );
    println!(
        "  measured ratio {:.2} (paper's closed form at these sizes: {:.2})\n",
        tuple.arbitration.bytes as f64 / page.arbitration.bytes as f64,
        bandwidth::tuple_over_page_ratio(n, m, 100, 10, params.packet_overhead)
    );
}

/// FIG-4.2: ring-machine bandwidth demand vs number of IPs.
fn fig4_2(s: &BenchSetup, json_dir: Option<&Path>) {
    println!("--- FIG-4.2: average bandwidth vs number of instruction processors");
    println!(
        "{:>5} {:>10} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "IPs", "elapsed", "outer ring", "inner ring", "cache", "disk", "util"
    );
    let mut rows = Vec::new();
    for ips in [5usize, 10, 20, 30, 50, 75, 100] {
        let params = fig42_params(s, ips);
        let m = run_ring(s, &params);
        println!(
            "{:>5} {:>9.3}s {:>8.2} Mbps {:>8.3} Mbps {:>8.2} Mbps {:>8.2} Mbps {:>6.1}%",
            ips,
            m.elapsed.as_secs_f64(),
            m.outer_ring_mbps(),
            m.inner_ring_mbps(),
            m.cache_mbps(),
            m.disk_mbps(),
            m.ip_utilization() * 100.0
        );
        rows.push(SweepRow {
            label: format!("ips={ips}"),
            values: vec![
                ("elapsed_secs".into(), m.elapsed.as_secs_f64()),
                ("outer_ring_mbps".into(), m.outer_ring_mbps()),
                ("inner_ring_mbps".into(), m.inner_ring_mbps()),
                ("cache_mbps".into(), m.cache_mbps()),
                ("disk_mbps".into(), m.disk_mbps()),
                ("ip_utilization".into(), m.ip_utilization()),
            ],
        });
        if ips == 30 {
            // Demand *curves* (not just the averages above) for the paper's
            // headline 30-IP configuration.
            emit(json_dir, &ring_artifact("fig4_2_series", &params, &m));
        }
    }
    emit(json_dir, &sweep_artifact("fig4_2", rows));
    println!("paper: 40 Mbps sufficient for up to 50 IPs; ~100 Mbps for larger configurations\n");
}

/// ABL-PGSZ: page-size sweep (§3.3's 1 KB vs 10 KB discussion).
fn abl_pgsz(s: &BenchSetup) {
    println!("--- ABL-PGSZ: page-size sweep (page granularity, 16 processors)");
    println!(
        "{:>8} {:>10} {:>14} {:>10}",
        "page B", "elapsed", "arb net KB", "units"
    );
    for page_size in [1016usize, 2016, 4016, 10_016, 16_016] {
        let mut spec = s.spec.clone();
        spec.database.page_size = page_size;
        let db = generate_database(&spec.database);
        let queries = benchmark_queries(&db, &spec).expect("queries");
        let mut params = fig31_params(s, 16);
        params.page_size = page_size;
        params.cache.frames = (db.total_bytes() / page_size / 5).max(16);
        let m = run_queries(
            &db,
            &queries,
            &params,
            Granularity::Page,
            AllocationStrategy::default(),
        )
        .expect("runs")
        .metrics;
        println!(
            "{:>8} {:>9.3}s {:>14} {:>10}",
            page_size,
            m.elapsed.as_secs_f64(),
            m.arbitration.bytes / 1024,
            m.units_dispatched
        );
    }
    println!("paper: larger pages cut network traffic but may reduce concurrency\n");
}

/// ABL-ALLOC: the four processor-assignment strategies.
fn abl_alloc(s: &BenchSetup) {
    println!("--- ABL-ALLOC: processor-assignment strategies (16 processors, page level)");
    let params = fig31_params(s, 16);
    for strategy in AllocationStrategy::ALL {
        let m = run_queries(&s.db, &s.queries, &params, Granularity::Page, strategy)
            .expect("runs")
            .metrics;
        println!(
            "{:<24} elapsed={:8.3}s  mean-response={:8.3}s  util={:4.1}%",
            strategy.to_string(),
            m.elapsed.as_secs_f64(),
            m.mean_response().as_secs_f64(),
            m.processor_utilization() * 100.0
        );
    }
    println!("[4]: the data-flow (balanced) strategy wins\n");
}

/// ABL-BCAST: broadcast facility on/off.
fn abl_bcast(s: &BenchSetup) {
    println!("--- ABL-BCAST: join broadcast facility (16 processors, page level)");
    for broadcast in [true, false] {
        let mut params = fig31_params(s, 16);
        params.broadcast_join = broadcast;
        let m = run_core(s, &params, Granularity::Page);
        println!(
            "broadcast={:<5} elapsed={:8.3}s  arb={:>9} KB ({:>8} packets)  cache-out={:>9} KB",
            broadcast,
            m.elapsed.as_secs_f64(),
            m.arbitration.bytes / 1024,
            m.arbitration.transfers,
            m.cache_out.bytes / 1024
        );
    }
    println!("paper requirement 4: broadcast minimizes data movement for joins\n");
}

/// ABL-PROJ: §5's open problem — parallel duplicate elimination via hash
/// partitioning of the blocking finalizer.
fn abl_proj() {
    println!("--- ABL-PROJ: hash-partitioned duplicate-eliminating projection (16 processors)");
    let db = generate_database(&df_workload::DatabaseSpec::paper());
    let q = df_query::parse_query(
        &db,
        "(project-distinct (restrict (scan r00) true) (fk val))",
    )
    .expect("query");
    let run = |buckets: usize| {
        let mut params = MachineParams::with_processors(16);
        params.dedup_buckets = buckets;
        params.cache.frames = 4096;
        run_queries(
            &db,
            std::slice::from_ref(&q),
            &params,
            Granularity::Page,
            AllocationStrategy::default(),
        )
        .expect("runs")
        .metrics
    };
    let tail_of = |m: &df_core::Metrics| -> f64 {
        let restrict_done = m
            .instructions
            .iter()
            .find(|i| i.op_name == "restrict")
            .and_then(|i| i.completed)
            .expect("restrict ran");
        let project_done = m
            .instructions
            .iter()
            .find(|i| i.op_name == "project")
            .and_then(|i| i.completed)
            .expect("project ran");
        project_done.saturating_since(restrict_done).as_secs_f64()
    };
    let serial_tail = tail_of(&run(1));
    for buckets in [1usize, 2, 4, 8, 16] {
        let m = run(buckets);
        let tail = tail_of(&m);
        println!(
            "buckets={buckets:2}  blocking tail={tail:8.3}s (speedup {:4.2}x)  total={:8.3}s",
            serial_tail / tail.max(1e-9),
            m.elapsed.as_secs_f64()
        );
    }
    println!("paper §5: no parallel algorithm known; hash partitioning answers it\n");
}

/// ABL-OPT: what the host-side optimizer the paper assumes is worth —
/// naive chain queries (restricts stacked above the joins) against their
/// `df-opt`-rewritten forms on the df-core machine, which must agree on
/// every result.
fn abl_opt() {
    use df_core::run_query;
    use df_opt::{optimize, CatalogStats};
    use df_workload::{chain_query_naive, DatabaseSpec};

    println!("--- ABL-OPT: naive vs df-opt-rewritten plans (scale 0.05, 16 processors)");
    let db = generate_database(&DatabaseSpec::scaled(0.05));
    let stats = CatalogStats::gather(&db);
    let params = MachineParams::with_processors(16);
    for (start, joins, restricts) in [(1usize, 1usize, 2usize), (2, 2, 3), (4, 3, 4)] {
        let naive = chain_query_naive(&db, 15, start, joins, restricts, 500).expect("naive");
        let optimized = optimize(&db, &naive, &stats).expect("optimizes").tree;
        let (r1, m1) = run_query(&db, &naive, &params, Granularity::Page).expect("naive runs");
        let (r2, m2) =
            run_query(&db, &optimized, &params, Granularity::Page).expect("optimized runs");
        assert!(r1.same_contents(&r2), "optimizer changed results");
        println!(
            "{joins} joins/{restricts} restricts: naive={:8.3}s optimized={:8.3}s \
             speedup={:4.2}x  arb {:6} -> {:6} KB",
            m1.elapsed.as_secs_f64(),
            m2.elapsed.as_secs_f64(),
            m1.elapsed.as_secs_f64() / m2.elapsed.as_secs_f64(),
            m1.arbitration.bytes / 1024,
            m2.arbitration.bytes / 1024,
        );
    }
    println!("the paper assumes optimized trees arrive from the host\n");
}

/// ABL-MULTI: multi-user operation (requirement 1) — mean response time of
/// an open Poisson stream of benchmark queries vs the offered load.
fn abl_multi() {
    use df_sim::rng::SimRng;
    println!(
        "--- ABL-MULTI: open multi-user stream on the ring machine (8 ICs x 30 IPs, 16 KB pages)"
    );
    let s16 = setup_with_page_size(0.3, 16 * 1024);
    println!(
        "{:>14} {:>12} {:>14} {:>10}",
        "mean gap", "elapsed", "mean response", "CC delays"
    );
    for mean_gap in [4.0f64, 2.0, 1.0, 0.5, 0.25] {
        let mut rng = SimRng::new(0xa11d);
        let arrivals = df_workload::poisson_arrivals(s16.queries.len(), mean_gap, &mut rng);
        let params = fig42_params(&s16, 30);
        let out = df_ring::run_ring_queries_at(&s16.db, &s16.queries, &arrivals, &params)
            .expect("stream runs");
        let responses = out.metrics.response_times();
        let mean_resp: f64 =
            responses.iter().map(|d| d.as_secs_f64()).sum::<f64>() / responses.len() as f64;
        println!(
            "{:>12.2} s {:>11.3}s {:>13.3}s {:>10}",
            mean_gap,
            out.metrics.elapsed.as_secs_f64(),
            mean_resp,
            out.metrics.queries_delayed_by_cc
        );
    }
    println!(
        "requirement 1: the machine absorbs an open stream; response degrades as load rises\n"
    );
}

/// ABL-ROUTE: §5 direct IP→IP routing on the ring machine (run in the
/// Figure-4.2 configuration: 16 KB pages, where the store-and-forward
/// baseline is healthy and the comparison isolates the routing change).
fn abl_route(_s: &BenchSetup) {
    println!(
        "--- ABL-ROUTE: direct IP->IP result routing (ring machine, 8 ICs x 30 IPs, 16 KB pages)"
    );
    let s16 = setup_with_page_size(1.0, 16 * 1024);
    for direct in [false, true] {
        let mut params = fig42_params(&s16, 30);
        params.direct_routing = direct;
        let m = run_ring(&s16, &params);
        println!(
            "direct={:<5} elapsed={:8.3}s  outer ring={:>9} KB ({:5.2} Mbps)  direct pages={}",
            direct,
            m.elapsed.as_secs_f64(),
            m.outer_ring.bytes / 1024,
            m.outer_ring_mbps(),
            m.direct_routed_pages
        );
    }
    println!("paper §5: direct routing should further reduce outer-ring traffic\n");
}
