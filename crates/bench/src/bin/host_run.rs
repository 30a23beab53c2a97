//! Run the ten-query benchmark on the real-threads executor (`df-host`).
//!
//! ```sh
//! cargo run --release -p df-bench --bin host_run -- \
//!     --workers 8 --alloc balanced --scale 0.5 --page-size 4096 --verify
//! ```
//!
//! Flags (all optional):
//! - `--workers N`     processors (default: all cores): the caller plus
//!   min(N, CPUs) − 1 helper threads (none for a batch of at most 128
//!   operand pages); the header prints all three
//! - `--alloc S`       allocation strategy: `instruction-at-a-time`,
//!   `round-robin`, `balanced`, `root-first`
//! - `--scale F`       database scale factor (1.0 = the paper's 5.5 MB)
//! - `--page-size B`   page size in bytes for source and intermediate pages
//! - `--join A`        join algorithm: `nested` (the paper's nested loops,
//!   default) or `hash` (per-page raw-byte key indexes)
//! - `--transfer T`    transfer mode: `materialize` (every cell pages its
//!   own output, default) or `pipeline` (restrict→project chains fused
//!   into spans — intermediate pages never cross the network)
//! - `--deterministic` canonicalize results (byte-stable across runs)
//! - `--verify`        check every successful result against the oracle
//!
//! Observability (DESIGN.md §7):
//! - `--json FILE`      write a `BENCH_*.json` artifact of the run
//! - `--name N`         artifact name (default `host`)
//! - `--trace-out FILE` install a tracer and dump its event snapshot
//!
//! Fault injection (all deterministic; see `df_host::FaultPlan`):
//! - `--fault-panic N`        panic the kernel of dispatched unit N
//! - `--fault-panic-rate P`   panic each unit with probability P (seeded)
//! - `--fault-seed S`         seed for `--fault-panic-rate` draws
//! - `--fault-delay-every N`  sleep before every Nth unit's kernel
//! - `--fault-delay-ms M`     the injected sleep (default 1 ms)
//! - `--fault-dead-worker I`  worker I dies at start (repeatable)

use std::sync::Arc;
use std::time::Duration;

use df_bench::report::host_artifact;
use df_bench::setup_with_page_size;
use df_host::{run_host_queries, HostParams};
use df_obs::Tracer;
use df_query::{execute_readonly, ExecParams};
use df_workload::parse_scale;

fn main() {
    let mut params = HostParams::default();
    let mut scale = 0.5f64;
    let mut verify = false;
    let mut json_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut name = "host".to_string();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workers" => params.workers = parse(&value("--workers"), "--workers"),
            "--alloc" => {
                params.strategy = value("--alloc").parse().unwrap_or_else(|e: String| die(&e));
            }
            "--scale" => scale = parse_scale(&value("--scale")).unwrap_or_else(|e| die(&e)),
            "--page-size" => params.page_size = parse(&value("--page-size"), "--page-size"),
            "--join" => {
                params.join = value("--join").parse().unwrap_or_else(|e: String| die(&e));
            }
            "--transfer" => {
                params.transfer = value("--transfer")
                    .parse()
                    .unwrap_or_else(|e: String| die(&e));
            }
            "--deterministic" => params.deterministic = true,
            "--verify" => verify = true,
            "--json" => json_out = Some(value("--json")),
            "--name" => name = value("--name"),
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--fault-panic" => {
                params.fault.panic_on_unit = Some(parse(&value("--fault-panic"), "--fault-panic"));
            }
            "--fault-panic-rate" => {
                params.fault.panic_rate = parse(&value("--fault-panic-rate"), "--fault-panic-rate");
            }
            "--fault-seed" => params.fault.seed = parse(&value("--fault-seed"), "--fault-seed"),
            "--fault-delay-every" => {
                params.fault.delay_every =
                    Some(parse(&value("--fault-delay-every"), "--fault-delay-every"));
                if params.fault.delay.is_zero() {
                    params.fault.delay = Duration::from_millis(1);
                }
            }
            "--fault-delay-ms" => {
                params.fault.delay =
                    Duration::from_millis(parse(&value("--fault-delay-ms"), "--fault-delay-ms"));
            }
            "--fault-dead-worker" => params
                .fault
                .dead_workers
                .push(parse(&value("--fault-dead-worker"), "--fault-dead-worker")),
            other => die(&format!(
                "unknown flag `{other}` (see --help in the source)"
            )),
        }
    }

    if params.fault.panic_on_unit.is_some() || params.fault.panic_rate > 0.0 {
        quiet_worker_panics();
    }
    if trace_out.is_some() {
        params.trace = Some(Arc::new(Tracer::new(Tracer::DEFAULT_CAPACITY)));
    }

    // Runs are sized by min(workers, CPUs), so the CPU count is what the
    // batch line's run count reads against.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let s = setup_with_page_size(scale, params.page_size);
    let processors = (params.processors(&s.db, &s.queries))
        .unwrap_or_else(|e| die(&format!("host run failed: {e}")));
    let (helpers, serves) = (processors.helpers, processors.caller_serves);
    println!(
        "host_run: scale {scale}, page size {}, {} workers ({} + {helpers} helper{}) on {cpus} CPU{}, {} strategy, {} join, {} transfer{}",
        params.page_size,
        params.workers,
        if serves { "caller" } else { "scheduler" },
        if helpers == 1 { "" } else { "s" },
        if cpus == 1 { "" } else { "s" },
        params.strategy,
        params.join,
        params.transfer,
        if params.fault.is_active() {
            " [fault injection active]"
        } else {
            ""
        }
    );
    println!(
        "database: {} relations, {} bytes, {} tuples",
        s.db.len(),
        s.db.total_bytes(),
        s.db.total_tuples()
    );

    let out = run_host_queries(&s.db, &s.queries, &params)
        .unwrap_or_else(|e| die(&format!("host run failed: {e}")));
    println!(
        "\n{:>5} {:>10} {:>8} {:>7} {:>7} {:>12} {:>12}",
        "query", "tuples", "units", "probes", "sweeps", "pages moved", "elapsed"
    );
    for (i, q) in out.metrics.per_query.iter().enumerate() {
        match &out.results[i] {
            Ok(_) => println!(
                "{:>5} {:>10} {:>8} {:>7} {:>7} {:>12} {:>10.2?}",
                format!("Q{}", i + 1),
                q.result_tuples,
                q.units_fired,
                q.probe_units,
                q.sweep_units,
                q.pages_moved,
                q.elapsed
            ),
            Err(e) => println!("{:>5}     FAILED: {e}", format!("Q{}", i + 1)),
        }
    }
    println!(
        "\nbatch: {:.2?} wall, {} units in {} runs, {:.1} MB moved, {:.1}% mean worker utilization",
        out.metrics.elapsed,
        out.metrics.total_units(),
        out.metrics.total_runs(),
        out.metrics.total_bytes() as f64 / 1e6,
        out.metrics.worker_utilization() * 100.0
    );
    for (i, w) in out.metrics.per_worker.iter().enumerate() {
        let who = match i {
            0 if serves => "caller".to_string(),
            _ => format!("worker {i}"),
        };
        println!("  {}", w.summary_row(&who));
    }
    if params.fault.is_active() {
        let failed = out.results.iter().filter(|r| r.is_err()).count();
        let requeued: usize = out.metrics.per_query.iter().map(|q| q.requeued_units).sum();
        println!(
            "faults: {} kernel panics contained, {} workers lost, \
             {requeued} units requeued, {failed}/{} queries failed",
            out.metrics.total_panics(),
            out.metrics.workers_lost(),
            s.queries.len()
        );
    }

    if verify {
        let oracle = ExecParams {
            page_size: params.page_size,
            ..ExecParams::default()
        };
        let mut checked = 0usize;
        for (i, (query, got)) in s.queries.iter().zip(&out.results).enumerate() {
            let Ok(got) = got else { continue };
            let want = execute_readonly(&s.db, query, &oracle).expect("oracle run");
            assert!(
                got.same_contents(&want),
                "Q{} diverged from the oracle: {} tuples vs {}",
                i + 1,
                got.num_tuples(),
                want.num_tuples()
            );
            checked += 1;
        }
        println!(
            "verify: all {checked} successful results match the sequential oracle ({} failed)",
            s.queries.len() - checked
        );
    }

    if let Some(path) = &json_out {
        let artifact = host_artifact(&name, scale, &params, &out);
        if let problems @ [_, ..] = &artifact.check()[..] {
            for p in problems {
                eprintln!("host_run: artifact invariant violated: {p}");
            }
            die("refusing to write an unsound artifact");
        }
        std::fs::write(path, artifact.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("json: wrote {path} (artifact `{name}`)");
    }
    if let (Some(path), Some(tracer)) = (&trace_out, &params.trace) {
        let snap = tracer.snapshot();
        let events = snap.events.len();
        let dropped = snap.dropped;
        std::fs::write(path, snap.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("trace: wrote {path} ({events} events, {dropped} dropped)");
    }
}

/// Injected kernel panics are expected; keep their backtraces out of the
/// report. Panics on any other thread still print normally.
fn quiet_worker_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let on_worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("df-host-worker"));
        if !on_worker {
            default(info);
        }
    }));
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("bad value `{s}` for {flag}")))
}

fn die(msg: &str) -> ! {
    eprintln!("host_run: {msg}");
    std::process::exit(2);
}
