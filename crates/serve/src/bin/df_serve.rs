//! The standing query service: generate the workload database, bind a
//! TCP listener, and serve queries until a client sends `Shutdown` (or
//! the process is killed).
//!
//! ```sh
//! cargo run --release -p df-serve --bin df-serve -- \
//!     --addr 127.0.0.1:7411 --scale 0.05 --workers 8
//! ```
//!
//! Flags (all optional):
//! - `--addr A`            listen address (default `127.0.0.1:7411`;
//!   port 0 picks a free port, printed on stdout)
//! - `--scale F`           database scale factor (default 0.05)
//! - `--workers N`         executor worker threads (default: all cores)
//! - `--page-size B`       page size in bytes, at least 116 (the page header
//!   and one benchmark tuple)
//! - `--join A`            join algorithm: `nested` or `hash`
//! - `--transfer T`        transfer mode: `materialize` or `pipeline`
//! - `--queue-capacity N`  per-client admission queue depth (default 32)
//! - `--batch-max N`       max requests drained per batch (default 64)
//! - `--lanes N`           read executor lanes (default 2)
//! - `--plan-cache N`      plan-cache capacity in plans (default 128;
//!   0 disables caching)
//! - `--trace-out FILE`    dump the serve-layer trace snapshot at exit
//!
//! Fault injection (deterministic, for demos and smoke tests):
//! - `--fault-panic N`       panic the kernel of dispatched unit N
//! - `--fault-lane-panic N`  panic the serve lane before lane task N
//!   (proves lane-panic containment: other clients keep being served)
//!
//! The readiness line `df-serve: listening on <addr>` is printed exactly
//! once, after the listener is bound — scripts should wait for it.

use std::sync::Arc;

use df_obs::Tracer;
use df_serve::{Engine, ServeConfig, Server};
use df_workload::{generate_database, parse_page_size, parse_scale, DatabaseSpec};

fn main() {
    let mut addr = "127.0.0.1:7411".to_string();
    let mut scale = 0.05f64;
    let mut config = ServeConfig::default();
    let mut trace_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--scale" => scale = parse_scale(&value("--scale")).unwrap_or_else(|e| die(&e)),
            "--workers" => config.host.workers = parse(&value("--workers"), "--workers"),
            "--page-size" => {
                config.host.page_size =
                    parse_page_size(&value("--page-size")).unwrap_or_else(|e| die(&e));
            }
            "--join" => {
                config.host.join = value("--join").parse().unwrap_or_else(|e: String| die(&e));
            }
            "--transfer" => {
                config.host.transfer = value("--transfer")
                    .parse()
                    .unwrap_or_else(|e: String| die(&e));
            }
            "--queue-capacity" => {
                config.queue_capacity = parse(&value("--queue-capacity"), "--queue-capacity");
            }
            "--batch-max" => config.batch_max = parse(&value("--batch-max"), "--batch-max"),
            "--lanes" => config.lanes = parse(&value("--lanes"), "--lanes"),
            "--plan-cache" => {
                config.plan_cache_capacity = parse(&value("--plan-cache"), "--plan-cache");
            }
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--fault-panic" => {
                config.host.fault.panic_on_unit =
                    Some(parse(&value("--fault-panic"), "--fault-panic"));
            }
            "--fault-lane-panic" => {
                config.lane_panic_task =
                    Some(parse(&value("--fault-lane-panic"), "--fault-lane-panic"));
            }
            other => die(&format!(
                "unknown flag `{other}` (see --help in the source)"
            )),
        }
    }
    if trace_out.is_some() {
        config.trace = Some(Arc::new(Tracer::new(Tracer::DEFAULT_CAPACITY)));
    }
    if config.host.fault.is_active() || config.lane_panic_task.is_some() {
        quiet_worker_panics();
    }

    let db = generate_database(&DatabaseSpec::scaled(scale));
    println!(
        "df-serve: scale {scale} — {} relations, {} KB; {} workers, \
         {} lanes, plan cache {}, queue capacity {}, batch max {}",
        db.len(),
        db.total_bytes() / 1024,
        config.host.workers,
        config.lanes,
        config.plan_cache_capacity,
        config.queue_capacity,
        config.batch_max
    );

    let trace = config.trace.clone();
    let engine = Engine::new(db, config).unwrap_or_else(|e| die(&e));
    let listener = std::net::TcpListener::bind(&addr)
        .unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")));
    let server =
        Server::start(listener, engine).unwrap_or_else(|e| die(&format!("cannot start: {e}")));
    println!("df-serve: listening on {}", server.local_addr());

    let handle = server.handle();
    server.join();
    let stats = handle.stats();
    println!("df-serve: shut down cleanly");
    for (name, v) in stats.rows() {
        println!("  {name:>14} {v}");
    }
    if let (Some(path), Some(tracer)) = (&trace_out, &trace) {
        let snap = tracer.snapshot();
        let events = snap.events.len();
        std::fs::write(path, snap.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("trace: wrote {path} ({events} events)");
    }
}

/// Injected kernel and serve-lane panics are expected; keep their
/// backtraces quiet.
fn quiet_worker_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let quiet = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("df-host-worker") || n.starts_with("serve-lane"));
        if !quiet {
            default(info);
        }
    }));
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("bad value `{s}` for {flag}")))
}

fn die(msg: &str) -> ! {
    eprintln!("df-serve: {msg}");
    std::process::exit(2);
}
