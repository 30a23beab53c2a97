//! Multi-client load generator for df-serve: closed- and open-loop
//! clients recording latency percentiles, sustained QPS, and the
//! server's admission/fusion counters into `BENCH_serve.json`.
//!
//! ```sh
//! cargo run --release -p df-bench --bin serve_bench -- \
//!     --clients 8 --qps 25 --duration 2 --mix read-same
//! ```
//!
//! Flags (all optional):
//! - `--addr A`       use a running df-serve (default: spawn in-process)
//! - `--scale F`      database scale when spawning (default 0.05)
//! - `--workers N`    executor workers when spawning
//! - `--lanes N`      read executor lanes when spawning (default 2)
//! - `--plan-cache N` plan-cache capacity when spawning (0 disables)
//! - `--batch-max N`  dispatcher batch size when spawning (default 64;
//!   smaller batches split a burst into more concurrent lane tasks)
//! - `--delay-every N`, `--delay-ms M`  inject a deterministic M-ms
//!   stall into every N-th executor unit when spawning — a stand-in for
//!   mass-storage staging latency, which the single-core CI container
//!   cannot otherwise exhibit (every mix here is CPU-bound on one core)
//! - `--clients N`    concurrent clients (default 8)
//! - `--optimize`     send queries with the optimize flag set, so a plan
//!   cache miss pays the df-opt planning pass (the work a hit skips)
//! - `--qps F`        per-client offered rate, open loop (default 25)
//! - `--duration S`   seconds per mode run (default 2)
//! - `--mix M`        `read-same` | `read-mixed` | `read-write` |
//!   `write-disjoint` (every fourth request appends to a per-client
//!   target in r10..r14 — disjoint writes overlap and never evict the
//!   read pool's cached plans) | `view-read` (installs the two standing
//!   views of `RequestMix::VIEWS`, then blends writes into their base,
//!   view reads, and plain reads; the run ends with a differential check
//!   that each maintained view is byte-identical to re-running its
//!   defining query from scratch)
//! - `--mode M`       `closed` | `open` (default: both, closed first)
//! - `--out-dir D`    artifact directory (default `.`)
//! - `--name N`       artifact name (default `serve`)
//! - `--shutdown`     send a shutdown request to `--addr` when done
//!
//! Latency accounting: closed-loop latency brackets each call; open-loop
//! latency is measured from the *scheduled* send time, so server-side
//! queueing under overload is charged to the response (no coordinated
//! omission).

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use df_bench::loadgen::{percentile, GenRequest, LoopMode, RequestMix};
use df_bench::report::{series_row, write_artifact};
use df_obs::{BenchArtifact, IntervalSeries, SweepRow};
use df_serve::proto::{read_frame, write_frame, Priority, Request, Response, ServeError};
use df_serve::{Engine, ServeClient, ServeConfig, Server};
use df_workload::{generate_database, parse_scale, DatabaseSpec};

struct Opts {
    addr: Option<String>,
    scale: f64,
    workers: Option<usize>,
    lanes: Option<usize>,
    plan_cache: Option<usize>,
    batch_max: Option<usize>,
    delay_every: Option<u64>,
    delay_ms: Option<u64>,
    clients: usize,
    qps: f64,
    duration: Duration,
    optimize: bool,
    mix: RequestMix,
    modes: Vec<LoopMode>,
    out_dir: String,
    name: String,
    shutdown: bool,
}

/// What one client measured during a mode run.
#[derive(Default)]
struct Tally {
    sent: u64,
    ok: u64,
    busy: u64,
    errors: u64,
    tuples: u64,
    payload_bytes: u64,
    latencies_ms: Vec<f64>,
    series: IntervalSeries,
}

fn main() {
    let opts = parse_args();
    // Spawn an in-process server unless pointed at a running one.
    let (addr, server) = match &opts.addr {
        Some(a) => (a.clone(), None),
        None => {
            let mut config = ServeConfig::default();
            if let Some(w) = opts.workers {
                config.host.workers = w;
            }
            if let Some(l) = opts.lanes {
                config.lanes = l;
            }
            if let Some(c) = opts.plan_cache {
                config.plan_cache_capacity = c;
            }
            if let Some(b) = opts.batch_max {
                config.batch_max = b;
            }
            if let Some(every) = opts.delay_every {
                config.host.fault.delay_every = Some(every);
                config.host.fault.delay = Duration::from_millis(opts.delay_ms.unwrap_or(1));
            }
            let db = generate_database(&DatabaseSpec::scaled(opts.scale));
            println!(
                "serve_bench: in-process server, scale {} ({} KB)",
                opts.scale,
                db.total_bytes() / 1024
            );
            let engine = Engine::new(db, config).unwrap_or_else(|e| die(&e));
            let listener = std::net::TcpListener::bind("127.0.0.1:0")
                .unwrap_or_else(|e| die(&format!("bind: {e}")));
            let server = Server::start(listener, engine)
                .unwrap_or_else(|e| die(&format!("server start: {e}")));
            (server.local_addr().to_string(), Some(server))
        }
    };

    let started = Instant::now();
    let mut artifact = BenchArtifact::new(&opts.name, "serve");
    artifact
        .param("addr", &addr)
        .param("clients", opts.clients)
        .param("qps", opts.qps)
        .param("duration_secs", opts.duration.as_secs_f64())
        .param("optimize", opts.optimize)
        .param("mix", opts.mix)
        .param(
            "delay",
            match opts.delay_every {
                Some(every) => format!("every {every} units, {} ms", opts.delay_ms.unwrap_or(1)),
                None => "none".to_string(),
            },
        )
        .param(
            "spawned",
            if server.is_some() {
                format!("scale {}", opts.scale)
            } else {
                "no".to_string()
            },
        );

    // The engine reports its lane count in its stats rows, so the
    // artifact records it even when benchmarking an external server.
    let lanes = *server_stats(&addr).get("lanes").unwrap_or(&0);
    artifact.param("lanes", lanes);

    // The view mix needs its standing views in place before any client
    // sends a read for them. Drop-then-install so a reused external
    // server starts from a fresh materialization.
    if opts.mix == RequestMix::ViewRead {
        let mut c = ServeClient::connect(&addr).unwrap_or_else(|e| die(&format!("connect: {e}")));
        for (name, text) in RequestMix::VIEWS {
            c.drop_view(name).ok();
            match c.install_view(name, text) {
                Ok(Response::Result(_)) => println!("serve_bench: installed view `{name}`"),
                Ok(other) => die(&format!("install `{name}`: {other:?}")),
                Err(e) => die(&format!("install `{name}`: {e}")),
            }
        }
    }

    let (mut queries, mut tuples, mut payload) = (0u64, 0u64, 0u64);
    for mode in &opts.modes {
        let before = server_stats(&addr);
        let run_start = Instant::now();
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..opts.clients)
                .map(|c| {
                    let addr = &addr;
                    let opts = &opts;
                    s.spawn(move || match mode {
                        LoopMode::Closed => run_closed(addr, c, opts, run_start),
                        LoopMode::Open => run_open(addr, c, opts, run_start),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = run_start.elapsed().as_secs_f64();
        let after = server_stats(&addr);

        let mut all_ms: Vec<f64> = Vec::new();
        let mut row = Tally::default();
        for (c, t) in tallies.into_iter().enumerate() {
            row.sent += t.sent;
            row.ok += t.ok;
            row.busy += t.busy;
            row.errors += t.errors;
            row.tuples += t.tuples;
            row.payload_bytes += t.payload_bytes;
            all_ms.extend(&t.latencies_ms);
            if let Some(s) = series_row(&format!("{mode}/c{c}"), &t.series) {
                artifact.series.push(s);
            }
        }
        queries += row.sent;
        tuples += row.tuples;
        payload += row.payload_bytes;

        let delta = |key: &str| {
            (after.get(key).copied().unwrap_or(0) as i64
                - before.get(key).copied().unwrap_or(0) as i64) as f64
        };
        let p50 = percentile(&mut all_ms, 0.50);
        let p95 = percentile(&mut all_ms, 0.95);
        let p99 = percentile(&mut all_ms, 0.99);
        let qps_sustained = row.ok as f64 / wall;
        println!(
            "{mode}: {} sent, {} ok, {} busy, {} errors | p50 {p50:.2} ms, \
             p95 {p95:.2} ms, p99 {p99:.2} ms | {qps_sustained:.1} qps sustained | \
             server: {} submitted, {} executed, {} fused, {} joined, \
             cache {}/{} hit/miss, {} evicted, {} stats gathers, \
             {} writes ({} overlapped), {} delta pages, {} view reads",
            row.sent,
            row.ok,
            row.busy,
            row.errors,
            delta("submitted"),
            delta("executed"),
            delta("fused"),
            delta("inflight_joins"),
            delta("plan_cache_hits"),
            delta("plan_cache_misses"),
            delta("cache_evictions_partial"),
            delta("stats_gathers"),
            delta("writes_applied"),
            delta("concurrent_write_batches"),
            delta("delta_pages"),
            delta("view_reads_served"),
        );
        artifact.sweep.push(SweepRow {
            label: format!("mode={mode}"),
            values: vec![
                ("clients".into(), opts.clients as f64),
                ("sent".into(), row.sent as f64),
                ("ok".into(), row.ok as f64),
                ("busy".into(), row.busy as f64),
                ("errors".into(), row.errors as f64),
                ("p50_ms".into(), p50),
                ("p95_ms".into(), p95),
                ("p99_ms".into(), p99),
                ("qps_sustained".into(), qps_sustained),
                ("submitted".into(), delta("submitted")),
                ("executed".into(), delta("executed")),
                ("fused".into(), delta("fused")),
                ("writes_applied".into(), delta("writes_applied")),
                ("reads".into(), delta("reads")),
                ("read_execs".into(), delta("read_execs")),
                ("inflight_joins".into(), delta("inflight_joins")),
                ("plan_cache_hits".into(), delta("plan_cache_hits")),
                ("plan_cache_misses".into(), delta("plan_cache_misses")),
                ("parses".into(), delta("parses")),
                (
                    "cache_evictions_partial".into(),
                    delta("cache_evictions_partial"),
                ),
                ("stats_gathers".into(), delta("stats_gathers")),
                (
                    "concurrent_write_batches".into(),
                    delta("concurrent_write_batches"),
                ),
                // Cumulative, not a delta: the quiescence identity is
                // about whether any view exists, and installs happen
                // before the first mode run.
                (
                    "views_installed".into(),
                    after.get("views_installed").copied().unwrap_or(0) as f64,
                ),
                ("delta_pages".into(), delta("delta_pages")),
                ("view_reads_served".into(), delta("view_reads_served")),
                ("lanes".into(), lanes as f64),
            ],
        });
    }

    artifact.elapsed_secs = started.elapsed().as_secs_f64();
    artifact
        .counter("queries", queries as f64)
        .counter("result_tuples", tuples as f64)
        .counter("result_payload_bytes", payload as f64);

    // The IVM differential contract, checked against the live server:
    // after the whole write storm, each maintained view must be
    // byte-identical to re-running its defining query from scratch.
    if opts.mix == RequestMix::ViewRead {
        let mut c = ServeClient::connect(&addr).unwrap_or_else(|e| die(&format!("connect: {e}")));
        for (name, text) in RequestMix::VIEWS {
            let maintained = match c.read_view(name) {
                Ok(Response::Result(r)) => r.tuples,
                Ok(other) => die(&format!("verify read `{name}`: {other:?}")),
                Err(e) => die(&format!("verify read `{name}`: {e}")),
            };
            let mut fresh = match c.query(text, Priority::Normal, false) {
                Ok(Response::Result(r)) => r.tuples,
                Ok(other) => die(&format!("verify query `{name}`: {other:?}")),
                Err(e) => die(&format!("verify query `{name}`: {e}")),
            };
            fresh.sort();
            if maintained != fresh {
                die(&format!(
                    "view `{name}` diverged from scratch execution: \
                     {} maintained vs {} fresh tuples",
                    maintained.len(),
                    fresh.len()
                ));
            }
            println!(
                "verify: view `{name}` byte-identical to scratch run ({} tuples)",
                fresh.len()
            );
            c.drop_view(name).ok();
        }
    }

    if let Some(server) = server {
        server.shutdown();
        server.join();
    } else if opts.shutdown {
        let mut c = ServeClient::connect(&addr).unwrap_or_else(|e| die(&format!("connect: {e}")));
        c.request(&Request::Shutdown)
            .unwrap_or_else(|e| die(&format!("shutdown: {e}")));
        println!("serve_bench: server shutting down");
    }

    if let problems @ [_, ..] = &artifact.check()[..] {
        for p in problems {
            eprintln!("serve_bench: artifact invariant violated: {p}");
        }
        die("refusing to write an unsound artifact");
    }
    let path = write_artifact(std::path::Path::new(&opts.out_dir), &artifact)
        .unwrap_or_else(|e| die(&format!("cannot write artifact: {e}")));
    println!("json: wrote {}", path.display());
}

/// One closed-loop client: one request in flight, latency brackets the
/// call.
fn run_closed(addr: &str, client: usize, opts: &Opts, run_start: Instant) -> Tally {
    let mut conn =
        ServeClient::connect(addr).unwrap_or_else(|e| die(&format!("client connect: {e}")));
    let mut tally = Tally::default();
    let mut seq = 0u64;
    while run_start.elapsed() < opts.duration {
        let request = match opts.mix.request(client, seq) {
            GenRequest::Query(text) => conn.query_request(&text, Priority::Normal, opts.optimize),
            GenRequest::ViewRead(name) => conn.read_view_request(name),
        };
        seq += 1;
        tally.sent += 1;
        let t0 = Instant::now();
        let response = conn
            .request(&request)
            .unwrap_or_else(|e| die(&format!("client io: {e}")));
        tally.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        absorb(&mut tally, &response, run_start);
    }
    tally
}

/// One open-loop client: a sender thread issues requests on a fixed
/// schedule while the receiver matches pipelined responses by id.
fn run_open(addr: &str, client: usize, opts: &Opts, run_start: Instant) -> Tally {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| die(&format!("client connect: {e}")));
    stream.set_nodelay(true).ok();
    let mut writer = stream
        .try_clone()
        .unwrap_or_else(|e| die(&format!("clone: {e}")));
    let mut reader = std::io::BufReader::new(stream);
    // Scheduled send time per request id, read by the receiver to charge
    // queueing delay to the response.
    let scheduled: Mutex<HashMap<u64, Instant>> = Mutex::new(HashMap::new());
    let gap = Duration::from_secs_f64(1.0 / opts.qps.max(0.001));

    // `sent` is incremented before each frame goes out and `done` set
    // after the last, so the receiver only blocks on the socket when a
    // response is guaranteed to be on its way (the server replies exactly
    // once per request, Busy included).
    let sent = std::sync::atomic::AtomicU64::new(0);
    let done = std::sync::atomic::AtomicBool::new(false);

    let mut tally = Tally::default();
    std::thread::scope(|s| {
        let (scheduled, sent, done) = (&scheduled, &sent, &done);
        s.spawn(move || {
            let mut id = 0u64;
            loop {
                let due = run_start + gap * u32::try_from(id).unwrap_or(u32::MAX);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                if run_start.elapsed() >= opts.duration {
                    done.store(true, std::sync::atomic::Ordering::SeqCst);
                    return;
                }
                let request = match opts.mix.request(client, id) {
                    GenRequest::Query(text) => Request::Query {
                        id,
                        priority: Priority::Normal,
                        optimize: opts.optimize,
                        text,
                    },
                    GenRequest::ViewRead(name) => Request::ReadView {
                        id,
                        name: name.to_string(),
                    },
                };
                scheduled.lock().expect("schedule lock").insert(id, due);
                sent.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                write_frame(&mut writer, &request.encode())
                    .unwrap_or_else(|e| die(&format!("client send: {e}")));
                id += 1;
            }
        });
        let mut received = 0u64;
        loop {
            if received == sent.load(std::sync::atomic::Ordering::SeqCst) {
                if done.load(std::sync::atomic::Ordering::SeqCst)
                    && received == sent.load(std::sync::atomic::Ordering::SeqCst)
                {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let payload = match read_frame(&mut reader) {
                Ok(Some(p)) => p,
                Ok(None) => die("server closed mid-run"),
                Err(e) => die(&format!("client recv: {e}")),
            };
            let response =
                Response::decode(&payload).unwrap_or_else(|e| die(&format!("bad response: {e}")));
            let id = match &response {
                Response::Result(r) => r.id,
                Response::Error { id, .. } => *id,
                other => die(&format!("unexpected response: {other:?}")),
            };
            if let Some(due) = scheduled.lock().expect("schedule lock").remove(&id) {
                tally.latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
            }
            absorb(&mut tally, &response, run_start);
            received += 1;
        }
        tally.sent = received;
    });
    tally
}

/// Fold one response into the tally and its bandwidth series.
fn absorb(tally: &mut Tally, response: &Response, run_start: Instant) {
    match response {
        Response::Result(r) => {
            tally.ok += 1;
            tally.tuples += r.tuples.len() as u64;
            let bytes: u64 = r.tuples.iter().map(|t| t.len() as u64).sum();
            tally.payload_bytes += bytes;
            tally
                .series
                .record(run_start.elapsed().as_nanos() as u64, bytes);
        }
        Response::Error {
            error: ServeError::Busy { .. },
            ..
        } => tally.busy += 1,
        Response::Error { .. } => tally.errors += 1,
        _ => tally.errors += 1,
    }
}

/// Fetch the server's counters over a throwaway control connection.
fn server_stats(addr: &str) -> HashMap<String, u64> {
    let mut c = ServeClient::connect(addr).unwrap_or_else(|e| die(&format!("stats connect: {e}")));
    match c.request(&Request::Stats) {
        Ok(Response::Stats(rows)) => rows.into_iter().collect(),
        Ok(other) => die(&format!("unexpected stats response: {other:?}")),
        Err(e) => die(&format!("stats: {e}")),
    }
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        addr: None,
        scale: 0.05,
        workers: None,
        lanes: None,
        plan_cache: None,
        batch_max: None,
        delay_every: None,
        delay_ms: None,
        clients: 8,
        qps: 25.0,
        duration: Duration::from_secs(2),
        optimize: false,
        mix: RequestMix::default(),
        modes: LoopMode::ALL.to_vec(),
        out_dir: ".".to_string(),
        name: "serve".to_string(),
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--addr" => opts.addr = Some(value("--addr")),
            "--scale" => opts.scale = parse_scale(&value("--scale")).unwrap_or_else(|e| die(&e)),
            "--workers" => opts.workers = Some(parse(&value("--workers"), "--workers")),
            "--lanes" => opts.lanes = Some(parse(&value("--lanes"), "--lanes")),
            "--plan-cache" => opts.plan_cache = Some(parse(&value("--plan-cache"), "--plan-cache")),
            "--batch-max" => opts.batch_max = Some(parse(&value("--batch-max"), "--batch-max")),
            "--delay-every" => {
                opts.delay_every = Some(parse(&value("--delay-every"), "--delay-every"));
            }
            "--delay-ms" => opts.delay_ms = Some(parse(&value("--delay-ms"), "--delay-ms")),
            "--optimize" => opts.optimize = true,
            "--clients" => opts.clients = parse(&value("--clients"), "--clients"),
            "--qps" => opts.qps = parse(&value("--qps"), "--qps"),
            "--duration" => {
                opts.duration = Duration::from_secs_f64(parse(&value("--duration"), "--duration"));
            }
            "--mix" => opts.mix = value("--mix").parse().unwrap_or_else(|e: String| die(&e)),
            "--mode" => {
                opts.modes = vec![value("--mode").parse().unwrap_or_else(|e: String| die(&e))];
            }
            "--out-dir" => opts.out_dir = value("--out-dir"),
            "--name" => opts.name = value("--name"),
            "--shutdown" => opts.shutdown = true,
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    if opts.clients == 0 {
        die("--clients must be >= 1");
    }
    opts
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("bad value `{s}` for {flag}")))
}

fn die(msg: &str) -> ! {
    eprintln!("serve_bench: {msg}");
    std::process::exit(2);
}
