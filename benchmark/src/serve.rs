//! `serve-read` and `serve-write`: closed-loop clients over TCP against
//! a real `df-serve` child process, so server CPU and memory are
//! measured apart from the generator.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use df_host::{run_host_queries, HostParams, StandingView};
use df_opt::{optimize, CatalogStats};
use df_query::{
    apply_write, execute, execute_readonly, parse_query, render_tree, stage_write, ExecParams,
    QueryTree,
};
use df_relalg::{Catalog, Relation, Value};
use df_serve::proto::{write_frame, Priority, QueryResult, Request, Response};
use df_serve::ServeClient;
use df_workload::{generate_database, DatabaseSpec};

use crate::batch::{sorted_images, HostTotals};
use crate::gen::{self, WriteKeys};
use crate::probes::{self, VIEWS};
use crate::report::Report;
use crate::runner::{self, Check, Conn, Outcome, Rounds, RunArgs, SetupClock};
use crate::stats;
use crate::trace::{self, SpanBuf};
use crate::yardstick::Yardstick;

const SCALE: f64 = 0.2;
/// Client connections (the machine has two cores).
const CONNS: usize = 2;
/// Distinct read texts: twice the plan cache, so both the hit and the
/// miss path carry traffic.
const READ_POOL: usize = 2 * probes::PLAN_CACHE;
/// `serve-read`: each connection's seeded list of 1000 ops, played 125
/// to a round.
const READ_PLAN: Rounds = Rounds { ops: 125, cycle: 8 };
/// `serve-write`: each connection's list of 20 ops (an op is one write
/// cycle on each target), played two to a round.
const WRITE_PLAN: Rounds = Rounds { ops: 2, cycle: 10 };
/// Warm-up rounds every set-up ends with, sized so that it takes about a
/// second.
const READ_WARMUP_ROUNDS: usize = 13;
const WRITE_WARMUP_ROUNDS: usize = 12;
/// Relations the write cycles target: `r01` is a base of both standing
/// views, `r11` of none, and the two never conflict at the relation gate.
const WRITE_TARGETS: [&str; 2] = ["r01", "r11"];
const MIB: f64 = 1024.0 * 1024.0;

// ------------------------------------------------------------------ child

/// The `df-serve` child. Dropping it kills and reaps the process, so no
/// exit path leaves a server behind.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
    boot_ms: f64,
}

impl Server {
    /// Start `df-serve` (built next to this binary) with the pinned knobs
    /// and wait for its readiness line.
    fn spawn() -> Result<Server, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("own executable: {e}"))?
            .with_file_name("df-serve");
        let t = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--scale", &SCALE.to_string()])
            .args(["--workers", &probes::WORKERS.to_string()])
            .args(["--lanes", &probes::LANES.to_string()])
            .args(["--plan-cache", &probes::PLAN_CACHE.to_string()])
            .args(["--page-size", &probes::PAGE_SIZE.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            stdout,
            addr: String::new(),
            boot_ms: 0.0,
        };
        loop {
            let mut line = String::new();
            let n = server
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("df-serve stdout: {e}"))?;
            if n == 0 {
                return Err("df-serve exited before its readiness line".into());
            }
            if let Some(addr) = line.trim().strip_prefix("df-serve: listening on ") {
                server.addr = addr.to_string();
                server.boot_ms = t.elapsed().as_secs_f64() * 1e3;
                return Ok(server);
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn connect(&self) -> Result<ServeClient, String> {
        ServeClient::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// The server's cumulative counters.
    fn stats(&self) -> Result<HashMap<String, u64>, String> {
        match self.connect()?.request(&Request::Stats) {
            Ok(Response::Stats(rows)) => Ok(rows.into_iter().collect()),
            other => Err(format!("stats: unexpected reply {other:?}")),
        }
    }

    /// Ask the server to shut down and wait until it has exited.
    fn shutdown(&mut self) -> Result<(), String> {
        match self.connect()?.request(&Request::Shutdown) {
            Ok(Response::Ok) => {}
            other => return Err(format!("shutdown: unexpected reply {other:?}")),
        }
        // Drain the closing report so the child never blocks on its pipe.
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("df-serve stdout: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("df-serve exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            // Errors mean the child is already gone, which is the goal.
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

// ------------------------------------------------------------ verification

/// Whether `response` is a result whose tuples match `want` (canonical
/// images, in canonical order).
fn result_matches(response: &io::Result<Response>, want: &[Vec<u8>], check: Check) -> bool {
    match response {
        Ok(Response::Result(r)) => match check {
            Check::Counts => r.tuples.len() == want.len(),
            Check::Bytes => r.tuples == want,
        },
        _ => false,
    }
}

fn result_bytes(response: &io::Result<Response>) -> u64 {
    match response {
        Ok(Response::Result(r)) => r.tuples.iter().map(|t| t.len() as u64).sum(),
        _ => 0,
    }
}

fn oracle_images(db: &Catalog, text: &str) -> Result<Vec<Vec<u8>>, String> {
    let tree = parse_query(db, text).map_err(|e| format!("`{text}`: {e}"))?;
    let exec = ExecParams {
        page_size: probes::PAGE_SIZE,
        ..ExecParams::default()
    };
    execute_readonly(db, &tree, &exec)
        .map(|rel| sorted_images(&rel))
        .map_err(|e| format!("oracle `{text}`: {e}"))
}

// -------------------------------------------------------------- serve-read

/// The read pool with each text's oracle reference.
struct Pool {
    texts: Vec<String>,
    reference: Vec<Vec<Vec<u8>>>,
}

struct ReadConn<'a> {
    client: ServeClient,
    ranks: Vec<u32>,
    pool: &'a Pool,
    spans: SpanBuf,
    next_op: u64,
    rx_bytes: u64,
}

impl Conn for ReadConn<'_> {
    fn op(&mut self, index: usize, check: Check) -> bool {
        let op = self.next_op;
        self.next_op += 1;
        let rank = self.ranks[index] as usize;
        let whole = self.spans.open("bench.op", op);
        let call = self.spans.open("client.request", op);
        let response = self
            .client
            .query(&self.pool.texts[rank], Priority::Normal, true);
        self.spans.close(call);
        self.rx_bytes += result_bytes(&response);
        let ok = result_matches(&response, &self.pool.reference[rank], check);
        self.spans.close(whole);
        ok
    }

    fn spans(&mut self) -> &mut SpanBuf {
        &mut self.spans
    }
}

// ------------------------------------------------------------- serve-write

/// What a write cycle needs to know about the database.
struct WriteWorld {
    /// The local copy of the served catalog.
    db: Catalog,
    /// `r00` tuple images by key: what an append must return.
    source: HashMap<i64, Vec<u8>>,
    keys: WriteKeys,
    /// Tuples in each view before any write, by `VIEWS` index.
    view_base: [usize; 2],
}

/// The relation a connection's `cycle`-th write cycle targets. Each
/// connection alternates between the two targets, the connections in
/// opposite phase: every op pair does the same work on every connection
/// (a unimodal latency distribution), while at any moment the two
/// connections usually write different relations.
fn write_target(conn: usize, cycle: usize) -> usize {
    (conn + cycle) % WRITE_TARGETS.len()
}

/// The six requests of one write cycle on `target` with source key `key`.
fn cycle_texts(target: &str, key: u64) -> [String; 3] {
    [
        format!("(append (restrict (scan r00) (= key {key})) {target})"),
        format!("(restrict (scan {target}) (= key {key}))"),
        format!("(delete {target} (= key {key}))"),
    ]
}

/// Request kinds inside a cycle, for per-kind client latency.
#[derive(Clone, Copy)]
enum Kind {
    Write = 0,
    Read = 1,
    ViewRead = 2,
}

struct WriteConn<'a> {
    client: ServeClient,
    conn: usize,
    seed: u64,
    world: &'a WriteWorld,
    /// Private mirror of the catalog for the byte-verified warm-up.
    mirror: Catalog,
    spans: SpanBuf,
    next_op: u64,
    rx_bytes: u64,
    kind_ms: [Vec<f64>; 3],
}

impl WriteConn<'_> {
    fn timed(&mut self, kind: Kind, op: u64, request: &Request) -> io::Result<Response> {
        let call = self.spans.open("client.request", op);
        let t = Instant::now();
        let response = self.client.request(request);
        self.kind_ms[kind as usize].push(t.elapsed().as_secs_f64() * 1e3);
        self.spans.close(call);
        self.rx_bytes += result_bytes(&response);
        response
    }

    fn query(&mut self, kind: Kind, op: u64, text: &str) -> io::Result<Response> {
        let request = self.client.query_request(text, Priority::Normal, true);
        self.timed(kind, op, &request)
    }

    /// Read view `v` and check it. Under [`Check::Bytes`] the reference
    /// is the oracle over the mirror; under [`Check::Counts`] it is the
    /// base count plus `own` (this connection's tuple currently in the
    /// view), give or take the one tuple the other connection may have
    /// in flight in `r01`.
    fn view_read(&mut self, v: usize, own: usize, op: u64, check: Check) -> bool {
        let request = self.client.read_view_request(VIEWS[v].0);
        let response = self.timed(Kind::ViewRead, op, &request);
        match check {
            Check::Bytes => oracle_images(&self.mirror, VIEWS[v].1)
                .is_ok_and(|want| result_matches(&response, &want, Check::Bytes)),
            Check::Counts => match &response {
                Ok(Response::Result(r)) => {
                    let floor = self.world.view_base[v] + own;
                    (floor..=floor + 1).contains(&r.tuples.len())
                }
                _ => false,
            },
        }
    }

    /// Apply `text` to the mirror (byte-verified warm-up only).
    fn mirror_write(&mut self, text: &str, check: Check) -> bool {
        if check != Check::Bytes {
            return true;
        }
        let exec = ExecParams {
            page_size: probes::PAGE_SIZE,
            ..ExecParams::default()
        };
        parse_query(&self.mirror, text)
            .and_then(|tree| execute(&mut self.mirror, &tree, &exec))
            .is_ok()
    }
}

impl Conn for WriteConn<'_> {
    /// One op is a pair of write cycles, one per target:
    /// `[append k → read_view bench_join → read → delete k → read_view
    /// bench_set → read]` on each. Append/delete pairs return every
    /// relation to its starting size, so cost does not drift.
    fn op(&mut self, index: usize, check: Check) -> bool {
        let op = self.next_op;
        self.next_op += 1;
        let whole = self.spans.open("bench.op", op);
        let mut ok = true;
        for half in 0..WRITE_TARGETS.len() {
            let cycle = index * WRITE_TARGETS.len() + half;
            let target = WRITE_TARGETS[write_target(self.conn, cycle)];
            let in_views = usize::from(target == WRITE_TARGETS[0]);
            let key = self.world.keys.key(self.seed, self.conn, cycle);
            let image = &self.world.source[&(key as i64)];
            let one = std::slice::from_ref(image);
            let [append, read, delete] = cycle_texts(target, key);

            let r = self.query(Kind::Write, op, &append);
            ok &= result_matches(&r, one, check) && self.mirror_write(&append, check);
            ok &= self.view_read(0, in_views, op, check);
            let r = self.query(Kind::Read, op, &read);
            ok &= result_matches(&r, one, check);
            let r = self.query(Kind::Write, op, &delete);
            ok &= result_matches(&r, one, check) && self.mirror_write(&delete, check);
            ok &= self.view_read(1, 0, op, check);
            let r = self.query(Kind::Read, op, &read);
            ok &= result_matches(&r, &[], check);
        }
        self.spans.close(whole);
        ok
    }

    fn spans(&mut self) -> &mut SpanBuf {
        &mut self.spans
    }
}

fn write_world(db: Catalog) -> Result<WriteWorld, String> {
    let tuples = |name: &str| db.get(name).map_or(0, Relation::num_tuples) as u64;
    let max_target = WRITE_TARGETS.iter().map(|t| tuples(t)).max().unwrap_or(0);
    let keys = WriteKeys::new(max_target, tuples("r00"), CONNS as u64);
    let source = db
        .get("r00")
        .ok_or("catalog has no r00")?
        .tuple_refs()
        .filter_map(|t| match t.value(0) {
            Ok(Value::Int(k)) => Some((k, t.raw().to_vec())),
            _ => None,
        })
        .collect();
    Ok(WriteWorld {
        db,
        source,
        keys,
        view_base: [0, 0],
    })
}

// ------------------------------------------------------------ stage replay

/// Per-stage seconds of one replayed op.
#[derive(Default, Clone, Copy)]
struct Stages {
    decode: f64,
    plan: f64,
    host: f64,
    encode: f64,
}

/// In-process replay of served requests through the same public calls
/// the server makes: `Request::decode` → `parse_query` + `optimize` →
/// `run_host_queries` (or the write / view path) → `Response::encode` +
/// `write_frame`. No queues, gates, threads or sockets: what the client
/// saw beyond Σ stages is the residual.
struct Replay {
    db: Catalog,
    views: Vec<StandingView>,
    /// Optimizer statistics, regathered lazily after a write as the
    /// engine does.
    opt_stats: Option<CatalogStats>,
    host: HostParams,
    totals: HostTotals,
    spans: SpanBuf,
    sink: Vec<u8>,
}

impl Replay {
    fn new(db: &Catalog, with_views: bool, epoch: Instant) -> Result<Replay, String> {
        let views = if with_views {
            VIEWS
                .iter()
                .map(|(name, text)| {
                    let tree = parse_query(db, text).map_err(|e| e.to_string())?;
                    StandingView::install(name, text, db, &tree, probes::PAGE_SIZE)
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<_, String>>()?
        } else {
            Vec::new()
        };
        let mut spans = SpanBuf::new(epoch);
        spans.set_on(true);
        Ok(Replay {
            db: db.clone(),
            views,
            opt_stats: None,
            // The engine forces canonical result order on every read.
            host: HostParams {
                deterministic: true,
                ..probes::host_params()
            },
            totals: HostTotals::default(),
            spans,
            sink: Vec::new(),
        })
    }

    fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        acc: &mut f64,
        f: impl FnOnce(&mut Replay) -> T,
    ) -> T {
        let h = self.spans.open(name, op);
        let t = Instant::now();
        let out = f(self);
        *acc += t.elapsed().as_secs_f64();
        self.spans.close(h);
        out
    }

    fn reply(&mut self, op: u64, stages: &mut Stages, result: QueryResult) {
        self.span("serve.proto.encode", op, &mut stages.encode, |r| {
            r.sink.clear();
            write_frame(&mut r.sink, &Response::Result(result).encode()).expect("writes to memory");
        });
    }

    /// Replay one request.
    fn request(&mut self, op: u64, request: &Request, stages: &mut Stages) -> Result<(), String> {
        let frame = request.encode();
        let decoded = self.span("serve.proto.decode", op, &mut stages.decode, |_| {
            Request::decode(&frame)
        });
        match decoded.map_err(|e| e.to_string())? {
            Request::Query { text, .. } => {
                if self.opt_stats.is_none() {
                    self.span("opt.stats_gather", op, &mut stages.plan, |r| {
                        r.opt_stats = Some(CatalogStats::gather(&r.db));
                    });
                }
                let tree = self
                    .span("query.parse", op, &mut stages.plan, |r| {
                        parse_query(&r.db, &text)
                    })
                    .map_err(|e| e.to_string())?;
                let tree = self.span("opt.optimize", op, &mut stages.plan, |r| {
                    let stats = r.opt_stats.as_ref().expect("gathered above");
                    let tree = optimize(&r.db, &tree, stats).map_or(tree, |o| o.tree);
                    // The plan's canonical key is its rendering.
                    std::hint::black_box(render_tree(&tree));
                    tree
                });
                let result = if tree.written_relations().is_empty() {
                    self.read(op, &tree, stages)?
                } else {
                    self.write(op, &tree, stages)?
                };
                self.reply(op, stages, result);
            }
            Request::ReadView { name, .. } => {
                let result = self.span("host.view.read", op, &mut stages.host, |r| {
                    r.views
                        .iter()
                        .find(|v| v.name() == name)
                        .map(|v| QueryResult {
                            id: 0,
                            fan_out: 1,
                            schema: v.schema().to_string(),
                            tuples: v.tuple_images(),
                        })
                });
                self.reply(op, stages, result.ok_or("replay: view not installed")?);
            }
            other => return Err(format!("replay: unexpected request {other:?}")),
        }
        Ok(())
    }

    fn read(
        &mut self,
        op: u64,
        tree: &QueryTree,
        stages: &mut Stages,
    ) -> Result<QueryResult, String> {
        let out = self
            .span("host.run_host_queries", op, &mut stages.host, |r| {
                run_host_queries(&r.db, std::slice::from_ref(tree), &r.host)
            })
            .map_err(|e| e.to_string())?;
        self.totals.add(&out.metrics);
        let rel = out
            .results
            .into_iter()
            .next()
            .ok_or("replay: no result")?
            .map_err(|e| e.to_string())?;
        Ok(probes::wire_result(&rel))
    }

    fn write(
        &mut self,
        op: u64,
        tree: &QueryTree,
        stages: &mut Stages,
    ) -> Result<QueryResult, String> {
        let exec = ExecParams {
            page_size: probes::PAGE_SIZE,
            ..ExecParams::default()
        };
        let delta = self
            .span("query.stage_write", op, &mut stages.host, |r| {
                stage_write(&r.db, tree, &exec)
            })
            .map_err(|e| e.to_string())?;
        let target = delta.target().to_string();
        let (inserts, deletes) = delta.base_change();
        let rel = self
            .span("query.apply_write", op, &mut stages.host, |r| {
                apply_write(&mut r.db, delta)
            })
            .map_err(|e| e.to_string())?;
        self.span("host.view.apply", op, &mut stages.host, |r| {
            for view in &mut r.views {
                view.apply_write(&target, &inserts, &deletes)
                    .map_err(|e| e.to_string())?;
            }
            Ok::<(), String>(())
        })?;
        self.opt_stats = None;
        Ok(probes::wire_result(&rel))
    }
}

/// Print the replay's stage medians and the residual against the
/// client's median round trip. `plan_weight` scales the plan stage (the
/// share of requests that miss the plan cache).
fn put_replay(report: &mut Report, ops: &[Stages], plan_weight: f64, client_p50_ms: f64) {
    let med = |f: fn(&Stages) -> f64| stats::median(&ops.iter().map(f).collect::<Vec<_>>()) * 1e6;
    let decode = med(|s| s.decode);
    let plan = med(|s| s.plan) * plan_weight;
    let host = med(|s| s.host);
    let encode = med(|s| s.encode);
    let n = ops.len();
    report.put("serve.replay.decode_us", decode, n);
    report.put("serve.replay.plan_us", plan, n);
    report.put("serve.replay.host_us", host, n);
    report.put("serve.replay.encode_us", encode, n);
    // Queueing, gate wait, thread hand-offs and the socket: by
    // construction the five parts sum to the measured round trip.
    report.put(
        "serve.replay.residual_us",
        client_p50_ms * 1e3 - (decode + plan + host + encode),
        n,
    );
}

// --------------------------------------------------------------- open loop

/// Open-loop probe: `rate` requests per second for `secs`, pipelined on
/// one connection and sent on schedule whatever is outstanding; latency
/// counts from the *scheduled* send time, so a stall is charged to every
/// request it delays. Prints p50/p99 and how late the generator ran.
fn open_loop(
    server: &Server,
    pool: &Pool,
    seed: u64,
    rate: f64,
    secs: f64,
    report: &mut Report,
) -> Result<(), String> {
    let total = (rate * secs) as usize;
    // A stream of its own: connection ids 0..CONNS are the closed loop's.
    let ranks = gen::read_ranks(seed, CONNS, pool.texts.len(), total);
    let stream = std::net::TcpStream::connect(&server.addr)
        .map_err(|e| format!("connect {}: {e}", server.addr))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(stream);
    let gap = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    let due = |id: u64| start + gap.mul_f64(id as f64);

    let sent = AtomicU64::new(0);
    let send_failed = AtomicBool::new(false);
    let late_ms = Mutex::new(Vec::with_capacity(total));
    let mut open_ms = Vec::with_capacity(total);
    let mut refused = 0usize;
    std::thread::scope(|s| -> Result<(), String> {
        let (sent, send_failed, late_ms) = (&sent, &send_failed, &late_ms);
        s.spawn(move || {
            let mut late = Vec::with_capacity(total);
            for (id, &rank) in ranks.iter().enumerate() {
                let due = due(id as u64);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late.push(due.elapsed().as_secs_f64() * 1e3);
                let request = Request::Query {
                    id: id as u64,
                    priority: Priority::Normal,
                    optimize: true,
                    text: pool.texts[rank as usize].clone(),
                };
                if write_frame(&mut writer, &request.encode()).is_err() {
                    send_failed.store(true, Ordering::SeqCst);
                    break;
                }
                sent.fetch_add(1, Ordering::SeqCst);
            }
            *late_ms.lock().expect("only this thread writes") = late;
        });
        // Every request sent is answered exactly once (Busy included),
        // so the receiver reads until the sender is done and drained.
        let mut received = 0u64;
        while received < total as u64 {
            if received == sent.load(Ordering::SeqCst) {
                if send_failed.load(Ordering::SeqCst) {
                    return Err("open loop: send failed".into());
                }
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            let payload = df_serve::proto::read_frame(&mut reader)
                .map_err(|e| format!("open loop recv: {e}"))?
                .ok_or("open loop: server closed the connection")?;
            match Response::decode(&payload).map_err(|e| e.to_string())? {
                Response::Result(r) => open_ms.push(due(r.id).elapsed().as_secs_f64() * 1e3),
                _ => refused += 1,
            }
            received += 1;
        }
        Ok(())
    })?;
    let open_ms = stats::sorted(open_ms);
    let late = stats::sorted(late_ms.into_inner().expect("sender finished"));
    report.note(&format!(
        "open loop: {rate} req/s for {secs} s on one connection, {} answered, {refused} refused",
        open_ms.len()
    ));
    report.put(
        "client.open_p50_ms",
        stats::percentile(&open_ms, 0.5),
        open_ms.len(),
    );
    report.put(
        "client.open_p99_ms",
        stats::percentile(&open_ms, 0.99),
        open_ms.len(),
    );
    report.put("client.late_ms", stats::percentile(&late, 0.99), late.len());
    Ok(())
}

// ------------------------------------------------------------------- runs

/// What the timed phase of a served workload measured.
struct Timed {
    rounds: Vec<runner::Round>,
    before: HashMap<String, u64>,
    after: HashMap<String, u64>,
}

fn timed_phase<C: Conn>(
    server: &Server,
    conns: &mut [C],
    plan: Rounds,
    args: &RunArgs,
    yard: &mut Yardstick,
) -> Result<Timed, String> {
    let before = server.stats()?;
    let rounds = runner::run_timed(conns, plan, args, Some(server.pid()), yard)?;
    let after = server.stats()?;
    Ok(Timed {
        rounds,
        before,
        after,
    })
}

/// Print the per-layer metrics every served workload derives from its
/// timed phase: server counter deltas, ping round trip, client CPU.
/// Returns `(client p50 in ms, plan-cache miss ratio)`.
fn put_serve_layers(
    report: &mut Report,
    server: &Server,
    timed: &Timed,
    rx_bytes: u64,
) -> Result<(f64, f64), String> {
    let p50_ms = runner::put_round_layers(report, &timed.rounds);
    let delta = |key: &str| {
        let at = |m: &HashMap<String, u64>| m.get(key).copied().unwrap_or(0);
        at(&timed.after).saturating_sub(at(&timed.before)) as f64
    };
    let ops: usize = timed.rounds.iter().map(|r| r.op_ms.len()).sum();
    let timed_s: f64 = timed.rounds.iter().map(|r| r.wall_s).sum();
    let (hits, misses) = (delta("plan_cache_hits"), delta("plan_cache_misses"));
    let lanes: Vec<f64> = (0..probes::LANES)
        .map(|i| delta(&format!("lane{i}_execs")))
        .collect();
    let lane_total: f64 = lanes.iter().sum();
    let lane_spread = lanes.iter().cloned().fold(f64::MIN, f64::max)
        - lanes.iter().cloned().fold(f64::MAX, f64::min);

    report.put("serve.server.boot_ms", server.boot_ms, 0);
    report.put("serve.engine.batches", delta("batches"), 0);
    report.put(
        "serve.engine.reqs_per_batch",
        delta("submitted") / delta("batches"),
        0,
    );
    report.put(
        "serve.engine.fused_ratio",
        delta("fused") / delta("reads"),
        0,
    );
    report.put(
        "serve.engine.plan_cache_hit_ratio",
        hits / (hits + misses),
        (hits + misses) as usize,
    );
    report.put("serve.engine.parses", delta("parses"), 0);
    report.put(
        "serve.engine.cache_evictions",
        delta("cache_evictions_partial"),
        0,
    );
    report.put("serve.engine.busy_rejected", delta("busy_rejected"), 0);
    report.put("serve.engine.failed", delta("failed"), 0);
    report.put("serve.engine.lane_imbalance", lane_spread / lane_total, 0);
    report.put("serve.engine.writes_applied", delta("writes_applied"), 0);
    report.put(
        "serve.engine.concurrent_write_batches",
        delta("concurrent_write_batches"),
        0,
    );
    report.put("serve.engine.delta_pages", delta("delta_pages"), 0);
    report.put("serve.engine.view_reads", delta("view_reads_served"), 0);
    report.put("serve.server.bytes_in", delta("bytes_in"), 0);
    report.put("serve.server.bytes_out", delta("bytes_out"), 0);
    let client_cpu_s: f64 = timed.rounds.iter().map(|r| r.own_cpu_s).sum();
    report.put("client.cpu_ms_per_op", client_cpu_s * 1e3 / ops as f64, ops);
    report.put("client.result_mib_s", rx_bytes as f64 / MIB / timed_s, ops);

    // Socket + frame floor: a request the connection thread answers
    // itself, never entering the engine.
    let mut control = server.connect()?;
    let mut rtt_us = Vec::new();
    for _ in 0..500 {
        let t = Instant::now();
        match control.request(&Request::Ping) {
            Ok(Response::Ok) => rtt_us.push(t.elapsed().as_secs_f64() * 1e6),
            other => return Err(format!("ping: unexpected reply {other:?}")),
        }
    }
    report.put("serve.server.rtt_us", stats::median(&rtt_us), rtt_us.len());
    Ok((p50_ms, misses / (hits + misses)))
}

fn put_workload_layers(report: &mut Report, dbgen_ms: f64, oracle_ms: f64, references: usize) {
    report.put("workload.dbgen_ms", dbgen_ms, 0);
    // Served workloads send texts; no query trees are built client-side.
    report.put("workload.queries_build_ms", 0.0, 0);
    report.put("query.oracle_batch_ms", oracle_ms, references);
}

/// Run one served workload.
pub fn run(workload: &'static str, args: &RunArgs, report: &mut Report) -> Result<Outcome, String> {
    report.note(&format!(
        "knobs: scale {SCALE}, workers {}, lanes {}, plan cache {}, page {} B, \
         thread-per-connection, {CONNS} connections (closed loop), optimize on",
        probes::WORKERS,
        probes::LANES,
        probes::PLAN_CACHE,
        probes::PAGE_SIZE
    ));
    if workload == "serve-read" {
        run_read(args, report)
    } else {
        run_write(args, report)
    }
}

/// Everything one `serve-read` set-up builds.
struct ReadSetup {
    server: Server,
    db: Catalog,
    pool: Pool,
    dbgen_ms: f64,
    oracle_ms: f64,
}

impl ReadSetup {
    /// One connection per closed-loop caller, each with its seeded ranks.
    fn conns(&self, args: &RunArgs) -> Result<Vec<ReadConn<'_>>, String> {
        (0..CONNS)
            .map(|c| {
                let ranks = gen::read_ranks(args.seed, c, READ_POOL, READ_PLAN.list_len());
                self.conn(args, ranks)
            })
            .collect()
    }

    fn conn(&self, args: &RunArgs, ranks: Vec<u32>) -> Result<ReadConn<'_>, String> {
        Ok(ReadConn {
            client: self.server.connect()?,
            ranks,
            pool: &self.pool,
            spans: SpanBuf::new(args.started),
            next_op: 0,
            rx_bytes: 0,
        })
    }
}

fn setup_read(args: &RunArgs, clock: &mut SetupClock) -> Result<ReadSetup, String> {
    let t = Instant::now();
    let db = generate_database(&DatabaseSpec::scaled(SCALE));
    let dbgen_ms = t.elapsed().as_secs_f64() * 1e3;
    clock.lap();
    let server = Server::spawn()?;
    clock.lap();
    let texts: Vec<String> = (0..READ_POOL).map(gen::read_text).collect();
    let t = Instant::now();
    let reference = texts
        .iter()
        .map(|text| oracle_images(&db, text))
        .collect::<Result<_, _>>()?;
    let oracle_ms = t.elapsed().as_secs_f64() * 1e3;
    clock.lap();
    let s = ReadSetup {
        server,
        db,
        pool: Pool { texts, reference },
        dbgen_ms,
        oracle_ms,
    };
    // Verified warm-up, byte-for-byte against the oracle: every distinct
    // text once (coldest first, so the hot ranks end up cached), then
    // each connection's own list once through.
    let every_text = (0..READ_POOL as u32).rev().collect();
    let cover = runner::run_round(&mut [s.conn(args, every_text)?], 0, READ_POOL, Check::Bytes);
    clock.lap();
    let failed = cover.failed
        + clock.warm_up(
            &mut s.conns(args)?,
            READ_PLAN,
            READ_WARMUP_ROUNDS,
            Check::Bytes,
        );
    if failed > 0 {
        return Err(format!(
            "{failed} warm-up responses diverged from the oracle"
        ));
    }
    Ok(s)
}

fn run_read(args: &RunArgs, report: &mut Report) -> Result<Outcome, String> {
    report.note(&format!(
        "round = {CONNS} x {} ops of {CONNS} lists of {}, zipf(1.0) over {READ_POOL} texts on {:?}",
        READ_PLAN.ops,
        READ_PLAN.list_len(),
        gen::READ_POOL_RELATIONS
    ));
    let mut yard = Yardstick::new();
    let (mut s, setup_time) =
        runner::timed_setup(args, &mut yard, |clock| setup_read(args, clock))?;
    let outcome = measure_read(args, report, &s, setup_time, &mut yard)?;
    s.server.shutdown()?;
    Ok(outcome)
}

fn measure_read(
    args: &RunArgs,
    report: &mut Report,
    s: &ReadSetup,
    setup_time: runner::SetupTime,
    yard: &mut Yardstick,
) -> Result<Outcome, String> {
    let workload = "serve-read";
    let (server, pool) = (&s.server, &s.pool);
    let mut conns = s.conns(args)?;
    let timed = timed_phase(server, &mut conns, READ_PLAN, args, yard)?;
    let outcome = runner::tally(&timed.rounds);
    if !args.trace {
        let rss = crate::procfs::peak_rss_mib(Some(server.pid()))?;
        runner::put_end_to_end(report, setup_time, &timed.rounds, rss);
        return Ok(outcome);
    }

    let rx_bytes = conns.iter().map(|c| c.rx_bytes).sum::<u64>();
    let (p50_ms, miss_ratio) = put_serve_layers(report, server, &timed, rx_bytes)?;
    report.put("client.read_p50_ms", p50_ms, outcome.attempted as usize);

    // Replay a seeded sample of connection 0's own requests.
    let mut replay = Replay::new(&s.db, false, args.started)?;
    let mut stages = Vec::new();
    for (op, &rank) in conns[0].ranks.iter().take(300).enumerate() {
        let request = Request::Query {
            id: op as u64,
            priority: Priority::Normal,
            optimize: true,
            text: pool.texts[rank as usize].clone(),
        };
        let mut stage = Stages::default();
        let whole = replay.spans.open("bench.replay_op", op as u64);
        replay.request(op as u64, &request, &mut stage)?;
        replay.spans.close(whole);
        stages.push(stage);
    }
    // Only a miss pays parse + optimize; a hit skips the plan stage.
    put_replay(report, &stages, miss_ratio, p50_ms);
    replay.totals.put(s.oracle_ms / READ_POOL as f64, report);

    open_loop(
        server,
        pool,
        args.seed,
        1000.0,
        (args.seconds * 0.2).min(5.0),
        report,
    )?;
    put_workload_layers(report, s.dbgen_ms, s.oracle_ms, READ_POOL);
    let sample = QueryResult {
        id: 0,
        fan_out: 1,
        schema: String::new(),
        tuples: pool.reference[0].clone(),
    };
    probes::common(&s.db, &pool.texts, &sample, report);
    probes::host_call_floor(&s.db, report);

    trace::finish(
        workload,
        args,
        &[
            ("conn0", &conns[0].spans),
            ("conn1", &conns[1].spans),
            ("replay", &replay.spans),
        ],
    )?;
    Ok(outcome)
}

/// Everything one `serve-write` set-up builds.
struct WriteSetup {
    server: Server,
    world: WriteWorld,
    /// Relation sizes before any write.
    baseline: Vec<String>,
    dbgen_ms: f64,
    oracle_ms: f64,
}

impl WriteSetup {
    fn conns(&self, args: &RunArgs) -> Result<Vec<WriteConn<'_>>, String> {
        (0..CONNS)
            .map(|conn| {
                Ok(WriteConn {
                    client: self.server.connect()?,
                    conn,
                    seed: args.seed,
                    world: &self.world,
                    mirror: self.world.db.clone(),
                    spans: SpanBuf::new(args.started),
                    next_op: 0,
                    rx_bytes: 0,
                    kind_ms: Default::default(),
                })
            })
            .collect()
    }

    /// Each maintained view equals from-scratch re-execution, and every
    /// relation is back at its starting size.
    fn verify_end_state(&self) -> Result<(), String> {
        let mut control = self.server.connect()?;
        for (name, text) in VIEWS {
            let maintained = control.read_view(name);
            let scratch = match control.query(text, Priority::Normal, false) {
                Ok(Response::Result(mut r)) => {
                    r.tuples.sort_unstable();
                    r.tuples
                }
                other => return Err(format!("re-executing `{name}`: {other:?}")),
            };
            if !result_matches(&maintained, &scratch, Check::Bytes) {
                return Err(format!("view `{name}` diverged from scratch re-execution"));
            }
        }
        match control.request(&Request::Relations) {
            Ok(Response::Relations(rows)) if rows == self.baseline => Ok(()),
            other => Err(format!("relations not back at baseline: {other:?}")),
        }
    }
}

fn setup_write(args: &RunArgs, clock: &mut SetupClock) -> Result<WriteSetup, String> {
    let t = Instant::now();
    let db = generate_database(&DatabaseSpec::scaled(SCALE));
    let dbgen_ms = t.elapsed().as_secs_f64() * 1e3;
    clock.lap();
    let server = Server::spawn()?;
    clock.lap();
    let mut world = write_world(db)?;

    // Install the views and take their references and the baseline
    // relation sizes before any write.
    let mut control = server.connect()?;
    let t = Instant::now();
    for (v, (name, text)) in VIEWS.iter().enumerate() {
        match control.install_view(name, text) {
            Ok(Response::Result(_)) => {}
            other => return Err(format!("install `{name}`: {other:?}")),
        }
        let want = oracle_images(&world.db, text)?;
        if !result_matches(&control.read_view(name), &want, Check::Bytes) {
            return Err(format!("view `{name}` differs from the oracle at install"));
        }
        world.view_base[v] = want.len();
    }
    let oracle_ms = t.elapsed().as_secs_f64() * 1e3;
    clock.lap();
    let baseline = match control.request(&Request::Relations) {
        Ok(Response::Relations(rows)) => rows,
        other => return Err(format!("relations: {other:?}")),
    };
    let s = WriteSetup {
        server,
        world,
        baseline,
        dbgen_ms,
        oracle_ms,
    };

    // Byte-verified warm-up, one connection at a time so each view read
    // has exactly one correct answer; then both lists once through,
    // concurrently.
    let mut conns = s.conns(args)?;
    for c in 0..CONNS {
        let warm = runner::run_round(&mut conns[c..=c], 0, 1, Check::Bytes);
        if warm.failed > 0 {
            return Err(format!(
                "the verified warm-up op of connection {c} diverged from the oracle"
            ));
        }
    }
    clock.lap();
    let failed = clock.warm_up(&mut conns, WRITE_PLAN, WRITE_WARMUP_ROUNDS, Check::Counts);
    if failed > 0 {
        return Err(format!("{failed} warm-up ops failed"));
    }
    drop(conns);
    Ok(s)
}

fn run_write(args: &RunArgs, report: &mut Report) -> Result<Outcome, String> {
    report.note(&format!(
        "round = {CONNS} x {} ops of {CONNS} lists of {}; op = one cycle \
         [append k, read_view bench_join, read, delete k, read_view bench_set, read] on each of {WRITE_TARGETS:?}",
        WRITE_PLAN.ops,
        WRITE_PLAN.list_len()
    ));
    let mut yard = Yardstick::new();
    let (mut s, setup_time) =
        runner::timed_setup(args, &mut yard, |clock| setup_write(args, clock))?;
    let outcome = measure_write(args, report, &s, setup_time, &mut yard)?;
    s.server.shutdown()?;
    Ok(outcome)
}

fn measure_write(
    args: &RunArgs,
    report: &mut Report,
    s: &WriteSetup,
    setup_time: runner::SetupTime,
    yard: &mut Yardstick,
) -> Result<Outcome, String> {
    let workload = "serve-write";
    let (server, world) = (&s.server, &s.world);
    let mut conns = s.conns(args)?;
    let timed = timed_phase(server, &mut conns, WRITE_PLAN, args, yard)?;
    let mut outcome = runner::tally(&timed.rounds);
    s.verify_end_state()?;
    if !args.trace {
        let rss = crate::procfs::peak_rss_mib(Some(server.pid()))?;
        runner::put_end_to_end(report, setup_time, &timed.rounds, rss);
        return Ok(outcome);
    }

    let rx_bytes = conns.iter().map(|c| c.rx_bytes).sum();
    let (p50_ms, _) = put_serve_layers(report, server, &timed, rx_bytes)?;
    for (kind, name) in [
        (Kind::Write, "client.write_p50_ms"),
        (Kind::Read, "client.read_p50_ms"),
        (Kind::ViewRead, "client.view_read_p50_ms"),
    ] {
        let ms: Vec<f64> = conns
            .iter()
            .flat_map(|c| c.kind_ms[kind as usize].iter().copied())
            .collect();
        report.put(name, stats::median(&ms), ms.len());
    }

    // Replay connection 0's own ops on a private copy with its own views.
    let mut replay = Replay::new(&world.db, true, args.started)?;
    let mut stages = Vec::new();
    for index in 0..20 {
        let mut stage = Stages::default();
        let whole = replay.spans.open("bench.replay_op", index as u64);
        for half in 0..WRITE_TARGETS.len() {
            let cycle = index * WRITE_TARGETS.len() + half;
            let target = WRITE_TARGETS[write_target(0, cycle)];
            let [append, read, delete] = cycle_texts(target, world.keys.key(args.seed, 0, cycle));
            let query = |text: &String| Request::Query {
                id: 0,
                priority: Priority::Normal,
                optimize: true,
                text: text.clone(),
            };
            let view = |v: usize| Request::ReadView {
                id: 0,
                name: VIEWS[v].0.to_string(),
            };
            for request in [
                query(&append),
                view(0),
                query(&read),
                query(&delete),
                view(1),
                query(&read),
            ] {
                replay.request(index as u64, &request, &mut stage)?;
            }
        }
        replay.spans.close(whole);
        stages.push(stage);
    }
    // Every write evicts the plans reading its target, and every text of
    // a cycle reads the target: each query of the cycle plans afresh.
    put_replay(report, &stages, 1.0, p50_ms);
    replay.totals.put(0.0, report);
    if replay.db != world.db {
        outcome.failed += 1;
        eprintln!("serve-write: replay left its catalog changed");
    }

    put_workload_layers(report, s.dbgen_ms, s.oracle_ms, VIEWS.len());
    let texts: Vec<String> = (0..8)
        .flat_map(|cycle| {
            cycle_texts(
                WRITE_TARGETS[write_target(0, cycle)],
                world.keys.key(args.seed, 0, cycle),
            )
        })
        .collect();
    let sample = QueryResult {
        id: 0,
        fan_out: 1,
        schema: String::new(),
        tuples: oracle_images(&world.db, VIEWS[1].1)?,
    };
    probes::common(&world.db, &texts, &sample, report);
    probes::host_call_floor(&world.db, report);

    trace::finish(
        workload,
        args,
        &[
            ("conn0", &conns[0].spans),
            ("conn1", &conns[1].spans),
            ("replay", &replay.spans),
        ],
    )?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connections_alternate_targets_in_opposite_phase() {
        for cycle in 0..8 {
            assert_ne!(write_target(0, cycle), write_target(1, cycle));
            assert_ne!(write_target(0, cycle), write_target(0, cycle + 1));
        }
        // One op covers both targets on every connection: uniform work.
        for conn in 0..CONNS {
            let mut targets = [write_target(conn, 0), write_target(conn, 1)];
            targets.sort_unstable();
            assert_eq!(targets, [0, 1]);
        }
    }

    #[test]
    fn a_write_cycle_returns_the_target_to_its_starting_contents() {
        let db = generate_database(&DatabaseSpec::scaled(0.02));
        let world = write_world(db).expect("world builds");
        let exec = ExecParams::default();
        let mut mirror = world.db.clone();
        for conn in 0..CONNS {
            for cycle in 0..6 {
                let target = WRITE_TARGETS[write_target(conn, cycle)];
                let key = world.keys.key(9, conn, cycle);
                let before = mirror.get(target).expect("target").num_tuples();
                let [append, read, delete] = cycle_texts(target, key);
                let run = |db: &mut Catalog, text: &str| {
                    let tree = parse_query(db, text).expect("cycle text parses");
                    execute(db, &tree, &exec).expect("cycle text runs")
                };
                let appended = run(&mut mirror, &append);
                assert_eq!(
                    sorted_images(&appended),
                    [world.source[&(key as i64)].clone()]
                );
                assert_eq!(mirror.get(target).expect("target").num_tuples(), before + 1);
                assert_eq!(run(&mut mirror, &read).num_tuples(), 1);
                assert_eq!(
                    run(&mut mirror, &delete).num_tuples(),
                    1,
                    "exactly the appended tuple"
                );
                assert_eq!(run(&mut mirror, &read).num_tuples(), 0);
            }
        }
        assert_eq!(mirror, world.db, "every relation is back at its baseline");
    }

    #[test]
    fn read_pool_is_twice_the_plan_cache() {
        assert_eq!(READ_POOL, 256);
        assert_eq!(probes::PLAN_CACHE, 128);
    }
}
