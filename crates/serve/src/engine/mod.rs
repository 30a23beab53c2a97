//! The admission/execution engine behind the socket front-end.
//!
//! One dispatcher thread (the serve-layer counterpart of the paper's
//! master controller) drains bounded per-client queues in batches and
//! takes every request down one path — **resolve → gate → lane**. Each
//! stage is a module of its own:
//!
//! * `admission` — bounded per-client queues with typed
//!   [`ServeError::Busy`] backpressure, filled through [`EngineHandle`].
//!   Batch collection walks priority classes high → normal → low and
//!   round-robins over the *heads* of the client queues with a cursor
//!   that persists across batches, so a heavy client contributes at most
//!   one request per turn. Each client's own requests stay FIFO.
//! * `plan` — **resolve**: query text → a parsed (optionally optimized)
//!   plan through an LRU keyed by normalized text. A dispatched write
//!   evicts exactly the entries whose read-set intersects the relations
//!   it mutates (`ServeStats::cache_evictions_partial`). The optimizer's
//!   statistics are per relation too: resolve gathers only the relations
//!   a plan names and does not hold (`ServeStats::stats_gathers`), and
//!   the lane that applies a write folds the write's change into its
//!   target's, so writes do not force a rescan.
//! * `gate` — the per-relation reader/writer gate, the **only**
//!   mechanism that orders conflicting work: shared marks on every
//!   relation a task reads, exclusive marks on every relation a write
//!   mutates, acquired by the dispatcher in submission order before the
//!   task is sent. Writes to disjoint relations apply concurrently
//!   (`ServeStats::concurrent_write_batches`); conflicting tasks execute
//!   in submission order — no lost updates, per relation.
//! * `lanes` — the executor threads. A write runs split-phase
//!   ([`df_query::stage_write`] under the catalog read lock,
//!   [`df_query::apply_write`] under a brief write lock), sound because
//!   the gate's exclusive mark freezes the target between the phases.
//! * `views` — standing views take the same path under `view:<name>`
//!   pseudo-relation marks.
//!
//! **In-order dispatch.** A batch is dispatched in the order it was
//! collected. Consecutive reads accumulate into a *run* that executes
//! concurrently inside one [`df_host::run_host_queries`] call; every
//! write and every view request first flushes the pending run and is
//! then dispatched on its own. Nothing is hoisted past an earlier
//! request, so the requests of one connection take effect, and are
//! answered, in the order they were sent.
//!
//! **Fusion.** Identical reads of one run (same plan tree after optional
//! optimization, compared by its `Debug` form, which writes out every
//! operator field) collapse
//! to a single execution whose result is fanned out to every waiter —
//! the Noria read-heavy-web-traffic trick. A read whose twin is *already
//! executing* on a lane joins that execution's waiter list (the
//! in-flight registry) and receives the same byte-identical fan-out.
//! Per read request exactly one of `read_execs`/`fused`/`inflight_joins`
//! accounts for it.
//!
//! Failures are contained per request: a query that fails parsing,
//! validation, or execution (any [`df_host::HostError`], including a
//! panicking unit injected via [`df_host::FaultPlan`]) produces a
//! structured [`Response::Error`] to exactly that client while the rest
//! of the batch completes normally. Neither the dispatcher nor a lane
//! ever panics on query content — and if a lane *does* panic (a kernel
//! bug, or a [`ServeConfig::lane_panic_task`] injection), the
//! panic is caught, the task's waiters get a structured error, the
//! task's gate marks are released, and the server keeps serving everyone
//! else. Shared locks are acquired through poison-recovering helpers:
//! every guarded structure is left consistent at any panic point
//! (counters are atomics, queues mutate one whole element at a time, and
//! catalog mutations go through [`df_query::apply_write`], whose
//! intermediate states are all valid), so a poisoned mutex is recovered
//! instead of cascading panics into every other client's thread (the
//! optimizer statistics too: an entry is inserted whole or not at all).

mod admission;
mod gate;
mod lanes;
mod plan;
mod stats;
mod views;

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::thread::JoinHandle;

use df_host::{HostParams, StandingView};
use df_obs::{EventKind, Tracer};
use df_opt::CatalogStats;
use df_query::LockRequest;
use df_relalg::{Catalog, Schema};

use crate::proto::{response_frame, result_frame, set_result_id, Priority, Response, ServeError};
use admission::{Inbox, Submission, SubmissionKind};
use gate::{view_mark, RelationGate};
use lanes::{lane_loop, Inflight, LaneTask, ReadTask, WriteTask};
use plan::{Plan, PlanCache};
use views::{admit_view, ViewTask};

pub use admission::{EngineHandle, Reply};
pub use lanes::LaneHold;
pub use stats::ServeStats;

/// Lock a mutex, recovering the guard if a previous holder panicked.
/// Sound here because every structure guarded by a serve-layer mutex is
/// consistent at each possible panic point (see the module docs).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] for a shared (read) catalog guard. Reader panics never
/// poison a `RwLock`, but the recovery keeps readers alive after a
/// *writer* panic — which [`df_query::apply_write`] keeps consistent by
/// construction.
fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] for the exclusive (write) catalog guard.
fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Condvar wait with the same poison recovery as [`lock`].
fn wait_on<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Serve-layer configuration. [`ServeConfig::validate`] is called by
/// [`Engine::new`]; execution itself reuses [`HostParams`] (validated by
/// the executor per batch).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded per-client admission queue depth. A submission past this
    /// is rejected with [`ServeError::Busy`].
    pub queue_capacity: usize,
    /// Most requests drained into one execution batch.
    pub batch_max: usize,
    /// Executor lanes (≥ 1). Each run of reads — and each write — is
    /// dispatched to one lane; with several lanes, independent reads
    /// and writes to disjoint relations execute concurrently while the
    /// dispatcher keeps collecting. The per-relation gate serializes
    /// conflicting tasks in submission order, whatever the lane count.
    pub lanes: usize,
    /// Plan-cache capacity in distinct (normalized text, optimize-flag)
    /// entries; 0 disables the cache. A write evicts exactly the entries
    /// whose read-set intersects the relations it mutates.
    pub plan_cache_capacity: usize,
    /// Executor configuration for read batches. `deterministic` is
    /// forced on so fused waiters receive byte-identical results and
    /// every response is oracle-comparable.
    pub host: HostParams,
    /// Serve-layer tracer: `query_admit`/`query_done` per request (the
    /// `query` field carries the client id) and `client_in`/`client_out`
    /// transfer bytes recorded by the socket layer. Independent of
    /// `host.trace`, which observes the executor's internals.
    pub trace: Option<Arc<Tracer>>,
    /// Deterministic fault injection one layer above the executor: panic
    /// the serve lane before it runs the lane task with this sequence
    /// number (lane tasks are numbered from 0 in dispatch order), to prove
    /// a lane panic is contained to the affected queries. `None` — the
    /// default — injects nothing; `host.fault` injects into the executor.
    pub lane_panic_task: Option<u64>,
    /// Test-only gate holding every lane before it executes its next
    /// task. Lets tests park a read execution deterministically so a
    /// twin read provably joins it in flight. Must be released before
    /// the engine is dropped or lane joins hang.
    #[doc(hidden)]
    pub lane_hold: Option<Arc<LaneHold>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 32,
            batch_max: 64,
            lanes: 2,
            plan_cache_capacity: 128,
            host: HostParams::default(),
            trace: None,
            lane_panic_task: None,
            lane_hold: None,
        }
    }
}

impl ServeConfig {
    /// Validate the serve-layer knobs (the executor's are checked by
    /// [`HostParams::validate`]).
    ///
    /// # Errors
    /// Returns a human-readable description of the first bad knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_capacity == 0 {
            return Err("`queue_capacity` must be >= 1".into());
        }
        if self.batch_max == 0 {
            return Err("`batch_max` must be >= 1".into());
        }
        if self.lanes == 0 {
            return Err("`lanes` must be >= 1".into());
        }
        self.host.validate().map_err(|e| e.to_string())
    }
}

/// A request's successful answer: its result frame, encoded once from
/// `count` images of `schema` wherever they live; `conclude` stamps the
/// request id per waiter.
fn answer<'a>(
    fan_out: u32,
    schema: &Schema,
    count: usize,
    images: impl IntoIterator<Item = &'a [u8]>,
) -> Result<Vec<u8>, ServeError> {
    let width = schema.tuple_width();
    result_frame(0, fan_out, &schema.to_string(), count, width, images)
}

/// State shared between the dispatcher, the lanes, and every submitting
/// thread.
struct Shared {
    inbox: Mutex<Inbox>,
    wake: Condvar,
    stats: ServeStats,
    queue_capacity: usize,
    /// The served catalog. Lanes hold the read lock for the duration of
    /// a read execution and of a write's staging phase; a write's apply
    /// phase takes the write lock briefly. The relation gate — not this
    /// lock — is what orders conflicting tasks.
    db: RwLock<Catalog>,
    /// Optimizer statistics for the relations optimizing requests have
    /// named so far; every entry equals a fresh gather of the current
    /// catalog. **Lock order: `db`, then this.** Resolve refreshes under
    /// the catalog read lock, a write task folds its change into its
    /// target's entry under the catalog write lock, so no plan is ever
    /// optimized against statistics older than the catalog it reads. An
    /// entry keeps its `Int` columns, sorted, only once a write has reached
    /// its relation: resident bytes follow the write traffic.
    opt_stats: Mutex<CatalogStats>,
    /// Read executions dispatched but not yet fanned out, keyed by the
    /// plan tree's `Debug` form. Guards the join-vs-complete race: a
    /// twin read either finds the entry and joins, or misses and
    /// schedules fresh — never both, never neither. A lane removes a
    /// task's entries strictly before releasing its gate ticket, so a
    /// read admitted after a conflicting write can never join a
    /// pre-write execution.
    inflight: Mutex<HashMap<Arc<str>, Inflight>>,
    /// Per-relation reader/writer marks ordering conflicting lane tasks.
    gate: RelationGate,
    /// Lane tasks dispatched and not yet completed (reads and writes);
    /// [`EngineHandle::quiesce`] waits for zero.
    lane_busy: Mutex<usize>,
    lane_idle: Condvar,
    /// Write tasks dispatched and not yet completed; used to detect (and
    /// count) writes overlapping writes.
    writes_in_flight: AtomicU64,
    /// Global lane-task sequence numbers, the coordinate system for
    /// [`ServeConfig::lane_panic_task`] injection.
    lane_task_seq: AtomicU64,
    /// [`ServeConfig::lane_panic_task`].
    lane_panic_task: Option<u64>,
    /// Installed standing views. Registered by the lane that ran the
    /// install (after materialization), updated by every write lane
    /// whose target the view reads, removed by drops — all serialized
    /// per view by the gate's `view:<name>` marks.
    views: Mutex<BTreeMap<String, Arc<Mutex<StandingView>>>>,
    /// Dispatch-time view authority: name → base relations, updated by
    /// the dispatcher the moment it admits an install or drop (before
    /// the lane runs it). Write dispatch reads this to add exclusive
    /// `view:<name>` marks for every view its target feeds, so the map
    /// must lead the registry by exactly the dispatch order. A failed
    /// install's lane removes its entry.
    view_bases: Mutex<BTreeMap<String, Vec<String>>>,
}

impl Shared {
    /// Send one request's final answer and record its `query_done` event.
    /// A success is a [`crate::proto::result_frame`], encoded once for all
    /// of its waiters; this stamps the waiter's id into it. A failure —
    /// the refusal of a result past `MAX_FRAME` included — becomes an
    /// error frame for the same id and counts in `failed`.
    fn conclude(
        &self,
        trace: &Option<Arc<Tracer>>,
        sub: Submission,
        outcome: Result<Vec<u8>, ServeError>,
    ) {
        let failed = outcome.is_err();
        let frame = match outcome {
            Ok(mut frame) => {
                set_result_id(&mut frame, sub.id);
                frame
            }
            Err(error) => {
                self.stats.failed.fetch_add(1, Ordering::Relaxed);
                response_frame(&Response::Error { id: sub.id, error })
            }
        };
        if let Some(t) = trace {
            t.record(
                EventKind::QueryDone,
                sub.client as u32,
                u32::MAX,
                u64::from(failed),
                0,
            );
        }
        (sub.reply)(frame);
    }

    /// Block until no lane task is queued or executing — the test/bench
    /// drain point (no longer a write barrier: writes order themselves
    /// through the relation gate).
    fn quiesce_lanes(&self) {
        let mut busy = lock(&self.lane_busy);
        while *busy > 0 {
            busy = wait_on(&self.lane_idle, busy);
        }
    }
}

/// The dispatcher: plans every request, acquires each task's gate
/// marks in submission order, and feeds the lanes.
pub struct Engine {
    shared: Arc<Shared>,
    config: ServeConfig,
    /// Round-robin cursor over clients, persisted across batches.
    rr_cursor: usize,
    /// Parsed/optimized plans keyed by normalized text; a dispatched
    /// write evicts the entries that read its targets.
    plan_cache: PlanCache,
    /// Dense id for `query_admit` trace events (one per distinct
    /// execution).
    next_exec: u64,
    /// Sender side of the lane task channel; dropped on engine drop so
    /// lanes drain and exit.
    lane_tx: Option<Sender<LaneTask>>,
    lane_handles: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Build an engine serving `db` under `config`, spawning its read
    /// lanes immediately.
    ///
    /// # Errors
    /// Returns a description of the first invalid configuration knob.
    pub fn new(db: Catalog, mut config: ServeConfig) -> Result<Engine, String> {
        config.validate()?;
        // Fused waiters must receive byte-identical results, and every
        // response must be comparable against the sequential oracle:
        // canonicalize results regardless of what the caller set.
        config.host.deterministic = true;
        let shared = Arc::new(Shared {
            inbox: Mutex::new(Inbox {
                queues: Vec::new(),
                open: Vec::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            stats: ServeStats::with_lanes(config.lanes),
            queue_capacity: config.queue_capacity,
            db: RwLock::new(db),
            opt_stats: Mutex::new(CatalogStats::default()),
            inflight: Mutex::new(HashMap::new()),
            gate: RelationGate::new(),
            lane_busy: Mutex::new(0),
            lane_idle: Condvar::new(),
            writes_in_flight: AtomicU64::new(0),
            lane_task_seq: AtomicU64::new(0),
            lane_panic_task: config.lane_panic_task,
            views: Mutex::new(BTreeMap::new()),
            view_bases: Mutex::new(BTreeMap::new()),
        });
        let (lane_tx, lane_rx) = channel::<LaneTask>();
        let lane_rx = Arc::new(Mutex::new(lane_rx));
        let lane_handles = (0..config.lanes)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&lane_rx);
                let host = config.host.clone();
                let trace = config.trace.clone();
                let hold = config.lane_hold.clone();
                std::thread::Builder::new()
                    .name(format!("serve-lane-{lane}"))
                    .spawn(move || lane_loop(lane, &shared, &rx, &host, &trace, hold.as_deref()))
                    .expect("spawn lane")
            })
            .collect();
        let plan_cache = PlanCache::new(config.plan_cache_capacity);
        Ok(Engine {
            shared,
            config,
            rr_cursor: 0,
            plan_cache,
            next_exec: 0,
            lane_tx: Some(lane_tx),
            lane_handles,
        })
    }

    /// A submission-side handle (cloneable, usable from any thread).
    pub fn handle(&self) -> EngineHandle {
        EngineHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The serve-layer tracer, if configured (the socket front-end needs
    /// it for `client_in`/`client_out` transfer events).
    pub fn trace(&self) -> Option<Arc<Tracer>> {
        self.config.trace.clone()
    }

    /// Drain and execute batches until shutdown is requested and the
    /// queues are empty, then drain the lanes. Lane threads are joined
    /// when the engine drops at the end of this call, so a completed
    /// `run` means every accepted request was answered.
    pub fn run(mut self) {
        while self.run_batch() {}
        self.shared.quiesce_lanes();
    }

    /// Block for the next batch and execute it: reads and writes are
    /// dispatched to the lanes (pair with [`EngineHandle::quiesce`] to
    /// wait for their replies). Returns `false` when the engine has
    /// shut down and nothing remains to drain — the dispatcher loop's
    /// exit condition, and the single-step entry point tests use.
    pub fn run_batch(&mut self) -> bool {
        let Some(batch) = self.collect_batch() else {
            return false;
        };
        self.shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.execute_batch(batch);
        true
    }

    /// Wait until work is pending (or shutdown), then drain up to
    /// `batch_max` requests: priority classes high → low, round-robin
    /// across client queue heads within a class.
    fn collect_batch(&mut self) -> Option<Vec<Submission>> {
        let mut inbox = lock(&self.shared.inbox);
        loop {
            if inbox.pending() > 0 {
                break;
            }
            if inbox.shutdown {
                return None;
            }
            inbox = wait_on(&self.shared.wake, inbox);
        }
        let clients = inbox.queues.len();
        let mut batch = Vec::new();
        'fill: while batch.len() < self.config.batch_max {
            for class in Priority::ALL {
                let mut picked = false;
                for step in 0..clients {
                    let c = (self.rr_cursor + step) % clients;
                    if inbox.queues[c].front().map(|s| s.priority) == Some(class) {
                        batch.push(inbox.queues[c].pop_front().expect("front exists"));
                        self.rr_cursor = c + 1;
                        picked = true;
                        break;
                    }
                }
                if picked {
                    // Restart from the highest class: the pop may have
                    // exposed a higher-priority head elsewhere.
                    continue 'fill;
                }
            }
            break; // no queue head left in any class
        }
        debug_assert!(!batch.is_empty(), "woke with pending work");
        Some(batch)
    }

    /// Execute one batch in submission order: runs of query requests go
    /// through plan resolution and in-order dispatch; each view request
    /// flushes the pending run (so its gate marks are acquired after
    /// every earlier query's) and dispatches on its own.
    fn execute_batch(&mut self, batch: Vec<Submission>) {
        let mut queries: Vec<Submission> = Vec::new();
        for sub in batch {
            if matches!(sub.kind, SubmissionKind::Query) {
                queries.push(sub);
            } else {
                self.execute_queries(std::mem::take(&mut queries));
                self.dispatch_view(sub);
            }
        }
        self.execute_queries(queries);
    }

    /// Plan one run of query requests, then dispatch it in submission
    /// order: consecutive reads accumulate into a run, and every write
    /// flushes the pending run before it is dispatched on its own — so
    /// gate marks are acquired in the order the requests were collected
    /// and the gate alone decides what waits for what.
    fn execute_queries(&mut self, batch: Vec<Submission>) {
        // Resolve each request to a plan (cache hit or parse+optimize);
        // failures are answered immediately and drop out of the batch.
        let shared = &self.shared;
        let mut entries: Vec<(Submission, Plan)> = Vec::with_capacity(batch.len());
        for sub in batch {
            match self.plan_cache.resolve(shared, &sub.text, sub.optimize) {
                Ok(plan) => entries.push((sub, plan)),
                Err(detail) => {
                    let error = ServeError::Parse { detail };
                    shared.conclude(&self.config.trace, sub, Err(error));
                }
            }
        }
        let mut reads: Vec<(Submission, Plan)> = Vec::new();
        for (sub, plan) in entries {
            if plan.writes.is_empty() {
                reads.push((sub, plan));
            } else {
                self.dispatch_reads(std::mem::take(&mut reads));
                self.dispatch_write(sub, plan);
            }
        }
        self.dispatch_reads(reads);
    }

    /// Dedupe identical read plans on their tree's `Debug` key, join
    /// late twins onto in-flight executions, and hand the remainder to a
    /// lane as one concurrent df-host batch.
    fn dispatch_reads(&mut self, reads: Vec<(Submission, Plan)>) {
        if reads.is_empty() {
            return;
        }
        let stats = &self.shared.stats;
        stats.reads.fetch_add(reads.len() as u64, Ordering::Relaxed);
        // Run-level fusion: one entry per distinct canonical plan.
        let mut distinct: Vec<(Plan, Vec<Submission>)> = Vec::new();
        let mut index: HashMap<Arc<str>, usize> = HashMap::new();
        for (sub, plan) in reads {
            match index.get(&plan.key) {
                Some(&i) => {
                    stats.fused.fetch_add(1, Ordering::Relaxed);
                    distinct[i].1.push(sub);
                }
                None => {
                    index.insert(Arc::clone(&plan.key), distinct.len());
                    distinct.push((plan, vec![sub]));
                }
            }
        }
        // In-flight fusion: a plan whose twin is already queued on or
        // running inside a lane joins that execution's waiter list; the
        // lane's fan-out will include it. Everything else becomes a
        // fresh execution, registered before the task is sent so
        // later twins can find it.
        let mut keys: Vec<Arc<str>> = Vec::new();
        let mut trees = Vec::new();
        let mut read_set: Vec<String> = Vec::new();
        {
            let mut inflight = lock(&self.shared.inflight);
            for (plan, waiters) in distinct {
                let joined = inflight.get_mut(&plan.key);
                let exec_id = joined.as_ref().map_or(self.next_exec, |e| e.exec_id);
                if let Some(t) = &self.config.trace {
                    // One admit event per distinct plan of the run: `a` =
                    // waiters sharing it at dispatch (> 1 ⟺ fused), `b` =
                    // the dense id of the execution that serves them — a
                    // fresh one, or the in-flight one a late joiner met.
                    t.record(
                        EventKind::QueryAdmit,
                        waiters[0].client as u32,
                        u32::MAX,
                        waiters.len() as u64,
                        exec_id,
                    );
                }
                if let Some(entry) = joined {
                    // Only the run's leader counts as a join: its fused
                    // twins are already in `fused`, and each read lands
                    // in exactly one of {read_execs, fused,
                    // inflight_joins} so the conservation identity
                    // `read_execs + fused + inflight_joins == reads`
                    // holds.
                    stats.inflight_joins.fetch_add(1, Ordering::Relaxed);
                    entry.waiters.extend(waiters);
                    continue;
                }
                self.next_exec += 1;
                inflight.insert(Arc::clone(&plan.key), Inflight { exec_id, waiters });
                for rel in plan.reads.iter() {
                    if !read_set.contains(rel) {
                        read_set.push(rel.clone());
                    }
                }
                keys.push(Arc::clone(&plan.key));
                trees.push(plan.tree.as_ref().clone());
            }
        }
        if keys.is_empty() {
            return;
        }
        stats
            .executed
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        stats
            .read_execs
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        // Shared marks on every relation the task reads: a conflicting
        // write dispatched later waits for this task's lane to release.
        // May block here if such a write is already in flight — the
        // dispatcher stalls (preserving submission order), lanes don't.
        let ticket = self
            .shared
            .gate
            .acquire(&LockRequest::new(read_set, Vec::new()));
        self.send_task(LaneTask::Read(ReadTask {
            keys,
            trees,
            ticket,
        }));
    }

    /// Dispatch one write query to the lanes. The gate's exclusive marks
    /// on its target relations — acquired here, in submission order —
    /// are what serialize conflicting writes (and their readers); writes
    /// to disjoint relations proceed concurrently, which
    /// `concurrent_write_batches` counts. The affected tuples (what
    /// `append`/`delete` touched) are the response payload, assembled by
    /// the lane.
    fn dispatch_write(&mut self, sub: Submission, plan: Plan) {
        // The cached plans that read the written relations go stale with
        // this write; everything else in the cache survives. The target's
        // optimizer statistics stay held: the lane folds the write into
        // them when it applies, which is also when a resolve can first see
        // the post-write relation.
        let stats = &self.shared.stats;
        let evicted = self.plan_cache.evict_reading(&plan.writes);
        stats
            .cache_evictions_partial
            .fetch_add(evicted, Ordering::Relaxed);
        stats.executed.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.config.trace {
            t.record(
                EventKind::QueryAdmit,
                sub.client as u32,
                u32::MAX,
                1,
                self.next_exec,
            );
        }
        self.next_exec += 1;
        let ticket = self.shared.gate.acquire(&self.write_gate_request(&plan));
        if self.shared.writes_in_flight.fetch_add(1, Ordering::Relaxed) > 0 {
            stats
                .concurrent_write_batches
                .fetch_add(1, Ordering::Relaxed);
        }
        self.send_task(LaneTask::Write(WriteTask {
            sub: Some(sub),
            tree: plan.tree,
            ticket,
        }));
    }

    /// A write's gate request: its plan marks plus an exclusive
    /// `view:<name>` mark for every installed view reading one of its
    /// targets — the marks that serialize view maintenance (inside the
    /// write task) against view reads, in submission order.
    fn write_gate_request(&self, plan: &Plan) -> LockRequest {
        let mut writes = plan.writes.to_vec();
        for (name, bases) in lock(&self.shared.view_bases).iter() {
            if bases.iter().any(|b| plan.writes.contains(b)) {
                writes.push(view_mark(name));
            }
        }
        LockRequest::new(plan.reads.to_vec(), writes)
    }

    /// Admit one standing-view request (answering a refused one
    /// immediately), acquire its gate marks, and hand the lane a
    /// [`ViewTask`].
    fn dispatch_view(&mut self, mut sub: Submission) {
        match admit_view(&self.shared, &mut sub) {
            Ok((action, request)) => {
                let ticket = self.shared.gate.acquire(&request);
                self.send_task(LaneTask::View(ViewTask {
                    sub: Some(sub),
                    action,
                    ticket,
                }));
            }
            Err(error) => self.shared.conclude(&self.config.trace, sub, Err(error)),
        }
    }

    /// Hand one gated task to the lane pool.
    fn send_task(&mut self, task: LaneTask) {
        *lock(&self.shared.lane_busy) += 1;
        self.lane_tx
            .as_ref()
            .expect("lanes alive while engine runs")
            .send(task)
            .expect("lanes alive while engine runs");
    }
}

impl Drop for Engine {
    /// Close the lane channel and join the lanes: queued tasks finish and
    /// fan out before the engine disappears, so every dispatched task is
    /// answered even on the single-step (`run_batch`) path.
    fn drop(&mut self) {
        drop(self.lane_tx.take());
        for h in self.lane_handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests;
