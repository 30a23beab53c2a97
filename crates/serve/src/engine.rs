//! The admission/execution engine behind the socket front-end.
//!
//! One dispatcher thread (the serve-layer counterpart of the paper's
//! master controller) drains bounded per-client queues in batches,
//! resolves each request to a cached plan, and hands lock-compatible
//! read groups — and individual writes — to a pool of executor *lanes*,
//! ordered by a per-relation gate:
//!
//! * **Backpressure** — each client has a bounded queue; a submission to a
//!   full queue is answered immediately with a typed
//!   [`ServeError::Busy`], never blocking the acceptor or the reader
//!   threads (the queue only shrinks when the dispatcher drains it).
//! * **Priority + fairness** — batch collection walks priority classes
//!   high → normal → low; within a class it round-robins over the *heads*
//!   of the client queues with a cursor that persists across batches, so
//!   a heavy client contributes at most one request per turn and cannot
//!   starve the rest. Each client's own requests stay FIFO.
//! * **Plan cache** — parsed (and optionally optimized) trees are cached
//!   in an LRU keyed by normalized query text, so repeat reads skip
//!   `parse_query` entirely. Each entry is tagged with the base relations
//!   its tree reads; an applied write evicts only the entries whose
//!   read-set intersects the written relations
//!   (`ServeStats::cache_evictions_partial` counts them), so a write to
//!   `A` leaves plans that only read `B` cached while a read admitted
//!   after a write still plans against the post-write catalog.
//! * **Read-batch fusion** — identical concurrent read queries (same
//!   canonical plan, compared via [`df_query::render_tree`] after
//!   optional optimization) collapse to a single execution whose result
//!   is fanned out to every waiter — the Noria read-heavy-web-traffic
//!   trick, applied at batch granularity.
//! * **In-flight fusion** — a read whose twin is *already executing* on a
//!   lane joins that execution's waiter list (the in-flight registry)
//!   and receives the same byte-identical fan-out, instead of waiting
//!   for the next batch. `ServeStats::inflight_joins` counts these late
//!   joiners; per read request exactly one of
//!   executed/fused/inflight_joins accounts for it.
//! * **Parallel lanes, partitioned writes** — read groups *and* writes
//!   are dispatched to `lanes` executor threads. Instead of the old
//!   global quiesce barrier, a per-relation gate ([`RelationGate`],
//!   built on [`df_core::LockTable`]) holds shared marks on every
//!   relation a task reads and exclusive marks on every relation a
//!   write mutates: writes to disjoint relations apply concurrently
//!   (`ServeStats::concurrent_write_batches` counts the overlap) while
//!   reads of untouched relations keep flowing. The dispatcher acquires
//!   marks in dispatch order before sending a task, so conflicting work
//!   still executes in submission order — the PR-7 no-lost-update
//!   argument now holds per relation instead of globally. A write runs
//!   split-phase ([`df_query::stage_write`] under the catalog read lock,
//!   [`df_query::apply_write`] under a brief write lock), which is sound
//!   because the gate's exclusive mark freezes the target between the
//!   two phases.
//! * **Lock-table grouping** — a batch is split into groups of mutually
//!   compatible lock requests ([`df_core::LockTable`]): reads of the same
//!   relations share a group and run concurrently inside one
//!   [`run_host_queries`] call (which re-admits them under the host
//!   scheduler's own relation lock manager), while conflicting writes
//!   land in separate groups and apply strictly serially against the
//!   shared catalog — no lost updates by construction.
//!
//! Failures are contained per request: a query that fails parsing,
//! validation, or execution (any [`HostError`], including a panicking
//! unit injected via [`df_host::FaultPlan`]) produces a structured
//! [`Response::Error`] to exactly that client while the rest of the batch
//! completes normally. Neither the dispatcher nor a lane ever panics on
//! query content — and if a lane *does* panic (a kernel bug, or a
//! [`df_host::FaultPlan::lane_panic_task`] injection), the panic is
//! caught, the task's waiters get a structured error, the task's gate
//! marks are released, and the server keeps serving everyone else.
//! Shared locks are acquired through poison-recovering helpers
//! ([`lock`], [`read_lock`], [`write_lock`]): every guarded structure is
//! left consistent at any panic point (counters are atomics, queues
//! mutate one whole element at a time, and catalog mutations go through
//! [`df_query::apply_write`], whose intermediate states are all valid),
//! so a poisoned mutex is recovered instead of cascading panics into
//! every other client's thread.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::thread::JoinHandle;

use df_core::{LockRequest, LockTable};
use df_host::{run_host_queries, HostError, HostParams, StandingView};
use df_obs::{EventKind, Tracer};
use df_opt::{optimize, CatalogStats};
use df_query::{apply_write, parse_query, render_tree, stage_write, ExecParams, QueryTree};
use df_relalg::Catalog;

use crate::proto::{Priority, QueryResult, Response, ServeError};

/// Lock a mutex, recovering the guard if a previous holder panicked.
/// Sound here because every structure guarded by a serve-layer mutex is
/// consistent at each possible panic point (see the module docs).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] for a shared (read) catalog guard. Reader panics never
/// poison a `RwLock`, but the recovery keeps readers alive after a
/// *writer* panic — which [`apply_write`] keeps consistent by
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
    /// Executor lanes (≥ 1). Each lock-compatible read group — and each
    /// write — is dispatched to one lane; with several lanes,
    /// independent reads and writes to disjoint relations execute
    /// concurrently while the dispatcher keeps collecting. The
    /// per-relation gate serializes conflicting tasks in dispatch
    /// order, whatever the lane count.
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

/// Test-only gate parking lanes between task receipt and execution.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct LaneHold {
    held: Mutex<bool>,
    released: Condvar,
}

impl LaneHold {
    /// Park every lane before its next task until [`LaneHold::release`].
    pub fn hold(&self) {
        *lock(&self.held) = true;
    }

    /// Release parked lanes (and stop parking new tasks).
    pub fn release(&self) {
        *lock(&self.held) = false;
        self.released.notify_all();
    }

    fn wait(&self) {
        let mut held = lock(&self.held);
        while *held {
            held = wait_on(&self.released, held);
        }
    }
}

/// How the engine hands a [`Response`] back to whoever submitted the
/// request — a socket writer on the server, a channel in tests.
pub type Reply = Box<dyn FnOnce(Response) + Send>;

/// What a queued submission asks the engine to do. Queries flow through
/// the plan cache and the read/write lanes; the view requests are
/// dispatched as [`ViewTask`]s ordered by the same relation gate under
/// pseudo-relation marks (`view:<name>`).
enum SubmissionKind {
    /// Run `Submission::text` as a query.
    Query,
    /// Install a standing view defined by `Submission::text`.
    InstallView {
        /// The view's handle.
        name: String,
    },
    /// Uninstall a standing view.
    DropView {
        /// The view's handle.
        name: String,
    },
    /// Serve a maintained view's current result without re-execution.
    ReadView {
        /// The view's handle.
        name: String,
    },
}

/// One queued request.
struct Submission {
    client: usize,
    id: u64,
    priority: Priority,
    optimize: bool,
    text: String,
    kind: SubmissionKind,
    reply: Reply,
}

/// Cumulative serve-layer counters. All relaxed atomics: they are
/// monotonic tallies, not synchronization.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Query requests accepted into a queue.
    pub submitted: AtomicU64,
    /// Query requests rejected with [`ServeError::Busy`].
    pub busy_rejected: AtomicU64,
    /// Read requests that reached read scheduling (parsed successfully,
    /// no write target). Conservation: `reads == read_execs + fused +
    /// inflight_joins` — every read is executed, batch-fused, or joined
    /// to an in-flight twin, exactly once.
    pub reads: AtomicU64,
    /// Distinct executions dispatched (read groups count each deduped
    /// plan once; every write counts once).
    pub executed: AtomicU64,
    /// Distinct read plans dispatched to a lane (the read share of
    /// `executed`).
    pub read_execs: AtomicU64,
    /// Requests served by another request's execution in the same batch
    /// (fusion followers).
    pub fused: AtomicU64,
    /// Requests that joined an already-executing identical read across a
    /// batch boundary (late fusion joiners).
    pub inflight_joins: AtomicU64,
    /// `parse_query` invocations — at most one per plan-cache miss; the
    /// regression guard for the parse-twice bug the cache subsumed.
    pub parses: AtomicU64,
    /// Requests whose plan came out of the cache.
    pub plan_cache_hits: AtomicU64,
    /// Requests that had to parse (and possibly optimize) from scratch.
    pub plan_cache_misses: AtomicU64,
    /// Update queries applied to the catalog.
    pub writes_applied: AtomicU64,
    /// Plan-cache entries evicted by relation-scoped invalidation —
    /// entries whose read-set intersected an applied write's target
    /// relations. Under the old wholesale `clear()` this would equal the
    /// entire cache population at every write.
    pub cache_evictions_partial: AtomicU64,
    /// Write tasks dispatched while another write was still in flight —
    /// impossible under the old global quiesce barrier, which drained
    /// every lane before each write applied. Nonzero proves writes to
    /// disjoint relations no longer serialize behind one another.
    pub concurrent_write_batches: AtomicU64,
    /// Clients admitted through the poll(2) multiplexed reader (the
    /// `--mux` server mode); 0 in thread-per-connection mode.
    pub mux_clients: AtomicU64,
    /// Standing views successfully installed.
    pub views_installed: AtomicU64,
    /// Delta pages that flowed through standing-view dataflows: base
    /// writes injected at the sources plus the distinct-image pages the
    /// incremental kernels consumed. Zero while no view is installed.
    pub delta_pages: AtomicU64,
    /// View reads served from maintained state. None of these touched
    /// the plan cache or a read lane: a view read never re-executes the
    /// defining tree.
    pub view_reads_served: AtomicU64,
    /// Requests answered with an error (parse, validation, or executor).
    pub failed: AtomicU64,
    /// Batches drained.
    pub batches: AtomicU64,
    /// Lock-compatibility groups executed.
    pub groups: AtomicU64,
    /// Request bytes read off client sockets (maintained by the server).
    pub bytes_in: AtomicU64,
    /// Response bytes written to client sockets (maintained by the
    /// server).
    pub bytes_out: AtomicU64,
    /// Distinct executions (read plans and writes) per lane, indexed by
    /// lane id.
    pub lane_execs: Vec<AtomicU64>,
}

impl ServeStats {
    /// Counters for an engine with `lanes` read lanes.
    pub fn with_lanes(lanes: usize) -> ServeStats {
        ServeStats {
            lane_execs: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            ..ServeStats::default()
        }
    }

    /// Snapshot as stable `(name, value)` rows — the payload of
    /// [`Response::Stats`].
    pub fn rows(&self) -> Vec<(String, u64)> {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut rows = vec![
            ("submitted".into(), g(&self.submitted)),
            ("busy_rejected".into(), g(&self.busy_rejected)),
            ("reads".into(), g(&self.reads)),
            ("executed".into(), g(&self.executed)),
            ("read_execs".into(), g(&self.read_execs)),
            ("fused".into(), g(&self.fused)),
            ("inflight_joins".into(), g(&self.inflight_joins)),
            ("parses".into(), g(&self.parses)),
            ("plan_cache_hits".into(), g(&self.plan_cache_hits)),
            ("plan_cache_misses".into(), g(&self.plan_cache_misses)),
            ("writes_applied".into(), g(&self.writes_applied)),
            (
                "cache_evictions_partial".into(),
                g(&self.cache_evictions_partial),
            ),
            (
                "concurrent_write_batches".into(),
                g(&self.concurrent_write_batches),
            ),
            ("mux_clients".into(), g(&self.mux_clients)),
            ("views_installed".into(), g(&self.views_installed)),
            ("delta_pages".into(), g(&self.delta_pages)),
            ("view_reads_served".into(), g(&self.view_reads_served)),
            ("failed".into(), g(&self.failed)),
            ("batches".into(), g(&self.batches)),
            ("groups".into(), g(&self.groups)),
            ("bytes_in".into(), g(&self.bytes_in)),
            ("bytes_out".into(), g(&self.bytes_out)),
            ("lanes".into(), self.lane_execs.len() as u64),
        ];
        for (i, lane) in self.lane_execs.iter().enumerate() {
            rows.push((format!("lane{i}_execs"), g(lane)));
        }
        rows
    }
}

/// A resolved plan: the (possibly optimized) tree, its canonical
/// rendering, and its relation footprint, shared between the cache, the
/// fusion index, the in-flight registry, and the relation gate.
#[derive(Clone)]
struct Plan {
    tree: Arc<QueryTree>,
    key: Arc<str>,
    /// Base relations the tree reads (sorted, deduped; a write also
    /// reads its target) — the invalidation read-set and the shared half
    /// of the gate request.
    reads: Arc<[String]>,
    /// Relations the root update mutates (empty for reads) — the
    /// exclusive half of the gate request.
    writes: Arc<[String]>,
}

impl Plan {
    fn from_tree(tree: QueryTree) -> Plan {
        Plan {
            key: Arc::from(render_tree(&tree).as_str()),
            reads: tree.referenced_relations().into(),
            writes: tree.written_relations().into(),
            tree: Arc::new(tree),
        }
    }

    /// The per-relation gate marks this plan's execution needs.
    fn gate_request(&self) -> LockRequest {
        LockRequest::new(self.reads.to_vec(), self.writes.to_vec())
    }
}

/// Dispatcher-owned LRU of resolved plans, keyed by normalized query
/// text plus the optimize flag. Capacity is small, so eviction is a
/// linear scan for the stalest tick — no extra list to maintain.
struct PlanCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<(String, bool), (Plan, u64)>,
}

impl PlanCache {
    fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    fn get(&mut self, key: &(String, bool)) -> Option<Plan> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(plan, used)| {
            *used = tick;
            plan.clone()
        })
    }

    fn insert(&mut self, key: (String, bool), plan: Plan) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(stalest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&stalest);
            }
        }
        self.entries.insert(key, (plan, self.tick));
    }

    /// Relation-scoped invalidation: evict exactly the entries whose
    /// read-set intersects `written` (sorted, as
    /// [`QueryTree::written_relations`] returns it), and return how many
    /// were evicted. Entries reading only untouched relations survive,
    /// so `parses == plan_cache_misses` stays a per-relation invariant:
    /// a plan is re-parsed only when a relation it reads changed.
    fn evict_reading(&mut self, written: &[String]) -> u64 {
        let before = self.entries.len();
        self.entries
            .retain(|_, (plan, _)| !plan.reads.iter().any(|r| written.binary_search(r).is_ok()));
        (before - self.entries.len()) as u64
    }
}

/// Per-relation reader/writer accounting — the paper's insertion-ring
/// discipline applied to the serve layer: any number of concurrent
/// readers per relation, or one writer, never both. The dispatcher
/// acquires marks in dispatch order *before* sending a task to a lane
/// (so conflicting tasks execute in submission order); the lane that ran
/// the task releases them after fan-out. Built on the same
/// [`df_core::LockTable`] rules that group batches, keyed by a
/// monotonically increasing ticket.
struct RelationGate {
    state: Mutex<GateState>,
    freed: Condvar,
}

struct GateState {
    table: LockTable,
    next_ticket: usize,
}

impl RelationGate {
    fn new() -> RelationGate {
        RelationGate {
            state: Mutex::new(GateState {
                table: LockTable::new(),
                next_ticket: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// Block until `request` is compatible with every held mark, then
    /// grant it. Only the dispatcher acquires (single-threaded, so
    /// waiting here cannot deadlock: lanes only release), and the
    /// returned ticket is handed to the executing lane for
    /// [`RelationGate::release`].
    fn acquire(&self, request: &LockRequest) -> usize {
        let mut state = lock(&self.state);
        while !state.table.compatible(request) {
            state = wait_on(&self.freed, state);
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.table.grant(ticket, request);
        ticket
    }

    fn release(&self, ticket: usize) {
        lock(&self.state).table.release(ticket);
        self.freed.notify_all();
    }
}

/// Collapse whitespace runs so trivially reformatted repeats of the same
/// query text share a cache entry.
fn normalize_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_gap = true; // leading whitespace is dropped
    for ch in text.chars() {
        if ch.is_whitespace() {
            if !in_gap {
                out.push(' ');
                in_gap = true;
            }
        } else {
            out.push(ch);
            in_gap = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// One read execution currently queued on or running inside a lane. Kept
/// in the in-flight registry from dispatch until the lane fans the
/// result out; late twins append themselves to `waiters`.
struct Inflight {
    exec_id: u64,
    waiters: Vec<Submission>,
}

/// One distinct read plan inside a lane task.
struct ReadExec {
    key: Arc<str>,
    tree: QueryTree,
}

/// What a lane pulls off the shared task channel. Every task carries the
/// gate ticket the dispatcher acquired for it; the lane releases the
/// ticket after fan-out (reads) or apply (writes), even if the task
/// panicked.
enum LaneTask {
    Read(ReadTask),
    Write(WriteTask),
    View(ViewTask),
}

/// One lock-compatible read group, executed by a single lane as one
/// concurrent [`run_host_queries`] batch.
struct ReadTask {
    execs: Vec<ReadExec>,
    ticket: usize,
}

/// One update query, executed split-phase by a lane: `stage_write` under
/// the catalog read lock, `apply_write` under the write lock. The gate's
/// exclusive mark on the target makes the split sound.
struct WriteTask {
    /// Taken (`Option::take`) at conclusion; a panic before that point
    /// leaves it here for the containment path to answer.
    sub: Option<Submission>,
    tree: Arc<QueryTree>,
    ticket: usize,
}

/// One standing-view operation, ordered against conflicting work by the
/// gate marks the dispatcher acquired: an install holds shared marks on
/// the view's base relations (its from-scratch materialization must not
/// race a base write) plus an exclusive `view:<name>` mark; drops and
/// reads hold exclusive/shared `view:<name>` marks respectively. A base
/// write holds exclusive `view:<name>` marks for every installed view
/// that reads its target, so view maintenance and view reads serialize
/// in dispatch order.
struct ViewTask {
    /// Taken at conclusion; the containment path answers a leftover.
    sub: Option<Submission>,
    action: ViewAction,
    ticket: usize,
}

enum ViewAction {
    /// Materialize and register `name`, defined by `text` (parsed to
    /// `tree` at dispatch).
    Install {
        name: String,
        text: String,
        tree: Box<QueryTree>,
    },
    /// Deregister `name`.
    Drop { name: String },
    /// Serve `name`'s maintained result.
    Read { name: String },
}

/// The pseudo-relation the gate uses to order operations on one view.
/// Cannot collide with a real relation: `:` never appears in catalog
/// names.
fn view_mark(name: &str) -> String {
    format!("view:{name}")
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
    /// Read executions dispatched but not yet fanned out, keyed by
    /// canonical plan rendering. Guards the join-vs-complete race: a
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
    /// [`df_host::FaultPlan::lane_panic_task`] injection.
    lane_task_seq: AtomicU64,
    /// One human-readable description per served relation, refreshed by
    /// the lane that applied the latest write — lets the front-end
    /// answer `Relations` requests without reaching into the catalog.
    relations: Mutex<Vec<String>>,
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
    fn conclude(
        &self,
        trace: &Option<Arc<Tracer>>,
        sub: Submission,
        outcome: Result<QueryResult, ServeError>,
    ) {
        let response = match outcome {
            Ok(mut result) => {
                result.id = sub.id;
                Response::Result(result)
            }
            Err(error) => {
                self.stats.failed.fetch_add(1, Ordering::Relaxed);
                Response::Error { id: sub.id, error }
            }
        };
        if let Some(t) = trace {
            let failed = matches!(response, Response::Error { .. });
            t.record(
                EventKind::QueryDone,
                sub.client as u32,
                u32::MAX,
                u64::from(failed),
                0,
            );
        }
        (sub.reply)(response);
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

struct Inbox {
    queues: Vec<VecDeque<Submission>>,
    /// Closed clients keep their slot (ids are never reused within a
    /// server lifetime) but accept no further submissions.
    open: Vec<bool>,
    shutdown: bool,
}

impl Inbox {
    fn pending(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// Cloneable submission-side handle to a running [`Engine`].
#[derive(Clone)]
pub struct EngineHandle {
    shared: Arc<Shared>,
}

impl EngineHandle {
    /// Register a new client; returns its id (dense, never reused).
    pub fn register_client(&self) -> usize {
        let mut inbox = lock(&self.shared.inbox);
        inbox.queues.push(VecDeque::new());
        inbox.open.push(true);
        inbox.queues.len() - 1
    }

    /// Mark a client disconnected: its queued requests are dropped (their
    /// replies would hit a dead socket) and further submissions refused.
    pub fn close_client(&self, client: usize) {
        let mut inbox = lock(&self.shared.inbox);
        if let Some(open) = inbox.open.get_mut(client) {
            *open = false;
        }
        if let Some(q) = inbox.queues.get_mut(client) {
            q.clear();
        }
    }

    /// Submit a query request on behalf of `client`. Admission control
    /// happens here: a full queue or a shutting-down engine answers
    /// through `reply` immediately (with [`ServeError::Busy`] /
    /// [`ServeError::ShuttingDown`]) and the dispatcher never sees the
    /// request.
    pub fn submit(
        &self,
        client: usize,
        id: u64,
        priority: Priority,
        optimize: bool,
        text: String,
        reply: Reply,
    ) {
        self.enqueue(Submission {
            client,
            id,
            priority,
            optimize,
            text,
            kind: SubmissionKind::Query,
            reply,
        });
    }

    /// Submit a standing-view install: materialize `text` once, then
    /// maintain the result from base-relation deltas. Subject to the
    /// same admission control as [`EngineHandle::submit`].
    pub fn install_view(&self, client: usize, id: u64, name: String, text: String, reply: Reply) {
        self.enqueue(Submission {
            client,
            id,
            priority: Priority::Normal,
            optimize: false,
            text,
            kind: SubmissionKind::InstallView { name },
            reply,
        });
    }

    /// Submit a standing-view drop.
    pub fn drop_view(&self, client: usize, id: u64, name: String, reply: Reply) {
        self.enqueue(Submission {
            client,
            id,
            priority: Priority::Normal,
            optimize: false,
            text: String::new(),
            kind: SubmissionKind::DropView { name },
            reply,
        });
    }

    /// Submit a view read, answered from the maintained result — the
    /// defining query is never re-executed.
    pub fn read_view(&self, client: usize, id: u64, name: String, reply: Reply) {
        self.enqueue(Submission {
            client,
            id,
            priority: Priority::Normal,
            optimize: false,
            text: String::new(),
            kind: SubmissionKind::ReadView { name },
            reply,
        });
    }

    fn enqueue(&self, sub: Submission) {
        let id = sub.id;
        let rejection: Option<(ServeError, Reply)> = {
            let mut inbox = lock(&self.shared.inbox);
            if inbox.shutdown || !inbox.open.get(sub.client).copied().unwrap_or(false) {
                Some((ServeError::ShuttingDown, sub.reply))
            } else if inbox.queues[sub.client].len() >= self.shared.queue_capacity {
                self.shared
                    .stats
                    .busy_rejected
                    .fetch_add(1, Ordering::Relaxed);
                Some((
                    ServeError::Busy {
                        capacity: self.shared.queue_capacity as u64,
                    },
                    sub.reply,
                ))
            } else {
                let client = sub.client;
                inbox.queues[client].push_back(sub);
                self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
                self.shared.wake.notify_one();
                None
            }
        };
        // The rejection reply may write to a socket; invoke it outside
        // the inbox lock so a slow client cannot stall admission.
        if let Some((error, reply)) = rejection {
            reply(Response::Error { id, error });
        }
    }

    /// Ask the dispatcher to finish queued work and exit; subsequent
    /// submissions are refused with [`ServeError::ShuttingDown`].
    pub fn shutdown(&self) {
        let mut inbox = lock(&self.shared.inbox);
        inbox.shutdown = true;
        self.shared.wake.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        lock(&self.shared.inbox).shutdown
    }

    /// Block until every dispatched lane task (read or write) has
    /// completed and fanned out its replies. Tests and benchmarks pair
    /// this with
    /// [`Engine::run_batch`] — the dispatch itself is asynchronous.
    pub fn quiesce(&self) {
        self.shared.quiesce_lanes();
    }

    /// The cumulative serve-layer counters.
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Current relation descriptions (name, schema, cardinality), as of
    /// the last applied write.
    pub fn relations(&self) -> Vec<String> {
        lock(&self.shared.relations).clone()
    }
}

/// The dispatcher: plans every request, acquires each task's gate
/// marks in dispatch order, and feeds the lanes.
pub struct Engine {
    shared: Arc<Shared>,
    config: ServeConfig,
    /// Round-robin cursor over clients, persisted across batches.
    rr_cursor: usize,
    /// Catalog statistics for the optimizer, rebuilt lazily after writes.
    opt_stats: Option<CatalogStats>,
    /// Parsed/optimized plans keyed by normalized text, invalidated on
    /// every applied write.
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
        let relations = db.iter().map(|r| r.to_string()).collect();
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
            inflight: Mutex::new(HashMap::new()),
            gate: RelationGate::new(),
            lane_busy: Mutex::new(0),
            lane_idle: Condvar::new(),
            writes_in_flight: AtomicU64::new(0),
            lane_task_seq: AtomicU64::new(0),
            relations: Mutex::new(relations),
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
            opt_stats: None,
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
    /// through plan resolution and lock-compatibility grouping; each
    /// view request flushes the pending run (so its gate marks are
    /// acquired after every earlier query's) and dispatches on its own.
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

    /// Plan, group by lock compatibility, and execute one run of query
    /// requests.
    fn execute_queries(&mut self, batch: Vec<Submission>) {
        if batch.is_empty() {
            return;
        }
        let trace = self.config.trace.clone();
        // Resolve each request to a plan (cache hit or parse+optimize);
        // failures are answered immediately and drop out of the batch.
        let mut entries: Vec<(Submission, Plan)> = Vec::with_capacity(batch.len());
        for sub in batch {
            match self.resolve_plan(&sub.text, sub.optimize) {
                Ok(plan) => entries.push((sub, plan)),
                Err(detail) => {
                    self.shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = &trace {
                        t.record(EventKind::QueryDone, sub.client as u32, u32::MAX, 1, 0);
                    }
                    (sub.reply)(Response::Error {
                        id: sub.id,
                        error: ServeError::Parse { detail },
                    });
                }
            }
        }
        // Split into groups of mutually compatible lock requests,
        // preserving submission order among conflicting requests: a
        // request that conflicts with anything already granted waits for
        // a later group, so writes serialize against their readers and
        // against each other.
        let mut remaining = entries;
        while !remaining.is_empty() {
            let mut locks = LockTable::new();
            let mut group = Vec::new();
            let mut rest = Vec::new();
            for (sub, plan) in remaining {
                let request = plan.gate_request();
                if locks.compatible(&request) {
                    locks.grant(group.len(), &request);
                    group.push((sub, plan));
                } else {
                    rest.push((sub, plan));
                }
            }
            self.shared.stats.groups.fetch_add(1, Ordering::Relaxed);
            self.execute_group(group);
            remaining = rest;
        }
    }

    /// Resolve query text to a plan: hit the cache, or parse once (and
    /// optionally optimize) and fill it. The single `parse_query` call —
    /// counted in `ServeStats::parses` — is shared by the
    /// optimizer-failure fallback, which reuses the already-parsed tree
    /// instead of parsing the same text a second time.
    fn resolve_plan(&mut self, text: &str, optimizing: bool) -> Result<Plan, String> {
        let cache_key = (normalize_text(text), optimizing);
        if let Some(plan) = self.plan_cache.get(&cache_key) {
            self.shared
                .stats
                .plan_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return Ok(plan);
        }
        self.shared
            .stats
            .plan_cache_misses
            .fetch_add(1, Ordering::Relaxed);
        let db = read_lock(&self.shared.db);
        self.shared.stats.parses.fetch_add(1, Ordering::Relaxed);
        let tree = parse_query(&db, text).map_err(|e| e.to_string())?;
        let tree = if optimizing {
            if self.opt_stats.is_none() {
                self.opt_stats = Some(CatalogStats::gather(&db));
            }
            let stats = self.opt_stats.as_ref().expect("just gathered");
            match optimize(&db, &tree, stats) {
                Ok(o) => o.tree,
                // An optimizer failure is not a query failure; run the
                // un-optimized tree (no second parse).
                Err(_) => tree,
            }
        } else {
            tree
        };
        drop(db);
        let plan = Plan::from_tree(tree);
        self.plan_cache.insert(cache_key, plan.clone());
        Ok(plan)
    }

    /// Execute one lock-compatible group: reads deduped, joined against
    /// in-flight twins, and dispatched as one lane task; writes
    /// dispatched as one lane task each. (Within a group, reads and
    /// writes touch disjoint relations by construction, so dispatch
    /// order between them is immaterial.)
    fn execute_group(&mut self, group: Vec<(Submission, Plan)>) {
        let mut reads: Vec<(Submission, Plan)> = Vec::new();
        let mut writes: Vec<(Submission, Plan)> = Vec::new();
        for (sub, plan) in group {
            if plan.writes.is_empty() {
                reads.push((sub, plan));
            } else {
                writes.push((sub, plan));
            }
        }
        self.dispatch_reads(reads);
        self.dispatch_writes(writes);
    }

    /// Dedupe identical read plans on their canonical rendering, join
    /// late twins onto in-flight executions, and hand the remainder to a
    /// lane as one concurrent df-host batch.
    fn dispatch_reads(&mut self, reads: Vec<(Submission, Plan)>) {
        if reads.is_empty() {
            return;
        }
        let trace = self.config.trace.clone();
        self.shared
            .stats
            .reads
            .fetch_add(reads.len() as u64, Ordering::Relaxed);
        // Batch-level fusion: one entry per distinct canonical plan.
        let mut distinct: Vec<(Plan, Vec<Submission>)> = Vec::new();
        let mut index: HashMap<Arc<str>, usize> = HashMap::new();
        for (sub, plan) in reads {
            match index.get(&plan.key) {
                Some(&i) => {
                    self.shared.stats.fused.fetch_add(1, Ordering::Relaxed);
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
        let mut execs: Vec<ReadExec> = Vec::new();
        let mut read_set: Vec<String> = Vec::new();
        {
            let mut inflight = lock(&self.shared.inflight);
            for (plan, waiters) in distinct {
                if let Some(entry) = inflight.get_mut(&plan.key) {
                    // Only the group leader counts as a join: its
                    // batch-fused twins are already in `fused`, and each
                    // read lands in exactly one of {read_execs, fused,
                    // inflight_joins} so the conservation identity
                    // `read_execs + fused + inflight_joins == reads`
                    // holds.
                    self.shared
                        .stats
                        .inflight_joins
                        .fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = &trace {
                        // Late joiners get their own admit event aimed at
                        // the execution they joined (`b` = its id).
                        t.record(
                            EventKind::QueryAdmit,
                            waiters[0].client as u32,
                            u32::MAX,
                            waiters.len() as u64,
                            entry.exec_id,
                        );
                    }
                    entry.waiters.extend(waiters);
                    continue;
                }
                let exec_id = self.next_exec;
                self.next_exec += 1;
                if let Some(t) = &trace {
                    // One admit event per distinct execution; `a` =
                    // waiters sharing it at dispatch (> 1 ⟺ fused),
                    // `b` = dense execution id.
                    t.record(
                        EventKind::QueryAdmit,
                        waiters[0].client as u32,
                        u32::MAX,
                        waiters.len() as u64,
                        exec_id,
                    );
                }
                inflight.insert(Arc::clone(&plan.key), Inflight { exec_id, waiters });
                for rel in plan.reads.iter() {
                    if !read_set.contains(rel) {
                        read_set.push(rel.clone());
                    }
                }
                execs.push(ReadExec {
                    key: Arc::clone(&plan.key),
                    tree: plan.tree.as_ref().clone(),
                });
            }
        }
        if execs.is_empty() {
            return;
        }
        self.shared
            .stats
            .executed
            .fetch_add(execs.len() as u64, Ordering::Relaxed);
        self.shared
            .stats
            .read_execs
            .fetch_add(execs.len() as u64, Ordering::Relaxed);
        // Shared marks on every relation the task reads: a conflicting
        // write dispatched later waits for this task's lane to release.
        // May block here if such a write is already in flight — the
        // dispatcher stalls (preserving dispatch order), lanes don't.
        let ticket = self
            .shared
            .gate
            .acquire(&LockRequest::new(read_set, Vec::new()));
        self.send_task(LaneTask::Read(ReadTask { execs, ticket }));
    }

    /// Dispatch write queries to the lanes, one task per write, in
    /// submission order. The gate's exclusive marks on each write's
    /// target relations — acquired here, in dispatch order — are what
    /// serialize conflicting writes (and their readers); writes to
    /// disjoint relations proceed concurrently, which
    /// `concurrent_write_batches` counts. The affected tuples (what
    /// `append`/`delete` touched) are the response payload, assembled by
    /// the lane.
    fn dispatch_writes(&mut self, writes: Vec<(Submission, Plan)>) {
        let trace = self.config.trace.clone();
        for (sub, plan) in writes {
            // Catalog statistics and the cached plans that read the
            // written relations go stale together; everything else in
            // the cache survives.
            self.opt_stats = None;
            let evicted = self.plan_cache.evict_reading(&plan.writes);
            self.shared
                .stats
                .cache_evictions_partial
                .fetch_add(evicted, Ordering::Relaxed);
            self.shared.stats.executed.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = &trace {
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
                self.shared
                    .stats
                    .concurrent_write_batches
                    .fetch_add(1, Ordering::Relaxed);
            }
            self.send_task(LaneTask::Write(WriteTask {
                sub: Some(sub),
                tree: Arc::clone(&plan.tree),
                ticket,
            }));
        }
    }

    /// A write's gate request: its plan marks plus an exclusive
    /// `view:<name>` mark for every installed view reading one of its
    /// targets — the marks that serialize view maintenance (inside the
    /// write task) against view reads, in dispatch order.
    fn write_gate_request(&self, plan: &Plan) -> LockRequest {
        let mut writes = plan.writes.to_vec();
        for (name, bases) in lock(&self.shared.view_bases).iter() {
            if bases.iter().any(|b| plan.writes.contains(b)) {
                writes.push(view_mark(name));
            }
        }
        LockRequest::new(plan.reads.to_vec(), writes)
    }

    /// Admit one standing-view request: validate it against the
    /// dispatch-time view map (answering duplicate installs and unknown
    /// names immediately), record the map change, acquire the gate
    /// marks, and hand the lane a [`ViewTask`].
    ///
    /// Install parses the definition here — via `parse_query` directly,
    /// not the plan cache, so the `parses == plan_cache_misses` identity
    /// stays a statement about query traffic.
    fn dispatch_view(&mut self, mut sub: Submission) {
        let trace = self.config.trace.clone();
        let kind = std::mem::replace(&mut sub.kind, SubmissionKind::Query);
        let (action, request) = match kind {
            SubmissionKind::Query => unreachable!("execute_batch routes queries elsewhere"),
            SubmissionKind::InstallView { name } => {
                if lock(&self.shared.view_bases).contains_key(&name) {
                    let detail = format!("view `{name}` is already installed");
                    return self
                        .shared
                        .conclude(&trace, sub, Err(ServeError::View { detail }));
                }
                let parsed = {
                    let db = read_lock(&self.shared.db);
                    parse_query(&db, &sub.text)
                };
                let tree = match parsed {
                    Ok(tree) => tree,
                    Err(e) => {
                        let detail = e.to_string();
                        return self.shared.conclude(
                            &trace,
                            sub,
                            Err(ServeError::Parse { detail }),
                        );
                    }
                };
                if !tree.written_relations().is_empty() {
                    let detail = "a view definition must be read-only".to_string();
                    return self
                        .shared
                        .conclude(&trace, sub, Err(ServeError::View { detail }));
                }
                let bases = tree.referenced_relations();
                lock(&self.shared.view_bases).insert(name.clone(), bases.clone());
                // Shared marks on the bases: the from-scratch
                // materialization must not race a base write.
                let request = LockRequest::new(bases, vec![view_mark(&name)]);
                let action = ViewAction::Install {
                    name,
                    text: sub.text.clone(),
                    tree: Box::new(tree),
                };
                (action, request)
            }
            SubmissionKind::DropView { name } => {
                if lock(&self.shared.view_bases).remove(&name).is_none() {
                    let detail = format!("view `{name}` is not installed");
                    return self
                        .shared
                        .conclude(&trace, sub, Err(ServeError::View { detail }));
                }
                let request = LockRequest::new(Vec::new(), vec![view_mark(&name)]);
                (ViewAction::Drop { name }, request)
            }
            SubmissionKind::ReadView { name } => {
                if !lock(&self.shared.view_bases).contains_key(&name) {
                    let detail = format!("view `{name}` is not installed");
                    return self
                        .shared
                        .conclude(&trace, sub, Err(ServeError::View { detail }));
                }
                let request = LockRequest::new(vec![view_mark(&name)], Vec::new());
                (ViewAction::Read { name }, request)
            }
        };
        let ticket = self.shared.gate.acquire(&request);
        self.send_task(LaneTask::View(ViewTask {
            sub: Some(sub),
            action,
            ticket,
        }));
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

/// One executor lane: pull tasks, run reads against the shared catalog
/// under the read lock (fanning each plan's result out to every waiter
/// registered by then) and writes split-phase (stage under the read
/// lock, apply under the write lock). Task bodies run inside
/// `catch_unwind`: a panic — injected or real — is contained to the
/// task's own waiters, and the epilogue (gate release, busy/write
/// accounting) runs regardless, so the rest of the server keeps flowing.
fn lane_loop(
    lane: usize,
    shared: &Arc<Shared>,
    rx: &Arc<Mutex<Receiver<LaneTask>>>,
    host: &HostParams,
    trace: &Option<Arc<Tracer>>,
    hold: Option<&LaneHold>,
) {
    loop {
        // Hold the receiver lock only for the recv itself, so sibling
        // lanes can pull the next task while this one executes.
        let mut task = match lock(rx).recv() {
            Ok(task) => task,
            Err(_) => return, // channel closed: engine is shutting down
        };
        if let Some(hold) = hold {
            hold.wait();
        }
        let seq = shared.lane_task_seq.fetch_add(1, Ordering::Relaxed);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            if host.fault.lane_panic_task == Some(seq) {
                panic!("injected lane fault (task {seq})");
            }
            match &mut task {
                LaneTask::Read(read) => run_read_task(lane, shared, read, host, trace),
                LaneTask::Write(write) => run_write_task(lane, shared, write, host, trace),
                LaneTask::View(view) => run_view_task(shared, view, host, trace),
            }
        }))
        .is_err();
        if panicked {
            contain_lane_panic(shared, &mut task, trace, seq);
        }
        // Epilogue — runs on success and after a contained panic alike.
        // Order matters: the in-flight entries are gone by now (removed
        // by the task body or by the containment path), so releasing the
        // gate cannot expose a stale pre-write execution to joiners.
        let (ticket, was_write) = match &task {
            LaneTask::Read(read) => (read.ticket, false),
            LaneTask::Write(write) => (write.ticket, true),
            LaneTask::View(view) => (view.ticket, false),
        };
        if was_write {
            shared.writes_in_flight.fetch_sub(1, Ordering::Relaxed);
        }
        shared.gate.release(ticket);
        let mut busy = lock(&shared.lane_busy);
        *busy -= 1;
        if *busy == 0 {
            shared.lane_idle.notify_all();
        }
    }
}

/// Remove and return a dispatched execution's waiter list.
fn take_waiters(shared: &Shared, key: &Arc<str>) -> Vec<Submission> {
    lock(&shared.inflight)
        .remove(key)
        .expect("dispatched execution is registered")
        .waiters
}

/// Execute one read group as a concurrent df-host batch and fan results
/// out to every waiter.
fn run_read_task(
    lane: usize,
    shared: &Arc<Shared>,
    task: &mut ReadTask,
    host: &HostParams,
    trace: &Option<Arc<Tracer>>,
) {
    let trees: Vec<QueryTree> = task.execs.iter().map(|e| e.tree.clone()).collect();
    let run = {
        let db = read_lock(&shared.db);
        run_host_queries(&db, &trees, host)
    };
    shared.stats.lane_execs[lane].fetch_add(trees.len() as u64, Ordering::Relaxed);
    match run {
        Ok(out) => {
            for (result, exec) in out.results.into_iter().zip(&task.execs) {
                let subs = take_waiters(shared, &exec.key);
                match result {
                    Ok(rel) => {
                        let fan_out = subs.len() as u32;
                        let schema = rel.schema().to_string();
                        let tuples: Vec<Vec<u8>> =
                            rel.tuple_refs().map(|t| t.raw().to_vec()).collect();
                        let result = |schema, tuples| {
                            Ok(QueryResult {
                                id: 0, // filled per waiter in conclude
                                fan_out,
                                schema,
                                tuples,
                            })
                        };
                        // Every waiter but the last gets a copy; the last
                        // (with almost no fusion, usually the only one)
                        // takes the vectors themselves.
                        let mut subs = subs.into_iter();
                        let last = subs.next_back();
                        for sub in subs {
                            shared.conclude(trace, sub, result(schema.clone(), tuples.clone()));
                        }
                        if let Some(sub) = last {
                            shared.conclude(trace, sub, result(schema, tuples));
                        }
                    }
                    Err(e) => {
                        let error = ServeError::host(&e);
                        for sub in subs {
                            shared.conclude(trace, sub, Err(error.clone()));
                        }
                    }
                }
            }
        }
        Err(e) => {
            // Run-level failure (validation, stall): every waiter of
            // the task gets the structured error; the server lives.
            let error = ServeError::host(&e);
            for exec in &task.execs {
                for sub in take_waiters(shared, &exec.key) {
                    shared.conclude(trace, sub, Err(error.clone()));
                }
            }
        }
    }
}

/// Execute one write split-phase: the expensive source evaluation /
/// target partition under the catalog *read* lock (other lanes keep
/// reading), then a brief write lock for the apply. Sound because the
/// dispatcher granted this task exclusive gate marks on its target
/// relations, so no other task can read or write them between the
/// phases.
fn run_write_task(
    lane: usize,
    shared: &Arc<Shared>,
    task: &mut WriteTask,
    host: &HostParams,
    trace: &Option<Arc<Tracer>>,
) {
    let exec = ExecParams {
        page_size: host.page_size,
        ..ExecParams::default()
    };
    let staged = {
        let db = read_lock(&shared.db);
        stage_write(&db, &task.tree, &exec)
    };
    let outcome = staged.and_then(|delta| {
        // The staged delta is consumed by the apply; capture the signed
        // base change first — it is what flows through every standing
        // view reading the target.
        let change = delta.base_change();
        let mut db = write_lock(&shared.db);
        let applied = apply_write(&mut db, delta);
        if applied.is_ok() {
            // Refresh the relation descriptions while still holding the
            // write lock, so `Relations` responses never mix catalogs.
            *lock(&shared.relations) = db.iter().map(|r| r.to_string()).collect();
        }
        applied.map(|rel| (rel, change))
    });
    shared.stats.lane_execs[lane].fetch_add(1, Ordering::Relaxed);
    let sub = task.sub.take().expect("write concluded once");
    match outcome {
        Ok((rel, (inserts, deletes))) => {
            shared.stats.writes_applied.fetch_add(1, Ordering::Relaxed);
            // Maintain standing views before concluding: the gate's
            // exclusive `view:<name>` marks are still held, so a view
            // read dispatched after this write observes the maintained
            // result, never a stale one.
            if let Some(target) = task.tree.written_relations().first() {
                maintain_views(shared, target, &inserts, &deletes);
            }
            let schema = rel.schema().to_string();
            let tuples = rel.tuple_refs().map(|t| t.raw().to_vec()).collect();
            shared.conclude(
                trace,
                sub,
                Ok(QueryResult {
                    id: 0,
                    fan_out: 1,
                    schema,
                    tuples,
                }),
            );
        }
        Err(e) => {
            let error = ServeError::host(&HostError::Data(e));
            shared.conclude(trace, sub, Err(error));
        }
    }
}

/// Replay one applied base write through every installed view that
/// reads `target`. Runs inside the write task, which still holds the
/// gate's exclusive `view:<name>` marks for exactly these views, so
/// maintenance is serialized against view reads and other base writes.
/// A view whose maintenance fails is deregistered (fail-stop): serving
/// a possibly-stale result would break the differential contract.
fn maintain_views(shared: &Arc<Shared>, target: &str, inserts: &[Vec<u8>], deletes: &[Vec<u8>]) {
    let views: Vec<(String, Arc<Mutex<StandingView>>)> = lock(&shared.views)
        .iter()
        .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
        .collect();
    for (name, slot) in views {
        let mut view = lock(&slot);
        if !view.reads(target) {
            continue;
        }
        match view.apply_write(target, inserts, deletes) {
            Ok(update) => {
                shared
                    .stats
                    .delta_pages
                    .fetch_add(update.delta_pages, Ordering::Relaxed);
            }
            Err(_) => {
                drop(view);
                lock(&shared.views).remove(&name);
                lock(&shared.view_bases).remove(&name);
            }
        }
    }
}

/// Execute one standing-view operation. Installs materialize through
/// the normal read path ([`StandingView::install`] runs the per-node
/// oracle executor under the catalog read lock) and then register the
/// standing dataflow; reads serve the maintained multiset without
/// touching the plan cache or a host execution.
fn run_view_task(
    shared: &Arc<Shared>,
    task: &mut ViewTask,
    host: &HostParams,
    trace: &Option<Arc<Tracer>>,
) {
    let sub = task.sub.take().expect("view task concluded once");
    match &task.action {
        ViewAction::Install { name, text, tree } => {
            let installed = {
                let db = read_lock(&shared.db);
                StandingView::install(name, text, &db, tree, host.page_size)
            };
            match installed {
                Ok(view) => {
                    let schema = view.schema().to_string();
                    lock(&shared.views).insert(name.clone(), Arc::new(Mutex::new(view)));
                    shared.stats.views_installed.fetch_add(1, Ordering::Relaxed);
                    shared.conclude(
                        trace,
                        sub,
                        Ok(QueryResult {
                            id: 0,
                            fan_out: 1,
                            schema,
                            tuples: Vec::new(),
                        }),
                    );
                }
                Err(e) => {
                    // The dispatch-time map entry led the registry;
                    // retract it so the name is reusable.
                    lock(&shared.view_bases).remove(name);
                    shared.conclude(
                        trace,
                        sub,
                        Err(ServeError::View {
                            detail: e.to_string(),
                        }),
                    );
                }
            }
        }
        ViewAction::Drop { name } => match lock(&shared.views).remove(name) {
            Some(_) => shared.conclude(
                trace,
                sub,
                Ok(QueryResult {
                    id: 0,
                    fan_out: 1,
                    schema: String::new(),
                    tuples: Vec::new(),
                }),
            ),
            None => shared.conclude(
                trace,
                sub,
                Err(ServeError::View {
                    detail: format!("view `{name}` is not installed"),
                }),
            ),
        },
        ViewAction::Read { name } => {
            let slot = lock(&shared.views).get(name).cloned();
            match slot {
                Some(slot) => {
                    let view = lock(&slot);
                    shared
                        .stats
                        .view_reads_served
                        .fetch_add(1, Ordering::Relaxed);
                    let result = QueryResult {
                        id: 0,
                        fan_out: 1,
                        schema: view.schema().to_string(),
                        tuples: view.tuple_images(),
                    };
                    drop(view);
                    shared.conclude(trace, sub, Ok(result));
                }
                None => shared.conclude(
                    trace,
                    sub,
                    Err(ServeError::View {
                        detail: format!("view `{name}` is not installed"),
                    }),
                ),
            }
        }
    }
}

/// Containment path for a lane panic: answer whatever waiters the task
/// still owes (a read's in-flight entries, a write's un-taken
/// submission) with a structured error, so every accepted request is
/// still answered exactly once and the in-flight registry holds no
/// stale entries when the epilogue releases the gate.
fn contain_lane_panic(
    shared: &Arc<Shared>,
    task: &mut LaneTask,
    trace: &Option<Arc<Tracer>>,
    seq: u64,
) {
    // `UnitPanicked` is the wire shape clients already understand for a
    // contained panic; `op` marks the layer that caught it.
    let error = ServeError::host(&HostError::UnitPanicked {
        query: 0,
        cell: 0,
        op: "serve-lane".into(),
        payload: format!("serve lane panicked while executing task {seq}"),
    });
    match task {
        LaneTask::Read(read) => {
            for exec in &read.execs {
                // `remove` (not expect): a panic mid-fan-out may have
                // already consumed some entries.
                let waiters = lock(&shared.inflight)
                    .remove(&exec.key)
                    .map(|e| e.waiters)
                    .unwrap_or_default();
                for sub in waiters {
                    shared.conclude(trace, sub, Err(error.clone()));
                }
            }
        }
        LaneTask::Write(write) => {
            if let Some(sub) = write.sub.take() {
                shared.conclude(trace, sub, Err(error.clone()));
            }
        }
        LaneTask::View(view) => {
            if let Some(sub) = view.sub.take() {
                // An install that panicked never reached the registry;
                // retract its dispatch-time entry so the name frees up.
                if let ViewAction::Install { name, .. } = &view.action {
                    lock(&shared.view_bases).remove(name);
                }
                shared.conclude(trace, sub, Err(error.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{normalize_text, Plan, PlanCache};
    use std::sync::Arc;

    fn dummy_plan(tag: &str) -> Plan {
        // The cache keys on text, not the tree; a minimal parsed tree of
        // any shape works. The tag only tells entries apart.
        plan_for(tag, "(scan r00)")
    }

    /// A real plan for `text` (so its read-set tags are genuine), keyed
    /// by `tag`.
    fn plan_for(tag: &str, text: &str) -> Plan {
        let db = df_workload::generate_database(&df_workload::DatabaseSpec::scaled(0.01));
        let tree = df_query::parse_query(&db, text).expect("parse");
        Plan {
            key: Arc::from(tag),
            ..Plan::from_tree(tree)
        }
    }

    #[test]
    fn normalize_collapses_whitespace_runs() {
        assert_eq!(
            normalize_text("  (scan\n\t r00)  "),
            "(scan r00)".to_string()
        );
        assert_eq!(normalize_text("(scan r00)"), "(scan r00)");
        assert_eq!(normalize_text(""), "");
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let mut cache = PlanCache::new(2);
        cache.insert(("a".into(), false), dummy_plan("a"));
        cache.insert(("b".into(), false), dummy_plan("b"));
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        assert!(cache.get(&("a".into(), false)).is_some());
        cache.insert(("c".into(), false), dummy_plan("c"));
        assert!(cache.get(&("a".into(), false)).is_some());
        assert!(cache.get(&("b".into(), false)).is_none(), "b evicted");
        assert!(cache.get(&("c".into(), false)).is_some());
    }

    #[test]
    fn plan_cache_zero_capacity_never_stores() {
        let mut cache = PlanCache::new(0);
        cache.insert(("a".into(), false), dummy_plan("a"));
        assert!(cache.get(&("a".into(), false)).is_none());
    }

    #[test]
    fn plan_cache_keys_on_optimize_flag() {
        let mut cache = PlanCache::new(4);
        cache.insert(("q".into(), false), dummy_plan("plain"));
        assert!(cache.get(&("q".into(), true)).is_none());
        assert!(cache.get(&("q".into(), false)).is_some());
    }

    #[test]
    fn evict_reading_is_relation_scoped() {
        let mut cache = PlanCache::new(8);
        cache.insert(("a".into(), false), plan_for("a", "(scan r00)"));
        cache.insert(("b".into(), false), plan_for("b", "(scan r01)"));
        cache.insert(
            ("j".into(), false),
            plan_for("j", "(join (scan r00) (scan r02) (= key key))"),
        );
        // A write to r01 evicts only the r01 reader.
        assert_eq!(cache.evict_reading(&["r01".to_string()]), 1);
        assert!(cache.get(&("a".into(), false)).is_some());
        assert!(cache.get(&("b".into(), false)).is_none());
        assert!(cache.get(&("j".into(), false)).is_some());
        // A write to a join input evicts the join (and the scan sharing
        // that input).
        assert_eq!(cache.evict_reading(&["r02".to_string()]), 1);
        assert!(cache.get(&("j".into(), false)).is_none());
        assert_eq!(cache.evict_reading(&["r00".to_string()]), 1);
        assert!(cache.get(&("a".into(), false)).is_none());
        // Nothing left to evict.
        assert_eq!(cache.evict_reading(&["r00".to_string()]), 0);
    }
}
