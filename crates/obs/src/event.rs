//! Ring-buffered structured event tracing.
//!
//! Every event is a fixed-size record — no allocation on the hot path —
//! and the buffer is a ring: when full, the oldest events are overwritten
//! and counted in [`TraceSnapshot::dropped`], so a tracer never grows
//! without bound under a pathological workload.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::JsonValue;

/// What happened. The numeric discriminants are stable — they appear in
/// `--trace-out` JSON and must not be reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A firing rule created work units at an instruction cell
    /// (`a` = units now pending at the cell, `b` = units this arrival
    /// created).
    CellFire = 0,
    /// A unit crossed the distribution network to a processor
    /// (`a` = dispatch sequence number, `b` = worker/IP id).
    UnitDispatch = 1,
    /// A kernel started executing (`a` = dispatch sequence number).
    KernelStart = 2,
    /// A kernel finished (`a` = unit class: 0 other, 1 probe, 2 sweep;
    /// `b` = busy nanoseconds — the span's duration).
    KernelEnd = 3,
    /// Bytes crossed a named path (`a` = [`Path`] discriminant,
    /// `b` = bytes).
    PageTransfer = 4,
    /// Scheduler queue depth sampled at a dispatch decision
    /// (`a` = pending units across all cells, `b` = idle processors).
    QueueDepth = 5,
    /// A fault was observed (`a` = 0 contained kernel panic,
    /// 1 worker death, 2 unit requeued).
    Fault = 6,
    /// A query was admitted under the lock manager.
    QueryAdmit = 7,
    /// A query concluded (`a` = 0 ok, 1 failed).
    QueryDone = 8,
}

impl EventKind {
    /// Stable lower-case name (the `--trace-out` JSON `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::CellFire => "cell_fire",
            EventKind::UnitDispatch => "unit_dispatch",
            EventKind::KernelStart => "kernel_start",
            EventKind::KernelEnd => "kernel_end",
            EventKind::PageTransfer => "page_transfer",
            EventKind::QueueDepth => "queue_depth",
            EventKind::Fault => "fault",
            EventKind::QueryAdmit => "query_admit",
            EventKind::QueryDone => "query_done",
        }
    }
}

/// A byte-carrying path through one of the machines. Each path has its own
/// atomic byte/transfer counters on the tracer, cheap enough to keep exact
/// totals even when the event ring has wrapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Path {
    /// Scheduler → processor operand bytes (the distribution network).
    Distribution = 0,
    /// Processor → scheduler result bytes (the arbitration network).
    Arbitration = 1,
    /// Tuple payload bytes delivered to a query's result set.
    QueryResult = 2,
    /// Inner (control) ring traffic.
    InnerRing = 3,
    /// Outer (data) ring traffic.
    OuterRing = 4,
    /// Bytes into the disk cache.
    CacheIn = 5,
    /// Bytes out of the disk cache.
    CacheOut = 6,
    /// Bytes read from mass storage.
    DiskRead = 7,
    /// Bytes written to mass storage.
    DiskWrite = 8,
    /// Request bytes arriving from serve clients (the df-serve
    /// front-end; the `query` field of the transfer event carries the
    /// client id, so per-client traffic is recoverable from the trace).
    ClientIn = 9,
    /// Response bytes sent back to serve clients.
    ClientOut = 10,
}

/// Number of distinct [`Path`]s.
pub(crate) const PATHS: usize = 11;

impl Path {
    /// Every path, in discriminant order.
    pub const ALL: [Path; PATHS] = [
        Path::Distribution,
        Path::Arbitration,
        Path::QueryResult,
        Path::InnerRing,
        Path::OuterRing,
        Path::CacheIn,
        Path::CacheOut,
        Path::DiskRead,
        Path::DiskWrite,
        Path::ClientIn,
        Path::ClientOut,
    ];

    /// Stable snake-case name (the artifact/JSON `path` field).
    pub fn name(self) -> &'static str {
        match self {
            Path::Distribution => "distribution",
            Path::Arbitration => "arbitration",
            Path::QueryResult => "query_result",
            Path::InnerRing => "inner_ring",
            Path::OuterRing => "outer_ring",
            Path::CacheIn => "cache_in",
            Path::CacheOut => "cache_out",
            Path::DiskRead => "disk_read",
            Path::DiskWrite => "disk_write",
            Path::ClientIn => "client_in",
            Path::ClientOut => "client_out",
        }
    }
}

/// One fixed-size trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the tracer's epoch (wall time on the host
    /// executor, simulated time on the simulators).
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Owning query index (`u32::MAX` when not query-scoped).
    pub query: u32,
    /// Instruction-cell index within the query (`u32::MAX` when not
    /// cell-scoped).
    pub cell: u32,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub b: u64,
}

/// Query/cell value for events that are not scoped to one.
pub(crate) const NO_ID: u32 = u32::MAX;

/// Immutable copy of a tracer's state at one instant.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Buffered events, oldest first. At most the tracer's capacity; the
    /// overwritten remainder is counted in `dropped`.
    pub events: Vec<TraceEvent>,
    /// Events overwritten by ring wrap-around since creation.
    pub dropped: u64,
    /// Per-path `(bytes, transfers)` totals, indexed by [`Path`]
    /// discriminant. Exact even when the event ring has wrapped.
    pub paths: [(u64, u64); PATHS],
}

impl TraceSnapshot {
    /// Total bytes recorded on `path`.
    pub fn bytes(&self, path: Path) -> u64 {
        self.paths[path as usize].0
    }

    /// Total transfers recorded on `path`.
    pub fn transfers(&self, path: Path) -> u64 {
        self.paths[path as usize].1
    }

    /// Events of one kind, in arrival order.
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Serialize to the `--trace-out` JSON document: exact per-path totals
    /// plus every buffered event, oldest first. `query`/`cell` values of
    /// `u32::MAX` mean "not scoped" and are rendered as `null`.
    pub fn to_json(&self) -> String {
        let id = |v: u32| {
            if v == NO_ID {
                JsonValue::Null
            } else {
                JsonValue::from(u64::from(v))
            }
        };
        let mut doc = JsonValue::obj();
        doc.set("dropped", self.dropped);
        let mut paths = JsonValue::obj();
        for p in Path::ALL {
            let mut row = JsonValue::obj();
            row.set("bytes", self.bytes(p))
                .set("transfers", self.transfers(p));
            paths.set(p.name(), row);
        }
        doc.set("paths", paths);
        doc.set(
            "events",
            JsonValue::Arr(
                self.events
                    .iter()
                    .map(|e| {
                        let mut row = JsonValue::obj();
                        row.set("t_ns", e.t_ns)
                            .set("kind", e.kind.name())
                            .set("query", id(e.query))
                            .set("cell", id(e.cell))
                            .set("a", e.a)
                            .set("b", e.b);
                        row
                    })
                    .collect(),
            ),
        );
        doc.to_pretty()
    }
}

/// The bounded event ring.
#[derive(Debug)]
struct Ring {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Next write position.
    head: usize,
    /// Events overwritten.
    dropped: u64,
}

impl Ring {
    fn push(&mut self, e: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.dropped += 1;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    fn snapshot(&self) -> (Vec<TraceEvent>, u64) {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() == self.capacity {
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        (out, self.dropped)
    }
}

/// A shareable, thread-safe event tracer.
///
/// Executors take an `Option<Arc<Tracer>>`; `None` (the default) costs one
/// branch per would-be record. An installed tracer can additionally be
/// switched off at runtime with [`Tracer::set_enabled`], which reduces
/// every record to a single relaxed atomic load — the "near-zero-cost when
/// disabled" contract, measured in `EXPERIMENTS.md` (PERF-OBS).
///
/// Timestamps: [`Tracer::record`] stamps wall time since construction (the
/// host executor's clock); the simulators stamp their own virtual time via
/// [`Tracer::transfer_at`].
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    ring: Mutex<Ring>,
    path_bytes: [AtomicU64; PATHS],
    path_transfers: [AtomicU64; PATHS],
}

impl Tracer {
    /// A tracer buffering at most `capacity` events (≥ 1), enabled.
    pub fn new(capacity: usize) -> Tracer {
        let capacity = capacity.max(1);
        Tracer {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                capacity,
                head: 0,
                dropped: 0,
            }),
            path_bytes: Default::default(),
            path_transfers: Default::default(),
        }
    }

    /// The default ring capacity of the bench binaries (64 Ki events).
    pub const DEFAULT_CAPACITY: usize = 64 * 1024;

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off. Off, every record path is one relaxed
    /// atomic load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since this tracer's construction (the wall-clock
    /// timestamp base used by [`Tracer::record`]).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record an event stamped with wall time since construction.
    #[inline]
    pub fn record(&self, kind: EventKind, query: u32, cell: u32, a: u64, b: u64) {
        if !self.is_enabled() {
            return;
        }
        self.push(self.now_ns(), kind, query, cell, a, b);
    }

    /// Record an event not scoped to a query or cell.
    #[inline]
    pub fn record_global(&self, kind: EventKind, a: u64, b: u64) {
        self.record(kind, NO_ID, NO_ID, a, b);
    }

    /// Count `bytes` on `path` and log a [`EventKind::PageTransfer`] event,
    /// stamped with wall time.
    #[inline]
    pub fn transfer(&self, path: Path, query: u32, bytes: u64) {
        if !self.is_enabled() {
            return;
        }
        self.transfer_at(self.now_ns(), path, query, bytes);
    }

    /// [`Tracer::transfer`] with an explicit (simulated) timestamp.
    #[inline]
    pub fn transfer_at(&self, t_ns: u64, path: Path, query: u32, bytes: u64) {
        if !self.is_enabled() {
            return;
        }
        self.path_bytes[path as usize].fetch_add(bytes, Ordering::Relaxed);
        self.path_transfers[path as usize].fetch_add(1, Ordering::Relaxed);
        self.push(
            t_ns,
            EventKind::PageTransfer,
            query,
            NO_ID,
            path as u64,
            bytes,
        );
    }

    /// Open a kernel-execution span: records [`EventKind::KernelStart`]
    /// now; [`Span::end`] records the matching [`EventKind::KernelEnd`]
    /// with the span's duration. Wall-clock only (the host executor).
    pub fn span(&self, query: u32, cell: u32, seq: u64) -> Span {
        self.record(EventKind::KernelStart, query, cell, seq, 0);
        Span {
            query,
            cell,
            started_ns: self.now_ns(),
        }
    }

    /// Copy out the buffered events and exact path totals.
    pub fn snapshot(&self) -> TraceSnapshot {
        let (events, dropped) = self.ring.lock().expect("tracer lock").snapshot();
        let mut paths = [(0u64, 0u64); PATHS];
        for (i, slot) in paths.iter_mut().enumerate() {
            *slot = (
                self.path_bytes[i].load(Ordering::Relaxed),
                self.path_transfers[i].load(Ordering::Relaxed),
            );
        }
        TraceSnapshot {
            events,
            dropped,
            paths,
        }
    }

    fn push(&self, t_ns: u64, kind: EventKind, query: u32, cell: u32, a: u64, b: u64) {
        self.ring.lock().expect("tracer lock").push(TraceEvent {
            t_ns,
            kind,
            query,
            cell,
            a,
            b,
        });
    }
}

/// An open kernel-execution span (see [`Tracer::span`]).
#[derive(Debug)]
#[must_use = "call end() to record the KernelEnd event"]
pub struct Span {
    query: u32,
    cell: u32,
    started_ns: u64,
}

impl Span {
    /// Close the span: records [`EventKind::KernelEnd`] with `class` (0
    /// other, 1 probe, 2 sweep) and the elapsed nanoseconds.
    pub fn end(self, tracer: &Tracer, class: u64) {
        let dur = tracer.now_ns().saturating_sub(self.started_ns);
        self.end_with(tracer, class, dur);
    }

    /// Close the span with an explicit duration (when the caller timed the
    /// kernel itself, e.g. with the worker's existing busy clock).
    pub fn end_with(self, tracer: &Tracer, class: u64, duration_ns: u64) {
        tracer.record(
            EventKind::KernelEnd,
            self.query,
            self.cell,
            class,
            duration_ns,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_order() {
        let t = Tracer::new(16);
        t.record(EventKind::CellFire, 1, 2, 3, 4);
        t.record(EventKind::UnitDispatch, 1, 2, 5, 0);
        let s = t.snapshot();
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].kind, EventKind::CellFire);
        assert_eq!(s.events[1].a, 5);
        assert_eq!(s.dropped, 0);
        assert!(s.events[0].t_ns <= s.events[1].t_ns);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let t = Tracer::new(4);
        for i in 0..10u64 {
            t.push(i, EventKind::CellFire, 0, 0, i, 0);
        }
        let s = t.snapshot();
        assert_eq!(s.events.len(), 4);
        assert_eq!(s.dropped, 6);
        // Oldest-first: the surviving events are 6, 7, 8, 9.
        let kept: Vec<u64> = s.events.iter().map(|e| e.a).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new(16);
        t.set_enabled(false);
        t.record(EventKind::CellFire, 0, 0, 0, 0);
        t.transfer(Path::Arbitration, 0, 1000);
        let s = t.snapshot();
        assert!(s.events.is_empty());
        assert_eq!(s.bytes(Path::Arbitration), 0);
        t.set_enabled(true);
        t.record(EventKind::CellFire, 0, 0, 0, 0);
        assert_eq!(t.snapshot().events.len(), 1);
    }

    #[test]
    fn path_counters_survive_ring_wrap() {
        let t = Tracer::new(2);
        for _ in 0..100 {
            t.transfer(Path::Distribution, 0, 10);
        }
        let s = t.snapshot();
        assert_eq!(s.bytes(Path::Distribution), 1000);
        assert_eq!(s.transfers(Path::Distribution), 100);
        assert_eq!(s.events.len(), 2, "ring stays bounded");
    }

    #[test]
    fn span_records_start_and_end() {
        let t = Tracer::new(16);
        let span = t.span(3, 1, 42);
        span.end_with(&t, 1, 777);
        let s = t.snapshot();
        assert_eq!(s.of_kind(EventKind::KernelStart).count(), 1);
        let end = s.of_kind(EventKind::KernelEnd).next().expect("end event");
        assert_eq!(end.a, 1);
        assert_eq!(end.b, 777);
        assert_eq!(end.query, 3);
    }

    #[test]
    fn shared_across_threads() {
        let t = std::sync::Arc::new(Tracer::new(1024));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        t.record(EventKind::UnitDispatch, 0, 0, i, w);
                        t.transfer(Path::Arbitration, 0, 8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread");
        }
        let s = t.snapshot();
        assert_eq!(s.of_kind(EventKind::UnitDispatch).count(), 200);
        assert_eq!(s.bytes(Path::Arbitration), 1600);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let t = Tracer::new(16);
        t.record(EventKind::CellFire, 1, 2, 3, 4);
        t.record_global(EventKind::QueueDepth, 5, 6);
        t.transfer(Path::OuterRing, 0, 128);
        let text = t.snapshot().to_json();
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let events = doc
            .get("events")
            .and_then(JsonValue::as_arr)
            .expect("events");
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0].get("kind").and_then(JsonValue::as_str),
            Some("cell_fire")
        );
        // Global events render query/cell as null.
        assert_eq!(events[1].get("query"), Some(&JsonValue::Null));
        let outer = doc
            .get("paths")
            .and_then(|p| p.get("outer_ring"))
            .and_then(|p| p.get("bytes"))
            .and_then(JsonValue::as_u64);
        assert_eq!(outer, Some(128));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EventKind::PageTransfer.name(), "page_transfer");
        assert_eq!(Path::OuterRing.name(), "outer_ring");
        assert_eq!(Path::ALL.len(), PATHS);
        for (i, p) in Path::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "discriminants are dense and ordered");
        }
    }
}
