//! The ring machine: state, event loop, and the storage hierarchy glue.
//!
//! The controller logic lives in sibling modules operating on this state:
//! [`crate::mc`] (query admission, IP-pool arbitration), [`crate::ic`]
//! (instruction control: §4.2 protocol), [`crate::ip`] (instruction
//! processors: kernels, IRC vectors, output buffering).
//!
//! ## Node layout
//!
//! * inner ring: MC at station 0, IC *i* at station `1 + i`;
//! * outer ring: IC *i* at station `i`, IP *j* at station `ics + j`.
//!
//! ## Page locations
//!
//! Every page's contents live in the shared [`PageStore`]; the machine
//! tracks one *location* per page ([`Loc`]) and charges device/ring time as
//! pages move: mass storage ⇄ disk cache ⇄ IC local memory → (outer ring) →
//! IP memories. Join operand pages stay in the IC hierarchy until the
//! instruction completes so that missed-broadcast catch-up requests can be
//! served; single-use operand pages of streaming operators are reclaimed as
//! soon as they are shipped.

use std::collections::{HashMap, VecDeque};

use df_core::instr::{base_relations, root_schema, InstrId};
use df_core::CostModel;
use df_obs::Path as ObsPath;
use df_query::{Graph, QueryTree};
use df_relalg::{Catalog, Page, Relation, Result, TupleBuf};
use df_sim::{Duration, EventQueue, SimTime};
use df_storage::{DiskCache, LocalMemory, MassStorage, PageId, PageMap, PageStore, PageTable};

use crate::metrics::RingMetrics;
use crate::params::RingParams;
use crate::ring::Ring;
use df_query::{LockRequest, LockTable};

/// Approximate wire size of inner-ring control messages (assignment,
/// request, grant, release, done). The paper: "the messages required for
/// such activities are small and limited in number".
pub(crate) const INNER_MSG_BYTES: usize = 64;

/// Where a page currently resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Loc {
    /// On mass storage.
    OnDisk,
    /// In the disk cache (owned by an IC segment).
    Cached,
    /// In an IC's local memory.
    IcLocal(usize),
    /// Held at a producing IP (direct-routing extension, §5).
    AtIp(usize),
}

/// A message in flight (the machine-internal form of the wire packets; the
/// wire sizes of `crate::packet` are what gets charged to the rings).
#[derive(Debug, Clone)]
pub(crate) enum Msg {
    // ---- inner ring ----
    /// MC → IC: take control of this instruction.
    AssignInstr { instr: InstrId },
    /// IC → MC: request `want` more IPs for `instr`.
    IpRequest {
        ic: usize,
        instr: InstrId,
        want: usize,
    },
    /// MC → IC: one IP granted to `instr`.
    IpGrant { instr: InstrId, ip: usize },
    /// IC → MC: `ip` is free again.
    IpRelease { ip: usize },
    /// IC → MC: `instr` has completed.
    InstrDone { instr: InstrId },
    // ---- outer ring ----
    /// IC → IP: an instruction packet (Fig 4.3).
    Packet { instr: InstrId, kind: PacketKind },
    /// IC → all IPs: broadcast of inner page `idx` (join protocol).
    BroadcastInner {
        instr: InstrId,
        idx: usize,
        page: PageId,
    },
    /// IC → all IPs of `instr`: the inner operand is complete with `total`
    /// pages ("a packet … which indicates that this is the last page of the
    /// inner relation", §4.2).
    InnerComplete { instr: InstrId, total: usize },
    /// IP → IC: a result packet (Fig 4.4) carrying one output page.
    Result {
        from_ip: usize,
        producer: InstrId,
        page: PageId,
    },
    /// IP → IC: a control packet (Fig 4.5).
    Control {
        from_ip: usize,
        instr: InstrId,
        message: crate::packet::ControlMessage,
    },
    /// IC → IC: the producer feeding `(instr, slot)` has terminated.
    StreamComplete { instr: InstrId, slot: usize },
}

/// The payload of an instruction packet.
#[derive(Debug, Clone)]
pub(crate) enum PacketKind {
    /// One source page for a streaming unary kernel. `flush` is the
    /// "flush-when-done" flag of Fig 4.3.
    UnaryPage { page: PageId, flush: bool },
    /// A new outer page for a join/cross sweep, optionally with the first
    /// inner page ("the two operands in the packet", §4.2).
    JoinOuter {
        outer_idx: usize,
        page: PageId,
        first_inner: Option<(usize, PageId)>,
    },
    /// All input pages of a whole-relation (blocking) kernel.
    WholeRelation { pages: Vec<Vec<PageId>> },
    /// Zero-operand packet whose only effect is flush-when-done.
    FlushNow,
}

/// Simulation events.
#[derive(Debug)]
pub(crate) enum Event {
    /// Message delivered at its destination after ring transit.
    Deliver { to: Node, msg: Msg },
    /// An IP finished its current computation.
    IpCompute { ip: usize },
    /// A user submitted `query` to the MC (multi-user operation; paper
    /// requirement 1).
    QueryArrival { query: usize },
}

/// A station on one of the rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Node {
    /// The master controller (inner ring only).
    Mc,
    /// Instruction controller `i`.
    Ic(usize),
    /// Instruction processor `j`.
    Ip(usize),
}

// ------------------------------------------------------------------ states

/// Master-controller state.
#[derive(Debug, Default)]
pub(crate) struct McState {
    pub locks: LockTable,
    /// Queries waiting for admission, in arrival order.
    pub waiting: VecDeque<usize>,
    /// Lock set per query.
    pub lock_requests: Vec<LockRequest>,
    /// Remaining unfinished instructions per query.
    pub remaining: Vec<usize>,
    /// Free IP pool.
    pub free_ips: VecDeque<usize>,
    /// Outstanding grant requests `(ic, instr, remaining)`. The grant loop
    /// serves ONE IP per entry and rotates, so processors are "distributed
    /// across all nodes in the query tree" (§4.1) instead of the earliest
    /// big requester monopolizing the pool.
    pub requests: VecDeque<(usize, InstrId, usize)>,
}

/// Per-instruction control state at its IC.
#[derive(Debug)]
pub(crate) struct IcInstr {
    /// The controlling IC.
    pub ic: usize,
    /// Assigned by the MC (query admitted); inactive instructions neither
    /// request IPs nor dispatch.
    pub active: bool,
    /// Operand page tables (pages registered post-compaction).
    pub operands: Vec<PageTable>,
    /// Compaction buffer per operand slot (partial result pages are merged
    /// into full pages, §4.2).
    pub compaction: Vec<Option<Page>>,
    /// IPs granted to this instruction.
    pub granted: Vec<usize>,
    /// IPs granted but currently without work.
    pub parked: Vec<usize>,
    /// Grant requests sent to the MC not yet satisfied.
    pub outstanding: usize,
    /// Streaming unary: cursor handled by `operands[0].take_next()`.
    /// Join: next outer index to hand out.
    pub outer_next: usize,
    /// Join: outer pages fully processed.
    pub outers_done: usize,
    /// Join: per inner index, when it was last broadcast.
    pub last_broadcast: Vec<Option<SimTime>>,
    /// Join: when each IP was handed its current outer page. A request may
    /// only be window-suppressed if the prior broadcast happened *after*
    /// this instant — earlier broadcasts passed while the IP held no outer
    /// and were legitimately ignored without an IRC record.
    pub outer_assigned_at: HashMap<usize, SimTime>,
    /// Join: advance requests for pages not yet produced: (ip, idx).
    pub deferred_requests: Vec<(usize, usize)>,
    /// Join: whether `InnerComplete` has been broadcast.
    pub inner_complete_sent: bool,
    /// Whole-relation kernels: the single packet has been sent.
    pub final_sent: bool,
    /// IPs told to flush and not yet released.
    pub flushing: Vec<usize>,
    /// Completion announced to MC / parent.
    pub done: bool,
    /// When the first instruction packet was dispatched.
    pub first_packet: Option<SimTime>,
    /// When the instruction completed.
    pub completed: Option<SimTime>,
}

/// Per-IP state.
#[derive(Debug)]
pub(crate) struct IpState {
    /// Instruction currently assigned (None = in the MC free pool).
    pub instr: Option<InstrId>,
    /// Join: the held outer page and its index.
    pub outer: Option<(usize, PageId)>,
    /// Join: queued inner pages (bounded by `ip_memory_pages - 1`).
    pub inner_queue: VecDeque<(usize, PageId)>,
    /// Join IRC vector: per inner index seen so far, joined / missed flags.
    pub irc: Vec<IrcEntry>,
    /// Join: inner pages joined with the current outer.
    pub joined_count: usize,
    /// An advance request is in flight (avoid duplicates).
    pub advance_in_flight: bool,
    /// Join: total inner pages, once announced.
    pub inner_total: Option<usize>,
    /// A catch-up request currently in flight (avoid duplicates).
    pub catchup_in_flight: Option<usize>,
    /// Unary/whole work waiting to compute: (pages, flush_after).
    pub pending_input: VecDeque<PendingWork>,
    /// True while a computation is scheduled.
    pub busy: bool,
    /// Result batch (encoded images) computed by the in-flight computation.
    pub current_results: Option<TupleBuf>,
    /// Join bookkeeping for the in-flight computation: inner idx joined.
    pub current_inner: Option<usize>,
    /// Output buffer page.
    pub out_buffer: Option<Page>,
    /// Flush requested (emit buffered output when current work drains).
    pub flush_pending: bool,
}

/// IRC vector entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct IrcEntry {
    /// Joined with the current outer page.
    pub joined: bool,
    /// Broadcast missed (memory full); needs catch-up.
    pub missed: bool,
}

/// Work waiting at an IP (join inner pages use the dedicated
/// `inner_queue` so the memory-capacity rule can see them).
#[derive(Debug)]
pub(crate) enum PendingWork {
    /// A unary page (restrict/project/copy/delete-filter).
    Unary { page: PageId, flush: bool },
    /// A whole-relation finalizer.
    Whole { pages: Vec<Vec<PageId>> },
}

// ----------------------------------------------------------------- machine

/// The §4 ring machine.
pub struct RingMachine {
    pub(crate) params: RingParams,
    pub(crate) graph: Graph,
    pub(crate) queue: EventQueue<Event>,

    pub(crate) store: PageStore,
    pub(crate) disk: MassStorage,
    pub(crate) cache: DiskCache,
    pub(crate) ic_memory: Vec<LocalMemory>,
    pub(crate) loc: PageMap<Loc>,

    pub(crate) inner_ring: Ring,
    pub(crate) outer_ring: Ring,

    pub(crate) mc: McState,
    pub(crate) ic_instrs: Vec<IcInstr>,
    pub(crate) ips: Vec<IpState>,

    pub(crate) metrics: RingMetrics,
    /// When each query is submitted (all zero for a plain batch).
    pub(crate) arrivals: Vec<SimTime>,
    /// IPs currently computing (for the peak-concurrency metric).
    pub(crate) busy_ips: usize,
    pub(crate) query_results: Vec<Vec<PageId>>,
    pub(crate) query_done_at: Vec<Option<SimTime>>,
}

/// Output of [`run_ring_queries`].
#[derive(Debug, Clone)]
pub struct RingRunOutput {
    /// One result relation per query.
    pub results: Vec<Relation>,
    /// Whole-run metrics.
    pub metrics: RingMetrics,
    /// Each update query's tree, `None` for a read-only one.
    updates: Vec<Option<QueryTree>>,
}

impl RingRunOutput {
    /// Apply the batch's append/delete updates to `db`, in batch order;
    /// each update query's entry in `results` becomes the tuples its write
    /// appended or deleted ([`df_core::Machine::apply_updates`]).
    pub fn apply_updates(&mut self, db: &mut Catalog) -> Result<()> {
        df_core::Machine::apply_updates(db, &self.updates, &mut self.results)
    }
}

/// Run a batch of queries on the ring machine, all submitted at t = 0
/// (the paper's benchmark form).
///
/// # Errors
/// Propagates query validation errors.
pub fn run_ring_queries(
    db: &Catalog,
    queries: &[QueryTree],
    params: &RingParams,
) -> Result<RingRunOutput> {
    let arrivals = vec![SimTime::ZERO; queries.len()];
    run_ring_queries_at(db, queries, &arrivals, params)
}

/// Run queries submitted at individual arrival times — multi-user
/// operation (requirement 1, §4.0): each query reaches the MC's admission
/// queue at its own instant, contends for locks and the IP pool against
/// whatever is already running, and its response time is measured from its
/// arrival.
///
/// # Errors
/// Propagates validation errors; panics if `arrivals.len() !=
/// queries.len()`.
pub fn run_ring_queries_at(
    db: &Catalog,
    queries: &[QueryTree],
    arrivals: &[SimTime],
    params: &RingParams,
) -> Result<RingRunOutput> {
    assert_eq!(arrivals.len(), queries.len(), "one arrival time per query");
    let mut machine = RingMachine::new(db, queries, params.clone())?;
    machine.arrivals = arrivals.to_vec();
    let (results, metrics) = machine.run();
    Ok(RingRunOutput {
        results,
        metrics,
        updates: (queries.iter())
            .map(|q| q.node(q.root()).op.is_update().then(|| q.clone()))
            .collect(),
    })
}

impl RingMachine {
    /// Compile and assemble the machine.
    ///
    /// # Errors
    /// Propagates validation errors.
    pub fn new(db: &Catalog, queries: &[QueryTree], params: RingParams) -> Result<RingMachine> {
        params.validate();
        let graph = Graph::per_query(db, queries, params.transfer)?;
        // Every instruction's output page must hold at least one tuple.
        for cell in &graph.cells {
            Page::new(cell.node().out_schema.clone(), params.page_size)?;
        }

        let mut store = PageStore::new();
        let mut disk = MassStorage::new(params.disk.clone());
        let mut loc = PageMap::new();
        let mut base_pages: HashMap<&str, Vec<PageId>> = HashMap::new();
        for name in base_relations(&graph) {
            let ids = store.load_relation(db.require(name)?);
            for &id in &ids {
                disk.preload(id);
                loc.insert(id, Loc::OnDisk);
            }
            base_pages.insert(name, ids);
        }

        let mut cache = DiskCache::new(params.cache.clone());
        // Segment the cache equally across the ICs (the paper suggests
        // IP-proportional shares; equal shares are the degenerate case for
        // a uniform pool and keep the arithmetic transparent).
        let per_ic = (params.cache.frames / params.ics).max(1);
        for ic in 0..params.ics {
            cache.set_quota(ic, per_ic);
        }

        let n_queries = graph.reads.len();
        let ics = params.ics;

        // Per-instruction IC state, with source operands pre-registered.
        let mut ic_instrs: Vec<IcInstr> = Vec::with_capacity(graph.cells.len());
        for (id, cell) in graph.cells.iter().enumerate() {
            let operands: Vec<PageTable> = (cell.operands())
                .map(|(schema, source)| match source {
                    Some(name) => {
                        PageTable::complete_with(schema.clone(), base_pages[name].clone())
                    }
                    None => PageTable::new(schema.clone()),
                })
                .collect();
            ic_instrs.push(IcInstr {
                ic: id % ics,
                active: false,
                compaction: vec![None; operands.len()],
                operands,
                granted: Vec::new(),
                parked: Vec::new(),
                outstanding: 0,
                outer_next: 0,
                outers_done: 0,
                last_broadcast: Vec::new(),
                outer_assigned_at: HashMap::new(),
                deferred_requests: Vec::new(),
                inner_complete_sent: false,
                final_sent: false,
                flushing: Vec::new(),
                done: false,
                first_packet: None,
                completed: None,
            });
        }

        let mc = McState {
            locks: LockTable::new(),
            waiting: VecDeque::new(), // filled by mc_bootstrap per arrival

            lock_requests: queries
                .iter()
                .map(|q| LockRequest::new(q.referenced_relations(), q.written_relations()))
                .collect(),
            remaining: graph.reads.iter().map(Vec::len).collect(),
            free_ips: (0..params.ips).collect(),
            requests: VecDeque::new(),
        };

        let ips = (0..params.ips)
            .map(|_| IpState {
                instr: None,
                outer: None,
                inner_queue: VecDeque::new(),
                irc: Vec::new(),
                joined_count: 0,
                advance_in_flight: false,
                inner_total: None,
                catchup_in_flight: None,
                pending_input: VecDeque::new(),
                busy: false,
                current_results: None,
                current_inner: None,
                out_buffer: None,
                flush_pending: false,
            })
            .collect();

        let metrics = RingMetrics {
            ips: params.ips,
            ics: params.ics,
            ..RingMetrics::default()
        };

        Ok(RingMachine {
            inner_ring: Ring::new(
                "inner",
                1 + params.ics,
                params.inner_ring_bps,
                params.hop_latency,
            ),
            outer_ring: Ring::new(
                "outer",
                params.ics + params.ips,
                params.outer_ring_bps,
                params.hop_latency,
            ),
            ic_memory: (0..params.ics)
                .map(|_| LocalMemory::new(params.ic_memory_pages))
                .collect(),
            queue: EventQueue::new(),
            store,
            disk,
            cache,
            loc,
            mc,
            ic_instrs,
            ips,
            metrics,
            arrivals: vec![SimTime::ZERO; n_queries],
            busy_ips: 0,
            query_results: vec![Vec::new(); n_queries],
            query_done_at: vec![None; n_queries],
            params,
            graph,
        })
    }

    /// The IP cost model.
    pub(crate) fn cost(&self) -> &CostModel {
        &self.params.cost
    }

    // --------------------------------------------------------- ring sends

    /// Record `bytes` moving on a byte path at simulated time `now`: feeds
    /// the matching per-interval series on the metrics and, when a tracer
    /// is installed, its exact per-path counters. Every ring/cache/disk
    /// transfer flows through here, so series and `ByteCounter` totals
    /// agree by construction.
    fn observe(&mut self, now: SimTime, path: ObsPath, bytes: usize) {
        let t = now.as_nanos();
        let series = match path {
            ObsPath::InnerRing => &mut self.metrics.inner_ring_series,
            ObsPath::OuterRing => &mut self.metrics.outer_ring_series,
            ObsPath::DiskRead | ObsPath::DiskWrite => &mut self.metrics.disk_series,
            ObsPath::CacheIn | ObsPath::CacheOut => &mut self.metrics.cache_series,
            _ => return,
        };
        series.record(t, bytes as u64);
        if let Some(tr) = self.params.trace.as_deref() {
            tr.transfer_at(t, path, u32::MAX, bytes as u64);
        }
    }

    /// Station of a node on the inner ring.
    fn inner_station(node: Node) -> usize {
        match node {
            Node::Mc => 0,
            Node::Ic(i) => 1 + i,
            Node::Ip(_) => panic!("IPs are not on the inner ring"),
        }
    }

    /// Station of a node on the outer ring.
    fn outer_station(&self, node: Node) -> usize {
        match node {
            Node::Ic(i) => i,
            Node::Ip(j) => self.params.ics + j,
            Node::Mc => panic!("the MC is not on the outer ring"),
        }
    }

    /// Send a control message on the inner ring.
    pub(crate) fn send_inner(&mut self, now: SimTime, from: Node, to: Node, msg: Msg) {
        self.observe(now, ObsPath::InnerRing, INNER_MSG_BYTES);
        let t = self.inner_ring.send(
            now,
            Self::inner_station(from),
            Self::inner_station(to),
            INNER_MSG_BYTES,
        );
        self.queue.schedule(t, Event::Deliver { to, msg });
    }

    /// Send a message of `bytes` on the outer ring.
    pub(crate) fn send_outer(
        &mut self,
        now: SimTime,
        from: Node,
        to: Node,
        bytes: usize,
        msg: Msg,
    ) {
        self.observe(now, ObsPath::OuterRing, bytes);
        let t = self
            .outer_ring
            .send(now, self.outer_station(from), self.outer_station(to), bytes);
        self.queue.schedule(t, Event::Deliver { to, msg });
    }

    /// Broadcast on the outer ring: one transmission, delivered to every IP
    /// executing the instruction (they filter by query id per §4.2).
    pub(crate) fn broadcast_outer(
        &mut self,
        now: SimTime,
        from: Node,
        bytes: usize,
        targets: &[usize],
        make_msg: impl Fn() -> Msg,
    ) {
        self.observe(now, ObsPath::OuterRing, bytes);
        let t = self
            .outer_ring
            .broadcast(now, self.outer_station(from), bytes);
        for &ip in targets {
            self.queue.schedule(
                t,
                Event::Deliver {
                    to: Node::Ip(ip),
                    msg: make_msg(),
                },
            );
        }
    }

    // ----------------------------------------------------------- storage

    /// Store an arriving result page in an IC's local memory, spilling to
    /// the IC's cache segment and onward to disk as needed. Returns when
    /// the page is settled.
    pub(crate) fn ic_store_page(&mut self, now: SimTime, ic: usize, page: PageId) -> SimTime {
        let bytes = self.store.wire_bytes(page);
        let spilled = self.ic_memory[ic].insert(page, bytes, |p| self.store.get(p).wire_bytes());
        self.loc.insert(page, Loc::IcLocal(ic));
        let mut settled = now;
        for victim in spilled {
            let vbytes = self.store.wire_bytes(victim);
            let (_, done, evicted) = self.cache.insert(now, ic, victim, vbytes);
            self.metrics.cache_in.record(vbytes as u64);
            self.observe(now, ObsPath::CacheIn, vbytes);
            self.loc.insert(victim, Loc::Cached);
            settled = settled.max(done);
            for e in evicted {
                let ebytes = self.store.wire_bytes(e);
                if !self.disk.contains(e) {
                    let (_, wdone) = self.disk.write(done, e, ebytes);
                    self.metrics.disk_write.record(ebytes as u64);
                    self.observe(done, ObsPath::DiskWrite, ebytes);
                    settled = settled.max(wdone);
                }
                self.loc.insert(e, Loc::OnDisk);
            }
        }
        settled
    }

    /// Make a page's bytes available at IC `ic` for shipping; returns when
    /// they are ready.
    pub(crate) fn ic_fetch_page(&mut self, now: SimTime, ic: usize, page: PageId) -> SimTime {
        match self.loc.get(page).copied() {
            Some(Loc::IcLocal(owner)) => {
                debug_assert_eq!(owner, ic, "operand pages are delivered to their IC");
                self.ic_memory[ic].touch(page);
                now
            }
            Some(Loc::Cached) => {
                let (_, done) = self.cache.read(now, page);
                let bytes = self.store.wire_bytes(page);
                self.metrics.cache_out.record(bytes as u64);
                self.observe(now, ObsPath::CacheOut, bytes);
                done
            }
            Some(Loc::OnDisk) | None => {
                let bytes = self.store.wire_bytes(page);
                let (_, rdone) = self.disk.read(now, page, bytes);
                self.metrics.disk_read.record(bytes as u64);
                self.observe(now, ObsPath::DiskRead, bytes);
                // Pull through the cache segment on the way up.
                let (_, cdone, evicted) = self.cache.insert(rdone, ic, page, bytes);
                self.metrics.cache_in.record(bytes as u64);
                self.observe(rdone, ObsPath::CacheIn, bytes);
                self.loc.insert(page, Loc::Cached);
                let mut settled = cdone;
                for e in evicted {
                    let ebytes = self.store.wire_bytes(e);
                    if !self.disk.contains(e) {
                        let (_, wdone) = self.disk.write(cdone, e, ebytes);
                        self.metrics.disk_write.record(ebytes as u64);
                        self.observe(cdone, ObsPath::DiskWrite, ebytes);
                        settled = settled.max(wdone);
                    }
                    self.loc.insert(e, Loc::OnDisk);
                }
                settled
            }
            Some(Loc::AtIp(_)) => now, // direct routing: shipped IP→IP
        }
    }

    /// Drop a fully consumed page from the hierarchy (contents stay in the
    /// store for the exact data path).
    pub(crate) fn reclaim_page(&mut self, page: PageId) {
        match self.loc.remove(page) {
            Some(Loc::IcLocal(ic)) => self.ic_memory[ic].remove(page),
            Some(Loc::Cached) => self.cache.discard(page),
            Some(Loc::OnDisk) | Some(Loc::AtIp(_)) | None => {}
        }
        self.disk.discard(page);
    }

    // ---------------------------------------------------------- main loop

    /// Run to completion.
    ///
    /// # Panics
    /// Panics if the simulation wedges with unfinished instructions (an
    /// internal protocol bug).
    pub fn run(mut self) -> (Vec<Relation>, RingMetrics) {
        self.mc_bootstrap();
        while let Some((now, event)) = self.queue.pop() {
            match event {
                Event::Deliver { to, msg } => match to {
                    Node::Mc => self.mc_handle(now, msg),
                    Node::Ic(ic) => self.ic_handle(now, ic, msg),
                    Node::Ip(ip) => self.ip_handle(now, ip, msg),
                },
                Event::IpCompute { ip } => self.ip_compute_done(now, ip),
                Event::QueryArrival { query } => self.mc_query_arrival(now, query),
            }
        }
        for (iid, st) in self.ic_instrs.iter().enumerate() {
            if !st.done {
                let ips: Vec<String> = st
                    .granted
                    .iter()
                    .map(|&ip| {
                        let s = &self.ips[ip];
                        format!(
                            "ip{ip}: busy={} outer={:?} q={} irc_joined={} irc_missed={} \
                             total={:?} adv={} catchup={:?} pend={} flushp={}",
                            s.busy,
                            s.outer.map(|(i, _)| i),
                            s.inner_queue.len(),
                            s.joined_count,
                            s.irc.iter().filter(|e| e.missed && !e.joined).count(),
                            s.inner_total,
                            s.advance_in_flight,
                            s.catchup_in_flight,
                            s.pending_input.len(),
                            s.flush_pending,
                        )
                    })
                    .collect();
                panic!(
                    "ring machine wedged: instruction {iid} ({}) unfinished \
                     (granted={:?} parked={:?} flushing={:?} outer_next={} outers_done={} \
                     operands=[{}]) IPs: {ips:?}",
                    self.graph.cells[iid].op_name(),
                    st.granted,
                    st.parked,
                    st.flushing,
                    st.outer_next,
                    st.outers_done,
                    st.operands
                        .iter()
                        .map(|t| format!("{}/{}c={}", t.consumed(), t.len(), t.is_complete()))
                        .collect::<Vec<_>>()
                        .join(", "),
                );
            }
        }
        self.finalize()
    }

    fn finalize(mut self) -> (Vec<Relation>, RingMetrics) {
        let elapsed = self
            .query_done_at
            .iter()
            .map(|t| t.expect("all queries completed"))
            .max()
            .unwrap_or(SimTime::ZERO);
        self.metrics.elapsed = elapsed;
        self.metrics.query_completions = self
            .query_done_at
            .iter()
            .map(|t| t.expect("all queries completed"))
            .collect();
        self.metrics.query_arrivals = self.arrivals.clone();
        self.metrics.inner_ring = self.inner_ring.traffic;
        self.metrics.outer_ring = self.outer_ring.traffic;
        self.metrics.instruction_timeline = self
            .ic_instrs
            .iter()
            .enumerate()
            .map(|(iid, st)| {
                (
                    self.graph.cells[iid].op_name().to_string(),
                    self.graph.cells[iid].owner,
                    st.first_packet.unwrap_or(SimTime::ZERO),
                    st.completed.unwrap_or(SimTime::ZERO),
                )
            })
            .collect();
        // Device counters maintained incrementally; disk totals double-check:
        debug_assert_eq!(self.metrics.disk_read.bytes, self.disk.read_traffic.bytes);

        let results: Vec<Relation> = (0..self.query_results.len())
            .map(|q| {
                let schema = root_schema(&self.graph, q).clone();
                self.store
                    .materialize(
                        &format!("q{q}_result"),
                        schema,
                        self.params.page_size,
                        &self.query_results[q],
                    )
                    .expect("result pages conform to root schema")
            })
            .collect();
        (results, self.metrics)
    }

    /// Total compute ingest duration for a set of pages.
    pub(crate) fn compute_time_for(&self, pages: &[PageId], tuple_ops: usize) -> Duration {
        let bytes: usize = pages.iter().map(|&p| self.store.wire_bytes(p)).sum();
        self.cost().compute_time(bytes, tuple_ops)
    }
}
