//! The simulated DIRECT-like MIMD data-flow machine.
//!
//! Event-driven simulation with a genuine data path: work units carry real
//! pages, instruction processors run real operator kernels, and the clock
//! advances through the [`CostModel`](crate::CostModel). One `Machine`
//! executes one compiled [`Graph`] (a batch of query trees) under one
//! [`Granularity`] and one [`AllocationStrategy`].
//!
//! ## Work unit life cycle
//!
//! 1. **Generate** — units appear as operand pages become available
//!    (page/tuple granularity) or all at once when operands complete
//!    (relation granularity gates dispatch on completeness).
//! 2. **Dispatch** — a free memory cell on some processor claims a unit;
//!    operand pages are staged: cache hit → cache-port read; miss → disk
//!    read + cache insert (evicting LRU pages, dirty ones spilling to disk).
//! 3. **Transfer** — the instruction packet crosses the arbitration network;
//!    packet count and bytes depend on the granularity (one packet per page
//!    pair vs. one per *tuple* pair — the §3.3 distinction).
//! 4. **Execute** — the processor runs the kernel; service time is
//!    `bytes/rate + tuples·per_tuple + overhead`.
//! 5. **Emit** — result tuples fill the instruction's output page buffer;
//!    full pages cross the distribution network into the disk cache and are
//!    delivered to the parent instruction's page table (or the query result).

use std::collections::{HashMap, VecDeque};

use df_obs::{IntervalSeries, Path as ObsPath};
use df_query::{apply_write, stage_write, ExecParams, Firing, Graph, QueryTree};
use df_relalg::{Catalog, Page, Relation, Result, TupleBuf};
use df_sim::stats::ByteCounter;
use df_sim::{Duration, EventQueue, Resource, SimTime};
use df_storage::{DiskCache, MassStorage, PageId, PageMap, PageStore, PageTable};

use crate::allocation::AllocationStrategy;
use crate::granularity::Granularity;
use crate::instr::{base_relations, firing, is_intermediate, parent, root_schema, InstrId};
use crate::metrics::{InstructionStats, Metrics};
use crate::params::MachineParams;

/// One schedulable piece of work for an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkUnit {
    /// Apply a streaming unary kernel to one page.
    Single(PageId),
    /// Nested-loops sweep: hold outer page `outer` (an index into the
    /// instruction's outer cursor list) and stream inner pages
    /// `start..start+len` past it. This mirrors the paper's §4.2 join
    /// protocol, where an IP keeps its current outer page while inner pages
    /// are broadcast to it, so the outer page is staged once per sweep
    /// instead of once per page pair.
    Sweep {
        outer: usize,
        start: usize,
        len: usize,
    },
    /// Run one hash bucket of a whole-relation finalizer over all operand
    /// pages (`bucket < MachineParams::dedup_buckets`; with one bucket this
    /// is the serial blocking operator).
    Final { bucket: u64 },
}

/// Simulation events.
#[derive(Debug)]
enum Event {
    /// A processor finished a work unit; `results` were computed at dispatch
    /// (the data path is exact; only the *timing* is simulated). The batch
    /// holds encoded images — the zero-copy path never decodes them.
    UnitDone {
        instr: InstrId,
        proc: usize,
        results: TupleBuf,
    },
    /// A produced page has landed in the cache and is registered with its
    /// consumer (or the query result set for roots).
    PageDelivered {
        instr: InstrId,
        operand: usize,
        page: PageId,
    },
    /// A producer announced it will emit no more pages into this operand.
    StreamComplete { instr: InstrId, operand: usize },
    /// A root instruction's last output page has been delivered.
    QueryDone { query: usize },
}

/// Per-processor scheduling state.
#[derive(Debug, Clone)]
struct Proc {
    busy_until: SimTime,
    free_cells: usize,
}

/// Mutable per-instruction state.
struct InstrState {
    operands: Vec<PageTable>,
    pending: VecDeque<WorkUnit>,
    /// Pairwise kernels only: per outer page, (page, inner pages consumed).
    pair_cursors: Vec<(PageId, usize)>,
    /// Outer indices with unconsumed inner pages, FIFO.
    ready_outers: VecDeque<usize>,
    /// Whether each outer index is currently queued in `ready_outers`.
    outer_queued: Vec<bool>,
    /// Broadcast-join state: when each outer page became resident at its
    /// processor (staged once, held across sweeps). `None` = not yet staged.
    outer_avail: Vec<Option<SimTime>>,
    /// Broadcast-join state: when each inner page was broadcast to the
    /// participating processors. `None` = not yet broadcast.
    inner_avail: Vec<Option<SimTime>>,
    units_generated: u64,
    units_done: u64,
    in_flight: usize,
    out_buffer: Option<Page>,
    final_issued: bool,
    finished: bool,
    last_delivery: SimTime,
    stats: InstructionStats,
}

/// The machine. Construct with [`Machine::new`], run with [`Machine::run`].
pub struct Machine {
    params: MachineParams,
    granularity: Granularity,
    strategy: AllocationStrategy,
    pub(crate) graph: Graph,

    store: PageStore,
    disk: MassStorage,
    cache: DiskCache,
    net_arb: Resource,
    net_dist: Resource,
    procs: Vec<Proc>,
    /// Time at which each page's latest cache insert completes (a reader at
    /// an earlier instant waits for it); a page without one is readable at
    /// any time.
    page_avail: PageMap<SimTime>,

    states: Vec<InstrState>,
    depth: Vec<usize>,
    queue: EventQueue<Event>,
    rr_cursor: usize,
    /// Reused by [`Machine::dispatch_ready`]: the instructions with ready
    /// work, as `(instr, in_flight, depth)`, in ascending instruction id.
    candidates: Vec<(usize, usize, usize)>,
    /// Reused by [`Machine::dispatch_unit`]: the unit's operand pages.
    unit_pages: Vec<PageId>,

    arb_traffic: ByteCounter,
    dist_traffic: ByteCounter,
    arb_series: IntervalSeries,
    dist_series: IntervalSeries,
    proc_busy: Duration,
    units_dispatched: u64,
    query_completions: Vec<Option<SimTime>>,
    results: Vec<Vec<PageId>>,
}

impl Machine {
    /// Compile `queries` against `db` and build a machine.
    ///
    /// # Errors
    /// Propagates query validation errors.
    pub fn new(
        db: &Catalog,
        queries: &[QueryTree],
        params: MachineParams,
        granularity: Granularity,
        strategy: AllocationStrategy,
    ) -> Result<Machine> {
        params.validate();
        let graph = Graph::per_query(db, queries, params.transfer)?;
        // Every instruction's output page must hold at least one tuple.
        for cell in &graph.cells {
            Page::new(cell.node().out_schema.clone(), params.page_size)?;
        }

        let mut store = PageStore::new();
        let mut disk = MassStorage::new(params.disk.clone());
        // Load every referenced base relation onto mass storage once, in
        // name order.
        let mut base_pages: HashMap<&str, Vec<PageId>> = HashMap::new();
        for name in base_relations(&graph) {
            let ids = store.load_relation(db.require(name)?);
            for &id in &ids {
                disk.preload(id);
            }
            base_pages.insert(name, ids);
        }

        // Depth from root per instruction (for the RootFirst strategy).
        let mut depth = vec![0usize; graph.cells.len()];
        for id in (0..graph.cells.len()).rev() {
            if let Some((parent, _)) = parent(&graph, id) {
                depth[id] = depth[parent] + 1;
            }
        }

        // Source operands, fed through the normal delivery path below.
        let mut feeds: Vec<(InstrId, usize, Vec<PageId>)> = Vec::new();
        for (id, cell) in graph.cells.iter().enumerate() {
            for (slot, (_, source)) in cell.operands().enumerate() {
                if let Some(name) = source {
                    feeds.push((id, slot, base_pages[name].clone()));
                }
            }
        }

        // Initial operand tables: empty until the feeds below.
        let mut states: Vec<InstrState> = (graph.cells.iter())
            .map(|cell| InstrState {
                operands: (cell.operands())
                    .map(|(schema, _)| PageTable::new(schema.clone()))
                    .collect(),
                pending: VecDeque::new(),
                pair_cursors: Vec::new(),
                ready_outers: VecDeque::new(),
                outer_queued: Vec::new(),
                outer_avail: Vec::new(),
                inner_avail: Vec::new(),
                units_generated: 0,
                units_done: 0,
                in_flight: 0,
                out_buffer: None,
                final_issued: false,
                finished: false,
                last_delivery: SimTime::ZERO,
                stats: InstructionStats {
                    op_name: cell.op_name(),
                    query: cell.owner,
                    ..InstructionStats::default()
                },
            })
            .collect();

        let n_queries = graph.reads.len();
        let processors = params.processors;
        let channels = params.net_channels();
        let cache = DiskCache::new(params.cache.clone());
        let mut machine = Machine {
            granularity,
            strategy,
            store,
            disk,
            cache,
            net_arb: Resource::new("arbitration-net", channels),
            net_dist: Resource::new("distribution-net", channels),
            procs: vec![
                Proc {
                    busy_until: SimTime::ZERO,
                    free_cells: params.cells_per_processor,
                };
                processors
            ],
            page_avail: PageMap::new(),
            states: Vec::new(),
            depth,
            queue: EventQueue::new(),
            rr_cursor: 0,
            candidates: Vec::new(),
            unit_pages: Vec::new(),
            arb_traffic: ByteCounter::new(),
            dist_traffic: ByteCounter::new(),
            arb_series: IntervalSeries::default(),
            dist_series: IntervalSeries::default(),
            proc_busy: Duration::ZERO,
            units_dispatched: 0,
            query_completions: vec![None; n_queries],
            results: vec![Vec::new(); n_queries],
            params,
            graph,
        };

        // Feed source pages through the normal delivery path at t = 0, then
        // mark those streams complete. This generates the initial work units
        // with exactly the same code as runtime deliveries.
        std::mem::swap(&mut machine.states, &mut states);
        drop(states);
        for (iid, slot, pages) in feeds {
            for pid in pages {
                machine.register_page(iid, slot, pid);
            }
            machine.complete_stream(iid, slot);
        }
        Ok(machine)
    }

    /// The granularity this machine runs at.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Run to completion, returning per-query result relations and metrics.
    ///
    /// # Panics
    /// Panics if the simulation wedges (no events pending but instructions
    /// unfinished) — an internal scheduling bug, not a user condition.
    pub fn run(mut self) -> (Vec<Relation>, Metrics) {
        self.dispatch_ready();
        while let Some((now, event)) = self.queue.pop() {
            match event {
                Event::UnitDone {
                    instr,
                    proc,
                    results,
                } => self.on_unit_done(now, instr, proc, results),
                Event::PageDelivered {
                    instr,
                    operand,
                    page,
                } => {
                    self.register_page(instr, operand, page);
                    self.states[instr].last_delivery = now;
                }
                Event::StreamComplete { instr, operand } => {
                    self.complete_stream(instr, operand);
                }
                Event::QueryDone { query } => {
                    self.query_completions[query] = Some(now);
                }
            }
            self.dispatch_ready();
        }

        for (iid, st) in self.states.iter().enumerate() {
            assert!(
                st.finished,
                "simulation wedged: instruction {iid} ({}) unfinished \
                 ({} pending, {} in flight, {}/{} units)",
                self.graph.cells[iid].op_name(),
                st.pending.len(),
                st.in_flight,
                st.units_done,
                st.units_generated,
            );
        }

        self.finalize()
    }

    // ------------------------------------------------------------ delivery

    /// Register a page in an instruction's operand table and derive new
    /// work units from it.
    fn register_page(&mut self, iid: InstrId, slot: usize, page: PageId) {
        self.states[iid].operands[slot].push(page);
        match firing(&self.graph.cells[iid]) {
            Firing::PerPage => {
                self.states[iid].pending.push_back(WorkUnit::Single(page));
                self.states[iid].units_generated += 1;
            }
            Firing::PairSweep => {
                let st = &mut self.states[iid];
                if slot == 0 {
                    // New outer page: it has work iff inner pages exist.
                    let idx = st.pair_cursors.len();
                    st.pair_cursors.push((page, 0));
                    st.outer_queued.push(false);
                    st.outer_avail.push(None);
                    if !st.operands[1].is_empty() {
                        st.ready_outers.push_back(idx);
                        st.outer_queued[idx] = true;
                    }
                } else {
                    st.inner_avail.push(None);
                    // New inner page: every outer behind the new length has
                    // work again.
                    let inner_len = st.operands[1].len();
                    for idx in 0..st.pair_cursors.len() {
                        if !st.outer_queued[idx] && st.pair_cursors[idx].1 < inner_len {
                            st.ready_outers.push_back(idx);
                            st.outer_queued[idx] = true;
                        }
                    }
                }
            }
            Firing::Complete | Firing::Source => {} // waits for completeness
        }
    }

    /// Mark one operand stream complete; issue finalizer units and check
    /// for (possibly zero-work) completion.
    fn complete_stream(&mut self, iid: InstrId, slot: usize) {
        self.states[iid].operands[slot].mark_complete();
        if firing(&self.graph.cells[iid]) == Firing::Complete
            && !self.states[iid].final_issued
            && self.states[iid].operands.iter().all(PageTable::is_complete)
        {
            self.states[iid].final_issued = true;
            // §5 extension: hash-partition the blocking operator into
            // parallel bucket units (1 bucket = the paper's serial case).
            let buckets = self.params.dedup_buckets.max(1) as u64;
            for bucket in 0..buckets {
                self.states[iid]
                    .pending
                    .push_back(WorkUnit::Final { bucket });
                self.states[iid].units_generated += 1;
            }
        }
        self.check_completion(iid);
    }

    // ------------------------------------------------------------ dispatch

    /// Whether `iid` may fire units under the configured granularity.
    fn instr_ready(&self, iid: InstrId) -> bool {
        match self.granularity {
            // §3.1: enabled only when every source operand is complete.
            Granularity::Relation => self.states[iid].operands.iter().all(PageTable::is_complete),
            // §3.2/§3.3: a queued unit means ≥1 page of each operand exists.
            Granularity::Page | Granularity::Tuple => true,
        }
    }

    /// Dispatch as many (unit, processor) pairs as possible.
    fn dispatch_ready(&mut self) {
        let mut candidates = std::mem::take(&mut self.candidates);
        // Processor with a free memory cell, earliest-free first.
        while let Some(pid) = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.free_cells > 0)
            .min_by_key(|(i, p)| (p.busy_until, *i))
            .map(|(i, _)| i)
        {
            // Instructions with ready work.
            candidates.clear();
            candidates.extend(
                (self.states.iter().enumerate())
                    .filter(|(iid, st)| {
                        !st.finished
                            && (!st.pending.is_empty() || !st.ready_outers.is_empty())
                            && self.instr_ready(*iid)
                    })
                    .map(|(iid, st)| (iid, st.in_flight, self.depth[iid])),
            );
            if candidates.is_empty() {
                break;
            }
            let iid = self.strategy.choose(&candidates, &mut self.rr_cursor);
            let unit = self.next_unit(iid);
            self.dispatch_unit(pid, iid, unit);
        }
        self.candidates = candidates;
    }

    /// Take the next work unit for `iid`: an explicit pending unit, or a
    /// synthesized nested-loops sweep (lazy generation lets consecutive
    /// inner-page arrivals coalesce into one sweep, like the §4.2 IP that
    /// keeps its outer page while inner pages stream past).
    fn next_unit(&mut self, iid: InstrId) -> WorkUnit {
        if let Some(unit) = self.states[iid].pending.pop_front() {
            return unit;
        }
        let max_batch = self.params.max_inner_batch.max(1);
        let st = &mut self.states[iid];
        let outer = st
            .ready_outers
            .pop_front()
            .expect("candidate instruction has pair work");
        st.outer_queued[outer] = false;
        let inner_len = st.operands[1].len();
        let cursor = st.pair_cursors[outer].1;
        debug_assert!(cursor < inner_len, "queued outer has no inner work");
        let len = (inner_len - cursor).min(max_batch);
        st.pair_cursors[outer].1 = cursor + len;
        if st.pair_cursors[outer].1 < inner_len {
            st.ready_outers.push_back(outer);
            st.outer_queued[outer] = true;
        }
        st.units_generated += 1;
        WorkUnit::Sweep {
            outer,
            start: cursor,
            len,
        }
    }

    /// Stage operand pages, charge network + processor time, execute the
    /// kernel, and schedule completion.
    fn dispatch_unit(&mut self, pid: usize, iid: InstrId, unit: WorkUnit) {
        let now = self.queue.now();
        self.units_dispatched += 1;
        self.states[iid].in_flight += 1;
        if self.states[iid].stats.first_fire.is_none() {
            self.states[iid].stats.first_fire = Some(now);
        }

        // 1. Stage operand pages (cache hit / disk fetch). A hash-
        // partitioned finalizer bucket receives only its 1/B share of the
        // input stream (producers route tuples by hash), modelled as every
        // B-th page; the kernel still *reads* the full input from the page
        // store so the data path stays exact.
        let mut operand_pages = std::mem::take(&mut self.unit_pages);
        operand_pages.clear();
        let st = &self.states[iid];
        match unit {
            WorkUnit::Single(p) => operand_pages.push(p),
            WorkUnit::Sweep { outer, start, len } => {
                operand_pages.push(st.pair_cursors[outer].0);
                operand_pages.extend_from_slice(&st.operands[1].pages()[start..start + len]);
            }
            WorkUnit::Final { bucket } => {
                let buckets = self.params.dedup_buckets.max(1);
                operand_pages.extend(
                    (st.operands.iter())
                        .flat_map(|t| t.pages().iter().copied())
                        .skip(bucket as usize)
                        .step_by(buckets),
                );
            }
        }
        // Broadcast joins (requirement 4, §4.0): each sweep operand page is
        // staged out of the hierarchy once and then held at the processors,
        // so re-uses cost nothing and cross no network. Tuple-level
        // granularity never broadcasts (§3.3 charges every pair).
        let broadcast = matches!(unit, WorkUnit::Sweep { .. })
            && self.params.broadcast_join
            && self.granularity != Granularity::Tuple;
        let mut data_ready = now;
        // Pages (and their bytes) that cross the arbitration network for a
        // broadcast unit.
        let (mut net_pages, mut net_bytes) = (0, 0);
        if broadcast {
            let WorkUnit::Sweep { outer, start, len } = unit else {
                unreachable!("broadcast only set for sweeps")
            };
            let outer_page = self.states[iid].pair_cursors[outer].0;
            match self.states[iid].outer_avail[outer] {
                Some(t) => data_ready = data_ready.max(t),
                None => {
                    let t = self.stage_page(now, outer_page);
                    self.retire_if_intermediate(iid, 0, outer_page);
                    self.states[iid].outer_avail[outer] = Some(t);
                    net_pages += 1;
                    net_bytes += self.store.wire_bytes(outer_page);
                    data_ready = data_ready.max(t);
                }
            }
            for i in start..start + len {
                let inner_page = self.states[iid].operands[1].pages()[i];
                match self.states[iid].inner_avail[i] {
                    Some(t) => data_ready = data_ready.max(t),
                    None => {
                        let t = self.stage_page(now, inner_page);
                        self.retire_if_intermediate(iid, 1, inner_page);
                        self.states[iid].inner_avail[i] = Some(t);
                        net_pages += 1;
                        net_bytes += self.store.wire_bytes(inner_page);
                        data_ready = data_ready.max(t);
                    }
                }
            }
        } else {
            for &pid_ in &operand_pages {
                let t = self.stage_page(now, pid_);
                data_ready = data_ready.max(t);
            }
            // A streaming unary unit consumes its page exactly once:
            // reclaim intermediate pages immediately.
            if let WorkUnit::Single(p) = unit {
                self.retire_if_intermediate(iid, 0, p);
            }
        }

        // 2. Gather sizes for accounting, in one pass. For sweeps the inner
        // pages are collapsed into one logical operand (n outer tuples vs m
        // total inner tuples), which is exactly what the §3.3 tuple-level
        // formula n·m·(200+c) needs; a finalizer's tuples are only summed
        // (its cost is their total, and it ships whole pages).
        let arity = if matches!(unit, WorkUnit::Sweep { .. }) {
            2
        } else {
            1
        };
        let (mut counts, mut widths, mut payload) = ([0usize; 2], [0usize; 2], 0);
        for (i, &p) in operand_pages.iter().enumerate() {
            let page = self.store.get(p);
            let slot = i.min(arity - 1);
            counts[slot] += page.len();
            if i < arity {
                widths[slot] = page.schema().tuple_width();
            }
            payload += page.wire_bytes();
        }
        let (tuple_counts, tuple_widths) = (&counts[..arity], &widths[..arity]);

        // 3. Arbitration-network transfer.
        let (packets, pkt_payload) = match unit {
            // Finalizers always ship whole pages (one packet per page):
            // tuple-level accounting is defined for the paper's streaming
            // and join packets, not for blocking set operators.
            WorkUnit::Final { .. } => (operand_pages.len().max(1), payload),
            _ if broadcast => (net_pages, net_bytes),
            _ => self.granularity.unit_packets(
                tuple_counts,
                tuple_widths,
                operand_pages.len(),
                payload,
            ),
        };
        let net_done = if packets == 0 {
            data_ready // everything already resident at the processors
        } else {
            let wire_bytes = pkt_payload + packets * self.params.packet_overhead;
            self.arb_traffic.bytes += wire_bytes as u64;
            self.arb_traffic.transfers += packets as u64;
            self.observe(data_ready, ObsPath::Arbitration, wire_bytes);
            let net_service = self.params.cost.net_time(wire_bytes, packets);
            let (_, done) = self.net_arb.submit(data_ready, net_service);
            done
        };

        // 4. Execute the kernel now (exact data path, zero-copy: images are
        // compared and memcpy'd, never decoded), schedule the timing.
        let node = self.graph.cells[iid].node();
        let (kernel, out_schema) = (&node.kernel, &node.out_schema);
        let store = &self.store;
        let results = match unit {
            WorkUnit::Final { bucket } => {
                // The kernel reads the *complete* inputs from the store
                // (the bucket filter selects its share of the tuples).
                let inputs: Vec<Vec<&Page>> = self.states[iid]
                    .operands
                    .iter()
                    .map(|t| t.pages().iter().map(|&p| self.store.get(p)).collect())
                    .collect();
                let buckets = self.params.dedup_buckets.max(1) as u64;
                kernel.run_final_bucket_raw(&inputs, bucket, buckets, out_schema)
            }
            WorkUnit::Sweep { .. } => {
                let mut out = TupleBuf::new(out_schema.clone());
                let inner = operand_pages[1..].iter().map(|&p| store.get(p));
                kernel.run_sweep_raw_into(store.get(operand_pages[0]), inner, true, &mut out);
                out
            }
            WorkUnit::Single(p) => kernel.run_unit_raw(&[store.get(p)], out_schema),
        };
        self.unit_pages = operand_pages;

        let tuple_ops = kernel.tuple_ops(tuple_counts);
        let service = self.params.cost.compute_time(payload, tuple_ops);
        let proc = &mut self.procs[pid];
        let start = net_done.max(proc.busy_until);
        let done = start + service;
        proc.busy_until = done;
        proc.free_cells -= 1;
        self.proc_busy += service;

        self.queue.schedule(
            done,
            Event::UnitDone {
                instr: iid,
                proc: pid,
                results,
            },
        );
    }

    /// Make a page readable by a processor at or after `now`; returns when
    /// its bytes are available. Cache hit → port read. Miss → disk read,
    /// then cache insert (possibly spilling dirty LRU pages to disk).
    fn stage_page(&mut self, now: SimTime, page: PageId) -> SimTime {
        let bytes = self.store.wire_bytes(page);
        if self.cache.contains(page) {
            let earliest = self
                .page_avail
                .get(page)
                .copied()
                .unwrap_or(SimTime::ZERO)
                .max(now);
            let (_, done) = self.cache.read(earliest, page);
            done
        } else {
            debug_assert!(self.disk.contains(page), "page neither cached nor on disk");
            let (_, read_done) = self.disk.read(now, page, bytes);
            let (_, ins_done, evicted) = self.cache.insert(read_done, 0, page, bytes);
            self.page_avail.insert(page, ins_done);
            self.spill(ins_done, &evicted);
            ins_done
        }
    }

    /// Drop a fully consumed *intermediate* page from the cache and disk
    /// (its contents remain in the page store for the exact data path).
    /// Base-relation pages are left alone: they are clean, stay on disk,
    /// and evicting them costs nothing.
    fn retire_if_intermediate(&mut self, iid: InstrId, slot: usize, page: PageId) {
        if is_intermediate(&self.graph.cells[iid], slot) {
            self.cache.discard(page);
            self.disk.discard(page);
            self.page_avail.remove(page);
        }
    }

    /// Write evicted dirty pages (not disk-resident) back to mass storage.
    fn spill(&mut self, now: SimTime, evicted: &[PageId]) {
        for &victim in evicted {
            self.page_avail.remove(victim);
            if !self.disk.contains(victim) {
                let bytes = self.store.wire_bytes(victim);
                self.disk.write(now, victim, bytes);
            }
        }
    }

    // ---------------------------------------------------------- completion

    fn on_unit_done(&mut self, now: SimTime, iid: InstrId, pid: usize, mut results: TupleBuf) {
        self.procs[pid].free_cells += 1;
        {
            let st = &mut self.states[iid];
            st.in_flight -= 1;
            st.units_done += 1;
            st.stats.units += 1;
            st.stats.tuples_out += results.len() as u64;
        }
        // Drain result images into the output buffer; emit full pages.
        // Each drain is one memcpy of whole images — no tuple is decoded.
        let page_size = self.params.page_size;
        while !results.is_empty() {
            let schema = &self.graph.cells[iid].node().out_schema;
            let buf = self.states[iid].out_buffer.get_or_insert_with(|| {
                Page::new(schema.clone(), page_size).expect("output page size validated")
            });
            results.drain_into(buf);
            if buf.is_full() {
                let full = self.states[iid].out_buffer.take().expect("just filled");
                self.emit_page(now, iid, full);
            }
        }
        self.check_completion(iid);
    }

    /// Record a network transfer into the per-interval demand series and,
    /// when a tracer is installed, into its per-path counters — both stamped
    /// with *simulated* time, so traced totals equal the [`ByteCounter`]s
    /// exactly.
    fn observe(&mut self, now: SimTime, path: ObsPath, bytes: usize) {
        let t = now.as_nanos();
        let series = match path {
            ObsPath::Arbitration => &mut self.arb_series,
            ObsPath::Distribution => &mut self.dist_series,
            _ => return,
        };
        series.record(t, bytes as u64);
        if let Some(tr) = self.params.trace.as_deref() {
            tr.transfer_at(t, path, u32::MAX, bytes as u64);
        }
    }

    /// Ship a produced page through the distribution network into the cache
    /// and deliver it to the parent (or the query result set).
    fn emit_page(&mut self, now: SimTime, iid: InstrId, page: Page) {
        let tuples = page.len();
        let width = page.schema().tuple_width();
        let bytes = page.wire_bytes();
        let pid = self.store.put(page);
        self.states[iid].stats.pages_out += 1;

        let (packets, payload) = match self.granularity {
            Granularity::Relation | Granularity::Page => (1, bytes),
            Granularity::Tuple => (tuples.max(1), tuples * width),
        };
        let wire = payload + packets * self.params.packet_overhead;
        self.dist_traffic.bytes += wire as u64;
        self.dist_traffic.transfers += packets as u64;
        self.observe(now, ObsPath::Distribution, wire);
        let (_, net_done) = self
            .net_dist
            .submit(now, self.params.cost.net_time(wire, packets));

        let (_, ins_done, evicted) = self.cache.insert(net_done, 0, pid, bytes);
        self.page_avail.insert(pid, ins_done);
        self.spill(ins_done, &evicted);

        match parent(&self.graph, iid) {
            Some((parent, slot)) => {
                self.queue.schedule(
                    ins_done,
                    Event::PageDelivered {
                        instr: parent,
                        operand: slot,
                        page: pid,
                    },
                );
            }
            None => {
                let q = self.graph.cells[iid].owner;
                self.results[q].push(pid);
            }
        }
        self.states[iid].last_delivery = self.states[iid].last_delivery.max(ins_done);
    }

    /// If `iid` has no more work coming, flush its output and propagate
    /// completion downstream.
    fn check_completion(&mut self, iid: InstrId) {
        let st = &self.states[iid];
        if st.finished {
            return;
        }
        // Cheapest tests first: most calls find units still in flight.
        let inner_len = st.operands.get(1).map_or(0, PageTable::len);
        let done = st.in_flight == 0
            && st.pending.is_empty()
            && st.ready_outers.is_empty()
            && st.units_done == st.units_generated
            && (firing(&self.graph.cells[iid]) != Firing::Complete || st.final_issued)
            && st.operands.iter().all(PageTable::is_complete)
            && (st.pair_cursors.iter()).all(|&(_, cursor)| cursor == inner_len);
        if !done {
            return;
        }

        let now = self.queue.now();
        // Flush the partial output page, if any.
        if let Some(partial) = self.states[iid].out_buffer.take() {
            if !partial.is_empty() {
                self.emit_page(now, iid, partial);
            }
        }
        self.states[iid].finished = true;
        self.states[iid].stats.completed = Some(now);

        // Reclaim intermediate operand pages: they will never be read again.
        let intermediates: Vec<PageId> = (self.graph.cells[iid].operands())
            .zip(&self.states[iid].operands)
            .filter(|((_, source), _)| source.is_none())
            .flat_map(|(_, table)| table.pages().iter().copied())
            .collect();
        for p in intermediates {
            self.cache.discard(p);
            self.disk.discard(p);
            self.page_avail.remove(p);
        }

        let after_delivery = self.states[iid].last_delivery.max(now);
        match parent(&self.graph, iid) {
            Some((parent, slot)) => {
                self.queue.schedule(
                    after_delivery,
                    Event::StreamComplete {
                        instr: parent,
                        operand: slot,
                    },
                );
            }
            None => {
                let q = self.graph.cells[iid].owner;
                self.queue
                    .schedule(after_delivery, Event::QueryDone { query: q });
            }
        }
    }

    // ------------------------------------------------------------ wrap-up

    fn finalize(self) -> (Vec<Relation>, Metrics) {
        let elapsed = self
            .query_completions
            .iter()
            .map(|t| t.expect("all queries completed"))
            .max()
            .unwrap_or(SimTime::ZERO);

        let relations: Vec<Relation> = (0..self.results.len())
            .map(|q| {
                let schema = root_schema(&self.graph, q).clone();
                self.store
                    .materialize(
                        &format!("q{q}_result"),
                        schema,
                        self.params.page_size,
                        &self.results[q],
                    )
                    .expect("result pages conform to the root schema")
            })
            .collect();

        let mut disk_read = ByteCounter::new();
        disk_read.merge(&self.disk.read_traffic);
        let mut disk_write = ByteCounter::new();
        disk_write.merge(&self.disk.write_traffic);
        let mut cache_in = ByteCounter::new();
        cache_in.merge(&self.cache.in_traffic);
        let mut cache_out = ByteCounter::new();
        cache_out.merge(&self.cache.out_traffic);

        let metrics = Metrics {
            elapsed,
            arbitration: self.arb_traffic,
            distribution: self.dist_traffic,
            disk_read,
            disk_write,
            cache_in,
            cache_out,
            proc_busy: self.proc_busy,
            processors: self.params.processors,
            units_dispatched: self.units_dispatched,
            query_completions: self
                .query_completions
                .iter()
                .map(|t| t.expect("all queries completed"))
                .collect(),
            instructions: self.states.iter().map(|s| s.stats.clone()).collect(),
            arbitration_series: self.arb_series.clone(),
            distribution_series: self.dist_series.clone(),
        };
        (relations, metrics)
    }

    /// Apply the batch's updates to `db` in batch order, each by the
    /// served write path: [`stage_write`] reads the catalog as the earlier
    /// updates left it, [`apply_write`] applies the result. `updates` holds
    /// each query's tree if it updates (`None` if read-only), and each
    /// update query's entry in `results` becomes the relation its write
    /// returned, packed into pages of the size the machine's result used.
    /// So a delete that follows an append to its target reports, and
    /// removes, the tuples the oracle's `execute` does in batch order.
    pub fn apply_updates(
        db: &mut Catalog,
        updates: &[Option<QueryTree>],
        results: &mut [Relation],
    ) -> Result<()> {
        for (update, result) in updates.iter().zip(results) {
            if let Some(tree) = update {
                let params = ExecParams {
                    page_size: result.page_size(),
                };
                let delta = stage_write(db, tree, &params)?;
                *result = apply_write(db, delta)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_query::{execute_readonly, parse_query, ExecParams};
    use df_relalg::{DataType, Schema, Tuple, Value};

    fn db() -> Catalog {
        let mut db = Catalog::new();
        let s = Schema::build()
            .attr("k", DataType::Int)
            .attr("v", DataType::Int)
            .finish()
            .unwrap();
        for (name, n) in [("a", 30i64), ("b", 20i64)] {
            db.insert(
                Relation::from_tuples(
                    name,
                    s.clone(),
                    16 + 16 * 4, // 4 tuples per page
                    (0..n).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 5)])),
                )
                .unwrap(),
            )
            .unwrap();
        }
        db
    }

    fn small_params() -> MachineParams {
        let mut p = MachineParams::with_processors(4);
        p.page_size = 16 + 16 * 4;
        p.cache.frames = 16;
        p
    }

    fn run_one(db: &Catalog, q: &str, g: Granularity) -> (Relation, Metrics) {
        let tree = parse_query(db, q).unwrap();
        let m = Machine::new(
            db,
            &[tree],
            small_params(),
            g,
            AllocationStrategy::default(),
        )
        .unwrap();
        let (mut rels, metrics) = m.run();
        (rels.remove(0), metrics)
    }

    #[test]
    fn restrict_matches_oracle_at_all_granularities() {
        let db = db();
        let q = "(restrict (scan a) (> k 10))";
        let oracle =
            execute_readonly(&db, &parse_query(&db, q).unwrap(), &ExecParams::default()).unwrap();
        for g in Granularity::ALL {
            let (out, m) = run_one(&db, q, g);
            assert!(out.same_contents(&oracle), "granularity {g}");
            assert!(m.elapsed > SimTime::ZERO);
            assert_eq!(m.units_dispatched, 8); // 30 tuples / 4 per page
        }
    }

    #[test]
    fn join_matches_oracle_at_all_granularities() {
        let db = db();
        let q = "(join (restrict (scan a) (< k 20)) (scan b) (= v k))";
        let oracle =
            execute_readonly(&db, &parse_query(&db, q).unwrap(), &ExecParams::default()).unwrap();
        assert!(oracle.num_tuples() > 0);
        for g in Granularity::ALL {
            let (out, _) = run_one(&db, q, g);
            assert!(out.same_contents(&oracle), "granularity {g}");
        }
    }

    #[test]
    fn blocking_ops_match_oracle() {
        let db = db();
        for q in [
            "(project-distinct (scan a) (v))",
            "(union (restrict (scan a) (< k 9)) (restrict (scan a) (> k 3)))",
            "(difference (scan a) (restrict (scan a) (< k 25)))",
        ] {
            let oracle =
                execute_readonly(&db, &parse_query(&db, q).unwrap(), &ExecParams::default())
                    .unwrap();
            let (out, _) = run_one(&db, q, Granularity::Page);
            assert!(out.same_contents(&oracle), "query {q}");
        }
    }

    #[test]
    fn page_level_beats_relation_level_on_pipelines() {
        // A two-stage pipeline (restrict feeding a join) under cache
        // pressure: page level must not be slower.
        let db = db();
        let q = "(join (restrict (scan a) (< k 25)) (restrict (scan b) (> k 2)) (= v k))";
        let (_, rel) = run_one(&db, q, Granularity::Relation);
        let (_, page) = run_one(&db, q, Granularity::Page);
        assert!(
            page.elapsed <= rel.elapsed,
            "page {} vs relation {}",
            page.elapsed,
            rel.elapsed
        );
    }

    #[test]
    fn tuple_level_floods_the_network() {
        let db = db();
        let q = "(join (scan a) (scan b) (= v k))";
        let (_, page) = run_one(&db, q, Granularity::Page);
        let (_, tuple) = run_one(&db, q, Granularity::Tuple);
        assert!(
            tuple.arbitration.bytes > 3 * page.arbitration.bytes,
            "tuple {} vs page {}",
            tuple.arbitration.bytes,
            page.arbitration.bytes
        );
        assert!(tuple.arbitration.transfers > page.arbitration.transfers);
    }

    #[test]
    fn deterministic_metrics() {
        let db = db();
        let q = "(join (scan a) (scan b) (= v k))";
        let (r1, m1) = run_one(&db, q, Granularity::Page);
        let (r2, m2) = run_one(&db, q, Granularity::Page);
        assert_eq!(m1.elapsed, m2.elapsed);
        assert_eq!(m1.arbitration.bytes, m2.arbitration.bytes);
        assert_eq!(m1.units_dispatched, m2.units_dispatched);
        assert!(r1.same_contents(&r2));
    }

    #[test]
    fn multi_query_batch_completes_each_query() {
        let db = db();
        let q1 = parse_query(&db, "(restrict (scan a) (> k 5))").unwrap();
        let q2 = parse_query(&db, "(restrict (scan b) (< k 5))").unwrap();
        let m = Machine::new(
            &db,
            &[q1, q2],
            small_params(),
            Granularity::Page,
            AllocationStrategy::default(),
        )
        .unwrap();
        let (rels, metrics) = m.run();
        assert_eq!(rels.len(), 2);
        assert_eq!(rels[0].num_tuples(), 24);
        assert_eq!(rels[1].num_tuples(), 5);
        assert_eq!(metrics.query_completions.len(), 2);
    }

    #[test]
    fn more_processors_never_slower() {
        let db = db();
        let q = "(join (scan a) (scan b) (= v k))";
        let tree = parse_query(&db, q).unwrap();
        let mut last = None;
        for procs in [1usize, 2, 8] {
            let mut p = small_params();
            p.processors = procs;
            let m = Machine::new(
                &db,
                std::slice::from_ref(&tree),
                p,
                Granularity::Page,
                AllocationStrategy::default(),
            )
            .unwrap();
            let (_, metrics) = m.run();
            if let Some(prev) = last {
                assert!(
                    metrics.elapsed <= prev,
                    "{procs} processors slower than fewer"
                );
            }
            last = Some(metrics.elapsed);
        }
    }

    #[test]
    fn empty_result_query_completes() {
        let db = db();
        let (out, m) = run_one(&db, "(restrict (scan a) (> k 999))", Granularity::Page);
        assert!(out.is_empty());
        assert!(m.elapsed > SimTime::ZERO);
    }

    #[test]
    fn parallel_dedup_matches_serial_and_oracle() {
        // §5 extension: hash-partitioned blocking operators must agree with
        // both the serial finalizer and the oracle at any bucket count.
        let db = db();
        for q in [
            "(project-distinct (scan a) (v))",
            "(union (restrict (scan a) (< k 9)) (restrict (scan a) (> k 3)))",
            "(difference (scan a) (restrict (scan a) (< k 25)))",
        ] {
            let tree = parse_query(&db, q).unwrap();
            let oracle = execute_readonly(&db, &tree, &ExecParams::default()).unwrap();
            for buckets in [1usize, 2, 3, 8] {
                let mut p = small_params();
                p.dedup_buckets = buckets;
                let m = Machine::new(
                    &db,
                    std::slice::from_ref(&tree),
                    p,
                    Granularity::Page,
                    AllocationStrategy::default(),
                )
                .unwrap();
                let (rels, metrics) = m.run();
                assert!(rels[0].same_contents(&oracle), "{q} with {buckets} buckets");
                // One finalizer unit per bucket was dispatched.
                assert!(metrics.units_dispatched >= buckets as u64);
            }
        }
    }

    #[test]
    fn parallel_dedup_shortens_the_blocking_tail() {
        let db = db();
        let tree = parse_query(&db, "(project-distinct (scan a) (v))").unwrap();
        let run_with = |buckets: usize| {
            let mut p = small_params();
            p.dedup_buckets = buckets;
            let m = Machine::new(
                &db,
                std::slice::from_ref(&tree),
                p,
                Granularity::Page,
                AllocationStrategy::default(),
            )
            .unwrap();
            m.run().1.elapsed
        };
        let serial = run_with(1);
        let parallel = run_with(4);
        assert!(
            parallel <= serial,
            "4 buckets ({parallel}) slower than serial ({serial})"
        );
    }

    #[test]
    fn update_queries_apply() {
        let mut db = db();
        let tree = parse_query(&db, "(delete a (< k 10))").unwrap();
        let m = Machine::new(
            &db,
            std::slice::from_ref(&tree),
            small_params(),
            Granularity::Page,
            AllocationStrategy::default(),
        )
        .unwrap();
        let (mut rels, _) = m.run();
        assert_eq!(rels[0].num_tuples(), 10);
        Machine::apply_updates(&mut db, &[Some(tree)], &mut rels).unwrap();
        assert_eq!(rels[0].num_tuples(), 10);
        assert_eq!(db.get("a").unwrap().num_tuples(), 20);
    }
}
