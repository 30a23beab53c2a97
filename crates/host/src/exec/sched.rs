//! The scheduler: the MC/IC layer of one call. It runs the call's one
//! merged [`Graph`]: feeds the sources' pages at the start of the call,
//! routes every page a run produced to each consumer of its [`Cell`] and to
//! the result of every query rooted there, picks which cell a processor serves
//! next — for an idle helper first, then for the caller itself — and
//! contains faults: a panicked unit dooms every query that reads its cell,
//! a dead helper's run is requeued on a survivor (the caller, processor 0,
//! always survives).

use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use df_obs::{EventKind, Path, Tracer};
use df_query::{CellSpec, Firing, Graph};
use df_relalg::{Catalog, Page, Relation};

use super::cell::Cell;
use super::run::{serve_run, Run, RunDone, RunUnit};
use super::worker::Completion;
use crate::error::{HostError, HostResult};
use crate::metrics::{QueryStats, WorkerStats};
use crate::params::{HostParams, CPUS};

/// What [`Scheduler::run`] hands back on a (possibly partially failed,
/// but orderly) run.
pub(super) struct SchedulerOutcome {
    pub results: Vec<Result<Relation, HostError>>,
    pub per_query: Vec<QueryStats>,
    /// Which workers died mid-run, by id (the caller's entry never does).
    pub dead: Vec<bool>,
    /// What the caller served.
    pub caller: WorkerStats,
    /// Time spent writing join sides, and the tuples indexed or keyed.
    pub side_build: (Duration, u64),
}

pub(super) struct Scheduler<'a> {
    db: &'a Catalog,
    graph: &'a Graph,
    params: &'a HostParams,
    /// Dispatch channels, one per helper: helper `i + 1` owns entry `i`.
    work_txs: Vec<SyncSender<Arc<Run>>>,
    /// The completion channel; `None` without helpers.
    done_rx: Option<Receiver<Completion>>,
    /// What the caller, processor 0, served.
    caller: WorkerStats,
    /// The graph's cells, by id.
    cells: Vec<Cell>,
    /// Per cell, its readers not yet doomed. At zero the cell is dead: its
    /// pending work is dropped and nothing is routed to it any more.
    live_readers: Vec<usize>,
    started: Instant,
    /// Per query: the pages its root cell delivered so far, its stats, and
    /// — once it concluded — its outcome.
    result_pages: Vec<Vec<Arc<Page>>>,
    per_query: Vec<QueryStats>,
    results: Vec<Option<Result<Relation, HostError>>>,
    idle: Vec<usize>,
    /// Which workers have died, by id; entry 0, the caller, never does.
    /// Dead helpers never rejoin the idle pool.
    dead: Vec<bool>,
    /// CPUs the calling thread may run on.
    cpus: usize,
    /// The run each busy helper currently holds, kept so a dead helper's
    /// run can be requeued.
    assigned: Vec<Option<Arc<Run>>>,
    /// Global dispatch sequence number (the fault plan's unit key).
    next_seq: u64,
    finished: usize,
}

/// Trace a firing of `fired` units at cell `c`, against its owner.
fn record_fire(trace: Option<&Tracer>, spec: &CellSpec, c: usize, cell: &Cell, fired: u64) {
    if let (Some(t), true) = (trace, fired > 0) {
        let (q, pending) = (spec.owner as u32, cell.pending() as u64);
        t.record(EventKind::CellFire, q, c as u32, pending, fired);
    }
}

impl<'a> Scheduler<'a> {
    pub fn new(
        db: &'a Catalog,
        graph: &'a Graph,
        params: &'a HostParams,
        work_txs: Vec<SyncSender<Arc<Run>>>,
        done_rx: Option<Receiver<Completion>>,
    ) -> Scheduler<'a> {
        let n = graph.reads.len();
        let workers = 1 + work_txs.len();
        let join = params.join;
        let cells = (graph.cells.iter()).map(|spec| {
            let node = spec.node();
            Cell::new(node.firing, spec.operands().count(), &node.kernel, join)
        });
        Scheduler {
            db,
            graph,
            params,
            work_txs,
            done_rx,
            caller: WorkerStats::default(),
            cells: cells.collect(),
            live_readers: graph.cells.iter().map(|s| s.readers).collect(),
            started: Instant::now(),
            result_pages: vec![Vec::new(); n],
            per_query: vec![QueryStats::default(); n],
            results: (0..n).map(|_| None).collect(),
            idle: (1..workers).collect(),
            dead: vec![false; workers],
            cpus: CPUS.with(|&n| n),
            assigned: (0..workers).map(|_| None).collect(),
            next_seq: 0,
            finished: 0,
        }
    }

    /// Processors still able to serve units: the caller (entry 0, never
    /// dead) and the alive helpers.
    fn alive(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Units dispatched and not yet accounted for: the sum of the cells'
    /// counts.
    fn in_flight(&self) -> usize {
        self.cells.iter().map(Cell::in_flight).sum()
    }

    /// Units created and not yet taken.
    fn pending(&self) -> usize {
        self.cells.iter().map(Cell::pending).sum()
    }

    /// Every query concluded and no run is out: a doomed query concludes
    /// at once, while runs of cells only it read may still be in flight.
    fn drained(&self) -> bool {
        self.finished == self.results.len() && self.in_flight() == 0
    }

    /// The installed tracer, if any. Borrows only the (shared) params
    /// reference, so it composes with mutable borrows of scheduler state.
    fn trace(&self) -> Option<&'a Tracer> {
        self.params.trace.as_deref()
    }

    pub fn run(mut self) -> HostResult<SchedulerOutcome> {
        self.admit()?;
        while !self.drained() {
            // Idle helpers get runs first.
            if let Some(t) = self.trace().filter(|t| t.is_enabled()) {
                let (pending, idle) = (self.pending() as u64, self.idle.len() as u64);
                t.record(EventKind::QueueDepth, u32::MAX, u32::MAX, pending, idle);
            }
            while let Some(&helper) = self.idle.last() {
                if !self.dispatch(helper)? {
                    break;
                }
            }
            if self.drained() {
                break;
            }
            // Then a waiting completion, else a run the caller serves.
            if let Some(Ok(completion)) = self.done_rx.as_ref().map(Receiver::try_recv) {
                self.on_completion(completion)?;
                continue;
            }
            if self.dispatch(0)? {
                continue;
            }
            if self.in_flight() == 0 {
                // The caller is idle, yet nothing is in flight and nothing
                // was dispatchable: the firing bookkeeping broke.
                return Err(HostError::Stalled {
                    in_flight: 0,
                    waited: Duration::ZERO,
                    detail: self.stall_detail(),
                });
            }
            let Some(done_rx) = &self.done_rx else {
                unreachable!("without helpers nothing is in flight")
            };
            match done_rx.recv_timeout(self.params.stall_timeout) {
                Ok(completion) => self.on_completion(completion)?,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(HostError::Stalled {
                        in_flight: self.in_flight(),
                        waited: self.params.stall_timeout,
                        detail: self.stall_detail(),
                    });
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Every helper (and its death guard) is gone without a
                    // report — treat them all as dead; the caller serves
                    // what they held.
                    for worker in 1..self.dead.len() {
                        self.on_worker_died(worker)?;
                    }
                }
            }
        }
        // Dropping `self.work_txs` closes the dispatch channels, which
        // shuts the helpers down.
        let results = self
            .results
            .into_iter()
            .map(|r| r.expect("every query concluded"))
            .collect();
        let side_build = (self.cells.iter().map(Cell::side_build))
            .fold((Duration::ZERO, 0), |(t, n), (dt, dn)| (t + dt, n + dn));
        Ok(SchedulerOutcome {
            results,
            per_query: self.per_query,
            dead: self.dead,
            caller: self.caller,
            side_build,
        })
    }

    /// One-line state dump for [`HostError::Stalled`].
    fn stall_detail(&self) -> String {
        format!(
            "{}/{} queries finished, {} cells ({} pending units, {} in \
             flight), {}/{} processors alive",
            self.finished,
            self.results.len(),
            self.cells.len(),
            self.pending(),
            self.in_flight(),
            self.alive(),
            self.dead.len()
        )
    }

    /// Admit every query at once and feed each source's pages from the
    /// page store (the "disk" of the host machine — base relations are
    /// memory-resident `Arc` pages, shared not copied) to every port it
    /// feeds, then end those ports. A bare-scan root is an identity over
    /// its relation: it hands the catalog's pages to its results. Read-only
    /// queries take no locks: nothing in the call writes.
    fn admit(&mut self) -> HostResult<()> {
        if let Some(t) = self.trace() {
            for (q, cells) in self.graph.reads.iter().enumerate() {
                let cells = cells.len() as u64;
                t.record(EventKind::QueryAdmit, q as u32, u32::MAX, cells, 0);
            }
        }
        let graph = self.graph;
        for source in &graph.sources {
            let pages = self.db.require(&source.relation)?.pages();
            for &(c, port) in &source.consumers {
                if graph.cells[c].node().firing == Firing::Source {
                    self.route_output(c, pages);
                } else {
                    self.deliver(c, port, pages);
                }
            }
            for &(c, port) in &source.consumers {
                self.end_stream(c, port)?;
            }
        }
        Ok(())
    }

    /// Deliver `pages` produced by cell `from` to each live consumer and
    /// to the result of each query rooted at it that is still running.
    fn route_output(&mut self, from: usize, pages: &[Arc<Page>]) {
        let graph = self.graph;
        for &q in &graph.cells[from].results {
            if self.results[q].is_none() {
                self.result_pages[q].extend_from_slice(pages);
            }
        }
        for &(to, port) in graph.consumers(from) {
            self.deliver(to, port, pages);
        }
    }

    /// Deliver operand `pages` to `port` of cell `to`, if there are any
    /// and a running query still reads the cell.
    fn deliver(&mut self, to: usize, port: usize, pages: &[Arc<Page>]) {
        if !pages.is_empty() && self.live_readers[to] > 0 {
            let (graph, trace) = (self.graph, self.trace());
            let cell = &mut self.cells[to];
            let fired = cell.deliver(port, pages);
            record_fire(trace, &graph.cells[to], to, cell, fired);
        }
    }

    /// The operand stream on `port` of cell `to` ended: fire what that
    /// releases and try to complete the cell.
    fn end_stream(&mut self, to: usize, port: usize) -> HostResult<()> {
        if self.live_readers[to] == 0 {
            return Ok(());
        }
        let (graph, trace) = (self.graph, self.trace());
        let cell = &mut self.cells[to];
        let fired = cell.port_done(port);
        record_fire(trace, &graph.cells[to], to, cell, fired);
        self.try_complete(to)
    }

    /// Complete cell `c` if every operand stream ended and no work is
    /// outstanding, and propagate the completion to its consumers and the
    /// queries rooted at it.
    fn try_complete(&mut self, c: usize) -> HostResult<()> {
        if !self.cells[c].ready_to_complete() {
            return Ok(());
        }
        self.cells[c].complete();
        let graph = self.graph;
        let spec = &graph.cells[c];
        for &(to, port) in graph.consumers(c) {
            self.end_stream(to, port)?;
        }
        for &q in &spec.results {
            if self.results[q].is_none() {
                self.finish_query(q, spec)?;
            }
        }
        Ok(())
    }

    /// Query `q`'s root cell, `root`, completed: assemble the result
    /// relation.
    fn finish_query(&mut self, q: usize, root: &CellSpec) -> HostResult<()> {
        let pages = std::mem::take(&mut self.result_pages[q]);
        let schema = &root.node().out_schema;
        let packed = schema.fit_page_size(self.params.page_size);
        // The pages as the root emitted them: a run packs at the call's
        // page size, a scan root hands over the catalog's own pages.
        // Deterministic mode repacks them.
        let page_size = match pages.first() {
            Some(page) if !self.params.deterministic => page.page_size(),
            _ => packed,
        };
        let mut rel = Relation::new("result", schema.clone(), page_size)?;
        if self.params.deterministic {
            // The canonical form: tuple images sorted lexicographically and
            // packed into full pages. The tuple encoding is canonical
            // (equal tuples ⟺ equal images), so byte order is a total,
            // run-independent order.
            let width = schema.tuple_width();
            let mut images: Vec<&[u8]> = (pages.iter())
                .flat_map(|p| p.raw_data().chunks_exact(width))
                .collect();
            images.sort_unstable();
            rel.append_images(&images.concat())?;
        } else {
            for page in pages {
                rel.append_page(page)?;
            }
        }
        self.conclude(q, Ok(rel));
        Ok(())
    }

    /// Doom query `q` with `err` (first fault wins) and conclude it. Each
    /// cell it reads loses a live reader; a cell with none left drops the
    /// work no run has taken, and nothing is routed to it again. Runs in
    /// flight drain into the stats of the cells' owners. Everything else
    /// the scheduler holds keeps running.
    fn fail_query(&mut self, q: usize, err: HostError) {
        if self.results[q].is_some() {
            return;
        }
        self.result_pages[q] = Vec::new();
        for &c in &self.graph.reads[q] {
            self.live_readers[c] -= 1;
            if self.live_readers[c] == 0 {
                self.cells[c].discard_pending();
            }
        }
        self.conclude(q, Err(err));
    }

    /// Publish query `q`'s outcome.
    fn conclude(&mut self, q: usize, result: Result<Relation, HostError>) {
        let trace = self.trace();
        let stats = &mut self.per_query[q];
        if let Ok(rel) = &result {
            stats.result_tuples = rel.num_tuples();
            // Tuples are fixed-width.
            stats.result_payload_bytes = (rel.num_tuples() * rel.schema().tuple_width()) as u64;
        }
        stats.elapsed = self.started.elapsed();
        if let Some(t) = trace {
            if result.is_ok() {
                t.transfer(Path::QueryResult, q as u32, stats.result_payload_bytes);
            }
            let (failed, tuples) = (result.is_err() as u64, stats.result_tuples as u64);
            t.record(EventKind::QueryDone, q as u32, u32::MAX, failed, tuples);
        }
        self.results[q] = Some(result);
        self.finished += 1;
    }

    /// Worker `worker` died — noticed by a refused dispatch, by its drop
    /// guard's report, or by the completion channel closing, whichever
    /// comes first; later notices are no-ops. Shrink the pool, record the
    /// death once, and requeue whatever run it held so a survivor can
    /// serve it.
    fn on_worker_died(&mut self, worker: usize) -> HostResult<()> {
        if self.dead[worker] {
            return Ok(());
        }
        self.dead[worker] = true;
        self.idle.retain(|&w| w != worker);
        let trace = self.trace();
        if let Some(t) = trace {
            t.record_global(EventKind::Fault, 1, worker as u64);
        }
        let Some(run) = self.assigned[worker].take() else {
            return Ok(());
        };
        let (c, units) = (run.cell, run.units.len());
        if self.live_readers[c] == 0 {
            self.cells[c].settle(units);
            return Ok(());
        }
        self.cells[c].requeue(run.units.iter().map(|u| &u.kind));
        self.per_query[run.query].requeued_units += units;
        if let Some(t) = trace {
            for _ in 0..units {
                t.record(
                    EventKind::Fault,
                    run.query as u32,
                    c as u32,
                    2,
                    worker as u64,
                );
            }
        }
        Ok(())
    }

    /// Pick the instruction `worker` serves next — the pending cell with
    /// the fewest units in flight, the lowest cell id first: the data-flow
    /// strategy of \[4\], df-core's `AllocationStrategy::Balanced` — and
    /// dispatch a run of its units: over its channel to a helper (the last
    /// idle one), on the spot for the caller. False when no unit is
    /// pending.
    fn dispatch(&mut self, worker: usize) -> HostResult<bool> {
        let trace = self.trace();
        let pending = (self.cells.iter().enumerate()).filter(|(_, cell)| cell.pending() > 0);
        let Some((c, _)) = pending.min_by_key(|&(c, cell)| (cell.in_flight(), c)) else {
            return Ok(false);
        };
        // Guided self-scheduling: an equal share of what the cell has
        // pending per processor, so runs shrink as it drains and the
        // processors finish together. Workers beyond the CPUs could only
        // take turns, so they are not counted.
        let processors = self.alive().min(self.cpus);
        let cell = &mut self.cells[c];
        let take = cell.pending().div_ceil(processors);
        let fault = &self.params.fault;
        let units = (cell.take(take).zip(self.next_seq..))
            .map(|(kind, seq)| RunUnit {
                kind,
                seq,
                fault: fault.fault_for(seq),
            })
            .collect();
        let spec = &self.graph.cells[c];
        let run = Arc::new(Run {
            plan: Arc::clone(&spec.plan),
            node: spec.node,
            query: spec.owner,
            cell: c,
            page_size: spec.node().out_schema.fit_page_size(self.params.page_size),
            units,
        });
        if worker > 0 {
            self.idle.pop();
            // The completion channel's bound rests on this: one run per
            // helper outstanding.
            debug_assert!(
                self.assigned[worker].is_none(),
                "worker {worker} holds a run"
            );
            self.assigned[worker] = Some(Arc::clone(&run));
            let tx = &self.work_txs[worker - 1];
            if tx.send(Arc::clone(&run)).is_err() {
                // The helper's receiver is gone: it died before ever
                // accepting work. The run goes back to its cell.
                self.on_worker_died(worker)?;
                return Ok(true);
            }
        }
        self.next_seq += take as u64;
        if let Some(t) = trace {
            let (q, c) = (run.query as u32, c as u32);
            for unit in &run.units {
                let (seq, worker) = (unit.seq, worker as u64);
                t.record(EventKind::UnitDispatch, q, c, seq, worker);
            }
        }
        if worker == 0 {
            let done = serve_run(worker, &run, &mut self.caller, trace, None);
            self.on_run_done(done)?;
        }
        Ok(true)
    }

    /// A helper reported back: account for its run, route the output, and
    /// cascade whatever that unblocks — or contain its failure.
    fn on_completion(&mut self, completion: Completion) -> HostResult<()> {
        match completion {
            Completion::WorkerDied { worker } => self.on_worker_died(worker),
            Completion::Run(done) => self.on_run_done(done),
        }
    }

    /// Account for a served run unit by unit, against its cell's owner,
    /// then either route its pages to the cell's consumers or — if any
    /// unit panicked, or every reader of the cell is already doomed —
    /// discard them all.
    fn on_run_done(&mut self, done: RunDone) -> HostResult<()> {
        let c = done.cell;
        let (graph, trace) = (self.graph, self.trace());
        let spec = &graph.cells[c];
        // A helper rejoins the idle pool (unless it has since died); the
        // caller holds no assigned run and never leaves it.
        if self.assigned[done.worker].take().is_some() && !self.dead[done.worker] {
            self.idle.push(done.worker);
        }
        self.cells[c].settle(done.units);
        let stats = &mut self.per_query[spec.owner];
        stats.units_fired += done.units;
        stats.probe_units += done.probe_units;
        stats.sweep_units += done.sweep_units;
        stats.failed_units += done.panics.len();
        stats.pages_moved += done.pages_in + done.pages.len();
        stats.bytes_moved += done.bytes_in + done.bytes_out;
        if let Some(t) = trace {
            for _ in &done.panics {
                let (q, worker) = (spec.owner as u32, done.worker as u64);
                t.record(EventKind::Fault, q, c as u32, 0, worker);
            }
        }
        if let Some(payload) = done.panics.into_iter().next() {
            // The panics were contained on the worker; it lives on and has
            // rejoined the pool. Every query reading the cell is doomed,
            // each told of it under its own index, and with them every
            // page of this run.
            for query in graph.readers(c) {
                let op = spec.node().op.name().to_string();
                let payload = payload.clone();
                let err = HostError::UnitPanicked {
                    query,
                    cell: c,
                    op,
                    payload,
                };
                self.fail_query(query, err);
            }
            return Ok(());
        }
        if self.live_readers[c] == 0 {
            // A late completion of a cell no running query reads: the work
            // is discarded, the worker goes back to the pool.
            return Ok(());
        }
        self.route_output(c, &done.pages);
        self.try_complete(c)
    }
}
