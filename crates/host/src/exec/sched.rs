//! The scheduler: the MC/IC layer of one call. It admits queries under
//! relation-granularity locks, routes every page a run produced to its
//! parent [`Cell`], picks which cell a processor serves next — an idle
//! helper first, then the caller itself — and contains faults: a panicked
//! unit dooms its query, a dead helper's run is requeued on a survivor.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use df_core::{LockRequest, LockTable, StrategyPicker, WorkCandidate, WorkPicker};
use df_obs::{EventKind, Path, Tracer};
use df_query::{Firing, Op, QueryTree};
use df_relalg::{Catalog, Page, Relation};

use super::cell::Cell;
use super::run::{serve_run, Run, RunDone, RunUnit};
use super::worker::Completion;
use crate::error::{HostError, HostResult};
use crate::metrics::{QueryStats, WorkerStats};
use crate::params::{HostParams, CPUS};
use crate::plan::QueryPlan;

/// Scheduler-side state of one admitted query.
struct QueryState {
    plan: Arc<QueryPlan>,
    cells: Vec<Cell>,
    /// Base for globally unique instruction ids (`base + cell index`).
    base: usize,
    admitted_at: Instant,
    result_pages: Vec<Arc<Page>>,
    stats: QueryStats,
    /// Set when the query is doomed (a unit panicked, or the pool died);
    /// its pending work is discarded and it concludes once the last
    /// in-flight unit drains.
    failed: Option<HostError>,
}

impl QueryState {
    /// Units of this query dispatched and not yet accounted for.
    fn in_flight(&self) -> usize {
        self.cells.iter().map(Cell::in_flight).sum()
    }
}

/// What [`Scheduler::run`] hands back on a (possibly partially failed,
/// but orderly) run.
pub(super) struct SchedulerOutcome {
    pub results: Vec<Result<Relation, HostError>>,
    pub per_query: Vec<QueryStats>,
    /// Which workers died mid-run, by id (the caller's entry never does).
    pub dead: Vec<bool>,
    /// What the caller served (nothing when it only schedules).
    pub caller: WorkerStats,
}

pub(super) struct Scheduler<'a> {
    db: &'a Catalog,
    queries: &'a [QueryTree],
    plans: Vec<Arc<QueryPlan>>,
    params: &'a HostParams,
    /// Dispatch channels, one per helper: helper `first + i` owns entry `i`.
    work_txs: Vec<SyncSender<Arc<Run>>>,
    /// The completion channel; `None` without helpers.
    done_rx: Option<Receiver<Completion>>,
    /// Worker id of the first helper: 1 when the caller serves, else 0.
    first: usize,
    /// What the caller served (nothing when it only schedules).
    caller: WorkerStats,
    picker: StrategyPicker,
    locks: LockTable,
    waiting: VecDeque<usize>,
    active: Vec<Option<QueryState>>,
    results: Vec<Option<Result<Relation, HostError>>>,
    per_query: Vec<QueryStats>,
    idle: Vec<usize>,
    /// Which workers have died. Dead helpers never rejoin the idle pool.
    dead: Vec<bool>,
    /// CPUs the calling thread may run on.
    cpus: usize,
    /// The run each busy helper currently holds, kept so a dead helper's
    /// run can be requeued.
    assigned: Vec<Option<Arc<Run>>>,
    next_base: usize,
    /// Global dispatch sequence number (the fault plan's unit key).
    next_seq: u64,
    finished: usize,
}

/// Trace a firing of `fired` units at `cell`.
fn record_fire(trace: Option<&Tracer>, q: usize, cell: usize, state: &Cell, fired: u64) {
    if let (Some(t), true) = (trace, fired > 0) {
        let pending = state.pending() as u64;
        t.record(EventKind::CellFire, q as u32, cell as u32, pending, fired);
    }
}

impl<'a> Scheduler<'a> {
    pub fn new(
        db: &'a Catalog,
        queries: &'a [QueryTree],
        plans: Vec<Arc<QueryPlan>>,
        params: &'a HostParams,
        first: usize,
        work_txs: Vec<SyncSender<Arc<Run>>>,
        done_rx: Option<Receiver<Completion>>,
    ) -> Scheduler<'a> {
        let n = queries.len();
        let workers = first + work_txs.len();
        Scheduler {
            db,
            queries,
            plans,
            params,
            work_txs,
            done_rx,
            first,
            caller: WorkerStats::default(),
            picker: StrategyPicker::new(params.strategy),
            locks: LockTable::new(),
            waiting: (0..n).collect(),
            active: (0..n).map(|_| None).collect(),
            results: (0..n).map(|_| None).collect(),
            per_query: vec![QueryStats::default(); n],
            idle: (first..workers).collect(),
            dead: vec![false; workers],
            cpus: CPUS.with(|&n| n),
            assigned: (0..workers).map(|_| None).collect(),
            next_base: 0,
            next_seq: 0,
            finished: 0,
        }
    }

    /// Processors still able to serve units: the alive helpers, plus the
    /// caller (entry 0, never dead) when it serves.
    fn alive(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Units dispatched and not yet accounted for, across all queries: the
    /// sum of the cells' counts (a concluded query has none left).
    fn in_flight(&self) -> usize {
        let queries = self.active.iter().flatten();
        queries.map(QueryState::in_flight).sum()
    }

    /// Units created and not yet taken, across all queries.
    fn pending(&self) -> usize {
        let cells = self.active.iter().flatten().flat_map(|s| &s.cells);
        cells.map(Cell::pending).sum()
    }

    /// The installed tracer, if any. Borrows only the (shared) params
    /// reference, so it composes with mutable borrows of scheduler state.
    fn trace(&self) -> Option<&'a Tracer> {
        self.params.trace.as_deref()
    }

    pub fn run(mut self) -> HostResult<SchedulerOutcome> {
        self.admit_compatible()?;
        while self.finished < self.queries.len() {
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
            if self.finished == self.queries.len() {
                break;
            }
            // Then a waiting completion, else a run the caller serves.
            if let Some(Ok(completion)) = self.done_rx.as_ref().map(Receiver::try_recv) {
                self.on_completion(completion)?;
                continue;
            }
            if self.first == 1 && self.dispatch(0)? {
                continue;
            }
            if self.in_flight() == 0 && self.alive() > 0 {
                // Processors are alive and idle, yet nothing is in flight
                // and nothing was dispatchable: the firing bookkeeping broke.
                return Err(HostError::Stalled {
                    in_flight: 0,
                    waited: Duration::ZERO,
                    detail: self.stall_detail(),
                });
            }
            let Some(done_rx) = &self.done_rx else {
                unreachable!("without helpers nothing is in flight")
            };
            if self.alive() == 0 {
                // The pool is gone. Drain completions that made it out
                // before the last death, then fail whatever still needs a
                // worker — a structured per-query error, never a hang.
                // (Queries admitted by the released locks may still
                // complete — a scan-only query needs no worker — so this
                // loops until quiescent.)
                let drained: Vec<Completion> = done_rx.try_iter().collect();
                for completion in drained {
                    self.on_completion(completion)?;
                }
                let workers = self.params.workers;
                for q in 0..self.queries.len() {
                    self.fail_query(q, HostError::WorkersExhausted { workers })?;
                }
                continue;
            }
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
                    // report — treat them all as dead; the next iteration
                    // fails the remaining queries unless the caller serves.
                    for worker in self.first..self.dead.len() {
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
        Ok(SchedulerOutcome {
            results,
            per_query: self.per_query,
            dead: self.dead,
            caller: self.caller,
        })
    }

    /// One-line state dump for [`HostError::Stalled`].
    fn stall_detail(&self) -> String {
        format!(
            "{}/{} queries finished, {} active ({} pending units, {} in \
             flight), {} waiting on locks, {}/{} processors alive",
            self.finished,
            self.queries.len(),
            self.active.iter().flatten().count(),
            self.pending(),
            self.in_flight(),
            self.waiting.len(),
            self.alive(),
            self.dead.len()
        )
    }

    /// Admit every waiting query whose lock request is compatible, in
    /// arrival order (a non-conflicting younger query may overtake a
    /// blocked older one, like the ring MC).
    fn admit_compatible(&mut self) -> HostResult<()> {
        let mut still_waiting = VecDeque::new();
        while let Some(q) = self.waiting.pop_front() {
            let tree = &self.queries[q];
            let request = LockRequest::new(tree.referenced_relations(), tree.written_relations());
            if !self.locks.compatible(&request) {
                still_waiting.push_back(q);
                continue;
            }
            self.locks.grant(q, &request);
            self.admit(q)?;
        }
        self.waiting = still_waiting;
        Ok(())
    }

    /// Turn query `q` active: instantiate its cells and feed every scan
    /// cell's pages from the page store (the "disk" of the host machine —
    /// base relations are memory-resident `Arc` pages, shared not copied).
    fn admit(&mut self, q: usize) -> HostResult<()> {
        let plan = Arc::clone(&self.plans[q]);
        let nodes = &plan.plan.nodes;
        let join = self.params.join;
        let cells = (nodes.iter().zip(&plan.kernels))
            .map(|(n, kernel)| Cell::new(n.firing, n.children.len(), kernel, join));
        self.active[q] = Some(QueryState {
            plan: Arc::clone(&plan),
            cells: cells.collect(),
            base: self.next_base,
            admitted_at: Instant::now(),
            result_pages: Vec::new(),
            stats: QueryStats::default(),
            failed: None,
        });
        self.next_base += nodes.len();
        if let Some(t) = self.trace() {
            let cells = nodes.len() as u64;
            t.record(EventKind::QueryAdmit, q as u32, u32::MAX, cells, 0);
        }

        for (idx, spec) in nodes.iter().enumerate() {
            if spec.firing != Firing::Source {
                continue;
            }
            let Op::Scan { relation } = &spec.op else {
                unreachable!("source cells are scans");
            };
            let pages: Vec<Arc<Page>> = self.db.require(relation)?.pages().to_vec();
            self.route_output(q, idx, pages);
            self.try_complete(q, idx)?;
        }
        Ok(())
    }

    /// Deliver `pages` produced by cell `from` to its parent (or the query
    /// result if `from` is the root).
    fn route_output(&mut self, q: usize, from: usize, pages: Vec<Arc<Page>>) {
        if pages.is_empty() {
            return;
        }
        let trace = self.trace();
        let state = self.active[q].as_mut().expect("query is active");
        match state.plan.cell(from).parent {
            None => state.result_pages.extend(pages),
            Some((parent, port)) => {
                let cell = &mut state.cells[parent];
                let fired = cell.deliver(port, pages);
                record_fire(trace, q, parent, cell, fired);
            }
        }
    }

    /// Complete `cell` if every operand stream ended and no work is
    /// outstanding, and propagate the completion upward.
    fn try_complete(&mut self, q: usize, cell: usize) -> HostResult<()> {
        let trace = self.trace();
        let state = self.active[q].as_mut().expect("query is active");
        if !state.cells[cell].ready_to_complete() {
            return Ok(());
        }
        state.cells[cell].complete();
        let Some((parent, port)) = state.plan.cell(cell).parent else {
            return self.finish_query(q);
        };
        let parent_cell = &mut state.cells[parent];
        let fired = parent_cell.port_done(port);
        record_fire(trace, q, parent, parent_cell, fired);
        self.try_complete(q, parent)
    }

    /// The root cell completed: assemble the result relation.
    fn finish_query(&mut self, q: usize) -> HostResult<()> {
        let mut state = self.active[q].take().expect("query is active");
        let pages = std::mem::take(&mut state.result_pages);
        let root = state.plan.plan.root;
        let schema = &state.plan.cell(root).out_schema;
        let mut rel = Relation::new("result", schema.clone(), state.plan.out_page_size[root])?;
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
        self.conclude(q, state, Ok(rel))
    }

    /// Doom query `q`: record `err` (first fault wins), discard its
    /// not-yet-dispatched work, and conclude it once nothing of it remains
    /// in flight. Everything else the scheduler holds keeps running.
    fn fail_query(&mut self, q: usize, err: HostError) -> HostResult<()> {
        let Some(state) = self.active[q].as_mut() else {
            return Ok(());
        };
        if state.failed.is_none() {
            state.failed = Some(err);
            state.cells.iter_mut().for_each(Cell::discard_pending);
        }
        self.conclude_if_drained(q)
    }

    /// Conclude doomed query `q` once its last in-flight unit drained.
    fn conclude_if_drained(&mut self, q: usize) -> HostResult<()> {
        if self.active[q].as_ref().is_some_and(|s| s.in_flight() > 0) {
            return Ok(());
        }
        let mut state = self.active[q].take().expect("query is active");
        let err = state
            .failed
            .take()
            .expect("concluding a query that never failed");
        self.conclude(q, state, Err(err))
    }

    /// Publish query `q`'s outcome, release its locks, and admit whatever
    /// those locks were blocking.
    fn conclude(
        &mut self,
        q: usize,
        state: QueryState,
        result: Result<Relation, HostError>,
    ) -> HostResult<()> {
        let mut stats = state.stats;
        if let Ok(rel) = &result {
            stats.result_tuples = rel.num_tuples();
            stats.result_payload_bytes = rel.tuple_refs().map(|t| t.raw().len() as u64).sum();
        }
        stats.elapsed = state.admitted_at.elapsed();
        if let Some(t) = self.trace() {
            if result.is_ok() {
                t.transfer(Path::QueryResult, q as u32, stats.result_payload_bytes);
            }
            let (failed, tuples) = (result.is_err() as u64, stats.result_tuples as u64);
            t.record(EventKind::QueryDone, q as u32, u32::MAX, failed, tuples);
        }
        self.per_query[q] = stats;
        self.results[q] = Some(result);
        self.finished += 1;
        self.locks.release(q);
        self.admit_compatible()
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
        let (q, c, units) = (run.query, run.cell, run.units.len());
        let state = self.active[q].as_mut().expect("query is active");
        if state.failed.is_some() {
            state.cells[c].settle(units);
            return self.conclude_if_drained(q);
        }
        state.cells[c].requeue(run.units.iter().map(|u| &u.kind));
        state.stats.requeued_units += units;
        if let Some(t) = trace {
            for _ in 0..units {
                t.record(EventKind::Fault, q as u32, c as u32, 2, worker as u64);
            }
        }
        Ok(())
    }

    /// Let the allocation policy pick the instruction `worker` serves next
    /// and dispatch a run of its units: over its channel to a helper (the
    /// last idle one), on the spot for the caller. False when no unit is
    /// pending.
    fn dispatch(&mut self, worker: usize) -> HostResult<bool> {
        let trace = self.trace();
        let mut candidates: Vec<WorkCandidate> = Vec::new();
        let mut owners: Vec<(usize, usize)> = Vec::new();
        for (q, state) in self.active.iter().enumerate() {
            let Some(state) = state else { continue };
            for (c, cell) in state.cells.iter().enumerate() {
                if cell.pending() > 0 {
                    candidates.push(WorkCandidate {
                        instr: state.base + c,
                        in_flight: cell.in_flight(),
                        depth: state.plan.depth[c],
                    });
                    owners.push((q, c));
                }
            }
        }
        if candidates.is_empty() {
            return Ok(false);
        }
        let instr = self.picker.pick(&candidates);
        let (q, c) = owners[candidates
            .iter()
            .position(|cand| cand.instr == instr)
            .expect("picker returns a candidate id")];
        // Guided self-scheduling: an equal share of what the cell has
        // pending per processor, so runs shrink as it drains and the
        // processors finish together. Workers beyond the CPUs could only
        // take turns, so they are not counted.
        let processors = self.alive().min(self.cpus);
        let state = self.active[q].as_mut().expect("query is active");
        let cell = &mut state.cells[c];
        let take = cell.pending().div_ceil(processors);
        let fault = &self.params.fault;
        let units = (cell.take(take).zip(self.next_seq..))
            .map(|(kind, seq)| RunUnit {
                kind,
                seq,
                fault: fault.fault_for(seq),
            })
            .collect();
        let run = Arc::new(Run {
            plan: Arc::clone(&state.plan),
            query: q,
            cell: c,
            units,
        });
        if worker >= self.first {
            self.idle.pop();
            // The completion channel's bound rests on this: one run per
            // helper outstanding.
            debug_assert!(
                self.assigned[worker].is_none(),
                "worker {worker} holds a run"
            );
            self.assigned[worker] = Some(Arc::clone(&run));
            let tx = &self.work_txs[worker - self.first];
            if tx.send(Arc::clone(&run)).is_err() {
                // The helper's receiver is gone: it died before ever
                // accepting work. The run goes back to its cell.
                self.on_worker_died(worker)?;
                return Ok(true);
            }
        }
        self.next_seq += take as u64;
        if let Some(t) = trace {
            for unit in &run.units {
                let (seq, worker) = (unit.seq, worker as u64);
                t.record(EventKind::UnitDispatch, q as u32, c as u32, seq, worker);
            }
        }
        if worker < self.first {
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

    /// Account for a served run unit by unit, then either route its pages
    /// to the parent cell or — if any unit panicked, or the query was
    /// already doomed — discard them all.
    fn on_run_done(&mut self, done: RunDone) -> HostResult<()> {
        let (q, cell) = (done.query, done.cell);
        let trace = self.trace();
        // A helper rejoins the idle pool (unless it has since died); the
        // caller holds no assigned run and never leaves it.
        if self.assigned[done.worker].take().is_some() && !self.dead[done.worker] {
            self.idle.push(done.worker);
        }
        let state = self.active[q].as_mut().expect("query is active");
        state.cells[cell].settle(done.units);
        state.stats.units_fired += done.units;
        state.stats.probe_units += done.probe_units;
        state.stats.sweep_units += done.sweep_units;
        state.stats.failed_units += done.panics.len();
        state.stats.pages_moved += done.pages_in + done.pages.len();
        state.stats.bytes_moved += done.bytes_in + done.bytes_out;
        if let Some(t) = trace {
            for _ in &done.panics {
                let worker = done.worker as u64;
                t.record(EventKind::Fault, q as u32, cell as u32, 0, worker);
            }
        }
        if let Some(payload) = done.panics.into_iter().next() {
            // The panics were contained on the worker; it lives on and has
            // rejoined the pool. Only the owning query is doomed, and with
            // it every page of this run.
            let op = state.plan.cell(cell).op.name().to_string();
            let err = HostError::UnitPanicked {
                query: q,
                cell,
                op,
                payload,
            };
            return self.fail_query(q, err);
        }
        if state.failed.is_some() {
            // A late completion of an already-doomed query: the work is
            // discarded, the worker goes back to the pool.
            return self.conclude_if_drained(q);
        }
        self.route_output(q, cell, done.pages);
        self.try_complete(q, cell)
    }
}
