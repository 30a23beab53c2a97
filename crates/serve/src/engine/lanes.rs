//! Lanes: the executor threads behind the gate. A lane pulls one gated
//! task, runs it against the shared catalog, answers its waiters, and
//! releases the task's gate ticket — panic or not.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex};

use df_host::{run_host_queries, HostError, HostParams};
use df_obs::Tracer;
use df_query::{apply_write, stage_write, ExecParams, QueryTree};
use df_relalg::Relation;

use super::views::{maintain_views, run_view_task, ViewAction, ViewTask};
use super::{answer, lock, read_lock, wait_on, write_lock, Shared, Submission};
use crate::proto::ServeError;

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

/// One read execution currently queued on or running inside a lane. Kept
/// in the in-flight registry from dispatch until the lane fans the
/// result out; late twins append themselves to `waiters`.
pub(super) struct Inflight {
    pub(super) exec_id: u64,
    pub(super) waiters: Vec<Submission>,
}

/// What a lane pulls off the shared task channel. Every task carries the
/// gate ticket the dispatcher acquired for it; the lane releases the
/// ticket after fan-out (reads) or apply (writes), even if the task
/// panicked.
pub(super) enum LaneTask {
    Read(ReadTask),
    Write(WriteTask),
    View(ViewTask),
}

/// One run of reads, executed by a single lane as one concurrent
/// [`run_host_queries`] batch: `trees[i]` is the distinct plan whose
/// waiters sit in the in-flight registry under `keys[i]`.
pub(super) struct ReadTask {
    pub(super) keys: Vec<Arc<str>>,
    pub(super) trees: Vec<QueryTree>,
    pub(super) ticket: usize,
}

/// One update query, executed split-phase by a lane: `stage_write` under
/// the catalog read lock (raw pages: an append's source through
/// `df_query::run_plan`, a delete's page-level partition), then — under
/// the write lock — `apply_write`, with the write's change folded into the
/// target's held optimizer statistics. The gate's exclusive mark on the
/// target makes the split sound.
pub(super) struct WriteTask {
    /// Taken (`Option::take`) at conclusion; a panic before that point
    /// leaves it here for the containment path to answer.
    pub(super) sub: Option<Submission>,
    pub(super) tree: Arc<QueryTree>,
    pub(super) ticket: usize,
}

/// One executor lane: pull tasks, run reads against the shared catalog
/// under the read lock (fanning each plan's result out to every waiter
/// registered by then) and writes split-phase (stage under the read
/// lock, apply under the write lock). Task bodies run inside
/// `catch_unwind`: a panic — injected or real — is contained to the
/// task's own waiters, and the epilogue (gate release, busy/write
/// accounting) runs regardless, so the rest of the server keeps flowing.
pub(super) fn lane_loop(
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
            if shared.lane_panic_task == Some(seq) {
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

/// Execute one run of reads as a concurrent df-host batch and fan results
/// out to every waiter.
fn run_read_task(
    lane: usize,
    shared: &Arc<Shared>,
    task: &mut ReadTask,
    host: &HostParams,
    trace: &Option<Arc<Tracer>>,
) {
    let run = {
        let db = read_lock(&shared.db);
        run_host_queries(&db, &task.trees, host)
    };
    shared.stats.lane_execs[lane].fetch_add(task.trees.len() as u64, Ordering::Relaxed);
    match run {
        Ok(out) => {
            for (result, key) in out.results.into_iter().zip(&task.keys) {
                let subs = take_waiters(shared, key);
                match result {
                    Ok(rel) => {
                        // Encoded once; every waiter but the last gets a
                        // copy, which `conclude` stamps with its own id.
                        let frame = relation_frame(subs.len() as u32, &rel);
                        let mut subs = subs.into_iter();
                        let last = subs.next_back();
                        for sub in subs {
                            shared.conclude(trace, sub, frame.clone());
                        }
                        if let Some(sub) = last {
                            shared.conclude(trace, sub, frame);
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
            for key in &task.keys {
                for sub in take_waiters(shared, key) {
                    shared.conclude(trace, sub, Err(error.clone()));
                }
            }
        }
    }
}

/// A relation's result frame, encoded straight from its page rows.
fn relation_frame(fan_out: u32, rel: &Relation) -> Result<Vec<u8>, ServeError> {
    let rows = rel.tuple_refs().map(|t| t.raw());
    answer(fan_out, rel.schema(), rel.num_tuples(), rows)
}

/// Execute one write split-phase: the source evaluation / target
/// partition on raw pages under the catalog *read* lock (other lanes keep
/// reading), then a brief write lock for the apply — page images appended,
/// or the partitioned target swapped in with its untouched pages shared. Sound because the
/// dispatcher granted this task exclusive gate marks on its target
/// relations, so no other task can read or write them between the
/// phases. Under that same write lock the target's held optimizer
/// statistics are taken out, and the applied change is folded into them
/// (`CatalogStats::fold_write`), so the next optimizing resolve naming the
/// target finds them current without a scan.
fn run_write_task(
    lane: usize,
    shared: &Arc<Shared>,
    task: &mut WriteTask,
    host: &HostParams,
    trace: &Option<Arc<Tracer>>,
) {
    let exec = ExecParams {
        page_size: host.page_size,
    };
    let written = task.tree.written_relations();
    let staged = {
        let db = read_lock(&shared.db);
        stage_write(&db, &task.tree, &exec)
    };
    let outcome = staged.and_then(|delta| {
        // The staged delta is consumed by the apply; capture the signed
        // base change first — it is what flows through every standing
        // view reading the target.
        let change = delta.base_change();
        let target = delta.target().to_owned();
        let mut db = write_lock(&shared.db);
        // Lock order: catalog, then statistics; every resolve needs the
        // catalog lock this task holds, so none sees the entry out. Taken
        // out before the apply, a failing or panicking apply or fold
        // leaves the target's statistics absent rather than stale.
        let mut opt_stats = lock(&shared.opt_stats);
        let held = opt_stats.take(&target);
        let rel = apply_write(&mut db, delta)?;
        if let (Some(held), Some(relation)) = (held, db.get(&target)) {
            let (inserts, deletes) = &change;
            let gathered = opt_stats.fold_write(held, relation, inserts, deletes);
            shared
                .stats
                .stats_gathers
                .fetch_add(gathered as u64, Ordering::Relaxed);
        }
        Ok((rel, change))
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
            if let Some(target) = written.first() {
                maintain_views(shared, target, &inserts, &deletes);
            }
            shared.conclude(trace, sub, relation_frame(1, &rel));
        }
        Err(e) => {
            let error = ServeError::host(&HostError::Data(e));
            shared.conclude(trace, sub, Err(error));
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
            for key in &read.keys {
                // `remove` (not expect): a panic mid-fan-out may have
                // already consumed some entries.
                let waiters = lock(&shared.inflight)
                    .remove(key)
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
