//! The IPs: helper threads. Each receives a run over its dispatch channel
//! (the distribution network), serves it, and sends one completion back
//! over the shared completion channel (the arbitration network). A thread
//! that dies any other way announces itself through its [`DeathGuard`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

use df_obs::Tracer;

use super::run::{serve_run, Run, RunDone};
use crate::metrics::WorkerStats;

/// What a helper sends back over the arbitration channel.
#[derive(Debug)]
pub(super) enum Completion {
    /// A run was served to its end.
    Run(RunDone),
    /// The helper thread itself died (sent by its drop guard). Whatever
    /// run it held must be requeued and the pool shrunk.
    WorkerDied { worker: usize },
}

/// Announces a helper's death to the scheduler if its thread exits any way
/// other than the orderly shutdown paths (which disarm it): an injected
/// dead-at-start fault, or a panic escaping the kernel guard.
struct DeathGuard {
    id: usize,
    done: SyncSender<Completion>,
    armed: bool,
}

impl Drop for DeathGuard {
    fn drop(&mut self) {
        if self.armed {
            // The scheduler may itself be gone (error path) — best effort.
            let _ = self.done.send(Completion::WorkerDied { worker: self.id });
        }
    }
}

/// One helper thread: receive a run, serve it, send the completion back.
pub(super) fn worker_loop(
    id: usize,
    rx: Receiver<Arc<Run>>,
    done: SyncSender<Completion>,
    poisoned: Arc<AtomicBool>,
    dead_at_start: bool,
    trace: Option<Arc<Tracer>>,
) -> WorkerStats {
    let spawned = Instant::now();
    let mut stats = WorkerStats::default();
    let mut guard = DeathGuard {
        id,
        done: done.clone(),
        armed: true,
    };
    if dead_at_start {
        // Injected fault: this IP never comes up. Returning with the guard
        // armed reports the death to the scheduler.
        stats.wall = spawned.elapsed();
        return stats;
    }
    while let Ok(run) = rx.recv() {
        let completion = serve_run(id, &run, &mut stats, trace.as_deref(), Some(&poisoned));
        let s0 = Instant::now();
        let sent = done.send(Completion::Run(completion));
        stats.send_wait += s0.elapsed();
        if sent.is_err() {
            // Scheduler gone (error path): stop quietly.
            poisoned.store(true, Ordering::Relaxed);
            break;
        }
    }
    guard.armed = false;
    stats.wall = spawned.elapsed();
    stats
}
