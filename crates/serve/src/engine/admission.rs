//! Admission: the submitting side of the inbox. Bounded per-client
//! queues, typed backpressure, and the [`EngineHandle`] every front-end
//! thread submits through; the dispatcher drains what is queued here.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::{lock, read_lock, ServeStats, Shared};
use crate::proto::{response_frame, Priority, Request, Response, ServeError};

/// How the public [`EngineHandle`] methods hand a [`Response`] back to
/// whoever submitted the request — a channel in tests and probes.
pub type Reply = Box<dyn FnOnce(Response) + Send>;

/// How the engine answers: one whole response frame, length prefix
/// included, which the server writes to the client's socket as is.
pub(crate) type FrameReply = Box<dyn FnOnce(Vec<u8>) + Send>;

/// A [`Reply`] fed from frames: decodes each for the caller's closure.
fn decoded(reply: Reply) -> FrameReply {
    Box::new(move |frame| {
        reply(Response::decode(&frame[4..]).expect("the engine's frames decode"));
    })
}

/// What a queued submission asks the engine to do. Queries flow through
/// the plan cache and the read/write lanes; the view requests are
/// dispatched as `ViewTask`s ordered by the same relation gate under
/// pseudo-relation marks (`view:<name>`).
pub(super) enum SubmissionKind {
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
pub(super) struct Submission {
    pub(super) client: usize,
    pub(super) id: u64,
    pub(super) priority: Priority,
    pub(super) optimize: bool,
    pub(super) text: String,
    pub(super) kind: SubmissionKind,
    pub(super) reply: FrameReply,
}

pub(super) struct Inbox {
    pub(super) queues: Vec<VecDeque<Submission>>,
    /// Closed clients keep their slot (ids are never reused within a
    /// server lifetime) but accept no further submissions.
    pub(super) open: Vec<bool>,
    pub(super) shutdown: bool,
}

impl Inbox {
    pub(super) fn pending(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// Cloneable submission-side handle to a running [`super::Engine`].
#[derive(Clone)]
pub struct EngineHandle {
    pub(super) shared: Arc<Shared>,
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

    /// Answer one decoded request from `client` with frames: the one
    /// entry behind every public submission method and the socket
    /// front-end. Queries and view requests are queued for the
    /// dispatcher; `Stats`, `Relations` and `Ping` are answered at once,
    /// and `Shutdown` is acknowledged, then stops admission.
    pub(crate) fn serve(&self, client: usize, request: Request, reply: FrameReply) {
        let (id, priority, optimize, text, kind) = match request {
            Request::Query {
                id,
                priority,
                optimize,
                text,
            } => (id, priority, optimize, text, SubmissionKind::Query),
            Request::InstallView { id, name, text } => {
                let kind = SubmissionKind::InstallView { name };
                (id, Priority::Normal, false, text, kind)
            }
            Request::DropView { id, name } => {
                let kind = SubmissionKind::DropView { name };
                (id, Priority::Normal, false, String::new(), kind)
            }
            Request::ReadView { id, name } => {
                let kind = SubmissionKind::ReadView { name };
                (id, Priority::Normal, false, String::new(), kind)
            }
            Request::Stats => return reply(response_frame(&Response::Stats(self.stats().rows()))),
            Request::Relations => {
                return reply(response_frame(&Response::Relations(self.relations())))
            }
            Request::Ping => return reply(response_frame(&Response::Ok)),
            Request::Shutdown => {
                reply(response_frame(&Response::Ok));
                return self.shutdown();
            }
        };
        self.enqueue(Submission {
            client,
            id,
            priority,
            optimize,
            text,
            kind,
            reply,
        });
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
        let request = Request::Query {
            id,
            priority,
            optimize,
            text,
        };
        self.serve(client, request, decoded(reply));
    }

    /// Submit a standing-view install: materialize `text` once, then
    /// maintain the result from base-relation deltas. Subject to the
    /// same admission control as [`EngineHandle::submit`].
    pub fn install_view(&self, client: usize, id: u64, name: String, text: String, reply: Reply) {
        let request = Request::InstallView { id, name, text };
        self.serve(client, request, decoded(reply));
    }

    /// Submit a standing-view drop.
    pub fn drop_view(&self, client: usize, id: u64, name: String, reply: Reply) {
        self.serve(client, Request::DropView { id, name }, decoded(reply));
    }

    /// Submit a view read, answered from the maintained result — the
    /// defining query is never re-executed.
    pub fn read_view(&self, client: usize, id: u64, name: String, reply: Reply) {
        self.serve(client, Request::ReadView { id, name }, decoded(reply));
    }

    fn enqueue(&self, sub: Submission) {
        let id = sub.id;
        let rejection: Option<(ServeError, FrameReply)> = {
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
            reply(response_frame(&Response::Error { id, error }));
        }
    }

    /// Ask the dispatcher to finish queued work and exit; subsequent
    /// submissions are refused with [`ServeError::ShuttingDown`].
    pub fn shutdown(&self) {
        let mut inbox = lock(&self.shared.inbox);
        inbox.shutdown = true;
        self.shared.wake.notify_all();
    }

    /// Block until every dispatched lane task (read or write) has
    /// completed and fanned out its replies. Tests and benchmarks pair
    /// this with [`super::Engine::run_batch`] — the dispatch itself is
    /// asynchronous.
    pub fn quiesce(&self) {
        self.shared.quiesce_lanes();
    }

    /// The cumulative serve-layer counters.
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Current relation descriptions (name, schema, cardinality).
    pub fn relations(&self) -> Vec<String> {
        read_lock(&self.shared.db)
            .iter()
            .map(|r| r.to_string())
            .collect()
    }
}
