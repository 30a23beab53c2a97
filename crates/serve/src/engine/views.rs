//! Standing views: admission checks at dispatch, the lane-side install /
//! drop / read, and the maintenance every applied base write performs.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use df_host::{HostParams, StandingView};
use df_obs::Tracer;
use df_query::LockRequest;
use df_query::{parse_query, QueryTree};

use super::gate::view_mark;
use super::{answer, lock, read_lock, Shared, Submission, SubmissionKind};
use crate::proto::{result_frame, ServeError};

/// One standing-view operation, ordered against conflicting work by the
/// gate marks the dispatcher acquired: an install holds shared marks on
/// the view's base relations (its from-scratch materialization must not
/// race a base write) plus an exclusive `view:<name>` mark; drops and
/// reads hold exclusive/shared `view:<name>` marks respectively. A base
/// write holds exclusive `view:<name>` marks for every installed view
/// that reads its target, so view maintenance and view reads serialize
/// in submission order.
pub(super) struct ViewTask {
    /// Taken at conclusion; the containment path answers a leftover.
    pub(super) sub: Option<Submission>,
    pub(super) action: ViewAction,
    pub(super) ticket: usize,
}

pub(super) enum ViewAction {
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

fn not_installed(name: &str) -> ServeError {
    ServeError::View {
        detail: format!("view `{name}` is not installed"),
    }
}

/// Admit one standing-view request: validate it against the
/// dispatch-time view map (refusing duplicate installs and unknown
/// names), record the map change, and return what the lane should do
/// with the gate marks it needs.
///
/// Install parses the definition here — via `parse_query` directly, not
/// the plan cache, so the `parses == plan_cache_misses` identity stays a
/// statement about query traffic.
pub(super) fn admit_view(
    shared: &Shared,
    sub: &mut Submission,
) -> Result<(ViewAction, LockRequest), ServeError> {
    match std::mem::replace(&mut sub.kind, SubmissionKind::Query) {
        SubmissionKind::Query => unreachable!("execute_batch routes queries elsewhere"),
        SubmissionKind::InstallView { name } => {
            if lock(&shared.view_bases).contains_key(&name) {
                let detail = format!("view `{name}` is already installed");
                return Err(ServeError::View { detail });
            }
            let tree =
                parse_query(&read_lock(&shared.db), &sub.text).map_err(|e| ServeError::Parse {
                    detail: e.to_string(),
                })?;
            if !tree.written_relations().is_empty() {
                let detail = "a view definition must be read-only".to_string();
                return Err(ServeError::View { detail });
            }
            let bases = tree.referenced_relations();
            lock(&shared.view_bases).insert(name.clone(), bases.clone());
            // Shared marks on the bases: the from-scratch
            // materialization must not race a base write.
            let request = LockRequest::new(bases, vec![view_mark(&name)]);
            let action = ViewAction::Install {
                name,
                text: sub.text.clone(),
                tree: Box::new(tree),
            };
            Ok((action, request))
        }
        SubmissionKind::DropView { name } => {
            if lock(&shared.view_bases).remove(&name).is_none() {
                return Err(not_installed(&name));
            }
            let request = LockRequest::new(Vec::new(), vec![view_mark(&name)]);
            Ok((ViewAction::Drop { name }, request))
        }
        SubmissionKind::ReadView { name } => {
            if !lock(&shared.view_bases).contains_key(&name) {
                return Err(not_installed(&name));
            }
            let request = LockRequest::new(vec![view_mark(&name)], Vec::new());
            Ok((ViewAction::Read { name }, request))
        }
    }
}

/// Execute one standing-view operation. Installs materialize once under
/// the catalog read lock ([`StandingView::install`] runs
/// [`df_query::run_plan`], the raw kernels node by node) and then register the
/// standing dataflow; reads encode the maintained multiset straight into
/// the reply frame, without touching the plan cache or a host execution.
pub(super) fn run_view_task(
    shared: &Arc<Shared>,
    task: &mut ViewTask,
    host: &HostParams,
    trace: &Option<Arc<Tracer>>,
) {
    let outcome = match &task.action {
        ViewAction::Install { name, text, tree } => {
            let installed = {
                let db = read_lock(&shared.db);
                StandingView::install(name, text, &db, tree, host.page_size)
            };
            match installed {
                Ok(view) => {
                    let ack = answer(1, view.schema(), 0, []);
                    lock(&shared.views).insert(name.clone(), Arc::new(Mutex::new(view)));
                    shared.stats.views_installed.fetch_add(1, Ordering::Relaxed);
                    ack
                }
                Err(e) => {
                    // The dispatch-time map entry led the registry;
                    // retract it so the name is reusable.
                    lock(&shared.view_bases).remove(name);
                    Err(ServeError::View {
                        detail: e.to_string(),
                    })
                }
            }
        }
        ViewAction::Drop { name } => match lock(&shared.views).remove(name) {
            Some(_) => result_frame(0, 1, "", 0, 0, []),
            None => Err(not_installed(name)),
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
                    answer(1, view.schema(), view.num_tuples(), view.images())
                }
                None => Err(not_installed(name)),
            }
        }
    };
    let sub = task.sub.take().expect("view task concluded once");
    shared.conclude(trace, sub, outcome);
}

/// Replay one applied base write through every installed view that
/// reads `target`. Runs inside the write task, which still holds the
/// gate's exclusive `view:<name>` marks for exactly these views, so
/// maintenance is serialized against view reads and other base writes.
/// A view whose maintenance fails is deregistered (fail-stop): serving
/// a possibly-stale result would break the differential contract.
pub(super) fn maintain_views(
    shared: &Arc<Shared>,
    target: &str,
    inserts: &[Vec<u8>],
    deletes: &[Vec<u8>],
) {
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
