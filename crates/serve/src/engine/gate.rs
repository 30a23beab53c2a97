//! Gate: the one mechanism that orders conflicting work (the paper's
//! requirement 1, §4.0, which gives concurrency control to the MC alone).

use std::sync::{Condvar, Mutex};

use df_query::{LockRequest, LockTable};

use super::{lock, wait_on};

/// Per-relation reader/writer accounting — the paper's insertion-ring
/// discipline applied to the serve layer: any number of concurrent
/// readers per relation, or one writer, never both. The dispatcher
/// acquires marks in submission order *before* sending a task to a lane
/// (so conflicting tasks execute in submission order); the lane that ran
/// the task releases them after fan-out. A [`LockTable`] keyed by a
/// monotonically increasing ticket.
pub(super) struct RelationGate {
    state: Mutex<GateState>,
    freed: Condvar,
}

struct GateState {
    table: LockTable,
    next_ticket: usize,
}

impl RelationGate {
    pub(super) fn new() -> RelationGate {
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
    pub(super) fn acquire(&self, request: &LockRequest) -> usize {
        let mut state = lock(&self.state);
        while !state.table.compatible(request) {
            state = wait_on(&self.freed, state);
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.table.grant(ticket, request);
        ticket
    }

    pub(super) fn release(&self, ticket: usize) {
        lock(&self.state).table.release(ticket);
        self.freed.notify_all();
    }
}

/// The pseudo-relation the gate uses to order operations on one view.
/// Cannot collide with a real relation: `:` never appears in catalog
/// names.
pub(super) fn view_mark(name: &str) -> String {
    format!("view:{name}")
}

#[cfg(test)]
mod tests {
    use super::{view_mark, RelationGate};
    use df_query::LockRequest;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::channel;

    fn shared(rel: &str) -> LockRequest {
        LockRequest::new(vec![rel.to_string()], Vec::new())
    }

    fn exclusive(rel: &str) -> LockRequest {
        LockRequest::new(Vec::new(), vec![rel.to_string()])
    }

    #[test]
    fn tickets_are_granted_in_acquire_order() {
        let gate = RelationGate::new();
        let tickets: Vec<usize> = ["r00", "r01", "r02"]
            .iter()
            .map(|rel| gate.acquire(&exclusive(rel)))
            .collect();
        assert_eq!(tickets, vec![0, 1, 2]);
        // A released ticket is never reissued.
        gate.release(1);
        assert_eq!(gate.acquire(&exclusive("r01")), 3);
    }

    #[test]
    fn shared_marks_coexist() {
        // Single-threaded on purpose: a second shared acquire that
        // blocked would hang the test.
        let gate = RelationGate::new();
        let a = gate.acquire(&shared("r00"));
        let b = gate.acquire(&shared("r00"));
        gate.release(a);
        // One reader is still in: a writer must keep waiting until the
        // last shared mark goes (checked on the table, not by blocking).
        assert!(!super::lock(&gate.state).table.compatible(&exclusive("r00")));
        gate.release(b);
        gate.acquire(&exclusive("r00"));
    }

    #[test]
    fn blocked_acquire_proceeds_after_the_conflicting_release() {
        let gate = RelationGate::new();
        let writer = gate.acquire(&exclusive("r00"));
        // Set strictly before the release, read by the reader strictly
        // after its grant: a grant that overtook the release sees false.
        let released = AtomicBool::new(false);
        let (entered_tx, entered_rx) = channel();
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                entered_tx.send(()).expect("main is waiting");
                let ticket = gate.acquire(&shared("r00"));
                assert!(
                    released.load(Ordering::SeqCst),
                    "granted while the exclusive mark was still held"
                );
                ticket
            });
            entered_rx.recv().expect("reader started");
            released.store(true, Ordering::SeqCst);
            gate.release(writer);
            let ticket = reader.join().expect("reader thread");
            assert_eq!(ticket, writer + 1);
        });
    }

    #[test]
    fn view_marks_never_collide_with_base_relations() {
        assert_ne!(view_mark("r01"), "r01");
        let gate = RelationGate::new();
        // A view may be named like a relation: exclusive marks on both
        // are granted side by side.
        gate.acquire(&exclusive("r01"));
        gate.acquire(&exclusive(&view_mark("r01")));
        // And the view's mark is a mark like any other.
        assert!(!super::lock(&gate.state)
            .table
            .compatible(&shared(&view_mark("r01"))));
    }
}
