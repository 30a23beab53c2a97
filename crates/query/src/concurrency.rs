//! Admission-time concurrency control (requirement 1, §4.0).
//!
//! *"a database machine … must be able to support the simultaneous
//! execution of multiple queries from several users … This requires careful
//! control of which queries are permitted to execute concurrently."*
//!
//! Shared by the two controllers that admit queries: the ring machine's MC
//! (`df-ring` re-exports these types) and df-serve's write gate. It lives
//! here, beside the query trees whose read and write sets it locks, so
//! neither needs the simulator crates to use it.
//!
//! The mechanism is relation-granularity shared/exclusive locking: a query
//! takes shared locks on every relation it reads and exclusive locks on
//! every relation it writes, all-or-nothing at admission time (so a running
//! query never blocks mid-flight — the MC simply refuses to *start* a
//! conflicting query). Waiters are served in arrival order, but a
//! non-conflicting younger query may be admitted ahead of a blocked older
//! one (the MC maximizes utilization; starvation is bounded because locks
//! are only held for a query's duration).

use std::collections::{BTreeMap, BTreeSet};

/// The lock set a query needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockRequest {
    /// Relations read (shared locks).
    pub reads: Vec<String>,
    /// Relations written (exclusive locks).
    pub writes: Vec<String>,
}

impl LockRequest {
    /// Build from a query's referenced/written relation lists.
    pub fn new(mut reads: Vec<String>, mut writes: Vec<String>) -> LockRequest {
        reads.sort();
        reads.dedup();
        writes.sort();
        writes.dedup();
        // A written relation is implicitly read-locked by the exclusive lock.
        reads.retain(|r| !writes.contains(r));
        LockRequest { reads, writes }
    }
}

/// Lock state of one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LockState {
    /// Held shared by these queries.
    Shared(BTreeSet<usize>),
    /// Held exclusively by this query.
    Exclusive(usize),
}

/// The MC's lock table.
///
/// ```
/// use df_query::{LockRequest, LockTable};
/// let mut locks = LockTable::new();
/// let reader = LockRequest::new(vec!["emp".into()], vec![]);
/// let writer = LockRequest::new(vec![], vec!["emp".into()]);
/// locks.grant(0, &reader);
/// assert!(!locks.compatible(&writer)); // readers block writers
/// locks.release(0);
/// assert!(locks.compatible(&writer));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    locks: BTreeMap<String, LockState>,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> LockTable {
        LockTable::default()
    }

    /// Whether `request` could be granted right now.
    pub fn compatible(&self, request: &LockRequest) -> bool {
        for r in &request.reads {
            if let Some(LockState::Exclusive(_)) = self.locks.get(r) {
                return false;
            }
        }
        for w in &request.writes {
            if self.locks.contains_key(w) {
                return false;
            }
        }
        true
    }

    /// Grant `request` to `query`.
    ///
    /// # Panics
    /// Panics if the request is not [`LockTable::compatible`] — the MC must
    /// check first; granting a conflicting request is an admission bug.
    pub fn grant(&mut self, query: usize, request: &LockRequest) {
        assert!(
            self.compatible(request),
            "granting conflicting lock request for query {query}"
        );
        for r in &request.reads {
            match self
                .locks
                .entry(r.clone())
                .or_insert_with(|| LockState::Shared(BTreeSet::new()))
            {
                LockState::Shared(holders) => {
                    holders.insert(query);
                }
                LockState::Exclusive(_) => unreachable!("compatibility checked"),
            }
        }
        for w in &request.writes {
            self.locks.insert(w.clone(), LockState::Exclusive(query));
        }
    }

    /// Release everything `query` holds.
    pub fn release(&mut self, query: usize) {
        self.locks.retain(|_, state| match state {
            LockState::Shared(holders) => {
                holders.remove(&query);
                !holders.is_empty()
            }
            LockState::Exclusive(q) => *q != query,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(reads: &[&str], writes: &[&str]) -> LockRequest {
        LockRequest::new(
            reads.iter().map(|s| s.to_string()).collect(),
            writes.iter().map(|s| s.to_string()).collect(),
        )
    }

    #[test]
    fn readers_share() {
        let mut t = LockTable::new();
        let r = req(&["a", "b"], &[]);
        assert!(t.compatible(&r));
        t.grant(0, &r);
        assert!(t.compatible(&req(&["a"], &[])));
        t.grant(1, &req(&["a"], &[]));
        assert_eq!(t.locks.len(), 2);
    }

    #[test]
    fn writer_excludes_everyone() {
        let mut t = LockTable::new();
        t.grant(0, &req(&[], &["a"]));
        assert!(!t.compatible(&req(&["a"], &[])));
        assert!(!t.compatible(&req(&[], &["a"])));
        assert!(t.compatible(&req(&["b"], &[])));
    }

    #[test]
    fn readers_block_writers() {
        let mut t = LockTable::new();
        t.grant(0, &req(&["a"], &[]));
        assert!(!t.compatible(&req(&[], &["a"])));
    }

    #[test]
    fn release_unblocks() {
        let mut t = LockTable::new();
        t.grant(0, &req(&["a"], &["b"]));
        t.grant(1, &req(&["a"], &[]));
        t.release(0);
        // a still shared by 1; b free.
        assert!(!t.compatible(&req(&[], &["a"])));
        assert!(t.compatible(&req(&[], &["b"])));
        t.release(1);
        assert_eq!(t.locks.len(), 0);
    }

    #[test]
    fn write_implies_read() {
        let r = LockRequest::new(vec!["a".into(), "b".into(), "a".into()], vec!["a".into()]);
        assert_eq!(r.reads, vec!["b".to_string()]);
        assert_eq!(r.writes, vec!["a".to_string()]);
    }

    #[test]
    #[should_panic(expected = "conflicting lock request")]
    fn conflicting_grant_panics() {
        let mut t = LockTable::new();
        t.grant(0, &req(&[], &["a"]));
        t.grant(1, &req(&["a"], &[]));
    }
}
