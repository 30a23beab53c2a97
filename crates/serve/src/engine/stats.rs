//! Cumulative serve-layer counters — the payload of `:stats`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative serve-layer counters. All relaxed atomics: they are
/// monotonic tallies, not synchronization.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Query requests accepted into a queue.
    pub submitted: AtomicU64,
    /// Query requests rejected with [`crate::ServeError::Busy`].
    pub busy_rejected: AtomicU64,
    /// Read requests that reached read scheduling (parsed successfully,
    /// no write target). Conservation: `reads == read_execs + fused +
    /// inflight_joins` — every read is executed, batch-fused, or joined
    /// to an in-flight twin, exactly once.
    pub reads: AtomicU64,
    /// Distinct executions dispatched (read runs count each deduped
    /// plan once; every write counts once).
    pub executed: AtomicU64,
    /// Distinct read plans dispatched to a lane (the read share of
    /// `executed`).
    pub read_execs: AtomicU64,
    /// Requests served by another request's execution in the same run
    /// of reads (fusion followers).
    pub fused: AtomicU64,
    /// Requests that joined an already-executing identical read across a
    /// batch boundary (late fusion joiners).
    pub inflight_joins: AtomicU64,
    /// `parse_query` invocations — at most one per plan-cache miss; the
    /// regression guard for the parse-twice bug the cache subsumed.
    pub parses: AtomicU64,
    /// Requests whose plan came out of the cache.
    pub plan_cache_hits: AtomicU64,
    /// Requests that had to parse (and possibly optimize) from scratch.
    pub plan_cache_misses: AtomicU64,
    /// Update queries applied to the catalog.
    pub writes_applied: AtomicU64,
    /// Plan-cache entries evicted by relation-scoped invalidation —
    /// entries whose read-set intersected an applied write's target
    /// relations. Under the old wholesale `clear()` this would equal the
    /// entire cache population at every write.
    pub cache_evictions_partial: AtomicU64,
    /// Relations scanned for optimizer statistics. An optimizing plan
    /// miss gathers only the relations it names that are not held; a
    /// write folds its change into its target's held entry, except that
    /// the first write to an entry gathers it once more, keeping its
    /// columns. So each relation is gathered at most twice however many
    /// writes apply (more only after a failed or panicking write).
    pub stats_gathers: AtomicU64,
    /// Write tasks dispatched while another write was still in flight —
    /// impossible under the old global quiesce barrier, which drained
    /// every lane before each write applied. Nonzero proves writes to
    /// disjoint relations no longer serialize behind one another.
    pub concurrent_write_batches: AtomicU64,
    /// Standing views successfully installed.
    pub views_installed: AtomicU64,
    /// Delta pages that flowed through standing-view dataflows: base
    /// writes injected at the sources plus the distinct-image pages the
    /// incremental kernels consumed. Zero while no view is installed.
    pub delta_pages: AtomicU64,
    /// View reads served from maintained state. None of these touched
    /// the plan cache or a read lane: a view read never re-executes the
    /// defining tree.
    pub view_reads_served: AtomicU64,
    /// Requests answered with an error (parse, validation, or executor).
    pub failed: AtomicU64,
    /// Batches drained.
    pub batches: AtomicU64,
    /// Request bytes read off client sockets (maintained by the server).
    pub bytes_in: AtomicU64,
    /// Response bytes written to client sockets (maintained by the
    /// server).
    pub bytes_out: AtomicU64,
    /// Distinct executions (read plans and writes) per lane, indexed by
    /// lane id.
    pub lane_execs: Vec<AtomicU64>,
}

impl ServeStats {
    /// Counters for an engine with `lanes` read lanes.
    pub fn with_lanes(lanes: usize) -> ServeStats {
        ServeStats {
            lane_execs: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            ..ServeStats::default()
        }
    }

    /// Snapshot as stable `(name, value)` rows — the payload of
    /// [`crate::Response::Stats`].
    pub fn rows(&self) -> Vec<(String, u64)> {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut rows = vec![
            ("submitted".into(), g(&self.submitted)),
            ("busy_rejected".into(), g(&self.busy_rejected)),
            ("reads".into(), g(&self.reads)),
            ("executed".into(), g(&self.executed)),
            ("read_execs".into(), g(&self.read_execs)),
            ("fused".into(), g(&self.fused)),
            ("inflight_joins".into(), g(&self.inflight_joins)),
            ("parses".into(), g(&self.parses)),
            ("plan_cache_hits".into(), g(&self.plan_cache_hits)),
            ("plan_cache_misses".into(), g(&self.plan_cache_misses)),
            ("writes_applied".into(), g(&self.writes_applied)),
            (
                "cache_evictions_partial".into(),
                g(&self.cache_evictions_partial),
            ),
            ("stats_gathers".into(), g(&self.stats_gathers)),
            (
                "concurrent_write_batches".into(),
                g(&self.concurrent_write_batches),
            ),
            ("views_installed".into(), g(&self.views_installed)),
            ("delta_pages".into(), g(&self.delta_pages)),
            ("view_reads_served".into(), g(&self.view_reads_served)),
            ("failed".into(), g(&self.failed)),
            ("batches".into(), g(&self.batches)),
            ("bytes_in".into(), g(&self.bytes_in)),
            ("bytes_out".into(), g(&self.bytes_out)),
            ("lanes".into(), self.lane_execs.len() as u64),
        ];
        for (i, lane) in self.lane_execs.iter().enumerate() {
            rows.push((format!("lane{i}_execs"), g(lane)));
        }
        rows
    }
}
