//! Host-executor metrics: real (wall-clock) time, not simulated time.

use std::time::Duration;

/// What one processor — the caller (entry 0) or a helper thread — did.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Runs this processor served, each one or more units; entry 0's
    /// include the caller's own.
    pub runs: usize,
    /// Work units executed, panicked ones included.
    pub units: usize,
    /// Logical kernel spans executed. Equal to `units` in materialize
    /// mode; in pipeline mode a fused span unit contributes one span per
    /// chained operator, so this stays comparable across transfer modes
    /// (and equals the worker's traced `KernelStart`/`KernelEnd` count).
    pub kernel_spans: usize,
    /// Work units whose kernel panicked (caught and reported, never
    /// propagated — the thread keeps serving).
    pub panics: usize,
    /// Bytes of operand pages received (wire bytes, header included).
    pub bytes_in: u64,
    /// Bytes of result pages produced.
    pub bytes_out: u64,
    /// Time spent serving runs: operator kernels and packing their output
    /// pages, successful units or panicked. While a tracer records, it is
    /// the sum of each unit's own clock pair (what its kernel spans
    /// carry); untraced, it is one clock pair per run, packing included.
    pub busy: Duration,
    /// A helper's time inside the send of each completion into the
    /// arbitration channel, separate from `busy` (zero for the caller).
    /// The channel is sized so a send never blocks on a full buffer; what
    /// this measures is the send itself plus, on a CPU shared with the
    /// scheduler, the time the woken scheduler runs before the helper gets
    /// the CPU back.
    pub send_wait: Duration,
    /// A helper's thread lifetime, spawn to shutdown — nonzero even for
    /// one that never received a unit; `wall - busy - send_wait` is idle +
    /// dispatch-channel time. The caller's entry and every entry without a
    /// thread report the call's wall time.
    pub wall: Duration,
    /// The helper died mid-run (its thread exited before shutdown); the
    /// scheduler shrank the pool and requeued its in-flight run.
    pub lost: bool,
}

impl WorkerStats {
    /// Fraction of the thread's lifetime spent executing kernels.
    pub fn utilization(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / self.wall.as_secs_f64()
        }
    }

    /// One human-readable summary row for the processor named `who`
    /// (`caller`, `worker 3`) — the per-worker line `host_run` prints.
    /// Every accumulated duration is surfaced, `send_wait` (time inside
    /// completion sends) included.
    pub fn summary_row(&self, who: &str) -> String {
        format!(
            "{who:>9}: {:>5} runs, {:>6} units ({:>6} spans), busy {:>10.2?}, send_wait {:>9.2?}, wall {:>10.2?} ({:>4.1}%){}",
            self.runs,
            self.units,
            self.kernel_spans,
            self.busy,
            self.send_wait,
            self.wall,
            self.utilization() * 100.0,
            if self.lost { "  [lost]" } else { "" }
        )
    }
}

/// What one query cost. A cell that several queries read is charged to
/// the lowest-index of them alone, so each work count below (units,
/// pages, bytes) sums over the batch to what the call did, once; the
/// result counts are the query's own.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Work units fired across the instruction cells the query is charged
    /// with, including units that ended in a contained panic.
    pub units_fired: usize,
    /// Units whose kernel panicked — nonzero only for queries whose
    /// result is a [`crate::HostError::UnitPanicked`] (every reader of
    /// the panicked cell gets one; its owner is charged the unit).
    pub failed_units: usize,
    /// Units requeued because the worker holding their run died; they
    /// were re-dispatched to a surviving worker.
    pub requeued_units: usize,
    /// Pair-sweep units whose every page pair went through the hash-index
    /// probe path (`JoinAlgo::Hash` on an applicable equi-join).
    pub probe_units: usize,
    /// Pair-sweep units that ran a nested-loops or cross-product sweep
    /// (the nested algorithm, a non-equi θ-join fallback, or a cross
    /// product). `probe_units + sweep_units` is the pair-unit total.
    pub sweep_units: usize,
    /// Pages that crossed the distribution network for this query
    /// (operand pages dispatched to workers plus result pages returned).
    pub pages_moved: usize,
    /// Bytes those pages carried.
    pub bytes_moved: u64,
    /// Tuples in the query's result relation (0 for a failed query).
    pub result_tuples: usize,
    /// Sum of the result tuples' image lengths in bytes. Unlike
    /// `bytes_moved` this is packing-independent (no page headers, no
    /// partially filled pages), so it is directly comparable to the
    /// sequential oracle's relation payload — the `trace_invariants`
    /// differential tests rely on that.
    pub result_payload_bytes: u64,
    /// Wall time from the start of the call, when every query is
    /// admitted, to the query's completion (to its failure for a failed
    /// query).
    pub elapsed: Duration,
}

/// Metrics of one [`crate::run_host_queries`] call.
#[derive(Debug, Clone, Default)]
pub struct HostMetrics {
    /// Wall time of the whole batch (admission of the first query to
    /// completion of the last).
    pub elapsed: Duration,
    /// Instruction cells the call ran: its plans' live nodes after
    /// identical subtrees merged into one cell each. A scan leaf is no
    /// cell (its relation feeds its consumers' ports); a bare-scan root
    /// is one.
    pub cells: usize,
    /// Per-query costs, in input order.
    pub per_query: Vec<QueryStats>,
    /// Per-worker activity, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
    /// Time the scheduler spent writing join sides — indexing or keying
    /// each delivered batch of pages a pair-sweep cell keeps — untraced,
    /// one clock pair per batch. It lies on the caller's path outside
    /// every run, so no worker's `busy` includes it.
    pub side_build: Duration,
    /// Tuples those writes indexed ([`df_relalg::SideKeyIndex`]) or keyed
    /// ([`df_relalg::SideKeyColumn`]); a side that keeps its pages alone
    /// adds none.
    pub side_tuples: u64,
}

impl HostMetrics {
    /// Total work units executed by all workers.
    pub fn total_units(&self) -> usize {
        self.per_worker.iter().map(|w| w.units).sum()
    }

    /// Total runs the call dispatched, whichever processor served them —
    /// the caller's own runs included.
    pub fn total_runs(&self) -> usize {
        self.per_worker.iter().map(|w| w.runs).sum()
    }

    /// Total logical kernel spans executed by all workers (≥
    /// [`HostMetrics::total_units`]; strictly greater when pipeline mode
    /// fused any chain).
    pub fn total_kernel_spans(&self) -> usize {
        self.per_worker.iter().map(|w| w.kernel_spans).sum()
    }

    /// Total kernel panics contained across all workers.
    pub fn total_panics(&self) -> usize {
        self.per_worker.iter().map(|w| w.panics).sum()
    }

    /// Workers that died mid-run (pool shrinkage).
    pub fn workers_lost(&self) -> usize {
        self.per_worker.iter().filter(|w| w.lost).count()
    }

    /// Total bytes moved through workers (in + out).
    pub fn total_bytes(&self) -> u64 {
        self.per_worker
            .iter()
            .map(|w| w.bytes_in + w.bytes_out)
            .sum()
    }

    /// Mean worker utilization (busy / wall), 0.0 with no workers.
    pub fn worker_utilization(&self) -> f64 {
        if self.per_worker.is_empty() {
            0.0
        } else {
            self.per_worker
                .iter()
                .map(WorkerStats::utilization)
                .sum::<f64>()
                / self.per_worker.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let w = WorkerStats {
            runs: 2,
            units: 4,
            bytes_in: 100,
            bytes_out: 50,
            busy: Duration::from_millis(25),
            wall: Duration::from_millis(100),
            ..WorkerStats::default()
        };
        assert!((w.utilization() - 0.25).abs() < 1e-9);
        assert_eq!(WorkerStats::default().utilization(), 0.0);

        let m = HostMetrics {
            elapsed: Duration::from_millis(100),
            per_worker: vec![w.clone(), WorkerStats::default()],
            ..HostMetrics::default()
        };
        assert_eq!(m.total_runs(), 2);
        assert_eq!(m.total_units(), 4);
        assert_eq!(m.total_bytes(), 150);
        assert!((m.worker_utilization() - 0.125).abs() < 1e-9);
        assert_eq!(HostMetrics::default().worker_utilization(), 0.0);
    }

    #[test]
    fn summary_row_surfaces_send_wait() {
        let w = WorkerStats {
            units: 7,
            busy: Duration::from_millis(40),
            send_wait: Duration::from_millis(15),
            wall: Duration::from_millis(100),
            ..WorkerStats::default()
        };
        let row = w.summary_row("worker 3");
        assert!(row.contains("worker 3: "), "{row}");
        assert!(row.contains("7 units"), "{row}");
        assert!(row.contains("send_wait"), "{row}");
        assert!(row.contains("15.00ms"), "send_wait value rendered: {row}");
        assert!(!row.contains("[lost]"), "{row}");
        let lost = WorkerStats {
            lost: true,
            ..WorkerStats::default()
        };
        assert!(lost.summary_row("caller").contains("[lost]"));
    }

    #[test]
    fn fault_counters() {
        let lost = WorkerStats {
            lost: true,
            ..WorkerStats::default()
        };
        let panicky = WorkerStats {
            units: 3,
            panics: 2,
            ..WorkerStats::default()
        };
        let m = HostMetrics {
            elapsed: Duration::from_millis(1),
            per_worker: vec![lost, panicky, WorkerStats::default()],
            ..HostMetrics::default()
        };
        assert_eq!(m.total_panics(), 2);
        assert_eq!(m.workers_lost(), 1);
        assert_eq!(m.total_units(), 3);
    }
}
