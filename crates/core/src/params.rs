//! Machine configuration and the cost model.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use df_obs::Tracer;
use df_sim::Duration;
use df_storage::{CacheParams, DiskParams};

/// How results move between chained unary operators.
///
/// The paper's instruction cells materialize a whole result page between
/// every operator (§3.2 fires a cell only when an operand page is
/// complete). `Pipeline` keeps the firing rule but fuses maximal
/// restrict→project→… chains into one [`df_query::Kernel::Unary`] form: the
/// chain's predicates and projections run per tuple over the *input* page
/// and only final survivors are written, so the intermediate pages — and
/// their transfer cost — never exist. Output is byte-identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransferMode {
    /// One materialized result page per operator (the paper's design).
    #[default]
    Materialize,
    /// Fused restrict/project spans: one transfer per chain.
    Pipeline,
}

impl TransferMode {
    /// Both modes, for sweeps.
    pub const ALL: [TransferMode; 2] = [TransferMode::Materialize, TransferMode::Pipeline];
}

impl fmt::Display for TransferMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TransferMode::Materialize => "materialize",
            TransferMode::Pipeline => "pipeline",
        };
        write!(f, "{s}")
    }
}

impl FromStr for TransferMode {
    type Err = String;

    /// Parse the [`fmt::Display`] form back (round-trip guaranteed).
    fn from_str(s: &str) -> Result<TransferMode, String> {
        match s {
            "materialize" => Ok(TransferMode::Materialize),
            "pipeline" => Ok(TransferMode::Pipeline),
            other => Err(format!(
                "unknown transfer mode `{other}` (expected one of: materialize, pipeline)"
            )),
        }
    }
}

/// Per-operation timing constants — the "speed" of an instruction processor
/// and the interconnection networks.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Processor ingest rate in bytes/second. The paper's §4.1 sizes IPs as
    /// "PDP LSI-11s (can read a 16K byte page in 33ms)" — 16384 B / 0.033 s
    /// ≈ 496 kB/s, the default.
    pub proc_bytes_per_sec: f64,
    /// CPU cost per tuple comparison/production (predicate evaluation, join
    /// condition test, projection copy).
    pub per_tuple_cpu: Duration,
    /// Fixed dispatch overhead per work unit (memory-cell fire, control).
    pub per_unit_overhead: Duration,
    /// Arbitration/distribution network bandwidth in bytes/second
    /// (default 40 Mbps = 5 MB/s, the paper's shift-register ring rate).
    pub net_bytes_per_sec: f64,
    /// Fixed network cost per packet (switching + header processing).
    pub per_packet_latency: Duration,
    /// Number of independent network channels. The default of `usize::MAX`
    /// is resolved to the processor count at machine build time — DIRECT
    /// used a cross-point switch, i.e. a non-blocking path per processor.
    pub net_channels: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            proc_bytes_per_sec: 496_000.0,
            per_tuple_cpu: Duration::from_micros(10),
            per_unit_overhead: Duration::from_micros(100),
            net_bytes_per_sec: 5_000_000.0,
            per_packet_latency: Duration::from_micros(50),
            net_channels: usize::MAX,
        }
    }
}

impl CostModel {
    /// Processor service time for a work unit ingesting `operand_bytes` and
    /// performing `tuple_ops` per-tuple operations.
    pub fn compute_time(&self, operand_bytes: usize, tuple_ops: usize) -> Duration {
        self.per_unit_overhead
            + Duration::from_secs_f64(operand_bytes as f64 / self.proc_bytes_per_sec)
            + self.per_tuple_cpu.saturating_mul(tuple_ops as u64)
    }

    /// Network service time for transferring `bytes` split into `packets`.
    pub fn net_time(&self, bytes: usize, packets: usize) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.net_bytes_per_sec)
            + self.per_packet_latency.saturating_mul(packets as u64)
    }
}

/// Full configuration of the simulated machine. It has no join-algorithm
/// knob: every join runs the paper's §2.1 nested loops, one sweep of an
/// outer page against inner pages.
#[derive(Debug, Clone)]
pub struct MachineParams {
    /// Number of instruction processors.
    pub processors: usize,
    /// Memory cells per processor — §3.2's experiment used "two memory
    /// cells for each processor", letting data transfer for one instruction
    /// overlap execution of another.
    pub cells_per_processor: usize,
    /// Page size in bytes (header included) for intermediate results.
    pub page_size: usize,
    /// Per-packet control overhead `c` in bytes (the §3.3 analysis carries
    /// it symbolically; 32 bytes covers Fig 4.3's fixed header fields).
    pub packet_overhead: usize,
    /// For nested-loops joins: how many inner pages one work unit streams
    /// past its outer page. The processor holds the outer page (paper §4.2:
    /// an IP keeps "its current page of the outer" while inner pages are
    /// broadcast to it one by one), so larger batches amortize staging the
    /// outer page without changing results.
    pub max_inner_batch: usize,
    /// Hash-partition blocking finalizers (duplicate-eliminating project,
    /// union, difference) into this many parallel bucket units. `1` (the
    /// default) is the serial finalizer — the state of the art the paper
    /// §5 laments ("we … have not yet developed an algorithm for which a
    /// high degree of parallelism can be maintained"). Values > 1 implement
    /// the hash-partitioned answer: each processor scans the input and
    /// deduplicates its own hash bucket; duplicates always collide in one
    /// bucket, so the union of buckets is exact.
    pub dedup_buckets: usize,
    /// Model the broadcast facility of requirement 4 (§4.0): each join
    /// operand page crosses the interconnect and the cache **once** and is
    /// then held in the participating processors' local memories, instead
    /// of being re-shipped for every page pair. Default `true` (DIRECT's
    /// cross-point switch has it). The `sec_3_3` analysis disables it to
    /// reproduce the paper's pairwise `(n/10)·(m/10)·(2000+c)` formula,
    /// which predates the broadcast design. Tuple-level granularity never
    /// broadcasts — §3.3 charges every tuple pair its own packet.
    pub broadcast_join: bool,
    /// How results move between chained unary operators: `Materialize`
    /// (the paper's page-per-operator design, the default) or `Pipeline`
    /// (compile-time span fusion; see [`TransferMode`]).
    pub transfer: TransferMode,
    /// Processor/network speeds.
    pub cost: CostModel,
    /// Disk cache configuration.
    pub cache: CacheParams,
    /// Mass-storage configuration.
    pub disk: DiskParams,
    /// Structured event tracer (see [`df_obs::Tracer`]). `None` — the
    /// default — costs one branch per would-be event. An installed tracer
    /// receives every arbitration/distribution transfer stamped with
    /// *simulated* time, so traced byte totals equal the
    /// [`crate::Metrics`] counters exactly.
    pub trace: Option<Arc<Tracer>>,
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams {
            processors: 8,
            cells_per_processor: 2,
            page_size: 1016,
            packet_overhead: 32,
            max_inner_batch: 8,
            dedup_buckets: 1,
            broadcast_join: true,
            transfer: TransferMode::default(),
            cost: CostModel::default(),
            cache: CacheParams {
                frames: 1024, // 1024 × ~1 KB pages ≈ 1 MB cache vs 5.5 MB DB
                ..CacheParams::default()
            },
            disk: DiskParams::default(),
            trace: None,
        }
    }
}

impl MachineParams {
    /// Convenience: the default machine with `processors` IPs.
    pub fn with_processors(processors: usize) -> MachineParams {
        MachineParams {
            processors,
            ..MachineParams::default()
        }
    }

    /// Resolved number of network channels (crossbar default = processors).
    pub fn net_channels(&self) -> usize {
        if self.cost.net_channels == usize::MAX {
            self.processors
        } else {
            self.cost.net_channels
        }
    }

    /// Sanity-check the configuration.
    ///
    /// # Panics
    /// Panics on zero processors, cells, or page size too small for the
    /// workloads' schemas (checked later at compile time per relation).
    pub fn validate(&self) {
        assert!(self.processors > 0, "machine needs at least one processor");
        assert!(
            self.cells_per_processor > 0,
            "processors need at least one memory cell"
        );
        assert!(self.page_size > 0, "page size must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsi11_reads_16k_in_33ms() {
        let c = CostModel::default();
        let t = Duration::from_secs_f64(16_384.0 / c.proc_bytes_per_sec);
        assert!((t.as_millis_f64() - 33.0).abs() < 0.1, "{t}");
    }

    #[test]
    fn compute_time_components() {
        let c = CostModel {
            proc_bytes_per_sec: 1e6,
            per_tuple_cpu: Duration::from_micros(1),
            per_unit_overhead: Duration::from_micros(10),
            ..CostModel::default()
        };
        // 1000 bytes at 1 MB/s = 1 ms, plus 5 µs tuple ops, plus 10 µs fixed.
        let t = c.compute_time(1000, 5);
        assert_eq!(t.as_nanos(), 1_000_000 + 5_000 + 10_000);
    }

    #[test]
    fn net_time_components() {
        let c = CostModel {
            net_bytes_per_sec: 5e6,
            per_packet_latency: Duration::from_micros(50),
            ..CostModel::default()
        };
        let t = c.net_time(5_000, 2);
        assert_eq!(t.as_nanos(), 1_000_000 + 100_000);
    }

    #[test]
    fn channel_resolution() {
        let p = MachineParams::with_processors(12);
        assert_eq!(p.net_channels(), 12);
        let mut q = MachineParams::default();
        q.cost.net_channels = 3;
        assert_eq!(q.net_channels(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        MachineParams::with_processors(0).validate();
    }

    #[test]
    fn transfer_mode_display_from_str_round_trips() {
        for mode in TransferMode::ALL {
            let parsed: TransferMode = mode.to_string().parse().unwrap();
            assert_eq!(parsed, mode);
        }
        assert_eq!(
            "pipeline".parse::<TransferMode>().unwrap(),
            TransferMode::Pipeline
        );
        assert!("streaming".parse::<TransferMode>().is_err());
        assert_eq!(TransferMode::default(), TransferMode::Materialize);
        assert_eq!(MachineParams::default().transfer, TransferMode::Materialize);
    }
}
