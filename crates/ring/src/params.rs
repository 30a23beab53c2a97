//! Configuration of the ring machine.

use std::sync::Arc;

use df_core::{CostModel, TransferMode};
use df_obs::Tracer;
use df_sim::Duration;
use df_storage::{CacheParams, DiskParams};

/// Full configuration of the §4 machine. Its IPs join by the paper's §2.1
/// nested loops, each inner page swept against the held outer page; there
/// is no join-algorithm knob.
#[derive(Debug, Clone)]
pub struct RingParams {
    /// Number of instruction controllers.
    pub ics: usize,
    /// Number of instruction processors.
    pub ips: usize,
    /// Inner (control) ring bit rate. Paper §4.1: "a bandwidth of 1-2
    /// million bits per second should be sufficient" — default 2 Mbps.
    pub inner_ring_bps: f64,
    /// Outer (data) ring bit rate. Paper §4.1: 25 ns shift registers give
    /// 40 Mbps — the default.
    pub outer_ring_bps: f64,
    /// Per-hop forwarding latency of the shift-register insertion ring.
    pub hop_latency: Duration,
    /// IP processing speed (defaults to the LSI-11 model of `df-core`).
    pub cost: CostModel,
    /// How results move between chained unary operators: `Materialize`
    /// (one result page per instruction cell, the paper's design) or
    /// `Pipeline` (restrict→project chains fused into spans at compile
    /// time — one IP computation and one result-packet stream per chain,
    /// charged the sum of the step costs but a single transfer).
    pub transfer: TransferMode,
    /// Page size in bytes (header included). Figure 4.2 assumes "16K byte
    /// operands"; the default stays at the §3.3 analysis size of ~1 KB and
    /// the `fig_4_2` bench overrides it.
    pub page_size: usize,
    /// IP local memory capacity in pages (outer page + inner-page queue).
    /// Small values exercise the missed-broadcast / IRC catch-up protocol.
    pub ip_memory_pages: usize,
    /// IC local memory capacity in pages.
    pub ic_memory_pages: usize,
    /// The multiport disk cache shared by the ICs (segmented per IC).
    pub cache: CacheParams,
    /// Mass storage.
    pub disk: DiskParams,
    /// Enable MC concurrency control (requirement 1). When off, every query
    /// is admitted immediately (read-only batches are unaffected).
    pub concurrency_control: bool,
    /// §5 future-work extension: route result pages directly from producer
    /// IP to a consumer IP, skipping the store-and-forward hop through the
    /// destination IC. Reduces outer-ring traffic at the cost of IP
    /// complexity; `abl_direct_route` measures the trade.
    pub direct_routing: bool,
    /// How long after broadcasting an inner page the IC ignores further
    /// *advance* requests for the same page (the paper's requests arriving
    /// "soon afterwards can be ignored"). Must be at least the worst-case
    /// outer-ring transit time for the starvation-freedom argument in
    /// `machine.rs` to hold; [`RingParams::validate`] enforces it.
    pub rebroadcast_window: Duration,
    /// Structured event tracer (see [`df_obs::Tracer`]). `None` — the
    /// default — costs one branch per would-be event. An installed tracer
    /// receives every ring/cache/disk transfer stamped with *simulated*
    /// time, so traced byte totals equal the [`crate::RingMetrics`]
    /// counters exactly.
    pub trace: Option<Arc<Tracer>>,
}

impl Default for RingParams {
    fn default() -> Self {
        RingParams {
            ics: 4,
            ips: 8,
            inner_ring_bps: 2_000_000.0,
            outer_ring_bps: 40_000_000.0,
            hop_latency: Duration::from_micros(2),
            cost: CostModel::default(),
            transfer: TransferMode::default(),
            page_size: 1016,
            ip_memory_pages: 4,
            ic_memory_pages: 64,
            cache: CacheParams {
                frames: 1024,
                ..CacheParams::default()
            },
            disk: DiskParams::default(),
            concurrency_control: true,
            direct_routing: false,
            rebroadcast_window: Duration::from_millis(2),
            trace: None,
        }
    }
}

impl RingParams {
    /// Convenience: default machine with the given pool sizes.
    pub fn with_pools(ics: usize, ips: usize) -> RingParams {
        RingParams {
            ics,
            ips,
            ..RingParams::default()
        }
    }

    /// Worst-case transit time of a `bytes`-byte message on the outer ring
    /// (full circle).
    pub fn outer_transit(&self, bytes: usize) -> Duration {
        let nodes = self.ics + self.ips;
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.outer_ring_bps)
            + self.hop_latency.saturating_mul(nodes as u64)
    }

    /// Check invariants.
    ///
    /// # Panics
    /// Panics on empty pools or a rebroadcast window shorter than the
    /// worst-case page transit (which would break the join protocol's
    /// starvation-freedom guarantee).
    pub fn validate(&self) {
        assert!(self.ics > 0, "machine needs at least one IC");
        assert!(self.ips > 0, "machine needs at least one IP");
        assert!(
            self.ip_memory_pages >= 2,
            "an IP holds an outer page plus at least one inner page"
        );
        let transit = self.outer_transit(self.page_size + 64);
        assert!(
            self.rebroadcast_window >= transit,
            "rebroadcast window {} shorter than worst-case page transit {transit}",
            self.rebroadcast_window
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_rates() {
        let p = RingParams::default();
        assert_eq!(p.outer_ring_bps, 40_000_000.0);
        assert!(p.inner_ring_bps <= 2_000_000.0);
        p.validate();
    }

    #[test]
    fn outer_transit_scales_with_size_and_nodes() {
        let p = RingParams::with_pools(2, 2);
        let small = p.outer_transit(100);
        let big = p.outer_transit(10_000);
        assert!(big > small);
        let wide = RingParams::with_pools(2, 50).outer_transit(100);
        assert!(wide > small);
    }

    #[test]
    #[should_panic(expected = "rebroadcast window")]
    fn tiny_window_rejected() {
        let p = RingParams {
            rebroadcast_window: Duration::from_nanos(1),
            ..RingParams::default()
        };
        p.validate();
    }

    #[test]
    #[should_panic(expected = "at least one IP")]
    fn empty_ip_pool_rejected() {
        RingParams::with_pools(1, 0).validate();
    }
}
