//! Shared helpers for the measurement binaries: the standard benchmark
//! set-up and machine configurations, the load-generator mixes
//! ([`loadgen`]) and the `BENCH_*.json` builders ([`report`]).
//!
//! Each question has one instrument. The paper's figures and ablations
//! (simulated time, deterministic in the seed) are printed by the
//! `experiments` binary and recorded in `EXPERIMENTS.md`; exact counters
//! go from `host_run` / `serve_bench` through `BENCH_*.json` artifacts to
//! `bench_check`; host time is measured and compared by the repository
//! benchmark (`bash benchmark/run.sh`) and nowhere in this crate.

pub mod loadgen;
pub mod report;

use df_core::{run_queries, AllocationStrategy, Granularity, MachineParams, Metrics};
use df_query::QueryTree;
use df_relalg::Catalog;
use df_ring::{run_ring_queries, RingMetrics, RingParams};
use df_workload::{benchmark_queries, generate_database, BenchmarkSpec};

/// A ready-to-run benchmark instance: database + the ten queries.
pub struct BenchSetup {
    /// The generated database.
    pub db: Catalog,
    /// The ten-query benchmark.
    pub queries: Vec<QueryTree>,
    /// The spec it was generated from.
    pub spec: BenchmarkSpec,
}

/// Build the benchmark at `scale` (1.0 = the paper's 5.5 MB database).
pub fn setup(scale: f64) -> BenchSetup {
    setup_with_page_size(scale, 1016)
}

/// Build the benchmark with a specific page size for both the stored
/// database and the machines. Figure 4.2 assumes "16K byte operands", which
/// means the *source relations* are paged at 16 KB too.
pub fn setup_with_page_size(scale: f64, page_size: usize) -> BenchSetup {
    let mut spec = if scale >= 1.0 {
        BenchmarkSpec::paper()
    } else {
        BenchmarkSpec::scaled(scale)
    };
    spec.database.page_size = page_size;
    let db = generate_database(&spec.database);
    let queries = benchmark_queries(&db, &spec).expect("benchmark queries build");
    BenchSetup { db, queries, spec }
}

/// The machine configuration used for Figure 3.1 style experiments: cache
/// at roughly one third of the database — the moderate-pressure regime in
/// which relation-level materialization spills intermediates to disk while
/// page-level pipelining's working sets still fit (harsher caches start
/// thrashing page-level too and the gap collapses; see the calibration
/// notes in EXPERIMENTS.md).
pub fn fig31_params(setup: &BenchSetup, processors: usize) -> MachineParams {
    let mut p = MachineParams::with_processors(processors);
    let db_pages = setup.db.total_bytes() / p.page_size;
    p.cache.frames = (db_pages / 3).max(16);
    p
}

/// Run the benchmark batch on the df-core machine.
pub fn run_core(setup: &BenchSetup, params: &MachineParams, g: Granularity) -> Metrics {
    run_queries(
        &setup.db,
        &setup.queries,
        params,
        g,
        AllocationStrategy::default(),
    )
    .expect("benchmark batch runs")
    .metrics
}

/// Run the benchmark batch on the ring machine.
pub fn run_ring(setup: &BenchSetup, params: &RingParams) -> RingMetrics {
    run_ring_queries(&setup.db, &setup.queries, params)
        .expect("ring benchmark runs")
        .metrics
}

/// Ring configuration for Figure 4.2: 16 KB operand pages (the figure's
/// stated assumption), a cache sized to hold the working database, and no
/// concurrency control (the benchmark is read-only).
pub fn fig42_params(setup: &BenchSetup, ips: usize) -> RingParams {
    let mut p = RingParams::with_pools(8, ips);
    p.page_size = setup.spec.database.page_size;
    let db_pages = setup.db.total_bytes() / p.page_size;
    p.cache.frames = (db_pages * 2).max(64);
    p.ic_memory_pages = 32;
    p.ip_memory_pages = 4;
    p.concurrency_control = false;
    // The "soon afterwards" window must cover a worst-case 16 KB page
    // transit (RingParams::validate enforces it).
    p.rebroadcast_window = p.outer_transit(p.page_size + 64).saturating_mul(2);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_builds_at_small_scale() {
        let s = setup(0.01);
        assert_eq!(s.db.len(), 15);
        assert_eq!(s.queries.len(), 10);
        let params = fig31_params(&s, 4);
        assert!(params.cache.frames >= 16);
    }

    #[test]
    fn core_and_ring_smoke() {
        let s = setup(0.01);
        let m = run_core(&s, &fig31_params(&s, 4), Granularity::Page);
        assert!(m.elapsed.as_nanos() > 0);
        let mut rp = RingParams::with_pools(2, 4);
        rp.cache.frames = 128;
        let rm = run_ring(&s, &rp);
        assert!(rm.elapsed.as_nanos() > 0);
    }
}
