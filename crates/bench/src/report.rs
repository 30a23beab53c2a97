//! Build and write `BENCH_<name>.json` artifacts from run metrics.
//!
//! One builder per executor (`host`, `core`, `ring`) plus a generic sweep
//! artifact. The schema lives in `df-obs` (`BenchArtifact`, documented in
//! DESIGN.md §7); this module only maps each executor's metrics onto it.

use std::io;
use std::path::{Path, PathBuf};

use df_core::Metrics;
use df_host::{HostParams, HostRunOutput};
use df_obs::{BenchArtifact, IntervalSeries, QueryRow, SeriesRow, SweepRow};
use df_ring::{RingMetrics, RingParams};

/// Map one `IntervalSeries` onto a named artifact series row. Empty series
/// (path never carried a byte) are omitted from artifacts.
pub fn series_row(path: &str, s: &IntervalSeries) -> Option<SeriesRow> {
    if s.is_empty() {
        return None;
    }
    Some(SeriesRow {
        path: path.to_string(),
        interval_secs: s.interval_secs(),
        mbps: s.mbps_series(),
    })
}

/// Build the `host`-kind artifact for one `host_run` batch.
pub fn host_artifact(
    name: &str,
    scale: f64,
    params: &HostParams,
    out: &HostRunOutput,
) -> BenchArtifact {
    let m = &out.metrics;
    let mut a = BenchArtifact::new(name, "host");
    a.param("scale", scale)
        .param("workers", params.workers)
        .param("page_size", params.page_size)
        .param("join", params.join)
        .param("transfer", params.transfer);
    a.elapsed_secs = m.elapsed.as_secs_f64();
    a.faults_active = params.fault.is_active();
    a.counter("queries", m.per_query.len() as f64)
        .counter(
            "result_tuples",
            m.per_query.iter().map(|q| q.result_tuples as f64).sum(),
        )
        .counter(
            "result_payload_bytes",
            m.per_query
                .iter()
                .map(|q| q.result_payload_bytes as f64)
                .sum(),
        )
        .counter("units", m.total_units() as f64)
        .counter("kernel_spans", m.total_kernel_spans() as f64)
        .counter("bytes_moved", m.total_bytes() as f64)
        .counter("worker_utilization", m.worker_utilization())
        .counter(
            "send_wait_secs",
            m.per_worker.iter().map(|w| w.send_wait.as_secs_f64()).sum(),
        )
        .counter("kernel_panics", m.total_panics() as f64)
        .counter("workers_lost", m.workers_lost() as f64);
    for (i, q) in m.per_query.iter().enumerate() {
        a.per_query.push(QueryRow {
            index: i as u64,
            tuples: q.result_tuples as u64,
            result_payload_bytes: q.result_payload_bytes,
            units: q.units_fired as u64,
            probe_units: q.probe_units as u64,
            sweep_units: q.sweep_units as u64,
            pages_moved: q.pages_moved as u64,
            bytes_moved: q.bytes_moved,
            elapsed_secs: q.elapsed.as_secs_f64(),
            failed: out.results.get(i).is_some_and(|r| r.is_err()),
        });
    }
    a
}

/// Build the `core`-kind artifact for one df-core simulation, including
/// its arbitration/distribution bandwidth-demand curves.
pub fn core_artifact(name: &str, m: &Metrics) -> BenchArtifact {
    let mut a = BenchArtifact::new(name, "core");
    a.param("processors", m.processors);
    a.elapsed_secs = m.elapsed.as_secs_f64();
    a.counter("queries", m.query_completions.len() as f64)
        .counter("units", m.units_dispatched as f64)
        .counter("arbitration_bytes", m.arbitration.bytes as f64)
        .counter("distribution_bytes", m.distribution.bytes as f64)
        .counter("disk_read_bytes", m.disk_read.bytes as f64)
        .counter("disk_write_bytes", m.disk_write.bytes as f64)
        .counter("arbitration_mbps", m.arbitration_mbps())
        .counter("distribution_mbps", m.distribution_mbps())
        .counter("processor_utilization", m.processor_utilization());
    a.series = m
        .bandwidth_series()
        .iter()
        .filter_map(|(path, s)| series_row(path, s))
        .collect();
    a
}

/// Build the `ring`-kind artifact for one ring-machine run, including the
/// Figure-4.2 bandwidth-demand curves.
pub fn ring_artifact(name: &str, params: &RingParams, m: &RingMetrics) -> BenchArtifact {
    let mut a = BenchArtifact::new(name, "ring");
    a.param("ics", params.ics)
        .param("ips", params.ips)
        .param("page_size", params.page_size);
    a.elapsed_secs = m.elapsed.as_secs_f64();
    a.counter("queries", m.query_completions.len() as f64)
        .counter("outer_ring_bytes", m.outer_ring.bytes as f64)
        .counter("inner_ring_bytes", m.inner_ring.bytes as f64)
        .counter("outer_ring_mbps", m.outer_ring_mbps())
        .counter("inner_ring_mbps", m.inner_ring_mbps())
        .counter("cache_mbps", m.cache_mbps())
        .counter("disk_mbps", m.disk_mbps())
        .counter("ip_utilization", m.ip_utilization())
        .counter("broadcasts", m.broadcasts as f64);
    a.series = m
        .bandwidth_series()
        .iter()
        .filter_map(|(path, s)| series_row(path, s))
        .collect();
    a
}

/// Build a `sweep`-kind artifact from labelled measurement rows (one row
/// per swept configuration, e.g. one IP count of Figure 4.2).
pub fn sweep_artifact(name: &str, rows: Vec<SweepRow>) -> BenchArtifact {
    let mut a = BenchArtifact::new(name, "sweep");
    a.counter("rows", rows.len() as f64);
    a.sweep = rows;
    a
}

/// Write an artifact to `dir/BENCH_<name>.json`, creating `dir` if needed.
/// Returns the path written.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_artifact(dir: &Path, a: &BenchArtifact) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{}.json", a.name));
    std::fs::write(&path, a.to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup_with_page_size;

    #[test]
    fn host_artifact_is_sound_and_round_trips() {
        let s = setup_with_page_size(0.02, 1016);
        let params = HostParams {
            workers: 2,
            deterministic: true,
            ..HostParams::default()
        };
        let out = df_host::run_host_queries(&s.db, &s.queries, &params).expect("host run");
        let a = host_artifact("unit_smoke", 0.02, &params, &out);
        assert_eq!(a.check(), Vec::<String>::new());
        assert_eq!(a.per_query.len(), s.queries.len());
        assert!(a.counter_value("result_tuples").unwrap() > 0.0);
        let back = BenchArtifact::from_json(&a.to_json()).expect("round trip");
        assert_eq!(back.per_query, a.per_query);
        // And it passes comparison against its own round trip.
        assert_eq!(BenchArtifact::compare(&a, &back), Vec::<String>::new());
    }

    #[test]
    fn core_artifact_carries_bandwidth_series() {
        let s = setup_with_page_size(0.02, 1016);
        let params = crate::fig31_params(&s, 4);
        let m = crate::run_core(&s, &params, df_core::Granularity::Page);
        let a = core_artifact("core_smoke", &m);
        assert_eq!(a.check(), Vec::<String>::new());
        assert!(
            a.series.iter().any(|r| r.path == "arbitration"),
            "series: {:?}",
            a.series.iter().map(|r| &r.path).collect::<Vec<_>>()
        );
        // Series totals must agree with the ByteCounter the same transfers
        // fed: reconstruct bytes from the Mbps buckets.
        let row = a.series.iter().find(|r| r.path == "arbitration").unwrap();
        let total: f64 = row
            .mbps
            .iter()
            .map(|mbps| mbps * row.interval_secs * 1e6 / 8.0)
            .sum();
        let expect = m.arbitration.bytes as f64;
        assert!(
            (total - expect).abs() < expect * 1e-9 + 1.0,
            "series total {total} vs counter {expect}"
        );
    }

    #[test]
    fn write_artifact_places_file_by_name() {
        let dir = std::env::temp_dir().join("df_bench_report_test");
        let a = BenchArtifact::new("placement", "sweep");
        let path = write_artifact(&dir, &a).expect("writes");
        assert!(path.ends_with("BENCH_placement.json"));
        let text = std::fs::read_to_string(&path).expect("readable");
        assert!(BenchArtifact::from_json(&text).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
