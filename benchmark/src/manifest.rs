//! The declared surface of the benchmark: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repository root is exactly [`render`]'s output (a unit test
//! holds them together), and [`crate::report::Report`] refuses a metric
//! name that is not declared here.

use df_obs::JsonValue;

/// How long one run measures, in seconds (`--seconds` default and
/// `BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The one command that builds and runs the benchmark.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];

/// Directories holding the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// One workload: a fixed name later issues cite, and why it exists.
pub struct Workload {
    /// Stable name (`--workload`).
    pub name: &'static str,
    /// One line: which layer it loads and what should not move it.
    pub why: &'static str,
}

/// The five workloads, in run order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "batch-nested",
        why: "ten paper queries in-process, nested-loops join + materialize (the paper's configuration): df-query join/restrict kernels dominate; serve, proto and the simulators do no work",
    },
    Workload {
        name: "batch-hash",
        why: "same batch with hash join + pipeline: kernels shrink, so df-host scheduling, worker spawn, channels, key-index build and page transfer dominate; a kernel-only change should not move it",
    },
    Workload {
        name: "serve-read",
        why: "zipf reads over 256 texts against the 128-entry plan cache via TCP to a df-serve child: per-request fixed cost (codec, admission, plan hit and miss, lanes, host floor, socket); kernels idle",
    },
    Workload {
        name: "serve-write",
        why: "append/view-read/read/delete cycles on view base r01 and on r11 via TCP: stage/apply write, relation gate, view deltas, plan eviction, stats invalidation; shows read gains that tax writes",
    },
    Workload {
        name: "sim-paper",
        why: "host time of the paper reproduction: df-core page-level run plus the df-ring Fig 4.2 point over the ten queries; simulated statistics are pinned, so a speed-up must leave them identical",
    },
];

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A user-visible metric with the relative worsening that counts as a
/// regression.
pub struct EndToEnd {
    /// Metric name (the same six on every workload).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The six end-to-end metrics every workload reports. The timings are
/// normalised by the yardstick's speed factor (`yardstick.rs`). Every
/// bound but `ok_ratio`'s is a tenth: `AA.md` holds the run-to-run
/// spreads (raw and normalised) that were judged against it.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "ok_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
    },
];

/// Which workloads a per-layer metric applies to. A traced run prints
/// the applicable metrics; the closing JSON line carries every declared
/// name, with 0 for the ones outside the workload's scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every workload.
    All,
    /// Workloads that call `run_host_queries` from the benchmark's own
    /// files: the batch workloads, and the served ones via stage replay.
    Host,
    /// `serve-read` and `serve-write`.
    Serve,
    /// `serve-read` only.
    ServeRead,
    /// `serve-write` only.
    ServeWrite,
    /// `sim-paper` only.
    Sim,
}

impl Scope {
    /// Whether a metric of this scope applies to `workload`.
    pub fn covers(self, workload: &str) -> bool {
        let batch = workload.starts_with("batch-");
        let serve = workload.starts_with("serve-");
        match self {
            Scope::All => true,
            Scope::Host => batch || serve,
            Scope::Serve => serve,
            Scope::ServeRead => workload == "serve-read",
            Scope::ServeWrite => workload == "serve-write",
            Scope::Sim => workload == "sim-paper",
        }
    }
}

/// A metric of one layer (module names are the layers). Never gated.
pub struct Layer {
    /// `<crate>.<module>.<what>_<unit>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Workloads it applies to.
    pub scope: Scope,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, scope: Scope) -> Layer {
    Layer {
        name,
        unit,
        better,
        scope,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric a traced run reports, grouped by crate.
pub const PER_LAYER: &[Layer] = &[
    // df-relalg
    layer("relalg.key_index_build_mib_s", "MiB/s", Higher, Scope::All),
    layer("relalg.key_index_probe_ns", "ns", Lower, Scope::All),
    layer("relalg.catalog_mib", "MiB", Lower, Scope::All),
    // df-query kernels, over the workload's own pages
    layer("query.ops.restrict_mib_s", "MiB/s", Higher, Scope::All),
    layer("query.ops.project_mib_s", "MiB/s", Higher, Scope::All),
    layer("query.ops.span_mib_s", "MiB/s", Higher, Scope::All),
    layer("query.ops.join_nested_mib_s", "MiB/s", Higher, Scope::All),
    layer("query.ops.join_hash_mib_s", "MiB/s", Higher, Scope::All),
    layer("query.ops.dedup_mib_s", "MiB/s", Higher, Scope::All),
    layer("query.ops.union_mib_s", "MiB/s", Higher, Scope::All),
    layer("query.ops.difference_mib_s", "MiB/s", Higher, Scope::All),
    // df-query front and back end
    layer("query.parse_us", "us", Lower, Scope::All),
    layer("query.render_us", "us", Lower, Scope::All),
    layer("query.stage_write_us", "us", Lower, Scope::All),
    layer("query.apply_write_us", "us", Lower, Scope::All),
    layer("query.oracle_batch_ms", "ms", Lower, Scope::All),
    // df-opt
    layer("opt.optimize_us", "us", Lower, Scope::All),
    layer("opt.stats_gather_ms", "ms", Lower, Scope::All),
    // df-host executor
    layer("host.batch_ms", "ms", Lower, Scope::Host),
    layer("host.units", "count", Lower, Scope::Host),
    layer("host.probe_units", "count", Lower, Scope::Host),
    layer("host.sweep_units", "count", Lower, Scope::Host),
    layer("host.kernel_spans", "count", Lower, Scope::Host),
    layer("host.bytes_moved_mib", "MiB", Lower, Scope::Host),
    layer("host.worker_busy_ms", "ms", Lower, Scope::Host),
    layer("host.worker_util", "ratio", Higher, Scope::Host),
    layer("host.send_wait_ms", "ms", Lower, Scope::Host),
    layer("host.sched_gap_ms", "ms", Lower, Scope::Host),
    layer("host.failed_units", "count", Lower, Scope::Host),
    layer("host.requeued_units", "count", Lower, Scope::Host),
    layer("host.speedup_vs_oracle", "ratio", Higher, Scope::Host),
    layer("host.call_floor_us", "us", Lower, Scope::Host),
    // df-host views
    layer("host.view.install_ms", "ms", Lower, Scope::All),
    layer("host.view.apply_us", "us", Lower, Scope::All),
    layer(
        "host.view.delta_pages_per_write",
        "count",
        Lower,
        Scope::All,
    ),
    layer("host.view.read_us", "us", Lower, Scope::All),
    // df-serve proto
    layer("serve.proto.req_codec_ns", "ns", Lower, Scope::All),
    layer("serve.proto.resp_encode_mib_s", "MiB/s", Higher, Scope::All),
    layer("serve.proto.resp_decode_mib_s", "MiB/s", Higher, Scope::All),
    layer("serve.proto.frame_mib_s", "MiB/s", Higher, Scope::All),
    // df-serve engine and server
    layer("serve.engine.submit_us", "us", Lower, Scope::All),
    layer("serve.server.rtt_us", "us", Lower, Scope::Serve),
    layer("serve.server.boot_ms", "ms", Lower, Scope::Serve),
    layer("serve.engine.batches", "count", Lower, Scope::Serve),
    layer("serve.engine.reqs_per_batch", "ratio", Higher, Scope::Serve),
    layer("serve.engine.fused_ratio", "ratio", Higher, Scope::Serve),
    layer(
        "serve.engine.plan_cache_hit_ratio",
        "ratio",
        Higher,
        Scope::Serve,
    ),
    layer("serve.engine.parses", "count", Lower, Scope::Serve),
    layer("serve.engine.cache_evictions", "count", Lower, Scope::Serve),
    layer("serve.engine.busy_rejected", "count", Lower, Scope::Serve),
    layer("serve.engine.failed", "count", Lower, Scope::Serve),
    layer("serve.engine.lane_imbalance", "ratio", Lower, Scope::Serve),
    layer("serve.engine.writes_applied", "count", Higher, Scope::Serve),
    layer(
        "serve.engine.concurrent_write_batches",
        "count",
        Higher,
        Scope::Serve,
    ),
    layer("serve.engine.delta_pages", "count", Lower, Scope::Serve),
    layer("serve.engine.view_reads", "count", Higher, Scope::Serve),
    layer("serve.server.bytes_in", "count", Lower, Scope::Serve),
    layer("serve.server.bytes_out", "count", Lower, Scope::Serve),
    // Stage replay: the parts of one served op's round trip
    layer("serve.replay.decode_us", "us", Lower, Scope::Serve),
    layer("serve.replay.plan_us", "us", Lower, Scope::Serve),
    layer("serve.replay.host_us", "us", Lower, Scope::Serve),
    layer("serve.replay.encode_us", "us", Lower, Scope::Serve),
    layer("serve.replay.residual_us", "us", Lower, Scope::Serve),
    // Client side
    layer("client.p95_ms", "ms", Lower, Scope::All),
    layer("client.p99_ms", "ms", Lower, Scope::All),
    layer("client.max_ms", "ms", Lower, Scope::All),
    layer("client.read_p50_ms", "ms", Lower, Scope::Serve),
    layer("client.write_p50_ms", "ms", Lower, Scope::ServeWrite),
    layer("client.view_read_p50_ms", "ms", Lower, Scope::ServeWrite),
    layer("client.result_mib_s", "MiB/s", Higher, Scope::All),
    layer("client.cpu_ms_per_op", "ms", Lower, Scope::Serve),
    layer("client.open_p50_ms", "ms", Lower, Scope::ServeRead),
    layer("client.open_p99_ms", "ms", Lower, Scope::ServeRead),
    layer("client.late_ms", "ms", Lower, Scope::ServeRead),
    // Simulators: host time, then exact simulated statistics
    layer("core.sim_run_ms", "ms", Lower, Scope::Sim),
    layer("core.units_per_host_s", "1/s", Higher, Scope::Sim),
    layer("ring.sim_run_ms", "ms", Lower, Scope::Sim),
    layer("ring.packets_per_host_s", "1/s", Higher, Scope::Sim),
    layer("core.sim_elapsed_ms", "ms", Lower, Scope::Sim),
    layer("core.proc_util", "ratio", Higher, Scope::Sim),
    layer("core.arbitration_mib", "MiB", Lower, Scope::Sim),
    layer("core.distribution_mib", "MiB", Lower, Scope::Sim),
    layer("ring.sim_elapsed_ms", "ms", Lower, Scope::Sim),
    layer("ring.ip_util", "ratio", Higher, Scope::Sim),
    layer("ring.outer_ring_mbps", "Mbps", Lower, Scope::Sim),
    layer("ring.inner_ring_mbps", "Mbps", Lower, Scope::Sim),
    layer("storage.disk_read_mib", "MiB", Lower, Scope::Sim),
    layer("storage.cache_in_mib", "MiB", Lower, Scope::Sim),
    layer("storage.cache_read_ns", "ns", Lower, Scope::Sim),
    layer("sim.event_queue_ns", "ns", Lower, Scope::Sim),
    layer("sim.digest_ok", "count", Higher, Scope::Sim),
    // df-obs, df-workload, and the benchmark itself
    layer("obs.tracer_record_ns", "ns", Lower, Scope::All),
    layer("workload.dbgen_ms", "ms", Lower, Scope::All),
    layer("workload.queries_build_ms", "ms", Lower, Scope::All),
    layer("trace.overhead_ratio", "ratio", Higher, Scope::All),
    // What the end-to-end timings were before normalisation
    layer("bench.speed_factor", "ratio", Lower, Scope::All),
    layer("client.raw_p50_ms", "ms", Lower, Scope::All),
    layer("client.raw_ops_per_s", "1/s", Higher, Scope::All),
];

/// Unit of a declared metric (end-to-end or per-layer), `None` for an
/// undeclared name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// The workload declaration named `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn render() -> String {
    let strs = |items: &[&str]| JsonValue::Arr(items.iter().map(|s| (*s).into()).collect());
    let mut root = JsonValue::obj();
    root.set("command", strs(&COMMAND))
        .set("paths", strs(&PATHS))
        .set("run_seconds", RUN_SECONDS as f64)
        .set(
            "workloads",
            JsonValue::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        let mut o = JsonValue::obj();
                        o.set("name", w.name).set("why", w.why);
                        o
                    })
                    .collect(),
            ),
        )
        .set(
            "end_to_end",
            JsonValue::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut o = JsonValue::obj();
                        o.set("name", m.name)
                            .set("unit", m.unit)
                            .set("better", m.better.name())
                            .set("bound", m.bound);
                        o
                    })
                    .collect(),
            ),
        )
        .set(
            "per_layer",
            JsonValue::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        let mut o = JsonValue::obj();
                        o.set("name", m.name)
                            .set("unit", m.unit)
                            .set("better", m.better.name());
                        o
                    })
                    .collect(),
            ),
        );
    root.to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn manifest_output_is_the_committed_benchmark_json() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            render(),
            committed,
            "BENCHMARK.json is stale: regenerate it with `bash benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn declarations_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(render().len() <= 64 * 1024);

        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            // The contract allows 0.25; this benchmark promises a tenth.
            assert!(m.bound > 0.0 && m.bound <= 0.10, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn every_layer_metric_applies_somewhere_and_scopes_partition_sanely() {
        for m in PER_LAYER {
            assert!(
                WORKLOADS.iter().any(|w| m.scope.covers(w.name)),
                "{} applies to no workload",
                m.name
            );
        }
        assert!(Scope::Host.covers("batch-hash") && Scope::Host.covers("serve-write"));
        assert!(!Scope::Host.covers("sim-paper"));
        assert!(Scope::ServeRead.covers("serve-read") && !Scope::ServeRead.covers("serve-write"));
        assert_eq!(unit_of("ops_per_s"), Some("1/s"));
        assert_eq!(unit_of("host.units"), Some("count"));
        assert_eq!(unit_of("nope"), None);
    }
}
