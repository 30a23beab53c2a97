//! Machine-readable bench artifacts (`BENCH_<name>.json`).
//!
//! The bench binaries (`host_run --json`, `experiments --json`) serialize
//! their metrics into this schema-versioned format; `bench_check` reads a
//! pair of artifacts back and fails CI on throughput regressions or
//! metric-invariant violations. The full field list is documented in
//! `DESIGN.md` §7.

use crate::json::JsonValue;

/// Version stamped into every artifact. Bump on any incompatible change
/// to the field layout; `bench_check` refuses versions outside
/// [`MIN_SCHEMA_VERSION`]..=[`SCHEMA_VERSION`].
///
/// v2 added the serve-layer sweep fields (`reads`, `read_execs`,
/// `plan_cache_hits`/`plan_cache_misses`, `inflight_joins`, `lanes`) and
/// their conservation check; every v1 field kept its meaning, so v1
/// baselines remain readable and comparable.
///
/// v3 added the serve write-path fields (`parses`,
/// `cache_evictions_partial`, `concurrent_write_batches`, `mux_clients`
/// — the last no longer emitted since the multiplexed reader was
/// deleted; checks are by field presence, so no version bump)
/// and two checks: `parses == plan_cache_misses` (relation-scoped
/// invalidation never forces a redundant parse) and
/// `cache_evictions_partial == 0` when `writes_applied == 0` (only
/// writes evict). v1/v2 fields kept their meanings, so older baselines
/// remain readable and comparable.
///
/// v4 added the incremental-view fields (`views_installed`,
/// `delta_pages`, `view_reads_served`) and their quiescence check: with
/// no view installed, maintenance must move zero delta pages and serve
/// zero view reads — a nonzero count would mean the write path paid an
/// IVM tax without a standing query to maintain. v1–v3 fields kept
/// their meanings, so older baselines remain readable and comparable.
pub const SCHEMA_VERSION: u64 = 4;

/// Oldest schema version this build still reads, checks, and compares.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// Counters that are deterministic at a fixed scale/page-size/seed and
/// therefore compared for *exact* equality against a committed baseline.
/// Everything else (timings, unit counts, page movement) varies with
/// thread interleaving or host speed and is only threshold-checked.
pub const EXACT_COUNTERS: &[&str] = &["queries", "result_tuples", "result_payload_bytes"];

/// Per-query metrics row (mirrors `df-host`'s `QueryStats`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryRow {
    /// Position of the query in the submitted batch.
    pub index: u64,
    /// Result tuples produced. Deterministic for a fixed workload.
    pub tuples: u64,
    /// Sum of result tuple image lengths in bytes. Deterministic and
    /// packing-independent, so it is also comparable against the
    /// sequential oracle's relation sizes.
    pub result_payload_bytes: u64,
    /// Units fired on behalf of the query (schedule-dependent).
    pub units: u64,
    /// Hash-join probe units among `units`.
    pub probe_units: u64,
    /// Join sweep units among `units`.
    pub sweep_units: u64,
    /// Pages that crossed the distribution path for the query.
    pub pages_moved: u64,
    /// Bytes those pages carried.
    pub bytes_moved: u64,
    /// Wall-clock from admission to completion, seconds.
    pub elapsed_secs: f64,
    /// True when the query was concluded with an error.
    pub failed: bool,
}

/// One named bandwidth-demand curve (an `IntervalSeries` rendered to Mbps).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRow {
    /// Which path the curve measures (e.g. `distribution`, `outer_ring`).
    pub path: String,
    /// Bucket width in seconds.
    pub interval_secs: f64,
    /// Average demand within each bucket, megabits per second.
    pub mbps: Vec<f64>,
}

/// One row of a parameter sweep (e.g. one IP count of Figure 4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Row label, e.g. `ips=8`.
    pub label: String,
    /// Named measurements for the row.
    pub values: Vec<(String, f64)>,
}

/// A complete bench artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Schema version ([`SCHEMA_VERSION`] when produced by this build).
    pub schema_version: u64,
    /// Artifact name; the conventional file name is `BENCH_<name>.json`.
    pub name: String,
    /// Producer kind: `host`, `ring`, `core`, or `sweep`.
    pub kind: String,
    /// Run configuration as ordered key/value strings (scale, workers, …).
    pub params: Vec<(String, String)>,
    /// Batch wall-clock (host) or simulated makespan (sims), seconds.
    pub elapsed_secs: f64,
    /// Flat named counters (bytes, units, tuples, …).
    pub counters: Vec<(String, f64)>,
    /// Per-query rows; empty for sweep artifacts.
    pub per_query: Vec<QueryRow>,
    /// Bandwidth-demand curves; may be empty.
    pub series: Vec<SeriesRow>,
    /// Sweep rows; empty for single-run artifacts.
    pub sweep: Vec<SweepRow>,
    /// True when fault injection was active. Cross-stat conservation
    /// invariants are skipped in that case: a dying worker takes its
    /// in-progress counts with it.
    pub faults_active: bool,
}

impl BenchArtifact {
    /// An empty artifact of the current schema version.
    pub fn new(name: &str, kind: &str) -> BenchArtifact {
        BenchArtifact {
            schema_version: SCHEMA_VERSION,
            name: name.to_string(),
            kind: kind.to_string(),
            params: Vec::new(),
            elapsed_secs: 0.0,
            counters: Vec::new(),
            per_query: Vec::new(),
            series: Vec::new(),
            sweep: Vec::new(),
            faults_active: false,
        }
    }

    /// Record a configuration parameter.
    pub fn param(&mut self, key: &str, value: impl ToString) -> &mut BenchArtifact {
        self.params.push((key.to_string(), value.to_string()));
        self
    }

    /// Record a named counter.
    pub fn counter(&mut self, key: &str, value: f64) -> &mut BenchArtifact {
        self.counters.push((key.to_string(), value));
        self
    }

    /// Look up a counter by name.
    pub fn counter_value(&self, key: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }

    /// Serialize to the pretty-printed on-disk form.
    pub fn to_json(&self) -> String {
        let mut doc = JsonValue::obj();
        doc.set("schema_version", self.schema_version)
            .set("name", self.name.as_str())
            .set("kind", self.kind.as_str())
            .set("elapsed_secs", self.elapsed_secs)
            .set("faults_active", self.faults_active);
        let mut params = JsonValue::obj();
        for (k, v) in &self.params {
            params.set(k, v.as_str());
        }
        doc.set("params", params);
        let mut counters = JsonValue::obj();
        for (k, v) in &self.counters {
            counters.set(k, *v);
        }
        doc.set("counters", counters);
        doc.set(
            "per_query",
            JsonValue::Arr(self.per_query.iter().map(query_row_to_json).collect()),
        );
        doc.set(
            "series",
            JsonValue::Arr(
                self.series
                    .iter()
                    .map(|s| {
                        let mut row = JsonValue::obj();
                        row.set("path", s.path.as_str())
                            .set("interval_secs", s.interval_secs)
                            .set(
                                "mbps",
                                JsonValue::Arr(s.mbps.iter().map(|&m| m.into()).collect()),
                            );
                        row
                    })
                    .collect(),
            ),
        );
        doc.set(
            "sweep",
            JsonValue::Arr(
                self.sweep
                    .iter()
                    .map(|s| {
                        let mut row = JsonValue::obj();
                        let mut values = JsonValue::obj();
                        for (k, v) in &s.values {
                            values.set(k, *v);
                        }
                        row.set("label", s.label.as_str()).set("values", values);
                        row
                    })
                    .collect(),
            ),
        );
        doc.to_pretty()
    }

    /// Parse an artifact back from JSON text.
    ///
    /// # Errors
    /// Returns a message naming the malformed or missing field.
    pub fn from_json(text: &str) -> Result<BenchArtifact, String> {
        let doc = JsonValue::parse(text)?;
        let need_u64 = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing/invalid `{key}`"))
        };
        let need_str = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing/invalid `{key}`"))
        };
        let mut artifact = BenchArtifact::new(&need_str("name")?, &need_str("kind")?);
        artifact.schema_version = need_u64("schema_version")?;
        artifact.elapsed_secs = doc
            .get("elapsed_secs")
            .and_then(JsonValue::as_f64)
            .ok_or("missing/invalid `elapsed_secs`")?;
        artifact.faults_active = doc
            .get("faults_active")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false);
        if let Some(JsonValue::Obj(map)) = doc.get("params") {
            for (k, v) in map {
                let v = v
                    .as_str()
                    .ok_or_else(|| format!("param `{k}` not a string"))?;
                artifact.params.push((k.clone(), v.to_string()));
            }
        }
        if let Some(JsonValue::Obj(map)) = doc.get("counters") {
            for (k, v) in map {
                let v = v
                    .as_f64()
                    .ok_or_else(|| format!("counter `{k}` not a number"))?;
                artifact.counters.push((k.clone(), v));
            }
        }
        for row in doc
            .get("per_query")
            .and_then(JsonValue::as_arr)
            .unwrap_or(&[])
        {
            artifact.per_query.push(query_row_from_json(row)?);
        }
        for row in doc.get("series").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            let mbps = row
                .get("mbps")
                .and_then(JsonValue::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|v| v.as_f64().ok_or("series mbps entry not a number"))
                .collect::<Result<Vec<f64>, _>>()?;
            artifact.series.push(SeriesRow {
                path: row
                    .get("path")
                    .and_then(JsonValue::as_str)
                    .ok_or("series row missing `path`")?
                    .to_string(),
                interval_secs: row
                    .get("interval_secs")
                    .and_then(JsonValue::as_f64)
                    .ok_or("series row missing `interval_secs`")?,
                mbps,
            });
        }
        for row in doc.get("sweep").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            let mut values = Vec::new();
            if let Some(JsonValue::Obj(map)) = row.get("values") {
                for (k, v) in map {
                    let v = v
                        .as_f64()
                        .ok_or_else(|| format!("sweep value `{k}` not a number"))?;
                    values.push((k.clone(), v));
                }
            }
            artifact.sweep.push(SweepRow {
                label: row
                    .get("label")
                    .and_then(JsonValue::as_str)
                    .ok_or("sweep row missing `label`")?
                    .to_string(),
                values,
            });
        }
        Ok(artifact)
    }

    /// Validate the artifact's internal metric invariants. Returns every
    /// violation found (empty = sound).
    pub fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&self.schema_version) {
            problems.push(format!(
                "schema_version {} outside supported {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        if !self.elapsed_secs.is_finite() || self.elapsed_secs < 0.0 {
            problems.push(format!("elapsed_secs {} not a duration", self.elapsed_secs));
        }
        for q in &self.per_query {
            // Probe and sweep kernels are disjoint classes of join units,
            // and every one of them fired as a unit of this query.
            if q.probe_units + q.sweep_units > q.units {
                problems.push(format!(
                    "query {}: probe_units {} + sweep_units {} > units {}",
                    q.index, q.probe_units, q.sweep_units, q.units
                ));
            }
            if q.tuples > 0 && q.result_payload_bytes == 0 {
                problems.push(format!(
                    "query {}: {} tuples but zero payload bytes",
                    q.index, q.tuples
                ));
            }
            if !q.failed && q.elapsed_secs > self.elapsed_secs + 1e-6 {
                problems.push(format!(
                    "query {}: elapsed {}s exceeds batch elapsed {}s",
                    q.index, q.elapsed_secs, self.elapsed_secs
                ));
            }
        }
        // Batch-level counters must agree with the per-query sums. Skipped
        // under fault injection: a killed worker loses in-progress stats.
        if !self.faults_active && !self.per_query.is_empty() {
            let sums: [(&str, u64); 2] = [
                (
                    "result_tuples",
                    self.per_query.iter().map(|q| q.tuples).sum(),
                ),
                (
                    "result_payload_bytes",
                    self.per_query.iter().map(|q| q.result_payload_bytes).sum(),
                ),
            ];
            for (key, expect) in sums {
                if let Some(got) = self.counter_value(key) {
                    if got != expect as f64 {
                        problems.push(format!("counter {key} {got} != per-query sum {expect}"));
                    }
                }
            }
        }
        for s in &self.series {
            if s.interval_secs <= 0.0 {
                problems.push(format!("series {}: non-positive interval", s.path));
            }
            if s.mbps.iter().any(|m| !m.is_finite() || *m < 0.0) {
                problems.push(format!("series {}: negative/non-finite demand", s.path));
            }
        }
        // Serve-layer read conservation (schema v2): every read request is
        // executed, batch-fused, or joined onto an in-flight execution,
        // exactly once. Rows without the v2 fields (v1 baselines) are
        // skipped, keeping old artifacts valid.
        for row in &self.sweep {
            let get = |key: &str| row.values.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
            if let (Some(reads), Some(execs), Some(fused), Some(joins)) = (
                get("reads"),
                get("read_execs"),
                get("fused"),
                get("inflight_joins"),
            ) {
                if execs + fused + joins != reads {
                    problems.push(format!(
                        "sweep {}: read_execs {execs} + fused {fused} + inflight_joins \
                         {joins} != reads {reads}",
                        row.label
                    ));
                }
            }
            // Serve write-path identities (schema v3). Relation-scoped
            // plan-cache invalidation must never force a parse the cache
            // didn't miss, and only an applied write may evict.
            if let (Some(parses), Some(misses)) = (get("parses"), get("plan_cache_misses")) {
                if parses != misses {
                    problems.push(format!(
                        "sweep {}: parses {parses} != plan_cache_misses {misses}",
                        row.label
                    ));
                }
            }
            if let (Some(evictions), Some(writes)) =
                (get("cache_evictions_partial"), get("writes_applied"))
            {
                if writes == 0.0 && evictions != 0.0 {
                    problems.push(format!(
                        "sweep {}: {evictions} partial cache evictions with zero \
                         writes applied",
                        row.label
                    ));
                }
            }
            // Incremental-view quiescence (schema v4): the write path pays
            // the IVM tax only for standing queries that exist, and a view
            // read never re-executes — so with zero views installed, both
            // view counters must be zero.
            if let (Some(views), Some(delta_pages), Some(view_reads)) = (
                get("views_installed"),
                get("delta_pages"),
                get("view_reads_served"),
            ) {
                if views == 0.0 && delta_pages != 0.0 {
                    problems.push(format!(
                        "sweep {}: {delta_pages} delta pages moved with zero views \
                         installed",
                        row.label
                    ));
                }
                if views == 0.0 && view_reads != 0.0 {
                    problems.push(format!(
                        "sweep {}: {view_reads} view reads served with zero views \
                         installed",
                        row.label
                    ));
                }
            }
        }
        problems
    }

    /// Compare a candidate artifact against a baseline. Returns every
    /// failure found (empty = pass).
    ///
    /// Deterministic counters ([`EXACT_COUNTERS`] and per-query tuple and
    /// payload counts) must match exactly; wall-clock may regress by at
    /// most [`CompareOptions::max_regression`] (skipped entirely under
    /// [`CompareOptions::counters_only`], for baselines recorded on a
    /// different machine).
    pub fn compare(
        base: &BenchArtifact,
        cand: &BenchArtifact,
        opts: &CompareOptions,
    ) -> Vec<String> {
        let mut failures = Vec::new();
        // Any supported-version pair compares: every v1 field kept its
        // meaning in v2, so a committed v1 baseline still gates a v2
        // candidate. Unsupported versions are terminal.
        for (role, version) in [
            ("baseline", base.schema_version),
            ("candidate", cand.schema_version),
        ] {
            if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&version) {
                failures.push(format!(
                    "{role} schema_version {version} outside supported \
                     {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION}"
                ));
            }
        }
        if !failures.is_empty() {
            return failures;
        }
        if base.kind != cand.kind {
            failures.push(format!(
                "kind mismatch: baseline `{}` vs candidate `{}`",
                base.kind, cand.kind
            ));
        }
        for key in EXACT_COUNTERS {
            if let (Some(b), Some(c)) = (base.counter_value(key), cand.counter_value(key)) {
                if b != c {
                    failures.push(format!("counter {key}: baseline {b} vs candidate {c}"));
                }
            }
        }
        if base.per_query.len() != cand.per_query.len() {
            failures.push(format!(
                "query count: baseline {} vs candidate {}",
                base.per_query.len(),
                cand.per_query.len()
            ));
        }
        for (b, c) in base.per_query.iter().zip(&cand.per_query) {
            if b.tuples != c.tuples {
                failures.push(format!(
                    "query {}: tuples baseline {} vs candidate {}",
                    b.index, b.tuples, c.tuples
                ));
            }
            if b.result_payload_bytes != c.result_payload_bytes {
                failures.push(format!(
                    "query {}: payload bytes baseline {} vs candidate {}",
                    b.index, b.result_payload_bytes, c.result_payload_bytes
                ));
            }
            if b.failed != c.failed {
                failures.push(format!(
                    "query {}: failed baseline {} vs candidate {}",
                    b.index, b.failed, c.failed
                ));
            }
        }
        if !opts.counters_only && base.elapsed_secs > 0.0 {
            let limit = base.elapsed_secs * (1.0 + opts.max_regression);
            if cand.elapsed_secs > limit {
                failures.push(format!(
                    "throughput regression: elapsed {:.4}s vs baseline {:.4}s (limit {:.4}s at +{:.0}%)",
                    cand.elapsed_secs,
                    base.elapsed_secs,
                    limit,
                    opts.max_regression * 100.0
                ));
            }
        }
        failures
    }
}

/// Knobs for [`BenchArtifact::compare`].
#[derive(Debug, Clone)]
pub struct CompareOptions {
    /// Maximum tolerated fractional wall-clock regression (0.25 = +25%).
    pub max_regression: f64,
    /// Skip timing checks entirely; compare deterministic counters only.
    /// The right mode against a committed baseline, whose timings came
    /// from a different machine.
    pub counters_only: bool,
}

impl Default for CompareOptions {
    fn default() -> CompareOptions {
        CompareOptions {
            max_regression: 0.25,
            counters_only: false,
        }
    }
}

fn query_row_to_json(q: &QueryRow) -> JsonValue {
    let mut row = JsonValue::obj();
    row.set("index", q.index)
        .set("tuples", q.tuples)
        .set("result_payload_bytes", q.result_payload_bytes)
        .set("units", q.units)
        .set("probe_units", q.probe_units)
        .set("sweep_units", q.sweep_units)
        .set("pages_moved", q.pages_moved)
        .set("bytes_moved", q.bytes_moved)
        .set("elapsed_secs", q.elapsed_secs)
        .set("failed", q.failed);
    row
}

fn query_row_from_json(row: &JsonValue) -> Result<QueryRow, String> {
    let u = |key: &str| {
        row.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("query row missing `{key}`"))
    };
    Ok(QueryRow {
        index: u("index")?,
        tuples: u("tuples")?,
        result_payload_bytes: u("result_payload_bytes")?,
        units: u("units")?,
        probe_units: u("probe_units")?,
        sweep_units: u("sweep_units")?,
        pages_moved: u("pages_moved")?,
        bytes_moved: u("bytes_moved")?,
        elapsed_secs: row
            .get("elapsed_secs")
            .and_then(JsonValue::as_f64)
            .ok_or("query row missing `elapsed_secs`")?,
        failed: row
            .get("failed")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchArtifact {
        let mut a = BenchArtifact::new("host_smoke", "host");
        a.param("scale", "0.05").param("workers", 2u32);
        a.elapsed_secs = 1.0;
        a.counter("queries", 2.0)
            .counter("result_tuples", 30.0)
            .counter("result_payload_bytes", 900.0);
        a.per_query = vec![
            QueryRow {
                index: 0,
                tuples: 10,
                result_payload_bytes: 300,
                units: 8,
                probe_units: 3,
                sweep_units: 2,
                pages_moved: 6,
                bytes_moved: 6096,
                elapsed_secs: 0.4,
                failed: false,
            },
            QueryRow {
                index: 1,
                tuples: 20,
                result_payload_bytes: 600,
                units: 5,
                probe_units: 0,
                sweep_units: 0,
                pages_moved: 4,
                bytes_moved: 4064,
                elapsed_secs: 0.9,
                failed: false,
            },
        ];
        a.series = vec![SeriesRow {
            path: "distribution".to_string(),
            interval_secs: 0.001,
            mbps: vec![4.0, 0.0, 8.0],
        }];
        a.sweep = vec![SweepRow {
            label: "ips=8".to_string(),
            values: vec![("mbps".to_string(), 12.5)],
        }];
        a
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let a = sample();
        let back = BenchArtifact::from_json(&a.to_json()).expect("parses");
        // params/counters come back BTreeMap-sorted; compare as sets.
        let sorted = |mut art: BenchArtifact| {
            art.params.sort();
            art.counters.sort_by(|x, y| x.0.cmp(&y.0));
            art
        };
        assert_eq!(sorted(back), sorted(a));
    }

    #[test]
    fn sound_artifact_passes_check() {
        assert_eq!(sample().check(), Vec::<String>::new());
    }

    #[test]
    fn check_catches_invariant_violations() {
        let mut a = sample();
        a.per_query[0].probe_units = 100; // probe + sweep > units
        a.counters[1].1 = 31.0; // result_tuples != per-query sum
        let problems = a.check();
        assert!(
            problems.iter().any(|p| p.contains("probe_units")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("result_tuples")),
            "{problems:?}"
        );
    }

    #[test]
    fn faults_skip_conservation_checks() {
        let mut a = sample();
        a.counters[1].1 = 31.0;
        a.faults_active = true;
        assert_eq!(a.check(), Vec::<String>::new());
    }

    #[test]
    fn self_comparison_passes() {
        let a = sample();
        assert_eq!(
            BenchArtifact::compare(&a, &a, &CompareOptions::default()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn synthetic_fifty_percent_regression_fails() {
        let base = sample();
        let mut cand = sample();
        cand.elapsed_secs = base.elapsed_secs * 1.5;
        let failures = BenchArtifact::compare(&base, &cand, &CompareOptions::default());
        assert!(
            failures.iter().any(|f| f.contains("throughput regression")),
            "{failures:?}"
        );
        // ...but counters-only mode tolerates any timing.
        let opts = CompareOptions {
            counters_only: true,
            ..CompareOptions::default()
        };
        assert_eq!(
            BenchArtifact::compare(&base, &cand, &opts),
            Vec::<String>::new()
        );
    }

    #[test]
    fn counter_drift_fails_comparison() {
        let base = sample();
        let mut cand = sample();
        cand.per_query[1].tuples = 21;
        cand.counters[1].1 = 31.0;
        let failures = BenchArtifact::compare(&base, &cand, &CompareOptions::default());
        assert!(
            failures.iter().any(|f| f.contains("query 1: tuples")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("result_tuples")),
            "{failures:?}"
        );
    }

    #[test]
    fn schema_mismatch_is_terminal() {
        let base = sample();
        let mut cand = sample();
        cand.schema_version = 99;
        let failures = BenchArtifact::compare(&base, &cand, &CompareOptions::default());
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("schema_version"));
        assert!(!cand.check().is_empty());
    }

    #[test]
    fn v1_baseline_still_checks_and_gates_a_v2_candidate() {
        let mut base = sample();
        base.schema_version = MIN_SCHEMA_VERSION;
        assert_eq!(base.check(), Vec::<String>::new(), "v1 stays valid");
        let cand = sample();
        assert_eq!(cand.schema_version, SCHEMA_VERSION);
        assert_eq!(
            BenchArtifact::compare(&base, &cand, &CompareOptions::default()),
            Vec::<String>::new()
        );
        // Deterministic-counter drift is still caught across versions.
        let mut drifted = cand;
        drifted.counters[1].1 = 31.0;
        assert!(!BenchArtifact::compare(&base, &drifted, &CompareOptions::default()).is_empty());
    }

    #[test]
    fn serve_sweep_conservation_identity_is_enforced() {
        let mut a = BenchArtifact::new("serve_x", "serve");
        a.elapsed_secs = 1.0;
        a.sweep = vec![SweepRow {
            label: "clients=8".to_string(),
            values: vec![
                ("reads".to_string(), 100.0),
                ("read_execs".to_string(), 40.0),
                ("fused".to_string(), 50.0),
                ("inflight_joins".to_string(), 10.0),
            ],
        }];
        assert_eq!(a.check(), Vec::<String>::new());
        a.sweep[0].values[3].1 = 9.0; // 40 + 50 + 9 != 100
        let problems = a.check();
        assert!(
            problems.iter().any(|p| p.contains("inflight_joins")),
            "{problems:?}"
        );
        // A v1-shaped row (fields absent) is exempt from the identity.
        let mut v1 = BenchArtifact::new("serve_old", "serve");
        v1.schema_version = MIN_SCHEMA_VERSION;
        v1.elapsed_secs = 1.0;
        v1.sweep = vec![SweepRow {
            label: "clients=8".to_string(),
            values: vec![("qps".to_string(), 185.0)],
        }];
        assert_eq!(v1.check(), Vec::<String>::new());
    }

    #[test]
    fn serve_write_path_identities_are_enforced() {
        let mut a = BenchArtifact::new("serve_w", "serve");
        a.elapsed_secs = 1.0;
        a.sweep = vec![SweepRow {
            label: "mode=closed".to_string(),
            values: vec![
                ("parses".to_string(), 12.0),
                ("plan_cache_misses".to_string(), 12.0),
                ("cache_evictions_partial".to_string(), 4.0),
                ("writes_applied".to_string(), 3.0),
            ],
        }];
        assert_eq!(a.check(), Vec::<String>::new());

        // Relation-scoped invalidation must never force a redundant
        // parse: parses != plan_cache_misses is a bug.
        a.sweep[0].values[0].1 = 13.0;
        let problems = a.check();
        assert!(
            problems.iter().any(|p| p.contains("plan_cache_misses")),
            "{problems:?}"
        );
        a.sweep[0].values[0].1 = 12.0;

        // Only writes evict: evictions without writes is a bug.
        a.sweep[0].values[3].1 = 0.0;
        let problems = a.check();
        assert!(
            problems
                .iter()
                .any(|p| p.contains("partial cache evictions")),
            "{problems:?}"
        );
        a.sweep[0].values[2].1 = 0.0;
        assert_eq!(a.check(), Vec::<String>::new());

        // Rows without the v3 fields (older baselines) stay exempt.
        let mut v2 = BenchArtifact::new("serve_v2", "serve");
        v2.schema_version = 2;
        v2.elapsed_secs = 1.0;
        v2.sweep = vec![SweepRow {
            label: "mode=closed".to_string(),
            values: vec![
                ("reads".to_string(), 10.0),
                ("read_execs".to_string(), 10.0),
                ("fused".to_string(), 0.0),
                ("inflight_joins".to_string(), 0.0),
            ],
        }];
        assert_eq!(v2.check(), Vec::<String>::new());
    }

    #[test]
    fn view_quiescence_identities_are_enforced() {
        let mut a = BenchArtifact::new("serve_ivm", "serve");
        a.elapsed_secs = 1.0;
        a.sweep = vec![SweepRow {
            label: "mix=view-read".to_string(),
            values: vec![
                ("views_installed".to_string(), 2.0),
                ("delta_pages".to_string(), 40.0),
                ("view_reads_served".to_string(), 16.0),
            ],
        }];
        assert_eq!(a.check(), Vec::<String>::new());

        // With zero views installed, neither maintenance nor view reads
        // may have happened.
        a.sweep[0].values[0].1 = 0.0;
        let problems = a.check();
        assert!(
            problems.iter().any(|p| p.contains("delta pages")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("view reads served")),
            "{problems:?}"
        );
        a.sweep[0].values[1].1 = 0.0;
        a.sweep[0].values[2].1 = 0.0;
        assert_eq!(a.check(), Vec::<String>::new());

        // Rows without the v4 fields (older baselines) stay exempt.
        let mut v3 = BenchArtifact::new("serve_v3", "serve");
        v3.schema_version = 3;
        v3.elapsed_secs = 1.0;
        v3.sweep = vec![SweepRow {
            label: "mode=closed".to_string(),
            values: vec![
                ("parses".to_string(), 12.0),
                ("plan_cache_misses".to_string(), 12.0),
            ],
        }];
        assert_eq!(v3.check(), Vec::<String>::new());
    }
}
