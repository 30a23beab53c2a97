//! Machine-readable bench artifacts (`BENCH_<name>.json`).
//!
//! The bench binaries (`host_run --json`, `experiments --json`,
//! `serve_bench`) serialize their metrics into this schema-versioned
//! format; `bench_check` reads artifacts back and fails CI on
//! metric-invariant violations or on drift in the deterministic counters.
//! Wall-clock fields are recorded, never compared: time is gated by the
//! repository benchmark (`benchmark/`). The full field list is documented
//! in `DESIGN.md` §7.

use crate::json::JsonValue;

/// Version stamped into every artifact, and the only one `check` and
/// `compare` accept. Bump on any change to the field layout and
/// regenerate `crates/bench/baselines/` in the same commit.
///
/// A `serve`-kind artifact carries, per sweep row, the fields of four
/// identities that [`BenchArtifact::check`] enforces: read conservation
/// (`reads`, `read_execs`, `fused`, `inflight_joins`), parse accounting
/// (`parses`, `plan_cache_misses`), write-scoped eviction
/// (`cache_evictions_partial`, `writes_applied`) and view quiescence
/// (`views_installed`, `delta_pages`, `view_reads_served`).
pub const SCHEMA_VERSION: u64 = 4;

/// Counters that are deterministic at a fixed scale/page-size/seed and
/// therefore compared for *exact* equality against a committed baseline.
/// Everything else (timings, unit counts, page movement) varies with
/// thread interleaving or host speed and is not compared.
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
    /// Units fired on behalf of the query (schedule-dependent); on the
    /// host, a cell several queries share is charged to the lowest-index
    /// of them.
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

impl SweepRow {
    /// Look up a measurement by name.
    pub fn value(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// A complete bench artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Schema version ([`SCHEMA_VERSION`] when produced by this build).
    pub schema_version: u64,
    /// Artifact name; the conventional file name is `BENCH_<name>.json`.
    pub name: String,
    /// Producer kind: `host`, `ring`, `core`, `sweep`, or `serve`.
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
            .ok_or("missing/invalid `faults_active`")?;
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
        if self.schema_version != SCHEMA_VERSION {
            problems.push(format!(
                "schema_version {} is not the supported version {SCHEMA_VERSION}",
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
        if self.kind == "serve" {
            for row in &self.sweep {
                check_serve_row(row, &mut problems);
            }
        }
        problems
    }

    /// Compare a candidate artifact against a baseline. Returns every
    /// failure found (empty = pass).
    ///
    /// Only deterministic values are compared, and they must match
    /// exactly: [`EXACT_COUNTERS`] and the per-query tuple counts, payload
    /// bytes and failure flags. A counter the baseline records and the
    /// candidate lacks is a failure, not an exemption.
    pub fn compare(base: &BenchArtifact, cand: &BenchArtifact) -> Vec<String> {
        let mut failures = Vec::new();
        for (role, version) in [
            ("baseline", base.schema_version),
            ("candidate", cand.schema_version),
        ] {
            if version != SCHEMA_VERSION {
                failures.push(format!(
                    "{role} schema_version {version} is not the supported version \
                     {SCHEMA_VERSION}"
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
            match (base.counter_value(key), cand.counter_value(key)) {
                (Some(b), Some(c)) if b != c => {
                    failures.push(format!("counter {key}: baseline {b} vs candidate {c}"));
                }
                (Some(b), None) => {
                    failures.push(format!("counter {key}: baseline {b}, candidate lacks it"));
                }
                _ => {}
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
        failures
    }

    /// Evaluate one liveness rule `<key><op><key|number>` over the first
    /// sweep row, e.g. `executed<submitted` or `lanes==2`. `op` is one of
    /// `== != < <= > >=`; there is no arithmetic.
    ///
    /// # Errors
    /// A message when the rule does not hold, does not parse, or names a
    /// key the row lacks.
    pub fn expect(&self, rule: &str) -> Result<(), String> {
        let (at, op) = rule
            .find(['=', '!', '<', '>'])
            .and_then(|at| {
                let ops = ["==", "!=", "<=", ">=", "<", ">"];
                Some((at, ops.into_iter().find(|op| rule[at..].starts_with(op))?))
            })
            .ok_or_else(|| format!("rule `{rule}` has no comparison operator"))?;
        let (lhs, rhs) = (rule[..at].trim(), rule[at + op.len()..].trim());
        let row = self
            .sweep
            .first()
            .ok_or_else(|| format!("rule `{rule}`: artifact has no sweep row"))?;
        let value = |key: &str| {
            row.value(key)
                .ok_or_else(|| format!("rule `{rule}`: unknown key `{key}` in row {}", row.label))
        };
        let left = value(lhs)?;
        let right = match rhs.parse::<f64>() {
            Ok(number) => number,
            Err(_) => value(rhs)?,
        };
        let holds = match op {
            "==" => left == right,
            "!=" => left != right,
            "<=" => left <= right,
            ">=" => left >= right,
            "<" => left < right,
            _ => left > right,
        };
        if holds {
            Ok(())
        } else {
            Err(format!(
                "rule `{rule}` does not hold in row {}: {left} {op} {right}",
                row.label
            ))
        }
    }
}

/// The four identities every row of a `serve`-kind artifact must carry and
/// satisfy; a missing field is a violation, so a load generator that stops
/// emitting one cannot pass by omission.
fn check_serve_row(row: &SweepRow, problems: &mut Vec<String>) {
    let mut missing = Vec::new();
    let mut need = |key: &'static str| {
        row.value(key).unwrap_or_else(|| {
            missing.push(key);
            0.0
        })
    };
    let (reads, execs, fused, joins) = (
        need("reads"),
        need("read_execs"),
        need("fused"),
        need("inflight_joins"),
    );
    let (parses, misses) = (need("parses"), need("plan_cache_misses"));
    let (evictions, writes) = (need("cache_evictions_partial"), need("writes_applied"));
    let (views, delta_pages, view_reads) = (
        need("views_installed"),
        need("delta_pages"),
        need("view_reads_served"),
    );
    if !missing.is_empty() {
        problems.push(format!(
            "sweep {}: serve row lacks {}",
            row.label,
            missing.join(", ")
        ));
        return;
    }
    // Every read request is executed, batch-fused, or joined onto an
    // in-flight execution, exactly once.
    if execs + fused + joins != reads {
        problems.push(format!(
            "sweep {}: read_execs {execs} + fused {fused} + inflight_joins \
             {joins} != reads {reads}",
            row.label
        ));
    }
    // Relation-scoped plan-cache invalidation must never force a parse
    // the cache didn't miss, and only an applied write may evict.
    if parses != misses {
        problems.push(format!(
            "sweep {}: parses {parses} != plan_cache_misses {misses}",
            row.label
        ));
    }
    if writes == 0.0 && evictions != 0.0 {
        problems.push(format!(
            "sweep {}: {evictions} partial cache evictions with zero \
             writes applied",
            row.label
        ));
    }
    // The write path pays the IVM tax only for standing queries that
    // exist, and a view read never re-executes — so with zero views
    // installed, both view counters must be zero.
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
            .ok_or("query row missing `failed`")?,
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
        assert_eq!(BenchArtifact::compare(&a, &a), Vec::<String>::new());
    }

    #[test]
    fn elapsed_time_is_never_compared() {
        let base = sample();
        let mut cand = sample();
        cand.elapsed_secs = base.elapsed_secs * 1.5;
        cand.per_query[1].elapsed_secs = 1.4;
        assert_eq!(BenchArtifact::compare(&base, &cand), Vec::<String>::new());
    }

    #[test]
    fn counter_drift_fails_comparison() {
        let base = sample();
        let mut cand = sample();
        cand.per_query[1].tuples = 21;
        cand.counters[1].1 = 31.0;
        let failures = BenchArtifact::compare(&base, &cand);
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
    fn counter_missing_from_the_candidate_fails_comparison() {
        let base = sample();
        let mut cand = sample();
        cand.counters.retain(|(k, _)| k != "result_tuples");
        let failures = BenchArtifact::compare(&base, &cand);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("result_tuples") && failures[0].contains("lacks"));
        // The other direction is not drift: a candidate may record more.
        assert_eq!(BenchArtifact::compare(&cand, &base), Vec::<String>::new());
    }

    #[test]
    fn schema_mismatch_is_terminal() {
        let base = sample();
        let mut cand = sample();
        cand.schema_version = 99;
        let failures = BenchArtifact::compare(&base, &cand);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("schema_version"));
        assert!(!cand.check().is_empty());
    }

    #[test]
    fn v1_artifact_is_refused_by_check_and_by_compare() {
        for old in [1, 3] {
            let mut base = sample();
            base.schema_version = old;
            let problems = base.check();
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert!(problems[0].contains(&format!("schema_version {old} ")));
            for failures in [
                BenchArtifact::compare(&base, &sample()),
                BenchArtifact::compare(&sample(), &base),
            ] {
                assert_eq!(failures.len(), 1, "{failures:?}");
                assert!(failures[0].contains(&format!("schema_version {old} ")));
            }
        }
        // The reader refuses a file without a field it used to default.
        let text = sample().to_json().replace("\"faults_active\": false,", "");
        let err = BenchArtifact::from_json(&text).expect_err("faults_active is required");
        assert!(err.contains("faults_active"), "{err}");
    }

    /// A `serve` artifact whose one row carries every conserved field,
    /// with `overrides` applied on top of sound defaults.
    fn serve_artifact(overrides: &[(&str, f64)]) -> BenchArtifact {
        let mut values: Vec<(String, f64)> = [
            ("reads", 100.0),
            ("read_execs", 40.0),
            ("fused", 50.0),
            ("inflight_joins", 10.0),
            ("parses", 12.0),
            ("plan_cache_misses", 12.0),
            ("cache_evictions_partial", 4.0),
            ("writes_applied", 3.0),
            ("views_installed", 2.0),
            ("delta_pages", 40.0),
            ("view_reads_served", 16.0),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
        for (key, v) in overrides {
            values.iter_mut().find(|(k, _)| k == key).expect("field").1 = *v;
        }
        let mut a = BenchArtifact::new("serve_x", "serve");
        a.elapsed_secs = 1.0;
        a.sweep = vec![SweepRow {
            label: "mode=closed".to_string(),
            values,
        }];
        a
    }

    #[test]
    fn serve_sweep_conservation_identity_is_enforced() {
        assert_eq!(serve_artifact(&[]).check(), Vec::<String>::new());
        // 40 + 50 + 9 != 100
        let problems = serve_artifact(&[("inflight_joins", 9.0)]).check();
        assert!(
            problems.iter().any(|p| p.contains("inflight_joins")),
            "{problems:?}"
        );
    }

    #[test]
    fn serve_row_missing_a_conserved_field_is_a_violation() {
        for field in [
            "reads",
            "read_execs",
            "fused",
            "inflight_joins",
            "parses",
            "plan_cache_misses",
            "cache_evictions_partial",
            "writes_applied",
            "views_installed",
            "delta_pages",
            "view_reads_served",
        ] {
            let mut a = serve_artifact(&[]);
            a.sweep[0].values.retain(|(k, _)| k != field);
            let problems = a.check();
            assert_eq!(problems.len(), 1, "{field}: {problems:?}");
            assert!(problems[0].contains(&format!("lacks {field}")));
        }
        // Other kinds carry no serve identities: a row without the
        // fields is sound there.
        let mut sweep = serve_artifact(&[]);
        sweep.kind = "sweep".to_string();
        sweep.sweep[0].values.clear();
        assert_eq!(sweep.check(), Vec::<String>::new());
    }

    #[test]
    fn serve_write_path_identities_are_enforced() {
        // Relation-scoped invalidation must never force a redundant
        // parse: parses != plan_cache_misses is a bug.
        let problems = serve_artifact(&[("parses", 13.0)]).check();
        assert!(
            problems.iter().any(|p| p.contains("plan_cache_misses")),
            "{problems:?}"
        );
        // Only writes evict: evictions without writes is a bug.
        let problems = serve_artifact(&[("writes_applied", 0.0)]).check();
        assert!(
            problems
                .iter()
                .any(|p| p.contains("partial cache evictions")),
            "{problems:?}"
        );
        let quiet = serve_artifact(&[("writes_applied", 0.0), ("cache_evictions_partial", 0.0)]);
        assert_eq!(quiet.check(), Vec::<String>::new());
    }

    #[test]
    fn view_quiescence_identities_are_enforced() {
        // With zero views installed, neither maintenance nor view reads
        // may have happened.
        let problems = serve_artifact(&[("views_installed", 0.0)]).check();
        assert!(
            problems.iter().any(|p| p.contains("delta pages")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("view reads served")),
            "{problems:?}"
        );
        let quiet = serve_artifact(&[
            ("views_installed", 0.0),
            ("delta_pages", 0.0),
            ("view_reads_served", 0.0),
        ]);
        assert_eq!(quiet.check(), Vec::<String>::new());
    }

    #[test]
    fn expect_rules_compare_keys_and_numbers() {
        let a = serve_artifact(&[]);
        for rule in [
            "read_execs<reads",
            "read_execs <= reads",
            "parses==plan_cache_misses",
            "views_installed == 2",
            "delta_pages>0",
            "fused >= 50",
            "fused != 0.5",
        ] {
            assert_eq!(a.expect(rule), Ok(()), "{rule}");
        }
        let err = a.expect("reads<read_execs").expect_err("100 < 40 is false");
        assert!(
            err.contains("does not hold") && err.contains("100 < 40"),
            "{err}"
        );
        assert!(a.expect("views_installed==3").is_err());
        // A rule that cannot be evaluated is an error, never a pass.
        let err = a.expect("no_such_key>0").expect_err("unknown key");
        assert!(err.contains("unknown key `no_such_key`"), "{err}");
        let err = a.expect("reads>no_such_key").expect_err("unknown key");
        assert!(err.contains("unknown key `no_such_key`"), "{err}");
        for malformed in ["reads", "reads=100", "fused+inflight_joins>0", ">0"] {
            assert!(a.expect(malformed).is_err(), "{malformed}");
        }
        let err = sample_without_sweep()
            .expect("reads>0")
            .expect_err("no row");
        assert!(err.contains("no sweep row"), "{err}");
    }

    fn sample_without_sweep() -> BenchArtifact {
        let mut a = sample();
        a.sweep.clear();
        a
    }
}
