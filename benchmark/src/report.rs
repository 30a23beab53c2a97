//! Metric rows of one run: printed as `workload  name  value unit  n=…`
//! and closed by the contract's one-line JSON.

use df_obs::JsonValue;

use crate::manifest::{self, END_TO_END, PER_LAYER};
use crate::stats;

/// The metrics one run of one workload produced.
pub struct Report {
    workload: &'static str,
    rows: Vec<(&'static str, f64)>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            rows: Vec::new(),
        }
    }

    /// Record and print one metric. `n` is the sample count behind the
    /// value (0 for a single reading).
    ///
    /// # Panics
    /// Panics on a name `manifest` does not declare: every printed
    /// metric is a declared one.
    pub fn put(&mut self, name: &'static str, value: f64, n: usize) {
        let unit = manifest::unit_of(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in manifest.rs"));
        // JSON has no NaN; a ratio over an empty sample reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        let samples = if n > 0 {
            format!("  n={n}")
        } else {
            String::new()
        };
        println!("{}  {name}  {value} {unit}{samples}", self.workload);
        self.rows.push((name, value));
    }

    /// Print a comment line (`workload  # text`).
    pub fn note(&self, text: &str) {
        println!("{}  # {text}", self.workload);
    }

    /// Record a latency sample's tail percentiles: p95, p99 and max under
    /// `client.*`, plus a line naming the highest percentile that still
    /// has at least ten samples beyond it.
    pub fn put_tail(&mut self, sorted_ms: &[f64]) {
        let n = sorted_ms.len();
        self.put("client.p95_ms", stats::percentile(sorted_ms, 0.95), n);
        self.put("client.p99_ms", stats::percentile(sorted_ms, 0.99), n);
        self.put("client.max_ms", sorted_ms.last().copied().unwrap_or(0.0), n);
        self.note_highest_percentile(sorted_ms);
    }

    /// Name the highest percentile of a latency sample (as measured, ms,
    /// ascending) that still has at least ten samples beyond it.
    pub fn note_highest_percentile(&self, sorted_ms: &[f64]) {
        let n = sorted_ms.len();
        match stats::highest_supported_percentile(n) {
            Some(p) => self.note(&format!(
                "highest percentile with >= 10 samples beyond it (as measured): p{} = {} ms  n={n}",
                p * 100.0,
                stats::percentile(sorted_ms, p)
            )),
            None => self.note(&format!(
                "too few samples (n={n}) for any percentile to have 10 beyond it"
            )),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Per-layer metrics that apply to this workload but were never
    /// recorded — a traced run must print every applicable one.
    pub fn missing_layers(&self) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .filter(|m| m.scope.covers(self.workload) && self.get(m.name).is_none())
            .map(|m| m.name)
            .collect()
    }

    /// The contract's closing line: `correct`, `attempted`, `failed` and
    /// `metrics` — every end-to-end metric for an untraced run, every
    /// per-layer metric (0 outside the workload's scope) for a traced one.
    pub fn closing_json(&self, traced: bool, correct: bool, attempted: u64, failed: u64) -> String {
        let declared: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut metrics = JsonValue::obj();
        for (name, unit) in declared {
            let mut m = JsonValue::obj();
            m.set("value", self.get(name).unwrap_or(0.0))
                .set("unit", unit);
            metrics.set(name, m);
        }
        let mut root = JsonValue::obj();
        root.set("correct", correct)
            .set("attempted", attempted)
            .set("failed", failed)
            .set("metrics", metrics);
        root.to_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closing_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("batch-hash");
        for m in &END_TO_END {
            r.put(m.name, 1.25, 3);
        }
        let line = r.closing_json(false, true, 10, 0);
        assert!(!line.contains('\n'));
        let v = JsonValue::parse(&line).expect("valid json");
        let JsonValue::Obj(map) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let JsonValue::Obj(metrics) = &map["metrics"] else {
            panic!("metrics not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = &metrics["setup_s"];
        assert_eq!(setup.get("value").and_then(JsonValue::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));
    }

    #[test]
    fn traced_closing_line_names_every_layer_metric() {
        let mut r = Report::new("sim-paper");
        r.put("sim.digest_ok", 30.0, 0);
        r.put("host.units", f64::NAN, 0);
        let v = JsonValue::parse(&r.closing_json(true, true, 1, 0)).expect("valid json");
        let JsonValue::Obj(metrics) = v.get("metrics").expect("metrics") else {
            panic!("metrics not an object")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |name: &str| metrics[name].get("value").and_then(JsonValue::as_f64);
        assert_eq!(value("sim.digest_ok"), Some(30.0));
        assert_eq!(value("host.units"), Some(0.0), "NaN reads 0");
        assert_eq!(
            value("serve.engine.batches"),
            Some(0.0),
            "out of scope reads 0"
        );
    }

    #[test]
    fn missing_layers_lists_only_metrics_in_the_workloads_scope() {
        let mut r = Report::new("sim-paper");
        let before = r.missing_layers();
        assert!(before.contains(&"sim.digest_ok") && before.contains(&"query.parse_us"));
        assert!(!before.contains(&"serve.engine.batches"));
        assert!(!before.contains(&"host.units"));
        r.put("sim.digest_ok", 31.0, 0);
        assert_eq!(r.missing_layers().len(), before.len() - 1);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_names_are_refused() {
        Report::new("batch-hash").put("made.up_metric", 1.0, 0);
    }
}
