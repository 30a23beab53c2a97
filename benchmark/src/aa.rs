//! `aa`: two interleaved sets of runs of the *same* build, compared the
//! way a parent/change pair would be. If two sets of identical code
//! disagree by more than a metric's bound, or their runs spread by more
//! than it, the benchmark — not the program — is at fault, and the
//! metric's estimator must be fixed. The same runs' timings as measured
//! are tabulated beside the reported (normalised) ones.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use df_obs::JsonValue;

use crate::manifest::{self, END_TO_END, WORKLOADS};
use crate::runner::RAW_NOTE;
use crate::stats;

/// What one finished run reported.
struct RunValues {
    /// The end-to-end metrics, in `END_TO_END` order.
    gated: Vec<f64>,
    /// The same timings as measured, before the speed factor (`None` for
    /// the metrics that are not normalised).
    raw: Vec<Option<f64>>,
}

/// The `name value` pairs of the run's [`RAW_NOTE`] comment line.
fn raw_readings(stdout: &str) -> Vec<(String, f64)> {
    let Some(rest) = stdout
        .lines()
        .find_map(|l| l.split_once(RAW_NOTE).map(|(_, rest)| rest))
    else {
        return Vec::new();
    };
    let words: Vec<&str> = rest.split_whitespace().collect();
    words
        .chunks_exact(2)
        .filter_map(|pair| Some((pair[0].to_string(), pair[1].parse().ok()?)))
        .collect()
}

fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<RunValues, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let closing = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output"))?;
    let json = JsonValue::parse(closing).map_err(|e| format!("{workload}: closing line: {e}"))?;
    if json.get("correct").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!(
            "{workload} seed {seed}: run reported incorrect outputs"
        ));
    }
    let gated = END_TO_END
        .iter()
        .map(|m| {
            json.get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{workload}: closing line lacks `{}`", m.name))
        })
        .collect::<Result<_, _>>()?;
    let readings = raw_readings(&stdout);
    let raw = END_TO_END
        .iter()
        .map(|m| readings.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
        .collect();
    Ok(RunValues { gated, raw })
}

/// Relative difference of set B's median against set A's, signed so that
/// positive means B is *worse* in the metric's direction.
fn worsening(a: f64, b: f64, better: manifest::Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        manifest::Better::Lower => (b - a) / a,
        manifest::Better::Higher => (a - b) / a,
    }
}

/// Run the sub-command. `Ok(code)` carries the verdict.
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let (mut runs, mut seconds, mut out) = (5usize, manifest::RUN_SECONDS as f64, None);
    let mut only: Vec<String> = Vec::new();
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--runs" => runs = value()?.parse().map_err(|_| "bad --runs".to_string())?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?,
            "--workload" => only.push(value()?),
            "--out" => out = Some(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if runs < 5 {
        return Err("--runs must be at least 5 per set".into());
    }
    if let Some(w) = only.iter().find(|w| manifest::workload(w).is_none()) {
        return Err(format!("unknown workload `{w}`"));
    }

    let mut md = String::new();
    let _ = writeln!(
        md,
        "# A/A: two interleaved sets of {runs} runs of the same build\n\n\
         Each run measures {seconds} s; sets alternate (A1 B1 A2 B2 …) and every run has its own \
         `--seed`. `worse` is how much set B's median is worse than set A's in the metric's \
         direction (negative = better). `IQR/median` is the inter-quartile range of a set's \
         runs as a share of their median (Python `statistics.quantiles(n=4)`), for each set \
         and for all {} runs together. A row is `ok` when |worse| and each set's IQR/median \
         stay within `bound` (the driver's rule); otherwise it says which of the two did \
         not.\n\n\
         ## The end-to-end metrics as reported (timings divided by the speed factor)\n",
        2 * runs
    );
    let mut raw_md = String::from(
        "\n## The same runs' timings as measured, before the speed factor\n\n\
         Not gated: this table is why the reported timings are normalised. It is judged the \
         same way, to show which readings would have held the bound by themselves.\n\n",
    );
    let header = "| workload | metric | unit | median A | median B | worse | bound | \
                  IQR/median A | IQR/median B | IQR/median all | verdict |\n\
                  |---|---|---|---|---|---|---|---|---|---|---|\n";
    md.push_str(header);
    raw_md.push_str(header);

    let (mut reported, mut measured) = (Tally::default(), Tally::default());
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_empty() || only.iter().any(|o| o == w.name))
    {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..runs as u64 {
            eprintln!("aa: {} pair {}/{runs}", w.name, i + 1);
            a.push(run_once(w.name, 2 * i + 1, seconds)?);
            b.push(run_once(w.name, 2 * i + 2, seconds)?);
        }
        for (k, m) in END_TO_END.iter().enumerate() {
            let gated = |set: &[RunValues]| set.iter().map(|run| run.gated[k]).collect();
            reported.add(row(&mut md, w.name, m, gated(&a), gated(&b)));
            let raw = |set: &[RunValues]| -> Option<Vec<f64>> {
                set.iter().map(|run| run.raw[k]).collect()
            };
            if let (Some(ra), Some(rb)) = (raw(&a), raw(&b)) {
                measured.add(row(&mut raw_md, w.name, m, ra, rb));
            }
        }
    }
    let _ = writeln!(md, "\nAs reported: {}", reported.summary());
    let _ = writeln!(raw_md, "\nAs measured: {}", measured.summary());
    md.push_str(&raw_md);
    print!("{md}");
    if let Some(path) = out {
        std::fs::write(&path, &md).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(if reported.differ + reported.spread == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// How one workload × metric row fared against its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Verdict {
    /// The two sets' medians are within the bound of each other.
    medians_agree: bool,
    /// The inter-quartile range of each set's runs is within the bound.
    spread_holds: bool,
}

/// Rows judged, and how many failed either way.
#[derive(Debug, Default)]
struct Tally {
    rows: usize,
    differ: usize,
    spread: usize,
}

impl Tally {
    fn add(&mut self, v: Verdict) {
        self.rows += 1;
        self.differ += usize::from(!v.medians_agree);
        self.spread += usize::from(!v.spread_holds);
    }

    fn summary(&self) -> String {
        format!(
            "of {} workload × metric rows, {} have medians that differ by more than the bound \
             and {} spread by more than the bound.",
            self.rows, self.differ, self.spread
        )
    }
}

/// Append one workload × metric row comparing sets `a` and `b`.
fn row(
    table: &mut String,
    workload: &str,
    m: &manifest::EndToEnd,
    a: Vec<f64>,
    b: Vec<f64>,
) -> Verdict {
    let all: Vec<f64> = a.iter().chain(&b).copied().collect();
    let (ma, mb) = (stats::median(&a), stats::median(&b));
    let worse = worsening(ma, mb, m.better);
    let (spread_a, spread_b) = (stats::iqr_over_median(&a), stats::iqr_over_median(&b));
    let verdict = Verdict {
        medians_agree: worse.abs() <= m.bound,
        spread_holds: spread_a.max(spread_b) <= m.bound,
    };
    let _ = writeln!(
        table,
        "| {workload} | {} | {} | {ma:.6} | {mb:.6} | {:+.2}% | {:.1}% | {:.2}% | {:.2}% | {:.2}% | {} |",
        m.name,
        m.unit,
        worse * 100.0,
        m.bound * 100.0,
        spread_a * 100.0,
        spread_b * 100.0,
        stats::iqr_over_median(&all) * 100.0,
        match (verdict.medians_agree, verdict.spread_holds) {
            (true, true) => "ok",
            (false, true) => "MEDIANS DIFFER",
            (true, false) => "SPREAD",
            (false, false) => "MEDIANS DIFFER, SPREAD",
        }
    );
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Better;

    #[test]
    fn raw_readings_come_from_the_as_measured_comment_line() {
        let stdout = format!(
            "w  op_p50_ms  2 ms  n=4\nw  # {RAW_NOTE} setup_s 1.5  op_p50_ms 2.25  ops_per_s 40\n{{}}\n"
        );
        assert_eq!(
            raw_readings(&stdout),
            [
                ("setup_s".to_string(), 1.5),
                ("op_p50_ms".to_string(), 2.25),
                ("ops_per_s".to_string(), 40.0)
            ]
        );
        assert!(raw_readings("w  ops_per_s  3 1/s\n").is_empty());
    }

    #[test]
    fn a_row_is_judged_on_the_medians_and_on_the_spread() {
        let m = &END_TO_END[1];
        assert!(m.name == "op_p50_ms" && m.bound == 0.10);
        let steady = vec![100.0, 101.0, 99.0, 100.5, 99.5];
        let mut t = String::new();
        let mut tally = Tally::default();
        let ok = row(&mut t, "w", m, steady.clone(), steady.clone());
        assert!(ok.medians_agree && ok.spread_holds);
        tally.add(ok);
        let shifted: Vec<f64> = steady.iter().map(|v| v * 1.12).collect();
        let differs = row(&mut t, "w", m, steady.clone(), shifted);
        assert!(!differs.medians_agree);
        tally.add(differs);
        let wide = vec![80.0, 120.0, 100.0, 70.0, 130.0];
        let spreads = row(&mut t, "w", m, wide.clone(), wide);
        assert!(spreads.medians_agree && !spreads.spread_holds);
        tally.add(spreads);
        assert_eq!(t.lines().count(), 3);
        assert!(t.lines().nth(2).is_some_and(|l| l.ends_with("| SPREAD |")));
        assert_eq!((tally.rows, tally.differ), (3, 1));
        assert!(tally.spread >= 1);
    }

    #[test]
    fn worsening_is_signed_by_the_metrics_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Lower) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }
}
