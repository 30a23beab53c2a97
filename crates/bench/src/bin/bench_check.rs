//! Validate `BENCH_<name>.json` artifacts and diff their deterministic
//! counters against a baseline.
//!
//! ```sh
//! # Candidate vs committed baseline: the candidate's own invariants,
//! # then exact equality of the deterministic counters
//! bench_check baseline.json candidate.json
//!
//! # Internal metric invariants of each artifact
//! bench_check --check artifacts/BENCH_*.json
//!
//! # ...plus liveness rules over the (first) sweep row's values:
//! # `<key><op><key|number>`, op one of == != < <= > >=
//! bench_check --check BENCH_serve_closed.json \
//!     --expect 'executed<submitted' --expect 'lanes==2'
//! ```
//!
//! Wall-clock fields are never compared; time is gated by
//! `bash benchmark/run.sh`. Exit status: 0 when every check passes, 1 on
//! any failure, 2 on usage or I/O errors. Failures are listed one per line
//! on stdout.

use df_obs::BenchArtifact;

fn main() {
    let mut check_only = false;
    let mut rules: Vec<String> = Vec::new();
    let mut files: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check_only = true,
            "--expect" => rules.push(
                args.next()
                    .unwrap_or_else(|| die("--expect needs a rule, e.g. 'executed<submitted'")),
            ),
            other if other.starts_with("--") => die(&format!("unknown flag `{other}`")),
            other => files.push(other.to_string()),
        }
    }

    let mut failures = Vec::new();
    if check_only {
        if files.is_empty() {
            die("--check takes at least one artifact");
        }
        for file in &files {
            let a = load(file);
            println!("bench_check: {file} ({}, kind {})", a.name, a.kind);
            let unmet = rules.iter().filter_map(|rule| a.expect(rule).err());
            failures.extend(
                a.check()
                    .into_iter()
                    .chain(unmet)
                    .map(|f| format!("{file}: {f}")),
            );
        }
    } else {
        if files.len() != 2 || !rules.is_empty() {
            die("expected BASELINE and CANDIDATE artifact paths (--expect goes with --check)");
        }
        let base = load(&files[0]);
        let cand = load(&files[1]);
        println!(
            "bench_check: {} -> {} (kind {}, deterministic counters)",
            files[0], files[1], base.kind
        );
        // A candidate that violates its own invariants fails even if it
        // happens to match the baseline.
        failures.extend(cand.check());
        failures.extend(BenchArtifact::compare(&base, &cand));
    }

    if failures.is_empty() {
        println!("bench_check: PASS");
    } else {
        for f in &failures {
            println!("bench_check: FAIL: {f}");
        }
        std::process::exit(1);
    }
}

fn load(path: &str) -> BenchArtifact {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    BenchArtifact::from_json(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

fn die(msg: &str) -> ! {
    eprintln!("bench_check: {msg}");
    std::process::exit(2);
}
