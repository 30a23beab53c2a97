//! The dataflow-dbm benchmark: five workloads, six end-to-end metrics
//! each, and a traced run that attributes cost to the layers. See
//! `benchmark/README.md`; `bash benchmark/run.sh` is the one command.
//!
//! ```text
//! df-benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!              [--out DIR] [--quick]      run one workload (or all five)
//! df-benchmark aa [--runs N] [--seconds S] [--workload W] [--out FILE]
//!                                         two interleaved sets, compared
//! df-benchmark pins                       regenerate pins.json (stdout)
//! df-benchmark manifest                   regenerate BENCHMARK.json (stdout)
//! ```

mod aa;
mod affinity;
mod batch;
mod gen;
mod manifest;
mod probes;
mod procfs;
mod report;
mod runner;
mod serve;
mod sim;
mod stats;
mod trace;
mod yardstick;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::Report;
use runner::{Outcome, RunArgs};

/// Parsed `run` flags.
struct RunFlags {
    workload: Option<String>,
    args: RunArgs,
    /// The flags as given, minus `--workload`, to hand to per-workload
    /// child processes.
    passthrough: Vec<String>,
}

fn parse_run(argv: &[String], started: Instant) -> Result<RunFlags, String> {
    let mut flags = RunFlags {
        workload: None,
        args: RunArgs {
            seed: 1,
            seconds: manifest::RUN_SECONDS as f64,
            trace: false,
            out: PathBuf::from("."),
            quick: false,
            started,
        },
        passthrough: Vec::new(),
    };
    let mut seconds_given = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = |i: usize| {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |s: String| {
            s.parse::<f64>()
                .map_err(|_| format!("bad value `{s}` for {flag}"))
        };
        let consumed = match flag {
            "--workload" => {
                let w = value(i)?;
                if manifest::workload(&w).is_none() {
                    return Err(format!("unknown workload `{w}`"));
                }
                flags.workload = Some(w);
                i += 2;
                continue;
            }
            "--seed" => {
                let s = value(i)?;
                flags.args.seed = s
                    .parse()
                    .map_err(|_| format!("bad value `{s}` for --seed"))?;
                2
            }
            "--seconds" => {
                flags.args.seconds = number(value(i)?)?;
                seconds_given = true;
                2
            }
            "--out" => {
                flags.args.out = PathBuf::from(value(i)?);
                2
            }
            // `--trace` alone switches tracing on; the driver spells it
            // `--trace 0` / `--trace 1`.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    flags.args.trace = false;
                    2
                }
                Some("1") => {
                    flags.args.trace = true;
                    2
                }
                _ => {
                    flags.args.trace = true;
                    1
                }
            },
            "--quick" => {
                flags.args.quick = true;
                1
            }
            other => return Err(format!("unknown flag `{other}`")),
        };
        flags.passthrough.extend_from_slice(&argv[i..i + consumed]);
        i += consumed;
    }
    if flags.args.quick && !seconds_given {
        flags.args.seconds = 3.0;
    }
    if flags.args.seconds.is_nan() || flags.args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(flags)
}

/// Run one workload in this process and print its closing line.
fn run_one(workload: &'static str, args: &RunArgs) -> ExitCode {
    let mut report = Report::new(workload);
    // Before any thread or child exists, so that all of them inherit it.
    match affinity::pin_to_one_cpu() {
        Some(cpu) => report.note(&format!("the whole run is pinned to vCPU {cpu}")),
        None => report.note("could not pin the run to one vCPU; timings will be noisier"),
    }
    let result: Result<Outcome, String> = match workload {
        "batch-nested" | "batch-hash" => batch::run(workload, args, &mut report),
        "serve-read" | "serve-write" => serve::run(workload, args, &mut report),
        _ => sim::run(workload, args, &mut report),
    };
    let result = result.and_then(|outcome| match report.missing_layers() {
        missing if args.trace && !missing.is_empty() => {
            Err(format!("traced run did not report {missing:?}"))
        }
        _ => Ok(outcome),
    });
    match result {
        Ok(outcome) => {
            println!(
                "{}",
                report.closing_json(
                    args.trace,
                    outcome.failed == 0,
                    outcome.attempted,
                    outcome.failed
                )
            );
            ExitCode::SUCCESS
        }
        // A run that could not verify its outputs reports nothing.
        Err(e) => {
            eprintln!("df-benchmark: {workload}: {e}");
            ExitCode::from(1)
        }
    }
}

/// Run every workload, each in a process of its own so peak memory and
/// CPU time are that workload's alone.
fn run_all(passthrough: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("df-benchmark: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    for w in &manifest::WORKLOADS {
        let status = Command::new(&exe)
            .args(["run", "--workload", w.name])
            .args(passthrough)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("df-benchmark: {} exited with {s}", w.name);
                return ExitCode::from(1);
            }
            Err(e) => {
                eprintln!("df-benchmark: cannot run {}: {e}", w.name);
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "aa" | "pins" | "manifest")) => (c, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let usage_error = |e: String| {
        eprintln!("df-benchmark: {e}");
        ExitCode::from(2)
    };
    match command {
        "manifest" => {
            print!("{}", manifest::render());
            ExitCode::SUCCESS
        }
        "pins" => match sim::render_pins() {
            Ok(json) => {
                print!("{json}");
                ExitCode::SUCCESS
            }
            Err(e) => usage_error(e),
        },
        "aa" => match aa::run(rest) {
            Ok(code) => code,
            Err(e) => usage_error(e),
        },
        _ => match parse_run(rest, started) {
            Err(e) => usage_error(e),
            Ok(flags) => match flags.workload.as_deref().and_then(manifest::workload) {
                Some(w) => run_one(w.name, &flags.args),
                None => run_all(&flags.passthrough),
            },
        },
    }
}
