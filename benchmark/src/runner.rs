//! The run structure every workload shares: set-ups (each ending in a
//! fixed-count, verified warm-up) → timed rounds. A round is a fixed,
//! seeded op list; timed rounds repeat whole, so work per round is
//! constant and nothing is quantised by a clock edge. A yardstick pass
//! (see `yardstick.rs`) runs between rounds and between the stages of a
//! set-up, while every connection is idle.

use std::time::Instant;

use crate::procfs;
use crate::report::Report;
use crate::stats;
use crate::trace::SpanBuf;
use crate::yardstick::{self, Yardstick};

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seeds the request streams (never the database).
    pub seed: u64,
    /// Timed-phase budget in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where a traced run writes `trace.json`.
    pub out: std::path::PathBuf,
    /// Smoke mode: short budget, two rounds minimum.
    pub quick: bool,
    /// When the process started: the epoch of every span's timestamps.
    pub started: Instant,
}

impl RunArgs {
    /// Fewest timed rounds a run reports on.
    pub fn min_rounds(&self) -> usize {
        if self.quick {
            2
        } else {
            8
        }
    }

    /// Budget of the timed rounds. A traced run spends half of
    /// `--seconds` on rounds and the rest on its probes, so both kinds of
    /// run take about the same wall time.
    pub fn round_budget(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// How many times a run sets up (`setup_s` is their median).
    pub fn setups(&self) -> usize {
        if self.quick || self.trace {
            1
        } else {
            3
        }
    }
}

/// How thoroughly an op's responses are checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Canonical tuple images byte-for-byte against the oracle reference
    /// (the verified warm-up).
    Bytes,
    /// Tuple counts against the reference (every timed op).
    Counts,
}

/// One closed-loop caller: an in-process batch driver or a client
/// connection. Its next op starts only after the previous one returned.
pub trait Conn: Send {
    /// Run op `index` of the connection's fixed list. `true` when every
    /// response of the op was correct; Busy, errors, refusals and
    /// mismatches all count as failed.
    fn op(&mut self, index: usize, check: Check) -> bool;

    /// The connection's span buffer (off outside traced rounds).
    fn spans(&mut self) -> &mut SpanBuf;
}

/// How a workload cuts its connections' fixed op lists into rounds:
/// round `r` plays ops `(r % cycle) * ops ..` of every list, so the
/// lists repeat every `cycle` rounds. Rounds last a few hundred ms —
/// the yardstick passes around a round must be close to it in time.
#[derive(Debug, Clone, Copy)]
pub struct Rounds {
    /// Ops per connection per round.
    pub ops: usize,
    /// Rounds until the op lists start over.
    pub cycle: usize,
}

impl Rounds {
    /// Length of each connection's op list.
    pub fn list_len(self) -> usize {
        self.ops * self.cycle
    }

    /// Index of the first op round `r` plays.
    pub fn first_op(self, r: usize) -> usize {
        r % self.cycle * self.ops
    }
}

/// What one round measured.
#[derive(Debug, Clone)]
pub struct Round {
    /// Start of the round to the last connection finishing, seconds.
    pub wall_s: f64,
    /// Whether the benchmark's spans were being recorded.
    pub traced: bool,
    /// Latency of every op of every connection, ms.
    pub op_ms: Vec<f64>,
    /// Ops whose responses were not all correct.
    pub failed: u64,
    /// CPU seconds the measured process consumed during the round
    /// (filled in by [`run_timed`]).
    pub cpu_s: f64,
    /// CPU seconds the benchmark process itself consumed during the
    /// round: the load generator's cost when the measured process is the
    /// `df-serve` child, the same as `cpu_s` otherwise.
    pub own_cpu_s: f64,
    /// The vCPU's speed factor around the round (filled in by
    /// [`run_timed`]; 1 = the yardstick ran at its nominal speed).
    pub factor: f64,
}

fn drive<C: Conn>(conn: &mut C, first: usize, ops: usize, check: Check) -> (Vec<f64>, u64) {
    let mut op_ms = Vec::with_capacity(ops);
    let mut failed = 0;
    for index in first..first + ops {
        let t = Instant::now();
        let ok = conn.op(index, check);
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        failed += u64::from(!ok);
    }
    (op_ms, failed)
}

/// Run one round: every connection plays ops `first..first + ops` of its
/// list, the connections concurrently.
pub fn run_round<C: Conn>(conns: &mut [C], first: usize, ops: usize, check: Check) -> Round {
    let traced = conns.first_mut().is_some_and(|c| c.spans().is_on());
    let start = Instant::now();
    let parts: Vec<(Vec<f64>, u64)> = if let [only] = conns {
        vec![drive(only, first, ops, check)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|c| s.spawn(move || drive(c, first, ops, check)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect()
        })
    };
    let wall_s = start.elapsed().as_secs_f64();
    let failed = parts.iter().map(|p| p.1).sum();
    Round {
        wall_s,
        traced,
        op_ms: parts.into_iter().flat_map(|p| p.0).collect(),
        failed,
        cpu_s: 0.0,
        own_cpu_s: 0.0,
        factor: 1.0,
    }
}

/// Times one set-up stage by stage: a yardstick pass separates the
/// stages, and each stage's wall time is divided by the factor of the
/// passes on either side of it. The passes themselves are not counted.
pub struct SetupClock<'y> {
    yard: &'y mut Yardstick,
    last_pass_s: f64,
    stage_start: Instant,
    /// Sum of the stages so far, each divided by its factor, seconds.
    pub normalised_s: f64,
    /// Sum of the stages so far as measured, seconds.
    pub raw_s: f64,
}

impl<'y> SetupClock<'y> {
    fn start(yard: &'y mut Yardstick) -> SetupClock<'y> {
        let last_pass_s = yard.pass();
        SetupClock {
            yard,
            last_pass_s,
            stage_start: Instant::now(),
            normalised_s: 0.0,
            raw_s: 0.0,
        }
    }

    /// End the current stage and start the next. Call with every
    /// connection idle, at least every few hundred ms.
    pub fn lap(&mut self) {
        let stage_s = self.stage_start.elapsed().as_secs_f64();
        let pass_s = self.yard.pass();
        self.normalised_s += stage_s / yardstick::factor(self.last_pass_s, pass_s);
        self.raw_s += stage_s;
        self.last_pass_s = pass_s;
        self.stage_start = Instant::now();
    }

    /// The fixed-count warm-up every set-up ends with: the first `rounds`
    /// rounds of `plan`, a lap after each. Returns how many ops failed
    /// `check`.
    pub fn warm_up<C: Conn>(
        &mut self,
        conns: &mut [C],
        plan: Rounds,
        rounds: usize,
        check: Check,
    ) -> u64 {
        let mut failed = 0;
        for r in 0..rounds {
            failed += run_round(conns, plan.first_op(r), plan.ops, check).failed;
            self.lap();
        }
        failed
    }
}

/// Set-up time of a run.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Median over the run's set-ups of the normalised time, seconds.
    pub normalised_s: f64,
    /// Median over the run's set-ups of the time as measured, seconds.
    pub raw_s: f64,
}

/// Set up `args.setups()` times and time each: everything before the
/// first timed op, warm-up included. The last set-up's state is the one
/// the run goes on to measure; the earlier ones are dropped (a dropped
/// `df-serve` child is killed and reaped).
pub fn timed_setup<T>(
    args: &RunArgs,
    yard: &mut Yardstick,
    mut setup: impl FnMut(&mut SetupClock) -> Result<T, String>,
) -> Result<(T, SetupTime), String> {
    let (mut normalised, mut raw) = (Vec::new(), Vec::new());
    let mut state = None;
    for _ in 0..args.setups() {
        drop(state.take());
        let mut clock = SetupClock::start(yard);
        state = Some(setup(&mut clock)?);
        clock.lap();
        normalised.push(clock.normalised_s);
        raw.push(clock.raw_s);
    }
    let time = SetupTime {
        normalised_s: stats::median(&normalised),
        raw_s: stats::median(&raw),
    };
    Ok((state.expect("at least one set-up"), time))
}

/// Repeat whole rounds until the budget is spent, never fewer than
/// `args.min_rounds()`. The loop stops before a round that would overrun
/// the budget (judged by the median round so far), so a run ends on
/// time. A yardstick pass runs before the first round and after every
/// round; each round is charged the CPU time `cpu_pid` (`None` = this
/// process) consumed while it ran, so the passes' own CPU time is left
/// out. A traced run records spans on odd rounds only; the even rounds
/// are its untraced baseline.
pub fn run_timed<C: Conn>(
    conns: &mut [C],
    plan: Rounds,
    args: &RunArgs,
    cpu_pid: Option<u32>,
    yard: &mut Yardstick,
) -> Result<Vec<Round>, String> {
    let budget = args.round_budget();
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut passes = vec![yard.pass()];
    loop {
        let on = args.trace && rounds.len() % 2 == 1;
        for c in conns.iter_mut() {
            c.spans().set_on(on);
        }
        let cpu = || -> Result<(f64, f64), String> {
            let own = procfs::cpu_seconds(None)?;
            Ok((
                cpu_pid.map_or(Ok(own), |pid| procfs::cpu_seconds(Some(pid)))?,
                own,
            ))
        };
        let before = cpu()?;
        let mut round = run_round(conns, plan.first_op(rounds.len()), plan.ops, Check::Counts);
        let after = cpu()?;
        (round.cpu_s, round.own_cpu_s) = (after.0 - before.0, after.1 - before.1);
        passes.push(yard.pass());
        round.factor = yardstick::factor(passes[rounds.len()], passes[rounds.len() + 1]);
        rounds.push(round);
        let typical = stats::median(
            &rounds
                .iter()
                .zip(&passes)
                .map(|(r, p)| r.wall_s + p)
                .collect::<Vec<_>>(),
        );
        if rounds.len() >= args.min_rounds() && start.elapsed().as_secs_f64() + typical > budget {
            break;
        }
    }
    for c in conns.iter_mut() {
        c.spans().set_on(false);
    }
    Ok(rounds)
}

/// What a run reports in the closing line beside its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops whose responses were not all correct.
    pub failed: u64,
}

/// Attempted and failed ops of a timed phase.
pub fn tally(rounds: &[Round]) -> Outcome {
    Outcome {
        attempted: rounds.iter().map(|r| r.op_ms.len() as u64).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
    }
}

/// Median op latency in ms, and the median over rounds of ops per
/// second; each round's readings divided by its speed factor, or raw.
fn latency_and_rate<'a>(rounds: impl Iterator<Item = &'a Round>, normalised: bool) -> (f64, f64) {
    let (mut ms, mut rates) = (Vec::new(), Vec::new());
    for r in rounds {
        let factor = if normalised { r.factor } else { 1.0 };
        ms.extend(r.op_ms.iter().map(|ms| ms / factor));
        rates.push((r.op_ms.len() as u64, r.wall_s / factor));
    }
    (stats::median(&ms), stats::round_median_rate(&rates))
}

/// CPU ms the measured process spends per op at the normalised rate:
/// its share of the timed rounds' wall time (both as measured, so the
/// speed factor cancels) × the machine time one op takes at `rate`
/// normalised ops per second. A round whose factor is off moves the
/// median rate by nothing and the share by its part of the run.
fn cpu_ms_per_op(rounds: &[Round], rate: f64) -> f64 {
    let cpu_s: f64 = rounds.iter().map(|r| r.cpu_s).sum();
    let wall_s: f64 = rounds.iter().map(|r| r.wall_s).sum();
    cpu_s / wall_s * 1e3 / rate
}

/// Opens the comment line that carries the four timings as measured,
/// before dividing by the speed factor, as `name value` pairs (`aa` reads
/// them back).
pub const RAW_NOTE: &str = "timings as measured:";

/// Print the six end-to-end metrics of an untraced run. The four
/// timings are divided by the speed factor (see `yardstick.rs`); the
/// readings as measured follow on a comment line.
pub fn put_end_to_end(report: &mut Report, setup: SetupTime, rounds: &[Round], peak_rss_mib: f64) {
    let Outcome { attempted, failed } = tally(rounds);
    let ok = attempted - failed;
    let (p50_ms, rate) = latency_and_rate(rounds.iter(), true);
    report.put("setup_s", setup.normalised_s, 0);
    report.put("op_p50_ms", p50_ms, attempted as usize);
    report.put("ops_per_s", rate, rounds.len());
    report.put("cpu_ms_per_op", cpu_ms_per_op(rounds, rate), rounds.len());
    report.put("peak_rss_mib", peak_rss_mib, 0);
    report.put(
        "ok_ratio",
        ok as f64 / attempted.max(1) as f64,
        attempted as usize,
    );

    let (raw_p50_ms, raw_rate) = latency_and_rate(rounds.iter(), false);
    report.note(&format!(
        "{RAW_NOTE} setup_s {}  op_p50_ms {raw_p50_ms}  ops_per_s {raw_rate}  cpu_ms_per_op {}",
        setup.raw_s,
        cpu_ms_per_op(rounds, raw_rate),
    ));
    report.note_highest_percentile(&stats::sorted(
        rounds
            .iter()
            .flat_map(|r| r.op_ms.iter().copied())
            .collect(),
    ));
    let rates = stats::sorted(
        rounds
            .iter()
            .map(|r| r.op_ms.len() as f64 / r.wall_s * r.factor)
            .collect(),
    );
    report.note(&format!(
        "normalised ops/s over {} rounds: min {}  p25 {}  p75 {}  max {}",
        rates.len(),
        rates.first().copied().unwrap_or(0.0),
        stats::percentile(&rates, 0.25),
        stats::percentile(&rates, 0.75),
        rates.last().copied().unwrap_or(0.0),
    ));
    let factors = stats::sorted(rounds.iter().map(|r| r.factor).collect());
    report.note(&format!(
        "speed factor (yardstick pass / {} ms nominal) over {} rounds: median {}  min {}  max {}",
        yardstick::NOMINAL_S * 1e3,
        rounds.len(),
        stats::median(&factors),
        factors.first().copied().unwrap_or(0.0),
        factors.last().copied().unwrap_or(0.0),
    ));
}

/// Print the per-layer metrics every traced run derives from its rounds:
/// the latency tail, the median and rate as measured, the speed factor,
/// and the tracing overhead (traced / untraced normalised round rate).
/// Returns the median op latency as measured, in ms.
pub fn put_round_layers(report: &mut Report, rounds: &[Round]) -> f64 {
    let all_ms = stats::sorted(
        rounds
            .iter()
            .flat_map(|r| r.op_ms.iter().copied())
            .collect(),
    );
    report.put_tail(&all_ms);
    let (raw_p50_ms, raw_rate) = latency_and_rate(rounds.iter(), false);
    report.put("client.raw_p50_ms", raw_p50_ms, all_ms.len());
    report.put("client.raw_ops_per_s", raw_rate, rounds.len());
    let factors: Vec<f64> = rounds.iter().map(|r| r.factor).collect();
    report.put("bench.speed_factor", stats::median(&factors), factors.len());
    let rate =
        |traced: bool| latency_and_rate(rounds.iter().filter(|r| r.traced == traced), true).1;
    report.put(
        "trace.overhead_ratio",
        rate(true) / rate(false),
        rounds.iter().filter(|r| r.traced).count(),
    );
    raw_p50_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        spans: SpanBuf,
        calls: Vec<usize>,
        fail_on: Option<usize>,
    }

    impl Conn for Fake {
        fn op(&mut self, index: usize, _check: Check) -> bool {
            self.calls.push(index);
            self.fail_on != Some(index)
        }
        fn spans(&mut self) -> &mut SpanBuf {
            &mut self.spans
        }
    }

    fn fake(fail_on: Option<usize>) -> Fake {
        Fake {
            spans: SpanBuf::new(Instant::now()),
            calls: Vec::new(),
            fail_on,
        }
    }

    fn args(trace: bool) -> RunArgs {
        RunArgs {
            seed: 0,
            seconds: 0.0,
            trace,
            out: ".".into(),
            quick: false,
            started: Instant::now(),
        }
    }

    #[test]
    fn a_round_plays_its_slice_of_every_connections_list_and_counts_failures() {
        let mut conns = vec![fake(None), fake(Some(7))];
        let round = run_round(&mut conns, 5, 5, Check::Counts);
        assert_eq!(round.op_ms.len(), 10);
        assert_eq!(round.failed, 1);
        assert_eq!(conns[0].calls, [5, 6, 7, 8, 9]);
        assert_eq!(conns[1].calls, [5, 6, 7, 8, 9]);
    }

    #[test]
    fn timed_rounds_never_number_fewer_than_the_minimum_and_cycle_through_the_lists() {
        let mut conns = vec![fake(None)];
        let plan = Rounds { ops: 3, cycle: 4 };
        assert_eq!(plan.list_len(), 12);
        let rounds =
            run_timed(&mut conns, plan, &args(false), None, &mut Yardstick::new()).expect("runs");
        assert_eq!(rounds.len(), 8, "a zero budget still runs the minimum");
        assert!(rounds.iter().all(|r| !r.traced && r.op_ms.len() == 3));
        assert!(rounds
            .iter()
            .all(|r| r.factor > 0.0 && r.cpu_s == r.own_cpu_s));
        let twice: Vec<usize> = (0..12).chain(0..12).collect();
        assert_eq!(conns[0].calls, twice);
        assert_eq!(
            tally(&rounds),
            Outcome {
                attempted: 24,
                failed: 0
            }
        );
    }

    #[test]
    fn a_traced_run_alternates_untraced_and_traced_rounds() {
        let mut conns = vec![fake(None)];
        let plan = Rounds { ops: 1, cycle: 1 };
        let rounds =
            run_timed(&mut conns, plan, &args(true), None, &mut Yardstick::new()).expect("runs");
        let traced: Vec<bool> = rounds.iter().map(|r| r.traced).collect();
        assert_eq!(traced, [false, true, false, true, false, true, false, true]);
        assert!(!conns[0].spans.is_on(), "tracing is off after the phase");
    }

    fn round(ops: usize, ms: f64, factor: f64) -> Round {
        Round {
            wall_s: ops as f64 * ms / 1e3,
            traced: false,
            op_ms: vec![ms; ops],
            failed: 0,
            cpu_s: ops as f64 * ms / 2e3,
            own_cpu_s: 0.0,
            factor,
        }
    }

    #[test]
    fn a_slow_machine_cancels_out_of_the_normalised_latency_rate_and_cpu() {
        // The same work on a machine that is 1x, 1.5x and 2x slow; the
        // measured process is on the CPU half of the time.
        let rounds = [
            round(10, 20.0, 1.0),
            round(10, 30.0, 1.5),
            round(10, 40.0, 2.0),
        ];
        let (p50, rate) = latency_and_rate(rounds.iter(), true);
        assert!((p50 - 20.0).abs() < 1e-9 && (rate - 50.0).abs() < 1e-9);
        assert!((cpu_ms_per_op(&rounds, rate) - 10.0).abs() < 1e-9);
        let (raw_p50, raw_rate) = latency_and_rate(rounds.iter(), false);
        assert!((raw_p50 - 30.0).abs() < 1e-9 && (raw_rate - 1e3 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn set_up_repeats_and_each_stage_is_divided_by_the_factor_around_it() {
        let mut calls = 0;
        let mut yard = Yardstick::new();
        let (state, time) = timed_setup(&args(false), &mut yard, |clock| {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(10));
            clock.lap();
            let failed = clock.warm_up(
                &mut [fake(None)],
                Rounds { ops: 2, cycle: 2 },
                3,
                Check::Bytes,
            );
            Ok((calls, failed))
        })
        .expect("sets up");
        assert_eq!(calls, 3, "setup_s is the median of three set-ups");
        assert_eq!(state, (3, 0), "the last set-up's state is kept");
        assert!(time.raw_s >= 0.010 && time.normalised_s > 0.0);
        let (state, _) = timed_setup(&args(true), &mut yard, |_| Ok(1)).expect("sets up");
        assert_eq!(state, 1);
        assert!(timed_setup(&args(false), &mut yard, |_| Err::<(), _>(
            "boom".to_string()
        ))
        .is_err());
    }
}
