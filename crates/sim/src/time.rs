//! Simulated time: integer nanoseconds since the start of the run.
//!
//! Integer time keeps the event queue exactly ordered — two events scheduled
//! at "the same" instant compare equal instead of differing in the 17th
//! decimal digit — which is what makes whole-simulation determinism cheap.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant of simulated time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This instant expressed in (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; simulated clocks never run
    /// backwards, so this indicates a scheduling bug in the caller.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        Duration(self.0 - earlier.0)
    }

    /// Saturating difference: zero if `earlier` is after `self`.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Cost models are naturally expressed in seconds (e.g. `bytes /
    /// bytes_per_second`); this is the single bridging point back to integer
    /// time.
    ///
    /// # Panics
    /// Panics if `s` is negative, NaN, or too large for a `u64` of
    /// nanoseconds (≈ 584 simulated years).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "Duration::from_secs_f64: invalid seconds value {s}"
        );
        let ns = s * 1e9;
        assert!(
            ns < u64::MAX as f64,
            "Duration::from_secs_f64: {s} seconds overflows simulated time"
        );
        Duration(ns.round() as u64)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This span expressed in (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating scalar multiplication.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: simulation ran past u64 nanoseconds"),
        )
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_add(rhs.0)
                .expect("Duration overflow: sum exceeds u64 nanoseconds"),
        )
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("Duration underflow: subtrahend larger than minuend"),
        )
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}ns)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_ns(self.0, f)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Duration({}ns)", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_ns(self.0, f)
    }
}

/// Human-readable rendering with an adaptive unit.
fn format_ns(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns >= 1_000_000_000 {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Duration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Duration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Duration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(Duration::from_nanos(11).as_nanos(), 11);
    }

    #[test]
    fn float_round_trip() {
        let d = Duration::from_secs_f64(0.033);
        assert_eq!(d.as_nanos(), 33_000_000);
        assert!((d.as_secs_f64() - 0.033).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + Duration::from_micros(10);
        let u = t + Duration::from_micros(5);
        assert_eq!(u.since(t), Duration::from_micros(5));
        assert_eq!(u.saturating_since(t), Duration::from_micros(5));
        assert_eq!(t.saturating_since(u), Duration::ZERO);
        assert_eq!(t.max(u), u);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_on_backwards_time() {
        let t = SimTime::from_nanos(5);
        let u = SimTime::from_nanos(9);
        let _ = t.since(u);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(Duration::from_millis(1) < Duration::from_secs(1));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Duration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Duration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", Duration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Duration::from_secs(12)), "12.000s");
    }

    #[test]
    fn sum_and_mul() {
        let total: Duration = [1u64, 2, 3].iter().map(|&n| Duration::from_nanos(n)).sum();
        assert_eq!(total, Duration::from_nanos(6));
        assert_eq!(
            Duration::from_nanos(6).saturating_mul(2),
            Duration::from_nanos(12)
        );
        assert_eq!(
            Duration::from_nanos(u64::MAX).saturating_mul(2),
            Duration::from_nanos(u64::MAX)
        );
    }

    #[test]
    #[should_panic(expected = "invalid seconds")]
    fn from_secs_f64_rejects_negative() {
        let _ = Duration::from_secs_f64(-1.0);
    }
}
