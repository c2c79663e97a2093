//! Virtual time for the discrete-event kernel.
//!
//! Time is an unsigned 64-bit count of **nanoseconds** since the start of a
//! simulation. Nanosecond resolution comfortably covers both the paper's
//! microsecond-scale network events (ping ≈ 240 µs) and its hour-scale
//! MapReduce runs (8220 s on a 4-node Edison cluster), while keeping all
//! arithmetic exact — important for reproducibility across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant in simulated time (nanoseconds since t = 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Panics in debug builds if `s` is negative or non-finite.
    #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "debug-asserted finite and non-negative; 2^64 ns is 584 years")]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s.is_finite() && s >= 0.0, "invalid time {s}");
        SimTime((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Whole microseconds (truncating) — the unit of Chrome trace-event
    /// timestamps.
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// This instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// This instant as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "time went backwards: {earlier} > {self}");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable duration; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Panics in debug builds if `s` is negative or non-finite.
    #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "debug-asserted finite and non-negative; 2^64 ns is 584 years")]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s.is_finite() && s >= 0.0, "invalid duration {s}");
        SimDuration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// This duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// This duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// True if this duration is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Scale by a non-negative factor, rounding to the nearest nanosecond.
    #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "debug-asserted finite and non-negative; 2^64 ns is 584 years")]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k.is_finite() && k >= 0.0, "invalid scale {k}");
        SimDuration((self.0 as f64 * k).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((t.as_millis_f64() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(250);
        let b = SimDuration::from_millis(750);
        assert_eq!((a + b).as_secs_f64(), 1.0);
        assert_eq!((b - a).as_millis_f64(), 500.0);
        assert_eq!((a * 4).as_secs_f64(), 1.0);
        assert_eq!((b / 3).as_millis_f64(), 250.0);
    }

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_secs(10);
        let t2 = t + SimDuration::from_millis(1);
        assert_eq!(t2.since(t), SimDuration::from_millis(1));
        assert_eq!(t2 - t, SimDuration::from_millis(1));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_secs(1).mul_f64(0.5);
        assert_eq!(d, SimDuration::from_millis(500));
        assert_eq!(SimDuration::from_secs(3).mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration(42)), "42ns");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }
}
