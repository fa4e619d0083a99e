//! Simulated time: a nanosecond-resolution instant/duration type.
//!
//! One type serves as both instant and duration (like a bare `u64` of
//! nanoseconds), which keeps event arithmetic simple inside the engine.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A simulated instant or duration, in nanoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use netsim::time::SimTime;
///
/// let rtt = SimTime::from_micros(400);
/// assert_eq!(rtt * 2, SimTime::from_micros(800));
/// assert_eq!((rtt / 2).as_micros_f64(), 200.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Constructs from fractional seconds (rounds to nanoseconds).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Value in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Component-wise maximum.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Component-wise minimum.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("sim time overflow"))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("sim time underflow"))
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.checked_mul(rhs).expect("sim time overflow"))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_millis(500));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(4);
        assert_eq!(a + b, SimTime::from_micros(14));
        assert_eq!(a - b, SimTime::from_micros(6));
        assert_eq!(a * 3, SimTime::from_micros(30));
        assert_eq!(a / 2, SimTime::from_micros(5));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn conversions() {
        let t = SimTime::from_millis(10_900) / 1000; // 10.9 ms
        assert!((t.as_millis_f64() - 10.9).abs() < 1e-9);
        assert!((t.as_secs_f64() - 0.0109).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::ZERO - SimTime::from_nanos(1);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_seconds_panic() {
        SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimTime::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn sum_iterates() {
        let total: SimTime = (1..=4).map(SimTime::from_micros).sum();
        assert_eq!(total, SimTime::from_micros(10));
    }
}
