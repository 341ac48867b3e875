//! Simulated time in processor cycles.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A point in simulated time, measured in processor cycles since the start
/// of the run (300 MHz in the paper's machine, so 300 cycles = 1 µs).
///
/// `Time` is a transparent newtype over `u64`; durations are plain `u64`
/// cycle counts, which keeps arithmetic at call sites honest about which
/// side is a point and which is a span.
///
/// # Example
///
/// ```
/// use shasta_sim::Time;
///
/// let t = Time::ZERO + 1_200;
/// assert_eq!(t.cycles(), 1_200);
/// assert_eq!(t - Time::ZERO, 1_200);
/// assert_eq!(t.max(Time::ZERO), t);
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct Time(u64);

impl Time {
    /// The start of simulated time.
    pub const ZERO: Time = Time(0);

    /// The latest representable time point: a sentinel for "never".
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time point from an absolute cycle count.
    pub fn from_cycles(cycles: u64) -> Time {
        Time(cycles)
    }

    /// The absolute cycle count of this time point.
    pub fn cycles(self) -> u64 {
        self.0
    }

    /// This time point expressed in microseconds at the given clock rate.
    pub fn as_us(self, cpu_mhz: u64) -> f64 {
        self.0 as f64 / cpu_mhz as f64
    }

    /// Saturating difference `self - earlier`, zero if `earlier` is later.
    pub fn saturating_since(self, earlier: Time) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Time {
    type Output = Time;

    fn add(self, cycles: u64) -> Time {
        Time(self.0 + cycles)
    }
}

impl AddAssign<u64> for Time {
    fn add_assign(&mut self, cycles: u64) {
        self.0 += cycles;
    }
}

impl Sub<Time> for Time {
    type Output = u64;

    /// Cycles elapsed between two time points.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Time) -> u64 {
        debug_assert!(self.0 >= rhs.0, "time went backwards: {self:?} - {rhs:?}");
        self.0 - rhs.0
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let mut t = Time::ZERO + 100;
        t += 50;
        assert_eq!(t, Time::from_cycles(150));
        assert_eq!(t - Time::from_cycles(100), 50);
        assert_eq!(Time::from_cycles(10).saturating_since(Time::from_cycles(20)), 0);
        assert_eq!(Time::from_cycles(20).saturating_since(Time::from_cycles(10)), 10);
    }

    #[test]
    fn microsecond_conversion_at_300mhz() {
        let t = Time::from_cycles(6_000);
        assert!((t.as_us(300) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_and_display() {
        assert!(Time::ZERO < Time::from_cycles(1));
        assert_eq!(Time::from_cycles(42).to_string(), "42cy");
    }
}
