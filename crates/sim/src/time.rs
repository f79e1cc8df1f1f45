//! Virtual time for the simulation.
//!
//! Time is a non-negative `f64` number of seconds wrapped in [`SimTime`] so
//! it can be totally ordered (the simulator never produces NaN) and so that
//! raw seconds don't leak into APIs unannotated.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in seconds since simulation start.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds. Panics on NaN or negative input —
    /// both indicate a simulator bug, not a recoverable condition.
    pub fn from_secs(secs: f64) -> SimTime {
        assert!(secs.is_finite() && secs >= 0.0, "invalid SimTime: {secs}");
        SimTime(secs)
    }

    /// Seconds since simulation start.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Duration from `earlier` to `self`; saturates at zero.
    pub fn since(self, earlier: SimTime) -> f64 {
        (self.0 - earlier.0).max(0.0)
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Values are always finite (enforced at construction).
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, secs: f64) -> SimTime {
        SimTime::from_secs(self.0 + secs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, secs: f64) {
        *self = *self + secs;
    }
}

impl Sub for SimTime {
    type Output = f64;
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_secs(1.0);
        let b = a + 2.5;
        assert!(b > a);
        assert_eq!(b - a, 2.5);
        assert_eq!(b.since(a), 2.5);
        assert_eq!(a.since(b), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid SimTime")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs(1.5).to_string(), "1.500s");
    }
}
