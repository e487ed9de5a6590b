//! Simulated time.
//!
//! The simulator keeps virtual time as nanoseconds since the start of the
//! run. Instants are [`SimTime`]; durations are [`std::time::Duration`].

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant in simulated time (nanoseconds since simulation start).
///
/// # Example
///
/// ```
/// use wireless_net::time::SimTime;
/// use std::time::Duration;
/// let t = SimTime::ZERO + Duration::from_micros(50);
/// assert_eq!(t.as_nanos(), 50_000);
/// assert_eq!(t - SimTime::ZERO, Duration::from_micros(50));
/// ```
#[derive(Clone, Copy, Debug, Default, Eq, Hash, Ord, PartialEq, PartialOrd)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation start instant.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from nanoseconds since simulation start.
    pub fn from_nanos(nanos: u64) -> SimTime {
        SimTime(nanos)
    }

    /// Constructs from microseconds since simulation start.
    pub fn from_micros(micros: u64) -> SimTime {
        SimTime(micros * 1_000)
    }

    /// Constructs from milliseconds since simulation start.
    pub fn from_millis(millis: u64) -> SimTime {
        SimTime(millis * 1_000_000)
    }

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start (truncating).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference as a [`Duration`]; zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos() as u64)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos() as u64;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> Duration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        Duration::from_nanos(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7000);
        assert_eq!(SimTime::from_micros(1_500).as_millis(), 1);
    }

    #[test]
    fn add_duration() {
        let t = SimTime::from_millis(1) + Duration::from_micros(500);
        assert_eq!(t.as_nanos(), 1_500_000);
        let mut u = SimTime::ZERO;
        u += Duration::from_nanos(42);
        assert_eq!(u.as_nanos(), 42);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_micros(5) < SimTime::from_micros(6));
        assert_eq!(SimTime::ZERO, SimTime::from_nanos(0));
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(4);
        assert_eq!(a.saturating_since(b), Duration::from_micros(6));
        assert_eq!(b.saturating_since(a), Duration::ZERO);
    }

    #[test]
    fn display_in_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000s");
    }
}
