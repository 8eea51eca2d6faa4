//! Virtual time for the discrete-event simulator.
//!
//! [`SimTime`] is an absolute instant measured in integer nanoseconds since
//! simulation start. Durations are `std::time::Duration`. Integer nanoseconds
//! keep event ordering exact and make simulations bit-reproducible across
//! platforms (no floating point time arithmetic anywhere in the kernel).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// Absolute simulated instant (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Construct from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Construct from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Construct from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to nanoseconds).
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "invalid SimTime seconds {secs}"
        );
        SimTime((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds since simulation start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since start, as f64 (for reporting).
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds since start, as f64 (for reporting).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`; saturates to zero if `earlier` is
    /// in the future.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Saturating add of a duration.
    #[must_use]
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(duration_nanos(d)))
    }

    /// Checked subtraction of a duration.
    #[must_use]
    pub fn checked_sub(self, d: Duration) -> Option<SimTime> {
        self.0.checked_sub(duration_nanos(d)).map(SimTime)
    }
}

/// Convert a `Duration` to u64 nanoseconds, saturating (simulations never
/// run anywhere near 584 years).
#[must_use]
fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Build a `Duration` from fractional milliseconds.
///
/// # Panics
/// Panics on negative or non-finite input.
#[must_use]
pub fn millis(ms: f64) -> Duration {
    assert!(ms.is_finite() && ms >= 0.0, "invalid duration millis {ms}");
    Duration::from_secs_f64(ms / 1e3)
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + duration_nanos(rhs))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += duration_nanos(rhs);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_millis(5), SimTime::from_nanos(5_000_000));
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2000));
        assert_eq!(SimTime::from_micros(1500), SimTime::from_nanos(1_500_000));
        assert_eq!(SimTime::from_secs_f64(0.001), SimTime::from_millis(1));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), Duration::from_millis(5));
        // saturating semantics for reversed order
        assert_eq!(
            SimTime::from_millis(1) - SimTime::from_millis(5),
            Duration::ZERO
        );
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(9);
        assert_eq!(late.since(early), Duration::from_millis(8));
        assert_eq!(early.since(late), Duration::ZERO);
    }

    #[test]
    fn reporting_units() {
        let t = SimTime::from_micros(1_234_567);
        assert!((t.as_millis_f64() - 1234.567).abs() < 1e-9);
        assert!((t.as_secs_f64() - 1.234_567).abs() < 1e-12);
    }

    #[test]
    fn millis_helper() {
        assert_eq!(millis(1.5), Duration::from_micros(1500));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert_eq!(SimTime::ZERO.as_nanos(), 0);
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }

    #[test]
    #[should_panic(expected = "invalid duration millis")]
    fn negative_millis_panics() {
        let _ = millis(-1.0);
    }
}
