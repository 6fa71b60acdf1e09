//! Simulation time.
//!
//! Simulation time is represented in *ticks*, a fixed-point encoding of
//! seconds with microsecond resolution. Fixed point (rather than `f64`) keeps
//! time arithmetic associative and therefore deterministic across platforms
//! and optimization levels, and makes [`SimTime`] totally ordered and
//! hashable, which the event queue relies on.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Number of ticks per simulated second (microsecond resolution).
pub const TICKS_PER_SEC: u64 = 1_000_000;

/// A point in simulation time.
///
/// `SimTime` is an absolute timestamp measured from the start of the
/// simulation (`SimTime::ZERO`). Construct values with [`SimTime::from_secs`]
/// or by adding a [`Duration`] to an existing timestamp.
///
/// # Example
///
/// ```
/// use bt_des::{Duration, SimTime};
///
/// let t = SimTime::from_secs(1.5) + Duration::from_secs(0.25);
/// assert_eq!(t.as_secs(), 1.75);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time.
///
/// Durations are non-negative; subtracting a longer duration from a shorter
/// one saturates at zero (see [`SimTime::saturating_sub`] for timestamps).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The origin of simulation time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable timestamp; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a timestamp from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        SimTime(secs_to_ticks(secs))
    }

    /// Creates a timestamp from raw ticks.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Returns the timestamp as fractional seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier` is
    /// actually later than `self`.
    #[must_use]
    pub fn saturating_sub(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked advance; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, d: Duration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        Duration(secs_to_ticks(secs))
    }

    /// Creates a duration from raw ticks.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        Duration(ticks)
    }

    /// Returns the duration as fractional seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }
}

impl std::ops::Mul<u64> for Duration {
    type Output = Duration;
    /// # Panics
    ///
    /// Panics on overflow.
    fn mul(self, factor: u64) -> Duration {
        Duration(self.0.checked_mul(factor).expect("duration overflow"))
    }
}

fn secs_to_ticks(secs: f64) -> u64 {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "time must be finite and non-negative, got {secs}"
    );
    let ticks = secs * TICKS_PER_SEC as f64;
    assert!(ticks <= u64::MAX as f64, "time overflow: {secs} seconds");
    ticks.round() as u64
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("sim time overflow"))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use [`SimTime::saturating_sub`]
    /// when that can happen.
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracting later SimTime from earlier one"),
        )
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}s)", self.as_secs())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.as_secs())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Duration({}s)", self.as_secs())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.as_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(Duration::default(), Duration::ZERO);
    }

    #[test]
    fn from_secs_round_trips() {
        let t = SimTime::from_secs(12.5);
        assert_eq!(t.as_secs(), 12.5);
        assert_eq!(t.0, 12_500_000);
    }

    #[test]
    fn add_duration_advances_time() {
        let t = SimTime::from_secs(1.0) + Duration::from_secs(2.0);
        assert_eq!(t, SimTime::from_secs(3.0));
    }

    #[test]
    fn sub_yields_duration() {
        let d = SimTime::from_secs(5.0) - SimTime::from_secs(2.0);
        assert_eq!(d, Duration::from_secs(3.0));
    }

    #[test]
    fn saturating_sub_clamps() {
        let d = SimTime::from_secs(1.0).saturating_sub(SimTime::from_secs(9.0));
        assert_eq!(d, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "subtracting later SimTime")]
    fn sub_panics_on_negative() {
        let _ = SimTime::from_secs(1.0) - SimTime::from_secs(2.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_secs_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    fn ordering_follows_ticks() {
        assert!(SimTime::from_secs(1.0) < SimTime::from_secs(1.000001));
        assert!(SimTime::ZERO < SimTime::MAX);
    }

    #[test]
    fn duration_mul() {
        assert_eq!(Duration::from_secs(1.5) * 4, Duration::from_secs(6.0));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs(2.5).to_string(), "2.5s");
        assert_eq!(
            format!("{:?}", Duration::from_secs(0.25)),
            "Duration(0.25s)"
        );
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX.checked_add(Duration::from_ticks(1)).is_none());
        assert!(SimTime::ZERO.checked_add(Duration::from_ticks(1)).is_some());
    }

    #[test]
    fn duration_sub_saturates() {
        assert_eq!(
            Duration::from_secs(1.0) - Duration::from_secs(2.0),
            Duration::ZERO
        );
    }
}
