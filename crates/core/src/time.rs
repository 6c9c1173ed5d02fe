//! Integer time base.
//!
//! All scheduling computations in this crate family happen on an integer
//! microsecond grid. The paper's hyper-period of 1440 ms is exactly
//! representable, and the central question "did this job start *exactly* at
//! its ideal instant" ([`crate::metrics::psi`]) becomes an integer equality
//! with no floating-point hazards.
//!
//! Two newtypes are provided:
//!
//! * [`Time`] — an absolute instant, microseconds since the schedule epoch
//!   (the start of the hyper-period).
//! * [`Duration`] — a non-negative span of time in microseconds.
//!
//! ```
//! use tagio_core::time::{Time, Duration};
//!
//! let release = Time::from_millis(10);
//! let wcet = Duration::from_micros(250);
//! let finish = release + wcet;
//! assert_eq!(finish, Time::from_micros(10_250));
//! assert_eq!(finish - release, wcet);
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// An absolute instant, in microseconds since the schedule epoch.
///
/// `Time` is ordered, hashable, and cheap to copy. Subtracting two `Time`s
/// yields a [`Duration`]; subtraction that would go negative panics (use
/// [`Time::checked_sub`] or [`Time::saturating_sub`] to avoid that).
///
/// ```
/// use tagio_core::time::Time;
/// assert!(Time::from_millis(2) > Time::from_micros(1999));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Time(u64);

/// A non-negative span of time, in microseconds.
///
/// ```
/// use tagio_core::time::Duration;
/// let d = Duration::from_millis(1) + Duration::from_micros(500);
/// assert_eq!(d.as_micros(), 1500);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Duration(u64);

impl Time {
    /// The schedule epoch (time zero).
    pub const ZERO: Time = Time(0);
    /// The largest representable instant.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a `Time` from a raw microsecond count.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        Time(us)
    }

    /// Creates a `Time` from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000)
    }

    /// Creates a `Time` from whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000)
    }

    /// Returns the raw microsecond count.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Checked subtraction of another instant; `None` if `other` is later.
    #[must_use]
    pub const fn checked_sub(self, other: Time) -> Option<Duration> {
        match self.0.checked_sub(other.0) {
            Some(d) => Some(Duration(d)),
            None => None,
        }
    }

    /// Saturating subtraction of another instant (clamps at zero).
    #[must_use]
    pub const fn saturating_sub(self, other: Time) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction of a duration; `None` on underflow.
    #[must_use]
    pub const fn checked_sub_duration(self, d: Duration) -> Option<Time> {
        match self.0.checked_sub(d.0) {
            Some(t) => Some(Time(t)),
            None => None,
        }
    }

    /// Saturating subtraction of a duration (clamps at the epoch).
    #[must_use]
    pub const fn saturating_sub_duration(self, d: Duration) -> Time {
        Time(self.0.saturating_sub(d.0))
    }

    /// Absolute distance to another instant.
    ///
    /// ```
    /// use tagio_core::time::{Time, Duration};
    /// let a = Time::from_micros(10);
    /// let b = Time::from_micros(4);
    /// assert_eq!(a.abs_diff(b), Duration::from_micros(6));
    /// assert_eq!(b.abs_diff(a), Duration::from_micros(6));
    /// ```
    #[must_use]
    pub const fn abs_diff(self, other: Time) -> Duration {
        Duration(self.0.abs_diff(other.0))
    }

    /// Returns the later of two instants.
    #[must_use]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    #[must_use]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a `Duration` from a raw microsecond count.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Creates a `Duration` from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Creates a `Duration` from whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Returns the raw microsecond count.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// `true` if this is the empty span.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction; `None` on underflow.
    #[must_use]
    pub const fn checked_sub(self, other: Duration) -> Option<Duration> {
        match self.0.checked_sub(other.0) {
            Some(d) => Some(Duration(d)),
            None => None,
        }
    }

    /// Saturating subtraction (clamps at zero).
    #[must_use]
    pub const fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two spans.
    #[must_use]
    pub fn max(self, other: Duration) -> Duration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two spans.
    #[must_use]
    pub fn min(self, other: Duration) -> Duration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    /// # Panics
    /// Panics if the result would precede the epoch.
    fn sub(self, rhs: Duration) -> Time {
        Time(
            self.0
                .checked_sub(rhs.0)
                .expect("time subtraction before epoch"),
        )
    }
}

impl SubAssign<Duration> for Time {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 = self
            .0
            .checked_sub(rhs.0)
            .expect("time subtraction before epoch");
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    /// # Panics
    /// Panics if `rhs` is later than `self`.
    fn sub(self, rhs: Time) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("negative duration from time subtraction"),
        )
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    /// # Panics
    /// Panics on underflow.
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    /// # Panics
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div for Duration {
    type Output = u64;
    /// Integer ratio of two spans (floor).
    ///
    /// # Panics
    /// Panics if `rhs` is zero.
    fn div(self, rhs: Duration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem for Duration {
    type Output = Duration;
    /// # Panics
    /// Panics if `rhs` is zero.
    fn rem(self, rhs: Duration) -> Duration {
        Duration(self.0 % rhs.0)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl From<Duration> for Time {
    /// Interprets a span measured from the epoch as an instant.
    fn from(d: Duration) -> Time {
        Time(d.0)
    }
}

impl From<Time> for Duration {
    /// Interprets an instant as its distance from the epoch.
    fn from(t: Time) -> Duration {
        Duration(t.0)
    }
}

/// Greatest common divisor of two spans (used for hyper-period reduction).
#[must_use]
pub fn gcd(a: Duration, b: Duration) -> Duration {
    let (mut a, mut b) = (a.0, b.0);
    while b != 0 {
        let t = b;
        b = a % b;
        a = t;
    }
    Duration(a)
}

/// Least common multiple of two spans (used for hyper-period computation).
///
/// # Panics
/// Panics if either span is zero or the result overflows `u64`.
#[must_use]
pub fn lcm(a: Duration, b: Duration) -> Duration {
    assert!(!a.is_zero() && !b.is_zero(), "lcm of zero-length span");
    checked_lcm(a, b).expect("hyper-period overflow")
}

/// [`lcm`], or `None` when either span is zero or the result overflows
/// `u64`.
#[must_use]
pub fn checked_lcm(a: Duration, b: Duration) -> Option<Duration> {
    if a.is_zero() || b.is_zero() {
        return None;
    }
    let g = gcd(a, b);
    (a.0 / g.0).checked_mul(b.0).map(Duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_scale() {
        assert_eq!(Time::from_millis(3), Time::from_micros(3_000));
        assert_eq!(Time::from_secs(2), Time::from_millis(2_000));
        assert_eq!(Duration::from_millis(3), Duration::from_micros(3_000));
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1_000));
    }

    #[test]
    fn time_plus_duration_roundtrip() {
        let t = Time::from_micros(100);
        let d = Duration::from_micros(42);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Time::from_micros(5) < Time::from_micros(6));
        assert!(Duration::from_micros(5) < Duration::from_micros(6));
        assert_eq!(Time::ZERO, Time::from_micros(0));
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_time_subtraction_panics() {
        let _ = Time::from_micros(1) - Time::from_micros(2);
    }

    #[test]
    fn checked_and_saturating_subtraction() {
        let a = Time::from_micros(5);
        let b = Time::from_micros(9);
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(a.saturating_sub(b), Duration::ZERO);
        assert_eq!(b.checked_sub(a), Some(Duration::from_micros(4)));
        assert_eq!(a.checked_sub_duration(Duration::from_micros(6)), None);
        assert_eq!(
            a.saturating_sub_duration(Duration::from_micros(6)),
            Time::ZERO
        );
    }

    #[test]
    fn abs_diff_is_symmetric() {
        let a = Time::from_micros(10);
        let b = Time::from_micros(25);
        assert_eq!(a.abs_diff(b), b.abs_diff(a));
        assert_eq!(a.abs_diff(b), Duration::from_micros(15));
        assert_eq!(a.abs_diff(a), Duration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let d = Duration::from_micros(10);
        assert_eq!(d * 3, Duration::from_micros(30));
        assert_eq!(d / 2, Duration::from_micros(5));
        assert_eq!(Duration::from_micros(30) / d, 3);
        assert_eq!(Duration::from_micros(35) % d, Duration::from_micros(5));
        assert_eq!(
            vec![d, d, d].into_iter().sum::<Duration>(),
            Duration::from_micros(30)
        );
    }

    #[test]
    fn gcd_lcm_basics() {
        let a = Duration::from_micros(12);
        let b = Duration::from_micros(18);
        assert_eq!(gcd(a, b), Duration::from_micros(6));
        assert_eq!(lcm(a, b), Duration::from_micros(36));
        assert_eq!(gcd(a, Duration::ZERO), a);
    }

    #[test]
    fn lcm_of_paper_periods_is_hyperperiod() {
        // A representative subset of divisors of 1440 ms.
        let periods = [10u64, 16, 30, 40, 60, 90, 160, 240, 480, 1440];
        let hp = periods
            .iter()
            .map(|&ms| Duration::from_millis(ms))
            .fold(Duration::from_micros(1), lcm);
        assert_eq!(hp, Duration::from_millis(1440));
    }

    #[test]
    fn min_max_helpers() {
        let a = Time::from_micros(1);
        let b = Time::from_micros(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = Duration::from_micros(1);
        let y = Duration::from_micros(2);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(Time::from_micros(7).to_string(), "7us");
        assert_eq!(Duration::from_millis(1).to_string(), "1000us");
    }
}
