//! Virtual time primitives.
//!
//! All latency accounting in the FLStore reproduction runs on a *virtual*
//! clock: operations report how long they would have taken on the modeled
//! hardware, and drivers advance [`SimTime`] accordingly. Nothing ever
//! sleeps, so a 50-hour experiment finishes in milliseconds and is exactly
//! reproducible.
//!
//! The unit is the microsecond, stored in a `u64`. That gives sub-millisecond
//! resolution for routing overheads while still representing ~584,000 years,
//! far beyond any simulated horizon.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of microseconds in one second.
const MICROS_PER_SEC: u64 = 1_000_000;
/// Number of microseconds in one millisecond.
const MICROS_PER_MILLI: u64 = 1_000;

/// An instant on the virtual clock, measured in microseconds since the
/// simulation epoch (time zero).
///
/// `SimTime` is an absolute point; spans between points are represented by
/// [`SimDuration`]. The two types cannot be confused thanks to the newtype
/// pattern.
///
/// # Examples
///
/// ```
/// use flstore_sim::time::{SimTime, SimDuration};
///
/// let start = SimTime::ZERO;
/// let later = start + SimDuration::from_secs(5);
/// assert_eq!(later.duration_since(start), SimDuration::from_secs(5));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the epoch.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `secs` seconds after the epoch.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Creates an instant from fractional hours after the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `hours` is negative or not finite.
    #[inline]
    pub fn from_hours_f64(hours: f64) -> Self {
        SimTime::ZERO + SimDuration::from_hours_f64(hours)
    }

    /// Microseconds since the epoch.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Hours since the epoch, as a float.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// Saturates to [`SimDuration::ZERO`] when `earlier` is in the future,
    /// mirroring `std::time::Instant::saturating_duration_since`.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

/// A span of virtual time, measured in microseconds.
///
/// Arithmetic saturates rather than overflowing: simulated horizons never
/// approach `u64::MAX` microseconds, and saturating keeps accounting code
/// free of panics.
///
/// # Examples
///
/// ```
/// use flstore_sim::time::SimDuration;
///
/// let transfer = SimDuration::from_secs_f64(1.5);
/// let compute = SimDuration::from_millis(300);
/// assert_eq!((transfer + compute).as_secs_f64(), 1.8);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `micros` microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span of `millis` milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * MICROS_PER_MILLI)
    }

    /// Creates a span of `secs` whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// Creates a span of `mins` whole minutes.
    #[inline]
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * MICROS_PER_SEC)
    }

    /// Creates a span of `hours` whole hours.
    #[inline]
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3600 * MICROS_PER_SEC)
    }

    /// Creates a span from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        let micros = secs * MICROS_PER_SEC as f64;
        assert!(
            micros <= u64::MAX as f64,
            "duration of {secs} seconds overflows the virtual clock"
        );
        SimDuration(micros.round() as u64)
    }

    /// Creates a span from fractional hours.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SimDuration::from_secs_f64`].
    #[inline]
    pub fn from_hours_f64(hours: f64) -> Self {
        SimDuration::from_secs_f64(hours * 3600.0)
    }

    /// The span in whole microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in fractional milliseconds.
    #[inline]
    fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_MILLI as f64
    }

    /// The span in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The span in fractional hours.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction; returns zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Returns the longer of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the shorter of two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Scales the span by a non-negative factor, rounding to microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration scale factor must be finite and non-negative, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Divides the span by `n` equal parts.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn div_u64(self, n: u64) -> SimDuration {
        assert!(n != 0, "cannot divide a duration into zero parts");
        SimDuration(self.0 / n)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let micros = self.0;
        if micros == 0 {
            write!(f, "0s")
        } else if micros < MICROS_PER_MILLI {
            write!(f, "{micros}µs")
        } else if micros < MICROS_PER_SEC {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if micros < 3600 * MICROS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            write!(f, "{:.3}h", self.as_hours_f64())
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        self.div_u64(rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a SimDuration> for SimDuration {
    fn sum<I: Iterator<Item = &'a SimDuration>>(iter: I) -> SimDuration {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(2_500);
        assert_eq!((t + d).as_micros(), 12_500_000);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn duration_since_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.duration_since(late), SimDuration::ZERO);
        assert_eq!(late.duration_since(early), SimDuration::from_secs(1));
    }

    #[test]
    fn fractional_conversions() {
        let d = SimDuration::from_secs_f64(1.25);
        assert_eq!(d.as_micros(), 1_250_000);
        assert!((d.as_secs_f64() - 1.25).abs() < 1e-9);
        let h = SimDuration::from_hours_f64(0.5);
        assert_eq!(h.as_micros(), 1_800_000_000);
        assert!((h.as_hours_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panic() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn scaling_and_division() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 4, SimDuration::from_secs_f64(2.5));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12µs");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimDuration::from_hours(2).to_string(), "2.000h");
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
    }

    #[test]
    fn sum_of_durations() {
        let parts = [
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            SimDuration::from_secs(3),
        ];
        let total: SimDuration = parts.iter().sum();
        assert_eq!(total, SimDuration::from_secs(6));
    }

    #[test]
    fn min_max_helpers() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let ta = SimTime::from_secs(1);
        let tb = SimTime::from_secs(2);
        assert_eq!(ta.max(tb), tb);
        assert_eq!(ta.min(tb), ta);
    }
}
