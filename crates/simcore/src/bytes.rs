//! Byte quantities.
//!
//! The reproduction moves a lot of *logical* bytes around (model updates are
//! tens to hundreds of megabytes) while physically storing reduced-fidelity
//! payloads. [`ByteSize`] is the logical quantity used by every latency and
//! cost model.
//!
//! Decimal units are used throughout (1 MB = 10^6 bytes), matching how cloud
//! providers price storage and transfer and how the paper quotes model sizes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A quantity of bytes (decimal units: 1 kB = 1000 B).
///
/// # Examples
///
/// ```
/// use flstore_sim::bytes::ByteSize;
///
/// let model = ByteSize::from_mb_f64(82.7);
/// let round = model * 10; // ten client updates
/// assert!((round.as_gb_f64() - 0.827).abs() < 1e-9);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ByteSize(u64);

/// Bytes per decimal kilobyte.
const KB: u64 = 1_000;
/// Bytes per decimal megabyte.
const MB: u64 = 1_000_000;
/// Bytes per decimal gigabyte.
const GB: u64 = 1_000_000_000;
/// Bytes per decimal terabyte.
const TB: u64 = 1_000_000_000_000;

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size of `bytes` bytes.
    #[inline]
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a size of `kb` decimal kilobytes.
    #[inline]
    pub const fn from_kb(kb: u64) -> Self {
        ByteSize(kb * KB)
    }

    /// Creates a size of `mb` decimal megabytes.
    #[inline]
    pub const fn from_mb(mb: u64) -> Self {
        ByteSize(mb * MB)
    }

    /// Creates a size of `gb` decimal gigabytes.
    #[inline]
    pub const fn from_gb(gb: u64) -> Self {
        ByteSize(gb * GB)
    }

    /// Creates a size from fractional megabytes.
    ///
    /// # Panics
    ///
    /// Panics if `mb` is negative or not finite.
    #[inline]
    pub fn from_mb_f64(mb: f64) -> Self {
        assert!(
            mb.is_finite() && mb >= 0.0,
            "byte size must be finite and non-negative, got {mb} MB"
        );
        ByteSize((mb * MB as f64).round() as u64)
    }

    /// Creates a size from fractional gigabytes.
    ///
    /// # Panics
    ///
    /// Panics if `gb` is negative or not finite.
    #[inline]
    pub fn from_gb_f64(gb: f64) -> Self {
        assert!(
            gb.is_finite() && gb >= 0.0,
            "byte size must be finite and non-negative, got {gb} GB"
        );
        ByteSize((gb * GB as f64).round() as u64)
    }

    /// The raw byte count.
    #[inline]
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// The size in fractional megabytes.
    #[inline]
    pub fn as_mb_f64(self) -> f64 {
        self.0 as f64 / MB as f64
    }

    /// The size in fractional gigabytes.
    #[inline]
    pub fn as_gb_f64(self) -> f64 {
        self.0 as f64 / GB as f64
    }

    /// The size in fractional terabytes.
    #[inline]
    pub fn as_tb_f64(self) -> f64 {
        self.0 as f64 / TB as f64
    }

    /// True if the size is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction; clamps at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b < KB {
            write!(f, "{b}B")
        } else if b < MB {
            write!(f, "{:.2}kB", b as f64 / KB as f64)
        } else if b < GB {
            write!(f, "{:.2}MB", b as f64 / MB as f64)
        } else if b < TB {
            write!(f, "{:.2}GB", b as f64 / GB as f64)
        } else {
            write!(f, "{:.2}TB", b as f64 / TB as f64)
        }
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for ByteSize {
    #[inline]
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for ByteSize {
    #[inline]
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0.saturating_mul(rhs))
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a ByteSize> for ByteSize {
    fn sum<I: Iterator<Item = &'a ByteSize>>(iter: I) -> ByteSize {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(ByteSize::from_kb(1), ByteSize::from_bytes(1_000));
        assert_eq!(ByteSize::from_mb(1), ByteSize::from_bytes(1_000_000));
        assert_eq!(ByteSize::from_gb(1), ByteSize::from_bytes(1_000_000_000));
        assert_eq!(ByteSize::from_mb_f64(1.5), ByteSize::from_bytes(1_500_000));
    }

    #[test]
    fn conversions_round_trip() {
        let s = ByteSize::from_mb_f64(160.88);
        assert!((s.as_mb_f64() - 160.88).abs() < 1e-6);
        assert!((s.as_gb_f64() - 0.16088).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = ByteSize::from_mb(100);
        let b = ByteSize::from_mb(60);
        assert_eq!(a + b, ByteSize::from_mb(160));
        assert_eq!(a - b, ByteSize::from_mb(40));
        assert_eq!(b - a, ByteSize::ZERO); // saturates
        assert_eq!(a * 10, ByteSize::from_gb(1));
    }

    #[test]
    fn display_scales() {
        assert_eq!(ByteSize::from_bytes(512).to_string(), "512B");
        assert_eq!(ByteSize::from_kb(2).to_string(), "2.00kB");
        assert_eq!(ByteSize::from_mb_f64(82.7).to_string(), "82.70MB");
        assert_eq!(ByteSize::from_gb(79).to_string(), "79.00GB");
        assert_eq!(
            ByteSize::from_bytes(1_500 * TB / 1_000).to_string(),
            "1.50TB"
        );
    }

    #[test]
    fn sum_works() {
        let parts = [ByteSize::from_mb(10), ByteSize::from_mb(20)];
        let total: ByteSize = parts.iter().sum();
        assert_eq!(total, ByteSize::from_mb(30));
    }
}
