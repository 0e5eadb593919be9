//! Descriptive statistics for experiment reporting.
//!
//! The paper reports means, medians, quartiles (box plots) and extremes for
//! per-request latency and cost. [`Summary`] computes those from a sample,
//! and [`OnlineStats`] accumulates streaming moments without storing samples.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use flstore_sim::stats::OnlineStats;
///
/// let mut acc = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.count(), 4);
/// assert!((acc.mean() - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN; statistics over NaN are meaningless.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot accumulate NaN");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// A five-number-plus summary of a sample: mean, std, min, quartiles, tail
/// percentiles, max.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// First quartile (25th percentile).
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile (75th percentile).
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes a summary from a sample.
    ///
    /// Returns `None` for an empty sample.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN.
    pub fn from_values(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("summary values must not be NaN"));
        let mut acc = OnlineStats::new();
        for v in &sorted {
            acc.push(*v);
        }
        Some(Summary {
            count: sorted.len(),
            mean: acc.mean(),
            std_dev: acc.std_dev(),
            min: sorted[0],
            p25: percentile_sorted(&sorted, 25.0),
            p50: percentile_sorted(&sorted, 50.0),
            p75: percentile_sorted(&sorted, 75.0),
            p90: percentile_sorted(&sorted, 90.0),
            p99: percentile_sorted(&sorted, 99.0),
            max: sorted[sorted.len() - 1],
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} std={:.4} min={:.4} p50={:.4} p90={:.4} p99={:.4} max={:.4}",
            self.count, self.mean, self.std_dev, self.min, self.p50, self.p90, self.p99, self.max
        )
    }
}

/// Percentile (0–100) of an already-sorted slice using linear interpolation
/// between closest ranks (the "exclusive" definition used by numpy's default).
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!(
        (0.0..=100.0).contains(&q),
        "percentile must be in [0,100], got {q}"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Relative reduction of `new` versus `baseline`, as a percentage in
/// `[-inf, 100]`. Returns 0 when the baseline is zero.
///
/// This is the headline metric of the paper ("FLStore reduces average
/// latency by 71%").
pub fn reduction_pct(baseline: f64, new: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (baseline - new) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_quartiles() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::from_values(&values).expect("non-empty");
        assert_eq!(s.count, 100);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p25 - 25.75).abs() < 1e-9);
        assert!((s.p75 - 75.25).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::from_values(&[]).is_none());
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile_sorted(&[42.0], 99.0), 42.0);
    }

    #[test]
    fn reduction_examples() {
        assert!((reduction_pct(100.0, 29.0) - 71.0).abs() < 1e-12);
        assert_eq!(reduction_pct(0.0, 10.0), 0.0);
        assert!(reduction_pct(10.0, 20.0) < 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_push_panics() {
        let mut s = OnlineStats::new();
        s.push(f64::NAN);
    }
}
