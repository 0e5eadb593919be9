//! Compute-time modeling.
//!
//! Workloads declare their demand as [`WorkUnits`] — seconds on the paper's
//! reference measurement platform (a 2-vCPU serverless function). Executors
//! (functions of various sizes, the aggregator VM) scale that demand by
//! their [`ComputeProfile`]. Keeping demand and capability separate lets the
//! same workload implementation run on every architecture in the evaluation.

use serde::{Deserialize, Serialize};

use flstore_sim::time::SimDuration;

/// Compute demand, in seconds on the reference 2-vCPU function.
///
/// # Examples
///
/// ```
/// use flstore_cloud::compute::{ComputeProfile, WorkUnits};
///
/// let clustering = WorkUnits::from_ref_seconds(6.0);
/// let on_2core = clustering.duration_on(ComputeProfile::FUNCTION_2CORE);
/// let on_1core = clustering.duration_on(ComputeProfile::FUNCTION_1CORE);
/// assert!(on_2core < on_1core); // the bigger function is somewhat faster
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct WorkUnits(f64);

impl WorkUnits {
    /// Zero work.
    pub const ZERO: WorkUnits = WorkUnits(0.0);

    /// Creates a demand of `secs` reference seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_ref_seconds(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "work must be finite and non-negative, got {secs}"
        );
        WorkUnits(secs)
    }

    /// The demand in reference seconds.
    pub fn as_ref_seconds(self) -> f64 {
        self.0
    }

    /// Scales the demand (e.g. by item count or model-size ratio).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(self, factor: f64) -> WorkUnits {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "work scale factor must be finite and non-negative, got {factor}"
        );
        WorkUnits(self.0 * factor)
    }

    /// Execution time on a given compute profile.
    pub fn duration_on(self, profile: ComputeProfile) -> SimDuration {
        SimDuration::from_secs_f64(self.0 / profile.speed_factor)
    }
}

/// Relative execution speed of a compute venue versus the reference
/// 2-vCPU serverless function.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct ComputeProfile {
    /// Speed multiplier (1.0 = reference).
    pub speed_factor: f64,
}

impl ComputeProfile {
    /// The reference platform: a 2-vCPU / 4 GB serverless function (used by
    /// the paper for SwinTransformer / EfficientNet workloads).
    pub const FUNCTION_2CORE: ComputeProfile = ComputeProfile { speed_factor: 1.0 };

    /// A 1-vCPU / 2 GB function (paper's configuration for ResNet-18 and
    /// MobileNet workloads). Non-training kernels are partially
    /// memory-bound, so halving cores does not halve speed.
    pub const FUNCTION_1CORE: ComputeProfile = ComputeProfile { speed_factor: 0.7 };

    /// Creates a custom profile.
    ///
    /// # Panics
    ///
    /// Panics unless `speed_factor` is positive and finite.
    pub fn new(speed_factor: f64) -> Self {
        assert!(
            speed_factor.is_finite() && speed_factor > 0.0,
            "speed factor must be positive, got {speed_factor}"
        );
        ComputeProfile { speed_factor }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_seconds_pass_through() {
        let w = WorkUnits::from_ref_seconds(2.8);
        assert_eq!(
            w.duration_on(ComputeProfile::FUNCTION_2CORE),
            SimDuration::from_secs_f64(2.8)
        );
    }

    #[test]
    fn slower_profile_takes_longer() {
        let w = WorkUnits::from_ref_seconds(1.0);
        let slow = w.duration_on(ComputeProfile::FUNCTION_1CORE);
        let fast = w.duration_on(ComputeProfile::FUNCTION_2CORE);
        assert!(slow > fast);
        // SimDuration rounds to whole microseconds.
        assert!((slow.as_secs_f64() - 1.0 / 0.7).abs() < 1e-6);
    }

    #[test]
    fn scaling_multiplies_the_demand() {
        let w = WorkUnits::from_ref_seconds(2.0).scaled(3.0);
        assert!((w.as_ref_seconds() - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_work_panics() {
        let _ = WorkUnits::from_ref_seconds(-1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_panics() {
        let _ = ComputeProfile::new(0.0);
    }
}
