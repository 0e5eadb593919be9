//! Dollar-cost accounting.
//!
//! Every simulated cloud operation reports a [`Cost`]. Aggregations keep a
//! [`CostBreakdown`] so experiments can attribute spend to compute, storage,
//! data transfer, per-request fees, or always-on infrastructure — the same
//! decomposition the paper uses in its cost breakup figures (Figs. 8, 16, 17).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

use serde::{Deserialize, Serialize};

/// A dollar amount.
///
/// Stored as `f64` dollars; cloud price sheets bottom out around
/// $1e-9 per unit, well within `f64` precision for the magnitudes simulated
/// here (micro-dollars to thousands of dollars).
///
/// # Examples
///
/// ```
/// use flstore_sim::cost::Cost;
///
/// let lambda_gb_s = Cost::from_dollars(0.0000166667);
/// let invocation = lambda_gb_s * 12.0; // 4 GB for 3 seconds
/// assert!(invocation.as_dollars() < 0.001);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Cost(f64);

impl Cost {
    /// Zero dollars.
    pub const ZERO: Cost = Cost(0.0);

    /// Creates a cost of `dollars` dollars.
    ///
    /// # Panics
    ///
    /// Panics if `dollars` is negative or not finite — costs only accrue.
    #[inline]
    pub fn from_dollars(dollars: f64) -> Self {
        assert!(
            dollars.is_finite() && dollars >= 0.0,
            "cost must be finite and non-negative, got {dollars}"
        );
        Cost(dollars)
    }

    /// The amount in dollars.
    #[inline]
    pub const fn as_dollars(self) -> f64 {
        self.0
    }

    /// True if the cost is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Saturating subtraction; clamps at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Cost) -> Cost {
        Cost((self.0 - rhs.0).max(0.0))
    }

    /// Returns the larger of two costs.
    #[inline]
    pub fn max(self, other: Cost) -> Cost {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0.0 {
            write!(f, "$0")
        } else if self.0 < 0.001 {
            write!(f, "${:.3e}", self.0)
        } else if self.0 < 1.0 {
            write!(f, "${:.4}", self.0)
        } else {
            write!(f, "${:.2}", self.0)
        }
    }
}

impl Add for Cost {
    type Output = Cost;
    #[inline]
    fn add(self, rhs: Cost) -> Cost {
        Cost(self.0 + rhs.0)
    }
}

impl AddAssign for Cost {
    #[inline]
    fn add_assign(&mut self, rhs: Cost) {
        self.0 += rhs.0;
    }
}

impl Sub for Cost {
    type Output = Cost;
    #[inline]
    fn sub(self, rhs: Cost) -> Cost {
        self.saturating_sub(rhs)
    }
}

impl Mul<f64> for Cost {
    type Output = Cost;
    #[inline]
    fn mul(self, rhs: f64) -> Cost {
        Cost::from_dollars(self.0 * rhs)
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Cost> for Cost {
    fn sum<I: Iterator<Item = &'a Cost>>(iter: I) -> Cost {
        iter.copied().sum()
    }
}

/// Cost attributed to the five spend categories used throughout the paper's
/// evaluation.
///
/// * `compute` — CPU/GB-seconds actually consumed executing a workload
///   (Lambda duration billing, VM busy time).
/// * `storage` — at-rest storage (S3 GB-month, cache memory).
/// * `transfer` — data movement between planes (egress / cross-AZ GB).
/// * `requests` — per-operation fees (S3 GET/PUT, Lambda invocations).
/// * `infra` — always-on infrastructure amortization (dedicated aggregator
///   instance hours, ElastiCache node hours, keep-alive pings).
///
/// # Examples
///
/// ```
/// use flstore_sim::cost::{Cost, CostBreakdown};
///
/// let mut bill = CostBreakdown::ZERO;
/// bill.compute += Cost::from_dollars(0.002);
/// bill.transfer += Cost::from_dollars(0.07);
/// assert!((bill.total().as_dollars() - 0.072).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Compute-time billing (Lambda GB-s, VM busy seconds).
    pub compute: Cost,
    /// At-rest storage billing.
    pub storage: Cost,
    /// Data-transfer billing between data and compute planes.
    pub transfer: Cost,
    /// Per-request operation fees.
    pub requests: Cost,
    /// Always-on infrastructure amortization.
    pub infra: Cost,
}

impl CostBreakdown {
    /// An all-zero breakdown.
    pub const ZERO: CostBreakdown = CostBreakdown {
        compute: Cost::ZERO,
        storage: Cost::ZERO,
        transfer: Cost::ZERO,
        requests: Cost::ZERO,
        infra: Cost::ZERO,
    };

    /// A breakdown with only the compute slot filled.
    pub fn compute_only(c: Cost) -> Self {
        CostBreakdown {
            compute: c,
            ..CostBreakdown::ZERO
        }
    }

    /// A breakdown with only the transfer slot filled.
    pub fn transfer_only(c: Cost) -> Self {
        CostBreakdown {
            transfer: c,
            ..CostBreakdown::ZERO
        }
    }

    /// Sum across all categories.
    pub fn total(&self) -> Cost {
        self.compute + self.storage + self.transfer + self.requests + self.infra
    }

    /// Communication-attributable share: transfer plus request fees.
    ///
    /// This matches the paper's "communication cost" category in the cost
    /// breakup analysis (Appendix B).
    pub fn communication(&self) -> Cost {
        self.transfer + self.requests
    }

    /// Scales every category by `factor` (used for amortizing shared costs).
    pub fn scaled(&self, factor: f64) -> CostBreakdown {
        CostBreakdown {
            compute: self.compute * factor,
            storage: self.storage * factor,
            transfer: self.transfer * factor,
            requests: self.requests * factor,
            infra: self.infra * factor,
        }
    }
}

impl Add for CostBreakdown {
    type Output = CostBreakdown;
    fn add(self, rhs: CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            compute: self.compute + rhs.compute,
            storage: self.storage + rhs.storage,
            transfer: self.transfer + rhs.transfer,
            requests: self.requests + rhs.requests,
            infra: self.infra + rhs.infra,
        }
    }
}

impl AddAssign for CostBreakdown {
    fn add_assign(&mut self, rhs: CostBreakdown) {
        *self = *self + rhs;
    }
}

impl Sum for CostBreakdown {
    fn sum<I: Iterator<Item = CostBreakdown>>(iter: I) -> CostBreakdown {
        iter.fold(CostBreakdown::ZERO, Add::add)
    }
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (compute {}, storage {}, transfer {}, requests {}, infra {})",
            self.total(),
            self.compute,
            self.storage,
            self.transfer,
            self.requests,
            self.infra
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_arithmetic() {
        let a = Cost::from_dollars(0.5);
        let b = Cost::from_dollars(0.25);
        assert_eq!((a + b).as_dollars(), 0.75);
        assert_eq!((b - a), Cost::ZERO); // saturates
        assert_eq!((a * 2.0).as_dollars(), 1.0);
        assert_eq!(a.max(b), a);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cost_panics() {
        let _ = Cost::from_dollars(-0.01);
    }

    #[test]
    fn breakdown_totals() {
        let bd = CostBreakdown {
            compute: Cost::from_dollars(1.0),
            storage: Cost::from_dollars(2.0),
            transfer: Cost::from_dollars(3.0),
            requests: Cost::from_dollars(4.0),
            infra: Cost::from_dollars(5.0),
        };
        assert_eq!(bd.total().as_dollars(), 15.0);
        assert_eq!(bd.communication().as_dollars(), 7.0);
        let doubled = bd + bd;
        assert_eq!(doubled.total().as_dollars(), 30.0);
        assert_eq!(bd.scaled(0.1).total().as_dollars(), 1.5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cost::ZERO.to_string(), "$0");
        assert_eq!(Cost::from_dollars(0.1234).to_string(), "$0.1234");
        assert_eq!(Cost::from_dollars(12.3).to_string(), "$12.30");
        assert!(Cost::from_dollars(0.0000002)
            .to_string()
            .starts_with("$2.000e-7"));
    }

    #[test]
    fn sum_costs() {
        let costs = [Cost::from_dollars(0.1), Cost::from_dollars(0.2)];
        let total: Cost = costs.iter().sum();
        assert!((total.as_dollars() - 0.3).abs() < 1e-12);
    }
}
