//! Latency attribution.
//!
//! The paper's central claim is that non-training FL workloads are
//! *communication-bound* (≈99% of latency is data movement in the
//! ObjStore-Agg baseline) and that FLStore removes that component by
//! co-locating data and compute. Every simulated request therefore carries a
//! [`LatencyBreakdown`] mirroring the paper's comm/comp breakup figures
//! (Figs. 4, 15).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Per-request latency, attributed to four phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Request routing and bookkeeping (tracker/engine lookups, dispatch).
    pub routing: SimDuration,
    /// Waiting for a busy server/function instance.
    pub queueing: SimDuration,
    /// Data movement between data and compute planes.
    pub communication: SimDuration,
    /// Actual workload execution.
    pub computation: SimDuration,
}

impl LatencyBreakdown {
    /// An all-zero breakdown.
    pub const ZERO: LatencyBreakdown = LatencyBreakdown {
        routing: SimDuration::ZERO,
        queueing: SimDuration::ZERO,
        communication: SimDuration::ZERO,
        computation: SimDuration::ZERO,
    };

    /// A breakdown with only computation filled in.
    pub fn compute_only(d: SimDuration) -> Self {
        LatencyBreakdown {
            computation: d,
            ..LatencyBreakdown::ZERO
        }
    }

    /// End-to-end latency.
    pub fn total(&self) -> SimDuration {
        self.routing + self.queueing + self.communication + self.computation
    }

    /// Fraction of total latency spent in communication, in `[0, 1]`.
    /// Returns 0 for a zero-length request.
    pub fn communication_fraction(&self) -> f64 {
        let total = self.total();
        if total.is_zero() {
            0.0
        } else {
            self.communication.as_secs_f64() / total.as_secs_f64()
        }
    }
}

impl Add for LatencyBreakdown {
    type Output = LatencyBreakdown;
    fn add(self, rhs: LatencyBreakdown) -> LatencyBreakdown {
        LatencyBreakdown {
            routing: self.routing + rhs.routing,
            queueing: self.queueing + rhs.queueing,
            communication: self.communication + rhs.communication,
            computation: self.computation + rhs.computation,
        }
    }
}

impl AddAssign for LatencyBreakdown {
    fn add_assign(&mut self, rhs: LatencyBreakdown) {
        *self = *self + rhs;
    }
}

impl Sum for LatencyBreakdown {
    fn sum<I: Iterator<Item = LatencyBreakdown>>(iter: I) -> LatencyBreakdown {
        iter.fold(LatencyBreakdown::ZERO, Add::add)
    }
}

impl fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (route {}, queue {}, comm {}, comp {})",
            self.total(),
            self.routing,
            self.queueing,
            self.communication,
            self.computation
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let lb = LatencyBreakdown {
            routing: SimDuration::from_millis(1),
            queueing: SimDuration::from_millis(99),
            communication: SimDuration::from_secs(89),
            computation: SimDuration::from_secs_f64(2.8),
        };
        assert_eq!(lb.total(), SimDuration::from_secs_f64(91.9));
        let frac = lb.communication_fraction();
        assert!(frac > 0.95 && frac < 0.98, "frac was {frac}");
    }

    #[test]
    fn zero_fraction_is_zero() {
        assert_eq!(LatencyBreakdown::ZERO.communication_fraction(), 0.0);
    }

    #[test]
    fn add_accumulates_fieldwise() {
        let a = LatencyBreakdown {
            communication: SimDuration::from_secs(1),
            ..LatencyBreakdown::ZERO
        };
        let b = LatencyBreakdown::compute_only(SimDuration::from_secs(2));
        let c = a + b;
        assert_eq!(c.communication, SimDuration::from_secs(1));
        assert_eq!(c.computation, SimDuration::from_secs(2));
        let total: LatencyBreakdown = [a, b].into_iter().sum();
        assert_eq!(total, c);
    }
}
