//! Per-request outcomes and experiment ledgers.
//!
//! These measurement types are shared by every system that serves
//! non-training requests — FLStore, the ObjStore-Agg and Cache-Agg
//! baselines — so comparisons in the benchmark harness are apples to
//! apples.

use serde::{Deserialize, Serialize};

use crate::request::RequestId;
use crate::taxonomy::WorkloadKind;
use flstore_sim::cost::CostBreakdown;
use flstore_sim::latency::LatencyBreakdown;
use flstore_sim::time::SimTime;

/// The measured result of serving one non-training request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// Request identifier.
    pub request: RequestId,
    /// Workload kind served.
    pub kind: WorkloadKind,
    /// Arrival time.
    pub arrived: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// Latency attribution.
    pub latency: LatencyBreakdown,
    /// Cost attribution (resources consumed by this request).
    pub cost: CostBreakdown,
    /// Needed objects found in the serverless cache.
    pub cache_hits: usize,
    /// Needed objects fetched from the persistent store.
    pub cache_misses: usize,
    /// Whether a failed (reclaimed) replica forced a failover or re-fetch.
    pub recovered_from_fault: bool,
}

impl RequestOutcome {
    /// Hit fraction for this request (1.0 when nothing was needed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Aggregated ledger over a window of served requests.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServiceLedger {
    /// Every served request, in completion order.
    pub outcomes: Vec<RequestOutcome>,
    /// Costs not attributable to a single request: write-through backups,
    /// keep-alive pings, prefetch transfers, replica repair, storage rent.
    pub background_cost: CostBreakdown,
}

impl ServiceLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        ServiceLedger::default()
    }

    /// Number of served requests.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True when no requests were served.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Total cache hits across requests.
    pub fn hits(&self) -> u64 {
        self.outcomes.iter().map(|o| o.cache_hits as u64).sum()
    }

    /// Total cache misses across requests.
    pub fn misses(&self) -> u64 {
        self.outcomes.iter().map(|o| o.cache_misses as u64).sum()
    }

    /// Overall hit rate in `[0, 1]` (1.0 when no objects were needed).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits();
        let m = self.misses();
        if h + m == 0 {
            1.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Sum of per-request costs.
    pub fn request_cost(&self) -> CostBreakdown {
        self.outcomes.iter().map(|o| o.cost).sum()
    }

    /// Total cost including background spend.
    pub fn total_cost(&self) -> CostBreakdown {
        self.request_cost() + self.background_cost
    }

    /// Outcomes of one workload kind.
    pub fn by_kind(&self, kind: WorkloadKind) -> impl Iterator<Item = &RequestOutcome> {
        self.outcomes.iter().filter(move |o| o.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flstore_sim::cost::Cost;
    use flstore_sim::time::SimDuration;

    fn outcome(
        id: u64,
        kind: WorkloadKind,
        secs: f64,
        dollars: f64,
        hits: usize,
        misses: usize,
    ) -> RequestOutcome {
        RequestOutcome {
            request: RequestId::new(id),
            kind,
            arrived: SimTime::ZERO,
            finished: SimTime::ZERO + SimDuration::from_secs_f64(secs),
            latency: LatencyBreakdown::compute_only(SimDuration::from_secs_f64(secs)),
            cost: CostBreakdown::compute_only(Cost::from_dollars(dollars)),
            cache_hits: hits,
            cache_misses: misses,
            recovered_from_fault: false,
        }
    }

    #[test]
    fn ledger_aggregates() {
        let mut ledger = ServiceLedger::new();
        ledger
            .outcomes
            .push(outcome(1, WorkloadKind::Inference, 1.0, 0.001, 9, 1));
        ledger
            .outcomes
            .push(outcome(2, WorkloadKind::Clustering, 6.0, 0.002, 10, 0));
        ledger.background_cost += CostBreakdown::compute_only(Cost::from_dollars(0.01));
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.hits(), 19);
        assert_eq!(ledger.misses(), 1);
        assert!((ledger.hit_rate() - 0.95).abs() < 1e-12);
        assert!((ledger.request_cost().total().as_dollars() - 0.003).abs() < 1e-12);
        assert!((ledger.total_cost().total().as_dollars() - 0.013).abs() < 1e-12);
        assert_eq!(ledger.by_kind(WorkloadKind::Inference).count(), 1);
    }

    #[test]
    fn empty_ledger_hit_rate_is_one() {
        assert_eq!(ServiceLedger::new().hit_rate(), 1.0);
        let o = outcome(3, WorkloadKind::Inference, 0.0, 0.0, 0, 0);
        assert_eq!(o.hit_rate(), 1.0);
    }
}
