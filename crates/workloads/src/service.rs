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
///
/// Holds running totals, not the outcomes themselves, so its size does
/// not grow with the number of requests served. Equality stays as
/// strong as comparing every outcome in order: the ledger also keeps an
/// order-sensitive FNV-1a hash over every recorded outcome's fields
/// (floats by their bits).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceLedger {
    served: usize,
    hits: u64,
    misses: u64,
    request_cost: CostBreakdown,
    /// Order-sensitive FNV-1a hash over every recorded outcome.
    fingerprint: u64,
    /// Costs not attributable to a single request: write-through backups,
    /// keep-alive pings, prefetch transfers, replica repair, storage rent.
    pub background_cost: CostBreakdown,
}

/// FNV-1a offset basis: the fingerprint of an empty ledger.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one word into an FNV-1a hash, low byte first.
fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, byte| {
        (h ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl Default for ServiceLedger {
    fn default() -> Self {
        ServiceLedger {
            served: 0,
            hits: 0,
            misses: 0,
            request_cost: CostBreakdown::ZERO,
            fingerprint: FNV_OFFSET,
            background_cost: CostBreakdown::ZERO,
        }
    }
}

impl ServiceLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        ServiceLedger::default()
    }

    /// Records one served request, in completion order.
    pub fn record(&mut self, outcome: &RequestOutcome) {
        self.served += 1;
        self.hits += outcome.cache_hits as u64;
        self.misses += outcome.cache_misses as u64;
        // The same left fold from ZERO that `Sum` over the outcomes
        // would run, so the totals are bit-identical to recounting.
        self.request_cost += outcome.cost;
        let latency = &outcome.latency;
        let cost = &outcome.cost;
        let words = [
            outcome.request.as_u64(),
            outcome.kind as u64,
            outcome.arrived.as_micros(),
            outcome.finished.as_micros(),
            latency.routing.as_micros(),
            latency.queueing.as_micros(),
            latency.communication.as_micros(),
            latency.computation.as_micros(),
            cost.compute.as_dollars().to_bits(),
            cost.storage.as_dollars().to_bits(),
            cost.transfer.as_dollars().to_bits(),
            cost.requests.as_dollars().to_bits(),
            cost.infra.as_dollars().to_bits(),
            outcome.cache_hits as u64,
            outcome.cache_misses as u64,
            u64::from(outcome.recovered_from_fault),
        ];
        self.fingerprint = words.into_iter().fold(self.fingerprint, fnv1a);
    }

    /// Number of served requests.
    pub fn len(&self) -> usize {
        self.served
    }

    /// True when no requests were served.
    pub fn is_empty(&self) -> bool {
        self.served == 0
    }

    /// Total cache hits across requests.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total cache misses across requests.
    pub fn misses(&self) -> u64 {
        self.misses
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
        self.request_cost
    }

    /// Total cost including background spend.
    pub fn total_cost(&self) -> CostBreakdown {
        self.request_cost() + self.background_cost
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
        ledger.record(&outcome(1, WorkloadKind::Inference, 1.0, 0.001, 9, 1));
        ledger.record(&outcome(2, WorkloadKind::Clustering, 6.0, 0.002, 10, 0));
        ledger.background_cost += CostBreakdown::compute_only(Cost::from_dollars(0.01));
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.hits(), 19);
        assert_eq!(ledger.misses(), 1);
        assert!((ledger.hit_rate() - 0.95).abs() < 1e-12);
        assert!((ledger.request_cost().total().as_dollars() - 0.003).abs() < 1e-12);
        assert!((ledger.total_cost().total().as_dollars() - 0.013).abs() < 1e-12);
    }

    #[test]
    fn request_cost_is_the_sum_of_the_outcomes_bit_for_bit() {
        let outcomes: Vec<RequestOutcome> = (0..50)
            .map(|i| {
                outcome(
                    i,
                    WorkloadKind::Inference,
                    0.1,
                    1e-7 * (i as f64 + 0.3),
                    1,
                    0,
                )
            })
            .collect();
        let mut ledger = ServiceLedger::new();
        outcomes.iter().for_each(|o| ledger.record(o));
        let summed: CostBreakdown = outcomes.iter().map(|o| o.cost).sum();
        assert_eq!(ledger.request_cost(), summed);
        assert_eq!(
            ledger.request_cost().total().as_dollars().to_bits(),
            summed.total().as_dollars().to_bits()
        );
    }

    #[test]
    fn equal_ledgers_recorded_equal_sequences() {
        let a = outcome(1, WorkloadKind::Inference, 1.0, 0.001, 9, 1);
        let b = outcome(2, WorkloadKind::Clustering, 6.0, 0.002, 10, 0);
        let fed = |seq: &[RequestOutcome]| {
            let mut ledger = ServiceLedger::new();
            seq.iter().for_each(|o| ledger.record(o));
            ledger
        };
        assert_eq!(fed(&[a, b]), fed(&[a, b]));
        // Same totals, different order: only the fingerprint tells them apart.
        assert_ne!(fed(&[a, b]), fed(&[b, a]));
        // One field of one outcome differs, totals equal.
        let mut flagged = b;
        flagged.recovered_from_fault = true;
        assert_ne!(fed(&[a, b]), fed(&[a, flagged]));
        let mut later = b;
        later.finished += SimDuration::from_micros(1);
        assert_ne!(fed(&[a, b]), fed(&[a, later]));
        assert_eq!(fed(&[]), ServiceLedger::new());
    }

    #[test]
    fn empty_ledger_hit_rate_is_one() {
        assert_eq!(ServiceLedger::new().hit_rate(), 1.0);
        let o = outcome(3, WorkloadKind::Inference, 0.0, 0.0, 0, 0);
        assert_eq!(o.hit_rate(), 1.0);
    }
}
