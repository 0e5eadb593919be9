//! The paper's Table 1: a taxonomy of non-training FL workloads and the
//! caching-policy class each maps to.
//!
//! FLStore's tailored caching policies key off this classification:
//!
//! * **P1** — individual client updates or the final aggregated model
//!   (serving, testing, fine-tuning).
//! * **P2** — *all* client updates of a specific round (filtering,
//!   contribution calculation, per-round clustering/personalization,
//!   cluster-based scheduling, cosine similarity).
//! * **P3** — one client's updates *across* consecutive rounds (debugging,
//!   provenance, reproducibility, reputation over time).
//! * **P4** — configuration and performance metadata for the most recent
//!   `R` rounds (hyperparameter tracking, resource-aware scheduling,
//!   payout monitoring).

use serde::{Deserialize, Serialize};

use flstore_cloud::compute::WorkUnits;

/// The four caching-policy classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PolicyClass {
    /// Individual client updates / the aggregated model.
    P1IndividualOrAggregate,
    /// All client updates of one round.
    P2AllUpdatesInRound,
    /// One client's updates across rounds.
    P3AcrossRounds,
    /// Recent-rounds metadata and hyperparameters.
    P4Metadata,
}

impl PolicyClass {
    /// Short identifier as used in the paper ("P1".."P4").
    pub fn short_name(self) -> &'static str {
        match self {
            PolicyClass::P1IndividualOrAggregate => "P1",
            PolicyClass::P2AllUpdatesInRound => "P2",
            PolicyClass::P3AcrossRounds => "P3",
            PolicyClass::P4Metadata => "P4",
        }
    }
}

/// The ten evaluated non-training workloads (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Personalized-FL grouping of clients by model behaviour.
    Personalized,
    /// Client clustering on model updates (Auxo-style).
    Clustering,
    /// FedDebug-style rewind/trace debugging of a client across rounds.
    Debugging,
    /// Malicious-client filtering (norm/cosine outlier detection).
    MaliciousFiltering,
    /// Incentive distribution from per-round contributions.
    Incentives,
    /// Cluster-based scheduling (TiFL-style tiers).
    SchedulingCluster,
    /// Reputation calculation for a client over its history.
    ReputationCalc,
    /// Performance-aware scheduling (Oort-style utility).
    SchedulingPerf,
    /// Cosine-similarity analysis of a round's updates.
    CosineSimilarity,
    /// Inference serving from the aggregated model.
    Inference,
}

impl WorkloadKind {
    /// All ten workloads, in the ordering used by the paper's figures.
    pub const ALL: [WorkloadKind; 10] = [
        WorkloadKind::Personalized,
        WorkloadKind::Clustering,
        WorkloadKind::Debugging,
        WorkloadKind::MaliciousFiltering,
        WorkloadKind::Incentives,
        WorkloadKind::SchedulingCluster,
        WorkloadKind::ReputationCalc,
        WorkloadKind::SchedulingPerf,
        WorkloadKind::CosineSimilarity,
        WorkloadKind::Inference,
    ];

    /// The six workloads of the Cache-Agg comparison (Fig. 9).
    pub const CACHE_AGG_SET: [WorkloadKind; 6] = [
        WorkloadKind::CosineSimilarity,
        WorkloadKind::SchedulingCluster,
        WorkloadKind::Inference,
        WorkloadKind::MaliciousFiltering,
        WorkloadKind::SchedulingPerf,
        WorkloadKind::Incentives,
    ];

    /// Display name matching the paper's figure labels.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Personalized => "Personalized",
            WorkloadKind::Clustering => "Clustering",
            WorkloadKind::Debugging => "Debugging",
            WorkloadKind::MaliciousFiltering => "Malicious Filtering",
            WorkloadKind::Incentives => "Incentives",
            WorkloadKind::SchedulingCluster => "Sched. (Cluster)",
            WorkloadKind::ReputationCalc => "Reputation calc.",
            WorkloadKind::SchedulingPerf => "Sched. (Perf.)",
            WorkloadKind::CosineSimilarity => "Cosine similarity",
            WorkloadKind::Inference => "Inference",
        }
    }

    /// The Table-1 policy class this workload maps to.
    pub fn policy_class(self) -> PolicyClass {
        match self {
            WorkloadKind::Inference => PolicyClass::P1IndividualOrAggregate,
            WorkloadKind::Personalized
            | WorkloadKind::Clustering
            | WorkloadKind::MaliciousFiltering
            | WorkloadKind::CosineSimilarity
            | WorkloadKind::SchedulingCluster
            | WorkloadKind::Incentives => PolicyClass::P2AllUpdatesInRound,
            WorkloadKind::Debugging | WorkloadKind::ReputationCalc => PolicyClass::P3AcrossRounds,
            WorkloadKind::SchedulingPerf => PolicyClass::P4Metadata,
        }
    }

    /// Compute demand per input item at reference model scale, calibrated to
    /// the paper's measured per-workload computation times (§2.3 average
    /// ≈ 2.8 s; Fig. 12: clustering ≈ 6.07 s, cosine ≈ 0.031 s, malicious
    /// filtering ≈ 1.05 s, cluster scheduling ≈ 1.04 s for 10-update rounds
    /// of EfficientNetV2-S).
    fn ref_seconds_per_item(self) -> f64 {
        match self {
            WorkloadKind::Personalized => 0.40,
            WorkloadKind::Clustering => 0.60,
            WorkloadKind::Debugging => 0.35,
            WorkloadKind::MaliciousFiltering => 0.105,
            WorkloadKind::Incentives => 0.25,
            WorkloadKind::SchedulingCluster => 0.104,
            WorkloadKind::ReputationCalc => 0.15,
            WorkloadKind::SchedulingPerf => 0.05,
            WorkloadKind::CosineSimilarity => 0.0031,
            WorkloadKind::Inference => 1.0, // per batch against the aggregate
        }
    }

    /// Total compute demand for `items` input objects of a model with the
    /// given compute scale (see `ModelArch::compute_scale`).
    pub fn work_units(self, items: usize, model_scale: f64) -> WorkUnits {
        WorkUnits::from_ref_seconds(self.ref_seconds_per_item() * items.max(1) as f64 * model_scale)
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ten_workloads_have_unique_labels() {
        let mut labels: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 10);
    }

    #[test]
    fn taxonomy_covers_every_class() {
        use PolicyClass::*;
        let classes: Vec<PolicyClass> =
            WorkloadKind::ALL.iter().map(|w| w.policy_class()).collect();
        for c in [
            P1IndividualOrAggregate,
            P2AllUpdatesInRound,
            P3AcrossRounds,
            P4Metadata,
        ] {
            assert!(classes.contains(&c), "no workload maps to {c:?}");
        }
    }

    #[test]
    fn table1_mapping_matches_paper() {
        assert_eq!(
            WorkloadKind::Inference.policy_class(),
            PolicyClass::P1IndividualOrAggregate
        );
        assert_eq!(
            WorkloadKind::MaliciousFiltering.policy_class(),
            PolicyClass::P2AllUpdatesInRound
        );
        assert_eq!(
            WorkloadKind::Debugging.policy_class(),
            PolicyClass::P3AcrossRounds
        );
        assert_eq!(
            WorkloadKind::SchedulingPerf.policy_class(),
            PolicyClass::P4Metadata
        );
    }

    #[test]
    fn work_calibration_matches_fig12() {
        // 10 updates of EfficientNetV2-S (scale 1.0).
        let secs = |k: WorkloadKind| k.work_units(10, 1.0).as_ref_seconds();
        assert!((secs(WorkloadKind::Clustering) - 6.0).abs() < 0.2);
        assert!((secs(WorkloadKind::CosineSimilarity) - 0.031).abs() < 0.005);
        assert!((secs(WorkloadKind::MaliciousFiltering) - 1.05).abs() < 0.05);
        assert!((secs(WorkloadKind::SchedulingCluster) - 1.04).abs() < 0.05);
    }

    #[test]
    fn average_compute_demand_is_paper_scale() {
        let mean: f64 = WorkloadKind::ALL
            .iter()
            .map(|k| k.work_units(10, 1.0).as_ref_seconds())
            .sum::<f64>()
            / 10.0;
        // Paper §2.3: average ≈ 2.8 s across workloads.
        assert!((1.5..4.5).contains(&mean), "mean compute {mean}");
    }

    #[test]
    fn zero_items_still_costs_one_item() {
        let w = WorkloadKind::Inference.work_units(0, 1.0);
        assert!(w.as_ref_seconds() > 0.0);
    }

    #[test]
    fn short_names() {
        assert_eq!(PolicyClass::P1IndividualOrAggregate.short_name(), "P1");
        assert_eq!(PolicyClass::P4Metadata.short_name(), "P4");
    }
}
