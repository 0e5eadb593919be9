//! Canned scenario presets matching each paper experiment.
//!
//! The benchmark harness (`flstore-bench`) builds every figure from these,
//! so an experiment's parameters live in exactly one place.

use flstore_baselines::agg::{AggregatorBaseline, AggregatorConfig};
use flstore_core::policy::{
    CachingPolicy, EvictionDiscipline, ReactivePolicy, StaticPolicy, TailoredPolicy,
};
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_fl::ids::JobId;
use flstore_fl::job::FlJobConfig;
use flstore_fl::zoo::ModelArch;
use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
use flstore_sim::bytes::ByteSize;
use flstore_sim::time::SimTime;

/// Which FLStore policy variant to deploy (Fig. 11 / Table 2 / Fig. 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyVariant {
    /// The tailored policy (FLStore proper).
    Tailored,
    /// Tailored with halved cache capacity (FLStore-limited).
    Limited,
    /// LRU eviction, reactive caching.
    Lru,
    /// FIFO eviction, reactive caching.
    Fifo,
    /// LFU eviction, reactive caching.
    Lfu,
    /// Random eviction, reactive caching.
    Random,
    /// Frozen to one class (FLStore-Static; the ablation freezes to P1).
    Static,
}

impl PolicyVariant {
    /// All variants compared in Fig. 11.
    pub const FIG11: [PolicyVariant; 5] = [
        PolicyVariant::Lru,
        PolicyVariant::Fifo,
        PolicyVariant::Random,
        PolicyVariant::Limited,
        PolicyVariant::Tailored,
    ];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyVariant::Tailored => "FLStore",
            PolicyVariant::Limited => "FLStore-limited",
            PolicyVariant::Lru => "FLStore-LRU",
            PolicyVariant::Fifo => "FLStore-FIFO",
            PolicyVariant::Lfu => "FLStore-LFU",
            PolicyVariant::Random => "FLStore-Random",
            PolicyVariant::Static => "FLStore-Static",
        }
    }

    fn policy(self, seed: u64) -> Box<dyn CachingPolicy> {
        match self {
            PolicyVariant::Tailored | PolicyVariant::Limited => Box::new(TailoredPolicy::new()),
            PolicyVariant::Lru => Box::new(ReactivePolicy::new(EvictionDiscipline::Lru, seed)),
            PolicyVariant::Fifo => Box::new(ReactivePolicy::new(EvictionDiscipline::Fifo, seed)),
            PolicyVariant::Lfu => Box::new(ReactivePolicy::new(EvictionDiscipline::Lfu, seed)),
            PolicyVariant::Random => {
                Box::new(ReactivePolicy::new(EvictionDiscipline::Random, seed))
            }
            PolicyVariant::Static => Box::new(StaticPolicy::new(
                flstore_workloads::taxonomy::PolicyClass::P1IndividualOrAggregate,
            )),
        }
    }
}

/// The paper's evaluation job for one model (10/250 clients, 1000 rounds).
/// `rounds` is scaled down for fast experiment variants.
pub fn eval_job(model: ModelArch, rounds: u32) -> FlJobConfig {
    FlJobConfig {
        rounds,
        ..FlJobConfig::paper_eval(JobId::new(1), model)
    }
}

/// A fault-free FLStore deployment (used by latency/cost/policy figures,
/// which do not inject reclamations).
pub fn flstore_for(job: &FlJobConfig, variant: PolicyVariant, seed: u64) -> FlStore {
    let mut cfg = FlStoreConfig {
        seed,
        platform: PlatformConfig {
            reclaim: ReclaimModel::DISABLED,
            ..PlatformConfig::default()
        },
        ..FlStoreConfig::for_model(&job.model)
    };
    if variant == PolicyVariant::Limited {
        // Half the default working set (two rounds of updates + aggregate).
        let round_bytes = job.round_metadata_bytes();
        cfg.capacity_per_ring = Some(ByteSize::from_bytes(round_bytes.as_bytes()));
    }
    FlStore::new(cfg, variant.policy(seed), job.job, job.model)
}

/// An FLStore deployment with `replicas` rings and fault injection — the
/// fault-tolerance experiments (Figs. 13–14).
pub fn flstore_with_faults(
    job: &FlJobConfig,
    replicas: usize,
    reclaim: ReclaimModel,
    seed: u64,
) -> FlStore {
    let cfg = FlStoreConfig {
        seed,
        replication: replicas,
        platform: PlatformConfig {
            reclaim,
            ..PlatformConfig::default()
        },
        ..FlStoreConfig::for_model(&job.model)
    };
    FlStore::new(cfg, Box::new(TailoredPolicy::new()), job.job, job.model)
}

/// The ObjStore-Agg baseline for a job.
pub fn objstore_agg(job: &FlJobConfig) -> AggregatorBaseline {
    AggregatorBaseline::new(
        AggregatorConfig::objstore_agg(),
        job.job,
        job.model,
        SimTime::ZERO,
    )
}

/// The Cache-Agg baseline for a job, cluster sized for the job's metadata
/// working set (the paper provisions the cache for the job's data).
pub fn cache_agg(job: &FlJobConfig) -> AggregatorBaseline {
    let working_set = job.round_metadata_bytes() * u64::from(job.rounds);
    AggregatorBaseline::new(
        AggregatorConfig::cache_agg(working_set),
        job.job,
        job.model,
        SimTime::ZERO,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{drive, TraceConfig};

    #[test]
    fn variants_have_unique_labels() {
        let mut labels: Vec<&str> = PolicyVariant::FIG11.iter().map(|v| v.label()).collect();
        labels.push(PolicyVariant::Static.label());
        labels.push(PolicyVariant::Lfu.label());
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }

    #[test]
    fn limited_variant_serves_with_partial_cache() {
        let job = FlJobConfig {
            rounds: 10,
            ..FlJobConfig::quick_test(JobId::new(1))
        };
        let mut full = flstore_for(&job, PolicyVariant::Tailored, 1);
        let mut limited = flstore_for(&job, PolicyVariant::Limited, 1);
        let trace = TraceConfig::smoke(2);
        let full_report = drive(&mut full, &job, &trace);
        let limited_report = drive(&mut limited, &job, &trace);
        assert!(limited_report.hit_rate() <= full_report.hit_rate());
    }

    #[test]
    fn scenario_builders_produce_working_systems() {
        let job = FlJobConfig {
            rounds: 8,
            ..FlJobConfig::quick_test(JobId::new(1))
        };
        let trace = TraceConfig::smoke(3);
        for variant in PolicyVariant::FIG11 {
            let mut store = flstore_for(&job, variant, 4);
            let report = drive(&mut store, &job, &trace);
            assert!(
                !report.outcomes.is_empty(),
                "{} served nothing",
                variant.label()
            );
        }
        let mut base = objstore_agg(&job);
        assert!(!drive(&mut base, &job, &trace).outcomes.is_empty());
        let mut cache = cache_agg(&job);
        assert!(!drive(&mut cache, &job, &trace).outcomes.is_empty());
    }
}
