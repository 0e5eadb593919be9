//! Behavioural tests for the full FLStore request path: hits, misses,
//! prefetching, policies, replication, fault recovery, and cost accounting.

use flstore_core::policy::{EvictionDiscipline, ReactivePolicy, StaticPolicy, TailoredPolicy};
use flstore_core::quota::TenantQuota;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_fl::ids::JobId;
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_fl::metadata::MetaKey;
use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
use flstore_sim::bytes::ByteSize;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::service::ServiceLedger;
use flstore_workloads::taxonomy::{PolicyClass, WorkloadKind};

fn quiet_config(model: &flstore_fl::zoo::ModelArch) -> FlStoreConfig {
    FlStoreConfig {
        platform: PlatformConfig {
            reclaim: ReclaimModel::DISABLED,
            ..PlatformConfig::default()
        },
        ..FlStoreConfig::for_model(model)
    }
}

struct Rig {
    store: FlStore,
    records: Vec<RoundRecord>,
    now: SimTime,
    next_request: u64,
}

impl Rig {
    fn new(cfg: FlStoreConfig, rounds: u32) -> Rig {
        let job_cfg = FlJobConfig {
            rounds,
            ..FlJobConfig::quick_test(JobId::new(1))
        };
        let store = FlStore::new(
            cfg,
            Box::new(TailoredPolicy::new()),
            job_cfg.job,
            job_cfg.model,
        );
        let records: Vec<RoundRecord> = FlJobSim::new(job_cfg).collect();
        Rig {
            store,
            records,
            now: SimTime::ZERO,
            next_request: 0,
        }
    }

    fn with_policy(
        cfg: FlStoreConfig,
        policy: Box<dyn flstore_core::policy::CachingPolicy>,
        rounds: u32,
    ) -> Rig {
        let job_cfg = FlJobConfig {
            rounds,
            ..FlJobConfig::quick_test(JobId::new(1))
        };
        let store = FlStore::new(cfg, policy, job_cfg.job, job_cfg.model);
        let records: Vec<RoundRecord> = FlJobSim::new(job_cfg).collect();
        Rig {
            store,
            records,
            now: SimTime::ZERO,
            next_request: 0,
        }
    }

    fn ingest_all(&mut self) {
        let records = self.records.clone();
        for r in &records {
            self.store.ingest_round(self.now, r);
            self.now += SimDuration::from_secs(120);
        }
    }

    fn request(&mut self, kind: WorkloadKind, round_idx: usize) -> WorkloadRequest {
        self.next_request += 1;
        let record = &self.records[round_idx];
        let client = match kind.policy_class() {
            PolicyClass::P3AcrossRounds => Some(record.updates[0].client),
            _ => None,
        };
        WorkloadRequest::new(
            RequestId::new(self.next_request),
            kind,
            JobId::new(1),
            record.round,
            client,
        )
    }
}

#[test]
fn p2_request_for_latest_round_hits_everything() {
    let mut rig = Rig::new(quiet_config(&flstore_fl::zoo::ModelArch::RESNET18), 6);
    rig.ingest_all();
    let req = rig.request(WorkloadKind::MaliciousFiltering, 5);
    let served = rig.store.serve(rig.now, &req).expect("servable");
    assert_eq!(served.measured.cache_misses, 0);
    assert!(served.measured.cache_hits > 0);
    // Hit-path latency is computation-bound: well under a second of
    // communication.
    assert!(served.measured.latency.communication < SimDuration::from_millis(100));
}

#[test]
fn p2_request_for_ancient_round_misses_and_recovers() {
    let mut rig = Rig::new(quiet_config(&flstore_fl::zoo::ModelArch::RESNET18), 10);
    rig.ingest_all();
    // Round 0 was evicted long ago by the ingest train.
    let req = rig.request(WorkloadKind::Clustering, 0);
    let served = rig
        .store
        .serve(rig.now, &req)
        .expect("persistent store has it");
    assert!(served.measured.cache_misses > 0);
    // Miss path pays object-store communication (tens of seconds at
    // ResNet18 sizes).
    assert!(served.measured.latency.communication > SimDuration::from_secs(5));
    assert!(served.measured.cost.transfer.as_dollars() > 0.0);
}

#[test]
fn inference_hits_the_cached_aggregate() {
    let mut rig = Rig::new(quiet_config(&flstore_fl::zoo::ModelArch::RESNET18), 5);
    rig.ingest_all();
    let req = rig.request(WorkloadKind::Inference, 4);
    let served = rig.store.serve(rig.now, &req).expect("servable");
    assert_eq!(served.measured.cache_misses, 0);
    assert_eq!(served.measured.cache_hits, 1);
}

#[test]
fn p4_scheduling_hits_metadata_window() {
    let mut rig = Rig::new(quiet_config(&flstore_fl::zoo::ModelArch::RESNET18), 12);
    rig.ingest_all();
    let req = rig.request(WorkloadKind::SchedulingPerf, 11);
    let served = rig.store.serve(rig.now, &req).expect("servable");
    assert_eq!(served.measured.cache_misses, 0, "P4 window is kept hot");
    assert_eq!(served.measured.cache_hits, 2); // latest round's metrics + hyper
}

#[test]
fn p3_first_request_misses_then_subsequent_hits() {
    let mut rig = Rig::new(quiet_config(&flstore_fl::zoo::ModelArch::RESNET18), 10);
    rig.ingest_all();
    let kind = WorkloadKind::ReputationCalc;
    let first = rig.request(kind, 9);
    let served_first = rig.store.serve(rig.now, &first).expect("servable");
    // The window reaches back past the kept rounds: some misses.
    assert!(served_first.measured.cache_misses > 0);

    // The same trace query repeated (client daemon polling) now hits: the
    // policy started tracking the client and prefetched its window.
    rig.now += SimDuration::from_secs(300);
    let second = WorkloadRequest {
        id: RequestId::new(999),
        ..first
    };
    let served_second = rig.store.serve(rig.now, &second).expect("servable");
    assert_eq!(
        served_second.measured.cache_misses, 0,
        "tracked client window should be prefetched"
    );
}

#[test]
fn reactive_lru_policy_misses_forward_marching_requests() {
    let cfg = quiet_config(&flstore_fl::zoo::ModelArch::RESNET18);
    let mut rig = Rig::with_policy(
        cfg,
        Box::new(ReactivePolicy::new(EvictionDiscipline::Lru, 3)),
        8,
    );
    // Interleave: ingest round, then request it (the FL pattern).
    let records = rig.records.clone();
    let mut hits = 0u64;
    let mut misses = 0u64;
    for (i, r) in records.iter().enumerate() {
        rig.store.ingest_round(rig.now, r);
        rig.now += SimDuration::from_secs(60);
        let req = rig.request(WorkloadKind::MaliciousFiltering, i);
        let served = rig.store.serve(rig.now, &req).expect("servable");
        hits += served.measured.cache_hits as u64;
        misses += served.measured.cache_misses as u64;
        rig.now += SimDuration::from_secs(60);
    }
    // The reactive cache never has the new round: ~0% hit rate (Table 2).
    assert_eq!(hits, 0, "reactive policy should never hit fresh rounds");
    assert!(misses > 0);
}

#[test]
fn tailored_policy_hits_where_lru_misses() {
    let cfg = quiet_config(&flstore_fl::zoo::ModelArch::RESNET18);
    let mut rig = Rig::new(cfg, 8);
    let records = rig.records.clone();
    let mut hits = 0u64;
    let mut misses = 0u64;
    for (i, r) in records.iter().enumerate() {
        rig.store.ingest_round(rig.now, r);
        rig.now += SimDuration::from_secs(60);
        let req = rig.request(WorkloadKind::MaliciousFiltering, i);
        let served = rig.store.serve(rig.now, &req).expect("servable");
        hits += served.measured.cache_hits as u64;
        misses += served.measured.cache_misses as u64;
        rig.now += SimDuration::from_secs(60);
    }
    let rate = hits as f64 / (hits + misses) as f64;
    assert!(rate > 0.99, "tailored hit rate {rate}");
}

#[test]
fn static_policy_misses_out_of_class_requests() {
    let cfg = quiet_config(&flstore_fl::zoo::ModelArch::RESNET18);
    let mut rig = Rig::with_policy(
        cfg,
        Box::new(StaticPolicy::new(PolicyClass::P1IndividualOrAggregate)),
        6,
    );
    rig.ingest_all();
    // P1 (inference) hits...
    let inf = rig.request(WorkloadKind::Inference, 5);
    let served = rig.store.serve(rig.now, &inf).expect("servable");
    assert_eq!(served.measured.cache_misses, 0);
    // ...but the workload switched to malicious filtering (P2): misses.
    let filt = rig.request(WorkloadKind::MaliciousFiltering, 5);
    let served = rig.store.serve(rig.now, &filt).expect("servable");
    assert!(
        served.measured.cache_misses > 0,
        "static policy must miss P2"
    );
}

#[test]
fn replication_recovers_from_forced_reclamation() {
    let model = flstore_fl::zoo::ModelArch::RESNET18;
    let mut cfg = quiet_config(&model);
    cfg.replication = 3;
    cfg.platform.reclaim = ReclaimModel {
        enabled: true,
        min_lifetime_hours: 0.02, // sandboxes die within minutes
        alpha: 2.5,
    };
    let mut rig = Rig::new(cfg, 6);
    let records = rig.records.clone();
    let mut fault_recoveries = 0u64;
    let mut refetches = 0u64;
    for (i, r) in records.iter().enumerate() {
        rig.store.ingest_round(rig.now, r);
        rig.now += SimDuration::from_mins(30);
        let req = rig.request(WorkloadKind::MaliciousFiltering, i);
        let served = rig.store.serve(rig.now, &req).expect("servable");
        if served.measured.recovered_from_fault {
            fault_recoveries += 1;
        }
        refetches += served.measured.cache_misses as u64;
        rig.now += SimDuration::from_mins(30);
    }
    assert!(
        rig.store.faults_observed() > 0,
        "aggressive reclaim model should fire"
    );
    // With 3 replicas, most requests survive without re-fetching everything.
    let _ = (fault_recoveries, refetches);
}

#[test]
fn capacity_limited_store_still_serves() {
    let model = flstore_fl::zoo::ModelArch::RESNET18;
    let mut cfg = quiet_config(&model);
    // Room for roughly half a round of ResNet18 updates.
    cfg.capacity_per_ring = Some(ByteSize::from_mb(150));
    let mut rig = Rig::new(cfg, 6);
    rig.ingest_all();
    let req = rig.request(WorkloadKind::MaliciousFiltering, 5);
    let served = rig.store.serve(rig.now, &req).expect("servable");
    // Some of the round did not fit: partial hits, partial misses.
    assert!(served.measured.cache_misses > 0);
    let full = Rig::new(quiet_config(&model), 6);
    drop(full);
}

#[test]
fn per_request_cost_is_orders_below_a_dollar() {
    let mut rig = Rig::new(
        quiet_config(&flstore_fl::zoo::ModelArch::EFFICIENTNET_V2_S),
        6,
    );
    rig.ingest_all();
    let req = rig.request(WorkloadKind::CosineSimilarity, 5);
    let served = rig.store.serve(rig.now, &req).expect("servable");
    // Hit path: just a short Lambda invocation — around 1e-4 dollars.
    assert!(
        served.measured.cost.total().as_dollars() < 0.005,
        "cost {}",
        served.measured.cost
    );
}

#[test]
fn total_cost_includes_background_and_storage() {
    let mut rig = Rig::new(quiet_config(&flstore_fl::zoo::ModelArch::RESNET18), 4);
    rig.ingest_all();
    let req = rig.request(WorkloadKind::Inference, 3);
    rig.store.serve(rig.now, &req).expect("servable");
    let end = rig.now + SimDuration::from_hours(1);
    let total = rig.store.total_cost(end);
    assert!(total.total().as_dollars() > 0.0);
    assert!(total.storage.as_dollars() > 0.0, "storage rent accrues");
    assert!(
        total.total() >= rig.store.ledger().request_cost().total(),
        "total covers request costs"
    );
}

#[test]
fn unknown_round_is_a_clean_error() {
    let mut rig = Rig::new(quiet_config(&flstore_fl::zoo::ModelArch::RESNET18), 3);
    rig.ingest_all();
    let req = WorkloadRequest::new(
        RequestId::new(77),
        WorkloadKind::Clustering,
        JobId::new(1),
        flstore_fl::ids::Round::new(500),
        None,
    );
    let err = rig.store.serve(rig.now, &req).unwrap_err();
    assert!(matches!(
        err,
        flstore_core::error::FlStoreError::NoData { .. }
    ));
}

#[test]
fn ledger_accumulates_outcomes() {
    let mut rig = Rig::new(quiet_config(&flstore_fl::zoo::ModelArch::RESNET18), 5);
    rig.ingest_all();
    let mut expected = ServiceLedger::new();
    for kind in [
        WorkloadKind::Inference,
        WorkloadKind::CosineSimilarity,
        WorkloadKind::Incentives,
    ] {
        let req = rig.request(kind, 4);
        let served = rig.store.serve(rig.now, &req).expect("servable");
        expected.record(&served.measured);
        rig.now += SimDuration::from_secs(30);
    }
    let ledger = rig.store.ledger();
    assert_eq!(ledger.len(), 3);
    assert!(ledger.hit_rate() > 0.99);
    expected.background_cost = ledger.background_cost;
    assert_eq!(*ledger, expected);
}

/// The strict-quota boundary is inclusive: an object fits when
/// `resident_bytes() + size` is within the budget.
///
/// * An unlimited twin ingesting one round ends at R resident bytes. A
///   strict tenant budgeted exactly R admits the same objects and keeps
///   the twin's keys; one budgeted a single byte less cannot.
/// * A budget of exactly the round's largest object size M admits every
///   object (each sheds its predecessor to make room), so nothing is
///   refused; at M − 1 byte the largest objects can never fit.
#[test]
fn strict_quota_admits_up_to_the_budget_inclusive() {
    let ingest_first_round = |quota: Option<TenantQuota>| {
        let cfg = FlStoreConfig {
            quota,
            ..quiet_config(&flstore_fl::zoo::ModelArch::RESNET18)
        };
        let mut rig = Rig::new(cfg, 2);
        let record = rig.records[0].clone();
        let receipt = rig.store.ingest_round(rig.now, &record);
        (receipt, rig.store)
    };
    let keys_of = |store: &FlStore| store.engine().keys().copied().collect::<Vec<MetaKey>>();
    let (twin_receipt, twin) = ingest_first_round(None);
    assert!(
        twin_receipt.cached > 1,
        "the round caches too little to budget"
    );
    let r = twin.resident_bytes();

    let (receipt, store) = ingest_first_round(Some(TenantQuota::strict(r)));
    assert_eq!(receipt.quota_denied, 0, "budget R refused an object");
    assert_eq!(
        keys_of(&store),
        keys_of(&twin),
        "budget R kept different keys"
    );
    assert_eq!(store.resident_bytes(), r);

    let tight = r.saturating_sub(ByteSize::from_bytes(1));
    let (_, store) = ingest_first_round(Some(TenantQuota::strict(tight)));
    assert_ne!(
        keys_of(&store),
        keys_of(&twin),
        "budget R − 1 byte kept every key"
    );
    assert!(store.resident_bytes() <= tight);

    let m = keys_of(&twin)
        .iter()
        .map(|k| twin.engine().meta(k).expect("cached").size)
        .max()
        .expect("cached keys");
    let (receipt, _) = ingest_first_round(Some(TenantQuota::strict(m)));
    assert_eq!(
        receipt.quota_denied, 0,
        "budget M refused an object of size ≤ M"
    );
    let (receipt, _) = ingest_first_round(Some(TenantQuota::strict(
        m.saturating_sub(ByteSize::from_bytes(1)),
    )));
    assert!(
        receipt.quota_denied > 0,
        "budget M − 1 byte admitted a size-M object"
    );
}
