//! Workspace smoke test: the `flstore_suite` facade end-to-end.
//!
//! Ingests a full (quick-scale) FL job into `FlStore` under the paper's
//! tailored caching policy, serves one request per workload class, and
//! asserts the cached metadata actually satisfies them — the minimal
//! "does the whole stack hang together" check every future PR must keep
//! green.

use flstore_suite::fl::ids::JobId;
use flstore_suite::fl::job::{FlJobConfig, FlJobSim};
use flstore_suite::sim::time::{SimDuration, SimTime};
use flstore_suite::store::policy::TailoredPolicy;
use flstore_suite::store::store::{FlStore, FlStoreConfig};
use flstore_suite::workloads::request::{RequestId, WorkloadRequest};
use flstore_suite::workloads::taxonomy::WorkloadKind;

#[test]
fn facade_ingest_then_serve_hits_cache() {
    let cfg = FlJobConfig::quick_test(JobId::new(7));
    let mut store = FlStore::new(
        FlStoreConfig::for_model(&cfg.model),
        Box::new(TailoredPolicy::new()),
        cfg.job,
        cfg.model,
    );

    let mut now = SimTime::ZERO;
    let mut last_round = None;
    for record in FlJobSim::new(cfg.clone()) {
        store.ingest_round(now, &record);
        last_round = Some(record.round);
        now += SimDuration::from_secs(60);
    }
    let last_round = last_round.expect("quick_test produces at least one round");

    // P1: inference over the latest aggregate — must be served fully from
    // the serverless cache (that is the tailored policy's whole point).
    let inference = WorkloadRequest::new(
        RequestId::new(1),
        WorkloadKind::Inference,
        cfg.job,
        last_round,
        None,
    );
    let first = store.serve(now, &inference).expect("aggregate is cached");
    assert_eq!(
        first.measured.cache_misses, 0,
        "tailored policy must keep the latest aggregate warm"
    );
    assert!(first.measured.cache_hits > 0, "inference needs cached data");
    assert!(first.measured.finished >= first.measured.arrived);

    // P2: a round-scoped workload over all updates of the final round.
    let filtering = WorkloadRequest::new(
        RequestId::new(2),
        WorkloadKind::MaliciousFiltering,
        cfg.job,
        last_round,
        None,
    );
    let served = store
        .serve(now, &filtering)
        .expect("round updates resolvable");
    assert!(
        served.measured.hit_rate() > 0.5,
        "most of the final round should be cached, hit rate was {}",
        served.measured.hit_rate()
    );

    // Both responses carry their workload kinds; the ledger counted both.
    assert_eq!(first.measured.kind, WorkloadKind::Inference);
    assert_eq!(served.measured.kind, WorkloadKind::MaliciousFiltering);
    assert_eq!(store.ledger().len(), 2);
}
