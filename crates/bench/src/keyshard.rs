//! Intra-job parallelism experiment: MetaKey-sharded cache state served
//! with work-stealing (ROADMAP item 3, "beat the job-sharded ceiling").
//!
//! Job-hash routing parallelizes *across* tenants but pins a single hot
//! tenant to one core. This experiment drives exactly that worst case —
//! one job, a skewed stream of compute-bound P2 serves (malicious-client
//! filtering over one round's updates, all hitting the same replica set)
//! — and proves the shard count and the steal plane are unobservable in
//! the bytes:
//!
//! 1. **Key-shard sweep** — the same batch served sequentially with the
//!    cache engine partitioned into 1/2/4/8 MetaKey shards. Responses,
//!    the response checksum (FNV-1a over the wire encoding), and the
//!    window cost must be identical everywhere.
//! 2. **Stealing sweep** — the batch served at 1/2/4/8 key shards, each
//!    through a matching worker count so idle workers steal the hot
//!    tenant's deferred kernels; plus the deferred API finished inline.
//!    Every run must reproduce the sequential checksum.
//!
//! Everything here is a pure function of the seed and scale. How fast
//! stealing makes the serve phase is a wall-clock fact, measured by the
//! `benchmark/` probe `exec.steal_speedup_k2`.

use flstore_core::api::{DeferredResponse, Request, Response, Service};
use flstore_core::policy::TailoredPolicy;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_exec::ShardedExecutor;
use flstore_fl::ids::{JobId, Round};
use flstore_fl::job::{FlJobConfig, FlJobSim};
use flstore_net::codec::encode_response;
use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::WorkloadKind;
use serde_json::{json, Value};

use crate::util::{header, save_json, subheader, Scale};

/// Key-shard counts both sweeps cover.
const KEY_SHARDS: [usize; 4] = [1, 2, 4, 8];

/// The hot tenant: one job sized so the P2 kernel (O(clients × dims))
/// dominates the per-serve bookkeeping — the regime key sharding exists
/// for.
fn hot_job() -> FlJobConfig {
    FlJobConfig {
        rounds: 6,
        total_clients: 64,
        clients_per_round: 48,
        weight_dim: 4096,
        ..FlJobConfig::quick_test(JobId::new(1))
    }
}

/// Builds and loads the hot tenant with its cache state partitioned into
/// `key_shards` MetaKey shards.
fn loaded_store(key_shards: usize) -> (FlStore, Round) {
    let cfg = hot_job();
    let store_cfg = FlStoreConfig {
        key_shards,
        platform: PlatformConfig {
            reclaim: ReclaimModel::DISABLED,
            ..PlatformConfig::default()
        },
        ..FlStoreConfig::for_model(&cfg.model)
    };
    let mut store = FlStore::new(
        store_cfg,
        Box::new(TailoredPolicy::new()),
        cfg.job,
        cfg.model,
    );
    let mut last = Round::ZERO;
    let mut now = SimTime::ZERO;
    for record in FlJobSim::new(cfg) {
        last = record.round;
        store.ingest_round(now, &record);
        now += SimDuration::from_secs(60);
    }
    (store, last)
}

/// The skewed stream: every request is a cache-hit P2 serve against the
/// same round (same replica set) of the one hot job.
fn hot_batch(requests: usize, round: Round) -> Vec<Request> {
    (0..requests as u64)
        .map(|i| {
            Request::Serve(WorkloadRequest::new(
                RequestId::new(i + 1),
                WorkloadKind::MaliciousFiltering,
                JobId::new(1),
                round,
                None,
            ))
        })
        .collect()
}

/// FNV-1a over every response's wire encoding: a pure payload fact that
/// must reproduce bit-for-bit across key-shard counts, worker counts, and
/// runs.
fn checksum(responses: &[Response]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for response in responses {
        let (tag, payload) = encode_response(response);
        for byte in std::iter::once(tag).chain(payload) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The `keyshard` experiment: byte-equivalence across MetaKey shard
/// counts, then the same bytes under work stealing at every worker count.
pub fn keyshard(scale: Scale) -> Value {
    header("Intra-job parallelism: MetaKey-sharded cache, work-stealing serves");
    let cfg = hot_job();
    let requests = scale.requests();
    let now = SimTime::from_secs(3600);

    // Phase 1: determinism sweep. Sequential submission at every key-shard
    // count must produce identical bytes.
    subheader(&format!(
        "determinism: {requests} hot-tenant P2 serves at key shards {KEY_SHARDS:?}"
    ));
    let mut baseline: Option<(Vec<Response>, f64)> = None;
    for shards in KEY_SHARDS {
        let (mut store, round) = loaded_store(shards);
        let responses = store.submit_batch(now, &hot_batch(requests, round));
        let cost = Service::window_cost(&mut store, now).total().as_dollars();
        match &baseline {
            None => baseline = Some((responses, cost)),
            Some((expected, expected_cost)) => {
                assert_eq!(
                    &responses, expected,
                    "key shards must be unobservable in responses (K={shards})"
                );
                assert!(
                    cost == *expected_cost,
                    "key shards must be unobservable in window costs (K={shards})"
                );
            }
        }
    }
    let (expected, cost) = baseline.expect("sweep ran");
    let served = expected
        .iter()
        .filter(|r| matches!(r, Response::Served(_)))
        .count();
    assert_eq!(served, requests, "every hot serve hits the cache");
    let sum = checksum(&expected);

    // Phase 2: the stealing sweep. Key shards and workers move together;
    // the owner serializes bookkeeping while idle workers steal kernels.
    subheader("stealing: key shards = workers = K, then deferred kernels finished inline");
    let mut scaling = Vec::new();
    for shards in KEY_SHARDS {
        let (store, round) = loaded_store(shards);
        let mut exec = ShardedExecutor::new(vec![store], shards);
        assert_eq!(
            checksum(&exec.submit_batch(now, &hot_batch(requests, round))),
            sum,
            "work stealing must be unobservable in response bytes (K={shards})"
        );
        scaling.push(json!({ "key_shards": shards, "workers": shards }));
    }

    // The public deferred API: owner-serialized bookkeeping first, then
    // the pure kernels finished in order, must equal inline serving.
    let (mut store, round) = loaded_store(4);
    let finished: Vec<Response> = store
        .submit_batch_deferred(now, &hot_batch(requests, round))
        .into_iter()
        .map(DeferredResponse::finish)
        .collect();
    assert_eq!(
        checksum(&finished),
        sum,
        "deferred finishing diverged from inline serving"
    );
    println!("  {served}/{requests} served, checksum {sum:016x} — identical at every K");

    let v = json!({
        "experiment": "keyshard",
        "hot_job": {
            "jobs": 1,
            "kind": "MaliciousFiltering",
            "requests": requests,
            "clients_per_round": cfg.clients_per_round,
            "weight_dim": cfg.weight_dim,
        },
        "determinism": {
            "key_shards_checked": KEY_SHARDS.to_vec(),
            "served": served,
            "checksum": format!("{sum:016x}"),
            "window_cost_usd": cost,
        },
        "scaling": scaling,
    });
    save_json("keyshard", &v);
    v
}
