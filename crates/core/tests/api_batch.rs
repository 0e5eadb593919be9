//! Property: submitting any envelope mix through `Service::submit_batch`
//! is observably identical to submitting the same envelopes one at a time
//! (batch size 1) at the same instant — same responses, same ledger
//! entries, same costs, same cache state.
//!
//! The same harness holds the line for the *parallel* serving plane: a
//! `flstore_exec::ShardedExecutor` (any shard count) wrapping the same
//! deployments must be bit-for-bit identical to sequential submission —
//! responses, ledgers, window costs, and cache fingerprints.
//!
//! For the *intra-job* plane: the same line holds across the key-shards
//! × job-shards cross product — a `MetaKey`-sharded cache engine served
//! through a work-stealing executor — including the f64 fold order of
//! Stats barriers and the bytes a durable deployment persists.
//!
//! And for the *durability* plane: a deployment killed at an arbitrary
//! point in the mix and recovered from its write-ahead ledger must serve
//! the remaining envelopes exactly as the uninterrupted run would, at
//! every shard count.
//!
//! For the *cluster* plane, the same harness holds the transparency
//! line of docs/CLUSTER.md: a 1-node, replication-factor-1
//! `ClusterStore` answers **bit-for-bit** like the bare store it wraps
//! (responses, ledger, costs, cache fingerprint — single submits and
//! batch decomposition both), and a cluster whose node is killed at an
//! arbitrary cut point and recovered from its own per-node ledger
//! serves the remaining envelopes exactly like an uninterrupted bare
//! reference.
//!
//! Deployments run with reclamation disabled (the figure-generation
//! setup): batching is *defined* to share one liveness pass across a
//! batch, so under fault injection a batch may attribute one fault to
//! several batchmates — outside faults, there must be no observable
//! difference at all. One property turns reclamation on and compares the
//! executor against the bare store's own `submit_batch`, which pins the
//! batch grouping itself.

use proptest::prelude::*;

use flstore_cluster::cluster::{ClusterConfig, ClusterStore};
use flstore_cluster::failure::{FailureKind, FailurePlan};
use flstore_core::api::{Request, Response, Service};
use flstore_core::policy::TailoredPolicy;
use flstore_core::quota::TenantQuota;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_core::tenancy::MultiTenantStore;
use flstore_exec::ShardedExecutor;
use flstore_fl::ids::JobId;
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_fl::metadata::MetaKey;
use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
use flstore_sim::bytes::ByteSize;
use flstore_sim::rng::DetRng;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::{PolicyClass, WorkloadKind};

const JOB: u32 = 1;

fn job_config() -> FlJobConfig {
    FlJobConfig {
        rounds: 6,
        ..FlJobConfig::quick_test(JobId::new(JOB))
    }
}

/// A deployment with `capacity` optionally constrained (the
/// FLStore-limited shape, which exercises victim eviction under pressure).
fn loaded_store(limited: bool) -> (FlStore, Vec<RoundRecord>) {
    loaded_store_keyed(limited, 0)
}

/// [`loaded_store`] with the cache engine partitioned into `key_shards`
/// MetaKey shards (0 = the process-wide default, i.e. unsharded).
fn loaded_store_keyed(limited: bool, key_shards: usize) -> (FlStore, Vec<RoundRecord>) {
    loaded_store_reclaiming(limited, key_shards, ReclaimModel::DISABLED)
}

/// [`loaded_store_keyed`] under the given replica reclamation model.
fn loaded_store_reclaiming(
    limited: bool,
    key_shards: usize,
    reclaim: ReclaimModel,
) -> (FlStore, Vec<RoundRecord>) {
    let job = job_config();
    let cfg = FlStoreConfig {
        key_shards,
        platform: PlatformConfig {
            reclaim,
            ..PlatformConfig::default()
        },
        capacity_per_ring: limited.then(|| job.round_metadata_bytes() + ByteSize::from_mb(50)),
        ..FlStoreConfig::for_model(&job.model)
    };
    let mut store = FlStore::new(cfg, Box::new(TailoredPolicy::new()), job.job, job.model);
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let mut now = SimTime::ZERO;
    // Hold the last record back so the mix can contain Ingest envelopes.
    for r in &records[..records.len() - 1] {
        store.ingest_round(now, r);
        now += SimDuration::from_secs(60);
    }
    (store, records)
}

/// Derives a deterministic envelope mix from `seed`: mostly serves across
/// every workload class, plus evictions, stats probes, admission-rejected
/// foreign-job requests, unservable rounds, and a held-back round ingest.
fn request_mix(seed: u64, len: usize, records: &[RoundRecord]) -> Vec<Request> {
    let mut rng = DetRng::stream(seed, "api-batch-mix");
    let observed = &records[..records.len() - 1];
    let mut requests = Vec::with_capacity(len);
    for i in 0..len {
        let id = RequestId::new(i as u64 + 1);
        match rng.index(12) {
            // One held-back round can land mid-mix (a batch barrier).
            0 => requests.push(Request::Ingest {
                job: JobId::new(JOB),
                record: std::sync::Arc::new(records.last().expect("records").clone()),
            }),
            1 => {
                let round = observed[rng.index(observed.len())].round;
                let key = match rng.index(3) {
                    0 => MetaKey::aggregate(JobId::new(JOB), round),
                    1 => MetaKey::metrics(JobId::new(JOB), round),
                    _ => MetaKey::hyperparams(JobId::new(JOB), round),
                };
                requests.push(Request::Evict(key));
            }
            2 => requests.push(Request::Stats),
            3 => {
                // Admission rejection: a job no deployment owns.
                let round = observed[rng.index(observed.len())].round;
                requests.push(Request::Serve(WorkloadRequest::new(
                    id,
                    WorkloadKind::Inference,
                    JobId::new(77),
                    round,
                    None,
                )));
            }
            4 => {
                // Unservable round: typed NoData, not a silent drop.
                requests.push(Request::Serve(WorkloadRequest::new(
                    id,
                    WorkloadKind::Clustering,
                    JobId::new(JOB),
                    flstore_fl::ids::Round::new(99),
                    None,
                )));
            }
            _ => {
                let record = &observed[rng.index(observed.len())];
                let kind = WorkloadKind::ALL[rng.index(WorkloadKind::ALL.len())];
                let client = match kind.policy_class() {
                    PolicyClass::P3AcrossRounds => {
                        Some(record.updates[rng.index(record.updates.len())].client)
                    }
                    _ => None,
                };
                requests.push(Request::Serve(WorkloadRequest::new(
                    id,
                    kind,
                    JobId::new(JOB),
                    record.round,
                    client,
                )));
            }
        }
    }
    requests
}

fn cache_fingerprint(store: &FlStore) -> Vec<String> {
    let mut keys: Vec<String> = store
        .engine()
        .keys()
        .map(|k| {
            let m = store.engine().meta(k).expect("tracked keys carry meta");
            format!(
                "{k} seq={} freq={} locs={:?}",
                m.last_access_seq,
                m.frequency,
                store.engine().locations(k)
            )
        })
        .collect();
    keys.sort();
    keys
}

fn assert_equivalent(limited: bool, seed: u64, len: usize) {
    let (mut batched, records) = loaded_store(limited);
    let (mut sequential, _) = loaded_store(limited);
    let mix = request_mix(seed, len, &records);
    let now = SimTime::from_secs(7200);

    let batch_responses = batched.submit_batch(now, &mix);
    let sequential_responses: Vec<Response> = mix
        .iter()
        .map(|r| sequential.submit(now, r.clone()))
        .collect();

    assert_eq!(batch_responses, sequential_responses, "responses differ");
    assert_eq!(
        batched.ledger().outcomes,
        sequential.ledger().outcomes,
        "ledger entries differ"
    );
    assert_eq!(
        batched.ledger().background_cost,
        sequential.ledger().background_cost,
        "background costs differ"
    );
    assert_eq!(
        batched.total_cost(now),
        sequential.total_cost(now),
        "window costs differ"
    );
    assert_eq!(
        cache_fingerprint(&batched),
        cache_fingerprint(&sequential),
        "cache state differs"
    );
}

/// Shard counts every parallel property sweeps.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Single-tenant plane: a sharded executor wrapping one deployment must
/// be bit-for-bit identical to sequential submission on an identically
/// loaded deployment — for every shard count.
fn assert_sharded_single_tenant_equivalent(limited: bool, seed: u64, len: usize) {
    let (mut sequential, records) = loaded_store(limited);
    let mix = request_mix(seed, len, &records);
    let now = SimTime::from_secs(7200);
    let sequential_responses: Vec<Response> = mix
        .iter()
        .map(|r| sequential.submit(now, r.clone()))
        .collect();
    let sequential_cost = sequential.total_cost(now);

    for shards in SHARD_COUNTS {
        let (parallel, _) = loaded_store(limited);
        let mut exec = ShardedExecutor::new(vec![parallel], shards);
        let responses = exec.submit_batch(now, &mix);
        assert_eq!(
            responses, sequential_responses,
            "responses @{shards} shards"
        );
        assert_eq!(Service::window_cost(&mut exec, now), sequential_cost);
        let store = exec.into_units().pop().expect("unit returned");
        assert_eq!(
            store.ledger().outcomes,
            sequential.ledger().outcomes,
            "ledger @{shards} shards"
        );
        assert_eq!(
            cache_fingerprint(&store),
            cache_fingerprint(&sequential),
            "cache state @{shards} shards"
        );
    }
}

/// MetaKey-shard counts the intra-job parallelism properties sweep.
const KEY_SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Intra-job parallelism: the full key-shards × job-shards cross product
/// must be bit-for-bit identical to sequential submission on an unsharded
/// deployment. With more workers than busy jobs (every point here — one
/// tenant), the idle workers steal the hot tenant's deferred serve
/// kernels, so this property also pins the steal plane's ordered merge.
fn assert_key_shard_cross_product_equivalent(limited: bool, seed: u64, len: usize) {
    let (mut sequential, records) = loaded_store(limited);
    let mix = request_mix(seed, len, &records);
    let now = SimTime::from_secs(7200);
    let sequential_responses: Vec<Response> = mix
        .iter()
        .map(|r| sequential.submit(now, r.clone()))
        .collect();
    let sequential_cost = sequential.total_cost(now);

    for key_shards in KEY_SHARD_COUNTS {
        for job_shards in [1usize, 2, 4] {
            let (parallel, _) = loaded_store_keyed(limited, key_shards);
            let mut exec = ShardedExecutor::new(vec![parallel], job_shards);
            let responses = exec.submit_batch(now, &mix);
            assert_eq!(
                responses, sequential_responses,
                "responses @K={key_shards} keys × {job_shards} workers"
            );
            // Exact f64 equality: any hash-order drift in a cost fold
            // shows up here, not as an epsilon.
            assert_eq!(
                Service::window_cost(&mut exec, now),
                sequential_cost,
                "window costs @K={key_shards} keys × {job_shards} workers"
            );
            let store = exec.into_units().pop().expect("unit returned");
            assert_eq!(
                store.ledger().outcomes,
                sequential.ledger().outcomes,
                "ledger @K={key_shards} keys × {job_shards} workers"
            );
            assert_eq!(
                cache_fingerprint(&store),
                cache_fingerprint(&sequential),
                "cache state @K={key_shards} keys × {job_shards} workers"
            );
        }
    }
}

/// Reclamation on: replicas die while the deployment idles, so serves in
/// the mix meet faults and the liveness pass recovers them. That pass is
/// batch-scoped (one fault may mark several batchmates
/// `recovered_from_fault`), so the reference is a bare K=1 store's own
/// `submit_batch`, not per-envelope submits. An executor over one store,
/// at every worker count × key-shard count, must group the batch exactly
/// as the bare store does: responses, ledger outcomes, window cost and
/// cache state all match. Returns the faults the reference observed.
fn assert_executor_equals_batch_under_reclamation(seed: u64, len: usize) -> u64 {
    let (mut reference, records) = loaded_store_reclaiming(false, 1, ReclaimModel::FAULT_INJECTION);
    let mix = request_mix(seed, len, &records);
    let now = SimTime::from_secs(7200);
    let reference_responses = reference.submit_batch(now, &mix);
    let reference_cost = reference.total_cost(now);

    for key_shards in [1usize, 4] {
        for workers in [1usize, 2, 4] {
            let (parallel, _) =
                loaded_store_reclaiming(false, key_shards, ReclaimModel::FAULT_INJECTION);
            let mut exec = ShardedExecutor::new(vec![parallel], workers);
            let responses = exec.submit_batch(now, &mix);
            assert_eq!(
                responses, reference_responses,
                "responses @K={key_shards} keys × {workers} workers, reclaiming"
            );
            assert_eq!(
                Service::window_cost(&mut exec, now),
                reference_cost,
                "window costs @K={key_shards} keys × {workers} workers, reclaiming"
            );
            let store = exec.into_units().pop().expect("unit returned");
            assert_eq!(
                store.ledger().outcomes,
                reference.ledger().outcomes,
                "ledger @K={key_shards} keys × {workers} workers, reclaiming"
            );
            assert_eq!(
                cache_fingerprint(&store),
                cache_fingerprint(&reference),
                "cache state @K={key_shards} keys × {workers} workers, reclaiming"
            );
            assert_eq!(store.faults_observed(), reference.faults_observed());
        }
    }
    reference.faults_observed()
}

/// The reclamation property is not vacuous: across a fixed handful of
/// seeds the reference deployment does observe faults.
#[test]
fn executor_equals_batch_under_reclamation_sees_faults() {
    let faults: u64 = (0..4u64)
        .map(|seed| assert_executor_equals_batch_under_reclamation(seed, 16))
        .sum();
    assert!(faults > 0, "no seed observed a reclaimed replica");
}

/// Durability × key shards: a durable deployment's persisted bytes —
/// write-ahead ledger segments and snapshots — must be identical at every
/// key-shard count, even when the serves run through a work-stealing
/// executor. The shard layout is a serve-phase fact; if it leaked into
/// the persisted records (hash/shard iteration order in a digest or
/// snapshot), recovery portability across `--key-shards` settings would
/// silently break. Only the MANIFEST may differ, and only in its
/// `key_shards` field.
fn assert_key_sharded_durability_bytes_identical(seed: u64, len: usize) {
    let (mut reference, records) = loaded_store(false);
    let mix = request_mix(seed, len, &records);
    let now = SimTime::from_secs(7200);
    let reference_responses: Vec<Response> = mix
        .iter()
        .map(|r| reference.submit(now, r.clone()))
        .collect();

    let mut persisted: Vec<Vec<(String, Vec<u8>)>> = Vec::new();
    let mut manifests: Vec<flstore_durability::recover::Manifest> = Vec::new();
    for key_shards in [1usize, 8] {
        let dir = flstore_durability::testkit::DetTempDir::new(
            "api-batch-keyshard-wal",
            seed ^ ((len as u64) << 40) ^ ((key_shards as u64) << 56),
        );
        let durable = durable_store(dir.path(), key_shards, 8, &records);
        let mut exec = ShardedExecutor::new(vec![durable], 4);
        let responses = exec.submit_batch(now, &mix);
        assert_eq!(
            responses, reference_responses,
            "durable responses @{key_shards} key shards"
        );
        drop(exec); // close the ledger writer before reading its files
        persisted.push(persisted_files(dir.path()));
        let manifest =
            std::fs::read_to_string(dir.path().join(flstore_durability::recover::MANIFEST))
                .expect("manifest");
        manifests.push(serde_json::from_str(&manifest).expect("manifest parses"));
    }
    assert_eq!(
        persisted[0], persisted[1],
        "ledger/snapshot bytes differ across key-shard counts"
    );
    for manifest in &mut manifests {
        manifest.config.key_shards = 0;
    }
    assert_eq!(
        manifests[0], manifests[1],
        "manifests differ beyond the key_shards field"
    );
}

/// A durable deployment in `dir` (every record flushed, a snapshot every
/// `snapshot_every` records) with all but the last of `records` ingested.
fn durable_store(
    dir: &std::path::Path,
    key_shards: usize,
    snapshot_every: u32,
    records: &[RoundRecord],
) -> FlStore {
    let job = job_config();
    let cfg = FlStoreConfig {
        key_shards,
        platform: PlatformConfig {
            reclaim: ReclaimModel::DISABLED,
            ..PlatformConfig::default()
        },
        durability: flstore_core::durable::DurabilityConfig {
            flush_every: 1,
            snapshot_every,
            ..flstore_core::durable::DurabilityConfig::DISABLED
        },
        ..FlStoreConfig::for_model(&job.model)
    };
    let mut durable = FlStore::new(cfg, Box::new(TailoredPolicy::new()), job.job, job.model);
    flstore_durability::recover::attach(&mut durable, dir).expect("attach");
    let mut at = SimTime::ZERO;
    for r in &records[..records.len() - 1] {
        durable.ingest_round(at, r);
        at += SimDuration::from_secs(60);
    }
    durable
}

/// Every file a durable deployment persisted in `dir` except the
/// MANIFEST, by name.
fn persisted_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("durable dir")
        .map(|e| e.expect("dir entry"))
        .filter(|e| e.file_name() != flstore_durability::recover::MANIFEST)
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("persisted file"),
            )
        })
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "the durable run persisted nothing to compare"
    );
    files
}

/// `FlStore::serve` is a batch of one on disk too: the same envelopes fed
/// through `submit` and through one-envelope `submit_batch` calls persist
/// identical ledger segments and snapshots. Unservable rounds lead the
/// mix, so a `NoData` serve that falls due for a seal must seal it.
#[test]
fn single_submits_persist_the_bytes_of_batches_of_one() {
    let records: Vec<RoundRecord> = FlJobSim::new(job_config()).collect();
    let unservable = (0..9).map(|i| {
        Request::Serve(WorkloadRequest::new(
            RequestId::new(100 + i),
            WorkloadKind::Inference,
            JobId::new(JOB),
            flstore_fl::ids::Round::new(99),
            None,
        ))
    });
    let mix: Vec<Request> = unservable.chain(request_mix(3, 12, &records)).collect();
    let now = SimTime::from_secs(7200);

    let mut persisted = Vec::new();
    for batched in [false, true] {
        let dir = flstore_durability::testkit::DetTempDir::new(
            "api-batch-single-wal",
            u64::from(batched),
        );
        let mut durable = durable_store(dir.path(), 0, 4, &records);
        let responses: Vec<Response> = mix
            .iter()
            .map(|r| match batched {
                false => durable.submit(now, r.clone()),
                true => durable
                    .submit_batch(now, std::slice::from_ref(r))
                    .pop()
                    .expect("one response"),
            })
            .collect();
        drop(durable); // close the ledger writer before reading its files
        persisted.push((responses, persisted_files(dir.path())));
    }
    assert_eq!(
        persisted[0], persisted[1],
        "submit and one-envelope submit_batch persisted different bytes"
    );
}

const TENANT_JOBS: [u32; 3] = [1, 2, 5];

/// A multi-tenant front end with every tenant trained up to (but not
/// including) its last round, plus the per-tenant record sets. With
/// `quotas`, arms elastic per-tenant budgets sized to be overshot and a
/// global budget sized to force the pressure pass at every Stats barrier —
/// the cross-tenant quota-pressure shape.
fn loaded_front_with_quotas(quotas: bool) -> (MultiTenantStore, Vec<Vec<RoundRecord>>) {
    loaded_front_keyed(quotas, 0)
}

/// [`loaded_front_with_quotas`] with every tenant's cache engine
/// partitioned into `key_shards` MetaKey shards.
fn loaded_front_keyed(
    quotas: bool,
    key_shards: usize,
) -> (MultiTenantStore, Vec<Vec<RoundRecord>>) {
    let template = FlStoreConfig {
        key_shards,
        platform: PlatformConfig {
            reclaim: ReclaimModel::DISABLED,
            ..PlatformConfig::default()
        },
        ..FlStoreConfig::for_model(&job_config().model)
    };
    let mut front = MultiTenantStore::new(template);
    let mut per_job = Vec::new();
    for job in TENANT_JOBS {
        let cfg = FlJobConfig {
            rounds: 4,
            ..FlJobConfig::quick_test(JobId::new(job))
        };
        if quotas {
            // Roughly one round of metadata: the tailored hot set (~2
            // rounds) overshoots this, so every tenant carries an elastic
            // overage the pressure plan can claim.
            let soft = cfg.round_metadata_bytes();
            front.register_job_with_quota(cfg.job, cfg.model, Some(TenantQuota::elastic(soft)));
        } else {
            front.register_job(cfg.job, cfg.model);
        }
        let records: Vec<RoundRecord> = FlJobSim::new(cfg.clone()).collect();
        let mut now = SimTime::ZERO;
        for r in &records[..records.len() - 1] {
            front
                .tenant_mut(cfg.job)
                .expect("registered")
                .ingest_round(now, r);
            now += SimDuration::from_secs(60);
        }
        per_job.push(records);
    }
    if quotas {
        // Below aggregate residency: any Stats envelope in the mix
        // triggers real cross-tenant reclamation.
        let budget = job_config().round_metadata_bytes() * (TENANT_JOBS.len() as u64 + 1);
        front.set_global_budget(Some(budget));
    }
    (front, per_job)
}

/// Re-targets a single-tenant mix across the registered tenants (plus the
/// foreign job 77 and system-wide Stats the generator already emits), so
/// consecutive envelopes hop between shards.
fn tenant_mix(seed: u64, len: usize, per_job: &[Vec<RoundRecord>]) -> Vec<Request> {
    let mut rng = DetRng::stream(seed, "api-batch-tenant-mix");
    (0..len)
        .map(|i| {
            let t = rng.index(per_job.len());
            let job = JobId::new(TENANT_JOBS[t]);
            let mut request = request_mix(seed.wrapping_add(i as u64), 1, &per_job[t])
                .pop()
                .expect("one envelope");
            match &mut request {
                Request::Ingest { job: j, .. } => *j = job,
                Request::Serve(w) => {
                    if w.job == JobId::new(JOB) {
                        w.job = job;
                    }
                }
                Request::Evict(key) => key.job = job,
                Request::Stats => {}
            }
            request
        })
        .collect()
}

/// Multi-tenant plane: the sharded executor over the front end's tenants
/// must be bit-for-bit identical to sequentially submitting to the front
/// end — per-tenant ledgers and cache state included. With `quotas`, the
/// same line holds under armed budgets: strict enforcement inside each
/// shard and the global pressure pass at every Stats barrier.
fn assert_sharded_multi_tenant_equivalent_with(quotas: bool, seed: u64, len: usize) {
    let (mut sequential, per_job) = loaded_front_with_quotas(quotas);
    let mix = tenant_mix(seed, len, &per_job);
    let now = SimTime::from_secs(7200);
    let sequential_responses: Vec<Response> = mix
        .iter()
        .map(|r| sequential.submit(now, r.clone()))
        .collect();
    let sequential_cost = sequential.total_cost(now);

    for shards in SHARD_COUNTS {
        let (parallel, _) = loaded_front_with_quotas(quotas);
        let mut exec = ShardedExecutor::from_tenants(parallel, shards);
        let responses = exec.submit_batch(now, &mix);
        assert_eq!(
            responses, sequential_responses,
            "responses @{shards} shards"
        );
        assert_eq!(Service::window_cost(&mut exec, now), sequential_cost);
        for store in exec.into_units() {
            let tenant = sequential
                .tenant(store.catalog().job())
                .expect("same tenants");
            assert_eq!(
                store.ledger().outcomes,
                tenant.ledger().outcomes,
                "ledger of {} @{shards} shards",
                store.catalog().job()
            );
            assert_eq!(
                cache_fingerprint(&store),
                cache_fingerprint(tenant),
                "cache state of {} @{shards} shards",
                store.catalog().job()
            );
        }
    }
}

/// Fold-order regression (the PR 3/5 bug shape): Stats barriers and
/// window-cost reductions fold f64 partials — across tenants in sorted
/// job order, and within a tenant over per-key-shard partial counters
/// that the engine sums in fixed shard-index order. A refactor that let
/// hash or shard iteration order reach either fold would drift the f64
/// sums between runs and between key-shard counts. This property pins
/// both: the full Stats/cost surface of a quota-armed multi-tenant front
/// must be *exactly* equal (f64 bitwise, via `PartialEq`) between an
/// unsharded sequential run and a key-sharded executor run — and between
/// two identically-built key-sharded runs.
fn assert_stats_fold_pinned_across_key_shards(quotas: bool, seed: u64, len: usize) {
    let (mut sequential, per_job) = loaded_front_with_quotas(quotas);
    let mut mix = tenant_mix(seed, len, &per_job);
    // End on a Stats barrier so every run closes with the full fold.
    mix.push(Request::Stats);
    let now = SimTime::from_secs(7200);
    let sequential_responses: Vec<Response> = mix
        .iter()
        .map(|r| sequential.submit(now, r.clone()))
        .collect();
    let sequential_cost = sequential.total_cost(now);

    for key_shards in [2usize, 8] {
        let run = |_: usize| {
            let (front, _) = loaded_front_keyed(quotas, key_shards);
            let mut exec = ShardedExecutor::from_tenants(front, 4);
            let responses = exec.submit_batch(now, &mix);
            let cost = Service::window_cost(&mut exec, now);
            (responses, cost)
        };
        let (responses, cost) = run(0);
        assert_eq!(
            responses, sequential_responses,
            "stats fold drifted @{key_shards} key shards"
        );
        assert_eq!(
            cost, sequential_cost,
            "cost fold drifted @{key_shards} key shards"
        );
        // Run-to-run: hash-order leakage is seeded per HashMap instance,
        // so a second identically-built run is an independent draw.
        assert_eq!(
            run(1),
            (responses, cost),
            "stats fold is nondeterministic @{key_shards} key shards"
        );
    }
}

/// Strict quota properties: a front with one strict-budgeted tenant and
/// one unbounded bystander. After *every* envelope of any mix aimed at the
/// strict tenant, (a) the strict tenant's residency never exceeds its
/// budget, and (b) the bystander's cache is untouched — evictions are
/// confined to the offending tenant's own keys.
fn assert_strict_quota_bounded_and_confined(seed: u64, len: usize, budget_rounds: u64) {
    let template = FlStoreConfig {
        platform: PlatformConfig {
            reclaim: ReclaimModel::DISABLED,
            ..PlatformConfig::default()
        },
        ..FlStoreConfig::for_model(&job_config().model)
    };
    let mut front = MultiTenantStore::new(template);
    let strict_job = JobId::new(JOB);
    let bystander = JobId::new(2);
    let cfg = FlJobConfig {
        rounds: 6,
        ..FlJobConfig::quick_test(strict_job)
    };
    let budget = cfg.round_metadata_bytes() * budget_rounds;
    front.register_job_with_quota(strict_job, cfg.model, Some(TenantQuota::strict(budget)));
    let bys_cfg = FlJobConfig {
        rounds: 3,
        ..FlJobConfig::quick_test(bystander)
    };
    front.register_job(bystander, bys_cfg.model);

    let mut now = SimTime::ZERO;
    for r in FlJobSim::new(bys_cfg) {
        front
            .tenant_mut(bystander)
            .expect("registered")
            .ingest_round(now, &r);
        now += SimDuration::from_secs(60);
    }
    let bystander_before = cache_fingerprint(front.tenant(bystander).expect("registered"));

    let records: Vec<RoundRecord> = FlJobSim::new(cfg.clone()).collect();
    for r in &records[..records.len() - 1] {
        front
            .tenant_mut(strict_job)
            .expect("registered")
            .ingest_round(now, r);
        now += SimDuration::from_secs(60);
        let resident = front
            .tenant(strict_job)
            .expect("registered")
            .resident_bytes();
        assert!(
            resident <= budget,
            "ingest overshot the strict budget: {resident} > {budget}"
        );
    }

    // An arbitrary envelope mix aimed at the strict tenant (serves,
    // evictions, a held-back ingest, stats probes).
    let mix = request_mix(seed, len, &records);
    let at = SimTime::from_secs(7200);
    for request in mix {
        front.submit(at, request);
        let resident = front
            .tenant(strict_job)
            .expect("registered")
            .resident_bytes();
        assert!(
            resident <= budget,
            "an envelope overshot the strict budget: {resident} > {budget}"
        );
    }
    assert_eq!(
        cache_fingerprint(front.tenant(bystander).expect("registered")),
        bystander_before,
        "strict-quota evictions leaked into another tenant's cache"
    );
}

/// Recovery equivalence: run an arbitrary envelope mix up to a random
/// cut point on a durable deployment (every record flushed, snapshots
/// sealing mid-run), kill it there, `recover` from the ledger, and serve
/// the remaining envelopes — on the recovered store directly and wrapped
/// in a sharded executor at every shard count. Responses, ledger
/// outcomes, window costs, and the cache fingerprint must all equal an
/// uninterrupted non-durable run of the full mix.
fn assert_recovered_store_equals_uninterrupted(seed: u64, len: usize, cut: usize) {
    let (mut reference, records) = loaded_store(false);
    let mix = request_mix(seed, len, &records);
    let cut = cut % (mix.len() + 1);
    let now = SimTime::from_secs(7200);
    let reference_responses: Vec<Response> = mix
        .iter()
        .map(|r| reference.submit(now, r.clone()))
        .collect();
    let reference_cost = reference.total_cost(now);

    for shards in [1usize, 2, 4] {
        // One durable life per shard count: recovery appends to the same
        // active ledger, so each run needs its own directory.
        let dir = flstore_durability::testkit::DetTempDir::new(
            "api-batch-recovery",
            seed ^ ((len as u64) << 40) ^ ((cut as u64) << 48) ^ ((shards as u64) << 56),
        );
        let mut durable = durable_store(dir.path(), 0, 8, &records);
        for (request, expected) in mix[..cut].iter().zip(&reference_responses) {
            let response = durable.submit(now, request.clone());
            assert_eq!(&response, expected, "pre-kill responses @{shards} shards");
        }
        drop(durable); // the kill: every record is already flushed

        let recovered = flstore_durability::recover::recover(dir.path()).expect("recover");
        let (responses, store) = if shards > 1 {
            let mut exec = ShardedExecutor::new(vec![recovered], shards);
            let responses = exec.submit_batch(now, &mix[cut..]);
            (responses, exec.into_units().pop().expect("unit returned"))
        } else {
            let mut recovered = recovered;
            let responses: Vec<Response> = mix[cut..]
                .iter()
                .map(|r| recovered.submit(now, r.clone()))
                .collect();
            (responses, recovered)
        };
        assert_eq!(
            responses,
            reference_responses[cut..],
            "post-recovery responses @{shards} shards"
        );
        assert_eq!(
            store.ledger().outcomes,
            reference.ledger().outcomes,
            "ledger @{shards} shards"
        );
        assert_eq!(
            store.ledger().background_cost,
            reference.ledger().background_cost,
            "background costs @{shards} shards"
        );
        let mut store = store;
        assert_eq!(
            store.total_cost(now),
            reference_cost,
            "window costs @{shards} shards"
        );
        assert_eq!(
            cache_fingerprint(&store),
            cache_fingerprint(&reference),
            "cache state @{shards} shards"
        );
    }
}

/// The store template the cluster properties share with their bare
/// reference. With `durable`, arms the write-ahead ledger in every
/// tenant (synchronous commit, snapshots sealing mid-run) so a killed
/// node has a ledger to recover from.
fn cluster_template(limited: bool, durable: bool) -> FlStoreConfig {
    let job = job_config();
    FlStoreConfig {
        platform: PlatformConfig {
            reclaim: ReclaimModel::DISABLED,
            ..PlatformConfig::default()
        },
        capacity_per_ring: limited.then(|| job.round_metadata_bytes() + ByteSize::from_mb(50)),
        durability: if durable {
            flstore_core::durable::DurabilityConfig {
                flush_every: 1,
                snapshot_every: 8,
                ..flstore_core::durable::DurabilityConfig::DISABLED
            }
        } else {
            flstore_core::durable::DurabilityConfig::DISABLED
        },
        ..FlStoreConfig::for_model(&job.model)
    }
}

/// Ingests every round but the last through the public [`Service`]
/// front — the same envelopes, the same stamps, on both sides of a
/// cluster-equivalence comparison.
fn load_via_service(service: &mut dyn Service, records: &[RoundRecord]) {
    let mut now = SimTime::ZERO;
    for r in &records[..records.len() - 1] {
        let response = service.submit(
            now,
            Request::Ingest {
                job: JobId::new(JOB),
                record: std::sync::Arc::new(r.clone()),
            },
        );
        assert!(response.is_ok(), "loading ingest rejected");
        now += SimDuration::from_secs(60);
    }
}

/// The bare reference a cluster must match: one tenant registered
/// through the same `MultiTenantStore` template path a cluster node
/// uses (same per-job seed derivation), loaded identically.
fn loaded_tenant_reference(limited: bool) -> (FlStore, Vec<RoundRecord>) {
    let job = job_config();
    let mut front = MultiTenantStore::new(cluster_template(limited, false));
    assert!(front.register_job(job.job, job.model));
    let mut store = front.into_tenants().pop().expect("one tenant").1;
    let records: Vec<RoundRecord> = FlJobSim::new(job).collect();
    load_via_service(&mut store, &records);
    (store, records)
}

/// A cluster of `nodes` at replication factor `rf`, hosting the one
/// test job and loaded exactly like [`loaded_tenant_reference`].
fn loaded_cluster(
    limited: bool,
    nodes: usize,
    rf: usize,
    durable_root: Option<std::path::PathBuf>,
) -> (ClusterStore, Vec<RoundRecord>) {
    let job = job_config();
    let mut cfg =
        ClusterConfig::sim_default(nodes, rf, cluster_template(limited, durable_root.is_some()));
    cfg.durable_root = durable_root;
    let mut cluster = ClusterStore::new(cfg);
    assert!(cluster
        .register_job(job.job, job.model)
        .expect("durable attach"));
    let records: Vec<RoundRecord> = FlJobSim::new(job).collect();
    load_via_service(&mut cluster, &records);
    (cluster, records)
}

/// Cluster transparency (docs/CLUSTER.md constraint 1): a 1-node rf=1
/// `ClusterStore` must be bit-for-bit the bare store it wraps, across
/// the same envelope mixes every other plane sweeps — per-envelope
/// responses, batch decomposition, ledger outcomes, window costs, and
/// the cache fingerprint.
fn assert_one_node_rf1_cluster_equals_bare(limited: bool, seed: u64, len: usize) {
    let (mut bare, records) = loaded_tenant_reference(limited);
    let (mut cluster, _) = loaded_cluster(limited, 1, 1, None);
    let mix = request_mix(seed, len, &records);
    let now = SimTime::from_secs(7200);

    let bare_responses: Vec<Response> = mix.iter().map(|r| bare.submit(now, r.clone())).collect();
    let cluster_responses: Vec<Response> =
        mix.iter().map(|r| cluster.submit(now, r.clone())).collect();
    assert_eq!(cluster_responses, bare_responses, "responses differ");

    let primary = cluster
        .primary_store(JobId::new(JOB))
        .expect("healthy cluster has a primary");
    assert_eq!(
        primary.ledger().outcomes,
        bare.ledger().outcomes,
        "ledger entries differ"
    );
    assert_eq!(
        cache_fingerprint(primary),
        cache_fingerprint(&bare),
        "cache state differs"
    );
    assert_eq!(
        cluster.total_cost(now),
        bare.total_cost(now),
        "window costs differ"
    );

    // Batch decomposition: the cluster groups serve runs exactly like a
    // bare store's submit_batch (fresh twins — state is monotonic).
    let (mut bare_b, _) = loaded_tenant_reference(limited);
    let (mut cluster_b, _) = loaded_cluster(limited, 1, 1, None);
    let bare_batch = bare_b.submit_batch(now, &mix);
    let cluster_batch = cluster_b.submit_batch(now, &mix);
    assert_eq!(cluster_batch, bare_batch, "batch responses differ");
    assert_eq!(bare_batch, bare_responses, "batch vs sequential differ");
}

/// Cluster recovery equivalence: run the mix to an arbitrary cut point
/// on a durable cluster, kill the acting primary there and bring it
/// straight back — the next submit drains both events, so the node's
/// in-memory state is dropped (its ledger flushed on the way down) and
/// rejoin recovers the tenant from the node's own per-node ledger. The
/// remaining envelopes, served by the recovered replica, must equal an
/// uninterrupted bare reference — responses, ledger, costs, cache
/// fingerprint — with zero rejoin digest mismatches.
fn assert_cluster_killed_at_cut_and_recovered_equals_uninterrupted(
    seed: u64,
    len: usize,
    cut: usize,
) {
    let (mut reference, records) = loaded_tenant_reference(false);
    let mix = request_mix(seed, len, &records);
    let cut = cut % (mix.len() + 1);
    let now = SimTime::from_secs(7200);
    let reference_responses: Vec<Response> = mix
        .iter()
        .map(|r| reference.submit(now, r.clone()))
        .collect();

    let dir = flstore_durability::testkit::DetTempDir::new(
        "api-batch-cluster-kill",
        seed ^ ((len as u64) << 40) ^ ((cut as u64) << 48),
    );
    let (mut cluster, _) = loaded_cluster(false, 2, 2, Some(dir.path().to_path_buf()));
    for (request, expected) in mix[..cut].iter().zip(&reference_responses) {
        let response = cluster.submit(now, request.clone());
        assert_eq!(&response, expected, "pre-kill responses");
    }

    let job = JobId::new(JOB);
    let primary = cluster.route(job)[0];
    cluster.inject_plan(
        &FailurePlan::none()
            .with(now, primary, FailureKind::Kill)
            .with(now, primary, FailureKind::Rejoin),
    );
    for (request, expected) in mix[cut..].iter().zip(&reference_responses[cut..]) {
        let response = cluster.submit(now, request.clone());
        assert_eq!(&response, expected, "post-recovery responses");
    }
    // A trailing Stats probe drains the failure events even when the
    // cut lands at the end of the mix (Stats is read-only: it leaves
    // ledger, costs, and cache state untouched on both sides).
    assert_eq!(
        cluster.submit(now, Request::Stats),
        reference.submit(now, Request::Stats),
        "post-recovery stats differ"
    );

    assert_eq!(cluster.stats().kills, 1, "the kill fired");
    assert_eq!(cluster.stats().rejoins, 1, "the rejoin fired");
    assert_eq!(
        cluster.stats().rejoin_digest_mismatches,
        0,
        "ledger recovery missed the kill-time digest"
    );
    let recovered = cluster
        .node_store(primary, job)
        .expect("rejoined node hosts the job");
    assert_eq!(
        recovered.ledger().outcomes,
        reference.ledger().outcomes,
        "ledger entries differ"
    );
    assert_eq!(
        cache_fingerprint(recovered),
        cache_fingerprint(&reference),
        "cache state differs"
    );
}

/// Elastic pressure determinism: two identically-loaded fronts must shed
/// the exact same `(job, key)` victim sequence from their pressure passes
/// interleaved with the same traffic.
fn assert_elastic_pressure_deterministic(seed: u64, len: usize) {
    let (mut a, per_job) = loaded_front_with_quotas(true);
    let (mut b, _) = loaded_front_with_quotas(true);
    let mix = tenant_mix(seed, len, &per_job);
    let now = SimTime::from_secs(7200);
    // Prime with one explicit pass: loading overshoots the global budget
    // by construction, so this first pass always reclaims — an empty
    // overall sequence would mean the property exercised nothing. (Stats
    // envelopes inside the mix run further passes internally; the
    // explicit per-envelope pass below catches overshoot from serves.)
    let mut victims_a = a.pressure_pass();
    let mut victims_b = b.pressure_pass();
    assert!(
        !victims_a.is_empty(),
        "the quota fixture no longer triggers pressure"
    );
    for request in &mix {
        a.submit(now, request.clone());
        b.submit(now, request.clone());
        victims_a.extend(a.pressure_pass());
        victims_b.extend(b.pressure_pass());
    }
    assert_eq!(victims_a, victims_b, "victim sequences diverged");
}

proptest! {
    #[test]
    fn batch_equals_sequential_unconstrained(seed in 0u64..1_000_000, len in 1usize..24) {
        assert_equivalent(false, seed, len);
    }

    #[test]
    fn batch_equals_sequential_under_capacity_pressure(seed in 0u64..1_000_000, len in 1usize..24) {
        assert_equivalent(true, seed, len);
    }

    #[test]
    fn sharded_executor_equals_sequential_single_tenant(seed in 0u64..1_000_000, len in 1usize..16) {
        assert_sharded_single_tenant_equivalent(false, seed, len);
    }

    #[test]
    fn sharded_executor_equals_sequential_under_capacity_pressure(seed in 0u64..1_000_000, len in 1usize..12) {
        assert_sharded_single_tenant_equivalent(true, seed, len);
    }

    #[test]
    fn key_shard_cross_product_equals_sequential(seed in 0u64..1_000_000, len in 1usize..10) {
        assert_key_shard_cross_product_equivalent(false, seed, len);
    }

    #[test]
    fn key_shard_cross_product_equals_sequential_under_capacity_pressure(seed in 0u64..1_000_000, len in 1usize..8) {
        assert_key_shard_cross_product_equivalent(true, seed, len);
    }

    #[test]
    fn executor_equals_batch_under_reclamation(seed in 0u64..1_000_000, len in 1usize..12) {
        assert_executor_equals_batch_under_reclamation(seed, len);
    }

    #[test]
    fn key_sharded_durability_bytes_are_identical(seed in 0u64..1_000_000, len in 1usize..8) {
        assert_key_sharded_durability_bytes_identical(seed, len);
    }

    #[test]
    fn stats_fold_pinned_across_key_shards(seed in 0u64..1_000_000, len in 1usize..10) {
        assert_stats_fold_pinned_across_key_shards(false, seed, len);
    }

    #[test]
    fn stats_fold_pinned_across_key_shards_under_quota_pressure(seed in 0u64..1_000_000, len in 1usize..8) {
        assert_stats_fold_pinned_across_key_shards(true, seed, len);
    }

    #[test]
    fn sharded_executor_equals_sequential_multi_tenant(seed in 0u64..1_000_000, len in 1usize..16) {
        assert_sharded_multi_tenant_equivalent_with(false, seed, len);
    }

    #[test]
    fn sharded_executor_equals_sequential_under_quota_pressure(seed in 0u64..1_000_000, len in 1usize..12) {
        assert_sharded_multi_tenant_equivalent_with(true, seed, len);
    }

    #[test]
    fn strict_quota_never_admits_past_budget_and_confines_evictions(
        seed in 0u64..1_000_000,
        len in 1usize..16,
        budget_rounds in 1u64..3,
    ) {
        assert_strict_quota_bounded_and_confined(seed, len, budget_rounds);
    }

    #[test]
    fn elastic_pressure_is_deterministic(seed in 0u64..1_000_000, len in 1usize..12) {
        assert_elastic_pressure_deterministic(seed, len);
    }

    #[test]
    fn recovered_store_equals_uninterrupted(seed in 0u64..1_000_000, len in 1usize..10, cut in 0usize..16) {
        assert_recovered_store_equals_uninterrupted(seed, len, cut);
    }

    #[test]
    fn one_node_rf1_cluster_equals_bare_store(seed in 0u64..1_000_000, len in 1usize..16) {
        assert_one_node_rf1_cluster_equals_bare(false, seed, len);
    }

    #[test]
    fn one_node_rf1_cluster_equals_bare_store_under_capacity_pressure(seed in 0u64..1_000_000, len in 1usize..12) {
        assert_one_node_rf1_cluster_equals_bare(true, seed, len);
    }

    #[test]
    fn cluster_killed_at_any_cut_and_recovered_equals_uninterrupted(seed in 0u64..1_000_000, len in 1usize..10, cut in 0usize..16) {
        assert_cluster_killed_at_cut_and_recovered_equals_uninterrupted(seed, len, cut);
    }
}
