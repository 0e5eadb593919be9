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
//! The executor's kernel threads steal a hot tenant's serve kernels; the
//! same line holds for the f64 fold order of Stats barriers and for the
//! bytes a durable deployment persists.
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
    loaded_store_reclaiming(limited, ReclaimModel::DISABLED)
}

/// [`loaded_store`] under the given replica reclamation model.
fn loaded_store_reclaiming(limited: bool, reclaim: ReclaimModel) -> (FlStore, Vec<RoundRecord>) {
    let job = job_config();
    let cfg = FlStoreConfig {
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
    assert_eq!(batched.ledger(), sequential.ledger(), "ledgers differ");
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
            store.ledger(),
            sequential.ledger(),
            "ledger @{shards} shards"
        );
        assert_eq!(
            cache_fingerprint(&store),
            cache_fingerprint(&sequential),
            "cache state @{shards} shards"
        );
    }
}

/// Reclamation on: replicas die while the deployment idles, so serves in
/// the mix meet faults and the liveness pass recovers them. That pass is
/// batch-scoped (one fault may mark several batchmates
/// `recovered_from_fault`), so the reference is a bare store's own
/// `submit_batch`, not per-envelope submits. An executor over one store,
/// at every thread count, must group the batch exactly as the bare store
/// does: responses, ledger outcomes, window cost and cache state all
/// match. Returns the faults the reference observed.
fn assert_executor_equals_batch_under_reclamation(seed: u64, len: usize) -> u64 {
    let (mut reference, records) = loaded_store_reclaiming(false, ReclaimModel::FAULT_INJECTION);
    let mix = request_mix(seed, len, &records);
    let now = SimTime::from_secs(7200);
    let reference_responses = reference.submit_batch(now, &mix);
    let reference_cost = reference.total_cost(now);

    for threads in [1usize, 2, 4] {
        let (parallel, _) = loaded_store_reclaiming(false, ReclaimModel::FAULT_INJECTION);
        let mut exec = ShardedExecutor::new(vec![parallel], threads);
        let responses = exec.submit_batch(now, &mix);
        assert_eq!(
            responses, reference_responses,
            "responses @{threads} threads, reclaiming"
        );
        assert_eq!(
            Service::window_cost(&mut exec, now),
            reference_cost,
            "window costs @{threads} threads, reclaiming"
        );
        let store = exec.into_units().pop().expect("unit returned");
        assert_eq!(
            store.ledger(),
            reference.ledger(),
            "ledger @{threads} threads, reclaiming"
        );
        assert_eq!(
            cache_fingerprint(&store),
            cache_fingerprint(&reference),
            "cache state @{threads} threads, reclaiming"
        );
        assert_eq!(store.faults_observed(), reference.faults_observed());
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

/// Durability through the executor: a durable deployment behind the
/// executor persists exactly the bytes — write-ahead ledger segments,
/// snapshots and MANIFEST — that the same deployment persists from its
/// own `submit_batch`, at every thread count. The kernel threads only run
/// pure kernels; if their scheduling leaked into the persisted records,
/// recovery would depend on how the ledger was written.
fn assert_executor_persists_the_bare_batch_bytes(seed: u64, len: usize) {
    let records: Vec<RoundRecord> = FlJobSim::new(job_config()).collect();
    let mix = request_mix(seed, len, &records);
    let tag = seed ^ ((len as u64) << 40);
    assert_durable_executor_matches_bare("api-batch-exec-wal", tag, 8, &records, &mix, &[1, 4]);
}

/// A durable deployment in `dir` (every record flushed, a snapshot every
/// `snapshot_every` records) with all but the last of `records` ingested.
fn durable_store(dir: &std::path::Path, snapshot_every: u32, records: &[RoundRecord]) -> FlStore {
    let job = job_config();
    let cfg = FlStoreConfig {
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

/// Every file a durable deployment persisted in `dir`, by name.
fn persisted_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("durable dir")
        .map(|e| e.expect("dir entry"))
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

/// Serves `mix` on fresh durable deployments (see [`durable_store`]):
/// once through the store's own `submit_batch`, then behind an executor
/// at each of `thread_counts`. Every executor run must return the bare
/// store's responses and persist its exact files, MANIFEST included.
/// `name` and `seed` pick the runs' temporary directories.
fn assert_durable_executor_matches_bare(
    name: &str,
    seed: u64,
    snapshot_every: u32,
    records: &[RoundRecord],
    mix: &[Request],
    thread_counts: &[usize],
) {
    let now = SimTime::from_secs(7200);
    // Thread count 0 is the bare store itself.
    let run = |threads: usize| {
        let dir =
            flstore_durability::testkit::DetTempDir::new(name, seed ^ ((threads as u64) << 56));
        let mut durable = durable_store(dir.path(), snapshot_every, records);
        let responses = if threads == 0 {
            let responses = durable.submit_batch(now, mix);
            drop(durable); // close the ledger writer before reading its files
            responses
        } else {
            let mut exec = ShardedExecutor::new(vec![durable], threads);
            let responses = exec.submit_batch(now, mix);
            drop(exec);
            responses
        };
        (responses, persisted_files(dir.path()))
    };
    let (reference_responses, reference_files) = run(0);
    for &threads in thread_counts {
        let (responses, files) = run(threads);
        assert_eq!(
            responses, reference_responses,
            "responses @{threads} threads vs the bare store"
        );
        assert_eq!(
            files, reference_files,
            "persisted bytes @{threads} threads vs the bare store"
        );
    }
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
        let mut durable = durable_store(dir.path(), 4, &records);
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

/// A lone deployment behind the executor groups a batch exactly as the
/// bare store does, foreign-job envelopes included: a foreign serve
/// between two own serves leaves them one run (one ledger record, one
/// liveness pass), while a foreign non-serve envelope splits it. The
/// responses and persisted bytes match the bare store at every thread
/// count.
#[test]
fn executor_groups_foreign_envelopes_as_the_bare_store() {
    let records: Vec<RoundRecord> = FlJobSim::new(job_config()).collect();
    let round = records[records.len() - 2].round;
    let serve = |id: u64, job: u32, kind: WorkloadKind| {
        Request::Serve(WorkloadRequest::new(
            RequestId::new(id),
            kind,
            JobId::new(job),
            round,
            None,
        ))
    };
    let mix = vec![
        serve(1, JOB, WorkloadKind::Inference),
        serve(2, 77, WorkloadKind::Inference),
        serve(3, JOB, WorkloadKind::MaliciousFiltering),
        Request::Evict(MetaKey::aggregate(JobId::new(77), round)),
        serve(4, JOB, WorkloadKind::Clustering),
        serve(5, JOB, WorkloadKind::SchedulingPerf),
    ];
    assert_durable_executor_matches_bare("api-batch-foreign-wal", 0, 4, &records, &mix, &[1, 2, 4]);
}

const TENANT_JOBS: [u32; 3] = [1, 2, 5];

/// A multi-tenant front end with every tenant trained up to (but not
/// including) its last round, plus the per-tenant record sets. With
/// `quotas`, arms elastic per-tenant budgets sized to be overshot and a
/// global budget sized to force the pressure pass at every Stats barrier —
/// the cross-tenant quota-pressure shape.
fn loaded_front_with_quotas(quotas: bool) -> (MultiTenantStore, Vec<Vec<RoundRecord>>) {
    let template = FlStoreConfig {
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
///
/// Every mix ends on a Stats barrier, so every case closes with the full
/// f64 fold — across tenants in sorted job order — compared bitwise (via
/// `PartialEq`), as is the window-cost fold.
fn assert_sharded_multi_tenant_equivalent_with(quotas: bool, seed: u64, len: usize) {
    let (mut sequential, per_job) = loaded_front_with_quotas(quotas);
    let mut mix = tenant_mix(seed, len, &per_job);
    mix.push(Request::Stats);
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
        let front = exec.into_units().pop().expect("the front");
        for store in front.tenants() {
            let tenant = sequential
                .tenant(store.catalog().job())
                .expect("same tenants");
            assert_eq!(
                store.ledger(),
                tenant.ledger(),
                "ledger of {} @{shards} shards",
                store.catalog().job()
            );
            assert_eq!(
                cache_fingerprint(store),
                cache_fingerprint(tenant),
                "cache state of {} @{shards} shards",
                store.catalog().job()
            );
        }
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
        let mut durable = durable_store(dir.path(), 8, &records);
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
            store.ledger(),
            reference.ledger(),
            "ledger @{shards} shards"
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
    assert_eq!(primary.ledger(), bare.ledger(), "ledgers differ");
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
    assert_eq!(recovered.ledger(), reference.ledger(), "ledgers differ");
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
    fn executor_equals_batch_under_reclamation(seed in 0u64..1_000_000, len in 1usize..12) {
        assert_executor_equals_batch_under_reclamation(seed, len);
    }

    #[test]
    fn executor_persists_the_bytes_of_the_bare_batch(seed in 0u64..1_000_000, len in 1usize..8) {
        assert_executor_persists_the_bare_batch_bytes(seed, len);
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
