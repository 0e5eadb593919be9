//! Failover drills: node kill, redirect window, survivor promotion,
//! re-replication, ledger-based rejoin, partition heal, and slow-node
//! demotion — all on the virtual clock, all bit-deterministic.
//!
//! Node layout used throughout: job 1 hashes to slot 1 (splitmix64), so
//! on a 3-node rf=2 cluster its replica set is `[1, 2]` — node 1 is the
//! home primary, node 2 the standing twin, node 0 the spare.

use flstore_cluster::cluster::{ClusterConfig, ClusterStore, NodeHealth};
use flstore_cluster::failure::{FailureKind, FailurePlan};
use flstore_core::api::{ApiError, Request, Response, Service};
use flstore_core::durable::DurabilityConfig;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_core::tenancy::MultiTenantStore;
use flstore_durability::testkit::DetTempDir;
use flstore_durability::ACTIVE_LEDGER;
use flstore_fl::ids::JobId;
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_fl::metadata::MetaKey;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::run::kernel_runs_on_this_thread;
use flstore_workloads::taxonomy::WorkloadKind;

use std::sync::Arc;

const JOB: JobId = JobId::new(1);
const INGEST_GAP: SimDuration = SimDuration::from_secs(60);

fn job_config() -> FlJobConfig {
    FlJobConfig {
        rounds: 6,
        ..FlJobConfig::quick_test(JOB)
    }
}

fn records() -> Vec<RoundRecord> {
    FlJobSim::new(job_config()).collect()
}

fn cluster(nodes: usize, rf: usize) -> ClusterStore {
    let mut cluster = ClusterStore::new(ClusterConfig::sim_default(
        nodes,
        rf,
        FlStoreConfig::for_model(&job_config().model),
    ));
    cluster
        .register_job(JOB, job_config().model)
        .expect("memory-only");
    cluster
}

fn ingest(record: &RoundRecord) -> Request {
    Request::Ingest {
        job: JOB,
        record: Arc::new(record.clone()),
    }
}

fn serve(id: u64, record: &RoundRecord) -> Request {
    Request::Serve(WorkloadRequest::new(
        RequestId::new(id),
        WorkloadKind::Inference,
        JOB,
        record.round,
        None,
    ))
}

/// Ingests every round at 60 s intervals, returning the clock after the
/// last one.
fn load(cluster: &mut ClusterStore, records: &[RoundRecord]) -> SimTime {
    let mut now = SimTime::ZERO;
    for record in records {
        let response = cluster.submit(now, ingest(record));
        assert!(response.is_ok(), "ingest must land: {response:?}");
        now += INGEST_GAP;
    }
    now
}

fn digest_of(cluster: &ClusterStore, node: usize) -> String {
    let store = cluster.node_store(node, JOB).expect("node hosts the job");
    format!("{:?}", store.durability_digest())
}

#[test]
fn kill_redirects_until_detection_then_promotes_the_twin() {
    let mut cluster = cluster(3, 2);
    let records = records();
    let mut now = load(&mut cluster, &records);

    assert_eq!(cluster.route(JOB), &[1, 2]);
    cluster.inject_plan(&FailurePlan::none().with(now, 1, FailureKind::Kill));

    // Inside the detection window: a typed redirect, not an error and
    // not a hang. Nothing is executed, so the envelope is retry-safe.
    let redirected = cluster.submit(now, serve(100, &records[5]));
    let hint = cluster.config().redirect_hint;
    match redirected {
        Response::Rejected(ApiError::Relocated {
            job,
            retry_after_hint,
        }) => {
            assert_eq!(job, JOB);
            assert_eq!(retry_after_hint, hint);
        }
        other => panic!("expected a Relocated redirect, got {other:?}"),
    }

    // Past the detection interval the twin is promoted; the identical
    // retried envelope is served.
    now += cluster.config().detection_interval;
    let served = cluster.submit(now, serve(100, &records[5]));
    assert!(
        served.served().is_some(),
        "promoted twin serves: {served:?}"
    );

    let stats = cluster.stats();
    assert_eq!(stats.kills, 1);
    assert_eq!(stats.failovers, 1);
    assert_eq!(stats.redirects, 1);
    assert_eq!(
        stats.failover_delays,
        vec![cluster.config().detection_interval]
    );
}

#[test]
fn repair_restores_the_replication_factor_on_the_spare() {
    let mut cluster = cluster(3, 2);
    let records = records();
    let mut now = load(&mut cluster, &records);

    cluster.inject_plan(&FailurePlan::none().with(now, 1, FailureKind::Kill));
    now += cluster.config().detection_interval;
    let _ = cluster.submit(now, serve(100, &records[4]));

    // The lost member is dropped and the spare node 0 takes its place:
    // the survivor is ranked first (it is the acting primary).
    assert_eq!(cluster.route(JOB), &[2, 0]);
    assert_eq!(cluster.stats().repaired_jobs, 1);
    assert!(cluster.stats().repl_bytes.as_bytes() > 0);
    // Full-history replay makes the repaired replica a bit-identical
    // twin, including the serve that landed after the failover.
    assert_eq!(digest_of(&cluster, 0), digest_of(&cluster, 2));
}

#[test]
fn replicas_stay_bit_identical_twins_under_load() {
    let mut cluster = cluster(3, 2);
    let records = records();
    let mut now = load(&mut cluster, &records);
    for (i, record) in records.iter().enumerate() {
        let _ = cluster.submit(now, serve(200 + i as u64, record));
        now += SimDuration::from_secs(1);
    }
    let _ = cluster.submit(
        now,
        Request::Evict(MetaKey::aggregate(JOB, records[0].round)),
    );
    assert_eq!(digest_of(&cluster, 1), digest_of(&cluster, 2));
}

/// Replicas apply effects, not kernels: at rf=2 each serve's kernel runs
/// once, on the primary that answers, and repair's history replay onto
/// the spare runs none — yet every replica stays a bit-identical twin.
/// The serves are inference, a seeded kind, so no two share an output.
#[test]
fn an_rf2_serve_runs_its_kernel_once() {
    let mut cluster = cluster(3, 2);
    let records = records();
    let mut now = load(&mut cluster, &records);
    let before = kernel_runs_on_this_thread();
    let batch: Vec<Request> = (0..4).map(|i| serve(300 + i, &records[5])).collect();
    let responses = cluster.submit_batch(now, &batch);
    assert!(responses.iter().all(Response::is_ok), "{responses:?}");
    assert_eq!(kernel_runs_on_this_thread() - before, 4);
    assert_eq!(digest_of(&cluster, 1), digest_of(&cluster, 2));

    cluster.inject_plan(&FailurePlan::none().with(now, 1, FailureKind::Kill));
    now += cluster.config().detection_interval;
    let before = kernel_runs_on_this_thread();
    let served = cluster.submit(now, serve(400, &records[5]));
    assert!(served.is_ok(), "{served:?}");
    assert_eq!(cluster.route(JOB), &[2, 0], "repaired onto the spare");
    assert_eq!(kernel_runs_on_this_thread() - before, 1);
    assert_eq!(digest_of(&cluster, 0), digest_of(&cluster, 2));
}

#[test]
fn killed_node_rejoins_from_its_own_ledger_bit_identically() {
    // 2 nodes, rf=2: both host the job, so there is no spare to repair
    // onto — the killed node itself must come back from its ledger.
    let dir = DetTempDir::new("cluster-rejoin", 7);
    let mut template = FlStoreConfig::for_model(&job_config().model);
    template.durability = DurabilityConfig {
        flush_every: 1,
        snapshot_every: 8,
        ..DurabilityConfig::DISABLED
    };
    let mut cluster = ClusterStore::new(ClusterConfig {
        durable_root: Some(dir.path().to_path_buf()),
        ..ClusterConfig::sim_default(2, 2, template)
    });
    cluster
        .register_job(JOB, job_config().model)
        .expect("durable attach");
    assert_eq!(cluster.route(JOB), &[1, 0]);

    let records = records();
    let half = records.len() / 2;
    let mut now = load(&mut cluster, &records[..half]);

    // Kill the home primary, serve through the survivor meanwhile.
    let back = now + SimDuration::from_secs(300);
    cluster.inject_plan(&FailurePlan::none().kill_and_rejoin(1, now, back));
    now += cluster.config().detection_interval;
    for record in &records[half..] {
        let response = cluster.submit(now, ingest(record));
        assert!(response.is_ok(), "survivor keeps ingesting: {response:?}");
        now += INGEST_GAP;
    }
    assert_eq!(
        cluster.route(JOB),
        &[0],
        "no spare exists in a 2-node rf=2 cluster"
    );

    // Rejoin: ledger recovery must land exactly on the kill-time
    // digest, then history replay catches up the missed rounds.
    now = back + SimDuration::from_secs(1);
    let served = cluster.submit(now, serve(300, &records[half]));
    assert!(served.served().is_some(), "{served:?}");

    let stats = cluster.stats();
    assert_eq!(stats.rejoins, 1);
    assert_eq!(
        stats.rejoin_digest_mismatches, 0,
        "ledger recovery diverged from the kill-time state"
    );
    assert!(
        stats.catchup_entries > 0,
        "the rejoined node replayed the gap"
    );
    assert_eq!(cluster.route(JOB), &[0, 1], "membership restored");
    assert_eq!(digest_of(&cluster, 0), digest_of(&cluster, 1));
    assert_eq!(cluster.node_health(1), NodeHealth::Live);
}

/// A rejoin whose ledger recovery misses the kill-time digest counts
/// the mismatch and rebuilds the replica from the full history, so it
/// still ends bit-identical to the twin that never left.
#[test]
fn a_rejoin_that_misses_the_kill_digest_rebuilds_from_history() {
    let dir = DetTempDir::new("cluster-rejoin-torn", 11);
    let mut template = FlStoreConfig::for_model(&job_config().model);
    // Sealing off: every record stays in the active ledger.
    template.durability = DurabilityConfig {
        flush_every: 1,
        snapshot_every: 0,
        ..DurabilityConfig::DISABLED
    };
    let mut cluster = ClusterStore::new(ClusterConfig {
        durable_root: Some(dir.path().to_path_buf()),
        ..ClusterConfig::sim_default(2, 2, template)
    });
    cluster
        .register_job(JOB, job_config().model)
        .expect("durable attach");
    let records = records();
    let half = records.len() / 2;
    let mut now = load(&mut cluster, &records[..half]);

    let back = now + SimDuration::from_secs(300);
    cluster.inject_plan(&FailurePlan::none().kill_and_rejoin(1, now, back));
    now += cluster.config().detection_interval;
    for record in &records[half..] {
        let response = cluster.submit(now, ingest(record));
        assert!(response.is_ok(), "survivor keeps ingesting: {response:?}");
        now += INGEST_GAP;
    }

    // Cut node 1's ledger mid-record: recovery tolerates the torn tail
    // and lands one round short of the kill-time state.
    let ledger = dir.path().join("node-1/job-1").join(ACTIVE_LEDGER);
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&ledger)
        .expect("node 1 kept its ledger");
    let len = file.metadata().expect("ledger metadata").len();
    file.set_len(len - 1).expect("cut the ledger");
    drop(file);

    let served = cluster.submit(back, serve(300, &records[half]));
    assert!(served.served().is_some(), "{served:?}");
    assert_eq!(cluster.stats().rejoin_digest_mismatches, 1);
    assert_eq!(cluster.route(JOB), &[0, 1], "membership restored");
    assert_eq!(digest_of(&cluster, 1), digest_of(&cluster, 0));
}

/// A replica whose ledger cannot be attached is not left half
/// registered: `register_job` fails, leaves nothing behind on any
/// member, fails the same way when retried, and succeeds once the
/// cause is gone. Job 1's members are nodes 1 and 2.
#[test]
fn a_failed_attach_leaves_no_half_registered_tenant() {
    let dir = DetTempDir::new("cluster-attach-fails", 13);
    let file = dir.path().join("a-file");
    std::fs::write(&file, b"").expect("write a regular file");
    // Every member fails under the first root; under the second only
    // node 2 does, after node 1 came up.
    let blocked = dir.path().join("partial").join("node-2");
    std::fs::create_dir_all(dir.path().join("partial")).expect("create a root");
    std::fs::write(&blocked, b"").expect("block node 2's directory");
    let clusters = [file.join("root"), dir.path().join("partial")].map(|root| {
        let mut cluster = ClusterStore::new(ClusterConfig {
            durable_root: Some(root),
            ..ClusterConfig::sim_default(3, 2, FlStoreConfig::for_model(&job_config().model))
        });
        for _ in 0..2 {
            assert!(cluster.register_job(JOB, job_config().model).is_err());
            assert!(cluster.jobs().is_empty());
            assert!((0..3).all(|node| cluster.node_store(node, JOB).is_none()));
        }
        cluster
    });
    let [_, mut partial] = clusters;
    std::fs::remove_file(&blocked).expect("unblock node 2");
    assert!(partial
        .register_job(JOB, job_config().model)
        .expect("attach"));
    assert_eq!(partial.route(JOB), &[1, 2]);
}

#[test]
fn partition_heals_with_catch_up_and_no_repair_copies() {
    let mut cluster = cluster(3, 2);
    let records = records();
    let mut now = load(&mut cluster, &records[..4]);

    cluster.inject_plan(&FailurePlan::none().with(
        now,
        1,
        FailureKind::Partition {
            lasting: SimDuration::from_secs(120),
        },
    ));
    // Redirect window, then promotion of the twin — but membership is
    // untouched: partitions never trigger repair copies.
    let redirected = cluster.submit(now, serve(400, &records[3]));
    assert!(
        matches!(redirected, Response::Rejected(ApiError::Relocated { .. })),
        "{redirected:?}"
    );
    now += cluster.config().detection_interval;
    let response = cluster.submit(now, ingest(&records[4]));
    assert!(response.is_ok(), "{response:?}");
    assert_eq!(cluster.route(JOB), &[1, 2], "membership unchanged");
    assert_eq!(cluster.stats().repaired_jobs, 0);

    // After the heal, the partitioned node has caught up bit-identically.
    now += SimDuration::from_secs(120);
    let response = cluster.submit(now, ingest(&records[5]));
    assert!(response.is_ok(), "{response:?}");
    assert_eq!(cluster.node_health(1), NodeHealth::Live);
    assert!(cluster.stats().catchup_entries > 0);
    assert_eq!(digest_of(&cluster, 1), digest_of(&cluster, 2));
}

#[test]
fn slow_node_is_demoted_but_stays_current() {
    let mut cluster = cluster(3, 2);
    let records = records();
    let mut now = load(&mut cluster, &records[..5]);

    cluster.inject_plan(&FailurePlan::none().with(
        now,
        1,
        FailureKind::Slow {
            lasting: SimDuration::from_secs(60),
        },
    ));
    // No redirect for a straggler: the twin answers immediately, and the
    // slow node keeps applying writes so it never falls behind.
    let response = cluster.submit(now, ingest(&records[5]));
    assert!(response.is_ok(), "{response:?}");
    assert_eq!(cluster.stats().redirects, 0);
    assert_eq!(cluster.stats().failovers, 0);
    assert_eq!(digest_of(&cluster, 1), digest_of(&cluster, 2));

    // The degradation ends on the virtual clock; the home primary is
    // back in charge.
    now += SimDuration::from_secs(61);
    let _ = cluster.submit(now, serve(500, &records[5]));
    assert_eq!(cluster.node_health(1), NodeHealth::Live);
}

#[test]
fn one_node_rf1_cluster_answers_like_a_bare_store() {
    // The full cross-product property lives in
    // crates/core/tests/api_batch.rs; this is the smoke-sized version.
    // The bare reference goes through the same tenancy registration so
    // its per-job seed derivation matches the cluster tenant's.
    let mut front = MultiTenantStore::new(FlStoreConfig::for_model(&job_config().model));
    assert!(front.register_job(JOB, job_config().model));
    let (_, mut bare): (JobId, FlStore) = front.into_tenants().pop().expect("one tenant");

    let mut cluster = cluster(1, 1);
    let records = records();
    let mut now = SimTime::ZERO;
    for (i, record) in records.iter().enumerate() {
        let envelopes = [
            ingest(record),
            serve(600 + i as u64, record),
            Request::Stats,
        ];
        for request in envelopes {
            let ours = cluster.submit(now, request.clone());
            let reference = bare.submit(now, request);
            assert_eq!(ours, reference);
        }
        now += INGEST_GAP;
    }
    assert_eq!(
        cluster.total_cost(now),
        bare.total_cost(now),
        "cost accounting must match"
    );
    assert_eq!(
        format!("{:?}", bare.durability_digest()),
        digest_of(&cluster, 0)
    );
}

#[test]
fn unknown_jobs_are_rejected_at_the_front() {
    let mut cluster = cluster(3, 2);
    let records = records();
    load(&mut cluster, &records);
    let foreign = JobId::new(77);
    let response = cluster.submit(
        SimTime::from_secs(7200),
        Request::Serve(WorkloadRequest::new(
            RequestId::new(1),
            WorkloadKind::Inference,
            foreign,
            records[0].round,
            None,
        )),
    );
    assert_eq!(
        response,
        Response::Rejected(ApiError::UnknownJob { job: foreign })
    );
}

#[test]
fn batch_submission_is_equivalent_to_sequential() {
    let records = records();
    let build = || {
        let mut c = cluster(3, 2);
        load(&mut c, &records[..4]);
        c
    };
    let now = SimTime::from_secs(3600);
    let batch: Vec<Request> = vec![
        serve(700, &records[0]),
        serve(701, &records[1]),
        Request::Stats,
        ingest(&records[4]),
        serve(702, &records[2]),
        Request::Evict(MetaKey::metrics(JOB, records[1].round)),
    ];

    let mut batched = build();
    let batch_responses = batched.submit_batch(now, &batch);

    let mut sequential = build();
    let seq_responses: Vec<Response> = batch
        .iter()
        .map(|request| sequential.submit(now, request.clone()))
        .collect();

    assert_eq!(batch_responses, seq_responses);
    assert_eq!(digest_of(&batched, 1), digest_of(&sequential, 1));
}
