//! Replication & failover plane experiment (ROADMAP item 5): measured
//! availability under node loss, failover time, and re-replication
//! volume — plus the equivalence and recovery drills the cluster layer
//! holds as hard lines.
//!
//! Everything here runs on the virtual clock: the failure schedule, the
//! detection interval, the redirect hints, and the client's retry
//! stamps are all simulated time, so the whole output is deterministic
//! and sits behind the sequential-vs-`--threads N` byte-diff gate (no
//! `_wall` fields).
//!
//! 1. **Equivalence gate** — a 1-node, replication-factor-1
//!    `ClusterStore` serves the experiment trace next to a bare
//!    `FlStore`; every response and the window cost must be identical,
//!    byte for byte (the property `crates/core/tests/api_batch.rs`
//!    proves exhaustively, re-proven at experiment scale).
//! 2. **Failover drill** — a 3-node rf=2 cluster serves the trace while
//!    its primary for job 1 is killed mid-window. A retrying client
//!    (the `flstore-loadgen --retries` model: a `Relocated` redirect is
//!    re-submitted with its stamp advanced by the hint) must land every
//!    envelope on the same final response a churn-free twin produces;
//!    first-attempt availability may dip only for envelopes stamped
//!    inside the detection window. Failover time and re-replication
//!    bytes are reported as measured facts.
//! 3. **Rejoin drill** — a durable 2-node rf=2 cluster (no spare to
//!    repair onto) loses its primary mid-run, serves through on the
//!    survivor, and the killed node rejoins from its own write-ahead
//!    ledger: the recovered state must land exactly on the kill-time
//!    digest, and after catch-up both replicas must be bit-identical
//!    twins.

use flstore_cluster::cluster::{ClusterConfig, ClusterStore};
use flstore_cluster::failure::{FailureKind, FailurePlan};
use flstore_core::api::{ApiError, Request, Response, Service};
use flstore_core::durable::DurabilityConfig;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_core::tenancy::MultiTenantStore;
use flstore_durability::testkit::DetTempDir;
use flstore_fl::ids::JobId;
use flstore_fl::job::FlJobConfig;
use flstore_net::codec::encode_response;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_trace::driver::{materialize_schedule, TraceConfig};
use serde_json::{json, Value};

use crate::util::{header, save_json, subheader, Scale};

/// The job under churn. Job 1 slots to replica set `[1, 2]` on a 3-node
/// cluster, so node 1 is its home primary and node 0 the repair spare.
const JOB: JobId = JobId::new(1);

/// When node 1 dies, halfway through the trace window.
const KILL_AT: SimTime = SimTime::from_secs(1800);

/// Failure-detection interval (and redirect hint: one hint-advanced
/// retry is guaranteed to land past failover detection).
const DETECT: SimDuration = SimDuration::from_secs(60);

fn experiment_trace(scale: Scale) -> (FlJobConfig, TraceConfig) {
    let job_cfg = FlJobConfig::quick_test(JOB);
    let mut trace = TraceConfig::smoke(7);
    trace.requests = scale.requests();
    (job_cfg, trace)
}

fn cluster_config(nodes: usize, rf: usize, job_cfg: &FlJobConfig) -> ClusterConfig {
    let mut cfg = ClusterConfig::sim_default(nodes, rf, FlStoreConfig::for_model(&job_cfg.model));
    cfg.detection_interval = DETECT;
    cfg.redirect_hint = DETECT;
    cfg
}

/// FNV-1a over each response's canonical wire encoding, in submission
/// order — the same payload-fact checksum the load generator reports.
fn fold(mut hash: u64, response: &Response) -> u64 {
    let (tag, payload) = encode_response(response);
    for byte in std::iter::once(tag).chain(payload) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What the retrying client observed over one drive.
struct ClientReport {
    /// FNV-1a over every envelope's *final* response.
    checksum: u64,
    /// Final responses that were not rejections.
    ok: usize,
    /// Final typed rejections (the trace's own application-level ones).
    rejected: usize,
    /// Envelopes whose first attempt was redirected (`Relocated`).
    redirected: usize,
}

/// Drives the schedule one envelope at a time with the load generator's
/// retry model: a `Relocated` redirect is re-submitted with its virtual
/// stamp advanced by the server's hint, up to `budget` times; only the
/// final response counts.
fn drive_retrying(
    service: &mut dyn Service,
    schedule: &[(SimTime, Request)],
    budget: usize,
) -> ClientReport {
    let mut report = ClientReport {
        checksum: FNV_OFFSET,
        ok: 0,
        rejected: 0,
        redirected: 0,
    };
    for (stamp, request) in schedule {
        let mut now = *stamp;
        let mut attempt = 0usize;
        loop {
            let response = service.submit(now, request.clone());
            if let Response::Rejected(ApiError::Relocated {
                retry_after_hint, ..
            }) = &response
            {
                if attempt < budget {
                    if attempt == 0 {
                        report.redirected += 1;
                    }
                    now += *retry_after_hint;
                    attempt += 1;
                    continue;
                }
            }
            report.checksum = fold(report.checksum, &response);
            match response {
                Response::Rejected(_) => report.rejected += 1,
                _ => report.ok += 1,
            }
            break;
        }
    }
    report
}

fn digest_of(cluster: &ClusterStore, node: usize) -> String {
    let store = cluster.node_store(node, JOB).expect("node hosts the job");
    format!("{:?}", store.durability_digest())
}

/// The `cluster` experiment: equivalence gate, failover drill, rejoin
/// drill.
pub fn cluster(scale: Scale, _threads: usize) -> Value {
    header("Replication & failover plane: availability under node loss");
    let (job_cfg, trace) = experiment_trace(scale);
    let schedule = materialize_schedule(&job_cfg, &trace);

    // --- 1. equivalence: 1-node rf=1 cluster ≡ bare FlStore ----------
    subheader(&format!(
        "equivalence: 1-node rf=1 cluster vs bare store over {} envelopes",
        schedule.len()
    ));
    // The bare reference registers through the same tenancy path so its
    // per-job seed derivation matches the cluster tenant's.
    let mut front = MultiTenantStore::new(FlStoreConfig::for_model(&job_cfg.model));
    assert!(front.register_job(JOB, job_cfg.model));
    let (_, mut bare): (JobId, FlStore) = front.into_tenants().pop().expect("one tenant");
    let mut single = ClusterStore::new(cluster_config(1, 1, &job_cfg));
    single
        .register_job(JOB, job_cfg.model)
        .expect("memory-only registration");
    let mut single_sum = FNV_OFFSET;
    let mut bare_sum = FNV_OFFSET;
    let mut end = SimTime::ZERO;
    for (now, request) in &schedule {
        let ours = single.submit(*now, request.clone());
        let reference = bare.submit(*now, request.clone());
        assert_eq!(ours, reference, "1-node rf=1 must answer like a bare store");
        single_sum = fold(single_sum, &ours);
        bare_sum = fold(bare_sum, &reference);
        end = *now;
    }
    assert_eq!(
        single.total_cost(end),
        bare.total_cost(end),
        "cost accounting must match"
    );
    println!(
        "  {} envelopes, checksum {single_sum:016x} — bit-identical responses and costs",
        schedule.len()
    );

    // --- 2. failover drill: 3-node rf=2, primary killed mid-window ---
    subheader("failover drill: 3-node rf=2, node 1 killed at t=1800s, retrying client");
    let build = |plan: &FailurePlan| {
        let mut c = ClusterStore::new(cluster_config(3, 2, &job_cfg));
        c.register_job(JOB, job_cfg.model).expect("memory-only");
        c.inject_plan(plan);
        c
    };
    let mut churned = build(&FailurePlan::none().with(KILL_AT, 1, FailureKind::Kill));
    let mut twin = build(&FailurePlan::none());
    let churn_report = drive_retrying(&mut churned, &schedule, 2);
    let twin_report = drive_retrying(&mut twin, &schedule, 2);

    // Zero requests failed by the failover: final counts equal the
    // churn-free twin's exactly.
    assert_eq!(churn_report.ok, twin_report.ok, "failover lost requests");
    assert_eq!(churn_report.rejected, twin_report.rejected);
    assert_eq!(twin_report.redirected, 0, "churn-free twin redirected");
    // First-attempt availability may dip only for envelopes stamped
    // inside the detection window — the in-flight window the bound
    // allows.
    let in_window = schedule
        .iter()
        .filter(|(at, _)| *at >= KILL_AT && *at < KILL_AT + DETECT)
        .count();
    assert!(
        churn_report.redirected <= in_window,
        "{} redirects but only {in_window} envelopes stamped in the detection window",
        churn_report.redirected
    );
    let stats = churned.stats().clone();
    assert_eq!(
        stats.failover_delays,
        vec![DETECT],
        "failover missed its detection interval"
    );
    assert_eq!(stats.repaired_jobs, 1, "the spare was not repaired onto");
    // The promoted survivor and the repaired spare are bit-identical.
    assert_eq!(churned.route(JOB), &[2, 0]);
    assert_eq!(digest_of(&churned, 2), digest_of(&churned, 0));
    let total = schedule.len();
    let availability = 100.0 * (total - churn_report.redirected) as f64 / total as f64;
    let twin_availability = 100.0 * (total - twin_report.redirected) as f64 / total as f64;
    println!(
        "  first-attempt availability {availability:.2}% (churn-free {twin_availability:.2}%), \
         {} redirect(s) ridden through",
        churn_report.redirected
    );
    println!(
        "  failover in {}s (detection interval), {} job repaired, {} re-replicated",
        DETECT.as_micros() / 1_000_000,
        stats.repaired_jobs,
        stats.repl_bytes
    );

    // --- 3. rejoin drill: durable 2-node rf=2, no spare --------------
    subheader("rejoin drill: durable 2-node rf=2, killed node recovers from its own ledger");
    let dir = DetTempDir::new("bench-cluster-rejoin", 11);
    let mut cfg = cluster_config(2, 2, &job_cfg);
    cfg.store_template.durability = DurabilityConfig {
        flush_every: 1,
        snapshot_every: 8,
        ..DurabilityConfig::DISABLED
    };
    cfg.durable_root = Some(dir.path().to_path_buf());
    let mut durable = ClusterStore::new(cfg);
    durable
        .register_job(JOB, job_cfg.model)
        .expect("durable registration");
    let back = KILL_AT + SimDuration::from_secs(600);
    durable.inject_plan(&FailurePlan::none().kill_and_rejoin(1, KILL_AT, back));
    let rejoin_report = drive_retrying(&mut durable, &schedule, 2);
    assert_eq!(rejoin_report.ok, twin_report.ok, "rejoin run lost requests");
    let rejoin_stats = durable.stats().clone();
    assert_eq!(rejoin_stats.kills, 1);
    assert_eq!(rejoin_stats.rejoins, 1);
    assert_eq!(
        rejoin_stats.rejoin_digest_mismatches, 0,
        "ledger recovery diverged from the kill-time state"
    );
    assert!(
        rejoin_stats.catchup_entries > 0,
        "the rejoined node replayed no history"
    );
    assert_eq!(
        digest_of(&durable, 0),
        digest_of(&durable, 1),
        "rejoined replica is not a bit-identical twin"
    );
    println!(
        "  node 1 rejoined from its ledger bit-identically ({} history entries caught up, \
         0 digest mismatches)",
        rejoin_stats.catchup_entries
    );

    let payload = json!({
        "trace": {"requests": trace.requests, "envelopes": schedule.len(), "seed": trace.seed},
        "equivalence": {
            "checksum": format!("{single_sum:016x}"),
            "bare_checksum": format!("{bare_sum:016x}"),
        },
        "failover": {
            "nodes": 3,
            "replication": 2,
            "kill_at_s": KILL_AT.as_micros() / 1_000_000,
            "detection_interval_s": DETECT.as_micros() / 1_000_000,
            "availability_pct": availability,
            "churn_free_availability_pct": twin_availability,
            "redirected": churn_report.redirected,
            "ok": churn_report.ok,
            "rejected": churn_report.rejected,
            "checksum": format!("{:016x}", churn_report.checksum),
            "failover_delay_s": stats.failover_delays[0].as_micros() / 1_000_000,
            "repaired_jobs": stats.repaired_jobs,
            "repl_bytes": stats.repl_bytes.as_bytes(),
        },
        "rejoin": {
            "nodes": 2,
            "replication": 2,
            "rejoin_at_s": back.as_micros() / 1_000_000,
            "catchup_entries": rejoin_stats.catchup_entries,
            "digest_mismatches": rejoin_stats.rejoin_digest_mismatches,
            "checksum": format!("{:016x}", rejoin_report.checksum),
        },
    });
    save_json("cluster", &payload);
    payload
}
