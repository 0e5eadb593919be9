//! The durability plane's central property: recovery is deterministic
//! and total. For any envelope mix and any crash point — including a
//! crash at *every* record boundary and mid-record — `recover(dir)`
//! rebuilds a store bit-identical to one that executed exactly the
//! durable prefix: same cache fingerprint, same cost ledger, same quota
//! rows, same responses to subsequent requests.

use proptest::prelude::*;

use flstore_core::policy::TailoredPolicy;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_durability::records::{parse_ledger, LedgerRecord};
use flstore_durability::recover::{attach, recover, DurabilityError};
use flstore_durability::testkit::{attach_kill_point, DetTempDir};
use flstore_durability::ACTIVE_LEDGER;
use flstore_fl::ids::{JobId, Round};
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_fl::metadata::MetaKey;
use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
use flstore_sim::bytes::ByteSize;
use flstore_sim::rng::DetRng;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::{PolicyClass, WorkloadKind};

use flstore_core::durable::DurabilityConfig;

const JOB: u32 = 1;

fn job_config() -> FlJobConfig {
    FlJobConfig {
        rounds: 6,
        ..FlJobConfig::quick_test(JobId::new(JOB))
    }
}

fn store_config(job: &FlJobConfig, limited: bool, durability: DurabilityConfig) -> FlStoreConfig {
    FlStoreConfig {
        platform: PlatformConfig {
            reclaim: ReclaimModel::DISABLED,
            ..PlatformConfig::default()
        },
        capacity_per_ring: limited.then(|| job.round_metadata_bytes() + ByteSize::from_mb(50)),
        durability,
        ..FlStoreConfig::for_model(&job.model)
    }
}

fn fresh_store(cfg: &FlStoreConfig, job: &FlJobConfig) -> FlStore {
    FlStore::new(
        cfg.clone(),
        Box::new(TailoredPolicy::new()),
        job.job,
        job.model,
    )
}

/// One state-mutating envelope, pre-resolved so the same mix can be
/// replayed against any store instance.
#[derive(Debug, Clone)]
enum Op {
    Ingest(usize),
    Serve(WorkloadRequest),
    ServeBatch(Vec<WorkloadRequest>),
    Evict(MetaKey),
    Reclaim(ByteSize),
}

fn serve_request(rng: &mut DetRng, id: u64, records: &[RoundRecord]) -> WorkloadRequest {
    let record = &records[rng.index(records.len())];
    let kind = WorkloadKind::ALL[rng.index(WorkloadKind::ALL.len())];
    let client = match kind.policy_class() {
        PolicyClass::P3AcrossRounds => Some(record.updates[rng.index(record.updates.len())].client),
        _ => None,
    };
    WorkloadRequest::new(
        RequestId::new(id),
        kind,
        JobId::new(JOB),
        record.round,
        client,
    )
}

/// A deterministic envelope mix touching every ledger record kind:
/// serves (single and batched), evictions, reclamations, and the
/// held-back final round's ingest.
fn op_mix(seed: u64, len: usize, records: &[RoundRecord]) -> Vec<Op> {
    let mut rng = DetRng::stream(seed, "durability-mix");
    let observed = &records[..records.len() - 1];
    let mut ops = Vec::with_capacity(len);
    for i in 0..len {
        let id = i as u64 * 100;
        match rng.index(10) {
            0 => ops.push(Op::Ingest(records.len() - 1)),
            1 => {
                let round = observed[rng.index(observed.len())].round;
                let key = match rng.index(3) {
                    0 => MetaKey::aggregate(JobId::new(JOB), round),
                    1 => MetaKey::metrics(JobId::new(JOB), round),
                    _ => MetaKey::hyperparams(JobId::new(JOB), round),
                };
                ops.push(Op::Evict(key));
            }
            2 => ops.push(Op::Reclaim(ByteSize::from_mb(1 + rng.index(40) as u64))),
            3 => {
                let batch: Vec<WorkloadRequest> = (0..1 + rng.index(4))
                    .map(|j| serve_request(&mut rng, id + j as u64, observed))
                    .collect();
                ops.push(Op::ServeBatch(batch));
            }
            4 => {
                // Unservable round: still a logged serve envelope.
                ops.push(Op::Serve(WorkloadRequest::new(
                    RequestId::new(id),
                    WorkloadKind::Clustering,
                    JobId::new(JOB),
                    Round::new(99),
                    None,
                )));
            }
            _ => ops.push(Op::Serve(serve_request(&mut rng, id, observed))),
        }
    }
    ops
}

/// Ingests the observed rounds, then applies `ops`, returning a debug
/// transcript of every response (receipts, served results, errors).
fn drive(store: &mut FlStore, records: &[RoundRecord], ops: &[Op]) -> Vec<String> {
    let mut now = SimTime::ZERO;
    for r in &records[..records.len() - 1] {
        store.ingest_round(now, r);
        now += SimDuration::from_secs(60);
    }
    let mut log = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            Op::Ingest(i) => log.push(format!("{:?}", store.ingest_round(now, &records[*i]))),
            Op::Serve(req) => log.push(format!("{:?}", store.serve(now, req))),
            Op::ServeBatch(reqs) => log.push(format!("{:?}", store.serve_batch(now, reqs))),
            Op::Evict(key) => log.push(format!("{}", store.evict(key))),
            Op::Reclaim(need) => log.push(format!("{:?}", store.reclaim(*need))),
        }
        now += SimDuration::from_secs(10);
    }
    log
}

/// Executes a parsed ledger prefix against a fresh store — the test's
/// own replay loop, independent of `recover()`'s, so the two
/// implementations cross-check each other.
fn replay_reference(cfg: &FlStoreConfig, job: &FlJobConfig, records: &[LedgerRecord]) -> FlStore {
    let mut store = fresh_store(cfg, job);
    for record in records {
        match record {
            LedgerRecord::Ingest { now, record } => {
                store.ingest_round(*now, record);
            }
            LedgerRecord::Serve { now, request } => {
                let _ = store.serve(*now, request);
            }
            LedgerRecord::ServeBatch { now, requests } => {
                let _ = store.serve_batch(*now, requests);
            }
            LedgerRecord::Evict { key } => {
                store.evict(key);
            }
            LedgerRecord::Reclaim { need } => {
                store.reclaim(*need);
            }
            LedgerRecord::Digest(_) => {}
        }
    }
    store
}

/// Bit-identical equivalence: state fingerprint, full cost ledger, quota
/// row, and — the part users observe — identical responses to a fresh
/// probe workload served after recovery.
fn assert_equivalent(a: &mut FlStore, b: &mut FlStore, records: &[RoundRecord], ctx: &str) {
    assert_eq!(
        a.durability_digest(),
        b.durability_digest(),
        "digest: {ctx}"
    );
    assert_eq!(
        serde_json::to_string(a.ledger()).unwrap(),
        serde_json::to_string(b.ledger()).unwrap(),
        "cost ledger: {ctx}"
    );
    assert_eq!(a.quota_usage(), b.quota_usage(), "quota row: {ctx}");
    let mut rng = DetRng::stream(0xBEEF, "durability-probe");
    let probe: Vec<WorkloadRequest> = (0..6)
        .map(|i| serve_request(&mut rng, 9_000 + i, &records[..records.len() - 1]))
        .collect();
    let now = SimTime::from_micros(10_000_000_000);
    for req in &probe {
        assert_eq!(
            format!("{:?}", a.serve(now, req)),
            format!("{:?}", b.serve(now, req)),
            "probe serve: {ctx}"
        );
    }
}

#[test]
fn recover_equals_uninterrupted() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let cfg = store_config(&job, true, DurabilityConfig::DISABLED);
    let ops = op_mix(11, 16, &records);

    let dir = DetTempDir::new("recover-basic", 11);
    let mut attached = fresh_store(&cfg, &job);
    attach(&mut attached, dir.path()).unwrap();
    let attached_log = drive(&mut attached, &records, &ops);
    drop(attached); // crash after a clean flush

    let mut plain = fresh_store(&cfg, &job);
    let plain_log = drive(&mut plain, &records, &ops);
    // The ledger sink itself must not perturb behavior.
    assert_eq!(attached_log, plain_log);

    let mut recovered = recover(dir.path()).unwrap();
    assert_equivalent(&mut recovered, &mut plain, &records, "clean shutdown");
}

#[test]
fn recovered_store_keeps_logging() {
    // Recovery hands back a store with a live sink: more envelopes must
    // land durably after a torn-tail truncation, and a second recovery
    // must see them.
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let cfg = store_config(&job, false, DurabilityConfig::DISABLED);
    let ops = op_mix(23, 10, &records);

    let dir = DetTempDir::new("recover-continue", 23);
    let mut attached = fresh_store(&cfg, &job);
    attach(&mut attached, dir.path()).unwrap();
    drive(&mut attached, &records, &ops);
    drop(attached);

    // Tear the tail mid-record to force the truncation path.
    let ledger_path = dir.path().join(ACTIVE_LEDGER);
    let bytes = std::fs::read(&ledger_path).unwrap();
    let parsed = parse_ledger(&bytes).unwrap();
    assert!(parsed.torn.is_none());
    let cut = parsed.boundaries[parsed.boundaries.len() - 2] + 1;
    std::fs::write(&ledger_path, &bytes[..cut]).unwrap();

    let mut recovered = recover(dir.path()).unwrap();
    let more = op_mix(24, 6, &records);
    let mut now = SimTime::from_micros(20_000_000_000);
    for op in &more {
        match op {
            Op::Ingest(i) => {
                recovered.ingest_round(now, &records[*i]);
            }
            Op::Serve(req) => {
                let _ = recovered.serve(now, req);
            }
            Op::ServeBatch(reqs) => {
                let _ = recovered.serve_batch(now, reqs);
            }
            Op::Evict(key) => {
                recovered.evict(key);
            }
            Op::Reclaim(need) => {
                recovered.reclaim(*need);
            }
        }
        now += SimDuration::from_secs(10);
    }
    let digest = recovered.durability_digest();
    drop(recovered);

    let mut second = recover(dir.path()).unwrap();
    assert_eq!(second.durability_digest(), digest);
    // The rewritten tail parses clean end to end.
    let bytes = std::fs::read(&ledger_path).unwrap();
    assert!(parse_ledger(&bytes).unwrap().torn.is_none());
    drop(second.take_record_sink());
}

#[test]
fn segments_seal_and_recover() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let durability = DurabilityConfig {
        flush_every: 1,
        snapshot_every: 4,
        ..DurabilityConfig::DISABLED
    };
    let cfg = store_config(&job, true, durability);
    let ops = op_mix(31, 20, &records);

    let dir = DetTempDir::new("recover-segments", 31);
    let mut attached = fresh_store(&cfg, &job);
    attach(&mut attached, dir.path()).unwrap();
    drive(&mut attached, &records, &ops);
    drop(attached);

    let segments = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("segment-") && name.ends_with(".log")
        })
        .count();
    assert!(segments >= 2, "expected sealed segments, found {segments}");

    let mut plain = fresh_store(&cfg, &job);
    drive(&mut plain, &records, &ops);
    let mut recovered = recover(dir.path()).unwrap();
    assert_equivalent(&mut recovered, &mut plain, &records, "sealed segments");
}

#[test]
fn kill_point_at_every_record_boundary() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let cfg = store_config(&job, true, DurabilityConfig::DISABLED);
    let ops = op_mix(47, 12, &records);

    // One intact run yields the reference ledger and its boundaries.
    let intact_dir = DetTempDir::new("kill-intact", 47);
    let mut intact = fresh_store(&cfg, &job);
    attach(&mut intact, intact_dir.path()).unwrap();
    drive(&mut intact, &records, &ops);
    drop(intact);
    let intact_bytes = std::fs::read(intact_dir.path().join(ACTIVE_LEDGER)).unwrap();
    let parsed = parse_ledger(&intact_bytes).unwrap();
    assert!(parsed.torn.is_none());
    assert!(
        parsed.records.len() > ops.len(),
        "prefix ingests also logged"
    );

    // Crash at every record boundary, and mid-record one byte past it.
    let mut crash_points: Vec<u64> = Vec::new();
    for &b in &parsed.boundaries {
        crash_points.push(b as u64);
        if (b as u64) < intact_bytes.len() as u64 {
            crash_points.push(b as u64 + 1);
        }
    }
    for budget in crash_points {
        let dir = DetTempDir::new("kill-point", budget);
        let mut doomed = fresh_store(&cfg, &job);
        attach_kill_point(&mut doomed, dir.path(), budget).unwrap();
        drive(&mut doomed, &records, &ops);
        drop(doomed);

        let mut recovered =
            recover(dir.path()).unwrap_or_else(|e| panic!("recover at budget {budget}: {e}"));
        let durable = parse_ledger(&intact_bytes[..budget as usize]).unwrap();
        let mut reference = replay_reference(&cfg, &job, &durable.records);
        assert_equivalent(
            &mut recovered,
            &mut reference,
            &records,
            &format!(
                "crash at byte {budget} ({} durable records)",
                durable.records.len()
            ),
        );
        drop(recovered.take_record_sink());
    }
}

/// A logged serve whose kernel panics does not make the ledger
/// unrecoverable: replay commits the serve's effects and never runs its
/// kernel. The newest round carries one update three weights too long,
/// so the clustering kernel over it panics.
#[test]
fn a_poisoned_serve_in_the_ledger_recovers() {
    use std::panic::{self, AssertUnwindSafe};

    use flstore_fl::weights::WeightVector;

    let job = job_config();
    let mut records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let newest = records.last_mut().expect("rounds");
    let dim = newest.updates[1].weights.dim();
    newest.updates[1].weights = WeightVector::from_vec(vec![0.5; dim + 3]);
    let round = newest.round;
    let cfg = store_config(
        &job,
        false,
        DurabilityConfig {
            flush_every: 1,
            ..DurabilityConfig::DISABLED
        },
    );
    let dir = DetTempDir::new("poisoned-serve", 1);
    let mut store = fresh_store(&cfg, &job);
    attach(&mut store, dir.path()).unwrap();
    let mut now = SimTime::ZERO;
    for record in &records {
        store.ingest_round(now, record);
        now += SimDuration::from_secs(60);
    }
    let poisoned = WorkloadRequest::new(
        RequestId::new(1),
        WorkloadKind::Clustering,
        JobId::new(JOB),
        round,
        None,
    );
    let served = panic::catch_unwind(AssertUnwindSafe(|| store.serve(now, &poisoned)));
    assert!(
        served.is_err(),
        "the clustering kernel panics on the bad update"
    );
    let digest = store.durability_digest();
    drop(store);

    let recovered = recover(dir.path()).expect("recovery replays effects, not kernels");
    assert_eq!(recovered.durability_digest(), digest);
    assert_eq!(recovered.ledger().len(), 1);
}

#[test]
fn attach_refuses_unreconstructible_policies() {
    use flstore_core::policy::{EvictionDiscipline, ReactivePolicy};
    let job = job_config();
    let cfg = store_config(&job, false, DurabilityConfig::DISABLED);
    let mut store = FlStore::new(
        cfg,
        Box::new(ReactivePolicy::new(EvictionDiscipline::Random, 7)),
        job.job,
        job.model,
    );
    let dir = DetTempDir::new("refuse-random", 7);
    match attach(&mut store, dir.path()) {
        Err(DurabilityError::UnreconstructiblePolicy(name)) => {
            assert_eq!(name, "FLStore-Random");
        }
        other => panic!("expected UnreconstructiblePolicy, got {other:?}"),
    }
}

proptest! {
    /// Randomized variant of the boundary sweep: arbitrary mix seed and
    /// length, crash at an arbitrary byte offset (not just boundaries).
    #[test]
    fn prop_recovery_from_arbitrary_crash_offset(seed in 0u64..1000, len in 4usize..14, cut in 0u64..10_000) {
        let job = job_config();
        let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
        let cfg = store_config(&job, true, DurabilityConfig::DISABLED);
        let ops = op_mix(seed, len, &records);

        let intact_dir = DetTempDir::new("prop-intact", seed ^ (len as u64) << 32);
        let mut intact = fresh_store(&cfg, &job);
        attach(&mut intact, intact_dir.path()).unwrap();
        drive(&mut intact, &records, &ops);
        drop(intact);
        let intact_bytes = std::fs::read(intact_dir.path().join(ACTIVE_LEDGER)).unwrap();

        // Header must survive for the file to identify itself; crashes
        // inside it are a separate (hard-error) regime.
        let budget = 5 + cut % (intact_bytes.len() as u64 - 4);
        let dir = DetTempDir::new("prop-kill", seed ^ budget.rotate_left(17));
        let mut doomed = fresh_store(&cfg, &job);
        attach_kill_point(&mut doomed, dir.path(), budget).unwrap();
        drive(&mut doomed, &records, &ops);
        drop(doomed);

        let mut recovered = recover(dir.path()).unwrap();
        let durable = parse_ledger(&intact_bytes[..budget as usize]).unwrap();
        let mut reference = replay_reference(&cfg, &job, &durable.records);
        assert_equivalent(&mut recovered, &mut reference, &records, &format!("seed {seed} budget {budget}"));
        drop(recovered.take_record_sink());
    }
}
