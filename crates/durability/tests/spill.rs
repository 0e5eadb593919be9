//! The cold tier end to end: under quota pressure victims spill to disk
//! instead of being dropped, later serves fault them back transparently
//! (counted in stats), and recovery reproduces the exact same spill
//! behaviour by replay.

use flstore_core::api::{Request, Response, Service};
use flstore_core::durable::DurabilityConfig;
use flstore_core::policy::TailoredPolicy;
use flstore_core::quota::TenantQuota;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_durability::recover::{attach, recover};
use flstore_durability::spill::DiskSpill;
use flstore_durability::testkit::DetTempDir;
use flstore_fl::ids::JobId;
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
use flstore_sim::bytes::ByteSize;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::WorkloadKind;

const JOB: u32 = 1;

fn job_config() -> FlJobConfig {
    FlJobConfig {
        rounds: 6,
        ..FlJobConfig::quick_test(JobId::new(JOB))
    }
}

/// A strict quota tight enough (half a round) that every ingest sheds
/// earlier keys as pressure victims.
fn spill_config(job: &FlJobConfig, spill: bool) -> FlStoreConfig {
    FlStoreConfig {
        platform: PlatformConfig {
            reclaim: ReclaimModel::DISABLED,
            ..PlatformConfig::default()
        },
        quota: Some(TenantQuota::strict(ByteSize::from_bytes(
            job.round_metadata_bytes().as_bytes() / 2,
        ))),
        durability: DurabilityConfig {
            flush_every: 1,
            spill,
            ..DurabilityConfig::DISABLED
        },
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

fn ingest_all(store: &mut FlStore, records: &[RoundRecord]) -> SimTime {
    let mut now = SimTime::ZERO;
    for r in records {
        store.ingest_round(now, r);
        now += SimDuration::from_secs(60);
    }
    now
}

fn early_round_request(id: u64, records: &[RoundRecord]) -> WorkloadRequest {
    WorkloadRequest::new(
        RequestId::new(id),
        WorkloadKind::Inference,
        JobId::new(JOB),
        records[0].round,
        None,
    )
}

#[test]
fn pressure_victims_spill_and_fault_back() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let cfg = spill_config(&job, true);

    let dir = DetTempDir::new("spill-e2e", 1);
    let mut store = fresh_store(&cfg, &job);
    attach(&mut store, dir.path()).unwrap();
    let now = ingest_all(&mut store, &records);

    let (spilled, spilled_bytes) = store.spill_stats();
    assert!(spilled > 0, "tight quota must shed spill victims");
    assert!(spilled_bytes.as_bytes() > 0);
    assert_eq!(store.spill_faults(), 0);

    // The first round was shed long ago; serving it faults from disk,
    // not from the persistent store.
    let served = store.serve(now, &early_round_request(1, &records)).unwrap();
    assert!(
        store.spill_faults() > 0,
        "serve must fault from the cold tier"
    );
    assert!(served.outcome.result_bytes.as_bytes() > 0);

    // The cold tier is visible in the stats envelope.
    match store.submit(now, Request::Stats) {
        Response::Stats(report) => {
            assert_eq!(report.spill_faults, store.spill_faults());
            assert_eq!(
                (report.spilled_objects, report.spilled_bytes),
                store.spill_stats()
            );
        }
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn spill_disabled_is_behavior_identical_to_no_backend() {
    // `spill: false` with no backend — the pre-durability store — and
    // `spill: false` with a backend installed must behave identically:
    // the flag gates the tier, not the backend's presence.
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let cfg = spill_config(&job, false);

    let mut plain = fresh_store(&cfg, &job);
    let now = ingest_all(&mut plain, &records);

    let dir = DetTempDir::new("spill-disabled", 2);
    let mut backed = fresh_store(&cfg, &job);
    backed.set_spill_backend(Box::new(DiskSpill::create(dir.path()).unwrap()));
    ingest_all(&mut backed, &records);

    assert_eq!(backed.spill_stats(), (0, Default::default()));
    assert_eq!(plain.durability_digest(), backed.durability_digest());
    let req = early_round_request(1, &records);
    assert_eq!(
        format!("{:?}", plain.serve(now, &req)),
        format!("{:?}", backed.serve(now, &req)),
    );
}

#[test]
fn recovery_reproduces_spill_state() {
    // Replay regenerates the cold tier deterministically: the recovered
    // store's spill counters and serve behaviour match an uninterrupted
    // spill-enabled run (the spill dir is wiped and rebuilt, not trusted).
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let cfg = spill_config(&job, true);

    let dir = DetTempDir::new("spill-recover", 3);
    let mut attached = fresh_store(&cfg, &job);
    attach(&mut attached, dir.path()).unwrap();
    let now = ingest_all(&mut attached, &records);
    let _ = attached.serve(now, &early_round_request(1, &records));
    drop(attached); // crash

    let ref_dir = DetTempDir::new("spill-recover-ref", 4);
    let mut reference = fresh_store(&cfg, &job);
    reference.set_spill_backend(Box::new(DiskSpill::create(ref_dir.path()).unwrap()));
    let ref_now = ingest_all(&mut reference, &records);
    let _ = reference.serve(ref_now, &early_round_request(1, &records));

    let mut recovered = recover(dir.path()).unwrap();
    assert_eq!(recovered.durability_digest(), reference.durability_digest());
    assert_eq!(recovered.spill_stats(), reference.spill_stats());
    assert_eq!(recovered.spill_faults(), reference.spill_faults());

    // And the cold tier still works going forward.
    let probe = early_round_request(2, &records);
    assert_eq!(
        format!("{:?}", recovered.serve(now, &probe)),
        format!("{:?}", reference.serve(ref_now, &probe)),
    );
    drop(recovered.take_record_sink());
}

#[test]
fn lost_or_truncated_spill_files_fall_through_to_the_miss_path() {
    use flstore_core::durable::SpillBackend;
    use flstore_fl::metadata::MetaKey;

    // Tier level: a file deleted or cut short between `spill` and `fetch`
    // is a dropped cache entry — `None`, index cleared, never a panic.
    let dir = DetTempDir::new("spill-lost", 5);
    let mut tier = DiskSpill::create(dir.path()).unwrap();
    let logical = ByteSize::from_kb(4);
    let keys: Vec<MetaKey> = (0..3)
        .map(|r| MetaKey::aggregate(JobId::new(JOB), flstore_fl::ids::Round::new(r)))
        .collect();
    for key in &keys {
        tier.spill(key, &[7u8; 64], logical);
    }
    let mut files: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 3);
    std::fs::remove_file(&files[0]).unwrap();
    std::fs::write(&files[1], [1u8, 2, 3]).unwrap(); // shorter than the size prefix
    assert_eq!(tier.fetch(&keys[0]), None);
    assert_eq!(tier.fetch(&keys[1]), None);
    assert_eq!(tier.fetch(&keys[2]), Some((vec![7u8; 64], logical)));
    assert_eq!(tier.stats(), (0, ByteSize::ZERO));

    // Store level: with every spilled file gone, the serve that would
    // have faulted from disk is answered from the persistent store.
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let store_dir = DetTempDir::new("spill-lost-store", 6);
    let mut store = fresh_store(&spill_config(&job, true), &job);
    attach(&mut store, store_dir.path()).unwrap();
    let now = ingest_all(&mut store, &records);
    assert!(store.spill_stats().0 > 0);
    for entry in std::fs::read_dir(store_dir.path().join("spill")).unwrap() {
        std::fs::remove_file(entry.unwrap().path()).unwrap();
    }
    let served = store.serve(now, &early_round_request(1, &records)).unwrap();
    assert_eq!(store.spill_faults(), 0);
    assert!(served.measured.cache_misses > 0);
    drop(store.take_record_sink());
}
