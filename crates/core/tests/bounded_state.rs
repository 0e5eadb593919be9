//! Per-request state is bounded by what is in flight, not by history.
//!
//! After 20k small serves — single envelopes and batches, rejected serves
//! among them — every deployment's request tracker is empty, and its
//! ledger equals, bit for bit, a fresh ledger fed the responses'
//! `measured` outcomes in order (background spend copied over). So the
//! running totals and fingerprint keep everything the per-outcome ledger
//! let a test compare, on a bare store, the executor at 1, 2 and 4
//! threads, a two-job tenant front, and a durable store and its recovery.

use std::sync::Arc;

use flstore_core::api::{Request, Response, Service};
use flstore_core::durable::DurabilityConfig;
use flstore_core::policy::TailoredPolicy;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_core::tenancy::MultiTenantStore;
use flstore_durability::recover::{attach, recover};
use flstore_durability::testkit::DetTempDir;
use flstore_exec::ShardedExecutor;
use flstore_fl::ids::{JobId, Round};
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
use flstore_sim::rng::DetRng;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::service::ServiceLedger;
use flstore_workloads::taxonomy::{PolicyClass, WorkloadKind};

const SERVES: u64 = 20_000;
/// A round no job ingests: serves of it are rejected with `NoData`.
const MISSING_ROUND: u32 = 10_000;

fn job_config(job: u32) -> FlJobConfig {
    FlJobConfig {
        rounds: 4,
        ..FlJobConfig::quick_test(JobId::new(job))
    }
}

fn quiet_config(job: &FlJobConfig) -> FlStoreConfig {
    FlStoreConfig {
        platform: PlatformConfig {
            reclaim: ReclaimModel::DISABLED,
            ..PlatformConfig::default()
        },
        ..FlStoreConfig::for_model(&job.model)
    }
}

fn fresh_store(cfg: FlStoreConfig, job: &FlJobConfig) -> FlStore {
    FlStore::new(cfg, Box::new(TailoredPolicy::new()), job.job, job.model)
}

/// Ingests `records` of `job` a minute apart; returns the instant after
/// the last.
fn ingest<S: Service>(service: &mut S, job: JobId, records: &[RoundRecord]) -> SimTime {
    let mut now = SimTime::ZERO;
    for record in records {
        let record = Arc::new(record.clone());
        let response = service.submit(now, Request::Ingest { job, record });
        assert!(response.is_ok(), "ingest: {response:?}");
        now += SimDuration::from_secs(60);
    }
    now
}

/// `SERVES` serves of every kind over the ingested rounds of `jobs`, one
/// in 50 of a round nobody ingested, cut into batches of 1 to 8.
fn schedule(seed: u64, jobs: &[(JobId, &[RoundRecord])]) -> Vec<Vec<Request>> {
    let mut rng = DetRng::new(seed);
    let mut batches = Vec::new();
    let mut id = 0u64;
    while id < SERVES {
        let len = (1 + rng.index(8) as u64).min(SERVES - id);
        let batch = (0..len)
            .map(|_| {
                id += 1;
                let (job, records) = jobs[rng.index(jobs.len())];
                let kind = WorkloadKind::ALL[rng.index(WorkloadKind::ALL.len())];
                let record = &records[rng.index(records.len())];
                let round = if id.is_multiple_of(50) {
                    Round::new(MISSING_ROUND)
                } else {
                    record.round
                };
                let client = (kind.policy_class() == PolicyClass::P3AcrossRounds)
                    .then(|| record.updates[0].client);
                Request::Serve(WorkloadRequest::new(
                    RequestId::new(id),
                    kind,
                    job,
                    round,
                    client,
                ))
            })
            .collect();
        batches.push(batch);
    }
    batches
}

/// Submits every batch (a batch of one through `submit`); returns the
/// responses in submission order.
fn drive<S: Service>(service: &mut S, now: SimTime, batches: &[Vec<Request>]) -> Vec<Response> {
    let mut responses = Vec::new();
    for batch in batches {
        match batch.as_slice() {
            [one] => responses.push(service.submit(now, one.clone())),
            _ => responses.extend(service.submit_batch(now, batch)),
        }
    }
    responses
}

/// The ledger a store of `job` must hold after `responses`: a fresh one
/// fed every served outcome of that job in order, with the store's
/// background spend (which no response carries) copied over.
fn expected_ledger(
    job: JobId,
    batches: &[Vec<Request>],
    responses: &[Response],
    background: &ServiceLedger,
) -> ServiceLedger {
    let mut ledger = ServiceLedger::new();
    let requests = batches.iter().flatten();
    let mut rejected = 0;
    for (request, response) in requests.zip(responses) {
        if request.job() != Some(job) {
            continue;
        }
        match response.served() {
            Some(served) => ledger.record(&served.measured),
            None => rejected += 1,
        }
    }
    assert!(rejected > 0, "the schedule rejects some serves");
    ledger.background_cost = background.background_cost;
    ledger
}

fn assert_bounded(store: &FlStore, batches: &[Vec<Request>], responses: &[Response], label: &str) {
    let job = store.catalog().job();
    assert!(store.tracker().is_empty(), "{label}: tracker holds history");
    assert_eq!(store.tracker().in_flight(), 0, "{label}");
    let expected = expected_ledger(job, batches, responses, store.ledger());
    assert!(expected.len() > 1000, "{label}: {} served", expected.len());
    assert_eq!(*store.ledger(), expected, "{label}: ledger differs");
}

#[test]
fn a_bare_store_keeps_no_per_request_history() {
    let job = job_config(1);
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let mut store = fresh_store(quiet_config(&job), &job);
    let now = ingest(&mut store, job.job, &records);
    let batches = schedule(1, &[(job.job, &records)]);
    let responses = drive(&mut store, now, &batches);
    assert_bounded(&store, &batches, &responses, "bare");
}

#[test]
fn the_executor_keeps_no_per_request_history_at_every_thread_count() {
    let job = job_config(1);
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let batches = schedule(2, &[(job.job, &records)]);
    for threads in [1usize, 2, 4] {
        let mut store = fresh_store(quiet_config(&job), &job);
        let now = ingest(&mut store, job.job, &records);
        let mut exec = ShardedExecutor::new(vec![store], threads);
        let responses = drive(&mut exec, now, &batches);
        let store = exec.into_units().pop().expect("the unit comes back");
        assert_bounded(&store, &batches, &responses, &format!("{threads} threads"));
    }
}

#[test]
fn a_two_job_front_keeps_no_per_request_history() {
    let jobs = [job_config(1), job_config(2)];
    let records: Vec<Vec<RoundRecord>> = jobs
        .iter()
        .map(|job| FlJobSim::new(job.clone()).collect())
        .collect();
    let mut front = MultiTenantStore::new(quiet_config(&jobs[0]));
    for job in &jobs {
        assert!(front.register_job(job.job, job.model));
    }
    let mut now = SimTime::ZERO;
    for (job, records) in jobs.iter().zip(&records) {
        now = now.max(ingest(&mut front, job.job, records));
    }
    let batches = schedule(3, &[(jobs[0].job, &records[0]), (jobs[1].job, &records[1])]);
    let responses = drive(&mut front, now, &batches);
    for job in &jobs {
        let store = front.tenant(job.job).expect("registered");
        assert_bounded(store, &batches, &responses, "front");
    }
}

#[test]
fn a_durable_store_and_its_recovery_keep_no_per_request_history() {
    let job = job_config(1);
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let cfg = FlStoreConfig {
        durability: DurabilityConfig {
            flush_every: 64,
            snapshot_every: 4096,
            ..DurabilityConfig::DISABLED
        },
        ..quiet_config(&job)
    };
    let dir = DetTempDir::new("bounded-state-durable", 1);
    let mut store = fresh_store(cfg, &job);
    attach(&mut store, dir.path()).expect("attach");
    let now = ingest(&mut store, job.job, &records);
    let batches = schedule(4, &[(job.job, &records)]);
    let responses = drive(&mut store, now, &batches);
    assert_bounded(&store, &batches, &responses, "durable");
    let ledger = store.ledger().clone();
    drop(store);

    let recovered = recover(dir.path()).expect("recover");
    assert_bounded(&recovered, &batches, &responses, "recovered");
    assert_eq!(*recovered.ledger(), ledger);
}
