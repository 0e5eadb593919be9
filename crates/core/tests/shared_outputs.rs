//! Shared kernel outputs against ground truth.
//!
//! `FlStore` hands a serve whose kernel would read the same values as an
//! earlier serve that serve's output instead of running the kernel again.
//! Every other equivalence gate compares one deployment with another
//! `FlStore`, and both carry the same memo, so a memo bug would pass them
//! all. Here each served outcome is compared with `workloads::execute`
//! run on `round_entries` of the ingested records — values the test
//! builds itself and never reads from the store — across repeated serves
//! within and across batches, explicit eviction, a re-ingested round,
//! replica reclamation, spill fault-back, capacity pressure, recovery and
//! the executor at several thread counts. Clustering and personalization
//! serves share their round's seed-free inputs instead of an output, and
//! are checked the same way, with the k-means distance passes they run
//! pinned as a count.

use std::collections::HashMap;

use flstore_core::api::{Request, Response, Service};
use flstore_core::durable::DurabilityConfig;
use flstore_core::policy::TailoredPolicy;
use flstore_core::quota::TenantQuota;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_durability::recover::{attach, recover};
use flstore_durability::testkit::DetTempDir;
use flstore_exec::ShardedExecutor;
use flstore_fl::ids::JobId;
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_fl::metadata::{round_entries, MetaKey, MetaValue};
use flstore_fl::weights::WeightVector;
use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
use flstore_sim::bytes::ByteSize;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{JobCatalog, RequestId, WorkloadRequest};
use flstore_workloads::run::{
    distance_passes_on_this_thread, execute, kernel_runs_on_this_thread, WorkloadOutcome,
};
use flstore_workloads::taxonomy::{PolicyClass, WorkloadKind};

const JOB: u32 = 1;

fn job_config() -> FlJobConfig {
    FlJobConfig {
        rounds: 6,
        ..FlJobConfig::quick_test(JobId::new(JOB))
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

/// The answer every serve must give: the job's catalog and each key's
/// value as `round_entries` produces it from the records the test
/// ingested, with `execute` run on them.
struct Truth {
    job: FlJobConfig,
    catalog: JobCatalog,
    values: HashMap<MetaKey, MetaValue>,
}

impl Truth {
    fn new(job: &FlJobConfig) -> Self {
        Truth {
            job: job.clone(),
            catalog: JobCatalog::new(job.job, job.model),
            values: HashMap::new(),
        }
    }

    fn observe(&mut self, record: &RoundRecord) {
        self.catalog.observe_round(record);
        for entry in round_entries(record, self.job.job, &self.job.model) {
            self.values.insert(entry.key, (*entry.value).clone());
        }
    }

    fn outcome(&self, request: &WorkloadRequest) -> WorkloadOutcome {
        let values: Vec<&MetaValue> = self
            .catalog
            .data_needs(request)
            .iter()
            .map(|k| &self.values[k])
            .collect();
        execute(request, &values, self.job.model.compute_scale())
            .unwrap_or_else(|e| panic!("{request:?} has no ground truth: {e}"))
    }

    /// Every serve of `requests` was served with its ground-truth
    /// outcome.
    fn check(&self, requests: &[Request], responses: &[Response], label: &str) {
        assert_eq!(
            requests.len(),
            responses.len(),
            "{label}: one response each"
        );
        for (request, response) in requests.iter().zip(responses) {
            let Request::Serve(request) = request else {
                continue;
            };
            let got = response
                .served()
                .unwrap_or_else(|| panic!("{label}: {request:?} answered {response:?}"));
            assert_eq!(
                got.outcome,
                self.outcome(request),
                "{label}: {} {} differs from execute",
                request.kind,
                request.id
            );
        }
    }
}

/// Ingests `records` a minute apart into `store` and `truth`; returns
/// the instant after the last one.
fn ingest_all(store: &mut FlStore, truth: &mut Truth, records: &[RoundRecord]) -> SimTime {
    let mut now = SimTime::ZERO;
    for record in records {
        store.ingest_round(now, record);
        truth.observe(record);
        now += SimDuration::from_secs(60);
    }
    now
}

fn serve(id: u64, kind: WorkloadKind, record: &RoundRecord) -> Request {
    let client =
        (kind.policy_class() == PolicyClass::P3AcrossRounds).then(|| record.updates[0].client);
    Request::Serve(WorkloadRequest::new(
        RequestId::new(id),
        kind,
        JobId::new(JOB),
        record.round,
        client,
    ))
}

/// Three serves of every kind on the newest round and one on the round
/// before it, interleaved so no two serves of a kind are adjacent; ids
/// count up from `first_id`.
fn repeated_serves(first_id: u64, records: &[RoundRecord]) -> Vec<Request> {
    let newest = &records[records.len() - 1];
    let older = &records[records.len() - 2];
    let mut id = first_id;
    let mut batch = Vec::new();
    for record in [newest, older, newest, newest] {
        for kind in WorkloadKind::ALL {
            batch.push(serve(id, kind, record));
            id += 1;
        }
    }
    batch
}

#[test]
fn repeated_serves_within_and_across_batches_equal_execute() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let mut store = fresh_store(quiet_config(&job), &job);
    let mut truth = Truth::new(&job);
    let now = ingest_all(&mut store, &mut truth, &records);

    for pass in 0..3u64 {
        let batch = repeated_serves(1 + pass * 100, &records);
        let responses = store.submit_batch(now, &batch);
        truth.check(&batch, &responses, "batch");
    }
    // And one serve at a time.
    for request in repeated_serves(1000, &records) {
        let response = store.submit(now, request.clone());
        truth.check(&[request], &[response], "single");
    }
    assert!(
        store.output_memo().stats().shared > 0,
        "repeated serves never shared an output"
    );
}

#[test]
fn seeded_serves_of_one_round_keep_their_own_outputs() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let mut store = fresh_store(quiet_config(&job), &job);
    let mut truth = Truth::new(&job);
    let now = ingest_all(&mut store, &mut truth, &records);
    let newest = records.last().expect("rounds");

    for kind in [
        WorkloadKind::Clustering,
        WorkloadKind::Personalized,
        WorkloadKind::Inference,
    ] {
        let batch = vec![serve(1, kind, newest), serve(2, kind, newest)];
        let responses = store.submit_batch(now, &batch);
        truth.check(&batch, &responses, "seeded");
        let outputs: Vec<_> = responses
            .iter()
            .map(|r| &r.served().expect("served").outcome.output)
            .collect();
        assert_ne!(outputs[0], outputs[1], "{kind}: two seeds, one output");
    }
}

#[test]
fn an_evicted_round_is_served_from_its_refetched_values() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let mut store = fresh_store(quiet_config(&job), &job);
    let mut truth = Truth::new(&job);
    let now = ingest_all(&mut store, &mut truth, &records);
    let newest = records.last().expect("rounds");

    let mut batch = repeated_serves(1, &records);
    batch.extend(
        round_entries(newest, job.job, &job.model)
            .iter()
            .map(|e| Request::Evict(e.key)),
    );
    let evicted_at = batch.len();
    batch.extend(repeated_serves(100, &records));
    let responses = store.submit_batch(now, &batch);
    truth.check(&batch, &responses, "evict in batch");
    let refetched = responses[evicted_at..]
        .iter()
        .any(|r| r.served().expect("served").measured.cache_misses > 0);
    assert!(refetched, "the evicted round was never missed");

    let batch = repeated_serves(200, &records);
    let responses = store.submit_batch(now, &batch);
    truth.check(&batch, &responses, "after evict");
}

#[test]
fn a_reingested_round_is_served_from_its_new_values() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let mut store = fresh_store(quiet_config(&job), &job);
    let mut truth = Truth::new(&job);
    let mut now = ingest_all(&mut store, &mut truth, &records);

    let before = repeated_serves(1, &records);
    let responses = store.submit_batch(now, &before);
    truth.check(&before, &responses, "before re-ingest");

    // The same round again, every update's weights scaled: equal keys,
    // different values.
    let mut changed = records.clone();
    let newest = changed.last_mut().expect("rounds");
    for update in &mut newest.updates {
        let scaled: Vec<f32> = update.weights.as_slice().iter().map(|w| w * 3.0).collect();
        update.weights = WeightVector::from_vec(scaled);
    }
    now += SimDuration::from_secs(60);
    store.ingest_round(now, newest);
    truth.observe(newest);

    let after = repeated_serves(100, &changed);
    let responses = store.submit_batch(now, &after);
    truth.check(&after, &responses, "after re-ingest");
}

#[test]
fn reclaimed_replicas_do_not_leak_stale_outputs() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let mut cfg = quiet_config(&job);
    cfg.replication = 2;
    cfg.platform.reclaim = ReclaimModel {
        enabled: true,
        min_lifetime_hours: 0.02,
        alpha: 2.5,
    };
    let mut store = fresh_store(cfg, &job);
    let mut truth = Truth::new(&job);
    let mut now = SimTime::ZERO;
    let mut id = 1;
    for (i, record) in records.iter().enumerate() {
        store.ingest_round(now, record);
        truth.observe(record);
        if i == 0 {
            continue;
        }
        for _ in 0..3 {
            now += SimDuration::from_mins(20);
            let batch = repeated_serves(id, &records[..=i]);
            id += batch.len() as u64;
            let responses = store.submit_batch(now, &batch);
            truth.check(&batch, &responses, "reclaiming");
        }
    }
    assert!(store.faults_observed() > 0, "no replica was reclaimed");
}

#[test]
fn spilled_values_faulted_back_are_served_correctly() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let cfg = FlStoreConfig {
        quota: Some(TenantQuota::strict(ByteSize::from_bytes(
            job.round_metadata_bytes().as_bytes() / 2,
        ))),
        durability: DurabilityConfig {
            flush_every: 1,
            spill: true,
            ..DurabilityConfig::DISABLED
        },
        ..quiet_config(&job)
    };
    let dir = DetTempDir::new("shared-outputs-spill", 1);
    let mut store = fresh_store(cfg, &job);
    attach(&mut store, dir.path()).expect("attach");
    let mut truth = Truth::new(&job);
    let now = ingest_all(&mut store, &mut truth, &records);

    let mut id = 1;
    for _ in 0..3 {
        let mut batch = repeated_serves(id, &records);
        for kind in WorkloadKind::ALL {
            batch.push(serve(id + 500, kind, &records[0]));
            id += 1;
        }
        id += batch.len() as u64;
        let responses = store.submit_batch(now, &batch);
        truth.check(&batch, &responses, "spill");
    }
    assert!(store.spill_faults() > 0, "nothing faulted back from spill");
}

#[test]
fn capacity_pressure_does_not_leak_stale_outputs() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let cfg = FlStoreConfig {
        capacity_per_ring: Some(ByteSize::from_bytes(
            job.round_metadata_bytes().as_bytes() / 2,
        )),
        ..quiet_config(&job)
    };
    let mut store = fresh_store(cfg, &job);
    let mut truth = Truth::new(&job);
    let now = ingest_all(&mut store, &mut truth, &records);

    let mut misses = 0;
    for pass in 0..3u64 {
        let batch = repeated_serves(1 + pass * 100, &records);
        let responses = store.submit_batch(now, &batch);
        truth.check(&batch, &responses, "capacity");
        misses += responses
            .iter()
            .map(|r| r.served().expect("served").measured.cache_misses)
            .sum::<usize>();
    }
    assert!(misses > 0, "the capacity never pressed");
}

#[test]
fn a_recovered_store_serves_ground_truth() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let cfg = FlStoreConfig {
        durability: DurabilityConfig {
            flush_every: 1,
            snapshot_every: 8,
            ..DurabilityConfig::DISABLED
        },
        ..quiet_config(&job)
    };
    let dir = DetTempDir::new("shared-outputs-recover", 1);
    let mut store = fresh_store(cfg, &job);
    attach(&mut store, dir.path()).expect("attach");
    let mut truth = Truth::new(&job);
    let now = ingest_all(&mut store, &mut truth, &records);
    let batch = repeated_serves(1, &records);
    let responses = store.submit_batch(now, &batch);
    truth.check(&batch, &responses, "before the kill");
    drop(store);

    let mut recovered = recover(dir.path()).expect("recover");
    for pass in 1..3u64 {
        let batch = repeated_serves(1 + pass * 100, &records);
        let responses = recovered.submit_batch(now, &batch);
        truth.check(&batch, &responses, "recovered");
    }
}

#[test]
fn the_executor_serves_ground_truth_at_every_thread_count() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    for threads in [1usize, 2, 4] {
        let mut store = fresh_store(quiet_config(&job), &job);
        let mut truth = Truth::new(&job);
        let now = ingest_all(&mut store, &mut truth, &records);
        let mut exec = ShardedExecutor::new(vec![store], threads);
        for pass in 0..3u64 {
            let batch = repeated_serves(1 + pass * 100, &records);
            let responses = exec.submit_batch(now, &batch);
            truth.check(&batch, &responses, &format!("{threads} threads"));
        }
    }
}

#[test]
fn eight_identical_filtering_serves_run_one_kernel() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let mut store = fresh_store(quiet_config(&job), &job);
    let mut truth = Truth::new(&job);
    let now = ingest_all(&mut store, &mut truth, &records);
    let newest = records.last().expect("rounds");

    let before = store.output_memo().stats();
    let batch: Vec<Request> = (1..=8)
        .map(|id| serve(id, WorkloadKind::MaliciousFiltering, newest))
        .collect();
    let responses = store.submit_batch(now, &batch);
    truth.check(&batch, &responses, "filtering");
    let after = store.output_memo().stats();
    assert_eq!(after.attached - before.attached, 1, "one slot attached");
    assert_eq!(after.shared - before.shared, 7, "seven serves shared it");
    // Billing is per serve: every one carries the same compute charge.
    let costs: Vec<_> = responses
        .iter()
        .map(|r| r.served().expect("served").measured.cost)
        .collect();
    assert!(costs.iter().all(|c| *c == costs[0]), "{costs:?}");
}

#[test]
fn the_memo_holds_at_most_one_entry_per_kind() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let mut store = fresh_store(quiet_config(&job), &job);
    let mut truth = Truth::new(&job);
    let now = ingest_all(&mut store, &mut truth, &records);
    let seed_free = WorkloadKind::ALL.len() - 3;
    let mut id = 1;
    for end in 2..=records.len() {
        let batch = repeated_serves(id, &records[..end]);
        id += batch.len() as u64;
        let responses = store.submit_batch(now, &batch);
        truth.check(&batch, &responses, "rounds");
        assert_eq!(store.output_memo().len(), seed_free);
    }
}

/// `count` serves of each seeded kind that shares its inputs, on one
/// round, ids counting up from `first_id`, the two kinds interleaved.
fn seeded_serves(first_id: u64, count: u64, record: &RoundRecord) -> Vec<Request> {
    (0..count * 2)
        .map(|i| {
            let kind = if i % 2 == 0 {
                WorkloadKind::Clustering
            } else {
                WorkloadKind::Personalized
            };
            serve(first_id + i, kind, record)
        })
        .collect()
}

#[test]
fn seeded_serves_of_one_round_share_inputs_across_batches() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let mut store = fresh_store(quiet_config(&job), &job);
    let mut truth = Truth::new(&job);
    let now = ingest_all(&mut store, &mut truth, &records);
    let newest = records.last().expect("rounds");

    let outputs_before = store.output_memo().stats();
    for pass in 0..3u64 {
        let batch = seeded_serves(1 + pass * 100, 4, newest);
        let responses = store.submit_batch(now, &batch);
        truth.check(&batch, &responses, "seeded batch");
    }
    for request in seeded_serves(1000, 2, newest) {
        let response = store.submit(now, request.clone());
        truth.check(&[request], &[response], "seeded single");
    }
    let memo = store.output_memo();
    assert_eq!(
        memo.stats(),
        outputs_before,
        "a seeded serve touched the outputs"
    );
    assert_eq!(memo.inputs_len(), 2, "one inputs entry per sharing kind");
    let stats = memo.input_stats();
    assert_eq!(stats.attached, 2, "one slot per kind for one round");
    assert_eq!(
        stats.shared,
        28 - 2,
        "every later serve joined its kind's slot"
    );
}

#[test]
fn seeded_serves_take_fresh_inputs_after_evict_reingest_and_fault_back() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let cfg = FlStoreConfig {
        quota: Some(TenantQuota::strict(ByteSize::from_bytes(
            job.round_metadata_bytes().as_bytes() / 2,
        ))),
        durability: DurabilityConfig {
            flush_every: 1,
            spill: true,
            ..DurabilityConfig::DISABLED
        },
        ..quiet_config(&job)
    };
    let dir = DetTempDir::new("shared-inputs-spill", 1);
    let mut store = fresh_store(cfg, &job);
    attach(&mut store, dir.path()).expect("attach");
    let mut truth = Truth::new(&job);
    let mut now = ingest_all(&mut store, &mut truth, &records);
    let newest = records.last().expect("rounds");

    let batch = seeded_serves(1, 3, newest);
    let responses = store.submit_batch(now, &batch);
    truth.check(&batch, &responses, "before evict");
    let attached = store.output_memo().input_stats().attached;

    // Evicted, then served again from refetched values: new allocations,
    // so both kinds take fresh slots.
    let mut batch: Vec<Request> = round_entries(newest, job.job, &job.model)
        .iter()
        .map(|e| Request::Evict(e.key))
        .collect();
    let evicted = batch.len();
    batch.extend(seeded_serves(100, 3, newest));
    let responses = store.submit_batch(now, &batch);
    truth.check(&batch, &responses, "after evict");
    let refetched = responses[evicted..]
        .iter()
        .any(|r| r.served().expect("served").measured.cache_misses > 0);
    assert!(refetched, "the evicted round was never missed");
    assert!(store.output_memo().input_stats().attached > attached);

    // The same round re-ingested with different weights.
    let mut changed = newest.clone();
    for update in &mut changed.updates {
        let scaled: Vec<f32> = update.weights.as_slice().iter().map(|w| w * 3.0).collect();
        update.weights = WeightVector::from_vec(scaled);
    }
    now += SimDuration::from_secs(60);
    store.ingest_round(now, &changed);
    truth.observe(&changed);
    let batch = seeded_serves(200, 3, &changed);
    let responses = store.submit_batch(now, &batch);
    truth.check(&batch, &responses, "after re-ingest");

    // The oldest round lives only in the spill tier under this quota.
    let faults = store.spill_faults();
    let batch = seeded_serves(300, 3, &records[0]);
    let responses = store.submit_batch(now, &batch);
    truth.check(&batch, &responses, "fault-back");
    assert!(
        store.spill_faults() > faults,
        "nothing faulted back from spill"
    );
}

#[test]
fn the_executor_shares_seeded_inputs_at_every_thread_count() {
    let job = job_config();
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    for threads in [1usize, 2, 4] {
        let mut store = fresh_store(quiet_config(&job), &job);
        let mut truth = Truth::new(&job);
        let now = ingest_all(&mut store, &mut truth, &records);
        let mut exec = ShardedExecutor::new(vec![store], threads);
        for pass in 0..3u64 {
            // Two rounds in one batch: helpers race on both slots.
            let mut batch = seeded_serves(1 + pass * 100, 4, &records[records.len() - 1]);
            batch.extend(seeded_serves(
                50 + pass * 100,
                4,
                &records[records.len() - 2],
            ));
            let responses = exec.submit_batch(now, &batch);
            truth.check(&batch, &responses, &format!("{threads} threads"));
        }
    }
}

/// Distance passes one round's clustering and personalization mix runs
/// on one thread, with the round's inputs shared and without. A change
/// that moves either count updates it here, in the same diff.
#[test]
fn one_rounds_seeded_mix_runs_a_pinned_number_of_distance_passes() {
    let job = FlJobConfig {
        total_clients: 32,
        clients_per_round: 16,
        rounds: 2,
        weight_dim: 64,
        ..FlJobConfig::quick_test(JobId::new(JOB))
    };
    let records: Vec<RoundRecord> = FlJobSim::new(job.clone()).collect();
    let mut store = fresh_store(quiet_config(&job), &job);
    let mut truth = Truth::new(&job);
    let now = ingest_all(&mut store, &mut truth, &records);
    let newest = records.last().expect("rounds");
    // Heavy_serve's ratio: two clustering serves per personalization.
    let mut batch = seeded_serves(1, 4, newest);
    batch.extend((0..4).map(|i| serve(20 + i, WorkloadKind::Clustering, newest)));

    let (passes, kernels) = (
        distance_passes_on_this_thread(),
        kernel_runs_on_this_thread(),
    );
    let responses = store.submit_batch(now, &batch);
    let shared = distance_passes_on_this_thread() - passes;
    assert_eq!(
        kernel_runs_on_this_thread() - kernels,
        12,
        "one kernel per serve"
    );
    truth.check(&batch, &responses, "pass count");

    let passes = distance_passes_on_this_thread();
    for request in &batch {
        let Request::Serve(request) = request else {
            unreachable!("serves only")
        };
        truth.outcome(request);
    }
    let alone = distance_passes_on_this_thread() - passes;
    assert_eq!(
        (shared, alone),
        (90, 127),
        "distance passes (shared, alone)"
    );
}
