//! A panicking kernel must fail the batch, not hang it.
//!
//! The newest round carries one update of the wrong dimension, so the
//! kernels that read every update of the round (malicious filtering,
//! clustering) panic. A batch that leads with such a serve and continues
//! with cheap ones must come back — as a panic with a message — at every
//! thread count, whether the kernel dies on the caller or on a helper,
//! and the executor must still shut down afterwards. The same holds for
//! a two-job tenant front whose batch interleaves the poisoned job with
//! a healthy one.
//!
//! Until the kernels answer this input with a typed error, a panic is the
//! expected outcome; a hang never is.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use flstore_core::api::Request;
use flstore_core::api::Service;
use flstore_core::policy::TailoredPolicy;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_core::tenancy::MultiTenantStore;
use flstore_exec::{DeferredService, ShardedExecutor};
use flstore_fl::ids::{JobId, Round};
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_fl::weights::WeightVector;
use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::WorkloadKind;

const DEADLINE: Duration = Duration::from_secs(30);

/// Job `job`'s store after three rounds; with `poison`, the newest
/// round's update 1 is three weights too long.
fn loaded_store(job: u32, poison: bool) -> (FlStore, Round) {
    let cfg = FlJobConfig {
        rounds: 3,
        ..FlJobConfig::quick_test(JobId::new(job))
    };
    let store_cfg = FlStoreConfig {
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
    let mut records: Vec<RoundRecord> = FlJobSim::new(cfg).collect();
    let newest = records.last_mut().expect("rounds");
    if poison {
        let dim = newest.updates[1].weights.dim();
        newest.updates[1].weights = WeightVector::from_vec(vec![0.5; dim + 3]);
    }
    let round = newest.round;
    let mut now = SimTime::ZERO;
    for record in &records {
        store.ingest_round(now, record);
        now += SimDuration::from_secs(60);
    }
    (store, round)
}

/// Eight serves on the poisoned job 1 and, with `jobs = 2`, on job 2 in
/// turn: the poisoned one of `kind` at index `at` (always job 1), the
/// rest cheap.
fn batch(kind: WorkloadKind, at: u64, round: Round, jobs: u64) -> Vec<Request> {
    (0..8u64)
        .map(|i| {
            let (kind, job) = if i == at {
                (kind, 1)
            } else {
                (WorkloadKind::SchedulingPerf, 1 + i % jobs)
            };
            Request::Serve(WorkloadRequest::new(
                RequestId::new(i + 1),
                kind,
                JobId::new(job as u32),
                round,
                None,
            ))
        })
        .collect()
}

/// Submits the poisoned batch on a spawned thread and checks that the
/// submission panics and the executor drops, each within the deadline.
/// Leading with the poisoned serve mostly kills the caller (it drains the
/// plane oldest-first); trailing with it mostly kills a helper.
fn fails_without_hanging(kind: WorkloadKind, at: u64, threads: usize) {
    let (store, round) = loaded_store(1, true);
    let case = format!("{kind:?} at index {at}, {threads} thread(s)");
    let build = move || ShardedExecutor::new(vec![store], threads);
    executor_fails_without_hanging(build, batch(kind, at, round, 1), case);
}

/// The same check for any executor `build` makes on the spawned thread.
fn executor_fails_without_hanging<U: DeferredService>(
    build: impl FnOnce() -> ShardedExecutor<U> + Send + 'static,
    requests: Vec<Request>,
    case: String,
) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut exec = build();
        let served = panic::catch_unwind(AssertUnwindSafe(|| {
            exec.submit_batch(SimTime::from_secs(3600), &requests)
        }));
        let _ = tx.send(served.is_err());
        drop(exec);
        let _ = tx.send(true);
    });
    let panicked = rx
        .recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{case}: submit_batch hung past {DEADLINE:?}"));
    assert!(panicked, "{case}: the poisoned kernel must fail the batch");
    rx.recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{case}: dropping the executor hung past {DEADLINE:?}"));
}

#[test]
fn a_panicking_filtering_kernel_fails_the_batch_at_every_thread_count() {
    for threads in [1, 2, 4] {
        for at in [0, 7] {
            fails_without_hanging(WorkloadKind::MaliciousFiltering, at, threads);
        }
    }
}

#[test]
fn a_panicking_clustering_kernel_fails_the_batch_at_every_thread_count() {
    for threads in [1, 2, 4] {
        for at in [0, 7] {
            fails_without_hanging(WorkloadKind::Clustering, at, threads);
        }
    }
}

#[test]
fn a_panicking_kernel_fails_a_two_job_front_at_every_thread_count() {
    for threads in [1, 2, 4] {
        for at in [0, 7] {
            let (poisoned, round) = loaded_store(1, true);
            let (healthy, _) = loaded_store(2, false);
            let mut front = MultiTenantStore::new(FlStoreConfig::for_model(
                &FlJobConfig::quick_test(JobId::new(1)).model,
            ));
            front.adopt(poisoned).expect("job 1");
            front.adopt(healthy).expect("job 2");
            let requests = batch(WorkloadKind::MaliciousFiltering, at, round, 2);
            let case = format!("two-job front, poisoned serve at index {at}, {threads} thread(s)");
            let build = move || ShardedExecutor::from_tenants(front, threads);
            executor_fails_without_hanging(build, requests, case);
        }
    }
}
