//! A panicking kernel must fail the batch, not hang it.
//!
//! The newest round carries one update of the wrong dimension, so the
//! kernels that read every update of the round (malicious filtering,
//! clustering) panic. A batch that leads with such a serve and continues
//! with cheap ones must come back — as a panic with a message — at every
//! thread count, whether the kernel dies on the owner or on a helper,
//! and the executor must still shut down afterwards.
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
use flstore_exec::ShardedExecutor;
use flstore_fl::ids::{JobId, Round};
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_fl::weights::WeightVector;
use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::WorkloadKind;

const DEADLINE: Duration = Duration::from_secs(30);

/// A store whose newest round's update 1 is three weights too long.
fn poisoned_store() -> (FlStore, Round) {
    let cfg = FlJobConfig {
        rounds: 3,
        ..FlJobConfig::quick_test(JobId::new(1))
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
    let dim = newest.updates[1].weights.dim();
    newest.updates[1].weights = WeightVector::from_vec(vec![0.5; dim + 3]);
    let round = newest.round;
    let mut now = SimTime::ZERO;
    for record in &records {
        store.ingest_round(now, record);
        now += SimDuration::from_secs(60);
    }
    (store, round)
}

/// Eight serves: the poisoned one of `kind` at index `at`, the rest cheap.
fn batch(kind: WorkloadKind, at: u64, round: Round) -> Vec<Request> {
    (0..8u64)
        .map(|i| {
            let kind = if i == at {
                kind
            } else {
                WorkloadKind::SchedulingPerf
            };
            Request::Serve(WorkloadRequest::new(
                RequestId::new(i + 1),
                kind,
                JobId::new(1),
                round,
                None,
            ))
        })
        .collect()
}

/// Submits the poisoned batch on a spawned thread and checks that the
/// submission panics and the executor drops, each within the deadline.
/// Leading with the poisoned serve mostly kills the owner (it drains the
/// plane oldest-first); trailing with it mostly kills a helper.
fn fails_without_hanging(kind: WorkloadKind, at: u64, threads: usize) {
    let (store, round) = poisoned_store();
    let requests = batch(kind, at, round);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut exec = ShardedExecutor::new(vec![store], threads);
        let served = panic::catch_unwind(AssertUnwindSafe(|| {
            exec.submit_batch(SimTime::from_secs(3600), &requests)
        }));
        let _ = tx.send(served.is_err());
        drop(exec);
        let _ = tx.send(true);
    });
    let case = format!("{kind:?} at index {at}, {threads} thread(s)");
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
