//! True multi-thread execution stress: OS client threads drive one
//! sharded executor through a mutex while its worker threads serve eight
//! tenants — not just the (single-threaded) property harness.
//!
//! Every serve envelope must succeed and end tracked and completed in the
//! request tracker of the tenant that owns its job.

use std::sync::Arc;

use parking_lot::Mutex;

use flstore_core::api::{Request, Response, Service};
use flstore_core::store::FlStoreConfig;
use flstore_core::tenancy::MultiTenantStore;
use flstore_exec::ShardedExecutor;
use flstore_fl::ids::JobId;
use flstore_fl::job::{FlJobConfig, FlJobSim};
use flstore_fl::zoo::ModelArch;
use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::WorkloadKind;

const JOBS: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
const SHARDS: usize = 8;

fn loaded_front() -> (MultiTenantStore, flstore_fl::ids::Round) {
    let template = FlStoreConfig {
        platform: PlatformConfig {
            reclaim: ReclaimModel::DISABLED,
            ..PlatformConfig::default()
        },
        ..FlStoreConfig::for_model(&ModelArch::RESNET18)
    };
    let mut front = MultiTenantStore::new(template);
    let mut last = flstore_fl::ids::Round::ZERO;
    for &job in &JOBS {
        let cfg = FlJobConfig {
            rounds: 3,
            ..FlJobConfig::quick_test(JobId::new(job))
        };
        front.register_job(cfg.job, cfg.model);
        let mut now = SimTime::ZERO;
        for record in FlJobSim::new(cfg.clone()) {
            last = record.round;
            front
                .tenant_mut(cfg.job)
                .expect("registered")
                .ingest_round(now, &record);
            now += SimDuration::from_secs(60);
        }
    }
    (front, last)
}

fn serve(id: u64, job: u32, round: flstore_fl::ids::Round) -> Request {
    Request::Serve(WorkloadRequest::new(
        RequestId::new(id),
        WorkloadKind::SchedulingCluster,
        JobId::new(job),
        round,
        None,
    ))
}

#[test]
fn client_threads_drive_one_executor_concurrently() {
    let (front, round) = loaded_front();
    let exec = Arc::new(Mutex::named(
        ShardedExecutor::from_tenants(front, SHARDS),
        "exec.stress.clients",
    ));
    let clients = 4u64;
    let batches_per_client = 8u64;
    let batch_len = 32u64;

    let mut handles = Vec::new();
    for client in 0..clients {
        let exec = Arc::clone(&exec);
        handles.push(std::thread::spawn(move || {
            let now = SimTime::from_secs(3600);
            for b in 0..batches_per_client {
                let first = 1 + (client * batches_per_client + b) * batch_len;
                let batch: Vec<Request> = (0..batch_len)
                    .map(|i| {
                        let id = first + i;
                        serve(id, JOBS[(id % JOBS.len() as u64) as usize], round)
                    })
                    .collect();
                let responses = exec.lock().submit_batch(now, &batch);
                assert!(responses.iter().all(Response::is_ok));
            }
        }));
    }
    for handle in handles {
        handle.join().expect("client threads finish cleanly");
    }

    let front = Arc::try_unwrap(exec)
        .unwrap_or_else(|_| panic!("all clients joined"))
        .into_inner()
        .into_units()
        .pop()
        .expect("the front");
    let total = clients * batches_per_client * batch_len;
    // Every serve retired from its tenant's tracker and was ledgered on
    // the tenant that owns its job.
    let per_job = total as usize / JOBS.len();
    for unit in front.tenants() {
        assert!(unit.tracker().is_empty());
        assert_eq!(unit.tracker().in_flight(), 0);
        assert_eq!(unit.ledger().len(), per_job);
    }
}
