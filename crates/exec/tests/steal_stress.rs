//! Work-stealing stress: one hot tenant, many workers, seeded request
//! streams — the configuration where every serve's kernel may execute on
//! a thief thread instead of its owner.
//!
//! Two lines are held at stress scale (the unit tests in `lib.rs` cover
//! the small cases):
//!
//! * **Byte equivalence** — responses from the stealing executor match a
//!   sequential run of the same seeded mix on an identically loaded
//!   deployment, for several seeds, at workers = key shards ∈ {2, 4, 8}.
//! * **Exact attribution** — the shared `RequestTracker` records every
//!   serve on its *owner's* lane and nothing else. Stealing moves the
//!   kernel, never the bookkeeping: a thief must be invisible in the
//!   tracker, in flight counts, and in entry function lists.

use std::sync::Arc;

use parking_lot::Mutex;

use flstore_core::api::{Request, Response, Service};
use flstore_core::policy::TailoredPolicy;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_exec::ShardedExecutor;
use flstore_fl::ids::JobId;
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_serverless::function::FunctionId;
use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
use flstore_sim::rng::DetRng;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::{PolicyClass, WorkloadKind};

const JOB: u32 = 1;
const WORKERS: usize = 8;

/// The hot tenant: one job, its cache engine partitioned into as many
/// MetaKey shards as the executor has workers.
fn loaded_store(workers: usize) -> (FlStore, Vec<RoundRecord>) {
    let cfg = FlJobConfig {
        rounds: 4,
        ..FlJobConfig::quick_test(JobId::new(JOB))
    };
    let store_cfg = FlStoreConfig {
        key_shards: workers,
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
    let records: Vec<RoundRecord> = FlJobSim::new(cfg).collect();
    let mut now = SimTime::ZERO;
    for record in &records {
        store.ingest_round(now, record);
        now += SimDuration::from_secs(60);
    }
    (store, records)
}

/// A seeded stream of serves across every workload class, all aimed at
/// the one hot job — every envelope is steal-eligible.
fn seeded_serves(seed: u64, len: usize, records: &[RoundRecord]) -> Vec<Request> {
    let mut rng = DetRng::stream(seed, "steal-stress-mix");
    (0..len)
        .map(|i| {
            let record = &records[rng.index(records.len())];
            let kind = WorkloadKind::ALL[rng.index(WorkloadKind::ALL.len())];
            let client = match kind.policy_class() {
                PolicyClass::P3AcrossRounds => {
                    Some(record.updates[rng.index(record.updates.len())].client)
                }
                _ => None,
            };
            Request::Serve(WorkloadRequest::new(
                RequestId::new(i as u64 + 1),
                kind,
                JobId::new(JOB),
                record.round,
                client,
            ))
        })
        .collect()
}

#[test]
fn stolen_serves_match_sequential_and_stay_attributed_to_the_owner() {
    for workers in [2usize, 4, 8] {
        for seed in [0x57EA_0001u64, 0x57EA_0002, 0x57EA_0003] {
            let (mut sequential, records) = loaded_store(workers);
            let mix = seeded_serves(seed, 384, &records);
            let now = SimTime::from_secs(3600);
            let expected: Vec<Response> = mix
                .iter()
                .map(|r| sequential.submit(now, r.clone()))
                .collect();

            let (store, _) = loaded_store(workers);
            let mut exec = ShardedExecutor::new(vec![store], workers);
            let responses = exec.submit_batch(now, &mix);
            assert_eq!(
                responses, expected,
                "stealing changed bytes ({workers} workers, seed {seed:x})"
            );
            assert_eq!(
                Service::window_cost(&mut exec, now),
                sequential.total_cost(now),
                "stealing changed costs ({workers} workers, seed {seed:x})"
            );

            // Attribution: with one tenant there is exactly one owner lane.
            // Every other worker only ever stole — none may appear.
            let owner = exec.shard_of(JobId::new(JOB)).expect("registered job");
            let tracker = exec.tracker();
            assert_eq!(tracker.len(), mix.len());
            assert_eq!(tracker.in_flight(), 0, "every stolen serve completed");
            for request in &mix {
                let Request::Serve(w) = request else {
                    unreachable!()
                };
                let entry = tracker.entry(w.id).expect("every serve is tracked");
                assert!(entry.done);
                assert_eq!(
                    entry.functions,
                    vec![FunctionId::from_raw(owner as u64)],
                    "a thief leaked into the tracker ({workers} workers, seed {seed:x})"
                );
            }
        }
    }
}

#[test]
fn client_threads_drive_the_steal_plane_concurrently() {
    let (store, records) = loaded_store(WORKERS);
    let records = Arc::new(records);
    let exec = Arc::new(Mutex::named(
        ShardedExecutor::new(vec![store], WORKERS),
        "exec.stress.steal-clients",
    ));
    let clients = 4u64;
    let batches_per_client = 6u64;
    let batch_len = 48usize;

    let mut handles = Vec::new();
    for client in 0..clients {
        let exec = Arc::clone(&exec);
        let records = Arc::clone(&records);
        handles.push(std::thread::spawn(move || {
            let now = SimTime::from_secs(3600);
            for b in 0..batches_per_client {
                // Distinct id spaces per client so tracker entries never
                // collide; distinct seeds so every batch differs.
                let first = (client * batches_per_client + b) * batch_len as u64;
                let mut batch = seeded_serves(0xC0FFEE ^ first, batch_len, &records);
                for request in &mut batch {
                    let Request::Serve(w) = request else {
                        unreachable!()
                    };
                    w.id = RequestId::new(first + w.id.as_u64());
                }
                let responses = exec.lock().submit_batch(now, &batch);
                assert!(responses.iter().all(Response::is_ok));
            }
        }));
    }
    for handle in handles {
        handle.join().expect("client threads finish cleanly");
    }

    let exec = Arc::try_unwrap(exec)
        .unwrap_or_else(|_| panic!("all clients joined"))
        .into_inner();
    let total = clients * batches_per_client * batch_len as u64;
    let owner = exec.shard_of(JobId::new(JOB)).expect("registered job");
    let tracker = exec.tracker();
    assert_eq!(tracker.len(), total as usize);
    assert_eq!(tracker.in_flight(), 0);
    for id in 1..=total {
        let entry = tracker.entry(RequestId::new(id)).expect("tracked");
        assert!(entry.done);
        assert_eq!(entry.functions, vec![FunctionId::from_raw(owner as u64)]);
    }
}
