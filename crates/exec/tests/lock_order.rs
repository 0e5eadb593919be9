//! Lock-order detector wired into the serving plane
//! (`cargo test -p flstore-exec --features lock-order`).
//!
//! Two directions:
//!
//! * the legal locking shape the executor actually uses — a client mutex
//!   held around `submit_batch` while worker threads take the steal-plane
//!   queues and each tenant's tracker lock — runs clean under the
//!   detector;
//! * a deliberately seeded inversion across two real OS threads is caught:
//!   the second thread panics with both witness stacks *instead of
//!   deadlocking*.
#![cfg(feature = "lock-order")]

use std::sync::{Arc, Barrier};

use parking_lot::{order, Mutex};

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

const SHARDS: usize = 4;

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
    for job in 1..=4u32 {
        let cfg = FlJobConfig {
            rounds: 2,
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

/// A real batch over a four-worker plane: client mutex → worker threads
/// → steal-plane queues and tenant tracker locks, the full nesting
/// `submit_batch` exercises, must record no ordering inversion.
#[test]
fn client_mutex_batch_shape_is_order_clean() {
    let (front, round) = loaded_front();
    let exec = ShardedExecutor::from_tenants(front, SHARDS);
    let guarded = Mutex::named(exec, "exec.lock_order.client");
    let batch: Vec<Request> = (0..64u64)
        .map(|i| {
            Request::Serve(WorkloadRequest::new(
                RequestId::new(i + 1),
                WorkloadKind::SchedulingCluster,
                JobId::new((i % 4 + 1) as u32),
                round,
                None,
            ))
        })
        .collect();
    let responses = guarded
        .lock()
        .submit_batch(SimTime::from_secs(3600), &batch);
    assert!(responses.iter().all(Response::is_ok));
    let units = guarded.into_inner().into_units();
    assert!(units.iter().all(|unit| unit.tracker().in_flight() == 0));
    assert_eq!(order::held_depth(), 0);
}

/// Seeds a genuine ABBA inversion across two OS threads. Without the
/// detector this interleaving (both threads hold their first lock before
/// either takes its second) deadlocks; with it, whichever thread loses the
/// race to record its ordering edge panics — with both witness stacks —
/// before blocking, and the other thread completes.
#[test]
fn seeded_abba_inversion_panics_instead_of_deadlocking() {
    // The detector panics in whichever thread closes the cycle; keep the
    // default hook from spamming a backtrace for that expected panic.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        let msg = info.payload().downcast_ref::<String>();
        if !msg.is_some_and(|m| m.contains("lock-order inversion")) {
            eprintln!("{info}");
        }
    }));

    let a = Arc::new(Mutex::named(0u64, "seeded.a"));
    let b = Arc::new(Mutex::named(0u64, "seeded.b"));
    let both_hold_first = Arc::new(Barrier::new(2));

    let spawn_chain = |first: Arc<Mutex<u64>>, second: Arc<Mutex<u64>>, gate: Arc<Barrier>| {
        std::thread::Builder::new()
            .name("seeded-inversion".into())
            .spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _g1 = first.lock();
                    gate.wait();
                    let _g2 = second.lock();
                }));
                assert_eq!(order::held_depth(), 0, "unwind released every hold");
                result.err().map(|e| {
                    e.downcast::<String>()
                        .map(|s| *s)
                        .unwrap_or_else(|_| String::from("<non-string payload>"))
                })
            })
            .expect("spawn")
    };

    let t_ab = spawn_chain(Arc::clone(&a), Arc::clone(&b), Arc::clone(&both_hold_first));
    let t_ba = spawn_chain(Arc::clone(&b), Arc::clone(&a), both_hold_first);
    let outcomes = [
        t_ab.join().expect("thread survives via catch_unwind"),
        t_ba.join().expect("thread survives via catch_unwind"),
    ];
    std::panic::set_hook(default_hook);

    let caught: Vec<&String> = outcomes.iter().flatten().collect();
    assert_eq!(
        caught.len(),
        1,
        "exactly one thread closes the cycle and is stopped: {outcomes:?}"
    );
    let msg = caught[0];
    assert!(msg.contains("lock-order inversion"), "{msg}");
    // Both witness stacks are in the panic: the panicking thread's own
    // held set and the stored witness of the opposite-order chain.
    assert!(msg.contains("while holding [seeded."), "{msg}");
    assert!(msg.contains("while holding [seeded."), "{msg}");
    assert!(
        msg.contains("edge `seeded.a` -> `seeded.b`")
            || msg.contains("edge `seeded.b` -> `seeded.a`"),
        "{msg}"
    );
}
