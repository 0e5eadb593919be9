//! Every way a replica comes back lands on the same bytes. A replica is
//! brought up at an arbitrary cut of a seeded envelope mix by one of
//! three paths: kill then rejoin (from its own ledger, from history
//! alone when memory-only, or from history when its ledger is
//! unreadable), partition then heal, or kill then detect then repair
//! onto a spare (after which the killed node rejoins and drops the job,
//! since repair already restored the factor). Afterwards the replica's
//! state digest, ledger and cache fingerprint equal those of a replica
//! that never left, and every response equals a bare reference's.

use proptest::prelude::*;

use flstore_cluster::cluster::{ClusterConfig, ClusterStore};
use flstore_cluster::failure::{FailureKind, FailurePlan};
use flstore_core::api::{Request, Service};
use flstore_core::durable::DurabilityConfig;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_core::tenancy::MultiTenantStore;
use flstore_durability::recover::MANIFEST;
use flstore_durability::testkit::DetTempDir;
use flstore_fl::ids::JobId;
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_fl::metadata::MetaKey;
use flstore_sim::rng::DetRng;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::{PolicyClass, WorkloadKind};

use std::sync::Arc;

/// Job 1 hashes to slot 1: its replica set is `[1, 0]` on 2 nodes and
/// `[1, 2]` on 3 (node 0 the spare), so node 1 is always the home
/// primary that leaves.
const JOB: JobId = JobId::new(1);
const LEAVER: usize = 1;

#[derive(Debug, Clone, Copy)]
enum Way {
    /// Kill, serve through the twin past detection, rejoin. 2 nodes, so
    /// no spare takes the job meanwhile.
    Rejoin {
        /// Delete the node's MANIFEST before it rejoins (durable only).
        unreadable: bool,
    },
    /// Partition, serve through the twin past detection, heal.
    Heal,
    /// Kill, detect (repair onto spare node 0), serve, then rejoin the
    /// killed node, which must drop the job.
    Repair,
}

fn job_config() -> FlJobConfig {
    FlJobConfig {
        rounds: 6,
        ..FlJobConfig::quick_test(JOB)
    }
}

fn template(durable: bool) -> FlStoreConfig {
    FlStoreConfig {
        durability: if durable {
            DurabilityConfig {
                flush_every: 1,
                snapshot_every: 8,
                ..DurabilityConfig::DISABLED
            }
        } else {
            DurabilityConfig::DISABLED
        },
        ..FlStoreConfig::for_model(&job_config().model)
    }
}

/// Ingests every round but the last through the [`Service`] front.
fn load(service: &mut dyn Service, records: &[RoundRecord]) {
    let mut now = SimTime::ZERO;
    for record in &records[..records.len() - 1] {
        let response = service.submit(
            now,
            Request::Ingest {
                job: JOB,
                record: Arc::new(record.clone()),
            },
        );
        assert!(response.is_ok(), "loading ingest rejected: {response:?}");
        now += SimDuration::from_secs(60);
    }
}

/// Serves of every kind, evictions, stats probes and the held-back
/// round's ingest, drawn from `seed`.
fn mix(seed: u64, len: usize, records: &[RoundRecord]) -> Vec<Request> {
    let mut rng = DetRng::stream(seed, "cluster-bring-up-mix");
    let observed = &records[..records.len() - 1];
    (0..len)
        .map(|i| {
            let record = &observed[rng.index(observed.len())];
            match rng.index(10) {
                0 => Request::Ingest {
                    job: JOB,
                    record: Arc::new(records.last().expect("records").clone()),
                },
                1 => Request::Evict(MetaKey::aggregate(JOB, record.round)),
                2 => Request::Stats,
                _ => {
                    let kind = WorkloadKind::ALL[rng.index(WorkloadKind::ALL.len())];
                    let client = (kind.policy_class() == PolicyClass::P3AcrossRounds)
                        .then(|| record.updates[rng.index(record.updates.len())].client);
                    Request::Serve(WorkloadRequest::new(
                        RequestId::new(i as u64 + 1),
                        kind,
                        JOB,
                        record.round,
                        client,
                    ))
                }
            }
        })
        .collect()
}

fn cache_fingerprint(store: &FlStore) -> Vec<String> {
    let engine = store.engine();
    let mut keys: Vec<String> = engine
        .keys()
        .map(|k| {
            let m = engine.meta(k).expect("tracked keys carry meta");
            format!(
                "{k} seq={} freq={} locs={:?}",
                m.last_access_seq,
                m.frequency,
                engine.locations(k)
            )
        })
        .collect();
    keys.sort();
    keys
}

fn assert_twins(cluster: &ClusterStore, node: usize, twin: usize) {
    let ours = cluster.node_store(node, JOB).expect("brought-up replica");
    let theirs = cluster.node_store(twin, JOB).expect("standing twin");
    assert_eq!(ours.durability_digest(), theirs.durability_digest());
    assert_eq!(ours.ledger(), theirs.ledger(), "ledgers differ");
    assert_eq!(cache_fingerprint(ours), cache_fingerprint(theirs));
}

fn assert_brought_up_replica_is_a_twin(way: Way, durable: bool, seed: u64, len: usize, cut: usize) {
    let records: Vec<RoundRecord> = FlJobSim::new(job_config()).collect();
    let envelopes = mix(seed, len, &records);
    let cut = cut % (envelopes.len() + 1);

    let mut front = MultiTenantStore::new(template(false));
    assert!(front.register_job(JOB, job_config().model));
    let mut reference = front.into_tenants().pop().expect("one tenant").1;
    load(&mut reference, &records);

    let nodes = if matches!(way, Way::Rejoin { .. }) {
        2
    } else {
        3
    };
    let dir = DetTempDir::new("cluster-bring-up", seed ^ ((cut as u64) << 40));
    let mut cfg = ClusterConfig::sim_default(nodes, 2, template(durable));
    cfg.durable_root = durable.then(|| dir.path().to_path_buf());
    let mut cluster = ClusterStore::new(cfg);
    assert!(cluster
        .register_job(JOB, job_config().model)
        .expect("attach"));
    load(&mut cluster, &records);
    let twin = if nodes == 2 { 0 } else { 2 };

    // Before the cut, at t0; the failure lands at t0 too.
    let t0 = SimTime::from_secs(7200);
    let detected = t0 + cluster.config().detection_interval;
    let back = detected + SimDuration::from_secs(1);
    let mut submit = |cluster: &mut ClusterStore, now: SimTime, request: &Request| {
        let expected = reference.submit(now, request.clone());
        assert_eq!(
            cluster.submit(now, request.clone()),
            expected,
            "{request:?}"
        );
    };
    for request in &envelopes[..cut] {
        submit(&mut cluster, t0, request);
    }
    let plan = match way {
        Way::Rejoin { .. } | Way::Repair => FailurePlan::none().kill_and_rejoin(LEAVER, t0, back),
        Way::Heal => {
            FailurePlan::none().with(t0, LEAVER, FailureKind::Partition { lasting: back - t0 })
        }
    };
    cluster.inject_plan(&plan);
    // After the cut, past detection: the twin (or the repaired spare)
    // answers while the leaver is away.
    for request in &envelopes[cut..] {
        submit(&mut cluster, detected, request);
    }
    if let (Way::Rejoin { unreadable: true }, true) = (way, durable) {
        let ledger = dir
            .path()
            .join(format!("node-{LEAVER}/job-{}", JOB.as_u32()));
        std::fs::remove_file(ledger.join(MANIFEST)).expect("durable node wrote a manifest");
    }
    // A read-only probe drains the rejoin or heal.
    submit(&mut cluster, back, &Request::Stats);

    let mismatches = u64::from(durable && matches!(way, Way::Rejoin { unreadable: true }));
    assert_eq!(cluster.stats().rejoin_digest_mismatches, mismatches);
    let brought_up = match way {
        Way::Rejoin { .. } => {
            assert_eq!(cluster.route(JOB), &[0, 1], "membership restored");
            LEAVER
        }
        Way::Heal => {
            assert_eq!(cluster.route(JOB), &[1, 2], "membership unchanged");
            LEAVER
        }
        Way::Repair => {
            assert_eq!(cluster.route(JOB), &[2, 0], "repaired onto the spare");
            assert!(
                cluster.node_store(LEAVER, JOB).is_none(),
                "the rejoined node does not shadow-host the repaired job"
            );
            0
        }
    };
    assert_twins(&cluster, brought_up, twin);
    let replica = cluster.node_store(brought_up, JOB).expect("hosted");
    assert_eq!(replica.ledger(), reference.ledger(), "ledger vs reference");
    assert_eq!(cache_fingerprint(replica), cache_fingerprint(&reference));
}

const WAYS: [Way; 4] = [
    Way::Rejoin { unreadable: false },
    Way::Rejoin { unreadable: true },
    Way::Heal,
    Way::Repair,
];

proptest! {
    #[test]
    fn a_replica_brought_up_at_any_cut_is_a_twin(
        way in 0usize..WAYS.len(),
        durable in 0u8..2,
        seed in 0u64..1_000_000,
        len in 1usize..12,
        cut in 0usize..12,
    ) {
        assert_brought_up_replica_is_a_twin(WAYS[way], durable == 1, seed, len, cut);
    }
}
