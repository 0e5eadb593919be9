//! # flstore-cluster — the replication & failover plane
//!
//! Lifts replica placement out of a single [`FlStore`] into a cluster of
//! N simulated store nodes: jobs route to placement slots with the
//! splitmix64 mixer, each slot owns
//! a replica set of consecutive nodes, and deterministic failure
//! injection (node kill, slow node, partition — seeded, virtual-clock
//! driven) exercises automatic failover and ledger-based node recovery.
//! `docs/CLUSTER.md` is the normative spec.
//!
//! * [`slots`] — the pure-function slot router: `JobId → slot → replica
//!   set`.
//! * [`failure`] — seeded failure plans: data, not threads, so churn is
//!   bit-reproducible.
//! * [`cluster`] — [`ClusterStore`]: the [`Service`] implementation that
//!   state-machine-replicates every envelope across a job's reachable
//!   replicas, promotes survivors on node loss, re-replicates through
//!   the shared [`PlacementMap`] repair path, and recovers killed nodes
//!   from their own per-node ledgers.
//!
//! The equivalence line this crate holds (enforced by
//! `crates/core/tests/api_batch.rs`): a 1-node, replication-factor-1
//! `ClusterStore` answers **bit-for-bit** like a bare [`FlStore`] —
//! responses, ledger, costs, and cache fingerprint.
//!
//! [`FlStore`]: flstore_core::store::FlStore
//! [`Service`]: flstore_core::api::Service
//! [`PlacementMap`]: flstore_core::placement::PlacementMap
//!
//! ## Quickstart
//!
//! ```
//! use flstore_cluster::cluster::{ClusterConfig, ClusterStore};
//! use flstore_cluster::failure::{FailureKind, FailurePlan};
//! use flstore_core::api::{Request, Service};
//! use flstore_core::store::FlStoreConfig;
//! use flstore_fl::job::{FlJobConfig, FlJobSim};
//! use flstore_sim::time::{SimDuration, SimTime};
//! use std::sync::Arc;
//!
//! let job_cfg = FlJobConfig::quick_test(flstore_fl::ids::JobId::new(1));
//! let mut cluster = ClusterStore::new(ClusterConfig::sim_default(
//!     3,
//!     2,
//!     FlStoreConfig::for_model(&job_cfg.model),
//! ));
//! cluster.register_job(job_cfg.job, job_cfg.model).unwrap();
//!
//! // Kill the job's primary mid-run; once the detection interval
//! // elapses, the surviving replica is promoted and keeps answering.
//! cluster.inject_plan(&FailurePlan::none().with(
//!     SimTime::from_secs(90),
//!     1,
//!     FailureKind::Kill,
//! ));
//! let mut now = SimTime::ZERO;
//! for record in FlJobSim::new(job_cfg.clone()) {
//!     let response = cluster.submit(
//!         now,
//!         Request::Ingest { job: job_cfg.job, record: Arc::new(record) },
//!     );
//!     assert!(response.is_ok());
//!     now += SimDuration::from_secs(60);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod failure;
pub mod slots;

pub use cluster::{ClusterConfig, ClusterStats, ClusterStore, NodeHealth};
pub use failure::{FailureEvent, FailureKind, FailurePlan, FAILURE_EVENTS};
pub use slots::{replica_set, slot_of_job, DEFAULT_SLOTS};

// Thread-ownership audit: a whole cluster moves onto serving threads by
// ownership transfer (the net front door's engine thread owns it), so
// everything inside must be `Send` — this is a compile error here rather
// than deep inside the server.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<cluster::ClusterStore>();
    assert_send::<failure::FailurePlan>();
};
