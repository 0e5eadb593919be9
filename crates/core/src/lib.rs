//! # flstore-core — FLStore: serverless storage + compute for FL non-training workloads
//!
//! The paper's primary contribution: a caching framework that unifies the
//! data and compute planes on serverless functions, with caching policies
//! tailored to the iterative access patterns of federated learning.
//!
//! * [`api`] — the `flstore_api` front door: typed [`Request`]/[`Response`]
//!   envelopes, admission, and the batched [`Service`] trait every serving
//!   architecture implements.
//! * [`engine`] — the Cache Engine: `(client, round) → function` placement
//!   index with replication and async-prefetch availability.
//! * [`tracker`] — the Request Tracker: `request → ([functions], status)`.
//! * [`policy`] — tailored (P1–P4), reactive (LRU/FIFO/LFU/Random), and
//!   static-ablation caching policies.
//! * [`store`] — [`FlStore`]: ingest rounds, serve requests
//!   with locality-aware execution, replicate, fail over, re-fetch.
//! * [`placement`] — the [`PlacementMap`]
//!   boundary: one replica-repair implementation shared by the
//!   single-store path (function loss) and the `flstore-cluster` path
//!   (node loss).
//! * [`tenancy`] — [`MultiTenantStore`]: isolated
//!   per-job caches on one deployment (paper Appendix A).
//! * [`quota`] — per-tenant memory budgets and the deterministic
//!   cross-tenant pressure plane (Appendix A resource governance).
//! * [`durable`] — the durability seam: the write-ahead [`RecordSink`] and
//!   cold-tier [`SpillBackend`] traits the `flstore-durability` crate
//!   implements against real disks.
//! * [`metrics`] — per-request outcomes and experiment ledgers (shared
//!   with the baselines via `flstore-workloads`).
//! * [`error`] — error types.
//!
//! ## Quickstart
//!
//! ```
//! use flstore_core::policy::TailoredPolicy;
//! use flstore_core::store::{FlStore, FlStoreConfig};
//! use flstore_fl::ids::JobId;
//! use flstore_fl::job::{FlJobConfig, FlJobSim};
//! use flstore_sim::time::{SimDuration, SimTime};
//! use flstore_workloads::request::{RequestId, WorkloadRequest};
//! use flstore_workloads::taxonomy::WorkloadKind;
//!
//! // Train a small job, ingesting each round into FLStore.
//! let cfg = FlJobConfig::quick_test(JobId::new(1));
//! let mut store = FlStore::new(
//!     FlStoreConfig::for_model(&cfg.model),
//!     Box::new(TailoredPolicy::new()),
//!     cfg.job,
//!     cfg.model,
//! );
//! let mut now = SimTime::ZERO;
//! let mut last_round = None;
//! for record in FlJobSim::new(cfg.clone()) {
//!     store.ingest_round(now, &record);
//!     last_round = Some(record.round);
//!     now += SimDuration::from_secs(60);
//! }
//! // Serve a malicious-filtering request for the latest round — a hit.
//! let request = WorkloadRequest::new(
//!     RequestId::new(1),
//!     WorkloadKind::MaliciousFiltering,
//!     cfg.job,
//!     last_round.unwrap(),
//!     None,
//! );
//! let served = store.serve(now, &request).expect("servable");
//! assert_eq!(served.measured.cache_misses, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod durable;
pub mod engine;
pub mod error;
pub mod placement;
pub mod policy;
pub mod quota;
pub mod store;
pub mod tenancy;
pub mod tracker;

/// Per-request outcomes and experiment ledgers (re-exported from
/// `flstore-workloads::service`).
pub mod metrics {
    pub use flstore_workloads::service::{RequestOutcome, ServiceLedger};
}

pub use api::{ApiError, Request, Response, Service, StatsReport};
pub use durable::{DurabilityConfig, LedgerEvent, RecordSink, SpillBackend, StateDigest};
pub use engine::CacheEngine;
pub use error::FlStoreError;
pub use flstore_workloads::service::{RequestOutcome, ServiceLedger};
pub use placement::{repair_after_loss, PlacementMap, RepairReport};
pub use policy::{
    CachingPolicy, EvictionDiscipline, PolicyActions, ReactivePolicy, StaticPolicy, TailoredPolicy,
};
pub use quota::{QuotaPolicy, QuotaUsage, TenantQuota};
pub use store::{FlStore, FlStoreConfig, IngestReceipt, ServedRequest};
pub use tenancy::MultiTenantStore;
pub use tracker::RequestTracker;

// Thread-ownership audit: serving state crosses thread boundaries by
// ownership transfer (whole deployments move with the executor that
// holds them, e.g. onto the network engine thread), the
// tracker is internally synchronized (`RwLock`), and envelopes travel
// over channels. These bounds are what the sharded execution plane relies
// on; breaking any of them (an `Rc`, a `RefCell`, a non-`Send` policy) is
// a compile error here rather than deep inside an executor.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<store::FlStore>();
    assert_send::<tenancy::MultiTenantStore>();
    assert_send::<Box<dyn policy::CachingPolicy>>();
    assert_send_sync::<tracker::RequestTracker>();
    assert_send_sync::<api::Request>();
    assert_send_sync::<api::Response>();
};
