//! `flstore_api` — the unified request/response front door.
//!
//! Every serving architecture in this workspace — [`FlStore`], the
//! aggregator baselines, and the multi-tenant front end — sits behind one
//! typed surface: requests arrive as [`Request`] envelopes, responses
//! leave as [`Response`] envelopes, and failures are first-class
//! [`ApiError`] values instead of `Option`-erased `None`s. The surface is
//! batched from the start ([`Service::submit_batch`]), the way
//! request-plane batching amortizes fixed per-request work in serving
//! systems, so executors can exploit shared work across a batch without
//! changing any caller.
//!
//! Admission runs before execution: an envelope routed to a system that
//! does not own its [`JobId`] is rejected with [`ApiError::UnknownJob`]
//! and has *no side effects* — multi-tenant routing and single-tenant
//! serving share one front door and one rejection semantics.
//!
//! # Examples
//!
//! ```
//! use flstore_core::api::{Request, Response, Service};
//! use flstore_core::policy::TailoredPolicy;
//! use flstore_core::store::{FlStore, FlStoreConfig};
//! use flstore_fl::ids::JobId;
//! use flstore_fl::job::{FlJobConfig, FlJobSim};
//! use flstore_sim::time::SimTime;
//!
//! let cfg = FlJobConfig::quick_test(JobId::new(1));
//! let mut store = FlStore::new(
//!     FlStoreConfig::for_model(&cfg.model),
//!     Box::new(TailoredPolicy::new()),
//!     cfg.job,
//!     cfg.model,
//! );
//! let record = FlJobSim::new(cfg.clone()).next().expect("rounds");
//! let response = store.submit(
//!     SimTime::ZERO,
//!     Request::Ingest { job: cfg.job, record: std::sync::Arc::new(record) },
//! );
//! assert!(matches!(response, Response::Ingested(r) if r.cached > 0));
//! // A foreign job is rejected at admission, with no side effects.
//! let foreign = flstore_fl::metadata::MetaKey::aggregate(
//!     JobId::new(99),
//!     flstore_fl::ids::Round::ZERO,
//! );
//! let rejected = store.submit(SimTime::ZERO, Request::Evict(foreign));
//! assert!(!rejected.is_ok());
//! // The same door answers telemetry.
//! let response = store.submit(SimTime::ZERO, Request::Stats);
//! assert!(matches!(response, Response::Stats(_)));
//! ```

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use flstore_cloud::blob::StoreError;
use flstore_fl::ids::JobId;
use flstore_fl::job::RoundRecord;
use flstore_fl::metadata::MetaKey;
use flstore_serverless::platform::PlatformError;
use flstore_sim::bytes::ByteSize;
use flstore_sim::cost::{Cost, CostBreakdown};
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::run::WorkloadError;
use flstore_workloads::service::ServiceLedger;

use crate::error::FlStoreError;
use crate::quota::{QuotaPolicy, QuotaUsage};
use crate::store::{FlStore, PendingServe, ServedRequest};
use crate::tenancy::MultiTenantStore;

/// One typed request envelope submitted to a serving system.
#[derive(Debug, Clone)]
pub enum Request {
    /// Ingest one training round's metadata for `job`. The record is
    /// shared (`Arc`), so building and cloning envelopes never deep-copies
    /// the round's per-client update blobs.
    Ingest {
        /// The producing job (the tenant the record routes to).
        job: JobId,
        /// The completed round.
        record: Arc<RoundRecord>,
    },
    /// Serve one non-training workload request (routes by its `job`).
    Serve(WorkloadRequest),
    /// Evict one object from every cache layer; the persistent copy
    /// remains the fallback (routes by the key's `job`).
    Evict(MetaKey),
    /// Report serving statistics.
    Stats,
}

impl Request {
    /// The job this envelope routes to; `None` for system-wide envelopes
    /// ([`Request::Stats`]).
    pub fn job(&self) -> Option<JobId> {
        match self {
            Request::Ingest { job, .. } => Some(*job),
            Request::Serve(request) => Some(request.job),
            Request::Evict(key) => Some(key.job),
            Request::Stats => None,
        }
    }
}

/// The typed response to one [`Request`] envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The round was ingested.
    Ingested(crate::store::IngestReceipt),
    /// The workload was served (boxed: served requests carry the full
    /// outcome and measurement, much larger than the other variants).
    Served(Box<ServedRequest>),
    /// The eviction was processed; `was_cached` reports whether the key
    /// was actually held in cache.
    Evicted {
        /// Whether the key was cached before the eviction.
        was_cached: bool,
    },
    /// Serving statistics at submission time.
    Stats(StatsReport),
    /// The envelope was rejected — at admission or during execution.
    Rejected(ApiError),
}

impl Response {
    /// The served request, if this response carries one.
    pub fn served(&self) -> Option<&ServedRequest> {
        match self {
            Response::Served(served) => Some(served),
            _ => None,
        }
    }

    /// The rejection, if this response carries one.
    pub fn error(&self) -> Option<&ApiError> {
        match self {
            Response::Rejected(e) => Some(e),
            _ => None,
        }
    }

    /// True when the envelope was processed (not rejected).
    pub fn is_ok(&self) -> bool {
        !matches!(self, Response::Rejected(_))
    }
}

/// A typed front-door failure. Nothing is erased: admission rejections,
/// missing data, store/platform/workload failures each keep their cause.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiError {
    /// The envelope routed to a job this system does not own (admission
    /// rejection; the envelope had no side effects).
    UnknownJob {
        /// The job the envelope named.
        job: JobId,
    },
    /// A strict per-tenant quota refused part of the envelope's working
    /// set. For an `Ingest`, durability is preserved (the round is backed
    /// up to the persistent store) but `denied` policy-hot objects were
    /// not admitted to the cache — the envelope reports the shortfall
    /// honestly instead of claiming a full ingest.
    QuotaExceeded {
        /// The over-budget tenant.
        job: JobId,
        /// The tenant's configured budget.
        budget: ByteSize,
        /// Objects refused admission by the quota gate.
        denied: usize,
    },
    /// No ingested round satisfies the request.
    NoData {
        /// The offending request.
        request: RequestId,
    },
    /// Persistent-store failure (missing backup object).
    Store(StoreError),
    /// The workload rejected its inputs.
    Workload(WorkloadError),
    /// Serverless platform failure.
    Platform(PlatformError),
    /// The serving plane is saturated and refused the envelope *before*
    /// admission: nothing was executed, and retrying after the hint is
    /// safe. This is how backpressure surfaces at the network front door
    /// (`flstore-net`) — a typed envelope instead of a dropped frame or a
    /// connection reset.
    ///
    /// ```
    /// use flstore_core::api::ApiError;
    /// use flstore_sim::time::SimDuration;
    ///
    /// let err = ApiError::Overloaded { retry_after_hint: SimDuration::from_millis(5) };
    /// assert_eq!(err.to_string(), "overloaded: retry after 5000us");
    /// ```
    Overloaded {
        /// How long the client should wait before retrying. A hint, not a
        /// contract: servers pick a fixed configured value so rejection
        /// envelopes stay byte-deterministic under load.
        retry_after_hint: SimDuration,
    },
    /// The replica currently fronting this job is unreachable (killed or
    /// partitioned) and the cluster has not finished failing over yet.
    /// Nothing was executed; the envelope is safe to retry, and by the
    /// hinted time the failover window has usually promoted a surviving
    /// replica. This is the cluster plane's typed redirect — a client that
    /// retries within its budget survives a node loss without a dropped
    /// frame or a connection reset.
    ///
    /// ```
    /// use flstore_core::api::ApiError;
    /// use flstore_fl::ids::JobId;
    /// use flstore_sim::time::SimDuration;
    ///
    /// let err = ApiError::Relocated {
    ///     job: JobId::new(7),
    ///     retry_after_hint: SimDuration::from_millis(5),
    /// };
    /// assert_eq!(err.to_string(), "relocated: job-7 is failing over; retry after 5000us");
    /// ```
    Relocated {
        /// The job whose replica set is mid-failover.
        job: JobId,
        /// How long the client should wait before retrying. Like
        /// [`ApiError::Overloaded`], a fixed configured value so redirect
        /// envelopes stay byte-deterministic under churn.
        retry_after_hint: SimDuration,
    },
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::UnknownJob { job } => {
                write!(f, "no tenant serves {job}")
            }
            ApiError::QuotaExceeded {
                job,
                budget,
                denied,
            } => {
                write!(
                    f,
                    "{job} over its {budget} strict quota: {denied} object(s) refused admission"
                )
            }
            ApiError::NoData { request } => {
                write!(f, "no ingested data satisfies {request}")
            }
            ApiError::Store(e) => write!(f, "persistent store: {e}"),
            ApiError::Workload(e) => write!(f, "workload: {e}"),
            ApiError::Platform(e) => write!(f, "platform: {e}"),
            ApiError::Overloaded { retry_after_hint } => {
                write!(
                    f,
                    "overloaded: retry after {}us",
                    retry_after_hint.as_micros()
                )
            }
            ApiError::Relocated {
                job,
                retry_after_hint,
            } => {
                write!(
                    f,
                    "relocated: {job} is failing over; retry after {}us",
                    retry_after_hint.as_micros()
                )
            }
        }
    }
}

impl Error for ApiError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ApiError::UnknownJob { .. }
            | ApiError::QuotaExceeded { .. }
            | ApiError::NoData { .. }
            | ApiError::Overloaded { .. }
            | ApiError::Relocated { .. } => None,
            ApiError::Store(e) => Some(e),
            ApiError::Workload(e) => Some(e),
            ApiError::Platform(e) => Some(e),
        }
    }
}

impl From<FlStoreError> for ApiError {
    fn from(e: FlStoreError) -> Self {
        match e {
            FlStoreError::NoData { request } => ApiError::NoData { request },
            FlStoreError::Store(e) => ApiError::Store(e),
            FlStoreError::Workload(e) => ApiError::Workload(e),
            FlStoreError::Platform(e) => ApiError::Platform(e),
        }
    }
}

/// A point-in-time serving summary (the [`Request::Stats`] response).
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Architecture label.
    pub label: String,
    /// Tenants behind this front door (1 for single-tenant systems).
    pub tenants: usize,
    /// Requests served so far.
    pub served: usize,
    /// Total needed objects found in cache.
    pub cache_hits: u64,
    /// Total needed objects fetched from the persistent store.
    pub cache_misses: u64,
    /// Overall hit rate in `[0, 1]` (1.0 when nothing was needed).
    pub hit_rate: f64,
    /// Replica reclamations observed (0 for systems without a serverless
    /// cache).
    pub faults: u64,
    /// Objects currently resident in the disk-spill cold tier (0 without
    /// a durability plane).
    pub spilled_objects: u64,
    /// Logical bytes currently resident in the cold tier.
    pub spilled_bytes: ByteSize,
    /// Spilled objects faulted back from disk on the serve path so far.
    pub spill_faults: u64,
    /// Per-tenant quota occupancy, in job order (empty for systems that do
    /// not account residency, e.g. the aggregator baselines). Reported
    /// *after* any cross-tenant pressure pass the stats probe triggered.
    pub quota: Vec<QuotaUsage>,
}

impl StatsReport {
    /// Builds a single-tenant report from a serving ledger (no quota
    /// occupancy rows; callers that account residency attach their own).
    /// O(1): the ledger keeps running totals.
    pub fn from_ledger(label: String, ledger: &ServiceLedger, faults: u64) -> Self {
        StatsReport {
            label,
            tenants: 1,
            served: ledger.len(),
            cache_hits: ledger.hits(),
            cache_misses: ledger.misses(),
            hit_rate: ledger.hit_rate(),
            faults,
            spilled_objects: 0,
            spilled_bytes: ByteSize::ZERO,
            spill_faults: 0,
            quota: Vec::new(),
        }
    }

    /// Folds per-tenant reports into one system-wide report: counters
    /// summed, quota rows concatenated in the order given, the hit rate
    /// recomputed from the summed counters (1.0 when nothing was needed).
    pub fn fold(
        label: String,
        tenants: usize,
        parts: impl IntoIterator<Item = StatsReport>,
    ) -> Self {
        let mut report = StatsReport {
            label,
            tenants,
            served: 0,
            cache_hits: 0,
            cache_misses: 0,
            hit_rate: 1.0,
            faults: 0,
            spilled_objects: 0,
            spilled_bytes: ByteSize::ZERO,
            spill_faults: 0,
            quota: Vec::new(),
        };
        for part in parts {
            report.served += part.served;
            report.cache_hits += part.cache_hits;
            report.cache_misses += part.cache_misses;
            report.faults += part.faults;
            report.spilled_objects += part.spilled_objects;
            report.spilled_bytes += part.spilled_bytes;
            report.spill_faults += part.spill_faults;
            report.quota.extend(part.quota);
        }
        let touched = report.cache_hits + report.cache_misses;
        if touched > 0 {
            report.hit_rate = report.cache_hits as f64 / touched as f64;
        }
        report
    }
}

/// Anything that serves FL non-training traffic behind the typed front
/// door: FLStore, the aggregator baselines, the multi-tenant front end —
/// and every future sharded or concurrent executor.
pub trait Service {
    /// Architecture label for reports.
    fn label(&self) -> String;

    /// Submits one envelope at `now`. Admission failures and execution
    /// failures both surface as [`Response::Rejected`]; rejected
    /// envelopes have no side effects beyond what their partial execution
    /// already committed.
    fn submit(&mut self, now: SimTime, request: Request) -> Response;

    /// Submits a batch of envelopes that share one arrival instant,
    /// returning one response per envelope in order. Executors override
    /// this to amortize fixed per-request work across the batch; the
    /// default processes envelopes sequentially, and every implementation
    /// must keep a batch of one identical to [`Service::submit`].
    fn submit_batch(&mut self, now: SimTime, requests: &[Request]) -> Vec<Response> {
        requests
            .iter()
            .map(|request| self.submit(now, request.clone()))
            .collect()
    }

    /// Total cost over the window ending at `now` (requests + background +
    /// always-on infrastructure + storage).
    fn window_cost(&mut self, now: SimTime) -> CostBreakdown;

    /// Always-on infrastructure cost alone over the window ending at `now`
    /// (used to amortize per-request costs the way the paper does).
    fn infra_cost(&mut self, now: SimTime) -> Cost;
}

fn serve_response(result: Result<ServedRequest, FlStoreError>) -> Response {
    match result {
        Ok(served) => Response::Served(Box::new(served)),
        Err(e) => Response::Rejected(e.into()),
    }
}

/// One envelope's response, possibly with its kernel compute still
/// pending.
///
/// Everything except a successful `Serve` resolves immediately
/// (`Ready`); a successful serve may instead hand back the
/// [`PendingServe`] whose bookkeeping is committed but whose pure kernel
/// any worker can [`finish`](DeferredResponse::finish) — the unit of
/// work the executor's steal plane moves across threads.
#[derive(Debug)]
pub enum DeferredResponse {
    /// Fully resolved.
    Ready(Response),
    /// Bookkeeping done; kernel compute pending.
    Pending(PendingServe),
}

impl DeferredResponse {
    /// Resolves to the final [`Response`], running the kernel if pending.
    pub fn finish(self) -> Response {
        match self {
            DeferredResponse::Ready(response) => response,
            DeferredResponse::Pending(pending) => Response::Served(Box::new(pending.finish())),
        }
    }
}

impl FlStore {
    /// [`Service::submit_batch`] with successful serves left as pending
    /// kernel computes.
    ///
    /// All shared-state effects (ingest, eviction, cache mutation,
    /// tracker, ledger) commit here, on the calling thread, in
    /// submission order; each [`DeferredResponse::Pending`] slot is pure
    /// and `Send`. Finishing every slot in order yields exactly the
    /// `submit_batch` responses — `submit_batch` *is* that composition,
    /// so the two cannot drift.
    pub fn submit_batch_deferred(
        &mut self,
        now: SimTime,
        requests: &[Request],
    ) -> Vec<DeferredResponse> {
        let own = self.catalog().job();
        let mut responses = Vec::with_capacity(requests.len());
        let both_serve =
            |a: &Request, b: &Request| matches!((a, b), (Request::Serve(_), Request::Serve(_)));
        for chunk in requests.chunk_by(both_serve) {
            if !matches!(chunk[0], Request::Serve(_)) {
                responses.push(DeferredResponse::Ready(self.submit(now, chunk[0].clone())));
                continue;
            }
            // Foreign-job serves are rejected inline and do not break the
            // run; an all-foreign run must not log an empty `ServeBatch`.
            let admitted: Vec<WorkloadRequest> = chunk
                .iter()
                .filter_map(|request| match request {
                    Request::Serve(w) if w.job == own => Some(*w),
                    _ => None,
                })
                .collect();
            let mut served = if admitted.is_empty() {
                Vec::new()
            } else {
                self.serve_batch_deferred(now, &admitted)
            }
            .into_iter();
            for request in chunk {
                let job = request.job().expect("serves are job-addressed");
                responses.push(if job == own {
                    match served.next().expect("one result per admitted serve") {
                        Ok(pending) => DeferredResponse::Pending(pending),
                        Err(e) => DeferredResponse::Ready(Response::Rejected(e.into())),
                    }
                } else {
                    DeferredResponse::Ready(Response::Rejected(ApiError::UnknownJob { job }))
                });
            }
        }
        responses
    }
}

impl Service for FlStore {
    fn label(&self) -> String {
        self.policy_name().to_string()
    }

    fn submit(&mut self, now: SimTime, request: Request) -> Response {
        let own = self.catalog().job();
        if let Some(job) = request.job() {
            if job != own {
                return Response::Rejected(ApiError::UnknownJob { job });
            }
        }
        match request {
            Request::Ingest { record, .. } => {
                let receipt = self.ingest_round(now, &record);
                // A strict tenant reports a hot set it could not admit as a
                // typed rejection, not a silently short receipt. Partial
                // execution stands (the round is durably backed up).
                if receipt.quota_denied > 0 {
                    if let Some(quota) = self.quota() {
                        if quota.policy == QuotaPolicy::Strict {
                            return Response::Rejected(ApiError::QuotaExceeded {
                                job: own,
                                budget: quota.bytes,
                                denied: receipt.quota_denied,
                            });
                        }
                    }
                }
                Response::Ingested(receipt)
            }
            Request::Serve(request) => serve_response(self.serve(now, &request)),
            Request::Evict(key) => Response::Evicted {
                was_cached: self.evict(&key),
            },
            Request::Stats => Response::Stats(self.stats_report()),
        }
    }

    /// Runs of consecutive admitted `Serve` envelopes go through
    /// [`FlStore::serve_batch_deferred`], paying the liveness/refresh
    /// pass once per run; other envelopes (and admission rejections,
    /// which have no side effects) are processed in submission order.
    /// Deferred kernels are finished inline, in order — the parallel
    /// executor calls [`FlStore::submit_batch_deferred`] itself and
    /// spreads the finishes across workers instead.
    fn submit_batch(&mut self, now: SimTime, requests: &[Request]) -> Vec<Response> {
        self.submit_batch_deferred(now, requests)
            .into_iter()
            .map(DeferredResponse::finish)
            .collect()
    }

    fn window_cost(&mut self, now: SimTime) -> CostBreakdown {
        self.total_cost(now)
    }

    fn infra_cost(&mut self, now: SimTime) -> Cost {
        // FLStore has no dedicated always-on servers; its standing cost is
        // the keep-alive pings.
        let _ = now;
        self.platform().billing().keepalive_cost
    }
}

impl MultiTenantStore {
    /// [`Service::submit_batch`] with successful serves left as pending
    /// kernel computes — the tenant front's half of
    /// [`FlStore::submit_batch_deferred`].
    ///
    /// Each maximal run of envelopes bound for the *same tenant* goes
    /// whole to that tenant's `submit_batch_deferred`, which splits it
    /// into serve runs and single envelopes exactly as a bare store
    /// would; a run bound for an unregistered job is rejected without
    /// side effects. System-wide envelopes aggregate over every tenant.
    /// They are also the pressure plane's deterministic trigger point:
    /// when a global budget is set, over-budget elastic tenants shed
    /// their policy victims here, before occupancy is reported.
    pub fn submit_batch_deferred(
        &mut self,
        now: SimTime,
        requests: &[Request],
    ) -> Vec<DeferredResponse> {
        let mut responses = Vec::with_capacity(requests.len());
        for run in requests.chunk_by(|a, b| a.job().is_some() && a.job() == b.job()) {
            match run[0].job() {
                Some(job) => match self.tenant_mut(job) {
                    Some(store) => responses.extend(store.submit_batch_deferred(now, run)),
                    None => responses.extend(run.iter().map(|_| {
                        DeferredResponse::Ready(Response::Rejected(ApiError::UnknownJob { job }))
                    })),
                },
                None => {
                    self.pressure_pass();
                    responses.push(DeferredResponse::Ready(Response::Stats(
                        self.stats_report(),
                    )));
                }
            }
        }
        responses
    }
}

impl Service for MultiTenantStore {
    fn label(&self) -> String {
        format!("FLStore-MT({})", self.tenant_count())
    }

    fn submit(&mut self, now: SimTime, request: Request) -> Response {
        self.submit_batch(now, std::slice::from_ref(&request))
            .pop()
            .expect("one envelope yields one response")
    }

    /// [`MultiTenantStore::submit_batch_deferred`] with every kernel
    /// finished inline, in order — the composition
    /// [`FlStore`]'s `submit_batch` is too.
    fn submit_batch(&mut self, now: SimTime, requests: &[Request]) -> Vec<Response> {
        self.submit_batch_deferred(now, requests)
            .into_iter()
            .map(DeferredResponse::finish)
            .collect()
    }

    fn window_cost(&mut self, now: SimTime) -> CostBreakdown {
        self.total_cost(now)
    }

    fn infra_cost(&mut self, now: SimTime) -> Cost {
        self.tenants_mut()
            .map(|store| Service::infra_cost(store, now))
            .sum()
    }
}

impl FlStore {
    /// This tenant's serving statistics (the [`Request::Stats`] answer).
    pub fn stats_report(&self) -> StatsReport {
        let mut report =
            StatsReport::from_ledger(Service::label(self), self.ledger(), self.faults_observed());
        (report.spilled_objects, report.spilled_bytes) = self.spill_stats();
        report.spill_faults = self.spill_faults();
        report.quota = vec![self.quota_usage()];
        report
    }
}

impl MultiTenantStore {
    /// Aggregated serving statistics across every tenant.
    pub fn stats_report(&self) -> StatsReport {
        StatsReport::fold(
            format!("FLStore-MT({})", self.tenant_count()),
            self.tenant_count(),
            self.tenants().map(FlStore::stats_report),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::TailoredPolicy;
    use crate::store::FlStoreConfig;
    use flstore_fl::job::{FlJobConfig, FlJobSim};
    use flstore_fl::zoo::ModelArch;
    use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
    use flstore_sim::time::SimDuration;
    use flstore_workloads::taxonomy::WorkloadKind;

    fn quiet_config(model: &ModelArch) -> FlStoreConfig {
        FlStoreConfig {
            platform: PlatformConfig {
                reclaim: ReclaimModel::DISABLED,
                ..PlatformConfig::default()
            },
            ..FlStoreConfig::for_model(model)
        }
    }

    fn loaded_store(rounds: u32) -> (FlStore, FlJobConfig, Vec<RoundRecord>) {
        let cfg = FlJobConfig {
            rounds,
            ..FlJobConfig::quick_test(JobId::new(1))
        };
        let mut store = FlStore::new(
            quiet_config(&cfg.model),
            Box::new(TailoredPolicy::new()),
            cfg.job,
            cfg.model,
        );
        let records: Vec<RoundRecord> = FlJobSim::new(cfg.clone()).collect();
        let mut now = SimTime::ZERO;
        for r in &records {
            store.submit(
                now,
                Request::Ingest {
                    job: cfg.job,
                    record: Arc::new(r.clone()),
                },
            );
            now += SimDuration::from_secs(60);
        }
        (store, cfg, records)
    }

    fn p2(id: u64, job: JobId, round: flstore_fl::ids::Round) -> WorkloadRequest {
        WorkloadRequest::new(
            RequestId::new(id),
            WorkloadKind::MaliciousFiltering,
            job,
            round,
            None,
        )
    }

    #[test]
    fn front_door_serves_and_reports_stats() {
        let (mut store, cfg, records) = loaded_store(5);
        let now = SimTime::from_secs(3600);
        let round = records.last().expect("rounds").round;
        let response = store.submit(now, Request::Serve(p2(1, cfg.job, round)));
        let served = response.served().expect("served");
        assert_eq!(served.measured.cache_misses, 0);

        let Response::Stats(stats) = store.submit(now, Request::Stats) else {
            panic!("stats envelope answers with stats");
        };
        assert_eq!(stats.served, 1);
        assert_eq!(stats.tenants, 1);
        assert!(stats.hit_rate > 0.99);
    }

    #[test]
    fn admission_rejects_foreign_jobs_without_side_effects() {
        let (mut store, _, records) = loaded_store(3);
        let now = SimTime::from_secs(3600);
        let round = records.last().expect("rounds").round;
        let foreign = JobId::new(99);
        let response = store.submit(now, Request::Serve(p2(1, foreign, round)));
        assert_eq!(
            response.error(),
            Some(&ApiError::UnknownJob { job: foreign })
        );
        assert!(store.ledger().is_empty(), "rejection must not be ledgered");

        let evict = store.submit(now, Request::Evict(MetaKey::aggregate(foreign, round)));
        assert!(!evict.is_ok());
    }

    #[test]
    fn evict_envelope_reports_cache_state() {
        let (mut store, cfg, records) = loaded_store(3);
        let round = records.last().expect("rounds").round;
        let key = MetaKey::aggregate(cfg.job, round);
        let now = SimTime::from_secs(3600);
        assert_eq!(
            store.submit(now, Request::Evict(key)),
            Response::Evicted { was_cached: true }
        );
        assert_eq!(
            store.submit(now, Request::Evict(key)),
            Response::Evicted { was_cached: false }
        );
    }

    #[test]
    fn batch_of_one_matches_submit() {
        let (mut a, cfg, records) = loaded_store(6);
        let (mut b, _, _) = loaded_store(6);
        let now = SimTime::from_secs(7200);
        let round = records.last().expect("rounds").round;
        let request = Request::Serve(p2(7, cfg.job, round));
        let batched = a.submit_batch(now, std::slice::from_ref(&request));
        let single = b.submit(now, request);
        assert_eq!(batched, vec![single]);
        assert_eq!(a.ledger(), b.ledger());
    }

    #[test]
    fn strict_quota_rejects_ingest_honestly_and_keeps_durability() {
        use crate::quota::TenantQuota;
        use flstore_sim::bytes::ByteSize;

        let cfg = FlJobConfig {
            rounds: 2,
            ..FlJobConfig::quick_test(JobId::new(1))
        };
        // A budget smaller than a single update: nothing hot can ever be
        // admitted.
        let store_cfg = FlStoreConfig {
            quota: Some(TenantQuota::strict(ByteSize::from_mb(1))),
            ..quiet_config(&cfg.model)
        };
        let mut store = FlStore::new(
            store_cfg,
            Box::new(TailoredPolicy::new()),
            cfg.job,
            cfg.model,
        );
        let record = FlJobSim::new(cfg.clone()).next().expect("rounds");
        let response = store.submit(
            SimTime::ZERO,
            Request::Ingest {
                job: cfg.job,
                record: Arc::new(record.clone()),
            },
        );
        let Response::Rejected(ApiError::QuotaExceeded {
            job,
            budget,
            denied,
        }) = response
        else {
            panic!("a starved strict tenant reports QuotaExceeded, got {response:?}");
        };
        assert_eq!(job, cfg.job);
        assert_eq!(budget, ByteSize::from_mb(1));
        assert!(denied > 0);
        // Partial execution is honest: durability happened, residency not.
        assert!(store.resident_bytes() <= budget);
        assert!(store.persistent().contains(
            &flstore_fl::metadata::MetaKey::aggregate(cfg.job, record.round).object_key()
        ));

        // Serving still works — misses fall back to the persistent store.
        let serve = store.submit(
            SimTime::from_secs(3600),
            Request::Serve(p2(1, cfg.job, record.round)),
        );
        let served = serve.served().expect("pass-through serving");
        assert!(served.measured.cache_misses > 0);
        assert!(store.resident_bytes() <= budget, "serving never overshoots");
    }

    #[test]
    fn stats_carry_per_tenant_quota_occupancy() {
        use crate::quota::{QuotaPolicy, TenantQuota};
        use flstore_sim::bytes::ByteSize;

        let mut front = MultiTenantStore::new(quiet_config(&ModelArch::RESNET18));
        let budget = ByteSize::from_gb(4);
        front.register_job_with_quota(
            JobId::new(1),
            ModelArch::RESNET18,
            Some(TenantQuota::elastic(budget)),
        );
        front.register_job(JobId::new(2), ModelArch::RESNET18);
        for job in [JobId::new(1), JobId::new(2)] {
            let cfg = FlJobConfig {
                rounds: 2,
                ..FlJobConfig::quick_test(job)
            };
            for (i, record) in FlJobSim::new(cfg).enumerate() {
                front.submit(
                    SimTime::from_secs(60 * i as u64),
                    Request::Ingest {
                        job,
                        record: Arc::new(record),
                    },
                );
            }
        }
        let Response::Stats(stats) = front.submit(SimTime::from_secs(3600), Request::Stats) else {
            panic!("stats envelope answers with stats");
        };
        assert_eq!(stats.quota.len(), 2, "one occupancy row per tenant");
        assert_eq!(stats.quota[0].job, JobId::new(1));
        assert_eq!(stats.quota[0].quota, Some(TenantQuota::elastic(budget)));
        assert_eq!(
            stats.quota[0].quota.expect("set").policy,
            QuotaPolicy::Elastic
        );
        assert!(
            stats.quota[0].resident > ByteSize::ZERO,
            "rounds are resident"
        );
        assert_eq!(stats.quota[1].job, JobId::new(2));
        assert_eq!(stats.quota[1].quota, None, "tenant 2 is unbounded");
    }

    #[test]
    fn global_pressure_reclaims_from_elastic_tenants_at_stats() {
        use crate::quota::TenantQuota;
        use flstore_sim::bytes::ByteSize;

        let mut front = MultiTenantStore::new(quiet_config(&ModelArch::RESNET18));
        let cfg1 = FlJobConfig {
            rounds: 4,
            ..FlJobConfig::quick_test(JobId::new(1))
        };
        // One elastic tenant with a tiny soft budget; ingest overshoots it
        // freely until the global budget forces the pressure pass.
        let soft = ByteSize::from_mb(50);
        front.register_job_with_quota(cfg1.job, cfg1.model, Some(TenantQuota::elastic(soft)));
        let mut now = SimTime::ZERO;
        for record in FlJobSim::new(cfg1.clone()) {
            front.submit(
                now,
                Request::Ingest {
                    job: cfg1.job,
                    record: Arc::new(record),
                },
            );
            now += SimDuration::from_secs(60);
        }
        let before = front.quota_usages()[0].resident;
        assert!(before > soft, "elastic tenants may overshoot their budget");

        // No global budget: stats do not reclaim.
        front.submit(now, Request::Stats);
        assert_eq!(front.quota_usages()[0].resident, before);

        // Arm a global budget below current residency: the stats barrier
        // sheds the elastic overage, down to (at most) the soft budget.
        front.set_global_budget(Some(ByteSize::from_mb(80)));
        let Response::Stats(stats) = front.submit(now, Request::Stats) else {
            panic!("stats envelope answers with stats");
        };
        let after = stats.quota[0].resident;
        assert!(after < before, "pressure reclaimed: {after} vs {before}");
        assert!(
            after <= soft.max(ByteSize::from_mb(80)),
            "residency returns toward the budget: {after}"
        );
    }

    #[test]
    fn multi_tenant_front_door_routes_by_job() {
        let mut front = MultiTenantStore::new(quiet_config(&ModelArch::RESNET18));
        let cfg1 = FlJobConfig {
            rounds: 3,
            ..FlJobConfig::quick_test(JobId::new(1))
        };
        let cfg2 = FlJobConfig {
            rounds: 3,
            ..FlJobConfig::quick_test(JobId::new(2))
        };
        front.register_job(cfg1.job, cfg1.model);
        front.register_job(cfg2.job, cfg2.model);
        let mut last = std::collections::HashMap::new();
        for cfg in [&cfg1, &cfg2] {
            let mut now = SimTime::ZERO;
            for record in FlJobSim::new(cfg.clone()) {
                last.insert(cfg.job, record.round);
                front.submit(
                    now,
                    Request::Ingest {
                        job: cfg.job,
                        record: Arc::new(record),
                    },
                );
                now += SimDuration::from_secs(60);
            }
        }
        let now = SimTime::from_secs(3600);
        // One batch interleaving both tenants plus a stats envelope.
        let batch = vec![
            Request::Serve(p2(1, cfg1.job, last[&cfg1.job])),
            Request::Serve(p2(2, cfg2.job, last[&cfg2.job])),
            Request::Serve(p2(3, cfg2.job, last[&cfg2.job])),
            Request::Serve(p2(4, JobId::new(9), flstore_fl::ids::Round::ZERO)),
            Request::Stats,
        ];
        let responses = front.submit_batch(now, &batch);
        assert_eq!(responses.len(), batch.len());
        assert!(responses[0].served().is_some());
        assert!(responses[1].served().is_some());
        assert!(responses[2].served().is_some());
        assert_eq!(
            responses[3].error(),
            Some(&ApiError::UnknownJob { job: JobId::new(9) })
        );
        let Response::Stats(stats) = &responses[4] else {
            panic!("stats envelope answers with stats");
        };
        assert_eq!(stats.tenants, 2);
        assert_eq!(stats.served, 3);
    }
}
