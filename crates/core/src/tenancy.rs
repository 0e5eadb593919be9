//! Multi-tenancy (paper Appendix A).
//!
//! The serverless paradigm isolates tenants by construction: each user (or
//! FL job) gets its own cache — its own functions, placement index, policy,
//! and persistent namespace — on one logical FLStore deployment.
//! [`MultiTenantStore`] routes rounds and requests to per-job [`FlStore`]
//! instances and aggregates billing, so operators see one system while
//! tenants cannot observe each other's data or interfere with each other's
//! caching policies.

use std::collections::BTreeMap;

use flstore_fl::ids::JobId;
use flstore_fl::metadata::MetaKey;
use flstore_fl::zoo::ModelArch;
use flstore_sim::bytes::ByteSize;
use flstore_sim::cost::CostBreakdown;
use flstore_sim::time::SimTime;

use crate::policy::{CachingPolicy, TailoredPolicy};
use crate::quota::{pressure_plan, QuotaUsage, TenantQuota};
use crate::store::{FlStore, FlStoreConfig};

/// A multi-tenant FLStore front end: one isolated [`FlStore`] per job.
///
/// # Examples
///
/// ```
/// use flstore_core::tenancy::MultiTenantStore;
/// use flstore_core::store::FlStoreConfig;
/// use flstore_fl::ids::JobId;
/// use flstore_fl::zoo::ModelArch;
///
/// let mut front = MultiTenantStore::new(FlStoreConfig::for_model(&ModelArch::RESNET18));
/// front.register_job(JobId::new(1), ModelArch::RESNET18);
/// front.register_job(JobId::new(2), ModelArch::EFFICIENTNET_V2_S);
/// assert_eq!(front.tenant_count(), 2);
/// ```
#[derive(Debug)]
pub struct MultiTenantStore {
    template: FlStoreConfig,
    tenants: BTreeMap<JobId, FlStore>,
    /// Aggregate residency budget across all tenants; when exceeded, the
    /// pressure pass reclaims from over-budget *elastic* tenants. `None`
    /// disables cross-tenant pressure entirely.
    global_budget: Option<ByteSize>,
}

impl MultiTenantStore {
    /// Creates an empty front end; per-tenant deployments are derived from
    /// `template` (seeds are decorrelated per job).
    pub fn new(template: FlStoreConfig) -> Self {
        MultiTenantStore {
            template,
            tenants: BTreeMap::new(),
            global_budget: None,
        }
    }

    /// The aggregate residency budget, if cross-tenant pressure is armed.
    pub fn global_budget(&self) -> Option<ByteSize> {
        self.global_budget
    }

    /// Arms (or disarms, with `None`) the aggregate residency budget the
    /// pressure pass enforces at every system-wide stats probe.
    pub fn set_global_budget(&mut self, budget: Option<ByteSize>) {
        self.global_budget = budget;
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The configuration template per-tenant deployments derive from.
    pub fn template(&self) -> &FlStoreConfig {
        &self.template
    }

    /// Consumes the front end, yielding every tenant store in job order
    /// (each tenant is an isolated deployment, so ownership of a tenant
    /// is ownership of its whole serving state).
    pub fn into_tenants(self) -> Vec<(JobId, FlStore)> {
        self.tenants.into_iter().collect()
    }

    /// Adopts an existing deployment as the tenant for its own job
    /// (the inverse of [`MultiTenantStore::into_tenants`]).
    ///
    /// # Errors
    ///
    /// If the job is already registered the deployment is handed back
    /// untouched — nothing is dropped or replaced.
    // The large Err variant IS the point: the rejected deployment (cache,
    // ledger, platform — state that must not be silently dropped) returns
    // to the caller by value, exactly as `into_tenants` handed it out.
    #[allow(clippy::result_large_err)]
    pub fn adopt(&mut self, store: FlStore) -> Result<(), FlStore> {
        let job = store.catalog().job();
        if self.tenants.contains_key(&job) {
            return Err(store);
        }
        self.tenants.insert(job, store);
        Ok(())
    }

    /// Registered job ids, in order.
    pub fn jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.tenants.keys().copied()
    }

    /// Registers a tenant job with the default tailored policy and the
    /// template's quota (if any). Replaces nothing if the job already
    /// exists (returns false).
    pub fn register_job(&mut self, job: JobId, model: ModelArch) -> bool {
        let quota = self.template.quota;
        self.register_job_configured(job, model, Box::new(TailoredPolicy::new()), quota)
    }

    /// Registers a tenant with its own memory budget (overriding the
    /// template's; `None` leaves the tenant unbounded) and the default
    /// tailored policy.
    pub fn register_job_with_quota(
        &mut self,
        job: JobId,
        model: ModelArch,
        quota: Option<TenantQuota>,
    ) -> bool {
        self.register_job_configured(job, model, Box::new(TailoredPolicy::new()), quota)
    }

    /// Full-control registration: custom caching policy and per-tenant
    /// quota.
    fn register_job_configured(
        &mut self,
        job: JobId,
        model: ModelArch,
        policy: Box<dyn CachingPolicy>,
        quota: Option<TenantQuota>,
    ) -> bool {
        if self.tenants.contains_key(&job) {
            return false;
        }
        let mut cfg = self.template.clone();
        // Decorrelate platform randomness across tenants.
        cfg.seed ^= 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(job.as_u32()) + 1);
        // Function sizing follows each tenant's model, as in single-tenant
        // deployments.
        cfg.function_config = FlStoreConfig::for_model(&model).function_config;
        cfg.quota = quota;
        self.tenants
            .insert(job, FlStore::new(cfg, policy, job, model));
        true
    }

    /// Borrows a tenant's store.
    pub fn tenant(&self, job: JobId) -> Option<&FlStore> {
        self.tenants.get(&job)
    }

    /// Mutably borrows a tenant's store (the front-door routing hook).
    pub fn tenant_mut(&mut self, job: JobId) -> Option<&mut FlStore> {
        self.tenants.get_mut(&job)
    }

    /// Iterates over every tenant store, in job order.
    pub fn tenants(&self) -> impl Iterator<Item = &FlStore> {
        self.tenants.values()
    }

    /// Mutably iterates over every tenant store, in job order.
    pub fn tenants_mut(&mut self) -> impl Iterator<Item = &mut FlStore> {
        self.tenants.values_mut()
    }

    /// Aggregate cost across tenants over the window ending at `now`.
    pub fn total_cost(&mut self, now: SimTime) -> CostBreakdown {
        self.tenants.values_mut().map(|s| s.total_cost(now)).sum()
    }

    /// Per-tenant quota occupancy rows, in job order.
    pub fn quota_usages(&self) -> Vec<QuotaUsage> {
        self.tenants().map(|s| s.quota_usage()).collect()
    }

    /// Runs one deterministic cross-tenant pressure pass: when the
    /// aggregate resident front exceeds the global budget, the
    /// most-over-budget *elastic* tenants shed their own policy victims
    /// (computed by [`pressure_plan`], applied in plan order) until the
    /// excess is reclaimed or no elastic overage remains. Returns the full
    /// `(job, key)` victim sequence — identical run-to-run for identical
    /// traffic, which is what keeps the figure harness byte-stable.
    ///
    /// No-op (and empty) without a global budget.
    pub fn pressure_pass(&mut self) -> Vec<(JobId, MetaKey)> {
        let Some(global) = self.global_budget else {
            return Vec::new();
        };
        let plan = pressure_plan(&self.quota_usages(), global);
        let mut evicted = Vec::new();
        for (job, need) in plan {
            if let Some(store) = self.tenants.get_mut(&job) {
                for key in store.reclaim(need) {
                    evicted.push((job, key));
                }
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ApiError, Request, Response, Service};
    use flstore_fl::job::{FlJobConfig, FlJobSim};
    use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
    use flstore_sim::time::SimDuration;
    use flstore_workloads::request::{RequestId, WorkloadRequest};
    use flstore_workloads::taxonomy::WorkloadKind;

    fn template() -> FlStoreConfig {
        FlStoreConfig {
            platform: PlatformConfig {
                reclaim: ReclaimModel::DISABLED,
                ..PlatformConfig::default()
            },
            ..FlStoreConfig::for_model(&ModelArch::RESNET18)
        }
    }

    fn run_job(front: &mut MultiTenantStore, job: JobId) -> flstore_fl::ids::Round {
        let cfg = FlJobConfig {
            rounds: 5,
            ..FlJobConfig::quick_test(job)
        };
        front.register_job(job, cfg.model);
        let mut now = SimTime::ZERO;
        let mut last = flstore_fl::ids::Round::ZERO;
        for record in FlJobSim::new(cfg) {
            front
                .tenant_mut(job)
                .expect("registered")
                .ingest_round(now, &record);
            last = record.round;
            now += SimDuration::from_secs(60);
        }
        last
    }

    #[test]
    fn tenants_are_isolated() {
        let mut front = MultiTenantStore::new(template());
        let last1 = run_job(&mut front, JobId::new(1));
        let last2 = run_job(&mut front, JobId::new(2));

        // Each tenant serves its own job's data.
        for (job, round) in [(JobId::new(1), last1), (JobId::new(2), last2)] {
            let req = WorkloadRequest::new(
                RequestId::new(job.as_u32() as u64),
                WorkloadKind::MaliciousFiltering,
                job,
                round,
                None,
            );
            let Response::Served(served) =
                front.submit(SimTime::from_secs(3600), Request::Serve(req))
            else {
                panic!("servable");
            };
            assert_eq!(served.measured.cache_misses, 0);
        }

        // One tenant's cache holds only its own objects.
        let t1 = front.tenant(JobId::new(1)).expect("registered");
        for key in t1.engine().keys() {
            assert_eq!(
                key.job,
                JobId::new(1),
                "foreign object in tenant cache: {key}"
            );
        }
        // Tenants do not share functions.
        assert!(t1.platform().instance_count() > 0);
    }

    #[test]
    fn into_tenants_and_adopt_round_trip() {
        let mut front = MultiTenantStore::new(template());
        let last1 = run_job(&mut front, JobId::new(1));
        run_job(&mut front, JobId::new(2));
        let tmpl = front.template().clone();

        // Split the front end into owned deployments (the executor
        // hand-off) and rebuild an identical front from the parts.
        let tenants = front.into_tenants();
        assert_eq!(
            tenants.iter().map(|(j, _)| *j).collect::<Vec<_>>(),
            vec![JobId::new(1), JobId::new(2)]
        );
        let mut rebuilt = MultiTenantStore::new(tmpl);
        for (job, store) in tenants {
            assert_eq!(store.catalog().job(), job);
            rebuilt.adopt(store).expect("jobs are distinct");
        }
        assert_eq!(rebuilt.tenant_count(), 2);

        // The rebuilt front serves exactly what the original did.
        let req = WorkloadRequest::new(
            RequestId::new(9),
            WorkloadKind::MaliciousFiltering,
            JobId::new(1),
            last1,
            None,
        );
        let Response::Served(served) =
            rebuilt.submit(SimTime::from_secs(3600), Request::Serve(req))
        else {
            panic!("tenant state survived the round trip");
        };
        assert_eq!(served.measured.cache_misses, 0);

        // Adopting a duplicate hands the deployment back untouched.
        let extra = {
            let mut solo = MultiTenantStore::new(template());
            run_job(&mut solo, JobId::new(1));
            solo.into_tenants().remove(0).1
        };
        let extra_served = extra.ledger().len();
        let returned = rebuilt.adopt(extra).expect_err("job 1 already registered");
        assert_eq!(returned.catalog().job(), JobId::new(1));
        assert_eq!(returned.ledger().len(), extra_served);
        assert_eq!(rebuilt.tenant_count(), 2);
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut front = MultiTenantStore::new(template());
        assert!(front.register_job(JobId::new(1), ModelArch::RESNET18));
        assert!(!front.register_job(JobId::new(1), ModelArch::SWIN_V2_TINY));
        assert_eq!(front.tenant_count(), 1);
        assert_eq!(front.jobs().collect::<Vec<_>>(), vec![JobId::new(1)]);
    }

    #[test]
    fn unregistered_job_is_an_error() {
        let mut front = MultiTenantStore::new(template());
        let req = WorkloadRequest::new(
            RequestId::new(1),
            WorkloadKind::Inference,
            JobId::new(42),
            flstore_fl::ids::Round::ZERO,
            None,
        );
        let unknown = Response::Rejected(ApiError::UnknownJob {
            job: JobId::new(42),
        });
        assert_eq!(front.submit(SimTime::ZERO, Request::Serve(req)), unknown);
        // The ingest path reports the same honest admission failure — and
        // never a synthesized request id.
        let cfg = FlJobConfig::quick_test(JobId::new(42));
        let record = FlJobSim::new(cfg).next().expect("one round");
        let ingest = Request::Ingest {
            job: JobId::new(42),
            record: std::sync::Arc::new(record),
        };
        assert_eq!(front.submit(SimTime::ZERO, ingest), unknown);
    }

    #[test]
    fn total_cost_sums_tenants() {
        let mut front = MultiTenantStore::new(template());
        run_job(&mut front, JobId::new(1));
        run_job(&mut front, JobId::new(2));
        let end = SimTime::from_secs(7200);
        let total = front.total_cost(end);
        let t1 = {
            let mut solo = MultiTenantStore::new(template());
            run_job(&mut solo, JobId::new(1));
            solo.total_cost(end)
        };
        assert!(total.total() > t1.total(), "two tenants cost more than one");
    }

    #[test]
    fn function_sizing_follows_tenant_model() {
        let mut front = MultiTenantStore::new(template());
        front.register_job(JobId::new(1), ModelArch::MOBILENET_V3_SMALL);
        front.register_job(JobId::new(2), ModelArch::SWIN_V2_TINY);
        // Ingest one round each so functions spawn.
        for job in [JobId::new(1), JobId::new(2)] {
            let model = if job == JobId::new(1) {
                ModelArch::MOBILENET_V3_SMALL
            } else {
                ModelArch::SWIN_V2_TINY
            };
            let cfg = FlJobConfig {
                rounds: 1,
                model,
                ..FlJobConfig::quick_test(job)
            };
            let record = FlJobSim::new(cfg).next().expect("one round");
            front
                .tenant_mut(job)
                .expect("registered")
                .ingest_round(SimTime::ZERO, &record);
        }
        let small = front.tenant(JobId::new(1)).expect("t1");
        let large = front.tenant(JobId::new(2)).expect("t2");
        let small_mem = small
            .platform()
            .instance(small.platform().instance_ids()[0])
            .expect("spawned")
            .config()
            .memory;
        let large_mem = large
            .platform()
            .instance(large.platform().instance_ids()[0])
            .expect("spawned")
            .config()
            .memory;
        assert!(large_mem > small_mem, "Swin tenant gets bigger functions");
    }
}
