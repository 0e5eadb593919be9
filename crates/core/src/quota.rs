//! Per-tenant memory quotas and the cross-tenant pressure plane (paper
//! Appendix A: multi-tenancy *with* resource governance).
//!
//! A [`TenantQuota`] bounds how much cache residency one tenant's
//! deployment may hold — the sum of its logical cached bytes and its
//! decoded-value-layer residency (`FlStore::resident_bytes`). Two
//! enforcement disciplines exist:
//!
//! * [`QuotaPolicy::Strict`] — a hard bound enforced *inside* the tenant's
//!   own deployment: admission past the budget first evicts the tenant's
//!   own policy victims, and refuses the object if that cannot make room.
//!   A strict tenant never ends an operation over budget, and its
//!   evictions touch only its own keys.
//! * [`QuotaPolicy::Elastic`] — a soft bound: the tenant may overshoot,
//!   but when the *aggregate* front end exceeds its global budget, the
//!   cross-tenant pressure pass ([`pressure_plan`]) reclaims from the
//!   most-over-budget elastic tenants first.
//!
//! The pressure pass is deterministic by construction: the plan is a pure
//! function of the per-tenant [`QuotaUsage`] rows (ordered by overage,
//! ties broken on `JobId`), and each tenant's reclamation delegates to its
//! `CachingPolicy::victims`, which orders victims by full `MetaKey`. Two
//! runs over the same traffic produce identical victim sequences — the
//! property the figure harness's byte-diff gate relies on.

use serde::{Deserialize, Serialize};

use flstore_fl::ids::JobId;
use flstore_sim::bytes::ByteSize;

/// How a tenant's budget is enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuotaPolicy {
    /// Hard bound: never admit past the budget; shed own victims to make
    /// room, refuse what still cannot fit.
    Strict,
    /// Soft bound: admit freely; the cross-tenant pressure pass reclaims
    /// from over-budget elastic tenants when the global budget is hit.
    Elastic,
}

/// A per-tenant memory budget.
///
/// # Examples
///
/// ```
/// use flstore_core::quota::{QuotaPolicy, TenantQuota};
/// use flstore_sim::bytes::ByteSize;
///
/// let q = TenantQuota::strict(ByteSize::from_gb(2));
/// assert_eq!(q.policy, QuotaPolicy::Strict);
/// assert!(TenantQuota::elastic(ByteSize::from_gb(2)).bytes == q.bytes);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TenantQuota {
    /// Budgeted resident bytes (logical cached bytes + decoded-layer
    /// residency).
    pub bytes: ByteSize,
    /// Enforcement discipline.
    pub policy: QuotaPolicy,
}

impl TenantQuota {
    /// A hard budget.
    pub fn strict(bytes: ByteSize) -> Self {
        TenantQuota {
            bytes,
            policy: QuotaPolicy::Strict,
        }
    }

    /// A soft budget reclaimed under global pressure.
    pub fn elastic(bytes: ByteSize) -> Self {
        TenantQuota {
            bytes,
            policy: QuotaPolicy::Elastic,
        }
    }
}

/// One tenant's point-in-time quota occupancy (carried by
/// `Request::Stats` responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaUsage {
    /// The tenant.
    pub job: JobId,
    /// Resident bytes right now (logical cached + decoded layer).
    pub resident: ByteSize,
    /// The configured budget, if any.
    pub quota: Option<TenantQuota>,
}

impl QuotaUsage {
    /// How far an *elastic* tenant is over its budget (`ZERO` for strict,
    /// unquota'd, or within-budget tenants) — the quantity the pressure
    /// plan ranks tenants by.
    fn elastic_overage(&self) -> ByteSize {
        match self.quota {
            Some(q) if q.policy == QuotaPolicy::Elastic => self.resident.saturating_sub(q.bytes),
            _ => ByteSize::ZERO,
        }
    }
}

/// Computes the deterministic cross-tenant reclamation plan: how many
/// bytes each elastic over-budget tenant must shed so the aggregate front
/// returns to `global_budget`.
///
/// The plan asks the most-over-budget tenants first (ties broken on
/// `JobId`, ascending) and never asks a tenant for more than its own
/// overage — strict tenants are already bounded by construction and
/// unquota'd tenants are exempt, so if the excess exceeds the elastic
/// overages the plan reclaims what it can and stops. Pure function of its
/// inputs: the same usages always produce the same plan, on every run.
pub fn pressure_plan(usages: &[QuotaUsage], global_budget: ByteSize) -> Vec<(JobId, ByteSize)> {
    let total: ByteSize = usages.iter().map(|u| u.resident).sum();
    let mut excess = total.saturating_sub(global_budget);
    if excess == ByteSize::ZERO {
        return Vec::new();
    }
    let mut overs: Vec<(JobId, ByteSize)> = usages
        .iter()
        .map(|u| (u.job, u.elastic_overage()))
        .filter(|(_, overage)| *overage > ByteSize::ZERO)
        .collect();
    overs.sort_by(|(aj, ao), (bj, bo)| bo.cmp(ao).then(aj.cmp(bj)));
    let mut plan = Vec::new();
    for (job, overage) in overs {
        if excess == ByteSize::ZERO {
            break;
        }
        let take = overage.min(excess);
        plan.push((job, take));
        excess = excess.saturating_sub(take);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(job: u32, resident_mb: u64, quota: Option<TenantQuota>) -> QuotaUsage {
        QuotaUsage {
            job: JobId::new(job),
            resident: ByteSize::from_mb(resident_mb),
            quota,
        }
    }

    #[test]
    fn within_budget_plans_nothing() {
        let usages = [
            usage(1, 100, Some(TenantQuota::elastic(ByteSize::from_mb(50)))),
            usage(2, 100, None),
        ];
        assert!(pressure_plan(&usages, ByteSize::from_mb(500)).is_empty());
    }

    #[test]
    fn most_over_budget_tenant_is_asked_first() {
        let usages = [
            usage(1, 150, Some(TenantQuota::elastic(ByteSize::from_mb(100)))),
            usage(2, 300, Some(TenantQuota::elastic(ByteSize::from_mb(100)))),
            usage(3, 120, Some(TenantQuota::elastic(ByteSize::from_mb(100)))),
        ];
        // total 570, budget 400 → excess 170; overages: t2=200, t1=50, t3=20.
        let plan = pressure_plan(&usages, ByteSize::from_mb(400));
        assert_eq!(plan, vec![(JobId::new(2), ByteSize::from_mb(170))]);
    }

    #[test]
    fn excess_cascades_in_overage_then_job_order() {
        let usages = [
            usage(2, 200, Some(TenantQuota::elastic(ByteSize::from_mb(100)))),
            usage(1, 200, Some(TenantQuota::elastic(ByteSize::from_mb(100)))),
            usage(3, 180, Some(TenantQuota::elastic(ByteSize::from_mb(100)))),
        ];
        // total 580, budget 350 → excess 230; t1 and t2 tie at 100 (job
        // order breaks the tie), t3 holds 80.
        let plan = pressure_plan(&usages, ByteSize::from_mb(350));
        assert_eq!(
            plan,
            vec![
                (JobId::new(1), ByteSize::from_mb(100)),
                (JobId::new(2), ByteSize::from_mb(100)),
                (JobId::new(3), ByteSize::from_mb(30)),
            ]
        );
    }

    #[test]
    fn strict_and_unquotad_tenants_are_exempt() {
        let usages = [
            usage(1, 400, Some(TenantQuota::strict(ByteSize::from_mb(500)))),
            usage(2, 400, None),
            usage(3, 150, Some(TenantQuota::elastic(ByteSize::from_mb(100)))),
        ];
        // total 950, budget 100 → excess 850, but only t3's 50 MB overage
        // is reclaimable.
        let plan = pressure_plan(&usages, ByteSize::from_mb(100));
        assert_eq!(plan, vec![(JobId::new(3), ByteSize::from_mb(50))]);
    }

    #[test]
    fn plan_is_a_pure_function() {
        let usages = [
            usage(4, 220, Some(TenantQuota::elastic(ByteSize::from_mb(100)))),
            usage(7, 180, Some(TenantQuota::elastic(ByteSize::from_mb(100)))),
        ];
        let a = pressure_plan(&usages, ByteSize::from_mb(250));
        let b = pressure_plan(&usages, ByteSize::from_mb(250));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
