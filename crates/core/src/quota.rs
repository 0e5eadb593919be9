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

use std::sync::atomic::{AtomicU64, Ordering};

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

/// Atomic byte accounting with CAS admission.
///
/// The gate tracks a tenant's occupancy — committed resident bytes plus
/// outstanding admission reservations — in a single atomic, so the
/// admission check *is* the reservation: [`try_admit`] compares and
/// reserves in one compare-exchange, and a concurrent admitter can never
/// read a stale occupancy between its check and its charge (the TOCTOU
/// the split check-then-insert design would allow).
///
/// Byte-flow protocol:
///
/// * [`try_admit`]`(size, budget)` — CAS-reserve `size` iff
///   `occupancy + size <= budget`.
/// * [`charge`]`(size)` — bytes became resident; consumes a matching
///   reservation first so admitted bytes are never counted twice.
/// * [`credit`]`(size)` — resident bytes left (eviction, invalidation).
/// * [`settle`] — drop dangling reservations (an admitted object whose
///   placement found no ring never charges; settling restores the
///   invariant that occupancy equals residency between operations).
///
/// All orderings are `Relaxed`: the counters themselves carry the whole
/// protocol — no other memory is published through them (cache contents
/// are owned by the engine's key-shards and synchronized by `&mut`
/// access), so the RMW atomicity of each operation is sufficient and no
/// acquire/release edge is needed.
///
/// [`try_admit`]: AdmissionGate::try_admit
/// [`charge`]: AdmissionGate::charge
/// [`credit`]: AdmissionGate::credit
/// [`settle`]: AdmissionGate::settle
#[derive(Debug, Default)]
pub struct AdmissionGate {
    /// Committed resident bytes plus outstanding reservations.
    occupancy: AtomicU64,
    /// Outstanding reservations (subset of `occupancy`).
    reserved: AtomicU64,
}

impl AdmissionGate {
    /// An empty gate.
    pub fn new() -> Self {
        AdmissionGate::default()
    }

    /// Current occupancy: committed bytes plus outstanding reservations.
    pub fn occupancy(&self) -> ByteSize {
        // Relaxed: a point-in-time byte count guards no other memory.
        ByteSize::from_bytes(self.occupancy.load(Ordering::Relaxed))
    }

    /// Atomically reserves `size` iff it fits under `budget`.
    ///
    /// The reservation is held until a matching [`charge`](Self::charge)
    /// commits it or [`settle`](Self::settle) releases it.
    pub fn try_admit(&self, size: ByteSize, budget: ByteSize) -> bool {
        let size = size.as_bytes();
        let budget = budget.as_bytes();
        // Relaxed CAS: admission races only over these counters; the
        // RMW's atomicity alone rules out two admitters both fitting in
        // the same headroom.
        let admitted = self
            .occupancy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |occ| {
                occ.checked_add(size).filter(|&next| next <= budget)
            })
            .is_ok();
        if admitted {
            self.reserved.fetch_add(size, Ordering::Relaxed);
        }
        admitted
    }

    /// Records `size` bytes becoming resident, consuming any outstanding
    /// reservation first so admitted-then-charged bytes count once.
    pub fn charge(&self, size: ByteSize) {
        let size = size.as_bytes();
        let mut consumed = 0;
        // Relaxed RMW: only the counter value is contended (see type docs).
        let _ = self
            .reserved
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| {
                consumed = r.min(size);
                Some(r - consumed)
            });
        self.occupancy.fetch_add(size - consumed, Ordering::Relaxed);
    }

    /// Records `size` resident bytes leaving (eviction, invalidation,
    /// overwrite of a previous entry).
    pub fn credit(&self, size: ByteSize) {
        // Relaxed: byte counter only; saturate rather than wrap if a
        // caller over-credits.
        let size = size.as_bytes();
        let _ = self
            .occupancy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |occ| {
                Some(occ.saturating_sub(size))
            });
    }

    /// Releases every outstanding reservation, returning how many bytes
    /// were dangling. Zero between well-formed operations.
    pub fn settle(&self) -> ByteSize {
        // Relaxed swap: reconciliation over the counters themselves.
        let dangling = self.reserved.swap(0, Ordering::Relaxed);
        let _ = self
            .occupancy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |occ| {
                Some(occ.saturating_sub(dangling))
            });
        ByteSize::from_bytes(dangling)
    }
}

impl Clone for AdmissionGate {
    fn clone(&self) -> Self {
        // Relaxed: cloning a quiescent gate (no concurrent admitters) for
        // store snapshots/recovery; counter values are the whole state.
        AdmissionGate {
            occupancy: AtomicU64::new(self.occupancy.load(Ordering::Relaxed)),
            reserved: AtomicU64::new(self.reserved.load(Ordering::Relaxed)),
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
/// inputs: the same usages always produce the same plan, on every shard
/// layout and every run.
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
    fn gate_admission_reserves_and_charge_consumes() {
        let gate = AdmissionGate::new();
        let budget = ByteSize::from_mb(10);
        assert!(gate.try_admit(ByteSize::from_mb(6), budget));
        assert_eq!(gate.occupancy(), ByteSize::from_mb(6));
        // Second admission would overflow the budget: refused atomically.
        assert!(!gate.try_admit(ByteSize::from_mb(6), budget));
        gate.charge(ByteSize::from_mb(6));
        // Charge consumed the reservation — no double count.
        assert_eq!(gate.occupancy(), ByteSize::from_mb(6));
        assert_eq!(gate.settle(), ByteSize::ZERO);
        gate.credit(ByteSize::from_mb(6));
        assert_eq!(gate.occupancy(), ByteSize::ZERO);
    }

    #[test]
    fn gate_settle_releases_dangling_reservations() {
        let gate = AdmissionGate::new();
        let budget = ByteSize::from_mb(4);
        assert!(gate.try_admit(ByteSize::from_mb(3), budget));
        // Placement failed — the charge never arrives. Settling frees the
        // headroom again.
        assert_eq!(gate.settle(), ByteSize::from_mb(3));
        assert_eq!(gate.occupancy(), ByteSize::ZERO);
        assert!(gate.try_admit(ByteSize::from_mb(4), budget));
    }

    #[test]
    fn gate_uncharged_bytes_still_count_toward_budget() {
        let gate = AdmissionGate::new();
        // Bytes may become resident without admission (no quota set when
        // they arrived): charge without reservation.
        gate.charge(ByteSize::from_mb(2));
        assert_eq!(gate.occupancy(), ByteSize::from_mb(2));
        assert!(!gate.try_admit(ByteSize::from_mb(2), ByteSize::from_mb(3)));
        assert!(gate.try_admit(ByteSize::from_mb(1), ByteSize::from_mb(3)));
    }

    #[test]
    fn gate_admission_has_no_toctou_window() {
        // N threads race one slot's worth of headroom; exactly one wins.
        let gate = std::sync::Arc::new(AdmissionGate::new());
        let budget = ByteSize::from_mb(1);
        let admitted: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let gate = std::sync::Arc::clone(&gate);
                    s.spawn(move || gate.try_admit(ByteSize::from_mb(1), budget))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(admitted.iter().filter(|&&a| a).count(), 1);
        assert_eq!(gate.occupancy(), ByteSize::from_mb(1));
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
