//! Tenancy & quotas experiment (paper Appendix A resource governance):
//! N tenants share one FLStore front end under *skewed* load, and a quota
//! sweep shows what per-tenant budgets and the cross-tenant pressure
//! plane do to residency and hit rates.
//!
//! Configurations swept:
//!
//! * `none` — no budgets (the pre-quota multi-tenant behaviour);
//! * `elastic-2.0x/1.0x/0.5x` — every tenant gets an elastic budget of
//!   that many round-working-sets, with a global budget of the per-tenant
//!   sum: over-budget tenants are reclaimed deterministically at every
//!   stats barrier;
//! * `strict-1.0x` — every tenant gets a hard budget; ingests whose hot
//!   set cannot be admitted surface as typed `QuotaExceeded` rejections.
//!
//! Like every experiment, the drive is `Service`-envelope traffic served
//! through the executor; `figures -- --threads N` sets its kernel
//! threads — byte-identical output at any count (CI diffs 1 against 4).

use std::sync::Arc;

use serde_json::{json, Value};

use flstore_core::api::{ApiError, Request, Response, Service};
use flstore_core::quota::{QuotaPolicy, TenantQuota};
use flstore_core::store::FlStoreConfig;
use flstore_core::tenancy::MultiTenantStore;
use flstore_exec::ShardedExecutor;
use flstore_fl::ids::{JobId, Round};
use flstore_fl::job::{FlJobConfig, FlJobSim};
use flstore_fl::zoo::ModelArch;
use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
use flstore_sim::bytes::ByteSize;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::{PolicyClass, WorkloadKind};

use crate::util::{header, save_json, subheader, Scale};

const TENANTS: u32 = 5;
const ROUNDS: u32 = 8;
const WAVES: usize = 10;
/// Skewed per-wave request counts: tenant 1 is hot, the tail is cold.
const SKEW: [usize; TENANTS as usize] = [5, 3, 2, 1, 1];

fn job_cfg(job: u32) -> FlJobConfig {
    FlJobConfig {
        rounds: ROUNDS,
        ..FlJobConfig::quick_test(JobId::new(job))
    }
}

/// The budget unit: one round's metadata (the tailored hot set holds
/// about two of these, so a 1.0x budget genuinely bites).
fn budget_unit() -> ByteSize {
    job_cfg(1).round_metadata_bytes()
}

fn scaled(mult: f64) -> ByteSize {
    ByteSize::from_bytes((budget_unit().as_bytes() as f64 * mult) as u64)
}

/// What one drive observed.
struct DriveOutcome {
    front: MultiTenantStore,
    quota_rejections: usize,
    total_cost: f64,
}

/// Replays `WAVES` skewed request waves (each wave closes with a Stats
/// barrier — the pressure plane's trigger point) through the typed front
/// door, returning the window cost. Quota rejections only exist on the
/// ingest path (serving falls back to pass-through misses), so the waves
/// have nothing to count.
fn drive<S: Service>(plane: &mut S, rounds_of: &[Vec<Round>]) -> f64 {
    let mut now = SimTime::from_secs(60 * u64::from(ROUNDS) * 2);
    let mut req_id = 0u64;
    for wave in 0..WAVES {
        let mut envelopes: Vec<Request> = Vec::new();
        for (t, &count) in SKEW.iter().enumerate() {
            let job = JobId::new(t as u32 + 1);
            for slot in 0..count {
                // Cycle workloads (skipping client-specific P3 audits) and
                // rounds, so cold tenants and cold rounds both appear.
                let mut k = wave + slot;
                let kind = loop {
                    let kind = WorkloadKind::ALL[k % WorkloadKind::ALL.len()];
                    if kind.policy_class() != PolicyClass::P3AcrossRounds {
                        break kind;
                    }
                    k += 1;
                };
                let rounds = &rounds_of[t];
                let round = rounds[(wave + slot) % rounds.len()];
                req_id += 1;
                envelopes.push(Request::Serve(WorkloadRequest::new(
                    RequestId::new(req_id),
                    kind,
                    job,
                    round,
                    None,
                )));
            }
        }
        // The stats barrier: aggregates occupancy and, when a global
        // budget is armed, runs the deterministic pressure pass.
        envelopes.push(Request::Stats);
        plane.submit_batch(now, &envelopes);
        now += SimDuration::from_secs(60);
    }
    plane.window_cost(now).total().as_dollars()
}

/// Builds, trains, and drives one quota configuration through an
/// executor on `threads` kernel threads, and hands back the tenant front
/// for inspection.
fn run_config(
    quota_of: impl Fn(u32) -> Option<TenantQuota>,
    global: Option<ByteSize>,
    threads: usize,
) -> DriveOutcome {
    let template = FlStoreConfig {
        platform: PlatformConfig {
            reclaim: ReclaimModel::DISABLED,
            ..PlatformConfig::default()
        },
        ..FlStoreConfig::for_model(&ModelArch::RESNET18)
    };
    let mut front = MultiTenantStore::new(template);
    let mut sims = Vec::new();
    for j in 1..=TENANTS {
        let cfg = job_cfg(j);
        front.register_job_with_quota(cfg.job, cfg.model, quota_of(j));
        sims.push((cfg.job, FlJobSim::new(cfg)));
    }
    front.set_global_budget(global);

    let mut exec = ShardedExecutor::from_tenants(front, threads);
    let mut quota_rejections = 0usize;
    let mut rounds_of: Vec<Vec<Round>> = vec![Vec::new(); TENANTS as usize];

    // Lockstep training through the front door (strict tenants may reject
    // hot sets they cannot admit — durability still happens).
    let mut now = SimTime::ZERO;
    for _ in 0..ROUNDS {
        for (t, (job, sim)) in sims.iter_mut().enumerate() {
            if let Some(record) = sim.next_round() {
                rounds_of[t].push(record.round);
                let response = exec.submit(
                    now,
                    Request::Ingest {
                        job: *job,
                        record: Arc::new(record),
                    },
                );
                if let Response::Rejected(ApiError::QuotaExceeded { .. }) = response {
                    quota_rejections += 1;
                }
            }
        }
        now += SimDuration::from_secs(120);
    }

    let total_cost = drive(&mut exec, &rounds_of);
    DriveOutcome {
        front: exec.into_units().pop().expect("the front"),
        quota_rejections,
        total_cost,
    }
}

/// The quota sweep: per-tenant budgets (none / elastic multiples /
/// strict), skewed load, per-tenant residency and hit rates.
pub fn tenancy(_scale: Scale, threads: usize) -> Value {
    header("Tenancy & quotas (Appendix A) — per-tenant budgets under skewed load");
    println!(
        "{TENANTS} tenants, {ROUNDS} rounds each, {WAVES} request waves, skew {SKEW:?} \
         (budget unit = one round's metadata = {})",
        budget_unit()
    );

    let configs: &[(&str, Option<f64>, QuotaPolicy)] = &[
        ("none", None, QuotaPolicy::Elastic),
        ("elastic-2.0x", Some(2.0), QuotaPolicy::Elastic),
        ("elastic-1.0x", Some(1.0), QuotaPolicy::Elastic),
        ("elastic-0.5x", Some(0.5), QuotaPolicy::Elastic),
        ("strict-1.0x", Some(1.0), QuotaPolicy::Strict),
        // Starved: smaller than a single model update, so hot sets cannot
        // be admitted at all and ingests surface typed QuotaExceeded.
        ("strict-0.1x", Some(0.1), QuotaPolicy::Strict),
    ];

    let mut rows = Vec::new();
    for (label, mult, policy) in configs {
        // Elastic sweeps arm a global budget of the per-tenant sum, so the
        // aggregate overshoot is what the pressure plane reclaims; strict
        // tenants bound themselves and need no global budget.
        let global = match (mult, policy) {
            (Some(m), QuotaPolicy::Elastic) => Some(scaled(*m) * u64::from(TENANTS)),
            _ => None,
        };
        let outcome = run_config(
            |_| {
                mult.map(|m| TenantQuota {
                    bytes: scaled(m),
                    policy: *policy,
                })
            },
            global,
            threads,
        );

        subheader(&format!("quota = {label}"));
        println!(
            "{:<8} {:>10} {:>10} {:>12} {:>12}",
            "tenant", "hits", "misses", "hit rate", "resident"
        );
        let mut tenant_rows = Vec::new();
        let mut resident_total = ByteSize::ZERO;
        for store in outcome.front.tenants() {
            let ledger = store.ledger();
            let usage = store.quota_usage();
            resident_total += usage.resident;
            println!(
                "{:<8} {:>10} {:>10} {:>11.1}% {:>12}",
                usage.job.as_u32(),
                ledger.hits(),
                ledger.misses(),
                ledger.hit_rate() * 100.0,
                usage.resident,
            );
            tenant_rows.push(json!({
                "job": usage.job.as_u32(),
                "hits": ledger.hits(),
                "misses": ledger.misses(),
                "hit_rate": ledger.hit_rate(),
                "resident_bytes": usage.resident.as_bytes(),
                "budget_bytes": usage.quota.map(|q| q.bytes.as_bytes()),
            }));
        }
        println!(
            "  aggregate resident {} | global budget {} | quota rejections {} | cost ${:.4}",
            resident_total,
            global.map_or_else(|| "—".to_string(), |b| b.to_string()),
            outcome.quota_rejections,
            outcome.total_cost,
        );
        rows.push(json!({
            "config": label,
            "policy": mult.map(|_| format!("{policy:?}")),
            "budget_mult": mult,
            "global_budget_bytes": global.map(|b| b.as_bytes()),
            "resident_total_bytes": resident_total.as_bytes(),
            "quota_rejections": outcome.quota_rejections,
            "total_cost": outcome.total_cost,
            "tenants": tenant_rows,
        }));
    }
    println!("\n(strict budgets bound each tenant in isolation; elastic budgets let hot");
    println!(" tenants overshoot until the global budget triggers the deterministic");
    println!(" cross-tenant pressure pass at the stats barrier)");
    let v = json!({ "experiment": "tenancy", "rows": rows });
    save_json("tenancy", &v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_budgets_bound_every_tenant() {
        // A one-round budget is feasible by self-eviction: every tenant
        // stays bounded and nothing needs rejecting.
        let outcome = run_config(|_| Some(TenantQuota::strict(scaled(1.0))), None, 1);
        for store in outcome.front.tenants() {
            assert!(
                store.resident_bytes() <= scaled(1.0),
                "tenant {} over its strict budget",
                store.catalog().job()
            );
        }

        // A starved budget (below one model update) cannot admit the hot
        // set at all: ingests surface typed QuotaExceeded rejections and
        // the bound still holds.
        let starved = run_config(|_| Some(TenantQuota::strict(scaled(0.1))), None, 1);
        for store in starved.front.tenants() {
            assert!(store.resident_bytes() <= scaled(0.1));
        }
        assert!(
            starved.quota_rejections > 0,
            "a starved strict budget must reject hot sets"
        );
    }

    #[test]
    fn elastic_pressure_reclaims_versus_unbounded() {
        let unbounded = run_config(|_| None, None, 1);
        let squeezed = run_config(
            |_| Some(TenantQuota::elastic(scaled(0.5))),
            Some(scaled(0.5) * u64::from(TENANTS)),
            1,
        );
        let total = |o: &DriveOutcome| -> u64 {
            o.front
                .tenants()
                .map(|s| s.resident_bytes().as_bytes())
                .sum()
        };
        assert!(
            total(&squeezed) < total(&unbounded),
            "pressure must shrink aggregate residency: {} vs {}",
            total(&squeezed),
            total(&unbounded)
        );
        assert_eq!(
            unbounded.quota_rejections, 0,
            "unbounded tenants never reject"
        );
    }
}
