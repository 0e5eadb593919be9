//! §A.1 (second aspect): scalability across *parallel FL jobs* — multiple
//! tenants on one FLStore deployment (paper Appendix A multi-tenancy).
//!
//! Each job gets an isolated cache (functions, placement index, policy), so
//! adding tenants must not degrade any one tenant's latency; total cost
//! grows linearly with active tenants instead of requiring a bigger
//! always-on aggregator.

use std::sync::Arc;

use serde_json::{json, Value};

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

use crate::util::{dollars, header, save_json, secs, Scale};

const ROUNDS: u32 = 20;
const REQUESTS_PER_JOB: usize = 20;

fn job_cfg(job: u32) -> FlJobConfig {
    FlJobConfig {
        rounds: ROUNDS,
        ..FlJobConfig::paper_eval(JobId::new(job), ModelArch::EFFICIENTNET_V2_S)
    }
}

/// Runs `n_jobs` tenants through training + a request mix; returns
/// (mean per-request latency secs, total cost dollars).
///
/// The tenants serve through the typed front door of a `ShardedExecutor`
/// wrapping the front end; `figures -- --threads N` gives it N kernel
/// threads, so each request wave's kernels fan out across them. The
/// executor is bit-for-bit equivalent to the sequential front end, so
/// the figure's numbers do not depend on the thread count.
fn run_tenants(n_jobs: u32, threads: usize) -> (f64, f64) {
    let template = FlStoreConfig {
        platform: PlatformConfig {
            reclaim: ReclaimModel::DISABLED,
            ..PlatformConfig::default()
        },
        ..FlStoreConfig::for_model(&ModelArch::EFFICIENTNET_V2_S)
    };
    let mut front = MultiTenantStore::new(template);
    let mut sims = Vec::new();
    for j in 1..=n_jobs {
        let cfg = job_cfg(j);
        front.register_job(cfg.job, cfg.model);
        sims.push((cfg.job, FlJobSim::new(cfg)));
    }
    let mut exec = ShardedExecutor::from_tenants(front, threads);
    run_tenant_waves(&mut exec, sims)
}

/// The experiment body.
fn run_tenant_waves<S: Service>(front: &mut S, mut sims: Vec<(JobId, FlJobSim)>) -> (f64, f64) {
    let n_jobs = sims.len() as u32;

    // Interleaved training: all jobs progress in lockstep.
    let mut now = SimTime::ZERO;
    let mut last_round = None;
    for _ in 0..ROUNDS {
        for (job, sim) in sims.iter_mut() {
            if let Some(record) = sim.next_round() {
                last_round = Some(record.round);
                let response = front.submit(
                    now,
                    Request::Ingest {
                        job: *job,
                        record: Arc::new(record),
                    },
                );
                assert!(response.is_ok(), "registered tenants ingest");
            }
        }
        now += SimDuration::from_secs(120);
    }
    let round = last_round.expect("trained");

    // Every tenant receives the same request mix concurrently: each wave
    // is one batch of `n_jobs` simultaneous requests, one per tenant.
    let mut lat_sum = 0.0;
    let mut served = 0usize;
    let mut req_id = 0u64;
    for i in 0..REQUESTS_PER_JOB {
        let kind = WorkloadKind::ALL[i % WorkloadKind::ALL.len()];
        if kind.policy_class() == flstore_workloads::taxonomy::PolicyClass::P3AcrossRounds {
            continue; // client-specific audits are covered elsewhere
        }
        let mut wave = Vec::with_capacity(n_jobs as usize);
        for j in 1..=n_jobs {
            req_id += 1;
            wave.push(Request::Serve(WorkloadRequest::new(
                RequestId::new(req_id),
                kind,
                JobId::new(j),
                round,
                None,
            )));
        }
        for response in front.submit_batch(now, &wave) {
            if let Response::Served(done) = response {
                lat_sum += done.measured.latency.total().as_secs_f64();
                served += 1;
            }
        }
        now += SimDuration::from_secs(60);
    }
    let total = front.window_cost(now).total().as_dollars();
    (lat_sum / served.max(1) as f64, total)
}

/// Parallel-jobs scalability: per-request latency stays flat as tenants are
/// added; cost grows ~linearly.
pub fn jobs(_scale: Scale, threads: usize) -> Value {
    header("§A.1 — scalability across parallel FL jobs (multi-tenancy)");
    println!(
        "{:<10} {:>14} {:>14} {:>16}",
        "jobs", "mean latency", "total cost", "cost per job"
    );
    let mut rows = Vec::new();
    for n in [1u32, 2, 4, 8] {
        let (lat, cost) = run_tenants(n, threads);
        println!(
            "{:<10} {:>14} {:>14} {:>16}",
            n,
            secs(lat),
            dollars(cost),
            dollars(cost / n as f64),
        );
        rows.push(json!({
            "jobs": n,
            "mean_latency_secs": lat,
            "total_cost": cost,
            "cost_per_job": cost / n as f64,
        }));
    }
    println!("\n(isolated per-tenant caches: latency is flat in the tenant count and");
    println!(" cost per job is constant — no shared aggregator to saturate)");
    let v = json!({ "experiment": "jobs", "rows": rows });
    save_json("jobs", &v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adding_tenants_keeps_latency_flat() {
        let (lat1, cost1) = run_tenants(1, 1);
        let (lat4, cost4) = run_tenants(4, 1);
        assert!(
            lat4 < lat1 * 1.25,
            "latency must stay flat: 1 job {lat1:.2}s vs 4 jobs {lat4:.2}s"
        );
        assert!(cost4 > cost1, "more tenants cost more in total");
        // Per-job cost roughly constant (within 50%).
        let per1 = cost1;
        let per4 = cost4 / 4.0;
        assert!(
            (per4 / per1) < 1.5 && (per4 / per1) > 0.5,
            "per-job cost should be ~constant: {per1} vs {per4}"
        );
    }
}
