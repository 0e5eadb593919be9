//! Policy experiments: Fig. 11 (tailored vs traditional on the live trace),
//! Table 2 (hit rates on per-class lockstep traces), Fig. 18
//! (FLStore-Static ablation).

use serde_json::{json, Value};

use flstore_fl::ids::JobId;
use flstore_fl::job::{FlJobConfig, FlJobSim};
use flstore_fl::zoo::ModelArch;
use flstore_sim::stats::reduction_pct;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_trace::driver::TraceConfig;
use flstore_trace::scenario::{eval_job, flstore_for, PolicyVariant};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::{PolicyClass, WorkloadKind};

use crate::util::{dollars, drive_unit, header, save_json, secs, subheader, Scale};

/// Fig. 11: per-request latency and cost of the policy variants.
pub fn fig11(scale: Scale, threads: usize) -> Value {
    header("Fig 11 — caching policies in FLStore: per-request latency and cost");
    let job = eval_job(ModelArch::EFFICIENTNET_V2_S, scale.rounds());
    let trace = TraceConfig {
        seed: 0xAB,
        requests: scale.requests(),
        window: scale.window(),
        kinds: WorkloadKind::ALL.to_vec(),
        events: None,
    };
    println!(
        "{:<18} {:>9} {:>11} {:>11} {:>12} {:>12}",
        "policy", "hit%", "mean lat", "p99 lat", "mean $/req", "total $"
    );
    let mut rows = Vec::new();
    for variant in PolicyVariant::FIG11 {
        let (report, _) = drive_unit(flstore_for(&job, variant, 0xF3), &job, &trace, threads);
        let lat = report.latency_summary().expect("served");
        let cost = report.amortized_cost_summary().expect("served");
        println!(
            "{:<18} {:>8.1}% {:>11} {:>11} {:>12} {:>12}",
            variant.label(),
            report.hit_rate() * 100.0,
            secs(lat.mean),
            secs(lat.p99),
            dollars(cost.mean),
            dollars(report.total_cost.total().as_dollars()),
        );
        rows.push(json!({
            "policy": variant.label(),
            "hit_rate": report.hit_rate(),
            "mean_latency_secs": lat.mean,
            "p99_latency_secs": lat.p99,
            "mean_cost": cost.mean,
            "total_cost": report.total_cost.total().as_dollars(),
        }));
    }
    let v = json!({ "experiment": "fig11", "rows": rows });
    save_json("fig11", &v);
    v
}

/// One Table 2 lockstep trace: ingest round → request, with `cadence`
/// rounds between requests. Returns (hits, misses).
fn lockstep(kind: WorkloadKind, variant: PolicyVariant, rounds: u32, cadence: u32) -> (u64, u64) {
    let job = FlJobConfig {
        rounds,
        ..FlJobConfig::paper_eval(JobId::new(1), ModelArch::EFFICIENTNET_V2_S)
    };
    let mut store = flstore_for(&job, variant, 0xF4);
    let mut now = SimTime::ZERO;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut req = 0u64;
    let mut audited = None;
    for record in FlJobSim::new(job.clone()) {
        store.ingest_round(now, &record);
        now += SimDuration::from_secs(45);
        if record.round.as_u32() > 0 && record.round.as_u32() % cadence == 0 {
            req += 1;
            let client = match kind.policy_class() {
                PolicyClass::P3AcrossRounds => {
                    if audited.is_none() {
                        audited = Some(record.updates[0].client);
                    }
                    audited
                }
                _ => None,
            };
            let request =
                WorkloadRequest::new(RequestId::new(req), kind, job.job, record.round, client);
            if let Ok(served) = store.serve(now, &request) {
                hits += served.measured.cache_hits as u64;
                misses += served.measured.cache_misses as u64;
            }
        }
        now += SimDuration::from_secs(45);
    }
    (hits, misses)
}

/// Table 2: cache-policy hit rates across the P2/P3/P4 workload classes.
pub fn table2(scale: Scale, _threads: usize) -> Value {
    header("Table 2 — cache-policy performance across workload classes");
    let rounds = scale.table2_rounds();
    let policies = [
        PolicyVariant::Tailored,
        PolicyVariant::Fifo,
        PolicyVariant::Lfu,
        PolicyVariant::Lru,
    ];
    // (class label, workload, request cadence in rounds)
    let classes = [
        (
            "P2 (per-round apps)",
            WorkloadKind::MaliciousFiltering,
            1u32,
        ),
        ("P3 (across-round apps)", WorkloadKind::ReputationCalc, 6u32),
        ("P4 (metadata apps)", WorkloadKind::SchedulingPerf, 1u32),
    ];
    let mut out = Vec::new();
    for (label, kind, cadence) in classes {
        subheader(label);
        println!(
            "{:<18} {:>9} {:>9} {:>9} {:>7}",
            "policy", "hits", "misses", "total", "hit%"
        );
        for variant in policies {
            let name = if variant == PolicyVariant::Tailored {
                format!("FLStore ({})", kind.policy_class().short_name())
            } else {
                variant.label().replace("FLStore-", "")
            };
            let (hits, misses) = lockstep(kind, variant, rounds, cadence);
            let total = hits + misses;
            let rate = if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            };
            println!(
                "{:<18} {:>9} {:>9} {:>9} {:>6.2}",
                name, hits, misses, total, rate
            );
            out.push(json!({
                "class": label,
                "policy": name,
                "hits": hits,
                "misses": misses,
                "total": total,
                "hit_rate": rate,
            }));
        }
    }
    println!("\n(paper: FLStore 0.98–1.00 hit rate per class; FIFO/LFU/LRU 0.00)");
    let v = json!({ "experiment": "table2", "rows": out });
    save_json("table2", &v);
    v
}

/// Fig. 18: the FLStore-Static ablation — the workload switches from model
/// inference (P1) to malicious filtering (P2); the static policy keeps
/// caching for inference and pays the miss path on every request.
pub fn fig18(scale: Scale, _threads: usize) -> Value {
    header("Fig 18 — FLStore vs FLStore-Static under a workload switch");
    let job = eval_job(ModelArch::MOBILENET_V3_SMALL, scale.rounds().min(200));
    let mut results = Vec::new();
    for variant in [PolicyVariant::Tailored, PolicyVariant::Static] {
        let mut store = flstore_for(&job, variant, 0xF5);
        let mut now = SimTime::ZERO;
        let mut sim = FlJobSim::new(job.clone());
        let mut latencies = Vec::new();
        let mut costs = Vec::new();
        let mut req = 0u64;
        // Phase 1: inference requests (both policies serve these from cache).
        // Phase 2 (after round 10): the workload switches to filtering.
        while let Some(record) = sim.next_round() {
            store.ingest_round(now, &record);
            now += SimDuration::from_secs(60);
            req += 1;
            let kind = if record.round.as_u32() < 10 {
                WorkloadKind::Inference
            } else {
                WorkloadKind::MaliciousFiltering
            };
            let request =
                WorkloadRequest::new(RequestId::new(req), kind, job.job, record.round, None);
            if let Ok(served) = store.serve(now, &request) {
                if kind == WorkloadKind::MaliciousFiltering {
                    latencies.push(served.measured.latency.total().as_secs_f64());
                    costs.push(served.measured.cost.total().as_dollars());
                }
            }
            now += SimDuration::from_secs(60);
        }
        let mean_lat = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        let mean_cost = costs.iter().sum::<f64>() / costs.len().max(1) as f64;
        println!(
            "{:<18} mean latency {:>10}   mean cost {:>12}  ({} filtering requests)",
            variant.label(),
            secs(mean_lat),
            dollars(mean_cost),
            latencies.len(),
        );
        results.push(json!({
            "policy": variant.label(),
            "mean_latency_secs": mean_lat,
            "mean_cost": mean_cost,
        }));
    }
    let lat_red = reduction_pct(
        results[1]["mean_latency_secs"].as_f64().unwrap_or(0.0),
        results[0]["mean_latency_secs"].as_f64().unwrap_or(0.0),
    );
    let cost_ratio = results[1]["mean_cost"].as_f64().unwrap_or(0.0)
        / results[0]["mean_cost"].as_f64().unwrap_or(1.0).max(1e-12);
    println!(
        "\n  adapting the policy cuts latency {lat_red:.1}% and cost {cost_ratio:.1}x \
         (paper: 99% and ~3x)"
    );
    let v = json!({
        "experiment": "fig18",
        "rows": results,
        "latency_reduction_pct": lat_red,
        "cost_ratio": cost_ratio,
    });
    save_json("fig18", &v);
    v
}
