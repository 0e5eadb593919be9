//! Motivation experiments: Fig. 1 (non-training share of per-round
//! latency), Fig. 2 (share of per-round cost), Fig. 10 (overall per-round
//! cost with vs without FLStore).

use serde_json::{json, Value};

use flstore_fl::job::{FlJobConfig, FlJobSim};
use flstore_sim::stats::reduction_pct;
use flstore_trace::driver::{DriveReport, TraceConfig};
use flstore_trace::scenario::{flstore_for, objstore_agg, PolicyVariant};
use flstore_workloads::taxonomy::WorkloadKind;

use crate::util::{dollars, drive_unit, header, save_json, secs, Scale};

/// Aggregator-side seconds spent per training round (receiving updates and
/// running FedAvg) — the only part of training the aggregator bills for.
const AGGREGATION_SECS: f64 = 12.0;

struct TrainingProfile {
    /// Mean wall-clock seconds per training round (slowest participant).
    round_secs: f64,
    /// Aggregator cost per training round (dollars).
    round_cost: f64,
}

fn training_profile(scale: Scale) -> TrainingProfile {
    let job = FlJobConfig {
        rounds: scale.rounds().min(200), // the trajectory stabilizes quickly
        ..FlJobConfig::motivation(flstore_fl::ids::JobId::new(1))
    };
    let records: Vec<_> = FlJobSim::new(job).collect();
    let round_secs = records
        .iter()
        .map(|r| r.metrics.training_round_secs + AGGREGATION_SECS)
        .sum::<f64>()
        / records.len() as f64;
    // The aggregator is busy for the aggregation slice of each round.
    let vm = flstore_cloud::pricing::VmPricing::ML_M5_4XLARGE;
    let round_cost = vm
        .duration(flstore_sim::time::SimDuration::from_secs_f64(
            AGGREGATION_SECS,
        ))
        .as_dollars();
    TrainingProfile {
        round_secs,
        round_cost,
    }
}

fn per_kind_means(report: &DriveReport) -> Vec<(WorkloadKind, f64, f64)> {
    let n = report.outcomes.len().max(1);
    let infra_share = report.infra_cost.as_dollars() / n as f64;
    WorkloadKind::ALL
        .iter()
        .filter_map(|kind| {
            let outcomes = report.by_kind(*kind);
            if outcomes.is_empty() {
                return None;
            }
            let lat = outcomes
                .iter()
                .map(|o| o.latency.total().as_secs_f64())
                .sum::<f64>()
                / outcomes.len() as f64;
            let cost = outcomes
                .iter()
                .map(|o| o.cost.total().as_dollars() + infra_share)
                .sum::<f64>()
                / outcomes.len() as f64;
            Some((*kind, lat, cost))
        })
        .collect()
}

/// Figs. 1, 2, 10 share one pair of drives (ObjStore-Agg and FLStore on the
/// motivation job), so they are produced together.
pub fn fig1_fig2_fig10(scale: Scale, threads: usize) -> Value {
    header("Fig 1/2/10 — non-training share of per-round latency and cost");
    println!("setup: 200-client pool, EfficientNetV2-S, CIFAR-10-class job\n");

    let training = training_profile(scale);
    let job = FlJobConfig {
        rounds: scale.rounds(),
        ..FlJobConfig::motivation(flstore_fl::ids::JobId::new(1))
    };
    let trace = TraceConfig {
        seed: 0xCAFE,
        requests: scale.requests(),
        window: scale.window(),
        kinds: WorkloadKind::ALL.to_vec(),
        events: None,
    };
    let (base_report, _) = drive_unit(objstore_agg(&job), &job, &trace, threads);
    let (fl_report, _) = drive_unit(
        flstore_for(&job, PolicyVariant::Tailored, 0xF2),
        &job,
        &trace,
        threads,
    );

    let base_rows = per_kind_means(&base_report);
    let fl_rows = per_kind_means(&fl_report);

    println!(
        "{:<20} {:>11} {:>11} {:>8} | {:>11} {:>11} {:>8}",
        "application", "train s", "nontrain s", "share%", "train $", "nontrain $", "share%"
    );
    let mut rows = Vec::new();
    for (kind, lat, cost) in &base_rows {
        let lat_share = lat / (lat + training.round_secs) * 100.0;
        let cost_share = cost / (cost + training.round_cost) * 100.0;
        println!(
            "{:<20} {:>11} {:>11} {:>7.0}% | {:>11} {:>11} {:>7.0}%",
            kind.label(),
            secs(training.round_secs),
            secs(*lat),
            lat_share,
            dollars(training.round_cost),
            dollars(*cost),
            cost_share,
        );
        rows.push(json!({
            "workload": kind.label(),
            "training_secs": training.round_secs,
            "nontraining_secs": lat,
            "latency_share_pct": lat_share,
            "training_cost": training.round_cost,
            "nontraining_cost": cost,
            "cost_share_pct": cost_share,
        }));
    }

    crate::util::subheader("Fig 10 — per-round cost with vs without FLStore");
    println!(
        "{:<20} {:>13} {:>13} {:>9}",
        "application", "without", "with FLStore", "reduce%"
    );
    let mut fig10 = Vec::new();
    for ((kind, _, base_cost), (_, _, fl_cost)) in base_rows.iter().zip(&fl_rows) {
        let without = training.round_cost + base_cost;
        let with = training.round_cost + fl_cost;
        println!(
            "{:<20} {:>13} {:>13} {:>8.0}%",
            kind.label(),
            dollars(without),
            dollars(with),
            reduction_pct(without, with),
        );
        fig10.push(json!({
            "workload": kind.label(),
            "without_flstore": without,
            "with_flstore": with,
            "reduction_pct": reduction_pct(without, with),
        }));
    }

    let v = json!({
        "experiment": "fig1_fig2_fig10",
        "training_round_secs": training.round_secs,
        "training_round_cost": training.round_cost,
        "fig1_fig2": rows,
        "fig10": fig10,
    });
    save_json("fig1_fig2_fig10", &v);
    v
}
