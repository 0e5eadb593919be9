//! Headline comparisons: Figs. 7, 8 (FLStore vs ObjStore-Agg per request),
//! Fig. 9 + 17 (vs Cache-Agg), Figs. 15, 16 (total time/cost breakups).

use serde_json::{json, Value};

use flstore_fl::zoo::ModelArch;
use flstore_sim::stats::{reduction_pct, Summary};
use flstore_trace::driver::DriveReport;
use flstore_trace::scenario::{cache_agg, eval_job, flstore_for, objstore_agg, PolicyVariant};
use flstore_workloads::taxonomy::WorkloadKind;

use crate::util::{dollars, drive_unit, header, save_json, secs, subheader, Scale};

/// Per-workload latency and amortized-cost summaries of one drive.
fn kind_rows(report: &DriveReport, kinds: &[WorkloadKind]) -> Vec<Value> {
    let n = report.outcomes.len().max(1);
    let infra_share = report.infra_cost.as_dollars() / n as f64;
    kinds
        .iter()
        .filter_map(|kind| {
            let lat: Vec<f64> = report
                .by_kind(*kind)
                .iter()
                .map(|o| o.latency.total().as_secs_f64())
                .collect();
            let cost: Vec<f64> = report
                .by_kind(*kind)
                .iter()
                .map(|o| o.cost.total().as_dollars() + infra_share)
                .collect();
            let lat = Summary::from_values(&lat)?;
            let cost = Summary::from_values(&cost)?;
            Some(json!({
                "workload": kind.label(),
                "latency": { "mean": lat.mean, "p25": lat.p25, "p50": lat.p50,
                              "p75": lat.p75, "max": lat.max },
                "cost": { "mean": cost.mean, "p50": cost.p50, "max": cost.max },
            }))
        })
        .collect()
}

fn print_rows(label_a: &str, rows_a: &[Value], label_b: &str, rows_b: &[Value], money: bool) {
    println!(
        "{:<20} {:>12} {:>12} {:>10} | {:>12} {:>12}",
        "workload",
        format!("{label_a} mean"),
        "p50",
        "reduce%",
        format!("{label_b} mean"),
        "p50"
    );
    for (a, b) in rows_a.iter().zip(rows_b) {
        let field = if money { "cost" } else { "latency" };
        let fmt = |v: f64| if money { dollars(v) } else { secs(v) };
        let mean_a = a[field]["mean"].as_f64().unwrap_or(0.0);
        let mean_b = b[field]["mean"].as_f64().unwrap_or(0.0);
        println!(
            "{:<20} {:>12} {:>12} {:>9.1}% | {:>12} {:>12}",
            a["workload"].as_str().unwrap_or("?"),
            fmt(mean_a),
            fmt(a[field]["p50"].as_f64().unwrap_or(0.0)),
            reduction_pct(mean_b, mean_a),
            fmt(mean_b),
            fmt(b[field]["p50"].as_f64().unwrap_or(0.0)),
        );
    }
}

fn run_pair(
    model: ModelArch,
    scale: Scale,
    threads: usize,
    baseline: &str,
) -> (DriveReport, DriveReport) {
    let job = eval_job(model, scale.rounds());
    let trace = flstore_trace::driver::TraceConfig {
        seed: 0xBEEF,
        requests: scale.requests(),
        window: scale.window(),
        kinds: if baseline == "cache" {
            WorkloadKind::CACHE_AGG_SET.to_vec()
        } else {
            WorkloadKind::ALL.to_vec()
        },
        events: None,
    };
    let (fl_report, _) = drive_unit(
        flstore_for(&job, PolicyVariant::Tailored, 0xF1),
        &job,
        &trace,
        threads,
    );
    let base_report = if baseline == "cache" {
        drive_unit(cache_agg(&job), &job, &trace, threads).0
    } else {
        drive_unit(objstore_agg(&job), &job, &trace, threads).0
    };
    (fl_report, base_report)
}

/// Fig. 7 (latency) and Fig. 8 (cost): FLStore vs ObjStore-Agg per request,
/// ten workloads, four models.
pub fn fig7_fig8(scale: Scale, threads: usize) -> Value {
    header("Fig 7/8 — FLStore vs ObjStore-Agg: per-request latency and cost");
    let mut out = Vec::new();
    for model in ModelArch::EVALUATION {
        subheader(&format!("model: {}", model.name));
        let (fl, base) = run_pair(model, scale, threads, "objstore");
        let fl_rows = kind_rows(&fl, &WorkloadKind::ALL);
        let base_rows = kind_rows(&base, &WorkloadKind::ALL);
        println!("latency:");
        print_rows("FLStore", &fl_rows, "ObjStore", &base_rows, false);
        println!("cost (infra amortized):");
        print_rows("FLStore", &fl_rows, "ObjStore", &base_rows, true);

        let fl_lat = fl.latency_summary().expect("served");
        let base_lat = base.latency_summary().expect("served");
        let fl_cost = fl.amortized_cost_summary().expect("served");
        let base_cost = base.amortized_cost_summary().expect("served");
        println!(
            "\n  overall: latency {} -> {} ({:.1}% less), cost {} -> {} ({:.1}% less)",
            secs(base_lat.mean),
            secs(fl_lat.mean),
            reduction_pct(base_lat.mean, fl_lat.mean),
            dollars(base_cost.mean),
            dollars(fl_cost.mean),
            reduction_pct(base_cost.mean, fl_cost.mean),
        );
        out.push(json!({
            "model": model.name,
            "flstore": fl_rows,
            "objstore_agg": base_rows,
            "overall": {
                "latency_reduction_pct": reduction_pct(base_lat.mean, fl_lat.mean),
                "cost_reduction_pct": reduction_pct(base_cost.mean, fl_cost.mean),
                "flstore_hit_rate": fl.hit_rate(),
            },
        }));
    }
    let v = json!({ "experiment": "fig7_fig8", "models": out });
    save_json("fig7_fig8", &v);
    v
}

/// Fig. 9 (per request) and Fig. 17 (window totals): FLStore vs Cache-Agg,
/// six workloads, EfficientNet.
pub fn fig9_fig17(scale: Scale, threads: usize) -> Value {
    header("Fig 9/17 — FLStore vs Cache-Agg (ElastiCache-class data plane)");
    let (fl, base) = run_pair(ModelArch::EFFICIENTNET_V2_S, scale, threads, "cache");
    let fl_rows = kind_rows(&fl, &WorkloadKind::CACHE_AGG_SET);
    let base_rows = kind_rows(&base, &WorkloadKind::CACHE_AGG_SET);
    println!("latency:");
    print_rows("FLStore", &fl_rows, "Cache-Agg", &base_rows, false);
    println!("cost (infra amortized):");
    print_rows("FLStore", &fl_rows, "Cache-Agg", &base_rows, true);

    let fl_lat = fl.latency_summary().expect("served");
    let base_lat = base.latency_summary().expect("served");
    let fl_cost = fl.amortized_cost_summary().expect("served");
    let base_cost = base.amortized_cost_summary().expect("served");

    subheader("Fig 17 — window totals");
    let fl_hours: f64 = fl
        .outcomes
        .iter()
        .map(|o| o.latency.total().as_hours_f64())
        .sum();
    let base_hours: f64 = base
        .outcomes
        .iter()
        .map(|o| o.latency.total().as_hours_f64())
        .sum();
    println!(
        "  accumulated request time: Cache-Agg {base_hours:.2} h vs FLStore {fl_hours:.2} h \
         ({:.1}% less)",
        reduction_pct(base_hours, fl_hours)
    );
    let fl_total = fl.total_cost.total().as_dollars();
    let base_total = base.total_cost.total().as_dollars();
    println!(
        "  window cost: Cache-Agg {} vs FLStore {} ({:.1}% less, {} saved)",
        dollars(base_total),
        dollars(fl_total),
        reduction_pct(base_total, fl_total),
        dollars(base_total - fl_total),
    );

    let v = json!({
        "experiment": "fig9_fig17",
        "flstore": fl_rows,
        "cache_agg": base_rows,
        "overall": {
            "latency_reduction_pct": reduction_pct(base_lat.mean, fl_lat.mean),
            "cost_reduction_pct": reduction_pct(base_cost.mean, fl_cost.mean),
            "window_hours": { "cache_agg": base_hours, "flstore": fl_hours },
            "window_cost": { "cache_agg": base_total, "flstore": fl_total },
        },
    });
    save_json("fig9_fig17", &v);
    v
}

/// Figs. 15/16: total time and cost breakup (communication vs computation)
/// over the window, per model.
pub fn fig15_fig16(scale: Scale, threads: usize) -> Value {
    header("Fig 15/16 — total time and cost breakup over the window");
    let mut out = Vec::new();
    println!(
        "{:<26} {:>11} {:>11} {:>11} | {:>11} {:>11}",
        "model", "base comm", "base comp", "FLStore", "base $", "FLStore $"
    );
    for model in ModelArch::EVALUATION {
        let (fl, base) = run_pair(model, scale, threads, "objstore");
        let base_comm: f64 = base
            .outcomes
            .iter()
            .map(|o| o.latency.communication.as_hours_f64())
            .sum();
        let base_comp: f64 = base
            .outcomes
            .iter()
            .map(|o| (o.latency.computation + o.latency.queueing).as_hours_f64())
            .sum();
        let fl_total: f64 = fl
            .outcomes
            .iter()
            .map(|o| o.latency.total().as_hours_f64())
            .sum();
        let base_cost = base.total_cost.total().as_dollars();
        let fl_cost = fl.total_cost.total().as_dollars();
        println!(
            "{:<26} {:>10.2}h {:>10.2}h {:>10.2}h | {:>11} {:>11}",
            model.name,
            base_comm,
            base_comp,
            fl_total,
            dollars(base_cost),
            dollars(fl_cost),
        );
        out.push(json!({
            "model": model.name,
            "objstore_agg": {
                "comm_hours": base_comm,
                "comp_hours": base_comp,
                "comm_fraction": base_comm / (base_comm + base_comp).max(1e-12),
                "total_cost": base_cost,
                "comm_cost": base.total_cost.communication().as_dollars(),
            },
            "flstore": { "total_hours": fl_total, "total_cost": fl_cost },
            "time_reduction_pct": reduction_pct(base_comm + base_comp, fl_total),
            "cost_reduction_pct": reduction_pct(base_cost, fl_cost),
        }));
    }
    println!("\n(the baseline is communication-bound; FLStore's total sits near the");
    println!(" baseline's computation column, as in the paper's Figs. 15–16)");
    let v = json!({ "experiment": "fig15_fig16", "models": out });
    save_json("fig15_fig16", &v);
    v
}
