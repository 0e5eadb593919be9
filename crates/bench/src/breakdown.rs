//! Fig. 4: communication vs computation latency of non-training workloads
//! when a serverless function fetches its inputs from a cloud object store
//! (the paper's §2.3 measurement that motivates unifying the planes).

use serde_json::{json, Value};

use flstore_cloud::network::NetworkProfile;
use flstore_fl::zoo::ModelArch;
use flstore_serverless::function::FunctionConfig;
use flstore_sim::bytes::ByteSize;
use flstore_workloads::taxonomy::WorkloadKind;

use crate::util::{header, save_json, secs, Scale};

/// The five workloads and three models of the paper's Fig. 4.
const FIG4_WORKLOADS: [WorkloadKind; 5] = [
    WorkloadKind::CosineSimilarity,
    WorkloadKind::Debugging,
    WorkloadKind::Inference,
    WorkloadKind::MaliciousFiltering,
    WorkloadKind::SchedulingCluster,
];

const FIG4_MODELS: [ModelArch; 3] = [
    ModelArch::RESNET18,
    ModelArch::EFFICIENTNET_V2_S,
    ModelArch::MOBILENET_V3_SMALL,
];

/// Inputs per request: a 10-client round of updates plus the aggregate.
const ROUND_OBJECTS: usize = 11;

pub(crate) fn comm_comp(kind: WorkloadKind, model: &ModelArch) -> (f64, f64) {
    let round_bytes = ByteSize::from_mb_f64(model.size_mb) * ROUND_OBJECTS as u64;
    let comm = NetworkProfile::OBJECT_STORE
        .batch_transfer_time(ROUND_OBJECTS, round_bytes, 10)
        .as_secs_f64();
    let function = if model.size_mb > 50.0 {
        FunctionConfig::LARGE
    } else {
        FunctionConfig::SMALL
    };
    let comp = kind
        .work_units(ROUND_OBJECTS, model.compute_scale())
        .duration_on(function.compute_profile())
        .as_secs_f64();
    (comm, comp)
}

/// Fig. 4: per-workload communication and computation latency.
pub fn fig4(_scale: Scale, _threads: usize) -> Value {
    header("Fig 4 — communication vs computation latency of non-training workloads");
    println!("(serverless function compute; inputs fetched from the object store)\n");
    println!(
        "{:<20} {:>16} {:>12} {:>12}",
        "workload", "model", "comm", "comp"
    );
    let mut rows = Vec::new();
    let mut comm_sum = 0.0;
    let mut comp_sum = 0.0;
    let mut count = 0.0;
    for kind in FIG4_WORKLOADS {
        for model in &FIG4_MODELS {
            let (comm, comp) = comm_comp(kind, model);
            println!(
                "{:<20} {:>16} {:>12} {:>12}",
                kind.label(),
                model.name,
                secs(comm),
                secs(comp)
            );
            comm_sum += comm;
            comp_sum += comp;
            count += 1.0;
            rows.push(json!({
                "workload": kind.label(),
                "model": model.name,
                "comm_secs": comm,
                "comp_secs": comp,
            }));
        }
    }
    let avg_comm = comm_sum / count;
    let avg_comp = comp_sum / count;
    println!(
        "\n  averages: comm {} | comp {} | ratio {:.0}x  (paper: 89 s vs 2.8 s ≈ 31x)",
        secs(avg_comm),
        secs(avg_comp),
        avg_comm / avg_comp.max(1e-9),
    );
    let v = json!({
        "experiment": "fig4",
        "rows": rows,
        "avg_comm_secs": avg_comm,
        "avg_comp_secs": avg_comp,
    });
    save_json("fig4", &v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficientnet_round_fetch_near_paper() {
        let (comm, comp) = comm_comp(
            WorkloadKind::MaliciousFiltering,
            &ModelArch::EFFICIENTNET_V2_S,
        );
        assert!((80.0..105.0).contains(&comm), "comm {comm}");
        assert!(comp < 5.0, "comp {comp}");
    }

    #[test]
    fn communication_dominates_everywhere() {
        for kind in FIG4_WORKLOADS {
            for model in &FIG4_MODELS {
                let (comm, comp) = comm_comp(kind, model);
                assert!(comm > comp, "{kind} on {}: {comm} vs {comp}", model.name);
            }
        }
    }
}
