//! Inventory experiments: Fig. 19 (model memory footprints), Table 1 (the
//! taxonomy), the §2.2/§4.4 capacity analysis, and the §5.5 component
//! overheads.

use serde_json::{json, Value};

use flstore_core::engine::CacheEngine;
use flstore_core::tracker::RequestTracker;
use flstore_fl::ids::{ClientId, JobId, Round};
use flstore_fl::job::FlJobConfig;
use flstore_fl::metadata::MetaKey;
use flstore_fl::zoo::{average_size, ModelArch, ZOO};
use flstore_serverless::function::{FunctionConfig, FunctionId};
use flstore_sim::bytes::ByteSize;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::RequestId;
use flstore_workloads::taxonomy::WorkloadKind;

use crate::util::{dollars, header, save_json, subheader, Scale};

/// Fig. 19: serialized footprint of the 23-model zoo.
pub fn fig19(_scale: Scale) -> Value {
    header("Fig 19 — memory footprint of models commonly used in FL");
    let mut models: Vec<&ModelArch> = ZOO.iter().collect();
    models.sort_by(|a, b| a.size_mb.partial_cmp(&b.size_mb).expect("finite"));
    for m in &models {
        let bar_len = (m.size_mb / 10.0).round() as usize;
        println!(
            "{:<22} {:>8.1} MB {}",
            m.name,
            m.size_mb,
            "#".repeat(bar_len)
        );
    }
    let avg = average_size();
    println!(
        "\n  average: {:.2} MB (paper: 160.88 MB; torchvision fp32 checkpoints)",
        avg.as_mb_f64()
    );
    println!("  every model fits a 10 GB function; most fit a 2 GB one.");
    let v = json!({
        "experiment": "fig19",
        "models": ZOO.iter().map(|m| json!({
            "name": m.name, "params_m": m.params_m, "size_mb": m.size_mb,
        })).collect::<Vec<_>>(),
        "average_mb": avg.as_mb_f64(),
    });
    save_json("fig19", &v);
    v
}

/// Table 1: the workload taxonomy and policy mapping.
pub fn table1(_scale: Scale) -> Value {
    header("Table 1 — taxonomy of non-training workloads and policy mapping");
    println!("{:<6} {:<28} workloads", "class", "data need");
    let classes = [
        (
            flstore_workloads::taxonomy::PolicyClass::P1IndividualOrAggregate,
            "individual / aggregated model",
        ),
        (
            flstore_workloads::taxonomy::PolicyClass::P2AllUpdatesInRound,
            "all updates in a round",
        ),
        (
            flstore_workloads::taxonomy::PolicyClass::P3AcrossRounds,
            "client updates across rounds",
        ),
        (
            flstore_workloads::taxonomy::PolicyClass::P4Metadata,
            "metadata & hyperparameters",
        ),
    ];
    let mut rows = Vec::new();
    for (class, need) in classes {
        let members: Vec<&str> = WorkloadKind::ALL
            .iter()
            .filter(|k| k.policy_class() == class)
            .map(|k| k.label())
            .collect();
        println!(
            "{:<6} {:<28} {}",
            class.short_name(),
            need,
            members.join(", ")
        );
        rows.push(json!({
            "class": class.short_name(),
            "data_need": need,
            "workloads": members,
        }));
    }
    let v = json!({ "experiment": "table1", "rows": rows });
    save_json("table1", &v);
    v
}

/// §2.2 / §4.4 capacity analysis: raw metadata volumes vs the tailored hot
/// set, with monthly prices.
pub fn capacity(_scale: Scale) -> Value {
    header("Capacity analysis (§2.2, §4.4) — metadata volume and cache cost");
    let model = ModelArch::EFFICIENTNET_V2_S;

    // §2.2: 100 jobs, 10 clients/round, CIFAR-10-class training.
    let job = FlJobConfig::paper_eval(JobId::new(1), model);
    let per_job = job.round_metadata_bytes() * u64::from(job.rounds);
    let hundred_jobs = per_job * 100;
    println!(
        "one 1000-round job emits {per_job} of metadata; 100 jobs: {hundred_jobs} \
         (paper: >1500 TB including datasets)"
    );

    // §4.4: 1000 clients x 1000 rounds on EfficientNet.
    let big_round = model.size() * 1000 + ByteSize::from_kb(100);
    let big_total = big_round * 1000;
    let lambda_gb = FunctionConfig::MAX.memory.as_gb_f64();
    let functions_needed = (big_total.as_gb_f64() / lambda_gb).ceil();
    println!(
        "\n1000-client x 1000-round job: {big_total} total ({} functions to hold it all)",
        functions_needed
    );

    // Keeping everything warm vs the tailored working set.
    let warm_memory_price = 0.09 / 30.0 / 24.0; // $/GB-hour proxy via provisioned-memory pricing
    let all_hot_hourly = big_total.as_gb_f64() * warm_memory_price;
    let working_set = job.round_metadata_bytes() * 2; // keep_rounds = 2
    let tailored_fns = (working_set.as_gb_f64() / 3.75).ceil().max(1.0);
    println!(
        "keeping it all warm: ~{}/h; tailored hot set: {working_set} on {tailored_fns} \
         functions (paper: 1.2 GB on 2 functions)",
        dollars(all_hot_hourly)
    );

    // Persistent storage is the cheap plane.
    let s3 = flstore_cloud::pricing::ObjectStorePricing::AWS_S3;
    let s3_month = s3.storage(per_job, SimDuration::from_hours(730));
    println!(
        "object-store rent for one job's metadata: {}/month",
        dollars(s3_month.as_dollars())
    );

    let v = json!({
        "experiment": "capacity",
        "per_job_bytes": per_job.as_bytes(),
        "hundred_jobs_tb": hundred_jobs.as_tb_f64(),
        "big_job_tb": big_total.as_tb_f64(),
        "tailored_working_set_gb": working_set.as_gb_f64(),
        "s3_month_dollars": s3_month.as_dollars(),
    });
    save_json("capacity", &v);
    v
}

/// §5.5 component overheads: Cache Engine and Request Tracker resident
/// memory at 1k and 100k in-flight requests.
///
/// `estimated_memory` is a pure function of the entries, so this is a
/// deterministic figure. The per-operation latency the paper also reports
/// is a wall-clock fact measured by `benchmark/`:
/// `core.tracker.dispatch_complete_ns` and `core.engine.record_ns`.
pub fn overhead(_scale: Scale) -> Value {
    header("§5.5 — Cache Engine and Request Tracker overhead");
    let mut out = Vec::new();
    for n in [1_000usize, 100_000] {
        subheader(&format!("{n} concurrent requests"));
        // Request Tracker.
        let tracker = RequestTracker::new();
        for i in 0..n {
            tracker.dispatch(
                RequestId::new(i as u64),
                vec![FunctionId::from_raw(i as u64 % 64)],
            );
        }
        for i in 0..n {
            tracker.complete(RequestId::new(i as u64));
        }
        let tracker_mem = tracker.estimated_memory();

        // Cache Engine.
        let mut engine = CacheEngine::new();
        for i in 0..n {
            let key = MetaKey::update(
                JobId::new(1),
                Round::new(i as u32 / 16),
                ClientId::new(i as u32 % 16),
            );
            engine.record(
                key,
                vec![FunctionId::from_raw(i as u64 % 64)],
                ByteSize::from_mb(83),
                SimTime::ZERO,
            );
        }
        let engine_mem = engine.estimated_memory();

        println!("  Request Tracker: {tracker_mem} resident");
        println!("  Cache Engine:    {engine_mem} resident");
        out.push(json!({
            "requests": n,
            "tracker_bytes": tracker_mem.as_bytes(),
            "engine_bytes": engine_mem.as_bytes(),
        }));
    }
    println!("\n(paper: 0.19 MB / 0.6 MB at 1k requests, 20.3 MB / 63.2 MB at 100k,");
    println!(" all operations under one millisecond; this build's operation latency is");
    println!(" measured by benchmark/: core.tracker.dispatch_complete_ns, core.engine.record_ns)");
    let v = json!({ "experiment": "overhead", "rows": out });
    save_json("overhead", &v);
    v
}
