//! Same-bytes regression net for the workload kernels.
//!
//! Every `execute` outcome's `Debug` text is folded into an FNV-1a digest
//! and compared with a pinned value, for all ten `WorkloadKind`s at three
//! request seeds on two round shapes:
//!
//! * the benchmark's heavy round, 48 clients × 4096 dims;
//! * a ragged round, 7 clients × 1027 dims, so multi-row reductions see
//!   a short last panel and a dimension that is not a multiple of 4
//!   (clustering still runs at its default k = 5);
//! * a mid round, 16 clients × 1024 dims, the shape the durable-ingest
//!   and cluster-failover benchmark workloads serve.
//!
//! `Debug` prints every f64 in its shortest round-trip form, so a digest
//! moves when any result bit moves. A kernel rewrite must keep all of
//! them; a change that means to move a byte re-pins them and says why.

use std::collections::BTreeMap;

use flstore_fl::ids::JobId;
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_fl::metadata::{MetaKey, MetaValue};
use flstore_fl::zoo::ModelArch;
use flstore_workloads::request::{JobCatalog, RequestId};
use flstore_workloads::taxonomy::PolicyClass;
use flstore_workloads::{execute, WorkloadKind, WorkloadRequest};

/// Request ids the kernels derive their seeds from.
const REQUEST_SEEDS: [u64; 3] = [1, 0xBEEF, 0x5EED_0000_0003];

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A generated job: its rounds and every value addressable by key.
struct Fixture {
    job: JobId,
    model: ModelArch,
    records: Vec<RoundRecord>,
    values: BTreeMap<MetaKey, MetaValue>,
}

fn round(clients: u32, dim: usize, rounds: u32, malicious_fraction: f64, seed: u64) -> Fixture {
    let job = JobId::new(1);
    let model = ModelArch::RESNET18;
    let cfg = FlJobConfig {
        total_clients: clients * 2,
        clients_per_round: clients,
        rounds,
        weight_dim: dim,
        malicious_fraction,
        seed,
        ..FlJobConfig::paper_eval(job, model)
    };
    let records: Vec<RoundRecord> = FlJobSim::new(cfg).collect();
    let mut values = BTreeMap::new();
    for r in &records {
        let all = r.updates.iter().cloned().map(MetaValue::Update).chain([
            MetaValue::Aggregate(r.aggregate.clone()),
            MetaValue::Hyper(r.hyperparams.clone()),
            MetaValue::Metrics(r.metrics.clone()),
        ]);
        for v in all {
            values.insert(v.keyed_for(job), v);
        }
    }
    Fixture {
        job,
        model,
        records,
        values,
    }
}

/// Digest of every seed's outcome for `kind` on the newest round.
fn digest(fixture: &Fixture, kind: WorkloadKind) -> u64 {
    let mut catalog = JobCatalog::new(fixture.job, fixture.model);
    for r in &fixture.records {
        catalog.observe_round(r);
    }
    let newest = fixture.records.last().expect("rounds");
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for seed in REQUEST_SEEDS {
        let client = matches!(kind.policy_class(), PolicyClass::P3AcrossRounds)
            .then(|| newest.updates[seed as usize % newest.updates.len()].client);
        let request = WorkloadRequest::new(
            RequestId::new(seed),
            kind,
            fixture.job,
            newest.round,
            client,
        );
        let values: Vec<&MetaValue> = catalog
            .data_needs(&request)
            .iter()
            .filter_map(|k| fixture.values.get(k))
            .collect();
        let outcome = execute(&request, &values, fixture.model.compute_scale())
            .unwrap_or_else(|e| panic!("{kind:?} at seed {seed}: {e}"));
        hash = fnv1a(hash, format!("{outcome:?}").as_bytes());
    }
    hash
}

fn check(fixture: &Fixture, pinned: &[(WorkloadKind, u64); 10]) {
    let mut drifted = Vec::new();
    for (kind, want) in pinned {
        let got = digest(fixture, *kind);
        if got != *want {
            drifted.push(format!("{kind:?}: pinned {want:#018x}, got {got:#018x}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "kernel outputs drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn heavy_round_outcomes_are_pinned() {
    check(
        &round(48, 4096, 4, 0.1, 0x4EA7),
        &[
            (WorkloadKind::Inference, 0x2b1d_a65f_c8d8_c63e),
            (WorkloadKind::Personalized, 0xbe9d_3a4d_974e_781a),
            (WorkloadKind::Clustering, 0x4546_fa7a_999b_3385),
            (WorkloadKind::MaliciousFiltering, 0x0677_a5c7_06da_0e32),
            (WorkloadKind::CosineSimilarity, 0x5fa6_219a_6c16_0174),
            (WorkloadKind::SchedulingCluster, 0xed6a_b2d7_9ef6_6767),
            (WorkloadKind::Incentives, 0x6d22_08e4_5ee7_10b1),
            (WorkloadKind::Debugging, 0x5bcf_2d84_7955_7637),
            (WorkloadKind::ReputationCalc, 0xba9e_9443_c565_5f49),
            (WorkloadKind::SchedulingPerf, 0xacf0_70f4_0dfb_3c69),
        ],
    );
}

#[test]
fn ragged_round_outcomes_are_pinned() {
    check(
        &round(7, 1027, 5, 0.3, 0x7A66),
        &[
            (WorkloadKind::Inference, 0x9876_9157_e0aa_d884),
            (WorkloadKind::Personalized, 0x6379_1525_6ec3_393e),
            (WorkloadKind::Clustering, 0xfe4c_6ba1_e7de_4639),
            (WorkloadKind::MaliciousFiltering, 0x61ff_a8bd_7719_1ec2),
            (WorkloadKind::CosineSimilarity, 0x8179_a779_efe4_7fc2),
            (WorkloadKind::SchedulingCluster, 0x7536_bd79_1b01_7847),
            (WorkloadKind::Incentives, 0x4d71_2453_671c_f519),
            (WorkloadKind::Debugging, 0xfb7c_d298_4321_98e4),
            (WorkloadKind::ReputationCalc, 0x7c1d_f2d2_50fa_1842),
            (WorkloadKind::SchedulingPerf, 0xa99d_8a08_a748_6b48),
        ],
    );
}

#[test]
fn mid_round_outcomes_are_pinned() {
    check(
        &round(16, 1024, 4, 0.2, 0x16D0),
        &[
            (WorkloadKind::Inference, 0x86ab_63af_8bfc_976f),
            (WorkloadKind::Personalized, 0x5479_10f8_5ccf_05f0),
            (WorkloadKind::Clustering, 0x4045_e5e4_3fd7_26b3),
            (WorkloadKind::MaliciousFiltering, 0x0630_56eb_a538_f323),
            (WorkloadKind::CosineSimilarity, 0x4919_e62f_b20e_5120),
            (WorkloadKind::SchedulingCluster, 0x5cef_3bdf_bc83_32c9),
            (WorkloadKind::Incentives, 0x845a_b927_28b0_cabd),
            (WorkloadKind::Debugging, 0x9a5d_ca5d_69a8_1b1d),
            (WorkloadKind::ReputationCalc, 0x7eab_cdd2_6cff_ae9f),
            (WorkloadKind::SchedulingPerf, 0x0605_a8db_615c_661a),
        ],
    );
}
