//! Durability plane experiment: crash recovery and the disk-spill cold
//! tier (ROADMAP item 2).
//!
//! Two phases, both fully deterministic (no wall-clock fields — the
//! whole output sits behind the sequential-vs-`--threads N` byte-diff
//! gate):
//!
//! 1. **Recovery drill** — a durable deployment serves the first half of
//!    a synthetic trace, is killed (dropped mid-run), recovered from its
//!    ledger, and serves the second half. An uninterrupted twin serves
//!    the whole trace; the response checksums of the two second halves
//!    must be identical, byte for byte. Ledger geometry (records,
//!    segments, bytes) is reported as measured facts.
//! 2. **Spill-vs-evict sweep** — under a tight strict quota, pressure
//!    victims either drop (evict) or spill to the cold tier (spill). The
//!    sweep reports hit rates, cold-tier faults, and the simulated
//!    serve-path communication latency and cost each mode pays.

use flstore_core::api::{Request, Response, Service};
use flstore_core::durable::DurabilityConfig;
use flstore_core::policy::TailoredPolicy;
use flstore_core::quota::TenantQuota;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_durability::records::parse_ledger;
use flstore_durability::recover::{attach, recover};
use flstore_durability::testkit::DetTempDir;
use flstore_durability::ACTIVE_LEDGER;
use flstore_exec::ShardedExecutor;
use flstore_fl::ids::JobId;
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_net::codec::encode_response;
use flstore_sim::bytes::ByteSize;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_trace::driver::{materialize_schedule, TraceConfig};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::WorkloadKind;
use serde_json::{json, Value};

use crate::util::{header, save_json, subheader, Scale};

fn drill_config(durability: DurabilityConfig) -> (FlJobConfig, FlStoreConfig) {
    let job = FlJobConfig::quick_test(JobId::new(1));
    let cfg = FlStoreConfig {
        durability,
        ..FlStoreConfig::for_model(&job.model)
    };
    (job, cfg)
}

fn fresh_store(cfg: &FlStoreConfig, job: &FlJobConfig) -> FlStore {
    FlStore::new(
        cfg.clone(),
        Box::new(TailoredPolicy::new()),
        job.job,
        job.model,
    )
}

/// Wraps `store` in an executor on `threads` kernel threads, like
/// every other experiment: the executor is bit-for-bit equivalent to
/// sequential submission, so nothing in this experiment's output may
/// move.
fn service_of(store: FlStore, threads: usize) -> ShardedExecutor<FlStore> {
    ShardedExecutor::new(vec![store], threads)
}

/// FNV-1a over each response's canonical wire encoding, in submission
/// order — the same payload-fact checksum the load generator reports.
fn drive(service: &mut dyn Service, slice: &[(SimTime, Request)]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (now, request) in slice {
        let response = service.submit(*now, request.clone());
        let (tag, payload) = encode_response(&response);
        for byte in std::iter::once(tag).chain(payload) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Ledger geometry on disk: (records, segment files, total bytes).
fn ledger_geometry(dir: &std::path::Path) -> (usize, usize, u64) {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("ledger dir readable")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| (n.starts_with("segment-") && n.ends_with(".log")) || n == ACTIVE_LEDGER)
        .collect();
    names.sort_unstable();
    let mut records = 0usize;
    let mut bytes = 0u64;
    let mut segments = 0usize;
    for name in names {
        let data = std::fs::read(dir.join(&name)).expect("ledger file readable");
        bytes += data.len() as u64;
        records += parse_ledger(&data).expect("intact ledger").records.len();
        if name != ACTIVE_LEDGER {
            segments += 1;
        }
    }
    (records, segments, bytes)
}

/// The `durability` experiment: crash-recovery drill, then the
/// spill-vs-evict cold-tier sweep.
pub fn durability(scale: Scale, threads: usize) -> Value {
    header("Durability plane: crash recovery and the disk-spill cold tier");

    // Phase 1: ingest/serve, kill mid-trace, recover, serve the rest.
    let durability_cfg = DurabilityConfig {
        flush_every: 1,
        snapshot_every: 32,
        ..DurabilityConfig::DISABLED
    };
    let (job, cfg) = drill_config(durability_cfg);
    let mut trace = TraceConfig::smoke(17);
    trace.requests = scale.requests();
    trace.window = scale.window();
    let schedule = materialize_schedule(&job, &trace);
    let kill_after = schedule.len() / 2;
    subheader(&format!(
        "recovery drill: {} envelopes, kill after {}, flush every record, seal every 32",
        schedule.len(),
        kill_after
    ));

    let dir = DetTempDir::new("bench-durability", 17);
    let mut durable = fresh_store(&cfg, &job);
    attach(&mut durable, dir.path()).expect("attach durable deployment");
    let mut durable_service = service_of(durable, threads);
    let first_half = drive(&mut durable_service, &schedule[..kill_after]);
    drop(durable_service); // the kill

    let (records, segments, ledger_bytes) = ledger_geometry(dir.path());
    let recovered = recover(dir.path()).expect("recover from ledger");
    let mut recovered_service = service_of(recovered, threads);
    let second_half = drive(&mut recovered_service, &schedule[kill_after..]);
    drop(recovered_service);

    let (_, cfg_plain) = drill_config(DurabilityConfig::DISABLED);
    let mut twin_service = service_of(fresh_store(&cfg_plain, &job), threads);
    let twin_first = drive(&mut twin_service, &schedule[..kill_after]);
    let twin_second = drive(&mut twin_service, &schedule[kill_after..]);

    assert_eq!(
        first_half, twin_first,
        "the ledger sink must not perturb served responses"
    );
    assert_eq!(
        second_half, twin_second,
        "post-recovery responses must be byte-identical to the uninterrupted run"
    );
    println!(
        "  {records} records across {segments} sealed segment(s) + active ledger, {ledger_bytes} ledger bytes"
    );
    println!("  second-half checksum {second_half:016x} == uninterrupted twin {twin_second:016x}");

    // Phase 2: spill vs evict under quota pressure. Latency/cost here are
    // simulated (SimTime accounting), hence deterministic.
    subheader("cold tier: spill vs evict under strict quota pressure");
    let sweep_job = FlJobConfig {
        rounds: 6,
        ..FlJobConfig::quick_test(JobId::new(1))
    };
    let records_all: Vec<RoundRecord> = FlJobSim::new(sweep_job.clone()).collect();
    let round_bytes = sweep_job.round_metadata_bytes().as_bytes();
    let mut sweep = Vec::new();
    for (fi, fraction) in [4u64, 2, 1].into_iter().enumerate() {
        for spill in [false, true] {
            let cell_cfg = FlStoreConfig {
                quota: Some(TenantQuota::strict(ByteSize::from_bytes(
                    round_bytes / fraction,
                ))),
                durability: DurabilityConfig {
                    flush_every: 1,
                    spill,
                    ..DurabilityConfig::DISABLED
                },
                ..FlStoreConfig::for_model(&sweep_job.model)
            };
            let mut store = fresh_store(&cell_cfg, &sweep_job);
            let cell_dir = DetTempDir::new("bench-spill", (fi as u64) << 1 | u64::from(spill));
            attach(&mut store, cell_dir.path()).expect("attach sweep cell");
            let mut now = SimTime::ZERO;
            for r in &records_all {
                store.ingest_round(now, r);
                now += SimDuration::from_secs(60);
            }
            // Probe: sweep every observed round with a P2-class workload,
            // so shed rounds must come back from disk (spill) or the
            // persistent store (evict).
            let mut id = 0u64;
            for r in &records_all {
                for kind in [WorkloadKind::Inference, WorkloadKind::Clustering] {
                    id += 1;
                    let _ = store.serve(
                        now,
                        &WorkloadRequest::new(
                            RequestId::new(id),
                            kind,
                            sweep_job.job,
                            r.round,
                            None,
                        ),
                    );
                }
            }
            let (hits, misses, comm_us, cost) = {
                let ledger = store.ledger();
                let hits: usize = ledger.outcomes.iter().map(|o| o.cache_hits).sum();
                let misses: usize = ledger.outcomes.iter().map(|o| o.cache_misses).sum();
                let comm_us: u64 = ledger
                    .outcomes
                    .iter()
                    .map(|o| o.latency.communication.as_micros())
                    .sum();
                let cost: f64 = ledger
                    .outcomes
                    .iter()
                    .map(|o| o.cost.total().as_dollars())
                    .sum();
                (hits, misses, comm_us, cost)
            };
            let report = match store.submit(now, Request::Stats) {
                Response::Stats(report) => report,
                other => panic!("expected stats, got {other:?}"),
            };
            let mode = if spill { "spill" } else { "evict" };
            println!(
                "  quota 1/{fraction} round, {mode:>5}: hit rate {:.3}, {} cold-tier faults, \
                 serve communication {comm_us} us, serve cost ${cost:.6}",
                report.hit_rate, report.spill_faults
            );
            sweep.push(json!({
                "quota_fraction_of_round": format!("1/{fraction}"),
                "mode": mode,
                "hit_rate": report.hit_rate,
                "cache_hits": hits,
                "cache_misses": misses,
                "spilled_objects": report.spilled_objects,
                "spilled_bytes": report.spilled_bytes.as_bytes(),
                "spill_faults": report.spill_faults,
                "serve_communication_us": comm_us,
                "serve_cost_dollars": cost,
            }));
            drop(store.take_record_sink());
        }
    }

    let v = json!({
        "experiment": "durability",
        "recovery_drill": {
            "envelopes": schedule.len(),
            "kill_after": kill_after,
            "ledger_records": records,
            "sealed_segments": segments,
            "ledger_bytes": ledger_bytes,
            "first_half_checksum": format!("{first_half:016x}"),
            "second_half_checksum": format!("{second_half:016x}"),
            "matches_uninterrupted": true,
        },
        "spill_sweep": sweep,
    });
    save_json("durability", &v);
    v
}
