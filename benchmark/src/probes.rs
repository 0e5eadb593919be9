//! Per-layer probes: each times calls into one layer's *public*
//! functions, on inputs generated from the run's seed at fixed shapes.
//!
//! The shapes do not depend on the workload being traced — a probe means
//! the same thing in every run — and mirror the workloads': `tiny` is
//! `small_serve`'s job (5 clients × 32 dims), `heavy` is `heavy_serve`'s
//! round (48 × 4096) and `mid` is the 16 × 1024 round that
//! `durable_ingest` and `cluster_failover` move.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use flstore_cloud::blob::{Blob, ObjectKey};
use flstore_cloud::compute::WorkUnits;
use flstore_cloud::objstore::{ObjectStore, ObjectStoreConfig};
use flstore_cluster::cluster::{ClusterConfig, ClusterStore};
use flstore_core::api::{Request, Service};
use flstore_core::durable::{DurabilityConfig, LedgerEvent, RecordSink, SpillBackend};
use flstore_core::engine::CacheEngine;
use flstore_core::policy::{CachingPolicy, TailoredPolicy};
use flstore_core::quota::TenantQuota;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_core::tenancy::MultiTenantStore;
use flstore_core::tracker::RequestTracker;
use flstore_durability::ledger::DiskLedgerSink;
use flstore_durability::records::{encode_event, parse_ledger};
use flstore_durability::recover::attach;
use flstore_durability::spill::DiskSpill;
use flstore_exec::ShardedExecutor;
use flstore_fl::decoded::DecodedCache;
use flstore_fl::ids::JobId;
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_fl::metadata::{round_entries, MetaKey, MetaValue, SharedValue};
use flstore_fl::zoo::ModelArch;
use flstore_net::codec::{decode_request, decode_response, encode_request, encode_response};
use flstore_net::wire::{read_frame, write_frame};
use flstore_serverless::function::{FunctionConfig, FunctionId};
use flstore_serverless::platform::{Platform, PlatformConfig};
use flstore_sim::bytes::ByteSize;
use flstore_sim::rng::DetRng;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_trace::driver::{materialize_schedule, TraceConfig};
use flstore_workloads::request::{JobCatalog, RequestId, WorkloadRequest};
use flstore_workloads::run::prepare;
use flstore_workloads::taxonomy::{PolicyClass, WorkloadKind};

use crate::clock::{now_ns, secs_between};
use crate::deploy::{dir_bytes, ledger_bytes, DURABLE_POLICY};
use crate::driver::{fold_bytes, FNV_OFFSET};
use crate::machine;
use crate::measure::{Metrics, RunArgs};
use crate::ops;
use crate::schedule::{self, Workload};
use crate::spans::Tracer;
use crate::stats::median;
use crate::wrappers::{TracedSpill, TracedUnit};

/// Heavy batches per executor in the stealing probe.
const STEAL_BATCHES: usize = 30;
/// Batches per probe; the reported value is the median batch.
const BATCHES: usize = 7;
/// Wall time one batch aims for.
const BATCH_NS: u64 = 1_500_000;

/// Median nanoseconds per call of `op`: the batch size is chosen from a
/// first timed call so that a batch lasts about [`BATCH_NS`].
fn per_call_ns(mut op: impl FnMut()) -> f64 {
    let start = now_ns();
    op();
    let once = (now_ns() - start).max(1);
    let per_batch = (BATCH_NS / once).clamp(1, 100_000) as usize;
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = now_ns();
            for _ in 0..per_batch {
                op();
            }
            (now_ns() - start) as f64 / per_batch as f64
        })
        .collect();
    median(&batches)
}

/// Median difference `a − b` in nanoseconds per call, with the two
/// operations measured alternately batch by batch, so that drift (cache
/// state, frequency, a noisy neighbour) lands on both sides.
fn paired_diff_ns(mut a: impl FnMut(), mut b: impl FnMut(), per_batch: usize) -> f64 {
    let batch = |op: &mut dyn FnMut()| {
        let start = now_ns();
        for _ in 0..per_batch {
            op();
        }
        (now_ns() - start) as f64 / per_batch as f64
    };
    let diffs: Vec<f64> = (0..2 * BATCHES + 1)
        .map(|_| batch(&mut a) - batch(&mut b))
        .collect();
    median(&diffs)
}

/// Like [`per_call_ns`] for an `op` that reports its own measured span
/// (so per-call set-up is excluded); a fixed number of calls.
fn per_call_inner_ns(calls: usize, mut op: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..calls).map(|_| op() as f64).collect();
    median(&samples)
}

fn job(pool: u32, per_round: u32, dim: usize, rounds: u32, seed: u64) -> FlJobConfig {
    FlJobConfig {
        total_clients: pool,
        clients_per_round: per_round,
        rounds,
        weight_dim: dim,
        seed: DetRng::stream(seed, "benchmark-probe-job").next_u64(),
        ..FlJobConfig::paper_eval(JobId::new(1), ModelArch::RESNET18)
    }
}

fn config(model: &ModelArch, key_shards: usize) -> FlStoreConfig {
    FlStoreConfig {
        key_shards,
        ..FlStoreConfig::for_model(model)
    }
}

/// A store with `records` ingested one virtual minute apart.
fn loaded_store(cfg: &FlJobConfig, records: &[Arc<RoundRecord>], key_shards: usize) -> FlStore {
    let mut store = FlStore::new(
        config(&cfg.model, key_shards),
        Box::new(TailoredPolicy::new()),
        cfg.job,
        cfg.model,
    );
    for (i, record) in records.iter().enumerate() {
        store.ingest_round(SimTime::from_secs(60 * i as u64), record);
    }
    store
}

fn records(cfg: &FlJobConfig) -> Vec<Arc<RoundRecord>> {
    FlJobSim::new(cfg.clone()).map(Arc::new).collect()
}

/// Serve requests with fresh ids, all on `record`'s round.
struct Requests {
    next: u64,
    job: JobId,
}

impl Requests {
    fn serve(&mut self, kind: WorkloadKind, record: &RoundRecord) -> WorkloadRequest {
        self.next += 1;
        let client = matches!(kind.policy_class(), PolicyClass::P3AcrossRounds)
            .then(|| record.updates[0].client);
        WorkloadRequest::new(
            RequestId::new(self.next),
            kind,
            self.job,
            record.round,
            client,
        )
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn net(m: &mut Metrics, seed: u64) {
    let tiny = job(20, 5, 32, 12, seed);
    let tiny_records = records(&tiny);
    let newest = tiny_records.last().expect("rounds");
    let mut store = loaded_store(&tiny, &tiny_records, 1);
    let mut ids = Requests {
        next: 0,
        job: tiny.job,
    };
    let now = SimTime::from_secs(3600);
    let request = Request::Serve(ids.serve(WorkloadKind::CosineSimilarity, newest));
    let response = store.submit(now, request.clone());
    assert!(response.is_ok(), "probe serve must be answered");

    m.insert(
        "net.codec.encode_request_ns",
        (
            per_call_ns(|| drop(black_box(encode_request(now, black_box(&request))))),
            "ns",
        ),
    );
    let (tag, payload) = encode_request(now, &request);
    m.insert(
        "net.codec.decode_request_ns",
        (
            per_call_ns(|| drop(black_box(decode_request(tag, black_box(&payload))))),
            "ns",
        ),
    );
    m.insert(
        "net.codec.encode_response_ns",
        (
            per_call_ns(|| drop(black_box(encode_response(black_box(&response))))),
            "ns",
        ),
    );
    let (rtag, rpayload) = encode_response(&response);
    m.insert(
        "net.codec.decode_response_ns",
        (
            per_call_ns(|| drop(black_box(decode_response(rtag, black_box(&rpayload))))),
            "ns",
        ),
    );
    m.insert(
        "loadgen.client_self_us_per_req",
        (
            us(per_call_ns(|| {
                let (t, p) = encode_request(now, black_box(&request));
                black_box((t, p));
                let decoded = decode_response(rtag, black_box(&rpayload)).expect("round-trips");
                let (t, p) = encode_response(&decoded);
                black_box(fold_bytes(FNV_OFFSET, t, &p));
            })),
            "us",
        ),
    );

    let mid = job(32, 16, 1024, 2, seed);
    let record = records(&mid).pop().expect("rounds");
    let ingest = Request::Ingest {
        job: mid.job,
        record,
    };
    m.insert(
        "net.codec.encode_ingest_us",
        (
            us(per_call_ns(|| {
                drop(black_box(encode_request(now, black_box(&ingest))))
            })),
            "us",
        ),
    );
    let (itag, ipayload) = encode_request(now, &ingest);
    m.insert(
        "net.codec.decode_ingest_us",
        (
            us(per_call_ns(|| {
                drop(black_box(decode_request(itag, black_box(&ipayload))))
            })),
            "us",
        ),
    );
    m.insert(
        "net.codec.ingest_frame_bytes",
        (schedule::frame_len(ipayload.len()) as f64, "B"),
    );

    let small = vec![7u8; 128];
    let mut buf = Vec::with_capacity(256);
    m.insert(
        "net.wire.frame_roundtrip_ns",
        (
            per_call_ns(|| {
                buf.clear();
                write_frame(&mut buf, 0x02, black_box(&small)).expect("vec write");
                black_box(read_frame(&mut buf.as_slice()).expect("well-formed"));
            }),
            "ns",
        ),
    );
    let large = vec![7u8; 1 << 20];
    let mut big = Vec::with_capacity((1 << 20) + 16);
    let ns = per_call_ns(|| {
        big.clear();
        write_frame(&mut big, 0x01, black_box(&large)).expect("vec write");
        black_box(read_frame(&mut big.as_slice()).expect("well-formed"));
    });
    m.insert(
        "net.wire.frame_mb_per_s",
        (large.len() as f64 / 1e6 / (ns / 1e9), "MB/s"),
    );
}

fn core(m: &mut Metrics, seed: u64) {
    let tiny = job(20, 5, 32, 12, seed);
    let tiny_records = records(&tiny);
    let newest = tiny_records.last().expect("rounds").clone();
    let mut store = loaded_store(&tiny, &tiny_records, 1);
    let mut ids = Requests {
        next: 0,
        job: tiny.job,
    };
    let now = SimTime::from_secs(3600);
    for (name, kind) in [
        ("core.serve_hit_ns.p1", WorkloadKind::Inference),
        ("core.serve_hit_ns.p2", WorkloadKind::CosineSimilarity),
        ("core.serve_hit_ns.p3", WorkloadKind::ReputationCalc),
        ("core.serve_hit_ns.p4", WorkloadKind::SchedulingPerf),
    ] {
        let ns = per_call_ns(|| {
            let request = Request::Serve(ids.serve(kind, &newest));
            black_box(store.submit(now, request));
        });
        m.insert(name, (ns, "ns"));
    }
    m.insert(
        "core.stats_ns",
        (
            per_call_ns(|| drop(black_box(store.submit(now, Request::Stats)))),
            "ns",
        ),
    );

    let tracker = RequestTracker::new();
    let function = FunctionId::from_raw(1);
    let mut next = 0u64;
    m.insert(
        "core.tracker.dispatch_complete_ns",
        (
            per_call_ns(|| {
                next += 1;
                let id = RequestId::new(next);
                tracker.dispatch(id, vec![function]);
                tracker.complete(id);
                tracker.forget(id);
            }),
            "ns",
        ),
    );

    let mut engine = CacheEngine::with_key_shards(1);
    let keys: Vec<MetaKey> = newest
        .updates
        .iter()
        .map(|u| MetaKey::update(tiny.job, newest.round, u.client))
        .collect();
    let size = ByteSize::from_kb(64);
    let mut i = 0usize;
    m.insert(
        "core.engine.record_ns",
        (
            per_call_ns(|| {
                i += 1;
                engine.record(keys[i % keys.len()], vec![function], size, now);
            }),
            "ns",
        ),
    );
    m.insert(
        "core.engine.touch_ns",
        (
            per_call_ns(|| {
                i += 1;
                black_box(engine.touch(&keys[i % keys.len()]));
            }),
            "ns",
        ),
    );
    m.insert(
        "core.engine.lookup_ns",
        (
            per_call_ns(|| {
                i += 1;
                let key = &keys[i % keys.len()];
                black_box((engine.locations(key), engine.meta(key)));
            }),
            "ns",
        ),
    );
    let entries = round_entries(&newest, tiny.job, &tiny.model);
    for e in &entries {
        if engine.contains(&e.key) {
            engine.decoded_seed(e.key, &e.blob, e.value.clone());
        }
    }
    m.insert(
        "core.engine.decoded_get_ns",
        (
            per_call_ns(|| {
                i += 1;
                black_box(engine.decoded_get(&keys[i % keys.len()]));
            }),
            "ns",
        ),
    );
    let mut policy = TailoredPolicy::new();
    m.insert(
        "core.policy.decide_ns",
        (
            per_call_ns(|| {
                let request = ids.serve(WorkloadKind::CosineSimilarity, &newest);
                black_box(policy.on_request(&request, store.catalog(), store.engine()));
            }),
            "ns",
        ),
    );

    // Misses: evict the aggregate, then serve a request that needs it.
    let aggregate = MetaKey::aggregate(tiny.job, newest.round);
    let ns = per_call_inner_ns(300, || {
        store.submit(now, Request::Evict(aggregate));
        let request = Request::Serve(ids.serve(WorkloadKind::Inference, &newest));
        let start = now_ns();
        black_box(store.submit(now, request));
        now_ns() - start
    });
    m.insert("core.miss_serve_us", (us(ns), "us"));

    // Ingest at the mid shape: every call ingests the next round.
    let mid = job(32, 16, 1024, 48, seed);
    let mid_records = records(&mid);
    let mut ingest_store = loaded_store(&mid, &[], 1);
    let mut round = 0usize;
    let ns = per_call_inner_ns(mid_records.len(), || {
        let record = &mid_records[round];
        let at = SimTime::from_secs(60 * round as u64);
        round += 1;
        let start = now_ns();
        black_box(ingest_store.ingest_round(at, record));
        now_ns() - start
    });
    let wire_bytes = encode_request(
        now,
        &Request::Ingest {
            job: mid.job,
            record: mid_records[0].clone(),
        },
    )
    .1
    .len();
    m.insert("core.ingest_round_us", (us(ns), "us"));
    m.insert(
        "core.ingest_mb_per_s",
        (wire_bytes as f64 / 1e6 / (ns / 1e9), "MB/s"),
    );

    // Tenancy: a pressure pass with nothing to shed, and the routing hop
    // in front of a tenant — the same cheap P4 hit through a 4-tenant
    // front and through a twin tenant with the same history, so the hop
    // is not lost in the serve's own variance.
    let tenants = || {
        let mut front = MultiTenantStore::new(config(&tiny.model, 1));
        front.set_global_budget(Some(ByteSize::from_gb(64)));
        for raw in 1..=4u32 {
            front.register_job_with_quota(
                JobId::new(raw),
                tiny.model,
                Some(TenantQuota::elastic(ByteSize::from_gb(8))),
            );
        }
        for (r, record) in tiny_records.iter().enumerate() {
            front.submit(
                SimTime::from_secs(60 * r as u64),
                Request::Ingest {
                    job: tiny.job,
                    record: record.clone(),
                },
            );
        }
        front
    };
    let mut front = tenants();
    m.insert(
        "core.tenancy.pressure_pass_us",
        (
            us(per_call_ns(|| drop(black_box(front.pressure_pass())))),
            "us",
        ),
    );
    let (_, mut twin) = tenants()
        .into_tenants()
        .into_iter()
        .find(|(job, _)| *job == tiny.job)
        .expect("job 1 is registered");
    let mut twin_ids = Requests {
        next: 1 << 32,
        job: tiny.job,
    };
    let route_ns = paired_diff_ns(
        || {
            let request = Request::Serve(ids.serve(WorkloadKind::SchedulingPerf, &newest));
            black_box(front.submit(now, request));
        },
        || {
            let request = Request::Serve(twin_ids.serve(WorkloadKind::SchedulingPerf, &newest));
            black_box(twin.submit(now, request));
        },
        1000,
    );
    m.insert("core.tenancy.route_ns", (route_ns, "ns"));
}

/// The values a request reads, straight from the round records.
fn values_for(
    request: &WorkloadRequest,
    cfg: &FlJobConfig,
    rounds: &[Arc<RoundRecord>],
) -> Vec<SharedValue> {
    let mut catalog = JobCatalog::new(cfg.job, cfg.model);
    let mut by_key = std::collections::BTreeMap::new();
    for record in rounds {
        catalog.observe_round(record);
        for entry in round_entries(record, cfg.job, &cfg.model) {
            by_key.insert(entry.key, entry.value);
        }
    }
    catalog
        .data_needs(request)
        .iter()
        .filter_map(|key| by_key.get(key).cloned())
        .collect()
}

fn workloads(m: &mut Metrics, seed: u64) {
    let heavy = job(96, 48, 4096, 4, seed);
    let rounds = records(&heavy);
    let newest = rounds.last().expect("rounds");
    let mut ids = Requests {
        next: 0,
        job: heavy.job,
    };
    let scale = heavy.model.compute_scale();
    for (name, kind) in [
        (
            "workloads.kernel.personalized_us",
            WorkloadKind::Personalized,
        ),
        ("workloads.kernel.clustering_us", WorkloadKind::Clustering),
        ("workloads.kernel.debugging_us", WorkloadKind::Debugging),
        (
            "workloads.kernel.malicious_filtering_us",
            WorkloadKind::MaliciousFiltering,
        ),
        ("workloads.kernel.incentives_us", WorkloadKind::Incentives),
        (
            "workloads.kernel.scheduling_cluster_us",
            WorkloadKind::SchedulingCluster,
        ),
        (
            "workloads.kernel.reputation_calc_us",
            WorkloadKind::ReputationCalc,
        ),
        (
            "workloads.kernel.scheduling_perf_us",
            WorkloadKind::SchedulingPerf,
        ),
        (
            "workloads.kernel.cosine_similarity_us",
            WorkloadKind::CosineSimilarity,
        ),
        ("workloads.kernel.inference_us", WorkloadKind::Inference),
    ] {
        let request = ids.serve(kind, newest);
        let values = values_for(&request, &heavy, &rounds);
        let task = prepare(&request, values.clone(), scale).expect("inputs are complete");
        m.insert(
            name,
            (us(per_call_ns(|| drop(black_box(task.compute())))), "us"),
        );
        if kind == WorkloadKind::MaliciousFiltering {
            m.insert(
                "workloads.prepare_ns",
                (
                    per_call_ns(|| drop(black_box(prepare(&request, values.clone(), scale)))),
                    "ns",
                ),
            );
        }
    }
}

fn fl(m: &mut Metrics, seed: u64) {
    let heavy = job(96, 48, 4096, 2, seed);
    let record = records(&heavy).pop().expect("rounds");
    let value = MetaValue::Update(record.updates[0].clone());
    let blob = value.to_blob(&heavy.model);
    let bytes = blob.payload().len() as f64;
    let ns = per_call_ns(|| drop(black_box(value.to_blob(&heavy.model))));
    m.insert(
        "fl.meta_encode_mb_per_s",
        (bytes / 1e6 / (ns / 1e9), "MB/s"),
    );
    let ns = per_call_ns(|| drop(black_box(MetaValue::from_blob(black_box(&blob)))));
    m.insert(
        "fl.meta_decode_mb_per_s",
        (bytes / 1e6 / (ns / 1e9), "MB/s"),
    );

    let mut cache = DecodedCache::new();
    let key = value.keyed_for(heavy.job);
    cache.seed(key, &blob, value.clone().into_shared());
    m.insert(
        "fl.decoded_hit_ns",
        (per_call_ns(|| drop(black_box(cache.get(&key)))), "ns"),
    );

    let mid = job(32, 16, 1024, 400, seed);
    let mut sim = FlJobSim::new(mid);
    m.insert(
        "fl.jobsim_round_us",
        (us(per_call_ns(|| drop(black_box(sim.next_round())))), "us"),
    );
}

fn durability(m: &mut Metrics, seed: u64, dir: &Path) {
    let mid = job(32, 16, 1024, 24, seed);
    let mid_records = records(&mid);
    let newest = mid_records.last().expect("rounds");
    let mut ids = Requests {
        next: 0,
        job: mid.job,
    };
    let now = SimTime::from_secs(3600);
    let serve = ids.serve(WorkloadKind::CosineSimilarity, newest);
    let ingest_event = || LedgerEvent::Ingest {
        now,
        record: newest,
    };
    let serve_event = || LedgerEvent::Serve {
        now,
        request: &serve,
    };
    m.insert(
        "durability.encode_event_ingest_us",
        (
            us(per_call_ns(|| {
                drop(black_box(encode_event(&ingest_event())))
            })),
            "us",
        ),
    );
    m.insert(
        "durability.encode_event_serve_ns",
        (
            per_call_ns(|| drop(black_box(encode_event(&serve_event())))),
            "ns",
        ),
    );
    m.insert(
        "durability.ledger_bytes_per_ingest",
        (encode_event(&ingest_event()).len() as f64, "B"),
    );

    // The sink alone: buffered appends, then the write + fsync barrier.
    let sink_dir = dir.join("sink");
    std::fs::create_dir_all(&sink_dir).expect("data dir is writable");
    let buffered = DurabilityConfig {
        flush_every: u32::MAX,
        ..DurabilityConfig::DISABLED
    };
    let mut sink = DiskLedgerSink::create(&sink_dir, buffered).expect("data dir is writable");
    m.insert(
        "durability.append_ns",
        (per_call_ns(|| sink.append(serve_event())), "ns"),
    );
    sink.flush();
    let ns = per_call_inner_ns(60, || {
        sink.append(serve_event());
        let start = now_ns();
        sink.flush();
        now_ns() - start
    });
    m.insert("durability.flush_us", (us(ns), "us"));
    let store = loaded_store(&mid, &mid_records, 1);
    let digest = store.durability_digest();
    let ns = per_call_inner_ns(9, || {
        sink.append(serve_event());
        let start = now_ns();
        sink.seal(&digest);
        now_ns() - start
    });
    m.insert("durability.seal_ms", (ns / 1e6, "ms"));
    drop(sink);
    drop(store);

    // A durable store under `durable_ingest`'s flush policy: what lands
    // on disk, and how fast it parses and replays.
    let store_dir = dir.join("store");
    let mut durable = FlStore::new(
        FlStoreConfig {
            durability: DURABLE_POLICY,
            ..config(&mid.model, 1)
        },
        Box::new(TailoredPolicy::new()),
        mid.job,
        mid.model,
    );
    attach(&mut durable, &store_dir).expect("data dir is writable");
    let mut records_logged = 0u64;
    for (r, record) in mid_records.iter().enumerate() {
        let at = SimTime::from_secs(60 * r as u64);
        durable.ingest_round(at, record);
        records_logged += 1;
        for kind in [WorkloadKind::Inference, WorkloadKind::MaliciousFiltering] {
            let request = ids.serve(kind, record);
            let _ = durable.serve(at + SimDuration::from_secs(1), &request);
            records_logged += 1;
        }
    }
    drop(durable);
    m.insert(
        "durability.records_per_flush",
        (f64::from(DURABLE_POLICY.flush_every), "count"),
    );
    m.insert(
        "durability.records_logged",
        (records_logged as f64, "count"),
    );
    m.insert(
        "durability.bytes_written",
        (dir_bytes(&store_dir) as f64, "B"),
    );
    let ledger_total = ledger_bytes(&store_dir);
    let mut files: Vec<_> = std::fs::read_dir(&store_dir)
        .expect("store dir exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    files.sort();
    let contents: Vec<Vec<u8>> = files
        .iter()
        .map(|p| std::fs::read(p).expect("ledger is readable"))
        .collect();
    let start = now_ns();
    for bytes in &contents {
        black_box(parse_ledger(bytes).expect("ledger parses"));
    }
    let parse_s = secs_between(start, now_ns());
    m.insert(
        "durability.parse_mb_per_s",
        (ledger_total as f64 / 1e6 / parse_s, "MB/s"),
    );
    let (bytes, secs) = ops::timed_recover(&store_dir).expect("ledger recovers");
    m.insert(
        "durability.replay_mb_per_s",
        (bytes as f64 / 1e6 / secs, "MB/s"),
    );

    // The cold tier, through the trait and the benchmark's span wrapper.
    let tracer = Tracer::new();
    let spill = DiskSpill::create(&dir.join("spill")).expect("data dir is writable");
    let mut spill = TracedSpill::new(Box::new(spill), tracer.recorder());
    let payload = vec![3u8; 16 * 1024];
    let key = MetaKey::aggregate(mid.job, newest.round);
    let logical = ByteSize::from_kb(16);
    let put = per_call_inner_ns(200, || {
        let start = now_ns();
        spill.spill(&key, &payload, logical);
        let elapsed = now_ns() - start;
        black_box(spill.fetch(&key));
        elapsed
    });
    let fetch = per_call_inner_ns(200, || {
        spill.spill(&key, &payload, logical);
        let start = now_ns();
        black_box(spill.fetch(&key));
        now_ns() - start
    });
    m.insert("durability.spill_put_us", (us(put), "us"));
    m.insert("durability.spill_fetch_us", (us(fetch), "us"));
}

fn exec(m: &mut Metrics, seed: u64) {
    // Dispatch overhead: the same batch of hits through a 1-shard
    // executor and through the bare store it wraps.
    let tiny = job(20, 5, 32, 12, seed);
    let tiny_records = records(&tiny);
    let newest = tiny_records.last().expect("rounds").clone();
    let mut ids = Requests {
        next: 0,
        job: tiny.job,
    };
    let now = SimTime::from_secs(3600);
    let batch = |ids: &mut Requests| -> Vec<Request> {
        (0..16)
            .map(|_| Request::Serve(ids.serve(WorkloadKind::SchedulingPerf, &newest)))
            .collect()
    };
    let mut bare = loaded_store(&tiny, &tiny_records, 1);
    let mut sharded = ShardedExecutor::new(vec![loaded_store(&tiny, &tiny_records, 1)], 1);
    let mut more_ids = Requests {
        next: 1 << 32,
        job: tiny.job,
    };
    let dispatch = paired_diff_ns(
        || drop(black_box(sharded.submit_batch(now, &batch(&mut ids)))),
        || drop(black_box(bare.submit_batch(now, &batch(&mut more_ids)))),
        20,
    );
    m.insert("exec.dispatch_ns_per_env", (dispatch / 16.0, "ns"));
    drop(sharded);

    // Stealing: the same heavy batch at 1 and at 2 workers (= key
    // shards). The unit's busy share comes from the span wrapper.
    let heavy = job(96, 48, 4096, 3, seed);
    let heavy_records = records(&heavy);
    let newest = heavy_records.last().expect("rounds").clone();
    let mut ids = Requests {
        next: 0,
        job: heavy.job,
    };
    let heavy_batch = |ids: &mut Requests| -> Vec<Request> {
        (0..8)
            .map(|i| {
                let kind = if i % 2 == 0 {
                    WorkloadKind::MaliciousFiltering
                } else {
                    WorkloadKind::Incentives
                };
                Request::Serve(ids.serve(kind, &newest))
            })
            .collect()
    };
    // Both executors alive at once, batches alternating between them —
    // and, for this probe alone, on every CPU the machine has: the
    // speed-up is the one thing here that needs a second core.
    machine::pin_to(&machine::all_cpus());
    let tracer = Tracer::new();
    let mut executors: Vec<ShardedExecutor<TracedUnit<FlStore>>> = [1usize, 2]
        .into_iter()
        .map(|threads| {
            let unit = TracedUnit::new(
                loaded_store(&heavy, &heavy_records, threads),
                if threads == 2 {
                    tracer.recorder()
                } else {
                    Tracer::new().recorder()
                },
            );
            ShardedExecutor::new(vec![unit], threads)
        })
        .collect();
    let mut walls: [Vec<f64>; 2] = Default::default();
    for _ in 0..STEAL_BATCHES {
        for (executor, walls) in executors.iter_mut().zip(&mut walls) {
            let requests = heavy_batch(&mut ids);
            let start = now_ns();
            black_box(executor.submit_batch(now, &requests));
            walls.push((now_ns() - start) as f64);
        }
    }
    for executor in executors {
        drop(executor.into_units());
    }
    machine::pin_to(machine::PINNED_CPU);
    let unit_ns: u64 = tracer.take_spans().iter().map(|s| s.duration_ns()).sum();
    let busy_share = unit_ns as f64 / walls[1].iter().sum::<f64>();
    let per_batch_ms = [median(&walls[0]) / 1e6, median(&walls[1]) / 1e6];
    m.insert("exec.steal_base_ms_k1", (per_batch_ms[0], "ms"));
    m.insert(
        "exec.steal_speedup_k2",
        (per_batch_ms[0] / per_batch_ms[1], "x"),
    );
    m.insert("exec.unit_busy_share", (busy_share, "share"));
}

fn memory_cluster(nodes: usize, rf: usize, cfg: &FlJobConfig) -> ClusterStore {
    let mut cluster =
        ClusterStore::new(ClusterConfig::sim_default(nodes, rf, config(&cfg.model, 1)));
    cluster
        .register_job(cfg.job, cfg.model)
        .expect("memory-only registration");
    cluster
}

fn cluster(m: &mut Metrics, args: &RunArgs, dir: &Path) {
    let seed = args.seed;
    let mid = job(32, 16, 1024, 40, seed);
    let mid_records = records(&mid);
    let (warm, fresh) = mid_records.split_at(8);
    let newest = warm.last().expect("rounds").clone();
    let now = SimTime::from_secs(3600);
    let ingest_all = |service: &mut dyn Service| {
        for (r, record) in warm.iter().enumerate() {
            service.submit(
                SimTime::from_secs(60 * r as u64),
                Request::Ingest {
                    job: mid.job,
                    record: record.clone(),
                },
            );
        }
    };
    // The bare twin goes through the tenancy path, like a cluster tenant.
    let mut front = MultiTenantStore::new(config(&mid.model, 1));
    front.register_job(mid.job, mid.model);
    let (_, mut bare) = front.into_tenants().pop().expect("one tenant");
    let mut rf1 = memory_cluster(1, 1, &mid);
    let mut rf2 = memory_cluster(schedule::CLUSTER_NODES, schedule::CLUSTER_RF, &mid);
    ingest_all(&mut bare);
    ingest_all(&mut rf1);
    ingest_all(&mut rf2);
    // Each service gets its own id stream; a cheap P4 hit keeps the
    // serve's own variance below the hop being measured.
    let hit = |service: &mut dyn Service, ids: &mut Requests| {
        let request = Request::Serve(ids.serve(WorkloadKind::SchedulingPerf, &newest));
        black_box(service.submit(now, request));
    };
    let mut streams: Vec<Requests> = (0..3u64)
        .map(|i| Requests {
            next: i << 32,
            job: mid.job,
        })
        .collect();
    let (bare_ids, rest) = streams.split_first_mut().expect("three streams");
    let (rf1_ids, rest) = rest.split_first_mut().expect("three streams");
    let rf2_ids = &mut rest[0];
    let overhead = paired_diff_ns(|| hit(&mut rf1, rf1_ids), || hit(&mut bare, bare_ids), 1000);
    m.insert("cluster.submit_overhead_ns_rf1", (overhead, "ns"));
    let replicate = paired_diff_ns(|| hit(&mut rf2, rf2_ids), || hit(&mut rf1, rf1_ids), 1000);
    m.insert("cluster.replicate_serve_ns_rf2", (replicate, "ns"));
    let ingest_ns = |service: &mut dyn Service| {
        let mut next = 0usize;
        per_call_inner_ns(fresh.len(), || {
            let record = fresh[next].clone();
            let at = now + SimDuration::from_secs(60 * (1 + next as u64));
            next += 1;
            let start = now_ns();
            black_box(service.submit(
                at,
                Request::Ingest {
                    job: mid.job,
                    record,
                },
            ));
            now_ns() - start
        })
    };
    let rf1_ingest = ingest_ns(&mut rf1);
    let rf2_ingest = ingest_ns(&mut rf2);
    m.insert(
        "cluster.replicate_ingest_us_rf2",
        (us(rf2_ingest - rf1_ingest), "us"),
    );
    m.insert(
        "cluster.route_ns",
        (
            per_call_ns(|| {
                black_box(schedule::home_route(black_box(mid.job)));
                black_box(rf2.route(black_box(mid.job)));
            }),
            "ns",
        ),
    );

    // The failure drill at the mid shape: `durable_ingest`'s traffic
    // through a durable 3-node rf=2 cluster under the failure script.
    let plan = schedule::plan(Workload::DurableIngest, seed, 1.0);
    let report = ops::drill(&plan, dir, args.quick);
    m.insert("cluster.failover_ms", (report.ops.failover_stall_ms, "ms"));
    m.insert("cluster.rejoin_ms", (report.ops.rejoin_stall_ms, "ms"));
    m.insert(
        "cluster.repair_bytes",
        (report.stats.repl_bytes.as_bytes() as f64, "B"),
    );
    m.insert(
        "cluster.rejoin_entries",
        (report.stats.catchup_entries as f64, "count"),
    );
    m.insert(
        "cluster.redirected",
        (report.stats.redirects as f64, "count"),
    );
    m.insert(
        "cluster.drill_failed",
        (
            (report.verdict.failed() + report.recovery_failures) as f64,
            "count",
        ),
    );
}

fn sim_and_loadgen(m: &mut Metrics, seed: u64) {
    let tiny = job(20, 5, 32, 100, seed);
    let trace = TraceConfig {
        seed,
        requests: 10_000,
        window: SimDuration::from_secs(60 * 100),
        kinds: WorkloadKind::ALL.to_vec(),
        events: None,
    };
    m.insert(
        "loadgen.materialize_schedule_ms",
        (
            per_call_ns(|| drop(black_box(materialize_schedule(&tiny, &trace)))) / 1e6,
            "ms",
        ),
    );

    let mut objects = ObjectStore::new(ObjectStoreConfig::default());
    let blob = Blob::with_payload(vec![5u8; 16 * 1024].into(), ByteSize::from_kb(16));
    let key = ObjectKey::new("probe/object");
    let now = SimTime::from_secs(1);
    m.insert(
        "sim.objstore_put_get_us",
        (
            us(per_call_ns(|| {
                black_box(objects.put(now, key.clone(), blob.clone()));
                black_box(objects.get(now, &key).expect("just put"));
            })),
            "us",
        ),
    );
    let mut platform = Platform::new(PlatformConfig::default(), seed);
    let function = platform.spawn(now, FunctionConfig::SMALL);
    let work = WorkUnits::from_ref_seconds(0.001);
    m.insert(
        "sim.platform_invoke_ns",
        (
            per_call_ns(|| drop(black_box(platform.invoke(now, function, work)))),
            "ns",
        ),
    );
}

/// Runs every probe; returns the per-layer metrics they produce.
pub fn run(args: &RunArgs) -> Metrics {
    // Whatever workload is being traced, a probe runs on the same CPU.
    machine::pin_to(machine::PINNED_CPU);
    let mut m = Metrics::new();
    let dir = args.data_dir("probes");
    std::fs::create_dir_all(&dir).expect("data dir is writable");
    net(&mut m, args.seed);
    core(&mut m, args.seed);
    workloads(&mut m, args.seed);
    fl(&mut m, args.seed);
    durability(&mut m, args.seed, &dir);
    exec(&mut m, args.seed);
    cluster(&mut m, args, &dir.join("cluster"));
    sim_and_loadgen(&mut m, args.seed);
    let _ = std::fs::remove_dir_all(&dir);
    m
}
