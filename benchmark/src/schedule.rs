//! The four workloads: seeded generators of the envelope schedules the
//! program is driven with. The program sees only the envelopes.
//!
//! Request counts are a fixed function of `(workload, seconds, quick)` —
//! never of how fast this machine happens to be — so the same seed
//! replays the same bytes, and every count, checksum and byte ratio
//! repeats exactly. The per-second sizes below were chosen so that, on
//! the 2-core box this benchmark was defined on, the timed phase of each
//! workload lasts about `--seconds`.

use std::sync::Arc;

use flstore_cluster::slots::{replica_set, slot_of_job, DEFAULT_SLOTS};
use flstore_core::api::Request;
use flstore_fl::ids::{ClientId, JobId};
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_fl::zoo::ModelArch;
use flstore_net::codec::encode_request;
use flstore_sim::rng::DetRng;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_trace::driver::{materialize_schedule, TraceConfig};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::{PolicyClass, WorkloadKind};

use crate::stats::SLICES;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tiny requests: net / codec / channel hops / core bookkeeping.
    SmallServe,
    /// Heavy kernels behind the work-stealing executor.
    HeavyServe,
    /// The durable write path, then crash recovery.
    DurableIngest,
    /// A replicated cluster through a failover and a ledger rejoin.
    ClusterFailover,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::SmallServe,
        Workload::HeavyServe,
        Workload::DurableIngest,
        Workload::ClusterFailover,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallServe => "small_serve",
            Workload::HeavyServe => "heavy_serve",
            Workload::DurableIngest => "durable_ingest",
            Workload::ClusterFailover => "cluster_failover",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests kept in flight on the one loopback connection.
    pub fn window(self) -> usize {
        match self {
            Workload::SmallServe => 32,
            Workload::HeavyServe => 8,
            Workload::DurableIngest | Workload::ClusterFailover => 1,
        }
    }
}

/// Sample tag of an `Ingest` envelope (serves use the index of their
/// kind in `WorkloadKind::ALL`).
pub const TAG_INGEST: u8 = 10;

/// The sample tag of a serve of `kind`.
pub fn kind_tag(kind: WorkloadKind) -> u8 {
    WorkloadKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("every kind is in ALL") as u8
}

/// One scheduled envelope.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Virtual arrival stamp the client sends with the envelope.
    pub now: SimTime,
    /// The envelope.
    pub request: Request,
    /// [`TAG_INGEST`] or the serve's [`kind_tag`].
    pub tag: u8,
    /// Framed bytes of the request on the wire at its scheduled stamp.
    pub wire_len: u32,
    /// Payload bytes of the frame (ingest payloads feed `write_amp`).
    pub payload_len: u32,
}

/// The failure script of a replicated deployment, on the virtual clock.
///
/// Two episodes, because in a 3-node rf=2 cluster one kill cannot reach
/// both recovery paths: after detection the lost replicas are repaired
/// onto the spare, so the killed node later rejoins with nothing to
/// recover. The first kill is therefore left down past detection
/// (redirects → failover → `repair_after_loss` history replay) and
/// rejoins empty; the second is a bounce shorter than the detection
/// interval (redirects → rejoin from the node's own ledger → catch-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureScript {
    /// Node killed first, and when.
    pub kill_a: (usize, SimTime),
    /// When that node rejoins (after failover repaired around it).
    pub rejoin_a: SimTime,
    /// Node bounced second, and when.
    pub kill_b: (usize, SimTime),
    /// When the bounced node rejoins (before its loss is detected).
    pub rejoin_b: SimTime,
    /// Failure-detection interval; also the redirect hint, so one
    /// hint-advanced retry always lands past detection.
    pub detection: SimDuration,
}

impl FailureScript {
    /// The stamp from which a request pays the failover (detection +
    /// repair) inside its own latency.
    pub fn failover_at(&self) -> SimTime {
        self.kill_a.1 + self.detection
    }

    /// The stamp from which a request pays the ledger rejoin.
    pub fn rejoin_at(&self) -> SimTime {
        self.rejoin_b
    }
}

/// A generated workload: deployment shape plus envelope schedule.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// The job(s) behind the schedule.
    pub jobs: Vec<FlJobConfig>,
    /// Envelopes sent during set-up (warm ingest), not timed.
    pub warm: Vec<Envelope>,
    /// The timed schedule.
    pub timed: Vec<Envelope>,
    /// Per-envelope retry budget for `Relocated` / `Overloaded`.
    pub retries: usize,
    /// Tag whose first-attempt latency is the workload's `lat_*` probe;
    /// `None` probes every serve.
    pub probe: Option<WorkloadKind>,
    /// The failure script (replicated deployments only).
    pub failures: Option<FailureScript>,
}

impl Plan {
    /// Payload bytes of every `Ingest` frame in `envelopes`.
    pub fn ingest_payload_bytes(envelopes: &[Envelope]) -> u64 {
        envelopes
            .iter()
            .filter(|e| e.tag == TAG_INGEST)
            .map(|e| u64::from(e.payload_len))
            .sum()
    }
}

/// Virtual time between training rounds.
const ROUND_INTERVAL: SimDuration = SimDuration::from_secs(60);

// Sizes per second of `--seconds` (see the module docs).
const SMALL_REQUESTS_PER_SEC: f64 = 44_000.0;
const SMALL_SERVES_PER_ROUND: usize = 100;
const HEAVY_ROUNDS_PER_SEC: f64 = 3.75;
const HEAVY_WARM_ROUNDS: u32 = 8;
const HEAVY_BURST: usize = 8;
const DURABLE_ROUNDS_PER_SEC: f64 = 20.0;
const CLUSTER_ROUNDS_PER_SEC: f64 = 4.0;
const CLUSTER_JOBS: usize = 4;

/// Cluster shape of the replicated workload and of the operational
/// drill.
pub const CLUSTER_NODES: usize = 3;
/// Replication factor of the replicated workload and the drill.
pub const CLUSTER_RF: usize = 2;

fn scaled(per_sec: f64, units: f64, floor: usize) -> usize {
    ((per_sec * units).round() as usize).max(floor)
}

fn envelope(now: SimTime, request: Request) -> Envelope {
    let tag = match &request {
        Request::Serve(serve) => kind_tag(serve.kind),
        _ => TAG_INGEST,
    };
    let (_, payload) = encode_request(now, &request);
    Envelope {
        now,
        request,
        tag,
        wire_len: frame_len(payload.len()) as u32,
        payload_len: payload.len() as u32,
    }
}

/// Bytes of one frame on the wire: version, tag, LEB128 length, payload.
pub fn frame_len(payload_len: usize) -> usize {
    let mut varint = 1;
    let mut rest = payload_len >> 7;
    while rest > 0 {
        varint += 1;
        rest >>= 7;
    }
    2 + varint + payload_len
}

fn job_config(
    job: JobId,
    seed: u64,
    pool: u32,
    per_round: u32,
    dim: usize,
    rounds: u32,
) -> FlJobConfig {
    FlJobConfig {
        total_clients: pool,
        clients_per_round: per_round,
        rounds,
        weight_dim: dim,
        seed: DetRng::stream(seed, "benchmark-job").next_u64() ^ u64::from(job.as_u32()),
        ..FlJobConfig::paper_eval(job, ModelArch::RESNET18)
    }
}

fn serve(
    id: &mut u64,
    kind: WorkloadKind,
    job: JobId,
    record: &RoundRecord,
    rng: &mut DetRng,
) -> Request {
    *id += 1;
    let client: Option<ClientId> = match kind.policy_class() {
        PolicyClass::P3AcrossRounds => Some(record.updates[rng.index(record.updates.len())].client),
        _ => None,
    };
    Request::Serve(WorkloadRequest::new(
        RequestId::new(*id),
        kind,
        job,
        record.round,
        client,
    ))
}

fn ingest(job: JobId, record: &Arc<RoundRecord>) -> Request {
    Request::Ingest {
        job,
        record: record.clone(),
    }
}

/// `small_serve`: one job of 5 clients/round × 32 dims, all ten kinds
/// cycled by `materialize_schedule`, one ingest per ~100 serves. Kernels
/// are microseconds, so net, codec, channel hops and core bookkeeping do
/// nearly all the work. The working set fits the cache.
fn small_serve(seed: u64, units: f64) -> Plan {
    let requests = scaled(SMALL_REQUESTS_PER_SEC, units, 400);
    let rounds = (requests / SMALL_SERVES_PER_ROUND).max(4) as u32;
    let job = job_config(JobId::new(1), seed, 20, 5, 32, rounds);
    let trace = TraceConfig {
        seed,
        requests,
        window: ROUND_INTERVAL.mul_f64(f64::from(rounds)),
        kinds: WorkloadKind::ALL.to_vec(),
        events: None,
    };
    let timed = materialize_schedule(&job, &trace)
        .into_iter()
        .map(|(now, request)| envelope(now, request))
        .collect();
    Plan {
        workload: Workload::SmallServe,
        jobs: vec![job],
        warm: Vec::new(),
        timed,
        retries: 0,
        probe: None,
        failures: None,
    }
}

/// Serves of each kind per round of `heavy_serve` — 160 in all:
/// MaliciousFiltering 40 %, CosineSimilarity 20 %, Incentives 15 %,
/// Clustering 10 %, Personalized 5 %, Inference 5 %, the four cheap kinds
/// 5 % — weighted so the probe kind's percentiles sit inside one kind's
/// mode rather than on a boundary between kinds. The counts are exact
/// per round (the seed only shuffles the order): kernels differ tenfold
/// in cost, so a sampled mix would make one slice of the run cheaper
/// than the next and one seed cheaper than another.
const HEAVY_MIX: [(WorkloadKind, usize); 10] = [
    (WorkloadKind::MaliciousFiltering, 64),
    (WorkloadKind::CosineSimilarity, 32),
    (WorkloadKind::Incentives, 24),
    (WorkloadKind::Clustering, 16),
    (WorkloadKind::Personalized, 8),
    (WorkloadKind::Inference, 8),
    (WorkloadKind::Debugging, 2),
    (WorkloadKind::SchedulingCluster, 2),
    (WorkloadKind::ReputationCalc, 2),
    (WorkloadKind::SchedulingPerf, 2),
];

/// `heavy_serve`: one hot job of 48 clients/round × 4096 dims behind the
/// 2-worker executor; 8 rounds are ingested during set-up, then every
/// round boundary brings one ingest followed by same-stamp bursts of 8
/// serves on the newest round (an operator firing its round-boundary
/// jobs together), with 8 requests kept in flight. Kernels are
/// milliseconds; net and codec are noise.
fn heavy_serve(seed: u64, units: f64) -> Plan {
    // Whole rounds per slice of the run (when it has that many), so every
    // slice holds the same mix.
    let rounds = scaled(HEAVY_ROUNDS_PER_SEC, units, 1);
    let timed_rounds = if rounds >= SLICES {
        rounds / SLICES * SLICES
    } else {
        rounds
    } as u32;
    let job = job_config(
        JobId::new(1),
        seed,
        96,
        48,
        4096,
        HEAVY_WARM_ROUNDS + timed_rounds,
    );
    let mut rng = DetRng::stream(seed, "benchmark-heavy-mix");
    let mut warm = Vec::new();
    let mut timed = Vec::new();
    let mut id = 0u64;
    for (r, record) in FlJobSim::new(job.clone()).enumerate() {
        let record = Arc::new(record);
        let at = SimTime::ZERO + ROUND_INTERVAL.mul_f64(r as f64);
        let env = envelope(at, ingest(job.job, &record));
        if (r as u32) < HEAVY_WARM_ROUNDS {
            warm.push(env);
            continue;
        }
        timed.push(env);
        let mut kinds: Vec<WorkloadKind> = HEAVY_MIX
            .iter()
            .flat_map(|(kind, count)| std::iter::repeat_n(*kind, *count))
            .collect();
        rng.shuffle(&mut kinds);
        for (burst, kinds) in kinds.chunks(HEAVY_BURST).enumerate() {
            let stamp = at + SimDuration::from_secs(1 + burst as u64);
            for kind in kinds {
                let request = serve(&mut id, *kind, job.job, &record, &mut rng);
                timed.push(envelope(stamp, request));
            }
        }
    }
    Plan {
        workload: Workload::HeavyServe,
        jobs: vec![job],
        warm,
        timed,
        retries: 0,
        probe: Some(WorkloadKind::MaliciousFiltering),
        failures: None,
    }
}

/// History window of the `Debugging` serve in `durable_ingest`: it
/// reaches back further than the tailored policy keeps updates hot, so
/// part of every such request misses the cache.
const DURABLE_P3_WINDOW: u32 = 12;

/// `durable_ingest`: the write path beside the reads. One job of 16
/// clients × 1024 dims; every round is one large `Ingest` frame followed
/// by 8 serves (P1/P2 on the newest round, one P3 reaching back across
/// rounds, one P4), against a store that fsyncs every ledger record.
fn durable_ingest(seed: u64, units: f64) -> Plan {
    let rounds = scaled(DURABLE_ROUNDS_PER_SEC, units, 3) as u32;
    let job = job_config(JobId::new(1), seed, 32, 16, 1024, rounds);
    let mut rng = DetRng::stream(seed, "benchmark-durable-targets");
    let pattern = [
        WorkloadKind::Inference,
        WorkloadKind::MaliciousFiltering,
        WorkloadKind::CosineSimilarity,
        WorkloadKind::SchedulingCluster,
        WorkloadKind::CosineSimilarity,
        WorkloadKind::Debugging,
        WorkloadKind::SchedulingPerf,
        WorkloadKind::CosineSimilarity,
    ];
    let mut timed = Vec::new();
    let mut id = 0u64;
    for (r, record) in FlJobSim::new(job.clone()).enumerate() {
        let record = Arc::new(record);
        let at = SimTime::ZERO + ROUND_INTERVAL.mul_f64(r as f64);
        timed.push(envelope(at, ingest(job.job, &record)));
        for (i, kind) in pattern.iter().enumerate() {
            let mut request = serve(&mut id, *kind, job.job, &record, &mut rng);
            if let Request::Serve(serve) = &mut request {
                if serve.kind == WorkloadKind::Debugging {
                    serve.window = DURABLE_P3_WINDOW;
                }
            }
            let stamp = at + SimDuration::from_secs(1 + i as u64);
            timed.push(envelope(stamp, request));
        }
    }
    Plan {
        workload: Workload::DurableIngest,
        jobs: vec![job],
        warm: Vec::new(),
        timed,
        retries: 0,
        probe: Some(WorkloadKind::CosineSimilarity),
        failures: None,
    }
}

/// Job ids for the replicated workload: the lowest ids whose home
/// primaries cover every node, so killing any node hits at least one
/// primary and one secondary.
pub fn cluster_job_ids() -> Vec<JobId> {
    let mut picked: Vec<JobId> = Vec::new();
    let mut primaries_seen = [false; CLUSTER_NODES];
    for raw in 1..u32::MAX {
        if picked.len() == CLUSTER_JOBS {
            break;
        }
        let job = JobId::new(raw);
        let primary = home_route(job)[0];
        let uncovered = primaries_seen.iter().filter(|seen| !**seen).count();
        let slots_left = CLUSTER_JOBS - picked.len();
        if !primaries_seen[primary] || slots_left > uncovered {
            primaries_seen[primary] = true;
            picked.push(job);
        }
    }
    picked
}

/// A job's home replica set in the benchmark's cluster shape.
pub fn home_route(job: JobId) -> Vec<usize> {
    replica_set(slot_of_job(job, DEFAULT_SLOTS), CLUSTER_NODES, CLUSTER_RF)
}

/// Distinct stamps after the kill during which the loss stays
/// undetected: envelopes stamped inside are answered with redirects.
const UNDETECTED_STAMPS: usize = 6;

/// The failure script for `envelopes`, placed by position in the
/// schedule rather than by share of its time span, so it lands on
/// traffic whatever the schedule's rhythm (Poisson, bursts, idle gaps):
/// node `a` dies as the envelope one third in arrives and its loss is
/// detected [`UNDETECTED_STAMPS`] distinct stamps later; it rejoins at
/// the half-way envelope; node `b` dies at the two-thirds envelope and
/// is back after half a detection interval.
pub fn failure_script(a: usize, b: usize, envelopes: &[Envelope]) -> FailureScript {
    let n = envelopes.len();
    assert!(n >= 3, "a failure script needs a schedule to land on");
    let stamp = |i: usize| envelopes[i.min(n - 1)].now;
    let kill_a = stamp(n / 3);
    let mut distinct = 0;
    let mut detected = kill_a;
    for e in &envelopes[n / 3..] {
        if e.now > detected {
            detected = e.now;
            distinct += 1;
            if distinct == UNDETECTED_STAMPS {
                break;
            }
        }
    }
    let tick = SimDuration::from_micros(1);
    let detection = detected
        .duration_since(kill_a)
        .max(SimDuration::from_millis(2));
    let rejoin_a = stamp(n / 2).max(kill_a + detection + tick);
    let kill_b = stamp(2 * n / 3).max(rejoin_a + tick);
    FailureScript {
        kill_a: (a, kill_a),
        rejoin_a,
        kill_b: (b, kill_b),
        rejoin_b: kill_b + detection.mul_f64(0.5),
        detection,
    }
}

/// `cluster_failover`: four jobs of 16 × 1024 on a 3-node rf=2 cluster
/// with per-node durable roots; each round brings one ingest and six
/// P2-heavy serves per job, one request at a time with one retry, while
/// the failure script runs.
fn cluster_failover(seed: u64, units: f64) -> Plan {
    let rounds = scaled(CLUSTER_ROUNDS_PER_SEC, units, 6) as u32;
    let jobs: Vec<FlJobConfig> = cluster_job_ids()
        .into_iter()
        .map(|job| job_config(job, seed, 32, 16, 1024, rounds))
        .collect();
    let mut sims: Vec<FlJobSim> = jobs.iter().cloned().map(FlJobSim::new).collect();
    let mut rng = DetRng::stream(seed, "benchmark-cluster-targets");
    let pattern = [
        WorkloadKind::MaliciousFiltering,
        WorkloadKind::CosineSimilarity,
        WorkloadKind::MaliciousFiltering,
        WorkloadKind::Incentives,
        WorkloadKind::Inference,
        WorkloadKind::MaliciousFiltering,
    ];
    let per_round = jobs.len() * (1 + pattern.len());
    let spacing = ROUND_INTERVAL.div_u64(per_round as u64);
    let mut timed = Vec::new();
    let mut id = 0u64;
    for r in 0..rounds {
        let mut at = SimTime::ZERO + ROUND_INTERVAL.mul_f64(f64::from(r));
        let records: Vec<Arc<RoundRecord>> = sims
            .iter_mut()
            .map(|sim| Arc::new(sim.next_round().expect("configured rounds")))
            .collect();
        for (job, record) in jobs.iter().zip(&records) {
            timed.push(envelope(at, ingest(job.job, record)));
            at += spacing;
        }
        // Serves interleave the jobs, as independent operators would.
        for kind in pattern {
            for (job, record) in jobs.iter().zip(&records) {
                let request = serve(&mut id, kind, job.job, record, &mut rng);
                timed.push(envelope(at, request));
                at += spacing;
            }
        }
    }
    let failures = Some(failure_script(1, 2, &timed));
    Plan {
        workload: Workload::ClusterFailover,
        jobs,
        warm: Vec::new(),
        timed,
        retries: 1,
        probe: Some(WorkloadKind::MaliciousFiltering),
        failures,
    }
}

/// Generates `workload`'s plan from `seed`, sized for `units` seconds.
pub fn plan(workload: Workload, seed: u64, units: f64) -> Plan {
    match workload {
        Workload::SmallServe => small_serve(seed, units),
        Workload::HeavyServe => heavy_serve(seed, units),
        Workload::DurableIngest => durable_ingest(seed, units),
        Workload::ClusterFailover => cluster_failover(seed, units),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(plan: &Plan) -> Vec<u8> {
        let mut out = Vec::new();
        for e in plan.warm.iter().chain(&plan.timed) {
            let (tag, payload) = encode_request(e.now, &e.request);
            out.push(tag);
            out.extend_from_slice(&payload);
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_and_different_seed_different_bytes() {
        for workload in Workload::ALL {
            let a = bytes_of(&plan(workload, 7, 0.05));
            let b = bytes_of(&plan(workload, 7, 0.05));
            let c = bytes_of(&plan(workload, 8, 0.05));
            assert!(!a.is_empty());
            assert_eq!(
                a,
                b,
                "{}: same seed must replay the same bytes",
                workload.name()
            );
            assert_ne!(
                a,
                c,
                "{}: another seed must change the inputs",
                workload.name()
            );
        }
    }

    #[test]
    fn wire_lengths_match_the_real_frames() {
        let plan = plan(Workload::DurableIngest, 3, 0.05);
        for e in &plan.timed {
            let (tag, payload) = encode_request(e.now, &e.request);
            let mut framed = Vec::new();
            flstore_net::wire::write_frame(&mut framed, tag, &payload).unwrap();
            assert_eq!(framed.len(), e.wire_len as usize);
            assert_eq!(payload.len(), e.payload_len as usize);
        }
        assert_eq!(frame_len(0), 3);
        assert_eq!(frame_len(127), 2 + 1 + 127);
        assert_eq!(frame_len(128), 2 + 2 + 128);
    }

    #[test]
    fn stamps_never_go_backwards_and_bursts_share_a_stamp() {
        for workload in Workload::ALL {
            let plan = plan(workload, 11, 0.05);
            let mut prev = SimTime::ZERO;
            for e in plan.warm.iter().chain(&plan.timed) {
                assert!(e.now >= prev, "{}", workload.name());
                prev = e.now;
            }
        }
        let heavy = plan(Workload::HeavyServe, 11, 0.25);
        let mut by_stamp: std::collections::BTreeMap<SimTime, usize> = Default::default();
        for e in heavy.timed.iter().filter(|e| e.tag != TAG_INGEST) {
            *by_stamp.entry(e.now).or_default() += 1;
        }
        assert!(by_stamp.values().all(|n| *n == HEAVY_BURST));
        assert_eq!(HEAVY_BURST, Workload::HeavyServe.window());
    }

    #[test]
    fn every_slice_of_heavy_serve_holds_the_same_mix() {
        let per_round = 1 + HEAVY_MIX.iter().map(|(_, n)| n).sum::<usize>();
        for seed in [1, 2] {
            let heavy = plan(Workload::HeavyServe, seed, 8.0);
            assert_eq!(heavy.timed.len() % (SLICES * per_round), 0);
            let slice = heavy.timed.len() / SLICES;
            let counts = |envelopes: &[Envelope]| {
                let mut by_tag = [0usize; TAG_INGEST as usize + 1];
                for e in envelopes {
                    by_tag[e.tag as usize] += 1;
                }
                by_tag
            };
            let first = counts(&heavy.timed[..slice]);
            for s in 1..SLICES {
                assert_eq!(counts(&heavy.timed[s * slice..(s + 1) * slice]), first);
            }
            for (kind, n) in HEAVY_MIX {
                assert_eq!(first[kind_tag(kind) as usize], n * slice / per_round);
            }
        }
    }

    #[test]
    fn cluster_jobs_put_a_primary_on_every_node() {
        let jobs = cluster_job_ids();
        assert_eq!(jobs.len(), CLUSTER_JOBS);
        for node in 0..CLUSTER_NODES {
            assert!(jobs.iter().any(|j| home_route(*j)[0] == node));
        }
        for workload in Workload::ALL {
            let p = plan(workload, 3, 0.05);
            let script = failure_script(1, 2, &p.timed);
            assert!(script.kill_a.1 < script.failover_at());
            assert!(script.failover_at() < script.rejoin_a);
            assert!(script.rejoin_a < script.kill_b.1);
            assert!(script.rejoin_b < script.kill_b.1 + script.detection);
            // The first kill lands on an envelope.
            assert!(p.timed.iter().any(|e| e.now == script.kill_a.1));
        }
    }
}
