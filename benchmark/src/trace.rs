//! The traced run: shorter passes over the same workload — plain, then
//! with every span wrapper in place, then plain again — plus the
//! per-layer probes.
//!
//! End-to-end numbers never come from here. The plain passes exist so the
//! tracing overhead can be stated (`trace_overhead_pct`); the traced pass
//! yields the spans, the engine-side batch log, per-thread CPU time, and
//! a stage table for one served request.

use std::collections::BTreeMap;
use std::path::Path;

use flstore_core::api::{Request, Service};
use flstore_fl::ids::{JobId, Round};
use flstore_net::client::NetClient;
use flstore_net::codec::{decode_request, decode_response, encode_request, encode_response};
use flstore_net::wire::{read_frame, write_frame};
use flstore_sim::time::SimTime;
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::{PolicyClass, WorkloadKind};

use crate::clock::now_ns;
use crate::deploy::{store_config, Backend, Live};
use crate::driver::{fold_bytes, Outcome, FNV_OFFSET};
use crate::measure::{end_to_end, run_pass, setup, Metrics, NoHooks, Pass, PassHooks, RunArgs};
use crate::oracle::{self, Clock};
use crate::probes;
use crate::schedule::{Plan, Workload};
use crate::spans::{self, Span, Tracer};
use crate::stats::median;
use crate::wrappers::BatchLog;

/// Stages of one request's pipeline, replayed inline on one thread.
pub const STAGES: [&str; 10] = [
    "encode_request",
    "write_request_frame",
    "read_request_frame",
    "decode_request",
    "submit_batch",
    "encode_response",
    "write_response_frame",
    "read_response_frame",
    "decode_response",
    "checksum",
];

/// End-to-end quantities reported with the per-layer metrics (see
/// [`traced`]).
pub const UNBOUNDED: [&str; 6] = [
    "ingest_p90_us",
    "lat_p90_us",
    "lat_p99_us",
    "recovery_mb_per_s",
    "failover_stall_ms",
    "rejoin_stall_ms",
];

/// Layers a share of busy time is reported for.
pub const LAYERS: [&str; 7] = [
    "loadgen",
    "net",
    "exec",
    "core",
    "workloads",
    "durability",
    "cluster",
];

/// Replays one request's pipeline inline, timing each stage; returns the
/// per-stage nanoseconds in [`STAGES`] order.
fn replay_once(backend: &mut Backend, now: SimTime, request: &Request) -> [u64; 10] {
    let mut t = [0u64; 11];
    t[0] = now_ns();
    let (tag, payload) = encode_request(now, request);
    t[1] = now_ns();
    let mut frame = Vec::with_capacity(payload.len() + 12);
    write_frame(&mut frame, tag, &payload).expect("vec write");
    t[2] = now_ns();
    let (tag, payload) = read_frame(&mut frame.as_slice())
        .expect("well-formed")
        .expect("one frame");
    t[3] = now_ns();
    let (now, decoded) = decode_request(tag, &payload).expect("round-trips");
    t[4] = now_ns();
    let response = backend
        .submit_batch(now, std::slice::from_ref(&decoded))
        .pop()
        .expect("one response");
    t[5] = now_ns();
    let (tag, payload) = encode_response(&response);
    t[6] = now_ns();
    let mut frame = Vec::with_capacity(payload.len() + 12);
    write_frame(&mut frame, tag, &payload).expect("vec write");
    t[7] = now_ns();
    let (tag, payload) = read_frame(&mut frame.as_slice())
        .expect("well-formed")
        .expect("one frame");
    t[8] = now_ns();
    let response = decode_response(tag, &payload).expect("round-trips");
    t[9] = now_ns();
    let (tag, payload) = encode_response(&response);
    std::hint::black_box(fold_bytes(FNV_OFFSET, tag, &payload));
    t[10] = now_ns();
    std::array::from_fn(|i| t[i + 1] - t[i])
}

/// Median per-stage microseconds over `calls` inline replays.
fn replay(
    backend: &mut Backend,
    now: SimTime,
    mut next: impl FnMut() -> Request,
    calls: usize,
) -> [f64; 10] {
    let mut samples: Vec<[u64; 10]> = Vec::with_capacity(calls);
    for _ in 0..calls {
        samples.push(replay_once(backend, now, &next()));
    }
    std::array::from_fn(|stage| {
        median(&samples.iter().map(|s| s[stage] as f64).collect::<Vec<_>>()) / 1e3
    })
}

/// Sends `calls` requests one at a time over the live connection and
/// records each call's `(send_ns, recv_ns)`.
fn live_calls(
    client: &mut NetClient,
    now: SimTime,
    mut next: impl FnMut() -> Request,
    calls: usize,
) -> Vec<(u64, u64)> {
    (0..calls)
        .filter_map(|_| {
            let request = next();
            let send = now_ns();
            client.call(now, &request).ok()?;
            Some((send, now_ns()))
        })
        .collect()
}

/// The workload's probe request: its probe kind on the newest round.
struct ProbeRequests {
    template: WorkloadRequest,
    next_id: u64,
}

impl ProbeRequests {
    fn new(plan: &Plan) -> Self {
        let kind = plan.probe.unwrap_or(WorkloadKind::CosineSimilarity);
        let template = plan
            .timed
            .iter()
            .rev()
            .find_map(|e| match &e.request {
                Request::Serve(serve) if serve.kind == kind => Some(*serve),
                _ => None,
            })
            .expect("every workload serves its probe kind");
        debug_assert!(template.kind.policy_class() != PolicyClass::P3AcrossRounds);
        ProbeRequests {
            template,
            // Far above every scheduled id, so trace-time requests never
            // collide with the schedule's.
            next_id: 1 << 40,
        }
    }

    fn next(&mut self) -> Request {
        self.next_id += 1;
        Request::Serve(WorkloadRequest {
            id: RequestId::new(self.next_id),
            ..self.template
        })
    }

    /// The cheapest envelope that still crosses every hop: a serve for a
    /// job nobody owns is rejected at admission, with no side effects.
    fn ping(&mut self) -> Request {
        self.next_id += 1;
        Request::Serve(WorkloadRequest::new(
            RequestId::new(self.next_id),
            WorkloadKind::SchedulingPerf,
            JobId::new(u32::MAX - 7),
            Round::ZERO,
            None,
        ))
    }
}

/// How many window-1 / inline calls a workload's probe request gets
/// (heavy kernels are milliseconds each).
fn probe_calls(workload: Workload, quick: bool) -> usize {
    let full = match workload {
        Workload::SmallServe => 2000,
        Workload::HeavyServe => 100,
        Workload::DurableIngest | Workload::ClusterFailover => 400,
    };
    if quick {
        full / 10
    } else {
        full
    }
}

/// `Stats` answers in time proportional to the requests served so far,
/// so it gets few calls.
const STATS_CALLS: usize = 40;
/// Ping calls (cheap).
const PING_CALLS: usize = 1000;

/// The extra measurements of the traced pass: window-1 calls against the
/// live deployment (joined with the engine's batch log afterwards), then
/// the same requests replayed inline against the backend.
struct TraceHooks {
    probes: ProbeRequests,
    quick: bool,
    stats_calls: Vec<(u64, u64)>,
    ping_calls: Vec<(u64, u64)>,
    probe_calls: Vec<(u64, u64)>,
    ping_stages_us: [f64; 10],
    probe_stages_us: [f64; 10],
}

impl PassHooks for TraceHooks {
    fn live(&mut self, live: &mut Live, plan: &Plan) {
        let now = plan.timed.last().map(|e| e.now).unwrap_or_default();
        let calls = probe_calls(plan.workload, self.quick);
        self.stats_calls = live_calls(&mut live.client, now, || Request::Stats, STATS_CALLS);
        let probes = &mut self.probes;
        self.ping_calls = live_calls(&mut live.client, now, || probes.ping(), PING_CALLS);
        self.probe_calls = live_calls(&mut live.client, now, || probes.next(), calls);
    }

    fn backend(&mut self, backend: &mut Backend, plan: &Plan) {
        let now = plan.timed.last().map(|e| e.now).unwrap_or_default();
        let calls = probe_calls(plan.workload, self.quick);
        let probes = &mut self.probes;
        self.ping_stages_us = replay(backend, now, || probes.ping(), PING_CALLS);
        self.probe_stages_us = replay(backend, now, || probes.next(), calls);
    }
}

/// Median `(latency, engine wait, service, reply)` in µs of window-1
/// `calls` whose first envelope had engine sequence number `first_seq`.
fn split_calls(calls: &[(u64, u64)], first_seq: u64, log: &BatchLog) -> [f64; 4] {
    let mut parts: [Vec<f64>; 4] = Default::default();
    for (i, (send, recv)) in calls.iter().enumerate() {
        let seq = first_seq + i as u64;
        let at = log
            .batches
            .partition_point(|(first, n, _, _)| first + u64::from(*n) <= seq);
        let Some(&(first, _, start, end)) = log.batches.get(at) else {
            continue;
        };
        if seq < first {
            continue;
        }
        parts[0].push((recv - send) as f64 / 1e3);
        parts[1].push(start.saturating_sub(*send) as f64 / 1e3);
        parts[2].push((end - start) as f64 / 1e3);
        parts[3].push(recv.saturating_sub(end) as f64 / 1e3);
    }
    std::array::from_fn(|i| median(&parts[i]))
}

fn cpu_of(threads: &[(String, u64)], prefix: &str) -> u64 {
    threads
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, ns)| ns)
        .sum()
}

/// Busy nanoseconds per layer over the traced pass's timed phase.
///
/// Inside the service, a layer's busy time is its spans' self time (wall
/// time, so a durable store's fsync waits count against `durability`).
/// Threads the wrappers cannot see into are attributed by their CPU time:
/// the generator thread to `loadgen`; the server's reader, writer and
/// accept threads to `net`, with whatever the engine thread burnt outside
/// service spans. Behind the executor the kernels run on worker threads
/// outside any span, so `workloads` is the workers' CPU time minus the
/// unit's bookkeeping spans (it includes the steal loop), and the engine
/// thread's CPU time — dispatch and merge — goes to `exec`.
fn layer_busy_ns(
    workload: Workload,
    spans: &[Span],
    threads: &[(String, u64)],
    phase: (u64, u64),
) -> BTreeMap<&'static str, f64> {
    let in_phase: Vec<Span> = spans
        .iter()
        .filter(|s| s.start_ns >= phase.0 && s.end_ns <= phase.1)
        .cloned()
        .collect();
    let mut busy: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    for (layer, ns) in spans::layer_self_ns(&in_phase) {
        if let Some(slot) = busy.get_mut(layer) {
            *slot += ns as f64;
        }
    }
    let engine_cpu = cpu_of(threads, "net-engine") as f64;
    let net_threads = (cpu_of(threads, "net-reader")
        + cpu_of(threads, "net-writer")
        + cpu_of(threads, "net-accept")) as f64;
    *busy.get_mut("loadgen").expect("listed") += cpu_of(threads, "flstore-bench") as f64;
    if workload == Workload::HeavyServe {
        let workers = cpu_of(threads, "flstore-shard") as f64;
        let bookkeeping = busy["core"];
        // The executor span's self time is mostly the engine thread
        // blocked on its workers: replace it by what it actually burnt.
        *busy.get_mut("exec").expect("listed") = engine_cpu;
        *busy.get_mut("workloads").expect("listed") += (workers - bookkeeping).max(0.0);
        *busy.get_mut("net").expect("listed") += net_threads;
    } else {
        let in_service: f64 = in_phase
            .iter()
            .filter(|s| s.parent == 0 && s.layer() != "loadgen")
            .map(|s| s.duration_ns() as f64)
            .sum();
        *busy.get_mut("net").expect("listed") += net_threads + (engine_cpu - in_service).max(0.0);
    }
    busy
}

/// Joins the client's per-attempt stamps with the engine's batch log:
/// `(engine wait µs, reply µs)` medians over the timed phase.
fn engine_gaps_us(pass: &Pass, warm_attempts: usize) -> (f64, f64) {
    let Some(log) = &pass.batch_log else {
        return (0.0, 0.0);
    };
    let mut waits = Vec::with_capacity(pass.timed.attempts.len());
    let mut replies = Vec::with_capacity(pass.timed.attempts.len());
    let mut batches = log.batches.iter().peekable();
    for (i, attempt) in pass.timed.attempts.iter().enumerate() {
        // The engine's sequence numbers count every envelope since bind:
        // the warm ingest came first.
        let seq = (warm_attempts + i) as u64;
        while batches
            .peek()
            .is_some_and(|(first, n, _, _)| first + u64::from(*n) <= seq)
        {
            batches.next();
        }
        let Some(&&(first, _, start, end)) = batches.peek() else {
            break;
        };
        if seq < first || attempt.recv_ns == 0 {
            continue;
        }
        waits.push(start.saturating_sub(attempt.sent_ns) as f64 / 1e3);
        replies.push(attempt.recv_ns.saturating_sub(end) as f64 / 1e3);
    }
    (median(&waits), median(&replies))
}

/// What a traced run produced.
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Metrics,
    /// Requests attempted across both passes.
    pub attempted: usize,
    /// Requests failed across both passes.
    pub failed: usize,
}

/// One plain (unwrapped) pass sized for `seconds`: `(requests per
/// second, checksum, undelivered)`.
fn plain_pass(args: &RunArgs, seconds: f64) -> (f64, u64, usize) {
    let sized = RunArgs {
        seconds,
        ..args.clone()
    };
    let (plan, live, _) = setup(&sized, None, "plain");
    let pass = run_pass(live, &plan, &mut NoHooks);
    let _ = std::fs::remove_dir_all(&pass.data_dir);
    let undelivered = pass
        .timed
        .finals
        .iter()
        .filter(|f| matches!(f.outcome, Outcome::Lost | Outcome::Overloaded))
        .count();
    (
        plan.timed.len() as f64 / pass.wall_s,
        pass.timed.checksum,
        undelivered,
    )
}

/// Runs the traced pass (between two plain passes) and the probes for
/// `args.workload`, writing the span file to `out_dir`.
pub fn traced(args: &RunArgs, out_dir: &Path) -> Traced {
    // Plain · traced · plain, all at half size: whatever drifts over the
    // run (page cache, allocator, a neighbour) lands on both sides of the
    // comparison instead of on whichever pass came second.
    let half = args.seconds / 2.0;
    let (plain_before, plain_checksum, lost_before) = plain_pass(args, half);

    let tracer = Tracer::new();
    let sized = RunArgs {
        seconds: half,
        ..args.clone()
    };
    let (plan, live, _) = setup(&sized, Some(&tracer), "traced");
    let mut hooks = TraceHooks {
        probes: ProbeRequests::new(&plan),
        quick: args.quick,
        stats_calls: Vec::new(),
        ping_calls: Vec::new(),
        probe_calls: Vec::new(),
        ping_stages_us: [0.0; 10],
        probe_stages_us: [0.0; 10],
    };
    let mut pass = run_pass(live, &plan, &mut hooks);
    let mut client_rec = tracer.recorder();
    for attempt in pass.timed.attempts.iter().filter(|a| a.recv_ns != 0) {
        let request = &plan.timed[attempt.envelope as usize].request;
        client_rec.root(
            "loadgen.request",
            attempt.send_ns,
            attempt.recv_ns,
            crate::wrappers::request_ident(request),
        );
    }
    drop(client_rec);
    let traced_rps = plan.timed.len() as f64 / pass.wall_s;
    let phase = (pass.timed.started_ns, pass.timed.ended_ns);

    let (plain_after, checksum_after, lost_after) = plain_pass(args, half);
    let plain_rps = (plain_before + plain_after) / 2.0;

    // Correctness of the traced pass, and agreement between the passes.
    let template = store_config(&plan);
    let tenancy = plan.workload == Workload::ClusterFailover;
    let mut reference = oracle::reference(&plan, &template, tenancy);
    let mut clock = Clock::new();
    let warm = oracle::check(reference.as_mut(), &mut clock, &plan.warm, &pass.warm);
    let timed = oracle::check(reference.as_mut(), &mut clock, &plan.timed, &pass.timed);
    drop(reference);
    let passes_disagree = usize::from(plain_checksum != pass.timed.checksum)
        + usize::from(checksum_after != pass.timed.checksum);

    // Drop the deployment so every recorder has flushed.
    let hit_rate = pass.stats.as_ref().map(|s| s.hit_rate).unwrap_or(0.0);
    drop(pass.parts.take());
    let sink = pass.sink_counts.take().and_then(|rx| rx.try_recv().ok());
    let _ = std::fs::remove_dir_all(&pass.data_dir);
    let spans = tracer.take_spans();

    // The end-to-end quantities that do not repeat well enough on a
    // shared box to carry a regression bound — tail latency, `recover`
    // throughput and the two stalls — are reported here, unbounded, from
    // an untraced end-to-end run of their own.
    let unbounded = end_to_end(&sized);

    let mut m: Metrics = probes::run(args);
    for name in UNBOUNDED {
        let value = unbounded.metrics[name];
        m.insert(name, value);
    }
    m.insert(
        "trace_overhead_pct",
        (100.0 * (plain_rps - traced_rps) / plain_rps, "%"),
    );
    m.insert("trace.plain_rps", (plain_rps, "1/s"));
    m.insert("trace.traced_rps", (traced_rps, "1/s"));
    m.insert("trace.spans", (spans.len() as f64, "count"));

    // Layer shares of busy time.
    let busy = layer_busy_ns(plan.workload, &spans, &pass.thread_cpu_ns, phase);
    let total: f64 = busy.values().sum::<f64>().max(1.0);
    for layer in LAYERS {
        let name: &'static str = match layer {
            "loadgen" => "trace.share.loadgen",
            "net" => "trace.share.net",
            "exec" => "trace.share.exec",
            "core" => "trace.share.core",
            "workloads" => "trace.share.workloads",
            "durability" => "trace.share.durability",
            _ => "trace.share.cluster",
        };
        m.insert(name, (busy[layer] / total, "share"));
    }
    let in_phase: Vec<Span> = spans
        .iter()
        .filter(|s| s.start_ns >= phase.0 && s.end_ns <= phase.1)
        .cloned()
        .collect();
    let ingest_self = spans::by_name(&in_phase)
        .get("core.ingest")
        .map(|(_, ns)| *ns)
        .unwrap_or(0);
    m.insert(
        "trace.share.core_ingest",
        (ingest_self as f64 / total, "share"),
    );

    // Engine-side view of the timed phase.
    let (wait_us, reply_us) = engine_gaps_us(&pass, pass.warm.attempts.len());
    let log = pass.batch_log.clone().unwrap_or_default();
    m.insert("net.engine_batch_mean", (log.mean_batch(), "count"));
    m.insert("net.engine_wait_us", (wait_us, "us"));
    m.insert("net.reply_us", (reply_us, "us"));
    let overloaded = pass
        .timed
        .finals
        .iter()
        .filter(|f| f.outcome == Outcome::Overloaded)
        .count();
    m.insert("net.overloaded", (overloaded as f64, "count"));
    m.insert("core.hit_rate", (hit_rate, "share"));
    let sink = sink.unwrap_or_default();
    m.insert(
        "trace.sink_append_us",
        (
            sink.append_ns as f64 / 1e3 / sink.appends.max(1) as f64,
            "us",
        ),
    );
    m.insert("trace.sink_appends", (sink.appends as f64, "count"));
    m.insert("trace.sink_seals", (sink.seals as f64, "count"));

    // The stage table for one served request at window 1.
    //
    // Measured live, per call: latency = engine wait + service + reply
    // (client stamps joined with the engine's batch log). Measured
    // inline, on one thread: the ten pipeline stages. The transport gap
    // is what the two hops cost beyond the codec and framing work the
    // inline stages account for — syscalls, loopback, thread wake-ups.
    // What is left unnamed is the difference between serving the request
    // live and serving it inline.
    let first_seq = (pass.warm.attempts.len() + pass.timed.attempts.len() + 1) as u64;
    let stats = split_calls(&hooks.stats_calls, first_seq, &log);
    let ping_seq = first_seq + hooks.stats_calls.len() as u64;
    let ping = split_calls(&hooks.ping_calls, ping_seq, &log);
    let probe_seq = ping_seq + hooks.ping_calls.len() as u64;
    let probe = split_calls(&hooks.probe_calls, probe_seq, &log);
    // Stages 0–3 and 5–8 are codec and framing; 4 is the service; 9 (the
    // checksum) happens after the reply is in and is not in the latency.
    let hops = |stages: &[f64; 10]| stages[..4].iter().chain(&stages[5..9]).sum::<f64>();
    let gap = probe[1] + probe[3] - hops(&hooks.probe_stages_us);
    let stage_sum = hops(&hooks.probe_stages_us) + hooks.probe_stages_us[4];
    let remainder = probe[0] - stage_sum - gap;
    m.insert("net.rtt_stats_us", (stats[0], "us"));
    m.insert("net.rtt_ping_us", (ping[0], "us"));
    m.insert(
        "net.ping_transport_gap_us",
        (ping[1] + ping[3] - hops(&hooks.ping_stages_us), "us"),
    );
    m.insert("net.transport_gap_us", (gap, "us"));
    m.insert("trace.window1_latency_us", (probe[0], "us"));
    m.insert("trace.window1_engine_wait_us", (probe[1], "us"));
    m.insert("trace.window1_service_us", (probe[2], "us"));
    m.insert("trace.window1_reply_us", (probe[3], "us"));
    m.insert("trace.stage_sum_us", (stage_sum, "us"));
    m.insert(
        "trace.unnamed_remainder_pct",
        (100.0 * remainder / probe[0].max(1e-9), "%"),
    );
    let stage_names: [&'static str; 10] = [
        "trace.stage.encode_request_us",
        "trace.stage.write_request_frame_us",
        "trace.stage.read_request_frame_us",
        "trace.stage.decode_request_us",
        "trace.stage.submit_batch_us",
        "trace.stage.encode_response_us",
        "trace.stage.write_response_frame_us",
        "trace.stage.read_response_frame_us",
        "trace.stage.decode_response_us",
        "trace.stage.checksum_us",
    ];
    for (name, value) in stage_names.iter().zip(hooks.probe_stages_us) {
        m.insert(name, (value, "us"));
    }

    // The span file.
    let mut file = spans::to_json(&spans);
    if let serde_json::Value::Object(map) = &mut file {
        map.insert("workload".into(), serde_json::json!(plan.workload.name()));
        map.insert("seed".into(), serde_json::json!(args.seed));
        let stages: Vec<serde_json::Value> = STAGES
            .iter()
            .zip(hooks.probe_stages_us)
            .map(|(stage, us)| serde_json::json!({"stage": stage, "us": us}))
            .collect();
        map.insert(
            "stage_table".into(),
            serde_json::json!({
                "request": format!("{:?}", hooks.probes.template.kind),
                "stages_inline": stages,
                "stage_sum_us": stage_sum,
                "transport_gap_us": gap,
                "window1_latency_us": probe[0],
                "window1_engine_wait_us": probe[1],
                "window1_service_us": probe[2],
                "window1_reply_us": probe[3],
                "unnamed_remainder_us": remainder,
            }),
        );
        let shares: BTreeMap<String, f64> = busy
            .iter()
            .map(|(layer, ns)| (layer.to_string(), ns / total))
            .collect();
        map.insert("layer_busy_share".into(), serde_json::json!(shares));
        let cpu: BTreeMap<String, u64> = pass.thread_cpu_ns.iter().cloned().collect();
        map.insert("thread_cpu_ns".into(), serde_json::json!(cpu));
    }
    let path = out_dir.join(format!("trace-{}.json", plan.workload.name()));
    if std::fs::create_dir_all(out_dir).is_ok() {
        let text = serde_json::to_string(&file).expect("json values serialize");
        let _ = std::fs::write(path, text);
    }

    let extra_calls = STATS_CALLS + PING_CALLS + probe_calls(plan.workload, args.quick);
    let unanswered =
        extra_calls - hooks.stats_calls.len() - hooks.ping_calls.len() - hooks.probe_calls.len();
    let attempted =
        3 * (plan.timed.len() + plan.warm.len()) + extra_calls + 2 + unbounded.attempted;
    let failed = timed.failed()
        + warm.failed()
        + lost_before
        + lost_after
        + passes_disagree
        + unanswered
        + unbounded.failed;
    Traced {
        metrics: m,
        attempted,
        failed,
    }
}
