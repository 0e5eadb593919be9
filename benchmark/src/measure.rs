//! One workload, end to end: set up (several times), drive, take the
//! deployment apart, verify against the oracle, and compute the
//! end-to-end metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use flstore_core::api::{Request, Response, StatsReport};
use flstore_core::store::FlStore;
use flstore_durability::recover::recover;
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::WorkloadKind;

use crate::clock::{now_ns, peak_rss_mb, process_cpu_ns, secs_between, thread_cpu_ns};
use crate::deploy::{deploy, dir_bytes, ledger_bytes, store_config, Backend, Live, Parts};
use crate::driver::{drive, DriveResult, Outcome};
use crate::ops::{self, Ops};
use crate::oracle::{self, Clock, Verdict};
use crate::schedule::{kind_tag, plan, Plan, Workload, TAG_INGEST};
use crate::spans::Tracer;
use crate::stats::{best_slice, median};
use crate::wrappers::{BatchLog, SinkCounts};

/// How many times set-up runs; `setup_s` is the median. A set-up of
/// `heavy_serve` costs half a second (it simulates and ingests eight
/// 48 x 4096 rounds); the others cost a tenth of that — mostly thread
/// spawns, a bind and a connect, which jitter — so they get more.
fn setup_repeats(workload: Workload) -> usize {
    match workload {
        Workload::HeavyServe => 5,
        _ => 15,
    }
}

/// How many of those deployments the timed schedule is driven against
/// (the last ones). Every pass replays the same bytes on a fresh
/// deployment, and each timing is the best any pass saw: on a shared box
/// the machine's speed drifts over tens of seconds, and several passes
/// spread over the run are likelier to meet a quiet stretch than one.
/// The window-1 durable workloads get the most because their schedule is
/// short (`recover` costs several times what writing the ledger did, and
/// the failover run spends most of its time inside two stalls).
fn timed_passes(workload: Workload) -> usize {
    match workload {
        Workload::SmallServe | Workload::HeavyServe => 2,
        Workload::DurableIngest => 5,
        Workload::ClusterFailover => 2,
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the timed phase is sized for.
    pub seconds: f64,
    /// 1/20 scale, for smoke runs.
    pub quick: bool,
    /// Scratch directory for durable state (inside the checkout, on a
    /// real filesystem).
    pub data_root: PathBuf,
}

impl RunArgs {
    /// Seconds after scaling.
    pub fn units(&self) -> f64 {
        if self.quick {
            self.seconds / 20.0
        } else {
            self.seconds
        }
    }

    /// A fresh directory name under the data root.
    pub fn data_dir(&self, what: &str) -> PathBuf {
        self.data_root.join(format!(
            "{}-{}-{}",
            self.workload.name(),
            what,
            std::process::id()
        ))
    }
}

/// A metric value with its unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// One pass of one workload over the wire.
pub struct Pass {
    /// What the timed drive observed.
    pub timed: DriveResult,
    /// What the warm ingest observed.
    pub warm: DriveResult,
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// On-CPU nanoseconds of the whole process over the timed phase.
    pub cpu_ns: u64,
    /// The same, per thread name.
    pub thread_cpu_ns: Vec<(String, u64)>,
    /// The deployment's `Stats` answer right after the timed phase.
    pub stats: Option<StatsReport>,
    /// The deployment, taken apart (`verify` consumes it).
    pub parts: Option<Parts>,
    /// Engine-side batch log (traced passes).
    pub batch_log: Option<BatchLog>,
    /// Yields the record-sink counters of a traced durable pass once its
    /// store has been dropped.
    pub sink_counts: Option<std::sync::mpsc::Receiver<SinkCounts>>,
    /// Where the deployment's durable state lives.
    pub data_dir: PathBuf,
}

/// Extra measurements a pass can make on the way down (the traced pass
/// uses both; the end-to-end pass uses neither).
pub trait PassHooks {
    /// Runs against the live deployment, after the timed phase.
    fn live(&mut self, _live: &mut Live, _plan: &Plan) {}
    /// Runs against the backend the server handed back, before it is
    /// taken apart.
    fn backend(&mut self, _backend: &mut Backend, _plan: &Plan) {}
}

/// No extra measurements.
pub struct NoHooks;

impl PassHooks for NoHooks {}

/// Drives `plan`'s timed schedule against an already-deployed `live`
/// system and takes it apart.
pub fn run_pass(mut live: Live, plan: &Plan, hooks: &mut dyn PassHooks) -> Pass {
    let threads_before = thread_cpu_ns();
    let cpu_before = process_cpu_ns();
    let timed = drive(
        &mut live.client,
        &plan.timed,
        plan.workload.window(),
        plan.retries,
    )
    .expect("loopback connection");
    let cpu_ns = process_cpu_ns().saturating_sub(cpu_before);
    let threads_after = thread_cpu_ns();
    let stamp = plan.timed.last().map(|e| e.now).unwrap_or_default();
    let stats = match live.client.call(stamp, &Request::Stats) {
        Ok(Response::Stats(report)) => Some(report),
        _ => None,
    };
    hooks.live(&mut live, plan);
    let warm = live.warm.clone();
    let data_dir = live.data_dir.clone();
    let (mut backend, sink_counts) = live.teardown();
    hooks.backend(&mut backend, plan);
    let (parts, batch_log) = backend.dissolve();
    Pass {
        wall_s: secs_between(timed.started_ns, timed.ended_ns),
        timed,
        warm,
        cpu_ns,
        thread_cpu_ns: thread_delta(&threads_before, &threads_after),
        stats,
        parts: Some(parts),
        batch_log,
        sink_counts,
        data_dir,
    }
}

fn thread_delta(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
    // Threads share names (two shard workers, reader + writer): sum by
    // name on both sides, then subtract.
    let sum = |rows: &[(String, u64)]| {
        let mut by_name: BTreeMap<String, u64> = BTreeMap::new();
        for (name, ns) in rows {
            *by_name.entry(name.clone()).or_default() += ns;
        }
        by_name
    };
    let before = sum(before);
    sum(after)
        .into_iter()
        .map(|(name, ns)| {
            let delta = ns.saturating_sub(before.get(&name).copied().unwrap_or(0));
            (name, delta)
        })
        .collect()
}

/// Generates the plan and brings the deployment up once; returns both
/// and the seconds it took. Set-up is job simulation, schedule build,
/// deployment build, bind, connect and warm ingest.
pub fn setup(args: &RunArgs, tracer: Option<&Arc<Tracer>>, what: &str) -> (Plan, Live, f64) {
    let start = now_ns();
    let plan = plan(args.workload, args.seed, args.units());
    let live = deploy(&plan, tracer, &args.data_dir(what));
    let secs = secs_between(start, now_ns());
    (plan, live, secs)
}

/// The outcome of one end-to-end run.
pub struct EndToEnd {
    /// The named end-to-end metrics.
    pub metrics: Metrics,
    /// Requests attempted (scheduled envelopes, warm ingests, drill
    /// envelopes, recovery checks).
    pub attempted: usize,
    /// Requests failed: transport errors, `Overloaded`, responses that
    /// differ from the reference, failed recovery checks.
    pub failed: usize,
    /// Exact facts of the run (counts, checksums) that must repeat for
    /// the same seed.
    pub facts: BTreeMap<&'static str, String>,
    /// Sample counts behind the timing metrics.
    pub samples: BTreeMap<&'static str, usize>,
}

/// First-attempt latencies (µs) of the envelopes tagged `tag`, in
/// schedule order; `None` selects every serve.
pub fn latencies_us(plan: &Plan, drive: &DriveResult, tag: Option<u8>) -> Vec<f64> {
    plan.timed
        .iter()
        .zip(&drive.finals)
        .filter(|(e, f)| {
            f.first_attempt != u32::MAX
                && match tag {
                    Some(tag) => e.tag == tag,
                    None => e.tag != TAG_INGEST,
                }
        })
        .map(|(_, f)| drive.attempts[f.first_attempt as usize].latency_us())
        .collect()
}

/// The probe batch compared across a crash: one serve of each class on
/// the newest rounds.
fn recovery_probe(plan: &Plan) -> Vec<Request> {
    let job = plan.jobs[0].job;
    let Some(Request::Ingest { record, .. }) = plan
        .timed
        .iter()
        .rev()
        .map(|e| &e.request)
        .find(|r| matches!(r, Request::Ingest { .. }))
    else {
        return Vec::new();
    };
    let client = record.updates[0].client;
    [
        WorkloadKind::Inference,
        WorkloadKind::MaliciousFiltering,
        WorkloadKind::CosineSimilarity,
        WorkloadKind::ReputationCalc,
        WorkloadKind::SchedulingPerf,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, kind)| {
        let target = matches!(kind, WorkloadKind::ReputationCalc | WorkloadKind::Debugging)
            .then_some(client);
        Request::Serve(WorkloadRequest::new(
            RequestId::new(u64::MAX - i as u64),
            kind,
            job,
            record.round,
            target,
        ))
    })
    .collect()
}

/// Crash-recovery epilogue of a durable single store: the store is
/// dropped (flushing its ledger), `recover` is timed, and the recovered
/// store must match the pre-crash one in digest and in its answers to a
/// probe batch. Returns the disk metrics and the number of failed checks
/// (out of 2).
fn crash_and_recover(plan: &Plan, mut store: Box<FlStore>, dir: &Path) -> (f64, f64, usize) {
    let digest = store.durability_digest();
    // Detach (and thereby flush) the ledger, so the probe batch below is
    // not logged and the directory holds exactly the run.
    drop(store.take_record_sink());
    let disk = dir_bytes(dir);
    let ledger = ledger_bytes(dir);
    let start = now_ns();
    let recovered = recover(dir);
    let secs = secs_between(start, now_ns());
    let payload = Plan::ingest_payload_bytes(&plan.timed) + Plan::ingest_payload_bytes(&plan.warm);
    let write_amp = disk as f64 / payload.max(1) as f64;
    let rate = ledger as f64 / 1e6 / secs;
    let Ok(mut recovered) = recovered else {
        return (write_amp, rate, 2);
    };
    let mut failed = usize::from(recovered.durability_digest() != digest);
    drop(recovered.take_record_sink());
    let probe = recovery_probe(plan);
    let stamp = plan.timed.last().map(|e| e.now).unwrap_or_default();
    if oracle::probe(&mut store, stamp, &probe) != oracle::probe(&mut recovered, stamp, &probe) {
        failed += 1;
    }
    (write_amp, rate, failed)
}

/// Everything the oracle and the epilogues found.
pub struct Verification {
    /// Verdict on the warm ingest.
    pub warm: Verdict,
    /// Verdict on the timed schedule.
    pub timed: Verdict,
    /// The operational metrics (from the run itself or the drill).
    pub ops: Ops,
    /// Checks attempted beyond the scheduled envelopes.
    pub extra_attempted: usize,
    /// Of those, failed.
    pub extra_failed: usize,
}

/// Verifies `pass` against the reference and produces the operational
/// metrics: from the deployment's own epilogue where it is durable or
/// replicated, from the drill otherwise.
pub fn verify(args: &RunArgs, plan: &Plan, pass: &mut Pass) -> Verification {
    let template = store_config(plan);
    let tenancy = plan.workload == Workload::ClusterFailover;
    let started = now_ns();
    let mut reference = oracle::reference(plan, &template, tenancy);
    let mut clock = Clock::new();
    let warm = oracle::check(reference.as_mut(), &mut clock, &plan.warm, &pass.warm);
    let timed = oracle::check(reference.as_mut(), &mut clock, &plan.timed, &pass.timed);
    drop(reference);
    let oracle_done = now_ns();

    let mut extra_attempted = 0;
    let mut extra_failed = 0;
    let mut ops = Ops::default();
    let needs_drill;
    match pass.parts.take().expect("a pass is verified once") {
        Parts::Cluster(cluster) => {
            extra_attempted += 2;
            extra_failed += usize::from(cluster.stats().rejoin_digest_mismatches > 0);
            drop(cluster); // flushes every node's ledgers
            let payload = Plan::ingest_payload_bytes(&plan.timed);
            match ops::disk_metrics(&pass.data_dir, payload) {
                Some((write_amp, rate)) => {
                    ops.write_amp = write_amp;
                    ops.recovery_mb_per_s = rate;
                }
                None => extra_failed += 1,
            }
            needs_drill = false;
        }
        Parts::Store(store) if plan.workload == Workload::DurableIngest => {
            extra_attempted += 2;
            let (write_amp, rate, failed) = crash_and_recover(plan, store, &pass.data_dir);
            extra_failed += failed;
            ops.write_amp = write_amp;
            ops.recovery_mb_per_s = rate;
            needs_drill = true;
        }
        Parts::Store(store) => {
            drop(store);
            needs_drill = true;
        }
    }
    let _ = std::fs::remove_dir_all(&pass.data_dir);
    let epilogue_done = now_ns();
    if needs_drill {
        let dir = args.data_dir("drill");
        let report = ops::drill(plan, &dir, args.quick);
        let _ = std::fs::remove_dir_all(&dir);
        extra_attempted += report.envelopes + 1;
        extra_failed += report.verdict.failed() + report.recovery_failures;
        ops.failover_stall_ms = report.ops.failover_stall_ms;
        ops.rejoin_stall_ms = report.ops.rejoin_stall_ms;
        if plan.workload != Workload::DurableIngest {
            ops.write_amp = report.ops.write_amp;
            ops.recovery_mb_per_s = report.ops.recovery_mb_per_s;
        }
    }
    eprintln!(
        "verification: oracle {:.2} s, epilogue (recovery) {:.2} s, drill {:.2} s",
        secs_between(started, oracle_done),
        secs_between(oracle_done, epilogue_done),
        secs_between(epilogue_done, now_ns())
    );
    Verification {
        warm,
        timed,
        ops,
        extra_attempted,
        extra_failed,
    }
}

/// The timings of one pass over the timed schedule. Each is the pass's
/// best slice (see `stats`).
#[derive(Debug, Clone, Copy)]
struct Timings {
    /// Final responses per wall second.
    rate: f64,
    /// On-CPU microseconds of the whole process per final response.
    cpu_us: f64,
    /// p50, p90 and p99 of the probe kind's first attempts, in µs.
    lat_us: [f64; 3],
    /// p50 and p90 of the `Ingest` envelopes, in µs.
    ingest_us: [f64; 2],
    /// Failover and rejoin stall in ms, where the deployment's own run
    /// crosses a failure script.
    stalls_ms: Option<(f64, f64)>,
}

impl Timings {
    fn of(plan: &Plan, pass: &Pass) -> Timings {
        let slices: Vec<(f64, f64, f64)> = pass
            .timed
            .marks
            .windows(2)
            .map(|w| {
                (
                    f64::from(w[1].finals - w[0].finals),
                    (w[1].at_ns - w[0].at_ns) as f64 / 1e9,
                    (w[1].cpu_ns.saturating_sub(w[0].cpu_ns)) as f64 / 1e3,
                )
            })
            .collect();
        eprintln!(
            "slice rates (1/s): {}",
            slices
                .iter()
                .map(|s| format!("{:.0}", s.0 / s.1))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let scheduled = plan.timed.len() as f64;
        let (rate, cpu_us) = if slices.is_empty() {
            (
                scheduled / pass.wall_s,
                pass.cpu_ns as f64 / 1e3 / scheduled,
            )
        } else {
            (
                slices.iter().map(|s| s.0 / s.1).fold(0.0, f64::max),
                slices
                    .iter()
                    .map(|s| s.2 / s.0)
                    .fold(f64::INFINITY, f64::min),
            )
        };
        let probe = latencies_us(plan, &pass.timed, plan.probe.map(kind_tag));
        let ingests = latencies_us(plan, &pass.timed, Some(TAG_INGEST));
        Timings {
            rate,
            cpu_us,
            lat_us: [0.50, 0.90, 0.99].map(|q| best_slice(&probe, q)),
            ingest_us: [0.50, 0.90].map(|q| best_slice(&ingests, q)),
            stalls_ms: plan.failures.as_ref().map(|script| {
                (
                    ops::stall_ms(&pass.timed, script.failover_at()),
                    ops::stall_ms(&pass.timed, script.rejoin_at()),
                )
            }),
        }
    }

    /// Field by field, the better of two passes.
    fn best(self, other: Timings) -> Timings {
        let min2 = |a: [f64; 2], b: [f64; 2]| [a[0].min(b[0]), a[1].min(b[1])];
        Timings {
            rate: self.rate.max(other.rate),
            cpu_us: self.cpu_us.min(other.cpu_us),
            lat_us: std::array::from_fn(|i| self.lat_us[i].min(other.lat_us[i])),
            ingest_us: min2(self.ingest_us, other.ingest_us),
            stalls_ms: match (self.stalls_ms, other.stalls_ms) {
                (Some(a), Some(b)) => Some((a.0.min(b.0), a.1.min(b.1))),
                (a, b) => a.or(b),
            },
        }
    }
}

/// Runs `args.workload` end to end, untraced, and computes every
/// end-to-end metric.
pub fn end_to_end(args: &RunArgs) -> EndToEnd {
    let passes = timed_passes(args.workload);
    let setups = setup_repeats(args.workload);
    let started = now_ns();
    let mut setup_times = Vec::with_capacity(setups);
    let mut timed_s = 0.0;
    let mut timings: Option<Timings> = None;
    // Earlier passes, kept only to be compared with the last one.
    let mut earlier: Vec<DriveResult> = Vec::new();
    let mut last = None;
    let mut rss = None;
    for repeat in 0..setups {
        let (plan, live, secs) = setup(args, None, "run");
        setup_times.push(secs);
        if repeat + passes < setups {
            drop(live.teardown());
            let _ = std::fs::remove_dir_all(args.data_dir("run"));
            continue;
        }
        let mut pass = run_pass(live, &plan, &mut NoHooks);
        // Peak memory of set-up plus one timed pass — read before later
        // passes, the oracle or the drill allocate anything.
        rss.get_or_insert_with(peak_rss_mb);
        timed_s += pass.wall_s;
        let these = Timings::of(&plan, &pass);
        timings = Some(timings.map_or(these, |t| t.best(these)));
        if repeat + 1 < setups {
            drop(pass.parts.take());
            let _ = std::fs::remove_dir_all(&pass.data_dir);
            earlier.push(pass.timed);
        } else {
            last = Some((plan, pass));
        }
    }
    let (plan, mut pass) = last.expect("the last set-up is driven");
    let timings = timings.expect("at least one pass");
    let rss = rss.expect("at least one pass");
    let measured = now_ns();
    let verification = verify(args, &plan, &mut pass);
    eprintln!(
        "phases: {setups} set-ups and {passes} timed passes {:.2} s ({timed_s:.2} s timed), verification {:.2} s",
        secs_between(started, measured),
        secs_between(measured, now_ns())
    );
    // The passes replayed the same bytes: every final response of an
    // earlier pass must equal the verified pass's.
    let disagreeing: usize = earlier
        .iter()
        .map(|drive| {
            drive
                .finals
                .iter()
                .zip(&pass.timed.finals)
                .filter(|(a, b)| a.hash != b.hash || a.outcome != b.outcome)
                .count()
        })
        .sum();
    summarize(
        &plan,
        &pass,
        &verification,
        timings,
        median(&setup_times),
        rss,
        (earlier.len(), disagreeing),
    )
}

fn summarize(
    plan: &Plan,
    pass: &Pass,
    v: &Verification,
    timings: Timings,
    setup_s: f64,
    rss: f64,
    (earlier_passes, disagreeing): (usize, usize),
) -> EndToEnd {
    let scheduled = plan.timed.len();
    let correct = v.timed.compared - v.timed.mismatched;
    let redirected_first = plan
        .timed
        .iter()
        .zip(&pass.timed.finals)
        .filter(|(_, f)| {
            f.first_attempt == u32::MAX || pass.timed.attempts[f.first_attempt as usize].redirected
        })
        .count();
    let per_pass = scheduled + plan.warm.len();
    let attempted = per_pass * (1 + earlier_passes) + v.extra_attempted;
    let failed = v.timed.failed() + v.warm.failed() + v.extra_failed + disagreeing;
    let (failover_stall_ms, rejoin_stall_ms) = timings
        .stalls_ms
        .unwrap_or((v.ops.failover_stall_ms, v.ops.rejoin_stall_ms));

    let mut metrics: Metrics = BTreeMap::new();
    metrics.insert("setup_s", (setup_s, "s"));
    metrics.insert(
        "throughput_rps",
        (timings.rate * correct as f64 / scheduled as f64, "1/s"),
    );
    metrics.insert("lat_p50_us", (timings.lat_us[0], "us"));
    metrics.insert("lat_p90_us", (timings.lat_us[1], "us"));
    metrics.insert("lat_p99_us", (timings.lat_us[2], "us"));
    metrics.insert("ingest_p50_us", (timings.ingest_us[0], "us"));
    metrics.insert("ingest_p90_us", (timings.ingest_us[1], "us"));
    metrics.insert("recovery_mb_per_s", (v.ops.recovery_mb_per_s, "MB/s"));
    metrics.insert("write_amp", (v.ops.write_amp, "x"));
    metrics.insert(
        "wire_bytes_per_req",
        (
            (pass.timed.bytes_out + pass.timed.bytes_in) as f64 / scheduled as f64,
            "B",
        ),
    );
    metrics.insert(
        "availability",
        (1.0 - redirected_first as f64 / scheduled as f64, "share"),
    );
    metrics.insert("failover_stall_ms", (failover_stall_ms, "ms"));
    metrics.insert("rejoin_stall_ms", (rejoin_stall_ms, "ms"));
    metrics.insert("cpu_us_per_req", (timings.cpu_us, "us"));
    metrics.insert("peak_rss_mb", (rss, "MiB"));
    metrics.insert(
        "ok_share",
        (1.0 - failed as f64 / attempted as f64, "share"),
    );

    let mut facts = BTreeMap::new();
    facts.insert("checksum", format!("{:016x}", pass.timed.checksum));
    facts.insert(
        "reference_checksum",
        format!("{:016x}", v.timed.reference_checksum),
    );
    facts.insert("scheduled", scheduled.to_string());
    facts.insert("attempts", pass.timed.attempts.len().to_string());
    facts.insert("redirected_first_attempt", redirected_first.to_string());
    facts.insert("final_redirects", v.timed.redirected.to_string());
    facts.insert(
        "typed_rejections",
        pass.timed
            .finals
            .iter()
            .filter(|f| f.outcome == Outcome::Rejected)
            .count()
            .to_string(),
    );
    facts.insert("bytes_out", pass.timed.bytes_out.to_string());
    facts.insert("bytes_in", pass.timed.bytes_in.to_string());
    if let Some(stats) = &pass.stats {
        facts.insert("hit_rate", stats.hit_rate.to_string());
        facts.insert("served", stats.served.to_string());
    }
    let mut samples = BTreeMap::new();
    samples.insert(
        "lat",
        latencies_us(plan, &pass.timed, plan.probe.map(kind_tag)).len(),
    );
    samples.insert(
        "ingest",
        latencies_us(plan, &pass.timed, Some(TAG_INGEST)).len(),
    );
    samples.insert("requests", scheduled);
    samples.insert("timed_passes", 1 + earlier_passes);
    EndToEnd {
        metrics,
        attempted,
        failed,
        facts,
        samples,
    }
}
