//! The operational metrics — `write_amp`, `recovery_mb_per_s`,
//! `failover_stall_ms`, `rejoin_stall_ms` — and the drill that measures
//! them for a traffic shape whose own deployment is not replicated or
//! not durable.
//!
//! `cluster_failover` pays these costs inside its timed run and
//! `durable_ingest` pays the first two; for the other workloads the same
//! quantities are measured by replaying a prefix of the workload's own
//! schedule, in process and one request at a time, through a durable
//! 3-node rf=2 cluster under the same two-episode failure script. Every
//! workload therefore reports what a crash or a node loss would cost
//! *for its traffic*, from the same code paths.

use std::path::Path;

use flstore_cluster::cluster::ClusterStats;
use flstore_core::api::{ApiError, Response, Service};
use flstore_durability::recover::recover;
use flstore_sim::time::SimTime;

use crate::clock::{now_ns, secs_between};
use crate::deploy::{cluster, dir_bytes, ledger_bytes, store_config, CLUSTER_FLUSH_EVERY};
use crate::driver::{fold_response, Attempt, DriveResult, Final, Outcome, FNV_OFFSET};
use crate::oracle::{self, Clock, Verdict};
use crate::schedule::{failure_script, home_route, Envelope, FailureScript, Plan, Workload};

/// The four operational metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    /// Bytes under the data dir per `Ingest` payload byte sent.
    pub write_amp: f64,
    /// Ledger bytes on disk per second of `recover` wall time, in MB/s.
    pub recovery_mb_per_s: f64,
    /// Latency of the request that crosses failure detection and repair.
    pub failover_stall_ms: f64,
    /// Latency of the request that crosses the ledger rejoin.
    pub rejoin_stall_ms: f64,
}

/// Window-1, in-process twin of [`crate::driver::drive`]: submits each
/// envelope straight into `service` with the server's monotonic clock
/// clamp and the same retry rule, and records the same attempts.
pub fn drive_local(
    service: &mut dyn Service,
    schedule: &[Envelope],
    retries: usize,
) -> DriveResult {
    let mut result = DriveResult {
        attempts: Vec::with_capacity(schedule.len() + 16),
        finals: Vec::with_capacity(schedule.len()),
        checksum: FNV_OFFSET,
        bytes_out: 0,
        bytes_in: 0,
        started_ns: now_ns(),
        ended_ns: 0,
        marks: Vec::new(),
    };
    let mut clock = Clock::new();
    for (index, envelope) in schedule.iter().enumerate() {
        let first_attempt = result.attempts.len() as u32;
        let mut stamp = envelope.now;
        let mut tries = 0;
        loop {
            let send_ns = now_ns();
            let response = service.submit(clock.advance(stamp), envelope.request.clone());
            let recv_ns = now_ns();
            let hint = match &response {
                Response::Rejected(ApiError::Relocated {
                    retry_after_hint, ..
                }) => Some(*retry_after_hint),
                _ => None,
            };
            result.attempts.push(Attempt {
                envelope: index as u32,
                stamp,
                send_ns,
                sent_ns: send_ns,
                recv_ns,
                redirected: hint.is_some(),
            });
            if let (Some(hint), true) = (hint, tries < retries) {
                stamp += hint;
                tries += 1;
                continue;
            }
            result.finals.push(Final {
                outcome: match (&response, hint) {
                    (_, Some(_)) => Outcome::Redirected,
                    (Response::Rejected(_), None) => Outcome::Rejected,
                    _ => Outcome::Ok,
                },
                hash: fold_response(FNV_OFFSET, &response),
                first_attempt,
            });
            result.checksum = fold_response(result.checksum, &response);
            break;
        }
    }
    result.ended_ns = now_ns();
    result
}

/// Latency (ms) of the first attempt whose server-side clock — the
/// running maximum of the stamps sent so far — reaches `at`: the request
/// that drains the failure event scheduled there and pays for it.
pub fn stall_ms(drive: &DriveResult, at: SimTime) -> f64 {
    let mut clock = Clock::new();
    drive
        .attempts
        .iter()
        .find(|a| clock.advance(a.stamp) >= at)
        .map(|a| a.latency_us() / 1e3)
        .unwrap_or(0.0)
}

/// Times `recover` on one tenant directory; returns `(ledger bytes,
/// seconds)`, or `None` if recovery failed.
pub fn timed_recover(tenant_dir: &Path) -> Option<(u64, f64)> {
    let bytes = ledger_bytes(tenant_dir);
    let start = now_ns();
    let store = recover(tenant_dir).ok()?;
    let secs = secs_between(start, now_ns());
    drop(store);
    Some((bytes, secs))
}

/// The tenant directory whose recovery is timed for a replicated
/// deployment: the largest one (ties broken by path, so the choice is a
/// function of the deterministic on-disk state).
pub fn largest_tenant_dir(root: &Path) -> Option<std::path::PathBuf> {
    let mut dirs = Vec::new();
    for node in std::fs::read_dir(root).ok()?.flatten() {
        if let Ok(tenants) = std::fs::read_dir(node.path()) {
            dirs.extend(tenants.flatten().map(|t| t.path()));
        }
    }
    dirs.sort();
    dirs.into_iter()
        .max_by_key(|dir| (ledger_bytes(dir), std::cmp::Reverse(dir.clone())))
}

/// `write_amp` and `recovery_mb_per_s` of a replicated deployment whose
/// cluster has been dropped (ledgers flushed) and whose durable root is
/// `root`.
pub fn disk_metrics(root: &Path, ingest_payload_bytes: u64) -> Option<(f64, f64)> {
    let write_amp = dir_bytes(root) as f64 / ingest_payload_bytes.max(1) as f64;
    let (bytes, secs) = timed_recover(&largest_tenant_dir(root)?)?;
    Some((write_amp, bytes as f64 / 1e6 / secs))
}

/// Envelopes of `plan`'s schedule the drill replays.
fn drill_prefix(plan: &Plan, quick: bool) -> &[Envelope] {
    let full = match plan.workload {
        // ~60 rounds of tiny traffic.
        Workload::SmallServe => 6_000,
        // One round: one large ingest and its serve bursts.
        Workload::HeavyServe => 161,
        // A dozen rounds of ingest + 8 serves.
        Workload::DurableIngest => 12 * 9,
        Workload::ClusterFailover => unreachable!("pays the costs in its own run"),
    };
    let len = if quick { full / 4 } else { full };
    &plan.timed[..len.min(plan.timed.len())]
}

/// What the drill measured, and whether its answers were right.
#[derive(Debug, Clone)]
pub struct DrillReport {
    /// The four operational metrics for this traffic shape.
    pub ops: Ops,
    /// The oracle's verdict on the drill's own responses.
    pub verdict: Verdict,
    /// Digest mismatches at rejoin plus a failed recovery, if any.
    pub recovery_failures: usize,
    /// Envelopes replayed.
    pub envelopes: usize,
    /// The cluster's lifetime failure-plane counters.
    pub stats: ClusterStats,
    /// Run-wide checksum of the drill's final responses.
    pub checksum: u64,
}

/// How often the drill is repeated. Its stalls are single requests —
/// one sample each — and interference only ever adds time, so the best
/// of several repeats is reported.
fn drill_repeats(workload: Workload) -> usize {
    match workload {
        // ~5 s per repeat: replaying a 48 x 4096 round out of a ledger
        // takes seconds, and a repeat does it three times over.
        Workload::HeavyServe => 1,
        _ => 3,
    }
}

/// Runs the operational drill for `plan` under `data_dir`.
pub fn drill(plan: &Plan, data_dir: &Path, quick: bool) -> DrillReport {
    let prefix = drill_prefix(plan, quick);
    let job = plan.jobs[0].job;
    let route = home_route(job);
    let script: FailureScript = failure_script(route[0], route[1], prefix);
    let mut template = store_config(plan);
    template.durability.flush_every = CLUSTER_FLUSH_EVERY;
    template.durability.snapshot_every = 0;
    // `durable_ingest` takes its disk metrics from its own run.
    let wants_disk = plan.workload != Workload::DurableIngest;
    let mut best: Option<DrillReport> = None;
    for _ in 0..drill_repeats(plan.workload) {
        let _ = std::fs::remove_dir_all(data_dir);
        let mut deployment = cluster(plan, template.clone(), &script, data_dir);
        let drive = drive_local(&mut deployment, prefix, 1);
        let stats = deployment.stats().clone();
        drop(deployment); // flushes every node's ledgers
        let disk = if wants_disk {
            disk_metrics(data_dir, Plan::ingest_payload_bytes(prefix))
        } else {
            Some((0.0, 0.0))
        };
        let (write_amp, recovery_mb_per_s) = disk.unwrap_or((0.0, 0.0));
        let ops = Ops {
            write_amp,
            recovery_mb_per_s,
            failover_stall_ms: stall_ms(&drive, script.failover_at()),
            rejoin_stall_ms: stall_ms(&drive, script.rejoin_at()),
        };
        let failures = stats.rejoin_digest_mismatches as usize + usize::from(disk.is_none());
        match &mut best {
            // The repeats replay the same envelopes: only the first is
            // checked against the oracle, the others against the first.
            None => {
                let verdict = oracle::check(
                    oracle::reference(plan, &template, true).as_mut(),
                    &mut Clock::new(),
                    prefix,
                    &drive,
                );
                best = Some(DrillReport {
                    ops,
                    verdict,
                    recovery_failures: failures,
                    envelopes: prefix.len(),
                    stats,
                    checksum: drive.checksum,
                });
            }
            Some(best) => {
                best.recovery_failures += failures + usize::from(drive.checksum != best.checksum);
                best.ops.recovery_mb_per_s = best.ops.recovery_mb_per_s.max(ops.recovery_mb_per_s);
                best.ops.failover_stall_ms = best.ops.failover_stall_ms.min(ops.failover_stall_ms);
                best.ops.rejoin_stall_ms = best.ops.rejoin_stall_ms.min(ops.rejoin_stall_ms);
            }
        }
    }
    best.expect("at least one repeat")
}
