//! # flstore-loadgen — socket-level load generation
//!
//! Drives a [`flstore-net`](flstore_net) front door over real TCP
//! connections and reports latency percentiles (p50/p95/p99) and goodput
//! — including under deliberate overload, where the server answers with
//! typed [`Overloaded`](flstore_core::api::ApiError::Overloaded)
//! envelopes instead of dropping frames or resetting connections.
//!
//! Two drivers:
//!
//! * **closed loop** ([`run_closed`]) — one pipelined connection keeps at
//!   most `window` requests in flight; a response must arrive before the
//!   next request past the window is sent. Measures the server's
//!   unloaded/offered-load latency. The closed loop is the retry-capable
//!   driver: with a nonzero retry budget it honors
//!   [`Overloaded.retry_after_hint`](flstore_core::api::ApiError::Overloaded)
//!   and the
//!   [`Relocated`](flstore_core::api::ApiError::Relocated) redirect
//!   envelope a cluster front door answers during a failover — the
//!   envelope is re-sent with its virtual stamp advanced by the full
//!   hint, so a client rides through a node loss with zero failed
//!   requests.
//! * **open loop** ([`run_open_paced`]) — `connections` parallel
//!   connections write their share of the schedule without waiting for
//!   responses: request *k* is due `k / rate` seconds after the run
//!   starts (a fixed-interval arrival process at `rate` requests/s),
//!   regardless of response progress, and each connection reads its
//!   responses on a second thread as they arrive. Latency runs from a
//!   request's due time, so a stalled generator or server shows up in
//!   every later request; how late the generator itself wrote is
//!   reported beside it. `rate == 0` never sleeps — the burst a
//!   saturated front door sees. Under overload the interesting outputs
//!   are goodput and the typed rejection count; the reset count must
//!   stay zero. The deterministic report fields (counts, checksum) do
//!   not depend on `rate`; only the wall-clock fields change.
//!
//! Request schedules come from
//! [`flstore_trace::driver::materialize_schedule`] — the same traces the
//! in-process experiment driver serves — so a networked run replays the
//! same envelope sequence as a library-call run.
//!
//! ## Determinism contract
//!
//! [`LoadReport::to_json`] separates deterministic payload facts (sent /
//! ok counts, the FNV-1a checksum over response payload bytes) from
//! wall-clock measurements, which carry a `_wall` name suffix.
//! `scripts/compare_results.sh` normalizes exactly the `_wall` fields,
//! so CI byte-diffs the rest across runs and thread counts.
//!
//! This crate is the sanctioned home of real wall-clock reads on the
//! serving path (latency must be measured, not simulated); see
//! `analyze-allowlist.txt`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use flstore_core::api::{ApiError, Request, Response};
use flstore_net::client::NetClient;
use flstore_net::codec::{decode_response, encode_request, encode_response};
use flstore_net::wire::{read_frame, write_frame, WireError};
use flstore_sim::time::{SimDuration, SimTime};
use serde_json::{json, Value};

/// Latency percentiles over one run, in microseconds of wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Mean.
    pub mean_us: f64,
    /// Worst observed.
    pub max_us: f64,
}

impl LatencyStats {
    /// Computes percentiles from raw samples (empty input returns None).
    pub fn from_samples(mut samples: Vec<f64>) -> Option<LatencyStats> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let pick = |q: f64| {
            let idx = ((samples.len() - 1) as f64 * q).round() as usize;
            samples[idx]
        };
        Some(LatencyStats {
            p50_us: pick(0.50),
            p95_us: pick(0.95),
            p99_us: pick(0.99),
            mean_us: samples.iter().sum::<f64>() / samples.len() as f64,
            max_us: samples[samples.len() - 1],
        })
    }
}

/// What one driver run observed.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests written to the socket(s).
    pub sent: usize,
    /// Non-rejected responses (served / ingested / evicted / stats).
    pub ok: usize,
    /// Typed `Overloaded` rejections (backpressure; retryable).
    pub overloaded: usize,
    /// Other typed rejections (admission errors etc.).
    pub rejected: usize,
    /// Envelopes re-sent after a retryable rejection (`Overloaded` or
    /// `Relocated`), within the driver's retry budget. Deterministic
    /// when the server's rejections are: a cluster's failover redirects
    /// are virtual-clock driven, so this column byte-reproduces across
    /// runs.
    pub retried: usize,
    /// The subset of retries triggered by `Relocated` redirects (a
    /// cluster node failing over). Deterministic, like `retried`.
    pub redirected: usize,
    /// Responses the transport lost: connection resets, truncated
    /// streams, decode failures. The front door's contract is that this
    /// stays zero even under overload.
    pub transport_errors: usize,
    /// FNV-1a checksum over every response frame's tag and payload
    /// bytes, in per-connection submission order (connections XOR-folded
    /// so multi-connection runs stay order-independent across threads).
    pub checksum: u64,
    /// Wall-clock duration of the run, seconds.
    pub elapsed_wall_s: f64,
    /// Non-rejected responses per wall second.
    pub goodput_rps_wall: f64,
    /// Wall latency percentiles: from send to receipt in the closed
    /// loop, from the request's due time to receipt in the open loop.
    pub latency: Option<LatencyStats>,
    /// Open loop: the furthest any request was written past its due
    /// time, µs — how far the generator fell behind its own schedule.
    /// Zero for the closed loop, which has no schedule.
    pub lateness_max_us: f64,
}

impl LoadReport {
    /// JSON form. Deterministic fields keep plain names; every
    /// wall-clock-dependent field ends in `_wall`, the suffix
    /// `scripts/compare_results.sh` normalizes before byte-diffing.
    pub fn to_json(&self) -> Value {
        let lat = |f: fn(&LatencyStats) -> f64| self.latency.as_ref().map(f).unwrap_or(0.0);
        json!({
            "sent": self.sent,
            "ok": self.ok,
            "overloaded_wall": self.overloaded,
            "rejected": self.rejected,
            "retried": self.retried,
            "redirected": self.redirected,
            "transport_errors": self.transport_errors,
            "checksum": format!("{:016x}", self.checksum),
            "elapsed_s_wall": self.elapsed_wall_s,
            "goodput_rps_wall": self.goodput_rps_wall,
            "p50_us_wall": lat(|l| l.p50_us),
            "p95_us_wall": lat(|l| l.p95_us),
            "p99_us_wall": lat(|l| l.p99_us),
            "mean_us_wall": lat(|l| l.mean_us),
            "max_us_wall": lat(|l| l.max_us),
            "lateness_max_us_wall": self.lateness_max_us,
        })
    }
}

/// FNV-1a, folding a response frame's canonical encoding into `hash`.
fn fold_response(mut hash: u64, response: &Response) -> u64 {
    let (tag, payload) = encode_response(response);
    for byte in std::iter::once(tag).chain(payload) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn classify(response: &Response, report: &mut LoadReport) {
    match response {
        Response::Rejected(ApiError::Overloaded { .. }) => report.overloaded += 1,
        Response::Rejected(_) => report.rejected += 1,
        _ => report.ok += 1,
    }
}

fn empty_report() -> LoadReport {
    LoadReport {
        sent: 0,
        ok: 0,
        overloaded: 0,
        rejected: 0,
        retried: 0,
        redirected: 0,
        transport_errors: 0,
        checksum: FNV_OFFSET,
        elapsed_wall_s: 0.0,
        goodput_rps_wall: 0.0,
        latency: None,
        lateness_max_us: 0.0,
    }
}

/// The retryable-rejection hint, if `response` carries one. The second
/// field reports whether the rejection was a `Relocated` redirect.
fn retry_hint(response: &Response) -> Option<(SimDuration, bool)> {
    match response {
        Response::Rejected(ApiError::Overloaded { retry_after_hint }) => {
            Some((*retry_after_hint, false))
        }
        Response::Rejected(ApiError::Relocated {
            retry_after_hint, ..
        }) => Some((*retry_after_hint, true)),
        _ => None,
    }
}

/// Longest real sleep one retry hint may cost. The *virtual* stamp of a
/// retried envelope always advances by the full hint (that is what the
/// server's clock acts on); the wall pause is a pacing courtesy, capped
/// so a large virtual hint cannot stall a smoke run.
const MAX_RETRY_SLEEP: std::time::Duration = std::time::Duration::from_millis(50);

/// Closed-loop driver: one connection, at most `window` requests in
/// flight. Returns a transport error only if the *connection itself*
/// cannot be established; per-response transport failures are counted
/// in the report.
///
/// `retries` is the per-envelope retry budget: an `Overloaded` or
/// `Relocated` rejection with budget left is re-sent with its virtual
/// stamp advanced by the rejection's `retry_after_hint` (and a capped
/// wall pause), and only the *final* response of each scheduled envelope
/// is classified and folded into the checksum — so a run that rides
/// through a cluster failover reports the same deterministic payload
/// facts as an undisturbed one, plus nonzero `retried`/`redirected`
/// counts.
pub fn run_closed(
    addr: &str,
    schedule: &[(SimTime, Request)],
    window: usize,
    retries: usize,
) -> Result<LoadReport, WireError> {
    let window = window.max(1);
    let mut client = NetClient::connect(addr)?;
    let mut report = empty_report();
    let mut latencies: Vec<f64> = Vec::with_capacity(schedule.len());

    // Envelopes not yet written, front-to-back; retries re-enter at the
    // head with their attempt count bumped, so a retried envelope keeps
    // its place in the schedule ahead of everything not yet sent (at
    // window 1 the whole run stays strictly in schedule order — the
    // configuration failover smokes use).
    let mut pending: std::collections::VecDeque<(SimTime, Request, usize)> = schedule
        .iter()
        .map(|(now, request)| (*now, request.clone(), 0usize))
        .collect();
    // Written but unanswered. One pipelined connection answers strictly
    // in submission order, so the front entry owns the next response.
    let mut outstanding: std::collections::VecDeque<(SimTime, Request, usize, Instant)> =
        std::collections::VecDeque::with_capacity(window);

    // Wall-clock reads are this crate's purpose (see crate docs and
    // analyze-allowlist.txt).
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();
    'drive: while !pending.is_empty() || !outstanding.is_empty() {
        while outstanding.len() < window {
            let Some((now, request, attempt)) = pending.pop_front() else {
                break;
            };
            #[allow(clippy::disallowed_methods)]
            let sent_at = Instant::now();
            client.send(now, &request)?;
            report.sent += 1;
            outstanding.push_back((now, request, attempt, sent_at));
        }
        let (now, request, attempt, sent_at) = outstanding.pop_front().expect("window is primed");
        match client.recv() {
            Ok(response) => {
                #[allow(clippy::disallowed_methods)]
                let at = Instant::now();
                latencies.push(at.duration_since(sent_at).as_secs_f64() * 1e6);
                match retry_hint(&response) {
                    Some((hint, relocated)) if attempt < retries => {
                        report.retried += 1;
                        if relocated {
                            report.redirected += 1;
                        }
                        std::thread::sleep(
                            std::time::Duration::from_micros(hint.as_micros()).min(MAX_RETRY_SLEEP),
                        );
                        pending.push_front((now + hint, request, attempt + 1));
                    }
                    _ => {
                        report.checksum = fold_response(report.checksum, &response);
                        classify(&response, &mut report);
                    }
                }
            }
            Err(_) => {
                report.transport_errors += 1 + outstanding.len();
                break 'drive;
            }
        }
    }
    finish(&mut report, latencies, started);
    Ok(report)
}

/// Open-loop driver: `connections` threads each write their interleaved
/// slice of the schedule without waiting for responses, while a second
/// thread per connection reads and time-stamps the responses as they
/// arrive. Arrivals follow a fixed-interval schedule at `rate` requests
/// per second — request `k` of the (global) schedule is due `k / rate`
/// seconds after the run starts and is written no earlier, each
/// connection sleeping toward its own requests' global due times; its
/// latency runs from that due time to its response's arrival.
/// `rate == 0` never sleeps: every request is due at the start and
/// every connection writes as fast as the socket accepts (the overload
/// burst). The per-connection checksums are XOR-folded so the aggregate
/// is independent of thread interleaving, and the deterministic fields
/// (sent/ok/rejected counts, checksum) are byte-identical at every rate.
pub fn run_open_paced(
    addr: &str,
    schedule: &[(SimTime, Request)],
    connections: usize,
    rate: u64,
) -> LoadReport {
    let connections = connections.max(1);
    let slices: Vec<Vec<(usize, SimTime, Request)>> = (0..connections)
        .map(|c| {
            schedule
                .iter()
                .enumerate()
                .skip(c)
                .step_by(connections)
                .map(|(k, (now, request))| (k, *now, request.clone()))
                .collect()
        })
        .collect();
    // `rate == 0`: every due time is the run's start — never sleep.
    let interval_us = if rate == 0 { 0.0 } else { 1e6 / rate as f64 };

    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();
    let mut workers = Vec::new();
    for slice in slices {
        let addr = addr.to_string();
        workers.push(std::thread::spawn(move || {
            run_paced_conn(&addr, &slice, started, interval_us)
        }));
    }
    let mut report = empty_report();
    let mut checksum = 0u64;
    let mut latencies = Vec::new();
    for worker in workers {
        match worker.join() {
            Ok((part, lats)) => {
                report.sent += part.sent;
                report.ok += part.ok;
                report.overloaded += part.overloaded;
                report.rejected += part.rejected;
                report.transport_errors += part.transport_errors;
                report.lateness_max_us = report.lateness_max_us.max(part.lateness_max_us);
                checksum ^= part.checksum;
                latencies.extend(lats);
            }
            Err(_) => report.transport_errors += 1,
        }
    }
    report.checksum = checksum;
    finish(&mut report, latencies, started);
    report
}

fn run_paced_conn(
    addr: &str,
    slice: &[(usize, SimTime, Request)],
    started: Instant,
    interval_us: f64,
) -> (LoadReport, Vec<f64>) {
    let mut report = empty_report();
    let mut latencies = Vec::with_capacity(slice.len());
    let connected = TcpStream::connect(addr).and_then(|stream| {
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok((stream, read_half))
    });
    let Ok((stream, read_half)) = connected else {
        report.transport_errors += slice.len();
        return (report, latencies);
    };
    let due = |k: usize| started + Duration::from_micros((k as f64 * interval_us) as u64);

    let arrivals = std::thread::scope(|scope| {
        // Responses come back in submission order; each is stamped the
        // moment its frame is read, while the sender is still writing.
        let receiver = scope.spawn(move || {
            let mut reader = BufReader::new(read_half);
            let mut arrivals = Vec::with_capacity(slice.len());
            while arrivals.len() < slice.len() {
                let Ok(Some((tag, payload))) = read_frame(&mut reader) else {
                    break;
                };
                #[allow(clippy::disallowed_methods)]
                let at = Instant::now();
                arrivals.push((at, decode_response(tag, &payload)));
            }
            arrivals
        });
        let mut writer = BufWriter::new(stream);
        for (k, now, request) in slice {
            let due = due(*k);
            // Wall-clock reads are this crate's purpose (see crate docs
            // and analyze-allowlist.txt).
            #[allow(clippy::disallowed_methods)]
            let wall = Instant::now();
            if due > wall {
                std::thread::sleep(due - wall);
            }
            #[allow(clippy::disallowed_methods)]
            let late = Instant::now().saturating_duration_since(due);
            report.lateness_max_us = report.lateness_max_us.max(late.as_secs_f64() * 1e6);
            let (tag, payload) = encode_request(*now, request);
            if write_frame(&mut writer, tag, &payload)
                .and_then(|()| writer.flush())
                .is_err()
            {
                report.transport_errors += 1;
                break;
            }
            report.sent += 1;
        }
        // Half-close so the server, once it has answered everything it
        // read, closes too and the receiver sees the end of the stream.
        // Every frame is already flushed, and a connection too broken to
        // half-close shows up below as requests left unanswered.
        let _ = writer.get_ref().shutdown(Shutdown::Write);
        receiver.join().unwrap_or_default()
    });

    let mut answered = 0;
    for ((k, _, _), (at, response)) in slice.iter().zip(arrivals) {
        let Ok(response) = response else {
            break;
        };
        latencies.push(at.saturating_duration_since(due(*k)).as_secs_f64() * 1e6);
        report.checksum = fold_response(report.checksum, &response);
        classify(&response, &mut report);
        answered += 1;
    }
    report.transport_errors += report.sent - answered;
    (report, latencies)
}

/// Connection-limit probe: opens `attempts` simultaneous idle
/// connections and sends a `Stats` request on each; returns
/// `(served, overloaded, transport_errors)`. Against a server with
/// `max_connections < attempts`, the excess connections must receive a
/// typed `Overloaded` envelope and a clean close — never a reset.
pub fn probe_connection_limit(addr: &str, attempts: usize) -> (usize, usize, usize) {
    let mut clients = Vec::new();
    let mut overloaded = 0usize;
    let mut errors = 0usize;
    for _ in 0..attempts {
        match NetClient::connect(addr) {
            Ok(c) => clients.push(c),
            Err(_) => errors += 1,
        }
    }
    let mut served = 0usize;
    for client in &mut clients {
        if client.send(SimTime::ZERO, &Request::Stats).is_err() {
            // The server half-closed an over-limit connection; its
            // Overloaded envelope is still readable below.
        }
        match client.recv() {
            Ok(Response::Stats(_)) => served += 1,
            Ok(Response::Rejected(ApiError::Overloaded { .. })) => overloaded += 1,
            Ok(_) => {}
            Err(_) => errors += 1,
        }
    }
    (served, overloaded, errors)
}

fn finish(report: &mut LoadReport, latencies: Vec<f64>, started: Instant) {
    report.elapsed_wall_s = started.elapsed().as_secs_f64();
    report.goodput_rps_wall = if report.elapsed_wall_s > 0.0 {
        report.ok as f64 / report.elapsed_wall_s
    } else {
        0.0
    };
    report.latency = LatencyStats::from_samples(latencies);
}
