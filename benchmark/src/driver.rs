//! The benchmark's closed-loop driver: one thread, one loopback
//! connection, at most `window` requests in flight.
//!
//! FL operators and aggregator scripts wait for a reply before their next
//! step, so the loop is closed: a slow system receives less load. Unlike
//! `flstore_loadgen::run_closed`, this driver keeps a record per attempt
//! (kind tag, stamps, latency), counts framed bytes in both directions,
//! hashes every final response on its own (so a mismatch is counted per
//! request, not just detected by a run-wide checksum). Retried envelopes
//! re-enter at the head of the queue; at window 1 — the only
//! configuration that uses retries — the run therefore stays strictly in
//! schedule order.

use std::collections::VecDeque;

use flstore_core::api::{ApiError, Response};
use flstore_net::client::NetClient;
use flstore_net::codec::{encode_request, encode_response};
use flstore_net::wire::WireError;
use flstore_sim::time::SimTime;

use crate::clock::{now_ns, process_cpu_ns};
use crate::schedule::{frame_len, Envelope};
use crate::stats::SLICES;

/// FNV-1a offset basis (the fold `flstore_loadgen` starts from).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one response's canonical wire encoding (tag, then payload) into
/// `hash`, byte by byte — the same fold as `flstore_loadgen`.
pub fn fold_bytes(mut hash: u64, tag: u8, payload: &[u8]) -> u64 {
    for byte in std::iter::once(tag).chain(payload.iter().copied()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// [`fold_bytes`] over `response`'s encoding.
pub fn fold_response(hash: u64, response: &Response) -> u64 {
    let (tag, payload) = encode_response(response);
    fold_bytes(hash, tag, &payload)
}

/// How a final response is classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served / ingested / evicted / stats.
    Ok,
    /// A typed rejection the workload itself produces (e.g. a P3 client
    /// absent from the window); correct iff the reference agrees.
    Rejected,
    /// `Relocated` after the retry budget: the envelope was not executed.
    Redirected,
    /// `Overloaded` after the retry budget: a failure.
    Overloaded,
    /// The transport lost the response: a failure.
    Lost,
}

/// One write of one envelope (retries add attempts).
#[derive(Debug, Clone, Copy)]
pub struct Attempt {
    /// Index of the envelope in the schedule.
    pub envelope: u32,
    /// The virtual stamp sent with this attempt.
    pub stamp: SimTime,
    /// Before encoding and writing the frame.
    pub send_ns: u64,
    /// After `NetClient::send` returned (frame buffered).
    pub sent_ns: u64,
    /// After the response was read and decoded.
    pub recv_ns: u64,
    /// Whether this attempt was answered with a `Relocated` redirect.
    pub redirected: bool,
}

impl Attempt {
    /// Send → receive, in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.recv_ns.saturating_sub(self.send_ns) as f64 / 1e3
    }
}

/// The final state of one scheduled envelope.
#[derive(Debug, Clone, Copy)]
pub struct Final {
    /// Classification of the final response.
    pub outcome: Outcome,
    /// FNV-1a of the final response alone.
    pub hash: u64,
    /// Index of the envelope's first attempt in [`DriveResult::attempts`].
    pub first_attempt: u32,
}

/// The state of a drive when a slice boundary was crossed.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Scheduled envelopes with a final response so far.
    pub finals: u32,
    /// [`now_ns`] at the boundary.
    pub at_ns: u64,
    /// On-CPU nanoseconds of the whole process at the boundary.
    pub cpu_ns: u64,
}

fn mark(finals: usize, at_ns: u64) -> Mark {
    Mark {
        finals: finals as u32,
        at_ns,
        cpu_ns: process_cpu_ns(),
    }
}

/// What one drive observed.
#[derive(Debug, Clone)]
pub struct DriveResult {
    /// Every attempt, in send order (= the order the server sees them).
    pub attempts: Vec<Attempt>,
    /// One entry per scheduled envelope, in schedule order.
    pub finals: Vec<Final>,
    /// FNV-1a over every final response in schedule order, the same
    /// run-wide fold `flstore_loadgen` reports.
    pub checksum: u64,
    /// Framed request bytes written (every attempt).
    pub bytes_out: u64,
    /// Framed response bytes read (every attempt).
    pub bytes_in: u64,
    /// [`now_ns`] when the first frame was written.
    pub started_ns: u64,
    /// [`now_ns`] when the last response was read.
    pub ended_ns: u64,
    /// The start of the drive and each of its [`SLICES`] equal slices'
    /// ends (by count of final responses): `SLICES + 1` marks, fewer if
    /// the connection was lost.
    pub marks: Vec<Mark>,
}

/// Drives `schedule` over `client`.
///
/// The window slides: every reply admits the next request. `retries` is
/// the per-envelope budget for
/// `Relocated` / `Overloaded` answers: the envelope is re-sent at once
/// with its stamp advanced by the full hint (the rejection is driven by
/// the virtual clock, so a wall-clock pause would buy nothing).
pub fn drive(
    client: &mut NetClient,
    schedule: &[Envelope],
    window: usize,
    retries: usize,
) -> Result<DriveResult, WireError> {
    let window = window.max(1);
    // Final responses then arrive in schedule order, so the run-wide
    // checksum can be folded as they come.
    assert!(
        retries == 0 || window == 1,
        "retries keep schedule order only at window 1"
    );
    let lost = Final {
        outcome: Outcome::Lost,
        hash: 0,
        first_attempt: u32::MAX,
    };
    let mut result = DriveResult {
        attempts: Vec::with_capacity(schedule.len() + 16),
        finals: vec![lost; schedule.len()],
        checksum: FNV_OFFSET,
        bytes_out: 0,
        bytes_in: 0,
        started_ns: now_ns(),
        ended_ns: 0,
        marks: Vec::with_capacity(SLICES + 1),
    };
    result.marks.push(mark(0, result.started_ns));
    let mut finals_done = 0usize;
    // (envelope index, stamp, attempts so far); retries re-enter at the
    // head so they stay ahead of everything not yet sent.
    let mut pending: VecDeque<(u32, SimTime, usize)> = (0..schedule.len() as u32)
        .map(|i| (i, schedule[i as usize].now, 0))
        .collect();
    // (attempt index, attempts so far), oldest first: one pipelined
    // connection answers strictly in submission order.
    let mut outstanding: VecDeque<(u32, usize)> = VecDeque::with_capacity(window);

    while !pending.is_empty() || !outstanding.is_empty() {
        while outstanding.len() < window {
            let Some(&(index, stamp, tries)) = pending.front() else {
                break;
            };
            let envelope = &schedule[index as usize];
            pending.pop_front();
            let send_ns = now_ns();
            client.send(stamp, &envelope.request)?;
            let sent_ns = now_ns();
            result.bytes_out += if stamp == envelope.now {
                u64::from(envelope.wire_len)
            } else {
                frame_len(encode_request(stamp, &envelope.request).1.len()) as u64
            };
            outstanding.push_back((result.attempts.len() as u32, tries));
            result.attempts.push(Attempt {
                envelope: index,
                stamp,
                send_ns,
                sent_ns,
                recv_ns: 0,
                redirected: false,
            });
        }
        let (attempt_index, tries) = outstanding.pop_front().expect("window is primed");
        let response = match client.recv() {
            Ok(response) => response,
            // The connection is gone: everything unanswered stays Lost.
            Err(_) => break,
        };
        let recv_ns = now_ns();
        let attempt = &mut result.attempts[attempt_index as usize];
        attempt.recv_ns = recv_ns;
        let index = attempt.envelope as usize;
        let stamp = attempt.stamp;
        let (tag, payload) = encode_response(&response);
        result.bytes_in += frame_len(payload.len()) as u64;
        let (hint, outcome) = match &response {
            Response::Rejected(ApiError::Relocated {
                retry_after_hint, ..
            }) => {
                attempt.redirected = true;
                (Some(*retry_after_hint), Outcome::Redirected)
            }
            Response::Rejected(ApiError::Overloaded { retry_after_hint }) => {
                (Some(*retry_after_hint), Outcome::Overloaded)
            }
            Response::Rejected(_) => (None, Outcome::Rejected),
            _ => (None, Outcome::Ok),
        };
        let first_attempt = match result.finals[index].first_attempt {
            u32::MAX => attempt_index,
            first => first,
        };
        result.finals[index].first_attempt = first_attempt;
        if let (Some(hint), true) = (hint, tries < retries) {
            pending.push_front((index as u32, stamp + hint, tries + 1));
            continue;
        }
        result.finals[index] = Final {
            outcome,
            hash: fold_bytes(FNV_OFFSET, tag, &payload),
            first_attempt,
        };
        result.checksum = fold_bytes(result.checksum, tag, &payload);
        finals_done += 1;
        if finals_done == result.marks.len() * schedule.len() / SLICES {
            result.marks.push(mark(finals_done, recv_ns));
        }
    }
    result.ended_ns = now_ns();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flstore_core::api::{Request, Service, StatsReport};
    use flstore_net::server::{NetServer, ServerConfig};
    use flstore_sim::bytes::ByteSize;
    use flstore_sim::cost::{Cost, CostBreakdown};
    use flstore_sim::time::SimDuration;

    /// A service that answers from a fixed response list, in order.
    struct Canned {
        responses: Vec<Response>,
        next: usize,
    }

    impl Service for Canned {
        fn label(&self) -> String {
            "canned".into()
        }
        fn submit(&mut self, _now: SimTime, _request: Request) -> Response {
            let r = self.responses[self.next % self.responses.len()].clone();
            self.next += 1;
            r
        }
        fn window_cost(&mut self, _now: SimTime) -> CostBreakdown {
            CostBreakdown::ZERO
        }
        fn infra_cost(&mut self, _now: SimTime) -> Cost {
            CostBreakdown::ZERO.total()
        }
    }

    fn fixed_responses() -> Vec<Response> {
        let stats = |served: usize| {
            Response::Stats(StatsReport {
                label: format!("canned-{served}"),
                tenants: 1,
                served,
                cache_hits: 3 * served as u64,
                cache_misses: 1,
                hit_rate: 0.75,
                faults: 0,
                spilled_objects: 0,
                spilled_bytes: ByteSize::ZERO,
                spill_faults: 0,
                quota: Vec::new(),
            })
        };
        vec![
            stats(1),
            Response::Evicted { was_cached: true },
            Response::Rejected(ApiError::UnknownJob {
                job: flstore_fl::ids::JobId::new(9),
            }),
            stats(200),
            Response::Evicted { was_cached: false },
        ]
    }

    fn stats_schedule(n: usize) -> Vec<Envelope> {
        (0..n)
            .map(|i| {
                let now = SimTime::from_micros(i as u64);
                let (_, payload) = encode_request(now, &Request::Stats);
                Envelope {
                    now,
                    request: Request::Stats,
                    tag: crate::schedule::TAG_INGEST,
                    wire_len: frame_len(payload.len()) as u32,
                    payload_len: payload.len() as u32,
                }
            })
            .collect()
    }

    #[test]
    fn checksum_equals_loadgens_fold_on_a_fixed_response_list() {
        let schedule = stats_schedule(23);
        let serve = || {
            NetServer::bind(
                Box::new(Canned {
                    responses: fixed_responses(),
                    next: 0,
                }),
                ServerConfig::default(),
            )
            .unwrap()
        };
        // Ours, at two windows.
        let mut checksums = Vec::new();
        for window in [1, 4] {
            let server = serve();
            let mut client = NetClient::connect(server.local_addr()).unwrap();
            let ours = drive(&mut client, &schedule, window, 0).unwrap();
            drop(client);
            server.shutdown();
            assert!(ours.finals.iter().all(|f| f.outcome != Outcome::Lost));
            assert_eq!(ours.attempts.len(), schedule.len());
            checksums.push(ours.checksum);
            // Per-response hashes are the same fold started fresh.
            let expect = fixed_responses();
            for (i, f) in ours.finals.iter().enumerate() {
                assert_eq!(f.hash, fold_response(FNV_OFFSET, &expect[i % expect.len()]));
            }
        }
        // flstore-loadgen's closed loop against the same canned service.
        let server = serve();
        let theirs = flstore_loadgen::run_closed(
            &server.local_addr().to_string(),
            &schedule
                .iter()
                .map(|e| (e.now, e.request.clone()))
                .collect::<Vec<_>>(),
            4,
            0,
        )
        .unwrap();
        server.shutdown();
        assert_eq!(checksums[0], theirs.checksum);
        assert_eq!(checksums[1], theirs.checksum);
    }

    #[test]
    fn bytes_are_counted_exactly_in_both_directions() {
        let schedule = stats_schedule(5);
        let server = NetServer::bind(
            Box::new(Canned {
                responses: fixed_responses(),
                next: 0,
            }),
            ServerConfig::default(),
        )
        .unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let got = drive(&mut client, &schedule, 1, 0).unwrap();
        drop(client);
        server.shutdown();
        let out: u64 = schedule.iter().map(|e| u64::from(e.wire_len)).sum();
        let mut framed = Vec::new();
        for r in fixed_responses() {
            let (tag, payload) = encode_response(&r);
            flstore_net::wire::write_frame(&mut framed, tag, &payload).unwrap();
        }
        assert_eq!(got.bytes_out, out);
        assert_eq!(got.bytes_in, framed.len() as u64);
    }

    /// Answers the first attempt of every third envelope with a redirect.
    struct Flaky {
        seen: usize,
        hint: SimDuration,
    }

    impl Service for Flaky {
        fn label(&self) -> String {
            "flaky".into()
        }
        fn submit(&mut self, now: SimTime, _request: Request) -> Response {
            self.seen += 1;
            // Original stamps are multiples of 10 µs; retries are not.
            if now.as_micros().is_multiple_of(10) && (now.as_micros() / 10) % 3 == 1 {
                Response::Rejected(ApiError::Relocated {
                    job: flstore_fl::ids::JobId::new(1),
                    retry_after_hint: self.hint,
                })
            } else {
                Response::Evicted {
                    was_cached: !now.as_micros().is_multiple_of(10),
                }
            }
        }
        fn window_cost(&mut self, _now: SimTime) -> CostBreakdown {
            CostBreakdown::ZERO
        }
        fn infra_cost(&mut self, _now: SimTime) -> Cost {
            CostBreakdown::ZERO.total()
        }
    }

    #[test]
    fn retries_keep_order_at_window_one() {
        let mut schedule = stats_schedule(9);
        for (i, e) in schedule.iter_mut().enumerate() {
            e.now = SimTime::from_micros(10 * i as u64);
        }
        let server = NetServer::bind(
            Box::new(Flaky {
                seen: 0,
                hint: SimDuration::from_micros(3),
            }),
            ServerConfig::default(),
        )
        .unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let got = drive(&mut client, &schedule, 1, 1).unwrap();
        drop(client);
        server.shutdown();
        // Envelopes 1, 4, 7 were redirected once and retried at +3 µs.
        assert_eq!(got.attempts.len(), 12);
        let order: Vec<u32> = got.attempts.iter().map(|a| a.envelope).collect();
        assert_eq!(order, vec![0, 1, 1, 2, 3, 4, 4, 5, 6, 7, 7, 8]);
        for (i, f) in got.finals.iter().enumerate() {
            assert_eq!(f.outcome, Outcome::Ok);
            let retried = i % 3 == 1;
            let last = got
                .attempts
                .iter()
                .rfind(|a| a.envelope as usize == i)
                .unwrap();
            assert_eq!(
                last.stamp.as_micros(),
                10 * i as u64 + if retried { 3 } else { 0 }
            );
            let first = got.attempts[f.first_attempt as usize];
            assert_eq!(first.envelope as usize, i);
            assert_eq!(first.redirected, retried);
        }
        // With no budget the redirect is final and classified as such.
        let server = NetServer::bind(
            Box::new(Flaky {
                seen: 0,
                hint: SimDuration::from_micros(3),
            }),
            ServerConfig::default(),
        )
        .unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let got = drive(&mut client, &schedule, 1, 0).unwrap();
        drop(client);
        server.shutdown();
        assert_eq!(got.finals[1].outcome, Outcome::Redirected);
        assert_eq!(got.attempts.len(), 9);
    }
}
