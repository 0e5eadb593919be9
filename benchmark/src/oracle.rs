//! The correctness oracle: an in-process, sequential replay of the same
//! schedule through a fresh store that has never seen a socket, an
//! executor, a ledger or a replica.
//!
//! Every final response that came back over the wire must hash equal to
//! the reference's response to the same envelope. Typed rejections the
//! reference also gives (a P3 client absent from its window answers
//! `MissingInput`) therefore count as correct; anything else is a failed
//! request.

use flstore_core::api::{Request, Response, Service};
use flstore_core::policy::TailoredPolicy;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_core::tenancy::MultiTenantStore;
use flstore_sim::time::SimTime;

use crate::driver::{fold_response, DriveResult, Outcome, FNV_OFFSET};
use crate::schedule::{Envelope, Plan};

/// The reference system for `plan`: a bare `FlStore`, or — when the
/// deployment under test is a cluster (`tenancy`) — the sequential
/// multi-tenant front, whose tenants derive their per-job seeds exactly
/// as the cluster's do. `template` is the deployment's store
/// configuration; durability settings in it are inert without a sink.
pub fn reference(plan: &Plan, template: &FlStoreConfig, tenancy: bool) -> Box<dyn Service> {
    if !tenancy {
        let [job] = plan.jobs.as_slice() else {
            panic!("a bare store serves exactly one job");
        };
        Box::new(FlStore::new(
            template.clone(),
            Box::new(TailoredPolicy::new()),
            job.job,
            job.model,
        ))
    } else {
        let mut front = MultiTenantStore::new(template.clone());
        for job in &plan.jobs {
            assert!(front.register_job(job.job, job.model), "distinct jobs");
        }
        Box::new(front)
    }
}

/// The verdict on one drive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Envelopes whose final response was compared.
    pub compared: usize,
    /// Final responses that differ from the reference.
    pub mismatched: usize,
    /// Envelopes the transport lost or the server refused as overloaded.
    pub undelivered: usize,
    /// Envelopes answered with a final redirect (never executed; they
    /// count against `availability`, not against correctness).
    pub redirected: usize,
    /// The reference's run-wide checksum over the compared envelopes.
    pub reference_checksum: u64,
}

impl Verdict {
    /// Failed requests: undelivered plus mismatched.
    pub fn failed(&self) -> usize {
        self.mismatched + self.undelivered
    }
}

/// The server clamps the virtual clock monotonic across envelopes
/// (`clock = max(clock, stamp)`); the reference must see the same clock.
#[derive(Debug, Clone, Copy)]
pub struct Clock(SimTime);

impl Clock {
    /// Starts at the server's `initial_clock` (zero).
    pub fn new() -> Self {
        Clock(SimTime::ZERO)
    }

    /// Advances to `stamp` if it is later; returns the clamped clock.
    pub fn advance(&mut self, stamp: SimTime) -> SimTime {
        self.0 = self.0.max(stamp);
        self.0
    }
}

/// Replays `envelopes` as `drive` delivered them into `reference` and
/// compares hashes. The clock sees every attempt's stamp (a redirected
/// attempt executed nothing but did advance the server's clock);
/// envelopes whose final answer was a redirect are skipped, exactly as
/// the deployment skipped them.
pub fn check(
    reference: &mut dyn Service,
    clock: &mut Clock,
    envelopes: &[Envelope],
    drive: &DriveResult,
) -> Verdict {
    let mut verdict = Verdict {
        reference_checksum: FNV_OFFSET,
        ..Verdict::default()
    };
    let mut attempts = drive.attempts.iter().peekable();
    for (index, (envelope, fin)) in envelopes.iter().zip(&drive.finals).enumerate() {
        // Attempts are in send order and, per envelope, contiguous.
        let mut last_stamp = None;
        while let Some(attempt) = attempts.next_if(|a| a.envelope as usize == index) {
            last_stamp = Some(clock.advance(attempt.stamp));
        }
        match fin.outcome {
            Outcome::Lost | Outcome::Overloaded => {
                verdict.undelivered += 1;
                continue;
            }
            Outcome::Redirected => {
                verdict.redirected += 1;
                continue;
            }
            Outcome::Ok | Outcome::Rejected => {}
        }
        let now = last_stamp.expect("a delivered envelope has an attempt");
        let expected = reference.submit(now, envelope.request.clone());
        let hash = fold_response(FNV_OFFSET, &expected);
        verdict.reference_checksum = fold_response(verdict.reference_checksum, &expected);
        verdict.compared += 1;
        if hash != fin.hash {
            verdict.mismatched += 1;
        }
    }
    verdict
}

/// Submits `requests` one by one at `now` and returns the responses —
/// the probe batch compared between a pre-crash and a recovered store.
pub fn probe(store: &mut FlStore, now: SimTime, requests: &[Request]) -> Vec<Response> {
    requests
        .iter()
        .map(|request| store.submit(now, request.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Attempt, Final};
    use crate::schedule::{plan, Workload};

    /// Builds the `DriveResult` a perfect deployment would have produced.
    fn perfect_drive(p: &Plan, template: &FlStoreConfig) -> DriveResult {
        let mut store = reference(p, template, false);
        let mut clock = Clock::new();
        let mut result = DriveResult {
            attempts: Vec::new(),
            finals: Vec::new(),
            checksum: FNV_OFFSET,
            bytes_out: 0,
            bytes_in: 0,
            started_ns: 0,
            ended_ns: 0,
            marks: Vec::new(),
        };
        for (i, e) in p.timed.iter().enumerate() {
            let response = store.submit(clock.advance(e.now), e.request.clone());
            result.attempts.push(Attempt {
                envelope: i as u32,
                stamp: e.now,
                send_ns: 0,
                sent_ns: 0,
                recv_ns: 1,
                redirected: false,
            });
            result.finals.push(Final {
                outcome: if response.is_ok() {
                    Outcome::Ok
                } else {
                    Outcome::Rejected
                },
                hash: fold_response(FNV_OFFSET, &response),
                first_attempt: i as u32,
            });
            result.checksum = fold_response(result.checksum, &response);
        }
        result
    }

    #[test]
    fn a_faithful_drive_passes_and_a_corrupted_one_is_counted() {
        let p = plan(Workload::SmallServe, 5, 0.02);
        let template = FlStoreConfig::for_model(&p.jobs[0].model);
        let mut drive = perfect_drive(&p, &template);
        let verdict = check(
            reference(&p, &template, false).as_mut(),
            &mut Clock::new(),
            &p.timed,
            &drive,
        );
        assert_eq!(verdict.compared, p.timed.len());
        assert_eq!(verdict.failed(), 0);
        assert_eq!(verdict.reference_checksum, drive.checksum);
        // Typed rejections the reference also gives are not failures.
        assert!(drive.finals.iter().any(|f| f.outcome == Outcome::Rejected));

        // (The lost envelope is the last one: whether a lost envelope
        // executed is unknowable, so losing an earlier one may also
        // change what later answers should be.)
        drive.finals[3].hash ^= 1;
        drive.finals.last_mut().expect("non-empty").outcome = Outcome::Lost;
        let verdict = check(
            reference(&p, &template, false).as_mut(),
            &mut Clock::new(),
            &p.timed,
            &drive,
        );
        assert_eq!(verdict.mismatched, 1);
        assert_eq!(verdict.undelivered, 1);
        assert_eq!(verdict.failed(), 2);
    }
}
