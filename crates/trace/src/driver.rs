//! The experiment driver: replays an FL job and a non-training request
//! trace against any serving system, producing comparable reports.
//!
//! This is the machinery behind every FLStore-vs-baseline figure: the same
//! job, the same requests, the same virtual clock — only the serving
//! architecture changes. Systems plug in through the unified front door
//! ([`flstore_core::api::Service`]); the driver turns arrivals into typed
//! [`Request`] envelopes and submits each one at its arrival instant.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use flstore_core::api::{Request, Response, Service};
use flstore_fl::ids::{ClientId, Round};
use flstore_fl::job::{FlJobConfig, FlJobSim, RoundRecord};
use flstore_sim::cost::{Cost, CostBreakdown};
use flstore_sim::rng::DetRng;
use flstore_sim::stats::Summary;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::service::RequestOutcome;
use flstore_workloads::taxonomy::{PolicyClass, WorkloadKind};

/// One externally-supplied trace event: a non-training request arriving
/// `t` seconds into the window.
///
/// The JSON-lines wire format (see [`TraceConfig::from_jsonl`]) is one
/// object per line:
///
/// ```json
/// {"t": 120.5, "workload": "Inference", "round": 3, "client": 7}
/// ```
///
/// `round` and `client` are optional: a missing round targets the latest
/// ingested round (the FL access pattern), and a missing client on a
/// client-tracking (P3) workload falls back to the driver's rotating
/// audit set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Arrival time, in seconds from the window start.
    pub t: f64,
    /// Which workload the request runs.
    pub workload: WorkloadKind,
    /// Explicit target round (defaults to the latest ingested round).
    #[serde(default)]
    pub round: Option<u32>,
    /// Explicit target client (P3-class workloads).
    #[serde(default)]
    pub client: Option<u32>,
}

/// A malformed external trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The reader failed.
    Io(String),
    /// A line was not a valid trace event.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The trace contained no events.
    Empty,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace read failed: {e}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace line {line}: {message}")
            }
            TraceError::Empty => write!(f, "trace contains no events"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Trace parameters: how many requests of which kinds over which window.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Seed for arrivals and target selection.
    pub seed: u64,
    /// Number of requests.
    pub requests: usize,
    /// Window the requests spread over (training runs during the same
    /// window).
    pub window: SimDuration,
    /// Workload mix (requests cycle through these kinds uniformly).
    pub kinds: Vec<WorkloadKind>,
    /// Explicit externally-loaded events. When present they replace the
    /// synthetic arrival process and workload cycling entirely — the
    /// driver replays exactly these requests at exactly these times.
    pub events: Option<Vec<TraceEvent>>,
}

impl TraceConfig {
    /// A small trace for tests.
    pub fn smoke(seed: u64) -> Self {
        TraceConfig {
            seed,
            requests: 40,
            window: SimDuration::from_hours(1),
            kinds: WorkloadKind::ALL.to_vec(),
            events: None,
        }
    }

    /// Loads an external trace from JSON-lines: one [`TraceEvent`] object
    /// per line (blank lines and `#` comment lines are skipped). Events
    /// are sorted by arrival time; the window extends one second past the
    /// last arrival, and `kinds` lists the workloads in order of first
    /// appearance.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the reader fails, [`TraceError::Parse`]
    /// for an invalid line (bad JSON, unknown workload, or a time that is
    /// negative, not a number, or past the virtual clock's range),
    /// [`TraceError::Empty`] when no events remain.
    pub fn from_jsonl<R: std::io::BufRead>(reader: R) -> Result<Self, TraceError> {
        let mut events: Vec<TraceEvent> = Vec::new();
        for (i, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| TraceError::Io(e.to_string()))?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let event: TraceEvent = serde_json::from_str(line).map_err(|e| TraceError::Parse {
                line: i + 1,
                message: e.to_string(),
            })?;
            if !(0.0..=SimDuration::MAX.as_secs_f64()).contains(&event.t) {
                return Err(TraceError::Parse {
                    line: i + 1,
                    message: format!(
                        "arrival time {} is not a non-negative number the virtual clock can hold",
                        event.t
                    ),
                });
            }
            events.push(event);
        }
        if events.is_empty() {
            return Err(TraceError::Empty);
        }
        events.sort_by(|a, b| a.t.partial_cmp(&b.t).expect("times are finite"));
        let mut kinds: Vec<WorkloadKind> = Vec::new();
        for e in &events {
            if !kinds.contains(&e.workload) {
                kinds.push(e.workload);
            }
        }
        let horizon = events.last().expect("non-empty").t;
        Ok(TraceConfig {
            seed: 0,
            requests: events.len(),
            window: SimDuration::from_secs_f64(horizon) + SimDuration::from_secs(1),
            kinds,
            events: Some(events),
        })
    }
}

/// Report of one drive: per-request outcomes plus window costs.
#[derive(Debug, Clone)]
pub struct DriveReport {
    /// Architecture label.
    pub label: String,
    /// Served request outcomes, in arrival order.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests that could not be served.
    pub errors: usize,
    /// Window-total cost.
    pub total_cost: CostBreakdown,
    /// Always-on infrastructure share of the window.
    pub infra_cost: Cost,
    /// Window length.
    pub window: SimDuration,
}

impl DriveReport {
    /// Per-request latency summary (seconds).
    pub fn latency_summary(&self) -> Option<Summary> {
        let secs: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| o.latency.total().as_secs_f64())
            .collect();
        Summary::from_values(&secs)
    }

    /// Per-request cost summary (dollars) with the always-on infrastructure
    /// amortized across requests — the paper's per-request costing.
    pub fn amortized_cost_summary(&self) -> Option<Summary> {
        let n = self.outcomes.len().max(1);
        let share = self.infra_cost.as_dollars() / n as f64;
        let dollars: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| o.cost.total().as_dollars() + share)
            .collect();
        Summary::from_values(&dollars)
    }

    /// Outcomes of one workload kind.
    pub fn by_kind(&self, kind: WorkloadKind) -> Vec<&RequestOutcome> {
        self.outcomes.iter().filter(|o| o.kind == kind).collect()
    }

    /// Overall cache hit rate.
    pub fn hit_rate(&self) -> f64 {
        let hits: u64 = self.outcomes.iter().map(|o| o.cache_hits as u64).sum();
        let misses: u64 = self.outcomes.iter().map(|o| o.cache_misses as u64).sum();
        if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

/// Drives `system` through one FL job plus a request trace, submitting
/// every envelope of [`materialize_schedule`] the instant it arrives.
///
/// Rounds are ingested at an even cadence across the window; requests
/// arrive Poisson. Each request targets the *latest ingested round* (the FL
/// pattern the paper's policies exploit); P3 requests pick a tracked client
/// from that round's participants, cycling through a small set of clients
/// under audit. An external trace ([`TraceConfig::from_jsonl`]) replaces
/// the synthetic arrivals/targets with its explicit events.
pub fn drive<S: Service>(
    system: &mut S,
    job_cfg: &FlJobConfig,
    trace: &TraceConfig,
) -> DriveReport {
    let schedule = materialize_schedule(job_cfg, trace);
    let planned = trace.events.as_ref().map_or(trace.requests, Vec::len);
    let serves = schedule
        .iter()
        .filter(|(_, request)| matches!(request, Request::Serve(_)))
        .count();
    // An arrival before any ingested round has nothing to target; the
    // schedule leaves it out and the report counts it as an error.
    let mut errors = planned - serves;
    let mut outcomes = Vec::with_capacity(serves);
    for (at, request) in schedule {
        match system.submit(at, request) {
            Response::Served(served) => outcomes.push(served.measured),
            // A rejected ingest counts as an error too.
            Response::Rejected(_) => errors += 1,
            _ => {}
        }
    }

    let end = SimTime::ZERO + trace.window;
    DriveReport {
        label: system.label(),
        outcomes,
        errors,
        total_cost: system.window_cost(end),
        infra_cost: system.infra_cost(end),
        window: trace.window,
    }
}

/// Materializes the envelope schedule a trace produces, without driving
/// any system: planned arrivals, round-ingest cadence, workload targets,
/// and the rotating P3 audit set, flattened to `(arrival, envelope)`
/// pairs in submission order.
///
/// This is the one trace planner: [`drive`] consumes it in-process and
/// the `flstore-loadgen` client drivers serialize exactly this schedule
/// over the wire, so a networked run serves the *same trace* the
/// in-process driver serves. Arrival stamps are monotone non-decreasing;
/// every `Ingest` precedes the serves that target its round.
///
/// ```
/// use flstore_fl::ids::JobId;
/// use flstore_fl::job::FlJobConfig;
/// use flstore_trace::driver::{materialize_schedule, TraceConfig};
///
/// let job = FlJobConfig::quick_test(JobId::new(1));
/// let schedule = materialize_schedule(&job, &TraceConfig::smoke(7));
/// assert!(schedule.len() > job.rounds as usize); // ingests + serves
/// let mut prev = flstore_sim::time::SimTime::ZERO;
/// for (at, _) in &schedule {
///     assert!(*at >= prev);
///     prev = *at;
/// }
/// ```
pub fn materialize_schedule(job_cfg: &FlJobConfig, trace: &TraceConfig) -> Vec<(SimTime, Request)> {
    assert!(
        trace.events.is_some() || !trace.kinds.is_empty(),
        "trace needs at least one workload kind"
    );
    let mut sim = FlJobSim::new(job_cfg.clone());
    let mut rng = DetRng::stream(trace.seed, "trace-targets");

    let round_interval = trace.window.div_u64(u64::from(job_cfg.rounds.max(1)));
    let planned: Vec<(SimTime, Option<TraceEvent>)> = match &trace.events {
        Some(events) => events
            .iter()
            .map(|e| {
                (
                    SimTime::ZERO + SimDuration::from_secs_f64(e.t),
                    Some(e.clone()),
                )
            })
            .collect(),
        None => crate::arrival::poisson_arrivals(
            trace.seed,
            SimTime::ZERO,
            trace.window,
            trace.requests,
        )
        .into_iter()
        .map(|at| (at, None))
        .collect(),
    };

    let mut schedule = Vec::with_capacity(planned.len() + job_cfg.rounds as usize);
    let mut next_round_at = SimTime::ZERO;
    let mut latest: Option<Arc<RoundRecord>> = None;
    let mut audited: Vec<ClientId> = Vec::new();
    let mut request_seq = 0u64;

    for (at, event) in planned {
        while next_round_at <= at {
            match sim.next_round() {
                Some(record) => {
                    let record = Arc::new(record);
                    schedule.push((
                        next_round_at,
                        Request::Ingest {
                            job: job_cfg.job,
                            record: record.clone(),
                        },
                    ));
                    latest = Some(record);
                    next_round_at += round_interval;
                }
                None => break,
            }
        }
        let Some(record) = latest.as_ref() else {
            continue;
        };
        let kind = match &event {
            Some(e) => e.workload,
            None => trace.kinds[request_seq as usize % trace.kinds.len()],
        };
        request_seq += 1;
        let explicit_client = event.as_ref().and_then(|e| e.client).map(ClientId::new);
        let client = match kind.policy_class() {
            PolicyClass::P3AcrossRounds => explicit_client.or_else(|| {
                // Audits focus on a rotating handful of clients.
                if audited.len() < 4 {
                    let pick = record.updates[rng.index(record.updates.len())].client;
                    if !audited.contains(&pick) {
                        audited.push(pick);
                    }
                }
                Some(audited[request_seq as usize % audited.len()])
            }),
            _ => explicit_client,
        };
        let round = event
            .as_ref()
            .and_then(|e| e.round)
            .map(Round::new)
            .unwrap_or(record.round);
        let request = WorkloadRequest::new(
            RequestId::new(request_seq),
            kind,
            job_cfg.job,
            round,
            client,
        );
        schedule.push((at, Request::Serve(request)));
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use flstore_baselines::agg::{AggregatorBaseline, AggregatorConfig};
    use flstore_core::policy::TailoredPolicy;
    use flstore_core::store::FlStore;
    use flstore_core::store::FlStoreConfig;
    use flstore_exec::ShardedExecutor;
    use flstore_fl::ids::JobId;
    use flstore_serverless::platform::{PlatformConfig, ReclaimModel};

    fn small_job() -> FlJobConfig {
        FlJobConfig {
            rounds: 20,
            ..FlJobConfig::quick_test(JobId::new(1))
        }
    }

    fn flstore(job: &FlJobConfig) -> FlStore {
        let cfg = FlStoreConfig {
            platform: PlatformConfig {
                reclaim: ReclaimModel::DISABLED,
                ..PlatformConfig::default()
            },
            ..FlStoreConfig::for_model(&job.model)
        };
        FlStore::new(cfg, Box::new(TailoredPolicy::new()), job.job, job.model)
    }

    #[test]
    fn drives_flstore_through_a_trace() {
        let job = small_job();
        let mut store = flstore(&job);
        let report = drive(&mut store, &job, &TraceConfig::smoke(5));
        assert_eq!(report.label, "FLStore");
        assert!(
            report.outcomes.len() >= 35,
            "served {}",
            report.outcomes.len()
        );
        assert!(report.hit_rate() > 0.8, "hit rate {}", report.hit_rate());
        assert!(report.total_cost.total().as_dollars() > 0.0);
    }

    #[test]
    fn drives_baseline_with_identical_trace() {
        let job = small_job();
        let mut agg = AggregatorBaseline::new(
            AggregatorConfig::objstore_agg(),
            job.job,
            job.model,
            SimTime::ZERO,
        );
        let report = drive(&mut agg, &job, &TraceConfig::smoke(5));
        assert_eq!(report.label, "ObjStore-Agg");
        assert!(report.outcomes.len() >= 35);
        // Baseline never hits a serverless cache.
        assert!(report.hit_rate() < 0.6);
    }

    #[test]
    fn flstore_beats_objstore_agg_on_latency() {
        let job = small_job();
        let trace = TraceConfig::smoke(7);
        let mut store = flstore(&job);
        let fl = drive(&mut store, &job, &trace);
        let mut agg = AggregatorBaseline::new(
            AggregatorConfig::objstore_agg(),
            job.job,
            job.model,
            SimTime::ZERO,
        );
        let base = drive(&mut agg, &job, &trace);
        let fl_mean = fl.latency_summary().expect("served").mean;
        let base_mean = base.latency_summary().expect("served").mean;
        assert!(
            fl_mean < base_mean * 0.6,
            "FLStore {fl_mean:.2}s vs ObjStore-Agg {base_mean:.2}s"
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let job = small_job();
        let trace = TraceConfig::smoke(9);
        let mut a = flstore(&job);
        let mut b = flstore(&job);
        let ra = drive(&mut a, &job, &trace);
        let rb = drive(&mut b, &job, &trace);
        assert_eq!(ra.outcomes.len(), rb.outcomes.len());
        let la: Vec<f64> = ra
            .outcomes
            .iter()
            .map(|o| o.latency.total().as_secs_f64())
            .collect();
        let lb: Vec<f64> = rb
            .outcomes
            .iter()
            .map(|o| o.latency.total().as_secs_f64())
            .collect();
        assert_eq!(la, lb);
    }

    #[test]
    fn parallel_drive_matches_sequential_drive() {
        // `drive` through an executor on several kernel threads reports
        // exactly what the bare store reports.
        let job = small_job();
        let trace = TraceConfig::smoke(17);
        let mut sequential = flstore(&job);
        let rs = drive(&mut sequential, &job, &trace);
        for threads in [2usize, 4] {
            let mut exec = ShardedExecutor::new(vec![flstore(&job)], threads);
            let rp = drive(&mut exec, &job, &trace);
            assert_eq!(rs.outcomes, rp.outcomes, "threads={threads}");
            assert_eq!(rs.errors, rp.errors);
            assert_eq!(rs.total_cost, rp.total_cost);
            assert_eq!(rs.infra_cost, rp.infra_cost);
            assert_eq!(rs.label, rp.label);
            let store = exec.into_units().pop().expect("the unit comes back");
            assert_eq!(store.ledger(), sequential.ledger());
        }
    }

    #[test]
    fn jsonl_trace_round_trips_and_drives() {
        let jsonl = "\
# a hand-written external trace
{\"t\": 30.0, \"workload\": \"Inference\"}
{\"t\": 10.0, \"workload\": \"MaliciousFiltering\"}

{\"t\": 45.5, \"workload\": \"Debugging\", \"client\": 2}
{\"t\": 60.0, \"workload\": \"Inference\", \"round\": 0}
";
        let trace = TraceConfig::from_jsonl(jsonl.as_bytes()).expect("parses");
        assert_eq!(trace.requests, 4);
        let events = trace.events.as_ref().expect("loaded");
        // Sorted by arrival.
        assert_eq!(events[0].workload, WorkloadKind::MaliciousFiltering);
        assert_eq!(events[3].round, Some(0));
        assert_eq!(
            trace.kinds,
            vec![
                WorkloadKind::MaliciousFiltering,
                WorkloadKind::Inference,
                WorkloadKind::Debugging,
            ]
        );
        assert!(trace.window > SimDuration::from_secs(60));

        let job = FlJobConfig {
            rounds: 4,
            ..FlJobConfig::quick_test(JobId::new(1))
        };
        let mut store = flstore(&job);
        let report = drive(&mut store, &job, &trace);
        assert_eq!(report.outcomes.len() + report.errors, 4);
        assert!(
            report.outcomes.len() >= 3,
            "served {}",
            report.outcomes.len()
        );
    }

    #[test]
    fn jsonl_trace_rejects_bad_lines() {
        assert!(matches!(
            TraceConfig::from_jsonl("".as_bytes()),
            Err(TraceError::Empty)
        ));
        let bad_kind = "{\"t\": 1.0, \"workload\": \"Nonsense\"}";
        assert!(matches!(
            TraceConfig::from_jsonl(bad_kind.as_bytes()),
            Err(TraceError::Parse { line: 1, .. })
        ));
        for bad_time in ["-3.0", "1e300"] {
            let line = format!("{{\"t\": {bad_time}, \"workload\": \"Inference\"}}");
            assert!(matches!(
                TraceConfig::from_jsonl(line.as_bytes()),
                Err(TraceError::Parse { line: 1, .. })
            ));
        }
    }
}
