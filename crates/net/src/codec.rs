//! Payload codec: the binary encoding of [`Request`] and [`Response`]
//! envelopes, field for field.
//!
//! The encoding is hand-rolled and canonical — the same envelope always
//! produces the same bytes, so encode→decode→encode is byte-exact
//! (property-tested in `tests/roundtrip.rs`) and the figures harness can
//! checksum response payloads under the byte-diff determinism gate.
//!
//! The primitives and the encoders of the FL model types
//! ([`RoundRecord`](flstore_fl::job::RoundRecord), `MetaKey`, the
//! workload request) are the shared record codec's — [`flstore_fl::codec`]
//! and `flstore_workloads::request` — so an `Ingest` frame carries the
//! same record bytes the ledger logs and the cache holds. This module
//! adds only the envelope layer: requests, responses, served outcomes,
//! stats and typed errors (normative spec: `docs/WIRE.md`).
//!
//! Decoding is *validating*: every invariant the in-process types
//! enforce by construction (finite non-negative costs and work, P3
//! requests carrying a target client, known enum tags, UTF-8 labels) is
//! checked here and surfaces as [`WireError::Malformed`] — a hostile
//! peer cannot reach a panicking constructor.

use std::sync::Arc;

use flstore_cloud::blob::{ObjectKey, StoreError};
use flstore_cloud::compute::WorkUnits;
use flstore_core::api::{ApiError, Request, Response, StatsReport};
use flstore_core::quota::{QuotaPolicy, QuotaUsage, TenantQuota};
use flstore_core::store::{IngestReceipt, ServedRequest};
use flstore_fl::codec::{
    get_bool, get_byte_size, get_client, get_cost_breakdown, get_f64, get_job, get_meta_key,
    get_nonneg_f64, get_option, get_record, get_round, get_sim_duration, get_sim_time, get_str,
    get_usize, get_vec, put_bool, put_byte_size, put_client, put_cost_breakdown, put_f64, put_job,
    put_meta_key, put_option, put_record, put_round, put_sim_duration, put_sim_time, put_str,
    put_varint, put_vec, DecodeError, Reader,
};
use flstore_fl::ids::{ClientId, Round};
use flstore_serverless::function::FunctionError;
use flstore_serverless::function::FunctionId;
use flstore_serverless::platform::PlatformError;
use flstore_sim::latency::LatencyBreakdown;
use flstore_sim::time::SimTime;
use flstore_workloads::outputs::{
    ClusteringOutput, CosineOutput, DebuggingOutput, FilteringOutput, IncentivesOutput,
    InferenceOutput, PersonalizationOutput, ReputationOutput, SchedClusterOutput, SchedPerfOutput,
    WorkloadOutput,
};
use flstore_workloads::request::{
    get_kind, get_workload_request, put_kind, put_workload_request, RequestId,
};
use flstore_workloads::run::{WorkloadError, WorkloadOutcome};

use crate::wire::{
    WireError, TAG_EVICT, TAG_EVICTED, TAG_INGEST, TAG_INGESTED, TAG_REJECTED, TAG_SERVE,
    TAG_SERVED, TAG_STATS, TAG_STATS_REPORT,
};

/// The closed set of `WorkloadError::MissingInput` details. The wire
/// carries the string; decode interns it through this table (the field is
/// `&'static str` in-process). A detail string added in
/// `flstore-workloads` without a row here fails decode as
/// [`WireError::Malformed`] — loudly, in the round-trip tests.
pub const MISSING_INPUT_WHATS: &[&str] = &[
    "aggregated model",
    "client updates across rounds",
    "round aggregate",
    "round metrics window",
    "round updates",
    "target client",
];

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Encodes a request envelope stamped at `now`, returning the frame tag
/// and payload. The arrival stamp rides in the payload so the serving
/// results derive from the client-carried virtual clock — wall clock
/// never reaches the store.
pub fn encode_request(now: SimTime, request: &Request) -> (u8, Vec<u8>) {
    let mut buf = Vec::new();
    put_sim_time(&mut buf, now);
    let tag = match request {
        Request::Ingest { job, record } => {
            put_job(&mut buf, *job);
            put_record(&mut buf, record);
            TAG_INGEST
        }
        Request::Serve(w) => {
            put_workload_request(&mut buf, w);
            TAG_SERVE
        }
        Request::Evict(key) => {
            put_meta_key(&mut buf, key);
            TAG_EVICT
        }
        Request::Stats => TAG_STATS,
    };
    (tag, buf)
}

/// Decodes a request frame's payload into its arrival stamp and
/// envelope. The whole payload must be consumed ([`WireError::TrailingBytes`]
/// otherwise).
pub fn decode_request(tag: u8, payload: &[u8]) -> Result<(SimTime, Request), WireError> {
    let mut r = Reader::new(payload);
    let now = get_sim_time(&mut r)?;
    let request = match tag {
        TAG_INGEST => Request::Ingest {
            job: get_job(&mut r)?,
            record: Arc::new(get_record(&mut r)?),
        },
        TAG_SERVE => Request::Serve(get_workload_request(&mut r)?),
        TAG_EVICT => Request::Evict(get_meta_key(&mut r)?),
        TAG_STATS => Request::Stats,
        other => return Err(WireError::UnknownTag(other)),
    };
    r.finish()?;
    Ok((now, request))
}

// ---------------------------------------------------------------------------
// Workload outputs
// ---------------------------------------------------------------------------

fn put_client_f64s(buf: &mut Vec<u8>, items: &[(ClientId, f64)]) {
    put_vec(buf, items, |b, (c, v)| {
        put_client(b, *c);
        put_f64(b, *v);
    });
}

fn get_client_f64s(r: &mut Reader<'_>) -> Result<Vec<(ClientId, f64)>, DecodeError> {
    get_vec(r, |r| Ok((get_client(r)?, get_f64(r)?)))
}

fn put_client_usizes(buf: &mut Vec<u8>, items: &[(ClientId, usize)]) {
    put_vec(buf, items, |b, (c, v)| {
        put_client(b, *c);
        put_varint(b, *v as u64);
    });
}

fn get_client_usizes(r: &mut Reader<'_>) -> Result<Vec<(ClientId, usize)>, DecodeError> {
    get_vec(r, |r| Ok((get_client(r)?, get_usize(r)?)))
}

fn put_clients(buf: &mut Vec<u8>, items: &[ClientId]) {
    put_vec(buf, items, |b, c| put_client(b, *c));
}

fn put_round_f64s(buf: &mut Vec<u8>, items: &[(Round, f64)]) {
    put_vec(buf, items, |b, (round, v)| {
        put_round(b, *round);
        put_f64(b, *v);
    });
}

fn put_output(buf: &mut Vec<u8>, out: &WorkloadOutput) {
    match out {
        WorkloadOutput::Cosine(o) => {
            buf.push(0);
            put_client_f64s(buf, &o.per_client);
            put_f64(buf, o.mean);
            put_f64(buf, o.min);
        }
        WorkloadOutput::Filtering(o) => {
            buf.push(1);
            put_clients(buf, &o.flagged);
            put_client_f64s(buf, &o.scores);
        }
        WorkloadOutput::Clustering(o) => {
            buf.push(2);
            put_client_usizes(buf, &o.assignments);
            put_varint(buf, o.k as u64);
            put_f64(buf, o.inertia);
        }
        WorkloadOutput::Personalization(o) => {
            buf.push(3);
            put_client_usizes(buf, &o.groups);
            put_vec(buf, &o.group_accuracy, |b, v| put_f64(b, *v));
        }
        WorkloadOutput::SchedCluster(o) => {
            buf.push(4);
            put_client_usizes(buf, &o.tiers);
            put_varint(buf, o.selected_tier as u64);
            put_clients(buf, &o.selected);
        }
        WorkloadOutput::SchedPerf(o) => {
            buf.push(5);
            put_client_f64s(buf, &o.utilities);
            put_clients(buf, &o.selected);
        }
        WorkloadOutput::Reputation(o) => {
            buf.push(6);
            put_client(buf, o.client);
            put_round_f64s(buf, &o.history);
            put_f64(buf, o.reputation);
        }
        WorkloadOutput::Debugging(o) => {
            buf.push(7);
            put_client(buf, o.client);
            put_round_f64s(buf, &o.per_round);
            put_bool(buf, o.faulty);
        }
        WorkloadOutput::Incentives(o) => {
            buf.push(8);
            put_client_f64s(buf, &o.payouts);
            put_f64(buf, o.budget);
        }
        WorkloadOutput::Inference(o) => {
            buf.push(9);
            put_varint(buf, o.batch as u64);
            put_f64(buf, o.mean_score);
        }
    }
}

fn get_output(r: &mut Reader<'_>) -> Result<WorkloadOutput, DecodeError> {
    Ok(match r.u8()? {
        0 => WorkloadOutput::Cosine(CosineOutput {
            per_client: get_client_f64s(r)?,
            mean: get_f64(r)?,
            min: get_f64(r)?,
        }),
        1 => WorkloadOutput::Filtering(FilteringOutput {
            flagged: get_vec(r, get_client)?,
            scores: get_client_f64s(r)?,
        }),
        2 => WorkloadOutput::Clustering(ClusteringOutput {
            assignments: get_client_usizes(r)?,
            k: get_usize(r)?,
            inertia: get_f64(r)?,
        }),
        3 => WorkloadOutput::Personalization(PersonalizationOutput {
            groups: get_client_usizes(r)?,
            group_accuracy: get_vec(r, get_f64)?,
        }),
        4 => WorkloadOutput::SchedCluster(SchedClusterOutput {
            tiers: get_client_usizes(r)?,
            selected_tier: get_usize(r)?,
            selected: get_vec(r, get_client)?,
        }),
        5 => WorkloadOutput::SchedPerf(SchedPerfOutput {
            utilities: get_client_f64s(r)?,
            selected: get_vec(r, get_client)?,
        }),
        6 => WorkloadOutput::Reputation(ReputationOutput {
            client: get_client(r)?,
            history: get_vec(r, |r| Ok((get_round(r)?, get_f64(r)?)))?,
            reputation: get_f64(r)?,
        }),
        7 => WorkloadOutput::Debugging(DebuggingOutput {
            client: get_client(r)?,
            per_round: get_vec(r, |r| Ok((get_round(r)?, get_f64(r)?)))?,
            faulty: get_bool(r)?,
        }),
        8 => WorkloadOutput::Incentives(IncentivesOutput {
            payouts: get_client_f64s(r)?,
            budget: get_f64(r)?,
        }),
        9 => WorkloadOutput::Inference(InferenceOutput {
            batch: get_usize(r)?,
            mean_score: get_f64(r)?,
        }),
        _ => return Err(DecodeError::Malformed("unknown workload output tag")),
    })
}

// ---------------------------------------------------------------------------
// Served outcomes
// ---------------------------------------------------------------------------

fn put_served(buf: &mut Vec<u8>, served: &ServedRequest) {
    put_output(buf, &served.outcome.output);
    put_f64(buf, served.outcome.work.as_ref_seconds());
    put_byte_size(buf, served.outcome.result_bytes);

    let m = &served.measured;
    put_varint(buf, m.request.as_u64());
    put_kind(buf, m.kind);
    put_sim_time(buf, m.arrived);
    put_sim_time(buf, m.finished);
    put_sim_duration(buf, m.latency.routing);
    put_sim_duration(buf, m.latency.queueing);
    put_sim_duration(buf, m.latency.communication);
    put_sim_duration(buf, m.latency.computation);
    put_cost_breakdown(buf, &m.cost);
    put_varint(buf, m.cache_hits as u64);
    put_varint(buf, m.cache_misses as u64);
    put_bool(buf, m.recovered_from_fault);
}

fn get_served(r: &mut Reader<'_>) -> Result<ServedRequest, DecodeError> {
    let output = get_output(r)?;
    let work =
        WorkUnits::from_ref_seconds(get_nonneg_f64(r, "work must be finite and non-negative")?);
    let result_bytes = get_byte_size(r)?;
    let measured = flstore_workloads::service::RequestOutcome {
        request: RequestId::new(r.varint()?),
        kind: get_kind(r)?,
        arrived: get_sim_time(r)?,
        finished: get_sim_time(r)?,
        latency: LatencyBreakdown {
            routing: get_sim_duration(r)?,
            queueing: get_sim_duration(r)?,
            communication: get_sim_duration(r)?,
            computation: get_sim_duration(r)?,
        },
        cost: get_cost_breakdown(r)?,
        cache_hits: get_usize(r)?,
        cache_misses: get_usize(r)?,
        recovered_from_fault: get_bool(r)?,
    };
    Ok(ServedRequest {
        outcome: WorkloadOutcome {
            output,
            work,
            result_bytes,
        },
        measured,
    })
}

// ---------------------------------------------------------------------------
// Stats and errors
// ---------------------------------------------------------------------------

fn put_quota_usage(buf: &mut Vec<u8>, q: &QuotaUsage) {
    put_job(buf, q.job);
    put_byte_size(buf, q.resident);
    put_option(buf, q.quota.as_ref(), |b, t| {
        put_byte_size(b, t.bytes);
        b.push(match t.policy {
            QuotaPolicy::Strict => 0,
            QuotaPolicy::Elastic => 1,
        });
    });
}

fn get_quota_usage(r: &mut Reader<'_>) -> Result<QuotaUsage, DecodeError> {
    Ok(QuotaUsage {
        job: get_job(r)?,
        resident: get_byte_size(r)?,
        quota: get_option(r, |r| {
            Ok(TenantQuota {
                bytes: get_byte_size(r)?,
                policy: match r.u8()? {
                    0 => QuotaPolicy::Strict,
                    1 => QuotaPolicy::Elastic,
                    _ => return Err(DecodeError::Malformed("unknown quota policy tag")),
                },
            })
        })?,
    })
}

fn put_stats(buf: &mut Vec<u8>, s: &StatsReport) {
    put_str(buf, &s.label);
    put_varint(buf, s.tenants as u64);
    put_varint(buf, s.served as u64);
    put_varint(buf, s.cache_hits);
    put_varint(buf, s.cache_misses);
    put_f64(buf, s.hit_rate);
    put_varint(buf, s.faults);
    put_varint(buf, s.spilled_objects);
    put_byte_size(buf, s.spilled_bytes);
    put_varint(buf, s.spill_faults);
    put_vec(buf, &s.quota, put_quota_usage);
}

fn get_stats(r: &mut Reader<'_>) -> Result<StatsReport, DecodeError> {
    Ok(StatsReport {
        label: get_str(r)?,
        tenants: get_usize(r)?,
        served: get_usize(r)?,
        cache_hits: r.varint()?,
        cache_misses: r.varint()?,
        hit_rate: get_f64(r)?,
        faults: r.varint()?,
        spilled_objects: r.varint()?,
        spilled_bytes: get_byte_size(r)?,
        spill_faults: r.varint()?,
        quota: get_vec(r, get_quota_usage)?,
    })
}

fn put_api_error(buf: &mut Vec<u8>, e: &ApiError) {
    match e {
        ApiError::UnknownJob { job } => {
            buf.push(0);
            put_job(buf, *job);
        }
        ApiError::QuotaExceeded {
            job,
            budget,
            denied,
        } => {
            buf.push(1);
            put_job(buf, *job);
            put_byte_size(buf, *budget);
            put_varint(buf, *denied as u64);
        }
        ApiError::NoData { request } => {
            buf.push(2);
            put_varint(buf, request.as_u64());
        }
        ApiError::Store(StoreError::NotFound(key)) => {
            buf.push(3);
            buf.push(0);
            put_str(buf, key.as_str());
        }
        ApiError::Workload(WorkloadError::MissingInput { kind, what }) => {
            buf.push(4);
            buf.push(0);
            put_kind(buf, *kind);
            put_str(buf, what);
        }
        ApiError::Platform(p) => {
            buf.push(5);
            match p {
                PlatformError::UnknownFunction(id) => {
                    buf.push(0);
                    put_varint(buf, id.as_raw());
                }
                PlatformError::Function(FunctionError::OutOfMemory { id, need, free }) => {
                    buf.push(1);
                    buf.push(0);
                    put_varint(buf, id.as_raw());
                    put_byte_size(buf, *need);
                    put_byte_size(buf, *free);
                }
            }
        }
        ApiError::Overloaded { retry_after_hint } => {
            buf.push(6);
            put_sim_duration(buf, *retry_after_hint);
        }
        ApiError::Relocated {
            job,
            retry_after_hint,
        } => {
            buf.push(7);
            put_job(buf, *job);
            put_sim_duration(buf, *retry_after_hint);
        }
    }
}

fn get_api_error(r: &mut Reader<'_>) -> Result<ApiError, DecodeError> {
    Ok(match r.u8()? {
        0 => ApiError::UnknownJob { job: get_job(r)? },
        1 => ApiError::QuotaExceeded {
            job: get_job(r)?,
            budget: get_byte_size(r)?,
            denied: get_usize(r)?,
        },
        2 => ApiError::NoData {
            request: RequestId::new(r.varint()?),
        },
        3 => match r.u8()? {
            0 => ApiError::Store(StoreError::NotFound(ObjectKey::new(get_str(r)?))),
            _ => return Err(DecodeError::Malformed("unknown store error tag")),
        },
        4 => match r.u8()? {
            0 => {
                let kind = get_kind(r)?;
                let sent = get_str(r)?;
                // `what` is `&'static str` in-process; intern through the
                // documented closed set.
                let what = MISSING_INPUT_WHATS
                    .iter()
                    .find(|w| **w == sent)
                    .copied()
                    .ok_or(DecodeError::Malformed(
                        "unrecognized missing-input detail string",
                    ))?;
                ApiError::Workload(WorkloadError::MissingInput { kind, what })
            }
            _ => return Err(DecodeError::Malformed("unknown workload error tag")),
        },
        5 => match r.u8()? {
            0 => ApiError::Platform(PlatformError::UnknownFunction(FunctionId::from_raw(
                r.varint()?,
            ))),
            1 => match r.u8()? {
                0 => ApiError::Platform(PlatformError::Function(FunctionError::OutOfMemory {
                    id: FunctionId::from_raw(r.varint()?),
                    need: get_byte_size(r)?,
                    free: get_byte_size(r)?,
                })),
                _ => return Err(DecodeError::Malformed("unknown function error tag")),
            },
            _ => return Err(DecodeError::Malformed("unknown platform error tag")),
        },
        6 => ApiError::Overloaded {
            retry_after_hint: get_sim_duration(r)?,
        },
        7 => ApiError::Relocated {
            job: get_job(r)?,
            retry_after_hint: get_sim_duration(r)?,
        },
        _ => return Err(DecodeError::Malformed("unknown api error tag")),
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Encodes a response envelope, returning the frame tag and payload.
pub fn encode_response(response: &Response) -> (u8, Vec<u8>) {
    let mut buf = Vec::new();
    let tag = match response {
        Response::Ingested(receipt) => {
            put_varint(&mut buf, receipt.cached as u64);
            put_varint(&mut buf, receipt.evicted as u64);
            put_varint(&mut buf, receipt.backed_up as u64);
            put_varint(&mut buf, receipt.quota_denied as u64);
            TAG_INGESTED
        }
        Response::Served(served) => {
            put_served(&mut buf, served);
            TAG_SERVED
        }
        Response::Evicted { was_cached } => {
            put_bool(&mut buf, *was_cached);
            TAG_EVICTED
        }
        Response::Stats(stats) => {
            put_stats(&mut buf, stats);
            TAG_STATS_REPORT
        }
        Response::Rejected(e) => {
            put_api_error(&mut buf, e);
            TAG_REJECTED
        }
    };
    (tag, buf)
}

/// Decodes a response frame's payload. The whole payload must be
/// consumed ([`WireError::TrailingBytes`] otherwise).
pub fn decode_response(tag: u8, payload: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(payload);
    let response = match tag {
        TAG_INGESTED => Response::Ingested(IngestReceipt {
            cached: get_usize(&mut r)?,
            evicted: get_usize(&mut r)?,
            backed_up: get_usize(&mut r)?,
            quota_denied: get_usize(&mut r)?,
        }),
        TAG_SERVED => Response::Served(Box::new(get_served(&mut r)?)),
        TAG_EVICTED => Response::Evicted {
            was_cached: get_bool(&mut r)?,
        },
        TAG_STATS_REPORT => Response::Stats(get_stats(&mut r)?),
        TAG_REJECTED => Response::Rejected(get_api_error(&mut r)?),
        other => return Err(WireError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(response)
}
