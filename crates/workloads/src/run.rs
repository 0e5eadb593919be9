//! Dispatch: execute a request against fetched metadata.
//!
//! [`execute`] is storage-agnostic — FLStore invokes it *inside* the
//! function holding the data; the baselines invoke it on the aggregator VM
//! after fetching the same values across the network. Identical inputs,
//! identical outputs; only latency and cost differ.

use std::borrow::Borrow;
use std::error::Error;
use std::fmt;

use flstore_cloud::compute::WorkUnits;
use flstore_fl::aggregate::AggregateModel;
use flstore_fl::hyperparams::HyperParams;
use flstore_fl::metadata::{MetaValue, SharedValue};
use flstore_fl::metrics::RoundMetrics;
use flstore_fl::update::ModelUpdate;
use flstore_sim::bytes::ByteSize;

use crate::apps;
use crate::outputs::WorkloadOutput;
use crate::request::WorkloadRequest;
use crate::taxonomy::WorkloadKind;

/// Number of participants selected by scheduling workloads.
const SCHEDULE_K: usize = 10;

/// Failures while executing a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The fetched values did not contain the inputs the workload needs.
    MissingInput {
        /// Which workload.
        kind: WorkloadKind,
        /// What was missing.
        what: &'static str,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::MissingInput { kind, what } => {
                write!(f, "{kind} is missing required input: {what}")
            }
        }
    }
}

impl Error for WorkloadError {}

/// Result of executing a workload: the typed output plus the compute demand
/// and response size the serving system must account for.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadOutcome {
    /// The computed result.
    pub output: WorkloadOutput,
    /// Compute demand of the execution.
    pub work: WorkUnits,
    /// Size of the response returned to the requester.
    pub result_bytes: ByteSize,
}

struct SplitValues<'a> {
    updates: Vec<&'a ModelUpdate>,
    aggregates: Vec<&'a AggregateModel>,
    metrics: Vec<&'a RoundMetrics>,
    #[allow(dead_code)] // consumed by hyperparameter-tracking extensions
    hypers: Vec<&'a HyperParams>,
}

fn split<V: Borrow<MetaValue>>(values: &[V]) -> SplitValues<'_> {
    let mut s = SplitValues {
        updates: Vec::new(),
        aggregates: Vec::new(),
        metrics: Vec::new(),
        hypers: Vec::new(),
    };
    for v in values {
        match v.borrow() {
            MetaValue::Update(u) => s.updates.push(u),
            MetaValue::Aggregate(a) => s.aggregates.push(a),
            MetaValue::Metrics(m) => s.metrics.push(m),
            MetaValue::Hyper(h) => s.hypers.push(h),
        }
    }
    s.aggregates.sort_by_key(|a| a.round);
    s.metrics.sort_by_key(|m| m.round);
    s.hypers.sort_by_key(|h| h.round);
    s
}

fn missing(kind: WorkloadKind, what: &'static str) -> WorkloadError {
    WorkloadError::MissingInput { kind, what }
}

/// Executes `request` over the fetched `values`.
///
/// Generic over how the caller holds its metadata: plain `MetaValue`s
/// (baseline fetch-and-decode) and shared `Arc<MetaValue>` handles from a
/// decoded-value cache (`flstore_fl::decoded::DecodedCache`) both satisfy
/// `Borrow<MetaValue>`, so every serving system feeds the same dispatch
/// without copying or re-parsing.
///
/// `model_scale` is the job model's compute scale
/// ([`flstore_fl::zoo::ModelArch::compute_scale`]); randomized workloads
/// derive their seed from the request id, so identical requests produce
/// identical results.
///
/// # Errors
///
/// Returns [`WorkloadError::MissingInput`] when `values` lacks the inputs
/// Table 1 prescribes for the workload class.
pub fn execute<V: Borrow<MetaValue>>(
    request: &WorkloadRequest,
    values: &[V],
    model_scale: f64,
) -> Result<WorkloadOutcome, WorkloadError> {
    let s = split(values);
    validate(request, &s)?;
    let output = run_kernel(request, &s);
    let work = request.kind.work_units(values.len(), model_scale);
    let result_bytes = output.result_bytes();
    Ok(WorkloadOutcome {
        output,
        work,
        result_bytes,
    })
}

fn round_aggregate<'a>(
    s: &SplitValues<'a>,
    request: &WorkloadRequest,
) -> Option<&'a AggregateModel> {
    s.aggregates
        .iter()
        .find(|a| a.round == request.round)
        .or_else(|| s.aggregates.last())
        .copied()
}

/// Checks `request`'s input contract against the split values without
/// running the kernel.
///
/// This is the cheap half of [`execute`]: every emptiness / presence
/// condition under which a kernel would decline to run, and nothing
/// else. [`execute`] is literally `validate` followed by [`run_kernel`],
/// so a mismatch between the two cannot hide: too strict fails the
/// end-to-end tests with an error, too lax panics in `run_kernel`.
fn validate(request: &WorkloadRequest, s: &SplitValues<'_>) -> Result<(), WorkloadError> {
    let kind = request.kind;
    match kind {
        WorkloadKind::CosineSimilarity | WorkloadKind::Incentives => {
            if round_aggregate(s, request).is_none() {
                return Err(missing(kind, "round aggregate"));
            }
            if s.updates.is_empty() {
                return Err(missing(kind, "round updates"));
            }
        }
        WorkloadKind::MaliciousFiltering
        | WorkloadKind::Clustering
        | WorkloadKind::Personalized
        | WorkloadKind::SchedulingCluster => {
            if s.updates.is_empty() {
                return Err(missing(kind, "round updates"));
            }
        }
        WorkloadKind::SchedulingPerf => {
            if s.metrics.is_empty() {
                return Err(missing(kind, "round metrics window"));
            }
        }
        WorkloadKind::ReputationCalc | WorkloadKind::Debugging => {
            let client = request
                .client
                .ok_or_else(|| missing(kind, "target client"))?;
            // The P3 kernels trace one client across rounds; an update only
            // contributes when its round also has an aggregate to score
            // against, so the trace is empty exactly when no such pair
            // exists.
            let traceable = s
                .updates
                .iter()
                .any(|u| u.client == client && s.aggregates.iter().any(|a| a.round == u.round));
            if !traceable {
                return Err(missing(kind, "client updates across rounds"));
            }
        }
        WorkloadKind::Inference => {
            let weights_present = round_aggregate(s, request)
                .map(|agg| !agg.weights.is_empty())
                .unwrap_or(false);
            if !weights_present {
                return Err(missing(kind, "aggregated model"));
            }
        }
    }
    Ok(())
}

/// Runs the kernel for `request` over values that already passed
/// [`validate`].
///
/// # Panics
///
/// Panics if a kernel declines inputs that `validate` admitted — that is a
/// contract bug between the two halves, never a data error.
fn run_kernel(request: &WorkloadRequest, s: &SplitValues<'_>) -> WorkloadOutput {
    const CONTRACT: &str = "validate() admitted inputs the kernel rejected";
    let kind = request.kind;
    let seed = request.id.as_u64();
    match kind {
        WorkloadKind::CosineSimilarity => {
            let agg = round_aggregate(s, request).expect(CONTRACT);
            apps::cosine::run(&s.updates, agg)
                .map(WorkloadOutput::Cosine)
                .expect(CONTRACT)
        }
        WorkloadKind::MaliciousFiltering => apps::filtering::run(&s.updates)
            .map(WorkloadOutput::Filtering)
            .expect(CONTRACT),
        WorkloadKind::Clustering => {
            apps::clustering::run(&s.updates, apps::clustering::DEFAULT_K, seed)
                .map(WorkloadOutput::Clustering)
                .expect(CONTRACT)
        }
        WorkloadKind::Personalized => {
            apps::personalization::run(&s.updates, apps::clustering::DEFAULT_K, seed)
                .map(WorkloadOutput::Personalization)
                .expect(CONTRACT)
        }
        WorkloadKind::SchedulingCluster => apps::sched_cluster::run(&s.updates)
            .map(WorkloadOutput::SchedCluster)
            .expect(CONTRACT),
        WorkloadKind::Incentives => {
            let agg = round_aggregate(s, request).expect(CONTRACT);
            apps::incentives::run(&s.updates, agg)
                .map(WorkloadOutput::Incentives)
                .expect(CONTRACT)
        }
        WorkloadKind::SchedulingPerf => apps::sched_perf::run(&s.metrics, SCHEDULE_K)
            .map(WorkloadOutput::SchedPerf)
            .expect(CONTRACT),
        WorkloadKind::ReputationCalc => {
            let client = request.client.expect(CONTRACT);
            apps::reputation::run(client, &s.updates, &s.aggregates)
                .map(WorkloadOutput::Reputation)
                .expect(CONTRACT)
        }
        WorkloadKind::Debugging => {
            let client = request.client.expect(CONTRACT);
            apps::debugging::run(client, &s.updates, &s.aggregates)
                .map(WorkloadOutput::Debugging)
                .expect(CONTRACT)
        }
        WorkloadKind::Inference => {
            let agg = round_aggregate(s, request).expect(CONTRACT);
            apps::inference::run(agg, apps::inference::DEFAULT_BATCH, seed)
                .map(WorkloadOutput::Inference)
                .expect(CONTRACT)
        }
    }
}

/// A validated, not-yet-computed execution: the expensive kernel half of
/// [`execute`], detached from the serving thread.
///
/// [`prepare`] performs exactly the input validation and work-unit
/// accounting of [`execute`]; the returned task owns `Arc` handles to its
/// inputs and is `Send`, so a work-stealing worker can run [`compute`]
/// (the pure kernel) on any thread and obtain bit-for-bit the outcome the
/// serving thread would have produced inline.
///
/// [`compute`]: PreparedExecute::compute
#[derive(Debug, Clone)]
pub struct PreparedExecute {
    request: WorkloadRequest,
    values: Vec<SharedValue>,
    work: WorkUnits,
}

impl PreparedExecute {
    /// Compute demand of the pending execution (known at prepare time —
    /// the serving system bills it before the kernel runs).
    pub fn work(&self) -> WorkUnits {
        self.work
    }

    /// Runs the kernel. Pure: no shared state, deterministic in the
    /// request id, identical to the inline [`execute`] result.
    pub fn compute(&self) -> WorkloadOutcome {
        let s = split(&self.values);
        debug_assert!(validate(&self.request, &s).is_ok(), "prepare() validated");
        let output = run_kernel(&self.request, &s);
        let result_bytes = output.result_bytes();
        WorkloadOutcome {
            output,
            work: self.work,
            result_bytes,
        }
    }
}

/// Validates `request` against owned `values` and packages the deferred
/// kernel execution.
///
/// # Errors
///
/// Returns exactly the [`WorkloadError::MissingInput`] that [`execute`]
/// would: both are the same `validate` pass over the same split.
pub fn prepare(
    request: &WorkloadRequest,
    values: Vec<SharedValue>,
    model_scale: f64,
) -> Result<PreparedExecute, WorkloadError> {
    let s = split(&values);
    validate(request, &s)?;
    let work = request.kind.work_units(values.len(), model_scale);
    drop(s);
    Ok(PreparedExecute {
        request: *request,
        values,
        work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{JobCatalog, RequestId};
    use crate::testutil::{lookup, sample_rounds};
    use flstore_fl::ids::JobId;
    use flstore_fl::zoo::ModelArch;

    fn values_for(
        kind: WorkloadKind,
        records: &[flstore_fl::job::RoundRecord],
    ) -> (WorkloadRequest, Vec<MetaValue>) {
        let job = JobId::new(1);
        let mut catalog = JobCatalog::new(job, ModelArch::RESNET18);
        for r in records {
            catalog.observe_round(r);
        }
        let last = records.last().expect("rounds");
        let client = match kind.policy_class() {
            crate::taxonomy::PolicyClass::P3AcrossRounds => Some(last.updates[0].client),
            _ => None,
        };
        let request = WorkloadRequest::new(RequestId::new(7), kind, job, last.round, client);
        let keys = catalog.data_needs(&request);
        let values = keys.iter().filter_map(|k| lookup(records, k)).collect();
        (request, values)
    }

    #[test]
    fn every_workload_executes_end_to_end() {
        let records = sample_rounds(12, 0.2);
        for kind in WorkloadKind::ALL {
            let (request, values) = values_for(kind, &records);
            let outcome =
                execute(&request, &values, 1.0).unwrap_or_else(|e| panic!("{kind} failed: {e}"));
            assert!(outcome.work.as_ref_seconds() > 0.0, "{kind} has zero work");
            assert!(outcome.result_bytes > ByteSize::ZERO);
        }
    }

    #[test]
    fn outputs_match_requested_kind() {
        let records = sample_rounds(12, 0.0);
        let (req, vals) = values_for(WorkloadKind::Clustering, &records);
        let out = execute(&req, &vals, 1.0).expect("ok");
        assert!(matches!(out.output, WorkloadOutput::Clustering(_)));

        let (req, vals) = values_for(WorkloadKind::SchedulingPerf, &records);
        let out = execute(&req, &vals, 1.0).expect("ok");
        assert!(matches!(out.output, WorkloadOutput::SchedPerf(_)));
    }

    #[test]
    fn empty_values_error_cleanly() {
        let records = sample_rounds(3, 0.0);
        let (request, _) = values_for(WorkloadKind::MaliciousFiltering, &records);
        let err = execute::<MetaValue>(&request, &[], 1.0).unwrap_err();
        assert!(matches!(err, WorkloadError::MissingInput { .. }));
        assert!(err.to_string().contains("Malicious Filtering"));
    }

    #[test]
    fn execution_is_deterministic() {
        let records = sample_rounds(10, 0.1);
        let (request, values) = values_for(WorkloadKind::Clustering, &records);
        let a = execute(&request, &values, 1.0).expect("ok");
        let b = execute(&request, &values, 1.0).expect("ok");
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn work_scales_with_model() {
        let records = sample_rounds(5, 0.0);
        let (request, values) = values_for(WorkloadKind::MaliciousFiltering, &records);
        let small = execute(&request, &values, 0.2).expect("ok");
        let large = execute(&request, &values, 2.0).expect("ok");
        assert!(large.work.as_ref_seconds() > small.work.as_ref_seconds());
    }

    fn shared(values: &[MetaValue]) -> Vec<SharedValue> {
        values.iter().cloned().map(std::sync::Arc::new).collect()
    }

    #[test]
    fn prepare_then_compute_matches_inline_execute_for_every_kind() {
        let records = sample_rounds(12, 0.2);
        for kind in WorkloadKind::ALL {
            let (request, values) = values_for(kind, &records);
            let inline = execute(&request, &values, 1.0).expect("inline");
            let task = prepare(&request, shared(&values), 1.0).expect("prepare");
            assert_eq!(task.work(), inline.work, "{kind} work at prepare time");
            let deferred = task.compute();
            assert_eq!(deferred, inline, "{kind} deferred != inline");
            // Recompute is pure: same task, same outcome.
            assert_eq!(task.compute(), inline, "{kind} recompute drifted");
        }
    }

    #[test]
    fn prepare_rejects_exactly_like_execute() {
        let records = sample_rounds(3, 0.0);
        // Degenerate shapes per failure class: empty values for everyone,
        // plus a client-less P3 request and an aggregate-less trace.
        for kind in WorkloadKind::ALL {
            let (request, _) = values_for(kind, &records);
            let inline = execute::<MetaValue>(&request, &[], 1.0).unwrap_err();
            let deferred = prepare(&request, Vec::new(), 1.0).unwrap_err();
            assert_eq!(inline, deferred, "{kind} empty-values error drifted");
        }
        let (request, values) = values_for(WorkloadKind::Debugging, &records);
        // A client whose rounds never have a matching aggregate: strip the
        // aggregates so the P3 trace is empty.
        let updates_only: Vec<MetaValue> = values
            .iter()
            .filter(|v| matches!(v, MetaValue::Update(_)))
            .cloned()
            .collect();
        let inline = execute(&request, &updates_only, 1.0).unwrap_err();
        let deferred = prepare(&request, shared(&updates_only), 1.0).unwrap_err();
        assert_eq!(inline, deferred);
        assert!(inline.to_string().contains("across rounds"));
    }

    #[test]
    fn prepared_execute_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<PreparedExecute>();
    }
}
