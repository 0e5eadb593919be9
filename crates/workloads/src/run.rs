//! Dispatch: execute a request against fetched metadata.
//!
//! [`execute`] is storage-agnostic — FLStore invokes it *inside* the
//! function holding the data; the baselines invoke it on the aggregator VM
//! after fetching the same values across the network. Identical inputs,
//! identical outputs; only latency and cost differ.

use std::borrow::Borrow;
use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock, Weak};

use flstore_cloud::compute::WorkUnits;
use flstore_fl::aggregate::AggregateModel;
use flstore_fl::hyperparams::HyperParams;
use flstore_fl::ids::{ClientId, Round};
use flstore_fl::metadata::{MetaValue, SharedValue};
use flstore_fl::metrics::RoundMetrics;
use flstore_fl::update::ModelUpdate;
use flstore_fl::weights::WeightVector;
use flstore_sim::bytes::ByteSize;

use crate::algorithms::PointSet;
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
    let output = run_kernel(request, &s, None);
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

/// Whether `kind`'s kernel reads `request.id` (as its random seed).
///
/// Every other kernel's output is a function of the kind, the round, the
/// client and the values alone, which is what lets [`OutputMemo`] hand
/// one serve's output to another. `run_kernel` must read the seed for
/// these kinds only; the seed-rule tests pin that both ways. A seeded
/// kind may still share what its kernel derives before the seed is
/// read ([`shares_inputs`]), never its output.
fn reads_seed(kind: WorkloadKind) -> bool {
    matches!(
        kind,
        WorkloadKind::Clustering | WorkloadKind::Personalized | WorkloadKind::Inference
    )
}

/// Whether `kind` is a seeded kind whose kernel derives [`RoundInputs`]
/// from its values before it reads the seed. Inference has none: its
/// cost is its per-seed draws.
fn shares_inputs(kind: WorkloadKind) -> bool {
    matches!(kind, WorkloadKind::Clustering | WorkloadKind::Personalized)
}

/// What a seeded kernel derives from its round without its seed: for
/// clustering, the updates' k-means [`PointSet`]; for personalization,
/// its features and their point set. Derived copies only: no
/// `Arc<MetaValue>` is held.
#[derive(Debug)]
enum RoundInputs {
    Clustering(PointSet),
    Personalized(apps::personalization::Features),
}

impl RoundInputs {
    fn derive(kind: WorkloadKind, s: &SplitValues<'_>) -> Self {
        match kind {
            WorkloadKind::Clustering => {
                let weights: Vec<&WeightVector> = s.updates.iter().map(|u| &u.weights).collect();
                RoundInputs::Clustering(PointSet::new(&weights))
            }
            WorkloadKind::Personalized => {
                RoundInputs::Personalized(apps::personalization::Features::new(&s.updates))
            }
            _ => unreachable!("{kind} derives no round inputs"),
        }
    }
}

/// Runs the kernel for `request` over values that already passed
/// [`validate`], on the shared `inputs` when the task has them.
///
/// # Panics
///
/// Panics if a kernel declines inputs that `validate` admitted — that is a
/// contract bug between the two halves, never a data error.
fn run_kernel(
    request: &WorkloadRequest,
    s: &SplitValues<'_>,
    inputs: Option<&RoundInputs>,
) -> WorkloadOutput {
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
            let k = apps::clustering::DEFAULT_K;
            match inputs {
                Some(RoundInputs::Clustering(points)) => {
                    apps::clustering::run_on(points, &s.updates, k, seed)
                }
                _ => apps::clustering::run(&s.updates, k, seed),
            }
            .map(WorkloadOutput::Clustering)
            .expect(CONTRACT)
        }
        WorkloadKind::Personalized => {
            let k = apps::clustering::DEFAULT_K;
            match inputs {
                Some(RoundInputs::Personalized(features)) => {
                    apps::personalization::run_on(features, &s.updates, k, seed)
                }
                _ => apps::personalization::run(&s.updates, k, seed),
            }
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
/// A task attached to an [`OutputMemo`] slot shares its kernel output
/// with every other task on that slot: the first to finish fills it, and
/// the rest clone it instead of running the kernel. A clustering or
/// personalization task gets an inputs slot instead: the first to run
/// derives its round's seed-free inputs into it, and every task on the
/// slot runs its own seeded kernel on them.
///
/// [`compute`]: PreparedExecute::compute
#[derive(Debug, Clone)]
pub struct PreparedExecute {
    request: WorkloadRequest,
    values: Vec<SharedValue>,
    work: WorkUnits,
    shared: Option<Arc<OnceLock<WorkloadOutput>>>,
    inputs: Option<Arc<OnceLock<RoundInputs>>>,
}

impl PreparedExecute {
    /// Compute demand of the pending execution (known at prepare time —
    /// the serving system bills it before the kernel runs).
    pub fn work(&self) -> WorkUnits {
        self.work
    }

    /// Runs the kernel, or clones the output of the task that already
    /// ran it on this task's shared slot. Deterministic in the request
    /// id, identical to the inline [`execute`] result.
    ///
    /// Never waits on another thread: a task whose slot is still empty
    /// runs the kernel itself (or derives the inputs itself), so two
    /// racing tasks both run it and get the same bytes.
    pub fn compute(&self) -> WorkloadOutcome {
        let output = match &self.shared {
            Some(slot) => fill_once(slot, || self.run()).clone(),
            None => self.run(),
        };
        let result_bytes = output.result_bytes();
        WorkloadOutcome {
            output,
            work: self.work,
            result_bytes,
        }
    }

    fn run(&self) -> WorkloadOutput {
        KERNEL_RUNS.with(|runs| runs.set(runs.get() + 1));
        let s = split(&self.values);
        debug_assert!(validate(&self.request, &s).is_ok(), "prepare() validated");
        let kind = self.request.kind;
        let inputs = self
            .inputs
            .as_ref()
            .map(|slot| fill_once(slot, || RoundInputs::derive(kind, &s)));
        run_kernel(&self.request, &s, inputs)
    }
}

/// `slot`'s value, made by `make` and set first when the slot is empty.
/// Never waits for another thread to make it: two threads that find the
/// slot empty both make a value, and the one set first is kept.
pub(crate) fn fill_once<T>(slot: &OnceLock<T>, make: impl FnOnce() -> T) -> &T {
    if let Some(value) = slot.get() {
        return value;
    }
    let _ = slot.set(make());
    slot.get().expect("the slot was just filled")
}

thread_local! {
    static KERNEL_RUNS: Cell<u64> = const { Cell::new(0) };
    static DISTANCE_PASSES: Cell<u64> = const { Cell::new(0) };
}

/// Kernels [`PreparedExecute::compute`] has run on the calling thread: a
/// task finished from a filled memo slot, or dropped unfinished, runs
/// none.
pub fn kernel_runs_on_this_thread() -> u64 {
    KERNEL_RUNS.with(Cell::get)
}

pub(crate) fn count_distance_pass() {
    DISTANCE_PASSES.with(|passes| passes.set(passes.get() + 1));
}

/// k-means distance passes (one [`RowPanels`] distance pass over every
/// point) run on the calling thread, whether to fill a shared point
/// set's row or to measure a moved centroid.
///
/// [`RowPanels`]: flstore_fl::weights::RowPanels
pub fn distance_passes_on_this_thread() -> u64 {
    DISTANCE_PASSES.with(Cell::get)
}

/// Validates `request` against owned `values` and packages the deferred
/// kernel execution. The task is unshared: [`OutputMemo::attach`] is the
/// only way to give it a slot.
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
        shared: None,
        inputs: None,
    })
}

/// Hands tasks that would read the same values one shared output slot,
/// or for clustering and personalization one shared inputs slot.
///
/// Holds at most one output entry per seed-free [`WorkloadKind`], and one
/// inputs entry each for clustering and personalization: the newest task
/// of that kind, as its round, its client, its ordered input values and
/// its slot. A task matches the entry when the round and client are
/// equal and each value is the *same allocation* as the entry's,
/// compared by pointer through a [`Weak`]. A value that is decoded again
/// — after an eviction, a re-ingest, a spill fault-back, or on every
/// uncached miss — is a new `Arc`, so the entry misses and the next task
/// takes a fresh slot. The `Weak`s keep no value alive, and an address
/// cannot be reused while a `Weak` still points at it.
///
/// The kinds whose kernels read the request id as their seed
/// (clustering, personalization, inference) never share an output.
/// Clustering and personalization share what their kernels derive before
/// they read the seed: the round's k-means [`PointSet`], and
/// personalization's features with theirs. These are derived copies that
/// hold no value. Per memo that is at most one packed copy of a round's
/// updates with `n²` distances, plus one round's features, their packed
/// copy and `n²` distances: about 2.3 MiB at 48 × 4096. An entry is held
/// until a task of its kind on other values replaces it and the last
/// task on the old slot is dropped.
#[derive(Debug, Default)]
pub struct OutputMemo {
    outputs: [Option<MemoEntry<WorkloadOutput>>; WorkloadKind::ALL.len()],
    inputs: [Option<MemoEntry<RoundInputs>>; WorkloadKind::ALL.len()],
    stats: MemoStats,
    input_stats: MemoStats,
}

#[derive(Debug)]
struct MemoEntry<T> {
    round: Round,
    client: Option<ClientId>,
    values: Vec<Weak<MetaValue>>,
    slot: Arc<OnceLock<T>>,
}

impl<T> MemoEntry<T> {
    fn matches(&self, task: &PreparedExecute) -> bool {
        self.round == task.request.round
            && self.client == task.request.client
            && self.values.len() == task.values.len()
            && self
                .values
                .iter()
                .zip(&task.values)
                .all(|(held, value)| std::ptr::eq(held.as_ptr(), Arc::as_ptr(value)))
    }
}

/// `entry`'s slot when `task` reads the same values, or a fresh slot that
/// replaces the entry otherwise, counted in `stats`.
fn join<T>(
    entry: &mut Option<MemoEntry<T>>,
    stats: &mut MemoStats,
    task: &PreparedExecute,
) -> Arc<OnceLock<T>> {
    if let Some(held) = entry.as_ref().filter(|held| held.matches(task)) {
        stats.shared += 1;
        return held.slot.clone();
    }
    let slot = Arc::new(OnceLock::new());
    *entry = Some(MemoEntry {
        round: task.request.round,
        client: task.request.client,
        values: task.values.iter().map(Arc::downgrade).collect(),
        slot: slot.clone(),
    });
    stats.attached += 1;
    slot
}

/// [`OutputMemo`] operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Tasks that missed the memo and got a fresh slot.
    pub attached: u64,
    /// Tasks that joined an earlier task's slot.
    pub shared: u64,
}

impl OutputMemo {
    /// Gives `task` the slot of the memo's entry for its kind when the
    /// task reads the same values, or a fresh slot that replaces the
    /// entry otherwise: an output slot for a seed-free kind, an inputs
    /// slot for clustering and personalization. Inference tasks are left
    /// unshared.
    pub fn attach(&mut self, task: &mut PreparedExecute) {
        let kind = task.request.kind;
        let at = kind as usize;
        if !reads_seed(kind) {
            task.shared = Some(join(&mut self.outputs[at], &mut self.stats, task));
        } else if shares_inputs(kind) {
            task.inputs = Some(join(&mut self.inputs[at], &mut self.input_stats, task));
        }
    }

    /// Output entries held: at most one per seed-free kind.
    pub fn len(&self) -> usize {
        self.outputs.iter().flatten().count()
    }

    /// True when no output entry is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Output attach counters since the memo was created.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Inputs entries held: at most one each for clustering and
    /// personalization.
    pub fn inputs_len(&self) -> usize {
        self.inputs.iter().flatten().count()
    }

    /// Inputs attach counters since the memo was created.
    pub fn input_stats(&self) -> MemoStats {
        self.input_stats
    }
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

    fn with_id(request: &WorkloadRequest, id: u64) -> WorkloadRequest {
        WorkloadRequest {
            id: RequestId::new(id),
            ..*request
        }
    }

    #[test]
    fn only_the_seeded_kinds_read_the_request_id() {
        let records = sample_rounds(12, 0.2);
        for kind in WorkloadKind::ALL {
            let (request, values) = values_for(kind, &records);
            let a = execute(&with_id(&request, 7), &values, 1.0).expect("id 7");
            let b = execute(&with_id(&request, 8), &values, 1.0).expect("id 8");
            if reads_seed(kind) {
                assert_ne!(a.output, b.output, "{kind} ignored its seed");
            } else {
                assert_eq!(a.output, b.output, "{kind} reads the request id");
            }
        }
    }

    #[test]
    fn prepare_returns_an_unshared_task() {
        let records = sample_rounds(12, 0.2);
        for kind in WorkloadKind::ALL {
            let (request, values) = values_for(kind, &records);
            let task = prepare(&request, shared(&values), 1.0).expect("prepare");
            assert!(task.shared.is_none(), "{kind} task came with a slot");
        }
    }

    #[test]
    fn a_follower_with_an_empty_slot_computes_itself() {
        let records = sample_rounds(12, 0.2);
        for kind in WorkloadKind::ALL {
            let (request, values) = values_for(kind, &records);
            let inline = execute(&request, &values, 1.0).expect("inline");
            let values = shared(&values);
            let mut memo = OutputMemo::default();
            let mut leader = prepare(&request, values.clone(), 1.0).expect("leader");
            let mut follower = prepare(&with_id(&request, 8), values, 1.0).expect("follower");
            memo.attach(&mut leader);
            memo.attach(&mut follower);
            let seeded = reads_seed(kind);
            let expected = MemoStats {
                attached: u64::from(!seeded),
                shared: u64::from(!seeded),
            };
            assert_eq!(memo.stats(), expected, "{kind} attach counts");
            assert_eq!(memo.len(), usize::from(!seeded));
            // The follower runs first and finds the slot empty.
            let follower_out = follower.compute();
            let follower_inline =
                execute(&with_id(&request, 8), &follower.values, 1.0).expect("inline");
            assert_eq!(follower_out, follower_inline, "{kind} follower");
            assert_eq!(leader.compute(), inline, "{kind} leader");
        }
    }

    #[test]
    fn equal_values_in_new_allocations_take_a_fresh_slot() {
        let records = sample_rounds(12, 0.2);
        let (request, values) = values_for(WorkloadKind::MaliciousFiltering, &records);
        let mut memo = OutputMemo::default();
        let mut first = prepare(&request, shared(&values), 1.0).expect("first");
        let mut redecoded = prepare(&request, shared(&values), 1.0).expect("redecoded");
        memo.attach(&mut first);
        memo.attach(&mut redecoded);
        assert_eq!(
            memo.stats(),
            MemoStats {
                attached: 2,
                shared: 0
            }
        );
        assert_eq!(memo.len(), 1, "one entry per kind");
        assert!(!Arc::ptr_eq(
            first.shared.as_ref().expect("slot"),
            redecoded.shared.as_ref().expect("slot")
        ));
        assert_eq!(first.compute(), redecoded.compute());
    }

    #[test]
    fn prepared_execute_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<PreparedExecute>();
    }
}
