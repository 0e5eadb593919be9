//! Wrappers defined in the benchmark around the program's public traits.
//!
//! None of them changes a response byte: each delegates to the wrapped
//! value and records a span (or a counter) around the call. The untraced
//! pass uses only [`Handback`], which records nothing — it exists so the
//! deployment can be inspected (digest, cluster counters) after
//! `NetServer` drops the `Service` it owned.

use std::fmt;
use std::sync::mpsc;

use flstore_core::api::{DeferredResponse, Request, Response, Service};
use flstore_core::durable::{LedgerEvent, RecordSink, SpillBackend, StateDigest};
use flstore_core::engine::CacheEngine;
use flstore_core::policy::{CachingPolicy, PolicyActions};
use flstore_core::quota::QuotaUsage;
use flstore_core::store::FlStore;
use flstore_exec::ShardUnit;
use flstore_fl::ids::JobId;
use flstore_fl::metadata::MetaKey;
use flstore_sim::bytes::ByteSize;
use flstore_sim::cost::{Cost, CostBreakdown};
use flstore_sim::time::SimTime;
use flstore_workloads::request::{JobCatalog, WorkloadRequest};

use crate::clock::now_ns;
use crate::spans::{Level, Recorder};

/// The request identifier spans of one envelope share: a serve's
/// `RequestId`, an ingest's round, 0 otherwise.
pub fn request_ident(request: &Request) -> u64 {
    match request {
        Request::Serve(serve) => serve.id.as_u64(),
        Request::Ingest { record, .. } => u64::from(record.round.as_u32()),
        Request::Evict(_) | Request::Stats => 0,
    }
}

/// Returns the wrapped service through a channel when the server drops
/// it. Pure delegation otherwise.
pub struct Handback<S: Service + Send> {
    inner: Option<S>,
    back: mpsc::Sender<S>,
}

impl<S: Service + Send> Handback<S> {
    /// Wraps `inner`; the receiver yields it after the owner drops the
    /// wrapper (for `NetServer`, after `shutdown`).
    pub fn new(inner: S) -> (Self, mpsc::Receiver<S>) {
        let (back, rx) = mpsc::channel();
        (
            Handback {
                inner: Some(inner),
                back,
            },
            rx,
        )
    }

    fn inner(&mut self) -> &mut S {
        self.inner.as_mut().expect("present until drop")
    }
}

impl<S: Service + Send> Drop for Handback<S> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            // The receiver may be gone (set-up repetitions discard it).
            let _ = self.back.send(inner);
        }
    }
}

impl<S: Service + Send> Service for Handback<S> {
    fn label(&self) -> String {
        self.inner.as_ref().expect("present until drop").label()
    }
    fn submit(&mut self, now: SimTime, request: Request) -> Response {
        self.inner().submit(now, request)
    }
    fn submit_batch(&mut self, now: SimTime, requests: &[Request]) -> Vec<Response> {
        self.inner().submit_batch(now, requests)
    }
    fn window_cost(&mut self, now: SimTime) -> CostBreakdown {
        self.inner().window_cost(now)
    }
    fn infra_cost(&mut self, now: SimTime) -> Cost {
        self.inner().infra_cost(now)
    }
}

/// What the engine thread saw, batch by batch: the join key between the
/// client's per-attempt records and the server side. One connection is
/// answered strictly in submission order, so the `k`-th envelope the
/// service receives is the `k`-th frame the client wrote.
#[derive(Debug, Default, Clone)]
pub struct BatchLog {
    /// `(first envelope sequence number, envelopes, start_ns, end_ns)`.
    pub batches: Vec<(u64, u32, u64, u64)>,
}

impl BatchLog {
    /// Mean envelopes per `submit_batch` call.
    pub fn mean_batch(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        let envelopes: u64 = self.batches.iter().map(|b| u64::from(b.1)).sum();
        envelopes as f64 / self.batches.len() as f64
    }
}

/// Spans every call into the `Service` handed to `NetServer` and logs
/// the batches. `name` carries the layer the service belongs to
/// (`exec.submit_batch`, `cluster.submit_batch`).
pub struct TracedService<S: Service + Send> {
    inner: S,
    name: &'static str,
    rec: Recorder,
    seq: u64,
    log: BatchLog,
}

impl<S: Service + Send> TracedService<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, name: &'static str, rec: Recorder) -> Self {
        TracedService {
            inner,
            name,
            rec,
            seq: 0,
            log: BatchLog::default(),
        }
    }

    /// The wrapped service and the batch log; the recorder flushes.
    pub fn into_parts(self) -> (S, BatchLog) {
        (self.inner, self.log)
    }
}

impl<S: Service + Send> Service for TracedService<S> {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn submit(&mut self, now: SimTime, request: Request) -> Response {
        self.submit_batch(now, std::slice::from_ref(&request))
            .pop()
            .expect("one response per envelope")
    }
    fn submit_batch(&mut self, now: SimTime, requests: &[Request]) -> Vec<Response> {
        let open = self.rec.enter(Level::Service);
        let start = now_ns();
        let responses = self.inner.submit_batch(now, requests);
        let end = now_ns();
        self.rec.exit(open, self.name, self.seq);
        self.log
            .batches
            .push((self.seq, requests.len() as u32, start, end));
        self.seq += requests.len() as u64;
        responses
    }
    fn window_cost(&mut self, now: SimTime) -> CostBreakdown {
        self.inner.window_cost(now)
    }
    fn infra_cost(&mut self, now: SimTime) -> Cost {
        self.inner.infra_cost(now)
    }
}

/// A bare [`FlStore`] behind the server, split at the seam the store
/// itself exposes: `submit_batch` *is* `submit_batch_deferred` followed
/// by finishing every pending kernel in order, so timing the two halves
/// separately attributes bookkeeping to `core` and kernels to
/// `workloads` without changing what runs.
pub struct TracedStore {
    inner: FlStore,
    rec: Recorder,
    seq: u64,
    log: BatchLog,
}

impl TracedStore {
    /// Wraps `inner`.
    pub fn new(inner: FlStore, rec: Recorder) -> Self {
        TracedStore {
            inner,
            rec,
            seq: 0,
            log: BatchLog::default(),
        }
    }

    /// The wrapped store and the batch log; the recorder flushes.
    pub fn into_parts(self) -> (FlStore, BatchLog) {
        (self.inner, self.log)
    }
}

impl Service for TracedStore {
    fn label(&self) -> String {
        Service::label(&self.inner)
    }
    fn submit(&mut self, now: SimTime, request: Request) -> Response {
        self.submit_batch(now, std::slice::from_ref(&request))
            .pop()
            .expect("one response per envelope")
    }
    fn submit_batch(&mut self, now: SimTime, requests: &[Request]) -> Vec<Response> {
        let open = self.rec.enter(Level::Service);
        let start = now_ns();
        let deferred = self.inner.submit_batch_deferred(now, requests);
        let mut responses = Vec::with_capacity(deferred.len());
        for (slot, request) in deferred.into_iter().zip(requests) {
            responses.push(match slot {
                DeferredResponse::Ready(response) => response,
                pending @ DeferredResponse::Pending(_) => {
                    let kernel = self.rec.enter(Level::Inner);
                    let response = pending.finish();
                    self.rec
                        .exit(kernel, "workloads.kernel", request_ident(request));
                    response
                }
            });
        }
        let end = now_ns();
        // A lone ingest gets its own name so the write path's share of
        // `core` can be read off the trace.
        let name = match requests {
            [Request::Ingest { .. }] => "core.ingest",
            _ => "core.submit_batch",
        };
        self.rec.exit(open, name, self.seq);
        self.log
            .batches
            .push((self.seq, requests.len() as u32, start, end));
        self.seq += requests.len() as u64;
        responses
    }
    fn window_cost(&mut self, now: SimTime) -> CostBreakdown {
        self.inner.window_cost(now)
    }
    fn infra_cost(&mut self, now: SimTime) -> Cost {
        Service::infra_cost(&mut self.inner, now)
    }
}

/// Spans the calls a `ShardedExecutor` makes into one of its units. The
/// deferred kernels it hands back are finished by executor workers and
/// are not visible from here; what is visible is the unit's share of the
/// executor's span.
pub struct TracedUnit<U: ShardUnit> {
    inner: U,
    rec: Recorder,
}

impl<U: ShardUnit> TracedUnit<U> {
    /// Wraps `inner`.
    pub fn new(inner: U, rec: Recorder) -> Self {
        TracedUnit { inner, rec }
    }

    /// The wrapped unit; the recorder flushes.
    pub fn into_inner(self) -> U {
        self.inner
    }
}

impl<U: ShardUnit> Service for TracedUnit<U> {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn submit(&mut self, now: SimTime, request: Request) -> Response {
        let open = self.rec.enter(Level::Unit);
        let ident = request_ident(&request);
        let response = self.inner.submit(now, request);
        self.rec.exit(open, "core.unit_submit", ident);
        response
    }
    fn submit_batch(&mut self, now: SimTime, requests: &[Request]) -> Vec<Response> {
        let open = self.rec.enter(Level::Unit);
        let responses = self.inner.submit_batch(now, requests);
        let ident = requests.first().map(request_ident).unwrap_or(0);
        self.rec.exit(open, "core.unit_submit_batch", ident);
        responses
    }
    fn window_cost(&mut self, now: SimTime) -> CostBreakdown {
        self.inner.window_cost(now)
    }
    fn infra_cost(&mut self, now: SimTime) -> Cost {
        self.inner.infra_cost(now)
    }
}

impl<U: ShardUnit> ShardUnit for TracedUnit<U> {
    fn owned_job(&self) -> JobId {
        self.inner.owned_job()
    }
    fn quota_usage(&self) -> QuotaUsage {
        self.inner.quota_usage()
    }
    fn reclaim(&mut self, need: ByteSize) {
        self.inner.reclaim(need);
    }
    fn submit_batch_deferred(
        &mut self,
        now: SimTime,
        requests: &[Request],
    ) -> Vec<DeferredResponse> {
        let open = self.rec.enter(Level::Unit);
        let deferred = self.inner.submit_batch_deferred(now, requests);
        let ident = requests.first().map(request_ident).unwrap_or(0);
        self.rec.exit(open, "core.unit_bookkeeping", ident);
        deferred
    }
}

/// Spans every call a store makes into its caching policy.
pub struct TracedPolicy {
    inner: Box<dyn CachingPolicy>,
    rec: Recorder,
}

impl TracedPolicy {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn CachingPolicy>, rec: Recorder) -> Self {
        TracedPolicy { inner, rec }
    }
}

impl fmt::Debug for TracedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TracedPolicy({:?})", self.inner)
    }
}

impl CachingPolicy for TracedPolicy {
    // The wrapped policy's own name: durability refuses to attach a
    // policy it cannot rebuild by name, and figure labels use it.
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_ingest(
        &mut self,
        ingested: &[MetaKey],
        catalog: &JobCatalog,
        engine: &CacheEngine,
    ) -> PolicyActions {
        let open = self.rec.enter(Level::Inner);
        let actions = self.inner.on_ingest(ingested, catalog, engine);
        let round = ingested.first().map(|k| u64::from(k.round.as_u32()));
        self.rec
            .exit(open, "core.policy_on_ingest", round.unwrap_or(0));
        actions
    }
    fn on_request(
        &mut self,
        request: &WorkloadRequest,
        catalog: &JobCatalog,
        engine: &CacheEngine,
    ) -> PolicyActions {
        let open = self.rec.enter(Level::Inner);
        let actions = self.inner.on_request(request, catalog, engine);
        self.rec
            .exit(open, "core.policy_on_request", request.id.as_u64());
        actions
    }
    fn cache_on_miss(&self) -> bool {
        self.inner.cache_on_miss()
    }
    fn victims(&mut self, need: ByteSize, engine: &CacheEngine) -> Vec<MetaKey> {
        let open = self.rec.enter(Level::Inner);
        let victims = self.inner.victims(need, engine);
        self.rec.exit(open, "core.policy_victims", 0);
        victims
    }
}

/// Exact counters of what went through a record sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct SinkCounts {
    /// `append` calls.
    pub appends: u64,
    /// `seal` calls.
    pub seals: u64,
    /// Explicit `flush` calls.
    pub flushes: u64,
    /// Nanoseconds inside `append` (encode + write, plus the fsync when
    /// the sink's group-commit width is reached).
    pub append_ns: u64,
    /// Nanoseconds inside `seal`.
    pub seal_ns: u64,
}

/// Spans and counts every call a store makes into its write-ahead sink.
pub struct TracedSink {
    inner: Box<dyn RecordSink>,
    rec: Recorder,
    counts: SinkCounts,
    report: mpsc::Sender<SinkCounts>,
}

impl TracedSink {
    /// Wraps `inner`; the receiver yields the counters when the store
    /// drops the sink.
    pub fn new(inner: Box<dyn RecordSink>, rec: Recorder) -> (Self, mpsc::Receiver<SinkCounts>) {
        let (report, rx) = mpsc::channel();
        (
            TracedSink {
                inner,
                rec,
                counts: SinkCounts::default(),
                report,
            },
            rx,
        )
    }
}

impl Drop for TracedSink {
    fn drop(&mut self) {
        let _ = self.report.send(self.counts);
    }
}

impl fmt::Debug for TracedSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TracedSink({:?})", self.inner)
    }
}

impl RecordSink for TracedSink {
    fn append(&mut self, event: LedgerEvent<'_>) {
        let ident = match &event {
            LedgerEvent::Ingest { record, .. } => u64::from(record.round.as_u32()),
            LedgerEvent::Serve { request, .. } => request.id.as_u64(),
            LedgerEvent::ServeBatch { requests, .. } => {
                requests.first().map(|r| r.id.as_u64()).unwrap_or(0)
            }
            LedgerEvent::Evict { .. } | LedgerEvent::Reclaim { .. } => 0,
        };
        let open = self.rec.enter(Level::Inner);
        let start = now_ns();
        self.inner.append(event);
        self.counts.append_ns += now_ns() - start;
        self.counts.appends += 1;
        self.rec.exit(open, "durability.append", ident);
    }
    fn should_seal(&self) -> bool {
        self.inner.should_seal()
    }
    fn seal(&mut self, digest: &StateDigest) {
        let open = self.rec.enter(Level::Inner);
        let start = now_ns();
        self.inner.seal(digest);
        self.counts.seal_ns += now_ns() - start;
        self.counts.seals += 1;
        self.rec.exit(open, "durability.seal", 0);
    }
    fn flush(&mut self) {
        let open = self.rec.enter(Level::Inner);
        self.inner.flush();
        self.counts.flushes += 1;
        self.rec.exit(open, "durability.flush", 0);
    }
}

/// Spans every call a store makes into its cold tier.
pub struct TracedSpill {
    inner: Box<dyn SpillBackend>,
    rec: Recorder,
}

impl TracedSpill {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn SpillBackend>, rec: Recorder) -> Self {
        TracedSpill { inner, rec }
    }
}

impl fmt::Debug for TracedSpill {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TracedSpill({:?})", self.inner)
    }
}

impl SpillBackend for TracedSpill {
    fn spill(&mut self, key: &MetaKey, payload: &[u8], logical: ByteSize) {
        let open = self.rec.enter(Level::Inner);
        self.inner.spill(key, payload, logical);
        self.rec
            .exit(open, "durability.spill_put", u64::from(key.round.as_u32()));
    }
    fn fetch(&mut self, key: &MetaKey) -> Option<(Vec<u8>, ByteSize)> {
        let open = self.rec.enter(Level::Inner);
        let fetched = self.inner.fetch(key);
        self.rec.exit(
            open,
            "durability.spill_fetch",
            u64::from(key.round.as_u32()),
        );
        fetched
    }
    fn discard(&mut self, key: &MetaKey) {
        self.inner.discard(key);
    }
    fn stats(&self) -> (u64, ByteSize) {
        self.inner.stats()
    }
}
