//! # flstore-exec — the concurrent executor
//!
//! The parallel serving plane behind the typed front door: a
//! [`ShardedExecutor`] implements [`Service`] over one serving unit — a
//! lone deployment ([`FlStore`], a baseline) or the tenant front
//! ([`MultiTenantStore`]) of a multi-job deployment — plus `threads − 1`
//! *helper* threads that only run workload kernels. Submitting a batch
//! through the executor is **bit-for-bit equivalent** to submitting the
//! same envelopes sequentially to the unit it wraps — the property
//! harness in `flstore-core` (`tests/api_batch.rs`) holds that line — so
//! every figure, report, and ledger stays byte-identical while the
//! wall-clock cost of serving scales with cores.
//!
//! ## Ownership model (the caller is the owner)
//!
//! The executor holds its unit directly, and each `submit_batch` runs in
//! two halves. First the unit's bookkeeping (cache lookups, ledger,
//! placement, the tenant front's same-job split, pressure pass and Stats
//! fold) runs on the calling thread, in submission order, via
//! [`DeferredService::submit_batch_deferred`]. Then the batch's *pure*
//! workload kernels run on one plane.
//!
//! ## Work stealing (one plane per batch)
//!
//! Every pending kernel of the batch goes into one FIFO `StealPlane`
//! behind one (lock-order-named) mutex. Bookkeeping has finished by then,
//! so the queue is complete when it is published: the helpers are woken
//! onto it, pop kernels until it is empty, and go back to waiting for
//! the next plane. The caller help-drains the same queue, drops the
//! plane, and only then waits for the kernels still running on helpers.
//! `threads` therefore counts kernel threads with the caller included;
//! `threads = 1` spawns no thread at all. Kernels are pure functions
//! over `Arc`-captured values, so where or when they run cannot change a
//! byte of any response, ledger entry, or window cost — the responses
//! are merged back by index.
//!
//! ## Failure
//!
//! A panicking kernel cannot hang the plane. A kernel that panics on the
//! caller unwinds there. A kernel that panics on a helper drops its
//! reply channel, and the caller panics with a message instead of
//! waiting: it holds no plane while it waits, and a dead helper's
//! leftover kernels were drained by the caller. Typed errors for bad
//! input belong to the kernels.
//!
//! ## Example
//!
//! ```
//! use flstore_core::api::{Request, Service};
//! use flstore_core::policy::TailoredPolicy;
//! use flstore_core::store::{FlStore, FlStoreConfig};
//! use flstore_exec::ShardedExecutor;
//! use flstore_fl::ids::JobId;
//! use flstore_fl::job::{FlJobConfig, FlJobSim};
//! use flstore_sim::time::SimTime;
//!
//! let cfg = FlJobConfig::quick_test(JobId::new(1));
//! let store = FlStore::new(
//!     FlStoreConfig::for_model(&cfg.model),
//!     Box::new(TailoredPolicy::new()),
//!     cfg.job,
//!     cfg.model,
//! );
//! let mut exec = ShardedExecutor::new(vec![store], 2);
//! let record = FlJobSim::new(cfg.clone()).next().expect("rounds");
//! let response = exec.submit(
//!     SimTime::ZERO,
//!     Request::Ingest { job: cfg.job, record: std::sync::Arc::new(record) },
//! );
//! assert!(response.is_ok());
//! // The executor hands the deployment back when the work is done.
//! let stores = exec.into_units();
//! assert_eq!(stores.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::VecDeque;
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use flstore_baselines::agg::AggregatorBaseline;
use flstore_core::api::{DeferredResponse, Request, Response, Service};
use flstore_core::quota::QuotaUsage;
use flstore_core::store::FlStore;
use flstore_core::tenancy::MultiTenantStore;
use flstore_fl::ids::JobId;
use flstore_sim::bytes::ByteSize;
use flstore_sim::cost::{Cost, CostBreakdown};
use flstore_sim::time::SimTime;

/// A single-job serving system: it serves exactly one job's traffic.
/// Every `ShardUnit` is a [`DeferredService`], so the executor can wrap
/// it.
///
/// The executor calls only [`ShardUnit::submit_batch_deferred`]. The
/// other three methods route nothing any more; they are kept because the
/// wall-clock benchmark's unit wrapper implements them.
pub trait ShardUnit: Service + Send {
    /// The job whose traffic this unit serves. Kept for the benchmark's
    /// unit wrapper; the executor does not route on it.
    fn owned_job(&self) -> JobId;

    /// This unit's quota occupancy row. Kept for the benchmark's unit
    /// wrapper; cross-tenant pressure runs inside [`MultiTenantStore`].
    fn quota_usage(&self) -> QuotaUsage {
        QuotaUsage {
            job: self.owned_job(),
            resident: ByteSize::ZERO,
            quota: None,
        }
    }

    /// Sheds at least `need` bytes of this unit's cache. Kept for the
    /// benchmark's unit wrapper; cross-tenant pressure runs inside
    /// [`MultiTenantStore`].
    fn reclaim(&mut self, need: ByteSize) {
        let _ = need;
    }

    /// Serves a batch with the pure workload kernels *deferred*: all
    /// bookkeeping (cache state, ledger, placement) commits in
    /// submission order before this returns, while each
    /// [`DeferredResponse::Pending`] slot carries a kernel any thread may
    /// finish later. Units without a separable kernel compute inline and
    /// return every slot [`DeferredResponse::Ready`] — the default is
    /// always correct, just never parallel.
    fn submit_batch_deferred(
        &mut self,
        now: SimTime,
        requests: &[Request],
    ) -> Vec<DeferredResponse> {
        self.submit_batch(now, requests)
            .into_iter()
            .map(DeferredResponse::Ready)
            .collect()
    }
}

impl ShardUnit for FlStore {
    fn owned_job(&self) -> JobId {
        self.catalog().job()
    }

    fn submit_batch_deferred(
        &mut self,
        now: SimTime,
        requests: &[Request],
    ) -> Vec<DeferredResponse> {
        FlStore::submit_batch_deferred(self, now, requests)
    }
}

impl ShardUnit for AggregatorBaseline {
    fn owned_job(&self) -> JobId {
        self.catalog().job()
    }
}

/// What the executor wraps: a [`Service`] that can hand back a batch's
/// kernels unfinished. Finishing every slot in order must yield exactly
/// the unit's own `submit_batch` responses.
pub trait DeferredService: Service {
    /// Commits the batch's bookkeeping in submission order and returns
    /// one slot per envelope, successful serves still
    /// [`DeferredResponse::Pending`].
    fn submit_batch_deferred(
        &mut self,
        now: SimTime,
        requests: &[Request],
    ) -> Vec<DeferredResponse>;
}

impl<U: ShardUnit> DeferredService for U {
    fn submit_batch_deferred(
        &mut self,
        now: SimTime,
        requests: &[Request],
    ) -> Vec<DeferredResponse> {
        ShardUnit::submit_batch_deferred(self, now, requests)
    }
}

impl DeferredService for MultiTenantStore {
    fn submit_batch_deferred(
        &mut self,
        now: SimTime,
        requests: &[Request],
    ) -> Vec<DeferredResponse> {
        MultiTenantStore::submit_batch_deferred(self, now, requests)
    }
}

/// One deferred workload kernel published for any thread to finish. The
/// reply slot is the kernel's index within its batch; the result flows
/// back to the caller, who merges it into submission order.
struct StealTask {
    slot: usize,
    work: DeferredResponse,
    reply: Sender<(usize, Response)>,
}

impl StealTask {
    /// Runs the kernel and sends the response home. A gone caller is
    /// fine: it can only mean the batch is unwinding after a panic.
    fn finish(self) {
        let _ = self.reply.send((self.slot, self.work.finish()));
    }
}

/// One batch's work-stealing plane: its pending kernels in a FIFO behind
/// one lock-order-named mutex. The queue is complete when the plane is
/// published, so an empty queue means the plane is done.
type StealPlane = Mutex<VecDeque<StealTask>>;

/// Finishes `plane`'s kernels, oldest first, until it is empty. Each
/// guard drops when `pop` returns: the lock is never held across a
/// kernel.
fn drain(plane: &StealPlane) {
    let pop = || plane.lock().pop_front();
    while let Some(task) = pop() {
        task.finish();
    }
}

/// The `threads − 1` kernel helpers (`flstore-shard-1..`), each with the
/// channel that wakes it onto a plane.
struct Helpers(Vec<(Sender<Arc<StealPlane>>, JoinHandle<()>)>);

impl Helpers {
    fn spawn(count: usize) -> Self {
        let spawn_one = |id: usize| {
            let (wake, planes) = mpsc::channel::<Arc<StealPlane>>();
            let handle = std::thread::Builder::new()
                .name(format!("flstore-shard-{id}"))
                .spawn(move || {
                    while let Ok(plane) = planes.recv() {
                        drain(&plane);
                    }
                })
                .expect("executor threads spawn");
            (wake, handle)
        };
        Helpers((1..=count).map(spawn_one).collect())
    }

    /// Publishes `queue` as one plane, wakes every helper onto it and
    /// help-drains it on the calling thread. A helper that is gone
    /// cannot steal; the caller drains what it leaves.
    fn run(&self, queue: VecDeque<StealTask>) {
        let plane = Arc::new(Mutex::named(queue, "exec.steal.queue"));
        for (wake, _) in &self.0 {
            let _ = wake.send(Arc::clone(&plane));
        }
        drain(&plane);
    }
}

impl Drop for Helpers {
    /// Closing a helper's channel fails its `recv`, so it exits and joins.
    fn drop(&mut self) {
        for (wake, handle) in self.0.drain(..) {
            drop(wake);
            let _ = handle.join();
        }
    }
}

/// The concurrent executor: one serving unit whose bookkeeping runs on
/// the caller, plus kernel helpers, behind one [`Service`] facade.
///
/// See the crate docs for the ownership and determinism model. Construct
/// with [`ShardedExecutor::new`] (one deployment) or
/// [`ShardedExecutor::from_tenants`] (a multi-tenant front end).
pub struct ShardedExecutor<U> {
    unit: U,
    helpers: Helpers,
}

impl ShardedExecutor<MultiTenantStore> {
    /// Serves a multi-tenant front end on `threads` kernel threads. The
    /// front is the executor's unit, whole: the executor serves exactly
    /// what the front end serves — bit-for-bit, label, pressure pass and
    /// aggregated Stats included.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn from_tenants(front: MultiTenantStore, threads: usize) -> Self {
        ShardedExecutor::new(vec![front], threads)
    }
}

impl<U: DeferredService> ShardedExecutor<U> {
    /// Serves `units`' one deployment on `threads` kernel threads: the
    /// caller plus `threads − 1` helpers. The executor reports the unit
    /// verbatim (label, stats, costs), so it is indistinguishable from
    /// its sequential original. Several jobs are served by one
    /// [`MultiTenantStore`] ([`MultiTenantStore::adopt`] joins existing
    /// deployments).
    ///
    /// # Panics
    ///
    /// Panics unless `units` holds exactly one unit, or if `threads` is
    /// zero.
    pub fn new(mut units: Vec<U>, threads: usize) -> Self {
        assert!(!units.is_empty(), "an executor needs at least one unit");
        assert!(
            units.len() == 1,
            "an executor serves one unit; a MultiTenantStore serves several jobs"
        );
        assert!(threads >= 1, "an executor needs at least one thread");
        ShardedExecutor {
            unit: units.pop().expect("one unit"),
            helpers: Helpers::spawn(threads - 1),
        }
    }

    /// Shuts the helpers down and hands the serving unit back, so a
    /// wrapped deployment can be inspected (or re-wrapped) after a drive.
    pub fn into_units(self) -> Vec<U> {
        vec![self.unit]
    }
}

impl<U: DeferredService> Service for ShardedExecutor<U> {
    fn label(&self) -> String {
        self.unit.label()
    }

    fn submit(&mut self, now: SimTime, request: Request) -> Response {
        self.submit_batch(now, std::slice::from_ref(&request))
            .pop()
            .expect("one envelope yields one response")
    }

    /// Runs the unit's bookkeeping for the whole batch on the caller,
    /// then the batch's kernels on one plane, and returns the responses
    /// in submission order.
    fn submit_batch(&mut self, now: SimTime, requests: &[Request]) -> Vec<Response> {
        let deferred = self.unit.submit_batch_deferred(now, requests);
        debug_assert_eq!(deferred.len(), requests.len());
        let mut resolved: Vec<Option<Response>> = Vec::with_capacity(deferred.len());
        let mut queue = VecDeque::new();
        let (reply, replies) = mpsc::channel();
        for (slot, response) in deferred.into_iter().enumerate() {
            match response {
                DeferredResponse::Ready(response) => resolved.push(Some(response)),
                work => {
                    resolved.push(None);
                    queue.push_back(StealTask {
                        slot,
                        work,
                        reply: reply.clone(),
                    });
                }
            }
        }
        // Only the tasks keep the channel open now: a helper dying
        // mid-kernel closes it, and the recv below reports the loss
        // instead of hanging.
        drop(reply);
        let outstanding = queue.len();
        if outstanding > 0 {
            self.helpers.run(queue);
        }
        for _ in 0..outstanding {
            let (slot, response) = replies
                .recv()
                .expect("a kernel panicked on a helper thread");
            resolved[slot] = Some(response);
        }
        resolved
            .into_iter()
            .map(|r| r.expect("every deferred slot resolves"))
            .collect()
    }

    fn window_cost(&mut self, now: SimTime) -> CostBreakdown {
        self.unit.window_cost(now)
    }

    fn infra_cost(&mut self, now: SimTime) -> Cost {
        self.unit.infra_cost(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flstore_core::api::ApiError;
    use flstore_core::policy::TailoredPolicy;
    use flstore_core::store::FlStoreConfig;
    use flstore_fl::job::{FlJobConfig, FlJobSim};
    use flstore_fl::zoo::ModelArch;
    use flstore_serverless::platform::{PlatformConfig, ReclaimModel};
    use flstore_sim::time::SimDuration;
    use flstore_workloads::request::{RequestId, WorkloadRequest};
    use flstore_workloads::taxonomy::WorkloadKind;

    fn quiet_config(model: &ModelArch) -> FlStoreConfig {
        FlStoreConfig {
            platform: PlatformConfig {
                reclaim: ReclaimModel::DISABLED,
                ..PlatformConfig::default()
            },
            ..FlStoreConfig::for_model(model)
        }
    }

    fn loaded_front(jobs: &[u32]) -> (MultiTenantStore, flstore_fl::ids::Round) {
        let mut front = MultiTenantStore::new(quiet_config(&ModelArch::RESNET18));
        let mut last = flstore_fl::ids::Round::ZERO;
        for &j in jobs {
            let cfg = FlJobConfig {
                rounds: 3,
                ..FlJobConfig::quick_test(JobId::new(j))
            };
            front.register_job(cfg.job, cfg.model);
            let mut now = SimTime::ZERO;
            for record in FlJobSim::new(cfg.clone()) {
                last = record.round;
                front
                    .tenant_mut(cfg.job)
                    .expect("registered")
                    .ingest_round(now, &record);
                now += SimDuration::from_secs(60);
            }
        }
        (front, last)
    }

    fn serve(id: u64, job: u32, round: flstore_fl::ids::Round) -> Request {
        Request::Serve(WorkloadRequest::new(
            RequestId::new(id),
            WorkloadKind::MaliciousFiltering,
            JobId::new(job),
            round,
            None,
        ))
    }

    #[test]
    fn routes_merge_back_into_submission_order() {
        let jobs = [1u32, 2, 3, 4];
        let (front, round) = loaded_front(&jobs);
        let (sequential, _) = loaded_front(&jobs);
        let mut sequential = sequential;
        let mut exec = ShardedExecutor::from_tenants(front, 4);
        let now = SimTime::from_secs(3600);
        let batch: Vec<Request> = (0..16)
            .map(|i| serve(i as u64 + 1, jobs[i % jobs.len()], round))
            .collect();
        let parallel = exec.submit_batch(now, &batch);
        let expected: Vec<Response> = batch
            .iter()
            .map(|r| sequential.submit(now, r.clone()))
            .collect();
        assert_eq!(parallel, expected);
        assert_eq!(
            Service::window_cost(&mut exec, now),
            Service::window_cost(&mut sequential, now)
        );
    }

    #[test]
    fn foreign_jobs_are_rejected_without_dispatch() {
        let (front, round) = loaded_front(&[1, 2]);
        let mut exec = ShardedExecutor::from_tenants(front, 2);
        let response = exec.submit(SimTime::from_secs(3600), serve(1, 9, round));
        assert_eq!(
            response.error(),
            Some(&ApiError::UnknownJob { job: JobId::new(9) })
        );
        let front = exec.into_units().pop().expect("the front");
        assert!(
            front.tenants().all(|unit| unit.tracker().is_empty()),
            "rejections are never dispatched"
        );
    }

    #[test]
    fn stats_envelope_is_a_barrier_and_aggregates() {
        let (front, round) = loaded_front(&[1, 2]);
        let mut exec = ShardedExecutor::from_tenants(front, 2);
        let now = SimTime::from_secs(3600);
        let batch = vec![serve(1, 1, round), serve(2, 2, round), Request::Stats];
        let responses = exec.submit_batch(now, &batch);
        let Response::Stats(stats) = &responses[2] else {
            panic!("stats envelope answers with stats");
        };
        assert_eq!(stats.tenants, 2);
        assert_eq!(stats.served, 2, "the barrier saw both earlier serves");
        assert_eq!(stats.label, "FLStore-MT(2)");
        assert_eq!(exec.label(), "FLStore-MT(2)");
    }

    #[test]
    fn single_unit_forwards_identity() {
        let cfg = FlJobConfig {
            rounds: 2,
            ..FlJobConfig::quick_test(JobId::new(1))
        };
        let mut store = FlStore::new(
            quiet_config(&cfg.model),
            Box::new(TailoredPolicy::new()),
            cfg.job,
            cfg.model,
        );
        let mut now = SimTime::ZERO;
        for record in FlJobSim::new(cfg.clone()) {
            store.ingest_round(now, &record);
            now += SimDuration::from_secs(60);
        }
        let expected_label = Service::label(&store);
        let mut exec = ShardedExecutor::new(vec![store], 4);
        assert_eq!(exec.label(), expected_label);
        let Response::Stats(stats) = exec.submit(now, Request::Stats) else {
            panic!("stats envelope answers with stats");
        };
        assert_eq!(stats.tenants, 1);
        assert_eq!(stats.label, expected_label);
    }

    #[test]
    fn one_tenant_front_keeps_its_multi_tenant_identity() {
        // A MultiTenantStore with a single registered job answers as
        // "FLStore-MT(1)"; wrapping it must not leak the lone tenant's
        // own label/stats shape instead.
        let (front, round) = loaded_front(&[1]);
        let (mut sequential, _) = loaded_front(&[1]);
        let mut exec = ShardedExecutor::from_tenants(front, 2);
        assert_eq!(exec.label(), Service::label(&sequential));
        let now = SimTime::from_secs(3600);
        let batch = vec![serve(1, 1, round), Request::Stats];
        let parallel = exec.submit_batch(now, &batch);
        let expected: Vec<Response> = batch
            .iter()
            .map(|r| sequential.submit(now, r.clone()))
            .collect();
        assert_eq!(parallel, expected);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_executor_is_rejected() {
        let _ = ShardedExecutor::<FlStore>::new(Vec::new(), 2);
    }

    #[test]
    fn hot_tenant_serves_match_sequential_under_stealing() {
        // One job, four threads: the caller runs every serve's bookkeeping
        // and the three helpers steal its kernels. The responses
        // (and the window cost fold) must match sequential submission
        // bit-for-bit.
        let (front, round) = loaded_front(&[1]);
        let (mut sequential, _) = loaded_front(&[1]);
        let mut exec = ShardedExecutor::from_tenants(front, 4);
        let now = SimTime::from_secs(3600);
        let batch: Vec<Request> = (0..32).map(|i| serve(i + 1, 1, round)).collect();
        let parallel = exec.submit_batch(now, &batch);
        let expected: Vec<Response> = batch
            .iter()
            .map(|r| sequential.submit(now, r.clone()))
            .collect();
        assert_eq!(parallel, expected);
        assert_eq!(
            Service::window_cost(&mut exec, now),
            Service::window_cost(&mut sequential, now)
        );
    }

    /// A tenant front that counts how often the executor asks it for
    /// deferred kernels.
    struct Counting {
        front: MultiTenantStore,
        deferred_calls: usize,
    }

    impl Service for Counting {
        fn label(&self) -> String {
            self.front.label()
        }
        fn submit(&mut self, now: SimTime, request: Request) -> Response {
            self.front.submit(now, request)
        }
        fn window_cost(&mut self, now: SimTime) -> CostBreakdown {
            self.front.window_cost(now)
        }
        fn infra_cost(&mut self, now: SimTime) -> Cost {
            self.front.infra_cost(now)
        }
    }

    impl DeferredService for Counting {
        fn submit_batch_deferred(
            &mut self,
            now: SimTime,
            requests: &[Request],
        ) -> Vec<DeferredResponse> {
            self.deferred_calls += 1;
            self.front.submit_batch_deferred(now, requests)
        }
    }

    #[test]
    fn interleaved_jobs_share_one_plane_per_batch() {
        // Two jobs interleaved around a Stats barrier: the whole batch's
        // bookkeeping is one deferred call, so its kernels go out on one
        // plane, and the answers are still the sequential front's.
        let (front, round) = loaded_front(&[1, 2]);
        let (mut sequential, _) = loaded_front(&[1, 2]);
        let counting = Counting {
            front,
            deferred_calls: 0,
        };
        let mut exec = ShardedExecutor::new(vec![counting], 2);
        let now = SimTime::from_secs(3600);
        let batch = vec![
            serve(1, 1, round),
            serve(2, 2, round),
            serve(3, 1, round),
            Request::Stats,
            serve(4, 2, round),
            serve(5, 1, round),
        ];
        let parallel = exec.submit_batch(now, &batch);
        let expected: Vec<Response> = batch
            .iter()
            .map(|r| sequential.submit(now, r.clone()))
            .collect();
        assert_eq!(parallel, expected);
        let counting = exec.into_units().pop().expect("the unit");
        assert_eq!(counting.deferred_calls, 1);
    }

    #[test]
    fn one_thread_spawns_no_helper() {
        let (front, round) = loaded_front(&[1]);
        let mut exec = ShardedExecutor::from_tenants(front, 1);
        assert!(exec.helpers.0.is_empty());
        let response = exec.submit(SimTime::from_secs(3600), serve(1, 1, round));
        assert!(response.is_ok(), "the caller runs the kernel itself");
    }
}
