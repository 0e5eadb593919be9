//! # flstore-exec — the concurrent executor
//!
//! The parallel serving plane behind the typed front door: a
//! [`ShardedExecutor`] implements [`Service`] over one *owner* thread that
//! holds every serving unit, plus `threads − 1` *helper* threads that only
//! run workload kernels. Submitting a batch through the executor is
//! **bit-for-bit equivalent** to submitting the same envelopes
//! sequentially to the systems it wraps — the property harness in
//! `flstore-core` (`tests/api_batch.rs`) holds that line — so every
//! figure, report, and ledger stays byte-identical while the wall-clock
//! cost of serving scales with cores.
//!
//! ## Ownership model (one owner, kernel helpers)
//!
//! Every [`ShardUnit`] deployment (an [`FlStore`], a baseline) moves onto
//! the owner thread at construction and never migrates. The caller talks
//! to the owner by sending it one closure per call (`submit_batch`,
//! `window_cost`, `infra_cost`, `into_units`) and waiting for the answer.
//! An [`FlStore`] unit keeps its own request tracker (the paper's §4.3
//! dictionary), recording every serve with its real function ids.
//!
//! ## Work stealing (intra-job parallelism)
//!
//! The owner splits each serve into its two halves — the owner-serialized
//! bookkeeping (cache lookups, ledger, placement) and the *pure* workload
//! kernel — via [`ShardUnit::submit_batch_deferred`]. It runs the
//! bookkeeping of a same-job run in submission order, then publishes the
//! run's deferred kernels onto one FIFO `StealPlane` behind one
//! (lock-order-named) mutex. The helpers are woken at the run's first
//! kernel and steal until the plane closes, parking — not spinning —
//! whenever it is empty but still open; each push and the close unpark
//! them. The owner help-drains the plane, then waits for the kernels
//! still running on helpers. Kernels are pure functions over
//! `Arc`-captured values, so where or when they run cannot change a byte
//! of any response, ledger entry, or window cost — the responses are
//! merged back by index exactly as before.
//!
//! ## Failure
//!
//! A panicking kernel cannot hang the plane. The owner closes each plane
//! in a drop guard, so parked helpers are woken and leave on every exit
//! path, unwinding included. A kernel that panics on a helper drops its
//! reply channel, and the owner panics with a message instead of
//! waiting; an owner that dies drops the caller's reply channel, and the
//! caller panics in turn. Typed errors for bad input belong to the kernels.
//!
//! ## Determinism
//!
//! * Runs of consecutive same-job envelopes are served in submission
//!   order on the owner — the same `chunk_by` split
//!   [`MultiTenantStore`] makes. A lone unit built with
//!   [`ShardedExecutor::new`] takes each batch whole, as the bare system
//!   would.
//! * System-wide envelopes ([`Request::Stats`]) are barriers: every prior
//!   envelope has completed, then the pressure pass and the aggregate run
//!   in job order — the observation point a sequential submission sees.
//! * Costs aggregate by folding per-job values in sorted job order, so
//!   floating-point summation order matches the sequential
//!   [`MultiTenantStore`] exactly.
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
//! // The executor hands the deployments back when the work is done.
//! let stores = exec.into_units();
//! assert_eq!(stores.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::VecDeque;
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};

use parking_lot::Mutex;

use flstore_baselines::agg::AggregatorBaseline;
use flstore_core::api::{split_by_job, DeferredResponse, Request, Response, Service, StatsReport};
use flstore_core::quota::{pressure_plan, QuotaUsage};
use flstore_core::store::FlStore;
use flstore_core::tenancy::MultiTenantStore;
use flstore_fl::ids::JobId;
use flstore_sim::bytes::ByteSize;
use flstore_sim::cost::{Cost, CostBreakdown};
use flstore_sim::time::SimTime;

/// A serving system the executor can own: it serves exactly one job's
/// traffic, so a run of that job's envelopes touches no other unit.
///
/// Multi-job systems decompose instead:
/// [`MultiTenantStore::into_tenants`] splits the front end into its
/// isolated per-job deployments, each of which is a `ShardUnit`.
pub trait ShardUnit: Service + Send {
    /// The job whose traffic this unit serves.
    fn owned_job(&self) -> JobId;

    /// This unit's quota occupancy row (consumed by the cross-tenant
    /// pressure plane at Stats barriers). Units that do not account
    /// residency report zero occupancy and no budget.
    fn quota_usage(&self) -> QuotaUsage {
        QuotaUsage {
            job: self.owned_job(),
            resident: ByteSize::ZERO,
            quota: None,
        }
    }

    /// Sheds at least `need` bytes of this unit's own cache under
    /// cross-tenant pressure. Units without a reclaimable cache do
    /// nothing.
    fn reclaim(&mut self, need: ByteSize) {
        let _ = need;
    }

    /// Serves a batch with the pure workload kernels *deferred*: all
    /// owner-serialized bookkeeping (cache state, ledger, placement)
    /// commits in submission order before this returns, while each
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

    fn quota_usage(&self) -> QuotaUsage {
        FlStore::quota_usage(self)
    }

    fn reclaim(&mut self, need: ByteSize) {
        let _ = FlStore::reclaim(self, need);
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

/// One deferred workload kernel published for any thread to finish. The
/// reply slot is the kernel's index *within its run*; the result flows
/// back to the owner, who merges it into submission order.
struct StealTask {
    slot: usize,
    work: DeferredResponse,
    reply: Sender<(usize, Response)>,
}

impl StealTask {
    /// Runs the kernel and sends the response home. A dead owner is fine:
    /// it can only mean the plane is tearing down after a panic.
    fn finish(self) {
        let _ = self.reply.send((self.slot, self.work.finish()));
    }
}

/// One run's work-stealing plane: a FIFO of kernels, the flag that says
/// whether the owner may still publish more, and the helpers parked on
/// it, all behind one lock-order-named mutex. The lock is never held
/// across a kernel or an unpark: a task is popped under it and finished
/// after the guard drops, and parked handles are taken under it and
/// woken after.
struct StealPlane {
    state: Mutex<PlaneState>,
}

/// What a [`StealPlane`]'s mutex guards.
struct PlaneState {
    queue: VecDeque<StealTask>,
    open: bool,
    /// Helpers that found the queue empty while the plane was open and
    /// are parked (or about to park) until a push or the close.
    parked: Vec<Thread>,
    /// How many times a helper found the queue empty while the plane
    /// was open — each such iteration parks once.
    parks: usize,
    /// How many parked handles a push or the close took and woke.
    unparks: usize,
}

impl StealPlane {
    /// Opens a fresh plane and wakes every helper onto it. A helper that
    /// is gone cannot steal; the owner drains what it leaves.
    fn open(helpers: &[Sender<Arc<StealPlane>>]) -> OpenPlane {
        let plane = Arc::new(StealPlane {
            state: Mutex::named(
                PlaneState {
                    queue: VecDeque::new(),
                    open: true,
                    parked: Vec::new(),
                    parks: 0,
                    unparks: 0,
                },
                "exec.steal.queue",
            ),
        });
        for helper in helpers {
            let _ = helper.send(Arc::clone(&plane));
        }
        OpenPlane(plane)
    }

    /// Publishes a kernel and wakes every parked helper.
    fn push(&self, task: StealTask) {
        self.wake(|state| state.queue.push_back(task));
    }

    /// Applies `change` under the lock, takes the parked handles with it,
    /// and unparks them once the lock is released.
    fn wake(&self, change: impl FnOnce(&mut PlaneState)) {
        let parked = {
            let mut state = self.state.lock();
            change(&mut state);
            state.unparks += state.parked.len();
            std::mem::take(&mut state.parked)
        };
        for thread in parked {
            thread.unpark();
        }
    }

    /// Takes the oldest kernel, so the owner's help-drain resolves in
    /// submission order.
    fn pop(&self) -> Option<StealTask> {
        self.state.lock().queue.pop_front()
    }

    /// A helper's share of the run: steal until the plane is empty *and*
    /// closed, parking whenever it is empty but still open. The queue,
    /// the open flag and the parked list are read and written under one
    /// lock, so a closed, empty plane is conclusive, and a helper that
    /// registers before it parks cannot miss the push or close that
    /// follows: either takes its handle and unparks it, and an unpark
    /// that lands before the park makes the park return at once.
    fn assist(&self) {
        let me = std::thread::current();
        loop {
            let task = {
                let mut state = self.state.lock();
                match state.queue.pop_front() {
                    Some(task) => Some(task),
                    None if state.open => {
                        state.parked.push(me.clone());
                        state.parks += 1;
                        None
                    }
                    None => return,
                }
            };
            match task {
                Some(task) => task.finish(),
                // A spurious return only costs one more turn of the loop.
                None => std::thread::park(),
            }
        }
    }
}

/// An open plane, closed when this guard drops — on every exit path of
/// the owner's run, unwinding included — so no helper stays parked on a
/// plane whose owner has gone.
struct OpenPlane(Arc<StealPlane>);

impl Drop for OpenPlane {
    fn drop(&mut self) {
        self.0.wake(|state| state.open = false);
    }
}

/// Everything the owner thread holds: every serving unit, sorted by job
/// (the deterministic aggregation order), and the helpers' wake channels.
struct Units<U> {
    units: Vec<U>,
    jobs: Vec<JobId>,
    helpers: Vec<Sender<Arc<StealPlane>>>,
    label: String,
    /// Whether this plane presents as a multi-tenant front end (same-job
    /// split, label and aggregated Stats), even with one tenant — true for
    /// [`ShardedExecutor::from_tenants`], so wrapping a 1-tenant front is
    /// still bit-for-bit identical to it.
    tenancy: bool,
    /// Aggregate residency budget carried over from the wrapped
    /// [`MultiTenantStore`]: the cross-tenant pressure pass runs at Stats
    /// barriers, exactly where the sequential front end runs it.
    global_budget: Option<ByteSize>,
}

/// One call's worth of owner work.
type OwnerCall<U> = Box<dyn FnOnce(&mut Units<U>) + Send>;

impl<U: ShardUnit> Units<U> {
    /// A lone unit that is not a tenant front end takes the whole batch,
    /// so it groups serves and rejects foreign jobs exactly as the bare
    /// system does. Otherwise the batch takes [`split_by_job`], the split
    /// [`MultiTenantStore`] makes.
    fn submit_batch(&mut self, now: SimTime, requests: &[Request]) -> Vec<Response> {
        if !self.tenancy {
            return self.serve_run(now, 0, requests);
        }
        split_by_job(
            self,
            requests,
            |owned, job, run| {
                let ix = owned.jobs.binary_search(&job).ok()?;
                Some(owned.serve_run(now, ix, run))
            },
            |owned| owned.stats(now),
        )
    }

    /// Serves one run on unit `ix`: the unit's bookkeeping runs deferred
    /// ([`ShardUnit::submit_batch_deferred`]) and the pure kernels fan out
    /// to the helpers through one steal plane. The owner help-drains the
    /// plane, then waits for the kernels still running on helpers, so
    /// the run is complete before the next one starts.
    fn serve_run(&mut self, now: SimTime, ix: usize, run: &[Request]) -> Vec<Response> {
        let deferred = self.units[ix].submit_batch_deferred(now, run);
        debug_assert_eq!(deferred.len(), run.len());
        let mut resolved: Vec<Option<Response>> = Vec::with_capacity(deferred.len());
        let (tx, rx) = mpsc::channel();
        let mut plane: Option<OpenPlane> = None;
        let mut outstanding = 0usize;
        for (slot, response) in deferred.into_iter().enumerate() {
            match response {
                DeferredResponse::Ready(response) => resolved.push(Some(response)),
                work => {
                    resolved.push(None);
                    outstanding += 1;
                    let task = StealTask {
                        slot,
                        work,
                        reply: tx.clone(),
                    };
                    plane
                        .get_or_insert_with(|| StealPlane::open(&self.helpers))
                        .0
                        .push(task);
                }
            }
        }
        // Only in-flight tasks keep the channel open now: a helper dying
        // mid-kernel closes it, and the recv below reports the loss
        // instead of hanging.
        drop(tx);
        if let Some(plane) = &plane {
            while let Some(task) = plane.0.pop() {
                task.finish();
            }
        }
        for _ in 0..outstanding {
            let (slot, response) = rx.recv().expect("a kernel panicked on a helper thread");
            resolved[slot] = Some(response);
        }
        resolved
            .into_iter()
            .map(|r| r.expect("every deferred slot resolves"))
            .collect()
    }

    /// The tenant front end's answer to [`Request::Stats`]: the
    /// cross-tenant pressure pass runs first (the same trigger point the
    /// sequential front end uses), then per-unit stats are folded in job
    /// order, labelled as the multi-tenant plane.
    fn stats(&mut self, now: SimTime) -> Response {
        if let Some(global) = self.global_budget {
            let usages: Vec<QuotaUsage> = self.units.iter().map(|u| u.quota_usage()).collect();
            for (job, need) in pressure_plan(&usages, global) {
                let ix = self
                    .jobs
                    .binary_search(&job)
                    .expect("planned jobs are owned");
                self.units[ix].reclaim(need);
            }
        }
        let per_unit = self
            .units
            .iter_mut()
            .map(|unit| match unit.submit(now, Request::Stats) {
                Response::Stats(stats) => stats,
                _ => unreachable!("units answer Stats envelopes with stats"),
            });
        Response::Stats(StatsReport::fold(
            self.label.clone(),
            self.jobs.len(),
            per_unit,
        ))
    }
}

/// Spawns executor thread `id` (0 is the owner, the rest are helpers).
fn spawn_thread(id: usize, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("flstore-shard-{id}"))
        .spawn(body)
        .expect("executor threads spawn")
}

/// The concurrent executor: one owner thread holding every per-job
/// serving unit, plus kernel helpers, behind one [`Service`] facade.
///
/// See the crate docs for the ownership and determinism model. Construct
/// with [`ShardedExecutor::new`] (explicit units) or
/// [`ShardedExecutor::from_tenants`] (split a multi-tenant front end).
pub struct ShardedExecutor<U: ShardUnit + 'static> {
    owner: Option<Sender<OwnerCall<U>>>,
    threads: Vec<JoinHandle<()>>,
    label: String,
}

impl ShardedExecutor<FlStore> {
    /// Splits a multi-tenant front end into its isolated per-job
    /// deployments and serves them on `threads` kernel threads. The
    /// executor then serves exactly what the front end served —
    /// bit-for-bit, label and aggregated Stats included (even with a
    /// single tenant).
    ///
    /// # Panics
    ///
    /// Panics if the front end has no registered tenants or `threads` is
    /// zero.
    pub fn from_tenants(front: MultiTenantStore, threads: usize) -> Self {
        let global_budget = front.global_budget();
        let units = front
            .into_tenants()
            .into_iter()
            .map(|(_, store)| store)
            .collect();
        ShardedExecutor::spawn(units, threads, true, global_budget)
    }
}

impl<U: ShardUnit + 'static> ShardedExecutor<U> {
    /// Spawns the owner thread holding `units` and `threads − 1` kernel
    /// helpers. A single unit reports itself verbatim (label, stats,
    /// costs); multiple units report as the multi-tenant front end they
    /// decompose ([`MultiTenantStore`]'s label and aggregates), so either
    /// wrapping is indistinguishable from its sequential original. (A
    /// front end split via [`ShardedExecutor::from_tenants`] keeps the
    /// multi-tenant identity even with one tenant.)
    ///
    /// # Panics
    ///
    /// Panics if `units` is empty, `threads` is zero, or two units own
    /// the same job.
    pub fn new(units: Vec<U>, threads: usize) -> Self {
        let tenancy = units.len() > 1;
        ShardedExecutor::spawn(units, threads, tenancy, None)
    }

    fn spawn(
        mut units: Vec<U>,
        threads: usize,
        tenancy: bool,
        global_budget: Option<ByteSize>,
    ) -> Self {
        assert!(!units.is_empty(), "an executor needs at least one unit");
        assert!(threads >= 1, "an executor needs at least one thread");
        units.sort_by_key(|u| u.owned_job());
        let jobs: Vec<JobId> = units.iter().map(|u| u.owned_job()).collect();
        for pair in jobs.windows(2) {
            assert!(
                pair[0] != pair[1],
                "two units own {}: routing would be ambiguous",
                pair[0]
            );
        }
        let label = if tenancy {
            format!("FLStore-MT({})", units.len())
        } else {
            units[0].label()
        };

        // Wake channels first: the owner holds the senders, so when it
        // exits — the executor dropped its sender, or a call panicked —
        // every helper's `recv` fails and the helper exits too.
        let (helpers, wakes): (Vec<_>, Vec<_>) = (1..threads)
            .map(|_| mpsc::channel::<Arc<StealPlane>>())
            .unzip();
        let mut owned = Units {
            units,
            jobs,
            helpers,
            label: label.clone(),
            tenancy,
            global_budget,
        };
        let (tx, rx) = mpsc::channel::<OwnerCall<U>>();
        let mut handles = vec![spawn_thread(0, move || {
            while let Ok(call) = rx.recv() {
                call(&mut owned);
            }
        })];
        for (id, wake) in (1..).zip(wakes) {
            handles.push(spawn_thread(id, move || {
                while let Ok(plane) = wake.recv() {
                    plane.assist();
                }
            }));
        }

        ShardedExecutor {
            owner: Some(tx),
            threads: handles,
            label,
        }
    }

    /// Runs `f` on the owner thread against every unit and returns its
    /// answer. An owner that is gone — because an earlier or this very
    /// call panicked there — panics the caller instead of hanging it.
    fn call<R: Send + 'static>(&self, f: impl FnOnce(&mut Units<U>) -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        self.owner
            .as_ref()
            .expect("the owner lives until drop")
            .send(Box::new(move |units: &mut Units<U>| {
                let _ = tx.send(f(units));
            }))
            .expect("the executor's owner thread has died");
        rx.recv()
            .expect("the executor's owner thread died mid-call")
    }

    /// Shuts the plane down and hands every serving unit back, in job
    /// order — so wrapped deployments can be inspected (or re-wrapped)
    /// after a drive.
    pub fn into_units(self) -> Vec<U> {
        self.call(|owned| std::mem::take(&mut owned.units))
        // `self` drops here: the owner exits, helpers exit, threads join.
    }
}

impl<U: ShardUnit + 'static> Service for ShardedExecutor<U> {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn submit(&mut self, now: SimTime, request: Request) -> Response {
        self.submit_batch(now, std::slice::from_ref(&request))
            .pop()
            .expect("one envelope yields one response")
    }

    /// Serves the batch on the owner in same-job runs and returns the
    /// responses in submission order. Envelopes naming a job no unit owns
    /// are rejected without side effects. System-wide envelopes
    /// ([`Request::Stats`]) act as barriers — all earlier envelopes
    /// complete first, exactly the observation point sequential
    /// submission would give them.
    fn submit_batch(&mut self, now: SimTime, requests: &[Request]) -> Vec<Response> {
        let requests = requests.to_vec();
        self.call(move |owned| owned.submit_batch(now, &requests))
    }

    fn window_cost(&mut self, now: SimTime) -> CostBreakdown {
        self.call(move |owned| {
            owned
                .units
                .iter_mut()
                .fold(CostBreakdown::ZERO, |acc, unit| acc + unit.window_cost(now))
        })
    }

    fn infra_cost(&mut self, now: SimTime) -> Cost {
        self.call(move |owned| {
            owned
                .units
                .iter_mut()
                .fold(Cost::ZERO, |acc, unit| acc + unit.infra_cost(now))
        })
    }
}

impl<U: ShardUnit + 'static> Drop for ShardedExecutor<U> {
    fn drop(&mut self) {
        self.owner.take(); // close the channel: the owner loop exits
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<U: ShardUnit + 'static> std::fmt::Debug for ShardedExecutor<U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedExecutor")
            .field("label", &self.label)
            .field("threads", &self.threads.len())
            .finish()
    }
}

// The executor itself crosses thread boundaries (e.g. a test harness
// driving it from a spawned thread); its channels make that safe by
// construction — keep it a compile-time fact.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ShardedExecutor<FlStore>>();
};

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
        let units = exec.into_units();
        assert!(
            units.iter().all(|unit| unit.tracker().is_empty()),
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
    fn into_units_returns_everything_in_job_order() {
        let (front, _) = loaded_front(&[3, 1, 2]);
        let exec = ShardedExecutor::from_tenants(front, 2);
        let units = exec.into_units();
        let jobs: Vec<u32> = units.iter().map(|u| u.owned_job().as_u32()).collect();
        assert_eq!(jobs, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_executor_is_rejected() {
        let _ = ShardedExecutor::<FlStore>::new(Vec::new(), 2);
    }

    #[test]
    fn hot_tenant_serves_match_sequential_under_stealing() {
        // One job, four threads: the owner runs every serve's bookkeeping
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

    #[test]
    fn idle_helpers_park_instead_of_spinning() {
        // One helper, many planes. On each plane the helper runs the one
        // kernel, and the owner then holds the plane open for a fixed
        // number of its own turns before closing it — the drain that
        // outlasts the helper's share. A spinning helper counts an idle
        // iteration per turn it gets meanwhile (tens of thousands over
        // the run); a parking one counts at most one before the push and
        // one after its kernel, plus the rare spurious wake-up.
        const PLANES: usize = 200;
        const OWNER_TURNS: usize = 200;
        let (wake, planes) = mpsc::channel::<Arc<StealPlane>>();
        let helper = std::thread::spawn(move || {
            while let Ok(plane) = planes.recv() {
                plane.assist();
            }
        });
        let helpers = vec![wake];
        let (mut parks, mut unparks) = (0, 0);
        for slot in 0..PLANES {
            let open = StealPlane::open(&helpers);
            let plane = Arc::clone(&open.0);
            let (reply, replies) = mpsc::channel();
            plane.push(StealTask {
                slot,
                work: DeferredResponse::Ready(Response::Evicted { was_cached: false }),
                reply,
            });
            assert_eq!(replies.recv().expect("the helper ran it").0, slot);
            for _ in 0..OWNER_TURNS {
                std::thread::yield_now();
            }
            drop(open);
            let state = plane.state.lock();
            assert!(!state.open && state.parked.is_empty(), "close wakes all");
            parks += state.parks;
            unparks += state.unparks;
        }
        drop(helpers);
        helper.join().expect("the helper exits when the owner does");
        assert!(parks > 0, "an idle helper parks");
        assert!(
            parks <= 3 * PLANES,
            "{parks} idle iterations over {PLANES} planes: the helper spins"
        );
        assert_eq!(unparks, parks, "every park is answered by one unpark");
    }
}
