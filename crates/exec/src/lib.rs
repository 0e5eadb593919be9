//! # flstore-exec — the sharded concurrent executor
//!
//! The parallel serving plane behind the typed front door: a
//! [`ShardedExecutor`] implements [`Service`] by partitioning envelopes by
//! [`JobId`] hash across N worker threads and deterministically merging
//! the responses back into submission order. Submitting a batch through
//! the executor is **bit-for-bit equivalent** to submitting the same
//! envelopes sequentially to the systems it wraps — the property harness
//! in `flstore-core` (`tests/api_batch.rs`) holds that line — so every
//! figure, report, and ledger stays byte-identical while the wall-clock
//! cost of serving scales with cores.
//!
//! ## Ownership model (shard-per-core, route-by-key)
//!
//! Each worker thread *owns* its slice of serving state outright: whole
//! [`ShardUnit`] deployments (an [`FlStore`], a baseline) move onto the
//! worker at construction and never migrate. The hot path takes no shared
//! lock — a shard mutates only what it owns, and the merge is plain
//! message passing. The one intentionally shared component is the
//! cross-shard [`RequestTracker`] (the paper's §4.3 dictionary): workers
//! on every thread record dispatch/completion through its internal
//! `RwLock`, exactly the shared-front-end role the paper gives it.
//!
//! ## Work stealing (intra-job parallelism)
//!
//! Job-hash routing alone caps a *single hot tenant* at one core: every
//! envelope for that job lands on its owner shard while the other workers
//! idle. The executor therefore splits each serve into its two halves —
//! the owner-serialized bookkeeping (cache lookups, ledger, placement) and
//! the *pure* workload kernel — via
//! [`ShardUnit::submit_batch_deferred`]. The owner runs the bookkeeping in
//! submission order, then publishes the deferred kernels onto a per-flush
//! `StealPlane`: one deque per worker behind one consolidated
//! (lock-order-named) mutex each, never nested. Idle workers receive an
//! `Assist` command and steal kernels across shard boundaries; owners help
//! drain the plane before blocking on their own results. Kernels are pure
//! functions over `Arc`-captured values, so where or when they run cannot
//! change a byte of any response, ledger entry, or window cost — the
//! responses are merged back by submission index exactly as before.
//!
//! ## Determinism
//!
//! * Envelopes routed to the same job are executed in submission order on
//!   one shard; different jobs share no state, so any cross-shard
//!   interleaving yields the same per-unit results.
//! * Responses carry their submission index and are merged back in order.
//! * System-wide envelopes ([`Request::Stats`]) are barriers: every prior
//!   envelope completes on every shard first, then the aggregate is
//!   computed in job order — the same observation point a sequential
//!   submission would see.
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

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

use parking_lot::Mutex;

use flstore_baselines::agg::AggregatorBaseline;
use flstore_core::api::{ApiError, DeferredResponse, Request, Response, Service, StatsReport};
use flstore_core::quota::{pressure_plan, QuotaUsage};
use flstore_core::store::FlStore;
use flstore_core::tenancy::MultiTenantStore;
use flstore_core::tracker::RequestTracker;
use flstore_fl::ids::JobId;
use flstore_sim::bytes::ByteSize;
use flstore_sim::cost::{Cost, CostBreakdown};
use flstore_sim::rng::splitmix64;
use flstore_sim::time::SimTime;

/// A serving system the executor can own on one shard: it serves exactly
/// one job's traffic, so routing that job's envelopes to its shard routes
/// *all* state the envelope can touch.
///
/// Multi-job systems shard by decomposition instead:
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

/// Deterministic shard assignment: splitmix64 over the job id. The same
/// job always lands on the same shard for a given shard count, on every
/// run and every machine.
fn shard_of_job(job: JobId, shards: usize) -> usize {
    (splitmix64(u64::from(job.as_u32())) % shards as u64) as usize
}

/// One deferred workload kernel published for any worker to finish. The
/// reply slot is the kernel's index *within its owning run*; the result
/// flows back to the owner, who merges it into submission order.
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

/// The per-flush work-stealing plane: one task deque per worker, each
/// behind one consolidated mutex (no split locks), plus the count of
/// workers still able to publish. Locks are never nested — a task is
/// popped under its queue's lock and *finished after the guard drops* —
/// and each mutex is named so the lock-order detector can identify it in
/// witness stacks.
struct StealPlane {
    queues: Vec<Mutex<VecDeque<StealTask>>>,
    /// Workers still executing a `Batch` segment (and thus still able to
    /// push tasks). Assist workers exit only once this hits zero *and*
    /// every queue is empty.
    producers: AtomicUsize,
}

impl StealPlane {
    fn new(workers: usize, producers: usize) -> Self {
        StealPlane {
            queues: (0..workers)
                .map(|_| Mutex::named(VecDeque::new(), "exec.steal.queue"))
                .collect(),
            producers: AtomicUsize::new(producers),
        }
    }

    /// Publishes one task onto `owner`'s deque.
    fn push(&self, owner: usize, task: StealTask) {
        self.queues[owner].lock().push_back(task);
    }

    /// Takes the next task: `self_id`'s own deque first (oldest first, so
    /// local work resolves in submission order), then steals round-robin
    /// from the other workers' deques.
    fn grab(&self, self_id: usize) -> Option<StealTask> {
        if let Some(task) = self.queues[self_id].lock().pop_front() {
            return Some(task);
        }
        let n = self.queues.len();
        for step in 1..n {
            let victim = (self_id + step) % n;
            if let Some(task) = self.queues[victim].lock().pop_front() {
                return Some(task);
            }
        }
        None
    }

    /// A producer finished its segment and will publish no more tasks.
    /// Release: every push this worker made happens-before any thread that
    /// observes the decrement (the Acquire load in [`StealPlane::idle`]),
    /// so a zero count proves no task can appear afterwards.
    fn retire(&self) {
        self.producers.fetch_sub(1, Ordering::Release);
    }

    /// True once no task exists and none can ever appear. The producer
    /// count must be checked *before* the queues: with zero producers
    /// (Acquire, pairing with the Release in [`StealPlane::retire`]) every
    /// push is already visible, so empty queues are conclusive. Checking
    /// in the opposite order could miss a task pushed between the two
    /// reads.
    fn idle(&self) -> bool {
        if self.producers.load(Ordering::Acquire) != 0 {
            return false;
        }
        self.queues.iter().all(|q| q.lock().is_empty())
    }
}

/// Work and control messages a shard worker understands.
enum Command<U> {
    /// Execute this shard's slice of one submission segment. `items` pairs
    /// each envelope with its submission index; the reply carries the same
    /// indices so the caller can merge responses into submission order.
    /// When a steal plane rides along, this worker defers its serve
    /// kernels onto it (and retires as a producer when done).
    Batch {
        now: SimTime,
        items: Vec<(usize, Request)>,
        plane: Option<Arc<StealPlane>>,
        reply: Sender<Vec<(usize, Response)>>,
    },
    /// Steal deferred kernels from busy workers until the plane drains,
    /// then reply with an (empty) merge chunk so the caller's accounting
    /// is uniform across commands.
    Assist {
        plane: Arc<StealPlane>,
        reply: Sender<Vec<(usize, Response)>>,
    },
    /// Report each owned unit's stats response (for barrier aggregation).
    Stats {
        now: SimTime,
        reply: Sender<Vec<(JobId, Response)>>,
    },
    /// Report each owned unit's quota occupancy (the pressure plane's
    /// input at a Stats barrier).
    QuotaUsage {
        reply: Sender<Vec<(JobId, QuotaUsage)>>,
    },
    /// Shed the planned bytes from each named owned unit (the pressure
    /// plane's reclamation step), in plan order.
    Reclaim {
        needs: Vec<(JobId, ByteSize)>,
        reply: Sender<()>,
    },
    /// Report each owned unit's window cost.
    WindowCost {
        now: SimTime,
        reply: Sender<Vec<(JobId, CostBreakdown)>>,
    },
    /// Report each owned unit's always-on infrastructure cost.
    InfraCost {
        now: SimTime,
        reply: Sender<Vec<(JobId, Cost)>>,
    },
    /// Rendezvous: dispatch a marker into the shared tracker, meet every
    /// other worker on the barrier, then complete and forget the marker.
    /// Because no worker passes the barrier until all have dispatched,
    /// every tracker write provably overlaps writes from the other
    /// threads — a deterministic concurrency exerciser.
    Rendezvous {
        barrier: Arc<Barrier>,
        reply: Sender<()>,
    },
    /// Hand every owned unit back to the caller.
    IntoUnits { reply: Sender<Vec<(JobId, U)>> },
}

/// One worker thread's owned state.
struct Shard<U> {
    id: usize,
    units: Vec<(JobId, U)>,
    index: HashMap<JobId, usize>,
    tracker: Arc<RequestTracker>,
}

impl<U: ShardUnit> Shard<U> {
    fn run(mut self, rx: Receiver<Command<U>>) {
        while let Ok(cmd) = rx.recv() {
            match cmd {
                Command::Batch {
                    now,
                    items,
                    plane,
                    reply,
                } => {
                    let out = self.execute(now, items, plane.as_deref());
                    if let Some(plane) = &plane {
                        plane.retire();
                    }
                    let _ = reply.send(out);
                }
                Command::Assist { plane, reply } => {
                    loop {
                        if let Some(task) = plane.grab(self.id) {
                            task.finish();
                            continue;
                        }
                        if plane.idle() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    let _ = reply.send(Vec::new());
                }
                Command::Stats { now, reply } => {
                    let out = self
                        .units
                        .iter_mut()
                        .map(|(job, unit)| (*job, unit.submit(now, Request::Stats)))
                        .collect();
                    let _ = reply.send(out);
                }
                Command::QuotaUsage { reply } => {
                    let out = self
                        .units
                        .iter()
                        .map(|(job, unit)| (*job, unit.quota_usage()))
                        .collect();
                    let _ = reply.send(out);
                }
                Command::Reclaim { needs, reply } => {
                    for (job, need) in needs {
                        if let Some(&ix) = self.index.get(&job) {
                            self.units[ix].1.reclaim(need);
                        }
                    }
                    let _ = reply.send(());
                }
                Command::WindowCost { now, reply } => {
                    let out = self
                        .units
                        .iter_mut()
                        .map(|(job, unit)| (*job, unit.window_cost(now)))
                        .collect();
                    let _ = reply.send(out);
                }
                Command::InfraCost { now, reply } => {
                    let out = self
                        .units
                        .iter_mut()
                        .map(|(job, unit)| (*job, unit.infra_cost(now)))
                        .collect();
                    let _ = reply.send(out);
                }
                Command::Rendezvous { barrier, reply } => {
                    let marker =
                        flstore_workloads::request::RequestId::new(u64::MAX - self.id as u64);
                    let lane = flstore_serverless::function::FunctionId::from_raw(self.id as u64);
                    self.tracker.dispatch(marker, vec![lane]);
                    barrier.wait();
                    self.tracker.complete(marker);
                    self.tracker.forget(marker);
                    let _ = reply.send(());
                }
                Command::IntoUnits { reply } => {
                    let _ = reply.send(std::mem::take(&mut self.units));
                }
            }
        }
    }

    /// Executes this shard's slice in submission order, grouping runs of
    /// consecutive same-job envelopes into one `submit_batch` call so the
    /// unit amortizes its fixed per-request work across the run. Serve
    /// envelopes are recorded in the shared request tracker around
    /// execution (dispatched to this worker's lane, completed on return).
    fn execute(
        &mut self,
        now: SimTime,
        items: Vec<(usize, Request)>,
        plane: Option<&StealPlane>,
    ) -> Vec<(usize, Response)> {
        let mut out = Vec::with_capacity(items.len());
        let mut slots: Vec<usize> = Vec::new();
        let mut run: Vec<Request> = Vec::new();
        let mut current: Option<JobId> = None;
        // Consume the owned envelopes into same-job runs — the shard never
        // clones a request it already owns.
        for (slot, request) in items {
            let job = request
                .job()
                .expect("the executor routes only job-addressed envelopes to shards");
            if current != Some(job) {
                if let Some(prev) = current {
                    self.flush_run(now, prev, &mut slots, &mut run, &mut out, plane);
                }
                current = Some(job);
            }
            slots.push(slot);
            run.push(request);
        }
        if let Some(job) = current {
            self.flush_run(now, job, &mut slots, &mut run, &mut out, plane);
        }
        out
    }

    /// Serves one same-job run through the owning unit, draining
    /// `slots`/`run` into `out`. With a steal plane the unit's bookkeeping
    /// runs deferred ([`ShardUnit::submit_batch_deferred`]) and the pure
    /// kernels fan out across workers; without one the run executes
    /// inline. Both paths yield bit-identical responses — kernels are
    /// pure, and results merge back by index within the run.
    fn flush_run(
        &mut self,
        now: SimTime,
        job: JobId,
        slots: &mut Vec<usize>,
        run: &mut Vec<Request>,
        out: &mut Vec<(usize, Response)>,
        plane: Option<&StealPlane>,
    ) {
        let lane = flstore_serverless::function::FunctionId::from_raw(self.id as u64);
        let unit_ix = *self
            .index
            .get(&job)
            .expect("routed job is owned by this shard");
        for request in run.iter() {
            if let Request::Serve(w) = request {
                self.tracker.dispatch(w.id, vec![lane]);
            }
        }
        let responses = match plane {
            None => self.units[unit_ix].1.submit_batch(now, run),
            Some(plane) => {
                let deferred = self.units[unit_ix].1.submit_batch_deferred(now, run);
                debug_assert_eq!(deferred.len(), run.len());
                let mut resolved: Vec<Option<Response>> = Vec::new();
                resolved.resize_with(deferred.len(), || None);
                let (tx, rx) = mpsc::channel();
                let mut outstanding = 0usize;
                for (i, response) in deferred.into_iter().enumerate() {
                    match response {
                        DeferredResponse::Ready(response) => resolved[i] = Some(response),
                        pending => {
                            outstanding += 1;
                            plane.push(
                                self.id,
                                StealTask {
                                    slot: i,
                                    work: pending,
                                    reply: tx.clone(),
                                },
                            );
                        }
                    }
                }
                // Drop the publishing handle so only in-flight tasks keep
                // the channel open: a thief dying mid-kernel closes it and
                // the recv below reports the loss instead of hanging.
                drop(tx);
                // Help first — own deque in submission order, then steal
                // from the other workers — and only then block for results
                // still computing on thieves.
                while let Some(task) = plane.grab(self.id) {
                    task.finish();
                }
                for _ in 0..outstanding {
                    let (i, response) = rx.recv().expect("a shard worker died mid-serve");
                    resolved[i] = Some(response);
                }
                resolved
                    .into_iter()
                    .map(|r| r.expect("every deferred slot resolves"))
                    .collect()
            }
        };
        debug_assert_eq!(responses.len(), run.len());
        for ((slot, request), response) in slots.drain(..).zip(run.drain(..)).zip(responses) {
            if let Request::Serve(w) = &request {
                self.tracker.complete(w.id);
            }
            out.push((slot, response));
        }
    }
}

/// A handle to one worker thread.
struct Worker<U> {
    sender: Option<Sender<Command<U>>>,
    handle: Option<JoinHandle<()>>,
}

/// The sharded concurrent executor: N worker threads, each owning a
/// disjoint set of per-job serving units, behind one [`Service`] facade.
///
/// See the crate docs for the ownership and determinism model. Construct
/// with [`ShardedExecutor::new`] (explicit units) or
/// [`ShardedExecutor::from_tenants`] (split a multi-tenant front end).
pub struct ShardedExecutor<U: ShardUnit + 'static> {
    workers: Vec<Worker<U>>,
    route: HashMap<JobId, usize>,
    /// All owned jobs, sorted — the deterministic aggregation order.
    jobs: Vec<JobId>,
    label: String,
    tenants: usize,
    /// Whether this plane presents as a multi-tenant front end (label and
    /// aggregated Stats), even with one tenant — true for
    /// [`ShardedExecutor::from_tenants`], so wrapping a 1-tenant front is
    /// still bit-for-bit identical to it.
    tenancy: bool,
    /// Aggregate residency budget carried over from the wrapped
    /// [`MultiTenantStore`]: the cross-tenant pressure pass runs at Stats
    /// barriers, exactly where the sequential front end runs it.
    global_budget: Option<ByteSize>,
    tracker: Arc<RequestTracker>,
}

impl ShardedExecutor<FlStore> {
    /// Splits a multi-tenant front end into its isolated per-job
    /// deployments and distributes them across `shards` workers. The
    /// executor then serves exactly what the front end served —
    /// bit-for-bit, label and aggregated Stats included (even with a
    /// single tenant) — while tenants on different shards serve in
    /// parallel.
    ///
    /// # Panics
    ///
    /// Panics if the front end has no registered tenants or `shards` is
    /// zero.
    pub fn from_tenants(front: MultiTenantStore, shards: usize) -> Self {
        let global_budget = front.global_budget();
        let units: Vec<FlStore> = front
            .into_tenants()
            .into_iter()
            .map(|(_, store)| store)
            .collect();
        let mut exec = ShardedExecutor::new(units, shards);
        exec.tenancy = true;
        exec.global_budget = global_budget;
        exec.label = format!("FLStore-MT({})", exec.tenants);
        exec
    }
}

impl<U: ShardUnit + 'static> ShardedExecutor<U> {
    /// Spawns `shards` worker threads and distributes `units` across them
    /// by job-id hash. A single unit reports itself verbatim (label,
    /// stats, costs); multiple units report as the multi-tenant front end
    /// they decompose ([`MultiTenantStore`]'s label and aggregates), so
    /// either wrapping is indistinguishable from its sequential original.
    /// (A front end split via [`ShardedExecutor::from_tenants`] keeps the
    /// multi-tenant identity even with one tenant.)
    ///
    /// # Panics
    ///
    /// Panics if `units` is empty, `shards` is zero, or two units own the
    /// same job.
    pub fn new(mut units: Vec<U>, shards: usize) -> Self {
        assert!(!units.is_empty(), "an executor needs at least one unit");
        assert!(shards >= 1, "an executor needs at least one shard");
        units.sort_by_key(|u| u.owned_job());
        let jobs: Vec<JobId> = units.iter().map(|u| u.owned_job()).collect();
        for pair in jobs.windows(2) {
            assert!(
                pair[0] != pair[1],
                "two units own {}: routing would be ambiguous",
                pair[0]
            );
        }
        let label = if units.len() == 1 {
            units[0].label()
        } else {
            format!("FLStore-MT({})", units.len())
        };
        let tenants = units.len();
        let tracker = Arc::new(RequestTracker::new());

        let mut per_shard: Vec<Vec<(JobId, U)>> = (0..shards).map(|_| Vec::new()).collect();
        let mut route = HashMap::with_capacity(units.len());
        for unit in units {
            let job = unit.owned_job();
            let shard = shard_of_job(job, shards);
            route.insert(job, shard);
            per_shard[shard].push((job, unit));
        }

        let workers = per_shard
            .into_iter()
            .enumerate()
            .map(|(id, units)| {
                let index = units
                    .iter()
                    .enumerate()
                    .map(|(i, (job, _))| (*job, i))
                    .collect();
                let shard = Shard {
                    id,
                    units,
                    index,
                    tracker: Arc::clone(&tracker),
                };
                let (tx, rx) = mpsc::channel();
                let handle = std::thread::Builder::new()
                    .name(format!("flstore-shard-{id}"))
                    .spawn(move || shard.run(rx))
                    .expect("worker threads spawn");
                Worker {
                    sender: Some(tx),
                    handle: Some(handle),
                }
            })
            .collect();

        ShardedExecutor {
            workers,
            route,
            jobs,
            label,
            tenants,
            tenancy: tenants > 1,
            global_budget: None,
            tracker,
        }
    }

    /// Number of worker shards (including idle ones owning no unit).
    pub fn shard_count(&self) -> usize {
        self.workers.len()
    }

    /// Number of serving units (tenants) distributed across the shards.
    pub fn unit_count(&self) -> usize {
        self.tenants
    }

    /// The shard a job's envelopes route to, or `None` for foreign jobs.
    pub fn shard_of(&self, job: JobId) -> Option<usize> {
        self.route.get(&job).copied()
    }

    /// Every job this plane serves, sorted.
    pub fn jobs(&self) -> &[JobId] {
        &self.jobs
    }

    /// The cross-shard request tracker (the paper's §4.3 dictionary):
    /// every worker thread records serve dispatch/completion here through
    /// the tracker's internal `RwLock`.
    pub fn tracker(&self) -> &RequestTracker {
        &self.tracker
    }

    /// Proves all worker threads are alive *concurrently*: every worker
    /// dispatches a marker into the shared tracker, meets the others on a
    /// barrier (so all dispatches happen before any completion), then
    /// completes and forgets its marker. Returns the number of workers
    /// that made the rendezvous (always the shard count).
    ///
    /// Takes `&mut self` (like submission) so two rendezvous cannot race:
    /// overlapping barrier broadcasts could interleave differently on
    /// different workers' queues and deadlock the plane.
    pub fn rendezvous(&mut self) -> usize {
        let barrier = Arc::new(Barrier::new(self.workers.len()));
        let (tx, rx) = mpsc::channel();
        for worker in &self.workers {
            let sender = worker.sender.as_ref().expect("workers live until drop");
            sender
                .send(Command::Rendezvous {
                    barrier: Arc::clone(&barrier),
                    reply: tx.clone(),
                })
                .expect("worker accepts commands");
        }
        drop(tx);
        rx.iter().count()
    }

    /// Shuts the plane down and hands every serving unit back, in job
    /// order — so wrapped deployments can be inspected (or re-wrapped)
    /// after a drive.
    pub fn into_units(self) -> Vec<U> {
        let (tx, rx) = mpsc::channel();
        for worker in &self.workers {
            let sender = worker.sender.as_ref().expect("workers live until drop");
            sender
                .send(Command::IntoUnits { reply: tx.clone() })
                .expect("worker accepts commands");
        }
        drop(tx);
        let mut units: Vec<(JobId, U)> = rx.iter().flatten().collect();
        units.sort_by_key(|(job, _)| *job);
        units.into_iter().map(|(_, unit)| unit).collect()
        // `self` drops here: channels close, workers exit, threads join.
    }

    /// Sends `make(reply)` to every worker and collects the per-job
    /// replies of all shards, sorted by job.
    fn gather<T>(&self, make: impl Fn(Sender<Vec<(JobId, T)>>) -> Command<U>) -> Vec<(JobId, T)>
    where
        T: Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        for worker in &self.workers {
            let sender = worker.sender.as_ref().expect("workers live until drop");
            sender
                .send(make(tx.clone()))
                .expect("worker accepts commands");
        }
        drop(tx);
        let mut rows: Vec<(JobId, T)> = rx.iter().flatten().collect();
        assert_eq!(
            rows.len(),
            self.tenants,
            "a shard worker died before reporting"
        );
        rows.sort_by_key(|(job, _)| *job);
        rows
    }

    /// Fans the accumulated per-shard queues out to the workers and merges
    /// the responses back into `responses` by submission index. With more
    /// than one worker, a [`StealPlane`] rides along: busy workers defer
    /// their serve kernels onto it and idle workers are sent to assist, so
    /// even a single hot job's serves spread across every core.
    fn flush(
        &self,
        now: SimTime,
        pending: &mut [Vec<(usize, Request)>],
        responses: &mut [Option<Response>],
    ) {
        let busy: Vec<bool> = pending.iter().map(|items| !items.is_empty()).collect();
        let producers = busy.iter().filter(|&&b| b).count();
        if producers == 0 {
            return;
        }
        // A single-worker plane has nobody to steal from or assist: skip
        // the deferral machinery and execute inline.
        let plane = (self.workers.len() > 1)
            .then(|| Arc::new(StealPlane::new(self.workers.len(), producers)));
        let (tx, rx) = mpsc::channel();
        let mut expected = 0;
        for (shard, items) in pending.iter_mut().enumerate() {
            let sender = self.workers[shard]
                .sender
                .as_ref()
                .expect("workers live until drop");
            if busy[shard] {
                expected += items.len();
                sender
                    .send(Command::Batch {
                        now,
                        items: std::mem::take(items),
                        plane: plane.clone(),
                        reply: tx.clone(),
                    })
                    .expect("worker accepts commands");
            } else if let Some(plane) = &plane {
                sender
                    .send(Command::Assist {
                        plane: Arc::clone(plane),
                        reply: tx.clone(),
                    })
                    .expect("worker accepts commands");
            }
        }
        drop(tx);
        let mut merged = 0;
        for chunk in rx.iter() {
            for (slot, response) in chunk {
                responses[slot] = Some(response);
                merged += 1;
            }
        }
        assert_eq!(merged, expected, "a shard worker died mid-batch");
    }

    /// One cross-tenant pressure pass at a Stats barrier: gathers every
    /// unit's occupancy, computes the same deterministic
    /// [`pressure_plan`] the sequential front end computes, and tells the
    /// shard owning each over-budget tenant to shed its victims. Quotas
    /// themselves are enforced *inside* each worker-owned shard (a strict
    /// unit bounds itself); only this global fold needs the barrier.
    fn pressure_pass(&self) {
        let Some(global) = self.global_budget else {
            return;
        };
        let usages: Vec<QuotaUsage> = self
            .gather(|reply| Command::QuotaUsage { reply })
            .into_iter()
            .map(|(_, usage)| usage)
            .collect();
        let plan = pressure_plan(&usages, global);
        if plan.is_empty() {
            return;
        }
        let mut per_shard: Vec<Vec<(JobId, ByteSize)>> =
            (0..self.workers.len()).map(|_| Vec::new()).collect();
        for (job, need) in plan {
            let shard = *self.route.get(&job).expect("planned jobs are owned");
            per_shard[shard].push((job, need));
        }
        let (tx, rx) = mpsc::channel();
        let mut expected = 0;
        for (shard, needs) in per_shard.into_iter().enumerate() {
            if needs.is_empty() {
                continue;
            }
            expected += 1;
            let sender = self.workers[shard]
                .sender
                .as_ref()
                .expect("workers live until drop");
            sender
                .send(Command::Reclaim {
                    needs,
                    reply: tx.clone(),
                })
                .expect("worker accepts commands");
        }
        drop(tx);
        assert_eq!(
            rx.iter().count(),
            expected,
            "a shard worker died mid-reclaim"
        );
    }

    /// The barrier aggregate answering [`Request::Stats`]: the pressure
    /// pass runs first (the same trigger point the sequential front end
    /// uses), then per-unit stats are summed in job order, labelled as the
    /// (multi-tenant) plane. A single-unit executor forwards the unit's
    /// own report verbatim.
    fn stats_response(&self, now: SimTime) -> Response {
        self.pressure_pass();
        let mut per_unit = self.gather(|reply| Command::Stats { now, reply });
        if !self.tenancy {
            return per_unit.remove(0).1;
        }
        let per_unit = per_unit.into_iter().map(|(_, response)| match response {
            Response::Stats(stats) => stats,
            _ => unreachable!("units answer Stats envelopes with stats"),
        });
        Response::Stats(StatsReport::fold(
            self.label.clone(),
            self.tenants,
            per_unit,
        ))
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

    /// Partitions the batch across shards by job hash and merges responses
    /// back into submission order. Admission runs here: envelopes naming a
    /// job no shard owns are rejected without dispatch (and without side
    /// effects). System-wide envelopes ([`Request::Stats`]) act as
    /// barriers — all earlier envelopes complete first, exactly the
    /// observation point sequential submission would give them.
    fn submit_batch(&mut self, now: SimTime, requests: &[Request]) -> Vec<Response> {
        let mut responses: Vec<Option<Response>> = vec![None; requests.len()];
        let mut pending: Vec<Vec<(usize, Request)>> =
            (0..self.workers.len()).map(|_| Vec::new()).collect();
        for (slot, request) in requests.iter().enumerate() {
            match request.job() {
                Some(job) => match self.route.get(&job) {
                    Some(&shard) => pending[shard].push((slot, request.clone())),
                    None => {
                        responses[slot] = Some(Response::Rejected(ApiError::UnknownJob { job }));
                    }
                },
                None => {
                    self.flush(now, &mut pending, &mut responses);
                    responses[slot] = Some(self.stats_response(now));
                }
            }
        }
        self.flush(now, &mut pending, &mut responses);
        responses
            .into_iter()
            .map(|r| r.expect("every envelope slot is filled"))
            .collect()
    }

    fn window_cost(&mut self, now: SimTime) -> CostBreakdown {
        self.gather(|reply| Command::WindowCost { now, reply })
            .into_iter()
            .fold(CostBreakdown::ZERO, |acc, (_, cost)| acc + cost)
    }

    fn infra_cost(&mut self, now: SimTime) -> Cost {
        self.gather(|reply| Command::InfraCost { now, reply })
            .into_iter()
            .fold(Cost::ZERO, |acc, (_, cost)| acc + cost)
    }
}

impl<U: ShardUnit + 'static> Drop for ShardedExecutor<U> {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            worker.sender.take(); // close the channel: the worker loop exits
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

impl<U: ShardUnit + 'static> std::fmt::Debug for ShardedExecutor<U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedExecutor")
            .field("label", &self.label)
            .field("shards", &self.workers.len())
            .field("units", &self.tenants)
            .finish()
    }
}

// The executor itself crosses thread boundaries (e.g. a test harness
// driving it from a spawned thread); its channels and Arcs make that safe
// by construction — keep it a compile-time fact.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ShardedExecutor<FlStore>>();
};

#[cfg(test)]
mod tests {
    use super::*;
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
                    .ingest_round(now, cfg.job, &record)
                    .expect("registered");
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
        assert!(exec.tracker().is_empty(), "rejections are never dispatched");
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
        assert_eq!(exec.unit_count(), 3);
        let units = exec.into_units();
        let jobs: Vec<u32> = units.iter().map(|u| u.owned_job().as_u32()).collect();
        assert_eq!(jobs, vec![1, 2, 3]);
    }

    #[test]
    fn rendezvous_meets_every_worker() {
        let (front, _) = loaded_front(&[1]);
        let mut exec = ShardedExecutor::from_tenants(front, 3);
        assert_eq!(exec.rendezvous(), 3);
        assert!(exec.tracker().is_empty(), "markers are forgotten");
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_executor_is_rejected() {
        let _ = ShardedExecutor::<FlStore>::new(Vec::new(), 2);
    }

    #[test]
    fn hot_tenant_serves_match_sequential_under_stealing() {
        // One job, many workers: every serve lands on the owner shard and
        // its kernels are stolen by the three idle assists. The responses
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
    fn stealing_keeps_tracker_attribution_on_the_owner_lane() {
        // Kernels may finish on any worker, but dispatch/completion are
        // recorded by the owner: every serve's tracker entry must name
        // exactly the owner shard's lane.
        let (front, round) = loaded_front(&[1]);
        let mut exec = ShardedExecutor::from_tenants(front, 4);
        let owner = exec.shard_of(JobId::new(1)).expect("job 1 is owned");
        let lane = flstore_serverless::function::FunctionId::from_raw(owner as u64);
        let now = SimTime::from_secs(3600);
        let batch: Vec<Request> = (0..16).map(|i| serve(i + 1, 1, round)).collect();
        let responses = exec.submit_batch(now, &batch);
        assert!(responses.iter().all(|r| r.error().is_none()));
        for i in 0..16u64 {
            let id = RequestId::new(i + 1);
            let entry = exec.tracker().entry(id).expect("serve was dispatched");
            assert_eq!(entry.functions, vec![lane], "request {id:?}");
            assert!(entry.done, "request {id:?} completed");
        }
    }

    #[test]
    fn routing_is_stable() {
        for shards in [1usize, 2, 4, 8] {
            for job in 1..64u32 {
                let a = shard_of_job(JobId::new(job), shards);
                let b = shard_of_job(JobId::new(job), shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
    }
}
