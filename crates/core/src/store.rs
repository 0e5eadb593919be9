//! FLStore: the unified data/compute plane (paper §4).
//!
//! Wires the pieces together: the [`CacheEngine`] tracks placements across
//! function memories, the [`RequestTracker`] routes and monitors requests,
//! a [`CachingPolicy`] classifies hot/cold data, the serverless
//! [`Platform`] holds cached objects next to compute, and the persistent
//! [`ObjectStore`] backs everything for durability.
//!
//! Request path (paper Fig. 6): request → tracker → engine lookup →
//! locality-aware execution on the function(s) holding the data →
//! policy-driven prefetch/evict → response. Misses fall back to the
//! persistent store, exactly like conventional frameworks — which is why
//! FLStore's worst case matches the baseline and its common case removes
//! the communication bottleneck entirely.

use flstore_cloud::blob::Blob;
use flstore_cloud::network::NetworkProfile;
use flstore_cloud::objstore::{ObjectStore, ObjectStoreConfig};
use flstore_fl::ids::JobId;
use flstore_fl::job::RoundRecord;
use flstore_fl::metadata::{round_entries, MetaKey, MetaValue, SharedValue};
use flstore_fl::zoo::ModelArch;
use flstore_serverless::function::{FunctionConfig, FunctionId};
use flstore_serverless::platform::{Platform, PlatformConfig};
use flstore_sim::bytes::ByteSize;
use flstore_sim::cost::CostBreakdown;
use flstore_sim::latency::LatencyBreakdown;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{JobCatalog, WorkloadRequest};
use flstore_workloads::run::{prepare, PreparedExecute, WorkloadOutcome};

use serde::{Deserialize, Serialize};

use std::collections::HashMap;

use crate::durable::{DurabilityConfig, LedgerEvent, RecordSink, SpillBackend, StateDigest};
use crate::engine::CacheEngine;
use crate::error::FlStoreError;
use crate::policy::CachingPolicy;
use crate::quota::{QuotaPolicy, QuotaUsage, TenantQuota};
use crate::tracker::RequestTracker;
use flstore_workloads::service::{RequestOutcome, ServiceLedger};

/// Configuration of an [`FlStore`] deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlStoreConfig {
    /// Seed for platform randomness (reclamation sampling).
    pub seed: u64,
    /// Function size (the paper uses 1 vCPU/2 GB for small models,
    /// 2 vCPU/4 GB for large ones).
    pub function_config: FunctionConfig,
    /// Number of replica rings (the paper's FI: function instances per
    /// cached object). 1 = no replication.
    pub replication: usize,
    /// Cache capacity per ring; `None` scales out with new functions as
    /// needed (FLStore), `Some(half the working set)` models
    /// FLStore-limited.
    pub capacity_per_ring: Option<ByteSize>,
    /// Serverless platform parameters (cold start, reclamation, billing).
    pub platform: PlatformConfig,
    /// Persistent-store parameters.
    pub objstore: ObjectStoreConfig,
    /// Fixed routing overhead per request (tracker + engine lookups; the
    /// paper measures these dictionaries at <1 ms, §5.5).
    pub routing_overhead: SimDuration,
    /// Per-tenant memory budget (paper Appendix A resource governance).
    /// `None` (the default) leaves residency unbounded, exactly the
    /// pre-quota behaviour; `Strict` is enforced inside this deployment,
    /// `Elastic` is reclaimed by the multi-tenant pressure plane.
    pub quota: Option<TenantQuota>,
    /// Durability knobs: ledger flush cadence, snapshot cadence, and the
    /// disk-spill cold tier. The default ([`DurabilityConfig::DISABLED`])
    /// changes nothing about the store's behaviour.
    pub durability: DurabilityConfig,
    /// Key-shard count for the cache engine (intra-job parallelism): the
    /// engine partitions placement/decoded state into this many
    /// [`MetaKey`]-routed shards. `0` (the
    /// serde default, so pre-existing serialized configs replay
    /// unchanged) defers to the process-wide default
    /// ([`crate::engine::default_key_shards`]). Observable behaviour is
    /// shard-count independent; only serve-phase parallelism changes.
    #[serde(default)]
    pub key_shards: usize,
}

impl FlStoreConfig {
    /// The paper's deployment for a given model: function size tracks model
    /// size (§5.1).
    pub fn for_model(model: &ModelArch) -> Self {
        let function_config = if model.size_mb > 50.0 {
            FunctionConfig::LARGE
        } else {
            FunctionConfig::SMALL
        };
        FlStoreConfig {
            seed: 0xF157,
            function_config,
            replication: 1,
            capacity_per_ring: None,
            platform: PlatformConfig::default(),
            objstore: ObjectStoreConfig::default(),
            routing_overhead: SimDuration::from_millis(2),
            quota: None,
            durability: DurabilityConfig::DISABLED,
            key_shards: 0,
        }
    }

    /// The engine key-shard count this config resolves to: its own
    /// `key_shards` if set, else the process-wide default.
    fn resolved_key_shards(&self) -> usize {
        if self.key_shards == 0 {
            crate::engine::default_key_shards()
        } else {
            self.key_shards
        }
    }
}

/// A served request: the workload result plus the measured latency/cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedRequest {
    /// The workload's computed output.
    pub outcome: WorkloadOutcome,
    /// Measured latency, cost, and cache behaviour.
    pub measured: RequestOutcome,
}

/// A serve whose bookkeeping is committed but whose pure kernel has not
/// run yet.
///
/// The store's serve path splits in two halves: everything that touches
/// shared state — hit/miss classification, cache mutation, tracker
/// dispatch/complete, billing, the outcome ledger — runs on the owning
/// thread and is finished by the time this value exists; the kernel
/// compute ([`PreparedExecute`]) is pure and `Send`, so any worker may
/// [`finish`](PendingServe::finish) it. A deferred serve finished on a
/// stealing worker is bit-for-bit the [`ServedRequest`] the owner would
/// have produced inline.
#[derive(Debug, Clone)]
pub struct PendingServe {
    /// Measured latency/cost/cache behaviour — already pushed to the
    /// store's outcome ledger.
    pub measured: RequestOutcome,
    task: PreparedExecute,
}

impl PendingServe {
    /// Runs the deferred kernel and assembles the response.
    pub fn finish(self) -> ServedRequest {
        ServedRequest {
            outcome: self.task.compute(),
            measured: self.measured,
        }
    }
}

/// Receipt for ingesting one round of FL metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Objects classified hot and cached.
    pub cached: usize,
    /// Objects evicted as obsolete.
    pub evicted: usize,
    /// Objects written through to the persistent store.
    pub backed_up: usize,
    /// Policy-hot objects the strict per-tenant quota refused to admit
    /// (they remain in the persistent store only). Always zero without a
    /// `Strict` quota.
    pub quota_denied: usize,
}

/// The FLStore serving system.
///
/// # Examples
///
/// ```
/// use flstore_core::store::{FlStore, FlStoreConfig};
/// use flstore_core::policy::TailoredPolicy;
/// use flstore_fl::ids::JobId;
/// use flstore_fl::job::{FlJobConfig, FlJobSim};
/// use flstore_sim::time::SimTime;
///
/// let cfg = FlJobConfig::quick_test(JobId::new(1));
/// let mut store = FlStore::new(
///     FlStoreConfig::for_model(&cfg.model),
///     Box::new(TailoredPolicy::new()),
///     cfg.job,
///     cfg.model,
/// );
/// let mut sim = FlJobSim::new(cfg);
/// let record = sim.next().expect("rounds");
/// let receipt = store.ingest_round(SimTime::ZERO, &record);
/// assert!(receipt.cached > 0);
/// ```
#[derive(Debug)]
pub struct FlStore {
    cfg: FlStoreConfig,
    policy: Box<dyn CachingPolicy>,
    platform: Platform,
    engine: CacheEngine,
    tracker: RequestTracker,
    persistent: ObjectStore,
    catalog: JobCatalog,
    rings: Vec<Vec<FunctionId>>,
    ring_of: HashMap<FunctionId, usize>,
    ledger: ServiceLedger,
    last_keepalive: SimTime,
    faults_observed: u64,
    sink: Option<Box<dyn RecordSink>>,
    spill: Option<Box<dyn SpillBackend>>,
    spill_faults: u64,
}

impl FlStore {
    /// Builds a deployment for one job.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.replication` is zero.
    pub fn new(
        cfg: FlStoreConfig,
        policy: Box<dyn CachingPolicy>,
        job: JobId,
        model: ModelArch,
    ) -> Self {
        assert!(
            cfg.replication >= 1,
            "replication factor must be at least 1"
        );
        let platform = Platform::new(cfg.platform, cfg.seed);
        let persistent = ObjectStore::new(cfg.objstore);
        let rings = vec![Vec::new(); cfg.replication];
        FlStore {
            platform,
            persistent,
            engine: CacheEngine::with_key_shards(cfg.resolved_key_shards()),
            tracker: RequestTracker::new(),
            catalog: JobCatalog::new(job, model),
            rings,
            ring_of: HashMap::new(),
            ledger: ServiceLedger::new(),
            last_keepalive: SimTime::ZERO,
            faults_observed: 0,
            sink: None,
            spill: None,
            spill_faults: 0,
            policy,
            cfg,
        }
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The request/response ledger.
    pub fn ledger(&self) -> &ServiceLedger {
        &self.ledger
    }

    /// The cache engine (placement index).
    pub fn engine(&self) -> &CacheEngine {
        &self.engine
    }

    /// The request tracker.
    pub fn tracker(&self) -> &RequestTracker {
        &self.tracker
    }

    /// The serverless platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The persistent store.
    pub fn persistent(&self) -> &ObjectStore {
        &self.persistent
    }

    /// The job catalog.
    pub fn catalog(&self) -> &JobCatalog {
        &self.catalog
    }

    /// Replica reclamations observed so far.
    pub fn faults_observed(&self) -> u64 {
        self.faults_observed
    }

    /// This deployment's configured memory budget, if any.
    pub fn quota(&self) -> Option<TenantQuota> {
        self.cfg.quota
    }

    /// The deployment's full configuration (durability backends persist it
    /// so recovery can rebuild an identical store).
    pub fn config(&self) -> &FlStoreConfig {
        &self.cfg
    }

    /// Spilled objects faulted back from the cold tier so far.
    pub fn spill_faults(&self) -> u64 {
        self.spill_faults
    }

    /// `(objects, logical bytes)` currently resident in the cold tier;
    /// zeros when no spill backend is attached.
    pub fn spill_stats(&self) -> (u64, ByteSize) {
        self.spill
            .as_ref()
            .map(|s| s.stats())
            .unwrap_or((0, ByteSize::ZERO))
    }

    /// Attaches a write-ahead record sink. Every subsequent state-mutating
    /// envelope is appended to it before executing.
    pub fn set_record_sink(&mut self, sink: Box<dyn RecordSink>) {
        self.sink = Some(sink);
    }

    /// Detaches the record sink (flushing is the sink's `Drop`/`flush`
    /// responsibility), returning it to the caller.
    pub fn take_record_sink(&mut self) -> Option<Box<dyn RecordSink>> {
        self.sink.take()
    }

    /// Attaches a cold-tier spill backend. Only read when
    /// `cfg.durability.spill` is also set.
    pub fn set_spill_backend(&mut self, spill: Box<dyn SpillBackend>) {
        self.spill = Some(spill);
    }

    /// Whether the cold tier is active (configured on *and* a backend is
    /// attached).
    fn spill_active(&self) -> bool {
        self.cfg.durability.spill && self.spill.is_some()
    }

    /// The store's durable-state fingerprint: one sorted row per cached
    /// key (identity + policy-relevant metadata + placement) plus the
    /// scalar counters recovery must land on exactly. Read-only — in
    /// particular it does not touch the decoded layer's recency state.
    pub fn durability_digest(&self) -> StateDigest {
        let mut rows: Vec<String> = self
            .engine
            .keys()
            .map(|k| {
                let meta = self.engine.meta(k).expect("keys() yields cached keys");
                let locs = self.engine.locations(k).unwrap_or(&[]);
                format!(
                    "{k} size={} ins={} seq={} freq={} avail={:?} locs={locs:?}",
                    meta.size,
                    meta.inserted_seq,
                    meta.last_access_seq,
                    meta.frequency,
                    meta.available_at,
                )
            })
            .collect();
        rows.sort_unstable();
        StateDigest {
            rows,
            resident: self.resident_bytes(),
            served: self.ledger.outcomes.len(),
            faults: self.faults_observed,
            background_cost: self.ledger.background_cost,
        }
    }

    /// Appends one envelope to the record sink, if attached (write-ahead:
    /// callers log before executing the mutation).
    fn log_event(&mut self, event: LedgerEvent<'_>) {
        if let Some(sink) = self.sink.as_mut() {
            sink.append(event);
        }
    }

    /// Seals the active ledger segment if the sink says it is due —
    /// called *after* the envelope executed, so the embedded digest
    /// describes the state replay must reach.
    fn seal_if_due(&mut self) {
        if self.sink.as_ref().is_some_and(|s| s.should_seal()) {
            let digest = self.durability_digest();
            if let Some(sink) = self.sink.as_mut() {
                sink.seal(&digest);
            }
        }
    }

    /// Resident cache bytes the quota/pressure plane accounts: the logical
    /// bytes tracked by the placement index plus the decoded-value layer's
    /// residency — one number every budgeting decision sees.
    pub fn resident_bytes(&self) -> ByteSize {
        self.engine.bytes_tracked() + self.engine.decoded_resident_bytes()
    }

    /// This tenant's point-in-time quota occupancy row (carried by
    /// `Request::Stats` responses and consumed by the pressure plane).
    pub fn quota_usage(&self) -> QuotaUsage {
        QuotaUsage {
            job: self.catalog.job(),
            resident: self.resident_bytes(),
            quota: self.cfg.quota,
        }
    }

    /// Sheds at least `need` bytes of this tenant's own cache, choosing
    /// victims through the deployment's caching policy (which orders them
    /// deterministically by rank, then full `MetaKey`). Returns the evicted
    /// keys in eviction order — the cross-tenant pressure plane's
    /// reclamation hook. The persistent copies remain the fallback.
    pub fn reclaim(&mut self, need: ByteSize) -> Vec<MetaKey> {
        self.log_event(LedgerEvent::Reclaim { need });
        let victims = self.reclaim_internal(need);
        self.seal_if_due();
        victims
    }

    /// The reclamation body, shared by the logged public entry point and
    /// the admission gates. Internal callers are *not* logged: their
    /// reclaims are deterministic consequences of the envelope that
    /// triggered them, so replay re-derives them.
    fn reclaim_internal(&mut self, need: ByteSize) -> Vec<MetaKey> {
        let victims = self.policy.victims(need, &self.engine);
        for victim in &victims {
            self.remove_key(victim, true);
        }
        victims
    }

    /// Strict-quota admission gate for one object of `size` entering the
    /// cache: within budget admits immediately; over budget first sheds
    /// this tenant's own policy victims, then refuses the object if room
    /// still cannot be made. Elastic and unquota'd deployments always
    /// admit (the pressure plane governs elastic overshoot).
    ///
    /// Admission goes through the engine's [`AdmissionGate`]
    /// (`crate::quota::AdmissionGate`): check-and-reserve is one CAS, so
    /// there is no window between the budget check and the placement in
    /// which another admitter could consume the same headroom. The gate
    /// mirrors `resident_bytes()` exactly (reservations are settled after
    /// every placement), so the decisions are identical to the previous
    /// check-then-place sequence.
    fn quota_admits(&mut self, size: ByteSize) -> bool {
        let Some(quota) = self.cfg.quota else {
            return true;
        };
        if quota.policy != QuotaPolicy::Strict {
            return true;
        }
        // An object larger than the whole budget can never fit: refuse it
        // outright instead of pointlessly wiping the working set trying to
        // make room that does not exist.
        if size > quota.bytes {
            return false;
        }
        if self.engine.admission().try_admit(size, quota.bytes) {
            return true;
        }
        let projected = self.resident_bytes() + size;
        self.reclaim_internal(projected.saturating_sub(quota.bytes));
        self.engine.admission().try_admit(size, quota.bytes)
    }

    /// Restores the strict invariant `resident_bytes() <= budget` after an
    /// operation that may have grown the decoded layer past it (admission
    /// charges blob bytes; decoding afterwards adds `Arc<MetaValue>`
    /// residency). No-op for elastic or unquota'd deployments.
    fn enforce_strict_budget(&mut self) {
        let Some(quota) = self.cfg.quota else {
            return;
        };
        if quota.policy != QuotaPolicy::Strict {
            return;
        }
        loop {
            let resident = self.resident_bytes();
            if resident <= quota.bytes {
                return;
            }
            let before = self.engine.len();
            self.reclaim_internal(resident.saturating_sub(quota.bytes));
            if self.engine.len() == before {
                return; // nothing evictable remains
            }
        }
    }

    /// Total cost over the experiment window ending at `now`: per-request
    /// costs + background (backups, prefetches, ingestion, repair) +
    /// keep-alive pings + persistent storage rent.
    pub fn total_cost(&mut self, now: SimTime) -> CostBreakdown {
        let mut total = self.ledger.total_cost();
        total.infra += self.platform.billing().keepalive_cost;
        total.storage += self.persistent.storage_cost(now);
        total
    }

    /// The latest instant this store has advanced to — its virtual clock.
    /// Replay drives the same advances the original envelopes did, so a
    /// recovered store reports the pre-crash clock; servers seed their
    /// monotonic clamp from it so a restart cannot rewind time.
    pub fn clock(&self) -> SimTime {
        self.last_keepalive
    }

    /// Advances background processes (keep-alive pings) to `now`, handling
    /// any reclamations they discover.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.last_keepalive {
            return;
        }
        let events = self.platform.run_keepalive(self.last_keepalive, now);
        self.last_keepalive = now;
        for (when, id) in events {
            self.handle_reclaimed(when, id);
        }
    }

    fn handle_reclaimed(&mut self, now: SimTime, id: FunctionId) {
        self.faults_observed += 1;
        // Keys that referenced this replica lose it; keys with surviving
        // replicas are repaired by copying from a survivor (async,
        // intra-cloud). Orphaned keys fall back to the persistent store on
        // next access. The control flow lives in the shared
        // [`repair_after_loss`] discipline — the cluster layer repairs
        // node loss through the identical path.
        let _ = crate::placement::repair_after_loss(self, now, id);
    }

    fn ring_used_bytes(&self, ring: usize) -> ByteSize {
        self.rings[ring]
            .iter()
            .filter_map(|id| self.platform.instance(*id))
            .map(|i| i.mem_used())
            .sum()
    }

    /// Places a blob on one function of `ring`, spawning or evicting as the
    /// configuration allows. Returns the hosting function, or `None` if the
    /// object could not be cached.
    fn place_on_ring(
        &mut self,
        now: SimTime,
        ring: usize,
        key: &MetaKey,
        blob: Blob,
    ) -> Option<FunctionId> {
        let size = blob.logical_size();
        // Capacity pressure: evict policy victims first so the placement
        // below can succeed.
        if let Some(cap) = self.cfg.capacity_per_ring {
            let used = self.ring_used_bytes(ring);
            if used + size > cap {
                let need = (used + size).saturating_sub(cap);
                let victims = self.policy.victims(need, &self.engine);
                for v in victims {
                    self.remove_key(&v, true);
                }
                if self.ring_used_bytes(ring) + size > cap {
                    return None; // cannot fit even after shedding
                }
            }
        }
        // First fit among existing ring members.
        let existing = self.rings[ring].iter().copied().find(|id| {
            self.platform
                .instance(*id)
                .map(|i| i.mem_free() >= size)
                .unwrap_or(false)
        });
        let target = match existing {
            Some(id) => id,
            None => {
                let id = self.platform.spawn(now, self.cfg.function_config);
                self.rings[ring].push(id);
                self.ring_of.insert(id, ring);
                id
            }
        };
        match self
            .platform
            .store_object(now, target, key.object_key(), blob)
        {
            Ok(()) => Some(target),
            Err(_) => None, // object larger than a whole function
        }
    }

    fn cache_object(&mut self, now: SimTime, key: MetaKey, blob: Blob, available_at: SimTime) {
        let size = blob.logical_size();
        let mut replicas = Vec::with_capacity(self.cfg.replication);
        for ring in 0..self.cfg.replication {
            if let Some(id) = self.place_on_ring(now, ring, &key, blob.clone()) {
                replicas.push(id);
            }
        }
        if !replicas.is_empty() {
            self.engine.record(key, replicas, size, available_at);
        }
        // A strict-quota admission reserved `size` in the gate; `record`
        // consumed it. If every ring refused placement there is no record
        // and the reservation dangles — settle so the gate keeps
        // mirroring `resident_bytes()` exactly.
        let _ = self.engine.admission().settle();
    }

    /// Removes `key` from every cache layer. Pressure victims
    /// (`spill_victim`) hand their encoded bytes to the cold tier on the
    /// way out; explicit evictions instead *discard* any cold-tier copy —
    /// an obsolete object must never be faulted back.
    fn remove_key(&mut self, key: &MetaKey, spill_victim: bool) {
        if spill_victim && self.spill_active() {
            let source = self.engine.locations(key).and_then(|l| l.first().copied());
            let blob = source
                .and_then(|id| self.platform.instance(id))
                .and_then(|i| i.object(&key.object_key()).cloned());
            if let (Some(blob), Some(spill)) = (blob, self.spill.as_mut()) {
                spill.spill(key, blob.payload(), blob.logical_size());
            }
        } else if !spill_victim {
            if let Some(spill) = self.spill.as_mut() {
                spill.discard(key);
            }
        }
        if let Some(locations) = self.engine.remove(key) {
            for id in locations {
                let _ = self.platform.evict_object(id, &key.object_key());
            }
        }
    }

    /// Evicts `key` from every cache layer (placements, blobs, decoded
    /// handle) — the persistent copy remains the fallback. Returns whether
    /// the key was cached.
    pub fn evict(&mut self, key: &MetaKey) -> bool {
        self.log_event(LedgerEvent::Evict { key });
        let was_cached = self.engine.contains(key);
        self.remove_key(key, false);
        self.seal_if_due();
        was_cached
    }

    /// Ingests one training round's metadata: write-through backup to the
    /// persistent store, policy-driven hot classification into function
    /// memory, and obsolete-data eviction.
    pub fn ingest_round(&mut self, now: SimTime, record: &RoundRecord) -> IngestReceipt {
        self.log_event(LedgerEvent::Ingest { now, record });
        self.advance(now);
        self.catalog.observe_round(record);
        let items = round_entries(record, self.catalog.job(), self.catalog.model());
        let keys: Vec<MetaKey> = items.iter().map(|e| e.key).collect();

        // Durability first: every object is backed up asynchronously.
        let mut backed_up = 0;
        let mut entry_of: HashMap<MetaKey, (SharedValue, Blob)> =
            HashMap::with_capacity(items.len());
        for e in items {
            let cost = self
                .persistent
                .put_async(now, e.key.object_key(), e.blob.clone());
            self.ledger.background_cost += cost;
            entry_of.insert(e.key, (e.value, e.blob));
            backed_up += 1;
        }

        let actions = self.policy.on_ingest(&keys, &self.catalog, &self.engine);
        let mut cached = 0;
        let mut quota_denied = 0;
        for key in &actions.cache {
            if let Some((value, blob)) = entry_of.get(key) {
                // Strict quota gate: a refused object streams nothing (no
                // billing, no placement) — it lives in the persistent store
                // only, and the receipt reports the refusal honestly.
                if !self.quota_admits(blob.logical_size()) {
                    quota_denied += 1;
                    continue;
                }
                // Ingestion billing: one short invocation streams the object
                // into function memory (data arrived with the round; no
                // plane-crossing transfer).
                let dur = NetworkProfile::INTRA_CLOUD.transfer_time(blob.logical_size());
                let cost = self
                    .cfg
                    .platform
                    .pricing
                    .invocation(self.cfg.function_config.memory, dur);
                self.ledger.background_cost.compute += cost;
                self.cache_object(now, *key, blob.clone(), now);
                if self.engine.contains(key) {
                    // The producer already holds the decoded value: seed the
                    // decoded layer so this object is never parsed again.
                    self.engine.decoded_seed(*key, blob, value.clone());
                }
                cached += 1;
            }
        }
        let mut evicted = 0;
        for key in &actions.evict {
            self.remove_key(key, false);
            evicted += 1;
        }
        // Seeding decoded handles may have grown residency past a strict
        // budget the blob-byte admission check could not foresee.
        self.enforce_strict_budget();
        self.seal_if_due();
        IngestReceipt {
            cached,
            evicted,
            backed_up,
            quota_denied,
        }
    }

    /// Serves one non-training request with locality-aware execution: a
    /// batch of one through [`FlStore::serve_batch`], so both paths log,
    /// serve and seal the ledger identically.
    ///
    /// # Errors
    ///
    /// * [`FlStoreError::NoData`] when no ingested round satisfies the
    ///   request;
    /// * [`FlStoreError::Store`] when a miss cannot be satisfied by the
    ///   persistent store either;
    /// * [`FlStoreError::Workload`] when the workload rejects its inputs.
    pub fn serve(
        &mut self,
        now: SimTime,
        request: &WorkloadRequest,
    ) -> Result<ServedRequest, FlStoreError> {
        self.serve_batch(now, std::slice::from_ref(request))
            .pop()
            .expect("a batch of one has one slot")
    }

    /// Serves a batch of requests that share one arrival instant,
    /// amortizing the fixed per-request front-door work: the
    /// replica-liveness/refresh pass (and its placement-index walk) runs
    /// once over the *union* of functions the batch references instead of
    /// once per request. Requests are then resolved in order, so cache
    /// mutations (miss-caching, prefetch, eviction) flow between batch
    /// members exactly as they would under sequential serving.
    ///
    /// Fault attribution is batch-scoped: a replica found reclaimed during
    /// the shared pass marks `recovered_from_fault` on every request in
    /// the batch whose needed keys referenced it.
    ///
    /// # Errors
    ///
    /// Each slot carries the same errors [`FlStore::serve`] returns for
    /// that request; one failing request does not poison its batchmates.
    pub fn serve_batch(
        &mut self,
        now: SimTime,
        requests: &[WorkloadRequest],
    ) -> Vec<Result<ServedRequest, FlStoreError>> {
        // The deferred body commits all bookkeeping in submission order;
        // the kernels it leaves behind are pure, so finishing them here
        // (in order, inline) is observationally identical to the
        // interleaved sequential execution.
        self.serve_batch_deferred(now, requests)
            .into_iter()
            .map(|slot| slot.map(PendingServe::finish))
            .collect()
    }

    /// [`serve_batch`](Self::serve_batch) with the kernel computes left
    /// pending: all shared-state bookkeeping (cache mutation, tracker,
    /// billing, outcome ledger) commits here in submission order; each
    /// `Ok` slot's [`PendingServe`] is `Send` and may be finished on any
    /// worker. This is the handoff surface the work-stealing executor
    /// serves a hot tenant through.
    pub fn serve_batch_deferred(
        &mut self,
        now: SimTime,
        requests: &[WorkloadRequest],
    ) -> Vec<Result<PendingServe, FlStoreError>> {
        // A batch of one logs a plain `Serve` record: `serve` is a batch
        // of one, and the ledger must not betray which path carried the
        // envelope (the sequential-vs-threaded byte-diff gate covers
        // ledger files).
        match requests {
            [request] => self.log_event(LedgerEvent::Serve { now, request }),
            _ => self.log_event(LedgerEvent::ServeBatch { now, requests }),
        }
        self.advance(now);
        // Resolve data needs once per distinct request shape: `data_needs`
        // is a pure function of the catalog, which no serve mutates, so
        // consecutive requests naming the same (kind, round, client,
        // window) share one resolution.
        let mut needs: Vec<Vec<MetaKey>> = Vec::with_capacity(requests.len());
        for (i, request) in requests.iter().enumerate() {
            let repeat = i > 0 && {
                let prev = &requests[i - 1];
                prev.kind == request.kind
                    && prev.round == request.round
                    && prev.client == request.client
                    && prev.window == request.window
            };
            if repeat {
                let prev = needs[i - 1].clone();
                needs.push(prev);
            } else {
                needs.push(self.catalog.data_needs(request));
            }
        }
        let need_slices: Vec<&[MetaKey]> = needs.iter().map(|n| n.as_slice()).collect();
        let referenced = self.referenced_functions(need_slices.iter().copied());
        let recovered = self.liveness_pass(now, &referenced, &need_slices);
        let results = requests
            .iter()
            .zip(&needs)
            .zip(recovered)
            .map(|((request, needs), recovered)| {
                if needs.is_empty() {
                    Err(FlStoreError::NoData {
                        request: request.id,
                    })
                } else {
                    // Enforced per request (even on errors), exactly as a
                    // sequential submission would.
                    let result = self.serve_resolved_deferred(now, request, needs, recovered);
                    self.enforce_strict_budget();
                    result
                }
            })
            .collect();
        self.seal_if_due();
        results
    }

    /// Every function referenced by any of the given key sets, sorted and
    /// deduplicated — the targets of one liveness pass.
    fn referenced_functions<'a>(
        &self,
        needs: impl Iterator<Item = &'a [MetaKey]>,
    ) -> Vec<FunctionId> {
        // Placement lookups are per *unique* key: a batch whose requests
        // name the same objects pays each index probe once.
        let mut keys: Vec<&MetaKey> = needs.flat_map(|keys| keys.iter()).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut referenced: Vec<FunctionId> = keys
            .into_iter()
            .filter_map(|k| self.engine.locations(k))
            .flatten()
            .copied()
            .collect();
        referenced.sort_unstable();
        referenced.dedup();
        referenced
    }

    /// One liveness/refresh pass over `referenced`, handling any
    /// reclamations discovered. Returns, per entry of `needs_per_request`,
    /// whether a reclaimed replica held data that request needed (the
    /// `recovered_from_fault` flag).
    fn liveness_pass(
        &mut self,
        now: SimTime,
        referenced: &[FunctionId],
        needs_per_request: &[&[MetaKey]],
    ) -> Vec<bool> {
        let mut recovered = vec![false; needs_per_request.len()];
        for &id in referenced {
            if let Ok(Some(_)) = self.platform.refresh(now, id) {
                // Attribute the fault before repair mutates the placements.
                for (slot, needs) in recovered.iter_mut().zip(needs_per_request) {
                    if needs.iter().any(|k| {
                        self.engine
                            .locations(k)
                            .map(|l| l.contains(&id))
                            .unwrap_or(false)
                    }) {
                        *slot = true;
                    }
                }
                self.handle_reclaimed(now, id);
            }
        }
        recovered
    }

    /// The serve body after admission, data-needs resolution, and the
    /// liveness pass: hit/miss classification, locality-aware execution,
    /// and policy reaction — everything *except* the pure kernel compute,
    /// which the returned [`PendingServe`] carries for any thread to
    /// finish.
    fn serve_resolved_deferred(
        &mut self,
        now: SimTime,
        request: &WorkloadRequest,
        needs: &[MetaKey],
        recovered_from_fault: bool,
    ) -> Result<PendingServe, FlStoreError> {
        let mut latency = LatencyBreakdown {
            routing: self.cfg.routing_overhead,
            ..LatencyBreakdown::ZERO
        };
        let mut cost = CostBreakdown::ZERO;

        // Hit/miss classification (after fault handling).
        let mut hit_keys: Vec<MetaKey> = Vec::new();
        let mut miss_keys: Vec<MetaKey> = Vec::new();
        let mut prefetch_wait = SimDuration::ZERO;
        for key in needs {
            match self.engine.meta(key) {
                Some(meta) => {
                    let wait = meta.available_at.duration_since(now);
                    prefetch_wait = prefetch_wait.max(wait);
                    hit_keys.push(*key);
                }
                None => miss_keys.push(*key),
            }
        }
        latency.communication += prefetch_wait;

        // Hits first (reading them must happen before miss-caching, which
        // can evict under capacity pressure): locality-aware execution.
        // Choose the primary function (the one holding the most needed
        // bytes); data on sibling functions is gathered intra-cloud.
        let mut values: Vec<SharedValue> = Vec::with_capacity(needs.len());
        let mut bytes_on: HashMap<FunctionId, ByteSize> = HashMap::new();
        for key in &hit_keys {
            if let (Some(locs), Some(meta)) = (self.engine.locations(key), self.engine.meta(key)) {
                for id in locs {
                    *bytes_on.entry(*id).or_insert(ByteSize::ZERO) += meta.size;
                }
            }
        }
        // Among the replicas holding the most needed bytes, dispatch to the
        // least busy one — replicated functions double as parallel servers
        // (paper §A.1: scalability via copies of cached functions).
        let max_bytes = bytes_on.values().copied().max().unwrap_or(ByteSize::ZERO);
        // flstore: allow(unordered_iter, min_by_key's (busy_until, raw id) key is a total order over candidates, so the minimum is unique regardless of hash order)
        let primary = bytes_on
            .iter()
            .filter(|(_, bytes)| **bytes == max_bytes)
            .min_by_key(|(id, _)| {
                let busy = self
                    .platform
                    .instance(**id)
                    .map(|i| i.busy_until())
                    .unwrap_or(SimTime::MAX);
                (busy, id.as_raw())
            })
            .map(|(id, _)| *id);

        let mut gather_items = 0usize;
        let mut gather_bytes = ByteSize::ZERO;
        for key in &hit_keys {
            self.engine.touch(key);
            let locs = self
                .engine
                .locations(key)
                .expect("hit keys remain cached until miss handling")
                .to_vec();
            let local = primary.map(|p| locs.contains(&p)).unwrap_or(false);
            let source = if local {
                primary.expect("primary exists for local keys")
            } else {
                locs[0]
            };
            if !local {
                gather_items += 1;
                if let Some(meta) = self.engine.meta(key) {
                    gather_bytes += meta.size;
                }
            }
            // Zero-decode fast path: a cached object hands back its shared
            // handle; only a handle-less hit (e.g. after prefetch) reads the
            // blob, and then decodes at most once for the object's lifetime.
            let value = match self.engine.decoded_get(key) {
                Some(v) => Some(v),
                None => self
                    .platform
                    .instance(source)
                    .and_then(|i| i.object(&key.object_key()).cloned())
                    .and_then(|blob| self.engine.decoded_get_or_decode(key, &blob)),
            };
            if let Some(v) = value {
                values.push(v);
            }
        }
        if gather_items > 0 {
            latency.communication +=
                NetworkProfile::INTRA_CLOUD.batch_transfer_time(gather_items, gather_bytes, 8);
        }

        // Misses: the cold tier first — previously spilled victims fault
        // back from local disk (no object-store round trip, no request
        // fee) — then one batch fetch from the persistent store for the
        // rest (caching them may evict under capacity pressure, which is
        // why hits were read above).
        if !miss_keys.is_empty() {
            let mut blobs_of: HashMap<MetaKey, Blob> = HashMap::new();
            let mut from_spill: Vec<MetaKey> = Vec::new();
            if self.spill_active() {
                let spill = self.spill.as_mut().expect("spill_active checked");
                for key in &miss_keys {
                    if let Some((payload, logical)) = spill.fetch(key) {
                        blobs_of.insert(*key, Blob::with_payload(payload.into(), logical));
                        from_spill.push(*key);
                    }
                }
                for _ in &from_spill {
                    latency.communication += self.cfg.durability.spill_read_latency;
                }
                self.spill_faults += from_spill.len() as u64;
            }
            let pending: Vec<MetaKey> = miss_keys
                .iter()
                .filter(|k| !blobs_of.contains_key(k))
                .copied()
                .collect();
            if !pending.is_empty() {
                let okeys: Vec<_> = pending.iter().map(|k| k.object_key()).collect();
                let (blobs, receipt) = self.persistent.get_many(now, &okeys)?;
                latency.communication += receipt.latency;
                cost += receipt.cost;
                for (key, blob) in pending.iter().zip(blobs) {
                    blobs_of.insert(*key, blob);
                }
            }
            let cache_miss = self.policy.cache_on_miss();
            for key in &miss_keys {
                let blob = blobs_of
                    .remove(key)
                    .expect("every miss key was faulted or fetched");
                let admitted = cache_miss && self.quota_admits(blob.logical_size());
                if admitted {
                    self.cache_object(now, *key, blob.clone(), now);
                }
                if admitted && self.engine.contains(key) {
                    // Newly cached: decode once through the decoded layer so
                    // later hits are Arc clones.
                    if let Some(v) = self.engine.decoded_get_or_decode(key, &blob) {
                        values.push(v);
                    }
                } else {
                    // Not cached (policy, capacity, or strict quota): the
                    // miss path re-parses per access, exactly like a
                    // conventional framework. A faulted-but-refused object
                    // returns to the cold tier so the next miss stays cheap.
                    if from_spill.contains(key) {
                        if let Some(spill) = self.spill.as_mut() {
                            spill.spill(key, blob.payload(), blob.logical_size());
                        }
                    }
                    if let Some(v) = MetaValue::decode_shared(&blob) {
                        values.push(v);
                    }
                }
            }
        }

        // Validate inputs and package the kernel for execution on the
        // primary (or a scratch function when everything missed and
        // nothing was cached). `prepare` fails exactly where `execute`
        // would — before any dispatch/billing below commits.
        let task = prepare(request, values, self.catalog.model().compute_scale())?;
        let exec_fn = match primary.or_else(|| self.rings[0].first().copied()) {
            Some(id) => id,
            None => {
                let id = self.platform.spawn(now, self.cfg.function_config);
                self.rings[0].push(id);
                self.ring_of.insert(id, 0);
                id
            }
        };
        self.tracker.dispatch(request.id, vec![exec_fn]);
        let invoke = self.platform.invoke(now, exec_fn, task.work())?;
        latency.queueing += invoke.queue_wait;
        latency.computation += invoke.receipt.latency.saturating_sub(invoke.queue_wait);
        cost += invoke.receipt.cost;

        // Policy reaction: prefetch for the request train, shed the past.
        let actions = self.policy.on_request(request, &self.catalog, &self.engine);
        for key in &actions.prefetch {
            if self.engine.contains(key) {
                continue;
            }
            if let Ok((blob, receipt)) = self.persistent.get(now, &key.object_key()) {
                self.ledger.background_cost += receipt.cost;
                // The fetch was already spent; a strict quota can still
                // refuse residency (the prefetch is abandoned).
                if self.quota_admits(blob.logical_size()) {
                    self.cache_object(now, *key, blob, now + receipt.latency);
                }
            }
        }
        for key in &actions.evict {
            self.remove_key(key, false);
        }
        // Strict-budget re-enforcement happens in the callers (serve /
        // serve_batch), so it also covers the error exits above.

        self.tracker.complete(request.id);
        let measured = RequestOutcome {
            request: request.id,
            kind: request.kind,
            arrived: now,
            finished: now + latency.total(),
            latency,
            cost,
            cache_hits: hit_keys.len(),
            cache_misses: miss_keys.len(),
            recovered_from_fault,
        };
        self.ledger.outcomes.push(measured);
        Ok(PendingServe { measured, task })
    }
}

/// The single-store leg of the placement boundary: holders are function
/// instances, units are cached [`MetaKey`]s, and repair copies the blob
/// from a survivor onto the lost function's ring, billing one
/// intra-cloud invocation per copy. `FlStore::handle_reclaimed` drives
/// this through [`crate::placement::repair_after_loss`] — the same
/// algorithm the cluster layer uses for whole-node loss.
impl crate::placement::PlacementMap for FlStore {
    type Holder = FunctionId;
    type Unit = MetaKey;

    fn units_on(&self, holder: FunctionId) -> Vec<MetaKey> {
        self.engine
            .keys()
            .filter(|k| {
                self.engine
                    .locations(k)
                    .map(|l| l.contains(&holder))
                    .unwrap_or(false)
            })
            .copied()
            .collect()
    }

    fn drop_holder(&mut self, holder: FunctionId) {
        let _orphaned = self.engine.drop_replica(holder);
    }

    fn survivors(&self, unit: &MetaKey) -> Vec<FunctionId> {
        self.engine
            .locations(unit)
            .map(|l| l.to_vec())
            .unwrap_or_default()
    }

    fn replicate(
        &mut self,
        now: SimTime,
        unit: &MetaKey,
        source: FunctionId,
        lost: FunctionId,
    ) -> Option<ByteSize> {
        let ring = self.ring_of.get(&lost).copied().unwrap_or(0);
        let blob = self
            .platform
            .instance(source)
            .and_then(|i| i.object(&unit.object_key()).cloned())?;
        let size = blob.logical_size();
        let placed = self.place_on_ring(now, ring, unit, blob)?;
        self.engine.add_replica(unit, placed);
        // Repair billing: one invocation streaming the object.
        let dur = NetworkProfile::INTRA_CLOUD.transfer_time(size);
        let cost = self
            .cfg
            .platform
            .pricing
            .invocation(self.cfg.function_config.memory, dur);
        self.ledger.background_cost.compute += cost;
        Some(size)
    }
}
