//! Caching policies (paper §4.4, Table 1).
//!
//! The policy decides, at each ingest and each request, which metadata is
//! *hot* (kept in function memory), which should be *prefetched*
//! asynchronously from the persistent store, and which is *cold* (evicted —
//! safely, because every object is write-through persisted).
//!
//! * [`TailoredPolicy`] — FLStore's contribution: exploits the iterative,
//!   predictable access patterns of FL (P1–P4 classes) to keep exactly the
//!   data imminent requests will touch.
//! * [`ReactivePolicy`] — classic LRU / FIFO / LFU / Random disciplines that
//!   only cache what was already accessed. FL's forward-marching access
//!   pattern almost never revisits an object, so these achieve ≈0% hit
//!   rates (paper Table 2).
//! * [`StaticPolicy`] — a tailored policy frozen to one class regardless of
//!   the workload (the FLStore-Static ablation, Fig. 18).

use std::collections::VecDeque;
use std::fmt;

use flstore_fl::ids::{ClientId, Round};
use flstore_fl::metadata::{MetaKey, MetaKind};
use flstore_sim::bytes::ByteSize;
use flstore_sim::rng::DetRng;
use flstore_workloads::request::{JobCatalog, WorkloadRequest};
use flstore_workloads::taxonomy::PolicyClass;

use crate::engine::CacheEngine;

/// What a policy wants done.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyActions {
    /// Newly ingested keys to cache now (hot classification).
    pub cache: Vec<MetaKey>,
    /// Keys to fetch asynchronously from the persistent store.
    pub prefetch: Vec<MetaKey>,
    /// Cached keys that are no longer needed.
    pub evict: Vec<MetaKey>,
}

impl PolicyActions {
    /// No actions.
    pub fn none() -> Self {
        PolicyActions::default()
    }
}

/// A caching policy driving the FLStore cache.
///
/// Policies are `Send`: an [`FlStore`](crate::store::FlStore) (which owns
/// its policy as a boxed trait object) must be movable onto an executor's
/// worker thread, so the whole deployment — policy included — crosses
/// thread boundaries by ownership transfer.
pub trait CachingPolicy: fmt::Debug + Send {
    /// Human-readable name (figure labels use it).
    fn name(&self) -> &'static str;

    /// Classifies a newly ingested round's keys into hot (cache) and cold,
    /// and names victims made obsolete by the new round.
    fn on_ingest(
        &mut self,
        ingested: &[MetaKey],
        catalog: &JobCatalog,
        engine: &CacheEngine,
    ) -> PolicyActions;

    /// Reacts to an incoming request: prefetches data imminent requests
    /// will need and evicts data the request train has moved past.
    fn on_request(
        &mut self,
        request: &WorkloadRequest,
        catalog: &JobCatalog,
        engine: &CacheEngine,
    ) -> PolicyActions;

    /// Whether objects fetched on a miss should be inserted into the cache.
    fn cache_on_miss(&self) -> bool;

    /// Chooses victims to free at least `need` bytes under capacity
    /// pressure. Implementations order victims by their discipline.
    fn victims(&mut self, need: ByteSize, engine: &CacheEngine) -> Vec<MetaKey>;
}

// ---------------------------------------------------------------------------
// Tailored (FLStore) policy
// ---------------------------------------------------------------------------

/// FLStore's workload-tailored policy.
#[derive(Debug, Clone)]
pub struct TailoredPolicy {
    /// Full-round working set: keep updates/aggregates of this many most
    /// recent rounds (current round + the pre-cached next one, paper Fig. 6).
    pub keep_rounds: u32,
    /// P4 window: metrics/hyperparameters of the last `R` rounds (paper
    /// default 10).
    pub p4_window: u32,
    /// P3 window kept for tracked clients.
    pub p3_window: u32,
    /// Clients currently tracked by across-round workloads (bounded FIFO).
    tracked: VecDeque<ClientId>,
    /// Maximum tracked clients.
    tracked_cap: usize,
}

impl Default for TailoredPolicy {
    fn default() -> Self {
        TailoredPolicy {
            keep_rounds: 2,
            p4_window: 10,
            p3_window: 4,
            tracked: VecDeque::new(),
            tracked_cap: 32,
        }
    }
}

impl TailoredPolicy {
    /// Creates the default tailored policy.
    pub fn new() -> Self {
        TailoredPolicy::default()
    }

    fn is_tracked(&self, client: ClientId) -> bool {
        self.tracked.contains(&client)
    }

    fn track(&mut self, client: ClientId) {
        if self.is_tracked(client) {
            return;
        }
        if self.tracked.len() >= self.tracked_cap {
            self.tracked.pop_front();
        }
        self.tracked.push_back(client);
    }

    fn round_is_stale(&self, key_round: Round, latest: Round, keep: u32) -> bool {
        key_round.as_u32() + keep <= latest.as_u32()
    }

    fn evictions_for_latest(&self, latest: Round, engine: &CacheEngine) -> Vec<MetaKey> {
        engine
            .keys()
            .filter(|k| match k.kind {
                MetaKind::ClientUpdate => {
                    let stale = self.round_is_stale(k.round, latest, self.keep_rounds);
                    let protected = k
                        .client
                        .map(|c| {
                            self.is_tracked(c)
                                && !self.round_is_stale(k.round, latest, self.p3_window)
                        })
                        .unwrap_or(false);
                    stale && !protected
                }
                MetaKind::Aggregate => {
                    // Aggregates are small relative to a full round but P3
                    // traces need them across the tracked window.
                    let keep = if self.tracked.is_empty() {
                        self.keep_rounds
                    } else {
                        self.p3_window.max(self.keep_rounds)
                    };
                    self.round_is_stale(k.round, latest, keep)
                }
                MetaKind::HyperParams | MetaKind::RoundMetrics => {
                    self.round_is_stale(k.round, latest, self.p4_window)
                }
            })
            .copied()
            .collect()
    }
}

impl CachingPolicy for TailoredPolicy {
    fn name(&self) -> &'static str {
        "FLStore"
    }

    fn on_ingest(
        &mut self,
        ingested: &[MetaKey],
        _catalog: &JobCatalog,
        engine: &CacheEngine,
    ) -> PolicyActions {
        // Every class of fresh metadata is hot: the latest round serves P1
        // (aggregate), P2 (all updates), P3 (tracked clients' newest
        // updates arrive here — the paper's "pre-caching round i+1"), and
        // P4 (metrics/hyperparameters).
        let cache = ingested.to_vec();
        let latest = ingested
            .iter()
            .map(|k| k.round)
            .max()
            .unwrap_or(Round::ZERO);
        let evict = self.evictions_for_latest(latest, engine);
        PolicyActions {
            cache,
            prefetch: Vec::new(),
            evict,
        }
    }

    fn on_request(
        &mut self,
        request: &WorkloadRequest,
        catalog: &JobCatalog,
        engine: &CacheEngine,
    ) -> PolicyActions {
        let mut actions = PolicyActions::none();
        match request.kind.policy_class() {
            PolicyClass::P3AcrossRounds => {
                let client = request
                    .client
                    .expect("P3 requests carry a client by construction");
                self.track(client);
                // Pre-cache the tracked client's window from the persistent
                // store (rounds the ingest train has already evicted).
                for key in catalog.data_needs(request) {
                    if !engine.contains(&key) {
                        actions.prefetch.push(key);
                    }
                }
            }
            PolicyClass::P2AllUpdatesInRound => {
                // The request train moves forward: everything strictly older
                // than the requested round (minus protections) is done with.
                if let Some(prev) = request.round.prev() {
                    let evict = self.evictions_for_latest(prev, engine);
                    actions.evict.extend(evict);
                }
            }
            PolicyClass::P1IndividualOrAggregate | PolicyClass::P4Metadata => {
                // Served from the standing hot set maintained at ingest.
            }
        }
        actions
    }

    fn cache_on_miss(&self) -> bool {
        true
    }

    fn victims(&mut self, need: ByteSize, engine: &CacheEngine) -> Vec<MetaKey> {
        // Capacity pressure (FLStore-limited): shed oldest rounds first,
        // small P4 records last.
        let mut candidates: Vec<(MetaKey, ByteSize, u32)> = engine
            .keys()
            .map(|k| {
                let size = engine.meta(k).map(|m| m.size).unwrap_or(ByteSize::ZERO);
                (*k, size, k.round.as_u32())
            })
            .collect();
        candidates.sort_by_key(|(k, _, round)| {
            let class_rank = match k.kind {
                MetaKind::ClientUpdate | MetaKind::Aggregate => 0u8,
                MetaKind::HyperParams | MetaKind::RoundMetrics => 1u8,
            };
            // The key itself breaks ties: candidates come out of a hash
            // map whose iteration order is arbitrary, and victim choice
            // must not depend on it.
            (class_rank, *round, *k)
        });
        let mut freed = ByteSize::ZERO;
        let mut victims = Vec::new();
        for (k, size, _) in candidates {
            if freed >= need {
                break;
            }
            freed += size;
            victims.push(k);
        }
        victims
    }
}

// ---------------------------------------------------------------------------
// Reactive (traditional) policies
// ---------------------------------------------------------------------------

/// The classic eviction discipline a [`ReactivePolicy`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionDiscipline {
    /// Least recently used.
    Lru,
    /// First in, first out.
    Fifo,
    /// Least frequently used.
    Lfu,
    /// Uniformly random victims.
    Random,
}

impl EvictionDiscipline {
    /// Figure label ("FLStore-LRU", ...).
    pub fn label(self) -> &'static str {
        match self {
            EvictionDiscipline::Lru => "FLStore-LRU",
            EvictionDiscipline::Fifo => "FLStore-FIFO",
            EvictionDiscipline::Lfu => "FLStore-LFU",
            EvictionDiscipline::Random => "FLStore-Random",
        }
    }
}

/// A traditional cache-on-access policy: never prefetches, never classifies
/// ingested data as hot, evicts by its discipline under pressure.
#[derive(Debug, Clone)]
pub struct ReactivePolicy {
    discipline: EvictionDiscipline,
    rng: DetRng,
}

impl ReactivePolicy {
    /// Creates a reactive policy with the given discipline.
    pub fn new(discipline: EvictionDiscipline, seed: u64) -> Self {
        ReactivePolicy {
            discipline,
            rng: DetRng::stream(seed, "reactive-policy"),
        }
    }
}

impl CachingPolicy for ReactivePolicy {
    fn name(&self) -> &'static str {
        self.discipline.label()
    }

    fn on_ingest(
        &mut self,
        _ingested: &[MetaKey],
        _catalog: &JobCatalog,
        _engine: &CacheEngine,
    ) -> PolicyActions {
        // Reactive caches only observe demand; ingest is not demand.
        PolicyActions::none()
    }

    fn on_request(
        &mut self,
        _request: &WorkloadRequest,
        _catalog: &JobCatalog,
        _engine: &CacheEngine,
    ) -> PolicyActions {
        PolicyActions::none()
    }

    fn cache_on_miss(&self) -> bool {
        true
    }

    fn victims(&mut self, need: ByteSize, engine: &CacheEngine) -> Vec<MetaKey> {
        // Enumerate candidates in key order, not hash-map order: rank
        // assignment (the Random discipline draws one rank per key) and
        // tie-breaking must not depend on iteration order.
        let mut keys: Vec<MetaKey> = engine.keys().copied().collect();
        keys.sort_unstable();
        let mut candidates: Vec<(MetaKey, ByteSize, u64)> = keys
            .into_iter()
            .map(|k| {
                let meta = engine.meta(&k);
                let size = meta.map(|m| m.size).unwrap_or(ByteSize::ZERO);
                let rank = match (self.discipline, meta) {
                    (EvictionDiscipline::Lru, Some(m)) => m.last_access_seq,
                    (EvictionDiscipline::Fifo, Some(m)) => m.inserted_seq,
                    (EvictionDiscipline::Lfu, Some(m)) => m.frequency,
                    (EvictionDiscipline::Random, _) => self.rng.next_u64(),
                    (_, None) => 0,
                };
                (k, size, rank)
            })
            .collect();
        candidates.sort_by_key(|(k, _, rank)| (*rank, *k));
        let mut freed = ByteSize::ZERO;
        let mut victims = Vec::new();
        for (k, size, _) in candidates {
            if freed >= need {
                break;
            }
            freed += size;
            victims.push(k);
        }
        victims
    }
}

// ---------------------------------------------------------------------------
// Static ablation policy
// ---------------------------------------------------------------------------

/// A tailored policy frozen to a single class (the FLStore-Static ablation):
/// it keeps serving the class it was configured for even when the workload
/// changes, so requests from other classes miss.
#[derive(Debug, Clone)]
pub struct StaticPolicy {
    class: PolicyClass,
    inner: TailoredPolicy,
}

impl StaticPolicy {
    /// Creates a static policy frozen to `class`.
    pub fn new(class: PolicyClass) -> Self {
        StaticPolicy {
            class,
            inner: TailoredPolicy::new(),
        }
    }

    /// The frozen class.
    pub fn class(&self) -> PolicyClass {
        self.class
    }
}

impl CachingPolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        "FLStore-Static"
    }

    fn on_ingest(
        &mut self,
        ingested: &[MetaKey],
        _catalog: &JobCatalog,
        engine: &CacheEngine,
    ) -> PolicyActions {
        // Cache only the kinds the frozen class consumes.
        let cache: Vec<MetaKey> = ingested
            .iter()
            .filter(|k| match self.class {
                PolicyClass::P1IndividualOrAggregate => k.kind == MetaKind::Aggregate,
                PolicyClass::P2AllUpdatesInRound => {
                    matches!(k.kind, MetaKind::ClientUpdate | MetaKind::Aggregate)
                }
                PolicyClass::P3AcrossRounds => {
                    matches!(k.kind, MetaKind::ClientUpdate | MetaKind::Aggregate)
                }
                PolicyClass::P4Metadata => {
                    matches!(k.kind, MetaKind::HyperParams | MetaKind::RoundMetrics)
                }
            })
            .copied()
            .collect();
        let latest = ingested
            .iter()
            .map(|k| k.round)
            .max()
            .unwrap_or(Round::ZERO);
        let evict = self.inner.evictions_for_latest(latest, engine);
        PolicyActions {
            cache,
            prefetch: Vec::new(),
            evict,
        }
    }

    fn on_request(
        &mut self,
        _request: &WorkloadRequest,
        _catalog: &JobCatalog,
        _engine: &CacheEngine,
    ) -> PolicyActions {
        // Frozen: does not adapt to what is actually being requested.
        PolicyActions::none()
    }

    fn cache_on_miss(&self) -> bool {
        false // it "knows" what to cache; misses are served pass-through
    }

    fn victims(&mut self, need: ByteSize, engine: &CacheEngine) -> Vec<MetaKey> {
        self.inner.victims(need, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flstore_fl::ids::JobId;
    use flstore_fl::job::{FlJobConfig, FlJobSim};
    use flstore_fl::metadata::round_blobs;
    use flstore_serverless::function::FunctionId;
    use flstore_sim::time::SimTime;
    use flstore_workloads::request::RequestId;
    use flstore_workloads::taxonomy::WorkloadKind;

    struct Fixture {
        catalog: JobCatalog,
        engine: CacheEngine,
        rounds: Vec<Vec<MetaKey>>,
        records: Vec<flstore_fl::job::RoundRecord>,
    }

    fn fixture(rounds: u32) -> Fixture {
        let cfg = FlJobConfig::quick_test(JobId::new(1));
        let mut catalog = JobCatalog::new(cfg.job, cfg.model);
        let records: Vec<_> = FlJobSim::new(cfg.clone()).take(rounds as usize).collect();
        let mut keys = Vec::new();
        for r in &records {
            catalog.observe_round(r);
            keys.push(
                round_blobs(r, cfg.job, &cfg.model)
                    .into_iter()
                    .map(|(k, _)| k)
                    .collect::<Vec<_>>(),
            );
        }
        Fixture {
            catalog,
            engine: CacheEngine::new(),
            rounds: keys,
            records,
        }
    }

    fn apply(engine: &mut CacheEngine, actions: &PolicyActions) {
        for k in &actions.cache {
            engine.record(
                *k,
                vec![FunctionId::from_raw(0)],
                ByteSize::from_mb(45),
                SimTime::ZERO,
            );
        }
        for k in &actions.evict {
            engine.remove(k);
        }
    }

    #[test]
    fn tailored_keeps_recent_rounds_hot() {
        let mut f = fixture(6);
        let mut policy = TailoredPolicy::new();
        for keys in f.rounds.clone() {
            let actions = policy.on_ingest(&keys, &f.catalog, &f.engine);
            assert_eq!(actions.cache.len(), keys.len(), "fresh data is all hot");
            apply(&mut f.engine, &actions);
        }
        // After 6 rounds with keep_rounds=2, only rounds 4 and 5 updates
        // should remain; metrics for the last 6 (< p4_window) all remain.
        for k in f.engine.keys() {
            match k.kind {
                MetaKind::ClientUpdate => assert!(k.round.as_u32() >= 4, "stale {k}"),
                MetaKind::Aggregate => assert!(k.round.as_u32() >= 4, "stale {k}"),
                _ => {}
            }
        }
        // The latest round's updates are cached (P2 requests will hit).
        let last_round = f.records[5].round;
        for u in &f.records[5].updates {
            assert!(f
                .engine
                .contains(&MetaKey::update(JobId::new(1), last_round, u.client)));
        }
    }

    #[test]
    fn tailored_tracks_p3_clients_and_prefetches() {
        let mut f = fixture(8);
        let mut policy = TailoredPolicy::new();
        for keys in f.rounds.clone() {
            let actions = policy.on_ingest(&keys, &f.catalog, &f.engine);
            apply(&mut f.engine, &actions);
        }
        let client = f.records[7].updates[0].client;
        let request = WorkloadRequest::new(
            RequestId::new(1),
            WorkloadKind::ReputationCalc,
            JobId::new(1),
            f.records[7].round,
            Some(client),
        );
        let actions = policy.on_request(&request, &f.catalog, &f.engine);
        // Rounds 4..5 were evicted by the ingest train, so the tracked
        // window needs prefetching for whatever the client participated in.
        for k in &actions.prefetch {
            assert!(!f.engine.contains(k));
            assert!(k.round.as_u32() >= 4);
        }
        // Tracking protects the client's updates from the next eviction.
        let keys8 = &f.rounds[7];
        let next = policy.on_ingest(keys8, &f.catalog, &f.engine);
        for k in &next.evict {
            if k.kind == MetaKind::ClientUpdate {
                assert_ne!(k.client, Some(client), "tracked client evicted: {k}");
            }
        }
    }

    #[test]
    fn reactive_policies_never_prefetch_or_classify() {
        let mut f = fixture(3);
        for discipline in [
            EvictionDiscipline::Lru,
            EvictionDiscipline::Fifo,
            EvictionDiscipline::Lfu,
            EvictionDiscipline::Random,
        ] {
            let mut policy = ReactivePolicy::new(discipline, 7);
            let actions = policy.on_ingest(&f.rounds[0], &f.catalog, &f.engine);
            assert_eq!(actions, PolicyActions::none());
            let request = WorkloadRequest::new(
                RequestId::new(1),
                WorkloadKind::Clustering,
                JobId::new(1),
                f.records[0].round,
                None,
            );
            let actions = policy.on_request(&request, &f.catalog, &f.engine);
            assert_eq!(actions, PolicyActions::none());
            assert!(policy.cache_on_miss());
        }
        // Disciplines pick different victims given distinct orderings.
        for keys in f.rounds.iter() {
            for k in keys {
                f.engine.record(
                    *k,
                    vec![FunctionId::from_raw(0)],
                    ByteSize::from_mb(10),
                    SimTime::ZERO,
                );
            }
        }
        // Touch round 0 after all inserts so it is most-recently-used.
        for k in &f.rounds[0] {
            f.engine.touch(k);
        }
        let mut lru = ReactivePolicy::new(EvictionDiscipline::Lru, 7);
        let victims = lru.victims(ByteSize::from_mb(10), &f.engine);
        assert_eq!(victims.len(), 1);
        // LRU victim must not be from the touched round 0.
        assert_ne!(victims[0].round, f.records[0].round);
    }

    #[test]
    fn fifo_evicts_insertion_order() {
        let f = fixture(2);
        let mut engine = CacheEngine::new();
        for (i, keys) in f.rounds.iter().enumerate() {
            for k in keys {
                engine.record(
                    *k,
                    vec![FunctionId::from_raw(0)],
                    ByteSize::from_mb(10),
                    SimTime::ZERO,
                );
            }
            let _ = i;
        }
        let mut fifo = ReactivePolicy::new(EvictionDiscipline::Fifo, 1);
        let victims = fifo.victims(ByteSize::from_mb(25), &engine);
        assert_eq!(victims.len(), 3);
        assert!(victims.iter().all(|k| k.round == f.records[0].round));
    }

    #[test]
    fn static_policy_caches_only_its_class() {
        let mut f = fixture(2);
        let mut policy = StaticPolicy::new(PolicyClass::P1IndividualOrAggregate);
        let actions = policy.on_ingest(&f.rounds[0], &f.catalog, &f.engine);
        assert!(actions.cache.iter().all(|k| k.kind == MetaKind::Aggregate));
        assert_eq!(actions.cache.len(), 1);
        apply(&mut f.engine, &actions);
        // A P2 request gets no adaptation.
        let request = WorkloadRequest::new(
            RequestId::new(2),
            WorkloadKind::MaliciousFiltering,
            JobId::new(1),
            f.records[0].round,
            None,
        );
        let actions = policy.on_request(&request, &f.catalog, &f.engine);
        assert_eq!(actions, PolicyActions::none());
        assert!(!policy.cache_on_miss());
        assert_eq!(policy.class(), PolicyClass::P1IndividualOrAggregate);
    }

    #[test]
    fn tailored_victims_prefer_oldest_updates() {
        let f = fixture(3);
        let mut engine = CacheEngine::new();
        for keys in &f.rounds {
            for k in keys {
                engine.record(
                    *k,
                    vec![FunctionId::from_raw(0)],
                    ByteSize::from_mb(10),
                    SimTime::ZERO,
                );
            }
        }
        let mut policy = TailoredPolicy::new();
        let victims = policy.victims(ByteSize::from_mb(15), &engine);
        assert_eq!(victims.len(), 2);
        for v in &victims {
            assert_eq!(v.round, f.records[0].round);
            assert!(matches!(
                v.kind,
                MetaKind::ClientUpdate | MetaKind::Aggregate
            ));
        }
    }
}
