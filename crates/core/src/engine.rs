//! The Cache Engine (paper §4.2), key-sharded for intra-job parallelism.
//!
//! Tracks where each metadata object lives across disaggregated function
//! memories — the paper's dictionary
//! `Tuple(Client, Round) → FunctionID`, generalized to replicated
//! placements and asynchronous availability:
//!
//! * each key maps to one function per replica ring;
//! * a prefetched object carries `available_at`, the instant its async
//!   fetch from the persistent store completes;
//! * per-key access metadata (insert/access sequence, frequency, size)
//!   feeds the reactive eviction policies;
//! * a [`DecodedCache`] rides alongside the placement index so a cached
//!   object is parsed from its blob at most once per lifetime — every
//!   mutation that drops or replaces a placement also drops the decoded
//!   handle, keeping the two layers coherent.
//!
//! # Key-sharding
//!
//! The engine partitions `locations`/`meta`/decoded residency into K
//! *key-shards* by [`key_shard_of`] — the same splitmix64 discipline the
//! executor uses to route jobs to workers, applied to the `MetaKey`
//! *within* a job. Each shard consolidates all three layers for its keys
//! in one exclusively-owned struct (no split `data`/`access_order`-style
//! locking — Snippet 3's contention finding), so serve work for disjoint
//! key-shards of a single hot tenant can proceed on different workers
//! while ingest/evict/reclaim stay owner-serialized.
//!
//! Every externally observable order is shard-count independent: `keys()`
//! sorts at the boundary, sequence numbers come from one engine-global
//! counter, and byte totals are integer sums — an engine with K = 8
//! answers bit-for-bit like K = 1.
//!
//! Byte accounting additionally mirrors into an [`AdmissionGate`] so
//! quota admission is one atomic compare-and-swap (reserve-on-check, no
//! TOCTOU window between the budget check and the placement).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use flstore_cloud::blob::Blob;
use flstore_fl::decoded::{DecodedCache, DecodedStats};
use flstore_fl::metadata::{MetaKey, MetaKind, SharedValue};
use flstore_serverless::function::FunctionId;
use flstore_sim::bytes::ByteSize;
use flstore_sim::rng::splitmix64;
use flstore_sim::time::SimTime;

use crate::quota::AdmissionGate;

/// Process-wide default key-shard count, consulted by
/// [`CacheEngine::new`] (and any config that leaves its shard count at 0).
/// Mirrors the bench harness's serving-threads knob: CLI front ends set
/// it once at startup.
static DEFAULT_KEY_SHARDS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide default key-shard count (clamped to ≥ 1).
pub fn set_default_key_shards(shards: usize) {
    // Relaxed: a startup-time config knob; readers only need the value,
    // no memory is published through it.
    DEFAULT_KEY_SHARDS.store(shards.max(1), Ordering::Relaxed);
}

/// The process-wide default key-shard count.
pub fn default_key_shards() -> usize {
    // Relaxed: see `set_default_key_shards`.
    DEFAULT_KEY_SHARDS.load(Ordering::Relaxed)
}

/// Routes `key` to one of `shards` key-shards.
///
/// splitmix64 over the packed key fields — the same mixing discipline as
/// the executor's job router, so placement is uniform and stable across
/// runs, platforms, and shard counts (the map `key → shard` depends only
/// on `(key, shards)`).
pub fn key_shard_of(key: &MetaKey, shards: usize) -> usize {
    debug_assert!(shards > 0, "engine always has at least one key-shard");
    let kind_tag: u64 = match key.kind {
        MetaKind::ClientUpdate => 1,
        MetaKind::Aggregate => 2,
        MetaKind::HyperParams => 3,
        MetaKind::RoundMetrics => 4,
    };
    // `client + 1` keeps `None` distinct from `ClientId(0)`.
    let client = key.client.map_or(0, |c| u64::from(c.as_u32()) + 1);
    let packed = (u64::from(key.job.as_u32()) << 32)
        ^ u64::from(key.round.as_u32())
        ^ client.rotate_left(20)
        ^ (kind_tag << 56);
    (splitmix64(packed) % shards as u64) as usize
}

/// Per-key cache metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheMeta {
    /// Logical size of the cached object.
    pub size: ByteSize,
    /// Monotonic sequence at insertion (FIFO order).
    pub inserted_seq: u64,
    /// Monotonic sequence at last access (LRU order).
    pub last_access_seq: u64,
    /// Access count (LFU order).
    pub frequency: u64,
    /// When the object becomes readable (async prefetch completion).
    pub available_at: SimTime,
}

/// One key-shard: the placement dictionaries and decoded layer for the
/// keys that hash here. All three layers live in one exclusively-owned
/// struct — a worker serving this shard touches nothing another shard
/// owns.
#[derive(Debug, Clone, Default)]
struct EngineShard {
    locations: HashMap<MetaKey, Vec<FunctionId>>,
    meta: HashMap<MetaKey, CacheMeta>,
    decoded: DecodedCache,
}

/// Location and recency index over the serverless cache.
///
/// # Examples
///
/// ```
/// use flstore_core::engine::CacheEngine;
/// use flstore_fl::metadata::MetaKey;
/// use flstore_fl::ids::{ClientId, JobId, Round};
/// use flstore_serverless::function::FunctionId;
/// use flstore_sim::bytes::ByteSize;
/// use flstore_sim::time::SimTime;
///
/// let mut engine = CacheEngine::new();
/// let key = MetaKey::update(JobId::new(1), Round::new(3), ClientId::new(7));
/// engine.record(key, vec![FunctionId::from_raw(0)], ByteSize::from_mb(80), SimTime::ZERO);
/// assert!(engine.contains(&key));
/// assert_eq!(engine.locations(&key).unwrap(), &[FunctionId::from_raw(0)]);
/// ```
#[derive(Debug, Clone)]
pub struct CacheEngine {
    shards: Vec<EngineShard>,
    next_seq: u64,
    /// Running sum of tracked logical bytes, maintained incrementally so
    /// [`CacheEngine::bytes_tracked`] is O(1) — quota checks read it on
    /// every admission.
    tracked: ByteSize,
    /// Atomic mirror of `tracked` + decoded residency, giving quota
    /// admission a single-CAS reserve (see [`AdmissionGate`]).
    gate: AdmissionGate,
}

impl Default for CacheEngine {
    fn default() -> Self {
        CacheEngine::new()
    }
}

impl CacheEngine {
    /// Creates an empty engine with the process-default key-shard count.
    pub fn new() -> Self {
        CacheEngine::with_key_shards(default_key_shards())
    }

    /// Creates an empty engine with `shards` key-shards (clamped to ≥ 1).
    pub fn with_key_shards(shards: usize) -> Self {
        CacheEngine {
            shards: (0..shards.max(1)).map(|_| EngineShard::default()).collect(),
            next_seq: 0,
            tracked: ByteSize::ZERO,
            gate: AdmissionGate::new(),
        }
    }

    /// Number of key-shards the engine partitions state into.
    pub fn key_shards(&self) -> usize {
        self.shards.len()
    }

    /// The key-shard `key` routes to.
    pub fn shard_of(&self, key: &MetaKey) -> usize {
        key_shard_of(key, self.shards.len())
    }

    fn shard(&self, key: &MetaKey) -> &EngineShard {
        &self.shards[key_shard_of(key, self.shards.len())]
    }

    fn shard_mut(&mut self, key: &MetaKey) -> &mut EngineShard {
        let ix = key_shard_of(key, self.shards.len());
        &mut self.shards[ix]
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.locations.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.locations.is_empty())
    }

    /// Whether `key` is cached (on any replica).
    pub fn contains(&self, key: &MetaKey) -> bool {
        self.shard(key).locations.contains_key(key)
    }

    /// Replica locations of `key` (one entry per ring that holds it).
    pub fn locations(&self, key: &MetaKey) -> Option<&[FunctionId]> {
        self.shard(key).locations.get(key).map(|v| v.as_slice())
    }

    /// Cache metadata of `key`.
    pub fn meta(&self, key: &MetaKey) -> Option<&CacheMeta> {
        self.shard(key).meta.get(key)
    }

    /// Iterates over all cached keys, in sorted key order. The backing
    /// maps are hash-ordered *and* shard-partitioned; exposing either
    /// order here would leak iteration nondeterminism (and the shard
    /// count) into every consumer — eviction scans, reclaim handling,
    /// durability digests — so the engine pays the sort once at the
    /// boundary.
    pub fn keys(&self) -> impl Iterator<Item = &MetaKey> {
        // flstore: allow(unordered_iter, collected across shards and sorted immediately below)
        let mut keys: Vec<&MetaKey> = self
            .shards
            .iter()
            .flat_map(|s| s.locations.keys())
            .collect();
        keys.sort_unstable();
        keys.into_iter()
    }

    /// Total logical bytes tracked (one replica's worth). O(1): the sum
    /// is maintained across `record`/`remove`/`drop_replica`.
    pub fn bytes_tracked(&self) -> ByteSize {
        self.tracked
    }

    /// The atomic admission gate mirroring this engine's resident bytes.
    /// Quota enforcement reserves against it with one CAS.
    pub fn admission(&self) -> &AdmissionGate {
        &self.gate
    }

    /// Runs a decoded-layer mutation on `key`'s shard, mirroring any
    /// residency change into the gate.
    fn with_decoded<R>(&mut self, key: &MetaKey, f: impl FnOnce(&mut DecodedCache) -> R) -> R {
        let ix = key_shard_of(key, self.shards.len());
        let decoded = &mut self.shards[ix].decoded;
        let before = decoded.resident_bytes();
        let out = f(decoded);
        let after = decoded.resident_bytes();
        if after >= before {
            self.gate.charge(after.saturating_sub(before));
        } else {
            self.gate.credit(before.saturating_sub(after));
        }
        out
    }

    /// Decoded-layer read: the shared handle for `key` if its shard holds
    /// one (bumps the shard's hit counter).
    pub fn decoded_get(&mut self, key: &MetaKey) -> Option<SharedValue> {
        // `get` can drop an entry on byte-identity mismatch, so route it
        // through the residency mirror too.
        self.with_decoded(key, |d| d.get(key))
    }

    /// Decoded-layer read-or-parse: returns the cached handle when `blob`
    /// matches byte-for-byte, otherwise parses and caches.
    pub fn decoded_get_or_decode(&mut self, key: &MetaKey, blob: &Blob) -> Option<SharedValue> {
        self.with_decoded(key, |d| d.get_or_decode(key, blob))
    }

    /// Seeds `key`'s shard with a producer-decoded value (ingest-time:
    /// zero-parse).
    pub fn decoded_seed(&mut self, key: MetaKey, blob: &Blob, value: SharedValue) {
        self.with_decoded(&key, |d| d.seed(key, blob, value));
    }

    /// Decoded-layer residency across all key-shards.
    pub fn decoded_resident_bytes(&self) -> ByteSize {
        self.shards.iter().map(|s| s.decoded.resident_bytes()).sum()
    }

    /// Number of decoded handles held across all key-shards.
    pub fn decoded_len(&self) -> usize {
        self.shards.iter().map(|s| s.decoded.len()).sum()
    }

    /// Decoded-layer operation counters, summed across key-shards — each
    /// key's events land in exactly one shard, so the totals are
    /// shard-count independent.
    pub fn decoded_stats(&self) -> DecodedStats {
        let mut total = DecodedStats::default();
        for s in &self.shards {
            let st = s.decoded.stats();
            total.hits += st.hits;
            total.decodes += st.decodes;
            total.seeded += st.seeded;
            total.invalidations += st.invalidations;
        }
        total
    }

    /// Registers a (replicated) placement. `available_at` is the instant the
    /// object becomes readable — `now` for synchronously placed data, later
    /// for async prefetches.
    pub fn record(
        &mut self,
        key: MetaKey,
        replicas: Vec<FunctionId>,
        size: ByteSize,
        available_at: SimTime,
    ) {
        let seq = self.bump();
        // A (re-)placement may carry different bytes than the decode we
        // hold; the caller re-seeds after recording if it has the value.
        self.with_decoded(&key, |d| d.invalidate(&key));
        let shard = self.shard_mut(&key);
        shard.locations.insert(key, replicas);
        let displaced = shard.meta.insert(
            key,
            CacheMeta {
                size,
                inserted_seq: seq,
                last_access_seq: seq,
                frequency: 0,
                available_at,
            },
        );
        self.tracked += size;
        // The gate consumes the admission reservation (if any) here, so
        // admitted-then-placed bytes count exactly once.
        self.gate.charge(size);
        if let Some(old) = displaced {
            self.tracked = self.tracked.saturating_sub(old.size);
            self.gate.credit(old.size);
        }
    }

    /// Marks an access to `key`, updating recency/frequency. Returns the
    /// updated metadata, or `None` if the key is not cached.
    pub fn touch(&mut self, key: &MetaKey) -> Option<CacheMeta> {
        let seq = self.bump();
        let meta = self.shard_mut(key).meta.get_mut(key)?;
        meta.last_access_seq = seq;
        meta.frequency += 1;
        Some(*meta)
    }

    /// Removes a key entirely. Returns its former locations.
    pub fn remove(&mut self, key: &MetaKey) -> Option<Vec<FunctionId>> {
        self.with_decoded(key, |d| d.invalidate(key));
        let shard = self.shard_mut(key);
        let removed_meta = shard.meta.remove(key);
        let removed = shard.locations.remove(key);
        if let Some(old) = removed_meta {
            self.tracked = self.tracked.saturating_sub(old.size);
            self.gate.credit(old.size);
        }
        removed
    }

    /// Drops a single failed replica from every placement that referenced
    /// it; keys left with zero replicas are removed and returned (their
    /// data now only exists in the persistent store).
    pub fn drop_replica(&mut self, failed: FunctionId) -> Vec<MetaKey> {
        let mut orphaned = Vec::new();
        for shard in self.shards.iter_mut() {
            // flstore: allow(unordered_iter, every placement is visited exactly once and the collected keys are sorted below)
            for (key, replicas) in shard.locations.iter_mut() {
                replicas.retain(|f| *f != failed);
                if replicas.is_empty() {
                    orphaned.push(*key);
                }
            }
        }
        // Neither hash order nor shard order may leak out through the
        // return value: callers re-replicate / log these keys in the
        // order given.
        orphaned.sort_unstable();
        for key in &orphaned {
            self.remove(key);
        }
        orphaned
    }

    /// Adds a repaired replica location for `key` (after re-replication).
    pub fn add_replica(&mut self, key: &MetaKey, replica: FunctionId) -> bool {
        if let Some(replicas) = self.shard_mut(key).locations.get_mut(key) {
            if !replicas.contains(&replica) {
                replicas.push(replica);
            }
            true
        } else {
            false
        }
    }

    /// Estimated resident memory of the engine, for the paper's overhead
    /// analysis (§5.5) and for capacity/quota decisions: the placement
    /// dictionaries *plus* the decoded-value layer's residency — the
    /// `Arc<MetaValue>` handles PR 2 added are real memory and must be
    /// visible to anything budgeting this engine.
    pub fn estimated_memory(&self) -> ByteSize {
        // MetaKey ≈ 24 B payload; CacheMeta = 40 B; Vec<FunctionId> ≈ 24 B
        // header + 8 B/replica; two hash-map entries ≈ 2 × 48 B overhead.
        let per_entry = 24 + 40 + 24 + 2 * 48;
        let entries: usize = self.shards.iter().map(|s| s.locations.len()).sum();
        // flstore: allow(unordered_iter, integer sum over replica counts is order-independent)
        let replicas: usize = self
            .shards
            .iter()
            .flat_map(|s| s.locations.values())
            .map(|v| 8 * v.len())
            .sum();
        ByteSize::from_bytes((entries * per_entry + replicas) as u64)
            + self.decoded_resident_bytes()
    }

    fn bump(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flstore_fl::ids::{ClientId, JobId, Round};

    fn key(round: u32, client: u32) -> MetaKey {
        MetaKey::update(JobId::new(1), Round::new(round), ClientId::new(client))
    }

    fn fid(i: u64) -> FunctionId {
        FunctionId::from_raw(i)
    }

    #[test]
    fn record_touch_remove_lifecycle() {
        let mut e = CacheEngine::new();
        let k = key(1, 2);
        e.record(
            k,
            vec![fid(0), fid(1)],
            ByteSize::from_mb(80),
            SimTime::ZERO,
        );
        assert_eq!(e.len(), 1);
        let before = *e.meta(&k).expect("recorded");
        let after = e.touch(&k).expect("cached");
        assert!(after.last_access_seq > before.last_access_seq);
        assert_eq!(after.frequency, 1);
        assert_eq!(e.remove(&k), Some(vec![fid(0), fid(1)]));
        assert!(e.is_empty());
        assert!(e.touch(&k).is_none());
    }

    #[test]
    fn drop_replica_cleans_up() {
        let mut e = CacheEngine::new();
        let a = key(1, 1);
        let b = key(1, 2);
        e.record(
            a,
            vec![fid(0), fid(1)],
            ByteSize::from_mb(10),
            SimTime::ZERO,
        );
        e.record(b, vec![fid(0)], ByteSize::from_mb(10), SimTime::ZERO);
        let orphaned = e.drop_replica(fid(0));
        assert_eq!(orphaned, vec![b]);
        assert!(e.contains(&a));
        assert_eq!(e.locations(&a).expect("a cached"), &[fid(1)]);
        assert!(!e.contains(&b));
    }

    #[test]
    fn add_replica_repairs() {
        let mut e = CacheEngine::new();
        let a = key(2, 1);
        e.record(a, vec![fid(1)], ByteSize::from_mb(10), SimTime::ZERO);
        assert!(e.add_replica(&a, fid(2)));
        assert_eq!(e.locations(&a).expect("cached").len(), 2);
        // Idempotent.
        assert!(e.add_replica(&a, fid(2)));
        assert_eq!(e.locations(&a).expect("cached").len(), 2);
        assert!(!e.add_replica(&key(9, 9), fid(2)));
    }

    #[test]
    fn availability_tracks_prefetch() {
        let mut e = CacheEngine::new();
        let k = key(3, 1);
        let ready = SimTime::from_secs(100);
        e.record(k, vec![fid(0)], ByteSize::from_mb(10), ready);
        assert_eq!(e.meta(&k).expect("cached").available_at, ready);
    }

    #[test]
    fn memory_estimate_scales_with_entries() {
        let mut e = CacheEngine::new();
        for i in 0..1000 {
            e.record(key(i, i), vec![fid(0)], ByteSize::from_mb(1), SimTime::ZERO);
        }
        let est = e.estimated_memory();
        // Paper §5.5: Cache Engine ≈ 0.6 MB at 1000 concurrent requests.
        assert!(est > ByteSize::from_kb(100), "{est}");
        assert!(est < ByteSize::from_mb(2), "{est}");
    }

    #[test]
    fn placement_mutations_keep_decoded_layer_coherent() {
        use flstore_fl::hyperparams::HyperParams;
        use flstore_fl::metadata::MetaValue;
        use flstore_fl::zoo::ModelArch;

        let value = MetaValue::Hyper(HyperParams::schedule(Round::new(1), 10, 0.2));
        let blob = value.to_blob(&ModelArch::RESNET18);
        let k = key(1, 1);

        let mut e = CacheEngine::new();
        e.record(k, vec![fid(0), fid(1)], ByteSize::from_mb(1), SimTime::ZERO);
        e.decoded_seed(k, &blob, value.clone().into_shared());
        assert!(e.decoded_get(&k).is_some());

        // Removing the placement drops the decoded handle.
        e.remove(&k);
        assert!(e.decoded_get(&k).is_none());

        // Re-recording (overwrite) also invalidates a stale handle.
        e.record(k, vec![fid(0), fid(1)], ByteSize::from_mb(1), SimTime::ZERO);
        e.decoded_seed(k, &blob, value.into_shared());
        e.record(k, vec![fid(2)], ByteSize::from_mb(1), SimTime::ZERO);
        assert!(e.decoded_get(&k).is_none());

        // A surviving replica keeps the decode; orphaning drops it.
        let other = key(2, 2);
        e.record(k, vec![fid(1), fid(2)], ByteSize::from_mb(1), SimTime::ZERO);
        e.decoded_seed(k, &blob, MetaValue::from_blob(&blob).unwrap().into_shared());
        e.record(other, vec![fid(2)], ByteSize::from_mb(1), SimTime::ZERO);
        e.decoded_seed(
            other,
            &blob,
            MetaValue::from_blob(&blob).unwrap().into_shared(),
        );
        e.drop_replica(fid(2));
        assert!(e.decoded_get(&k).is_some(), "replica on fid(1) survives");
        assert!(e.decoded_get(&other).is_none(), "orphaned key re-decodes");
    }

    #[test]
    fn memory_estimate_sees_the_decoded_layer_and_shrinks_on_eviction() {
        use flstore_fl::hyperparams::HyperParams;
        use flstore_fl::metadata::MetaValue;
        use flstore_fl::zoo::ModelArch;

        let mut e = CacheEngine::new();
        let k = key(1, 1);
        e.record(k, vec![fid(0)], ByteSize::from_mb(1), SimTime::ZERO);
        let index_only = e.estimated_memory();

        // Seeding a decoded handle grows the estimate: Arc<MetaValue>
        // residency is part of any capacity decision.
        let value = MetaValue::Hyper(HyperParams::schedule(Round::new(1), 10, 0.2));
        let blob = value.to_blob(&ModelArch::RESNET18);
        e.decoded_seed(k, &blob, value.into_shared());
        let with_decoded = e.estimated_memory();
        assert!(with_decoded > index_only, "{with_decoded} vs {index_only}");
        assert_eq!(
            with_decoded,
            index_only + e.decoded_resident_bytes(),
            "decoded residency folds into the estimate exactly"
        );

        // Eviction releases both layers.
        e.remove(&k);
        assert_eq!(e.estimated_memory(), ByteSize::ZERO);
    }

    #[test]
    fn bytes_tracked_sums_sizes() {
        let mut e = CacheEngine::new();
        e.record(
            key(0, 0),
            vec![fid(0)],
            ByteSize::from_mb(80),
            SimTime::ZERO,
        );
        e.record(
            key(0, 1),
            vec![fid(0)],
            ByteSize::from_mb(20),
            SimTime::ZERO,
        );
        assert_eq!(e.bytes_tracked(), ByteSize::from_mb(100));
        // The running total follows overwrites, removals, and orphaning.
        e.record(
            key(0, 0),
            vec![fid(1)],
            ByteSize::from_mb(30),
            SimTime::ZERO,
        );
        assert_eq!(e.bytes_tracked(), ByteSize::from_mb(50));
        e.remove(&key(0, 1));
        assert_eq!(e.bytes_tracked(), ByteSize::from_mb(30));
        e.drop_replica(fid(1));
        assert_eq!(e.bytes_tracked(), ByteSize::ZERO);
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 8] {
            for r in 0..50u32 {
                for c in 0..8u32 {
                    let k = key(r, c);
                    let s = key_shard_of(&k, shards);
                    assert!(s < shards);
                    assert_eq!(s, key_shard_of(&k, shards), "routing must be pure");
                }
            }
        }
        // One shard degenerates to the unsharded engine.
        assert_eq!(key_shard_of(&key(7, 7), 1), 0);
    }

    #[test]
    fn routing_spreads_one_job_across_shards() {
        // The whole point of key-sharding: a single job's keys land on
        // every shard, so one hot tenant can use all workers.
        let shards = 4;
        let mut hit = vec![false; shards];
        for r in 0..32u32 {
            for c in 0..8u32 {
                hit[key_shard_of(&key(r, c), shards)] = true;
            }
        }
        assert!(hit.iter().all(|&h| h), "some shard never used: {hit:?}");
    }

    /// The observable engine state must not depend on the shard count —
    /// the property every equivalence gate in the workspace leans on.
    #[test]
    fn shard_count_is_unobservable() {
        use flstore_fl::hyperparams::HyperParams;
        use flstore_fl::metadata::MetaValue;
        use flstore_fl::zoo::ModelArch;

        let value = MetaValue::Hyper(HyperParams::schedule(Round::new(1), 10, 0.2));
        let blob = value.to_blob(&ModelArch::RESNET18);

        let run = |shards: usize| {
            let mut e = CacheEngine::with_key_shards(shards);
            for r in 0..12u32 {
                for c in 0..4u32 {
                    e.record(
                        key(r, c),
                        vec![fid(u64::from(r % 3))],
                        ByteSize::from_kb(u64::from(100 + c)),
                        SimTime::ZERO,
                    );
                    e.decoded_seed(key(r, c), &blob, value.clone().into_shared());
                }
            }
            for c in 0..4u32 {
                e.touch(&key(3, c));
                e.decoded_get(&key(5, c));
            }
            e.remove(&key(2, 1));
            e.drop_replica(fid(1));
            let keys: Vec<MetaKey> = e.keys().copied().collect();
            let metas: Vec<(MetaKey, CacheMeta)> =
                keys.iter().map(|k| (*k, *e.meta(k).unwrap())).collect();
            (
                keys,
                metas,
                e.bytes_tracked(),
                e.decoded_resident_bytes(),
                e.decoded_stats(),
                e.len(),
                e.estimated_memory(),
            )
        };

        let baseline = run(1);
        for shards in [2usize, 4, 8] {
            assert_eq!(run(shards), baseline, "K = {shards} observable drift");
        }
    }

    #[test]
    fn gate_mirrors_resident_bytes() {
        use flstore_fl::hyperparams::HyperParams;
        use flstore_fl::metadata::MetaValue;
        use flstore_fl::zoo::ModelArch;

        let value = MetaValue::Hyper(HyperParams::schedule(Round::new(1), 10, 0.2));
        let blob = value.to_blob(&ModelArch::RESNET18);

        let mut e = CacheEngine::with_key_shards(4);
        let resident = |e: &CacheEngine| e.bytes_tracked() + e.decoded_resident_bytes();
        for r in 0..8u32 {
            e.record(
                key(r, 0),
                vec![fid(0)],
                ByteSize::from_kb(64),
                SimTime::ZERO,
            );
            e.decoded_seed(key(r, 0), &blob, value.clone().into_shared());
            assert_eq!(e.admission().occupancy(), resident(&e));
        }
        // Overwrite, remove, orphan: the mirror follows every path.
        e.record(
            key(0, 0),
            vec![fid(1)],
            ByteSize::from_kb(32),
            SimTime::ZERO,
        );
        assert_eq!(e.admission().occupancy(), resident(&e));
        e.remove(&key(1, 0));
        assert_eq!(e.admission().occupancy(), resident(&e));
        e.drop_replica(fid(1));
        assert_eq!(e.admission().occupancy(), resident(&e));
    }
}
