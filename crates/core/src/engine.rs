//! The Cache Engine (paper §4.2).
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
//! The engine is one partition owned by its store: every access is
//! `&self`/`&mut self` on the store's owner thread, so the three layers are
//! plain maps with no locks or atomics. Externally observable orders are
//! hash-order independent — `keys()` sorts at the boundary and sequence
//! numbers come from one counter.

use std::collections::HashMap;

use flstore_cloud::blob::Blob;
use flstore_fl::decoded::{DecodedCache, DecodedStats};
use flstore_fl::metadata::{MetaKey, SharedValue};
use flstore_serverless::function::FunctionId;
use flstore_sim::bytes::ByteSize;
use flstore_sim::time::SimTime;

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
#[derive(Debug, Clone, Default)]
pub struct CacheEngine {
    locations: HashMap<MetaKey, Vec<FunctionId>>,
    meta: HashMap<MetaKey, CacheMeta>,
    decoded: DecodedCache,
    next_seq: u64,
    /// Running sum of tracked logical bytes, maintained incrementally so
    /// [`CacheEngine::bytes_tracked`] is O(1) — quota checks read it on
    /// every admission.
    tracked: ByteSize,
}

impl CacheEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        CacheEngine::default()
    }

    /// Creates an empty engine. The argument is ignored: it is kept for
    /// callers written when the engine was split into key-shards.
    pub fn with_key_shards(_ignored: usize) -> Self {
        CacheEngine::new()
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Whether `key` is cached (on any replica).
    pub fn contains(&self, key: &MetaKey) -> bool {
        self.locations.contains_key(key)
    }

    /// Replica locations of `key` (one entry per ring that holds it).
    pub fn locations(&self, key: &MetaKey) -> Option<&[FunctionId]> {
        self.locations.get(key).map(|v| v.as_slice())
    }

    /// Cache metadata of `key`.
    pub fn meta(&self, key: &MetaKey) -> Option<&CacheMeta> {
        self.meta.get(key)
    }

    /// Iterates over all cached keys, in sorted key order. The backing map
    /// is hash-ordered; exposing that order here would leak iteration
    /// nondeterminism into every consumer — eviction scans, reclaim
    /// handling, durability digests — so the engine pays the sort once at
    /// the boundary.
    pub fn keys(&self) -> impl Iterator<Item = &MetaKey> {
        // flstore: allow(unordered_iter, collected and sorted immediately below)
        let mut keys: Vec<&MetaKey> = self.locations.keys().collect();
        keys.sort_unstable();
        keys.into_iter()
    }

    /// Total logical bytes tracked (one replica's worth). O(1): the sum
    /// is maintained across `record`/`remove`/`drop_replica`.
    pub fn bytes_tracked(&self) -> ByteSize {
        self.tracked
    }

    /// Decoded-layer read: the shared handle for `key` if the layer holds
    /// one (bumps its hit counter).
    pub fn decoded_get(&mut self, key: &MetaKey) -> Option<SharedValue> {
        self.decoded.get(key)
    }

    /// Decoded-layer read-or-parse: returns the cached handle when `blob`
    /// matches byte-for-byte, otherwise parses and caches.
    pub fn decoded_get_or_decode(&mut self, key: &MetaKey, blob: &Blob) -> Option<SharedValue> {
        self.decoded.get_or_decode(key, blob)
    }

    /// Seeds the decoded layer with a producer-decoded value (ingest-time:
    /// zero-parse).
    pub fn decoded_seed(&mut self, key: MetaKey, blob: &Blob, value: SharedValue) {
        self.decoded.seed(key, blob, value);
    }

    /// Decoded-layer residency.
    pub fn decoded_resident_bytes(&self) -> ByteSize {
        self.decoded.resident_bytes()
    }

    /// Decoded-layer operation counters.
    pub fn decoded_stats(&self) -> DecodedStats {
        self.decoded.stats()
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
        self.decoded.invalidate(&key);
        self.locations.insert(key, replicas);
        let displaced = self.meta.insert(
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
        if let Some(old) = displaced {
            self.tracked = self.tracked.saturating_sub(old.size);
        }
    }

    /// Marks an access to `key`, updating recency/frequency. Returns the
    /// updated metadata, or `None` if the key is not cached.
    pub fn touch(&mut self, key: &MetaKey) -> Option<CacheMeta> {
        let seq = self.bump();
        let meta = self.meta.get_mut(key)?;
        meta.last_access_seq = seq;
        meta.frequency += 1;
        Some(*meta)
    }

    /// Removes a key entirely. Returns its former locations.
    pub fn remove(&mut self, key: &MetaKey) -> Option<Vec<FunctionId>> {
        self.decoded.invalidate(key);
        if let Some(old) = self.meta.remove(key) {
            self.tracked = self.tracked.saturating_sub(old.size);
        }
        self.locations.remove(key)
    }

    /// Drops a single failed replica from every placement that referenced
    /// it; keys left with zero replicas are removed and returned (their
    /// data now only exists in the persistent store).
    pub fn drop_replica(&mut self, failed: FunctionId) -> Vec<MetaKey> {
        let mut orphaned = Vec::new();
        // flstore: allow(unordered_iter, every placement is visited exactly once and the collected keys are sorted below)
        for (key, replicas) in self.locations.iter_mut() {
            replicas.retain(|f| *f != failed);
            if replicas.is_empty() {
                orphaned.push(*key);
            }
        }
        // Hash order may not leak out through the return value: callers
        // re-replicate / log these keys in the order given.
        orphaned.sort_unstable();
        for key in &orphaned {
            self.remove(key);
        }
        orphaned
    }

    /// Adds a repaired replica location for `key` (after re-replication).
    pub fn add_replica(&mut self, key: &MetaKey, replica: FunctionId) -> bool {
        if let Some(replicas) = self.locations.get_mut(key) {
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
        // flstore: allow(unordered_iter, integer sum over replica counts is order-independent)
        let replicas: usize = self.locations.values().map(|v| 8 * v.len()).sum();
        ByteSize::from_bytes((self.locations.len() * per_entry + replicas) as u64)
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
}
