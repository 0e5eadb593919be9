//! Decoded-value cache: at most one `Blob → MetaValue` decode per
//! cached object lifetime.
//!
//! Serving systems keep blobs next to compute (function memory, memcache
//! clusters, object stores); without this layer every request re-parses
//! the blob it already holds. [`DecodedCache`] maps a [`MetaKey`] to the
//! [`SharedValue`] decoded from its current bytes, so a cache hit is an
//! `Arc` clone instead of a decode.
//!
//! Coherence is two-layered:
//!
//! * owners invalidate explicitly on eviction/overwrite
//!   ([`DecodedCache::invalidate`]), and
//! * every validated read ([`DecodedCache::get_or_decode`]) checks that
//!   the presented blob is *the same bytes in memory* as the ones the
//!   cached value was decoded from (same slice address and length — see
//!   `same_bytes`, which uses only upstream `bytes` API). The entry pins
//!   a refcounted clone of those bytes, so the backing buffer can never be
//!   freed and its address reused while the entry lives — a pointer match
//!   therefore guarantees the decode is current, and an overwritten blob
//!   (new buffer, new address) forces a re-decode. No stale handle can
//!   survive an overwrite.

use std::collections::HashMap;

use bytes::Bytes;
use flstore_cloud::blob::Blob;
use flstore_sim::bytes::ByteSize;

use crate::metadata::{MetaKey, MetaValue, SharedValue};

/// Fixed per-entry bookkeeping charge: one hash-map slot (~48 B), the
/// pinned `Bytes` handle (~32 B), and the `Arc` header (~32 B). The
/// decoded value itself is charged via
/// [`MetaValue::resident_estimate`].
const ENTRY_OVERHEAD: ByteSize = ByteSize::from_bytes(112);

/// Byte-identity check: whether two handles view *the same slice of
/// memory* (same starting address, same length). Unlike the vendored
/// `Bytes::ptr_eq`, this relies only on API that upstream `bytes` exposes
/// (`Deref<Target = [u8]>`), so the workspace can swap to crates.io
/// `bytes` without a vendor-only identity method.
///
/// Empty slices are never considered identical: all empty views share one
/// dangling address, so an address match proves nothing about provenance.
fn same_bytes(a: &Bytes, b: &Bytes) -> bool {
    !a.is_empty() && a.len() == b.len() && a.as_ptr() == b.as_ptr()
}

/// Operation counters for the decoded-value layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodedStats {
    /// Reads served from an existing decoded handle (zero-parse).
    pub hits: u64,
    /// Full `Blob → MetaValue` parses performed by the cache.
    pub decodes: u64,
    /// Entries seeded from values already decoded by the producer
    /// (ingest-time: zero-parse).
    pub seeded: u64,
    /// Entries dropped — explicit invalidation or a byte-identity
    /// mismatch on read.
    pub invalidations: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    /// The exact bytes `value` was decoded from. Holding this clone pins
    /// the backing buffer, making the [`same_bytes`] identity check sound.
    payload: Bytes,
    value: SharedValue,
    /// This entry's contribution to [`DecodedCache::resident_bytes`]
    /// (value estimate + fixed bookkeeping), recorded at insertion so
    /// removal subtracts exactly what was added.
    charge: ByteSize,
}

impl Entry {
    fn new(payload: Bytes, value: SharedValue) -> Self {
        let charge = value.resident_estimate() + ENTRY_OVERHEAD;
        Entry {
            payload,
            value,
            charge,
        }
    }
}

/// Maps cached object keys to their decoded value handles.
///
/// # Examples
///
/// ```
/// use flstore_fl::decoded::DecodedCache;
/// use flstore_fl::ids::{ClientId, JobId, Round};
/// use flstore_fl::job::{FlJobConfig, FlJobSim};
/// use flstore_fl::metadata::round_entries;
///
/// let cfg = FlJobConfig::quick_test(JobId::new(1));
/// let model = cfg.model;
/// let record = FlJobSim::new(cfg).next().expect("rounds");
/// let entries = round_entries(&record, JobId::new(1), &model);
///
/// let mut cache = DecodedCache::new();
/// for e in &entries {
///     cache.seed(e.key, &e.blob, e.value.clone());
/// }
/// // Every subsequent read is an Arc clone, not a decode.
/// let e = &entries[0];
/// let v = cache.get_or_decode(&e.key, &e.blob).expect("decodable");
/// assert_eq!(*v, *e.value);
/// assert_eq!(cache.stats().decodes, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DecodedCache {
    entries: HashMap<MetaKey, Entry>,
    stats: DecodedStats,
    resident: ByteSize,
}

impl DecodedCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        DecodedCache::default()
    }

    /// Number of decoded entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Operation counters since construction.
    pub fn stats(&self) -> DecodedStats {
        self.stats
    }

    /// Estimated resident memory of the decoded layer: one
    /// [`MetaValue::resident_estimate`] per entry plus fixed per-entry
    /// bookkeeping. Maintained incrementally, so reading it is O(1) — the
    /// accounting capacity/quota decisions fold into their budgets.
    pub fn resident_bytes(&self) -> ByteSize {
        self.resident
    }

    fn insert_entry(&mut self, key: MetaKey, entry: Entry) {
        self.resident += entry.charge;
        if let Some(old) = self.entries.insert(key, entry) {
            self.resident = self.resident.saturating_sub(old.charge);
        }
    }

    fn remove_entry(&mut self, key: &MetaKey) -> bool {
        match self.entries.remove(key) {
            Some(old) => {
                self.resident = self.resident.saturating_sub(old.charge);
                true
            }
            None => false,
        }
    }

    /// The decoded handle for `key`, if present. Trusts the owner's
    /// explicit invalidation; use [`DecodedCache::get_or_decode`] when the
    /// current blob is at hand and byte-identity should be verified.
    pub fn get(&mut self, key: &MetaKey) -> Option<SharedValue> {
        let entry = self.entries.get(key)?;
        self.stats.hits += 1;
        Some(entry.value.clone())
    }

    /// The decoded handle for `key` validated against `blob`: returns the
    /// cached handle when the entry was decoded from these exact bytes,
    /// re-decodes (and replaces the entry) otherwise. Returns `None` for
    /// undecodable payloads (synthetic blobs), dropping any stale entry.
    pub fn get_or_decode(&mut self, key: &MetaKey, blob: &Blob) -> Option<SharedValue> {
        if let Some(entry) = self.entries.get(key) {
            if same_bytes(&entry.payload, blob.payload()) {
                self.stats.hits += 1;
                return Some(entry.value.clone());
            }
            // Same key, different bytes: the object was overwritten.
            self.stats.invalidations += 1;
            self.remove_entry(key);
        }
        self.decode_insert(*key, blob)
    }

    /// Seeds an entry from a value the producer already holds decoded
    /// (ingest path): no parse happens now or on later hits, as long as
    /// the served blob keeps these bytes.
    ///
    /// Payload-less blobs are ignored: all empty `Bytes` views alias one
    /// address, so a pointer comparison cannot distinguish them and a
    /// seeded entry could match a logically different empty blob later.
    /// (Such blobs carry nothing decodable anyway; `same_bytes` also
    /// refuses empty slices as a second line of defense.)
    pub fn seed(&mut self, key: MetaKey, blob: &Blob, value: SharedValue) {
        if blob.payload().is_empty() {
            return;
        }
        self.stats.seeded += 1;
        self.insert_entry(key, Entry::new(blob.payload().clone(), value));
    }

    /// Drops the entry for `key` (owner-side eviction/overwrite).
    pub fn invalidate(&mut self, key: &MetaKey) {
        if self.remove_entry(key) {
            self.stats.invalidations += 1;
        }
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
        self.resident = ByteSize::ZERO;
    }

    fn decode_insert(&mut self, key: MetaKey, blob: &Blob) -> Option<SharedValue> {
        self.stats.decodes += 1;
        let value = MetaValue::decode_shared(blob)?;
        self.insert_entry(key, Entry::new(blob.payload().clone(), value.clone()));
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{JobId, Round};
    use crate::job::{FlJobConfig, FlJobSim};
    use crate::metadata::round_entries;
    use crate::zoo::ModelArch;
    use flstore_sim::bytes::ByteSize;

    fn sample() -> (MetaKey, SharedValue, Blob) {
        let cfg = FlJobConfig::quick_test(JobId::new(7));
        let model = cfg.model;
        let record = FlJobSim::new(cfg).next().expect("rounds");
        let e = round_entries(&record, JobId::new(7), &model)
            .into_iter()
            .next()
            .expect("entries");
        (e.key, e.value, e.blob)
    }

    #[test]
    fn decode_happens_once_across_repeated_hits() {
        let (key, _, blob) = sample();
        let mut cache = DecodedCache::new();
        let first = cache.get_or_decode(&key, &blob).expect("decodable");
        for _ in 0..100 {
            let again = cache.get_or_decode(&key, &blob).expect("decodable");
            assert!(SharedValue::ptr_eq(&first, &again));
        }
        assert_eq!(cache.stats().decodes, 1);
        assert_eq!(cache.stats().hits, 100);
    }

    #[test]
    fn seeded_entries_never_parse() {
        let (key, value, blob) = sample();
        let mut cache = DecodedCache::new();
        cache.seed(key, &blob, value.clone());
        for _ in 0..10 {
            let got = cache.get_or_decode(&key, &blob).expect("cached");
            assert!(SharedValue::ptr_eq(&value, &got));
        }
        assert_eq!(cache.stats().decodes, 0);
        assert_eq!(cache.stats().seeded, 1);
    }

    #[test]
    fn overwrite_forces_redecode_and_serves_fresh_value() {
        let (key, _, blob) = sample();
        let mut cache = DecodedCache::new();
        let stale = cache.get_or_decode(&key, &blob).expect("decodable");

        // Overwrite: same key, different bytes (a different value).
        let replacement = MetaValue::Hyper(crate::hyperparams::HyperParams::schedule(
            Round::new(1),
            10,
            0.2,
        ));
        let new_blob = replacement.to_blob(&ModelArch::RESNET18);
        let fresh = cache.get_or_decode(&key, &new_blob).expect("decodable");
        assert!(!SharedValue::ptr_eq(&stale, &fresh));
        assert_eq!(*fresh, replacement);
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.stats().decodes, 2);
    }

    #[test]
    fn invalidate_then_refetch_redecodes() {
        let (key, _, blob) = sample();
        let mut cache = DecodedCache::new();
        cache.get_or_decode(&key, &blob).expect("decodable");
        cache.invalidate(&key);
        assert!(cache.get(&key).is_none());
        cache.get_or_decode(&key, &blob).expect("decodable");
        assert_eq!(cache.stats().decodes, 2);
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn synthetic_blobs_do_not_cache() {
        let (key, _, _) = sample();
        let mut cache = DecodedCache::new();
        let blob = Blob::synthetic(ByteSize::from_mb(1));
        assert!(cache.get_or_decode(&key, &blob).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn same_bytes_is_identity_not_equality() {
        let (_, _, blob) = sample();
        let a = blob.payload().clone();
        // A clone views the same backing buffer: identical.
        assert!(same_bytes(&a, blob.payload()));
        // An equal-content copy lives at a different address: not identical.
        let copy = Bytes::copy_from_slice(&a);
        assert_eq!(&*copy, &*a);
        assert!(!same_bytes(&a, &copy));
        // Empty views are never identical, even to themselves by address.
        let empty = Bytes::new();
        assert!(!same_bytes(&empty, &Bytes::new()));
        assert!(!same_bytes(&empty, &empty.clone()));
    }

    #[test]
    fn resident_bytes_track_entry_lifecycle() {
        let (key, value, blob) = sample();
        let mut cache = DecodedCache::new();
        assert_eq!(cache.resident_bytes(), ByteSize::ZERO);
        cache.seed(key, &blob, value.clone());
        let one = cache.resident_bytes();
        assert!(one >= value.resident_estimate(), "{one}");

        // Re-seeding the same key replaces the charge instead of leaking it.
        cache.seed(key, &blob, value.clone());
        assert_eq!(cache.resident_bytes(), one);

        // Invalidation returns the bytes.
        cache.invalidate(&key);
        assert_eq!(cache.resident_bytes(), ByteSize::ZERO);

        // Decoding charges; clearing zeroes.
        cache.get_or_decode(&key, &blob).expect("decodable");
        assert!(cache.resident_bytes() > ByteSize::ZERO);
        cache.clear();
        assert_eq!(cache.resident_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn seeding_a_payloadless_blob_is_refused() {
        // All empty `Bytes` views share one address, so an empty-payload
        // entry would address-match ANY later empty blob and serve a stale
        // value for logically different data. `seed` must refuse it.
        let (key, value, _) = sample();
        let mut cache = DecodedCache::new();
        let synthetic_a = Blob::synthetic(ByteSize::from_mb(1));
        cache.seed(key, &synthetic_a, value);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().seeded, 0);
        // A later read with a different (also payload-less) blob cannot be
        // served a stale handle.
        let synthetic_b = Blob::synthetic(ByteSize::from_mb(2));
        assert!(cache.get_or_decode(&key, &synthetic_b).is_none());
    }
}
