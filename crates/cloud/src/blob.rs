//! Shared storage types: keys, blobs, receipts, errors.

use std::error::Error;
use std::fmt;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use flstore_sim::bytes::ByteSize;
use flstore_sim::cost::CostBreakdown;
use flstore_sim::time::SimDuration;

/// Key addressing one object in a store or cache.
///
/// Downstream crates format their structured metadata keys (job / client /
/// round / kind) into an `ObjectKey`; stores treat it as opaque.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectKey(String);

impl ObjectKey {
    /// Creates a key from any string-like value.
    pub fn new(key: impl Into<String>) -> Self {
        ObjectKey(key.into())
    }

    /// The key as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ObjectKey {
    fn from(s: &str) -> Self {
        ObjectKey::new(s)
    }
}

impl From<String> for ObjectKey {
    fn from(s: String) -> Self {
        ObjectKey(s)
    }
}

/// A stored object: an optional real payload plus the *logical* size used by
/// every latency and cost model.
///
/// The reproduction stores reduced-fidelity model weights (a few kilobytes)
/// while accounting for the true serialized model size (tens to hundreds of
/// megabytes) — see DESIGN.md §2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Blob {
    logical_size: ByteSize,
    #[serde(skip, default)]
    payload: Bytes,
}

impl Blob {
    /// A blob with a logical size and no physical payload. Used where only
    /// the byte-volume matters (latency/cost modeling).
    pub fn synthetic(logical_size: ByteSize) -> Self {
        Blob {
            logical_size,
            payload: Bytes::new(),
        }
    }

    /// A blob carrying a real (reduced-fidelity) payload while accounting
    /// for `logical_size` bytes.
    pub fn with_payload(payload: Bytes, logical_size: ByteSize) -> Self {
        Blob {
            logical_size,
            payload,
        }
    }

    /// The logical size used for transfer and storage accounting.
    pub fn logical_size(&self) -> ByteSize {
        self.logical_size
    }

    /// The physical payload (possibly empty).
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }
}

/// Latency and cost receipt for one storage/cache/function operation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OpReceipt {
    /// Time the operation took on the critical path of the caller.
    pub latency: SimDuration,
    /// Dollars attributed to the operation.
    pub cost: CostBreakdown,
}

impl OpReceipt {
    /// Combines two receipts that happened sequentially.
    pub fn then(self, next: OpReceipt) -> OpReceipt {
        OpReceipt {
            latency: self.latency + next.latency,
            cost: self.cost + next.cost,
        }
    }
}

/// Errors returned by storage services.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The requested key does not exist.
    NotFound(ObjectKey),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound(key) => write!(f, "object not found: {key}"),
        }
    }
}

impl Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use flstore_sim::cost::Cost;

    #[test]
    fn object_key_round_trips() {
        let k = ObjectKey::new("job1/client7/round42/update");
        assert_eq!(k.as_str(), "job1/client7/round42/update");
        assert_eq!(k.to_string(), "job1/client7/round42/update");
        assert_eq!(ObjectKey::from("x"), ObjectKey::new("x"));
    }

    #[test]
    fn blob_sizes() {
        let b = Blob::synthetic(ByteSize::from_mb(161));
        assert_eq!(b.logical_size(), ByteSize::from_mb(161));
        assert!(b.payload().is_empty());

        let with = Blob::with_payload(Bytes::from_static(b"abc"), ByteSize::from_mb(1));
        assert_eq!(with.payload().len(), 3);
    }

    #[test]
    fn receipts_compose() {
        let a = OpReceipt {
            latency: SimDuration::from_secs(1),
            cost: CostBreakdown::compute_only(Cost::from_dollars(0.1)),
        };
        let b = OpReceipt {
            latency: SimDuration::from_secs(2),
            cost: CostBreakdown::transfer_only(Cost::from_dollars(0.2)),
        };
        let c = a.then(b);
        assert_eq!(c.latency, SimDuration::from_secs(3));
        assert!((c.cost.total().as_dollars() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn store_error_displays() {
        let e = StoreError::NotFound(ObjectKey::new("missing"));
        assert_eq!(e.to_string(), "object not found: missing");
    }
}
