//! Metadata keys and values: the unit of storage.
//!
//! Everything an FL job emits is addressed by a [`MetaKey`]
//! `(job, round, client?, kind)` and stored as a [`MetaValue`]. Values
//! serialize into [`Blob`]s whose *payload* is the reduced-fidelity record
//! in the shared binary encoding ([`crate::codec`]) and whose *logical
//! size* is what the real artifact would occupy (the full serialized model
//! for updates/aggregates) — the quantity all latency/cost models account.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use flstore_cloud::blob::{Blob, ObjectKey};
use flstore_sim::bytes::ByteSize;

use crate::aggregate::AggregateModel;
use crate::codec::{get_meta_value, put_meta_value, Reader};
use crate::hyperparams::HyperParams;
use crate::ids::{ClientId, JobId, Round};
use crate::job::RoundRecord;
use crate::metrics::RoundMetrics;
use crate::update::ModelUpdate;
use crate::zoo::ModelArch;

/// The four metadata classes FL jobs emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MetaKind {
    /// One client's model update for one round.
    ClientUpdate,
    /// The aggregated global model for one round.
    Aggregate,
    /// Hyperparameters used in one round.
    HyperParams,
    /// Pool-wide operational metrics for one round.
    RoundMetrics,
}

impl MetaKind {
    fn tag(self) -> &'static str {
        match self {
            MetaKind::ClientUpdate => "update",
            MetaKind::Aggregate => "aggregate",
            MetaKind::HyperParams => "hyper",
            MetaKind::RoundMetrics => "metrics",
        }
    }
}

/// Structured address of one metadata object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MetaKey {
    /// Producing job.
    pub job: JobId,
    /// Round the object belongs to.
    pub round: Round,
    /// Producing client (updates only).
    pub client: Option<ClientId>,
    /// Metadata class.
    pub kind: MetaKind,
}

impl MetaKey {
    /// Key of a client update.
    pub fn update(job: JobId, round: Round, client: ClientId) -> MetaKey {
        MetaKey {
            job,
            round,
            client: Some(client),
            kind: MetaKind::ClientUpdate,
        }
    }

    /// Key of a round aggregate.
    pub fn aggregate(job: JobId, round: Round) -> MetaKey {
        MetaKey {
            job,
            round,
            client: None,
            kind: MetaKind::Aggregate,
        }
    }

    /// Key of a round's hyperparameters.
    pub fn hyperparams(job: JobId, round: Round) -> MetaKey {
        MetaKey {
            job,
            round,
            client: None,
            kind: MetaKind::HyperParams,
        }
    }

    /// Key of a round's operational metrics.
    pub fn metrics(job: JobId, round: Round) -> MetaKey {
        MetaKey {
            job,
            round,
            client: None,
            kind: MetaKind::RoundMetrics,
        }
    }

    /// Flattens into the opaque key used by stores and caches.
    pub fn object_key(&self) -> ObjectKey {
        match self.client {
            Some(c) => ObjectKey::new(format!(
                "{}/{}/{}/{}",
                self.job,
                self.round,
                c,
                self.kind.tag()
            )),
            None => ObjectKey::new(format!("{}/{}/{}", self.job, self.round, self.kind.tag())),
        }
    }
}

impl std::fmt::Display for MetaKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.object_key())
    }
}

/// A shared handle to a decoded [`MetaValue`].
///
/// Cloning is a refcount bump — serving systems hand these out per request
/// so a cached object is parsed from its [`Blob`] at most once per
/// lifetime, instead of re-decoding the blob on every access.
/// `Arc<MetaValue>: Borrow<MetaValue>`, so a `&[SharedValue]` slice feeds
/// any consumer generic over `Borrow<MetaValue>` (see
/// `flstore_workloads::run::execute`).
pub type SharedValue = Arc<MetaValue>;

/// A typed metadata record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetaValue {
    /// A client model update.
    Update(ModelUpdate),
    /// A round aggregate.
    Aggregate(AggregateModel),
    /// Round hyperparameters.
    Hyper(HyperParams),
    /// Round operational metrics.
    Metrics(RoundMetrics),
}

impl MetaValue {
    /// The key addressing this value.
    pub fn key(&self) -> MetaKey {
        match self {
            MetaValue::Update(u) => MetaKey::update(u.job, u.round, u.client),
            MetaValue::Aggregate(a) => MetaKey::aggregate(a.job, a.round),
            // Hyper/metrics records do not embed the job id; the producing
            // job attaches it via `keyed_for`.
            MetaValue::Hyper(h) => MetaKey::hyperparams(JobId::new(0), h.round),
            MetaValue::Metrics(m) => MetaKey::metrics(JobId::new(0), m.round),
        }
    }

    /// The key addressing this value within `job` (needed for hyper/metrics
    /// records, which do not embed the job id).
    pub fn keyed_for(&self, job: JobId) -> MetaKey {
        let mut key = self.key();
        key.job = job;
        key
    }

    /// Logical byte volume of the real artifact.
    ///
    /// Updates and aggregates occupy a full serialized model; the small
    /// records are kilobytes.
    pub fn logical_size(&self, model: &ModelArch) -> ByteSize {
        match self {
            MetaValue::Update(_) | MetaValue::Aggregate(_) => model.size(),
            MetaValue::Hyper(_) => ByteSize::from_kb(2),
            MetaValue::Metrics(m) => ByteSize::from_bytes(1024 + 96 * m.clients.len() as u64),
        }
    }

    /// Estimated in-memory footprint of the *decoded* value (the
    /// `Arc<MetaValue>` a decoded-value cache holds resident), independent
    /// of the logical artifact size. Weights dominate (4 B/f32 element);
    /// the small records are a constant plus per-client rows.
    pub fn resident_estimate(&self) -> ByteSize {
        let body = match self {
            MetaValue::Update(u) => 96 + 4 * u.weights.dim() as u64,
            MetaValue::Aggregate(a) => 64 + 4 * a.weights.dim() as u64,
            MetaValue::Hyper(_) => 64,
            MetaValue::Metrics(m) => 64 + 96 * m.clients.len() as u64,
        };
        ByteSize::from_bytes(body)
    }

    /// Serializes into a storable blob: the payload is
    /// [`put_meta_value`]'s bytes — what the cache holds, the object store
    /// persists and the cold tier spills — beside the logical size.
    pub fn to_blob(&self, model: &ModelArch) -> Blob {
        let mut payload = Vec::new();
        put_meta_value(&mut payload, self);
        Blob::with_payload(payload.into(), self.logical_size(model))
    }

    /// Decodes a blob produced by [`MetaValue::to_blob`].
    ///
    /// Returns `None` for blobs without a decodable payload (e.g. purely
    /// synthetic blobs used in capacity tests).
    pub fn from_blob(blob: &Blob) -> Option<MetaValue> {
        let mut r = Reader::new(blob.payload());
        let value = get_meta_value(&mut r).ok()?;
        r.finish().ok()?;
        Some(value)
    }

    /// One-time parse into a shared handle: the blob decode happens
    /// here, after which every consumer clones the cheap [`SharedValue`]
    /// instead of re-parsing.
    pub fn decode_shared(blob: &Blob) -> Option<SharedValue> {
        MetaValue::from_blob(blob).map(Arc::new)
    }

    /// Wraps an already-constructed value in a shared handle.
    pub fn into_shared(self) -> SharedValue {
        Arc::new(self)
    }
}

/// One ingestible metadata object: its key, the decoded value handle, and
/// the serialized blob. Producing both sides at ingest time lets serving
/// systems seed their decoded-value caches without ever re-parsing the
/// blob they just wrote.
#[derive(Debug, Clone)]
pub struct RoundEntry {
    /// Storage address.
    pub key: MetaKey,
    /// The decoded value, shareable without re-parsing.
    pub value: SharedValue,
    /// The persisted form (encoded payload + logical size).
    pub blob: Blob,
}

/// Flattens a [`RoundRecord`] into ingestible [`RoundEntry`]s: one per
/// client update, plus the aggregate, hyperparameters, and metrics. Each
/// entry carries both the blob (for the persistence boundary) and the
/// decoded handle (for serving caches).
pub fn round_entries(record: &RoundRecord, job: JobId, model: &ModelArch) -> Vec<RoundEntry> {
    let mut out = Vec::with_capacity(record.updates.len() + 3);
    let mut push = |v: MetaValue| {
        let key = v.keyed_for(job);
        let blob = v.to_blob(model);
        out.push(RoundEntry {
            key,
            value: v.into_shared(),
            blob,
        });
    };
    for u in &record.updates {
        push(MetaValue::Update(u.clone()));
    }
    push(MetaValue::Aggregate(record.aggregate.clone()));
    push(MetaValue::Hyper(record.hyperparams.clone()));
    push(MetaValue::Metrics(record.metrics.clone()));
    out
}

/// Flattens a [`RoundRecord`] into storable `(key, blob)` pairs: one blob
/// per client update, plus the aggregate, hyperparameters, and metrics.
/// Prefer [`round_entries`] when the decoded values are also needed.
pub fn round_blobs(record: &RoundRecord, job: JobId, model: &ModelArch) -> Vec<(MetaKey, Blob)> {
    round_entries(record, job, model)
        .into_iter()
        .map(|e| (e.key, e.blob))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{FlJobConfig, FlJobSim};

    #[test]
    fn object_keys_are_unique_and_stable() {
        let job = JobId::new(1);
        let r = Round::new(5);
        let a = MetaKey::update(job, r, ClientId::new(3)).object_key();
        let b = MetaKey::update(job, r, ClientId::new(4)).object_key();
        let c = MetaKey::aggregate(job, r).object_key();
        let d = MetaKey::hyperparams(job, r).object_key();
        let e = MetaKey::metrics(job, r).object_key();
        let keys = [&a, &b, &c, &d, &e];
        for (i, x) in keys.iter().enumerate() {
            for (j, y) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(x, y);
                }
            }
        }
        assert_eq!(a.as_str(), "job-1/round-5/client-3/update");
    }

    #[test]
    fn blob_round_trip_preserves_value() {
        let mut sim = FlJobSim::new(FlJobConfig::quick_test(JobId::new(2)));
        let record = sim.next().expect("has rounds");
        let model = ModelArch::RESNET18;
        for (_, blob) in round_blobs(&record, JobId::new(2), &model) {
            let value = MetaValue::from_blob(&blob).expect("decodable");
            let re = value.to_blob(&model);
            assert_eq!(re.logical_size(), blob.logical_size());
            assert_eq!(MetaValue::from_blob(&re), Some(value));
        }
    }

    #[test]
    fn logical_sizes_follow_kinds() {
        let mut sim = FlJobSim::new(FlJobConfig::quick_test(JobId::new(3)));
        let record = sim.next().expect("has rounds");
        let model = ModelArch::EFFICIENTNET_V2_S;
        let update = MetaValue::Update(record.updates[0].clone());
        assert_eq!(update.logical_size(&model), model.size());
        let hyper = MetaValue::Hyper(record.hyperparams.clone());
        assert!(hyper.logical_size(&model) < ByteSize::from_kb(10));
        let metrics = MetaValue::Metrics(record.metrics.clone());
        assert!(metrics.logical_size(&model) > ByteSize::from_kb(1));
        assert!(metrics.logical_size(&model) < ByteSize::from_mb(1));
    }

    #[test]
    fn round_blobs_cover_all_artifacts() {
        let mut sim = FlJobSim::new(FlJobConfig::quick_test(JobId::new(4)));
        let record = sim.next().expect("has rounds");
        let blobs = round_blobs(&record, JobId::new(4), &ModelArch::RESNET18);
        assert_eq!(blobs.len(), record.updates.len() + 3);
        let kinds: Vec<MetaKind> = blobs.iter().map(|(k, _)| k.kind).collect();
        assert!(kinds.contains(&MetaKind::Aggregate));
        assert!(kinds.contains(&MetaKind::HyperParams));
        assert!(kinds.contains(&MetaKind::RoundMetrics));
        // Every key carries the right job id.
        assert!(blobs.iter().all(|(k, _)| k.job == JobId::new(4)));
    }

    #[test]
    fn resident_estimates_track_content() {
        let mut sim = FlJobSim::new(FlJobConfig::quick_test(JobId::new(5)));
        let record = sim.next().expect("has rounds");
        let update = MetaValue::Update(record.updates[0].clone());
        let hyper = MetaValue::Hyper(record.hyperparams.clone());
        let metrics = MetaValue::Metrics(record.metrics.clone());
        // Weights dominate an update's decoded footprint.
        assert!(update.resident_estimate() > hyper.resident_estimate());
        // Metrics grow with the client pool.
        assert!(
            metrics.resident_estimate()
                > ByteSize::from_bytes(96 * record.metrics.clients.len() as u64)
        );
        // Decoded residency is not the logical artifact size: a decoded
        // update is far smaller than the serialized model it stands for.
        assert!(update.resident_estimate() < update.logical_size(&ModelArch::RESNET18));
    }

    #[test]
    fn synthetic_blob_decodes_to_none() {
        let blob = Blob::synthetic(ByteSize::from_mb(1));
        assert_eq!(MetaValue::from_blob(&blob), None);
    }
}
