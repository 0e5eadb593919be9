//! # flstore-fl — federated learning substrate
//!
//! Generates the FL metadata stream that non-training workloads consume and
//! storage systems move, without training real neural networks:
//!
//! * [`zoo`] — the 23-model zoo of the paper's Fig. 19 plus the four
//!   evaluation models, with real parameter counts and checkpoint sizes.
//! * [`weights`] — reduced-fidelity weight vectors with real vector math
//!   (norms, cosine similarity, distances, averaging).
//! * [`client`] — heterogeneous device population (speed, bandwidth,
//!   availability, reliability, non-IID data, malicious flags).
//! * [`job`] — the deterministic round-by-round job simulator.
//! * [`aggregate`] — FedAvg and mean aggregation.
//! * [`hyperparams`] / [`metrics`] — the small per-round records (P4 data).
//! * [`metadata`] — `(job, round, client?, kind)` keys and blob
//!   serialization with full-model logical sizes.
//! * [`codec`] — the one binary record encoding the wire, the ledger and
//!   the blobs share.
//! * [`dataset`] / [`ids`] — descriptors and identifier newtypes.
//!
//! The statistical structure is what matters: honest updates share a global
//! signal plus latent cluster structure; malicious updates are
//! high-norm outliers; losses decay along a convergence trajectory. The
//! workload crate's detectors, clusterers, and schedulers operate on this
//! structure for real, and tests score them against the embedded ground
//! truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod client;
pub mod codec;
pub mod dataset;
pub mod decoded;
pub mod hyperparams;
pub mod ids;
pub mod job;
pub mod metadata;
pub mod metrics;
pub mod update;
pub mod weights;
pub mod zoo;

pub use aggregate::{fedavg, AggregateModel};
pub use client::ClientProfile;
pub use dataset::DatasetSpec;
pub use decoded::{DecodedCache, DecodedStats};
pub use hyperparams::HyperParams;
pub use ids::{ClientId, JobId, Round};
pub use job::{FlJobConfig, FlJobSim, RoundRecord};
pub use metadata::{
    round_blobs, round_entries, MetaKey, MetaKind, MetaValue, RoundEntry, SharedValue,
};
pub use metrics::{ClientRoundInfo, RoundMetrics};
pub use update::{ModelUpdate, UpdateMetrics};
pub use weights::WeightVector;
pub use zoo::ModelArch;
