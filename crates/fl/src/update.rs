//! Client model updates — the dominant FL metadata type.
//!
//! Every selected client produces one [`ModelUpdate`] per round: the weight
//! delta plus the training-outcome metrics that non-training workloads
//! consume (loss, accuracy, timing, sample counts).

use serde::{Deserialize, Serialize};

use crate::ids::{ClientId, JobId, Round};
use crate::weights::WeightVector;

/// Training-outcome metrics attached to an update.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateMetrics {
    /// Loss on the client's local data after training.
    pub local_loss: f64,
    /// Accuracy on the client's local validation split.
    pub local_accuracy: f64,
    /// Wall-clock seconds the client spent training.
    pub train_time_s: f64,
    /// Wall-clock seconds the client spent uploading.
    pub upload_time_s: f64,
    /// Number of local training samples.
    pub num_samples: u32,
    /// Rounds of staleness (0 for synchronous FL).
    pub staleness: u32,
}

/// One client's model update for one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelUpdate {
    /// Job that produced the update.
    pub job: JobId,
    /// Client that trained it.
    pub client: ClientId,
    /// Round it belongs to.
    pub round: Round,
    /// Reduced-fidelity weight vector (see `weights` module docs).
    pub weights: WeightVector,
    /// Training-outcome metrics.
    pub metrics: UpdateMetrics,
    /// Ground truth for evaluation only: whether the producing client is
    /// malicious. Workloads must not read this; tests score detectors
    /// against it.
    pub ground_truth_malicious: bool,
}
