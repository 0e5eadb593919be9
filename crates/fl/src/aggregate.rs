//! Server-side aggregation (FedAvg).

use serde::{Deserialize, Serialize};

use crate::ids::{JobId, Round};
use crate::update::ModelUpdate;
use crate::weights::WeightVector;

/// The aggregated global model after one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateModel {
    /// Job the aggregate belongs to.
    pub job: JobId,
    /// Round the aggregate concludes.
    pub round: Round,
    /// Aggregated weights.
    pub weights: WeightVector,
    /// Estimated global loss.
    pub loss: f64,
    /// Estimated global accuracy.
    pub accuracy: f64,
    /// Number of updates aggregated.
    pub num_clients: u32,
}

/// Sample-weighted FedAvg over a round's updates.
///
/// Returns `None` for an empty round.
///
/// # Panics
///
/// Panics if updates disagree on weight dimensionality.
pub fn fedavg(job: JobId, round: Round, updates: &[ModelUpdate]) -> Option<AggregateModel> {
    let first = updates.first()?;
    let total_samples: f64 = updates.iter().map(|u| u.metrics.num_samples as f64).sum();
    let mut weights = WeightVector::zeros(first.weights.dim());
    let mut loss = 0.0;
    let mut accuracy = 0.0;
    for u in updates {
        let w = if total_samples > 0.0 {
            u.metrics.num_samples as f64 / total_samples
        } else {
            1.0 / updates.len() as f64
        };
        weights.axpy(w, &u.weights);
        loss += w * u.metrics.local_loss;
        accuracy += w * u.metrics.local_accuracy;
    }
    Some(AggregateModel {
        job,
        round,
        weights,
        loss,
        accuracy,
        num_clients: updates.len() as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use crate::update::UpdateMetrics;

    fn update(client: u32, samples: u32, w: Vec<f32>, loss: f64) -> ModelUpdate {
        ModelUpdate {
            job: JobId::new(0),
            client: ClientId::new(client),
            round: Round::new(0),
            weights: WeightVector::from_vec(w),
            metrics: UpdateMetrics {
                local_loss: loss,
                local_accuracy: 1.0 - loss / 4.0,
                train_time_s: 10.0,
                upload_time_s: 1.0,
                num_samples: samples,
                staleness: 0,
            },
            ground_truth_malicious: false,
        }
    }

    #[test]
    fn fedavg_weights_by_samples() {
        let updates = vec![
            update(0, 300, vec![1.0, 0.0], 1.0),
            update(1, 100, vec![0.0, 1.0], 2.0),
        ];
        let agg = fedavg(JobId::new(0), Round::new(0), &updates).expect("non-empty");
        assert!((agg.weights.as_slice()[0] - 0.75).abs() < 1e-6);
        assert!((agg.weights.as_slice()[1] - 0.25).abs() < 1e-6);
        assert!((agg.loss - 1.25).abs() < 1e-9);
        assert_eq!(agg.num_clients, 2);
    }

    #[test]
    fn empty_round_returns_none() {
        assert!(fedavg(JobId::new(0), Round::new(0), &[]).is_none());
    }
}
