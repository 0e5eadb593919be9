//! Inference serving (P1).
//!
//! Serves the aggregated model: scores a batch of synthetic inputs with a
//! linear probe over the (reduced) aggregate weights. Deterministic under
//! the request seed so repeated requests are reproducible.

use flstore_fl::aggregate::AggregateModel;
use flstore_sim::rng::DetRng;

use crate::outputs::InferenceOutput;

/// Default batch size served per request.
pub const DEFAULT_BATCH: usize = 32;

/// Scores `batch` synthetic inputs against the aggregate.
///
/// Returns `None` when the aggregate has no weights.
pub fn run(aggregate: &AggregateModel, batch: usize, seed: u64) -> Option<InferenceOutput> {
    if aggregate.weights.is_empty() || batch == 0 {
        return None;
    }
    let dim = aggregate.weights.dim();
    let mut rng = DetRng::stream(seed, "inference-batch");
    let scale = (dim as f64).sqrt();
    let mut total = 0.0;
    for _ in 0..batch {
        // Each input component is drawn exactly as `WeightVector::gaussian`
        // draws it and folded straight into the dot product's chain.
        let mut dot = -0.0f64;
        for w in aggregate.weights.as_slice() {
            let x = rng.normal(0.0, 1.0) as f32;
            dot += (*w as f64) * (x as f64);
        }
        let logit = dot / scale;
        total += 1.0 / (1.0 + (-logit).exp()); // sigmoid score
    }
    Some(InferenceOutput {
        batch,
        mean_score: total / batch as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::sample_rounds;

    #[test]
    fn scores_are_probabilities() {
        let rounds = sample_rounds(3, 0.0);
        let out = run(&rounds[2].aggregate, DEFAULT_BATCH, 9).expect("non-empty");
        assert_eq!(out.batch, DEFAULT_BATCH);
        assert!((0.0..=1.0).contains(&out.mean_score));
    }

    #[test]
    fn deterministic_under_seed() {
        let rounds = sample_rounds(2, 0.0);
        let a = run(&rounds[1].aggregate, 16, 5).expect("ok");
        let b = run(&rounds[1].aggregate, 16, 5).expect("ok");
        assert_eq!(a, b);
        let c = run(&rounds[1].aggregate, 16, 6).expect("ok");
        assert_ne!(a.mean_score, c.mean_score);
    }

    #[test]
    fn zero_batch_is_none() {
        let rounds = sample_rounds(1, 0.0);
        assert!(run(&rounds[0].aggregate, 0, 1).is_none());
    }
}
