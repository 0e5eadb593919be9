//! Cosine-similarity analysis (P2).
//!
//! Computes each client update's cosine similarity to the round aggregate —
//! the primitive behind similarity-based clustering and divergence
//! monitoring (Liu et al. 2023a, paper Table 1).

use flstore_fl::aggregate::AggregateModel;
use flstore_fl::update::ModelUpdate;
use flstore_fl::weights::{RowPanels, WeightVector};

use crate::outputs::CosineOutput;

/// Runs the analysis over one round's updates.
///
/// Returns `None` when `updates` is empty.
pub fn run(updates: &[&ModelUpdate], aggregate: &AggregateModel) -> Option<CosineOutput> {
    if updates.is_empty() {
        return None;
    }
    let vectors: Vec<&WeightVector> = updates.iter().map(|u| &u.weights).collect();
    let panels = RowPanels::new(&vectors);
    let mut norms = vec![0.0; vectors.len()];
    panels.l2_norms(&mut norms);
    let mut similarities = vec![0.0; vectors.len()];
    panels.cosine_similarities(&norms, &aggregate.weights, &mut similarities);
    let per_client: Vec<_> = updates
        .iter()
        .zip(similarities)
        .map(|(u, s)| (u.client, s))
        .collect();
    let mean = per_client.iter().map(|(_, s)| *s).sum::<f64>() / per_client.len() as f64;
    let min = per_client
        .iter()
        .map(|(_, s)| *s)
        .fold(f64::INFINITY, f64::min);
    Some(CosineOutput {
        per_client,
        mean,
        min,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::sample_rounds;

    #[test]
    fn honest_rounds_have_high_mean_similarity() {
        let rounds = sample_rounds(6, 0.0);
        let last = rounds.last().expect("rounds");
        let updates: Vec<&ModelUpdate> = last.updates.iter().collect();
        let out = run(&updates, &last.aggregate).expect("non-empty");
        assert!(out.mean > 0.6, "mean similarity {}", out.mean);
        assert!(out.min <= out.mean);
        assert_eq!(out.per_client.len(), last.updates.len());
    }

    #[test]
    fn malicious_updates_drag_down_min() {
        let rounds = sample_rounds(6, 0.4);
        let mut found = false;
        for r in &rounds {
            if r.updates.iter().any(|u| u.ground_truth_malicious) {
                let updates: Vec<&ModelUpdate> = r.updates.iter().collect();
                let out = run(&updates, &r.aggregate).expect("non-empty");
                assert!(out.min < 0.5, "malicious min {}", out.min);
                found = true;
            }
        }
        assert!(found, "no malicious round sampled");
    }

    #[test]
    fn empty_round_returns_none() {
        let rounds = sample_rounds(1, 0.0);
        assert!(run(&[], &rounds[0].aggregate).is_none());
    }
}
