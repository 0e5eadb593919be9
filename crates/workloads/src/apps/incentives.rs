//! Incentive distribution (P2).
//!
//! Shapley-flavoured contribution accounting (Sun et al. 2023): each
//! participant's payout for a round is its share of a fixed budget,
//! proportional to how well its update aligns with the *self-excluded
//! consensus* (the mean of everyone else's updates). Excluding the client's
//! own update keeps the reference robust: a poisoned update cannot inflate
//! the consensus it is scored against.

use flstore_fl::aggregate::AggregateModel;
use flstore_fl::update::ModelUpdate;
use flstore_fl::weights::WeightVector;

use crate::outputs::IncentivesOutput;

/// Credit budget distributed per round.
pub const ROUND_BUDGET: f64 = 10.0;

/// Distributes the round budget over participants by marginal contribution.
///
/// Returns `None` when `updates` is empty.
pub fn run(updates: &[&ModelUpdate], aggregate: &AggregateModel) -> Option<IncentivesOutput> {
    if updates.is_empty() {
        return None;
    }
    // contribution_i = cos(update_i, mean of everyone else's updates),
    // floored at a small epsilon so payouts stay non-negative and every
    // participant receives something for showing up. The aggregate is used
    // only as the fallback reference when a client is alone in the round.
    let vectors: Vec<&WeightVector> = updates.iter().map(|u| &u.weights).collect();
    let n = vectors.len();
    let mut raw: Vec<f64> = Vec::with_capacity(n);
    if n == 1 {
        // Single participant owns the round: score against the aggregate.
        let alignment = vectors[0].cosine_similarity(&aggregate.weights);
        raw.push(alignment.max(0.0) + 1e-3);
    } else {
        // The consensus without client `skip` is `WeightVector::mean` of
        // the others: an in-order f32 sum, then a scale. `prefix` holds
        // the sum of the clients before `skip`, so each consensus only
        // adds the clients after it.
        let mut prefix = WeightVector::zeros(vectors[0].dim());
        let mut consensus = WeightVector::zeros(vectors[1].dim());
        for skip in 0..n {
            if skip > 0 {
                consensus.clone_from(&prefix);
            }
            consensus.add_rows(&vectors[skip + 1..]);
            consensus.scale_in_place(1.0 / (n - 1) as f64);
            let alignment = vectors[skip].cosine_similarity(&consensus);
            raw.push(alignment.max(0.0) + 1e-3);
            if skip + 1 < n {
                prefix.add_rows(&vectors[skip..=skip]);
            }
        }
    }
    let total: f64 = raw.iter().sum();
    let payouts = updates
        .iter()
        .zip(&raw)
        .map(|(u, r)| (u.client, ROUND_BUDGET * r / total))
        .collect();
    Some(IncentivesOutput {
        payouts,
        budget: ROUND_BUDGET,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{sample_rounds, sample_rounds_with, TestJob};

    #[test]
    fn budget_is_fully_distributed() {
        let rounds = sample_rounds(5, 0.0);
        let last = rounds.last().expect("rounds");
        let updates: Vec<&ModelUpdate> = last.updates.iter().collect();
        let out = run(&updates, &last.aggregate).expect("non-empty");
        let total: f64 = out.payouts.iter().map(|(_, p)| *p).sum();
        assert!((total - ROUND_BUDGET).abs() < 1e-9, "distributed {total}");
        assert!(out.payouts.iter().all(|(_, p)| *p >= 0.0));
    }

    #[test]
    fn malicious_clients_earn_less_than_honest_average() {
        let TestJob { records, .. } = sample_rounds_with(12, 0.3, 12, 12);
        let mut honest = Vec::new();
        let mut malicious = Vec::new();
        for r in &records {
            let updates: Vec<&ModelUpdate> = r.updates.iter().collect();
            if updates.len() < 4 {
                continue;
            }
            let Some(out) = run(&updates, &r.aggregate) else {
                continue;
            };
            for (client, pay) in &out.payouts {
                let is_mal = r
                    .updates
                    .iter()
                    .find(|u| u.client == *client)
                    .map(|u| u.ground_truth_malicious)
                    .unwrap_or(false);
                if is_mal {
                    malicious.push(*pay);
                } else {
                    honest.push(*pay);
                }
            }
        }
        if honest.is_empty() || malicious.is_empty() {
            return;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // Poisoned updates are uncorrelated with the honest consensus, so
        // their alignment share is smaller.
        assert!(
            mean(&honest) > mean(&malicious),
            "honest {} vs malicious {}",
            mean(&honest),
            mean(&malicious)
        );
    }

    #[test]
    fn single_participant_takes_everything() {
        let rounds = sample_rounds(1, 0.0);
        let first = &rounds[0];
        let updates = [&first.updates[0]];
        let out = run(&updates, &first.aggregate).expect("non-empty");
        assert_eq!(out.payouts.len(), 1);
        assert!((out.payouts[0].1 - ROUND_BUDGET).abs() < 1e-9);
    }

    #[test]
    fn empty_is_none() {
        let rounds = sample_rounds(1, 0.0);
        assert!(run(&[], &rounds[0].aggregate).is_none());
    }
}
