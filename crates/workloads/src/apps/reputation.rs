//! Reputation calculation (P3).
//!
//! Tracks one client across consecutive rounds: each participation earns a
//! contribution score (alignment between the client's update and that
//! round's aggregate), and reputation is the recency-weighted average —
//! the primitive behind reputation-aware incentive systems (Khan et al.
//! 2024c, Hu et al. 2022).

use std::collections::HashMap;

use flstore_fl::aggregate::AggregateModel;
use flstore_fl::ids::{ClientId, Round};
use flstore_fl::update::ModelUpdate;

use crate::algorithms::ewma;
use crate::outputs::ReputationOutput;

/// EWMA smoothing for reputation.
const ALPHA: f64 = 0.4;

/// Computes the reputation trace of `client` from its updates across rounds
/// and the matching aggregates.
///
/// Returns `None` when no update of `client` is present.
pub fn run(
    client: ClientId,
    updates: &[&ModelUpdate],
    aggregates: &[&AggregateModel],
) -> Option<ReputationOutput> {
    let agg_by_round: HashMap<Round, &AggregateModel> =
        aggregates.iter().map(|a| (a.round, *a)).collect();
    let mut history: Vec<(Round, f64)> = updates
        .iter()
        .filter(|u| u.client == client)
        .filter_map(|u| {
            let agg = agg_by_round.get(&u.round)?;
            let alignment = u.weights.cosine_similarity(&agg.weights).max(0.0);
            // Blend direction alignment with reported local quality.
            let contribution = 0.7 * alignment + 0.3 * u.metrics.local_accuracy;
            Some((u.round, contribution))
        })
        .collect();
    history.sort_by_key(|(r, _)| *r);
    let series: Vec<f64> = history.iter().map(|(_, c)| *c).collect();
    let reputation = ewma(&series, ALPHA)?;
    Some(ReputationOutput {
        client,
        history,
        reputation: reputation.clamp(0.0, 1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{sample_rounds_with, TestJob};

    #[test]
    fn honest_clients_outrank_malicious() {
        let TestJob { records, .. } = sample_rounds_with(20, 0.3, 12, 12);
        let updates: Vec<&ModelUpdate> = records.iter().flat_map(|r| r.updates.iter()).collect();
        let aggregates: Vec<&AggregateModel> = records.iter().map(|r| &r.aggregate).collect();

        let mut honest = Vec::new();
        let mut malicious = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for u in &updates {
            if !seen.insert(u.client) {
                continue;
            }
            if let Some(out) = run(u.client, &updates, &aggregates) {
                if u.ground_truth_malicious {
                    malicious.push(out.reputation);
                } else {
                    honest.push(out.reputation);
                }
            }
        }
        assert!(!honest.is_empty() && !malicious.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&honest) > mean(&malicious) + 0.2,
            "honest {} vs malicious {}",
            mean(&honest),
            mean(&malicious)
        );
    }

    #[test]
    fn history_is_round_ordered() {
        let TestJob { records, .. } = sample_rounds_with(15, 0.0, 10, 5);
        let updates: Vec<&ModelUpdate> = records.iter().flat_map(|r| r.updates.iter()).collect();
        let aggregates: Vec<&AggregateModel> = records.iter().map(|r| &r.aggregate).collect();
        let client = updates[0].client;
        let out = run(client, &updates, &aggregates).expect("participated");
        for pair in out.history.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
        assert!((0.0..=1.0).contains(&out.reputation));
    }

    #[test]
    fn absent_client_is_none() {
        let TestJob { records, .. } = sample_rounds_with(3, 0.0, 10, 5);
        let updates: Vec<&ModelUpdate> = records.iter().flat_map(|r| r.updates.iter()).collect();
        let aggregates: Vec<&AggregateModel> = records.iter().map(|r| &r.aggregate).collect();
        assert!(run(ClientId::new(9_999), &updates, &aggregates).is_none());
    }
}
