//! Debugging / fault localization (P3).
//!
//! FedDebug-style rewind (Gill et al. 2023): replay a client's updates
//! across past rounds and measure how anomalously each moved the aggregate.
//! Influence combines misalignment (1 − cosine to the aggregate) with the
//! norm ratio — a faulty or poisoned client shows persistently high
//! influence, a healthy one does not.

use std::collections::HashMap;

use flstore_fl::aggregate::AggregateModel;
use flstore_fl::ids::{ClientId, Round};
use flstore_fl::update::ModelUpdate;

use crate::algorithms::median;
use crate::outputs::DebuggingOutput;

/// Median influence above which a client is diagnosed faulty.
const FAULT_THRESHOLD: f64 = 0.8;

/// Traces `client` across the supplied rounds.
///
/// Returns `None` when the client never appears in `updates`.
pub fn run(
    client: ClientId,
    updates: &[&ModelUpdate],
    aggregates: &[&AggregateModel],
) -> Option<DebuggingOutput> {
    let agg_by_round: HashMap<Round, &AggregateModel> =
        aggregates.iter().map(|a| (a.round, *a)).collect();
    let mut per_round: Vec<(Round, f64)> = updates
        .iter()
        .filter(|u| u.client == client)
        .filter_map(|u| {
            let agg = agg_by_round.get(&u.round)?;
            let misalignment = 1.0 - u.weights.cosine_similarity(&agg.weights);
            let agg_norm = agg.weights.l2_norm().max(1e-9);
            let norm_ratio = u.weights.l2_norm() / agg_norm;
            Some((u.round, misalignment * norm_ratio))
        })
        .collect();
    if per_round.is_empty() {
        return None;
    }
    per_round.sort_by_key(|(r, _)| *r);
    let influences: Vec<f64> = per_round.iter().map(|(_, i)| *i).collect();
    let faulty = median(&influences).expect("non-empty") > FAULT_THRESHOLD;
    Some(DebuggingOutput {
        client,
        per_round,
        faulty,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{sample_rounds_with, TestJob};

    fn trace_all(records: &[flstore_fl::job::RoundRecord]) -> Vec<(bool, DebuggingOutput)> {
        let updates: Vec<&ModelUpdate> = records.iter().flat_map(|r| r.updates.iter()).collect();
        let aggregates: Vec<&AggregateModel> = records.iter().map(|r| &r.aggregate).collect();
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for u in &updates {
            if seen.insert(u.client) {
                if let Some(trace) = run(u.client, &updates, &aggregates) {
                    out.push((u.ground_truth_malicious, trace));
                }
            }
        }
        out
    }

    #[test]
    fn diagnoses_faulty_clients() {
        let TestJob { records, .. } = sample_rounds_with(20, 0.3, 12, 12);
        let traces = trace_all(&records);
        let mut tp = 0;
        let mut total_bad = 0;
        let mut fp = 0;
        let mut total_good = 0;
        for (is_bad, trace) in &traces {
            if *is_bad {
                total_bad += 1;
                if trace.faulty {
                    tp += 1;
                }
            } else {
                total_good += 1;
                if trace.faulty {
                    fp += 1;
                }
            }
        }
        assert!(total_bad > 0, "no malicious clients sampled");
        assert!(
            tp as f64 / total_bad as f64 > 0.7,
            "recall {tp}/{total_bad}"
        );
        assert!(
            (fp as f64) < 0.2 * total_good as f64,
            "false positives {fp}/{total_good}"
        );
    }

    #[test]
    fn per_round_trace_is_ordered_and_positive() {
        let TestJob { records, .. } = sample_rounds_with(10, 0.0, 10, 5);
        let traces = trace_all(&records);
        assert!(!traces.is_empty());
        for (_, t) in &traces {
            for pair in t.per_round.windows(2) {
                assert!(pair[0].0 < pair[1].0);
            }
            assert!(t.per_round.iter().all(|(_, v)| *v >= 0.0));
        }
    }

    #[test]
    fn unknown_client_is_none() {
        let TestJob { records, .. } = sample_rounds_with(2, 0.0, 10, 5);
        let updates: Vec<&ModelUpdate> = records.iter().flat_map(|r| r.updates.iter()).collect();
        let aggregates: Vec<&AggregateModel> = records.iter().map(|r| &r.aggregate).collect();
        assert!(run(ClientId::new(77_777), &updates, &aggregates).is_none());
    }
}
