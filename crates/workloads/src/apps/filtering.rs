//! Malicious-client filtering (P2).
//!
//! Norm- and direction-based outlier detection over one round's updates
//! (Han et al. 2022b class of defenses): poisoned updates in the synthetic
//! job have inflated norms and directions uncorrelated with the honest
//! consensus, the signature this filter scores.

use flstore_fl::update::ModelUpdate;
use flstore_fl::weights::{RowPanels, WeightVector};

use crate::algorithms::robust_z_scores;
use crate::outputs::FilteringOutput;

/// Robust z-score threshold above which a client is flagged.
const FLAG_THRESHOLD: f64 = 3.0;

/// Scores one round's updates and flags outliers.
///
/// Anomaly score = robust-z(update norm) − robust-z(cosine to the mean
/// update); a large positive value means "big and misaligned".
///
/// Returns `None` when `updates` is empty.
pub fn run(updates: &[&ModelUpdate]) -> Option<FilteringOutput> {
    if updates.is_empty() {
        return None;
    }
    let vectors: Vec<&WeightVector> = updates.iter().map(|u| &u.weights).collect();
    let mean = WeightVector::mean(&vectors)?;
    let panels = RowPanels::new(&vectors);
    let mut norms = vec![0.0; vectors.len()];
    panels.l2_norms(&mut norms);
    let mut cosines = vec![0.0; vectors.len()];
    panels.cosine_similarities(&norms, &mean, &mut cosines);
    let z_norm = robust_z_scores(&norms);
    let z_cos = robust_z_scores(&cosines);
    let scores: Vec<(_, f64)> = updates
        .iter()
        .enumerate()
        .map(|(i, u)| (u.client, z_norm[i] - z_cos[i]))
        .collect();
    let flagged = scores
        .iter()
        .filter(|(_, s)| *s > FLAG_THRESHOLD)
        .map(|(c, _)| *c)
        .collect();
    Some(FilteringOutput { flagged, scores })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::sample_rounds;

    #[test]
    fn detects_malicious_clients() {
        let rounds = sample_rounds(10, 0.2);
        let mut true_pos = 0usize;
        let mut false_neg = 0usize;
        let mut false_pos = 0usize;
        for r in &rounds {
            let updates: Vec<&ModelUpdate> = r.updates.iter().collect();
            let out = run(&updates).expect("non-empty");
            for u in &r.updates {
                let flagged = out.flagged.contains(&u.client);
                match (u.ground_truth_malicious, flagged) {
                    (true, true) => true_pos += 1,
                    (true, false) => false_neg += 1,
                    (false, true) => false_pos += 1,
                    (false, false) => {}
                }
            }
        }
        let detected = true_pos + false_neg;
        assert!(detected > 0, "no malicious participants sampled");
        let recall = true_pos as f64 / detected as f64;
        assert!(
            recall > 0.7,
            "recall {recall} (tp {true_pos}, fn {false_neg})"
        );
        assert!(
            false_pos <= detected,
            "too many false positives: {false_pos}"
        );
    }

    #[test]
    fn clean_rounds_flag_nothing_systematically() {
        let rounds = sample_rounds(10, 0.0);
        let mut flagged = 0usize;
        let mut total = 0usize;
        for r in &rounds {
            let updates: Vec<&ModelUpdate> = r.updates.iter().collect();
            let out = run(&updates).expect("non-empty");
            flagged += out.flagged.len();
            total += r.updates.len();
        }
        assert!(
            (flagged as f64) < 0.1 * total as f64,
            "{flagged}/{total} clean updates flagged"
        );
    }

    #[test]
    fn empty_input_returns_none() {
        assert!(run(&[]).is_none());
    }
}
