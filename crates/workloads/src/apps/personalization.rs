//! Personalization grouping (P2).
//!
//! Groups a round's clients by model behaviour (update direction plus local
//! accuracy) so each group can receive a personalized fine-tuning plan
//! (Tan et al. 2022/2023 class of systems).

use flstore_fl::update::ModelUpdate;
use flstore_fl::weights::{RowPanels, WeightVector};

use crate::algorithms::{kmeans_on, PointSet};
use crate::outputs::PersonalizationOutput;

/// A round's personalization features and their k-means point set: what
/// [`run`] derives from the round before it reads its seed.
///
/// Feature = weight direction with local accuracy appended as an extra
/// (scaled) dimension, so groups reflect both what the model learned and
/// how well it fits local data.
#[derive(Debug)]
pub struct Features {
    vectors: Vec<WeightVector>,
    points: PointSet,
}

impl Features {
    /// Derives `updates`' features and packs them.
    pub fn new(updates: &[&ModelUpdate]) -> Self {
        let weights: Vec<&WeightVector> = updates.iter().map(|u| &u.weights).collect();
        let mut norms = vec![0.0; updates.len()];
        RowPanels::new(&weights).l2_norms(&mut norms);
        let vectors: Vec<WeightVector> = updates
            .iter()
            .zip(&norms)
            .map(|(u, norm)| {
                let norm = norm.max(1e-9) as f32;
                let mut values = Vec::with_capacity(u.weights.dim() + 1);
                values.extend(u.weights.as_slice().iter().map(|v| v / norm));
                values.push((u.metrics.local_accuracy * 2.0) as f32);
                WeightVector::from_vec(values)
            })
            .collect();
        let refs: Vec<&WeightVector> = vectors.iter().collect();
        let points = PointSet::new(&refs);
        Features { vectors, points }
    }
}

/// Groups one round's participants into at most `k` personalization groups.
/// Deterministic under `seed`.
///
/// Returns `None` when `updates` is empty or `k == 0`.
pub fn run(updates: &[&ModelUpdate], k: usize, seed: u64) -> Option<PersonalizationOutput> {
    if updates.is_empty() || k == 0 {
        return None;
    }
    run_on(&Features::new(updates), updates, k, seed)
}

/// [`run`] on `features`, the [`Features`] of `updates`, which other runs
/// on the same round may share.
pub fn run_on(
    features: &Features,
    updates: &[&ModelUpdate],
    k: usize,
    seed: u64,
) -> Option<PersonalizationOutput> {
    let refs: Vec<&WeightVector> = features.vectors.iter().collect();
    let result = kmeans_on(&features.points, &refs, k, 50, seed)?;

    let k_used = result.centroids.len();
    let mut acc_sum = vec![0.0f64; k_used];
    let mut acc_count = vec![0usize; k_used];
    let groups: Vec<_> = updates
        .iter()
        .zip(&result.assignments)
        .map(|(u, a)| {
            acc_sum[*a] += u.metrics.local_accuracy;
            acc_count[*a] += 1;
            (u.client, *a)
        })
        .collect();
    let group_accuracy = acc_sum
        .iter()
        .zip(&acc_count)
        .map(|(s, c)| if *c == 0 { 0.0 } else { s / *c as f64 })
        .collect();
    Some(PersonalizationOutput {
        groups,
        group_accuracy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{sample_rounds, sample_rounds_with, TestJob};

    #[test]
    fn groups_every_participant_once() {
        let rounds = sample_rounds(4, 0.0);
        let last = rounds.last().expect("rounds");
        let updates: Vec<&ModelUpdate> = last.updates.iter().collect();
        let out = run(&updates, 3, 1).expect("non-empty");
        assert_eq!(out.groups.len(), updates.len());
        assert!(out
            .groups
            .iter()
            .all(|(_, g)| *g < out.group_accuracy.len()));
    }

    #[test]
    fn group_accuracies_are_probabilities() {
        let TestJob { records, .. } = sample_rounds_with(6, 0.2, 20, 20);
        let last = records.last().expect("rounds");
        let updates: Vec<&ModelUpdate> = last.updates.iter().collect();
        let out = run(&updates, 4, 2).expect("non-empty");
        for acc in &out.group_accuracy {
            assert!((0.0..=1.0).contains(acc), "accuracy {acc}");
        }
    }

    #[test]
    fn empty_is_none() {
        assert!(run(&[], 3, 0).is_none());
    }
}
