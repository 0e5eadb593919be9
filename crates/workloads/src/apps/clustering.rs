//! Client clustering on model updates (P2).
//!
//! Auxo-style grouping of a round's participants by update similarity —
//! k-means over weight vectors.

use flstore_fl::update::ModelUpdate;
use flstore_fl::weights::WeightVector;

use crate::algorithms::{kmeans_on, PointSet};
use crate::outputs::ClusteringOutput;

/// Default number of clusters, matching the synthetic job's latent groups.
pub const DEFAULT_K: usize = 5;

/// Clusters one round's updates into `k` groups (clamped to the update
/// count). Deterministic under `seed`.
///
/// Returns `None` when `updates` is empty or `k == 0`.
pub fn run(updates: &[&ModelUpdate], k: usize, seed: u64) -> Option<ClusteringOutput> {
    let vectors: Vec<&WeightVector> = updates.iter().map(|u| &u.weights).collect();
    run_on(&PointSet::new(&vectors), updates, k, seed)
}

/// [`run`] on `points`, the [`PointSet`] of `updates`' weights, which
/// other runs on the same round may share.
pub fn run_on(
    points: &PointSet,
    updates: &[&ModelUpdate],
    k: usize,
    seed: u64,
) -> Option<ClusteringOutput> {
    let vectors: Vec<&WeightVector> = updates.iter().map(|u| &u.weights).collect();
    let result = kmeans_on(points, &vectors, k, 50, seed)?;
    let assignments = updates
        .iter()
        .zip(&result.assignments)
        .map(|(u, a)| (u.client, *a))
        .collect();
    Some(ClusteringOutput {
        assignments,
        k: result.centroids.len(),
        inertia: result.inertia,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{sample_rounds_with, TestJob};

    #[test]
    fn recovers_latent_cluster_structure() {
        // A big honest round so every latent cluster is populated.
        let TestJob { records, clusters } = sample_rounds_with(8, 0.0, 24, 24);
        let last = records.last().expect("rounds");
        let updates: Vec<&ModelUpdate> = last.updates.iter().collect();
        let out = run(&updates, DEFAULT_K, 7).expect("non-empty");

        // Pairs in the same latent cluster should mostly land together.
        let mut same_agree = 0usize;
        let mut same_total = 0usize;
        for (i, (ci, ai)) in out.assignments.iter().enumerate() {
            for (cj, aj) in out.assignments.iter().skip(i + 1) {
                let li = clusters[ci.as_u32() as usize];
                let lj = clusters[cj.as_u32() as usize];
                if li == lj {
                    same_total += 1;
                    if ai == aj {
                        same_agree += 1;
                    }
                }
            }
        }
        if same_total > 0 {
            let agreement = same_agree as f64 / same_total as f64;
            assert!(agreement > 0.6, "same-cluster agreement {agreement}");
        }
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let TestJob { records, .. } = sample_rounds_with(4, 0.0, 20, 20);
        let last = records.last().expect("rounds");
        let updates: Vec<&ModelUpdate> = last.updates.iter().collect();
        let k2 = run(&updates, 2, 3).expect("ok").inertia;
        let k8 = run(&updates, 8, 3).expect("ok").inertia;
        assert!(k8 <= k2, "k8 {k8} vs k2 {k2}");
    }

    #[test]
    fn empty_or_zero_k_is_none() {
        let records = crate::testutil::sample_rounds(1, 0.0);
        let updates: Vec<&ModelUpdate> = records[0].updates.iter().collect();
        assert!(run(&[], DEFAULT_K, 0).is_none());
        assert!(run(&updates, 0, 0).is_none());
    }
}
