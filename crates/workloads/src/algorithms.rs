//! Shared numerical kernels: k-means, robust outlier scoring, EWMA.
//!
//! These are the actual algorithms the workloads run over reduced-fidelity
//! weight vectors — small, dependency-free implementations with tests
//! against known structure.

use flstore_fl::weights::{RowPanels, WeightVector};
use flstore_sim::rng::DetRng;

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster index for each input vector.
    pub assignments: Vec<usize>,
    /// Final centroids.
    pub centroids: Vec<WeightVector>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Iterations executed.
    pub iterations: usize,
}

/// Lloyd's k-means with k-means++-style seeding, deterministic under `seed`.
///
/// Returns `None` when `vectors` is empty or `k == 0`; if `k` exceeds the
/// number of vectors it is clamped.
///
/// `vectors` are packed once into [`RowPanels`], and k-means++ seeding,
/// every assignment pass and the final inertia pass run on those panels:
/// every distance is one f64 chain, eight rows per pass. No distance is
/// computed twice: the first assignment step reuses the seeding passes,
/// and a converged run takes its inertia from the last assignment step.
/// Each centroid is the f32 mean of its members in input order, a
/// centroid left without members keeps its position, and ties go to the
/// lowest centroid index.
///
/// # Panics
///
/// Panics if input vectors disagree in dimensionality. With `k >= 2` it
/// also panics on a NaN or infinite component, whose seeding weight
/// [`DetRng::weighted_index`] rejects, and on a NaN distance in the
/// assignment step ("distances are finite").
pub fn kmeans(
    vectors: &[&WeightVector],
    k: usize,
    max_iters: usize,
    seed: u64,
) -> Option<KMeansResult> {
    if vectors.is_empty() || k == 0 {
        return None;
    }
    let n = vectors.len();
    let k = k.min(n);
    let mut rng = DetRng::stream(seed, "kmeans");
    let panels = RowPanels::new(vectors);

    // k-means++ seeding: first centroid uniform, then proportional to
    // squared distance from the nearest chosen centroid. `nearest` keeps
    // that squared distance per point, so each new centroid costs one
    // distance pass. Centroid j's pass lands in `dist[j * n..]`, where
    // the first assignment step reads it: seeded centroids have not
    // moved yet, so recomputing them would give the same bits.
    let mut centroids: Vec<WeightVector> = Vec::with_capacity(k);
    centroids.push(vectors[rng.index(n)].clone());
    let mut nearest = vec![f64::INFINITY; n];
    let mut dist = vec![0.0; k * n];
    while centroids.len() < k {
        let newest = centroids.last().expect("seeded");
        let j = centroids.len() - 1;
        let d = &mut dist[j * n..(j + 1) * n];
        panels.l2_distances(newest, d);
        for (d2, d) in nearest.iter_mut().zip(d.iter()) {
            *d2 = d2.min(d * d);
        }
        let total: f64 = nearest.iter().sum();
        let next = if total <= f64::EPSILON {
            rng.index(n)
        } else {
            rng.weighted_index(&nearest)
        };
        centroids.push(vectors[next].clone());
    }

    let mut assignments = vec![0usize; n];
    let mut members: Vec<&WeightVector> = Vec::with_capacity(n);
    let mut iterations = 0;
    let mut converged = false;
    for iter in 0..max_iters.max(1) {
        iterations = iter + 1;
        // Assignment step: `dist[j * n + i]` is point i's distance to
        // centroid j. The first step only lacks the last seed's pass.
        let fresh = if iter == 0 { k - 1 } else { 0 };
        for (c, d) in centroids.iter().zip(dist.chunks_exact_mut(n)).skip(fresh) {
            panels.l2_distances(c, d);
        }
        let mut changed = false;
        for (i, assigned) in assignments.iter_mut().enumerate() {
            let (best, _) = (0..k)
                .map(|j| (j, dist[j * n + i]))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are finite"))
                .expect("k >= 1");
            if *assigned != best {
                *assigned = best;
                changed = true;
            }
        }
        // Converged: the update step would recompute the same centroids.
        if !changed && iter > 0 {
            converged = true;
            break;
        }
        // Update step.
        for (j, centroid) in centroids.iter_mut().enumerate() {
            members.clear();
            members.extend(
                vectors
                    .iter()
                    .zip(&assignments)
                    .filter(|(_, a)| **a == j)
                    .map(|(v, _)| *v),
            );
            centroid.mean_into(&members);
        }
    }

    // On convergence the last assignment step already measured every
    // point against its (unmoved) centroid; only a run that exhausted
    // `max_iters` moved the centroids after measuring.
    let inertia = if converged {
        let d = assignments.iter().enumerate().map(|(i, a)| dist[a * n + i]);
        d.map(|d| d * d).sum()
    } else {
        let partners: Vec<&WeightVector> = assignments.iter().map(|a| &centroids[*a]).collect();
        let d = &mut dist[..n];
        panels.paired_l2_distances(&partners, d);
        d.iter().map(|d| d * d).sum()
    };

    Some(KMeansResult {
        assignments,
        centroids,
        inertia,
        iterations,
    })
}

/// Median of a sample (interpolated for even lengths). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values must not be NaN"));
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Median absolute deviation scaled to be consistent with the standard
/// deviation for Gaussian data (×1.4826). `None` when empty.
fn mad(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&deviations).map(|d| d * 1.4826)
}

/// Robust z-scores: `(x - median) / mad`. Degenerate (constant) samples map
/// to all-zero scores.
pub fn robust_z_scores(values: &[f64]) -> Vec<f64> {
    let Some(m) = median(values) else {
        return Vec::new();
    };
    let spread = mad(values).unwrap_or(0.0);
    if spread <= f64::EPSILON {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| (v - m) / spread).collect()
}

/// Exponentially weighted moving average over a history (oldest first).
/// `None` when empty.
///
/// # Panics
///
/// Panics unless `alpha` is in `(0, 1]`.
pub fn ewma(history: &[f64], alpha: f64) -> Option<f64> {
    assert!(
        alpha > 0.0 && alpha <= 1.0,
        "EWMA alpha must be in (0,1], got {alpha}"
    );
    let mut iter = history.iter();
    let mut acc = *iter.next()?;
    for x in iter {
        acc = alpha * x + (1.0 - alpha) * acc;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_blobs(
        k: usize,
        per: usize,
        dim: usize,
        spread: f64,
        seed: u64,
    ) -> (Vec<WeightVector>, Vec<usize>) {
        let mut rng = DetRng::new(seed);
        let centers: Vec<WeightVector> = (0..k)
            .map(|_| WeightVector::gaussian(&mut rng, dim, 5.0))
            .collect();
        let mut data = Vec::new();
        let mut truth = Vec::new();
        for (j, c) in centers.iter().enumerate() {
            for _ in 0..per {
                let noise = WeightVector::gaussian(&mut rng, dim, spread);
                data.push(c.add(&noise));
                truth.push(j);
            }
        }
        (data, truth)
    }

    #[test]
    fn kmeans_recovers_separated_blobs() {
        let (data, truth) = make_blobs(3, 20, 16, 0.3, 1);
        let refs: Vec<&WeightVector> = data.iter().collect();
        let result = kmeans(&refs, 3, 50, 9).expect("non-empty");
        // Same-truth pairs should share clusters; cross-truth pairs should not.
        let mut agree = 0;
        let mut total = 0;
        for i in 0..truth.len() {
            for j in (i + 1)..truth.len() {
                total += 1;
                let same_truth = truth[i] == truth[j];
                let same_cluster = result.assignments[i] == result.assignments[j];
                if same_truth == same_cluster {
                    agree += 1;
                }
            }
        }
        let rand_index = agree as f64 / total as f64;
        assert!(rand_index > 0.95, "rand index {rand_index}");
    }

    #[test]
    fn kmeans_handles_k_larger_than_n() {
        let (data, _) = make_blobs(1, 3, 8, 0.1, 2);
        let refs: Vec<&WeightVector> = data.iter().collect();
        let result = kmeans(&refs, 10, 20, 3).expect("non-empty");
        assert_eq!(result.centroids.len(), 3);
    }

    #[test]
    fn kmeans_empty_and_zero_k() {
        assert!(kmeans(&[], 3, 10, 0).is_none());
        let v = WeightVector::zeros(4);
        assert!(kmeans(&[&v], 0, 10, 0).is_none());
    }

    #[test]
    fn kmeans_is_deterministic() {
        let (data, _) = make_blobs(4, 10, 8, 0.5, 4);
        let refs: Vec<&WeightVector> = data.iter().collect();
        let a = kmeans(&refs, 4, 30, 7).expect("ok");
        let b = kmeans(&refs, 4, 30, 7).expect("ok");
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let spread = mad(&[1.0, 1.0, 1.0, 10.0]).expect("non-empty");
        assert!(spread < 1.0); // robust to the outlier
    }

    #[test]
    fn robust_z_scores_flag_outlier() {
        let values = [1.0, 1.1, 0.9, 1.05, 0.95, 8.0];
        let z = robust_z_scores(&values);
        assert!(z[5] > 5.0, "outlier z {z:?}");
        assert!(z[..5].iter().all(|s| s.abs() < 3.0));
    }

    #[test]
    fn robust_z_scores_degenerate_sample() {
        let z = robust_z_scores(&[2.0, 2.0, 2.0]);
        assert_eq!(z, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn ewma_weights_recent_values() {
        let rising = ewma(&[0.0, 0.0, 1.0], 0.5).expect("non-empty");
        assert!((rising - 0.5).abs() < 1e-12);
        assert_eq!(ewma(&[], 0.5), None);
        assert_eq!(ewma(&[3.0], 0.5), Some(3.0));
    }
}
