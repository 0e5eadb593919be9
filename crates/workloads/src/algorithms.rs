//! Shared numerical kernels: k-means, robust outlier scoring, EWMA.
//!
//! These are the actual algorithms the workloads run over reduced-fidelity
//! weight vectors — small, dependency-free implementations with tests
//! against known structure.

use std::fmt;
use std::sync::OnceLock;

use flstore_fl::weights::{RowPanels, WeightVector};
use flstore_sim::rng::DetRng;

use crate::run::{count_distance_pass, fill_once};

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

/// What k-means reads of its points without its seed: the points packed
/// once into [`RowPanels`], and each point's distance to every point.
///
/// Point `j`'s distance row is filled the first time a run needs it (to
/// seed from point `j`, or to assign against it while it is still a
/// seed) and is bit-equal to `panels.l2_distances(vectors[j])`. A point
/// set built from a round can serve every k-means run on that round,
/// whatever its seed, from any thread: a row is filled without waiting,
/// by checking it and otherwise computing it and setting it, so two runs
/// racing for one row both compute it and keep the same bits. It holds
/// one packed copy of the points and at most `n²` distances, and no
/// reference to the vectors it was built from.
pub struct PointSet {
    panels: RowPanels,
    rows: Vec<OnceLock<Box<[f64]>>>,
}

impl PointSet {
    /// Packs `vectors`; no distance row is filled yet.
    pub fn new(vectors: &[&WeightVector]) -> Self {
        PointSet {
            panels: RowPanels::new(vectors),
            rows: vectors.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// Point `j`'s distance to every point, where `point` is the vector
    /// point `j` was built from.
    fn row(&self, j: usize, point: &WeightVector) -> &[f64] {
        let row = fill_once(&self.rows[j], || {
            let mut row = vec![0.0; self.rows.len()];
            self.distances(point, &mut row);
            row.into_boxed_slice()
        });
        row
    }

    /// One distance pass: every point's distance to `v`.
    fn distances(&self, v: &WeightVector, out: &mut [f64]) {
        count_distance_pass();
        self.panels.l2_distances(v, out);
    }
}

impl fmt::Debug for PointSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PointSet")
            .field("points", &self.rows.len())
            .field(
                "rows_filled",
                &self.rows.iter().filter(|r| r.get().is_some()).count(),
            )
            .finish()
    }
}

/// Lloyd's k-means with k-means++-style seeding, deterministic under `seed`.
///
/// Returns `None` when `vectors` is empty or `k == 0`; if `k` exceeds the
/// number of vectors it is clamped. This is [`kmeans_on`] with a point
/// set of its own.
///
/// # Panics
///
/// As [`kmeans_on`].
pub fn kmeans(
    vectors: &[&WeightVector],
    k: usize,
    max_iters: usize,
    seed: u64,
) -> Option<KMeansResult> {
    kmeans_on(&PointSet::new(vectors), vectors, k, max_iters, seed)
}

/// [`kmeans`] on `points`, a [`PointSet`] built from `vectors`, which
/// other runs may share.
///
/// Every distance is one f64 chain on the point set's panels. k-means++
/// seeding picks data points, so it reads the point set's distance rows
/// instead of running passes, and the first assignment step reads the
/// same rows: the seeds have not moved yet. After that a centroid gets a
/// new distance pass only when it moved. Each centroid is the f32 mean
/// of its members in input order, so a centroid whose member list is the
/// one it is already the mean of would come out bit-identical and is
/// left alone; a centroid left without members keeps its position. Ties
/// go to the lowest centroid index. When no centroid moved after the
/// last assignment step (a converged run), the inertia comes from that
/// step; otherwise one paired pass measures it.
///
/// # Panics
///
/// Panics if input vectors disagree in dimensionality, or unless
/// `points` has one point per vector. With `k >= 2` it also panics on a
/// NaN or infinite component, whose seeding weight
/// [`DetRng::weighted_index`] rejects, and on a NaN distance in the
/// assignment step ("distances are finite").
pub fn kmeans_on(
    points: &PointSet,
    vectors: &[&WeightVector],
    k: usize,
    max_iters: usize,
    seed: u64,
) -> Option<KMeansResult> {
    if vectors.is_empty() || k == 0 {
        return None;
    }
    assert_eq!(points.rows.len(), vectors.len(), "one point per vector");
    let n = vectors.len();
    let k = k.min(n);
    let mut rng = DetRng::stream(seed, "kmeans");

    // k-means++ seeding: first centroid uniform, then proportional to
    // squared distance from the nearest chosen centroid. `nearest` keeps
    // that squared distance per point, so each new seed reads one
    // distance row.
    let mut seeds = Vec::with_capacity(k);
    seeds.push(rng.index(n));
    let mut nearest = vec![f64::INFINITY; n];
    while seeds.len() < k {
        let newest = seeds[seeds.len() - 1];
        for (d2, d) in nearest.iter_mut().zip(points.row(newest, vectors[newest])) {
            *d2 = d2.min(d * d);
        }
        let total: f64 = nearest.iter().sum();
        let next = if total <= f64::EPSILON {
            rng.index(n)
        } else {
            rng.weighted_index(&nearest)
        };
        seeds.push(next);
    }

    // `dist[j * n + i]` is point i's distance to centroid j, measured
    // while the centroid was where it is now unless `moved[j]`.
    let mut centroids: Vec<WeightVector> = seeds.iter().map(|s| vectors[*s].clone()).collect();
    let mut dist = Vec::with_capacity(k * n);
    for s in &seeds {
        dist.extend_from_slice(points.row(*s, vectors[*s]));
    }
    let mut moved = vec![false; k];
    // The member list each centroid is the mean of; `None` while it is
    // still its seed point.
    let mut mean_of: Vec<Option<Vec<usize>>> = vec![None; k];
    let mut assignments = vec![0usize; n];
    let mut member_ids: Vec<usize> = Vec::with_capacity(n);
    let mut members: Vec<&WeightVector> = Vec::with_capacity(n);
    let mut iterations = 0;
    for iter in 0..max_iters.max(1) {
        iterations = iter + 1;
        // Assignment step.
        for ((c, d), moved) in centroids
            .iter()
            .zip(dist.chunks_exact_mut(n))
            .zip(&mut moved)
        {
            if std::mem::take(moved) {
                points.distances(c, d);
            }
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
            break;
        }
        // Update step: only a centroid whose member list changed moves.
        for (j, centroid) in centroids.iter_mut().enumerate() {
            member_ids.clear();
            member_ids.extend((0..n).filter(|i| assignments[*i] == j));
            if member_ids.is_empty() || mean_of[j].as_ref() == Some(&member_ids) {
                continue;
            }
            members.clear();
            members.extend(member_ids.iter().map(|i| vectors[*i]));
            centroid.mean_into(&members);
            mean_of[j] = Some(member_ids.clone());
            moved[j] = true;
        }
    }

    let inertia = if moved.contains(&true) {
        let partners: Vec<&WeightVector> = assignments.iter().map(|a| &centroids[*a]).collect();
        let d = &mut dist[..n];
        count_distance_pass();
        points.panels.paired_l2_distances(&partners, d);
        d.iter().map(|d| d * d).sum()
    } else {
        let d = assignments.iter().enumerate().map(|(i, a)| dist[a * n + i]);
        d.map(|d| d * d).sum()
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
