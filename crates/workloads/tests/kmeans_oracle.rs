//! `kmeans` on a shared `PointSet` is bit-exact against a naive oracle.
//!
//! The oracle below is k-means written out from its documented rules,
//! with nothing shared and nothing skipped: the one-row
//! `WeightVector::l2_distance` for every distance, the same k-means++
//! seeding from `DetRng::stream(seed, "kmeans")`, each centroid the f32
//! mean of its members in input order, an empty cluster keeping its
//! centroid, and ties going to the lowest centroid index. Four runs
//! must agree on assignments, centroid bits, inertia bits and
//! iterations: the oracle, `kmeans_on` on a fresh point set, `kmeans_on`
//! on a point set that runs with other seeds already filled, and two
//! threads sharing one point set.
//!
//! Rows are drawn from a small pool, so duplicates (ties, empty
//! clusters, zero seeding weights) are common, and components include
//! −0.0 and subnormals.

use flstore_fl::weights::WeightVector;
use flstore_sim::rng::DetRng;
use flstore_workloads::algorithms::{kmeans, kmeans_on, KMeansResult, PointSet};
use proptest::prelude::*;

fn oracle(vectors: &[&WeightVector], k: usize, max_iters: usize, seed: u64) -> KMeansResult {
    let n = vectors.len();
    let k = k.min(n);
    let mut rng = DetRng::stream(seed, "kmeans");
    let mut centroids = vec![vectors[rng.index(n)].clone()];
    let mut nearest = vec![f64::INFINITY; n];
    while centroids.len() < k {
        let newest = &centroids[centroids.len() - 1];
        for (d2, v) in nearest.iter_mut().zip(vectors) {
            let d = v.l2_distance(newest);
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
    let mut assignments = vec![0; n];
    let mut iterations = 0;
    for iter in 0..max_iters.max(1) {
        iterations = iter + 1;
        let mut changed = false;
        for (v, assigned) in vectors.iter().zip(&mut assignments) {
            let mut best = 0;
            for j in 1..k {
                if v.l2_distance(&centroids[j]) < v.l2_distance(&centroids[best]) {
                    best = j;
                }
            }
            changed |= *assigned != best;
            *assigned = best;
        }
        if !changed && iter > 0 {
            break;
        }
        for (j, centroid) in centroids.iter_mut().enumerate() {
            let members: Vec<&WeightVector> = (0..n)
                .filter(|i| assignments[*i] == j)
                .map(|i| vectors[i])
                .collect();
            if members.is_empty() {
                continue;
            }
            let mut sum = vec![0.0f32; centroid.dim()];
            for member in &members {
                for (s, x) in sum.iter_mut().zip(member.as_slice()) {
                    *s += *x;
                }
            }
            let scale = 1.0 / members.len() as f64;
            *centroid =
                WeightVector::from_vec(sum.iter().map(|s| (*s as f64 * scale) as f32).collect());
        }
    }
    let inertia = vectors
        .iter()
        .zip(&assignments)
        .map(|(v, a)| v.l2_distance(&centroids[*a]))
        .map(|d| d * d)
        .sum();
    KMeansResult {
        assignments,
        centroids,
        inertia,
        iterations,
    }
}

/// Everything a result says, with floats as bits.
fn bits(result: &KMeansResult) -> (Vec<usize>, Vec<Vec<u32>>, u64, usize) {
    let centroids = result
        .centroids
        .iter()
        .map(|c| c.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect();
    (
        result.assignments.clone(),
        centroids,
        result.inertia.to_bits(),
        result.iterations,
    )
}

/// One component: small integers (so distances tie), −0.0, subnormals,
/// or an ordinary value.
fn component(rng: &mut DetRng) -> f32 {
    match rng.index(6) {
        0 => -0.0,
        1 => 1.0e-40 * if rng.chance(0.5) { -1.0 } else { 1.0 },
        2 | 3 => rng.index(5) as f32 - 2.0,
        _ => rng.uniform(-4.0, 4.0) as f32,
    }
}

/// `rows` rows of `dim` components, each a pick from a pool of at most
/// `distinct` rows.
fn round(seed: u64, rows: usize, dim: usize, distinct: usize) -> Vec<WeightVector> {
    let mut rng = DetRng::new(seed);
    let pool: Vec<WeightVector> = (0..distinct)
        .map(|_| WeightVector::from_vec((0..dim).map(|_| component(&mut rng)).collect()))
        .collect();
    (0..rows)
        .map(|_| pool[rng.index(distinct)].clone())
        .collect()
}

fn runs_agree(
    data_seed: u64,
    rows: usize,
    dim: usize,
    distinct: usize,
    k: usize,
    max_iters: usize,
    seed: u64,
) {
    let owned = round(data_seed, rows, dim, distinct);
    let vectors: Vec<&WeightVector> = owned.iter().collect();
    let want = bits(&oracle(&vectors, k, max_iters, seed));
    let shape =
        format!("{rows}x{dim} ({distinct} distinct), k {k}, {max_iters} iters, seed {seed}");

    let fresh =
        kmeans_on(&PointSet::new(&vectors), &vectors, k, max_iters, seed).expect("non-empty");
    assert_eq!(bits(&fresh), want, "fresh point set, {shape}");
    let private = kmeans(&vectors, k, max_iters, seed).expect("non-empty");
    assert_eq!(bits(&private), want, "kmeans, {shape}");

    let filled = PointSet::new(&vectors);
    for other in 1..4 {
        kmeans_on(&filled, &vectors, k.max(2), max_iters, seed ^ other).expect("non-empty");
    }
    let after = kmeans_on(&filled, &vectors, k, max_iters, seed).expect("non-empty");
    assert_eq!(bits(&after), want, "pre-filled point set, {shape}");

    let shared = PointSet::new(&vectors);
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| kmeans_on(&shared, &vectors, k, max_iters, seed));
        let b = scope.spawn(|| kmeans_on(&shared, &vectors, k, max_iters, seed));
        (a.join().expect("thread a"), b.join().expect("thread b"))
    });
    assert_eq!(bits(&a.expect("non-empty")), want, "thread a, {shape}");
    assert_eq!(bits(&b.expect("non-empty")), want, "thread b, {shape}");
}

proptest! {
    #[test]
    fn shared_point_sets_match_the_oracle(
        data_seed in 0u64..u64::MAX,
        rows in 1usize..21,
        dim_pick in 0usize..3,
        distinct in 1usize..7,
        k_pick in 0usize..64,
        iters_pick in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let dim = [1, 7, 1027][dim_pick];
        let max_iters = [1, 2, 3, 50][iters_pick];
        let k = 1 + k_pick % (rows + 2);
        runs_agree(data_seed, rows, dim, distinct.min(rows), k, max_iters, seed);
    }
}

#[test]
fn no_points_or_no_clusters_is_none() {
    let v = WeightVector::zeros(3);
    let points = PointSet::new(&[&v]);
    assert!(kmeans_on(&points, &[&v], 0, 10, 1).is_none());
    assert!(kmeans_on(&PointSet::new(&[]), &[], 3, 10, 1).is_none());
}

/// A cluster that trades one member for another keeps its size but must
/// still move. That happens in a few percent of runs on distinct points
/// (rare on the pooled rows above), so this sweeps 400 seeded rounds of
/// ordinary values against the oracle.
#[test]
fn clusters_that_trade_members_match_the_oracle() {
    let mut rng = DetRng::new(53);
    for _ in 0..400 {
        let rows = 2 + rng.index(19);
        let k = 2 + rng.index(5);
        let owned: Vec<WeightVector> = (0..rows)
            .map(|_| {
                WeightVector::from_vec((0..7).map(|_| rng.uniform(-4.0, 4.0) as f32).collect())
            })
            .collect();
        let vectors: Vec<&WeightVector> = owned.iter().collect();
        let seed = rng.next_u64();
        let want = bits(&oracle(&vectors, k, 50, seed));
        let got = kmeans(&vectors, k, 50, seed).expect("non-empty");
        assert_eq!(bits(&got), want, "{rows} rows, k {k}, seed {seed}");
    }
}
