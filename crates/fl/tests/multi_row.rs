//! The multi-row reductions of `RowPanels` are bit-equal to the one-row
//! `WeightVector` methods, on every shape and on hostile values.
//!
//! Shapes: 0–17 rows (so eight-row panels have every remainder, and a
//! second and third panel are reached) × dims 0, 1, 3, 4, 5 and 4097.
//! Values mix ordinary numbers of widely spread magnitude (so a reordered
//! sum would show) with −0.0, subnormals, ±inf and NaNs carrying
//! payloads. Every comparison is on `to_bits`, except
//! that any NaN result equals any other: Rust leaves the sign and payload
//! of a NaN an operation produces unspecified, and the one-row methods
//! themselves return different NaN bits in debug and release builds.
//! No output of this repository exposes them (`Debug` prints `NaN`).
//!
//! `cosine_similarity`, `mean` and `scale` are themselves fused or
//! blocked, so they are checked against plain formulas written out here.

use flstore_fl::weights::{RowPanels, WeightVector};
use flstore_sim::rng::DetRng;

const DIMS: [usize; 6] = [0, 1, 3, 4, 5, 4097];

/// Values no ordinary generator produces; the first `FINITE` are finite.
const SPECIALS: [f32; 10] = [
    -0.0,
    0.0,
    f32::MIN_POSITIVE,
    -1.0e-40, // subnormal
    1.0e-45,  // smallest subnormal
    f32::MAX,
    -f32::MAX,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
];
const FINITE: usize = 7;

/// NaN bit patterns with distinct payloads, quiet and signalling.
const NAN_BITS: [u32; 4] = [0x7fc0_0001, 0xffc1_2345, 0x7f80_0001, 0xff80_7fff];

/// How often a component is hostile, and whether it may be ±inf or NaN.
#[derive(Debug, Clone, Copy)]
struct Specials {
    share: f64,
    finite: bool,
}

/// Draws one component.
fn value(rng: &mut DetRng, specials: Specials) -> f32 {
    if rng.u01() < specials.share {
        if specials.finite {
            return SPECIALS[rng.index(FINITE)];
        }
        let pick = rng.index(SPECIALS.len() + NAN_BITS.len());
        return match SPECIALS.get(pick) {
            Some(v) => *v,
            None => f32::from_bits(NAN_BITS[pick - SPECIALS.len()]),
        };
    }
    let magnitude = 10f64.powf(rng.uniform(-6.0, 6.0));
    let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
    (sign * magnitude) as f32
}

fn vector(rng: &mut DetRng, dim: usize, specials: Specials) -> WeightVector {
    WeightVector::from_vec((0..dim).map(|_| value(rng, specials)).collect())
}

/// `to_bits`, with every NaN mapped to one pattern.
fn bits(values: &[f64]) -> Vec<u64> {
    values
        .iter()
        .map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() })
        .collect()
}

/// `to_bits` of each component, with every NaN mapped to one pattern.
fn f32_bits(v: &WeightVector) -> Vec<u32> {
    v.as_slice()
        .iter()
        .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
        .collect()
}

/// `cosine_similarity` as the plain formula: two norms, then a dot product.
fn reference_cosine(a: &WeightVector, b: &WeightVector) -> f64 {
    let denom = a.l2_norm() * b.l2_norm();
    if denom == 0.0 {
        0.0
    } else {
        (a.dot(b) / denom).clamp(-1.0, 1.0)
    }
}

/// `mean` as repeated `axpy(1.0)`, then a scale.
fn reference_mean(rows: &[&WeightVector]) -> Option<WeightVector> {
    let first = rows.first()?;
    let mut acc = WeightVector::zeros(first.dim());
    for v in rows {
        acc.axpy(1.0, v);
    }
    let factor = 1.0 / rows.len() as f64;
    Some(WeightVector::from_vec(
        acc.as_slice()
            .iter()
            .map(|v| (*v as f64 * factor) as f32)
            .collect(),
    ))
}

/// Checks every primitive against its one-row reference on one shape.
fn check_shape(rng: &mut DetRng, rows: usize, dim: usize, specials: Specials) {
    let owned: Vec<WeightVector> = (0..rows).map(|_| vector(rng, dim, specials)).collect();
    let refs: Vec<&WeightVector> = owned.iter().collect();
    let v = vector(rng, dim, specials);
    let shape = format!("{rows} rows x {dim} dims, {specials:?}");

    let panels = RowPanels::new(&refs);
    let mut out = vec![f64::NAN; rows];
    panels.l2_norms(&mut out);
    let norms = out.clone();
    let want: Vec<f64> = refs.iter().map(|r| r.l2_norm()).collect();
    assert_eq!(bits(&out), bits(&want), "l2_norms, {shape}");

    panels.dots(&v, &mut out);
    let want: Vec<f64> = refs.iter().map(|r| r.dot(&v)).collect();
    assert_eq!(bits(&out), bits(&want), "dots, {shape}");

    panels.l2_distances(&v, &mut out);
    let want: Vec<f64> = refs.iter().map(|r| r.l2_distance(&v)).collect();
    assert_eq!(bits(&out), bits(&want), "l2_distances, {shape}");

    // Partners drawn from the rows themselves, as k-means pairs points
    // with their centroids.
    let partners: Vec<&WeightVector> = (0..rows).map(|_| refs[rng.index(rows)]).collect();
    panels.paired_l2_distances(&partners, &mut out);
    let want: Vec<f64> = refs
        .iter()
        .zip(&partners)
        .map(|(r, p)| r.l2_distance(p))
        .collect();
    assert_eq!(bits(&out), bits(&want), "paired_l2_distances, {shape}");

    panels.cosine_similarities(&norms, &v, &mut out);
    let want: Vec<f64> = refs.iter().map(|r| reference_cosine(r, &v)).collect();
    assert_eq!(bits(&out), bits(&want), "cosine_similarities, {shape}");
    let fused: Vec<f64> = refs.iter().map(|r| r.cosine_similarity(&v)).collect();
    assert_eq!(bits(&fused), bits(&want), "cosine_similarity, {shape}");

    let want = reference_mean(&refs);
    let got = WeightVector::mean(&refs);
    assert_eq!(got.is_some(), want.is_some(), "mean, {shape}");
    if let (Some(got), Some(want)) = (&got, &want) {
        assert_eq!(f32_bits(got), f32_bits(want), "mean, {shape}");
    }
    // A reused buffer of another dimension and dirty contents.
    let mut reused = vector(rng, dim + 3, specials);
    let before = f32_bits(&reused);
    let wrote = reused.mean_into(&refs);
    match &want {
        Some(want) => {
            assert!(wrote);
            assert_eq!(f32_bits(&reused), f32_bits(want), "mean_into, {shape}");
        }
        None => {
            assert!(!wrote);
            assert_eq!(f32_bits(&reused), before, "mean_into of nothing, {shape}");
        }
    }

    let mut summed = v.clone();
    summed.add_rows(&refs);
    let mut want = v.clone();
    for r in &refs {
        want.axpy(1.0, r);
    }
    assert_eq!(f32_bits(&summed), f32_bits(&want), "add_rows, {shape}");

    let factor = rng.uniform(-3.0, 3.0);
    let scaled: Vec<f32> = v
        .as_slice()
        .iter()
        .map(|x| (*x as f64 * factor) as f32)
        .collect();
    assert_eq!(
        f32_bits(&v.scale(factor)),
        f32_bits(&WeightVector::from_vec(scaled)),
        "scale, {shape}"
    );
}

#[test]
fn every_primitive_is_bit_equal_to_its_one_row_reference() {
    let mut rng = DetRng::new(0x5A3E);
    for rows in 0..=17 {
        for dim in DIMS {
            for (share, finite) in [(0.0, true), (0.2, true), (0.02, false), (0.3, false)] {
                for _ in 0..3 {
                    check_shape(&mut rng, rows, dim, Specials { share, finite });
                }
            }
        }
    }
}

#[test]
fn rows_of_different_lengths_keep_their_own_norms() {
    let mut rng = DetRng::new(7);
    // Two panels, each with rows shorter and longer than its neighbours.
    let owned: Vec<WeightVector> = [5usize, 0, 4097, 3, 1, 8, 2, 4097, 9, 4096, 1, 4097, 17]
        .iter()
        .map(|d| {
            let specials = Specials {
                share: 0.05,
                finite: false,
            };
            vector(&mut rng, *d, specials)
        })
        .collect();
    let refs: Vec<&WeightVector> = owned.iter().collect();
    let mut out = vec![0.0; refs.len()];
    RowPanels::new(&refs).l2_norms(&mut out);
    let want: Vec<f64> = refs.iter().map(|r| r.l2_norm()).collect();
    assert_eq!(bits(&out), bits(&want));
}

#[test]
fn negative_zero_sums_stay_negative_zero() {
    // `Iterator::sum::<f64>` folds from -0.0, so a chain of -0.0 products
    // and an empty chain both end at -0.0; the blocked chains must too.
    let zeros = WeightVector::from_vec(vec![-0.0; 9]);
    let ones = WeightVector::from_vec(vec![1.0; 9]);
    let rows = [&zeros; 11];
    let mut out = vec![0.0; rows.len()];
    RowPanels::new(&rows).dots(&ones, &mut out);
    assert!(out.iter().all(|d| d.to_bits() == (-0.0f64).to_bits()));
    assert_eq!(zeros.dot(&ones).to_bits(), (-0.0f64).to_bits());

    let empty = WeightVector::zeros(0);
    RowPanels::new(&[&empty; 11]).l2_norms(&mut out);
    assert!(out.iter().all(|n| n.to_bits() == empty.l2_norm().to_bits()));
    assert_eq!(empty.l2_norm().to_bits(), (-0.0f64).to_bits());
}

#[test]
fn a_zero_row_of_another_dimension_scores_zero_like_the_one_row_method() {
    let zero = WeightVector::zeros(3);
    let v = WeightVector::from_vec(vec![1.0, 2.0]);
    assert_eq!(zero.cosine_similarity(&v), 0.0);
    let mut out = [f64::NAN];
    RowPanels::new(&[&zero]).cosine_similarities(&[zero.l2_norm()], &v, &mut out);
    assert_eq!(out[0].to_bits(), 0.0f64.to_bits());
}

fn pair_with_short_row() -> (WeightVector, WeightVector, WeightVector) {
    (
        WeightVector::from_vec(vec![1.0; 8]),
        WeightVector::from_vec(vec![1.0; 7]),
        WeightVector::from_vec(vec![2.0; 8]),
    )
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn dots_reject_a_short_row_instead_of_truncating() {
    let (a, short, v) = pair_with_short_row();
    let mut out = [0.0; 10];
    RowPanels::new(&[&a, &a, &a, &a, &a, &a, &a, &a, &a, &short]).dots(&v, &mut out);
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn l2_distances_reject_a_short_row_instead_of_truncating() {
    let (a, short, v) = pair_with_short_row();
    let mut out = [0.0; 2];
    RowPanels::new(&[&short, &a]).l2_distances(&v, &mut out);
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn paired_l2_distances_reject_a_short_partner_instead_of_truncating() {
    let (a, short, _) = pair_with_short_row();
    let mut out = [0.0; 1];
    RowPanels::new(&[&a]).paired_l2_distances(&[&short], &mut out);
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn cosine_similarities_reject_a_nonzero_short_row() {
    let (a, short, v) = pair_with_short_row();
    let mut out = [0.0; 2];
    RowPanels::new(&[&a, &short]).cosine_similarities(
        &[a.l2_norm(), short.l2_norm()],
        &v,
        &mut out,
    );
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn cosine_similarity_rejects_a_nonzero_short_vector() {
    let (a, short, _) = pair_with_short_row();
    let _ = a.cosine_similarity(&short);
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn mean_rejects_a_short_row() {
    let (a, short, _) = pair_with_short_row();
    let _ = WeightVector::mean(&[&a, &a, &a, &a, &a, &short]);
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn add_rows_rejects_a_short_row() {
    let (a, short, _) = pair_with_short_row();
    let mut acc = a.clone();
    acc.add_rows(&[&a, &short]);
}
