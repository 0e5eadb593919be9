//! Reduced-fidelity model weights.
//!
//! Non-training workloads operate on client model updates: they compute
//! norms, cosine similarities, cluster assignments, and influence scores
//! over weight vectors. The *algorithms* need real vectors with realistic
//! statistical structure; the *latency/cost models* need the true serialized
//! model size. [`WeightVector`] carries a small dense vector (default 256
//! dimensions) for the former while storage accounting uses the
//! architecture's logical size (see `flstore-fl::metadata`).

use serde::{Deserialize, Serialize};

use flstore_sim::rng::DetRng;

/// Default reduced dimensionality.
pub const DEFAULT_DIM: usize = 256;

/// A dense weight vector.
///
/// # Examples
///
/// ```
/// use flstore_fl::weights::WeightVector;
///
/// let a = WeightVector::from_vec(vec![1.0, 0.0]);
/// let b = WeightVector::from_vec(vec![0.0, 1.0]);
/// assert!(a.cosine_similarity(&b).abs() < 1e-6);
/// assert!((a.l2_norm() - 1.0).abs() < 1e-6);
/// ```
///
/// # Multi-row reductions
///
/// The associated functions [`l2_norms`](Self::l2_norms),
/// [`dots`](Self::dots), [`l2_distances`](Self::l2_distances),
/// [`paired_l2_distances`](Self::paired_l2_distances) and
/// [`cosine_similarities`](Self::cosine_similarities) reduce many rows at
/// once. They keep **one sequential f64 chain per output, in element
/// order, starting from `-0.0`** (the fold `Iterator::sum::<f64>`
/// performs), so every output is bit-equal to the one-row method it
/// replaces; they are faster only because each pass runs four such
/// chains side by side, which lets the CPU overlap four additions instead
/// of waiting out one add latency per element.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct WeightVector {
    values: Vec<f32>,
}

impl Clone for WeightVector {
    fn clone(&self) -> Self {
        WeightVector {
            values: self.values.clone(),
        }
    }

    /// Reuses `self`'s allocation.
    fn clone_from(&mut self, source: &Self) {
        self.values.clone_from(&source.values);
    }
}

/// Runs four independent f64 chains in one pass: chain `j` sums
/// `term(a[j][e], b[j][e])` over `e` in element order, from `-0.0`.
///
/// Requires `a[j].len() == b[j].len()`. Rows may differ in length from
/// each other: the common prefix runs four-wide and each longer row
/// finishes its own chain alone, still in element order.
#[inline(always)]
fn chains4(a: [&[f32]; 4], b: [&[f32]; 4], term: impl Fn(f32, f32) -> f64) -> [f64; 4] {
    let n = a.iter().map(|r| r.len()).min().unwrap_or(0);
    // Slicing every row to `n` up front lets the compiler drop the bounds
    // checks inside the loop.
    let (a0, a1, a2, a3) = (&a[0][..n], &a[1][..n], &a[2][..n], &a[3][..n]);
    let (b0, b1, b2, b3) = (&b[0][..n], &b[1][..n], &b[2][..n], &b[3][..n]);
    let (mut s0, mut s1, mut s2, mut s3) = (-0.0f64, -0.0f64, -0.0f64, -0.0f64);
    for e in 0..n {
        s0 += term(a0[e], b0[e]);
        s1 += term(a1[e], b1[e]);
        s2 += term(a2[e], b2[e]);
        s3 += term(a3[e], b3[e]);
    }
    let mut sums = [s0, s1, s2, s3];
    for (s, (x, y)) in sums.iter_mut().zip(a.iter().zip(&b)) {
        for (p, q) in x[n..].iter().zip(&y[n..]) {
            *s += term(*p, *q);
        }
    }
    sums
}

/// Fills `out[i]` with the chain of pair `i`, four pairs per pass. A
/// short last block repeats its final pair rather than running a slower
/// one-chain loop; the repeat's result is discarded.
fn reduce_pairs<'a>(
    out: &mut [f64],
    pair: impl Fn(usize) -> (&'a [f32], &'a [f32]),
    term: impl Fn(f32, f32) -> f64 + Copy,
) {
    let n = out.len();
    for start in (0..n).step_by(4) {
        let p = |j: usize| pair((start + j).min(n - 1));
        let ((a0, b0), (a1, b1), (a2, b2), (a3, b3)) = (p(0), p(1), p(2), p(3));
        let sums = chains4([a0, a1, a2, a3], [b0, b1, b2, b3], term);
        let block = &mut out[start..n.min(start + 4)];
        block.copy_from_slice(&sums[..block.len()]);
    }
}

fn square(a: f32, _: f32) -> f64 {
    (a as f64) * (a as f64)
}

fn product(a: f32, b: f32) -> f64 {
    (a as f64) * (b as f64)
}

fn squared_difference(a: f32, b: f32) -> f64 {
    let d = (a as f64) - (b as f64);
    d * d
}

/// The cosine of two vectors from their dot product and the product of
/// their norms — the one formula behind every cosine in this module.
fn cosine(dot: f64, denom: f64) -> f64 {
    (dot / denom).clamp(-1.0, 1.0)
}

impl WeightVector {
    /// Wraps an existing vector.
    pub fn from_vec(values: Vec<f32>) -> Self {
        WeightVector { values }
    }

    /// An all-zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        WeightVector {
            values: vec![0.0; dim],
        }
    }

    /// A random unit-scale Gaussian vector.
    pub fn gaussian(rng: &mut DetRng, dim: usize, std_dev: f64) -> Self {
        WeightVector {
            values: (0..dim).map(|_| rng.normal(0.0, std_dev) as f32).collect(),
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// True if the vector has no components.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the raw components.
    pub fn as_slice(&self) -> &[f32] {
        &self.values
    }

    /// Euclidean norm.
    pub fn l2_norm(&self) -> f64 {
        self.values
            .iter()
            .map(|v| (*v as f64) * (*v as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Dot product.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn dot(&self, other: &WeightVector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch in dot product");
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum()
    }

    /// Cosine similarity in `[-1, 1]`; zero if either vector is zero.
    ///
    /// Both norms and the dot product are three independent chains of
    /// one pass, each bit-equal to [`l2_norm`](Self::l2_norm) and
    /// [`dot`](Self::dot).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, unless either vector is zero (a
    /// zero vector scores 0.0 against a vector of any dimension).
    pub fn cosine_similarity(&self, other: &WeightVector) -> f64 {
        if self.dim() != other.dim() {
            let denom = self.l2_norm() * other.l2_norm();
            return if denom == 0.0 {
                0.0
            } else {
                cosine(self.dot(other), denom)
            };
        }
        let (mut aa, mut bb, mut ab) = (-0.0f64, -0.0f64, -0.0f64);
        for (a, b) in self.values.iter().zip(&other.values) {
            aa += square(*a, *a);
            bb += square(*b, *b);
            ab += product(*a, *b);
        }
        let denom = aa.sqrt() * bb.sqrt();
        if denom == 0.0 {
            0.0
        } else {
            cosine(ab, denom)
        }
    }

    /// Euclidean distance.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn l2_distance(&self, other: &WeightVector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch in distance");
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| {
                let d = (*a as f64) - (*b as f64);
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    /// `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add(&self, other: &WeightVector) -> WeightVector {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch in add");
        WeightVector {
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn sub(&self, other: &WeightVector) -> WeightVector {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch in sub");
        WeightVector {
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// `self * factor`.
    pub fn scale(&self, factor: f64) -> WeightVector {
        let mut scaled = self.clone();
        scaled.scale_in_place(factor);
        scaled
    }

    /// Multiplies every component by `factor` in place, bit-equal to
    /// [`scale`](Self::scale).
    pub fn scale_in_place(&mut self, factor: f64) {
        for v in &mut self.values {
            *v = (*v as f64 * factor) as f32;
        }
    }

    /// Adds `other * factor` into `self` in place (AXPY).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn axpy(&mut self, factor: f64, other: &WeightVector) {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch in axpy");
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += (*b as f64 * factor) as f32;
        }
    }

    /// Adds every row into `self`, four rows per pass over `self`.
    ///
    /// Each component still sums its rows one at a time in row order, in
    /// f32, so the result is bit-equal to calling `self.axpy(1.0, row)`
    /// for each row in turn.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_rows(&mut self, rows: &[&WeightVector]) {
        let n = self.dim();
        for row in rows {
            assert_eq!(n, row.dim(), "dimension mismatch in axpy");
        }
        let acc = &mut self.values[..n];
        let mut blocks = rows.chunks_exact(4);
        for block in &mut blocks {
            let (r0, r1, r2, r3) = (
                &block[0].values[..n],
                &block[1].values[..n],
                &block[2].values[..n],
                &block[3].values[..n],
            );
            for e in 0..n {
                acc[e] = acc[e] + r0[e] + r1[e] + r2[e] + r3[e];
            }
        }
        for row in blocks.remainder() {
            for (a, v) in acc.iter_mut().zip(&row.values) {
                *a += *v;
            }
        }
    }

    /// Unweighted mean of several vectors.
    ///
    /// Returns `None` when `vectors` is empty.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch among inputs.
    pub fn mean(vectors: &[&WeightVector]) -> Option<WeightVector> {
        let mut acc = WeightVector::zeros(0);
        acc.mean_into(vectors).then_some(acc)
    }

    /// Overwrites `self` with the unweighted mean of `rows`, reusing its
    /// allocation.
    ///
    /// The arithmetic is [`mean`](Self::mean)'s: zeros of the first row's
    /// dimension, every row added in order ([`add_rows`](Self::add_rows)),
    /// then a scale by `1 / rows.len()`. Returns `false` and leaves `self`
    /// untouched when `rows` is empty.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch among inputs.
    pub fn mean_into(&mut self, rows: &[&WeightVector]) -> bool {
        let Some(first) = rows.first() else {
            return false;
        };
        self.values.clear();
        self.values.resize(first.dim(), 0.0);
        self.add_rows(rows);
        self.scale_in_place(1.0 / rows.len() as f64);
        true
    }

    /// Euclidean norm of every row: `out[i]` is bit-equal to
    /// `rows[i].l2_norm()` (one chain per row; see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows.len()`.
    pub fn l2_norms(rows: &[&WeightVector], out: &mut [f64]) {
        assert_eq!(out.len(), rows.len(), "one output per row");
        reduce_pairs(out, |i| (rows[i].as_slice(), rows[i].as_slice()), square);
        out.iter_mut().for_each(|s| *s = s.sqrt());
    }

    /// Dot product of every row with `v`: `out[i]` is bit-equal to
    /// `rows[i].dot(v)` (one chain per row; see the type docs).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, or if `out.len() != rows.len()`.
    pub fn dots(rows: &[&WeightVector], v: &WeightVector, out: &mut [f64]) {
        assert_eq!(out.len(), rows.len(), "one output per row");
        for row in rows {
            assert_eq!(row.dim(), v.dim(), "dimension mismatch in dot product");
        }
        reduce_pairs(out, |i| (rows[i].as_slice(), v.as_slice()), product);
    }

    /// Euclidean distance of every row to `v`: `out[i]` is bit-equal to
    /// `rows[i].l2_distance(v)` (one chain per row; see the type docs).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, or if `out.len() != rows.len()`.
    pub fn l2_distances(rows: &[&WeightVector], v: &WeightVector, out: &mut [f64]) {
        l2_distances_by(rows, |_| v, out);
    }

    /// Euclidean distance of every row to its own partner: `out[i]` is
    /// bit-equal to `rows[i].l2_distance(others[i])` (one chain per row;
    /// see the type docs).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, or unless `others` and `out` are as
    /// long as `rows`.
    pub fn paired_l2_distances(rows: &[&WeightVector], others: &[&WeightVector], out: &mut [f64]) {
        assert_eq!(others.len(), rows.len(), "one partner per row");
        l2_distances_by(rows, |i| others[i], out);
    }

    /// Cosine similarity of every row to `v`, given the rows' norms:
    /// `out[i]` is bit-equal to `rows[i].cosine_similarity(v)` when
    /// `norms[i]` is `rows[i].l2_norm()`.
    ///
    /// `v`'s norm is taken once, and dot products run four rows per pass
    /// ([`dots`](Self::dots)) only for rows whose norm product is
    /// nonzero, exactly where `cosine_similarity` takes one.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch between `v` and a nonzero row, or
    /// unless `norms` and `out` are as long as `rows`.
    pub fn cosine_similarities(
        rows: &[&WeightVector],
        norms: &[f64],
        v: &WeightVector,
        out: &mut [f64],
    ) {
        assert_eq!(norms.len(), rows.len(), "one norm per row");
        assert_eq!(out.len(), rows.len(), "one output per row");
        let v_norm = v.l2_norm();
        let scored: Vec<usize> = (0..rows.len())
            .filter(|i| norms[*i] * v_norm != 0.0)
            .collect();
        let scored_rows: Vec<&WeightVector> = scored.iter().map(|i| rows[*i]).collect();
        let mut dots = vec![0.0; scored.len()];
        WeightVector::dots(&scored_rows, v, &mut dots);
        out.fill(0.0);
        for (i, dot) in scored.iter().zip(&dots) {
            out[*i] = cosine(*dot, norms[*i] * v_norm);
        }
    }
}

/// [`WeightVector::l2_distances`] against a per-row partner.
fn l2_distances_by<'a>(
    rows: &[&'a WeightVector],
    other: impl Fn(usize) -> &'a WeightVector,
    out: &mut [f64],
) {
    assert_eq!(out.len(), rows.len(), "one output per row");
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.dim(), other(i).dim(), "dimension mismatch in distance");
    }
    reduce_pairs(
        out,
        |i| (rows[i].as_slice(), other(i).as_slice()),
        squared_difference,
    );
    out.iter_mut().for_each(|s| *s = s.sqrt());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_and_distances() {
        let a = WeightVector::from_vec(vec![3.0, 4.0]);
        assert!((a.l2_norm() - 5.0).abs() < 1e-9);
        let b = WeightVector::from_vec(vec![0.0, 0.0]);
        assert!((a.l2_distance(&b) - 5.0).abs() < 1e-9);
        assert_eq!(a.cosine_similarity(&b), 0.0);
    }

    #[test]
    fn cosine_of_self_is_one() {
        let mut rng = DetRng::new(5);
        let v = WeightVector::gaussian(&mut rng, 64, 1.0);
        assert!((v.cosine_similarity(&v) - 1.0).abs() < 1e-9);
        assert!((v.cosine_similarity(&v.scale(-2.0)) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_identities() {
        let mut rng = DetRng::new(6);
        let a = WeightVector::gaussian(&mut rng, 32, 1.0);
        let b = WeightVector::gaussian(&mut rng, 32, 1.0);
        let sum = a.add(&b);
        let back = sum.sub(&b);
        assert!(back.l2_distance(&a) < 1e-4);
        let mut axpy = a.clone();
        axpy.axpy(1.0, &b);
        assert!(axpy.l2_distance(&sum) < 1e-6);
    }

    #[test]
    fn mean_of_identical_is_identity() {
        let v = WeightVector::from_vec(vec![1.0, 2.0, 3.0]);
        let m = WeightVector::mean(&[&v, &v, &v]).expect("non-empty");
        assert!(m.l2_distance(&v) < 1e-6);
        assert!(WeightVector::mean(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dot_panics() {
        let a = WeightVector::zeros(2);
        let b = WeightVector::zeros(3);
        let _ = a.dot(&b);
    }

    #[test]
    fn gaussian_statistics() {
        let mut rng = DetRng::new(8);
        let v = WeightVector::gaussian(&mut rng, 4096, 1.0);
        let mean: f64 = v.as_slice().iter().map(|x| *x as f64).sum::<f64>() / 4096.0;
        assert!(mean.abs() < 0.1);
        // Norm of a standard Gaussian vector concentrates around sqrt(dim).
        assert!((v.l2_norm() - 64.0).abs() < 5.0);
    }
}
