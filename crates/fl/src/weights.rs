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
/// A kernel that reduces many rows at once packs them into
/// [`RowPanels`] and takes its norms, dot products, distances and cosines
/// from there. Each output is bit-equal to the one-row method here
/// ([`l2_norm`](Self::l2_norm), [`dot`](Self::dot),
/// [`l2_distance`](Self::l2_distance),
/// [`cosine_similarity`](Self::cosine_similarity)), which the tests
/// compare against.
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
}

/// Rows per panel: how many independent f64 chains one pass runs.
const LANES: usize = 8;

/// Entries [`pack`] fills lane by lane before moving on: 4 KiB, so the
/// tile stays in L1 while all eight lanes are written into it.
const PACK_TILE: usize = 128;

/// Appends the first `width` elements of `rows` (at most [`LANES`] of
/// them) element-major: entry `e` holds element `e` of every row. A
/// group shorter than `LANES` repeats its last row in the spare lanes.
fn pack(rows: &[&WeightVector], width: usize, into: &mut Vec<[f32; LANES]>) {
    let start = into.len();
    into.resize(start + width, [0.0; LANES]);
    for (t, tile) in into[start..].chunks_mut(PACK_TILE).enumerate() {
        for j in 0..LANES {
            let row = &rows[j.min(rows.len() - 1)].as_slice()[t * PACK_TILE..];
            for (entry, x) in tile.iter_mut().zip(row) {
                entry[j] = *x;
            }
        }
    }
}

/// Runs one panel's [`LANES`] chains in one pass: lane `j` sums
/// `term(a[j], b[j])` over the entries in order, from `-0.0` (where
/// `Iterator::sum::<f64>` starts). The lanes never mix, so the compiler
/// keeps them side by side in vector registers.
#[inline(always)]
fn chains(
    panel: &[[f32; LANES]],
    partner: impl Iterator<Item = [f32; LANES]>,
    term: impl Fn(f32, f32) -> f64,
) -> [f64; LANES] {
    let mut sums = [-0.0f64; LANES];
    for (a, b) in panel.iter().zip(partner) {
        for j in 0..LANES {
            sums[j] += term(a[j], b[j]);
        }
    }
    sums
}

/// What each row's chain pairs its elements with.
#[derive(Clone, Copy)]
enum Partner<'v> {
    /// The row itself.
    Itself,
    /// One vector shared by every row.
    Shared(&'v [f32]),
    /// Row `i` pairs with `others[i]`.
    PerRow(&'v [&'v WeightVector]),
}

/// A kernel's rows, copied once into panels of eight rows for multi-row
/// reductions.
///
/// Panel `p` holds rows `8p..8p + 8` element-major: its entry `e` is
/// element `e` of each of those rows. A short last panel repeats its
/// final row and throws that lane away.
///
/// Every method keeps **one sequential f64 chain per output, in element
/// order, starting from `-0.0`**, the fold `Iterator::sum::<f64>`
/// performs, so each output is bit-equal to the one-row
/// [`WeightVector`] method named in its docs. The eight chains of a
/// panel are independent, which is what makes a pass fast: the compiler
/// runs them as f64x2 vector operations.
///
/// Rows may differ in length. A panel covers its rows' common prefix,
/// and each longer row finishes its own chain alone, still in element
/// order.
///
/// A `RowPanels` owns its copy of the rows: the panels, plus each
/// longer row's elements past its panel's width. Nothing borrows the
/// rows it was built from, so it can outlive the call that packed them:
/// a k-means point set keeps one per round and shares it between the
/// serves that read that round.
///
/// # Examples
///
/// ```
/// use flstore_fl::weights::{RowPanels, WeightVector};
///
/// let a = WeightVector::from_vec(vec![3.0, 4.0]);
/// let b = WeightVector::from_vec(vec![0.0, 1.0]);
/// let rows = [&a, &b];
/// let panels = RowPanels::new(&rows);
/// let mut norms = [0.0; 2];
/// panels.l2_norms(&mut norms);
/// assert_eq!(norms, [a.l2_norm(), b.l2_norm()]);
/// ```
pub struct RowPanels {
    /// Each row's length.
    dims: Vec<usize>,
    /// Every panel's entries back to back.
    entries: Vec<[f32; LANES]>,
    /// Each panel's range in `entries`; its length is the panel's width.
    spans: Vec<std::ops::Range<usize>>,
    /// Each row's elements past its panel's width: empty unless the rows
    /// of its panel differ in length.
    tails: Vec<Vec<f32>>,
}

impl RowPanels {
    /// Packs `rows`.
    pub fn new(rows: &[&WeightVector]) -> Self {
        let widths: Vec<usize> = rows
            .chunks(LANES)
            .map(|group| group.iter().map(|r| r.dim()).min().unwrap_or(0))
            .collect();
        let mut entries = Vec::with_capacity(widths.iter().sum());
        let mut spans = Vec::with_capacity(widths.len());
        let mut tails = Vec::with_capacity(rows.len());
        for (group, width) in rows.chunks(LANES).zip(widths) {
            let start = entries.len();
            pack(group, width, &mut entries);
            spans.push(start..entries.len());
            tails.extend(group.iter().map(|row| row.as_slice()[width..].to_vec()));
        }
        RowPanels {
            dims: rows.iter().map(|r| r.dim()).collect(),
            entries,
            spans,
            tails,
        }
    }

    /// Euclidean norm of every row: `out[i]` is bit-equal to
    /// `rows[i].l2_norm()`.
    ///
    /// # Panics
    ///
    /// Panics unless `out` has one slot per row.
    pub fn l2_norms(&self, out: &mut [f64]) {
        self.check_outputs(out);
        self.reduce(Partner::Itself, square, out);
        out.iter_mut().for_each(|s| *s = s.sqrt());
    }

    /// Dot product of every row with `v`: `out[i]` is bit-equal to
    /// `rows[i].dot(v)`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, or unless `out` has one slot per row.
    pub fn dots(&self, v: &WeightVector, out: &mut [f64]) {
        self.check_outputs(out);
        for dim in &self.dims {
            assert_eq!(*dim, v.dim(), "dimension mismatch in dot product");
        }
        self.reduce(Partner::Shared(v.as_slice()), product, out);
    }

    /// Euclidean distance of every row to `v`: `out[i]` is bit-equal to
    /// `rows[i].l2_distance(v)`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, or unless `out` has one slot per row.
    pub fn l2_distances(&self, v: &WeightVector, out: &mut [f64]) {
        self.check_outputs(out);
        for dim in &self.dims {
            assert_eq!(*dim, v.dim(), "dimension mismatch in distance");
        }
        self.reduce(Partner::Shared(v.as_slice()), squared_difference, out);
        out.iter_mut().for_each(|s| *s = s.sqrt());
    }

    /// Euclidean distance of every row to its own partner: `out[i]` is
    /// bit-equal to `rows[i].l2_distance(others[i])`. The partners are
    /// packed panel by panel as the pass reaches them.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, or unless `others` and `out` have
    /// one entry per row.
    pub fn paired_l2_distances(&self, others: &[&WeightVector], out: &mut [f64]) {
        assert_eq!(others.len(), self.dims.len(), "one partner per row");
        self.check_outputs(out);
        for (dim, other) in self.dims.iter().zip(others) {
            assert_eq!(*dim, other.dim(), "dimension mismatch in distance");
        }
        self.reduce(Partner::PerRow(others), squared_difference, out);
        out.iter_mut().for_each(|s| *s = s.sqrt());
    }

    /// Cosine similarity of every row to `v`, given the rows' norms:
    /// `out[i]` is bit-equal to `rows[i].cosine_similarity(v)` when
    /// `norms[i]` is `rows[i].l2_norm()`.
    ///
    /// `v`'s norm is taken once. A row whose norm product is zero scores
    /// 0.0 without its dot product being used, exactly where
    /// `cosine_similarity` skips one, so a zero row of another dimension
    /// scores 0.0 here too.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch between `v` and a nonzero row, or
    /// unless `norms` and `out` have one entry per row.
    pub fn cosine_similarities(&self, norms: &[f64], v: &WeightVector, out: &mut [f64]) {
        assert_eq!(norms.len(), self.dims.len(), "one norm per row");
        self.check_outputs(out);
        let v_norm = v.l2_norm();
        for (dim, norm) in self.dims.iter().zip(norms) {
            if norm * v_norm != 0.0 {
                assert_eq!(*dim, v.dim(), "dimension mismatch in dot product");
            }
        }
        self.reduce(Partner::Shared(v.as_slice()), product, out);
        for (o, norm) in out.iter_mut().zip(norms) {
            let denom = norm * v_norm;
            *o = if denom == 0.0 { 0.0 } else { cosine(*o, denom) };
        }
    }

    fn check_outputs(&self, out: &[f64]) {
        assert_eq!(out.len(), self.dims.len(), "one output per row");
    }

    /// Fills `out[i]` with row `i`'s chain of `term` against its partner,
    /// one panel per pass. A panel runs over the elements every one of
    /// its rows and partners has; each row then finishes alone over the
    /// elements it and its own partner still share, read from its panel
    /// lane and then from its tail.
    fn reduce(&self, partner: Partner<'_>, term: impl Fn(f32, f32) -> f64 + Copy, out: &mut [f64]) {
        let mut partners = Vec::new();
        for (p, (block, span)) in out.chunks_mut(LANES).zip(&self.spans).enumerate() {
            let panel = &self.entries[span.clone()];
            let (mut sums, done) = match partner {
                Partner::Itself => (chains(panel, panel.iter().copied(), term), panel.len()),
                Partner::Shared(v) => {
                    let done = panel.len().min(v.len());
                    let lanes = v[..done].iter().map(|x| [*x; LANES]);
                    (chains(&panel[..done], lanes, term), done)
                }
                Partner::PerRow(others) => {
                    let others = &others[p * LANES..][..block.len()];
                    let done = others.iter().map(|o| o.dim()).fold(panel.len(), usize::min);
                    partners.clear();
                    pack(others, done, &mut partners);
                    (chains(&panel[..done], partners.iter().copied(), term), done)
                }
            };
            for (j, sum) in sums[..block.len()].iter_mut().enumerate() {
                let i = p * LANES + j;
                let rest = panel[done..]
                    .iter()
                    .map(|entry| entry[j])
                    .chain(self.tails[i].iter().copied());
                let with = match partner {
                    Partner::Itself => {
                        rest.for_each(|a| *sum += term(a, a));
                        continue;
                    }
                    Partner::Shared(v) => v,
                    Partner::PerRow(others) => others[i].as_slice(),
                };
                for (a, b) in rest.zip(&with[done..]) {
                    *sum += term(a, *b);
                }
            }
            block.copy_from_slice(&sums[..block.len()]);
        }
    }
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
