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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightVector {
    values: Vec<f32>,
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
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn cosine_similarity(&self, other: &WeightVector) -> f64 {
        let denom = self.l2_norm() * other.l2_norm();
        if denom == 0.0 {
            0.0
        } else {
            (self.dot(other) / denom).clamp(-1.0, 1.0)
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
        WeightVector {
            values: self
                .values
                .iter()
                .map(|v| (*v as f64 * factor) as f32)
                .collect(),
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

    /// Unweighted mean of several vectors.
    ///
    /// Returns `None` when `vectors` is empty.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch among inputs.
    pub fn mean(vectors: &[&WeightVector]) -> Option<WeightVector> {
        let first = vectors.first()?;
        let mut acc = WeightVector::zeros(first.dim());
        for v in vectors {
            acc.axpy(1.0, v);
        }
        Some(acc.scale(1.0 / vectors.len() as f64))
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
