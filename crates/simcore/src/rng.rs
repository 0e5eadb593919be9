//! Deterministic random number generation.
//!
//! Every stochastic element of the simulation (weight noise, arrival times,
//! function reclamation, client heterogeneity) draws from a [`DetRng`] seeded
//! from the experiment configuration. Identical seeds reproduce identical
//! figures bit-for-bit.
//!
//! Distribution samplers that `rand` does not provide out of the box
//! (exponential, Pareto, Zipf, normal) are implemented here from first
//! principles to stay within the approved dependency set.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// SplitMix64 finalizer: decorrelates derived seeds here, and is the one
/// mixer behind every hash router in the stack (executor job shards,
/// cluster placement slots, engine key-shards).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, fork-able random number generator.
///
/// Wraps [`rand::rngs::StdRng`] and adds the distribution samplers the
/// simulation needs. Use [`DetRng::stream`] to derive independent generators
/// for different subsystems from one experiment seed so that adding draws in
/// one subsystem never perturbs another.
///
/// # Examples
///
/// ```
/// use flstore_sim::rng::DetRng;
///
/// let mut a = DetRng::stream(42, "clients");
/// let mut b = DetRng::stream(42, "clients");
/// assert_eq!(a.next_u64(), b.next_u64()); // same stream → same values
///
/// let mut c = DetRng::stream(42, "network");
/// let _ = c.u01(); // independent stream, does not disturb `a`
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(splitmix64(seed)),
        }
    }

    /// Derives an independent generator for a named subsystem.
    ///
    /// The label is hashed (FNV-1a) into the seed so that streams with
    /// different labels are decorrelated even for adjacent seeds.
    pub fn stream(seed: u64, label: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in label.as_bytes() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        DetRng::new(splitmix64(seed ^ h))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform draw in `[0, 1)`.
    pub fn u01(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid uniform bounds [{lo}, {hi})"
        );
        lo + (hi - lo) * self.u01()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli draw with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in [0,1], got {p}"
        );
        self.u01() < p
    }

    /// Exponential draw with the given rate (mean `1/rate`).
    ///
    /// Used for Poisson inter-arrival times.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "rate must be positive, got {rate}"
        );
        let u = self.u01();
        // 1 - u is in (0, 1], so the log is finite.
        -(1.0 - u).ln() / rate
    }

    /// Pareto (heavy-tail) draw with minimum `scale` and tail index `alpha`.
    ///
    /// InfiniCache's measurement study found AWS Lambda instance lifetimes to
    /// be heavy-tailed; this sampler drives the reclamation model.
    ///
    /// # Panics
    ///
    /// Panics unless `scale > 0` and `alpha > 0`.
    pub fn pareto(&mut self, scale: f64, alpha: f64) -> f64 {
        assert!(
            scale > 0.0 && alpha > 0.0,
            "pareto parameters must be positive"
        );
        let u = self.u01();
        scale / (1.0 - u).powf(1.0 / alpha)
    }

    /// Standard normal draw via the Box–Muller transform.
    fn standard_normal(&mut self) -> f64 {
        // Avoid u == 0 which would send ln to -inf.
        let u1 = (1.0 - self.u01()).max(f64::MIN_POSITIVE);
        let u2 = self.u01();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            std_dev >= 0.0 && std_dev.is_finite(),
            "std dev must be non-negative"
        );
        mean + std_dev * self.standard_normal()
    }

    /// Log-normal draw parameterized by the underlying normal's `mu`/`sigma`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Samples an index from a discrete distribution given by `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains negatives, or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(
            !weights.is_empty(),
            "weighted_index needs at least one weight"
        );
        let total: f64 = weights
            .iter()
            .map(|w| {
                assert!(*w >= 0.0 && w.is_finite(), "weights must be non-negative");
                *w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut x = self.u01() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= *w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Chooses `k` distinct indices uniformly from `[0, n)` (reservoir-free,
    /// partial Fisher–Yates).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn choose_k(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot choose {k} items from {n}");
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.inner.gen_range(i..n);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    /// Samples a symmetric Dirichlet distribution of dimension `k` with
    /// concentration `alpha`, via normalized Gamma draws
    /// (Marsaglia–Tsang for `alpha >= 1`, boost trick below 1).
    ///
    /// Drives non-IID label partitions for FL clients.
    ///
    /// # Panics
    ///
    /// Panics unless `k > 0` and `alpha > 0`.
    pub fn dirichlet(&mut self, k: usize, alpha: f64) -> Vec<f64> {
        assert!(k > 0, "dirichlet dimension must be positive");
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        let mut draws: Vec<f64> = (0..k).map(|_| self.gamma(alpha)).collect();
        let sum: f64 = draws.iter().sum();
        if sum <= 0.0 {
            // Numerically possible for tiny alpha; fall back to one-hot.
            let hot = self.index(k);
            draws.iter_mut().for_each(|d| *d = 0.0);
            draws[hot] = 1.0;
            return draws;
        }
        draws.iter_mut().for_each(|d| *d /= sum);
        draws
    }

    /// Gamma(shape, 1) draw via Marsaglia–Tsang.
    fn gamma(&mut self, shape: f64) -> f64 {
        if shape < 1.0 {
            // Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
            let g = self.gamma(shape + 1.0);
            return g * self.u01().powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.standard_normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.u01();
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

/// A Zipf(`n`, `s`) sampler over ranks `1..=n` with exponent `s`.
///
/// Precomputes the CDF once; sampling is a binary search. Suitable for the
/// object-popularity and fault-burst models where `n` stays modest (≤ 1e6).
///
/// # Examples
///
/// ```
/// use flstore_sim::rng::{DetRng, Zipf};
///
/// let zipf = Zipf::new(100, 1.0);
/// let mut rng = DetRng::new(7);
/// let rank = zipf.sample(&mut rng);
/// assert!((1..=100).contains(&rank));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf support must be non-empty");
        assert!(
            s >= 0.0 && s.is_finite(),
            "zipf exponent must be non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks in the support.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the support is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a rank in `1..=n`, rank 1 most popular.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.u01();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_are_decorrelated() {
        let mut a = DetRng::stream(1, "alpha");
        let mut b = DetRng::stream(1, "beta");
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = DetRng::new(9);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = DetRng::new(10);
        for _ in 0..1000 {
            assert!(rng.pareto(60.0, 1.1) >= 60.0);
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = DetRng::new(11);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.06, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.25, "var was {var}");
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = DetRng::new(12);
        for alpha in [0.1, 0.5, 1.0, 5.0] {
            let p = rng.dirichlet(10, alpha);
            assert_eq!(p.len(), 10);
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|x| *x >= 0.0));
        }
    }

    #[test]
    fn dirichlet_low_alpha_is_skewed() {
        let mut rng = DetRng::new(13);
        let p = rng.dirichlet(10, 0.05);
        let max = p.iter().cloned().fold(0.0, f64::max);
        assert!(
            max > 0.5,
            "low alpha should concentrate mass, max was {max}"
        );
    }

    #[test]
    fn choose_k_is_distinct() {
        let mut rng = DetRng::new(14);
        let picks = rng.choose_k(250, 10);
        assert_eq!(picks.len(), 10);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(sorted.iter().all(|i| *i < 250));
    }

    #[test]
    fn weighted_index_prefers_heavy() {
        let mut rng = DetRng::new(15);
        let weights = [0.01, 0.01, 10.0];
        let mut counts = [0usize; 3];
        for _ in 0..1000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert!(counts[2] > 900);
    }

    #[test]
    fn zipf_rank_one_most_frequent() {
        let zipf = Zipf::new(50, 1.2);
        let mut rng = DetRng::new(16);
        let mut counts = vec![0usize; 51];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        assert_eq!(counts[0], 0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(17);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn index_empty_panics() {
        let mut rng = DetRng::new(18);
        let _ = rng.index(0);
    }
}
