//! Percentile, slice and spread maths for the reported timings.
//!
//! A timing is reported as the **best slice**: the run is cut into equal
//! slices, the percentile is taken per slice, and the best slice's value
//! is the metric. On a shared sandbox interference comes in episodes of
//! a second or a few (one run's ten slice rates: 45k, 43k, 35k, 34k, 33k,
//! 33k, 34k, 34k, 33k, 33k req/s — the neighbour woke up after slice
//! two) and it only ever *adds* time, so the quietest slice is the
//! closest a run gets to the system's own speed, and it repeats: over
//! eight runs the best slice varied ±4 % where the median slice varied
//! ±15 %.

/// Number of equal slices a run's samples are cut into.
pub const SLICES: usize = 10;

/// Fewest samples a slice may hold, whatever the percentile.
pub const MIN_SLICE_SAMPLES: usize = 10;

/// Fewest samples a slice must hold for its `q`-percentile to be more
/// than the slice's maximum: [`MIN_SLICE_SAMPLES`], or `1 / (1 - q)` when
/// that is larger (100 for a p99).
pub fn slice_samples(q: f64) -> usize {
    let for_tail = (1.0 / (1.0 - q.min(0.999))).round() as usize;
    for_tail.max(MIN_SLICE_SAMPLES)
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    values
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`), the
/// same pick `flstore_loadgen::LatencyStats` uses. Empty input gives 0.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Percentile of unordered samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted(values.to_vec()), q)
}

/// Median of unordered samples (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The per-slice `q`-percentiles of equal, contiguous slices (in arrival
/// order): [`SLICES`] of them, or as many as leave every slice
/// [`slice_samples`] samples — down to one "slice" holding the whole run.
pub fn per_slice(in_order: &[f64], q: f64) -> Vec<f64> {
    let slices = (in_order.len() / slice_samples(q)).clamp(1, SLICES);
    (0..slices)
        .map(|s| {
            let lo = s * in_order.len() / slices;
            let hi = (s + 1) * in_order.len() / slices;
            percentile(&in_order[lo..hi], q)
        })
        .collect()
}

/// The lowest per-slice `q`-percentile: the latency of the quietest
/// slice of the run.
pub fn best_slice(in_order: &[f64], q: f64) -> f64 {
    per_slice(in_order, q)
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

/// Relative gap `|a - b| / min(|a|, |b|)`; 0 when both are 0.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        if a == b {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / base
    }
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it improved), for a metric whose better direction is
/// `higher_is_better`.
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (first - second) / first.abs()
    } else {
        (second - first) / first.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0); // round(99 * 0.5) = 50 -> 51
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn best_slice_ignores_the_disturbed_slices() {
        // 10 slices; only the fourth was quiet.
        let per = slice_samples(0.99);
        let mut v = vec![10_000.0; SLICES * per];
        for x in v.iter_mut().skip(3 * per).take(per) {
            *x = 10.0;
        }
        assert_eq!(best_slice(&v, 0.99), 10.0);
        // The whole-run p99 reports the interference.
        assert_eq!(percentile(&v, 0.99), 10_000.0);
    }

    #[test]
    fn slice_count_shrinks_with_the_sample_and_the_tail() {
        let v: Vec<f64> = (1..=384).map(f64::from).collect();
        assert_eq!(per_slice(&v, 0.5).len(), SLICES);
        assert_eq!(per_slice(&v, 0.9).len(), SLICES);
        // A p99 needs 100 samples per slice to be more than a maximum.
        assert_eq!(per_slice(&v, 0.99).len(), 3);
        assert_eq!(per_slice(&v[..50], 0.5).len(), 5);
        assert_eq!(per_slice(&v[..9], 0.5).len(), 1);
        assert_eq!(best_slice(&v[..9], 0.5), percentile(&v[..9], 0.5));
        assert_eq!(best_slice(&[], 0.5), 0.0);
    }

    #[test]
    fn slices_follow_arrival_order_not_value_order() {
        // A steady drift: slice k holds k*M .. (k+1)*M, so the per-slice
        // medians rise and the best slice is the first.
        let n = SLICES * MIN_SLICE_SAMPLES;
        let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let slices = per_slice(&v, 0.5);
        assert_eq!(slices.len(), SLICES);
        assert!(slices.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(best_slice(&v, 0.5), slices[0]);
    }

    #[test]
    fn gap_and_worsening_have_signs() {
        assert_eq!(relative_gap(100.0, 110.0), 0.1);
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
        assert!(relative_gap(0.0, 1.0).is_infinite());
        assert!((worsening(100.0, 110.0, false) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
    }
}
