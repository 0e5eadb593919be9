//! Request arrival processes.

use flstore_sim::rng::DetRng;
use flstore_sim::time::{SimDuration, SimTime};

/// `n` Poisson arrivals over `[start, start + window)` (exponential
/// inter-arrival times rescaled to land exactly `n` arrivals inside the
/// window), sorted ascending.
pub fn poisson_arrivals(seed: u64, start: SimTime, window: SimDuration, n: usize) -> Vec<SimTime> {
    if n == 0 {
        return Vec::new();
    }
    let mut rng = DetRng::stream(seed, "arrivals");
    // Draw n+1 exponential gaps, normalize so the n-th arrival falls inside
    // the window (a conditioned Poisson process — standard for generating a
    // fixed-count trace).
    let gaps: Vec<f64> = (0..=n).map(|_| rng.exponential(1.0)).collect();
    let total: f64 = gaps.iter().sum();
    let scale = window.as_secs_f64() / total;
    let mut t = 0.0;
    let mut arrivals = Vec::with_capacity(n);
    for gap in gaps.iter().take(n) {
        t += gap * scale;
        arrivals.push(start + SimDuration::from_secs_f64(t));
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_sorted_and_in_window() {
        let window = SimDuration::from_hours(50);
        let arrivals = poisson_arrivals(3, SimTime::ZERO, window, 3000);
        assert_eq!(arrivals.len(), 3000);
        for pair in arrivals.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        assert!(*arrivals.last().expect("non-empty") < SimTime::ZERO + window);
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let w = SimDuration::from_hours(1);
        let a = poisson_arrivals(9, SimTime::ZERO, w, 50);
        let b = poisson_arrivals(9, SimTime::ZERO, w, 50);
        let c = poisson_arrivals(10, SimTime::ZERO, w, 50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_traces() {
        assert!(poisson_arrivals(1, SimTime::ZERO, SimDuration::from_secs(1), 0).is_empty());
    }
}
