//! Cluster-based scheduling (P2).
//!
//! TiFL-style tiering: clients are grouped by observed round latency
//! (training + upload) and the next round is scheduled from one tier so
//! stragglers do not gate fast devices (Chai et al. 2020).

use flstore_fl::update::ModelUpdate;

use crate::outputs::SchedClusterOutput;

/// Number of latency tiers.
const TIERS: usize = 3;

/// Tiers one round's participants by latency and selects the fastest tier
/// for the next round.
///
/// Returns `None` when `updates` is empty.
pub fn run(updates: &[&ModelUpdate]) -> Option<SchedClusterOutput> {
    if updates.is_empty() {
        return None;
    }
    let mut latencies: Vec<(usize, f64)> = updates
        .iter()
        .enumerate()
        .map(|(i, u)| (i, u.metrics.train_time_s + u.metrics.upload_time_s))
        .collect();
    latencies.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("latencies are finite"));

    let n = latencies.len();
    let per_tier = n.div_ceil(TIERS);
    let mut tier_of = vec![0usize; n];
    for (rank, (idx, _)) in latencies.iter().enumerate() {
        tier_of[*idx] = (rank / per_tier).min(TIERS - 1);
    }
    let tiers: Vec<_> = updates
        .iter()
        .enumerate()
        .map(|(i, u)| (u.client, tier_of[i]))
        .collect();
    let selected = tiers
        .iter()
        .filter(|(_, t)| *t == 0)
        .map(|(c, _)| *c)
        .collect();
    Some(SchedClusterOutput {
        tiers,
        selected_tier: 0,
        selected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::sample_rounds;

    #[test]
    fn fastest_clients_land_in_tier_zero() {
        let rounds = sample_rounds(5, 0.0);
        let last = rounds.last().expect("rounds");
        let updates: Vec<&ModelUpdate> = last.updates.iter().collect();
        let out = run(&updates).expect("non-empty");

        let latency = |c| {
            last.updates
                .iter()
                .find(|u| u.client == c)
                .map(|u| u.metrics.train_time_s + u.metrics.upload_time_s)
                .expect("participant")
        };
        let max_selected = out.selected.iter().map(|c| latency(*c)).fold(0.0, f64::max);
        let min_unselected = out
            .tiers
            .iter()
            .filter(|(_, t)| *t > 0)
            .map(|(c, _)| latency(*c))
            .fold(f64::INFINITY, f64::min);
        assert!(
            max_selected <= min_unselected,
            "tier 0 must be the fastest: {max_selected} vs {min_unselected}"
        );
        assert!(!out.selected.is_empty());
    }

    #[test]
    fn all_clients_are_tiered() {
        let rounds = sample_rounds(3, 0.0);
        let last = rounds.last().expect("rounds");
        let updates: Vec<&ModelUpdate> = last.updates.iter().collect();
        let out = run(&updates).expect("non-empty");
        assert_eq!(out.tiers.len(), updates.len());
        assert!(out.tiers.iter().all(|(_, t)| *t < TIERS));
    }

    #[test]
    fn empty_is_none() {
        assert!(run(&[]).is_none());
    }
}
