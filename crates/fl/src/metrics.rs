//! Round-level operational metadata (the P4 data class).
//!
//! Scheduling, payout monitoring, and hyperparameter-tracking workloads
//! consume *pool-wide* per-round operational records rather than model
//! weights: who was available, how fast their devices are, what they have
//! been paid. One [`RoundMetrics`] record per round captures that state.

use serde::{Deserialize, Serialize};

use crate::ids::{ClientId, Round};

/// Per-client operational state within one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientRoundInfo {
    /// Which client.
    pub client: ClientId,
    /// Whether the device was reachable this round.
    pub available: bool,
    /// Whether it was selected to train.
    pub participated: bool,
    /// Whether it completed the round (false = dropout).
    pub completed: bool,
    /// Device compute speed (relative units).
    pub compute_speed: f64,
    /// Device uplink in Mbit/s.
    pub uplink_mbps: f64,
    /// Historical completion reliability in `[0, 1]`.
    pub reliability: f64,
    /// Cumulative incentive payout balance in arbitrary credit units.
    pub payout_balance: f64,
    /// Rounds participated in so far.
    pub participation_count: u32,
    /// Most recent reported local loss (NaN-free; starts at the global
    /// initial loss).
    pub last_loss: f64,
}

/// Pool-wide operational record for one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundMetrics {
    /// The round described.
    pub round: Round,
    /// Estimated global loss after aggregation.
    pub global_loss: f64,
    /// Estimated global accuracy after aggregation.
    pub global_accuracy: f64,
    /// Seconds the training portion of the round took (slowest completing
    /// participant: local training + upload).
    pub training_round_secs: f64,
    /// One entry per client in the pool.
    pub clients: Vec<ClientRoundInfo>,
}

impl RoundMetrics {
    /// Info for one client, if present.
    pub fn client(&self, id: ClientId) -> Option<&ClientRoundInfo> {
        self.clients.iter().find(|c| c.client == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(id: u32, participated: bool, completed: bool) -> ClientRoundInfo {
        ClientRoundInfo {
            client: ClientId::new(id),
            available: true,
            participated,
            completed,
            compute_speed: 1.0,
            uplink_mbps: 20.0,
            reliability: 0.9,
            payout_balance: 0.0,
            participation_count: 0,
            last_loss: 2.3,
        }
    }

    #[test]
    fn client_looks_up_by_id() {
        let m = RoundMetrics {
            round: Round::new(1),
            global_loss: 1.0,
            global_accuracy: 0.6,
            training_round_secs: 120.0,
            clients: vec![
                info(0, true, true),
                info(1, true, false),
                info(2, false, false),
            ],
        };
        assert!(m.client(ClientId::new(2)).is_some());
        assert!(m.client(ClientId::new(9)).is_none());
    }
}
