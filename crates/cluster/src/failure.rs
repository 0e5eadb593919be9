//! Deterministic failure injection: seeded, virtual-clock driven.
//!
//! A failure plan is data — a sorted list of `(SimTime, node, kind)`
//! triples — not a background thread. The cluster drains due events
//! from its virtual-clock event queue at each submit, so the same plan
//! against the same request schedule produces bit-identical results on
//! every run and every thread count. Randomized churn comes from
//! [`FailurePlan::seeded_churn`], which derives everything from an
//! explicit [`DetRng`] seed; there is no ambient entropy anywhere in
//! this crate (the determinism lint enforces it).

use flstore_sim::rng::DetRng;
use flstore_sim::time::{SimDuration, SimTime};

/// What happens to a node. [`FAILURE_EVENTS`] is the machine-checked
/// inventory that `docs/CLUSTER.md` §4 documents row-for-row (see the
/// workspace's `tests/doc_tables.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The node's process dies: in-memory state is dropped (ledgers
    /// flush on drop, like a kernel flushing page cache on process
    /// exit), and the node stops answering until a [`Rejoin`].
    ///
    /// [`Rejoin`]: FailureKind::Rejoin
    Kill,
    /// A killed node comes back: it recovers each tenant from its own
    /// per-node ledger directory (when the cluster is durable), catches
    /// up on the entries it missed, and resumes serving.
    Rejoin,
    /// The node degrades for `lasting`: it still applies writes (its
    /// replicas stay current) but is demoted from primary duty while
    /// slow, modelling a straggler rather than a death.
    Slow {
        /// How long the degradation lasts.
        lasting: SimDuration,
    },
    /// The node is unreachable for `lasting`: it applies nothing and
    /// answers nothing, then heals and catches up. Distinct from
    /// [`Kill`] in that its memory survives.
    ///
    /// [`Kill`]: FailureKind::Kill
    Partition {
        /// How long the node stays unreachable.
        lasting: SimDuration,
    },
}

/// `(name, semantics)` for each failure kind, in declaration order —
/// the inventory `docs/CLUSTER.md`'s failure-event table must match.
pub const FAILURE_EVENTS: &[(&str, &str)] = &[
    (
        "Kill",
        "process death: memory dropped, ledger flushed, silent until Rejoin",
    ),
    (
        "Rejoin",
        "killed node returns: recovers from its own ledger, catches up, serves",
    ),
    (
        "Slow",
        "straggler for a duration: applies writes but demoted from primary duty",
    ),
    (
        "Partition",
        "unreachable for a duration: applies nothing, heals and catches up",
    ),
];

/// One scheduled failure: at `at`, `node` suffers `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureEvent {
    /// When the failure fires, on the virtual clock.
    pub at: SimTime,
    /// Which node (index into the cluster's node list).
    pub node: usize,
    /// What happens.
    pub kind: FailureKind,
}

/// A deterministic failure schedule: events sorted by time (ties in
/// insertion order, preserved by the stable sort).
#[derive(Debug, Clone, Default)]
pub struct FailurePlan {
    events: Vec<FailureEvent>,
}

impl FailurePlan {
    /// An empty plan: the churn-free twin.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds one event; builder-style.
    pub fn with(mut self, at: SimTime, node: usize, kind: FailureKind) -> Self {
        self.events.push(FailureEvent { at, node, kind });
        self
    }

    /// Kill `node` at `at` and rejoin it at `back`.
    pub fn kill_and_rejoin(self, node: usize, at: SimTime, back: SimTime) -> Self {
        assert!(back > at, "a node rejoins after it dies");
        self.with(at, node, FailureKind::Kill)
            .with(back, node, FailureKind::Rejoin)
    }

    /// Random churn over `horizon`: `kills` kill/rejoin pairs spread
    /// across distinct nodes and times, all derived from `seed` via a
    /// labelled [`DetRng`] stream. Nodes stay down between one eighth
    /// and one quarter of the horizon, so the plan always exercises
    /// both the failover window and the rejoin catch-up.
    pub fn seeded_churn(seed: u64, nodes: usize, kills: usize, horizon: SimDuration) -> Self {
        assert!(nodes > 1, "churn needs a survivor to fail over to");
        let mut rng = DetRng::stream(seed, "cluster-churn");
        let mut plan = Self::none();
        for _ in 0..kills {
            let node = rng.index(nodes);
            let half = (horizon.as_micros() / 2).max(1) as usize;
            let eighth = (horizon.as_micros() / 8).max(1) as usize;
            let at = SimTime::ZERO + SimDuration::from_micros(rng.index(half) as u64);
            let down = SimDuration::from_micros(eighth as u64 + rng.index(eighth) as u64);
            plan = plan.kill_and_rejoin(node, at, at + down);
        }
        plan.into_sorted()
    }

    /// The events in firing order.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    fn into_sorted(mut self) -> Self {
        self.events.sort_by_key(|e| e.at);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_churn_is_reproducible_and_sorted() {
        let a = FailurePlan::seeded_churn(7, 3, 4, SimDuration::from_secs(3600));
        let b = FailurePlan::seeded_churn(7, 3, 4, SimDuration::from_secs(3600));
        assert_eq!(a.events(), b.events());
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(a.events().len(), 8); // 4 kills + 4 rejoins

        let c = FailurePlan::seeded_churn(8, 3, 4, SimDuration::from_secs(3600));
        assert_ne!(a.events(), c.events(), "seed must matter");
    }

    #[test]
    fn builder_preserves_kill_rejoin_pairing() {
        let plan =
            FailurePlan::none().kill_and_rejoin(1, SimTime::from_secs(10), SimTime::from_secs(20));
        assert_eq!(plan.events()[0].kind, FailureKind::Kill);
        assert_eq!(plan.events()[1].kind, FailureKind::Rejoin);
    }
}
