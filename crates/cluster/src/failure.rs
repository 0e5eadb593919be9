//! Deterministic failure injection: virtual-clock driven.
//!
//! A failure plan is data — a list of `(SimTime, node, kind)` triples —
//! not a background thread. The cluster drains due events
//! from its virtual-clock event queue at each submit, so the same plan
//! against the same request schedule produces bit-identical results on
//! every run and every thread count; there is no ambient entropy
//! anywhere in this crate (the determinism lint enforces it).

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

/// A deterministic failure schedule. The cluster's virtual-clock queue
/// fires its events by time, ties in insertion order.
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

    /// The events in insertion order.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_preserves_kill_rejoin_pairing() {
        let plan =
            FailurePlan::none().kill_and_rejoin(1, SimTime::from_secs(10), SimTime::from_secs(20));
        assert_eq!(plan.events()[0].kind, FailureKind::Kill);
        assert_eq!(plan.events()[1].kind, FailureKind::Rejoin);
    }
}
