//! The slot router: `JobId → slot → replica set`.
//!
//! Placement is two deterministic pure functions and nothing else — no
//! rebalancing state, no gossip, no hash rings to persist. A job hashes
//! to one of `slots` placement slots with the same splitmix64 finalizer
//! the execution plane uses for key-shard routing (so a job's cluster
//! route and its executor shard are decorrelated but derived from the
//! same well-studied mixer), and a slot maps to `rf` consecutive nodes
//! starting at `slot % nodes`. Every node, client, and test can compute
//! the same route from `(job, slots, nodes, rf)` alone; docs/CLUSTER.md
//! §2 is the normative spec.

use flstore_fl::ids::JobId;
use flstore_sim::rng::splitmix64;

/// The default number of placement slots. Comfortably above any node
/// count this simulation runs (so slots spread evenly) while keeping
/// slot tables human-readable in doc examples.
pub const DEFAULT_SLOTS: usize = 16;

/// Routes a job to its placement slot: splitmix64 finalizer over the
/// raw job id, reduced modulo `slots`.
///
/// The mixer is the one `flstore-exec` routes jobs to shards with
/// ([`splitmix64`]), applied to the same input — a deliberate choice
/// documented in docs/CLUSTER.md §2: routes must be derivable by every layer
/// (cluster, net front door, loadgen assertions) without consulting the
/// store, and splitmix64's avalanche keeps consecutive job ids off the
/// same slot.
///
/// # Panics
///
/// Panics if `slots` is zero.
pub fn slot_of_job(job: JobId, slots: usize) -> usize {
    assert!(slots > 0, "a cluster has at least one placement slot");
    (splitmix64(u64::from(job.as_u32())) % slots as u64) as usize
}

/// The replica set of a slot: `min(rf, nodes)` distinct nodes, walking
/// the ring `slot % nodes, slot+1 % nodes, …`. The first member is the
/// slot's **home primary**; survivors keep their relative order during
/// failover, so promotion is always "next live member".
///
/// # Panics
///
/// Panics if `nodes` or `rf` is zero.
pub fn replica_set(slot: usize, nodes: usize, rf: usize) -> Vec<usize> {
    assert!(nodes > 0, "a cluster has at least one node");
    assert!(rf > 0, "replication factor is at least one");
    (0..rf.min(nodes)).map(|i| (slot + i) % nodes).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_routing_is_stable_and_in_range() {
        for raw in 0..1000u32 {
            let job = JobId::new(raw);
            let slot = slot_of_job(job, DEFAULT_SLOTS);
            assert!(slot < DEFAULT_SLOTS);
            assert_eq!(slot, slot_of_job(job, DEFAULT_SLOTS), "stable for {job}");
        }
    }

    #[test]
    fn slot_routing_mirrors_the_exec_key_shard_mixer() {
        // Golden values pinned so a change to the shared splitmix64 (and
        // with it every persisted route) cannot land silently.
        let golden: Vec<usize> = (1..=8)
            .map(|raw| slot_of_job(JobId::new(raw), 16))
            .collect();
        assert_eq!(golden, vec![1, 14, 13, 10, 10, 0, 7, 6]);
    }

    #[test]
    fn slots_spread_jobs_across_nodes() {
        // With many jobs, every node of a 4-node cluster fronts some.
        let mut fronted = [false; 4];
        for raw in 1..=64u32 {
            let slot = slot_of_job(JobId::new(raw), DEFAULT_SLOTS);
            fronted[replica_set(slot, 4, 2)[0]] = true;
        }
        assert_eq!(fronted, [true; 4]);
    }

    #[test]
    fn replica_sets_are_distinct_ring_walks() {
        assert_eq!(replica_set(5, 4, 2), vec![1, 2]);
        assert_eq!(replica_set(3, 4, 3), vec![3, 0, 1]);
        // rf is clamped to the node count: no duplicate members.
        assert_eq!(replica_set(2, 2, 5), vec![0, 1]);
        assert_eq!(replica_set(9, 1, 1), vec![0]);
    }
}
