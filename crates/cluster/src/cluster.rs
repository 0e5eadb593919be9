//! [`ClusterStore`]: N store nodes, slot-routed replica sets, automatic
//! failover, and ledger-based node recovery.
//!
//! # Replication model
//!
//! The cluster is a **state-machine replicator**: every state-touching
//! envelope (ingest, serve, evict — serving mutates cache state, so it
//! replicates too) is applied to *every reachable replica* of its job's
//! route, in route order; the acting primary's response is returned and
//! the twins' responses are discarded. Because every replica registered
//! the job identically (same template, same per-job seed derivation) and
//! applies the same envelope sequence, replicas are **bit-identical
//! twins** — failover changes which twin answers, never what the answer
//! is. `Stats` is read-only: answered by the primary, never recorded.
//!
//! # Failover state machine
//!
//! Failures are injected as virtual-clock events and drained at each
//! submit, so churn is bit-reproducible (docs/CLUSTER.md §4). A node is
//! `Live`, `Slow` (applies writes, demoted from primary duty),
//! `Partitioned` (unreachable, memory survives), or `Dead` (killed,
//! memory dropped — its ledgers flushed on the way down). An
//! *undetected* unreachable acting primary redirects clients with typed
//! [`ApiError::Relocated`] envelopes until the detection interval
//! elapses; detection promotes the next live member and, for kills,
//! re-replicates through the shared [`repair_after_loss`]
//! path to restore the target factor. A killed node rejoins by
//! recovering each tenant from its own per-node ledger directory and
//! replaying the history suffix it missed.

use flstore_core::api::{ApiError, Request, Response, Service, StatsReport};
use flstore_core::durable::StateDigest;
use flstore_core::placement::{repair_after_loss, PlacementMap};
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_core::tenancy::MultiTenantStore;
use flstore_durability::recover::{attach, recover};
use flstore_durability::DurabilityError;
use flstore_fl::ids::JobId;
use flstore_fl::zoo::ModelArch;
use flstore_sim::bytes::ByteSize;
use flstore_sim::cost::{Cost, CostBreakdown};
use flstore_sim::des::EventQueue;
use flstore_sim::time::{SimDuration, SimTime};

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::failure::{FailureEvent, FailureKind, FailurePlan};
use crate::slots::{replica_set, slot_of_job, DEFAULT_SLOTS};

/// Configuration of a [`ClusterStore`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of store nodes.
    pub nodes: usize,
    /// Target replication factor per placement slot (clamped to the
    /// node count).
    pub replication: usize,
    /// Number of placement slots jobs hash into.
    pub slots: usize,
    /// How long an unreachable node serves redirects before failover
    /// promotes a survivor (the failure-detector timeout).
    pub detection_interval: SimDuration,
    /// The `retry_after_hint` carried by [`ApiError::Relocated`]
    /// redirects. Fixed by configuration so redirect envelopes are
    /// byte-deterministic under churn.
    pub redirect_hint: SimDuration,
    /// The per-tenant store configuration every node instantiates.
    /// Identical templates are what make replicas bit-identical twins.
    pub store_template: FlStoreConfig,
    /// When set, each node persists its tenants' ledgers under
    /// `<root>/node-<i>/job-<id>` and a killed node recovers from its
    /// own directory at rejoin. `None` runs memory-only (a rejoining
    /// node rebuilds from history replay alone).
    pub durable_root: Option<PathBuf>,
}

impl ClusterConfig {
    /// A memory-only cluster with the simulation defaults: 16 slots,
    /// 500 ms failure detection, 1 ms redirect hint.
    pub fn sim_default(nodes: usize, replication: usize, store_template: FlStoreConfig) -> Self {
        ClusterConfig {
            nodes,
            replication,
            slots: DEFAULT_SLOTS,
            detection_interval: SimDuration::from_millis(500),
            redirect_hint: SimDuration::from_millis(1),
            store_template,
            durable_root: None,
        }
    }
}

/// A node's availability state, advanced only by drained failure events
/// (never by wall-clock observation), so routing decisions are
/// bit-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Serving and applying.
    Live,
    /// A straggler until `until`: still applies every write (its
    /// replicas stay current) but is demoted from primary duty.
    Slow {
        /// When the degradation ends.
        until: SimTime,
    },
    /// Unreachable until `until`; memory survives and catches up at
    /// heal. `detected` flips when the detection interval elapses and a
    /// survivor is promoted.
    Partitioned {
        /// When the partition heals.
        until: SimTime,
        /// Whether failover has promoted a survivor yet.
        detected: bool,
    },
    /// Killed at `since`: in-memory state dropped (ledgers flushed on
    /// the way down), silent until an explicit rejoin.
    Dead {
        /// When the node died.
        since: SimTime,
        /// Whether failover has promoted a survivor and re-replicated.
        detected: bool,
    },
}

/// Counters a cluster accumulates across its lifetime — everything the
/// figures experiment and the smoke gates report. All counts are event
/// counts on the virtual clock, never wall-clock measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterStats {
    /// Nodes killed.
    pub kills: u64,
    /// Nodes rejoined.
    pub rejoins: u64,
    /// Failovers completed (kill or partition detections that promoted
    /// a survivor).
    pub failovers: u64,
    /// Envelopes answered with [`ApiError::Relocated`] redirects.
    pub redirects: u64,
    /// Job replicas repaired (copied onto a spare) after node loss.
    pub repaired_jobs: u64,
    /// Bytes moved by repair copies.
    pub repl_bytes: ByteSize,
    /// Envelopes replayed into healing or rejoining nodes.
    pub catchup_entries: u64,
    /// Rejoins whose ledger-recovered state digest did not match the
    /// digest snapshot taken at kill time (should stay zero).
    pub rejoin_digest_mismatches: u64,
    /// Per-failover promotion delay (the configured detection interval,
    /// recorded per event so availability math can integrate it).
    pub failover_delays: Vec<SimDuration>,
}

/// One replayable history entry, preserving the batch grouping the
/// original submission used so catch-up replay is bit-identical.
#[derive(Debug, Clone)]
enum HistEntry {
    One(Request),
    Run(Vec<Request>),
}

impl HistEntry {
    fn envelopes(&self) -> u64 {
        match self {
            HistEntry::One(_) => 1,
            HistEntry::Run(run) => run.len() as u64,
        }
    }
}

/// Internal failure-plane operations on the virtual-clock queue.
#[derive(Debug, Clone, Copy)]
enum Op {
    Kill(usize),
    Rejoin(usize),
    SlowStart { node: usize, until: SimTime },
    SlowEnd { node: usize, until: SimTime },
    PartitionStart { node: usize, until: SimTime },
    DetectKill { node: usize, since: SimTime },
    DetectPartition { node: usize, until: SimTime },
    Heal { node: usize, until: SimTime },
}

struct Node {
    /// The node's tenant stores; `None` while dead. Dropping this
    /// flushes every tenant's ledger sink — a kill persists exactly the
    /// applied prefix.
    tenants: Option<MultiTenantStore>,
    /// This node's own durable directory (`<root>/node-<i>`).
    dir: Option<PathBuf>,
    health: NodeHealth,
    /// Per hosted job: how many history entries this node has applied.
    applied: BTreeMap<JobId, usize>,
    /// State digests snapshotted at kill time, compared against the
    /// ledger-recovered state at rejoin.
    kill_digests: BTreeMap<JobId, StateDigest>,
}

impl Node {
    /// Whether writes replicate to this node right now. `Slow` nodes
    /// still apply (their replicas stay current); `Partitioned` and
    /// `Dead` nodes do not.
    fn reachable(&self) -> bool {
        matches!(self.health, NodeHealth::Live | NodeHealth::Slow { .. })
    }
}

/// A cluster of N simulated store nodes behind one [`Service`] front:
/// slot-routed replica sets, state-machine replication, deterministic
/// failure injection, automatic failover, ledger-based rejoin.
pub struct ClusterStore {
    cfg: ClusterConfig,
    nodes: Vec<Node>,
    /// Job → current replica members, best-ranked first. The first
    /// reachable member is the acting primary.
    routes: BTreeMap<JobId, Vec<usize>>,
    /// Job → model, kept for re-registration at repair and rejoin.
    models: BTreeMap<JobId, ModelArch>,
    /// Job → every state-touching entry ever applied, with its stamp —
    /// the replay source for catch-up and re-replication.
    history: BTreeMap<JobId, Vec<(SimTime, HistEntry)>>,
    ops: EventQueue<Op>,
    stats: ClusterStats,
}

impl ClusterStore {
    /// Builds a cluster of `cfg.nodes` live, empty nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes`, `replication`, or `slots` is zero.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes > 0, "a cluster has at least one node");
        assert!(cfg.replication > 0, "replication factor is at least one");
        assert!(cfg.slots > 0, "a cluster has at least one placement slot");
        let nodes = (0..cfg.nodes)
            .map(|i| Node {
                tenants: Some(MultiTenantStore::new(cfg.store_template.clone())),
                dir: cfg
                    .durable_root
                    .as_ref()
                    .map(|root| root.join(format!("node-{i}"))),
                health: NodeHealth::Live,
                applied: BTreeMap::new(),
                kill_digests: BTreeMap::new(),
            })
            .collect();
        ClusterStore {
            cfg,
            nodes,
            routes: BTreeMap::new(),
            models: BTreeMap::new(),
            history: BTreeMap::new(),
            ops: EventQueue::new(),
            stats: ClusterStats::default(),
        }
    }

    /// Registers `job` on its slot's replica set. Every member
    /// instantiates an identical tenant (same template, same per-job
    /// seed derivation), which is what makes the replicas bit-identical
    /// twins. Returns `Ok(false)` if the job was already registered.
    ///
    /// # Panics
    ///
    /// Panics if any member of the job's replica set is currently
    /// unreachable — register jobs on a healthy cluster.
    pub fn register_job(&mut self, job: JobId, model: ModelArch) -> Result<bool, DurabilityError> {
        if self.routes.contains_key(&job) {
            return Ok(false);
        }
        let slot = slot_of_job(job, self.cfg.slots);
        let members = replica_set(slot, self.cfg.nodes, self.cfg.replication);
        for &member in &members {
            assert!(
                self.nodes[member].reachable(),
                "register jobs on a healthy cluster (node {member} is unavailable)"
            );
            self.host_job(member, job, model)?;
        }
        self.models.insert(job, model);
        self.history.insert(job, Vec::new());
        self.routes.insert(job, members);
        Ok(true)
    }

    /// Registers `job` on node `n`'s tenant front and, when the cluster
    /// is durable, attaches the tenant to the node's own ledger
    /// directory. The node starts with zero history applied.
    fn host_job(&mut self, n: usize, job: JobId, model: ModelArch) -> Result<(), DurabilityError> {
        let node = &mut self.nodes[n];
        let tenants = node.tenants.as_mut().expect("hosting on a live node");
        assert!(tenants.register_job(job, model), "job not yet hosted here");
        if let Some(dir) = node.dir.clone() {
            let store = tenants.tenant_mut(job).expect("just registered");
            attach(store, &dir.join(format!("job-{}", job.as_u32())))?;
        }
        node.applied.insert(job, 0);
        Ok(())
    }

    /// Schedules one failure event on the virtual clock.
    ///
    /// # Panics
    ///
    /// Panics if the event names a node the cluster does not have.
    pub fn inject(&mut self, event: FailureEvent) {
        assert!(
            event.node < self.cfg.nodes,
            "node {} out of range (cluster has {})",
            event.node,
            self.cfg.nodes
        );
        let op = match event.kind {
            FailureKind::Kill => Op::Kill(event.node),
            FailureKind::Rejoin => Op::Rejoin(event.node),
            FailureKind::Slow { lasting } => Op::SlowStart {
                node: event.node,
                until: event.at + lasting,
            },
            FailureKind::Partition { lasting } => Op::PartitionStart {
                node: event.node,
                until: event.at + lasting,
            },
        };
        self.ops.schedule(event.at, op);
    }

    /// Schedules every event of a failure plan.
    pub fn inject_plan(&mut self, plan: &FailurePlan) {
        for event in plan.events() {
            self.inject(*event);
        }
    }

    /// Lifetime failure-plane counters.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The registered jobs, in id order.
    pub fn jobs(&self) -> Vec<JobId> {
        self.routes.keys().copied().collect()
    }

    /// The job's current replica members, best-ranked first (empty for
    /// unregistered jobs, or for an rf=1 job whose only holder is dead).
    pub fn route(&self, job: JobId) -> &[usize] {
        self.routes.get(&job).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A node's availability state.
    pub fn node_health(&self, node: usize) -> NodeHealth {
        self.nodes[node].health
    }

    /// The tenant store node `n` hosts for `job`, if the node is up and
    /// hosting it.
    pub fn node_store(&self, n: usize, job: JobId) -> Option<&FlStore> {
        self.nodes[n].tenants.as_ref()?.tenant(job)
    }

    /// The acting primary's tenant store for `job` — the replica whose
    /// responses clients currently see.
    pub fn primary_store(&self, job: JobId) -> Option<&FlStore> {
        self.node_store(self.primary_of(job)?, job)
    }

    /// Total cost across every live node's tenants over the window
    /// ending at `now` (same semantics as [`Service::window_cost`]).
    pub fn total_cost(&mut self, now: SimTime) -> CostBreakdown {
        self.nodes
            .iter_mut()
            .filter_map(|node| node.tenants.as_mut())
            .map(|tenants| tenants.total_cost(now))
            .sum()
    }

    /// The acting primary of `job`: the first reachable route member.
    /// `None` while the next-in-line member is unreachable but not yet
    /// detected (the redirect window), or when no member survives.
    fn primary_of(&self, job: JobId) -> Option<usize> {
        let route = self.routes.get(&job)?;
        let mut fallback = None;
        for &member in route {
            match self.nodes[member].health {
                NodeHealth::Live => return Some(member),
                NodeHealth::Slow { .. } => fallback = fallback.or(Some(member)),
                // Undetected loss of the next-in-line member: clients
                // get typed redirects until the detector fires.
                NodeHealth::Dead {
                    detected: false, ..
                }
                | NodeHealth::Partitioned {
                    detected: false, ..
                } => return None,
                NodeHealth::Dead { .. } | NodeHealth::Partitioned { .. } => {}
            }
        }
        fallback
    }

    fn redirect(&mut self, job: JobId) -> Response {
        self.stats.redirects += 1;
        Response::Rejected(ApiError::Relocated {
            job,
            retry_after_hint: self.cfg.redirect_hint,
        })
    }

    /// Fires every failure event due at or before `now`, in time order
    /// (FIFO on ties). Chained events (detection after a kill) fire in
    /// the same drain when due.
    fn drain_failures(&mut self, now: SimTime) {
        while let Some((at, op)) = self.ops.pop_before(now) {
            self.apply_op(at, op);
        }
    }

    fn apply_op(&mut self, at: SimTime, op: Op) {
        match op {
            Op::Kill(n) => {
                if matches!(self.nodes[n].health, NodeHealth::Dead { .. }) {
                    return;
                }
                let node = &mut self.nodes[n];
                if let Some(tenants) = node.tenants.as_ref() {
                    node.kill_digests = node
                        .applied
                        .keys()
                        .filter_map(|&job| {
                            tenants.tenant(job).map(|s| (job, s.durability_digest()))
                        })
                        .collect();
                }
                // Dropping the stores flushes every ledger sink: the
                // node's disk holds exactly its applied prefix.
                node.tenants = None;
                node.health = NodeHealth::Dead {
                    since: at,
                    detected: false,
                };
                self.stats.kills += 1;
                self.ops.schedule(
                    at + self.cfg.detection_interval,
                    Op::DetectKill { node: n, since: at },
                );
            }
            Op::DetectKill { node: n, since } => {
                let expected = NodeHealth::Dead {
                    since,
                    detected: false,
                };
                if self.nodes[n].health != expected {
                    return; // already rejoined (or a different death)
                }
                self.nodes[n].health = NodeHealth::Dead {
                    since,
                    detected: true,
                };
                self.stats.failovers += 1;
                self.stats.failover_delays.push(self.cfg.detection_interval);
                // One repair discipline for both layers: the same
                // `repair_after_loss` the single store runs when the
                // platform reclaims a function instance.
                let report = repair_after_loss(self, at, n);
                self.stats.repaired_jobs += report.repaired as u64;
                self.stats.repl_bytes += report.bytes_copied;
            }
            Op::Rejoin(n) => self.rejoin(at, n),
            Op::SlowStart { node: n, until } => {
                if self.nodes[n].health == NodeHealth::Live {
                    self.nodes[n].health = NodeHealth::Slow { until };
                    self.ops.schedule(until, Op::SlowEnd { node: n, until });
                }
            }
            Op::SlowEnd { node: n, until } => {
                if self.nodes[n].health == (NodeHealth::Slow { until }) {
                    self.nodes[n].health = NodeHealth::Live;
                }
            }
            Op::PartitionStart { node: n, until } => {
                if self.nodes[n].health == NodeHealth::Live {
                    self.nodes[n].health = NodeHealth::Partitioned {
                        until,
                        detected: false,
                    };
                    self.ops.schedule(
                        at + self.cfg.detection_interval,
                        Op::DetectPartition { node: n, until },
                    );
                    self.ops.schedule(until, Op::Heal { node: n, until });
                }
            }
            Op::DetectPartition { node: n, until } => {
                let expected = NodeHealth::Partitioned {
                    until,
                    detected: false,
                };
                if self.nodes[n].health != expected {
                    return; // healed before the detector fired
                }
                self.nodes[n].health = NodeHealth::Partitioned {
                    until,
                    detected: true,
                };
                self.stats.failovers += 1;
                self.stats.failover_delays.push(self.cfg.detection_interval);
                // Partitions are transient: survivors are promoted but
                // membership is unchanged and no repair copies run —
                // the node's memory survives and catches up at heal.
            }
            Op::Heal { node: n, until } => {
                let healing = matches!(
                    self.nodes[n].health,
                    NodeHealth::Partitioned { until: u, .. } if u == until
                );
                if healing {
                    for job in self.hosted_jobs(n) {
                        self.catch_up_job(n, job);
                    }
                    self.nodes[n].health = NodeHealth::Live;
                }
            }
        }
    }

    fn hosted_jobs(&self, n: usize) -> Vec<JobId> {
        self.nodes[n].applied.keys().copied().collect()
    }

    /// Replays the history suffix node `n` has not yet applied for
    /// `job`, with the original stamps and the original batch grouping,
    /// so the caught-up replica is bit-identical to the ones that never
    /// left.
    fn catch_up_job(&mut self, n: usize, job: JobId) {
        let done = self.nodes[n].applied.get(&job).copied().unwrap_or(0);
        let entries: Vec<(SimTime, HistEntry)> = self
            .history
            .get(&job)
            .map(|h| h[done..].to_vec())
            .unwrap_or_default();
        let total = done + entries.len();
        let tenants = self.nodes[n]
            .tenants
            .as_mut()
            .expect("catch-up on a live node");
        let store = tenants.tenant_mut(job).expect("hosted job is registered");
        let mut replayed = 0u64;
        for (stamp, entry) in &entries {
            replayed += entry.envelopes();
            match entry {
                HistEntry::One(request) => {
                    let _ = store.submit(*stamp, request.clone());
                }
                HistEntry::Run(run) => {
                    let _ = store.submit_batch(*stamp, run);
                }
            }
        }
        self.nodes[n].applied.insert(job, total);
        self.stats.catchup_entries += replayed;
    }

    /// A killed node comes back. For each job it hosted at death (and
    /// whose route still has room under the target factor), the node
    /// recovers the tenant from its own ledger directory — verified
    /// bit-identical against the digest snapshotted at kill — or
    /// re-registers fresh when the cluster is memory-only, then replays
    /// the history suffix it missed and resumes membership.
    fn rejoin(&mut self, at: SimTime, n: usize) {
        let _ = at;
        if !matches!(self.nodes[n].health, NodeHealth::Dead { .. }) {
            return;
        }
        self.stats.rejoins += 1;
        let mut tenants = MultiTenantStore::new(self.cfg.store_template.clone());
        let mut rehosted: Vec<JobId> = Vec::new();
        for job in self.hosted_jobs(n) {
            let route = self.routes.get(&job).cloned().unwrap_or_default();
            let target = self.cfg.replication.min(self.cfg.nodes);
            if !route.contains(&n) && route.len() >= target {
                // Repair already restored this job's factor elsewhere;
                // the rejoined node does not shadow-host stale state.
                self.nodes[n].applied.remove(&job);
                self.nodes[n].kill_digests.remove(&job);
                continue;
            }
            let recovered = self.nodes[n]
                .dir
                .as_ref()
                .map(|dir| recover(&dir.join(format!("job-{}", job.as_u32()))));
            match recovered {
                Some(Ok(store)) => {
                    // The ledger flushed at kill, so recovery must land
                    // exactly on the kill-time digest.
                    let matches = self.nodes[n]
                        .kill_digests
                        .get(&job)
                        .is_none_or(|snap| *snap == store.durability_digest());
                    if !matches {
                        self.stats.rejoin_digest_mismatches += 1;
                    }
                    assert!(tenants.adopt(store).is_ok(), "fresh node cannot conflict");
                    // `applied` still holds the kill-time count — the
                    // ledger replayed exactly that prefix.
                }
                Some(Err(_)) => {
                    // Unreadable ledger: surface it in the counters and
                    // rebuild from history replay instead.
                    self.stats.rejoin_digest_mismatches += 1;
                    let model = self.models[&job];
                    assert!(
                        tenants.register_job(job, model),
                        "fresh node cannot conflict"
                    );
                    self.nodes[n].applied.insert(job, 0);
                }
                None => {
                    let model = self.models[&job];
                    assert!(
                        tenants.register_job(job, model),
                        "fresh node cannot conflict"
                    );
                    self.nodes[n].applied.insert(job, 0);
                }
            }
            rehosted.push(job);
        }
        self.nodes[n].tenants = Some(tenants);
        self.nodes[n].kill_digests.clear();
        self.nodes[n].health = NodeHealth::Live;
        // Re-attach durable sinks for history-rebuilt tenants, resume
        // membership, and replay what was missed.
        for job in rehosted {
            if self.nodes[n].applied[&job] == 0 {
                if let Some(dir) = self.nodes[n].dir.clone() {
                    let tenants = self.nodes[n].tenants.as_mut().expect("just installed");
                    let store = tenants.tenant_mut(job).expect("just registered");
                    let _ = attach(store, &dir.join(format!("job-{}", job.as_u32())));
                }
            }
            let route = self.routes.entry(job).or_default();
            if !route.contains(&n) {
                route.push(n);
            }
            self.catch_up_job(n, job);
        }
    }

    fn submit_inner(&mut self, now: SimTime, request: Request) -> Response {
        let Some(job) = request.job() else {
            return self.stats_response(now);
        };
        if !self.routes.contains_key(&job) {
            return Response::Rejected(ApiError::UnknownJob { job });
        }
        let Some(primary) = self.primary_of(job) else {
            return self.redirect(job);
        };
        self.history
            .entry(job)
            .or_default()
            .push((now, HistEntry::One(request.clone())));
        self.replicate_entry(now, job, primary, &HistEntry::One(request))
            .pop()
            .expect("primary is reachable")
    }

    /// Applies one history entry to every reachable route member (the
    /// state-machine replication step) and returns the acting primary's
    /// responses.
    fn replicate_entry(
        &mut self,
        now: SimTime,
        job: JobId,
        primary: usize,
        entry: &HistEntry,
    ) -> Vec<Response> {
        let entry_count = self.history.get(&job).map_or(0, |h| h.len());
        let members = self.routes.get(&job).cloned().unwrap_or_default();
        let mut responses = Vec::new();
        for member in members {
            if !self.nodes[member].reachable() {
                continue;
            }
            let tenants = self.nodes[member]
                .tenants
                .as_mut()
                .expect("reachable node has stores");
            let store = tenants.tenant_mut(job).expect("route member hosts the job");
            let r = match entry {
                HistEntry::One(request) => vec![store.submit(now, request.clone())],
                HistEntry::Run(run) => store.submit_batch(now, run),
            };
            self.nodes[member].applied.insert(job, entry_count);
            if member == primary {
                responses = r;
            }
        }
        responses
    }

    /// `Stats` is read-only and system-wide. With a single registered
    /// job it returns the primary replica's own report **verbatim** (so
    /// a 1-node rf=1 cluster stays byte-identical to a bare store);
    /// with several jobs it folds per-job primary reports under the
    /// cluster label, skipping jobs whose every replica is unreachable.
    /// There is no cross-job pressure plane at the cluster level — each
    /// node's tenants are quota-isolated individually.
    fn stats_response(&mut self, now: SimTime) -> Response {
        if self.routes.len() == 1 {
            let job = *self.routes.keys().next().expect("one route");
            let Some(primary) = self.primary_of(job) else {
                return self.redirect(job);
            };
            let tenants = self.nodes[primary]
                .tenants
                .as_mut()
                .expect("reachable node has stores");
            let store = tenants.tenant_mut(job).expect("route member hosts the job");
            return store.submit(now, Request::Stats);
        }
        let per_job = self
            .jobs()
            .into_iter()
            .filter_map(|job| self.primary_store(job).map(FlStore::stats_report));
        Response::Stats(StatsReport::fold(
            Service::label(self),
            self.routes.len(),
            per_job,
        ))
    }

    /// Submits a run of consecutive serves. `run_job` is the run's
    /// registered job (unregistered serves ride along and are rejected
    /// inline by the tenant store, exactly like a bare store batch);
    /// `None` means every serve in the run targets an unregistered job.
    fn submit_run(
        &mut self,
        now: SimTime,
        run_job: Option<JobId>,
        run: Vec<Request>,
    ) -> Vec<Response> {
        let Some(job) = run_job else {
            return run
                .iter()
                .map(|request| {
                    let job = request.job().expect("serves route by job");
                    Response::Rejected(ApiError::UnknownJob { job })
                })
                .collect();
        };
        let Some(primary) = self.primary_of(job) else {
            let mut responses = Vec::with_capacity(run.len());
            for request in &run {
                let j = request.job().expect("serves route by job");
                responses.push(if self.routes.contains_key(&j) {
                    self.redirect(j)
                } else {
                    Response::Rejected(ApiError::UnknownJob { job: j })
                });
            }
            return responses;
        };
        let entry = HistEntry::Run(run);
        self.history
            .entry(job)
            .or_default()
            .push((now, entry.clone()));
        self.replicate_entry(now, job, primary, &entry)
    }
}

impl Service for ClusterStore {
    fn label(&self) -> String {
        format!(
            "FLStore-Cluster(n={},rf={})",
            self.cfg.nodes, self.cfg.replication
        )
    }

    fn submit(&mut self, now: SimTime, request: Request) -> Response {
        self.drain_failures(now);
        self.submit_inner(now, request)
    }

    /// Groups maximal runs of consecutive `Serve` envelopes whose
    /// registered jobs all match (unregistered serves ride along inside
    /// a run and are rejected inline by the tenant store), so a
    /// 1-node rf=1 cluster decomposes a batch **exactly** like a bare
    /// [`FlStore`] does. Non-serve envelopes break runs and are
    /// submitted singly.
    fn submit_batch(&mut self, now: SimTime, requests: &[Request]) -> Vec<Response> {
        self.drain_failures(now);
        let mut responses: Vec<Response> = Vec::with_capacity(requests.len());
        let mut i = 0;
        while i < requests.len() {
            if !matches!(requests[i], Request::Serve(_)) {
                responses.push(self.submit_inner(now, requests[i].clone()));
                i += 1;
                continue;
            }
            let mut run: Vec<Request> = Vec::new();
            let mut run_job: Option<JobId> = None;
            while let Some(Request::Serve(serve)) = requests.get(i) {
                if self.routes.contains_key(&serve.job) {
                    match run_job {
                        None => run_job = Some(serve.job),
                        Some(j) if j != serve.job => break,
                        Some(_) => {}
                    }
                }
                run.push(Request::Serve(*serve));
                i += 1;
            }
            responses.extend(self.submit_run(now, run_job, run));
        }
        responses
    }

    fn window_cost(&mut self, now: SimTime) -> CostBreakdown {
        self.total_cost(now)
    }

    fn infra_cost(&mut self, now: SimTime) -> Cost {
        self.nodes
            .iter_mut()
            .filter_map(|node| node.tenants.as_mut())
            .map(|tenants| Service::infra_cost(tenants, now))
            .sum()
    }
}

/// The cluster is the multi-node instantiation of the same
/// [`PlacementMap`] boundary the single store repairs function loss
/// through: holders are nodes, units are whole jobs, and
/// [`repair_after_loss`] drives both.
impl PlacementMap for ClusterStore {
    type Holder = usize;
    type Unit = JobId;

    fn units_on(&self, holder: usize) -> Vec<JobId> {
        self.routes
            .iter()
            .filter(|(_, members)| members.contains(&holder))
            .map(|(job, _)| *job)
            .collect()
    }

    fn drop_holder(&mut self, holder: usize) {
        for members in self.routes.values_mut() {
            members.retain(|member| *member != holder);
        }
    }

    fn survivors(&self, unit: &JobId) -> Vec<usize> {
        self.routes
            .get(unit)
            .map(|members| {
                members
                    .iter()
                    .copied()
                    .filter(|&member| self.nodes[member].reachable())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Re-replicates `unit` onto the lowest-index live node outside its
    /// route: registers an empty twin there, replays the job's full
    /// history into it (the same state-machine replay a rejoining node
    /// uses, so the new replica is bit-identical), and reports the
    /// survivor's resident bytes as the copy volume. `None` when no
    /// spare node is live — the job stays at reduced redundancy.
    fn replicate(
        &mut self,
        _now: SimTime,
        unit: &JobId,
        source: usize,
        _lost: usize,
    ) -> Option<ByteSize> {
        let job = *unit;
        let members = self.routes.get(&job)?.clone();
        let spare = (0..self.cfg.nodes).find(|&i| {
            !members.contains(&i)
                && self.nodes[i].health == NodeHealth::Live
                && self.nodes[i].tenants.is_some()
        })?;
        let model = *self.models.get(&job)?;
        self.host_job(spare, job, model).ok()?;
        self.routes.entry(job).or_default().push(spare);
        self.catch_up_job(spare, job);
        let bytes = self
            .node_store(source, job)
            .map(FlStore::resident_bytes)
            .unwrap_or(ByteSize::ZERO);
        Some(bytes)
    }
}
