//! [`ClusterStore`]: N store nodes, slot-routed replica sets, automatic
//! failover, and ledger-based node recovery.
//!
//! # Replication model
//!
//! The cluster is a **state-machine replicator**: every state-touching
//! envelope (ingest, serve, evict — serving mutates cache state, so it
//! replicates too) is applied to *every reachable replica* of its job's
//! route, in route order. Only the acting primary runs a serve's kernels
//! and answers; the other replicas commit the same effects and produce
//! no response. Because every replica registered the job identically
//! (same template, same per-job seed derivation) and applies the same
//! envelope sequence, replicas are **bit-identical twins** — failover
//! changes which twin answers, never what the answer is. `Stats` is
//! read-only: answered by the primary, never recorded.
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
//! path to restore the target factor.
//!
//! # Bring-up
//!
//! A replica comes up one way — at registration, at repair onto a spare,
//! and at rejoin — through `ClusterStore::bring_up`: a node that
//! hosted the job when it died recovers the tenant from its own per-node
//! ledger directory and keeps it only on the kill-time digest; otherwise
//! it registers a fresh tenant and attaches its ledger, all or nothing.
//! Either way it then replays the history suffix it has not applied. A
//! healed partition runs only that replay.

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
    /// Job → every state-touching run of envelopes ever applied, with its
    /// stamp — the replay source for catch-up and re-replication. Each
    /// entry keeps the batch grouping the original submission used, so
    /// catch-up replay is bit-identical.
    history: BTreeMap<JobId, Vec<(SimTime, Vec<Request>)>>,
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
    /// # Errors
    ///
    /// The first member whose ledger cannot be attached fails the whole
    /// registration: the members already up drop the tenant again, so
    /// the job is registered nowhere and the call can be retried.
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
        self.models.insert(job, model);
        for (i, &member) in members.iter().enumerate() {
            assert!(
                self.nodes[member].reachable(),
                "register jobs on a healthy cluster (node {member} is unavailable)"
            );
            if let Err(error) = self.bring_up(member, job) {
                for &up in &members[..i] {
                    self.nodes[up].applied.remove(&job);
                    self.nodes[up].tenants.as_mut().expect("up").remove(job);
                }
                self.models.remove(&job);
                return Err(error);
            }
        }
        self.history.insert(job, Vec::new());
        self.routes.insert(job, members);
        Ok(true)
    }

    /// Brings node `n`'s replica of `job` up to date — the one path by
    /// which a replica comes up, at registration, repair and rejoin:
    ///
    /// 1. If the node hosted the job when it died, it recovers the
    ///    tenant from its own ledger directory and keeps it only if it
    ///    lands exactly on the digest snapshotted at kill time (the
    ///    ledger flushed on the way down). A miss or an unreadable
    ///    ledger counts in `rejoin_digest_mismatches`. The snapshot, not
    ///    the directory's contents, decides: a spare may still hold a
    ///    stale directory from an earlier life.
    /// 2. Otherwise it registers a fresh tenant and, when the cluster is
    ///    durable, attaches it to a wiped ledger directory.
    /// 3. It replays the history suffix the tenant has not applied.
    ///
    /// # Errors
    ///
    /// A failed attach leaves the node without the job: no tenant, no
    /// `applied` entry.
    fn bring_up(&mut self, n: usize, job: JobId) -> Result<(), DurabilityError> {
        let node = &mut self.nodes[n];
        let name = format!("job-{}", job.as_u32());
        let dir = node.dir.as_ref().map(|dir| dir.join(&name));
        let snapshot = node.kill_digests.remove(&job);
        let recovered = dir.as_ref().zip(snapshot).and_then(|(dir, snap)| {
            let store = recover(dir).ok().filter(|s| s.durability_digest() == snap);
            self.stats.rejoin_digest_mismatches += u64::from(store.is_none());
            store
        });
        let store = match recovered {
            // `applied` still holds the kill-time count the ledger replayed.
            Some(store) => store,
            None => {
                self.nodes[n].applied.remove(&job);
                let mut fresh = MultiTenantStore::new(self.cfg.store_template.clone());
                fresh.register_job(job, self.models[&job]);
                let (_, mut store) = fresh.into_tenants().pop().expect("just registered");
                if let Some(dir) = &dir {
                    attach(&mut store, dir)?;
                }
                store
            }
        };
        let tenants = self.nodes[n].tenants.as_mut().expect("live node");
        assert!(tenants.adopt(store).is_ok(), "job not yet hosted here");
        self.catch_up_job(n, job);
        Ok(())
    }

    /// Schedules one failure event on the virtual clock.
    ///
    /// # Panics
    ///
    /// Panics if the event names a node the cluster does not have.
    fn inject(&mut self, event: FailureEvent) {
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
                // Dropping the stores flushes every ledger sink: the
                // node's disk holds exactly its applied prefix.
                let tenants = node.tenants.take().expect("a live node has stores");
                node.kill_digests = tenants
                    .tenants()
                    .map(|store| (store.catalog().job(), store.durability_digest()))
                    .collect();
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
            Op::Rejoin(n) => self.rejoin(n),
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
        let node = &mut self.nodes[n];
        let applied = node.applied.entry(job).or_default();
        let tenants = node.tenants.as_mut().expect("live node");
        let store = tenants.tenant_mut(job).expect("hosted job");
        let missed = self.history.get(&job).map_or(&[][..], |h| &h[*applied..]);
        for (stamp, run) in missed {
            self.stats.catchup_entries += run.len() as u64;
            // Effects only: the primary already answered these serves,
            // so their pending kernels are dropped unrun.
            drop(store.submit_batch_deferred(*stamp, run));
        }
        *applied += missed.len();
    }

    /// A killed node comes back. Each job it hosted at death whose route
    /// still has room under the target factor comes up through
    /// [`ClusterStore::bring_up`] and resumes membership; the rest, and
    /// any job whose bring-up fails, leave the node.
    fn rejoin(&mut self, n: usize) {
        if !matches!(self.nodes[n].health, NodeHealth::Dead { .. }) {
            return;
        }
        self.stats.rejoins += 1;
        self.nodes[n].tenants = Some(MultiTenantStore::new(self.cfg.store_template.clone()));
        self.nodes[n].health = NodeHealth::Live;
        let target = self.cfg.replication.min(self.cfg.nodes);
        for job in self.hosted_jobs(n) {
            let route = &self.routes[&job];
            // When repair already restored this job's factor elsewhere,
            // the rejoined node does not shadow-host stale state.
            let restored = !route.contains(&n) && route.len() >= target;
            let up = !restored && self.bring_up(n, job).is_ok();
            let route = self
                .routes
                .get_mut(&job)
                .expect("hosted jobs are registered");
            if !up {
                route.retain(|&member| member != n);
                self.nodes[n].applied.remove(&job);
            } else if !route.contains(&n) {
                route.push(n);
            }
        }
        self.nodes[n].kill_digests.clear();
    }

    /// Applies one run of envelopes to every reachable route member (the
    /// state-machine replication step) and returns the acting primary's
    /// responses. Secondaries commit the same effects but drop their
    /// pending kernels: a serve's kernel runs once, on the primary.
    fn replicate_run(
        &mut self,
        now: SimTime,
        job: JobId,
        primary: usize,
        run: &[Request],
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
            if member == primary {
                responses = store.submit_batch(now, run);
            } else {
                drop(store.submit_batch_deferred(now, run));
            }
            self.nodes[member].applied.insert(job, entry_count);
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

    /// Submits one run: a lone `Stats`, a lone envelope, or consecutive
    /// serves. The run's registered job routes it (unregistered serves
    /// ride along and are rejected inline by the tenant store, exactly
    /// like a bare store batch); a run with no registered job is rejected
    /// whole.
    fn submit_run(&mut self, now: SimTime, run: &[Request]) -> Vec<Response> {
        if let [Request::Stats] = run {
            return vec![self.stats_response(now)];
        }
        let routed = run
            .iter()
            .filter_map(Request::job)
            .find(|job| self.routes.contains_key(job))
            .and_then(|job| Some((job, self.primary_of(job)?)));
        let Some((job, primary)) = routed else {
            return run
                .iter()
                .map(|request| {
                    let job = request.job().expect("only Stats is system-wide");
                    if self.routes.contains_key(&job) {
                        self.redirect(job)
                    } else {
                        Response::Rejected(ApiError::UnknownJob { job })
                    }
                })
                .collect();
        };
        self.history
            .entry(job)
            .or_default()
            .push((now, run.to_vec()));
        self.replicate_run(now, job, primary, run)
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
        self.submit_batch(now, std::slice::from_ref(&request))
            .pop()
            .expect("one envelope yields one response")
    }

    /// Groups maximal runs of consecutive `Serve` envelopes whose
    /// registered jobs all match (unregistered serves ride along inside
    /// a run and are rejected inline by the tenant store), so a
    /// 1-node rf=1 cluster decomposes a batch **exactly** like a bare
    /// [`FlStore`] does. Any other envelope is a run of one. The
    /// ride-along rule looks past unregistered serves, so it is no rule
    /// on adjacent pairs and the split stays a loop.
    fn submit_batch(&mut self, now: SimTime, requests: &[Request]) -> Vec<Response> {
        self.drain_failures(now);
        let mut responses: Vec<Response> = Vec::with_capacity(requests.len());
        let mut start = 0;
        while start < requests.len() {
            let mut end = start + 1;
            if let Request::Serve(first) = &requests[start] {
                let mut run_job = Some(first.job).filter(|job| self.routes.contains_key(job));
                while let Some(Request::Serve(serve)) = requests.get(end) {
                    if self.routes.contains_key(&serve.job) {
                        match run_job {
                            None => run_job = Some(serve.job),
                            Some(job) if job != serve.job => break,
                            Some(_) => {}
                        }
                    }
                    end += 1;
                }
            }
            responses.extend(self.submit_run(now, &requests[start..end]));
            start = end;
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
    /// route that it can bring up there (a fresh twin that replays the
    /// job's full history, so the new replica is bit-identical), and
    /// reports the survivor's resident bytes as the copy volume. `None`
    /// when no spare can take it — the job stays at reduced redundancy.
    fn replicate(
        &mut self,
        _now: SimTime,
        unit: &JobId,
        source: usize,
        _lost: usize,
    ) -> Option<ByteSize> {
        let job = *unit;
        let members = self.routes.get(&job)?;
        let spares: Vec<usize> = (0..self.cfg.nodes)
            .filter(|&i| {
                !members.contains(&i)
                    && self.nodes[i].health == NodeHealth::Live
                    && self.nodes[i].tenants.is_some()
            })
            .collect();
        let spare = spares
            .into_iter()
            .find(|&i| self.bring_up(i, job).is_ok())?;
        self.routes.entry(job).or_default().push(spare);
        Some(
            self.node_store(source, job)
                .map_or(ByteSize::ZERO, FlStore::resident_bytes),
        )
    }
}
