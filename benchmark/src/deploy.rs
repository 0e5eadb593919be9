//! Builds each workload's deployment from public constructors, puts it
//! behind an in-process `NetServer` on loopback, and takes it apart again
//! for inspection.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;

use flstore_cluster::cluster::{ClusterConfig, ClusterStore};
use flstore_cluster::failure::{FailureKind, FailurePlan};
use flstore_core::api::{Request, Response, Service};
use flstore_core::durable::DurabilityConfig;
use flstore_core::policy::{CachingPolicy, TailoredPolicy};
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_durability::recover::attach;
use flstore_exec::ShardedExecutor;
use flstore_net::client::NetClient;
use flstore_net::server::{NetServer, ServerConfig};
use flstore_sim::cost::{Cost, CostBreakdown};
use flstore_sim::time::SimTime;

use crate::driver::{drive, DriveResult};
use crate::schedule::{FailureScript, Plan, Workload, CLUSTER_NODES, CLUSTER_RF};
use crate::spans::Tracer;
use crate::wrappers::{
    BatchLog, Handback, SinkCounts, TracedPolicy, TracedService, TracedSink, TracedStore,
    TracedUnit,
};

/// Executor workers (and engine key shards) behind `heavy_serve`.
pub const HEAVY_THREADS: usize = 2;

/// Group-commit width of the replicated workload's per-node ledgers.
pub const CLUSTER_FLUSH_EVERY: u32 = 16;

/// The flush policy of `durable_ingest`: fsync every record, seal a
/// snapshot segment every 64 records.
pub const DURABLE_POLICY: DurabilityConfig = DurabilityConfig {
    flush_every: 1,
    snapshot_every: 64,
    ..DurabilityConfig::DISABLED
};

/// The store configuration every store of `workload` is built from (the
/// server's, the cluster template, and the oracle's reference alike).
pub fn store_config(plan: &Plan) -> FlStoreConfig {
    let base = FlStoreConfig::for_model(&plan.jobs[0].model);
    match plan.workload {
        // `key_shards` is set explicitly everywhere so nothing depends on
        // the process-wide default.
        Workload::SmallServe => FlStoreConfig {
            key_shards: 1,
            ..base
        },
        Workload::HeavyServe => FlStoreConfig {
            key_shards: HEAVY_THREADS,
            ..base
        },
        Workload::DurableIngest => FlStoreConfig {
            key_shards: 1,
            durability: DURABLE_POLICY,
            ..base
        },
        Workload::ClusterFailover => FlStoreConfig {
            key_shards: 1,
            durability: DurabilityConfig {
                flush_every: CLUSTER_FLUSH_EVERY,
                ..DurabilityConfig::DISABLED
            },
            ..base
        },
    }
}

/// A 3-node rf=2 cluster with per-node durable roots under `root`,
/// hosting `plan`'s jobs, with `script` injected.
pub fn cluster(
    plan: &Plan,
    template: FlStoreConfig,
    script: &FailureScript,
    root: &Path,
) -> ClusterStore {
    let mut cfg = ClusterConfig::sim_default(CLUSTER_NODES, CLUSTER_RF, template);
    cfg.detection_interval = script.detection;
    cfg.redirect_hint = script.detection;
    cfg.durable_root = Some(root.to_path_buf());
    let mut cluster = ClusterStore::new(cfg);
    for job in &plan.jobs {
        cluster
            .register_job(job.job, job.model)
            .expect("data dir is writable");
    }
    cluster.inject_plan(
        &FailurePlan::none()
            .with(script.kill_a.1, script.kill_a.0, FailureKind::Kill)
            .with(script.rejoin_a, script.kill_a.0, FailureKind::Rejoin)
            .with(script.kill_b.1, script.kill_b.0, FailureKind::Kill)
            .with(script.rejoin_b, script.kill_b.0, FailureKind::Rejoin),
    );
    cluster
}

/// What sits behind the server. The untraced variants are the program's
/// own types; the traced variants add the benchmark's span wrappers.
pub enum Backend {
    /// `small_serve`, `durable_ingest`: a bare store.
    Store(FlStore),
    /// The same, split into bookkeeping and kernel spans.
    TracedStore(TracedStore),
    /// `heavy_serve`: the work-stealing executor over one hot store.
    Exec(ShardedExecutor<FlStore>),
    /// The same, with spans around the executor and around its unit.
    TracedExec(TracedService<ShardedExecutor<TracedUnit<FlStore>>>),
    /// `cluster_failover`: the replicated cluster.
    Cluster(Box<ClusterStore>),
    /// The same, with a span around the cluster front.
    TracedCluster(Box<TracedService<ClusterStore>>),
}

impl Backend {
    fn service(&mut self) -> &mut dyn Service {
        match self {
            Backend::Store(s) => s,
            Backend::TracedStore(s) => s,
            Backend::Exec(s) => s,
            Backend::TracedExec(s) => s,
            Backend::Cluster(s) => s.as_mut(),
            Backend::TracedCluster(s) => s.as_mut(),
        }
    }
}

impl Service for Backend {
    fn label(&self) -> String {
        match self {
            Backend::Store(s) => Service::label(s),
            Backend::TracedStore(s) => s.label(),
            Backend::Exec(s) => s.label(),
            Backend::TracedExec(s) => s.label(),
            Backend::Cluster(s) => s.label(),
            Backend::TracedCluster(s) => s.label(),
        }
    }
    fn submit(&mut self, now: SimTime, request: Request) -> Response {
        self.service().submit(now, request)
    }
    fn submit_batch(&mut self, now: SimTime, requests: &[Request]) -> Vec<Response> {
        self.service().submit_batch(now, requests)
    }
    fn window_cost(&mut self, now: SimTime) -> CostBreakdown {
        self.service().window_cost(now)
    }
    fn infra_cost(&mut self, now: SimTime) -> Cost {
        self.service().infra_cost(now)
    }
}

/// A backend taken apart after the run.
pub enum Parts {
    /// The single store of a bare or executor deployment.
    Store(Box<FlStore>),
    /// The cluster.
    Cluster(Box<ClusterStore>),
}

impl Backend {
    /// Unwraps to the program's own values plus, for traced variants,
    /// the engine-side batch log. Dropping the wrappers flushes their
    /// spans to the tracer.
    pub fn dissolve(self) -> (Parts, Option<BatchLog>) {
        match self {
            Backend::Store(store) => (Parts::Store(Box::new(store)), None),
            Backend::TracedStore(traced) => {
                let (store, log) = traced.into_parts();
                (Parts::Store(Box::new(store)), Some(log))
            }
            Backend::Exec(exec) => {
                let store = exec.into_units().pop().expect("one unit");
                (Parts::Store(Box::new(store)), None)
            }
            Backend::TracedExec(traced) => {
                let (exec, log) = traced.into_parts();
                let unit = exec.into_units().pop().expect("one unit");
                (Parts::Store(Box::new(unit.into_inner())), Some(log))
            }
            Backend::Cluster(cluster) => (Parts::Cluster(cluster), None),
            Backend::TracedCluster(traced) => {
                let (cluster, log) = traced.into_parts();
                (Parts::Cluster(Box::new(cluster)), Some(log))
            }
        }
    }
}

fn policy(tracer: Option<&Arc<Tracer>>) -> Box<dyn CachingPolicy> {
    let tailored = Box::new(TailoredPolicy::new());
    match tracer {
        Some(tracer) => Box::new(TracedPolicy::new(tailored, tracer.recorder())),
        None => tailored,
    }
}

/// Builds `plan`'s backend. With a tracer, every wrapper boundary the
/// deployment has is wrapped; `sink_counts` then yields the record-sink
/// counters of a durable store once it is dropped.
pub fn backend(
    plan: &Plan,
    tracer: Option<&Arc<Tracer>>,
    data_dir: &Path,
) -> (Backend, Option<mpsc::Receiver<SinkCounts>>) {
    let cfg = store_config(plan);
    let job = &plan.jobs[0];
    match plan.workload {
        Workload::SmallServe => {
            let store = FlStore::new(cfg, policy(tracer), job.job, job.model);
            match tracer {
                Some(t) => (
                    Backend::TracedStore(TracedStore::new(store, t.recorder())),
                    None,
                ),
                None => (Backend::Store(store), None),
            }
        }
        Workload::HeavyServe => {
            let store = FlStore::new(cfg, policy(tracer), job.job, job.model);
            match tracer {
                Some(t) => {
                    let unit = TracedUnit::new(store, t.recorder());
                    let exec = ShardedExecutor::new(vec![unit], HEAVY_THREADS);
                    (
                        Backend::TracedExec(TracedService::new(
                            exec,
                            "exec.submit_batch",
                            t.recorder(),
                        )),
                        None,
                    )
                }
                None => (
                    Backend::Exec(ShardedExecutor::new(vec![store], HEAVY_THREADS)),
                    None,
                ),
            }
        }
        Workload::DurableIngest => {
            let mut store = FlStore::new(cfg, policy(tracer), job.job, job.model);
            attach(&mut store, data_dir).expect("data dir is writable");
            match tracer {
                Some(t) => {
                    let sink = store.take_record_sink().expect("attach installed a sink");
                    let (traced, counts) = TracedSink::new(sink, t.recorder());
                    store.set_record_sink(Box::new(traced));
                    (
                        Backend::TracedStore(TracedStore::new(store, t.recorder())),
                        Some(counts),
                    )
                }
                None => (Backend::Store(store), None),
            }
        }
        Workload::ClusterFailover => {
            let script = plan.failures.as_ref().expect("replicated workload");
            let cluster = cluster(plan, cfg, script, data_dir);
            match tracer {
                Some(t) => (
                    Backend::TracedCluster(Box::new(TracedService::new(
                        cluster,
                        "cluster.submit_batch",
                        t.recorder(),
                    ))),
                    None,
                ),
                None => (Backend::Cluster(Box::new(cluster)), None),
            }
        }
    }
}

/// A deployment that is up: server bound, client connected, warm
/// ingest done.
pub struct Live {
    /// The in-process front door.
    pub server: NetServer,
    /// The one loopback connection.
    pub client: NetClient,
    /// Yields the backend after [`Live::teardown`].
    pub back: mpsc::Receiver<Backend>,
    /// Record-sink counters (traced durable deployments).
    pub sink_counts: Option<mpsc::Receiver<SinkCounts>>,
    /// What the warm ingest observed.
    pub warm: DriveResult,
    /// Where the deployment's durable state lives.
    pub data_dir: PathBuf,
}

/// Brings `plan`'s deployment up: build, bind, connect, warm ingest.
pub fn deploy(plan: &Plan, tracer: Option<&Arc<Tracer>>, data_dir: &Path) -> Live {
    let (backend, sink_counts) = backend(plan, tracer, data_dir);
    let (handback, back) = Handback::new(backend);
    let server =
        NetServer::bind(Box::new(handback), ServerConfig::default()).expect("bind loopback");
    let mut client = NetClient::connect(server.local_addr()).expect("connect loopback");
    let warm = drive(&mut client, &plan.warm, 1, 0).expect("warm ingest");
    Live {
        server,
        client,
        back,
        sink_counts,
        warm,
        data_dir: data_dir.to_path_buf(),
    }
}

impl Live {
    /// Closes the connection, shuts the server down (joining its
    /// threads) and returns the backend it owned.
    pub fn teardown(self) -> (Backend, Option<mpsc::Receiver<SinkCounts>>) {
        drop(self.client);
        self.server.shutdown();
        let backend = self.back.recv().expect("server drops its service");
        (backend, self.sink_counts)
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| {
            let path = entry.path();
            match entry.metadata() {
                Ok(meta) if meta.is_dir() => dir_bytes(&path),
                Ok(meta) => meta.len(),
                Err(_) => 0,
            }
        })
        .sum()
}

/// Total size in bytes of the ledger files (`segment-*.log`,
/// `ledger.log`) directly inside a tenant directory.
pub fn ledger_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".log"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}
