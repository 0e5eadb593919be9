//! The standalone FLStore network server.
//!
//! ```sh
//! # Serve a multi-job FLStore deployment:
//! flstore-net serve --addr 127.0.0.1:0 --jobs 4 --threads 4
//!
//! # Serve durably: per-job write-ahead ledgers under DIR, recovered on
//! # restart (a SIGKILL'd server picks up exactly where the ledger ends):
//! flstore-net serve --data-dir DIR --flush-every 1 --spill
//!
//! # Front a 3-node rf=2 replicated cluster, killing node 1 (process
//! # death) 1800 virtual seconds in and rejoining it at 3000 s. During
//! # the detection window clients receive typed Relocated redirects;
//! # `flstore-loadgen --retries N` rides through with zero failures:
//! flstore-net serve --cluster-nodes 3 --cluster-rf 2 --detect-ms 60000 \
//!     --kill 1@1800 --rejoin 1@3000 --data-dir DIR --flush-every 1
//! ```
//!
//! `serve` prints `listening on <addr>` on stdout once bound (scripts
//! parse this line to discover the ephemeral port) and runs until the
//! process is killed.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use flstore_cluster::cluster::{ClusterConfig, ClusterStore};
use flstore_cluster::failure::{FailureKind, FailurePlan};
use flstore_core::api::Service;
use flstore_core::durable::DurabilityConfig;
use flstore_core::policy::TailoredPolicy;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_durability::recover::{attach, recover, MANIFEST};
use flstore_exec::ShardedExecutor;
use flstore_fl::ids::JobId;
use flstore_fl::job::FlJobConfig;
use flstore_net::server::{NetServer, ServerConfig};
use flstore_sim::time::{SimDuration, SimTime};

fn usage() -> ! {
    eprintln!(
        "usage: flstore-net serve [--addr HOST:PORT] \
         [--jobs N] [--threads N (0 = all cores)] [--key-shards K] [--max-conns N]\n       \
         [--max-inflight N]\n       \
         [--data-dir DIR] [--flush-every N] [--snapshot-every N] [--spill]\n       \
         [--cluster-nodes N] [--cluster-rf R] [--detect-ms MS] \
         [--kill NODE@SECS]... [--rejoin NODE@SECS]..."
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    })
}

/// Builds the replicated cluster deployment: `jobs` quick-test jobs slot
/// across `nodes` simulated store nodes at replication factor `rf`, with
/// the failure schedule injected up front (events fire on the virtual
/// clock as client request stamps pass them).
#[allow(clippy::too_many_arguments)]
fn cluster_service(
    nodes: usize,
    rf: usize,
    detect: SimDuration,
    jobs: u32,
    durability: DurabilityConfig,
    data_dir: Option<PathBuf>,
    kills: &[(usize, u64)],
    rejoins: &[(usize, u64)],
) -> ClusterStore {
    let template_job = FlJobConfig::quick_test(JobId::new(1));
    let mut cfg = ClusterConfig::sim_default(
        nodes,
        rf,
        FlStoreConfig {
            durability,
            ..FlStoreConfig::for_model(&template_job.model)
        },
    );
    cfg.detection_interval = detect;
    // The redirect hint equals the detection interval, so one
    // hint-advanced retry is guaranteed to land past failover detection
    // — `flstore-loadgen --retries 1` suffices to ride through a kill.
    cfg.redirect_hint = detect;
    cfg.durable_root = data_dir;
    let mut cluster = ClusterStore::new(cfg);
    for j in 1..=jobs.max(1) {
        let job_cfg = FlJobConfig::quick_test(JobId::new(j));
        cluster
            .register_job(job_cfg.job, job_cfg.model)
            .unwrap_or_else(|e| {
                eprintln!("register job-{j}: {e}");
                std::process::exit(1);
            });
    }
    let mut plan = FailurePlan::none();
    for &(node, secs) in kills {
        plan = plan.with(SimTime::from_secs(secs), node, FailureKind::Kill);
    }
    for &(node, secs) in rejoins {
        plan = plan.with(SimTime::from_secs(secs), node, FailureKind::Rejoin);
    }
    cluster.inject_plan(&plan);
    cluster
}

/// Parses a `NODE@SECS` failure-schedule operand (virtual seconds).
fn parse_node_at(args: &mut std::slice::Iter<'_, String>, flag: &str) -> (usize, u64) {
    let value: String = parse(args, flag);
    let parsed = value
        .split_once('@')
        .and_then(|(node, secs)| Some((node.parse().ok()?, secs.parse().ok()?)));
    parsed.unwrap_or_else(|| {
        eprintln!("{flag} needs NODE@SECS (e.g. {flag} 1@1800)");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("serve") {
        usage();
    }

    let mut addr = String::from("127.0.0.1:0");
    let mut jobs = 1u32;
    let mut threads = 1usize;
    let mut config = ServerConfig::default();
    let mut data_dir: Option<PathBuf> = None;
    let mut durability = DurabilityConfig::DISABLED;
    let mut cluster_nodes = 0usize;
    let mut cluster_rf = 2usize;
    let mut detect = SimDuration::from_millis(500);
    let mut kills: Vec<(usize, u64)> = Vec::new();
    let mut rejoins: Vec<(usize, u64)> = Vec::new();
    let mut iter = args[1..].iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => addr = parse(&mut iter, "--addr"),
            "--jobs" => jobs = parse(&mut iter, "--jobs"),
            "--threads" => threads = parse(&mut iter, "--threads"),
            // Process-wide default MetaKey shard count: unobservable in
            // bytes (responses/ledgers identical at any K), so it is not
            // part of the serialized config.
            "--key-shards" => {
                flstore_core::engine::set_default_key_shards(parse(&mut iter, "--key-shards"))
            }
            "--max-conns" => config.max_connections = parse(&mut iter, "--max-conns"),
            "--max-inflight" => config.max_inflight = parse(&mut iter, "--max-inflight"),
            "--retry-after-us" => {
                config.retry_after_hint =
                    SimDuration::from_micros(parse(&mut iter, "--retry-after-us"))
            }
            "--cluster-nodes" => cluster_nodes = parse(&mut iter, "--cluster-nodes"),
            "--cluster-rf" => cluster_rf = parse(&mut iter, "--cluster-rf"),
            "--detect-ms" => detect = SimDuration::from_millis(parse(&mut iter, "--detect-ms")),
            "--kill" => kills.push(parse_node_at(&mut iter, "--kill")),
            "--rejoin" => rejoins.push(parse_node_at(&mut iter, "--rejoin")),
            "--data-dir" => data_dir = Some(parse(&mut iter, "--data-dir")),
            "--flush-every" => durability.flush_every = parse(&mut iter, "--flush-every"),
            "--snapshot-every" => durability.snapshot_every = parse(&mut iter, "--snapshot-every"),
            "--spill" => durability.spill = true,
            _ => usage(),
        }
    }
    // Cluster flags the library would panic on, or that would be silently
    // ignored, are rejected here, before anything runs. Without
    // --cluster-nodes there is no node a --kill/--rejoin can name.
    if cluster_rf == 0 {
        eprintln!("--cluster-rf must be at least 1");
        usage();
    }
    if let Some((node, _)) = kills
        .iter()
        .chain(&rejoins)
        .find(|(n, _)| *n >= cluster_nodes)
    {
        eprintln!("--kill/--rejoin node {node} is not one of the {cluster_nodes} --cluster-nodes");
        usage();
    }

    // Cluster mode: the front door drives a replicated ClusterStore
    // instead of a single store / sharded executor. The cluster
    // replicates every state-touching envelope internally, so `--threads`
    // does not apply; `--data-dir` becomes the per-node durable root
    // (`DIR/node-<i>/job-<j>` ledgers, the rejoin recovery source).
    if cluster_nodes > 0 {
        if threads > 1 {
            eprintln!("--threads is ignored in cluster mode (replication is internal)");
        }
        let service = cluster_service(
            cluster_nodes,
            cluster_rf,
            detect,
            jobs,
            durability,
            data_dir,
            &kills,
            &rejoins,
        );
        println!(
            "cluster: {cluster_nodes} node(s), rf={cluster_rf}, detection {}ms, \
             {} kill(s) / {} rejoin(s) scheduled",
            detect.as_micros() / 1000,
            kills.len(),
            rejoins.len()
        );
        let server =
            NetServer::bind_to(addr.as_str(), Box::new(service), config).unwrap_or_else(|e| {
                eprintln!("bind {addr}: {e}");
                std::process::exit(1);
            });
        println!("listening on {}", server.local_addr());
        println!("{} job(s); kill the process to stop", jobs.max(1));
        loop {
            std::thread::park();
        }
    }

    // Each shard owns its unit outright, so each unit gets its own ledger
    // writer under `data-dir/job-<j>` — no lock is shared across shards.
    // A directory with a manifest is an earlier life of this deployment:
    // recover it (replay to the exact pre-crash state) instead of
    // starting fresh.
    let mut recovered = 0u32;
    let mut units: Vec<FlStore> = Vec::with_capacity(jobs.max(1) as usize);
    for j in 1..=jobs.max(1) {
        let cfg = FlJobConfig::quick_test(JobId::new(j));
        let fresh = |durability: DurabilityConfig| {
            FlStore::new(
                FlStoreConfig {
                    durability,
                    ..FlStoreConfig::for_model(&cfg.model)
                },
                Box::new(TailoredPolicy::new()),
                cfg.job,
                cfg.model,
            )
        };
        let Some(root) = &data_dir else {
            units.push(fresh(DurabilityConfig::DISABLED));
            continue;
        };
        let dir = root.join(format!("job-{j}"));
        if dir.join(MANIFEST).exists() {
            // The manifest's config wins over this invocation's flags:
            // replay must run under the config the ledger was written by.
            recovered += 1;
            units.push(recover(&dir).unwrap_or_else(|e| {
                eprintln!("recover {}: {e}", dir.display());
                std::process::exit(1);
            }));
        } else {
            let mut store = fresh(durability);
            attach(&mut store, &dir).unwrap_or_else(|e| {
                eprintln!("attach {}: {e}", dir.display());
                std::process::exit(1);
            });
            units.push(store);
        }
    }
    if data_dir.is_some() {
        // The engine clamp must not rewind past the pre-crash clock: seed
        // it with the furthest any recovered unit has advanced.
        for unit in &units {
            config.initial_clock = config.initial_clock.max(unit.clock());
        }
        println!("durable: {recovered} job(s) recovered from ledger");
    }
    if threads == 0 {
        threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        eprintln!("--threads 0: resolved to {threads} available core(s)");
    }
    let service: Box<dyn Service + Send> = if threads > 1 {
        Box::new(ShardedExecutor::new(units, threads))
    } else {
        // A single shard still routes multi-job traffic correctly; with
        // one job, serve the store directly.
        let mut units = units;
        if units.len() == 1 {
            Box::new(units.pop().expect("one unit"))
        } else {
            Box::new(ShardedExecutor::new(units, 1))
        }
    };

    let server = NetServer::bind_to(addr.as_str(), service, config).unwrap_or_else(|e| {
        eprintln!("bind {addr}: {e}");
        std::process::exit(1);
    });
    println!("listening on {}", server.local_addr());
    println!(
        "{} job(s), {} worker thread(s); kill the process to stop",
        jobs.max(1),
        threads.max(1)
    );
    // Serve until killed.
    loop {
        std::thread::park();
    }
}
