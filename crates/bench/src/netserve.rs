//! Network serving plane experiment: the TCP front door driven over
//! real sockets.
//!
//! Three phases against an in-process [`NetServer`], each reporting only
//! payload facts, so the output is byte-identical run-to-run and across
//! `--threads N`:
//!
//! 1. **Closed loop** — one pipelined connection replays a synthetic
//!    trace (the same [`materialize_schedule`] envelopes the in-process
//!    driver serves) with a bounded window. The response checksum and
//!    outcome counts must reproduce exactly.
//! 2. **Overload** — an open-loop burst over several connections against
//!    a deliberately tiny admission window (`max_inflight`). Every
//!    request gets a typed answer: the served / `Overloaded` / rejected
//!    counts sum to `sent`, and the transport-error count (resets,
//!    truncated streams) stays zero by contract. How the answers split
//!    depends on socket timing, so only the sum is reported.
//! 3. **Connection probe** — connections are admitted in arrival order
//!    against a cap, so the served/overloaded split is exact.
//!
//! Latency and goodput over loopback are wall-clock facts; `benchmark/`
//! measures them (`small_serve`, `lat_p50_us`, `throughput_rps`).

use flstore_core::api::Service;
use flstore_core::policy::TailoredPolicy;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_exec::ShardedExecutor;
use flstore_fl::ids::JobId;
use flstore_fl::job::FlJobConfig;
use flstore_loadgen::{probe_connection_limit, run_closed, run_open_paced};
use flstore_net::server::{NetServer, ServerConfig};
use flstore_trace::driver::{materialize_schedule, TraceConfig};
use serde_json::{json, Value};

use crate::util::{header, save_json, serving_threads, subheader, Scale};

/// Builds the served deployment, honouring the `--threads` knob the way
/// every other experiment does: N > 1 serves through an N-shard
/// [`ShardedExecutor`], which is bit-for-bit equivalent to sequential
/// submission — so the deterministic fields below must not move.
fn backend() -> Box<dyn Service + Send> {
    let cfg = FlJobConfig::quick_test(JobId::new(1));
    let store = FlStore::new(
        FlStoreConfig::for_model(&cfg.model),
        Box::new(TailoredPolicy::new()),
        cfg.job,
        cfg.model,
    );
    let threads = serving_threads();
    if threads > 1 {
        Box::new(ShardedExecutor::new(vec![store], threads))
    } else {
        Box::new(store)
    }
}

/// The `netserve` experiment: closed-loop service through the network
/// front door, then deliberate overload.
pub fn netserve(scale: Scale) -> Value {
    header("Network serving plane: TCP front door under replay and overload");
    let job_cfg = FlJobConfig::quick_test(JobId::new(1));
    let mut trace = TraceConfig::smoke(11);
    trace.requests = scale.requests();
    trace.window = scale.window();
    let schedule = materialize_schedule(&job_cfg, &trace);

    // Phase 1: closed loop, ample admission — every envelope served.
    subheader(&format!(
        "closed loop: {} requests, one pipelined connection, window 16",
        schedule.len()
    ));
    let server = NetServer::bind(backend(), ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let closed = run_closed(&addr, &schedule, 16, 0).expect("connect to in-process server");
    server.shutdown();
    assert_eq!(
        closed.transport_errors, 0,
        "closed-loop run lost responses in transport"
    );
    assert_eq!(
        closed.overloaded, 0,
        "closed-loop run was rejected despite default admission limits"
    );
    println!(
        "  {} sent, {} served, {} rejected (admission), checksum {:016x}",
        closed.sent, closed.ok, closed.rejected, closed.checksum
    );

    // Phase 2a: open-loop burst against a tiny in-flight window. Every
    // request still gets a typed response; the split between served and
    // Overloaded depends on real socket timing, so only `sent` (every one
    // answered) and the zero transport-error contract are reported.
    let burst_conns = 4usize;
    let overload_config = ServerConfig {
        max_connections: 8,
        max_inflight: 2,
        ..ServerConfig::default()
    };
    subheader(&format!(
        "overload burst: {} requests over {} connections, max_inflight 2",
        schedule.len(),
        burst_conns
    ));
    let server = NetServer::bind(backend(), overload_config).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let burst = run_open_paced(&addr, &schedule, burst_conns, 0);
    server.shutdown();
    assert_eq!(
        burst.transport_errors, 0,
        "overload must surface as typed envelopes, not resets"
    );
    assert_eq!(
        burst.ok + burst.overloaded + burst.rejected,
        burst.sent,
        "every burst request must get a typed answer"
    );
    println!(
        "  {} sent, each answered served, overloaded or rejected — 0 resets",
        burst.sent
    );

    // Phase 2b: connection-limit probe. Connections are admitted in
    // arrival order against a cap of 2, so the outcome split is exact:
    // the excess connections each read one typed Overloaded envelope and
    // a clean EOF.
    let probe_attempts = 5usize;
    let probe_config = ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    };
    subheader(&format!(
        "connection probe: {probe_attempts} simultaneous connections, max_connections 2"
    ));
    let server = NetServer::bind(backend(), probe_config).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let (served, overloaded, errors) = probe_connection_limit(&addr, probe_attempts);
    server.shutdown();
    assert_eq!(errors, 0, "over-limit connections must close cleanly");
    assert_eq!((served, overloaded), (2, 3), "admission is exact and typed");
    println!("  {served} served, {overloaded} overloaded, {errors} transport errors");

    let v = json!({
        "experiment": "netserve",
        "closed_loop": {
            "requests": closed.sent,
            "ok": closed.ok,
            "rejected": closed.rejected,
            "checksum": format!("{:016x}", closed.checksum),
        },
        "overload_burst": {
            "requests": burst.sent,
            "connections": burst_conns,
            "max_inflight": 2,
            "transport_errors": burst.transport_errors,
        },
        "connection_probe": {
            "attempts": probe_attempts,
            "max_connections": 2,
            "served": served,
            "overloaded": overloaded,
            "transport_errors": errors,
        },
    });
    save_json("netserve", &v);
    v
}
