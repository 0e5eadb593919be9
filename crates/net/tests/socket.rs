//! Socket integration: a real TCP round trip against the threaded front
//! door, asserting per-connection submission order under a 4-shard
//! executor, typed in-flight backpressure, and reset-free connection
//! limiting.

use flstore_core::api::{ApiError, Request, Response, Service};
use flstore_core::policy::TailoredPolicy;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_exec::ShardedExecutor;
use flstore_fl::ids::JobId;
use flstore_fl::job::FlJobConfig;
use flstore_net::client::NetClient;
use flstore_net::codec::encode_response;
use flstore_net::server::{NetServer, ServerConfig};
use flstore_net::wire::WireError;
use flstore_sim::time::SimTime;
use flstore_trace::driver::{materialize_schedule, TraceConfig};

fn store(job: u32) -> FlStore {
    let cfg = FlJobConfig::quick_test(JobId::new(job));
    FlStore::new(
        FlStoreConfig::for_model(&cfg.model),
        Box::new(TailoredPolicy::new()),
        cfg.job,
        cfg.model,
    )
}

fn schedule() -> Vec<(SimTime, Request)> {
    let job = FlJobConfig::quick_test(JobId::new(1));
    materialize_schedule(&job, &TraceConfig::smoke(23))
}

/// Pipelined responses over one connection arrive in submission order
/// and — served by a 4-shard executor — match a sequential in-process
/// drive of the identical schedule byte for byte.
#[test]
fn pipelined_responses_keep_submission_order_across_shards() {
    let schedule = schedule();

    // Ground truth: the same schedule through the same deployment,
    // submitted sequentially in-process.
    let mut reference: Box<dyn Service + Send> = Box::new(ShardedExecutor::new(vec![store(1)], 4));
    let expected: Vec<(u8, Vec<u8>)> = schedule
        .iter()
        .map(|(now, request)| encode_response(&reference.submit(*now, request.clone())))
        .collect();

    let server = NetServer::bind(
        Box::new(ShardedExecutor::new(vec![store(1)], 4)),
        ServerConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let mut client = NetClient::connect(&addr).expect("connect");
    for (now, request) in &schedule {
        client.send(*now, request).expect("pipelined send");
    }
    client.finish_sending().expect("half-close");
    for (i, expected_bytes) in expected.iter().enumerate() {
        let response = client
            .recv()
            .unwrap_or_else(|e| panic!("response {i}: {e}"));
        assert_eq!(
            &encode_response(&response),
            expected_bytes,
            "response {i} out of submission order or diverged from sequential serving"
        );
    }
    // Nothing extra on the wire.
    assert_eq!(
        client.recv().expect_err("stream ends"),
        WireError::Truncated
    );
    server.shutdown();
}

/// Requests past `max_inflight` are answered with typed Overloaded
/// envelopes in their submission-order slots; every request gets
/// exactly one response and the connection survives.
#[test]
fn inflight_overflow_is_typed_and_ordered() {
    let server = NetServer::bind(
        Box::new(store(1)),
        ServerConfig {
            max_inflight: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let mut client = NetClient::connect(&addr).expect("connect");
    let burst = 64usize;
    for i in 0..burst {
        client
            .send(SimTime::from_micros(i as u64), &Request::Stats)
            .expect("send");
    }
    let mut stats = 0usize;
    let mut overloaded = 0usize;
    for i in 0..burst {
        match client
            .recv()
            .unwrap_or_else(|e| panic!("response {i}: {e}"))
        {
            Response::Stats(_) => stats += 1,
            Response::Rejected(ApiError::Overloaded { .. }) => overloaded += 1,
            other => panic!("unexpected response {i}: {other:?}"),
        }
    }
    assert_eq!(
        stats + overloaded,
        burst,
        "every request answered exactly once"
    );
    assert!(stats >= 1, "at least the first request is admitted");

    // The connection is still usable after rejections.
    let response = client
        .call(SimTime::from_micros(burst as u64), &Request::Stats)
        .expect("post-burst call");
    assert!(matches!(
        response,
        Response::Stats(_) | Response::Rejected(ApiError::Overloaded { .. })
    ));
    server.shutdown();
}

/// Connections past `max_connections` receive one typed Overloaded
/// envelope and a clean EOF — never a reset.
#[test]
fn connection_limit_rejects_cleanly() {
    let server = NetServer::bind(
        Box::new(store(1)),
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    // First connection is admitted and served.
    let mut admitted = NetClient::connect(&addr).expect("connect");
    match admitted.call(SimTime::ZERO, &Request::Stats) {
        Ok(Response::Stats(_)) => {}
        other => panic!("admitted connection must be served, got {other:?}"),
    }

    // While it is held open, further connections get the typed envelope.
    for attempt in 0..3 {
        let mut rejected = NetClient::connect(&addr).expect("TCP accept still succeeds");
        match rejected.recv() {
            Ok(Response::Rejected(ApiError::Overloaded { retry_after_hint })) => {
                assert!(retry_after_hint.as_micros() > 0, "hint is populated");
            }
            other => panic!("attempt {attempt}: expected typed Overloaded, got {other:?}"),
        }
        // After the envelope: clean EOF, not a reset. A reset would
        // surface as WireError::Io(ConnectionReset).
        assert_eq!(
            rejected.recv().expect_err("server half-closed"),
            WireError::Truncated,
            "attempt {attempt}: over-limit close must be clean"
        );
    }
    drop(admitted);
    server.shutdown();
}

/// Open descriptors of this process, or `None` where `/proc` is absent.
fn open_fds() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count())
}

/// A closed connection gives back its sockets while the server keeps
/// running: 200 sequential connect → `Stats` → close cycles leave the
/// process's descriptor count where it started, within what the tests
/// running beside this one may hold open.
#[test]
fn closed_connections_release_their_descriptors() {
    const CYCLES: usize = 200;
    const SLACK: usize = 40;
    let server =
        NetServer::bind(Box::new(store(1)), ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let Some(before) = open_fds() else {
        return;
    };
    for cycle in 0..CYCLES {
        let mut client = NetClient::connect(&addr).expect("connect");
        match client.call(SimTime::ZERO, &Request::Stats) {
            Ok(Response::Stats(_)) => {}
            other => panic!("cycle {cycle}: expected Stats, got {other:?}"),
        }
    }
    // The server closes its side once both connection threads finish,
    // which may trail the client's close by a moment.
    let mut after = open_fds().expect("/proc/self/fd");
    for _ in 0..500 {
        if after <= before + SLACK {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        after = open_fds().expect("/proc/self/fd");
    }
    assert!(
        after <= before + SLACK,
        "{CYCLES} closed connections left {} descriptors open ({before} before, {after} after)",
        after - before
    );
    server.shutdown();
}
