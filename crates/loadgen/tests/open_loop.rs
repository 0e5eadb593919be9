//! The open loop times each request from its due time and reads
//! responses while it is still sending, so a paced run's latency is the
//! server's, not the length of the send phase.

use flstore_core::policy::TailoredPolicy;
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_fl::ids::JobId;
use flstore_fl::job::FlJobConfig;
use flstore_loadgen::run_open_paced;
use flstore_net::server::{NetServer, ServerConfig};
use flstore_trace::driver::{materialize_schedule, TraceConfig};

fn server() -> NetServer {
    let cfg = FlJobConfig::quick_test(JobId::new(1));
    let store = FlStore::new(
        FlStoreConfig::for_model(&cfg.model),
        Box::new(TailoredPolicy::new()),
        cfg.job,
        cfg.model,
    );
    NetServer::bind(Box::new(store), ServerConfig::default()).expect("bind loopback")
}

#[test]
fn paced_latency_is_far_below_half_the_send_phase() {
    let job = FlJobConfig::quick_test(JobId::new(1));
    let schedule = materialize_schedule(&job, &TraceConfig::smoke(23));
    let n = schedule.len();
    // About 1.5 s of sending. Reading responses only after the send
    // phase would put the median near n / (2 * rate): half of it.
    let rate = (n as u64 * 2 / 3).max(1);
    let half_send_phase_us = n as f64 / (2.0 * rate as f64) * 1e6;

    let paced_server = server();
    let paced = run_open_paced(&paced_server.local_addr().to_string(), &schedule, 1, rate);
    paced_server.shutdown();
    assert_eq!(paced.transport_errors, 0);
    assert_eq!(paced.sent, n);
    let p50 = paced.latency.expect("responses arrived").p50_us;
    assert!(
        p50 < half_send_phase_us / 10.0,
        "p50 {p50:.0} us is not far below n/(2R) = {half_send_phase_us:.0} us"
    );
    assert!(paced.lateness_max_us >= 0.0);

    // Pacing moves only wall-clock fields (on one connection; several
    // would interleave differently at the server from run to run).
    let burst_server = server();
    let burst = run_open_paced(&burst_server.local_addr().to_string(), &schedule, 1, 0);
    burst_server.shutdown();
    assert_eq!(
        (paced.sent, paced.ok, paced.rejected, paced.checksum),
        (burst.sent, burst.ok, burst.rejected, burst.checksum)
    );
}
