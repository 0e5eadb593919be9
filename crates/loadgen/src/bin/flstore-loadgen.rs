//! The standalone FLStore load generator.
//!
//! ```sh
//! # Closed loop: one pipelined connection, 32-deep window.
//! flstore-loadgen --addr 127.0.0.1:4600 --mode closed --requests 200 --window 32
//!
//! # Open-loop burst over 8 connections, writing the report to a file:
//! flstore-loadgen --addr 127.0.0.1:4600 --mode burst --connections 8 \
//!     --requests 400 --out results/loadgen.json
//!
//! # Paced open loop: fixed-interval arrivals at 500 requests/s:
//! flstore-loadgen --addr 127.0.0.1:4600 --mode burst --rate 500 --requests 200
//!
//! # Interleaved traffic for a `--jobs 2` server (jobs 1 and 2):
//! flstore-loadgen --addr 127.0.0.1:4600 --mode closed --jobs 2 --requests 200
//!
//! # Ride through a cluster failover: honor Overloaded/Relocated hints
//! # with a bounded retry budget (closed mode only):
//! flstore-loadgen --addr 127.0.0.1:4600 --mode closed --retries 3 --expect-clean
//! ```
//!
//! The schedule replays the same synthetic trace
//! ([`flstore_trace::driver::materialize_schedule`] over
//! `TraceConfig`) that the in-process experiment driver serves, so a
//! networked run produces the same envelope sequence as a library run.
//! `--jobs N` merges the schedules of jobs 1..=N by arrival time
//! ([`flstore_loadgen::jobs_schedule`]), `--requests` serves each.
//! The JSON report separates deterministic payload facts from
//! `_wall`-suffixed wall-clock fields (see the `flstore-loadgen` crate
//! docs); `--expect-overload` / `--expect-clean` turn the report into a
//! pass/fail smoke gate for CI.

#![forbid(unsafe_code)]

use std::io::Write as _;

use flstore_loadgen::{
    jobs_schedule, probe_connection_limit, run_closed, run_open_paced, LoadReport,
};

fn usage() -> ! {
    eprintln!(
        "usage: flstore-loadgen --addr HOST:PORT [--mode closed|burst|probe] \
         [--requests N per job] [--jobs N] [--seed N] [--window N] [--connections N] [--rate N] \
         [--retries N (closed mode)] [--out FILE] [--expect-overload] [--expect-clean]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = None;
    let mut mode = String::from("closed");
    let mut requests = 40usize;
    let mut jobs = 1u32;
    let mut seed = 7u64;
    let mut window = 16usize;
    let mut connections = 4usize;
    let mut rate = 0u64;
    let mut retries = 0usize;
    let mut out: Option<String> = None;
    let mut expect_overload = false;
    let mut expect_clean = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => addr = Some(parse::<String>(&mut iter, "--addr")),
            "--mode" => mode = parse(&mut iter, "--mode"),
            "--requests" => requests = parse(&mut iter, "--requests"),
            "--jobs" => jobs = parse(&mut iter, "--jobs"),
            "--seed" => seed = parse(&mut iter, "--seed"),
            "--window" => window = parse(&mut iter, "--window"),
            "--connections" => connections = parse(&mut iter, "--connections"),
            "--rate" => rate = parse(&mut iter, "--rate"),
            "--retries" => retries = parse(&mut iter, "--retries"),
            "--out" => out = Some(parse::<String>(&mut iter, "--out")),
            "--expect-overload" => expect_overload = true,
            "--expect-clean" => expect_clean = true,
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };

    // The same job configs a `flstore-net serve --jobs N` deployment
    // hosts, so requests address records the server actually ingests.
    let schedule = jobs_schedule(jobs, seed, requests);

    let report: LoadReport = match mode.as_str() {
        "closed" => run_closed(&addr, &schedule, window, retries).unwrap_or_else(|e| {
            eprintln!("connect {addr}: {e}");
            std::process::exit(1);
        }),
        // `--rate 0` (the default) is the unpaced burst; a nonzero rate
        // paces arrivals at fixed intervals from the run start.
        "burst" => run_open_paced(&addr, &schedule, connections, rate),
        "probe" => {
            let (served, overloaded, errors) = probe_connection_limit(&addr, connections);
            println!("probe: {served} served, {overloaded} overloaded, {errors} transport errors");
            if errors > 0 || (expect_overload && overloaded == 0) {
                std::process::exit(1);
            }
            return;
        }
        _ => usage(),
    };

    let json = report.to_json();
    let rendered = serde_json::to_string_pretty(&json).expect("report serializes");
    match &out {
        Some(path) => {
            let mut file = std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("create {path}: {e}");
                std::process::exit(1);
            });
            writeln!(file, "{rendered}").expect("write report");
        }
        None => println!("{rendered}"),
    }
    eprintln!(
        "{} sent, {} ok, {} overloaded, {} rejected, {} retried ({} redirected), \
         {} transport errors",
        report.sent,
        report.ok,
        report.overloaded,
        report.rejected,
        report.retried,
        report.redirected,
        report.transport_errors
    );

    // Smoke gates: under overload we demand typed rejections and a clean
    // transport; unloaded we demand every envelope served.
    if report.transport_errors > 0 {
        eprintln!("FAIL: transport errors (resets/truncation) observed");
        std::process::exit(1);
    }
    if expect_overload && report.overloaded == 0 {
        eprintln!("FAIL: expected typed Overloaded rejections, saw none");
        std::process::exit(1);
    }
    // `sent` counts retransmissions too, so the clean gate compares
    // against the schedule: every *scheduled* envelope must end in a
    // non-rejected final response (retries within budget are fine).
    if expect_clean && report.ok != schedule.len() {
        eprintln!(
            "FAIL: expected every scheduled request served, got {}/{}",
            report.ok,
            schedule.len()
        );
        std::process::exit(1);
    }
}
