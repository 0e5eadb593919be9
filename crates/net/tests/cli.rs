//! `flstore-net serve` rejects cluster flags it cannot honour at parse
//! time: usage message, exit 2, no panic — and no server left running.

use std::process::{Command, Stdio};
use std::thread::sleep;
use std::time::Duration;

/// Runs `flstore-net` with `args` and returns its exit code and stderr,
/// killing it (and failing) if it is still running after ten seconds.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_flstore-net"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn flstore-net");
    for _ in 0..200 {
        if child.try_wait().expect("poll flstore-net").is_some() {
            let output = child.wait_with_output().expect("collect flstore-net");
            let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
            return (output.status.code(), stderr);
        }
        sleep(Duration::from_millis(50));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("flstore-net {args:?} was still running after 10 s");
}

fn assert_rejected(args: &[&str]) {
    let (code, stderr) = run(args);
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    assert_eq!(code, Some(2), "{args:?} exit code; stderr:\n{stderr}");
    assert!(
        stderr.contains("usage:"),
        "{args:?} printed no usage:\n{stderr}"
    );
}

#[test]
fn zero_replication_factor_is_a_usage_error() {
    assert_rejected(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--cluster-nodes",
        "3",
        "--cluster-rf",
        "0",
    ]);
}

#[test]
fn failure_schedule_node_outside_the_cluster_is_a_usage_error() {
    for flag in ["--kill", "--rejoin"] {
        assert_rejected(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--cluster-nodes",
            "3",
            flag,
            "3@1",
        ]);
    }
}

#[test]
fn failure_schedule_without_a_cluster_is_a_usage_error() {
    for flag in ["--kill", "--rejoin"] {
        assert_rejected(&["serve", "--addr", "127.0.0.1:0", flag, "0@1"]);
    }
}
