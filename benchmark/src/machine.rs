//! The machine shape recorded beside every result: numbers measured on a
//! shared 2-core sandbox mean little without it.

use std::path::Path;

use serde_json::{json, Value};

use crate::schedule::Workload;

fn first_line_with<'a>(text: &'a str, prefix: &str) -> Option<&'a str> {
    text.lines()
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.split(':').nth(1))
        .map(str::trim)
}

/// The filesystem type holding `path` (longest mount-point prefix in
/// `/proc/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
        .unwrap_or_else(|| "unknown".into())
}

/// The CPU the single-engine workloads are pinned to.
pub const PINNED_CPU: &str = "0";

/// Every online CPU, in `taskset` list syntax. Read from `/sys` rather
/// than `available_parallelism`, which counts only the CPUs this process
/// is currently pinned to.
pub fn all_cpus() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .map(|list| list.trim().to_string())
        .ok()
        .filter(|list| !list.is_empty())
        .unwrap_or_else(|| PINNED_CPU.to_string())
}

/// The CPUs a workload's measured passes run on.
///
/// Three workloads have one engine thread doing the work and four or
/// five threads handing envelopes to each other; on a 2-vCPU sandbox
/// *where those threads happen to land* decides the result — the same
/// `small_serve` run measures 36–49k req/s unpinned and 46–50k on one
/// CPU, because every cross-CPU hand-off costs more than the second CPU
/// gives back. They run on [`PINNED_CPU`]. `heavy_serve` exists to load
/// the executor's two workers, so it gets every CPU (one CPU costs it
/// 30 % of its throughput and repeats no better).
pub fn cpus_for(workload: Workload) -> String {
    match workload {
        Workload::HeavyServe => all_cpus(),
        _ => PINNED_CPU.to_string(),
    }
}

/// Restricts every thread of this process (and the threads they spawn
/// later) to the CPUs in `cpus` (`taskset` list syntax). Returns whether
/// it worked; without `taskset` the benchmark runs unpinned and says so.
pub fn pin_to(cpus: &str) -> bool {
    std::process::Command::new("taskset")
        .args(["-a", "-cp", cpus, &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map(|status| status.success())
        .unwrap_or(false)
}

/// `nproc`, CPU model, kernel, `rustc` and the data directory's
/// filesystem.
pub fn shape(data_root: &Path) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    json!({
        "nproc": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "cpu_model": first_line_with(&cpuinfo, "model name").unwrap_or("unknown"),
        "kernel": kernel.trim(),
        "rustc": rustc,
        "data_dir_filesystem": filesystem_of(data_root),
        "pinned_to_cpu": PINNED_CPU,
        "heavy_serve_cpus": all_cpus(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_names_every_field() {
        let shape = shape(Path::new("."));
        for key in [
            "nproc",
            "cpu_model",
            "kernel",
            "rustc",
            "data_dir_filesystem",
        ] {
            assert!(!shape[key].is_null(), "{key}");
        }
        assert!(shape["nproc"].as_u64().unwrap() >= 1);
    }
}
