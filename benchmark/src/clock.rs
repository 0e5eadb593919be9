//! The benchmark's only source of wall-clock time, plus the `/proc`
//! readers for CPU time and memory.
//!
//! The workspace bans wall-clock reads everywhere else (the determinism
//! lint's `wall_clock` rule); a benchmark exists to read them, so every
//! read in `benchmark/` funnels through [`now_ns`] and the one annotated
//! call site below.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    // flstore: allow(wall_clock, the benchmark measures the implementation's real latency; this is the single wall-clock read site of benchmark/)
    #[allow(clippy::disallowed_methods)]
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Seconds between two [`now_ns`] readings.
pub fn secs_between(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 / 1e9
}

/// On-CPU nanoseconds of every live thread of this process, by thread
/// name, from `/proc/self/task/*/schedstat` (first field). Threads that
/// already exited are not listed, so snapshots bracketing a phase must be
/// taken while the phase's threads are alive.
pub fn thread_cpu_ns() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        let stat = std::fs::read_to_string(dir.join("schedstat")).unwrap_or_default();
        let on_cpu = stat
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0);
        out.push((name.trim().to_string(), on_cpu));
    }
    out.sort();
    out
}

/// Total on-CPU nanoseconds of the live threads of this process.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_cpu_readers_answer() {
        let a = now_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = now_ns();
        assert!(b > a);
        assert!(peak_rss_mb() > 0.0);
        assert!(!thread_cpu_ns().is_empty());
    }
}
