//! Report formatting, result persistence, and the experiment-wide
//! serving-parallelism knob.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use flstore_exec::ShardUnit;
use flstore_fl::job::FlJobConfig;
use flstore_trace::driver::{drive_parallel, DriveReport, TraceConfig};
use serde_json::Value;

/// Worker shards the experiments serve through (`figures -- --threads N`).
/// 1 (the default) drives every system in-thread, exactly as before the
/// parallel plane existed.
static SERVING_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the shard count every subsequent drive uses (clamped to ≥ 1).
pub fn set_serving_threads(n: usize) {
    SERVING_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The configured shard count.
pub fn serving_threads() -> usize {
    SERVING_THREADS.load(Ordering::Relaxed)
}

/// Sets the process-wide default MetaKey shard count every cache engine
/// built from a `key_shards: 0` config uses (`figures -- --key-shards K`).
/// The engine's state split is unobservable by construction — responses,
/// ledgers, and window costs are byte-identical at any K (CI-enforced by
/// diffing a `--threads 4 --key-shards 4` sweep against sequential) —
/// and serialized configs keep the field at 0, so ledger bytes never
/// encode the knob.
pub fn set_key_shards(n: usize) {
    flstore_core::engine::set_default_key_shards(n);
}

/// Drives a serving system through the trace, honouring the `--threads`
/// knob: with N > 1 the system serves behind an N-shard
/// `flstore_exec::ShardedExecutor`. The executor is bit-for-bit
/// equivalent to sequential submission, so figure data is byte-identical
/// either way — that equivalence is CI-enforced by diffing sequential
/// and `--threads 4` runs. Returns the report plus the system itself for
/// post-drive inspection.
pub fn drive_unit<U: ShardUnit + 'static>(
    unit: U,
    job: &FlJobConfig,
    trace: &TraceConfig,
) -> (DriveReport, U) {
    drive_parallel(unit, job, trace, serving_threads())
}

/// Experiment scale: `Full` reproduces the paper's parameters; `Fast`
/// divides rounds/requests by ten for quick smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale parameters (1000 rounds, 3000 requests, 50 h).
    Full,
    /// One-tenth scale for smoke runs.
    Fast,
}

impl Scale {
    /// Training rounds per job.
    pub fn rounds(self) -> u32 {
        match self {
            Scale::Full => 1000,
            Scale::Fast => 100,
        }
    }

    /// Rounds for the Table 2 hit-rate trace (paper: 2000).
    pub fn table2_rounds(self) -> u32 {
        match self {
            Scale::Full => 2000,
            Scale::Fast => 200,
        }
    }

    /// Non-training requests per drive.
    pub fn requests(self) -> usize {
        match self {
            Scale::Full => 3000,
            Scale::Fast => 300,
        }
    }

    /// Experiment window.
    pub fn window(self) -> flstore_sim::time::SimDuration {
        match self {
            Scale::Full => flstore_sim::time::SimDuration::from_hours(50),
            Scale::Fast => flstore_sim::time::SimDuration::from_hours(5),
        }
    }
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// Prints a sub-header.
pub fn subheader(title: &str) {
    println!();
    println!("--- {title} ---");
}

/// Writes an experiment's JSON payload under `results/` (override the
/// directory with `FLSTORE_RESULTS_DIR`, e.g. so smoke runs don't clobber
/// full-scale outputs). The `[saved …]` note goes to stderr because it
/// names the directory, which differs between runs the gate compares.
pub fn save_json(name: &str, value: &Value) {
    let dir = std::env::var("FLSTORE_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    if fs::create_dir_all(&dir).is_err() {
        return; // read-only checkout: printing is enough
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(body) = serde_json::to_string_pretty(value) {
        let _ = fs::write(&path, body);
        eprintln!("[saved {}]", path.display());
    }
}

/// Formats seconds compactly.
pub fn secs(v: f64) -> String {
    if v < 0.001 {
        format!("{:.1}µs", v * 1e6)
    } else if v < 1.0 {
        format!("{:.1}ms", v * 1e3)
    } else if v < 600.0 {
        format!("{v:.2}s")
    } else {
        format!("{:.2}h", v / 3600.0)
    }
}

/// Formats dollars compactly.
pub fn dollars(v: f64) -> String {
    if v == 0.0 {
        "$0".to_string()
    } else if v < 0.001 {
        format!("${v:.2e}")
    } else if v < 1.0 {
        format!("${v:.4}")
    } else {
        format!("${v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parameters() {
        assert_eq!(Scale::Full.rounds(), 1000);
        assert_eq!(Scale::Fast.rounds(), 100);
        assert!(Scale::Full.window() > Scale::Fast.window());
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(2.5), "2.50s");
        assert_eq!(secs(0.01), "10.0ms");
        assert_eq!(secs(7200.0), "2.00h");
        assert_eq!(dollars(0.05), "$0.0500");
        assert_eq!(dollars(12.0), "$12.00");
        assert_eq!(dollars(0.0), "$0");
    }
}
