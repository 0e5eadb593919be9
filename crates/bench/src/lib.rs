//! # flstore-bench — the figure/table harness
//!
//! Regenerates every table and figure of the FLStore paper's evaluation
//! from the workspace's simulators. Each experiment prints the same
//! rows/series the paper reports and persists machine-readable JSON under
//! `results/`.
//!
//! Run everything:
//! ```sh
//! cargo run --release -p flstore-bench --bin figures -- all
//! ```
//! or a single experiment (`fig7`, `table2`, `overhead`, ...):
//! ```sh
//! cargo run --release -p flstore-bench --bin figures -- fig12
//! ```
//! Append `--fast` for one-tenth-scale smoke runs.
//!
//! Every output — JSON and stdout — is a pure function of the seed and the
//! scale: time comes from the simulated clock only, so a sequential run
//! and a `--threads N` run are byte-identical. This implementation's
//! wall-clock cost (per-operation latencies, kernel times, steal speedup,
//! loopback latency) is measured by the standalone `benchmark/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod breakdown;
pub mod cluster;
pub mod durability;
pub mod headline;
pub mod inventory;
pub mod jobs;
pub mod motivation;
pub mod policies;
pub mod robustness;
pub mod tenancy;
pub mod util;

pub use util::Scale;
