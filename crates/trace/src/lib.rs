//! # flstore-trace — traces, drivers, and scenario presets
//!
//! Generates the non-training request traces of the paper's evaluation and
//! replays them — together with the producing FL job — against any serving
//! architecture:
//!
//! * [`arrival`] — uniform / Poisson / burst arrival processes.
//! * [`driver`] — the [`driver::drive`] / [`driver::drive_parallel`]
//!   replay loops over the unified front door
//!   (`flstore_core::api::Service`), external JSON-lines traces
//!   ([`driver::TraceConfig::from_jsonl`]), and [`driver::DriveReport`]
//!   summaries.
//! * [`scenario`] — one preset per paper experiment: eval jobs, policy
//!   variants, fault-injection deployments, the 50-hour trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrival;
pub mod driver;
pub mod scenario;

pub use driver::{drive, drive_parallel, DriveReport, TraceConfig, TraceError, TraceEvent};
pub use scenario::PolicyVariant;
