//! # flstore-durability — the durability plane
//!
//! FLStore's serving state is RAM-resident; this crate makes it survive
//! crashes and memory pressure (ROADMAP item 2):
//!
//! * [`records`] — the append-only ledger's on-disk record format
//!   (docs/LEDGER.md): length-prefixed records whose payloads are the
//!   shared record codec's bytes (`flstore_fl::codec` — the same bytes
//!   the wire carries), with a total decoder that never panics on a
//!   torn tail.
//! * [`ledger`] — [`DiskLedgerSink`]: the write-ahead sink with
//!   group-commit batching and AOF-rewrite-style segment sealing
//!   (periodic compact snapshots, after which the ledger prefix is
//!   truncated into verified segments).
//! * [`spill`] — [`DiskSpill`]: the cold tier. Quota/capacity pressure
//!   victims spill their encoded bytes to disk instead of being dropped
//!   — the third outcome between keep and evict — and fault back
//!   transparently on serve.
//! * [`recover`] — [`attach`] / [`recover()`](recover::recover):
//!   deterministic crash recovery. Replaying manifest + segments + tail
//!   rebuilds a store bit-identical to the pre-crash one.
//! * [`testkit`] — seeded temp dirs and the fault-injecting
//!   [`KillPointFile`] medium behind the kill-point recovery property.
//!
//! ## Quickstart
//!
//! ```
//! use flstore_core::policy::TailoredPolicy;
//! use flstore_core::store::{FlStore, FlStoreConfig};
//! use flstore_durability::recover::{attach, recover};
//! use flstore_durability::testkit::DetTempDir;
//! use flstore_fl::ids::JobId;
//! use flstore_fl::job::{FlJobConfig, FlJobSim};
//! use flstore_sim::time::SimTime;
//!
//! let cfg = FlJobConfig::quick_test(JobId::new(1));
//! let dir = DetTempDir::new("doc-quickstart", 7);
//! let mut store = FlStore::new(
//!     FlStoreConfig::for_model(&cfg.model),
//!     Box::new(TailoredPolicy::new()),
//!     cfg.job,
//!     cfg.model,
//! );
//! attach(&mut store, dir.path()).unwrap();
//! let record = FlJobSim::new(cfg).next().unwrap();
//! store.ingest_round(SimTime::ZERO, &record);
//! drop(store); // crash
//! let recovered = recover(dir.path()).unwrap();
//! assert_eq!(recovered.engine().len(), {
//!     // the recovered placement index matches the pre-crash one
//!     recovered.durability_digest().rows.len()
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ledger;
pub mod records;
pub mod recover;
pub mod spill;
pub mod testkit;

pub use ledger::{DiskLedgerSink, LedgerMedium, ACTIVE_LEDGER};
pub use records::{parse_ledger, LedgerError, LedgerRecord, ParsedLedger, RECORDS};
pub use recover::{attach, attach_tenants, policy_by_name, DurabilityError, Manifest};
pub use spill::DiskSpill;
pub use testkit::{DetTempDir, KillPointFile};
