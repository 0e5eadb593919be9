//! Attach, replay, recover: the lifecycle of a durable deployment.
//!
//! [`attach`] makes a freshly built `FlStore` durable: it wipes the
//! tenant directory, records the deployment's identity in a `MANIFEST`
//! file, installs the cold tier (when configured), and starts the
//! write-ahead ledger. [`recover`] is its inverse: it rebuilds the store
//! from the manifest, replays every sealed segment (verifying each
//! embedded digest) and the active tail (tolerating a torn final
//! record), and re-attaches the ledger in append mode — the recovered
//! store is bit-identical to the pre-crash one, because replay drives
//! the same bookkeeping the original envelopes did and the store is
//! deterministic. Replay skips only the serves' pure kernels, whose
//! outputs touch no state.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use flstore_core::policy::{CachingPolicy, EvictionDiscipline, ReactivePolicy, TailoredPolicy};
use flstore_core::store::{FlStore, FlStoreConfig};
use flstore_fl::ids::JobId;
use flstore_fl::zoo::ModelArch;

use crate::ledger::{segment_name, DiskLedgerSink, ACTIVE_LEDGER};
use crate::records::{parse_ledger, LedgerError, LedgerRecord};
use crate::spill::DiskSpill;

/// Name of the deployment-identity file inside a tenant directory.
pub const MANIFEST: &str = "MANIFEST";

/// Name of the cold-tier directory inside a tenant directory.
pub const SPILL_DIR: &str = "spill";

/// The deployment identity written once at attach time: everything
/// `recover` needs to rebuild an empty store identical to the one that
/// first attached.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest format version.
    pub version: u32,
    /// The tenant.
    pub job: u32,
    /// Model architecture, by canonical zoo name.
    pub model: String,
    /// Caching policy, by its reported name.
    pub policy: String,
    /// The full store configuration (durability section included).
    pub config: FlStoreConfig,
}

/// Why attaching or recovering a deployment failed.
#[derive(Debug)]
pub enum DurabilityError {
    /// Filesystem failure.
    Io(io::Error),
    /// A ledger or segment file is corrupt.
    Ledger {
        /// The offending file name.
        file: String,
        /// The parse failure.
        error: LedgerError,
    },
    /// A file that is not the active tail ended torn.
    TornInterior {
        /// The offending file name.
        file: String,
    },
    /// The manifest is missing or undecodable.
    Manifest(String),
    /// The manifest names a model the zoo does not know.
    UnknownModel(String),
    /// The manifest names a policy that cannot be rebuilt from its name
    /// (`FLStore-Random` draws from a consumed RNG stream; `FLStore-Static`
    /// captures an ablation snapshot) — such deployments are not durable.
    UnreconstructiblePolicy(String),
    /// A sealed segment's digest does not match the replayed state.
    DigestMismatch {
        /// The offending file name.
        file: String,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durability i/o: {e}"),
            DurabilityError::Ledger { file, error } => write!(f, "{file}: {error}"),
            DurabilityError::TornInterior { file } => {
                write!(f, "{file}: torn tail in a non-final ledger file")
            }
            DurabilityError::Manifest(what) => write!(f, "manifest: {what}"),
            DurabilityError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            DurabilityError::UnreconstructiblePolicy(name) => {
                write!(f, "policy {name:?} cannot be rebuilt by name; not durable")
            }
            DurabilityError::DigestMismatch { file } => {
                write!(f, "{file}: replayed state does not match the sealed digest")
            }
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<io::Error> for DurabilityError {
    fn from(e: io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

/// Rebuilds a caching policy from its reported name. Returns `None` for
/// policies whose behaviour is not a function of their name.
fn policy_by_name(name: &str, seed: u64) -> Option<Box<dyn CachingPolicy>> {
    match name {
        "FLStore" => Some(Box::new(TailoredPolicy::new())),
        "FLStore-LRU" => Some(Box::new(ReactivePolicy::new(EvictionDiscipline::Lru, seed))),
        "FLStore-FIFO" => Some(Box::new(ReactivePolicy::new(
            EvictionDiscipline::Fifo,
            seed,
        ))),
        "FLStore-LFU" => Some(Box::new(ReactivePolicy::new(EvictionDiscipline::Lfu, seed))),
        _ => None,
    }
}

/// Makes `store` durable in `dir`: wipes the directory, writes the
/// manifest, installs the cold tier when configured, and starts the
/// write-ahead ledger. From this point every state-mutating envelope is
/// persisted before it executes.
///
/// # Errors
///
/// [`DurabilityError::UnreconstructiblePolicy`] when the store's policy
/// cannot be rebuilt by name (recovery would be impossible, so attaching
/// is refused up front); [`DurabilityError::Io`] on filesystem failures.
pub fn attach(store: &mut FlStore, dir: &Path) -> Result<(), DurabilityError> {
    write_manifest(store, dir)?;
    if store.config().durability.spill {
        store.set_spill_backend(Box::new(DiskSpill::create(&dir.join(SPILL_DIR))?));
    }
    let sink = DiskLedgerSink::create(dir, store.config().durability)?;
    store.set_record_sink(Box::new(sink));
    Ok(())
}

/// The attach step without starting a ledger: wipes `dir` and records the
/// deployment's identity. Fault-injection harnesses use this and then
/// install their own [`DiskLedgerSink::with_medium`] sink.
pub fn write_manifest(store: &FlStore, dir: &Path) -> Result<(), DurabilityError> {
    let policy = store.policy_name().to_string();
    if policy_by_name(&policy, store.config().seed).is_none() {
        return Err(DurabilityError::UnreconstructiblePolicy(policy));
    }
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    fs::create_dir_all(dir)?;
    let manifest = Manifest {
        version: 1,
        job: store.catalog().job().as_u32(),
        model: store.catalog().model().name.to_string(),
        policy,
        config: store.config().clone(),
    };
    let json = serde_json::to_string(&manifest).expect("manifest serializes infallibly");
    fs::write(dir.join(MANIFEST), json)?;
    Ok(())
}

fn apply(store: &mut FlStore, record: LedgerRecord) {
    match record {
        LedgerRecord::Ingest { now, record } => {
            store.ingest_round(now, &record);
        }
        // Replay commits a serve's effects (cache, billing, ledger) and
        // drops its pending kernel: the output was answered before the
        // crash, and a kernel that panicked then must not panic recovery.
        // An original serve that errored (e.g. an unservable round)
        // replays to the identical side effects and the identical error.
        LedgerRecord::Serve { now, request } => {
            drop(store.serve_batch_deferred(now, std::slice::from_ref(&request)));
        }
        LedgerRecord::ServeBatch { now, requests } => {
            drop(store.serve_batch_deferred(now, &requests));
        }
        LedgerRecord::Evict { key } => {
            store.evict(&key);
        }
        LedgerRecord::Reclaim { need } => {
            store.reclaim(need);
        }
        LedgerRecord::Digest(_) => unreachable!("digests are verified by the replay loop"),
    }
}

fn replay_file(
    store: &mut FlStore,
    path: &Path,
    file: &str,
    torn_ok: bool,
) -> Result<(u32, Option<usize>), DurabilityError> {
    let bytes = fs::read(path)?;
    let parsed = parse_ledger(&bytes).map_err(|error| DurabilityError::Ledger {
        file: file.to_string(),
        error,
    })?;
    if parsed.torn.is_some() && !torn_ok {
        return Err(DurabilityError::TornInterior {
            file: file.to_string(),
        });
    }
    let mut applied = 0u32;
    for record in parsed.records {
        if let LedgerRecord::Digest(expected) = record {
            if store.durability_digest() != expected {
                return Err(DurabilityError::DigestMismatch {
                    file: file.to_string(),
                });
            }
            applied += 1;
            continue;
        }
        apply(store, record);
        applied += 1;
    }
    Ok((applied, parsed.torn))
}

/// Rebuilds the deployment persisted in `dir`, bit-identical to the
/// pre-crash store: same cache fingerprint, same cost ledger, same quota
/// occupancy, same responses to subsequent traffic. The returned store
/// has its ledger re-attached in append mode (and its cold tier
/// reinstalled, freshly cleared and deterministically re-filled by
/// replay), so serving can continue durably.
///
/// # Errors
///
/// Any [`DurabilityError`]: missing/corrupt manifest, corrupt ledger
/// bytes, a torn tail anywhere but the active file, a digest mismatch,
/// or an unreconstructible model/policy name.
pub fn recover(dir: &Path) -> Result<FlStore, DurabilityError> {
    let manifest_text = fs::read_to_string(dir.join(MANIFEST))
        .map_err(|e| DurabilityError::Manifest(format!("unreadable: {e}")))?;
    let manifest: Manifest = serde_json::from_str(&manifest_text)
        .map_err(|e| DurabilityError::Manifest(format!("undecodable: {e:?}")))?;
    if manifest.version != 1 {
        return Err(DurabilityError::Manifest(format!(
            "unsupported version {}",
            manifest.version
        )));
    }
    let model = ModelArch::by_name(&manifest.model)
        .ok_or_else(|| DurabilityError::UnknownModel(manifest.model.clone()))?;
    let policy = policy_by_name(&manifest.policy, manifest.config.seed)
        .ok_or_else(|| DurabilityError::UnreconstructiblePolicy(manifest.policy.clone()))?;
    let mut store = FlStore::new(
        manifest.config.clone(),
        policy,
        JobId::new(manifest.job),
        model,
    );

    // Cold tier before replay: replay re-derives every spill the
    // pre-crash store performed, so the tier's contents match exactly.
    // Clearing first (create wipes) is what keeps a stale entry from a
    // lost ledger tail out of the recovered store.
    if manifest.config.durability.spill {
        store.set_spill_backend(Box::new(DiskSpill::create(&dir.join(SPILL_DIR))?));
    }

    // Sealed segments in name order, digests verified...
    let mut segments: Vec<String> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("segment-") && name.ends_with(".log") {
            segments.push(name);
        }
    }
    // read_dir order is filesystem-dependent; the sort restores the
    // deterministic replay order the zero-padded names encode.
    segments.sort_unstable();
    for name in &segments {
        replay_file(&mut store, &dir.join(name), name, false)?;
    }
    // ...then the active tail, where a torn final record is a tolerated
    // crash artifact (its envelope was never acknowledged as durable).
    // The torn bytes are cut off before the ledger reopens for append,
    // so fresh records land at a valid boundary.
    let active = dir.join(ACTIVE_LEDGER);
    let active_records = if active.exists() {
        let (applied, torn) = replay_file(&mut store, &active, ACTIVE_LEDGER, true)?;
        if let Some(offset) = torn {
            let file = fs::OpenOptions::new().write(true).open(&active)?;
            file.set_len(offset as u64)?;
            file.sync_data()?;
        }
        applied
    } else {
        0
    };

    let next_segment = segments
        .iter()
        .filter_map(|name| {
            name.strip_prefix("segment-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u32>().ok())
        })
        .max()
        .map(|max| max + 1)
        .unwrap_or(0);
    debug_assert_eq!(segment_name(next_segment).len(), "segment-000000.log".len());
    let sink = DiskLedgerSink::append_existing(
        dir,
        manifest.config.durability,
        active_records,
        next_segment,
    )?;
    store.set_record_sink(Box::new(sink));
    Ok(store)
}
