//! The disk-backed cold tier: pressure victims spill here instead of
//! being dropped, and serve-path misses fault them back.
//!
//! The tier is a *cache of the persistent store*, not a system of record:
//! every spilled object also exists in the (slow, billed) object store,
//! so recovery simply clears the directory and lets replay re-spill
//! deterministically — a stale on-disk entry from a lost ledger tail can
//! never leak into a recovered store. That is also why spill files are
//! written without fsync: losing one costs a re-fetch, never
//! correctness.
//!
//! One file per object, named by a percent-escaped rendering of the
//! object key (`/` → `%2F`, `%` → `%25` — injective, so distinct keys
//! never collide). File layout: `[logical-size u64 LE][payload bytes]`.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use flstore_core::durable::SpillBackend;
use flstore_fl::metadata::MetaKey;
use flstore_sim::bytes::ByteSize;

/// Disk-backed [`SpillBackend`].
#[derive(Debug)]
pub struct DiskSpill {
    dir: PathBuf,
    /// Authoritative index of what the tier holds (key → logical size).
    /// Rebuilt empty at attach/recovery (the directory is cleared), so it
    /// never disagrees with the files.
    index: BTreeMap<MetaKey, ByteSize>,
    /// Running logical-byte total, kept incrementally so `stats` is O(1).
    logical_total: ByteSize,
}

/// Escapes one object-key string into a safe, injective file name.
fn escape(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    for c in key.chars() {
        match c {
            '%' => out.push_str("%25"),
            '/' => out.push_str("%2F"),
            other => out.push(other),
        }
    }
    out
}

impl DiskSpill {
    /// Opens (and wipes) the tier directory: the cold tier always starts
    /// empty and is refilled by live pressure or deterministic replay.
    pub fn create(dir: &Path) -> io::Result<Self> {
        if dir.exists() {
            fs::remove_dir_all(dir)?;
        }
        fs::create_dir_all(dir)?;
        Ok(DiskSpill {
            dir: dir.to_path_buf(),
            index: BTreeMap::new(),
            logical_total: ByteSize::ZERO,
        })
    }

    fn path_of(&self, key: &MetaKey) -> PathBuf {
        self.dir.join(escape(key.object_key().as_str()))
    }
}

impl SpillBackend for DiskSpill {
    fn spill(&mut self, key: &MetaKey, payload: &[u8], logical: ByteSize) {
        let mut bytes = Vec::with_capacity(payload.len() + 8);
        bytes.extend_from_slice(&logical.as_bytes().to_le_bytes());
        bytes.extend_from_slice(payload);
        fs::write(self.path_of(key), bytes).expect("spill write failed");
        if let Some(prev) = self.index.insert(*key, logical) {
            self.logical_total = self.logical_total.saturating_sub(prev);
        }
        self.logical_total += logical;
    }

    fn fetch(&mut self, key: &MetaKey) -> Option<(Vec<u8>, ByteSize)> {
        let logical = self.index.remove(key)?;
        self.logical_total = self.logical_total.saturating_sub(logical);
        let path = self.path_of(key);
        let bytes = fs::read(&path);
        let _ = fs::remove_file(&path);
        // A missing, unreadable or cut-short file is a lost cache entry,
        // not a fault: the object is still in the persistent store, so
        // `None` sends the serve down the normal miss path.
        let bytes = bytes.ok()?;
        let (size, payload) = bytes.split_first_chunk::<8>()?;
        let stored = ByteSize::from_bytes(u64::from_le_bytes(*size));
        debug_assert_eq!(stored, logical, "spill index and file disagree");
        Some((payload.to_vec(), stored))
    }

    fn discard(&mut self, key: &MetaKey) {
        if let Some(logical) = self.index.remove(key) {
            self.logical_total = self.logical_total.saturating_sub(logical);
            let _ = fs::remove_file(self.path_of(key));
        }
    }

    fn stats(&self) -> (u64, ByteSize) {
        (self.index.len() as u64, self.logical_total)
    }
}
