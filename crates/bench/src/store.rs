//! `gpgpu-bench::store` — a persistent, content-addressed result cache.
//!
//! The [`RunEngine`](crate::RunEngine) already guarantees a spec is never
//! simulated twice *within* a process; the store extends that guarantee
//! across processes and sessions. Entries are addressed by the spec's
//! [content key](crate::codec::content_key): identical runs map to one
//! file no matter which process, `exp` invocation, or `exp serve` client
//! produced them.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/<hh>/<128-bit FNV-1a of key, 32 hex chars>.json    one entry
//! <root>/<hh>/<prefix-hash>.record.bin                      exec record
//! ```
//!
//! Execution records (`gpgpu_sim::record`, schema 1.2) are addressed by
//! the *CTA-policy-independent prefix* of the content key
//! ([`codec::content_key_prefix`]): every spec in a (workload, scale,
//! warp, cycles, gpu) group resolves to the same record file, which is
//! what lets one capture serve all of a sweep's replays across
//! processes.
//!
//! where `<hh>` is the first two hex characters (256-way sharding keeps
//! directories small at millions of entries). Each entry is one JSON
//! document: `schema_version`, the full key string (collision/corruption
//! check), the encoded spec, the encoded result, and the wall-clock
//! profile of the simulation that produced it. Telemetry is not stored:
//! a request for it always simulates. Entries written by older builds
//! may carry a `telemetry` pointer object; the loader ignores it.
//!
//! ## Durability & concurrency
//!
//! Writes go to a unique temporary file in the same directory followed by
//! an atomic rename, so a reader never observes a half-written entry and
//! concurrent writers (two engines sharing one store dir) race benignly —
//! simulations are deterministic, so both renames install identical
//! content.
//!
//! ## Corruption tolerance
//!
//! A read that fails to parse, fails the schema check on a *same-major*
//! document, or disagrees with the requested key is treated as a miss:
//! the caller falls back to re-simulation and the bad file is evicted
//! (renamed to `*.corrupt` so evidence survives for debugging, and so the
//! re-simulated result can be stored cleanly). Entries written by a
//! *different* schema major are left in place untouched — they are not
//! corrupt, just not ours to read.

use crate::codec::{
    self, content_key, content_key_prefix, result_from_json, result_to_json, spec_to_json,
    SCHEMA_VERSION,
};
use crate::engine::{RunResult, RunSpec};
use crate::json::Json;
use gpgpu_sim::ExecRecord;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// 128-bit FNV-1a over the key string. Stable across processes and
/// platforms (unlike `DefaultHasher`, whose output may change between
/// std releases), which is what makes the file names content addresses.
fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The content address (file stem) of a key string: 32 lowercase hex
/// characters.
pub fn content_address(key: &str) -> String {
    format!("{:032x}", fnv1a_128(key.as_bytes()))
}

/// What a successful [`ResultStore::load`] hands back.
#[derive(Debug)]
pub struct StoredRun {
    /// The rebuilt result (telemetry is never rebuilt — see the module
    /// docs; stored runs carry `telemetry: None`).
    pub result: RunResult,
    /// Wall-clock nanoseconds the *original* simulation took (so warm
    /// runs can report how much time the store saved).
    pub wall_nanos: u64,
}

/// Counters of one store handle's activity (process-local, not
/// persisted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads served from disk.
    pub hits: usize,
    /// Loads that found no entry.
    pub misses: usize,
    /// Entries written.
    pub stored: usize,
    /// Unreadable entries evicted (renamed to `*.corrupt`).
    pub evicted_corrupt: usize,
    /// Entries skipped because their schema major differs from ours.
    pub incompatible: usize,
    /// Wall-clock nanoseconds of simulation the hits originally cost
    /// (the time the store saved this process).
    pub saved_nanos: u64,
}

/// A persistent, content-addressed result cache rooted at one directory.
///
/// Cheap to share: all methods take `&self`; wrap in `Arc` to share
/// between an engine and a server.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    hits: AtomicUsize,
    misses: AtomicUsize,
    stored: AtomicUsize,
    evicted_corrupt: AtomicUsize,
    incompatible: AtomicUsize,
    saved_nanos: AtomicU64,
    tmp_nonce: AtomicUsize,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or is not writable.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        // Catch read-only mounts before the first simulation, not after.
        let probe = root.join(".write-probe");
        std::fs::File::create(&probe)?;
        std::fs::remove_file(&probe)?;
        Ok(ResultStore {
            root,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            stored: AtomicUsize::new(0),
            evicted_corrupt: AtomicUsize::new(0),
            incompatible: AtomicUsize::new(0),
            saved_nanos: AtomicU64::new(0),
            tmp_nonce: AtomicUsize::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// This handle's activity counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stored: self.stored.load(Ordering::Relaxed),
            evicted_corrupt: self.evicted_corrupt.load(Ordering::Relaxed),
            incompatible: self.incompatible.load(Ordering::Relaxed),
            saved_nanos: self.saved_nanos.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        let addr = content_address(key);
        self.root.join(&addr[..2]).join(format!("{addr}.json"))
    }

    /// Loads the entry for `spec`, if present and readable.
    ///
    /// Returns `None` on a miss — including a corrupt entry (which is
    /// evicted so the re-simulated result can replace it) and an entry
    /// from an incompatible schema major (which is left alone).
    pub fn load(&self, spec: &RunSpec) -> Option<StoredRun> {
        let key = content_key(spec);
        let path = self.entry_path(&key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match Self::decode_entry(&text, &key) {
            Ok(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.saved_nanos.fetch_add(hit.wall_nanos, Ordering::Relaxed);
                Some(hit)
            }
            Err(EntryError::Incompatible) => {
                self.incompatible.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(EntryError::Corrupt(why)) => {
                // Keep the evidence, clear the address.
                let quarantined = path.with_extension("json.corrupt");
                let _ = std::fs::rename(&path, &quarantined);
                eprintln!(
                    "warning: evicting corrupt store entry {} ({why})",
                    path.display()
                );
                self.evicted_corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn decode_entry(text: &str, key: &str) -> Result<StoredRun, EntryError> {
        let doc = Json::parse(text).map_err(|e| EntryError::Corrupt(e.to_string()))?;
        // A missing/malformed version field is corruption; a well-formed
        // *different* major is a compatibility boundary, not damage.
        match codec::schema_major_of(&doc) {
            None => return Err(EntryError::Corrupt("missing or malformed schema_version".into())),
            Some(major) if major != codec::SCHEMA_MAJOR => return Err(EntryError::Incompatible),
            Some(_) => {}
        }
        let stored_key = doc
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| EntryError::Corrupt("missing key".into()))?;
        if stored_key != key {
            return Err(EntryError::Corrupt(format!(
                "key mismatch (hash collision or tampering): stored {stored_key:?}"
            )));
        }
        let result = doc
            .get("result")
            .ok_or_else(|| EntryError::Corrupt("missing result".into()))
            .and_then(|r| result_from_json(r).map_err(|e| EntryError::Corrupt(e.to_string())))?;
        let wall_nanos = doc
            .get("profile")
            .and_then(|p| p.get("wall_nanos"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        Ok(StoredRun { result, wall_nanos })
    }

    /// Persists `result` under `spec`'s content address (atomic
    /// write-then-rename). Telemetry the result carries is not written.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; the entry file is never left half-written.
    pub fn save(&self, spec: &RunSpec, result: &RunResult, wall_nanos: u64) -> io::Result<()> {
        let key = content_key(spec);
        let path = self.entry_path(&key);
        let dir = path.parent().expect("entry paths have a shard parent");
        std::fs::create_dir_all(dir)?;
        let entry = Json::obj()
            .with("schema_version", Json::Str(SCHEMA_VERSION.into()))
            .with("key", Json::Str(key))
            .with("spec", spec_to_json(spec))
            .with("result", result_to_json(result))
            .with(
                "profile",
                Json::obj()
                    .with("wall_nanos", Json::UInt(wall_nanos))
                    .with("cycles", Json::UInt(result.stats.cycles))
                    .with("instructions", Json::UInt(result.stats.instructions)),
            );
        let mut text = entry.render();
        text.push('\n');
        self.write_atomic(&path, text.as_bytes())?;
        self.stored.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The path of the execution record covering `spec`'s replay group.
    fn record_path(&self, spec: &RunSpec) -> PathBuf {
        let addr = content_address(&content_key_prefix(spec));
        self.root.join(&addr[..2]).join(format!("{addr}.record.bin"))
    }

    /// Persists an execution record under `spec`'s *replay-group* address
    /// (the CTA-policy-independent key prefix), so any spec in the group
    /// finds it. Atomic like entry writes.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; the record file is never left half-written.
    pub fn save_record(&self, spec: &RunSpec, record: &ExecRecord) -> io::Result<()> {
        let path = self.record_path(spec);
        std::fs::create_dir_all(path.parent().expect("record paths have a shard parent"))?;
        let mut bytes = Vec::new();
        record.write_to(&mut bytes)?;
        self.write_atomic(&path, &bytes)
    }

    /// Loads the execution record covering `spec`'s replay group, if one
    /// was captured by any previous run in the group. An unreadable
    /// record is evicted (renamed `*.corrupt`) and reported as a miss, so
    /// the caller falls back to a fresh capture.
    pub fn load_record(&self, spec: &RunSpec) -> Option<ExecRecord> {
        let path = self.record_path(spec);
        let bytes = std::fs::read(&path).ok()?;
        match ExecRecord::read_from(&mut bytes.as_slice()) {
            Ok(rec) => Some(rec),
            Err(why) => {
                self.evict_record(spec, &why);
                None
            }
        }
    }

    /// Quarantines the record of `spec`'s replay group as corrupt
    /// (renamed `*.corrupt`, counted in
    /// [`StoreStats::evicted_corrupt`]), freeing its address for a fresh
    /// capture.
    pub(crate) fn evict_record(&self, spec: &RunSpec, why: &dyn std::fmt::Display) {
        let path = self.record_path(spec);
        let quarantined = path.with_extension("bin.corrupt");
        let _ = std::fs::rename(&path, &quarantined);
        eprintln!(
            "warning: evicting corrupt record {} ({why})",
            path.display()
        );
        self.evicted_corrupt.fetch_add(1, Ordering::Relaxed);
    }

    /// Writes `bytes` to `path` atomically: a unique temp file in the
    /// same directory, then a rename (atomic on POSIX; concurrent writers
    /// of the same deterministic content race benignly).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let nonce = self.tmp_nonce.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{nonce}", std::process::id()));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }
}

enum EntryError {
    /// Unreadable: evict and re-simulate.
    Corrupt(String),
    /// Readable by some other schema major, not ours: leave in place.
    Incompatible,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_spreads() {
        // Pinned: these values must never change across releases, or every
        // existing store directory silently stops resolving.
        assert_eq!(
            content_address(""),
            "6c62272e07bb014262b821756295c58d"
        );
        assert_eq!(
            content_address("single:vecadd"),
            format!("{:032x}", fnv1a_128(b"single:vecadd"))
        );
        let a = content_address("a");
        let b = content_address("b");
        assert_ne!(a, b);
        assert_eq!(a.len(), 32);
    }
}
