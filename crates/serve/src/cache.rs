//! The content-addressed artifact cache.
//!
//! The service's real workload (ARIANNA-style flows, fabric-parameter
//! sweeps) is many *repeated* lock/attack/verify requests over the same
//! circuits. The flow is deterministic — every artifact is a pure function
//! of (canonical netlist, flow parameters, seed) — so the cache can be
//! exact: the key is a [`ContentHash`] over the canonicalized request (see
//! `request::ResolvedJob`), and a hit serves the stored artifact bytes in
//! microseconds instead of re-running synthesis, PnR, or a SAT attack.
//!
//! Layout on disk, one JSON file per artifact:
//!
//! ```text
//! <root>/v<FLOW_VERSION>/<key[0..2]>/<key>.json
//!   { "flow_version": V, "key": "<sha256>", "hash": "<sha256 of payload>",
//!     "payload": { ... } }
//! ```
//!
//! Three properties the tests pin:
//!
//! * **Versioned keys.** The flow version is both in the path and in the
//!   envelope; bumping [`FLOW_VERSION`] (any change that alters what the
//!   flow computes for the same request) orphans every old entry at once —
//!   that is the explicit invalidation story, plus [`ArtifactCache::purge`]
//!   for operator-driven invalidation of the current version.
//! * **Self-verifying artifacts.** `hash` is the SHA-256 of the payload's
//!   canonical (compact) rendering. A corrupted or truncated file fails
//!   verification, counts as `cache.corrupt`, is deleted, and reads as a
//!   miss — the flow recomputes rather than serving damaged bytes.
//! * **Atomic publication.** Artifacts are published with
//!   [`shell_chaos::atomic_write`] (temp file, fsync, rename into place),
//!   so a concurrent reader never observes a partial write, two workers
//!   storing one key never tear it, and a crash mid-store leaves at most
//!   temp litter, which the startup scan sweeps.

use crate::hash::ContentHash;
use shell_chaos::Io;
use shell_util::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version of the flow whose outputs the cache stores. Bump on any change
/// that can alter an artifact for an unchanged request (solver heuristics,
/// PnR cost functions, report schemas, …) — stale entries then miss by
/// construction because the version is part of the key path.
pub const FLOW_VERSION: u32 = 11;

/// A content-addressed, self-verifying, atomically-published artifact
/// store. Thread-safe: all mutation is file-level (atomic rename) and the
/// statistics are atomics. All filesystem access goes through an [`Io`]
/// seam so fault injection can enumerate every commit step.
pub struct ArtifactCache {
    root: PathBuf,
    io: Arc<dyn Io>,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    evicted_startup: AtomicU64,
}

impl ArtifactCache {
    /// Opens (lazily — no I/O happens until a store) a cache rooted at
    /// `root`, on the real filesystem.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self::with_io(root, shell_chaos::real())
    }

    /// Opens a cache with an explicit [`Io`] seam.
    pub fn with_io(root: impl Into<PathBuf>, io: Arc<dyn Io>) -> Self {
        ArtifactCache {
            root: root.into(),
            io,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            evicted_startup: AtomicU64::new(0),
        }
    }

    /// The on-disk path an artifact for `key` lives at (whether or not it
    /// exists yet).
    pub fn path_for(&self, key: &ContentHash) -> PathBuf {
        self.root
            .join(format!("v{FLOW_VERSION}"))
            .join(key.shard())
            .join(format!("{}.json", key.as_hex()))
    }

    /// Looks `key` up. A hit returns the stored payload after re-verifying
    /// its integrity hash; a missing file, unreadable envelope, or hash
    /// mismatch is a miss (and a corrupt entry is deleted so it cannot
    /// poison later lookups). Counts `cache.hits` / `cache.misses` /
    /// `cache.corrupt` on both the cache's own statistics and the global
    /// trace counters.
    pub fn lookup(&self, key: &ContentHash) -> Option<Json> {
        let path = self.path_for(key);
        let verified = shell_chaos::read_string(&*self.io, &path)
            .ok()
            .and_then(|text| Self::verify(key, &text));
        match verified {
            Some(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                shell_trace::counter_add("cache.hits", 1);
                Some(payload)
            }
            None => {
                if self.io.exists(&path) {
                    // Present but unverifiable: corrupted artifact. Remove
                    // it; the caller recomputes and re-stores.
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    shell_trace::counter_add("cache.corrupt", 1);
                    let _ = self.io.remove_file(&path);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                shell_trace::counter_add("cache.misses", 1);
                None
            }
        }
    }

    /// Envelope verification: parseable, right version, right key, and the
    /// payload hashes to the stored integrity hash.
    fn verify(key: &ContentHash, text: &str) -> Option<Json> {
        let envelope = Json::parse(text).ok()?;
        if envelope.get("flow_version")?.as_u64()? != u64::from(FLOW_VERSION) {
            return None;
        }
        if envelope.get("key")?.as_str()? != key.as_hex() {
            return None;
        }
        let stored_hash = envelope.get("hash")?.as_str()?.to_string();
        let payload = envelope.get("payload")?.clone();
        if ContentHash::of_json(&payload).as_hex() != stored_hash {
            return None;
        }
        Some(payload)
    }

    /// Stores `payload` under `key` as one atomic publish (temp file,
    /// fsync, rename). Counts `cache.stores` and, as one of the service's
    /// durable commits, `journal.commits`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn store(&self, key: &ContentHash, payload: &Json) -> std::io::Result<PathBuf> {
        let path = self.path_for(key);
        let envelope = Json::obj([
            ("flow_version", Json::from(u64::from(FLOW_VERSION))),
            ("key", Json::from(key.as_hex())),
            ("hash", Json::from(ContentHash::of_json(payload).as_hex())),
            ("payload", payload.clone()),
        ]);
        let bytes = envelope.to_string_pretty();
        shell_chaos::atomic_write(&*self.io, &path, bytes.as_bytes())?;
        shell_trace::counter_add("journal.commits", 1);
        shell_trace::counter_add("cache.stores", 1);
        Ok(path)
    }

    /// Startup integrity scan: sweeps each shard's temp litter (all an
    /// interrupted store can leave), then verifies every envelope of the
    /// current flow version and evicts the ones that fail — corruption is
    /// discovered *now*, with an `cache.evicted_startup` count, instead of
    /// lazily per-request. Returns the number of entries evicted.
    /// Idempotent.
    pub fn scan_startup(&self) -> usize {
        let version_dir = self.root.join(format!("v{FLOW_VERSION}"));
        let mut evicted = 0;
        let Ok(shards) = self.io.list_dir(&version_dir) else {
            return 0;
        };
        for shard in shards {
            shell_chaos::sweep_tmp(&*self.io, &shard);
            let Ok(entries) = self.io.list_dir(&shard) else {
                continue;
            };
            for path in entries {
                let key = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(|s| ContentHash::from_hex(s).ok());
                let ok = match &key {
                    Some(key) => shell_chaos::read_string(&*self.io, &path)
                        .ok()
                        .and_then(|text| Self::verify(key, &text))
                        .is_some(),
                    // A file that is not `<sha256>.json` cannot be served;
                    // treat it as litter.
                    None => false,
                };
                if !ok && self.io.remove_file(&path).is_ok() {
                    evicted += 1;
                    self.evicted_startup.fetch_add(1, Ordering::Relaxed);
                    shell_trace::counter_add("cache.evicted_startup", 1);
                }
            }
        }
        evicted
    }

    /// Explicit invalidation of every entry of the *current* flow version.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (a missing directory is fine).
    pub fn purge(&self) -> std::io::Result<()> {
        let dir = self.root.join(format!("v{FLOW_VERSION}"));
        match std::fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Verified lookups served.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing servable.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries found on disk but failing integrity verification (each also
    /// counted as a miss).
    pub fn corrupt(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Entries evicted by [`ArtifactCache::scan_startup`].
    pub fn evicted_startup(&self) -> u64 {
        self.evicted_startup.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("shell_serve_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn payload(n: u64) -> Json {
        Json::obj([("bitstream", Json::from("deadbeef")), ("n", Json::from(n))])
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let cache = ArtifactCache::new(tmp_root("roundtrip"));
        let key = ContentHash::of_bytes(b"req-1");
        assert_eq!(cache.lookup(&key), None);
        assert_eq!(cache.misses(), 1);
        cache.store(&key, &payload(7)).unwrap();
        assert_eq!(cache.lookup(&key), Some(payload(7)));
        assert_eq!(cache.hits(), 1);
        // Byte-identical service: the stored file is stable, so two hits
        // return equal values (and equal serialized bytes).
        let a = cache.lookup(&key).unwrap().to_string_compact();
        let b = cache.lookup(&key).unwrap().to_string_compact();
        assert_eq!(a, b);
        assert_eq!(cache.hits(), 3);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corruption_is_detected_and_not_served() {
        let cache = ArtifactCache::new(tmp_root("corrupt"));
        let key = ContentHash::of_bytes(b"req-2");
        cache.store(&key, &payload(1)).unwrap();
        let path = cache.path_for(&key);
        // Flip a byte inside the payload section.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replace("\"n\": 1", "\"n\": 2");
        std::fs::write(&path, text).unwrap();
        assert_eq!(cache.lookup(&key), None, "tampered artifact must not serve");
        assert_eq!(cache.corrupt(), 1);
        assert!(!path.exists(), "corrupt entry is evicted");
        // Recompute-and-restore path works after eviction.
        cache.store(&key, &payload(1)).unwrap();
        assert_eq!(cache.lookup(&key), Some(payload(1)));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn truncated_and_garbage_files_read_as_misses() {
        let cache = ArtifactCache::new(tmp_root("garbage"));
        let key = ContentHash::of_bytes(b"req-3");
        cache.store(&key, &payload(3)).unwrap();
        let path = cache.path_for(&key);
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(cache.lookup(&key), None);
        std::fs::write(&path, "not json at all").unwrap();
        assert_eq!(cache.lookup(&key), None);
        assert_eq!(cache.corrupt(), 2);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn wrong_version_envelope_misses() {
        let cache = ArtifactCache::new(tmp_root("version"));
        let key = ContentHash::of_bytes(b"req-4");
        cache.store(&key, &payload(4)).unwrap();
        let path = cache.path_for(&key);
        let text = std::fs::read_to_string(&path).unwrap().replace(
            &format!("\"flow_version\": {FLOW_VERSION}"),
            &format!("\"flow_version\": {}", FLOW_VERSION + 1),
        );
        std::fs::write(&path, text).unwrap();
        assert_eq!(cache.lookup(&key), None, "version mismatch must miss");
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn startup_scan_evicts_corrupt_entries_and_keeps_good_ones() {
        let cache = ArtifactCache::new(tmp_root("scan"));
        let good = ContentHash::of_bytes(b"good");
        let bad = ContentHash::of_bytes(b"bad");
        cache.store(&good, &payload(1)).unwrap();
        cache.store(&bad, &payload(2)).unwrap();
        // Corrupt one envelope and drop temp litter plus a misnamed file.
        let bad_path = cache.path_for(&bad);
        let text = std::fs::read_to_string(&bad_path).unwrap();
        std::fs::write(&bad_path, &text[..text.len() / 2]).unwrap();
        let shard = cache.path_for(&good).parent().unwrap().to_path_buf();
        std::fs::write(shard.join("stray.tmp"), b"partial").unwrap();
        std::fs::write(shard.join("not-a-key.json"), b"{}").unwrap();
        let evicted = cache.scan_startup();
        assert_eq!(cache.evicted_startup(), evicted as u64);
        assert!(!bad_path.exists(), "corrupt envelope evicted at startup");
        assert!(!shard.join("stray.tmp").exists(), "temp litter swept");
        assert!(
            !shard.join("not-a-key.json").exists(),
            "misnamed file evicted"
        );
        assert_eq!(cache.lookup(&good), Some(payload(1)), "good entry survives");
        // Second scan finds nothing left to evict.
        assert_eq!(cache.scan_startup(), 0);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn store_recovers_from_crash_points() {
        use shell_chaos::{ChaosConfig, ChaosIo, Io};
        let root = tmp_root("chaos_store");
        let key = ContentHash::of_bytes(b"chaos");
        // Baseline entry via a clean store.
        ArtifactCache::new(&root).store(&key, &payload(1)).unwrap();
        for crash_at in 0..10u64 {
            let chaos = std::sync::Arc::new(ChaosIo::new(ChaosConfig::crash_at(7, crash_at)));
            let cache = ArtifactCache::with_io(&root, chaos.clone() as std::sync::Arc<dyn Io>);
            let _ = cache.store(&key, &payload(2));
            // Restart: fresh cache on real IO, startup scan recovers.
            let recovered = ArtifactCache::new(&root);
            recovered.scan_startup();
            let served = recovered
                .lookup(&key)
                .expect("entry must survive the crash");
            assert!(
                served == payload(1) || served == payload(2),
                "crash at {crash_at} left a hybrid: {served:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn purge_invalidates_current_version() {
        let cache = ArtifactCache::new(tmp_root("purge"));
        let key = ContentHash::of_bytes(b"req-5");
        cache.store(&key, &payload(5)).unwrap();
        cache.purge().unwrap();
        assert_eq!(cache.lookup(&key), None);
        cache.purge().unwrap(); // idempotent on a missing dir
        let _ = std::fs::remove_dir_all(cache.root());
    }
}
