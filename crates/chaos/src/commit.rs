//! The durable-commit discipline: atomic publication and a write-ahead
//! intent journal with a recovery scan.
//!
//! ## Why two layers
//!
//! [`atomic_write`] (temp file in the same directory, fsync, rename) is
//! enough for *self-describing* files whose loss is tolerable — an attack
//! checkpoint that fails to parse simply resumes from scratch. The journal
//! adds the stronger guarantee the job queue and artifact cache need:
//! after a crash at **any** primitive operation of a commit, recovery
//! restores the target to exactly the old value or exactly the new value.
//!
//! ## Commit sequence
//!
//! ```text
//! 1. write  journal/<id>.intent   { target, len, fnv }     (write-ahead)
//! 2. sync   journal/<id>.intent
//! 3. write  journal/<id>.tmp      <the new bytes>
//! 4. sync   journal/<id>.tmp
//! 5. rename journal/<id>.tmp  ->  target                   (atomic publish)
//! 6. remove journal/<id>.intent                            (commit complete)
//! ```
//!
//! ## Recovery
//!
//! A lingering `.intent` means the process died between steps 1 and 6:
//!
//! * Intent unreadable/unparseable → death during step 1: the target was
//!   never touched. Drop the intent (**rollback**, old value stands).
//! * Intent parseable, target's bytes match the recorded length + FNV →
//!   death after step 5: the publish happened. Drop the intent (**roll
//!   forward**, new value stands).
//! * Anything else → death before the rename landed: the target still
//!   holds the old value (or never existed). Drop the intent and the temp
//!   file (**rollback**).
//!
//! Torn bytes can only ever live in `.tmp`/`.intent` files inside the
//! journal directory, and the scan removes all of them — so a recovered
//! tree contains no hybrid state anywhere. `tests/prop_atomic.rs` proves
//! the old-or-new property for arbitrary seeded crash points.

use crate::io::{read_string, Io};
use shell_util::Json;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Extension of write-ahead intent entries inside a journal directory.
pub const INTENT_EXT: &str = "intent";
/// Extension of in-flight temp files (journal directory and
/// [`atomic_write`] targets alike).
pub const TMP_EXT: &str = "tmp";

/// FNV-1a 64-bit over `bytes` — the journal's content fingerprint. Not
/// cryptographic (the artifact cache layers SHA-256 integrity on top); it
/// only has to distinguish a completed publish from a missing one.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Atomically publishes `bytes` at `path`: same-directory temp file, fsync,
/// rename. A reader (or a crash) never observes a torn `path` — only the
/// old content, the new content, or temp litter swept by [`sweep_tmp`].
///
/// # Errors
///
/// Filesystem errors from any step; on error the target is untouched.
pub fn atomic_write(io: &dyn Io, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        io.create_dir_all(dir)?;
    }
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, "atomic_write: no file name"))?;
    let tmp = path.with_file_name(format!(".{name}.{}.{TMP_EXT}", std::process::id()));
    io.write(&tmp, bytes)?;
    io.sync(&tmp)?;
    io.rename(&tmp, path)
}

/// Removes stale temp litter (`*.tmp`, [`atomic_write`]'s hidden temps)
/// from one directory. Run at startup, before any reader walks the tree.
/// Returns how many files were swept.
pub fn sweep_tmp(io: &dyn Io, dir: &Path) -> usize {
    let Ok(entries) = io.list_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for path in entries {
        let is_tmp = path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| e == TMP_EXT);
        if is_tmp && io.remove_file(&path).is_ok() {
            swept += 1;
            shell_trace::counter_add("journal.tmp_swept", 1);
        }
    }
    swept
}

/// What a [`Journal::recover`] scan did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Commits whose publish had landed: intent dropped, new value kept.
    pub rolled_forward: usize,
    /// Commits undone: intent (and temp) dropped, old value kept.
    pub rolled_back: usize,
    /// Temp files swept from the journal directory.
    pub tmp_swept: usize,
}

impl RecoveryReport {
    /// Total interrupted commits the scan resolved.
    pub fn interrupted(&self) -> usize {
        self.rolled_forward + self.rolled_back
    }
}

/// A write-ahead intent journal governing atomic commits to targets
/// anywhere on the same filesystem. One journal directory per durable
/// subsystem (job queue, artifact cache); commits may run concurrently —
/// intent ids are derived from target path and content so two writers of
/// the same artifact collide harmlessly.
#[derive(Debug, Clone)]
pub struct Journal {
    io: Arc<dyn Io>,
    dir: PathBuf,
}

impl Journal {
    /// Opens (creating) the journal directory.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn open(io: Arc<dyn Io>, dir: impl Into<PathBuf>) -> io::Result<Journal> {
        let dir = dir.into();
        io.create_dir_all(&dir)?;
        Ok(Journal { io, dir })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn intent_id(target: &Path, bytes: &[u8]) -> String {
        let mut tag = fnv64(target.as_os_str().as_encoded_bytes());
        tag ^= fnv64(bytes).rotate_left(1);
        format!("{tag:016x}")
    }

    /// Commits `bytes` to `target` under write-ahead intent (see the module
    /// docs for the exact sequence and its crash-recovery contract).
    ///
    /// # Errors
    ///
    /// Filesystem errors from any step. On error the target holds either
    /// its old value or the new one — never a hybrid — and a later
    /// [`Journal::recover`] resolves the lingering intent.
    pub fn commit(&self, target: &Path, bytes: &[u8]) -> io::Result<()> {
        let id = Self::intent_id(target, bytes);
        let intent_path = self.dir.join(format!("{id}.{INTENT_EXT}"));
        let tmp_path = self.dir.join(format!("{id}.{TMP_EXT}"));
        let intent = Json::obj([
            ("target", Json::from(target.display().to_string())),
            ("len", Json::from(bytes.len())),
            ("fnv", Json::from(format!("{:016x}", fnv64(bytes)))),
        ]);
        if let Some(parent) = target.parent().filter(|p| !p.as_os_str().is_empty()) {
            self.io.create_dir_all(parent)?;
        }
        self.io
            .write(&intent_path, intent.to_string_pretty().as_bytes())?;
        self.io.sync(&intent_path)?;
        self.io.write(&tmp_path, bytes)?;
        self.io.sync(&tmp_path)?;
        self.io.rename(&tmp_path, target)?;
        self.io.remove_file(&intent_path)?;
        shell_trace::counter_add("journal.commits", 1);
        Ok(())
    }

    /// Startup recovery scan: resolves every lingering intent (roll forward
    /// or roll back) and sweeps temp litter. Idempotent; call before any
    /// reader touches journaled targets.
    pub fn recover(&self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let Ok(entries) = self.io.list_dir(&self.dir) else {
            return report;
        };
        for path in &entries {
            let ext = path.extension().and_then(|e| e.to_str());
            if ext != Some(INTENT_EXT) {
                continue;
            }
            if self.resolve_intent(path) {
                report.rolled_forward += 1;
                shell_trace::counter_add("journal.rolled_forward", 1);
            } else {
                report.rolled_back += 1;
                shell_trace::counter_add("journal.rolled_back", 1);
            }
            let _ = self.io.remove_file(path);
        }
        report.tmp_swept = sweep_tmp(&*self.io, &self.dir);
        report
    }

    /// Returns `true` when the intent's publish had completed (the target
    /// holds exactly the recorded bytes) — roll forward. `false` means
    /// roll back; any half-written temp for this intent is removed.
    fn resolve_intent(&self, intent_path: &Path) -> bool {
        let parsed = read_string(&*self.io, intent_path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|doc| {
                Some((
                    PathBuf::from(doc.get("target")?.as_str()?),
                    doc.get("len")?.as_u64()? as usize,
                    doc.get("fnv")?.as_str()?.to_string(),
                ))
            });
        let Some((target, len, fnv)) = parsed else {
            // Torn intent: death during the write-ahead itself, before the
            // target could possibly have been touched.
            return false;
        };
        matches!(self.io.read(&target),
            Ok(bytes) if bytes.len() == len && format!("{:016x}", fnv64(&bytes)) == fnv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{ChaosConfig, ChaosIo, RealIo};
    use std::sync::atomic::{AtomicU64, Ordering};

    static UNIQUE: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "shell_chaos_commit_{tag}_{}_{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_publishes_and_leaves_no_litter() {
        let dir = tmp_dir("atomic");
        let io = RealIo;
        let target = dir.join("value.json");
        atomic_write(&io, &target, b"first").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"first");
        atomic_write(&io, &target, b"second").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second");
        let listed = io.list_dir(&dir).unwrap();
        assert_eq!(listed, vec![target.clone()], "no temp litter: {listed:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_commit_round_trips_and_clears_intents() {
        let dir = tmp_dir("commit");
        let journal = Journal::open(crate::io::real(), dir.join("journal")).unwrap();
        let target = dir.join("state").join("x.json");
        journal.commit(&target, b"{\"v\":1}").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"{\"v\":1}");
        assert!(
            RealIo.list_dir(journal.dir()).unwrap().is_empty(),
            "a completed commit leaves an empty journal"
        );
        // Recovery on a clean journal is a no-op.
        assert_eq!(journal.recover(), RecoveryReport::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Crash at every primitive op of one commit: recovery must leave the
    /// target at exactly the old or exactly the new bytes.
    #[test]
    fn every_crash_point_recovers_to_old_or_new() {
        let old = b"OLD-OLD-OLD".to_vec();
        let new = b"NEW!NEW!NEW!NEW!".to_vec();
        for crash_at in 0..12u64 {
            for seed in [1u64, 0xBEEF, 0x5EED] {
                let dir = tmp_dir(&format!("xp_{crash_at}_{seed:x}"));
                let target = dir.join("state").join("value.bin");
                // Clean baseline commit of the old value.
                let calm = Journal::open(crate::io::real(), dir.join("journal")).unwrap();
                calm.commit(&target, &old).unwrap();
                // Crashing commit of the new value.
                let chaos = Arc::new(ChaosIo::new(ChaosConfig::crash_at(seed, crash_at)));
                let journal = Journal::open(chaos.clone() as Arc<dyn Io>, dir.join("journal"));
                let outcome = journal.and_then(|j| j.commit(&target, &new).map(|()| j));
                let crashed = chaos.crashed();
                // Recovery runs on a fresh process (real IO).
                let recovered = Journal::open(crate::io::real(), dir.join("journal")).unwrap();
                recovered.recover();
                let observed = std::fs::read(&target).unwrap();
                if outcome.is_ok() {
                    assert!(!crashed, "commit cannot succeed after crashing");
                    assert_eq!(observed, new);
                } else {
                    assert!(
                        observed == old || observed == new,
                        "crash at op {crash_at} (seed {seed:#x}) left a hybrid: {observed:?}"
                    );
                }
                assert!(
                    RealIo.list_dir(&dir.join("journal")).unwrap().is_empty(),
                    "recovery must clear the journal"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn torn_intent_rolls_back_without_touching_target() {
        let dir = tmp_dir("torn_intent");
        let journal = Journal::open(crate::io::real(), dir.join("journal")).unwrap();
        let target = dir.join("t.json");
        journal.commit(&target, b"stable").unwrap();
        // Hand-craft a torn intent (prefix of valid JSON).
        std::fs::write(
            journal.dir().join(format!("deadbeef.{INTENT_EXT}")),
            b"{\n  \"target\": \"/nope",
        )
        .unwrap();
        let report = journal.recover();
        assert_eq!(report.rolled_back, 1);
        assert_eq!(std::fs::read(&target).unwrap(), b"stable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_publish_with_lingering_intent_rolls_forward() {
        let dir = tmp_dir("forward");
        let target = dir.join("t.json");
        std::fs::write(&target, b"the-new-value").unwrap();
        let journal = Journal::open(crate::io::real(), dir.join("journal")).unwrap();
        let intent = Json::obj([
            ("target", Json::from(target.display().to_string())),
            ("len", Json::from(b"the-new-value".len())),
            (
                "fnv",
                Json::from(format!("{:016x}", fnv64(b"the-new-value"))),
            ),
        ]);
        std::fs::write(
            journal.dir().join(format!("cafe.{INTENT_EXT}")),
            intent.to_string_pretty(),
        )
        .unwrap();
        let report = journal.recover();
        assert_eq!(report.rolled_forward, 1);
        assert_eq!(std::fs::read(&target).unwrap(), b"the-new-value");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_tmp_removes_only_temp_litter() {
        let dir = tmp_dir("sweep");
        std::fs::write(dir.join("keep.json"), b"{}").unwrap();
        std::fs::write(dir.join("drop.tmp"), b"partial").unwrap();
        std::fs::write(dir.join(".hidden.9.tmp"), b"partial").unwrap();
        assert_eq!(sweep_tmp(&RealIo, &dir), 2);
        assert!(dir.join("keep.json").exists());
        assert!(!dir.join("drop.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
