//! The durable-commit discipline: atomic publication of whole files and
//! the startup sweep of the temp litter a crash leaves behind.
//!
//! ## Commit sequence
//!
//! ```text
//! 1. mkdir  <dir>                                  (parent, if missing)
//! 2. write  <dir>/.<name>.<pid>.<seq>.tmp          <the new bytes>
//! 3. sync   <dir>/.<name>.<pid>.<seq>.tmp
//! 4. rename <dir>/.<name>.<pid>.<seq>.tmp -> <dir>/<name>   (atomic publish)
//! ```
//!
//! The target changes only at step 4, and a rename lands whole or not at
//! all, so after a crash at **any** step the target holds exactly its old
//! value (or is still absent) or exactly the new one. Torn bytes can only
//! live in the temp file beside it; the owner of a directory runs
//! [`sweep_tmp`] over it at startup, before any reader walks it, so a
//! recovered tree holds no hybrid state anywhere. `tests/prop_atomic.rs`
//! proves the old-or-new property for arbitrary seeded crash points.
//!
//! Every call names its temp by process id and a process-wide sequence
//! number, so concurrent writers of one target never share a temp file:
//! each renames its own complete file over the target, and the last
//! rename wins.

use crate::io::Io;
use std::io::{self, ErrorKind};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Extension of in-flight temp files.
pub const TMP_EXT: &str = "tmp";

/// Sequence number that keeps this process's temp files apart.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically publishes `bytes` at `path`: same-directory temp file, fsync,
/// rename. A reader (or a crash) never observes a torn `path` — only the
/// old content, the new content, or temp litter swept by [`sweep_tmp`].
///
/// # Errors
///
/// Filesystem errors from any step; on error the target is untouched and
/// this call's temp file is removed (best effort).
pub fn atomic_write(io: &dyn Io, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        io.create_dir_all(dir)?;
    }
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, "atomic_write: no file name"))?;
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".{name}.{}.{seq}.{TMP_EXT}", std::process::id()));
    let published = io
        .write(&tmp, bytes)
        .and_then(|()| io.sync(&tmp))
        .and_then(|()| io.rename(&tmp, path));
    if published.is_err() {
        // No later call reuses this temp's name, so only this one can
        // clean it up before the next startup sweep.
        let _ = io.remove_file(&tmp);
    }
    published
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{ChaosConfig, ChaosIo, RealIo};
    use std::path::PathBuf;

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

    /// Crash at every mutating op of one commit (and one index past the
    /// last, where nothing crashes): after the startup sweep the target
    /// holds exactly the old or exactly the new bytes, alone in its
    /// directory.
    #[test]
    fn every_crash_point_recovers_to_old_or_new() {
        let old = b"OLD-OLD-OLD".to_vec();
        let new = b"NEW!NEW!NEW!NEW!".to_vec();
        let calm = ChaosIo::new(ChaosConfig::calm(0));
        let counting = tmp_dir("xp_count");
        atomic_write(&calm, &counting.join("state").join("value.bin"), &new).unwrap();
        let _ = std::fs::remove_dir_all(&counting);
        let ops = calm.mutating_ops();
        assert_eq!(ops, 4, "mkdir, write, sync, rename");
        for crash_at in 0..=ops {
            for seed in [1u64, 0xBEEF, 0x5EED] {
                let dir = tmp_dir(&format!("xp_{crash_at}_{seed:x}"));
                let target = dir.join("state").join("value.bin");
                atomic_write(&RealIo, &target, &old).unwrap();
                let chaos = ChaosIo::new(ChaosConfig::crash_at(seed, crash_at));
                let outcome = atomic_write(&chaos, &target, &new);
                assert_eq!(outcome.is_ok(), !chaos.crashed(), "crash at op {crash_at}");
                // Recovery runs on a fresh process (real IO).
                sweep_tmp(&RealIo, target.parent().unwrap());
                let observed = std::fs::read(&target).unwrap();
                if outcome.is_ok() {
                    assert_eq!(observed, new);
                } else {
                    assert!(
                        observed == old || observed == new,
                        "crash at op {crash_at} (seed {seed:#x}) left a hybrid: {observed:?}"
                    );
                }
                assert_eq!(
                    RealIo.list_dir(target.parent().unwrap()).unwrap(),
                    vec![target.clone()],
                    "the sweep must leave only the target"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
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
