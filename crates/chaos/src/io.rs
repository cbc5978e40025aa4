//! The filesystem seam: a small [`Io`] trait, the production [`RealIo`],
//! and the fault-injecting [`ChaosIo`].
//!
//! The trait is deliberately primitive — one method per syscall-shaped
//! operation, no compound helpers — because fault injection points live
//! *between* primitives: a torn write is a `write` that kept a prefix, a
//! crash between temp-write and rename is a death at the op boundary. Any
//! compound operation (atomic publish, journaled commit) is built on top in
//! [`crate::commit`], where every constituent step is individually
//! interruptible.

use shell_util::split_mix64;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The filesystem operations durable state is allowed to perform.
///
/// Implementations must be thread-safe: the job server calls them from the
/// accept thread, every worker, and the recovery scan.
pub trait Io: Send + Sync + std::fmt::Debug {
    /// Reads the whole file.
    ///
    /// # Errors
    ///
    /// Missing files, permission failures, injected faults.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Creates/truncates `path` and writes `bytes`.
    ///
    /// # Errors
    ///
    /// Filesystem errors and injected faults (torn writes report success to
    /// nobody: the fault model is a crash, so the caller never sees them).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Flushes `path`'s data to stable storage (fsync).
    ///
    /// # Errors
    ///
    /// Filesystem errors and injected sync failures.
    fn sync(&self, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` to `to` (same filesystem).
    ///
    /// # Errors
    ///
    /// Filesystem errors and injected faults.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// Filesystem errors and injected faults.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Creates a directory and all missing parents.
    ///
    /// # Errors
    ///
    /// Filesystem errors and injected faults.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Lists a directory's entries, sorted (determinism: recovery must
    /// process entries in the same order on every run).
    ///
    /// # Errors
    ///
    /// Filesystem errors; a missing directory is an empty listing.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Whether `path` exists. After an injected crash this reports `false`
    /// — a dead process observes nothing.
    fn exists(&self, path: &Path) -> bool;
}

/// Reads a file as UTF-8 text through an [`Io`].
///
/// # Errors
///
/// Read errors and invalid UTF-8 (as [`io::ErrorKind::InvalidData`]).
pub fn read_string(io: &dyn Io, path: &Path) -> io::Result<String> {
    let bytes = io.read(path)?;
    String::from_utf8(bytes).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not UTF-8: {e}", path.display()),
        )
    })
}

/// The production implementation: straight `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

/// A shared handle to the production [`RealIo`].
pub fn real() -> std::sync::Arc<dyn Io> {
    std::sync::Arc::new(RealIo)
}

impl Io for RealIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let entries = match std::fs::read_dir(path) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        Ok(paths)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// What a [`ChaosIo`] injects. All probabilities are per-mille (0..=1000)
/// and decided deterministically from `(seed, op index)`, so the same
/// configuration replays the same faults.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Root seed for every per-op decision.
    pub seed: u64,
    /// Die at this 0-indexed **mutating** operation: the op applies
    /// partially (prefix write, coin-flipped rename/remove), then every
    /// later operation — reads included — fails. `None` never crashes.
    pub crash_at: Option<u64>,
    /// Per-mille of mutating ops that fail with ENOSPC
    /// ([`io::ErrorKind::StorageFull`], classified transient).
    pub enospc_per_mille: u32,
    /// Per-mille of [`Io::sync`] calls that fail (classified transient).
    pub sync_fail_per_mille: u32,
    /// Per-mille of reads that fail with [`io::ErrorKind::Interrupted`]
    /// (the short-read model: the caller must retry, classified transient).
    pub short_read_per_mille: u32,
}

impl ChaosConfig {
    /// No injected faults at all — pure operation counting. The recording
    /// pass of a crash-point matrix runs calm to learn how many mutating
    /// ops a scenario performs.
    pub fn calm(seed: u64) -> Self {
        ChaosConfig {
            seed,
            crash_at: None,
            enospc_per_mille: 0,
            sync_fail_per_mille: 0,
            short_read_per_mille: 0,
        }
    }

    /// Calm until mutating op `at`, then crash (with partial application).
    pub fn crash_at(seed: u64, at: u64) -> Self {
        ChaosConfig {
            crash_at: Some(at),
            ..ChaosConfig::calm(seed)
        }
    }
}

/// Seeded fault-injecting [`Io`] over the real filesystem.
///
/// Mutating operations (`write`, `rename`, `remove_file`, `create_dir_all`,
/// `sync`) are numbered in call order; the number drives every injection
/// decision. After the configured crash the shim is **dead**: all
/// operations fail with a `"chaos: process crashed"` error and `exists`
/// reports false, modelling a killed process whose last syscall half
/// landed. The harness polls [`ChaosIo::crashed`] and tears the server
/// down the way a SIGKILL would.
#[derive(Debug)]
pub struct ChaosIo {
    config: ChaosConfig,
    real: RealIo,
    mutating_ops: AtomicU64,
    crashed: AtomicBool,
    injected: AtomicU64,
    torn: AtomicU64,
}

/// Decision word for op `index`: an independent SplitMix64 draw.
fn decide(seed: u64, index: u64, salt: u64) -> u64 {
    let mut s = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    split_mix64(&mut s)
}

fn crashed_error() -> io::Error {
    io::Error::other("chaos: process crashed")
}

impl ChaosIo {
    /// A new shim with `config`'s fault plan.
    pub fn new(config: ChaosConfig) -> Self {
        ChaosIo {
            config,
            real: RealIo,
            mutating_ops: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            injected: AtomicU64::new(0),
            torn: AtomicU64::new(0),
        }
    }

    /// Mutating operations performed so far (the crash-point index space).
    pub fn mutating_ops(&self) -> u64 {
        self.mutating_ops.load(Ordering::SeqCst)
    }

    /// Whether the configured crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Faults injected so far (ENOSPC, sync failures, short reads, the
    /// crash itself).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Writes the crash left partially applied (a strict prefix kept).
    pub fn torn_writes(&self) -> u64 {
        self.torn.load(Ordering::SeqCst)
    }

    fn count_injected(&self, what: &'static str) {
        self.injected.fetch_add(1, Ordering::SeqCst);
        shell_trace::counter_add("chaos.injected", 1);
        shell_trace::counter_add(what, 1);
    }

    fn check_dead(&self) -> io::Result<()> {
        if self.crashed() {
            Err(crashed_error())
        } else {
            Ok(())
        }
    }

    /// Claims the next mutating-op index, deciding whether this op crashes
    /// or fails with ENOSPC. Returns `(index, decision_word, crash_now)`.
    fn mutating_op(&self) -> io::Result<(u64, u64, bool)> {
        self.check_dead()?;
        let index = self.mutating_ops.fetch_add(1, Ordering::SeqCst);
        shell_trace::counter_add("chaos.ops", 1);
        let word = decide(self.config.seed, index, 0x0A11_0C8A);
        if self.config.crash_at == Some(index) {
            self.crashed.store(true, Ordering::SeqCst);
            self.count_injected("chaos.crashes");
            return Ok((index, word, true));
        }
        if self.config.enospc_per_mille > 0 && word % 1000 < u64::from(self.config.enospc_per_mille)
        {
            self.count_injected("chaos.enospc");
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "chaos: injected ENOSPC",
            ));
        }
        Ok((index, word, false))
    }
}

impl Io for ChaosIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.check_dead()?;
        if self.config.short_read_per_mille > 0 {
            // Reads get their own op counter so a read fault does not shift
            // the crash-point index space of the mutating ops.
            let index = self.mutating_ops.load(Ordering::SeqCst);
            let word = decide(
                self.config.seed,
                index,
                0x5EAD ^ path.as_os_str().len() as u64,
            );
            if word % 1000 < u64::from(self.config.short_read_per_mille) {
                self.count_injected("chaos.short_reads");
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "chaos: injected short read",
                ));
            }
        }
        self.real.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let (_, word, crash) = self.mutating_op()?;
        if crash {
            // The op the process died inside: a prefix of the bytes lands.
            let keep = (word as usize) % (bytes.len() + 1);
            let _ = self.real.write(path, &bytes[..keep]);
            if keep > 0 && keep < bytes.len() {
                self.torn.fetch_add(1, Ordering::SeqCst);
                shell_trace::counter_add("chaos.torn_writes", 1);
            }
            return Err(crashed_error());
        }
        self.real.write(path, bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let (index, _, crash) = self.mutating_op()?;
        if crash {
            // Data not yet flushed may or may not be durable; the tmpfs
            // backing the tests never loses it, so the crash is just death.
            return Err(crashed_error());
        }
        if self.config.sync_fail_per_mille > 0 {
            let word = decide(self.config.seed, index, 0xF5F5_F517);
            if word % 1000 < u64::from(self.config.sync_fail_per_mille) {
                self.count_injected("chaos.sync_fails");
                // EINTR-shaped: the retry ladder classifies it transient.
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "chaos: injected fsync failure",
                ));
            }
        }
        self.real.sync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let (_, word, crash) = self.mutating_op()?;
        if crash {
            // Rename is atomic in the kernel: it either happened before the
            // death or it did not. Coin-flip which.
            if word & (1 << 20) == 0 {
                let _ = self.real.rename(from, to);
            }
            return Err(crashed_error());
        }
        self.real.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let (_, word, crash) = self.mutating_op()?;
        if crash {
            if word & (1 << 21) == 0 {
                let _ = self.real.remove_file(path);
            }
            return Err(crashed_error());
        }
        self.real.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let (_, word, crash) = self.mutating_op()?;
        if crash {
            if word & (1 << 22) == 0 {
                let _ = self.real.create_dir_all(path);
            }
            return Err(crashed_error());
        }
        self.real.create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.check_dead()?;
        self.real.list_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        !self.crashed() && self.real.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;

    static UNIQUE: Counter = Counter::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "shell_chaos_io_{tag}_{}_{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_io_round_trips_and_lists_sorted() {
        let dir = tmp_dir("real");
        let io = RealIo;
        io.write(&dir.join("b.txt"), b"bee").unwrap();
        io.write(&dir.join("a.txt"), b"ay").unwrap();
        assert_eq!(io.read(&dir.join("a.txt")).unwrap(), b"ay");
        let listed = io.list_dir(&dir).unwrap();
        assert_eq!(
            listed,
            vec![dir.join("a.txt"), dir.join("b.txt")],
            "listing must be sorted"
        );
        assert_eq!(
            io.list_dir(&dir.join("missing")).unwrap(),
            Vec::<PathBuf>::new()
        );
        io.rename(&dir.join("a.txt"), &dir.join("c.txt")).unwrap();
        assert!(io.exists(&dir.join("c.txt")));
        io.remove_file(&dir.join("c.txt")).unwrap();
        assert!(!io.exists(&dir.join("c.txt")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_at_kills_every_later_op() {
        let dir = tmp_dir("crash");
        let io = ChaosIo::new(ChaosConfig::crash_at(7, 1));
        io.write(&dir.join("first"), b"ok").unwrap();
        let err = io.write(&dir.join("second"), b"dies").unwrap_err();
        assert!(err.to_string().contains("crashed"), "{err}");
        assert!(io.crashed());
        // Dead shim: even reads and existence checks fail.
        assert!(io.read(&dir.join("first")).is_err());
        assert!(!io.exists(&dir.join("first")));
        assert!(io.write(&dir.join("third"), b"x").is_err());
        // The real file from before the crash is intact on disk.
        assert_eq!(std::fs::read(dir.join("first")).unwrap(), b"ok");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_write_keeps_a_deterministic_prefix() {
        let payload = vec![0xABu8; 64];
        let observe = |seed: u64| {
            let dir = tmp_dir(&format!("torn_{seed}"));
            let io = ChaosIo::new(ChaosConfig::crash_at(seed, 0));
            let _ = io.write(&dir.join("t"), &payload);
            let kept = std::fs::read(dir.join("t")).map(|b| b.len()).unwrap_or(0);
            let _ = std::fs::remove_dir_all(&dir);
            kept
        };
        for seed in 0..16 {
            let a = observe(seed);
            let b = observe(seed);
            assert_eq!(a, b, "seed {seed}: torn length must be deterministic");
            assert!(a <= payload.len());
        }
        // Across seeds the prefix length varies (otherwise it is no model
        // of a torn write at all).
        let lens: std::collections::BTreeSet<usize> = (0..16).map(observe).collect();
        assert!(lens.len() > 1, "torn lengths never varied: {lens:?}");
    }

    #[test]
    fn enospc_is_deterministic_per_op_index() {
        let run = || {
            let dir = tmp_dir("enospc");
            let io = ChaosIo::new(ChaosConfig {
                enospc_per_mille: 400,
                ..ChaosConfig::calm(0xD15C)
            });
            let outcomes: Vec<bool> = (0..32)
                .map(|i| io.write(&dir.join(format!("f{i}")), b"x").is_ok())
                .collect();
            let _ = std::fs::remove_dir_all(&dir);
            outcomes
        };
        let a = run();
        assert_eq!(a, run(), "fault schedule must replay exactly");
        assert!(a.iter().any(|&ok| ok) && a.iter().any(|&ok| !ok));
        // ENOSPC is typed StorageFull so the retry ladder classifies it.
        let dir = tmp_dir("enospc_kind");
        let io = ChaosIo::new(ChaosConfig {
            enospc_per_mille: 1000,
            ..ChaosConfig::calm(1)
        });
        let err = io.write(&dir.join("f"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mutating_op_count_ignores_reads() {
        let dir = tmp_dir("count");
        let io = ChaosIo::new(ChaosConfig::calm(3));
        io.write(&dir.join("f"), b"x").unwrap();
        for _ in 0..5 {
            io.read(&dir.join("f")).unwrap();
            io.list_dir(&dir).unwrap();
            assert!(io.exists(&dir.join("f")));
        }
        assert_eq!(io.mutating_ops(), 1, "reads must not shift crash indices");
        io.sync(&dir.join("f")).unwrap();
        io.remove_file(&dir.join("f")).unwrap();
        assert_eq!(io.mutating_ops(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
