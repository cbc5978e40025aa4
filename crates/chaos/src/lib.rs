//! # shell-chaos — deterministic IO fault injection and durable-commit discipline
//!
//! The locking service's crash-recovery story is only as strong as the
//! worst filesystem behavior it survives. This crate supplies both sides of
//! that proof:
//!
//! * **An [`Io`] seam** ([`io`]): the handful of filesystem primitives the
//!   durable state layer is allowed to use (read, write, fsync, rename,
//!   remove, list, mkdir). Production code runs [`RealIo`]; tests swap in
//!   [`ChaosIo`], a seeded shim that injects torn/partial writes, ENOSPC,
//!   fsync failure, transient read faults, and — the centerpiece — a
//!   **crash at the N-th mutating operation**: the operation applies
//!   *partially* (a prefix of the bytes, a coin-flipped rename) and every
//!   subsequent operation fails, exactly as a process killed mid-syscall
//!   would leave the disk.
//! * **A commit discipline** ([`commit`]): [`atomic_write`] (temp file +
//!   fsync + rename, never a torn target) and [`Journal`], a write-ahead
//!   intent journal whose recovery scan rolls every interrupted commit
//!   forward (intent present, target bytes verify) or back (anything
//!   else), so the observable state of a journaled target is always the
//!   old value or the new value — never a hybrid. The property test in
//!   `tests/prop_atomic.rs` pins exactly that, over arbitrary seeded crash
//!   points, with shrinking.
//! * **A retry taxonomy** ([`retry`]): [`classify`] splits IO errors into
//!   [`ErrorClass::Transient`] (interrupted, timeout, ENOSPC — worth
//!   retrying, the condition can clear) and [`ErrorClass::Permanent`];
//!   [`with_retry`] runs a bounded exponential-backoff ladder and journals
//!   every attempt as a [`RetryAttempt`].
//!
//! Everything is deterministic from a seed: the same `(seed, crash_at)`
//! pair reproduces the same torn bytes and the same recovery, which is what
//! lets the crash-point matrix in `shell-serve` enumerate every durable
//! commit step and assert byte-identical recovery at each one.
//!
//! The whole-file commit primitive through the production [`Io`]:
//!
//! ```
//! use shell_chaos::{atomic_write, read_string, real};
//!
//! let io = real();
//! let path = std::env::temp_dir().join(format!("shell_chaos_doc_{}.json", std::process::id()));
//! // Temp file + fsync + rename: readers see the old bytes or these, never a tear.
//! atomic_write(io.as_ref(), &path, b"{\"ok\": true}")?;
//! assert_eq!(read_string(io.as_ref(), &path)?, "{\"ok\": true}");
//! std::fs::remove_file(&path)?;
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod commit;
pub mod io;
pub mod retry;

pub use commit::{atomic_write, sweep_tmp, Journal, RecoveryReport, INTENT_EXT, TMP_EXT};
pub use io::{read_string, real, ChaosConfig, ChaosIo, Io, RealIo};
pub use retry::{classify, with_retry, ErrorClass, RetryAttempt, RetryPolicy};
