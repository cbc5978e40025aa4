//! Typed transient-vs-permanent IO errors and a bounded retry/backoff
//! ladder.
//!
//! The durable layer distinguishes faults that *can clear* (an interrupted
//! syscall, a timeout, a disk that frees up) from faults that *cannot*
//! (missing file, permission denied, corrupt data). Transient faults earn a
//! short, bounded exponential-backoff ladder; permanent faults surface
//! immediately.

use std::io;
use std::time::Duration;

/// Maximum attempts, the first included.
const ATTEMPTS: u32 = 4;
/// Backoff before the second attempt; it doubles per attempt up to
/// [`MAX_BACKOFF`]. Tuned for local-disk transients, cheap enough to sit
/// on every durable commit.
const BASE_BACKOFF: Duration = Duration::from_millis(1);
/// Backoff cap.
const MAX_BACKOFF: Duration = Duration::from_millis(20);

/// Whether an IO error is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrorClass {
    /// The condition can clear on its own: retry with backoff.
    Transient,
    /// Retrying cannot help: surface immediately.
    Permanent,
}

/// Classifies an IO error. Interrupted reads/writes, timeouts, and ENOSPC
/// (space is routinely reclaimed by eviction or log rotation) are
/// transient; everything else — including corrupt data, which a retry
/// would only re-read — is permanent.
fn classify(err: &io::Error) -> ErrorClass {
    use io::ErrorKind::*;
    match err.kind() {
        Interrupted | WouldBlock | TimedOut | StorageFull | ResourceBusy | QuotaExceeded => {
            ErrorClass::Transient
        }
        _ => ErrorClass::Permanent,
    }
}

/// Backoff slept after the `attempt`-th failure (1-based).
fn backoff(attempt: u32) -> Duration {
    BASE_BACKOFF
        .saturating_mul(1u32 << attempt.saturating_sub(1).min(20))
        .min(MAX_BACKOFF)
}

/// Runs `op`, retrying transient errors with exponential backoff: at most
/// 4 attempts, 1 ms before the second, doubling to a 20 ms cap. Emits
/// `chaos.retries` per retry and `chaos.retry_giveups` when the ladder is
/// exhausted.
///
/// # Errors
///
/// The first permanent error, or the last transient error once the
/// attempts are exhausted.
pub fn with_retry<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match op() {
            Ok(value) => return Ok(value),
            Err(err) => {
                let transient = classify(&err) == ErrorClass::Transient;
                if !transient || attempt >= ATTEMPTS {
                    if transient {
                        shell_trace::counter_add("chaos.retry_giveups", 1);
                    }
                    return Err(err);
                }
                shell_trace::counter_add("chaos.retries", 1);
                std::thread::sleep(backoff(attempt));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_the_taxonomy() {
        let transient = io::Error::new(io::ErrorKind::Interrupted, "eintr");
        let enospc = io::Error::new(io::ErrorKind::StorageFull, "enospc");
        let permanent = io::Error::new(io::ErrorKind::NotFound, "missing");
        let corrupt = io::Error::new(io::ErrorKind::InvalidData, "torn");
        assert_eq!(classify(&transient), ErrorClass::Transient);
        assert_eq!(classify(&enospc), ErrorClass::Transient);
        assert_eq!(classify(&permanent), ErrorClass::Permanent);
        assert_eq!(classify(&corrupt), ErrorClass::Permanent);
    }

    #[test]
    fn transient_errors_retry_until_success() {
        let mut calls = 0;
        let out = with_retry(|| {
            calls += 1;
            if calls < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "eintr"))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!(out, 42);
        assert_eq!(calls, 3, "two transient failures, then success");
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let mut calls = 0;
        let err = with_retry(|| -> io::Result<()> {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::PermissionDenied, "denied"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(calls, 1, "permanent errors must not retry");
    }

    #[test]
    fn ladder_is_bounded_and_reports_giveup() {
        let mut calls = 0;
        let err = with_retry(|| -> io::Result<()> {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::TimedOut, "stuck"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(calls, 4, "attempts stop at 4");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(1), Duration::from_millis(1));
        assert_eq!(backoff(2), Duration::from_millis(2));
        assert_eq!(backoff(5), Duration::from_millis(16));
        assert_eq!(backoff(6), Duration::from_millis(20));
        assert_eq!(backoff(30), Duration::from_millis(20));
    }
}
