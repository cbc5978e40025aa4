//! Typed transient-vs-permanent IO errors and a bounded retry/backoff
//! ladder.
//!
//! The durable layer distinguishes faults that *can clear* (an interrupted
//! syscall, a timeout, a disk that frees up) from faults that *cannot*
//! (missing file, permission denied, corrupt data). Transient faults earn a
//! short, bounded exponential-backoff ladder; permanent faults surface
//! immediately. Every attempt is journaled as a [`RetryAttempt`].

use shell_util::Json;
use std::io;
use std::time::Duration;

/// Whether an IO error is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The condition can clear on its own: retry with backoff.
    Transient,
    /// Retrying cannot help: surface immediately.
    Permanent,
}

impl ErrorClass {
    /// Stable lowercase label for logs and journals.
    pub fn label(self) -> &'static str {
        match self {
            ErrorClass::Transient => "transient",
            ErrorClass::Permanent => "permanent",
        }
    }
}

/// Classifies an IO error. Interrupted reads/writes, timeouts, and ENOSPC
/// (space is routinely reclaimed by eviction or log rotation) are
/// transient; everything else — including corrupt data, which a retry
/// would only re-read — is permanent.
pub fn classify(err: &io::Error) -> ErrorClass {
    use io::ErrorKind::*;
    match err.kind() {
        Interrupted | WouldBlock | TimedOut | StorageFull | ResourceBusy | QuotaExceeded => {
            ErrorClass::Transient
        }
        _ => ErrorClass::Permanent,
    }
}

/// One rung of the retry ladder, journaled for observability.
#[derive(Debug, Clone)]
pub struct RetryAttempt {
    /// 1-based attempt number.
    pub attempt: u32,
    /// The error that ended this attempt (`None` = success).
    pub error: Option<String>,
    /// Classification of that error.
    pub class: Option<ErrorClass>,
    /// Backoff slept *before* the next attempt, in microseconds.
    pub backoff_us: u64,
}

impl RetryAttempt {
    /// JSON shape: `{attempt, ok, error?, class?, backoff_us}`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("attempt", Json::from(u64::from(self.attempt))),
            ("ok", Json::from(self.error.is_none())),
        ];
        if let Some(err) = &self.error {
            fields.push(("error", Json::from(err.clone())));
        }
        if let Some(class) = self.class {
            fields.push(("class", Json::from(class.label())));
        }
        fields.push(("backoff_us", Json::from(self.backoff_us)));
        Json::obj(fields)
    }
}

/// A bounded exponential-backoff ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts (including the first). 1 = no retries.
    pub attempts: u32,
    /// Backoff before the second attempt.
    pub base: Duration,
    /// Backoff cap; doubling stops here.
    pub max: Duration,
}

impl Default for RetryPolicy {
    /// 4 attempts, 1ms base doubling to a 20ms cap — tuned for local-disk
    /// transients, cheap enough to sit on every durable commit.
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(1),
            max: Duration::from_millis(20),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (tests, or latency-critical paths).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            base: Duration::ZERO,
            max: Duration::ZERO,
        }
    }

    /// Backoff slept after the `attempt`-th failure (1-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let doubled = self
            .base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20));
        doubled.min(self.max)
    }
}

/// Runs `op` under `policy`, retrying transient errors with backoff and
/// journaling every rung into `ladder`. Emits `chaos.retries` per retry and
/// `chaos.retry_giveups` when the ladder is exhausted.
///
/// # Errors
///
/// The first permanent error, or the last transient error once `attempts`
/// is exhausted.
pub fn with_retry<T>(
    policy: &RetryPolicy,
    ladder: &mut Vec<RetryAttempt>,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match op() {
            Ok(value) => {
                ladder.push(RetryAttempt {
                    attempt,
                    error: None,
                    class: None,
                    backoff_us: 0,
                });
                return Ok(value);
            }
            Err(err) => {
                let class = classify(&err);
                let exhausted = class == ErrorClass::Permanent || attempt >= policy.attempts;
                let backoff = if exhausted {
                    Duration::ZERO
                } else {
                    policy.backoff(attempt)
                };
                ladder.push(RetryAttempt {
                    attempt,
                    error: Some(err.to_string()),
                    class: Some(class),
                    backoff_us: backoff.as_micros() as u64,
                });
                if exhausted {
                    if class == ErrorClass::Transient {
                        shell_trace::counter_add("chaos.retry_giveups", 1);
                    }
                    return Err(err);
                }
                shell_trace::counter_add("chaos.retries", 1);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
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
        let mut failures_left = 2;
        let mut ladder = Vec::new();
        let policy = RetryPolicy {
            base: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let out = with_retry(&policy, &mut ladder, || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(io::Error::new(io::ErrorKind::Interrupted, "eintr"))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!(out, 42);
        assert_eq!(ladder.len(), 3);
        assert!(ladder[0].error.is_some() && ladder[2].error.is_none());
        assert_eq!(ladder[0].class, Some(ErrorClass::Transient));
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let mut calls = 0;
        let mut ladder = Vec::new();
        let err = with_retry(
            &RetryPolicy::default(),
            &mut ladder,
            || -> io::Result<()> {
                calls += 1;
                Err(io::Error::new(io::ErrorKind::PermissionDenied, "denied"))
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(calls, 1, "permanent errors must not retry");
        assert_eq!(ladder.len(), 1);
    }

    #[test]
    fn ladder_is_bounded_and_reports_giveup() {
        let mut calls = 0;
        let mut ladder = Vec::new();
        let policy = RetryPolicy {
            attempts: 3,
            base: Duration::ZERO,
            max: Duration::ZERO,
        };
        let err = with_retry(&policy, &mut ladder, || -> io::Result<()> {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::TimedOut, "stuck"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(calls, 3);
        assert_eq!(ladder.len(), 3);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(1),
            max: Duration::from_millis(20),
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(1));
        assert_eq!(policy.backoff(2), Duration::from_millis(2));
        assert_eq!(policy.backoff(5), Duration::from_millis(16));
        assert_eq!(policy.backoff(6), Duration::from_millis(20));
        assert_eq!(policy.backoff(30), Duration::from_millis(20));
    }

    #[test]
    fn attempt_json_mirrors_attempt_record_shape() {
        let rung = RetryAttempt {
            attempt: 2,
            error: Some("eintr".into()),
            class: Some(ErrorClass::Transient),
            backoff_us: 2000,
        };
        let doc = rung.to_json();
        assert_eq!(doc.get("attempt").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("class").and_then(Json::as_str), Some("transient"));
        assert_eq!(doc.get("backoff_us").and_then(Json::as_u64), Some(2000));
    }
}
