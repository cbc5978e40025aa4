//! Worker-count resolution: override > `SHELL_JOBS` > available cores.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide override; 0 means "unset".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The worker count the pool entry points will use *right now*.
///
/// Resolution order:
/// 1. the in-process override of [`with_jobs`],
/// 2. the `SHELL_JOBS` environment variable (a positive integer; anything
///    else is ignored),
/// 3. [`std::thread::available_parallelism`], falling back to 1 when the
///    platform cannot report it.
pub fn current_jobs() -> usize {
    match JOBS_OVERRIDE.load(Ordering::Acquire) {
        0 => env_or_available(),
        n => n,
    }
}

fn env_or_available() -> usize {
    if let Ok(v) = std::env::var("SHELL_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` with the worker count pinned to `jobs`, restoring the previous
/// override afterwards (also on panic).
///
/// This is how the determinism tests sweep `jobs = 1, 2, 8` inside one
/// process, and how a benchmark pins its worker count without re-spawning
/// itself.
pub fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOBS_OVERRIDE.store(self.0, Ordering::Release);
        }
    }
    let prev = JOBS_OVERRIDE.swap(jobs.max(1), Ordering::AcqRel);
    let _restore = Restore(prev);
    f()
}

/// Serializes every test in this crate that sets the override: it is
/// process-global, cargo runs `#[test]` functions concurrently, and a test
/// that reads the ambient count must not observe another test's pin.
#[cfg(test)]
pub(crate) fn override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the guarded `()` carries no state.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_and_restore() {
        let _override = override_lock();
        let ambient = current_jobs();
        assert!(ambient >= 1);

        let inside = with_jobs(3, current_jobs);
        assert_eq!(inside, 3);
        assert_eq!(current_jobs(), ambient, "override restored");

        // Nested overrides restore in LIFO order.
        let (outer, inner) = with_jobs(2, || {
            let inner = with_jobs(5, current_jobs);
            (current_jobs(), inner)
        });
        assert_eq!(outer, 2);
        assert_eq!(inner, 5);

        // Restored even when the closure panics.
        let caught = std::panic::catch_unwind(|| with_jobs(7, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(current_jobs(), ambient);

        // Zero clamps to one (sequential), never to "unset".
        assert_eq!(with_jobs(0, current_jobs), 1);
    }
}
