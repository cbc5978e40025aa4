//! The [`Budget`] token and its [`Exhausted`] verdict.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a guarded engine stopped early.
///
/// Ordered by how deterministic the stop is: [`Exhausted::Quota`] and
/// [`Exhausted::Cancelled`] are exact and reproducible, while
/// [`Exhausted::Deadline`] depends on the wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exhausted {
    /// The wall-clock deadline passed.
    Deadline,
    /// The step/conflict quota ran out.
    Quota,
    /// [`Budget::cancel`] was called (by any holder of a clone).
    Cancelled,
}

impl Exhausted {
    /// Stable machine-readable label, used in checkpoint/report JSON.
    pub fn label(self) -> &'static str {
        match self {
            Exhausted::Deadline => "deadline",
            Exhausted::Quota => "quota",
            Exhausted::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`Exhausted::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "deadline" => Some(Exhausted::Deadline),
            "quota" => Some(Exhausted::Quota),
            "cancelled" => Some(Exhausted::Cancelled),
            _ => None,
        }
    }
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exhausted::Deadline => write!(f, "wall-clock deadline exceeded"),
            Exhausted::Quota => write!(f, "step quota exhausted"),
            Exhausted::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Sentinel quota meaning "no limit".
const UNLIMITED: u64 = u64::MAX;

/// How many [`Budget::checkpoint`] calls between wall-clock polls.
/// `Instant::now` costs a syscall on some platforms; amortizing it keeps a
/// checkpoint at two relaxed atomic loads on the fast path.
const DEADLINE_POLL_INTERVAL: u64 = 64;

struct Inner {
    /// Quota remaining; `UNLIMITED` disables the check.
    quota: AtomicU64,
    /// Quota the budget was armed with (for [`Budget::spent`] / [`Budget::fresh`]).
    initial_quota: u64,
    /// Absolute deadline, armed at construction.
    deadline: Option<Instant>,
    /// Deadline duration as given (so [`Budget::fresh`] can re-arm it).
    deadline_duration: Option<Duration>,
    /// Set by [`Budget::cancel`].
    cancelled: AtomicBool,
    /// Latched once the deadline is observed expired, so later checkpoints
    /// skip the clock entirely.
    expired: AtomicBool,
    /// Checkpoint counter driving the lazy deadline poll.
    polls: AtomicU64,
}

/// A shared, cheap resource-governance token.
///
/// Clones share state ([`Arc`] inside): spend and cancellation are visible
/// to every holder. The intended pattern is one budget per user request,
/// cloned into each engine the request fans out to.
///
/// ```
/// use shell_guard::{Budget, Exhausted};
/// let b = Budget::unlimited().with_quota(2);
/// assert!(b.spend(1).is_ok());
/// assert!(b.spend(1).is_ok());
/// assert_eq!(b.spend(1), Err(Exhausted::Quota));
/// assert_eq!(b.checkpoint(), Err(Exhausted::Quota));
/// ```
#[derive(Clone)]
pub struct Budget {
    inner: Arc<Inner>,
}

impl fmt::Debug for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Budget")
            .field("quota", &self.remaining_quota())
            .field("deadline", &self.inner.deadline_duration)
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    fn build(quota: u64, deadline_duration: Option<Duration>) -> Self {
        Budget {
            inner: Arc::new(Inner {
                quota: AtomicU64::new(quota),
                initial_quota: quota,
                deadline: deadline_duration.map(|d| Instant::now() + d),
                deadline_duration,
                cancelled: AtomicBool::new(false),
                expired: AtomicBool::new(false),
                polls: AtomicU64::new(0),
            }),
        }
    }

    /// A budget that never exhausts (until [`Budget::cancel`]).
    pub fn unlimited() -> Self {
        Budget::build(UNLIMITED, None)
    }

    /// Replaces the step quota, keeping the deadline. Builder-style; the
    /// returned budget shares nothing with `self`.
    pub fn with_quota(&self, quota: u64) -> Self {
        Budget::build(quota, self.inner.deadline_duration)
    }

    /// Replaces the wall-clock deadline (re-armed from *now*), keeping the
    /// quota. Builder-style; the returned budget shares nothing with `self`.
    pub fn with_deadline(&self, deadline: Duration) -> Self {
        Budget::build(self.inner.initial_quota, Some(deadline))
    }

    /// Environment-driven budget: honors `SHELL_DEADLINE_MS` (wall-clock
    /// milliseconds for the whole run) when set and parseable; otherwise
    /// unlimited. Engines that want a quota layer it on with
    /// [`Budget::with_quota`].
    pub fn from_env() -> Self {
        match std::env::var("SHELL_DEADLINE_MS") {
            Ok(v) => match v.trim().parse::<u64>() {
                Ok(ms) => Budget::unlimited().with_deadline(Duration::from_millis(ms)),
                Err(_) => Budget::unlimited(),
            },
            Err(_) => Budget::unlimited(),
        }
    }

    /// Builds the budget for one service request: the client may ask for a
    /// wall-clock deadline and/or a step (conflict) quota, and the server
    /// clamps both against its configured maxima so no single request can
    /// monopolize the worker pool.
    ///
    /// Clamping rules, per axis (deadline and quota independently):
    /// * request and maximum set → `min(request, maximum)`;
    /// * only the request set → the request;
    /// * only the maximum set → the maximum (a configured cap is a default,
    ///   not merely a ceiling — an unbounded request must not dodge it);
    /// * neither → unlimited on that axis.
    ///
    /// ```
    /// use shell_guard::Budget;
    /// let b = Budget::for_request(Some(10_000), Some(500), Some(2_000), None);
    /// assert_eq!(b.remaining_quota(), Some(500)); // quota uncapped
    /// // deadline was clamped from 10s to the 2s server maximum
    /// ```
    pub fn for_request(
        deadline_ms: Option<u64>,
        quota: Option<u64>,
        max_deadline_ms: Option<u64>,
        max_quota: Option<u64>,
    ) -> Self {
        let clamp = |req: Option<u64>, max: Option<u64>| match (req, max) {
            (Some(r), Some(m)) => Some(r.min(m)),
            (Some(r), None) => Some(r),
            (None, Some(m)) => Some(m),
            (None, None) => None,
        };
        let quota = clamp(quota, max_quota).unwrap_or(UNLIMITED);
        let deadline = clamp(deadline_ms, max_deadline_ms).map(Duration::from_millis);
        Budget::build(quota, deadline)
    }

    /// A new budget armed like this one was at construction: full quota,
    /// deadline re-armed from now, not cancelled. Used where an inner stage
    /// (e.g. key extraction after a resumed attack) must behave identically
    /// regardless of how much the outer loop already spent.
    pub fn fresh(&self) -> Self {
        Budget::build(self.inner.initial_quota, self.inner.deadline_duration)
    }

    /// Requests cooperative cancellation. Every holder of a clone observes
    /// it at its next [`Budget::checkpoint`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether [`Budget::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Steps remaining, or `None` when unlimited.
    pub fn remaining_quota(&self) -> Option<u64> {
        match self.inner.quota.load(Ordering::Relaxed) {
            UNLIMITED => None,
            q => Some(q),
        }
    }

    /// Steps spent so far (0 when unlimited).
    pub fn spent(&self) -> u64 {
        match self.inner.quota.load(Ordering::Relaxed) {
            UNLIMITED => 0,
            q => self.inner.initial_quota - q,
        }
    }

    /// Consumes `n` quota steps. Fails with [`Exhausted::Quota`] when fewer
    /// than `n` remain (draining what is left, so later checkpoints agree),
    /// and reports cancellation/deadline like [`Budget::checkpoint`].
    pub fn spend(&self, n: u64) -> Result<(), Exhausted> {
        self.checkpoint()?;
        if self.inner.quota.load(Ordering::Relaxed) == UNLIMITED {
            return Ok(());
        }
        let res = self
            .inner
            .quota
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |q| {
                if q == UNLIMITED {
                    None
                } else {
                    Some(q.saturating_sub(n))
                }
            });
        match res {
            Ok(prev) if prev >= n => Ok(()),
            _ => Err(Exhausted::Quota),
        }
    }

    /// The inner-loop poll. Fast path: two relaxed atomic loads; the wall
    /// clock is consulted once per `DEADLINE_POLL_INTERVAL` (64) calls.
    pub fn checkpoint(&self) -> Result<(), Exhausted> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Err(Exhausted::Cancelled);
        }
        if self.inner.quota.load(Ordering::Relaxed) == 0 {
            return Err(Exhausted::Quota);
        }
        if let Some(deadline) = self.inner.deadline {
            if self.inner.expired.load(Ordering::Relaxed) {
                return Err(Exhausted::Deadline);
            }
            let tick = self.inner.polls.fetch_add(1, Ordering::Relaxed);
            if tick.is_multiple_of(DEADLINE_POLL_INTERVAL) && Instant::now() >= deadline {
                self.inner.expired.store(true, Ordering::Relaxed);
                return Err(Exhausted::Deadline);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.checkpoint().unwrap();
            b.spend(1).unwrap();
        }
        assert_eq!(b.remaining_quota(), None);
        assert_eq!(b.spent(), 0);
    }

    #[test]
    fn quota_exhausts_at_exact_step() {
        let b = Budget::unlimited().with_quota(5);
        for i in 0..5 {
            assert!(b.spend(1).is_ok(), "step {i} should fit");
        }
        assert_eq!(b.spend(1), Err(Exhausted::Quota));
        assert_eq!(b.checkpoint(), Err(Exhausted::Quota));
        assert_eq!(b.spent(), 5);
    }

    #[test]
    fn overdraw_drains_and_fails() {
        let b = Budget::unlimited().with_quota(3);
        assert_eq!(b.spend(10), Err(Exhausted::Quota));
        assert_eq!(b.remaining_quota(), Some(0));
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let b = Budget::unlimited();
        let worker = b.clone();
        assert!(worker.checkpoint().is_ok());
        b.cancel();
        assert_eq!(worker.checkpoint(), Err(Exhausted::Cancelled));
        assert!(worker.is_cancelled());
    }

    #[test]
    fn cancellation_wins_over_quota() {
        let b = Budget::unlimited().with_quota(0);
        b.cancel();
        assert_eq!(b.checkpoint(), Err(Exhausted::Cancelled));
    }

    #[test]
    fn zero_deadline_expires() {
        let b = Budget::unlimited().with_deadline(Duration::from_millis(0));
        // The poll is amortized; drive enough checkpoints to hit it.
        let mut saw = None;
        for _ in 0..=DEADLINE_POLL_INTERVAL {
            if let Err(e) = b.checkpoint() {
                saw = Some(e);
                break;
            }
        }
        assert_eq!(saw, Some(Exhausted::Deadline));
        // Latched: immediate on the next call.
        assert_eq!(b.checkpoint(), Err(Exhausted::Deadline));
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        for _ in 0..1_000 {
            b.checkpoint().unwrap();
        }
    }

    #[test]
    fn fresh_rearms_quota_and_clears_cancel() {
        let b = Budget::unlimited().with_quota(2);
        b.spend(2).unwrap();
        b.cancel();
        let f = b.fresh();
        assert_eq!(f.remaining_quota(), Some(2));
        assert!(!f.is_cancelled());
        assert!(f.checkpoint().is_ok());
        // And the original is untouched by the fresh copy.
        assert_eq!(b.checkpoint(), Err(Exhausted::Cancelled));
    }

    #[test]
    fn clones_share_quota() {
        let b = Budget::unlimited().with_quota(4);
        let c = b.clone();
        b.spend(3).unwrap();
        assert_eq!(c.remaining_quota(), Some(1));
        assert_eq!(c.spend(2), Err(Exhausted::Quota));
    }

    #[test]
    fn for_request_clamps_each_axis_independently() {
        // request > max: clamped.
        let b = Budget::for_request(None, Some(1_000), None, Some(100));
        assert_eq!(b.remaining_quota(), Some(100));
        // request < max: the request wins.
        let b = Budget::for_request(None, Some(50), None, Some(100));
        assert_eq!(b.remaining_quota(), Some(50));
        // no request but a configured max: the max is the default cap.
        let b = Budget::for_request(None, None, None, Some(77));
        assert_eq!(b.remaining_quota(), Some(77));
        // nothing anywhere: unlimited.
        let b = Budget::for_request(None, None, None, None);
        assert_eq!(b.remaining_quota(), None);
        assert!(b.inner.deadline.is_none());
        // deadline axis clamps without touching the quota axis.
        let b = Budget::for_request(Some(60_000), Some(5), Some(1), None);
        assert_eq!(b.remaining_quota(), Some(5));
        assert_eq!(
            b.inner.deadline_duration,
            Some(Duration::from_millis(1)),
            "deadline clamped to the 1ms maximum"
        );
    }

    #[test]
    fn for_request_zero_quota_starts_exhausted() {
        // A hostile request asking for quota 0 (or a server max of 0) must
        // yield a budget that trips immediately, not an unlimited one.
        let b = Budget::for_request(None, Some(0), None, None);
        assert_eq!(b.checkpoint(), Err(Exhausted::Quota));
    }

    #[test]
    fn labels_round_trip() {
        for e in [Exhausted::Deadline, Exhausted::Quota, Exhausted::Cancelled] {
            assert_eq!(Exhausted::from_label(e.label()), Some(e));
        }
        assert_eq!(Exhausted::from_label("bogus"), None);
    }

    #[test]
    fn builder_combinators_compose() {
        let b = Budget::unlimited()
            .with_quota(7)
            .with_deadline(Duration::from_secs(60));
        assert_eq!(b.remaining_quota(), Some(7));
        let q = b.with_quota(9);
        assert_eq!(q.remaining_quota(), Some(9));
        // with_quota kept the deadline.
        assert!(q.inner.deadline.is_some());
    }
}
