//! Cooperative cancellation: a cheap, cloneable token that a driver checks
//! between mining iterations.
//!
//! A [`CancellationToken`] is the concurrency-safe counterpart of returning
//! [`crate::IterationDecision::Stop`] from an observer: any thread holding a
//! clone can flip it, and a [`crate::Miner`] carrying the token (via
//! [`crate::Miner::with_cancellation`]) stops after the iteration in flight,
//! returning the rules mined so far with [`crate::MiningResult::cancelled`]
//! set. Cancellation is level-triggered and sticky — once cancelled, a token
//! stays cancelled.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sentinel for "no poll budget armed" — [`CancellationToken::is_cancelled`]
/// skips the budget bookkeeping entirely in the common case.
const BUDGET_DISABLED: i64 = i64::MIN;

/// Sentinel for "no wall-clock deadline armed".
const DEADLINE_DISABLED: u64 = u64::MAX;

#[derive(Debug)]
struct Inner {
    flag: AtomicBool,
    /// Remaining [`CancellationToken::is_cancelled`] calls before a
    /// [`CancellationToken::cancel_after_polls`] deadline self-cancels
    /// ([`BUDGET_DISABLED`] when unarmed).
    poll_budget: AtomicI64,
    /// Token creation time; the wall-clock deadline is stored relative to
    /// it so it fits an atomic.
    epoch: Instant,
    /// Nanoseconds after `epoch` at which the token self-cancels
    /// ([`DEADLINE_DISABLED`] when unarmed).
    deadline_nanos: AtomicU64,
}

/// A shared cancellation flag. Clones observe the same flag; `Default` and
/// [`CancellationToken::new`] start un-cancelled.
///
/// ```
/// use sirum_core::CancellationToken;
///
/// let token = CancellationToken::new();
/// let watcher = token.clone();
/// assert!(!watcher.is_cancelled());
/// token.cancel();
/// assert!(watcher.is_cancelled());
/// ```
#[derive(Debug, Clone)]
pub struct CancellationToken {
    inner: Arc<Inner>,
}

impl Default for CancellationToken {
    fn default() -> Self {
        CancellationToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                poll_budget: AtomicI64::new(BUDGET_DISABLED),
                epoch: Instant::now(),
                deadline_nanos: AtomicU64::new(DEADLINE_DISABLED),
            }),
        }
    }
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; wakes no threads by itself — the
    /// miner polls the flag at iteration boundaries (cooperative).
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Arm the token to self-cancel on the `n`-th [`Self::is_cancelled`]
    /// poll (counted across all clones). A latency test hook: it lets a
    /// single-threaded test cancel *mid-scan* at a deterministic point and
    /// then measure how many further polls a code path takes to notice —
    /// no racing helper thread, no wall-clock flakiness.
    pub fn cancel_after_polls(&self, n: u64) {
        let n = i64::try_from(n).unwrap_or(i64::MAX).max(1);
        self.inner.poll_budget.store(n, Ordering::Release);
    }

    /// Arm the token to self-cancel once `timeout` has elapsed (measured
    /// from *now*, observed at the next [`Self::is_cancelled`] poll — the
    /// deadline wakes no threads by itself, exactly like [`Self::cancel`]).
    /// Repeated arming keeps the *earliest* deadline; cancellation stays
    /// sticky once the deadline passes. This is the per-request deadline
    /// hook serving layers use to bound job runtime without a watchdog
    /// thread.
    pub fn cancel_after(&self, timeout: Duration) {
        let nanos = self
            .inner
            .epoch
            .elapsed()
            .saturating_add(timeout)
            .as_nanos()
            .min(u128::from(DEADLINE_DISABLED - 1)) as u64;
        self.inner.deadline_nanos.fetch_min(nanos, Ordering::AcqRel);
    }

    /// True once any clone has called [`Self::cancel`] (or an armed poll
    /// budget has run out).
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Acquire) {
            return true;
        }
        if self.inner.poll_budget.load(Ordering::Acquire) != BUDGET_DISABLED
            && self.inner.poll_budget.fetch_sub(1, Ordering::AcqRel) <= 1
        {
            self.cancel();
            return true;
        }
        let deadline = self.inner.deadline_nanos.load(Ordering::Acquire);
        if deadline != DEADLINE_DISABLED
            && self.inner.epoch.elapsed().as_nanos() >= u128::from(deadline)
        {
            self.cancel();
            return true;
        }
        false
    }
}

#[cfg(test)]
impl CancellationToken {
    /// Time left until an armed [`Self::cancel_after`] deadline, `None`
    /// when no deadline is armed. A token past its deadline reports
    /// `Some(Duration::ZERO)`.
    pub(crate) fn remaining(&self) -> Option<Duration> {
        let deadline = self.inner.deadline_nanos.load(Ordering::Acquire);
        if deadline == DEADLINE_DISABLED {
            return None;
        }
        let elapsed = self
            .inner
            .epoch
            .elapsed()
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        Some(Duration::from_nanos(deadline.saturating_sub(elapsed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancellationToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        b.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn fresh_tokens_are_independent() {
        let a = CancellationToken::new();
        let b = CancellationToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }

    #[test]
    fn poll_budget_cancels_at_the_deadline() {
        let t = CancellationToken::new();
        t.cancel_after_polls(3);
        assert!(!t.is_cancelled());
        assert!(!t.is_cancelled());
        assert!(t.is_cancelled(), "third poll hits the deadline");
        // Sticky from then on, across clones.
        assert!(t.clone().is_cancelled());
    }

    #[test]
    fn deadline_cancels_after_it_elapses() {
        let t = CancellationToken::new();
        t.cancel_after(Duration::from_millis(20));
        assert!(!t.is_cancelled(), "deadline has not elapsed yet");
        assert!(t.remaining().is_some());
        std::thread::sleep(Duration::from_millis(30));
        assert!(t.is_cancelled(), "deadline elapsed");
        assert!(t.clone().is_cancelled(), "sticky across clones");
    }

    #[test]
    fn earliest_deadline_wins_and_unarmed_reports_none() {
        let t = CancellationToken::new();
        assert_eq!(t.remaining(), None);
        t.cancel_after(Duration::from_secs(3600));
        t.cancel_after(Duration::from_secs(1));
        let remaining = t.remaining().expect("armed");
        assert!(remaining <= Duration::from_secs(1));
        // Re-arming with a later deadline must not extend it.
        t.cancel_after(Duration::from_secs(3600));
        assert!(t.remaining().expect("armed") <= Duration::from_secs(1));
    }

    #[test]
    fn unarmed_tokens_poll_forever() {
        let t = CancellationToken::new();
        for _ in 0..10_000 {
            assert!(!t.is_cancelled());
        }
    }
}
