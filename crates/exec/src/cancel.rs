//! Cooperative cancellation for long-running ATPG campaigns.
//!
//! A [`CancelToken`] is a cheap, clonable handle shared between a driver and
//! the kernels it governs.  Cancellation is **cooperative**: nothing is
//! interrupted preemptively; instead the kernels poll
//! [`CancelToken::is_cancelled`] at their natural safe points — BDD
//! operation entry, PPSFP block loops, MNA sweep frequencies — and unwind
//! cleanly (returning structured errors, never
//! panicking) when the token has fired.
//!
//! Three triggers can fire a token:
//!
//! * **Explicit** — [`CancelToken::cancel`], e.g. a service front end
//!   aborting a request.
//! * **Deterministic step quota** — a budget of abstract work units armed
//!   with [`CancelToken::with_step_quota`] and consumed with
//!   [`CancelToken::charge`].  The *determinism contract* is that only the
//!   driver charges the quota, at points whose order does not depend on
//!   scheduling (per fault target in replay order, per pattern block, per
//!   sweep frequency).  The kernels merely *observe* the token: once the
//!   quota fires, which faults are aborted is decided by the driver's
//!   deterministic replay order.
//! * **Wall-clock deadline** — [`CancelToken::with_deadline`].  This one is
//!   inherently timing-dependent; use it for operational hard stops, not in
//!   determinism-sensitive tests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`CancelToken`] fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called.
    Requested,
    /// The deterministic step quota was exhausted by [`CancelToken::charge`].
    StepQuota,
    /// The wall-clock deadline passed.
    Deadline,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Requested => write!(f, "cancellation requested"),
            CancelReason::StepQuota => write!(f, "step quota exhausted"),
            CancelReason::Deadline => write!(f, "deadline passed"),
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// Set once any trigger fires; all observers see the token as cancelled
    /// from then on (a token never un-fires).
    cancelled: AtomicBool,
    /// Which trigger fired first, encoded as `CancelReason as u64 + 1`
    /// (0 = not fired).  Only the first writer wins.
    reason: AtomicU64,
    /// Remaining deterministic step quota (`u64::MAX` = unlimited).
    steps_left: AtomicU64,
    /// Wall-clock hard stop, checked lazily by `is_cancelled`.
    deadline: Option<Instant>,
}

/// A shared, cooperative cancellation signal (see the module docs).
///
/// Cloning is O(1) and all clones observe the same state.  The token is
/// `Send + Sync`; typical use hands one clone to each worker-facing kernel
/// and keeps one in the driver.
///
/// # Example
///
/// ```
/// use msatpg_exec::{CancelReason, CancelToken};
///
/// let token = CancelToken::with_step_quota(10);
/// assert!(!token.is_cancelled());
/// assert!(token.charge(8)); // 2 left
/// assert!(!token.charge(2)); // quota exhausted -> fires
/// assert!(token.is_cancelled());
/// assert_eq!(token.reason(), Some(CancelReason::StepQuota));
/// ```
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    fn build(steps: Option<u64>, deadline: Option<Instant>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                reason: AtomicU64::new(0),
                steps_left: AtomicU64::new(steps.unwrap_or(u64::MAX)),
                deadline,
            }),
        }
    }

    /// A token that fires only on an explicit [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::build(None, None)
    }

    /// A token with a deterministic step quota: after `steps` units have
    /// been [`charge`](CancelToken::charge)d the token fires.
    pub fn with_step_quota(steps: u64) -> Self {
        Self::build(Some(steps), None)
    }

    /// A token that fires once `timeout` has elapsed from now.  Inherently
    /// timing-dependent — do not use in determinism-sensitive tests.
    pub fn with_deadline(timeout: Duration) -> Self {
        Self::build(None, Instant::now().checked_add(timeout))
    }

    /// A token with both a step quota and a wall-clock deadline; whichever
    /// fires first wins.
    pub fn with_step_quota_and_deadline(steps: u64, timeout: Duration) -> Self {
        Self::build(Some(steps), Instant::now().checked_add(timeout))
    }

    fn fire(&self, reason: CancelReason) {
        // First reason wins; later triggers are ignored.
        let _ = self.inner.reason.compare_exchange(
            0,
            reason as u64 + 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Fires the token explicitly.  Idempotent.
    pub fn cancel(&self) {
        self.fire(CancelReason::Requested);
    }

    /// Deducts `steps` units from the deterministic quota, firing the token
    /// when the quota is exhausted.  Returns `true` while the token is
    /// still live (i.e. the charge succeeded without exhausting it).
    /// Without an armed quota this is a no-op that reports liveness.
    ///
    /// Determinism contract: call this only from driver-side code at points
    /// whose order is independent of thread scheduling.
    pub fn charge(&self, steps: u64) -> bool {
        if self.is_cancelled() {
            return false;
        }
        let mut current = self.inner.steps_left.load(Ordering::Relaxed);
        loop {
            if current == u64::MAX {
                // No quota armed: charging is free.
                return true;
            }
            let next = current.saturating_sub(steps);
            match self.inner.steps_left.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    if current <= steps {
                        self.fire(CancelReason::StepQuota);
                        return false;
                    }
                    return true;
                }
                Err(actual) => current = actual,
            }
        }
    }

    /// `true` once any trigger has fired.  Deadline expiry is detected
    /// lazily here (the first observer past the deadline fires the token
    /// for everyone).
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.fire(CancelReason::Deadline);
                return true;
            }
        }
        false
    }

    /// The first trigger that fired, or `None` while the token is live.
    pub fn reason(&self) -> Option<CancelReason> {
        if !self.is_cancelled() {
            return None;
        }
        match self.inner.reason.load(Ordering::Relaxed) {
            1 => Some(CancelReason::Requested),
            2 => Some(CancelReason::StepQuota),
            3 => Some(CancelReason::Deadline),
            _ => Some(CancelReason::Requested),
        }
    }

    /// Remaining step quota (`u64::MAX` when no quota was armed).
    pub fn steps_remaining(&self) -> u64 {
        self.inner.steps_left.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        assert_eq!(t.steps_remaining(), u64::MAX);
    }

    #[test]
    fn explicit_cancel_fires_all_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
        assert_eq!(c.reason(), Some(CancelReason::Requested));
        // Idempotent; reason is sticky.
        c.cancel();
        assert_eq!(t.reason(), Some(CancelReason::Requested));
    }

    #[test]
    fn step_quota_fires_exactly_at_exhaustion() {
        let t = CancelToken::with_step_quota(5);
        assert!(t.charge(2));
        assert!(t.charge(2));
        assert_eq!(t.steps_remaining(), 1);
        assert!(!t.charge(1), "fifth unit exhausts the quota");
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::StepQuota));
        assert_eq!(t.steps_remaining(), 0);
        assert!(!t.charge(1), "charges after firing are rejected");
    }

    #[test]
    fn oversized_charge_fires_without_underflow() {
        let t = CancelToken::with_step_quota(3);
        assert!(!t.charge(1000));
        assert_eq!(t.steps_remaining(), 0);
        assert_eq!(t.reason(), Some(CancelReason::StepQuota));
    }

    #[test]
    fn zero_quota_fires_on_first_charge() {
        let t = CancelToken::with_step_quota(0);
        assert!(!t.charge(1));
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_fires_after_timeout() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        // A zero timeout is already past on the first observation.
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn far_deadline_does_not_fire() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        let q = CancelToken::with_step_quota_and_deadline(2, Duration::from_secs(3600));
        assert!(q.charge(1));
        assert!(!q.charge(1));
        assert_eq!(q.reason(), Some(CancelReason::StepQuota));
    }

    #[test]
    fn explicit_cancel_beats_later_quota() {
        let t = CancelToken::with_step_quota(1);
        t.cancel();
        assert!(!t.charge(5));
        assert_eq!(t.reason(), Some(CancelReason::Requested));
    }
}
