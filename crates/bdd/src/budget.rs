//! Resource budgets and structured errors for fallible BDD operations.
//!
//! The BDD-based test generator is backtrack-free because it trades search
//! for memory — which makes **BDD blow-up** its one catastrophic failure
//! mode.  A [`BddBudget`] armed on a [`crate::BddManager`] turns that
//! blow-up from an OOM kill into a structured, per-operation
//! [`BddError`]: the `try_*` operation family returns
//! `Err(BddError::NodeBudgetExceeded)` the moment an allocation would push
//! the live-node population past the quota, and
//! `Err(BddError::StepBudgetExceeded)` when the recursion-step quota is
//! exhausted.  Callers (the ATPG drivers) catch the error, discard the
//! partial operation and degrade gracefully — the manager itself stays
//! fully usable.
//!
//! ## Composition with garbage collection
//!
//! The node quota bounds the *live* population, so it composes with the
//! collector: a driver that calls [`crate::BddManager::gc_if_above`] with a
//! watermark at or below `max_live_nodes` between operations only fails
//! when the *reachable* population genuinely needs more than the budget.
//! (No collection runs *inside* an operation — recursion intermediates are
//! unprotected — so a single operation whose result alone exceeds the
//! budget still fails.)
//!
//! ## Determinism
//!
//! Both quotas are deterministic: node counts and recursion steps are pure
//! functions of the operation sequence, so a budget-aborted build aborts at
//! the identical point on every run and every thread count.  The third
//! error, [`BddError::Cancelled`], is raised on behalf of a
//! [`msatpg_exec::CancelToken`] armed with
//! [`crate::BddManager::set_cancel_token`] and is only deterministic if the
//! token's triggers are (see the token docs).

use std::error::Error;
use std::fmt;

/// Resource quotas for one [`crate::BddManager`].
///
/// The default (and [`BddBudget::UNLIMITED`]) arms nothing; quotas are
/// added builder-style:
///
/// ```
/// use msatpg_bdd::BddBudget;
///
/// let budget = BddBudget::UNLIMITED
///     .with_max_live_nodes(1 << 20)
///     .with_max_steps(50_000_000);
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddBudget {
    /// Ceiling on the live-node population: an allocation that would push
    /// [`crate::BddManager::live_node_count`] past this fails with
    /// [`BddError::NodeBudgetExceeded`].
    pub max_live_nodes: Option<usize>,
    /// Ceiling on recursion steps counted across every fallible operation
    /// since the last [`crate::BddManager::reset_steps`]; exceeding it
    /// fails with [`BddError::StepBudgetExceeded`].
    pub max_steps: Option<u64>,
}

impl BddBudget {
    /// No quotas armed: every operation is infallible (the pre-budget
    /// behavior).
    pub const UNLIMITED: BddBudget = BddBudget {
        max_live_nodes: None,
        max_steps: None,
    };

    /// Arms a live-node ceiling.
    pub fn with_max_live_nodes(mut self, nodes: usize) -> Self {
        self.max_live_nodes = Some(nodes);
        self
    }

    /// Arms a recursion-step ceiling.
    pub fn with_max_steps(mut self, steps: u64) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// `true` when no quota is armed.
    pub fn is_unlimited(&self) -> bool {
        self.max_live_nodes.is_none() && self.max_steps.is_none()
    }
}

/// Structured failure of a fallible (`try_*`) BDD operation.
///
/// The operation's partial work is abandoned (intermediate nodes become
/// garbage, reclaimable at the next collection) but the manager and every
/// previously built function remain fully usable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BddError {
    /// An allocation would have pushed the live-node population past the
    /// armed [`BddBudget::max_live_nodes`].
    NodeBudgetExceeded {
        /// The armed ceiling.
        limit: usize,
    },
    /// The recursion-step count passed the armed [`BddBudget::max_steps`].
    StepBudgetExceeded {
        /// The armed ceiling.
        limit: u64,
    },
    /// The [`msatpg_exec::CancelToken`] armed with
    /// [`crate::BddManager::set_cancel_token`] fired.
    Cancelled,
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::NodeBudgetExceeded { limit } => {
                write!(f, "BDD node budget exceeded ({limit} live nodes)")
            }
            BddError::StepBudgetExceeded { limit } => {
                write!(f, "BDD step budget exceeded ({limit} steps)")
            }
            BddError::Cancelled => write!(f, "BDD operation cancelled"),
        }
    }
}

impl Error for BddError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_builders_compose() {
        assert!(BddBudget::UNLIMITED.is_unlimited());
        assert!(BddBudget::default().is_unlimited());
        let b = BddBudget::default().with_max_live_nodes(100);
        assert_eq!(b.max_live_nodes, Some(100));
        assert_eq!(b.max_steps, None);
        assert!(!b.is_unlimited());
        let b = b.with_max_steps(7);
        assert_eq!(b.max_steps, Some(7));
    }

    #[test]
    fn errors_display_their_limits() {
        let e = BddError::NodeBudgetExceeded { limit: 64 };
        assert!(e.to_string().contains("64"));
        let e = BddError::StepBudgetExceeded { limit: 9 };
        assert!(e.to_string().contains("9"));
        assert!(BddError::Cancelled.to_string().contains("cancelled"));
    }
}
