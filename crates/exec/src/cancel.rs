//! Cooperative cancellation: a clonable [`CancelToken`] plus the unified
//! [`checkpoint`] every long-running stage polls at its natural boundary.
//!
//! The token is *cooperative*: nothing is interrupted preemptively. Work that
//! wants to be cancellable calls [`checkpoint`] (or [`CancelToken::check`]) at
//! boundaries where abandoning is cheap and state is consistent — an SA epoch,
//! a solver sweep window, a CPA trace chunk, a flow stage. Between checkpoints
//! the work is exactly the seeded deterministic computation it always was, so
//! cancellation can never perturb a run that completes: a job either finishes
//! byte-identically or returns a typed [`Interrupt`].
//!
//! Cost discipline matches `tsc3d-obs`: an un-cancelled token with no deadline
//! costs one relaxed atomic load per check.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fault::{ArmedPlan, FaultPlan, FaultRecord, InjectedFault};

/// Why a [`CancelToken`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// An explicit cancellation request (e.g. `DELETE /v1/jobs/{id}`).
    User,
    /// The token's deadline elapsed before the work finished.
    Deadline,
    /// The owning process is shutting down and is abandoning in-flight work.
    Shutdown,
}

impl CancelReason {
    /// Stable kebab-case tag, used as a metrics label and error kind.
    pub fn kind(self) -> &'static str {
        match self {
            CancelReason::User => "cancelled",
            CancelReason::Deadline => "deadline",
            CancelReason::Shutdown => "shutdown",
        }
    }
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::User => write!(f, "cancelled by request"),
            CancelReason::Deadline => write!(f, "deadline exceeded"),
            CancelReason::Shutdown => write!(f, "cancelled by shutdown"),
        }
    }
}

/// Shared-state encoding: 0 = live, otherwise a `CancelReason`.
const LIVE: u8 = 0;
const CANCELLED_USER: u8 = 1;
const CANCELLED_DEADLINE: u8 = 2;
const CANCELLED_SHUTDOWN: u8 = 3;

/// A clonable cooperative cancellation token with an optional deadline.
///
/// Clones share the cancelled flag: [`CancelToken::cancel`] on any clone is
/// observed by all of them. Deadlines are *per handle*: [`CancelToken::with_deadline`]
/// returns a handle whose checks also fail once the deadline passes, without
/// affecting siblings — so a retry loop can give every attempt a fresh
/// deadline over the same underlying cancel flag. Deadline expiry is detected
/// by reading the clock, never by writing the shared state, which keeps
/// sibling handles (and later attempts) unpoisoned.
///
/// A token may also carry an armed [`FaultPlan`] ([`CancelToken::with_fault_plan`]):
/// every handle derived from it shares the plan's hit counters, so a chaos run's
/// faults are scoped to the campaign or job the token belongs to.
///
/// The default token never fires; [`CancelToken::default`] and
/// [`CancelToken::new`] are equivalent.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    state: Arc<AtomicU8>,
    deadline: Option<Instant>,
    faults: Option<Arc<ArmedPlan>>,
}

impl CancelToken {
    /// A live token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A handle on the same cancel flag that additionally fails once `budget`
    /// has elapsed (from now). If this handle already carries a deadline the
    /// earlier of the two wins.
    pub fn with_deadline(&self, budget: Duration) -> CancelToken {
        let candidate = Instant::now() + budget;
        CancelToken {
            state: Arc::clone(&self.state),
            deadline: Some(match self.deadline {
                Some(existing) => existing.min(candidate),
                None => candidate,
            }),
            faults: self.faults.clone(),
        }
    }

    /// A handle on the same cancel flag and deadline that carries `plan`, armed
    /// with fresh hit counters (replacing any plan this handle carried). Every
    /// handle derived from the result shares the plan's counters and fired log.
    pub fn with_fault_plan(&self, plan: FaultPlan) -> CancelToken {
        CancelToken {
            faults: Some(Arc::new(ArmedPlan::new(plan))),
            ..self.clone()
        }
    }

    /// A live token without a deadline that keeps only this token's fault plan:
    /// for work shared by several jobs (a memoized flow) that no single job's
    /// cancellation may abort, but that a chaos run still reaches.
    pub fn detached(&self) -> CancelToken {
        CancelToken {
            faults: self.faults.clone(),
            ..CancelToken::default()
        }
    }

    /// The fault hook of `site`: with a plan armed, bumps the site's hit counter
    /// and fires a matching spec (panicking, sleeping, or returning the injected
    /// error); without one, a single branch.
    ///
    /// # Errors
    ///
    /// [`InjectedFault`] when a matching spec's action is
    /// [`crate::FaultAction::Error`].
    ///
    /// # Panics
    ///
    /// When a matching spec's action is [`crate::FaultAction::Panic`] —
    /// deliberately: the point is to exercise the caller's containment.
    pub fn fault_check(&self, site: &'static str) -> Result<(), InjectedFault> {
        match &self.faults {
            None => Ok(()),
            Some(plan) => plan.check(site),
        }
    }

    /// The faults fired so far under this token's plan, in firing order (empty
    /// without a plan).
    pub fn fired_faults(&self) -> Vec<FaultRecord> {
        self.faults
            .as_ref()
            .map(|plan| plan.fired())
            .unwrap_or_default()
    }

    /// Cancels every handle sharing this token's flag. The first reason wins;
    /// later calls (any reason) are no-ops.
    pub fn cancel(&self, reason: CancelReason) {
        let code = match reason {
            CancelReason::User => CANCELLED_USER,
            CancelReason::Deadline => CANCELLED_DEADLINE,
            CancelReason::Shutdown => CANCELLED_SHUTDOWN,
        };
        let _ = self
            .state
            .compare_exchange(LIVE, code, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Why this handle is cancelled, or `None` while it is live.
    ///
    /// One relaxed atomic load when no deadline is set; a deadline adds one
    /// clock read.
    pub fn is_cancelled(&self) -> Option<CancelReason> {
        match self.state.load(Ordering::Relaxed) {
            LIVE => match self.deadline {
                Some(deadline) if Instant::now() >= deadline => Some(CancelReason::Deadline),
                _ => None,
            },
            CANCELLED_USER => Some(CancelReason::User),
            CANCELLED_DEADLINE => Some(CancelReason::Deadline),
            _ => Some(CancelReason::Shutdown),
        }
    }

    /// [`CancelToken::is_cancelled`] as a `Result`, for `?`-style checkpoints.
    ///
    /// # Errors
    ///
    /// The [`CancelReason`] once the token is cancelled or its deadline passed.
    pub fn check(&self) -> Result<(), CancelReason> {
        match self.is_cancelled() {
            None => Ok(()),
            Some(reason) => Err(reason),
        }
    }

    /// The instant this handle's deadline fires, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// Why a cooperative [`checkpoint`] aborted the work: a real cancellation or
/// an injected fault from the chaos harness ([`crate::fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The [`CancelToken`] fired (user request, deadline, or shutdown).
    Cancelled(CancelReason),
    /// The fault plan injected an error at this site.
    Fault(InjectedFault),
}

impl Interrupt {
    /// Stable kebab-case tag: `cancelled`, `deadline`, `shutdown`, or
    /// `fault-injected` — the vocabulary error kinds and retry policies use.
    pub fn kind(self) -> &'static str {
        match self {
            Interrupt::Cancelled(reason) => reason.kind(),
            Interrupt::Fault(_) => "fault-injected",
        }
    }
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Cancelled(reason) => write!(f, "{reason}"),
            Interrupt::Fault(fault) => write!(f, "{fault}"),
        }
    }
}

impl std::error::Error for Interrupt {}

/// The unified cooperative checkpoint: first the token's fault plan (which may
/// panic, sleep, or return an injected error for `site`), then the token.
///
/// An injected delay runs *before* the cancel check, so a delay fault combined
/// with a deadline token deterministically surfaces as
/// `Interrupt::Cancelled(Deadline)` at the same checkpoint — the harness's way
/// of manufacturing a deadline miss.
///
/// Off cost (no fault plan, token live, no deadline): one branch and one
/// relaxed atomic load.
///
/// # Errors
///
/// [`Interrupt::Fault`] if the armed fault plan injects an error here,
/// [`Interrupt::Cancelled`] if the token fired.
pub fn checkpoint(site: &'static str, cancel: &CancelToken) -> Result<(), Interrupt> {
    cancel.fault_check(site).map_err(Interrupt::Fault)?;
    cancel.check().map_err(Interrupt::Cancelled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_token_passes_checks() {
        let token = CancelToken::new();
        assert_eq!(token.is_cancelled(), None);
        assert!(token.check().is_ok());
        assert!(checkpoint("cancel-test-live", &token).is_ok());
    }

    #[test]
    fn cancel_is_shared_across_clones_and_first_reason_wins() {
        let token = CancelToken::new();
        let clone = token.clone();
        clone.cancel(CancelReason::User);
        token.cancel(CancelReason::Shutdown);
        assert_eq!(token.is_cancelled(), Some(CancelReason::User));
        assert_eq!(clone.check(), Err(CancelReason::User));
        assert_eq!(
            checkpoint("cancel-test-shared", &token),
            Err(Interrupt::Cancelled(CancelReason::User))
        );
    }

    #[test]
    fn deadlines_are_per_handle_and_never_poison_siblings() {
        let parent = CancelToken::new();
        let strict = parent.with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(strict.is_cancelled(), Some(CancelReason::Deadline));
        // The sibling (a later retry attempt) is unaffected.
        assert_eq!(parent.is_cancelled(), None);
        let retry = parent.with_deadline(Duration::from_secs(3600));
        assert_eq!(retry.is_cancelled(), None);
    }

    #[test]
    fn tighter_deadline_wins_when_stacked() {
        let token = CancelToken::new().with_deadline(Duration::from_millis(0));
        let stacked = token.with_deadline(Duration::from_secs(3600));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(stacked.is_cancelled(), Some(CancelReason::Deadline));
    }

    #[test]
    fn interrupt_kinds_are_stable() {
        assert_eq!(Interrupt::Cancelled(CancelReason::User).kind(), "cancelled");
        assert_eq!(
            Interrupt::Cancelled(CancelReason::Deadline).kind(),
            "deadline"
        );
        assert_eq!(
            Interrupt::Cancelled(CancelReason::Shutdown).kind(),
            "shutdown"
        );
        assert_eq!(
            Interrupt::Fault(InjectedFault { site: "x" }).kind(),
            "fault-injected"
        );
    }
}
