//! Cooperative interruption for the decision stack: wall-clock deadlines,
//! cross-thread cancellation, and deterministic fault injection.
//!
//! The deciders run exponential searches (Σᵖ₂ / NEXPTIME in the decidable
//! cells, unbounded in the undecidable ones), so every decision call needs a
//! way to stop that does not depend on the count budgets alone. A [`Guard`]
//! is created once per decision and polled from inside the enumeration loops
//! via [`Meter::tick`](crate::budget::Meter::tick):
//!
//! * a **deadline** ([`SearchBudget::deadline`]) trips the guard when the
//!   wall clock passes it;
//! * a **[`CancelToken`]** lets another thread abort the decision;
//! * a **[`FaultPlan`]** trips the guard (or exhausts a meter) at an exact
//!   tick count, so tests exercise every degradation path with no sleeps.
//!
//! All three degrade the same way: the running search stops at the next
//! poll and the decider returns `Unknown` with a [`BudgetLimit`] naming the
//! interrupt — a sound "don't know", never a wrong answer. A tripped guard
//! is sticky: nested decider calls sharing the guard fail fast.
//!
//! Polling is amortized. Fault-plan comparisons are exact (every tick); the
//! real clock and the cancel flag are consulted on the first tick and then
//! every [`Guard::DEFAULT_CHECK_INTERVAL`] ticks, so a deadline or
//! cancellation is observed within one check interval of firing.
//!
//! [`SearchBudget::deadline`]: crate::SearchBudget::deadline
//! [`BudgetLimit`]: crate::BudgetLimit

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::budget::{MeterKind, SearchBudget};
use crate::verdict::BudgetLimit;

/// A shareable cancellation flag.
///
/// Clone the token, hand the clone to the thread running the decision (via a
/// [`Guard`]), and call [`CancelToken::cancel`] from anywhere else to abort
/// the in-flight search. Cancellation is observed cooperatively at the next
/// guard poll and surfaces as an `Unknown` verdict with
/// [`BudgetLimit::Cancelled`].
#[derive(Clone, Default, Debug)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Has [`CancelToken::cancel`] been called (on this token or any clone)?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Why a guard tripped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Interrupt {
    /// The wall-clock deadline expired.
    Deadline,
    /// The [`CancelToken`] fired.
    Cancelled,
}

impl Interrupt {
    /// The [`BudgetLimit`] this interrupt reports in `SearchStats`.
    pub fn limit(self) -> BudgetLimit {
        match self {
            Interrupt::Deadline => BudgetLimit::Deadline,
            Interrupt::Cancelled => BudgetLimit::Cancelled,
        }
    }

    /// A stable machine-readable name (matches the corresponding
    /// [`BudgetLimit::name`]).
    pub fn name(self) -> &'static str {
        self.limit().name()
    }
}

/// A deterministic fault schedule for tests.
///
/// Each trigger fires at an exact guard tick count (one tick = one meter
/// request anywhere in the decision), so every degradation path can be
/// exercised without sleeps or timing dependence:
///
/// * [`deadline_at_tick`](FaultPlan::deadline_at_tick) — simulate deadline
///   expiry at tick `k`;
/// * [`cancel_at_tick`](FaultPlan::cancel_at_tick) — simulate a fired cancel
///   token at tick `k`;
/// * [`exhaust_meter`](FaultPlan::exhaust_meter) — cap the named meter so it
///   exhausts after `k` accepted requests;
/// * [`panic_at_stage`](FaultPlan::panic_at_stage) — names a telemetry event
///   at which a panic should be injected. The plan only records the stage;
///   attach a [`FaultSink`](ric_telemetry::FaultSink) built from
///   [`FaultPlan::panic_stage`] to actually fire it through the probe seam.
#[derive(Clone, Default, Debug)]
pub struct FaultPlan {
    deadline_after: Option<u64>,
    cancel_after: Option<u64>,
    exhaust: Option<(MeterKind, u64)>,
    panic_stage: Option<&'static str>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Fire a simulated deadline expiry once `ticks` guard ticks have been
    /// observed (the trip is reported on tick `ticks + 1`).
    pub fn deadline_at_tick(mut self, ticks: u64) -> Self {
        self.deadline_after = Some(ticks);
        self
    }

    /// Fire a simulated cancellation once `ticks` guard ticks have been
    /// observed.
    pub fn cancel_at_tick(mut self, ticks: u64) -> Self {
        self.cancel_after = Some(ticks);
        self
    }

    /// Cap the meter of the given kind at `limit` accepted requests,
    /// regardless of the configured budget knob.
    pub fn exhaust_meter(mut self, kind: MeterKind, limit: u64) -> Self {
        self.exhaust = Some((kind, limit));
        self
    }

    /// Record that a panic should be injected when the telemetry event named
    /// `stage` is emitted (wire it up with a `FaultSink`).
    pub fn panic_at_stage(mut self, stage: &'static str) -> Self {
        self.panic_stage = Some(stage);
        self
    }

    /// The stage named by [`FaultPlan::panic_at_stage`], if any.
    pub fn panic_stage(&self) -> Option<&'static str> {
        self.panic_stage
    }
}

/// Per-decision interruption state, polled cooperatively by every guarded
/// [`Meter`](crate::budget::Meter).
///
/// A guard is cheap to create and not thread-safe by design (a decision
/// runs on the thread that polls its guard); the cross-thread handle is the
/// [`CancelToken`]. Public `*_guarded` entry points take `&Guard` so one
/// guard — one deadline, one token — spans an entire decision, including
/// nested decider calls.
#[derive(Debug)]
pub struct Guard {
    deadline: Option<Instant>,
    cancels: Vec<CancelToken>,
    fault: FaultPlan,
    check_interval: u32,
    ticks: Cell<u64>,
    countdown: Cell<u32>,
    tripped: Cell<Option<Interrupt>>,
}

impl Guard {
    /// How many ticks pass between polls of the real clock and the cancel
    /// flag. The first tick always polls, so a pre-expired deadline or
    /// pre-cancelled token stops the search before any work is granted.
    pub const DEFAULT_CHECK_INTERVAL: u32 = 1024;

    /// A guard enforcing `budget.deadline` (if set), with no cancel token
    /// and no fault plan.
    pub fn new(budget: &SearchBudget) -> Self {
        Guard {
            // `checked_add` rather than `+`: a pathological `Duration::MAX`
            // deadline must mean "never", not overflow.
            deadline: budget.deadline.and_then(|d| Instant::now().checked_add(d)),
            cancels: Vec::new(),
            fault: FaultPlan::default(),
            check_interval: Self::DEFAULT_CHECK_INTERVAL,
            ticks: Cell::new(0),
            countdown: Cell::new(0),
            tripped: Cell::new(None),
        }
    }

    /// This guard, also observing `token` (in addition to any tokens already
    /// attached).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancels.push(token);
        self
    }

    /// This guard, also executing `plan`.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// This guard with a custom amortization interval (mainly for tests that
    /// pin how quickly a cancellation is observed).
    pub fn with_check_interval(mut self, interval: u32) -> Self {
        self.check_interval = interval;
        self
    }

    /// Poll the guard: counts one tick, fires any due fault-plan trigger
    /// exactly, and polls the real clock / cancel flag on the amortization
    /// schedule. Returns the interrupt if the guard has tripped (now or
    /// earlier — trips are sticky).
    #[inline]
    pub fn check(&self) -> Option<Interrupt> {
        if let Some(interrupt) = self.tripped.get() {
            return Some(interrupt);
        }
        let ticks = self.ticks.get().saturating_add(1);
        self.ticks.set(ticks);
        if let Some(after) = self.fault.deadline_after {
            if ticks > after {
                return self.trip(Interrupt::Deadline);
            }
        }
        if let Some(after) = self.fault.cancel_after {
            if ticks > after {
                return self.trip(Interrupt::Cancelled);
            }
        }
        let countdown = self.countdown.get();
        if countdown > 0 {
            self.countdown.set(countdown - 1);
            return None;
        }
        self.countdown.set(self.check_interval);
        self.check_now()
    }

    /// Poll the real clock and cancel flag immediately, bypassing the
    /// amortization schedule (used at coarse-grained points such as the
    /// completion loop's round boundary). Does not count a tick.
    pub fn check_now(&self) -> Option<Interrupt> {
        if let Some(interrupt) = self.tripped.get() {
            return Some(interrupt);
        }
        if self.cancels.iter().any(CancelToken::is_cancelled) {
            return self.trip(Interrupt::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return self.trip(Interrupt::Deadline);
            }
        }
        None
    }

    /// The interrupt this guard tripped on, if any.
    pub fn tripped(&self) -> Option<Interrupt> {
        self.tripped.get()
    }

    /// Total meter requests observed so far, across every meter sharing this
    /// guard.
    pub fn ticks(&self) -> u64 {
        self.ticks.get()
    }

    /// The effective limit for a meter of `kind` configured with `limit`,
    /// after applying any fault-plan cap.
    pub(crate) fn capped_limit(&self, kind: MeterKind, limit: u64) -> u64 {
        match self.fault.exhaust {
            Some((target, cap)) if target == kind => limit.min(cap),
            _ => limit,
        }
    }

    fn trip(&self, interrupt: Interrupt) -> Option<Interrupt> {
        self.tripped.set(Some(interrupt));
        Some(interrupt)
    }
}

/// The guard is the deciders' deterministic timebase: one tick per meter
/// request anywhere in the decision. Probes carrying a guard as their tick
/// source stamp every span with tick deltas alongside wall-clock micros, so
/// traces replay identically under test while still showing real latency.
impl ric_telemetry::TickSource for Guard {
    fn ticks(&self) -> u64 {
        self.ticks.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Meter;
    use std::time::Duration;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        token.cancel(); // idempotent
        assert!(clone.is_cancelled());
    }

    #[test]
    fn unconfigured_guard_never_trips() {
        let guard = Guard::new(&SearchBudget::default());
        for _ in 0..5_000 {
            assert_eq!(guard.check(), None);
        }
        assert_eq!(guard.tripped(), None);
        assert_eq!(guard.ticks(), 5_000);
    }

    #[test]
    fn precancelled_token_is_observed_on_the_first_tick() {
        let token = CancelToken::new();
        token.cancel();
        let guard = Guard::new(&SearchBudget::default()).with_cancel(token);
        assert_eq!(guard.check(), Some(Interrupt::Cancelled));
        assert_eq!(guard.tripped(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn cancellation_is_observed_within_one_check_interval() {
        let token = CancelToken::new();
        let guard = Guard::new(&SearchBudget::default())
            .with_cancel(token.clone())
            .with_check_interval(8);
        assert_eq!(guard.check(), None, "tick 1 polls: not yet cancelled");
        token.cancel();
        let mut observed_after = None;
        for extra in 1..=9u32 {
            if guard.check().is_some() {
                observed_after = Some(extra);
                break;
            }
        }
        let observed_after = observed_after.expect("cancellation observed");
        assert!(
            observed_after <= 9,
            "must be seen within one interval; took {observed_after} ticks"
        );
    }

    #[test]
    fn fault_deadline_fires_at_the_exact_tick() {
        let plan = FaultPlan::new().deadline_at_tick(3);
        let guard = Guard::new(&SearchBudget::default()).with_fault_plan(plan);
        assert_eq!(guard.check(), None);
        assert_eq!(guard.check(), None);
        assert_eq!(guard.check(), None);
        assert_eq!(guard.check(), Some(Interrupt::Deadline));
        assert_eq!(guard.ticks(), 4);
        // Sticky.
        assert_eq!(guard.check(), Some(Interrupt::Deadline));
    }

    #[test]
    fn fault_cancel_fires_deterministically() {
        let plan = FaultPlan::new().cancel_at_tick(0);
        let guard = Guard::new(&SearchBudget::default()).with_fault_plan(plan);
        assert_eq!(guard.check(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn fault_exhausts_the_targeted_meter_only() {
        let plan = FaultPlan::new().exhaust_meter(MeterKind::Valuations, 2);
        let budget = SearchBudget::default();
        let guard = Guard::new(&budget).with_fault_plan(plan);
        let mut v = Meter::guarded(MeterKind::Valuations, budget.max_valuations, &guard);
        assert!(v.tick() && v.tick());
        assert!(!v.tick(), "capped at 2 accepted requests");
        assert!(v.exhausted());
        assert_eq!(v.interrupt(), None, "exhaustion, not an interrupt");
        let c = Meter::guarded(MeterKind::Candidates, budget.max_candidates, &guard);
        assert_eq!(c.limit(), budget.max_candidates, "other meters unaffected");
    }

    #[test]
    fn multiple_cancel_tokens_are_all_observed() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        let guard = Guard::new(&SearchBudget::default())
            .with_cancel(a)
            .with_cancel(b.clone());
        assert_eq!(guard.check_now(), None);
        b.cancel();
        assert_eq!(guard.check_now(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn real_deadline_trips_via_check_now() {
        let budget = SearchBudget::default().with_deadline(Duration::ZERO);
        let guard = Guard::new(&budget);
        assert_eq!(guard.check_now(), Some(Interrupt::Deadline));
    }

    #[test]
    fn interrupt_names_match_budget_limits() {
        assert_eq!(Interrupt::Deadline.name(), "deadline");
        assert_eq!(Interrupt::Cancelled.name(), "cancelled");
        assert_eq!(Interrupt::Deadline.limit(), BudgetLimit::Deadline);
        assert_eq!(Interrupt::Cancelled.limit(), BudgetLimit::Cancelled);
    }
}
