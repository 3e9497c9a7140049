//! Search budgets.
//!
//! RCDP for CQ/UCQ/∃FO⁺ is Σᵖ₂-complete and RCQP is NEXPTIME-complete
//! (Theorems 3.6 and 4.5); the FO/FP cells are undecidable (Theorems 3.1 and
//! 4.1). The deciders are exact, but exactness can cost exponential time —
//! a [`SearchBudget`] bounds the work, and exceeding it yields
//! `Verdict::Unknown`, never a wrong answer.

use std::time::Duration;

use crate::guard::{Guard, Interrupt};
use crate::verdict::BudgetLimit;

/// Which evaluation engine the deciders use for their inner loops.
///
/// Both engines are exact and run every search on the calling thread.
/// `Naive` materializes each candidate extension `D ∪ Δ` and re-checks every
/// constraint from scratch; it exists as the differential-testing oracle and
/// the baseline arm of the engine benchmark. `Planned` works through
/// overlays, per-column indexes, and delta-aware constraint checks whose
/// bodies are compiled to cost-based plans.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// Materialize unions, re-check all constraints per candidate.
    Naive,
    /// Overlay views, index joins, and delta-restricted constraint checks,
    /// with containment-constraint bodies compiled to cost-based prepared
    /// plans (`ric-plan`): fixed binding orders chosen from base-database
    /// statistics, pre-resolved index probes, pinned inequality checks.
    /// Falls back to the static greedy order (plan-level, still exact) when
    /// statistics are absent.
    Planned,
}

impl Default for Engine {
    /// The planned engine.
    fn default() -> Self {
        Engine::Planned
    }
}

impl Engine {
    /// The planned engine. The argument is ignored: every engine runs on the
    /// calling thread. This constructor stays only for the `perfbench`
    /// adapter; everything else names [`Engine::Planned`].
    pub fn planned(_workers: usize) -> Self {
        Engine::Planned
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Naive => write!(f, "naive"),
            Engine::Planned => write!(f, "planned"),
        }
    }
}

/// Limits on decider work.
#[derive(Clone, Copy, Debug)]
pub struct SearchBudget {
    /// Maximum number of candidate valuations examined per decision.
    pub max_valuations: u64,
    /// Maximum number of candidate witness databases examined (RCQP search).
    pub max_candidates: u64,
    /// Maximum tuples in a candidate extension Δ (semi-decision for FO/FP).
    pub max_delta_tuples: usize,
    /// Maximum tuples in a constructed witness database.
    pub max_witness_tuples: usize,
    /// Extra fresh values made available to the FO/FP extension search.
    pub fresh_values: usize,
    /// Wall-clock deadline for one decision. Checked cooperatively inside
    /// the enumeration loops (amortized — see
    /// [`Guard::DEFAULT_CHECK_INTERVAL`]); expiry yields an `Unknown` verdict
    /// with [`BudgetLimit::Deadline`], never a wrong answer. `None` (the
    /// default) disables the clock entirely.
    pub deadline: Option<Duration>,
    /// Which evaluation engine drives the enumeration loops. Exactness is
    /// engine-independent; `Naive` is the cross-checking oracle.
    pub engine: Engine,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            max_valuations: 5_000_000,
            max_candidates: 2_000_000,
            max_delta_tuples: 3,
            max_witness_tuples: 10_000,
            fresh_values: 2,
            deadline: None,
            engine: Engine::default(),
        }
    }
}

impl SearchBudget {
    /// A small budget for quick checks in tests.
    pub fn small() -> Self {
        SearchBudget {
            max_valuations: 100_000,
            max_candidates: 50_000,
            max_delta_tuples: 2,
            max_witness_tuples: 1_000,
            fresh_values: 1,
            deadline: None,
            engine: Engine::default(),
        }
    }

    /// An effectively unbounded budget (exactness over speed). No deadline:
    /// an exhaustive run is bounded only by the count meters at `u64::MAX`.
    pub fn exhaustive() -> Self {
        SearchBudget {
            max_valuations: u64::MAX,
            max_candidates: u64::MAX,
            max_delta_tuples: usize::MAX,
            max_witness_tuples: usize::MAX,
            fresh_values: 4,
            deadline: None,
            engine: Engine::default(),
        }
    }

    /// This budget with a wall-clock deadline per decision.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// This budget with the given evaluation engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }
}

/// Which counting meter a decider is running; used to target deterministic
/// meter exhaustion in a [`FaultPlan`](crate::guard::FaultPlan).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MeterKind {
    /// The valuation-enumeration meter ([`SearchBudget::max_valuations`]).
    Valuations,
    /// The candidate-search meter ([`SearchBudget::max_candidates`]).
    Candidates,
}

/// A running counter checked against a limit; shared by the enumeration
/// loops.
///
/// Semantics: [`Meter::tick`] *requests* one unit of work. A request past the
/// limit is rejected — it returns `false`, marks the meter exhausted, and is
/// **not** counted, so [`Meter::used`] reports exactly the units of work
/// actually performed and never exceeds the limit. (An earlier revision
/// counted the rejected request too, over-reporting `used()` by one after
/// exhaustion; the telemetry counters are fed from `used()`, so the invariant
/// `used() ≤ limit` now holds everywhere.)
///
/// A meter can additionally carry a [`Guard`]: every tick then also polls the
/// guard for a deadline expiry or cancellation, and a tripped guard rejects
/// the request exactly like an exhausted count limit. Deciders distinguish the
/// two via [`Meter::interrupt`] and report [`BudgetLimit::Deadline`] /
/// [`BudgetLimit::Cancelled`] instead of the count limit.
#[derive(Debug)]
pub struct Meter<'g> {
    used: u64,
    limit: u64,
    exhausted: bool,
    guard: Option<&'g Guard>,
    interrupt: Option<Interrupt>,
}

impl<'g> Meter<'g> {
    /// A meter with the given limit and no guard.
    pub fn new(limit: u64) -> Self {
        Meter {
            used: 0,
            limit,
            exhausted: false,
            guard: None,
            interrupt: None,
        }
    }

    /// A guarded meter: ticks poll `guard` for deadline expiry and
    /// cancellation, and a [`FaultPlan`](crate::guard::FaultPlan) targeting
    /// `kind` caps the effective limit for deterministic exhaustion tests.
    pub fn guarded(kind: MeterKind, limit: u64, guard: &'g Guard) -> Self {
        Meter {
            used: 0,
            limit: guard.capped_limit(kind, limit),
            exhausted: false,
            guard: Some(guard),
            interrupt: None,
        }
    }

    /// A guarded meter that starts with `spent` units already consumed — the
    /// resume primitive. A resumed installment re-runs only the uncommitted
    /// tail of a search, but its meter must reject at exactly the same point
    /// an uninterrupted run at the same limit would, so the committed prefix
    /// is pre-charged here. `spent` is clamped to the effective limit (a
    /// checkpoint taken under a larger budget never grants negative headroom).
    pub fn guarded_primed(kind: MeterKind, limit: u64, spent: u64, guard: &'g Guard) -> Self {
        let limit = guard.capped_limit(kind, limit);
        Meter {
            used: spent.min(limit),
            limit,
            exhausted: false,
            guard: Some(guard),
            interrupt: None,
        }
    }

    /// Request one unit of work; `false` when the budget is exhausted or the
    /// guard has tripped (the rejected request is not counted).
    #[inline]
    pub fn tick(&mut self) -> bool {
        if self.interrupt.is_some() {
            return false;
        }
        if let Some(guard) = self.guard {
            if let Some(interrupt) = guard.check() {
                self.interrupt = Some(interrupt);
                return false;
            }
        }
        if self.used >= self.limit {
            self.exhausted = true;
            return false;
        }
        // Saturating: with `SearchBudget::exhaustive()` the limit is
        // `u64::MAX`, and the increment must not wrap at the boundary.
        self.used = self.used.saturating_add(1);
        true
    }

    /// Has a request been rejected by the count limit?
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Units of work performed (accepted requests only; at most the limit).
    pub fn used(&self) -> u64 {
        self.used
    }

    /// The effective count limit (the configured budget knob, possibly capped
    /// by a fault plan).
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// The interrupt that stopped this meter, if the guard tripped (as
    /// opposed to the count limit running out).
    pub fn interrupt(&self) -> Option<Interrupt> {
        self.interrupt
    }

    /// The [`BudgetLimit`] to report for a rejected request: the guard's
    /// interrupt when one fired, otherwise `fallback` (the count limit the
    /// meter enforces).
    pub fn stop_limit(&self, fallback: BudgetLimit) -> BudgetLimit {
        match self.interrupt {
            Some(interrupt) => interrupt.limit(),
            None => fallback,
        }
    }

    /// The human-readable `SearchStats` detail for a rejected request, where
    /// `noun` names the unit this meter counts (`"valuation"`,
    /// `"candidate"`). The count-exhaustion wording is the crate's historic
    /// log surface and must not drift.
    pub fn stop_detail(&self, noun: &str) -> String {
        match self.interrupt {
            Some(interrupt) => self.interrupt_detail(interrupt, noun),
            None => format!("{noun} budget of {} exhausted", self.limit),
        }
    }

    /// The [`Self::stop_detail`] wording for `interrupt` after this meter's
    /// accepted work — also for a guard that tripped inside a nested check
    /// after the meter's last tick, which the meter itself never observed.
    pub(crate) fn interrupt_detail(&self, interrupt: Interrupt, noun: &str) -> String {
        match interrupt {
            Interrupt::Deadline => {
                format!("wall-clock deadline expired after {} {noun}(s)", self.used)
            }
            Interrupt::Cancelled => format!("cancelled after {} {noun}(s)", self.used),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_ticks_to_limit() {
        let mut m = Meter::new(2);
        assert!(!m.exhausted());
        assert!(m.tick());
        assert!(m.tick());
        assert!(!m.exhausted(), "reaching the limit is not exhaustion");
        assert!(!m.tick());
        assert!(m.exhausted());
        // The rejected request is not counted: used() never exceeds the limit.
        assert_eq!(m.used(), 2);
        assert!(!m.tick());
        assert_eq!(m.used(), 2);
    }

    #[test]
    fn zero_limit_meter_rejects_immediately() {
        let mut m = Meter::new(0);
        assert!(!m.tick());
        assert!(m.exhausted());
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn engine_helpers_classify_naive() {
        assert_eq!(Engine::Naive.to_string(), "naive");
        assert_eq!(Engine::default(), Engine::Planned);
    }

    #[test]
    fn engine_helpers_classify_planned() {
        assert_eq!(Engine::Planned.to_string(), "planned");
        // The worker argument is ignored: every count is the one engine.
        for workers in [0, 1, 4] {
            assert_eq!(Engine::planned(workers), Engine::Planned);
        }
    }

    #[test]
    fn presets_are_ordered() {
        let s = SearchBudget::small();
        let d = SearchBudget::default();
        let e = SearchBudget::exhaustive();
        assert!(s.max_valuations < d.max_valuations);
        assert!(d.max_valuations < e.max_valuations);
    }

    #[test]
    fn presets_have_no_deadline() {
        assert!(SearchBudget::small().deadline.is_none());
        assert!(SearchBudget::default().deadline.is_none());
        assert!(SearchBudget::exhaustive().deadline.is_none());
        let b = SearchBudget::default().with_deadline(Duration::from_millis(5));
        assert_eq!(b.deadline, Some(Duration::from_millis(5)));
    }

    #[test]
    fn exhaustive_meter_ticks_at_u64_max_without_wrapping() {
        // The exhaustive preset sets limit = u64::MAX; force the counter to
        // the boundary and verify the increment saturates instead of
        // wrapping back below the limit.
        let mut m = Meter::new(SearchBudget::exhaustive().max_valuations);
        m.used = u64::MAX - 1;
        assert!(m.tick(), "one unit of headroom remains");
        assert_eq!(m.used(), u64::MAX);
        assert!(!m.tick(), "used == limit == u64::MAX must reject");
        assert!(m.exhausted());
        assert_eq!(m.used(), u64::MAX, "no wrap-around");
    }

    #[test]
    fn exactly_at_limit_rejects_only_the_next_request() {
        let mut m = Meter::new(3);
        assert!(m.tick() && m.tick() && m.tick());
        assert_eq!(m.used(), 3);
        assert!(!m.exhausted(), "exactly at the limit is not yet exhausted");
        assert!(!m.tick());
        assert!(m.exhausted());
        assert_eq!(m.used(), 3);
    }

    #[test]
    fn zero_deadline_trips_before_any_work() {
        let budget = SearchBudget::default().with_deadline(Duration::ZERO);
        let guard = Guard::new(&budget);
        let mut m = Meter::guarded(MeterKind::Valuations, budget.max_valuations, &guard);
        // The guard's first poll reads the real clock, so a zero deadline is
        // observed before the first unit of work is granted.
        assert!(!m.tick());
        assert_eq!(m.used(), 0);
        assert_eq!(m.interrupt(), Some(Interrupt::Deadline));
        assert!(!m.exhausted(), "a deadline trip is not count exhaustion");
        assert_eq!(
            m.stop_limit(BudgetLimit::MaxValuations),
            BudgetLimit::Deadline
        );
    }

    #[test]
    fn zero_limit_guarded_meter_reports_the_count_limit() {
        // With an untripped guard, a zero count limit still rejects
        // immediately and reports the count limit, not an interrupt.
        let budget = SearchBudget {
            max_valuations: 0,
            ..SearchBudget::default()
        };
        let guard = Guard::new(&budget);
        let mut m = Meter::guarded(MeterKind::Valuations, budget.max_valuations, &guard);
        assert!(!m.tick());
        assert!(m.exhausted());
        assert_eq!(m.interrupt(), None);
        assert_eq!(
            m.stop_limit(BudgetLimit::MaxValuations),
            BudgetLimit::MaxValuations
        );
    }

    #[test]
    fn primed_meter_grants_only_the_remaining_headroom() {
        let budget = SearchBudget::default();
        let guard = Guard::new(&budget);
        let mut m = Meter::guarded_primed(MeterKind::Valuations, 5, 3, &guard);
        assert_eq!(m.used(), 3);
        assert!(m.tick() && m.tick());
        assert!(!m.tick(), "3 committed + 2 fresh = limit 5");
        assert!(m.exhausted());
        assert_eq!(m.used(), 5);
        // Over-spent checkpoints clamp: no work granted, no underflow.
        let mut over = Meter::guarded_primed(MeterKind::Valuations, 5, 9, &guard);
        assert_eq!(over.used(), 5);
        assert!(!over.tick());
        assert!(over.exhausted());
    }

    #[test]
    fn tripped_meter_stays_tripped() {
        let budget = SearchBudget::default().with_deadline(Duration::ZERO);
        let guard = Guard::new(&budget);
        let mut m = Meter::guarded(MeterKind::Valuations, budget.max_valuations, &guard);
        assert!(!m.tick());
        assert!(!m.tick(), "interrupts are sticky");
        // A second meter on the same guard trips immediately too.
        let mut m2 = Meter::guarded(MeterKind::Candidates, budget.max_candidates, &guard);
        assert!(!m2.tick());
        assert_eq!(m2.interrupt(), Some(Interrupt::Deadline));
    }
}
