//! Panic-isolated decision entry points.
//!
//! The deciders promise "sound or `Unknown`" for every *anticipated* limit —
//! budgets, deadlines, cancellation. A defect (ours or in a user-supplied
//! [`Sink`]) is not anticipated: it panics. The `try_*` functions here wrap
//! each decision in [`std::panic::catch_unwind`] so a panic surfaces as a
//! typed [`DecisionError::Panic`] instead of unwinding through the caller —
//! the contract an embedding service (one decision per request) needs.
//!
//! To aid post-mortems, each `try_*` call tees telemetry into a private
//! [`Collector`] *before* the caller's sink, and a `Panic` error carries the
//! decision-path notes recorded up to the point of the panic — even when the
//! caller's own sink is the component that panicked.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ric_complete::{
    rcdp_fingerprint, rcdp_guarded, rcdp_resumed_guarded, rcqp_fingerprint, rcqp_guarded,
    rcqp_resumed_guarded, Checkpoint, CheckpointError, DecisionKind, Guard, Query, QueryVerdict,
    RcError, SearchBudget, Setting, Verdict,
};
use ric_data::Database;
use ric_telemetry::{Collector, Explain, Probe, Sink, TeeSink, TraceState};

/// A verdict together with the structured [`Explain`] artifact rebuilt from
/// the decision's own trace: the span tree (single root, every span closed),
/// summed counters, gauges, notes (including the `explain.*` frontier notes
/// for `Unknown`), and any cooperative interrupts.
///
/// Every probed/guarded `try_*` entry point returns one of these; the plain
/// [`try_rcdp`]/[`try_rcqp`] wrappers discard the explanation and hand back
/// the bare verdict.
#[derive(Clone, PartialEq, Debug)]
pub struct Decision<T> {
    /// The decider's verdict, bit-identical to the unprobed run.
    pub verdict: T,
    /// What the search did and why it stopped.
    pub explain: Explain,
}

/// Everything that can stop a `try_*` decision from returning a verdict.
///
/// A verdict of `Unknown` is *not* an error — budgets, deadlines, and
/// cancellation all degrade to `Unknown` inside the `Ok` channel. This type
/// covers the two genuinely exceptional cases: a typed decider error
/// ([`RcError`]) and a panic caught at the facade boundary.
#[derive(Clone, PartialEq, Debug)]
pub enum DecisionError {
    /// The decider returned a typed error (bad program, schema mismatch, …).
    Rc(RcError),
    /// The decision panicked; the panic did not cross the facade.
    Panic {
        /// The panic payload, when it was a string (the common case).
        message: String,
        /// Telemetry decision-path notes recorded before the panic.
        notes: Vec<String>,
    },
    /// Static analysis found Error-level diagnostics; the decision never
    /// started. The full [`AnalysisReport`](ric_analysis::AnalysisReport)
    /// is attached — `report.errors()` lists what must be fixed.
    Rejected(Box<ric_analysis::AnalysisReport>),
    /// A prior [`Checkpoint`] handed to a `try_*_resumed` entry point does
    /// not belong to this decision (wrong schema version, wrong decision
    /// kind, or a fingerprint mismatch); the decision never started.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for DecisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecisionError::Rc(e) => write!(f, "{e}"),
            DecisionError::Panic { message, .. } => {
                write!(f, "decision panicked: {message}")
            }
            DecisionError::Rejected(report) => {
                write!(f, "setting rejected by static analysis:")?;
                for d in report.errors() {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            DecisionError::Checkpoint(e) => write!(f, "checkpoint rejected: {e}"),
        }
    }
}

impl std::error::Error for DecisionError {}

impl From<RcError> for DecisionError {
    fn from(e: RcError) -> Self {
        DecisionError::Rc(e)
    }
}

impl From<CheckpointError> for DecisionError {
    fn from(e: CheckpointError) -> Self {
        DecisionError::Checkpoint(e)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

pub(crate) fn isolate<T>(
    probe: Probe<'_>,
    run: impl FnOnce(Probe<'_>) -> Result<T, RcError>,
) -> Result<Decision<T>, DecisionError> {
    // The collector records first so the decision path survives even when
    // the caller's sink is the panicking component.
    let collector = Collector::new();
    let tee = TeeSink::new(Some(&collector), probe.sink());
    // The decision runs traced against the caller's trace state when one is
    // attached (ids stay consistent in the caller's own stream) or a fresh
    // one otherwise, so the collector always sees a rebuildable span tree.
    let fresh = TraceState::new();
    let trace = probe.trace().unwrap_or(&fresh);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let p = Probe::attached(&tee).with_trace(trace);
        let root = p.span("decision");
        let out = run(p);
        drop(root);
        out
    }));
    // Flush buffered sinks on every exit — including the panic path, where
    // the buffered tail is exactly the evidence a post-mortem needs. The
    // flush itself is isolated too: a sink that panics while flushing must
    // not replace (or mask) the decision's own outcome.
    let _ = catch_unwind(AssertUnwindSafe(|| Sink::flush(&tee)));
    match result {
        Ok(inner) => {
            let verdict = inner.map_err(DecisionError::Rc)?;
            let explain = Explain::from_events(&collector.events()).unwrap_or_else(|e| {
                unreachable!(
                    "the root span wraps the whole decision, so the trace is well-formed: {e}"
                )
            });
            Ok(Decision { verdict, explain })
        }
        Err(payload) => Err(DecisionError::Panic {
            message: panic_message(payload),
            notes: collector
                .report()
                .notes
                .iter()
                .flat_map(|(name, texts)| texts.iter().map(move |text| format!("{name}: {text}")))
                .collect(),
        }),
    }
}

/// [`rcdp`](fn@ric_complete::rcdp), panic-isolated. Never panics: a panic
/// anywhere inside the decision (or an attached sink) becomes
/// [`DecisionError::Panic`].
pub fn try_rcdp(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
) -> Result<Verdict, DecisionError> {
    try_rcdp_guarded(
        setting,
        query,
        db,
        budget,
        &Guard::new(budget),
        Probe::disabled(),
    )
    .map(|d| d.verdict)
}

/// [`try_rcdp`] with a telemetry probe attached; the verdict arrives inside
/// a [`Decision`] carrying the structured [`Explain`].
pub fn try_rcdp_probed(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    probe: Probe<'_>,
) -> Result<Decision<Verdict>, DecisionError> {
    try_rcdp_guarded(setting, query, db, budget, &Guard::new(budget), probe)
}

/// [`try_rcdp`] with an explicit [`Guard`] (deadline, [`CancelToken`],
/// fault plan) and a telemetry probe.
///
/// [`CancelToken`]: ric_complete::CancelToken
pub fn try_rcdp_guarded(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
) -> Result<Decision<Verdict>, DecisionError> {
    isolate(probe, |p| {
        rcdp_guarded(setting, query, db, budget, guard, p)
    })
}

/// A [`Decision`] plus the [`Checkpoint`] to resume from, when the decision
/// stopped on a resumable budget limit (valuation/candidate budget, deadline,
/// or cancellation). `checkpoint` is `None` when the verdict is conclusive or
/// the stop is not resumable (pool bounds, unsupported fragments).
///
/// Feed the checkpoint back — serialized through [`Checkpoint::to_json`] and
/// [`Checkpoint::from_json_str`] if it crossed a process boundary — as the
/// `prior` of the next installment. The resume invariant (DESIGN.md §10): a
/// decision completed in K installments with non-decreasing budgets returns
/// the same verdict, witness, and search counters as one uninterrupted run
/// at the final budget, on the same engine.
#[derive(Clone, PartialEq, Debug)]
pub struct Resumed<T> {
    /// The installment's verdict and explanation.
    pub decision: Decision<T>,
    /// Where to pick up, if the search was interrupted resumably.
    pub checkpoint: Option<Checkpoint>,
}

/// [`try_rcdp`] that can pick up where a prior interrupted run left off.
///
/// Pass `None` for a fresh decision; pass the [`Checkpoint`] from a previous
/// [`Resumed`] to skip the work that installment already committed. A prior
/// checkpoint from a different decision (or an unknown schema version) is
/// rejected up front with [`DecisionError::Checkpoint`].
pub fn try_rcdp_resumed(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    prior: Option<&Checkpoint>,
) -> Result<(Verdict, Option<Checkpoint>), DecisionError> {
    try_rcdp_resumed_guarded(
        setting,
        query,
        db,
        budget,
        &Guard::new(budget),
        Probe::disabled(),
        prior,
    )
    .map(|r| (r.decision.verdict, r.checkpoint))
}

/// [`try_rcdp_resumed`] with a telemetry probe attached.
pub fn try_rcdp_resumed_probed(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    probe: Probe<'_>,
    prior: Option<&Checkpoint>,
) -> Result<Resumed<Verdict>, DecisionError> {
    try_rcdp_resumed_guarded(
        setting,
        query,
        db,
        budget,
        &Guard::new(budget),
        probe,
        prior,
    )
}

/// [`try_rcdp_resumed`] with an explicit [`Guard`] and a telemetry probe.
pub fn try_rcdp_resumed_guarded(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    prior: Option<&Checkpoint>,
) -> Result<Resumed<Verdict>, DecisionError> {
    if let Some(cp) = prior {
        cp.validate(DecisionKind::Rcdp, rcdp_fingerprint(setting, query, db))?;
    }
    let d = isolate(probe, |p| {
        rcdp_resumed_guarded(setting, query, db, budget, guard, p, prior)
    })?;
    Ok(Resumed {
        checkpoint: d.verdict.checkpoint,
        decision: Decision {
            verdict: d.verdict.verdict,
            explain: d.explain,
        },
    })
}

/// [`rcqp`](fn@ric_complete::rcqp), panic-isolated. Never panics.
pub fn try_rcqp(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
) -> Result<QueryVerdict, DecisionError> {
    try_rcqp_guarded(
        setting,
        query,
        budget,
        &Guard::new(budget),
        Probe::disabled(),
    )
    .map(|d| d.verdict)
}

/// [`try_rcqp`] with a telemetry probe attached; the verdict arrives inside
/// a [`Decision`] carrying the structured [`Explain`].
pub fn try_rcqp_probed(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
    probe: Probe<'_>,
) -> Result<Decision<QueryVerdict>, DecisionError> {
    try_rcqp_guarded(setting, query, budget, &Guard::new(budget), probe)
}

/// [`try_rcqp`] with an explicit [`Guard`] and a telemetry probe.
pub fn try_rcqp_guarded(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
) -> Result<Decision<QueryVerdict>, DecisionError> {
    isolate(probe, |p| rcqp_guarded(setting, query, budget, guard, p))
}

/// [`try_rcqp`] that accepts (and may return) a [`Checkpoint`].
///
/// The RCQP frontier is coarse — [`Frontier::Restart`] — so a resumed
/// installment re-runs the search from the top at the new budget; the
/// checkpoint still carries the attempt count, ticks spent, and the
/// fingerprint binding it to this `(setting, query)` pair.
///
/// [`Frontier::Restart`]: ric_complete::Frontier::Restart
pub fn try_rcqp_resumed(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
    prior: Option<&Checkpoint>,
) -> Result<(QueryVerdict, Option<Checkpoint>), DecisionError> {
    try_rcqp_resumed_guarded(
        setting,
        query,
        budget,
        &Guard::new(budget),
        Probe::disabled(),
        prior,
    )
    .map(|r| (r.decision.verdict, r.checkpoint))
}

/// [`try_rcqp_resumed`] with a telemetry probe attached.
pub fn try_rcqp_resumed_probed(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
    probe: Probe<'_>,
    prior: Option<&Checkpoint>,
) -> Result<Resumed<QueryVerdict>, DecisionError> {
    try_rcqp_resumed_guarded(setting, query, budget, &Guard::new(budget), probe, prior)
}

/// [`try_rcqp_resumed`] with an explicit [`Guard`] and a telemetry probe.
pub fn try_rcqp_resumed_guarded(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    prior: Option<&Checkpoint>,
) -> Result<Resumed<QueryVerdict>, DecisionError> {
    if let Some(cp) = prior {
        cp.validate(DecisionKind::Rcqp, rcqp_fingerprint(setting, query))?;
    }
    let d = isolate(probe, |p| {
        rcqp_resumed_guarded(setting, query, budget, guard, p, prior)
    })?;
    Ok(Resumed {
        checkpoint: d.verdict.checkpoint,
        decision: Decision {
            verdict: d.verdict.verdict,
            explain: d.explain,
        },
    })
}
