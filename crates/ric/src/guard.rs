//! Panic isolation for facade decisions.
//!
//! The deciders promise "sound or `Unknown`" for every *anticipated* limit —
//! budgets, deadlines, cancellation. A defect (ours or in a user-supplied
//! [`Sink`]) is not anticipated: it panics. Every facade
//! [`Request`](crate::Request) runs its decision inside
//! [`std::panic::catch_unwind`], so a panic surfaces as a typed
//! [`DecisionError::Panic`] instead of unwinding through the caller — the
//! contract an embedding service (one decision per request) needs.
//!
//! To aid post-mortems, each decision tees telemetry into a private
//! [`Collector`] *before* the caller's sink, and a `Panic` error carries the
//! decision-path notes recorded up to the point of the panic — even when the
//! caller's own sink is the component that panicked.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ric_complete::{CheckpointError, Outcome, RcError};
use ric_telemetry::{Collector, Explain, Probe, Sink, TeeSink, TraceState};

/// A facade decision: the verdict, the structured [`Explain`] artifact
/// rebuilt from the decision's own trace (the span tree with a single root
/// and every span closed, summed counters, gauges, notes including the
/// `explain.*` frontier notes for `Unknown`, and any cooperative
/// interrupts), and the [`Checkpoint`](ric_complete::Checkpoint) to resume
/// from when the search stopped on a resumable limit.
///
/// Feed the checkpoint back through [`Request::resume`](crate::Request::resume)
/// — serialized through `Checkpoint::to_json` and `Checkpoint::from_json_str`
/// if it crossed a process boundary.
#[derive(Clone, PartialEq, Debug)]
pub struct Decision<T> {
    /// The decider's verdict, bit-identical to the unprobed run.
    pub verdict: T,
    /// What the search did and why it stopped.
    pub explain: Explain,
    /// Where to pick up, if the search was interrupted resumably.
    pub checkpoint: Option<ric_complete::Checkpoint>,
}

/// Everything that can stop a facade decision from returning a verdict.
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
    /// A prior checkpoint handed to [`Request::resume`](crate::Request::resume)
    /// does not belong to this decision (wrong schema version, wrong
    /// decision kind, or a fingerprint mismatch); the search never started.
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
        match e {
            RcError::Checkpoint(e) => DecisionError::Checkpoint(e),
            e => DecisionError::Rc(e),
        }
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

/// Run one decision panic-isolated under a root `decision` span, rebuilding
/// its [`Explain`] from a private collector teed in front of `probe`'s sink.
pub(crate) fn isolate<T>(
    probe: Probe<'_>,
    run: impl FnOnce(Probe<'_>) -> Result<Outcome<T>, DecisionError>,
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
            let Outcome {
                verdict,
                checkpoint,
            } = inner?;
            let explain = Explain::from_events(&collector.events()).unwrap_or_else(|e| {
                unreachable!(
                    "the root span wraps the whole decision, so the trace is well-formed: {e}"
                )
            });
            Ok(Decision {
                verdict,
                explain,
                checkpoint,
            })
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
