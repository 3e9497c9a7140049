//! The static-analysis gate in front of facade decisions.
//!
//! [`analyze`] runs the `ric-analysis` static pass over a setting and query;
//! [`Request::analyzed`](crate::Request::analyzed) puts that pass in front of
//! the deciders:
//!
//! 1. **Gate** — a report with Error-level diagnostics (unsafe FO, invalid
//!    FP, arity-broken constraints, …) is rejected up front with
//!    [`DecisionError::Rejected`], instead of surfacing as a deep evaluator
//!    error or a panic mid-search.
//! 2. **Dispatch** — certified fragment downgrades are applied before the
//!    decision, so an FO-wrapped conjunctive query pays the exact Σᵖ₂ CQ
//!    cell of Tables I/II rather than the bounded FO search. Each applied
//!    downgrade bumps the `analysis.downgrade` telemetry counter, and the
//!    full report is attached as an `analysis.report` note (JSON, the same
//!    shape [`AnalysisReport::to_json`](ric_analysis::AnalysisReport::to_json)
//!    serializes).
//!
//! The rewrites are equivalence-certified by differential evaluation, so the
//! verdict is the same one the naive dispatch would eventually produce —
//! only cheaper. The `analysis` suite of `BENCH_BARS.json` (see
//! EXPERIMENTS.md) measures the effect.

use crate::guard::DecisionError;
pub use ric_analysis::analyze;
use ric_complete::{Query, Setting};
use ric_telemetry::Probe;

/// Run the gate: reject Error-level reports, otherwise apply the certified
/// rewrites and record telemetry.
pub(crate) fn gate(
    setting: &Setting,
    query: &Query,
    probe: Probe<'_>,
) -> Result<(Setting, Query), DecisionError> {
    let report = analyze(setting, query);
    probe.note("analysis.report", || report.to_json().pretty());
    if report.has_errors() {
        probe.count("analysis.rejected", 1);
        return Err(DecisionError::Rejected(Box::new(report)));
    }
    let downgrades = report.downgrade_count();
    if downgrades > 0 {
        probe.count("analysis.downgrade", downgrades as u64);
    }
    Ok(report.apply(setting, query))
}
