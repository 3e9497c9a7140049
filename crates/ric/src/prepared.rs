//! Prepared decisions: compile the setting once, decide many times.
//!
//! [`prepare`] builds a [`PreparedSetting`] — under
//! [`Engine::Planned`](ric_complete::Engine::Planned), the setting's
//! upper-bound tableaux compiled to cost-based query plans whose join orders
//! are estimated from the statistics of a representative database. The `try_*_prepared` entry
//! points mirror [`try_rcdp`](crate::try_rcdp) / [`try_rcqp`](crate::try_rcqp)
//! (panic-isolated, explainable) but reuse the shared preparation, emitting
//! `plan.reuse` instead of `plan.compile` per decision.
//!
//! Preparation is advisory: statistics steer join orders only, so a prepared
//! decision returns the same verdict, witness, and deterministic counters as
//! a fresh one — on any database, even one the statistics never saw.

use crate::guard::{isolate, Decision, DecisionError};
use ric_complete::{Engine, PreparedSetting, Query, QueryVerdict, RcError, Setting, Verdict};
use ric_data::Database;
use ric_telemetry::Probe;

/// Compile `setting` once for `engine`, costing planned join orders from
/// `stats_db`'s statistics (an empty `stats_db` gives every plan the static
/// greedy order). Under [`Engine::Naive`](Engine::Naive) there is nothing to
/// compile and prepared decisions are plain ones.
pub fn prepare(
    setting: &Setting,
    stats_db: &Database,
    engine: Engine,
) -> Result<PreparedSetting, RcError> {
    PreparedSetting::prepare(setting.clone(), stats_db, engine)
}

/// [`try_rcdp`](crate::try_rcdp) against a [`PreparedSetting`]: the decision
/// reuses the prepared constraint compilation instead of rebuilding it.
pub fn try_rcdp_prepared(
    prepared: &PreparedSetting,
    query: &Query,
    db: &Database,
    budget: &ric_complete::SearchBudget,
) -> Result<Verdict, DecisionError> {
    try_rcdp_prepared_probed(prepared, query, db, budget, Probe::disabled()).map(|d| d.verdict)
}

/// [`try_rcdp_prepared`] with a telemetry probe attached.
pub fn try_rcdp_prepared_probed(
    prepared: &PreparedSetting,
    query: &Query,
    db: &Database,
    budget: &ric_complete::SearchBudget,
    probe: Probe<'_>,
) -> Result<Decision<Verdict>, DecisionError> {
    isolate(probe, |p| prepared.rcdp_probed(query, db, budget, p))
}

/// [`try_rcqp`](crate::try_rcqp) against a [`PreparedSetting`].
pub fn try_rcqp_prepared(
    prepared: &PreparedSetting,
    query: &Query,
    budget: &ric_complete::SearchBudget,
) -> Result<QueryVerdict, DecisionError> {
    try_rcqp_prepared_probed(prepared, query, budget, Probe::disabled()).map(|d| d.verdict)
}

/// [`try_rcqp_prepared`] with a telemetry probe attached.
pub fn try_rcqp_prepared_probed(
    prepared: &PreparedSetting,
    query: &Query,
    budget: &ric_complete::SearchBudget,
    probe: Probe<'_>,
) -> Result<Decision<QueryVerdict>, DecisionError> {
    isolate(probe, |p| prepared.rcqp_probed(query, budget, p))
}
