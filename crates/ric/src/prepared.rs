//! Prepared decisions: compile the setting once, decide many times.
//!
//! [`prepare`] builds a [`PreparedSetting`] — under
//! [`Engine::Planned`](ric_complete::Engine::Planned), the setting's
//! upper-bound tableaux compiled to cost-based query plans whose join orders
//! are estimated from the statistics of a representative database. A
//! [`Request`](crate::Request) against the preparation reuses it, emitting
//! `plan.reuse` instead of `plan.compile` per decision.
//!
//! Preparation is advisory: statistics steer join orders only, so a prepared
//! decision returns the same verdict, witness, and deterministic counters as
//! a fresh one — on any database, even one the statistics never saw.

use crate::guard::{Decision, DecisionError};
use crate::Request;
use ric_complete::{Engine, PreparedSetting, Query, QueryVerdict, RcError, Setting};
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

/// [`Request`](crate::Request) RCQP against a [`PreparedSetting`], verdict
/// only. Kept with this signature for the `perfbench` adapter.
pub fn try_rcqp_prepared(
    prepared: &PreparedSetting,
    query: &Query,
    budget: &ric_complete::SearchBudget,
) -> Result<QueryVerdict, DecisionError> {
    try_rcqp_prepared_probed(prepared, query, budget, Probe::disabled()).map(|d| d.verdict)
}

/// [`try_rcqp_prepared`] with a telemetry probe attached. Kept with this
/// signature for the `perfbench` adapter.
pub fn try_rcqp_prepared_probed(
    prepared: &PreparedSetting,
    query: &Query,
    budget: &ric_complete::SearchBudget,
    probe: Probe<'_>,
) -> Result<Decision<QueryVerdict>, DecisionError> {
    Request::new(prepared)
        .budget(budget)
        .probe(probe)
        .rcqp(query)
}
