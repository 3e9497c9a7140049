//! Prepared decision settings: compile the constraint machinery **once**,
//! decide many times.
//!
//! Every decider entry point re-derives the same artifacts per call: the
//! upper-bound delta preparation (per-constraint tableaux compiled to
//! cost-based plans under [`Engine::Planned`]).
//! For a one-shot decision that is invisible; for a workload that asks many
//! decisions against the same `(R, R_m, D_m, V)` setting — the extension
//! loop, a benchmark sweep, a service holding a fixed schema — it is pure
//! rework. [`PreparedSetting`] hoists the compilation out of the loop and
//! hands the shared preparation ([`std::sync::Arc`]-backed) to every
//! decision.
//!
//! Preparation never changes verdicts: plans fix the join *order* of checks
//! whose result is order-independent, and the statistics that steer the
//! order are advisory. A `PreparedSetting` built from one database may
//! legally decide another — only timing shifts.

use crate::budget::{Engine, SearchBudget};
use crate::guard::Guard;
use crate::query::Query;
use crate::setting::Setting;
use crate::verdict::{QueryVerdict, RcError, Verdict};
use ric_constraints::{PreparedUpper, StatsProvider};
use ric_data::Database;
use ric_telemetry::Probe;
use std::sync::Arc;

/// The one place a decision picks its upper-bound preparation: the shared
/// `reuse` preparation when given, else a fresh compilation with plans
/// costed from `stats`. Each caller keeps its own choice of *whether* it
/// wants a preparation.
pub(crate) fn upper_preparation(
    setting: &Setting,
    stats: &dyn StatsProvider,
    reuse: Option<&Arc<PreparedUpper>>,
) -> Result<Arc<PreparedUpper>, RcError> {
    if let Some(prep) = reuse {
        return Ok(Arc::clone(prep));
    }
    let prep = PreparedUpper::new(&setting.v, &setting.schema, &setting.dm, stats)?;
    Ok(Arc::new(prep))
}

/// Build the shared upper-bound preparation `engine` wants for `setting`,
/// or `None` when the engine never consults one (the naive engine uses the
/// materialized union; IND-only settings use the C3 delta identity with no
/// tableaux to prepare).
pub(crate) fn prepare_upper(
    setting: &Setting,
    engine: Engine,
    stats: &dyn StatsProvider,
) -> Result<Option<Arc<PreparedUpper>>, RcError> {
    if setting.v.is_ind_set() || !engine.indexed() {
        return Ok(None);
    }
    upper_preparation(setting, stats, None).map(Some)
}

/// A [`Setting`] with its constraint compilation done up front.
///
/// Build one with [`PreparedSetting::prepare`], then call the mirrored
/// decider methods ([`Self::rcdp`], [`Self::rcqp`], …) any number of times:
/// each decision reuses the shared preparation instead of recompiling, and
/// emits `plan.reuse` instead of `plan.compile`. Under [`Engine::Naive`]
/// (and for IND-only constraint sets) there is nothing to compile, and a
/// prepared decision is a plain one.
pub struct PreparedSetting {
    setting: Setting,
    engine: Engine,
    upper: Option<Arc<PreparedUpper>>,
}

impl PreparedSetting {
    /// Compile `setting`'s upper bounds once for `engine`. Under
    /// [`Engine::Planned`] the join orders are costed from `stats_db`'s
    /// statistics; with empty statistics every plan falls back to the static
    /// greedy most-bound-first order rather than failing.
    pub fn prepare(setting: Setting, stats_db: &Database, engine: Engine) -> Result<Self, RcError> {
        Self::prepare_with_stats(setting, stats_db, engine)
    }

    /// Like [`PreparedSetting::prepare`], but the join-order statistics come
    /// from an arbitrary [`StatsProvider`] — e.g. a live database clamped by
    /// chase-derived cardinality caps, or precomputed workload statistics.
    /// Statistics are advisory everywhere: they steer join order under
    /// [`Engine::Planned`] and never change answers.
    pub fn prepare_with_stats(
        setting: Setting,
        stats: &dyn StatsProvider,
        engine: Engine,
    ) -> Result<Self, RcError> {
        let upper = prepare_upper(&setting, engine, stats)?;
        Ok(PreparedSetting {
            setting,
            engine,
            upper,
        })
    }

    /// The underlying setting.
    pub fn setting(&self) -> &Setting {
        &self.setting
    }

    /// The engine this preparation was compiled for.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// `(plans compiled, static fallbacks, summed estimated cost)` across
    /// the prepared constraint bodies, when a preparation exists and plans
    /// were compiled (planned engine, some monotone constraint body).
    pub fn plan_summary(&self) -> Option<(usize, usize, f64)> {
        let (compiled, fallbacks, cost) = self.upper.as_ref()?.plan_summary();
        (compiled > 0).then_some((compiled, fallbacks, cost))
    }

    /// Human-readable rendering of every compiled plan (the Explain note),
    /// empty when no plans were compiled.
    pub fn render_plans(&self) -> String {
        match &self.upper {
            Some(prep) => prep.render_plans(|rel| {
                self.setting
                    .schema
                    .relation(rel)
                    .map(|r| r.name.clone())
                    .unwrap_or_else(|_| format!("r{}", rel.0))
            }),
            None => String::new(),
        }
    }

    /// The per-relation row counts the compiled plans were costed from,
    /// empty when no plans were compiled (naive engine, IND-only settings).
    /// Streaming callers (`ric-monitor`) compare these against live
    /// cardinalities to detect statistics drift and replan.
    pub fn planned_rows(&self) -> Vec<(ric_data::RelId, usize)> {
        self.upper
            .as_ref()
            .map(|u| u.planned_rows().to_vec())
            .unwrap_or_default()
    }

    /// Incremental upper-bound check against this preparation: given that
    /// the upper bounds hold on `ov.base()` (minus any tombstones), do they
    /// hold on the effective view? `Ok(None)` when the engine compiled no
    /// preparation (naive engine, IND-only settings) — the caller falls
    /// back to a full check.
    pub fn upper_satisfied_delta(
        &self,
        ov: &ric_data::Overlay<'_>,
    ) -> Result<Option<ric_constraints::DeltaCheck>, RcError> {
        match &self.upper {
            Some(prep) => Ok(Some(prep.satisfied_delta(&self.setting.v, ov)?)),
            None => Ok(None),
        }
    }

    /// The shared preparation, for the `*_reusing` decider internals.
    pub(crate) fn upper(&self) -> Option<&Arc<PreparedUpper>> {
        self.upper.as_ref()
    }

    /// The budget this preparation expects: the caller's limits with the
    /// engine pinned to the prepared one.
    fn budget_for(&self, budget: &SearchBudget) -> SearchBudget {
        let mut b = *budget;
        b.engine = self.engine;
        b
    }

    /// [`crate::rcdp::rcdp`] reusing this preparation.
    pub fn rcdp(
        &self,
        query: &Query,
        db: &Database,
        budget: &SearchBudget,
    ) -> Result<Verdict, RcError> {
        self.rcdp_probed(query, db, budget, Probe::disabled())
    }

    /// [`crate::rcdp::rcdp_probed`] reusing this preparation.
    pub fn rcdp_probed(
        &self,
        query: &Query,
        db: &Database,
        budget: &SearchBudget,
        probe: Probe<'_>,
    ) -> Result<Verdict, RcError> {
        let budget = self.budget_for(budget);
        self.rcdp_guarded(query, db, &budget, &Guard::new(&budget), probe)
    }

    /// [`crate::rcdp::rcdp_guarded`] reusing this preparation.
    pub fn rcdp_guarded(
        &self,
        query: &Query,
        db: &Database,
        budget: &SearchBudget,
        guard: &Guard,
        probe: Probe<'_>,
    ) -> Result<Verdict, RcError> {
        let budget = self.budget_for(budget);
        let (verdict, _) = crate::rcdp::decide(
            &self.setting,
            query,
            db,
            &budget,
            guard,
            probe,
            self.upper(),
            None,
        )?;
        Ok(verdict)
    }

    /// [`crate::rcqp::rcqp`] reusing this preparation.
    pub fn rcqp(&self, query: &Query, budget: &SearchBudget) -> Result<QueryVerdict, RcError> {
        self.rcqp_probed(query, budget, Probe::disabled())
    }

    /// [`crate::rcqp::rcqp_probed`] reusing this preparation.
    pub fn rcqp_probed(
        &self,
        query: &Query,
        budget: &SearchBudget,
        probe: Probe<'_>,
    ) -> Result<QueryVerdict, RcError> {
        let budget = self.budget_for(budget);
        self.rcqp_guarded(query, &budget, &Guard::new(&budget), probe)
    }

    /// [`crate::rcqp::rcqp_guarded`] reusing this preparation.
    pub fn rcqp_guarded(
        &self,
        query: &Query,
        budget: &SearchBudget,
        guard: &Guard,
        probe: Probe<'_>,
    ) -> Result<QueryVerdict, RcError> {
        let budget = self.budget_for(budget);
        crate::rcqp::rcqp_guarded_reusing(&self.setting, query, &budget, guard, probe, self.upper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_constraints::{CcBody, ConstraintSet, ContainmentConstraint};
    use ric_data::{RelationSchema, Schema, Tuple, Value};
    use ric_query::parse_cq;

    fn setting_and_db() -> (Setting, Database) {
        let schema = Schema::from_relations(vec![RelationSchema::infinite(
            "Supt",
            &["eid", "dept", "cid"],
        )])
        .unwrap();
        let supt = schema.rel_id("Supt").unwrap();
        let m_schema =
            Schema::from_relations(vec![RelationSchema::infinite("Cust", &["cid"])]).unwrap();
        let cust = m_schema.rel_id("Cust").unwrap();
        let mut dm = Database::empty(&m_schema);
        for c in [1, 2, 3] {
            dm.insert(cust, Tuple::new([Value::int(c)]));
        }
        // CQ body (not a bare projection) so the constraint set is not an
        // IND set and the delta preparation actually compiles.
        let q = parse_cq(&schema, "Q(C) :- Supt(E, D, C), D = 1.").unwrap();
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Cq(q),
            cust,
            vec![0],
        )]);
        let setting = Setting::new(schema, m_schema, dm, v);
        let mut db = Database::empty(&setting.schema);
        db.insert(
            supt,
            Tuple::new([Value::int(10), Value::int(1), Value::int(1)]),
        );
        (setting, db)
    }

    #[test]
    fn prepared_rcdp_matches_fresh_decision_per_engine() {
        let (setting, db) = setting_and_db();
        let query = Query::Cq(parse_cq(&setting.schema, "Q(E) :- Supt(E, D, C).").unwrap());
        for engine in [Engine::planned(1), Engine::planned(2)] {
            let budget = SearchBudget {
                engine,
                ..SearchBudget::default()
            };
            let fresh = crate::rcdp::rcdp(&setting, &query, &db, &budget).unwrap();
            let prepared = PreparedSetting::prepare(setting.clone(), &db, engine).unwrap();
            let reused = prepared.rcdp(&query, &db, &budget).unwrap();
            assert_eq!(
                format!("{fresh:?}"),
                format!("{reused:?}"),
                "engine {engine}"
            );
            // A second decision reuses the same Arc — no recompilation.
            let again = prepared.rcdp(&query, &db, &budget).unwrap();
            assert_eq!(format!("{fresh:?}"), format!("{again:?}"));
        }
    }

    #[test]
    fn planned_preparation_exposes_summary_and_render() {
        let (setting, db) = setting_and_db();
        let prepared = PreparedSetting::prepare(setting, &db, Engine::planned(1)).unwrap();
        let (compiled, _fallbacks, _cost) = prepared.plan_summary().expect("plans compiled");
        assert!(compiled >= 1);
        assert!(prepared.render_plans().contains("est="));
    }
}
