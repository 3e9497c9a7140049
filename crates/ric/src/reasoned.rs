//! Reasoned decisions: run the symbolic prover once, decide many times.
//!
//! [`ReasonedSetting::prepare`] runs [`ric_reason::reason`] over one
//! `(setting, query)` pair and bakes its certified [`StaticFacts`] into the
//! decision path three ways:
//!
//! * the per-candidate constraint recheck runs against the **minimized**
//!   `V` — certified-implied constraints are dropped from the loop;
//! * chase-derived **cardinality caps** clamp the planner statistics
//!   (advisory only: join order, never answers);
//! * **static verdicts** short-circuit the search entirely: a certified
//!   statically-unsatisfiable query is `Complete` without enumerating a
//!   single candidate, and a certified cover fact `Q ⊆ body(φ_j)` decides
//!   `Complete` whenever `p_j(D_m) ⊆ Q(D)` holds at decision time.
//!
//! Each constraint of `V` is checked on the input once per decision, so a
//! reasoned decision accepts and rejects exactly the databases the
//! unreasoned one does: the facade checks the constraints minimization
//! dropped, and core checks the kept ones before it searches. A static
//! verdict never reaches core, so it checks both itself. A proven drop is
//! implied by the kept set, so checking it guards only against a wrong drop
//! proof. The `reason_differential` suite pins reasoned decisions verdict-,
//! witness-, and counter-identical to the plain prepared paths, and their
//! input contract to `Setting::partially_closed` of the full `V`.

use crate::guard::{Decision, DecisionError};
use crate::Request;
use ric_complete::{
    rcdp_fingerprint, Checkpoint, DecisionKind, Engine, Outcome, PreparedSetting, Query, RcError,
    Setting, Verdict,
};
use ric_constraints::{CcRhs, ConstraintSet};
use ric_data::{Database, Tuple};
use ric_plan::CappedStats;
use ric_reason::{CapKind, StaticFacts};
use ric_telemetry::Probe;
use std::collections::BTreeSet;

/// A `(setting, query)` pair compiled through the symbolic prover: static
/// facts plus a [`PreparedSetting`] over the minimized constraint set.
pub struct ReasonedSetting {
    /// The constraints minimization dropped, checked on every input.
    dropped: ConstraintSet,
    /// The query the facts were derived for.
    query: Query,
    /// The certified static artifact.
    facts: StaticFacts,
    /// Prepared over the minimized setting, with cap-clamped statistics.
    prepared: PreparedSetting,
    /// `p_j(D_m)` of the covering constraint, precomputed.
    cover_dm: Option<BTreeSet<Tuple>>,
}

impl ReasonedSetting {
    /// Run the reasoner under `budget` and prepare the minimized setting for
    /// `engine`, costing planned join orders from `stats_db` clamped by the
    /// chase-derived cardinality caps.
    pub fn prepare(
        setting: &Setting,
        query: &Query,
        stats_db: &Database,
        engine: Engine,
        budget: &ric_complete::SearchBudget,
    ) -> Result<ReasonedSetting, RcError> {
        Self::prepare_probed(setting, query, stats_db, engine, budget, Probe::disabled())
    }

    /// [`ReasonedSetting::prepare`] with telemetry (`reason.*` counters).
    pub fn prepare_probed(
        setting: &Setting,
        query: &Query,
        stats_db: &Database,
        engine: Engine,
        budget: &ric_complete::SearchBudget,
        probe: Probe<'_>,
    ) -> Result<ReasonedSetting, RcError> {
        let facts = ric_reason::reason_probed(setting, query, budget, probe);
        let mut stats = CappedStats::new(stats_db);
        for cap in &facts.caps {
            stats = match cap.kind {
                CapKind::Rows { limit } => stats.cap_rows(cap.rel, limit),
                CapKind::DistinctAt { col, limit } => stats.cap_distinct(cap.rel, col, limit),
            };
        }
        let prepared = PreparedSetting::prepare(facts.minimized_setting(setting), &stats, engine)?;
        let cover_dm = facts.cover.map(|c| match &setting.v.ccs[c.cc].rhs {
            CcRhs::Master(p) => p.eval(&setting.dm),
            // Cover facts are only derived for master right-hand sides.
            CcRhs::Empty => BTreeSet::new(),
        });
        let dropped = ConstraintSet::new(
            (setting.v.ccs.iter().zip(&facts.kept))
                .filter(|(_, kept)| !**kept)
                .map(|(cc, _)| cc.clone())
                .collect(),
        );
        Ok(ReasonedSetting {
            dropped,
            query: query.clone(),
            facts,
            prepared,
            cover_dm,
        })
    }

    /// The certified static artifact this preparation is built on.
    pub fn facts(&self) -> &StaticFacts {
        &self.facts
    }

    /// The query the facts were derived for.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The preparation over the minimized setting that decisions search.
    pub(crate) fn prepared(&self) -> &PreparedSetting {
        &self.prepared
    }

    /// A reasoned source answers only the query its facts were derived for.
    pub(crate) fn expect_query(&self, query: &Query) -> Result<(), RcError> {
        if std::ptr::eq(query, &self.query) || *query == self.query {
            Ok(())
        } else {
            Err(RcError::Unsupported(
                "a reasoned setting decides only the query it was prepared for".into(),
            ))
        }
    }

    /// RCDP against the reasoned preparation: static verdicts first, then
    /// `req` — a request against [`Self::prepared`] resuming from `prior`
    /// and reporting to `probe` — searches the minimized setting.
    pub(crate) fn decide(
        &self,
        req: ric_complete::Request<'_>,
        prior: Option<&Checkpoint>,
        probe: Probe<'_>,
        db: &Database,
    ) -> Result<Outcome<Verdict>, RcError> {
        let kept = self.prepared.setting();
        if !self.dropped.satisfied(db, &kept.dm)? {
            return Err(RcError::NotPartiallyClosed);
        }
        let shortcut = if self.facts.statically_complete {
            "reason.static_verdict"
        } else {
            // Q ⊆ body(φ_j) ⊆ p_j(R_m) is certified, so on every legal
            // extension Q(D ∪ ΔD) ⊆ p_j(D_m); if p_j(D_m) ⊆ Q(D) already,
            // monotonicity closes the loop: Q(D ∪ ΔD) = Q(D).
            let Some(p_dm) = &self.cover_dm else {
                return req.rcdp(&self.query, db);
            };
            if !p_dm.is_subset(&self.query.eval(db)?) {
                probe.count("reason.cover_miss", 1);
                return req.rcdp(&self.query, db);
            }
            "reason.cover_hit"
        };
        // A static verdict never reaches core, which validates the
        // checkpoint and then checks the kept constraints on the search
        // path: do both here, in that order, before answering.
        if let Some(prior) = prior {
            prior.validate(DecisionKind::Rcdp, rcdp_fingerprint(kept, &self.query, db))?;
        }
        if !kept.partially_closed(db)? {
            return Err(RcError::NotPartiallyClosed);
        }
        probe.count(shortcut, 1);
        probe.note("rcdp.outcome", || "complete".into());
        Ok(Outcome {
            verdict: Verdict::Complete,
            checkpoint: None,
        })
    }

    /// RCDP against the reasoned preparation, without panic isolation or
    /// explain. Kept with this signature for the `perfbench` adapter; new
    /// code uses a [`Request`](crate::Request) against the reasoned setting.
    pub fn rcdp_probed(
        &self,
        db: &Database,
        budget: &ric_complete::SearchBudget,
        probe: Probe<'_>,
    ) -> Result<Verdict, RcError> {
        let req = ric_complete::Request::new(&self.prepared)
            .budget(budget)
            .probe(probe);
        Ok(self.decide(req, None, probe, db)?.verdict)
    }
}

/// [`Request`](crate::Request) against a [`ReasonedSetting`], verdict only.
/// Kept with this signature for the `perfbench` adapter.
pub fn try_rcdp_static(
    reasoned: &ReasonedSetting,
    db: &Database,
    budget: &ric_complete::SearchBudget,
) -> Result<Verdict, DecisionError> {
    try_rcdp_static_probed(reasoned, db, budget, Probe::disabled()).map(|d| d.verdict)
}

/// [`try_rcdp_static`] with a telemetry probe attached. Kept with this
/// signature for the `perfbench` adapter.
pub fn try_rcdp_static_probed(
    reasoned: &ReasonedSetting,
    db: &Database,
    budget: &ric_complete::SearchBudget,
    probe: Probe<'_>,
) -> Result<Decision<Verdict>, DecisionError> {
    Request::new(reasoned)
        .budget(budget)
        .probe(probe)
        .rcdp(reasoned.query(), db)
}
