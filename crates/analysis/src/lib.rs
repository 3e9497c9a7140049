//! `ric-analysis` — static analysis in front of the RCDP/RCQP deciders.
//!
//! The decision problems of the paper are parameterised by the language pair
//! `(L_Q, L_C)`, and the complexity cell (Tables I & II) is determined by the
//! *smallest* fragment the query and constraints actually inhabit — not the
//! syntax they happen to be written in. This crate analyzes a full setting
//! `(Q, V, schema)` *before* any decision runs and produces an
//! [`AnalysisReport`] containing:
//!
//! - typed [`Diagnostic`]s with stable codes (`RIC001`…), a severity
//!   ([`Severity::Error`] / `Warn` / `Info`), and a [`Pointer`] to the
//!   offending query, constraint, or rule;
//! - a proven minimal-fragment [`Classification`] for the query and every
//!   constraint body, with the rewrite in the smaller language as a checkable
//!   witness (each step checked by homomorphisms or correct by construction,
//!   see [`classify`]).
//!
//! The analyses: FO safety / range restriction (unsafe variables, depth),
//! FP validation / reachability / stratification notes, CQ lints
//! (contradictory equalities, `≠` tautologies and contradictions, duplicate
//! atoms), and containment-constraint well-formedness (arity vs schema,
//! non-projections, unknown relations, trivially-satisfied and
//! forcing-empty constraints).
//!
//! The `ric` facade wires this in: `ric::analyze` produces the report, and
//! an analysis-gated request (`ric::Request::analyzed`) rejects Error-level
//! settings and dispatches the certified rewrite to the cheapest cell (see
//! DESIGN.md §9).
//!
//! Analysis classifies *fragments*; it does not reason about content. The
//! symbolic reasoner's findings (RIC040–RIC044: implied constraints, static
//! verdicts, degradations) come from the one reasoner run of a
//! `ric::ReasonedSetting`, rendered by [`reason_diagnostics`] from its
//! facts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod diag;
pub mod lints;

pub use classify::{classify_body, classify_query, Classification, MAX_DNF_DISJUNCTS};
pub use diag::{Code, Diagnostic, Pointer, Severity};

use ric_complete::{Query, Setting};
use ric_constraints::CcBody;
use ric_query::QueryLanguage;
use ric_reason::{ReasonNote, StaticFacts};
use ric_telemetry::Json;

/// The result of statically analyzing a setting and query.
#[derive(Clone, PartialEq, Debug)]
pub struct AnalysisReport {
    /// All findings, in analysis order (query first, then constraints, then
    /// lower bounds).
    pub diagnostics: Vec<Diagnostic>,
    /// Minimal-fragment classification of the query.
    pub query: Classification<Query>,
    /// Classification of each upper-bound constraint body, indexed like
    /// `setting.v.ccs`.
    pub constraints: Vec<Classification<CcBody>>,
    /// Classification of each lower-bound constraint body, indexed like
    /// `setting.v.lower_bounds`.
    pub lower_bounds: Vec<Classification<CcBody>>,
}

impl AnalysisReport {
    /// Does the report contain any Error-level finding? The gated entry
    /// points reject such settings.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The Error-level findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The worst severity present, if any finding exists.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// How many objects (query + constraint bodies) were certified into a
    /// strictly smaller fragment. Reported as the `analysis.downgrade`
    /// telemetry counter.
    pub fn downgrade_count(&self) -> usize {
        usize::from(self.query.downgraded())
            + self.constraints.iter().filter(|c| c.downgraded()).count()
            + self.lower_bounds.iter().filter(|c| c.downgraded()).count()
    }

    /// The language cell the *query* dispatches to after downgrades.
    pub fn effective_query_language(&self) -> QueryLanguage {
        self.query.minimal
    }

    /// Rewrite the setting and query into their certified minimal fragments.
    /// Uncertified objects are kept verbatim, so the result is always
    /// equivalent to the input — the rewrites are exactly the witnesses in
    /// the report.
    pub fn apply(&self, setting: &Setting, query: &Query) -> (Setting, Query) {
        let q = match &self.query.rewritten {
            Some(r) if self.query.certified => r.clone(),
            _ => query.clone(),
        };
        let mut s = setting.clone();
        for (c, slot) in self.constraints.iter().zip(s.v.ccs.iter_mut()) {
            if let Some(b) = &c.rewritten {
                if c.certified {
                    slot.body = b.clone();
                }
            }
        }
        for (c, slot) in self.lower_bounds.iter().zip(s.v.lower_bounds.iter_mut()) {
            if let Some(b) = &c.rewritten {
                if c.certified {
                    slot.body = b.clone();
                }
            }
        }
        (s, q)
    }

    /// Serialize through the telemetry JSON model (the same model the JSONL
    /// sinks and table artifacts use).
    pub fn to_json(&self) -> Json {
        fn cls_json<T>(c: &Classification<T>) -> Json {
            Json::obj([
                ("declared", Json::from(format!("{:?}", c.declared))),
                ("minimal", Json::from(format!("{:?}", c.minimal))),
                ("downgraded", Json::from(c.downgraded())),
                ("certified", Json::from(c.certified)),
            ])
        }
        Json::obj([
            ("errors", Json::from(self.errors().count())),
            (
                "warnings",
                Json::from(
                    self.diagnostics
                        .iter()
                        .filter(|d| d.severity == Severity::Warn)
                        .count(),
                ),
            ),
            ("downgrades", Json::from(self.downgrade_count())),
            ("query", cls_json(&self.query)),
            (
                "constraints",
                Json::arr(self.constraints.iter().map(cls_json)),
            ),
            (
                "lower_bounds",
                Json::arr(self.lower_bounds.iter().map(cls_json)),
            ),
            (
                "diagnostics",
                Json::arr(self.diagnostics.iter().map(Diagnostic::to_json)),
            ),
        ])
    }
}

/// Statically analyze a setting and query: run every lint, classify the
/// query and each constraint body into its certified minimal fragment, and
/// collect the findings into an [`AnalysisReport`].
pub fn analyze(setting: &Setting, query: &Query) -> AnalysisReport {
    let mut diagnostics = lints::query_lints(&setting.schema, query);
    let (query_cls, d) = classify_query(&setting.schema, query);
    diagnostics.extend(d);

    let mut constraints = Vec::with_capacity(setting.v.ccs.len());
    for (i, cc) in setting.v.ccs.iter().enumerate() {
        diagnostics.extend(lints::cc_lints(
            cc,
            &setting.schema,
            &setting.master_schema,
            i,
        ));
        let (cls, d) = classify_body(&setting.schema, &cc.body, Pointer::Constraint(i));
        diagnostics.extend(d);
        constraints.push(cls);
    }

    let mut lower_bounds = Vec::with_capacity(setting.v.lower_bounds.len());
    for (i, lb) in setting.v.lower_bounds.iter().enumerate() {
        diagnostics.extend(lints::lower_bound_lints(
            lb,
            &setting.schema,
            &setting.master_schema,
            i,
        ));
        let (cls, d) = classify_body(&setting.schema, &lb.body, Pointer::LowerBound(i));
        diagnostics.extend(d);
        lower_bounds.push(cls);
    }

    AnalysisReport {
        diagnostics,
        query: query_cls,
        constraints,
        lower_bounds,
    }
}

/// Render the reasoner's proven [`StaticFacts`] as stable diagnostics
/// (RIC040–RIC044). [`analyze`] does not reason: pass the facts of the
/// preparation that decides (`ric::ReasonedSetting::facts`), so the rows
/// describe exactly the facts the decision uses.
pub fn reason_diagnostics(facts: &StaticFacts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for implied in &facts.implied {
        out.push(Diagnostic::new(
            Code::ImpliedCc,
            Pointer::Constraint(implied.cc),
            format!(
                "constraint is implied by kept constraints {:?} (relative to the fixed master data); the minimized V drops it from the per-candidate recheck loop",
                implied.by
            ),
        ));
    }
    for &di in &facts.unsat_disjuncts {
        out.push(Diagnostic::new(
            Code::UnsatUnderV,
            Pointer::QueryDisjunct(di),
            "disjunct is statically unsatisfiable under V: no legal extension can match it",
        ));
    }
    if facts.statically_complete {
        out.push(Diagnostic::new(
            Code::StaticallyComplete,
            Pointer::Query,
            "every query disjunct dies under V (proven): the RCDP decision is statically Complete",
        ));
    }
    if let Some(cover) = facts.cover {
        out.push(Diagnostic::new(
            Code::StaticallyComplete,
            Pointer::Query,
            format!(
                "query is contained in the body of constraint {} (proven): decisions short-circuit to Complete whenever p(D_m) ⊆ Q(D)",
                cover.cc
            ),
        ));
    }
    for note in &facts.notes {
        match note {
            ReasonNote::Uncertified { what, why } => out.push(Diagnostic::new(
                Code::UncertifiedStatic,
                Pointer::Setting,
                format!("{what} failed its proof and was discarded: {why}"),
            )),
            ReasonNote::Degraded { place, why } => {
                let pointer = if place == "query" {
                    Pointer::Query
                } else if let Some(i) = place
                    .strip_prefix("cc ")
                    .and_then(|i| i.parse::<usize>().ok())
                {
                    Pointer::Constraint(i)
                } else if let Some(i) = place
                    .strip_prefix("query disjunct ")
                    .and_then(|i| i.parse::<usize>().ok())
                {
                    Pointer::QueryDisjunct(i)
                } else {
                    Pointer::Setting
                };
                out.push(Diagnostic::new(
                    Code::ReasonDegraded,
                    pointer,
                    format!("symbolic reasoning degraded: {why}"),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_constraints::{CcBody, ConstraintSet, ContainmentConstraint};
    use ric_data::{Database, RelationSchema, Schema};
    use ric_query::{parse_cq, FoExpr, FoQuery, Var};

    fn schemas() -> (Schema, Schema) {
        let s = Schema::from_relations(vec![
            RelationSchema::infinite("R", &["a", "b"]),
            RelationSchema::infinite("S", &["a"]),
        ])
        .unwrap();
        let m = Schema::from_relations(vec![RelationSchema::infinite("M", &["a"])]).unwrap();
        (s, m)
    }

    fn setting_with(ccs: Vec<ContainmentConstraint>) -> Setting {
        let (s, m) = schemas();
        let dm = Database::empty(&m);
        Setting::new(s, m, dm, ConstraintSet::new(ccs))
    }

    #[test]
    fn clean_setting_produces_no_errors() {
        let (s, _) = schemas();
        let q = parse_cq(&s, "Q(X) :- R(X, Y).").unwrap();
        let m = setting_with(vec![]);
        let report = analyze(&m, &Query::Cq(q));
        assert!(!report.has_errors());
        assert_eq!(report.max_severity(), None);
        assert_eq!(report.downgrade_count(), 0);
    }

    #[test]
    fn unsafe_fo_query_is_rejected_material() {
        let (s, _) = schemas();
        let r = s.rel_id("R").unwrap();
        let q = FoQuery::new(
            vec![Var(0)],
            FoExpr::Atom(ric_query::Atom::new(
                r,
                vec![ric_query::Term::Var(Var(0)), ric_query::Term::Var(Var(1))],
            )),
            vec!["x".into(), "y".into()],
        );
        let m = setting_with(vec![]);
        let report = analyze(&m, &Query::Fo(q));
        assert!(report.has_errors());
        assert!(report.errors().any(|d| d.code == Code::FoUnsafeVariable));
    }

    #[test]
    fn apply_rewrites_query_and_constraint_bodies() {
        let (s, m) = schemas();
        let mrel = m.rel_id("M").unwrap();
        // Projection-shaped CQ body: downgrades to an IND.
        let body = parse_cq(&s, "Q(A) :- S(A).").unwrap();
        let cc = ContainmentConstraint::into_master(CcBody::Cq(body), mrel, vec![0]);
        let setting = setting_with(vec![cc]);
        let q = ric_query::parse_ucq(&s, "Q(X) :- R(X, Y).").unwrap();
        let report = analyze(&setting, &Query::Ucq(q.clone()));
        assert!(!report.has_errors());
        assert_eq!(report.downgrade_count(), 2);
        let (s2, q2) = report.apply(&setting, &Query::Ucq(q));
        assert!(matches!(q2, Query::Cq(_)));
        assert!(s2.v.is_ind_set());
        assert_eq!(report.effective_query_language(), QueryLanguage::Cq);
    }

    #[test]
    fn report_serializes_to_json() {
        let (s, _) = schemas();
        let q = parse_cq(&s, "Q(X) :- R(X, Y), X = 1, X = 2.").unwrap();
        let report = analyze(&setting_with(vec![]), &Query::Cq(q));
        let j = report.to_json();
        assert_eq!(j.get("errors").and_then(Json::as_int), Some(0));
        let diags = j.get("diagnostics").and_then(Json::as_arr).unwrap();
        assert!(diags
            .iter()
            .any(|d| d.get("code").and_then(Json::as_str) == Some("RIC008")));
        // Round-trips through the telemetry JSON parser.
        let text = j.pretty();
        assert!(ric_telemetry::json::parse(&text).is_ok());
    }
}
