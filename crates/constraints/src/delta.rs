//! Incremental (delta-aware) satisfaction of upper-bound constraints.
//!
//! The deciders' hot loop asks, for a candidate extension `D ∪ Δ` of a base
//! `D` already known to satisfy the upper bounds, whether the bounds still
//! hold. Because every CC body in `L_C ⊆ ∃FO⁺` is monotone,
//!
//! ```text
//! q(D ∪ Δ) = q(D) ∪ { answers whose derivation uses a novel Δ-tuple }
//! ```
//!
//! so with `q(D) ⊆ rhs` given, the union satisfies the constraint iff the
//! *delta answers* do — computed by compiled [`DeltaPlans`] (the planned
//! mirror of `ric_query::eval::eval_tableau_delta`) without ever
//! materializing the union. Constraints whose body reads no relation with a
//! novel delta tuple are skipped outright (reported as
//! [`DeltaCheck::skipped`], the deciders' `cc.skipped_by_delta` counter).
//!
//! FO and FP bodies are not monotone (negation); for those the overlay is
//! materialized once and the body re-evaluated in full — correct, just not
//! incremental.

use crate::cc::{CcBody, ConstraintSet};
use ric_data::{Database, Overlay, RelId, Tuple};
use ric_plan::planner::{plan_tableau_delta, StatsProvider};
use ric_plan::{exec, DeltaPlans};
use ric_query::tableau::TableauError;
use std::collections::BTreeSet;

/// Outcome of one incremental upper-bound check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeltaCheck {
    /// Do the upper bounds hold on `base ∪ delta` (given they hold on the
    /// base)?
    pub satisfied: bool,
    /// Constraints actually (re-)evaluated.
    pub checked: usize,
    /// Constraints skipped because the delta touches none of their body
    /// relations.
    pub skipped: usize,
    /// Index (into the original [`ConstraintSet::ccs`]) of the violated
    /// constraint when `satisfied` is `false`; always `None` otherwise.
    /// Evaluation short-circuits on the first violation, so this matches
    /// [`ConstraintSet::first_violated_upper`] over the materialized union —
    /// the deciders' pruning-attribution counters key on it.
    pub violated: Option<usize>,
}

/// One upper-bound constraint, prepared for repeated incremental checks.
struct PreparedCc {
    /// Relations the body reads.
    rels: BTreeSet<RelId>,
    /// Compiled delta plans, one per tableau of the body (`None` for FO/FP
    /// bodies, which re-evaluate in full on the materialized union).
    plans: Option<Vec<DeltaPlans>>,
    /// The right-hand side evaluated on the master data, fixed per decision.
    rhs: BTreeSet<Tuple>,
}

/// A constraint set compiled against fixed master data, ready to answer
/// "does `base ∪ delta` still satisfy the upper bounds?" many times.
///
/// Preparation happens once per decision — tableau normalization, plan
/// compilation, and the right-hand-side projections move out of the
/// per-candidate loop.
pub struct PreparedUpper {
    ccs: Vec<PreparedCc>,
    /// Per-relation row counts the planner costed against, for every
    /// relation read by a plan-bearing body. Telemetry compares these
    /// against the decision database so a trace can show how stale the
    /// planning statistics were.
    planned_rows: Vec<(RelId, usize)>,
}

impl PreparedUpper {
    /// Prepare the upper bounds of `v` against master data `dm`, compiling
    /// every monotone body's tableaux into cost-based [`DeltaPlans`] steered
    /// by `stats` (normally the base database).
    ///
    /// Plan choice affects join order only, never answers: with empty or
    /// wrong statistics every plan still returns the same [`DeltaCheck`] —
    /// including the violated-constraint index — from
    /// [`Self::satisfied_delta`].
    pub fn new(
        v: &ConstraintSet,
        schema: &ric_data::Schema,
        dm: &Database,
        stats: &dyn StatsProvider,
    ) -> Result<Self, TableauError> {
        let mut ccs = Vec::with_capacity(v.ccs.len());
        for cc in &v.ccs {
            // An FO/FP body has no plans and is materialized when checked.
            let plans = match cc.body.as_ucq(schema) {
                Some(ucq) => Some(
                    ucq.tableaux()?
                        .iter()
                        .map(|t| plan_tableau_delta(t, stats))
                        .collect(),
                ),
                None => None,
            };
            ccs.push(PreparedCc {
                rels: cc.body.rels(),
                plans,
                rhs: cc.rhs.eval(dm),
            });
        }
        let rels: BTreeSet<RelId> = ccs
            .iter()
            .filter(|cc| cc.plans.is_some())
            .flat_map(|cc| cc.rels.iter().copied())
            .collect();
        let planned_rows = rels
            .into_iter()
            .map(|r| (r, stats.rel_stats(r).rows))
            .collect();
        Ok(PreparedUpper { ccs, planned_rows })
    }

    /// The row counts the planner costed against, per relation read by a
    /// plan-bearing body (sorted by relation id).
    pub fn planned_rows(&self) -> &[(RelId, usize)] {
        &self.planned_rows
    }

    /// Summary of the compiled plans for telemetry: `(constraints with
    /// plans, plans that fell back to the static order, total estimated
    /// cost)`. All zeros when every body is FO/FP.
    pub fn plan_summary(&self) -> (usize, usize, f64) {
        let mut compiled = 0usize;
        let mut fallbacks = 0usize;
        let mut cost = 0.0f64;
        for prep in &self.ccs {
            if let Some(plans) = &prep.plans {
                compiled += 1;
                for dp in plans {
                    if dp.fallback() {
                        fallbacks += 1;
                    }
                    cost += dp.cost();
                }
            }
        }
        (compiled, fallbacks, cost)
    }

    /// Render every compiled plan (one constraint per paragraph) for the
    /// Explain trace note. Empty when every body is FO/FP.
    pub fn render_plans(&self, rel_name: impl Fn(RelId) -> String + Copy) -> String {
        let mut out = String::new();
        for (i, prep) in self.ccs.iter().enumerate() {
            if let Some(plans) = &prep.plans {
                for (j, dp) in plans.iter().enumerate() {
                    if !out.is_empty() {
                        out.push('\n');
                    }
                    out.push_str(&format!("cc{i}.t{j}: "));
                    out.push_str(
                        &dp.render(rel_name)
                            .replace('\n', &format!("\ncc{i}.t{j}: ")),
                    );
                }
            }
        }
        out
    }

    /// Each prepared upper bound in set order: its compiled delta plans
    /// (`None` for an FO/FP body) and its right-hand side on the master
    /// data. A checker over another row representation (the exact RCDP
    /// search's dense ids) translates these once per decision.
    pub fn bounds(
        &self,
    ) -> impl ExactSizeIterator<Item = (Option<&[DeltaPlans]>, &BTreeSet<Tuple>)> + '_ {
        self.ccs.iter().map(|cc| (cc.plans.as_deref(), &cc.rhs))
    }

    /// The one constraint loop of every delta check, over any row
    /// representation: in set order, skip each bound whose body reads no
    /// relation holding a novel delta row (`has_novel`), ask `holds(i)`
    /// whether bound `i` survives the delta, and stop at the first that
    /// does not.
    pub fn check_with<E>(
        &self,
        has_novel: impl Fn(RelId) -> bool,
        mut holds: impl FnMut(usize) -> Result<bool, E>,
    ) -> Result<DeltaCheck, E> {
        let mut checked = 0usize;
        let mut skipped = 0usize;
        for (i, prep) in self.ccs.iter().enumerate() {
            if !prep.rels.iter().any(|&rel| has_novel(rel)) {
                skipped += 1;
                continue;
            }
            checked += 1;
            if !holds(i)? {
                return Ok(DeltaCheck {
                    satisfied: false,
                    checked,
                    skipped,
                    violated: Some(i),
                });
            }
        }
        Ok(DeltaCheck {
            satisfied: true,
            checked,
            skipped,
            violated: None,
        })
    }

    /// Given that the upper bounds hold on `ov.base()`, do they hold on the
    /// union `ov.base() ∪ ov.delta()`?
    ///
    /// The caller owns the precondition; this method only examines what the
    /// novel delta tuples add. `original` must be the constraint set this
    /// was prepared from (needed to re-evaluate FO/FP bodies).
    pub fn satisfied_delta(
        &self,
        original: &ConstraintSet,
        ov: &Overlay<'_>,
    ) -> Result<DeltaCheck, TableauError> {
        // Lazily materialized union, shared by every FO/FP body.
        let mut materialized: Option<Database> = None;
        self.check_with(
            |rel| ov.has_novel(rel),
            |i| {
                let prep = &self.ccs[i];
                match &prep.plans {
                    // Early-exits on the first delta answer outside the
                    // bound; no answer set is built.
                    Some(plans) => Ok(exec::with_scratch(|scratch| {
                        plans
                            .iter()
                            .all(|dp| dp.delta_answers_within(ov, scratch, &prep.rhs))
                    })),
                    None => {
                        let union = materialized.get_or_insert_with(|| ov.materialize());
                        let lhs = match &original.ccs[i].body {
                            CcBody::Fo(q) => q.try_eval(union)?,
                            CcBody::Fp(p) => p.eval(union),
                            // as_ucq only fails on FO/FP bodies.
                            _ => unreachable!("monotone bodies are prepared as tableaux"),
                        };
                        Ok(lhs.iter().all(|a| prep.rhs.contains(a)))
                    }
                }
            },
        )
    }
}

impl ConstraintSet {
    /// One-shot incremental upper-bound check: prepare against `dm` with
    /// plans costed from `ov.base()`, then verify what `ov`'s delta adds.
    /// For repeated checks against the same `(V, dm)` (the deciders' loops),
    /// build a [`PreparedUpper`] once instead.
    pub fn upper_satisfied_delta(
        &self,
        schema: &ric_data::Schema,
        dm: &Database,
        ov: &Overlay<'_>,
    ) -> Result<DeltaCheck, TableauError> {
        PreparedUpper::new(self, schema, dm, ov.base())?.satisfied_delta(self, ov)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{ContainmentConstraint, Projection};
    use ric_data::{RelationSchema, Schema, Value};
    use ric_query::eval::eval_tableau_delta;
    use ric_query::parse_cq;

    fn schemas() -> (Schema, Schema) {
        let r = Schema::from_relations(vec![
            RelationSchema::infinite("Cust", &["cid", "cc"]),
            RelationSchema::infinite("Ord", &["oid"]),
        ])
        .unwrap();
        let m = Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
        (r, m)
    }

    fn t1(v: i64) -> Tuple {
        Tuple::new([Value::int(v)])
    }

    fn t2(a: i64, b: i64) -> Tuple {
        Tuple::new([Value::int(a), Value::int(b)])
    }

    #[test]
    fn delta_check_agrees_with_full_check() {
        let (r, m) = schemas();
        let cust = r.rel_id("Cust").unwrap();
        let dcust = m.rel_id("DCust").unwrap();
        let q = parse_cq(&r, "Q(C) :- Cust(C, Cc), Cc = 1.").unwrap();
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Cq(q),
            dcust,
            vec![0],
        )]);
        let mut dm = Database::empty(&m);
        dm.insert(dcust, t1(10));
        dm.insert(dcust, t1(11));
        let mut db = Database::empty(&r);
        db.insert(cust, t2(10, 1));
        assert!(v.upper_satisfied(&db, &dm).unwrap());

        // A delta that stays within the master bound.
        let mut ok_delta = Database::empty(&r);
        ok_delta.insert(cust, t2(11, 1));
        let ov = Overlay::new(&db, &ok_delta).unwrap();
        let res = v.upper_satisfied_delta(&r, &dm, &ov).unwrap();
        assert!(res.satisfied);
        assert_eq!(res.checked, 1);
        assert!(v.upper_satisfied(&ov.materialize(), &dm).unwrap());

        // A delta that violates it.
        let mut bad_delta = Database::empty(&r);
        bad_delta.insert(cust, t2(99, 1));
        let ov = Overlay::new(&db, &bad_delta).unwrap();
        assert!(!v.upper_satisfied_delta(&r, &dm, &ov).unwrap().satisfied);
        assert!(!v.upper_satisfied(&ov.materialize(), &dm).unwrap());
    }

    #[test]
    fn untouched_constraints_are_skipped() {
        let (r, m) = schemas();
        let cust = r.rel_id("Cust").unwrap();
        let ord = r.rel_id("Ord").unwrap();
        let dcust = m.rel_id("DCust").unwrap();
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(cust, vec![0])),
            dcust,
            vec![0],
        )]);
        let dm = Database::empty(&m);
        let db = Database::empty(&r);
        // Delta touches only Ord; the Cust constraint must be skipped.
        let mut delta = Database::empty(&r);
        delta.insert(ord, t1(5));
        let ov = Overlay::new(&db, &delta).unwrap();
        let res = v.upper_satisfied_delta(&r, &dm, &ov).unwrap();
        assert!(res.satisfied);
        assert_eq!(res.checked, 0);
        assert_eq!(res.skipped, 1);
    }

    #[test]
    fn non_novel_delta_tuples_trigger_nothing() {
        let (r, m) = schemas();
        let cust = r.rel_id("Cust").unwrap();
        let dcust = m.rel_id("DCust").unwrap();
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(cust, vec![0])),
            dcust,
            vec![0],
        )]);
        // Base violates nothing vacuously (bound 10 present in master).
        let mut dm = Database::empty(&m);
        dm.insert(dcust, t1(10));
        let mut db = Database::empty(&r);
        db.insert(cust, t2(10, 1));
        // Delta repeats a base tuple: nothing novel, constraint skipped.
        let mut delta = Database::empty(&r);
        delta.insert(cust, t2(10, 1));
        let ov = Overlay::new(&db, &delta).unwrap();
        let res = v.upper_satisfied_delta(&r, &dm, &ov).unwrap();
        assert!(res.satisfied);
        assert_eq!(res.checked, 0);
        assert_eq!(res.skipped, 1);
    }

    #[test]
    fn planned_preparation_returns_identical_delta_checks() {
        let (r, m) = schemas();
        let cust = r.rel_id("Cust").unwrap();
        let dcust = m.rel_id("DCust").unwrap();
        let q = parse_cq(&r, "Q(C) :- Cust(C, Cc), Cc = 1.").unwrap();
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Cq(q),
            dcust,
            vec![0],
        )]);
        let mut dm = Database::empty(&m);
        dm.insert(dcust, t1(10));
        dm.insert(dcust, t1(11));
        let mut db = Database::empty(&r);
        db.insert(cust, t2(10, 1));
        let planned = PreparedUpper::new(&v, &r, &dm, &db).unwrap();
        let (compiled, _, _) = planned.plan_summary();
        assert_eq!(compiled, 1);
        assert!(planned.render_plans(|_| "Cust".into()).contains("est="));
        // Reference: the greedy delta evaluator plus right-hand-side
        // containment, with the violated index it implies.
        let tableaux = v.ccs[0].body.as_ucq(&r).unwrap().tableaux().unwrap();
        let rhs = v.ccs[0].rhs.eval(&dm);
        for (cid, cc) in [(11, 1), (99, 1), (99, 2)] {
            let mut delta = Database::empty(&r);
            delta.insert(cust, t2(cid, cc));
            let ov = Overlay::new(&db, &delta).unwrap();
            let within = tableaux
                .iter()
                .all(|t| eval_tableau_delta(t, &ov).iter().all(|a| rhs.contains(a)));
            let expected = DeltaCheck {
                satisfied: within,
                checked: 1,
                skipped: 0,
                violated: (!within).then_some(0),
            };
            let got = planned.satisfied_delta(&v, &ov).unwrap();
            assert_eq!(got, expected, "delta ({cid}, {cc})");
        }
    }

    #[test]
    fn fo_bodies_fall_back_to_materialization() {
        let (r, m) = schemas();
        let cust = r.rel_id("Cust").unwrap();
        use ric_query::{FoExpr, FoQuery, Term, Var};
        // Q(x) := ∃c Cust(x, c) ∧ ¬Cust(x, x) — not monotone.
        let (x, c) = (Var(0), Var(1));
        let q = FoQuery::new(
            vec![x],
            FoExpr::And(vec![
                FoExpr::Exists(
                    vec![c],
                    Box::new(FoExpr::Atom(ric_query::Atom::new(
                        cust,
                        vec![Term::Var(x), Term::Var(c)],
                    ))),
                ),
                FoExpr::not(FoExpr::Atom(ric_query::Atom::new(
                    cust,
                    vec![Term::Var(x), Term::Var(x)],
                ))),
            ]),
            vec!["x".into(), "c".into()],
        );
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_empty(CcBody::Fo(q))]);
        let dm = Database::empty(&m);
        let mut db = Database::empty(&r);
        db.insert(cust, t2(7, 7)); // Q(D) = ∅: satisfied
        assert!(v.upper_satisfied(&db, &dm).unwrap());
        let mut delta = Database::empty(&r);
        delta.insert(cust, t2(8, 9)); // Q now returns {8}: ⊆ ∅ fails
        let ov = Overlay::new(&db, &delta).unwrap();
        let res = v.upper_satisfied_delta(&r, &dm, &ov).unwrap();
        assert!(!res.satisfied);
        assert_eq!(res.checked, 1);
    }
}
