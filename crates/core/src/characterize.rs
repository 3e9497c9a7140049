//! The paper's characterizations as checkable predicates.
//!
//! * **C1/C2** (Proposition 3.3, `L_Q = L_C =` CQ), **C3** (Corollary 3.4,
//!   `L_C` = INDs), **C4** (Corollary 3.5, UCQ): a database is relatively
//!   complete iff it is *bounded* — these delegate to the unified valuation
//!   check in [`crate::rcdp()`], which implements exactly those conditions.
//! * [`brute_force_complete`] — an independent reference decision procedure
//!   that enumerates *every* extension over the extended active domain. It is
//!   doubly exponential and only usable on tiny instances, which is exactly
//!   what the cross-validation tests need: the small-model property behind
//!   Proposition 3.3 guarantees it agrees with the Σᵖ₂ decider for CQ/UCQ.
//! * **E1/E3/E4** (Propositions 4.2 and 4.3): syntactic boundedness of
//!   queries, and **E2** for an explicitly supplied candidate `D_𝒱`.

use crate::adom::Adom;
use crate::budget::{Meter, MeterKind, SearchBudget};
use crate::check::UpperCheck;
use crate::guard::Guard;
use crate::query::Query;
use crate::setting::Setting;
use crate::valuations::{decode_into, instantiate_into, DepthProfile, EnumOutcome, ValuationSpace};
use crate::verdict::{RcError, Verdict};
use ric_constraints::{CcBody, CcRhs};
use ric_data::{Database, Value};
use ric_query::tableau::Tableau;
use ric_query::{Cq, Ucq};
use ric_telemetry::Probe;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// C1/C2: is the CQ-constrained database bounded by `(D_m, V)` for `Q`?
/// Equivalent to membership in `RCQ(Q, D_m, V)` by Proposition 3.3.
pub fn bounded_database_cq(
    setting: &Setting,
    q: &Cq,
    db: &Database,
    budget: &SearchBudget,
) -> Result<Option<bool>, RcError> {
    exact_bound(setting, &Query::Cq(q.clone()), db, budget)
}

/// C3: the IND specialisation (Corollary 3.4). Panics if `V` is not a set of
/// INDs — that is a caller bug, not a data condition.
pub fn bounded_database_ind(
    setting: &Setting,
    q: &Cq,
    db: &Database,
    budget: &SearchBudget,
) -> Result<Option<bool>, RcError> {
    assert!(setting.v.is_ind_set(), "C3 requires V to be a set of INDs");
    bounded_database_cq(setting, q, db, budget)
}

/// C4: the UCQ characterization (Corollary 3.5), evaluated per disjunct.
pub fn bounded_database_ucq(
    setting: &Setting,
    q: &Ucq,
    db: &Database,
    budget: &SearchBudget,
) -> Result<Option<bool>, RcError> {
    exact_bound(setting, &Query::Ucq(q.clone()), db, budget)
}

/// Run the exact decider fresh and read its verdict as a bound (`None` for
/// `Unknown`).
fn exact_bound(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
) -> Result<Option<bool>, RcError> {
    let guard = Guard::new(budget);
    let check = UpperCheck::new(setting, budget.engine, db)?;
    let (verdict, _) = crate::rcdp::decide_exact(
        setting,
        query,
        db,
        budget,
        &guard,
        Probe::disabled(),
        &check,
        false,
        None,
    )?;
    Ok(match verdict {
        Verdict::Complete => Some(true),
        Verdict::Incomplete(_) => Some(false),
        Verdict::Unknown { .. } => None,
    })
}

/// Reference decision by exhaustive extension enumeration.
///
/// Enumerates all subsets of the candidate tuple pool (active domain plus
/// `fresh` values) as extensions Δ and checks the definition of relative
/// completeness directly. Returns `None` when the pool exceeds `max_pool`
/// (the subset space would be too large) — callers choose instances small
/// enough to avoid this.
pub fn brute_force_complete(
    setting: &Setting,
    query: &Query,
    db: &Database,
    fresh: usize,
    max_pool: usize,
) -> Result<Option<bool>, RcError> {
    if !setting.partially_closed(db)? {
        return Err(RcError::NotPartiallyClosed);
    }
    let adom = Adom::build(db, setting, query, fresh)?;
    let mut values = adom.constants.clone();
    values.extend(adom.fresh.iter().cloned());
    let pool = crate::semidecide::tuple_pool(setting, db, &values);
    if pool.len() > max_pool {
        return Ok(None);
    }
    let q_d = query.eval(db)?;
    // Every nonempty subset of the pool.
    let n = pool.len();
    for mask in 1u64..(1u64 << n) {
        let mut extended = db.clone();
        for (i, (rel, t)) in pool.iter().enumerate() {
            if mask & (1 << i) != 0 {
                extended.insert(*rel, t.clone());
            }
        }
        if setting.partially_closed(&extended)? && query.eval(&extended)? != q_d {
            return Ok(Some(false));
        }
    }
    Ok(Some(true))
}

/// E1/E5: every head variable (of every disjunct) draws from a finite
/// domain, making the query trivially relatively complete.
pub fn finite_head(q: &Ucq, schema: &ric_data::Schema) -> Result<bool, RcError> {
    for t in q.tableaux()? {
        let doms = t.var_domains(schema);
        for v in t.head_vars() {
            if doms[v.idx()].is_none() {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// E3/E4 (Proposition 4.3): with `V` a set of INDs, a disjunct tableau is
/// *bounded* when each head variable either has a finite domain (E3) or
/// occurs in a column covered by an IND into master data (E4).
pub fn ind_bounded(t: &Tableau, schema: &ric_data::Schema, setting: &Setting) -> bool {
    let doms = t.var_domains(schema);
    let positions = t.var_positions();
    't_vars: for v in t.head_vars() {
        if doms[v.idx()].is_some() {
            continue; // E3
        }
        for (rel, col) in &positions[v.idx()] {
            for cc in &setting.v.ccs {
                if let CcBody::Proj(p) = &cc.body {
                    if p.rel == *rel && p.cols.contains(col) && matches!(cc.rhs, CcRhs::Master(_)) {
                        continue 't_vars; // E4
                    }
                }
            }
        }
        return false;
    }
    true
}

/// E2 (Proposition 4.2), for an explicitly supplied candidate:
/// `dv` plays the role of `D_𝒱` and `bound_values` the union of the
/// `ν_j(u_j)` head values of the chosen partial valuations. Checks that
/// `(D_𝒱, D_m) |= V` and that every valid valuation `μ` with
/// `(D_𝒱 ∪ μ(T_Q), D_m) |= V` keeps all infinite-domain head variables
/// inside `bound_values`. `Ok(None)` when the budget ran out first.
pub fn e2_check(
    setting: &Setting,
    q: &Cq,
    dv: &Database,
    bound_values: &BTreeSet<Value>,
    budget: &SearchBudget,
) -> Result<Option<bool>, RcError> {
    let guard = Guard::new(budget);
    let check = UpperCheck::new(setting, budget.engine, dv)?;
    E2Disjunct::new(setting, q).check(
        setting,
        dv,
        bound_values,
        budget,
        &guard,
        Probe::disabled(),
        &check,
    )
}

/// The part of an E2 check that depends on the query disjunct alone — its
/// tableau and its infinite-domain head variables — built once and reused
/// across every candidate `D_𝒱` (the RCQP search checks one per maximal
/// subset).
pub(crate) struct E2Disjunct {
    query: Query,
    /// The disjunct's tableau, or why it has none. A tableau error is kept,
    /// not raised, so that [`Self::check`] reports it only after the
    /// partial-closure check, as a one-shot check does.
    tableau: Result<Tableau, ric_query::tableau::TableauError>,
    /// Indices of the head variables with an infinite domain.
    infinite_head: Vec<usize>,
}

impl E2Disjunct {
    pub(crate) fn new(setting: &Setting, q: &Cq) -> Self {
        let tableau = Tableau::of(q);
        let infinite_head = match &tableau {
            Ok(t) => {
                let doms = t.var_domains(&setting.schema);
                t.head_vars()
                    .into_iter()
                    .map(|v| v.idx())
                    .filter(|&i| doms[i].is_none())
                    .collect()
            }
            Err(_) => Vec::new(),
        };
        E2Disjunct {
            query: Query::Cq(q.clone()),
            tableau,
            infinite_head,
        }
    }

    /// E2 for this disjunct over the candidate `dv` with bound values
    /// `bound_values`, gating each valuation through `check` (the RCQP
    /// search passes its decision's own).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check(
        &self,
        setting: &Setting,
        dv: &Database,
        bound_values: &BTreeSet<Value>,
        budget: &SearchBudget,
        guard: &Guard,
        probe: Probe<'_>,
        check: &UpperCheck,
    ) -> Result<Option<bool>, RcError> {
        if !setting.partially_closed(dv)? {
            return Ok(Some(false));
        }
        let t = match &self.tableau {
            Ok(t) => t,
            Err(ric_query::tableau::TableauError::Unsatisfiable) => return Ok(Some(true)),
            Err(e) => return Err(e.clone().into()),
        };
        let adom = Adom::build(dv, setting, &self.query, (t.n_vars as usize).max(1))?;
        let space = ValuationSpace::new(t, &setting.schema, &adom)?;
        let mut meter = Meter::guarded(MeterKind::Valuations, budget.max_valuations, guard);
        // `D_𝒱` is partially closed (checked above) and lower bounds are
        // preserved under extension, so `(D_𝒱 ∪ Δ, D_m) |= V` reduces to the
        // upper bounds — exactly what the decision's check answers.
        let cc_skipped = std::cell::Cell::new(0u64);
        let mut delta = Database::with_relations(setting.schema.len());
        // Each valuation decodes into one reused buffer: a value clone per
        // variable.
        let mut mu = ric_query::tableau::Valuation(Vec::with_capacity(space.n_vars()));
        let mut ok = true;
        let outcome = space.for_each_valid_pruned_profiled(
            &DepthProfile::default(),
            &mut meter,
            |_| true,
            |_| true,
            |ids| {
                decode_into(&adom, ids, &mut mu);
                instantiate_into(t, &mu, &mut delta);
                let closed = check
                    .first_violation(setting, dv, &delta, &cc_skipped)
                    .is_none();
                if closed
                    && !self
                        .infinite_head
                        .iter()
                        .all(|&v| bound_values.contains(&mu.0[v]))
                {
                    ok = false;
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            },
        );
        probe.count("characterize.e2_valuations", meter.used());
        probe.count("cc.skipped_by_delta", cc_skipped.get());
        match outcome {
            EnumOutcome::BudgetExceeded => Ok(None),
            _ => Ok(Some(ok)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_constraints::{ConstraintSet, ContainmentConstraint, Projection};
    use ric_data::{Attribute, RelationSchema, Schema, Tuple};
    use ric_query::parse_cq;

    fn supt_ind_setting() -> Setting {
        let schema =
            Schema::from_relations(vec![RelationSchema::infinite("Supt", &["eid", "cid"])])
                .unwrap();
        let supt = schema.rel_id("Supt").unwrap();
        let mschema =
            Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
        let dcust = mschema.rel_id("DCust").unwrap();
        let mut dm = Database::empty(&mschema);
        dm.insert(dcust, Tuple::new([Value::str("c1")]));
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(supt, vec![1])),
            dcust,
            vec![0],
        )]);
        Setting::new(schema, mschema, dm, v)
    }

    #[test]
    fn brute_force_agrees_with_exact_decider() {
        let setting = supt_ind_setting();
        let q = parse_cq(&setting.schema, "Q(C) :- Supt('e0', C).").unwrap();
        let query = Query::Cq(q.clone());
        for tuples in [vec![], vec![("e0", "c1")]] {
            let mut db = Database::empty(&setting.schema);
            let supt = setting.schema.rel_id("Supt").unwrap();
            for (e, c) in &tuples {
                db.insert(supt, Tuple::new([Value::str(e), Value::str(c)]));
            }
            let exact = bounded_database_cq(&setting, &q, &db, &SearchBudget::default()).unwrap();
            let brute = brute_force_complete(&setting, &query, &db, 1, 12).unwrap();
            assert_eq!(exact, brute, "disagreement on db {db}");
        }
    }

    #[test]
    fn ind_boundedness_detects_covered_and_uncovered_vars() {
        let setting = supt_ind_setting();
        // cid column covered by the IND: bounded.
        let q1 = parse_cq(&setting.schema, "Q(C) :- Supt(E, C).").unwrap();
        let t1 = Tableau::of(&q1).unwrap();
        assert!(ind_bounded(&t1, &setting.schema, &setting));
        // eid column uncovered: unbounded.
        let q2 = parse_cq(&setting.schema, "Q(E) :- Supt(E, C).").unwrap();
        let t2 = Tableau::of(&q2).unwrap();
        assert!(!ind_bounded(&t2, &setting.schema, &setting));
    }

    #[test]
    fn finite_head_detected() {
        let schema = Schema::from_relations(vec![RelationSchema::new(
            "B",
            vec![Attribute::boolean("x"), Attribute::new("y")],
        )])
        .unwrap();
        let q_fin = parse_cq(&schema, "Q(X) :- B(X, Y).").unwrap();
        let q_inf = parse_cq(&schema, "Q(Y) :- B(X, Y).").unwrap();
        assert!(finite_head(&Ucq::single(q_fin), &schema).unwrap());
        assert!(!finite_head(&Ucq::single(q_inf), &schema).unwrap());
    }

    #[test]
    fn e2_check_accepts_master_covering_dv() {
        let setting = supt_ind_setting();
        let supt = setting.schema.rel_id("Supt").unwrap();
        let q = parse_cq(&setting.schema, "Q(C) :- Supt(E, C).").unwrap();
        // D_𝒱 realising the single master customer; its cid is the bound
        // value. Head var C is then bounded; head var E is existential.
        let mut dv = Database::empty(&setting.schema);
        dv.insert(supt, Tuple::new([Value::str("e0"), Value::str("c1")]));
        let bounds: BTreeSet<Value> = [Value::str("c1")].into_iter().collect();
        assert_eq!(
            e2_check(&setting, &q, &dv, &bounds, &SearchBudget::default()).unwrap(),
            Some(true)
        );
        // Without the bound value registered, the check fails.
        let empty_bounds = BTreeSet::new();
        assert_eq!(
            e2_check(&setting, &q, &dv, &empty_bounds, &SearchBudget::default()).unwrap(),
            Some(false)
        );
    }
}
