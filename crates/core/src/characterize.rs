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
use crate::check::{IdCheck, IdScratch, UpperCheck};
use crate::guard::Guard;
use crate::query::Query;
use crate::setting::Setting;
use crate::valuations::{EnumOutcome, ValuationSpace};
use crate::verdict::{RcError, Verdict};
use ric_constraints::{CcBody, CcRhs};
use ric_data::{Database, Value};
use ric_query::tableau::{Tableau, TableauError};
use ric_query::{Cq, Ucq};
use ric_telemetry::Probe;
use std::cell::{Cell, RefCell};
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
///
/// The same `E2Disjunct` check the RCQP search runs at every leaf, over
/// a catalog of `dv`'s own `Adom`.
pub fn e2_check(
    setting: &Setting,
    q: &Cq,
    dv: &Database,
    bound_values: &BTreeSet<Value>,
    budget: &SearchBudget,
) -> Result<Option<bool>, RcError> {
    if !setting.partially_closed(dv)? {
        return Ok(Some(false));
    }
    let guard = Guard::new(budget);
    let check = UpperCheck::new(setting, budget.engine, dv)?;
    let adom = Adom::build(dv, setting, &Query::Cq(q.clone()), e2_fresh([q]))?;
    let ids = IdCheck::new(&check, setting, dv, &adom)?;
    let mask = |vals: &mut dyn Iterator<Item = &Value>| {
        let mut mask = vec![false; adom.n_ids()];
        vals.filter_map(|v| adom.id(v))
            .for_each(|id| mask[id as usize] = true);
        mask
    };
    let present = mask(&mut dv.active_domain().iter());
    let bound = mask(&mut bound_values.iter());
    E2Disjunct::new(setting, q, &adom, adom.fresh_ids())?.check(
        &ids,
        &mut IdScratch::default(),
        |id| present[id as usize],
        |id| bound[id as usize],
        budget,
        &guard,
        &Cell::new(0),
    )
}

/// The fresh ids an E2 check over `disjuncts` needs: one per variable of
/// the largest tableau, and at least one.
pub(crate) fn e2_fresh<'q>(disjuncts: impl IntoIterator<Item = &'q Cq>) -> usize {
    disjuncts
        .into_iter()
        .filter_map(|q| Tableau::of(q).ok())
        .map(|t| t.n_vars as usize)
        .max()
        .unwrap_or(0)
        .max(1)
}

/// One query disjunct's half of the E2 check, built once over a catalog and
/// reused for every candidate `D_𝒱` (the RCQP search checks one per
/// maximal subset). Everything is in the catalog's ids: a valuation's
/// atoms are written into the check's arena and tested against `D_𝒱` held
/// as the id check's base and overlay, and its head values are read
/// against the bound set by id.
///
/// An infinite-domain variable ranges over the ids `D_𝒱` holds, the
/// constants of `D_m`, `V` and the disjunct, and then the disjunct's own
/// fresh ids. Up to renaming fresh values that is the `Adom` of `D_𝒱`
/// (Section 3.2): no input mentions a catalog value that `D_𝒱` lacks
/// beyond those constants, so such a value behaves as a fresh one.
pub(crate) struct E2Disjunct<'a> {
    /// The disjunct's valuation space, or why it has none. A tableau error
    /// is kept, not raised, so that it surfaces only when a candidate is
    /// checked: after [`e2_check`]'s partial-closure test, and in the RCQP
    /// search only at a leaf.
    space: Result<ValuationSpace<'a>, TableauError>,
    /// Indices of the head variables with an infinite domain.
    infinite_head: Vec<usize>,
    /// Ids every candidate offers: the constants of `D_m`, `V` and the
    /// disjunct.
    statics: Vec<bool>,
    /// The disjunct's own fresh ids; no candidate holds them.
    fresh: &'a [u32],
    /// The current candidate's constants, refilled per check.
    constants: RefCell<Vec<u32>>,
}

impl<'a> E2Disjunct<'a> {
    /// The check for disjunct `q` over `adom`, whose `fresh` ids (at least
    /// one per tableau variable) no candidate holds.
    pub(crate) fn new(
        setting: &Setting,
        q: &Cq,
        adom: &'a Adom,
        fresh: &'a [u32],
    ) -> Result<Self, RcError> {
        let (space, infinite_head) = match Tableau::of(q) {
            Ok(t) => {
                let doms = t.var_domains(&setting.schema);
                let infinite_head = t
                    .head_vars()
                    .into_iter()
                    .map(|v| v.idx())
                    .filter(|&i| doms[i].is_none())
                    .collect();
                (
                    Ok(ValuationSpace::new(&t, &setting.schema, adom)?),
                    infinite_head,
                )
            }
            Err(e) => (Err(e), Vec::new()),
        };
        let mut statics = vec![false; adom.n_ids()];
        let constants = setting.dm.active_domain().iter().cloned();
        for v in constants
            .chain(setting.v.constants())
            .chain(Query::Cq(q.clone()).constants())
        {
            if let Some(id) = adom.id(&v) {
                statics[id as usize] = true;
            }
        }
        Ok(E2Disjunct {
            space,
            infinite_head,
            statics,
            fresh,
            constants: RefCell::default(),
        })
    }

    /// E2 for this disjunct over the candidate `D_𝒱` that `ids` holds (its
    /// base and overlay), which holds exactly the ids `present` accepts and
    /// whose bound values are the ids `bound` accepts. Each valuation is
    /// gated through `ids` with `s` as its arena, counting skipped
    /// constraints into `cc_skipped`. The caller guarantees that `D_𝒱` is
    /// partially closed: the search builds every candidate that way, and
    /// [`e2_check`] tests it first.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check(
        &self,
        ids: &IdCheck<'_>,
        s: &mut IdScratch,
        present: impl Fn(u32) -> bool,
        bound: impl Fn(u32) -> bool,
        budget: &SearchBudget,
        guard: &Guard,
        cc_skipped: &Cell<u64>,
    ) -> Result<Option<bool>, RcError> {
        let space = match &self.space {
            Ok(space) => space,
            Err(TableauError::Unsatisfiable) => return Ok(Some(true)),
            Err(e) => return Err(e.clone().into()),
        };
        let mut constants = self.constants.borrow_mut();
        constants.clear();
        constants.extend(
            (0..self.statics.len() as u32).filter(|&id| self.statics[id as usize] || present(id)),
        );
        let mut meter = Meter::guarded(MeterKind::Valuations, budget.max_valuations, guard);
        // `D_𝒱` is partially closed (the caller's guarantee) and lower
        // bounds are preserved under extension, so `(D_𝒱 ∪ Δ, D_m) |= V`
        // reduces to the upper bounds — exactly what the check answers.
        let mut ok = true;
        let outcome = space.for_each_valid_among(&constants, self.fresh, &mut meter, |mu| {
            s.delta.clear();
            space.write_atoms(|v| Some(mu[v]), &mut s.delta);
            if ids.first_violation(s, cc_skipped).is_none()
                && !self.infinite_head.iter().all(|&v| bound(mu[v]))
            {
                ok = false;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
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

    /// The public check keeps its contract on candidates the RCQP search
    /// never builds: a `D_𝒱` that is not partially closed fails E2, whatever
    /// the bound values.
    #[test]
    fn e2_check_rejects_dv_that_is_not_partially_closed() {
        let setting = supt_ind_setting();
        let supt = setting.schema.rel_id("Supt").unwrap();
        let q = parse_cq(&setting.schema, "Q(C) :- Supt(E, C).").unwrap();
        // `c9` is no master customer: the IND `Supt[cid] ⊆ DCust` fails.
        let mut dv = Database::empty(&setting.schema);
        dv.insert(supt, Tuple::new([Value::str("e0"), Value::str("c9")]));
        assert!(!setting.partially_closed(&dv).unwrap());
        let bounds: BTreeSet<Value> = [Value::str("c1"), Value::str("c9")].into_iter().collect();
        assert_eq!(
            e2_check(&setting, &q, &dv, &bounds, &SearchBudget::default()).unwrap(),
            Some(false)
        );
    }
}
