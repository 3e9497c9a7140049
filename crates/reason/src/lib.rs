//! # `ric-reason` — a symbolic pre-decision prover
//!
//! The deciders treat every setting as opaque: they enumerate candidate
//! extensions even when the constraint set `V` is redundant or the query is
//! already pinned down by what the master data guarantees. This crate runs
//! **once per setting** and extracts a proven [`StaticFacts`] artifact
//! that every downstream layer can consume:
//!
//! * **V-minimization** ([`minimize::apply_candidates`], driven by
//!   [`reason`]) — constraints implied by the rest of `V` relative to the
//!   fixed master data are dropped from the per-candidate recheck loop;
//! * **static unsatisfiability** — every query disjunct dies under `V`
//!   by a specialization-robust violation, so *no* legal extension can ever
//!   produce an answer and the decision is `Complete` without search;
//! * **cover facts** — the query is contained in the body of a constraint
//!   `q_j ⊆ p_j(R_m)`; whenever `p_j(D_m) ⊆ Q(D)` at decision time, the
//!   answer is already complete (`Q(D) ⊆ Q(D∪ΔD) ⊆ p_j(D_m) ⊆ Q(D)`);
//! * **cardinality caps** ([`CardinalityCap`]) — IND-style constraints
//!   bound column cardinalities of any legal database by the fixed master
//!   data, which the cost-based planner may consume as tighter advisory
//!   statistics.
//!
//! Everything is *proven before use*: the chase (`chase.rs`) finds each
//! conclusion together with a proof object — a homomorphism into a frozen
//! canonical database, plus the master-data side conditions — and the
//! checker (`proof.rs`) re-verifies it against the original setting before
//! it is committed. A conclusion whose proof fails is discarded with a typed
//! note, and the decision-level differential suites then pin surviving
//! conclusions verdict-, witness-, and counter-identical to the unmodified
//! search. FO/FP bodies, inequalities on used constraint bodies, and
//! oversized canonical databases degrade gracefully: the reasoner simply
//! concludes less ([`ReasonNote::Degraded`]).

mod chase;
pub mod minimize;
mod proof;

use crate::chase::{canon_contained, disjunct_fate, Disjunct, Fate, ReasonEnv};
use crate::proof::{check_step, check_steps, Goal, Step};
use ric_complete::{Guard, Query, SearchBudget, Setting};
use ric_constraints::{CcBody, CcRhs, ConstraintSet};
use ric_data::RelId;
use ric_telemetry::Probe;
use std::fmt;

pub use minimize::{apply_candidates, certify_kept_mask, Minimization};

/// Largest canonical database (in atoms) the reasoner will freeze; larger
/// disjuncts degrade instead of risking an expensive symbolic evaluation.
pub const MAX_CANON_ATOMS: usize = 32;

/// A dropped constraint together with the kept constraints justifying it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImpliedCc {
    /// Index of the dropped constraint in `V`.
    pub cc: usize,
    /// Indices of the kept constraints whose proof steps justify the drop
    /// (empty when every body disjunct is unsatisfiable on its own).
    pub by: Vec<usize>,
}

/// A query-cover fact: `Q ⊆ body(φ_cc)` where `φ_cc` has a master
/// right-hand side.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoverFact {
    /// Index of the covering constraint in `V`.
    pub cc: usize,
}

/// A chase-derived cardinality bound on every legal database: advisory
/// planner statistics, never verdict-affecting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CardinalityCap {
    /// The bounded database relation.
    pub rel: RelId,
    /// What is bounded.
    pub kind: CapKind,
}

/// The bounded quantity of a [`CardinalityCap`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CapKind {
    /// Total rows of the relation are at most `limit` (the projection covers
    /// every column, so tuples embed injectively into `p(D_m)`).
    Rows {
        /// The row bound.
        limit: usize,
    },
    /// Distinct values in column `col` are at most `limit`.
    DistinctAt {
        /// The bounded column.
        col: usize,
        /// The distinct-count bound.
        limit: usize,
    },
}

/// Why the reasoner declined (or refused) to conclude something.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReasonNote {
    /// A fragment outside the reasoner's reach (FO/FP bodies, inequalities
    /// on used bodies, oversized canonical databases) or a refused rewrite.
    Degraded {
        /// Where (query, or `cc <i>`).
        place: String,
        /// Why nothing was concluded.
        why: String,
    },
    /// A symbolic conclusion whose proof failed (or was missing) and which
    /// was discarded.
    Uncertified {
        /// The discarded conclusion.
        what: String,
        /// Why the proof failed.
        why: String,
    },
}

impl ReasonNote {
    /// Is this a discarded (unproven) conclusion?
    pub fn is_uncertified(&self) -> bool {
        matches!(self, ReasonNote::Uncertified { .. })
    }
}

impl fmt::Display for ReasonNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReasonNote::Degraded { place, why } => write!(f, "degraded at {place}: {why}"),
            ReasonNote::Uncertified { what, why } => {
                write!(f, "unproven (discarded): {what}: {why}")
            }
        }
    }
}

/// The proven static artifact of one `(setting, query)` pair.
#[derive(Clone, Debug)]
pub struct StaticFacts {
    /// Per-constraint keep flag; `false` entries are proven implied and
    /// safe to drop from the per-candidate recheck loop.
    pub kept: Vec<bool>,
    /// The dropped constraints with justifications.
    pub implied: Vec<ImpliedCc>,
    /// Query disjuncts proven unsatisfiable under `V` (indices into the
    /// query's UCQ form).
    pub unsat_disjuncts: Vec<usize>,
    /// Every query disjunct is unsatisfiable under `V`: the decision is
    /// statically `Complete` (proven).
    pub statically_complete: bool,
    /// A proven cover fact, if one was found.
    pub cover: Option<CoverFact>,
    /// Chase-derived advisory cardinality bounds.
    pub caps: Vec<CardinalityCap>,
    /// Degradations and discarded conclusions.
    pub notes: Vec<ReasonNote>,
    /// The budget guard interrupted reasoning; the facts derived before the
    /// interrupt are still proven, but later conclusions were skipped.
    pub budget_exhausted: bool,
}

impl StaticFacts {
    /// The trivial artifact: nothing concluded, everything kept.
    pub fn trivial(n_ccs: usize) -> StaticFacts {
        StaticFacts {
            kept: vec![true; n_ccs],
            implied: Vec::new(),
            unsat_disjuncts: Vec::new(),
            statically_complete: false,
            cover: None,
            caps: Vec::new(),
            notes: Vec::new(),
            budget_exhausted: false,
        }
    }

    /// Number of dropped constraints.
    pub fn dropped(&self) -> usize {
        self.kept.iter().filter(|k| !**k).count()
    }

    /// `V` restricted to the kept constraints (lower bounds unchanged).
    pub fn minimized_v(&self, v: &ConstraintSet) -> ConstraintSet {
        minimize::masked_constraints(v, &self.kept)
    }

    /// The setting with `V` minimized. By the drop proofs the two settings
    /// admit exactly the same legal databases, so decisions agree
    /// bit-for-bit.
    pub fn minimized_setting(&self, setting: &Setting) -> Setting {
        Setting::new(
            setting.schema.clone(),
            setting.master_schema.clone(),
            setting.dm.clone(),
            self.minimized_v(&setting.v),
        )
    }
}

/// Run the reasoner with an internal guard over `budget`.
pub fn reason(setting: &Setting, query: &Query, budget: &SearchBudget) -> StaticFacts {
    reason_probed(setting, query, budget, Probe::disabled())
}

/// [`reason`] with telemetry.
pub fn reason_probed(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
    probe: Probe<'_>,
) -> StaticFacts {
    let guard = Guard::new(budget);
    reason_guarded(setting, query, &guard, probe)
}

/// [`reason`] against a caller-owned guard: an interrupt stops further
/// derivation (setting `budget_exhausted`) but keeps the proven facts
/// produced so far — the reasoner is sound under partial results because
/// every fact is individually proven.
pub fn reason_guarded(
    setting: &Setting,
    query: &Query,
    guard: &Guard,
    probe: Probe<'_>,
) -> StaticFacts {
    let _span = probe.span("reason");
    let mut facts = StaticFacts::trivial(setting.v.ccs.len());
    facts.caps = master_caps(setting);
    probe.count("reason.caps", facts.caps.len() as u64);

    let env = ReasonEnv::build(setting, Some(query));
    for (idx, why) in &env.degraded {
        facts.notes.push(ReasonNote::Degraded {
            place: format!("cc {idx}"),
            why: why.clone(),
        });
    }

    let (minimization, interrupted) = minimize::minimize(setting, &env, guard);
    facts.kept = minimization.kept;
    facts.implied = minimization.implied;
    facts.notes.extend(minimization.notes);
    if interrupted {
        facts.budget_exhausted = true;
        emit_counters(&facts, probe);
        return facts;
    }

    derive_static_verdicts(setting, query, &env, guard, &mut facts);
    emit_counters(&facts, probe);
    facts
}

/// Static unsatisfiability and cover facts for the query. Both require the
/// query in (monotone) UCQ form; FO/FP queries degrade. Each query disjunct
/// is frozen once and reused for its fate, every cover test and the proofs.
fn derive_static_verdicts(
    setting: &Setting,
    query: &Query,
    env: &ReasonEnv,
    guard: &Guard,
    facts: &mut StaticFacts,
) {
    let Some(ucq) = query.as_ucq() else {
        facts.notes.push(ReasonNote::Degraded {
            place: "query".into(),
            why: "FO/FP query is outside the reasoned fragment".into(),
        });
        return;
    };
    if ucq.disjuncts.is_empty() {
        return;
    }
    let disjuncts: Vec<Disjunct> = ucq.disjuncts.into_iter().map(|d| env.disjunct(d)).collect();
    // Justify only from kept constraints so the facts remain derivable from
    // the minimized setting alone.
    let kept = facts.kept.clone();
    let usable = |j: usize| kept[j];
    let mut all_killed = true;
    for (di, d) in disjuncts.iter().enumerate() {
        if guard.check().is_some() {
            facts.budget_exhausted = true;
            return;
        }
        match disjunct_fate(d, env, usable) {
            Fate::Dead(step) => match check_step(setting, d, &step, Goal::Dead, &usable) {
                Ok(_) => facts.unsat_disjuncts.push(di),
                Err(why) => {
                    all_killed = false;
                    facts.notes.push(ReasonNote::Uncertified {
                        what: format!("static unsatisfiability of query disjunct {di} under V"),
                        why,
                    });
                }
            },
            Fate::Open => all_killed = false,
            Fate::Degraded(why) => {
                all_killed = false;
                facts.notes.push(ReasonNote::Degraded {
                    place: format!("query disjunct {di}"),
                    why,
                });
            }
        }
    }
    if all_killed {
        facts.statically_complete = true;
        return;
    }

    // Cover: a kept master constraint whose body contains every disjunct.
    'targets: for (j, rhs) in env.rhs_vals.iter().enumerate() {
        if !kept[j] || rhs.is_none() {
            continue;
        }
        if guard.check().is_some() {
            facts.budget_exhausted = true;
            return;
        }
        let mut steps = Vec::with_capacity(disjuncts.len());
        for d in &disjuncts {
            match canon_contained(d, env, j) {
                Some(step) => steps.push(step),
                None => continue 'targets,
            }
        }
        if commit_cover(setting, &disjuncts, &steps, j, facts) {
            return;
        }
    }
}

/// Commit the cover of the query by `φ_j` if every step checks; otherwise
/// record why the claim was discarded. Returns whether it was committed.
fn commit_cover(
    setting: &Setting,
    disjuncts: &[Disjunct],
    steps: &[Step],
    j: usize,
    facts: &mut StaticFacts,
) -> bool {
    let kept = &facts.kept;
    match check_steps(setting, disjuncts, steps, Goal::CoveredBy(j), &|c| kept[c]) {
        Ok(_) => {
            facts.cover = Some(CoverFact { cc: j });
            true
        }
        Err(why) => {
            facts.notes.push(ReasonNote::Uncertified {
                what: format!("cover of the query by cc {j}"),
                why,
            });
            false
        }
    }
}

/// Chase-derived cardinality caps from IND-style constraints: for
/// `π_cols(R) ⊆ p(R_m)`, every legal database satisfies
/// `|distinct(R.cols[k])| ≤ |distinct(p(D_m) at k)|`, and when `cols` covers
/// every column of `R` injectively, `|R| ≤ |p(D_m)|`.
pub fn master_caps(setting: &Setting) -> Vec<CardinalityCap> {
    let mut caps = Vec::new();
    for cc in &setting.v.ccs {
        let CcBody::Proj(body) = &cc.body else {
            continue;
        };
        let CcRhs::Master(p) = &cc.rhs else {
            continue;
        };
        let p_dm = p.eval(&setting.dm);
        for (k, &col) in body.cols.iter().enumerate() {
            let distinct = p_dm
                .iter()
                .map(|t| t.iter().nth(k))
                .collect::<std::collections::BTreeSet<_>>()
                .len();
            caps.push(CardinalityCap {
                rel: body.rel,
                kind: CapKind::DistinctAt {
                    col,
                    limit: distinct,
                },
            });
        }
        let arity = setting.schema.arity(body.rel).unwrap_or(usize::MAX);
        let mut cols = body.cols.clone();
        cols.sort_unstable();
        cols.dedup();
        if cols.len() == body.cols.len() && cols == (0..arity).collect::<Vec<_>>() {
            caps.push(CardinalityCap {
                rel: body.rel,
                kind: CapKind::Rows { limit: p_dm.len() },
            });
        }
    }
    caps
}

fn emit_counters(facts: &StaticFacts, probe: Probe<'_>) {
    probe.count("reason.cc.dropped", facts.dropped() as u64);
    probe.count("reason.unsat.disjuncts", facts.unsat_disjuncts.len() as u64);
    if facts.statically_complete {
        probe.count("reason.static.complete", 1);
    }
    if facts.cover.is_some() {
        probe.count("reason.cover", 1);
    }
    probe.count(
        "reason.uncertified",
        facts.notes.iter().filter(|n| n.is_uncertified()).count() as u64,
    );
    probe.count(
        "reason.degraded",
        facts.notes.iter().filter(|n| !n.is_uncertified()).count() as u64,
    );
    if facts.budget_exhausted {
        probe.count("reason.budget_exhausted", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::Frozen;
    use ric_constraints::{ContainmentConstraint, Projection};
    use ric_data::{Database, RelationSchema, Schema, Tuple, Value};
    use ric_query::{Cq, Term, Valuation};

    /// `R(a, b)` on the database side, `Rm(a)` and `Rm2(a, b)` as master.
    fn schemas() -> (Schema, Schema) {
        let schema =
            Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let master = Schema::from_relations(vec![
            RelationSchema::infinite("Rm", &["a"]),
            RelationSchema::infinite("Rm2", &["a", "b"]),
        ])
        .unwrap();
        (schema, master)
    }

    fn rel(s: &Schema, name: &str) -> ric_data::RelId {
        s.rel_id(name).unwrap()
    }

    /// `q(x) :- R(x, y)`.
    fn first_col_cq(schema: &Schema) -> Cq {
        let r = rel(schema, "R");
        let mut b = Cq::builder();
        let x = b.var("x");
        let y = b.var("y");
        b.atom(r, vec![Term::Var(x), Term::Var(y)])
            .head_vars(vec![x])
            .build()
    }

    /// `q(x, y) :- R(x, y)`.
    fn both_cols_cq(schema: &Schema) -> Cq {
        let r = rel(schema, "R");
        let mut b = Cq::builder();
        let x = b.var("x");
        let y = b.var("y");
        b.atom(r, vec![Term::Var(x), Term::Var(y)])
            .head_vars(vec![x, y])
            .build()
    }

    fn budget() -> SearchBudget {
        SearchBudget::small()
    }

    #[test]
    fn redundant_cq_cc_is_dropped_under_the_matching_ind() {
        let (schema, master) = schemas();
        let r = rel(&schema, "R");
        let rm = rel(&master, "Rm");
        let mut dm = Database::empty(&master);
        dm.insert(rm, Tuple::new([Value::int(1)]));
        let v = ConstraintSet::new(vec![
            // φ0: π_0(R) ⊆ Rm  (IND form)
            ContainmentConstraint::into_master(
                CcBody::Proj(Projection::new(r, vec![0])),
                rm,
                vec![0],
            ),
            // φ1: q(x) :- R(x, y) ⊆ Rm — semantically identical, implied.
            ContainmentConstraint::into_master(CcBody::Cq(first_col_cq(&schema)), rm, vec![0]),
        ]);
        let setting = Setting::new(schema.clone(), master, dm, v);
        let query = Query::Cq(both_cols_cq(&schema));
        let facts = reason(&setting, &query, &budget());
        assert_eq!(facts.kept, vec![true, false]);
        assert_eq!(facts.implied.len(), 1);
        assert_eq!(facts.implied[0].cc, 1);
        assert_eq!(facts.implied[0].by, vec![0]);
        assert!(!facts.budget_exhausted);
        // The minimized setting admits exactly the kept constraint.
        assert_eq!(facts.minimized_v(&setting.v).ccs.len(), 1);
    }

    #[test]
    fn denial_on_the_query_relation_yields_a_static_complete() {
        let (schema, master) = schemas();
        let r = rel(&schema, "R");
        let dm = Database::empty(&master);
        // φ0: q() :- R(x, y) ⊆ ∅ — R must be empty in every legal database.
        let mut b = Cq::builder();
        let x = b.var("x");
        let y = b.var("y");
        let denial_body = b.atom(r, vec![Term::Var(x), Term::Var(y)]).build();
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_empty(CcBody::Cq(
            denial_body,
        ))]);
        let setting = Setting::new(schema.clone(), master, dm, v);
        let query = Query::Cq(first_col_cq(&schema));
        let facts = reason(&setting, &query, &budget());
        assert!(facts.statically_complete);
        assert_eq!(facts.unsat_disjuncts, vec![0]);
    }

    #[test]
    fn fragile_master_violation_concludes_nothing() {
        // V: q(x) :- R(x, y) ⊆ Rm with EMPTY master data. The canonical
        // obligation is a frozen value — a specialization could map it onto
        // anything, so the query must stay open even though the canonical
        // database itself violates V.
        let (schema, master) = schemas();
        let rm = rel(&master, "Rm");
        let dm = Database::empty(&master);
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Cq(first_col_cq(&schema)),
            rm,
            vec![0],
        )]);
        let setting = Setting::new(schema.clone(), master, dm, v);
        let query = Query::Cq(both_cols_cq(&schema));
        let facts = reason(&setting, &query, &budget());
        assert!(!facts.statically_complete);
        assert!(facts.unsat_disjuncts.is_empty());
    }

    #[test]
    fn all_constant_obligation_missing_from_dm_kills_the_query() {
        // V: q(c) :- R(c, y) for the constant 9 ⊆ Rm, with 9 ∉ Rm(D_m): any
        // database containing R(9, _) violates V, so a query pinned to 9 is
        // statically empty.
        let (schema, master) = schemas();
        let r = rel(&schema, "R");
        let rm = rel(&master, "Rm");
        let mut dm = Database::empty(&master);
        dm.insert(rm, Tuple::new([Value::int(1)]));
        let mut b = Cq::builder();
        let y = b.var("y");
        let body = b
            .atom(r, vec![Term::Const(Value::int(9)), Term::Var(y)])
            .head(vec![Term::Const(Value::int(9))])
            .build();
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Cq(body),
            rm,
            vec![0],
        )]);
        let setting = Setting::new(schema.clone(), master, dm, v);
        // Q(y) :- R(9, y): every match forces the forbidden obligation.
        let mut qb = Cq::builder();
        let qy = qb.var("y");
        let q = qb
            .atom(r, vec![Term::Const(Value::int(9)), Term::Var(qy)])
            .head_vars(vec![qy])
            .build();
        let facts = reason(&setting, &Query::Cq(q), &budget());
        assert!(facts.statically_complete, "notes: {:?}", facts.notes);
    }

    #[test]
    fn cover_fact_is_found_for_a_fully_contained_query() {
        let (schema, master) = schemas();
        let rm2 = rel(&master, "Rm2");
        let mut dm = Database::empty(&master);
        dm.insert(rm2, Tuple::new([Value::int(1), Value::int(2)]));
        // φ0: q(x, y) :- R(x, y) ⊆ π_{0,1}(Rm2).
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Cq(both_cols_cq(&schema)),
            rm2,
            vec![0, 1],
        )]);
        let setting = Setting::new(schema.clone(), master, dm, v);
        let query = Query::Cq(both_cols_cq(&schema));
        let facts = reason(&setting, &query, &budget());
        assert_eq!(facts.cover, Some(CoverFact { cc: 0 }));
    }

    #[test]
    fn wrong_drop_candidate_is_discarded_by_certification() {
        // V holds a single load-bearing IND; claiming it is implied by the
        // (empty) rest of V is wrong, and no proof exists: nothing kills
        // `R(x, y)` and nothing else contains it.
        let (schema, master) = schemas();
        let r = rel(&schema, "R");
        let rm = rel(&master, "Rm");
        let dm = Database::empty(&master);
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(r, vec![0])),
            rm,
            vec![0],
        )]);
        let setting = Setting::new(schema, master, dm, v);
        let m = apply_candidates(&setting, &[0]);
        assert_eq!(m.kept, vec![true], "wrong drop must be kept");
        assert!(m.implied.is_empty());
        assert!(
            m.notes.iter().any(ReasonNote::is_uncertified),
            "a typed uncertified note must record the discard: {:?}",
            m.notes
        );
        assert!(certify_kept_mask(&setting, &[false]).is_err());
    }

    /// `φ0: π_0(R) ⊆ π_0(Rm2)` and `φ1: q(x) :- R(x, y) ⊆ Rm`, with the
    /// master data given. `body(φ1) ⊆ body(φ0)`, so Rule B drops `φ1`
    /// exactly when `π_0(Rm2)(D_m) ⊆ Rm(D_m)`.
    fn rule_b_setting(rm: &[i64], rm2: &[(i64, i64)]) -> Setting {
        let (schema, master) = schemas();
        let r = rel(&schema, "R");
        let (rm_rel, rm2_rel) = (rel(&master, "Rm"), rel(&master, "Rm2"));
        let mut dm = Database::empty(&master);
        for &a in rm {
            dm.insert(rm_rel, Tuple::new([Value::int(a)]));
        }
        for &(a, b) in rm2 {
            dm.insert(rm2_rel, Tuple::new([Value::int(a), Value::int(b)]));
        }
        let v = ConstraintSet::new(vec![
            ContainmentConstraint::into_master(
                CcBody::Proj(Projection::new(r, vec![0])),
                rm2_rel,
                vec![0],
            ),
            ContainmentConstraint::into_master(CcBody::Cq(first_col_cq(&schema)), rm_rel, vec![0]),
        ]);
        Setting::new(schema, master, dm, v)
    }

    /// The containment step of `φ1`'s only disjunct in `φ0`, built by the
    /// finder without the master-data side condition — what a Rule B
    /// rewriter that skips `p_j(D_m) ⊆ p_i(D_m)` would claim.
    fn forged_rule_b_proof(setting: &Setting) -> (Vec<Disjunct>, Vec<Step>) {
        let env = ReasonEnv::build(setting, None);
        let d = env.disjunct(first_col_cq(&setting.schema));
        let step = canon_contained(&d, &env, 0).expect("body(φ1) ⊆ body(φ0)");
        (vec![d], vec![step])
    }

    #[test]
    fn rule_b_drop_without_master_subset_is_refused() {
        // π_0(Rm2)(D_m) = {1, 3} ⊄ Rm(D_m) = {1}: dropping φ1 would admit
        // R(3, _), which φ1 forbids.
        let setting = rule_b_setting(&[1], &[(1, 2), (3, 4)]);
        let mut m = Minimization::keep_all(2);
        m.commit_drop(
            &setting,
            1,
            "drop of cc 1".into(),
            &forged_rule_b_proof(&setting),
        );
        assert_eq!(m.kept, vec![true, true], "the forged drop must be refused");
        assert!(m.implied.is_empty());
        assert!(
            matches!(&m.notes[..], [ReasonNote::Uncertified { why, .. }] if why.contains("⊄")),
            "{:?}",
            m.notes
        );
        // The reasoner itself never proposes it (it drops φ0 instead:
        // Rm(D_m) ⊆ π_0(Rm2)(D_m), so φ1 implies φ0).
        let facts = reason(
            &setting,
            &Query::Cq(both_cols_cq(&setting.schema)),
            &budget(),
        );
        assert_eq!(facts.kept, vec![false, true]);
        // Control: with π_0(Rm2)(D_m) ⊆ Rm(D_m) the same proof is accepted.
        let sound = rule_b_setting(&[1, 3], &[(1, 2), (3, 4)]);
        let mut m = Minimization::keep_all(2);
        m.commit_drop(
            &sound,
            1,
            "drop of cc 1".into(),
            &forged_rule_b_proof(&sound),
        );
        assert_eq!(m.kept, vec![true, false]);
        assert_eq!(m.implied, vec![ImpliedCc { cc: 1, by: vec![0] }]);
    }

    #[test]
    fn cover_claim_against_a_non_containing_body_is_refused() {
        // φ0: q(x, y) :- R(x, y), R(y, x) ⊆ Rm2 does not contain
        // Q(x, y) :- R(x, y); a claimed homomorphism must fail atom by atom.
        let (schema, master) = schemas();
        let r = rel(&schema, "R");
        let rm2 = rel(&master, "Rm2");
        let mut b = Cq::builder();
        let (x, y) = (b.var("x"), b.var("y"));
        let symmetric = b
            .atom(r, vec![Term::Var(x), Term::Var(y)])
            .atom(r, vec![Term::Var(y), Term::Var(x)])
            .head_vars(vec![x, y])
            .build();
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Cq(symmetric),
            rm2,
            vec![0, 1],
        )]);
        let setting = Setting::new(schema.clone(), master.clone(), Database::empty(&master), v);
        let query = Query::Cq(both_cols_cq(&schema));
        assert_eq!(reason(&setting, &query, &budget()).cover, None);
        let env = ReasonEnv::build(&setting, Some(&query));
        let d = env.disjunct(both_cols_cq(&schema));
        let Frozen::Canon(canon) = &d.frozen else {
            panic!("Q is satisfiable")
        };
        // The identity onto Q's frozen head: R(x, y) maps, R(y, x) does not.
        let hom = Valuation(canon.frozen_head.iter().cloned().collect());
        let steps = vec![Step::Contained {
            cc: 0,
            disjunct: 0,
            hom,
        }];
        let mut facts = StaticFacts::trivial(1);
        assert!(!commit_cover(&setting, &[d], &steps, 0, &mut facts));
        assert_eq!(facts.cover, None);
        assert!(
            matches!(&facts.notes[..], [ReasonNote::Uncertified { why, .. }] if why.contains("atom 1")),
            "{:?}",
            facts.notes
        );
    }

    #[test]
    fn constants_guard_refuses_a_pool_shrinking_drop() {
        // φ0: q() :- R(x, y) ⊆ ∅ implies φ1: q() :- R(x, 7) ⊆ ∅, but φ1
        // carries the constant 7 that seeds the candidate pool — the drop is
        // refused so decisions stay bit-identical.
        let (schema, master) = schemas();
        let r = rel(&schema, "R");
        let dm = Database::empty(&master);
        let mut b0 = Cq::builder();
        let x0 = b0.var("x");
        let y0 = b0.var("y");
        let body0 = b0.atom(r, vec![Term::Var(x0), Term::Var(y0)]).build();
        let mut b1 = Cq::builder();
        let x1 = b1.var("x");
        let body1 = b1
            .atom(r, vec![Term::Var(x1), Term::Const(Value::int(7))])
            .build();
        let v = ConstraintSet::new(vec![
            ContainmentConstraint::into_empty(CcBody::Cq(body0)),
            ContainmentConstraint::into_empty(CcBody::Cq(body1)),
        ]);
        let setting = Setting::new(schema.clone(), master, dm, v);
        let query = Query::Cq(both_cols_cq(&schema));
        let facts = reason(&setting, &query, &budget());
        assert_eq!(facts.kept, vec![true, true]);
        assert!(facts
            .notes
            .iter()
            .any(|n| matches!(n, ReasonNote::Degraded { place, .. } if place == "cc 1")));
    }

    #[test]
    fn ind_ccs_produce_cardinality_caps() {
        let (schema, master) = schemas();
        let r = rel(&schema, "R");
        let rm2 = rel(&master, "Rm2");
        let mut dm = Database::empty(&master);
        dm.insert(rm2, Tuple::new([Value::int(1), Value::int(2)]));
        dm.insert(rm2, Tuple::new([Value::int(1), Value::int(3)]));
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(r, vec![0, 1])),
            rm2,
            vec![0, 1],
        )]);
        let setting = Setting::new(schema, master, dm, v);
        let caps = master_caps(&setting);
        assert!(caps.contains(&CardinalityCap {
            rel: r,
            kind: CapKind::DistinctAt { col: 0, limit: 1 },
        }));
        assert!(caps.contains(&CardinalityCap {
            rel: r,
            kind: CapKind::DistinctAt { col: 1, limit: 2 },
        }));
        assert!(caps.contains(&CardinalityCap {
            rel: r,
            kind: CapKind::Rows { limit: 2 },
        }));
    }

    #[test]
    fn fo_query_degrades_with_a_note() {
        let (schema, master) = schemas();
        let dm = Database::empty(&master);
        let v = ConstraintSet::empty();
        let setting = Setting::new(schema.clone(), master, dm, v);
        let query = Query::Fo(ric_query::FoQuery::new(
            vec![],
            ric_query::FoExpr::And(vec![]),
            vec![],
        ));
        let facts = reason(&setting, &query, &budget());
        assert!(!facts.statically_complete);
        assert!(facts
            .notes
            .iter()
            .any(|n| matches!(n, ReasonNote::Degraded { place, .. } if place == "query")));
    }
}
