//! Minimal-fragment classification with proven rewrite witnesses.
//!
//! Tables I and II of the paper assign a complexity cell to the *pair*
//! `(L_Q, L_C)` — and the cell is determined by the smallest language the
//! query (or constraint body) actually inhabits, not the syntax it happens
//! to be written in. An FO-wrapped conjunctive query dispatched as FO lands
//! in an undecidable cell and pays a bounded search; recognized as CQ it
//! gets the exact Σᵖ₂ decider.
//!
//! Every rewrite is justified before it is applied, in one of two ways
//! (DESIGN §9):
//!
//! * **by construction** — FO → ∃FO⁺ rectification (binder uniqueness,
//!   scoping, and a safe-range pass that makes active-domain semantics
//!   irrelevant), ∃FO⁺ → UCQ by DNF (the ∃FO⁺ evaluator *is* evaluation of
//!   the DNF), and FP → UCQ for non-recursive output-only programs (one
//!   fixpoint round, each rule a CQ). Each rewriter refuses any input outside
//!   the shape its argument covers, and every UCQ it emits must evaluate
//!   without error;
//! * **by proof** — singleton UCQ → CQ and projection-shaped CQ → IND are
//!   equivalences of UCQs, each proven by checked homomorphisms in both
//!   directions ([`ric_query::containment::prove_equivalent`]).
//!
//! A rewrite whose proof fails is discarded with RIC031 and the declared
//! fragment kept. The rewrite *is* the witness: callers can re-check it.

use crate::diag::{Code, Diagnostic, Pointer};
use crate::lints::fo_depth;
use ric_complete::Query;
use ric_constraints::{CcBody, Projection};
use ric_data::Schema;
use ric_query::containment::prove_equivalent;
use ric_query::eval::MAX_EVAL_ATOMS;
use ric_query::fo::MAX_FO_DEPTH;
use ric_query::tableau::TableauError;
use ric_query::{
    Cq, EfoExpr, EfoQuery, FoExpr, FoQuery, Literal, Program, QueryLanguage, Tableau, Term, Ucq,
    Var,
};
use std::collections::BTreeSet;

/// Cap on the DNF expansion used for ∃FO⁺ → UCQ downgrades: the expansion is
/// worst-case exponential, and a 64-disjunct UCQ already dominates whatever
/// the FO cell would have cost.
pub const MAX_DNF_DISJUNCTS: usize = 64;

/// The minimal-fragment verdict for one query or constraint body.
#[derive(Clone, PartialEq, Debug)]
pub struct Classification<T> {
    /// The language the object is syntactically written in.
    pub declared: QueryLanguage,
    /// The smallest language the analyzer could justify.
    pub minimal: QueryLanguage,
    /// The rewrite witness in the smaller language (`None` when no downgrade
    /// was found — then `minimal == declared`).
    pub rewritten: Option<T>,
    /// Whether the rewrite passed its proof. Always `true` when `rewritten`
    /// is `Some`; unproven rewrites are discarded.
    pub certified: bool,
}

impl<T> Classification<T> {
    fn unchanged(declared: QueryLanguage) -> Self {
        Classification {
            declared,
            minimal: declared,
            rewritten: None,
            certified: false,
        }
    }

    /// Did the analyzer find a strictly smaller fragment?
    pub fn downgraded(&self) -> bool {
        self.minimal < self.declared
    }
}

/// A candidate rewrite: `Ok` when every step is proven or holds by
/// construction, `Err` with the failed proof otherwise.
type Candidate<T> = Result<T, String>;

/// Does every disjunct of `u` evaluate without error? By-construction
/// rewrites emit UCQs only under this side condition, so an original whose
/// evaluation fails is never replaced by one that answers.
fn evaluable(u: &Ucq) -> Candidate<()> {
    for (k, d) in u.disjuncts.iter().enumerate() {
        match Tableau::of(d) {
            Ok(t) if t.atoms.len() > MAX_EVAL_ATOMS => {
                return Err(format!("disjunct {k} exceeds {MAX_EVAL_ATOMS} atoms"))
            }
            Ok(_) | Err(TableauError::Unsatisfiable) => {}
            Err(e) => return Err(format!("disjunct {k}: {e}")),
        }
    }
    Ok(())
}

/// Rectify an FO query into ∃FO⁺ when it is positive-existential in
/// disguise: `∃`, `∧`, `∨`, atoms, `=`, `¬(t = t′)` (as `≠`), and double
/// negation. Correct by construction (DESIGN §9) under four checked
/// conditions:
///
/// 1. *rectified* — every quantified variable is bound exactly once and
///    never shadows the head, so pulling all `∃` to the front (the implicit
///    quantification of [`EfoQuery`]) captures nothing;
/// 2. *scoped* — every variable is used inside its binder's scope or is a
///    head variable;
/// 3. *safe range* — in every DNF clause every variable is restricted (see
///    [`range_restricted`]), and if the formula has no constant every clause
///    has an atom. Then no answer depends on the active domain the FO
///    evaluator quantifies over, even an empty one;
/// 4. *evaluable* — the FO evaluator would not refuse the formula for
///    depth, and the DNF has at most [`MAX_DNF_DISJUNCTS`] clauses, each a
///    CQ the CQ evaluator accepts.
fn fo_to_efo(q: &FoQuery) -> Option<EfoQuery> {
    // Pass 1: binders are globally unique and disjoint from the head.
    fn binders(e: &FoExpr, seen: &mut BTreeSet<Var>, head: &BTreeSet<Var>) -> bool {
        match e {
            FoExpr::Atom(_) | FoExpr::Eq(..) => true,
            FoExpr::Not(x) => binders(x, seen, head),
            FoExpr::And(ps) | FoExpr::Or(ps) => ps.iter().all(|p| binders(p, seen, head)),
            FoExpr::Exists(vs, x) => {
                vs.iter().all(|v| !head.contains(v) && seen.insert(*v)) && binders(x, seen, head)
            }
            FoExpr::Forall(vs, x) => vs.is_empty() && binders(x, seen, head),
        }
    }
    // Pass 2: translate, checking every variable is used in scope.
    fn go(e: &FoExpr, head: &BTreeSet<Var>, scope: &mut BTreeSet<Var>) -> Option<EfoExpr> {
        let term_ok = |t: &Term, scope: &BTreeSet<Var>| match t {
            Term::Const(_) => true,
            Term::Var(v) => head.contains(v) || scope.contains(v),
        };
        match e {
            FoExpr::Atom(a) => a
                .args
                .iter()
                .all(|t| term_ok(t, scope))
                .then(|| EfoExpr::Atom(a.clone())),
            FoExpr::Eq(l, r) => {
                (term_ok(l, scope) && term_ok(r, scope)).then(|| EfoExpr::Eq(l.clone(), r.clone()))
            }
            FoExpr::Not(x) => match &**x {
                FoExpr::Eq(l, r) => (term_ok(l, scope) && term_ok(r, scope))
                    .then(|| EfoExpr::Neq(l.clone(), r.clone())),
                FoExpr::Not(y) => go(y, head, scope),
                _ => None,
            },
            FoExpr::And(ps) => ps
                .iter()
                .map(|p| go(p, head, scope))
                .collect::<Option<Vec<_>>>()
                .map(EfoExpr::And),
            FoExpr::Or(ps) => ps
                .iter()
                .map(|p| go(p, head, scope))
                .collect::<Option<Vec<_>>>()
                .map(EfoExpr::Or),
            FoExpr::Exists(vs, x) => {
                scope.extend(vs.iter().copied());
                let out = go(x, head, scope);
                for v in vs {
                    scope.remove(v);
                }
                out
            }
            FoExpr::Forall(vs, x) if vs.is_empty() => go(x, head, scope),
            FoExpr::Forall(..) => None,
        }
    }
    let head: BTreeSet<Var> = q.head.iter().copied().collect();
    if fo_depth(&q.body) > MAX_FO_DEPTH || !binders(&q.body, &mut BTreeSet::new(), &head) {
        return None;
    }
    let efo = EfoQuery::new(
        q.head.iter().map(|v| Term::Var(*v)).collect(),
        go(&q.body, &head, &mut BTreeSet::new())?,
        q.var_names.clone(),
    );
    // Passes 3 and 4, clause by clause.
    if efo.body.dnf_size() > MAX_DNF_DISJUNCTS {
        return None;
    }
    let clauses = efo.to_ucq();
    let has_constant = !efo.constants().is_empty();
    let safe = |c: &Cq| range_restricted(c) && (has_constant || !c.atoms.is_empty());
    (evaluable(&clauses).is_ok() && clauses.disjuncts.iter().all(safe)).then_some(efo)
}

/// Is every variable of `cq` restricted — in an atom, or equated, directly
/// or through other equalities, to a constant or an atom variable? Only then
/// is its value independent of the domain quantifiers range over.
fn range_restricted(cq: &Cq) -> bool {
    let mut restricted: BTreeSet<Var> = cq.atoms.iter().flat_map(|a| a.vars()).collect();
    loop {
        let before = restricted.len();
        for (l, r) in &cq.eqs {
            match (l, r) {
                (Term::Var(v), Term::Const(_)) | (Term::Const(_), Term::Var(v)) => {
                    restricted.insert(*v);
                }
                (Term::Var(a), Term::Var(b))
                    if restricted.contains(a) || restricted.contains(b) =>
                {
                    restricted.extend([*a, *b]);
                }
                _ => {}
            }
        }
        if restricted.len() == before {
            return cq.all_vars().is_subset(&restricted);
        }
    }
}

/// FP → UCQ for the degenerate (but common in generated settings) shape:
/// every rule defines the output predicate directly from EDB relations — no
/// IDB literals, hence no recursion. The inflationary fixpoint of such a
/// program stops after its first round, and a range-restricted rule fires
/// exactly on the matches of its body read as a CQ, so the program is the
/// union of its rules.
fn fp_to_ucq(p: &Program) -> Option<Ucq> {
    if p.rules.is_empty() || p.validate().is_err() {
        return None;
    }
    let mut disjuncts = Vec::with_capacity(p.rules.len());
    for rule in &p.rules {
        if rule.head != p.output {
            return None;
        }
        let mut atoms = Vec::new();
        let mut eqs = Vec::new();
        let mut neqs = Vec::new();
        for lit in &rule.body {
            match lit {
                Literal::Edb(a) => atoms.push(a.clone()),
                Literal::Eq(l, r) => eqs.push((l.clone(), r.clone())),
                Literal::Neq(l, r) => neqs.push((l.clone(), r.clone())),
                Literal::Idb(..) => return None,
            }
        }
        disjuncts.push(Cq {
            n_vars: rule.n_vars,
            head: rule.head_args.clone(),
            atoms,
            eqs,
            neqs,
            var_names: (0..rule.n_vars).map(|i| format!("V{i}")).collect(),
        });
    }
    Some(Ucq::new(disjuncts))
}

/// CQ → IND for projection-shaped bodies: one atom over pairwise-distinct
/// variables, no comparisons, and a head consisting solely of atom
/// variables. Exactly the `π_cols(R)` form of an inclusion dependency — the
/// downgrade that unlocks the C3/E3-E4 fast paths.
fn cq_to_projection(q: &Cq) -> Option<Projection> {
    if q.atoms.len() != 1 || !q.eqs.is_empty() || !q.neqs.is_empty() {
        return None;
    }
    let atom = &q.atoms[0];
    let mut vars = Vec::with_capacity(atom.args.len());
    for t in &atom.args {
        match t {
            Term::Var(v) if !vars.contains(v) => vars.push(*v),
            _ => return None,
        }
    }
    let mut cols = Vec::with_capacity(q.head.len());
    for t in &q.head {
        let Term::Var(v) = t else { return None };
        cols.push(vars.iter().position(|w| w == v)?);
    }
    Some(Projection::new(atom.rel, cols))
}

/// Accept a UCQ rewrite once it is checked evaluable, and shrink a
/// singleton to its CQ, proven equivalent by the homomorphisms in both
/// directions.
fn from_ucq(u: Ucq, n_rels: usize) -> Candidate<Query> {
    evaluable(&u)?;
    if u.disjuncts.len() != 1 {
        return Ok(Query::Ucq(u));
    }
    let cq = u.disjuncts[0].clone();
    prove_equivalent(&u, &Ucq::single(cq.clone()), n_rels)?;
    Ok(Query::Cq(cq))
}

/// The candidate rewrite for a query with its justification.
fn query_candidate(q: &Query, n_rels: usize) -> Option<Candidate<Query>> {
    match q {
        Query::Cq(_) => None,
        Query::Ucq(u) => (u.disjuncts.len() == 1).then(|| from_ucq(u.clone(), n_rels)),
        Query::Efo(e) => {
            (e.body.dnf_size() <= MAX_DNF_DISJUNCTS).then(|| from_ucq(e.to_ucq(), n_rels))
        }
        Query::Fo(f) => fo_to_efo(f).map(|efo| from_ucq(efo.to_ucq(), n_rels)),
        Query::Fp(p) => fp_to_ucq(p).map(|u| from_ucq(u, n_rels)),
    }
}

/// Keep a justified strictly smaller candidate, or refuse an unproven one
/// with RIC031; `what` names the object in the diagnostic.
fn judge<T>(
    declared: QueryLanguage,
    candidate: Option<Candidate<T>>,
    language: impl Fn(&T) -> QueryLanguage,
    pointer: Pointer,
    what: &str,
) -> (Classification<T>, Vec<Diagnostic>) {
    let unchanged = || (Classification::unchanged(declared), Vec::new());
    match candidate {
        None => unchanged(),
        Some(Ok(rewrite)) => {
            let minimal = language(&rewrite);
            if minimal >= declared {
                return unchanged();
            }
            let diag = Diagnostic::new(
                Code::Downgrade,
                pointer,
                format!("{what} is {declared:?}-syntax but proven {minimal:?}: dispatching to the smaller cell"),
            );
            let cls = Classification {
                declared,
                minimal,
                rewritten: Some(rewrite),
                certified: true,
            };
            (cls, vec![diag])
        }
        Some(Err(why)) => {
            let diag = Diagnostic::new(
                Code::UncertifiedRewrite,
                pointer,
                format!("candidate rewrite of the {what} failed its proof ({why}); keeping {declared:?}"),
            );
            (Classification::unchanged(declared), vec![diag])
        }
    }
}

/// Classify a query against `schema`, emitting the downgrade /
/// unproven-rewrite diagnostics.
pub fn classify_query(schema: &Schema, query: &Query) -> (Classification<Query>, Vec<Diagnostic>) {
    let (declared, candidate) = (query.language(), query_candidate(query, schema.len()));
    judge(
        declared,
        candidate,
        Query::language,
        Pointer::Query,
        "query",
    )
}

/// Classify one constraint body, emitting diagnostics for `pointer`.
pub fn classify_body(
    schema: &Schema,
    body: &CcBody,
    pointer: Pointer,
) -> (Classification<CcBody>, Vec<Diagnostic>) {
    classify_body_with(schema, body, pointer, cq_to_projection)
}

/// [`classify_body`] with the CQ → IND rewriter as a parameter, so tests can
/// hand the proof a wrong rewriter.
fn classify_body_with(
    schema: &Schema,
    body: &CcBody,
    pointer: Pointer,
    to_projection: fn(&Cq) -> Option<Projection>,
) -> (Classification<CcBody>, Vec<Diagnostic>) {
    let n_rels = schema.len();
    // CQ → IND, proven by the homomorphisms between the CQ and the
    // projection's own CQ form.
    let cq_body = |cq: Cq| -> Candidate<CcBody> {
        let Some(p) = to_projection(&cq) else {
            return Ok(CcBody::Cq(cq));
        };
        let proj = CcBody::Proj(p);
        let as_ucq = proj
            .as_ucq(schema)
            .ok_or("the projection's relation is not in the schema")?;
        prove_equivalent(&Ucq::single(cq), &as_ucq, n_rels)?;
        Ok(proj)
    };
    // Singleton UCQ → CQ, then (when `project`) CQ → IND.
    let ucq_body = |u: Ucq, project: bool| -> Candidate<CcBody> {
        match from_ucq(u, n_rels)? {
            Query::Cq(cq) if project => cq_body(cq),
            Query::Cq(cq) => Ok(CcBody::Cq(cq)),
            Query::Ucq(u) => Ok(CcBody::Ucq(u)),
            _ => unreachable!("from_ucq only yields CQ/UCQ"),
        }
    };
    let candidate: Option<Candidate<CcBody>> = match body {
        CcBody::Proj(_) => None,
        CcBody::Cq(q) => Some(cq_body(q.clone())),
        CcBody::Ucq(u) => (u.disjuncts.len() == 1).then(|| ucq_body(u.clone(), true)),
        CcBody::Efo(e) => {
            (e.body.dnf_size() <= MAX_DNF_DISJUNCTS).then(|| ucq_body(e.to_ucq(), true))
        }
        CcBody::Fo(f) => fo_to_efo(f).map(|efo| Ok(CcBody::Efo(efo))),
        CcBody::Fp(p) => fp_to_ucq(p).map(|u| ucq_body(u, false)),
    };
    judge(
        body.language(),
        candidate,
        CcBody::language,
        pointer,
        "constraint body",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_data::RelationSchema;
    use ric_query::{parse_cq, parse_ucq, Atom};

    fn schema() -> Schema {
        Schema::from_relations(vec![
            RelationSchema::infinite("R", &["a", "b"]),
            RelationSchema::infinite("S", &["a"]),
        ])
        .unwrap()
    }

    /// `Q(x) := ∃y (R(x,y) ∧ ¬¬S(y))` — FO syntax, CQ at heart.
    fn fo_wrapped_cq(s: &Schema) -> FoQuery {
        let r = s.rel_id("R").unwrap();
        let srel = s.rel_id("S").unwrap();
        let (x, y) = (Var(0), Var(1));
        FoQuery::new(
            vec![x],
            FoExpr::Exists(
                vec![y],
                Box::new(FoExpr::And(vec![
                    FoExpr::Atom(Atom::new(r, vec![Term::Var(x), Term::Var(y)])),
                    FoExpr::not(FoExpr::not(FoExpr::Atom(Atom::new(
                        srel,
                        vec![Term::Var(y)],
                    )))),
                ])),
            ),
            vec!["x".into(), "y".into()],
        )
    }

    #[test]
    fn fo_wrapped_cq_downgrades_to_cq() {
        let s = schema();
        let q = Query::Fo(fo_wrapped_cq(&s));
        let (c, diags) = classify_query(&s, &q);
        assert_eq!(c.declared, QueryLanguage::Fo);
        assert_eq!(c.minimal, QueryLanguage::Cq);
        assert!(c.certified);
        assert!(matches!(c.rewritten, Some(Query::Cq(_))));
        assert!(diags.iter().any(|d| d.code == Code::Downgrade));
    }

    #[test]
    fn genuine_fo_stays_fo() {
        let s = schema();
        let r = s.rel_id("R").unwrap();
        let (x, y) = (Var(0), Var(1));
        // ∀y ¬R(x,y): real negation, no ∃FO⁺ equivalent syntactically.
        let q = Query::Fo(FoQuery::new(
            vec![x],
            FoExpr::Forall(
                vec![y],
                Box::new(FoExpr::not(FoExpr::Atom(Atom::new(
                    r,
                    vec![Term::Var(x), Term::Var(y)],
                )))),
            ),
            vec!["x".into(), "y".into()],
        ));
        let (c, diags) = classify_query(&s, &q);
        assert!(!c.downgraded());
        assert!(diags.is_empty());
    }

    #[test]
    fn shared_binder_is_not_rectifiable() {
        let s = schema();
        let srel = s.rel_id("S").unwrap();
        let y = Var(0);
        // (∃y S(y)) ∧ (∃y S(y)) reuses the binder: flattening would conflate
        // the two scopes, so the classifier must refuse.
        let part = FoExpr::Exists(
            vec![y],
            Box::new(FoExpr::Atom(Atom::new(srel, vec![Term::Var(y)]))),
        );
        let q = FoQuery::new(
            vec![],
            FoExpr::And(vec![part.clone(), part]),
            vec!["y".into()],
        );
        let (c, _) = classify_query(&s, &Query::Fo(q));
        assert!(!c.downgraded());
    }

    #[test]
    fn singleton_ucq_downgrades_to_cq() {
        let s = schema();
        let u = parse_ucq(&s, "Q(X) :- R(X, Y), S(Y).").unwrap();
        let (c, _) = classify_query(&s, &Query::Ucq(u));
        assert_eq!(c.minimal, QueryLanguage::Cq);
        assert!(c.certified);
    }

    #[test]
    fn nonrecursive_output_only_fp_downgrades() {
        let s = schema();
        let p = ric_query::parse_program(&s, "Out(X) :- R(X, Y). Out(X) :- S(X).", "Out").unwrap();
        let (c, _) = classify_query(&s, &Query::Fp(p));
        assert_eq!(c.declared, QueryLanguage::Fp);
        assert_eq!(c.minimal, QueryLanguage::Ucq);
        assert!(c.certified);
    }

    #[test]
    fn recursive_fp_stays_fp() {
        let s = schema();
        let p = ric_query::parse_program(
            &s,
            "Tc(X, Y) :- R(X, Y). Tc(X, Y) :- R(X, Z), Tc(Z, Y).",
            "Tc",
        )
        .unwrap();
        let (c, _) = classify_query(&s, &Query::Fp(p));
        assert!(!c.downgraded());
    }

    #[test]
    fn projection_shaped_cq_body_downgrades_to_ind() {
        let s = schema();
        let q = parse_cq(&s, "Q(B, A) :- R(A, B).").unwrap();
        let (c, diags) = classify_body(&s, &CcBody::Cq(q), Pointer::Constraint(0));
        assert_eq!(c.declared, QueryLanguage::Cq);
        assert_eq!(c.minimal, QueryLanguage::Inds);
        assert!(matches!(c.rewritten, Some(CcBody::Proj(_))));
        assert!(diags.iter().any(|d| d.code == Code::Downgrade));
    }

    #[test]
    fn selective_cq_body_is_not_a_projection() {
        let s = schema();
        let q = parse_cq(&s, "Q(A) :- R(A, B), B = 1.").unwrap();
        let (c, _) = classify_body(&s, &CcBody::Cq(q), Pointer::Constraint(0));
        assert!(!c.downgraded());
    }

    /// A CQ → IND rewriter that ignores every atom but the first.
    fn drops_atoms(q: &Cq) -> Option<Projection> {
        let mut first = q.clone();
        first.atoms.truncate(1);
        cq_to_projection(&first)
    }

    /// A CQ → IND rewriter that reads a repeated variable as two distinct
    /// columns, losing the join equality.
    fn loses_join_equality(q: &Cq) -> Option<Projection> {
        let atom = q.atoms.first()?;
        let col = |v: &Var| atom.args.iter().position(|t| t == &Term::Var(*v));
        let cols = q
            .head
            .iter()
            .map(|t| t.as_var().and_then(|v| col(&v)))
            .collect::<Option<Vec<_>>>()?;
        Some(Projection::new(atom.rel, cols))
    }

    fn refused_with_ric031(
        s: &Schema,
        src: &str,
        rewriter: fn(&Cq) -> Option<Projection>,
    ) -> Classification<CcBody> {
        let body = CcBody::Cq(parse_cq(s, src).unwrap());
        let (c, diags) = classify_body_with(s, &body, Pointer::Constraint(0), rewriter);
        assert!(!c.downgraded(), "{src}: the wrong rewrite was applied");
        assert!(c.rewritten.is_none());
        assert!(
            diags.iter().any(|d| d.code == Code::UncertifiedRewrite),
            "{src}: no RIC031 note in {diags:?}"
        );
        c
    }

    #[test]
    fn rewriter_that_drops_an_atom_fails_its_proof() {
        let s = schema();
        refused_with_ric031(&s, "Q(A) :- R(A, B), S(A).", drops_atoms);
        // Control: on a one-atom body the same rewriter is right and proven.
        let body = CcBody::Cq(parse_cq(&s, "Q(A) :- R(A, B).").unwrap());
        let (c, _) = classify_body_with(&s, &body, Pointer::Constraint(0), drops_atoms);
        assert_eq!(c.minimal, QueryLanguage::Inds);
    }

    #[test]
    fn rewriter_that_loses_a_join_equality_fails_its_proof() {
        let s = schema();
        refused_with_ric031(&s, "Q(A) :- R(A, A).", loses_join_equality);
        // Control: without a repeated variable the rewriter is right.
        let body = CcBody::Cq(parse_cq(&s, "Q(B) :- R(A, B).").unwrap());
        let (c, _) = classify_body_with(&s, &body, Pointer::Constraint(0), loses_join_equality);
        assert_eq!(c.minimal, QueryLanguage::Inds);
    }

    #[test]
    fn fo_whose_variables_depend_on_the_active_domain_is_not_rectified() {
        let s = schema();
        let srel = s.rel_id("S").unwrap();
        let (x, y) = (Var(0), Var(1));
        let fo = |head: Vec<Var>, body: FoExpr| {
            Query::Fo(FoQuery::new(head, body, vec!["x".into(), "y".into()]))
        };
        let s_of = |v: Var| FoExpr::Atom(Atom::new(srel, vec![Term::Var(v)]));
        // ∃y (y = y): true iff the active domain is nonempty, while the
        // rectified CQ would hold on the empty database.
        let trivially_bound = fo(
            vec![],
            FoExpr::Exists(vec![y], Box::new(FoExpr::Eq(Term::Var(y), Term::Var(y)))),
        );
        // Q(x) := S(x) ∨ ∃y S(y): the second disjunct returns the whole
        // active domain for x.
        let unrestricted_head = fo(
            vec![x],
            FoExpr::Or(vec![s_of(x), FoExpr::Exists(vec![y], Box::new(s_of(y)))]),
        );
        // Q(x) := ∃y (S(x) ∧ ¬(x = 7) ∧ y = 7): equalities with constants
        // restrict (7 is in the active domain of every evaluation), so this
        // one is rectified.
        let constant_bound = fo(
            vec![x],
            FoExpr::Exists(
                vec![y],
                Box::new(FoExpr::And(vec![
                    s_of(x),
                    FoExpr::neq(Term::Var(x), Term::from(7)),
                    FoExpr::Eq(Term::Var(y), Term::from(7)),
                ])),
            ),
        );
        for q in [&trivially_bound, &unrestricted_head] {
            let (c, diags) = classify_query(&s, q);
            assert!(!c.downgraded(), "{q:?}");
            assert!(diags.is_empty());
        }
        let (c, _) = classify_query(&s, &constant_bound);
        assert_eq!(c.minimal, QueryLanguage::Cq);
    }
}
