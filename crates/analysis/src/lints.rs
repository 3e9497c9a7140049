//! Static well-formedness checks: FO safety, FP sanity, CQ lints, and
//! containment-constraint validation.
//!
//! Everything here is purely syntactic — no database is consulted — so the
//! checks run in time linear-ish in the setting size and can gate a decision
//! before any search starts.

use crate::diag::{Code, Diagnostic, Pointer};
use ric_complete::Query;
use ric_constraints::{CcBody, CcRhs, ContainmentConstraint, LowerBound, Projection};
use ric_data::Schema;
use ric_query::fo::MAX_FO_DEPTH;
use ric_query::{Atom, Cq, EfoExpr, FoExpr, FoQuery, Literal, Program, Term, Var};
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// FO safety / range restriction
// ---------------------------------------------------------------------------

/// An upper bound on the evaluator's recursion depth for `e`, mirroring how
/// `sat`/`quantify` consume [`MAX_FO_DEPTH`]: one frame per connective, one
/// per quantified variable.
pub(crate) fn fo_depth(e: &FoExpr) -> usize {
    match e {
        FoExpr::Atom(_) | FoExpr::Eq(..) => 0,
        FoExpr::Not(x) => 1 + fo_depth(x),
        FoExpr::And(ps) | FoExpr::Or(ps) => 1 + ps.iter().map(fo_depth).max().unwrap_or(0),
        FoExpr::Exists(vs, x) | FoExpr::Forall(vs, x) => vs.len() + 1 + fo_depth(x),
    }
}

/// FO safety: every variable must be bound when the evaluator reaches it —
/// either a free (head) variable, enumerated over the active domain, or
/// introduced by an enclosing quantifier. A violation is exactly the input
/// on which `FoQuery::try_eval` returns `TableauError::UnsafeVariable` (and
/// `FoQuery::eval`, which the CC checker uses, panics).
pub fn fo_safety(q: &FoQuery, pointer: Pointer) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if fo_depth(&q.body) > MAX_FO_DEPTH {
        out.push(Diagnostic::new(
            Code::FoTooDeep,
            pointer,
            format!(
                "formula nesting exceeds the evaluator depth cap ({MAX_FO_DEPTH}); evaluation would fail"
            ),
        ));
    }
    fn walk(
        e: &FoExpr,
        scope: &mut BTreeSet<Var>,
        names: &[String],
        pointer: Pointer,
        out: &mut Vec<Diagnostic>,
    ) {
        let check = |t: &Term, scope: &BTreeSet<Var>, out: &mut Vec<Diagnostic>| {
            if let Term::Var(v) = t {
                if !scope.contains(v) {
                    let name = names
                        .get(v.idx())
                        .cloned()
                        .unwrap_or_else(|| format!("#{}", v.0));
                    out.push(Diagnostic::new(
                        Code::FoUnsafeVariable,
                        pointer,
                        format!("variable `{name}` is neither free (head) nor quantified: unsafe under active-domain semantics"),
                    ));
                }
            }
        };
        match e {
            FoExpr::Atom(a) => a.args.iter().for_each(|t| check(t, scope, out)),
            FoExpr::Eq(l, r) => {
                check(l, scope, out);
                check(r, scope, out);
            }
            FoExpr::Not(x) => walk(x, scope, names, pointer, out),
            FoExpr::And(ps) | FoExpr::Or(ps) => {
                ps.iter().for_each(|p| walk(p, scope, names, pointer, out));
            }
            FoExpr::Exists(vs, x) | FoExpr::Forall(vs, x) => {
                let added: Vec<Var> = vs.iter().filter(|v| scope.insert(**v)).copied().collect();
                walk(x, scope, names, pointer, out);
                for v in added {
                    scope.remove(&v);
                }
            }
        }
    }
    let mut scope: BTreeSet<Var> = q.head.iter().copied().collect();
    walk(&q.body, &mut scope, &q.var_names, pointer, &mut out);
    out
}

// ---------------------------------------------------------------------------
// FP sanity
// ---------------------------------------------------------------------------

/// FP checks: program validation (range restriction, arities), reachability
/// of every rule from the output predicate, and the stratification note —
/// the FP fragment here is negation-free datalog, so every program is
/// trivially stratified and the inflationary fixpoint coincides with the
/// least fixpoint.
pub fn fp_sanity(p: &Program, pointer: Pointer) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if let Err(e) = p.validate() {
        let rule = match e {
            ric_query::datalog::ProgramError::NotRangeRestricted { rule, .. }
            | ric_query::datalog::ProgramError::ArityMismatch { rule, .. }
            | ric_query::datalog::ProgramError::BodyTooLong { rule, .. } => rule,
        };
        out.push(Diagnostic::new(
            Code::FpInvalid,
            rule_pointer(pointer, rule),
            format!("program fails validation: {e}"),
        ));
        return out;
    }
    // Reachability: which IDB predicates can influence the output?
    let mut reachable: BTreeSet<usize> = BTreeSet::new();
    reachable.insert(p.output.0);
    loop {
        let mut grew = false;
        for rule in &p.rules {
            if !reachable.contains(&rule.head.0) {
                continue;
            }
            for lit in &rule.body {
                if let Literal::Idb(pred, _) = lit {
                    grew |= reachable.insert(pred.0);
                }
            }
        }
        if !grew {
            break;
        }
    }
    for (ri, rule) in p.rules.iter().enumerate() {
        if !reachable.contains(&rule.head.0) {
            let name = p
                .pred_names
                .get(rule.head.0)
                .map(String::as_str)
                .unwrap_or("?");
            out.push(Diagnostic::new(
                Code::FpUnreachableRule,
                rule_pointer(pointer, ri),
                format!(
                    "rule defines `{name}`, which cannot reach the output predicate: dead rule"
                ),
            ));
        }
    }
    out.push(Diagnostic::new(
        Code::FpTriviallyStratified,
        pointer,
        "negation-free datalog: trivially stratified; the inflationary fixpoint equals the least fixpoint",
    ));
    out
}

/// FP diagnostics inside a constraint keep the constraint pointer; inside
/// the query they point at the specific rule.
fn rule_pointer(base: Pointer, rule: usize) -> Pointer {
    match base {
        Pointer::Query => Pointer::QueryRule(rule),
        other => other,
    }
}

// ---------------------------------------------------------------------------
// CQ lints
// ---------------------------------------------------------------------------

/// A tiny union-find over a CQ's variables with constant pinning, shared by
/// the contradiction and `≠` lints.
struct Classes {
    parent: Vec<usize>,
    pinned: BTreeMap<usize, ric_data::Value>,
    contradictory: bool,
}

impl Classes {
    fn new(n: usize) -> Self {
        Classes {
            parent: (0..n).collect(),
            pinned: BTreeMap::new(),
            contradictory: false,
        }
    }

    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let root = self.find(self.parent[i]);
            self.parent[i] = root;
        }
        self.parent[i]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let pa = self.pinned.get(&ra).cloned();
        let pb = self.pinned.get(&rb).cloned();
        if let (Some(ca), Some(cb)) = (&pa, &pb) {
            if ca != cb {
                self.contradictory = true;
            }
        }
        self.parent[rb] = ra;
        if let Some(c) = pb {
            self.pinned.entry(ra).or_insert(c);
        }
    }

    fn pin(&mut self, v: usize, c: &ric_data::Value) {
        let r = self.find(v);
        match self.pinned.get(&r) {
            Some(existing) if existing != c => self.contradictory = true,
            Some(_) => {}
            None => {
                self.pinned.insert(r, c.clone());
            }
        }
    }

    /// Resolve a term to either its pinned constant or its class root.
    fn resolve(&mut self, t: &Term) -> Result<ric_data::Value, usize> {
        match t {
            Term::Const(c) => Ok(c.clone()),
            Term::Var(v) => {
                let r = self.find(v.idx());
                match self.pinned.get(&r) {
                    Some(c) => Ok(c.clone()),
                    None => Err(r),
                }
            }
        }
    }
}

fn classes_of(q: &Cq) -> Classes {
    let mut cls = Classes::new(q.n_vars as usize);
    for (l, r) in &q.eqs {
        match (l, r) {
            (Term::Var(a), Term::Var(b)) => cls.union(a.idx(), b.idx()),
            (Term::Var(a), Term::Const(c)) | (Term::Const(c), Term::Var(a)) => cls.pin(a.idx(), c),
            (Term::Const(a), Term::Const(b)) => {
                if a != b {
                    cls.contradictory = true;
                }
            }
        }
    }
    cls
}

/// Is the CQ body statically unsatisfiable (contradictory equalities, or a
/// `≠` atom refuted by the equalities)?
pub fn cq_statically_unsat(q: &Cq) -> bool {
    let mut cls = classes_of(q);
    if cls.contradictory {
        return true;
    }
    q.neqs.iter().any(|(l, r)| {
        let (a, b) = (cls.resolve(l), cls.resolve(r));
        match (a, b) {
            (Ok(ca), Ok(cb)) => ca == cb,
            (Err(ra), Err(rb)) => ra == rb,
            _ => false,
        }
    })
}

/// Contradictory equalities, tautological / unsatisfiable `≠` atoms, and
/// duplicate atoms.
pub fn cq_lints(q: &Cq, pointer: Pointer) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut cls = classes_of(q);
    if cls.contradictory {
        out.push(Diagnostic::new(
            Code::CqContradictoryEq,
            pointer,
            "contradictory equalities (a variable is equated with two distinct constants): the body is unsatisfiable",
        ));
    }
    for (l, r) in &q.neqs {
        match (cls.resolve(l), cls.resolve(r)) {
            (Ok(ca), Ok(cb)) if ca == cb => out.push(Diagnostic::new(
                Code::CqUnsatisfiableNeq,
                pointer,
                format!("`≠` atom compares terms both equal to {ca}: the body is unsatisfiable"),
            )),
            (Ok(ca), Ok(cb)) => {
                // Only flag literal constant-vs-constant comparisons as
                // removable; constants implied via `=` chains still carry
                // information in the original syntax.
                if matches!((l, r), (Term::Const(_), Term::Const(_))) {
                    out.push(Diagnostic::new(
                        Code::CqTautologicalNeq,
                        pointer,
                        format!("`{ca} ≠ {cb}` is always true: removable"),
                    ));
                }
            }
            (Err(ra), Err(rb)) if ra == rb => out.push(Diagnostic::new(
                Code::CqUnsatisfiableNeq,
                pointer,
                "`≠` atom compares two terms the equalities force equal: the body is unsatisfiable",
            )),
            _ => {}
        }
    }
    for i in 0..q.atoms.len() {
        for j in (i + 1)..q.atoms.len() {
            if q.atoms[i] == q.atoms[j] {
                out.push(Diagnostic::new(
                    Code::CqDuplicateAtom,
                    pointer,
                    format!("atoms {i} and {j} are identical: removable"),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Schema conformance of atoms
// ---------------------------------------------------------------------------

fn check_atom(
    atom: &Atom,
    schema: &Schema,
    pointer: Pointer,
    unknown: Code,
    arity: Code,
    out: &mut Vec<Diagnostic>,
) {
    match schema.arity(atom.rel) {
        Err(_) => out.push(Diagnostic::new(
            unknown,
            pointer,
            format!(
                "atom references relation #{} which is not in the schema",
                atom.rel.0
            ),
        )),
        Ok(a) if a != atom.args.len() => out.push(Diagnostic::new(
            arity,
            pointer,
            format!(
                "atom over `{}` has {} arguments, schema arity is {a}",
                schema
                    .relation(atom.rel)
                    .map(|r| r.name.clone())
                    .unwrap_or_else(|_| format!("#{}", atom.rel.0)),
                atom.args.len()
            ),
        )),
        Ok(_) => {}
    }
}

fn for_each_efo_atom(e: &EfoExpr, f: &mut impl FnMut(&Atom)) {
    match e {
        EfoExpr::Atom(a) => f(a),
        EfoExpr::Eq(..) | EfoExpr::Neq(..) => {}
        EfoExpr::And(ps) | EfoExpr::Or(ps) => ps.iter().for_each(|p| for_each_efo_atom(p, f)),
    }
}

fn for_each_fo_atom(e: &FoExpr, f: &mut impl FnMut(&Atom)) {
    match e {
        FoExpr::Atom(a) => f(a),
        FoExpr::Eq(..) => {}
        FoExpr::Not(x) => for_each_fo_atom(x, f),
        FoExpr::And(ps) | FoExpr::Or(ps) => ps.iter().for_each(|p| for_each_fo_atom(p, f)),
        FoExpr::Exists(_, x) | FoExpr::Forall(_, x) => for_each_fo_atom(x, f),
    }
}

/// All query-side lints: schema conformance for every atom, FO safety, FP
/// sanity, and the CQ lints on every conjunctive component.
pub fn query_lints(schema: &Schema, query: &Query) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let check = |a: &Atom, ptr: Pointer, out: &mut Vec<Diagnostic>| {
        check_atom(
            a,
            schema,
            ptr,
            Code::QueryUnknownRelation,
            Code::QueryArityMismatch,
            out,
        )
    };
    match query {
        Query::Cq(q) => {
            for a in &q.atoms {
                check(a, Pointer::Query, &mut out);
            }
            out.extend(cq_lints(q, Pointer::Query));
        }
        Query::Ucq(u) => {
            for (i, d) in u.disjuncts.iter().enumerate() {
                for a in &d.atoms {
                    check(a, Pointer::QueryDisjunct(i), &mut out);
                }
                out.extend(cq_lints(d, Pointer::QueryDisjunct(i)));
            }
        }
        Query::Efo(e) => {
            for_each_efo_atom(&e.body, &mut |a| check(a, Pointer::Query, &mut out));
        }
        Query::Fo(f) => {
            for_each_fo_atom(&f.body, &mut |a| check(a, Pointer::Query, &mut out));
            out.extend(fo_safety(f, Pointer::Query));
        }
        Query::Fp(p) => {
            for (ri, rule) in p.rules.iter().enumerate() {
                for lit in &rule.body {
                    if let Literal::Edb(a) = lit {
                        check(a, Pointer::QueryRule(ri), &mut out);
                    }
                }
            }
            out.extend(fp_sanity(p, Pointer::Query));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Containment-constraint well-formedness
// ---------------------------------------------------------------------------

/// Validate a projection against a schema: known relation, in-range columns.
/// Returns the relation's arity when the relation exists.
fn check_projection(
    p: &Projection,
    schema: &Schema,
    side: &str,
    pointer: Pointer,
    out: &mut Vec<Diagnostic>,
) -> Option<usize> {
    match schema.arity(p.rel) {
        Err(_) => {
            out.push(Diagnostic::new(
                Code::CcUnknownRelation,
                pointer,
                format!(
                    "{side} projection references relation #{} which is not in the schema",
                    p.rel.0
                ),
            ));
            None
        }
        Ok(a) => {
            for &c in &p.cols {
                if c >= a {
                    out.push(Diagnostic::new(
                        Code::CcBadProjection,
                        pointer,
                        format!("{side} projection selects column {c} of a relation with arity {a}: not a projection"),
                    ));
                }
            }
            Some(a)
        }
    }
}

/// Output arity of a CC body, when determinable.
fn body_arity(body: &CcBody) -> usize {
    match body {
        CcBody::Proj(p) => p.cols.len(),
        CcBody::Cq(q) => q.head_arity(),
        CcBody::Ucq(u) => u.head_arity(),
        CcBody::Efo(e) => e.head.len(),
        CcBody::Fo(f) => f.head.len(),
        CcBody::Fp(p) => p.arities.get(p.output.0).copied().unwrap_or(0),
    }
}

fn body_lints(body: &CcBody, schema: &Schema, pointer: Pointer, out: &mut Vec<Diagnostic>) {
    let check = |a: &Atom, out: &mut Vec<Diagnostic>| {
        check_atom(
            a,
            schema,
            pointer,
            Code::CcUnknownRelation,
            Code::CcArityMismatch,
            out,
        )
    };
    match body {
        CcBody::Proj(p) => {
            check_projection(p, schema, "body", pointer, out);
        }
        CcBody::Cq(q) => {
            for a in &q.atoms {
                check(a, out);
            }
            out.extend(cq_lints(q, pointer));
            if cq_statically_unsat(q) {
                out.push(Diagnostic::new(
                    Code::CcTriviallySatisfied,
                    pointer,
                    "the body is statically unsatisfiable: the constraint never restricts anything",
                ));
            }
        }
        CcBody::Ucq(u) => {
            for d in &u.disjuncts {
                for a in &d.atoms {
                    check(a, out);
                }
                out.extend(cq_lints(d, pointer));
            }
            if u.disjuncts.iter().all(cq_statically_unsat) {
                out.push(Diagnostic::new(
                    Code::CcTriviallySatisfied,
                    pointer,
                    "every disjunct of the body is statically unsatisfiable: the constraint never restricts anything",
                ));
            }
        }
        CcBody::Efo(e) => for_each_efo_atom(&e.body, &mut |a| check(a, out)),
        CcBody::Fo(f) => {
            for_each_fo_atom(&f.body, &mut |a| check(a, out));
            out.extend(fo_safety(f, pointer));
        }
        CcBody::Fp(p) => {
            for rule in &p.rules {
                for lit in &rule.body {
                    if let Literal::Edb(a) = lit {
                        check(a, out);
                    }
                }
            }
            out.extend(fp_sanity(p, pointer));
        }
    }
}

/// Well-formedness of one upper-bound containment constraint.
pub fn cc_lints(
    cc: &ContainmentConstraint,
    schema: &Schema,
    master_schema: &Schema,
    index: usize,
) -> Vec<Diagnostic> {
    let pointer = Pointer::Constraint(index);
    let mut out = Vec::new();
    body_lints(&cc.body, schema, pointer, &mut out);
    match &cc.rhs {
        CcRhs::Empty => {
            if matches!(cc.body, CcBody::Proj(_)) {
                out.push(Diagnostic::new(
                    Code::CcForcesEmpty,
                    pointer,
                    "`π(R) ⊆ ∅` forces R to be empty in every partially closed database",
                ));
            }
        }
        CcRhs::Master(p) => {
            if check_projection(p, master_schema, "right-hand side", pointer, &mut out).is_some()
                && body_arity(&cc.body) != p.cols.len()
            {
                out.push(Diagnostic::new(
                    Code::CcArityMismatch,
                    pointer,
                    format!(
                        "body produces arity {} but the right-hand side projection has {} columns",
                        body_arity(&cc.body),
                        p.cols.len()
                    ),
                ));
            }
        }
    }
    out
}

/// Well-formedness of one lower-bound constraint `p(R_m) ⊆ q(R)`.
pub fn lower_bound_lints(
    lb: &LowerBound,
    schema: &Schema,
    master_schema: &Schema,
    index: usize,
) -> Vec<Diagnostic> {
    let pointer = Pointer::LowerBound(index);
    let mut out = Vec::new();
    body_lints(&lb.body, schema, pointer, &mut out);
    if check_projection(&lb.master, master_schema, "master", pointer, &mut out).is_some()
        && body_arity(&lb.body) != lb.master.cols.len()
    {
        out.push(Diagnostic::new(
            Code::CcArityMismatch,
            pointer,
            format!(
                "body produces arity {} but the master projection has {} columns",
                body_arity(&lb.body),
                lb.master.cols.len()
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_data::{RelId, RelationSchema};
    use ric_query::{parse_cq, parse_program};

    fn schema() -> Schema {
        Schema::from_relations(vec![
            RelationSchema::infinite("R", &["a", "b"]),
            RelationSchema::infinite("S", &["a"]),
        ])
        .unwrap()
    }

    fn has(diags: &[Diagnostic], code: Code) -> bool {
        diags.iter().any(|d| d.code == code)
    }

    #[test]
    fn unsafe_fo_variable_is_an_error() {
        let s = schema();
        let r = s.rel_id("R").unwrap();
        let (x, y) = (Var(0), Var(1));
        // y is neither free nor quantified.
        let q = FoQuery::new(
            vec![x],
            FoExpr::Atom(Atom::new(r, vec![Term::Var(x), Term::Var(y)])),
            vec!["x".into(), "y".into()],
        );
        let diags = fo_safety(&q, Pointer::Query);
        assert!(has(&diags, Code::FoUnsafeVariable));
        assert_eq!(diags[0].severity, crate::Severity::Error);
    }

    #[test]
    fn deep_fo_formula_is_an_error() {
        let s = schema();
        let r = s.rel_id("R").unwrap();
        let x = Var(0);
        let mut body = FoExpr::Atom(Atom::new(r, vec![Term::Var(x), Term::Var(x)]));
        for _ in 0..(MAX_FO_DEPTH + 10) {
            body = FoExpr::not(body);
        }
        let q = FoQuery::new(vec![x], body, vec!["x".into()]);
        assert!(has(&fo_safety(&q, Pointer::Query), Code::FoTooDeep));
    }

    #[test]
    fn quantified_fo_is_safe() {
        let s = schema();
        let r = s.rel_id("R").unwrap();
        let (x, y) = (Var(0), Var(1));
        let q = FoQuery::new(
            vec![x],
            FoExpr::Exists(
                vec![y],
                Box::new(FoExpr::Atom(Atom::new(r, vec![Term::Var(x), Term::Var(y)]))),
            ),
            vec!["x".into(), "y".into()],
        );
        assert!(fo_safety(&q, Pointer::Query).is_empty());
    }

    #[test]
    fn unreachable_fp_rule_warns() {
        let s = schema();
        let p = parse_program(&s, "Out(X) :- R(X, Y). Dead(X) :- S(X).", "Out").unwrap();
        let diags = fp_sanity(&p, Pointer::Query);
        assert!(has(&diags, Code::FpUnreachableRule));
        assert!(has(&diags, Code::FpTriviallyStratified));
    }

    #[test]
    fn invalid_fp_program_is_an_error() {
        // Hand-built: head variable not range-restricted.
        let p = Program {
            pred_names: vec!["Out".into()],
            arities: vec![1],
            rules: vec![ric_query::Rule {
                head: ric_query::datalog::PredId(0),
                head_args: vec![Term::Var(Var(0))],
                body: vec![],
                n_vars: 1,
            }],
            output: ric_query::datalog::PredId(0),
        };
        let diags = fp_sanity(&p, Pointer::Query);
        assert!(has(&diags, Code::FpInvalid));
        assert_eq!(diags[0].severity, crate::Severity::Error);
    }

    #[test]
    fn contradictory_equalities_warn() {
        let s = schema();
        let q = parse_cq(&s, "Q(X) :- R(X, Y), X = 1, X = 2.").unwrap();
        let diags = cq_lints(&q, Pointer::Query);
        assert!(has(&diags, Code::CqContradictoryEq));
        assert!(cq_statically_unsat(&q));
    }

    #[test]
    fn unsat_and_tautological_neqs() {
        let s = schema();
        let q = parse_cq(&s, "Q(X) :- R(X, Y), X != X.").unwrap();
        assert!(has(&cq_lints(&q, Pointer::Query), Code::CqUnsatisfiableNeq));
        assert!(cq_statically_unsat(&q));
        let q2 = parse_cq(&s, "Q(X) :- R(X, Y), 1 != 2.").unwrap();
        assert!(has(&cq_lints(&q2, Pointer::Query), Code::CqTautologicalNeq));
        assert!(!cq_statically_unsat(&q2));
        // Unsat through an equality chain: X = Y, X != Y.
        let q3 = parse_cq(&s, "Q(X) :- R(X, Y), X = Y, X != Y.").unwrap();
        assert!(has(
            &cq_lints(&q3, Pointer::Query),
            Code::CqUnsatisfiableNeq
        ));
        assert!(cq_statically_unsat(&q3));
    }

    #[test]
    fn duplicate_atoms_are_info() {
        let s = schema();
        let q = parse_cq(&s, "Q(X) :- R(X, Y), R(X, Y).").unwrap();
        let diags = cq_lints(&q, Pointer::Query);
        assert!(has(&diags, Code::CqDuplicateAtom));
        assert_eq!(
            diags
                .iter()
                .find(|d| d.code == Code::CqDuplicateAtom)
                .map(|d| d.severity),
            Some(crate::Severity::Info)
        );
    }

    #[test]
    fn cc_arity_mismatch_is_an_error() {
        let s = schema();
        let m = Schema::from_relations(vec![RelationSchema::infinite("M", &["a"])]).unwrap();
        let r = s.rel_id("R").unwrap();
        let mrel = m.rel_id("M").unwrap();
        // Body projects two columns, RHS has one.
        let cc = ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(r, vec![0, 1])),
            mrel,
            vec![0],
        );
        let diags = cc_lints(&cc, &s, &m, 0);
        assert!(has(&diags, Code::CcArityMismatch));
    }

    #[test]
    fn cc_bad_projection_and_unknown_relation_are_errors() {
        let s = schema();
        let m = Schema::from_relations(vec![RelationSchema::infinite("M", &["a"])]).unwrap();
        let r = s.rel_id("R").unwrap();
        let mrel = m.rel_id("M").unwrap();
        // Column 7 does not exist on R (arity 2).
        let cc = ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(r, vec![7])),
            mrel,
            vec![0],
        );
        assert!(has(&cc_lints(&cc, &s, &m, 0), Code::CcBadProjection));
        // Relation #9 does not exist in the master schema.
        let cc2 = ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(r, vec![0])),
            RelId(9),
            vec![0],
        );
        assert!(has(&cc_lints(&cc2, &s, &m, 0), Code::CcUnknownRelation));
    }

    #[test]
    fn trivially_satisfied_and_forces_empty_warn() {
        let s = schema();
        let m = Schema::from_relations(vec![RelationSchema::infinite("M", &["a"])]).unwrap();
        let r = s.rel_id("R").unwrap();
        let mrel = m.rel_id("M").unwrap();
        let q = parse_cq(&s, "Q(X) :- R(X, Y), X = 1, X = 2.").unwrap();
        let cc = ContainmentConstraint::into_master(CcBody::Cq(q), mrel, vec![0]);
        assert!(has(&cc_lints(&cc, &s, &m, 0), Code::CcTriviallySatisfied));
        let cc2 = ContainmentConstraint::into_empty(CcBody::Proj(Projection::new(r, vec![0])));
        assert!(has(&cc_lints(&cc2, &s, &m, 0), Code::CcForcesEmpty));
    }

    #[test]
    fn query_atom_schema_conformance() {
        let s = schema();
        let r = s.rel_id("R").unwrap();
        // Arity mismatch: R used with one argument.
        let bad = Cq {
            n_vars: 1,
            head: vec![Term::Var(Var(0))],
            atoms: vec![Atom::new(r, vec![Term::Var(Var(0))])],
            eqs: vec![],
            neqs: vec![],
            var_names: vec!["x".into()],
        };
        let diags = query_lints(&s, &Query::Cq(bad));
        assert!(has(&diags, Code::QueryArityMismatch));
        // Unknown relation id.
        let unknown = Cq {
            n_vars: 1,
            head: vec![Term::Var(Var(0))],
            atoms: vec![Atom::new(RelId(9), vec![Term::Var(Var(0))])],
            eqs: vec![],
            neqs: vec![],
            var_names: vec!["x".into()],
        };
        let diags = query_lints(&s, &Query::Cq(unknown));
        assert!(has(&diags, Code::QueryUnknownRelation));
    }

    #[test]
    fn lower_bound_arity_mismatch() {
        let s = schema();
        let m = Schema::from_relations(vec![RelationSchema::infinite("M", &["a", "b"])]).unwrap();
        let mrel = m.rel_id("M").unwrap();
        let q = parse_cq(&s, "Q(X) :- S(X).").unwrap();
        let lb = LowerBound {
            master: Projection::new(mrel, vec![0, 1]),
            body: CcBody::Cq(q),
        };
        assert!(has(
            &lower_bound_lints(&lb, &s, &m, 0),
            Code::CcArityMismatch
        ));
    }
}
