//! Full first-order queries (Section 2.1(d)), evaluated under active-domain
//! semantics.
//!
//! FO appears in the paper only on the *undecidable* side of Tables I and II
//! (Theorems 3.1 and 4.1): as soon as `L_Q` or `L_C` is FO, both RCDP and
//! RCQP become undecidable. We still need an evaluator — the bounded
//! semi-decision procedures of `ric-complete` search for violating extensions
//! and must evaluate FO queries and FO containment constraints on candidates.
//!
//! Quantifiers range over the *active domain*: every constant of the database
//! plus every constant of the query. This is the standard domain-independent
//! reading and matches how the paper's reductions use FO.

use crate::cq::Atom;
use crate::tableau::TableauError;
use crate::term::{Term, Var};
use ric_data::{Tuple, TupleStore, Value};
use std::collections::BTreeSet;

/// Hard cap on formula nesting depth during evaluation: `sat` recurses once
/// per connective and once per quantified variable, so an adversarially deep
/// formula would otherwise overflow the stack instead of failing cleanly.
pub const MAX_FO_DEPTH: usize = 512;

/// An FO formula.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum FoExpr {
    /// A relation atom.
    Atom(Atom),
    /// Equality `t = t′` (negate for `≠`).
    Eq(Term, Term),
    /// Negation.
    Not(Box<FoExpr>),
    /// Conjunction.
    And(Vec<FoExpr>),
    /// Disjunction.
    Or(Vec<FoExpr>),
    /// Existential quantification.
    Exists(Vec<Var>, Box<FoExpr>),
    /// Universal quantification.
    Forall(Vec<Var>, Box<FoExpr>),
}

impl FoExpr {
    /// `¬e`.
    #[allow(clippy::should_implement_trait)] // constructor, not an operator impl
    pub fn not(e: FoExpr) -> FoExpr {
        FoExpr::Not(Box::new(e))
    }

    /// `l → r` as `¬l ∨ r`.
    pub fn implies(l: FoExpr, r: FoExpr) -> FoExpr {
        FoExpr::Or(vec![FoExpr::not(l), r])
    }

    /// `t ≠ t′`.
    pub fn neq(l: Term, r: Term) -> FoExpr {
        FoExpr::not(FoExpr::Eq(l, r))
    }

    /// All constants in the formula.
    pub fn constants(&self, out: &mut BTreeSet<Value>) {
        let push = |t: &Term, out: &mut BTreeSet<Value>| {
            if let Term::Const(c) = t {
                out.insert(c.clone());
            }
        };
        match self {
            FoExpr::Atom(a) => a.args.iter().for_each(|t| push(t, out)),
            FoExpr::Eq(l, r) => {
                push(l, out);
                push(r, out);
            }
            FoExpr::Not(e) => e.constants(out),
            FoExpr::And(ps) | FoExpr::Or(ps) => ps.iter().for_each(|p| p.constants(out)),
            FoExpr::Exists(_, e) | FoExpr::Forall(_, e) => e.constants(out),
        }
    }
}

/// An FO query `{ x̄ | φ(x̄) }` with free variables `head`.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct FoQuery {
    /// Number of variables (free and bound).
    pub n_vars: u32,
    /// The free (output) variables.
    pub head: Vec<Var>,
    /// The formula.
    pub body: FoExpr,
    /// Display names.
    pub var_names: Vec<String>,
}

impl FoQuery {
    /// Build a query, computing `n_vars` from the formula and head.
    pub fn new(head: Vec<Var>, body: FoExpr, var_names: Vec<String>) -> Self {
        fn scan(e: &FoExpr, max: &mut u32) {
            let bump = |t: &Term, max: &mut u32| {
                if let Term::Var(v) = t {
                    *max = (*max).max(v.0 + 1);
                }
            };
            match e {
                FoExpr::Atom(a) => a.args.iter().for_each(|t| bump(t, max)),
                FoExpr::Eq(l, r) => {
                    bump(l, max);
                    bump(r, max);
                }
                FoExpr::Not(x) => scan(x, max),
                FoExpr::And(ps) | FoExpr::Or(ps) => ps.iter().for_each(|p| scan(p, max)),
                FoExpr::Exists(vs, x) | FoExpr::Forall(vs, x) => {
                    for v in vs {
                        *max = (*max).max(v.0 + 1);
                    }
                    scan(x, max);
                }
            }
        }
        let mut max = var_names.len() as u32;
        for v in &head {
            max = max.max(v.0 + 1);
        }
        scan(&body, &mut max);
        FoQuery {
            n_vars: max,
            head,
            body,
            var_names,
        }
    }

    /// The active domain used for evaluation on `db`.
    pub fn active_domain<S: TupleStore>(&self, db: &S) -> Vec<Value> {
        let mut dom = BTreeSet::new();
        db.active_domain_into(&mut dom);
        self.body.constants(&mut dom);
        dom.into_iter().collect()
    }

    /// Evaluate under active-domain semantics.
    ///
    /// Panics when the formula is malformed (a free variable outside the
    /// head, or nesting beyond [`MAX_FO_DEPTH`]); use [`FoQuery::try_eval`]
    /// for a typed error instead.
    pub fn eval<S: TupleStore>(&self, db: &S) -> BTreeSet<Tuple> {
        self.try_eval(db).unwrap_or_else(|e| {
            panic!("FO evaluation failed ({e}); use try_eval for a typed error")
        })
    }

    /// Evaluate under active-domain semantics, with typed errors: a variable
    /// that is neither in the head nor quantified surfaces as
    /// [`TableauError::UnsafeVariable`], and nesting beyond [`MAX_FO_DEPTH`]
    /// as [`TableauError::TooDeep`] (instead of a stack overflow).
    pub fn try_eval<S: TupleStore>(&self, db: &S) -> Result<BTreeSet<Tuple>, TableauError> {
        let dom = self.active_domain(db);
        let mut out = BTreeSet::new();
        let mut binding: Vec<Option<Value>> = vec![None; self.n_vars as usize];
        self.enumerate_head(db, &dom, 0, &mut binding, &mut out)?;
        Ok(out)
    }

    /// Boolean evaluation (query with empty head). Panics like
    /// [`FoQuery::eval`] on malformed formulas.
    pub fn holds<S: TupleStore>(&self, db: &S) -> bool {
        !self.eval(db).is_empty()
    }

    fn enumerate_head<S: TupleStore>(
        &self,
        db: &S,
        dom: &[Value],
        i: usize,
        binding: &mut Vec<Option<Value>>,
        out: &mut BTreeSet<Tuple>,
    ) -> Result<(), TableauError> {
        if i == self.head.len() {
            if sat(&self.body, db, dom, binding, 0)? {
                let mut head = Vec::with_capacity(self.head.len());
                for v in &self.head {
                    head.push(
                        binding[v.idx()]
                            .clone()
                            .ok_or(TableauError::UnsafeVariable(*v))?,
                    );
                }
                out.insert(Tuple::new(head));
            }
            return Ok(());
        }
        let v = self.head[i];
        for val in dom {
            binding[v.idx()] = Some(val.clone());
            self.enumerate_head(db, dom, i + 1, binding, out)?;
        }
        binding[v.idx()] = None;
        Ok(())
    }
}

fn term_val(t: &Term, binding: &[Option<Value>]) -> Result<Value, TableauError> {
    match t {
        Term::Const(c) => Ok(c.clone()),
        Term::Var(v) => binding[v.idx()]
            .clone()
            .ok_or(TableauError::UnsafeVariable(*v)),
    }
}

fn sat<S: TupleStore>(
    e: &FoExpr,
    db: &S,
    dom: &[Value],
    binding: &mut Vec<Option<Value>>,
    depth: usize,
) -> Result<bool, TableauError> {
    if depth > MAX_FO_DEPTH {
        return Err(TableauError::TooDeep {
            limit: MAX_FO_DEPTH,
        });
    }
    Ok(match e {
        FoExpr::Atom(a) => {
            let mut args = Vec::with_capacity(a.args.len());
            for x in &a.args {
                args.push(term_val(x, binding)?);
            }
            db.contains(a.rel, &Tuple::new(args))
        }
        FoExpr::Eq(l, r) => term_val(l, binding)? == term_val(r, binding)?,
        FoExpr::Not(x) => !sat(x, db, dom, binding, depth + 1)?,
        FoExpr::And(ps) => {
            let mut all = true;
            for p in ps {
                if !sat(p, db, dom, binding, depth + 1)? {
                    all = false;
                    break;
                }
            }
            all
        }
        FoExpr::Or(ps) => {
            let mut any = false;
            for p in ps {
                if sat(p, db, dom, binding, depth + 1)? {
                    any = true;
                    break;
                }
            }
            any
        }
        FoExpr::Exists(vs, x) => quantify(vs, x, db, dom, binding, true, depth)?,
        FoExpr::Forall(vs, x) => !quantify(vs, x, db, dom, binding, false, depth)?,
    })
}

/// Enumerate assignments for `vs`; with `want = true` search for a satisfying
/// one (∃), with `want = false` search for a falsifying one (∀, caller
/// negates).
fn quantify<S: TupleStore>(
    vs: &[Var],
    body: &FoExpr,
    db: &S,
    dom: &[Value],
    binding: &mut Vec<Option<Value>>,
    want: bool,
    depth: usize,
) -> Result<bool, TableauError> {
    #[allow(clippy::too_many_arguments)]
    fn rec<S: TupleStore>(
        vs: &[Var],
        i: usize,
        body: &FoExpr,
        db: &S,
        dom: &[Value],
        binding: &mut Vec<Option<Value>>,
        want: bool,
        depth: usize,
    ) -> Result<bool, TableauError> {
        if depth + i > MAX_FO_DEPTH {
            return Err(TableauError::TooDeep {
                limit: MAX_FO_DEPTH,
            });
        }
        if i == vs.len() {
            return Ok(sat(body, db, dom, binding, depth + i + 1)? == want);
        }
        let v = vs[i];
        let saved = binding[v.idx()].take();
        for val in dom {
            binding[v.idx()] = Some(val.clone());
            match rec(vs, i + 1, body, db, dom, binding, want, depth) {
                Ok(true) => {
                    binding[v.idx()] = saved;
                    return Ok(true);
                }
                Ok(false) => {}
                Err(e) => {
                    binding[v.idx()] = saved;
                    return Err(e);
                }
            }
        }
        binding[v.idx()] = saved;
        Ok(false)
    }
    rec(vs, 0, body, db, dom, binding, want, depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_data::{Database, RelationSchema, Schema};

    fn setup() -> (Schema, Database) {
        let s = Schema::from_relations(vec![RelationSchema::infinite("E", &["a", "b"])]).unwrap();
        let e = s.rel_id("E").unwrap();
        let mut db = Database::empty(&s);
        for (a, b) in [(1, 2), (2, 3), (3, 1)] {
            db.insert(e, Tuple::new([Value::int(a), Value::int(b)]));
        }
        (s, db)
    }

    #[test]
    fn negation_finds_non_edges() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let (x, y) = (Var(0), Var(1));
        // Q(x,y) := ∃-free: ¬E(x,y) over active domain
        let q = FoQuery::new(
            vec![x, y],
            FoExpr::not(FoExpr::Atom(Atom::new(e, vec![Term::Var(x), Term::Var(y)]))),
            vec!["x".into(), "y".into()],
        );
        let res = q.eval(&db);
        assert_eq!(res.len(), 9 - 3);
    }

    #[test]
    fn forall_total_relation() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let (x, y) = (Var(0), Var(1));
        // φ := ∀x ∃y E(x, y) — every node has an out-edge (true on the cycle)
        let q = FoQuery::new(
            vec![],
            FoExpr::Forall(
                vec![x],
                Box::new(FoExpr::Exists(
                    vec![y],
                    Box::new(FoExpr::Atom(Atom::new(e, vec![Term::Var(x), Term::Var(y)]))),
                )),
            ),
            vec!["x".into(), "y".into()],
        );
        assert!(q.holds(&db));
        // Break the property: add an isolated endpoint 4 as a target only.
        let mut db2 = db.clone();
        db2.insert(e, Tuple::new([Value::int(3), Value::int(4)]));
        assert!(!q.holds(&db2));
    }

    #[test]
    fn implication_and_neq() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let (x, y) = (Var(0), Var(1));
        // φ := ∀x∀y (E(x,y) → x ≠ y) — irreflexivity
        let q = FoQuery::new(
            vec![],
            FoExpr::Forall(
                vec![x, y],
                Box::new(FoExpr::implies(
                    FoExpr::Atom(Atom::new(e, vec![Term::Var(x), Term::Var(y)])),
                    FoExpr::neq(Term::Var(x), Term::Var(y)),
                )),
            ),
            vec!["x".into(), "y".into()],
        );
        assert!(q.holds(&db));
        let mut db2 = db.clone();
        db2.insert(e, Tuple::new([Value::int(7), Value::int(7)]));
        assert!(!q.holds(&db2));
    }

    #[test]
    fn deeply_nested_formula_errors_instead_of_overflowing() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let x = Var(0);
        let mut body = FoExpr::Atom(Atom::new(e, vec![Term::Var(x), Term::Var(x)]));
        for _ in 0..(MAX_FO_DEPTH + 10) {
            body = FoExpr::Not(Box::new(FoExpr::Not(Box::new(body))));
        }
        let q = FoQuery::new(vec![x], body, vec!["x".into()]);
        assert_eq!(
            q.try_eval(&db),
            Err(TableauError::TooDeep {
                limit: MAX_FO_DEPTH
            })
        );
    }

    #[test]
    fn unbound_variable_errors_instead_of_panicking() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let (x, y) = (Var(0), Var(1));
        // y is neither in the head nor quantified: the formula is not closed.
        let q = FoQuery::new(
            vec![x],
            FoExpr::Atom(Atom::new(e, vec![Term::Var(x), Term::Var(y)])),
            vec!["x".into(), "y".into()],
        );
        assert_eq!(q.try_eval(&db), Err(TableauError::UnsafeVariable(y)));
    }

    #[test]
    fn try_eval_agrees_with_eval_on_well_formed_queries() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let (x, y) = (Var(0), Var(1));
        let q = FoQuery::new(
            vec![x, y],
            FoExpr::not(FoExpr::Atom(Atom::new(e, vec![Term::Var(x), Term::Var(y)]))),
            vec!["x".into(), "y".into()],
        );
        assert_eq!(q.try_eval(&db).unwrap(), q.eval(&db));
    }

    #[test]
    fn query_constants_extend_domain() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let x = Var(0);
        // Q(x) := x = 99 ∧ ¬E(x, x); 99 is not in the database.
        let q = FoQuery::new(
            vec![x],
            FoExpr::And(vec![
                FoExpr::Eq(Term::Var(x), Term::from(99)),
                FoExpr::not(FoExpr::Atom(Atom::new(e, vec![Term::Var(x), Term::Var(x)]))),
            ]),
            vec!["x".into()],
        );
        let res = q.eval(&db);
        assert_eq!(res.len(), 1);
        assert!(res.contains(&Tuple::new([Value::int(99)])));
    }
}
