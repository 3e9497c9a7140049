//! Positive existential first-order queries, ∃FO⁺ (Section 2.1(c)).
//!
//! Built from atomic formulas by closing under `∧`, `∨`, and `∃`. Every
//! ∃FO⁺ query is equivalent to a (possibly exponentially larger) UCQ; the
//! deciders use [`EfoQuery::to_ucq`] and the paper's observation that the
//! blow-up only affects the *number* of disjuncts, not the complexity class
//! (Theorem 3.6(4), Theorem 4.5(2c)).

use crate::cq::{Atom, Cq};
use crate::term::Term;
use crate::ucq::Ucq;
use ric_data::{Tuple, Value};
use std::collections::BTreeSet;

/// Body of an ∃FO⁺ query. Existential quantification is implicit: every
/// variable not in the head is existentially quantified.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum EfoExpr {
    /// A relation atom.
    Atom(Atom),
    /// Equality `t = t′`.
    Eq(Term, Term),
    /// Inequality `t ≠ t′`.
    Neq(Term, Term),
    /// Conjunction.
    And(Vec<EfoExpr>),
    /// Disjunction.
    Or(Vec<EfoExpr>),
}

impl EfoExpr {
    /// Conjunction helper.
    pub fn and(parts: Vec<EfoExpr>) -> EfoExpr {
        EfoExpr::And(parts)
    }

    /// Disjunction helper.
    pub fn or(parts: Vec<EfoExpr>) -> EfoExpr {
        EfoExpr::Or(parts)
    }

    /// Number of DNF clauses this expression expands to.
    pub fn dnf_size(&self) -> usize {
        match self {
            EfoExpr::Atom(_) | EfoExpr::Eq(..) | EfoExpr::Neq(..) => 1,
            EfoExpr::And(parts) => parts.iter().map(EfoExpr::dnf_size).product(),
            EfoExpr::Or(parts) => parts.iter().map(EfoExpr::dnf_size).sum(),
        }
    }
}

/// One literal of a DNF clause.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Leaf {
    Atom(Atom),
    Eq(Term, Term),
    Neq(Term, Term),
}

/// An ∃FO⁺ query with an output summary.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct EfoQuery {
    /// Number of variables.
    pub n_vars: u32,
    /// Output summary.
    pub head: Vec<Term>,
    /// The body formula.
    pub body: EfoExpr,
    /// Display names, indexed by variable.
    pub var_names: Vec<String>,
}

impl EfoQuery {
    /// Build a query, computing `n_vars` from the formula.
    pub fn new(head: Vec<Term>, body: EfoExpr, var_names: Vec<String>) -> Self {
        let mut max = var_names.len() as u32;
        fn scan(e: &EfoExpr, max: &mut u32) {
            let bump = |t: &Term, max: &mut u32| {
                if let Term::Var(v) = t {
                    *max = (*max).max(v.0 + 1);
                }
            };
            match e {
                EfoExpr::Atom(a) => a.args.iter().for_each(|t| bump(t, max)),
                EfoExpr::Eq(l, r) | EfoExpr::Neq(l, r) => {
                    bump(l, max);
                    bump(r, max);
                }
                EfoExpr::And(ps) | EfoExpr::Or(ps) => ps.iter().for_each(|p| scan(p, max)),
            }
        }
        scan(&body, &mut max);
        for t in &head {
            if let Term::Var(v) = t {
                max = max.max(v.0 + 1);
            }
        }
        EfoQuery {
            n_vars: max,
            head,
            body,
            var_names,
        }
    }

    /// Expand to the equivalent UCQ (DNF). Exponential in the worst case —
    /// callers that only need one disjunct at a time should iterate the
    /// result's `disjuncts` lazily by index.
    pub fn to_ucq(&self) -> Ucq {
        let clauses = dnf(&self.body);
        let disjuncts = clauses
            .into_iter()
            .map(|leaves| {
                let mut atoms = Vec::new();
                let mut eqs = Vec::new();
                let mut neqs = Vec::new();
                for leaf in leaves {
                    match leaf {
                        Leaf::Atom(a) => atoms.push(a),
                        Leaf::Eq(l, r) => eqs.push((l, r)),
                        Leaf::Neq(l, r) => neqs.push((l, r)),
                    }
                }
                Cq {
                    n_vars: self.n_vars,
                    head: self.head.clone(),
                    atoms,
                    eqs,
                    neqs,
                    var_names: self.var_names.clone(),
                }
            })
            .collect();
        Ucq::new(disjuncts)
    }

    /// Evaluate via the UCQ expansion.
    pub fn eval<S: ric_data::TupleStore>(
        &self,
        db: &S,
    ) -> Result<BTreeSet<Tuple>, crate::tableau::TableauError> {
        crate::eval::eval_ucq(&self.to_ucq(), db)
    }

    /// All constants in the query.
    pub fn constants(&self) -> BTreeSet<Value> {
        let mut out = BTreeSet::new();
        fn scan(e: &EfoExpr, out: &mut BTreeSet<Value>) {
            let push = |t: &Term, out: &mut BTreeSet<Value>| {
                if let Term::Const(c) = t {
                    out.insert(c.clone());
                }
            };
            match e {
                EfoExpr::Atom(a) => a.args.iter().for_each(|t| push(t, out)),
                EfoExpr::Eq(l, r) | EfoExpr::Neq(l, r) => {
                    push(l, out);
                    push(r, out);
                }
                EfoExpr::And(ps) | EfoExpr::Or(ps) => ps.iter().for_each(|p| scan(p, out)),
            }
        }
        scan(&self.body, &mut out);
        for t in &self.head {
            if let Term::Const(c) = t {
                out.insert(c.clone());
            }
        }
        out
    }
}

fn dnf(e: &EfoExpr) -> Vec<Vec<Leaf>> {
    match e {
        EfoExpr::Atom(a) => vec![vec![Leaf::Atom(a.clone())]],
        EfoExpr::Eq(l, r) => vec![vec![Leaf::Eq(l.clone(), r.clone())]],
        EfoExpr::Neq(l, r) => vec![vec![Leaf::Neq(l.clone(), r.clone())]],
        EfoExpr::Or(parts) => parts.iter().flat_map(dnf).collect(),
        EfoExpr::And(parts) => {
            let mut acc: Vec<Vec<Leaf>> = vec![vec![]];
            for p in parts {
                let clauses = dnf(p);
                let mut next = Vec::with_capacity(acc.len() * clauses.len());
                for a in &acc {
                    for c in &clauses {
                        let mut merged = a.clone();
                        merged.extend(c.iter().cloned());
                        next.push(merged);
                    }
                }
                acc = next;
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Var;
    use ric_data::{Database, RelationSchema, Schema};

    fn setup() -> (Schema, Database) {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let r = s.rel_id("R").unwrap();
        let mut db = Database::empty(&s);
        for (a, b) in [(1, 2), (2, 3), (5, 5)] {
            db.insert(r, Tuple::new([Value::int(a), Value::int(b)]));
        }
        (s, db)
    }

    #[test]
    fn dnf_size_counts_clauses() {
        let a = EfoExpr::Eq(Term::from(1), Term::from(1));
        let two = EfoExpr::or(vec![a.clone(), a.clone()]);
        let q = EfoExpr::and(vec![two.clone(), two.clone(), a.clone()]);
        assert_eq!(q.dnf_size(), 4);
    }

    #[test]
    fn disjunction_of_selections() {
        let (s, db) = setup();
        let r = s.rel_id("R").unwrap();
        let x = Var(0);
        let y = Var(1);
        // Q(x,y) := R(x,y) ∧ (x = 1 ∨ x = 5)
        let body = EfoExpr::and(vec![
            EfoExpr::Atom(Atom::new(r, vec![Term::Var(x), Term::Var(y)])),
            EfoExpr::or(vec![
                EfoExpr::Eq(Term::Var(x), Term::from(1)),
                EfoExpr::Eq(Term::Var(x), Term::from(5)),
            ]),
        ]);
        let q = EfoQuery::new(
            vec![Term::Var(x), Term::Var(y)],
            body,
            vec!["x".into(), "y".into()],
        );
        assert_eq!(q.to_ucq().disjuncts.len(), 2);
        let res = q.eval(&db).unwrap();
        assert_eq!(res.len(), 2);
        assert!(res.contains(&Tuple::new([Value::int(5), Value::int(5)])));
    }

    #[test]
    fn nested_and_or_distributes() {
        let (s, db) = setup();
        let r = s.rel_id("R").unwrap();
        let x = Var(0);
        // Q(x) := ∃y (R(x,y) ∨ R(y,x)) ∧ (x ≠ 5)
        let y = Var(1);
        let body = EfoExpr::and(vec![
            EfoExpr::or(vec![
                EfoExpr::Atom(Atom::new(r, vec![Term::Var(x), Term::Var(y)])),
                EfoExpr::Atom(Atom::new(r, vec![Term::Var(y), Term::Var(x)])),
            ]),
            EfoExpr::Neq(Term::Var(x), Term::from(5)),
        ]);
        let q = EfoQuery::new(vec![Term::Var(x)], body, vec!["x".into(), "y".into()]);
        let res = q.eval(&db).unwrap();
        // sources: 1,2 (not 5); targets: 2,3 (not 5)
        assert_eq!(
            res,
            [1, 2, 3]
                .into_iter()
                .map(|i| Tuple::new([Value::int(i)]))
                .collect()
        );
    }
}
