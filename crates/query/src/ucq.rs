//! Unions of conjunctive queries (Section 2.1(b)).

use crate::cq::Cq;
use crate::tableau::{Tableau, TableauError};
use ric_data::Value;
use std::collections::BTreeSet;

/// A UCQ `Q_1 ∪ … ∪ Q_k`. All disjuncts must share the same head arity.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct Ucq {
    /// The component CQs.
    pub disjuncts: Vec<Cq>,
}

impl Ucq {
    /// Build a UCQ; panics if the disjuncts disagree on head arity (a
    /// construction bug, not a data condition).
    pub fn new(disjuncts: Vec<Cq>) -> Self {
        if let Some(first) = disjuncts.first() {
            let arity = first.head_arity();
            assert!(
                disjuncts.iter().all(|d| d.head_arity() == arity),
                "UCQ disjuncts must share head arity"
            );
        }
        Ucq { disjuncts }
    }

    /// A single-disjunct UCQ.
    pub fn single(cq: Cq) -> Self {
        Ucq {
            disjuncts: vec![cq],
        }
    }

    /// Output arity (0 for the empty union).
    pub fn head_arity(&self) -> usize {
        self.disjuncts.first().map(Cq::head_arity).unwrap_or(0)
    }

    /// Tableaux of all *satisfiable* disjuncts (unsatisfiable ones contribute
    /// nothing to any answer and are skipped); unsafe disjuncts error.
    pub fn tableaux(&self) -> Result<Vec<Tableau>, TableauError> {
        let mut out = Vec::with_capacity(self.disjuncts.len());
        for d in &self.disjuncts {
            match Tableau::of(d) {
                Ok(t) => out.push(t),
                Err(TableauError::Unsatisfiable) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// All constants across disjuncts.
    pub fn constants(&self) -> BTreeSet<Value> {
        self.disjuncts.iter().flat_map(|d| d.constants()).collect()
    }
}

impl From<Cq> for Ucq {
    fn from(cq: Cq) -> Self {
        Ucq::single(cq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;
    use ric_data::{RelationSchema, Schema};

    #[test]
    fn tableaux_skip_unsatisfiable_disjuncts() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a"])]).unwrap();
        let r = s.rel_id("R").unwrap();
        let mut b1 = Cq::builder();
        let x1 = b1.var("x");
        let sat = b1.atom(r, vec![Term::Var(x1)]).head_vars(vec![x1]).build();
        let mut b2 = Cq::builder();
        let x2 = b2.var("x");
        let unsat = b2
            .atom(r, vec![Term::Var(x2)])
            .neq(Term::Var(x2), Term::Var(x2))
            .head_vars(vec![x2])
            .build();
        let u = Ucq::new(vec![sat, unsat]);
        assert_eq!(u.tableaux().unwrap().len(), 1);
        assert_eq!(u.head_arity(), 1);
    }

    #[test]
    #[should_panic(expected = "head arity")]
    fn mismatched_arities_panic() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a"])]).unwrap();
        let r = s.rel_id("R").unwrap();
        let mut b1 = Cq::builder();
        let x1 = b1.var("x");
        let q1 = b1.atom(r, vec![Term::Var(x1)]).head_vars(vec![x1]).build();
        let mut b2 = Cq::builder();
        let x2 = b2.var("x");
        let q2 = b2.atom(r, vec![Term::Var(x2)]).head_vars(vec![]).build();
        let _ = Ucq::new(vec![q1, q2]);
    }
}
