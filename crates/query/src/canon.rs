//! Canonical databases: freezing a tableau into a concrete instance.
//!
//! The classical containment machinery (Chandra–Merlin) turns a symbolic
//! question — does every match of `Q₁` yield a match of `Q₂`? — into one
//! concrete search: freeze the variables of `Q₁` into fresh distinct
//! constants and look for a homomorphism of `Q₂` into the resulting
//! *canonical database* that hits the frozen head
//! ([`crate::containment::find_hom`]). Any valuation `v` of the frozen
//! tableau into a real database `D` factors through the freezing: composing
//! the homomorphism with the specialization `σ: frozen → v` transports the
//! canonical match into `D`.
//!
//! Frozen values are allocated by [`FreshValues`], strictly above every
//! observed constant — in particular above every value of the fixed master
//! data — so a canonical answer containing no frozen value is a genuine
//! all-constant tuple that survives *any* specialization.

use crate::tableau::{Tableau, Valuation};
use ric_data::{Database, FreshValues, Tuple, Value};
use std::collections::BTreeSet;

/// A frozen tableau: the canonical database, the frozen head tuple, the
/// frozen images of its inequalities, and the set of fresh values standing
/// in for variables.
#[derive(Clone, Debug)]
pub struct CanonDb {
    /// The canonical instance `μ(T)` over the database schema.
    pub db: Database,
    /// The frozen output tuple `μ(u)`.
    pub frozen_head: Tuple,
    /// The frozen inequalities `μ(l) ≠ μ(r)` of the tableau: every real
    /// match of the frozen query keeps these pairs apart.
    pub neqs: Vec<(Value, Value)>,
    /// The fresh values standing in for the tableau's variables.
    frozen: BTreeSet<Value>,
}

impl CanonDb {
    /// Freeze `t` over a schema with `n_rels` relations. Every value in
    /// `observe` (setting constants, master-data domain, query constants) is
    /// registered first so fresh values cannot collide with it.
    pub fn freeze(t: &Tableau, n_rels: usize, observe: &BTreeSet<Value>) -> CanonDb {
        let mut fresh = FreshValues::new();
        fresh.observe_all(observe.iter());
        let own = t.constants();
        fresh.observe_all(own.iter());
        let values = fresh.fresh_n(t.n_vars as usize);
        let frozen: BTreeSet<Value> = values.iter().cloned().collect();
        let mu = Valuation(values);
        CanonDb {
            db: mu.instantiate(t, n_rels),
            frozen_head: mu.head_tuple(t),
            neqs: t
                .neqs
                .iter()
                .map(|(l, r)| (mu.term(l), mu.term(r)))
                .collect(),
            frozen,
        }
    }

    /// Is `v` one of the fresh values introduced by freezing?
    pub fn is_frozen(&self, v: &Value) -> bool {
        self.frozen.contains(v)
    }

    /// Does `t` consist purely of constants (no frozen value)? All-constant
    /// tuples are *specialization-robust*: `σ` fixes every constant, so the
    /// tuple survives unchanged into any real database.
    pub fn all_constant(&self, t: &Tuple) -> bool {
        t.iter().all(|v| !self.is_frozen(v))
    }

    /// Do `a ≠ b` hold under every specialization of the frozen query? True
    /// for two distinct constants and for a frozen inequality of the query
    /// itself (either orientation); false otherwise — a frozen value may be
    /// specialized onto anything the query does not keep it apart from.
    pub fn robustly_distinct(&self, a: &Value, b: &Value) -> bool {
        (a != b && !self.is_frozen(a) && !self.is_frozen(b))
            || self
                .neqs
                .iter()
                .any(|(l, r)| (l == a && r == b) || (l == b && r == a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cq, Term};
    use ric_data::RelId;

    fn r() -> RelId {
        RelId(0)
    }

    #[test]
    fn freezing_builds_the_canonical_instance() {
        let mut b = Cq::builder();
        let x = b.var("x");
        let y = b.var("y");
        let q = b
            .atom(r(), vec![Term::Var(x), Term::Var(y)])
            .head_vars(vec![x])
            .build();
        let t = Tableau::of(&q).unwrap();
        let canon = CanonDb::freeze(&t, 1, &BTreeSet::new());
        assert_eq!(canon.db.instance(r()).len(), 1);
        assert_eq!(canon.frozen_head.arity(), 1);
        assert!(canon.frozen_head.iter().all(|v| canon.is_frozen(v)));
    }

    #[test]
    fn observed_values_are_never_frozen() {
        let mut b = Cq::builder();
        let x = b.var("x");
        let q = b.atom(r(), vec![Term::Var(x)]).head_vars(vec![x]).build();
        let t = Tableau::of(&q).unwrap();
        let observe: BTreeSet<Value> = [Value::int(5_000_000)].into_iter().collect();
        let canon = CanonDb::freeze(&t, 1, &observe);
        assert!(!canon.is_frozen(&Value::int(5_000_000)));
        assert!(canon.frozen_head.iter().all(|v| canon.is_frozen(v)));
    }

    #[test]
    fn constant_tuples_are_robust() {
        let mut b = Cq::builder();
        let x = b.var("x");
        let y = b.var("y");
        let q = b
            .atom(r(), vec![Term::Var(x), Term::Const(Value::int(7))])
            .atom(r(), vec![Term::Var(y), Term::Var(x)])
            .neq(Term::Var(x), Term::Var(y))
            .head_vars(vec![x])
            .build();
        let t = Tableau::of(&q).unwrap();
        let canon = CanonDb::freeze(&t, 1, &BTreeSet::new());
        assert!(canon.all_constant(&Tuple::new([Value::int(7), Value::str("a")])));
        assert!(!canon.all_constant(&canon.frozen_head));
        // Distinct constants and the query's own `≠` stay apart; a frozen
        // value and a constant need not.
        let (fx, fy) = canon.neqs[0].clone();
        assert!(canon.robustly_distinct(&Value::int(7), &Value::int(8)));
        assert!(canon.robustly_distinct(&fy, &fx));
        assert!(!canon.robustly_distinct(&fx, &Value::int(7)));
    }
}
