//! CQ and UCQ containment by checked homomorphisms (Chandra & Merlin 1977;
//! Sagiv & Yannakakis 1980).
//!
//! `Q₁ ⊆ Q₂` holds when `Q₂`'s tableau maps homomorphically into `Q₁`'s
//! canonical instance ([`CanonDb`]) with its head onto the frozen head. The
//! homomorphism is a *proof object*: [`find_hom`] searches for one, and
//! [`check_hom`] re-verifies a claimed one atom by atom without search, so a
//! caller that commits a conclusion can check the proof independently of
//! the finder that produced it. The static analyzer and the symbolic
//! reasoner justify every containment they rely on this way.
//!
//! The test is exact for inequality-free CQs, and a UCQ is contained in
//! another exactly when each of its disjuncts is contained in some disjunct
//! of the other. With `≠` a homomorphism only counts when each `≠` of `Q₂`
//! maps onto two distinct constants or onto a `≠` of `Q₁` — sound, but no
//! longer complete. [`contained_in`] keeps the classical contract and
//! refuses `≠` outright.

use crate::canon::CanonDb;
use crate::cq::Cq;
use crate::eval::for_each_match;
use crate::tableau::{Tableau, TableauError, Valuation};
use crate::ucq::Ucq;
use ric_data::{Tuple, TupleStore, Value};
use std::collections::BTreeSet;

/// Why containment could not be decided.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ContainmentError {
    /// One of the queries has inequalities; the classical homomorphism test
    /// does not apply.
    HasInequalities,
    /// Head arities differ, so containment is trivially false — reported as
    /// an error because it is almost always a construction mistake.
    ArityMismatch,
    /// A query is unsafe.
    Tableau(TableauError),
}

impl From<TableauError> for ContainmentError {
    fn from(e: TableauError) -> Self {
        ContainmentError::Tableau(e)
    }
}

/// Search for a homomorphism `h` of `t` into the canonical instance `canon`
/// whose head image `h(u)` passes `accept` and whose every `≠` lands on a
/// pair `canon` keeps apart under every specialization. The result is a
/// proof object for [`check_hom`].
pub fn find_hom(
    t: &Tableau,
    canon: &CanonDb,
    mut accept: impl FnMut(&Tuple) -> bool,
) -> Option<Valuation> {
    let mut found = None;
    for_each_match(t, &canon.db, |binding| {
        let h = Valuation(
            binding
                .iter()
                .map(|v| {
                    v.clone()
                        .unwrap_or_else(|| unreachable!("a complete match binds every variable"))
                })
                .collect(),
        );
        let robust = t
            .neqs
            .iter()
            .all(|(l, r)| canon.robustly_distinct(&h.term(l), &h.term(r)));
        if robust && accept(&h.head_tuple(t)) {
            found = Some(h);
            return false;
        }
        true
    });
    found
}

/// Check a claimed homomorphism of `t` into `canon` atom by atom, without
/// search: `h` assigns every variable of `t`, maps every atom onto a tuple of
/// the canonical instance, and maps every `≠` onto a pair that stays apart
/// under every specialization. Returns the head image `h(u)`.
pub fn check_hom(t: &Tableau, h: &Valuation, canon: &CanonDb) -> Result<Tuple, String> {
    if h.0.len() != t.n_vars as usize {
        return Err(format!(
            "the homomorphism assigns {} values to {} variables",
            h.0.len(),
            t.n_vars
        ));
    }
    for (i, a) in t.atoms.iter().enumerate() {
        if !canon
            .db
            .contains(a.rel, &Tuple::new(a.args.iter().map(|x| h.term(x))))
        {
            return Err(format!("atom {i} maps outside the canonical instance"));
        }
    }
    if let Some(k) = t
        .neqs
        .iter()
        .position(|(l, r)| !canon.robustly_distinct(&h.term(l), &h.term(r)))
    {
        return Err(format!("inequality {k} is not preserved"));
    }
    Ok(h.head_tuple(t))
}

/// Is `q1 ⊆ q2` — does `q1(D) ⊆ q2(D)` hold on every database over `n_rels`
/// relations? Exact for inequality-free CQs; `≠` is refused.
pub fn contained_in(q1: &Cq, q2: &Cq, n_rels: usize) -> Result<bool, ContainmentError> {
    if q1.head_arity() != q2.head_arity() {
        return Err(ContainmentError::ArityMismatch);
    }
    if !q1.neqs.is_empty() || !q2.neqs.is_empty() {
        return Err(ContainmentError::HasInequalities);
    }
    for q in [q1, q2] {
        match Tableau::of(q) {
            Ok(_) | Err(TableauError::Unsatisfiable) => {}
            Err(e) => return Err(e.into()),
        }
    }
    let (a, b) = (Ucq::single(q1.clone()), Ucq::single(q2.clone()));
    Ok(prove_contained(&a, &b, n_rels).is_ok())
}

/// Are `q1` and `q2` equivalent (mutual containment)?
pub fn equivalent(q1: &Cq, q2: &Cq, n_rels: usize) -> Result<bool, ContainmentError> {
    Ok(contained_in(q1, q2, n_rels)? && contained_in(q2, q1, n_rels)?)
}

/// Prove `a ⊆ b` for UCQs: every satisfiable disjunct of `a` needs a checked
/// homomorphism from some disjunct of `b` onto its frozen head. `≠` is
/// allowed on both sides (see the module docs); an unsafe disjunct on
/// either side fails the proof, since evaluating it fails too. `Err` says
/// which disjunct has no proof.
pub fn prove_contained(a: &Ucq, b: &Ucq, n_rels: usize) -> Result<(), String> {
    let observe: BTreeSet<Value> = b.constants();
    let mut targets = Vec::with_capacity(b.disjuncts.len());
    for (k, e) in b.disjuncts.iter().enumerate() {
        match Tableau::of(e) {
            Ok(t) => targets.push(t),
            Err(TableauError::Unsatisfiable) => {}
            Err(e) => return Err(format!("disjunct {k} of the container: {e}")),
        }
    }
    for (k, d) in a.disjuncts.iter().enumerate() {
        let t = match Tableau::of(d) {
            Ok(t) => t,
            Err(TableauError::Unsatisfiable) => continue,
            Err(e) => return Err(format!("disjunct {k}: {e}")),
        };
        let canon = CanonDb::freeze(&t, n_rels, &observe);
        let onto_head = |target: &Tableau| {
            find_hom(target, &canon, |head| *head == canon.frozen_head).is_some_and(|h| {
                check_hom(target, &h, &canon).is_ok_and(|head| head == canon.frozen_head)
            })
        };
        if !targets.iter().any(onto_head) {
            return Err(format!(
                "disjunct {k} has no homomorphism from any disjunct of the container"
            ));
        }
    }
    Ok(())
}

/// Prove `a ≡ b` for UCQs: [`prove_contained`] in both directions.
pub fn prove_equivalent(a: &Ucq, b: &Ucq, n_rels: usize) -> Result<(), String> {
    prove_contained(a, b, n_rels).map_err(|e| format!("⊆ direction: {e}"))?;
    prove_contained(b, a, n_rels).map_err(|e| format!("⊇ direction: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term as T;
    use ric_data::{RelationSchema, Schema};

    fn schema() -> Schema {
        Schema::from_relations(vec![RelationSchema::infinite("E", &["a", "b"])]).unwrap()
    }

    #[test]
    fn longer_path_contained_in_shorter() {
        let s = schema();
        let e = s.rel_id("E").unwrap();
        // q1(x,z) :- E(x,y), E(y,z)  (2-hop)
        let mut b1 = Cq::builder();
        let (x, y, z) = (b1.var("x"), b1.var("y"), b1.var("z"));
        let q1 = b1
            .atom(e, vec![T::Var(x), T::Var(y)])
            .atom(e, vec![T::Var(y), T::Var(z)])
            .head_vars(vec![x, z])
            .build();
        // q2(x,z) :- E(x,y1), E(y2,z)  (disconnected endpoints)
        let mut b2 = Cq::builder();
        let (x2, y1, y2, z2) = (b2.var("x"), b2.var("y1"), b2.var("y2"), b2.var("z"));
        let q2 = b2
            .atom(e, vec![T::Var(x2), T::Var(y1)])
            .atom(e, vec![T::Var(y2), T::Var(z2)])
            .head_vars(vec![x2, z2])
            .build();
        assert!(contained_in(&q1, &q2, s.len()).unwrap());
        assert!(!contained_in(&q2, &q1, s.len()).unwrap());
        assert!(!equivalent(&q1, &q2, s.len()).unwrap());
    }

    #[test]
    fn redundant_atom_is_equivalent() {
        let s = schema();
        let e = s.rel_id("E").unwrap();
        let mut b1 = Cq::builder();
        let (x, y) = (b1.var("x"), b1.var("y"));
        let q1 = b1
            .atom(e, vec![T::Var(x), T::Var(y)])
            .head_vars(vec![x, y])
            .build();
        // Same plus a duplicate atom with a redundant variable.
        let mut b2 = Cq::builder();
        let (x2, y2, w) = (b2.var("x"), b2.var("y"), b2.var("w"));
        let q2 = b2
            .atom(e, vec![T::Var(x2), T::Var(y2)])
            .atom(e, vec![T::Var(x2), T::Var(w)])
            .head_vars(vec![x2, y2])
            .build();
        assert!(equivalent(&q1, &q2, s.len()).unwrap());
    }

    #[test]
    fn inequalities_are_refused() {
        let s = schema();
        let e = s.rel_id("E").unwrap();
        let mut b = Cq::builder();
        let (x, y) = (b.var("x"), b.var("y"));
        let q = b
            .atom(e, vec![T::Var(x), T::Var(y)])
            .neq(T::Var(x), T::Var(y))
            .head_vars(vec![x, y])
            .build();
        assert_eq!(
            contained_in(&q, &q, s.len()),
            Err(ContainmentError::HasInequalities)
        );
    }

    #[test]
    fn found_homomorphism_checks_and_a_forged_one_does_not() {
        let s = schema();
        let e = s.rel_id("E").unwrap();
        // canon(q1) for q1(x, z) :- E(x, y), E(y, z); t2: E(a, b), E(b, c)
        // with head (a, c) maps onto it by a ↦ x, b ↦ y, c ↦ z.
        let mut b1 = Cq::builder();
        let (x, y, z) = (b1.var("x"), b1.var("y"), b1.var("z"));
        let q1 = b1
            .atom(e, vec![T::Var(x), T::Var(y)])
            .atom(e, vec![T::Var(y), T::Var(z)])
            .head_vars(vec![x, z])
            .build();
        let t = Tableau::of(&q1).unwrap();
        let canon = CanonDb::freeze(&t, s.len(), &BTreeSet::new());
        let hom = find_hom(&t, &canon, |h| *h == canon.frozen_head).unwrap();
        assert_eq!(check_hom(&t, &hom, &canon), Ok(canon.frozen_head.clone()));
        // Swap the images of x and z: E(z, y) is not in canon(q1).
        let mut forged = hom.clone();
        forged.0.swap(0, 2);
        assert_eq!(
            check_hom(&t, &forged, &canon),
            Err("atom 0 maps outside the canonical instance".into())
        );
        assert!(check_hom(&t, &Valuation(hom.0[..2].to_vec()), &canon).is_err());
    }

    #[test]
    fn inequalities_count_only_when_preserved() {
        let s = schema();
        let e = s.rel_id("E").unwrap();
        let build = |neq: bool| {
            let mut b = Cq::builder();
            let (x, y) = (b.var("x"), b.var("y"));
            let mut b = b.atom(e, vec![T::Var(x), T::Var(y)]).head_vars(vec![x, y]);
            if neq {
                b = b.neq(T::Var(x), T::Var(y));
            }
            Ucq::single(b.build())
        };
        let (with, without) = (build(true), build(false));
        // A query with ≠ is equivalent to itself: the identity preserves it.
        assert_eq!(prove_equivalent(&with, &with, s.len()), Ok(()));
        assert_eq!(prove_contained(&with, &without, s.len()), Ok(()));
        // E(x, y) ⊄ E(x, y) ∧ x ≠ y: the frozen x, y need not stay apart.
        assert!(prove_contained(&without, &with, s.len()).is_err());
    }

    #[test]
    fn constants_must_match() {
        let s = schema();
        let e = s.rel_id("E").unwrap();
        let mut b1 = Cq::builder();
        let y = b1.var("y");
        let q1 = b1
            .atom(e, vec![T::from(1), T::Var(y)])
            .head_vars(vec![y])
            .build();
        let mut b2 = Cq::builder();
        let y2 = b2.var("y");
        let q2 = b2
            .atom(e, vec![T::from(2), T::Var(y2)])
            .head_vars(vec![y2])
            .build();
        assert!(!contained_in(&q1, &q2, s.len()).unwrap());
        let mut b3 = Cq::builder();
        let (x3, y3) = (b3.var("x"), b3.var("y"));
        let q3 = b3
            .atom(e, vec![T::Var(x3), T::Var(y3)])
            .head_vars(vec![y3])
            .build();
        assert!(contained_in(&q1, &q3, s.len()).unwrap());
    }
}
