//! Overlays: the extension `D ∪ Δ` — and, with a deletes side, the stream
//! view `(D ∖ Δ⁻) ∪ Δ⁺` — as a *view*, without copying `D`.
//!
//! The deciders' innermost loops ask, per candidate valuation, whether a
//! small delta `Δ` (the instantiated tableau atoms, at most a handful of
//! tuples) keeps the constraints satisfied. Materializing `D ∪ Δ` clones the
//! whole base per candidate; an [`Overlay`] borrows both sides and answers
//! membership, scans, and index probes against their union directly.
//!
//! A delta tuple already present in the base is *not novel*: it changes
//! nothing about the union. The novel tuples are what incremental constraint
//! checking (`ric-constraints`'s delta mode) evaluates against.
//!
//! [`Overlay::with_deletes`] adds a third side of *tombstones*: base tuples
//! listed there are treated as absent, so the effective view is
//! `(base ∖ deletes) ∪ delta`. A tuple that is both tombstoned and
//! re-inserted through the delta is present (the delta wins), and counts as
//! novel — its base copy is dead. Streams (the `ric-monitor` crate) use this
//! to evaluate against a post-transaction state without mutating the base.
//! The delta-mode constraint checker's precondition ("the constraints hold
//! on the base") then refers to the *effective* base `base ∖ deletes`.
//!
//! Tombstones interact with two caches deliberately:
//!
//! * the base [`Database::active_domain`] cache still contains constants
//!   that appear only in tombstoned tuples, so [`Overlay::active_domain_into`]
//!   bypasses it and rescans whenever a deletes side is present;
//! * the base per-column [`ColumnIndex`](crate::index::ColumnIndex) still
//!   lists tombstoned tuples, so the store's probe path re-checks every
//!   index hit against the tombstones (see `store.rs`).

use crate::database::{Database, Tuple};
use crate::error::DataError;
use crate::schema::RelId;
use crate::value::Value;
use std::collections::BTreeSet;

/// A borrowed view of `(base ∖ deletes) ∪ delta`.
#[derive(Clone, Copy, Debug)]
pub struct Overlay<'a> {
    base: &'a Database,
    delta: &'a Database,
    deletes: Option<&'a Database>,
}

impl<'a> Overlay<'a> {
    /// View `base ∪ delta`. Errors when the two sides disagree on the number
    /// of relations.
    pub fn new(base: &'a Database, delta: &'a Database) -> Result<Self, DataError> {
        if base.len() != delta.len() {
            return Err(DataError::SchemaMismatch);
        }
        Ok(Overlay {
            base,
            delta,
            deletes: None,
        })
    }

    /// View `(base ∖ deletes) ∪ delta`. Errors when any side disagrees on
    /// the number of relations. Tombstones not present in the base are
    /// harmless no-ops; a tuple in both `deletes` and `delta` is present
    /// (and novel — its base copy is dead).
    pub fn with_deletes(
        base: &'a Database,
        delta: &'a Database,
        deletes: &'a Database,
    ) -> Result<Self, DataError> {
        if base.len() != delta.len() || base.len() != deletes.len() {
            return Err(DataError::SchemaMismatch);
        }
        Ok(Overlay {
            base,
            delta,
            deletes: Some(deletes),
        })
    }

    /// The base database `D`.
    pub fn base(&self) -> &'a Database {
        self.base
    }

    /// The delta database `Δ` (possibly overlapping the base).
    pub fn delta(&self) -> &'a Database {
        self.delta
    }

    /// The tombstoned tuples `Δ⁻`, when this overlay carries a deletes side.
    pub fn deletes(&self) -> Option<&'a Database> {
        self.deletes
    }

    /// Number of relations.
    pub fn rel_count(&self) -> usize {
        self.base.len()
    }

    /// Is `t` a *live* base tuple — present in the base and not tombstoned?
    pub fn in_live_base(&self, rel: RelId, t: &Tuple) -> bool {
        self.base.instance(rel).contains(t)
            && !self.deletes.is_some_and(|d| d.instance(rel).contains(t))
    }

    /// Effective-view membership.
    pub fn contains(&self, rel: RelId, t: &Tuple) -> bool {
        self.in_live_base(rel, t) || self.delta.instance(rel).contains(t)
    }

    /// Effective-view cardinality of one relation (novel delta tuples
    /// counted once, tombstoned base tuples not at all).
    pub fn rel_len(&self, rel: RelId) -> usize {
        let live_base = match self.deletes {
            None => self.base.instance(rel).len(),
            Some(_) => self
                .base
                .instance(rel)
                .iter()
                .filter(|t| self.in_live_base(rel, t))
                .count(),
        };
        live_base
            + self
                .delta
                .instance(rel)
                .iter()
                .filter(|t| !self.in_live_base(rel, t))
                .count()
    }

    /// Relations with at least one *novel* delta tuple (a tuple of `Δ` not
    /// already live in the base).
    pub fn novel_rels(&self) -> impl Iterator<Item = RelId> + '_ {
        self.delta
            .iter()
            .filter_map(|(rel, _)| self.has_novel(rel).then_some(rel))
    }

    /// Does `rel` hold a novel delta tuple?
    pub fn has_novel(&self, rel: RelId) -> bool {
        !self.for_each_novel(rel, &mut |_| false)
    }

    /// Visit the novel delta tuples of `rel`; stop early when `f` returns
    /// `false`. Returns `false` iff stopped early.
    pub fn for_each_novel(&self, rel: RelId, f: &mut dyn FnMut(&Tuple) -> bool) -> bool {
        for t in self.delta.instance(rel).iter() {
            if !self.in_live_base(rel, t) && !f(t) {
                return false;
            }
        }
        true
    }

    /// Collect the effective view's active domain into `out`.
    ///
    /// With a deletes side the base's cached
    /// [`active_domain`](Database::active_domain) cannot be trusted — it
    /// still holds constants that survive only in tombstoned tuples — so the
    /// live base tuples are rescanned instead.
    pub fn active_domain_into(&self, out: &mut BTreeSet<Value>) {
        match self.deletes {
            None => out.extend(self.base.active_domain().iter().cloned()),
            Some(_) => {
                for (rel, inst) in self.base.iter() {
                    for t in inst.iter() {
                        if self.in_live_base(rel, t) {
                            out.extend(t.iter().cloned());
                        }
                    }
                }
            }
        }
        for (_, inst) in self.delta.iter() {
            for t in inst.iter() {
                for v in t.iter() {
                    out.insert(v.clone());
                }
            }
        }
    }

    /// Materialize the effective view as an owned database — the escape
    /// hatch for code paths without an overlay-aware evaluator (FO/FP
    /// constraint bodies).
    pub fn materialize(&self) -> Database {
        let live = match self.deletes {
            None => self.base.clone(),
            Some(del) => self.base.difference(del).unwrap_or_else(|e| {
                unreachable!("overlay sides agree on relation count by construction: {e:?}")
            }),
        };
        live.union(self.delta).unwrap_or_else(|e| {
            // All sides come from the same schema, so arities always agree.
            unreachable!("overlay sides agree on relation count by construction: {e:?}")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vs: &[i64]) -> Tuple {
        Tuple::new(vs.iter().map(|&v| Value::int(v)))
    }

    fn two_rel() -> (Database, Database) {
        let mut base = Database::with_relations(2);
        base.insert(RelId(0), t(&[1, 2]));
        base.insert(RelId(0), t(&[2, 3]));
        let mut delta = Database::with_relations(2);
        delta.insert(RelId(0), t(&[2, 3])); // already in base: not novel
        delta.insert(RelId(1), t(&[9]));
        (base, delta)
    }

    #[test]
    fn membership_and_lengths_cover_the_union() {
        let (base, delta) = two_rel();
        let ov = Overlay::new(&base, &delta).unwrap();
        assert!(ov.contains(RelId(0), &t(&[1, 2])));
        assert!(ov.contains(RelId(1), &t(&[9])));
        assert!(!ov.contains(RelId(0), &t(&[9, 9])));
        assert_eq!(ov.rel_len(RelId(0)), 2);
        assert_eq!(ov.rel_len(RelId(1)), 1);
        assert_eq!(ov.materialize(), base.union(&delta).unwrap());
    }

    #[test]
    fn novelty_ignores_delta_tuples_already_in_base() {
        let (base, delta) = two_rel();
        let ov = Overlay::new(&base, &delta).unwrap();
        let novel: Vec<RelId> = ov.novel_rels().collect();
        assert_eq!(novel, vec![RelId(1)]);
        let mut seen = Vec::new();
        ov.for_each_novel(RelId(0), &mut |t| {
            seen.push(t.clone());
            true
        });
        assert!(seen.is_empty(), "(2,3) is already in the base");
        ov.for_each_novel(RelId(1), &mut |t| {
            seen.push(t.clone());
            true
        });
        assert_eq!(seen, vec![t(&[9])]);
    }

    #[test]
    fn mismatched_relation_counts_rejected() {
        let base = Database::with_relations(1);
        let delta = Database::with_relations(2);
        assert!(Overlay::new(&base, &delta).is_err());
        let del1 = Database::with_relations(1);
        let del2 = Database::with_relations(2);
        let delta1 = Database::with_relations(1);
        assert!(Overlay::with_deletes(&base, &delta1, &del2).is_err());
        assert!(Overlay::with_deletes(&base, &delta1, &del1).is_ok());
    }

    #[test]
    fn active_domain_unions_both_sides() {
        let (base, delta) = two_rel();
        let ov = Overlay::new(&base, &delta).unwrap();
        let mut dom = BTreeSet::new();
        ov.active_domain_into(&mut dom);
        assert_eq!(
            dom,
            [1, 2, 3, 9]
                .into_iter()
                .map(Value::int)
                .collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn tombstones_remove_base_tuples_from_the_view() {
        let (base, delta) = two_rel();
        let mut deletes = Database::with_relations(2);
        deletes.insert(RelId(0), t(&[1, 2]));
        deletes.insert(RelId(0), t(&[7, 7])); // not in base: harmless
        let ov = Overlay::with_deletes(&base, &delta, &deletes).unwrap();
        assert!(!ov.contains(RelId(0), &t(&[1, 2])));
        assert!(ov.contains(RelId(0), &t(&[2, 3])));
        assert_eq!(ov.rel_len(RelId(0)), 1);
        let mut expected = Database::with_relations(2);
        expected.insert(RelId(0), t(&[2, 3]));
        expected.insert(RelId(1), t(&[9]));
        assert_eq!(ov.materialize(), expected);
    }

    #[test]
    fn deleted_then_reinserted_tuple_is_present_and_novel() {
        let mut base = Database::with_relations(1);
        base.insert(RelId(0), t(&[1]));
        let mut deletes = Database::with_relations(1);
        deletes.insert(RelId(0), t(&[1]));
        let mut delta = Database::with_relations(1);
        delta.insert(RelId(0), t(&[1]));
        let ov = Overlay::with_deletes(&base, &delta, &deletes).unwrap();
        assert!(ov.contains(RelId(0), &t(&[1])));
        assert_eq!(ov.rel_len(RelId(0)), 1);
        // The base copy is dead, so the delta copy is the live one — novel.
        let novel: Vec<RelId> = ov.novel_rels().collect();
        assert_eq!(novel, vec![RelId(0)]);
        let mut seen = Vec::new();
        ov.for_each_novel(RelId(0), &mut |t| {
            seen.push(t.clone());
            true
        });
        assert_eq!(seen, vec![t(&[1])]);
    }

    #[test]
    fn tombstoned_only_constants_leave_the_active_domain() {
        // Regression: the base's *cached* active domain still contains 5;
        // the overlay must rescan, not trust the cache.
        let mut base = Database::with_relations(1);
        base.insert(RelId(0), t(&[1, 2]));
        base.insert(RelId(0), t(&[5, 2]));
        let _warm = base.active_domain(); // populate the cache
        let mut deletes = Database::with_relations(1);
        deletes.insert(RelId(0), t(&[5, 2]));
        let delta = Database::with_relations(1);
        let ov = Overlay::with_deletes(&base, &delta, &deletes).unwrap();
        let mut dom = BTreeSet::new();
        ov.active_domain_into(&mut dom);
        assert_eq!(
            dom,
            [1, 2].into_iter().map(Value::int).collect::<BTreeSet<_>>(),
            "constant 5 survives only in a tombstoned tuple"
        );
    }
}
