//! [`TupleStore`] — the access-path abstraction the evaluators join through.
//!
//! A store is anything that can answer "scan relation `r`", "probe relation
//! `r` for tuples with value `v` in column `c`", and membership. Both a plain
//! [`Database`] and an [`Overlay`] (`D ∪ Δ` without copying `D`) implement
//! it, so one generic evaluator serves the deciders' base-database queries
//! *and* their per-candidate extension checks.
//!
//! Visitors return `bool` (`false` = stop) so Boolean queries can exit on the
//! first witness; the scan/probe methods mirror that, returning `false` iff
//! they stopped early. Probes go through each instance's lazily built
//! [`ColumnIndex`](crate::index::ColumnIndex) — or, for a small instance
//! with no index built, a scan in iteration order
//! ([`Instance::probe`](crate::Instance::probe)) — and are counted per
//! thread ([`crate::index::probe_count`]), one per instance probed.

use crate::database::{Database, Tuple};
use crate::overlay::Overlay;
use crate::schema::RelId;
use crate::stats::RelStats;
use crate::value::Value;
use std::collections::BTreeSet;

/// Read access to a set of relation instances, with index-probe support.
pub trait TupleStore {
    /// Number of relations.
    fn rel_count(&self) -> usize;

    /// Number of tuples in `rel`.
    fn rel_len(&self, rel: RelId) -> usize;

    /// Membership.
    fn contains(&self, rel: RelId, t: &Tuple) -> bool;

    /// Visit every tuple of `rel` in deterministic order; stop when `f`
    /// returns `false`. Returns `false` iff stopped early.
    fn scan(&self, rel: RelId, f: &mut dyn FnMut(&Tuple) -> bool) -> bool;

    /// Visit the tuples of `rel` with value `v` at column `col`
    /// (index-accelerated), in the same relative order as [`Self::scan`];
    /// stop when `f` returns `false`. Returns `false` iff stopped early.
    fn probe(&self, rel: RelId, col: usize, v: &Value, f: &mut dyn FnMut(&Tuple) -> bool) -> bool;

    /// Collect every constant appearing in the store into `out`.
    fn active_domain_into(&self, out: &mut BTreeSet<Value>);

    /// Cardinality and per-column distinct counts of `rel`, for cost-based
    /// planning. Estimates only — they steer plan choice, never answers.
    fn stats(&self, rel: RelId) -> RelStats;
}

impl TupleStore for Database {
    fn rel_count(&self) -> usize {
        self.len()
    }

    fn rel_len(&self, rel: RelId) -> usize {
        self.instance(rel).len()
    }

    fn contains(&self, rel: RelId, t: &Tuple) -> bool {
        self.instance(rel).contains(t)
    }

    fn scan(&self, rel: RelId, f: &mut dyn FnMut(&Tuple) -> bool) -> bool {
        for t in self.instance(rel).iter() {
            if !f(t) {
                return false;
            }
        }
        true
    }

    fn probe(&self, rel: RelId, col: usize, v: &Value, f: &mut dyn FnMut(&Tuple) -> bool) -> bool {
        self.instance(rel).probe(col, v, f)
    }

    fn active_domain_into(&self, out: &mut BTreeSet<Value>) {
        out.extend(self.active_domain().iter().cloned());
    }

    fn stats(&self, rel: RelId) -> RelStats {
        self.instance(rel).stats()
    }
}

impl TupleStore for Overlay<'_> {
    fn rel_count(&self) -> usize {
        Overlay::rel_count(self)
    }

    fn rel_len(&self, rel: RelId) -> usize {
        Overlay::rel_len(self, rel)
    }

    fn contains(&self, rel: RelId, t: &Tuple) -> bool {
        Overlay::contains(self, rel, t)
    }

    fn scan(&self, rel: RelId, f: &mut dyn FnMut(&Tuple) -> bool) -> bool {
        let live = self
            .base()
            .scan(rel, &mut |t| !self.in_live_base(rel, t) || f(t));
        if !live {
            return false;
        }
        self.for_each_novel(rel, f)
    }

    fn probe(&self, rel: RelId, col: usize, v: &Value, f: &mut dyn FnMut(&Tuple) -> bool) -> bool {
        // The base's lazily built index still lists tombstoned tuples; every
        // hit is re-checked against the deletes side before being yielded.
        let live = self
            .base()
            .probe(rel, col, v, &mut |t| !self.in_live_base(rel, t) || f(t));
        if !live {
            return false;
        }
        // Skip delta tuples already live in the base: the effective view
        // yields each tuple once.
        self.delta()
            .instance(rel)
            .probe(col, v, &mut |t| self.in_live_base(rel, t) || f(t))
    }

    fn active_domain_into(&self, out: &mut BTreeSet<Value>) {
        Overlay::active_domain_into(self, out)
    }

    fn stats(&self, rel: RelId) -> RelStats {
        match self.deletes() {
            // Fast additive path: combine the two sides' cached index stats.
            None => self
                .base()
                .instance(rel)
                .stats()
                .overlaid(&self.delta().instance(rel).stats()),
            // With tombstones, rebuild exact stats from the effective view.
            // Stats are advisory (plan choice only), so the scan cost is
            // paid rarely — and only by deletes-carrying overlays.
            Some(_) => {
                let mut tuples = Vec::new();
                self.scan(rel, &mut |t| {
                    tuples.push(t.clone());
                    true
                });
                crate::database::Instance::from_tuples(tuples).stats()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vs: &[i64]) -> Tuple {
        Tuple::new(vs.iter().map(|&v| Value::int(v)))
    }

    fn collect_scan<S: TupleStore>(s: &S, rel: RelId) -> Vec<Tuple> {
        let mut out = Vec::new();
        s.scan(rel, &mut |t| {
            out.push(t.clone());
            true
        });
        out
    }

    fn collect_probe<S: TupleStore>(s: &S, rel: RelId, col: usize, v: &Value) -> Vec<Tuple> {
        let mut out = Vec::new();
        s.probe(rel, col, v, &mut |t| {
            out.push(t.clone());
            true
        });
        out
    }

    #[test]
    fn database_scan_and_probe_agree() {
        let mut db = Database::with_relations(1);
        for pair in [[1, 2], [1, 3], [2, 3]] {
            db.insert(RelId(0), t(&pair.map(i64::from)));
        }
        assert_eq!(collect_scan(&db, RelId(0)).len(), 3);
        assert_eq!(
            collect_probe(&db, RelId(0), 0, &Value::int(1)),
            vec![t(&[1, 2]), t(&[1, 3])]
        );
    }

    #[test]
    fn overlay_probe_deduplicates_and_scans_union() {
        let mut base = Database::with_relations(1);
        base.insert(RelId(0), t(&[1, 2]));
        let mut delta = Database::with_relations(1);
        delta.insert(RelId(0), t(&[1, 2])); // duplicate of base
        delta.insert(RelId(0), t(&[1, 9])); // novel
        let ov = Overlay::new(&base, &delta).unwrap();
        assert_eq!(
            collect_probe(&ov, RelId(0), 0, &Value::int(1)),
            vec![t(&[1, 2]), t(&[1, 9])]
        );
        assert_eq!(collect_scan(&ov, RelId(0)).len(), 2);
        assert_eq!(TupleStore::rel_len(&ov, RelId(0)), 2);
    }

    #[test]
    fn tombstoned_tuples_filtered_from_scan_probe_and_stats() {
        let mut base = Database::with_relations(1);
        base.insert(RelId(0), t(&[1, 2]));
        base.insert(RelId(0), t(&[1, 3]));
        base.insert(RelId(0), t(&[2, 3]));
        // Regression: warm the base's per-column index *before* building the
        // overlay — the stale index still lists the tombstoned tuple, and
        // the probe path must re-check every hit against the deletes side.
        let warm = collect_probe(&base, RelId(0), 0, &Value::int(1));
        assert_eq!(warm.len(), 2);
        let mut deletes = Database::with_relations(1);
        deletes.insert(RelId(0), t(&[1, 3]));
        let mut delta = Database::with_relations(1);
        delta.insert(RelId(0), t(&[1, 9]));
        let ov = Overlay::with_deletes(&base, &delta, &deletes).unwrap();
        assert_eq!(
            collect_probe(&ov, RelId(0), 0, &Value::int(1)),
            vec![t(&[1, 2]), t(&[1, 9])],
            "stale base index must not leak the tombstoned (1,3)"
        );
        assert_eq!(
            collect_scan(&ov, RelId(0)),
            vec![t(&[1, 2]), t(&[2, 3]), t(&[1, 9])],
            "live base tuples in order, then the novel delta tuple"
        );
        assert_eq!(TupleStore::rel_len(&ov, RelId(0)), 3);
        let stats = TupleStore::stats(&ov, RelId(0));
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.distinct, vec![2, 3]);
        assert!(!ov.contains(RelId(0), &t(&[1, 3])));
    }

    #[test]
    fn deletes_early_exit_propagates_through_live_filter() {
        let mut base = Database::with_relations(1);
        base.insert(RelId(0), t(&[1]));
        base.insert(RelId(0), t(&[2]));
        base.insert(RelId(0), t(&[3]));
        let mut deletes = Database::with_relations(1);
        deletes.insert(RelId(0), t(&[1]));
        let delta = Database::with_relations(1);
        let ov = Overlay::with_deletes(&base, &delta, &deletes).unwrap();
        let mut seen = 0;
        let completed = ov.scan(RelId(0), &mut |_| {
            seen += 1;
            false
        });
        assert!(!completed);
        assert_eq!(seen, 1, "the tombstoned tuple must not reach the visitor");
    }

    /// Every probe of a small overlay — delta tuples already live in the
    /// base, tombstoned base tuples, tuples too short for the column — gives
    /// the same tuples in the same order, at the same probe count (one per
    /// side), whether the instances are scanned in place or probed through
    /// a built index.
    #[test]
    fn overlay_scan_probes_match_index_probes() {
        let mut base = Database::with_relations(1);
        for vs in [&[1, 2][..], &[1, 3], &[2, 3], &[3], &[1, 1, 1]] {
            base.insert(RelId(0), t(vs));
        }
        let mut delta = Database::with_relations(1);
        for vs in [&[1, 2][..], &[1, 9], &[2, 3], &[1], &[2, 3, 4]] {
            delta.insert(RelId(0), t(vs)); // (1,2), (2,3) already live
        }
        let mut deletes = Database::with_relations(1);
        deletes.insert(RelId(0), t(&[2, 3])); // re-inserted by the delta
        deletes.insert(RelId(0), t(&[1, 3]));
        let warmed = |db: &Database| {
            let copy = db.clone();
            copy.instance(RelId(0)).index();
            copy
        };
        let (wbase, wdelta) = (warmed(&base), warmed(&delta));
        let views = [
            (
                Overlay::new(&base, &delta).unwrap(),
                Overlay::new(&wbase, &wdelta).unwrap(),
            ),
            (
                Overlay::with_deletes(&base, &delta, &deletes).unwrap(),
                Overlay::with_deletes(&wbase, &wdelta, &deletes).unwrap(),
            ),
        ];
        for (cold, warm) in views {
            let materialized = cold.materialize();
            for col in 0..4 {
                for v in (0..10).map(Value::int) {
                    let before = crate::index::probe_count();
                    let scanned = collect_probe(&cold, RelId(0), col, &v);
                    let mid = crate::index::probe_count();
                    let indexed = collect_probe(&warm, RelId(0), col, &v);
                    let after = crate::index::probe_count();
                    assert_eq!(scanned, indexed, "col={col} v={v}");
                    assert_eq!((mid - before, after - mid), (2, 2), "col={col} v={v}");
                    let mut sorted = scanned.clone();
                    sorted.sort();
                    assert_eq!(
                        sorted,
                        collect_probe(&materialized, RelId(0), col, &v),
                        "the effective view, each tuple once (col={col} v={v})"
                    );
                }
            }
        }
    }

    #[test]
    fn early_exit_propagates() {
        let mut db = Database::with_relations(1);
        db.insert(RelId(0), t(&[1]));
        db.insert(RelId(0), t(&[2]));
        let mut seen = 0;
        let completed = db.scan(RelId(0), &mut |_| {
            seen += 1;
            false
        });
        assert!(!completed);
        assert_eq!(seen, 1);
    }
}
