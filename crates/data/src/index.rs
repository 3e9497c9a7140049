//! Per-column hash indexes over relation instances.
//!
//! An [`Instance`](crate::Instance) stores its tuples in an ordered set; the
//! evaluators' joins need the complementary access path "all tuples with
//! value `v` in column `c`". A [`ColumnIndex`] holds one hash map per column,
//! built lazily on first probe. Single-tuple inserts and removes patch it in
//! place, so a stream of small changes to a large instance keeps its index
//! warm instead of rebuilding it per change; bulk changes drop it. Tuple ids
//! are stable slots, and every posting list keeps its ids in the instance's
//! (ordered) iteration order — index-joined evaluation visits tuples in the
//! same order a scan would.
//!
//! Probes are counted per thread ([`probe_count`]) so the deciders can
//! report an exact `index.probe` telemetry counter without threading state
//! through the storage layer: a decision snapshots its own thread's counter
//! before and after, and concurrent decisions on other threads cannot inflate
//! the figure.

use crate::database::Tuple;
use crate::value::Value;
use std::cell::Cell;
use std::collections::HashMap;

thread_local! {
    static PROBES: Cell<u64> = const { Cell::new(0) };
}

/// Total number of index probes served *by the calling thread*. Monotone per
/// thread; callers that want a per-decision figure snapshot it before and
/// after on the thread(s) doing the probing.
pub fn probe_count() -> u64 {
    PROBES.with(Cell::get)
}

/// Count one probe on the calling thread.
pub(crate) fn count_probe() {
    PROBES.with(|p| p.set(p.get() + 1));
}

const NO_MATCHES: &[u32] = &[];

/// A per-column hash index over one instance's tuples.
#[derive(Debug, Default)]
pub struct ColumnIndex {
    /// The indexed tuples by id. An insert appends; a removed tuple's slot
    /// stays dead (referenced by no posting) until the next rebuild.
    slots: Vec<Tuple>,
    /// Dead slots.
    dead: usize,
    /// Inserts and removes patched in since the build.
    patches: usize,
    /// `by_col[c][v]` — ids of the tuples with value `v` in column `c`, in
    /// instance iteration (tuple) order. Tuples of arity `≤ c` simply do not
    /// appear in `by_col[c]`; no posting list is empty.
    by_col: Vec<HashMap<Value, Vec<u32>>>,
}

impl ColumnIndex {
    /// Build from tuples in iteration order.
    pub(crate) fn build<'a>(tuples: impl Iterator<Item = &'a Tuple>) -> Self {
        let slots: Vec<Tuple> = tuples.cloned().collect();
        let max_arity = slots.iter().map(Tuple::arity).max().unwrap_or(0);
        let mut by_col: Vec<HashMap<Value, Vec<u32>>> = vec![HashMap::new(); max_arity];
        for (id, t) in slots.iter().enumerate() {
            for (col, v) in t.iter().enumerate() {
                by_col[col].entry(v.clone()).or_default().push(id as u32);
            }
        }
        ColumnIndex {
            slots,
            dead: 0,
            patches: 0,
            by_col,
        }
    }

    /// Index a tuple the instance just gained.
    pub(crate) fn insert(&mut self, t: &Tuple) {
        self.patches += 1;
        let ColumnIndex { slots, by_col, .. } = self;
        let id = slots.len() as u32;
        slots.push(t.clone());
        if by_col.len() < t.arity() {
            by_col.resize_with(t.arity(), HashMap::new);
        }
        for (col, v) in t.iter().enumerate() {
            let posting = by_col[col].entry(v.clone()).or_default();
            let at = posting.partition_point(|&i| slots[i as usize] < *t);
            posting.insert(at, id);
        }
    }

    /// Unindex a tuple the instance just lost.
    pub(crate) fn remove(&mut self, t: &Tuple) {
        self.patches += 1;
        let ColumnIndex {
            slots,
            dead,
            by_col,
            ..
        } = self;
        for (col, v) in t.iter().enumerate() {
            let map = &mut by_col[col];
            let Some(posting) = map.get_mut(v) else {
                continue;
            };
            let at = posting.partition_point(|&i| slots[i as usize] < *t);
            if posting.get(at).is_some_and(|&i| slots[i as usize] == *t) {
                posting.remove(at);
                if posting.is_empty() {
                    map.remove(v);
                }
            }
        }
        *dead += 1;
    }

    /// Ids of the tuples with `v` at column `col`, in iteration order.
    /// Empty when the column exceeds every arity or the value is absent.
    /// Each call counts one probe.
    pub fn probe(&self, col: usize, v: &Value) -> &[u32] {
        count_probe();
        match self.by_col.get(col).and_then(|m| m.get(v)) {
            Some(ids) => ids,
            None => NO_MATCHES,
        }
    }

    /// The tuple with an id returned by [`ColumnIndex::probe`].
    pub fn tuple(&self, id: u32) -> &Tuple {
        &self.slots[id as usize]
    }

    /// Number of indexed tuples.
    pub fn len(&self) -> usize {
        self.slots.len() - self.dead
    }

    /// Has the index absorbed more patches than a rebuild would cost? Then
    /// the patching has paid for a rebuild, and dead slots are bounded by
    /// the live count.
    pub(crate) fn worn(&self) -> bool {
        self.patches > self.len().max(crate::database::SCAN_PROBE_MAX)
    }

    /// Number of indexed columns (the widest tuple's arity).
    pub fn n_cols(&self) -> usize {
        self.by_col.len()
    }

    /// Number of distinct values in column `col` (0 when the column exceeds
    /// every tuple's arity). Reading a statistic is not a probe and is not
    /// counted as one.
    pub fn distinct(&self, col: usize) -> usize {
        self.by_col.get(col).map(HashMap::len).unwrap_or(0)
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instance;

    fn t(vs: &[i64]) -> Tuple {
        Tuple::new(vs.iter().map(|&v| Value::int(v)))
    }

    #[test]
    fn probe_finds_matches_in_iteration_order() {
        let inst = Instance::from_tuples([t(&[1, 2]), t(&[1, 3]), t(&[2, 3])]);
        let idx = inst.index();
        let hits = idx.probe(0, &Value::int(1));
        assert_eq!(hits.len(), 2);
        assert_eq!(idx.tuple(hits[0]), &t(&[1, 2]));
        assert_eq!(idx.tuple(hits[1]), &t(&[1, 3]));
        assert_eq!(idx.probe(1, &Value::int(3)).len(), 2);
        assert!(idx.probe(0, &Value::int(9)).is_empty());
        assert!(idx.probe(7, &Value::int(1)).is_empty());
    }

    #[test]
    fn mixed_arities_index_existing_columns_only() {
        let inst = Instance::from_tuples([t(&[5]), t(&[5, 6])]);
        let idx = inst.index();
        assert_eq!(idx.probe(0, &Value::int(5)).len(), 2);
        assert_eq!(idx.probe(1, &Value::int(6)).len(), 1);
    }

    #[test]
    fn mutation_invalidates_the_index() {
        let mut inst = Instance::from_tuples([t(&[1, 2])]);
        assert_eq!(inst.index().probe(0, &Value::int(1)).len(), 1);
        inst.insert(t(&[1, 9]));
        assert_eq!(inst.index().probe(0, &Value::int(1)).len(), 2);
        inst.remove(&t(&[1, 2]));
        assert_eq!(inst.index().probe(0, &Value::int(1)).len(), 1);
    }

    /// A patched index answers every probe as a fresh build does, across
    /// random inserts and removes — including the drop once its patches add
    /// up to a rebuild.
    #[test]
    fn patched_index_matches_a_rebuilt_one() {
        let mut rng = crate::SplitMix64::seed_from_u64(0x1DE);
        let mut inst = Instance::from_tuples((0..20).map(|i| t(&[i % 4, i % 7, i])));
        inst.index();
        for step in 0..400 {
            let row = t(&[
                rng.random_range(0..5) as i64,
                rng.random_range(0..8) as i64,
                rng.random_range(0..24) as i64,
            ]);
            if rng.random_bool(0.5) {
                inst.insert(row);
            } else {
                inst.remove(&row);
            }
            let fresh = Instance::from_tuples(inst.iter().cloned());
            let (patched, rebuilt) = (inst.index(), fresh.index());
            assert_eq!(patched.len(), rebuilt.len(), "step {step}");
            for col in 0..3 {
                assert_eq!(patched.distinct(col), rebuilt.distinct(col), "step {step}");
                for v in (0..24).map(Value::int) {
                    let hits = |idx: &ColumnIndex| -> Vec<Tuple> {
                        idx.probe(col, &v)
                            .iter()
                            .map(|&id| idx.tuple(id).clone())
                            .collect()
                    };
                    assert_eq!(hits(patched), hits(rebuilt), "step {step} col {col} v {v}");
                }
            }
        }
    }

    #[test]
    fn probes_are_counted() {
        let inst = Instance::from_tuples([t(&[1, 2])]);
        let before = probe_count();
        inst.index().probe(0, &Value::int(1));
        inst.index().probe(1, &Value::int(2));
        assert_eq!(probe_count(), before + 2);
    }

    #[test]
    fn probe_counts_are_per_thread() {
        let inst = Instance::from_tuples([t(&[1, 2])]);
        let before = probe_count();
        std::thread::scope(|s| {
            s.spawn(|| {
                let other_before = probe_count();
                for _ in 0..100 {
                    inst.index().probe(0, &Value::int(1));
                }
                assert_eq!(probe_count(), other_before + 100);
            });
        });
        // The other thread's 100 probes must not leak into this thread's
        // counter.
        assert_eq!(probe_count(), before);
    }
}
