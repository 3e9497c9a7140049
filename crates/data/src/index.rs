//! Per-column hash indexes over relation instances.
//!
//! An [`Instance`](crate::Instance) stores its tuples in an ordered set; the
//! evaluators' joins need the complementary access path "all tuples with
//! value `v` in column `c`". A [`ColumnIndex`] is a snapshot of one instance
//! with one hash map per column, built lazily on first probe and discarded on
//! mutation. Tuple ids are positions in the snapshot, which preserves the
//! instance's deterministic (ordered) iteration order — index-joined
//! evaluation visits tuples in the same order a scan would.
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

/// A per-column hash index over a snapshot of one instance's tuples.
#[derive(Debug, Default)]
pub struct ColumnIndex {
    tuples: Vec<Tuple>,
    /// `by_col[c][v]` — snapshot positions of tuples with value `v` in column
    /// `c`, in snapshot (i.e. instance iteration) order. Tuples of arity
    /// `≤ c` simply do not appear in `by_col[c]`.
    by_col: Vec<HashMap<Value, Vec<u32>>>,
}

impl ColumnIndex {
    /// Build from tuples in iteration order.
    pub(crate) fn build<'a>(tuples: impl Iterator<Item = &'a Tuple>) -> Self {
        let tuples: Vec<Tuple> = tuples.cloned().collect();
        let max_arity = tuples.iter().map(Tuple::arity).max().unwrap_or(0);
        let mut by_col: Vec<HashMap<Value, Vec<u32>>> = vec![HashMap::new(); max_arity];
        for (id, t) in tuples.iter().enumerate() {
            for (col, v) in t.iter().enumerate() {
                by_col[col].entry(v.clone()).or_default().push(id as u32);
            }
        }
        ColumnIndex { tuples, by_col }
    }

    /// Snapshot positions of tuples with `v` at column `col`, in iteration
    /// order. Empty when the column exceeds every arity or the value is
    /// absent. Each call counts one probe.
    pub fn probe(&self, col: usize, v: &Value) -> &[u32] {
        count_probe();
        match self.by_col.get(col).and_then(|m| m.get(v)) {
            Some(ids) => ids,
            None => NO_MATCHES,
        }
    }

    /// The tuple at a snapshot position returned by [`ColumnIndex::probe`].
    pub fn tuple(&self, id: u32) -> &Tuple {
        &self.tuples[id as usize]
    }

    /// The full snapshot, in iteration order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of indexed tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
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

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
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
