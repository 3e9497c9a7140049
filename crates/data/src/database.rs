//! Tuples, instances, and databases.
//!
//! Instances use set semantics with deterministic (ordered) iteration so that
//! valuation enumeration in the deciders is reproducible run to run. The
//! containment order `D ⊆ D′` (Section 2.1) and extension construction
//! (`D ∪ Δ`) are the operations the completeness definitions are built on.

use crate::error::DataError;
use crate::index::ColumnIndex;
use crate::schema::{RelId, Schema};
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::OnceLock;

/// A tuple: an ordered list of constants.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(pub Box<[Value]>);

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: impl IntoIterator<Item = Value>) -> Self {
        Tuple(values.into_iter().collect())
    }

    /// The empty (nullary) tuple `()` — Boolean query results.
    pub fn unit() -> Self {
        Tuple(Box::new([]))
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Project onto the given column positions.
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple(cols.iter().map(|&c| self.0[c].clone()).collect())
    }

    /// Field access.
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Iterate the fields.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.0.iter()
    }
}

/// A tuple orders, compares, and hashes exactly as its field slice, so sets
/// of tuples answer membership for a borrowed row without building a tuple.
impl std::borrow::Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(vs: [Value; N]) -> Self {
        Tuple::new(vs)
    }
}

impl Tuple {
    fn fmt_parenthesised(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_parenthesised(f)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_parenthesised(f)
    }
}

/// Instances with at most this many tuples and no index built are probed by
/// a scan instead: the deciders' one-tuple deltas and freshly mutated small
/// candidate databases would otherwise build a hash index per probe.
pub const SCAN_PROBE_MAX: usize = 8;

/// An instance of a single relation: a set of tuples.
///
/// Carries a lazily built per-column hash index ([`Instance::index`]) for the
/// evaluators' joins; the cache is dropped on every mutation and excluded
/// from equality, hashing, ordering, cloning, and `Debug` (two semantically
/// equal instances compare, hash, and render identically whether or not
/// their index is warm — the structural checkpoint fingerprints hash them).
#[derive(Default)]
pub struct Instance {
    tuples: BTreeSet<Tuple>,
    index: OnceLock<ColumnIndex>,
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.tuples.iter()).finish()
    }
}

impl Clone for Instance {
    fn clone(&self) -> Self {
        // The index is derived data; a clone starts without one.
        Instance {
            tuples: self.tuples.clone(),
            index: OnceLock::new(),
        }
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.tuples == other.tuples
    }
}

impl Eq for Instance {}

/// Hashes the tuples only, like equality.
impl std::hash::Hash for Instance {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.tuples.hash(state);
    }
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Self {
        Instance::default()
    }

    /// Build from tuples.
    pub fn from_tuples(tuples: impl IntoIterator<Item = Tuple>) -> Self {
        Instance {
            tuples: tuples.into_iter().collect(),
            index: OnceLock::new(),
        }
    }

    /// The per-column hash index over the current tuples, built on first use
    /// and invalidated by any mutation.
    pub fn index(&self) -> &ColumnIndex {
        self.index
            .get_or_init(|| ColumnIndex::build(self.tuples.iter()))
    }

    /// Visit the tuples with value `v` at column `col`, in iteration order;
    /// stop when `f` returns `false`. Returns `false` iff stopped early.
    ///
    /// Goes through [`Self::index`], except that an instance of at most
    /// [`SCAN_PROBE_MAX`] tuples with no index built is scanned in place —
    /// same tuples, same order (the index snapshot keeps iteration order and
    /// omits tuples too short for `col`). Either way the call counts exactly
    /// one probe ([`crate::index::probe_count`]).
    pub fn probe(&self, col: usize, v: &Value, f: &mut dyn FnMut(&Tuple) -> bool) -> bool {
        if self.index.get().is_none() && self.tuples.len() <= SCAN_PROBE_MAX {
            crate::index::count_probe();
            return self.tuples.iter().all(|t| t.0.get(col) != Some(v) || f(t));
        }
        let idx = self.index();
        idx.probe(col, v).iter().all(|&id| f(idx.tuple(id)))
    }

    /// Insert a tuple; returns whether it was new.
    pub fn insert(&mut self, t: Tuple) -> bool {
        self.index.take();
        self.tuples.insert(t)
    }

    /// Remove a tuple; returns whether it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.index.take();
        self.tuples.remove(t)
    }

    /// Remove every tuple.
    pub fn clear(&mut self) {
        self.index.take();
        self.tuples.clear();
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the instance empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Ordered iteration.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// `self ⊆ other`.
    pub fn is_subset(&self, other: &Instance) -> bool {
        self.tuples.is_subset(&other.tuples)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Instance) {
        if other.is_empty() {
            return;
        }
        self.index.take();
        for t in other.iter() {
            self.tuples.insert(t.clone());
        }
    }
}

impl FromIterator<Tuple> for Instance {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        Instance::from_tuples(iter)
    }
}

/// A database: one [`Instance`] per relation of a [`Schema`].
///
/// The schema itself is *not* owned by the database; all operations that need
/// schema information take it as a parameter. This keeps `Database` a plain
/// value type that is cheap to clone and compare. The deciders' hot loops no
/// longer clone candidate extensions — they layer an
/// [`Overlay`](crate::Overlay) over a shared base instead — but cloning
/// remains cheap for the places that still materialize.
pub struct Database {
    instances: Vec<Instance>,
    /// Cached active domain; dropped on mutation (see
    /// [`Database::active_domain`]).
    adom: OnceLock<BTreeSet<Value>>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The adom cache is derived data; like equality and hashing,
        // rendering ignores it so warm and cold databases with the same
        // tuples print identically.
        f.debug_list().entries(self.instances.iter()).finish()
    }
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database {
            instances: self.instances.clone(),
            adom: OnceLock::new(),
        }
    }
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        self.instances == other.instances
    }
}

impl Eq for Database {}

/// Hashes the instances only, like equality: the active-domain cache is
/// derived data.
impl std::hash::Hash for Database {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.instances.hash(state);
    }
}

impl Database {
    /// The empty database over a schema with `n` relations.
    pub fn empty(schema: &Schema) -> Self {
        Database::with_relations(schema.len())
    }

    /// The empty database over `n` relations (schema-free construction).
    pub fn with_relations(n: usize) -> Self {
        Database {
            instances: vec![Instance::new(); n],
            adom: OnceLock::new(),
        }
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Is the database empty of relations?
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Total number of tuples across all relations.
    pub fn tuple_count(&self) -> usize {
        self.instances.iter().map(Instance::len).sum()
    }

    /// Are all instances empty?
    pub fn is_all_empty(&self) -> bool {
        self.instances.iter().all(Instance::is_empty)
    }

    /// The instance of a relation.
    pub fn instance(&self, id: RelId) -> &Instance {
        &self.instances[id.0]
    }

    /// Mutable access to the instance of a relation. Conservatively drops the
    /// cached active domain (the caller may mutate through the reference).
    pub fn instance_mut(&mut self, id: RelId) -> &mut Instance {
        self.adom.take();
        &mut self.instances[id.0]
    }

    /// Insert a tuple, checking arity and finite-domain membership against the
    /// schema.
    pub fn insert_checked(
        &mut self,
        schema: &Schema,
        id: RelId,
        t: Tuple,
    ) -> Result<bool, DataError> {
        let rel = schema.relation(id)?;
        if t.arity() != rel.arity() {
            return Err(DataError::ArityMismatch {
                rel: id,
                expected: rel.arity(),
                got: t.arity(),
            });
        }
        for (col, (v, a)) in t.iter().zip(rel.attributes.iter()).enumerate() {
            if !a.domain.admits(v) {
                return Err(DataError::DomainViolation {
                    rel: id,
                    col,
                    value: v.to_string(),
                });
            }
        }
        self.adom.take();
        Ok(self.instances[id.0].insert(t))
    }

    /// Insert a tuple without schema checks (used by internal algorithms that
    /// construct tuples from schema-derived templates).
    pub fn insert(&mut self, id: RelId, t: Tuple) -> bool {
        self.adom.take();
        self.instances[id.0].insert(t)
    }

    /// Remove every tuple from every relation (the relations themselves
    /// remain). Used by the deciders to recycle scratch deltas without
    /// reallocating per candidate.
    pub fn clear_tuples(&mut self) {
        self.adom.take();
        for inst in &mut self.instances {
            inst.clear();
        }
    }

    /// `self ⊆ other` component-wise (Section 2.1).
    pub fn is_contained_in(&self, other: &Database) -> bool {
        self.instances.len() == other.instances.len()
            && self
                .instances
                .iter()
                .zip(other.instances.iter())
                .all(|(a, b)| a.is_subset(b))
    }

    /// `self ∪ other`, the canonical *extension* construction `D ∪ Δ`.
    pub fn union(&self, other: &Database) -> Result<Database, DataError> {
        if self.instances.len() != other.instances.len() {
            return Err(DataError::SchemaMismatch);
        }
        let mut out = self.clone();
        for (mine, theirs) in out.instances.iter_mut().zip(other.instances.iter()) {
            mine.union_with(theirs);
        }
        Ok(out)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Database) -> Result<(), DataError> {
        if self.instances.len() != other.instances.len() {
            return Err(DataError::SchemaMismatch);
        }
        self.adom.take();
        for (mine, theirs) in self.instances.iter_mut().zip(other.instances.iter()) {
            mine.union_with(theirs);
        }
        Ok(())
    }

    /// The tuples of `self` missing from `other`, per relation — `self \ other`.
    pub fn difference(&self, other: &Database) -> Result<Database, DataError> {
        if self.instances.len() != other.instances.len() {
            return Err(DataError::SchemaMismatch);
        }
        let mut out = Database::with_relations(self.instances.len());
        for (i, (mine, theirs)) in self
            .instances
            .iter()
            .zip(other.instances.iter())
            .enumerate()
        {
            for t in mine.iter() {
                if !theirs.contains(t) {
                    out.instances[i].insert(t.clone());
                }
            }
        }
        Ok(out)
    }

    /// All constants appearing anywhere in the database (the *active
    /// domain*). Computed once and cached; mutation drops the cache. Repeat
    /// callers (`Adom::build`, the FO evaluator) previously rebuilt this set
    /// on every call.
    pub fn active_domain(&self) -> &BTreeSet<Value> {
        self.adom.get_or_init(|| {
            let mut out = BTreeSet::new();
            for inst in &self.instances {
                for t in inst.iter() {
                    for v in t.iter() {
                        out.insert(v.clone());
                    }
                }
            }
            out
        })
    }

    /// Iterate `(RelId, &Instance)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RelId, &Instance)> {
        self.instances
            .iter()
            .enumerate()
            .map(|(i, inst)| (RelId(i), inst))
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, inst) in self.iter() {
            write!(f, "{id}: {{")?;
            for (i, t) in inst.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, RelationSchema};

    fn schema() -> Schema {
        Schema::from_relations(vec![
            RelationSchema::infinite("R", &["a", "b"]),
            RelationSchema::new("B", vec![Attribute::boolean("x")]),
        ])
        .unwrap()
    }

    fn t(vs: &[i64]) -> Tuple {
        Tuple::new(vs.iter().map(|&v| Value::int(v)))
    }

    #[test]
    fn insert_checked_validates_arity_and_domain() {
        let s = schema();
        let mut d = Database::empty(&s);
        let r = s.rel_id("R").unwrap();
        let b = s.rel_id("B").unwrap();
        assert!(d.insert_checked(&s, r, t(&[1, 2])).unwrap());
        assert!(!d.insert_checked(&s, r, t(&[1, 2])).unwrap()); // duplicate
        assert!(matches!(
            d.insert_checked(&s, r, t(&[1])),
            Err(DataError::ArityMismatch { .. })
        ));
        assert!(d.insert_checked(&s, b, t(&[1])).unwrap());
        assert!(matches!(
            d.insert_checked(&s, b, t(&[7])),
            Err(DataError::DomainViolation { .. })
        ));
    }

    #[test]
    fn containment_and_union() {
        let s = schema();
        let r = s.rel_id("R").unwrap();
        let mut d1 = Database::empty(&s);
        d1.insert(r, t(&[1, 2]));
        let mut d2 = d1.clone();
        d2.insert(r, t(&[3, 4]));
        assert!(d1.is_contained_in(&d2));
        assert!(!d2.is_contained_in(&d1));
        let u = d1.union(&d2).unwrap();
        assert_eq!(u, d2);
        assert_eq!(u.tuple_count(), 2);
    }

    #[test]
    fn difference_yields_missing_tuples() {
        let s = schema();
        let r = s.rel_id("R").unwrap();
        let mut d1 = Database::empty(&s);
        d1.insert(r, t(&[1, 2]));
        let mut d2 = d1.clone();
        d2.insert(r, t(&[3, 4]));
        let diff = d2.difference(&d1).unwrap();
        assert_eq!(diff.tuple_count(), 1);
        assert!(diff.instance(r).contains(&t(&[3, 4])));
    }

    #[test]
    fn active_domain_collects_all_constants() {
        let s = schema();
        let r = s.rel_id("R").unwrap();
        let mut d = Database::empty(&s);
        d.insert(r, t(&[1, 2]));
        d.insert(r, t(&[2, 3]));
        let adom = d.active_domain();
        assert_eq!(adom.len(), 3);
        assert!(adom.contains(&Value::int(3)));
    }

    #[test]
    fn tuple_projection() {
        let x = t(&[10, 20, 30]);
        assert_eq!(x.project(&[2, 0]), t(&[30, 10]));
        assert_eq!(Tuple::unit().arity(), 0);
    }

    /// `n` tuples of arities 1–3 over values `0..4`, so some are too short
    /// for the higher columns a probe asks about.
    fn mixed_tuples(n: usize) -> Vec<Tuple> {
        (0..n as i64)
            .map(|i| {
                let vals = [i % 4, (i / 2) % 4, (i / 3) % 4];
                t(&vals[..1 + (i as usize) % 3])
            })
            .collect()
    }

    /// Probe `inst` at `(col, v)`: the tuples visited and the probes counted.
    fn probed(inst: &Instance, col: usize, v: &Value) -> (Vec<Tuple>, u64) {
        let before = crate::index::probe_count();
        let mut hits = Vec::new();
        assert!(inst.probe(col, v, &mut |t| {
            hits.push(t.clone());
            true
        }));
        (hits, crate::index::probe_count() - before)
    }

    #[test]
    fn small_instance_scan_matches_the_index_probe() {
        for n in [
            0,
            1,
            SCAN_PROBE_MAX - 1,
            SCAN_PROBE_MAX,
            SCAN_PROBE_MAX + 1,
            2 * SCAN_PROBE_MAX,
        ] {
            let cold = Instance::from_tuples(mixed_tuples(n));
            let warm = Instance::from_tuples(mixed_tuples(n));
            warm.index();
            for col in 0..4 {
                for v in (0..4).map(Value::int) {
                    let expected: Vec<Tuple> = cold
                        .iter()
                        .filter(|t| t.0.get(col) == Some(&v))
                        .cloned()
                        .collect();
                    let scanned = probed(&cold, col, &v);
                    assert_eq!(
                        scanned,
                        (expected.clone(), 1),
                        "n={n} col={col} v={v}: scan path"
                    );
                    assert_eq!(
                        probed(&warm, col, &v),
                        (expected, 1),
                        "n={n} col={col} v={v}: index path"
                    );
                }
            }
            // Only instances above the threshold build an index to probe.
            assert_eq!(cold.index.get().is_some(), n > SCAN_PROBE_MAX, "n={n}");
        }
    }

    #[test]
    fn scan_probe_stops_early_like_the_index_probe() {
        let cold = Instance::from_tuples([t(&[1, 2]), t(&[1, 3]), t(&[1, 4])]);
        let warm = cold.clone();
        warm.index();
        for inst in [&cold, &warm] {
            let mut seen = Vec::new();
            let completed = inst.probe(0, &Value::int(1), &mut |t| {
                seen.push(t.clone());
                seen.len() < 2
            });
            assert!(!completed);
            assert_eq!(seen, vec![t(&[1, 2]), t(&[1, 3])]);
        }
    }

    #[test]
    fn schema_mismatch_detected() {
        let d1 = Database::with_relations(1);
        let d2 = Database::with_relations(2);
        assert!(d1.union(&d2).is_err());
        assert!(!d1.is_contained_in(&d2));
    }
}
