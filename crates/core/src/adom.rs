//! The extended active domain `Adom` of Section 3.2.
//!
//! `Adom` consists of (a) all constants appearing in `D`, `D_m`, `Q`, or `V`,
//! and (b) a set `New` of distinct values not occurring in any of them. The
//! paper allocates one fresh value per tableau variable; because fresh values
//! are interchangeable (none of `D`, `D_m`, `Q`, `V` mentions them, so every
//! check is invariant under permuting them), the enumerator in
//! [`crate::valuations`] breaks the symmetry and only ever explores
//! canonical uses of the fresh pool — the pool therefore only needs to be as
//! large as the largest single tableau.
//!
//! Each decision also numbers its `Adom` into dense `u32` ids, the
//! representation the valuation enumerator binds and the exact RCDP check
//! runs on. The catalog is the constants, the fresh pool, and the
//! finite-domain values the schema adds beyond them; an id is a position in
//! the catalog sorted in [`Value`] order. Ids therefore compare exactly as
//! the values they stand for, so id rows sort exactly as the tuples they
//! encode: a relation, a master projection, or `Q(D)` encoded in its set
//! order is already sorted for binary search. Ids decode back to values
//! only at a search's boundary.

use crate::query::Query;
use crate::setting::Setting;
use crate::verdict::RcError;
use ric_data::{Database, FreshValues, Value};
use std::collections::BTreeSet;

/// The extended active domain: the shared constants plus the fresh pool,
/// numbered into dense ids.
#[derive(Clone, Debug)]
pub struct Adom {
    /// Constants of `D ∪ D_m ∪ Q ∪ V`, deterministic order.
    pub constants: Vec<Value>,
    /// The `New` values (infinite-domain only, never in any input).
    pub fresh: Vec<Value>,
    /// Finite-domain values of the schema no input mentions.
    finite: Vec<Value>,
    /// `slots[id]`: where value `id` sits in `constants ++ fresh ++ finite`.
    slots: Vec<u32>,
    /// The inverse of `slots`: the id of each slot.
    ids: Vec<u32>,
}

impl Adom {
    /// Build the active domain for a decision about `(db, setting, query)`,
    /// with a fresh pool of `n_fresh` values. Errors when the catalog does
    /// not fit the `u32` id space.
    pub fn build(
        db: &Database,
        setting: &Setting,
        query: &Query,
        n_fresh: usize,
    ) -> Result<Adom, RcError> {
        let mut consts: BTreeSet<Value> = db.active_domain().clone();
        consts.extend(setting.dm.active_domain().iter().cloned());
        consts.extend(query.constants());
        consts.extend(setting.v.constants());
        let mut gen = FreshValues::new();
        gen.observe_all(consts.iter());
        let fresh = gen.fresh_n(n_fresh);
        let finite: BTreeSet<Value> = setting
            .schema
            .iter()
            .flat_map(|(_, r)| r.attributes.iter())
            .filter_map(|a| a.domain.finite_values())
            .flatten()
            .filter(|v| !consts.contains(*v) && !fresh.contains(*v))
            .cloned()
            .collect();
        let mut adom = Adom {
            constants: consts.into_iter().collect(),
            fresh,
            finite: finite.into_iter().collect(),
            slots: Vec::new(),
            ids: Vec::new(),
        };
        // Every id and the count itself must fit `u32`.
        let n = adom.constants.len() + adom.fresh.len() + adom.finite.len();
        let n = u32::try_from(n).map_err(|_| {
            RcError::Unsupported(format!(
                "an active domain of {n} values exceeds the u32 id space"
            ))
        })?;
        // The constants and the fresh pool are each sorted: merge them.
        // Finite-domain extras are rare; they are sorted in afterwards.
        let (cs, fs) = (&adom.constants, &adom.fresh);
        let mut slots: Vec<u32> = Vec::with_capacity(n as usize);
        let (mut i, mut j) = (0, 0);
        while i < cs.len() || j < fs.len() {
            if j == fs.len() || (i < cs.len() && cs[i] < fs[j]) {
                slots.push(i as u32);
                i += 1;
            } else {
                slots.push((cs.len() + j) as u32);
                j += 1;
            }
        }
        if !adom.finite.is_empty() {
            slots.extend((cs.len() + fs.len()) as u32..n);
            slots.sort_by(|&a, &b| adom.slot(a).cmp(adom.slot(b)));
        }
        adom.ids = vec![0; slots.len()];
        for (id, &slot) in slots.iter().enumerate() {
            adom.ids[slot as usize] = id as u32;
        }
        adom.slots = slots;
        Ok(adom)
    }

    /// The value at a position of `constants ++ fresh ++ finite`.
    fn slot(&self, slot: u32) -> &Value {
        let mut i = slot as usize;
        for part in [&self.constants, &self.fresh, &self.finite] {
            if i < part.len() {
                return &part[i];
            }
            i -= part.len();
        }
        unreachable!("slots index the three parts")
    }

    /// Total size |Adom| = constants + fresh pool.
    pub fn len(&self) -> usize {
        self.constants.len() + self.fresh.len()
    }

    /// Is the domain empty (no constants and no fresh values)?
    pub fn is_empty(&self) -> bool {
        self.constants.is_empty() && self.fresh.is_empty()
    }

    /// Is `v` one of the fresh (`New`) values?
    pub fn is_fresh(&self, v: &Value) -> bool {
        self.fresh.contains(v)
    }

    /// The id of `v`, if the catalog holds it (a binary search: setup
    /// work, never per valuation).
    pub fn id(&self, v: &Value) -> Option<u32> {
        let at = self.slots.partition_point(|&slot| self.slot(slot) < v);
        let &slot = self.slots.get(at)?;
        (self.slot(slot) == v).then_some(at as u32)
    }

    /// The value an id stands for.
    pub fn value(&self, id: u32) -> &Value {
        self.slot(self.slots[id as usize])
    }

    /// Number of ids: constants, fresh pool, and finite-domain extras.
    pub(crate) fn n_ids(&self) -> usize {
        self.slots.len()
    }

    /// The constants' ids, in the constants' (value) order.
    pub(crate) fn constant_ids(&self) -> &[u32] {
        &self.ids[..self.constants.len()]
    }

    /// The fresh pool's ids, in pool order.
    pub(crate) fn fresh_ids(&self) -> &[u32] {
        &self.ids[self.constants.len()..self.constants.len() + self.fresh.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_constraints::ConstraintSet;
    use ric_data::{RelationSchema, Schema, Tuple};
    use ric_query::parse_cq;

    #[test]
    fn adom_collects_all_sources_and_fresh_is_disjoint() {
        let schema =
            Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let r = schema.rel_id("R").unwrap();
        let mschema = Schema::from_relations(vec![RelationSchema::infinite("M", &["a"])]).unwrap();
        let m = mschema.rel_id("M").unwrap();
        let mut dm = Database::empty(&mschema);
        dm.insert(m, Tuple::new([Value::int(100)]));
        let setting = Setting::new(schema.clone(), mschema, dm, ConstraintSet::empty());
        let mut db = Database::empty(&schema);
        db.insert(r, Tuple::new([Value::int(1), Value::str("a")]));
        let q: Query = parse_cq(&schema, "Q(X) :- R(X, 7).").unwrap().into();
        let adom = Adom::build(&db, &setting, &q, 3).unwrap();
        assert!(adom.constants.contains(&Value::int(1)));
        assert!(adom.constants.contains(&Value::int(100)));
        assert!(adom.constants.contains(&Value::int(7)));
        assert!(adom.constants.contains(&Value::str("a")));
        assert_eq!(adom.fresh.len(), 3);
        for f in &adom.fresh {
            assert!(!adom.constants.contains(f));
            assert!(adom.is_fresh(f));
        }
        assert_eq!(adom.len(), adom.constants.len() + 3);
    }

    #[test]
    fn ids_number_the_catalog_in_value_order() {
        use ric_data::Attribute;
        let schema = Schema::from_relations(vec![RelationSchema::new(
            "B",
            vec![Attribute::boolean("x"), Attribute::new("y")],
        )])
        .unwrap();
        let b = schema.rel_id("B").unwrap();
        let setting = Setting::open_world(schema.clone());
        let mut db = Database::empty(&schema);
        db.insert(b, Tuple::new([Value::int(1), Value::str("a")]));
        let q: Query = parse_cq(&schema, "Q(Y) :- B(X, Y), Y != '0'.")
            .unwrap()
            .into();
        let adom = Adom::build(&db, &setting, &q, 2).unwrap();
        // Ids ascend with values and decode back to them.
        for id in 1..adom.n_ids() as u32 {
            assert!(adom.value(id - 1) < adom.value(id));
        }
        for (vals, ids) in [
            (&adom.constants, adom.constant_ids()),
            (&adom.fresh, adom.fresh_ids()),
        ] {
            for (v, &id) in vals.iter().zip(ids) {
                assert_eq!(adom.value(id), v);
                assert_eq!(adom.id(v), Some(id));
            }
        }
        // The boolean domain's 0 is numbered although no input mentions it,
        // apart from the string "0"; neither counts towards |Adom|.
        assert!(adom.id(&Value::int(0)).is_some());
        assert_ne!(adom.id(&Value::int(0)), adom.id(&Value::str("0")));
        assert_eq!(adom.n_ids(), adom.len() + 1);
        assert_eq!(adom.len(), adom.constants.len() + 2);
    }
}
