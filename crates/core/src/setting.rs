//! The `(D_m, V)` context shared by both decision problems.

use ric_constraints::ConstraintSet;
use ric_data::{Database, Schema};
use ric_query::tableau::TableauError;

/// Master data plus containment constraints, with both schemas.
///
/// A database `D` over [`Setting::schema`] is *partially closed* with respect
/// to the setting when `(D, D_m) |= V` ([`Setting::partially_closed`]).
#[derive(Clone, Debug, Hash)]
pub struct Setting {
    /// The database schema `R`.
    pub schema: Schema,
    /// The master-data schema `R_m`.
    pub master_schema: Schema,
    /// The master data `D_m` (closed world).
    pub dm: Database,
    /// The containment constraints `V`.
    pub v: ConstraintSet,
}

impl Setting {
    /// Build a setting; the master database must match the master schema in
    /// relation count (tuple-level checks are the caller's responsibility via
    /// `insert_checked`).
    pub fn new(schema: Schema, master_schema: Schema, dm: Database, v: ConstraintSet) -> Self {
        assert_eq!(
            dm.len(),
            master_schema.len(),
            "master data must have one instance per master relation"
        );
        Setting {
            schema,
            master_schema,
            dm,
            v,
        }
    }

    /// A setting with no master data and no constraints: the pure open-world
    /// case, where almost no query has a complete database.
    pub fn open_world(schema: Schema) -> Self {
        Setting {
            schema,
            master_schema: Schema::new(),
            dm: Database::with_relations(0),
            v: ConstraintSet::empty(),
        }
    }

    /// `(D, D_m) |= V`.
    pub fn partially_closed(&self, db: &Database) -> Result<bool, TableauError> {
        self.v.satisfied(db, &self.dm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_data::{RelationSchema, Tuple, Value};

    #[test]
    fn open_world_accepts_everything() {
        let schema = Schema::from_relations(vec![RelationSchema::infinite("R", &["a"])]).unwrap();
        let setting = Setting::open_world(schema.clone());
        let mut db = Database::empty(&schema);
        db.insert(schema.rel_id("R").unwrap(), Tuple::new([Value::int(1)]));
        assert!(setting.partially_closed(&db).unwrap());
    }

    #[test]
    #[should_panic(expected = "one instance per master relation")]
    fn master_mismatch_panics() {
        let schema = Schema::from_relations(vec![RelationSchema::infinite("R", &["a"])]).unwrap();
        let m = Schema::from_relations(vec![RelationSchema::infinite("M", &["a"])]).unwrap();
        let _ = Setting::new(
            schema,
            m,
            Database::with_relations(2),
            ConstraintSet::empty(),
        );
    }
}
