//! Relational schemas.
//!
//! A database is specified by a relational schema `R = (R_1, …, R_n)`; master
//! data by a schema `R_m` (Section 2.1). Each attribute declares its domain:
//! the countably infinite domain `d` or a finite domain `d_f` with at least
//! two elements. The deciders in `ric-complete` consult these declarations
//! when building active domains for variables (`adom(y)`, Section 3.2).

use crate::error::DataError;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Identifies a relation inside a [`Schema`] by position.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RelId(pub usize);

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// The domain an attribute draws its values from.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum DomainKind {
    /// The countably infinite domain `d`.
    Infinite,
    /// A finite domain `d_f`; the paper requires at least two elements.
    Finite(Arc<[Value]>),
}

impl DomainKind {
    /// A finite domain from an explicit value list.
    pub fn finite(values: impl IntoIterator<Item = Value>) -> Self {
        DomainKind::Finite(values.into_iter().collect())
    }

    /// The Boolean domain `{0, 1}`, ubiquitous in the hardness reductions.
    pub fn boolean() -> Self {
        DomainKind::finite([Value::int(0), Value::int(1)])
    }

    /// Is this the infinite domain?
    pub fn is_infinite(&self) -> bool {
        matches!(self, DomainKind::Infinite)
    }

    /// The values of a finite domain, or `None` for the infinite domain.
    pub fn finite_values(&self) -> Option<&[Value]> {
        match self {
            DomainKind::Infinite => None,
            DomainKind::Finite(vs) => Some(vs),
        }
    }

    /// Does the domain admit `v`? (The infinite domain admits everything.)
    pub fn admits(&self, v: &Value) -> bool {
        match self {
            DomainKind::Infinite => true,
            DomainKind::Finite(vs) => vs.contains(v),
        }
    }
}

/// A named, typed attribute.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct Attribute {
    /// Attribute name, unique within its relation.
    pub name: String,
    /// Declared domain.
    pub domain: DomainKind,
}

impl Attribute {
    /// An attribute over the infinite domain.
    pub fn new(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            domain: DomainKind::Infinite,
        }
    }

    /// An attribute over an explicit finite domain.
    pub fn finite(name: impl Into<String>, values: impl IntoIterator<Item = Value>) -> Self {
        Attribute {
            name: name.into(),
            domain: DomainKind::finite(values),
        }
    }

    /// A Boolean attribute.
    pub fn boolean(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            domain: DomainKind::boolean(),
        }
    }
}

/// A relation schema: a name plus an ordered attribute list.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct RelationSchema {
    /// Relation name, unique within its [`Schema`].
    pub name: String,
    /// Ordered attributes.
    pub attributes: Vec<Attribute>,
}

impl RelationSchema {
    /// Build a relation schema.
    pub fn new(name: impl Into<String>, attributes: Vec<Attribute>) -> Self {
        RelationSchema {
            name: name.into(),
            attributes,
        }
    }

    /// Convenience: all attributes over the infinite domain.
    pub fn infinite(name: impl Into<String>, attrs: &[&str]) -> Self {
        RelationSchema::new(name, attrs.iter().map(|a| Attribute::new(*a)).collect())
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Position of an attribute by name.
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == name)
    }
}

/// A relational schema `R = (R_1, …, R_n)`.
///
/// Used for both the database schema `R` and the master-data schema `R_m`;
/// the two are kept as *separate* `Schema` values throughout the workspace.
#[derive(Clone, PartialEq, Eq, Debug, Default, Hash)]
pub struct Schema {
    relations: Vec<RelationSchema>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Build from a relation list, validating name uniqueness.
    pub fn from_relations(relations: Vec<RelationSchema>) -> Result<Self, DataError> {
        let mut s = Schema::new();
        for r in relations {
            s.add_relation(r)?;
        }
        Ok(s)
    }

    /// Add a relation; fails on a duplicate name.
    pub fn add_relation(&mut self, rel: RelationSchema) -> Result<RelId, DataError> {
        if self.relations.iter().any(|r| r.name == rel.name) {
            return Err(DataError::DuplicateRelation(rel.name));
        }
        self.relations.push(rel);
        Ok(RelId(self.relations.len() - 1))
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Look up a relation schema by id.
    pub fn relation(&self, id: RelId) -> Result<&RelationSchema, DataError> {
        self.relations
            .get(id.0)
            .ok_or(DataError::UnknownRelation(id))
    }

    /// Look up a relation id by name.
    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.relations
            .iter()
            .position(|r| r.name == name)
            .map(RelId)
    }

    /// Iterate `(RelId, &RelationSchema)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (RelId, &RelationSchema)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (RelId(i), r))
    }

    /// Arity of a relation.
    pub fn arity(&self, id: RelId) -> Result<usize, DataError> {
        Ok(self.relation(id)?.arity())
    }

    /// The declared domain of column `col` of relation `id`.
    pub fn domain(&self, id: RelId, col: usize) -> Result<&DomainKind, DataError> {
        let rel = self.relation(id)?;
        rel.attributes
            .get(col)
            .map(|a| &a.domain)
            .ok_or(DataError::ColumnOutOfRange {
                rel: id,
                col,
                arity: rel.arity(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::from_relations(vec![
            RelationSchema::infinite("Supt", &["eid", "dept", "cid"]),
            RelationSchema::new("Flag", vec![Attribute::boolean("b"), Attribute::new("x")]),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_by_name_and_id() {
        let s = sample();
        let supt = s.rel_id("Supt").unwrap();
        assert_eq!(supt, RelId(0));
        assert_eq!(s.relation(supt).unwrap().arity(), 3);
        assert_eq!(s.relation(supt).unwrap().attr_index("cid"), Some(2));
        assert!(s.rel_id("Nope").is_none());
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut s = sample();
        let err = s
            .add_relation(RelationSchema::infinite("Supt", &["a"]))
            .unwrap_err();
        assert!(matches!(err, DataError::DuplicateRelation(_)));
    }

    #[test]
    fn domains() {
        let s = sample();
        let flag = s.rel_id("Flag").unwrap();
        assert!(!s.domain(flag, 0).unwrap().is_infinite());
        assert!(s.domain(flag, 1).unwrap().is_infinite());
        assert!(s.domain(flag, 2).is_err());
        let b = s.domain(flag, 0).unwrap();
        assert!(b.admits(&Value::int(0)));
        assert!(!b.admits(&Value::int(2)));
        assert_eq!(b.finite_values().unwrap().len(), 2);
    }

    #[test]
    fn unknown_relation_id() {
        let s = sample();
        assert!(s.relation(RelId(99)).is_err());
    }
}
