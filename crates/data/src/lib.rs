//! # `ric-data` — relational substrate
//!
//! The data model underlying the *relative information completeness* framework
//! of Fan & Geerts (PODS 2009 / TODS 2010):
//!
//! * [`Value`] — constants drawn from either a countably infinite domain or a
//!   finite domain (the paper's `d` and `d_f`, Section 2.1);
//! * [`DomainKind`] — per-attribute domain declaration;
//! * [`Schema`] / [`RelationSchema`] / [`Attribute`] — relational schemas `R`
//!   and `R_m` (database and master data share the same machinery);
//! * [`Tuple`], [`Instance`], [`Database`] — instances with set semantics,
//!   the containment order `D ⊆ D′`, and extension construction;
//! * [`FreshValues`] — allocation of values guaranteed not to occur in any of
//!   the inputs, used to build the `New` part of `Adom` (Section 3.2);
//! * [`SplitMix64`] — a small deterministic PRNG for workload generation
//!   (the workspace builds offline, so there is no `rand` dependency).
//!
//! Everything here is deliberately simple and allocation-conscious: tuples are
//! boxed slices, instances are ordered sets (deterministic iteration makes the
//! deciders reproducible), and values intern small integers without heap use.

pub mod database;
pub mod error;
pub mod fresh;
pub mod index;
pub mod intern;
pub mod overlay;
pub mod rng;
pub mod schema;
pub mod stats;
pub mod store;
pub mod value;

pub use database::{Database, Instance, Tuple};
pub use error::DataError;
pub use fresh::FreshValues;
pub use index::ColumnIndex;
pub use overlay::Overlay;
pub use rng::SplitMix64;
pub use schema::{Attribute, DomainKind, RelId, RelationSchema, Schema};
pub use stats::RelStats;
pub use store::TupleStore;
pub use value::Value;
