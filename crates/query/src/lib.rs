//! # `ric-query` — query languages of the relative-completeness framework
//!
//! The paper parameterises both decision problems by a query language `L_Q`
//! and a constraint language `L_C`, ranging over (Section 2.1):
//!
//! * **CQ** — conjunctive queries with `=` and `≠` ([`cq::Cq`]);
//! * **UCQ** — unions of conjunctive queries ([`ucq::Ucq`]);
//! * **∃FO⁺** — positive existential first-order queries ([`efo::EfoQuery`]);
//! * **FO** — full first-order queries ([`fo::FoQuery`]);
//! * **FP** — datalog with an inflationary fixpoint ([`datalog::Program`]).
//!
//! Every language comes with a set-semantics evaluator. CQ additionally gets
//! the *tableau representation* `(T_Q, u_Q)` of Section 3.2
//! ([`tableau::Tableau`]), which is what the deciders enumerate valuations
//! over, and the Lemma 3.2 single-relation transform ([`single_rel`]).
//!
//! A small text parser ([`parser`]) accepts datalog-style rule syntax for CQ,
//! UCQ, and FP so that examples and tests stay readable.

pub mod canon;
pub mod containment;
pub mod cq;
pub mod datalog;
pub mod efo;
pub mod eval;
pub mod fo;
pub mod parser;
pub mod single_rel;
pub mod tableau;
pub mod term;
pub mod ucq;

pub use canon::CanonDb;
pub use cq::{Atom, Cq};
pub use datalog::{Literal, Program, Rule};
pub use efo::{EfoExpr, EfoQuery};
pub use eval::QueryLanguage;
pub use fo::{FoExpr, FoQuery};
pub use parser::{parse_cq, parse_program, parse_ucq, ParseError};
pub use tableau::{Tableau, Valuation};
pub use term::{Term, Var};
pub use ucq::Ucq;
