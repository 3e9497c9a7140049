//! # `ric-complete` — relative information completeness
//!
//! The paper's primary contribution (Fan & Geerts, PODS 2009 / TODS 2010):
//! decide whether a *partially closed* database has complete information for
//! a query, relative to master data and containment constraints.
//!
//! * [`Setting`] bundles the database schema `R`, master schema `R_m`, master
//!   data `D_m`, and the constraint set `V` — the "(D_m, V)" of the paper.
//! * [`rcdp::rcdp`] decides **RCDP**: is `D ∈ RCQ(Q, D_m, V)`? Exact for
//!   `L_Q, L_C` among INDs/CQ/UCQ/∃FO⁺ (the Σᵖ₂ cells of Table I, via the
//!   characterizations C1–C4); bounded semi-decision for FO/FP (undecidable
//!   cells, Theorem 3.1).
//! * [`rcqp::rcqp`] decides **RCQP**: is `RCQ(Q, D_m, V)` nonempty? Syntactic
//!   E3/E4 check when `L_C` is INDs (coNP, Proposition 4.3); small-model
//!   search certified by RCDP otherwise (NEXPTIME, Proposition 4.2).
//! * [`characterize`] exposes the characterizations themselves — bounded
//!   databases (C1–C4) and bounded queries (E1–E6) — as checkable predicates.
//! * [`extend::complete_extension`] implements the Section 2.3 paradigm
//!   "guidance for what data should be collected": greedily grow `D` until it
//!   is complete for `Q`, reporting the added tuples.
//! * [`semidecide`] hosts the bounded extension search used for the FO/FP
//!   cells: it can certify *incompleteness* with a witness and otherwise
//!   reports how far it searched.
//!
//! Every decider runs on one of two [`Engine`]s: `Naive`, the oracle that
//! materializes every candidate union, or `Planned`, which checks candidates
//! incrementally through compiled constraint plans. Both return the same
//! verdicts, and both run every search on the calling thread.
//!
//! Every positive verdict carries a checkable certificate: `Incomplete` holds
//! a violating extension Δ with `(D ∪ Δ, D_m) |= V` and `Q(D ∪ Δ) ≠ Q(D)`;
//! `Nonempty` holds a database that the RCDP decider certifies complete.
//!
//! ## One request per decision
//!
//! Every decision is a [`Request`]: a source ([`Setting`] or
//! [`PreparedSetting`]) plus an optional [`SearchBudget`], caller-owned
//! [`Guard`] (deadline, [`CancelToken`], fault plan), telemetry probe, and
//! prior [`Checkpoint`], run to [`Request::rcdp`] or [`Request::rcqp`].
//! [`rcdp()`] and [`rcqp()`] are the one-line forms with a budget only.
//!
//! ## Observability
//!
//! Every `Unknown` verdict carries a [`SearchStats`] naming the specific
//! [`BudgetLimit`] that ended the search. For live insight into a running
//! decision, [`Request::probe`] attaches a [`ric_telemetry::Probe`]: attach
//! a [`ric_telemetry::Collector`] to get counters (valuations enumerated,
//! candidates built, CC checks, query evaluations), gauges (active-domain
//! size, pool size), and per-phase span timings. A request without a probe
//! runs with a disabled one, which costs one branch per emission site.

pub mod adom;
pub mod budget;
pub mod characterize;
mod check;
pub mod checkpoint;
pub mod extend;
pub mod guard;
pub mod prepared;
pub mod query;
pub mod rcdp;
pub mod rcqp;
pub mod request;
pub mod semidecide;
pub mod setting;
pub mod valuations;
pub mod verdict;

pub use adom::Adom;
pub use budget::{Engine, Meter, MeterKind, SearchBudget};
pub use checkpoint::{
    rcdp_fingerprint, rcqp_fingerprint, Checkpoint, CheckpointError, DecisionKind, Frontier,
    Progress, CHECKPOINT_VERSION,
};
pub use guard::{CancelToken, FaultPlan, Guard, Interrupt};
pub use prepared::PreparedSetting;
pub use query::Query;
pub use rcdp::rcdp;
pub use rcqp::rcqp;
pub use request::{Outcome, Request, Source};
pub use setting::Setting;
pub use verdict::{BudgetLimit, CounterExample, QueryVerdict, RcError, SearchStats, Verdict};
