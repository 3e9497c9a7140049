//! # `ric` — relative information completeness
//!
//! A Rust implementation of *Relative Information Completeness* (Wenfei Fan
//! and Floris Geerts, PODS 2009 / ACM TODS 35(4), 2010): given master data
//! `D_m` and containment constraints `V`, decide whether a partially closed
//! database `D` has complete information to answer a query `Q`
//! ([`rcdp`](fn@rcdp)), and whether *any* such database exists
//! ([`rcqp`](fn@rcqp)).
//!
//! ```
//! use ric::prelude::*;
//!
//! // Master data: the complete list of domestic customers.
//! let schema = Schema::from_relations(vec![
//!     RelationSchema::infinite("Supt", &["eid", "dept", "cid"]),
//! ]).unwrap();
//! let supt = schema.rel_id("Supt").unwrap();
//! let master = Schema::from_relations(vec![
//!     RelationSchema::infinite("DCust", &["cid"]),
//! ]).unwrap();
//! let dcust = master.rel_id("DCust").unwrap();
//! let mut dm = Database::empty(&master);
//! dm.insert(dcust, Tuple::new([Value::str("c1")]));
//! dm.insert(dcust, Tuple::new([Value::str("c2")]));
//!
//! // Constraint: supported customers are bounded by the master list.
//! let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
//!     CcBody::Proj(Projection::new(supt, vec![2])), dcust, vec![0],
//! )]);
//! let setting = Setting::new(schema.clone(), master, dm, v);
//!
//! // The database currently only knows about c1.
//! let mut db = Database::empty(&schema);
//! db.insert(supt, Tuple::new([Value::str("e0"), Value::str("d"), Value::str("c1")]));
//!
//! // Is the answer to "customers supported by e0" complete?
//! let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', D, C).").unwrap().into();
//! let verdict = rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap();
//! assert!(verdict.is_incomplete()); // c2 could still appear
//! ```
//!
//! The crate is a facade over the workspace:
//!
//! * [`data`] — values, domains, schemas, databases;
//! * [`query`] — CQ, UCQ, ∃FO⁺, FO, and datalog with evaluators and parser;
//! * [`constraints`] — containment constraints and classical integrity
//!   constraints with the Proposition 2.1 compilers;
//! * [`complete`] — the RCDP/RCQP deciders, characterizations, witnesses;
//! * [`reductions`] — the hardness constructions as instance generators;
//! * [`mdm`] — master-data-management scenarios and the Section 2.3
//!   paradigms;
//! * [`telemetry`] — the [`Probe`]/[`Sink`] observability layer: attach a
//!   [`Collector`] to a [`Request`] with [`Request::probe`] for counters,
//!   span timings, and decision notes (see `examples/observe_search.rs`);
//! * [`monitor`] — streaming incremental monitoring: a [`Monitor`] keeps
//!   many registered settings' RCDP verdicts continuously up to date across
//!   a transactional insert/delete stream, with footprint-based skipping,
//!   Complete anchors, overlay recertification of counterexamples, and an
//!   exact one-step undo (see
//!   `examples/monitor_stream.rs` and DESIGN.md §12);
//! * [`analysis`] — the static pass in front of the deciders: typed
//!   diagnostics (`RIC001`…) and certified minimal-fragment classification.
//!   [`analyze`] produces the [`AnalysisReport`]; [`Request::analyzed`]
//!   rejects Error-level settings and dispatches certified downgrades to
//!   the cheapest Table I/II cell (see `examples/analyze_setting.rs` and
//!   DESIGN.md §9). Analysis does not reason: the symbolic reasoner runs
//!   once, in [`ReasonedSetting::prepare`], and
//!   [`analysis::reason_diagnostics`] renders its
//!   [`facts`](ReasonedSetting::facts) as `RIC040`–`RIC044`.
//!
//! ## Robustness
//!
//! Decisions can run for a long time (the decidable cells are Σᵖ₂ /
//! NEXPTIME-complete). Beyond the count budgets, [`SearchBudget::deadline`]
//! adds a wall-clock limit, a [`CancelToken`] aborts an in-flight decision
//! from another thread, and every [`Request`] converts panics into a typed
//! [`DecisionError`] instead of unwinding. All of these degrade to `Unknown`
//! (or a typed error) — never a wrong answer. An `Unknown` on a resumable
//! limit carries a [`Checkpoint`]; [`Request::resume`] continues the search
//! from it. See `examples/guarded_decisions.rs` and the "Robustness &
//! degradation semantics" section of `DESIGN.md`.
//!
//! ## One request per decision
//!
//! [`rcdp`](fn@rcdp) and [`rcqp`](fn@rcqp) are the one-line core forms. A
//! [`Request`] is the facade's full form: a source (a [`Setting`], a
//! [`PreparedSetting`] from [`prepare`], or a [`ReasonedSetting`]), or
//! [`Request::analyzed`] for the analysis gate, plus an optional budget,
//! [`Guard`], [`Probe`], and prior checkpoint. Its two terminals,
//! [`Request::rcdp`] and [`Request::rcqp`], return a [`Decision`]: verdict,
//! [`Explain`], and checkpoint.

mod analyzed;
mod guard;
mod prepared;
mod reasoned;
mod request;

pub use analyzed::analyze;
pub use guard::{Decision, DecisionError};
pub use prepared::{prepare, try_rcqp_prepared, try_rcqp_prepared_probed};
pub use reasoned::{try_rcdp_static, try_rcdp_static_probed, ReasonedSetting};
pub use request::{Request, Source};

pub use ric_analysis as analysis;
pub use ric_complete as complete;
pub use ric_constraints as constraints;
pub use ric_data as data;
pub use ric_mdm as mdm;
pub use ric_monitor as monitor;
pub use ric_plan as plan;
pub use ric_query as query;
pub use ric_reason as reason;
pub use ric_reductions as reductions;
pub use ric_telemetry as telemetry;

pub use ric_analysis::{AnalysisReport, Classification, Code, Diagnostic, Pointer, Severity};
pub use ric_complete::{
    rcdp, rcdp_fingerprint, rcqp, rcqp_fingerprint, BudgetLimit, CancelToken, Checkpoint,
    CheckpointError, DecisionKind, Engine, FaultPlan, Frontier, Guard, Interrupt, MeterKind,
    PreparedSetting, Progress, Query, QueryVerdict, RcError, SearchBudget, SearchStats, Setting,
    Verdict, CHECKPOINT_VERSION,
};
pub use ric_data::SplitMix64;
pub use ric_monitor::{
    Monitor, MonitorCounters, MonitorError, Op, SettingId, SettingVerdict, Status, Target, Txn,
    VerdictChange,
};
pub use ric_reason::{CapKind, CardinalityCap, CoverFact, ImpliedCc, ReasonNote, StaticFacts};
pub use ric_telemetry::{
    Collector, Event, Explain, FaultSink, JsonlSink, PrettySink, Probe, Report, Sink, SpanTree,
    TeeSink, TraceState,
};

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::analyzed::analyze;
    pub use crate::guard::{Decision, DecisionError};
    pub use crate::prepared::prepare;
    pub use crate::reasoned::ReasonedSetting;
    pub use crate::request::Request;
    pub use ric_analysis::{AnalysisReport, Code, Diagnostic, Pointer, Severity};
    pub use ric_complete::{
        rcdp, rcqp, BudgetLimit, CancelToken, Checkpoint, CheckpointError, CounterExample,
        DecisionKind, Engine, FaultPlan, Guard, Interrupt, MeterKind, PreparedSetting, Query,
        QueryVerdict, RcError, SearchBudget, SearchStats, Setting, Verdict,
    };
    pub use ric_constraints::{
        CcBody, CcRhs, Cfd, Cind, ConstraintSet, ContainmentConstraint, Denial, Fd, IndCc,
        LowerBound, Projection,
    };
    pub use ric_data::{
        Attribute, Database, DomainKind, RelId, RelationSchema, Schema, Tuple, Value,
    };
    pub use ric_monitor::{
        Monitor, MonitorCounters, MonitorError, Op, SettingId, SettingVerdict, Status, Target, Txn,
        VerdictChange,
    };
    pub use ric_query::{parse_cq, parse_program, parse_ucq, Cq, Term, Ucq, Var};
    pub use ric_reason::{ReasonNote, StaticFacts};
    pub use ric_telemetry::{Collector, Explain, Probe, Report, Sink, TraceState};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let schema = Schema::from_relations(vec![RelationSchema::infinite("R", &["a"])]).unwrap();
        let setting = Setting::open_world(schema.clone());
        let q: Query = parse_cq(&schema, "Q(X) :- R(X).").unwrap().into();
        let db = Database::empty(&schema);
        let verdict = rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap();
        assert!(verdict.is_incomplete());
    }
}
