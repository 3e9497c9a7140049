//! # `ric-telemetry` — structured search telemetry
//!
//! The deciders in `ric-complete` run exponential searches whose *shape* —
//! how many valuations were enumerated, how many candidate witnesses were
//! built, which budget limit cut the search short — is the evaluation
//! substrate of the whole reproduction (Tables I and II are complexity
//! tables). This crate provides the measurement layer:
//!
//! * [`Probe`] — a cheap handle threaded through the decision stack. The
//!   default ([`Probe::disabled`]) is a `None` niche; every emission site
//!   first checks a single pointer, so disabled probes cost one predictable
//!   branch and no allocation.
//! * [`Event`] — the structured event vocabulary: named counters, gauges,
//!   span timings, and notes.
//! * [`Sink`] — where events go. Three implementations ship:
//!   [`Collector`] (in-memory aggregation for programmatic inspection),
//!   [`PrettySink`] (human-readable stream to any `io::Write`), and
//!   [`JsonlSink`] (line-delimited JSON, hand-rolled — the workspace builds
//!   fully offline, so there is no serde).
//! * [`json`] — a tiny JSON value model with a writer and a parser, shared
//!   by the JSONL sink and the `regen_tables` table artifacts.
//! * [`trace`] — hierarchical span trees. Probes carrying a [`TraceState`]
//!   assign parent/child ids to spans; [`Explain`] rebuilds the decision
//!   tree from the event stream and rides on every facade verdict.
//!
//! No external dependencies, std only.

pub mod json;
pub mod probe;
pub mod sink;
pub mod trace;

pub use json::Json;
pub use probe::{Event, Probe, SpanGuard, TickSource, TraceState};
pub use sink::{
    Collector, FaultSink, InterruptRecord, JsonlSink, PrettySink, Report, Sink, TeeSink,
};
pub use trace::{top_k_counters, Explain, SpanRecord, SpanTree, TraceError, TreeBuilder};
