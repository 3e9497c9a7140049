//! Hierarchical decision tracing, end to end.
//!
//! Run with `cargo run --example trace_decision`. The example streams the
//! full event stream of two decisions — an RCDP completeness check and an
//! RCQP existence check — as JSONL to **stdout**, which is exactly the
//! format the `ric-trace` CLI ingests:
//!
//! ```text
//! cargo run -q --example trace_decision > trace.jsonl
//! cargo run -q -p ric-bench --bin ric-trace -- tree  trace.jsonl
//! cargo run -q -p ric-bench --bin ric-trace -- prune trace.jsonl
//! ```
//!
//! The structured [`Explain`] that rides on every `try_` verdict is rendered
//! to **stderr**, so the JSONL stream stays clean: stdout is the machine
//! artifact, stderr the human narration. The CI trace smoke step pipes
//! stdout into `ric-trace` and fails if either side stops parsing.

use ric::prelude::*;
use ric::JsonlSink;

fn main() {
    // ── The setting ────────────────────────────────────────────────────
    // Supt(eid, cid) bounded by the DCust master list; the database only
    // knows about a strict subset of the master customers, so the planted
    // answer is "incomplete".
    let schema =
        Schema::from_relations(vec![RelationSchema::infinite("Supt", &["eid", "cid"])]).unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let mschema =
        Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
    let dcust = mschema.rel_id("DCust").unwrap();
    let mut dm = Database::empty(&mschema);
    for c in 0..6 {
        dm.insert(dcust, Tuple::new([Value::str(format!("c{c}"))]));
    }
    let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Proj(Projection::new(supt, vec![1])),
        dcust,
        vec![0],
    )]);
    let setting = Setting::new(schema.clone(), mschema, dm, v);
    let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', C).").unwrap().into();
    let mut db = Database::empty(&schema);
    for c in 0..4 {
        db.insert(
            supt,
            Tuple::new([Value::str("e0"), Value::str(format!("c{c}"))]),
        );
    }

    // ── The traced decisions ───────────────────────────────────────────
    // One JSONL sink over stdout, one TraceState shared by both decisions:
    // span ids grow monotonically across the stream, and each decision
    // opens its own root `decision` span (parent 0) — the segmentation
    // marker `ric-trace` cuts on.
    let sink = JsonlSink::new(std::io::stdout());
    let trace = TraceState::new();
    let budget = SearchBudget::default();

    let rcdp_decision = Request::new(&setting)
        .budget(&budget)
        .probe(Probe::attached(&sink).with_trace(&trace))
        .rcdp(&q, &db)
        .expect("well-formed instance");

    let rcqp_decision = Request::new(&setting)
        .budget(&budget)
        .probe(Probe::attached(&sink).with_trace(&trace))
        .rcqp(&q)
        .expect("well-formed instance");
    sink.flush();

    // ── The Explain artifacts ──────────────────────────────────────────
    // Same data, already rebuilt in process: span tree with both timebases,
    // outcome, counters. Printed to stderr to keep stdout machine-clean.
    eprintln!("RCDP verdict: {}", rcdp_decision.verdict);
    eprintln!("{}", rcdp_decision.explain.render());
    eprintln!("RCQP verdict: {}", rcqp_decision.verdict);
    eprintln!("{}", rcqp_decision.explain.render());
}
