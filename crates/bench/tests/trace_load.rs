//! Hardening tests for the `ric-trace` ingestion path ([`ric_bench::trace_load`]):
//! a real traced decision stream parses into segments, and every way the
//! stream can be damaged — torn mid-record by a dying writer, non-JSON
//! garbage, missing or mistyped fields, unknown kinds, events before any
//! decision span — is a typed [`TraceLoadError`] carrying the 1-based line
//! number, never a panic.

use ric::prelude::*;
use ric::JsonlSink;
use ric_bench::trace_load::{load_trace, parse_trace, TraceLoadError};

/// A real trace: one RCDP decision recorded through a traced JSONL sink,
/// exactly what a probed facade `Request` leaves behind in a trace file.
fn fixture_trace() -> String {
    let schema =
        Schema::from_relations(vec![RelationSchema::infinite("Supt", &["eid", "cid"])]).unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let mschema =
        Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
    let dcust = mschema.rel_id("DCust").unwrap();
    let mut dm = Database::empty(&mschema);
    dm.insert(dcust, Tuple::new([Value::str("c1")]));
    dm.insert(dcust, Tuple::new([Value::str("c2")]));
    let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Proj(Projection::new(supt, vec![1])),
        dcust,
        vec![0],
    )]);
    let setting = Setting::new(schema.clone(), mschema, dm, v);
    let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', C).").unwrap().into();
    let mut db = Database::empty(&schema);
    db.insert(supt, Tuple::new([Value::str("e0"), Value::str("c1")]));

    let sink = JsonlSink::new(Vec::new());
    let trace = TraceState::new();
    ric::Request::new(&setting)
        .budget(&SearchBudget::default())
        .probe(Probe::attached(&sink).with_trace(&trace))
        .rcdp(&q, &db)
        .unwrap();
    String::from_utf8(sink.into_inner()).unwrap()
}

#[test]
fn a_real_traced_decision_parses_into_one_segment() {
    let text = fixture_trace();
    let segments = parse_trace(&text).expect("the fixture trace must parse");
    assert_eq!(segments.len(), 1, "one decision, one segment");
    let seg = &segments[0];
    assert_eq!(seg.outcome(), Some("incomplete"));
    assert!(seg.counters.get("rcdp.valuations").copied().unwrap_or(0) >= 1);
    let tree = seg.tree.clone().finish();
    tree.require_decision()
        .expect("a well-formed decision tree");
    assert_eq!(tree.roots().len(), 1);
}

#[test]
fn a_record_torn_mid_write_reports_its_line_number() {
    let text = fixture_trace();
    // Kill the process mid-write: keep line 1 whole and tear line 2 in half.
    let first_nl = text.find('\n').expect("fixture has multiple lines");
    let second_len = text[first_nl + 1..]
        .find('\n')
        .expect("fixture has multiple lines");
    assert!(second_len >= 2, "line 2 long enough to tear");
    let torn = &text[..first_nl + 1 + second_len / 2];
    let err = parse_trace(torn).expect_err("a torn record must not parse");
    assert_eq!(err.line, 2, "the tear is on line 2: {err}");
    assert!(
        err.to_string().starts_with("line 2: "),
        "display locates the line: {err}"
    );
}

#[test]
fn every_truncation_of_a_valid_trace_is_a_typed_error_or_a_valid_prefix() {
    let text = fixture_trace();
    for cut in 0..text.len() {
        if !text.is_char_boundary(cut) {
            continue;
        }
        // Must never panic; a prefix that happens to end on a record
        // boundary may legitimately parse (fewer events, same shape).
        let _ = parse_trace(&text[..cut]);
    }
}

#[test]
fn garbage_and_schema_violations_carry_the_offending_line() {
    let root = r#"{"kind":"span_open","name":"decision","id":1,"parent":0,"at_tick":0}"#;
    for (doc, line, needle) in [
        ("not json at all".to_string(), 1, "line 1"),
        (format!("{root}\nnot json at all"), 2, "line 2"),
        (
            format!("{root}\n{{\"kind\":\"count\",\"name\":\"x\"}}"),
            2,
            "missing field \"delta\"",
        ),
        (
            format!("{root}\n{{\"kind\":\"count\",\"name\":\"x\",\"delta\":-1}}"),
            2,
            "not a non-negative integer",
        ),
        (
            format!("{root}\n{{\"kind\":\"count\",\"name\":7,\"delta\":1}}"),
            2,
            "not a string",
        ),
        (
            format!("{root}\n{{\"kind\":\"wat\"}}"),
            2,
            "unknown event kind",
        ),
        ("{\"kind\":\"wat\"}".to_string(), 1, "unknown event kind"),
    ] {
        let err = parse_trace(&doc).expect_err(&format!("{doc:?} must be rejected"));
        assert_eq!(err.line, line, "wrong line for {doc:?}: {err}");
        assert!(
            err.to_string().contains(needle),
            "error for {doc:?} should mention {needle:?}: {err}"
        );
    }
}

#[test]
fn events_before_any_decision_span_are_rejected() {
    let err = parse_trace(r#"{"kind":"count","name":"x","delta":1}"#)
        .expect_err("a counter before any root span must be rejected");
    assert_eq!(err.line, 1);
    assert!(
        err.to_string().contains("before any root decision span"),
        "{err}"
    );
}

#[test]
fn empty_and_unreadable_traces_are_whole_file_errors() {
    let err = parse_trace("").expect_err("an empty trace has no decisions");
    assert_eq!(
        err,
        TraceLoadError {
            line: 0,
            message: "no decision spans found".to_string(),
        }
    );
    assert_eq!(err.to_string(), "no decision spans found");

    let err = load_trace("/nonexistent/ric-trace-fixture.jsonl")
        .expect_err("a missing file must be a typed error");
    assert_eq!(err.line, 0);
    assert!(
        err.to_string()
            .contains("/nonexistent/ric-trace-fixture.jsonl"),
        "the error names the path: {err}"
    );
}
