//! End-to-end test of the `ric-trace plan` pipeline: a real planned-engine
//! decision recorded through the JSONL sink parses back into a segment whose
//! [`ric_bench::plan_report`] names the join order, the per-atom estimates,
//! and the planned-vs-actual cardinalities.

use ric::prelude::*;
use ric::JsonlSink;
use ric_bench::plan_report::{parse_cards, plan_report};
use ric_bench::trace_load::parse_trace;

/// A setting whose constraint carries a CQ body (a two-atom join), so the
/// planned engine actually compiles plans — pure-IND sets short-circuit to
/// the containment fast path and plan nothing.
fn instance() -> (Setting, Query, Database) {
    let schema = Schema::from_relations(vec![
        RelationSchema::infinite("Supt", &["eid", "dept", "cid"]),
        RelationSchema::infinite("Dept", &["dept"]),
    ])
    .unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let dept = schema.rel_id("Dept").unwrap();
    let mschema =
        Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
    let dcust = mschema.rel_id("DCust").unwrap();
    let mut dm = Database::empty(&mschema);
    dm.insert(dcust, Tuple::new([Value::str("c1")]));
    dm.insert(dcust, Tuple::new([Value::str("c2")]));
    let body = parse_cq(&schema, "Q(C) :- Supt(E, D, C), Dept(D).").unwrap();
    let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Cq(body),
        dcust,
        vec![0],
    )]);
    let setting = Setting::new(schema.clone(), mschema, dm, v);
    let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', D, C).")
        .unwrap()
        .into();
    let mut db = Database::empty(&schema);
    db.insert(dept, Tuple::new([Value::str("d0")]));
    db.insert(
        supt,
        Tuple::new([Value::str("e0"), Value::str("d0"), Value::str("c1")]),
    );
    (setting, q, db)
}

fn record_trace(budget: &SearchBudget) -> String {
    let (setting, q, db) = instance();
    let sink = JsonlSink::new(Vec::new());
    let trace = TraceState::new();
    ric::try_rcdp_probed(
        &setting,
        &q,
        &db,
        budget,
        Probe::attached(&sink).with_trace(&trace),
    )
    .unwrap();
    String::from_utf8(sink.into_inner()).unwrap()
}

#[test]
fn planned_trace_reports_join_order_estimates_and_cardinalities() {
    let budget = SearchBudget::default().with_engine(Engine::planned(1));
    let segments = parse_trace(&record_trace(&budget)).expect("planned trace parses");
    assert_eq!(segments.len(), 1);
    let report = plan_report(&segments[0]).expect("a planned decision has a plan report");
    assert!(
        report.contains("compiled 1 constraint plan set(s)"),
        "one CQ-bodied constraint compiles: {report}"
    );
    // The join order names both body relations with per-atom estimates.
    assert!(report.contains("Supt["), "join order names Supt: {report}");
    assert!(report.contains("Dept["), "join order names Dept: {report}");
    assert!(
        report.contains("est="),
        "per-atom estimates render: {report}"
    );
    assert!(report.contains("cost="), "per-plan cost renders: {report}");
    // The cards note compares planner statistics with the decision database;
    // here they are the same database, so planned == actual.
    let cards_note = segments[0]
        .notes
        .iter()
        .find(|(name, _)| name == "plan.cards")
        .map(|(_, detail)| detail.as_str())
        .expect("planned decisions emit plan.cards");
    let cards = parse_cards(cards_note);
    assert_eq!(cards.len(), 2, "one row per body relation: {cards_note}");
    for row in &cards {
        assert_eq!(
            row.planned, row.actual,
            "stats db == decision db, so no drift: {cards_note}"
        );
        assert_eq!(row.planned, 1, "each body relation holds one tuple");
    }
    assert!(report.contains("1.00x"), "drift ratio renders: {report}");
}
