//! Static analysis in front of the deciders.
//!
//! Run with `cargo run --example analyze_setting`.
//!
//! Builds a small support setting whose query is written in FO syntax but is
//! really a conjunctive query, runs `ric::analyze` to get the diagnostic
//! report and the proven fragment downgrades, and then lets the
//! analysis-gated request `Request::analyzed` dispatch the decision to the
//! cheap Σᵖ₂ CQ cell of Table I. A second, deliberately broken setting
//! shows the Error path: the gated request rejects it with
//! `DecisionError::Rejected` before any search starts.

use ric::prelude::*;
use ric::query::{Atom, EfoExpr, FoExpr, FoQuery};

fn main() {
    // ── A support setting with an FO-wrapped CQ ────────────────────────
    // Schema: Supt(eid, cid) — who supports whom; Pref(cid) — preferred
    // customers. Master data: DCust(cid), the complete domestic list.
    let schema = Schema::from_relations(vec![
        RelationSchema::infinite("Supt", &["eid", "cid"]),
        RelationSchema::infinite("Pref", &["cid"]),
    ])
    .unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let pref = schema.rel_id("Pref").unwrap();
    let master = Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
    let dcust = master.rel_id("DCust").unwrap();
    let mut dm = Database::empty(&master);
    for c in ["c1", "c2", "c3"] {
        dm.insert(dcust, Tuple::new([Value::str(c)]));
    }

    // Constraint, written as a CQ even though it is projection-shaped:
    // Q(C) :- Supt(E, C), contained in DCust. The analyzer will prove it
    // down to an inclusion dependency.
    let cc_body = parse_cq(&schema, "Q(C) :- Supt(E, C).").unwrap();
    let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Cq(cc_body),
        dcust,
        vec![0],
    )]);
    let setting = Setting::new(schema.clone(), master.clone(), dm, v);

    // The query, in FO syntax: Q(c) := ∃e (Supt(e, c) ∧ ¬¬Pref(c)).
    // Semantically this is the CQ Q(C) :- Supt(E, C), Pref(C).
    let (c, e) = (Var(0), Var(1));
    let fo = FoQuery::new(
        vec![c],
        FoExpr::Exists(
            vec![e],
            Box::new(FoExpr::And(vec![
                FoExpr::Atom(Atom::new(supt, vec![Term::Var(e), Term::Var(c)])),
                FoExpr::not(FoExpr::not(FoExpr::Atom(Atom::new(
                    pref,
                    vec![Term::Var(c)],
                )))),
            ])),
        ),
        vec!["c".into(), "e".into()],
    );
    let query = Query::Fo(fo);

    // ── The report ─────────────────────────────────────────────────────
    let report = analyze(&setting, &query);
    println!("diagnostics:");
    for d in &report.diagnostics {
        println!("  {d}");
    }
    println!(
        "query fragment: declared {:?}, proven minimal {:?}",
        report.query.declared, report.query.minimal
    );
    println!("downgrades applied: {}", report.downgrade_count());

    // ── The gated decision ─────────────────────────────────────────────
    let mut db = Database::empty(&schema);
    db.insert(supt, Tuple::new([Value::str("e0"), Value::str("c1")]));
    db.insert(pref, Tuple::new([Value::str("c1")]));

    let collector = Collector::new();
    let decision = Request::analyzed(&setting)
        .budget(&SearchBudget::default())
        .probe(Probe::attached(&collector))
        .rcdp(&query, &db)
        .expect("analysis-gated rcdp");
    println!(
        "\nverdict (dispatched to the {:?} cell): {}",
        report.query.minimal, decision.verdict
    );
    println!(
        "analysis.downgrade counter: {}",
        collector.report().counter("analysis.downgrade")
    );

    // ── The Error path ─────────────────────────────────────────────────
    // Same query with the quantifier dropped: e is now unbound — unsafe FO
    // that would error deep inside the evaluator. The gate rejects it with
    // a typed report instead.
    let broken = Query::Fo(FoQuery::new(
        vec![c],
        FoExpr::Atom(Atom::new(supt, vec![Term::Var(e), Term::Var(c)])),
        vec!["c".into(), "e".into()],
    ));
    match Request::analyzed(&setting)
        .budget(&SearchBudget::default())
        .rcdp(&broken, &db)
        .map(|d| d.verdict)
    {
        Err(DecisionError::Rejected(report)) => {
            println!("\nbroken query rejected before any search:");
            for d in report.errors() {
                println!("  {d}");
            }
        }
        other => panic!("expected rejection, got {other:?}"),
    }

    // ∃FO⁺ queries also classify: a disjunction of atoms is a genuine UCQ.
    let efo = EfoExpr::Or(vec![
        EfoExpr::Atom(Atom::new(pref, vec![Term::Var(c)])),
        EfoExpr::Atom(Atom::new(pref, vec![Term::Var(c)])),
    ]);
    let efo_q = Query::Efo(ric::query::EfoQuery::new(
        vec![Term::Var(c)],
        efo,
        vec!["c".into()],
    ));
    let report = analyze(&setting, &efo_q);
    println!(
        "\n∃FO⁺ disjunction: declared {:?}, minimal {:?}",
        report.query.declared, report.query.minimal
    );
}
