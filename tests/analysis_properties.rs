//! Property suite for the static analyzer: downgrade equivalence and gated
//! dispatch.
//!
//! The analyzer's central promise is that a certified fragment downgrade is
//! *invisible* except in cost: the rewritten query computes exactly the same
//! answers as the original on every database, and the analysis-gated decision
//! entry points return the same verdicts the rewritten query would get from
//! direct dispatch — under every engine. This suite checks both properties on
//! randomized instances with fixed seeds (no external crates needed, so it
//! runs in the default offline `cargo test` pass).

use ric::analysis::{classify_query, random_database};
use ric::prelude::*;
use ric::query::{Atom, FoExpr, FoQuery, QueryLanguage};
use ric::SplitMix64;

/// Fixed two-relation schema: `R(a, b)`, `S(a)`.
fn schema() -> Schema {
    Schema::from_relations(vec![
        RelationSchema::infinite("R", &["a", "b"]),
        RelationSchema::infinite("S", &["a"]),
    ])
    .unwrap()
}

/// CQs with all-variable heads, exercising joins, constants, and `≠`.
fn cq_pool() -> Vec<Cq> {
    let s = schema();
    [
        "Q(X) :- R(X, Y).",
        "Q(X, Z) :- R(X, Y), R(Y, Z).",
        "Q(X) :- R(X, Y), S(Y).",
        "Q(X, Y) :- R(X, Y), X != Y.",
        "Q(X) :- R(X, 3).",
        "Q() :- R(1, X), S(X).",
        "Q(Y) :- R(X, Y), R(Y, X), S(X).",
    ]
    .iter()
    .map(|src| parse_cq(&s, src).unwrap())
    .collect()
}

/// Wrap a CQ in semantically equivalent FO syntax: existentially quantify the
/// non-head variables over the conjunction, double-negate every other atom,
/// and spell `≠` as negated equality. Exactly the "FO-syntax-but-CQ" shape
/// the analyzer is built to recognize.
fn wrap_cq_in_fo(cq: &Cq) -> FoQuery {
    let head: Vec<Var> = cq
        .head
        .iter()
        .map(|t| match t {
            Term::Var(v) => *v,
            Term::Const(_) => panic!("pool heads are variables"),
        })
        .collect();
    let bound: Vec<Var> = (0..cq.n_vars as usize)
        .map(|i| Var(i as u32))
        .filter(|v| !head.contains(v))
        .collect();
    let mut conjuncts = Vec::new();
    for (i, a) in cq.atoms.iter().enumerate() {
        let atom = FoExpr::Atom(a.clone());
        conjuncts.push(if i % 2 == 1 {
            FoExpr::not(FoExpr::not(atom))
        } else {
            atom
        });
    }
    for (l, r) in &cq.eqs {
        conjuncts.push(FoExpr::Eq(l.clone(), r.clone()));
    }
    for (l, r) in &cq.neqs {
        conjuncts.push(FoExpr::not(FoExpr::Eq(l.clone(), r.clone())));
    }
    let body = FoExpr::And(conjuncts);
    let body = if bound.is_empty() {
        body
    } else {
        FoExpr::Exists(bound, Box::new(body))
    };
    FoQuery::new(head, body, cq.var_names.clone())
}

/// Every pool query, FO-wrapped, downgrades to CQ with a certified witness,
/// and the witness evaluates identically to the original on randomized
/// databases (far more rounds than certification itself used).
#[test]
fn downgraded_queries_evaluate_identically() {
    let s = schema();
    let mut rng = SplitMix64::seed_from_u64(0xD0DE);
    for (qi, cq) in cq_pool().into_iter().enumerate() {
        let original = Query::Fo(wrap_cq_in_fo(&cq));
        let (cls, _) = classify_query(&s, &original, 0xBADD + qi as u64);
        assert_eq!(cls.declared, QueryLanguage::Fo, "query {qi}");
        assert_eq!(cls.minimal, QueryLanguage::Cq, "query {qi}");
        assert!(cls.certified, "query {qi} not certified");
        let rewritten = cls.rewritten.expect("certified downgrade has a witness");
        for round in 0..40 {
            let db = random_database(&s, &mut rng, 10, 6);
            assert_eq!(
                original.eval(&db).unwrap(),
                rewritten.eval(&db).unwrap(),
                "witness diverges (query {qi}, round {round})"
            );
        }
    }
}

/// Non-recursive output-only FP programs downgrade to UCQ and the witness is
/// evaluation-identical.
#[test]
fn downgraded_fp_evaluates_identically() {
    let s = schema();
    let p = ric::query::parse_program(
        &s,
        "Out(X) :- R(X, Y), S(Y). Out(X) :- S(X), X != 2.",
        "Out",
    )
    .unwrap();
    let original = Query::Fp(p);
    let (cls, _) = classify_query(&s, &original, 0xF9);
    assert_eq!(cls.minimal, QueryLanguage::Ucq);
    assert!(cls.certified);
    let rewritten = cls.rewritten.unwrap();
    let mut rng = SplitMix64::seed_from_u64(0xFEED);
    for round in 0..40 {
        let db = random_database(&s, &mut rng, 10, 6);
        assert_eq!(
            original.eval(&db).unwrap(),
            rewritten.eval(&db).unwrap(),
            "FP witness diverges (round {round})"
        );
    }
}

/// A random setting bounding `R`'s first column by master `M` and `S` by
/// master `N` (same shape as `engine_differential.rs`).
fn random_setting(rng: &mut SplitMix64) -> Setting {
    let s = schema();
    let r = s.rel_id("R").unwrap();
    let srel = s.rel_id("S").unwrap();
    let m = Schema::from_relations(vec![
        RelationSchema::infinite("M", &["a"]),
        RelationSchema::infinite("N", &["a"]),
    ])
    .unwrap();
    let mrel = m.rel_id("M").unwrap();
    let nrel = m.rel_id("N").unwrap();
    let mut dm = Database::empty(&m);
    for v in 0..5 {
        if rng.random_bool(0.7) {
            dm.insert(mrel, Tuple::new([Value::int(v)]));
        }
        if rng.random_bool(0.7) {
            dm.insert(nrel, Tuple::new([Value::int(v)]));
        }
    }
    let v = ConstraintSet::new(vec![
        ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(r, vec![0])),
            mrel,
            vec![0],
        ),
        ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(srel, vec![0])),
            nrel,
            vec![0],
        ),
    ]);
    Setting::new(s, m, dm, v)
}

fn random_db(rng: &mut SplitMix64, vals: i64, r_max: usize, s_max: usize) -> Database {
    let s = schema();
    let r = s.rel_id("R").unwrap();
    let srel = s.rel_id("S").unwrap();
    let mut db = Database::empty(&s);
    for _ in 0..rng.random_range(0..r_max + 1) {
        let a = rng.random_range(0..vals as usize) as i64;
        let b = rng.random_range(0..vals as usize) as i64;
        db.insert(r, Tuple::new([Value::int(a), Value::int(b)]));
    }
    for _ in 0..rng.random_range(0..s_max + 1) {
        let a = rng.random_range(0..vals as usize) as i64;
        db.insert(srel, Tuple::new([Value::int(a)]));
    }
    db
}

/// The analyzed entry point must return the same verdict the certified
/// rewrite gets from direct dispatch — under `Engine::Naive` and
/// `Engine::Planned` — and both engines must agree with each other.
#[test]
fn analyzed_dispatch_matches_direct_dispatch_per_engine() {
    let s = schema();
    let engines = [("naive", Engine::Naive), ("planned", Engine::Planned)];
    let mut rng = SplitMix64::seed_from_u64(0xA9A9);
    let mut decided = 0usize;
    for round in 0..12 {
        let setting = random_setting(&mut rng);
        let db = random_db(&mut rng, 5, 5, 3);
        if !setting.partially_closed(&db).unwrap() {
            continue;
        }
        for (qi, cq) in cq_pool().into_iter().enumerate() {
            let original = Query::Fo(wrap_cq_in_fo(&cq));
            let (cls, _) = classify_query(&s, &original, 0xC0 + qi as u64);
            let rewritten = cls.rewritten.expect("pool queries downgrade");
            let mut kinds = Vec::new();
            for (name, engine) in engines {
                let budget = SearchBudget::default().with_engine(engine);
                let via_gate = Request::analyzed(&setting)
                    .budget(&budget)
                    .rcdp(&original, &db)
                    .map(|d| d.verdict)
                    .unwrap();
                let direct = rcdp(&setting, &rewritten, &db, &budget).unwrap();
                assert_eq!(
                    std::mem::discriminant(&via_gate),
                    std::mem::discriminant(&direct),
                    "gated vs direct dispatch diverge ({name}, round {round}, query {qi})"
                );
                if let Verdict::Incomplete(ce) = &via_gate {
                    assert!(
                        ric::complete::rcdp::certify_counterexample(&setting, &rewritten, &db, ce)
                            .unwrap(),
                        "uncertified counterexample ({name}, round {round}, query {qi})"
                    );
                }
                kinds.push(std::mem::discriminant(&via_gate));
            }
            assert_eq!(
                kinds[0], kinds[1],
                "engines diverge (round {round}, query {qi})"
            );
            decided += 1;
        }
    }
    assert!(
        decided >= 21,
        "too few partially closed instances generated"
    );
}

/// RCQP through the gate agrees with direct dispatch of the rewrite.
#[test]
fn analyzed_rcqp_matches_direct_dispatch() {
    let s = schema();
    let mut rng = SplitMix64::seed_from_u64(0xB00C);
    for round in 0..4 {
        let setting = random_setting(&mut rng);
        for (qi, cq) in cq_pool().into_iter().enumerate() {
            let original = Query::Fo(wrap_cq_in_fo(&cq));
            let (cls, _) = classify_query(&s, &original, 0xD0 + qi as u64);
            let rewritten = cls.rewritten.expect("pool queries downgrade");
            let budget = SearchBudget::default();
            let via_gate = Request::analyzed(&setting)
                .budget(&budget)
                .rcqp(&original)
                .map(|d| d.verdict)
                .unwrap();
            let direct = rcqp(&setting, &rewritten, &budget).unwrap();
            assert_eq!(
                std::mem::discriminant(&via_gate),
                std::mem::discriminant(&direct),
                "RCQP gated vs direct diverge (round {round}, query {qi})"
            );
        }
    }
}

/// The gate's telemetry: `analysis.downgrade` counts applied downgrades and
/// the JSON report rides along as a note.
#[test]
fn gate_emits_downgrade_counter_and_report_note() {
    let mut rng = SplitMix64::seed_from_u64(0x70AD);
    let setting = random_setting(&mut rng);
    let db = Database::empty(&setting.schema);
    let original = Query::Fo(wrap_cq_in_fo(&cq_pool().remove(0)));
    let collector = Collector::new();
    Request::analyzed(&setting)
        .budget(&SearchBudget::default())
        .probe(Probe::attached(&collector))
        .rcdp(&original, &db)
        .unwrap();
    let report = collector.report();
    assert_eq!(report.counter("analysis.downgrade"), 1);
    let note = report
        .notes
        .get("analysis.report")
        .map(|texts| texts.join(""))
        .expect("analysis.report note missing");
    assert!(
        note.contains("\"downgrades\""),
        "note is not the JSON report"
    );
}

/// Error-level settings are rejected before any search, with the offending
/// diagnostics attached and an `analysis.rejected` counter.
#[test]
fn error_settings_are_rejected_with_typed_report() {
    let mut rng = SplitMix64::seed_from_u64(0x7EC7);
    let setting = random_setting(&mut rng);
    let db = Database::empty(&setting.schema);
    let r = setting.schema.rel_id("R").unwrap();
    // Unsafe FO: y is neither free nor quantified.
    let broken = Query::Fo(FoQuery::new(
        vec![Var(0)],
        FoExpr::Atom(Atom::new(r, vec![Term::Var(Var(0)), Term::Var(Var(1))])),
        vec!["x".into(), "y".into()],
    ));
    let collector = Collector::new();
    let err = Request::analyzed(&setting)
        .budget(&SearchBudget::default())
        .probe(Probe::attached(&collector))
        .rcdp(&broken, &db)
        .unwrap_err();
    match err {
        DecisionError::Rejected(report) => {
            assert!(report.has_errors());
            assert!(report
                .errors()
                .any(|d| d.code == ric::Code::FoUnsafeVariable));
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert_eq!(collector.report().counter("analysis.rejected"), 1);
    // RCQP takes the same gate.
    let err = Request::analyzed(&setting)
        .budget(&SearchBudget::default())
        .rcqp(&broken)
        .map(|d| d.verdict)
        .unwrap_err();
    assert!(matches!(err, DecisionError::Rejected(_)));
}

/// Queries the analyzer cannot shrink pass through the gate untouched.
#[test]
fn genuine_fo_passes_the_gate_undowngraded() {
    let mut rng = SplitMix64::seed_from_u64(0x90D1);
    let setting = random_setting(&mut rng);
    let db = Database::empty(&setting.schema);
    let srel = setting.schema.rel_id("S").unwrap();
    // Q() := ¬∃x S(x) — genuine negation, stays FO.
    let q = Query::Fo(FoQuery::new(
        vec![],
        FoExpr::not(FoExpr::Exists(
            vec![Var(0)],
            Box::new(FoExpr::Atom(Atom::new(srel, vec![Term::Var(Var(0))]))),
        )),
        vec!["x".into()],
    ));
    let collector = Collector::new();
    let gated = Request::analyzed(&setting)
        .budget(&SearchBudget::small())
        .probe(Probe::attached(&collector))
        .rcdp(&q, &db)
        .unwrap();
    let direct = rcdp(&setting, &q, &db, &SearchBudget::small()).unwrap();
    assert_eq!(
        std::mem::discriminant(&gated.verdict),
        std::mem::discriminant(&direct)
    );
    assert_eq!(collector.report().counter("analysis.downgrade"), 0);
}
