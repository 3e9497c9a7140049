//! Differential testing of the symbolic pre-decision prover: a
//! [`ReasonedSetting`] — minimized `V`, cap-clamped statistics, and static
//! verdict short-circuits — must agree with the plain prepared paths on
//! every input, at every engine.
//!
//! The reasoner's contract is *proven-rewrites-only*: every dropped
//! constraint and every static verdict carries a proof that is checked
//! before it may influence a decision, and a conclusion whose proof fails is
//! discarded with a typed note. This suite pins the surviving conclusions
//! end to end:
//!
//! * RCDP verdicts and witnesses identical to the full-`V` prepared path
//!   under `Engine::Naive` and `Engine::Planned`, and ≥24 seeded rounds;
//! * when no static short-circuit fires, the deterministic search counters
//!   (`rcdp.valuations`, `rcdp.cc_checks`) are bit-identical — minimization
//!   drops *checks of implied constraints*, not candidates, and the
//!   candidate pool is protected by the constants-preservation guard
//!   (per-constraint attribution counters like `prune.cc.N` legitimately
//!   shift and are excluded, see DESIGN §13);
//! * a certified static verdict short-circuits to exactly the verdict the
//!   full search returns;
//! * a deliberately wrong implication fails its proof, is discarded, and
//!   never reaches a decision;
//! * non-partially-closed inputs are rejected identically on both paths:
//!   on the search path, the static path and a cover hit, a reasoned
//!   decision returns `NotPartiallyClosed` exactly when the full `V` fails;
//! * analysis classifies fragments only, and the reasoner's RIC040–RIC044
//!   rows come from the facts of the preparation that decides.

use ric::analysis::reason_diagnostics;
use ric::prelude::*;
use ric::query::QueryLanguage;
use ric::reason::{apply_candidates, certify_kept_mask};
use ric::telemetry::Json;
use ric::{ReasonedSetting, SplitMix64};

/// Fixed two-relation schema: `R(a, b)`, `S(a)`.
fn schema() -> Schema {
    Schema::from_relations(vec![
        RelationSchema::infinite("R", &["a", "b"]),
        RelationSchema::infinite("S", &["a"]),
    ])
    .unwrap()
}

fn master_schema() -> Schema {
    Schema::from_relations(vec![
        RelationSchema::infinite("M", &["a"]),
        RelationSchema::infinite("N", &["a"]),
    ])
    .unwrap()
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

/// A setting whose `V` carries *redundant* constraints on purpose: the IND
/// `π_0(S) ⊆ N` implies the CQ form `q(y) :- S(y) ⊆ N`, and the join
/// constraint `q(x) :- R(x,y), S(y) ⊆ M` implies its widened three-atom
/// variant. The reasoner should drop the implied half and decide on the
/// kept half alone.
fn redundant_setting(rng: &mut SplitMix64) -> Setting {
    let m = master_schema();
    let mrel = m.rel_id("M").unwrap();
    let nrel = m.rel_id("N").unwrap();
    let mut dm = Database::empty(&m);
    for v in 0..5 {
        if rng.random_bool(0.8) {
            dm.insert(mrel, Tuple::new([Value::int(v)]));
        }
        if rng.random_bool(0.8) {
            dm.insert(nrel, Tuple::new([Value::int(v)]));
        }
    }
    let with_s_cq = rng.random_bool(0.7);
    let with_wide = rng.random_bool(0.7);
    redundant_setting_over(dm, with_s_cq, with_wide)
}

/// [`redundant_setting`] over fixed master data `dm`, with or without each
/// implied constraint.
fn redundant_setting_over(dm: Database, with_s_cq: bool, with_wide: bool) -> Setting {
    let s = schema();
    let srel = s.rel_id("S").unwrap();
    let m = master_schema();
    let mrel = m.rel_id("M").unwrap();
    let nrel = m.rel_id("N").unwrap();
    let join = parse_cq(&s, "Q(X) :- R(X, Y), S(Y).").unwrap();
    let wide = parse_cq(&s, "Q(X) :- R(X, Y), S(Y), R(X, Z).").unwrap();
    let s_cq = parse_cq(&s, "Q(Y) :- S(Y).").unwrap();
    let mut ccs = vec![
        ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(srel, vec![0])),
            nrel,
            vec![0],
        ),
        ContainmentConstraint::into_master(CcBody::Cq(join), mrel, vec![0]),
    ];
    if with_s_cq {
        // Implied by the IND (Rule B with identical right-hand sides).
        ccs.push(ContainmentConstraint::into_master(
            CcBody::Cq(s_cq),
            nrel,
            vec![0],
        ));
    }
    if with_wide {
        // Implied by the join constraint (its body is contained in it).
        ccs.push(ContainmentConstraint::into_master(
            CcBody::Cq(wide),
            mrel,
            vec![0],
        ));
    }
    Setting::new(s, m, dm, ConstraintSet::new(ccs))
}

fn cq_pool() -> Vec<Cq> {
    let s = schema();
    [
        "Q(X) :- R(X, Y).",
        "Q(X) :- R(X, Y), S(Y).",
        "Q(Y) :- S(Y).",
        "Q(X, Y) :- R(X, Y), X != Y.",
    ]
    .iter()
    .map(|src| parse_cq(&s, src).unwrap())
    .collect()
}

fn engines() -> [Engine; 2] {
    [Engine::Naive, Engine::Planned]
}

/// Counters invariant under V-minimization: the candidate stream and the
/// number of per-candidate checks are preserved (one `cc_checks` tick per
/// candidate, regardless of how many constraints each check evaluates).
const DETERMINISTIC_COUNTERS: [&str; 2] = ["rcdp.valuations", "rcdp.cc_checks"];

struct Arm {
    verdict: Verdict,
    counters: Vec<(&'static str, u64)>,
    static_hits: u64,
}

type ArmResult = Result<Arm, ric::DecisionError>;

fn full_arm(setting: &Setting, q: &Query, db: &Database, budget: &SearchBudget) -> ArmResult {
    let collector = Collector::new();
    let prepared = ric::prepare(setting, db, budget.engine).unwrap();
    let d = Request::new(&prepared)
        .budget(budget)
        .probe(Probe::attached(&collector))
        .rcdp(q, db)?;
    let report = collector.report();
    Ok(Arm {
        verdict: d.verdict,
        counters: DETERMINISTIC_COUNTERS
            .iter()
            .map(|&n| (n, report.counter(n)))
            .collect(),
        static_hits: 0,
    })
}

fn reasoned_arm(setting: &Setting, q: &Query, db: &Database, budget: &SearchBudget) -> ArmResult {
    let collector = Collector::new();
    let reasoned = ReasonedSetting::prepare(setting, q, db, budget.engine, budget).unwrap();
    let d = Request::new(&reasoned)
        .budget(budget)
        .probe(Probe::attached(&collector))
        .rcdp(q, db)?;
    let report = collector.report();
    Ok(Arm {
        verdict: d.verdict,
        counters: DETERMINISTIC_COUNTERS
            .iter()
            .map(|&n| (n, report.counter(n)))
            .collect(),
        static_hits: report.counter("reason.static_verdict") + report.counter("reason.cover_hit"),
    })
}

fn is_not_partially_closed(r: &ArmResult) -> bool {
    matches!(r, Err(ric::DecisionError::Rc(RcError::NotPartiallyClosed)))
}

/// Reasoned ≡ prepared-full-V: verdicts, witnesses, and (when no static
/// shortcut fires) deterministic counters, across all engines and ≥24
/// seeded rounds. Databases that are not partially closed run too: both
/// arms must reject exactly those with `NotPartiallyClosed`.
#[test]
fn reasoned_decisions_match_prepared_full_v() {
    let mut rng = SplitMix64::seed_from_u64(0x5EA5_0D1F);
    let mut decided = 0usize;
    let mut rejected = 0usize;
    for round in 0..26 {
        let setting = redundant_setting(&mut rng);
        let db = random_db(&mut rng, 5, 6, 4);
        let closed = setting.partially_closed(&db).unwrap();
        for (qi, cq) in cq_pool().into_iter().enumerate() {
            let q: Query = cq.into();
            for engine in engines() {
                let budget = SearchBudget::default().with_engine(engine);
                let full = full_arm(&setting, &q, &db, &budget);
                let reasoned = reasoned_arm(&setting, &q, &db, &budget);
                if !closed {
                    assert!(
                        is_not_partially_closed(&full) && is_not_partially_closed(&reasoned),
                        "a database that is not partially closed was decided \
                         (round {round}, query {qi}, {engine:?})"
                    );
                    continue;
                }
                let (full, reasoned) = match (full, reasoned) {
                    (Ok(full), Ok(reasoned)) => (full, reasoned),
                    (full, reasoned) => panic!(
                        "a partially closed database was refused \
                         (round {round}, query {qi}, {engine:?}): {:?} / {:?}",
                        full.err(),
                        reasoned.err()
                    ),
                };
                match (&full.verdict, &reasoned.verdict) {
                    (Verdict::Complete, Verdict::Complete) => {}
                    (Verdict::Incomplete(a), Verdict::Incomplete(b)) => {
                        assert_eq!(
                            (&a.delta, &a.new_answer),
                            (&b.delta, &b.new_answer),
                            "reasoned witness differs (round {round}, query {qi}, {engine:?})"
                        );
                        assert!(
                            ric::complete::rcdp::certify_counterexample(&setting, &q, &db, b)
                                .unwrap(),
                            "uncertified reasoned counterexample \
                             (round {round}, query {qi}, {engine:?})"
                        );
                    }
                    (Verdict::Unknown { .. }, Verdict::Unknown { .. }) => {}
                    other => panic!(
                        "reasoned and full-V verdicts disagree \
                         (round {round}, query {qi}, {engine:?}): {other:?}"
                    ),
                }
                if reasoned.static_hits == 0 {
                    assert_eq!(
                        full.counters, reasoned.counters,
                        "deterministic counters diverge without a static shortcut \
                         (round {round}, query {qi}, {engine:?})"
                    );
                }
            }
            if closed {
                decided += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert!(
        decided >= 24,
        "too few partially closed instances generated ({decided})"
    );
    assert!(
        rejected >= 24,
        "too few instances that are not partially closed ({rejected})"
    );
}

/// A setting whose denial statically kills the query: the reasoned path
/// must short-circuit to `Complete` — the same verdict the full search
/// grinds out — and record the shortcut in telemetry.
#[test]
fn static_complete_short_circuit_agrees_with_full_search() {
    let s = schema();
    let r = s.rel_id("R").unwrap();
    let m = master_schema();
    let nrel = m.rel_id("N").unwrap();
    let mut dm = Database::empty(&m);
    for v in 0..8 {
        dm.insert(nrel, Tuple::new([Value::int(v)]));
    }
    // R is denied outright; S is IND-bounded (and irrelevant to Q).
    let denial = parse_cq(&s, "Q() :- R(X, Y).").unwrap();
    let v = ConstraintSet::new(vec![
        ContainmentConstraint::into_empty(CcBody::Cq(denial)),
        ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(s.rel_id("S").unwrap(), vec![0])),
            nrel,
            vec![0],
        ),
    ]);
    let setting = Setting::new(s.clone(), m, dm, v);
    let q: Query = parse_cq(&s, "Q(X) :- R(X, Y).").unwrap().into();
    let mut db = Database::empty(&s);
    db.insert(s.rel_id("S").unwrap(), Tuple::new([Value::int(1)]));
    assert!(setting.partially_closed(&db).unwrap());
    for engine in engines() {
        let budget = SearchBudget::default().with_engine(engine);
        let full = rcdp(&setting, &q, &db, &budget).unwrap();
        let reasoned = reasoned_arm(&setting, &q, &db, &budget).unwrap();
        assert_eq!(full, Verdict::Complete, "{engine:?}");
        assert_eq!(reasoned.verdict, Verdict::Complete, "{engine:?}");
        assert!(
            reasoned.static_hits > 0,
            "the static shortcut should have fired ({engine:?})"
        );
        // The short-circuit really did skip the search.
        assert_eq!(
            reasoned.counters,
            vec![("rcdp.valuations", 0), ("rcdp.cc_checks", 0)]
        );
    }
    // Same input contract: a non-partially-closed database is rejected on
    // both paths, never silently decided by a static fact.
    db.insert(r, Tuple::new([Value::int(1), Value::int(2)]));
    assert!(!setting.partially_closed(&db).unwrap());
    let budget = SearchBudget::default();
    let reasoned = ReasonedSetting::prepare(&setting, &q, &db, budget.engine, &budget).unwrap();
    assert!(matches!(
        Request::new(&reasoned).budget(&budget).rcdp(&q, &db),
        Err(ric::DecisionError::Rc(RcError::NotPartiallyClosed))
    ));
    assert!(matches!(
        rcdp(&setting, &q, &db, &budget),
        Err(RcError::NotPartiallyClosed)
    ));
}

/// A setting whose IND covers the query: the reasoned path must answer
/// `Complete` from the cover fact once `p(D_m) ⊆ Q(D)` — the verdict the
/// full search returns — and must still refuse a database that is not
/// partially closed even though the cover condition holds on it.
#[test]
fn cover_hit_short_circuit_agrees_with_full_search() {
    let s = schema();
    let srel = s.rel_id("S").unwrap();
    let m = master_schema();
    let nrel = m.rel_id("N").unwrap();
    let mut dm = Database::empty(&m);
    for v in 0..4 {
        dm.insert(nrel, Tuple::new([Value::int(v)]));
    }
    let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Proj(Projection::new(srel, vec![0])),
        nrel,
        vec![0],
    )]);
    let setting = Setting::new(s.clone(), m, dm, v);
    let q: Query = parse_cq(&s, "Q(Y) :- S(Y).").unwrap().into();
    let mut db = Database::empty(&s);
    for v in 0..4 {
        db.insert(srel, Tuple::new([Value::int(v)]));
    }
    assert!(setting.partially_closed(&db).unwrap());
    for engine in engines() {
        let budget = SearchBudget::default().with_engine(engine);
        let full = full_arm(&setting, &q, &db, &budget).unwrap();
        let reasoned = reasoned_arm(&setting, &q, &db, &budget).unwrap();
        assert_eq!(full.verdict, Verdict::Complete, "{engine:?}");
        assert_eq!(reasoned.verdict, Verdict::Complete, "{engine:?}");
        assert!(
            reasoned.static_hits > 0,
            "the cover fact should have fired ({engine:?})"
        );
        assert_eq!(
            reasoned.counters,
            vec![("rcdp.valuations", 0), ("rcdp.cc_checks", 0)]
        );
    }
    // S(9) breaks the IND, yet p(D_m) ⊆ Q(D) still holds: the cover fact
    // must not answer over an input outside the contract.
    db.insert(srel, Tuple::new([Value::int(9)]));
    assert!(!setting.partially_closed(&db).unwrap());
    for engine in engines() {
        let budget = SearchBudget::default().with_engine(engine);
        assert!(is_not_partially_closed(&full_arm(
            &setting, &q, &db, &budget
        )));
        assert!(
            is_not_partially_closed(&reasoned_arm(&setting, &q, &db, &budget)),
            "the cover fact answered over a database that is not partially closed ({engine:?})"
        );
    }
}

/// What `analyze` reports on the fixed redundant setting below: its lint
/// and classification rows only, none of the reasoner's RIC040–RIC044.
const EXPECTED_ANALYSIS_ROWS: [(&str, Pointer); 1] = [("RIC030", Pointer::Constraint(2))];
const EXPECTED_CONSTRAINT_MINIMAL: [QueryLanguage; 4] = [
    QueryLanguage::Inds,
    QueryLanguage::Cq,
    QueryLanguage::Inds,
    QueryLanguage::Cq,
];

/// Analysis classifies fragments and runs the lints; it does not reason.
/// The reasoner's rows (RIC040–RIC044) render from the facts of the
/// preparation that decides, and the gate's `analysis.report` note is still
/// the JSON report.
#[test]
fn analysis_classifies_and_reasoned_facts_render_the_reasoner_rows() {
    let m = master_schema();
    let mut dm = Database::empty(&m);
    for rel in ["M", "N"] {
        for v in 0..5 {
            dm.insert(m.rel_id(rel).unwrap(), Tuple::new([Value::int(v)]));
        }
    }
    let setting = redundant_setting_over(dm, true, true);
    let q: Query = parse_cq(&setting.schema, "Q(X) :- R(X, Y), S(Y).")
        .unwrap()
        .into();

    let report = analyze(&setting, &q);
    let rows: Vec<(&str, Pointer)> = report
        .diagnostics
        .iter()
        .map(|d| (d.code.id(), d.pointer))
        .collect();
    assert_eq!(rows, EXPECTED_ANALYSIS_ROWS.to_vec());
    assert_eq!(
        report.query.minimal,
        QueryLanguage::Cq,
        "query classification"
    );
    let constraint_minimal: Vec<_> = report.constraints.iter().map(|c| c.minimal).collect();
    assert_eq!(constraint_minimal, EXPECTED_CONSTRAINT_MINIMAL.to_vec());

    let budget = SearchBudget::default();
    let stats = Database::empty(&setting.schema);
    let reasoned = ReasonedSetting::prepare(&setting, &q, &stats, budget.engine, &budget).unwrap();
    let reasoned_rows: Vec<(&str, Pointer)> = reason_diagnostics(reasoned.facts())
        .iter()
        .map(|d| (d.code.id(), d.pointer))
        .collect();
    // Both implied constraints are dropped, and the join constraint covers
    // the query.
    assert_eq!(
        reasoned_rows,
        vec![
            ("RIC040", Pointer::Constraint(3)),
            ("RIC040", Pointer::Constraint(2)),
            ("RIC042", Pointer::Query),
        ]
    );

    let collector = Collector::new();
    Request::analyzed(&setting)
        .budget(&budget)
        .probe(Probe::attached(&collector))
        .rcdp(&q, &Database::empty(&setting.schema))
        .unwrap();
    let note = collector
        .report()
        .notes
        .get("analysis.report")
        .map(|texts| texts.join(""))
        .expect("analysis.report note missing");
    let json = ric::telemetry::json::parse(&note).expect("analysis.report is JSON");
    assert_eq!(json.get("errors").and_then(Json::as_int), Some(0));
    let codes: Vec<&str> = json
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("diagnostics array")
        .iter()
        .filter_map(|d| d.get("code").and_then(Json::as_str))
        .collect();
    let expected: Vec<&str> = EXPECTED_ANALYSIS_ROWS.iter().map(|(c, _)| *c).collect();
    assert_eq!(codes, expected);
}

/// A deliberately wrong implication — claiming the only load-bearing
/// constraint is implied by nothing — must fail its proof, leave a typed
/// note, and never change a decision.
#[test]
fn wrong_implication_is_discarded_and_never_decides() {
    let s = schema();
    let srel = s.rel_id("S").unwrap();
    let m = master_schema();
    let nrel = m.rel_id("N").unwrap();
    let mut dm = Database::empty(&m);
    dm.insert(nrel, Tuple::new([Value::int(1)]));
    let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Proj(Projection::new(srel, vec![0])),
        nrel,
        vec![0],
    )]);
    let setting = Setting::new(s.clone(), m, dm, v);
    // The wrong candidate is rejected: the constraint stays, with a note.
    let min = apply_candidates(&setting, &[0]);
    assert_eq!(min.kept, vec![true]);
    assert!(min.implied.is_empty());
    assert!(min.notes.iter().any(ric::ReasonNote::is_uncertified));
    // And the exact mask check refuses it too.
    assert!(certify_kept_mask(&setting, &[false]).is_err());
    // End to end: decisions through the reasoner match the plain path (the
    // reasoner found nothing sound to drop here).
    let q: Query = parse_cq(&s, "Q(Y) :- S(Y).").unwrap().into();
    let mut db = Database::empty(&s);
    db.insert(srel, Tuple::new([Value::int(1)]));
    let budget = SearchBudget::default();
    let reasoned = ReasonedSetting::prepare(&setting, &q, &db, budget.engine, &budget).unwrap();
    assert!(reasoned.facts().kept.iter().all(|k| *k));
    let vs = Request::new(&reasoned)
        .budget(&budget)
        .rcdp(&q, &db)
        .unwrap()
        .verdict;
    let vf = rcdp(&setting, &q, &db, &budget).unwrap();
    assert_eq!(vs, vf);
}

/// RCQP through the reasoned preparation agrees in kind with the plain
/// decider on the same (minimization-bearing) settings.
#[test]
fn reasoned_rcqp_kinds_agree() {
    let mut rng = SplitMix64::seed_from_u64(0x9C0F);
    for round in 0..6 {
        let setting = redundant_setting(&mut rng);
        let stats = Database::empty(&setting.schema);
        for (qi, cq) in cq_pool().into_iter().enumerate() {
            let q: Query = cq.into();
            let budget = SearchBudget::default();
            let vi = rcqp(&setting, &q, &budget).unwrap();
            let reasoned =
                ReasonedSetting::prepare(&setting, &q, &stats, budget.engine, &budget).unwrap();
            let vr = ric::Request::new(&reasoned)
                .budget(&budget)
                .rcqp(reasoned.query())
                .map(|d| d.verdict)
                .unwrap();
            assert_eq!(
                std::mem::discriminant(&vi),
                std::mem::discriminant(&vr),
                "RCQP diverges (round {round}, query {qi}): {vi:?} vs {vr:?}"
            );
        }
    }
}
