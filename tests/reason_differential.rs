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
//! * non-partially-closed inputs are rejected identically on both paths.

use ric::prelude::*;
use ric::reason::{apply_candidates, certify_kept_mask};
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
    let s = schema();
    let srel = s.rel_id("S").unwrap();
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
    if rng.random_bool(0.7) {
        // Implied by the IND (Rule B with identical right-hand sides).
        ccs.push(ContainmentConstraint::into_master(
            CcBody::Cq(s_cq),
            nrel,
            vec![0],
        ));
    }
    if rng.random_bool(0.7) {
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

fn full_arm(setting: &Setting, q: &Query, db: &Database, budget: &SearchBudget) -> Arm {
    let collector = Collector::new();
    let prepared = ric::prepare(setting, db, budget.engine).unwrap();
    let d = Request::new(&prepared)
        .budget(budget)
        .probe(Probe::attached(&collector))
        .rcdp(q, db)
        .unwrap();
    let report = collector.report();
    Arm {
        verdict: d.verdict,
        counters: DETERMINISTIC_COUNTERS
            .iter()
            .map(|&n| (n, report.counter(n)))
            .collect(),
        static_hits: 0,
    }
}

fn reasoned_arm(setting: &Setting, q: &Query, db: &Database, budget: &SearchBudget) -> Arm {
    let collector = Collector::new();
    let reasoned = ReasonedSetting::prepare(setting, q, db, budget.engine, budget).unwrap();
    let d = Request::new(&reasoned)
        .budget(budget)
        .probe(Probe::attached(&collector))
        .rcdp(q, db)
        .unwrap();
    let report = collector.report();
    Arm {
        verdict: d.verdict,
        counters: DETERMINISTIC_COUNTERS
            .iter()
            .map(|&n| (n, report.counter(n)))
            .collect(),
        static_hits: report.counter("reason.static_verdict") + report.counter("reason.cover_hit"),
    }
}

/// Reasoned ≡ prepared-full-V: verdicts, witnesses, and (when no static
/// shortcut fires) deterministic counters, across all engines and ≥24
/// seeded rounds.
#[test]
fn reasoned_decisions_match_prepared_full_v() {
    let mut rng = SplitMix64::seed_from_u64(0x5EA5_0D1F);
    let mut decided = 0usize;
    for round in 0..26 {
        let setting = redundant_setting(&mut rng);
        let db = random_db(&mut rng, 5, 6, 4);
        if !setting.partially_closed(&db).unwrap() {
            continue;
        }
        for (qi, cq) in cq_pool().into_iter().enumerate() {
            let q: Query = cq.into();
            for engine in engines() {
                let budget = SearchBudget::default().with_engine(engine);
                let full = full_arm(&setting, &q, &db, &budget);
                let reasoned = reasoned_arm(&setting, &q, &db, &budget);
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
            decided += 1;
        }
    }
    assert!(
        decided >= 24,
        "too few partially closed instances generated ({decided})"
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
        let reasoned = reasoned_arm(&setting, &q, &db, &budget);
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
