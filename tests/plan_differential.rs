//! Differential testing of the planned engine: cost-based plans must agree
//! — verdict, witness, and deterministic counters — with plans compiled
//! without statistics (the static greedy most-bound-first order) and with
//! `Engine::Naive` on randomized instances and under arbitrarily wrong
//! statistics.
//!
//! The planner's contract is *estimates-in, exactness-out*: statistics steer
//! only the join order of constraint-body evaluation, whose result is
//! order-independent. This suite pins that contract end to end:
//!
//! * RCDP verdicts and witnesses identical to the static order (and verdict
//!   kinds to Naive) across seeds;
//! * the deterministic decision counters (`rcdp.valuations`,
//!   `rcdp.cc_checks`, `cc.skipped_by_delta`) bit-identical to the static
//!   order — `index.probe` is legitimately order-dependent and excluded;
//! * stale, empty, or adversarially lying statistics (a [`PreparedSetting`]
//!   built from the wrong database) change timing only, never verdicts;
//! * planned decisions emit `plan.*` telemetry, and prepared decisions
//!   reuse their plans instead of recompiling.

use ric::prelude::*;
use ric::SplitMix64;

/// Fixed two-relation schema: `R(a, b)`, `S(a)`.
fn schema() -> Schema {
    Schema::from_relations(vec![
        RelationSchema::infinite("R", &["a", "b"]),
        RelationSchema::infinite("S", &["a"]),
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

/// A constraint setting with *CQ-bodied* (join) constraints, so the upper
/// bounds leave the IND fast path and the delta preparation actually
/// compiles plans: endpoints of R-edges into S are bounded by master `M`,
/// and `S` itself by master `N`.
fn random_setting(rng: &mut SplitMix64) -> Setting {
    let s = schema();
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
        if rng.random_bool(0.8) {
            dm.insert(mrel, Tuple::new([Value::int(v)]));
        }
        if rng.random_bool(0.8) {
            dm.insert(nrel, Tuple::new([Value::int(v)]));
        }
    }
    let join = parse_cq(&s, "Q(X) :- R(X, Y), S(Y).").unwrap();
    let v = ConstraintSet::new(vec![
        ContainmentConstraint::into_master(CcBody::Cq(join), mrel, vec![0]),
        ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(srel, vec![0])),
            nrel,
            vec![0],
        ),
    ]);
    Setting::new(s, m, dm, v)
}

fn cq_pool() -> Vec<Cq> {
    let s = schema();
    [
        "Q(X) :- R(X, Y).",
        "Q(X, Z) :- R(X, Y), R(Y, Z).",
        "Q(X) :- R(X, Y), S(Y).",
        "Q(X, Y) :- R(X, Y), X != Y.",
        "Q(Y) :- R(X, Y), R(Y, X), S(X).",
    ]
    .iter()
    .map(|src| parse_cq(&s, src).unwrap())
    .collect()
}

/// Counters that must be bit-identical between cost-based and static-order
/// plans: the plan changes join *order* only, so enumeration and check
/// counts are invariant. `index.probe` is excluded by design — a different
/// join order probes a different number of times.
const DETERMINISTIC_COUNTERS: [&str; 3] =
    ["rcdp.valuations", "rcdp.cc_checks", "cc.skipped_by_delta"];

fn deterministic_counters(report: &Report) -> Vec<(&'static str, u64)> {
    DETERMINISTIC_COUNTERS
        .iter()
        .map(|&n| (n, report.counter(n)))
        .collect()
}

fn observed(
    setting: &Setting,
    q: &Query,
    db: &Database,
    budget: &SearchBudget,
) -> (Verdict, Vec<(&'static str, u64)>, Report) {
    let collector = Collector::new();
    let v = ric::complete::Request::new(setting)
        .budget(budget)
        .probe(Probe::attached(&collector))
        .rcdp(q, db)
        .map(|o| o.verdict)
        .unwrap();
    let report = collector.report();
    (v, deterministic_counters(&report), report)
}

/// The other join order: `setting` prepared without statistics, so every
/// plan takes the static greedy most-bound-first order.
fn static_order(setting: &Setting) -> ric::PreparedSetting {
    ric::prepare(setting, &Database::empty(&setting.schema), Engine::Planned).unwrap()
}

/// A sequential decision on the static-order preparation.
fn observed_static(
    prepared: &ric::PreparedSetting,
    q: &Query,
    db: &Database,
) -> (Verdict, Vec<(&'static str, u64)>) {
    let collector = Collector::new();
    let budget = SearchBudget::default().with_engine(Engine::Planned);
    let v = ric::Request::new(prepared)
        .budget(&budget)
        .probe(Probe::attached(&collector))
        .rcdp(q, db)
        .unwrap()
        .verdict;
    (v, deterministic_counters(&collector.report()))
}

/// Cost-based ≡ static order ≡ Naive: verdicts, witnesses, deterministic
/// counters.
#[test]
fn planned_rcdp_matches_indexed_and_naive() {
    let mut rng = SplitMix64::seed_from_u64(0x714A);
    let naive = SearchBudget::default().with_engine(Engine::Naive);
    let mut decided = 0usize;
    for round in 0..30 {
        let setting = random_setting(&mut rng);
        let db = random_db(&mut rng, 5, 6, 4);
        if !setting.partially_closed(&db).unwrap() {
            continue;
        }
        let static_prep = static_order(&setting);
        for (qi, cq) in cq_pool().into_iter().enumerate() {
            let q: Query = cq.into();
            let vn = rcdp(&setting, &q, &db, &naive).unwrap();
            let (vi, ci) = observed_static(&static_prep, &q, &db);
            let planned = SearchBudget::default().with_engine(Engine::Planned);
            let (vp, cp, _) = observed(&setting, &q, &db, &planned);
            assert_eq!(
                std::mem::discriminant(&vn),
                std::mem::discriminant(&vp),
                "planned and naive disagree (round {round}, query {qi})"
            );
            match (&vi, &vp) {
                (Verdict::Complete, Verdict::Complete) => {}
                (Verdict::Incomplete(a), Verdict::Incomplete(b)) => {
                    assert_eq!(
                        (&a.delta, &a.new_answer),
                        (&b.delta, &b.new_answer),
                        "planned witness differs from static order \
                         (round {round}, query {qi})"
                    );
                    assert!(
                        ric::complete::rcdp::certify_counterexample(&setting, &q, &db, b).unwrap(),
                        "uncertified planned counterexample \
                         (round {round}, query {qi})"
                    );
                }
                other => panic!(
                    "planned and static order disagree \
                     (round {round}, query {qi}): {other:?}"
                ),
            }
            assert_eq!(
                ci, cp,
                "deterministic counters diverge \
                 (round {round}, query {qi})"
            );
            decided += 1;
        }
    }
    assert!(
        decided >= 30,
        "too few partially closed instances generated ({decided})"
    );
}

/// Statistics are advisory: a preparation built from the wrong database —
/// stale (pre-growth), empty (no stats at all), or an adversarial lie — must
/// return exactly the static-order verdict on the real database.
#[test]
fn wrong_statistics_change_timing_not_verdicts() {
    let mut rng = SplitMix64::seed_from_u64(0x57A7);
    let planned = SearchBudget::default().with_engine(Engine::Planned);
    let mut decided = 0usize;
    for round in 0..20 {
        let setting = random_setting(&mut rng);
        let db = random_db(&mut rng, 5, 6, 4);
        // Stats sources: the real db, an empty db (forces static-fallback
        // plans), and a "lying" unrelated db with a skewed distribution.
        let empty = Database::empty(&setting.schema);
        let lying = {
            let s = schema();
            let r = s.rel_id("R").unwrap();
            let mut d = Database::empty(&s);
            for i in 0..50 {
                d.insert(r, Tuple::new([Value::int(999), Value::int(i)]));
            }
            d
        };
        if !setting.partially_closed(&db).unwrap() {
            continue;
        }
        let static_prep = static_order(&setting);
        for (qi, cq) in cq_pool().into_iter().enumerate() {
            let q: Query = cq.into();
            let vi = ric::Request::new(&static_prep)
                .budget(&planned)
                .rcdp(&q, &db)
                .map(|d| d.verdict)
                .unwrap();
            for (si, stats_db) in [&db, &empty, &lying].into_iter().enumerate() {
                let prepared = ric::prepare(&setting, stats_db, Engine::Planned).unwrap();
                let vp = ric::Request::new(&prepared)
                    .budget(&planned)
                    .rcdp(&q, &db)
                    .map(|d| d.verdict)
                    .unwrap();
                assert_eq!(
                    vi, vp,
                    "stats source {si} changed the verdict (round {round}, query {qi})"
                );
            }
            decided += 1;
        }
    }
    assert!(decided >= 20, "too few instances decided ({decided})");
}

/// RCQP verdict kinds agree between static-order and cost-based plans (the
/// general search compiles plans from the
/// near-empty seed, so this also exercises the static-fallback executor in
/// anger).
#[test]
fn planned_rcqp_matches_indexed() {
    let mut rng = SplitMix64::seed_from_u64(0x9C9C);
    let sequential = SearchBudget::default().with_engine(Engine::Planned);
    for round in 0..8 {
        let setting = random_setting(&mut rng);
        let static_prep = static_order(&setting);
        for (qi, cq) in cq_pool().into_iter().enumerate() {
            let q: Query = cq.into();
            let vi = Request::new(&static_prep)
                .budget(&sequential)
                .rcqp(&q)
                .unwrap()
                .verdict;
            let planned = SearchBudget::default().with_engine(Engine::Planned);
            let vp = rcqp(&setting, &q, &planned).unwrap();
            assert_eq!(
                std::mem::discriminant(&vi),
                std::mem::discriminant(&vp),
                "RCQP diverges (round {round}, query {qi}): \
                 {vi:?} vs {vp:?}"
            );
        }
    }
}

/// `plan.*` telemetry: planned decisions emit `plan.compile`/`plan.cost`
/// and the `plan.explain` note, and prepared decisions emit `plan.reuse`
/// instead of `plan.compile`.
#[test]
fn plan_telemetry_only_under_planned_engine() {
    let mut rng = SplitMix64::seed_from_u64(0x7E1E);
    let (setting, db) = loop {
        let setting = random_setting(&mut rng);
        let db = random_db(&mut rng, 5, 6, 4);
        if setting.partially_closed(&db).unwrap() {
            break (setting, db);
        }
    };
    let q: Query = parse_cq(&schema(), "Q(X) :- R(X, Y), S(Y).")
        .unwrap()
        .into();

    let run = |budget: &SearchBudget| {
        let collector = Collector::new();
        ric::complete::Request::new(&setting)
            .budget(budget)
            .probe(Probe::attached(&collector))
            .rcdp(&q, &db)
            .map(|o| o.verdict)
            .unwrap();
        collector.report()
    };
    let planned_report = run(&SearchBudget::default().with_engine(Engine::Planned));
    assert!(
        planned_report.counter("plan.compile") >= 1,
        "planned decision compiled no plans"
    );
    assert!(
        planned_report
            .notes
            .iter()
            .any(|(n, _)| *n == "plan.explain"),
        "planned decision emitted no explain note"
    );

    // The prepared path replaces per-decision compilation with reuse.
    let prepared = ric::prepare(&setting, &db, Engine::Planned).unwrap();
    let collector = Collector::new();
    let budget = SearchBudget::default().with_engine(Engine::Planned);
    ric::Request::new(&prepared)
        .budget(&budget)
        .probe(Probe::attached(&collector))
        .rcdp(&q, &db)
        .unwrap();
    let report = collector.report();
    assert_eq!(
        report.counter("plan.reuse"),
        1,
        "prepared decision must reuse"
    );
    assert_eq!(
        report.counter("plan.compile"),
        0,
        "prepared decision must not recompile"
    );
}
