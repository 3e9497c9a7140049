//! Differential testing of the evaluation engine: the indexed/overlay paths
//! must agree, bit for bit, with the naive reference paths on randomized
//! instances.
//!
//! Unlike `cross_crate_properties.rs` this suite needs no external crate —
//! instances are generated with the in-tree [`SplitMix64`] — so it runs in
//! the default offline `cargo test` pass. Each case fixes its seed, so a
//! failure reproduces exactly.
//!
//! Covered equivalences:
//!
//! * CQ / UCQ / ∃FO⁺ / FO evaluation over an [`Overlay`] `D ∪ Δ` versus the
//!   materialized union (the overlay's index-probe path versus plain scans);
//! * [`eval_tableau_delta`] + `q(D)` versus `q(D ∪ Δ)` (the incremental
//!   identity the delta-aware CC checker relies on);
//! * incremental upper-bound satisfaction versus the full re-check;
//! * RCDP and RCQP verdicts under `Engine::Planned` versus `Engine::Naive`.

use ric::data::{Overlay, TupleStore};
use ric::prelude::*;
use ric::query::eval::{eval_tableau_delta, eval_tableau_naive, eval_ucq};
use ric::query::{EfoExpr, EfoQuery, FoExpr, FoQuery, Tableau};
use ric::SplitMix64;
use std::collections::BTreeSet;

/// Fixed two-relation schema for the generators: `R(a, b)`, `S(a)`.
fn schema() -> Schema {
    Schema::from_relations(vec![
        RelationSchema::infinite("R", &["a", "b"]),
        RelationSchema::infinite("S", &["a"]),
    ])
    .unwrap()
}

/// A random database over `schema()` with values drawn from `0..vals`.
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

/// A pool of CQs exercising joins, constants, self-joins, and inequalities.
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

fn ucq_pool() -> Vec<Ucq> {
    let s = schema();
    vec![
        parse_ucq(&s, "Q(X) :- R(X, Y). Q(X) :- S(X).").unwrap(),
        parse_ucq(&s, "Q(X, Y) :- R(X, Y), X != Y. Q(X, X) :- S(X).").unwrap(),
    ]
}

/// Overlay evaluation must equal evaluation on the materialized union.
#[test]
fn overlay_eval_matches_materialized_union() {
    let mut rng = SplitMix64::seed_from_u64(0xD1FF);
    for round in 0..60 {
        let base = random_db(&mut rng, 5, 10, 6);
        let delta = random_db(&mut rng, 5, 4, 3);
        let ov = Overlay::new(&base, &delta).unwrap();
        let union = ov.materialize();
        assert_eq!(
            union,
            base.union(&delta).unwrap(),
            "materialize must equal union (round {round})"
        );
        for cq in &cq_pool() {
            let via_overlay = ric::query::eval::eval_cq(cq, &ov).unwrap();
            let via_union = ric::query::eval::eval_cq(cq, &union).unwrap();
            assert_eq!(via_overlay, via_union, "CQ {cq:?} differs (round {round})");
        }
        for ucq in &ucq_pool() {
            assert_eq!(
                eval_ucq(ucq, &ov).unwrap(),
                eval_ucq(ucq, &union).unwrap(),
                "UCQ differs (round {round})"
            );
        }
    }
}

/// The index-join tableau evaluator must agree with the naive backtracking
/// reference on plain databases.
#[test]
fn indexed_tableau_eval_matches_naive() {
    let mut rng = SplitMix64::seed_from_u64(0xBEEF);
    for round in 0..60 {
        let db = random_db(&mut rng, 5, 12, 6);
        for cq in &cq_pool() {
            let t = Tableau::of(cq).unwrap();
            assert_eq!(
                ric::query::eval::eval_tableau(&t, &db),
                eval_tableau_naive(&t, &db),
                "tableau eval differs (round {round}, {cq:?})"
            );
        }
    }
}

/// The incremental identity: `q(D ∪ Δ) = q(D) ∪ delta_answers` for monotone
/// tableau bodies.
#[test]
fn tableau_delta_answers_complete_the_union() {
    let mut rng = SplitMix64::seed_from_u64(0xCAFE);
    for round in 0..60 {
        let base = random_db(&mut rng, 5, 10, 6);
        let delta = random_db(&mut rng, 5, 4, 3);
        let ov = Overlay::new(&base, &delta).unwrap();
        let union = ov.materialize();
        for cq in &cq_pool() {
            let t = Tableau::of(cq).unwrap();
            let mut incremental = eval_tableau_naive(&t, &base);
            incremental.extend(eval_tableau_delta(&t, &ov));
            assert_eq!(
                incremental,
                eval_tableau_naive(&t, &union),
                "incremental identity broken (round {round}, {cq:?})"
            );
        }
    }
}

/// ∃FO⁺ and FO evaluation are generic over the store; overlay and union must
/// agree (FO exercises `active_domain_into` and the negation paths).
#[test]
fn efo_and_fo_eval_agree_on_overlay_and_union() {
    let s = schema();
    let r = s.rel_id("R").unwrap();
    let srel = s.rel_id("S").unwrap();
    let (x, y) = (Var(0), Var(1));
    // ∃FO⁺: R(x,y) ∧ (S(x) ∨ S(y))
    let efo = EfoQuery::new(
        vec![Term::Var(x), Term::Var(y)],
        EfoExpr::And(vec![
            EfoExpr::Atom(ric::query::Atom::new(r, vec![Term::Var(x), Term::Var(y)])),
            EfoExpr::Or(vec![
                EfoExpr::Atom(ric::query::Atom::new(srel, vec![Term::Var(x)])),
                EfoExpr::Atom(ric::query::Atom::new(srel, vec![Term::Var(y)])),
            ]),
        ]),
        vec!["x".into(), "y".into()],
    );
    // FO with negation: R(x,y) ∧ ¬S(y)
    let fo = FoQuery::new(
        vec![x],
        FoExpr::Exists(
            vec![y],
            Box::new(FoExpr::And(vec![
                FoExpr::Atom(ric::query::Atom::new(r, vec![Term::Var(x), Term::Var(y)])),
                FoExpr::not(FoExpr::Atom(ric::query::Atom::new(
                    srel,
                    vec![Term::Var(y)],
                ))),
            ])),
        ),
        vec!["x".into(), "y".into()],
    );
    let mut rng = SplitMix64::seed_from_u64(0xF0F0);
    for round in 0..40 {
        let base = random_db(&mut rng, 4, 8, 5);
        let delta = random_db(&mut rng, 4, 3, 2);
        let ov = Overlay::new(&base, &delta).unwrap();
        let union = ov.materialize();
        assert_eq!(
            efo.eval(&ov).unwrap(),
            efo.eval(&union).unwrap(),
            "∃FO⁺ differs (round {round})"
        );
        assert_eq!(
            fo.try_eval(&ov).unwrap(),
            fo.try_eval(&union).unwrap(),
            "FO differs (round {round})"
        );
    }
}

/// The scan/probe contract of `TupleStore`: an overlay must visit each union
/// tuple exactly once, and probes must return exactly the matching tuples.
#[test]
fn overlay_store_contract() {
    let s = schema();
    let r = s.rel_id("R").unwrap();
    let mut rng = SplitMix64::seed_from_u64(0xA11CE);
    for _ in 0..40 {
        let base = random_db(&mut rng, 4, 8, 5);
        let delta = random_db(&mut rng, 4, 4, 3);
        let ov = Overlay::new(&base, &delta).unwrap();
        let union = ov.materialize();
        let mut seen: BTreeSet<Tuple> = BTreeSet::new();
        let mut dupes = 0usize;
        ov.scan(r, &mut |t| {
            if !seen.insert(t.clone()) {
                dupes += 1;
            }
            true
        });
        assert_eq!(dupes, 0, "overlay scan visited a tuple twice");
        let expected: BTreeSet<Tuple> = union.instance(r).iter().cloned().collect();
        assert_eq!(seen, expected, "overlay scan missed or invented tuples");
        for v in (0..4).map(Value::int) {
            let mut probed: BTreeSet<Tuple> = BTreeSet::new();
            ov.probe(r, 0, &v, &mut |t| {
                probed.insert(t.clone());
                true
            });
            let filtered: BTreeSet<Tuple> = expected
                .iter()
                .filter(|t| t.get(0) == &v)
                .cloned()
                .collect();
            assert_eq!(probed, filtered, "probe(col 0, {v}) disagrees with scan");
        }
    }
}

/// A random constraint setting: `R`'s first column bounded by master `M`,
/// `S` bounded by master `N`.
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

/// Incremental upper-bound checking must agree with the full re-check
/// whenever its precondition (base satisfies the bounds) holds.
#[test]
fn delta_cc_check_matches_full_check() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED);
    let mut exercised = 0usize;
    for _ in 0..200 {
        let setting = random_setting(&mut rng);
        let base = random_db(&mut rng, 5, 6, 4);
        if !setting.v.upper_satisfied(&base, &setting.dm).unwrap() {
            continue; // precondition of the incremental check
        }
        let delta = random_db(&mut rng, 5, 3, 2);
        let ov = Overlay::new(&base, &delta).unwrap();
        let incremental = setting
            .v
            .upper_satisfied_delta(&setting.schema, &setting.dm, &ov)
            .unwrap();
        let full = setting
            .v
            .upper_satisfied(&ov.materialize(), &setting.dm)
            .unwrap();
        assert_eq!(incremental.satisfied, full, "delta CC check diverges");
        exercised += 1;
    }
    assert!(exercised >= 20, "too few bases satisfied the constraints");
}

/// The constraint shapes the RCDP engine differential runs over. Every
/// shape but `IndOnly` has a non-projection upper bound, so the naive engine
/// materializes unions while the planned engine runs compiled delta plans —
/// two code paths, where an IND-only set checks `Δ` alone on both.
#[derive(Clone, Copy, Debug)]
enum RcdpShape {
    /// `R.a ⊆ M`, `S.a ⊆ N`.
    IndOnly,
    /// Plus the FD `R: a → b`, compiled by `fd_to_ccs`.
    Fd,
    /// Plus the join `π_Y(R(X, Y) ⋈ S(X)) ⊆ N`.
    Join,
    /// Plus the denial `R(X, Y), T(X, 1), X ≠ Y ⊆ ∅`.
    Denial,
}

/// `R(a, b)`, `S(a)`, and `T(a, f)` with a boolean `f`.
fn mixed_schema() -> Schema {
    Schema::from_relations(vec![
        RelationSchema::infinite("R", &["a", "b"]),
        RelationSchema::infinite("S", &["a"]),
        RelationSchema::new("T", vec![Attribute::new("a"), Attribute::boolean("f")]),
    ])
    .unwrap()
}

/// Mixed constants: `Int(0)` beside `Str("0")`, ints, and strings.
fn mixed_value(rng: &mut SplitMix64) -> Value {
    match rng.random_range(0..5) {
        0 => Value::int(0),
        1 => Value::str("0"),
        2 => Value::int(1),
        3 => Value::str("a"),
        _ => Value::int(2),
    }
}

/// A setting of `shape` over `mixed_schema()`. The master relations hold
/// random pool values plus `"m-only"`, which neither a database nor a query
/// mentions.
fn rcdp_setting(rng: &mut SplitMix64, shape: RcdpShape) -> Setting {
    let s = mixed_schema();
    let (r, srel) = (s.rel_id("R").unwrap(), s.rel_id("S").unwrap());
    let m = Schema::from_relations(vec![
        RelationSchema::infinite("M", &["a"]),
        RelationSchema::infinite("N", &["a"]),
    ])
    .unwrap();
    let (mrel, nrel) = (m.rel_id("M").unwrap(), m.rel_id("N").unwrap());
    let mut dm = Database::empty(&m);
    for rel in [mrel, nrel] {
        dm.insert(rel, Tuple::new([Value::str("m-only")]));
        for _ in 0..3 {
            dm.insert(rel, Tuple::new([mixed_value(rng)]));
        }
    }
    let mut v = ConstraintSet::new(vec![
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
    match shape {
        RcdpShape::IndOnly => {}
        RcdpShape::Fd => {
            let fd = ric::constraints::Fd::new(r, vec![0], vec![1]);
            for cc in ric::constraints::compile::fd_to_ccs(&fd, &s) {
                v.push(cc);
            }
        }
        RcdpShape::Join => v.push(ContainmentConstraint::into_master(
            CcBody::Cq(parse_cq(&s, "Q(Y) :- R(X, Y), S(X).").unwrap()),
            nrel,
            vec![0],
        )),
        RcdpShape::Denial => v.push(ContainmentConstraint::into_empty(CcBody::Cq(
            parse_cq(&s, "Q(X, Y) :- R(X, Y), T(X, 1), X != Y.").unwrap(),
        ))),
    }
    Setting::new(s, m, dm, v)
}

/// A small random database over `mixed_schema()`.
fn mixed_db(rng: &mut SplitMix64) -> Database {
    let s = mixed_schema();
    let mut db = Database::empty(&s);
    let (r, srel, t) = (
        s.rel_id("R").unwrap(),
        s.rel_id("S").unwrap(),
        s.rel_id("T").unwrap(),
    );
    for _ in 0..rng.random_range(0..4) {
        db.insert(r, Tuple::new([mixed_value(rng), mixed_value(rng)]));
    }
    for _ in 0..rng.random_range(0..3) {
        db.insert(srel, Tuple::new([mixed_value(rng)]));
    }
    for _ in 0..rng.random_range(0..4) {
        let f = rng.random_range(0..2) as i64;
        db.insert(t, Tuple::new([mixed_value(rng), Value::int(f)]));
    }
    db
}

/// Queries over `mixed_schema()`: joins, `≠`, `Int(0)` and `Str("0")`
/// constants, and finite-domain head variables. The last four can be
/// complete (the last under the FD); the others reach `"m-only"` or an
/// unbounded column.
fn mixed_queries() -> Vec<Query> {
    let s = mixed_schema();
    [
        "Q(X) :- R(X, Y).",
        "Q(X, Z) :- R(X, Y), R(Y, Z).",
        "Q(X) :- R(X, Y), S(Y).",
        "Q(X, Y) :- R(X, Y), X != Y.",
        "Q(X) :- R(X, 0).",
        "Q(X) :- R(X, '0').",
        "Q(X, F) :- T(X, F).",
        "Q(X) :- T(X, 1), R(X, Y), Y != 0.",
        "Q(F) :- T(X, F).",
        "Q() :- R(X, Y), S(X).",
        "Q() :- T(X, F).",
        "Q(Y) :- R(0, Y).",
    ]
    .iter()
    .map(|src| parse_cq(&s, src).unwrap().into())
    .collect()
}

/// The search counters both engines must report identically: they share
/// one enumeration order and check the same candidates.
fn search_counters(report: &ric::telemetry::Report) -> Vec<(&'static str, u64)> {
    let mut names = vec!["rcdp.valuations", "rcdp.cc_checks", "prune.head"];
    names.extend(ric::complete::valuations::DEPTH_CANDIDATES);
    names.extend(ric::complete::valuations::DEPTH_PRUNED);
    names.extend((0..16).map(|i| PRUNE_CC[i]));
    names.into_iter().map(|n| (n, report.counter(n))).collect()
}

const PRUNE_CC: [&str; 16] = [
    "prune.cc.00",
    "prune.cc.01",
    "prune.cc.02",
    "prune.cc.03",
    "prune.cc.04",
    "prune.cc.05",
    "prune.cc.06",
    "prune.cc.07",
    "prune.cc.08",
    "prune.cc.09",
    "prune.cc.10",
    "prune.cc.11",
    "prune.cc.12",
    "prune.cc.13",
    "prune.cc.14",
    "prune.cc.15",
];

/// RCDP must return the same verdict — counterexample included — and the
/// same search counters under both engines, on every constraint shape.
#[test]
fn rcdp_verdicts_agree_across_engines() {
    let naive = SearchBudget::default().with_engine(Engine::Naive);
    let planned = SearchBudget::default().with_engine(Engine::Planned);
    let decide = |setting: &Setting, q: &Query, db: &Database, budget: &SearchBudget| {
        let collector = Collector::new();
        let verdict = ric::complete::Request::new(setting)
            .budget(budget)
            .probe(Probe::attached(&collector))
            .rcdp(q, db)
            .unwrap()
            .verdict;
        (verdict, search_counters(&collector.report()))
    };
    for shape in [
        RcdpShape::IndOnly,
        RcdpShape::Fd,
        RcdpShape::Join,
        RcdpShape::Denial,
    ] {
        let mut rng = SplitMix64::seed_from_u64(0x7777);
        let (mut decided, mut incomplete) = (0usize, 0usize);
        for round in 0..40 {
            let setting = rcdp_setting(&mut rng, shape);
            let db = mixed_db(&mut rng);
            if !setting.partially_closed(&db).unwrap() {
                continue;
            }
            for (qi, q) in mixed_queries().iter().enumerate() {
                let (vn, cn) = decide(&setting, q, &db, &naive);
                let (vp, cp) = decide(&setting, q, &db, &planned);
                assert_eq!(
                    vn, vp,
                    "verdicts or witnesses differ ({shape:?}, round {round}, query {qi})"
                );
                assert_eq!(
                    cn, cp,
                    "search counters differ ({shape:?}, round {round}, query {qi})"
                );
                if let Verdict::Incomplete(ce) = &vp {
                    assert!(
                        ric::complete::rcdp::certify_counterexample(&setting, q, &db, ce).unwrap(),
                        "uncertified counterexample ({shape:?}, round {round}, query {qi})"
                    );
                    incomplete += 1;
                }
                decided += 1;
            }
        }
        assert!(
            decided >= 40,
            "too few partially closed {shape:?} instances ({decided})"
        );
        assert!(
            incomplete >= 5 && decided - incomplete >= 5,
            "{shape:?} needs several verdicts of each kind ({incomplete} of {decided} incomplete)"
        );
    }
}

/// RCQP must return the same verdict kind under both engines.
#[test]
fn rcqp_verdicts_agree_across_engines() {
    let mut rng = SplitMix64::seed_from_u64(0x9999);
    let naive = SearchBudget::default().with_engine(Engine::Naive);
    let sequential = SearchBudget::default().with_engine(Engine::Planned);
    for round in 0..10 {
        let setting = random_setting(&mut rng);
        for (qi, cq) in cq_pool().into_iter().enumerate() {
            let q: Query = cq.into();
            let vn = rcqp(&setting, &q, &naive).unwrap();
            let vi = rcqp(&setting, &q, &sequential).unwrap();
            assert_eq!(
                std::mem::discriminant(&vn),
                std::mem::discriminant(&vi),
                "RCQP verdicts diverge (round {round}, query {qi}): {vn:?} vs {vi:?}"
            );
        }
    }
}

/// Two schemas using the *same relation names* must stay fully independent
/// inside one process. The string interner is process-global (equal names
/// share one allocation) and `Database::active_domain()` is cached — this
/// pins down that neither mechanism leaks state across schemas: `RelId`s are
/// per-schema, active domains are per-database, and the `index.probe`
/// telemetry counter of a decision is unchanged by interleaved decisions
/// over the colliding schema (the counter is a per-thread snapshot delta,
/// not a shared total).
#[test]
fn colliding_relation_names_do_not_cross_contaminate() {
    // Schema 1: the suite's R(a,b), S(a). Schema 2 reuses both names with
    // different arities and positions.
    let s1 = schema();
    let s2 = Schema::from_relations(vec![
        RelationSchema::infinite("S", &["x", "y", "z"]),
        RelationSchema::infinite("R", &["x"]),
    ])
    .unwrap();
    assert_ne!(s1.rel_id("R"), s2.rel_id("R"), "RelIds must be per-schema");

    let mut db1 = Database::empty(&s1);
    db1.insert(
        s1.rel_id("R").unwrap(),
        Tuple::new([Value::str("shared"), Value::str("only-one")]),
    );
    let mut db2 = Database::empty(&s2);
    db2.insert(
        s2.rel_id("R").unwrap(),
        Tuple::new([Value::str("only-two")]),
    );
    db2.insert(
        s2.rel_id("S").unwrap(),
        Tuple::new([
            Value::str("shared"),
            Value::str("only-two"),
            Value::str("only-two"),
        ]),
    );

    // Interleave cache fills: each database sees exactly its own constants,
    // even though "shared" is one process-global interned allocation.
    assert!(db1.active_domain().contains(&Value::str("shared")));
    assert!(db2.active_domain().contains(&Value::str("shared")));
    assert!(db1.active_domain().contains(&Value::str("only-one")));
    assert!(!db1.active_domain().contains(&Value::str("only-two")));
    assert!(db2.active_domain().contains(&Value::str("only-two")));
    assert!(!db2.active_domain().contains(&Value::str("only-one")));
    // Mutation drops the cache instead of serving stale contents.
    db1.insert(s1.rel_id("S").unwrap(), Tuple::new([Value::str("late")]));
    assert!(db1.active_domain().contains(&Value::str("late")));
    assert!(!db2.active_domain().contains(&Value::str("late")));

    // Index/probe telemetry isolation: measure a decision on setting 1,
    // then run a decision over the colliding schema, then re-measure. The
    // per-decision `index.probe` figure must be identical.
    let mut rng = SplitMix64::seed_from_u64(0xC011);
    let setting1 = random_setting(&mut rng);
    let db = random_db(&mut rng, 4, 6, 4);
    let q: Query = parse_cq(&schema(), "Q(X) :- R(X, Y), S(Y).")
        .unwrap()
        .into();
    let budget = SearchBudget::default().with_engine(Engine::Planned);
    let measure = || {
        let collector = Collector::new();
        ric::complete::Request::new(&setting1)
            .budget(&budget)
            .probe(Probe::attached(&collector))
            .rcdp(&q, &db)
            .map(|o| o.verdict)
            .unwrap();
        collector.report().counter("index.probe")
    };
    let before = measure();

    // Noise: a full decision over the colliding schema, probing db2 indexes.
    let m2 = Schema::from_relations(vec![RelationSchema::infinite("M", &["x"])]).unwrap();
    let mut dm2 = Database::empty(&m2);
    dm2.insert(
        m2.rel_id("M").unwrap(),
        Tuple::new([Value::str("only-two")]),
    );
    let setting2 = Setting::new(
        s2.clone(),
        m2.clone(),
        dm2,
        ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(s2.rel_id("R").unwrap(), vec![0])),
            m2.rel_id("M").unwrap(),
            vec![0],
        )]),
    );
    let q2: Query = parse_cq(&s2, "Q(A) :- S(A, B, C), R(A).").unwrap().into();
    let collector = Collector::new();
    ric::complete::Request::new(&setting2)
        .budget(&budget)
        .probe(Probe::attached(&collector))
        .rcdp(&q2, &db2)
        .map(|o| o.verdict)
        .unwrap();

    let after = measure();
    assert_eq!(
        before, after,
        "index.probe telemetry leaked across colliding schemas"
    );
}

/// The setting shapes the bounded-search differential runs over.
#[derive(Clone, Copy, Debug)]
enum BoundedShape {
    /// `random_setting`'s two projection upper bounds.
    IndOnly,
    /// Plus a join-bodied upper bound `R(X, Y), S(X) ⊆ N` (Y side).
    Join,
    /// The join setting plus two lower bounds over master `L = {0}`: a
    /// projection body (`L ⊆ π_a(R)`) and an FO body
    /// (`L ⊆ {x | ∃y R(x, y) ∧ ¬S(x)}`), which is not monotone.
    Lower,
}

/// `random_setting` reshaped by `shape`, with a database over it that
/// carries what the lower bounds demand.
fn bounded_instance(rng: &mut SplitMix64, shape: BoundedShape) -> (Setting, Database) {
    let base = random_setting(rng);
    let mut db = random_db(rng, 5, 4, 2);
    if let BoundedShape::IndOnly = shape {
        return (base, db);
    }
    let s = schema();
    let (r, srel) = (s.rel_id("R").unwrap(), s.rel_id("S").unwrap());
    let m = Schema::from_relations(vec![
        RelationSchema::infinite("M", &["a"]),
        RelationSchema::infinite("N", &["a"]),
        RelationSchema::infinite("L", &["a"]),
    ])
    .unwrap();
    let (nrel, lrel) = (m.rel_id("N").unwrap(), m.rel_id("L").unwrap());
    let mut dm = Database::empty(&m);
    for rel in [m.rel_id("M").unwrap(), nrel] {
        for t in base.dm.instance(rel).iter() {
            dm.insert(rel, t.clone());
        }
    }
    let mut v = base.v.clone();
    let join = parse_cq(&s, "Q(Y) :- R(X, Y), S(X).").unwrap();
    v.push(ContainmentConstraint::into_master(
        CcBody::Cq(join),
        nrel,
        vec![0],
    ));
    if let BoundedShape::Lower = shape {
        dm.insert(lrel, Tuple::new([Value::int(0)]));
        let (x, y) = (Var(0), Var(1));
        let fo = FoQuery::new(
            vec![x],
            FoExpr::And(vec![
                FoExpr::Exists(
                    vec![y],
                    Box::new(FoExpr::Atom(ric::query::Atom::new(
                        r,
                        vec![Term::Var(x), Term::Var(y)],
                    ))),
                ),
                FoExpr::not(FoExpr::Atom(ric::query::Atom::new(
                    srel,
                    vec![Term::Var(x)],
                ))),
            ]),
            vec!["x".into(), "y".into()],
        );
        for body in [CcBody::Proj(Projection::new(r, vec![0])), CcBody::Fo(fo)] {
            v.push_lower_bound(ric::constraints::LowerBound {
                master: Projection::new(lrel, vec![0]),
                body,
            });
        }
        let y = rng.random_range(0..5) as i64;
        db.insert(r, Tuple::new([Value::int(0), Value::int(y)]));
        db.instance_mut(srel).remove(&Tuple::new([Value::int(0)]));
    }
    (Setting::new(s, m, dm, v), db)
}

/// FO/FP settings route through the bounded semi-decision; its verdicts must
/// also be engine-independent — with projection-only upper bounds, with a
/// join-bodied upper bound, and with lower bounds whose FO body each
/// surviving candidate re-checks.
#[test]
fn bounded_search_verdicts_agree_across_engines() {
    let s = schema();
    let srel = s.rel_id("S").unwrap();
    let x = Var(0);
    // Non-monotone query: Q() := ¬∃x S(x).
    let fo = FoQuery::new(
        vec![],
        FoExpr::not(FoExpr::Exists(
            vec![x],
            Box::new(FoExpr::Atom(ric::query::Atom::new(
                srel,
                vec![Term::Var(x)],
            ))),
        )),
        vec!["x".into()],
    );
    let q = Query::Fo(fo);
    let naive = SearchBudget::small().with_engine(Engine::Naive);
    let planned = SearchBudget::small().with_engine(Engine::Planned);
    for shape in [
        BoundedShape::IndOnly,
        BoundedShape::Join,
        BoundedShape::Lower,
    ] {
        let mut rng = SplitMix64::seed_from_u64(0x1234);
        let mut decided = 0usize;
        for round in 0..10 {
            let (setting, db) = bounded_instance(&mut rng, shape);
            if !setting.partially_closed(&db).unwrap() {
                continue;
            }
            let vn = rcdp(&setting, &q, &db, &naive).unwrap();
            let vp = rcdp(&setting, &q, &db, &planned).unwrap();
            assert_eq!(
                std::mem::discriminant(&vn),
                std::mem::discriminant(&vp),
                "bounded verdicts diverge ({shape:?}, round {round}): {vn:?} vs {vp:?}"
            );
            for v in [&vn, &vp] {
                if let Verdict::Incomplete(ce) = v {
                    assert!(
                        ric::complete::rcdp::certify_counterexample(&setting, &q, &db, ce).unwrap(),
                        "uncertified counterexample ({shape:?}, round {round})"
                    );
                }
            }
            decided += 1;
        }
        assert!(decided >= 1, "no {shape:?} instance was partially closed");
    }
}
