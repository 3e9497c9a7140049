//! Differential testing of the parallel scheduler: the sharded planned engine
//! must return the *same verdict and the same telemetry-visible witness* as
//! the sequential engines, at every worker count and under every chunk-claim
//! schedule.
//!
//! The suite covers:
//!
//! * RCDP / RCQP / bounded-search verdict agreement across
//!   `Engine::planned(workers)` for workers ∈ {1, 2, 4, 7} (overridable
//!   with `RIC_WORKERS=a,b,…` — the CI worker matrix uses it) versus
//!   `Engine::planned(1)` and `Engine::Naive`;
//! * exact equality of the decision-level telemetry counters between the
//!   parallel and the sequential engine on decided runs — the scheduler's
//!   "sums stop at the deciding chunk" merge makes them bit-identical;
//! * schedule independence: seeded permutations of the chunk *claim order*
//!   (via `ric::complete::sched_test`) must not change verdicts, witnesses,
//!   or counters;
//! * fault injection mid-fan-out: a cancellation or deadline trip on one
//!   worker must surface as the matching `Unknown` limit on the merged
//!   verdict, with the pre-fault telemetry intact;
//! * per-thread probe isolation: two concurrent decisions must not see each
//!   other's `index.probe` counts (the regression test for the counter that
//!   was process-global).

use ric::prelude::*;
use ric::SplitMix64;

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

/// Worker counts under test: `RIC_WORKERS=a,b,…` when set (the CI matrix
/// exports it), otherwise {1, 2, 4, 7} — below, at, and beyond the typical
/// chunk count, plus an odd count that never divides it.
fn worker_counts() -> Vec<usize> {
    match std::env::var("RIC_WORKERS") {
        Ok(spec) => spec
            .split(',')
            .map(|w| w.trim().parse().expect("RIC_WORKERS must be integers"))
            .collect(),
        Err(_) => vec![1, 2, 4, 7],
    }
}

/// The telemetry counters whose totals the parallel merge reproduces
/// bit-identically on decided RCDP runs.
const RCDP_COUNTERS: [&str; 5] = [
    "rcdp.valuations",
    "rcdp.cc_checks",
    "cc.skipped_by_delta",
    "index.probe",
    "valuations.assignments",
];

/// RCDP: every worker count must reproduce the sequential verdict, the same
/// counterexample, and the same decision counters.
#[test]
fn rcdp_parallel_matches_sequential_verdicts_and_witnesses() {
    let mut rng = SplitMix64::seed_from_u64(0x7777);
    let naive = SearchBudget::default().with_engine(Engine::Naive);
    let sequential = SearchBudget::default().with_engine(Engine::planned(1));
    let mut decided = 0usize;
    for round in 0..25 {
        let setting = random_setting(&mut rng);
        let db = random_db(&mut rng, 5, 5, 3);
        if !setting.partially_closed(&db).unwrap() {
            continue;
        }
        for (qi, cq) in cq_pool().into_iter().enumerate() {
            let q: Query = cq.into();
            let vn = rcdp(&setting, &q, &db, &naive).unwrap();
            let seq_collector = Collector::new();
            let vi = rcdp_probed(
                &setting,
                &q,
                &db,
                &sequential,
                Probe::attached(&seq_collector),
            )
            .unwrap();
            let seq_report = seq_collector.report();
            for workers in worker_counts() {
                let budget = SearchBudget::default().with_engine(Engine::planned(workers));
                let collector = Collector::new();
                let vp =
                    rcdp_probed(&setting, &q, &db, &budget, Probe::attached(&collector)).unwrap();
                let report = collector.report();
                match (&vi, &vp) {
                    (Verdict::Complete, Verdict::Complete) => {}
                    (Verdict::Incomplete(a), Verdict::Incomplete(b)) => {
                        assert_eq!(
                            (&a.delta, &a.new_answer),
                            (&b.delta, &b.new_answer),
                            "parallel witness differs from sequential \
                             (round {round}, query {qi}, workers {workers})"
                        );
                        assert!(
                            ric::complete::rcdp::certify_counterexample(&setting, &q, &db, b)
                                .unwrap(),
                            "uncertified parallel counterexample \
                             (round {round}, query {qi}, workers {workers})"
                        );
                    }
                    other => panic!(
                        "parallel and sequential disagree \
                         (round {round}, query {qi}, workers {workers}): {other:?}"
                    ),
                }
                assert_eq!(
                    std::mem::discriminant(&vn),
                    std::mem::discriminant(&vp),
                    "parallel and naive disagree (round {round}, query {qi}, workers {workers})"
                );
                for name in RCDP_COUNTERS {
                    assert_eq!(
                        seq_report.counter(name),
                        report.counter(name),
                        "counter {name} diverges \
                         (round {round}, query {qi}, workers {workers})"
                    );
                }
            }
            decided += 1;
        }
    }
    assert!(
        decided >= 40,
        "too few partially closed instances generated ({decided})"
    );
}

/// Seeded permutations of the chunk claim order must not change anything:
/// not the verdict, not the witness, not a single decision counter.
#[test]
fn rcdp_parallel_is_schedule_independent() {
    let mut rng = SplitMix64::seed_from_u64(0xA5A5);
    let budget = SearchBudget::default().with_engine(Engine::planned(4));
    let mut compared = 0usize;
    for _ in 0..10 {
        let setting = random_setting(&mut rng);
        let db = random_db(&mut rng, 5, 5, 3);
        if !setting.partially_closed(&db).unwrap() {
            continue;
        }
        for cq in cq_pool() {
            let q: Query = cq.into();
            let baseline_collector = Collector::new();
            let baseline = rcdp_probed(
                &setting,
                &q,
                &db,
                &budget,
                Probe::attached(&baseline_collector),
            )
            .unwrap();
            let baseline_report = baseline_collector.report();
            for seed in 0..8 {
                let collector = Collector::new();
                let v = ric::complete::sched_test::with_schedule(seed, || {
                    rcdp_probed(&setting, &q, &db, &budget, Probe::attached(&collector))
                })
                .unwrap();
                assert_eq!(baseline, v, "verdict changed under schedule seed {seed}");
                let report = collector.report();
                for name in RCDP_COUNTERS {
                    assert_eq!(
                        baseline_report.counter(name),
                        report.counter(name),
                        "counter {name} changed under schedule seed {seed}"
                    );
                }
                compared += 1;
            }
        }
    }
    assert!(compared >= 80, "too few schedule comparisons ({compared})");
}

/// RCQP: verdict kinds agree across all engines and worker counts (witness
/// databases may legitimately differ only in fresh-value naming, so the
/// comparison is by discriminant plus witness certification, which
/// `rcqp` already performs internally before reporting one).
#[test]
fn rcqp_parallel_agrees_with_sequential_engines() {
    let mut rng = SplitMix64::seed_from_u64(0x9999);
    let naive = SearchBudget::default().with_engine(Engine::Naive);
    let sequential = SearchBudget::default().with_engine(Engine::planned(1));
    for round in 0..8 {
        let setting = random_setting(&mut rng);
        for (qi, cq) in cq_pool().into_iter().enumerate() {
            let q: Query = cq.into();
            let vn = rcqp(&setting, &q, &naive).unwrap();
            let vi = rcqp(&setting, &q, &sequential).unwrap();
            for workers in worker_counts() {
                let budget = SearchBudget::default().with_engine(Engine::planned(workers));
                let vp = rcqp(&setting, &q, &budget).unwrap();
                assert_eq!(
                    std::mem::discriminant(&vi),
                    std::mem::discriminant(&vp),
                    "RCQP parallel vs sequential diverge \
                     (round {round}, query {qi}, workers {workers}): {vi:?} vs {vp:?}"
                );
                assert_eq!(
                    std::mem::discriminant(&vn),
                    std::mem::discriminant(&vp),
                    "RCQP parallel vs naive diverge \
                     (round {round}, query {qi}, workers {workers}): {vn:?} vs {vp:?}"
                );
            }
        }
    }
}

/// FO routes through the bounded semi-decision; its sharded subset search
/// must agree with the sequential engines at every worker count.
#[test]
fn bounded_search_parallel_agrees_with_sequential_engines() {
    let s = schema();
    let srel = s.rel_id("S").unwrap();
    let x = ric::query::Var(0);
    // Q() := ¬∃x S(x): any added S tuple flips the answer, so most instances
    // decide quickly and exercise the earliest-hit merge.
    let fo = ric::query::FoQuery::new(
        vec![],
        ric::query::FoExpr::not(ric::query::FoExpr::Exists(
            vec![x],
            Box::new(ric::query::FoExpr::Atom(ric::query::Atom::new(
                srel,
                vec![Term::Var(x)],
            ))),
        )),
        vec!["x".into()],
    );
    let naive = SearchBudget::default().with_engine(Engine::Naive);
    let sequential = SearchBudget::default().with_engine(Engine::planned(1));
    let mut rng = SplitMix64::seed_from_u64(0x1234);
    for round in 0..6 {
        let setting = random_setting(&mut rng);
        let db = random_db(&mut rng, 5, 4, 2);
        if !setting.partially_closed(&db).unwrap() {
            continue;
        }
        let q = Query::Fo(fo.clone());
        let vn = rcdp(&setting, &q, &db, &naive).unwrap();
        let vi = rcdp(&setting, &q, &db, &sequential).unwrap();
        for workers in worker_counts() {
            let budget = SearchBudget::default().with_engine(Engine::planned(workers));
            let vp = rcdp(&setting, &q, &db, &budget).unwrap();
            for (label, seq) in [("naive", &vn), ("sequential", &vi)] {
                assert_eq!(
                    std::mem::discriminant(seq),
                    std::mem::discriminant(&vp),
                    "bounded parallel vs {label} diverge \
                     (round {round}, workers {workers}): {seq:?} vs {vp:?}"
                );
            }
        }
    }
}

/// A blocked-but-wide instance the exact decider must fully enumerate: every
/// candidate extension is outside the master list, so no counterexample
/// exists, and the enumeration visits the whole valuation space.
fn wide_complete_instance() -> (Setting, Query, Database) {
    let schema =
        Schema::from_relations(vec![RelationSchema::infinite("Supt", &["eid", "cid"])]).unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let mschema =
        Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
    let dcust = mschema.rel_id("DCust").unwrap();
    let mut dm = Database::empty(&mschema);
    for c in 0..12 {
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
    for c in 0..12 {
        db.insert(
            supt,
            Tuple::new([Value::str("e0"), Value::str(format!("c{c}"))]),
        );
    }
    (setting, q, db)
}

/// A fault-plan cancellation on a worker mid-fan-out must trip the whole
/// pool: the merged verdict reports the cancellation limit, and the
/// telemetry gathered before the fault survives into the report.
#[test]
fn cancellation_mid_fanout_trips_every_worker() {
    let (setting, q, db) = wide_complete_instance();
    let budget = SearchBudget::default().with_engine(Engine::planned(4));
    let guard = Guard::new(&budget)
        .with_fault_plan(FaultPlan::new().cancel_at_tick(3))
        .with_check_interval(0);
    let collector = Collector::new();
    let v = rcdp_guarded(
        &setting,
        &q,
        &db,
        &budget,
        &guard,
        Probe::attached(&collector),
    )
    .unwrap();
    match &v {
        Verdict::Unknown { stats } => {
            assert_eq!(stats.limit, BudgetLimit::Cancelled, "stats: {stats:?}");
            assert!(
                stats.detail.contains("cancelled after"),
                "detail must use the sequential wording: {}",
                stats.detail
            );
        }
        other => panic!("expected an interrupted Unknown, got {other:?}"),
    }
    let report = collector.report();
    assert!(
        report
            .interrupts
            .iter()
            .any(|i| i.name == "rcdp.interrupt" && i.reason == Interrupt::Cancelled.name()),
        "the interrupt must be recorded: {:?}",
        report.interrupts
    );
    // Pre-fault telemetry survives: the fan-out itself is visible, and the
    // decision notes report the unknown outcome.
    assert!(report.counter("par.chunk") >= 1, "no chunks recorded");
    assert_eq!(report.counter("rcdp.query_evals"), 1);
}

/// Same shape with a deadline fault: the merged verdict must name the
/// deadline limit even when sibling workers only observe the broadcast
/// cancellation.
#[test]
fn deadline_mid_fanout_is_reported_as_deadline() {
    let (setting, q, db) = wide_complete_instance();
    let budget = SearchBudget::default().with_engine(Engine::planned(4));
    let guard = Guard::new(&budget)
        .with_fault_plan(FaultPlan::new().deadline_at_tick(3))
        .with_check_interval(0);
    let v = rcdp_guarded(&setting, &q, &db, &budget, &guard, Probe::disabled()).unwrap();
    match &v {
        Verdict::Unknown { stats } => {
            assert_eq!(stats.limit, BudgetLimit::Deadline, "stats: {stats:?}");
            assert!(
                stats.detail.contains("wall-clock deadline expired after"),
                "detail must use the sequential wording: {}",
                stats.detail
            );
        }
        other => panic!("expected an interrupted Unknown, got {other:?}"),
    }
}

/// An already-cancelled guard stops the fan-out before any real work, at
/// every worker count.
#[test]
fn pre_cancelled_guard_stops_the_parallel_fanout() {
    let (setting, q, db) = wide_complete_instance();
    for workers in worker_counts() {
        let budget = SearchBudget::default().with_engine(Engine::planned(workers));
        let token = CancelToken::new();
        token.cancel();
        let guard = Guard::new(&budget)
            .with_cancel(token)
            .with_check_interval(0);
        let v = rcdp_guarded(&setting, &q, &db, &budget, &guard, Probe::disabled()).unwrap();
        match &v {
            Verdict::Unknown { stats } => {
                assert_eq!(stats.limit, BudgetLimit::Cancelled, "workers {workers}");
            }
            other => panic!("expected cancellation (workers {workers}), got {other:?}"),
        }
    }
}

/// Pins the `Report::merge` semantics the parallel scheduler and the metrics
/// exporter both rely on, exercised with real sharded-engine event
/// streams: counters and spans *sum* (a merged span column reads as total
/// work time, not wall time), gauges keep the *max*, notes append, and
/// re-merging the same interrupt stream does not duplicate it — only a
/// genuinely distinct interrupt record appends.
#[test]
fn report_merge_semantics_are_pinned_under_parallel_runs() {
    let (setting, q, db) = wide_complete_instance();
    let supt = setting.schema.rel_id("Supt").unwrap();
    let budget = SearchBudget::default().with_engine(Engine::planned(4));
    let run = |setting: &Setting, db: &Database| {
        let collector = Collector::new();
        rcdp_probed(setting, &q, db, &budget, Probe::attached(&collector)).unwrap();
        collector.report()
    };
    // Two runs over different instance sizes — the small one gets its own
    // one-customer master, so the adom gauge differs and the max rule is
    // observable (equal inputs would pin nothing).
    let big = run(&setting, &db);
    let small = {
        let mschema =
            Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
        let dcust = mschema.rel_id("DCust").unwrap();
        let mut dm = Database::empty(&mschema);
        dm.insert(dcust, Tuple::new([Value::str("c0")]));
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(supt, vec![1])),
            dcust,
            vec![0],
        )]);
        let small_setting = Setting::new(setting.schema.clone(), mschema, dm, v);
        let mut small_db = Database::empty(&small_setting.schema);
        small_db.insert(supt, Tuple::new([Value::str("e0"), Value::str("c0")]));
        run(&small_setting, &small_db)
    };
    let (gauge_big, gauge_small) = (
        big.gauge("rcdp.adom_size").expect("gauge on the big run"),
        small
            .gauge("rcdp.adom_size")
            .expect("gauge on the small run"),
    );
    assert!(
        gauge_small < gauge_big,
        "the two runs must disagree on the gauge for the max rule to show \
         ({gauge_small} vs {gauge_big})"
    );

    let mut merged = big.clone();
    merged.merge(&small);
    for name in RCDP_COUNTERS {
        assert_eq!(
            merged.counter(name),
            big.counter(name) + small.counter(name),
            "counter {name} must sum under merge"
        );
    }
    for (name, micros) in &merged.spans {
        let expect = big.span_micros(name).unwrap_or(0) + small.span_micros(name).unwrap_or(0);
        assert_eq!(*micros, expect, "span {name} must sum under merge");
    }
    assert_eq!(
        merged.gauge("rcdp.adom_size"),
        Some(gauge_big),
        "gauges must keep the max under merge"
    );
    assert_eq!(
        merged.notes("rcdp.outcome").len(),
        big.notes("rcdp.outcome").len() + small.notes("rcdp.outcome").len(),
        "notes must append under merge"
    );

    // Interrupt dedup: a cancelled parallel fan-out records the interrupt;
    // folding the same report in again must not duplicate it, while a
    // record differing in any field must append.
    let guard = Guard::new(&budget)
        .with_fault_plan(FaultPlan::new().cancel_at_tick(3))
        .with_check_interval(0);
    let collector = Collector::new();
    rcdp_guarded(
        &setting,
        &q,
        &db,
        &budget,
        &guard,
        Probe::attached(&collector),
    )
    .unwrap();
    let cancelled = collector.report();
    let recorded = cancelled.interrupts.len();
    assert!(recorded >= 1, "the cancellation must be recorded");
    let mut remerged = cancelled.clone();
    remerged.merge(&cancelled);
    assert_eq!(
        remerged.interrupts.len(),
        recorded,
        "exact-duplicate interrupts must dedup under merge"
    );
    let mut shifted = cancelled.clone();
    for record in &mut shifted.interrupts {
        record.at_tick += 1;
    }
    remerged.merge(&shifted);
    assert_eq!(
        remerged.interrupts.len(),
        recorded + shifted.interrupts.len(),
        "distinct interrupt records must append under merge"
    );
}

/// The probe-isolation regression test: two decisions running concurrently
/// on two threads must each report exactly the `index.probe` count they
/// would report alone — the counter is per-thread, not process-global.
#[test]
fn concurrent_decisions_do_not_share_probe_counts() {
    // An FD-constrained instance: the non-IND constraint set selects the
    // delta-aware check mode, whose overlay evaluation probes the index.
    let schema =
        Schema::from_relations(vec![RelationSchema::infinite("Supt", &["eid", "dept"])]).unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let fd = Fd::new(supt, vec![0], vec![1]);
    let v = ConstraintSet::new(ric::constraints::compile::fd_to_ccs(&fd, &schema));
    let setting = Setting::new(
        schema.clone(),
        Schema::new(),
        Database::with_relations(0),
        v,
    );
    let q: Query = parse_cq(&schema, "Q(E) :- Supt(E, 'd0').").unwrap().into();
    let mut db = Database::empty(&schema);
    for e in 0..4 {
        db.insert(
            supt,
            Tuple::new([Value::str(format!("e{e}")), Value::str("d0")]),
        );
    }
    let sequential = SearchBudget::default().with_engine(Engine::planned(1));
    let solo = {
        let collector = Collector::new();
        rcdp_probed(&setting, &q, &db, &sequential, Probe::attached(&collector)).unwrap();
        collector.report().counter("index.probe")
    };
    assert!(solo > 0, "the instance must exercise the index");
    let probes: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (setting, q, db, budget) = (&setting, &q, &db, &sequential);
                s.spawn(move || {
                    let collector = Collector::new();
                    rcdp_probed(setting, q, db, budget, Probe::attached(&collector)).unwrap();
                    collector.report().counter("index.probe")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, p) in probes.iter().enumerate() {
        assert_eq!(
            *p, solo,
            "decision {i} saw foreign probes: {p} vs solo {solo}"
        );
    }
    // The same isolation must hold when the decisions themselves fan out.
    let parallel = SearchBudget::default().with_engine(Engine::planned(3));
    let solo_par = {
        let collector = Collector::new();
        rcdp_probed(&setting, &q, &db, &parallel, Probe::attached(&collector)).unwrap();
        collector.report().counter("index.probe")
    };
    assert_eq!(
        solo_par, solo,
        "parallel index.probe must equal the sequential count"
    );
    let par_probes: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (setting, q, db, budget) = (&setting, &q, &db, &parallel);
                s.spawn(move || {
                    let collector = Collector::new();
                    rcdp_probed(setting, q, db, budget, Probe::attached(&collector)).unwrap();
                    collector.report().counter("index.probe")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, p) in par_probes.iter().enumerate() {
        assert_eq!(
            *p, solo,
            "parallel decision {i} saw foreign probes: {p} vs solo {solo}"
        );
    }
}
