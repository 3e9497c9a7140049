//! Integration tests for the telemetry layer: exact counters on
//! hand-computed instances, structured `SearchStats` on every `Unknown`
//! verdict, JSONL output that parses back, and `Display`-string stability
//! for the verdict types (log output must not change across revisions).

use ric::prelude::*;
use ric::telemetry::{json, JsonlSink};
use ric::{rcdp_probed, rcqp_probed, BudgetLimit, SearchStats};

/// Example 2.1 in miniature: Supt(eid, cid) with cid bounded by the master
/// customer list {c1, c2}; the database only knows e0 supports c1.
fn master_bounded_instance() -> (Setting, Query, Database) {
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
    (setting, q, db)
}

#[test]
fn rcdp_counters_match_hand_computation() {
    let (setting, q, db) = master_bounded_instance();
    let collector = Collector::new();
    let v = rcdp_probed(
        &setting,
        &q,
        &db,
        &SearchBudget::default(),
        Probe::attached(&collector),
    )
    .unwrap();
    assert!(v.is_incomplete(), "c2 can still be collected");

    let report = collector.report();
    // The exact decider evaluates Q(D) once up front.
    assert_eq!(report.counter("rcdp.query_evals"), 1);
    // The delta tableau has one atom Supt('e0', C) with one variable; the
    // enumeration tries candidate values for C from the active domain and
    // stops at the first violating valuation. The valuation count equals
    // what the shared enumeration space reports.
    let valuations = report.counter("rcdp.valuations");
    assert!(valuations >= 1, "at least one valuation must be examined");
    assert_eq!(report.counter("valuations.assignments"), valuations);
    // Each examined valuation is checked against the constraints at most
    // twice (partial filter + final visit).
    let cc_checks = report.counter("rcdp.cc_checks");
    assert!(
        cc_checks >= 1 && cc_checks <= 2 * valuations,
        "cc_checks: {cc_checks}"
    );

    // Structured decision notes: one strategy, one outcome, emitted once.
    assert_eq!(report.notes("rcdp.strategy"), vec!["exact".to_string()]);
    assert_eq!(report.notes("rcdp.outcome"), vec!["incomplete".to_string()]);
    // The active domain: e0, c1 (db) + c2 (master) + the query constant e0
    // + fresh padding; the gauge must cover at least those three values.
    assert!(report.gauge("rcdp.adom_size").unwrap() >= 3);
    // Span timings exist for the enumeration phase.
    assert!(report.span_micros("rcdp.enumerate").is_some());
}

#[test]
fn rcdp_unknown_names_the_exhausted_limit() {
    let (setting, q, db) = master_bounded_instance();
    let budget = SearchBudget {
        max_valuations: 0,
        ..SearchBudget::default()
    };
    let collector = Collector::new();
    let v = rcdp_probed(&setting, &q, &db, &budget, Probe::attached(&collector)).unwrap();
    match &v {
        Verdict::Unknown { stats } => {
            assert_eq!(stats.limit, BudgetLimit::MaxValuations);
            // Meter counts accepted work only: never more than the limit.
            assert_eq!(stats.valuations, 0);
            assert_eq!(stats.detail, "valuation budget of 0 exhausted");
        }
        other => panic!("expected unknown, got {other:?}"),
    }
    let report = collector.report();
    assert_eq!(report.notes("rcdp.outcome"), vec!["unknown".to_string()]);
    assert_eq!(
        report.notes("rcdp.limit"),
        vec!["max_valuations".to_string()]
    );
    assert_eq!(report.counter("rcdp.valuations"), 0);
}

#[test]
fn rcqp_counters_and_outcome_notes() {
    // Example 4.1: FD eid → dept blocks every extension mentioning e0, so a
    // blocking witness exists and RCQ is nonempty.
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
    let q: Query = parse_cq(&schema, "Q(E) :- Supt(E, 'd0'), E = 'e0'.")
        .unwrap()
        .into();
    let budget = SearchBudget {
        fresh_values: 3,
        ..SearchBudget::default()
    };

    let collector = Collector::new();
    let verdict = rcqp_probed(&setting, &q, &budget, Probe::attached(&collector)).unwrap();
    assert!(verdict.is_nonempty());

    let report = collector.report();
    assert_eq!(report.notes("rcqp.outcome"), vec!["nonempty".to_string()]);
    assert_eq!(
        report.notes("rcqp.strategy").len(),
        1,
        "exactly one strategy note"
    );
    if let QueryVerdict::Nonempty { witness: Some(w) } = &verdict {
        assert_eq!(
            report.gauge("rcqp.witness_tuples"),
            Some(w.tuple_count() as u64)
        );
    }
}

#[test]
fn rcqp_unknown_carries_structured_stats() {
    // An FP query forces the bounded semi-decision; with a candidate budget
    // of zero the search cannot examine anything, and the verdict must say
    // which knob ran out.
    use ric::reductions::two_head_dfa::{to_rcdp_instance, TwoHeadDfa};
    let (setting, q, _db) = to_rcdp_instance(&TwoHeadDfa::ones());
    let budget = SearchBudget {
        max_delta_tuples: 2,
        fresh_values: 1,
        max_candidates: 0,
        ..SearchBudget::default()
    };

    let collector = Collector::new();
    let verdict = rcqp_probed(&setting, &q, &budget, Probe::attached(&collector)).unwrap();
    match &verdict {
        QueryVerdict::Unknown { stats } => {
            assert_eq!(stats.limit, BudgetLimit::MaxCandidates);
            assert_eq!(stats.candidates, 0, "no candidate was actually examined");
        }
        other => panic!("expected unknown, got {other:?}"),
    }
    let report = collector.report();
    assert_eq!(report.notes("rcqp.outcome"), vec!["unknown".to_string()]);
    assert_eq!(
        report.notes("rcqp.limit"),
        vec!["max_candidates".to_string()]
    );
    assert_eq!(report.notes("rcqp.strategy"), vec!["bounded".to_string()]);
}

#[test]
fn collector_reports_are_deterministic() {
    let (setting, q, db) = master_bounded_instance();
    let run = || {
        let collector = Collector::new();
        rcdp_probed(
            &setting,
            &q,
            &db,
            &SearchBudget::default(),
            Probe::attached(&collector),
        )
        .unwrap();
        collector.report()
    };
    let (a, b) = (run(), run());
    // Wall-clock spans differ between runs; everything else is exact.
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.gauges, b.gauges);
    assert_eq!(a.notes, b.notes);
}

#[test]
fn jsonl_stream_is_parseable_line_delimited_json() {
    let (setting, q, db) = master_bounded_instance();
    let sink = JsonlSink::new(Vec::new());
    rcdp_probed(
        &setting,
        &q,
        &db,
        &SearchBudget::default(),
        Probe::attached(&sink),
    )
    .unwrap();
    let text = String::from_utf8(sink.into_inner()).unwrap();
    assert!(!text.is_empty());
    let mut kinds = std::collections::BTreeSet::new();
    for line in text.lines() {
        let doc = json::parse(line).expect("every line is a complete JSON document");
        let kind = doc
            .get("kind")
            .and_then(ric::telemetry::Json::as_str)
            .unwrap();
        assert!(
            ["count", "gauge", "span", "note"].contains(&kind),
            "kind: {kind}"
        );
        assert!(doc
            .get("name")
            .and_then(ric::telemetry::Json::as_str)
            .is_some());
        kinds.insert(kind.to_string());
    }
    // A full decision emits at least counters, notes, and spans.
    assert!(kinds.contains("count") && kinds.contains("note") && kinds.contains("span"));
}

#[test]
fn verdict_display_strings_are_stable() {
    // These strings are the crate's log/CLI surface; they predate the
    // structured SearchStats and must not drift.
    assert_eq!(Verdict::Complete.to_string(), "complete");

    let schema =
        Schema::from_relations(vec![RelationSchema::infinite("Supt", &["eid", "cid"])]).unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let mut delta = Database::empty(&schema);
    delta.insert(supt, Tuple::new([Value::str("e0"), Value::str("c2")]));
    let ce = CounterExample {
        delta,
        new_answer: Tuple::new([Value::str("c2")]),
    };
    assert_eq!(
        Verdict::Incomplete(ce).to_string(),
        "incomplete (adding 1 tuple(s) yields new answer (c2))"
    );

    assert_eq!(
        Verdict::unknown(SearchStats::new(
            BudgetLimit::MaxValuations,
            "valuation budget of 100000 exhausted",
        ))
        .to_string(),
        "unknown (valuation budget of 100000 exhausted)"
    );

    // End-to-end: the decider's own Unknown prints the legacy wording.
    let (setting, q, db) = master_bounded_instance();
    let budget = SearchBudget {
        max_valuations: 0,
        ..SearchBudget::default()
    };
    let v = rcdp(&setting, &q, &db, &budget).unwrap();
    assert_eq!(v.to_string(), "unknown (valuation budget of 0 exhausted)");
}

#[test]
fn budget_limit_names_are_stable() {
    // The machine-readable names feed telemetry notes and BENCH_TABLE*.json;
    // renaming one is a breaking change for downstream tooling.
    let all = [
        (BudgetLimit::MaxValuations, "max_valuations"),
        (BudgetLimit::MaxCandidates, "max_candidates"),
        (BudgetLimit::MaxDeltaTuples, "max_delta_tuples"),
        (BudgetLimit::MaxWitnessTuples, "max_witness_tuples"),
        (BudgetLimit::FreshValues, "fresh_values"),
        (BudgetLimit::PoolBound, "pool_bound"),
        (BudgetLimit::Unsupported, "unsupported"),
        (BudgetLimit::Deadline, "deadline"),
        (BudgetLimit::Cancelled, "cancelled"),
    ];
    for (limit, name) in all {
        assert_eq!(limit.name(), name);
        assert_eq!(limit.to_string(), name);
    }
}

#[test]
fn interrupt_events_round_trip_through_jsonl() {
    // A fault-injected deadline produces an `interrupt` event alongside the
    // normal stream, and the whole stream still parses line-by-line.
    use ric::{FaultPlan, Guard};
    let (setting, q, db) = master_bounded_instance();
    let budget = SearchBudget::default();
    let guard = Guard::new(&budget).with_fault_plan(FaultPlan::new().deadline_at_tick(0));
    let sink = JsonlSink::new(Vec::new());
    let v = ric::rcdp_guarded(&setting, &q, &db, &budget, &guard, Probe::attached(&sink)).unwrap();
    match &v {
        Verdict::Unknown { stats } => assert_eq!(stats.limit, BudgetLimit::Deadline),
        other => panic!("expected unknown, got {other:?}"),
    }
    let text = String::from_utf8(sink.into_inner()).unwrap();
    let mut saw_interrupt = false;
    for line in text.lines() {
        let doc = json::parse(line).expect("every line is a complete JSON document");
        let kind = doc
            .get("kind")
            .and_then(ric::telemetry::Json::as_str)
            .unwrap();
        assert!(
            ["count", "gauge", "span", "note", "interrupt"].contains(&kind),
            "kind: {kind}"
        );
        if kind == "interrupt" {
            saw_interrupt = true;
            assert_eq!(
                doc.get("reason").and_then(ric::telemetry::Json::as_str),
                Some("deadline")
            );
        }
    }
    assert!(saw_interrupt, "the interrupt event must reach the sink");
}

#[test]
fn interrupted_reports_serialize_the_interrupt_records() {
    use ric::{FaultPlan, Guard};
    let (setting, q, db) = master_bounded_instance();
    let budget = SearchBudget::default();
    let guard = Guard::new(&budget).with_fault_plan(FaultPlan::new().cancel_at_tick(0));
    let collector = Collector::new();
    let v = ric::rcdp_guarded(
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
            assert_eq!(stats.limit, BudgetLimit::Cancelled);
            assert_eq!(stats.detail, "cancelled after 0 valuation(s)");
        }
        other => panic!("expected unknown, got {other:?}"),
    }
    let report = collector.report();
    assert_eq!(report.interrupts.len(), 1);
    assert_eq!(report.interrupts[0].reason, "cancelled");
    // The JSON artifact includes the interrupts array.
    let doc = json::parse(&report.to_json().to_string()).unwrap();
    let interrupts = doc.get("interrupts").expect("interrupts key is present");
    assert_eq!(
        interrupts.as_arr().map(<[ric::telemetry::Json]>::len),
        Some(1)
    );
}

/// The planned engine's `plan.*` counters and `stats.rows.NN` statistics
/// gauges export through the [`Metrics`] registry, and merging the
/// two registries in either order produces byte-identical
/// Prometheus-text and JSON snapshots — the same bit-identical-merge
/// guarantee the counter layer pins.
#[test]
fn plan_counters_and_stats_gauges_export_through_metrics_snapshots() {
    use ric::Metrics;

    // A CQ-bodied constraint (a join), so the planned engine compiles plans;
    // pure-IND sets take the containment fast path and plan nothing.
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

    // Two registries, as two replicas of a service would keep them.
    let mut registries = Vec::new();
    for _ in 0..2 {
        let collector = Collector::new();
        let budget = SearchBudget::default().with_engine(Engine::planned(1));
        rcdp_probed(&setting, &q, &db, &budget, Probe::attached(&collector)).unwrap();
        let mut m = Metrics::new();
        m.absorb_report(&collector.report());
        assert!(
            m.counter("plan.compile") >= 1,
            "planned decisions export plan.compile"
        );
        registries.push(m);
    }

    let mut ab = registries[0].clone();
    ab.merge(&registries[1]);
    let mut ba = registries[1].clone();
    ba.merge(&registries[0]);
    assert_eq!(ab, ba, "metrics merge is order-independent");

    let prom = ab.to_prometheus();
    assert_eq!(prom, ba.to_prometheus(), "Prometheus snapshots byte-match");
    assert_eq!(
        ab.to_json().to_string(),
        ba.to_json().to_string(),
        "JSON snapshots byte-match"
    );

    // Both exporters carry the plan counters and the statistics gauges.
    assert!(prom.contains("ric_counter_total{name=\"plan.compile\"} 2"));
    assert!(prom.contains("ric_counter_total{name=\"plan.cost\"}"));
    // Two body relations with ids 0 and 1, one tuple each.
    assert!(prom.contains("ric_gauge{name=\"stats.rows.00\"} 1"));
    assert!(prom.contains("ric_gauge{name=\"stats.rows.01\"} 1"));
    let doc = json::parse(&ab.to_json().to_string()).unwrap();
    let counters = doc.get("counters").expect("counters key");
    assert_eq!(
        counters
            .get("plan.compile")
            .and_then(ric::telemetry::Json::as_int),
        Some(2)
    );
    let gauges = doc.get("gauges").expect("gauges key");
    assert_eq!(
        gauges
            .get("stats.rows.00")
            .and_then(ric::telemetry::Json::as_int),
        Some(1)
    );
}

/// The decision counters whose totals a merged report sums.
const RCDP_COUNTERS: [&str; 5] = [
    "rcdp.valuations",
    "rcdp.cc_checks",
    "cc.skipped_by_delta",
    "index.probe",
    "valuations.assignments",
];

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

/// Pins the `Report::merge` semantics the metrics exporter relies on,
/// exercised with real decision event streams: counters and spans *sum* (a
/// merged span column reads as total work time, not wall time), gauges keep
/// the *max*, notes append, and re-merging the same interrupt stream does not
/// duplicate it — only a genuinely distinct interrupt record appends.
#[test]
fn report_merge_semantics_are_pinned_on_real_decisions() {
    let (setting, q, db) = wide_complete_instance();
    let supt = setting.schema.rel_id("Supt").unwrap();
    let budget = SearchBudget::default().with_engine(Engine::planned(1));
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

    // Interrupt dedup: a cancelled decision records the interrupt; folding
    // the same report in again must not duplicate it, while a record
    // differing in any field must append.
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
}
