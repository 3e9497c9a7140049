//! Trace capture must be *verdict-neutral*, and every facade verdict must
//! carry a well-formed [`Explain`].
//!
//! Two contracts are pinned here:
//!
//! 1. **Neutrality** — attaching a [`TraceState`] to a probe changes what is
//!    *recorded* (span ids, open markers), never what is *decided*: verdicts,
//!    witnesses, counters, gauges, and notes are bit-identical with tracing
//!    on and off, under the planned and the naive engine. No emission is
//!    trace-gated.
//! 2. **Explain well-formedness** — every `try_rcdp_probed` /
//!    `try_rcqp_probed` verdict carries a span tree with exactly one root
//!    named `decision`, every span closed, an `outcome` matching the verdict,
//!    and — when the verdict is `Unknown` — the dead budget in `limit` plus
//!    an `explain.frontier` note describing what was left unexplored.

use ric::prelude::*;
use ric::{Event, SplitMix64};

/// `R(a, b)` / `S(a)` schema shared by the random instances.
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

fn cq_pool() -> Vec<Cq> {
    let s = schema();
    [
        "Q(X) :- R(X, Y).",
        "Q(X) :- R(X, Y), S(Y).",
        "Q(X, Y) :- R(X, Y), X != Y.",
        "Q(Y) :- R(X, Y), R(Y, X), S(X).",
    ]
    .iter()
    .map(|src| parse_cq(&s, src).unwrap())
    .collect()
}

/// Run one decision with and without a [`TraceState`] attached and require
/// bit-identical verdicts, counters, gauges, notes, and span families.
fn assert_trace_neutral(setting: &Setting, q: &Query, db: &Database, budget: &SearchBudget) {
    let plain_collector = Collector::new();
    let plain_verdict =
        rcdp_probed(setting, q, db, budget, Probe::attached(&plain_collector)).unwrap();
    let plain = plain_collector.report();

    let trace = TraceState::new();
    let traced_collector = Collector::new();
    let traced_verdict = rcdp_probed(
        setting,
        q,
        db,
        budget,
        Probe::attached(&traced_collector).with_trace(&trace),
    )
    .unwrap();
    let traced = traced_collector.report();

    assert_eq!(
        plain_verdict, traced_verdict,
        "tracing changed the verdict (engine {})",
        budget.engine
    );
    assert_eq!(
        plain.counters, traced.counters,
        "tracing changed a counter (engine {})",
        budget.engine
    );
    assert_eq!(
        plain.gauges, traced.gauges,
        "tracing changed a gauge (engine {})",
        budget.engine
    );
    assert_eq!(
        plain.notes, traced.notes,
        "tracing changed a note (engine {})",
        budget.engine
    );
    // Span durations are wall-clock; only the *family* of span names must
    // agree (ids and open markers are the trace's whole point).
    let names = |r: &Report| r.spans.keys().copied().collect::<Vec<_>>();
    assert_eq!(
        names(&plain),
        names(&traced),
        "tracing changed the span family (engine {})",
        budget.engine
    );
}

#[test]
fn tracing_is_verdict_neutral_sequential() {
    let mut rng = SplitMix64::seed_from_u64(0xBEEF);
    let budget = SearchBudget::default().with_engine(Engine::planned(1));
    let mut compared = 0usize;
    for _ in 0..25 {
        let setting = random_setting(&mut rng);
        let db = random_db(&mut rng, 5, 5, 3);
        if !setting.partially_closed(&db).unwrap() {
            continue;
        }
        for cq in cq_pool() {
            assert_trace_neutral(&setting, &cq.into(), &db, &budget);
            compared += 1;
        }
    }
    assert!(compared >= 20, "too few instances compared ({compared})");
}

#[test]
fn tracing_is_verdict_neutral_naive() {
    let mut rng = SplitMix64::seed_from_u64(0xFACE);
    let budget = SearchBudget::default().with_engine(Engine::Naive);
    let mut compared = 0usize;
    for _ in 0..16 {
        let setting = random_setting(&mut rng);
        let db = random_db(&mut rng, 5, 5, 3);
        if !setting.partially_closed(&db).unwrap() {
            continue;
        }
        for cq in cq_pool() {
            assert_trace_neutral(&setting, &cq.into(), &db, &budget);
            compared += 1;
        }
    }
    assert!(compared >= 12, "too few instances compared ({compared})");
}

// ── Explain well-formedness across the verdict variants ─────────────────

/// `Supt(eid, cid)` bounded by a `DCust` master of `master` customers, with
/// the database supporting the first `supported` of them.
fn supt_instance(master: usize, supported: usize) -> (Setting, Query, Database) {
    let schema =
        Schema::from_relations(vec![RelationSchema::infinite("Supt", &["eid", "cid"])]).unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let mschema =
        Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
    let dcust = mschema.rel_id("DCust").unwrap();
    let mut dm = Database::empty(&mschema);
    for c in 0..master {
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
    for c in 0..supported {
        db.insert(
            supt,
            Tuple::new([Value::str("e0"), Value::str(format!("c{c}"))]),
        );
    }
    (setting, q, db)
}

/// The structural contract every facade Explain satisfies.
fn assert_well_formed(explain: &ric::Explain, expected_outcome: &str) {
    explain
        .tree
        .require_decision()
        .expect("facade explain must satisfy the decision-trace contract");
    let root = explain.tree.roots()[0];
    assert_eq!(explain.tree.records()[root].name, "decision");
    assert_eq!(explain.outcome.as_deref(), Some(expected_outcome));
    // The JSON rendering must be machine-consumable with the same parser
    // the CLI uses.
    let text = explain.to_json().to_string();
    ric::telemetry::json::parse(&text).expect("explain.to_json must parse back");
}

#[test]
fn rcdp_explain_is_well_formed_for_every_verdict_variant() {
    // Complete: every master customer is already supported.
    let (setting, q, db) = supt_instance(6, 6);
    let d = try_rcdp_probed(
        &setting,
        &q,
        &db,
        &SearchBudget::default(),
        Probe::disabled(),
    )
    .unwrap();
    assert!(d.verdict.is_complete(), "planted complete: {}", d.verdict);
    assert_well_formed(&d.explain, "complete");

    // Incomplete: two master customers remain unsupported.
    let (setting, q, db) = supt_instance(6, 4);
    let d = try_rcdp_probed(
        &setting,
        &q,
        &db,
        &SearchBudget::default(),
        Probe::disabled(),
    )
    .unwrap();
    assert!(
        d.verdict.is_incomplete(),
        "planted incomplete: {}",
        d.verdict
    );
    assert_well_formed(&d.explain, "incomplete");
    assert!(
        d.explain.counters.contains_key("rcdp.valuations"),
        "the enumeration counters must ride the explain: {:?}",
        d.explain.counters
    );

    // Unknown: a one-valuation meter dies mid-search. The explain must name
    // the dead budget and narrate the remaining frontier.
    let (setting, q, db) = supt_instance(6, 4);
    let tight = SearchBudget {
        max_valuations: 1,
        ..SearchBudget::default()
    };
    let d = try_rcdp_probed(&setting, &q, &db, &tight, Probe::disabled()).unwrap();
    let Verdict::Unknown { stats } = &d.verdict else {
        panic!(
            "expected Unknown under a one-valuation meter, got {}",
            d.verdict
        );
    };
    assert_eq!(stats.limit, BudgetLimit::MaxValuations);
    assert_well_formed(&d.explain, "unknown");
    assert!(
        d.explain.limit.is_some(),
        "unknown verdicts must name the dead budget"
    );
    assert!(
        d.explain
            .notes
            .iter()
            .any(|(name, _)| name == "explain.frontier"),
        "unknown verdicts must narrate the unexplored frontier: {:?}",
        d.explain.notes
    );
}

#[test]
fn rcqp_explain_is_well_formed() {
    let (setting, q, _) = supt_instance(6, 4);
    let d = try_rcqp_probed(&setting, &q, &SearchBudget::default(), Probe::disabled()).unwrap();
    assert!(
        matches!(d.verdict, QueryVerdict::Nonempty { .. }),
        "a satisfiable setting must have a witness: {:?}",
        d.verdict
    );
    assert_well_formed(&d.explain, "nonempty");
}

#[test]
fn explain_carries_the_depth_profile_on_every_engine() {
    let (setting, q, db) = supt_instance(8, 6);
    for engine in [Engine::Naive, Engine::planned(1)] {
        let budget = SearchBudget::default().with_engine(engine);
        let d = try_rcdp_probed(&setting, &q, &db, &budget, Probe::disabled()).unwrap();
        assert_well_formed(
            &d.explain,
            if d.verdict.is_complete() {
                "complete"
            } else {
                "incomplete"
            },
        );
        // The per-depth profile summed from the chunk stats must be
        // visible in the explain's counters.
        assert!(
            d.explain
                .counters
                .keys()
                .any(|name| name.starts_with("depth.candidates.")),
            "{engine:?} explains must carry the depth profile: {:?}",
            d.explain.counters
        );
    }
}

/// A boolean query that already holds is complete for one reason only: its
/// headless disjunct is answered before any assignment. The search must
/// attribute that head prune exactly once on every engine, or the Explain
/// loses the reason for the verdict.
#[test]
fn headless_answered_disjunct_counts_one_head_prune_on_every_engine() {
    let (setting, _, db) = supt_instance(3, 2);
    let q: Query = parse_cq(&setting.schema, "Q() :- Supt(E, C).")
        .unwrap()
        .into();
    for engine in [Engine::Naive, Engine::planned(1)] {
        let budget = SearchBudget::default().with_engine(engine);
        let d = try_rcdp_probed(&setting, &q, &db, &budget, Probe::disabled()).unwrap();
        assert!(d.verdict.is_complete(), "{engine:?}: {}", d.verdict);
        assert_eq!(
            d.explain.counters.get("prune.head").copied(),
            Some(1),
            "{engine:?}: {:?}",
            d.explain.counters
        );
    }
}

/// When the caller attaches their own `TraceState` and sink, the same span
/// stream that builds the in-process `Explain` is teed out — and the caller
/// can rebuild the identical tree from it, which is exactly what the
/// `ric-trace` CLI does with a JSONL file.
#[test]
fn caller_sink_stream_rebuilds_the_explain_tree() {
    let (setting, q, db) = supt_instance(6, 4);
    let collector = Collector::new();
    let trace = TraceState::new();
    let d = try_rcdp_probed(
        &setting,
        &q,
        &db,
        &SearchBudget::default(),
        Probe::attached(&collector).with_trace(&trace),
    )
    .unwrap();
    let mut builder = ric::telemetry::TreeBuilder::new();
    for event in collector.events() {
        match event {
            Event::SpanOpen {
                name,
                id,
                parent,
                at_tick,
            } => builder.open(name, id, parent, at_tick).unwrap(),
            Event::Span {
                name,
                micros,
                id,
                ticks,
                ..
            } if id != 0 => builder.close(name, id, micros, ticks).unwrap(),
            _ => {}
        }
    }
    let rebuilt = builder.finish();
    rebuilt.require_decision().unwrap();
    assert_eq!(
        rebuilt.records(),
        d.explain.tree.records(),
        "the teed stream must rebuild the exact explain tree"
    );
}
