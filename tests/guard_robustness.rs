//! Degradation-path tests for the guard layer: deadlines, cooperative
//! cancellation, panic isolation at the facade, and deterministic fault
//! injection. Every test here is deterministic — faults fire at exact tick
//! counts (or a zero deadline that is already expired when the guard is
//! built), never on sleeps or timing races.

use std::time::Duration;

use ric::prelude::*;
use ric::FaultSink;

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

/// An IND-bounded RCQP instance that must *enumerate* to decide: the
/// blockedness check runs the guarded valuation meter over the active
/// domain, so deadline/cancel trips are actually observed (instances decided
/// by the static fast paths never poll the guard — that early answer is
/// sound and costs nothing, so it needs no interruption).
fn ind_rcqp_instance() -> (Setting, Query, SearchBudget) {
    let (setting, q, _db) = master_bounded_instance();
    (setting, q, SearchBudget::default())
}

/// An FP query (transitive closure), forcing the bounded semi-decision on
/// the undecidable cell.
fn fp_bounded_instance() -> (Setting, Query, Database) {
    let schema =
        Schema::from_relations(vec![RelationSchema::infinite("Manage", &["up", "down"])]).unwrap();
    let manage = schema.rel_id("Manage").unwrap();
    let setting = Setting::open_world(schema.clone());
    let mut db = Database::empty(&schema);
    for (a, b) in [("e2", "e1"), ("e1", "e0")] {
        db.insert(manage, Tuple::new([Value::str(a), Value::str(b)]));
    }
    let fp: Query = parse_program(
        &schema,
        "Above(X, Y) :- Manage(X, Y). Above(X, Y) :- Manage(X, Z), Above(Z, Y). \
         Boss(X) :- Above(X, Y), Y = 'e0'.",
        "Boss",
    )
    .unwrap()
    .into();
    (setting, fp, db)
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

#[test]
fn fault_deadline_degrades_the_exact_rcdp_decider() {
    let (setting, q, db) = master_bounded_instance();
    let budget = SearchBudget::default();
    let guard = Guard::new(&budget).with_fault_plan(FaultPlan::new().deadline_at_tick(0));
    let v = ric::complete::Request::new(&setting)
        .budget(&budget)
        .guard(&guard)
        .probe(Probe::disabled())
        .rcdp(&q, &db)
        .map(|o| o.verdict)
        .unwrap();
    match &v {
        Verdict::Unknown { stats } => {
            assert_eq!(stats.limit, BudgetLimit::Deadline);
            assert_eq!(stats.valuations, 0, "no work granted after the trip");
            assert_eq!(
                stats.detail,
                "wall-clock deadline expired after 0 valuation(s)"
            );
        }
        other => panic!("expected unknown, got {other:?}"),
    }
    assert_eq!(guard.tripped(), Some(Interrupt::Deadline));
}

#[test]
fn fault_deadline_degrades_the_rcqp_decider() {
    let (setting, q, budget) = ind_rcqp_instance();
    // Sanity: without the fault the instance is decided nonempty (the IND
    // bounds the head variable, so a witness database exists).
    assert!(rcqp(&setting, &q, &budget).unwrap().is_nonempty());
    let guard = Guard::new(&budget).with_fault_plan(FaultPlan::new().deadline_at_tick(0));
    let v = ric::complete::Request::new(&setting)
        .budget(&budget)
        .guard(&guard)
        .probe(Probe::disabled())
        .rcqp(&q)
        .map(|o| o.verdict)
        .unwrap();
    match &v {
        QueryVerdict::Unknown { stats } => {
            assert_eq!(stats.limit, BudgetLimit::Deadline);
            assert!(
                stats.detail.starts_with("wall-clock deadline expired"),
                "detail: {}",
                stats.detail
            );
        }
        other => panic!("expected unknown, got {other:?}"),
    }
}

#[test]
fn fault_deadline_degrades_the_bounded_semidecision() {
    // FP routes through the bounded extension search (the undecidable cell);
    // the same guard must stop it.
    let (setting, fp, db) = fp_bounded_instance();
    let budget = SearchBudget::default();
    let guard = Guard::new(&budget).with_fault_plan(FaultPlan::new().deadline_at_tick(0));
    let v = ric::complete::Request::new(&setting)
        .budget(&budget)
        .guard(&guard)
        .probe(Probe::disabled())
        .rcdp(&fp, &db)
        .map(|o| o.verdict)
        .unwrap();
    match &v {
        Verdict::Unknown { stats } => assert_eq!(stats.limit, BudgetLimit::Deadline),
        other => panic!("expected unknown, got {other:?}"),
    }
}

#[test]
fn fault_deadline_mid_search_reports_the_work_done_so_far() {
    let (setting, q, db) = master_bounded_instance();
    let budget = SearchBudget::default();
    // Let exactly two ticks through, then trip.
    let guard = Guard::new(&budget).with_fault_plan(FaultPlan::new().deadline_at_tick(2));
    let v = ric::complete::Request::new(&setting)
        .budget(&budget)
        .guard(&guard)
        .probe(Probe::disabled())
        .rcdp(&q, &db)
        .map(|o| o.verdict)
        .unwrap();
    match &v {
        Verdict::Unknown { stats } => {
            assert_eq!(stats.limit, BudgetLimit::Deadline);
            assert!(stats.valuations <= 2, "valuations: {}", stats.valuations);
        }
        // The counterexample surfaced before tick 3 — also sound.
        Verdict::Incomplete(_) => {}
        other => panic!("unexpected verdict {other:?}"),
    }
}

#[test]
fn real_zero_deadline_stops_before_any_work() {
    // `Duration::ZERO` is already expired when the guard is built, so this
    // exercises the real clock path deterministically (no sleeps).
    let (setting, q, db) = master_bounded_instance();
    let budget = SearchBudget::default().with_deadline(Duration::ZERO);
    let v = rcdp(&setting, &q, &db, &budget).unwrap();
    match &v {
        Verdict::Unknown { stats } => {
            assert_eq!(stats.limit, BudgetLimit::Deadline);
            assert_eq!(stats.valuations, 0);
        }
        other => panic!("expected unknown, got {other:?}"),
    }
    // The same budget stops RCQP too.
    let (setting, q, rcqp_budget) = ind_rcqp_instance();
    let budget = rcqp_budget.with_deadline(Duration::ZERO);
    match rcqp(&setting, &q, &budget).unwrap() {
        QueryVerdict::Unknown { stats } => assert_eq!(stats.limit, BudgetLimit::Deadline),
        other => panic!("expected unknown, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

#[test]
fn precancelled_token_degrades_to_unknown_with_no_work() {
    let (setting, q, db) = master_bounded_instance();
    let budget = SearchBudget::default();
    let token = CancelToken::new();
    token.cancel();
    let guard = Guard::new(&budget).with_cancel(token);
    let v = ric::complete::Request::new(&setting)
        .budget(&budget)
        .guard(&guard)
        .probe(Probe::disabled())
        .rcdp(&q, &db)
        .map(|o| o.verdict)
        .unwrap();
    match &v {
        Verdict::Unknown { stats } => {
            assert_eq!(stats.limit, BudgetLimit::Cancelled);
            assert_eq!(stats.valuations, 0);
            assert_eq!(stats.detail, "cancelled after 0 valuation(s)");
        }
        other => panic!("expected unknown, got {other:?}"),
    }
}

#[test]
fn cancellation_from_another_thread_is_observed() {
    // The token is the cross-thread handle: cancel it on a worker thread,
    // join (so the test stays deterministic), then run the decision.
    let (setting, q, db) = master_bounded_instance();
    let budget = SearchBudget::default();
    let token = CancelToken::new();
    let remote = token.clone();
    std::thread::spawn(move || remote.cancel()).join().unwrap();
    assert!(token.is_cancelled());
    let guard = Guard::new(&budget).with_cancel(token);
    let v = ric::complete::Request::new(&setting)
        .budget(&budget)
        .guard(&guard)
        .probe(Probe::disabled())
        .rcdp(&q, &db)
        .map(|o| o.verdict)
        .unwrap();
    match &v {
        Verdict::Unknown { stats } => assert_eq!(stats.limit, BudgetLimit::Cancelled),
        other => panic!("expected unknown, got {other:?}"),
    }
}

#[test]
fn fault_cancel_degrades_rcqp_and_the_bounded_search() {
    let (setting, q, budget) = ind_rcqp_instance();
    let guard = Guard::new(&budget).with_fault_plan(FaultPlan::new().cancel_at_tick(0));
    match ric::complete::Request::new(&setting)
        .budget(&budget)
        .guard(&guard)
        .probe(Probe::disabled())
        .rcqp(&q)
        .map(|o| o.verdict)
        .unwrap()
    {
        QueryVerdict::Unknown { stats } => assert_eq!(stats.limit, BudgetLimit::Cancelled),
        other => panic!("expected unknown, got {other:?}"),
    }

    let (setting, fp, db) = fp_bounded_instance();
    let budget = SearchBudget::default();
    let guard = Guard::new(&budget).with_fault_plan(FaultPlan::new().cancel_at_tick(0));
    match ric::complete::Request::new(&setting)
        .budget(&budget)
        .guard(&guard)
        .probe(Probe::disabled())
        .rcdp(&fp, &db)
        .map(|o| o.verdict)
        .unwrap()
    {
        Verdict::Unknown { stats } => assert_eq!(stats.limit, BudgetLimit::Cancelled),
        other => panic!("expected unknown, got {other:?}"),
    }
}

#[test]
fn a_tripped_guard_fails_fast_on_reuse() {
    // Trips are sticky: a second decision sharing the guard performs no work.
    let (setting, q, db) = master_bounded_instance();
    let budget = SearchBudget::default();
    let token = CancelToken::new();
    token.cancel();
    let guard = Guard::new(&budget).with_cancel(token);
    for _ in 0..2 {
        match ric::complete::Request::new(&setting)
            .budget(&budget)
            .guard(&guard)
            .probe(Probe::disabled())
            .rcdp(&q, &db)
            .map(|o| o.verdict)
            .unwrap()
        {
            Verdict::Unknown { stats } => {
                assert_eq!(stats.limit, BudgetLimit::Cancelled);
                assert_eq!(stats.valuations, 0);
            }
            other => panic!("expected unknown, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic meter exhaustion
// ---------------------------------------------------------------------------

#[test]
fn fault_exhausted_meter_reports_the_count_limit_not_an_interrupt() {
    let (setting, q, db) = master_bounded_instance();
    let budget = SearchBudget::default();
    let guard = Guard::new(&budget)
        .with_fault_plan(FaultPlan::new().exhaust_meter(MeterKind::Valuations, 0));
    let v = ric::complete::Request::new(&setting)
        .budget(&budget)
        .guard(&guard)
        .probe(Probe::disabled())
        .rcdp(&q, &db)
        .map(|o| o.verdict)
        .unwrap();
    match &v {
        Verdict::Unknown { stats } => {
            assert_eq!(stats.limit, BudgetLimit::MaxValuations);
            assert_eq!(stats.valuations, 0);
            // Same wording as a genuinely configured zero budget.
            assert_eq!(stats.detail, "valuation budget of 0 exhausted");
        }
        other => panic!("expected unknown, got {other:?}"),
    }
    assert_eq!(guard.tripped(), None, "exhaustion is not an interrupt");
}

#[test]
fn fault_exhausted_candidate_meter_stops_the_bounded_rcqp_search() {
    // The candidate meter drives the bounded semi-decision (FP query).
    let (setting, fp, _db) = fp_bounded_instance();
    let budget = SearchBudget {
        max_delta_tuples: 2,
        fresh_values: 1,
        ..SearchBudget::default()
    };
    let guard = Guard::new(&budget)
        .with_fault_plan(FaultPlan::new().exhaust_meter(MeterKind::Candidates, 0));
    match ric::complete::Request::new(&setting)
        .budget(&budget)
        .guard(&guard)
        .probe(Probe::disabled())
        .rcqp(&fp)
        .map(|o| o.verdict)
        .unwrap()
    {
        QueryVerdict::Unknown { stats } => {
            assert_eq!(stats.limit, BudgetLimit::MaxCandidates);
            assert_eq!(stats.candidates, 0);
        }
        other => panic!("expected unknown, got {other:?}"),
    }
    assert_eq!(guard.tripped(), None, "exhaustion is not an interrupt");
}

// ---------------------------------------------------------------------------
// Panic isolation at the facade
// ---------------------------------------------------------------------------

#[test]
fn try_rcdp_converts_an_injected_panic_into_a_typed_error() {
    let (setting, q, db) = master_bounded_instance();
    let budget = SearchBudget::default();
    // Wire the fault through the probe seam: the plan names the stage, the
    // FaultSink fires it when that telemetry event is emitted.
    let plan = FaultPlan::new().panic_at_stage("rcdp.enumerate");
    let sink = FaultSink::new(plan.panic_stage().unwrap(), None);
    let err = ric::Request::new(&setting)
        .budget(&budget)
        .probe(Probe::attached(&sink))
        .rcdp(&q, &db)
        .expect_err("the injected panic must surface as an error");
    match &err {
        DecisionError::Panic { message, notes } => {
            assert!(
                message.contains("fault injection"),
                "payload preserved: {message}"
            );
            // The internal collector records before the panicking sink, so
            // the decision path survives for post-mortems.
            assert!(
                notes.iter().any(|n| n == "rcdp.strategy: exact"),
                "notes: {notes:?}"
            );
        }
        other => panic!("expected a panic error, got {other:?}"),
    }
    assert_eq!(
        err.to_string(),
        "decision panicked: fault injection: stage rcdp.enumerate panicked"
    );
}

#[test]
fn try_rcqp_converts_an_injected_panic_into_a_typed_error() {
    let (setting, q, budget) = ind_rcqp_instance();
    let sink = FaultSink::new("rcqp.strategy", None);
    let err = ric::Request::new(&setting)
        .budget(&budget)
        .probe(Probe::attached(&sink))
        .rcqp(&q)
        .expect_err("the injected panic must surface as an error");
    match err {
        DecisionError::Panic { message, .. } => {
            assert!(message.contains("rcqp.strategy"), "message: {message}");
        }
        other => panic!("expected a panic error, got {other:?}"),
    }
}

#[test]
fn try_variants_agree_with_the_plain_deciders_on_normal_runs() {
    let (setting, q, db) = master_bounded_instance();
    let budget = SearchBudget::default();
    let plain = rcdp(&setting, &q, &db, &budget).unwrap();
    let guarded = ric::Request::new(&setting)
        .budget(&budget)
        .rcdp(&q, &db)
        .map(|d| d.verdict)
        .unwrap();
    assert_eq!(plain, guarded);

    let (setting, q, budget) = ind_rcqp_instance();
    let plain = rcqp(&setting, &q, &budget).unwrap();
    let guarded = ric::Request::new(&setting)
        .budget(&budget)
        .rcqp(&q)
        .map(|d| d.verdict)
        .unwrap();
    assert_eq!(plain, guarded);
}

#[test]
fn try_variants_pass_typed_decider_errors_through() {
    // A non-partially-closed input is an RcError, not a panic.
    let (setting, q, _db) = master_bounded_instance();
    let schema = setting.schema.clone();
    let supt = schema.rel_id("Supt").unwrap();
    let mut open = Database::empty(&schema);
    open.insert(supt, Tuple::new([Value::str("e9"), Value::str("c9")]));
    let err = ric::Request::new(&setting)
        .budget(&SearchBudget::default())
        .rcdp(&q, &open)
        .map(|d| d.verdict)
        .expect_err("c9 is outside the master list");
    match err {
        DecisionError::Rc(RcError::NotPartiallyClosed) => {}
        other => panic!("expected NotPartiallyClosed, got {other:?}"),
    }
}

#[test]
fn try_variants_still_tee_telemetry_to_the_caller_sink() {
    let (setting, q, db) = master_bounded_instance();
    let collector = Collector::new();
    let v = ric::Request::new(&setting)
        .budget(&SearchBudget::default())
        .probe(Probe::attached(&collector))
        .rcdp(&q, &db)
        .unwrap();
    assert!(v.verdict.is_incomplete());
    // The facade attaches a structured explanation built from its own trace.
    assert_eq!(v.explain.outcome.as_deref(), Some("incomplete"));
    assert_eq!(v.explain.tree.roots().len(), 1);
    assert_eq!(v.explain.tree.records()[0].name, "decision");
    let report = collector.report();
    assert_eq!(report.notes("rcdp.strategy"), vec!["exact".to_string()]);
    assert!(report.counter("rcdp.valuations") >= 1);
}

// ---------------------------------------------------------------------------
// Interrupt telemetry
// ---------------------------------------------------------------------------

#[test]
fn interrupts_are_recorded_with_site_and_tick() {
    let (setting, q, db) = master_bounded_instance();
    let budget = SearchBudget::default();
    let guard = Guard::new(&budget).with_fault_plan(FaultPlan::new().deadline_at_tick(0));
    let collector = Collector::new();
    ric::complete::Request::new(&setting)
        .budget(&budget)
        .guard(&guard)
        .probe(Probe::attached(&collector))
        .rcdp(&q, &db)
        .map(|o| o.verdict)
        .unwrap();
    let report = collector.report();
    assert_eq!(report.interrupts.len(), 1);
    assert_eq!(report.interrupts[0].name, "rcdp.interrupt");
    assert_eq!(report.interrupts[0].reason, "deadline");
    assert_eq!(report.interrupts[0].at_tick, guard.ticks());
    assert_eq!(report.notes("rcdp.limit"), vec!["deadline".to_string()]);
}

// ---------------------------------------------------------------------------
// Sink flushing on the panic path
// ---------------------------------------------------------------------------

#[test]
fn buffered_sinks_are_flushed_on_the_facade_panic_path() {
    use std::io;
    use std::sync::{Arc, Mutex};

    /// A writer into a shared buffer, so the test can observe what the
    /// facade actually pushed through the `BufWriter` before unwinding.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl io::Write for SharedBuf {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    let (setting, q, db) = master_bounded_instance();
    let buf = Arc::new(Mutex::new(Vec::new()));
    let jsonl = ric::JsonlSink::new(SharedBuf(Arc::clone(&buf)));
    // The caller's sink chain: a buffered JSONL sink behind the panicking
    // stage. Events recorded before the trigger sit in the BufWriter; only
    // the facade's exit-path flush can get them out.
    let fault = FaultSink::new("rcdp.enumerate", Some(&jsonl));
    let err = ric::Request::new(&setting)
        .budget(&SearchBudget::default())
        .probe(Probe::attached(&fault))
        .rcdp(&q, &db)
        .expect_err("the injected panic must surface as an error");
    assert!(matches!(err, DecisionError::Panic { .. }));

    // `jsonl` is still alive, so its BufWriter has not been dropped: every
    // byte in the shared buffer got there via the facade's flush.
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    assert!(
        text.lines().count() >= 1,
        "pre-panic telemetry must be flushed through the buffered sink"
    );
    for line in text.lines() {
        let doc = ric::telemetry::json::parse(line)
            .unwrap_or_else(|e| panic!("unparseable flushed line {line:?}: {e:?}"));
        assert!(doc.get("kind").is_some(), "not an event line: {line}");
    }
}
