//! Unit behavior of the [`Monitor`]: verdict transitions, skip/fast-path
//! counters, memoization, plan staleness, escalation, and telemetry.
//!
//! The shared fixture is the smallest setting with a non-trivial verdict:
//! `R(a, b)` constrained by `Q(B) :- R(A, B) ⊆ M` against master `M(b) =
//! {1, 2}`, query `Q(B) :- R(A, B)`. The database is complete exactly when
//! its `R` projection on `b` already covers `{1, 2}` — every admissible
//! extension keeps `b ∈ {1, 2}` — and incomplete otherwise, with an
//! unconstrained spare relation `S(a)` for footprint-skip checks.

use ric_complete::{Engine, SearchBudget, Verdict};
use ric_constraints::{CcBody, ConstraintSet, ContainmentConstraint};
use ric_data::{Database, RelId, RelationSchema, Schema, Tuple, Value};
use ric_monitor::{Monitor, MonitorError, Op, SettingId, Status, Txn};
use ric_query::parse_cq;
use ric_telemetry::{Collector, Event, Probe};

fn schema() -> Schema {
    Schema::from_relations(vec![
        RelationSchema::infinite("R", &["a", "b"]),
        RelationSchema::infinite("S", &["a"]),
    ])
    .unwrap()
}

fn master_schema() -> Schema {
    Schema::from_relations(vec![RelationSchema::infinite("M", &["b"])]).unwrap()
}

fn r() -> RelId {
    schema().rel_id("R").unwrap()
}

fn s_rel() -> RelId {
    schema().rel_id("S").unwrap()
}

fn m() -> RelId {
    master_schema().rel_id("M").unwrap()
}

fn t(vs: &[i64]) -> Tuple {
    Tuple::new(vs.iter().map(|&v| Value::int(v)))
}

fn dm() -> Database {
    let mut dm = Database::empty(&master_schema());
    dm.insert(m(), t(&[1]));
    dm.insert(m(), t(&[2]));
    dm
}

fn constraints() -> ConstraintSet {
    // CQ body (not a bare projection) so the set is not IND-only and the
    // incremental delta checker actually compiles.
    let body = parse_cq(&schema(), "Q(B) :- R(A, B).").unwrap();
    ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Cq(body),
        m(),
        vec![0],
    )])
}

fn query() -> ric_complete::Query {
    ric_complete::Query::Cq(parse_cq(&schema(), "Q(B) :- R(A, B).").unwrap())
}

fn monitor(budget: SearchBudget) -> (Monitor, SettingId) {
    let mut mon = Monitor::new(schema(), master_schema(), dm(), budget).unwrap();
    let id = mon.register("crm", constraints(), query()).unwrap();
    (mon, id)
}

#[test]
fn empty_database_is_incomplete_and_covering_load_completes_it() {
    let (mut mon, id) = monitor(SearchBudget::default());
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Incomplete);
    let changes = mon
        .apply(&Txn::new([
            Op::insert(r(), t(&[10, 1])),
            Op::insert(r(), t(&[20, 2])),
        ]))
        .unwrap();
    assert_eq!(changes.len(), 1);
    assert_eq!(changes[0].from, Status::Incomplete);
    assert_eq!(changes[0].to, Status::Complete);
    assert_eq!(changes[0].txn_seq, 1);
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Complete);
}

#[test]
fn constraint_violation_flips_to_npc_and_repair_restores_via_memo() {
    let (mut mon, id) = monitor(SearchBudget::default());
    mon.apply(&Txn::new([
        Op::insert(r(), t(&[10, 1])),
        Op::insert(r(), t(&[20, 2])),
    ]))
    .unwrap();
    let digest_complete = mon.state_digest();
    let redecides = mon.counters().redecide;

    // b = 5 escapes the master data: (D, D_m) ⊭ V.
    let changes = mon
        .apply(&Txn::new([Op::insert(r(), t(&[30, 5]))]))
        .unwrap();
    assert_eq!(changes[0].to, Status::NotPartiallyClosed);
    assert_eq!(
        mon.verdict(id).unwrap().status(),
        Status::NotPartiallyClosed
    );

    // Repairing restores the exact prior state; the verdict comes from the
    // fingerprint memo, not a re-decision.
    let changes = mon
        .apply(&Txn::new([Op::delete(r(), t(&[30, 5]))]))
        .unwrap();
    assert_eq!(changes[0].to, Status::Complete);
    assert_eq!(mon.state_digest(), digest_complete);
    assert!(mon.counters().memo_hit >= 1);
    assert_eq!(mon.counters().redecide, redecides);
}

#[test]
fn disjoint_and_net_empty_txns_skip_in_constant_time() {
    let (mut mon, id) = monitor(SearchBudget::default());
    let before = mon.verdict(id).unwrap().clone();

    // S is outside the setting's footprint entirely.
    let changes = mon
        .apply(&Txn::new([Op::insert(s_rel(), t(&[7]))]))
        .unwrap();
    assert!(changes.is_empty());
    assert_eq!(mon.counters().skip, 1);

    // Insert-then-delete of the same tuple nets to nothing, even on R.
    let tup = t(&[10, 1]);
    let changes = mon
        .apply(&Txn::new([
            Op::insert(r(), tup.clone()),
            Op::delete(r(), tup),
        ]))
        .unwrap();
    assert!(changes.is_empty());
    assert_eq!(mon.counters().skip, 2);
    assert_eq!(mon.verdict(id).unwrap(), &before);
    assert_eq!(mon.txn_seq(), 2);
}

#[test]
fn txn_and_exact_inverse_restore_the_state_digest() {
    let (mut mon, _) = monitor(SearchBudget::default());
    mon.apply(&Txn::new([Op::insert(r(), t(&[10, 1]))]))
        .unwrap();
    let digest = mon.state_digest();
    let txn = Txn::new([
        Op::insert(r(), t(&[20, 2])),
        Op::delete(r(), t(&[10, 1])),
        Op::master_insert(m(), t(&[3])),
    ]);
    mon.apply(&txn).unwrap();
    assert_ne!(mon.state_digest(), digest);
    mon.apply(&txn.inverse()).unwrap();
    assert_eq!(mon.state_digest(), digest);
}

#[test]
fn complete_survives_insert_only_txns_without_redeciding() {
    let (mut mon, id) = monitor(SearchBudget::default());
    mon.apply(&Txn::new([
        Op::insert(r(), t(&[10, 1])),
        Op::insert(r(), t(&[20, 2])),
    ]))
    .unwrap();
    let redecides = mon.counters().redecide;
    let changes = mon
        .apply(&Txn::new([
            Op::insert(r(), t(&[30, 1])),
            Op::insert(r(), t(&[40, 2])),
        ]))
        .unwrap();
    assert!(changes.is_empty());
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Complete);
    assert_eq!(mon.counters().fast_complete, 1);
    assert!(mon.counters().cc_delta >= 1, "pc checked incrementally");
    assert_eq!(mon.counters().redecide, redecides, "no search ran");
}

#[test]
fn cached_counterexample_is_recertified_before_any_search() {
    let (mut mon, id) = monitor(SearchBudget::default());
    mon.apply(&Txn::new([Op::insert(r(), t(&[10, 1]))]))
        .unwrap();
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Incomplete);
    let redecides = mon.counters().redecide;
    let hits = mon.counters().recert_hit;
    let misses = mon.counters().recert_miss;

    // Still missing b = 2, and the current counterexample must add a b = 2
    // tuple (b = 1 is already answered), so it still certifies.
    let changes = mon
        .apply(&Txn::new([Op::insert(r(), t(&[20, 1]))]))
        .unwrap();
    assert!(changes.is_empty());
    assert_eq!(mon.counters().recert_hit, hits + 1);
    assert_eq!(mon.counters().redecide, redecides);

    // Covering b = 2 invalidates it: re-certify fails, one decision runs.
    let changes = mon
        .apply(&Txn::new([Op::insert(r(), t(&[30, 2]))]))
        .unwrap();
    assert_eq!(changes[0].from, Status::Incomplete);
    assert_eq!(changes[0].to, Status::Complete);
    assert_eq!(mon.counters().recert_miss, misses + 1);
    assert_eq!(mon.counters().redecide, redecides + 1);
}

#[test]
fn master_changes_reprepare_and_redecide() {
    let (mut mon, id) = monitor(SearchBudget::default());
    mon.apply(&Txn::new([
        Op::insert(r(), t(&[10, 1])),
        Op::insert(r(), t(&[20, 2])),
    ]))
    .unwrap();
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Complete);

    // Growing the master data re-opens the frontier: b = 3 is now an
    // admissible extension the database does not cover.
    let changes = mon
        .apply(&Txn::new([Op::master_insert(m(), t(&[3]))]))
        .unwrap();
    assert_eq!(changes[0].from, Status::Complete);
    assert_eq!(changes[0].to, Status::Incomplete);
    assert_eq!(mon.counters().reprepare, 1);

    // And shrinking it back restores completeness.
    let changes = mon
        .apply(&Txn::new([Op::master_delete(m(), t(&[3]))]))
        .unwrap();
    assert_eq!(changes[0].to, Status::Complete);
    assert_eq!(mon.counters().reprepare, 2);
}

#[test]
fn starved_budget_reports_unknown_and_escalate_resolves_it() {
    let budget = SearchBudget {
        max_valuations: 1,
        max_candidates: 1,
        ..SearchBudget::default()
    };
    let (mut mon, id) = monitor(budget);
    mon.apply(&Txn::new([Op::insert(r(), t(&[10, 1]))]))
        .unwrap();
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Unknown);

    let change = mon.escalate(id, &SearchBudget::default()).unwrap();
    let change = change.expect("escalation decides the starved setting");
    assert_eq!(change.from, Status::Unknown);
    assert_eq!(change.to, Status::Incomplete);
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Incomplete);
    match mon.verdict(id).unwrap().verdict() {
        Some(Verdict::Incomplete(_)) => {}
        other => panic!("expected a counterexample, got {other:?}"),
    }
}

#[test]
fn escalate_resumes_the_frontier_of_a_starved_registration() {
    let budget = SearchBudget {
        max_valuations: 1,
        max_candidates: 1,
        ..SearchBudget::default()
    };
    let (mut mon, id) = monitor(budget);
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Unknown);

    // The registration's starved decision left a frontier on this very
    // database, so escalation continues it instead of restarting.
    let change = mon.escalate(id, &SearchBudget::default()).unwrap();
    assert_eq!(mon.counters().frontier_resume, 1);
    let change = change.expect("escalation decides the starved setting");
    assert_eq!(change.to, Status::Incomplete);
    match mon.verdict(id).unwrap().verdict() {
        Some(Verdict::Incomplete(_)) => {}
        other => panic!("expected a counterexample, got {other:?}"),
    }
}

#[test]
fn escalate_on_npc_setting_is_a_no_op() {
    let (mut mon, id) = monitor(SearchBudget::default());
    mon.apply(&Txn::new([Op::insert(r(), t(&[30, 5]))]))
        .unwrap();
    assert_eq!(
        mon.verdict(id).unwrap().status(),
        Status::NotPartiallyClosed
    );
    assert!(mon
        .escalate(id, &SearchBudget::exhaustive())
        .unwrap()
        .is_none());
}

#[test]
fn planned_engine_detects_cardinality_drift_then_replans() {
    let budget = SearchBudget {
        engine: Engine::Planned,
        ..SearchBudget::default()
    };
    let (mut mon, id) = monitor(budget);

    // Bulk load ≥2× past the empty-database row counts the plans were
    // costed on, ending Complete: the decision runs on the drifted plan
    // (degrade) and flags the setting for a replan.
    mon.apply(&Txn::new([
        Op::insert(r(), t(&[10, 1])),
        Op::insert(r(), t(&[20, 2])),
        Op::insert(r(), t(&[30, 1])),
        Op::insert(r(), t(&[40, 2])),
    ]))
    .unwrap();
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Complete);
    assert_eq!(mon.counters().plan_stale, 1);
    assert_eq!(mon.counters().replan, 0);

    // The next decision (a delete breaks the insert-only fast path, at a
    // fresh fingerprint so the memo cannot answer) replans first — and the
    // refreshed plan returns the same verdict.
    let changes = mon
        .apply(&Txn::new([Op::delete(r(), t(&[30, 1]))]))
        .unwrap();
    assert!(changes.is_empty());
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Complete);
    assert_eq!(mon.counters().replan, 1);
}

#[test]
fn invalid_ops_reject_the_whole_txn() {
    let (mut mon, id) = monitor(SearchBudget::default());
    mon.apply(&Txn::new([
        Op::insert(r(), t(&[10, 1])),
        Op::insert(r(), t(&[20, 2])),
    ]))
    .unwrap();
    let before = mon.state_digest();

    // Second op has the wrong arity: nothing applies, not even the first.
    let err = mon.apply(&Txn::new([
        Op::insert(r(), t(&[50, 1])),
        Op::insert(r(), t(&[9])),
    ]));
    assert!(matches!(err, Err(MonitorError::Data(_))), "{err:?}");
    assert_eq!(mon.state_digest(), before);
    assert_eq!(mon.txn_seq(), 1, "rejected txns take no sequence number");
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Complete);

    let err = mon.verdict(SettingId(99));
    assert!(matches!(err, Err(MonitorError::UnknownSetting(_))));
}

#[test]
fn verdict_changes_and_counters_reach_the_probe() {
    let collector = Collector::new();
    let (mut mon, _) = monitor(SearchBudget::default());
    mon.apply_probed(
        &Txn::new([Op::insert(r(), t(&[10, 1])), Op::insert(r(), t(&[20, 2]))]),
        Probe::attached(&collector),
    )
    .unwrap();
    mon.apply_probed(
        &Txn::new([Op::insert(s_rel(), t(&[7]))]),
        Probe::attached(&collector),
    )
    .unwrap();
    let events = collector.events();
    assert!(events.iter().any(
        |e| matches!(e, Event::Note { name, detail } if *name == "monitor.verdict_change"
            && detail.contains("incomplete -> complete"))
    ));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::Count { name, .. } if *name == "monitor.skip")));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::Gauge { name, value } if *name == "monitor.settings.complete" && *value == 1)));
}

#[test]
fn multiple_settings_invalidate_independently() {
    let mut mon = Monitor::new(schema(), master_schema(), dm(), SearchBudget::default()).unwrap();
    let crm = mon.register("crm", constraints(), query()).unwrap();
    // Second setting watches S only: no constraints beyond an empty set
    // would leave it open-world (always incomplete); constrain S ⊆ M too.
    let s_body = parse_cq(&schema(), "Q(A) :- S(A).").unwrap();
    let s_v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Cq(s_body),
        m(),
        vec![0],
    )]);
    let s_q = ric_complete::Query::Cq(parse_cq(&schema(), "Q(A) :- S(A).").unwrap());
    let watch_s = mon.register("watch-s", s_v, s_q).unwrap();

    // A txn on R touches only the first setting; the second skips.
    mon.apply(&Txn::new([
        Op::insert(r(), t(&[10, 1])),
        Op::insert(r(), t(&[20, 2])),
    ]))
    .unwrap();
    assert_eq!(mon.verdict(crm).unwrap().status(), Status::Complete);
    assert_eq!(mon.verdict(watch_s).unwrap().status(), Status::Incomplete);
    assert_eq!(mon.counters().skip, 1);

    // And vice versa.
    mon.apply(&Txn::new([
        Op::insert(s_rel(), t(&[1])),
        Op::insert(s_rel(), t(&[2])),
    ]))
    .unwrap();
    assert_eq!(mon.verdict(crm).unwrap().status(), Status::Complete);
    assert_eq!(mon.verdict(watch_s).unwrap().status(), Status::Complete);
    assert_eq!(mon.counters().skip, 2);
    assert_eq!(
        mon.verdicts()
            .iter()
            .map(|(_, v)| v.status())
            .collect::<Vec<_>>(),
        vec![Status::Complete, Status::Complete]
    );
}
