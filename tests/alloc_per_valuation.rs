//! Exact RCDP allocates nothing per valuation, and RCQP's E2 search nothing
//! per candidate or E2 check.
//!
//! The exact search binds dense ids, writes each candidate's atoms into one
//! reused arena, and checks it against id tables built once per decision, so
//! a decision's allocations are a per-decision constant: they do not grow
//! with the number of valuations it walks. This suite decides two instances
//! over the same database whose valuation counts differ by more than 10×
//! (two versus three tableau variables) and requires their allocation
//! counts to differ by at most a small fixed margin — once for a
//! projection-only constraint set (the `IndOnly` check) and once for a join
//! denial (the planned delta check, which runs compiled plans and probes).
//!
//! The E2 search case decides two `Empty` RCQP instances on one setting and
//! fresh pool whose searches differ at least 4× in candidates and E2
//! checks: the search checks every candidate and every E2 valuation as one
//! id row set against a reused overlay, so only its setup — which grows
//! with the pool, not with the search — may allocate more.
//!
//! Allocations are counted per thread by a counting global allocator, so
//! the harness's other test threads cannot inflate a figure. Run it with
//! `--release`, as CI does: the counts do not depend on the profile, the
//! wall time does.

use ric::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the thread-local counter
// is a const-initialized `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How many more allocations the larger decision may make: its tableau,
/// plans, and catalog are a little larger, but it walks no more chunks.
const MARGIN: u64 = 16;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// `R(a, b, c)` and `S(a)`, with `S` holding 20 values.
fn schema_and_db() -> (Schema, Database) {
    let s = Schema::from_relations(vec![
        RelationSchema::infinite("R", &["a", "b", "c"]),
        RelationSchema::infinite("S", &["a"]),
    ])
    .unwrap();
    let srel = s.rel_id("S").unwrap();
    let mut db = Database::empty(&s);
    for i in 0..10 {
        db.insert(srel, Tuple::new([Value::int(i)]));
        db.insert(srel, Tuple::new([Value::str(format!("s{i}"))]));
    }
    (s, db)
}

/// Decide `q` under the planned engine: the verdict, the valuations walked,
/// and the allocations made by the undisturbed (unprobed) decision.
fn decide(setting: &Setting, q: &Query, db: &Database) -> (Verdict, u64, u64) {
    let budget = SearchBudget::default().with_engine(Engine::Planned);
    let collector = Collector::new();
    ric::complete::Request::new(setting)
        .budget(&budget)
        .probe(Probe::attached(&collector))
        .rcdp(q, db)
        .unwrap();
    let valuations = collector.report().counter("rcdp.valuations");
    let before = allocs();
    let verdict = rcdp(setting, q, db, &budget).unwrap();
    (verdict, valuations, allocs() - before)
}

/// Both queries are complete — no `R` tuple can ever be added — so each
/// decision walks its whole valuation space: about `n²` valuations for two
/// variables and `n³` for three, every one rejected at its last variable.
fn assert_flat(setting: &Setting, db: &Database) {
    let s = &setting.schema;
    let two: Query = parse_cq(s, "Q(X) :- R(X, Y, 1), S(X).").unwrap().into();
    let three: Query = parse_cq(s, "Q(X) :- R(X, Y, Z), S(X).").unwrap().into();
    // Warm up lazily initialized process state (the string pool, thread
    // locals) so neither measured decision pays for it.
    decide(setting, &three, db);
    let (v2, n2, a2) = decide(setting, &two, db);
    let (v3, n3, a3) = decide(setting, &three, db);
    assert_eq!(v2, Verdict::Complete);
    assert_eq!(v3, Verdict::Complete);
    assert!(
        n3 >= 10 * n2,
        "valuation counts must differ at least 10x: {n2} vs {n3}"
    );
    assert!(
        a3 <= a2 + MARGIN,
        "allocations grew with valuations: {a2} allocations for {n2} valuations, \
         {a3} for {n3}"
    );
}

#[test]
fn ind_only_check_allocates_per_decision_not_per_valuation() {
    let (s, db) = schema_and_db();
    let m = Schema::from_relations(vec![RelationSchema::infinite("M", &["a"])]).unwrap();
    let mrel = m.rel_id("M").unwrap();
    // `π_a(R) ⊆ M` with `M` empty: no `R` tuple is ever admissible.
    let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Proj(Projection::new(s.rel_id("R").unwrap(), vec![0])),
        mrel,
        vec![0],
    )]);
    let setting = Setting::new(s, m.clone(), Database::empty(&m), v);
    assert_flat(&setting, &db);
}

#[test]
fn delta_check_allocates_per_decision_not_per_valuation() {
    let (s, db) = schema_and_db();
    // A join denial: no `R` tuple may meet an `S` tuple on its first column.
    let v = ConstraintSet::new(vec![ContainmentConstraint::into_empty(CcBody::Cq(
        parse_cq(&s, "Q(X, Y, Z) :- R(X, Y, Z), S(X).").unwrap(),
    ))]);
    let setting = Setting::new(s, Schema::new(), Database::with_relations(0), v);
    assert_flat(&setting, &db);
}

/// How many more allocations the larger E2 search may make. Its pool is
/// built from half as many instantiations again (a value more per column),
/// each a tuple and a bound set; that setup is all it may add. One
/// allocation per E2 check would add over 500 here, one per candidate over
/// 5000.
const E2_MARGIN: u64 = 256;

/// `Work(emp, task)` under the FD `emp → task`, and `Cert[lvl] ⊆ Lvl` with
/// the single level 0.
fn work_setting() -> Setting {
    let s = Schema::from_relations(vec![
        RelationSchema::infinite("Work", &["emp", "task"]),
        RelationSchema::infinite("Cert", &["emp", "lvl"]),
    ])
    .unwrap();
    let work = s.rel_id("Work").unwrap();
    let cert = s.rel_id("Cert").unwrap();
    let m = Schema::from_relations(vec![RelationSchema::infinite("Lvl", &["lvl"])]).unwrap();
    let lvl = m.rel_id("Lvl").unwrap();
    let mut dm = Database::empty(&m);
    dm.insert(lvl, Tuple::new([Value::int(0)]));
    let mut ccs = ric::constraints::compile::fd_to_ccs(&Fd::new(work, vec![0], vec![1]), &s);
    ccs.push(ContainmentConstraint::into_master(
        CcBody::Proj(Projection::new(cert, vec![1])),
        lvl,
        vec![0],
    ));
    Setting::new(s, m, dm, ConstraintSet::new(ccs))
}

/// Decide RCQP for `q` under the planned engine with three fresh values:
/// the verdict, `rcqp.candidates`, `rcqp.e2_checks`, and the allocations
/// made by the undisturbed (unprobed) decision.
fn decide_rcqp(setting: &Setting, q: &Query) -> (QueryVerdict, u64, u64, u64) {
    let budget = SearchBudget {
        fresh_values: 3,
        ..SearchBudget::default()
    }
    .with_engine(Engine::Planned);
    let collector = Collector::new();
    ric::complete::Request::new(setting)
        .budget(&budget)
        .probe(Probe::attached(&collector))
        .rcqp(q)
        .unwrap();
    let report = collector.report();
    let before = allocs();
    let verdict = rcqp(setting, q, &budget).unwrap();
    (
        verdict,
        report.counter("rcqp.candidates"),
        report.counter("rcqp.e2_checks"),
        allocs() - before,
    )
}

#[test]
fn e2_search_allocates_per_decision_not_per_candidate() {
    let setting = work_setting();
    let s = &setting.schema;
    // No head is bounded, so both searches run to exhaustion. The constant
    // 5 adds a value to every column of the pool.
    let small: Query = parse_cq(s, "Q(E) :- Cert(E, L).").unwrap().into();
    let large: Query = parse_cq(s, "Q(E) :- Cert(E, L), E != 5.").unwrap().into();
    decide_rcqp(&setting, &large);
    let (vs, cs, es, a_small) = decide_rcqp(&setting, &small);
    let (vl, cl, el, a_large) = decide_rcqp(&setting, &large);
    assert_eq!(vs, QueryVerdict::Empty);
    assert_eq!(vl, QueryVerdict::Empty);
    assert!(
        cl >= 4 * cs && el >= 4 * es,
        "searches must differ at least 4x: {cs} candidates and {es} E2 checks vs {cl} and {el}"
    );
    assert!(
        a_large <= a_small + E2_MARGIN,
        "allocations grew with the search: {a_small} allocations for {cs} candidates and \
         {es} E2 checks, {a_large} for {cl} and {el}"
    );
}
