//! Adversarial tests for the monitor's shortcut rungs: the exact one-step
//! undo, Complete anchors, and counterexample recertification.
//!
//! Each case drives a [`Monitor`] into the state a shortcut could get wrong
//! and compares its verdict with a from-scratch [`Request`] decision on the
//! same `(D, D_m)`:
//!
//! * a cached counterexample that a transaction-inserted tuple invalidates,
//!   on an IND setting (the tuple already yields the answer) and on an FD
//!   setting (`D ∪ Δ` now violates the FD), under both engines;
//! * an anchor tuple deleted and re-inserted, with and without a master-data
//!   change in between, and anchor-cap eviction;
//! * an FO query and an FO constraint body, which must take the fallback;
//! * an insert set that collides under an earlier XOR-of-FNV memo key,
//!   built by Gaussian elimination over GF(2)⁶⁴, after which the monitor
//!   must re-decide rather than replay;
//! * the undo rung: a return to an older state, an inverse of only the `D`
//!   side of a mixed transaction, a master-data inverse, a deadline-cut
//!   post-state, and an escalation between a transaction and its inverse.
//!
//! Two further contracts ride along: the recert and anchor rungs allocate
//! the same on a database 4× larger (their cost follows `|Δ|`, not `|D|`),
//! and a stream that takes every rung is identical with probe capture on
//! and off. Allocations are counted per thread by a counting global
//! allocator, as in `alloc_per_valuation.rs`.

use ric::complete::rcdp::certify_counterexample;
use ric::prelude::*;
use ric::query::{Atom, FoExpr, FoQuery};
use ric::{RcError, SplitMix64};
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

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// `Supt(eid, dept, cid)` under an IND into the master customers,
/// `Emp(eid, dept, cid)` under the FD `eid → dept, cid`, and `Note(eid)`,
/// which no setting reads.
fn schema() -> Schema {
    Schema::from_relations(vec![
        RelationSchema::infinite("Supt", &["eid", "dept", "cid"]),
        RelationSchema::infinite("Emp", &["eid", "dept", "cid"]),
        RelationSchema::infinite("Note", &["eid"]),
    ])
    .unwrap()
}

fn master_schema() -> Schema {
    Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap()
}

fn supt() -> RelId {
    schema().rel_id("Supt").unwrap()
}

fn emp() -> RelId {
    schema().rel_id("Emp").unwrap()
}

fn note() -> RelId {
    schema().rel_id("Note").unwrap()
}

fn dcust() -> RelId {
    master_schema().rel_id("DCust").unwrap()
}

fn row(e: &str, d: &str, c: &str) -> Tuple {
    Tuple::new([Value::str(e), Value::str(d), Value::str(c)])
}

fn cust(c: &str) -> Tuple {
    Tuple::new([Value::str(c)])
}

/// Master customers `c1`, `c2`.
fn dm() -> Database {
    let mut dm = Database::empty(&master_schema());
    dm.insert(dcust(), cust("c1"));
    dm.insert(dcust(), cust("c2"));
    dm
}

/// `Supt[cid] ⊆ DCust[cid]`: an IND set.
fn ind_set() -> ConstraintSet {
    ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Proj(Projection::new(supt(), vec![2])),
        dcust(),
        vec![0],
    )])
}

/// `Emp: eid → dept, cid`, compiled to CQ denials.
fn fd_set() -> ConstraintSet {
    let fd = Fd::new(emp(), vec![0], vec![1, 2]);
    ConstraintSet::new(ric::constraints::compile::fd_to_ccs(&fd, &schema()))
}

/// The customers employee `e0` supports, in relation `rel`.
fn e0_query(rel: &str) -> Query {
    parse_cq(&schema(), &format!("Q(C) :- {rel}('e0', D, C)."))
        .unwrap()
        .into()
}

fn budget(engine: Engine) -> SearchBudget {
    SearchBudget::default().with_engine(engine)
}

fn monitor(engine: Engine) -> Monitor {
    Monitor::new(schema(), master_schema(), dm(), budget(engine)).unwrap()
}

fn apply(mon: &mut Monitor, ops: impl IntoIterator<Item = Op>) {
    mon.apply(&Txn::new(ops)).unwrap();
}

/// Require the monitored verdict of `id` to equal a from-scratch decision
/// on the monitor's current `(D, D_m)`: the same kind, and for `Incomplete`
/// both counterexamples certify.
fn assert_truth(mon: &Monitor, id: SettingId, v: &ConstraintSet, q: &Query, ctx: &str) {
    assert_truth_at(mon, mon.budget(), id, v, q, ctx);
}

/// [`assert_truth`] against a from-scratch decision under `budget`.
fn assert_truth_at(
    mon: &Monitor,
    budget: &SearchBudget,
    id: SettingId,
    v: &ConstraintSet,
    q: &Query,
    ctx: &str,
) {
    let setting = Setting::new(schema(), master_schema(), mon.dm().clone(), v.clone());
    let fresh = ric::complete::Request::new(&setting)
        .budget(budget)
        .rcdp(q, mon.db())
        .map(|o| o.verdict);
    match (mon.verdict(id).unwrap(), fresh) {
        (SettingVerdict::NotPartiallyClosed, Err(RcError::NotPartiallyClosed)) => {}
        (SettingVerdict::Decided(got), Ok(want)) => match (got, &want) {
            (Verdict::Complete, Verdict::Complete) => {}
            (Verdict::Unknown { stats: a }, Verdict::Unknown { stats: b }) => {
                assert_eq!(a.limit, b.limit, "{ctx}: Unknown limits differ");
            }
            (Verdict::Incomplete(a), Verdict::Incomplete(b)) => {
                for ce in [a, b] {
                    assert!(
                        certify_counterexample(&setting, q, mon.db(), ce).unwrap(),
                        "{ctx}: counterexample {ce:?} fails to certify"
                    );
                }
            }
            (got, want) => panic!("{ctx}: monitor {got:?} vs from scratch {want:?}"),
        },
        (got, want) => panic!("{ctx}: monitor {got:?} vs from scratch {want:?}"),
    }
}

fn counterexample(mon: &Monitor, id: SettingId) -> CounterExample {
    match mon.verdict(id).unwrap() {
        SettingVerdict::Decided(Verdict::Incomplete(ce)) => ce.clone(),
        other => panic!("expected Incomplete, got {other:?}"),
    }
}

/// The tuples a counterexample adds, with their relations.
fn delta_rows(ce: &CounterExample) -> Vec<(RelId, Tuple)> {
    ce.delta
        .iter()
        .flat_map(|(rel, inst)| inst.iter().map(move |t| (rel, t.clone())))
        .collect()
}

#[test]
fn recert_misses_once_the_transaction_inserts_the_counterexample_ind() {
    for engine in [Engine::Planned, Engine::Naive] {
        let mut mon = monitor(engine);
        let (v, q) = (ind_set(), e0_query("Supt"));
        let id = mon.register("ind", v.clone(), q.clone()).unwrap();
        apply(&mut mon, [Op::insert(supt(), row("x1", "d", "c1"))]);
        assert_truth(&mon, id, &v, &q, "after a noise row");

        // An unrelated footprint insert keeps the counterexample.
        let hits = mon.counters().recert_hit;
        apply(&mut mon, [Op::insert(supt(), row("x2", "d", "c2"))]);
        assert_eq!(mon.counters().recert_hit, hits + 1, "engine {engine}");
        assert_truth(&mon, id, &v, &q, "after a second noise row");

        // Inserting the counterexample's own tuples puts its answer in
        // Q(D): for INDs the check reads Δ alone (C3), so the answer test
        // is what must now fail.
        let ce = counterexample(&mon, id);
        let misses = mon.counters().recert_miss;
        apply(
            &mut mon,
            delta_rows(&ce).into_iter().map(|(r, t)| Op::insert(r, t)),
        );
        assert_eq!(mon.counters().recert_miss, misses + 1, "engine {engine}");
        assert_truth(&mon, id, &v, &q, "after inserting the counterexample");
    }
}

#[test]
fn recert_misses_once_an_inserted_tuple_breaks_the_fd() {
    for engine in [Engine::Planned, Engine::Naive] {
        let mut mon = monitor(engine);
        let (v, q) = (fd_set(), e0_query("Emp"));
        let id = mon.register("fd", v.clone(), q.clone()).unwrap();
        assert_eq!(mon.verdict(id).unwrap().status(), Status::Incomplete);

        let hits = mon.counters().recert_hit;
        apply(&mut mon, [Op::insert(emp(), row("e1", "d", "c1"))]);
        assert_eq!(mon.counters().recert_hit, hits + 1, "engine {engine}");
        assert_truth(&mon, id, &v, &q, "after another employee's row");

        // The counterexample adds an `e0` row; a transaction-inserted `e0`
        // row with other values makes `D ∪ Δ` violate the FD.
        let ce = counterexample(&mon, id);
        let (_, added) = delta_rows(&ce).remove(0);
        let dept = if added.get(1) == &Value::str("dz") {
            "dy"
        } else {
            "dz"
        };
        let misses = mon.counters().recert_miss;
        let anchor_hits = mon.counters().anchor_hit;
        apply(&mut mon, [Op::insert(emp(), row("e0", dept, "c9"))]);
        assert_eq!(mon.counters().recert_miss, misses + 1, "engine {engine}");
        assert_eq!(mon.counters().anchor_hit, anchor_hits, "no anchor existed");
        assert_eq!(mon.verdict(id).unwrap().status(), Status::Complete);
        assert_truth(&mon, id, &v, &q, "after the FD-pinning insert");
    }
}

/// The stream's heal: a Complete state loses a tuple (Incomplete), grows,
/// and gets the tuple back. The anchor answers the heal with no search.
#[test]
fn anchor_answers_a_deleted_and_reinserted_tuple() {
    for engine in [Engine::Planned, Engine::Naive] {
        let mut mon = monitor(engine);
        let defs = [
            ("ind", ind_set(), e0_query("Supt"), supt()),
            ("fd", fd_set(), e0_query("Emp"), emp()),
        ];
        let ids: Vec<SettingId> = defs
            .iter()
            .map(|(name, v, q, _)| mon.register(*name, v.clone(), q.clone()).unwrap())
            .collect();
        apply(
            &mut mon,
            [
                Op::insert(supt(), row("e0", "d", "c1")),
                Op::insert(supt(), row("e0", "d", "c2")),
                Op::insert(emp(), row("e0", "d", "c1")),
            ],
        );
        let check = |mon: &Monitor, ctx: &str| {
            for (id, (name, v, q, _)) in ids.iter().zip(&defs) {
                assert_truth(mon, *id, v, q, &format!("[{name}, {engine}] {ctx}"));
            }
        };
        check(&mon, "loaded");
        for (id, (_, _, _, rel)) in ids.iter().zip(&defs) {
            let broken = row("e0", "d", if *rel == supt() { "c2" } else { "c1" });
            apply(&mut mon, [Op::delete(*rel, broken.clone())]);
            assert_eq!(mon.verdict(*id).unwrap().status(), Status::Incomplete);
            apply(&mut mon, [Op::insert(*rel, row("x7", "d", "c1"))]);
            check(&mon, "broken and grown");

            let (redecides, anchor_hits) = (mon.counters().redecide, mon.counters().anchor_hit);
            let fast = mon.counters().fast_complete;
            apply(&mut mon, [Op::insert(*rel, broken)]);
            assert_eq!(mon.verdict(*id).unwrap().status(), Status::Complete);
            assert_eq!(mon.counters().anchor_hit, anchor_hits + 1);
            assert_eq!(mon.counters().fast_complete, fast + 1);
            assert_eq!(mon.counters().redecide, redecides, "the heal ran no search");
            check(&mon, "healed");
        }
    }
}

/// A master-data change between the delete and the re-insert drops the
/// anchor: the old Complete state says nothing under the new master data.
#[test]
fn master_change_between_delete_and_reinsert_drops_the_anchor() {
    let mut mon = monitor(Engine::Planned);
    let (v, q) = (ind_set(), e0_query("Supt"));
    let id = mon.register("ind", v.clone(), q.clone()).unwrap();
    let covered = [row("e0", "d", "c1"), row("e0", "d", "c2")];
    apply(
        &mut mon,
        covered.iter().map(|t| Op::insert(supt(), t.clone())),
    );
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Complete);
    apply(&mut mon, [Op::delete(supt(), covered[1].clone())]);
    apply(&mut mon, [Op::master_insert(dcust(), cust("c3"))]);
    assert_truth(&mon, id, &v, &q, "after the master insert");

    let anchor_hits = mon.counters().anchor_hit;
    apply(&mut mon, [Op::insert(supt(), covered[1].clone())]);
    assert_eq!(mon.counters().anchor_hit, anchor_hits);
    assert_eq!(
        mon.verdict(id).unwrap().status(),
        Status::Incomplete,
        "e0 may still support c3"
    );
    assert_truth(&mon, id, &v, &q, "after the re-insert");
}

/// Five pairwise incomparable Complete states make five anchors; the cap
/// keeps four, so returning to the first state re-decides while a superset
/// of a kept anchor is still answered by it.
#[test]
fn anchor_cap_evicts_the_oldest_anchor() {
    let mut mon = monitor(Engine::Planned);
    let (v, q) = (ind_set(), e0_query("Supt"));
    let id = mon.register("ind", v.clone(), q.clone()).unwrap();
    let marker = |i: usize| row(&format!("m{i}"), "d", "c1");
    apply(
        &mut mon,
        [
            Op::insert(supt(), row("e0", "d", "c1")),
            Op::insert(supt(), row("e0", "d", "c2")),
            Op::insert(supt(), marker(0)),
        ],
    );
    for i in 1..5 {
        let redecides = mon.counters().redecide;
        apply(
            &mut mon,
            [
                Op::delete(supt(), marker(i - 1)),
                Op::insert(supt(), marker(i)),
            ],
        );
        assert_eq!(mon.counters().redecide, redecides + 1, "anchor {i} decided");
        assert_truth(&mon, id, &v, &q, &format!("anchor {i}"));
    }
    let (redecides, anchor_hits) = (mon.counters().redecide, mon.counters().anchor_hit);
    let replays = mon.counters().memo_hit;
    apply(
        &mut mon,
        [Op::delete(supt(), marker(4)), Op::insert(supt(), marker(0))],
    );
    assert_eq!(
        mon.counters().redecide,
        redecides + 1,
        "the first anchor is gone"
    );
    assert_eq!(mon.counters().anchor_hit, anchor_hits);
    assert_eq!(
        mon.counters().memo_hit,
        replays,
        "a revisit four transactions back is not an undo"
    );
    assert_truth(&mon, id, &v, &q, "back at the first anchor");

    apply(&mut mon, [Op::insert(supt(), marker(2))]);
    assert_eq!(
        mon.counters().anchor_hit,
        anchor_hits + 1,
        "anchor 2 is kept"
    );
    assert_eq!(mon.counters().redecide, redecides + 1);
    assert_truth(&mon, id, &v, &q, "above a kept anchor");
}

/// `Q(C) :- ∃D Supt('e0', D, C)` spelled in FO.
fn fo_e0_query() -> Query {
    let (c, d) = (Var(0), Var(1));
    Query::Fo(FoQuery::new(
        vec![c],
        FoExpr::Exists(
            vec![d],
            Box::new(FoExpr::Atom(Atom::new(
                supt(),
                vec![Term::from("e0"), Term::Var(d), Term::Var(c)],
            ))),
        ),
        vec!["c".into(), "d".into()],
    ))
}

/// `Supt[cid] ⊆ DCust[cid]` with an FO body.
fn fo_body_set() -> ConstraintSet {
    let (e, d, c) = (Var(0), Var(1), Var(2));
    let body = FoQuery::new(
        vec![c],
        FoExpr::Exists(
            vec![e, d],
            Box::new(FoExpr::Atom(Atom::new(
                supt(),
                vec![Term::Var(e), Term::Var(d), Term::Var(c)],
            ))),
        ),
        vec!["e".into(), "d".into(), "c".into()],
    );
    ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Fo(body),
        dcust(),
        vec![0],
    )])
}

/// An FO query and an FO constraint body each re-certify through
/// `certify_counterexample`, and stay exact.
#[test]
fn fo_query_and_fo_body_take_the_fallback() {
    let cases = [
        ("fo-query", ind_set(), fo_e0_query()),
        ("fo-body", fo_body_set(), e0_query("Supt")),
    ];
    for (name, v, q) in cases {
        let mut mon = monitor(Engine::Planned);
        let id = mon.register(name, v.clone(), q.clone()).unwrap();
        assert_eq!(mon.verdict(id).unwrap().status(), Status::Incomplete);
        let collector = Collector::new();
        for (i, t) in [row("x1", "d", "c1"), row("x2", "d", "c2")]
            .into_iter()
            .enumerate()
        {
            mon.apply_probed(
                &Txn::new([Op::insert(supt(), t)]),
                Probe::attached(&collector),
            )
            .unwrap();
            assert_truth(&mon, id, &v, &q, &format!("[{name}] txn {i}"));
        }
        let report = collector.report();
        assert_eq!(report.counter("monitor.recert.fallback"), 2, "[{name}]");
        assert_eq!(report.counter("monitor.recert.hit"), 2, "[{name}]");
    }
}

/// The memo key before this suite: the XOR of per-tuple FNV-1a hashes of
/// each tuple's debug form, which is linear over GF(2)⁶⁴.
fn old_tuple_fp(rel: RelId, t: &Tuple) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("r{}|{t:?}", rel.0).bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A subset of `pool` whose XOR is `target`, by Gaussian elimination over
/// GF(2)⁶⁴ (each basis vector carries the pool subset it is made of).
fn xor_subset(pool: &[u64], target: u64) -> Option<Vec<usize>> {
    assert!(pool.len() <= 128);
    let mut basis: Vec<(u64, u128)> = Vec::new();
    let reduce = |mut v: u64, mut mask: u128, basis: &[(u64, u128)]| {
        for &(b, bm) in basis {
            if v ^ b < v {
                v ^= b;
                mask ^= bm;
            }
        }
        (v, mask)
    };
    for (i, &v) in pool.iter().enumerate() {
        let (v, mask) = reduce(v, 1u128 << i, &basis);
        if v != 0 {
            basis.push((v, mask));
            // Keep pivots (highest set bits) in decreasing order.
            basis.sort_unstable_by(|a, b| b.0.leading_zeros().cmp(&a.0.leading_zeros()).reverse());
        }
    }
    let (rest, mask) = reduce(target, 0, &basis);
    (rest == 0).then(|| (0..pool.len()).filter(|&i| mask >> i & 1 == 1).collect())
}

/// A set of inserts whose hashes cancel under the XOR-of-FNV key that an
/// earlier monitor memoized verdicts under: that monitor found the
/// pre-state's entry and replayed `Incomplete` for a state that is
/// `Complete`. Only an exact undo replays now, so the monitor re-decides.
#[test]
fn colliding_insert_set_for_the_old_key_is_re_decided() {
    let mut mon = monitor(Engine::Planned);
    let (v, q) = (ind_set(), e0_query("Supt"));
    let id = mon.register("ind", v.clone(), q.clone()).unwrap();
    apply(&mut mon, [Op::insert(supt(), row("e0", "d", "c1"))]);
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Incomplete);

    // The heal plus noise rows chosen so that the whole set cancels.
    let heal = row("e0", "d", "c2");
    let pool: Vec<Tuple> = (0..100).map(|i| row(&format!("x{i}"), "d", "c1")).collect();
    let hashes: Vec<u64> = pool.iter().map(|t| old_tuple_fp(supt(), t)).collect();
    let chosen = xor_subset(&hashes, old_tuple_fp(supt(), &heal)).expect("pool spans GF(2)^64");
    let mut inserts: Vec<Tuple> = chosen.iter().map(|&i| pool[i].clone()).collect();
    inserts.push(heal);
    let old_delta = inserts
        .iter()
        .fold(0u64, |acc, t| acc ^ old_tuple_fp(supt(), t));
    assert_eq!(old_delta, 0, "the insert set collides under the old key");

    let (memo_hits, redecides) = (mon.counters().memo_hit, mon.counters().redecide);
    apply(&mut mon, inserts.into_iter().map(|t| Op::insert(supt(), t)));
    assert_eq!(mon.counters().memo_hit, memo_hits, "no replay");
    assert_eq!(mon.counters().redecide, redecides + 1, "re-decided");
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Complete);
    assert_truth(&mon, id, &v, &q, "after the colliding insert set");
}

/// T1 completes the state, T2 grows it, and one transaction then returns
/// to the state before T1. It does not undo T2, so the verdict T2 replaced
/// (`Complete`) must not be replayed: the state is `Incomplete` again.
#[test]
fn a_return_past_the_last_transaction_is_not_replayed() {
    let mut mon = monitor(Engine::Planned);
    let (v, q) = (ind_set(), e0_query("Supt"));
    let id = mon.register("ind", v.clone(), q.clone()).unwrap();
    apply(&mut mon, [Op::insert(supt(), row("e0", "d", "c1"))]);
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Incomplete);
    let (heal, noise) = (row("e0", "d", "c2"), row("x1", "d", "c1"));
    apply(&mut mon, [Op::insert(supt(), heal.clone())]);
    apply(&mut mon, [Op::insert(supt(), noise.clone())]);
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Complete);

    let replays = mon.counters().memo_hit;
    apply(
        &mut mon,
        [Op::delete(supt(), heal), Op::delete(supt(), noise)],
    );
    assert_eq!(mon.counters().memo_hit, replays, "no replay");
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Incomplete);
    assert_truth(&mon, id, &v, &q, "back before T1");
}

/// A transaction that grows both `D` and `D_m`, then one that undoes only
/// its `D` side. The master data is still grown, so the verdict from before
/// the first (`Complete`) must not be replayed.
#[test]
fn undoing_only_the_database_side_is_not_replayed() {
    let mut mon = monitor(Engine::Planned);
    let (v, q) = (ind_set(), e0_query("Supt"));
    let id = mon.register("ind", v.clone(), q.clone()).unwrap();
    apply(
        &mut mon,
        [
            Op::insert(supt(), row("e0", "d", "c1")),
            Op::insert(supt(), row("e0", "d", "c2")),
        ],
    );
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Complete);
    let added = row("e0", "d", "c3");
    apply(
        &mut mon,
        [
            Op::master_insert(dcust(), cust("c3")),
            Op::insert(supt(), added.clone()),
        ],
    );
    assert_truth(&mon, id, &v, &q, "after the mixed transaction");

    let replays = mon.counters().memo_hit;
    apply(&mut mon, [Op::delete(supt(), added)]);
    assert_eq!(mon.counters().memo_hit, replays, "no replay");
    assert_eq!(
        mon.verdict(id).unwrap().status(),
        Status::Incomplete,
        "e0 may still support c3"
    );
    assert_truth(&mon, id, &v, &q, "after the D-side inverse");
}

/// A master-data transaction forces a re-preparation and a re-decision;
/// its inverse re-prepares again and replays the verdict from before it,
/// counterexample included, so the state digest comes back bitwise.
#[test]
fn a_master_data_inverse_replays_and_restores_the_digest() {
    let mut mon = monitor(Engine::Planned);
    let (v, q) = (ind_set(), e0_query("Supt"));
    let id = mon.register("ind", v.clone(), q.clone()).unwrap();
    apply(&mut mon, [Op::insert(supt(), row("e0", "d", "c1"))]);
    let (digest, before) = (mon.state_digest(), mon.verdict(id).unwrap().clone());
    let txn = Txn::new([Op::master_insert(dcust(), cust("c3"))]);
    mon.apply(&txn).unwrap();
    assert_truth(&mon, id, &v, &q, "after the master insert");

    let c = mon.counters().clone();
    mon.apply(&txn.inverse()).unwrap();
    assert_eq!(mon.counters().reprepare, c.reprepare + 1);
    assert_eq!(mon.counters().memo_hit, c.memo_hit + 1, "replayed");
    assert_eq!(mon.counters().redecide, c.redecide);
    assert_eq!(mon.verdict(id).unwrap(), &before);
    assert_eq!(mon.state_digest(), digest);
    assert_truth(&mon, id, &v, &q, "after the master delete");
}

/// A post-state cut by a deadline is `Unknown` for a reason that is not a
/// function of the state, so it is never replayed: after T1 (under a
/// deadline), its inverse, and T1 again, the redo is re-decided.
#[test]
fn a_deadline_cut_post_state_is_re_decided_on_the_redo() {
    let mut mon = monitor(Engine::Planned);
    let (v, q) = (ind_set(), e0_query("Supt"));
    let id = mon.register("ind", v.clone(), q.clone()).unwrap();
    apply(&mut mon, [Op::insert(supt(), row("e0", "d", "c1"))]);
    let txn = Txn::new([Op::insert(supt(), row("e0", "d", "c2"))]);
    let guard = Guard::new(mon.budget()).with_fault_plan(FaultPlan::new().deadline_at_tick(0));
    mon.apply_guarded(&txn, &guard, Probe::disabled()).unwrap();
    match mon.verdict(id).unwrap() {
        SettingVerdict::Decided(Verdict::Unknown { stats }) => {
            assert_eq!(stats.limit, BudgetLimit::Deadline);
        }
        other => panic!("expected a deadline Unknown, got {other:?}"),
    }

    let c = mon.counters().clone();
    mon.apply(&txn.inverse()).unwrap();
    assert_eq!(
        mon.counters().memo_hit,
        c.memo_hit + 1,
        "the inverse replays"
    );
    assert_truth(&mon, id, &v, &q, "after the inverse");

    let c = mon.counters().clone();
    mon.apply(&txn).unwrap();
    assert_eq!(mon.counters().memo_hit, c.memo_hit, "no replay");
    assert_eq!(mon.counters().redecide, c.redecide + 1, "re-decided");
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Complete);
    assert_truth(&mon, id, &v, &q, "after the redo");
}

/// A starved monitor leaves the post-state of a transaction `Unknown`, and
/// an escalation decides it. The inverse replays the verdict from before
/// the transaction, and the redo replays the escalated one: a re-decision
/// under the starved budget would be `Unknown` again.
#[test]
fn escalation_between_a_transaction_and_its_inverse_is_replayed() {
    let starved = SearchBudget {
        max_valuations: 1,
        max_candidates: 1,
        ..budget(Engine::Planned)
    };
    let ample = budget(Engine::Planned);
    let mut mon = Monitor::new(schema(), master_schema(), dm(), starved).unwrap();
    let (v, q) = (fd_set(), e0_query("Emp"));
    let id = mon.register("fd", v.clone(), q.clone()).unwrap();
    mon.escalate(id, &ample).unwrap();
    let before = mon.verdict(id).unwrap().clone();
    assert_eq!(before.status(), Status::Incomplete);

    // Pinning e0's row makes the query's answer fixed: `Complete`, which
    // the starved budget cannot prove.
    let txn = Txn::new([Op::insert(emp(), row("e0", "d", "c1"))]);
    mon.apply(&txn).unwrap();
    assert_eq!(mon.verdict(id).unwrap().status(), Status::Unknown);
    mon.escalate(id, &ample).unwrap();
    let escalated = mon.verdict(id).unwrap().clone();
    assert_eq!(escalated.status(), Status::Complete);

    let c = mon.counters().clone();
    mon.apply(&txn.inverse()).unwrap();
    assert_eq!(
        mon.counters().memo_hit,
        c.memo_hit + 1,
        "the inverse replays"
    );
    assert_eq!(mon.counters().redecide, c.redecide);
    assert_eq!(mon.verdict(id).unwrap(), &before);
    assert_truth_at(&mon, &ample, id, &v, &q, "after the inverse");

    let c = mon.counters().clone();
    mon.apply(&txn).unwrap();
    assert_eq!(mon.counters().memo_hit, c.memo_hit + 1, "the redo replays");
    assert_eq!(mon.counters().redecide, c.redecide);
    assert_eq!(mon.verdict(id).unwrap(), &escalated);
    assert_truth_at(&mon, &ample, id, &v, &q, "after the redo");
}

/// A randomized stream over both settings with deletes, re-inserts, and
/// master changes, checked against from-scratch decisions after every
/// transaction on both engines.
#[test]
fn random_streams_match_from_scratch() {
    let defs = [
        ("ind", ind_set(), e0_query("Supt")),
        ("fd", fd_set(), e0_query("Emp")),
    ];
    for engine in [Engine::Planned, Engine::Naive] {
        let mut rng = SplitMix64::seed_from_u64(0x2A9C);
        let mut mon = monitor(engine);
        let ids: Vec<SettingId> = defs
            .iter()
            .map(|(name, v, q)| mon.register(*name, v.clone(), q.clone()).unwrap())
            .collect();
        let emps = ["e0", "e1", "e2"];
        let custs = ["c1", "c2", "c3"];
        for k in 0..60 {
            let mut ops = Vec::new();
            for _ in 0..rng.random_range(1..3) {
                let e = emps[rng.random_range(0..emps.len())];
                let c = custs[rng.random_range(0..custs.len())];
                let t = row(e, "d", c);
                ops.push(match rng.random_range(0..10) {
                    0..=3 => Op::insert(supt(), t),
                    4..=5 => Op::delete(supt(), t),
                    6..=7 => Op::insert(emp(), t),
                    8 => Op::delete(emp(), t),
                    _ if rng.random_bool(0.5) => Op::master_insert(dcust(), cust("c3")),
                    _ => Op::master_delete(dcust(), cust("c3")),
                });
            }
            apply(&mut mon, ops);
            for (id, (name, v, q)) in ids.iter().zip(&defs) {
                assert_truth(&mon, *id, v, q, &format!("[{name}, {engine}] txn {k}"));
            }
        }
        let c = mon.counters();
        assert!(
            c.anchor_hit > 0 && c.recert_hit > 0 && c.recert_miss > 0 && c.memo_hit > 0,
            "engine {engine}: the stream must take every shortcut: {c:?}"
        );
    }
}

/// A monitor over `Supt` with `e0` covering `c1` (Incomplete) or both
/// customers (Complete), plus `noise` rows of other employees.
fn sized_monitor(noise: usize, complete: bool) -> (Monitor, SettingId) {
    let mut mon = monitor(Engine::Planned);
    let id = mon.register("ind", ind_set(), e0_query("Supt")).unwrap();
    let mut ops = vec![Op::insert(supt(), row("e0", "d", "c1"))];
    if complete {
        ops.push(Op::insert(supt(), row("e0", "d", "c2")));
    }
    ops.extend((0..noise).map(|i| Op::insert(supt(), row(&format!("n{i}"), "d", "c1"))));
    apply(&mut mon, ops);
    (mon, id)
}

/// Allocations of one single-row insert on a monitor of each size, after a
/// warm-up insert of the same shape.
fn rung_allocs(noise: usize, complete: bool) -> u64 {
    let (mut mon, id) = sized_monitor(noise, complete);
    let grow = |mon: &mut Monitor, i: usize| {
        let txn = Txn::new([Op::insert(supt(), row(&format!("g{i}"), "d", "c2"))]);
        let before = allocs();
        mon.apply(&txn).unwrap();
        allocs() - before
    };
    grow(&mut mon, 0);
    let counters = mon.counters().clone();
    let n = grow(&mut mon, 1);
    if complete {
        assert_eq!(mon.counters().anchor_hit, counters.anchor_hit + 1);
        assert_eq!(mon.verdict(id).unwrap().status(), Status::Complete);
    } else {
        assert_eq!(mon.counters().recert_hit, counters.recert_hit + 1);
        assert_eq!(mon.verdict(id).unwrap().status(), Status::Incomplete);
    }
    assert_eq!(mon.counters().redecide, counters.redecide, "no search ran");
    n
}

/// The recert and anchor rungs allocate the same on a database 4× larger.
#[test]
fn recert_and_anchor_rungs_allocate_independently_of_the_database() {
    for complete in [false, true] {
        let small = rung_allocs(24, complete);
        let large = rung_allocs(96, complete);
        assert_eq!(
            small,
            large,
            "{} rung: {small} allocations at 24 noise rows, {large} at 96",
            if complete { "anchor" } else { "recert" }
        );
    }
}

/// A stream that takes every rung (skip, memo, anchor, recert, decide,
/// replan) is identical with probe capture on and off: verdicts, counters,
/// and the state digest.
#[test]
fn probe_capture_is_neutral_on_every_rung() {
    let defs = [
        ("ind", ind_set(), e0_query("Supt")),
        ("fd", fd_set(), e0_query("Emp")),
    ];
    let mut plain = monitor(Engine::Planned);
    let mut traced = monitor(Engine::Planned);
    let collector = Collector::new();
    let trace = TraceState::new();
    let probe = Probe::attached(&collector).with_trace(&trace);
    for (name, v, q) in &defs {
        plain.register(*name, v.clone(), q.clone()).unwrap();
        traced
            .register_probed(*name, v.clone(), q.clone(), probe)
            .unwrap();
    }
    let grow: Vec<Op> = (0..6)
        .map(|i| Op::insert(emp(), row(&format!("f{i}"), "d", "c1")))
        .collect();
    let stream = vec![
        vec![
            Op::insert(supt(), row("e0", "d", "c1")),
            Op::insert(supt(), row("e0", "d", "c2")),
            Op::insert(emp(), row("e0", "d", "c1")),
        ],
        vec![Op::insert(note(), cust("n1"))],
        vec![Op::insert(supt(), row("x1", "d", "c1"))],
        vec![Op::delete(supt(), row("e0", "d", "c2"))],
        vec![Op::insert(supt(), row("x2", "d", "c2"))],
        vec![Op::insert(supt(), row("e0", "d", "c2"))],
        vec![Op::delete(supt(), row("x2", "d", "c2"))],
        // The Emp plan was costed on an empty relation: the first decision
        // after this growth flags the drift, the next one replans.
        grow.clone(),
        vec![Op::delete(emp(), row("e0", "d", "c1"))],
        vec![Op::insert(emp(), row("e0", "d", "c1"))],
        vec![
            Op::delete(emp(), row("e0", "d", "c1")),
            Op::insert(emp(), row("f7", "d", "c1")),
        ],
        grow.iter().map(Op::inverse).collect(),
        vec![Op::master_insert(dcust(), cust("c3"))],
    ];
    for (i, ops) in stream.into_iter().enumerate() {
        let txn = Txn::new(ops);
        let a = plain.apply(&txn).unwrap();
        let b = traced.apply_probed(&txn, probe).unwrap();
        assert_eq!(a, b, "txn {i}: verdict changes differ");
        let verdicts = |m: &Monitor| {
            m.verdicts()
                .into_iter()
                .map(|(_, v)| v.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(verdicts(&plain), verdicts(&traced), "txn {i}");
        assert_eq!(plain.counters(), traced.counters(), "txn {i}");
        assert_eq!(plain.state_digest(), traced.state_digest(), "txn {i}");
    }
    let report = collector.report();
    for rung in [
        "monitor.skip",
        "monitor.memo.hit",
        "monitor.anchor.hit",
        "monitor.recert.hit",
        "monitor.redecide",
        "monitor.replan",
    ] {
        assert!(report.counter(rung) > 0, "the stream never took {rung}");
    }
}
