//! Delete/tombstone edge cases of the monitor's transactional overlay.
//!
//! A transaction's ops are coalesced last-op-wins before any mutation, so
//! the overlay's tombstone layer has three classic edges worth pinning at
//! the monitor level:
//!
//! * deleting a tuple that exists only *inside the same transaction's delta*
//!   (insert → delete) must be a net no-op;
//! * re-inserting a tuple after deleting it in the same transaction
//!   (delete → insert of a present tuple) must be a net no-op;
//! * the semantic state digest must be a pure function of the net effect —
//!   two op orderings with the same net effect converge to the same digest
//!   and verdicts.
//!
//! A transaction followed by its inverse must also restore the digest when
//! the forward transaction mixes inserts and tombstones: the undo rung
//! replays each verdict it replaced.

use ric::prelude::*;

/// One support table IND-bounded by a master list, plus the matching
/// completeness question (the Example 1.1 shape).
fn fixture() -> (Schema, Schema, Database, ConstraintSet, Query, RelId) {
    let schema =
        Schema::from_relations(vec![RelationSchema::infinite("Supt", &["eid", "cid"])]).unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let master = Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
    let dcust = master.rel_id("DCust").unwrap();
    let mut dm = Database::empty(&master);
    for c in ["c1", "c2"] {
        dm.insert(dcust, Tuple::new([Value::str(c)]));
    }
    let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Proj(Projection::new(supt, vec![1])),
        dcust,
        vec![0],
    )]);
    let q: Query = parse_cq(&schema, "Q(C) :- Supt(E, C).").unwrap().into();
    (schema, master, dm, v, q, supt)
}

fn monitor() -> (Monitor, SettingId, RelId) {
    let (schema, master, dm, v, q, supt) = fixture();
    let mut mon = Monitor::new(schema, master, dm, SearchBudget::default()).unwrap();
    let id = mon.register("supt", v, q).unwrap();
    (mon, id, supt)
}

fn tup(e: &str, c: &str) -> Tuple {
    Tuple::new([Value::str(e), Value::str(c)])
}

/// insert → delete of the same tuple within one txn: the tuple only ever
/// existed in the delta layer, and the transaction must be a net no-op.
#[test]
fn delete_of_a_tuple_only_in_the_delta_layer_is_a_net_noop() {
    let (mut mon, id, supt) = monitor();
    let before_digest = mon.state_digest();
    let before_verdict = mon.verdict(id).unwrap().clone();
    let changes = mon
        .apply(&Txn::new([
            Op::insert(supt, tup("e9", "c2")),
            Op::delete(supt, tup("e9", "c2")),
        ]))
        .unwrap();
    assert!(
        changes.is_empty(),
        "net no-op caused transitions: {changes:?}"
    );
    assert_eq!(mon.state_digest(), before_digest);
    assert_eq!(mon.verdict(id).unwrap(), &before_verdict);
    assert!(mon.db().instance(supt).is_empty());
}

/// delete → re-insert of a present tuple within one txn: last-op-wins keeps
/// the tuple, so state, digest, and verdict are untouched.
#[test]
fn reinsert_after_delete_within_one_txn_is_a_net_noop() {
    let (mut mon, id, supt) = monitor();
    mon.apply(&Txn::new([Op::insert(supt, tup("e1", "c1"))]))
        .unwrap();
    let before_digest = mon.state_digest();
    let before_verdict = mon.verdict(id).unwrap().clone();
    let changes = mon
        .apply(&Txn::new([
            Op::delete(supt, tup("e1", "c1")),
            Op::insert(supt, tup("e1", "c1")),
        ]))
        .unwrap();
    assert!(
        changes.is_empty(),
        "net no-op caused transitions: {changes:?}"
    );
    assert_eq!(mon.state_digest(), before_digest);
    assert_eq!(mon.verdict(id).unwrap(), &before_verdict);
    assert!(mon.db().instance(supt).contains(&tup("e1", "c1")));
}

/// Two op orderings with the same net effect — tombstone-then-insert mixed
/// across distinct tuples, in shuffled orders — converge to identical
/// digests and verdicts (the digest is content-addressed, not
/// history-addressed).
#[test]
fn digest_is_stable_across_commuting_op_orderings() {
    let ops = |order: &[usize]| {
        let pool = [
            Op::insert(RelId(0), tup("e1", "c1")),
            Op::insert(RelId(0), tup("e2", "c2")),
            Op::delete(RelId(0), tup("e3", "c1")),
        ];
        Txn::new(order.iter().map(|&i| pool[i].clone()))
    };
    let run = |order: &[usize]| {
        let (mut mon, id, supt) = monitor();
        // Seed e3 so the delete is real in one ordering class.
        mon.apply(&Txn::new([Op::insert(supt, tup("e3", "c1"))]))
            .unwrap();
        mon.apply(&ops(order)).unwrap();
        (mon.state_digest(), mon.verdict(id).unwrap().clone())
    };
    let (d0, v0) = run(&[0, 1, 2]);
    for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
        let (d, v) = run(&order);
        assert_eq!(d, d0, "digest diverges for ordering {order:?}");
        assert_eq!(v, v0, "verdict diverges for ordering {order:?}");
    }
}

/// A transaction followed by its inverse restores the digest bitwise even
/// when the forward txn mixes inserts and tombstones.
#[test]
fn inverse_restores_digest_across_mixed_tombstones() {
    let (mut mon, _id, supt) = monitor();
    mon.apply(&Txn::new([Op::insert(supt, tup("e1", "c1"))]))
        .unwrap();
    let before = mon.state_digest();
    let fwd = Txn::new([
        Op::delete(supt, tup("e1", "c1")),
        Op::insert(supt, tup("e2", "c2")),
    ]);
    let inv = fwd.inverse();
    mon.apply(&fwd).unwrap();
    assert_ne!(mon.state_digest(), before);
    mon.apply(&inv).unwrap();
    assert_eq!(mon.state_digest(), before);
}
