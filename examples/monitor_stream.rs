//! Streaming completeness monitoring over a live transaction stream.
//!
//! Run with `cargo run --example monitor_stream`.
//!
//! A support desk keeps an operational table `Supt(eid, cid)` that is
//! partially closed by the master customer list `Cust_m`: every supported
//! customer must be a known customer. The dashboard question — "is the list
//! of supported customers complete?" — is an RCDP decision that must stay
//! answered while transactions stream in. A [`ric::Monitor`] keeps the
//! verdict current incrementally: transactions outside the setting's
//! footprint cost O(1), a database that still contains a state decided
//! Complete is Complete without search, and a transaction that exactly
//! undoes the one before it (a repair) replays the verdict that one
//! replaced instead of re-searching.

use ric::prelude::*;
use ric::{Monitor, Op, Status, Txn};

fn main() {
    // Operational schema: support assignments plus an unrelated audit log.
    let schema = Schema::from_relations(vec![
        RelationSchema::infinite("Supt", &["eid", "cid"]),
        RelationSchema::infinite("Audit", &["entry"]),
    ])
    .unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let audit = schema.rel_id("Audit").unwrap();

    // Master data: the closed-world list of customers.
    let master = Schema::from_relations(vec![RelationSchema::infinite("Cust", &["cid"])]).unwrap();
    let cust = master.rel_id("Cust").unwrap();
    let mut dm = Database::empty(&master);
    for c in ["c1", "c2"] {
        dm.insert(cust, Tuple::new([Value::str(c)]));
    }

    // Constraint: supported customers are bounded by the master list.
    let body = parse_cq(&schema, "Q(C) :- Supt(E, C).").unwrap();
    let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Cq(body),
        cust,
        vec![0],
    )]);
    let q: Query = parse_cq(&schema, "Q(C) :- Supt(E, C).").unwrap().into();

    let mut mon = Monitor::new(schema, master, dm, SearchBudget::default()).unwrap();
    let id = mon.register("supported-customers", v, q).unwrap();
    report(&mon, id, "registered on the empty database");

    // c2 is still unsupported: incomplete. Cover it and the verdict flips —
    // every admissible extension now stays inside the master list.
    let txn = Txn::new([
        Op::insert(supt, Tuple::new([Value::str("e0"), Value::str("c1")])),
        Op::insert(supt, Tuple::new([Value::str("e1"), Value::str("c2")])),
    ]);
    for change in mon.apply(&txn).unwrap() {
        println!("  change: {change}");
    }
    report(&mon, id, "after covering the master list");

    // Insert-only growth inside the master list keeps Complete: the
    // covered state is a Complete anchor the grown database contains, so
    // no search runs.
    let growth = Txn::new([Op::insert(
        supt,
        Tuple::new([Value::str("e2"), Value::str("c1")]),
    )]);
    mon.apply(&growth).unwrap();
    report(&mon, id, "after insert-only growth");

    // A bad insert breaks partial closure; deleting it exactly undoes that
    // transaction, so the old verdict is replayed — again without a search.
    let bad = Tuple::new([Value::str("e9"), Value::str("c9")]);
    mon.apply(&Txn::new([Op::insert(supt, bad.clone())]))
        .unwrap();
    report(&mon, id, "after an out-of-master insert");
    mon.apply(&Txn::new([Op::delete(supt, bad)])).unwrap();
    report(&mon, id, "after repairing it");

    // Audit churn is outside the footprint: O(1) skip, no re-decision.
    let noise = Txn::new([Op::insert(audit, Tuple::new([Value::str("login e0")]))]);
    mon.apply(&noise).unwrap();
    report(&mon, id, "after unrelated audit churn");

    let c = mon.counters();
    println!(
        "work: {} decisions, {} undo replays, {} anchor hits, {} skips, {} incremental pc checks",
        c.redecide, c.memo_hit, c.anchor_hit, c.skip, c.cc_delta
    );
}

fn report(mon: &Monitor, id: ric::SettingId, when: &str) {
    let status = mon.verdict(id).unwrap().status();
    let mark = match status {
        Status::Complete => "✔",
        Status::Incomplete => "✘",
        Status::Unknown => "?",
        Status::NotPartiallyClosed => "⚠",
    };
    println!("[txn {}] {mark} {status} — {when}", mon.txn_seq());
}
