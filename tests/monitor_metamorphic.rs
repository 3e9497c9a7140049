//! Metamorphic properties of the streaming monitor: relations between runs
//! that must hold *whatever* the verdicts are, complementing the
//! ground-truth pinning in `monitor_differential.rs`.
//!
//! 1. **Inversion** — a transaction followed by its exact inverse restores
//!    the monitor's semantic state bitwise ([`Monitor::state_digest`]): the
//!    inverse replays each verdict the transaction replaced, witnesses
//!    included.
//! 2. **Coalescing** — a transaction and its op-coalesced form (redundant
//!    insert/delete churn removed) produce identical verdicts *and*
//!    identical work counters: the monitor keys on net changes only.
//! 3. **Splitting** — breaking a transaction into singleton transactions
//!    never changes the final verdicts (only the intermediate ones).
//! 4. **Monotonicity** — along an insert-only admissible stream, `Complete`
//!    never degrades (the paper's extension order: a counterexample for the
//!    grown database would extend the original; cf. `paper_properties.rs`).

use ric::prelude::*;
use ric::SplitMix64;
use ric::{Monitor, Op, SettingId, Txn};

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

fn t(vs: &[i64]) -> Tuple {
    Tuple::new(vs.iter().map(|&v| Value::int(v)))
}

fn dm() -> Database {
    let ms = master_schema();
    let m = ms.rel_id("M").unwrap();
    let mut dm = Database::empty(&ms);
    for b in 0..3 {
        dm.insert(m, t(&[b]));
    }
    dm
}

/// A monitor with two settings: `crm` constrains and queries `R`'s `b`
/// column against the master list; `open-s` queries the unconstrained `S`.
fn monitor() -> (Monitor, Vec<SettingId>) {
    let s = schema();
    let ms = master_schema();
    let m = ms.rel_id("M").unwrap();
    let mut mon = Monitor::new(s.clone(), ms, dm(), SearchBudget::default()).unwrap();
    let body = CcBody::Cq(parse_cq(&s, "Q(B) :- R(A, B).").unwrap());
    let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(body, m, vec![0])]);
    let crm = mon
        .register(
            "crm",
            v.clone(),
            Query::Cq(parse_cq(&s, "Q(B) :- R(A, B).").unwrap()),
        )
        .unwrap();
    let open_s = mon
        .register(
            "open-s",
            v,
            Query::Cq(parse_cq(&s, "Q(A) :- S(A).").unwrap()),
        )
        .unwrap();
    (mon, vec![crm, open_s])
}

fn random_txn(rng: &mut SplitMix64, batch: usize) -> Txn {
    let s = schema();
    let ms = master_schema();
    let r = s.rel_id("R").unwrap();
    let srel = s.rel_id("S").unwrap();
    let m = ms.rel_id("M").unwrap();
    let mut ops = Vec::with_capacity(batch);
    for _ in 0..batch {
        let a = rng.random_range(0..5) as i64;
        let b = rng.random_range(0..4) as i64;
        match rng.random_range(0..10) {
            0..=4 => ops.push(Op::insert(r, t(&[a, b]))),
            5..=6 => ops.push(Op::insert(srel, t(&[a]))),
            7 => ops.push(Op::delete(r, t(&[a, b]))),
            8 => ops.push(Op::delete(srel, t(&[a]))),
            _ => ops.push(Op::master_insert(m, t(&[b]))),
        }
    }
    Txn::new(ops)
}

/// The *effective* form of an applied transaction, reconstructed from
/// before/after snapshots: its [`Txn::inverse`] is exact by construction.
fn effective_txn(before: (&Database, &Database), after: (&Database, &Database)) -> Txn {
    let mut ops = Vec::new();
    for (pre, post, master) in [(before.0, after.0, false), (before.1, after.1, true)] {
        for (rel, inst) in post.iter() {
            for tup in inst.iter() {
                if !pre.instance(rel).contains(tup) {
                    ops.push(if master {
                        Op::master_insert(rel, tup.clone())
                    } else {
                        Op::insert(rel, tup.clone())
                    });
                }
            }
        }
        for (rel, inst) in pre.iter() {
            for tup in inst.iter() {
                if !post.instance(rel).contains(tup) {
                    ops.push(if master {
                        Op::master_delete(rel, tup.clone())
                    } else {
                        Op::delete(rel, tup.clone())
                    });
                }
            }
        }
    }
    Txn::new(ops)
}

#[test]
fn txn_then_exact_inverse_restores_the_state_digest() {
    let mut rng = SplitMix64::seed_from_u64(0x1F5E);
    let (mut mon, ids) = monitor();
    // Walk a stream; after every step, undo it and demand bitwise semantic
    // equality, then redo it to keep walking.
    for step in 0..20 {
        let digest = mon.state_digest();
        let statuses: Vec<_> = ids
            .iter()
            .map(|id| mon.verdict(*id).unwrap().status())
            .collect();
        let before = (mon.db().clone(), mon.dm().clone());
        let txn = random_txn(&mut rng, 4);
        mon.apply(&txn).unwrap();
        let eff = effective_txn((&before.0, &before.1), (mon.db(), mon.dm()));
        mon.apply(&eff.inverse()).unwrap();
        assert_eq!(
            mon.state_digest(),
            digest,
            "step {step}: inverse must restore the digest"
        );
        for (id, status) in ids.iter().zip(&statuses) {
            assert_eq!(mon.verdict(*id).unwrap().status(), *status, "step {step}");
        }
        mon.apply(&eff).unwrap();
    }
}

#[test]
fn coalesced_txns_are_indistinguishable_including_counters() {
    let s = schema();
    let r = s.rel_id("R").unwrap();
    let srel = s.rel_id("S").unwrap();
    // Churny form: inserts and deletes that cancel, duplicate inserts, and
    // a delete-then-reinsert; net effect = {R(10,1), R(20,2), S(3)}.
    let churny = Txn::new([
        Op::insert(r, t(&[10, 1])),
        Op::insert(r, t(&[99, 3])), // will be deleted below
        Op::insert(srel, t(&[3])),
        Op::delete(r, t(&[99, 3])),
        Op::insert(r, t(&[20, 2])),
        Op::delete(r, t(&[10, 1])),
        Op::insert(r, t(&[10, 1])), // delete-then-reinsert cancels
        Op::insert(r, t(&[20, 2])), // duplicate
    ]);
    let coalesced = Txn::new([
        Op::insert(r, t(&[10, 1])),
        Op::insert(r, t(&[20, 2])),
        Op::insert(srel, t(&[3])),
    ]);

    let (mut a, ids_a) = monitor();
    let (mut b, ids_b) = monitor();
    a.apply(&churny).unwrap();
    b.apply(&coalesced).unwrap();
    assert_eq!(a.db(), b.db());
    assert_eq!(a.state_digest(), b.state_digest());
    for (ia, ib) in ids_a.iter().zip(&ids_b) {
        assert_eq!(a.verdict(*ia).unwrap(), b.verdict(*ib).unwrap());
    }
    assert_eq!(
        a.counters(),
        b.counters(),
        "all work counters (skips included) must agree: the monitor keys on net changes"
    );
}

#[test]
fn a_txn_that_nets_to_nothing_skips_every_setting() {
    let (mut mon, _) = monitor();
    let s = schema();
    let r = s.rel_id("R").unwrap();
    let skip0 = mon.counters().skip;
    let digest = mon.state_digest();
    let tup = t(&[10, 1]);
    mon.apply(&Txn::new([
        Op::insert(r, tup.clone()),
        Op::insert(r, t(&[20, 2])),
        Op::delete(r, t(&[20, 2])),
        Op::delete(r, tup),
    ]))
    .unwrap();
    assert_eq!(mon.counters().skip, skip0 + 2, "both settings skip O(1)");
    assert_eq!(mon.state_digest(), digest);
    assert_eq!(mon.counters().redecide, 2, "registration decisions only");
}

#[test]
fn splitting_txns_into_singletons_preserves_final_verdicts() {
    for seed in [0x51u64, 0x52, 0x53] {
        let mut rng_a = SplitMix64::seed_from_u64(seed);
        let mut rng_b = SplitMix64::seed_from_u64(seed);
        let (mut batched, ids_a) = monitor();
        let (mut split, ids_b) = monitor();
        for _ in 0..12 {
            let txn = random_txn(&mut rng_a, 6);
            batched.apply(&txn).unwrap();
            let same = random_txn(&mut rng_b, 6);
            assert_eq!(txn, same);
            for op in same.ops {
                split.apply(&Txn::new([op])).unwrap();
            }
        }
        assert_eq!(batched.db(), split.db());
        assert_eq!(batched.dm(), split.dm());
        for (ia, ib) in ids_a.iter().zip(&ids_b) {
            assert_eq!(
                batched.verdict(*ia).unwrap().status(),
                split.verdict(*ib).unwrap().status(),
                "seed {seed:#x}: final statuses must not depend on batching"
            );
        }
    }
}

#[test]
fn complete_is_monotone_along_insert_only_admissible_streams() {
    let s = schema();
    let r = s.rel_id("R").unwrap();
    let srel = s.rel_id("S").unwrap();
    let (mut mon, ids) = monitor();
    let crm = ids[0];
    // Cover the master list: crm becomes Complete.
    mon.apply(&Txn::new([
        Op::insert(r, t(&[10, 0])),
        Op::insert(r, t(&[10, 1])),
        Op::insert(r, t(&[10, 2])),
    ]))
    .unwrap();
    assert_eq!(mon.verdict(crm).unwrap().status(), Status::Complete);

    // Entailed/admissible inserts only (b drawn from the master list, plus
    // unconstrained S churn): Complete must never flip.
    let mut rng = SplitMix64::seed_from_u64(0x3A0);
    for step in 0..30 {
        let a = rng.random_range(0..50) as i64;
        let b = rng.random_range(0..3) as i64;
        let op = if rng.random_range(0..3) == 0 {
            Op::insert(srel, t(&[a]))
        } else {
            Op::insert(r, t(&[a, b]))
        };
        mon.apply(&Txn::new([op])).unwrap();
        assert_eq!(
            mon.verdict(crm).unwrap().status(),
            Status::Complete,
            "step {step}: insert-only admissible stream degraded Complete"
        );
    }
}
