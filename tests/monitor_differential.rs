//! Differential testing of the streaming monitor: after **every**
//! transaction in a randomized K-txn stream, each registered setting's
//! incremental verdict must equal a from-scratch prepared decision on the
//! materialized database.
//!
//! This pins every fast path the [`Monitor`] takes — footprint skips,
//! net-change coalescing, incremental partial closure, Complete
//! monotonicity, counterexample re-certification, the exact one-step undo,
//! frontier resumption — to the ground truth it is supposed to shortcut.
//! Equality means:
//!
//! * `NotPartiallyClosed` on the monitor ⇔ the from-scratch decision
//!   rejects the input with [`RcError::NotPartiallyClosed`];
//! * `Complete`/`Unknown` agree by kind (budgets are ample and identical,
//!   so `Unknown` only arises deterministically, if at all);
//! * `Incomplete` agrees by kind and **both** counterexamples certify
//!   against the current state (the `engine_differential.rs` precedent:
//!   witnesses are engine-dependent, certification is not).
//!
//! The matrix crosses `Engine::Planned` (four seeds) and `Engine::Naive`
//! (one seed) with the `RIC_TXN_BATCH` (default both 1 and 8) environment
//! knob the CI harness sweeps. Every case fixes its seed, so a failure
//! reproduces exactly.

use ric::complete::rcdp::certify_counterexample;
use ric::prelude::*;
use ric::{Monitor, Op, SettingId, SettingVerdict, Txn};
use ric::{RcError, SplitMix64};

fn schema() -> Schema {
    Schema::from_relations(vec![
        RelationSchema::infinite("R", &["a", "b"]),
        RelationSchema::infinite("S", &["a"]),
    ])
    .unwrap()
}

fn master_schema() -> Schema {
    Schema::from_relations(vec![
        RelationSchema::infinite("M", &["b"]),
        RelationSchema::infinite("W", &["a"]),
    ])
    .unwrap()
}

fn t(vs: &[i64]) -> Tuple {
    Tuple::new(vs.iter().map(|&v| Value::int(v)))
}

/// Initial master data: `M = {0, 1, 2}`, `W = {0, 1, 2, 3}`.
fn dm() -> Database {
    let ms = master_schema();
    let m = ms.rel_id("M").unwrap();
    let w = ms.rel_id("W").unwrap();
    let mut dm = Database::empty(&ms);
    for b in 0..3 {
        dm.insert(m, t(&[b]));
    }
    for a in 0..4 {
        dm.insert(w, t(&[a]));
    }
    dm
}

/// The registered settings: `(name, V, Q)` triples spanning upper bounds on
/// both relations, a join query reaching outside the constrained relation,
/// and a Section 5 lower bound.
fn settings() -> Vec<(&'static str, ConstraintSet, Query)> {
    let s = schema();
    let ms = master_schema();
    let m = ms.rel_id("M").unwrap();
    let w = ms.rel_id("W").unwrap();
    let r_proj = || CcBody::Cq(parse_cq(&s, "Q(B) :- R(A, B).").unwrap());
    let s_proj = || CcBody::Cq(parse_cq(&s, "Q(A) :- S(A).").unwrap());
    let both = || {
        ConstraintSet::new(vec![
            ContainmentConstraint::into_master(r_proj(), m, vec![0]),
            ContainmentConstraint::into_master(s_proj(), w, vec![0]),
        ])
    };
    let mut with_lower = both();
    with_lower.push_lower_bound(LowerBound {
        master: Projection::new(m, vec![0]),
        body: r_proj(),
    });
    vec![
        (
            "crm",
            ConstraintSet::new(vec![ContainmentConstraint::into_master(
                r_proj(),
                m,
                vec![0],
            )]),
            Query::Cq(parse_cq(&s, "Q(B) :- R(A, B).").unwrap()),
        ),
        (
            "join",
            both(),
            Query::Cq(parse_cq(&s, "Q(X) :- R(X, Y), S(Y).").unwrap()),
        ),
        (
            "s-watch",
            ConstraintSet::new(vec![ContainmentConstraint::into_master(
                s_proj(),
                w,
                vec![0],
            )]),
            Query::Cq(parse_cq(&s, "Q(A) :- S(A).").unwrap()),
        ),
        (
            "covering",
            with_lower,
            Query::Cq(parse_cq(&s, "Q(B) :- R(A, B).").unwrap()),
        ),
    ]
}

/// A random transaction: `batch` ops over `R`, `S`, and (rarely) master
/// `M`, mixing inserts with deletes of plausibly present tuples.
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
        match rng.random_range(0..12) {
            0..=4 => ops.push(Op::insert(r, t(&[a, b]))),
            5..=6 => ops.push(Op::insert(srel, t(&[a]))),
            7..=8 => ops.push(Op::delete(r, t(&[a, b]))),
            9 => ops.push(Op::delete(srel, t(&[a]))),
            10 => ops.push(Op::master_insert(m, t(&[b]))),
            _ => ops.push(Op::master_delete(m, t(&[3]))),
        }
    }
    Txn::new(ops)
}

/// From-scratch ground truth for one setting on the monitor's materialized
/// state: build the setting fresh from the *current* master data, prepare,
/// decide.
fn ground_truth(
    v: &ConstraintSet,
    query: &Query,
    db: &Database,
    dm: &Database,
    budget: &SearchBudget,
) -> Result<Verdict, RcError> {
    let setting = Setting::new(schema(), master_schema(), dm.clone(), v.clone());
    let prepared = prepare(&setting, db, budget.engine)?;
    Request::new(&prepared)
        .budget(budget)
        .rcdp(query, db)
        .map(|d| d.verdict)
        .map_err(|e| match e {
            DecisionError::Rc(e) => e,
            other => panic!("decision must not panic: {other:?}"),
        })
}

/// Assert one monitored verdict equals the from-scratch one.
#[allow(clippy::too_many_arguments)]
fn assert_matches_ground_truth(
    name: &str,
    monitored: &SettingVerdict,
    v: &ConstraintSet,
    query: &Query,
    db: &Database,
    dm: &Database,
    budget: &SearchBudget,
    ctx: &str,
) {
    let fresh = ground_truth(v, query, db, dm, budget);
    match (monitored, fresh) {
        (SettingVerdict::NotPartiallyClosed, Err(RcError::NotPartiallyClosed)) => {}
        (SettingVerdict::Decided(inc), Ok(fresh)) => match (inc, &fresh) {
            (Verdict::Complete, Verdict::Complete) => {}
            (Verdict::Unknown { stats: a }, Verdict::Unknown { stats: b }) => {
                assert_eq!(a.limit, b.limit, "[{name}] {ctx}: Unknown limits differ");
            }
            (Verdict::Incomplete(ce_inc), Verdict::Incomplete(ce_fresh)) => {
                let setting = Setting::new(schema(), master_schema(), dm.clone(), v.clone());
                assert!(
                    certify_counterexample(&setting, query, db, ce_inc).unwrap_or(false),
                    "[{name}] {ctx}: incremental counterexample fails to certify"
                );
                assert!(
                    certify_counterexample(&setting, query, db, ce_fresh).unwrap_or(false),
                    "[{name}] {ctx}: fresh counterexample fails to certify"
                );
            }
            (a, b) => panic!("[{name}] {ctx}: incremental {a:?} vs fresh {b:?}"),
        },
        (mon, fresh) => panic!("[{name}] {ctx}: incremental {mon:?} vs fresh {fresh:?}"),
    }
}

fn batches() -> Vec<usize> {
    match std::env::var("RIC_TXN_BATCH")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(b) if b >= 1 => vec![b],
        _ => vec![1, 8],
    }
}

/// Drive one seeded stream under one engine, checking every setting against
/// ground truth after every transaction.
fn run_stream(engine: Engine, seed: u64, txns: usize, batch: usize) {
    let budget = SearchBudget {
        engine,
        ..SearchBudget::default()
    };
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut mon = Monitor::new(schema(), master_schema(), dm(), budget).unwrap();
    let defs = settings();
    let ids: Vec<SettingId> = defs
        .iter()
        .map(|(name, v, q)| mon.register(*name, v.clone(), q.clone()).unwrap())
        .collect();

    // Registration itself must already agree.
    for (id, (name, v, q)) in ids.iter().zip(&defs) {
        assert_matches_ground_truth(
            name,
            mon.verdict(*id).unwrap(),
            v,
            q,
            mon.db(),
            mon.dm(),
            &budget,
            "at registration",
        );
    }

    for k in 0..txns {
        let txn = random_txn(&mut rng, batch);
        mon.apply(&txn).unwrap();
        for (id, (name, v, q)) in ids.iter().zip(&defs) {
            let ctx = format!("seed {seed:#x}, txn {k}, batch {batch}, engine {engine}");
            assert_matches_ground_truth(
                name,
                mon.verdict(*id).unwrap(),
                v,
                q,
                mon.db(),
                mon.dm(),
                &budget,
                &ctx,
            );
        }
    }
}

#[test]
fn indexed_stream_matches_from_scratch() {
    for (i, seed) in [0xA11CE, 0xB0B, 0xD1FF].into_iter().enumerate() {
        for &batch in &batches() {
            run_stream(Engine::Planned, seed + i as u64, 18, batch);
        }
    }
}

#[test]
fn planned_stream_matches_from_scratch() {
    for &batch in &batches() {
        run_stream(Engine::Planned, 0x91A, 18, batch);
    }
}

#[test]
fn naive_stream_matches_from_scratch() {
    for &batch in &batches() {
        run_stream(Engine::Naive, 0xFA9, 18, batch);
    }
}

/// Verdict identity is also preserved when one stream is applied through a
/// monitor and the same net state is loaded in one shot into a second
/// monitor: path independence of the final verdicts.
#[test]
fn final_verdicts_are_path_independent() {
    let budget = SearchBudget::default();
    let mut rng = SplitMix64::seed_from_u64(0x5EED);
    let mut streamed = Monitor::new(schema(), master_schema(), dm(), budget).unwrap();
    let defs = settings();
    for (name, v, q) in &defs {
        streamed.register(*name, v.clone(), q.clone()).unwrap();
    }
    for _ in 0..25 {
        let txn = random_txn(&mut rng, 3);
        streamed.apply(&txn).unwrap();
    }

    // Load the exact final state into a fresh monitor in one transaction.
    let mut oneshot = Monitor::new(schema(), master_schema(), dm(), budget).unwrap();
    let ids: Vec<SettingId> = defs
        .iter()
        .map(|(name, v, q)| oneshot.register(*name, v.clone(), q.clone()).unwrap())
        .collect();
    let mut ops = Vec::new();
    for (rel, inst) in streamed.db().iter() {
        for tup in inst.iter() {
            ops.push(Op::insert(rel, tup.clone()));
        }
    }
    let initial = dm();
    for (rel, inst) in streamed.dm().iter() {
        for tup in inst.iter() {
            if !initial.instance(rel).contains(tup) {
                ops.push(Op::master_insert(rel, tup.clone()));
            }
        }
        for tup in initial.instance(rel).iter() {
            if !inst.contains(tup) {
                ops.push(Op::master_delete(rel, tup.clone()));
            }
        }
    }
    oneshot.apply(&Txn::new(ops)).unwrap();

    assert_eq!(oneshot.db(), streamed.db());
    assert_eq!(oneshot.dm(), streamed.dm());
    for (id, (name, _, _)) in ids.iter().zip(&defs) {
        assert_eq!(
            oneshot.verdict(*id).unwrap().status(),
            streamed.verdict(*id).unwrap().status(),
            "[{name}] streamed vs one-shot status"
        );
    }
}
