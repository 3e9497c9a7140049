//! The paper's theorems as executable metamorphic properties.
//!
//! Four families, all driven by the in-tree deterministic [`SplitMix64`]
//! generator (no external property-testing crates — the build is offline):
//!
//! * **Monotone completeness.** If `D` is complete for `Q` relative to
//!   `(D_m, V)` and `D ∪ Δ` is still partially closed, then `D ∪ Δ` is
//!   complete too: any refuting extension of the larger database extends the
//!   smaller one as well. Adding entailed tuples must therefore never flip a
//!   `Complete` verdict to `Incomplete`.
//! * **C1–C4** (Proposition 3.3, Corollaries 3.4 and 3.5). The RCDP decider,
//!   through the [`characterize`] predicates — CQ (C1/C2), IND constraint
//!   sets (C3), UCQ (C4) — agrees with the doubly-exponential brute-force
//!   reference on tiny instances, under the planned *and* the naive
//!   engine.
//! * **RCQP witnesses.** A `Nonempty` answer carrying a witness database
//!   must hand back something checkable: the witness is partially closed and
//!   RCDP certifies it `Complete`.
//! * **Proposition 2.1.** Compiling FDs, CFDs, denial constraints, and INDs
//!   into containment constraints preserves (a) per-database satisfaction
//!   and (b) RCDP verdicts: a counterexample found under the compiled
//!   setting is classically consistent yet changes the answer, and when the
//!   decider says `Complete`, brute-force search with the *classical*
//!   predicates finds no refutation either.
//!
//! [`characterize`]: ric::complete::characterize

use ric::complete::characterize::{
    bounded_database_cq, bounded_database_ind, bounded_database_ucq, brute_force_complete,
};
use ric::complete::rcdp::certify_counterexample;
use ric::constraints::classical::at_most_k_per_key;
use ric::constraints::compile::{cfd_to_ccs, denial_to_cc, fd_to_ccs, ind_to_cc};
use ric::prelude::*;
use ric::SplitMix64;

/// Fixed two-relation schema for the generators: `R(a, b)`, `S(a)`.
fn schema() -> Schema {
    Schema::from_relations(vec![
        RelationSchema::infinite("R", &["a", "b"]),
        RelationSchema::infinite("S", &["a"]),
    ])
    .unwrap()
}

/// The master schema used by every setting here: `M(a)`, `N(a)`.
fn master_schema() -> Schema {
    Schema::from_relations(vec![
        RelationSchema::infinite("M", &["a"]),
        RelationSchema::infinite("N", &["a"]),
    ])
    .unwrap()
}

/// A random database over `schema()` with values drawn from `0..vals`.
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

/// A random master database over `master_schema()` with values in `0..vals`.
fn random_masters(rng: &mut SplitMix64, vals: i64) -> Database {
    let m = master_schema();
    let mrel = m.rel_id("M").unwrap();
    let nrel = m.rel_id("N").unwrap();
    let mut dm = Database::empty(&m);
    for v in 0..vals {
        if rng.random_bool(0.7) {
            dm.insert(mrel, Tuple::new([Value::int(v)]));
        }
        if rng.random_bool(0.7) {
            dm.insert(nrel, Tuple::new([Value::int(v)]));
        }
    }
    dm
}

/// An IND-only setting: `R[0] ⊆ M`, `S[0] ⊆ N`, with random master data
/// over `0..vals`. `V` is a set of INDs, so C3 applies.
fn ind_setting(rng: &mut SplitMix64, vals: i64) -> Setting {
    let s = schema();
    let r = s.rel_id("R").unwrap();
    let srel = s.rel_id("S").unwrap();
    let m = master_schema();
    let mrel = m.rel_id("M").unwrap();
    let nrel = m.rel_id("N").unwrap();
    let dm = random_masters(rng, vals);
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

/// CQs exercising joins, constants, self-joins, and inequalities.
fn cq_pool() -> Vec<Cq> {
    let s = schema();
    [
        "Q(X) :- R(X, Y).",
        "Q(X, Z) :- R(X, Y), R(Y, Z).",
        "Q(X) :- R(X, Y), S(Y).",
        "Q(X, Y) :- R(X, Y), X != Y.",
        "Q(X) :- R(X, 3).",
        "Q() :- R(1, X), S(X).",
        "Q(Y) :- R(X, Y), R(Y, X), S(X).",
    ]
    .iter()
    .map(|src| parse_cq(&s, src).unwrap())
    .collect()
}

/// Constant-light CQs whose active domain stays tiny — small enough for the
/// doubly-exponential brute-force reference.
fn tiny_cq_pool() -> Vec<Cq> {
    let s = schema();
    [
        "Q(X) :- R(X, Y).",
        "Q(X) :- R(X, Y), S(Y).",
        "Q(X, Y) :- R(X, Y), X != Y.",
        "Q() :- R(0, X), S(X).",
    ]
    .iter()
    .map(|src| parse_cq(&s, src).unwrap())
    .collect()
}

/// The largest database the INDs of [`ind_setting`] permit over a small
/// co-domain: `R = M × {0, 1}`, `S = N`.
fn saturated_db(setting: &Setting) -> Database {
    let s = schema();
    let r = s.rel_id("R").unwrap();
    let srel = s.rel_id("S").unwrap();
    let m = master_schema();
    let mrel = m.rel_id("M").unwrap();
    let nrel = m.rel_id("N").unwrap();
    let mut db = Database::empty(&s);
    for t in setting.dm.instance(mrel).iter() {
        for b in 0..2 {
            db.insert(r, Tuple::new([t.get(0).clone(), Value::int(b)]));
        }
    }
    for t in setting.dm.instance(nrel).iter() {
        db.insert(srel, Tuple::new([t.get(0).clone()]));
    }
    db
}

/// Random tuples the INDs of [`ind_setting`] entail are harmless: `R` first
/// columns come from master `M`, `S` values from master `N`, the free `R`
/// column from `0..8`. `None` when the masters are empty.
fn entailed_delta(rng: &mut SplitMix64, setting: &Setting) -> Option<Database> {
    let s = schema();
    let r = s.rel_id("R").unwrap();
    let srel = s.rel_id("S").unwrap();
    let m = master_schema();
    let mrel = m.rel_id("M").unwrap();
    let nrel = m.rel_id("N").unwrap();
    let m_vals: Vec<Value> = setting
        .dm
        .instance(mrel)
        .iter()
        .map(|t| t.get(0).clone())
        .collect();
    let n_vals: Vec<Value> = setting
        .dm
        .instance(nrel)
        .iter()
        .map(|t| t.get(0).clone())
        .collect();
    if m_vals.is_empty() && n_vals.is_empty() {
        return None;
    }
    let mut delta = Database::empty(&s);
    if !m_vals.is_empty() {
        for _ in 0..rng.random_range(1..4) {
            let a = m_vals[rng.random_range(0..m_vals.len())].clone();
            let b = Value::int(rng.random_range(0..8) as i64);
            delta.insert(r, Tuple::new([a, b]));
        }
    }
    if !n_vals.is_empty() {
        for _ in 0..rng.random_range(0..3) {
            let a = n_vals[rng.random_range(0..n_vals.len())].clone();
            delta.insert(srel, Tuple::new([a]));
        }
    }
    Some(delta)
}

/// Metamorphic monotonicity: growing a complete database by tuples that keep
/// it partially closed can never make it incomplete — a counterexample for
/// the grown database would extend the original one too.
#[test]
fn adding_entailed_tuples_never_flips_complete_to_incomplete() {
    let mut rng = SplitMix64::seed_from_u64(0xA11CE);
    let budget = SearchBudget::default();
    let mut grown = 0usize;
    for round in 0..150 {
        let setting = ind_setting(&mut rng, 5);
        // Alternate random databases with master-saturated ones (every
        // `R`/`S` tuple the INDs permit over a tiny co-domain), which are
        // complete much more often.
        let db = if round % 2 == 0 {
            random_db(&mut rng, 5, 4, 3)
        } else {
            saturated_db(&setting)
        };
        if !setting.partially_closed(&db).unwrap() {
            continue;
        }
        for cq in cq_pool() {
            let q: Query = cq.into();
            if rcdp(&setting, &q, &db, &budget).unwrap() != Verdict::Complete {
                continue;
            }
            // Δ: tuples whose constrained columns are drawn from the master
            // data, so the setting entails the union stays partially closed.
            let Some(delta) = entailed_delta(&mut rng, &setting) else {
                continue;
            };
            let bigger = db.union(&delta).unwrap();
            assert!(setting.partially_closed(&bigger).unwrap());
            // Since db is complete and bigger is a valid extension, the
            // answer cannot have changed...
            assert_eq!(q.eval(&bigger).unwrap(), q.eval(&db).unwrap());
            // ...and completeness itself must be preserved.
            let v2 = rcdp(&setting, &q, &bigger, &budget).unwrap();
            assert!(
                !matches!(v2, Verdict::Incomplete(_)),
                "adding entailed tuples flipped Complete to Incomplete:\n\
                 db = {db}\nbigger = {bigger}\nverdict = {v2}"
            );
            grown += 1;
        }
    }
    assert!(grown >= 20, "only {grown} grown instances exercised");
}

/// C1–C4: the decider (planned and naive) agrees with the brute-force
/// reference wherever the reference is feasible.
#[test]
fn characterizations_agree_with_brute_force_reference() {
    let mut rng = SplitMix64::seed_from_u64(0xC1C4);
    let budget = SearchBudget::default();
    let naive = SearchBudget::default().with_engine(Engine::Naive);
    let s = schema();
    let mut compared = 0usize;
    let mut complete_seen = 0usize;
    let mut incomplete_seen = 0usize;
    for _ in 0..25 {
        // Domain {0, 1} keeps the candidate pool within brute-force reach.
        let setting = ind_setting(&mut rng, 2);
        let db = random_db(&mut rng, 2, 3, 2);
        if !setting.partially_closed(&db).unwrap() {
            continue;
        }
        for cq in tiny_cq_pool() {
            let query = Query::Cq(cq.clone());
            let Some(expected) = brute_force_complete(&setting, &query, &db, 1, 12).unwrap() else {
                continue;
            };
            // C1/C2 (CQ), C3 (V is a set of INDs), and the naive engine
            // must all reproduce the reference bit.
            assert_eq!(
                bounded_database_cq(&setting, &cq, &db, &budget).unwrap(),
                Some(expected),
                "C1/C2 disagree with brute force on {db}"
            );
            assert_eq!(
                bounded_database_ind(&setting, &cq, &db, &budget).unwrap(),
                Some(expected),
                "C3 disagrees with brute force on {db}"
            );
            assert_eq!(
                bounded_database_cq(&setting, &cq, &db, &naive).unwrap(),
                Some(expected),
                "naive C1/C2 disagree with brute force on {db}"
            );
            compared += 1;
            if expected {
                complete_seen += 1;
            } else {
                incomplete_seen += 1;
            }
        }
        // C4: a genuinely disjunctive UCQ.
        let u = parse_ucq(&s, "Q(X) :- R(X, Y). Q(X) :- S(X).").unwrap();
        let query = Query::Ucq(u.clone());
        if let Some(expected) = brute_force_complete(&setting, &query, &db, 1, 12).unwrap() {
            assert_eq!(
                bounded_database_ucq(&setting, &u, &db, &budget).unwrap(),
                Some(expected),
                "C4 disagrees with brute force on {db}"
            );
            assert_eq!(
                bounded_database_ucq(&setting, &u, &db, &naive).unwrap(),
                Some(expected),
                "naive C4 disagrees with brute force on {db}"
            );
            compared += 1;
        }
    }
    assert!(compared >= 20, "only {compared} instances compared");
    assert!(
        complete_seen >= 3 && incomplete_seen >= 3,
        "verdict mix too lopsided: {complete_seen} complete, {incomplete_seen} incomplete"
    );
}

/// RCQP "yes" instances must come with a checkable certificate: the witness
/// is partially closed and RCDP declares it complete.
#[test]
fn rcqp_yes_instances_admit_a_checkable_witness() {
    let mut rng = SplitMix64::seed_from_u64(0x9C9);
    let budget = SearchBudget::default();
    let mut witnessed = 0usize;
    for _ in 0..30 {
        let setting = ind_setting(&mut rng, 5);
        for cq in cq_pool() {
            let q: Query = cq.into();
            if let QueryVerdict::Nonempty { witness: Some(w) } =
                rcqp(&setting, &q, &budget).unwrap()
            {
                assert!(
                    setting.partially_closed(&w).unwrap(),
                    "witness is not partially closed: {w}"
                );
                assert_eq!(
                    rcdp(&setting, &q, &w, &budget).unwrap(),
                    Verdict::Complete,
                    "witness is not certified complete: {w}"
                );
                witnessed += 1;
            }
        }
    }
    assert!(witnessed >= 10, "only {witnessed} witnesses checked");
}

/// Proposition 2.1(a–c), satisfaction half: a database satisfies the
/// classical constraint iff it satisfies the compiled containment
/// constraints.
#[test]
fn prop21_compilation_preserves_satisfaction() {
    let mut rng = SplitMix64::seed_from_u64(0x21A);
    let s = schema();
    let r = s.rel_id("R").unwrap();
    let srel = s.rel_id("S").unwrap();
    let m = master_schema();
    let mrel = m.rel_id("M").unwrap();

    let fd = Fd::new(r, vec![0], vec![1]);
    let cfd = Cfd {
        rel: r,
        lhs: vec![0],
        rhs: vec![1],
        lhs_pattern: vec![(0, Value::int(1))],
        rhs_pattern: vec![(1, Value::int(2))],
    };
    // "Each R key carries at most one distinct value" as a denial pattern.
    let denial = at_most_k_per_key(r, 0, 1, 1, 2);
    let ind_master = IndCc::new(r, vec![0], mrel, vec![0]);
    let ind_empty = IndCc {
        rel: srel,
        cols: vec![0],
        master: None,
    };

    let fd_cs = ConstraintSet::new(fd_to_ccs(&fd, &s));
    let cfd_cs = ConstraintSet::new(cfd_to_ccs(&cfd, &s));
    let denial_cs = ConstraintSet::new(vec![denial_to_cc(&denial)]);
    let ind_master_cc = ind_to_cc(&ind_master);
    let ind_empty_cc = ind_to_cc(&ind_empty);

    let mut violations_seen = [0usize; 5];
    for _ in 0..250 {
        let dm = random_masters(&mut rng, 4);
        let db = random_db(&mut rng, 4, 5, 3);
        let cases: [(usize, bool, bool); 5] = [
            (0, fd.satisfied(&db), fd_cs.satisfied(&db, &dm).unwrap()),
            (1, cfd.satisfied(&db), cfd_cs.satisfied(&db, &dm).unwrap()),
            (
                2,
                denial.satisfied(&db),
                denial_cs.satisfied(&db, &dm).unwrap(),
            ),
            (
                3,
                ind_master.satisfied(&db, &dm),
                ind_master_cc.satisfied(&db, &dm).unwrap(),
            ),
            (
                4,
                ind_empty.satisfied(&db, &dm),
                ind_empty_cc.satisfied(&db, &dm).unwrap(),
            ),
        ];
        for (i, classical, compiled) in cases {
            assert_eq!(
                classical, compiled,
                "compilation {i} changed satisfaction on {db}"
            );
            if !classical {
                violations_seen[i] += 1;
            }
        }
    }
    // Every compilation must have been exercised on violating databases too,
    // or the equivalence check is vacuous.
    for (i, &violations) in violations_seen.iter().enumerate() {
        assert!(
            violations >= 5,
            "compilation {i}: only {violations} violations seen"
        );
    }
}

/// Brute-force refutation search *in classical terms*: enumerate every
/// extension of `db` by `R`/`S` tuples over `values`, keep the ones the
/// classical predicate accepts, and look for one that changes the answer.
fn classical_refutation_exists(
    q: &Query,
    db: &Database,
    values: &[Value],
    valid: &dyn Fn(&Database) -> bool,
) -> bool {
    let s = schema();
    let r = s.rel_id("R").unwrap();
    let srel = s.rel_id("S").unwrap();
    let mut pool: Vec<(RelId, Tuple)> = Vec::new();
    for a in values {
        for b in values {
            pool.push((r, Tuple::new([a.clone(), b.clone()])));
        }
        pool.push((srel, Tuple::new([a.clone()])));
    }
    assert!(pool.len() <= 16, "classical brute force pool too large");
    let q_d = q.eval(db).unwrap();
    for mask in 1u64..(1u64 << pool.len()) {
        let mut ext = db.clone();
        for (i, (rel, t)) in pool.iter().enumerate() {
            if mask & (1 << i) != 0 {
                ext.insert(*rel, t.clone());
            }
        }
        if valid(&ext) && q.eval(&ext).unwrap() != q_d {
            return true;
        }
    }
    false
}

/// Proposition 2.1, verdict half: deciding completeness under the *compiled*
/// setting matches the definition spelled out with the *classical*
/// constraints. `Incomplete` counterexamples are classically consistent and
/// change the answer; `Complete` verdicts survive a brute-force refutation
/// search driven by the classical predicates.
#[test]
fn prop21_compilation_preserves_verdicts() {
    let mut rng = SplitMix64::seed_from_u64(0x21B);
    let budget = SearchBudget::default();
    let s = schema();
    let r = s.rel_id("R").unwrap();
    let m = master_schema();
    let mrel = m.rel_id("M").unwrap();
    // Values {0, 1} plus one fresh value: 9 + 3 = 12 candidate tuples per
    // brute-force run — small enough to enumerate all extensions, and by
    // the small-model property enough to witness any incompleteness.
    let values: Vec<Value> = vec![Value::int(0), Value::int(1), Value::int(97)];

    let fd = Fd::new(r, vec![0], vec![1]);
    let denial = at_most_k_per_key(r, 0, 1, 1, 2);
    let ind = IndCc::new(r, vec![0], mrel, vec![0]);

    let mut decided = 0usize;
    let mut refuted = 0usize;
    for round in 0..30 {
        let dm = random_masters(&mut rng, 2);
        let db = random_db(&mut rng, 2, 3, 2);

        // Two compiled settings: master IND + FD, and master IND + denial.
        type ClassicalPred = Box<dyn Fn(&Database) -> bool>;
        let classical: [(Vec<ContainmentConstraint>, ClassicalPred); 2] = [
            (
                {
                    let mut ccs = vec![ind_to_cc(&ind)];
                    ccs.extend(fd_to_ccs(&fd, &s));
                    ccs
                },
                {
                    let (fd, ind, dm) = (fd.clone(), ind.clone(), dm.clone());
                    Box::new(move |ext: &Database| fd.satisfied(ext) && ind.satisfied(ext, &dm))
                },
            ),
            (vec![ind_to_cc(&ind), denial_to_cc(&denial)], {
                let (denial, ind, dm) = (denial.clone(), ind.clone(), dm.clone());
                Box::new(move |ext: &Database| denial.satisfied(ext) && ind.satisfied(ext, &dm))
            }),
        ];
        for (ci, (ccs, valid)) in classical.into_iter().enumerate() {
            let setting = Setting::new(s.clone(), m.clone(), dm.clone(), ConstraintSet::new(ccs));
            if !setting.partially_closed(&db).unwrap() {
                continue;
            }
            for cq in tiny_cq_pool() {
                let q: Query = cq.into();
                match rcdp(&setting, &q, &db, &budget).unwrap() {
                    Verdict::Complete => {
                        assert!(
                            !classical_refutation_exists(&q, &db, &values, valid.as_ref()),
                            "round {round}, constraint {ci}: decider says Complete \
                             but a classical refutation exists for {db}"
                        );
                        decided += 1;
                    }
                    Verdict::Incomplete(ce) => {
                        let ext = db.union(&ce.delta).unwrap();
                        assert!(
                            valid(&ext),
                            "round {round}, constraint {ci}: counterexample \
                             violates the classical constraints: {ext}"
                        );
                        assert_ne!(
                            q.eval(&ext).unwrap(),
                            q.eval(&db).unwrap(),
                            "round {round}, constraint {ci}: counterexample \
                             does not change the answer"
                        );
                        assert!(
                            certify_counterexample(&setting, &q, &db, &ce).unwrap(),
                            "round {round}, constraint {ci}: counterexample \
                             fails its own certification"
                        );
                        decided += 1;
                        refuted += 1;
                    }
                    Verdict::Unknown { .. } => {}
                }
            }
        }
    }
    assert!(decided >= 30, "only {decided} decided instances");
    assert!(
        refuted >= 5,
        "only {refuted} incomplete instances exercised"
    );
}
