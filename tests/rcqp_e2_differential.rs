//! Differential testing of the RCQP E2 search (Proposition 4.2): the
//! maximal-consistent-subset enumeration `rcqp` runs when `V` is not a set
//! of INDs.
//!
//! Every setting mixes an FD (compiled to CCs by `fd_to_ccs`) and one IND
//! with, at random, a CQ-bodied CC into master data and a denial, so no
//! decision can take the IND path (Proposition 4.3). Across `Engine::Naive`
//! and `Engine::Planned`:
//!
//! * verdicts are identical, witnesses included;
//! * every `Nonempty` witness is certified: an RCDP decision on it returns
//!   `Complete`;
//! * `rcqp.candidates` and `rcqp.e2_checks` are identical on every engine —
//!   the engines differ in how a candidate's consistency is checked, never
//!   in which subsets the search visits.
//!
//! The suite also counts the decisions that reached the E2 search (the
//! `rcqp.pool_size` gauge) and fails if fewer than 20 did, so it cannot
//! drift onto the fast paths unnoticed.

use ric::constraints::classical::Denial;
use ric::constraints::compile::{denial_to_cc, fd_to_ccs};
use ric::prelude::*;
use ric::SplitMix64;

/// `Work(emp, task)`, `Cert(emp, lvl)`.
fn schema() -> Schema {
    Schema::from_relations(vec![
        RelationSchema::infinite("Work", &["emp", "task"]),
        RelationSchema::infinite("Cert", &["emp", "lvl"]),
    ])
    .unwrap()
}

/// Queries whose heads the constraints may or may not bound.
fn query_pool() -> Vec<Query> {
    let s = schema();
    [
        "Q(E) :- Cert(E, L).",
        "Q(E) :- Cert(E, 0).",
        "Q(T) :- Work(E, T), Cert(E, 0).",
        "Q(E, T) :- Work(E, T), Cert(E, L).",
        "Q(E) :- Cert(E, L), Work(E, T).",
        "Q(E, L) :- Cert(E, L).",
        "Q(T) :- Work(E, T), Cert(E, L).",
        "Q(T) :- Work(0, T).",
    ]
    .iter()
    .map(|src| parse_cq(&s, src).unwrap().into())
    .collect()
}

/// A random non-IND setting: the FD `Work: emp → task`, the IND
/// `Cert[lvl] ⊆ Lvl`, usually a CQ-bodied CC into master data and, half the
/// time, a denial.
fn random_setting(rng: &mut SplitMix64) -> Setting {
    let s = schema();
    let work = s.rel_id("Work").unwrap();
    let cert = s.rel_id("Cert").unwrap();
    let m = Schema::from_relations(vec![
        RelationSchema::infinite("Lvl", &["lvl"]),
        RelationSchema::infinite("Emp", &["emp"]),
    ])
    .unwrap();
    let lvl = m.rel_id("Lvl").unwrap();
    let emp = m.rel_id("Emp").unwrap();
    let mut dm = Database::empty(&m);
    for v in 0..rng.random_range(1..3) as i64 {
        dm.insert(lvl, Tuple::new([Value::int(v)]));
    }
    if rng.random_bool(0.5) {
        dm.insert(emp, Tuple::new([Value::int(0)]));
    }
    let mut ccs = fd_to_ccs(&Fd::new(work, vec![0], vec![1]), &s);
    ccs.push(ContainmentConstraint::into_master(
        CcBody::Proj(Projection::new(cert, vec![1])),
        lvl,
        vec![0],
    ));
    if rng.random_bool(0.7) {
        let join = [
            "Q(E) :- Work(E, T), Cert(E, L).",
            "Q(T) :- Work(E, T), Cert(T, L).",
        ][rng.random_range(0..2)];
        ccs.push(ContainmentConstraint::into_master(
            CcBody::Cq(parse_cq(&s, join).unwrap()),
            emp,
            vec![0],
        ));
    }
    if rng.random_bool(0.5) {
        let pattern = [
            "Q() :- Work(E, T), Cert(E, 0).",
            "Q() :- Cert(E, L), Cert(E, M), L != M.",
        ][rng.random_range(0..2)];
        ccs.push(denial_to_cc(&Denial::new(parse_cq(&s, pattern).unwrap())));
    }
    Setting::new(s, m, dm, ConstraintSet::new(ccs))
}

/// One decision: its verdict, `rcqp.candidates`, `rcqp.e2_checks`, and
/// whether it reached the E2 search.
fn decide(
    setting: &Setting,
    q: &Query,
    fresh: usize,
    engine: Engine,
) -> (QueryVerdict, u64, u64, bool) {
    let budget = SearchBudget {
        fresh_values: fresh,
        max_candidates: 2_000,
        ..SearchBudget::default()
    }
    .with_engine(engine);
    let collector = Collector::new();
    let v = ric::complete::Request::new(setting)
        .budget(&budget)
        .probe(Probe::attached(&collector))
        .rcqp(q)
        .map(|o| o.verdict)
        .unwrap();
    let report = collector.report();
    (
        v,
        report.counter("rcqp.candidates"),
        report.counter("rcqp.e2_checks"),
        report.gauge("rcqp.pool_size").is_some(),
    )
}

#[test]
fn e2_search_agrees_across_engines() {
    let mut rng = SplitMix64::seed_from_u64(0xE2E2);
    let (mut searched, mut witnesses) = (0, 0);
    for round in 0..16 {
        let setting = random_setting(&mut rng);
        // One fresh value keeps the pool small enough for the search to run
        // to exhaustion; two make most searches stop on the candidate budget.
        let fresh = 1 + round % 2;
        for (qi, q) in query_pool().iter().enumerate() {
            let ctx = format!("round {round}, query {qi}");
            let (vn, cn, en, sn) = decide(&setting, q, fresh, Engine::Naive);
            let (vi, ci, ei, si) = decide(&setting, q, fresh, Engine::Planned);
            assert_eq!(vn, vi, "naive vs planned verdicts diverge ({ctx})");
            assert_eq!(
                (cn, en, sn),
                (ci, ei, si),
                "naive vs planned counters ({ctx})"
            );
            if let QueryVerdict::Nonempty { witness: Some(w) } = &vi {
                let budget = SearchBudget::default();
                assert_eq!(
                    rcdp(&setting, q, w, &budget).unwrap(),
                    Verdict::Complete,
                    "witness {w} is not certified complete ({ctx})"
                );
                witnesses += 1;
            }
            searched += usize::from(si);
        }
    }
    assert!(
        searched >= 20 && witnesses >= 1,
        "only {searched} decisions reached the E2 search and {witnesses} returned a \
         witness; the generator drifted"
    );
}
