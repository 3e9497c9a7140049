//! Differential testing of checkpoint/resume: a decision completed in K
//! installments must be verdict-, witness-, and counter-identical to one
//! uninterrupted run, on every engine and from every request source (plain,
//! analyzed, prepared, reasoned).
//!
//! The schedule: measure the ticks T an uninterrupted decision needs from
//! the source, then run installments at budgets `ceil(T·i/K)` (i = 1..K-1,
//! each dying on its meter and capturing a checkpoint) and finish at the
//! full budget. Three identities are pinned for every installment i with
//! budget `b_i`:
//!
//! * the resumed installment equals a fresh run from the same source at
//!   `b_i` — same verdict (including the `Unknown` detail string and stats),
//!   same scoped decision counters;
//! * from the analyzed and prepared sources, both equal the plain source at
//!   `b_i` (the reasoned source searches a minimized constraint set, so it
//!   is pinned to the plain source's verdict kind at full budget only);
//! * the checkpoint handed to installment i+1 survives a JSON round-trip
//!   (serialize → parse → resume), so resuming across a process boundary
//!   behaves identically to resuming in-memory.
//!
//! Counter scope: the decision-level work counters, plus the exact path's
//! `valuations.max_depth` gauge, derived from the summed per-depth profile.
//!
//! `RIC_RESUME_K` (comma-separated, default `2,5`) picks the installment
//! counts; the CI matrix drives it.

use std::collections::BTreeMap;

use ric::prelude::*;
use ric::reductions::two_head_dfa::{to_rcdp_instance, TwoHeadDfa};
use ric::reductions::{rcqp_conp, sat};
use ric::{Frontier, SplitMix64};

// ---------------------------------------------------------------------------
// Instances
// ---------------------------------------------------------------------------

fn schema() -> Schema {
    Schema::from_relations(vec![
        RelationSchema::infinite("R", &["a", "b"]),
        RelationSchema::infinite("S", &["a"]),
    ])
    .unwrap()
}

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

fn random_setting(rng: &mut SplitMix64) -> Setting {
    let s = schema();
    let r = s.rel_id("R").unwrap();
    let srel = s.rel_id("S").unwrap();
    let m = Schema::from_relations(vec![
        RelationSchema::infinite("M", &["a"]),
        RelationSchema::infinite("N", &["a"]),
    ])
    .unwrap();
    let mrel = m.rel_id("M").unwrap();
    let nrel = m.rel_id("N").unwrap();
    let mut dm = Database::empty(&m);
    for v in 0..5 {
        if rng.random_bool(0.7) {
            dm.insert(mrel, Tuple::new([Value::int(v)]));
        }
        if rng.random_bool(0.7) {
            dm.insert(nrel, Tuple::new([Value::int(v)]));
        }
    }
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

fn cq_pool() -> Vec<Cq> {
    let s = schema();
    [
        "Q(X) :- R(X, Y).",
        "Q(X, Z) :- R(X, Y), R(Y, Z).",
        "Q(X) :- R(X, Y), S(Y).",
        "Q(Y) :- R(X, Y), R(Y, X), S(X).",
    ]
    .iter()
    .map(|src| parse_cq(&s, src).unwrap())
    .collect()
}

/// An FP query over the two-head DFA reduction, forcing the bounded
/// semi-decision with enough metered candidates to split into installments.
fn fp_bounded_instance() -> (Setting, Query, Database) {
    to_rcdp_instance(&TwoHeadDfa::ones())
}

/// The candidate-bounded budget the bounded cells run under (the Table I
/// (FP, CQ) shape the benches use).
fn fp_bounded_budget() -> SearchBudget {
    SearchBudget {
        max_delta_tuples: 3,
        fresh_values: 2,
        max_candidates: 500_000,
        ..SearchBudget::default()
    }
}

/// An RCQP instance hard enough that a starved budget genuinely checkpoints:
/// the 3SAT coNP reduction at the largest Table II cell size.
fn rcqp_instance() -> (Setting, Query) {
    let mut rng = SplitMix64::seed_from_u64(13);
    let phi = sat::Cnf::random_3sat(8, 34, &mut rng);
    rcqp_conp::to_rcqp_instance(&phi)
}

// ---------------------------------------------------------------------------
// Matrix + scoped counters
// ---------------------------------------------------------------------------

fn installment_counts() -> Vec<u64> {
    match std::env::var("RIC_RESUME_K") {
        Ok(spec) => spec
            .split(',')
            .map(|k| k.trim().parse().expect("RIC_RESUME_K must be integers"))
            .collect(),
        Err(_) => vec![2, 5],
    }
}

fn engines() -> [Engine; 2] {
    [Engine::Naive, Engine::Planned]
}

/// Decision-level counters (and the depth gauge) compared bit-identically on
/// the exact path.
const EXACT_COUNTERS: [&str; 6] = [
    "rcdp.valuations",
    "rcdp.cc_checks",
    "cc.skipped_by_delta",
    "index.probe",
    "valuations.assignments",
    "valuations.max_depth",
];

/// Decision-level counters compared on the bounded path.
const BOUNDED_COUNTERS: [&str; 5] = [
    "semidecide.candidates",
    "semidecide.cc_checks",
    "semidecide.query_evals",
    "cc.skipped_by_delta",
    "index.probe",
];

fn scoped(report: &Report, names: &[&'static str]) -> BTreeMap<&'static str, u64> {
    names
        .iter()
        .filter_map(|&n| {
            report
                .counters
                .get(n)
                .or_else(|| report.gauges.get(n))
                .map(|&v| (n, v))
        })
        .collect()
}

struct Observed {
    verdict: Verdict,
    counters: BTreeMap<&'static str, u64>,
    checkpoint: Option<Checkpoint>,
}

/// What a facade request decides against: every source is resumable.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Src {
    Plain,
    Analyzed,
    Prepared,
    Reasoned,
}

const SOURCES: [Src; 4] = [Src::Plain, Src::Analyzed, Src::Prepared, Src::Reasoned];

/// One decision's inputs with the prepared and reasoned sources compiled
/// for the budget's engine.
struct Subject<'a> {
    setting: &'a Setting,
    q: &'a Query,
    db: &'a Database,
    prepared: PreparedSetting,
    reasoned: ReasonedSetting,
}

impl<'a> Subject<'a> {
    fn new(setting: &'a Setting, q: &'a Query, db: &'a Database, base: &SearchBudget) -> Self {
        Subject {
            setting,
            q,
            db,
            prepared: ric::prepare(setting, db, base.engine).expect("preparation"),
            reasoned: ReasonedSetting::prepare(setting, q, db, base.engine, base)
                .expect("reasoned preparation"),
        }
    }

    fn request(&self, src: Src) -> Request<'_> {
        match src {
            Src::Plain => Request::new(self.setting),
            Src::Analyzed => Request::analyzed(self.setting),
            Src::Prepared => Request::new(&self.prepared),
            Src::Reasoned => Request::new(&self.reasoned),
        }
    }

    /// One run from `src` under a collector, scoped to `names`.
    fn run(
        &self,
        src: Src,
        budget: &SearchBudget,
        prior: Option<&Checkpoint>,
        names: &[&'static str],
    ) -> Observed {
        let collector = Collector::new();
        let d = self
            .request(src)
            .budget(budget)
            .probe(Probe::attached(&collector))
            .resume(prior)
            .rcdp(self.q, self.db)
            .expect("decision must not error");
        Observed {
            verdict: d.verdict,
            counters: scoped(&collector.report(), names),
            checkpoint: d.checkpoint,
        }
    }
}

/// Ticks an uninterrupted run burns, read off the meter counter.
fn total_ticks(setting: &Setting, q: &Query, db: &Database, budget: &SearchBudget) -> u64 {
    ticks(Request::new(setting).budget(budget), q, db)
}

fn ticks(req: Request<'_>, q: &Query, db: &Database) -> u64 {
    let collector = Collector::new();
    let _ = req
        .probe(Probe::attached(&collector))
        .rcdp(q, db)
        .expect("baseline must not error");
    let report = collector.report();
    let tick_counter = if report.counters.contains_key("semidecide.candidates") {
        "semidecide.candidates"
    } else {
        "rcdp.valuations"
    };
    report.counters.get(tick_counter).copied().unwrap_or(0)
}

/// Budget with the relevant meter limit set to `ticks`.
fn sliced(base: &SearchBudget, bounded: bool, ticks: u64) -> SearchBudget {
    let mut b = *base;
    if bounded {
        b.max_candidates = ticks.max(1);
    } else {
        b.max_valuations = ticks.max(1);
    }
    b
}

/// Drive one instance from every source through the full K-installment
/// schedule at one engine, asserting the three identities at every step.
/// Returns how many installments actually ran, summed over the sources.
fn check_schedule(
    label: &str,
    setting: &Setting,
    q: &Query,
    db: &Database,
    base: &SearchBudget,
    bounded: bool,
    k: u64,
) -> u64 {
    let subject = Subject::new(setting, q, db, base);
    let plain_final = subject.run(Src::Plain, base, None, &[]).verdict;
    SOURCES
        .iter()
        .map(|&src| {
            let ran = check_source(&format!("{label} {src:?}"), &subject, src, base, bounded, k);
            // The reasoned source searches the minimized constraint set (or
            // skips the search on a static verdict); the others search the
            // same one. Every source decides the same way at full budget.
            let full = subject.run(src, base, None, &[]).verdict;
            assert_eq!(
                std::mem::discriminant(&full),
                std::mem::discriminant(&plain_final),
                "{label} {src:?}: full-budget verdict kind differs from the plain source"
            );
            ran
        })
        .sum()
}

/// The schedule from one source.
fn check_source(
    label: &str,
    subject: &Subject<'_>,
    src: Src,
    base: &SearchBudget,
    bounded: bool,
    k: u64,
) -> u64 {
    let names: &[&'static str] = if bounded {
        &BOUNDED_COUNTERS
    } else {
        &EXACT_COUNTERS
    };
    let t = ticks(subject.request(src).budget(base), subject.q, subject.db);
    if t < k {
        // Not enough metered work to split into K distinct installments.
        return 0;
    }
    let baseline = subject.run(src, base, None, names);

    let mut prior: Option<Checkpoint> = None;
    for i in 1..=k {
        let slice = if i == k {
            *base
        } else {
            sliced(base, bounded, (t * i).div_ceil(k))
        };
        let got = subject.run(src, &slice, prior.as_ref(), names);

        // Identity 1: resumed installment == fresh uninterrupted run at b_i.
        let fresh = subject.run(src, &slice, None, names);
        assert_eq!(
            got.verdict, fresh.verdict,
            "{label}: installment {i}/{k} verdict differs from uninterrupted run at its budget"
        );
        assert_eq!(
            got.counters, fresh.counters,
            "{label}: installment {i}/{k} counters differ from uninterrupted run at its budget"
        );

        // Identity 2: the analysis gate (a no-op rewrite on these inputs)
        // and a preparation change neither verdict nor counters, so those
        // sources equal the plain source at b_i.
        if matches!(src, Src::Analyzed | Src::Prepared) {
            let plain = subject.run(Src::Plain, &slice, None, names);
            assert_eq!(
                fresh.verdict, plain.verdict,
                "{label}: run at budget {i}/{k} differs from the plain source"
            );
            assert_eq!(
                fresh.counters, plain.counters,
                "{label}: counters at budget {i}/{k} differ from the plain source"
            );
        }

        match got.checkpoint {
            Some(cp) => {
                assert_eq!(cp.attempt as u64, i, "{label}: attempt count");
                // Identity 3: the checkpoint survives JSON (process-boundary
                // resume behaves like in-memory resume).
                let round_tripped = Checkpoint::from_json_str(&cp.to_json().to_string())
                    .unwrap_or_else(|e| panic!("{label}: checkpoint round-trip failed: {e}"));
                assert_eq!(round_tripped, cp, "{label}: checkpoint JSON round-trip");
                prior = Some(round_tripped);
            }
            None => {
                // Conclusive — and identical to the uninterrupted run at
                // this budget, per the assertions above. The final
                // installment runs at the full budget, so by transitivity it
                // matches the full-budget baseline.
                if i == k {
                    assert_eq!(got.verdict, baseline.verdict, "{label}: final verdict");
                    assert_eq!(got.counters, baseline.counters, "{label}: final counters");
                }
                return i;
            }
        }
    }
    panic!("{label}: the full-budget final installment must be conclusive");
}

// ---------------------------------------------------------------------------
// The suites
// ---------------------------------------------------------------------------

/// Exact RCDP across random CQ instances: the K-installment schedule is
/// identical to uninterrupted runs on every engine.
#[test]
fn exact_rcdp_installments_match_uninterrupted_runs() {
    let mut rng = SplitMix64::seed_from_u64(0x5e5e);
    let pool = cq_pool();
    let mut exercised = 0u64;
    for round in 0..48 {
        let setting = random_setting(&mut rng);
        let db = random_db(&mut rng, 6, 5, 3);
        if !setting.partially_closed(&db).unwrap() {
            continue;
        }
        let q: Query = pool[rng.random_range(0..pool.len())].clone().into();
        for engine in engines() {
            let base = SearchBudget::default().with_engine(engine);
            for k in installment_counts() {
                exercised += check_schedule(
                    &format!("round {round} engine {engine:?} K={k}"),
                    &setting,
                    &q,
                    &db,
                    &base,
                    false,
                    k,
                );
            }
        }
    }
    assert!(
        exercised >= 20,
        "the generator must produce instances with enough metered work ({exercised} installments ran)"
    );
}

/// Bounded (FP) RCDP: the size-granular frontier obeys the same identities.
#[test]
fn bounded_rcdp_installments_match_uninterrupted_runs() {
    let (setting, q, db) = fp_bounded_instance();
    for engine in engines() {
        let base = fp_bounded_budget().with_engine(engine);
        for k in installment_counts() {
            let ran = check_schedule(
                &format!("bounded engine {engine:?} K={k}"),
                &setting,
                &q,
                &db,
                &base,
                true,
                k,
            );
            assert!(ran >= 1, "bounded instance must meter enough to split");
        }
    }
}

/// RCQP: the coarse `Restart` frontier — a starved installment checkpoints,
/// and resuming returns the identical verdict the uninterrupted run gets.
#[test]
fn rcqp_restart_resume_matches_uninterrupted_runs() {
    let (setting, q) = rcqp_instance();
    let base = SearchBudget::default();
    let baseline = Request::new(&setting)
        .budget(&base)
        .rcqp(&q)
        .map(|d| d.verdict)
        .expect("baseline must decide");

    let starved = SearchBudget {
        max_valuations: 1,
        max_candidates: 1,
        ..base
    };
    let (v1, cp) = Request::new(&setting)
        .budget(&starved)
        .rcqp(&q)
        .map(|d| (d.verdict, d.checkpoint))
        .expect("starved run");
    match cp {
        Some(cp) => {
            assert!(
                matches!(v1, QueryVerdict::Unknown { .. }),
                "a checkpointed installment must be inconclusive"
            );
            assert_eq!(cp.attempt, 1);
            let round_tripped = Checkpoint::from_json_str(&cp.to_json().to_string())
                .expect("rcqp checkpoint round-trip");
            assert_eq!(round_tripped, cp);
            let (v2, cp2) = Request::new(&setting)
                .budget(&base)
                .resume(Some(&round_tripped))
                .rcqp(&q)
                .map(|d| (d.verdict, d.checkpoint))
                .expect("resumed run");
            assert_eq!(v2, baseline, "resumed RCQP verdict");
            assert_eq!(cp2.map(|c| c.attempt), None, "full budget must conclude");
        }
        None => panic!("the starved budget must checkpoint on this instance, got {v1:?}"),
    }
}

/// Feeding a checkpoint from one decision into another is a typed error at
/// the facade boundary, not a silent wrong answer.
#[test]
fn foreign_checkpoints_are_rejected_up_front() {
    let mut rng = SplitMix64::seed_from_u64(0xfeed);
    let pool = cq_pool();
    let q: Query = pool[0].clone().into();
    let other_q: Query = pool[1].clone().into();
    let base = SearchBudget::default();

    // Scan seeded instances for one that is partially closed and meters
    // enough to interrupt mid-decision.
    let mut found = None;
    for _ in 0..50 {
        let setting = random_setting(&mut rng);
        let db = random_db(&mut rng, 6, 5, 3);
        if !setting.partially_closed(&db).unwrap() {
            continue;
        }
        let t = total_ticks(&setting, &q, &db, &base);
        if t < 2 {
            continue;
        }
        let slice = sliced(&base, false, t / 2);
        let d = Request::new(&setting).budget(&slice).rcdp(&q, &db);
        if let Some(cp) = d.expect("starved run").checkpoint {
            found = Some((setting, db, cp));
            break;
        }
    }
    let (setting, db, cp) = found.expect("no interruptible instance in 50 seeded draws");
    let other = Subject::new(&setting, &other_q, &db, &base);
    let same = Subject::new(&setting, &q, &db, &base);
    for src in SOURCES {
        let collector = Collector::new();
        let probe = Probe::attached(&collector);
        let req = other.request(src).budget(&base).probe(probe);
        match req.resume(Some(&cp)).rcdp(&other_q, &db) {
            Err(DecisionError::Checkpoint(CheckpointError::FingerprintMismatch { .. })) => {}
            other => panic!("{src:?}: expected a fingerprint rejection, got {other:?}"),
        }
        let req = same.request(src).budget(&base).probe(probe);
        match req.resume(Some(&cp)).rcqp(&q) {
            Err(DecisionError::Checkpoint(CheckpointError::KindMismatch { .. })) => {}
            other => panic!("{src:?}: expected a kind rejection, got {other:?}"),
        }
        // Rejected before any search: no dispatch, no metered work.
        let report = collector.report();
        for searched in ["rcdp.strategy", "rcqp.strategy"] {
            assert!(
                !report.notes.contains_key(searched),
                "{src:?}: {searched} recorded"
            );
        }
        assert_eq!(report.counter("rcdp.valuations"), 0, "{src:?}");
    }
}

/// Engines are a runtime choice, not part of a decision's identity: the
/// checkpoint fingerprint covers `(setting, query, db)` only, so a decision
/// checkpointed under `Engine::Planned` resumes legally under
/// `Engine::Naive` and vice versa — and the cross-engine resume reaches the
/// same verdict as either engine's uninterrupted run.
#[test]
fn checkpoints_resume_across_planned_and_indexed_engines() {
    let mut rng = SplitMix64::seed_from_u64(0xC0DE);
    let pool = cq_pool();
    let q: Query = pool[1].clone().into();
    let naive = SearchBudget::default().with_engine(Engine::Naive);
    let planned = SearchBudget::default().with_engine(Engine::Planned);

    let mut exercised = 0usize;
    for _ in 0..50 {
        let setting = random_setting(&mut rng);
        let db = random_db(&mut rng, 6, 5, 3);
        if !setting.partially_closed(&db).unwrap() {
            continue;
        }
        let t = total_ticks(&setting, &q, &db, &planned);
        if t < 2 {
            continue;
        }
        let baseline = Request::new(&setting)
            .budget(&planned)
            .rcdp(&q, &db)
            .map(|d| d.verdict)
            .expect("baseline");

        for (first, second) in [(&planned, &naive), (&naive, &planned)] {
            let starved = sliced(first, false, t / 2);
            let (v1, cp) = Request::new(&setting)
                .budget(&starved)
                .rcdp(&q, &db)
                .map(|d| (d.verdict, d.checkpoint))
                .expect("starved");
            let Some(cp) = cp else {
                continue; // this instance decided before the meter tripped
            };
            assert!(matches!(v1, Verdict::Unknown { .. }));
            // The fingerprint binds the checkpoint to the decision inputs
            // only — recomputing it without any engine in hand must match.
            cp.validate(
                ric::DecisionKind::Rcdp,
                ric::rcdp_fingerprint(&setting, &q, &db),
            )
            .expect("fingerprint must not depend on the engine");
            // Resume on the *other* engine at full budget.
            let (v2, cp2) = Request::new(&setting)
                .budget(second)
                .resume(Some(&cp))
                .rcdp(&q, &db)
                .map(|d| (d.verdict, d.checkpoint))
                .expect("cross resume");
            match (&baseline, &v2) {
                (Verdict::Complete, Verdict::Complete) => {}
                (Verdict::Incomplete(_), Verdict::Incomplete(b)) => {
                    assert!(
                        ric::complete::rcdp::certify_counterexample(&setting, &q, &db, b).unwrap(),
                        "cross-engine resume produced an uncertified counterexample"
                    );
                }
                other => panic!("cross-engine resume changed the verdict: {other:?}"),
            }
            assert!(cp2.is_none(), "full budget must conclude");
            exercised += 1;
        }
    }
    assert!(
        exercised >= 4,
        "too few interruptible instances for the cross-engine matrix ({exercised})"
    );
}

/// A well-formed checkpoint may commit counts that do not fit a sum: two
/// cleared chunks of `u64::MAX` ticks each, or a bounded frontier whose
/// committed ticks are already `u64::MAX`. Resuming from one must saturate
/// the committed totals — the committed work exhausts any finite budget —
/// and return a typed verdict, never an arithmetic-overflow panic.
#[test]
fn resume_saturates_overflowing_checkpoint_counts() {
    // Exact: a complete instance whose every chunk clears, starved so the
    // first installment commits several cleared chunks.
    let schema =
        Schema::from_relations(vec![RelationSchema::infinite("Supt", &["eid", "cid"])]).unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let mschema =
        Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
    let dcust = mschema.rel_id("DCust").unwrap();
    let mut dm = Database::empty(&mschema);
    let mut db = Database::empty(&schema);
    for c in 0..8 {
        dm.insert(dcust, Tuple::new([Value::str(format!("c{c}"))]));
        db.insert(
            supt,
            Tuple::new([Value::str("e0"), Value::str(format!("c{c}"))]),
        );
    }
    let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Proj(Projection::new(supt, vec![1])),
        dcust,
        vec![0],
    )]);
    let setting = Setting::new(schema.clone(), mschema, dm, v);
    let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', C).").unwrap().into();
    let budget = SearchBudget::default();
    let (_, cp) = Request::new(&setting)
        .budget(&sliced(&budget, false, 4))
        .rcdp(&q, &db)
        .map(|d| (d.verdict, d.checkpoint))
        .expect("starved installment");
    let mut cp = cp.expect("a starved exact search checkpoints");
    let Frontier::RcdpChunks { cleared, .. } = &mut cp.frontier else {
        panic!("exact search must commit cleared chunks: {:?}", cp.frontier);
    };
    assert!(cleared.len() >= 2, "need two cleared chunks: {cleared:?}");
    for (_, progress) in cleared.iter_mut().take(2) {
        progress.ticks = u64::MAX;
    }
    let (verdict, next) = Request::new(&setting)
        .budget(&budget)
        .resume(Some(&cp))
        .rcdp(&q, &db)
        .map(|d| (d.verdict, d.checkpoint))
        .expect("overflowing committed ticks must not panic");
    match &verdict {
        Verdict::Unknown { stats } => assert_eq!(stats.limit, BudgetLimit::MaxValuations),
        other => panic!("committed work past the budget must stop the search: {other:?}"),
    }
    let next = next.expect("the stopped search checkpoints again");
    assert_eq!(next.spent_ticks, u64::MAX, "spent ticks saturate");

    // Bounded (FP): the size-granular frontier carries cumulative ticks.
    let (setting, q, db) = fp_bounded_instance();
    let base = fp_bounded_budget();
    let (_, cp) = Request::new(&setting)
        .budget(&sliced(&base, true, 50))
        .rcdp(&q, &db)
        .map(|d| (d.verdict, d.checkpoint))
        .expect("starved bounded installment");
    let mut cp = cp.expect("a starved bounded search checkpoints");
    let Frontier::BoundedSizes { progress, .. } = &mut cp.frontier else {
        panic!("bounded search must commit sizes: {:?}", cp.frontier);
    };
    progress.ticks = u64::MAX;
    let (verdict, _) = Request::new(&setting)
        .budget(&base)
        .resume(Some(&cp))
        .rcdp(&q, &db)
        .map(|d| (d.verdict, d.checkpoint))
        .expect("overflowing committed ticks must not panic");
    assert!(
        matches!(verdict, Verdict::Unknown { .. }),
        "committed work past the budget must stop the search: {verdict:?}"
    );
}
