//! `bench_bars` — every timing bar of the workspace, on one runner.
//!
//! Five suites time an arm A against an arm B per cell through
//! [`ric_bench::bars`] (interleaved pairs, median and IQR per arm,
//! `ratio = median(A) / median(B)`):
//!
//! * **engine** — `Engine::Naive` vs `Engine::Planned` on the Example
//!   3.1 FD setting, CQ and two-disjunct UCQ, at growing sizes (recorded);
//! * **analysis** — an FO-*syntax* query that `ric::analyze` certifies down
//!   to CQ, decided through the FO cell vs the analyzer gate (recorded);
//! * **monitor** — per-transaction from-scratch re-decides of four
//!   settings vs one incremental `Monitor::apply` (≥ 5×);
//! * **static** — the full-`V` prepared path vs `ReasonedSetting`:
//!   redundant-`V` rechecks (≥ 2×) and statically decidable settings
//!   (≥ 10×);
//! * **resume** — the final installment of a K-installment decision,
//!   finishing from its checkpoint, vs a from-scratch run (≤ 1.10×).
//!
//! Every cell also checks that both arms return the same verdicts. Before
//! a suite is timed, every setting it uses goes through `ric::analyze`; an
//! Error-level diagnostic aborts the run with exit code 1.
//!
//! Writes `BENCH_BARS.json` to the current directory, with `all_ok` true
//! iff every bar holds and every cell's verdicts agree; see EXPERIMENTS.md
//! for the schema. Run with
//! `cargo run --release -p ric-bench --bin bench_bars`.

use std::time::Instant;

use ric::complete::rcdp::certify_counterexample;
use ric::prelude::*;
use ric::query::{Atom as QueryAtom, FoExpr, FoQuery};
use ric::reductions::two_head_dfa::{to_rcdp_instance, TwoHeadDfa};
use ric::reductions::workload::{planted_rcdp, WorkloadParams};
use ric::reductions::{qbf, rcdp_sigma2, rcqp_conp, sat};
use ric::SplitMix64;
use ric_bench::bars::{self, measure, Arm, Bar, BarCell};
use ric_bench::fd_instance;

/// Abort the run if `query` over `setting` draws an Error-level diagnostic:
/// a bar must never be timed on a setting the analyzer rejects.
fn lint(what: &str, setting: &Setting, query: &Query) {
    let report = ric::analyze(setting, query);
    if report.has_errors() {
        eprintln!("bench_bars: {what} fails static analysis:");
        for d in report.errors() {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
}

fn same_kind<V>(a: &V, b: &V) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

// ── engine ──────────────────────────────────────────────────────────────

/// CQ and UCQ decisions over the Example 3.1 FD setting at growing sizes.
/// CQ-bodied constraints are where the engines genuinely diverge — pure IND
/// sets take the C3 shortcut (check `Δ` alone) in *both* engines. Every
/// database is *complete* by construction (the FD pins each employee's
/// single row), so both engines exhaust the full Σᵖ₂ candidate space.
fn engine_suite() -> Vec<BarCell> {
    let mut cells = Vec::new();
    for ucq in [false, true] {
        let family = if ucq {
            "(UCQ, CQ) FD-pinned two-disjunct"
        } else {
            "(CQ, CQ) FD-pinned"
        };
        for n in [8usize, 20, 48] {
            let (setting, db) = fd_instance(n);
            let query: Query = if ucq {
                parse_ucq(
                    &setting.schema,
                    "Q(C) :- Supt('e0', D, C). Q(C) :- Supt('e1', D, C).",
                )
                .expect("fixed query")
                .into()
            } else {
                parse_cq(&setting.schema, "Q(C) :- Supt('e0', D, C).")
                    .expect("fixed query")
                    .into()
            };
            lint(family, &setting, &query);
            let run = |engine: Engine| {
                let budget = SearchBudget::default().with_engine(engine);
                rcdp(&setting, &query, &db, &budget).expect("engine workload is well-formed")
            };
            cells.push(measure(
                "engine",
                format!("{family} n={n}"),
                ["naive", "planned"],
                Bar::Record,
                || run(Engine::Naive),
                || run(Engine::Planned),
                same_kind,
            ));
        }
    }
    cells
}

// ── analysis ────────────────────────────────────────────────────────────

/// The analysis A/B instance at master size `n`: `Supt(eid, cid)` bounded by
/// the `DCust` master list, `Pref` unconstrained, and an FO-written query
/// `Q(c) := exists e (Supt(e, c) and not not Pref(c))` that is semantically
/// the CQ `Q(C) :- Supt(E, C), Pref(C).`. The database supports every master
/// customer but the last, so the instance is *incomplete* by construction —
/// a ground truth both the FO semi-decision and the CQ cell can certify.
fn analysis_instance(n: usize) -> (Setting, Query, Database) {
    let schema = Schema::from_relations(vec![
        RelationSchema::infinite("Supt", &["eid", "cid"]),
        RelationSchema::infinite("Pref", &["cid"]),
    ])
    .expect("fixed schema");
    let supt = schema.rel_id("Supt").unwrap();
    let pref = schema.rel_id("Pref").unwrap();
    let master = Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])])
        .expect("fixed master schema");
    let dcust = master.rel_id("DCust").unwrap();
    let mut dm = Database::empty(&master);
    for c in 0..n {
        dm.insert(dcust, Tuple::new([Value::str(format!("c{c}"))]));
    }
    let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Proj(Projection::new(supt, vec![1])),
        dcust,
        vec![0],
    )]);
    let setting = Setting::new(schema.clone(), master, dm, v);

    let mut db = Database::empty(&schema);
    for c in 0..n {
        db.insert(pref, Tuple::new([Value::str(format!("c{c}"))]));
    }
    for c in 0..n.saturating_sub(1) {
        db.insert(
            supt,
            Tuple::new([Value::str("e0"), Value::str(format!("c{c}"))]),
        );
    }

    let (c, e) = (Var(0), Var(1));
    let fo = FoQuery::new(
        vec![c],
        FoExpr::Exists(
            vec![e],
            Box::new(FoExpr::And(vec![
                FoExpr::Atom(QueryAtom::new(supt, vec![Term::Var(e), Term::Var(c)])),
                FoExpr::not(FoExpr::not(FoExpr::Atom(QueryAtom::new(
                    pref,
                    vec![Term::Var(c)],
                )))),
            ])),
        ),
        vec!["c".into(), "e".into()],
    );
    (setting, Query::Fo(fo), db)
}

/// The FO cell vs the analyzer-gated dispatch on the same FO-syntax query.
fn analysis_suite() -> Vec<BarCell> {
    let budget = SearchBudget::default();
    [8usize, 16, 32]
        .into_iter()
        .map(|n| {
            let (setting, query, db) = analysis_instance(n);
            lint("analysis workload", &setting, &query);
            measure(
                "analysis",
                format!("(FO syntax, CQ fragment) master n={n}"),
                ["fo_cell", "analyzed"],
                Bar::Record,
                || rcdp(&setting, &query, &db, &budget).expect("well-formed instance"),
                || {
                    Request::analyzed(&setting)
                        .budget(&budget)
                        .rcdp(&query, &db)
                        .map(|d| d.verdict)
                        .expect("analyzer-gated decision")
                },
                same_kind,
            )
        })
        .collect()
}

// ── monitor ─────────────────────────────────────────────────────────────

const DEPTS: usize = 4;

/// The multi-department CRM workload: `DEPTS` support tables, one shared
/// master customer list, one completeness question per table.
struct Workload {
    schema: Schema,
    master_schema: Schema,
    dm: Database,
    supt: Vec<RelId>,
    settings: Vec<(Setting, Query)>,
    n_customers: usize,
}

fn workload(n_customers: usize) -> Workload {
    let schema = Schema::from_relations(
        (0..DEPTS)
            .map(|i| RelationSchema::infinite(format!("Supt{i}"), &["eid", "dept", "cid"]))
            .collect(),
    )
    .expect("fixed schema");
    let master_schema = Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])])
        .expect("fixed schema");
    let dcust = master_schema.rel_id("DCust").expect("fixed relation");
    let mut dm = Database::empty(&master_schema);
    for c in 0..n_customers {
        dm.insert(dcust, Tuple::new([Value::str(format!("c{c}"))]));
    }
    let supt: Vec<RelId> = (0..DEPTS)
        .map(|i| schema.rel_id(&format!("Supt{i}")).expect("fixed relation"))
        .collect();
    let settings = supt
        .iter()
        .enumerate()
        .map(|(i, &rel)| {
            let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
                CcBody::Proj(Projection::new(rel, vec![2])),
                dcust,
                vec![0],
            )]);
            let q: Query = parse_cq(&schema, &format!("Q(C) :- Supt{i}('e0', D, C)."))
                .expect("fixed query")
                .into();
            (
                Setting::new(schema.clone(), master_schema.clone(), dm.clone(), v),
                q,
            )
        })
        .collect();
    Workload {
        schema,
        master_schema,
        dm,
        supt,
        settings,
        n_customers,
    }
}

/// One transaction against a single department: append-dominated admissible
/// ops (the OLTP-typical shape), with occasional deletes of `e0`'s coverage
/// on a small hot set of customers — each delete flips that department's
/// verdict to Incomplete until the hot-set churn re-covers it, so the
/// stream keeps exercising real verdict transitions without parking every
/// department in a permanently broken state.
fn random_txn(rng: &mut SplitMix64, w: &Workload, batch: usize) -> Txn {
    let rel = w.supt[rng.random_range(0..DEPTS)];
    let mut ops = Vec::with_capacity(batch);
    for _ in 0..batch {
        let c = format!("c{}", rng.random_range(0..w.n_customers));
        let hot = format!("c{}", rng.random_range(0..2));
        let e = format!("e{}", rng.random_range(1..4));
        let d = format!("d{}", rng.random_range(0..3));
        let tup =
            |e: &str, d: &str, c: &str| Tuple::new([Value::str(e), Value::str(d), Value::str(c)]);
        match rng.random_range(0..32) {
            0..=9 => ops.push(Op::insert(rel, tup("e0", "d0", &hot))),
            10..=19 => ops.push(Op::insert(rel, tup("e0", "d0", &c))),
            20..=30 => ops.push(Op::insert(rel, tup(&e, &d, &c))),
            _ => ops.push(Op::delete(rel, tup("e0", "d0", &hot))),
        }
    }
    Txn::new(ops)
}

/// The verdict-identity check of `monitor_differential.rs`: kinds agree and
/// Incomplete counterexamples certify on the current state.
fn verdicts_agree(
    monitored: &SettingVerdict,
    fresh: &Verdict,
    setting: &Setting,
    query: &Query,
    db: &Database,
) -> bool {
    match (monitored, fresh) {
        (SettingVerdict::Decided(Verdict::Complete), Verdict::Complete) => true,
        (SettingVerdict::Decided(Verdict::Unknown { stats: a }), Verdict::Unknown { stats: b }) => {
            a.limit == b.limit
        }
        (SettingVerdict::Decided(Verdict::Incomplete(a)), Verdict::Incomplete(b)) => {
            certify_counterexample(setting, query, db, a).unwrap_or(false)
                && certify_counterexample(setting, query, db, b).unwrap_or(false)
        }
        _ => false,
    }
}

/// Stream `txns` transactions of `batch` ops through a monitor over the
/// four-department workload. Each transaction is timed twice: one
/// incremental `Monitor::apply` (arm B), and a prepared `Request` for *all
/// four* settings on the materialized database (arm A). The baseline
/// reuses one preparation per setting for the whole stream (the master
/// data never changes here), so it pays only the decides.
fn monitor_cell(n_customers: usize, n_support: usize, batch: usize, txns: usize) -> BarCell {
    let engine = Engine::Planned;
    let budget = SearchBudget::default().with_engine(engine);
    let mut rng = SplitMix64::seed_from_u64(0x5EED ^ (batch as u64) << 8);
    let w = workload(n_customers);
    for (setting, query) in &w.settings {
        lint("monitor workload", setting, query);
    }

    let mut mon = Monitor::new(
        w.schema.clone(),
        w.master_schema.clone(),
        w.dm.clone(),
        budget,
    )
    .expect("workload schemas are consistent");
    let ids: Vec<SettingId> = w
        .settings
        .iter()
        .enumerate()
        .map(|(i, (s, q))| {
            mon.register(format!("dept{i}"), s.v.clone(), q.clone())
                .expect("workload setting registers")
        })
        .collect();

    // Plant each department complete (e0 saturates the master list) plus
    // background noise, loaded in one transaction.
    let mut load = Vec::new();
    for &rel in &w.supt {
        for c in 0..n_customers {
            load.push(Op::insert(
                rel,
                Tuple::new([
                    Value::str("e0"),
                    Value::str("d0"),
                    Value::str(format!("c{c}")),
                ]),
            ));
        }
        for _ in 0..n_support {
            load.push(Op::insert(
                rel,
                Tuple::new([
                    Value::str(format!("e{}", rng.random_range(1..4))),
                    Value::str(format!("d{}", rng.random_range(0..3))),
                    Value::str(format!("c{}", rng.random_range(0..n_customers))),
                ]),
            ));
        }
    }
    mon.apply(&Txn::new(load)).expect("initial load is valid");

    let prepared: Vec<_> = w
        .settings
        .iter()
        .map(|(s, _)| ric::prepare(s, mon.db(), engine).expect("workload setting prepares"))
        .collect();

    let micros = |start: Instant| start.elapsed().as_secs_f64() * 1e6;
    let mut inc_us = Vec::with_capacity(txns);
    let mut scratch_us = Vec::with_capacity(txns);
    let mut identical = true;
    for _ in 0..txns {
        let txn = random_txn(&mut rng, &w, batch);

        let start = Instant::now();
        mon.apply(&txn).expect("stream ops are schema-valid");
        inc_us.push(micros(start));

        let start = Instant::now();
        let fresh: Vec<Verdict> = prepared
            .iter()
            .zip(&w.settings)
            .map(|(p, (_, q))| {
                ric::Request::new(p)
                    .budget(&budget)
                    .rcdp(q, mon.db())
                    .map(|d| d.verdict)
                    .expect("materialized state stays partially closed")
            })
            .collect();
        scratch_us.push(micros(start));

        for ((id, (setting, query)), fresh) in ids.iter().zip(&w.settings).zip(&fresh) {
            identical &= verdicts_agree(
                mon.verdict(*id).expect("registered setting"),
                fresh,
                setting,
                query,
                mon.db(),
            );
        }
    }
    BarCell::new(
        "monitor",
        format!("(CQ, INDs) 4-dept CRM n={n_customers} stream batch={batch}"),
        Arm::from_samples("scratch", &scratch_us),
        Arm::from_samples("incremental", &inc_us),
        Bar::AtLeast(5.0),
        identical,
    )
}

fn monitor_suite() -> Vec<BarCell> {
    let mut cells = Vec::new();
    for (n_customers, n_support) in [(24, 48), (48, 96)] {
        for batch in [1usize, 8] {
            cells.push(monitor_cell(n_customers, n_support, batch, 40));
        }
    }
    cells
}

// ── static ──────────────────────────────────────────────────────────────

/// The redundant-V workload: `Supt(eid, dept, cid)` IND-bounded by the
/// master customer list, plus `k` implied CQ restatements of the bound,
/// each with `atoms` join atoms to make the per-candidate recheck
/// expensive. `D` already supports every master customer, so the decision
/// is a full `Complete` enumeration.
fn redundant_workload(n_customers: usize, k: usize, atoms: usize) -> (Setting, Query, Database) {
    let schema = Schema::from_relations(vec![RelationSchema::infinite(
        "Supt",
        &["eid", "dept", "cid"],
    )])
    .expect("fixed schema");
    let supt = schema.rel_id("Supt").expect("fixed relation");
    let master = Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])])
        .expect("fixed schema");
    let dcust = master.rel_id("DCust").expect("fixed relation");
    let mut dm = Database::empty(&master);
    for c in 0..n_customers {
        dm.insert(dcust, Tuple::new([Value::str(format!("c{c}"))]));
    }
    let mut ccs = vec![ContainmentConstraint::into_master(
        CcBody::Proj(Projection::new(supt, vec![2])),
        dcust,
        vec![0],
    )];
    for _ in 0..k {
        // q(c) :- Supt(e0,d0,c), Supt(e1,d1,c), …: semantically the IND
        // again (every disjunct projects a supported cid), but costed as an
        // `atoms`-way self-join on every candidate recheck.
        let mut b = Cq::builder();
        let c = b.var("c");
        for a in 0..atoms {
            let e = b.var(&format!("e{a}"));
            let d = b.var(&format!("d{a}"));
            b = b.atom(supt, vec![Term::Var(e), Term::Var(d), Term::Var(c)]);
        }
        let cq = b.head_vars(vec![c]).build();
        ccs.push(ContainmentConstraint::into_master(
            CcBody::Cq(cq),
            dcust,
            vec![0],
        ));
    }
    let setting = Setting::new(schema.clone(), master, dm, ConstraintSet::new(ccs));
    let query: Query = parse_cq(&schema, "Q(C) :- Supt(E, D, C).")
        .expect("fixed query")
        .into();
    let mut db = Database::empty(&schema);
    for c in 0..n_customers {
        db.insert(
            supt,
            Tuple::new([
                Value::str(format!("e{c}")),
                Value::str("d0"),
                Value::str(format!("c{c}")),
            ]),
        );
    }
    (setting, query, db)
}

/// The statically-decidable workload: the query's relation is denied
/// outright, so every legal database keeps it empty — but the plain path
/// still enumerates candidates drawn from a master list of `n` values.
fn static_workload(n: usize) -> (Setting, Query, Database) {
    let schema = Schema::from_relations(vec![
        RelationSchema::infinite("R", &["a", "b"]),
        RelationSchema::infinite("S", &["a"]),
    ])
    .expect("fixed schema");
    let r = schema.rel_id("R").expect("fixed relation");
    let srel = schema.rel_id("S").expect("fixed relation");
    let master =
        Schema::from_relations(vec![RelationSchema::infinite("Rm", &["a"])]).expect("fixed schema");
    let rm = master.rel_id("Rm").expect("fixed relation");
    let mut dm = Database::empty(&master);
    for v in 0..n {
        dm.insert(rm, Tuple::new([Value::int(v as i64)]));
    }
    let mut b = Cq::builder();
    let x = b.var("x");
    let y = b.var("y");
    let denial = b.atom(r, vec![Term::Var(x), Term::Var(y)]).build();
    let v = ConstraintSet::new(vec![
        ContainmentConstraint::into_empty(CcBody::Cq(denial)),
        ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(srel, vec![0])),
            rm,
            vec![0],
        ),
    ]);
    let setting = Setting::new(schema.clone(), master, dm, v);
    let query: Query = parse_cq(&schema, "Q(X) :- R(X, Y).")
        .expect("fixed query")
        .into();
    let mut db = Database::empty(&schema);
    for v in 0..n {
        db.insert(srel, Tuple::new([Value::int(v as i64)]));
    }
    (setting, query, db)
}

/// The full-`V` prepared path (A) vs `ReasonedSetting` (B); preparation and
/// the one-shot reasoning run are hoisted out of both arms. Verdicts must
/// match as `reason_differential.rs` pins them: kinds agree, and Incomplete
/// witnesses match on `delta` and `new_answer`.
fn static_suite() -> Vec<BarCell> {
    let engine = Engine::Planned;
    let budget = SearchBudget::default().with_engine(engine);
    let mut cells = Vec::new();
    for n in [24usize, 48] {
        for (label, floor, (setting, query, db)) in [
            (
                "redundant-V (1 IND + 6 implied 3-atom CQs)",
                2.0,
                redundant_workload(n, 6, 3),
            ),
            (
                "statically-decidable (denial-killed query)",
                10.0,
                static_workload(n),
            ),
        ] {
            lint(label, &setting, &query);
            let prepared = ric::prepare(&setting, &db, engine).expect("full-V preparation");
            let reasoned = ReasonedSetting::prepare(&setting, &query, &db, engine, &budget)
                .expect("reasoned preparation");
            cells.push(measure(
                "static",
                format!("{label} n={n}"),
                ["full_v", "reasoned"],
                Bar::AtLeast(floor),
                || {
                    Request::new(&prepared)
                        .budget(&budget)
                        .rcdp(&query, &db)
                        .map(|d| d.verdict)
                        .expect("full-V decision")
                },
                || {
                    Request::new(&reasoned)
                        .budget(&budget)
                        .rcdp(reasoned.query(), &db)
                        .expect("reasoned decision")
                        .verdict
                },
                |vf, vr| match (vf, vr) {
                    (Verdict::Incomplete(a), Verdict::Incomplete(b)) => {
                        a.delta == b.delta && a.new_answer == b.new_answer
                    }
                    _ => same_kind(vf, vr),
                },
            ));
        }
    }
    cells
}

// ── resume ──────────────────────────────────────────────────────────────

/// Which meter an RCDP cell's search burns, and therefore which budget knob
/// the installment schedule scales.
#[derive(Clone, Copy)]
enum TickKind {
    /// Exact enumeration: `max_valuations` / the `rcdp.valuations` counter.
    Valuations,
    /// Bounded extension search: `max_candidates` / `semidecide.candidates`.
    Candidates,
}

impl TickKind {
    fn counter(self) -> &'static str {
        match self {
            TickKind::Valuations => "rcdp.valuations",
            TickKind::Candidates => "semidecide.candidates",
        }
    }

    fn scaled(self, base: &SearchBudget, ticks: u64) -> SearchBudget {
        let mut b = *base;
        match self {
            TickKind::Valuations => b.max_valuations = ticks.max(1),
            TickKind::Candidates => b.max_candidates = ticks.max(1),
        }
        b
    }
}

/// One RCDP cell at K installments. Installment `i < K` runs at
/// `ceil(T·i/K)` of the T ticks the full decision needs, dies on its
/// budget, and hands its checkpoint on; that chain runs once, untimed.
/// The timed arms are the final, full-budget installment from the last
/// checkpoint (A) and a from-scratch run (B); both must be conclusive with
/// identical verdicts, witnesses included.
fn resume_rcdp_cell(
    label: &str,
    k: u32,
    kind: TickKind,
    budget: &SearchBudget,
    setting: &Setting,
    query: &Query,
    db: &Database,
) -> BarCell {
    lint(label, setting, query);
    let collector = Collector::new();
    let _ = ric::complete::Request::new(setting)
        .budget(budget)
        .probe(Probe::attached(&collector))
        .rcdp(query, db)
        .map(|o| o.verdict)
        .expect("bench instance must decide");
    let total_ticks = collector.report().counter(kind.counter());
    let mut prior: Option<Checkpoint> = None;
    for i in 1..k {
        let slice = kind.scaled(budget, (total_ticks * u64::from(i)).div_ceil(u64::from(k)));
        match Request::new(setting)
            .budget(&slice)
            .resume(prior.as_ref())
            .rcdp(query, db)
            .map(|d| (d.verdict, d.checkpoint))
            .expect("installment must not error")
        {
            (_, Some(cp)) => prior = Some(cp),
            (_, None) => break,
        }
    }
    let run = |from: Option<&Checkpoint>| {
        let (verdict, cp) = Request::new(setting)
            .budget(budget)
            .resume(from)
            .rcdp(query, db)
            .map(|d| (d.verdict, d.checkpoint))
            .expect("bench instance must decide");
        (verdict, cp.is_none())
    };
    measure(
        "resume",
        format!("{label} K={k}"),
        ["final_installment", "from_scratch"],
        Bar::AtMost(1.10),
        || run(prior.as_ref()),
        || run(None),
        |a, b| a == b && a.1,
    )
}

/// The RCQP cell: its frontier is coarse (`Restart`). Installment 1 runs at
/// a starvation budget; whatever checkpoint it leaves (none, if it decided
/// without metering) feeds the timed full-budget installment.
fn resume_rcqp_cell(
    label: &str,
    budget: &SearchBudget,
    setting: &Setting,
    query: &Query,
) -> BarCell {
    lint(label, setting, query);
    let tiny = SearchBudget {
        max_valuations: 1,
        max_candidates: 1,
        ..*budget
    };
    let (_, prior) = Request::new(setting)
        .budget(&tiny)
        .rcqp(query)
        .map(|d| (d.verdict, d.checkpoint))
        .expect("starved installment must not error");
    let run = |from: Option<&Checkpoint>| {
        let (verdict, cp) = Request::new(setting)
            .budget(budget)
            .resume(from)
            .rcqp(query)
            .map(|d| (d.verdict, d.checkpoint))
            .expect("bench instance must decide");
        (verdict, cp.is_none())
    };
    measure(
        "resume",
        format!("{label} K=2"),
        ["final_installment", "from_scratch"],
        Bar::AtMost(1.10),
        || run(prior.as_ref()),
        || run(None),
        |a, b| a == b && a.1,
    )
}

/// The largest Table I / Table II cells the tables run, each finished in
/// installments.
fn resume_suite() -> Vec<BarCell> {
    let mut cells = Vec::new();
    let budget = SearchBudget::default();

    // Table I, (CQ, INDs): the largest planted master-data workload.
    let mut rng = SplitMix64::seed_from_u64(7);
    let params = WorkloadParams {
        n_customers: 32,
        n_employees: 4,
        n_support: 64,
    };
    let inst = planted_rcdp(&params, true, &mut rng);
    // Table I, (CQ, INDs) hardness: the largest ∀∃-3SAT cell.
    let mut rng = SplitMix64::seed_from_u64(11);
    let phi = qbf::ForallExists::random(6, 6, 12, &mut rng);
    let (s2_setting, s2_query, s2_db) = rcdp_sigma2::to_rcdp_instance(&phi);
    // Table I, (FP, CQ): the bounded semi-decision (size-granular frontier).
    let (fp_setting, fp_query, fp_db) = to_rcdp_instance(&TwoHeadDfa::ones());
    let fp_budget = SearchBudget {
        max_delta_tuples: 3,
        fresh_values: 2,
        max_candidates: 500_000,
        ..SearchBudget::default()
    };
    for (label, kind, budget, setting, query, db) in [
        (
            "(CQ, INDs) planted n=32 complete",
            TickKind::Valuations,
            &budget,
            &inst.setting,
            &inst.query,
            &inst.db,
        ),
        (
            "(CQ, INDs) sigma2 forall=6/exists=6/clauses=12",
            TickKind::Valuations,
            &budget,
            &s2_setting,
            &s2_query,
            &s2_db,
        ),
        (
            "(FP, CQ) DFA L nonempty",
            TickKind::Candidates,
            &fp_budget,
            &fp_setting,
            &fp_query,
            &fp_db,
        ),
    ] {
        for k in [2u32, 5] {
            cells.push(resume_rcdp_cell(label, k, kind, budget, setting, query, db));
        }
    }

    // Table II, (CQ, INDs): the largest 3SAT RCQP cell (Restart frontier).
    let mut rng = SplitMix64::seed_from_u64(13);
    let phi = sat::Cnf::random_3sat(8, 34, &mut rng);
    let (setting, q) = rcqp_conp::to_rcqp_instance(&phi);
    cells.push(resume_rcqp_cell(
        "(CQ, INDs) rcqp 3SAT vars=8/clauses=34",
        &budget,
        &setting,
        &q,
    ));
    cells
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: bench_bars (takes no arguments; writes BENCH_BARS.json)");
        std::process::exit(2);
    }
    let mut cells = Vec::new();
    for suite in [
        engine_suite,
        analysis_suite,
        monitor_suite,
        static_suite,
        resume_suite,
    ] {
        cells.extend(suite());
    }
    bars::print_table(&cells);
    let doc = bars::bars_doc(&cells, bars::meta(Engine::Planned, None));
    let all_ok = cells.iter().all(BarCell::passes);
    match bars::write_artifact("BENCH_BARS.json", &doc) {
        Ok(()) => println!(
            "\nwrote BENCH_BARS.json ({} cells, all_ok={all_ok})",
            cells.len()
        ),
        Err(e) => {
            eprintln!("bench_bars: {e}");
            std::process::exit(1);
        }
    }
}
