//! `bench_static` — symbolic pre-decision reasoning vs. the plain prepared
//! path.
//!
//! The `ric-reason` prover claims two speedups, measured here as A/B cells
//! (A = full-`V` [`PreparedSetting`], B = [`ReasonedSetting`]; preparation
//! and the one-shot reasoning run are hoisted out of both timed loops):
//!
//! * **redundant-V** — `V` carries one load-bearing IND plus `k` expensive
//!   CQ constraints the IND implies. The reasoner drops the implied `k`
//!   from the per-candidate recheck loop; the decision (a full `Complete`
//!   enumeration, the recheck-heaviest verdict) should get ≥2× faster at
//!   the median;
//! * **statically-decidable** — a denial kills the query outright, so the
//!   certified static verdict answers `Complete` in O(partial closure)
//!   while the plain path enumerates every candidate; ≥10× at the median.
//!
//! Every cell re-asserts verdict identity between the two arms on every
//! repetition (`verdicts_identical`) — the same pin `reason_differential.rs`
//! enforces across engines and seeds — and `all_ok` summarizes the claims.
//!
//! Writes `BENCH_STATIC.json` to the current directory; see EXPERIMENTS.md
//! for the schema. Run with
//! `cargo run --release -p ric-bench --bin bench_static`.

use std::time::Instant;

use ric::prelude::*;
use ric::{try_rcdp_prepared, try_rcdp_static, Engine, ReasonedSetting};

const REPS: usize = 9;

struct StaticCell {
    cell: String,
    engine: String,
    workload: &'static str,
    n: usize,
    dropped: usize,
    statically_complete: bool,
    median_full_micros: u128,
    median_reasoned_micros: u128,
    speedup_median: f64,
    floor: f64,
    claim: String,
    ok: bool,
    verdicts_identical: bool,
}

impl StaticCell {
    fn to_json(&self) -> ric::telemetry::Json {
        use ric::telemetry::Json;
        Json::obj([
            ("cell", Json::from(self.cell.as_str())),
            ("engine", Json::from(self.engine.as_str())),
            ("workload", Json::from(self.workload)),
            ("n", Json::from(self.n as u64)),
            ("dropped", Json::from(self.dropped as u64)),
            ("statically_complete", Json::from(self.statically_complete)),
            ("median_full_micros", Json::from(self.median_full_micros)),
            (
                "median_reasoned_micros",
                Json::from(self.median_reasoned_micros),
            ),
            ("speedup_median", Json::from(self.speedup_median)),
            ("floor", Json::from(self.floor)),
            ("claim", Json::from(self.claim.as_str())),
            ("ok", Json::from(self.ok)),
            ("verdicts_identical", Json::from(self.verdicts_identical)),
        ])
    }
}

fn median(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

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

#[allow(clippy::too_many_arguments)]
fn run_cell(
    label: String,
    workload: &'static str,
    n: usize,
    engine: Engine,
    floor: f64,
    setting: &Setting,
    query: &Query,
    db: &Database,
) -> StaticCell {
    let budget = SearchBudget::default().with_engine(engine);
    let prepared = ric::prepare(setting, db, engine).expect("full-V preparation");
    let reasoned = ReasonedSetting::prepare(setting, query, db, engine, &budget)
        .expect("reasoned preparation");
    let mut full_micros = Vec::with_capacity(REPS);
    let mut reasoned_micros = Vec::with_capacity(REPS);
    let mut identical = true;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let vf = try_rcdp_prepared(&prepared, query, db, &budget).expect("full-V decision");
        full_micros.push(t0.elapsed().as_micros());
        let t1 = Instant::now();
        let vr = try_rcdp_static(&reasoned, db, &budget).expect("reasoned decision");
        reasoned_micros.push(t1.elapsed().as_micros());
        identical &= match (&vf, &vr) {
            (Verdict::Complete, Verdict::Complete) => true,
            (Verdict::Incomplete(a), Verdict::Incomplete(b)) => {
                a.delta == b.delta && a.new_answer == b.new_answer
            }
            (Verdict::Unknown { .. }, Verdict::Unknown { .. }) => true,
            _ => false,
        };
    }
    let median_full_micros = median(&mut full_micros).max(1);
    let median_reasoned_micros = median(&mut reasoned_micros).max(1);
    let speedup_median = median_full_micros as f64 / median_reasoned_micros as f64;
    StaticCell {
        cell: label,
        engine: engine.to_string(),
        workload,
        n,
        dropped: reasoned.facts().dropped(),
        statically_complete: reasoned.facts().statically_complete,
        median_full_micros,
        median_reasoned_micros,
        speedup_median,
        floor,
        claim: format!("median reasoned decision >= {floor}x faster than full-V prepared"),
        ok: speedup_median >= floor,
        verdicts_identical: identical,
    }
}

fn main() {
    let mut cells: Vec<StaticCell> = Vec::new();
    let engine = Engine::planned(1);
    for n in [24usize, 48] {
        let (setting, query, db) = redundant_workload(n, 6, 3);
        cells.push(run_cell(
            format!("redundant-V (1 IND + 6 implied 3-atom CQs) n={n}"),
            "redundant_v",
            n,
            engine,
            2.0,
            &setting,
            &query,
            &db,
        ));
        let (setting, query, db) = static_workload(n);
        cells.push(run_cell(
            format!("statically-decidable (denial-killed query) n={n}"),
            "static_verdict",
            n,
            engine,
            10.0,
            &setting,
            &query,
            &db,
        ));
    }

    println!(
        "{:<50} {:<9} {:>10} {:>12} {:>8}  ok",
        "cell", "engine", "full µs", "reasoned µs", "speedup"
    );
    println!("{}", "-".repeat(100));
    let mut all_ok = true;
    for c in &cells {
        all_ok &= c.ok && c.verdicts_identical;
        println!(
            "{:<50} {:<9} {:>10} {:>12} {:>7.1}x  {}{}",
            c.cell,
            c.engine,
            c.median_full_micros,
            c.median_reasoned_micros,
            c.speedup_median,
            if c.ok {
                "ok".to_string()
            } else {
                format!("UNDER {}x", c.floor)
            },
            if c.verdicts_identical {
                ""
            } else {
                "  VERDICT DRIFT"
            },
        );
    }

    use ric::telemetry::Json;
    let doc = Json::obj([
        ("schema", Json::from("bench_static/v1")),
        ("source", Json::from("bench_static")),
        (
            "meta",
            Json::obj([
                ("schema_version", Json::from(1u64)),
                ("engine", Json::from(engine.to_string())),
                ("deadline_ms", Json::from(0u64)),
            ]),
        ),
        (
            "claim",
            Json::from(
                "certified V-minimization makes recheck-heavy Complete decisions >= 2x faster, \
                 and certified static verdicts answer statically-decidable settings >= 10x \
                 faster, with verdicts identical to the full-V prepared path in every cell",
            ),
        ),
        ("all_ok", Json::from(all_ok)),
        (
            "cells",
            Json::arr(cells.iter().map(StaticCell::to_json).collect::<Vec<_>>()),
        ),
    ]);
    std::fs::write("BENCH_STATIC.json", format!("{}\n", doc.pretty()))
        .expect("write BENCH_STATIC.json");
    println!(
        "\nwrote BENCH_STATIC.json ({} cells, all_ok={all_ok})",
        cells.len()
    );
}
