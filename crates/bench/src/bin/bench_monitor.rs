//! `bench_monitor` — incremental monitoring vs. per-txn from-scratch
//! re-decides.
//!
//! The streaming [`ric::Monitor`] claims that keeping RCDP verdicts
//! continuously up to date is much cheaper than re-deciding after every
//! transaction. This binary measures that claim on a multi-department CRM
//! workload scaled to the largest Table I cells the workspace benches: one
//! schema with four support tables `Supt0..Supt3(eid, dept, cid)`, each
//! IND-bounded by the shared master customer list and each carrying its own
//! registered completeness question (`(CQ, INDs)`, the Example 1.1 shape).
//! A seeded append-dominated stream mutates one department per transaction
//! — admissible inserts, with occasional deletes that flip that
//! department's verdict to Incomplete until later inserts re-cover it — and
//! every transaction is costed two ways:
//!
//! * **incremental** — one `Monitor::apply` call: the three untouched
//!   settings skip by footprint in O(1), and the touched one rides the
//!   net-change/monotonicity/memo fast paths wherever sound;
//! * **from scratch** — `try_rcdp_prepared` for *all four* settings on the
//!   materialized database (a re-decider has no footprint information),
//!   reusing prepared settings hoisted out of the loop, so the baseline is
//!   the strongest plausible re-decide strategy, not a strawman that also
//!   re-compiles preparations per txn.
//!
//! The headline number is `speedup_median`: the median per-txn from-scratch
//! cost divided by the median per-txn incremental cost over the stream. The
//! acceptance bar is ≥5× at the largest cells. Every cell also re-asserts
//! verdict identity for every setting after every transaction
//! (`verdicts_identical`), the same equality the `monitor_differential.rs`
//! suite pins: kinds agree, and Incomplete counterexamples certify against
//! the current state.
//!
//! Writes `BENCH_MONITOR.json` to the current directory; see EXPERIMENTS.md
//! for the schema. Run with
//! `cargo run --release -p ric-bench --bin bench_monitor`.

use std::time::Instant;

use ric::complete::rcdp::certify_counterexample;
use ric::prelude::*;
use ric::{Engine, Monitor, Op, SettingId, SettingVerdict, SplitMix64, Txn};

const DEPTS: usize = 4;

struct MonitorCell {
    cell: String,
    engine: String,
    batch: usize,
    txns: usize,
    settings: usize,
    median_incremental_micros: u128,
    median_scratch_micros: u128,
    speedup_median: f64,
    skips: u64,
    redecides: u64,
    memo_hits: u64,
    fast_completes: u64,
    claim: &'static str,
    ok: bool,
    verdicts_identical: bool,
}

impl MonitorCell {
    fn to_json(&self) -> ric::telemetry::Json {
        use ric::telemetry::Json;
        Json::obj([
            ("cell", Json::from(self.cell.as_str())),
            ("engine", Json::from(self.engine.as_str())),
            ("batch", Json::from(self.batch as u64)),
            ("txns", Json::from(self.txns as u64)),
            ("settings", Json::from(self.settings as u64)),
            (
                "median_incremental_micros",
                Json::from(self.median_incremental_micros),
            ),
            (
                "median_scratch_micros",
                Json::from(self.median_scratch_micros),
            ),
            ("speedup_median", Json::from(self.speedup_median)),
            ("skips", Json::from(self.skips)),
            ("redecides", Json::from(self.redecides)),
            ("memo_hits", Json::from(self.memo_hits)),
            ("fast_completes", Json::from(self.fast_completes)),
            ("claim", Json::from(self.claim)),
            ("ok", Json::from(self.ok)),
            ("verdicts_identical", Json::from(self.verdicts_identical)),
        ])
    }
}

fn median(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

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

/// One cell's configuration: workload sizing plus stream shape.
struct CellCfg {
    label: String,
    n_customers: usize,
    n_support: usize,
    engine: Engine,
    batch: usize,
    txns: usize,
    seed: u64,
}

/// Run one cell: stream `txns` transactions of `batch` ops through a
/// monitor, timing each incremental apply against from-scratch re-decides
/// of every setting on the materialized database.
fn monitor_cell(cfg: &CellCfg) -> MonitorCell {
    let CellCfg {
        label,
        n_customers,
        n_support,
        engine,
        batch,
        txns,
        seed,
    } = cfg;
    let (n_customers, n_support, engine, batch, txns, seed) =
        (*n_customers, *n_support, *engine, *batch, *txns, *seed);
    let budget = SearchBudget {
        engine,
        ..SearchBudget::default()
    };
    let mut rng = SplitMix64::seed_from_u64(seed);
    let w = workload(n_customers);

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

    // The from-scratch baseline reuses one preparation per setting for the
    // whole stream (the master data never changes here), so it pays only
    // the decides.
    let prepared: Vec<_> = w
        .settings
        .iter()
        .map(|(s, _)| ric::prepare(s, mon.db(), engine).expect("workload setting prepares"))
        .collect();

    let before = mon.counters().clone();
    let mut inc_micros: Vec<u128> = Vec::with_capacity(txns);
    let mut scratch_micros: Vec<u128> = Vec::with_capacity(txns);
    let mut identical = true;
    for _ in 0..txns {
        let txn = random_txn(&mut rng, &w, batch);

        let start = Instant::now();
        mon.apply(&txn).expect("stream ops are schema-valid");
        inc_micros.push(start.elapsed().as_micros());

        let start = Instant::now();
        let fresh: Vec<Verdict> = prepared
            .iter()
            .zip(&w.settings)
            .map(|(p, (_, q))| {
                ric::try_rcdp_prepared(p, q, mon.db(), &budget)
                    .expect("materialized state stays partially closed")
            })
            .collect();
        scratch_micros.push(start.elapsed().as_micros());

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
    let after = mon.counters().clone();

    let median_incremental_micros = median(&mut inc_micros).max(1);
    let median_scratch_micros = median(&mut scratch_micros).max(1);
    let speedup_median = median_scratch_micros as f64 / median_incremental_micros as f64;
    MonitorCell {
        cell: label.to_string(),
        engine: engine.to_string(),
        batch,
        txns,
        settings: DEPTS,
        median_incremental_micros,
        median_scratch_micros,
        speedup_median,
        skips: after.skip - before.skip,
        redecides: after.redecide - before.redecide,
        memo_hits: after.memo_hit - before.memo_hit,
        fast_completes: after.fast_complete - before.fast_complete,
        claim: "median incremental apply >= 5x faster than from-scratch re-decides",
        ok: speedup_median >= 5.0,
        verdicts_identical: identical,
    }
}

fn main() {
    let mut cells: Vec<MonitorCell> = Vec::new();
    for (n_customers, n_support, size) in [(24, 48, "n=24"), (48, 96, "n=48")] {
        for batch in [1usize, 8] {
            cells.push(monitor_cell(&CellCfg {
                label: format!("(CQ, INDs) 4-dept CRM {size} stream"),
                n_customers,
                n_support,
                engine: Engine::planned(1),
                batch,
                txns: 40,
                seed: 0x5EED ^ (batch as u64) << 8,
            }));
        }
    }

    println!(
        "{:<34} {:<9} {:>5} {:>10} {:>10} {:>8}  ok",
        "cell", "engine", "batch", "inc µs", "scratch µs", "speedup"
    );
    println!("{}", "-".repeat(90));
    let mut all_ok = true;
    for c in &cells {
        all_ok &= c.ok && c.verdicts_identical;
        println!(
            "{:<34} {:<9} {:>5} {:>10} {:>10} {:>7.1}x  {}{}",
            c.cell,
            c.engine,
            c.batch,
            c.median_incremental_micros,
            c.median_scratch_micros,
            c.speedup_median,
            if c.ok { "ok" } else { "UNDER 5x" },
            if c.verdicts_identical {
                ""
            } else {
                "  VERDICT DRIFT"
            },
        );
    }

    use ric::telemetry::Json;
    let doc = Json::obj([
        ("schema", Json::from("bench_monitor/v1")),
        ("source", Json::from("bench_monitor")),
        (
            "claim",
            Json::from(
                "keeping verdicts current with Monitor::apply is >= 5x faster (median over the \
                 stream) than re-deciding every registered setting from scratch after every \
                 transaction, with identical verdicts after every transaction",
            ),
        ),
        ("all_ok", Json::from(all_ok)),
        (
            "cells",
            Json::arr(cells.iter().map(MonitorCell::to_json).collect::<Vec<_>>()),
        ),
    ]);
    std::fs::write("BENCH_MONITOR.json", format!("{}\n", doc.pretty()))
        .expect("write BENCH_MONITOR.json");
    println!(
        "\nwrote BENCH_MONITOR.json ({} cells, all_ok={all_ok})",
        cells.len()
    );
}
