//! Regenerate Tables I and II of the paper, empirically.
//!
//! For every cell of the complexity tables, run the corresponding decider on
//! generated instance families with a telemetry [`Collector`] attached,
//! validate the verdict against an independent ground-truth oracle where one
//! exists, and report the outcome, timing, and search counters. The *shape*
//! of the paper's results is what must reproduce: decidable cells decide
//! (and match the oracle), undecidable cells return certified witnesses or
//! an honest `Unknown`, and the hardness reductions blow up where the
//! bounds say they must.
//!
//! Beyond the human-readable tables on stdout, the run writes four
//! machine-readable artifacts to the current directory:
//!
//! * `BENCH_TABLE1.json` — one object per Table I (RCDP) cell;
//! * `BENCH_TABLE2.json` — one object per Table II (RCQP) cell;
//! * `BENCH_ENGINE.json` — the engine A/B comparison: every cell of a
//!   scaling suite of CQ/UCQ decisions timed under `Engine::Naive` and
//!   `Engine::planned(1)`, with the per-cell speedup and the median speedup
//!   at the largest size;
//! * `BENCH_ANALYSIS.json` — the static-analysis A/B suite: FO-*syntax*
//!   queries that `ric::analyze` certifies down to CQ, decided through the
//!   naive FO-cell dispatch versus the analyzer-gated `try_rcdp_analyzed`
//!   dispatch, with per-cell speedups, verdict identity, and downgrade
//!   counts. Any Error-level diagnostic on a shipped workload aborts the
//!   run with a nonzero exit (the CI gate).
//!
//! Each cell object carries `cell`, `paper_bound`, `outcome`, an `oracle`
//! sub-object (`checked`, and `agrees` when a ground-truth oracle exists),
//! `micros`, and the full telemetry report (`counters` / `gauges` /
//! `spans_micros` / `notes`) of the decision. See EXPERIMENTS.md for the
//! schema.
//!
//! Run with `cargo run --release -p ric-bench --bin regen_tables`.
//!
//! Pass `--deadline-ms N` (or set `RIC_DEADLINE_MS=N`) to put a wall-clock
//! deadline of `N` milliseconds on every decision. Cells that cannot finish
//! inside the deadline degrade to an honest `Unknown` whose stats name the
//! `deadline` limit — the regeneration still terminates and still writes
//! well-formed artifacts, which is the point: the tables can be rebuilt on a
//! time budget without ever reporting a wrong cell.
//!
//! Pass `--engine naive|planned` to pick the evaluation engine used for the
//! Table I/II cells (default `planned`; both engines are exact, so the
//! verdicts must not differ). The A/B suite behind `BENCH_ENGINE.json`
//! always runs both engines regardless of the flag.

use std::time::Duration;

use ric::prelude::*;
use ric::query::{Atom as QueryAtom, FoExpr, FoQuery};
use ric::reductions::two_head_dfa::{to_rcdp_instance, TwoHeadDfa};
use ric::reductions::workload::{planted_rcdp, WorkloadParams};
use ric::reductions::{qbf, rcdp_sigma2, rcqp_conp, rcqp_pi3, sat, tiling};
use ric::telemetry::Json;
use ric::{rcdp_probed, rcqp_probed, SplitMix64};
use std::time::Instant;

struct Cell {
    cell: &'static str,
    paper: &'static str,
    outcome: String,
    /// `Some(agrees)` when an independent ground-truth oracle exists for the
    /// cell, `None` when the expectation is structural only.
    oracle: Option<bool>,
    micros: u128,
    report: Report,
}

impl Cell {
    fn to_json(&self) -> Json {
        let oracle = match self.oracle {
            Some(agrees) => Json::obj([
                ("checked", Json::from(true)),
                ("agrees", Json::from(agrees)),
            ]),
            None => Json::obj([("checked", Json::from(false))]),
        };
        Json::obj([
            ("cell", Json::from(self.cell)),
            ("paper_bound", Json::from(self.paper)),
            ("outcome", Json::from(self.outcome.as_str())),
            ("oracle", oracle),
            ("micros", Json::from(self.micros)),
            ("telemetry", self.report.to_json()),
        ])
    }
}

fn print_table(title: &str, cells: &[Cell]) {
    println!("\n{title}");
    println!("{}", "=".repeat(title.len()));
    println!(
        "{:<34} {:<24} {:<46} {:>12}",
        "(L_Q, L_C)", "paper bound", "measured outcome", "time"
    );
    println!("{}", "-".repeat(120));
    for c in cells {
        println!(
            "{:<34} {:<24} {:<46} {:>9} µs",
            c.cell, c.paper, c.outcome, c.micros
        );
    }
}

fn write_table(path: &str, table: &str, title: &str, cells: &[Cell], meta: &Json) {
    let doc = Json::obj([
        ("table", Json::from(table)),
        ("title", Json::from(title)),
        ("source", Json::from("regen_tables")),
        ("meta", meta.clone()),
        ("cells", Json::arr(cells.iter().map(Cell::to_json))),
    ]);
    match std::fs::write(path, format!("{}\n", doc.pretty())) {
        Ok(()) => println!("wrote {path} ({} cells)", cells.len()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Run `f` with a fresh collector attached; returns the result, the wall
/// time, and the aggregated telemetry of everything `f` probed.
fn probed<T>(f: impl FnOnce(Probe<'_>) -> T) -> (T, u128, Report) {
    let collector = Collector::new();
    let start = Instant::now();
    let out = f(Probe::attached(&collector));
    (out, start.elapsed().as_micros(), collector.report())
}

/// The run-wide knobs requested on the command line (or the environment).
struct Invocation {
    /// Per-decision wall-clock deadline, if any.
    deadline: Option<Duration>,
    /// Engine used for the Table I/II cells. The A/B suite ignores this and
    /// always runs both.
    engine: Engine,
    /// Stream a JSONL decision trace of representative decisions to this
    /// path (`--trace FILE`), for `ric-trace` to render offline.
    trace: Option<String>,
}

/// Parse the invocation. Invalid values are rejected loudly rather than
/// silently ignored.
fn parse_invocation() -> Invocation {
    let mut args = std::env::args().skip(1);
    let mut ms: Option<String> = None;
    let mut engine_arg: Option<String> = None;
    let mut trace: Option<String> = None;
    while let Some(arg) = args.next() {
        if arg == "--deadline-ms" {
            ms = Some(args.next().unwrap_or_default());
        } else if let Some(v) = arg.strip_prefix("--deadline-ms=") {
            ms = Some(v.to_string());
        } else if arg == "--engine" {
            engine_arg = Some(args.next().unwrap_or_default());
        } else if let Some(v) = arg.strip_prefix("--engine=") {
            engine_arg = Some(v.to_string());
        } else if arg == "--trace" {
            trace = Some(args.next().unwrap_or_default());
        } else if let Some(v) = arg.strip_prefix("--trace=") {
            trace = Some(v.to_string());
        } else {
            eprintln!(
                "usage: regen_tables [--deadline-ms N] \
                 [--engine naive|planned] [--trace FILE]"
            );
            std::process::exit(2);
        }
    }
    if trace.as_deref() == Some("") {
        eprintln!("regen_tables: --trace expects an output path");
        std::process::exit(2);
    }
    let engine = match engine_arg.as_deref() {
        None | Some("planned") => Engine::planned(1),
        Some("naive") => Engine::Naive,
        Some(other) => {
            eprintln!("regen_tables: --engine expects `naive` or `planned`, got {other:?}");
            std::process::exit(2);
        }
    };
    let deadline = ms
        .or_else(|| std::env::var("RIC_DEADLINE_MS").ok())
        .map(|ms| match ms.parse::<u64>() {
            Ok(n) => Duration::from_millis(n),
            Err(_) => {
                eprintln!("regen_tables: --deadline-ms expects a millisecond count, got {ms:?}");
                std::process::exit(2);
            }
        });
    Invocation {
        deadline,
        engine,
        trace,
    }
}

/// Version of the artifact layout. Bump when a key is renamed or removed;
/// additions are backwards-compatible and do not bump it.
const ARTIFACT_SCHEMA_VERSION: u64 = 1;

/// The provenance block stamped into every `BENCH_*.json` artifact: how the
/// run was invoked and which tree produced it, so two artifacts can be
/// compared (`ric-trace diff`) without guessing at their origins. `git`
/// degrades to `"unknown"` outside a checkout.
fn meta_json(inv: &Invocation) -> Json {
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|describe| !describe.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("schema_version", Json::from(ARTIFACT_SCHEMA_VERSION)),
        ("engine", Json::from(inv.engine.to_string())),
        (
            "deadline_ms",
            match inv.deadline {
                Some(d) => Json::from(d.as_millis()),
                None => Json::Null,
            },
        ),
        ("git", Json::from(git)),
    ])
}

/// Apply the run-wide deadline and engine choice to a cell's budget.
fn bounded(budget: SearchBudget, inv: &Invocation) -> SearchBudget {
    let budget = budget.with_engine(inv.engine);
    match inv.deadline {
        Some(d) => budget.with_deadline(d),
        None => budget,
    }
}

fn table1(inv: &Invocation) -> Vec<Cell> {
    let mut cells = Vec::new();
    let budget = bounded(SearchBudget::default(), inv);
    let mut rng = SplitMix64::seed_from_u64(1);

    // (CQ, INDs): Σᵖ₂-complete — typical workload + hardness reduction.
    {
        let params = WorkloadParams {
            n_customers: 25,
            n_employees: 4,
            n_support: 50,
        };
        let inst = planted_rcdp(&params, false, &mut rng);
        let (v, us, report) =
            probed(|p| rcdp_probed(&inst.setting, &inst.query, &inst.db, &budget, p).unwrap());
        cells.push(Cell {
            cell: "(CQ, INDs) workload",
            paper: "Sigma-p-2-complete",
            outcome: format!("{v} (planted: incomplete)"),
            oracle: Some(v.is_incomplete()),
            micros: us,
            report,
        });
    }
    {
        let mut agree = 0;
        let mut total_us = 0;
        let n = 4;
        let collector = Collector::new();
        for _ in 0..n {
            let phi = qbf::ForallExists::random(2, 2, 3, &mut rng);
            let truth = phi.eval();
            let (setting, q, db) = rcdp_sigma2::to_rcdp_instance(&phi);
            let start = Instant::now();
            let v = rcdp_probed(&setting, &q, &db, &budget, Probe::attached(&collector)).unwrap();
            total_us += start.elapsed().as_micros();
            if v.is_complete() == truth {
                agree += 1;
            }
        }
        cells.push(Cell {
            cell: "(CQ, INDs) forall-exists-3SAT",
            paper: "Sigma-p-2-hard (Thm 3.6)",
            outcome: format!("{agree}/{n} agree with QBF oracle"),
            oracle: Some(agree == n),
            micros: total_us / n as u128,
            report: collector.report(),
        });
    }
    // (CQ, CQ) / (UCQ, UCQ): same decider, CQ constraints (FD-compiled).
    {
        let schema = Schema::from_relations(vec![RelationSchema::infinite(
            "Supt",
            &["eid", "dept", "cid"],
        )])
        .unwrap();
        let supt = schema.rel_id("Supt").unwrap();
        let fd = Fd::new(supt, vec![0], vec![1, 2]);
        let v = ConstraintSet::new(ric::constraints::compile::fd_to_ccs(&fd, &schema));
        let setting = Setting::new(
            schema.clone(),
            Schema::new(),
            Database::with_relations(0),
            v,
        );
        let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', D, C).")
            .unwrap()
            .into();
        let mut db = Database::empty(&schema);
        db.insert(
            supt,
            Tuple::new([Value::str("e0"), Value::str("d0"), Value::str("c0")]),
        );
        let (verdict, us, report) = probed(|p| rcdp_probed(&setting, &q, &db, &budget, p).unwrap());
        cells.push(Cell {
            cell: "(CQ, CQ) FD-blocked",
            paper: "Sigma-p-2-complete",
            outcome: format!("{verdict} (Example 3.1: complete)"),
            oracle: Some(verdict.is_complete()),
            micros: us,
            report,
        });
        let u: Query = parse_ucq(
            &schema,
            "Q(E, C) :- Supt(E, D, C), E = 'e0'. Q(E, C) :- Supt(E, D, C), E = 'e1'.",
        )
        .unwrap()
        .into();
        let (verdict, us, report) = probed(|p| rcdp_probed(&setting, &u, &db, &budget, p).unwrap());
        cells.push(Cell {
            cell: "(UCQ, UCQ) per-disjunct",
            paper: "Sigma-p-2-complete",
            outcome: format!("{verdict}"),
            oracle: None,
            micros: us,
            report,
        });
    }
    // (FO, CQ) and (FP, CQ): undecidable — bounded semi-decision.
    {
        let budget_fp = bounded(
            SearchBudget {
                max_delta_tuples: 3,
                fresh_values: 2,
                max_candidates: 500_000,
                ..SearchBudget::default()
            },
            inv,
        );
        let (setting, q, db) = to_rcdp_instance(&TwoHeadDfa::ones());
        let (v, us, report) = probed(|p| rcdp_probed(&setting, &q, &db, &budget_fp, p).unwrap());
        cells.push(Cell {
            cell: "(FP, CQ) DFA L nonempty",
            paper: "undecidable (Thm 3.1)",
            outcome: format!("{v} - witness encodes a word"),
            oracle: Some(v.is_incomplete()),
            micros: us,
            report,
        });
        let (setting, q, db) = to_rcdp_instance(&TwoHeadDfa::empty_language());
        let (v, us, report) = probed(|p| rcdp_probed(&setting, &q, &db, &budget_fp, p).unwrap());
        cells.push(Cell {
            cell: "(FP, CQ) DFA L empty",
            paper: "undecidable (Thm 3.1)",
            outcome: format!("{v}"),
            oracle: None,
            micros: us,
            report,
        });
    }
    cells
}

fn table2(inv: &Invocation) -> Vec<Cell> {
    let mut cells = Vec::new();
    let budget = bounded(SearchBudget::default(), inv);
    let mut rng = SplitMix64::seed_from_u64(2);

    // (CQ, INDs): coNP-complete via 3SAT.
    {
        let mut agree = 0;
        let mut total_us = 0;
        let n = 4;
        let collector = Collector::new();
        for n_clauses in [3, 6, 10, 14] {
            let phi = sat::Cnf::random_3sat(3, n_clauses, &mut rng);
            let truth = !phi.satisfiable(); // RCQ nonempty iff unsat
            let (setting, q) = rcqp_conp::to_rcqp_instance(&phi);
            let start = Instant::now();
            let v = rcqp_probed(&setting, &q, &budget, Probe::attached(&collector)).unwrap();
            total_us += start.elapsed().as_micros();
            if v.is_nonempty() == truth {
                agree += 1;
            }
        }
        cells.push(Cell {
            cell: "(CQ, INDs) 3SAT reduction",
            paper: "coNP-complete (Thm 4.5)",
            outcome: format!("{agree}/{n} agree with DPLL oracle"),
            oracle: Some(agree == n),
            micros: total_us / n as u128,
            report: collector.report(),
        });
    }
    // (CQ, CQ): NEXPTIME-complete via tiling — witness verification is the
    // decidable half.
    {
        for n in [1u32, 2] {
            let inst = tiling::TilingInstance {
                n_tiles: 2,
                horiz: [(0, 1), (1, 0)].into_iter().collect(),
                vert: [(0, 1), (1, 0)].into_iter().collect(),
                t0: 0,
                n,
            };
            let (setting, q) = tiling::to_rcqp_instance(&inst);
            let grid = inst.solve().expect("checkerboard");
            let witness = tiling::tiling_witness(&setting.schema, &inst, &grid);
            let (v, us, report) =
                probed(|p| rcdp_probed(&setting, &q, &witness, &budget, p).unwrap());
            cells.push(Cell {
                cell: if n == 1 {
                    "(CQ, CQ) tiling 2x2 witness"
                } else {
                    "(CQ, CQ) tiling 4x4 witness"
                },
                paper: "NEXPTIME-complete",
                outcome: format!("witness certified: {v}"),
                oracle: Some(v.is_complete()),
                micros: us,
                report,
            });
        }
    }
    // (CQ, CQ) blocking/empty via the E2 machinery.
    {
        let schema =
            Schema::from_relations(vec![RelationSchema::infinite("Supt", &["eid", "dept"])])
                .unwrap();
        let supt = schema.rel_id("Supt").unwrap();
        let fd = Fd::new(supt, vec![0], vec![1]);
        let v = ConstraintSet::new(ric::constraints::compile::fd_to_ccs(&fd, &schema));
        let setting = Setting::new(
            schema.clone(),
            Schema::new(),
            Database::with_relations(0),
            v,
        );
        let bqt = bounded(
            SearchBudget {
                fresh_values: 3,
                ..SearchBudget::default()
            },
            inv,
        );
        let q4: Query = parse_cq(&schema, "Q(E) :- Supt(E, 'd0'), E = 'e0'.")
            .unwrap()
            .into();
        let (verdict, us, report) = probed(|p| rcqp_probed(&setting, &q4, &bqt, p).unwrap());
        cells.push(Cell {
            cell: "(CQ, CQ) blocking witness",
            paper: "NEXPTIME-complete",
            outcome: format!(
                "{} (Example 4.1: nonempty)",
                if verdict.is_nonempty() {
                    "nonempty"
                } else {
                    "UNEXPECTED"
                }
            ),
            oracle: Some(verdict.is_nonempty()),
            micros: us,
            report,
        });
        let q2: Query = parse_cq(&schema, "Q(E) :- Supt(E, 'd0').").unwrap().into();
        let (verdict, us, report) = probed(|p| rcqp_probed(&setting, &q2, &bqt, p).unwrap());
        cells.push(Cell {
            cell: "(CQ, CQ) unbounded head",
            paper: "NEXPTIME-complete",
            outcome: format!(
                "{} (Example 4.1: empty)",
                if verdict.is_empty_verdict() {
                    "empty"
                } else {
                    "UNEXPECTED"
                }
            ),
            oracle: Some(verdict.is_empty_verdict()),
            micros: us,
            report,
        });
    }
    // Fixed (D_m, V): Πᵖ₃ regime.
    {
        let setting = rcqp_pi3::fixed_setting();
        let bqt = bounded(
            SearchBudget {
                fresh_values: 3,
                ..SearchBudget::default()
            },
            inv,
        );
        let q = rcqp_pi3::bounded_query(&setting, 0);
        let (v, us, report) = probed(|p| rcqp_probed(&setting, &q, &bqt, p).unwrap());
        cells.push(Cell {
            cell: "fixed (Dm,V), bounded query",
            paper: "Pi-p-3-complete (Cor 4.6)",
            outcome: if v.is_nonempty() {
                "nonempty".into()
            } else {
                "UNEXPECTED".into()
            },
            oracle: Some(v.is_nonempty()),
            micros: us,
            report,
        });
        let q = rcqp_pi3::unbounded_query(&setting, 0);
        let (v, us, report) = probed(|p| rcqp_probed(&setting, &q, &bqt, p).unwrap());
        cells.push(Cell {
            cell: "fixed (Dm,V), unbounded query",
            paper: "Pi-p-3-complete (Cor 4.6)",
            outcome: if v.is_empty_verdict() {
                "empty".into()
            } else {
                "UNEXPECTED".into()
            },
            oracle: Some(v.is_empty_verdict()),
            micros: us,
            report,
        });
    }
    // (FP, …): undecidable — bounded evidence only. The telemetry notes for
    // this cell name the exhausted budget limit (`rcqp.limit`).
    {
        let (setting, q, _) = to_rcdp_instance(&TwoHeadDfa::ones());
        let bqt = bounded(
            SearchBudget {
                max_delta_tuples: 2,
                fresh_values: 1,
                max_candidates: 50_000,
                ..SearchBudget::default()
            },
            inv,
        );
        let (v, us, report) = probed(|p| rcqp_probed(&setting, &q, &bqt, p).unwrap());
        cells.push(Cell {
            cell: "(FP, CQ) DFA reduction",
            paper: "undecidable (Thm 4.1)",
            outcome: match &v {
                QueryVerdict::Unknown { stats } => {
                    format!("unknown (honest; limit: {})", stats.limit)
                }
                _ => "UNEXPECTED".into(),
            },
            oracle: Some(matches!(v, QueryVerdict::Unknown { .. })),
            micros: us,
            report,
        });
    }
    cells
}

/// One cell of the engine A/B suite: the same decision timed under the
/// naive and the sequential planned engine.
struct EngineCell {
    cell: String,
    /// Instance-size parameter of the scaling family this cell belongs to.
    size: usize,
    /// Whether `size` is the largest in its family (these cells feed the
    /// median-speedup headline number).
    largest: bool,
    naive_us: u128,
    planned_us: u128,
    /// Both engines are exact, so the verdicts must agree; recorded so a
    /// regression shows up in the artifact, not just in the test suite.
    agree: bool,
}

impl EngineCell {
    fn speedup(&self) -> f64 {
        self.naive_us as f64 / self.planned_us.max(1) as f64
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("cell", Json::from(self.cell.as_str())),
            ("size", Json::from(self.size)),
            ("largest_size", Json::from(self.largest)),
            ("naive_micros", Json::from(self.naive_us)),
            ("planned_micros", Json::from(self.planned_us)),
            ("speedup", Json::from(self.speedup())),
            ("verdicts_agree", Json::from(self.agree)),
        ])
    }
}

/// Time one RCDP decision under both engines. Returns the naive and planned
/// wall times plus whether the verdicts agree (same variant — witness deltas
/// may legitimately differ between enumeration orders).
fn ab_rcdp(
    setting: &Setting,
    query: &Query,
    db: &Database,
    inv: &Invocation,
) -> (u128, u128, bool) {
    let run = |engine: Engine| {
        // `bounded` pins the table-cell engine; the A/B arms override it.
        let budget = bounded(SearchBudget::default(), inv).with_engine(engine);
        let start = Instant::now();
        let v = rcdp(setting, query, db, &budget).expect("A/B instances are well-formed");
        (start.elapsed().as_micros(), v)
    };
    let (naive_us, vn) = run(Engine::Naive);
    let (planned_us, vp) = run(Engine::planned(1));
    (
        naive_us,
        planned_us,
        std::mem::discriminant(&vn) == std::mem::discriminant(&vp),
    )
}

/// The FD-constrained Example 3.1 setting at size `n`: `Supt(eid, dept,
/// cid)` under the FD `eid → dept, cid` (compiled to CQ-bodied CCs), with
/// one tuple per employee so the FD pins every employee's row.
fn fd_instance(n: usize) -> (Setting, Database) {
    let schema = Schema::from_relations(vec![RelationSchema::infinite(
        "Supt",
        &["eid", "dept", "cid"],
    )])
    .expect("fixed schema");
    let supt = schema.rel_id("Supt").unwrap();
    let fd = Fd::new(supt, vec![0], vec![1, 2]);
    let v = ConstraintSet::new(ric::constraints::compile::fd_to_ccs(&fd, &schema));
    let setting = Setting::new(
        schema.clone(),
        Schema::new(),
        Database::with_relations(0),
        v,
    );
    let mut db = Database::empty(&schema);
    for i in 0..n {
        db.insert(
            supt,
            Tuple::new([
                Value::str(format!("e{i}")),
                Value::str(format!("d{i}")),
                Value::str(format!("c{i}")),
            ]),
        );
    }
    (setting, db)
}

/// The engine A/B suite: CQ and UCQ decisions over the Example 3.1 FD
/// setting at growing instance sizes. CQ-bodied constraints are where the
/// engines genuinely diverge — pure IND sets take the C3 shortcut (check `Δ`
/// alone) in *both* engines, so there is nothing to compare there. Every
/// database is *complete* by construction (the FD pins each employee's
/// single row), so both engines must exhaust the full Σᵖ₂ candidate space —
/// the timing measures the engines, not an early counterexample exit.
fn engine_suite(inv: &Invocation) -> Vec<EngineCell> {
    let mut cells = Vec::new();
    let sizes = [8usize, 20, 48];
    let largest = *sizes.last().unwrap();

    // (CQ, CQ): per candidate, the naive arm materializes D ∪ Δ and
    // re-evaluates every FD-join body over it; the delta arm overlays Δ and
    // joins the novel tuples through the column indexes.
    for &n in &sizes {
        let (setting, db) = fd_instance(n);
        let query: Query = parse_cq(&setting.schema, "Q(C) :- Supt('e0', D, C).")
            .expect("fixed query")
            .into();
        let (naive_us, planned_us, agree) = ab_rcdp(&setting, &query, &db, inv);
        cells.push(EngineCell {
            cell: format!("(CQ, CQ) FD-pinned n={n}"),
            size: n,
            largest: n == largest,
            naive_us,
            planned_us,
            agree,
        });
    }

    // (UCQ, CQ): two-disjunct query over the same setting; both disjuncts
    // are FD-pinned, so the per-disjunct enumeration runs to exhaustion.
    for &n in &sizes {
        let (setting, db) = fd_instance(n);
        let query: Query = parse_ucq(
            &setting.schema,
            "Q(C) :- Supt('e0', D, C). Q(C) :- Supt('e1', D, C).",
        )
        .expect("fixed query")
        .into();
        let (naive_us, planned_us, agree) = ab_rcdp(&setting, &query, &db, inv);
        cells.push(EngineCell {
            cell: format!("(UCQ, CQ) FD-pinned two-disjunct n={n}"),
            size: n,
            largest: n == largest,
            naive_us,
            planned_us,
            agree,
        });
    }
    cells
}

/// Median of the per-cell speedups at the largest instance size.
fn median_speedup_at_largest(cells: &[EngineCell]) -> f64 {
    median(
        cells
            .iter()
            .filter(|c| c.largest)
            .map(EngineCell::speedup)
            .collect(),
    )
}

fn median(mut s: Vec<f64>) -> f64 {
    s.sort_by(|a, b| a.total_cmp(b));
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn print_engine_suite(cells: &[EngineCell], median: f64) {
    println!("\nEngine A/B - naive vs planned(1)");
    println!("================================");
    println!(
        "{:<42} {:>12} {:>12} {:>9} {:>7}",
        "cell", "naive", "planned(1)", "speedup", "agree"
    );
    println!("{}", "-".repeat(88));
    for c in cells {
        println!(
            "{:<42} {:>9} µs {:>9} µs {:>8.1}x {:>7}",
            c.cell,
            c.naive_us,
            c.planned_us,
            c.speedup(),
            c.agree
        );
    }
    println!("median speedup at largest size: {median:.1}x");
}

fn write_engine_suite(path: &str, cells: &[EngineCell], median: f64, meta: &Json) {
    let doc = Json::obj([
        ("source", Json::from("regen_tables")),
        ("meta", meta.clone()),
        (
            "engines",
            Json::arr([Engine::Naive, Engine::planned(1)].map(|e| Json::from(e.to_string()))),
        ),
        ("cells", Json::arr(cells.iter().map(EngineCell::to_json))),
        ("median_speedup_at_largest", Json::from(median)),
    ]);
    match std::fs::write(path, format!("{}\n", doc.pretty())) {
        Ok(()) => println!("wrote {path} ({} cells)", cells.len()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// One cell of the analysis A/B suite: an FO-*syntax* query that the static
/// analyzer certifies down to CQ, decided once through the naive FO-cell
/// dispatch and once through the analysis gate.
struct AnalysisCell {
    cell: String,
    size: usize,
    /// Whether `size` is the largest in its family (these cells feed the
    /// median-speedup headline number).
    largest: bool,
    fo_us: u128,
    analyzed_us: u128,
    /// Verdict identity: both dispatches must return the same verdict
    /// variant (the instances are incomplete by construction, so both sides
    /// land on `Incomplete`, which the FO semi-decision can certify).
    agree: bool,
    /// `analysis.downgrade` counter emitted by the gate.
    downgrades: u64,
}

impl AnalysisCell {
    fn speedup(&self) -> f64 {
        self.fo_us as f64 / self.analyzed_us.max(1) as f64
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("cell", Json::from(self.cell.as_str())),
            ("size", Json::from(self.size)),
            ("largest_size", Json::from(self.largest)),
            ("fo_micros", Json::from(self.fo_us)),
            ("analyzed_micros", Json::from(self.analyzed_us)),
            ("speedup", Json::from(self.speedup())),
            ("verdicts_agree", Json::from(self.agree)),
            ("downgrades", Json::from(self.downgrades)),
        ])
    }
}

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

/// The analysis A/B suite. Every shipped workload must pass the analyzer
/// with no Error-level diagnostics — a broken bench instance fails the run
/// (and therefore CI) instead of silently benchmarking garbage.
fn analysis_suite(inv: &Invocation) -> Vec<AnalysisCell> {
    let mut cells = Vec::new();
    let sizes = [8usize, 16, 32];
    let largest = *sizes.last().unwrap();
    for &n in &sizes {
        let (setting, query, db) = analysis_instance(n);
        let report = ric::analyze(&setting, &query);
        fail_on_error_diagnostics("analysis A/B workload", &report);
        let budget = bounded(SearchBudget::default(), inv);

        let start = Instant::now();
        let vf = rcdp(&setting, &query, &db, &budget).expect("well-formed instance");
        let fo_us = start.elapsed().as_micros();

        let collector = Collector::new();
        let start = Instant::now();
        let va =
            try_rcdp_analyzed_probed(&setting, &query, &db, &budget, Probe::attached(&collector))
                .expect("analyzer-gated decision")
                .verdict;
        let analyzed_us = start.elapsed().as_micros();

        cells.push(AnalysisCell {
            cell: format!("(FO syntax, CQ fragment) master n={n}"),
            size: n,
            largest: n == largest,
            fo_us,
            analyzed_us,
            agree: std::mem::discriminant(&vf) == std::mem::discriminant(&va),
            downgrades: collector.report().counter("analysis.downgrade"),
        });
    }
    cells
}

/// CI gate: any Error-level diagnostic in a shipped workload aborts the run.
fn fail_on_error_diagnostics(what: &str, report: &ric::AnalysisReport) {
    if report.has_errors() {
        eprintln!("regen_tables: {what} fails static analysis:");
        for d in report.errors() {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
}

/// Run the shipped engine/par-suite workloads through the analyzer too — the
/// artifacts must never be regenerated from settings the gate would reject.
fn lint_shipped_workloads() {
    let (setting, db) = fd_instance(8);
    let _ = db;
    let cq: Query = parse_cq(&setting.schema, "Q(C) :- Supt('e0', D, C).")
        .expect("fixed query")
        .into();
    fail_on_error_diagnostics("engine A/B CQ workload", &ric::analyze(&setting, &cq));
    let ucq: Query = parse_ucq(
        &setting.schema,
        "Q(C) :- Supt('e0', D, C). Q(C) :- Supt('e1', D, C).",
    )
    .expect("fixed query")
    .into();
    fail_on_error_diagnostics("engine A/B UCQ workload", &ric::analyze(&setting, &ucq));
}

fn print_analysis_suite(cells: &[AnalysisCell], median: f64) {
    println!("\nAnalysis A/B - naive FO dispatch vs analyzer-gated dispatch");
    println!("===========================================================");
    println!(
        "{:<42} {:>12} {:>12} {:>9} {:>7} {:>6}",
        "cell", "fo", "analyzed", "speedup", "agree", "downgr"
    );
    println!("{}", "-".repeat(95));
    for c in cells {
        println!(
            "{:<42} {:>9} us {:>9} us {:>8.1}x {:>7} {:>6}",
            c.cell,
            c.fo_us,
            c.analyzed_us,
            c.speedup(),
            c.agree,
            c.downgrades
        );
    }
    println!("median speedup at largest size: {median:.1}x");
}

fn write_analysis_suite(path: &str, cells: &[AnalysisCell], median: f64, meta: &Json) {
    let doc = Json::obj([
        ("source", Json::from("regen_tables")),
        ("meta", meta.clone()),
        (
            "dispatches",
            Json::arr(["fo_cell", "analyzed"].map(Json::from)),
        ),
        ("cells", Json::arr(cells.iter().map(AnalysisCell::to_json))),
        ("median_speedup_at_largest", Json::from(median)),
    ]);
    match std::fs::write(path, format!("{}\n", doc.pretty())) {
        Ok(()) => println!("wrote {path} ({} cells)", cells.len()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    println!("Relative Information Completeness: empirical Tables I and II");
    println!("(Fan & Geerts, PODS 2009 / TODS 2010; see EXPERIMENTS.md)");
    let inv = parse_invocation();
    println!("evaluation engine for the table cells: {}", inv.engine);
    if let Some(d) = inv.deadline {
        println!(
            "per-decision wall-clock deadline: {} ms (slow cells degrade to Unknown)",
            d.as_millis()
        );
    }
    let t1 = table1(&inv);
    print_table("Table I - RCDP(L_Q, L_C)", &t1);
    let t2 = table2(&inv);
    print_table("Table II - RCQP(L_Q, L_C)", &t2);
    let engine_cells = engine_suite(&inv);
    let median = median_speedup_at_largest(&engine_cells);
    print_engine_suite(&engine_cells, median);
    lint_shipped_workloads();
    let analysis_cells = analysis_suite(&inv);
    let analysis_median = self::median(
        analysis_cells
            .iter()
            .filter(|c| c.largest)
            .map(AnalysisCell::speedup)
            .collect(),
    );
    print_analysis_suite(&analysis_cells, analysis_median);
    println!();
    let meta = meta_json(&inv);
    write_table("BENCH_TABLE1.json", "I", "RCDP(L_Q, L_C)", &t1, &meta);
    write_table("BENCH_TABLE2.json", "II", "RCQP(L_Q, L_C)", &t2, &meta);
    write_engine_suite("BENCH_ENGINE.json", &engine_cells, median, &meta);
    write_analysis_suite(
        "BENCH_ANALYSIS.json",
        &analysis_cells,
        analysis_median,
        &meta,
    );
    if let Some(path) = &inv.trace {
        write_trace(path, &inv);
    }
}

/// Stream a JSONL decision trace to `path`: a handful of representative
/// decisions run through the `try_` facade with one shared [`TraceState`]
/// attached, so each decision appears as one root `decision` span with
/// monotonically increasing span ids. This is the input format of the
/// `ric-trace` CLI (`tree` / `prune` / `diff`).
fn write_trace(path: &str, inv: &Invocation) {
    use ric::{JsonlSink, TraceState};

    let file = match std::fs::File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("could not create {path}: {e}");
            std::process::exit(1);
        }
    };
    let sink = JsonlSink::new(file);
    let trace = TraceState::new();
    let budget = bounded(SearchBudget::default(), inv);
    let mut rng = SplitMix64::seed_from_u64(7);
    let params = WorkloadParams {
        n_customers: 12,
        n_employees: 3,
        n_support: 24,
    };
    let inst = planted_rcdp(&params, false, &mut rng);
    let mut decisions = 0usize;
    let mut run = |what: &str, outcome: Result<(), String>| match outcome {
        Ok(()) => decisions += 1,
        Err(e) => eprintln!("regen_tables: traced {what} failed: {e}"),
    };

    // Decision 1: the planted RCDP workload under the invocation's engine —
    // the typical sequential trace with depth profile and cc attribution.
    run(
        "rcdp",
        try_rcdp_probed(
            &inst.setting,
            &inst.query,
            &inst.db,
            &budget,
            Probe::attached(&sink).with_trace(&trace),
        )
        .map(drop)
        .map_err(|e| e.to_string()),
    );

    // Decision 2: RCQP on the same setting — the candidate-search span
    // family, and on tight budgets an `explain.frontier` narration.
    run(
        "rcqp",
        try_rcqp_probed(
            &inst.setting,
            &inst.query,
            &budget,
            Probe::attached(&sink).with_trace(&trace),
        )
        .map(drop)
        .map_err(|e| e.to_string()),
    );

    // Decision 3: a CQ-bodied FD setting under the planned engine — the
    // plan.explain / plan.cards telemetry the `ric-trace plan` report
    // renders (the planted workload's projection-bodied constraint set is
    // a pure IND set, which takes the containment shortcut and plans
    // nothing, so it cannot exercise this path).
    let (plan_setting, plan_db) = fd_instance(8);
    let plan_query: Query = parse_cq(&plan_setting.schema, "Q(C) :- Supt('e0', D, C).")
        .expect("fixed query")
        .into();
    let plan_budget = budget.with_engine(Engine::planned(1));
    run(
        "planned rcdp",
        try_rcdp_probed(
            &plan_setting,
            &plan_query,
            &plan_db,
            &plan_budget,
            Probe::attached(&sink).with_trace(&trace),
        )
        .map(drop)
        .map_err(|e| e.to_string()),
    );

    sink.flush();
    println!("wrote {path} ({decisions} traced decisions)");
}
