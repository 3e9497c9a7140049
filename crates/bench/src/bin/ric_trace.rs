//! `ric-trace` — render, summarize, and diff decision trace files.
//!
//! The `try_` facade entry points and `regen_tables --trace FILE` stream
//! decision telemetry as JSONL (one [`ric::Event`] per line, the
//! [`ric::JsonlSink`] schema). This CLI rebuilds those streams offline:
//!
//! * `ric-trace tree FILE` — render every decision in the file as a
//!   flamegraph-style text tree (one root `decision` span per decision,
//!   children indented, both timebases per span), followed by the decision's
//!   outcome/limit notes. The stream is segmented on root `span_open` lines,
//!   and every segment must satisfy the decision-trace contract (exactly one
//!   root, every span closed) — a malformed trace exits nonzero.
//! * `ric-trace prune FILE [K]` — the top-K pruning report: which pruning
//!   counters (`prune.cc.NN` constraint attribution, `prune.head` head
//!   filter, `depth.pruned.NN` per-depth families) did the work, per
//!   decision and totalled over the file.
//! * `ric-trace plan FILE` — the query-plan report for planned-engine
//!   traces: per decision, whether the preparation was compiled or reused,
//!   the chosen join orders with per-atom access paths and cost estimates
//!   (the `plan.explain` note), and the planner's assumed row counts against
//!   the decision database's actual ones (the `plan.cards` note).
//! * `ric-trace diff A B` — compare two trace files (summed counters, span
//!   wall/tick totals, decision counts) or two `BENCH_*.json` artifacts
//!   (per-cell timing and outcome, keyed by the `cell` string). A bar
//!   cell's timing drift is flagged only when its arm-B medians differ by
//!   more than `K_IQR` × the larger IQR; outcome drift is always flagged.
//!   The artifact mode is detected by the top-level `cells` array.
//!
//! Exit codes: 0 on success, 1 on malformed input, 2 on usage errors.
//!
//! Everything here re-parses what the workspace itself wrote — the JSON
//! model, the tree builder, and the top-K helper are the same code the
//! in-process [`ric::Explain`] path uses, so the CLI cannot drift from the
//! sink schema without a test noticing.

use std::collections::BTreeMap;
use std::process::ExitCode;

use ric::telemetry::json::{self, Json};
use ric::telemetry::{top_k_counters, SpanTree, TreeBuilder};
use ric_bench::bars;
use ric_bench::trace_load::{load_trace as load_trace_typed, Segment};

const USAGE: &str = "usage: ric-trace <command> [args]\n\
  tree  FILE       render each decision's span tree from a JSONL trace\n\
  prune FILE [K]   top-K pruning report (default K=10)\n\
  plan  FILE       query-plan report (join orders, estimates, cardinalities)\n\
  diff  A B        diff two JSONL traces, or two BENCH_*.json artifacts";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["tree", path] => cmd_tree(path),
        ["prune", path] => cmd_prune(path, 10),
        ["prune", path, k] => match k.parse::<usize>() {
            Ok(k) if k >= 1 => cmd_prune(path, k),
            _ => {
                eprintln!("ric-trace: prune expects a positive K, got {k:?}");
                return ExitCode::from(2);
            }
        },
        ["plan", path] => cmd_plan(path),
        ["diff", a, b] => cmd_diff(a, b),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ric-trace: {msg}");
            ExitCode::FAILURE
        }
    }
}

// ── JSONL ingestion ─────────────────────────────────────────────────────
//
// The parser itself lives in `ric_bench::trace_load` so tests can drive it
// against corrupt and truncated inputs without shelling out to this binary;
// its typed, line-numbered [`TraceLoadError`] renders here as the CLI's
// one-line failure message.

fn load_trace(path: &str) -> Result<Vec<Segment>, String> {
    load_trace_typed(path).map_err(|e| e.to_string())
}

// ── tree ────────────────────────────────────────────────────────────────

fn cmd_tree(path: &str) -> Result<(), String> {
    let segments = load_trace(path)?;
    let n = segments.len();
    for (i, mut seg) in segments.into_iter().enumerate() {
        let tree = seg_tree_checked(std::mem::take(&mut seg.tree), i + 1)?;
        println!("decision {}/{n}", i + 1);
        for line in tree.render().lines() {
            println!("  {line}");
        }
        if let Some(outcome) = seg.outcome() {
            println!("  outcome: {outcome}");
        }
        if let Some(limit) = seg.limit() {
            println!("  limit:   {limit}");
        }
        for (name, detail) in seg.explains() {
            println!("  {name}: {detail}");
        }
        for (name, reason) in &seg.interrupts {
            println!("  interrupt: {name} ({reason})");
        }
        println!();
    }
    Ok(())
}

/// Finish a segment's tree and hold it to the decision-trace contract.
fn seg_tree_checked(builder: TreeBuilder, decision: usize) -> Result<SpanTree, String> {
    let tree = builder.finish();
    tree.require_decision()
        .map_err(|e| format!("decision {decision}: {e}"))?;
    Ok(tree)
}

// ── prune ───────────────────────────────────────────────────────────────

/// The counter families that record pruning work.
const PRUNE_PREFIXES: [&str; 2] = ["prune.", "depth.pruned."];

fn prune_counters(counters: &BTreeMap<String, u64>, k: usize) -> Vec<(String, u64)> {
    let mut hits: Vec<(String, u64)> = PRUNE_PREFIXES
        .iter()
        .flat_map(|prefix| top_k_counters(counters, prefix, k))
        .collect();
    // Re-rank the union of both families: descending by count, name-stable.
    hits.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    hits.truncate(k);
    hits
}

fn print_prune_block(counters: &BTreeMap<String, u64>, k: usize) {
    let hits = prune_counters(counters, k);
    if hits.is_empty() {
        println!("  (no pruning counters)");
        return;
    }
    let candidates: u64 = counters
        .iter()
        .filter(|(name, _)| name.starts_with("depth.candidates."))
        .map(|(_, v)| v)
        .sum();
    for (name, count) in hits {
        println!("  {name:<24} {count:>12}");
    }
    if candidates > 0 {
        println!("  {:<24} {candidates:>12}", "candidates (all depths)");
    }
}

fn cmd_prune(path: &str, k: usize) -> Result<(), String> {
    let segments = load_trace(path)?;
    let n = segments.len();
    let mut total: BTreeMap<String, u64> = BTreeMap::new();
    for (i, seg) in segments.iter().enumerate() {
        let label = seg.outcome().unwrap_or("?");
        println!("decision {}/{n} (outcome: {label})", i + 1);
        print_prune_block(&seg.counters, k);
        println!();
        for (name, v) in &seg.counters {
            *total.entry(name.clone()).or_insert(0) += v;
        }
    }
    println!("total over {n} decision(s)");
    print_prune_block(&total, k);
    Ok(())
}

// ── plan ────────────────────────────────────────────────────────────────

fn cmd_plan(path: &str) -> Result<(), String> {
    let segments = load_trace(path)?;
    let n = segments.len();
    let mut planned = 0usize;
    for (i, seg) in segments.iter().enumerate() {
        let label = seg.outcome().unwrap_or("?");
        println!("decision {}/{n} (outcome: {label})", i + 1);
        match ric_bench::plan_report::plan_report(seg) {
            Some(report) => {
                planned += 1;
                for line in report.lines() {
                    println!("  {line}");
                }
            }
            None => println!("  (no plan telemetry — not a planned-engine decision)"),
        }
        println!();
    }
    if planned == 0 {
        println!("no planned-engine decisions in {n} segment(s); run under Engine::Planned");
    }
    Ok(())
}

// ── diff ────────────────────────────────────────────────────────────────

fn cmd_diff(a: &str, b: &str) -> Result<(), String> {
    let bench_a = load_bench(a)?;
    let bench_b = load_bench(b)?;
    match (bench_a, bench_b) {
        (Some(da), Some(db)) => diff_bench(a, &da, b, &db),
        (None, None) => diff_traces(a, b),
        _ => Err(format!(
            "{a} and {b} are different kinds of files (one BENCH artifact, one trace)"
        )),
    }
}

/// Try to read `path` as a `BENCH_*.json` artifact: a single JSON document
/// with a top-level `cells` array. Returns `Ok(None)` for JSONL traces.
fn load_bench(path: &str) -> Result<Option<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    match json::parse(&text) {
        Ok(doc) if doc.get("cells").is_some() => Ok(Some(doc)),
        Ok(_) | Err(_) => Ok(None),
    }
}

/// Print the cell-by-cell comparison of two artifacts. A warning block
/// comes first when their `meta` differs. A cell is flagged for timing
/// drift only beyond the artifacts' recorded spread (see [`bars::diff`]),
/// and always for outcome drift.
fn diff_bench(name_a: &str, a: &Json, name_b: &str, b: &Json) -> Result<(), String> {
    let mismatch = bars::meta_mismatch(a, b);
    if !mismatch.is_empty() {
        println!("WARNING: artifacts were produced under different conditions; timings and");
        println!("         outcomes may differ for that reason alone, not as a regression.");
        for line in &mismatch {
            println!("         {line}");
        }
        println!("         (A = {name_a}, B = {name_b})");
        println!();
    }
    let diff = bars::diff(a, b)?;
    println!(
        "{:<48} {:>12} {:>12} {:>9}",
        "cell", "A µs", "B µs", "ratio"
    );
    println!("{}", "-".repeat(86));
    for row in &diff.rows {
        let [ta, tb] = row.timing;
        let flag = match (row.outcome_drift(), row.timing_drift) {
            (true, _) => "  OUTCOME DRIFT",
            (false, true) => "  TIMING DRIFT",
            (false, false) => "",
        };
        println!(
            "{:<48} {:>12.0} {:>12.0} {:>8.2}x{flag}",
            row.cell,
            ta.us,
            tb.us,
            tb.us / ta.us.max(1.0)
        );
        if row.outcome_drift() {
            println!("    A: {}", row.outcome[0]);
            println!("    B: {}", row.outcome[1]);
        }
    }
    for key in &diff.only_a {
        println!("{key:<48} {:>12} {:>12} {:>9}", "?", "-", "-");
    }
    for key in &diff.only_b {
        println!("{key:<48} {:>12} {:>12} {:>9}", "-", "?", "-");
    }
    if !diff.only_a.is_empty() || !diff.only_b.is_empty() {
        println!(
            "(cells only in A: {}, only in B: {})",
            diff.only_a.len(),
            diff.only_b.len()
        );
    }
    Ok(())
}

/// File-wide aggregate of a trace: summed counters, per-name span totals.
struct TraceTotals {
    decisions: usize,
    counters: BTreeMap<String, u64>,
    span_micros: BTreeMap<String, u128>,
    span_ticks: BTreeMap<String, u64>,
}

fn trace_totals(path: &str) -> Result<TraceTotals, String> {
    let segments = load_trace(path)?;
    let mut totals = TraceTotals {
        decisions: segments.len(),
        counters: BTreeMap::new(),
        span_micros: BTreeMap::new(),
        span_ticks: BTreeMap::new(),
    };
    for (i, seg) in segments.into_iter().enumerate() {
        let tree = seg_tree_checked(seg.tree, i + 1)?;
        for record in tree.records() {
            *totals.span_micros.entry(record.name.clone()).or_insert(0) += record.micros;
            *totals.span_ticks.entry(record.name.clone()).or_insert(0) += record.ticks;
        }
        for (name, v) in seg.counters {
            *totals.counters.entry(name).or_insert(0) += v;
        }
    }
    Ok(totals)
}

fn diff_traces(a: &str, b: &str) -> Result<(), String> {
    let ta = trace_totals(a)?;
    let tb = trace_totals(b)?;
    println!("decisions: A={} B={}", ta.decisions, tb.decisions);

    println!("\ncounters (summed over all decisions; only differing names)");
    println!("{:<28} {:>14} {:>14} {:>14}", "counter", "A", "B", "delta");
    println!("{}", "-".repeat(74));
    let names: std::collections::BTreeSet<&String> =
        ta.counters.keys().chain(tb.counters.keys()).collect();
    let mut differing = 0usize;
    for name in names {
        let va = ta.counters.get(name).copied().unwrap_or(0);
        let vb = tb.counters.get(name).copied().unwrap_or(0);
        if va != vb {
            differing += 1;
            let delta = vb as i128 - va as i128;
            println!("{name:<28} {va:>14} {vb:>14} {delta:>+14}");
        }
    }
    if differing == 0 {
        println!("(all counters identical)");
    }

    println!("\nspans (wall µs summed per name; deterministic ticks alongside)");
    println!(
        "{:<28} {:>12} {:>12} {:>9} {:>9}",
        "span", "A µs", "B µs", "A ticks", "B ticks"
    );
    println!("{}", "-".repeat(76));
    let names: std::collections::BTreeSet<&String> =
        ta.span_micros.keys().chain(tb.span_micros.keys()).collect();
    for name in names {
        let ua = ta.span_micros.get(name).copied().unwrap_or(0);
        let ub = tb.span_micros.get(name).copied().unwrap_or(0);
        let ka = ta.span_ticks.get(name).copied().unwrap_or(0);
        let kb = tb.span_ticks.get(name).copied().unwrap_or(0);
        println!("{name:<28} {ua:>12} {ub:>12} {ka:>9} {kb:>9}");
    }
    Ok(())
}
