//! One noise-aware runner for every timing bar in `crates/bench`.
//!
//! A *bar* is a claim about the ratio of two arms' wall times on one
//! workload cell: resuming from a checkpoint costs at most 1.10× a re-run,
//! the monitor keeps verdicts current at least 5× faster than re-deciding,
//! and so on. A cell is measured in one of two ways:
//!
//! * [`measure`] times interleaved A/B pairs and alternates which arm goes
//!   first, so a change in host load lands on both arms alike;
//! * a stream suite (the monitor) times one sample per transaction itself
//!   and hands both sample lists to [`Arm::from_samples`].
//!
//! Either way the cell records the median and interquartile range (IQR) of
//! each arm, `ratio = median(A) / median(B)`, its [`Bar`], whether the bar
//! holds (`ok`), and whether the arms returned identical verdicts.
//! [`print_table`] renders cells, [`write_artifact`] writes a document, and
//! [`diff`] compares two artifacts for `ric-trace diff`.

use std::time::{Duration, Instant};

use ric::telemetry::Json;
use ric::Engine;

/// A/B pairs [`measure`] times per cell.
const PAIRS: usize = 10;

/// `ric-trace diff` flags a cell's timing drift only when the two arm-B
/// medians differ by more than `K_IQR` times the larger of the two IQRs.
pub const K_IQR: f64 = 3.0;

/// Version of the artifact layout. Bump when a key is renamed or removed;
/// additions are backwards-compatible and do not bump it.
const ARTIFACT_SCHEMA_VERSION: u64 = 1;

/// The claim a cell's ratio is held to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bar {
    /// `ratio >= x`.
    AtLeast(f64),
    /// `ratio <= x`.
    AtMost(f64),
    /// No claim: the ratio is recorded only.
    Record,
}

impl Bar {
    /// Whether `ratio` meets the bar; a [`Bar::Record`] always holds.
    pub fn holds(self, ratio: f64) -> bool {
        match self {
            Bar::AtLeast(x) => ratio >= x,
            Bar::AtMost(x) => ratio <= x,
            Bar::Record => true,
        }
    }

    fn describe(self) -> String {
        match self {
            Bar::AtLeast(x) => format!(">= {x}x"),
            Bar::AtMost(x) => format!("<= {x}x"),
            Bar::Record => "record".into(),
        }
    }

    fn to_json(self) -> Json {
        match self {
            Bar::AtLeast(x) => Json::obj([("at_least", Json::from(x))]),
            Bar::AtMost(x) => Json::obj([("at_most", Json::from(x))]),
            Bar::Record => Json::from("record"),
        }
    }
}

/// One arm of a cell: what ran, and the spread of its wall times.
#[derive(Clone, Debug, PartialEq)]
pub struct Arm {
    /// What the arm runs, e.g. `naive` or `planned`.
    pub label: &'static str,
    /// Median wall time, µs.
    pub median_us: f64,
    /// Interquartile range of the wall times, µs.
    pub iqr_us: f64,
    /// Number of samples.
    pub samples: usize,
}

impl Arm {
    /// Summarize wall-time samples (µs). An empty list yields zeros.
    pub fn from_samples(label: &'static str, samples: &[f64]) -> Arm {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Arm {
            label,
            median_us: quantile(&sorted, 0.5),
            iqr_us: quantile(&sorted, 0.75) - quantile(&sorted, 0.25),
            samples: sorted.len(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::from(self.label)),
            ("median_us", Json::from(self.median_us)),
            ("iqr_us", Json::from(self.iqr_us)),
            ("samples", Json::from(self.samples)),
        ])
    }
}

/// The `p`-quantile of ascending `sorted`, interpolating linearly between
/// the two nearest ranks. An empty slice yields 0.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let h = last as f64 * p;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// One measured cell of a suite.
#[derive(Clone, Debug, PartialEq)]
pub struct BarCell {
    /// The suite the cell belongs to: `engine`, `analysis`, `monitor`,
    /// `static` or `resume`.
    pub suite: &'static str,
    /// The cell label, unique within an artifact.
    pub cell: String,
    /// Arm A, the ratio's numerator.
    pub a: Arm,
    /// Arm B, the ratio's denominator.
    pub b: Arm,
    /// `median(A) / median(B)`.
    pub ratio: f64,
    /// The claim the ratio is held to.
    pub bar: Bar,
    /// Whether `ratio` meets `bar`.
    pub ok: bool,
    /// Whether both arms returned the same verdicts on every run.
    pub verdicts_identical: bool,
}

impl BarCell {
    /// A cell from its two arms; computes `ratio` and `ok`.
    pub fn new(
        suite: &'static str,
        cell: String,
        a: Arm,
        b: Arm,
        bar: Bar,
        verdicts_identical: bool,
    ) -> BarCell {
        let ratio = a.median_us / b.median_us.max(f64::MIN_POSITIVE);
        BarCell {
            suite,
            cell,
            a,
            b,
            ratio,
            bar,
            ok: bar.holds(ratio),
            verdicts_identical,
        }
    }

    /// Whether the cell passes: the bar holds and the verdicts agree.
    pub fn passes(&self) -> bool {
        self.ok && self.verdicts_identical
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("suite", Json::from(self.suite)),
            ("cell", Json::from(self.cell.as_str())),
            ("a", self.a.to_json()),
            ("b", self.b.to_json()),
            ("ratio", Json::from(self.ratio)),
            ("bar", self.bar.to_json()),
            ("ok", Json::from(self.ok)),
            ("verdicts_identical", Json::from(self.verdicts_identical)),
        ])
    }
}

/// Measure one cell on `PAIRS` (10) interleaved runs of `a` and `b`: even
/// pairs run `a` first and odd pairs run `b` first. The verdicts count as
/// identical when `same` holds for the two results of every pair.
pub fn measure<T>(
    suite: &'static str,
    cell: String,
    labels: [&'static str; 2],
    bar: Bar,
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> T,
    same: impl Fn(&T, &T) -> bool,
) -> BarCell {
    fn timed<T>(f: &mut impl FnMut() -> T) -> (f64, T) {
        let start = Instant::now();
        let out = f();
        (start.elapsed().as_secs_f64() * 1e6, out)
    }
    let (mut a_us, mut b_us) = (Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS));
    let mut identical = true;
    for i in 0..PAIRS {
        let ((ta, ra), (tb, rb)) = if i % 2 == 0 {
            let ra = timed(&mut a);
            (ra, timed(&mut b))
        } else {
            let rb = timed(&mut b);
            (timed(&mut a), rb)
        };
        a_us.push(ta);
        b_us.push(tb);
        identical &= same(&ra, &rb);
    }
    BarCell::new(
        suite,
        cell,
        Arm::from_samples(labels[0], &a_us),
        Arm::from_samples(labels[1], &b_us),
        bar,
        identical,
    )
}

/// Print `cells` as one table: each arm's median ± IQR, the ratio, the bar
/// and its outcome.
pub fn print_table(cells: &[BarCell]) {
    let arm = |a: &Arm| format!("{} {:.0}±{:.0}", a.label, a.median_us, a.iqr_us);
    println!(
        "{:<8} {:<50} {:>32} {:>24} {:>9} {:>9}  outcome",
        "suite", "cell", "A µs (median±IQR)", "B µs (median±IQR)", "ratio", "bar"
    );
    println!("{}", "-".repeat(146));
    for c in cells {
        let outcome = match (c.ok, c.verdicts_identical) {
            (_, false) => "VERDICT DRIFT",
            (true, true) => "ok",
            (false, true) => "MISS",
        };
        println!(
            "{:<8} {:<50} {:>32} {:>24} {:>8.2}x {:>9}  {outcome}",
            c.suite,
            c.cell,
            arm(&c.a),
            arm(&c.b),
            c.ratio,
            c.bar.describe()
        );
    }
}

/// The provenance block every `BENCH_*.json` artifact carries, so two
/// artifacts can be compared without guessing at their origins. `git`
/// degrades to `"unknown"` outside a checkout.
pub fn meta(engine: Engine, deadline: Option<Duration>) -> Json {
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
        ("engine", Json::from(engine.to_string())),
        (
            "deadline_ms",
            deadline.map_or(Json::Null, |d| Json::from(d.as_millis())),
        ),
        ("git", Json::from(git)),
    ])
}

/// Write `doc` to `path` (pretty-printed, newline-terminated).
pub fn write_artifact(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{}\n", doc.pretty()))
        .map_err(|e| format!("could not write {path}: {e}"))
}

/// The `BENCH_BARS.json` document for `cells`.
pub fn bars_doc(cells: &[BarCell], meta: Json) -> Json {
    Json::obj([
        ("source", Json::from("bench_bars")),
        ("meta", meta),
        ("all_ok", Json::from(cells.iter().all(BarCell::passes))),
        ("cells", Json::arr(cells.iter().map(BarCell::to_json))),
    ])
}

// ── diff ────────────────────────────────────────────────────────────────

/// A cell's timing as `ric-trace diff` compares it: arm B of a bar cell, or
/// the `micros` of a Table I/II cell, which records no spread.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Median (bar cells) or single (table cells) wall time, µs.
    pub us: f64,
    /// The IQR, when the artifact records one.
    pub iqr_us: Option<f64>,
}

/// One row of `ric-trace diff A B` for artifacts: a cell present in both.
#[derive(Clone, Debug, PartialEq)]
pub struct CellDiff {
    /// The `cell` label both artifacts share.
    pub cell: String,
    /// Timing in A and in B.
    pub timing: [Timing; 2],
    /// Outcome text in A and in B.
    pub outcome: [String; 2],
    /// The medians differ by more than [`K_IQR`] × the larger IQR. Never
    /// set for cells without a recorded IQR.
    pub timing_drift: bool,
}

impl CellDiff {
    /// Whether the outcomes differ; always worth flagging.
    pub fn outcome_drift(&self) -> bool {
        self.outcome[0] != self.outcome[1]
    }
}

/// Every cell of two artifacts, compared: rows for cells in both (in A's
/// order), then the labels only in A and only in B.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ArtifactDiff {
    /// Cells present in both artifacts.
    pub rows: Vec<CellDiff>,
    /// Labels only in A.
    pub only_a: Vec<String>,
    /// Labels only in B.
    pub only_b: Vec<String>,
}

fn num(v: &Json) -> Option<f64> {
    match v {
        Json::Num(x) => Some(*x),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// A cell's label, timing and outcome text.
fn cell_summary(cell: &Json, i: usize) -> Result<(String, Timing, String), String> {
    let label = cell
        .get("cell")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("cell {i} has no `cell` string"))?
        .to_string();
    let arm_b = cell.get("b");
    let us = match arm_b {
        Some(arm) => arm.get("median_us").and_then(num),
        None => cell.get("micros").and_then(num),
    }
    .ok_or_else(|| format!("cell {label:?} has no timing field"))?;
    let iqr_us = arm_b.and_then(|arm| arm.get("iqr_us")).and_then(num);
    let flag = |key: &str| cell.get(key).map(|v| *v == Json::Bool(true));
    let outcome = match (cell.get("outcome").and_then(Json::as_str), flag("ok")) {
        (Some(text), _) => text.to_string(),
        (None, Some(ok)) => format!(
            "ok={ok} verdicts_identical={}",
            flag("verdicts_identical").unwrap_or(false)
        ),
        (None, None) => "-".to_string(),
    };
    Ok((label, Timing { us, iqr_us }, outcome))
}

fn cells(doc: &Json, which: &str) -> Result<Vec<(String, Timing, String)>, String> {
    doc.get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{which}: `cells` is not an array"))?
        .iter()
        .enumerate()
        .map(|(i, cell)| cell_summary(cell, i).map_err(|e| format!("{which}: {e}")))
        .collect()
}

/// Compare two artifacts (`BENCH_BARS.json` or `BENCH_TABLE{1,2}.json`)
/// cell by cell, keyed by the `cell` label.
pub fn diff(a: &Json, b: &Json) -> Result<ArtifactDiff, String> {
    let (ca, cb) = (cells(a, "A")?, cells(b, "B")?);
    let mut out = ArtifactDiff::default();
    for (label, ta, oa) in &ca {
        match cb.iter().find(|(l, ..)| l == label) {
            Some((_, tb, ob)) => {
                let spread = match (ta.iqr_us, tb.iqr_us) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    _ => None,
                };
                out.rows.push(CellDiff {
                    cell: label.clone(),
                    timing: [*ta, *tb],
                    outcome: [oa.clone(), ob.clone()],
                    timing_drift: spread.is_some_and(|s| (tb.us - ta.us).abs() > K_IQR * s),
                });
            }
            None => out.only_a.push(label.clone()),
        }
    }
    out.only_b = cb
        .into_iter()
        .map(|(label, ..)| label)
        .filter(|label| !ca.iter().any(|(l, ..)| l == label))
        .collect();
    Ok(out)
}

/// The `meta` fields on which two artifacts differ, as `key: A=.. B=..`
/// lines: timings and outcomes produced under different engines, deadlines
/// or layouts may differ for that reason alone.
pub fn meta_mismatch(a: &Json, b: &Json) -> Vec<String> {
    let field = |doc: &Json, key: &str| -> String {
        match doc.get("meta").and_then(|m| m.get(key)) {
            None => "absent".into(),
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Int(i)) => i.to_string(),
            Some(Json::Null) => "null".into(),
            Some(_) => "?".into(),
        }
    };
    ["engine", "deadline_ms", "schema_version"]
        .into_iter()
        .filter_map(|key| {
            let (va, vb) = (field(a, key), field(b, key));
            (va != vb).then(|| format!("{key}: A={va} B={vb}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn run<T>(a: impl FnMut() -> T, b: impl FnMut() -> T, same: fn(&T, &T) -> bool) -> BarCell {
        measure("t", "c".into(), ["a", "b"], Bar::Record, a, b, same)
    }

    #[test]
    fn pairs_alternate_which_arm_runs_first() {
        let order = RefCell::new(String::new());
        let cell = run(
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
            |_, _| true,
        );
        assert_eq!(order.into_inner(), "abba".repeat(PAIRS / 2));
        assert_eq!((cell.a.samples, cell.b.samples), (PAIRS, PAIRS));
        assert!(cell.verdicts_identical);
    }

    #[test]
    fn a_single_differing_pair_clears_verdict_identity() {
        let mut calls = 0;
        let b = || {
            calls += 1;
            u8::from(calls == 2)
        };
        assert!(!run(|| 0, b, |a, b| a == b).verdicts_identical);
    }

    #[test]
    fn median_and_quartiles_on_odd_and_even_samples() {
        // Odd: 1..=5 in scrambled order; ranks 1, 2, 3 are exact.
        let odd = Arm::from_samples("odd", &[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((odd.median_us, odd.iqr_us, odd.samples), (3.0, 2.0, 5));
        // Even: the median averages the middle two; quartiles interpolate
        // (q1 at rank 0.75 → 1.75, q3 at rank 2.25 → 3.25).
        let even = Arm::from_samples("even", &[4.0, 2.0, 1.0, 3.0]);
        assert_eq!((even.median_us, even.iqr_us), (2.5, 1.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), 1.75);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.75), 3.25);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert_eq!(Arm::from_samples("none", &[]).median_us, 0.0);
    }

    #[test]
    fn bar_boundaries_hold() {
        assert!(Bar::AtMost(1.10).holds(1.10));
        assert!(!Bar::AtMost(1.10).holds(1.1000001));
        assert!(Bar::AtLeast(5.0).holds(5.0));
        assert!(!Bar::AtLeast(5.0).holds(4.999));
        assert!(Bar::Record.holds(0.0));
        let arm = |us| Arm::from_samples("x", &[us]);
        let cell = BarCell::new(
            "t",
            "c".into(),
            arm(11.0),
            arm(10.0),
            Bar::AtMost(1.10),
            true,
        );
        assert!(cell.ok && cell.passes());
        let cell = BarCell::new(
            "t",
            "c".into(),
            arm(50.0),
            arm(10.0),
            Bar::AtLeast(5.0),
            false,
        );
        assert!(cell.ok && !cell.passes());
    }
}
