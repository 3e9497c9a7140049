//! `perfbench` — the end-to-end and per-layer benchmark of the `ric` facade.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client drives the library from a single thread in a closed loop.
//! Inputs come from `--seed`; every op's verdict is checked against the
//! verdict its input was planted to have. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! * `--trace 0` reports the end-to-end metrics: `setup_s`, `lat_p50_us`
//!   and `lat_p99_us` (per op), `ops_per_s` (ops per slice over the median
//!   slice time) and `peak_rss_mib`. A slice is a fixed group of
//!   consecutive ops with the same mix of input classes as every other;
//!   the times come from the fastest tenth of the slices and of the
//!   set-ups (see [`fast`]).
//! * `--trace 1` reports the per-layer metrics: slices alternate between
//!   untraced and traced; traced ops time each call into a layer and read
//!   the library's counters. Counts are taken over a fixed window of the
//!   op sequence, so they repeat exactly.
//!
//! Lines before the result carry diagnostics: the share of failed ops, the
//! verdict digest of the first ops (equal digests mean equal verdicts,
//! certificates included), the latency of each input class, and
//! `host.calib_us`, the time of a fixed reference loop run between slices,
//! which shows when a run met a slow phase of the host. It is not used to
//! correct any figure.

mod adapter;
mod alloc;
mod gen;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use adapter::Collector;
use trace::{Layers, Tracer};
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run, spread over it; `setup_s` is the median of the
/// fastest tenth.
const SETUP_REPS: usize = 40;
/// The share of slices (and set-ups) the timing figures are taken from:
/// the fastest ones.
const FAST_SHARE: f64 = 0.1;
/// Fewest ops a run measures, whatever `--seconds` says.
const MIN_OPS: usize = 1000;
/// Fewest slices a run measures.
const MIN_SLICES: usize = 16;
/// Traced slices whose counts are reported.
const COUNT_SLICES: usize = 4;
/// Ops covered by the verdict digest (every run reaches them).
const DIGEST_OPS: usize = MIN_OPS;
/// Ops a run records at most; a run that reaches it ends there.
const MAX_OPS: usize = 1 << 20;
/// A run ends here even if it has not reached its minimums.
const HARD_STOP: Duration = Duration::from_secs(150);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).clamp(0.1, 120.0),
        trace: trace.unwrap_or(false),
    })
}

/// The fixed reference loop timed between slices.
fn calib_us() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e6
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a, for the verdict digest.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One slice: a group of consecutive ops, traced or not.
struct Slice {
    traced: bool,
    /// Summed op time.
    secs: f64,
    /// Its ops: op numbers `ops.start..ops.end`.
    ops: std::ops::Range<usize>,
}

/// One measured run of the op loop.
struct Run {
    attempted: usize,
    failed: usize,
    slices: Vec<Slice>,
    /// Each op's time in µs and class (an index into `classes`). Allocated
    /// and written in full before the first op, so the memory the run
    /// reports does not grow with the number of ops a fast host completes.
    op_us: Vec<f32>,
    op_class: Vec<u8>,
    classes: Vec<&'static str>,
    /// Set-up times, the first before the ops and the rest spread over the
    /// run.
    setup_s: Vec<f64>,
    calib_us: Vec<f64>,
    digest: u64,
}

/// The fastest tenth of the slices. On a shared host the speed of
/// memory-bound code switches between phases up to 1.6x apart, every few
/// seconds and sometimes for minutes. Every slice does the same mix of
/// work, so the fastest tenth measures the program in the fastest phase
/// the run met, and a slower program moves it with it. A run that meets no
/// fast phase reads slow; its `host.calib_us` minimum shows it.
fn fast<'a>(slices: impl Iterator<Item = &'a Slice>) -> Vec<&'a Slice> {
    let all: Vec<&Slice> = slices.collect();
    let limit = percentile(&all.iter().map(|s| s.secs).collect::<Vec<_>>(), FAST_SHARE);
    all.into_iter().filter(|s| s.secs <= limit).collect()
}

/// The same selection over set-up times.
fn fast_values(v: &[f64]) -> Vec<f64> {
    let limit = percentile(v, FAST_SHARE);
    v.iter().copied().filter(|&x| x <= limit).collect()
}

fn run_ops(
    w: &mut dyn Workload,
    inputs: &workloads::Inputs,
    args: &Args,
    layers: &mut Layers,
    col: &Collector,
) -> Run {
    let slice = w.slice_len();
    let mut run = Run {
        attempted: 0,
        failed: 0,
        slices: Vec::new(),
        op_us: vec![f32::NAN; MAX_OPS],
        op_class: vec![u8::MAX; MAX_OPS],
        classes: Vec::new(),
        setup_s: Vec::new(),
        calib_us: Vec::new(),
        digest: 0,
    };
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    let start = Instant::now();
    let measure = Duration::from_secs_f64(args.seconds);
    let setup_every = measure / SETUP_REPS as u32;
    let mut next_setup = setup_every;
    let mut i = 0usize;
    let mut traced_slices = 0usize;
    for s in 0.. {
        let elapsed = start.elapsed();
        let enough = run.attempted >= MIN_OPS
            && run.slices.len() >= MIN_SLICES
            && (!args.trace || traced_slices >= COUNT_SLICES);
        if (elapsed >= measure && enough) || elapsed >= HARD_STOP || i + slice > MAX_OPS {
            break;
        }
        // Traced runs report no set-up time, and a set-up in the middle of
        // them would change the process state the counts are taken in.
        if !args.trace && elapsed >= next_setup {
            // Set up again, untimed for the ops, so set-up time is sampled
            // across the host's phases; the copy is dropped.
            next_setup += setup_every;
            let t0 = Instant::now();
            let copy = workloads::setup(inputs, &mut Tracer::off());
            run.setup_s.push(t0.elapsed().as_secs_f64());
            drop(copy);
        }
        run.calib_us.push(calib_us());
        let traced = args.trace && s % 2 == 1;
        layers.det = traced && traced_slices < COUNT_SLICES;
        let mut cur = Slice {
            traced,
            secs: 0.0,
            ops: i..i + slice,
        };
        for _ in 0..slice {
            w.stage(i);
            let shadow0 = layers.shadow_us;
            let t0 = Instant::now();
            let res = {
                let mut t = if traced {
                    Tracer::on(layers, col)
                } else {
                    Tracer::off()
                };
                catch_unwind(AssertUnwindSafe(|| w.run(i, &mut t)))
            };
            let wall_us = t0.elapsed().as_secs_f64() * 1e6;
            let op_us = wall_us - (layers.shadow_us - shadow0);
            cur.secs += op_us / 1e6;
            let class = w.class_of(i);
            let k = match run.classes.iter().position(|c| *c == class) {
                Some(k) => k,
                None => {
                    run.classes.push(class);
                    run.classes.len() - 1
                }
            };
            run.op_us[i] = op_us as f32;
            run.op_class[i] = k as u8;
            let ok = match &res {
                Ok(Ok(done)) => {
                    if i < DIGEST_OPS {
                        fnv.eat(&(i as u64).to_le_bytes());
                        fnv.eat(done.render().as_bytes());
                    }
                    w.check(i, done)
                }
                Ok(Err(e)) => {
                    eprintln!("op {i}: {e}");
                    false
                }
                Err(_) => {
                    eprintln!("op {i}: panicked");
                    false
                }
            };
            run.attempted += 1;
            run.failed += usize::from(!ok);
            if layers.det {
                layers.det_ops += 1;
            }
            i += 1;
        }
        traced_slices += usize::from(traced);
        run.slices.push(cur);
    }
    layers.det = false;
    run.digest = fnv.0;
    run
}

/// The per-layer metrics: name, unit, and how the value is derived.
enum Kind {
    /// Median of the sampled times (µs, or ns for the per-valuation cost).
    Time,
    /// Count per op over the counting window (per set-up when the layer is
    /// only called in set-up).
    Count,
}

const PER_LAYER: [(&str, &str, Kind); 44] = [
    ("data.load_us", "us", Kind::Time),
    ("data.load.allocs", "count", Kind::Count),
    ("query.parse_us", "us", Kind::Time),
    ("query.eval_us", "us", Kind::Time),
    ("analysis.analyze_us", "us", Kind::Time),
    ("analysis.downgrade", "count", Kind::Count),
    ("analysis.analyze.allocs", "count", Kind::Count),
    ("reason.prepare_us", "us", Kind::Time),
    ("reason.cc.dropped", "count", Kind::Count),
    ("reason.static.complete", "count", Kind::Count),
    ("reason.cover_hit", "count", Kind::Count),
    ("reason.prepare.allocs", "count", Kind::Count),
    ("plan.prepare_us", "us", Kind::Time),
    ("plan.compile", "count", Kind::Count),
    ("constraints.partially_closed_us", "us", Kind::Time),
    ("rcdp.cc_checks", "count", Kind::Count),
    ("cc.skipped_by_delta", "count", Kind::Count),
    ("core.rcdp_us", "us", Kind::Time),
    ("rcdp.valuations", "count", Kind::Count),
    ("valuations.assignments", "count", Kind::Count),
    ("index.probe", "count", Kind::Count),
    ("core.ns_per_valuation", "ns", Kind::Time),
    ("core.rcdp.allocs", "count", Kind::Count),
    ("core.rcqp_us", "us", Kind::Time),
    ("rcqp.candidates", "count", Kind::Count),
    ("rcqp.valuations", "count", Kind::Count),
    ("ric.overhead_us", "us", Kind::Time),
    ("monitor.apply_skip_us", "us", Kind::Time),
    ("monitor.apply_fast_us", "us", Kind::Time),
    ("monitor.apply_redecide_us", "us", Kind::Time),
    ("monitor.apply.allocs", "count", Kind::Count),
    ("monitor.skip", "count", Kind::Count),
    ("monitor.memo.hit", "count", Kind::Count),
    ("monitor.fast_complete", "count", Kind::Count),
    ("monitor.recert.hit", "count", Kind::Count),
    ("monitor.recert.miss", "count", Kind::Count),
    ("monitor.redecide", "count", Kind::Count),
    ("monitor.cc.delta", "count", Kind::Count),
    ("monitor.cc.full", "count", Kind::Count),
    ("monitor.memo.evict", "count", Kind::Count),
    ("monitor.replan", "count", Kind::Count),
    ("monitor.fastpath_share", "share", Kind::Count),
    ("telemetry.trace_overhead_share", "share", Kind::Count),
    ("host.calib_us", "us", Kind::Time),
];

fn per_layer(layers: &Layers, run: &Run) -> Vec<(&'static str, &'static str, f64)> {
    let time = |name: &str| layers.times.get(name).map_or(0.0, |v| median(v));
    let count = |name: &str| match layers.op_counts.get(name) {
        Some(&c) => c as f64 / layers.det_ops.max(1) as f64,
        None => layers.setup_counts.get(name).copied().unwrap_or(0) as f64,
    };
    let ops_per_s = |traced: bool| {
        let secs: Vec<f64> = fast(run.slices.iter().filter(|s| s.traced == traced))
            .iter()
            .map(|s| s.secs)
            .collect();
        let m = median(&secs);
        if m > 0.0 {
            1.0 / m
        } else {
            0.0
        }
    };
    PER_LAYER
        .iter()
        .map(|(name, unit, kind)| {
            let value = match (*name, kind) {
                ("ric.overhead_us", _) => {
                    let core = if layers.times.contains_key("ric.core_us") {
                        time("ric.core_us")
                    } else {
                        time("core.rcqp_us")
                    };
                    if layers.times.contains_key("ric.try_us") {
                        time("ric.try_us") - core
                    } else {
                        0.0
                    }
                }
                ("monitor.fastpath_share", _) => {
                    let fast = count("monitor.txn.fast");
                    let redecide = count("monitor.txn.redecide");
                    if fast + redecide > 0.0 {
                        fast / (fast + redecide)
                    } else {
                        0.0
                    }
                }
                ("telemetry.trace_overhead_share", _) => {
                    let untraced = ops_per_s(false);
                    if untraced > 0.0 {
                        1.0 - ops_per_s(true) / untraced
                    } else {
                        0.0
                    }
                }
                ("host.calib_us", _) => median(&run.calib_us),
                (_, Kind::Time) => time(name),
                (_, Kind::Count) => count(name),
            };
            (*name, *unit, value)
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(inputs) = workloads::inputs(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {}; one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };

    let mut layers = Layers::default();
    let col = Collector::new();
    // The first set-up is the one the ops run on; when tracing, its counts
    // are the ones reported.
    layers.det = args.trace;
    layers.in_setup = true;
    let t0 = Instant::now();
    let res = {
        let mut t = if args.trace {
            Tracer::on(&mut layers, &col)
        } else {
            Tracer::off()
        };
        workloads::setup(&inputs, &mut t)
    };
    let first_setup_s = t0.elapsed().as_secs_f64() - layers.shadow_us / 1e6;
    layers.shadow_us = 0.0;
    layers.det = false;
    layers.in_setup = false;
    adapter::take_counters(&col);
    let mut w = match res {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };

    let mut run = run_ops(w.as_mut(), &inputs, &args, &mut layers, &col);
    run.setup_s.push(first_setup_s);

    let fail_share = run.failed as f64 / run.attempted.max(1) as f64;
    let kept = fast(run.slices.iter().filter(|s| !s.traced));
    let untraced = run.slices.iter().filter(|s| !s.traced).count();
    println!(
        "# workload={} seed={} ops={} slices={} fail_share={fail_share}",
        args.workload,
        args.seed,
        run.attempted,
        run.slices.len()
    );
    println!(
        "# verdict_digest={:016x} over the first {DIGEST_OPS} ops",
        run.digest
    );
    println!(
        "# host.calib_us median={:.2} min={:.2} max={:.2}; slices kept={:.3}",
        median(&run.calib_us),
        percentile(&run.calib_us, 0.0),
        percentile(&run.calib_us, 1.0),
        kept.len() as f64 / untraced.max(1) as f64
    );
    let kept_ops = || kept.iter().flat_map(|s| s.ops.clone());
    let lat_us: Vec<f64> = kept_ops().map(|k| f64::from(run.op_us[k])).collect();
    let mut by_class: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for k in kept_ops() {
        let class = run.classes[usize::from(run.op_class[k])];
        by_class
            .entry(class)
            .or_default()
            .push(f64::from(run.op_us[k]));
    }
    for (class, v) in &by_class {
        println!(
            "# class {class}: share={:.3} p50_us={:.1} p99_us={:.1}",
            v.len() as f64 / lat_us.len().max(1) as f64,
            median(v),
            percentile(v, 0.99)
        );
    }
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        per_layer(&layers, &run)
    } else {
        let slice = w.slice_len() as f64;
        let secs: Vec<f64> = kept.iter().map(|s| s.secs).collect();
        vec![
            ("setup_s", "s", median(&fast_values(&run.setup_s))),
            ("lat_p50_us", "us", percentile(&lat_us, 0.50)),
            ("lat_p99_us", "us", percentile(&lat_us, 0.99)),
            ("ops_per_s", "1/s", slice / median(&secs)),
            ("peak_rss_mib", "MiB", peak_rss_mib()),
        ]
    };
    let mut obj = String::new();
    for (k, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            obj,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{obj}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed
    );
    ExitCode::SUCCESS
}
