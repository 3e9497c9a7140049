//! The traced run's recorder: wall time and allocation count of each call
//! into a layer, plus the program's own counters read through a
//! `Collector`.
//!
//! Counts are summed only inside a fixed window of the seeded op sequence
//! (and over the set-up the ops run on), so they repeat exactly from run to
//! run; times are sampled over every traced op.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{self, Collector};
use crate::alloc;

#[derive(Default)]
pub struct Layers {
    /// Inside the counting window.
    pub det: bool,
    /// Counting the set-up rather than ops.
    pub in_setup: bool,
    pub det_ops: u64,
    pub times: BTreeMap<&'static str, Vec<f64>>,
    pub op_counts: BTreeMap<&'static str, u64>,
    pub setup_counts: BTreeMap<&'static str, u64>,
    /// Microseconds of calls made only to attribute time to a layer; they
    /// are not part of the op and come off its time.
    pub shadow_us: f64,
}

impl Layers {
    pub fn count(&mut self, name: &'static str, v: u64) {
        if self.det {
            let map = if self.in_setup {
                &mut self.setup_counts
            } else {
                &mut self.op_counts
            };
            *map.entry(name).or_insert(0) += v;
        }
    }

    pub fn sample(&mut self, name: &'static str, us: f64) {
        self.times.entry(name).or_default().push(us);
    }
}

/// What a workload sees: a recorder when the op is traced, nothing when it
/// is not. Untraced, `span` is a plain call and `shadow` does not run.
pub struct Tracer<'a> {
    rec: Option<&'a mut Layers>,
    col: Option<&'a Collector>,
}

impl<'a> Tracer<'a> {
    pub fn off() -> Tracer<'static> {
        Tracer {
            rec: None,
            col: None,
        }
    }

    pub fn on(rec: &'a mut Layers, col: &'a Collector) -> Tracer<'a> {
        Tracer {
            rec: Some(rec),
            col: Some(col),
        }
    }

    pub fn traced(&self) -> bool {
        self.rec.is_some()
    }

    /// The collector to attach to library calls, when tracing.
    pub fn col(&self) -> Option<&'a Collector> {
        self.col
    }

    /// One call into a layer: its time under `name` and, with `allocs`,
    /// its allocation calls under that name.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        allocs: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let Some(rec) = self.rec.as_deref_mut() else {
            return f();
        };
        let a0 = alloc::count();
        let t0 = Instant::now();
        let out = f();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let allocated = alloc::count() - a0;
        rec.sample(name, us);
        if let Some(a) = allocs {
            rec.count(a, allocated);
        }
        out
    }

    /// A call made only to attribute time (the same input through another
    /// entry point); runs only when tracing, and its time comes off the
    /// op's. Returns the result and its time in µs.
    pub fn shadow<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> Option<(T, f64)> {
        let rec = self.rec.as_deref_mut()?;
        let t0 = Instant::now();
        let out = f();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        rec.sample(name, us);
        rec.shadow_us += us;
        Some((out, us))
    }

    pub fn count(&mut self, name: &'static str, v: u64) {
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.count(name, v);
        }
    }

    pub fn sample(&mut self, name: &'static str, us: f64) {
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.sample(name, us);
        }
    }

    /// Move what the collector saw into the counts and clear it. Returns
    /// the counters for callers that derive more from them.
    pub fn absorb(&mut self) -> BTreeMap<&'static str, u64> {
        let (Some(rec), Some(col)) = (self.rec.as_deref_mut(), self.col) else {
            return BTreeMap::new();
        };
        let counters = adapter::take_counters(col);
        for (name, v) in &counters {
            rec.count(name, *v);
        }
        counters
    }
}
