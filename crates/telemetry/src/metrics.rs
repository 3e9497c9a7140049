//! A small metrics registry: log-bucketed histograms plus counter/gauge
//! totals, with Prometheus-text and JSON snapshot exporters.
//!
//! The registry is the aggregation layer *above* [`Report`]:
//! a report summarises one decision, a [`Metrics`] accumulates many (a bench
//! sweep, a service's request stream) into distributions. Everything is
//! integer arithmetic over fixed bucket boundaries, so merging two
//! registries — or absorbing many reports in any order — is
//! bit-identical to absorbing the underlying observations in any other
//! order, the same discipline `Report::merge` pins for counters.
//!
//! No dependencies; the exporters are a `String` builder and the crate's own
//! [`Json`] model.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::probe::Event;
use crate::sink::Report;

/// Number of log₂ buckets: bucket `i` counts observations `v` with
/// `bits(v) == i`, i.e. `2^(i-1) ≤ v < 2^i` (bucket 0 holds exactly `v = 0`).
/// 65 buckets cover the whole `u64` range.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram over `u64` observations.
///
/// Bucket boundaries are powers of two, fixed for every histogram, so two
/// histograms merge by elementwise addition — no rebinning, no drift.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index for `v`: 0 for 0, otherwise the bit length of `v`.
    fn bucket(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The inclusive upper bound of bucket `i` (`0`, `1`, `3`, `7`, …).
    fn upper_bound(i: usize) -> u128 {
        if i == 0 {
            0
        } else {
            (1u128 << i) - 1
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Elementwise merge; equivalent to replaying `other`'s observations.
    pub fn merge(&mut self, other: &Histogram) {
        for (slot, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The highest nonempty bucket index, if any observation was recorded.
    fn highest(&self) -> Option<usize> {
        self.buckets
            .iter()
            .rposition(|&b| b > 0)
            .filter(|_| self.count > 0)
    }

    /// `(le, cumulative_count)` pairs up to the highest nonempty bucket.
    /// The exporter appends the implicit `+Inf` bucket itself.
    fn cumulative(&self) -> Vec<(u128, u64)> {
        let Some(hi) = self.highest() else {
            return Vec::new();
        };
        let mut acc = 0;
        (0..=hi)
            .map(|i| {
                acc += self.buckets[i];
                (Self::upper_bound(i), acc)
            })
            .collect()
    }
}

/// Counter totals, gauge maxima, and named histogram families.
///
/// Histograms are grouped into *families* (e.g. `span_micros`,
/// `span_ticks`, `decision_micros`) with one histogram per label — the label
/// becomes the `name` label of the Prometheus series.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, BTreeMap<String, Histogram>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `delta` to counter `name`.
    pub fn inc(&mut self, name: &str, delta: u64) {
        if delta > 0 {
            *self.counters.entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Record gauge `name` at `value` (maximum wins, matching
    /// `Report::merge`).
    pub fn gauge(&mut self, name: &str, value: u64) {
        let slot = self.gauges.entry(name.to_string()).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Record one observation into histogram `label` of `family`.
    pub fn observe(&mut self, family: &str, label: &str, value: u64) {
        self.histograms
            .entry(family.to_string())
            .or_default()
            .entry(label.to_string())
            .or_default()
            .record(value);
    }

    /// The counter total for `name` (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram for `label` in `family`, if any observation landed.
    pub fn histogram(&self, family: &str, label: &str) -> Option<&Histogram> {
        self.histograms.get(family)?.get(label)
    }

    /// Absorb one decision's aggregated [`Report`]: counters add, gauges
    /// max, each span total becomes one `span_micros` observation.
    pub fn absorb_report(&mut self, report: &Report) {
        for (name, delta) in &report.counters {
            self.inc(name, *delta);
        }
        for (name, value) in &report.gauges {
            self.gauge(name, *value);
        }
        for (name, micros) in &report.spans {
            self.observe("span_micros", name, clamp_u64(*micros));
        }
    }

    /// Absorb a raw event stream: unlike [`Metrics::absorb_report`], every
    /// span *close* is one observation in both timebases (`span_micros` and,
    /// on traced streams, `span_ticks`), so repeated phases build a
    /// distribution instead of collapsing into one total.
    pub fn absorb_events<'a>(&mut self, events: impl IntoIterator<Item = &'a Event>) {
        for event in events {
            match event {
                Event::Count { name, delta } => self.inc(name, *delta),
                Event::Gauge { name, value } => self.gauge(name, *value),
                Event::SpanOpen { .. } => {}
                Event::Span {
                    name,
                    micros,
                    id,
                    ticks,
                    ..
                } => {
                    self.observe("span_micros", name, clamp_u64(*micros));
                    if *id != 0 {
                        self.observe("span_ticks", name, *ticks);
                    }
                }
                Event::Note { .. } => {}
                Event::Interrupt { name, .. } => self.inc(name, 1),
            }
        }
    }

    /// Merge another registry in: counters and histogram buckets add, gauges
    /// max. Merging registries in any order is bit-identical.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, delta) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += delta;
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(*value);
        }
        for (family, labels) in &other.histograms {
            let fam = self.histograms.entry(family.clone()).or_default();
            for (label, hist) in labels {
                fam.entry(label.clone()).or_default().merge(hist);
            }
        }
    }

    /// The Prometheus text-format snapshot. Series order is deterministic
    /// (sorted by family, then label), so snapshots of equal registries are
    /// byte-identical — the golden test pins this.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("# TYPE ric_counter_total counter\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "ric_counter_total{{name=\"{name}\"}} {value}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("# TYPE ric_gauge gauge\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "ric_gauge{{name=\"{name}\"}} {value}");
            }
        }
        for (family, labels) in &self.histograms {
            let _ = writeln!(out, "# TYPE ric_{family} histogram");
            for (label, hist) in labels {
                for (le, cum) in hist.cumulative() {
                    let _ = writeln!(
                        out,
                        "ric_{family}_bucket{{name=\"{label}\",le=\"{le}\"}} {cum}"
                    );
                }
                let _ = writeln!(
                    out,
                    "ric_{family}_bucket{{name=\"{label}\",le=\"+Inf\"}} {}",
                    hist.count()
                );
                let _ = writeln!(out, "ric_{family}_sum{{name=\"{label}\"}} {}", hist.sum());
                let _ = writeln!(
                    out,
                    "ric_{family}_count{{name=\"{label}\"}} {}",
                    hist.count()
                );
            }
        }
        out
    }

    /// The JSON snapshot: `counters`, `gauges`, and per-family histogram
    /// objects with explicit bucket upper bounds.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(family, labels)| {
                            (
                                family.clone(),
                                Json::Obj(
                                    labels
                                        .iter()
                                        .map(|(label, hist)| {
                                            (
                                                label.clone(),
                                                Json::obj([
                                                    ("count", Json::from(hist.count())),
                                                    ("sum", Json::from(hist.sum())),
                                                    (
                                                        "buckets",
                                                        Json::arr(
                                                            hist.cumulative().into_iter().map(
                                                                |(le, cum)| {
                                                                    Json::obj([
                                                                        ("le", Json::from(le)),
                                                                        ("count", Json::from(cum)),
                                                                    ])
                                                                },
                                                            ),
                                                        ),
                                                    ),
                                                ]),
                                            )
                                        })
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Clamp a span's `u128` microsecond reading into the histogram's `u64`
/// domain (saturating: a >584-millennium span is a clock bug anyway).
fn clamp_u64(v: u128) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Probe;
    use crate::sink::Collector;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(1023), 10);
        assert_eq!(Histogram::bucket(1024), 11);
        assert_eq!(Histogram::bucket(u64::MAX), 64);
        assert_eq!(Histogram::upper_bound(0), 0);
        assert_eq!(Histogram::upper_bound(1), 1);
        assert_eq!(Histogram::upper_bound(2), 3);
        assert_eq!(Histogram::upper_bound(10), 1023);
    }

    #[test]
    fn histogram_merge_matches_replay() {
        let observations = [0u64, 1, 1, 7, 900, 4096, u64::MAX];
        let mut replay = Histogram::new();
        for &v in &observations {
            replay.record(v);
        }
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &v) in observations.iter().enumerate() {
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left, replay);
    }

    #[test]
    fn metrics_merge_is_order_independent() {
        // Two registries recording overlapping counter/gauge/histogram sets,
        // including the planned-engine families (`plan.*` counters, the
        // `stats.rows.*` statistics gauges): merge order must not matter,
        // down to the exported bytes.
        let mut a = Metrics::new();
        a.inc("rcdp.valuations", 10);
        a.inc("plan.compile", 1);
        a.inc("plan.cost", 40);
        a.gauge("rcdp.adom_size", 4);
        a.gauge("stats.rows.00", 128);
        a.observe("span_micros", "rcdp.enumerate", 120);
        let mut b = Metrics::new();
        b.inc("rcdp.valuations", 5);
        b.inc("rcdp.cc_checks", 2);
        b.inc("plan.reuse", 1);
        b.inc("plan.fallback", 1);
        b.gauge("rcdp.adom_size", 9);
        b.gauge("stats.rows.00", 128);
        b.observe("span_micros", "rcdp.enumerate", 80);
        b.observe("span_micros", "rcqp.e2_search", 7);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_prometheus(), ba.to_prometheus());
        assert_eq!(ab.to_json().to_string(), ba.to_json().to_string());
        assert_eq!(ab.counter("rcdp.valuations"), 15);
        assert_eq!(ab.counter("plan.compile"), 1);
        assert_eq!(ab.counter("plan.reuse"), 1);
        assert_eq!(
            ab.histogram("span_micros", "rcdp.enumerate")
                .unwrap()
                .count(),
            2
        );
    }

    #[test]
    fn prometheus_snapshot_is_golden() {
        // Pinned byte-for-byte: downstream scrapers parse this surface.
        let mut m = Metrics::new();
        m.inc("rcdp.valuations", 42);
        m.inc("rcdp.cc_checks", 7);
        m.inc("plan.compile", 2);
        m.inc("plan.cost", 37);
        m.inc("plan.fallback", 1);
        m.gauge("rcdp.adom_size", 14);
        m.gauge("stats.rows.00", 128);
        for v in [0u64, 1, 3, 900] {
            m.observe("span_micros", "rcdp.enumerate", v);
        }
        let expected = "\
# TYPE ric_counter_total counter
ric_counter_total{name=\"plan.compile\"} 2
ric_counter_total{name=\"plan.cost\"} 37
ric_counter_total{name=\"plan.fallback\"} 1
ric_counter_total{name=\"rcdp.cc_checks\"} 7
ric_counter_total{name=\"rcdp.valuations\"} 42
# TYPE ric_gauge gauge
ric_gauge{name=\"rcdp.adom_size\"} 14
ric_gauge{name=\"stats.rows.00\"} 128
# TYPE ric_span_micros histogram
ric_span_micros_bucket{name=\"rcdp.enumerate\",le=\"0\"} 1
ric_span_micros_bucket{name=\"rcdp.enumerate\",le=\"1\"} 2
ric_span_micros_bucket{name=\"rcdp.enumerate\",le=\"3\"} 3
ric_span_micros_bucket{name=\"rcdp.enumerate\",le=\"7\"} 3
ric_span_micros_bucket{name=\"rcdp.enumerate\",le=\"15\"} 3
ric_span_micros_bucket{name=\"rcdp.enumerate\",le=\"31\"} 3
ric_span_micros_bucket{name=\"rcdp.enumerate\",le=\"63\"} 3
ric_span_micros_bucket{name=\"rcdp.enumerate\",le=\"127\"} 3
ric_span_micros_bucket{name=\"rcdp.enumerate\",le=\"255\"} 3
ric_span_micros_bucket{name=\"rcdp.enumerate\",le=\"511\"} 3
ric_span_micros_bucket{name=\"rcdp.enumerate\",le=\"1023\"} 4
ric_span_micros_bucket{name=\"rcdp.enumerate\",le=\"+Inf\"} 4
ric_span_micros_sum{name=\"rcdp.enumerate\"} 904
ric_span_micros_count{name=\"rcdp.enumerate\"} 4
";
        assert_eq!(m.to_prometheus(), expected);
    }

    #[test]
    fn absorb_events_builds_distributions() {
        let collector = Collector::new();
        let probe = Probe::attached(&collector);
        drop(probe.span("phase"));
        drop(probe.span("phase"));
        probe.count("work", 3);
        let mut m = Metrics::new();
        m.absorb_events(collector.events().iter());
        // Two closes → two observations, not one summed total.
        assert_eq!(m.histogram("span_micros", "phase").unwrap().count(), 2);
        assert_eq!(m.counter("work"), 3);
    }

    #[test]
    fn absorb_report_takes_span_totals() {
        let collector = Collector::new();
        let probe = Probe::attached(&collector);
        drop(probe.span("phase"));
        drop(probe.span("phase"));
        let mut m = Metrics::new();
        m.absorb_report(&collector.report());
        // A report sums spans by name first → one observation.
        assert_eq!(m.histogram("span_micros", "phase").unwrap().count(), 1);
    }

    #[test]
    fn json_snapshot_parses_back() {
        let mut m = Metrics::new();
        m.inc("c", 1);
        m.gauge("g", 2);
        m.observe("span_micros", "s", 5);
        let doc = crate::json::parse(&m.to_json().to_string()).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("c"))
                .and_then(Json::as_int),
            Some(1)
        );
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("span_micros"))
            .and_then(|h| h.get("s"))
            .unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_int), Some(1));
        assert_eq!(hist.get("sum").and_then(Json::as_int), Some(5));
    }
}
