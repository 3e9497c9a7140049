//! Event sinks: where probe emissions go.
//!
//! * [`Collector`] aggregates in memory and also keeps the raw event stream;
//!   use [`Collector::report`] for programmatic inspection.
//! * [`PrettySink`] streams human-readable lines to any `io::Write`,
//!   indenting by span nesting when the probe carries a trace state.
//! * [`JsonlSink`] streams one hand-rolled JSON object per event (the
//!   workspace builds offline; there is no serde).
//!
//! Both streaming sinks buffer their writes (`io::BufWriter`): a traced
//! decision can emit tens of thousands of events, and an unbuffered
//! per-event `write!` to a file or stderr dominates the run. The buffer is
//! flushed when the sink is recovered with `into_inner`, on an explicit
//! [`PrettySink::flush`]/[`JsonlSink::flush`], and by `BufWriter`'s own drop.
//!
//! All sinks take `&self` — the deciders are single-threaded, so interior
//! mutability via `RefCell` is enough and keeps [`Probe`](crate::Probe)
//! freely copyable.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};

use crate::json::Json;
use crate::probe::Event;

/// A destination for probe events.
pub trait Sink {
    /// Record one event. Must not panic on I/O trouble — sinks that write
    /// swallow errors (telemetry must never take down a decision).
    fn record(&self, event: Event);

    /// Push buffered output through to the underlying destination. The
    /// facade calls this on every decision exit — including the panic path —
    /// so a crashing caller cannot lose the final checkpoint/interrupt
    /// events still sitting in a write buffer. In-memory sinks need nothing,
    /// hence the default no-op.
    fn flush(&self) {}
}

/// In-memory aggregation plus the raw event stream.
#[derive(Default)]
pub struct Collector {
    events: RefCell<Vec<Event>>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// The raw events, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events.borrow().clone()
    }

    /// Drop everything collected so far (for reusing one collector across
    /// cells in a sweep).
    pub fn reset(&self) {
        self.events.borrow_mut().clear();
    }

    /// Aggregate the stream into a [`Report`].
    pub fn report(&self) -> Report {
        let mut report = Report::default();
        for event in self.events.borrow().iter() {
            match event {
                Event::Count { name, delta } => {
                    *report.counters.entry(name).or_insert(0) += delta;
                }
                Event::Gauge { name, value } => {
                    report.gauges.insert(name, *value);
                }
                // Open markers only carry tree structure; the close event of
                // the same id carries the measurements.
                Event::SpanOpen { .. } => {}
                Event::Span { name, micros, .. } => {
                    *report.spans.entry(name).or_insert(0) += micros;
                }
                Event::Note { name, detail } => {
                    report.notes.entry(name).or_default().push(detail.clone());
                }
                Event::Interrupt {
                    name,
                    reason,
                    at_tick,
                } => {
                    report.interrupts.push(InterruptRecord {
                        name,
                        reason,
                        at_tick: *at_tick,
                    });
                }
            }
        }
        report
    }
}

impl Sink for Collector {
    fn record(&self, event: Event) {
        self.events.borrow_mut().push(event);
    }
}

/// Aggregated view of a collected event stream.
#[derive(Clone, Default, Debug)]
pub struct Report {
    /// Summed counter deltas by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last-observed gauge values by name.
    pub gauges: BTreeMap<&'static str, u64>,
    /// Summed span times (µs) by name. A merged report sums the spans of
    /// every report folded in, so it reads as *total work time*, not wall
    /// time — see [`Report::merge`].
    pub spans: BTreeMap<&'static str, u128>,
    /// Notes by name, in emission order.
    pub notes: BTreeMap<&'static str, Vec<String>>,
    /// Cooperative interruptions (deadline/cancellation), in emission order.
    pub interrupts: Vec<InterruptRecord>,
}

/// One recorded [`Event::Interrupt`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InterruptRecord {
    /// Interrupt site, e.g. `"rcdp.interrupt"`.
    pub name: &'static str,
    /// Stable reason name: `"deadline"` or `"cancelled"`.
    pub reason: &'static str,
    /// Guard ticks observed when the interrupt fired.
    pub at_tick: u64,
}

impl Report {
    /// Fold `other` into `self`, e.g. to aggregate the reports of many
    /// decisions. Pinned merge semantics (the metrics exporter relies on
    /// these):
    ///
    /// * **counters sum** — they count work, and work adds up;
    /// * **spans sum** — a merged span total is *total work time across
    ///   the merged decisions* (CPU-seconds), deliberately not wall time:
    ///   wall time is what the caller's own clock measures, while the summed
    ///   span answers "how much work did this phase cost?";
    /// * **gauges max** — a merged report answers "how big did it get?";
    /// * **notes append** in `other`'s emission order;
    /// * **interrupts append, exact duplicates skipped** — folding the same
    ///   report in twice must not record one guard trip twice, so an
    ///   identical `(name, reason, at_tick)` record is kept once.
    ///
    /// Merging reports in any order yields the same counters, gauges, spans,
    /// and interrupt set.
    pub fn merge(&mut self, other: &Report) {
        for (name, delta) in &other.counters {
            *self.counters.entry(name).or_insert(0) += delta;
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name).or_insert(0);
            *slot = (*slot).max(*value);
        }
        for (name, micros) in &other.spans {
            *self.spans.entry(name).or_insert(0) += micros;
        }
        for (name, details) in &other.notes {
            self.notes
                .entry(name)
                .or_default()
                .extend(details.iter().cloned());
        }
        for record in &other.interrupts {
            if !self.interrupts.contains(record) {
                self.interrupts.push(*record);
            }
        }
    }

    /// The summed value of counter `name` (0 when never emitted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The last value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Total microseconds recorded under span `name`.
    pub fn span_micros(&self, name: &str) -> Option<u128> {
        self.spans.get(name).copied()
    }

    /// All notes recorded under `name`.
    pub fn notes(&self, name: &str) -> Vec<String> {
        self.notes.get(name).cloned().unwrap_or_default()
    }

    /// The report as a JSON object (`counters` / `gauges` / `spans_micros` /
    /// `notes` sub-objects), the shape embedded per cell in
    /// `BENCH_TABLE*.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::obj(self.counters.iter().map(|(k, v)| (*k, Json::from(*v)))),
            ),
            (
                "gauges",
                Json::obj(self.gauges.iter().map(|(k, v)| (*k, Json::from(*v)))),
            ),
            (
                "spans_micros",
                Json::obj(self.spans.iter().map(|(k, v)| (*k, Json::from(*v)))),
            ),
            (
                "notes",
                Json::obj(
                    self.notes
                        .iter()
                        .map(|(k, vs)| (*k, Json::arr(vs.iter().map(|v| Json::from(v.as_str()))))),
                ),
            ),
            (
                "interrupts",
                Json::arr(self.interrupts.iter().map(|i| {
                    Json::obj([
                        ("name", Json::from(i.name)),
                        ("reason", Json::from(i.reason)),
                        ("at_tick", Json::from(i.at_tick)),
                    ])
                })),
            ),
        ])
    }
}

impl fmt::Display for Report {
    /// An aligned, human-readable decision report.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.spans.keys())
            .chain(self.notes.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, value) in &self.counters {
                writeln!(f, "  {name:<width$}  {value}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (name, value) in &self.gauges {
                writeln!(f, "  {name:<width$}  {value}")?;
            }
        }
        if !self.spans.is_empty() {
            writeln!(f, "spans:")?;
            for (name, micros) in &self.spans {
                writeln!(f, "  {name:<width$}  {micros} µs")?;
            }
        }
        if !self.notes.is_empty() {
            writeln!(f, "notes:")?;
            for (name, details) in &self.notes {
                for detail in details {
                    writeln!(f, "  {name:<width$}  {detail}")?;
                }
            }
        }
        if !self.interrupts.is_empty() {
            writeln!(f, "interrupts:")?;
            for i in &self.interrupts {
                writeln!(f, "  {:<width$}  {} @ tick {}", i.name, i.reason, i.at_tick)?;
            }
        }
        Ok(())
    }
}

/// Streams one human-readable line per event to a writer, indented by the
/// nesting depth of the currently open traced spans.
///
/// Nesting comes from the [`Event::SpanOpen`]/[`Event::Span`] id pairs that
/// traced probes emit; the sink tracks the stack of open ids and tolerates
/// spans closed out of order (a close removes exactly its own id, wherever
/// it sits in the stack, so a sibling closed late can never corrupt the
/// indentation of what follows). Untraced streams carry no `SpanOpen` events
/// and print exactly as before, flush left.
pub struct PrettySink<W: io::Write> {
    writer: RefCell<io::BufWriter<W>>,
    open: RefCell<Vec<u64>>,
}

impl<W: io::Write> PrettySink<W> {
    /// A sink writing to `writer` (e.g. `std::io::stderr()`).
    pub fn new(writer: W) -> Self {
        PrettySink {
            writer: RefCell::new(io::BufWriter::new(writer)),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Flush buffered lines through to the underlying writer.
    pub fn flush(&self) {
        let _ = self.writer.borrow_mut().flush();
    }

    /// Recover the writer, flushing buffered lines first.
    pub fn into_inner(self) -> W {
        let mut buf = self.writer.into_inner();
        let _ = buf.flush();
        buf.into_parts().0
    }
}

impl<W: io::Write> Sink for PrettySink<W> {
    fn flush(&self) {
        PrettySink::flush(self);
    }

    fn record(&self, event: Event) {
        let mut open = self.open.borrow_mut();
        let mut w = self.writer.borrow_mut();
        let pad = |depth: usize| "  ".repeat(depth);
        // Telemetry never takes down a decision: ignore I/O errors.
        let _ = match event {
            Event::Count { name, delta } => {
                writeln!(w, "{}count {name} +{delta}", pad(open.len()))
            }
            Event::Gauge { name, value } => {
                writeln!(w, "{}gauge {name} = {value}", pad(open.len()))
            }
            Event::SpanOpen { name, id, .. } => {
                let line = writeln!(w, "{}open  {name}", pad(open.len()));
                open.push(id);
                line
            }
            Event::Span {
                name,
                micros,
                id,
                ticks,
                ..
            } => {
                if id == 0 {
                    writeln!(w, "{}span  {name} {micros} µs", pad(open.len()))
                } else {
                    // Close exactly this span's id; out-of-order closes leave
                    // the rest of the stack intact.
                    let depth = match open.iter().rposition(|&o| o == id) {
                        Some(pos) => {
                            open.remove(pos);
                            pos
                        }
                        None => open.len(),
                    };
                    writeln!(w, "{}span  {name} {micros} µs ({ticks} ticks)", pad(depth))
                }
            }
            Event::Note { name, detail } => {
                writeln!(w, "{}note  {name}: {detail}", pad(open.len()))
            }
            Event::Interrupt {
                name,
                reason,
                at_tick,
            } => writeln!(
                w,
                "{}intr  {name}: {reason} @ tick {at_tick}",
                pad(open.len())
            ),
        };
    }
}

/// Streams one JSON object per event, newline-delimited.
///
/// Each line is a complete JSON document with a `"kind"` discriminator:
///
/// ```json
/// {"kind":"count","name":"rcdp.valuations","delta":128}
/// {"kind":"span","name":"rcdp.enumerate","micros":412}
/// ```
///
/// Traced streams additionally carry `span_open` lines and `id`/`parent`/
/// `ticks` fields on `span` lines (see EXPERIMENTS.md for the full trace
/// schema); untraced streams keep the flat five-kind shape above.
pub struct JsonlSink<W: io::Write> {
    writer: RefCell<io::BufWriter<W>>,
}

impl<W: io::Write> JsonlSink<W> {
    /// A sink writing one JSON line per event to `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: RefCell::new(io::BufWriter::new(writer)),
        }
    }

    /// Flush buffered lines through to the underlying writer.
    pub fn flush(&self) {
        let _ = self.writer.borrow_mut().flush();
    }

    /// Recover the writer (e.g. to inspect an in-memory `Vec<u8>`),
    /// flushing buffered lines first.
    pub fn into_inner(self) -> W {
        let mut buf = self.writer.into_inner();
        let _ = buf.flush();
        buf.into_parts().0
    }

    /// The JSON line for one event (without the trailing newline).
    pub fn line_for(event: &Event) -> Json {
        match event {
            Event::Count { name, delta } => Json::obj([
                ("kind", Json::from("count")),
                ("name", Json::from(*name)),
                ("delta", Json::from(*delta)),
            ]),
            Event::Gauge { name, value } => Json::obj([
                ("kind", Json::from("gauge")),
                ("name", Json::from(*name)),
                ("value", Json::from(*value)),
            ]),
            Event::SpanOpen {
                name,
                id,
                parent,
                at_tick,
            } => Json::obj([
                ("kind", Json::from("span_open")),
                ("name", Json::from(*name)),
                ("id", Json::from(*id)),
                ("parent", Json::from(*parent)),
                ("at_tick", Json::from(*at_tick)),
            ]),
            Event::Span {
                name,
                micros,
                id,
                parent,
                ticks,
            } => {
                if *id == 0 {
                    Json::obj([
                        ("kind", Json::from("span")),
                        ("name", Json::from(*name)),
                        ("micros", Json::from(*micros)),
                    ])
                } else {
                    Json::obj([
                        ("kind", Json::from("span")),
                        ("name", Json::from(*name)),
                        ("micros", Json::from(*micros)),
                        ("id", Json::from(*id)),
                        ("parent", Json::from(*parent)),
                        ("ticks", Json::from(*ticks)),
                    ])
                }
            }
            Event::Note { name, detail } => Json::obj([
                ("kind", Json::from("note")),
                ("name", Json::from(*name)),
                ("detail", Json::from(detail.as_str())),
            ]),
            Event::Interrupt {
                name,
                reason,
                at_tick,
            } => Json::obj([
                ("kind", Json::from("interrupt")),
                ("name", Json::from(*name)),
                ("reason", Json::from(*reason)),
                ("at_tick", Json::from(*at_tick)),
            ]),
        }
    }
}

impl<W: io::Write> Sink for JsonlSink<W> {
    fn flush(&self) {
        JsonlSink::flush(self);
    }

    fn record(&self, event: Event) {
        let mut w = self.writer.borrow_mut();
        let _ = writeln!(w, "{}", Self::line_for(&event));
    }
}

/// Fans each event out to two sinks, `first` before `second`.
///
/// The `try_` facade entry points use a tee to keep an internal [`Collector`]
/// for panic diagnostics while still forwarding events to the caller's sink.
/// Either slot may be empty, so a tee over `Probe::sink()` works whether or
/// not the caller attached telemetry.
pub struct TeeSink<'a> {
    first: Option<&'a dyn Sink>,
    second: Option<&'a dyn Sink>,
}

impl<'a> TeeSink<'a> {
    /// A tee forwarding to `first` then `second`; `None` slots are skipped.
    pub fn new(first: Option<&'a dyn Sink>, second: Option<&'a dyn Sink>) -> Self {
        TeeSink { first, second }
    }
}

impl Sink for TeeSink<'_> {
    fn flush(&self) {
        if let Some(sink) = self.first {
            sink.flush();
        }
        if let Some(sink) = self.second {
            sink.flush();
        }
    }

    fn record(&self, event: Event) {
        if let Some(sink) = self.first {
            sink.record(event.clone());
        }
        if let Some(sink) = self.second {
            sink.record(event);
        }
    }
}

/// Deterministic fault injection through the probe seam: panics the first
/// time an event named `trigger` is recorded, forwarding everything else to
/// an optional inner sink.
///
/// This sink deliberately violates the "must not panic" contract of [`Sink`]
/// — that is its entire purpose. It exists so tests can simulate a fault
/// *inside* a named decision stage (e.g. panic when the `"rcdp.strategy"`
/// note fires) and assert that the `try_` facade entry points convert the
/// unwind into a typed error. Never attach it outside tests.
pub struct FaultSink<'a> {
    trigger: &'static str,
    inner: Option<&'a dyn Sink>,
}

impl<'a> FaultSink<'a> {
    /// A sink that panics when an event named `trigger` is recorded.
    pub fn new(trigger: &'static str, inner: Option<&'a dyn Sink>) -> Self {
        FaultSink { trigger, inner }
    }
}

impl Sink for FaultSink<'_> {
    fn flush(&self) {
        if let Some(sink) = self.inner {
            sink.flush();
        }
    }

    fn record(&self, event: Event) {
        if event.name() == self.trigger {
            panic!("fault injection: stage {} panicked", self.trigger);
        }
        if let Some(sink) = self.inner {
            sink.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::probe::{Probe, TraceState};

    #[test]
    fn collector_aggregates_exactly() {
        let collector = Collector::new();
        let probe = Probe::attached(&collector);
        probe.count("valuations", 10);
        probe.count("valuations", 32);
        probe.count("cc_checks", 4);
        probe.gauge("adom", 6);
        probe.gauge("adom", 9); // last write wins
        probe.note("limit", || "max_valuations".into());
        probe.note("limit", || "max_candidates".into());

        let report = collector.report();
        assert_eq!(report.counter("valuations"), 42);
        assert_eq!(report.counter("cc_checks"), 4);
        assert_eq!(report.counter("never_emitted"), 0);
        assert_eq!(report.gauge("adom"), Some(9));
        assert_eq!(
            report.notes("limit"),
            vec!["max_valuations".to_string(), "max_candidates".to_string()]
        );

        collector.reset();
        assert!(collector.events().is_empty());
    }

    #[test]
    fn merge_sums_counters_and_spans_maxes_gauges() {
        let a = Collector::new();
        let pa = Probe::attached(&a);
        pa.count("index.probe", 10);
        pa.count("rcdp.cc_checks", 2);
        pa.gauge("adom", 6);
        pa.note("strategy", || "delta".into());

        let b = Collector::new();
        let pb = Probe::attached(&b);
        pb.count("index.probe", 32);
        pb.gauge("adom", 4);
        pb.gauge("pool", 9);
        pb.note("strategy", || "union".into());
        pb.interrupt("rcdp.interrupt", "deadline", 7);

        let mut merged = a.report();
        merged.merge(&b.report());
        assert_eq!(merged.counter("index.probe"), 42);
        assert_eq!(merged.counter("rcdp.cc_checks"), 2);
        assert_eq!(merged.gauge("adom"), Some(6)); // max wins
        assert_eq!(merged.gauge("pool"), Some(9));
        assert_eq!(
            merged.notes("strategy"),
            vec!["delta".to_string(), "union".to_string()]
        );
        assert_eq!(merged.interrupts.len(), 1);
        assert_eq!(merged.interrupts[0].reason, "deadline");

        // Counter/gauge/span totals are order-independent.
        let mut reversed = b.report();
        reversed.merge(&a.report());
        assert_eq!(reversed.counters, merged.counters);
        assert_eq!(reversed.gauges, merged.gauges);
        assert_eq!(reversed.spans, merged.spans);
    }

    #[test]
    fn merge_skips_duplicate_interrupt_records() {
        // The same guard trip folded in twice must leave a single record,
        // while genuinely distinct interrupts (different tick or reason) all
        // survive.
        let a = Collector::new();
        Probe::attached(&a).interrupt("rcdp.interrupt", "deadline", 7);
        let b = Collector::new();
        let pb = Probe::attached(&b);
        pb.interrupt("rcdp.interrupt", "deadline", 7); // duplicate
        pb.interrupt("rcdp.interrupt", "deadline", 9); // distinct tick

        let mut merged = a.report();
        merged.merge(&b.report());
        assert_eq!(merged.interrupts.len(), 2);
        assert_eq!(merged.interrupts[0].at_tick, 7);
        assert_eq!(merged.interrupts[1].at_tick, 9);

        // Self-merge is idempotent on the interrupt set.
        let snapshot = merged.clone();
        merged.merge(&snapshot);
        assert_eq!(merged.interrupts.len(), 2);
    }

    #[test]
    fn merge_into_empty_is_identity() {
        let a = Collector::new();
        let pa = Probe::attached(&a);
        pa.count("v", 3);
        pa.gauge("g", 5);
        let mut merged = Report::default();
        merged.merge(&a.report());
        assert_eq!(merged.counters, a.report().counters);
        assert_eq!(merged.gauges, a.report().gauges);
    }

    #[test]
    fn report_display_is_aligned_and_nonempty() {
        let collector = Collector::new();
        let probe = Probe::attached(&collector);
        probe.count("search.valuations", 7);
        probe.gauge("adom.size", 3);
        let text = collector.report().to_string();
        assert!(text.contains("counters:"));
        assert!(text.contains("search.valuations"));
        assert!(text.contains("gauges:"));
        assert!(text.contains("adom.size"));
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let sink = JsonlSink::new(Vec::new());
        let probe = Probe::attached(&sink);
        probe.count("v", 3);
        probe.gauge("g", 5);
        probe.note("n", || "detail with \"quotes\" and\nnewline".into());
        drop(probe.span("s"));

        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            json::parse(line).expect("every JSONL line is valid JSON");
        }
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("kind").and_then(Json::as_str), Some("count"));
        assert_eq!(first.get("name").and_then(Json::as_str), Some("v"));
        assert_eq!(first.get("delta").and_then(Json::as_int), Some(3));
        let note = json::parse(lines[2]).unwrap();
        assert_eq!(
            note.get("detail").and_then(Json::as_str),
            Some("detail with \"quotes\" and\nnewline")
        );
        // Untraced span lines keep the flat legacy shape: no id field.
        let span = json::parse(lines[3]).unwrap();
        assert_eq!(span.get("kind").and_then(Json::as_str), Some("span"));
        assert!(span.get("id").is_none());
    }

    #[test]
    fn jsonl_traced_spans_carry_ids() {
        let sink = JsonlSink::new(Vec::new());
        let trace = TraceState::new();
        let probe = Probe::attached(&sink).with_trace(&trace);
        {
            let _root = probe.span("root");
            drop(probe.span("child"));
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let docs: Vec<Json> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(docs.len(), 4); // 2 opens + 2 closes
        assert_eq!(
            docs[0].get("kind").and_then(Json::as_str),
            Some("span_open")
        );
        assert_eq!(docs[0].get("id").and_then(Json::as_int), Some(1));
        assert_eq!(docs[0].get("parent").and_then(Json::as_int), Some(0));
        assert_eq!(docs[1].get("id").and_then(Json::as_int), Some(2));
        assert_eq!(docs[1].get("parent").and_then(Json::as_int), Some(1));
        // child closes before root.
        assert_eq!(docs[2].get("kind").and_then(Json::as_str), Some("span"));
        assert_eq!(docs[2].get("id").and_then(Json::as_int), Some(2));
        assert_eq!(docs[3].get("id").and_then(Json::as_int), Some(1));
        assert!(docs[3].get("ticks").is_some());
    }

    #[test]
    fn pretty_sink_writes_lines() {
        let sink = PrettySink::new(Vec::new());
        let probe = Probe::attached(&sink);
        probe.count("v", 3);
        probe.note("outcome", || "complete".into());
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.contains("count v +3"));
        assert!(text.contains("note  outcome: complete"));
    }

    #[test]
    fn pretty_sink_indents_traced_spans() {
        let sink = PrettySink::new(Vec::new());
        let trace = TraceState::new();
        let probe = Probe::attached(&sink).with_trace(&trace);
        {
            let _root = probe.span("decision");
            probe.count("v", 1);
            {
                let _inner = probe.span("enumerate");
                probe.count("v", 2);
            }
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "open  decision");
        assert_eq!(lines[1], "  count v +1");
        assert_eq!(lines[2], "  open  enumerate");
        assert_eq!(lines[3], "    count v +2");
        assert!(lines[4].starts_with("  span  enumerate"));
        assert!(lines[5].starts_with("span  decision"));
    }

    #[test]
    fn pretty_sink_tolerates_out_of_order_closes() {
        // Close the outer guard before the inner one (possible when guards
        // are moved into structs): each close removes its own id, so the
        // indentation never underflows and later events print sanely.
        let sink = PrettySink::new(Vec::new());
        let trace = TraceState::new();
        let probe = Probe::attached(&sink).with_trace(&trace);
        let outer = probe.span("outer");
        let inner = probe.span("inner");
        drop(outer);
        drop(inner);
        probe.count("after", 1);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "open  outer");
        assert_eq!(lines[1], "  open  inner");
        // outer closes at its own depth (0), inner at its own depth (now 0
        // after outer was removed below it — the stack held only inner).
        assert!(lines[2].starts_with("span  outer"));
        assert!(lines[3].starts_with("span  inner") || lines[3].starts_with("  span  inner"));
        assert_eq!(*lines.last().unwrap(), "count after +1");
    }

    #[test]
    fn report_to_json_roundtrips() {
        let collector = Collector::new();
        let probe = Probe::attached(&collector);
        probe.count("v", 3);
        probe.gauge("g", 5);
        probe.note("n", || "x".into());
        let doc = collector.report().to_json();
        let parsed = json::parse(&doc.to_string()).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("v"))
                .and_then(Json::as_int),
            Some(3)
        );
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|c| c.get("g"))
                .and_then(Json::as_int),
            Some(5)
        );
    }
}
