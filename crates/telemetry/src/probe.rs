//! The [`Probe`] handle and the [`Event`] vocabulary.
//!
//! A probe is what the deciders actually hold: a `Copy` handle that is either
//! disabled (the default — a `None` niche, so emissions cost one branch) or
//! attached to a [`Sink`]. Instrumented code never pays for
//! formatting, clocks, or allocation unless a sink is attached.
//!
//! # Hierarchical spans
//!
//! A probe can additionally carry a [`TraceState`] (see [`Probe::with_trace`]).
//! With one attached, every [`Probe::span`] draws a fresh span id, records the
//! id of the span currently open on this probe as its parent, and emits an
//! [`Event::SpanOpen`] immediately — so the event stream encodes the decision
//! tree (analyze → compile → enumerate → check → certify) rather than a flat
//! list of phase timings. Closing the span emits the usual [`Event::Span`]
//! carrying the same id/parent plus *two* timebases: wall-clock microseconds
//! (meaningful in production) and deterministic meter ticks (reproducible
//! under test), the latter read from an attached [`TickSource`].
//!
//! Probes without a trace state emit exactly the pre-hierarchy stream — no
//! `SpanOpen` events, id `0` everywhere — so flat consumers are unaffected.

use std::cell::Cell;
use std::time::Instant;

use crate::sink::Sink;

/// A deterministic timebase for spans: the decision guard's cooperative tick
/// counter. Implemented by `ric-complete`'s `Guard`; the telemetry crate only
/// needs the read side.
pub trait TickSource {
    /// Monotone tick count observed so far.
    fn ticks(&self) -> u64;
}

/// Span-id allocator and current-parent tracker for one traced decision.
///
/// Single-threaded by design (interior `Cell`s, not atomics): a decision
/// runs on the calling thread, so its spans always open and close there. Ids start at 1; 0 means
/// "no span" (the root's parent, and every span of an untraced probe).
#[derive(Debug, Default)]
pub struct TraceState {
    next_id: Cell<u64>,
    current: Cell<u64>,
}

impl TraceState {
    /// A fresh trace: the next span opened becomes the root (parent 0).
    pub fn new() -> Self {
        TraceState {
            next_id: Cell::new(1),
            current: Cell::new(0),
        }
    }

    /// The id of the innermost open span (0 when none is open).
    pub fn current(&self) -> u64 {
        self.current.get()
    }

    fn open(&self) -> (u64, u64) {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let parent = self.current.get();
        self.current.set(id);
        (id, parent)
    }

    fn close(&self, parent: u64) {
        self.current.set(parent);
    }
}

/// One structured telemetry event.
#[derive(Clone, PartialEq, Debug)]
pub enum Event {
    /// A named counter increment. Emitted as aggregate deltas (e.g. once per
    /// enumeration run), not per tick — hot loops stay hot.
    Count {
        /// Counter name, e.g. `"rcdp.valuations"`.
        name: &'static str,
        /// How much to add.
        delta: u64,
    },
    /// A named point-in-time measurement, e.g. the active-domain size.
    Gauge {
        /// Gauge name, e.g. `"rcdp.adom_size"`.
        name: &'static str,
        /// The observed value.
        value: u64,
    },
    /// A span opening, emitted only on probes carrying a [`TraceState`].
    /// Pairs with the [`Event::Span`] of the same `id`; together they let a
    /// consumer rebuild the decision tree with correct nesting even when
    /// guards are dropped out of order.
    SpanOpen {
        /// Span name, e.g. `"rcdp.enumerate"`.
        name: &'static str,
        /// This span's id (unique and nonzero within one trace).
        id: u64,
        /// The enclosing span's id; 0 for the root.
        parent: u64,
        /// Deterministic tick count at open (0 without a [`TickSource`]).
        at_tick: u64,
    },
    /// Wall time of a named phase, in microseconds, emitted when the phase
    /// closes. `id`/`parent` are 0 on untraced probes.
    Span {
        /// Span name, e.g. `"rcdp.enumerate"`.
        name: &'static str,
        /// Elapsed wall time in microseconds.
        micros: u128,
        /// This span's id (0 when the probe carries no [`TraceState`]).
        id: u64,
        /// The enclosing span's id; 0 for the root or an untraced span.
        parent: u64,
        /// Deterministic ticks elapsed inside the span (0 without a
        /// [`TickSource`]).
        ticks: u64,
    },
    /// A free-form annotation, e.g. which budget limit cut a search short.
    Note {
        /// Note name, e.g. `"rcdp.outcome"`.
        name: &'static str,
        /// The annotation body.
        detail: String,
    },
    /// A cooperative interruption: a deadline expired or a cancel token
    /// fired inside an enumeration loop. `at_tick` is the guard's global
    /// tick count when the interrupt was observed, so traces show exactly
    /// how much work a degraded decision performed.
    Interrupt {
        /// Interrupt site, e.g. `"rcdp.interrupt"`.
        name: &'static str,
        /// Stable reason name: `"deadline"` or `"cancelled"`.
        reason: &'static str,
        /// Guard ticks observed when the interrupt fired.
        at_tick: u64,
    },
}

impl Event {
    /// The event's name, whatever its kind.
    pub fn name(&self) -> &'static str {
        match self {
            Event::Count { name, .. }
            | Event::Gauge { name, .. }
            | Event::SpanOpen { name, .. }
            | Event::Span { name, .. }
            | Event::Note { name, .. }
            | Event::Interrupt { name, .. } => name,
        }
    }
}

/// A telemetry handle threaded through the decision stack.
///
/// `Probe` is `Copy` (three thin references); pass it by value. The disabled
/// probe is the default everywhere — a decision request without a probe
/// runs with `Probe::disabled()`.
#[derive(Clone, Copy, Default)]
pub struct Probe<'a> {
    sink: Option<&'a dyn Sink>,
    trace: Option<&'a TraceState>,
    ticks: Option<&'a dyn TickSource>,
}

impl<'a> Probe<'a> {
    /// A probe that records nothing. All emission methods reduce to a single
    /// branch on a `None`.
    pub fn disabled() -> Self {
        Probe {
            sink: None,
            trace: None,
            ticks: None,
        }
    }

    /// A probe that forwards every event to `sink`.
    pub fn attached(sink: &'a dyn Sink) -> Self {
        Probe {
            sink: Some(sink),
            trace: None,
            ticks: None,
        }
    }

    /// This probe with a [`TraceState`] attached: spans opened through the
    /// result draw hierarchical ids and emit [`Event::SpanOpen`].
    pub fn with_trace(self, trace: &'a TraceState) -> Self {
        Probe {
            trace: Some(trace),
            ..self
        }
    }

    /// This probe with a deterministic [`TickSource`] attached: spans record
    /// tick deltas alongside wall-clock micros. The deciders attach their
    /// `Guard` here at entry.
    pub fn with_ticks(self, ticks: &'a dyn TickSource) -> Self {
        Probe {
            ticks: Some(ticks),
            ..self
        }
    }

    /// Whether a sink is attached. Use this to skip *preparing* expensive
    /// event payloads (the emission methods already check internally).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The attached sink, if any. Lets adapters (e.g. the facade's `try_`
    /// wrappers) tee this probe's stream into another sink.
    #[inline]
    pub fn sink(&self) -> Option<&'a dyn Sink> {
        self.sink
    }

    /// The attached trace state, if any.
    #[inline]
    pub fn trace(&self) -> Option<&'a TraceState> {
        self.trace
    }

    /// Record a cooperative interruption (deadline expiry or cancellation)
    /// observed `at_tick` guard ticks into the search.
    #[inline]
    pub fn interrupt(&self, name: &'static str, reason: &'static str, at_tick: u64) {
        if let Some(sink) = self.sink {
            sink.record(Event::Interrupt {
                name,
                reason,
                at_tick,
            });
        }
    }

    /// Add `delta` to the counter `name`.
    #[inline]
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(sink) = self.sink {
            if delta > 0 {
                sink.record(Event::Count { name, delta });
            }
        }
    }

    /// Record the gauge `name` at `value`.
    #[inline]
    pub fn gauge(&self, name: &'static str, value: u64) {
        if let Some(sink) = self.sink {
            sink.record(Event::Gauge { name, value });
        }
    }

    /// Record a note. The `detail` closure only runs when a sink is attached,
    /// so callers can format lazily.
    #[inline]
    pub fn note(&self, name: &'static str, detail: impl FnOnce() -> String) {
        if let Some(sink) = self.sink {
            sink.record(Event::Note {
                name,
                detail: detail(),
            });
        }
    }

    /// Start timing the phase `name`. The returned guard emits a
    /// [`Event::Span`] when dropped; on a disabled probe it never reads the
    /// clock. With a [`TraceState`] attached the span additionally draws a
    /// hierarchical id and announces itself with [`Event::SpanOpen`].
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'a> {
        let Some(sink) = self.sink else {
            return SpanGuard {
                sink: None,
                trace: None,
                name,
                started: None,
                start_ticks: 0,
                ticks: None,
                id: 0,
                parent: 0,
            };
        };
        let (id, parent) = match self.trace {
            Some(trace) => trace.open(),
            None => (0, 0),
        };
        let start_ticks = self.ticks.map_or(0, TickSource::ticks);
        if self.trace.is_some() {
            sink.record(Event::SpanOpen {
                name,
                id,
                parent,
                at_tick: start_ticks,
            });
        }
        SpanGuard {
            sink: Some(sink),
            trace: self.trace,
            name,
            started: Some(Instant::now()),
            start_ticks,
            ticks: self.ticks,
            id,
            parent,
        }
    }
}

impl std::fmt::Debug for Probe<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe")
            .field("enabled", &self.enabled())
            .field("traced", &self.trace.is_some())
            .finish()
    }
}

/// Times a phase; emits a [`Event::Span`] on drop and restores the parent
/// span as the trace's current one.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard<'a> {
    sink: Option<&'a dyn Sink>,
    trace: Option<&'a TraceState>,
    name: &'static str,
    started: Option<Instant>,
    start_ticks: u64,
    ticks: Option<&'a dyn TickSource>,
    id: u64,
    parent: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(sink), Some(started)) = (self.sink, self.started) {
            let end_ticks = self.ticks.map_or(self.start_ticks, TickSource::ticks);
            sink.record(Event::Span {
                name: self.name,
                micros: started.elapsed().as_micros(),
                id: self.id,
                parent: self.parent,
                ticks: end_ticks.saturating_sub(self.start_ticks),
            });
            if let Some(trace) = self.trace {
                trace.close(self.parent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Collector;

    #[test]
    fn disabled_probe_records_nothing() {
        let probe = Probe::disabled();
        assert!(!probe.enabled());
        probe.count("x", 3);
        probe.gauge("y", 7);
        probe.note("z", || panic!("detail closure must not run when disabled"));
        drop(probe.span("w"));
    }

    #[test]
    fn disabled_probe_with_trace_records_nothing() {
        // Attaching a trace state must not change the zero-event guarantee:
        // without a sink there is nowhere to record, and no ids are drawn.
        let trace = TraceState::new();
        let probe = Probe::disabled().with_trace(&trace);
        drop(probe.span("w"));
        assert_eq!(trace.current(), 0);
        assert_eq!(trace.next_id.get(), 1, "no id was allocated");
    }

    #[test]
    fn attached_probe_forwards_events() {
        let collector = Collector::new();
        let probe = Probe::attached(&collector);
        assert!(probe.enabled());
        probe.count("search.valuations", 5);
        probe.count("search.valuations", 2);
        probe.count("search.valuations", 0); // zero deltas are dropped
        probe.gauge("adom.size", 11);
        probe.note("outcome", || "complete".to_string());
        drop(probe.span("phase"));

        let report = collector.report();
        assert_eq!(report.counter("search.valuations"), 7);
        assert_eq!(report.gauge("adom.size"), Some(11));
        assert_eq!(report.notes("outcome"), vec!["complete".to_string()]);
        assert!(report.span_micros("phase").is_some());
        // 2 counts + 1 gauge + 1 note + 1 span — an untraced probe emits no
        // SpanOpen events.
        assert_eq!(collector.events().len(), 5);
    }

    #[test]
    fn probe_is_copy() {
        let collector = Collector::new();
        let probe = Probe::attached(&collector);
        let copy = probe;
        probe.count("a", 1);
        copy.count("a", 1);
        assert_eq!(collector.report().counter("a"), 2);
    }

    #[test]
    fn traced_spans_form_a_tree() {
        let collector = Collector::new();
        let trace = TraceState::new();
        let probe = Probe::attached(&collector).with_trace(&trace);
        {
            let _root = probe.span("root");
            {
                let _child = probe.span("child");
                drop(probe.span("grandchild"));
            }
            drop(probe.span("sibling"));
        }
        let events = collector.events();
        // 4 SpanOpen + 4 Span.
        assert_eq!(events.len(), 8);
        let mut parents = std::collections::BTreeMap::new();
        for e in &events {
            if let Event::SpanOpen {
                name, id, parent, ..
            } = e
            {
                parents.insert(*name, (*id, *parent));
            }
        }
        let (root_id, root_parent) = parents["root"];
        assert_eq!(root_parent, 0);
        let (child_id, child_parent) = parents["child"];
        assert_eq!(child_parent, root_id);
        assert_eq!(parents["grandchild"].1, child_id);
        assert_eq!(parents["sibling"].1, root_id, "parent restored on close");
        // Close events carry the same ids.
        for e in &events {
            if let Event::Span {
                name, id, parent, ..
            } = e
            {
                assert_eq!(parents[name], (*id, *parent));
            }
        }
    }

    #[test]
    fn spans_record_tick_deltas() {
        struct FakeTicks(Cell<u64>);
        impl TickSource for FakeTicks {
            fn ticks(&self) -> u64 {
                self.0.get()
            }
        }
        let collector = Collector::new();
        let ticks = FakeTicks(Cell::new(10));
        let probe = Probe::attached(&collector).with_ticks(&ticks);
        {
            let _span = probe.span("work");
            ticks.0.set(17);
        }
        match &collector.events()[0] {
            Event::Span { ticks, .. } => assert_eq!(*ticks, 7),
            other => panic!("expected span, got {other:?}"),
        }
    }
}
