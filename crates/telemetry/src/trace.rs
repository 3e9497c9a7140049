//! Span trees and the structured [`Explain`] artifact.
//!
//! A traced probe emits `SpanOpen`/`Span` pairs with ids (see
//! [`crate::Probe::with_trace`]); this module rebuilds the decision tree from
//! that stream and packages it — together with counters, gauges, notes, and
//! interrupts — into an [`Explain`] that rides on every verdict of the `try_`
//! facade entry points.
//!
//! The [`TreeBuilder`] works from plain `&str` names so the `ric-trace` CLI
//! can feed it spans parsed back out of a JSONL trace file, not just live
//! [`Event`]s; [`Explain::from_events`] is the in-process wrapper that also
//! enforces the well-formedness contract (single root, no orphan parents,
//! every span closed).

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::json::Json;
use crate::probe::Event;
use crate::sink::InterruptRecord;

/// A malformed trace: duplicate ids, orphan parents, closes without opens,
/// or (for decision traces) multiple roots / unclosed spans.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceError {
    /// What went wrong.
    pub message: String,
}

impl TraceError {
    fn new(message: impl Into<String>) -> Self {
        TraceError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed trace: {}", self.message)
    }
}

impl std::error::Error for TraceError {}

/// One span of a rebuilt tree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpanRecord {
    /// Span name, e.g. `"rcdp.enumerate"`.
    pub name: String,
    /// The span's id (nonzero, unique within the tree).
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// Deterministic tick count when the span opened.
    pub at_tick: u64,
    /// Wall time in microseconds (0 until closed).
    pub micros: u128,
    /// Deterministic ticks spent inside the span (0 until closed).
    pub ticks: u64,
    /// Whether the close event was seen.
    pub closed: bool,
}

/// Rebuilds a [`SpanTree`] from open/close notifications in stream order.
#[derive(Clone, Debug, Default)]
pub struct TreeBuilder {
    records: Vec<SpanRecord>,
    by_id: BTreeMap<u64, usize>,
}

impl TreeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        TreeBuilder::default()
    }

    /// Record a span opening. Fails on id 0, a reused id, or a parent that
    /// was never opened (an orphan).
    pub fn open(
        &mut self,
        name: &str,
        id: u64,
        parent: u64,
        at_tick: u64,
    ) -> Result<(), TraceError> {
        if id == 0 {
            return Err(TraceError::new(format!("span \"{name}\" opened with id 0")));
        }
        if self.by_id.contains_key(&id) {
            return Err(TraceError::new(format!(
                "span id {id} opened twice (second open: \"{name}\")"
            )));
        }
        if parent != 0 && !self.by_id.contains_key(&parent) {
            return Err(TraceError::new(format!(
                "span \"{name}\" (id {id}) claims unknown parent {parent}"
            )));
        }
        self.by_id.insert(id, self.records.len());
        self.records.push(SpanRecord {
            name: name.to_string(),
            id,
            parent,
            at_tick,
            micros: 0,
            ticks: 0,
            closed: false,
        });
        Ok(())
    }

    /// Record a span closing. Fails on an id that was never opened or that
    /// already closed.
    pub fn close(
        &mut self,
        name: &str,
        id: u64,
        micros: u128,
        ticks: u64,
    ) -> Result<(), TraceError> {
        let Some(&idx) = self.by_id.get(&id) else {
            return Err(TraceError::new(format!(
                "span \"{name}\" (id {id}) closed without an open"
            )));
        };
        let record = &mut self.records[idx];
        if record.closed {
            return Err(TraceError::new(format!(
                "span \"{name}\" (id {id}) closed twice"
            )));
        }
        record.micros = micros;
        record.ticks = ticks;
        record.closed = true;
        Ok(())
    }

    /// Whether any span was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The finished tree. Structural errors were already rejected by
    /// [`TreeBuilder::open`]/[`TreeBuilder::close`]; the tree may still be a
    /// forest or hold unclosed spans — call [`SpanTree::require_decision`]
    /// to enforce the stricter decision-trace contract.
    pub fn finish(self) -> SpanTree {
        SpanTree {
            records: self.records,
        }
    }
}

/// A rebuilt span tree (possibly a forest, for raw trace files).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SpanTree {
    records: Vec<SpanRecord>,
}

impl SpanTree {
    /// All spans, in open order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Indices of root spans (parent 0), in open order.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.records.len())
            .filter(|&i| self.records[i].parent == 0)
            .collect()
    }

    /// Indices of `id`'s children, in open order.
    fn children_of(&self, id: u64) -> Vec<usize> {
        (0..self.records.len())
            .filter(|&i| self.records[i].parent == id)
            .collect()
    }

    /// Enforce the decision-trace contract on top of structural validity:
    /// exactly one root, and every span closed. The `try_` facade guarantees
    /// this for every [`Explain`] it attaches.
    pub fn require_decision(&self) -> Result<(), TraceError> {
        let roots = self.roots();
        if roots.len() != 1 {
            return Err(TraceError::new(format!(
                "decision trace must have exactly one root span, found {}",
                roots.len()
            )));
        }
        if let Some(open) = self.records.iter().find(|r| !r.closed) {
            return Err(TraceError::new(format!(
                "span \"{}\" (id {}) never closed",
                open.name, open.id
            )));
        }
        Ok(())
    }

    /// The flamegraph-style text rendering: one line per span, indented by
    /// depth, with both timebases. Unclosed spans render with `…` in place
    /// of measurements.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for root in self.roots() {
            self.render_into(&mut out, root, 0);
        }
        out
    }

    fn render_into(&self, out: &mut String, idx: usize, depth: usize) {
        let r = &self.records[idx];
        let pad = "  ".repeat(depth);
        if r.closed {
            let _ = writeln!(out, "{pad}{}  {} µs  {} ticks", r.name, r.micros, r.ticks);
        } else {
            let _ = writeln!(out, "{pad}{}  …", r.name);
        }
        for child in self.children_of(r.id) {
            self.render_into(out, child, depth + 1);
        }
    }

    /// The tree as nested JSON: `{name, micros, ticks, at_tick, children}`
    /// objects, one per root (wrapped in an array).
    pub fn to_json(&self) -> Json {
        Json::arr(self.roots().into_iter().map(|r| self.node_json(r)))
    }

    fn node_json(&self, idx: usize) -> Json {
        let r = &self.records[idx];
        Json::obj([
            ("name", Json::from(r.name.as_str())),
            ("micros", Json::from(r.micros)),
            ("ticks", Json::from(r.ticks)),
            ("at_tick", Json::from(r.at_tick)),
            (
                "children",
                Json::arr(
                    self.children_of(r.id)
                        .into_iter()
                        .map(|c| self.node_json(c)),
                ),
            ),
        ])
    }
}

/// The structured explanation attached to every verdict by the `try_`
/// facade entry points: what the search did (span tree with both timebases,
/// counters, gauges), what it concluded (`outcome`), and — when a decision
/// ended Unknown — which budget died (`limit`), at which depth, with what
/// frontier remaining (the `explain.*` notes emitted at the Unknown
/// construction sites).
#[derive(Clone, PartialEq, Debug)]
pub struct Explain {
    /// The decision's span tree: single root, every span closed.
    pub tree: SpanTree,
    /// The decider's outcome note (`rcdp.outcome` / `rcqp.outcome`), when
    /// one fired.
    pub outcome: Option<String>,
    /// The budget that cut the search short (`*.limit` note), for Unknown.
    pub limit: Option<String>,
    /// Every note, in emission order.
    pub notes: Vec<(String, String)>,
    /// Summed counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-observed gauges.
    pub gauges: BTreeMap<String, u64>,
    /// Cooperative interruptions observed during the decision.
    pub interrupts: Vec<InterruptRecord>,
}

impl Explain {
    /// Build an explanation from one decision's event stream, validating the
    /// span-tree contract (single root, no orphan parents, all closed).
    pub fn from_events(events: &[Event]) -> Result<Explain, TraceError> {
        let mut builder = TreeBuilder::new();
        let mut notes = Vec::new();
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut interrupts = Vec::new();
        for event in events {
            match event {
                Event::Count { name, delta } => {
                    *counters.entry(name.to_string()).or_insert(0) += delta;
                }
                Event::Gauge { name, value } => {
                    gauges.insert(name.to_string(), *value);
                }
                Event::SpanOpen {
                    name,
                    id,
                    parent,
                    at_tick,
                } => builder.open(name, *id, *parent, *at_tick)?,
                Event::Span {
                    name,
                    micros,
                    id,
                    ticks,
                    ..
                } => {
                    if *id == 0 {
                        return Err(TraceError::new(format!(
                            "span \"{name}\" closed without a trace id (probe not traced?)"
                        )));
                    }
                    builder.close(name, *id, *micros, *ticks)?;
                }
                Event::Note { name, detail } => {
                    notes.push((name.to_string(), detail.clone()));
                }
                Event::Interrupt {
                    name,
                    reason,
                    at_tick,
                } => interrupts.push(InterruptRecord {
                    name,
                    reason,
                    at_tick: *at_tick,
                }),
            }
        }
        if builder.is_empty() {
            return Err(TraceError::new("decision trace contains no spans"));
        }
        let tree = builder.finish();
        tree.require_decision()?;
        let outcome = last_note(&notes, ".outcome");
        let limit = last_note(&notes, ".limit");
        Ok(Explain {
            tree,
            outcome,
            limit,
            notes,
            counters,
            gauges,
            interrupts,
        })
    }

    /// The last note recorded under exactly `name`.
    pub fn note(&self, name: &str) -> Option<&str> {
        self.notes
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.as_str())
    }

    /// The explanation as one JSON object (`outcome`, `limit`, `tree`,
    /// `counters`, `gauges`, `notes`, `interrupts`) — the `explain` shape
    /// documented in EXPERIMENTS.md.
    pub fn to_json(&self) -> Json {
        let opt = |v: &Option<String>| match v {
            Some(s) => Json::from(s.as_str()),
            None => Json::Null,
        };
        Json::obj([
            ("outcome", opt(&self.outcome)),
            ("limit", opt(&self.limit)),
            ("tree", self.tree.to_json()),
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
                "notes",
                Json::arr(self.notes.iter().map(|(name, detail)| {
                    Json::obj([
                        ("name", Json::from(name.as_str())),
                        ("detail", Json::from(detail.as_str())),
                    ])
                })),
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

    /// A human-readable summary: outcome/limit header, then the span tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(outcome) = &self.outcome {
            let _ = writeln!(out, "outcome: {outcome}");
        }
        if let Some(limit) = &self.limit {
            let _ = writeln!(out, "limit:   {limit}");
        }
        for (name, detail) in self.notes.iter().filter(|(n, _)| n.starts_with("explain.")) {
            let _ = writeln!(out, "{name}: {detail}");
        }
        out.push_str(&self.tree.render());
        out
    }
}

/// The last note whose name ends with `suffix`.
fn last_note(notes: &[(String, String)], suffix: &str) -> Option<String> {
    notes
        .iter()
        .rev()
        .find(|(name, _)| name.ends_with(suffix))
        .map(|(_, detail)| detail.clone())
}

/// The top `k` counters under `prefix`, largest first (name-ordered on
/// ties, so the report is deterministic). The CLI's pruning report calls
/// this with `prefix = "prune."`.
pub fn top_k_counters(
    counters: &BTreeMap<String, u64>,
    prefix: &str,
    k: usize,
) -> Vec<(String, u64)> {
    let mut hits: Vec<(String, u64)> = counters
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(name, value)| (name.clone(), *value))
        .collect();
    hits.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Probe, TraceState};
    use crate::sink::Collector;

    fn traced_decision() -> Vec<Event> {
        let collector = Collector::new();
        let trace = TraceState::new();
        let probe = Probe::attached(&collector).with_trace(&trace);
        {
            let _root = probe.span("decision");
            probe.note("rcdp.strategy", || "enumerate".into());
            {
                let _enumerate = probe.span("rcdp.enumerate");
                probe.count("rcdp.valuations", 12);
                drop(probe.span("cc.check"));
            }
            probe.gauge("rcdp.adom_size", 5);
            probe.note("rcdp.outcome", || "complete".into());
        }
        collector.events()
    }

    #[test]
    fn explain_rebuilds_the_tree() {
        let explain = Explain::from_events(&traced_decision()).unwrap();
        assert_eq!(explain.outcome.as_deref(), Some("complete"));
        assert_eq!(explain.limit, None);
        assert_eq!(explain.counters["rcdp.valuations"], 12);
        assert_eq!(explain.gauges["rcdp.adom_size"], 5);
        let tree = &explain.tree;
        assert_eq!(tree.roots().len(), 1);
        assert_eq!(tree.records().len(), 3);
        let rendered = tree.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert!(lines[0].starts_with("decision  "));
        assert!(lines[1].starts_with("  rcdp.enumerate  "));
        assert!(lines[2].starts_with("    cc.check  "));
    }

    #[test]
    fn explain_note_returns_the_last_value() {
        let explain = Explain::from_events(&traced_decision()).unwrap();
        assert_eq!(explain.note("rcdp.strategy"), Some("enumerate"));
        assert_eq!(explain.note("missing"), None);
    }

    #[test]
    fn explain_rejects_orphans_and_forests() {
        // Orphan parent.
        let mut b = TreeBuilder::new();
        assert!(b.open("x", 2, 99, 0).is_err());
        // Duplicate id.
        let mut b = TreeBuilder::new();
        b.open("a", 1, 0, 0).unwrap();
        assert!(b.open("b", 1, 0, 0).is_err());
        // Close without open.
        let mut b = TreeBuilder::new();
        assert!(b.close("ghost", 3, 0, 0).is_err());
        // Two roots pass the builder but fail the decision contract.
        let mut b = TreeBuilder::new();
        b.open("a", 1, 0, 0).unwrap();
        b.close("a", 1, 10, 0).unwrap();
        b.open("b", 2, 0, 0).unwrap();
        b.close("b", 2, 10, 0).unwrap();
        assert!(b.finish().require_decision().is_err());
        // An unclosed span fails the decision contract too.
        let mut b = TreeBuilder::new();
        b.open("a", 1, 0, 0).unwrap();
        assert!(b.finish().require_decision().is_err());
        // An untraced close (id 0) is rejected outright.
        let events = [Event::Span {
            name: "flat",
            micros: 1,
            id: 0,
            parent: 0,
            ticks: 0,
        }];
        assert!(Explain::from_events(&events).is_err());
        // No spans at all.
        assert!(Explain::from_events(&[]).is_err());
    }

    #[test]
    fn explain_json_parses_back() {
        let explain = Explain::from_events(&traced_decision()).unwrap();
        let doc = crate::json::parse(&explain.to_json().to_string()).unwrap();
        assert_eq!(doc.get("outcome").and_then(Json::as_str), Some("complete"));
        let tree = doc.get("tree").and_then(Json::as_arr).unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].get("name").and_then(Json::as_str), Some("decision"));
        let children = tree[0].get("children").and_then(Json::as_arr).unwrap();
        assert_eq!(children.len(), 1);
        assert_eq!(
            children[0].get("name").and_then(Json::as_str),
            Some("rcdp.enumerate")
        );
    }

    #[test]
    fn top_k_counters_orders_deterministically() {
        let mut counters = BTreeMap::new();
        counters.insert("prune.cc00".to_string(), 10u64);
        counters.insert("prune.cc01".to_string(), 25);
        counters.insert("prune.head".to_string(), 25);
        counters.insert("rcdp.valuations".to_string(), 99);
        let top = top_k_counters(&counters, "prune.", 2);
        assert_eq!(
            top,
            vec![
                ("prune.cc01".to_string(), 25),
                ("prune.head".to_string(), 25),
            ]
        );
    }

    #[test]
    fn render_summarises_outcome_and_tree() {
        let explain = Explain::from_events(&traced_decision()).unwrap();
        let text = explain.render();
        assert!(text.starts_with("outcome: complete\n"));
        assert!(text.contains("decision  "));
    }
}
