//! Streaming incremental completeness monitoring.
//!
//! The paper's RCDP decision is one-shot: given `(D, D_m, V)` and a query
//! `Q`, decide whether `D` is complete for `Q` relative to the setting. A
//! live deployment faces the same question *continuously* — the database
//! takes inserts and deletes, the master data is occasionally corrected, and
//! every registered `(V, Q)` pair's verdict must stay current. A [`Monitor`]
//! keeps N registered settings' RCDP verdicts up to date across a
//! transactional stream ([`Txn`]) of [`Op`]s against `D` and `D_m`, spending
//! as little as possible per transaction:
//!
//! * **Footprint skip.** Each setting's relation footprint (the relations
//!   its query and constraint bodies read, via [`CcBody::rels`] and
//!   [`Query::rels`]) is computed at registration. A transaction whose net
//!   changes are disjoint from the footprint costs O(1) for that setting
//!   (`monitor.skip`).
//! * **Net-change coalescing.** Ops are coalesced per `(target, relation,
//!   tuple)` before any invalidation decision: an insert+delete pair of the
//!   same tuple cancels, so a transaction that nets to nothing skips every
//!   setting.
//! * **Incremental partial closure.** For insert-heavy transactions the
//!   `(D, D_m) |= V` check is maintained through the prepared delta checker
//!   ([`PreparedSetting::upper_satisfied_delta`]) over an additive
//!   [`Overlay`] instead of a full re-evaluation; deletes
//!   on monotone bodies ride the same check by downward closure.
//! * **Exact one-step undo.** The first rung of the verdict ladder (undo →
//!   anchor → recert → decide) for a touched, partially closed setting. A
//!   transaction whose net change swaps the inserts and deletes of the one
//!   before it, on both `D` and `D_m`, brings back exactly the state before
//!   that one. Each touched setting replays the verdict that transaction
//!   replaced, bitwise, with no search (`monitor.memo.hit`). The check
//!   compares the two net changes, in work that follows `|Δ|`.
//! * **Complete anchors.** Each setting keeps up to four states it saw
//!   decided `Complete` under the current master data, each held as
//!   two O(|Δ|)-maintained sets over its relation footprint: anchor tuples
//!   the database has since lost, and tuples it has gained. Completeness
//!   quantifies over every partially closed extension, so a partially
//!   closed database containing an anchor is `Complete` with no search
//!   (`monitor.anchor.hit`, also counted as `monitor.fast_complete`). This
//!   covers insert-only growth from a `Complete` state and a heal that
//!   re-inserts what a break deleted. A master-data change drops every
//!   anchor.
//! * **Counterexample recertification.** An `Incomplete` verdict's cached
//!   counterexample is re-checked before any re-decision. For a CQ/UCQ/∃FO⁺
//!   query under monotone constraint bodies the check runs on an overlay
//!   of the partially closed database: the setting's own candidate check
//!   ([`PreparedSetting::first_violation`]) on `D ∪ Δ` and two head-pinned
//!   joins, in work that follows `|Δ|`. FO/FP queries and bodies fall back
//!   to [`ric_complete::rcdp::certify_counterexample`].
//! * **Frontier reuse.** An `Unknown` verdict's unexplored search frontier
//!   is kept as a [`Checkpoint`] (PR 7's resumable form); a later decision
//!   on the same database (validated by [`rcdp_fingerprint`]) — in
//!   particular a budget escalation through [`Monitor::escalate`] — resumes
//!   it instead of restarting.
//! * **Plan staleness.** Under [`Engine::Planned`](ric_complete::Engine),
//!   observed cardinalities
//!   drifting ≥2× from the preparation's [`planned_rows`] raise
//!   `plan.stale`; the decision still runs (drifted plans are exact, only
//!   slower) and the setting replans before its *next* decision.
//!
//! Every fast path is exact: the incremental verdict equals a from-scratch
//! decision on the materialized database (`tests/monitor_differential.rs`
//! pins this across engines and batch sizes). Determinism
//! caveats — where "equals" means "same verdict kind and a certifying
//! witness" rather than bitwise equality — are catalogued in DESIGN §12.
//!
//! [`CcBody::rels`]: ric_constraints::CcBody::rels
//! [`Query::rels`]: ric_complete::Query::rels
//! [`planned_rows`]: PreparedSetting::planned_rows

use ric_complete::checkpoint::{rcdp_fingerprint, Checkpoint};
use ric_complete::query::PinnedQuery;
use ric_complete::rcdp::certify_counterexample;
use ric_complete::{
    BudgetLimit, CounterExample, Guard, PreparedSetting, Query, RcError, Request, SearchBudget,
    Setting, Verdict,
};
use ric_constraints::{CcBody, ConstraintSet};
use ric_data::{DataError, Database, Overlay, RelId, Schema, Tuple};
use ric_telemetry::Probe;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Handle to a registered setting, returned by [`Monitor::register`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct SettingId(pub usize);

impl fmt::Display for SettingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "setting#{}", self.0)
    }
}

/// Which database an [`Op`] mutates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Target {
    /// The monitored database `D`.
    Db,
    /// The master data `D_m`. Master changes invalidate the prepared
    /// right-hand sides, so they force a re-preparation of every setting
    /// whose master footprint they touch.
    Master,
}

/// One tuple-level mutation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Op {
    /// Insert `tuple` into `rel`.
    Insert {
        /// The database mutated.
        target: Target,
        /// The relation mutated.
        rel: RelId,
        /// The tuple inserted.
        tuple: Tuple,
    },
    /// Delete `tuple` from `rel` (a no-op if absent).
    Delete {
        /// The database mutated.
        target: Target,
        /// The relation mutated.
        rel: RelId,
        /// The tuple deleted.
        tuple: Tuple,
    },
}

impl Op {
    /// Insert into `D`.
    pub fn insert(rel: RelId, tuple: Tuple) -> Self {
        Op::Insert {
            target: Target::Db,
            rel,
            tuple,
        }
    }

    /// Delete from `D`.
    pub fn delete(rel: RelId, tuple: Tuple) -> Self {
        Op::Delete {
            target: Target::Db,
            rel,
            tuple,
        }
    }

    /// Insert into `D_m`.
    pub fn master_insert(rel: RelId, tuple: Tuple) -> Self {
        Op::Insert {
            target: Target::Master,
            rel,
            tuple,
        }
    }

    /// Delete from `D_m`.
    pub fn master_delete(rel: RelId, tuple: Tuple) -> Self {
        Op::Delete {
            target: Target::Master,
            rel,
            tuple,
        }
    }

    /// The op with insert and delete swapped.
    pub fn inverse(&self) -> Op {
        match self {
            Op::Insert { target, rel, tuple } => Op::Delete {
                target: *target,
                rel: *rel,
                tuple: tuple.clone(),
            },
            Op::Delete { target, rel, tuple } => Op::Insert {
                target: *target,
                rel: *rel,
                tuple: tuple.clone(),
            },
        }
    }

    fn parts(&self) -> (Target, RelId, &Tuple, bool) {
        match self {
            Op::Insert { target, rel, tuple } => (*target, *rel, tuple, true),
            Op::Delete { target, rel, tuple } => (*target, *rel, tuple, false),
        }
    }
}

/// A transaction: a sequence of ops applied atomically. Per `(target,
/// relation, tuple)` the *last* op wins; invalidation and fast-path
/// decisions key on the resulting net change only.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Txn {
    /// The ops, in application order.
    pub ops: Vec<Op>,
}

impl Txn {
    /// Build a transaction.
    pub fn new(ops: impl IntoIterator<Item = Op>) -> Self {
        Txn {
            ops: ops.into_iter().collect(),
        }
    }

    /// The reversed transaction: ops in reverse order, inserts and deletes
    /// swapped. This is the exact inverse when every op was *effective*
    /// (inserted tuples were absent, deleted tuples present); an op that
    /// was a no-op forward becomes a real mutation backward.
    pub fn inverse(&self) -> Txn {
        Txn {
            ops: self.ops.iter().rev().map(Op::inverse).collect(),
        }
    }
}

/// A verdict's summary kind, used by [`VerdictChange`] transitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// `Verdict::Complete`.
    Complete,
    /// `Verdict::Incomplete(_)`.
    Incomplete,
    /// `Verdict::Unknown { .. }`.
    Unknown,
    /// `(D, D_m) ⊭ V`: the decision problem takes no such input, so there
    /// is no verdict to report (a from-scratch decision would return
    /// [`RcError::NotPartiallyClosed`]).
    NotPartiallyClosed,
}

impl Status {
    /// Stable machine-readable name (telemetry notes and gauges).
    pub fn name(&self) -> &'static str {
        match self {
            Status::Complete => "complete",
            Status::Incomplete => "incomplete",
            Status::Unknown => "unknown",
            Status::NotPartiallyClosed => "not_partially_closed",
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The monitored state of one registered setting.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SettingVerdict {
    /// The database is partially closed and this is its current verdict.
    Decided(Verdict),
    /// `(D, D_m) ⊭ V` — completeness is undefined until the constraints
    /// hold again.
    NotPartiallyClosed,
}

impl SettingVerdict {
    /// The summary kind.
    pub fn status(&self) -> Status {
        match self {
            SettingVerdict::Decided(Verdict::Complete) => Status::Complete,
            SettingVerdict::Decided(Verdict::Incomplete(_)) => Status::Incomplete,
            SettingVerdict::Decided(Verdict::Unknown { .. }) => Status::Unknown,
            SettingVerdict::NotPartiallyClosed => Status::NotPartiallyClosed,
        }
    }

    /// The full verdict, when the database is partially closed.
    pub fn verdict(&self) -> Option<&Verdict> {
        match self {
            SettingVerdict::Decided(v) => Some(v),
            SettingVerdict::NotPartiallyClosed => None,
        }
    }
}

/// A verdict transition, emitted by [`Monitor::apply`] whenever a
/// transaction changes a setting's [`Status`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerdictChange {
    /// The setting whose verdict changed.
    pub setting: SettingId,
    /// The status before the transaction.
    pub from: Status,
    /// The status after the transaction.
    pub to: Status,
    /// The transaction sequence number that caused the change
    /// ([`Monitor::txn_seq`] after the apply).
    pub txn_seq: u64,
}

impl fmt::Display for VerdictChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} -> {} (txn {})",
            self.setting, self.from, self.to, self.txn_seq
        )
    }
}

/// Typed monitor failures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MonitorError {
    /// An op failed validation (unknown relation, arity or domain
    /// violation). The transaction was not applied.
    Data(DataError),
    /// A decision failed structurally (malformed query/program, unsupported
    /// language combination).
    Rc(RcError),
    /// No setting with this id is registered.
    UnknownSetting(SettingId),
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::Data(e) => write!(f, "invalid op: {e}"),
            MonitorError::Rc(e) => write!(f, "decision failed: {e}"),
            MonitorError::UnknownSetting(id) => write!(f, "unknown {id}"),
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<DataError> for MonitorError {
    fn from(e: DataError) -> Self {
        MonitorError::Data(e)
    }
}

impl From<RcError> for MonitorError {
    fn from(e: RcError) -> Self {
        MonitorError::Rc(e)
    }
}

/// Cumulative work/skip counters, exposed for tests and dashboards. Every
/// counter is also emitted through the telemetry probe under the
/// corresponding `monitor.*` (or `plan.stale`) name.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MonitorCounters {
    /// Settings skipped because a transaction's net changes were disjoint
    /// from their relation footprint (O(1) per skip).
    pub skip: u64,
    /// Full re-decisions executed.
    pub redecide: u64,
    /// Verdicts replayed because the transaction exactly undid the one
    /// before it (the undo rung; the name predates it).
    pub memo_hit: u64,
    /// `Incomplete` verdicts kept because the cached counterexample still
    /// certifies on the new state (polynomial, no search).
    pub recert_hit: u64,
    /// Cached counterexamples that no longer certify (followed by a full
    /// re-decision).
    pub recert_miss: u64,
    /// `Complete` verdicts answered without search: the same count as
    /// [`Self::anchor_hit`], kept under its original name.
    pub fast_complete: u64,
    /// `Complete` verdicts answered by a Complete anchor the database
    /// still contains (no search).
    pub anchor_hit: u64,
    /// Partial-closure checks answered incrementally via the prepared delta
    /// checker.
    pub cc_delta: u64,
    /// Partial-closure checks that fell back to full re-evaluation.
    pub cc_full: u64,
    /// Constraint bodies the delta checker skipped by relation-footprint
    /// disjointness (summed `DeltaCheck::skipped`).
    pub cc_delta_skipped: u64,
    /// Decisions that detected ≥2× cardinality drift from the plan's costed
    /// row counts (`plan.stale`).
    pub plan_stale: u64,
    /// Re-preparations triggered by a stale plan (the decision after the
    /// drift detection).
    pub replan: u64,
    /// Re-preparations triggered by master-data changes.
    pub reprepare: u64,
    /// Decisions resumed from a cached [`Checkpoint`] frontier.
    pub frontier_resume: u64,
    /// Always 0: the undo rung keeps one verdict per setting and evicts
    /// nothing. Kept so that readers of the field still build.
    pub memo_evict: u64,
}

/// The D-side or Dm-side relation footprint of a setting.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Footprint {
    /// Reads (or may read, under active-domain semantics) every relation.
    All,
    /// Reads exactly these relations.
    Rels(BTreeSet<RelId>),
}

impl Footprint {
    fn empty() -> Self {
        Footprint::Rels(BTreeSet::new())
    }

    fn add(&mut self, rel: RelId) {
        if let Footprint::Rels(rels) = self {
            rels.insert(rel);
        }
    }

    fn widen(&mut self) {
        *self = Footprint::All;
    }

    fn extend(&mut self, more: impl IntoIterator<Item = RelId>) {
        if let Footprint::Rels(rels) = self {
            rels.extend(more);
        }
    }

    fn union(&self, other: &Footprint) -> Footprint {
        match (self, other) {
            (Footprint::All, _) | (_, Footprint::All) => Footprint::All,
            (Footprint::Rels(a), Footprint::Rels(b)) => {
                Footprint::Rels(a.iter().chain(b.iter()).copied().collect())
            }
        }
    }

    fn intersects(&self, touched: &BTreeSet<RelId>) -> bool {
        match self {
            Footprint::All => !touched.is_empty(),
            Footprint::Rels(rels) => !rels.is_disjoint(touched),
        }
    }

    fn contains(&self, rel: RelId) -> bool {
        match self {
            Footprint::All => true,
            Footprint::Rels(rels) => rels.contains(&rel),
        }
    }
}

/// How Phase A decided the partial-closure check should be finished.
enum PcPlan {
    /// The constraint footprint was untouched: partial closure is unchanged.
    Unchanged,
    /// The prepared delta checker already answered on `D ∪ Δ⁺`; by downward
    /// closure (monotone bodies) the answer covers the post-state too.
    /// `recheck_lower` asks Phase C to re-validate the lower bounds on the
    /// post-state (deletes may have broken them). `skipped` is the number of
    /// constraint bodies the checker skipped by footprint disjointness.
    DeltaOk { recheck_lower: bool, skipped: u64 },
    /// The delta check failed with no deletes in the constraint footprint:
    /// the post-state agrees with `D ∪ Δ⁺` on every constrained relation,
    /// so the violation is real.
    Violated { skipped: u64 },
    /// Recompute `(D, D_m) |= V` from scratch on the post-state.
    Recompute,
}

/// Per-setting action for one transaction, decided before mutation.
enum Action {
    /// Footprint disjoint from the net changes: O(1), verdict untouched.
    Skip,
    /// Touched: finish the partial-closure plan post-mutation, then run the
    /// verdict fast paths / re-decision. `reprepare` is set when master
    /// data in the setting's footprint changed (the prepared right-hand
    /// sides are stale).
    Touch { pc: PcPlan, reprepare: bool },
}

/// Most Complete anchors a setting keeps; recording one more drops the
/// oldest.
const ANCHOR_CAP: usize = 4;

/// A state decided `Complete` under the current master data, held as its
/// difference from the live database over the setting's `db_rels`.
///
/// If `S` is complete for `Q` relative to `(D_m, V)`, so is every partially
/// closed `D ⊇ S`: each partially closed `D′ ⊇ D` also extends `S`, so
/// `Q(D′) = Q(S) = Q(D)`. An anchor with nothing missing therefore answers
/// `Complete` for a partially closed database. Relations outside the
/// footprint are not tracked: the verdict does not read them. A new
/// (default) anchor is one at the current state.
#[derive(Default)]
struct Anchor {
    /// Anchor tuples the database has lost since, by relation (no empty
    /// sets).
    missing: BTreeMap<RelId, BTreeSet<Tuple>>,
    /// Tuples the database has gained since, by relation (no empty sets).
    added: BTreeMap<RelId, BTreeSet<Tuple>>,
}

impl Anchor {
    /// Fold one net change of the database into the difference.
    fn note(&mut self, rel: RelId, t: &Tuple, inserted: bool) {
        let (undo, record) = if inserted {
            (&mut self.missing, &mut self.added)
        } else {
            (&mut self.added, &mut self.missing)
        };
        if let Some(set) = undo.get_mut(&rel) {
            if set.remove(t) {
                if set.is_empty() {
                    undo.remove(&rel);
                }
                return;
            }
        }
        record.entry(rel).or_default().insert(t.clone());
    }

    /// Does the database still contain the anchor?
    fn contained(&self) -> bool {
        self.missing.is_empty()
    }
}

/// A setting's query compiled once for re-checking counterexamples against
/// the partially closed post-state of every transaction.
struct Recert {
    /// The query compiled for the overlay check, when that applies: a
    /// CQ/UCQ/∃FO⁺ query and no FO/FP constraint body. `None` falls back to
    /// [`certify_counterexample`].
    pinned: Option<PinnedQuery>,
}

impl Recert {
    fn new(v: &ConstraintSet, query: &Query) -> Result<Self, RcError> {
        let monotone = v
            .ccs
            .iter()
            .map(|cc| &cc.body)
            .chain(v.lower_bounds.iter().map(|lb| &lb.body))
            .all(|b| !matches!(b, CcBody::Fo(_) | CcBody::Fp(_)));
        let pinned = if monotone { query.pinned()? } else { None };
        Ok(Recert { pinned })
    }

    /// [`certify_counterexample`] for a `db` known to be partially closed,
    /// in work that follows `|Δ|` rather than `|D|`: the upper bounds are
    /// the preparation's own candidate check on `D ∪ Δ`; monotone lower
    /// bounds hold on `D` and so on every extension; and for a monotone
    /// query the answer change the definition asks for is exactly
    /// `new_answer ∈ Q(D ∪ Δ) ∖ Q(D)`, two head-pinned joins.
    fn certify(
        &self,
        prepared: &PreparedSetting,
        query: &Query,
        db: &Database,
        ce: &CounterExample,
    ) -> Result<bool, RcError> {
        let Some(pinned) = &self.pinned else {
            return certify_counterexample(prepared.setting(), query, db, ce);
        };
        if prepared.first_violation(db, &ce.delta).is_some() {
            return Ok(false);
        }
        let ov = Overlay::new(db, &ce.delta).map_err(|_| RcError::NotPartiallyClosed)?;
        Ok(pinned.derives(&ov, &ce.new_answer) && !pinned.derives(db, &ce.new_answer))
    }
}

struct Registered {
    name: String,
    prepared: PreparedSetting,
    query: Query,
    /// D-side relations the verdict depends on (query ∪ constraints).
    db_rels: Footprint,
    /// D-side relations the constraint set reads (partial closure).
    v_rels: Footprint,
    /// Dm-side relations the constraint set reads.
    master_rels: Footprint,
    /// No FO/FP upper-bound bodies (delta checking is exact).
    upper_monotone: bool,
    /// No FO/FP lower-bound bodies (insert-preserved).
    lower_monotone: bool,
    has_lower: bool,
    /// The query compiled for counterexample recertification.
    recert: Recert,
    pc: bool,
    state: SettingVerdict,
    /// The verdict the last transaction that touched this setting
    /// replaced, when it is [`replayable`]. Only a transaction that exactly
    /// undoes the monitor's last one reads it, and such a transaction
    /// touches the same relations: a setting the last transaction skipped
    /// is skipped again, so an older `undo` is never read.
    undo: Option<SettingVerdict>,
    /// Complete anchors, oldest first.
    anchors: VecDeque<Anchor>,
    frontier: Option<Checkpoint>,
    stale_plan: bool,
}

impl Registered {
    /// Decide this setting on `db` through the prepared preparation (which
    /// pins the monitor's engine), and cache the frontier of a resumably
    /// stopped search. With `resume`, a cached frontier captured on exactly
    /// this database (its [`rcdp_fingerprint`] matches — O(|D|), negligible
    /// against the decision) is continued instead of restarted; the resumed
    /// driver is verdict-identical to an uninterrupted run (DESIGN §10).
    #[allow(clippy::too_many_arguments)]
    fn rcdp(
        &mut self,
        db: &Database,
        budget: &SearchBudget,
        guard: &Guard,
        resume: bool,
        probe: Probe<'_>,
        counters: &mut MonitorCounters,
    ) -> Result<Verdict, RcError> {
        let prior = match self.frontier.take() {
            Some(cp) if resume => {
                let fp = rcdp_fingerprint(self.prepared.setting(), &self.query, db);
                (cp.fingerprint == fp).then_some(cp)
            }
            _ => None,
        };
        if prior.is_some() {
            counters.frontier_resume += 1;
            probe.count("monitor.frontier.resume", 1);
        }
        let out = Request::new(&self.prepared)
            .budget(budget)
            .guard(guard)
            .probe(probe)
            .resume(prior.as_ref())
            .rcdp(&self.query, db)?;
        self.frontier = out.checkpoint;
        Ok(out.verdict)
    }

    /// Fold the transaction's net changes on the footprint into every
    /// anchor.
    fn track(&mut self, net: &NetChange) {
        if self.anchors.is_empty() {
            return;
        }
        for &rel in net.touched_db.iter().filter(|&&r| self.db_rels.contains(r)) {
            for (delta, inserted) in [(&net.ins_db, true), (&net.del_db, false)] {
                for t in delta.instance(rel).iter() {
                    for a in &mut self.anchors {
                        a.note(rel, t, inserted);
                    }
                }
            }
        }
    }

    /// Is some anchor still contained in the database?
    fn anchored(&self) -> bool {
        self.anchors.iter().any(Anchor::contained)
    }

    /// Record the current state as an anchor when it is decided Complete and
    /// no anchor already covers it (a contained anchor is a subset of this
    /// state, so it answers for every state this one would).
    fn note_verdict(&mut self) {
        if matches!(self.state, SettingVerdict::Decided(Verdict::Complete)) && !self.anchored() {
            if self.anchors.len() == ANCHOR_CAP {
                self.anchors.pop_front();
            }
            self.anchors.push_back(Anchor::default());
        }
    }
}

/// Net effect of one transaction: coalesced per-tuple changes, split by
/// target and direction, plus the touched relation sets.
struct NetChange {
    ins_db: Database,
    del_db: Database,
    ins_m: Database,
    del_m: Database,
    touched_db: BTreeSet<RelId>,
    touched_m: BTreeSet<RelId>,
    del_db_rels: BTreeSet<RelId>,
}

impl NetChange {
    fn is_empty(&self) -> bool {
        self.touched_db.is_empty() && self.touched_m.is_empty()
    }

    /// Does this net change exactly undo `last`, the one committed just
    /// before it? Both are effective (inserts were absent, deletes
    /// present), so swapping inserts and deletes on both `D` and `D_m`
    /// brings back exactly the state `last` started from.
    fn undoes(&self, last: &NetChange) -> bool {
        self.ins_db == last.del_db
            && self.del_db == last.ins_db
            && self.ins_m == last.del_m
            && self.del_m == last.ins_m
    }
}

/// A continuous RCDP monitor over one database/master pair.
///
/// Register settings with [`Monitor::register`], feed transactions through
/// [`Monitor::apply`], read verdicts with [`Monitor::verdicts`]. See the
/// crate docs for the invalidation and fast-path machinery.
pub struct Monitor {
    schema: Schema,
    master_schema: Schema,
    db: Database,
    dm: Database,
    budget: SearchBudget,
    settings: Vec<Registered>,
    txn_seq: u64,
    counters: MonitorCounters,
    /// The last committed transaction's net change, for the undo rung.
    /// `None` after a transaction that failed past its commit.
    last: Option<NetChange>,
}

impl Monitor {
    /// A monitor over an initially empty database. `budget` (including its
    /// engine) applies to every decision; escalate individual settings with
    /// [`Monitor::escalate`].
    pub fn new(
        schema: Schema,
        master_schema: Schema,
        dm: Database,
        budget: SearchBudget,
    ) -> Result<Self, MonitorError> {
        if dm.len() != master_schema.len() {
            return Err(MonitorError::Data(DataError::SchemaMismatch));
        }
        let db = Database::empty(&schema);
        Ok(Monitor {
            schema,
            master_schema,
            db,
            dm,
            budget,
            settings: Vec::new(),
            txn_seq: 0,
            counters: MonitorCounters::default(),
            last: None,
        })
    }

    /// The monitored database `D`.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The master data `D_m`.
    pub fn dm(&self) -> &Database {
        &self.dm
    }

    /// Transactions applied so far.
    pub fn txn_seq(&self) -> u64 {
        self.txn_seq
    }

    /// The per-decision budget (engine included).
    pub fn budget(&self) -> &SearchBudget {
        &self.budget
    }

    /// Cumulative work/skip counters.
    pub fn counters(&self) -> &MonitorCounters {
        &self.counters
    }

    /// Current verdicts, in registration order.
    pub fn verdicts(&self) -> Vec<(SettingId, &SettingVerdict)> {
        self.settings
            .iter()
            .enumerate()
            .map(|(i, s)| (SettingId(i), &s.state))
            .collect()
    }

    /// The current verdict of one setting.
    pub fn verdict(&self, id: SettingId) -> Result<&SettingVerdict, MonitorError> {
        self.settings
            .get(id.0)
            .map(|s| &s.state)
            .ok_or(MonitorError::UnknownSetting(id))
    }

    /// The registered name of one setting.
    pub fn name(&self, id: SettingId) -> Result<&str, MonitorError> {
        self.settings
            .get(id.0)
            .map(|s| s.name.as_str())
            .ok_or(MonitorError::UnknownSetting(id))
    }

    /// FNV-1a digest of the monitor's *semantic* state: both databases and
    /// every setting's verdict and partial-closure flag. A transaction
    /// followed by its exact inverse restores this digest bitwise (the undo
    /// rung replays each verdict it replaced). The undo slots, anchors,
    /// cached frontiers, compiled plans with their staleness flag, and
    /// counters are deliberately excluded — they record *how* the state
    /// was reached, not what it is (see DESIGN §12).
    pub fn state_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        // Hash tuple contents, not the databases' Debug form: the latter
        // includes derived state (lazily built indexes) that differs between
        // semantically equal databases.
        for db in [&self.db, &self.dm] {
            for (rel, inst) in db.iter() {
                eat(format!("r{}", rel.0).as_bytes());
                for t in inst.iter() {
                    eat(format!("{t:?}").as_bytes());
                }
            }
        }
        for s in &self.settings {
            eat(s.name.as_bytes());
            eat(format!("{:?}|{}", s.state, s.pc).as_bytes());
        }
        h
    }

    /// Register a setting: the monitor's schemas and current master data
    /// plus this constraint set and query, compiled once (the prepared
    /// upper bounds, and under [`Engine::Planned`](ric_complete::Engine)
    /// the cost-based plans) and decided immediately.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        v: ConstraintSet,
        query: Query,
    ) -> Result<SettingId, MonitorError> {
        self.register_probed(name, v, query, Probe::disabled())
    }

    /// [`Monitor::register`] with a telemetry probe attached.
    pub fn register_probed(
        &mut self,
        name: impl Into<String>,
        v: ConstraintSet,
        query: Query,
        probe: Probe<'_>,
    ) -> Result<SettingId, MonitorError> {
        let (db_rels, v_rels, master_rels) = footprints(&v, &query);
        let upper_monotone = !v
            .ccs
            .iter()
            .any(|cc| matches!(cc.body, CcBody::Fo(_) | CcBody::Fp(_)));
        let lower_monotone = !v
            .lower_bounds
            .iter()
            .any(|lb| matches!(lb.body, CcBody::Fo(_) | CcBody::Fp(_)));
        let has_lower = !v.lower_bounds.is_empty();
        let setting = Setting::new(
            self.schema.clone(),
            self.master_schema.clone(),
            self.dm.clone(),
            v,
        );
        let recert = Recert::new(&setting.v, &query)?;
        let prepared = PreparedSetting::prepare(setting, &self.db, self.budget.engine)?;
        let mut reg = Registered {
            name: name.into(),
            prepared,
            query,
            db_rels,
            v_rels,
            master_rels,
            upper_monotone,
            lower_monotone,
            has_lower,
            recert,
            pc: false,
            state: SettingVerdict::NotPartiallyClosed,
            undo: None,
            anchors: VecDeque::new(),
            frontier: None,
            stale_plan: false,
        };
        self.counters.cc_full += 1;
        reg.pc = reg
            .prepared
            .setting()
            .partially_closed(&self.db)
            .map_err(RcError::from)?;
        if reg.pc {
            let guard = Guard::new(&self.budget);
            reg.state = decide(
                &mut reg,
                &self.db,
                &self.budget,
                &guard,
                probe,
                &mut self.counters,
            )?;
            reg.note_verdict();
        }
        let id = SettingId(self.settings.len());
        probe.note("monitor.register", || {
            format!("{id} {:?} -> {}", self.settings.len(), reg.state.status())
        });
        self.settings.push(reg);
        self.emit_gauges(probe);
        Ok(id)
    }

    /// Apply a transaction and return the verdict transitions it caused.
    /// Ops are validated (relation, arity, attribute domains) before any
    /// mutation; a validation error leaves the monitor untouched.
    pub fn apply(&mut self, txn: &Txn) -> Result<Vec<VerdictChange>, MonitorError> {
        self.apply_probed(txn, Probe::disabled())
    }

    /// [`Monitor::apply`] with a telemetry probe attached.
    pub fn apply_probed(
        &mut self,
        txn: &Txn,
        probe: Probe<'_>,
    ) -> Result<Vec<VerdictChange>, MonitorError> {
        let guard = Guard::new(&self.budget);
        self.apply_guarded(txn, &guard, probe)
    }

    /// [`Monitor::apply`] under an external guard: the deadline/cancel
    /// state spans every re-decision the transaction triggers, giving the
    /// whole transaction one budget.
    pub fn apply_guarded(
        &mut self,
        txn: &Txn,
        guard: &Guard,
        probe: Probe<'_>,
    ) -> Result<Vec<VerdictChange>, MonitorError> {
        for op in &txn.ops {
            self.validate(op)?;
        }
        let net = self.net_change(txn);
        self.txn_seq += 1;
        let seq = self.txn_seq;
        if net.is_empty() {
            // The transaction nets to nothing: every setting skips, and the
            // state (so the last transaction's undo) is unchanged.
            let n = self.settings.len() as u64;
            self.counters.skip += n;
            probe.count("monitor.skip", n);
            return Ok(Vec::new());
        }

        // Phase A (pre-mutation): classify every setting and run the
        // incremental partial-closure checks that need the pre-state.
        let mut plans = Vec::with_capacity(self.settings.len());
        for s in &self.settings {
            plans.push(self.phase_a(s, &net)?);
        }

        // Phase B: commit the net changes. The last transaction is taken
        // first, so one that fails past this point leaves no undo behind. A
        // master-data change drops every Complete anchor: each was decided
        // under the old master data.
        let undoes = self.last.take().is_some_and(|last| net.undoes(&last));
        apply_net(&mut self.db, &net.ins_db, &net.del_db);
        apply_net(&mut self.dm, &net.ins_m, &net.del_m);
        if !net.touched_m.is_empty() {
            for s in &mut self.settings {
                s.anchors.clear();
            }
        }

        // Phase C (post-mutation): finish partial closure, run the verdict
        // fast paths, re-decide where nothing cheaper is sound.
        let mut changes = Vec::new();
        for (i, plan) in plans.into_iter().enumerate() {
            let (action_skip, change) = self.phase_c(i, plan, &net, undoes, seq, guard, probe)?;
            if action_skip {
                self.counters.skip += 1;
                probe.count("monitor.skip", 1);
            }
            if let Some(c) = change {
                probe.note("monitor.verdict_change", || c.to_string());
                changes.push(c);
            }
        }
        self.last = Some(net);
        self.emit_gauges(probe);
        Ok(changes)
    }

    /// Re-decide one setting at a (typically larger) budget, resuming from
    /// its cached [`Checkpoint`] frontier when the database has not changed
    /// since the frontier was captured. The monitor's own budget is
    /// unchanged. The escalated verdict becomes the setting's verdict, and
    /// a still-`Unknown` one updates the frontier for the next installment.
    /// The database is unchanged, so an exact inverse of the last
    /// transaction still replays the verdict from before it, and a redo
    /// after that replays the escalated one.
    pub fn escalate(
        &mut self,
        id: SettingId,
        budget: &SearchBudget,
    ) -> Result<Option<VerdictChange>, MonitorError> {
        self.escalate_probed(id, budget, Probe::disabled())
    }

    /// [`Monitor::escalate`] with a telemetry probe attached.
    pub fn escalate_probed(
        &mut self,
        id: SettingId,
        budget: &SearchBudget,
        probe: Probe<'_>,
    ) -> Result<Option<VerdictChange>, MonitorError> {
        let seq = self.txn_seq;
        let s = self
            .settings
            .get_mut(id.0)
            .ok_or(MonitorError::UnknownSetting(id))?;
        if !s.pc {
            return Ok(None);
        }
        let guard = Guard::new(budget);
        let verdict = s.rcdp(&self.db, budget, &guard, true, probe, &mut self.counters)?;
        let new_state = SettingVerdict::Decided(verdict);
        let from = s.state.status();
        let to = new_state.status();
        s.state = new_state;
        s.note_verdict();
        let change = (from != to).then_some(VerdictChange {
            setting: id,
            from,
            to,
            txn_seq: seq,
        });
        if let Some(c) = change {
            probe.note("monitor.verdict_change", || c.to_string());
        }
        self.emit_gauges(probe);
        Ok(change)
    }

    fn validate(&self, op: &Op) -> Result<(), MonitorError> {
        let (target, rel, tuple, _) = op.parts();
        let schema = match target {
            Target::Db => &self.schema,
            Target::Master => &self.master_schema,
        };
        let rs = schema.relation(rel)?;
        if tuple.arity() != rs.arity() {
            return Err(MonitorError::Data(DataError::ArityMismatch {
                rel,
                expected: rs.arity(),
                got: tuple.arity(),
            }));
        }
        for (col, (v, a)) in tuple.iter().zip(rs.attributes.iter()).enumerate() {
            if !a.domain.admits(v) {
                return Err(MonitorError::Data(DataError::DomainViolation {
                    rel,
                    col,
                    value: v.to_string(),
                }));
            }
        }
        Ok(())
    }

    /// Coalesce the ops into net per-tuple changes against the current
    /// state (last op per `(target, rel, tuple)` wins; changes that restore
    /// the pre-state membership vanish).
    fn net_change(&self, txn: &Txn) -> NetChange {
        let mut finals: BTreeMap<(Target, RelId, &Tuple), bool> = BTreeMap::new();
        for op in &txn.ops {
            let (target, rel, tuple, present) = op.parts();
            finals.insert((target, rel, tuple), present);
        }
        let mut net = NetChange {
            ins_db: Database::empty(&self.schema),
            del_db: Database::empty(&self.schema),
            ins_m: Database::empty(&self.master_schema),
            del_m: Database::empty(&self.master_schema),
            touched_db: BTreeSet::new(),
            touched_m: BTreeSet::new(),
            del_db_rels: BTreeSet::new(),
        };
        for ((target, rel, tuple), post) in finals {
            let (db, touched) = match target {
                Target::Db => (&self.db, &mut net.touched_db),
                Target::Master => (&self.dm, &mut net.touched_m),
            };
            let pre = db.instance(rel).contains(tuple);
            if pre == post {
                continue;
            }
            touched.insert(rel);
            match (target, post) {
                (Target::Db, true) => {
                    net.ins_db.insert(rel, tuple.clone());
                }
                (Target::Db, false) => {
                    net.del_db.insert(rel, tuple.clone());
                    net.del_db_rels.insert(rel);
                }
                (Target::Master, true) => {
                    net.ins_m.insert(rel, tuple.clone());
                }
                (Target::Master, false) => {
                    net.del_m.insert(rel, tuple.clone());
                }
            }
        }
        net
    }

    fn phase_a(&self, s: &Registered, net: &NetChange) -> Result<Action, MonitorError> {
        let touches_db = s.db_rels.intersects(&net.touched_db);
        let touches_m = s.master_rels.intersects(&net.touched_m);
        if !touches_db && !touches_m {
            return Ok(Action::Skip);
        }
        if touches_m {
            // The prepared right-hand sides cache `p(D_m)`; any master
            // change in the footprint invalidates them wholesale.
            return Ok(Action::Touch {
                pc: PcPlan::Recompute,
                reprepare: true,
            });
        }
        let v_touched = s.v_rels.intersects(&net.touched_db);
        let del_in_v = net.del_db_rels.iter().any(|&r| s.v_rels.contains(r));
        let pc = if !v_touched {
            PcPlan::Unchanged
        } else if s.pc && s.upper_monotone {
            // Incremental check on the additive side: if the upper bounds
            // hold on D ∪ Δ⁺ they hold on (D ∖ Δ⁻) ∪ Δ⁺ by downward
            // closure of monotone bodies.
            let ov = Overlay::new(&self.db, &net.ins_db)?;
            let dc = s.prepared.upper_satisfied_delta(&ov)?;
            let skipped = dc.skipped as u64;
            if dc.satisfied {
                PcPlan::DeltaOk {
                    recheck_lower: s.has_lower && (del_in_v || !s.lower_monotone),
                    skipped,
                }
            } else if del_in_v {
                // The violation on D ∪ Δ⁺ may involve tuples the
                // transaction also deletes: inconclusive.
                PcPlan::Recompute
            } else {
                PcPlan::Violated { skipped }
            }
        } else {
            PcPlan::Recompute
        };
        Ok(Action::Touch {
            pc,
            reprepare: false,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn phase_c(
        &mut self,
        idx: usize,
        action: Action,
        net: &NetChange,
        undoes: bool,
        seq: u64,
        guard: &Guard,
        probe: Probe<'_>,
    ) -> Result<(bool, Option<VerdictChange>), MonitorError> {
        let Action::Touch { pc, reprepare } = action else {
            return Ok((true, None));
        };
        let s = &mut self.settings[idx];
        s.track(net);
        if reprepare {
            let setting = Setting::new(
                self.schema.clone(),
                self.master_schema.clone(),
                self.dm.clone(),
                s.prepared.setting().v.clone(),
            );
            s.prepared = PreparedSetting::prepare(setting, &self.db, self.budget.engine)?;
            self.counters.reprepare += 1;
            probe.count("monitor.reprepare", 1);
        }
        let pc_post = match pc {
            PcPlan::Unchanged => s.pc,
            PcPlan::Violated { skipped } => {
                self.counters.cc_delta += 1;
                self.counters.cc_delta_skipped += skipped;
                probe.count("monitor.cc.delta", 1);
                false
            }
            PcPlan::DeltaOk {
                recheck_lower,
                skipped,
            } => {
                self.counters.cc_delta += 1;
                self.counters.cc_delta_skipped += skipped;
                probe.count("monitor.cc.delta", 1);
                if recheck_lower {
                    let setting = s.prepared.setting();
                    let mut ok = true;
                    for lb in &setting.v.lower_bounds {
                        if !lb.satisfied(&self.db, &self.dm).map_err(RcError::from)? {
                            ok = false;
                            break;
                        }
                    }
                    ok
                } else {
                    true
                }
            }
            PcPlan::Recompute => {
                self.counters.cc_full += 1;
                probe.count("monitor.cc.full", 1);
                s.prepared
                    .setting()
                    .partially_closed(&self.db)
                    .map_err(RcError::from)?
            }
        };
        let from = s.state.status();
        let replay = if undoes { s.undo.take() } else { None };
        let new_state = if !pc_post {
            SettingVerdict::NotPartiallyClosed
        } else if let Some(prior) = replay {
            // Undo first, shortcuts second: the transaction undid the last
            // one, so the state is the one `prior` was decided on, and it
            // comes back *bitwise*, where the shortcuts would only reproduce
            // it up to witness choice.
            self.counters.memo_hit += 1;
            probe.count("monitor.memo.hit", 1);
            prior
        } else {
            match shortcut(s, &self.db, probe, &mut self.counters) {
                Some(state) => state,
                None => decide(s, &self.db, &self.budget, guard, probe, &mut self.counters)?,
            }
        };
        s.pc = pc_post;
        let to = new_state.status();
        s.undo = replayable(std::mem::replace(&mut s.state, new_state));
        s.note_verdict();
        let change = (from != to).then_some(VerdictChange {
            setting: SettingId(idx),
            from,
            to,
            txn_seq: seq,
        });
        Ok((false, change))
    }

    fn emit_gauges(&self, probe: Probe<'_>) {
        if !probe.enabled() {
            return;
        }
        let mut counts = [0u64; 4];
        for s in &self.settings {
            let i = match s.state.status() {
                Status::Complete => 0,
                Status::Incomplete => 1,
                Status::Unknown => 2,
                Status::NotPartiallyClosed => 3,
            };
            counts[i] += 1;
        }
        probe.gauge("monitor.settings.complete", counts[0]);
        probe.gauge("monitor.settings.incomplete", counts[1]);
        probe.gauge("monitor.settings.unknown", counts[2]);
        probe.gauge("monitor.settings.npc", counts[3]);
        probe.gauge("monitor.txn_seq", self.txn_seq);
    }
}

/// `state` if an exact undo may replay it: never the decider's defensive
/// `NotPartiallyClosed` (see [`decide`]), and never an `Unknown` cut by a
/// deadline or a cancellation, which is not a function of the decision's
/// inputs and would let timing leak into a replay.
fn replayable(state: SettingVerdict) -> Option<SettingVerdict> {
    match &state {
        SettingVerdict::NotPartiallyClosed => None,
        SettingVerdict::Decided(Verdict::Unknown { stats })
            if matches!(stats.limit, BudgetLimit::Deadline | BudgetLimit::Cancelled) =>
        {
            None
        }
        SettingVerdict::Decided(_) => Some(state),
    }
}

/// Commit net inserts and deletes into one database.
fn apply_net(db: &mut Database, ins: &Database, del: &Database) {
    for (rel, inst) in del.iter() {
        for t in inst.iter() {
            db.instance_mut(rel).remove(t);
        }
    }
    for (rel, inst) in ins.iter() {
        for t in inst.iter() {
            db.insert(rel, t.clone());
        }
    }
}

/// The answers that need no search, for a partially closed database the
/// undo rung did not answer: `Complete` from a contained anchor, or
/// `Incomplete` from a cached counterexample that still certifies.
fn shortcut(
    s: &Registered,
    db: &Database,
    probe: Probe<'_>,
    counters: &mut MonitorCounters,
) -> Option<SettingVerdict> {
    if s.anchored() {
        counters.anchor_hit += 1;
        counters.fast_complete += 1;
        probe.count("monitor.anchor.hit", 1);
        probe.count("monitor.fast_complete", 1);
        return Some(SettingVerdict::Decided(Verdict::Complete));
    }
    let SettingVerdict::Decided(Verdict::Incomplete(ce)) = &s.state else {
        return None;
    };
    if s.recert.pinned.is_none() {
        probe.count("monitor.recert.fallback", 1);
    }
    if s.recert
        .certify(&s.prepared, &s.query, db, ce)
        .unwrap_or(false)
    {
        counters.recert_hit += 1;
        probe.count("monitor.recert.hit", 1);
        Some(SettingVerdict::Decided(Verdict::Incomplete(ce.clone())))
    } else {
        counters.recert_miss += 1;
        probe.count("monitor.recert.miss", 1);
        None
    }
}

/// Full re-decision for one setting on the current database:
/// plan-staleness replan, frontier resume, decide.
fn decide(
    s: &mut Registered,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    counters: &mut MonitorCounters,
) -> Result<SettingVerdict, MonitorError> {
    // Only a preparation has planned rows, so a setting without one (naive
    // engine, IND-only set) never drifts and never replans.
    if s.stale_plan {
        // The previous decision flagged ≥2× drift; replan now, before
        // deciding (recompute-or-degrade: degrade then, recompute now).
        let setting = s.prepared.setting().clone();
        s.prepared = PreparedSetting::prepare(setting, db, budget.engine)?;
        s.stale_plan = false;
        counters.replan += 1;
        probe.count("monitor.replan", 1);
        probe.note("monitor.replan", || s.name.clone());
    } else if plan_drifted(&s.prepared, db) {
        // Decide with the drifted plan (exact, possibly slower) and
        // replan before the next decision.
        s.stale_plan = true;
        counters.plan_stale += 1;
        probe.count("plan.stale", 1);
    }
    counters.redecide += 1;
    probe.count("monitor.redecide", 1);
    // Continue an interrupted search; restart anything else.
    let continuing_unknown = matches!(s.state, SettingVerdict::Decided(Verdict::Unknown { .. }));
    match s.rcdp(db, budget, guard, continuing_unknown, probe, counters) {
        Ok(v) => Ok(SettingVerdict::Decided(v)),
        // Defensive: the monitor's own partial-closure tracking said
        // closed; trust the decider's full check if it disagrees.
        Err(RcError::NotPartiallyClosed) => Ok(SettingVerdict::NotPartiallyClosed),
        Err(e) => Err(MonitorError::Rc(e)),
    }
}

/// Has any planned relation's live cardinality drifted ≥2× (in either
/// direction) from the row count its plan was costed on?
fn plan_drifted(prepared: &PreparedSetting, db: &Database) -> bool {
    prepared.planned_rows().iter().any(|&(rel, planned)| {
        let observed = db.instance(rel).len().max(1);
        let planned = planned.max(1);
        observed >= 2 * planned || planned >= 2 * observed
    })
}

/// `(db_rels, v_rels, master_rels)` for a setting. FO/FP bodies and queries
/// widen their side to [`Footprint::All`]: under active-domain semantics
/// their answers may shift when *any* relation changes.
fn footprints(v: &ConstraintSet, query: &Query) -> (Footprint, Footprint, Footprint) {
    let mut v_rels = Footprint::empty();
    let mut master_rels = Footprint::empty();
    for cc in &v.ccs {
        match cc.body {
            CcBody::Fo(_) | CcBody::Fp(_) => v_rels.widen(),
            _ => v_rels.extend(cc.body.rels()),
        }
        if let ric_constraints::CcRhs::Master(p) = &cc.rhs {
            master_rels.add(p.rel);
        }
    }
    for lb in &v.lower_bounds {
        match lb.body {
            CcBody::Fo(_) | CcBody::Fp(_) => v_rels.widen(),
            _ => v_rels.extend(lb.body.rels()),
        }
        master_rels.add(lb.master.rel);
    }
    let q_rels = match query.rels() {
        Some(rels) => Footprint::Rels(rels),
        None => Footprint::All,
    };
    let db_rels = v_rels.union(&q_rels);
    (db_rels, v_rels, master_rels)
}
