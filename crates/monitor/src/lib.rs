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
//! * **Verdict fast paths.** A `Complete` verdict survives any insert-only
//!   transaction that keeps the database partially closed (a counterexample
//!   for the grown database would extend the original). An `Incomplete`
//!   verdict's cached counterexample is re-certified in polynomial time
//!   ([`ric_complete::rcdp::certify_counterexample`]) before any exponential
//!   re-decision is considered.
//! * **Fingerprint memo.** Decisions are memoized per setting under an
//!   incrementally maintained content fingerprint of `(D, D_m)` (an XOR of
//!   per-tuple hashes, updated in O(|Δ|) per transaction), so a transaction
//!   and its inverse (or a state the stream revisits) re-decides nothing
//!   (`monitor.memo.hit`) — and looking the memo up costs O(1), not a scan
//!   of the database.
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

use ric_complete::checkpoint::{rcdp_fingerprint, rcdp_resumed_guarded, Checkpoint};
use ric_complete::rcdp::certify_counterexample;
use ric_complete::{Guard, PreparedSetting, Query, RcError, SearchBudget, Setting, Verdict};
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
    /// Re-decisions avoided by the fingerprint memo.
    pub memo_hit: u64,
    /// `Incomplete` verdicts kept because the cached counterexample still
    /// certifies on the new state (polynomial, no search).
    pub recert_hit: u64,
    /// Cached counterexamples that no longer certify (followed by a full
    /// re-decision).
    pub recert_miss: u64,
    /// `Complete` verdicts kept through the insert-only monotonicity fast
    /// path.
    pub fast_complete: u64,
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
    /// Memoized verdicts evicted by the per-setting LRU cap
    /// ([`Monitor::with_memo_cap`]).
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
    Touch {
        pc: PcPlan,
        reprepare: bool,
        insert_only: bool,
    },
}

/// Default cap on memoized decisions per setting (least-recently-used
/// evicted); override per monitor with [`Monitor::with_memo_cap`].
const MEMO_CAP: usize = 32;

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
    pc: bool,
    state: SettingVerdict,
    memo: BTreeMap<u64, SettingVerdict>,
    memo_order: VecDeque<u64>,
    frontier: Option<Checkpoint>,
    stale_plan: bool,
}

impl Registered {
    /// Memo lookup with LRU refresh: a hit moves `fp` to most-recent, so
    /// the fingerprint of the *current* state is always the last to be
    /// evicted — an immediately undone transaction always replays its
    /// pre-state verdict bitwise.
    fn memo_lookup(&mut self, fp: u64) -> Option<SettingVerdict> {
        let hit = self.memo.get(&fp).cloned();
        if hit.is_some() {
            self.memo_order.retain(|&f| f != fp);
            self.memo_order.push_back(fp);
        }
        hit
    }

    /// Memoize under the LRU cap; returns the number of evictions (0 or 1).
    fn memoize(&mut self, fp: u64, state: &SettingVerdict, cap: usize) -> u64 {
        // Wall-clock limited verdicts are not deterministic functions of the
        // decision inputs; caching them would let timing leak into replays.
        if let SettingVerdict::Decided(Verdict::Unknown { stats }) = state {
            if matches!(
                stats.limit,
                ric_complete::BudgetLimit::Deadline | ric_complete::BudgetLimit::Cancelled
            ) {
                return 0;
            }
        }
        if self.memo.insert(fp, state.clone()).is_some() {
            self.memo_order.retain(|&f| f != fp);
        }
        self.memo_order.push_back(fp);
        let mut evicted = 0;
        while self.memo_order.len() > cap {
            if let Some(old) = self.memo_order.pop_front() {
                self.memo.remove(&old);
                evicted += 1;
            }
        }
        evicted
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
    memo_cap: usize,
    settings: Vec<Registered>,
    txn_seq: u64,
    counters: MonitorCounters,
    /// Incremental content fingerprints of `db`/`dm`: XOR of per-tuple
    /// hashes, maintained in O(|Δ|) per transaction. Their combination
    /// ([`memo_key`]) keys the per-setting verdict memos, so the memo
    /// lookup on the fast path never scans the database.
    db_fp: u64,
    dm_fp: u64,
}

impl Monitor {
    /// A monitor over an initially empty database. `budget` (including its
    /// engine) applies to every decision; keep it fixed so memoized verdicts
    /// stay valid — escalate individual settings with [`Monitor::escalate`].
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
        let dm_fp = content_fp(&dm);
        Ok(Monitor {
            schema,
            master_schema,
            db,
            dm,
            budget,
            memo_cap: MEMO_CAP,
            settings: Vec::new(),
            txn_seq: 0,
            counters: MonitorCounters::default(),
            db_fp: 0,
            dm_fp,
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

    /// Override the per-setting verdict-memo capacity (default 32, minimum
    /// 1). Evictions are counted in [`MonitorCounters::memo_evict`] and
    /// emitted as `monitor.memo.evict`. Memoization is a pure cache: the
    /// capacity changes how often verdicts are replayed bitwise from memory
    /// versus re-decided, never the verdicts themselves.
    pub fn with_memo_cap(mut self, cap: usize) -> Self {
        self.memo_cap = cap.max(1);
        self
    }

    /// The per-setting verdict-memo capacity.
    pub fn memo_cap(&self) -> usize {
        self.memo_cap
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
    /// followed by its exact inverse restores this digest bitwise. The memo
    /// cache, cached frontiers, compiled plans with their staleness flag,
    /// and counters are deliberately excluded — they record *how* the state
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
            pc: false,
            state: SettingVerdict::NotPartiallyClosed,
            memo: BTreeMap::new(),
            memo_order: VecDeque::new(),
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
            let key = memo_key(self.db_fp, self.dm_fp);
            reg.state = decide(
                &mut reg,
                key,
                &self.db,
                &self.budget,
                self.memo_cap,
                &guard,
                probe,
                &mut self.counters,
            )?;
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
            // The transaction nets to nothing: every setting skips.
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

        // Phase B: commit the net changes and fold them into the content
        // fingerprints (every net op toggles exactly one membership).
        apply_net(&mut self.db, &net.ins_db, &net.del_db);
        apply_net(&mut self.dm, &net.ins_m, &net.del_m);
        for delta in [&net.ins_db, &net.del_db] {
            for (rel, inst) in delta.iter() {
                for t in inst.iter() {
                    self.db_fp ^= tuple_fp(rel, t);
                }
            }
        }
        for delta in [&net.ins_m, &net.del_m] {
            for (rel, inst) in delta.iter() {
                for t in inst.iter() {
                    self.dm_fp ^= tuple_fp(rel, t);
                }
            }
        }

        // Phase C (post-mutation): finish partial closure, run the verdict
        // fast paths, re-decide where nothing cheaper is sound.
        let mut changes = Vec::new();
        for (i, plan) in plans.into_iter().enumerate() {
            let (action_skip, change) = self.phase_c(i, plan, seq, guard, probe)?;
            if action_skip {
                self.counters.skip += 1;
                probe.count("monitor.skip", 1);
            }
            if let Some(c) = change {
                probe.note("monitor.verdict_change", || c.to_string());
                changes.push(c);
            }
        }
        self.emit_gauges(probe);
        Ok(changes)
    }

    /// Re-decide one setting at a (typically larger) budget, resuming from
    /// its cached [`Checkpoint`] frontier when the database has not changed
    /// since the frontier was captured. The monitor's own budget is
    /// unchanged; a *decided* escalated verdict (Complete/Incomplete) is
    /// recorded and memoized — it is correct at any budget — while a still-
    /// `Unknown` verdict updates the frontier for the next installment.
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
        let key = memo_key(self.db_fp, self.dm_fp);
        let s = self
            .settings
            .get_mut(id.0)
            .ok_or(MonitorError::UnknownSetting(id))?;
        if !s.pc {
            return Ok(None);
        }
        let fp = rcdp_fingerprint(s.prepared.setting(), &s.query, &self.db);
        let prior = s.frontier.take().filter(|c| c.fingerprint == fp);
        if prior.is_some() {
            self.counters.frontier_resume += 1;
            probe.count("monitor.frontier.resume", 1);
        }
        let mut b = *budget;
        b.engine = self.budget.engine;
        let guard = Guard::new(&b);
        let res = rcdp_resumed_guarded(
            s.prepared.setting(),
            &s.query,
            &self.db,
            &b,
            &guard,
            probe,
            prior.as_ref(),
        )?;
        s.frontier = res.checkpoint;
        let new_state = SettingVerdict::Decided(res.verdict);
        // Only budget-independent verdicts enter the memo: an `Unknown` at
        // the escalated budget says nothing about the monitor's own budget.
        if matches!(
            new_state,
            SettingVerdict::Decided(Verdict::Complete | Verdict::Incomplete(_))
        ) {
            let evicted = s.memoize(key, &new_state, self.memo_cap);
            self.counters.memo_evict += evicted;
            probe.count("monitor.memo.evict", evicted);
        }
        let from = s.state.status();
        let to = new_state.status();
        s.state = new_state;
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
        let insert_only = !net.del_db_rels.iter().any(|&r| s.db_rels.contains(r)) && !touches_m;
        if touches_m {
            // The prepared right-hand sides cache `p(D_m)`; any master
            // change in the footprint invalidates them wholesale.
            return Ok(Action::Touch {
                pc: PcPlan::Recompute,
                reprepare: true,
                insert_only,
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
            match s.prepared.upper_satisfied_delta(&ov)? {
                Some(dc) => {
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
                }
                // No preparation compiled (IND-only set, naive engine).
                None => PcPlan::Recompute,
            }
        } else {
            PcPlan::Recompute
        };
        Ok(Action::Touch {
            pc,
            reprepare: false,
            insert_only,
        })
    }

    fn phase_c(
        &mut self,
        idx: usize,
        action: Action,
        seq: u64,
        guard: &Guard,
        probe: Probe<'_>,
    ) -> Result<(bool, Option<VerdictChange>), MonitorError> {
        let Action::Touch {
            pc,
            reprepare,
            insert_only,
        } = action
        else {
            return Ok((true, None));
        };
        let s = &mut self.settings[idx];
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
        let new_state = if !pc_post {
            SettingVerdict::NotPartiallyClosed
        } else {
            // Memo first, fast paths second: a revisited state (e.g. a txn
            // undone by its inverse) reproduces its recorded verdict
            // *bitwise*, where the fast paths would only reproduce it up to
            // witness choice. The key is the incrementally maintained
            // content fingerprint, so this lookup is O(1).
            let key = memo_key(self.db_fp, self.dm_fp);
            if let Some(hit) = s.memo_lookup(key) {
                self.counters.memo_hit += 1;
                probe.count("monitor.memo.hit", 1);
                hit
            } else {
                let fast = match (&s.state, insert_only) {
                    // Monotonicity: a counterexample for the grown database
                    // would extend the original, so Complete survives any
                    // insert-only transaction that stays partially closed.
                    (SettingVerdict::Decided(Verdict::Complete), true) => {
                        self.counters.fast_complete += 1;
                        probe.count("monitor.fast_complete", 1);
                        Some(SettingVerdict::Decided(Verdict::Complete))
                    }
                    (SettingVerdict::Decided(Verdict::Incomplete(ce)), _) => {
                        // Re-certify the cached counterexample (polynomial)
                        // before considering an exponential re-decision.
                        let ce = ce.clone();
                        if certify_counterexample(s.prepared.setting(), &s.query, &self.db, &ce)
                            .unwrap_or(false)
                        {
                            self.counters.recert_hit += 1;
                            probe.count("monitor.recert.hit", 1);
                            Some(SettingVerdict::Decided(Verdict::Incomplete(ce)))
                        } else {
                            self.counters.recert_miss += 1;
                            probe.count("monitor.recert.miss", 1);
                            None
                        }
                    }
                    _ => None,
                };
                match fast {
                    // Fast-path outcomes are memoized too, so a later
                    // revisit of this fingerprint replays them exactly.
                    Some(state) => {
                        let evicted = s.memoize(key, &state, self.memo_cap);
                        self.counters.memo_evict += evicted;
                        probe.count("monitor.memo.evict", evicted);
                        state
                    }
                    None => decide(
                        s,
                        key,
                        &self.db,
                        &self.budget,
                        self.memo_cap,
                        guard,
                        probe,
                        &mut self.counters,
                    )?,
                }
            }
        };
        s.pc = pc_post;
        let to = new_state.status();
        s.state = new_state;
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

/// FNV-1a hash of one tuple's membership in one relation. Content
/// fingerprints XOR these per present tuple, so inserting and deleting a
/// tuple toggle the same bit pattern and the fingerprint is a pure function
/// of the database's contents (order- and history-independent).
fn tuple_fp(rel: RelId, t: &Tuple) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("r{}|{t:?}", rel.0).bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The content fingerprint of a whole database (used once at construction;
/// transactions maintain it incrementally).
fn content_fp(db: &Database) -> u64 {
    let mut fp = 0u64;
    for (rel, inst) in db.iter() {
        for t in inst.iter() {
            fp ^= tuple_fp(rel, t);
        }
    }
    fp
}

/// The memo key for the current `(D, D_m)` pair. The rotation keeps a tuple
/// moving between the database and the master data from cancelling out.
fn memo_key(db_fp: u64, dm_fp: u64) -> u64 {
    db_fp ^ dm_fp.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15
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

/// Full re-decision pipeline for one setting on the current database (the
/// caller already computed the memo `key` and found no entry under it):
/// plan-staleness replan, frontier resume, decide, memoize.
#[allow(clippy::too_many_arguments)]
fn decide(
    s: &mut Registered,
    key: u64,
    db: &Database,
    budget: &SearchBudget,
    memo_cap: usize,
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
    let continuing_unknown = matches!(s.state, SettingVerdict::Decided(Verdict::Unknown { .. }));
    let verdict = if continuing_unknown {
        // Continue an interrupted search: resume its committed frontier if
        // the database still matches, restart otherwise. The checkpoint's
        // own [`rcdp_fingerprint`] validates the match (computing it is
        // O(|D|), negligible against the decision this path is about to
        // run). The resumed driver is verdict-identical to an uninterrupted
        // run (DESIGN §10).
        let fp = rcdp_fingerprint(s.prepared.setting(), &s.query, db);
        let prior = s.frontier.take().filter(|c| c.fingerprint == fp);
        if prior.is_some() {
            counters.frontier_resume += 1;
            probe.count("monitor.frontier.resume", 1);
        }
        let res = rcdp_resumed_guarded(
            s.prepared.setting(),
            &s.query,
            db,
            budget,
            guard,
            probe,
            prior.as_ref(),
        )?;
        s.frontier = res.checkpoint;
        res.verdict
    } else {
        match s.prepared.rcdp_guarded(&s.query, db, budget, guard, probe) {
            Ok(v) => v,
            // Defensive: the monitor's own partial-closure tracking said
            // closed; trust the decider's full check if it disagrees.
            Err(RcError::NotPartiallyClosed) => return Ok(SettingVerdict::NotPartiallyClosed),
            Err(e) => return Err(MonitorError::Rc(e)),
        }
    };
    let state = SettingVerdict::Decided(verdict);
    let evicted = s.memoize(key, &state, memo_cap);
    counters.memo_evict += evicted;
    probe.count("monitor.memo.evict", evicted);
    Ok(state)
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
