//! RCDP — the *relatively complete database* problem (Section 3).
//!
//! Given `Q`, `(D_m, V)`, and a partially closed `D`, decide whether
//! `D ∈ RCQ(Q, D_m, V)`. For `L_Q, L_C` among INDs/CQ/UCQ/∃FO⁺ the decision
//! is exact and follows the paper's characterizations:
//!
//! > `D` is complete iff for every valid valuation `μ` of a disjunct tableau
//! > `(T_i, u_i)` over `Adom`: `(D ∪ μ(T_i), D_m) |= V  ⇒  μ(u_i) ∈ Q(D)`.
//!
//! This folds C1 and C2 (Proposition 3.3: when `Q(D) = ∅` the right-hand side
//! is unsatisfiable, giving C1), C3 (Corollary 3.4: for INDs,
//! `(D ∪ μ(T), D_m) |= V` simplifies to `(μ(T), D_m) |= V` because `D` is
//! partially closed and projections distribute over unions), and the
//! per-disjunct reading of C4 (Corollary 3.5: CC satisfaction with monotone
//! bodies is inherited by sub-extensions, so a UCQ extension changes the
//! answer iff some single disjunct instantiation does).
//!
//! When `L_Q` or `L_C` is FO or FP the problem is undecidable (Theorem 3.1);
//! [`rcdp`] automatically falls back to the bounded extension search of
//! [`crate::semidecide`], which can certify incompleteness but reports
//! `Unknown` otherwise.
//!
//! Every entry point — [`rcdp`], a [`crate::PreparedSetting`] decision, and
//! the checkpointed [`crate::checkpoint::rcdp_resumed_guarded`] — runs the
//! same dispatch (`decide`) and the same search driver: the exact search
//! walks one canonical chunk list (a chunk is one depth-0 candidate of one
//! disjunct) and a fresh decision is a resume with an empty ledger of
//! cleared chunks.

use crate::adom::Adom;
use crate::budget::{Engine, Meter, MeterKind, SearchBudget};
use crate::guard::Guard;
use crate::query::Query;
use crate::semidecide::BoundedResume;
use crate::setting::Setting;
use crate::valuations::{EnumOutcome, ValuationSpace, PROFILE_DEPTH};
use crate::verdict::{BudgetLimit, CounterExample, RcError, SearchStats, Verdict};
use ric_constraints::PreparedUpper;
use ric_data::{index::probe_count, Database, Overlay, Tuple, Value};
use ric_query::tableau::Tableau;
use ric_query::{QueryLanguage, Term};
use ric_telemetry::Probe;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How the inner loop checks `(D ∪ Δ, D_m) |= V` per candidate.
pub(crate) enum CheckMode {
    /// IND constraint sets: projections distribute over unions and `D` is
    /// partially closed, so checking `Δ` alone is equivalent (C3).
    IndOnly,
    /// Materialize `D ∪ Δ` and re-check every constraint (naive engine).
    Union,
    /// Overlay `D ∪ Δ` and re-check only what the novel tuples can break.
    /// Shared (`Arc`) so a [`crate::PreparedSetting`] can compile once and
    /// hand the same preparation to every decision.
    Delta(Arc<PreparedUpper>),
}

impl CheckMode {
    /// Pick the mode for this decision. The delta mode's precondition —
    /// upper bounds hold on the base — is the partial-closure input
    /// requirement, verified by the callers. `db` supplies the statistics
    /// the planned engine compiles its join orders from; a given `reuse`
    /// preparation (the prepared-decision path) is shared instead.
    pub(crate) fn select(
        setting: &Setting,
        engine: Engine,
        db: &Database,
        reuse: Option<&Arc<PreparedUpper>>,
    ) -> Result<CheckMode, RcError> {
        Ok(if setting.v.is_ind_set() {
            CheckMode::IndOnly
        } else if !engine.indexed() {
            CheckMode::Union
        } else {
            CheckMode::Delta(crate::prepared::upper_preparation(setting, db, reuse)?)
        })
    }

    /// The shared preparation backing the delta mode, if any.
    pub(crate) fn prepared(&self) -> Option<&Arc<PreparedUpper>> {
        match self {
            CheckMode::Delta(prep) => Some(prep),
            _ => None,
        }
    }

    /// Is `(D ∪ Δ, D_m) |= V` for the delta overlaid on `db`? Counts skipped
    /// constraints into `cc_skipped`.
    pub(crate) fn upper_satisfied(
        &self,
        setting: &Setting,
        db: &Database,
        delta: &Database,
        cc_skipped: &Cell<u64>,
    ) -> bool {
        self.upper_check(setting, db, delta, cc_skipped).is_none()
    }

    /// Like [`Self::upper_satisfied`], reporting the index of the first
    /// violated constraint (`None` = satisfied). Every strategy evaluates the
    /// constraints in set order and short-circuits on the first violation, so
    /// this does exactly the work of the boolean check — the search profiler
    /// keys its `prune.cc.NN` attribution counters on the result without
    /// perturbing any other counter.
    pub(crate) fn upper_check(
        &self,
        setting: &Setting,
        db: &Database,
        delta: &Database,
        cc_skipped: &Cell<u64>,
    ) -> Option<usize> {
        match self {
            CheckMode::IndOnly => setting
                .v
                .first_violated_upper(delta, &setting.dm)
                .unwrap_or_else(|e| {
                    unreachable!("constraint bodies validated by the precondition check: {e:?}")
                }),
            CheckMode::Union => {
                let extended = db
                    .union(delta)
                    .unwrap_or_else(|e| unreachable!("delta shares the setting schema: {e:?}"));
                setting
                    .v
                    .first_violated_upper(&extended, &setting.dm)
                    .unwrap_or_else(|e| {
                        unreachable!("constraint bodies validated by the precondition check: {e:?}")
                    })
            }
            CheckMode::Delta(prepared) => {
                let ov = Overlay::new(db, delta)
                    .unwrap_or_else(|e| unreachable!("delta shares the setting schema: {e:?}"));
                let res = prepared
                    .satisfied_delta(&setting.v, &ov)
                    .unwrap_or_else(|e| {
                        unreachable!("constraint bodies validated by the precondition check: {e:?}")
                    });
                cc_skipped.set(cc_skipped.get() + res.skipped as u64);
                res.violated
            }
        }
    }
}

/// Stable counter names for pruning attribution by containment-constraint
/// index: `prune.cc.NN` counts candidate rejections whose first violated
/// constraint was `V[NN]` (slot 15 absorbs larger sets).
pub(crate) const PRUNE_CC: [&str; CC_ATTR] = [
    "prune.cc.00",
    "prune.cc.01",
    "prune.cc.02",
    "prune.cc.03",
    "prune.cc.04",
    "prune.cc.05",
    "prune.cc.06",
    "prune.cc.07",
    "prune.cc.08",
    "prune.cc.09",
    "prune.cc.10",
    "prune.cc.11",
    "prune.cc.12",
    "prune.cc.13",
    "prune.cc.14",
    "prune.cc.15",
];

/// Emit nonzero `prune.cc.NN` attribution counters.
pub(crate) fn emit_cc_attribution(probe: Probe<'_>, viol: &[u64; CC_ATTR]) {
    for (name, &v) in PRUNE_CC.iter().zip(viol) {
        probe.count(name, v);
    }
}

/// Bump the attribution slot for constraint index `i` (clamped).
fn bump_viol(viol: &[Cell<u64>; CC_ATTR], i: usize) {
    let c = &viol[i.min(CC_ATTR - 1)];
    c.set(c.get() + 1);
}

/// Is the language exactly decidable by the Σᵖ₂ procedure?
pub(crate) fn exactly_decidable(l: QueryLanguage) -> bool {
    matches!(
        l,
        QueryLanguage::Inds | QueryLanguage::Cq | QueryLanguage::Ucq | QueryLanguage::EfoPlus
    )
}

/// Decide RCDP. Dispatches to the exact Σᵖ₂ decider when both `L_Q` and
/// `L_C` avoid negation and recursion, and to the bounded semi-decision
/// procedure otherwise.
///
/// Errors if `D` is not partially closed with respect to `(D_m, V)` — both
/// decision problems take partially closed databases as input.
pub fn rcdp(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
) -> Result<Verdict, RcError> {
    rcdp_probed(setting, query, db, budget, Probe::disabled())
}

/// [`rcdp`] with a telemetry probe attached: reports the dispatch strategy,
/// active-domain size, valuations enumerated, CC checks, query evaluations,
/// per-phase wall time, and the outcome (see the crate-level Observability
/// notes).
pub fn rcdp_probed(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    probe: Probe<'_>,
) -> Result<Verdict, RcError> {
    rcdp_guarded(setting, query, db, budget, &Guard::new(budget), probe)
}

/// [`rcdp_probed`] under a caller-supplied [`Guard`], so one deadline and one
/// [`CancelToken`](crate::CancelToken) span this decision (and any nested
/// decider calls). This is the entry point the facade's cancellable API uses;
/// `rcdp`/`rcdp_probed` delegate here with a fresh guard built from the
/// budget.
pub fn rcdp_guarded(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
) -> Result<Verdict, RcError> {
    Ok(decide(setting, query, db, budget, guard, probe, None, None)?.0)
}

/// A resumable exact run's committed ledger: the number of frontier chunks
/// in the canonical layout and the per-chunk stats of those already cleared.
pub(crate) type ExactLedger = (usize, Vec<(usize, ChunkStats)>);

/// Committed search progress carried from one installment of a decision to
/// the next. The public, serializable mirror is
/// [`Frontier`](crate::checkpoint::Frontier).
pub(crate) enum Ledger {
    /// The exact search's cleared chunks.
    Exact(ExactLedger),
    /// The bounded search's fully searched extension sizes.
    Bounded(Box<BoundedResume>),
}

/// Number of per-constraint pruning-attribution slots carried through the
/// chunk stats; constraint indexes past the last slot clamp into it.
pub(crate) const CC_ATTR: usize = 16;

/// How one chunk of the exact search ended.
enum ChunkEvent {
    /// Ran to completion without finding a counterexample.
    Clear,
    /// Found a counterexample.
    Hit(CounterExample),
    /// The meter rejected a request: count budget exhausted or guard tripped.
    Stopped,
}

/// Work counters of one chunk (exact search) or one committed prefix of
/// extension sizes (bounded search). The ledger commits them per cleared
/// chunk, and the decision counters are their sum.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct ChunkStats {
    /// Meter ticks consumed (valuations / candidates examined).
    pub ticks: u64,
    /// Containment-constraint checks performed.
    pub cc_checks: u64,
    /// CC checks skipped by the delta-aware strategy.
    pub cc_skipped: u64,
    /// Index probes issued (thread-local [`ric_data::index::probe_count`]
    /// deltas).
    pub probes: u64,
    /// Query evaluations performed.
    pub query_evals: u64,
    /// Candidates tried per assignment depth (profiler data; see
    /// [`crate::valuations::DepthProfile`]).
    pub depth_candidates: [u64; PROFILE_DEPTH],
    /// Subtrees pruned per assignment depth.
    pub depth_pruned: [u64; PROFILE_DEPTH],
    /// Subtrees pruned by the head filter.
    pub head_prunes: u64,
    /// Candidate rejections attributed to the index of the first violated
    /// containment constraint (clamped at [`CC_ATTR`] slots).
    pub cc_viol: [u64; CC_ATTR],
}

impl ChunkStats {
    /// Fold `other` into `self`. Every field sums, saturating like
    /// [`Meter::tick`]: the committed stats of a resumed decision come from
    /// a checkpoint, and no count in a well-formed one may overflow the sum.
    pub(crate) fn absorb(&mut self, other: &ChunkStats) {
        let sum = |a: &mut u64, b: &u64| *a = a.saturating_add(*b);
        sum(&mut self.ticks, &other.ticks);
        sum(&mut self.cc_checks, &other.cc_checks);
        sum(&mut self.cc_skipped, &other.cc_skipped);
        sum(&mut self.probes, &other.probes);
        sum(&mut self.query_evals, &other.query_evals);
        sum(&mut self.head_prunes, &other.head_prunes);
        let arrays = [
            (&mut self.depth_candidates[..], &other.depth_candidates[..]),
            (&mut self.depth_pruned[..], &other.depth_pruned[..]),
            (&mut self.cc_viol[..], &other.cc_viol[..]),
        ];
        for (mine, theirs) in arrays {
            mine.iter_mut().zip(theirs).for_each(|(a, b)| sum(a, b));
        }
    }
}

/// The one RCDP dispatch: check the FP bodies and partial closure, then run
/// the exact search or the bounded semi-decision. `reuse` is a
/// [`crate::PreparedSetting`]'s shared upper-bound preparation; `prior` is
/// the ledger of an earlier installment (`None` for a fresh decision), used
/// only when it belongs to the search this dispatch picks. Returns the
/// verdict and, when the search stopped on a budget-like limit, the ledger
/// to resume from.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    reuse: Option<&Arc<PreparedUpper>>,
    prior: Option<Ledger>,
) -> Result<(Verdict, Option<Ledger>), RcError> {
    // The guard is the decision's deterministic timebase: spans opened below
    // carry tick deltas alongside wall-clock micros.
    let probe = probe.with_ticks(guard);
    validate_fp_bodies(setting, query)?;
    if !setting.partially_closed(db)? {
        return Err(RcError::NotPartiallyClosed);
    }
    if exactly_decidable(query.language()) && exactly_decidable(setting.v.language()) {
        probe.note("rcdp.strategy", || "exact".into());
        let committed = match prior {
            Some(Ledger::Exact(ledger)) => Some(ledger),
            _ => None,
        };
        let (verdict, ledger) =
            decide_exact(setting, query, db, budget, guard, probe, reuse, committed)?;
        Ok((verdict, ledger.map(Ledger::Exact)))
    } else {
        probe.note("rcdp.strategy", || "bounded".into());
        let committed = match prior {
            Some(Ledger::Bounded(resume)) => Some(*resume),
            _ => None,
        };
        let (verdict, resume) = crate::semidecide::decide_bounded(
            setting, query, db, budget, guard, probe, reuse, committed,
        )?;
        Ok((verdict, resume.map(|r| Ledger::Bounded(Box::new(r)))))
    }
}

/// Emit `plan.*` telemetry for a decision with an upper-bound preparation:
/// compile/reuse, static-fallback count, total estimated cost, the rendered
/// plan note, and the planned-vs-actual cardinality note (`plan.cards`)
/// comparing the row counts the planner costed against with the decision
/// database `db`. No-ops without a preparation (naive engine, IND-only sets).
pub(crate) fn emit_plan_telemetry(
    probe: Probe<'_>,
    setting: &Setting,
    prep: Option<&Arc<PreparedUpper>>,
    reused: bool,
    db: &Database,
) {
    let Some(prep) = prep else { return };
    let rel_name = |rel: ric_data::RelId| {
        setting
            .schema
            .relation(rel)
            .map(|r| r.name.clone())
            .unwrap_or_else(|_| format!("r{}", rel.0))
    };
    let (compiled, fallbacks, cost) = prep.plan_summary();
    if reused {
        probe.count("plan.reuse", 1);
    } else {
        probe.count("plan.compile", compiled as u64);
    }
    probe.count("plan.fallback", fallbacks as u64);
    probe.count("plan.cost", cost as u64);
    probe.note("plan.explain", || prep.render_plans(rel_name));
    probe.note("plan.cards", || {
        use ric_data::TupleStore;
        prep.planned_rows()
            .iter()
            .map(|&(rel, planned)| {
                format!(
                    "{} planned={planned} actual={}",
                    rel_name(rel),
                    db.rel_len(rel)
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    });
    // Export the planner's statistics as gauges so metrics snapshots carry
    // the row counts each plan was costed against, keyed by relation id like
    // the `prune.cc.NN` attribution family (gauges max-merge, and the
    // planning snapshot is fixed per preparation).
    for &(rel, planned) in prep.planned_rows() {
        let slot = rel.0.min(STATS_ROWS.len() - 1);
        probe.gauge(STATS_ROWS[slot], planned as u64);
    }
}

/// Stable gauge names for the planner's per-relation statistics by relation
/// id: `stats.rows.NN` is the row count relation `NN` reported to the
/// planner (slot 15 absorbs larger schemas, maximum wins).
pub(crate) const STATS_ROWS: [&str; 16] = [
    "stats.rows.00",
    "stats.rows.01",
    "stats.rows.02",
    "stats.rows.03",
    "stats.rows.04",
    "stats.rows.05",
    "stats.rows.06",
    "stats.rows.07",
    "stats.rows.08",
    "stats.rows.09",
    "stats.rows.10",
    "stats.rows.11",
    "stats.rows.12",
    "stats.rows.13",
    "stats.rows.14",
    "stats.rows.15",
];

/// The exact decider; callers must have verified the language combination
/// and partial closure. The one setup — tableaux, `Q(D)`, `Adom`, check
/// mode (sharing `reuse` when given), chunk layout — feeds the one chunk
/// driver, which runs under one meter on the calling thread.
/// `committed` is `(n_chunks, cleared)` from a prior installment's
/// checkpoint, `None` for a fresh decision; a ledger whose chunk count does
/// not match this decision's canonical layout is discarded (with a
/// `resume.discarded` note) rather than trusted. The setup is deterministic,
/// so the telemetry stays installment-independent.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide_exact(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    reuse: Option<&Arc<PreparedUpper>>,
    committed: Option<ExactLedger>,
) -> Result<(Verdict, Option<ExactLedger>), RcError> {
    let probe = probe.with_ticks(guard);
    let Some(ucq) = query.as_ucq() else {
        return Err(RcError::Unsupported(format!(
            "exact RCDP requires a UCQ-expressible query, got {:?}",
            query.language()
        )));
    };
    let tableaux = ucq.tableaux()?;
    if tableaux.is_empty() {
        // Unsatisfiable query: every partially closed database is complete.
        probe.note("rcdp.outcome", || "complete".into());
        return Ok((Verdict::Complete, None));
    }
    let q_d: BTreeSet<Tuple> = query.eval(db)?;
    probe.count("rcdp.query_evals", 1);
    let n_fresh = tableaux
        .iter()
        .map(|t| t.n_vars as usize)
        .max()
        .unwrap_or(0)
        .max(1);
    let adom = Adom::build(db, setting, query, n_fresh);
    probe.gauge("rcdp.adom_size", adom.len() as u64);
    let mode = CheckMode::select(setting, budget.engine, db, reuse)?;
    emit_plan_telemetry(probe, setting, mode.prepared(), reuse.is_some(), db);
    let search = ExactSearch::new(setting, db, &mode, &q_d, &tableaux, &adom);
    let n_chunks = search.chunks.len();
    if n_chunks == 0 {
        let verdict = Verdict::Complete;
        emit_verdict(probe, &verdict);
        return Ok((verdict, None));
    }
    let committed: BTreeMap<usize, ChunkStats> = match committed {
        Some((n, cleared)) if n == n_chunks && cleared.iter().all(|&(i, _)| i < n_chunks) => {
            cleared.into_iter().collect()
        }
        Some(_) => {
            probe.note("resume.discarded", || {
                "checkpoint frontier does not match this decision's chunk layout; restarting".into()
            });
            BTreeMap::new()
        }
        None => BTreeMap::new(),
    };
    let (verdict, ledger) = search.run(budget, guard, probe, committed);
    emit_verdict(probe, &verdict);
    Ok((verdict, ledger.map(|l| (n_chunks, l))))
}

/// One domain-consistent disjunct of the exact search.
struct Disjunct<'a> {
    tableau: &'a Tableau,
    space: ValuationSpace<'a>,
    /// A headless disjunct whose (constant) answer is already in `Q(D)`: the
    /// head filter prunes its whole space before any assignment. Settled once
    /// at setup, so its chunks are skipped and the prune counts once.
    answered: bool,
}

/// The exact search's shared inputs, built once per decision by
/// [`decide_exact`] and read by every chunk.
struct ExactSearch<'a> {
    setting: &'a Setting,
    db: &'a Database,
    mode: &'a CheckMode,
    q_d: &'a BTreeSet<Tuple>,
    disjuncts: Vec<Disjunct<'a>>,
    /// The canonical chunk list: `(disjunct index, depth-0 split point)`, one
    /// chunk per depth-0 candidate of each disjunct's valuation space; a
    /// zero-variable space is one unsplittable chunk (`None`). A space with
    /// no depth-0 candidates enumerates nothing and contributes no chunk.
    /// Concatenating the chunks in this order reproduces the sequential
    /// enumeration and its tick sequence exactly (pinned in
    /// `valuations.rs`), so a chunk index means the same thing to the
    /// driver and the checkpoint frontier.
    chunks: Vec<(usize, Option<(Value, usize)>)>,
}

/// The candidate answer `μ(u)` for a binding that covers the head.
fn head_answer(head: &[Term], binding: &[Option<Value>]) -> Tuple {
    Tuple::new(head.iter().map(|term| {
        match term {
            Term::Var(v) => binding[v.idx()]
                .clone()
                .unwrap_or_else(|| unreachable!("head vars bound first")),
            Term::Const(c) => c.clone(),
        }
    }))
}

impl<'a> ExactSearch<'a> {
    fn new(
        setting: &'a Setting,
        db: &'a Database,
        mode: &'a CheckMode,
        q_d: &'a BTreeSet<Tuple>,
        tableaux: &'a [Tableau],
        adom: &'a Adom,
    ) -> Self {
        let disjuncts: Vec<Disjunct<'a>> = tableaux
            .iter()
            .filter(|t| t.domain_consistent(&setting.schema))
            .map(|t| Disjunct {
                tableau: t,
                space: ValuationSpace::new(t, &setting.schema, adom),
                answered: t.head_vars().is_empty() && q_d.contains(&head_answer(&t.head, &[])),
            })
            .collect();
        let mut chunks = Vec::new();
        for (di, d) in disjuncts.iter().enumerate() {
            match d.space.split_points() {
                Some(points) => chunks.extend(points.into_iter().map(|p| (di, Some(p)))),
                None => chunks.push((di, None)),
            }
        }
        ExactSearch {
            setting,
            db,
            mode,
            q_d,
            disjuncts,
            chunks,
        }
    }

    /// Enumerate chunk `idx` against `meter`, with `scratch` as the delta
    /// buffer of the partial filter. The per-chunk work — and therefore the
    /// committed checkpoint stats — are engine-independent.
    fn run_chunk(
        &self,
        idx: usize,
        meter: &mut Meter<'_>,
        scratch: &RefCell<Database>,
    ) -> (ChunkEvent, ChunkStats) {
        let (di, point) = &self.chunks[idx];
        let Disjunct {
            tableau: t,
            space,
            answered,
        } = &self.disjuncts[*di];
        if *answered {
            // The head prune belongs to the disjunct: attribute it to its
            // first chunk, so it counts once whenever the walk reaches it.
            let first = idx == 0 || self.chunks[idx - 1].0 != *di;
            let stats = ChunkStats {
                head_prunes: u64::from(first),
                ..ChunkStats::default()
            };
            return (ChunkEvent::Clear, stats);
        }
        let (setting, db, mode) = (self.setting, self.db, self.mode);
        let used_before = meter.used();
        let probes_before = probe_count();
        let cc_checks = Cell::new(0u64);
        let cc_skipped = Cell::new(0u64);
        let cc_viol: [Cell<u64>; CC_ATTR] = Default::default();
        let profile = crate::valuations::DepthProfile::new();
        let mut found: Option<CounterExample> = None;
        // Prune: if the candidate output tuple is already answered, no
        // valuation with these head values is a counterexample.
        let head_filter =
            |binding: &[Option<Value>]| !self.q_d.contains(&head_answer(&t.head, binding));
        // Prune subtrees whose already-instantiated tuples violate V:
        // constraint bodies are monotone, so the violation persists in every
        // completion. Upper bounds only: lower bounds hold on D and are
        // preserved by extension (monotone bodies).
        let partial_filter = |binding: &[Option<Value>]| {
            let bound = space.bound_atoms(binding);
            if bound.is_empty() {
                return true;
            }
            let mut delta = scratch.borrow_mut();
            delta.clear_tuples();
            for (rel, tuple) in bound {
                delta.insert(rel, tuple);
            }
            cc_checks.set(cc_checks.get() + 1);
            match mode.upper_check(setting, db, &delta, &cc_skipped) {
                None => true,
                Some(i) => {
                    bump_viol(&cc_viol, i);
                    false
                }
            }
        };
        let visit = |mu: &ric_query::tableau::Valuation| {
            let delta = mu.instantiate(t, setting.schema.len());
            cc_checks.set(cc_checks.get() + 1);
            if let Some(i) = mode.upper_check(setting, db, &delta, &cc_skipped) {
                bump_viol(&cc_viol, i);
                return std::ops::ControlFlow::Continue(());
            }
            let added = delta
                .difference(db)
                .unwrap_or_else(|e| unreachable!("delta shares the setting schema: {e:?}"));
            found = Some(CounterExample {
                delta: added,
                new_answer: mu.head_tuple(t),
            });
            std::ops::ControlFlow::Break(())
        };
        let outcome = match point {
            Some(p) => space.for_each_valid_pruned_chunk_profiled(
                &profile,
                p.clone(),
                meter,
                head_filter,
                partial_filter,
                visit,
            ),
            None => space.for_each_valid_pruned_profiled(
                &profile,
                meter,
                head_filter,
                partial_filter,
                visit,
            ),
        };
        let event = match outcome {
            EnumOutcome::Stopped => ChunkEvent::Hit(
                found.unwrap_or_else(|| unreachable!("a stopped visit records its counterexample")),
            ),
            EnumOutcome::Exhausted => ChunkEvent::Clear,
            EnumOutcome::BudgetExceeded => ChunkEvent::Stopped,
        };
        let stats = ChunkStats {
            ticks: meter.used() - used_before,
            cc_checks: cc_checks.get(),
            cc_skipped: cc_skipped.get(),
            probes: probe_count().saturating_sub(probes_before),
            query_evals: 0,
            depth_candidates: profile.candidates(),
            depth_pruned: profile.pruned(),
            head_prunes: profile.head_prunes(),
            cc_viol: std::array::from_fn(|i| cc_viol[i].get()),
        };
        (event, stats)
    }

    /// The driver: walk the chunk list in index order under ONE meter
    /// primed with the committed ticks, skipping chunks already cleared by an
    /// earlier installment (an empty `committed` is a fresh decision). The
    /// verdict, witness, and scoped counters are identical to an
    /// uninterrupted run at the same budget. Returns the cleared-chunk
    /// ledger when the search stopped on a budget-like limit.
    fn run(
        &self,
        budget: &SearchBudget,
        guard: &Guard,
        probe: Probe<'_>,
        committed: BTreeMap<usize, ChunkStats>,
    ) -> (Verdict, Option<Vec<(usize, ChunkStats)>>) {
        let mut totals = ChunkStats::default();
        for stats in committed.values() {
            totals.absorb(stats);
        }
        let mut meter = Meter::guarded_primed(
            MeterKind::Valuations,
            budget.max_valuations,
            totals.ticks,
            guard,
        );
        let n_chunks = self.chunks.len();
        let mut ledger: Vec<(usize, ChunkStats)> = Vec::with_capacity(n_chunks);
        ledger.extend(committed.iter().map(|(&i, s)| (i, *s)));
        let mut frontier = None;
        // Scratch delta shared by every chunk: steady-state, a candidate
        // costs index probes and a few inserts, never a clone of `db`.
        let scratch = RefCell::new(Database::with_relations(self.setting.schema.len()));

        let span = probe.span("rcdp.enumerate");
        let mut verdict = Verdict::Complete;
        for idx in 0..n_chunks {
            if committed.contains_key(&idx) {
                continue;
            }
            let (event, stats) = self.run_chunk(idx, &mut meter, &scratch);
            totals.absorb(&stats);
            match event {
                ChunkEvent::Clear => ledger.push((idx, stats)),
                ChunkEvent::Hit(ce) => {
                    verdict = Verdict::Incomplete(ce);
                    break;
                }
                ChunkEvent::Stopped => {
                    if let Some(interrupt) = meter.interrupt() {
                        probe.interrupt("rcdp.interrupt", interrupt.name(), guard.ticks());
                    }
                    probe.note("explain.frontier", || {
                        format!(
                            "stopped in chunk {}/{} after {} assignment(s); \
                             uncleared chunks unexplored",
                            idx + 1,
                            n_chunks,
                            meter.used()
                        )
                    });
                    verdict = Verdict::unknown(
                        SearchStats::new(
                            meter.stop_limit(BudgetLimit::MaxValuations),
                            meter.stop_detail("valuation"),
                        )
                        .with_valuations(meter.used()),
                    );
                    ledger.sort_unstable_by_key(|&(i, _)| i);
                    frontier = Some(std::mem::take(&mut ledger));
                    break;
                }
            }
        }
        drop(span);
        emit_search_stats(probe, &totals);
        (verdict, frontier)
    }
}

/// Emit the exact search's decision counters from its summed chunk stats:
/// the work counters, the per-depth profile (with the `valuations.max_depth`
/// gauge), and the `prune.cc.NN` attribution.
fn emit_search_stats(probe: Probe<'_>, stats: &ChunkStats) {
    probe.count("valuations.assignments", stats.ticks);
    probe.count("rcdp.valuations", stats.ticks);
    probe.count("rcdp.cc_checks", stats.cc_checks);
    probe.count("cc.skipped_by_delta", stats.cc_skipped);
    probe.count("index.probe", stats.probes);
    crate::valuations::emit_profile(
        probe,
        &stats.depth_candidates,
        &stats.depth_pruned,
        stats.head_prunes,
    );
    emit_cc_attribution(probe, &stats.cc_viol);
}

/// Emit the outcome note (and the exhausted limit, for `Unknown`) for an
/// RCDP verdict.
pub(crate) fn emit_verdict(probe: Probe<'_>, verdict: &Verdict) {
    match verdict {
        Verdict::Complete => probe.note("rcdp.outcome", || "complete".into()),
        Verdict::Incomplete(_) => probe.note("rcdp.outcome", || "incomplete".into()),
        Verdict::Unknown { stats } => {
            probe.note("rcdp.outcome", || "unknown".into());
            probe.note("rcdp.limit", || stats.limit.name().into());
        }
    }
}

/// Check a claimed counterexample: `(D ∪ Δ, D_m) |= V` and
/// `Q(D ∪ Δ) ≠ Q(D)`. Used by tests and by downstream consumers that want to
/// re-verify certificates.
pub fn certify_counterexample(
    setting: &Setting,
    query: &Query,
    db: &Database,
    ce: &CounterExample,
) -> Result<bool, RcError> {
    let extended = db
        .union(&ce.delta)
        .map_err(|_| RcError::NotPartiallyClosed)?;
    if !setting.partially_closed(&extended)? {
        return Ok(false);
    }
    let before = query.eval(db)?;
    let after = query.eval(&extended)?;
    Ok(before != after && (after.contains(&ce.new_answer) != before.contains(&ce.new_answer)))
}

pub(crate) fn validate_fp_bodies(setting: &Setting, query: &Query) -> Result<(), RcError> {
    if let Query::Fp(p) = query {
        p.validate().map_err(|e| RcError::Program(e.to_string()))?;
    }
    for cc in &setting.v.ccs {
        if let ric_constraints::CcBody::Fp(p) = &cc.body {
            p.validate().map_err(|e| RcError::Program(e.to_string()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_constraints::{CcBody, ConstraintSet, ContainmentConstraint, Projection};
    use ric_data::{RelationSchema, Schema, Value};
    use ric_query::parse_cq;

    /// Example 1.1 / 2.2 style setting: Supt(eid, dept, cid) with master
    /// relation DCust(cid) bounding the customers employee e0 may support.
    fn supt_setting() -> (Setting, ric_data::RelId) {
        let schema = Schema::from_relations(vec![RelationSchema::infinite(
            "Supt",
            &["eid", "dept", "cid"],
        )])
        .unwrap();
        let supt = schema.rel_id("Supt").unwrap();
        let mschema =
            Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
        let dcust = mschema.rel_id("DCust").unwrap();
        let mut dm = Database::empty(&mschema);
        for c in ["c1", "c2"] {
            dm.insert(dcust, Tuple::new([Value::str(c)]));
        }
        // All supported customers must be master customers.
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(supt, vec![2])),
            dcust,
            vec![0],
        )]);
        (Setting::new(schema, mschema, dm, v), supt)
    }

    fn t3(a: &str, b: &str, c: &str) -> Tuple {
        Tuple::new([Value::str(a), Value::str(b), Value::str(c)])
    }

    #[test]
    fn open_world_database_is_incomplete() {
        let schema = Schema::from_relations(vec![RelationSchema::infinite("R", &["a"])]).unwrap();
        let setting = Setting::open_world(schema.clone());
        let q: Query = parse_cq(&schema, "Q(X) :- R(X).").unwrap().into();
        let db = Database::empty(&schema);
        let verdict = rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap();
        match &verdict {
            Verdict::Incomplete(ce) => {
                assert!(certify_counterexample(&setting, &q, &db, ce).unwrap());
            }
            other => panic!("expected incomplete, got {other:?}"),
        }
    }

    #[test]
    fn database_covering_master_is_complete() {
        let (setting, supt) = supt_setting();
        // Q: customers supported by e0.
        let q: Query = parse_cq(&setting.schema, "Q(C) :- Supt('e0', D, C).")
            .unwrap()
            .into();
        let mut db = Database::empty(&setting.schema);
        db.insert(supt, t3("e0", "d", "c1"));
        db.insert(supt, t3("e0", "d", "c2"));
        let verdict = rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap();
        assert_eq!(verdict, Verdict::Complete);
    }

    #[test]
    fn database_missing_master_customer_is_incomplete() {
        let (setting, supt) = supt_setting();
        let q: Query = parse_cq(&setting.schema, "Q(C) :- Supt('e0', D, C).")
            .unwrap()
            .into();
        let mut db = Database::empty(&setting.schema);
        db.insert(supt, t3("e0", "d", "c1")); // c2 still possible
        let verdict = rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap();
        match &verdict {
            Verdict::Incomplete(ce) => {
                assert!(certify_counterexample(&setting, &q, &db, ce).unwrap());
                assert_eq!(ce.new_answer, Tuple::new([Value::str("c2")]));
            }
            other => panic!("expected incomplete, got {other:?}"),
        }
    }

    #[test]
    fn not_partially_closed_is_an_error() {
        let (setting, supt) = supt_setting();
        let q: Query = parse_cq(&setting.schema, "Q(C) :- Supt('e0', D, C).")
            .unwrap()
            .into();
        let mut db = Database::empty(&setting.schema);
        db.insert(supt, t3("e0", "d", "c-unknown"));
        assert_eq!(
            rcdp(&setting, &q, &db, &SearchBudget::default()),
            Err(RcError::NotPartiallyClosed)
        );
    }

    #[test]
    fn unsatisfiable_query_trivially_complete() {
        let schema = Schema::from_relations(vec![RelationSchema::infinite("R", &["a"])]).unwrap();
        let setting = Setting::open_world(schema.clone());
        let q: Query = parse_cq(&schema, "Q(X) :- R(X), X != X.").unwrap().into();
        let db = Database::empty(&schema);
        assert_eq!(
            rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap(),
            Verdict::Complete
        );
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let schema =
            Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b", "c"])]).unwrap();
        let setting = Setting::open_world(schema.clone());
        let q: Query = parse_cq(&schema, "Q(X, Y, Z) :- R(X, Y, Z).")
            .unwrap()
            .into();
        let db = Database::empty(&schema);
        let tiny = SearchBudget {
            max_valuations: 0,
            ..SearchBudget::small()
        };
        match rcdp(&setting, &q, &db, &tiny).unwrap() {
            Verdict::Unknown { .. } => {}
            other => panic!("expected unknown, got {other:?}"),
        }
    }

    /// Example 3.1, first part: with the "at most k customers per employee"
    /// CC in place, a database already holding k answers is complete.
    #[test]
    fn at_most_k_makes_full_database_complete() {
        let schema = Schema::from_relations(vec![RelationSchema::infinite(
            "Supt",
            &["eid", "dept", "cid"],
        )])
        .unwrap();
        let supt = schema.rel_id("Supt").unwrap();
        let denial = ric_constraints::classical::at_most_k_per_key(supt, 0, 2, 2, 3);
        let v = ConstraintSet::new(vec![ric_constraints::compile::denial_to_cc(&denial)]);
        let setting = Setting::new(
            schema.clone(),
            Schema::new(),
            Database::with_relations(0),
            v,
        );
        let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', D, C).")
            .unwrap()
            .into();
        // k = 2 customers already supported: complete.
        let mut db = Database::empty(&schema);
        db.insert(supt, t3("e0", "d", "c1"));
        db.insert(supt, t3("e0", "d", "c2"));
        assert_eq!(
            rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap(),
            Verdict::Complete
        );
        // Only one: still incomplete.
        let mut db1 = Database::empty(&schema);
        db1.insert(supt, t3("e0", "d", "c1"));
        let verdict = rcdp(&setting, &q, &db1, &SearchBudget::default()).unwrap();
        assert!(verdict.is_incomplete(), "got {verdict:?}");
    }

    /// Example 3.1, second part: under the FD eid → dept,cid a database with
    /// no e0 tuple is incomplete, but any database with one e0 tuple is
    /// complete for Q2.
    #[test]
    fn fd_blocks_after_one_tuple() {
        let schema = Schema::from_relations(vec![RelationSchema::infinite(
            "Supt",
            &["eid", "dept", "cid"],
        )])
        .unwrap();
        let supt = schema.rel_id("Supt").unwrap();
        let fd = ric_constraints::Fd::new(supt, vec![0], vec![1, 2]);
        let v = ConstraintSet::new(ric_constraints::compile::fd_to_ccs(&fd, &schema));
        let setting = Setting::new(
            schema.clone(),
            Schema::new(),
            Database::with_relations(0),
            v,
        );
        let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', D, C).")
            .unwrap()
            .into();

        let empty = Database::empty(&schema);
        let verdict = rcdp(&setting, &q, &empty, &SearchBudget::default()).unwrap();
        assert!(verdict.is_incomplete(), "empty Supt should be incomplete");

        let mut db = Database::empty(&schema);
        db.insert(supt, t3("e0", "d0", "c0"));
        assert_eq!(
            rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap(),
            Verdict::Complete,
            "FD pins e0's single (dept, cid) pair"
        );
    }

    #[test]
    fn ucq_per_disjunct_counterexample() {
        let (setting, supt) = supt_setting();
        // Heads carry the employee, so the disjuncts do not overlap.
        let q: Query = ric_query::parse_ucq(
            &setting.schema,
            "Q(E, C) :- Supt(E, D, C), E = 'e0'. Q(E, C) :- Supt(E, D, C), E = 'e1'.",
        )
        .unwrap()
        .into();
        let mut db = Database::empty(&setting.schema);
        // e0 saturated, e1 not.
        db.insert(supt, t3("e0", "d", "c1"));
        db.insert(supt, t3("e0", "d", "c2"));
        db.insert(supt, t3("e1", "d", "c1"));
        let verdict = rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap();
        match &verdict {
            Verdict::Incomplete(ce) => {
                assert!(certify_counterexample(&setting, &q, &db, ce).unwrap());
                assert_eq!(
                    ce.new_answer,
                    Tuple::new([Value::str("e1"), Value::str("c2")])
                );
            }
            other => panic!("expected incomplete, got {other:?}"),
        }

        // A database where both disjuncts saturate the master list is
        // complete even though the per-employee answers differ.
        let mut full = db.clone();
        full.insert(supt, t3("e1", "d", "c2"));
        assert_eq!(
            rcdp(&setting, &q, &full, &SearchBudget::default()).unwrap(),
            Verdict::Complete
        );
    }
}
