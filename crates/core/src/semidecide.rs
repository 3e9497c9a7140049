//! Bounded semi-decision for the undecidable cells of Tables I and II.
//!
//! When `L_Q` or `L_C` is FO or FP, RCDP and RCQP are undecidable (Theorems
//! 3.1 and 4.1) — no terminating procedure can decide them. What *is*
//! possible, and what this module provides, is a bounded search over
//! candidate extensions:
//!
//! * bounded RCDP, reached through [`crate::rcdp::rcdp`]'s dispatch —
//!   enumerate extensions `Δ` built from tuples over the active domain plus a
//!   small fresh pool, up to `budget.max_delta_tuples` tuples. Finding `Δ`
//!   with `(D ∪ Δ, D_m) |= V` and `Q(D ∪ Δ) ≠ Q(D)` *certifies*
//!   incompleteness; exhausting the bound yields `Unknown`. One setup feeds
//!   one size-by-size driver, and a fresh run is a resume from size 1 with
//!   empty committed stats.
//! * [`rcqp_bounded`] — search for a candidate database that the bounded
//!   RCDP search cannot refute within the bound. Because completeness itself
//!   is undecidable here, a surviving candidate is only evidence, so the
//!   result is at best `Unknown` with a description of how far the search
//!   went — exactly the epistemic state the undecidability theorems force.

use crate::adom::Adom;
use crate::budget::{Engine, Meter, MeterKind, SearchBudget};
use crate::guard::Guard;
use crate::query::Query;
use crate::rcdp::ChunkStats;
use crate::setting::Setting;
use crate::verdict::{BudgetLimit, CounterExample, QueryVerdict, RcError, SearchStats, Verdict};
use ric_constraints::PreparedUpper;
use ric_data::{index::probe_count, Database, Overlay, RelId, Tuple, Value};
use ric_telemetry::Probe;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Upper bound on the materialised candidate pool; beyond it the bounded
/// searches report `Unknown` instead of exhausting memory.
const MAX_POOL: usize = 100_000;

/// Estimated pool size (saturating): Σ over relations of |values|^arity.
pub(crate) fn pool_estimate(setting: &Setting, n_values: usize) -> usize {
    let mut total = 0usize;
    for (_, rs) in setting.schema.iter() {
        let mut per = 1usize;
        for attr in &rs.attributes {
            let base = match attr.domain.finite_values() {
                Some(d) => d.len(),
                None => n_values,
            };
            per = per.saturating_mul(base.max(1));
        }
        total = total.saturating_add(per);
    }
    total
}

/// All candidate tuples over `values`, per relation, respecting finite
/// domains, excluding tuples already in `db`.
pub(crate) fn tuple_pool(
    setting: &Setting,
    db: &Database,
    values: &[Value],
) -> Vec<(RelId, Tuple)> {
    let mut pool = Vec::new();
    for (rel, rs) in setting.schema.iter() {
        let arity = rs.arity();
        let mut current: Vec<Value> = Vec::with_capacity(arity);
        fill(rs, values, 0, &mut current, &mut |t: Tuple| {
            if !db.instance(rel).contains(&t) {
                pool.push((rel, t));
            }
        });
    }
    pool
}

/// Per-candidate closure check for the bounded search. Unlike the exact
/// decider's [`CheckMode`](crate::rcdp::CheckMode), this one must hand back a
/// materialized union for the surviving candidates: `L_Q` here may be FO/FP,
/// which the query evaluator wants as a concrete [`Database`].
enum BoundedCheck {
    /// Materialize every candidate union and check `V` in full.
    Full,
    /// Check upper bounds incrementally on the overlay and materialize only
    /// the survivors. Requires the upper bounds to hold on the base.
    Delta {
        prepared: Arc<PreparedUpper>,
        /// Lower bounds must be re-checked on each surviving union — some
        /// body is FO/FP (not monotone) or the base does not satisfy them
        /// yet (an extension can repair a missing lower bound).
        recheck_lower: bool,
    },
}

impl BoundedCheck {
    fn select(
        setting: &Setting,
        db: &Database,
        engine: Engine,
        reuse: Option<&Arc<PreparedUpper>>,
    ) -> Result<Self, RcError> {
        // The incremental identity for monotone upper bodies needs the upper
        // bounds to hold on the base; when they do not, the naive path keeps
        // the original semantics.
        if !engine.indexed() || !setting.v.upper_satisfied(db, &setting.dm)? {
            return Ok(BoundedCheck::Full);
        }
        let mut recheck_lower = false;
        for lb in &setting.v.lower_bounds {
            if !crate::rcdp::exactly_decidable(lb.body.language())
                || !lb.satisfied(db, &setting.dm)?
            {
                recheck_lower = true;
                break;
            }
        }
        Ok(BoundedCheck::Delta {
            prepared: crate::prepared::upper_preparation(setting, db, reuse)?,
            recheck_lower,
        })
    }

    /// The shared preparation backing the delta mode, if any.
    fn prepared(&self) -> Option<&Arc<PreparedUpper>> {
        match self {
            BoundedCheck::Delta { prepared, .. } => Some(prepared),
            BoundedCheck::Full => None,
        }
    }

    /// `(D ∪ Δ, D_m) |= V`? Returns the materialized union for survivors so
    /// the caller can evaluate the query on it, `None` for rejects.
    fn closed_union(
        &self,
        setting: &Setting,
        db: &Database,
        delta: &Database,
        cc_skipped: &Cell<u64>,
    ) -> Result<Option<Database>, RcError> {
        match self {
            BoundedCheck::Full => {
                let extended = db
                    .union(delta)
                    .unwrap_or_else(|e| unreachable!("delta shares the setting schema: {e:?}"));
                if setting.partially_closed(&extended)? {
                    Ok(Some(extended))
                } else {
                    Ok(None)
                }
            }
            BoundedCheck::Delta {
                prepared,
                recheck_lower,
            } => {
                let ov = Overlay::new(db, delta)
                    .unwrap_or_else(|e| unreachable!("delta shares the setting schema: {e:?}"));
                let res = prepared.satisfied_delta(&setting.v, &ov)?;
                cc_skipped.set(cc_skipped.get() + res.skipped as u64);
                if !res.satisfied {
                    return Ok(None);
                }
                let extended = ov.materialize();
                if *recheck_lower {
                    for lb in &setting.v.lower_bounds {
                        if !lb.satisfied(&extended, &setting.dm)? {
                            return Ok(None);
                        }
                    }
                }
                Ok(Some(extended))
            }
        }
    }
}

fn fill(
    rs: &ric_data::RelationSchema,
    values: &[Value],
    col: usize,
    current: &mut Vec<Value>,
    out: &mut impl FnMut(Tuple),
) {
    if col == rs.arity() {
        out(Tuple::new(current.iter().cloned()));
        return;
    }
    match rs.attributes[col].domain.finite_values() {
        Some(dom) => {
            for v in dom {
                current.push(v.clone());
                fill(rs, values, col + 1, current, out);
                current.pop();
            }
        }
        None => {
            for v in values {
                current.push(v.clone());
                fill(rs, values, col + 1, current, out);
                current.pop();
            }
        }
    }
}

/// A bounded-search resume point: every extension size below `next_size` is
/// fully searched, with `stats` the cumulative committed work over those
/// sizes. The public mirror is
/// [`Frontier::BoundedSizes`](crate::checkpoint::Frontier).
#[derive(Clone, Copy, Debug)]
pub(crate) struct BoundedResume {
    /// First unexplored extension size.
    pub next_size: usize,
    /// Cumulative stats over the fully-searched smaller sizes.
    pub stats: ChunkStats,
}

/// The bounded decider: certify incompleteness with a small witness
/// extension, or report `Unknown`. The one setup — query evaluation, check
/// mode (sharing `reuse` when given), active domain, candidate pool — feeds
/// the one size-by-size driver under one meter. `committed` is a prior
/// installment's resume point, `None` for a fresh run (size 1, empty stats).
/// The setup is deterministic, so the emitted telemetry stays
/// installment-independent.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide_bounded(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    reuse: Option<&Arc<PreparedUpper>>,
    committed: Option<BoundedResume>,
) -> Result<(Verdict, Option<BoundedResume>), RcError> {
    let probe = probe.with_ticks(guard);
    let q_d = query.eval(db)?;
    let probes_before = probe_count();
    let check = BoundedCheck::select(setting, db, budget.engine, reuse)?;
    crate::rcdp::emit_plan_telemetry(probe, setting, check.prepared(), reuse.is_some(), db);
    let adom = Adom::build(db, setting, query, budget.fresh_values);
    let mut values = adom.constants.clone();
    values.extend(adom.fresh.iter().cloned());
    probe.gauge("semidecide.adom_size", values.len() as u64);
    if pool_estimate(setting, values.len()) > MAX_POOL {
        probe.count("semidecide.query_evals", 1);
        let verdict = Verdict::unknown(SearchStats::new(
            BudgetLimit::PoolBound,
            format!(
                "candidate tuple space exceeds {MAX_POOL} over {} values; \
                 narrow the schema or shrink the database",
                values.len()
            ),
        ));
        crate::rcdp::emit_verdict(probe, &verdict);
        return Ok((verdict, None));
    }
    let pool = tuple_pool(setting, db, &values);
    probe.gauge("semidecide.pool_size", pool.len() as u64);
    let search = BoundedSearch {
        setting,
        query,
        db,
        budget,
        q_d,
        check,
        pool,
    };
    let (start_size, committed) =
        committed.map_or((1, ChunkStats::default()), |r| (r.next_size, r.stats));
    // Probes issued while building the check mode, active domain, and pool
    // count into `index.probe` ahead of the enumeration's own.
    let setup_probes = probe_count().saturating_sub(probes_before);
    let (verdict, frontier) = search.run(guard, probe, start_size, &committed, setup_probes)?;
    crate::rcdp::emit_verdict(probe, &verdict);
    Ok((verdict, frontier))
}

/// The bounded search's shared inputs, built once per decision by
/// [`decide_bounded`] and read by every subset check.
struct BoundedSearch<'a> {
    setting: &'a Setting,
    query: &'a Query,
    db: &'a Database,
    budget: &'a SearchBudget,
    q_d: BTreeSet<Tuple>,
    check: BoundedCheck,
    pool: Vec<(RelId, Tuple)>,
}

/// Work counters of the per-subset check.
struct Tally {
    cc_checks: Cell<u64>,
    cc_skipped: Cell<u64>,
    query_evals: Cell<u64>,
}

impl Tally {
    /// Counters primed with committed totals.
    fn primed(stats: &ChunkStats) -> Self {
        Tally {
            cc_checks: Cell::new(stats.cc_checks),
            cc_skipped: Cell::new(stats.cc_skipped),
            query_evals: Cell::new(stats.query_evals),
        }
    }

    /// These counters with the meter ticks and index probes, as chunk stats
    /// (the bounded search enumerates tuple subsets, not valuation trees — no
    /// depth profile applies).
    fn stats(&self, ticks: u64, probes: u64) -> ChunkStats {
        ChunkStats {
            ticks,
            cc_checks: self.cc_checks.get(),
            cc_skipped: self.cc_skipped.get(),
            probes,
            query_evals: self.query_evals.get(),
            ..ChunkStats::default()
        }
    }
}

impl BoundedSearch<'_> {
    /// The largest extension size searched.
    fn max_size(&self) -> usize {
        self.budget.max_delta_tuples.min(self.pool.len())
    }

    /// The per-candidate test: does adding the pool tuples `subset` to `D`
    /// keep `(D ∪ Δ, D_m) |= V` and change `Q`? For non-monotone `L_Q` an
    /// addition can also *remove* answers; any distinguishing tuple is
    /// reported.
    fn try_subset(
        &self,
        subset: &[usize],
        tally: &Tally,
    ) -> Result<Option<CounterExample>, RcError> {
        let mut delta = Database::with_relations(self.setting.schema.len());
        for &i in subset {
            let (rel, t) = &self.pool[i];
            delta.insert(*rel, t.clone());
        }
        tally.cc_checks.set(tally.cc_checks.get() + 1);
        let Some(extended) =
            self.check
                .closed_union(self.setting, self.db, &delta, &tally.cc_skipped)?
        else {
            return Ok(None);
        };
        let q_after = self.query.eval(&extended)?;
        tally.query_evals.set(tally.query_evals.get() + 1);
        if q_after == self.q_d {
            return Ok(None);
        }
        let new_answer = q_after
            .symmetric_difference(&self.q_d)
            .next()
            .unwrap_or_else(|| unreachable!("answers differ"))
            .clone();
        Ok(Some(CounterExample { delta, new_answer }))
    }

    /// The `Unknown` verdict for a search that exhausted every size.
    fn no_extension(&self, candidates: u64) -> Verdict {
        Verdict::unknown(
            SearchStats::new(
                BudgetLimit::MaxDeltaTuples,
                format!(
                    "bounded search: no violating extension with ≤ {} tuple(s) over {} \
                     candidate tuple(s) ({} fresh value(s))",
                    self.max_size(),
                    self.pool.len(),
                    self.budget.fresh_values
                ),
            )
            .with_candidates(candidates),
        )
    }

    /// The driver: sizes from `start_size` up under one meter primed
    /// with the committed ticks and counters primed with the committed
    /// totals, so the search rejects — and reports — at exactly the point an
    /// uninterrupted run at the same budget would. Returns the resume point
    /// alongside the verdict when the search stopped on a budget-like limit.
    fn run(
        &self,
        guard: &Guard,
        probe: Probe<'_>,
        start_size: usize,
        committed: &ChunkStats,
        setup_probes: u64,
    ) -> Result<(Verdict, Option<BoundedResume>), RcError> {
        let entry_probes = probe_count();
        let own_probes = || committed.probes + probe_count().saturating_sub(entry_probes);
        let mut meter = Meter::guarded_primed(
            MeterKind::Candidates,
            self.budget.max_candidates,
            committed.ticks,
            guard,
        );
        let tally = Tally::primed(committed);
        let mut ledger = *committed;
        let mut frontier = None;
        let max_size = self.max_size();

        let span = probe.span("semidecide.extension_search");
        let mut verdict = None;
        for size in start_size..=max_size {
            let mut chosen: Vec<usize> = Vec::with_capacity(size);
            let found = choose(
                &self.pool,
                0,
                size,
                &mut chosen,
                &mut meter,
                &mut |subset| self.try_subset(subset, &tally),
            )?;
            match found {
                ChooseOutcome::Found(ce) => {
                    verdict = Some(Verdict::Incomplete(ce));
                    break;
                }
                ChooseOutcome::Budget => {
                    let detail = match meter.interrupt() {
                        Some(interrupt) => {
                            probe.interrupt(
                                "semidecide.interrupt",
                                interrupt.name(),
                                guard.ticks(),
                            );
                            meter.stop_detail("candidate")
                        }
                        None => format!(
                            "bounded search: candidate budget {} exhausted at extension \
                             size {size}",
                            meter.limit()
                        ),
                    };
                    probe.note("explain.frontier", || {
                        format!(
                            "bounded search stopped at extension size {size}/{max_size}; \
                             remaining subsets of size {size} and all larger sizes unexplored"
                        )
                    });
                    verdict = Some(Verdict::unknown(
                        SearchStats::new(meter.stop_limit(BudgetLimit::MaxCandidates), detail)
                            .with_candidates(meter.used()),
                    ));
                    frontier = Some(BoundedResume {
                        next_size: size,
                        stats: ledger,
                    });
                    break;
                }
                // Commit this fully-searched size: the cumulative totals are
                // what a resumed installment primes its meter and cells with.
                ChooseOutcome::Exhausted => ledger = tally.stats(meter.used(), own_probes()),
            }
        }
        drop(span);
        emit_totals(
            probe,
            &tally.stats(meter.used(), own_probes()),
            setup_probes,
        );
        Ok((
            verdict.unwrap_or_else(|| self.no_extension(meter.used())),
            frontier,
        ))
    }
}

/// Emit the bounded search's decision counters from its cumulative stats;
/// `index.probe` adds the setup's probes, `semidecide.query_evals` the
/// up-front evaluation of `Q(D)`.
fn emit_totals(probe: Probe<'_>, totals: &ChunkStats, setup_probes: u64) {
    probe.count("semidecide.candidates", totals.ticks);
    probe.count("semidecide.cc_checks", totals.cc_checks);
    probe.count("semidecide.query_evals", 1 + totals.query_evals);
    probe.count("cc.skipped_by_delta", totals.cc_skipped);
    // Thread-local counters: exact even when other threads probe concurrently.
    probe.count("index.probe", setup_probes + totals.probes);
}

enum ChooseOutcome {
    Found(CounterExample),
    Budget,
    Exhausted,
}

fn choose(
    pool: &[(RelId, Tuple)],
    start: usize,
    remaining: usize,
    chosen: &mut Vec<usize>,
    meter: &mut Meter<'_>,
    check: &mut impl FnMut(&[usize]) -> Result<Option<CounterExample>, RcError>,
) -> Result<ChooseOutcome, RcError> {
    if remaining == 0 {
        if !meter.tick() {
            return Ok(ChooseOutcome::Budget);
        }
        if let Some(ce) = check(chosen)? {
            return Ok(ChooseOutcome::Found(ce));
        }
        return Ok(ChooseOutcome::Exhausted);
    }
    for i in start..pool.len() {
        chosen.push(i);
        let outcome = choose(pool, i + 1, remaining - 1, chosen, meter, check)?;
        chosen.pop();
        match outcome {
            ChooseOutcome::Exhausted => {}
            other => return Ok(other),
        }
    }
    Ok(ChooseOutcome::Exhausted)
}

/// Bounded RCQP for undecidable language combinations: search small candidate
/// databases; a candidate that survives the bounded RCDP search within budget is
/// reported (as evidence, not proof) in the `Unknown` description; finding a
/// certified violating extension for *every* candidate is likewise not a
/// proof of emptiness, because the candidate space is unbounded.
pub fn rcqp_bounded(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
) -> Result<QueryVerdict, RcError> {
    rcqp_bounded_probed(setting, query, budget, Probe::disabled())
}

/// [`rcqp_bounded`] with a telemetry probe attached.
pub fn rcqp_bounded_probed(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
    probe: Probe<'_>,
) -> Result<QueryVerdict, RcError> {
    rcqp_bounded_guarded(setting, query, budget, &Guard::new(budget), probe)
}

/// [`rcqp_bounded`] with an explicit [`Guard`] and a telemetry probe.
pub fn rcqp_bounded_guarded(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
) -> Result<QueryVerdict, RcError> {
    let probe = probe.with_ticks(guard);
    let verdict = rcqp_bounded_inner(setting, query, budget, guard, probe)?;
    crate::rcqp::emit_query_verdict(probe, &verdict);
    Ok(verdict)
}

pub(crate) fn rcqp_bounded_inner(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
) -> Result<QueryVerdict, RcError> {
    let empty = Database::empty(&setting.schema);
    let adom = Adom::build(&empty, setting, query, budget.fresh_values);
    let mut values = adom.constants.clone();
    values.extend(adom.fresh.iter().cloned());
    probe.gauge("semidecide.adom_size", values.len() as u64);
    if pool_estimate(setting, values.len()) > MAX_POOL {
        return Ok(QueryVerdict::unknown(SearchStats::new(
            BudgetLimit::PoolBound,
            format!("candidate tuple space exceeds {MAX_POOL}"),
        )));
    }
    let pool = tuple_pool(setting, &empty, &values);
    probe.gauge("semidecide.pool_size", pool.len() as u64);
    let mut meter = Meter::guarded(MeterKind::Candidates, budget.max_candidates, guard);
    let cc_checks = Cell::new(0u64);

    let span = probe.span("semidecide.candidate_search");
    let mut verdict = None;
    let max_size = budget.max_delta_tuples.min(pool.len());
    'sizes: for size in 0..=max_size {
        let mut chosen: Vec<usize> = Vec::with_capacity(size);
        let mut survivor: Option<Database> = None;
        let outcome = choose(
            &pool,
            0,
            size,
            &mut chosen,
            &mut meter,
            &mut |subset: &[usize]| -> Result<Option<CounterExample>, RcError> {
                let mut db = Database::with_relations(setting.schema.len());
                for &i in subset {
                    let (rel, t) = &pool[i];
                    db.insert(*rel, t.clone());
                }
                cc_checks.set(cc_checks.get() + 1);
                if !setting.partially_closed(&db)? {
                    return Ok(None);
                }
                // The per-candidate refutation runs unprobed: thousands of
                // candidates would flood the sink with inner-search events;
                // the outer meter already accounts for the work. The guard is
                // shared so a deadline covers the inner searches too.
                let (verdict, _) = decide_bounded(
                    setting,
                    query,
                    &db,
                    budget,
                    guard,
                    Probe::disabled(),
                    None,
                    None,
                )?;
                if let Verdict::Unknown { .. } = verdict {
                    // An Unknown caused by a guard trip is not evidence that
                    // the candidate survived — the refutation search was cut
                    // short. Report nothing; the tripped guard ends the outer
                    // enumeration at its next tick.
                    if guard.tripped().is_some() {
                        return Ok(None);
                    }
                    // No refutation within bound: treat as a survivor and
                    // abuse the Found channel to stop the search.
                    survivor = Some(db);
                    return Ok(Some(CounterExample {
                        delta: Database::with_relations(setting.schema.len()),
                        new_answer: Tuple::unit(),
                    }));
                }
                Ok(None)
            },
        )?;
        match outcome {
            ChooseOutcome::Found(_) => {
                let db = survivor.unwrap_or_else(|| unreachable!("survivor is set before Found"));
                verdict = Some(QueryVerdict::unknown(
                    SearchStats::new(
                        BudgetLimit::MaxDeltaTuples,
                        format!(
                            "undecidable combination: candidate with {} tuple(s) not refuted \
                             within extension bound {} (evidence only)",
                            db.tuple_count(),
                            budget.max_delta_tuples
                        ),
                    )
                    .with_candidates(meter.used()),
                ));
                break 'sizes;
            }
            ChooseOutcome::Budget => {
                let detail = match meter.interrupt() {
                    Some(interrupt) => {
                        probe.interrupt("semidecide.interrupt", interrupt.name(), guard.ticks());
                        meter.stop_detail("candidate")
                    }
                    None => "candidate budget exhausted".to_string(),
                };
                probe.note("explain.frontier", || {
                    format!(
                        "candidate search stopped at database size {size}/{max_size}; \
                         remaining candidates of size {size} and all larger sizes unexplored"
                    )
                });
                verdict = Some(QueryVerdict::unknown(
                    SearchStats::new(meter.stop_limit(BudgetLimit::MaxCandidates), detail)
                        .with_candidates(meter.used()),
                ));
                break 'sizes;
            }
            ChooseOutcome::Exhausted => {}
        }
    }
    drop(span);
    probe.count("semidecide.candidates", meter.used());
    probe.count("semidecide.cc_checks", cc_checks.get());
    // A trip inside the very last candidate's inner refutation leaves the
    // outer loop "exhausted" without another tick to observe it; the blanket
    // claim below would then overstate coverage.
    if verdict.is_none() {
        if let Some(interrupt) = guard.tripped() {
            probe.interrupt("semidecide.interrupt", interrupt.name(), guard.ticks());
            verdict = Some(QueryVerdict::unknown(
                SearchStats::new(
                    interrupt.limit(),
                    match interrupt {
                        crate::guard::Interrupt::Deadline => format!(
                            "wall-clock deadline expired after {} candidate(s)",
                            meter.used()
                        ),
                        crate::guard::Interrupt::Cancelled => {
                            format!("cancelled after {} candidate(s)", meter.used())
                        }
                    },
                )
                .with_candidates(meter.used()),
            ));
        }
    }
    Ok(verdict.unwrap_or_else(|| {
        QueryVerdict::unknown(
            SearchStats::new(
                BudgetLimit::MaxDeltaTuples,
                format!(
                    "undecidable combination: every candidate database with ≤ {max_size} \
                     tuple(s) was refuted within the extension bound"
                ),
            )
            .with_candidates(meter.used()),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_constraints::ConstraintSet;
    use ric_data::{RelationSchema, Schema};
    use ric_query::{parse_program, FoExpr, FoQuery, Term, Var};

    fn edge_schema() -> Schema {
        Schema::from_relations(vec![RelationSchema::infinite("E", &["a", "b"])]).unwrap()
    }

    #[test]
    fn fp_query_incompleteness_found() {
        // Transitive closure query on an open-world edge relation: adding an
        // edge changes the answer, so any finite DB is incomplete; the
        // bounded search certifies this.
        let schema = edge_schema();
        let setting = Setting::open_world(schema.clone());
        let p = parse_program(
            &schema,
            "Tc(X,Y) :- E(X,Y). Tc(X,Y) :- E(X,Z), Tc(Z,Y).",
            "Tc",
        )
        .unwrap();
        let q: Query = p.into();
        let db = Database::empty(&schema);
        let verdict = crate::rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap();
        match verdict {
            Verdict::Incomplete(ce) => {
                assert!(crate::rcdp::certify_counterexample(&setting, &q, &db, &ce).unwrap());
            }
            other => panic!("expected incomplete, got {other:?}"),
        }
    }

    #[test]
    fn fo_query_with_blocking_constraint_reports_unknown() {
        // Q := ∀x∀y ¬E(x,y) (emptiness of E) with a CC forbidding any E
        // tuple: no extension is allowed, so the bounded search finds no
        // counterexample and honestly reports Unknown.
        let schema = edge_schema();
        let e = schema.rel_id("E").unwrap();
        let (x, y) = (Var(0), Var(1));
        let fo = FoQuery::new(
            vec![],
            FoExpr::Forall(
                vec![x, y],
                Box::new(FoExpr::not(FoExpr::Atom(ric_query::Atom::new(
                    e,
                    vec![Term::Var(x), Term::Var(y)],
                )))),
            ),
            vec!["x".into(), "y".into()],
        );
        let block = ric_query::parse_cq(&schema, "Q(X, Y) :- E(X, Y).").unwrap();
        let v = ConstraintSet::new(vec![ric_constraints::ContainmentConstraint::into_empty(
            ric_constraints::CcBody::Cq(block),
        )]);
        let setting = Setting::new(
            schema.clone(),
            Schema::new(),
            Database::with_relations(0),
            v,
        );
        let db = Database::empty(&schema);
        let verdict = crate::rcdp(&setting, &Query::Fo(fo), &db, &SearchBudget::small()).unwrap();
        match verdict {
            Verdict::Unknown { .. } => {}
            other => panic!("expected unknown, got {other:?}"),
        }
    }

    #[test]
    fn fo_query_answer_can_shrink() {
        // Q(x) := E(x,x) ∧ ∀y ¬E(x,y) is non-monotone-ish; simpler: Q :=
        // ¬∃x E(x,x). Adding a loop removes the empty-tuple answer.
        let schema = edge_schema();
        let e = schema.rel_id("E").unwrap();
        let x = Var(0);
        let fo = FoQuery::new(
            vec![],
            FoExpr::not(FoExpr::Exists(
                vec![x],
                Box::new(FoExpr::Atom(ric_query::Atom::new(
                    e,
                    vec![Term::Var(x), Term::Var(x)],
                ))),
            )),
            vec!["x".into()],
        );
        let setting = Setting::open_world(schema.clone());
        let mut db = Database::empty(&schema);
        db.insert(e, Tuple::new([Value::int(1), Value::int(2)]));
        let verdict = crate::rcdp(
            &setting,
            &Query::Fo(fo.clone()),
            &db,
            &SearchBudget::default(),
        )
        .unwrap();
        match verdict {
            Verdict::Incomplete(ce) => {
                // The distinguishing tuple is the unit tuple leaving the
                // answer set.
                assert_eq!(ce.new_answer, Tuple::unit());
            }
            other => panic!("expected incomplete, got {other:?}"),
        }
    }

    #[test]
    fn tuple_pool_respects_finite_domains_and_db() {
        let schema = Schema::from_relations(vec![RelationSchema::new(
            "B",
            vec![ric_data::Attribute::boolean("x")],
        )])
        .unwrap();
        let b = schema.rel_id("B").unwrap();
        let setting = Setting::open_world(schema.clone());
        let mut db = Database::empty(&schema);
        db.insert(b, Tuple::new([Value::int(0)]));
        let pool = tuple_pool(&setting, &db, &[Value::int(42)]);
        // Only (1) remains: (0) is in db and 42 is outside the domain.
        assert_eq!(pool.len(), 1);
        assert_eq!(pool[0].1, Tuple::new([Value::int(1)]));
    }

    #[test]
    fn rcqp_bounded_reports_unknown_with_evidence() {
        let schema = edge_schema();
        let setting = Setting::open_world(schema.clone());
        let p = parse_program(
            &schema,
            "Tc(X,Y) :- E(X,Y). Tc(X,Y) :- E(X,Z), Tc(Z,Y).",
            "Tc",
        )
        .unwrap();
        let verdict = rcqp_bounded(&setting, &Query::Fp(p), &SearchBudget::small()).unwrap();
        match verdict {
            QueryVerdict::Unknown { .. } => {}
            other => panic!("expected unknown, got {other:?}"),
        }
    }
}
