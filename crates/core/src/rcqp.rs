//! RCQP — the *relatively complete query* problem (Section 4).
//!
//! Given `Q` and `(D_m, V)`, decide whether `RCQ(Q, D_m, V)` is nonempty:
//! does *any* partially closed database have complete information for `Q`?
//!
//! * `L_C` = INDs (Theorem 4.5(1), coNP): the syntactic characterization of
//!   Proposition 4.3 — every disjunct is either *blocked* (no valid valuation
//!   satisfies `V`) or *bounded* (each infinite-domain head variable occurs
//!   in an IND-covered column, E4, or has a finite domain, E3).
//! * `L_C` among CQ/UCQ/∃FO⁺ (Theorem 4.5(2), NEXPTIME): the E2
//!   characterization of Proposition 4.2. `RCQ` is nonempty iff E1 holds or
//!   some set `𝒱` of partial valuations of the constraint tableaux over
//!   `Adom` satisfies E2. Two structural facts make this searchable:
//!
//!   1. every `𝒱` decomposes into *single-atom* instantiations with the same
//!      `D_𝒱` and at least the same bound head values, so the search space
//!      is the subsets of a tuple pool;
//!   2. E2 is *monotone* in `D_𝒱` (adding consistent tuples removes
//!      valuations from the `(D_𝒱 ∪ μ(T_Q), D_m) |= V` gate — constraint
//!      bodies are monotone — and only grows the bound-value set), so it
//!      suffices to check the **maximal** `V`-consistent pool subsets.
//!
//!   The decider therefore: (a) probes a greedy completion from the empty
//!   database (fast, certified); (b) enumerates maximal consistent subsets
//!   of the pool and checks E2 on each; all failing ⇒ `Empty`. Every
//!   consistency test, E2 check, greedy completion, and witness
//!   certification runs through the decision's one candidate check
//!   (`crate::check::UpperCheck`). The query side of the E2 check is built
//!   once per disjunct, and a leaf's maximality test skips
//!   the entries refused on its branch — bodies are monotone and the
//!   candidate only grows below a node, so a refused tuple stays refused
//!   (see `SearchCtx::maximal_subsets`). The fresh
//!   pool used to build candidate tuples is bounded by
//!   `SearchBudget::fresh_values`; the paper's small-model bound can require
//!   as many fresh values as the largest constraint tableau has variables,
//!   so when the configured pool is smaller than that an exhausted search
//!   reports `Unknown` rather than `Empty`.
//! * FO/FP: undecidable (Theorem 4.1); falls back to the bounded candidate
//!   search in [`crate::semidecide`].
//!
//! With `(D_m, V)` fixed the same search runs in Πᵖ₃ (Corollary 4.6); the
//! benches exercise exactly that regime.

use crate::adom::Adom;
use crate::budget::{Engine, Meter, MeterKind, SearchBudget};
use crate::characterize::E2Disjunct;
use crate::check::{IdCheck, IdScratch, UpperCheck};
use crate::extend::{complete_extension_guarded, CompletionOutcome};
use crate::guard::Guard;
use crate::query::Query;
use crate::rcdp::exactly_decidable;
use crate::request::Request;
use crate::setting::Setting;
use crate::valuations::{emit_profile, DepthProfile, EnumOutcome, ValuationSpace};
use crate::verdict::{BudgetLimit, QueryVerdict, RcError, SearchStats, Verdict};
use ric_data::{index::probe_count, Database, RelId, Tuple, Value};
use ric_query::tableau::Tableau;
use ric_query::Term;
use ric_telemetry::Probe;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

/// Rounds allowed for the greedy fast-path probe before falling back to the
/// characterization-driven search.
const GREEDY_PROBE_TUPLES: usize = 8;

/// Decide RCQP, dispatching on the language combination:
/// [`Request::rcqp`](crate::Request::rcqp) against `setting` under `budget`.
pub fn rcqp(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
) -> Result<QueryVerdict, RcError> {
    Ok(Request::new(setting).budget(budget).rcqp(query)?.verdict)
}

/// Emit the outcome note (and the exhausted limit, for `Unknown`) for an
/// RCQP verdict.
pub(crate) fn emit_query_verdict(probe: Probe<'_>, verdict: &QueryVerdict) {
    match verdict {
        QueryVerdict::Nonempty { witness } => {
            probe.note("rcqp.outcome", || "nonempty".into());
            if let Some(w) = witness {
                probe.gauge("rcqp.witness_tuples", w.tuple_count() as u64);
            }
        }
        QueryVerdict::Empty => probe.note("rcqp.outcome", || "empty".into()),
        QueryVerdict::Unknown { stats } => {
            probe.note("rcqp.outcome", || "unknown".into());
            probe.note("rcqp.limit", || stats.limit.name().into());
        }
    }
}

/// The one RCQP dispatch; every nested completion, E2 check, and
/// certification shares the decision's `check`.
pub(crate) fn rcqp_inner(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    check: &UpperCheck,
    reused: bool,
) -> Result<QueryVerdict, RcError> {
    if !(exactly_decidable(query.language()) && exactly_decidable(setting.v.language())) {
        probe.note("rcqp.strategy", || "bounded".into());
        // The caller (`Request::rcqp`) emits the outcome note.
        return crate::semidecide::rcqp_bounded_inner(setting, query, budget, guard, probe, check);
    }
    // Lower-bound constraints (the Section 5 extension) force minimal
    // content into every candidate database; build that seed first. With no
    // lower bounds the seed is the empty database.
    let Some(seed) = lower_bound_seed(setting) else {
        return Ok(QueryVerdict::unknown(SearchStats::new(
            BudgetLimit::Unsupported,
            "lower-bound constraints with non-projection bodies are not \
             supported by the RCQP search",
        )));
    };
    if !setting.partially_closed(&seed)? {
        // With no lower bounds the seed is empty and, by monotonicity of the
        // (UCQ-expressible) upper bounds, nothing is partially closed: RCQ
        // is vacuously empty. With lower bounds, a different choice of
        // padding values could still work — stay honest.
        return Ok(if setting.v.lower_bounds.is_empty() {
            QueryVerdict::Empty
        } else {
            QueryVerdict::unknown(SearchStats::new(
                BudgetLimit::Unsupported,
                "the lower-bound seed database violates the upper bounds",
            ))
        });
    }
    let Some(ucq) = query.as_ucq() else {
        return Err(RcError::Unsupported(format!(
            "decidable languages are UCQ-expressible, got {:?}",
            query.language()
        )));
    };
    let tableaux = ucq.tableaux()?;
    if tableaux.is_empty() {
        // Unsatisfiable query: the seed database is complete.
        return Ok(QueryVerdict::Nonempty {
            witness: Some(seed),
        });
    }
    // E1/E5: all head variables finite — trivially relatively complete.
    if crate::characterize::finite_head(&ucq, &setting.schema)? {
        probe.note("rcqp.strategy", || "finite_head".into());
        let witness = greedy_witness(
            setting,
            query,
            &seed,
            budget,
            guard,
            check,
            budget.max_witness_tuples,
        )?;
        return Ok(QueryVerdict::Nonempty { witness });
    }
    if setting.v.is_ind_set() {
        probe.note("rcqp.strategy", || "ind".into());
        rcqp_ind(
            setting, query, &seed, &tableaux, budget, guard, probe, check,
        )
    } else {
        probe.note("rcqp.strategy", || "general".into());
        rcqp_general(
            setting, query, &seed, &tableaux, budget, guard, probe, check, reused,
        )
    }
}

/// The check a plain RCQP request builds, planned from the lower-bound seed:
/// the only instance in hand when RCQP starts. Typically near-empty, so
/// plans usually take the static order — which affects timing only.
pub(crate) fn plain_check(setting: &Setting, engine: Engine) -> Result<UpperCheck, RcError> {
    let seed = lower_bound_seed(setting).unwrap_or_else(|| Database::empty(&setting.schema));
    UpperCheck::new(setting, engine, &seed)
}

/// Construct the minimal database forced by the lower-bound constraints:
/// for each `p(R_m) ⊆ π_cols(R)`, one `R` tuple per master tuple, projected
/// columns copied and the rest padded with fresh values. Returns `None` when
/// some lower-bound body is not a projection (no canonical seed exists).
fn lower_bound_seed(setting: &Setting) -> Option<Database> {
    let mut db = Database::empty(&setting.schema);
    if setting.v.lower_bounds.is_empty() {
        return Some(db);
    }
    let mut fresh = ric_data::FreshValues::new();
    for v in setting.dm.active_domain() {
        fresh.observe(v);
    }
    for v in setting.v.constants() {
        fresh.observe(&v);
    }
    for lb in &setting.v.lower_bounds {
        let ric_constraints::CcBody::Proj(proj) = &lb.body else {
            return None;
        };
        let arity = setting.schema.arity(proj.rel).ok()?;
        for m in lb.master.eval(&setting.dm) {
            let mut fields: Vec<Option<Value>> = vec![None; arity];
            for (i, &col) in proj.cols.iter().enumerate() {
                fields[col] = Some(m.get(i).clone());
            }
            let tuple = Tuple::new(
                fields
                    .into_iter()
                    .map(|f| f.unwrap_or_else(|| fresh.fresh())),
            );
            db.insert(proj.rel, tuple);
        }
    }
    Some(db)
}

/// Try to build a witness by greedy completion from the seed database,
/// allowing up to `max_tuples` additions.
fn greedy_witness(
    setting: &Setting,
    query: &Query,
    seed: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    check: &UpperCheck,
    max_tuples: usize,
) -> Result<Option<Database>, RcError> {
    let capped = SearchBudget {
        max_witness_tuples: max_tuples,
        ..*budget
    };
    let outcome = complete_extension_guarded(setting, query, seed, &capped, guard, check)?;
    Ok(match outcome {
        CompletionOutcome::AlreadyComplete => Some(seed.clone()),
        CompletionOutcome::Completed { result, .. } => Some(result),
        CompletionOutcome::Budget { .. } => None,
    })
}

/// Proposition 4.3: the coNP decision for `L_C` = INDs.
#[allow(clippy::too_many_arguments)]
fn rcqp_ind(
    setting: &Setting,
    query: &Query,
    seed: &Database,
    tableaux: &[Tableau],
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    check: &UpperCheck,
) -> Result<QueryVerdict, RcError> {
    let n_fresh = tableaux
        .iter()
        .map(|t| t.n_vars as usize)
        .max()
        .unwrap_or(0)
        .max(1);
    let empty = Database::empty(&setting.schema);
    let adom = Adom::build(&empty, setting, query, n_fresh)?;
    probe.gauge("rcqp.adom_size", adom.len() as u64);
    // The IND check on ids; one arena serves every partial instantiation.
    // It checks `Δ` alone, so it never skips a constraint.
    let ind_check = IdCheck::new(check, setting, &empty, &adom)?;
    let mut scratch = IdScratch::default();
    let no_skips = Cell::new(0u64);
    let mut meter = Meter::guarded(MeterKind::Valuations, budget.max_valuations, guard);
    let span = probe.span("rcqp.blockedness");
    for (ti, t) in tableaux.iter().enumerate() {
        if !t.domain_consistent(&setting.schema) {
            continue; // blocked: matches no valid tuple at all
        }
        // Is the disjunct blocked — no valid valuation with (μ(T), D_m) |= V?
        let space = ValuationSpace::new(t, &setting.schema, &adom)?;
        let mut has_valid = false;
        let before = meter.used();
        let profile = DepthProfile::new();
        let enumerate = probe.span("valuations.enumerate");
        let outcome = space.for_each_valid_pruned_profiled(
            &profile,
            &mut meter,
            |_| true,
            |binding| {
                // Partial pruning: a partially instantiated tableau that
                // already escapes the master projections cannot become valid.
                scratch.delta.clear();
                space.write_atoms(|v| binding[v], &mut scratch.delta);
                scratch.delta.is_empty()
                    || ind_check.first_violation(&mut scratch, &no_skips).is_none()
            },
            |_mu| {
                // The partial filter already validated the full instantiation.
                has_valid = true;
                ControlFlow::Break(())
            },
        );
        drop(enumerate);
        probe.count("valuations.assignments", meter.used() - before);
        emit_profile(
            probe,
            &profile.candidates(),
            &profile.pruned(),
            profile.head_prunes(),
        );
        if outcome == EnumOutcome::BudgetExceeded {
            drop(span);
            probe.count("rcqp.valuations", meter.used());
            if let Some(interrupt) = meter.interrupt() {
                probe.interrupt("rcqp.interrupt", interrupt.name(), guard.ticks());
            }
            probe.note("explain.frontier", || {
                format!(
                    "blockedness check stopped in disjunct {}/{} after {} valuation(s); \
                     later disjuncts unexplored",
                    ti + 1,
                    tableaux.len(),
                    meter.used()
                )
            });
            return Ok(QueryVerdict::unknown(
                SearchStats::new(
                    meter.stop_limit(BudgetLimit::MaxValuations),
                    meter.stop_detail("valuation"),
                )
                .with_valuations(meter.used()),
            ));
        }
        if !has_valid {
            continue; // blocked
        }
        if !crate::characterize::ind_bounded(t, &setting.schema, setting) {
            // An unblocked, unbounded disjunct: fresh head values can always
            // be injected, so no database is ever complete.
            drop(span);
            probe.count("rcqp.valuations", meter.used());
            return Ok(QueryVerdict::Empty);
        }
    }
    drop(span);
    probe.count("rcqp.valuations", meter.used());
    let greedy_span = probe.span("rcqp.greedy_witness");
    let witness = greedy_witness(
        setting,
        query,
        seed,
        budget,
        guard,
        check,
        budget.max_witness_tuples,
    )?;
    drop(greedy_span);
    Ok(QueryVerdict::Nonempty { witness })
}

/// A candidate tuple for the `D_𝒱` search: an instantiation of one
/// constraint-tableau atom, together with the head values it pins (its
/// contribution to the E2 bound set).
#[derive(Clone, PartialEq, Eq, Debug)]
struct PoolEntry {
    rel: RelId,
    tuple: Tuple,
    bound: BTreeSet<Value>,
}

/// Build the candidate pool over `values`: every instantiation of every atom
/// of every constraint tableau in `cc_tableaux` (head-variable values
/// recorded as bound), and the constant tuples of the query tableaux (no
/// bound contribution).
fn candidate_pool(
    setting: &Setting,
    cc_tableaux: &[Tableau],
    query_tableaux: &[Tableau],
    values: &[Value],
) -> Vec<PoolEntry> {
    let mut pool: BTreeMap<(RelId, Tuple), BTreeSet<Value>> = BTreeMap::new();
    for t in cc_tableaux {
        let doms = t.var_domains(&setting.schema);
        let head_vars = t.head_vars();
        for atom in &t.atoms {
            let mut binding: BTreeMap<u32, Value> = BTreeMap::new();
            instantiate_atom(
                atom,
                &doms,
                values,
                0,
                &mut binding,
                &mut |tuple, binding| {
                    let bound: BTreeSet<Value> = atom
                        .vars()
                        .filter(|v| head_vars.contains(v))
                        .map(|v| binding[&v.0].clone())
                        .collect();
                    pool.entry((atom.rel, tuple)).or_default().extend(bound);
                },
            );
        }
    }
    for t in query_tableaux {
        for atom in &t.atoms {
            if atom.args.iter().any(Term::is_var) {
                continue;
            }
            let tuple = Tuple::new(atom.args.iter().map(|a| match a {
                Term::Const(c) => c.clone(),
                Term::Var(_) => unreachable!(),
            }));
            pool.entry((atom.rel, tuple)).or_default();
        }
    }
    pool.into_iter()
        .map(|((rel, tuple), bound)| PoolEntry { rel, tuple, bound })
        .collect()
}

fn instantiate_atom(
    atom: &ric_query::Atom,
    doms: &[Option<BTreeSet<Value>>],
    values: &[Value],
    col: usize,
    binding: &mut BTreeMap<u32, Value>,
    out: &mut impl FnMut(Tuple, &BTreeMap<u32, Value>),
) {
    if col == atom.args.len() {
        let tuple = Tuple::new(atom.args.iter().map(|t| match t {
            Term::Const(c) => c.clone(),
            Term::Var(v) => binding[&v.0].clone(),
        }));
        out(tuple, binding);
        return;
    }
    match &atom.args[col] {
        Term::Const(_) => instantiate_atom(atom, doms, values, col + 1, binding, out),
        Term::Var(v) => {
            if binding.contains_key(&v.0) {
                instantiate_atom(atom, doms, values, col + 1, binding, out);
                return;
            }
            let candidates: Vec<Value> = match &doms[v.idx()] {
                Some(dom) => dom.iter().cloned().collect(),
                None => values.to_vec(),
            };
            for val in candidates {
                binding.insert(v.0, val);
                instantiate_atom(atom, doms, values, col + 1, binding, out);
            }
            binding.remove(&v.0);
        }
    }
}

/// A sound emptiness test that avoids the exponential E2 search: the
/// *fresh-escape* test. Instantiate a disjunct tableau generically — every
/// infinite-domain variable gets a distinct fresh value — and ask whether
/// the resulting tuples could *ever* participate in a constraint violation,
/// for **any** database `D` whose values avoid the fresh ones:
///
/// * a violation is an instantiation of some CC body mapping each atom
///   either to a generic tuple or to an unknown `D` tuple;
/// * `D` tuples cannot carry fresh values, so a shared variable bound to a
///   fresh value by a generic tuple rules the mapping out;
/// * a mapping that uses only generic tuples has a fully determined output,
///   which is harmless when it already lands inside the CC's master
///   projection.
///
/// If no CC can be violated, then every partially closed `D` extends by the
/// generic tuples (with fresh values chosen outside `D`) to a partially
/// closed `D′` with a brand-new answer — so `RCQ(Q, D_m, V) = ∅`
/// (the generalisation of the unbounded-IND argument of Proposition 4.3).
fn fresh_escape(setting: &Setting, t: &Tableau) -> Result<bool, RcError> {
    if !t.domain_consistent(&setting.schema) {
        return Ok(false);
    }
    let doms = t.var_domains(&setting.schema);
    let head_vars = t.head_vars();
    if !head_vars.iter().any(|v| doms[v.idx()].is_none()) {
        return Ok(false); // no infinite head variable: nothing escapes
    }
    // Build the generic valuation μ*: fresh values for infinite-domain
    // variables, a backtracking assignment for finite-domain ones (honouring
    // the tableau inequalities).
    let mut gen = ric_data::FreshValues::new();
    for c in t.constants() {
        gen.observe(&c);
    }
    for c in setting.dm.active_domain() {
        gen.observe(c);
    }
    for c in setting.v.constants() {
        gen.observe(&c);
    }
    let n = t.n_vars as usize;
    let mut assignment: Vec<Option<Value>> = vec![None; n];
    let mut fresh_vals: BTreeSet<Value> = BTreeSet::new();
    for v in 0..n {
        if doms[v].is_none() {
            let f = gen.fresh();
            fresh_vals.insert(f.clone());
            assignment[v] = Some(f);
        }
    }
    if !assign_finite(t, &doms, 0, &mut assignment) {
        return Ok(false); // finite domains cannot satisfy the inequalities
    }
    let mu = crate::valuations::materialize(t, &assignment);

    // Can any CC body match the generic tuples?
    for cc in &setting.v.ccs {
        let Some(ucq) = cc.body.as_ucq(&setting.schema) else {
            return Ok(false);
        };
        let rhs: BTreeSet<Tuple> = match &cc.rhs {
            ric_constraints::CcRhs::Empty => BTreeSet::new(),
            ric_constraints::CcRhs::Master(p) => p.eval(&setting.dm),
        };
        for body in ucq.tableaux()? {
            let mut binding: Vec<Option<Value>> = vec![None; body.n_vars as usize];
            let mut d_tainted: Vec<bool> = vec![false; body.n_vars as usize];
            if hybrid_match(
                &body,
                0,
                &mu,
                &fresh_vals,
                &rhs,
                false,
                false,
                &mut binding,
                &mut d_tainted,
            ) {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

fn assign_finite(
    t: &Tableau,
    doms: &[Option<BTreeSet<Value>>],
    var: usize,
    assignment: &mut Vec<Option<Value>>,
) -> bool {
    if var == t.n_vars as usize {
        return neqs_ok(t, assignment, true);
    }
    if assignment[var].is_some() {
        return assign_finite(t, doms, var + 1, assignment);
    }
    let dom = doms[var]
        .as_ref()
        .unwrap_or_else(|| unreachable!("only finite vars unassigned"))
        .clone();
    for val in dom {
        assignment[var] = Some(val);
        if neqs_ok(t, assignment, false) && assign_finite(t, doms, var + 1, assignment) {
            return true;
        }
        assignment[var] = None;
    }
    false
}

fn neqs_ok(t: &Tableau, assignment: &[Option<Value>], total: bool) -> bool {
    t.neqs.iter().all(|(l, r)| {
        let lv = match l {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => assignment[v.idx()].clone(),
        };
        let rv = match r {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => assignment[v.idx()].clone(),
        };
        match (lv, rv) {
            (Some(a), Some(b)) => a != b,
            _ => !total,
        }
    })
}

/// Can `body` (a CC tableau) be instantiated with every atom mapped either
/// to a generic tuple or to an unknown fresh-free `D` tuple, such that the
/// result is a potential *violation*? An all-generic match whose output
/// lands in `rhs` is harmless. `d_tainted` marks variables appearing in
/// `D`-mapped atoms — they may never take a fresh value, because `D` is
/// chosen disjoint from the fresh pool.
#[allow(clippy::too_many_arguments)]
fn hybrid_match(
    body: &Tableau,
    atom_idx: usize,
    generic: &[(RelId, Tuple)],
    fresh: &BTreeSet<Value>,
    rhs: &BTreeSet<Tuple>,
    any_d_atom: bool,
    used_generic: bool,
    binding: &mut Vec<Option<Value>>,
    d_tainted: &mut Vec<bool>,
) -> bool {
    if atom_idx == body.atoms.len() {
        if !used_generic {
            // A match entirely inside D already exists in D itself; it is
            // not a *new* violation introduced by the generic tuples.
            return false;
        }
        if !neqs_ok(body, binding, false) {
            return false;
        }
        if any_d_atom {
            // Unknown D tuples involved: conservatively a potential
            // violation (their values could realise anything fresh-free).
            return true;
        }
        // Fully generic: the output is determined; harmless iff inside rhs.
        let out = Tuple::new(body.head.iter().map(|term| {
            match term {
                Term::Const(c) => c.clone(),
                Term::Var(v) => binding[v.idx()]
                    .clone()
                    .unwrap_or_else(|| unreachable!("all vars bound")),
            }
        }));
        return !rhs.contains(&out);
    }
    let atom = &body.atoms[atom_idx];
    // Option 1: map to one of the generic tuples.
    for (rel, tuple) in generic {
        if *rel != atom.rel || tuple.arity() != atom.args.len() {
            continue;
        }
        let mut newly: Vec<usize> = Vec::new();
        let mut ok = true;
        for (term, value) in atom.args.iter().zip(tuple.iter()) {
            match term {
                Term::Const(c) => {
                    if c != value {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => match &binding[v.idx()] {
                    Some(b) => {
                        if b != value {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        // A D-constrained variable cannot take a fresh value.
                        if d_tainted[v.idx()] && fresh.contains(value) {
                            ok = false;
                            break;
                        }
                        binding[v.idx()] = Some(value.clone());
                        newly.push(v.idx());
                    }
                },
            }
        }
        let matched = ok
            && neqs_ok(body, binding, false)
            && hybrid_match(
                body,
                atom_idx + 1,
                generic,
                fresh,
                rhs,
                any_d_atom,
                true,
                binding,
                d_tainted,
            );
        for i in newly {
            binding[i] = None;
        }
        if matched {
            return true;
        }
    }
    // Option 2: map to an unknown D tuple — possible only if none of the
    // atom's already-bound variables carries a fresh value; its variables
    // become D-constrained for the rest of the search.
    let d_possible = atom.args.iter().all(|term| match term {
        Term::Const(_) => true,
        Term::Var(v) => match &binding[v.idx()] {
            Some(val) => !fresh.contains(val),
            None => true,
        },
    });
    if d_possible {
        let mut newly_tainted: Vec<usize> = Vec::new();
        for term in &atom.args {
            if let Term::Var(v) = term {
                if !d_tainted[v.idx()] {
                    d_tainted[v.idx()] = true;
                    newly_tainted.push(v.idx());
                }
            }
        }
        let matched = hybrid_match(
            body,
            atom_idx + 1,
            generic,
            fresh,
            rhs,
            true,
            used_generic,
            binding,
            d_tainted,
        );
        for i in newly_tainted {
            d_tainted[i] = false;
        }
        if matched {
            return true;
        }
    }
    false
}

/// The E2-driven search (Proposition 4.2) for `L_C` among CQ/UCQ/∃FO⁺.
#[allow(clippy::too_many_arguments)]
fn rcqp_general(
    setting: &Setting,
    query: &Query,
    seed: &Database,
    tableaux: &[Tableau],
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    check: &UpperCheck,
    reused: bool,
) -> Result<QueryVerdict, RcError> {
    // Sound emptiness fast path: a disjunct whose generic instantiation
    // escapes every constraint dooms all candidate databases.
    {
        let _span = probe.span("rcqp.fresh_escape");
        for t in tableaux {
            if fresh_escape(setting, t)? {
                return Ok(QueryVerdict::Empty);
            }
        }
    }
    // Fast path: a greedy completion from the seed often succeeds for
    // queries whose witnesses answer the query (e.g. full-key FDs).
    {
        let _span = probe.span("rcqp.greedy_witness");
        if let Some(witness) = greedy_witness(
            setting,
            query,
            seed,
            budget,
            guard,
            check,
            GREEDY_PROBE_TUPLES.min(budget.max_witness_tuples),
        )? {
            return Ok(QueryVerdict::Nonempty {
                witness: Some(witness),
            });
        }
    }
    // Fresh pool for candidate tuples. The paper's small-model bound may
    // need as many fresh values as the largest constraint tableau has
    // variables; track whether the configured pool reaches that, since an
    // exhausted search only proves emptiness relative to its pool.
    let mut cc_tableaux = Vec::new();
    for cc in &setting.v.ccs {
        if let Some(ucq) = cc.body.as_ucq(&setting.schema) {
            cc_tableaux.extend(ucq.tableaux()?);
        }
    }
    let needed_fresh = cc_tableaux
        .iter()
        .map(|t| t.n_vars as usize)
        .max()
        .unwrap_or(0);
    let n_fresh = budget.fresh_values.max(1);
    let pool_is_exact = n_fresh >= needed_fresh;
    let adom = Adom::build(seed, setting, query, n_fresh)?;
    probe.gauge("rcqp.adom_size", adom.len() as u64);
    let mut values = adom.constants.clone();
    values.extend(adom.fresh.iter().cloned());
    // Estimate the pool before materialising it: Σ |values|^{vars per atom}.
    const MAX_POOL: usize = 4096;
    let mut estimate = 0usize;
    for atom in cc_tableaux.iter().flat_map(|t| &t.atoms) {
        let vars: BTreeSet<_> = atom.vars().collect();
        estimate = estimate.saturating_add(values.len().max(1).saturating_pow(vars.len() as u32));
    }
    if estimate > MAX_POOL {
        return Ok(QueryVerdict::unknown(SearchStats::new(
            BudgetLimit::PoolBound,
            format!(
                "estimated candidate pool of {estimate} tuples exceeds the searchable bound \
                 of {MAX_POOL}"
            ),
        )));
    }
    let pool = candidate_pool(setting, &cc_tableaux, tableaux, &values);

    // Pre-filter: a tuple that violates V on its own can never belong to a
    // consistent subset. Upper bounds only: a lone tuple cannot be expected
    // to satisfy lower bounds (the seed provides those).
    let mut kept = Vec::with_capacity(pool.len());
    for entry in pool {
        let mut single = Database::with_relations(setting.schema.len());
        single.insert(entry.rel, entry.tuple.clone());
        if setting.v.upper_satisfied(&single, &setting.dm)? {
            kept.push(entry);
        }
    }
    let pool = kept;
    // A tuple is *inert* when its relation occurs in no multi-atom
    // constraint tableau: having survived the single-tuple filter it can
    // never participate in a violation, so every maximal subset contains it
    // (its exclude branch is skipped below).
    let multi_atom_rels: BTreeSet<RelId> = cc_tableaux
        .iter()
        .filter(|t| t.atoms.len() >= 2)
        .flat_map(|t| t.atoms.iter().map(|a| a.rel))
        .collect();
    let inert: Vec<bool> = pool
        .iter()
        .map(|e| !multi_atom_rels.contains(&e.rel))
        .collect();

    probe.gauge("rcqp.pool_size", pool.len() as u64);

    // Enumerate maximal V-consistent subsets of the pool; E2 is monotone in
    // D_𝒱, so checking maximal subsets decides ∃𝒱.E2.
    let mut meter = Meter::guarded(MeterKind::Candidates, budget.max_candidates, guard);
    let e2_checks = Cell::new(0u64);
    let Some(q_ucq) = query.as_ucq() else {
        return Err(RcError::Unsupported(
            "dispatch guarantees UCQ-expressible".into(),
        ));
    };
    // The disjunct half of every E2 check, built once for the whole search.
    let e2_disjuncts: Vec<E2Disjunct> = q_ucq
        .disjuncts
        .iter()
        .map(|cq| E2Disjunct::new(setting, cq))
        .collect();
    let mut current = seed.clone();
    let mut result: Option<Database> = None;
    crate::rcdp::emit_plan_telemetry(probe, setting, check, reused, seed);
    let cc_skipped = Cell::new(0u64);
    let probes_before = probe_count();
    let ctx = SearchCtx {
        setting,
        pool: &pool,
        inert: &inert,
        check,
        scratch: RefCell::new(Database::with_relations(setting.schema.len())),
        cc_skipped: &cc_skipped,
    };
    let span = probe.span("rcqp.e2_search");
    let outcome = ctx.maximal_subsets(
        0,
        // Placeholders: each entry's state is set at its node, before any
        // leaf reads it.
        &mut vec![EntryState::Refused; pool.len()],
        &mut current,
        &mut meter,
        &mut |db: &Database, states: &[EntryState]| -> Result<bool, RcError> {
            // E2 over this maximal D_𝒱: bound values are the pinned
            // constraint-head values of the chosen instantiations.
            let bound: BTreeSet<Value> = pool
                .iter()
                .zip(states)
                .filter(|(_, &st)| st == EntryState::Chosen)
                .flat_map(|(e, _)| e.bound.iter().cloned())
                .collect();
            for d in &e2_disjuncts {
                e2_checks.set(e2_checks.get() + 1);
                let verdict =
                    d.check(setting, db, &bound, budget, guard, Probe::disabled(), check)?;
                if verdict != Some(true) {
                    return Ok(false);
                }
            }
            Ok(true)
        },
        &mut result,
    )?;
    drop(span);
    probe.count("rcqp.candidates", meter.used());
    probe.count("rcqp.e2_checks", e2_checks.get());
    probe.count("cc.skipped_by_delta", cc_skipped.get());
    // Thread-local counter: exact even when other threads probe concurrently.
    probe.count("index.probe", probe_count().saturating_sub(probes_before));
    // A guard trip anywhere in the search (including inside an E2 check,
    // where it surfaces as an inconclusive check) forfeits the Empty
    // reading: the enumeration did not run to genuine exhaustion.
    if outcome != MaxOutcome::Found {
        if let Some(interrupt) = guard.tripped() {
            probe.interrupt("rcqp.interrupt", interrupt.name(), guard.ticks());
            probe.note("explain.frontier", || {
                format!(
                    "E2 subset search interrupted after {} candidate(s) over a pool of {} \
                     tuple(s); remaining subsets unexplored",
                    meter.used(),
                    pool.len()
                )
            });
            return Ok(QueryVerdict::unknown(
                SearchStats::new(
                    interrupt.limit(),
                    meter.interrupt_detail(interrupt, "candidate"),
                )
                .with_candidates(meter.used()),
            ));
        }
    }
    match outcome {
        MaxOutcome::Found => {
            let witness = result.unwrap_or_else(|| unreachable!("Found sets the result"));
            // Certify the witness with the RCDP decider; E2 guarantees
            // nonemptiness (Proposition 4.2), the certificate is a bonus.
            let _span = probe.span("rcqp.certify_witness");
            let (verdict, _) = crate::rcdp::decide_exact(
                setting,
                query,
                &witness,
                budget,
                guard,
                Probe::disabled(),
                check,
                false,
                None,
            )?;
            let certified = matches!(verdict, Verdict::Complete);
            Ok(QueryVerdict::Nonempty {
                witness: certified.then_some(witness),
            })
        }
        MaxOutcome::Exhausted if pool_is_exact => Ok(QueryVerdict::Empty),
        MaxOutcome::Exhausted => Ok(QueryVerdict::unknown(
            SearchStats::new(
                BudgetLimit::FreshValues,
                format!(
                    "no E2 witness over a fresh pool of {n_fresh} value(s); emptiness would \
                     need {needed_fresh} (raise SearchBudget::fresh_values for an exact verdict)"
                ),
            )
            .with_candidates(meter.used()),
        )),
        MaxOutcome::Budget => {
            probe.note("explain.frontier", || {
                format!(
                    "E2 subset search stopped after {} candidate(s) over a pool of {} \
                     tuple(s); remaining subsets unexplored",
                    meter.used(),
                    pool.len()
                )
            });
            Ok(QueryVerdict::unknown(
                SearchStats::new(
                    BudgetLimit::MaxCandidates,
                    format!(
                        "candidate budget of {} exhausted over a pool of {} tuples",
                        meter.limit(),
                        pool.len()
                    ),
                )
                .with_candidates(meter.used()),
            ))
        }
    }
}

#[derive(PartialEq, Eq, Debug)]
enum MaxOutcome {
    Found,
    Exhausted,
    Budget,
}

/// Where the enumeration left one pool entry on the current branch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EntryState {
    /// In the subset (its tuple was admitted, or already present).
    Chosen,
    /// Out of the subset because `admits` refused it at its node.
    Refused,
    /// Out of the subset although it was admissible at its node.
    Excluded,
}

/// Shared, read-mostly state of one maximal-subset enumeration.
struct SearchCtx<'a> {
    setting: &'a Setting,
    pool: &'a [PoolEntry],
    /// Entries whose relation occurs in no multi-atom constraint tableau:
    /// every maximal subset contains them.
    inert: &'a [bool],
    /// The decision's candidate check. Sound here because every `current`
    /// in the search is partially closed by construction (the seed is
    /// checked up front, and only admitted tuples are ever inserted).
    check: &'a UpperCheck,
    scratch: RefCell<Database>,
    cc_skipped: &'a Cell<u64>,
}

impl SearchCtx<'_> {
    /// Is `current ∪ {entry}` still partially closed? Asked once per include
    /// branch and once per maximality probe.
    fn admits(&self, current: &Database, entry: &PoolEntry) -> bool {
        let mut delta = self.scratch.borrow_mut();
        delta.clear_tuples();
        delta.insert(entry.rel, entry.tuple.clone());
        self.check
            .first_violation(self.setting, current, &delta, self.cc_skipped)
            .is_none()
    }

    /// Enumerate the maximal `V`-consistent subsets of the pool, invoking
    /// `check` on each with the per-entry states of the subset; a `true`
    /// check stores the subset in `result` and stops.
    ///
    /// `current` is mutated by backtracking (insert on include, remove on the
    /// way out) — no per-branch clone of the candidate database. At a leaf,
    /// maximality re-tests only the [`EntryState::Excluded`] entries: `L_C`
    /// is UCQ-expressible here, so every constraint body is monotone and
    /// `current` only grows from a node to the leaves below it — a tuple
    /// `admits` refused at its node (an upper-bound violation; lower bounds
    /// hold on the seed and persist) is refused at every leaf below.
    fn maximal_subsets(
        &self,
        idx: usize,
        states: &mut [EntryState],
        current: &mut Database,
        meter: &mut Meter,
        check: &mut impl FnMut(&Database, &[EntryState]) -> Result<bool, RcError>,
        result: &mut Option<Database>,
    ) -> Result<MaxOutcome, RcError> {
        if !meter.tick() {
            return Ok(MaxOutcome::Budget);
        }
        if idx == self.pool.len() {
            // Maximality: no excluded entry can be consistently added. (Pool
            // tuples are distinct and an excluded one was absent at its
            // node, so it is absent here too.)
            for (entry, &state) in self.pool.iter().zip(states.iter()) {
                if state == EntryState::Excluded && self.admits(current, entry) {
                    return Ok(MaxOutcome::Exhausted); // not maximal; skip
                }
            }
            if check(current, states)? {
                *result = Some(current.clone());
                return Ok(MaxOutcome::Found);
            }
            return Ok(MaxOutcome::Exhausted);
        }
        let entry = &self.pool[idx];
        // Include branch (only if consistent).
        let already = current.instance(entry.rel).contains(&entry.tuple);
        if already || self.admits(current, entry) {
            if !already {
                current.insert(entry.rel, entry.tuple.clone());
            }
            states[idx] = EntryState::Chosen;
            let out = self.maximal_subsets(idx + 1, states, current, meter, check, result)?;
            if !already {
                current.instance_mut(entry.rel).remove(&entry.tuple);
            }
            // Inert tuples belong to every maximal subset, and an already
            // present tuple gains nothing from excluding it: skip the
            // exclude branch.
            if out != MaxOutcome::Exhausted || already || self.inert[idx] {
                return Ok(out);
            }
            states[idx] = EntryState::Excluded;
        } else {
            states[idx] = EntryState::Refused;
        }
        // Exclude branch.
        self.maximal_subsets(idx + 1, states, current, meter, check, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_constraints::{CcBody, ConstraintSet, ContainmentConstraint, Projection};
    use ric_data::{RelationSchema, Schema};
    use ric_query::parse_cq;

    fn supt_schema() -> Schema {
        Schema::from_relations(vec![RelationSchema::infinite(
            "Supt",
            &["eid", "dept", "cid"],
        )])
        .unwrap()
    }

    /// A query over a completely open-world database can never be complete.
    #[test]
    fn open_world_query_is_not_relatively_complete() {
        let schema = supt_schema();
        let setting = Setting::open_world(schema.clone());
        let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', D, C).")
            .unwrap()
            .into();
        assert_eq!(
            rcqp(&setting, &q, &SearchBudget::default()).unwrap(),
            QueryVerdict::Empty
        );
    }

    /// With the cid column IND-bounded by master data, the query becomes
    /// relatively complete and a witness is constructed.
    #[test]
    fn ind_bounded_query_is_relatively_complete() {
        let schema = supt_schema();
        let supt = schema.rel_id("Supt").unwrap();
        let mschema =
            Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
        let dcust = mschema.rel_id("DCust").unwrap();
        let mut dm = Database::empty(&mschema);
        for c in ["c1", "c2"] {
            dm.insert(dcust, Tuple::new([Value::str(c)]));
        }
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(supt, vec![2])),
            dcust,
            vec![0],
        )]);
        let setting = Setting::new(schema.clone(), mschema, dm, v);
        let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', D, C).")
            .unwrap()
            .into();
        match rcqp(&setting, &q, &SearchBudget::default()).unwrap() {
            QueryVerdict::Nonempty { witness: Some(w) } => {
                assert_eq!(
                    crate::rcdp(&setting, &q, &w, &SearchBudget::default()).unwrap(),
                    Verdict::Complete
                );
            }
            other => panic!("expected nonempty with witness, got {other:?}"),
        }
    }

    /// Example 4.1: Q4 selects Supt tuples with eid = e0 ∧ dept = d0; under
    /// the FD eid → dept a single blocking tuple (e0, d′, c) with d′ ≠ d0
    /// makes a complete database — the query is relatively complete even
    /// though its head is unbounded, because a D⁻ can block all additions.
    #[test]
    fn example_4_1_blocking_witness_found() {
        let schema =
            Schema::from_relations(vec![RelationSchema::infinite("Supt", &["eid", "dept"])])
                .unwrap();
        let supt = schema.rel_id("Supt").unwrap();
        let fd = ric_constraints::Fd::new(supt, vec![0], vec![1]); // eid → dept
        let v = ConstraintSet::new(ric_constraints::compile::fd_to_ccs(&fd, &schema));
        let setting = Setting::new(
            schema.clone(),
            Schema::new(),
            Database::with_relations(0),
            v,
        );
        // Q4 (projected): employees paired with dept d0, for eid = e0.
        let q: Query = parse_cq(&schema, "Q(E) :- Supt(E, 'd0'), E = 'e0'.")
            .unwrap()
            .into();
        let budget = SearchBudget {
            fresh_values: 3,
            ..SearchBudget::default()
        };
        match rcqp(&setting, &q, &budget).unwrap() {
            QueryVerdict::Nonempty { witness } => {
                if let Some(w) = witness {
                    assert_eq!(
                        crate::rcdp(&setting, &q, &w, &budget).unwrap(),
                        Verdict::Complete,
                        "witness {w} must be certified complete"
                    );
                }
            }
            other => panic!("expected nonempty, got {other:?}"),
        }
    }

    /// Example 4.1 continued: with only eid → dept, the query asking for the
    /// *employees* with dept d0 is not relatively complete — eid stays free,
    /// fresh employees can always be injected.
    #[test]
    fn example_4_1_unbounded_head_is_empty() {
        let schema =
            Schema::from_relations(vec![RelationSchema::infinite("Supt", &["eid", "dept"])])
                .unwrap();
        let supt = schema.rel_id("Supt").unwrap();
        let fd = ric_constraints::Fd::new(supt, vec![0], vec![1]); // eid → dept
        let v = ConstraintSet::new(ric_constraints::compile::fd_to_ccs(&fd, &schema));
        let setting = Setting::new(
            schema.clone(),
            Schema::new(),
            Database::with_relations(0),
            v,
        );
        let q: Query = parse_cq(&schema, "Q(E) :- Supt(E, 'd0').").unwrap().into();
        // The FD tableau has 3 variables; give the pool that many fresh
        // values so the exhausted search is paper-exact (Empty, not Unknown).
        let budget = SearchBudget {
            fresh_values: 3,
            ..SearchBudget::default()
        };
        assert_eq!(rcqp(&setting, &q, &budget).unwrap(), QueryVerdict::Empty);
    }

    /// Example 4.1 final part: with the full FD eid → dept, cid the query Q2
    /// (all customers of e0) becomes relatively complete — a single
    /// (e0, d0, c0) tuple pins the answer; the greedy probe finds it.
    #[test]
    fn example_4_1_full_fd_is_nonempty() {
        let schema = supt_schema();
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
        match rcqp(&setting, &q, &SearchBudget::default()).unwrap() {
            QueryVerdict::Nonempty { witness: Some(w) } => {
                assert_eq!(
                    crate::rcdp(&setting, &q, &w, &SearchBudget::default()).unwrap(),
                    Verdict::Complete
                );
            }
            other => panic!("expected nonempty, got {other:?}"),
        }
    }

    /// A finite-domain head is trivially relatively complete (E1).
    #[test]
    fn finite_head_is_relatively_complete() {
        let schema = Schema::from_relations(vec![RelationSchema::new(
            "B",
            vec![
                ric_data::Attribute::boolean("x"),
                ric_data::Attribute::new("y"),
            ],
        )])
        .unwrap();
        let setting = Setting::open_world(schema.clone());
        let q: Query = parse_cq(&schema, "Q(X) :- B(X, Y).").unwrap().into();
        match rcqp(&setting, &q, &SearchBudget::default()).unwrap() {
            QueryVerdict::Nonempty { witness } => {
                if let Some(w) = witness {
                    assert_eq!(
                        crate::rcdp(&setting, &q, &w, &SearchBudget::default()).unwrap(),
                        Verdict::Complete
                    );
                }
            }
            other => panic!("expected nonempty, got {other:?}"),
        }
    }

    /// Unsatisfiable queries are relatively complete with the empty witness.
    #[test]
    fn unsatisfiable_query_nonempty() {
        let schema = supt_schema();
        let setting = Setting::open_world(schema.clone());
        let q: Query = parse_cq(&schema, "Q(C) :- Supt(E, D, C), C != C.")
            .unwrap()
            .into();
        match rcqp(&setting, &q, &SearchBudget::default()).unwrap() {
            QueryVerdict::Nonempty { witness: Some(w) } => assert!(w.is_all_empty()),
            other => panic!("expected nonempty with empty witness, got {other:?}"),
        }
    }

    /// A random small pool against a random mix of an FD, a denial and a
    /// CQ-bodied CC into master data: under both consistency modes the
    /// enumeration hands `check` exactly the maximal `V`-consistent subsets
    /// a brute force over all 2ⁿ subsets finds — each once. This attacks the
    /// leaf's refused-entry skip: dropping an entry that was excluded while
    /// admissible would let non-maximal subsets through.
    #[test]
    fn maximal_subsets_match_brute_force() {
        let schema =
            Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let r = schema.rel_id("R").unwrap();
        let mschema = Schema::from_relations(vec![RelationSchema::infinite("M", &["a"])]).unwrap();
        let m = mschema.rel_id("M").unwrap();
        let mut dm = Database::empty(&mschema);
        for v in [0, 2] {
            dm.insert(m, Tuple::new([Value::int(v)]));
        }
        let fd = ric_constraints::Fd::new(r, vec![0], vec![1]);
        let denial = ric_constraints::classical::at_most_k_per_key(r, 1, 0, 2, 2);
        let chain = parse_cq(&schema, "Q(X) :- R(X, Y), R(Y, Z).").unwrap();
        let mut rng = ric_data::SplitMix64::seed_from_u64(0x5B5E7);
        let mut visited_total = 0usize;
        for round in 0..48 {
            let mut ccs = Vec::new();
            if round % 3 != 1 || rng.random_bool(0.5) {
                ccs.extend(ric_constraints::compile::fd_to_ccs(&fd, &schema));
            }
            if rng.random_bool(0.5) {
                ccs.push(ric_constraints::compile::denial_to_cc(&denial));
            }
            if ccs.is_empty() || rng.random_bool(0.5) {
                ccs.push(ContainmentConstraint::into_master(
                    CcBody::Cq(chain.clone()),
                    m,
                    vec![0],
                ));
            }
            let setting = Setting::new(
                schema.clone(),
                mschema.clone(),
                dm.clone(),
                ConstraintSet::new(ccs),
            );
            let mut tuples = BTreeSet::new();
            for _ in 0..rng.random_range(1..13) {
                let a = rng.random_range(0..4) as i64;
                let b = rng.random_range(0..4) as i64;
                tuples.insert(Tuple::new([Value::int(a), Value::int(b)]));
            }
            let pool: Vec<PoolEntry> = tuples
                .into_iter()
                .map(|tuple| PoolEntry {
                    rel: r,
                    tuple,
                    bound: BTreeSet::new(),
                })
                .collect();
            let n = pool.len();
            let db_of = |mask: u32| {
                let mut db = Database::empty(&schema);
                for (i, e) in pool.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        db.insert(e.rel, e.tuple.clone());
                    }
                }
                db
            };
            let closed = |mask: u32| setting.partially_closed(&db_of(mask)).unwrap();
            let brute: Vec<u32> = (0..1u32 << n)
                .filter(|&mask| {
                    closed(mask) && (0..n).all(|i| mask & (1 << i) != 0 || !closed(mask | (1 << i)))
                })
                .collect();
            let prepared = ric_constraints::PreparedUpper::new(
                &setting.v,
                &setting.schema,
                &setting.dm,
                &Database::empty(&schema),
            )
            .unwrap();
            for check in [
                UpperCheck::Union,
                UpperCheck::Delta(std::sync::Arc::new(prepared)),
            ] {
                let delta_mode = check.prepared().is_some();
                let cc_skipped = Cell::new(0);
                let ctx = SearchCtx {
                    setting: &setting,
                    pool: &pool,
                    inert: &vec![false; n],
                    check: &check,
                    scratch: RefCell::new(Database::empty(&schema)),
                    cc_skipped: &cc_skipped,
                };
                let mut visited: Vec<u32> = Vec::new();
                let outcome = ctx
                    .maximal_subsets(
                        0,
                        &mut vec![EntryState::Refused; n],
                        &mut Database::empty(&schema),
                        &mut Meter::new(1 << 20),
                        &mut |db: &Database, states: &[EntryState]| {
                            let mask = states
                                .iter()
                                .enumerate()
                                .filter(|(_, &st)| st == EntryState::Chosen)
                                .fold(0u32, |acc, (i, _)| acc | (1 << i));
                            assert_eq!(*db, db_of(mask), "states describe the database");
                            visited.push(mask);
                            Ok(false)
                        },
                        &mut None,
                    )
                    .unwrap();
                assert_eq!(outcome, MaxOutcome::Exhausted);
                visited_total += visited.len();
                visited.sort_unstable();
                assert_eq!(
                    visited, brute,
                    "round {round} (delta mode: {delta_mode}): pool {pool:?}"
                );
            }
        }
        assert!(
            visited_total > 96,
            "the pools exercise more than one subset"
        );
    }

    /// The at-most-k denial constraint makes the query relatively complete:
    /// a database holding k distinct answers blocks all further additions.
    #[test]
    fn at_most_k_denial_is_nonempty() {
        let schema =
            Schema::from_relations(vec![RelationSchema::infinite("Supt", &["eid", "cid"])])
                .unwrap();
        let supt = schema.rel_id("Supt").unwrap();
        let denial = ric_constraints::classical::at_most_k_per_key(supt, 0, 1, 2, 2);
        let v = ConstraintSet::new(vec![ric_constraints::compile::denial_to_cc(&denial)]);
        let setting = Setting::new(
            schema.clone(),
            Schema::new(),
            Database::with_relations(0),
            v,
        );
        let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', C).").unwrap().into();
        let budget = SearchBudget {
            fresh_values: 3,
            ..SearchBudget::default()
        };
        match rcqp(&setting, &q, &budget).unwrap() {
            QueryVerdict::Nonempty { witness } => {
                if let Some(w) = witness {
                    assert_eq!(
                        crate::rcdp(&setting, &q, &w, &budget).unwrap(),
                        Verdict::Complete
                    );
                }
            }
            other => panic!("expected nonempty, got {other:?}"),
        }
    }
}
