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
//!   (`crate::check::UpperCheck`). The search runs on one id catalog: pool
//!   tuples are id rows encoded once, the candidate `D_𝒱` is the id check's
//!   overlay, and each query disjunct's E2 valuation space is built once
//!   (`crate::characterize::E2Disjunct`). An entry excluded while
//!   admissible is settled once every entry it can meet in a constraint
//!   match is decided: if it is still admissible there, no leaf below is
//!   maximal (see `settle_indices`). Bodies are monotone and the candidate
//!   only grows below a node, so a refused tuple stays refused. No input
//!   mentions a fresh value,
//!   so permuting the fresh values maps maximal consistent subsets to
//!   maximal consistent subsets with the same E2 outcome: the search visits
//!   only the lex-greatest member of each orbit (a lex-leader test on every
//!   node's decided prefix), and the first passing subset, hence the
//!   witness, is the one the full enumeration would return. The fresh
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
use crate::check::{IdCheck, IdRows, IdScratch, UpperCheck};
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
use std::cell::Cell;
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
            setting, query, &seed, &tableaux, budget, guard, probe, check, reused, true,
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
                    pool.entry((atom.rel, tuple)).or_default().extend(
                        atom.vars()
                            .filter(|v| head_vars.contains(v))
                            .map(|v| binding[&v.0].clone()),
                    );
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
            let mut each = |val: &Value| {
                binding.insert(v.0, val.clone());
                instantiate_atom(atom, doms, values, col + 1, binding, out);
            };
            match &doms[v.idx()] {
                Some(dom) => dom.iter().for_each(&mut each),
                None => values.iter().for_each(&mut each),
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
/// `collapse` visits one maximal subset per orbit of fresh-value
/// permutations; the decision always collapses, and the tests turn it off
/// to compare against the full enumeration.
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
    collapse: bool,
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
    // An upper bound without tableaux (not UCQ-expressible) leaves the
    // entries' interactions unknown: every pair is then taken to meet.
    let mut bodies_known = true;
    for cc in &setting.v.ccs {
        match cc.body.as_ucq(&setting.schema) {
            Some(ucq) => cc_tableaux.extend(ucq.tableaux()?),
            None => bodies_known = false,
        }
    }
    let needed_fresh = cc_tableaux
        .iter()
        .map(|t| t.n_vars as usize)
        .max()
        .unwrap_or(0);
    let n_fresh = budget.fresh_values.max(1);
    let pool_is_exact = n_fresh >= needed_fresh;
    let Some(q_ucq) = query.as_ucq() else {
        return Err(RcError::Unsupported(
            "dispatch guarantees UCQ-expressible".into(),
        ));
    };
    // The search's one catalog: the pool draws on its constants and first
    // `n_fresh` fresh values, the E2 checks on the fresh values after them.
    let adom = Adom::build(
        seed,
        setting,
        query,
        n_fresh + crate::characterize::e2_fresh(&q_ucq.disjuncts),
    )?;
    let mut values = adom.constants.clone();
    values.extend(adom.fresh[..n_fresh].iter().cloned());
    probe.gauge("rcqp.adom_size", values.len() as u64);
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
    let rows = IdRows::encode(&adom, pool.iter().map(|e| &e.tuple))?;

    // The search's check on ids, over the empty base: the seed's rows and
    // the chosen entries' rows go on its overlay.
    let empty = Database::with_relations(setting.schema.len());
    let mut cur = Current {
        ids: IdCheck::new(check, setting, &empty, &adom)?,
        scratch: IdScratch::default(),
    };
    let cc_skipped = Cell::new(0u64);
    let probes_before = probe_count();
    // Pre-filter: a tuple that violates V on its own can never belong to a
    // consistent subset. Upper bounds only: a lone tuple cannot be expected
    // to satisfy lower bounds (the seed provides those). Each tuple is one
    // id row against the still empty base, which satisfies every upper
    // bound: the seed does, and bodies are monotone.
    let kept: Vec<bool> = (0..pool.len())
        .map(|i| cur.admits(pool[i].rel, rows.row(i), &cc_skipped))
        .collect();
    let pool: Vec<PoolEntry> = pool
        .into_iter()
        .zip(&kept)
        .filter_map(|(e, &keep)| keep.then_some(e))
        .collect();
    let rows = IdRows::encode(&adom, pool.iter().map(|e| &e.tuple))?;
    for (rel, inst) in seed.iter() {
        let seed_rows = IdRows::encode(&adom, inst.iter())?;
        for i in 0..seed_rows.len() {
            cur.ids.push(rel, seed_rows.row(i));
        }
    }
    let in_seed: Vec<bool> = pool
        .iter()
        .map(|e| seed.instance(e.rel).contains(&e.tuple))
        .collect();
    let spaces = multi_atom_spaces(&cc_tableaux, &setting.schema, &adom)?;
    let spaces = bodies_known.then_some(&spaces[..]);
    let mut binding = Vec::new();
    let settle = settle_indices(pool.len(), |e, f| {
        meet(spaces, (&pool, &rows), (e, f), &mut binding)
    });

    // Each entry's bound values as ascending catalog ids; a leaf unions its
    // chosen entries' ids into one reused mask, and the ids its candidate
    // holds into another.
    let bound_ids: Vec<Vec<u32>> = pool
        .iter()
        .map(|e| e.bound.iter().filter_map(|v| adom.id(v)).collect())
        .collect();
    let mut bound_mask = vec![false; adom.n_ids()];
    let mut present = vec![false; adom.n_ids()];
    probe.gauge("rcqp.pool_size", pool.len() as u64);
    let syms = if collapse {
        pool_symmetries(&pool, &rows, &bound_ids, &adom.fresh_ids()[..n_fresh])
    } else {
        Vec::new()
    };
    probe.gauge("rcqp.symmetries", syms.len() as u64);

    // Enumerate maximal V-consistent subsets of the pool; E2 is monotone in
    // D_𝒱, so checking maximal subsets decides ∃𝒱.E2.
    let mut meter = Meter::guarded(MeterKind::Candidates, budget.max_candidates, guard);
    let e2_checks = Cell::new(0u64);
    // The disjunct half of every E2 check, built once for the whole search.
    let e2_disjuncts: Vec<E2Disjunct> = q_ucq
        .disjuncts
        .iter()
        .map(|cq| E2Disjunct::new(setting, cq, &adom, &adom.fresh_ids()[n_fresh..]))
        .collect::<Result<_, _>>()?;
    let mut result: Option<Database> = None;
    crate::rcdp::emit_plan_telemetry(probe, setting, check, reused, seed);
    let ctx = SearchCtx::new(&pool, &rows, &in_seed, &settle, &syms, &cc_skipped);
    let span = probe.span("rcqp.e2_search");
    let outcome = ctx.maximal_subsets(
        0,
        // Placeholders: each entry's state is set at its node, before any
        // leaf reads it.
        &mut vec![EntryState::Refused; pool.len()],
        &mut cur,
        &mut meter,
        &mut |cur: &mut Current, states: &[EntryState]| -> Result<bool, RcError> {
            let _span = probe.span("rcqp.e2_check");
            // E2 over this maximal D_𝒱: bound values are the pinned
            // constraint-head values of the chosen instantiations.
            chosen_bound(&mut bound_mask, &bound_ids, states);
            let Current { ids, scratch } = cur;
            present.fill(false);
            ids.pushed_ids()
                .iter()
                .for_each(|&id| present[id as usize] = true);
            for d in &e2_disjuncts {
                e2_checks.set(e2_checks.get() + 1);
                let verdict = d.check(
                    ids,
                    scratch,
                    |id| present[id as usize],
                    |id| bound_mask[id as usize],
                    budget,
                    guard,
                    &cc_skipped,
                )?;
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
    probe.count("rcqp.symmetry.pruned", ctx.pruned.get());
    probe.count("rcqp.maximal.cut", ctx.cut.get());
    probe.count("cc.skipped_by_delta", cc_skipped.get());
    // Thread-local counter: exact even when other threads probe
    // concurrently. The id check counts its own probes.
    probe.count(
        "index.probe",
        probe_count().saturating_sub(probes_before) + cur.scratch.probes,
    );
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

/// Set `mask` to the union of the chosen entries' bound ids, clearing what
/// the previous leaf left in it.
fn chosen_bound(mask: &mut [bool], bound_ids: &[Vec<u32>], states: &[EntryState]) {
    mask.fill(false);
    for (ids, &st) in bound_ids.iter().zip(states) {
        if st == EntryState::Chosen {
            ids.iter().for_each(|&id| mask[id as usize] = true);
        }
    }
}

/// Up to this many fresh values the search tries the whole permutation
/// group as symmetries; beyond it, generators only.
const FULL_GROUP_FRESH: usize = 4;

/// The permutations of `k` fresh values tried as symmetries of the pool,
/// each as the image index of every fresh value: all `k! − 1` non-identity
/// ones up to [`FULL_GROUP_FRESH`] values, the `k − 1` adjacent
/// transpositions beyond. Any subset of the group keeps each orbit's
/// lex-greatest member.
fn fresh_permutations(k: usize) -> Vec<Vec<usize>> {
    let identity: Vec<usize> = (0..k).collect();
    if k > FULL_GROUP_FRESH {
        return (1..k)
            .map(|i| {
                let mut p = identity.clone();
                p.swap(i - 1, i);
                p
            })
            .collect();
    }
    // Every map of `0..k` into itself, read as `k` base-`k` digits; keep
    // the bijections.
    (0..k.pow(k as u32))
        .map(|code| {
            (0..k)
                .map(|d| code / k.pow(d as u32) % k)
                .collect::<Vec<_>>()
        })
        .filter(|p| *p != identity && (0..k).all(|i| p.contains(&i)))
        .collect()
}

/// The symmetries of the pool under permutations of the `fresh` ids, each
/// as its inverse on pool indices: `inv[j]` is the entry whose image is
/// entry `j`. No input mentions a fresh value, so a permutation `π` of them
/// maps `V`-consistent sets to `V`-consistent sets and leaves every E2
/// outcome unchanged once `bound` is mapped along. `π` is kept only if it
/// maps every entry to an entry with the image of its bound set; dropping
/// one is always sound.
fn pool_symmetries(
    pool: &[PoolEntry],
    rows: &IdRows,
    bound_ids: &[Vec<u32>],
    fresh: &[u32],
) -> Vec<Vec<u32>> {
    let at: BTreeMap<(RelId, &[u32]), usize> = pool
        .iter()
        .enumerate()
        .map(|(i, e)| ((e.rel, rows.row(i)), i))
        .collect();
    let (mut image, mut bound) = (Vec::new(), Vec::new());
    fresh_permutations(fresh.len())
        .into_iter()
        .filter_map(|perm| {
            let map = |id: u32| match fresh.iter().position(|&f| f == id) {
                Some(i) => fresh[perm[i]],
                None => id,
            };
            let mut inv = vec![0u32; pool.len()];
            for (i, e) in pool.iter().enumerate() {
                image.clear();
                image.extend(rows.row(i).iter().map(|&id| map(id)));
                let &j = at.get(&(e.rel, &image[..]))?;
                bound.clear();
                bound.extend(bound_ids[i].iter().map(|&id| map(id)));
                bound.sort_unstable();
                if bound != bound_ids[j] {
                    return None;
                }
                inv[j] = i as u32;
            }
            Some(inv)
        })
        .collect()
}

/// Do pool entries `e` and `f` *meet*: can one match of a multi-atom
/// upper-bound tableau map an atom to each? `tableaux` holds those
/// tableaux as valuation spaces (`None`: some upper bound has none, and
/// every pair meets). Entries that never meet never occur together in one
/// violation; a single-atom tableau matches one tuple and relates none.
fn meet(
    tableaux: Option<&[ValuationSpace]>,
    (pool, rows): (&[PoolEntry], &IdRows),
    (e, f): (usize, usize),
    binding: &mut Vec<Option<u32>>,
) -> bool {
    let (a, b) = ((pool[e].rel, rows.row(e)), (pool[f].rel, rows.row(f)));
    tableaux.is_none_or(|ts| ts.iter().any(|t| t.two_atoms_match(a, b, binding)))
}

/// The multi-atom tableaux among `tableaux` as valuation spaces, for
/// [`meet`].
fn multi_atom_spaces<'a>(
    tableaux: &[Tableau],
    schema: &ric_data::Schema,
    adom: &'a Adom,
) -> Result<Vec<ValuationSpace<'a>>, RcError> {
    tableaux
        .iter()
        .filter(|t| t.atoms.len() >= 2)
        .map(|t| ValuationSpace::new(t, schema, adom))
        .collect()
}

/// Each of `n` entries' *settle index*: one past the last later entry it
/// meets (`meet`), or one past itself when it meets none.
///
/// An entry `e` excluded while admissible is settled there: the search
/// tests it once every entry up to its settle index is decided, and if it
/// is still admissible no leaf below is maximal. A leaf `L` below is
/// consistent, so a violation of `L ∪ {e}` uses `e`; the base and the
/// entries decided by then admit `e`, so it also uses an entry chosen at
/// or after the settle index, and that entry would meet `e`. An entry with
/// nothing to meet after it is settled at its own exclude branch, which is
/// skipped.
fn settle_indices(n: usize, mut meet: impl FnMut(usize, usize) -> bool) -> Vec<usize> {
    (0..n)
        .map(|e| {
            (e + 1..n)
                .rev()
                .find(|&f| meet(e, f))
                .map_or(e + 1, |f| f + 1)
        })
        .collect()
}

/// The candidate `D_𝒱` of one search in ids: the seed's rows and the
/// chosen entries' rows on the id check's overlay, and the arena every
/// check writes into.
struct Current<'a> {
    ids: IdCheck<'a>,
    scratch: IdScratch,
}

impl Current<'_> {
    /// Is `D_𝒱 ∪ {row}` still partially closed? Sound because every
    /// `D_𝒱` of the search is: the seed is checked up front, and only
    /// admitted rows are pushed.
    fn admits(&mut self, rel: RelId, row: &[u32], cc_skipped: &Cell<u64>) -> bool {
        self.scratch.delta.clear();
        self.scratch
            .delta
            .push_row(rel, row.iter().map(|&id| Some(id)));
        self.ids
            .first_violation(&mut self.scratch, cc_skipped)
            .is_none()
    }
}

/// Shared, read-only state of one maximal-subset enumeration.
struct SearchCtx<'a> {
    pool: &'a [PoolEntry],
    /// Each entry's tuple as catalog ids.
    rows: &'a IdRows,
    /// Entries the seed holds: chosen at their node, never excluded.
    in_seed: &'a [bool],
    /// Each entry's settle index (see [`settle_indices`]).
    settle: &'a [usize],
    /// Per node, the entries settled there that can be excluded.
    settled_at: Vec<Vec<u32>>,
    /// Symmetries of the pool (see [`pool_symmetries`]); empty enumerates
    /// every maximal subset.
    syms: &'a [Vec<u32>],
    cc_skipped: &'a Cell<u64>,
    /// Nodes cut by the lex-leader test.
    pruned: Cell<u64>,
    /// Subtrees cut because no leaf below is maximal: by a settle test,
    /// or an exclude branch skipped because its entry meets no later one.
    cut: Cell<u64>,
}

impl<'a> SearchCtx<'a> {
    fn new(
        pool: &'a [PoolEntry],
        rows: &'a IdRows,
        in_seed: &'a [bool],
        settle: &'a [usize],
        syms: &'a [Vec<u32>],
        cc_skipped: &'a Cell<u64>,
    ) -> Self {
        let mut settled_at = vec![Vec::new(); pool.len() + 1];
        for (e, &at) in settle.iter().enumerate() {
            if at > e + 1 && !in_seed[e] {
                settled_at[at].push(e as u32);
            }
        }
        SearchCtx {
            pool,
            rows,
            in_seed,
            settle,
            settled_at,
            syms,
            cc_skipped,
            pruned: Cell::new(0),
            cut: Cell::new(0),
        }
    }

    /// The lex-leader test, reading a subset as its entry states in pool
    /// order with chosen above not chosen: does some symmetry map the
    /// decided prefix `0..idx` to a greater one? Position `j` of the image
    /// holds entry `inv[j]`'s state, so it is compared only while `j` and
    /// `inv[j]` are both decided; the first difference settles it for every
    /// leaf below.
    fn dominated(&self, states: &[EntryState], idx: usize) -> bool {
        let chosen = |i: usize| states[i] == EntryState::Chosen;
        self.syms.iter().any(|inv| {
            for (j, &i) in inv[..idx].iter().enumerate() {
                let i = i as usize;
                if i >= idx {
                    return false;
                }
                if chosen(i) != chosen(j) {
                    return chosen(i);
                }
            }
            false
        })
    }

    /// The settle test at node `idx`: is an entry settled here excluded
    /// and still admissible? Then no leaf below is maximal.
    fn unsettled(&self, states: &[EntryState], idx: usize, cur: &mut Current<'_>) -> bool {
        self.settled_at[idx].iter().any(|&e| {
            let e = e as usize;
            states[e] == EntryState::Excluded
                && cur.admits(self.pool[e].rel, self.rows.row(e), self.cc_skipped)
        })
    }

    /// Enumerate the maximal `V`-consistent subsets of the pool, invoking
    /// `check` on each with the per-entry states of the subset; a `true`
    /// check stores the subset in `result` and stops.
    ///
    /// `cur` is mutated by backtracking (push on include, pop on the way
    /// out) — no per-branch copy of the candidate. Maximality is settled
    /// per excluded entry at its settle index ([`settle_indices`]): an
    /// entry still admissible there cuts the node, so every leaf reached
    /// is maximal. A refused entry needs no test: `L_C` is
    /// UCQ-expressible here, so every constraint body is monotone and the
    /// candidate only grows from a node to the leaves below it — a tuple
    /// `admits` refused at its node (an upper-bound violation; lower bounds
    /// hold on the seed and persist) is refused at every leaf below. The
    /// cuts remove only subtrees without a maximal leaf, so the maximal
    /// leaves and their order are those of the full enumeration.
    ///
    /// With symmetries, only the lex-greatest member of each orbit is
    /// visited: a node whose decided prefix some symmetry maps higher is
    /// pruned ([`Self::dominated`]). The include-first order visits leaves
    /// in decreasing lex order, so the first subset passing `check` is the
    /// lex-greatest passing one; its orbit passes too, so it is its orbit's
    /// leader and the search returns the same subset as without symmetries.
    fn maximal_subsets<'c>(
        &self,
        idx: usize,
        states: &mut [EntryState],
        cur: &mut Current<'c>,
        meter: &mut Meter,
        check: &mut impl FnMut(&mut Current<'c>, &[EntryState]) -> Result<bool, RcError>,
        result: &mut Option<Database>,
    ) -> Result<MaxOutcome, RcError> {
        if self.dominated(states, idx) {
            self.pruned.set(self.pruned.get() + 1);
            return Ok(MaxOutcome::Exhausted);
        }
        if self.unsettled(states, idx, cur) {
            self.cut.set(self.cut.get() + 1);
            return Ok(MaxOutcome::Exhausted);
        }
        if !meter.tick() {
            return Ok(MaxOutcome::Budget);
        }
        if idx == self.pool.len() {
            if check(cur, states)? {
                *result = Some(cur.ids.current());
                return Ok(MaxOutcome::Found);
            }
            return Ok(MaxOutcome::Exhausted);
        }
        let (rel, row) = (self.pool[idx].rel, self.rows.row(idx));
        // Include branch (only if consistent).
        let already = self.in_seed[idx];
        if already || cur.admits(rel, row, self.cc_skipped) {
            if !already {
                cur.ids.push(rel, row);
            }
            states[idx] = EntryState::Chosen;
            let out = self.maximal_subsets(idx + 1, states, cur, meter, check, result)?;
            if !already {
                cur.ids.pop();
            }
            // An entry the seed holds gains nothing from its exclude branch,
            // and one that meets no later entry stays admissible at every
            // leaf below it (it is settled there): skip the branch.
            if out != MaxOutcome::Exhausted || already {
                return Ok(out);
            }
            if self.settle[idx] == idx + 1 {
                self.cut.set(self.cut.get() + 1);
                return Ok(out);
            }
            states[idx] = EntryState::Excluded;
        } else {
            states[idx] = EntryState::Refused;
        }
        // Exclude branch.
        self.maximal_subsets(idx + 1, states, cur, meter, check, result)
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

    /// The catalog of a test pool (its every value a constant, and so
    /// every stand-in for a fresh value, 1 to 6) and the pool's rows in it.
    fn catalog(setting: &Setting, pool: &[PoolEntry]) -> (Adom, IdRows) {
        let mut all = mask_db(setting, pool, u32::MAX);
        let r = setting.schema.rel_id("R").unwrap();
        for v in 1..=6 {
            all.insert(r, Tuple::new([Value::int(v), Value::int(v)]));
        }
        let q: Query = parse_cq(&setting.schema, "Q(A) :- R(A, B).")
            .unwrap()
            .into();
        let adom = Adom::build(&all, setting, &q, 0).unwrap();
        let rows = IdRows::encode(&adom, pool.iter().map(|e| &e.tuple)).unwrap();
        (adom, rows)
    }

    /// The settle indices of `pool` under `setting`'s constraints, with the
    /// pair `dropped` (if any) taken not to meet.
    fn settle_of(
        setting: &Setting,
        pool: &[PoolEntry],
        dropped: Option<(usize, usize)>,
    ) -> Vec<usize> {
        let (adom, rows) = catalog(setting, pool);
        let mut tableaux = Vec::new();
        for cc in &setting.v.ccs {
            tableaux.extend(cc.body.as_ucq(&setting.schema).unwrap().tableaux().unwrap());
        }
        let spaces = multi_atom_spaces(&tableaux, &setting.schema, &adom).unwrap();
        let mut binding = Vec::new();
        settle_indices(pool.len(), |e, f| {
            Some((e, f)) != dropped && meet(Some(&spaces), (pool, &rows), (e, f), &mut binding)
        })
    }

    /// Run the enumeration over `pool` with `syms`, the settle indices
    /// `settle` and a leaf check that passes the masks `pass` accepts: the
    /// masks it visited, in visiting order, the database it found, and the
    /// nodes the settle tests cut, after checking that each leaf's states
    /// describe its database.
    fn search(
        setting: &Setting,
        pool: &[PoolEntry],
        syms: &[Vec<u32>],
        settle: &[usize],
        check: &UpperCheck,
        pass: impl Fn(u32) -> bool,
    ) -> (Vec<u32>, Option<Database>, u64) {
        let n = pool.len();
        let db_of = |mask: u32| mask_db(setting, pool, mask);
        let (adom, rows) = catalog(setting, pool);
        let empty = Database::empty(&setting.schema);
        let mut cur = Current {
            ids: IdCheck::new(check, setting, &empty, &adom).unwrap(),
            scratch: IdScratch::default(),
        };
        let in_seed = vec![false; n];
        let cc_skipped = Cell::new(0);
        let ctx = SearchCtx::new(pool, &rows, &in_seed, settle, syms, &cc_skipped);
        let mut visited: Vec<u32> = Vec::new();
        let mut found = None;
        let outcome = ctx
            .maximal_subsets(
                0,
                &mut vec![EntryState::Refused; n],
                &mut cur,
                &mut Meter::new(1 << 20),
                &mut |cur: &mut Current, states: &[EntryState]| {
                    let mask = states
                        .iter()
                        .enumerate()
                        .filter(|(_, &st)| st == EntryState::Chosen)
                        .fold(0u32, |acc, (i, _)| acc | (1 << i));
                    assert_eq!(
                        cur.ids.current(),
                        db_of(mask),
                        "states describe the database"
                    );
                    visited.push(mask);
                    Ok(pass(mask))
                },
                &mut found,
            )
            .unwrap();
        assert_eq!(outcome == MaxOutcome::Found, found.is_some());
        (visited, found, ctx.cut.get())
    }

    /// The masks an exhaustive enumeration visits, sorted, and the nodes
    /// its settle tests cut.
    fn visited_masks(
        setting: &Setting,
        pool: &[PoolEntry],
        syms: &[Vec<u32>],
        settle: &[usize],
        check: &UpperCheck,
    ) -> (Vec<u32>, u64) {
        let (mut visited, _, cut) = search(setting, pool, syms, settle, check, |_| false);
        visited.sort_unstable();
        (visited, cut)
    }

    fn mask_db(setting: &Setting, pool: &[PoolEntry], mask: u32) -> Database {
        let mut db = Database::empty(&setting.schema);
        for (i, e) in pool.iter().enumerate() {
            if mask & (1 << i) != 0 {
                db.insert(e.rel, e.tuple.clone());
            }
        }
        db
    }

    /// The image of a subset mask under a symmetry given by its inverse.
    fn image(inv: &[u32], mask: u32) -> u32 {
        inv.iter()
            .enumerate()
            .filter(|(_, &i)| mask & (1 << i) != 0)
            .fold(0, |acc, (j, _)| acc | (1 << j))
    }

    /// A subset's key in the search's lex order: entry 0 most significant,
    /// chosen above not chosen.
    fn lex_key(n: usize, mask: u32) -> u32 {
        (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .fold(0, |acc, i| acc | (1 << (n - 1 - i)))
    }

    /// A random small pool against a random mix of an FD, a denial and a
    /// CQ-bodied CC into master data: under both consistency modes the
    /// enumeration hands `check` exactly the maximal `V`-consistent subsets
    /// a brute force over all 2ⁿ subsets finds — each once. This attacks the
    /// settle tests: settling an entry that was excluded while admissible
    /// too late, or never, would let non-maximal subsets through, and
    /// settling it too early would cut maximal ones. The settle tests must
    /// cut nodes, and with one meeting pair dropped from the interaction
    /// table (the last later entry some entry meets) the comparison must
    /// fail in some round: the test sees a cut that is too early.
    ///
    /// No input mentions 1, 3, 4, 5 or 6, so two, three or five of them
    /// stand in for fresh values. A second pool per round is closed under
    /// permuting them, and on both pools the search with the computed
    /// symmetries must visit exactly the brute-force maximal subsets no
    /// symmetry maps lex-higher: for up to four fresh values the
    /// lex-greatest member of every orbit, for five (adjacent transpositions
    /// only) at least that member. This attacks the lex-leader test and the
    /// symmetry detection: a pruned leader loses an orbit, a missed prune
    /// visits one twice. Last, a leaf check that passes random whole orbits
    /// must find the same subset — the lex-greatest passing one — with and
    /// without the symmetries.
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
        let mut orbit_rng = ric_data::SplitMix64::seed_from_u64(0x0B17);
        for (k, tried) in [(0, 0), (1, 0), (2, 1), (3, 5), (4, 23), (5, 4), (6, 5)] {
            assert_eq!(fresh_permutations(k).len(), tried, "{k} fresh values");
        }
        let (mut visited_total, mut collapsed_total, mut syms_total) = (0usize, 0usize, 0usize);
        let (mut cut_total, mut mutants_caught) = (0u64, 0usize);
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
            let fresh: Vec<Value> = [1, 3, 4, 5, 6][..[2, 3, 5][round % 3]]
                .iter()
                .map(|&v| Value::int(v))
                .collect();
            let mut tuples = BTreeSet::new();
            for _ in 0..rng.random_range(1..13) {
                let a = rng.random_range(0..4) as i64;
                let b = rng.random_range(0..4) as i64;
                tuples.insert(Tuple::new([Value::int(a), Value::int(b)]));
            }
            // The closed pool: whole orbits of random tuples, up to 12.
            let mut closed_tuples = BTreeSet::new();
            for _ in 0..8 {
                let a = orbit_rng.random_range(0..fresh.len() + 2);
                let b = orbit_rng.random_range(0..fresh.len() + 2);
                let mut orbit =
                    BTreeSet::from([Tuple::new([Value::int(a as i64), Value::int(b as i64)])]);
                // Every permutation of the fresh values, composed from
                // adjacent transpositions.
                loop {
                    let images: Vec<Tuple> = orbit
                        .iter()
                        .flat_map(|t| {
                            fresh.windows(2).map(move |w| {
                                Tuple::new(t.iter().map(|v| match v {
                                    v if *v == w[0] => w[1].clone(),
                                    v if *v == w[1] => w[0].clone(),
                                    v => v.clone(),
                                }))
                            })
                        })
                        .collect();
                    let before = orbit.len();
                    orbit.extend(images);
                    if orbit.len() == before {
                        break;
                    }
                }
                if closed_tuples.union(&orbit).count() <= 12 {
                    closed_tuples.extend(orbit);
                }
            }
            for (closed_pool, tuples) in [(false, tuples), (true, closed_tuples)] {
                let mut pool: Vec<PoolEntry> = tuples
                    .into_iter()
                    .map(|tuple| PoolEntry {
                        rel: r,
                        tuple,
                        bound: BTreeSet::new(),
                    })
                    .collect();
                let n = pool.len();
                // Every other closed pool pins a bound value on its last
                // entry, so only the permutations fixing that entry remain
                // symmetries.
                let pinned = closed_pool && round % 2 == 1;
                if pinned {
                    let last = &mut pool[n - 1];
                    last.bound.insert(last.tuple.get(0).clone());
                }
                let closed = |mask: u32| {
                    setting
                        .partially_closed(&mask_db(&setting, &pool, mask))
                        .unwrap()
                };
                let brute: Vec<u32> = (0..1u32 << n)
                    .filter(|&mask| {
                        closed(mask)
                            && (0..n).all(|i| mask & (1 << i) != 0 || !closed(mask | (1 << i)))
                    })
                    .collect();
                let syms = {
                    let (adom, rows) = catalog(&setting, &pool);
                    let ids = |vals: &mut dyn Iterator<Item = &Value>| -> Vec<u32> {
                        vals.map(|v| adom.id(v).unwrap()).collect()
                    };
                    let bound_ids: Vec<Vec<u32>> =
                        pool.iter().map(|e| ids(&mut e.bound.iter())).collect();
                    pool_symmetries(&pool, &rows, &bound_ids, &ids(&mut fresh.iter()))
                };
                let settle = settle_of(&setting, &pool, None);
                // The mutant: the first entry with a later partner loses
                // its last one.
                let mutant = (0..n)
                    .find(|&e| settle[e] > e + 1)
                    .map(|e| settle_of(&setting, &pool, Some((e, settle[e] - 1))));
                if pinned {
                    assert!(
                        syms.iter().all(|inv| inv[n - 1] as usize == n - 1),
                        "a symmetry must map bound values along"
                    );
                } else if closed_pool {
                    let tried = fresh_permutations(fresh.len()).len();
                    assert_eq!(syms.len(), tried, "a closed pool keeps every permutation");
                }
                syms_total += syms.len();
                // An orbit is the closure of a subset under the kept
                // permutations; its lex-greatest member must survive.
                let leader = |mask: u32| {
                    let mut orbit = BTreeSet::from([mask]);
                    let mut todo = vec![mask];
                    while let Some(m) = todo.pop() {
                        for inv in &syms {
                            let img = image(inv, m);
                            if orbit.insert(img) {
                                todo.push(img);
                            }
                        }
                    }
                    orbit
                        .into_iter()
                        .max_by_key(|&m| lex_key(n, m))
                        .unwrap_or(mask)
                };
                let survives = |mask: u32| {
                    syms.iter()
                        .all(|inv| lex_key(n, image(inv, mask)) <= lex_key(n, mask))
                };
                let leaders: Vec<u32> = brute.iter().copied().filter(|&m| survives(m)).collect();
                let orbits: BTreeSet<u32> = brute.iter().map(|&mask| leader(mask)).collect();
                assert!(orbits.iter().all(|m| leaders.contains(m)), "round {round}");
                if fresh.len() <= FULL_GROUP_FRESH {
                    // The kept permutations form a group (the stabiliser of
                    // the pool): exactly one survivor per orbit.
                    assert_eq!(leaders.len(), orbits.len(), "round {round}");
                }
                let passing: BTreeSet<u32> = orbits
                    .iter()
                    .copied()
                    .filter(|_| orbit_rng.random_bool(0.3))
                    .collect();
                let pass = |mask: u32| passing.contains(&leader(mask));
                let first = brute
                    .iter()
                    .copied()
                    .filter(|&mask| pass(mask))
                    .max_by_key(|&mask| lex_key(n, mask));
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
                    let ctx = format!(
                        "round {round} (delta mode: {delta_mode}, closed: {closed_pool}): \
                         pool {pool:?}"
                    );
                    let (visited, cut) = visited_masks(&setting, &pool, &[], &settle, &check);
                    visited_total += visited.len();
                    cut_total += cut;
                    assert_eq!(visited, brute, "{ctx}");
                    let (collapsed, _) = visited_masks(&setting, &pool, &syms, &settle, &check);
                    collapsed_total += collapsed.len();
                    assert_eq!(collapsed, leaders, "lex-leaders, {ctx}");
                    let want = first.map(|mask| mask_db(&setting, &pool, mask));
                    for s in [&[][..], &syms] {
                        let (_, found, _) = search(&setting, &pool, s, &settle, &check, pass);
                        assert_eq!(found, want, "first passing subset, {ctx}");
                    }
                    if let Some(mutant) = &mutant {
                        let (visited, _) = visited_masks(&setting, &pool, &[], mutant, &check);
                        mutants_caught += usize::from(visited != brute);
                    }
                }
            }
        }
        assert!(
            visited_total > 192,
            "the pools exercise more than one subset"
        );
        assert!(
            syms_total > 48 && collapsed_total < visited_total,
            "the closed pools exercise the collapse"
        );
        assert!(cut_total > 0, "the settle tests cut nodes");
        assert!(
            mutants_caught > 0,
            "a dropped meeting pair must change the visited subsets"
        );
    }

    /// The leaf's reused bound mask holds exactly the current leaf's chosen
    /// entries' bound values, nothing a previous leaf set.
    #[test]
    fn bound_mask_holds_only_the_chosen_entries() {
        use EntryState::{Chosen, Excluded, Refused};
        let ids = vec![vec![0, 2], vec![1], vec![2]];
        let mut mask = vec![false; 3];
        chosen_bound(&mut mask, &ids, &[Chosen, Chosen, Excluded]);
        assert_eq!(mask, [true, true, true]);
        chosen_bound(&mut mask, &ids, &[Excluded, Refused, Chosen]);
        assert_eq!(mask, [false, false, true]);
    }

    /// The `e2_empty` perfbench setting: `Work(emp, task)` under the FD
    /// `emp → task` and `Cert[lvl] ⊆ Lvl` with the single level 0.
    fn work_setting() -> Setting {
        let schema = Schema::from_relations(vec![
            RelationSchema::infinite("Work", &["emp", "task"]),
            RelationSchema::infinite("Cert", &["emp", "lvl"]),
        ])
        .unwrap();
        let work = schema.rel_id("Work").unwrap();
        let cert = schema.rel_id("Cert").unwrap();
        let mschema =
            Schema::from_relations(vec![RelationSchema::infinite("Lvl", &["lvl"])]).unwrap();
        let lvl = mschema.rel_id("Lvl").unwrap();
        let mut dm = Database::empty(&mschema);
        dm.insert(lvl, Tuple::new([Value::int(0)]));
        let fd = ric_constraints::Fd::new(work, vec![0], vec![1]);
        let mut ccs = ric_constraints::compile::fd_to_ccs(&fd, &schema);
        ccs.push(ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(cert, vec![1])),
            lvl,
            vec![0],
        ));
        Setting::new(schema, mschema, dm, ConstraintSet::new(ccs))
    }

    /// Run the general path directly, collapsing orbits or not; returns the
    /// verdict and the collected report.
    fn general(
        setting: &Setting,
        q: &Query,
        budget: &SearchBudget,
        collapse: bool,
    ) -> (QueryVerdict, ric_telemetry::Report) {
        let collector = ric_telemetry::Collector::new();
        let seed = Database::empty(&setting.schema);
        let tableaux = q.as_ucq().unwrap().tableaux().unwrap();
        let check = plain_check(setting, budget.engine).unwrap();
        let verdict = rcqp_general(
            setting,
            q,
            &seed,
            &tableaux,
            budget,
            &Guard::new(budget),
            Probe::attached(&collector),
            &check,
            false,
            collapse,
        )
        .unwrap();
        (verdict, collector.report())
    }

    /// On `Q(E) :- Cert(E, L)` with three fresh values the search meets
    /// 4⁴ = 256 maximal subsets (one task per employee, four values each),
    /// and Burnside counts (256 + 3·16 + 2·4) / 6 = 52 orbits under the six
    /// permutations of the fresh values: the collapsed search checks E2 on
    /// exactly one subset per orbit. Through the public request too.
    ///
    /// Each employee's last task meets no later entry, so its exclude
    /// branch is cut at once: no leaf below it, with every task of that
    /// employee excluded, is maximal. That pins the candidate counts (1081
    /// collapsed and 4685 in full before the cut).
    #[test]
    fn e2_search_checks_one_subset_per_orbit() {
        let setting = work_setting();
        let q: Query = parse_cq(&setting.schema, "Q(E) :- Cert(E, L).")
            .unwrap()
            .into();
        let budget = SearchBudget {
            fresh_values: 3,
            ..SearchBudget::default()
        };
        for (collapse, checks, candidates, syms) in [(true, 52, 490, 5), (false, 256, 2130, 0)] {
            let (verdict, report) = general(&setting, &q, &budget, collapse);
            assert_eq!(verdict, QueryVerdict::Empty, "collapse {collapse}");
            assert_eq!(
                (
                    report.counter("rcqp.e2_checks"),
                    report.counter("rcqp.candidates")
                ),
                (checks, candidates),
                "collapse {collapse}"
            );
            assert!(report.counter("rcqp.maximal.cut") > 0);
            assert_eq!(report.gauge("rcqp.symmetries"), Some(syms));
            assert_eq!(report.counter("rcqp.symmetry.pruned") > 0, collapse);
        }
        let collector = ric_telemetry::Collector::new();
        let outcome = Request::new(&setting)
            .budget(&budget)
            .probe(Probe::attached(&collector))
            .rcqp(&q)
            .unwrap();
        assert_eq!(outcome.verdict, QueryVerdict::Empty);
        assert_eq!(collector.report().counter("rcqp.e2_checks"), 52);
    }

    /// Attack on the orbit argument: random non-IND settings in the style of
    /// `tests/rcqp_e2_differential.rs`, each query decided by the general
    /// path with the computed symmetries and with none. Verdict kinds and
    /// witnesses must be identical — the collapsed search returns the very
    /// subset the full one does — and the collapse must actually prune. Two
    /// fresh values keep the full search short; the three-value group is
    /// pinned by `e2_search_checks_one_subset_per_orbit`.
    #[test]
    fn collapsed_search_matches_full_enumeration() {
        let schema = work_setting().schema;
        let work = schema.rel_id("Work").unwrap();
        let cert = schema.rel_id("Cert").unwrap();
        let mschema = Schema::from_relations(vec![
            RelationSchema::infinite("Lvl", &["lvl"]),
            RelationSchema::infinite("Emp", &["emp"]),
        ])
        .unwrap();
        let (lvl, emp) = (
            mschema.rel_id("Lvl").unwrap(),
            mschema.rel_id("Emp").unwrap(),
        );
        let queries: Vec<Query> = [
            "Q(E) :- Cert(E, L).",
            "Q(E) :- Cert(E, 0).",
            "Q(T) :- Work(E, T), Cert(E, 0).",
            "Q(E, T) :- Work(E, T), Cert(E, L).",
            "Q(E) :- Cert(E, L), Work(E, T).",
            "Q(E, L) :- Cert(E, L).",
            "Q(T) :- Work(E, T), Cert(E, L).",
            "Q(T) :- Work(0, T).",
            "Q(E) :- Work(E, 1), E = 0.",
            "Q(E) :- Work(E, T), Cert(E, 1), E = 0.",
            "Q(T) :- Work(E, T), T = 1.",
            "Q(E) :- Cert(E, 0), Work(E, 1).",
        ]
        .iter()
        .map(|src| parse_cq(&schema, src).unwrap().into())
        .collect();
        let mut rng = ric_data::SplitMix64::seed_from_u64(0x0CB17);
        let (mut searched, mut pruning, mut found) = (0, 0, 0);
        for round in 0..6 {
            let mut dm = Database::empty(&mschema);
            for v in 0..rng.random_range(1..3) as i64 {
                dm.insert(lvl, Tuple::new([Value::int(v)]));
            }
            if rng.random_bool(0.5) {
                dm.insert(emp, Tuple::new([Value::int(0)]));
            }
            let fd = ric_constraints::Fd::new(work, vec![0], vec![1]);
            let mut ccs = ric_constraints::compile::fd_to_ccs(&fd, &schema);
            ccs.push(ContainmentConstraint::into_master(
                CcBody::Proj(Projection::new(cert, vec![1])),
                lvl,
                vec![0],
            ));
            if rng.random_bool(0.7) {
                let join = [
                    "Q(E) :- Work(E, T), Cert(E, L).",
                    "Q(T) :- Work(E, T), Cert(T, L).",
                ][rng.random_range(0..2)];
                ccs.push(ContainmentConstraint::into_master(
                    CcBody::Cq(parse_cq(&schema, join).unwrap()),
                    emp,
                    vec![0],
                ));
            }
            if rng.random_bool(0.5) {
                let pattern = [
                    "Q() :- Work(E, T), Cert(E, 0).",
                    "Q() :- Cert(E, L), Cert(E, M), L != M.",
                ][rng.random_range(0..2)];
                ccs.push(ric_constraints::compile::denial_to_cc(
                    &ric_constraints::classical::Denial::new(parse_cq(&schema, pattern).unwrap()),
                ));
            }
            let setting =
                Setting::new(schema.clone(), mschema.clone(), dm, ConstraintSet::new(ccs));
            let budget = SearchBudget {
                fresh_values: 2,
                max_candidates: 1 << 22,
                ..SearchBudget::default()
            };
            for (qi, q) in queries.iter().enumerate() {
                let (full, full_report) = general(&setting, q, &budget, false);
                let (collapsed, report) = general(&setting, q, &budget, true);
                let ctx = format!("round {round}, query {qi}");
                match (&full, &collapsed) {
                    (
                        QueryVerdict::Nonempty { witness: a },
                        QueryVerdict::Nonempty { witness: b },
                    ) => {
                        assert_eq!(a, b, "witnesses ({ctx})");
                        found += usize::from(report.gauge("rcqp.pool_size").is_some());
                    }
                    (QueryVerdict::Empty, QueryVerdict::Empty) => {}
                    // An exhausted search short of the small-model bound.
                    (QueryVerdict::Unknown { stats: a }, QueryVerdict::Unknown { stats: b })
                        if a.limit == BudgetLimit::FreshValues
                            && b.limit == BudgetLimit::FreshValues => {}
                    _ => panic!("verdicts diverge ({ctx}): {full:?} vs {collapsed:?}"),
                }
                assert!(report.counter("rcqp.e2_checks") <= full_report.counter("rcqp.e2_checks"));
                searched += usize::from(report.gauge("rcqp.pool_size").is_some());
                pruning += usize::from(report.counter("rcqp.symmetry.pruned") > 0);
            }
        }
        assert!(
            searched >= 20 && pruning >= 10 && found >= 1,
            "{searched} searches, {pruning} pruned, {found} E2 witnesses: the generator drifted"
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
