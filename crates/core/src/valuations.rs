//! Enumeration of *valid valuations* (Section 3.2).
//!
//! A valuation `μ` of the tableau variables is valid when (a) each variable
//! draws from its active domain — the full finite domain `d_f` for
//! finite-domain variables, `Adom` (constants + `New`) otherwise — and (b)
//! `Q(μ(T_Q)) ≠ ∅`, which for CQ means exactly that the inequalities of the
//! tableau hold under `μ`.
//!
//! The enumerator walks variables in an order that puts head variables first
//! (so callers can prune whole subtrees once the candidate output tuple is
//! known to already be in `Q(D)`), checks inequalities as soon as both sides
//! are bound, and breaks the symmetry of the fresh pool: fresh value `k+1` is
//! only tried after fresh values `0..k` are in use. Symmetry breaking is
//! sound because no input mentions a fresh value, so every predicate the
//! deciders evaluate is invariant under permutations of the pool.

use crate::adom::Adom;
use crate::budget::Meter;
use ric_data::{Schema, Value};
use ric_query::tableau::{Tableau, Valuation};
use ric_query::Term;
use ric_telemetry::Probe;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Number of per-depth profile slots; work at deeper assignment depths is
/// clamped into the last slot.
pub const PROFILE_DEPTH: usize = 16;

/// Stable counter names for candidates tried per assignment depth (slot 15
/// absorbs all deeper work). Telemetry names are `&'static str`, so the
/// depth-indexed families are spelled out once here.
pub const DEPTH_CANDIDATES: [&str; PROFILE_DEPTH] = [
    "depth.candidates.00",
    "depth.candidates.01",
    "depth.candidates.02",
    "depth.candidates.03",
    "depth.candidates.04",
    "depth.candidates.05",
    "depth.candidates.06",
    "depth.candidates.07",
    "depth.candidates.08",
    "depth.candidates.09",
    "depth.candidates.10",
    "depth.candidates.11",
    "depth.candidates.12",
    "depth.candidates.13",
    "depth.candidates.14",
    "depth.candidates.15",
];

/// Stable counter names for subtrees pruned per assignment depth (inequality
/// inconsistency or a failed partial filter at that depth).
pub const DEPTH_PRUNED: [&str; PROFILE_DEPTH] = [
    "depth.pruned.00",
    "depth.pruned.01",
    "depth.pruned.02",
    "depth.pruned.03",
    "depth.pruned.04",
    "depth.pruned.05",
    "depth.pruned.06",
    "depth.pruned.07",
    "depth.pruned.08",
    "depth.pruned.09",
    "depth.pruned.10",
    "depth.pruned.11",
    "depth.pruned.12",
    "depth.pruned.13",
    "depth.pruned.14",
    "depth.pruned.15",
];

/// A per-run search profile: candidates tried and subtrees pruned at each
/// assignment depth, plus whole-subtree head-filter prunes. `Cell`-based so
/// the recursive enumerator and the caller's closures can share one profile
/// without threading `&mut` through the recursion.
#[derive(Default, Debug)]
pub struct DepthProfile {
    candidates: [Cell<u64>; PROFILE_DEPTH],
    pruned: [Cell<u64>; PROFILE_DEPTH],
    head_prunes: Cell<u64>,
}

impl DepthProfile {
    /// An empty profile.
    pub fn new() -> Self {
        DepthProfile::default()
    }

    fn candidate(&self, depth: usize) {
        let c = &self.candidates[depth.min(PROFILE_DEPTH - 1)];
        c.set(c.get() + 1);
    }

    fn prune(&self, depth: usize) {
        let c = &self.pruned[depth.min(PROFILE_DEPTH - 1)];
        c.set(c.get() + 1);
    }

    fn head_prune(&self) {
        self.head_prunes.set(self.head_prunes.get() + 1);
    }

    /// Candidates tried per depth slot.
    pub fn candidates(&self) -> [u64; PROFILE_DEPTH] {
        std::array::from_fn(|i| self.candidates[i].get())
    }

    /// Subtrees pruned per depth slot.
    pub fn pruned(&self) -> [u64; PROFILE_DEPTH] {
        std::array::from_fn(|i| self.pruned[i].get())
    }

    /// Subtrees pruned by the head filter (candidate answer already present).
    pub fn head_prunes(&self) -> u64 {
        self.head_prunes.get()
    }
}

/// Emit a per-depth profile to `probe` under the stable
/// [`DEPTH_CANDIDATES`] / [`DEPTH_PRUNED`] / `prune.head` names, plus the
/// deepest depth that tried a candidate as the `valuations.max_depth` gauge.
/// Zero deltas are dropped by the probe, so quiet depths add no events.
pub fn emit_profile(
    probe: Probe<'_>,
    candidates: &[u64; PROFILE_DEPTH],
    pruned: &[u64; PROFILE_DEPTH],
    head_prunes: u64,
) {
    for (name, &v) in DEPTH_CANDIDATES.iter().zip(candidates) {
        probe.count(name, v);
    }
    for (name, &v) in DEPTH_PRUNED.iter().zip(pruned) {
        probe.count(name, v);
    }
    probe.count("prune.head", head_prunes);
    if let Some(d) = (0..PROFILE_DEPTH).rev().find(|&i| candidates[i] > 0) {
        probe.gauge("valuations.max_depth", d as u64 + 1);
    }
}

/// How an enumeration run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnumOutcome {
    /// Every valid valuation was visited.
    Exhausted,
    /// A callback broke out early.
    Stopped,
    /// The meter ran out.
    BudgetExceeded,
}

/// Candidate values for one variable.
#[derive(Clone, Debug)]
enum Cands {
    /// A finite-domain variable: exactly these values.
    Finite(Vec<Value>),
    /// An infinite-domain variable: the shared constants plus the
    /// (symmetry-broken) fresh pool.
    Infinite,
}

/// A prepared enumeration over the valid valuations of one tableau.
pub struct ValuationSpace<'a> {
    tableau: &'a Tableau,
    adom: &'a Adom,
    cands: Vec<Cands>,
    /// Variable assignment order; head variables first.
    order: Vec<u32>,
    /// How many leading entries of `order` are head variables.
    head_prefix: usize,
}

impl<'a> ValuationSpace<'a> {
    /// Prepare the space for `tableau` over `adom`, reading per-variable
    /// domains from `schema`.
    pub fn new(tableau: &'a Tableau, schema: &Schema, adom: &'a Adom) -> Self {
        let doms = tableau.var_domains(schema);
        let cands = doms
            .into_iter()
            .map(|d| match d {
                Some(set) => Cands::Finite(set.into_iter().collect()),
                None => Cands::Infinite,
            })
            .collect();
        // Head variables first, then the rest in index order.
        let head: BTreeSet<u32> = tableau.head_vars().iter().map(|v| v.0).collect();
        let mut order: Vec<u32> = head.iter().copied().collect();
        for v in 0..tableau.n_vars {
            if !head.contains(&v) {
                order.push(v);
            }
        }
        let head_prefix = head.len();
        ValuationSpace {
            tableau,
            adom,
            cands,
            order,
            head_prefix,
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.tableau.n_vars as usize
    }

    /// The valuation buffer one run refills at each leaf.
    fn leaf_buffer(&self) -> Valuation {
        Valuation(Vec::with_capacity(self.n_vars()))
    }

    /// Enumerate valid valuations.
    ///
    /// * `meter` — ticked once per assignment tried; exhaustion aborts.
    /// * `head_filter` — called once all head variables are bound, with the
    ///   partial binding; returning `false` prunes the subtree.
    /// * `visit` — called for each valid valuation; `Break` stops the run.
    pub fn for_each_valid(
        &self,
        meter: &mut Meter<'_>,
        mut head_filter: impl FnMut(&[Option<Value>]) -> bool,
        mut visit: impl FnMut(&Valuation) -> ControlFlow<()>,
    ) -> EnumOutcome {
        let mut binding: Vec<Option<Value>> = vec![None; self.n_vars()];
        let mut no_prune = |_: &[Option<Value>]| true;
        // Special case: no variables at all — one (empty) valuation.
        self.rec(
            0,
            0,
            &mut binding,
            &mut self.leaf_buffer(),
            &DepthProfile::default(),
            meter,
            &mut head_filter,
            &mut no_prune,
            &mut visit,
        )
    }

    /// Like [`Self::for_each_valid`], with an additional `partial_filter`
    /// invoked after every consistent binding step; returning `false` prunes
    /// the subtree. Sound for any property that is *anti-monotone in the
    /// instantiated tuples* — in particular "the tuples instantiated so far
    /// do not yet violate `V`": constraint bodies are monotone, so a partial
    /// violation persists in every completion (the pruning the Σᵖ₂
    /// reduction instances of Theorem 3.6 rely on to stay tractable).
    pub fn for_each_valid_pruned(
        &self,
        meter: &mut Meter<'_>,
        head_filter: impl FnMut(&[Option<Value>]) -> bool,
        partial_filter: impl FnMut(&[Option<Value>]) -> bool,
        visit: impl FnMut(&Valuation) -> ControlFlow<()>,
    ) -> EnumOutcome {
        self.for_each_valid_pruned_profiled(
            &DepthProfile::default(),
            meter,
            head_filter,
            partial_filter,
            visit,
        )
    }

    /// Like [`Self::for_each_valid_pruned`], accumulating per-depth search
    /// statistics into `profile` (the exact search's chunk driver commits
    /// the profile through its chunk stats).
    pub fn for_each_valid_pruned_profiled(
        &self,
        profile: &DepthProfile,
        meter: &mut Meter<'_>,
        mut head_filter: impl FnMut(&[Option<Value>]) -> bool,
        mut partial_filter: impl FnMut(&[Option<Value>]) -> bool,
        mut visit: impl FnMut(&Valuation) -> ControlFlow<()>,
    ) -> EnumOutcome {
        let mut binding: Vec<Option<Value>> = vec![None; self.n_vars()];
        self.rec(
            0,
            0,
            &mut binding,
            &mut self.leaf_buffer(),
            profile,
            meter,
            &mut head_filter,
            &mut partial_filter,
            &mut visit,
        )
    }

    /// Like [`Self::for_each_valid_pruned`], reporting the run to `probe`:
    /// the assignments tried (metered ticks) as `valuations.assignments`, the
    /// wall time as the `valuations.enumerate` span, per-depth candidate and
    /// prune counters under the [`DEPTH_CANDIDATES`] / [`DEPTH_PRUNED`]
    /// families, head-filter prunes as `prune.head`, and the deepest depth
    /// reached as the `valuations.max_depth` gauge.
    pub fn for_each_valid_pruned_probed(
        &self,
        probe: Probe<'_>,
        meter: &mut Meter<'_>,
        head_filter: impl FnMut(&[Option<Value>]) -> bool,
        partial_filter: impl FnMut(&[Option<Value>]) -> bool,
        visit: impl FnMut(&Valuation) -> ControlFlow<()>,
    ) -> EnumOutcome {
        let before = meter.used();
        let profile = DepthProfile::default();
        let span = probe.span("valuations.enumerate");
        let outcome = self.for_each_valid_pruned_profiled(
            &profile,
            meter,
            head_filter,
            partial_filter,
            visit,
        );
        drop(span);
        probe.count("valuations.assignments", meter.used() - before);
        emit_profile(
            probe,
            &profile.candidates(),
            &profile.pruned(),
            profile.head_prunes(),
        );
        outcome
    }

    /// The depth-0 candidates of this space — the chunk boundaries of the
    /// exact search's chunk ledger — paired with the fresh-pool usage after
    /// choosing each. Replicates exactly the candidate list `Self::rec`
    /// builds at depth 0 (constants first, then the single symmetry-broken
    /// fresh representative), so concatenating the per-candidate subtrees in
    /// this order reproduces the sequential enumeration. `None` when the
    /// space has no variables: the single empty valuation is unsplittable.
    pub fn split_points(&self) -> Option<Vec<(Value, usize)>> {
        let var = *self.order.first()? as usize;
        Some(match &self.cands[var] {
            Cands::Finite(vals) => vals.iter().map(|v| (v.clone(), 0)).collect(),
            Cands::Infinite => {
                let mut out: Vec<(Value, usize)> =
                    self.adom.constants.iter().map(|v| (v.clone(), 0)).collect();
                // At depth 0 no fresh value is in use yet, so the symmetry
                // break admits exactly the first pool value.
                if let Some(v) = self.adom.fresh.first() {
                    out.push((v.clone(), 1));
                }
                out
            }
        })
    }

    /// Enumerate the subtree of exactly one depth-0 candidate, as returned by
    /// [`Self::split_points`]. Semantics match [`Self::for_each_valid_pruned`]
    /// restricted to `order[0] = value` (for a space without head variables,
    /// once its head filter has passed — see
    /// [`Self::for_each_valid_pruned_chunk_profiled`]): the meter ticks once
    /// for the candidate itself and once per deeper assignment, so summing
    /// the ticks of every chunk equals the sequential run's tick count, and
    /// concatenating the chunks in `split_points` order visits valuations in
    /// exactly the sequential order.
    pub fn for_each_valid_pruned_chunk(
        &self,
        point: (Value, usize),
        meter: &mut Meter<'_>,
        head_filter: impl FnMut(&[Option<Value>]) -> bool,
        partial_filter: impl FnMut(&[Option<Value>]) -> bool,
        visit: impl FnMut(&Valuation) -> ControlFlow<()>,
    ) -> EnumOutcome {
        self.for_each_valid_pruned_chunk_profiled(
            &DepthProfile::default(),
            point,
            meter,
            head_filter,
            partial_filter,
            visit,
        )
    }

    /// [`Self::for_each_valid_pruned_chunk`] with per-depth profiling. The
    /// per-chunk profiles sum to the sequential run's profile.
    ///
    /// A chunk starts below depth 0, so the head filter of a space with no
    /// head variables — which the sequential run applies once, before any
    /// candidate — is never called here: the caller settles it once per
    /// space (and counts its head prune) before running the space's chunks.
    pub fn for_each_valid_pruned_chunk_profiled(
        &self,
        profile: &DepthProfile,
        (value, next_fresh): (Value, usize),
        meter: &mut Meter<'_>,
        mut head_filter: impl FnMut(&[Option<Value>]) -> bool,
        mut partial_filter: impl FnMut(&[Option<Value>]) -> bool,
        mut visit: impl FnMut(&Valuation) -> ControlFlow<()>,
    ) -> EnumOutcome {
        let mut binding: Vec<Option<Value>> = vec![None; self.n_vars()];
        // Mirror one iteration of `rec` at depth 0.
        if !meter.tick() {
            return EnumOutcome::BudgetExceeded;
        }
        profile.candidate(0);
        let var = self.order[0] as usize;
        binding[var] = Some(value);
        if self.neqs_consistent(&binding) && partial_filter(&binding) {
            self.rec(
                1,
                next_fresh,
                &mut binding,
                &mut self.leaf_buffer(),
                profile,
                meter,
                &mut head_filter,
                &mut partial_filter,
                &mut visit,
            )
        } else {
            profile.prune(0);
            EnumOutcome::Exhausted
        }
    }

    /// The tuples of `μ(T_Q)` whose atoms are fully bound under a partial
    /// binding (constants-only atoms always qualify).
    pub fn bound_atoms(
        &self,
        binding: &[Option<Value>],
    ) -> Vec<(ric_data::RelId, ric_data::Tuple)> {
        let mut out = Vec::new();
        'atoms: for atom in &self.tableau.atoms {
            let mut fields = Vec::with_capacity(atom.args.len());
            for t in &atom.args {
                match term_val(t, binding) {
                    Some(v) => fields.push(v.clone()),
                    None => continue 'atoms,
                }
            }
            out.push((atom.rel, ric_data::Tuple::new(fields)));
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn rec(
        &self,
        depth: usize,
        fresh_used: usize,
        binding: &mut Vec<Option<Value>>,
        leaf: &mut Valuation,
        profile: &DepthProfile,
        meter: &mut Meter<'_>,
        head_filter: &mut dyn FnMut(&[Option<Value>]) -> bool,
        partial_filter: &mut dyn FnMut(&[Option<Value>]) -> bool,
        visit: &mut dyn FnMut(&Valuation) -> ControlFlow<()>,
    ) -> EnumOutcome {
        if depth == self.head_prefix && !head_filter(binding) {
            profile.head_prune();
            return EnumOutcome::Exhausted; // pruned subtree, not a stop
        }
        if depth == self.order.len() {
            // One buffer per run, refilled at every leaf.
            leaf.0.clear();
            leaf.0.extend(binding.iter().map(|b| {
                b.clone()
                    .unwrap_or_else(|| unreachable!("all variables bound at full depth"))
            }));
            return match visit(leaf) {
                ControlFlow::Continue(()) => EnumOutcome::Exhausted,
                ControlFlow::Break(()) => EnumOutcome::Stopped,
            };
        }
        let var = self.order[depth] as usize;
        // Candidates paired with the fresh-pool usage after choosing them,
        // walked in place: a finite domain, or the shared constants followed
        // by the symmetry-broken fresh pool — any fresh value already in use,
        // or exactly the next unused one.
        let (fixed, fresh): (&[Value], &[Value]) = match &self.cands[var] {
            Cands::Finite(vals) => (vals, &[]),
            Cands::Infinite => (
                &self.adom.constants,
                &self.adom.fresh[..(fresh_used + 1).min(self.adom.fresh.len())],
            ),
        };
        let candidates = fixed.iter().map(|v| (v, fresh_used)).chain(
            fresh
                .iter()
                .enumerate()
                .map(|(i, v)| (v, fresh_used + usize::from(i == fresh_used))),
        );
        for (value, next_fresh) in candidates {
            if !meter.tick() {
                return EnumOutcome::BudgetExceeded;
            }
            profile.candidate(depth);
            binding[var] = Some(value.clone());
            let outcome = if self.neqs_consistent(binding) && partial_filter(binding) {
                self.rec(
                    depth + 1,
                    next_fresh,
                    binding,
                    leaf,
                    profile,
                    meter,
                    head_filter,
                    partial_filter,
                    visit,
                )
            } else {
                profile.prune(depth);
                EnumOutcome::Exhausted
            };
            binding[var] = None;
            match outcome {
                EnumOutcome::Exhausted => {}
                other => return other,
            }
        }
        EnumOutcome::Exhausted
    }

    /// Are the tableau inequalities consistent with the partial binding?
    fn neqs_consistent(&self, binding: &[Option<Value>]) -> bool {
        self.tableau.neqs.iter().all(
            |(l, r)| match (term_val(l, binding), term_val(r, binding)) {
                (Some(a), Some(b)) => a != b,
                _ => true,
            },
        )
    }
}

/// Instantiate every atom of a tableau under a total assignment, returning
/// `(relation, tuple)` pairs (used by the fresh-escape emptiness test).
pub fn materialize(
    t: &Tableau,
    assignment: &[Option<Value>],
) -> Vec<(ric_data::RelId, ric_data::Tuple)> {
    t.atoms
        .iter()
        .map(|atom| {
            let tuple = ric_data::Tuple::new(atom.args.iter().map(|term| {
                match term {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => assignment[v.idx()]
                        .clone()
                        .unwrap_or_else(|| unreachable!("total assignment")),
                }
            }));
            (atom.rel, tuple)
        })
        .collect()
}

/// Instantiate every atom of a tableau under a total valuation into
/// `delta`, which is cleared first — `μ(T)` without allocating a database per
/// valuation.
pub(crate) fn instantiate_into(t: &Tableau, mu: &Valuation, delta: &mut ric_data::Database) {
    delta.clear_tuples();
    for atom in &t.atoms {
        delta.insert(
            atom.rel,
            ric_data::Tuple::new(atom.args.iter().map(|term| mu.term(term))),
        );
    }
}

fn term_val<'b>(t: &'b Term, binding: &'b [Option<Value>]) -> Option<&'b Value> {
    match t {
        Term::Const(c) => Some(c),
        Term::Var(v) => binding[v.idx()].as_ref(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_data::{Attribute, Database, RelationSchema};
    use ric_query::{parse_cq, Cq};

    fn boolean_schema() -> Schema {
        Schema::from_relations(vec![RelationSchema::new(
            "B",
            vec![Attribute::boolean("x"), Attribute::new("y")],
        )])
        .unwrap()
    }

    fn adom_for(schema: &Schema, q: &Cq, n_fresh: usize) -> Adom {
        let setting = crate::Setting::open_world(schema.clone());
        let db = Database::empty(schema);
        Adom::build(&db, &setting, &crate::Query::Cq(q.clone()), n_fresh)
    }

    #[test]
    fn finite_vars_range_over_their_domain() {
        let s = boolean_schema();
        let q = parse_cq(&s, "Q(X) :- B(X, Y).").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let adom = adom_for(&s, &q, 2);
        let space = ValuationSpace::new(&t, &s, &adom);
        let mut seen = Vec::new();
        let mut meter = Meter::new(1_000_000);
        let out = space.for_each_valid(
            &mut meter,
            |_| true,
            |mu| {
                seen.push(mu.clone());
                ControlFlow::Continue(())
            },
        );
        assert_eq!(out, EnumOutcome::Exhausted);
        // X ∈ {0,1}; Y infinite: constants ∅ (no db constants) + fresh pool
        // symmetry-broken to exactly 1 representative.
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn symmetry_breaking_collapses_fresh_permutations() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let q = parse_cq(&s, "Q(X, Y) :- R(X, Y), X != Y.").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let adom = adom_for(&s, &q, 3);
        let space = ValuationSpace::new(&t, &s, &adom);
        let mut count = 0;
        let mut meter = Meter::new(1_000_000);
        space.for_each_valid(
            &mut meter,
            |_| true,
            |_| {
                count += 1;
                ControlFlow::Continue(())
            },
        );
        // With no constants, the only canonical valuation is
        // (fresh0, fresh1): fresh0=fresh1 violates X≠Y, permutations are
        // broken, and fresh2 can never be introduced before fresh1.
        assert_eq!(count, 1);
    }

    #[test]
    fn head_filter_prunes() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let q = parse_cq(&s, "Q(X) :- R(X, Y).").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let adom = adom_for(&s, &q, 2);
        let space = ValuationSpace::new(&t, &s, &adom);
        let mut visited = 0;
        let mut meter = Meter::new(1_000_000);
        let out = space.for_each_valid(
            &mut meter,
            |_| false, // prune everything
            |_| {
                visited += 1;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(out, EnumOutcome::Exhausted);
        assert_eq!(visited, 0);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let q = parse_cq(&s, "Q(X, Y) :- R(X, Y).").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let adom = adom_for(&s, &q, 3);
        let space = ValuationSpace::new(&t, &s, &adom);
        let mut meter = Meter::new(1);
        let out = space.for_each_valid(&mut meter, |_| true, |_| ControlFlow::Continue(()));
        assert_eq!(out, EnumOutcome::BudgetExceeded);
    }

    #[test]
    fn early_stop_reported() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let q = parse_cq(&s, "Q(X, Y) :- R(X, Y).").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let adom = adom_for(&s, &q, 3);
        let space = ValuationSpace::new(&t, &s, &adom);
        let mut meter = Meter::new(1_000_000);
        let out = space.for_each_valid(&mut meter, |_| true, |_| ControlFlow::Break(()));
        assert_eq!(out, EnumOutcome::Stopped);
    }

    #[test]
    fn chunk_concatenation_matches_sequential_enumeration() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let q = parse_cq(&s, "Q(X) :- R(X, Y), X != Y.").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let setting = crate::Setting::open_world(s.clone());
        let mut db = Database::empty(&s);
        let r = s.rel_id("R").unwrap();
        db.insert(r, ric_data::Tuple::new([Value::int(1), Value::int(2)]));
        let adom = Adom::build(&db, &setting, &crate::Query::Cq(q.clone()), 2);
        let space = ValuationSpace::new(&t, &s, &adom);

        let mut sequential = Vec::new();
        let mut seq_meter = Meter::new(1_000_000);
        let out = space.for_each_valid_pruned(
            &mut seq_meter,
            |_| true,
            |_| true,
            |mu| {
                sequential.push(mu.clone());
                ControlFlow::Continue(())
            },
        );
        assert_eq!(out, EnumOutcome::Exhausted);
        assert!(!sequential.is_empty());

        let mut chunked = Vec::new();
        let mut chunk_ticks = 0;
        let points = space.split_points().expect("space has variables");
        assert!(points.len() > 1, "multiple chunks exercise the split");
        for point in points {
            let mut meter = Meter::new(1_000_000);
            let out = space.for_each_valid_pruned_chunk(
                point,
                &mut meter,
                |_| true,
                |_| true,
                |mu| {
                    chunked.push(mu.clone());
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(out, EnumOutcome::Exhausted);
            chunk_ticks += meter.used();
        }
        assert_eq!(chunked, sequential, "same valuations in the same order");
        assert_eq!(chunk_ticks, seq_meter.used(), "same metered work");
    }

    #[test]
    fn zero_variable_tableau_yields_unit_valuation() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a"])]).unwrap();
        let q = parse_cq(&s, "Q() :- R(5).").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let adom = adom_for(&s, &q, 1);
        let space = ValuationSpace::new(&t, &s, &adom);
        let mut seen = 0;
        let mut meter = Meter::new(10);
        let out = space.for_each_valid(
            &mut meter,
            |_| true,
            |mu| {
                assert!(mu.0.is_empty());
                seen += 1;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(out, EnumOutcome::Exhausted);
        assert_eq!(seen, 1);
    }
}
