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
//!
//! The enumerator binds dense ids of the decision's [`Adom`] catalog, never
//! [`Value`]s: candidates, inequality checks, and the symmetry break are
//! integer operations, and a caller decodes ids only at its boundary (the
//! exact RCDP search only for its witness). An infinite-domain variable
//! ranges over the catalog's constants and fresh pool, or over a subset a
//! caller names per run (`ValuationSpace::for_each_valid_among`: the E2
//! check offers only the values its candidate `D_𝒱` holds).

use crate::adom::Adom;
use crate::budget::Meter;
use crate::check::IdDelta;
use crate::verdict::RcError;
use ric_data::{RelId, Schema, Value};
use ric_query::tableau::Tableau;
use ric_query::Term;
use ric_telemetry::Probe;
use std::cell::{Cell, RefCell};
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

/// A tableau term over catalog ids.
#[derive(Clone, Copy, Debug)]
enum IdTerm {
    Const(u32),
    Var(u32),
}

impl IdTerm {
    fn of(t: &Term, adom: &Adom) -> Result<Self, RcError> {
        Ok(match t {
            Term::Var(v) => IdTerm::Var(v.0),
            Term::Const(c) => IdTerm::Const(adom.id(c).ok_or_else(|| {
                RcError::Unsupported(format!("tableau constant {c} is missing from Adom"))
            })?),
        })
    }

    fn get(self, var: impl Fn(usize) -> Option<u32>) -> Option<u32> {
        match self {
            IdTerm::Const(id) => Some(id),
            IdTerm::Var(v) => var(v as usize),
        }
    }
}

/// Candidate ids for one variable.
#[derive(Clone, Debug)]
enum Cands {
    /// A finite-domain variable: exactly these values, in value order.
    Finite(Vec<u32>),
    /// An infinite-domain variable: the shared constants plus the
    /// (symmetry-broken) fresh pool.
    Infinite,
}

/// One enumeration run's inputs that do not change with depth, passed down
/// the recursion by one reference.
struct Run<'r, 'm> {
    /// An infinite-domain variable's candidates: constants, then the fresh
    /// pool the symmetry break walks.
    infinite: (&'r [u32], &'r [u32]),
    profile: &'r DepthProfile,
    meter: &'r mut Meter<'m>,
    head_filter: &'r mut dyn FnMut(&[Option<u32>]) -> bool,
    partial_filter: &'r mut dyn FnMut(&[Option<u32>]) -> bool,
    visit: &'r mut dyn FnMut(&[u32]) -> ControlFlow<()>,
}

/// A prepared enumeration over the valid valuations of one tableau, binding
/// catalog ids.
pub struct ValuationSpace<'a> {
    adom: &'a Adom,
    cands: Vec<Cands>,
    /// Variable assignment order; head variables first.
    order: Vec<u32>,
    /// How many leading entries of `order` are head variables.
    head_prefix: usize,
    atoms: Vec<(RelId, Box<[IdTerm]>)>,
    head: Box<[IdTerm]>,
    neqs: Box<[(IdTerm, IdTerm)]>,
    /// The binding and leaf buffers, reused by every run over this space.
    buffers: RefCell<(Vec<Option<u32>>, Vec<u32>)>,
}

impl<'a> ValuationSpace<'a> {
    /// Prepare the space for `tableau` over `adom`, reading per-variable
    /// domains from `schema`. Errors when a tableau constant is missing
    /// from the catalog (`Adom` is built from the query, so it never is).
    pub fn new(tableau: &Tableau, schema: &Schema, adom: &'a Adom) -> Result<Self, RcError> {
        let missing = |v: &Value| {
            RcError::Unsupported(format!("finite-domain value {v} is missing from Adom"))
        };
        let cands = tableau
            .var_domains(schema)
            .into_iter()
            .map(|d| match d {
                Some(set) => set
                    .iter()
                    .map(|v| adom.id(v).ok_or_else(|| missing(v)))
                    .collect::<Result<_, _>>()
                    .map(Cands::Finite),
                None => Ok(Cands::Infinite),
            })
            .collect::<Result<_, _>>()?;
        // Head variables first, then the rest in index order.
        let head: BTreeSet<u32> = tableau.head_vars().iter().map(|v| v.0).collect();
        let mut order: Vec<u32> = head.iter().copied().collect();
        for v in 0..tableau.n_vars {
            if !head.contains(&v) {
                order.push(v);
            }
        }
        let terms = |ts: &[Term]| -> Result<Box<[IdTerm]>, RcError> {
            ts.iter().map(|t| IdTerm::of(t, adom)).collect()
        };
        Ok(ValuationSpace {
            adom,
            cands,
            order,
            head_prefix: head.len(),
            atoms: tableau
                .atoms
                .iter()
                .map(|a| Ok((a.rel, terms(&a.args)?)))
                .collect::<Result<_, RcError>>()?,
            head: terms(&tableau.head)?,
            neqs: tableau
                .neqs
                .iter()
                .map(|(l, r)| Ok((IdTerm::of(l, adom)?, IdTerm::of(r, adom)?)))
                .collect::<Result<_, RcError>>()?,
            buffers: RefCell::default(),
        })
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.cands.len()
    }

    /// Run `f` on this space's binding (all unbound) and leaf buffers. The
    /// buffers are taken out for the run, so a re-entrant run allocates its
    /// own instead of aliasing.
    fn with_buffers<R>(&self, f: impl FnOnce(&mut [Option<u32>], &mut Vec<u32>) -> R) -> R {
        let (mut binding, mut leaf) = self.buffers.take();
        binding.clear();
        binding.resize(self.n_vars(), None);
        let out = f(&mut binding, &mut leaf);
        self.buffers.replace((binding, leaf));
        out
    }

    /// Enumerate valid valuations, accumulating per-depth search statistics
    /// into `profile`.
    ///
    /// * `meter` — ticked once per assignment tried; exhaustion aborts.
    /// * `head_filter` — called once all head variables are bound, with the
    ///   partial binding; returning `false` prunes the subtree.
    /// * `partial_filter` — called after every consistent binding step;
    ///   returning `false` prunes the subtree. Sound for any property that
    ///   is *anti-monotone in the instantiated tuples* — in particular "the
    ///   tuples instantiated so far do not yet violate `V`": constraint
    ///   bodies are monotone, so a partial violation persists in every
    ///   completion (the pruning the Σᵖ₂ reduction instances of Theorem 3.6
    ///   rely on to stay tractable).
    /// * `visit` — called with each valid valuation (one id per variable);
    ///   `Break` stops the run.
    pub fn for_each_valid_pruned_profiled(
        &self,
        profile: &DepthProfile,
        meter: &mut Meter<'_>,
        mut head_filter: impl FnMut(&[Option<u32>]) -> bool,
        mut partial_filter: impl FnMut(&[Option<u32>]) -> bool,
        mut visit: impl FnMut(&[u32]) -> ControlFlow<()>,
    ) -> EnumOutcome {
        let run = &mut Run {
            infinite: self.catalog(),
            profile,
            meter,
            head_filter: &mut head_filter,
            partial_filter: &mut partial_filter,
            visit: &mut visit,
        };
        self.with_buffers(|binding, leaf| self.rec(0, 0, binding, leaf, run))
    }

    /// Enumerate valid valuations with every infinite-domain variable
    /// drawn from `constants` (ascending ids) and then the symmetry-broken
    /// `fresh` ids, which no input of the caller's check may mention.
    pub(crate) fn for_each_valid_among(
        &self,
        constants: &[u32],
        fresh: &[u32],
        meter: &mut Meter<'_>,
        mut visit: impl FnMut(&[u32]) -> ControlFlow<()>,
    ) -> EnumOutcome {
        let run = &mut Run {
            infinite: (constants, fresh),
            profile: &DepthProfile::default(),
            meter,
            head_filter: &mut |_| true,
            partial_filter: &mut |_| true,
            visit: &mut visit,
        };
        self.with_buffers(|binding, leaf| self.rec(0, 0, binding, leaf, run))
    }

    /// An infinite-domain variable's default candidates: the catalog's
    /// constants, then its fresh pool.
    fn catalog(&self) -> (&'a [u32], &'a [u32]) {
        (self.adom.constant_ids(), self.adom.fresh_ids())
    }

    /// The depth-0 candidates of this space — the chunk boundaries of the
    /// exact search's chunk ledger — paired with the fresh-pool usage after
    /// choosing each. Replicates exactly the candidate list `Self::rec`
    /// builds at depth 0 (constants first, then the single symmetry-broken
    /// fresh representative), so concatenating the per-candidate subtrees in
    /// this order reproduces the sequential enumeration. `None` when the
    /// space has no variables: the single empty valuation is unsplittable.
    pub fn split_points(&self) -> Option<Vec<(u32, usize)>> {
        let var = *self.order.first()? as usize;
        Some(match &self.cands[var] {
            Cands::Finite(ids) => ids.iter().map(|&id| (id, 0)).collect(),
            Cands::Infinite => {
                let mut out: Vec<(u32, usize)> =
                    self.adom.constant_ids().iter().map(|&id| (id, 0)).collect();
                // At depth 0 no fresh value is in use yet, so the symmetry
                // break admits exactly the first pool value.
                if let Some(&id) = self.adom.fresh_ids().first() {
                    out.push((id, 1));
                }
                out
            }
        })
    }

    /// Enumerate the subtree of exactly one depth-0 candidate, as returned by
    /// [`Self::split_points`], with per-depth profiling. Semantics match
    /// [`Self::for_each_valid_pruned_profiled`] restricted to
    /// `order[0] = id`: the meter ticks once for the candidate itself and
    /// once per deeper assignment, so summing the ticks of every chunk equals
    /// the sequential run's tick count, the per-chunk profiles sum to the
    /// sequential run's profile, and concatenating the chunks in
    /// `split_points` order visits valuations in exactly the sequential
    /// order.
    ///
    /// A chunk starts below depth 0, so the head filter of a space with no
    /// head variables — which the sequential run applies once, before any
    /// candidate — is never called here: the caller settles it once per
    /// space (and counts its head prune) before running the space's chunks.
    pub fn for_each_valid_pruned_chunk_profiled(
        &self,
        profile: &DepthProfile,
        (id, next_fresh): (u32, usize),
        meter: &mut Meter<'_>,
        mut head_filter: impl FnMut(&[Option<u32>]) -> bool,
        mut partial_filter: impl FnMut(&[Option<u32>]) -> bool,
        mut visit: impl FnMut(&[u32]) -> ControlFlow<()>,
    ) -> EnumOutcome {
        // Mirror one iteration of `rec` at depth 0.
        if !meter.tick() {
            return EnumOutcome::BudgetExceeded;
        }
        profile.candidate(0);
        let var = self.order[0] as usize;
        self.with_buffers(|binding, leaf| {
            binding[var] = Some(id);
            if self.neqs_consistent(binding) && partial_filter(binding) {
                let run = &mut Run {
                    infinite: self.catalog(),
                    profile,
                    meter,
                    head_filter: &mut head_filter,
                    partial_filter: &mut partial_filter,
                    visit: &mut visit,
                };
                self.rec(1, next_fresh, binding, leaf, run)
            } else {
                profile.prune(0);
                EnumOutcome::Exhausted
            }
        })
    }

    /// Write `μ(T_Q)`'s fully bound atoms (constants-only atoms always
    /// qualify) into `out`, as id rows; `var` reads a variable's id.
    pub(crate) fn write_atoms(&self, var: impl Fn(usize) -> Option<u32>, out: &mut IdDelta) {
        for (rel, args) in &self.atoms {
            out.push_row(*rel, args.iter().map(|t| t.get(&var)));
        }
    }

    /// Can one valuation map two distinct atoms to the rows `a` and `b`,
    /// binding shared variables and constants consistently, with every
    /// inequality the two atoms decide holding? `binding` is scratch.
    pub(crate) fn two_atoms_match(
        &self,
        a: (RelId, &[u32]),
        b: (RelId, &[u32]),
        binding: &mut Vec<Option<u32>>,
    ) -> bool {
        let bind = |args: &[IdTerm], row: &[u32], binding: &mut [Option<u32>]| {
            args.len() == row.len()
                && args.iter().zip(row).all(|(&t, &v)| match t {
                    IdTerm::Const(c) => c == v,
                    IdTerm::Var(x) => *binding[x as usize].get_or_insert(v) == v,
                })
        };
        let at = |rel: RelId| {
            self.atoms
                .iter()
                .enumerate()
                .filter(move |(_, atom)| atom.0 == rel)
        };
        at(a.0).any(|(i, (_, ai))| {
            at(b.0).any(|(j, (_, bj))| {
                binding.clear();
                binding.resize(self.n_vars(), None);
                i != j
                    && bind(ai, a.1, binding)
                    && bind(bj, b.1, binding)
                    && self.neqs_consistent(binding)
            })
        })
    }

    /// Write the candidate answer `μ(u)` of a binding that covers the head
    /// into `out`, as ids.
    pub(crate) fn head_into(&self, var: impl Fn(usize) -> Option<u32>, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.head.iter().map(|t| {
            t.get(&var)
                .unwrap_or_else(|| unreachable!("head vars bound first"))
        }));
    }

    fn rec(
        &self,
        depth: usize,
        fresh_used: usize,
        binding: &mut [Option<u32>],
        leaf: &mut Vec<u32>,
        run: &mut Run<'_, '_>,
    ) -> EnumOutcome {
        if depth == self.head_prefix && !(run.head_filter)(binding) {
            run.profile.head_prune();
            return EnumOutcome::Exhausted; // pruned subtree, not a stop
        }
        if depth == self.order.len() {
            // One buffer per space, refilled at every leaf.
            leaf.clear();
            leaf.extend(
                binding.iter().map(|b| {
                    b.unwrap_or_else(|| unreachable!("all variables bound at full depth"))
                }),
            );
            return match (run.visit)(leaf) {
                ControlFlow::Continue(()) => EnumOutcome::Exhausted,
                ControlFlow::Break(()) => EnumOutcome::Stopped,
            };
        }
        let var = self.order[depth] as usize;
        // Candidates paired with the fresh-pool usage after choosing them,
        // walked in place: a finite domain, or the shared constants followed
        // by the symmetry-broken fresh pool — any fresh value already in use,
        // or exactly the next unused one.
        let (fixed, fresh): (&[u32], &[u32]) = match &self.cands[var] {
            Cands::Finite(ids) => (ids, &[]),
            Cands::Infinite => {
                let (constants, pool) = run.infinite;
                (constants, &pool[..(fresh_used + 1).min(pool.len())])
            }
        };
        let candidates = fixed.iter().map(|&id| (id, fresh_used)).chain(
            fresh
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, fresh_used + usize::from(i == fresh_used))),
        );
        for (id, next_fresh) in candidates {
            if !run.meter.tick() {
                return EnumOutcome::BudgetExceeded;
            }
            run.profile.candidate(depth);
            binding[var] = Some(id);
            let outcome = if self.neqs_consistent(binding) && (run.partial_filter)(binding) {
                self.rec(depth + 1, next_fresh, binding, leaf, run)
            } else {
                run.profile.prune(depth);
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
    /// Ids are equal exactly when their values are.
    fn neqs_consistent(&self, binding: &[Option<u32>]) -> bool {
        let var = |v: usize| binding[v];
        self.neqs
            .iter()
            .all(|&(l, r)| match (l.get(var), r.get(var)) {
                (Some(a), Some(b)) => a != b,
                _ => true,
            })
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
        Adom::build(&db, &setting, &crate::Query::Cq(q.clone()), n_fresh).unwrap()
    }

    #[test]
    fn finite_vars_range_over_their_domain() {
        let s = boolean_schema();
        let q = parse_cq(&s, "Q(X) :- B(X, Y).").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let adom = adom_for(&s, &q, 2);
        let space = ValuationSpace::new(&t, &s, &adom).unwrap();
        let mut seen = Vec::new();
        let mut meter = Meter::new(1_000_000);
        let out = space.for_each_valid_pruned_profiled(
            &DepthProfile::default(),
            &mut meter,
            |_| true,
            |_| true,
            |mu| {
                seen.push(mu.to_vec());
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
        let space = ValuationSpace::new(&t, &s, &adom).unwrap();
        let mut count = 0;
        let mut meter = Meter::new(1_000_000);
        space.for_each_valid_pruned_profiled(
            &DepthProfile::default(),
            &mut meter,
            |_| true,
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
        let space = ValuationSpace::new(&t, &s, &adom).unwrap();
        let mut visited = 0;
        let mut meter = Meter::new(1_000_000);
        let out = space.for_each_valid_pruned_profiled(
            &DepthProfile::default(),
            &mut meter,
            |_| false, // prune everything
            |_| true,
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
        let space = ValuationSpace::new(&t, &s, &adom).unwrap();
        let mut meter = Meter::new(1);
        let out = space.for_each_valid_pruned_profiled(
            &DepthProfile::default(),
            &mut meter,
            |_| true,
            |_| true,
            |_| ControlFlow::Continue(()),
        );
        assert_eq!(out, EnumOutcome::BudgetExceeded);
    }

    #[test]
    fn early_stop_reported() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let q = parse_cq(&s, "Q(X, Y) :- R(X, Y).").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let adom = adom_for(&s, &q, 3);
        let space = ValuationSpace::new(&t, &s, &adom).unwrap();
        let mut meter = Meter::new(1_000_000);
        let out = space.for_each_valid_pruned_profiled(
            &DepthProfile::default(),
            &mut meter,
            |_| true,
            |_| true,
            |_| ControlFlow::Break(()),
        );
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
        let adom = Adom::build(&db, &setting, &crate::Query::Cq(q.clone()), 2).unwrap();
        let space = ValuationSpace::new(&t, &s, &adom).unwrap();

        let mut sequential = Vec::new();
        let mut seq_meter = Meter::new(1_000_000);
        let out = space.for_each_valid_pruned_profiled(
            &DepthProfile::default(),
            &mut seq_meter,
            |_| true,
            |_| true,
            |mu| {
                sequential.push(mu.to_vec());
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
            let out = space.for_each_valid_pruned_chunk_profiled(
                &DepthProfile::default(),
                point,
                &mut meter,
                |_| true,
                |_| true,
                |mu| {
                    chunked.push(mu.to_vec());
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
        let space = ValuationSpace::new(&t, &s, &adom).unwrap();
        let mut seen = 0;
        let mut meter = Meter::new(10);
        let out = space.for_each_valid_pruned_profiled(
            &DepthProfile::default(),
            &mut meter,
            |_| true,
            |_| true,
            |mu| {
                assert!(mu.is_empty());
                seen += 1;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(out, EnumOutcome::Exhausted);
        assert_eq!(seen, 1);
    }
}
