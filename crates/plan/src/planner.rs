//! The cost-based planner: tableau in, [`PreparedPlan`] out.
//!
//! Plan choice is a pure function of the tableau and the statistics snapshot
//! it is given — no clocks, no randomness — so preparing the same query
//! against the same stats always yields the same plan, and the compiled
//! artifact can be shared across threads (`PreparedPlan` is `Send + Sync`).
//!
//! ## Cost model
//!
//! Greedy System-R-lite over [`RelStats`]: at each step pick the unplaced
//! atom with the smallest estimated output cardinality
//!
//! ```text
//! est(atom | bound) = rows(rel) × Π_{col bound or constant} 1 / distinct(col)
//! ```
//!
//! ties broken by original atom index for determinism. The plan's recorded
//! [`PreparedPlan::cost`] is the sum of running intermediate cardinalities
//! (`Σ_k Π_{j≤k} est_j`), the figure the `plan.cost` telemetry counter
//! reports. When *no* relation of the body has statistics the planner
//! instead simulates the greedy evaluator's most-bound-first order
//! statically (after a step, all of its variables are bound, so the dynamic
//! and static simulations agree) and marks the plan as a
//! [`PreparedPlan::fallback`].

use ric_data::{RelId, RelStats, TupleStore, Value};
use ric_query::tableau::Tableau;
use ric_query::Term;

/// Where plan-time statistics come from. Blanket-implemented for every
/// [`TupleStore`], so a `Database` (or an `Overlay`) is a provider as-is.
pub trait StatsProvider {
    /// Statistics of one relation. Estimates only: they steer join order,
    /// never answers.
    fn rel_stats(&self, rel: RelId) -> RelStats;
}

impl<S: TupleStore> StatsProvider for S {
    fn rel_stats(&self, rel: RelId) -> RelStats {
        self.stats(rel)
    }
}

/// The "no statistics" provider: every relation reports empty stats, forcing
/// the static fallback order.
pub struct NoStats;

impl StatsProvider for NoStats {
    fn rel_stats(&self, _rel: RelId) -> RelStats {
        RelStats::empty()
    }
}

/// What to do with one column of a step's tuple, precompiled.
#[derive(Clone, Debug)]
pub(crate) enum Action {
    /// The column must equal the constant at this index of the plan's pool.
    Const(u32),
    /// The column must equal the already-bound variable slot.
    Check(u32),
    /// First occurrence of the variable along the binding order: bind it.
    Bind(u32),
}

/// The pre-resolved access path of one step.
#[derive(Clone, Debug)]
pub(crate) enum ProbeChoice {
    /// No column is bound before this step: full scan.
    Scan,
    /// Probe on a constant key (an index into the plan's pool).
    ConstKey { col: u32, key: u32 },
    /// Probe on the value of an earlier-bound variable slot.
    VarKey { col: u32, var: u32 },
}

/// One side of a pinned inequality or one head column: a constant (an index
/// into the plan's pool) or a variable slot.
#[derive(Clone, Debug)]
pub(crate) enum Src {
    Const(u32),
    Var(u32),
}

/// An inequality check pinned to the earliest step binding both sides.
#[derive(Clone, Debug)]
pub(crate) struct NeqCheck {
    pub(crate) l: Src,
    pub(crate) r: Src,
}

/// One join step of a compiled plan.
#[derive(Clone, Debug)]
pub(crate) struct Step {
    pub(crate) rel: RelId,
    /// Original tableau atom index (for explain output).
    pub(crate) atom: u32,
    /// `actions[start..start+len]` in the plan's action arena.
    pub(crate) actions: (u32, u32),
    /// `neqs[start..start+len]` in the plan's inequality arena.
    pub(crate) neqs: (u32, u32),
    pub(crate) probe: ProbeChoice,
    /// Estimated output cardinality of this step (explain / cost).
    pub(crate) est: f64,
}

/// A tableau body compiled to a fixed binding order with pre-resolved index
/// choices, arena-backed column actions, and pinned inequality checks.
///
/// Built once by [`plan_tableau`] / [`plan_tableau_delta`]; executed many
/// times through the methods in [`crate::exec`] with a reusable
/// [`PlanScratch`](crate::PlanScratch) — steady state, an execution
/// allocates nothing beyond the answers it reports.
///
/// Constants live in one pool ([`Self::consts`]) that actions, probe keys,
/// inequalities, and the head refer to by index, so an executor over
/// another value representation (dense ids) translates the pool once and
/// runs the same plan.
#[derive(Clone, Debug)]
pub struct PreparedPlan {
    pub(crate) n_vars: u32,
    /// The constant pool: the tableau's distinct constants, sorted.
    pub(crate) consts: Box<[Value]>,
    pub(crate) steps: Box<[Step]>,
    /// Arena: every step's column actions, contiguous, in step order.
    pub(crate) actions: Box<[Action]>,
    /// Arena: every step's pinned inequality checks, contiguous, in step
    /// order.
    pub(crate) neqs: Box<[NeqCheck]>,
    pub(crate) head: Box<[Src]>,
    /// Step 0 is bound to novel Δ-tuples instead of probed (delta plans).
    pub(crate) pinned: bool,
    cost: f64,
    fallback: bool,
}

impl PreparedPlan {
    /// The constant pool the plan's steps refer to by index.
    pub fn consts(&self) -> &[Value] {
        &self.consts
    }

    /// Total estimated cost (sum of running intermediate cardinalities).
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Did the planner fall back to the static most-bound-first order
    /// because no body relation had statistics?
    pub fn fallback(&self) -> bool {
        self.fallback
    }

    /// The chosen join order, as original tableau atom indexes.
    pub fn join_order(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.atom as usize).collect()
    }

    /// One-line human-readable plan: join order with access paths and
    /// per-step estimates. `rel_name` maps relation ids to display names.
    pub fn render(&self, rel_name: impl Fn(RelId) -> String) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push_str(" -> ");
            }
            let access = match &s.probe {
                _ if self.pinned && i == 0 => "delta".to_string(),
                ProbeChoice::Scan => "scan".to_string(),
                ProbeChoice::ConstKey { col, .. } => format!("probe(c{col}=const)"),
                ProbeChoice::VarKey { col, var } => format!("probe(c{col}=v{var})"),
            };
            let _ = write!(
                out,
                "{}[a{}] {} est={:.1}",
                rel_name(s.rel),
                s.atom,
                access,
                s.est
            );
        }
        let _ = write!(
            out,
            " | cost={:.1}{}",
            self.cost,
            if self.fallback {
                " (static fallback)"
            } else {
                ""
            }
        );
        out
    }
}

/// The incremental (delta) compilation of one tableau: one [`PreparedPlan`]
/// per *pin*, each forcing the pinned atom — bound to novel Δ-tuples — as
/// step 0. Mirrors `eval_tableau_delta`'s union-over-pins semantics.
#[derive(Clone, Debug)]
pub struct DeltaPlans {
    pub(crate) pins: Box<[PreparedPlan]>,
}

impl DeltaPlans {
    /// The constant pool every pin plan refers to by index (all pins share
    /// their tableau's pool).
    pub fn consts(&self) -> &[Value] {
        self.pins.first().map_or(&[], |p| p.consts())
    }

    /// Total estimated cost across all pin plans.
    pub fn cost(&self) -> f64 {
        self.pins.iter().map(PreparedPlan::cost).sum()
    }

    /// Did any pin plan fall back to the static order?
    pub fn fallback(&self) -> bool {
        self.pins.iter().any(PreparedPlan::fallback)
    }

    /// Number of pin plans (= number of tableau atoms).
    pub fn len(&self) -> usize {
        self.pins.len()
    }

    /// No atoms, no pins, no delta answers.
    pub fn is_empty(&self) -> bool {
        self.pins.is_empty()
    }

    /// Render every pin plan, one per line.
    pub fn render(&self, rel_name: impl Fn(RelId) -> String + Copy) -> String {
        self.pins
            .iter()
            .map(|p| p.render(rel_name))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Compile a full-evaluation plan for `t` against a statistics snapshot.
pub fn plan_tableau(t: &Tableau, stats: &dyn StatsProvider) -> PreparedPlan {
    compile(t, stats, None)
}

/// Compile the delta-evaluation plans for `t` (one per pinned atom) against
/// a statistics snapshot — normally the *base* database's, since the delta
/// is a handful of tuples.
pub fn plan_tableau_delta(t: &Tableau, stats: &dyn StatsProvider) -> DeltaPlans {
    DeltaPlans {
        pins: (0..t.atoms.len())
            .map(|pin| compile(t, stats, Some(pin)))
            .collect(),
    }
}

fn compile(t: &Tableau, stats: &dyn StatsProvider, pin: Option<usize>) -> PreparedPlan {
    let n_atoms = t.atoms.len();
    // The tableau's distinct constants, sorted: every pin of one tableau
    // builds the same pool.
    let consts: Box<[Value]> = t.constants().into_iter().collect();
    let const_idx = |c: &Value| -> u32 {
        consts
            .binary_search(c)
            .map(|i| i as u32)
            .unwrap_or_else(|_| unreachable!("the pool holds every tableau constant"))
    };
    let rel_stats: Vec<RelStats> = t.atoms.iter().map(|a| stats.rel_stats(a.rel)).collect();
    let have_stats = rel_stats.iter().any(|s| !s.is_empty());

    // --- choose the order ---------------------------------------------
    let mut order: Vec<usize> = Vec::with_capacity(n_atoms);
    let mut placed = vec![false; n_atoms];
    let mut bound = vec![false; t.n_vars as usize];
    let place = |i: usize, placed: &mut Vec<bool>, bound: &mut Vec<bool>| {
        placed[i] = true;
        for arg in &t.atoms[i].args {
            if let Term::Var(v) = arg {
                bound[v.idx()] = true;
            }
        }
    };
    if let Some(p) = pin {
        order.push(p);
        place(p, &mut placed, &mut bound);
    }
    while order.len() < n_atoms {
        let next = if have_stats {
            // Min estimated output cardinality, ties by index.
            let mut best: Option<(f64, usize)> = None;
            for i in 0..n_atoms {
                if placed[i] {
                    continue;
                }
                let est = estimate(t, i, &rel_stats[i], &bound);
                if best.map(|(b, _)| est < b).unwrap_or(true) {
                    best = Some((est, i));
                }
            }
            best.map(|(_, i)| i)
        } else {
            // Static most-bound-first (constants count), ties by index —
            // the order the greedy evaluator would discover dynamically.
            let mut best: Option<(usize, usize)> = None;
            for (i, &is_placed) in placed.iter().enumerate() {
                if is_placed {
                    continue;
                }
                let score = t.atoms[i]
                    .args
                    .iter()
                    .filter(|a| match a {
                        Term::Const(_) => true,
                        Term::Var(v) => bound[v.idx()],
                    })
                    .count();
                if best.map(|(s, _)| score > s).unwrap_or(true) {
                    best = Some((score, i));
                }
            }
            best.map(|(_, i)| i)
        };
        let Some(i) = next else { break };
        order.push(i);
        place(i, &mut placed, &mut bound);
    }

    // --- compile the steps --------------------------------------------
    let mut actions: Vec<Action> = Vec::new();
    let mut steps: Vec<Step> = Vec::with_capacity(n_atoms);
    let mut bound_at: Vec<Option<usize>> = vec![None; t.n_vars as usize];
    let mut cost = 0.0f64;
    let mut card = 1.0f64;
    for (k, &ai) in order.iter().enumerate() {
        let atom = &t.atoms[ai];
        let st = &rel_stats[ai];
        // Access path: among columns bound *before* this step, prefer (with
        // stats) the most selective one, else the first.
        let mut probe: Option<(usize, ProbeChoice)> = None; // (distinct, choice)
        for (col, arg) in atom.args.iter().enumerate() {
            let choice = match arg {
                Term::Const(c) => Some(ProbeChoice::ConstKey {
                    col: col as u32,
                    key: const_idx(c),
                }),
                Term::Var(v) if bound_at[v.idx()].is_some() => Some(ProbeChoice::VarKey {
                    col: col as u32,
                    var: v.idx() as u32,
                }),
                Term::Var(_) => None,
            };
            if let Some(choice) = choice {
                let d = st.distinct_at(col);
                let better = match &probe {
                    None => true,
                    Some((best_d, _)) => have_stats && d > *best_d,
                };
                if better {
                    probe = Some((d, choice));
                }
            }
        }
        let probe = if pin == Some(ai) && k == 0 {
            ProbeChoice::Scan // unused: the executor pins step 0 to Δ.
        } else {
            probe.map(|(_, c)| c).unwrap_or(ProbeChoice::Scan)
        };
        let est = estimate(t, ai, st, &mark_bound(t, &order[..k]));
        let start = actions.len() as u32;
        for arg in atom.args.iter() {
            match arg {
                Term::Const(c) => actions.push(Action::Const(const_idx(c))),
                Term::Var(v) => {
                    if bound_at[v.idx()].is_some() {
                        actions.push(Action::Check(v.idx() as u32));
                    } else {
                        bound_at[v.idx()] = Some(k);
                        actions.push(Action::Bind(v.idx() as u32));
                    }
                }
            }
        }
        let len = actions.len() as u32 - start;
        if have_stats {
            card *= est;
            cost += card;
        }
        steps.push(Step {
            rel: atom.rel,
            atom: ai as u32,
            actions: (start, len),
            neqs: (0, 0), // filled below
            probe,
            est,
        });
    }

    // --- pin the inequalities -----------------------------------------
    let mut per_step: Vec<Vec<NeqCheck>> = vec![Vec::new(); steps.len()];
    for (l, r) in &t.neqs {
        let step_of = |term: &Term| -> usize {
            match term {
                Term::Const(_) => 0,
                Term::Var(v) => bound_at[v.idx()].unwrap_or_else(|| {
                    unreachable!("tableau invariant: every variable occurs in an atom")
                }),
            }
        };
        let at = step_of(l).max(step_of(r));
        let src = |term: &Term| -> Src {
            match term {
                Term::Const(c) => Src::Const(const_idx(c)),
                Term::Var(v) => Src::Var(v.idx() as u32),
            }
        };
        per_step[at].push(NeqCheck {
            l: src(l),
            r: src(r),
        });
    }
    let mut neqs: Vec<NeqCheck> = Vec::new();
    for (k, checks) in per_step.into_iter().enumerate() {
        let start = neqs.len() as u32;
        let len = checks.len() as u32;
        neqs.extend(checks);
        steps[k].neqs = (start, len);
    }

    let head: Box<[Src]> = t
        .head
        .iter()
        .map(|term| match term {
            Term::Const(c) => Src::Const(const_idx(c)),
            Term::Var(v) => Src::Var(v.idx() as u32),
        })
        .collect();

    PreparedPlan {
        n_vars: t.n_vars,
        consts,
        steps: steps.into_boxed_slice(),
        actions: actions.into_boxed_slice(),
        neqs: neqs.into_boxed_slice(),
        head,
        pinned: pin.is_some(),
        cost,
        fallback: !have_stats,
    }
}

/// `est(atom | bound)` under the uniform-selectivity model.
fn estimate(t: &Tableau, atom: usize, st: &RelStats, bound: &[bool]) -> f64 {
    let a = &t.atoms[atom];
    let mut est = st.rows as f64;
    for (col, arg) in a.args.iter().enumerate() {
        let filters = match arg {
            Term::Const(_) => true,
            Term::Var(v) => bound[v.idx()],
        };
        if filters {
            est *= st.selectivity(col);
        }
    }
    est
}

/// The bound-variable set after placing `prefix` (for per-step estimates).
fn mark_bound(t: &Tableau, prefix: &[usize]) -> Vec<bool> {
    let mut bound = vec![false; t.n_vars as usize];
    for &i in prefix {
        for arg in &t.atoms[i].args {
            if let Term::Var(v) = arg {
                bound[v.idx()] = true;
            }
        }
    }
    bound
}

/// A [`StatsProvider`] decorator that clamps rows and per-column distinct
/// counts to externally derived upper bounds — e.g. the chase-derived
/// cardinality caps of the symbolic reasoner, which bound *every* legal
/// database through the fixed master data. Like all statistics, caps are
/// advisory: they steer join order and never change answers. Because the
/// caps hold for every legal extension, a plan built against capped stats
/// cannot be invalidated by database growth past the master bounds.
pub struct CappedStats<'a, S: StatsProvider + ?Sized> {
    inner: &'a S,
    rows: std::collections::BTreeMap<RelId, usize>,
    distinct: std::collections::BTreeMap<(RelId, usize), usize>,
}

impl<'a, S: StatsProvider + ?Sized> CappedStats<'a, S> {
    /// Wrap a provider with no caps.
    pub fn new(inner: &'a S) -> Self {
        CappedStats {
            inner,
            rows: std::collections::BTreeMap::new(),
            distinct: std::collections::BTreeMap::new(),
        }
    }

    /// Clamp the row count of `rel` to at most `limit` (tightest cap wins).
    pub fn cap_rows(mut self, rel: RelId, limit: usize) -> Self {
        let slot = self.rows.entry(rel).or_insert(limit);
        *slot = (*slot).min(limit);
        self
    }

    /// Clamp the distinct count of `rel`'s column `col` (tightest cap wins).
    pub fn cap_distinct(mut self, rel: RelId, col: usize, limit: usize) -> Self {
        let slot = self.distinct.entry((rel, col)).or_insert(limit);
        *slot = (*slot).min(limit);
        self
    }

    /// Number of caps installed.
    pub fn len(&self) -> usize {
        self.rows.len() + self.distinct.len()
    }

    /// Are there no caps?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.distinct.is_empty()
    }
}

impl<S: StatsProvider + ?Sized> StatsProvider for CappedStats<'_, S> {
    fn rel_stats(&self, rel: RelId) -> RelStats {
        let mut st = self.inner.rel_stats(rel);
        if let Some(&cap) = self.rows.get(&rel) {
            st.rows = st.rows.min(cap);
        }
        for (col, d) in st.distinct.iter_mut().enumerate() {
            if let Some(&cap) = self.distinct.get(&(rel, col)) {
                *d = (*d).min(cap);
            }
        }
        st
    }
}

#[cfg(test)]
mod capped_tests {
    use super::*;

    struct Fixed(RelStats);
    impl StatsProvider for Fixed {
        fn rel_stats(&self, _rel: RelId) -> RelStats {
            self.0.clone()
        }
    }

    #[test]
    fn caps_clamp_rows_and_distinct_and_tightest_wins() {
        let inner = Fixed(RelStats {
            rows: 100,
            distinct: vec![50, 80],
        });
        let capped = CappedStats::new(&inner)
            .cap_rows(RelId(0), 40)
            .cap_rows(RelId(0), 60)
            .cap_distinct(RelId(0), 1, 10);
        assert_eq!(capped.len(), 2);
        let st = capped.rel_stats(RelId(0));
        assert_eq!(st.rows, 40);
        assert_eq!(st.distinct, vec![50, 10]);
        // Uncapped relations pass through untouched.
        let st1 = capped.rel_stats(RelId(1));
        assert_eq!(st1.rows, 100);
        assert_eq!(st1.distinct, vec![50, 80]);
    }

    #[test]
    fn empty_caps_are_the_identity() {
        let inner = Fixed(RelStats {
            rows: 7,
            distinct: vec![3],
        });
        let capped = CappedStats::new(&inner);
        assert!(capped.is_empty());
        let st = capped.rel_stats(RelId(2));
        assert_eq!(st.rows, 7);
        assert_eq!(st.distinct, vec![3]);
    }
}
