//! Proven V-minimization.
//!
//! A constraint `φ_i` is *implied* by the rest of `V` (relative to the fixed
//! master data) when every database satisfying `V \ {φ_i}` also satisfies
//! `φ_i`. Dropping implied constraints shrinks the per-candidate recheck
//! loop inside the deciders without changing which candidate extensions are
//! legal — so verdicts, witnesses, and search counters are preserved
//! exactly.
//!
//! Implication is established per body disjunct `d` of `φ_i` by chasing its
//! canonical database with the kept constraints, and each disjunct gets a
//! proof step:
//!
//! * **Rule A (denial subsumption)** — a homomorphism shows that some kept
//!   denial fires on `canon(d)`, or that a kept master constraint produces a
//!   robust all-constant obligation missing from `p(D_m)`: then no legal
//!   database matches `d` at all, and the disjunct imposes nothing.
//! * **Rule B (containment subsumption)** — `φ_i = q_i ⊆ p_i(R_m)` and some
//!   kept `φ_j = q_j ⊆ p_j(R_m)` with `d ⊆ q_j` (a homomorphism onto the
//!   frozen head) and `p_j(D_m) ⊆ p_i(D_m)` (direct evaluation on the fixed
//!   master data): then `d(D) ⊆ q_j(D) ⊆ p_j(D_m) ⊆ p_i(D_m)` on every
//!   legal `D`.
//!
//! Two gates keep the rewrite observationally silent:
//!
//! * **constants preservation** — the deciders seed their candidate pool
//!   from the constants of `V`; a drop that removed a constant would change
//!   the search itself, so it is refused outright;
//! * **proof check** — a drop is committed only when
//!   the proof checker (`proof.rs`) accepts its steps; a drop whose proof
//!   fails is discarded with a note, keeping the constraint in place.

use crate::chase::{canon_contained, disjunct_fate, Disjunct, Fate, ReasonEnv};
use crate::proof::{check_steps, Goal, Step};
use crate::{ImpliedCc, ReasonNote};
use ric_complete::{Guard, Setting};
use ric_constraints::ConstraintSet;
use ric_data::Value;
use std::collections::BTreeSet;

/// The outcome of a minimization pass.
#[derive(Clone, Debug, Default)]
pub struct Minimization {
    /// Per-constraint keep flag (`false` = dropped as implied).
    pub kept: Vec<bool>,
    /// The dropped constraints with their justifying witnesses.
    pub implied: Vec<ImpliedCc>,
    /// Refused or degraded drops.
    pub notes: Vec<ReasonNote>,
}

impl Minimization {
    pub(crate) fn keep_all(n: usize) -> Minimization {
        Minimization {
            kept: vec![true; n],
            ..Minimization::default()
        }
    }

    /// Commit the drop of `φ_i` if its proof checks against the constraints
    /// still kept; otherwise record why it was discarded.
    pub(crate) fn commit_drop(
        &mut self,
        setting: &Setting,
        i: usize,
        what: String,
        proof: &(Vec<Disjunct>, Vec<Step>),
    ) {
        let kept = &self.kept;
        let usable = |j: usize| j != i && kept[j];
        match check_steps(setting, &proof.0, &proof.1, Goal::ImpliedFor(i), &usable) {
            Ok(by) => {
                self.kept[i] = false;
                self.implied.push(ImpliedCc { cc: i, by });
            }
            Err(why) => self.notes.push(ReasonNote::Uncertified { what, why }),
        }
    }

    fn refuse_constant_drop(&mut self, i: usize) {
        self.notes.push(ReasonNote::Degraded {
            place: format!("cc {i}"),
            why: "drop refused: it would remove constants from the candidate pool".into(),
        });
    }
}

/// Greedy proven minimization: constraints are considered in order, and
/// each drop is justified against the constraints still kept at that point —
/// so two mutually implied constraints can never both disappear.
pub(crate) fn minimize(setting: &Setting, env: &ReasonEnv, guard: &Guard) -> (Minimization, bool) {
    let n = setting.v.ccs.len();
    let mut m = Minimization::keep_all(n);
    // Try to drop the most expensive bodies first: when two constraints
    // imply each other, the cheap one (an IND beats a CQ, fewer atoms beat
    // more) should survive into the per-candidate recheck loop. Ties break
    // on index for determinism.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(body_cost(&setting.v.ccs[i].body)), i));
    for i in order {
        if guard.check().is_some() {
            return (m, true);
        }
        let Some(proof) = find_drop_proof(setting, env, &m.kept, i) else {
            continue;
        };
        if !constants_preserved(setting, &m.kept, i) {
            m.refuse_constant_drop(i);
            continue;
        }
        m.commit_drop(setting, i, format!("drop of implied cc {i}"), &proof);
    }
    (m, false)
}

/// Apply externally supplied drop candidates, in order, through the same
/// gates the minimizer uses: a candidate is dropped only with a proof that
/// checks against the constraints still kept. A candidate without one is
/// discarded with an [`ReasonNote::Uncertified`] note and the constraint
/// stays. Exposed so suites can prove that deliberately wrong implications
/// never reach a decision.
pub fn apply_candidates(setting: &Setting, candidates: &[usize]) -> Minimization {
    let n = setting.v.ccs.len();
    let env = ReasonEnv::build(setting, None);
    let mut m = Minimization::keep_all(n);
    for &i in candidates {
        if i >= n {
            m.notes.push(ReasonNote::Uncertified {
                what: format!("drop of cc {i}"),
                why: format!("no such constraint (V has {n})"),
            });
            continue;
        }
        if !constants_preserved(setting, &m.kept, i) {
            m.refuse_constant_drop(i);
            continue;
        }
        match find_drop_proof(setting, &env, &m.kept, i) {
            Some(proof) => m.commit_drop(setting, i, format!("drop of cc {i}"), &proof),
            None => m.notes.push(ReasonNote::Uncertified {
                what: format!("drop of cc {i}"),
                why: "no proof that the kept constraints imply it".into(),
            }),
        }
    }
    m
}

/// Check a kept-mask exactly: every dropped constraint needs a proof, checked
/// against the kept constraints alone, that they imply it. Then `D ⊨ V_min`
/// implies `D ⊨ V` on every database, relative to the fixed master data.
pub fn certify_kept_mask(setting: &Setting, kept: &[bool]) -> Result<(), String> {
    if kept.len() != setting.v.ccs.len() {
        return Err(format!(
            "kept-mask arity mismatch: {} entries for {} constraints",
            kept.len(),
            setting.v.ccs.len()
        ));
    }
    let env = ReasonEnv::build(setting, None);
    for i in (0..kept.len()).filter(|&i| !kept[i]) {
        let (disjuncts, steps) = find_drop_proof(setting, &env, kept, i)
            .ok_or_else(|| format!("cc {i}: no proof that the kept constraints imply it"))?;
        let usable = |j: usize| j != i && kept[j];
        check_steps(setting, &disjuncts, &steps, Goal::ImpliedFor(i), &usable)
            .map_err(|why| format!("cc {i}: {why}"))?;
    }
    Ok(())
}

/// `V` restricted to the kept constraints (lower bounds are never dropped
/// and are carried over unchanged).
pub fn masked_constraints(v: &ConstraintSet, kept: &[bool]) -> ConstraintSet {
    let mut out = ConstraintSet::new(
        v.ccs
            .iter()
            .zip(kept.iter())
            .filter(|(_, k)| **k)
            .map(|(cc, _)| cc.clone())
            .collect(),
    );
    out.lower_bounds = v.lower_bounds.clone();
    out
}

/// Find a proof that `φ_i` is implied by the *kept* constraints other than
/// itself: its body disjuncts, each frozen once, and one step per disjunct.
fn find_drop_proof(
    setting: &Setting,
    env: &ReasonEnv,
    kept: &[bool],
    i: usize,
) -> Option<(Vec<Disjunct>, Vec<Step>)> {
    // The dropped side may use its full body — inequalities and all: they
    // only shrink the disjunct, and shrinking preserves both rules.
    let ucq = setting.v.ccs[i].body.as_ucq(&setting.schema)?;
    if ucq.disjuncts.is_empty() {
        return None;
    }
    let usable = |j: usize| j != i && kept[j];
    let disjuncts: Vec<Disjunct> = ucq.disjuncts.into_iter().map(|d| env.disjunct(d)).collect();
    let mut steps = Vec::with_capacity(disjuncts.len());
    for d in &disjuncts {
        match disjunct_fate(d, env, usable) {
            Fate::Dead(step) => {
                steps.push(step);
                continue;
            }
            Fate::Degraded(_) => return None,
            Fate::Open => {}
        }
        // Rule B needs a master rhs on both sides.
        let p_i_dm = env.rhs_vals[i].as_ref()?;
        let step = env.rhs_vals.iter().enumerate().find_map(|(j, rhs)| {
            let p_j_dm = rhs.as_ref()?;
            if !usable(j) || !p_j_dm.is_subset(p_i_dm) {
                return None;
            }
            canon_contained(d, env, j)
        })?;
        steps.push(step);
    }
    Some((disjuncts, steps))
}

/// Relative evaluation cost of a constraint body in the per-candidate
/// recheck loop (advisory only — it orders drop attempts, nothing else).
fn body_cost(body: &ric_constraints::CcBody) -> usize {
    use ric_constraints::CcBody;
    match body {
        CcBody::Proj(_) => 0,
        CcBody::Cq(q) => 1 + q.atoms.len(),
        CcBody::Ucq(u) => 1 + u.disjuncts.iter().map(|d| d.atoms.len()).sum::<usize>(),
        // FO/FP bodies are never droppable (outside the reasoned fragment),
        // so their cost only affects attempt order, not outcomes.
        CcBody::Efo(_) | CcBody::Fo(_) | CcBody::Fp(_) => 2,
    }
}

/// Would dropping `φ_i` remove constants from `V`'s pool? The deciders seed
/// candidate tuples from `ConstraintSet::constants`, so the constant set
/// must survive the drop exactly for decisions to stay bit-identical.
fn constants_preserved(setting: &Setting, kept: &[bool], i: usize) -> bool {
    let dropped: BTreeSet<Value> = setting.v.ccs[i].body.constants();
    if dropped.is_empty() {
        return true;
    }
    // `ConstraintSet::constants` collects body constants of the upper
    // constraints only, so only kept bodies count toward preservation.
    let mut remaining: BTreeSet<Value> = BTreeSet::new();
    for (j, cc) in setting.v.ccs.iter().enumerate() {
        if j != i && kept[j] {
            remaining.extend(cc.body.constants());
        }
    }
    dropped.is_subset(&remaining)
}
