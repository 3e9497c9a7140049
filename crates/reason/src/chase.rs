//! A bounded chase of containment constraints over canonical databases —
//! the *finder* half of the reasoner. Every conclusion it reaches comes with
//! a proof object ([`Step`]) that [`crate::proof`] checks before anything is
//! committed.
//!
//! Chasing a canonical database `canon(d)` with a containment constraint
//! `φ = q ⊆ p(R_m)` means matching `q` into `canon(d)` and inspecting the
//! resulting *obligations*: tuples that must belong to `p(D_m)` in any legal
//! database containing an image of `d`. Because every right-hand side lives
//! in the fixed, closed-world master data, the chase never adds tuples to
//! the database side — it saturates in a single round, and the only bound
//! needed is a cap on the canonical database's size ([`MAX_CANON_ATOMS`]).
//!
//! Obligation classification (the soundness core of the crate):
//!
//! * a **denial hit** — a homomorphism of `q` into `canon(d)` for a
//!   constraint with right-hand side `∅` — is always specialization-robust:
//!   homomorphisms compose, so any real match of `d` produces a real match
//!   of `q`;
//! * an **all-constant obligation** `a ∉ p(D_m)` is robust because
//!   specializations fix constants — `a` itself appears in `q(D)` for every
//!   database `D` containing an image of `d`;
//! * an obligation containing a frozen value is **fragile**: a
//!   specialization may map the frozen value onto one that `p(D_m)` does
//!   cover, so nothing is concluded from it.
//!
//! Only inequality-free constraint bodies participate: frozen values are
//! pairwise distinct, so a canonical match of a body with `≠` conditions
//! need not survive specializations that merge values.

use crate::proof::Step;
use crate::MAX_CANON_ATOMS;
use ric_complete::{Query, Setting};
use ric_constraints::{CcRhs, ContainmentConstraint};
use ric_data::{Tuple, Value};
use ric_query::containment::find_hom;
use ric_query::tableau::TableauError;
use ric_query::{CanonDb, Cq, Tableau};
use std::collections::BTreeSet;

/// Precomputed per-setting reasoning context: usable constraint-body
/// tableaux, right-hand sides evaluated on the fixed master data, and the
/// constant set fresh values must avoid.
pub(crate) struct ReasonEnv {
    pub n_rels: usize,
    /// Constants of `V`, `Q`, and the master data's active domain.
    pub observe: BTreeSet<Value>,
    /// Per constraint: its inequality-free body disjuncts as `(index in the
    /// body's UCQ form, tableau)`, or `None` when the body is outside the
    /// reasoned fragment (FO/FP, oversized, or every disjunct carries
    /// inequalities).
    pub bodies: Vec<Option<Vec<(usize, Tableau)>>>,
    /// Per constraint: `p(D_m)` for `Master` right-hand sides, `None` for
    /// denials.
    pub rhs_vals: Vec<Option<BTreeSet<Tuple>>>,
    /// Human-readable notes about constraints excluded from reasoning.
    pub degraded: Vec<(usize, String)>,
}

/// One query or constraint-body disjunct, frozen once and reused for its
/// fate, every containment test, and the proof check.
pub(crate) struct Disjunct {
    pub cq: Cq,
    pub frozen: Frozen,
}

/// The canonical instance of a disjunct, or why there is none.
pub(crate) enum Frozen {
    Canon(CanonDb),
    /// The disjunct is unsatisfiable: it contributes nothing anywhere.
    Unsat,
    /// Outside the reasoned fragment; no conclusion may be drawn.
    Degraded(String),
}

impl ReasonEnv {
    /// The context for `setting`; `query` adds its constants to the values
    /// fresh ones must avoid.
    pub fn build(setting: &Setting, query: Option<&Query>) -> ReasonEnv {
        let n_rels = setting.schema.len();
        let mut observe: BTreeSet<Value> = setting.v.constants();
        if let Some(q) = query {
            observe.extend(q.constants());
        }
        observe.extend(setting.dm.active_domain().iter().cloned());
        let mut bodies = Vec::with_capacity(setting.v.ccs.len());
        let mut rhs_vals = Vec::with_capacity(setting.v.ccs.len());
        let mut degraded = Vec::new();
        for (i, cc) in setting.v.ccs.iter().enumerate() {
            bodies.push(usable_tableaux(cc, setting, i, &mut degraded));
            rhs_vals.push(match &cc.rhs {
                CcRhs::Empty => None,
                CcRhs::Master(p) => Some(p.eval(&setting.dm)),
            });
        }
        ReasonEnv {
            n_rels,
            observe,
            bodies,
            rhs_vals,
            degraded,
        }
    }

    /// Freeze one query or constraint-body disjunct. Its `≠` conditions are
    /// recorded but never needed: the finder only uses inequality-free
    /// bodies, and dropping `d`'s own `≠` only enlarges it, which is sound
    /// for every use here (proving it empty, or contained in something).
    pub fn disjunct(&self, cq: Cq) -> Disjunct {
        let frozen = match Tableau::of(&cq) {
            Err(TableauError::Unsatisfiable) => Frozen::Unsat,
            Err(e) => Frozen::Degraded(format!("tableau rejected: {e:?}")),
            Ok(t) if t.atoms.len() > MAX_CANON_ATOMS => Frozen::Degraded(format!(
                "canonical database too large ({} atoms > {MAX_CANON_ATOMS})",
                t.atoms.len()
            )),
            Ok(t) => Frozen::Canon(CanonDb::freeze(&t, self.n_rels, &self.observe)),
        };
        Disjunct { cq, frozen }
    }
}

/// The fate of one disjunct after chasing its canonical database.
pub(crate) enum Fate {
    /// The disjunct has no match in any legal database; the step proves it.
    Dead(Step),
    /// No robust violation found; the disjunct may fire on legal databases.
    Open,
    /// Outside the reasoned fragment.
    Degraded(String),
}

/// Chase `canon(d)` with every usable constraint allowed by `usable` and
/// classify the disjunct. `usable` receives the constraint index; implication
/// tests exclude the candidate itself and already-dropped constraints.
pub(crate) fn disjunct_fate(d: &Disjunct, env: &ReasonEnv, usable: impl Fn(usize) -> bool) -> Fate {
    let canon = match &d.frozen {
        Frozen::Canon(c) => c,
        Frozen::Unsat => return Fate::Dead(Step::Unsat),
        Frozen::Degraded(why) => return Fate::Degraded(why.clone()),
    };
    for (cc, tabs) in env.bodies.iter().enumerate() {
        if !usable(cc) {
            continue;
        }
        let Some(tabs) = tabs else { continue };
        for (disjunct, t) in tabs {
            let hom = match &env.rhs_vals[cc] {
                // Denial: any canonical match is a robust violation.
                None => find_hom(t, canon, |_| true),
                // Master rhs: only an all-constant obligation missing from
                // p(D_m) is robust.
                Some(p_dm) => find_hom(t, canon, |ans| {
                    canon.all_constant(ans) && !p_dm.contains(ans)
                }),
            };
            if let Some(hom) = hom {
                return Fate::Dead(Step::Killed {
                    cc,
                    disjunct: *disjunct,
                    hom,
                });
            }
        }
    }
    Fate::Open
}

/// Canonical containment of disjunct `d` in the body of constraint `cc`: a
/// homomorphism of some (inequality-free) body disjunct into `canon(d)` that
/// maps its head onto the frozen head. Exact for inequality-free CQs against
/// UCQs (Sagiv–Yannakakis); `d`'s own inequalities are ignored, which is
/// sound for the `⊆` direction. `None` when no proof exists or either side
/// is outside the reasoned fragment.
pub(crate) fn canon_contained(d: &Disjunct, env: &ReasonEnv, cc: usize) -> Option<Step> {
    let tabs = env.bodies[cc].as_ref()?;
    let canon = match &d.frozen {
        Frozen::Canon(c) => c,
        Frozen::Unsat => return Some(Step::Unsat),
        Frozen::Degraded(_) => return None,
    };
    tabs.iter().find_map(|(disjunct, t)| {
        find_hom(t, canon, |head| *head == canon.frozen_head).map(|hom| Step::Contained {
            cc,
            disjunct: *disjunct,
            hom,
        })
    })
}

/// The inequality-free tableaux of a constraint's body, or `None` (with a
/// degradation note) when the body cannot participate in symbolic reasoning.
fn usable_tableaux(
    cc: &ContainmentConstraint,
    setting: &Setting,
    idx: usize,
    degraded: &mut Vec<(usize, String)>,
) -> Option<Vec<(usize, Tableau)>> {
    let Some(ucq) = cc.body.as_ucq(&setting.schema) else {
        degraded.push((idx, "FO/FP body is outside the reasoned fragment".into()));
        return None;
    };
    let mut out = Vec::with_capacity(ucq.disjuncts.len());
    let mut skipped_neq = false;
    for (k, d) in ucq.disjuncts.iter().enumerate() {
        match Tableau::of(d) {
            Ok(t) if !t.neqs.is_empty() => skipped_neq = true,
            Ok(t) if t.atoms.len() > MAX_CANON_ATOMS => {
                degraded.push((
                    idx,
                    "body disjunct too large for canonical evaluation".into(),
                ));
                return None;
            }
            Ok(t) => out.push((k, t)),
            // Unsatisfiable disjuncts contribute nothing to any answer.
            Err(TableauError::Unsatisfiable) => {}
            Err(e) => {
                degraded.push((idx, format!("body tableau rejected: {e:?}")));
                return None;
            }
        }
    }
    if out.is_empty() {
        if skipped_neq {
            degraded.push((
                idx,
                "every body disjunct carries inequalities; frozen matches need not survive specialization".into(),
            ));
        }
        return None;
    }
    if skipped_neq {
        degraded.push((idx, "body disjuncts with inequalities were skipped".into()));
    }
    Some(out)
}
