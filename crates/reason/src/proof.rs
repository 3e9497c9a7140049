//! Proof objects for the reasoner's conclusions, and their checker.
//!
//! The finder ([`crate::chase`]) proposes a [`Step`] per disjunct; nothing
//! is committed until [`check_step`] accepts it. The checker searches
//! nothing: it re-derives the justifying constraint body from the setting,
//! verifies the claimed homomorphism atom by atom against the disjunct's
//! canonical instance ([`check_hom`]), and re-evaluates the master-data
//! side conditions on `D_m`. A wrong candidate — a bad drop, a false cover,
//! a forged homomorphism — therefore fails its proof and is discarded with a
//! [`crate::ReasonNote::Uncertified`] note (RIC043).

use crate::chase::{Disjunct, Frozen};
use ric_complete::Setting;
use ric_constraints::CcRhs;
use ric_query::containment::check_hom;
use ric_query::tableau::TableauError;
use ric_query::{Tableau, Valuation};

/// Why one disjunct `d` — of the query, or of a dropped constraint's body —
/// is harmless or covered: the proof object behind every committed
/// conclusion.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Step {
    /// `d`'s equalities contradict each other: it has no match anywhere.
    Unsat,
    /// `hom` maps disjunct `disjunct` of constraint `cc`'s body into
    /// `canon(d)`. For a denial any such match kills `d`; for a master
    /// right-hand side the head image is all-constant and missing from
    /// `p(D_m)`. Either way no legal database contains an image of `d`.
    Killed {
        /// The violated constraint.
        cc: usize,
        /// The matched disjunct of its body's UCQ form.
        disjunct: usize,
        /// The homomorphism into `canon(d)`.
        hom: Valuation,
    },
    /// `hom` maps disjunct `disjunct` of constraint `cc`'s body into
    /// `canon(d)` with its head onto the frozen head: `d ⊆ body(φ_cc)`.
    Contained {
        /// The containing constraint.
        cc: usize,
        /// The matched disjunct of its body's UCQ form.
        disjunct: usize,
        /// The homomorphism into `canon(d)`.
        hom: Valuation,
    },
}

/// What a step has to establish about its disjunct.
#[derive(Clone, Copy)]
pub(crate) enum Goal {
    /// Static unsatisfiability: no legal database matches `d`.
    Dead,
    /// Cover: `d ⊆ body(φ_cc)`.
    CoveredBy(usize),
    /// Rule A or B for a drop of `φ_i`: `d` imposes nothing the usable
    /// constraints do not already impose.
    ImpliedFor(usize),
}

/// Check one step against the original inputs. Returns the justifying
/// constraint, if any.
pub(crate) fn check_step(
    setting: &Setting,
    d: &Disjunct,
    step: &Step,
    goal: Goal,
    usable: &dyn Fn(usize) -> bool,
) -> Result<Option<usize>, String> {
    let (cc, disjunct, hom, killed) = match step {
        Step::Unsat => {
            return match Tableau::of(&d.cq) {
                Err(TableauError::Unsatisfiable) => Ok(None),
                _ => Err("claimed unsatisfiable, but its equalities are consistent".into()),
            }
        }
        Step::Killed { cc, disjunct, hom } => (*cc, *disjunct, hom, true),
        Step::Contained { cc, disjunct, hom } => (*cc, *disjunct, hom, false),
    };
    match goal {
        Goal::Dead if !killed => return Err("a containment does not kill a disjunct".into()),
        Goal::CoveredBy(j) if killed || cc != j => {
            return Err(format!("the step does not show containment in cc {j}"))
        }
        _ => {}
    }
    if !usable(cc) {
        return Err(format!("cc {cc} may not justify this conclusion"));
    }
    let Frozen::Canon(canon) = &d.frozen else {
        return Err("the disjunct has no canonical instance".into());
    };
    let phi = setting
        .v
        .ccs
        .get(cc)
        .ok_or_else(|| format!("no constraint {cc}"))?;
    let body = phi
        .body
        .as_ucq(&setting.schema)
        .and_then(|u| u.disjuncts.into_iter().nth(disjunct))
        .ok_or_else(|| format!("cc {cc} has no UCQ disjunct {disjunct}"))?;
    let t = Tableau::of(&body).map_err(|e| format!("cc {cc} disjunct {disjunct}: {e}"))?;
    let head = check_hom(&t, hom, canon).map_err(|e| format!("cc {cc}: {e}"))?;
    if killed {
        if let CcRhs::Master(p) = &phi.rhs {
            if !canon.all_constant(&head) || p.eval(&setting.dm).contains(&head) {
                return Err(format!(
                    "the obligation of cc {cc} is fragile or met by p(D_m)"
                ));
            }
        }
        return Ok(Some(cc));
    }
    if head != canon.frozen_head {
        return Err(format!("cc {cc}'s head does not map onto the frozen head"));
    }
    if let Goal::ImpliedFor(i) = goal {
        // Rule B: d(D) ⊆ q_j(D) ⊆ p_j(D_m) ⊆ p_i(D_m) on every legal D.
        let (CcRhs::Master(p_i), CcRhs::Master(p_j)) = (&setting.v.ccs[i].rhs, &phi.rhs) else {
            return Err("Rule B needs master right-hand sides on both sides".into());
        };
        if !p_j.eval(&setting.dm).is_subset(&p_i.eval(&setting.dm)) {
            return Err(format!("p_{cc}(D_m) ⊄ p_{i}(D_m)"));
        }
    }
    Ok(Some(cc))
}

/// Check one step per disjunct, in order; returns the justifying
/// constraints, sorted and deduplicated.
pub(crate) fn check_steps(
    setting: &Setting,
    disjuncts: &[Disjunct],
    steps: &[Step],
    goal: Goal,
    usable: &dyn Fn(usize) -> bool,
) -> Result<Vec<usize>, String> {
    if disjuncts.len() != steps.len() {
        return Err(format!(
            "{} steps for {} disjuncts",
            steps.len(),
            disjuncts.len()
        ));
    }
    let mut by = Vec::new();
    for (k, (d, step)) in disjuncts.iter().zip(steps).enumerate() {
        let j =
            check_step(setting, d, step, goal, usable).map_err(|e| format!("disjunct {k}: {e}"))?;
        by.extend(j);
    }
    by.sort_unstable();
    by.dedup();
    Ok(by)
}
