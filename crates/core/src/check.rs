//! The one candidate check every decider runs: is `(D ∪ Δ, D_m) |= V` for a
//! candidate extension `Δ` of a partially closed `D`? It is the gate of
//! C1/C2, its `Δ`-only form C3 for INDs, and the inner test of E2. A
//! [`crate::Request`] resolves one [`UpperCheck`] per decision, and every
//! search, nested decision, and E2 check below it shares that check.
//!
//! Only upper bounds are checked: lower bounds hold on the partially closed
//! base and monotone bodies keep them under extension (the bounded FO/FP
//! search re-checks the others itself).

use crate::budget::Engine;
use crate::setting::Setting;
use crate::verdict::RcError;
use ric_constraints::{PreparedUpper, StatsProvider};
use ric_data::{Database, Overlay};
use ric_query::tableau::TableauError;
use std::cell::Cell;
use std::sync::Arc;

/// How a decision checks `(D ∪ Δ, D_m) |= V` per candidate `Δ`.
pub(crate) enum UpperCheck {
    /// IND constraint sets: projections distribute over unions and `D` is
    /// partially closed, so checking `Δ` alone is equivalent (C3).
    IndOnly,
    /// Materialize `D ∪ Δ` and re-check every upper bound (naive engine).
    Union,
    /// Overlay `D ∪ Δ` and re-check only what the novel tuples can break,
    /// through plans compiled once. Shared (`Arc`) so a
    /// [`crate::PreparedSetting`] compiles once for every decision.
    Delta(Arc<PreparedUpper>),
}

impl UpperCheck {
    /// The check `engine` runs for `setting`; the planned engine costs its
    /// join orders from `stats`. This is the one place a decision chooses on
    /// [`Engine`].
    pub(crate) fn new(
        setting: &Setting,
        engine: Engine,
        stats: &dyn StatsProvider,
    ) -> Result<Self, RcError> {
        if setting.v.is_ind_set() {
            return Ok(UpperCheck::IndOnly);
        }
        Ok(match engine {
            Engine::Naive => UpperCheck::Union,
            Engine::Planned => UpperCheck::Delta(Arc::new(PreparedUpper::new(
                &setting.v,
                &setting.schema,
                &setting.dm,
                stats,
            )?)),
        })
    }

    /// The compiled preparation backing the delta check, if any.
    pub(crate) fn prepared(&self) -> Option<&Arc<PreparedUpper>> {
        match self {
            UpperCheck::Delta(prep) => Some(prep),
            _ => None,
        }
    }

    /// The index of the first upper bound `base ∪ delta` violates (`None` =
    /// satisfied), for a partially closed `base`. Every arm checks in set
    /// order and stops at the first violation, so the `prune.cc.NN`
    /// attribution is engine-independent. The delta arm counts the
    /// constraints it skipped into `cc_skipped`.
    pub(crate) fn first_violation(
        &self,
        setting: &Setting,
        base: &Database,
        delta: &Database,
        cc_skipped: &Cell<u64>,
    ) -> Option<usize> {
        match self {
            UpperCheck::IndOnly => setting
                .v
                .first_violated_upper(delta, &setting.dm)
                .unwrap_or_else(malformed),
            UpperCheck::Union => {
                let extended = base
                    .union(delta)
                    .unwrap_or_else(|e| unreachable!("delta shares the setting schema: {e:?}"));
                setting
                    .v
                    .first_violated_upper(&extended, &setting.dm)
                    .unwrap_or_else(malformed)
            }
            UpperCheck::Delta(prepared) => {
                let ov = Overlay::new(base, delta)
                    .unwrap_or_else(|e| unreachable!("delta shares the setting schema: {e:?}"));
                let res = prepared
                    .satisfied_delta(&setting.v, &ov)
                    .unwrap_or_else(malformed);
                cc_skipped.set(cc_skipped.get() + res.skipped as u64);
                res.violated
            }
        }
    }
}

/// A body that evaluated on the partially closed base but fails on an
/// extension is malformed (an FO formula with a free variable the base never
/// reached); the naive evaluator panics on it too.
fn malformed<T>(e: TableauError) -> T {
    panic!("upper-bound evaluation failed ({e}); the constraint body is malformed")
}
