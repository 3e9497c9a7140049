//! The one decision request: every RCDP/RCQP decision in the workspace is a
//! [`Request`] run to one of its two terminals.
//!
//! A request names its source — a plain [`Setting`] or a
//! [`PreparedSetting`] whose compiled upper bounds it reuses — and takes
//! four optional inputs: a [`SearchBudget`] (default
//! [`SearchBudget::default`]), a caller-owned [`Guard`] (default: a fresh
//! guard built from the budget), a telemetry [`Probe`] (default disabled),
//! and a prior [`Checkpoint`] to resume. [`Request::rcdp`] and
//! [`Request::rcqp`] run the existing drivers and return an [`Outcome`]: the
//! verdict, plus a checkpoint when the search stopped on a resumable limit.
//!
//! ```
//! use ric_complete::{Query, Request, SearchBudget, Setting};
//! use ric_data::{Database, RelationSchema, Schema};
//! use ric_query::parse_cq;
//!
//! let schema = Schema::from_relations(vec![RelationSchema::infinite("R", &["a"])]).unwrap();
//! let setting = Setting::open_world(schema.clone());
//! let q: Query = parse_cq(&schema, "Q(X) :- R(X).").unwrap().into();
//! let db = Database::empty(&schema);
//! let out = Request::new(&setting)
//!     .budget(&SearchBudget::small())
//!     .rcdp(&q, &db)
//!     .unwrap();
//! assert!(out.verdict.is_incomplete());
//! assert!(out.checkpoint.is_none()); // conclusive: nothing to resume
//! ```
//!
//! A prior checkpoint is validated before any search: one from another
//! decision (or an unknown schema version) is a typed
//! [`RcError::Checkpoint`]. The resume invariant (DESIGN.md §10): a decision
//! completed in K installments with non-decreasing budgets returns the same
//! verdict, witness, and search counters as one uninterrupted run at the
//! final budget, on the same engine.

use crate::budget::SearchBudget;
use crate::check::UpperCheck;
use crate::checkpoint::{
    rcdp_fingerprint, rcqp_fingerprint, Checkpoint, DecisionKind, Frontier, CHECKPOINT_VERSION,
};
use crate::guard::Guard;
use crate::prepared::PreparedSetting;
use crate::query::Query;
use crate::setting::Setting;
use crate::verdict::{BudgetLimit, QueryVerdict, RcError, Verdict};
use ric_data::Database;
use ric_telemetry::Probe;

/// What a [`Request`] decides against.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// A plain setting: each decision builds the candidate check its
    /// budget's engine runs.
    Setting(&'a Setting),
    /// A prepared setting: decisions share its candidate check, which its
    /// engine chose and compiled once.
    Prepared(&'a PreparedSetting),
}

impl<'a> From<&'a Setting> for Source<'a> {
    fn from(setting: &'a Setting) -> Self {
        Source::Setting(setting)
    }
}

impl<'a> From<&'a PreparedSetting> for Source<'a> {
    fn from(prepared: &'a PreparedSetting) -> Self {
        Source::Prepared(prepared)
    }
}

/// A decision's result: the verdict and, when the search stopped on a
/// resumable limit (valuation/candidate budget, deadline, cancellation), the
/// [`Checkpoint`] to hand the next installment.
#[derive(Clone, PartialEq, Debug)]
pub struct Outcome<T> {
    /// The verdict.
    pub verdict: T,
    /// Where to pick up, if the search was interrupted resumably.
    pub checkpoint: Option<Checkpoint>,
}

/// One RCDP/RCQP decision, built with setters and run by [`Request::rcdp`]
/// or [`Request::rcqp`]. See the [module docs](self).
#[derive(Clone, Copy)]
pub struct Request<'a> {
    source: Source<'a>,
    budget: SearchBudget,
    guard: Option<&'a Guard>,
    probe: Probe<'a>,
    prior: Option<&'a Checkpoint>,
}

impl<'a> Request<'a> {
    /// A request against `source` with the default budget, a fresh guard,
    /// no telemetry, and no prior checkpoint.
    pub fn new(source: impl Into<Source<'a>>) -> Self {
        Request {
            source: source.into(),
            budget: SearchBudget::default(),
            guard: None,
            probe: Probe::disabled(),
            prior: None,
        }
    }

    /// Search under `budget`. A prepared source keeps its own engine's
    /// candidate check.
    pub fn budget(mut self, budget: &SearchBudget) -> Self {
        self.budget = *budget;
        self
    }

    /// Run under a caller-owned [`Guard`], so one deadline and one
    /// [`CancelToken`](crate::CancelToken) span this decision and any
    /// nested decider calls.
    pub fn guard(mut self, guard: &'a Guard) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Report counters, gauges, notes, and spans to `probe` (see the
    /// crate-level Observability notes).
    pub fn probe(mut self, probe: Probe<'a>) -> Self {
        self.probe = probe;
        self
    }

    /// Resume from `prior`, the checkpoint of an earlier installment of the
    /// same decision (`None` decides from scratch).
    pub fn resume(mut self, prior: Option<&'a Checkpoint>) -> Self {
        self.prior = prior;
        self
    }

    /// Decide RCDP: is `db` complete for `query` relative to the source's
    /// `(D_m, V)`? Dispatches to the exact Σᵖ₂ decider when both `L_Q` and
    /// `L_C` avoid negation and recursion, and to the bounded semi-decision
    /// otherwise. Errors if `db` is not partially closed.
    pub fn rcdp(&self, query: &Query, db: &Database) -> Result<Outcome<Verdict>, RcError> {
        let fingerprint = |setting: &Setting| rcdp_fingerprint(setting, query, db);
        self.run(
            DecisionKind::Rcdp,
            fingerprint,
            |setting| UpperCheck::new(setting, self.budget.engine, db),
            |setting, check, reused, guard, probe| {
                let prior = self.prior.and_then(|cp| cp.frontier.ledger());
                let (verdict, ledger) = crate::rcdp::decide(
                    setting,
                    query,
                    db,
                    &self.budget,
                    guard,
                    probe,
                    check,
                    reused,
                    prior,
                )?;
                let frontier = match (&verdict, ledger) {
                    (Verdict::Unknown { stats }, Some(ledger)) if resumable_limit(stats.limit) => {
                        let frontier = Frontier::from_ledger(ledger);
                        Some((frontier.committed_ticks(), frontier))
                    }
                    _ => None,
                };
                Ok((verdict, frontier))
            },
        )
    }

    /// Decide RCQP: does any database complete for `query` relative to the
    /// source's `(D_m, V)` exist? The RCQP search keeps no reusable
    /// frontier, so its checkpoint is a [`Frontier::Restart`] marker that
    /// carries the attempt count across installments.
    pub fn rcqp(&self, query: &Query) -> Result<Outcome<QueryVerdict>, RcError> {
        let fingerprint = |setting: &Setting| rcqp_fingerprint(setting, query);
        self.run(
            DecisionKind::Rcqp,
            fingerprint,
            |setting| crate::rcqp::plain_check(setting, self.budget.engine),
            |setting, check, reused, guard, probe| {
                let verdict = crate::rcqp::rcqp_inner(
                    setting,
                    query,
                    &self.budget,
                    guard,
                    probe,
                    check,
                    reused,
                )?;
                crate::rcqp::emit_query_verdict(probe, &verdict);
                let frontier = match &verdict {
                    QueryVerdict::Unknown { stats } if resumable_limit(stats.limit) => {
                        Some((stats.valuations.max(stats.candidates), Frontier::Restart))
                    }
                    _ => None,
                };
                Ok((verdict, frontier))
            },
        )
    }

    /// Run one decision: resolve its one candidate check (a prepared
    /// source's own, else the one `plain_check` builds), take the caller's
    /// guard or a fresh one from the budget, validate the prior against the
    /// decision's fingerprint, run `decide` with the check, and capture a
    /// checkpoint from the `(committed ticks, frontier)` it hands back. The fingerprint is computed at most once, and only when
    /// a prior is given or a checkpoint is captured.
    fn run<T>(
        &self,
        kind: DecisionKind,
        fingerprint: impl Fn(&Setting) -> u64,
        plain_check: impl FnOnce(&Setting) -> Result<UpperCheck, RcError>,
        decide: impl FnOnce(
            &'a Setting,
            &UpperCheck,
            bool,
            &Guard,
            Probe<'_>,
        ) -> Result<(T, Option<(u64, Frontier)>), RcError>,
    ) -> Result<Outcome<T>, RcError> {
        let own_check;
        let (setting, check, reused) = match self.source {
            Source::Setting(setting) => {
                own_check = plain_check(setting)?;
                (setting, &own_check, false)
            }
            Source::Prepared(prepared) => (prepared.setting(), prepared.check(), true),
        };
        let own_guard;
        let guard = match self.guard {
            Some(guard) => guard,
            None => {
                own_guard = Guard::new(&self.budget);
                &own_guard
            }
        };
        let probe = self.probe.with_ticks(guard);
        let mut validated = None;
        if let Some(prior) = self.prior {
            let fp = fingerprint(setting);
            prior.validate(kind, fp)?;
            validated = Some(fp);
            probe.note("resume.attempt", || {
                prior.attempt.saturating_add(1).to_string()
            });
        }
        let (verdict, frontier) = decide(setting, check, reused, guard, probe)?;
        let checkpoint = frontier.map(|(spent_ticks, frontier)| {
            let cp = Checkpoint {
                version: CHECKPOINT_VERSION,
                kind,
                fingerprint: validated.unwrap_or_else(|| fingerprint(setting)),
                attempt: self.prior.map_or(1, |c| c.attempt.saturating_add(1)),
                spent_ticks,
                frontier,
            };
            emit_checkpoint(probe, &cp);
            cp
        });
        Ok(Outcome {
            verdict,
            checkpoint,
        })
    }
}

/// Emit the `checkpoint.captured` and machine-readable
/// `explain.frontier.json` notes for a captured checkpoint.
fn emit_checkpoint(probe: Probe<'_>, cp: &Checkpoint) {
    probe.note("checkpoint.captured", || {
        let what = match &cp.frontier {
            Frontier::RcdpChunks { n_chunks, cleared } => {
                format!("{}/{} chunk(s) cleared", cleared.len(), n_chunks)
            }
            Frontier::BoundedSizes { next_size, .. } => {
                format!("sizes below {next_size} cleared")
            }
            Frontier::Restart => "restart marker".into(),
        };
        format!(
            "attempt {} committed {} tick(s); {what}",
            cp.attempt, cp.spent_ticks
        )
    });
    probe.note("explain.frontier.json", || cp.to_json().to_string());
}

/// Is an `Unknown` verdict with this limit worth checkpointing? Structural
/// limits (pool bound, extension-size cap, unsupported input) do not improve
/// under a bigger budget; budget and interruption limits do.
fn resumable_limit(limit: BudgetLimit) -> bool {
    matches!(
        limit,
        BudgetLimit::MaxValuations
            | BudgetLimit::MaxCandidates
            | BudgetLimit::Deadline
            | BudgetLimit::Cancelled
    )
}
