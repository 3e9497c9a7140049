//! The facade's one decision request.

use crate::analyzed::gate;
use crate::guard::{isolate, Decision, DecisionError};
use crate::reasoned::ReasonedSetting;
use ric_complete::{
    Checkpoint, Guard, PreparedSetting, Query, QueryVerdict, SearchBudget, Setting, Verdict,
};
use ric_data::Database;
use ric_telemetry::Probe;

/// What a facade [`Request`] decides against.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// A plain setting.
    Setting(&'a Setting),
    /// A setting compiled once by [`prepare`](crate::prepare).
    Prepared(&'a PreparedSetting),
    /// A `(setting, query)` pair compiled through the symbolic prover; its
    /// decisions must ask about [`ReasonedSetting::query`].
    Reasoned(&'a ReasonedSetting),
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

impl<'a> From<&'a ReasonedSetting> for Source<'a> {
    fn from(reasoned: &'a ReasonedSetting) -> Self {
        Source::Reasoned(reasoned)
    }
}

/// One panic-isolated, explained RCDP/RCQP decision, built with setters and
/// run by [`Request::rcdp`] or [`Request::rcqp`].
///
/// A request takes the same setters as the core [`ric_complete::Request`] —
/// budget, guard, probe, prior checkpoint — and adds only what core cannot
/// know:
///
/// * the [`ReasonedSetting`] source, whose certified static verdicts
///   short-circuit the search;
/// * the static-analysis gate, as its own constructor
///   ([`Request::analyzed`]), so only a plain setting can be analyzed;
/// * panic isolation, always on: a panic anywhere inside the decision (or
///   an attached sink) becomes [`DecisionError::Panic`].
///
/// Both terminals return a [`Decision`]: the verdict, its
/// [`Explain`](ric_telemetry::Explain) artifact, and the checkpoint to
/// resume from when the search stopped on a resumable limit.
#[derive(Clone, Copy)]
pub struct Request<'a> {
    source: Source<'a>,
    analyzed: bool,
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
            analyzed: false,
            budget: SearchBudget::default(),
            guard: None,
            probe: Probe::disabled(),
            prior: None,
        }
    }

    /// A request behind the static-analysis gate: Error-level settings are
    /// rejected with [`DecisionError::Rejected`] before any search, and
    /// certified minimal-fragment rewrites dispatch the decision to the
    /// cheapest Table I/II cell. The probe sees the `analysis.report` note
    /// and the `analysis.downgrade` / `analysis.rejected` counters.
    pub fn analyzed(setting: &'a Setting) -> Self {
        Request {
            analyzed: true,
            ..Request::new(setting)
        }
    }

    /// Search under `budget`. A prepared or reasoned source keeps its own
    /// engine.
    pub fn budget(mut self, budget: &SearchBudget) -> Self {
        self.budget = *budget;
        self
    }

    /// Run under a caller-owned [`Guard`] (deadline,
    /// [`CancelToken`](ric_complete::CancelToken), fault plan).
    pub fn guard(mut self, guard: &'a Guard) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Tee the decision's telemetry into `probe`.
    pub fn probe(mut self, probe: Probe<'a>) -> Self {
        self.probe = probe;
        self
    }

    /// Resume from `prior`, the checkpoint of an earlier installment of the
    /// same decision (`None` decides from scratch). A checkpoint from
    /// another decision is rejected with [`DecisionError::Checkpoint`]
    /// before any search.
    pub fn resume(mut self, prior: Option<&'a Checkpoint>) -> Self {
        self.prior = prior;
        self
    }

    /// The core request these settings describe, against `source` and
    /// reporting to `probe` (the isolated decision's teed probe).
    fn core<'p>(
        &self,
        source: impl Into<ric_complete::Source<'p>>,
        probe: Probe<'p>,
    ) -> ric_complete::Request<'p>
    where
        'a: 'p,
    {
        let req = ric_complete::Request::new(source)
            .budget(&self.budget)
            .probe(probe)
            .resume(self.prior);
        match self.guard {
            Some(guard) => req.guard(guard),
            None => req,
        }
    }

    /// Decide RCDP: is `db` complete for `query`? See
    /// [`ric_complete::Request::rcdp`].
    pub fn rcdp(&self, query: &Query, db: &Database) -> Result<Decision<Verdict>, DecisionError> {
        isolate(self.probe, |p| match self.source {
            Source::Setting(setting) if self.analyzed => {
                let (setting, query) = gate(setting, query, p)?;
                Ok(self.core(&setting, p).rcdp(&query, db)?)
            }
            Source::Setting(setting) => Ok(self.core(setting, p).rcdp(query, db)?),
            Source::Prepared(prepared) => Ok(self.core(prepared, p).rcdp(query, db)?),
            Source::Reasoned(reasoned) => {
                reasoned.expect_query(query)?;
                let req = self.core(reasoned.prepared(), p);
                Ok(reasoned.decide(req, self.prior, p, db)?)
            }
        })
    }

    /// Decide RCQP: does any database complete for `query` exist? See
    /// [`ric_complete::Request::rcqp`]. A reasoned source runs the search
    /// over its minimized preparation (RCQP's existential form is not
    /// decided by the RCDP static facts).
    pub fn rcqp(&self, query: &Query) -> Result<Decision<QueryVerdict>, DecisionError> {
        isolate(self.probe, |p| match self.source {
            Source::Setting(setting) if self.analyzed => {
                let (setting, query) = gate(setting, query, p)?;
                Ok(self.core(&setting, p).rcqp(&query)?)
            }
            Source::Setting(setting) => Ok(self.core(setting, p).rcqp(query)?),
            Source::Prepared(prepared) => Ok(self.core(prepared, p).rcqp(query)?),
            Source::Reasoned(reasoned) => {
                reasoned.expect_query(query)?;
                Ok(self.core(reasoned.prepared(), p).rcqp(query)?)
            }
        })
    }
}
