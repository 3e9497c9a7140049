//! Verdicts, certificates, and structured search statistics.

use ric_data::{Database, Tuple};
use ric_query::tableau::TableauError;
use std::fmt;

/// A certified counterexample to relative completeness: an extension Δ such
/// that `(D ∪ Δ, D_m) |= V` but `Q(D ∪ Δ) ≠ Q(D)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CounterExample {
    /// The tuples to add (disjoint from `D`).
    pub delta: Database,
    /// A tuple in `Q(D ∪ Δ) \ Q(D)` witnessing the change.
    pub new_answer: Tuple,
}

/// Which specific bound ended a search without a decision.
///
/// Every `Unknown` verdict names the limit that was hit, so callers can react
/// programmatically — raise exactly the right [`SearchBudget`] knob, shrink
/// the instance, or accept the epistemic state the undecidability theorems
/// force.
///
/// [`SearchBudget`]: crate::SearchBudget
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetLimit {
    /// [`SearchBudget::max_valuations`] ran out during valuation enumeration.
    ///
    /// [`SearchBudget::max_valuations`]: crate::SearchBudget::max_valuations
    MaxValuations,
    /// [`SearchBudget::max_candidates`] ran out during candidate enumeration.
    ///
    /// [`SearchBudget::max_candidates`]: crate::SearchBudget::max_candidates
    MaxCandidates,
    /// The bounded extension search exhausted every extension of at most
    /// [`SearchBudget::max_delta_tuples`] tuples without a decision.
    ///
    /// [`SearchBudget::max_delta_tuples`]: crate::SearchBudget::max_delta_tuples
    MaxDeltaTuples,
    /// The completion loop exceeded [`SearchBudget::max_witness_tuples`].
    ///
    /// [`SearchBudget::max_witness_tuples`]: crate::SearchBudget::max_witness_tuples
    MaxWitnessTuples,
    /// The fresh pool ([`SearchBudget::fresh_values`]) was smaller than the
    /// small-model bound requires, so an exhausted search is inconclusive.
    ///
    /// [`SearchBudget::fresh_values`]: crate::SearchBudget::fresh_values
    FreshValues,
    /// A static pool cap: the candidate tuple space itself is too large to
    /// materialise, independent of the configured budget.
    PoolBound,
    /// A structural limitation of the search strategy, not a budget (e.g.
    /// lower-bound constraints whose bodies are not projections).
    Unsupported,
    /// The wall-clock deadline ([`SearchBudget::deadline`]) expired before a
    /// decision was reached.
    ///
    /// [`SearchBudget::deadline`]: crate::SearchBudget::deadline
    Deadline,
    /// A [`CancelToken`](crate::CancelToken) fired and the decision was
    /// aborted cooperatively.
    Cancelled,
}

impl BudgetLimit {
    /// A stable machine-readable name (used in telemetry notes and the
    /// `BENCH_TABLE*.json` artifacts).
    pub fn name(&self) -> &'static str {
        match self {
            BudgetLimit::MaxValuations => "max_valuations",
            BudgetLimit::MaxCandidates => "max_candidates",
            BudgetLimit::MaxDeltaTuples => "max_delta_tuples",
            BudgetLimit::MaxWitnessTuples => "max_witness_tuples",
            BudgetLimit::FreshValues => "fresh_values",
            BudgetLimit::PoolBound => "pool_bound",
            BudgetLimit::Unsupported => "unsupported",
            BudgetLimit::Deadline => "deadline",
            BudgetLimit::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for BudgetLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How far a search went before stopping without a decision.
///
/// Carried by [`Verdict::Unknown`] and [`QueryVerdict::Unknown`] in place of
/// the free-text description earlier revisions used; `Display` still prints
/// that human-readable description, so log output is unchanged, while
/// [`SearchStats::limit`] identifies the exhausted bound structurally.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SearchStats {
    /// The bound that ended the search.
    pub limit: BudgetLimit,
    /// Valuations examined before stopping (0 when the search never reached
    /// valuation enumeration).
    pub valuations: u64,
    /// Candidate extensions / witness databases examined before stopping.
    pub candidates: u64,
    /// Human-readable description of the bound that was hit; this is what
    /// `Display` prints.
    pub detail: String,
}

impl SearchStats {
    /// Stats for a search stopped by `limit`, described by `detail`.
    pub fn new(limit: BudgetLimit, detail: impl Into<String>) -> Self {
        SearchStats {
            limit,
            valuations: 0,
            candidates: 0,
            detail: detail.into(),
        }
    }

    /// Record how many valuations were examined.
    pub fn with_valuations(mut self, n: u64) -> Self {
        self.valuations = n;
        self
    }

    /// Record how many candidates were examined.
    pub fn with_candidates(mut self, n: u64) -> Self {
        self.candidates = n;
        self
    }
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

/// Outcome of an RCDP decision.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// `D` is complete for `Q` relative to `(D_m, V)`.
    Complete,
    /// `D` is not complete; the certificate is checkable.
    Incomplete(CounterExample),
    /// The search budget was exhausted before a decision was reached (or the
    /// language combination is undecidable and the bounded search found no
    /// counterexample).
    Unknown {
        /// Which bound was hit, and how far the search went.
        stats: SearchStats,
    },
}

impl Verdict {
    /// Is this `Complete`?
    pub fn is_complete(&self) -> bool {
        matches!(self, Verdict::Complete)
    }

    /// Is this `Incomplete`?
    pub fn is_incomplete(&self) -> bool {
        matches!(self, Verdict::Incomplete(_))
    }

    /// An `Unknown` verdict carrying `stats`.
    pub fn unknown(stats: SearchStats) -> Self {
        Verdict::Unknown { stats }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Complete => write!(f, "complete"),
            Verdict::Incomplete(ce) => {
                write!(
                    f,
                    "incomplete (adding {} tuple(s) yields new answer {})",
                    ce.delta.tuple_count(),
                    ce.new_answer
                )
            }
            Verdict::Unknown { stats } => write!(f, "unknown ({stats})"),
        }
    }
}

/// Outcome of an RCQP decision.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QueryVerdict {
    /// Some complete database exists; `witness`, when present, is one such
    /// database (certified by the RCDP decider before being returned).
    Nonempty {
        /// A relatively complete database, if one was constructed within
        /// budget.
        witness: Option<Database>,
    },
    /// No database is complete for the query relative to `(D_m, V)`.
    Empty,
    /// Budget exhausted before a decision.
    Unknown {
        /// Which bound was hit, and how far the search went.
        stats: SearchStats,
    },
}

impl QueryVerdict {
    /// Is this `Nonempty`?
    pub fn is_nonempty(&self) -> bool {
        matches!(self, QueryVerdict::Nonempty { .. })
    }

    /// Is this `Empty`?
    pub fn is_empty_verdict(&self) -> bool {
        matches!(self, QueryVerdict::Empty)
    }

    /// An `Unknown` verdict carrying `stats`.
    pub fn unknown(stats: SearchStats) -> Self {
        QueryVerdict::Unknown { stats }
    }
}

impl fmt::Display for QueryVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryVerdict::Nonempty { witness: Some(w) } => {
                write!(f, "nonempty (witness with {} tuple(s))", w.tuple_count())
            }
            QueryVerdict::Nonempty { witness: None } => write!(f, "nonempty"),
            QueryVerdict::Empty => write!(f, "empty"),
            QueryVerdict::Unknown { stats } => write!(f, "unknown ({stats})"),
        }
    }
}

/// Errors raised by the deciders.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RcError {
    /// The input database is not partially closed: `(D, D_m) ⊭ V`. Both
    /// problems take partially closed databases as input (Section 2.1).
    NotPartiallyClosed,
    /// A query or constraint body is malformed (unsafe variable, …).
    Query(TableauError),
    /// A datalog constraint or query failed validation.
    Program(String),
    /// An entry point was invoked outside its supported language combination
    /// (e.g. the exact Σᵖ₂ decider on an FO query). Formerly a panic.
    Unsupported(String),
    /// The prior [`Checkpoint`](crate::Checkpoint) handed to a
    /// [`Request`](crate::Request) does not belong to this decision (wrong
    /// schema version, wrong decision kind, or a fingerprint mismatch); the
    /// search never started.
    Checkpoint(crate::checkpoint::CheckpointError),
}

impl From<TableauError> for RcError {
    fn from(e: TableauError) -> Self {
        RcError::Query(e)
    }
}

impl From<crate::checkpoint::CheckpointError> for RcError {
    fn from(e: crate::checkpoint::CheckpointError) -> Self {
        RcError::Checkpoint(e)
    }
}

impl fmt::Display for RcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RcError::NotPartiallyClosed => {
                write!(f, "input database violates the containment constraints")
            }
            RcError::Query(e) => write!(f, "malformed query: {e}"),
            RcError::Program(e) => write!(f, "malformed datalog program: {e}"),
            RcError::Unsupported(e) => write!(f, "unsupported invocation: {e}"),
            RcError::Checkpoint(e) => write!(f, "checkpoint rejected: {e}"),
        }
    }
}

impl std::error::Error for RcError {}
