//! Typed diagnostics with stable codes.
//!
//! Every analysis finding is a [`Diagnostic`]: a stable machine-readable
//! [`Code`] (`RIC001`, `RIC002`, …), a [`Severity`], a [`Pointer`] to the
//! offending query / constraint / rule, and a human-readable message. The
//! codes are part of the crate's public contract — tools may match on them —
//! so a code is never reused for a different finding (see DESIGN.md §9 for
//! the full table).

use ric_telemetry::Json;
use std::fmt;

/// How bad a finding is.
///
/// `Error` findings describe settings that would crash, loop, or silently
/// mis-answer inside the deciders; the analysis-gated entry points reject
/// them. `Warn` findings are legal but almost certainly unintended (an
/// unsatisfiable query body, a constraint that can never fire). `Info`
/// findings are observations (a certified fragment downgrade, a removable
/// duplicate atom).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// An observation; no action needed.
    Info,
    /// Legal but suspicious; the decision still runs.
    Warn,
    /// The setting is rejected by the gated entry points.
    Error,
}

impl Severity {
    /// Stable lower-case name (`"info"` / `"warn"` / `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// What a diagnostic is about.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pointer {
    /// The query under analysis.
    Query,
    /// Disjunct `i` of the query (UCQ / ∃FO⁺ expansion).
    QueryDisjunct(usize),
    /// Rule `i` of the query's FP program.
    QueryRule(usize),
    /// Upper-bound containment constraint `i` of the setting.
    Constraint(usize),
    /// Lower-bound constraint `i` of the setting.
    LowerBound(usize),
    /// The setting as a whole.
    Setting,
}

impl fmt::Display for Pointer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pointer::Query => write!(f, "query"),
            Pointer::QueryDisjunct(i) => write!(f, "query disjunct {i}"),
            Pointer::QueryRule(i) => write!(f, "query rule {i}"),
            Pointer::Constraint(i) => write!(f, "constraint {i}"),
            Pointer::LowerBound(i) => write!(f, "lower bound {i}"),
            Pointer::Setting => write!(f, "setting"),
        }
    }
}

impl Pointer {
    fn to_json(self) -> Json {
        Json::from(self.to_string())
    }
}

/// Stable diagnostic codes. The numeric identifier (`RIC001`…) never changes
/// meaning across releases; new findings get new codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Code {
    /// `RIC001` — an FO variable is used where the evaluator would find it
    /// unbound (not in the head, not under a quantifier): unsafe negation /
    /// range-restriction failure.
    FoUnsafeVariable,
    /// `RIC002` — FO formula nesting exceeds the evaluator's depth cap.
    FoTooDeep,
    /// `RIC003` — a query atom names a relation that is not in the schema.
    QueryUnknownRelation,
    /// `RIC004` — a query atom's argument count disagrees with the schema.
    QueryArityMismatch,
    /// `RIC005` — the FP program fails validation (range restriction, IDB
    /// arity, body length).
    FpInvalid,
    /// `RIC006` — an FP rule can never contribute to the output predicate.
    FpUnreachableRule,
    /// `RIC007` — the FP program is negation-free, hence trivially
    /// stratified; the inflationary and least fixpoints coincide.
    FpTriviallyStratified,
    /// `RIC008` — contradictory equalities (`x = a ∧ x = b` with `a ≠ b`)
    /// make a CQ body unsatisfiable.
    CqContradictoryEq,
    /// `RIC009` — a `≠` atom contradicts the equalities (`t ≠ t` after
    /// unification): the CQ body is unsatisfiable.
    CqUnsatisfiableNeq,
    /// `RIC010` — a `≠` atom compares distinct constants: always true,
    /// removable.
    CqTautologicalNeq,
    /// `RIC011` — a duplicate relation atom in a CQ body: removable.
    CqDuplicateAtom,
    /// `RIC020` — a CC body's output arity disagrees with its right-hand
    /// side projection.
    CcArityMismatch,
    /// `RIC021` — a CC projection (either side) selects a column that does
    /// not exist: `p` is not a projection of the named relation.
    CcBadProjection,
    /// `RIC022` — a CC references a relation missing from the corresponding
    /// schema.
    CcUnknownRelation,
    /// `RIC023` — a CC body is statically unsatisfiable: the constraint is
    /// trivially satisfied and never restricts anything.
    CcTriviallySatisfied,
    /// `RIC024` — `π(R) ⊆ ∅` forces `R` to be empty in every partially
    /// closed database.
    CcForcesEmpty,
    /// `RIC030` — a proven fragment downgrade: the object is written in a
    /// larger language than it needs.
    Downgrade,
    /// `RIC031` — a candidate rewrite failed its proof and was discarded
    /// (the declared fragment is kept).
    UncertifiedRewrite,
    /// `RIC040` — a containment constraint is implied by the rest of `V`
    /// (relative to the fixed master data) and can be dropped from the
    /// per-candidate recheck loop without changing any decision.
    ImpliedCc,
    /// `RIC041` — the query body is statically unsatisfiable under `V`:
    /// no legal extension can ever produce an answer.
    UnsatUnderV,
    /// `RIC042` — the decision is statically `Complete` (proven): either
    /// every query disjunct dies under `V`, or a cover fact applies.
    StaticallyComplete,
    /// `RIC043` — a static conclusion of the symbolic reasoner failed its
    /// proof and was discarded.
    UncertifiedStatic,
    /// `RIC044` — the symbolic reasoner degraded on a fragment outside its
    /// reach (FO/FP bodies, inequalities, oversized canonical databases).
    ReasonDegraded,
}

impl Code {
    /// The stable identifier, e.g. `"RIC001"`.
    pub fn id(self) -> &'static str {
        match self {
            Code::FoUnsafeVariable => "RIC001",
            Code::FoTooDeep => "RIC002",
            Code::QueryUnknownRelation => "RIC003",
            Code::QueryArityMismatch => "RIC004",
            Code::FpInvalid => "RIC005",
            Code::FpUnreachableRule => "RIC006",
            Code::FpTriviallyStratified => "RIC007",
            Code::CqContradictoryEq => "RIC008",
            Code::CqUnsatisfiableNeq => "RIC009",
            Code::CqTautologicalNeq => "RIC010",
            Code::CqDuplicateAtom => "RIC011",
            Code::CcArityMismatch => "RIC020",
            Code::CcBadProjection => "RIC021",
            Code::CcUnknownRelation => "RIC022",
            Code::CcTriviallySatisfied => "RIC023",
            Code::CcForcesEmpty => "RIC024",
            Code::Downgrade => "RIC030",
            Code::UncertifiedRewrite => "RIC031",
            Code::ImpliedCc => "RIC040",
            Code::UnsatUnderV => "RIC041",
            Code::StaticallyComplete => "RIC042",
            Code::UncertifiedStatic => "RIC043",
            Code::ReasonDegraded => "RIC044",
        }
    }

    /// The severity this code always carries.
    pub fn severity(self) -> Severity {
        match self {
            Code::FoUnsafeVariable
            | Code::FoTooDeep
            | Code::QueryUnknownRelation
            | Code::QueryArityMismatch
            | Code::FpInvalid
            | Code::CcArityMismatch
            | Code::CcBadProjection
            | Code::CcUnknownRelation => Severity::Error,
            Code::FpUnreachableRule
            | Code::CqContradictoryEq
            | Code::CqUnsatisfiableNeq
            | Code::CcTriviallySatisfied
            | Code::CcForcesEmpty
            | Code::UncertifiedRewrite
            | Code::UnsatUnderV
            | Code::UncertifiedStatic => Severity::Warn,
            Code::FpTriviallyStratified
            | Code::CqTautologicalNeq
            | Code::CqDuplicateAtom
            | Code::Downgrade
            | Code::ImpliedCc
            | Code::StaticallyComplete
            | Code::ReasonDegraded => Severity::Info,
        }
    }
}

/// One analysis finding.
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Severity (always [`Code::severity`]).
    pub severity: Severity,
    /// What the finding is about.
    pub pointer: Pointer,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic with the code's canonical severity.
    pub fn new(code: Code, pointer: Pointer, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            pointer,
            message: message.into(),
        }
    }

    /// Serialize through the telemetry JSON model, e.g. for a
    /// [`ric_telemetry::JsonlSink`]-adjacent artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("code", Json::from(self.code.id())),
            ("severity", Json::from(self.severity.as_str())),
            ("pointer", self.pointer.to_json()),
            ("message", Json::from(self.message.clone())),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.code.id(),
            self.severity.as_str(),
            self.pointer,
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let all = [
            Code::FoUnsafeVariable,
            Code::FoTooDeep,
            Code::QueryUnknownRelation,
            Code::QueryArityMismatch,
            Code::FpInvalid,
            Code::FpUnreachableRule,
            Code::FpTriviallyStratified,
            Code::CqContradictoryEq,
            Code::CqUnsatisfiableNeq,
            Code::CqTautologicalNeq,
            Code::CqDuplicateAtom,
            Code::CcArityMismatch,
            Code::CcBadProjection,
            Code::CcUnknownRelation,
            Code::CcTriviallySatisfied,
            Code::CcForcesEmpty,
            Code::Downgrade,
            Code::UncertifiedRewrite,
            Code::ImpliedCc,
            Code::UnsatUnderV,
            Code::StaticallyComplete,
            Code::UncertifiedStatic,
            Code::ReasonDegraded,
        ];
        let ids: std::collections::BTreeSet<_> = all.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), all.len(), "duplicate diagnostic code");
        for c in all {
            assert!(c.id().starts_with("RIC"));
        }
    }

    #[test]
    fn display_and_json_carry_the_code() {
        let d = Diagnostic::new(Code::FoUnsafeVariable, Pointer::Query, "x is unbound");
        assert!(d.to_string().contains("RIC001"));
        assert_eq!(
            d.to_json().get("code").and_then(Json::as_str),
            Some("RIC001")
        );
        assert_eq!(
            d.to_json().get("severity").and_then(Json::as_str),
            Some("error")
        );
    }

    #[test]
    fn severity_orders_info_warn_error() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }
}
