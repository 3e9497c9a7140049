//! Resumable decisions: versioned, JSON-serializable search checkpoints.
//!
//! Every `Unknown` verdict used to throw away the explored frontier: a caller
//! retrying with a bigger budget re-paid the full search. This module makes
//! interrupted decisions resumable. When a decider stops on a *resumable*
//! limit (valuation/candidate budget, deadline, cancellation) the completed
//! portion of the search is captured into a [`Checkpoint`]:
//!
//! - exact RCDP (all engines): the set of *cleared* enumeration chunks — one
//!   chunk per `(tableau, depth-0 candidate)` in the driver's canonical
//!   order — each with its committed per-chunk stats;
//! - bounded RCDP (FO/FP fallback): the next unexplored extension size plus
//!   the cumulative stats of all fully-searched smaller sizes;
//! - RCQP: a coarse restart marker (the candidate-database search is cheap
//!   relative to the nested RCDP calls and keeps no reusable frontier).
//!
//! The resume invariant, pinned by the differential suite
//! (`tests/resume_differential.rs`): for every installment `i` run with
//! budget `b_i` (non-decreasing), the resumed decision's verdict, witness,
//! and scoped telemetry counters are identical to a single uninterrupted run
//! at budget `b_i` on the same engine. Partial work inside
//! an uncleared chunk (or size) is deliberately discarded — the unit re-runs
//! from its start under a meter primed with the committed ticks, which is
//! exactly the state an uninterrupted run has when it reaches that unit.
//!
//! Checkpoints are versioned ([`CHECKPOINT_VERSION`]) and validated against
//! the decision they claim to belong to via a structural fingerprint of
//! `(setting, query, database)`; mismatches surface as typed
//! [`CheckpointError`]s instead of silently resuming the wrong search.

use crate::budget::SearchBudget;
use crate::guard::Guard;
use crate::query::Query;
use crate::rcdp::{ChunkStats, Ledger};
use crate::semidecide::BoundedResume;
use crate::setting::Setting;
use crate::verdict::{BudgetLimit, QueryVerdict, RcError, Verdict};
use ric_data::Database;
use ric_telemetry::{json, Json, Probe};
use std::fmt;

/// Current checkpoint schema version. Parsers reject anything else with
/// [`CheckpointError::UnsupportedVersion`].
pub const CHECKPOINT_VERSION: u64 = 1;

/// Which decision problem a checkpoint belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecisionKind {
    /// The relatively complete *database* problem.
    Rcdp,
    /// The relatively complete *query* problem.
    Rcqp,
}

impl DecisionKind {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            DecisionKind::Rcdp => "rcdp",
            DecisionKind::Rcqp => "rcqp",
        }
    }

    fn parse(s: &str) -> Option<DecisionKind> {
        match s {
            "rcdp" => Some(DecisionKind::Rcdp),
            "rcqp" => Some(DecisionKind::Rcqp),
            _ => None,
        }
    }
}

impl fmt::Display for DecisionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Committed search progress for one completed unit of work (a cleared
/// enumeration chunk, or the cumulative total of fully-searched extension
/// sizes). Public mirror of the engine's internal per-chunk stats.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Progress {
    /// Metered ticks (valuations or candidates) spent.
    pub ticks: u64,
    /// Containment-constraint checks performed.
    pub cc_checks: u64,
    /// Constraint checks skipped by delta-awareness.
    pub cc_skipped: u64,
    /// Index probes issued.
    pub probes: u64,
    /// Query evaluations (bounded search only).
    pub query_evals: u64,
    /// Head-tuple prunes (exact search only).
    pub head_prunes: u64,
    /// Per-depth candidate counts (exact search profiler).
    pub depth_candidates: Vec<u64>,
    /// Per-depth prune counts (exact search profiler).
    pub depth_pruned: Vec<u64>,
    /// Pruning attribution by violated-constraint index.
    pub cc_viol: Vec<u64>,
}

impl Progress {
    pub(crate) fn from_stats(stats: &ChunkStats) -> Progress {
        Progress {
            ticks: stats.ticks,
            cc_checks: stats.cc_checks,
            cc_skipped: stats.cc_skipped,
            probes: stats.probes,
            query_evals: stats.query_evals,
            head_prunes: stats.head_prunes,
            depth_candidates: stats.depth_candidates.to_vec(),
            depth_pruned: stats.depth_pruned.to_vec(),
            cc_viol: stats.cc_viol.to_vec(),
        }
    }

    pub(crate) fn to_stats(&self) -> ChunkStats {
        fn pad<const N: usize>(v: &[u64]) -> [u64; N] {
            std::array::from_fn(|i| v.get(i).copied().unwrap_or(0))
        }
        ChunkStats {
            ticks: self.ticks,
            cc_checks: self.cc_checks,
            cc_skipped: self.cc_skipped,
            probes: self.probes,
            query_evals: self.query_evals,
            head_prunes: self.head_prunes,
            depth_candidates: pad(&self.depth_candidates),
            depth_pruned: pad(&self.depth_pruned),
            cc_viol: pad(&self.cc_viol),
        }
    }

    fn to_json(&self) -> Json {
        let arr = |v: &[u64]| Json::arr(v.iter().map(|&x| Json::from(x)));
        Json::obj([
            ("ticks", Json::from(self.ticks)),
            ("cc_checks", Json::from(self.cc_checks)),
            ("cc_skipped", Json::from(self.cc_skipped)),
            ("probes", Json::from(self.probes)),
            ("query_evals", Json::from(self.query_evals)),
            ("head_prunes", Json::from(self.head_prunes)),
            ("depth_candidates", arr(&self.depth_candidates)),
            ("depth_pruned", arr(&self.depth_pruned)),
            ("cc_viol", arr(&self.cc_viol)),
        ])
    }

    fn from_json(v: &Json) -> Result<Progress, CheckpointError> {
        Ok(Progress {
            ticks: u64_field(v, "ticks")?,
            cc_checks: u64_field(v, "cc_checks")?,
            cc_skipped: u64_field(v, "cc_skipped")?,
            probes: u64_field(v, "probes")?,
            query_evals: u64_field(v, "query_evals")?,
            head_prunes: u64_field(v, "head_prunes")?,
            depth_candidates: u64_list(v, "depth_candidates")?,
            depth_pruned: u64_list(v, "depth_pruned")?,
            cc_viol: u64_list(v, "cc_viol")?,
        })
    }
}

/// The unexplored remainder of an interrupted search, in resumable form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Frontier {
    /// Exact RCDP: chunks of the valuation enumeration already *cleared*
    /// (fully searched without finding a counterexample), keyed by chunk
    /// index over the decision's canonical chunk list. `n_chunks` pins the
    /// layout so a checkpoint cannot be replayed against a different shape.
    RcdpChunks {
        /// Total chunks in the decision's canonical chunk list.
        n_chunks: u64,
        /// `(chunk index, committed stats)` for each cleared chunk.
        cleared: Vec<(u64, Progress)>,
    },
    /// Bounded RCDP: every extension size `< next_size` is fully searched;
    /// `progress` is the cumulative committed stats over those sizes.
    BoundedSizes {
        /// First unexplored extension size.
        next_size: u64,
        /// Cumulative stats over the fully-searched smaller sizes.
        progress: Progress,
    },
    /// No reusable frontier: resume re-runs the decision from scratch.
    Restart,
}

impl Frontier {
    /// The engine ledger this frontier commits, if any.
    fn ledger(&self) -> Option<Ledger> {
        match self {
            Frontier::RcdpChunks { n_chunks, cleared } => Some(Ledger::Exact((
                *n_chunks as usize,
                cleared
                    .iter()
                    .map(|(idx, p)| (*idx as usize, p.to_stats()))
                    .collect(),
            ))),
            Frontier::BoundedSizes {
                next_size,
                progress,
            } => Some(Ledger::Bounded(Box::new(BoundedResume {
                next_size: *next_size as usize,
                stats: progress.to_stats(),
            }))),
            Frontier::Restart => None,
        }
    }

    /// The serializable form of an engine ledger.
    fn from_ledger(ledger: Ledger) -> Frontier {
        match ledger {
            Ledger::Exact((n_chunks, cleared)) => Frontier::RcdpChunks {
                n_chunks: n_chunks as u64,
                cleared: cleared
                    .into_iter()
                    .map(|(idx, stats)| (idx as u64, Progress::from_stats(&stats)))
                    .collect(),
            },
            Ledger::Bounded(resume) => Frontier::BoundedSizes {
                next_size: resume.next_size as u64,
                progress: Progress::from_stats(&resume.stats),
            },
        }
    }
}

/// Typed failures when parsing or validating a checkpoint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckpointError {
    /// The serialized checkpoint's schema version is not understood.
    UnsupportedVersion {
        /// The version found in the document.
        found: u64,
    },
    /// The checkpoint belongs to the other decision problem.
    KindMismatch {
        /// The kind the resuming entry point expected.
        expected: DecisionKind,
        /// The kind recorded in the checkpoint.
        found: DecisionKind,
    },
    /// The checkpoint was captured for a different (setting, query, database).
    FingerprintMismatch {
        /// Fingerprint of the decision being resumed.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
    /// The document is not a structurally valid checkpoint.
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "unsupported checkpoint schema version {found} (supported: {CHECKPOINT_VERSION})"
            ),
            CheckpointError::KindMismatch { expected, found } => {
                write!(f, "checkpoint is for {found}, expected {expected}")
            }
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match this \
                 decision's inputs ({expected:#018x})"
            ),
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A versioned, serializable snapshot of an interrupted decision.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// Which decision problem this snapshot belongs to.
    pub kind: DecisionKind,
    /// Structural fingerprint of the decision inputs (budget excluded, so a
    /// checkpoint survives budget escalation between installments).
    pub fingerprint: u64,
    /// 1-based installment count: how many attempts produced this snapshot.
    pub attempt: u32,
    /// Metered ticks committed into the frontier (not counting discarded
    /// partial units).
    pub spent_ticks: u64,
    /// The committed portion of the search.
    pub frontier: Frontier,
}

impl Checkpoint {
    /// Serialize to the versioned JSON schema (see DESIGN §10).
    pub fn to_json(&self) -> Json {
        let frontier = match &self.frontier {
            Frontier::RcdpChunks { n_chunks, cleared } => Json::obj([
                ("type", Json::from("rcdp_chunks")),
                ("n_chunks", Json::from(*n_chunks)),
                (
                    "cleared",
                    Json::arr(cleared.iter().map(|(idx, p)| {
                        Json::obj([("chunk", Json::from(*idx)), ("progress", p.to_json())])
                    })),
                ),
            ]),
            Frontier::BoundedSizes {
                next_size,
                progress,
            } => Json::obj([
                ("type", Json::from("bounded_sizes")),
                ("next_size", Json::from(*next_size)),
                ("progress", progress.to_json()),
            ]),
            Frontier::Restart => Json::obj([("type", Json::from("restart"))]),
        };
        Json::obj([
            ("version", Json::from(self.version)),
            ("kind", Json::from(self.kind.name())),
            ("fingerprint", Json::from(self.fingerprint)),
            ("attempt", Json::from(u64::from(self.attempt))),
            ("spent_ticks", Json::from(self.spent_ticks)),
            ("frontier", frontier),
        ])
    }

    /// Parse a checkpoint from its JSON form. The schema version is checked
    /// first: documents from a future (or unknown) schema are rejected with
    /// [`CheckpointError::UnsupportedVersion`] before any structural
    /// interpretation.
    pub fn from_json(v: &Json) -> Result<Checkpoint, CheckpointError> {
        let version = u64_field(v, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let kind_name = str_field(v, "kind")?;
        let kind = DecisionKind::parse(kind_name).ok_or_else(|| {
            CheckpointError::Malformed(format!("unknown decision kind {kind_name:?}"))
        })?;
        let frontier_v = v
            .get("frontier")
            .ok_or_else(|| CheckpointError::Malformed("missing field \"frontier\"".into()))?;
        let frontier = match str_field(frontier_v, "type")? {
            "rcdp_chunks" => {
                let cleared_v = frontier_v
                    .get("cleared")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| {
                        CheckpointError::Malformed(
                            "frontier field \"cleared\" must be an array".into(),
                        )
                    })?;
                let mut cleared = Vec::with_capacity(cleared_v.len());
                for entry in cleared_v {
                    let progress = entry.get("progress").ok_or_else(|| {
                        CheckpointError::Malformed("cleared entry missing \"progress\"".into())
                    })?;
                    cleared.push((u64_field(entry, "chunk")?, Progress::from_json(progress)?));
                }
                Frontier::RcdpChunks {
                    n_chunks: u64_field(frontier_v, "n_chunks")?,
                    cleared,
                }
            }
            "bounded_sizes" => {
                let progress = frontier_v.get("progress").ok_or_else(|| {
                    CheckpointError::Malformed("frontier missing \"progress\"".into())
                })?;
                Frontier::BoundedSizes {
                    next_size: u64_field(frontier_v, "next_size")?,
                    progress: Progress::from_json(progress)?,
                }
            }
            "restart" => Frontier::Restart,
            other => {
                return Err(CheckpointError::Malformed(format!(
                    "unknown frontier type {other:?}"
                )))
            }
        };
        Ok(Checkpoint {
            version,
            kind,
            fingerprint: u64_field(v, "fingerprint")?,
            attempt: u32::try_from(u64_field(v, "attempt")?)
                .map_err(|_| CheckpointError::Malformed("attempt exceeds u32".into()))?,
            spent_ticks: u64_field(v, "spent_ticks")?,
            frontier,
        })
    }

    /// Parse a checkpoint from serialized JSON text.
    pub fn from_json_str(text: &str) -> Result<Checkpoint, CheckpointError> {
        let v = json::parse(text)
            .map_err(|e| CheckpointError::Malformed(format!("invalid JSON: {e}")))?;
        Checkpoint::from_json(&v)
    }

    /// Validate that this checkpoint may resume the given decision.
    pub fn validate(&self, kind: DecisionKind, fingerprint: u64) -> Result<(), CheckpointError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: self.version,
            });
        }
        if self.kind != kind {
            return Err(CheckpointError::KindMismatch {
                expected: kind,
                found: self.kind,
            });
        }
        if self.fingerprint != fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: fingerprint,
                found: self.fingerprint,
            });
        }
        Ok(())
    }
}

fn u64_field(v: &Json, key: &str) -> Result<u64, CheckpointError> {
    v.get(key)
        .and_then(Json::as_int)
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| CheckpointError::Malformed(format!("missing or non-integer field {key:?}")))
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, CheckpointError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| CheckpointError::Malformed(format!("missing or non-string field {key:?}")))
}

fn u64_list(v: &Json, key: &str) -> Result<Vec<u64>, CheckpointError> {
    let items = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| CheckpointError::Malformed(format!("missing or non-array field {key:?}")))?;
    items
        .iter()
        .map(|item| {
            item.as_int()
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| {
                    CheckpointError::Malformed(format!("non-integer element in {key:?}"))
                })
        })
        .collect()
}

// --- Fingerprints -----------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn fingerprint_parts(parts: &[&str]) -> u64 {
    let mut hash = FNV_OFFSET;
    for part in parts {
        fnv(&mut hash, part.as_bytes());
        fnv(&mut hash, &[0x1f]);
    }
    hash
}

/// Structural fingerprint of an RCDP decision's inputs. Deliberately excludes
/// the budget and engine so a checkpoint survives budget escalation and
/// engine-preserving retries.
pub fn rcdp_fingerprint(setting: &Setting, query: &Query, db: &Database) -> u64 {
    fingerprint_parts(&[
        "rcdp",
        &format!("{setting:?}"),
        &format!("{query:?}"),
        &format!("{db:?}"),
    ])
}

/// Structural fingerprint of an RCQP decision's inputs.
pub fn rcqp_fingerprint(setting: &Setting, query: &Query) -> u64 {
    fingerprint_parts(&["rcqp", &format!("{setting:?}"), &format!("{query:?}")])
}

/// Is an `Unknown` verdict with this limit worth checkpointing? Structural
/// limits (pool bound, extension-size cap, unsupported input) do not improve
/// under a bigger budget; budget and interruption limits do.
pub(crate) fn resumable_limit(limit: BudgetLimit) -> bool {
    matches!(
        limit,
        BudgetLimit::MaxValuations
            | BudgetLimit::MaxCandidates
            | BudgetLimit::Deadline
            | BudgetLimit::Cancelled
    )
}

// --- Resumable drivers ------------------------------------------------------

/// Outcome of a resumable RCDP installment: the verdict, plus a checkpoint
/// when the search stopped on a resumable limit with committed progress.
#[derive(Clone, PartialEq, Debug)]
pub struct Resumption {
    /// The installment's verdict (identical to an uninterrupted run at the
    /// same budget when resuming from a same-engine checkpoint).
    pub verdict: Verdict,
    /// The frontier to pass to the next installment, if the decision is
    /// still `Unknown` for a budget-like reason.
    pub checkpoint: Option<Checkpoint>,
}

/// Outcome of a resumable RCQP installment.
#[derive(Clone, PartialEq, Debug)]
pub struct QueryResumption {
    /// The installment's verdict.
    pub verdict: QueryVerdict,
    /// The restart marker for the next installment, if still `Unknown`.
    pub checkpoint: Option<Checkpoint>,
}

/// [`crate::rcdp_guarded`] with checkpoint capture and resume: the same
/// dispatch and search driver, handed the committed ledger of `prior` — a
/// checkpoint from an earlier installment of the *same* decision (validate
/// with [`Checkpoint::validate`] first; this driver re-checks defensively and
/// discards rather than errors, so core stays panic- and surprise-free).
/// This layer adds only the fingerprint and the capture.
///
/// On an `Unknown` verdict whose limit is resumable, the returned
/// [`Resumption::checkpoint`] carries the committed frontier; the driver also
/// emits `checkpoint.captured` and machine-readable `explain.frontier.json`
/// telemetry notes.
pub fn rcdp_resumed_guarded(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    prior: Option<&Checkpoint>,
) -> Result<Resumption, RcError> {
    let probe = probe.with_ticks(guard);
    let fingerprint = rcdp_fingerprint(setting, query, db);
    let attempt = prior.map_or(1, |c| c.attempt.saturating_add(1));
    probe.note("resume.attempt", || attempt.to_string());
    let ledger = prior
        .filter(|c| c.validate(DecisionKind::Rcdp, fingerprint).is_ok())
        .and_then(|c| c.frontier.ledger());
    let (verdict, ledger) =
        crate::rcdp::decide(setting, query, db, budget, guard, probe, None, ledger)?;
    let frontier = ledger.map(Frontier::from_ledger);

    let checkpoint = match (&verdict, frontier) {
        (Verdict::Unknown { stats }, Some(frontier)) if resumable_limit(stats.limit) => {
            let spent_ticks = match &frontier {
                Frontier::RcdpChunks { cleared, .. } => cleared
                    .iter()
                    .fold(0u64, |sum, (_, p)| sum.saturating_add(p.ticks)),
                Frontier::BoundedSizes { progress, .. } => progress.ticks,
                Frontier::Restart => 0,
            };
            let cp = Checkpoint {
                version: CHECKPOINT_VERSION,
                kind: DecisionKind::Rcdp,
                fingerprint,
                attempt,
                spent_ticks,
                frontier,
            };
            emit_checkpoint(probe, &cp);
            Some(cp)
        }
        _ => None,
    };
    Ok(Resumption {
        verdict,
        checkpoint,
    })
}

/// [`crate::rcqp_guarded`] with coarse checkpoint capture: the RCQP search
/// keeps no reusable frontier, so the checkpoint is a [`Frontier::Restart`]
/// marker that carries the attempt count across installments (used by the
/// retry loop for escalation bookkeeping).
pub fn rcqp_resumed_guarded(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    prior: Option<&Checkpoint>,
) -> Result<QueryResumption, RcError> {
    let probe = probe.with_ticks(guard);
    let fingerprint = rcqp_fingerprint(setting, query);
    let attempt = prior.map_or(1, |c| c.attempt.saturating_add(1));
    probe.note("resume.attempt", || attempt.to_string());
    let verdict = crate::rcqp::rcqp_guarded(setting, query, budget, guard, probe)?;
    let checkpoint = match &verdict {
        QueryVerdict::Unknown { stats } if resumable_limit(stats.limit) => {
            let cp = Checkpoint {
                version: CHECKPOINT_VERSION,
                kind: DecisionKind::Rcqp,
                fingerprint,
                attempt,
                spent_ticks: stats.valuations.max(stats.candidates),
                frontier: Frontier::Restart,
            };
            emit_checkpoint(probe, &cp);
            Some(cp)
        }
        _ => None,
    };
    Ok(QueryResumption {
        verdict,
        checkpoint,
    })
}

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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            kind: DecisionKind::Rcdp,
            fingerprint: 0xdead_beef_cafe_f00d,
            attempt: 2,
            spent_ticks: 41,
            frontier: Frontier::RcdpChunks {
                n_chunks: 5,
                cleared: vec![
                    (
                        0,
                        Progress {
                            ticks: 17,
                            probes: 3,
                            depth_candidates: vec![4, 2],
                            ..Progress::default()
                        },
                    ),
                    (3, Progress::default()),
                ],
            },
        }
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let cp = sample();
        let text = cp.to_json().to_string();
        let back = Checkpoint::from_json_str(&text).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn unknown_schema_version_is_a_typed_rejection() {
        let mut cp = sample();
        cp.version = CHECKPOINT_VERSION + 1;
        let text = cp.to_json().to_string();
        // Serialization writes whatever version is set; parsing rejects it.
        let err = Checkpoint::from_json_str(&text).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::UnsupportedVersion {
                found: CHECKPOINT_VERSION + 1
            }
        );
    }

    #[test]
    fn validate_rejects_kind_and_fingerprint_mismatches() {
        let cp = sample();
        assert!(cp.validate(DecisionKind::Rcdp, cp.fingerprint).is_ok());
        assert_eq!(
            cp.validate(DecisionKind::Rcqp, cp.fingerprint),
            Err(CheckpointError::KindMismatch {
                expected: DecisionKind::Rcqp,
                found: DecisionKind::Rcdp,
            })
        );
        assert_eq!(
            cp.validate(DecisionKind::Rcdp, 1),
            Err(CheckpointError::FingerprintMismatch {
                expected: 1,
                found: cp.fingerprint,
            })
        );
    }

    #[test]
    fn malformed_documents_are_typed_errors_not_panics() {
        for text in [
            "not json at all",
            "{}",
            r#"{"version": 1}"#,
            r#"{"version": 1, "kind": "rcdp", "fingerprint": 1, "attempt": 1,
               "spent_ticks": 0, "frontier": {"type": "wat"}}"#,
        ] {
            assert!(matches!(
                Checkpoint::from_json_str(text),
                Err(CheckpointError::Malformed(_))
                    | Err(CheckpointError::UnsupportedVersion { .. })
            ));
        }
    }
}
