//! Completing a database: the Section 2.3 paradigm *"guidance for what data
//! should be collected"*.
//!
//! When RCDP says `D` is incomplete for `Q`, the counterexample is itself the
//! guidance: it names tuples whose absence makes the answer untrustworthy.
//! [`complete_extension`] iterates this — repeatedly adding the violating
//! extension — until the database becomes complete or the budget runs out.
//! For bounded queries the loop terminates: every round adds a new answer
//! tuple, and bounded queries only have finitely many achievable answers over
//! the (stable) extended active domain.

use crate::budget::SearchBudget;
use crate::guard::Guard;
use crate::query::Query;
use crate::setting::Setting;
use crate::verdict::{RcError, Verdict};
use ric_data::Database;
use ric_telemetry::Probe;

/// Outcome of the greedy completion loop.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompletionOutcome {
    /// The input database was already complete.
    AlreadyComplete,
    /// Completion succeeded.
    Completed {
        /// The tuples that had to be collected.
        added: Database,
        /// The completed database (`D ∪ added`).
        result: Database,
    },
    /// The budget ran out (or a decision came back `Unknown`) before the
    /// database became complete; `partial` is the best extension so far.
    Budget {
        /// Tuples added before giving up.
        added: Database,
        /// `D ∪ added`.
        partial: Database,
    },
}

/// Greedily extend `db` until it is complete for `query` relative to the
/// setting. Every returned `Completed`/`AlreadyComplete` outcome is certified
/// by the RCDP decider.
pub fn complete_extension(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
) -> Result<CompletionOutcome, RcError> {
    complete_extension_probed(setting, query, db, budget, Probe::disabled())
}

/// [`complete_extension`] with a telemetry probe attached: reports the
/// number of completion rounds, the tuples collected, and the outcome.
pub fn complete_extension_probed(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    probe: Probe<'_>,
) -> Result<CompletionOutcome, RcError> {
    complete_extension_guarded(setting, query, db, budget, &Guard::new(budget), probe)
}

/// [`complete_extension`] under an externally shared [`Guard`]: the deadline
/// spans the *whole* loop (every round's RCDP decision polls the same clock),
/// and a trip breaks to `CompletionOutcome::Budget` with the progress so far.
pub fn complete_extension_guarded(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
) -> Result<CompletionOutcome, RcError> {
    let probe = probe.with_ticks(guard);
    // Validate the input once; the loop preserves partial closure by
    // construction (every round's delta comes from a counterexample whose
    // extended database satisfied `V`), so the per-round decisions can skip
    // straight to the dispatch target instead of re-checking the whole
    // growing database each time.
    crate::rcdp::validate_fp_bodies(setting, query)?;
    if !setting.partially_closed(db)? {
        return Err(RcError::NotPartiallyClosed);
    }
    let exact = crate::rcdp::exactly_decidable(query.language())
        && crate::rcdp::exactly_decidable(setting.v.language());
    // Compile the upper-bound preparation once for the whole loop: the
    // constraint set is fixed across rounds, and the statistics that steer
    // planned join orders only affect timing, so reusing the base-database
    // plans as `current` grows is sound.
    let reuse = crate::prepared::prepare_upper(setting, budget.engine, db)?;
    crate::rcdp::emit_plan_telemetry(probe, setting, reuse.as_ref(), false, db);
    let span = probe.span("extend.completion");
    let mut current = db.clone();
    let mut added = Database::with_relations(setting.schema.len());
    let mut first = true;
    let mut rounds: u64 = 0;
    let outcome = loop {
        rounds += 1;
        // Poll the guard once per round so a trip is observed even when the
        // per-round decision is too cheap to reach its own meter check.
        if let Some(interrupt) = guard.check_now() {
            probe.interrupt("extend.interrupt", interrupt.name(), guard.ticks());
            break CompletionOutcome::Budget {
                added,
                partial: current,
            };
        }
        // The per-round decisions run unprobed: an unbounded query can take
        // hundreds of rounds, and each round's counters would swamp the
        // sink; rounds and collected tuples summarise the loop.
        let verdict = if exact {
            crate::rcdp::decide_exact(
                setting,
                query,
                &current,
                budget,
                guard,
                Probe::disabled(),
                reuse.as_ref(),
                None,
            )?
            .0
        } else {
            crate::semidecide::decide_bounded(
                setting,
                query,
                &current,
                budget,
                guard,
                Probe::disabled(),
                reuse.as_ref(),
                None,
            )?
            .0
        };
        match verdict {
            Verdict::Complete => {
                break if first {
                    CompletionOutcome::AlreadyComplete
                } else {
                    CompletionOutcome::Completed {
                        added,
                        result: current,
                    }
                };
            }
            Verdict::Incomplete(ce) => {
                first = false;
                added.union_with(&ce.delta).unwrap_or_else(|e| {
                    unreachable!("counterexample shares the setting schema: {e:?}")
                });
                current.union_with(&ce.delta).unwrap_or_else(|e| {
                    unreachable!("counterexample shares the setting schema: {e:?}")
                });
                if added.tuple_count() > budget.max_witness_tuples {
                    break CompletionOutcome::Budget {
                        added,
                        partial: current,
                    };
                }
            }
            Verdict::Unknown { .. } => {
                break CompletionOutcome::Budget {
                    added,
                    partial: current,
                };
            }
        }
    };
    drop(span);
    probe.count("extend.rounds", rounds);
    match &outcome {
        CompletionOutcome::AlreadyComplete => {
            probe.note("extend.outcome", || "already_complete".into());
        }
        CompletionOutcome::Completed { added, .. } => {
            probe.count("extend.added_tuples", added.tuple_count() as u64);
            probe.note("extend.outcome", || "completed".into());
        }
        CompletionOutcome::Budget { added, .. } => {
            probe.count("extend.added_tuples", added.tuple_count() as u64);
            probe.note("extend.outcome", || "budget".into());
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_constraints::{CcBody, ConstraintSet, ContainmentConstraint, Projection};
    use ric_data::{RelationSchema, Schema, Tuple, Value};
    use ric_query::parse_cq;

    /// Supt(eid, cid) with cid bounded by master DCust; completing the query
    /// "customers of e0" must pull in exactly the missing master customers.
    #[test]
    fn completion_collects_missing_master_customers() {
        let schema =
            Schema::from_relations(vec![RelationSchema::infinite("Supt", &["eid", "cid"])])
                .unwrap();
        let supt = schema.rel_id("Supt").unwrap();
        let mschema =
            Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
        let dcust = mschema.rel_id("DCust").unwrap();
        let mut dm = Database::empty(&mschema);
        for c in ["c1", "c2", "c3"] {
            dm.insert(dcust, Tuple::new([Value::str(c)]));
        }
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(supt, vec![1])),
            dcust,
            vec![0],
        )]);
        let setting = Setting::new(schema.clone(), mschema, dm, v);
        let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', C).").unwrap().into();

        let mut db = Database::empty(&schema);
        db.insert(supt, Tuple::new([Value::str("e0"), Value::str("c1")]));

        match complete_extension(&setting, &q, &db, &SearchBudget::default()).unwrap() {
            CompletionOutcome::Completed { added, result } => {
                // The two missing master customers had to be collected.
                assert_eq!(added.tuple_count(), 2);
                let answers = q.eval(&result).unwrap();
                assert_eq!(answers.len(), 3);
                assert_eq!(
                    crate::rcdp(&setting, &q, &result, &SearchBudget::default()).unwrap(),
                    Verdict::Complete
                );
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn already_complete_detected() {
        let schema = Schema::from_relations(vec![RelationSchema::infinite("R", &["a"])]).unwrap();
        let setting = Setting::open_world(schema.clone());
        let q: Query = parse_cq(&schema, "Q(X) :- R(X), X != X.").unwrap().into();
        let db = Database::empty(&schema);
        assert_eq!(
            complete_extension(&setting, &q, &db, &SearchBudget::default()).unwrap(),
            CompletionOutcome::AlreadyComplete
        );
    }

    #[test]
    fn unbounded_query_hits_budget() {
        // Open world, no constraints: Q can never be completed; the loop must
        // stop at the budget rather than diverge.
        let schema = Schema::from_relations(vec![RelationSchema::infinite("R", &["a"])]).unwrap();
        let setting = Setting::open_world(schema.clone());
        let q: Query = parse_cq(&schema, "Q(X) :- R(X).").unwrap().into();
        let db = Database::empty(&schema);
        let budget = SearchBudget {
            max_witness_tuples: 5,
            ..SearchBudget::default()
        };
        match complete_extension(&setting, &q, &db, &budget).unwrap() {
            CompletionOutcome::Budget { added, .. } => {
                assert!(added.tuple_count() > 5);
            }
            other => panic!("expected budget outcome, got {other:?}"),
        }
    }
}
