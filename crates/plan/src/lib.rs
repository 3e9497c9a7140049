//! # `ric-plan` — cost-based, prepared, compiled query plans
//!
//! The greedy evaluator in `ric-query` re-derives its join order ("most-bound
//! atom first") for every call — and the deciders of `ric-complete` call it
//! once per containment-constraint body per candidate valuation, millions of
//! times per decision. This crate moves that choice out of the loop: a
//! [`Tableau`](ric_query::tableau::Tableau) is compiled **once** into a [`PreparedPlan`] with
//!
//! * a **fixed binding order** chosen by a cost model over per-relation
//!   [`RelStats`](ric_data::RelStats) (cardinality × product of per-column selectivities,
//!   System-R style, greedy);
//! * **pre-resolved index choices** — each step knows statically whether it
//!   scans or probes, on which column, and with which key (a constant or an
//!   earlier-bound variable slot);
//! * **inequality checks pinned** to the earliest step at which both sides
//!   are bound, instead of re-scanning the whole `≠`-list at every frame;
//! * **zero per-candidate allocation** — the per-column actions are
//!   precompiled into one contiguous arena, the set of variables each step
//!   binds is fixed by the order (so undo is a static slot list, not a
//!   freshly allocated vector), and the binding array lives in a reusable
//!   [`PlanScratch`].
//!
//! Plans are *estimates-in, exactness-out*: statistics steer only the join
//! order, so a stale, empty, or adversarially wrong [`RelStats`](ric_data::RelStats) can change
//! timing but never answers. When no statistics are available the planner
//! falls back to a static simulation of the greedy most-bound-first order
//! ([`PreparedPlan::fallback`]), the order the greedy evaluator in
//! `ric-query` chooses dynamically.
//!
//! [`DeltaPlans`] is the incremental variant mirroring
//! [`eval_tableau_delta`](ric_query::eval::eval_tableau_delta): one plan per
//! *pin*, each forcing the pinned atom (bound to novel Δ-tuples) first.
//! [`DeltaPlans::delta_answers_within`] is the decider hot path — it checks
//! every Δ-derived answer against a right-hand-side set and exits on the
//! first violation, without materializing the answer set.

pub mod exec;
pub mod planner;

pub use exec::PlanScratch;
pub use planner::{
    plan_tableau, plan_tableau_delta, CappedStats, DeltaPlans, PreparedPlan, StatsProvider,
};

#[cfg(test)]
mod tests {
    use super::*;
    use ric_data::{Database, Overlay, RelId, RelStats, RelationSchema, Schema, Tuple, Value};
    use ric_query::eval::{eval_tableau, eval_tableau_delta};
    use ric_query::tableau::Tableau;
    use ric_query::{parse_cq, Cq};
    use std::collections::BTreeSet;

    fn schema() -> Schema {
        Schema::from_relations(vec![
            RelationSchema::infinite("E", &["src", "dst"]),
            RelationSchema::infinite("L", &["node", "tag"]),
        ])
        .unwrap()
    }

    fn db(schema: &Schema) -> Database {
        let e = schema.rel_id("E").unwrap();
        let l = schema.rel_id("L").unwrap();
        let mut db = Database::empty(schema);
        for (a, b) in [(1, 2), (2, 3), (3, 1), (1, 1), (2, 1), (3, 3)] {
            db.insert(e, Tuple::new([Value::int(a), Value::int(b)]));
        }
        for (n, t) in [(1, 10), (2, 10), (3, 20)] {
            db.insert(l, Tuple::new([Value::int(n), Value::int(t)]));
        }
        db
    }

    fn tableau(schema: &Schema, src: &str) -> Tableau {
        Tableau::of(&parse_cq(schema, src).unwrap()).unwrap()
    }

    fn queries() -> Vec<&'static str> {
        vec![
            "Q(X, Z) :- E(X, Y), E(Y, Z).",
            "Q(X, Z) :- E(X, Y), E(Y, Z), X != Z.",
            "Q(X, T) :- E(X, Y), L(Y, T).",
            "Q(X) :- E(X, Y), L(X, T), T = 10.",
            "Q(X, Y) :- E(X, Y), X != Y.",
            "Q(Y) :- E(1, Y).",
            "Q(X, Y, Z) :- E(X, Y), E(Y, Z), E(Z, X).",
        ]
    }

    #[test]
    fn planned_eval_matches_greedy_eval() {
        let s = schema();
        let d = db(&s);
        let mut scratch = PlanScratch::default();
        for src in queries() {
            let t = tableau(&s, src);
            for stats in [true, false] {
                let plan = if stats {
                    plan_tableau(&t, &d)
                } else {
                    plan_tableau(&t, &planner::NoStats)
                };
                let mut out = BTreeSet::new();
                plan.eval_into(&d, &mut scratch, &mut out);
                assert_eq!(out, eval_tableau(&t, &d), "{src} (stats={stats})");
            }
        }
    }

    #[test]
    fn planned_delta_eval_matches_greedy_delta_eval() {
        let s = schema();
        let base = db(&s);
        let e = s.rel_id("E").unwrap();
        let mut delta = Database::empty(&s);
        delta.insert(e, Tuple::new([Value::int(3), Value::int(4)]));
        delta.insert(e, Tuple::new([Value::int(1), Value::int(2)])); // not novel
        let ov = Overlay::new(&base, &delta).unwrap();
        let mut scratch = PlanScratch::default();
        for src in queries() {
            let t = tableau(&s, src);
            let plans = plan_tableau_delta(&t, &base);
            let mut out = BTreeSet::new();
            plans.eval_delta_into(&ov, &mut scratch, &mut out);
            assert_eq!(out, eval_tableau_delta(&t, &ov), "{src}");
        }
    }

    #[test]
    fn delta_answers_within_agrees_with_subset_check() {
        let s = schema();
        let base = db(&s);
        let e = s.rel_id("E").unwrap();
        let mut delta = Database::empty(&s);
        delta.insert(e, Tuple::new([Value::int(2), Value::int(4)]));
        let ov = Overlay::new(&base, &delta).unwrap();
        let mut scratch = PlanScratch::default();
        for src in queries() {
            let t = tableau(&s, src);
            let plans = plan_tableau_delta(&t, &base);
            let added = eval_tableau_delta(&t, &ov);
            // rhs = everything: within. rhs minus one answer: not within.
            assert!(plans.delta_answers_within(&ov, &mut scratch, &added));
            if let Some(first) = added.iter().next() {
                let mut rhs = added.clone();
                rhs.remove(first);
                assert!(
                    !plans.delta_answers_within(&ov, &mut scratch, &rhs),
                    "{src}"
                );
            }
        }
    }

    #[test]
    fn lying_stats_change_order_not_answers() {
        struct Lying;
        impl StatsProvider for Lying {
            fn rel_stats(&self, rel: RelId) -> RelStats {
                // Wildly wrong: claims relation 0 is huge and undistinctive,
                // relation 1 tiny and perfectly selective.
                if rel.0 == 0 {
                    RelStats {
                        rows: 1_000_000,
                        distinct: vec![1, 1],
                    }
                } else {
                    RelStats {
                        rows: 1,
                        distinct: vec![1_000_000, 1_000_000],
                    }
                }
            }
        }
        let s = schema();
        let d = db(&s);
        let mut scratch = PlanScratch::default();
        for src in queries() {
            let t = tableau(&s, src);
            let plan = plan_tableau(&t, &Lying);
            let mut out = BTreeSet::new();
            plan.eval_into(&d, &mut scratch, &mut out);
            assert_eq!(out, eval_tableau(&t, &d), "{src}");
        }
    }

    #[test]
    fn no_stats_falls_back_to_static_greedy_order() {
        let s = schema();
        let t = tableau(&s, "Q(Y) :- E(1, Y), L(Y, T).");
        let plan = plan_tableau(&t, &planner::NoStats);
        assert!(plan.fallback());
        // The constant-bearing atom E(1, Y) is most-bound and goes first.
        assert_eq!(plan.join_order()[0], 0);
        let with_stats = plan_tableau(&t, &db(&s));
        assert!(!with_stats.fallback());
        assert!(with_stats.cost() > 0.0);
    }

    #[test]
    fn atomless_tableau_plans_and_evaluates() {
        let s = schema();
        let d = db(&s);
        let q = Cq::builder().head(vec![]).build();
        let t = Tableau::of(&q).unwrap();
        let plan = plan_tableau(&t, &d);
        let mut out = BTreeSet::new();
        let mut scratch = PlanScratch::default();
        plan.eval_into(&d, &mut scratch, &mut out);
        assert_eq!(out, BTreeSet::from([Tuple::unit()]));
        // Delta evaluation of an atomless tableau adds nothing.
        let delta = Database::empty(&s);
        let ov = Overlay::new(&d, &delta).unwrap();
        let plans = plan_tableau_delta(&t, &d);
        let mut dout = BTreeSet::new();
        plans.eval_delta_into(&ov, &mut scratch, &mut dout);
        assert!(dout.is_empty());
    }

    #[test]
    fn explain_renders_order_and_estimates() {
        let s = schema();
        let t = tableau(&s, "Q(X, T) :- E(X, Y), L(Y, T).");
        let plan = plan_tableau(&t, &db(&s));
        let text = plan.render(|rel| s.relation(rel).map(|r| r.name.clone()).unwrap_or_default());
        assert!(text.contains("E") && text.contains("L"), "{text}");
        assert!(text.contains("est="), "{text}");
    }

    #[test]
    fn repeated_variable_within_one_atom_checks_equality() {
        let s = schema();
        let d = db(&s);
        let t = tableau(&s, "Q(X) :- E(X, X).");
        let plan = plan_tableau(&t, &d);
        let mut out = BTreeSet::new();
        let mut scratch = PlanScratch::default();
        plan.eval_into(&d, &mut scratch, &mut out);
        assert_eq!(out, eval_tableau(&t, &d));
        // (1,1) and (3,3) are the self-loops.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn constant_constant_term_neq_is_checked() {
        // A neq with one variable side bound via equality to a constant
        // survives tableau normalization as var-vs-const; exercise the
        // const side of the pinned checks.
        let s = schema();
        let d = db(&s);
        let t = tableau(&s, "Q(X, Y) :- E(X, Y), Y != 1.");
        let plan = plan_tableau(&t, &d);
        let mut out = BTreeSet::new();
        let mut scratch = PlanScratch::default();
        plan.eval_into(&d, &mut scratch, &mut out);
        assert_eq!(out, eval_tableau(&t, &d));
        assert!(out.iter().all(|t| t.get(1) != &Value::int(1)));
    }
}
