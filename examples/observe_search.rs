//! Watching the deciders work: structured telemetry on the CRM scenario.
//!
//! Run with `cargo run --example observe_search`.
//!
//! Attaches a [`Collector`] to RCDP and RCQP decisions on the Section 2.3
//! customer-relationship-management setting and prints the aggregated
//! decision report: how many valuations were enumerated, how many
//! containment-constraint checks ran, how large the active domain was, and
//! how long each search phase took. The last section runs an undecidable
//! (FP) cell into its budget and shows how the structured `SearchStats` on
//! the `Unknown` verdict names the exact limit that was hit — the
//! diagnostics to read before raising a `SearchBudget` knob.

use ric::mdm::{CrmScenario, ScenarioParams};
use ric::prelude::*;

fn main() {
    let mut rng = ric::SplitMix64::seed_from_u64(2026);
    let sc = CrmScenario::generate(
        ScenarioParams {
            n_domestic: 5,
            n_international: 2,
            n_employees: 3,
            n_support: 7,
            at_most_k: Some(2),
            n_manage: 2,
        },
        &mut rng,
    );
    let budget = SearchBudget::default();

    // ── RCDP with a collector attached ─────────────────────────────────
    let q2 = sc.q2();
    let collector = Collector::new();
    let verdict = Request::new(&sc.setting)
        .budget(&budget)
        .probe(Probe::attached(&collector))
        .rcdp(&q2, &sc.db)
        .expect("rcdp")
        .verdict;
    println!("Q2 = customers supported by e0");
    println!("verdict: {verdict}");
    println!("\ndecision report (RCDP):");
    print!("{}", collector.report());

    // ── RCQP on the same query ─────────────────────────────────────────
    let collector = Collector::new();
    let verdict = Request::new(&sc.setting)
        .budget(&budget)
        .probe(Probe::attached(&collector))
        .rcqp(&q2)
        .expect("rcqp")
        .verdict;
    println!("\nRCQ(Q2, Dm, V) nonempty? {verdict}");
    println!("\ndecision report (RCQP):");
    print!("{}", collector.report());

    // ── Budget-exhaustion diagnostics on undecidable cells ─────────────
    // Q3 in FP (datalog reachability) sits in the undecidable rows of
    // Tables I/II: only a bounded search is possible. Starve it and read
    // the diagnostics off the structured verdict.
    let q3 = sc.q3_datalog();
    let tiny = SearchBudget {
        max_delta_tuples: 1,
        max_candidates: 16,
        fresh_values: 1,
        ..SearchBudget::default()
    };
    let collector = Collector::new();
    let verdict = Request::new(&sc.setting)
        .budget(&tiny)
        .probe(Probe::attached(&collector))
        .rcdp(&q3, &sc.db)
        .expect("rcdp")
        .verdict;
    println!("\nQ3 (datalog, undecidable cell) under a starved budget:");
    report_unknown(&verdict);
    println!("\ndecision report (bounded semi-decision):");
    print!("{}", collector.report());

    // A smaller FP instance (the 2-head DFA reduction of Theorem 3.1) gets
    // past the pool check and genuinely exhausts its candidate budget — the
    // case where the diagnostics point at a raisable knob.
    use ric::reductions::two_head_dfa::{to_rcdp_instance, TwoHeadDfa};
    let (dfa_setting, dfa_q, dfa_db) = to_rcdp_instance(&TwoHeadDfa::empty_language());
    let starved = SearchBudget {
        max_delta_tuples: 2,
        max_candidates: 64,
        fresh_values: 1,
        ..SearchBudget::default()
    };
    let collector = Collector::new();
    let verdict = Request::new(&dfa_setting)
        .budget(&starved)
        .probe(Probe::attached(&collector))
        .rcdp(&dfa_q, &dfa_db)
        .expect("rcdp")
        .verdict;
    println!("\n2-head DFA reduction (FP, undecidable cell), candidate budget 64:");
    report_unknown(&verdict);
    println!("\ndecision report (bounded semi-decision):");
    print!("{}", collector.report());
}

/// Print the structured diagnostics an `Unknown` verdict carries.
fn report_unknown(verdict: &Verdict) {
    println!("verdict: {verdict}");
    if let Verdict::Unknown { stats } = verdict {
        println!("  exhausted limit : {}", stats.limit.name());
        println!("  valuations seen : {}", stats.valuations);
        println!("  candidates seen : {}", stats.candidates);
        match stats.limit {
            // Structural bounds: no budget knob makes the search feasible.
            BudgetLimit::PoolBound | BudgetLimit::Unsupported => {
                println!("  -> structural limit; shrink the instance or rewrite the query")
            }
            knob => {
                println!(
                    "  -> raise SearchBudget::{} for a deeper search",
                    knob.name()
                )
            }
        }
    }
}
