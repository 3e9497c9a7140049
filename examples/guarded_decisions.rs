//! Guarding long-running decisions: deadlines, cancellation, panic
//! isolation, and budget escalation on the CRM scenario.
//!
//! Run with `cargo run --example guarded_decisions`.
//!
//! The decidable cells are Σᵖ₂ / NEXPTIME-complete, so a service embedding
//! the deciders needs more than count budgets: a wall-clock deadline per
//! decision, a way to abort an in-flight decision from another thread, and a
//! guarantee that a defect cannot unwind through the request handler. All
//! three degrade the same way — a sound `Unknown` (or a typed error), never
//! a wrong answer. This example exercises each path on the Section 2.3
//! customer-relationship-management setting and prints the structured
//! `SearchStats` the degraded verdicts carry.

use std::time::Duration;

use ric::mdm::{CrmScenario, ScenarioParams};
use ric::prelude::*;
use ric::FaultSink;

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
    let q2 = sc.q2();

    // ── 1. Wall-clock deadline ─────────────────────────────────────────
    // An already-expired deadline is the worst case; the guard observes it
    // at its very first poll, before any enumeration work is granted. (Any
    // expired deadline degrades identically, just later.)
    let deadline_budget = SearchBudget::default().with_deadline(Duration::ZERO);
    let verdict = rcdp(&sc.setting, &q2, &sc.db, &deadline_budget).expect("rcdp");
    println!("Q2 under an expired wall-clock deadline:");
    report(&verdict);

    // ── 2. Cancellation from another thread ────────────────────────────
    // The CancelToken is the cross-thread handle: clone it anywhere, cancel
    // from any thread, and the running decision stops at its next
    // cooperative poll. Here the canceller runs (and is joined) before the
    // decision starts, so the abort is observed with zero work done.
    let token = CancelToken::new();
    let canceller = {
        let remote = token.clone();
        std::thread::spawn(move || remote.cancel())
    };
    canceller.join().expect("canceller thread");
    let budget = SearchBudget::default();
    let guard = Guard::new(&budget).with_cancel(token);
    let verdict = Request::new(&sc.setting)
        .budget(&budget)
        .guard(&guard)
        .rcdp(&q2, &sc.db)
        .expect("rcdp")
        .verdict;
    println!("\nQ2 after a cancellation from another thread:");
    report(&verdict);

    // ── 3. Deterministic fault injection ───────────────────────────────
    // Tests (and demos) need these paths without sleeps or timing races: a
    // FaultPlan fires a simulated deadline at an exact guard tick.
    let guard = Guard::new(&budget).with_fault_plan(FaultPlan::new().deadline_at_tick(8));
    let collector = Collector::new();
    let verdict = Request::new(&sc.setting)
        .budget(&budget)
        .guard(&guard)
        .probe(Probe::attached(&collector))
        .rcdp(&q2, &sc.db)
        .expect("rcdp")
        .verdict;
    println!("\nQ2 with a simulated deadline at guard tick 8:");
    report(&verdict);
    for i in &collector.report().interrupts {
        println!(
            "  telemetry: {} -> {} @ tick {}",
            i.name, i.reason, i.at_tick
        );
    }

    // ── 4. Panic isolation at the facade ───────────────────────────────
    // A panic — ours, or in a user-supplied telemetry sink, as simulated
    // here — must not unwind through a request handler. Every Request
    // converts it into a typed DecisionError that carries the decision-path
    // notes recorded before the fault.
    let faulty_sink = FaultSink::new("rcdp.enumerate", None);
    // Silence the default panic hook while the fault fires — catch_unwind
    // still runs it, and this demo's panic is intentional.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = Request::new(&sc.setting)
        .probe(Probe::attached(&faulty_sink))
        .rcdp(&q2, &sc.db)
        .expect_err("the injected panic surfaces as an error");
    std::panic::set_hook(hook);
    println!("\nQ2 with a panicking telemetry sink, behind a Request:");
    println!("error: {err}");
    if let DecisionError::Panic { notes, .. } = &err {
        for note in notes {
            println!("  note before panic: {note}");
        }
    }

    // ── 5. Budget escalation ───────────────────────────────────────────
    // An `Unknown` on a count budget often just needs a bigger one. Each
    // starved installment hands back a checkpoint; resuming from it never
    // repeats committed work, and the final verdict equals one uninterrupted
    // run at the final budget.
    let mut budget = SearchBudget {
        max_valuations: 2,
        ..SearchBudget::default()
    };
    let mut prior: Option<Checkpoint> = None;
    let decision = loop {
        let d = Request::new(&sc.setting)
            .budget(&budget)
            .resume(prior.as_ref())
            .rcdp(&q2, &sc.db)
            .expect("rcdp");
        let Some(cp) = d.checkpoint else { break d };
        println!(
            "\nQ2 at {} valuations: {}",
            budget.max_valuations, d.verdict
        );
        budget.max_valuations *= 4;
        prior = Some(cp);
    };
    println!("\nQ2 resumed at {} valuations:", budget.max_valuations);
    report(&decision.verdict);
}

/// Print a verdict plus the structured `SearchStats` when it is `Unknown`.
fn report(verdict: &Verdict) {
    println!("verdict: {verdict}");
    if let Verdict::Unknown { stats } = verdict {
        println!("  limit      : {}", stats.limit.name());
        println!("  valuations : {}", stats.valuations);
        println!("  candidates : {}", stats.candidates);
        println!("  detail     : {}", stats.detail);
    }
}
