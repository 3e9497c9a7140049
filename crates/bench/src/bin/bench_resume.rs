//! `bench_resume` — measure the cost of deciding in installments.
//!
//! For the largest Table I / Table II cells the workspace benches, this
//! binary times each decision two ways:
//!
//! * **from scratch** — one uninterrupted `try_rcdp_resumed(…, None)` run at
//!   the full budget;
//! * **resumed** — the same decision completed in K installments: installment
//!   `i` runs at roughly `i/K` of the ticks the full decision needs, dies on
//!   its budget, and hands its [`ric::Checkpoint`] to installment `i+1`; the
//!   final installment runs at the full budget and must return the identical
//!   verdict (the resume invariant of DESIGN.md §10, pinned by the
//!   `resume_differential` test suite — this binary re-asserts it on every
//!   cell).
//!
//! The interesting number is `overhead_ratio`: the wall time of the *final*
//! installment — the one that picks up the checkpoint and completes —
//! divided by the from-scratch time. That is the operational question after
//! an interruption: finish from the checkpoint, or throw it away and re-run?
//! Resume overhead (checkpoint validation, frontier replay, meter priming,
//! and re-running the one unit that was in flight when the budget died) must
//! stay within 10% of a from-scratch re-run — and for chunk- and
//! size-granular frontiers the resumed run skips the committed units
//! entirely, so the ratio is typically well *below* 1. The artifact also
//! records `resumed_total_micros`, the sum over all K installments, for the
//! setup-amortization picture (each installment re-runs query evaluation and
//! active-domain construction, which resume deliberately does not persist).
//!
//! Writes `BENCH_RESUME.json` to the current directory; see EXPERIMENTS.md
//! for the schema. Run with
//! `cargo run --release -p ric-bench --bin bench_resume`.

use std::time::Instant;

use ric::prelude::*;
use ric::reductions::two_head_dfa::{to_rcdp_instance, TwoHeadDfa};
use ric::reductions::workload::{planted_rcdp, WorkloadParams};
use ric::reductions::{qbf, rcdp_sigma2, rcqp_conp, sat};
use ric::telemetry::Json;
use ric::{rcdp_probed, try_rcdp_resumed, try_rcqp_resumed, SplitMix64};

/// Which meter the cell's search burns, and therefore which budget knob the
/// installment schedule scales.
#[derive(Clone, Copy)]
enum TickKind {
    /// Exact enumeration: `max_valuations` / the `rcdp.valuations` counter.
    Valuations,
    /// Bounded extension search: `max_candidates` / `semidecide.candidates`.
    Candidates,
}

impl TickKind {
    fn counter(self) -> &'static str {
        match self {
            TickKind::Valuations => "rcdp.valuations",
            TickKind::Candidates => "semidecide.candidates",
        }
    }

    fn scaled(self, base: &SearchBudget, ticks: u64) -> SearchBudget {
        let mut b = *base;
        match self {
            TickKind::Valuations => b.max_valuations = ticks.max(1),
            TickKind::Candidates => b.max_candidates = ticks.max(1),
        }
        b
    }
}

struct ResumeCell {
    cell: String,
    engine: String,
    k: u32,
    installments: u32,
    from_scratch_micros: u128,
    resumed_total_micros: u128,
    final_installment_micros: u128,
    overhead_ratio: f64,
    claim: &'static str,
    ok: bool,
    verdict_identical: bool,
    outcome: String,
}

impl ResumeCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cell", Json::from(self.cell.as_str())),
            ("engine", Json::from(self.engine.as_str())),
            ("k", Json::from(u64::from(self.k))),
            ("installments", Json::from(u64::from(self.installments))),
            ("from_scratch_micros", Json::from(self.from_scratch_micros)),
            (
                "resumed_total_micros",
                Json::from(self.resumed_total_micros),
            ),
            (
                "final_installment_micros",
                Json::from(self.final_installment_micros),
            ),
            ("overhead_ratio", Json::from(self.overhead_ratio)),
            ("claim", Json::from(self.claim)),
            ("ok", Json::from(self.ok)),
            ("verdict_identical", Json::from(self.verdict_identical)),
            ("outcome", Json::from(self.outcome.as_str())),
        ])
    }
}

/// Smallest wall time over `samples` identical runs, in µs. Every run here
/// is deterministic and read-only over its inputs, so min-of-N is the right
/// noise filter.
fn time_min<T>(samples: u32, mut f: impl FnMut() -> T) -> (u128, T) {
    let mut best: Option<(u128, T)> = None;
    for _ in 0..samples {
        let start = Instant::now();
        let value = f();
        let micros = start.elapsed().as_micros();
        if best.as_ref().is_none_or(|(b, _)| micros < *b) {
            best = Some((micros, value));
        }
    }
    best.unwrap_or_else(|| unreachable!("samples >= 1"))
}

const SAMPLES: u32 = 9;

/// Run one RCDP cell at K installments: time from-scratch, count its ticks,
/// then time the K-installment schedule at `ceil(T·i/K)` tick budgets.
fn rcdp_cell(
    label: &str,
    k: u32,
    kind: TickKind,
    budget: &SearchBudget,
    setting: &Setting,
    query: &Query,
    db: &Database,
) -> ResumeCell {
    // Tick count of the uninterrupted decision, read off a probed run.
    let collector = Collector::new();
    let _ = rcdp_probed(setting, query, db, budget, Probe::attached(&collector))
        .expect("bench instance must decide");
    let total_ticks = collector
        .report()
        .counters
        .get(kind.counter())
        .copied()
        .unwrap_or(0);

    let (from_scratch_micros, (baseline, no_cp)) = time_min(SAMPLES, || {
        try_rcdp_resumed(setting, query, db, budget, None).expect("bench instance must decide")
    });
    assert!(
        no_cp.is_none(),
        "{label}: from-scratch run must be conclusive at the full budget"
    );

    // The installment schedule: die at ~i/K of the full tick count, resume,
    // and finish at the full budget. Each installment is itself deterministic
    // for a fixed prior checkpoint, so each is timed by min-of-N.
    let mut prior: Option<Checkpoint> = None;
    let mut resumed_total_micros = 0u128;
    let mut final_installment_micros = 0u128;
    let mut installments = 0u32;
    let mut final_verdict: Option<Verdict> = None;
    for i in 1..=k {
        let slice = if i == k {
            *budget
        } else {
            kind.scaled(budget, (total_ticks * u64::from(i)).div_ceil(u64::from(k)))
        };
        let prior_ref = prior.clone();
        let (micros, (verdict, checkpoint)) = time_min(SAMPLES, || {
            try_rcdp_resumed(setting, query, db, &slice, prior_ref.as_ref())
                .expect("resumed installment must not error")
        });
        resumed_total_micros += micros;
        final_installment_micros = micros;
        installments = i;
        match checkpoint {
            Some(cp) => prior = Some(cp),
            None => {
                final_verdict = Some(verdict);
                break;
            }
        }
    }
    let final_verdict =
        final_verdict.expect("the full-budget final installment must be conclusive");

    let overhead_ratio = final_installment_micros as f64 / from_scratch_micros.max(1) as f64;
    ResumeCell {
        cell: label.to_string(),
        engine: budget.engine.to_string(),
        k,
        installments,
        from_scratch_micros,
        resumed_total_micros,
        final_installment_micros,
        overhead_ratio,
        claim: "final_installment <= 1.10 * from_scratch",
        ok: overhead_ratio <= 1.10,
        verdict_identical: final_verdict == baseline,
        outcome: format!("{final_verdict}"),
    }
}

/// The RCQP cell: the frontier is coarse (`Restart`), so the claim is only
/// that *finishing from a checkpoint* costs no more than starting over.
fn rcqp_cell(label: &str, base: &SearchBudget, setting: &Setting, query: &Query) -> ResumeCell {
    let (from_scratch_micros, (baseline, no_cp)) = time_min(SAMPLES, || {
        try_rcqp_resumed(setting, query, base, None).expect("bench instance must decide")
    });
    assert!(no_cp.is_none(), "{label}: from-scratch run must conclude");

    // Installment 1 at a starvation budget; whatever checkpoint (if any) it
    // leaves feeds the full-budget installment 2.
    let tiny = SearchBudget {
        max_valuations: 1,
        max_candidates: 1,
        ..*base
    };
    let (first_micros, (first_verdict, cp)) = time_min(SAMPLES, || {
        try_rcqp_resumed(setting, query, &tiny, None).expect("starved installment must not error")
    });
    let (resumed_total_micros, final_installment_micros, installments, final_verdict) = match cp {
        Some(cp) => {
            let (final_micros, (verdict, cp2)) = time_min(SAMPLES, || {
                try_rcqp_resumed(setting, query, base, Some(&cp))
                    .expect("resumed installment must not error")
            });
            assert!(cp2.is_none(), "{label}: full-budget resume must conclude");
            (first_micros + final_micros, final_micros, 2, verdict)
        }
        // The cell decided inside the starvation budget (e.g. the syntactic
        // IND check, which never meters): nothing to resume.
        None => (first_micros, first_micros, 1, first_verdict),
    };

    let ratio = final_installment_micros as f64 / from_scratch_micros.max(1) as f64;
    ResumeCell {
        cell: label.to_string(),
        engine: base.engine.to_string(),
        k: 2,
        installments,
        from_scratch_micros,
        resumed_total_micros,
        final_installment_micros,
        overhead_ratio: ratio,
        claim: "final_installment <= 1.10 * from_scratch (Restart frontier)",
        ok: ratio <= 1.10,
        verdict_identical: final_verdict == baseline,
        outcome: format!("{final_verdict}"),
    }
}

fn main() {
    let mut cells: Vec<ResumeCell> = Vec::new();

    // Table I, (CQ, INDs): the largest planted master-data workload.
    {
        let mut rng = SplitMix64::seed_from_u64(7);
        let params = WorkloadParams {
            n_customers: 32,
            n_employees: 4,
            n_support: 64,
        };
        let inst = planted_rcdp(&params, true, &mut rng);
        for k in [2u32, 5] {
            cells.push(rcdp_cell(
                "(CQ, INDs) planted n=32 complete",
                k,
                TickKind::Valuations,
                &SearchBudget::default(),
                &inst.setting,
                &inst.query,
                &inst.db,
            ));
        }
    }

    // Table I, (CQ, INDs) hardness: the largest ∀∃-3SAT cell the tables run.
    {
        let mut rng = SplitMix64::seed_from_u64(11);
        let phi = qbf::ForallExists::random(6, 6, 12, &mut rng);
        let (setting, q, db) = rcdp_sigma2::to_rcdp_instance(&phi);
        for k in [2u32, 5] {
            cells.push(rcdp_cell(
                "(CQ, INDs) sigma2 forall=6/exists=6/clauses=12",
                k,
                TickKind::Valuations,
                &SearchBudget::default(),
                &setting,
                &q,
                &db,
            ));
        }
    }

    // Table I, (FP, CQ): the bounded semi-decision (size-granular frontier).
    {
        let (setting, q, db) = to_rcdp_instance(&TwoHeadDfa::ones());
        let budget = SearchBudget {
            max_delta_tuples: 3,
            fresh_values: 2,
            max_candidates: 500_000,
            ..SearchBudget::default()
        };
        for k in [2u32, 5] {
            cells.push(rcdp_cell(
                "(FP, CQ) DFA L nonempty",
                k,
                TickKind::Candidates,
                &budget,
                &setting,
                &q,
                &db,
            ));
        }
    }

    // Table II, (CQ, INDs): the largest 3SAT RCQP cell (Restart frontier).
    {
        let mut rng = SplitMix64::seed_from_u64(13);
        let phi = sat::Cnf::random_3sat(8, 34, &mut rng);
        let (setting, q) = rcqp_conp::to_rcqp_instance(&phi);
        cells.push(rcqp_cell(
            "(CQ, INDs) rcqp 3SAT vars=8/clauses=34",
            &SearchBudget::default(),
            &setting,
            &q,
        ));
    }

    println!(
        "{:<46} {:<9} {:>2} {:>12} {:>12} {:>8}  ok",
        "cell", "engine", "K", "scratch µs", "final µs", "ratio"
    );
    println!("{}", "-".repeat(100));
    let mut all_ok = true;
    for c in &cells {
        all_ok &= c.ok && c.verdict_identical;
        println!(
            "{:<46} {:<9} {:>2} {:>12} {:>12} {:>7.2}x  {}{}",
            c.cell,
            c.engine,
            c.k,
            c.from_scratch_micros,
            c.final_installment_micros,
            c.overhead_ratio,
            if c.ok { "ok" } else { "OVER BUDGET" },
            if c.verdict_identical {
                ""
            } else {
                "  VERDICT DRIFT"
            },
        );
    }

    let doc = Json::obj([
        ("schema", Json::from("bench_resume/v1")),
        ("source", Json::from("bench_resume")),
        (
            "claim",
            Json::from(
                "finishing a decision from its checkpoint costs <= 1.10x a from-scratch re-run \
                 at every cell (the final installment picks up the frontier instead of redoing \
                 committed work)",
            ),
        ),
        ("all_ok", Json::from(all_ok)),
        (
            "cells",
            Json::arr(cells.iter().map(ResumeCell::to_json).collect::<Vec<_>>()),
        ),
    ]);
    std::fs::write("BENCH_RESUME.json", format!("{}\n", doc.pretty()))
        .expect("write BENCH_RESUME.json");
    println!(
        "\nwrote BENCH_RESUME.json ({} cells, all_ok={all_ok})",
        cells.len()
    );
}
