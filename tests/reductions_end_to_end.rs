//! The hardness constructions, end to end: generate instances from the
//! source problems, decide them with the `ric-complete` deciders, and check
//! against the independent oracles.

use ric::prelude::*;
use ric::reductions::{qbf, rcdp_sigma2, rcqp_conp, sat, tiling, two_head_dfa};

/// Theorem 3.6: the ∀*∃*-3SAT reduction to RCDP(CQ, INDs) agrees with the
/// brute-force QBF oracle.
#[test]
fn sigma2_reduction_matches_oracle() {
    let mut rng = ric::SplitMix64::seed_from_u64(100);
    // Six formulas of shape (∀ 2, ∃ 2, 3 clauses), then one each of
    // smaller and larger shapes.
    let shapes = [(1, 1, 1), (1, 2, 2), (2, 2, 2), (2, 3, 3), (3, 2, 3)];
    for (n_forall, n_exists, n_clauses) in std::iter::repeat_n((2, 2, 3), 6).chain(shapes) {
        let phi = qbf::ForallExists::random(n_forall, n_exists, n_clauses, &mut rng);
        let truth = phi.eval();
        let (setting, q, db) = rcdp_sigma2::to_rcdp_instance(&phi);
        let verdict = rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap();
        assert_eq!(verdict.is_complete(), truth, "disagree on {phi:?}");
        if let Verdict::Incomplete(ce) = &verdict {
            assert!(
                ric::complete::rcdp::certify_counterexample(&setting, &q, &db, ce).unwrap(),
                "counterexample must certify"
            );
        }
    }
}

/// Theorem 4.5(1): the 3SAT reduction to RCQP(CQ, INDs) complements DPLL.
#[test]
fn conp_reduction_matches_dpll() {
    let mut rng = ric::SplitMix64::seed_from_u64(101);
    // (variables, clauses): across the SAT/UNSAT transition.
    for (n_vars, n_clauses) in [(3, 2), (3, 5), (3, 9), (3, 14), (2, 4), (4, 8), (4, 16)] {
        let phi = sat::Cnf::random_3sat(n_vars, n_clauses, &mut rng);
        let (setting, q) = rcqp_conp::to_rcqp_instance(&phi);
        let verdict = rcqp(&setting, &q, &SearchBudget::default()).unwrap();
        assert_eq!(
            verdict.is_empty_verdict(),
            phi.satisfiable(),
            "disagree on {phi:?}"
        );
    }
}

/// Theorem 4.5(2): tiling witnesses round-trip through the construction —
/// solvable instances yield a certified complete database, and tampering
/// with the witness is caught.
#[test]
fn tiling_reduction_witness_roundtrip() {
    // Solvable 2×2 and 4×4 instances.
    for (inst, label) in [
        (tiling::TilingInstance::solvable_example(1), "trivial 2x2"),
        (
            tiling::TilingInstance {
                n_tiles: 2,
                horiz: [(0, 1), (1, 0)].into_iter().collect(),
                vert: [(0, 1), (1, 0)].into_iter().collect(),
                t0: 0,
                n: 2,
            },
            "checkerboard 4x4",
        ),
    ] {
        let grid = inst
            .solve()
            .unwrap_or_else(|| panic!("{label} should tile"));
        assert!(inst.check(&grid));
        let (setting, q) = tiling::to_rcqp_instance(&inst);
        let witness = tiling::tiling_witness(&setting.schema, &inst, &grid);
        assert!(setting.partially_closed(&witness).unwrap(), "{label}");
        assert_eq!(
            rcdp(&setting, &q, &witness, &SearchBudget::default()).unwrap(),
            Verdict::Complete,
            "{label}: witness certified by the decidable RCDP check"
        );
        // Tamper: remove the Rb release and the database turns incomplete.
        let rb = setting.schema.rel_id("Rb").unwrap();
        let mut tampered = witness.clone();
        tampered
            .instance_mut(rb)
            .remove(&Tuple::new([Value::int(0)]));
        let verdict = rcdp(&setting, &q, &tampered, &SearchBudget::default()).unwrap();
        assert!(verdict.is_incomplete(), "{label}: Rb can still grow");
    }

    // Unsolvable instance: candidate databases stay incomplete.
    let bad = tiling::TilingInstance::unsolvable_example(1);
    assert!(bad.solve().is_none());
    let (setting, q) = tiling::to_rcqp_instance(&bad);
    let db = Database::empty(&setting.schema);
    assert!(rcdp(&setting, &q, &db, &SearchBudget::default())
        .unwrap()
        .is_incomplete());
}

/// Theorems 3.1(3)/4.1: the 2-head DFA reduction behaves as the
/// undecidability argument predicts — nonempty languages produce certified
/// incompleteness witnesses, empty languages leave the bounded search
/// honestly undecided.
#[test]
fn two_head_dfa_reduction_end_to_end() {
    let budget = SearchBudget {
        max_delta_tuples: 3,
        fresh_values: 2,
        max_candidates: 300_000,
        ..SearchBudget::default()
    };
    let (setting, q, db) = two_head_dfa::to_rcdp_instance(&two_head_dfa::TwoHeadDfa::ones());
    match rcdp(&setting, &q, &db, &budget).unwrap() {
        Verdict::Incomplete(ce) => {
            assert!(ric::complete::rcdp::certify_counterexample(&setting, &q, &db, &ce).unwrap());
            // The witness extension encodes an accepted word: exactly the
            // tuples of encode_word("1").
            assert_eq!(ce.delta.tuple_count(), 3);
        }
        other => panic!("expected incomplete, got {other:?}"),
    }

    let (setting, q, db) =
        two_head_dfa::to_rcdp_instance(&two_head_dfa::TwoHeadDfa::empty_language());
    assert!(matches!(
        rcdp(&setting, &q, &db, &budget).unwrap(),
        Verdict::Unknown { .. }
    ));

    // RCQP (Theorem 4.1) has only bounded evidence on either language.
    let budget = SearchBudget {
        max_delta_tuples: 2,
        fresh_values: 1,
        max_candidates: 50_000,
        ..SearchBudget::default()
    };
    for dfa in [
        two_head_dfa::TwoHeadDfa::ones(),
        two_head_dfa::TwoHeadDfa::empty_language(),
    ] {
        let (setting, q, _) = two_head_dfa::to_rcdp_instance(&dfa);
        assert!(matches!(
            rcqp(&setting, &q, &budget).unwrap(),
            QueryVerdict::Unknown { .. }
        ));
    }
}

/// The FP query of the DFA reduction is *equivalent to the automaton* on
/// encoded words — the semantic heart of Theorem 3.1(3).
#[test]
fn dfa_fp_query_equals_automaton_on_words() {
    let dfa = two_head_dfa::TwoHeadDfa::ones();
    let schema = two_head_dfa::reduction_schema();
    let program = two_head_dfa::reachability_program(&schema, &dfa);
    for len in 0..=4usize {
        for mask in 0..(1u32 << len) {
            let word: Vec<bool> = (0..len).map(|i| mask & (1 << i) != 0).collect();
            let db = two_head_dfa::encode_word(&schema, &word);
            assert_eq!(
                !program.eval(&db).is_empty(),
                dfa.accepts(&word),
                "disagreement on {word:?}"
            );
        }
    }
}

/// The Σᵖ₂ instances are *fixed-master, fixed-constraints* (Corollary 3.7):
/// the same `(D_m, V)` serves every formula of a given size.
#[test]
fn sigma2_master_and_constraints_are_fixed() {
    let mut rng = ric::SplitMix64::seed_from_u64(102);
    let phi1 = qbf::ForallExists::random(2, 2, 3, &mut rng);
    let phi2 = qbf::ForallExists::random(2, 2, 3, &mut rng);
    let (s1, _, d1) = rcdp_sigma2::to_rcdp_instance(&phi1);
    let (s2, _, d2) = rcdp_sigma2::to_rcdp_instance(&phi2);
    assert_eq!(s1.dm, s2.dm, "master data is formula-independent");
    assert_eq!(s1.v, s2.v, "constraints are formula-independent");
    assert_eq!(d1, d2, "the input database is formula-independent");
    // Across formula sizes too: master data and constraints stay fixed.
    for (n_forall, n_exists, n_clauses) in [(1, 1, 1), (1, 2, 2), (2, 3, 3)] {
        let phi = qbf::ForallExists::random(n_forall, n_exists, n_clauses, &mut rng);
        let (s, _, _) = rcdp_sigma2::to_rcdp_instance(&phi);
        assert_eq!(s.dm, s1.dm, "master data is size-independent");
        assert_eq!(s.v, s1.v, "constraints are size-independent");
    }
}
