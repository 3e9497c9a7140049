//! End-to-end encodings of the paper's running examples (Examples 1.1, 2.1,
//! 2.2, 3.1, 4.1), checked against the claims made in the text.

use ric::prelude::*;
use ric_complete::rcdp::certify_counterexample;

/// Example 1.1 / 2.2, query `Q1`-style: with the master list `DCust` and an
/// IND bounding supported customers, a database whose answer covers the
/// master list is complete.
#[test]
fn example_2_2_q1_complete_when_master_covered() {
    let schema = Schema::from_relations(vec![RelationSchema::infinite(
        "Supt",
        &["eid", "dept", "cid"],
    )])
    .unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let master = Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
    let dcust = master.rel_id("DCust").unwrap();
    let mut dm = Database::empty(&master);
    for c in ["c1", "c2", "c3"] {
        dm.insert(dcust, Tuple::new([Value::str(c)]));
    }
    let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Proj(Projection::new(supt, vec![2])),
        dcust,
        vec![0],
    )]);
    let setting = Setting::new(schema.clone(), master, dm, v);
    let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', D, C).")
        .unwrap()
        .into();

    let mut db = Database::empty(&schema);
    for c in ["c1", "c2", "c3"] {
        db.insert(
            supt,
            Tuple::new([Value::str("e0"), Value::str("d"), Value::str(c)]),
        );
    }
    assert_eq!(
        rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap(),
        Verdict::Complete,
        "Q1 finds all master customers: the answer is complete"
    );
}

/// Example 2.1 / 2.2, constraint `φ1`: an employee supports at most `k`
/// customers, so a database holding `k` answers is complete, and the
/// completion distance is `k - k′` (the paper's final remark in Ex. 1.1).
#[test]
fn example_2_2_phi1_completion_distance() {
    let schema = Schema::from_relations(vec![RelationSchema::infinite(
        "Supt",
        &["eid", "dept", "cid"],
    )])
    .unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let k = 3;
    let denial = ric::constraints::classical::at_most_k_per_key(supt, 0, 2, k, 3);
    let v = ConstraintSet::new(vec![ric::constraints::compile::denial_to_cc(&denial)]);
    let setting = Setting::new(
        schema.clone(),
        Schema::new(),
        Database::with_relations(0),
        v,
    );
    let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', D, C).")
        .unwrap()
        .into();

    // k′ = 1 answers so far.
    let mut db = Database::empty(&schema);
    db.insert(
        supt,
        Tuple::new([Value::str("e0"), Value::str("d"), Value::str("c0")]),
    );
    match ric::complete::extend::complete_extension(&setting, &q, &db, &SearchBudget::default())
        .unwrap()
    {
        ric::complete::extend::CompletionOutcome::Completed { added, result } => {
            assert_eq!(
                added.tuple_count(),
                k - 1,
                "at most k - k′ additions needed"
            );
            assert_eq!(
                rcdp(&setting, &q, &result, &SearchBudget::default()).unwrap(),
                Verdict::Complete
            );
        }
        other => panic!("expected completion, got {other:?}"),
    }
}

/// Example 3.1, FD part: under `eid → dept, cid` an empty `Supt` is
/// incomplete for `Q2` but any nonempty answer makes it complete.
#[test]
fn example_3_1_fd_nonempty_answer_is_complete() {
    let schema = Schema::from_relations(vec![RelationSchema::infinite(
        "Supt",
        &["eid", "dept", "cid"],
    )])
    .unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let fd = Fd::new(supt, vec![0], vec![1, 2]);
    let v = ConstraintSet::new(ric::constraints::compile::fd_to_ccs(&fd, &schema));
    let setting = Setting::new(
        schema.clone(),
        Schema::new(),
        Database::with_relations(0),
        v,
    );
    let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', D, C).")
        .unwrap()
        .into();

    let empty = Database::empty(&schema);
    let verdict = rcdp(&setting, &q, &empty, &SearchBudget::default()).unwrap();
    match &verdict {
        Verdict::Incomplete(ce) => {
            assert!(certify_counterexample(&setting, &q, &empty, ce).unwrap());
        }
        other => panic!("expected incomplete, got {other:?}"),
    }

    let mut db = Database::empty(&schema);
    db.insert(
        supt,
        Tuple::new([Value::str("e0"), Value::str("d0"), Value::str("c0")]),
    );
    assert_eq!(
        rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap(),
        Verdict::Complete,
        "the FD pins e0's single tuple, so the nonempty answer is complete"
    );
}

/// Example 1.1, query `Q3`: completeness is relative to the query language.
#[test]
fn example_1_1_q3_language_relativity() {
    let schema =
        Schema::from_relations(vec![RelationSchema::infinite("Manage", &["up", "down"])]).unwrap();
    let manage = schema.rel_id("Manage").unwrap();
    let setting = Setting::open_world(schema.clone());
    let mut db = Database::empty(&schema);
    for (a, b) in [("e2", "e1"), ("e1", "e0")] {
        db.insert(manage, Tuple::new([Value::str(a), Value::str(b)]));
    }

    // Datalog ancestors of e0: incomplete (new transitive edges can appear);
    // the undecidable cell answers through the bounded search.
    let fp: Query = parse_program(
        &schema,
        "Above(X, Y) :- Manage(X, Y). Above(X, Y) :- Manage(X, Z), Above(Z, Y). \
         Boss(X) :- Above(X, Y), Y = 'e0'.",
        "Boss",
    )
    .unwrap()
    .into();
    let verdict = rcdp(&setting, &fp, &db, &SearchBudget::default()).unwrap();
    assert!(verdict.is_incomplete(), "open-world hierarchy: {verdict:?}");

    // The two-hop CQ is likewise incomplete in the open world, decided by
    // the exact Σᵖ₂ procedure, and its counterexample certifies.
    let cq: Query = parse_cq(&schema, "Q(X) :- Manage(X, Z), Manage(Z, 'e0').")
        .unwrap()
        .into();
    match rcdp(&setting, &cq, &db, &SearchBudget::default()).unwrap() {
        Verdict::Incomplete(ce) => {
            assert!(certify_counterexample(&setting, &cq, &db, &ce).unwrap());
        }
        other => panic!("expected incomplete, got {other:?}"),
    }
}

/// Example 4.1: `Q4` (eid = e0 ∧ dept = d0 on a binary Supt) is relatively
/// complete under the FD eid → dept via a blocking database, while the
/// unconstrained-head variant is not.
#[test]
fn example_4_1_contrast() {
    let schema =
        Schema::from_relations(vec![RelationSchema::infinite("Supt", &["eid", "dept"])]).unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let fd = Fd::new(supt, vec![0], vec![1]);
    let v = ConstraintSet::new(ric::constraints::compile::fd_to_ccs(&fd, &schema));
    let setting = Setting::new(
        schema.clone(),
        Schema::new(),
        Database::with_relations(0),
        v,
    );
    let budget = SearchBudget {
        fresh_values: 3,
        ..SearchBudget::default()
    };

    let q4: Query = parse_cq(&schema, "Q(E) :- Supt(E, 'd0'), E = 'e0'.")
        .unwrap()
        .into();
    assert!(
        rcqp(&setting, &q4, &budget).unwrap().is_nonempty(),
        "a blocking tuple (e0, d′) makes a complete database"
    );

    // More constants in Q4 grow the Adom and the E2 pool; blocking still
    // works.
    for n_consts in 1..=3 {
        let eqs: Vec<String> = (0..n_consts).map(|d| format!("E != 'x{d}'")).collect();
        let src = format!("Q(E) :- Supt(E, 'd0'), E = 'e0', {}.", eqs.join(", "));
        let q: Query = parse_cq(&schema, &src).unwrap().into();
        assert!(
            rcqp(&setting, &q, &budget).unwrap().is_nonempty(),
            "{n_consts} extra constant(s)"
        );
    }

    let q2: Query = parse_cq(&schema, "Q(E) :- Supt(E, 'd0').").unwrap().into();
    assert_eq!(
        rcqp(&setting, &q2, &budget).unwrap(),
        QueryVerdict::Empty,
        "fresh employees can always be injected"
    );

    // Verify the claimed D⁻ explicitly: a single (e0, d′) tuple blocks Q4.
    let mut d_minus = Database::empty(&schema);
    d_minus.insert(supt, Tuple::new([Value::str("e0"), Value::str("d-other")]));
    assert_eq!(
        rcdp(&setting, &q4, &d_minus, &budget).unwrap(),
        Verdict::Complete,
        "the paper's D⁻ is certified complete"
    );
}

/// Section 2.2: a CFD enforced as containment constraints rejects
/// inconsistent databases outright — consistency and completeness live in
/// one framework.
#[test]
fn consistency_and_completeness_in_one_framework() {
    let schema = Schema::from_relations(vec![RelationSchema::infinite(
        "Supt",
        &["eid", "dept", "cid"],
    )])
    .unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let cfd = Cfd {
        rel: supt,
        lhs: vec![0],
        rhs: vec![2],
        lhs_pattern: vec![(1, Value::str("BU"))],
        rhs_pattern: vec![],
    };
    let v = ConstraintSet::new(ric::constraints::compile::cfd_to_ccs(&cfd, &schema));
    let setting = Setting::new(
        schema.clone(),
        Schema::new(),
        Database::with_relations(0),
        v,
    );
    let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', D, C).")
        .unwrap()
        .into();

    let mut dirty = Database::empty(&schema);
    dirty.insert(
        supt,
        Tuple::new([Value::str("e1"), Value::str("BU"), Value::str("c1")]),
    );
    dirty.insert(
        supt,
        Tuple::new([Value::str("e1"), Value::str("BU"), Value::str("c2")]),
    );
    assert_eq!(
        rcdp(&setting, &q, &dirty, &SearchBudget::default()),
        Err(RcError::NotPartiallyClosed),
        "inconsistent databases are not even partially closed"
    );
}
