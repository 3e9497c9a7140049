//! `ric-trace diff` on bar artifacts ([`ric_bench::bars::diff`]): timing
//! drift counts only beyond `K_IQR` × the larger arm-B IQR, while outcome
//! drift is always flagged.

use ric::telemetry::Json;
use ric_bench::bars::{bars_doc, diff, meta_mismatch, Arm, Bar, BarCell, K_IQR};

/// A one-cell artifact whose arm B has the given median and IQR.
fn artifact(median_us: f64, iqr_us: f64, ok: bool) -> Json {
    let b = Arm {
        label: "b",
        median_us,
        iqr_us,
        samples: 10,
    };
    let a = Arm {
        median_us: 10.0 * median_us,
        ..b.clone()
    };
    let mut cell = BarCell::new("t", "cell".into(), a, b, Bar::AtLeast(5.0), true);
    cell.ok = ok;
    bars_doc(&[cell], Json::obj([("engine", Json::from("planned"))]))
}

#[test]
fn drift_inside_k_iqr_is_not_flagged() {
    let d = diff(&artifact(100.0, 10.0, true), &artifact(129.0, 4.0, true)).unwrap();
    assert_eq!(d.rows.len(), 1);
    assert!(!d.rows[0].timing_drift && !d.rows[0].outcome_drift());
    // Exactly K_IQR × the larger IQR is still inside.
    let d = diff(
        &artifact(100.0, 10.0, true),
        &artifact(100.0 + K_IQR * 10.0, 1.0, true),
    )
    .unwrap();
    assert!(!d.rows[0].timing_drift);
}

#[test]
fn drift_outside_k_iqr_is_flagged() {
    let d = diff(&artifact(100.0, 10.0, true), &artifact(131.0, 4.0, true)).unwrap();
    assert!(d.rows[0].timing_drift && !d.rows[0].outcome_drift());
    let d = diff(&artifact(100.0, 10.0, true), &artifact(69.0, 2.0, true)).unwrap();
    assert!(d.rows[0].timing_drift);
}

#[test]
fn outcome_drift_is_always_flagged() {
    // Same timing, so no timing drift, but the bar flipped.
    let d = diff(&artifact(100.0, 10.0, true), &artifact(100.0, 10.0, false)).unwrap();
    assert!(!d.rows[0].timing_drift && d.rows[0].outcome_drift());
    assert_ne!(d.rows[0].outcome[0], d.rows[0].outcome[1]);
}

#[test]
fn table_cells_carry_no_spread_and_never_flag_timing() {
    let table = |micros: u64, outcome: &str| {
        Json::obj([(
            "cells",
            Json::arr([Json::obj([
                ("cell", Json::from("(CQ, INDs) workload")),
                ("outcome", Json::from(outcome)),
                ("micros", Json::from(micros)),
            ])]),
        )])
    };
    let d = diff(&table(100, "complete"), &table(900, "complete")).unwrap();
    assert!(!d.rows[0].timing_drift && !d.rows[0].outcome_drift());
    assert_eq!(d.rows[0].timing[1].us, 900.0);
    let d = diff(&table(100, "complete"), &table(100, "unknown")).unwrap();
    assert!(d.rows[0].outcome_drift());
}

#[test]
fn unmatched_cells_and_meta_are_reported() {
    let other = Json::obj([
        ("meta", Json::obj([("engine", Json::from("naive"))])),
        ("cells", Json::arr([])),
    ]);
    let d = diff(&artifact(1.0, 0.0, true), &other).unwrap();
    assert_eq!((d.only_a, d.only_b.len()), (vec!["cell".to_string()], 0));
    let a = Json::obj([("meta", Json::obj([("engine", Json::from("planned"))]))]);
    assert_eq!(meta_mismatch(&a, &other), ["engine: A=planned B=naive"]);
    assert!(diff(&other, &Json::obj([("cells", Json::from(3u64))])).is_err());
}
