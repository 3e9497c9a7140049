//! The empirical Table I / Table II regeneration (`regen_tables`), the
//! timing bars (`bench_bars`, on the [`bars`] runner) and the `ric-trace`
//! trace tooling.

pub mod bars;
pub mod plan_report;
pub mod trace_load;

use ric::prelude::*;

/// The FD-constrained Example 3.1 setting at size `n`: `Supt(eid, dept,
/// cid)` under the FD `eid → dept, cid` (compiled to CQ-bodied CCs), with
/// one tuple per employee so the FD pins every employee's row.
pub fn fd_instance(n: usize) -> (Setting, Database) {
    let schema = Schema::from_relations(vec![RelationSchema::infinite(
        "Supt",
        &["eid", "dept", "cid"],
    )])
    .expect("fixed schema");
    let supt = schema.rel_id("Supt").unwrap();
    let fd = Fd::new(supt, vec![0], vec![1, 2]);
    let v = ConstraintSet::new(ric::constraints::compile::fd_to_ccs(&fd, &schema));
    let setting = Setting::new(
        schema.clone(),
        Schema::new(),
        Database::with_relations(0),
        v,
    );
    let mut db = Database::empty(&schema);
    for i in 0..n {
        db.insert(
            supt,
            Tuple::new([
                Value::str(format!("e{i}")),
                Value::str(format!("d{i}")),
                Value::str(format!("c{i}")),
            ]),
        );
    }
    (setting, db)
}

/// A Table I/II cell's oracle check: whether its verdict agrees with the
/// independent oracle, or `None` (written `checked: false`) when the
/// verdict degraded to `Unknown` on the run's wall-clock deadline. Such an
/// `Unknown` says nothing about the oracle.
pub fn oracle_check(agrees: bool, limit: Option<BudgetLimit>) -> Option<bool> {
    (limit != Some(BudgetLimit::Deadline)).then_some(agrees)
}

/// The labels of the cells whose checked verdict disagrees with its oracle.
pub fn disagreements<'a>(cells: impl IntoIterator<Item = (&'a str, Option<bool>)>) -> Vec<&'a str> {
    cells
        .into_iter()
        .filter(|(_, oracle)| *oracle == Some(false))
        .map(|(cell, _)| cell)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_conclusive_disagreement_fails_a_table() {
        let agree = oracle_check(true, None);
        let disagree = oracle_check(false, Some(BudgetLimit::MaxCandidates));
        let cut = oracle_check(false, Some(BudgetLimit::Deadline));
        assert_eq!((agree, disagree, cut), (Some(true), Some(false), None));
        let cells = [
            ("agree", agree),
            ("disagree", disagree),
            ("deadline", cut),
            ("no oracle", None),
        ];
        assert_eq!(disagreements(cells), ["disagree"]);
        assert!(disagreements([("agree", agree), ("deadline", cut)]).is_empty());
    }
}
