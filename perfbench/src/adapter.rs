//! The one file that calls into `ric`.
//!
//! Workloads hold library values (settings, databases, preparations, the
//! monitor) but never call a library function directly: every call goes
//! through a function here. When the facade's entry points change, the call
//! sites change in this file and what a workload does stays the same.
//!
//! Every decision runs under `Engine::planned(1)` with count budgets only.
//! A wall-clock deadline would make an `Unknown` depend on host speed.

use std::collections::BTreeMap;

use ric::prelude::{
    CcBody, ConstraintSet, ContainmentConstraint, Fd, Projection, RelationSchema, Schema, Tuple,
    Value,
};
use ric::{Engine, Probe, QueryVerdict, SearchBudget, SettingVerdict, Verdict};

pub use ric::prelude::{Database, Query, Setting};
pub use ric::SearchBudget as Budget;
pub use ric::{Collector, Monitor, PreparedSetting, ReasonedSetting};

use crate::gen::{Cc, Cell, Outcome, Rel, Row, SettingSpec};

/// A verdict as returned by the library, kept whole so the verdict digest
/// can include its certificate.
pub enum Decided {
    Rcdp(Verdict),
    Rcqp(QueryVerdict),
}

fn rcdp_outcome(v: &Verdict) -> Outcome {
    match v {
        Verdict::Complete => Outcome::Complete,
        Verdict::Incomplete(_) => Outcome::Incomplete,
        Verdict::Unknown { .. } => Outcome::Unknown,
    }
}

impl Decided {
    pub fn outcome(&self) -> Outcome {
        match self {
            Decided::Rcdp(v) => rcdp_outcome(v),
            Decided::Rcqp(QueryVerdict::Nonempty { .. }) => Outcome::Nonempty,
            Decided::Rcqp(QueryVerdict::Empty) => Outcome::Empty,
            Decided::Rcqp(QueryVerdict::Unknown { .. }) => Outcome::Unknown,
        }
    }

    /// The full verdict, certificate included, as text.
    pub fn render(&self) -> String {
        match self {
            Decided::Rcdp(v) => format!("{v:?}"),
            Decided::Rcqp(v) => format!("{v:?}"),
        }
    }
}

pub type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn probe(tr: Option<&Collector>) -> Probe<'_> {
    match tr {
        Some(c) => Probe::attached(c),
        None => Probe::disabled(),
    }
}

/// The counters a collector saw since the last call, then clear it.
pub fn take_counters(c: &Collector) -> BTreeMap<&'static str, u64> {
    let counters = c.report().counters;
    c.reset();
    counters
}

/// The budget of every decision: planned engine, one worker, count limits
/// only.
pub fn budget(fresh_values: usize) -> SearchBudget {
    SearchBudget {
        fresh_values,
        ..SearchBudget::default()
    }
    .with_engine(Engine::planned(1))
}

fn schema(rels: &[Rel]) -> Res<Schema> {
    Schema::from_relations(
        rels.iter()
            .map(|(name, attrs)| {
                let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                RelationSchema::infinite(name.as_str(), &attrs)
            })
            .collect(),
    )
    .map_err(err)
}

fn rel_id(schema: &Schema, rel: usize) -> Res<ric::data::RelId> {
    let id = ric::data::RelId(rel);
    schema.relation(id).map_err(err)?;
    Ok(id)
}

fn tuple(row: &Row) -> Tuple {
    Tuple::new(row.vals.iter().map(|v| match v {
        Cell::S(s) => Value::str(s),
        Cell::I(i) => Value::int(*i),
    }))
}

fn cc_body(schema: &Schema, text: &str) -> Res<CcBody> {
    Ok(CcBody::Cq(
        ric::prelude::parse_cq(schema, text).map_err(err)?,
    ))
}

/// Build a setting: schemas, master data and constraints.
pub fn build_setting(spec: &SettingSpec) -> Res<Setting> {
    let s = schema(&spec.rels)?;
    let ms = schema(&spec.mrels)?;
    let mut dm = Database::empty(&ms);
    for r in &spec.master {
        dm.insert_checked(&ms, rel_id(&ms, r.rel)?, tuple(r))
            .map_err(err)?;
    }
    let mut v = ConstraintSet::empty();
    for cc in &spec.ccs {
        match cc {
            Cc::Ind {
                rel,
                cols,
                mrel,
                mcols,
            } => v.push(ContainmentConstraint::into_master(
                CcBody::Proj(Projection::new(rel_id(&s, *rel)?, cols.clone())),
                rel_id(&ms, *mrel)?,
                mcols.clone(),
            )),
            Cc::Fd { rel, lhs, rhs } => {
                let fd = Fd::new(rel_id(&s, *rel)?, lhs.clone(), rhs.clone());
                for c in ric::constraints::compile::fd_to_ccs(&fd, &s) {
                    v.push(c);
                }
            }
            Cc::CqIntoMaster { body, mrel, mcols } => v.push(ContainmentConstraint::into_master(
                cc_body(&s, body)?,
                rel_id(&ms, *mrel)?,
                mcols.clone(),
            )),
            Cc::Denial { body } => v.push(ContainmentConstraint::into_empty(cc_body(&s, body)?)),
        }
    }
    Ok(Setting::new(s, ms, dm, v))
}

/// Data layer: load rows into a fresh database of the setting's schema.
pub fn load(setting: &Setting, rows: &[Row]) -> Res<Database> {
    let mut db = Database::empty(&setting.schema);
    for r in rows {
        let id = rel_id(&setting.schema, r.rel)?;
        db.insert_checked(&setting.schema, id, tuple(r))
            .map_err(err)?;
    }
    Ok(db)
}

/// Query layer: parse a CQ, or a UCQ when the text has several rules.
pub fn parse(setting: &Setting, text: &str) -> Res<Query> {
    if text.matches(":-").count() > 1 {
        Ok(ric::prelude::parse_ucq(&setting.schema, text)
            .map_err(err)?
            .into())
    } else {
        Ok(ric::prelude::parse_cq(&setting.schema, text)
            .map_err(err)?
            .into())
    }
}

/// Query layer: evaluate; returns the number of answers.
pub fn eval(query: &Query, db: &Database) -> Res<usize> {
    query.eval(db).map(|a| a.len()).map_err(err)
}

/// Analysis layer: the static pass. Returns the number of certified
/// downgrades; a report with errors is a failure.
pub fn analyze(setting: &Setting, query: &Query) -> Res<usize> {
    let report = ric::analyze(setting, query);
    if report.has_errors() {
        return Err("setting rejected by static analysis".to_string());
    }
    Ok(report.downgrade_count())
}

/// Reason layer: run the prover and prepare the minimized setting.
pub fn reason(
    setting: &Setting,
    query: &Query,
    stats_db: &Database,
    budget: &SearchBudget,
    tr: Option<&Collector>,
) -> Res<ReasonedSetting> {
    ReasonedSetting::prepare_probed(setting, query, stats_db, budget.engine, budget, probe(tr))
        .map_err(err)
}

/// Plan layer: prepare (and, planned, compile) a setting.
pub fn prepare(
    setting: &Setting,
    stats_db: &Database,
    budget: &SearchBudget,
) -> Res<PreparedSetting> {
    ric::prepare(setting, stats_db, budget.engine).map_err(err)
}

/// Plans compiled by a preparation.
pub fn plans_compiled(prepared: &PreparedSetting) -> usize {
    prepared
        .plan_summary()
        .map_or(0, |(compiled, _, _)| compiled)
}

/// Constraints layer: is `(D, D_m) |= V`?
pub fn partially_closed(setting: &Setting, db: &Database) -> Res<bool> {
    setting.partially_closed(db).map_err(err)
}

/// Facade: RCDP through the reasoned preparation, panic-isolated and
/// explained.
pub fn decide_static(
    reasoned: &ReasonedSetting,
    db: &Database,
    budget: &SearchBudget,
    tr: Option<&Collector>,
) -> Res<Decided> {
    let v = match tr {
        None => ric::try_rcdp_static(reasoned, db, budget),
        Some(_) => ric::try_rcdp_static_probed(reasoned, db, budget, probe(tr)).map(|d| d.verdict),
    };
    v.map(Decided::Rcdp).map_err(err)
}

/// The same decision as [`decide_static`] without the facade: no panic
/// isolation, no explain.
pub fn reasoned_rcdp(
    reasoned: &ReasonedSetting,
    db: &Database,
    budget: &SearchBudget,
) -> Res<Decided> {
    reasoned
        .rcdp_probed(db, budget, Probe::disabled())
        .map(Decided::Rcdp)
        .map_err(err)
}

/// Core: RCDP against a plain preparation of the full constraint set.
pub fn core_rcdp(
    prepared: &PreparedSetting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
) -> Res<Decided> {
    prepared
        .rcdp(query, db, budget)
        .map(Decided::Rcdp)
        .map_err(err)
}

/// Facade: RCQP against a preparation.
pub fn decide_rcqp(
    prepared: &PreparedSetting,
    query: &Query,
    budget: &SearchBudget,
    tr: Option<&Collector>,
) -> Res<Decided> {
    let v = match tr {
        None => ric::try_rcqp_prepared(prepared, query, budget),
        Some(_) => {
            ric::try_rcqp_prepared_probed(prepared, query, budget, probe(tr)).map(|d| d.verdict)
        }
    };
    v.map(Decided::Rcqp).map_err(err)
}

/// Core: RCQP without the facade.
pub fn core_rcqp(prepared: &PreparedSetting, query: &Query, budget: &SearchBudget) -> Res<Decided> {
    prepared.rcqp(query, budget).map(Decided::Rcqp).map_err(err)
}

/// Monitor over the schemas and master data of `setting`, with an empty
/// database.
pub fn monitor(setting: &Setting, budget: &SearchBudget) -> Res<Monitor> {
    Monitor::new(
        setting.schema.clone(),
        setting.master_schema.clone(),
        setting.dm.clone(),
        *budget,
    )
    .map_err(err)
}

/// Register the constraints of `setting` with a query.
pub fn register(m: &mut Monitor, name: &str, setting: &Setting, query: Query) -> Res<()> {
    m.register(name, setting.v.clone(), query)
        .map(|_| ())
        .map_err(err)
}

/// One transaction: `(insert?, row)` ops against the monitored database.
pub fn apply(m: &mut Monitor, ops: &[(bool, Row)], tr: Option<&Collector>) -> Res<usize> {
    let txn = ric::Txn::new(ops.iter().map(|(ins, r)| {
        let rel = ric::data::RelId(r.rel);
        if *ins {
            ric::Op::insert(rel, tuple(r))
        } else {
            ric::Op::delete(rel, tuple(r))
        }
    }));
    m.apply_probed(&txn, probe(tr))
        .map(|changes| changes.len())
        .map_err(err)
}

/// Every registered setting's current outcome, in registration order.
pub fn statuses(m: &Monitor) -> Vec<Outcome> {
    m.verdicts()
        .into_iter()
        .map(|(_, v)| match v {
            SettingVerdict::NotPartiallyClosed => Outcome::NotPartiallyClosed,
            SettingVerdict::Decided(v) => rcdp_outcome(v),
        })
        .collect()
}

/// The monitor's cumulative ladder counters, by their telemetry names.
pub fn monitor_counters(m: &Monitor) -> [(&'static str, u64); 10] {
    let c = m.counters();
    [
        ("monitor.skip", c.skip),
        ("monitor.memo.hit", c.memo_hit),
        ("monitor.fast_complete", c.fast_complete),
        ("monitor.recert.hit", c.recert_hit),
        ("monitor.recert.miss", c.recert_miss),
        ("monitor.redecide", c.redecide),
        ("monitor.cc.delta", c.cc_delta),
        ("monitor.cc.full", c.cc_full),
        ("monitor.memo.evict", c.memo_evict),
        ("monitor.replan", c.replan),
    ]
}
