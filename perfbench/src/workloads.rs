//! The four workloads. Each one is a closed loop with one client: op `i`
//! starts when op `i - 1` has returned.
//!
//! * `assess_oneshot` — a data steward asks one question at a time; every
//!   op loads, parses, analyzes, reasons, prepares and decides from scratch.
//! * `sweep_prepared` — an analyst checks many databases against a fixed
//!   catalog of reasoned settings; every op is one full valuation sweep.
//! * `monitor_stream` — a service keeps 16 registered questions current
//!   while the data changes; every op is one transaction plus a read of
//!   every verdict.
//! * `design_rcqp` — a schema designer asks whether any complete database
//!   exists for a query over a fixed `(D_m, V)`.
//!
//! Every op's class comes from a fixed pattern per slice (a group of
//! `slice_len` consecutive ops), shuffled by the seed, so each slice does
//! the same mix of work and the latency percentiles fall inside one class.

use crate::adapter::{
    self, Budget, Database, Decided, Monitor, PreparedSetting, Query, ReasonedSetting, Res, Setting,
};
use crate::gen::{self, Outcome, Rng, Row, SettingSpec};
use crate::trace::Tracer;

/// What an op returned, checked against the planted truth after its timer
/// stops.
pub enum Done {
    Verdict(Decided),
    Statuses(Vec<Outcome>),
}

impl Done {
    /// The full result as text, for the verdict digest.
    pub fn render(&self) -> String {
        match self {
            Done::Verdict(d) => d.render(),
            Done::Statuses(s) => format!("{s:?}"),
        }
    }
}

pub trait Workload {
    /// Ops per slice.
    fn slice_len(&self) -> usize;
    /// Untimed: make op `i`'s input ready (stream generators do work here).
    fn stage(&mut self, _i: usize) {}
    /// Timed: run op `i`.
    fn run(&mut self, i: usize, t: &mut Tracer) -> Res<Done>;
    /// Untimed: does op `i`'s result match the planted truth?
    fn check(&self, i: usize, done: &Done) -> bool;
    /// The input class of op `i`, for the per-class latency diagnostic.
    fn class_of(&self, i: usize) -> &'static str;
}

pub const NAMES: [&str; 4] = [
    "assess_oneshot",
    "sweep_prepared",
    "monitor_stream",
    "design_rcqp",
];

/// The seeded inputs of a workload: generated once, before set-up.
pub enum Inputs {
    Assess(AssessInputs),
    Sweep(SweepInputs),
    Monitor(MonitorInputs),
    Design(DesignInputs),
}

pub fn inputs(name: &str, seed: u64) -> Option<Inputs> {
    let mut rng = Rng::new(seed);
    Some(match name {
        "assess_oneshot" => Inputs::Assess(assess_inputs(&mut rng)),
        "sweep_prepared" => Inputs::Sweep(sweep_inputs(&mut rng)),
        "monitor_stream" => Inputs::Monitor(monitor_inputs(&mut rng)),
        "design_rcqp" => Inputs::Design(design_inputs(&mut rng)),
        _ => return None,
    })
}

/// Set the workload up: the program-side work before the first op.
pub fn setup(inputs: &Inputs, t: &mut Tracer) -> Res<Box<dyn Workload>> {
    Ok(match inputs {
        Inputs::Assess(i) => Box::new(assess_setup(i, t)?),
        Inputs::Sweep(i) => Box::new(sweep_setup(i, t)?),
        Inputs::Monitor(i) => Box::new(monitor_setup(i, t)?),
        Inputs::Design(i) => Box::new(design_setup(i, t)?),
    })
}

/// A seeded order of `pattern` repeated over `slices` slices: class `k`
/// appears `pattern[k]` times in every slice.
fn schedule(rng: &mut Rng, pattern: &[usize], slices: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for _ in 0..slices {
        let mut slice: Vec<usize> = pattern
            .iter()
            .enumerate()
            .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
            .collect();
        rng.shuffle(&mut slice);
        out.extend(slice);
    }
    out
}

fn matches(truth: Outcome, done: &Done) -> bool {
    matches!(done, Done::Verdict(d) if d.outcome() == truth)
}

/// Run the first op of every input class once, untimed and untraced, so
/// lazily built state is in place before the first timed op; each must
/// agree with its planted truth. Every slice holds every class.
fn warm_up(w: &mut dyn Workload) -> Res<()> {
    let mut seen = Vec::new();
    for k in 0..w.slice_len() {
        let class = w.class_of(k);
        if seen.contains(&class) {
            continue;
        }
        seen.push(class);
        let done = w.run(k, &mut Tracer::off())?;
        if !w.check(k, &done) {
            return Err(format!("warm-up op of {class} disagrees with its truth"));
        }
    }
    Ok(())
}

/// Facade-overhead attribution shared by the RCDP workloads: the same
/// decision once through `try_rcdp_static`, once without the facade.
fn rcdp_overhead(t: &mut Tracer, r: &ReasonedSetting, db: &Database, b: &Budget) {
    t.shadow("ric.try_us", || adapter::decide_static(r, db, b, None));
    t.shadow("ric.core_us", || adapter::reasoned_rcdp(r, db, b));
}

/// Time a full-`V` core decision on the same input (allocations counted),
/// and its cost per valuation of the op's own search.
fn core_rcdp_shadow(
    t: &mut Tracer,
    p: &PreparedSetting,
    q: &Query,
    db: &Database,
    b: &Budget,
    valuations: u64,
) {
    let a0 = crate::alloc::count();
    let Some((_, us)) = t.shadow("core.rcdp_us", || adapter::core_rcdp(p, q, db, b)) else {
        return;
    };
    t.count("core.rcdp.allocs", crate::alloc::count() - a0);
    if valuations > 0 {
        t.sample("core.ns_per_valuation", us * 1e3 / valuations as f64);
    }
}

// ---------------------------------------------------------------- assess

const ASSESS_CLASSES: [&str; 5] = [
    "crm_complete",
    "crm_incomplete",
    "fd_pinned",
    "redundant_v",
    "static",
];
/// Ops of each class per slice, in `ASSESS_CLASSES` order. The three
/// fastest classes fill 30% of a slice, `fd_pinned` 50% and the slowest,
/// `redundant_v`, 20%: p50 falls inside `fd_pinned`, p99 inside
/// `redundant_v`, neither on the edge between two classes.
const ASSESS_PATTERN: [usize; 5] = [2, 2, 10, 4, 2];
const ASSESS_POOL_SLICES: usize = 8;

pub struct AssessInputs {
    specs: Vec<SettingSpec>,
    ops: Vec<(usize, Vec<Row>, String, Outcome)>,
}

fn assess_inputs(rng: &mut Rng) -> AssessInputs {
    let customers = gen::names(rng, "c", 6);
    let specs = vec![
        gen::crm_setting(&customers),
        gen::crm_setting(&customers),
        gen::fd_setting(),
        gen::redundant_setting(&customers, 3, 2),
        gen::static_setting(8),
    ];
    let order = schedule(rng, &ASSESS_PATTERN, ASSESS_POOL_SLICES);
    let ops = order
        .into_iter()
        .map(|class| {
            let emp = format!("e{:03}", rng.below(1000));
            let q = format!("Q(C) :- Supt('{emp}', D, C).");
            match class {
                0 => (
                    class,
                    gen::crm_rows(rng, &emp, &customers, &customers, 6),
                    q,
                    Outcome::Complete,
                ),
                1 => {
                    let mut covered = customers.clone();
                    covered.remove(rng.below(covered.len()));
                    (
                        class,
                        gen::crm_rows(rng, &emp, &covered, &customers, 6),
                        q,
                        Outcome::Incomplete,
                    )
                }
                2 => {
                    let mut emps = gen::names(rng, "w", 6);
                    let k = rng.below(emps.len());
                    emps[k] = emp.clone();
                    (class, gen::fd_rows(rng, &emps), q, Outcome::Complete)
                }
                3 => (
                    class,
                    gen::crm_rows(rng, &emp, &customers, &customers, 6),
                    q,
                    Outcome::Complete,
                ),
                _ => {
                    let rows = (0..4)
                        .map(|_| Row {
                            rel: 1,
                            vals: vec![gen::Cell::I(rng.below(8) as i64)],
                        })
                        .collect();
                    (
                        class,
                        rows,
                        "Q(X) :- R(X, Y).".to_string(),
                        Outcome::Complete,
                    )
                }
            }
        })
        .collect();
    AssessInputs { specs, ops }
}

pub struct Assess {
    settings: Vec<Setting>,
    ops: Vec<(usize, Vec<Row>, String, Outcome)>,
    budget: Budget,
}

fn assess_setup(i: &AssessInputs, _t: &mut Tracer) -> Res<Assess> {
    let settings = i
        .specs
        .iter()
        .map(adapter::build_setting)
        .collect::<Res<Vec<_>>>()?;
    let mut w = Assess {
        settings,
        ops: i.ops.clone(),
        budget: adapter::budget(2),
    };
    warm_up(&mut w)?;
    Ok(w)
}

impl Workload for Assess {
    fn slice_len(&self) -> usize {
        ASSESS_PATTERN.iter().sum()
    }

    fn run(&mut self, i: usize, t: &mut Tracer) -> Res<Done> {
        let (class, rows, text, _) = &self.ops[i % self.ops.len()];
        let setting = &self.settings[*class];
        let b = &self.budget;
        let db = t.span("data.load_us", Some("data.load.allocs"), || {
            adapter::load(setting, rows)
        })?;
        let q = t.span("query.parse_us", None, || adapter::parse(setting, text))?;
        let downgrades = t.span(
            "analysis.analyze_us",
            Some("analysis.analyze.allocs"),
            || adapter::analyze(setting, &q),
        )?;
        t.count("analysis.downgrade", downgrades as u64);
        let col = t.col();
        let r = t.span("reason.prepare_us", Some("reason.prepare.allocs"), || {
            adapter::reason(setting, &q, &db, b, col)
        })?;
        let v = adapter::decide_static(&r, &db, b, col)?;
        if t.traced() {
            let counters = t.absorb();
            let valuations = counters.get("rcdp.valuations").copied().unwrap_or(0);
            t.shadow("query.eval_us", || adapter::eval(&q, &db));
            t.shadow("constraints.partially_closed_us", || {
                adapter::partially_closed(setting, &db)
            });
            if let Some((p, _)) = t.shadow("plan.prepare_us", || adapter::prepare(setting, &db, b))
            {
                let p = p?;
                t.count("plan.compile", adapter::plans_compiled(&p) as u64);
                core_rcdp_shadow(t, &p, &q, &db, b, valuations);
            }
            rcdp_overhead(t, &r, &db, b);
        }
        Ok(Done::Verdict(v))
    }

    fn check(&self, i: usize, done: &Done) -> bool {
        matches(self.ops[i % self.ops.len()].3, done)
    }

    fn class_of(&self, i: usize) -> &'static str {
        ASSESS_CLASSES[self.ops[i % self.ops.len()].0]
    }
}

// ----------------------------------------------------------------- sweep

/// Catalog entries: FD-pinned CQ, FD-pinned two-disjunct UCQ, CRM with the
/// department FD.
const SWEEP_CLASSES: [&str; 3] = ["fd_cq", "fd_ucq", "crm_fd"];
/// The fastest class (`crm_fd`) and the slowest (`fd_ucq`) fill a quarter
/// of a slice each: p50 falls inside `fd_cq`, p99 inside `fd_ucq`.
const SWEEP_PATTERN: [usize; 3] = [6, 3, 3];
const SWEEP_DBS: usize = 8;
const SWEEP_POOL_SLICES: usize = 8;

pub struct SweepInputs {
    entries: Vec<(SettingSpec, String, Vec<Vec<Row>>)>,
    order: Vec<(usize, usize)>,
}

fn sweep_inputs(rng: &mut Rng) -> SweepInputs {
    let emps = gen::names(rng, "e", 14);
    let fd_dbs: Vec<Vec<Row>> = (0..SWEEP_DBS).map(|_| gen::fd_rows(rng, &emps)).collect();
    let customers = gen::names(rng, "c", 8);
    let emp = format!("e{:03}", rng.below(1000));
    let crm_dbs = (0..SWEEP_DBS)
        .map(|_| gen::crm_rows(rng, &emp, &customers, &customers, 10))
        .collect();
    let (a, b) = (rng.below(7), 7 + rng.below(7));
    let entries = vec![
        (
            gen::fd_setting(),
            format!("Q(C) :- Supt('{}', D, C).", emps[a]),
            fd_dbs.clone(),
        ),
        (
            gen::fd_setting(),
            format!(
                "Q(C) :- Supt('{}', D, C). Q(C) :- Supt('{}', D, C).",
                emps[a], emps[b]
            ),
            fd_dbs,
        ),
        (
            gen::crm_fd_setting(&customers),
            format!("Q(D, C) :- Supt('{emp}', D, C)."),
            crm_dbs,
        ),
    ];
    let order = schedule(rng, &SWEEP_PATTERN, SWEEP_POOL_SLICES)
        .into_iter()
        .map(|e| (e, rng.below(SWEEP_DBS)))
        .collect();
    SweepInputs { entries, order }
}

struct SweepEntry {
    setting: Setting,
    query: Query,
    reasoned: ReasonedSetting,
    prepared: Option<PreparedSetting>,
    dbs: Vec<Database>,
}

pub struct Sweep {
    entries: Vec<SweepEntry>,
    order: Vec<(usize, usize)>,
    budget: Budget,
}

fn sweep_setup(i: &SweepInputs, t: &mut Tracer) -> Res<Sweep> {
    let budget = adapter::budget(2);
    let mut entries = Vec::new();
    for (spec, text, rows) in &i.entries {
        let setting = adapter::build_setting(spec)?;
        let dbs = rows
            .iter()
            .map(|r| {
                t.span("data.load_us", Some("data.load.allocs"), || {
                    adapter::load(&setting, r)
                })
            })
            .collect::<Res<Vec<_>>>()?;
        let query = t.span("query.parse_us", None, || adapter::parse(&setting, text))?;
        let col = t.col();
        let reasoned = t.span("reason.prepare_us", Some("reason.prepare.allocs"), || {
            adapter::reason(&setting, &query, &dbs[0], &budget, col)
        })?;
        t.absorb();
        let prepared = match t.shadow("plan.prepare_us", || {
            adapter::prepare(&setting, &dbs[0], &budget)
        }) {
            Some((p, _)) => {
                let p = p?;
                t.count("plan.compile", adapter::plans_compiled(&p) as u64);
                Some(p)
            }
            None => None,
        };
        entries.push(SweepEntry {
            setting,
            query,
            reasoned,
            prepared,
            dbs,
        });
    }
    let mut w = Sweep {
        entries,
        order: i.order.clone(),
        budget,
    };
    warm_up(&mut w)?;
    Ok(w)
}

impl Workload for Sweep {
    fn slice_len(&self) -> usize {
        SWEEP_PATTERN.iter().sum()
    }

    fn run(&mut self, i: usize, t: &mut Tracer) -> Res<Done> {
        let (e, d) = self.order[i % self.order.len()];
        let entry = &self.entries[e];
        let db = &entry.dbs[d];
        let b = &self.budget;
        let v = adapter::decide_static(&entry.reasoned, db, b, t.col())?;
        if t.traced() {
            let counters = t.absorb();
            let valuations = counters.get("rcdp.valuations").copied().unwrap_or(0);
            t.shadow("query.eval_us", || adapter::eval(&entry.query, db));
            t.shadow("constraints.partially_closed_us", || {
                adapter::partially_closed(&entry.setting, db)
            });
            if let Some(p) = &entry.prepared {
                core_rcdp_shadow(t, p, &entry.query, db, b, valuations);
            }
            rcdp_overhead(t, &entry.reasoned, db, b);
        }
        Ok(Done::Verdict(v))
    }

    fn check(&self, _i: usize, done: &Done) -> bool {
        matches(Outcome::Complete, done)
    }

    fn class_of(&self, i: usize) -> &'static str {
        SWEEP_CLASSES[self.order[i % self.order.len()].0]
    }
}

// --------------------------------------------------------------- monitor

/// Relations with a registered question; one more, `Log`, is read by none.
const MON_RELS: usize = 16;
const MON_LOG: usize = MON_RELS;
/// Single-row grows while a setting is broken, per episode. Six put the
/// recertification class (with the breaks) at 38–92% of the sorted
/// latencies, so p50 falls inside it; the heals, the top 8%, hold p99.
const MON_GROWS: usize = 6;
const MON_EPISODE: usize = MON_GROWS + 7;
const MON_EPISODES_PER_SLICE: usize = 8;
const MON_EMPS: usize = 5;

pub struct MonitorInputs {
    seed: u64,
    customers: Vec<String>,
    emps: Vec<String>,
    spec: SettingSpec,
}

fn monitor_inputs(rng: &mut Rng) -> MonitorInputs {
    let customers = gen::names(rng, "c", 5);
    let emps = gen::names(rng, "e", MON_EMPS);
    let attrs = |a: &[&str]| a.iter().map(|s| (*s).to_string()).collect();
    let mut rels: Vec<gen::Rel> = (0..MON_RELS)
        .map(|i| (format!("Supt{i}"), attrs(&["eid", "dept", "cid"])))
        .collect();
    rels.push(("Log".to_string(), attrs(&["eid", "note"])));
    let base = gen::crm_setting(&customers);
    let spec = SettingSpec {
        rels,
        mrels: base.mrels,
        master: base.master,
        ccs: Vec::new(),
    };
    MonitorInputs {
        seed: rng.next_u64(),
        customers,
        emps,
        spec,
    }
}

/// Even relations carry a CRM question (IND into the master customers),
/// odd ones an Example 3.1 question (FD-pinned employee rows).
fn is_crm(rel: usize) -> bool {
    rel.is_multiple_of(2)
}

/// One transaction of the stream: its class, its `(insert?, row)` ops and
/// the statuses expected after it.
type Step = (&'static str, Vec<(bool, Row)>, Vec<Outcome>);

pub struct MonitorWl {
    mon: Monitor,
    seed: u64,
    customers: Vec<String>,
    emps: Vec<String>,
    episode: Vec<Step>,
    episode_no: usize,
    staged: usize,
}

/// The rows loaded before the first op: on CRM relations the queried
/// employee covers every customer and noise employees support some; on
/// FD relations every employee has one row.
fn monitor_initial(customers: &[String], emps: &[String]) -> Vec<Row> {
    let mut rows = Vec::new();
    for rel in 0..MON_RELS {
        if is_crm(rel) {
            for c in customers {
                rows.push(gen::row(rel, &[&emps[0], "d0", c]));
            }
            for (j, c) in customers.iter().enumerate().step_by(2) {
                rows.push(gen::row(rel, &[&format!("x{j}"), "d1", c]));
            }
        } else {
            for (j, e) in emps.iter().enumerate() {
                let c = &customers[j % customers.len()];
                rows.push(gen::row(rel, &[e, &format!("d{}", j % 3), c]));
            }
        }
    }
    rows
}

fn monitor_setup(i: &MonitorInputs, t: &mut Tracer) -> Res<MonitorWl> {
    let budget = adapter::budget(2);
    let base = adapter::build_setting(&i.spec)?;
    let mut mon = adapter::monitor(&base, &budget)?;
    for rel in 0..MON_RELS {
        let mut spec = i.spec.clone();
        spec.ccs = if is_crm(rel) {
            vec![gen::Cc::Ind {
                rel,
                cols: vec![2],
                mrel: 0,
                mcols: vec![0],
            }]
        } else {
            vec![gen::Cc::Fd {
                rel,
                lhs: vec![0],
                rhs: vec![1, 2],
            }]
        };
        let setting = adapter::build_setting(&spec)?;
        let text = format!("Q(C) :- Supt{rel}('{}', D, C).", i.emps[0]);
        let query = t.span("query.parse_us", None, || adapter::parse(&setting, &text))?;
        adapter::register(&mut mon, &format!("q{rel}"), &setting, query)?;
        let empty = adapter::load(&setting, &[])?;
        if let Some((p, _)) = t.shadow("plan.prepare_us", || {
            adapter::prepare(&setting, &empty, &budget)
        }) {
            t.count("plan.compile", adapter::plans_compiled(&p?) as u64);
        }
    }
    let load: Vec<(bool, Row)> = monitor_initial(&i.customers, &i.emps)
        .into_iter()
        .map(|r| (true, r))
        .collect();
    adapter::apply(&mut mon, &load, t.col())?;
    t.absorb();
    if adapter::statuses(&mon) != vec![Outcome::Complete; MON_RELS] {
        return Err("the initial load is not complete everywhere".to_string());
    }
    Ok(MonitorWl {
        mon,
        seed: i.seed,
        customers: i.customers.clone(),
        emps: i.emps.clone(),
        episode: Vec::new(),
        episode_no: usize::MAX,
        staged: 0,
    })
}

impl MonitorWl {
    /// Episode `e` on one relation (and, in every other episode, a second
    /// one): grow, log, unlog, break, single-row grows while broken, heal,
    /// undo those grows, undo the first grow. The stream returns to the
    /// initial state after every episode, so it is stationary; the undos
    /// revisit earlier states, so the memo answers them, and the log
    /// writes touch no question, so every setting skips them.
    fn episode(&self, e: usize) -> Vec<Step> {
        let mut rng = Rng::new(self.seed ^ (e as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
        let crm = e.is_multiple_of(2);
        let rel = 2 * rng.below(MON_RELS / 2) + usize::from(!crm);
        let second = (e / 2).is_multiple_of(2);
        let rel2 = (rel + 1 + 2 * rng.below(MON_RELS / 2 - 1)) % MON_RELS;
        let cust = |rng: &mut Rng| self.customers[rng.below(self.customers.len())].clone();
        // A row not in the initial state, admissible for the relation.
        let noise = |rng: &mut Rng, r: usize, tag: usize| {
            if is_crm(r) {
                gen::row(r, &[&format!("y{tag}_{}", rng.below(4)), "d2", &cust(rng)])
            } else {
                gen::row(r, &[&format!("f{tag}_{}", rng.below(8)), "d1", &cust(rng)])
            }
        };
        let mut first = vec![(true, noise(&mut rng, rel, 0))];
        if second {
            first.push((true, noise(&mut rng, rel2, 1)));
        }
        let grows: Vec<Row> = (2..2 + MON_GROWS)
            .map(|tag| noise(&mut rng, rel, tag))
            .collect();
        let broken = if crm {
            gen::row(rel, &[&self.emps[0], "d0", &cust(&mut rng)])
        } else {
            gen::row(rel, &[&self.emps[0], "d0", &self.customers[0]])
        };
        let log = gen::row(MON_LOG, &[&self.emps[0], &format!("n{}", rng.below(100))]);
        let ok = vec![Outcome::Complete; MON_RELS];
        let mut broken_st = ok.clone();
        broken_st[rel] = Outcome::Incomplete;
        let (break_class, heal_class) = if crm {
            ("crm_break", "crm_heal")
        } else {
            ("fd_break", "fd_heal")
        };
        let mut steps: Vec<Step> = vec![
            ("grow", first.clone(), ok.clone()),
            ("log", vec![(true, log.clone())], ok.clone()),
            ("log", vec![(false, log)], ok.clone()),
            (
                break_class,
                vec![(false, broken.clone())],
                broken_st.clone(),
            ),
        ];
        for g in &grows {
            steps.push(("grow_broken", vec![(true, g.clone())], broken_st.clone()));
        }
        steps.push((heal_class, vec![(true, broken)], ok.clone()));
        let undo_grows = grows.into_iter().map(|g| (false, g)).collect();
        steps.push(("undo", undo_grows, ok.clone()));
        let undo_first = first.into_iter().map(|(_, r)| (false, r)).collect();
        steps.push(("undo", undo_first, ok));
        steps
    }
}

impl Workload for MonitorWl {
    fn slice_len(&self) -> usize {
        MON_EPISODE * MON_EPISODES_PER_SLICE
    }

    fn stage(&mut self, i: usize) {
        let e = i / MON_EPISODE;
        if e != self.episode_no {
            self.episode = self.episode(e);
            self.episode_no = e;
        }
        self.staged = i % MON_EPISODE;
    }

    fn run(&mut self, _i: usize, t: &mut Tracer) -> Res<Done> {
        let ops = &self.episode[self.staged].1;
        let before = t.traced().then(|| adapter::monitor_counters(&self.mon));
        let col = t.col();
        let mon = &mut self.mon;
        let t0 = std::time::Instant::now();
        t.span("monitor.apply_us", Some("monitor.apply.allocs"), || {
            adapter::apply(mon, ops, col)
        })?;
        let apply_us = t0.elapsed().as_secs_f64() * 1e6;
        let statuses = adapter::statuses(&self.mon);
        if let Some(before) = before {
            t.absorb();
            // Classify the apply by the rungs it took.
            let after = adapter::monitor_counters(&self.mon);
            let moved = |name: &str| {
                let at = |c: &[(&str, u64)]| c.iter().find(|(n, _)| *n == name).map_or(0, |c| c.1);
                at(&after) > at(&before)
            };
            let bucket = if moved("monitor.redecide") {
                t.count("monitor.txn.redecide", 1);
                "monitor.apply_redecide_us"
            } else if moved("monitor.memo.hit")
                || moved("monitor.fast_complete")
                || moved("monitor.recert.hit")
            {
                t.count("monitor.txn.fast", 1);
                "monitor.apply_fast_us"
            } else {
                "monitor.apply_skip_us"
            };
            t.sample(bucket, apply_us);
        }
        Ok(Done::Statuses(statuses))
    }

    fn check(&self, _i: usize, done: &Done) -> bool {
        matches!(done, Done::Statuses(s) if *s == self.episode[self.staged].2)
    }

    fn class_of(&self, _i: usize) -> &'static str {
        self.episode[self.staged].0
    }
}

// ---------------------------------------------------------------- design

/// Query classes over three fixed settings: the Corollary 4.6 setting with
/// levels `{0, 1}` (a bounded query with a certification, an unbounded
/// one), the CRM setting (Proposition 4.3: bounded, unbounded), and the
/// same Work setting with the single level `{0}`, where the unbounded
/// query escapes no constraint generically, so only the exhaustive E2
/// search over maximal consistent candidate sets proves it empty.
const DESIGN_CLASSES: [&str; 5] = [
    "work_bounded",
    "work_unbounded",
    "crm_bounded",
    "crm_unbounded",
    "e2_empty",
];
/// The two unbounded classes fill 31% of a slice, `work_bounded` 50% and
/// the slowest, `e2_empty`, 12.5%: p50 falls inside `work_bounded`, p99
/// inside `e2_empty`.
const DESIGN_PATTERN: [usize; 5] = [8, 3, 1, 2, 2];
const DESIGN_POOL_SLICES: usize = 8;

pub struct DesignInputs {
    specs: Vec<SettingSpec>,
    ops: Vec<(usize, String, Outcome)>,
    classes: Vec<usize>,
}

fn design_inputs(rng: &mut Rng) -> DesignInputs {
    let customers = gen::names(rng, "c", 6);
    let specs = vec![
        gen::work_setting(2),
        gen::crm_setting(&customers),
        gen::work_setting(1),
    ];
    let classes = schedule(rng, &DESIGN_PATTERN, DESIGN_POOL_SLICES);
    let ops = classes
        .iter()
        .map(|&class| {
            let e = format!("e{:03}", rng.below(1000));
            match class {
                0 => (
                    0,
                    format!("Q(T) :- Work('{e}', T), Cert('{e}', 1)."),
                    Outcome::Nonempty,
                ),
                1 => (
                    0,
                    format!("Q(E, T) :- Work(E, T), Cert(E, L), L = {}.", rng.below(2)),
                    Outcome::Empty,
                ),
                2 => (1, format!("Q(C) :- Supt('{e}', D, C)."), Outcome::Nonempty),
                3 => (1, format!("Q(D) :- Supt('{e}', D, C)."), Outcome::Empty),
                _ => (2, "Q(E) :- Cert(E, L).".to_string(), Outcome::Empty),
            }
        })
        .collect();
    DesignInputs {
        specs,
        ops,
        classes,
    }
}

pub struct Design {
    prepared: Vec<PreparedSetting>,
    queries: Vec<(usize, Query, Outcome)>,
    classes: Vec<usize>,
    budget: Budget,
}

fn design_setup(i: &DesignInputs, t: &mut Tracer) -> Res<Design> {
    // Three fresh values: the FD tableau has three variables, so an
    // exhausted search is an exact `Empty`, not an `Unknown`.
    let budget = adapter::budget(3);
    let mut settings = Vec::new();
    let mut prepared = Vec::new();
    for spec in &i.specs {
        let setting = adapter::build_setting(spec)?;
        let empty = adapter::load(&setting, &[])?;
        let p = t.span("plan.prepare_us", None, || {
            adapter::prepare(&setting, &empty, &budget)
        })?;
        t.count("plan.compile", adapter::plans_compiled(&p) as u64);
        prepared.push(p);
        settings.push(setting);
    }
    let queries = i
        .ops
        .iter()
        .map(|(s, text, truth)| {
            let q = t.span("query.parse_us", None, || {
                adapter::parse(&settings[*s], text)
            })?;
            Ok((*s, q, *truth))
        })
        .collect::<Res<Vec<_>>>()?;
    let mut w = Design {
        prepared,
        queries,
        classes: i.classes.clone(),
        budget,
    };
    warm_up(&mut w)?;
    Ok(w)
}

impl Workload for Design {
    fn slice_len(&self) -> usize {
        DESIGN_PATTERN.iter().sum()
    }

    fn run(&mut self, i: usize, t: &mut Tracer) -> Res<Done> {
        let (s, q, _) = &self.queries[i % self.queries.len()];
        let p = &self.prepared[*s];
        let b = &self.budget;
        let v = adapter::decide_rcqp(p, q, b, t.col())?;
        if t.traced() {
            t.absorb();
            t.shadow("ric.try_us", || adapter::decide_rcqp(p, q, b, None));
            t.shadow("core.rcqp_us", || adapter::core_rcqp(p, q, b));
        }
        Ok(Done::Verdict(v))
    }

    fn check(&self, i: usize, done: &Done) -> bool {
        matches(self.queries[i % self.queries.len()].2, done)
    }

    fn class_of(&self, i: usize) -> &'static str {
        DESIGN_CLASSES[self.classes[i % self.classes.len()]]
    }
}
