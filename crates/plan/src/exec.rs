//! Plan executors: run a [`PreparedPlan`] / [`DeltaPlans`] against any
//! store of rows.
//!
//! The executor is a direct loop over the compiled step list: each step
//! either scans its relation or probes the pre-resolved column, matches the
//! row against the step's arena'd column `Action`s (constants, equality
//! checks against bound slots, fresh binds), runs the inequality checks
//! pinned to this step, and recurses. The only mutable state is the binding
//! array inside a reusable [`PlanScratch`]; a candidate row that fails
//! mid-match undoes exactly the binds it performed (a second pass over the
//! same action slice — no allocation).
//!
//! One executor body serves every binding value type `V`: [`Value`] rows of
//! any [`TupleStore`] (and of an [`Overlay`] for delta plans), or the dense
//! `u32` id rows the exact RCDP search keeps per decision. The caller passes
//! the plan's constant pool in its own representation — the plan's
//! [`PreparedPlan::consts`] for `Value`, a per-decision translation for ids.
//!
//! Answer-set equality with the greedy evaluator is by construction: both
//! enumerate exactly the valuations satisfying every atom and inequality,
//! and answers land in a `BTreeSet`, so join order is unobservable.

use crate::planner::{Action, DeltaPlans, NeqCheck, PreparedPlan, ProbeChoice, Src};
use ric_data::{Overlay, RelId, Tuple, TupleStore, Value};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::BTreeSet;

/// The rows a plan joins over: each row borrows as a slice of binding
/// values `V`. Visitors return `false` to stop; so do the methods, iff they
/// stopped early.
pub trait Rows<V> {
    /// One row as the store holds it (a [`Tuple`], or a slice of ids).
    type Row: Borrow<[V]> + ?Sized;

    /// Visit every row of `rel` in the store's deterministic order.
    fn scan_rows(&self, rel: RelId, f: &mut dyn FnMut(&Self::Row) -> bool) -> bool;

    /// Visit the rows of `rel` holding `key` at column `col`, in scan order.
    fn probe_rows(
        &self,
        rel: RelId,
        col: usize,
        key: &V,
        f: &mut dyn FnMut(&Self::Row) -> bool,
    ) -> bool;
}

/// A base-plus-delta view a [`DeltaPlans`] runs on: its pinned step reads
/// the *novel* delta rows (those not already in the base).
pub trait DeltaRows<V>: Rows<V> {
    /// Visit the novel delta rows of `rel`.
    fn novel_rows(&self, rel: RelId, f: &mut dyn FnMut(&Self::Row) -> bool) -> bool;
}

impl<S: TupleStore> Rows<Value> for S {
    type Row = Tuple;

    fn scan_rows(&self, rel: RelId, f: &mut dyn FnMut(&Tuple) -> bool) -> bool {
        self.scan(rel, f)
    }

    fn probe_rows(
        &self,
        rel: RelId,
        col: usize,
        key: &Value,
        f: &mut dyn FnMut(&Tuple) -> bool,
    ) -> bool {
        self.probe(rel, col, key, f)
    }
}

impl DeltaRows<Value> for Overlay<'_> {
    fn novel_rows(&self, rel: RelId, f: &mut dyn FnMut(&Tuple) -> bool) -> bool {
        self.for_each_novel(rel, f)
    }
}

/// Reusable execution state: the variable binding array and the head row.
///
/// Executions borrow it mutably, so one scratch serves any number of plans
/// sequentially. Cross-thread sharing is not needed — each thread keeps its
/// own (see [`with_scratch`]).
#[derive(Debug)]
pub struct PlanScratch<V = Value> {
    binding: Vec<Option<V>>,
    head: Vec<V>,
}

impl<V> Default for PlanScratch<V> {
    fn default() -> Self {
        PlanScratch {
            binding: Vec::new(),
            head: Vec::new(),
        }
    }
}

impl<V: Clone> PlanScratch<V> {
    fn enter(&mut self, n_vars: usize) -> (&mut [Option<V>], &mut Vec<V>) {
        self.binding.clear();
        self.binding.resize(n_vars, None);
        (&mut self.binding, &mut self.head)
    }
}

/// Run `f` with a thread-local [`PlanScratch`] — the zero-setup path for
/// callers (like the constraint checker) that are themselves called from
/// many threads. Re-entrant calls fall back to a fresh scratch.
pub fn with_scratch<R>(f: impl FnOnce(&mut PlanScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<PlanScratch> = RefCell::new(PlanScratch::default());
    }
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut PlanScratch::default()),
    })
}

/// One execution of a plan over `store`, with the constant pool `consts` in
/// the store's value representation.
struct Exec<'a, V, S> {
    plan: &'a PreparedPlan,
    consts: &'a [V],
    store: &'a S,
}

impl<V: Clone + PartialEq, S: Rows<V>> Exec<'_, V, S> {
    fn src<'b>(&'b self, s: &Src, binding: &'b [Option<V>]) -> &'b V {
        match s {
            Src::Const(c) => &self.consts[*c as usize],
            Src::Var(v) => binding[*v as usize]
                .as_ref()
                .unwrap_or_else(|| unreachable!("planner pins checks after both sides are bound")),
        }
    }

    fn neqs_hold(&self, checks: &[NeqCheck], binding: &[Option<V>]) -> bool {
        checks
            .iter()
            .all(|c| self.src(&c.l, binding) != self.src(&c.r, binding))
    }

    /// Write the head row of a complete binding into `out`.
    fn head_into(&self, binding: &[Option<V>], out: &mut Vec<V>) {
        out.clear();
        out.extend(self.plan.head.iter().map(|s| self.src(s, binding).clone()));
    }

    /// Match `row` against step `k`'s actions and pinned inequalities,
    /// recurse on success, and undo exactly the binds performed. Returns
    /// `false` iff the visitor below requested a stop.
    fn match_and_descend(
        &self,
        k: usize,
        row: &S::Row,
        binding: &mut [Option<V>],
        f: &mut dyn FnMut(&[Option<V>]) -> bool,
    ) -> bool {
        let row: &[V] = row.borrow();
        let plan = self.plan;
        let step = &plan.steps[k];
        let (start, len) = step.actions;
        let actions = &plan.actions[start as usize..(start + len) as usize];
        if row.len() != actions.len() {
            return true;
        }
        let mut bound = 0usize;
        let mut ok = true;
        for (v, act) in row.iter().zip(actions) {
            match act {
                Action::Const(c) => {
                    if *v != self.consts[*c as usize] {
                        ok = false;
                        break;
                    }
                }
                Action::Check(slot) => {
                    if binding[*slot as usize].as_ref() != Some(v) {
                        ok = false;
                        break;
                    }
                }
                Action::Bind(slot) => {
                    binding[*slot as usize] = Some(v.clone());
                    bound += 1;
                }
            }
        }
        if ok {
            let (ns, nl) = step.neqs;
            ok = self.neqs_hold(&plan.neqs[ns as usize..(ns + nl) as usize], binding);
        }
        let keep_going = if ok {
            self.step(k + 1, binding, f)
        } else {
            true
        };
        if bound > 0 {
            // Undo pass: reset the first `bound` Bind slots (actions execute
            // in column order, so these are exactly the binds performed).
            let mut undone = 0usize;
            for act in actions {
                if let Action::Bind(slot) = act {
                    binding[*slot as usize] = None;
                    undone += 1;
                    if undone == bound {
                        break;
                    }
                }
            }
        }
        keep_going
    }

    /// Execute from step `k` onward. Returns `false` iff `f` stopped early.
    fn step(
        &self,
        k: usize,
        binding: &mut [Option<V>],
        f: &mut dyn FnMut(&[Option<V>]) -> bool,
    ) -> bool {
        if k == self.plan.steps.len() {
            return f(binding);
        }
        let step = &self.plan.steps[k];
        match &step.probe {
            ProbeChoice::Scan => self.store.scan_rows(step.rel, &mut |row| {
                self.match_and_descend(k, row, binding, f)
            }),
            ProbeChoice::ConstKey { col, key } => self.store.probe_rows(
                step.rel,
                *col as usize,
                &self.consts[*key as usize],
                &mut |row| self.match_and_descend(k, row, binding, f),
            ),
            ProbeChoice::VarKey { col, var } => {
                let key = binding[*var as usize]
                    .clone()
                    .unwrap_or_else(|| unreachable!("planner probes only earlier-bound slots"));
                self.store
                    .probe_rows(step.rel, *col as usize, &key, &mut |row| {
                        self.match_and_descend(k, row, binding, f)
                    })
            }
        }
    }
}

impl PreparedPlan {
    /// Evaluate the plan over `store` and insert every answer into `out`.
    pub fn eval_into<S: TupleStore>(
        &self,
        store: &S,
        scratch: &mut PlanScratch,
        out: &mut BTreeSet<Tuple>,
    ) {
        debug_assert!(!self.pinned, "delta plans execute through DeltaPlans");
        let exec = Exec {
            plan: self,
            consts: &self.consts,
            store,
        };
        let (binding, head) = scratch.enter(self.n_vars as usize);
        exec.step(0, binding, &mut |b| {
            exec.head_into(b, head);
            out.insert(Tuple::new(head.iter().cloned()));
            true
        });
    }

    /// Execute one pin plan over `store`: step 0 iterates novel Δ-rows, the
    /// remaining steps join over the full view. Returns `false` iff `f`
    /// stopped early.
    fn delta_answers<V: Clone + PartialEq, S: DeltaRows<V>>(
        &self,
        consts: &[V],
        store: &S,
        scratch: &mut PlanScratch<V>,
        f: &mut dyn FnMut(&[V]) -> bool,
    ) -> bool {
        debug_assert!(self.pinned, "not a delta pin plan");
        let Some(step0) = self.steps.first() else {
            return true; // atomless: no pins, nothing novel to derive.
        };
        let exec = Exec {
            plan: self,
            consts,
            store,
        };
        let (binding, head) = scratch.enter(self.n_vars as usize);
        let mut g = |b: &[Option<V>]| {
            exec.head_into(b, head);
            f(head)
        };
        store.novel_rows(step0.rel, &mut |row| {
            exec.match_and_descend(0, row, binding, &mut g)
        })
    }
}

impl DeltaPlans {
    /// Visit every answer derivable *using at least one novel Δ-row* — the
    /// compiled mirror of `eval_tableau_delta` — pin by pin, with the
    /// constant pool `consts` ([`Self::consts`] in the store's value
    /// representation); stop when `f` returns `false`. Returns `false` iff
    /// stopped early.
    pub fn delta_answers<V: Clone + PartialEq, S: DeltaRows<V>>(
        &self,
        consts: &[V],
        store: &S,
        scratch: &mut PlanScratch<V>,
        f: &mut dyn FnMut(&[V]) -> bool,
    ) -> bool {
        self.pins
            .iter()
            .all(|plan| plan.delta_answers(consts, store, scratch, f))
    }

    /// Every Δ-derived answer over `ov`, inserted into `out`.
    pub fn eval_delta_into(
        &self,
        ov: &Overlay<'_>,
        scratch: &mut PlanScratch,
        out: &mut BTreeSet<Tuple>,
    ) {
        self.delta_answers(self.consts(), ov, scratch, &mut |row| {
            out.insert(Tuple::new(row.iter().cloned()));
            true
        });
    }

    /// Are all Δ-derived answers contained in `rhs`? Exits on the first
    /// answer outside `rhs` without materializing the answer set — the
    /// decider hot path for containment-constraint bodies.
    pub fn delta_answers_within(
        &self,
        ov: &Overlay<'_>,
        scratch: &mut PlanScratch,
        rhs: &BTreeSet<Tuple>,
    ) -> bool {
        self.delta_answers(self.consts(), ov, scratch, &mut |row| rhs.contains(row))
    }
}
