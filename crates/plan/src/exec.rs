//! Plan executors: run a [`PreparedPlan`] / [`DeltaPlans`] against any
//! [`TupleStore`].
//!
//! The executor is a direct loop over the compiled step list: each step
//! either scans its relation or probes the pre-resolved column, matches the
//! tuple against the step's arena'd column `Action`s (constants, equality
//! checks against bound slots, fresh binds), runs the inequality checks
//! pinned to this step, and recurses. The only mutable state is the binding
//! array inside a reusable [`PlanScratch`]; a candidate tuple that fails
//! mid-match undoes exactly the binds it performed (a second pass over the
//! same action slice — no allocation).
//!
//! Answer-set equality with the greedy evaluator is by construction: both
//! enumerate exactly the valuations satisfying every atom and inequality,
//! and answers land in a `BTreeSet`, so join order is unobservable.

use crate::planner::{Action, DeltaPlans, NeqCheck, PreparedPlan, ProbeChoice, Src};
use ric_data::{Overlay, Tuple, TupleStore, Value};
use std::cell::RefCell;
use std::collections::BTreeSet;

/// Reusable per-thread execution state: the variable binding array.
///
/// Executions borrow it mutably, so one scratch serves any number of plans
/// sequentially. Cross-thread sharing is not needed — each thread keeps its
/// own (see [`with_scratch`]).
#[derive(Default, Debug)]
pub struct PlanScratch {
    binding: Vec<Option<Value>>,
}

impl PlanScratch {
    fn enter(&mut self, n_vars: usize) -> &mut [Option<Value>] {
        self.binding.clear();
        self.binding.resize(n_vars, None);
        &mut self.binding
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

fn src_value<'a>(s: &'a Src, binding: &'a [Option<Value>]) -> &'a Value {
    match s {
        Src::Const(c) => c,
        Src::Var(v) => binding[*v as usize]
            .as_ref()
            .unwrap_or_else(|| unreachable!("planner pins checks after both sides are bound")),
    }
}

fn neqs_hold(checks: &[NeqCheck], binding: &[Option<Value>]) -> bool {
    checks
        .iter()
        .all(|c| src_value(&c.l, binding) != src_value(&c.r, binding))
}

impl PreparedPlan {
    /// The head tuple of a complete binding.
    fn head_tuple(&self, binding: &[Option<Value>]) -> Tuple {
        Tuple::new(self.head.iter().map(|s| src_value(s, binding).clone()))
    }

    /// Match `tuple` against step `k`'s actions and pinned inequalities,
    /// recurse on success, and undo exactly the binds performed. Returns
    /// `false` iff the visitor below requested a stop.
    fn match_and_descend<S: TupleStore>(
        &self,
        store: &S,
        k: usize,
        tuple: &Tuple,
        binding: &mut [Option<Value>],
        f: &mut dyn FnMut(&[Option<Value>]) -> bool,
    ) -> bool {
        let step = &self.steps[k];
        let (start, len) = step.actions;
        let actions = &self.actions[start as usize..(start + len) as usize];
        if tuple.arity() != actions.len() {
            return true;
        }
        let mut bound = 0usize;
        let mut ok = true;
        for (col, act) in actions.iter().enumerate() {
            match act {
                Action::Const(c) => {
                    if tuple.get(col) != c {
                        ok = false;
                        break;
                    }
                }
                Action::Check(slot) => {
                    if binding[*slot as usize].as_ref() != Some(tuple.get(col)) {
                        ok = false;
                        break;
                    }
                }
                Action::Bind(slot) => {
                    binding[*slot as usize] = Some(tuple.get(col).clone());
                    bound += 1;
                }
            }
        }
        if ok {
            let (ns, nl) = step.neqs;
            ok = neqs_hold(&self.neqs[ns as usize..(ns + nl) as usize], binding);
        }
        let keep_going = if ok {
            self.step(store, k + 1, binding, f)
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
    fn step<S: TupleStore>(
        &self,
        store: &S,
        k: usize,
        binding: &mut [Option<Value>],
        f: &mut dyn FnMut(&[Option<Value>]) -> bool,
    ) -> bool {
        if k == self.steps.len() {
            return f(binding);
        }
        let step = &self.steps[k];
        match &step.probe {
            ProbeChoice::Scan => store.scan(step.rel, &mut |t| {
                self.match_and_descend(store, k, t, binding, f)
            }),
            ProbeChoice::ConstKey { col, key } => {
                store.probe(step.rel, *col as usize, key, &mut |t| {
                    self.match_and_descend(store, k, t, binding, f)
                })
            }
            ProbeChoice::VarKey { col, var } => {
                let key = binding[*var as usize]
                    .clone()
                    .unwrap_or_else(|| unreachable!("planner probes only earlier-bound slots"));
                store.probe(step.rel, *col as usize, &key, &mut |t| {
                    self.match_and_descend(store, k, t, binding, f)
                })
            }
        }
    }

    /// Visit every answer (head tuple) of the plan over `store`; stop when
    /// `f` returns `false`. Returns `false` iff stopped early.
    pub fn for_each_answer<S: TupleStore>(
        &self,
        store: &S,
        scratch: &mut PlanScratch,
        f: &mut dyn FnMut(Tuple) -> bool,
    ) -> bool {
        debug_assert!(!self.pinned, "delta plans execute through DeltaPlans");
        let binding = scratch.enter(self.n_vars as usize);
        self.step(store, 0, binding, &mut |b| f(self.head_tuple(b)))
    }

    /// Evaluate the plan and insert every answer into `out`.
    pub fn eval_into<S: TupleStore>(
        &self,
        store: &S,
        scratch: &mut PlanScratch,
        out: &mut BTreeSet<Tuple>,
    ) {
        self.for_each_answer(store, scratch, &mut |t| {
            out.insert(t);
            true
        });
    }

    /// Boolean evaluation: does the plan produce at least one answer?
    pub fn holds<S: TupleStore>(&self, store: &S, scratch: &mut PlanScratch) -> bool {
        !self.for_each_answer(store, scratch, &mut |_| false)
    }

    /// Execute one pin plan over `ov`: step 0 iterates novel Δ-tuples, the
    /// remaining steps join over the full overlay. Returns `false` iff `f`
    /// stopped early.
    fn for_each_delta_answer(
        &self,
        ov: &Overlay<'_>,
        scratch: &mut PlanScratch,
        f: &mut dyn FnMut(Tuple) -> bool,
    ) -> bool {
        debug_assert!(self.pinned, "not a delta pin plan");
        let binding = scratch.enter(self.n_vars as usize);
        let Some(step0) = self.steps.first() else {
            return true; // atomless: no pins, nothing novel to derive.
        };
        let mut g = |b: &[Option<Value>]| f(self.head_tuple(b));
        ov.for_each_novel(step0.rel, &mut |t| {
            self.match_and_descend(ov, 0, t, binding, &mut g)
        })
    }
}

impl DeltaPlans {
    /// Every answer derivable *using at least one novel Δ-tuple* — the
    /// compiled mirror of `eval_tableau_delta` — inserted into `out`.
    pub fn eval_delta_into(
        &self,
        ov: &Overlay<'_>,
        scratch: &mut PlanScratch,
        out: &mut BTreeSet<Tuple>,
    ) {
        for plan in self.pins.iter() {
            plan.for_each_delta_answer(ov, scratch, &mut |t| {
                out.insert(t);
                true
            });
        }
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
        for plan in self.pins.iter() {
            let complete = plan.for_each_delta_answer(ov, scratch, &mut |t| rhs.contains(&t));
            if !complete {
                return false;
            }
        }
        true
    }
}
