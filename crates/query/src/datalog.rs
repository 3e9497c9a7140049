//! Datalog (the paper's FP, Section 2.1(f)): positive rules with `=` and `≠`,
//! evaluated with an inflationary (semi-naive) fixpoint.
//!
//! FP sits on the undecidable side of Tables I and II; like FO it is needed
//! here so the bounded semi-decision procedures can evaluate FP queries (e.g.
//! the transitive-closure query `Q_3` of Example 1.1 and the 2-head-DFA
//! reachability query of Theorem 3.1(3)).

use crate::cq::Atom;
use crate::term::{Term, Var};
use ric_data::{Database, Instance, Tuple, Value};
use std::collections::BTreeSet;
use std::fmt;

/// Identifies an IDB predicate within a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PredId(pub usize);

/// A body literal.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum Literal {
    /// An EDB atom over the database schema.
    Edb(Atom),
    /// An IDB atom over a program predicate.
    Idb(PredId, Vec<Term>),
    /// Equality.
    Eq(Term, Term),
    /// Inequality.
    Neq(Term, Term),
}

/// A rule `p(x̄) ← l_1, …, l_n`.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct Rule {
    /// Head predicate.
    pub head: PredId,
    /// Head arguments.
    pub head_args: Vec<Term>,
    /// Body literals.
    pub body: Vec<Literal>,
    /// Number of variables in the rule (rule-local numbering).
    pub n_vars: u32,
}

/// Hard cap on body literals per rule; beyond it [`Program::validate`]
/// rejects the rule instead of letting the recursive evaluator chew through
/// an adversarial body (each literal adds a recursion frame in `fire_inner`).
pub const MAX_RULE_BODY: usize = 4096;

/// Why a program is ill-formed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProgramError {
    /// A head or comparison variable that occurs in no positive relational
    /// body literal (not range-restricted).
    NotRangeRestricted { rule: usize, var: Var },
    /// An IDB atom whose arity disagrees with the predicate declaration.
    ArityMismatch { rule: usize, pred: PredId },
    /// A rule body with more than [`MAX_RULE_BODY`] literals.
    BodyTooLong { rule: usize, len: usize },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::NotRangeRestricted { rule, var } => {
                write!(f, "rule {rule}: variable {var} is not range-restricted")
            }
            ProgramError::ArityMismatch { rule, pred } => {
                write!(f, "rule {rule}: arity mismatch for predicate P{}", pred.0)
            }
            ProgramError::BodyTooLong { rule, len } => {
                write!(
                    f,
                    "rule {rule}: body has {len} literals (limit {MAX_RULE_BODY})"
                )
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A datalog program with a designated output predicate.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct Program {
    /// Predicate display names.
    pub pred_names: Vec<String>,
    /// Predicate arities.
    pub arities: Vec<usize>,
    /// The rules.
    pub rules: Vec<Rule>,
    /// The output predicate.
    pub output: PredId,
}

impl Program {
    /// Validate range restriction and arities.
    pub fn validate(&self) -> Result<(), ProgramError> {
        for (ri, rule) in self.rules.iter().enumerate() {
            if rule.body.len() > MAX_RULE_BODY {
                return Err(ProgramError::BodyTooLong {
                    rule: ri,
                    len: rule.body.len(),
                });
            }
            // Arities of IDB literals and the head.
            if rule.head_args.len() != self.arities[rule.head.0] {
                return Err(ProgramError::ArityMismatch {
                    rule: ri,
                    pred: rule.head,
                });
            }
            for lit in &rule.body {
                if let Literal::Idb(p, args) = lit {
                    if args.len() != self.arities[p.0] {
                        return Err(ProgramError::ArityMismatch { rule: ri, pred: *p });
                    }
                }
            }
            // Range restriction: variables bound by a positive relational
            // literal, closed under equality propagation (`x = y` or
            // `x = c` makes `x` bound when the other side is).
            let mut positive: BTreeSet<Var> = BTreeSet::new();
            for lit in &rule.body {
                match lit {
                    Literal::Edb(a) => positive.extend(a.vars()),
                    Literal::Idb(_, args) => positive.extend(args.iter().filter_map(Term::as_var)),
                    _ => {}
                }
            }
            loop {
                let mut grew = false;
                for lit in &rule.body {
                    if let Literal::Eq(l, r) = lit {
                        let l_bound = match l {
                            Term::Const(_) => true,
                            Term::Var(v) => positive.contains(v),
                        };
                        let r_bound = match r {
                            Term::Const(_) => true,
                            Term::Var(v) => positive.contains(v),
                        };
                        if l_bound && !r_bound {
                            if let Term::Var(v) = r {
                                grew |= positive.insert(*v);
                            }
                        }
                        if r_bound && !l_bound {
                            if let Term::Var(v) = l {
                                grew |= positive.insert(*v);
                            }
                        }
                    }
                }
                if !grew {
                    break;
                }
            }
            let check = |t: &Term| -> Result<(), ProgramError> {
                if let Term::Var(v) = t {
                    if !positive.contains(v) {
                        return Err(ProgramError::NotRangeRestricted { rule: ri, var: *v });
                    }
                }
                Ok(())
            };
            for t in &rule.head_args {
                check(t)?;
            }
            for lit in &rule.body {
                match lit {
                    Literal::Eq(l, r) | Literal::Neq(l, r) => {
                        check(l)?;
                        check(r)?;
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Evaluate the program on a database with a semi-naive fixpoint; returns
    /// the output predicate's tuples.
    pub fn eval(&self, db: &Database) -> BTreeSet<Tuple> {
        self.eval_all(db)[self.output.0].iter().cloned().collect()
    }

    /// Evaluate and return every IDB instance (useful for debugging and for
    /// the reduction tests, which inspect auxiliary predicates).
    pub fn eval_all(&self, db: &Database) -> Vec<Instance> {
        let n = self.arities.len();
        let mut idb: Vec<Instance> = vec![Instance::new(); n];
        let mut delta: Vec<Instance> = vec![Instance::new(); n];

        // First round: every rule against the (empty) IDB.
        for rule in &self.rules {
            for t in fire(rule, db, &idb, &delta, None) {
                if idb[rule.head.0].insert(t.clone()) {
                    delta[rule.head.0].insert(t);
                }
            }
        }
        // Semi-naive iteration: each subsequent round requires at least one
        // IDB literal bound to the previous round's delta.
        loop {
            let mut new_delta: Vec<Instance> = vec![Instance::new(); n];
            let mut grew = false;
            for rule in &self.rules {
                let idb_positions: Vec<usize> = rule
                    .body
                    .iter()
                    .enumerate()
                    .filter_map(|(i, l)| matches!(l, Literal::Idb(..)).then_some(i))
                    .collect();
                for &pos in &idb_positions {
                    let Literal::Idb(p, _) = &rule.body[pos] else {
                        unreachable!()
                    };
                    if delta[p.0].is_empty() {
                        continue;
                    }
                    for t in fire(rule, db, &idb, &delta, Some(pos)) {
                        if !idb[rule.head.0].contains(&t) {
                            new_delta[rule.head.0].insert(t);
                            grew = true;
                        }
                    }
                }
            }
            if !grew {
                break;
            }
            for (full, d) in idb.iter_mut().zip(new_delta.iter()) {
                full.union_with(d);
            }
            // Note: classic semi-naive joins delta against "idb before this
            // round" for the delta position; joining against the updated idb
            // is still sound for positive programs (it may only find tuples
            // earlier).
            delta = new_delta;
        }
        idb
    }
}

/// Evaluation context for one rule firing, threaded through the recursion.
struct FireCtx<'a> {
    rule: &'a Rule,
    order: &'a [usize],
    db: &'a Database,
    idb: &'a [Instance],
    delta: &'a [Instance],
    /// Body position whose IDB literal joins against `delta` instead of the
    /// full `idb` — the position-precise semi-naive restriction.
    delta_pos: Option<usize>,
}

/// Evaluate one rule body; if `delta_pos` is set, the IDB literal at that
/// position ranges over the previous round's delta only, so every derived
/// tuple genuinely uses a last-round fact at that position.
fn fire(
    rule: &Rule,
    db: &Database,
    idb: &[Instance],
    delta: &[Instance],
    delta_pos: Option<usize>,
) -> Vec<Tuple> {
    let Some(order) = schedule_body(rule) else {
        // No evaluable ordering (a comparison never gets its variables
        // bound); such a rule cannot derive anything.
        return Vec::new();
    };
    let ctx = FireCtx {
        rule,
        order: &order,
        db,
        idb,
        delta,
        delta_pos,
    };
    let mut out = Vec::new();
    let mut binding: Vec<Option<Value>> = vec![None; rule.n_vars as usize];
    fire_inner(&ctx, 0, &mut binding, &mut out);
    out
}

/// Greedily order the body so every comparison sees the bindings it needs:
/// relational literals are always schedulable (they bind their variables),
/// `l = r` needs at least one side bound (it then binds the other), and
/// `l ≠ r` needs both sides bound. The scan restarts from the front after
/// each pick, so the original literal order is preserved wherever legal.
/// `None` when some comparison can never be scheduled.
#[allow(clippy::needless_range_loop)] // `i` indexes three parallel structures
fn schedule_body(rule: &Rule) -> Option<Vec<usize>> {
    let n = rule.body.len();
    let mut order = Vec::with_capacity(n);
    let mut scheduled = vec![false; n];
    let mut bound = vec![false; rule.n_vars as usize];
    let is_bound = |t: &Term, bound: &[bool]| match t {
        Term::Const(_) => true,
        Term::Var(v) => bound[v.idx()],
    };
    while order.len() < n {
        let mut progressed = false;
        for i in 0..n {
            if scheduled[i] {
                continue;
            }
            let ready = match &rule.body[i] {
                Literal::Edb(_) | Literal::Idb(..) => true,
                Literal::Eq(l, r) => is_bound(l, &bound) || is_bound(r, &bound),
                Literal::Neq(l, r) => is_bound(l, &bound) && is_bound(r, &bound),
            };
            if !ready {
                continue;
            }
            scheduled[i] = true;
            order.push(i);
            match &rule.body[i] {
                Literal::Edb(a) => {
                    for v in a.vars() {
                        bound[v.idx()] = true;
                    }
                }
                Literal::Idb(_, args) => {
                    for v in args.iter().filter_map(Term::as_var) {
                        bound[v.idx()] = true;
                    }
                }
                Literal::Eq(l, r) => {
                    for t in [l, r] {
                        if let Term::Var(v) = t {
                            bound[v.idx()] = true;
                        }
                    }
                }
                Literal::Neq(..) => {}
            }
            progressed = true;
            break;
        }
        if !progressed {
            return None;
        }
    }
    Some(order)
}

fn fire_inner(
    ctx: &FireCtx<'_>,
    depth: usize,
    binding: &mut Vec<Option<Value>>,
    out: &mut Vec<Tuple>,
) {
    if depth == ctx.order.len() {
        out.push(Tuple::new(ctx.rule.head_args.iter().map(|t| {
            match t {
                Term::Var(v) => binding[v.idx()]
                    .clone()
                    .unwrap_or_else(|| unreachable!("head vars are range-restricted")),
                Term::Const(c) => c.clone(),
            }
        })));
        return;
    }
    let pos = ctx.order[depth];
    match &ctx.rule.body[pos] {
        Literal::Eq(l, r) => {
            match (term_val(l, binding), term_val(r, binding)) {
                (Some(a), Some(b)) => {
                    if a == b {
                        fire_inner(ctx, depth + 1, binding, out);
                    }
                }
                (Some(a), None) => {
                    if let Term::Var(v) = r {
                        binding[v.idx()] = Some(a);
                        fire_inner(ctx, depth + 1, binding, out);
                        binding[v.idx()] = None;
                    }
                }
                (None, Some(b)) => {
                    if let Term::Var(v) = l {
                        binding[v.idx()] = Some(b);
                        fire_inner(ctx, depth + 1, binding, out);
                        binding[v.idx()] = None;
                    }
                }
                // The schedule guarantees one side is bound; an unscheduled
                // body never reaches here. Derive nothing rather than panic.
                (None, None) => {}
            }
        }
        Literal::Neq(l, r) => {
            // A half-bound `≠` is unreachable under a valid schedule; the
            // `is_some` guards derive nothing rather than panic.
            let (a, b) = (term_val(l, binding), term_val(r, binding));
            if a.is_some() && b.is_some() && a != b {
                fire_inner(ctx, depth + 1, binding, out);
            }
        }
        Literal::Edb(atom) => {
            join_literal(
                ctx,
                ctx.db.instance(atom.rel),
                &atom.args,
                depth,
                binding,
                out,
            );
        }
        Literal::Idb(p, args) => {
            // The delta position ranges over last round's new facts only.
            let inst = if ctx.delta_pos == Some(pos) {
                &ctx.delta[p.0]
            } else {
                &ctx.idb[p.0]
            };
            join_literal(ctx, inst, args, depth, binding, out);
        }
    }
}

/// Match a relational literal against an instance: probe the per-column
/// index when some argument is already bound, scan otherwise.
fn join_literal(
    ctx: &FireCtx<'_>,
    inst: &Instance,
    args: &[Term],
    depth: usize,
    binding: &mut Vec<Option<Value>>,
    out: &mut Vec<Tuple>,
) {
    let probe_key = args
        .iter()
        .enumerate()
        .find_map(|(col, t)| term_val(t, binding).map(|v| (col, v)));
    match probe_key {
        Some((col, v)) => {
            let idx = inst.index();
            for &id in idx.probe(col, &v) {
                try_match(ctx, args, idx.tuple(id), depth, binding, out);
            }
        }
        None => {
            for tuple in inst.iter() {
                try_match(ctx, args, tuple, depth, binding, out);
            }
        }
    }
}

fn try_match(
    ctx: &FireCtx<'_>,
    args: &[Term],
    tuple: &Tuple,
    depth: usize,
    binding: &mut Vec<Option<Value>>,
    out: &mut Vec<Tuple>,
) {
    if args.len() != tuple.arity() {
        return;
    }
    let mut newly: Vec<usize> = Vec::new();
    for (term, value) in args.iter().zip(tuple.iter()) {
        match term {
            Term::Const(c) => {
                if c != value {
                    for &i in &newly {
                        binding[i] = None;
                    }
                    return;
                }
            }
            Term::Var(v) => match &binding[v.idx()] {
                Some(b) => {
                    if b != value {
                        for &i in &newly {
                            binding[i] = None;
                        }
                        return;
                    }
                }
                None => {
                    binding[v.idx()] = Some(value.clone());
                    newly.push(v.idx());
                }
            },
        }
    }
    fire_inner(ctx, depth + 1, binding, out);
    for &i in &newly {
        binding[i] = None;
    }
}

fn term_val(t: &Term, binding: &[Option<Value>]) -> Option<Value> {
    match t {
        Term::Const(c) => Some(c.clone()),
        Term::Var(v) => binding[v.idx()].clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_data::{RelationSchema, Schema};

    fn setup() -> (Schema, Database) {
        let s = Schema::from_relations(vec![RelationSchema::infinite("E", &["a", "b"])]).unwrap();
        let e = s.rel_id("E").unwrap();
        let mut db = Database::empty(&s);
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db.insert(e, Tuple::new([Value::int(a), Value::int(b)]));
        }
        (s, db)
    }

    /// TC(x,y) ← E(x,y);  TC(x,y) ← E(x,z), TC(z,y).
    fn transitive_closure(s: &Schema) -> Program {
        let e = s.rel_id("E").unwrap();
        let tc = PredId(0);
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let base = Rule {
            head: tc,
            head_args: vec![Term::Var(x), Term::Var(y)],
            body: vec![Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)]))],
            n_vars: 2,
        };
        let step = Rule {
            head: tc,
            head_args: vec![Term::Var(x), Term::Var(y)],
            body: vec![
                Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(z)])),
                Literal::Idb(tc, vec![Term::Var(z), Term::Var(y)]),
            ],
            n_vars: 3,
        };
        Program {
            pred_names: vec!["TC".into()],
            arities: vec![2],
            rules: vec![base, step],
            output: tc,
        }
    }

    #[test]
    fn transitive_closure_of_a_path() {
        let (s, db) = setup();
        let p = transitive_closure(&s);
        p.validate().unwrap();
        let res = p.eval(&db);
        assert_eq!(res.len(), 6); // 1-2,1-3,1-4,2-3,2-4,3-4
        assert!(res.contains(&Tuple::new([Value::int(1), Value::int(4)])));
        assert!(!res.contains(&Tuple::new([Value::int(4), Value::int(1)])));
    }

    #[test]
    fn cycle_closes_fully() {
        let (s, mut db) = setup();
        let e = s.rel_id("E").unwrap();
        db.insert(e, Tuple::new([Value::int(4), Value::int(1)]));
        let p = transitive_closure(&s);
        assert_eq!(p.eval(&db).len(), 16);
    }

    #[test]
    fn neq_literal_filters() {
        let (s, mut db) = setup();
        let e = s.rel_id("E").unwrap();
        db.insert(e, Tuple::new([Value::int(5), Value::int(5)]));
        let out = PredId(0);
        let (x, y) = (Var(0), Var(1));
        let p = Program {
            pred_names: vec!["NoLoop".into()],
            arities: vec![2],
            rules: vec![Rule {
                head: out,
                head_args: vec![Term::Var(x), Term::Var(y)],
                body: vec![
                    Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)])),
                    Literal::Neq(Term::Var(x), Term::Var(y)),
                ],
                n_vars: 2,
            }],
            output: out,
        };
        p.validate().unwrap();
        assert_eq!(p.eval(&db).len(), 3);
    }

    #[test]
    fn validation_rejects_unrestricted_head() {
        let (s, _) = setup();
        let e = s.rel_id("E").unwrap();
        let out = PredId(0);
        let (x, y, w) = (Var(0), Var(1), Var(2));
        let p = Program {
            pred_names: vec!["Bad".into()],
            arities: vec![1],
            rules: vec![Rule {
                head: out,
                head_args: vec![Term::Var(w)],
                body: vec![Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)]))],
                n_vars: 3,
            }],
            output: out,
        };
        assert!(matches!(
            p.validate(),
            Err(ProgramError::NotRangeRestricted { .. })
        ));
    }

    #[test]
    fn validation_rejects_arity_mismatch() {
        let (s, _) = setup();
        let e = s.rel_id("E").unwrap();
        let out = PredId(0);
        let (x, y) = (Var(0), Var(1));
        let p = Program {
            pred_names: vec!["Bad".into()],
            arities: vec![1],
            rules: vec![Rule {
                head: out,
                head_args: vec![Term::Var(x), Term::Var(y)],
                body: vec![Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)]))],
                n_vars: 2,
            }],
            output: out,
        };
        assert!(matches!(
            p.validate(),
            Err(ProgramError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn comparison_before_binding_literal_is_reordered_not_panicked() {
        // `Q(X) :- X = Y, E(X, Y).` is range-restricted (equality
        // propagation) but lists the comparison first; the evaluator used to
        // panic here and now schedules E(X,Y) before the equality.
        let (s, mut db) = setup();
        let e = s.rel_id("E").unwrap();
        db.insert(e, Tuple::new([Value::int(7), Value::int(7)]));
        let out = PredId(0);
        let (x, y) = (Var(0), Var(1));
        let p = Program {
            pred_names: vec!["Loop".into()],
            arities: vec![1],
            rules: vec![Rule {
                head: out,
                head_args: vec![Term::Var(x)],
                body: vec![
                    Literal::Eq(Term::Var(x), Term::Var(y)),
                    Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)])),
                ],
                n_vars: 2,
            }],
            output: out,
        };
        p.validate().unwrap();
        let res = p.eval(&db);
        assert_eq!(res.len(), 1);
        assert!(res.contains(&Tuple::new([Value::int(7)])));
    }

    #[test]
    fn neq_before_binding_literal_is_reordered() {
        let (s, mut db) = setup();
        let e = s.rel_id("E").unwrap();
        db.insert(e, Tuple::new([Value::int(5), Value::int(5)]));
        let out = PredId(0);
        let (x, y) = (Var(0), Var(1));
        let p = Program {
            pred_names: vec!["NoLoop".into()],
            arities: vec![2],
            rules: vec![Rule {
                head: out,
                head_args: vec![Term::Var(x), Term::Var(y)],
                body: vec![
                    Literal::Neq(Term::Var(x), Term::Var(y)),
                    Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)])),
                ],
                n_vars: 2,
            }],
            output: out,
        };
        p.validate().unwrap();
        assert_eq!(p.eval(&db).len(), 3, "the 5-5 loop is filtered");
    }

    #[test]
    fn validation_rejects_oversized_body() {
        let (s, _) = setup();
        let e = s.rel_id("E").unwrap();
        let out = PredId(0);
        let (x, y) = (Var(0), Var(1));
        let lit = Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)]));
        let p = Program {
            pred_names: vec!["Big".into()],
            arities: vec![1],
            rules: vec![Rule {
                head: out,
                head_args: vec![Term::Var(x)],
                body: vec![lit; MAX_RULE_BODY + 1],
                n_vars: 2,
            }],
            output: out,
        };
        assert!(matches!(
            p.validate(),
            Err(ProgramError::BodyTooLong { rule: 0, .. })
        ));
    }

    #[test]
    fn mutual_recursion_two_predicates() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        // Even(x,y): path of even length; Odd(x,y): odd length.
        let even = PredId(0);
        let odd = PredId(1);
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let p = Program {
            pred_names: vec!["Even".into(), "Odd".into()],
            arities: vec![2, 2],
            rules: vec![
                Rule {
                    head: odd,
                    head_args: vec![Term::Var(x), Term::Var(y)],
                    body: vec![Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)]))],
                    n_vars: 2,
                },
                Rule {
                    head: even,
                    head_args: vec![Term::Var(x), Term::Var(y)],
                    body: vec![
                        Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(z)])),
                        Literal::Idb(odd, vec![Term::Var(z), Term::Var(y)]),
                    ],
                    n_vars: 3,
                },
                Rule {
                    head: odd,
                    head_args: vec![Term::Var(x), Term::Var(y)],
                    body: vec![
                        Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(z)])),
                        Literal::Idb(even, vec![Term::Var(z), Term::Var(y)]),
                    ],
                    n_vars: 3,
                },
            ],
            output: even,
        };
        p.validate().unwrap();
        let res = p.eval(&db); // path 1-2-3-4: even paths 1-3, 2-4
        assert_eq!(res.len(), 2);
        assert!(res.contains(&Tuple::new([Value::int(1), Value::int(3)])));
        assert!(res.contains(&Tuple::new([Value::int(2), Value::int(4)])));
    }
}
