//! Set-semantics evaluation of CQ and UCQ.
//!
//! Evaluation proceeds over the tableau: a backtracking join that binds the
//! canonical variables atom by atom, pruning with inequalities as soon as
//! both sides are bound. Results are ordered sets of output tuples, so
//! `Q(D) = Q(D′)` is a plain comparison — exactly the equality the
//! completeness definition (Section 2.1) is stated in.
//!
//! The join is generic over [`TupleStore`], so the same code evaluates
//! against a plain [`Database`] and against an [`Overlay`] (`D ∪ Δ` without
//! copying `D`). At each step it picks the *most-bound* remaining atom and,
//! when at least one of that atom's columns is already bound, fetches
//! candidate tuples through the store's per-column index instead of
//! scanning. [`eval_tableau_delta`] is the incremental variant: it returns
//! only the answers whose derivation uses at least one novel delta tuple.

use crate::cq::{Atom, Cq};
use crate::tableau::{Tableau, TableauError};
use crate::term::Term;
use crate::ucq::Ucq;
use ric_data::{Database, Overlay, Tuple, TupleStore, Value};
use std::collections::BTreeSet;

/// The query languages considered by the paper, used to label instances and
/// report which complexity cell of Tables I/II they exercise.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum QueryLanguage {
    /// Projection queries only (inclusion dependencies when used as `L_C`).
    Inds,
    /// Conjunctive queries.
    Cq,
    /// Unions of conjunctive queries.
    Ucq,
    /// Positive existential FO.
    EfoPlus,
    /// Full first-order logic.
    Fo,
    /// Datalog / inflationary fixpoint.
    Fp,
}

impl std::fmt::Display for QueryLanguage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            QueryLanguage::Inds => "INDs",
            QueryLanguage::Cq => "CQ",
            QueryLanguage::Ucq => "UCQ",
            QueryLanguage::EfoPlus => "∃FO+",
            QueryLanguage::Fo => "FO",
            QueryLanguage::Fp => "FP",
        };
        write!(f, "{s}")
    }
}

/// Hard cap on tableau atoms per query: the backtracking join recurses one
/// frame per atom, so an adversarially long body would otherwise overflow
/// the stack instead of failing cleanly.
pub const MAX_EVAL_ATOMS: usize = 10_000;

/// Evaluate a CQ on a store. Unsatisfiable queries return the empty set;
/// unsafe queries surface their error.
pub fn eval_cq<S: TupleStore>(cq: &Cq, db: &S) -> Result<BTreeSet<Tuple>, TableauError> {
    match Tableau::of(cq) {
        Ok(t) => {
            if t.atoms.len() > MAX_EVAL_ATOMS {
                return Err(TableauError::TooDeep {
                    limit: MAX_EVAL_ATOMS,
                });
            }
            Ok(eval_tableau(&t, db))
        }
        Err(TableauError::Unsatisfiable) => Ok(BTreeSet::new()),
        Err(e) => Err(e),
    }
}

/// Evaluate a UCQ: the union of its disjuncts' answers.
pub fn eval_ucq<S: TupleStore>(q: &Ucq, db: &S) -> Result<BTreeSet<Tuple>, TableauError> {
    let mut out = BTreeSet::new();
    for cq in &q.disjuncts {
        out.extend(eval_cq(cq, db)?);
    }
    Ok(out)
}

/// Evaluate a normalised tableau query on a store.
pub fn eval_tableau<S: TupleStore>(t: &Tableau, db: &S) -> BTreeSet<Tuple> {
    let mut out = BTreeSet::new();
    for_each_match(t, db, |binding| {
        out.insert(head_of(t, binding));
        true
    });
    out
}

/// Boolean convenience: is `Q(D)` nonempty? Stops at the first witness.
pub fn holds<S: TupleStore>(t: &Tableau, db: &S) -> bool {
    !for_each_match(t, db, |_| false)
}

/// Visit every match of `t` in `db` — a binding of every tableau variable
/// that maps each atom onto a stored tuple and satisfies the inequalities —
/// until `visit` returns `false`. Returns `false` iff `visit` stopped the
/// search. The homomorphism finder and every evaluator above share this one
/// join.
pub fn for_each_match<S: TupleStore>(
    t: &Tableau,
    db: &S,
    mut visit: impl FnMut(&[Option<Value>]) -> bool,
) -> bool {
    let join = Join { t, store: db };
    let mut used = vec![false; t.atoms.len()];
    let mut binding: Vec<Option<Value>> = vec![None; t.n_vars as usize];
    join.rec(&mut used, 0, &mut binding, &mut visit)
}

/// Is `answer ∈ t(db)`? The head is bound to `answer` before the join, so
/// the search walks only derivations of that one answer, probing through
/// the bound head columns, and stops at the first.
pub fn derives<S: TupleStore>(t: &Tableau, db: &S, answer: &Tuple) -> bool {
    if answer.arity() != t.head.len() {
        return false;
    }
    let mut binding: Vec<Option<Value>> = vec![None; t.n_vars as usize];
    for (term, value) in t.head.iter().zip(answer.iter()) {
        match term {
            Term::Const(c) if c != value => return false,
            Term::Const(_) => {}
            Term::Var(v) => match &binding[v.idx()] {
                Some(b) if b != value => return false,
                Some(_) => {}
                None => binding[v.idx()] = Some(value.clone()),
            },
        }
    }
    if !partial_neqs_hold(t, &binding) {
        return false;
    }
    let join = Join { t, store: db };
    let mut used = vec![false; t.atoms.len()];
    !join.rec(&mut used, 0, &mut binding, &mut |_| false)
}

/// The head tuple of a complete binding.
fn head_of(t: &Tableau, binding: &[Option<Value>]) -> Tuple {
    Tuple::new(t.head.iter().map(|term| {
        match term {
            Term::Var(v) => binding[v.idx()]
                .clone()
                .unwrap_or_else(|| unreachable!("head var bound")),
            Term::Const(c) => c.clone(),
        }
    }))
}

/// The incremental answers of `t` on `base ∪ delta`: exactly those whose
/// derivation uses at least one *novel* delta tuple (a tuple of `Δ` absent
/// from the base). When the base answers are already known, the full answer
/// set is their union with this one — the identity incremental constraint
/// checking rests on.
pub fn eval_tableau_delta(t: &Tableau, ov: &Overlay<'_>) -> BTreeSet<Tuple> {
    let mut out = BTreeSet::new();
    // A derivation of an atomless tableau uses no tuples at all, so nothing
    // about it is novel.
    if t.atoms.is_empty() {
        return out;
    }
    let join = Join { t, store: ov };
    let mut used = vec![false; t.atoms.len()];
    let mut binding: Vec<Option<Value>> = vec![None; t.n_vars as usize];
    let mut collect = |binding: &[Option<Value>]| {
        out.insert(head_of(t, binding));
        true
    };
    for pin in 0..t.atoms.len() {
        // Pin atom `pin` to a novel tuple; the remaining atoms join over the
        // whole overlay. The union over pins covers every derivation with a
        // novel tuple somewhere (duplicates collapse in the output set).
        let atom = &t.atoms[pin];
        used[pin] = true;
        ov.for_each_novel(atom.rel, &mut |tuple| {
            if let Some(newly) = match_atom(atom, tuple, &mut binding) {
                if partial_neqs_hold(t, &binding) {
                    join.rec(&mut used, 1, &mut binding, &mut collect);
                }
                undo(&mut binding, &newly);
            }
            true
        });
        used[pin] = false;
    }
    out
}

/// Backtracking join state: at each step the most-bound remaining atom is
/// matched next, through an index probe when any of its columns is bound.
struct Join<'a, S: TupleStore> {
    t: &'a Tableau,
    store: &'a S,
}

impl<S: TupleStore> Join<'_, S> {
    /// Recurse over the unmatched atoms, handing every complete match to
    /// `visit`. Returns `false` iff `visit` stopped the search.
    fn rec<F: FnMut(&[Option<Value>]) -> bool>(
        &self,
        used: &mut [bool],
        n_used: usize,
        binding: &mut Vec<Option<Value>>,
        visit: &mut F,
    ) -> bool {
        if n_used == self.t.atoms.len() {
            // All atoms matched; all variables are bound (tableau invariant).
            return !neqs_hold(self.t, binding) || visit(binding);
        }
        let i = self.pick(used, binding);
        let atom = &self.t.atoms[i];
        // Probe on the first bound column, if any; clone the key out of the
        // binding before the visitor borrows it mutably.
        let probe_key: Option<(usize, Value)> = atom
            .args
            .iter()
            .enumerate()
            .find_map(|(col, term)| term_value(term, binding).map(|v| (col, v.clone())));
        used[i] = true;
        let t = self.t;
        let mut step = |tuple: &Tuple| -> bool {
            let Some(newly) = match_atom(atom, tuple, binding) else {
                return true;
            };
            // Eagerly prune with inequalities whose sides are both bound.
            let keep_going = if partial_neqs_hold(t, binding) {
                self.rec(used, n_used + 1, binding, visit)
            } else {
                true
            };
            undo(binding, &newly);
            keep_going
        };
        let completed = match &probe_key {
            Some((col, v)) => self.store.probe(atom.rel, *col, v, &mut step),
            None => self.store.scan(atom.rel, &mut step),
        };
        used[i] = false;
        completed
    }

    /// The unmatched atom with the most bound terms (constants count), ties
    /// broken by position for determinism.
    fn pick(&self, used: &[bool], binding: &[Option<Value>]) -> usize {
        let mut best: Option<(usize, usize)> = None; // (score, index)
        for (i, a) in self.t.atoms.iter().enumerate() {
            if used[i] {
                continue;
            }
            let score = a
                .args
                .iter()
                .filter(|term| term_value(term, binding).is_some())
                .count();
            if best.map(|(s, _)| score > s).unwrap_or(true) {
                best = Some((score, i));
            }
        }
        best.unwrap_or_else(|| unreachable!("rec only recurses while atoms remain unmatched"))
            .1
    }
}

/// Try to match `tuple` against `atom` under the current binding, extending
/// it. Returns the newly bound variable slots on success (the caller undoes
/// them after recursing), `None` on mismatch (already undone).
fn match_atom(atom: &Atom, tuple: &Tuple, binding: &mut [Option<Value>]) -> Option<Vec<usize>> {
    if tuple.arity() != atom.args.len() {
        return None;
    }
    let mut newly: Vec<usize> = Vec::new();
    for (term, value) in atom.args.iter().zip(tuple.iter()) {
        let ok = match term {
            Term::Const(c) => c == value,
            Term::Var(v) => match &binding[v.idx()] {
                Some(b) => b == value,
                None => {
                    binding[v.idx()] = Some(value.clone());
                    newly.push(v.idx());
                    true
                }
            },
        };
        if !ok {
            undo(binding, &newly);
            return None;
        }
    }
    Some(newly)
}

fn undo(binding: &mut [Option<Value>], newly: &[usize]) {
    for &i in newly {
        binding[i] = None;
    }
}

fn term_value<'a>(t: &'a Term, binding: &'a [Option<Value>]) -> Option<&'a Value> {
    match t {
        Term::Const(c) => Some(c),
        Term::Var(v) => binding[v.idx()].as_ref(),
    }
}

fn partial_neqs_hold(t: &Tableau, binding: &[Option<Value>]) -> bool {
    t.neqs.iter().all(|(l, r)| {
        match (term_value(l, binding), term_value(r, binding)) {
            (Some(a), Some(b)) => a != b,
            _ => true, // not yet decidable
        }
    })
}

fn neqs_hold(t: &Tableau, binding: &[Option<Value>]) -> bool {
    t.neqs.iter().all(
        |(l, r)| match (term_value(l, binding), term_value(r, binding)) {
            (Some(a), Some(b)) => a != b,
            _ => unreachable!("all vars bound when neqs_hold runs"),
        },
    )
}

/// Reference evaluator used by property tests: enumerate *every* assignment
/// of atoms to tuples (no pruning). Exponential; only for cross-checking.
pub fn eval_tableau_naive(t: &Tableau, db: &Database) -> BTreeSet<Tuple> {
    let mut out = BTreeSet::new();
    let mut binding: Vec<Option<Value>> = vec![None; t.n_vars as usize];
    naive(t, db, 0, &mut binding, &mut out);
    out
}

fn naive(
    t: &Tableau,
    db: &Database,
    depth: usize,
    binding: &mut Vec<Option<Value>>,
    out: &mut BTreeSet<Tuple>,
) {
    if depth == t.atoms.len() {
        if neqs_hold(t, binding) {
            let head = Tuple::new(t.head.iter().map(|term| {
                match term {
                    Term::Var(v) => binding[v.idx()]
                        .clone()
                        .unwrap_or_else(|| unreachable!("all vars bound at full depth")),
                    Term::Const(c) => c.clone(),
                }
            }));
            out.insert(head);
        }
        return;
    }
    let atom: &Atom = &t.atoms[depth];
    let tuples: Vec<Tuple> = db.instance(atom.rel).iter().cloned().collect();
    for tuple in tuples {
        if tuple.arity() != atom.args.len() {
            continue;
        }
        let saved = binding.clone();
        let mut ok = true;
        for (term, value) in atom.args.iter().zip(tuple.iter()) {
            match term {
                Term::Const(c) => {
                    if c != value {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => match &binding[v.idx()] {
                    Some(b) if b != value => {
                        ok = false;
                        break;
                    }
                    Some(_) => {}
                    None => binding[v.idx()] = Some(value.clone()),
                },
            }
        }
        if ok {
            naive(t, db, depth + 1, binding, out);
        }
        *binding = saved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;
    use ric_data::{RelationSchema, Schema};

    fn setup() -> (Schema, Database) {
        let s =
            Schema::from_relations(vec![RelationSchema::infinite("E", &["src", "dst"])]).unwrap();
        let e = s.rel_id("E").unwrap();
        let mut db = Database::empty(&s);
        for (a, b) in [(1, 2), (2, 3), (3, 1), (1, 1)] {
            db.insert(e, Tuple::new([Value::int(a), Value::int(b)]));
        }
        (s, db)
    }

    #[test]
    fn join_two_hops() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let mut b = Cq::builder();
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        let q = b
            .atom(e, vec![Term::Var(x), Term::Var(y)])
            .atom(e, vec![Term::Var(y), Term::Var(z)])
            .head_vars(vec![x, z])
            .build();
        let res = eval_cq(&q, &db).unwrap();
        // 1->2->3, 2->3->1, 3->1->2, 3->1->1, 1->1->2, 1->1->1, 1->2? (2,3)...
        assert!(res.contains(&Tuple::new([Value::int(1), Value::int(3)])));
        assert!(res.contains(&Tuple::new([Value::int(3), Value::int(2)])));
        assert!(!res.contains(&Tuple::new([Value::int(2), Value::int(2)])));
    }

    #[test]
    fn inequality_filters() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let mut b = Cq::builder();
        let (x, y) = (b.var("x"), b.var("y"));
        let q = b
            .atom(e, vec![Term::Var(x), Term::Var(y)])
            .neq(Term::Var(x), Term::Var(y))
            .head_vars(vec![x, y])
            .build();
        let res = eval_cq(&q, &db).unwrap();
        assert_eq!(res.len(), 3); // (1,1) filtered out
    }

    #[test]
    fn constants_select() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let mut b = Cq::builder();
        let y = b.var("y");
        let q = b
            .atom(e, vec![Term::from(1), Term::Var(y)])
            .head_vars(vec![y])
            .build();
        let res = eval_cq(&q, &db).unwrap();
        assert_eq!(res.len(), 2); // 1->2, 1->1
    }

    #[test]
    fn empty_conjunction_is_true() {
        let (_, db) = setup();
        let q = Cq::builder().head(vec![]).build();
        let res = eval_cq(&q, &db).unwrap();
        assert_eq!(res.len(), 1);
        assert!(res.contains(&Tuple::unit()));
    }

    #[test]
    fn unsatisfiable_query_evaluates_empty() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let mut b = Cq::builder();
        let x = b.var("x");
        let q = b
            .atom(e, vec![Term::Var(x), Term::Var(x)])
            .neq(Term::Var(x), Term::Var(x))
            .head_vars(vec![x])
            .build();
        assert!(eval_cq(&q, &db).unwrap().is_empty());
    }

    #[test]
    fn optimized_matches_naive() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let mut b = Cq::builder();
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        let q = b
            .atom(e, vec![Term::Var(x), Term::Var(y)])
            .atom(e, vec![Term::Var(y), Term::Var(z)])
            .neq(Term::Var(x), Term::Var(z))
            .head_vars(vec![x, y, z])
            .build();
        let t = Tableau::of(&q).unwrap();
        assert_eq!(eval_tableau(&t, &db), eval_tableau_naive(&t, &db));
    }

    #[test]
    fn overlay_eval_matches_materialized_union() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let mut delta = Database::empty(&s);
        delta.insert(e, Tuple::new([Value::int(3), Value::int(4)]));
        delta.insert(e, Tuple::new([Value::int(1), Value::int(2)])); // not novel
        let ov = Overlay::new(&db, &delta).unwrap();
        let mut b = Cq::builder();
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        let q = b
            .atom(e, vec![Term::Var(x), Term::Var(y)])
            .atom(e, vec![Term::Var(y), Term::Var(z)])
            .head_vars(vec![x, z])
            .build();
        let t = Tableau::of(&q).unwrap();
        let on_union = eval_tableau(&t, &ov.materialize());
        assert_eq!(eval_tableau(&t, &ov), on_union);
        // Delta answers ∪ base answers = union answers.
        let mut combined = eval_tableau(&t, &db);
        combined.extend(eval_tableau_delta(&t, &ov));
        assert_eq!(combined, on_union);
        // And the delta answers genuinely need the novel tuple.
        assert!(eval_tableau_delta(&t, &ov).contains(&Tuple::new([Value::int(2), Value::int(4)])));
    }

    #[test]
    fn delta_eval_of_atomless_tableau_is_empty() {
        let (s, db) = setup();
        let mut delta = Database::empty(&s);
        delta.insert(
            s.rel_id("E").unwrap(),
            Tuple::new([Value::int(8), Value::int(9)]),
        );
        let ov = Overlay::new(&db, &delta).unwrap();
        let q = Cq::builder().head(vec![]).build();
        let t = Tableau::of(&q).unwrap();
        assert!(eval_tableau_delta(&t, &ov).is_empty());
    }

    #[test]
    fn holds_stops_at_first_witness() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let mut b = Cq::builder();
        let (x, y) = (b.var("x"), b.var("y"));
        let q = b
            .atom(e, vec![Term::Var(x), Term::Var(y)])
            .head_vars(vec![x])
            .build();
        let t = Tableau::of(&q).unwrap();
        assert!(holds(&t, &db));
        let empty = Database::empty(&s);
        assert!(!holds(&t, &empty));
    }

    /// A head-pinned join agrees with membership in the full answer set,
    /// including repeated head variables, head constants, inequalities, and
    /// answers of the wrong arity.
    #[test]
    fn derives_matches_answer_membership() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let mut b = Cq::builder();
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        let two_hops = b
            .atom(e, vec![Term::Var(x), Term::Var(y)])
            .atom(e, vec![Term::Var(y), Term::Var(z)])
            .neq(Term::Var(x), Term::Var(z))
            .head(vec![
                Term::Var(x),
                Term::Var(z),
                Term::Var(x),
                Term::from(7),
            ])
            .build();
        let t = Tableau::of(&two_hops).unwrap();
        let answers = eval_tableau(&t, &db);
        assert!(!answers.is_empty());
        for a in 0..5 {
            for c in 0..5 {
                for (again, k) in [(a, 7), (a, 8), ((a + 1) % 5, 7)] {
                    let answer = Tuple::new([a, c, again, k].map(Value::int));
                    assert_eq!(derives(&t, &db, &answer), answers.contains(&answer));
                }
            }
        }
        assert!(!derives(&t, &db, &Tuple::new([Value::int(1)])));
    }

    #[test]
    fn ucq_unions_disjuncts() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        let mut b1 = Cq::builder();
        let y1 = b1.var("y");
        let q1 = b1
            .atom(e, vec![Term::from(1), Term::Var(y1)])
            .head_vars(vec![y1])
            .build();
        let mut b2 = Cq::builder();
        let y2 = b2.var("y");
        let q2 = b2
            .atom(e, vec![Term::from(2), Term::Var(y2)])
            .head_vars(vec![y2])
            .build();
        let u = Ucq::new(vec![q1, q2]);
        let res = eval_ucq(&u, &db).unwrap();
        assert_eq!(res.len(), 3); // {1,2} from 1->*, {3} from 2->3
    }
}
