//! Conjunctive queries with equality and inequality.
//!
//! A CQ is built from relation atoms over the database schema `R`, equality
//! `=` and inequality `≠`, closed under `∧` and `∃` (Section 2.1(a)). We keep
//! the query in "rule body" form — a list of atoms plus explicit `=`/`≠`
//! side conditions — and normalise to the tableau representation
//! ([`crate::tableau::Tableau`]) on demand.

use crate::term::{Term, Var};
use ric_data::{RelId, Schema, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A relation atom `R_i(t_1, …, t_k)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Atom {
    /// The relation.
    pub rel: RelId,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Build an atom.
    pub fn new(rel: RelId, args: Vec<Term>) -> Self {
        Atom { rel, args }
    }

    /// Variables occurring in the atom, in order of appearance.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.args.iter().filter_map(Term::as_var)
    }
}

/// A conjunctive query `Q(u) :- A_1, …, A_m, eqs, neqs`.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct Cq {
    /// Number of variables; variables are `Var(0) .. Var(n_vars-1)`.
    pub n_vars: u32,
    /// The output summary `u_Q` (terms, usually variables).
    pub head: Vec<Term>,
    /// Relation atoms.
    pub atoms: Vec<Atom>,
    /// Equality side conditions `t = t′`.
    pub eqs: Vec<(Term, Term)>,
    /// Inequality side conditions `t ≠ t′`.
    pub neqs: Vec<(Term, Term)>,
    /// Optional display names, indexed by variable; may be shorter than
    /// `n_vars` (missing entries display as `x<i>`).
    pub var_names: Vec<String>,
}

impl Cq {
    /// Start building a CQ.
    pub fn builder() -> CqBuilder {
        CqBuilder::default()
    }

    /// The set of variables appearing anywhere in the query.
    pub fn all_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        for t in &self.head {
            if let Some(v) = t.as_var() {
                out.insert(v);
            }
        }
        for a in &self.atoms {
            out.extend(a.vars());
        }
        for (l, r) in self.eqs.iter().chain(self.neqs.iter()) {
            if let Some(v) = l.as_var() {
                out.insert(v);
            }
            if let Some(v) = r.as_var() {
                out.insert(v);
            }
        }
        out
    }

    /// All constants appearing in the query (head, atoms, `=`/`≠`).
    pub fn constants(&self) -> BTreeSet<Value> {
        let mut out = BTreeSet::new();
        let mut push = |t: &Term| {
            if let Term::Const(c) = t {
                out.insert(c.clone());
            }
        };
        for t in &self.head {
            push(t);
        }
        for a in &self.atoms {
            for t in &a.args {
                push(t);
            }
        }
        for (l, r) in self.eqs.iter().chain(self.neqs.iter()) {
            push(l);
            push(r);
        }
        out
    }

    /// Output arity.
    pub fn head_arity(&self) -> usize {
        self.head.len()
    }

    /// Is this a Boolean (nullary-head) query?
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// Human-readable variable name.
    pub fn var_name(&self, v: Var) -> String {
        self.var_names
            .get(v.idx())
            .cloned()
            .unwrap_or_else(|| format!("x{}", v.0))
    }

    /// Render against a schema (resolves relation names).
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        CqDisplay { cq: self, schema }
    }
}

struct CqDisplay<'a> {
    cq: &'a Cq,
    schema: &'a Schema,
}

impl fmt::Display for CqDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let term = |t: &Term| match t {
            Term::Var(v) => self.cq.var_name(*v),
            Term::Const(Value::Int(i)) => i.to_string(),
            Term::Const(Value::Str(s)) => format!("'{s}'"),
        };
        write!(f, "Q(")?;
        for (i, t) in self.cq.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", term(t))?;
        }
        write!(f, ") :- ")?;
        let mut first = true;
        for a in &self.cq.atoms {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            let name = self
                .schema
                .relation(a.rel)
                .map(|r| r.name.clone())
                .unwrap_or_else(|_| a.rel.to_string());
            write!(f, "{name}(")?;
            for (i, t) in a.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", term(t))?;
            }
            write!(f, ")")?;
        }
        for (l, r) in &self.cq.eqs {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{} = {}", term(l), term(r))?;
        }
        for (l, r) in &self.cq.neqs {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{} != {}", term(l), term(r))?;
        }
        Ok(())
    }
}

/// Incremental CQ construction with named variables.
#[derive(Default, Debug)]
pub struct CqBuilder {
    names: Vec<String>,
    head: Vec<Term>,
    atoms: Vec<Atom>,
    eqs: Vec<(Term, Term)>,
    neqs: Vec<(Term, Term)>,
}

impl CqBuilder {
    /// Get (or create) the variable with the given display name.
    pub fn var(&mut self, name: &str) -> Var {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return Var(i as u32);
        }
        self.names.push(name.to_string());
        Var((self.names.len() - 1) as u32)
    }

    /// Set the output summary.
    pub fn head(mut self, terms: Vec<Term>) -> Self {
        self.head = terms;
        self
    }

    /// Set the output summary from variables.
    pub fn head_vars(mut self, vars: Vec<Var>) -> Self {
        self.head = vars.into_iter().map(Term::Var).collect();
        self
    }

    /// Add a relation atom.
    pub fn atom(mut self, rel: RelId, args: Vec<Term>) -> Self {
        self.atoms.push(Atom::new(rel, args));
        self
    }

    /// Add an equality `l = r`.
    pub fn eq(mut self, l: impl Into<Term>, r: impl Into<Term>) -> Self {
        self.eqs.push((l.into(), r.into()));
        self
    }

    /// Add an inequality `l ≠ r`.
    pub fn neq(mut self, l: impl Into<Term>, r: impl Into<Term>) -> Self {
        self.neqs.push((l.into(), r.into()));
        self
    }

    /// Finish, producing the CQ.
    pub fn build(self) -> Cq {
        let mut max = self.names.len() as u32;
        let bump = |t: &Term, max: &mut u32| {
            if let Term::Var(v) = t {
                if v.0 + 1 > *max {
                    *max = v.0 + 1;
                }
            }
        };
        for t in &self.head {
            bump(t, &mut max);
        }
        for a in &self.atoms {
            for t in &a.args {
                bump(t, &mut max);
            }
        }
        for (l, r) in self.eqs.iter().chain(self.neqs.iter()) {
            bump(l, &mut max);
            bump(r, &mut max);
        }
        Cq {
            n_vars: max,
            head: self.head,
            atoms: self.atoms,
            eqs: self.eqs,
            neqs: self.neqs,
            var_names: self.names,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_data::RelationSchema;

    fn schema() -> Schema {
        Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap()
    }

    #[test]
    fn builder_assigns_dense_vars() {
        let mut b = Cq::builder();
        let x = b.var("x");
        let y = b.var("y");
        let x2 = b.var("x");
        assert_eq!(x, x2);
        assert_ne!(x, y);
        let s = schema();
        let r = s.rel_id("R").unwrap();
        let q = b
            .atom(r, vec![Term::Var(x), Term::Var(y)])
            .neq(Term::Var(x), Term::Var(y))
            .head_vars(vec![x])
            .build();
        assert_eq!(q.n_vars, 2);
        assert_eq!(q.all_vars().len(), 2);
        assert_eq!(q.head_arity(), 1);
        assert!(!q.is_boolean());
    }

    #[test]
    fn constants_collected_from_everywhere() {
        let s = schema();
        let r = s.rel_id("R").unwrap();
        let mut b = Cq::builder();
        let x = b.var("x");
        let q = b
            .atom(r, vec![Term::Var(x), Term::from("c")])
            .eq(Term::Var(x), Term::from(1))
            .neq(Term::Var(x), Term::from(2))
            .head(vec![Term::from(3)])
            .build();
        let cs = q.constants();
        assert_eq!(cs.len(), 4);
        assert!(cs.contains(&Value::str("c")));
    }

    #[test]
    fn display_renders_rule_syntax() {
        let s = schema();
        let r = s.rel_id("R").unwrap();
        let mut b = Cq::builder();
        let x = b.var("x");
        let y = b.var("y");
        let q = b
            .atom(r, vec![Term::Var(x), Term::Var(y)])
            .neq(Term::Var(y), Term::from("c"))
            .head_vars(vec![x])
            .build();
        assert_eq!(q.display(&s).to_string(), "Q(x) :- R(x, y), y != 'c'");
    }
}
