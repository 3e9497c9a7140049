//! The `L_Q` parameter: a query in any of the paper's five languages.

use ric_data::{Database, Tuple, TupleStore, Value};
use ric_query::tableau::{Tableau, TableauError};
use ric_query::{Cq, EfoQuery, FoQuery, Program, QueryLanguage, Ucq};
use std::collections::BTreeSet;

/// A query in one of the languages of Section 2.1.
#[derive(Clone, PartialEq, Debug, Hash)]
pub enum Query {
    /// Conjunctive query.
    Cq(Cq),
    /// Union of conjunctive queries.
    Ucq(Ucq),
    /// Positive existential FO.
    Efo(EfoQuery),
    /// First-order.
    Fo(FoQuery),
    /// Datalog (FP).
    Fp(Program),
}

impl Query {
    /// The language of the query.
    pub fn language(&self) -> QueryLanguage {
        match self {
            Query::Cq(_) => QueryLanguage::Cq,
            Query::Ucq(_) => QueryLanguage::Ucq,
            Query::Efo(_) => QueryLanguage::EfoPlus,
            Query::Fo(_) => QueryLanguage::Fo,
            Query::Fp(_) => QueryLanguage::Fp,
        }
    }

    /// Evaluate on a database.
    pub fn eval(&self, db: &Database) -> Result<BTreeSet<Tuple>, TableauError> {
        match self {
            Query::Cq(q) => ric_query::eval::eval_cq(q, db),
            Query::Ucq(q) => ric_query::eval::eval_ucq(q, db),
            Query::Efo(q) => q.eval(db),
            Query::Fo(q) => q.try_eval(db),
            Query::Fp(p) => Ok(p.eval(db)),
        }
    }

    /// All constants appearing in the query (for `Adom`).
    pub fn constants(&self) -> BTreeSet<Value> {
        match self {
            Query::Cq(q) => q.constants(),
            Query::Ucq(q) => q.constants(),
            Query::Efo(q) => q.constants(),
            Query::Fo(q) => {
                let mut out = BTreeSet::new();
                q.body.constants(&mut out);
                out
            }
            Query::Fp(p) => {
                let mut out = BTreeSet::new();
                for rule in &p.rules {
                    let mut push = |t: &ric_query::Term| {
                        if let ric_query::Term::Const(c) = t {
                            out.insert(c.clone());
                        }
                    };
                    for t in &rule.head_args {
                        push(t);
                    }
                    for lit in &rule.body {
                        match lit {
                            ric_query::Literal::Edb(a) => a.args.iter().for_each(&mut push),
                            ric_query::Literal::Idb(_, args) => args.iter().for_each(&mut push),
                            ric_query::Literal::Eq(l, r) | ric_query::Literal::Neq(l, r) => {
                                push(l);
                                push(r);
                            }
                        }
                    }
                }
                out
            }
        }
    }

    /// The database relations this query reads, when that set is
    /// syntactically meaningful: the atom relations for CQ/UCQ/∃FO⁺.
    ///
    /// `None` for FO/FP: under active-domain semantics an FO query's answer
    /// can change when *any* relation changes (quantifiers range over the
    /// whole database's constants), and a datalog program's fixpoint can
    /// feed any EDB into any IDB — so their footprint is the entire schema.
    /// Streaming invalidation (`ric-monitor`) treats `None` as "touches
    /// everything".
    pub fn rels(&self) -> Option<std::collections::BTreeSet<ric_data::RelId>> {
        self.as_ucq().map(|u| {
            u.disjuncts
                .iter()
                .flat_map(|d| d.atoms.iter())
                .map(|a| a.rel)
                .collect()
        })
    }

    /// The query compiled for head-pinned membership tests
    /// ([`PinnedQuery::derives`]); `None` for FO/FP.
    pub fn pinned(&self) -> Result<Option<PinnedQuery>, TableauError> {
        self.as_ucq()
            .map(|u| Ok(PinnedQuery(u.tableaux()?)))
            .transpose()
    }

    /// The UCQ view of the query, when it is in a UCQ-expressible language
    /// (CQ, UCQ, ∃FO⁺). `None` for FO/FP.
    pub fn as_ucq(&self) -> Option<Ucq> {
        match self {
            Query::Cq(q) => Some(Ucq::single(q.clone())),
            Query::Ucq(q) => Some(q.clone()),
            Query::Efo(q) => Some(q.to_ucq()),
            Query::Fo(_) | Query::Fp(_) => None,
        }
    }
}

/// A CQ/UCQ/∃FO⁺ query's disjunct tableaux, compiled once ([`Query::pinned`])
/// for repeated membership tests of single answers.
pub struct PinnedQuery(Vec<Tableau>);

impl PinnedQuery {
    /// Is `answer ∈ Q(store)`? Each disjunct's head is bound to `answer`
    /// before its join, so only derivations of that one answer are walked.
    pub fn derives<S: TupleStore>(&self, store: &S, answer: &Tuple) -> bool {
        self.0
            .iter()
            .any(|t| ric_query::eval::derives(t, store, answer))
    }
}

impl From<Cq> for Query {
    fn from(q: Cq) -> Self {
        Query::Cq(q)
    }
}

impl From<Ucq> for Query {
    fn from(q: Ucq) -> Self {
        Query::Ucq(q)
    }
}

impl From<EfoQuery> for Query {
    fn from(q: EfoQuery) -> Self {
        Query::Efo(q)
    }
}

impl From<FoQuery> for Query {
    fn from(q: FoQuery) -> Self {
        Query::Fo(q)
    }
}

impl From<Program> for Query {
    fn from(p: Program) -> Self {
        Query::Fp(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_data::{RelationSchema, Schema};
    use ric_query::parse_cq;

    #[test]
    fn language_dispatch() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a"])]).unwrap();
        let cq = parse_cq(&s, "Q(X) :- R(X).").unwrap();
        let q: Query = cq.clone().into();
        assert_eq!(q.language(), QueryLanguage::Cq);
        assert!(q.as_ucq().is_some());
        let u: Query = Ucq::new(vec![cq]).into();
        assert_eq!(u.language(), QueryLanguage::Ucq);
    }

    #[test]
    fn constants_come_from_the_body() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let q: Query = parse_cq(&s, "Q(X) :- R(X, 7), X != 'c'.").unwrap().into();
        let cs = q.constants();
        assert!(cs.contains(&Value::int(7)));
        assert!(cs.contains(&Value::str("c")));
    }
}
