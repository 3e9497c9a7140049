//! The one candidate check every decider runs: is `(D ∪ Δ, D_m) |= V` for a
//! candidate extension `Δ` of a partially closed `D`? It is the gate of
//! C1/C2, its `Δ`-only form C3 for INDs, and the inner test of E2. A
//! [`crate::Request`] resolves one [`UpperCheck`] per decision, and every
//! search, nested decision, and E2 check below it shares that check.
//!
//! Only upper bounds are checked: lower bounds hold on the partially closed
//! base and monotone bodies keep them under extension (the bounded FO/FP
//! search re-checks the others itself).
//!
//! The exact RCDP search and RCQP's blockedness test run the same check on
//! dense ids ([`IdCheck`]): a candidate's bound atoms are written as id rows
//! into one reused arena ([`IdDelta`]), and the `IndOnly` and `Delta` arms
//! answer from id tables built once per decision — base rows with
//! per-column postings indexed directly by id, sorted base rows for
//! novelty, right-hand sides as sorted id rows, plan constants as ids — by
//! running the compiled [`DeltaPlans`] through the same executor the
//! `Value` path uses. The `Union` arm (the naive engine) decodes the arena
//! and stays on `Value`, so it remains an independent oracle.

use crate::adom::Adom;
use crate::budget::Engine;
use crate::setting::Setting;
use crate::verdict::RcError;
use ric_constraints::{
    CcBody, CcRhs, DeltaCheck, DeltaPlans, DeltaRows, PlanScratch, PreparedUpper, Rows,
    StatsProvider,
};
use ric_data::{Database, Overlay, RelId, Tuple, Value};
use ric_query::tableau::TableauError;
use std::cell::Cell;
use std::cmp::Ordering;
use std::sync::Arc;

/// How a decision checks `(D ∪ Δ, D_m) |= V` per candidate `Δ`.
pub(crate) enum UpperCheck {
    /// IND constraint sets: projections distribute over unions and `D` is
    /// partially closed, so checking `Δ` alone is equivalent (C3).
    IndOnly,
    /// Materialize `D ∪ Δ` and re-check every upper bound (naive engine).
    Union,
    /// Overlay `D ∪ Δ` and re-check only what the novel tuples can break,
    /// through plans compiled once. Shared (`Arc`) so a
    /// [`crate::PreparedSetting`] compiles once for every decision.
    Delta(Arc<PreparedUpper>),
}

impl UpperCheck {
    /// The check `engine` runs for `setting`; the planned engine costs its
    /// join orders from `stats`. This is the one place a decision chooses on
    /// [`Engine`].
    pub(crate) fn new(
        setting: &Setting,
        engine: Engine,
        stats: &dyn StatsProvider,
    ) -> Result<Self, RcError> {
        if setting.v.is_ind_set() {
            return Ok(UpperCheck::IndOnly);
        }
        Ok(match engine {
            Engine::Naive => UpperCheck::Union,
            Engine::Planned => UpperCheck::Delta(Arc::new(PreparedUpper::new(
                &setting.v,
                &setting.schema,
                &setting.dm,
                stats,
            )?)),
        })
    }

    /// The compiled preparation backing the delta check, if any.
    pub(crate) fn prepared(&self) -> Option<&Arc<PreparedUpper>> {
        match self {
            UpperCheck::Delta(prep) => Some(prep),
            _ => None,
        }
    }

    /// The index of the first upper bound `base ∪ delta` violates (`None` =
    /// satisfied), for a partially closed `base`. Every arm checks in set
    /// order and stops at the first violation, so the `prune.cc.NN`
    /// attribution is engine-independent. The delta arm counts the
    /// constraints it skipped into `cc_skipped`.
    pub(crate) fn first_violation(
        &self,
        setting: &Setting,
        base: &Database,
        delta: &Database,
        cc_skipped: &Cell<u64>,
    ) -> Option<usize> {
        match self {
            UpperCheck::IndOnly => setting
                .v
                .first_violated_upper(delta, &setting.dm)
                .unwrap_or_else(malformed),
            UpperCheck::Union => {
                let extended = base
                    .union(delta)
                    .unwrap_or_else(|e| unreachable!("delta shares the setting schema: {e:?}"));
                setting
                    .v
                    .first_violated_upper(&extended, &setting.dm)
                    .unwrap_or_else(malformed)
            }
            UpperCheck::Delta(prepared) => {
                let ov = Overlay::new(base, delta)
                    .unwrap_or_else(|e| unreachable!("delta shares the setting schema: {e:?}"));
                let res = prepared
                    .satisfied_delta(&setting.v, &ov)
                    .unwrap_or_else(malformed);
                cc_skipped.set(cc_skipped.get() + res.skipped as u64);
                res.violated
            }
        }
    }
}

/// A list of id rows stored flat: row `i` is `ids[ends[i-1]..ends[i]]`.
#[derive(Default, Debug)]
pub(crate) struct IdRows {
    ids: Vec<u32>,
    ends: Vec<u32>,
}

impl IdRows {
    /// Encode `tuples` through `adom`, keeping their order. Ids compare as
    /// their values do, so tuples in set order encode sorted, ready for
    /// [`Self::contains`].
    pub(crate) fn encode<'t>(
        adom: &Adom,
        tuples: impl IntoIterator<Item = &'t Tuple>,
    ) -> Result<Self, RcError> {
        let mut rows = IdRows::default();
        for t in tuples {
            for v in t.iter() {
                rows.ids.push(adom.id(v).ok_or_else(|| missing(v))?);
            }
            rows.ends.push(id_len(rows.ids.len())?);
        }
        Ok(rows)
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    pub(crate) fn row(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.ids[start..self.ends[i] as usize]
    }

    /// Membership of `row`, for rows encoded in set order.
    pub(crate) fn contains(&self, row: &[u32]) -> bool {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.row(mid).cmp(row) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return true,
            }
        }
        false
    }
}

/// The rows of `rel` holding id `v` at one column, in base order: position
/// `v` of `starts` opens the run of `v`'s row indexes in `rows`.
#[derive(Debug)]
struct Postings {
    starts: Vec<u32>,
    rows: Vec<u32>,
}

/// One base relation in ids.
#[derive(Debug)]
struct IdRelation {
    /// The rows, in the instance's iteration order — sorted, so they also
    /// answer novelty tests.
    rows: IdRows,
    /// Per column, indexed directly by id.
    postings: Vec<Postings>,
}

impl IdRelation {
    fn build(adom: &Adom, tuples: &ric_data::Instance) -> Result<Self, RcError> {
        let rows = IdRows::encode(adom, tuples.iter())?;
        // Row indexes are stored as `u32`, so every count below fits.
        id_len(rows.len())?;
        let n_ids = adom.n_ids();
        let width = (0..rows.len())
            .map(|i| rows.row(i).len())
            .max()
            .unwrap_or(0);
        let postings = (0..width)
            .map(|col| {
                let mut starts = vec![0u32; n_ids + 1];
                for i in 0..rows.len() {
                    if let Some(&id) = rows.row(i).get(col) {
                        starts[id as usize + 1] += 1;
                    }
                }
                for id in 0..n_ids {
                    starts[id + 1] += starts[id];
                }
                let mut fill = starts.clone();
                let mut out = vec![0u32; starts[n_ids] as usize];
                for i in 0..rows.len() {
                    if let Some(&id) = rows.row(i).get(col) {
                        out[fill[id as usize] as usize] = i as u32;
                        fill[id as usize] += 1;
                    }
                }
                Postings { starts, rows: out }
            })
            .collect();
        Ok(IdRelation { rows, postings })
    }

    /// Indexes of the rows holding `id` at `col`, in base order.
    fn posting(&self, col: usize, id: u32) -> &[u32] {
        match self.postings.get(col) {
            Some(p) => &p.rows[p.starts[id as usize] as usize..p.starts[id as usize + 1] as usize],
            None => &[],
        }
    }
}

/// One candidate extension `Δ` as id rows: the arena a search writes each
/// candidate's bound atoms into, reused across candidates.
#[derive(Default, Debug)]
pub(crate) struct IdDelta {
    ids: Vec<u32>,
    /// `(relation, start, end)` into `ids`, in write order.
    rows: Vec<(RelId, u32, u32)>,
    /// The distinct rows absent from the base, ordered by relation and then
    /// by the value order of the tuples they encode — the order an
    /// [`Overlay`] yields its novel tuples in.
    novel: Vec<(RelId, u32, u32)>,
}

impl IdDelta {
    /// Forget every row, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.rows.clear();
        self.novel.clear();
    }

    /// Were no rows written?
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row of `rel` if every value is bound; otherwise write
    /// nothing.
    pub(crate) fn push_row(&mut self, rel: RelId, vals: impl Iterator<Item = Option<u32>>) {
        let start = self.ids.len();
        for v in vals {
            match v {
                Some(id) => self.ids.push(id),
                None => {
                    self.ids.truncate(start);
                    return;
                }
            }
        }
        self.rows.push((rel, start as u32, self.ids.len() as u32));
    }

    fn slice(&self, &(_, start, end): &(RelId, u32, u32)) -> &[u32] {
        &self.ids[start as usize..end as usize]
    }

    fn rows(&self) -> impl Iterator<Item = (RelId, &[u32])> {
        self.rows.iter().map(|r| (r.0, self.slice(r)))
    }

    fn novel_rows(&self, rel: RelId) -> impl Iterator<Item = &[u32]> {
        self.novel
            .iter()
            .filter(move |r| r.0 == rel)
            .map(|r| self.slice(r))
    }

    fn has_novel(&self, rel: RelId) -> bool {
        self.novel.iter().any(|r| r.0 == rel)
    }

    /// Fill `novel`: the distinct written rows that neither the base nor
    /// (when `PUSHED`) the overlay holds, in value order per relation.
    fn classify<const PUSHED: bool>(&mut self, base: &[IdRelation], overlay: &IdOverlay) {
        let ids = &self.ids;
        let slice = |&(_, start, end): &(RelId, u32, u32)| &ids[start as usize..end as usize];
        self.novel.clear();
        self.novel.extend(self.rows.iter().filter(|r| {
            !(base[r.0 .0].rows.contains(slice(r)) || PUSHED && overlay.contains(r.0, slice(r)))
        }));
        self.novel
            .sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| slice(a).cmp(slice(b))));
        self.novel
            .dedup_by(|a, b| a.0 == b.0 && slice(a) == slice(b));
    }

    /// Decode every written row into `out` (cleared first).
    pub(crate) fn decode_into(&self, adom: &Adom, out: &mut Database) {
        out.clear_tuples();
        for (rel, row) in self.rows() {
            out.insert(rel, decode_row(adom, row));
        }
    }
}

/// The tuple an id row stands for.
fn decode_row(adom: &Adom, row: &[u32]) -> Tuple {
    Tuple::new(row.iter().map(|&id| adom.value(id).clone()))
}

/// Rows pushed onto an [`IdCheck`]'s base, newest last. Every row also
/// heads one posting chain per column: `heads` holds, per relation and per
/// `(column, id)`, one past the newest row with that id there (0: none),
/// and `next`, parallel to `ids`, the same for the next-older row. A pop
/// restores the heads it overwrote, so once the buffers have grown nothing
/// is allocated.
#[derive(Debug)]
struct IdOverlay {
    ids: Vec<u32>,
    /// `(relation, start, end)` into `ids`, oldest first.
    rows: Vec<(RelId, u32, u32)>,
    /// Catalog size: a relation's heads are `arity × n_ids` slots, laid out
    /// column by column and allocated at its first push.
    n_ids: usize,
    heads: Vec<Vec<u32>>,
    next: Vec<u32>,
}

impl IdOverlay {
    fn new(n_ids: usize) -> Self {
        IdOverlay {
            ids: Vec::new(),
            rows: Vec::new(),
            n_ids,
            heads: Vec::new(),
            next: Vec::new(),
        }
    }

    fn push(&mut self, rel: RelId, row: &[u32]) {
        let start = self.ids.len() as u32;
        if self.heads.len() <= rel.0 {
            self.heads.resize_with(rel.0 + 1, Vec::new);
        }
        let heads = &mut self.heads[rel.0];
        if heads.is_empty() {
            heads.resize(row.len() * self.n_ids, 0);
        }
        let newest = self.rows.len() as u32 + 1;
        for (col, &id) in row.iter().enumerate() {
            let head = &mut heads[col * self.n_ids + id as usize];
            self.next.push(std::mem::replace(head, newest));
        }
        self.ids.extend_from_slice(row);
        self.rows.push((rel, start, self.ids.len() as u32));
    }

    fn pop(&mut self) {
        let Some((rel, start, _)) = self.rows.pop() else {
            return;
        };
        let start = start as usize;
        let heads = &mut self.heads[rel.0];
        for (col, &id) in self.ids[start..].iter().enumerate() {
            heads[col * self.n_ids + id as usize] = self.next[start + col];
        }
        self.next.truncate(start);
        self.ids.truncate(start);
    }

    fn slice(&self, &(_, start, end): &(RelId, u32, u32)) -> &[u32] {
        &self.ids[start as usize..end as usize]
    }

    fn rows(&self) -> impl Iterator<Item = (RelId, &[u32])> {
        self.rows.iter().map(|r| (r.0, self.slice(r)))
    }

    /// Does `f` hold for every row of `rel`?
    fn all_rows(&self, rel: RelId, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        self.rows
            .iter()
            .filter(|r| r.0 == rel)
            .all(|r| f(self.slice(r)))
    }

    /// Does `f` hold for every row of `rel` holding `id` at `col`, newest
    /// first?
    fn all_posting(
        &self,
        rel: RelId,
        col: usize,
        id: u32,
        f: &mut dyn FnMut(&[u32]) -> bool,
    ) -> bool {
        let head = self
            .heads
            .get(rel.0)
            .and_then(|h| h.get(col * self.n_ids + id as usize));
        let mut at = head.copied().unwrap_or(0);
        while at != 0 {
            let row = &self.rows[at as usize - 1];
            if !f(self.slice(row)) {
                return false;
            }
            at = self.next[row.1 as usize + col];
        }
        true
    }

    fn contains(&self, rel: RelId, row: &[u32]) -> bool {
        match row.first() {
            Some(&id) => !self.all_posting(rel, 0, id, &mut |r| r != row),
            None => !self.all_rows(rel, &mut |r| r != row),
        }
    }
}

/// `base ∪ overlay ∪ Δ` over ids, as the plan executor reads it; counts
/// index probes exactly as [`Overlay`]'s store does — one lookup on the old
/// side (the base, then the overlay), then one delta-side lookup unless the
/// old side stopped the visit. The overlay is read only when `PUSHED`: a
/// check with nothing pushed (exact RCDP) runs the base-only code.
struct IdView<'a, const PUSHED: bool> {
    base: &'a [IdRelation],
    overlay: &'a IdOverlay,
    delta: &'a IdDelta,
    probes: &'a Cell<u64>,
}

impl<const PUSHED: bool> Rows<u32> for IdView<'_, PUSHED> {
    type Row = [u32];

    fn scan_rows(&self, rel: RelId, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        let rows = &self.base[rel.0].rows;
        (0..rows.len()).all(|i| f(rows.row(i)))
            && (!PUSHED || self.overlay.all_rows(rel, f))
            && self.delta.novel_rows(rel).all(f)
    }

    fn probe_rows(
        &self,
        rel: RelId,
        col: usize,
        key: &u32,
        f: &mut dyn FnMut(&[u32]) -> bool,
    ) -> bool {
        let base = &self.base[rel.0];
        self.probes.set(self.probes.get() + 1);
        if !base
            .posting(col, *key)
            .iter()
            .all(|&i| f(base.rows.row(i as usize)))
            || (PUSHED && !self.overlay.all_posting(rel, col, *key, f))
        {
            return false;
        }
        self.probes.set(self.probes.get() + 1);
        self.delta
            .novel_rows(rel)
            .filter(|row| row.get(col) == Some(key))
            .all(f)
    }
}

impl<const PUSHED: bool> DeltaRows<u32> for IdView<'_, PUSHED> {
    fn novel_rows(&self, rel: RelId, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        self.delta.novel_rows(rel).all(f)
    }
}

/// The mutable state of an [`IdCheck`], reused across candidates.
#[derive(Default, Debug)]
pub(crate) struct IdScratch {
    /// The candidate's rows; the caller writes them before each check.
    pub(crate) delta: IdDelta,
    /// A reusable id row: a candidate answer, or a projected key.
    pub(crate) row: Vec<u32>,
    /// Index probes issued by the delta arm so far.
    pub(crate) probes: u64,
    plans: PlanScratch<u32>,
    /// The decoded candidate, for the union arm.
    decoded: Option<Database>,
}

/// One upper bound of the delta arm in ids.
struct IdBound<'a> {
    plans: &'a [DeltaPlans],
    rhs: IdRows,
    /// Per compiled tableau, its plans' constant pool as ids.
    consts: Vec<Box<[u32]>>,
}

/// How an [`IdCheck`] answers.
enum IdArm<'a> {
    /// Per projection bound: relation, columns, right-hand side.
    Ind(Vec<(RelId, Vec<usize>, IdRows)>),
    /// Decode and run [`UpperCheck::Union`] on `Value`s, against the base
    /// with the overlay's rows inserted (cloned at the first push).
    Union(Option<Database>),
    Delta {
        prepared: &'a PreparedUpper,
        base: Vec<IdRelation>,
        bounds: Vec<IdBound<'a>>,
    },
}

/// A decision's [`UpperCheck`] on dense ids, built once per decision over
/// its `Adom` catalog and partially closed `base`, plus the rows pushed
/// onto that base since.
pub(crate) struct IdCheck<'a> {
    check: &'a UpperCheck,
    setting: &'a Setting,
    base: &'a Database,
    adom: &'a Adom,
    arm: IdArm<'a>,
    overlay: IdOverlay,
}

impl<'a> IdCheck<'a> {
    /// The id form of `check` for candidates extending `base`. Errors when a
    /// catalog size exceeds the id space, and when the delta arm meets an
    /// FO/FP body (only the bounded search checks those).
    pub(crate) fn new(
        check: &'a UpperCheck,
        setting: &'a Setting,
        base: &'a Database,
        adom: &'a Adom,
    ) -> Result<Self, RcError> {
        let arm = match check {
            UpperCheck::IndOnly => IdArm::Ind(
                setting
                    .v
                    .ccs
                    .iter()
                    .map(|cc| {
                        let CcBody::Proj(p) = &cc.body else {
                            unreachable!("IndOnly checks projection bodies only")
                        };
                        let rhs = match &cc.rhs {
                            CcRhs::Empty => IdRows::default(),
                            CcRhs::Master(m) => IdRows::encode(adom, m.eval(&setting.dm).iter())?,
                        };
                        Ok((p.rel, p.cols.clone(), rhs))
                    })
                    .collect::<Result<_, RcError>>()?,
            ),
            UpperCheck::Union => IdArm::Union(None),
            UpperCheck::Delta(prepared) => IdArm::Delta {
                prepared,
                base: base
                    .iter()
                    .map(|(_, inst)| IdRelation::build(adom, inst))
                    .collect::<Result<_, _>>()?,
                bounds: prepared
                    .bounds()
                    .map(|(plans, rhs)| {
                        let plans = plans.ok_or_else(|| {
                            RcError::Unsupported(
                                "the id check runs monotone constraint bodies only".into(),
                            )
                        })?;
                        Ok(IdBound {
                            plans,
                            rhs: IdRows::encode(adom, rhs.iter())?,
                            consts: plans
                                .iter()
                                .map(|dp| encode_values(adom, dp.consts()))
                                .collect::<Result<_, RcError>>()?,
                        })
                    })
                    .collect::<Result<_, RcError>>()?,
            },
        };
        Ok(IdCheck {
            check,
            setting,
            base,
            adom,
            arm,
            overlay: IdOverlay::new(adom.n_ids()),
        })
    }

    /// Add `row` of `rel` to the base the check reads. The caller keeps
    /// the extended base partially closed (it pushes only rows a check
    /// admitted) and pushes no row the base or the overlay already holds.
    pub(crate) fn push(&mut self, rel: RelId, row: &[u32]) {
        if let IdArm::Union(current) = &mut self.arm {
            current
                .get_or_insert_with(|| self.base.clone())
                .insert(rel, decode_row(self.adom, row));
        }
        self.overlay.push(rel, row);
    }

    /// Remove the newest pushed row.
    pub(crate) fn pop(&mut self) {
        if let (IdArm::Union(Some(current)), Some(r)) = (&mut self.arm, self.overlay.rows.last()) {
            current
                .instance_mut(r.0)
                .remove(&decode_row(self.adom, self.overlay.slice(r)));
        }
        self.overlay.pop();
    }

    /// The ids of every pushed row, with repeats.
    pub(crate) fn pushed_ids(&self) -> &[u32] {
        &self.overlay.ids
    }

    /// The base with every pushed row, decoded.
    pub(crate) fn current(&self) -> Database {
        let mut db = self.base.clone();
        for (rel, row) in self.overlay.rows() {
            db.insert(rel, decode_row(self.adom, row));
        }
        db
    }

    /// The index of the first upper bound `base ∪ overlay ∪ s.delta`
    /// violates (`None` = satisfied): exactly [`UpperCheck::first_violation`]
    /// on the decoded candidate, counting skipped constraints into
    /// `cc_skipped` and the delta arm's index probes into `s.probes`.
    pub(crate) fn first_violation(
        &self,
        s: &mut IdScratch,
        cc_skipped: &Cell<u64>,
    ) -> Option<usize> {
        match &self.arm {
            IdArm::Ind(bounds) => {
                let IdScratch { delta, row, .. } = s;
                bounds.iter().position(|(rel, cols, rhs)| {
                    delta.rows().any(|(r, ids)| {
                        r == *rel && {
                            row.clear();
                            row.extend(cols.iter().map(|&c| ids[c]));
                            !rhs.contains(row)
                        }
                    })
                })
            }
            IdArm::Union(current) => {
                let decoded = s
                    .decoded
                    .get_or_insert_with(|| Database::with_relations(self.setting.schema.len()));
                s.delta.decode_into(self.adom, decoded);
                let base = current.as_ref().unwrap_or(self.base);
                self.check
                    .first_violation(self.setting, base, decoded, cc_skipped)
            }
            IdArm::Delta {
                prepared,
                base,
                bounds,
            } => {
                let res = if self.overlay.rows.is_empty() {
                    delta_check::<false>(prepared, base, &self.overlay, bounds, s)
                } else {
                    delta_check::<true>(prepared, base, &self.overlay, bounds, s)
                };
                cc_skipped.set(cc_skipped.get() + res.skipped as u64);
                res.violated
            }
        }
    }

    /// Decode the candidate in `s` into a fresh delta database.
    pub(crate) fn decode(&self, s: &IdScratch) -> Database {
        let mut out = Database::with_relations(self.setting.schema.len());
        s.delta.decode_into(self.adom, &mut out);
        out
    }
}

/// The delta arm's check of the candidate in `s`, reading `overlay` only
/// when `PUSHED`; counts its index probes into `s.probes`.
fn delta_check<const PUSHED: bool>(
    prepared: &PreparedUpper,
    base: &[IdRelation],
    overlay: &IdOverlay,
    bounds: &[IdBound<'_>],
    s: &mut IdScratch,
) -> DeltaCheck {
    s.delta.classify::<PUSHED>(base, overlay);
    let IdScratch {
        delta,
        probes,
        plans,
        ..
    } = s;
    let counted = Cell::new(*probes);
    let view = IdView::<PUSHED> {
        base,
        overlay,
        delta,
        probes: &counted,
    };
    let res = prepared.check_with(
        |rel| delta.has_novel(rel),
        |i| {
            let IdBound {
                plans: dps,
                rhs,
                consts,
            } = &bounds[i];
            Ok::<_, std::convert::Infallible>(dps.iter().zip(consts).all(|(dp, consts)| {
                dp.delta_answers(consts, &view, plans, &mut |a| rhs.contains(a))
            }))
        },
    );
    let Ok(res) = res;
    *probes = counted.get();
    res
}

fn encode_values(adom: &Adom, vals: &[Value]) -> Result<Box<[u32]>, RcError> {
    vals.iter()
        .map(|v| adom.id(v).ok_or_else(|| missing(v)))
        .collect()
}

fn missing(v: &Value) -> RcError {
    RcError::Unsupported(format!("value {v} is missing from Adom"))
}

/// A row count or offset as a `u32` id-table entry.
fn id_len(n: usize) -> Result<u32, RcError> {
    u32::try_from(n).map_err(|_| RcError::Unsupported(format!("{n} rows exceed the u32 id space")))
}

/// A body that evaluated on the partially closed base but fails on an
/// extension is malformed (an FO formula with a free variable the base never
/// reached); the naive evaluator panics on it too.
fn malformed<T>(e: TableauError) -> T {
    panic!("upper-bound evaluation failed ({e}); the constraint body is malformed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use ric_constraints::{compile::fd_to_ccs, ConstraintSet, ContainmentConstraint, Fd};
    use ric_data::{index::probe_count, RelationSchema, Schema, SplitMix64};
    use ric_query::parse_cq;

    /// Mixed constants: ints, strings, and `Int(0)` beside `Str("0")`.
    fn value(rng: &mut SplitMix64) -> Value {
        match rng.random_range(0..5) {
            0 => Value::int(0),
            1 => Value::str("0"),
            2 => Value::int(7),
            3 => Value::str("b"),
            _ => Value::str("a"),
        }
    }

    /// The delta arm on ids answers every candidate exactly as the overlay
    /// on values does: the same first violation, the same skipped
    /// constraints, and the same index probes — novel rows in the same
    /// order, and early exits at the same row.
    #[test]
    fn id_delta_arm_matches_the_value_overlay() {
        let s = Schema::from_relations(vec![
            RelationSchema::infinite("R", &["a", "b"]),
            RelationSchema::infinite("S", &["a"]),
        ])
        .unwrap();
        let (r, srel) = (s.rel_id("R").unwrap(), s.rel_id("S").unwrap());
        let m = Schema::from_relations(vec![RelationSchema::infinite("N", &["a"])]).unwrap();
        let nrel = m.rel_id("N").unwrap();
        let mut rng = SplitMix64::seed_from_u64(0x1D5);
        let query: Query = parse_cq(&s, "Q(X) :- R(X, Y), S(Y).").unwrap().into();
        let mut compared = 0usize;
        for _ in 0..60 {
            let mut dm = Database::empty(&m);
            for _ in 0..3 {
                dm.insert(nrel, Tuple::new([value(&mut rng)]));
            }
            let mut v = ConstraintSet::new(fd_to_ccs(&Fd::new(r, vec![0], vec![1]), &s));
            v.push(ContainmentConstraint::into_master(
                CcBody::Cq(parse_cq(&s, "Q(Y) :- R(X, Y), S(X).").unwrap()),
                nrel,
                vec![0],
            ));
            let setting = Setting::new(s.clone(), m.clone(), dm, v);
            let mut db = Database::empty(&s);
            for _ in 0..rng.random_range(0..12) {
                db.insert(r, Tuple::new([value(&mut rng), value(&mut rng)]));
            }
            for _ in 0..rng.random_range(0..3) {
                db.insert(srel, Tuple::new([value(&mut rng)]));
            }
            if !setting.partially_closed(&db).unwrap() {
                continue;
            }
            let check = UpperCheck::new(&setting, Engine::Planned, &db).unwrap();
            let adom = Adom::build(&db, &setting, &query, 2).unwrap();
            let ids = IdCheck::new(&check, &setting, &db, &adom).unwrap();
            let mut scratch = IdScratch::default();
            for _ in 0..20 {
                scratch.delta.clear();
                let n_ids = adom.n_ids();
                let id = |rng: &mut SplitMix64| Some(rng.random_range(0..n_ids) as u32);
                for _ in 0..rng.random_range(1..4) {
                    if rng.random_bool(0.7) {
                        let row = [id(&mut rng), id(&mut rng)];
                        scratch.delta.push_row(r, row.into_iter());
                    } else {
                        let row = [id(&mut rng)];
                        scratch.delta.push_row(srel, row.into_iter());
                    }
                }
                let delta = ids.decode(&scratch);
                let (want_skipped, got_skipped) = (Cell::new(0), Cell::new(0));
                let before = probe_count();
                let want = check.first_violation(&setting, &db, &delta, &want_skipped);
                let want_probes = probe_count() - before;
                let before = scratch.probes;
                let got = ids.first_violation(&mut scratch, &got_skipped);
                assert_eq!(
                    (got, got_skipped.get(), scratch.probes - before),
                    (want, want_skipped.get(), want_probes),
                    "db {db:?}, delta {delta:?}"
                );
                compared += 1;
            }
        }
        assert!(
            compared >= 200,
            "too few partially closed bases ({compared})"
        );
    }

    /// A check whose base is split — part built into the id tables, the
    /// rest pushed onto the overlay, with extra rows pushed and popped
    /// again on top — answers every candidate exactly as the value check
    /// does on the whole base: the same first violation and the same
    /// skipped constraints, on the delta arm and on the union arm. This
    /// attacks the overlay's posting chains, its novelty test, and the
    /// heads a pop restores.
    #[test]
    fn pushed_rows_check_as_the_base_does() {
        let s = Schema::from_relations(vec![
            RelationSchema::infinite("R", &["a", "b"]),
            RelationSchema::infinite("S", &["a"]),
        ])
        .unwrap();
        let (r, srel) = (s.rel_id("R").unwrap(), s.rel_id("S").unwrap());
        let m = Schema::from_relations(vec![RelationSchema::infinite("N", &["a"])]).unwrap();
        let nrel = m.rel_id("N").unwrap();
        let mut rng = SplitMix64::seed_from_u64(0x0E7A);
        let query: Query = parse_cq(&s, "Q(X) :- R(X, Y), S(Y).").unwrap().into();
        let tuple = |rng: &mut SplitMix64| {
            if rng.random_bool(0.7) {
                (r, Tuple::new([value(rng), value(rng)]))
            } else {
                (srel, Tuple::new([value(rng)]))
            }
        };
        let (mut compared, mut violations) = (0usize, 0usize);
        for _ in 0..60 {
            let mut dm = Database::empty(&m);
            for _ in 0..3 {
                dm.insert(nrel, Tuple::new([value(&mut rng)]));
            }
            let mut v = ConstraintSet::new(fd_to_ccs(&Fd::new(r, vec![0], vec![1]), &s));
            v.push(ContainmentConstraint::into_master(
                CcBody::Cq(parse_cq(&s, "Q(Y) :- R(X, Y), S(X).").unwrap()),
                nrel,
                vec![0],
            ));
            let setting = Setting::new(s.clone(), m.clone(), dm, v);
            // The whole base, its first part, and rows that extend it.
            let (mut whole, mut first) = (Database::empty(&s), Database::empty(&s));
            let mut pushed = Vec::new();
            for _ in 0..rng.random_range(0..12) {
                let (rel, t) = tuple(&mut rng);
                let mut grown = whole.clone();
                grown.insert(rel, t.clone());
                if whole.instance(rel).contains(&t) || !setting.partially_closed(&grown).unwrap() {
                    continue;
                }
                whole = grown;
                if rng.random_bool(0.5) {
                    first.insert(rel, t);
                } else {
                    pushed.push((rel, t));
                }
            }
            // A catalog of every value `value` draws, so extra rows encode.
            let mut all = whole.clone();
            for v in ["0", "b", "a"]
                .map(Value::str)
                .into_iter()
                .chain([0, 7].map(Value::int))
            {
                all.insert(srel, Tuple::new([v]));
            }
            let adom = Adom::build(&all, &setting, &query, 2).unwrap();
            for engine in [Engine::Planned, Engine::Naive] {
                let check = UpperCheck::new(&setting, engine, &first).unwrap();
                let mut ids = IdCheck::new(&check, &setting, &first, &adom).unwrap();
                let mut scratch = IdScratch::default();
                let mut row = Vec::new();
                let mut push = |ids: &mut IdCheck, rel: RelId, t: &Tuple| {
                    row.clear();
                    row.extend(t.iter().map(|v| adom.id(v).unwrap()));
                    ids.push(rel, &row);
                };
                for (rel, t) in &pushed {
                    push(&mut ids, *rel, t);
                }
                // Rows pushed and popped again leave no trace.
                let mut extra = 0;
                for _ in 0..rng.random_range(0..3) {
                    let (rel, t) = tuple(&mut rng);
                    if !whole.instance(rel).contains(&t) {
                        push(&mut ids, rel, &t);
                        extra += 1;
                    }
                }
                (0..extra).for_each(|_| ids.pop());
                assert_eq!(ids.current(), whole);
                let want_check = UpperCheck::new(&setting, engine, &whole).unwrap();
                for _ in 0..20 {
                    scratch.delta.clear();
                    let n_ids = adom.n_ids();
                    let id = |rng: &mut SplitMix64| Some(rng.random_range(0..n_ids) as u32);
                    for _ in 0..rng.random_range(1..3) {
                        if rng.random_bool(0.7) {
                            let row = [id(&mut rng), id(&mut rng)];
                            scratch.delta.push_row(r, row.into_iter());
                        } else {
                            let row = [id(&mut rng)];
                            scratch.delta.push_row(srel, row.into_iter());
                        }
                    }
                    let delta = ids.decode(&scratch);
                    let (want_skipped, got_skipped) = (Cell::new(0), Cell::new(0));
                    let want = want_check.first_violation(&setting, &whole, &delta, &want_skipped);
                    let got = ids.first_violation(&mut scratch, &got_skipped);
                    assert_eq!(
                        (got, got_skipped.get()),
                        (want, want_skipped.get()),
                        "{engine:?}: base {first:?}, pushed {pushed:?}, delta {delta:?}"
                    );
                    compared += 1;
                    violations += usize::from(want.is_some());
                }
            }
        }
        assert!(
            compared >= 1000 && violations >= 100 && violations < compared,
            "{compared} candidates, {violations} violating: the generator drifted"
        );
    }
}
