//! Seeded input generation. Everything here is plain data — relation
//! layouts, rows, constraint descriptions and query text — with the verdict
//! each input was planted to have. Nothing in this module calls `ric`; the
//! adapter turns these descriptions into library objects.

/// SplitMix64: the same seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// One attribute value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cell {
    S(String),
    I(i64),
}

/// One tuple of relation number `rel` (an index into the relation list of
/// the schema it belongs to).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    pub rel: usize,
    pub vals: Vec<Cell>,
}

pub fn row(rel: usize, vals: &[&str]) -> Row {
    Row {
        rel,
        vals: vals.iter().map(|v| Cell::S((*v).to_string())).collect(),
    }
}

/// A containment constraint, by relation and column numbers.
#[derive(Clone, Debug)]
pub enum Cc {
    /// `π_cols(rel) ⊆ π_mcols(mrel)`.
    Ind {
        rel: usize,
        cols: Vec<usize>,
        mrel: usize,
        mcols: Vec<usize>,
    },
    /// The functional dependency `lhs → rhs` on `rel`.
    Fd {
        rel: usize,
        lhs: Vec<usize>,
        rhs: Vec<usize>,
    },
    /// A CQ body, as query text over the database schema, `⊆ π_mcols(mrel)`.
    CqIntoMaster {
        body: String,
        mrel: usize,
        mcols: Vec<usize>,
    },
    /// A CQ body that must stay empty (a denial).
    Denial { body: String },
}

/// A relation: name and attribute names.
pub type Rel = (String, Vec<String>);

/// Everything a setting is made of: schema, master schema, master rows and
/// the constraint set.
#[derive(Clone, Debug)]
pub struct SettingSpec {
    pub rels: Vec<Rel>,
    pub mrels: Vec<Rel>,
    pub master: Vec<Row>,
    pub ccs: Vec<Cc>,
}

/// What a decision concluded, without its certificate: the verdict each
/// input is planted to have, and what the library returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Complete,
    Incomplete,
    Nonempty,
    Empty,
    Unknown,
    NotPartiallyClosed,
}

fn rel(name: &str, attrs: &[&str]) -> Rel {
    (
        name.to_string(),
        attrs.iter().map(|a| (*a).to_string()).collect(),
    )
}

/// The §1 CRM setting: `Supt(eid, dept, cid)` with supported customers
/// bounded by the master list `DCust(cid)`.
pub fn crm_setting(customers: &[String]) -> SettingSpec {
    SettingSpec {
        rels: vec![rel("Supt", &["eid", "dept", "cid"])],
        mrels: vec![rel("DCust", &["cid"])],
        master: customers.iter().map(|c| row(0, &[c])).collect(),
        ccs: vec![Cc::Ind {
            rel: 0,
            cols: vec![2],
            mrel: 0,
            mcols: vec![0],
        }],
    }
}

/// The Example 3.1 setting: `Supt(eid, dept, cid)` under the FD
/// `eid → dept, cid`, no master data.
pub fn fd_setting() -> SettingSpec {
    SettingSpec {
        rels: vec![rel("Supt", &["eid", "dept", "cid"])],
        mrels: vec![],
        master: vec![],
        ccs: vec![Cc::Fd {
            rel: 0,
            lhs: vec![0],
            rhs: vec![1, 2],
        }],
    }
}

/// CRM with the FD `eid → dept` added: the customer column is bounded by
/// master data and each employee's department is pinned by the FD.
pub fn crm_fd_setting(customers: &[String]) -> SettingSpec {
    let mut s = crm_setting(customers);
    s.ccs.push(Cc::Fd {
        rel: 0,
        lhs: vec![0],
        rhs: vec![1],
    });
    s
}

/// CRM whose constraint set carries `k` CQ restatements of the IND, each
/// an `atoms`-way self-join: implied by the IND, so the prover drops them.
pub fn redundant_setting(customers: &[String], k: usize, atoms: usize) -> SettingSpec {
    let mut s = crm_setting(customers);
    for _ in 0..k {
        let body: Vec<String> = (0..atoms).map(|a| format!("Supt(E{a}, D{a}, C)")).collect();
        s.ccs.push(Cc::CqIntoMaster {
            body: format!("Q(C) :- {}.", body.join(", ")),
            mrel: 0,
            mcols: vec![0],
        });
    }
    s
}

/// A setting where the queried relation `R` is denied outright, next to
/// `S(a)` bounded by the master list `Rm(a)`.
pub fn static_setting(values: usize) -> SettingSpec {
    SettingSpec {
        rels: vec![rel("R", &["a", "b"]), rel("S", &["a"])],
        mrels: vec![rel("Rm", &["a"])],
        master: (0..values)
            .map(|v| Row {
                rel: 0,
                vals: vec![Cell::I(v as i64)],
            })
            .collect(),
        ccs: vec![
            Cc::Denial {
                body: "Q(X, Y) :- R(X, Y).".to_string(),
            },
            Cc::Ind {
                rel: 1,
                cols: vec![0],
                mrel: 0,
                mcols: vec![0],
            },
        ],
    }
}

/// The fixed `(D_m, V)` of the Corollary 4.6 regime: `Work(emp, task)`
/// under the FD `emp → task`, `Cert(emp, lvl)` with levels bounded by the
/// master list `Lvl = {0, …, levels - 1}`.
pub fn work_setting(levels: i64) -> SettingSpec {
    SettingSpec {
        rels: vec![rel("Work", &["emp", "task"]), rel("Cert", &["emp", "lvl"])],
        mrels: vec![rel("Lvl", &["lvl"])],
        master: (0..levels)
            .map(|v| Row {
                rel: 0,
                vals: vec![Cell::I(v)],
            })
            .collect(),
        ccs: vec![
            Cc::Fd {
                rel: 0,
                lhs: vec![0],
                rhs: vec![1],
            },
            Cc::Ind {
                rel: 1,
                cols: vec![1],
                mrel: 0,
                mcols: vec![0],
            },
        ],
    }
}

/// `n` distinct names `<prefix><k>` from a seeded offset, so two seeds give
/// different constants but the same shapes.
pub fn names(rng: &mut Rng, prefix: &str, n: usize) -> Vec<String> {
    let base = rng.below(10_000);
    (0..n).map(|k| format!("{prefix}{:05}", base + k)).collect()
}

/// CRM rows: `emp` supports every customer in `covered`, and `noise` rows
/// of other employees support random master customers.
pub fn crm_rows(
    rng: &mut Rng,
    emp: &str,
    covered: &[String],
    customers: &[String],
    noise: usize,
) -> Vec<Row> {
    let mut rows: Vec<Row> = covered.iter().map(|c| row(0, &[emp, "d0", c])).collect();
    for _ in 0..noise {
        // Each noise employee keeps one department, so `eid → dept` holds.
        let j = rng.below(4);
        let c = &customers[rng.below(customers.len())];
        rows.push(row(0, &[&format!("{emp}x{j}"), &format!("d{}", j % 3), c]));
    }
    rows
}

/// Example 3.1 rows: one row per employee, so the FD pins every
/// employee's department and customer.
pub fn fd_rows(rng: &mut Rng, emps: &[String]) -> Vec<Row> {
    let tag = rng.below(1000);
    emps.iter()
        .enumerate()
        .map(|(i, e)| {
            row(
                0,
                &[
                    e,
                    &format!("d{tag:03}_{i:02}"),
                    &format!("k{tag:03}_{i:02}"),
                ],
            )
        })
        .collect()
}
