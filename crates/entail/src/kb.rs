//! The knowledge base: decides entailment of boolean, aliasing, and
//! modular-arithmetic facts.
//!
//! This is the reproduction's stand-in for the paper's use of Z3 (§3.4,
//! §5). The check-placement analysis only ever asks questions of a very
//! restricted shape — linear inequalities over locals, reference equality
//! under heap-alias assumptions, and stride/divisibility side conditions —
//! so a small, complete-enough decision procedure covers it:
//!
//! * linear arithmetic: Fourier–Motzkin refutation over [`Lin`] facts;
//! * reference equality: union-find plus congruence closure over field and
//!   element alias facts (`x = y.f`, `x = y[i]`);
//! * divisibility: congruence facts `e ≡ 0 (mod m)` matched up to constant
//!   differences.
//!
//! All answers are conservative: "don't know" means *not entailed*, which
//! at worst places a redundant check (never an unsound one).
//!
//! # Refuting over one component
//!
//! A query is refuted by Fourier–Motzkin (FM) elimination over the fact
//! rows plus the negated query row. Most facts share no atom with a given
//! query: a method's facts split into several independent components, and
//! the query's row touches one or two. So [`Kb`] splits the canonical fact
//! rows once per fact generation, by a union-find over their atoms, and
//! solves each component alone. A query then eliminates only the rows of
//! the components its atoms touch, merged in their original order, with
//! the query row appended. The answer is "the query's component is
//! infeasible, or some untouched component is".
//!
//! That answer is the whole-system answer, caps included:
//!
//! * A combined row mentions only atoms of its parents, so it stays in
//!   their component. Eliminating another component's atom moves all of
//!   this component's rows to the kept rows unchanged and in order. So
//!   the rows of each component, in each round of the whole-system run,
//!   are exactly the rows of that component's own run at the same stage.
//! * Each component's own run records its peak: the most rows it holds
//!   at the start or after any completed round. Constant rows belong to
//!   no component and are held throughout. After any whole-system round
//!   the rows held are at most Σ peaks + constant rows. When that bound is
//!   within `FM_MAX_ROWS`, the row cap never fires, and the whole-system
//!   run returns true exactly when some component derives a negative
//!   constant.
//! * The checks before the elimination keep their order: a negative
//!   constant row first, then the atom cap on all atoms (fact atoms plus
//!   query atoms).
//!
//! When the bound is exceeded, or a component broke the row cap on its
//! own, the query falls back to the same elimination run on all rows
//! (`entail.fm.fallbacks` counts these), so no verdict depends on the
//! split.

use crate::lin::{linearize, Atom, Lin};
use bigfoot_bfj::{Binop, Expr, Sym, Unop};
use std::collections::HashMap;

/// Caps for the Fourier–Motzkin elimination, beyond which the engine gives
/// up (conservatively answering "not entailed").
const FM_MAX_ROWS: usize = 600;
const FM_MAX_ATOMS: usize = 24;

/// A heap-alias right-hand side: what a variable was loaded from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AliasRhs {
    /// `x = base.field`
    Field {
        /// The object variable.
        base: Sym,
        /// The field name.
        field: Sym,
    },
    /// `x = base[index]`
    Elem {
        /// The array variable.
        base: Sym,
        /// The normalized index.
        index: Lin,
    },
}

/// A set of assumed facts with entailment queries.
///
/// # Examples
///
/// ```
/// use bigfoot_entail::Kb;
/// use bigfoot_bfj::{Expr, Sym};
///
/// let mut kb = Kb::new();
/// // assume i = j
/// kb.assume(&Expr::Binop(
///     bigfoot_bfj::Binop::Eq,
///     Box::new(Expr::var("i")),
///     Box::new(Expr::var("j")),
/// ));
/// // then i + 1 > j holds
/// let q = Expr::Binop(
///     bigfoot_bfj::Binop::Gt,
///     Box::new(Expr::add(Expr::var("i"), Expr::Int(1))),
///     Box::new(Expr::var("j")),
/// );
/// assert!(kb.entails(&q));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Kb {
    /// Inequality facts, each meaning `lin >= 0`.
    ineqs: Vec<Lin>,
    /// Congruence facts, each meaning `lin ≡ 0 (mod m)`.
    congs: Vec<(Lin, i64)>,
    /// Union-find over reference variables.
    parent: HashMap<Sym, Sym>,
    /// Alias facts `lhs = rhs`.
    aliases: Vec<(Sym, AliasRhs)>,
    /// Whether the congruence closure is up to date.
    closed: bool,
    /// Cached result of the inconsistency check.
    inconsistent: Option<bool>,
    /// Fact-set fingerprint: bumped by every public assumption, so caches
    /// below can tell whether the knowledge base has changed since they
    /// were filled. Canonicalization is stable within one generation (the
    /// congruence closure is idempotent between assumptions).
    generation: u64,
    /// Memoized [`Kb::proves_nonneg`] verdicts for the current generation,
    /// keyed by the canonicalized query.
    memo: HashMap<Lin, bool>,
    memo_gen: u64,
    /// Canonicalized inequality rows, rebuilt once per generation instead
    /// of on every query.
    canon_rows: Vec<Lin>,
    canon_gen: Option<u64>,
    /// The independent components of `canon_rows`, rebuilt with them.
    parts: FactParts,
    /// Scratch row storage reused across Fourier–Motzkin queries.
    fm_scratch: Vec<Lin>,
}

impl Kb {
    /// An empty knowledge base (entails only tautologies).
    pub fn new() -> Kb {
        Kb::default()
    }

    /// Assumes a boolean expression. Conjunctions are split; comparisons
    /// become linear facts; `e % m == 0` becomes a congruence fact;
    /// disjunctions and other unhandled forms are soundly ignored.
    pub fn assume(&mut self, e: &Expr) {
        self.generation = self.generation.wrapping_add(1);
        match e {
            Expr::Binop(Binop::And, a, b) => {
                self.assume(a);
                self.assume(b);
            }
            Expr::Unop(Unop::Not, inner) => {
                if let Some(neg) = negate_cmp(inner) {
                    self.assume(&neg);
                }
            }
            Expr::Binop(op, a, b) if op.is_comparison() => {
                self.assume_cmp(*op, a, b);
            }
            _ => {}
        }
    }

    fn assume_cmp(&mut self, op: Binop, a: &Expr, b: &Expr) {
        // Recognize `x % m == c` and `(x - l) % m == 0` as congruences.
        if op == Binop::Eq {
            if let (Expr::Binop(Binop::Mod, inner, m), Expr::Int(c)) = (a, b) {
                if let (Some(li), Expr::Int(m)) = (linearize(inner), m.as_ref()) {
                    if *m > 0 {
                        self.congs.push((li.offset(-*c), *m));
                        return;
                    }
                }
            }
            if let (Expr::Int(c), Expr::Binop(Binop::Mod, inner, m)) = (a, b) {
                if let (Some(li), Expr::Int(m)) = (linearize(inner), m.as_ref()) {
                    if *m > 0 {
                        self.congs.push((li.offset(-*c), *m));
                        return;
                    }
                }
            }
            // Reference equality between variables.
            if let (Expr::Var(x), Expr::Var(y)) = (a, b) {
                self.union(*x, *y);
            }
        }
        let (Some(la), Some(lb)) = (linearize(a), linearize(b)) else {
            return;
        };
        self.inconsistent = None;
        match op {
            // a == b  →  a-b >= 0 ∧ b-a >= 0
            Binop::Eq => {
                self.ineqs.push(la.sub(&lb));
                self.ineqs.push(lb.sub(&la));
            }
            Binop::Le => self.ineqs.push(lb.sub(&la)),
            Binop::Lt => self.ineqs.push(lb.sub(&la).offset(-1)),
            Binop::Ge => self.ineqs.push(la.sub(&lb)),
            Binop::Gt => self.ineqs.push(la.sub(&lb).offset(-1)),
            Binop::Ne => {} // disjunction: ignored
            _ => {}
        }
    }

    /// Assumes a heap-alias fact `x = rhs` (recorded on field/array reads).
    pub fn assume_alias(&mut self, x: Sym, rhs: AliasRhs) {
        self.generation = self.generation.wrapping_add(1);
        self.aliases.push((x, rhs));
        self.closed = false;
    }

    /// Assumes `x` and `y` hold the same value (copy or rename). Records
    /// both the numeric equality and the reference equality.
    pub fn assume_var_eq(&mut self, x: Sym, y: Sym) {
        self.generation = self.generation.wrapping_add(1);
        let lx = Lin::var(x);
        let ly = Lin::var(y);
        self.ineqs.push(lx.sub(&ly));
        self.ineqs.push(ly.sub(&lx));
        self.union(x, y);
    }

    // ---------------- reference equality ----------------

    fn find(&self, x: Sym) -> Sym {
        let mut cur = x;
        while let Some(&p) = self.parent.get(&cur) {
            if p == cur {
                break;
            }
            cur = p;
        }
        cur
    }

    fn union(&mut self, x: Sym, y: Sym) {
        let rx = self.find(x);
        let ry = self.find(y);
        if rx != ry {
            self.parent.insert(rx, ry);
            self.closed = false;
        }
    }

    /// Runs congruence closure over the alias facts: two variables loaded
    /// from the same field of equal objects (or the same index of equal
    /// arrays) are themselves equal references.
    fn close(&mut self) {
        if self.closed {
            return;
        }
        loop {
            let mut changed = false;
            let mut by_key: HashMap<(Sym, Option<Sym>, Option<Lin>), Sym> = HashMap::new();
            let aliases = self.aliases.clone();
            for (lhs, rhs) in &aliases {
                let key = match rhs {
                    AliasRhs::Field { base, field } => (self.find(*base), Some(*field), None),
                    AliasRhs::Elem { base, index } => {
                        (self.find(*base), None, Some(self.canon_lin(index)))
                    }
                };
                match by_key.get(&key) {
                    Some(&prev) => {
                        if self.find(prev) != self.find(*lhs) {
                            self.union(prev, *lhs);
                            changed = true;
                        }
                    }
                    None => {
                        by_key.insert(key, *lhs);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.closed = true;
    }

    /// Canonicalizes the atoms of a linear term against the union-find.
    fn canon_lin(&self, l: &Lin) -> Lin {
        Lin::from_terms(
            l.konst,
            l.terms().iter().map(|&(a, c)| {
                let a = match a {
                    Atom::Var(x) => Atom::Var(self.find(x)),
                    Atom::Len(x) => Atom::Len(self.find(x)),
                    Atom::Opaque(s) => Atom::Opaque(s),
                };
                (a, c)
            }),
        )
    }

    /// True if `x` and `y` provably reference the same object/array.
    pub fn refs_equal(&mut self, x: Sym, y: Sym) -> bool {
        if x == y {
            return true;
        }
        bigfoot_obs::count!("entail.query.refs_equal");
        let _q = crate::obs::QueryGuard::enter();
        self.close();
        self.find(x) == self.find(y)
    }

    // ---------------- arithmetic entailment ----------------

    /// Normalizes an expression with union-find canonicalization.
    pub fn lin(&mut self, e: &Expr) -> Option<Lin> {
        self.close();
        linearize(e).map(|l| self.canon_lin(&l))
    }

    /// Rebuilds the canonicalized inequality rows if any assumption landed
    /// since they were last built. Requires the closure to be up to date.
    fn refresh_canon_rows(&mut self) {
        if self.canon_gen == Some(self.generation) {
            return;
        }
        let mut rows = std::mem::take(&mut self.canon_rows);
        rows.clear();
        rows.extend(self.ineqs.iter().map(|f| self.canon_lin(f)));
        self.parts = FactParts::split(&rows);
        self.canon_rows = rows;
        self.canon_gen = Some(self.generation);
    }

    /// True if the facts, plus `query` when given, are infeasible.
    fn refute(&mut self, query: Option<&Lin>) -> bool {
        self.refresh_canon_rows();
        self.parts
            .refute(&self.canon_rows, query, &mut self.fm_scratch)
    }

    /// Proves `l >= 0` from the assumed facts.
    ///
    /// Verdicts are memoized per canonicalized query until the next
    /// assumption: the placement analysis re-asks the same bounds queries
    /// for every path flowing through a block, and the fact set only
    /// changes at assumption points.
    pub fn proves_nonneg(&mut self, l: &Lin) -> bool {
        let _q = crate::obs::QueryGuard::enter();
        self.close();
        let q = self.canon_lin(l);
        if let Some(c) = q.as_const() {
            if c >= 0 {
                return true;
            }
            // Fall through: inconsistent facts entail everything.
        }
        if self.memo_gen != self.generation {
            self.memo.clear();
            self.memo_gen = self.generation;
        }
        if let Some(&v) = self.memo.get(&q) {
            bigfoot_obs::count!("entail.cache.hit");
            return v;
        }
        bigfoot_obs::count!("entail.cache.miss");
        // Refute facts ∧ (q <= -1), i.e. facts ∧ (-q - 1 >= 0).
        let v = self.refute(Some(&q.scale(-1).offset(-1)));
        self.memo.insert(q, v);
        v
    }

    /// Proves `a <= b`.
    pub fn proves_le(&mut self, a: &Lin, b: &Lin) -> bool {
        self.proves_nonneg(&b.sub(a))
    }

    /// True if the assumed facts are contradictory (a statically dead
    /// context, which entails everything).
    pub fn is_inconsistent(&mut self) -> bool {
        if let Some(v) = self.inconsistent {
            return v;
        }
        self.close();
        let v = self.refute(None);
        self.inconsistent = Some(v);
        v
    }

    /// Proves `a == b`.
    pub fn proves_eq(&mut self, a: &Lin, b: &Lin) -> bool {
        let d = a.sub(b);
        if self.canon_const(&d) == Some(0) {
            return true;
        }
        self.proves_nonneg(&d) && self.proves_nonneg(&d.scale(-1))
    }

    fn canon_const(&mut self, l: &Lin) -> Option<i64> {
        self.close();
        self.canon_lin(l).as_const()
    }

    /// Proves `l ≡ 0 (mod m)`.
    pub fn proves_cong(&mut self, l: &Lin, m: i64) -> bool {
        if m <= 1 {
            return true;
        }
        let _q = crate::obs::QueryGuard::enter();
        self.close();
        let q = self.canon_lin(l);
        if let Some(c) = q.as_const() {
            return c.rem_euclid(m) == 0;
        }
        // Equality facts may pin the query to a constant (e.g. on loop
        // entry, `x - e0` is exactly 0); probe small multiples of m.
        if self.pins_to_multiple(&q, m) {
            return true;
        }
        let congs = self.congs.clone();
        for (f, fm) in &congs {
            if fm % m != 0 {
                continue;
            }
            let f = self.canon_lin(f);
            // q ≡ f (mod m) if q - f is a constant multiple of m (either
            // syntactically or via the linear facts).
            for d in [q.sub(&f), q.add(&f)] {
                match d.as_const() {
                    Some(c) => {
                        if c.rem_euclid(m) == 0 {
                            return true;
                        }
                    }
                    None => {
                        if self.pins_to_multiple(&d, m) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// True if the linear facts pin `q` to `k·m` for some small `k`.
    fn pins_to_multiple(&mut self, q: &Lin, m: i64) -> bool {
        for k in -4i64..=4 {
            if self.proves_eq(q, &Lin::constant(k * m)) {
                return true;
            }
        }
        false
    }

    /// Decides a boolean query expression from the assumed facts.
    ///
    /// Handles conjunction, comparison, and negated comparison queries;
    /// anything else is conservatively *not* entailed.
    pub fn entails(&mut self, e: &Expr) -> bool {
        bigfoot_obs::count!("entail.query.entails");
        let _q = crate::obs::QueryGuard::enter();
        match e {
            Expr::Bool(true) => true,
            Expr::Binop(Binop::And, a, b) => self.entails(a) && self.entails(b),
            Expr::Unop(Unop::Not, inner) => match negate_cmp(inner) {
                Some(neg) => self.entails(&neg),
                None => false,
            },
            Expr::Binop(op, a, b) if op.is_comparison() => {
                // Congruence queries `e % m == 0`.
                if *op == Binop::Eq {
                    if let (Expr::Binop(Binop::Mod, inner, m), Expr::Int(c)) = (&**a, &**b) {
                        if let (Some(li), Expr::Int(m)) = (linearize(inner), m.as_ref()) {
                            if *m > 0 {
                                return self.proves_cong(&li.offset(-*c), *m);
                            }
                        }
                    }
                    if let (Expr::Var(x), Expr::Var(y)) = (&**a, &**b) {
                        if self.refs_equal(*x, *y) {
                            return true;
                        }
                    }
                }
                let (Some(la), Some(lb)) = (linearize(a), linearize(b)) else {
                    return false;
                };
                match op {
                    Binop::Eq => self.proves_eq(&la, &lb),
                    Binop::Le => self.proves_le(&la, &lb),
                    Binop::Lt => self.proves_nonneg(&lb.sub(&la).offset(-1)),
                    Binop::Ge => self.proves_le(&lb, &la),
                    Binop::Gt => self.proves_nonneg(&la.sub(&lb).offset(-1)),
                    Binop::Ne => {
                        self.proves_nonneg(&la.sub(&lb).offset(-1))
                            || self.proves_nonneg(&lb.sub(&la).offset(-1))
                    }
                    _ => false,
                }
            }
            _ => false,
        }
    }
}

/// Negates a comparison: `!(a < b)` → `a >= b`, etc.
fn negate_cmp(e: &Expr) -> Option<Expr> {
    match e {
        Expr::Binop(op, a, b) if op.is_comparison() => {
            let flipped = match op {
                Binop::Eq => Binop::Ne,
                Binop::Ne => Binop::Eq,
                Binop::Lt => Binop::Ge,
                Binop::Le => Binop::Gt,
                Binop::Gt => Binop::Le,
                Binop::Ge => Binop::Lt,
                _ => return None,
            };
            Some(Expr::Binop(flipped, a.clone(), b.clone()))
        }
        Expr::Unop(Unop::Not, inner) => Some((**inner).clone()),
        Expr::Bool(b) => Some(Expr::Bool(!b)),
        _ => None,
    }
}

/// The independent components of one generation's canonical fact rows.
#[derive(Debug, Clone, Default)]
struct FactParts {
    /// Every atom of the rows, sorted.
    atoms: Vec<Atom>,
    /// The union-find over `atoms`, flattened: the part of `atoms[i]`.
    part_of: Vec<usize>,
    parts: Vec<Part>,
    /// Rows with no atom. They belong to no part.
    const_rows: usize,
    /// Whether some constant row is negative (the facts are infeasible).
    neg_const: bool,
    /// Whether every part's `elim` is filled.
    solved: bool,
}

/// One independent component: rows sharing no atom with any other part.
#[derive(Debug, Clone, Default)]
struct Part {
    /// Indices into the canonical rows, ascending.
    rows: Vec<u32>,
    /// The atoms the rows mention, sorted.
    atoms: Vec<Atom>,
    /// FM over this part alone once solved; `None` if it broke the row
    /// cap.
    elim: Option<Elim>,
}

impl FactParts {
    /// Splits `rows` into components by a union-find over their atoms.
    fn split(rows: &[Lin]) -> FactParts {
        let mut atoms: Vec<Atom> = rows.iter().flat_map(|r| r.atoms()).collect();
        atoms.sort_unstable();
        atoms.dedup();
        let index = |a: &Atom| atoms.binary_search(a).expect("collected atom");
        let mut parent: Vec<usize> = (0..atoms.len()).collect();
        fn root(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let (mut const_rows, mut neg_const) = (0, false);
        for r in rows {
            let mut it = r.atoms();
            let Some(first) = it.next() else {
                const_rows += 1;
                neg_const |= r.konst < 0;
                continue;
            };
            let a = root(&mut parent, index(&first));
            for other in it {
                let b = root(&mut parent, index(&other));
                parent[b] = a;
            }
        }
        // Number the parts in order of their smallest atom.
        let mut part_of = vec![usize::MAX; atoms.len()];
        let mut parts: Vec<Part> = Vec::new();
        for i in 0..atoms.len() {
            let r = root(&mut parent, i);
            if part_of[r] == usize::MAX {
                part_of[r] = parts.len();
                parts.push(Part::default());
            }
            part_of[i] = part_of[r];
            parts[part_of[i]].atoms.push(atoms[i]);
        }
        for (i, r) in rows.iter().enumerate() {
            if let Some(first) = r.atoms().next() {
                parts[part_of[index(&first)]].rows.push(i as u32);
            }
        }
        FactParts {
            atoms,
            part_of,
            parts,
            const_rows,
            neg_const,
            solved: false,
        }
    }

    /// Runs FM over every part alone, once per generation.
    fn solve(&mut self, rows: &[Lin]) {
        if self.solved {
            return;
        }
        let mut buf: Vec<Lin> = Vec::new();
        for part in &mut self.parts {
            bigfoot_obs::count!("entail.fm.components");
            buf.clear();
            buf.extend(part.rows.iter().map(|&i| rows[i as usize].clone()));
            part.elim = fm_eliminate(&mut buf, part.atoms.clone());
        }
        self.solved = true;
    }

    /// True if `rows` (the rows this was split from), plus `query` when
    /// given, are infeasible: FM over the query's own component (see the
    /// module docs), or over all rows when the component bound does not
    /// hold. `scratch` is a row buffer kept across queries.
    fn refute(&mut self, rows: &[Lin], query: Option<&Lin>, scratch: &mut Vec<Lin>) -> bool {
        if self.neg_const || query.is_some_and(|r| r.is_const() && r.konst < 0) {
            return true;
        }
        let new_atoms = self.new_atoms(query);
        if self.atoms.len() + new_atoms.len() > FM_MAX_ATOMS {
            bigfoot_obs::count!("static.budget.fm_atoms");
            return false;
        }
        self.solve(rows);
        let verdict = self.refute_split(rows, query, new_atoms, scratch);
        bigfoot_obs::count!("entail.fm.fallbacks", verdict.is_none() as u64);
        verdict.unwrap_or_else(|| {
            scratch.clear();
            scratch.extend_from_slice(rows);
            scratch.extend(query.cloned());
            fm_infeasible(scratch)
        })
    }

    /// The atoms of `query` that no fact mentions.
    fn new_atoms(&self, query: Option<&Lin>) -> Vec<Atom> {
        query
            .into_iter()
            .flat_map(|r| r.atoms())
            .filter(|a| self.atoms.binary_search(a).is_err())
            .collect()
    }

    /// The component path of [`FactParts::refute`] over solved parts;
    /// `None` when the whole-system run must decide instead. `atoms` are
    /// the query's atoms no fact mentions.
    fn refute_split(
        &self,
        rows: &[Lin],
        query: Option<&Lin>,
        mut atoms: Vec<Atom>,
        scratch: &mut Vec<Lin>,
    ) -> Option<bool> {
        let mut touched: Vec<usize> = query
            .into_iter()
            .flat_map(|r| r.atoms())
            .filter_map(|a| self.atoms.binary_search(&a).ok())
            .map(|i| self.part_of[i])
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let (mut held, mut untouched_infeasible) = (self.const_rows, false);
        for (i, part) in self.parts.iter().enumerate() {
            if touched.binary_search(&i).is_err() {
                let elim = part.elim?;
                held += elim.peak;
                untouched_infeasible |= elim.infeasible;
            }
        }
        let Some(query) = query else {
            return (held <= FM_MAX_ROWS).then_some(untouched_infeasible);
        };
        let mut idx: Vec<u32> = Vec::new();
        for &p in &touched {
            idx.extend_from_slice(&self.parts[p].rows);
            atoms.extend_from_slice(&self.parts[p].atoms);
        }
        if touched.len() > 1 {
            idx.sort_unstable();
        }
        atoms.sort_unstable();
        scratch.clear();
        scratch.extend(idx.iter().map(|&i| rows[i as usize].clone()));
        scratch.push(query.clone());
        bigfoot_obs::count!("entail.fm.components");
        let own = fm_eliminate(scratch, atoms)?;
        (held + own.peak <= FM_MAX_ROWS).then_some(own.infeasible || untouched_infeasible)
    }
}

/// Fourier–Motzkin: returns true if the conjunction of `rows` (each
/// `lin >= 0`) is infeasible over the rationals.
///
/// Rational infeasibility implies integer infeasibility, so `true` is
/// always a sound "contradiction" answer. Exceeding the row/atom caps
/// returns `false` (feasible / unknown).
///
/// `rows` is left in an unspecified state; the caller keeps the buffer so
/// its capacity is reused across queries.
fn fm_infeasible(rows: &mut Vec<Lin>) -> bool {
    // Quick constant check.
    if rows.iter().any(|r| r.is_const() && r.konst < 0) {
        return true;
    }
    let mut atoms: Vec<Atom> = rows.iter().flat_map(|r| r.atoms()).collect();
    atoms.sort_unstable();
    atoms.dedup();
    if atoms.len() > FM_MAX_ATOMS {
        return false;
    }
    fm_eliminate(rows, atoms).is_some_and(|e| e.infeasible)
}

/// The outcome of an FM elimination that kept within the row cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Elim {
    /// A negative constant was derived.
    infeasible: bool,
    /// The most rows held at the start or after any completed round.
    peak: usize,
}

/// Eliminates `atoms` (sorted; every atom of `rows`) from `rows`, last atom
/// first. Stops at the first derived negative constant. Returns `None` if
/// a round ends holding more than `FM_MAX_ROWS` rows.
fn fm_eliminate(rows: &mut Vec<Lin>, mut atoms: Vec<Atom>) -> Option<Elim> {
    bigfoot_obs::count!("entail.fm.rows", rows.len());
    let mut peak = rows.len();
    // Partition buffers reused across elimination rounds.
    let mut pos: Vec<(i64, Lin)> = Vec::new(); // c > 0:  c·x + r >= 0  →  x >= -r/c
    let mut neg: Vec<(i64, Lin)> = Vec::new(); // c < 0 rows
    let mut rest: Vec<Lin> = Vec::new();
    while let Some(atom) = atoms.pop() {
        pos.clear();
        neg.clear();
        rest.clear();
        for r in rows.drain(..) {
            match r.coeff(atom) {
                0 => rest.push(r),
                c if c > 0 => pos.push((c, r)),
                // Wrapping, like all `Lin` arithmetic: `i64::MIN` stays.
                c => neg.push((c.wrapping_neg(), r)),
            }
        }
        // Combine each (pos, neg) pair, eliminating `atom`.
        for (cp, rp) in &pos {
            for (cn, rn) in &neg {
                // cp·x + rp' >= 0 and -cn·x + rn' >= 0
                // → cn·rp + cp·rn >= 0 (x eliminated)
                let combined = rp.add_scaled(*cn, rn, *cp);
                debug_assert!(combined.coeff(atom) == 0);
                if combined.is_const() && combined.konst < 0 {
                    return Some(Elim {
                        infeasible: true,
                        peak,
                    });
                }
                if !combined.is_const() {
                    rest.push(combined);
                }
            }
        }
        if rest.len() > FM_MAX_ROWS {
            bigfoot_obs::count!("static.budget.fm_rows");
            return None;
        }
        peak = peak.max(rest.len());
        std::mem::swap(rows, &mut rest);
    }
    Some(Elim {
        infeasible: false,
        peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn expr(src: &str) -> Expr {
        let p = bigfoot_bfj::parse_program(&format!("main {{ q$q = {src}; }}")).unwrap();
        match &p.main.stmts[0].kind {
            bigfoot_bfj::StmtKind::Assign { e, .. } => e.clone(),
            _ => panic!("expected assign"),
        }
    }

    fn kb_with(facts: &[&str]) -> Kb {
        let mut kb = Kb::new();
        for f in facts {
            kb.assume(&expr(f));
        }
        kb
    }

    #[test]
    fn basic_transitivity() {
        let mut kb = kb_with(&["a <= b", "b <= c"]);
        assert!(kb.entails(&expr("a <= c")));
        assert!(!kb.entails(&expr("c <= a")));
    }

    #[test]
    fn equality_substitution() {
        let mut kb = kb_with(&["i == j", "i >= 0"]);
        assert!(kb.entails(&expr("j >= 0")));
        assert!(kb.entails(&expr("j + 1 > 0")));
    }

    #[test]
    fn paper_example_anticipated() {
        // {i < 10} ⊢ bounds for x[0..i] ⊆ x[0..10]: i <= 10.
        let mut kb = kb_with(&["i < 10"]);
        assert!(kb.entails(&expr("i <= 10")));
    }

    #[test]
    fn strict_inequalities_are_integer_tight() {
        let mut kb = kb_with(&["i < j"]);
        assert!(kb.entails(&expr("i + 1 <= j")));
    }

    #[test]
    fn unknowns_are_not_entailed() {
        let mut kb = kb_with(&["a <= b"]);
        assert!(!kb.entails(&expr("a == b")));
        assert!(!kb.entails(&expr("x >= 0")));
    }

    #[test]
    fn negated_comparisons() {
        let mut kb = kb_with(&["!(i < 0)"]);
        assert!(kb.entails(&expr("i >= 0")));
        assert!(kb.entails(&expr("!(i < 0)")));
    }

    #[test]
    fn congruence_facts() {
        let mut kb = kb_with(&["i % 2 == 0"]);
        assert!(kb.entails(&expr("i % 2 == 0")));
        assert!(kb.entails(&expr("(i + 2) % 2 == 0")));
        assert!(kb.entails(&expr("(i + 4) % 2 == 0")));
        assert!(!kb.entails(&expr("(i + 1) % 2 == 0")));
        assert!(!kb.entails(&expr("i % 3 == 0")));
    }

    #[test]
    fn reference_congruence_closure() {
        // x = a.f, y = a.f  ⇒  x == y (the §5 alias example).
        let mut kb = Kb::new();
        let (x, y, a, f) = (
            Sym::intern("x"),
            Sym::intern("y"),
            Sym::intern("a"),
            Sym::intern("f"),
        );
        kb.assume_alias(x, AliasRhs::Field { base: a, field: f });
        kb.assume_alias(y, AliasRhs::Field { base: a, field: f });
        assert!(kb.refs_equal(x, y));
        assert!(!kb.refs_equal(x, a));
    }

    #[test]
    fn nested_congruence_via_union() {
        // b = a, x = a.f, y = b.f  ⇒  x == y.
        let mut kb = Kb::new();
        let (a, b, x, y, f) = (
            Sym::intern("ca"),
            Sym::intern("cb"),
            Sym::intern("cx"),
            Sym::intern("cy"),
            Sym::intern("cf"),
        );
        kb.assume_var_eq(b, a);
        kb.assume_alias(x, AliasRhs::Field { base: a, field: f });
        kb.assume_alias(y, AliasRhs::Field { base: b, field: f });
        assert!(kb.refs_equal(x, y));
    }

    #[test]
    fn element_alias_congruence() {
        // x = a[i], y = a[j], i == j  ⇒  x == y.
        let mut kb = kb_with(&["i == j"]);
        let (x, y, a) = (Sym::intern("ex"), Sym::intern("ey"), Sym::intern("ea"));
        let i = linearize(&expr("i")).unwrap();
        let j = linearize(&expr("j")).unwrap();
        kb.assume_var_eq(Sym::intern("i"), Sym::intern("j"));
        kb.assume_alias(x, AliasRhs::Elem { base: a, index: i });
        kb.assume_alias(y, AliasRhs::Elem { base: a, index: j });
        assert!(kb.refs_equal(x, y));
    }

    #[test]
    fn opaque_terms_match_syntactically() {
        let mut kb = kb_with(&["lo == n / 2"]);
        assert!(kb.entails(&expr("lo == n / 2")));
        assert!(!kb.entails(&expr("lo == n / 3")));
    }

    #[test]
    fn length_facts() {
        let mut kb = kb_with(&["n == a.length", "i < n"]);
        assert!(kb.entails(&expr("i < a.length")));
    }

    #[test]
    fn infeasible_combination_detected() {
        let mut kb = kb_with(&["x >= 5", "x <= 3"]);
        // From contradictory facts everything follows.
        assert!(kb.entails(&expr("0 == 1")));
    }

    #[test]
    fn ne_entailed_by_strict_order() {
        let mut kb = kb_with(&["a < b"]);
        assert!(kb.entails(&expr("a != b")));
    }

    // ---------------- the component split ----------------

    /// `n` fresh atoms in elimination order: FM eliminates the last atom
    /// of a sorted set first, so `atoms(n)[0]` goes first.
    fn atoms(n: usize) -> Vec<Atom> {
        let mut v: Vec<Atom> = (0..n)
            .map(|i| Atom::Var(Sym::intern(&format!("fm_atom_{i}"))))
            .collect();
        v.sort_unstable();
        v.reverse();
        v
    }

    fn row(konst: i64, terms: &[(Atom, i64)]) -> Lin {
        Lin::from_terms(konst, terms.iter().copied())
    }

    /// The component verdict next to the whole-system one, and whether
    /// the split decided without falling back.
    fn both(facts: &[Lin], query: Option<&Lin>) -> (bool, bool, bool) {
        let mut all: Vec<Lin> = facts.to_vec();
        all.extend(query.cloned());
        let whole = fm_infeasible(&mut all);
        let mut parts = FactParts::split(facts);
        let mut scratch = Vec::new();
        let split = parts.refute(facts, query, &mut scratch);
        let decided = parts.solved
            && parts
                .refute_split(facts, query, parts.new_atoms(query), &mut scratch)
                .is_some();
        (split, whole, decided)
    }

    /// `count` rows over `(hi, lo)` whose elimination of `hi` yields
    /// `count²` rows over `lo`: over the row cap once `count² > 600`.
    fn blow_up(hi: Atom, lo: Atom, count: i64) -> Vec<Lin> {
        let mut rows = Vec::new();
        for k in 0..count {
            rows.push(row(k, &[(hi, 1), (lo, 1)]));
            rows.push(row(k, &[(hi, -1), (lo, 1)]));
        }
        rows
    }

    #[test]
    fn independent_parts_are_found_in_row_order() {
        let a = atoms(4);
        let facts = vec![
            row(0, &[(a[0], 1), (a[1], -1)]),
            row(3, &[]),
            row(0, &[(a[2], 1)]),
            row(1, &[(a[1], 1)]),
            row(0, &[(a[3], 2), (a[2], -1)]),
        ];
        let parts = FactParts::split(&facts);
        assert_eq!(parts.parts.len(), 2);
        assert_eq!(parts.const_rows, 1);
        assert!(!parts.neg_const);
        let mut rows: Vec<Vec<u32>> = parts.parts.iter().map(|p| p.rows.clone()).collect();
        rows.sort();
        assert_eq!(rows, vec![vec![0, 3], vec![2, 4]]);
        for p in &parts.parts {
            assert!(p.atoms.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn split_decides_ordinary_queries_without_fallback() {
        let a = atoms(4);
        // a0 >= 1, a1 >= a0, a2 - a3 >= 0: is a1 >= 1? Refute a1 <= 0.
        let facts = vec![
            row(-1, &[(a[0], 1)]),
            row(0, &[(a[1], 1), (a[0], -1)]),
            row(0, &[(a[2], 1), (a[3], -1)]),
        ];
        let q = row(0, &[(a[1], -1)]);
        assert_eq!(both(&facts, Some(&q)), (true, true, true));
        let q = row(-1, &[(a[2], -1)]);
        assert_eq!(both(&facts, Some(&q)), (false, false, true));
        assert_eq!(both(&facts, None), (false, false, true));
    }

    #[test]
    fn a_part_over_the_row_cap_falls_back_to_the_whole_system() {
        let a = atoms(3);
        let contradiction = |x: Atom| vec![row(-1, &[(x, 1)]), row(0, &[(x, -1)])];
        // The contradiction's atom goes first: the whole system finds it
        // before the other part's round breaks the cap.
        let mut facts = contradiction(a[0]);
        facts.extend(blow_up(a[1], a[2], 25));
        assert_eq!(both(&facts, None), (true, true, false));
        let q = row(0, &[(a[2], 1)]);
        assert_eq!(both(&facts, Some(&q)), (true, true, false));
        // The contradiction's atom goes last: the cap fires first, and the
        // whole system answers "unknown", which the split must repeat.
        let mut facts = blow_up(a[0], a[1], 25);
        facts.extend(contradiction(a[2]));
        assert_eq!(both(&facts, None), (false, false, false));
        let q = row(0, &[(a[1], 1)]);
        assert_eq!(both(&facts, Some(&q)), (false, false, false));
        // A query over the contradiction's part alone still falls back.
        let q = row(0, &[(a[2], 1)]);
        assert_eq!(both(&facts, Some(&q)), (false, false, false));
    }

    #[test]
    fn parts_within_the_cap_alone_but_not_together_fall_back() {
        let a = atoms(5);
        // Two parts of peak 400 each: 800 rows held together.
        let mut facts = blow_up(a[0], a[1], 20);
        facts.extend(blow_up(a[2], a[3], 20));
        facts.push(row(-1, &[(a[4], 1)]));
        facts.push(row(0, &[(a[4], -1)]));
        let (split, whole, decided) = both(&facts, None);
        assert_eq!(split, whole);
        assert!(!decided);
    }

    #[test]
    fn the_atom_cap_counts_fact_and_query_atoms() {
        let a = atoms(FM_MAX_ATOMS + 1);
        let chain = |n: usize| -> Vec<Lin> {
            let mut rows = vec![row(-1, &[(a[0], 1)])];
            rows.extend((1..n).map(|i| row(0, &[(a[i], 1), (a[i - 1], -1)])));
            rows
        };
        // FM_MAX_ATOMS atoms: the chain entails a[last] >= 1.
        let facts = chain(FM_MAX_ATOMS);
        let q = row(0, &[(a[FM_MAX_ATOMS - 1], -1)]);
        assert_eq!(both(&facts, Some(&q)), (true, true, true));
        // One atom more, from the facts or from the query: "unknown",
        // decided before any elimination.
        let q25 = row(0, &[(a[FM_MAX_ATOMS - 1], -1), (a[FM_MAX_ATOMS], 1)]);
        assert_eq!(both(&facts, Some(&q25)), (false, false, false));
        let facts = chain(FM_MAX_ATOMS + 1);
        assert_eq!(both(&facts, Some(&q)), (false, false, false));
        // A negative constant row is checked before the atom cap.
        let mut facts = chain(FM_MAX_ATOMS + 1);
        facts.push(row(-2, &[]));
        assert_eq!(both(&facts, Some(&q)), (true, true, false));
    }

    fn coeff() -> impl Strategy<Value = i64> {
        prop_oneof![
            1i64..65,
            -64i64..0,
            1i64..65,
            -64i64..0,
            1i64..4,
            -3i64..0,
            Just(i64::MAX),
            Just(i64::MIN),
            Just(i64::MIN + 1),
        ]
    }

    /// A row as `(konst, [(atom slot, coefficient)])`; no terms makes a
    /// constant row, mostly a non-negative one. A row's atoms lie close
    /// together, so the rows form several components.
    fn raw_row() -> impl Strategy<Value = (i64, Vec<(usize, i64)>)> {
        let konst = || prop_oneof![-8i64..9, -8i64..9, -8i64..9, Just(i64::MIN), Just(i64::MAX)];
        let terms = || {
            (
                0usize..26,
                prop::collection::vec((0usize..3, coeff()), 1..4),
            )
                .prop_map(|(base, terms)| terms.into_iter().map(|(d, c)| (base + d, c)).collect())
        };
        let constant = prop_oneof![0i64..9, 0i64..9, 0i64..9, -2i64..0, Just(i64::MAX)];
        prop_oneof![
            (konst(), terms()),
            (konst(), terms()),
            (konst(), terms()),
            (konst(), terms()),
            (konst(), terms()),
            (konst(), terms()),
            (konst(), terms()),
            constant.prop_map(|k| (k, Vec::new())),
        ]
    }

    fn build(pool: &[Atom], n: usize, (konst, terms): &(i64, Vec<(usize, i64)>)) -> Lin {
        Lin::from_terms(*konst, terms.iter().map(|&(i, c)| (pool[i % n], c)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The component path answers exactly as FM over all rows.
        #[test]
        fn split_matches_whole_system_fm(
            n in 1usize..27,
            facts in prop::collection::vec(raw_row(), 1..41),
            query in raw_row(),
            ask in 0u32..4,
        ) {
            let pool = atoms(26);
            let facts: Vec<Lin> = facts.iter().map(|r| build(&pool, n, r)).collect();
            let query = build(&pool, n, &query);
            let query = (ask > 0).then_some(&query);
            let (split, whole, _) = both(&facts, query);
            prop_assert_eq!(split, whole, "facts {:?} query {:?}", facts, query);
        }
    }
}
