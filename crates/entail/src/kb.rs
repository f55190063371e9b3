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
        self.canon_rows = rows;
        self.canon_gen = Some(self.generation);
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
        self.refresh_canon_rows();
        // Refute facts ∧ (q <= -1), i.e. facts ∧ (-q - 1 >= 0).
        let mut rows = std::mem::take(&mut self.fm_scratch);
        rows.clear();
        rows.extend_from_slice(&self.canon_rows);
        rows.push(q.scale(-1).offset(-1));
        let v = fm_infeasible(&mut rows);
        self.fm_scratch = rows;
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
        self.refresh_canon_rows();
        let mut rows = std::mem::take(&mut self.fm_scratch);
        rows.clear();
        rows.extend_from_slice(&self.canon_rows);
        let v = fm_infeasible(&mut rows);
        self.fm_scratch = rows;
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
    let mut atoms: Vec<Atom> = {
        let mut s: Vec<Atom> = rows.iter().flat_map(|r| r.atoms()).collect();
        s.sort();
        s.dedup();
        s
    };
    if atoms.len() > FM_MAX_ATOMS {
        return false;
    }
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
                c => neg.push((-c, r)),
            }
        }
        // Combine each (pos, neg) pair, eliminating `atom`.
        for (cp, rp) in &pos {
            for (cn, rn) in &neg {
                // cp·x + rp' >= 0 and -cn·x + rn' >= 0
                // → cn·rp + cp·rn >= 0 (x eliminated)
                let combined = rp.scale(*cn).add(&rn.scale(*cp));
                debug_assert!(combined.coeff(atom) == 0);
                if combined.is_const() && combined.konst < 0 {
                    return true;
                }
                if !combined.is_const() {
                    rest.push(combined);
                }
            }
        }
        if rest.len() > FM_MAX_ROWS {
            return false;
        }
        std::mem::swap(rows, &mut rest);
        // Drop rows mentioning already-eliminated atoms? None remain by
        // construction: we eliminate from the full current set each round.
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
