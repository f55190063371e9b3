//! Normalized linear expressions over program variables.
//!
//! The entailment engine reasons about BFJ expressions by normalizing them
//! into linear combinations of *atoms*. Genuinely non-linear subexpressions
//! (`x*y`, `n/2`, `i%3`) become opaque atoms identified by their printed
//! form, so syntactically identical non-linear terms still compare equal —
//! exactly the precision the check-placement analysis needs (e.g. to match
//! `a.length/2` across two program points).

use bigfoot_bfj::{pretty_expr, Binop, Expr, Sym, Unop};

/// An atom of a linear expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom {
    /// A program variable.
    Var(Sym),
    /// The length of the array in a variable.
    Len(Sym),
    /// An opaque non-linear term, keyed by its canonical rendering.
    Opaque(Sym),
}

impl std::fmt::Display for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Atom::Var(x) => write!(f, "{x}"),
            Atom::Len(a) => write!(f, "{a}.length"),
            Atom::Opaque(s) => write!(f, "{s}"),
        }
    }
}

/// A linear expression `Σ cᵢ·atomᵢ + k` with integer coefficients.
///
/// The terms are a vector sorted by atom with no atom twice, so ordering,
/// equality and hashing agree with those of a `BTreeMap<Atom, i64>` of the
/// same terms. Arithmetic wraps on overflow. A coefficient that wraps to
/// zero under [`Lin::scale`] stays as a term; [`Lin::add`] drops a zero
/// only at the atoms of its right operand.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lin {
    terms: Vec<(Atom, i64)>,
    /// The constant offset.
    pub konst: i64,
}

impl Lin {
    /// The constant expression `k`.
    pub fn constant(k: i64) -> Lin {
        Lin {
            terms: Vec::new(),
            konst: k,
        }
    }

    /// The expression `1·atom`.
    pub fn atom(a: Atom) -> Lin {
        Lin {
            terms: vec![(a, 1)],
            konst: 0,
        }
    }

    /// The variable expression `x`.
    pub fn var(x: Sym) -> Lin {
        Lin::atom(Atom::Var(x))
    }

    /// `Σ cᵢ·atomᵢ + konst` from terms in any order: coefficients of a
    /// repeated atom are summed (wrapping) and atoms whose sum is zero
    /// are dropped.
    pub fn from_terms(konst: i64, terms: impl IntoIterator<Item = (Atom, i64)>) -> Lin {
        let mut terms: Vec<(Atom, i64)> = terms.into_iter().collect();
        terms.sort_by_key(|&(a, _)| a);
        terms.dedup_by(|(a, c), (kept, sum)| {
            let same = a == kept;
            if same {
                *sum = sum.wrapping_add(*c);
            }
            same
        });
        terms.retain(|&(_, c)| c != 0);
        Lin { terms, konst }
    }

    /// The terms `(atom, coefficient)`, sorted by atom.
    pub fn terms(&self) -> &[(Atom, i64)] {
        &self.terms
    }

    /// The coefficient of `a` (0 when absent).
    pub fn coeff(&self, a: Atom) -> i64 {
        match self.terms.binary_search_by_key(&a, |&(b, _)| b) {
            Ok(i) => self.terms[i].1,
            Err(_) => 0,
        }
    }

    /// True if the expression is a constant.
    pub fn is_const(&self) -> bool {
        self.terms.is_empty()
    }

    /// The constant value, if constant.
    pub fn as_const(&self) -> Option<i64> {
        self.is_const().then_some(self.konst)
    }

    /// `self + other`.
    pub fn add(&self, other: &Lin) -> Lin {
        let (a, b) = (&self.terms, &other.terms);
        let mut terms = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let ((x, cx), (y, cy)) = (a[i], b[j]);
            match x.cmp(&y) {
                std::cmp::Ordering::Less => {
                    terms.push((x, cx));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    if cy != 0 {
                        terms.push((y, cy));
                    }
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let c = cx.wrapping_add(cy);
                    if c != 0 {
                        terms.push((x, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        terms.extend_from_slice(&a[i..]);
        terms.extend(b[j..].iter().filter(|&&(_, c)| c != 0));
        Lin {
            terms,
            konst: self.konst.wrapping_add(other.konst),
        }
    }

    /// `a·self + b·other`, built in one merge: the same terms as
    /// `self.scale(a).add(&other.scale(b))`, zero coefficients included.
    pub fn add_scaled(&self, a: i64, other: &Lin, b: i64) -> Lin {
        if a == 0 || b == 0 {
            return self.scale(a).add(&other.scale(b));
        }
        let (x, y) = (&self.terms, &other.terms);
        let mut terms = Vec::with_capacity(x.len() + y.len());
        let (mut i, mut j) = (0, 0);
        while i < x.len() && j < y.len() {
            let ((p, cp), (q, cq)) = (x[i], y[j]);
            match p.cmp(&q) {
                std::cmp::Ordering::Less => {
                    terms.push((p, cp.wrapping_mul(a)));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    let c = cq.wrapping_mul(b);
                    if c != 0 {
                        terms.push((q, c));
                    }
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let c = cp.wrapping_mul(a).wrapping_add(cq.wrapping_mul(b));
                    if c != 0 {
                        terms.push((p, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        terms.extend(x[i..].iter().map(|&(p, cp)| (p, cp.wrapping_mul(a))));
        terms.extend(
            y[j..]
                .iter()
                .map(|&(q, cq)| (q, cq.wrapping_mul(b)))
                .filter(|&(_, c)| c != 0),
        );
        Lin {
            terms,
            konst: self
                .konst
                .wrapping_mul(a)
                .wrapping_add(other.konst.wrapping_mul(b)),
        }
    }

    /// `self - other`.
    pub fn sub(&self, other: &Lin) -> Lin {
        self.add(&other.scale(-1))
    }

    /// `c · self`.
    pub fn scale(&self, c: i64) -> Lin {
        if c == 0 {
            return Lin::constant(0);
        }
        Lin {
            terms: self
                .terms
                .iter()
                .map(|&(a, k)| (a, k.wrapping_mul(c)))
                .collect(),
            konst: self.konst.wrapping_mul(c),
        }
    }

    /// `self + k`.
    pub fn offset(&self, k: i64) -> Lin {
        let mut out = self.clone();
        out.konst = out.konst.wrapping_add(k);
        out
    }

    /// The atoms mentioned.
    pub fn atoms(&self) -> impl Iterator<Item = Atom> + '_ {
        self.terms.iter().map(|&(a, _)| a)
    }

    /// Reconstructs a BFJ expression denoting this value.
    pub fn to_expr(&self) -> Expr {
        let mut acc: Option<Expr> = None;
        for &(a, c) in &self.terms {
            let base = match a {
                Atom::Var(x) => Expr::Var(x),
                Atom::Len(x) => Expr::Len(x),
                // Opaque atoms are keyed by their rendering, which is
                // valid expression syntax; re-parse to recover the term.
                Atom::Opaque(s) => bigfoot_bfj::parse_expr(s.as_str()).unwrap_or(Expr::Var(s)),
            };
            let term = match c {
                1 => base,
                -1 => Expr::Unop(Unop::Neg, Box::new(base)),
                c => Expr::Binop(Binop::Mul, Box::new(Expr::Int(c)), Box::new(base)),
            };
            acc = Some(match acc {
                None => term,
                Some(prev) => Expr::add(prev, term),
            });
        }
        match acc {
            None => Expr::Int(self.konst),
            Some(e) if self.konst == 0 => e,
            Some(e) if self.konst > 0 => Expr::add(e, Expr::Int(self.konst)),
            Some(e) => Expr::sub(e, Expr::Int(-self.konst)),
        }
    }
}

impl std::fmt::Display for Lin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", pretty_expr(&self.to_expr()))
    }
}

/// Normalizes a BFJ expression into a [`Lin`], introducing opaque atoms for
/// non-linear subterms. Returns `None` for boolean expressions.
pub fn linearize(e: &Expr) -> Option<Lin> {
    match e {
        Expr::Int(n) => Some(Lin::constant(*n)),
        Expr::Bool(_) | Expr::Null => None,
        Expr::Var(x) => Some(Lin::var(*x)),
        Expr::Len(a) => Some(Lin::atom(Atom::Len(*a))),
        Expr::Unop(Unop::Neg, a) => Some(linearize(a)?.scale(-1)),
        Expr::Unop(Unop::Not, _) => None,
        Expr::Binop(op, a, b) => match op {
            Binop::Add => Some(linearize(a)?.add(&linearize(b)?)),
            Binop::Sub => Some(linearize(a)?.sub(&linearize(b)?)),
            Binop::Mul => {
                let la = linearize(a)?;
                let lb = linearize(b)?;
                match (la.as_const(), lb.as_const()) {
                    (Some(c), _) => Some(lb.scale(c)),
                    (_, Some(c)) => Some(la.scale(c)),
                    _ => Some(Lin::atom(opaque(e))),
                }
            }
            Binop::Div | Binop::Mod => {
                let la = linearize(a)?;
                let lb = linearize(b)?;
                match (la.as_const(), lb.as_const()) {
                    (Some(x), Some(y)) if y != 0 => Some(Lin::constant(match op {
                        Binop::Div => x / y,
                        _ => x % y,
                    })),
                    _ => Some(Lin::atom(opaque(e))),
                }
            }
            _ => None, // comparisons and boolean connectives
        },
    }
}

fn opaque(e: &Expr) -> Atom {
    Atom::Opaque(Sym::intern(&pretty_expr(e)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lin(src: &str) -> Lin {
        // Parse via a tiny program wrapper.
        let p = bigfoot_bfj::parse_program(&format!("main {{ q$ = {src}; }}")).unwrap();
        match &p.main.stmts[0].kind {
            bigfoot_bfj::StmtKind::Assign { e, .. } => linearize(e).unwrap(),
            _ => panic!("expected assign"),
        }
    }

    #[test]
    fn linear_normalization() {
        assert_eq!(lin("1 + 2 * 3"), Lin::constant(7));
        assert_eq!(lin("x + x"), lin("2 * x"));
        assert_eq!(lin("x - x"), Lin::constant(0));
        assert_eq!(lin("(x + 1) - (x - 1)"), Lin::constant(2));
        assert_eq!(lin("3 * (x + y) - 2 * y"), lin("3 * x + y"));
    }

    #[test]
    fn opaque_terms_compare_syntactically() {
        assert_eq!(lin("n / 2"), lin("n / 2"));
        assert_ne!(lin("n / 2"), lin("n / 3"));
        assert_eq!(lin("x * y + 1"), lin("x * y").offset(1));
    }

    #[test]
    fn length_atoms() {
        let l = lin("a.length - 1");
        assert_eq!(l.konst, -1);
        assert!(l.atoms().any(|a| matches!(a, Atom::Len(_))));
    }

    #[test]
    fn to_expr_roundtrip() {
        for src in ["x + 1", "2 * x - 3", "x + y", "0", "a.length"] {
            let l = lin(src);
            let back = linearize(&l.to_expr()).unwrap();
            assert_eq!(l, back, "roundtrip of {src}");
        }
    }

    #[test]
    fn negation_scales() {
        assert_eq!(lin("-x").scale(-1), lin("x"));
    }
}
