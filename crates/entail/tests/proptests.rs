//! Property-based tests for the entailment engine: every symbolic answer
//! is validated against brute-force evaluation on concrete assignments,
//! and [`Lin`] arithmetic against a `BTreeMap` reference model.

use bigfoot_bfj::{parse_expr, Expr, Sym};
use bigfoot_entail::{coalesce, covered_by_union, linearize, subsumes, Atom, Kb, Lin, SymRange};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// A concrete strided range over small integers.
#[derive(Debug, Clone, Copy)]
struct CRange {
    lo: i64,
    hi: i64,
    step: i64,
}

impl CRange {
    fn indices(&self) -> BTreeSet<i64> {
        let mut s = BTreeSet::new();
        let mut i = self.lo;
        while i < self.hi {
            s.insert(i);
            i += self.step;
        }
        s
    }

    fn sym(&self) -> SymRange {
        SymRange {
            lo: Lin::constant(self.lo),
            hi: Lin::constant(self.hi),
            step: self.step,
        }
    }
}

fn crange() -> impl Strategy<Value = CRange> {
    (-8i64..24, -8i64..24, 1i64..5).prop_map(|(lo, hi, step)| CRange { lo, hi, step })
}

proptest! {
    /// `subsumes` never claims containment that concrete enumeration
    /// refutes.
    #[test]
    fn subsumes_is_sound(a in crange(), b in crange()) {
        let mut kb = Kb::new();
        if subsumes(&mut kb, &a.sym(), &b.sym()) {
            prop_assert!(b.indices().is_subset(&a.indices()),
                "claimed {:?} ⊇ {:?}", a, b);
        }
    }

    /// `covered_by_union` never claims coverage that enumeration refutes.
    #[test]
    fn union_coverage_is_sound(q in crange(), facts in prop::collection::vec(crange(), 0..4)) {
        let mut kb = Kb::new();
        let syms: Vec<SymRange> = facts.iter().map(CRange::sym).collect();
        if covered_by_union(&mut kb, &q.sym(), &syms) {
            let mut union = BTreeSet::new();
            for f in &facts {
                union.extend(f.indices());
            }
            prop_assert!(q.indices().is_subset(&union),
                "claimed {:?} ⊆ ∪{:?}", q, facts);
        }
    }

    /// `coalesce` produces a range denoting *exactly* the union (both
    /// inclusions — this is the address-precision-critical property).
    #[test]
    fn coalesce_is_exact(facts in prop::collection::vec(crange(), 1..4)) {
        let mut kb = Kb::new();
        let syms: Vec<SymRange> = facts.iter().map(CRange::sym).collect();
        if let Some(merged) = coalesce(&mut kb, &syms) {
            let got = CRange {
                lo: merged.lo.as_const().expect("const"),
                hi: merged.hi.as_const().expect("const"),
                step: merged.step,
            }
            .indices();
            let mut want = BTreeSet::new();
            for f in &facts {
                want.extend(f.indices());
            }
            prop_assert_eq!(got, want, "coalesce of {:?}", facts);
        }
    }

    /// Kb entailment of comparisons is sound w.r.t. concrete valuations:
    /// if facts hold under an assignment, an entailed query holds too.
    #[test]
    fn entailment_is_sound(
        xv in -20i64..20,
        yv in -20i64..20,
        zv in -20i64..20,
        fact_pick in prop::collection::vec(0usize..6, 0..4),
        query_pick in 0usize..6,
    ) {
        let pool = [
            "x <= y", "y <= z", "x == y + 1", "z >= 0", "x < z", "y != z",
        ];
        let eval = |src: &str| -> bool {
            let e = parse_expr(src).unwrap();
            eval_bool(&e, xv, yv, zv)
        };
        let facts: Vec<&str> = fact_pick.iter().map(|i| pool[*i]).collect();
        // Only consider assignments under which every fact is true.
        prop_assume!(facts.iter().all(|f| eval(f)));
        let mut kb = Kb::new();
        for f in &facts {
            kb.assume(&parse_expr(f).unwrap());
        }
        let q = pool[query_pick];
        if kb.entails(&parse_expr(q).unwrap()) {
            prop_assert!(eval(q), "facts {:?} entailed {:?} but it is false at x={xv},y={yv},z={zv}", facts, q);
        }
    }

    /// Linearization agrees with direct evaluation.
    #[test]
    fn linearize_preserves_value(a in -10i64..10, b in -10i64..10, c in 1i64..5) {
        let src = format!("{a} * x + {b} - x * {c}");
        let e = parse_expr(&src).unwrap();
        let l = linearize(&e).expect("linear");
        for xv in -5..5 {
            let direct = a * xv + b - xv * c;
            let via_lin = eval_int(&l.to_expr(), xv);
            prop_assert_eq!(direct, via_lin);
        }
    }
}

fn eval_int(e: &Expr, xv: i64) -> i64 {
    use bigfoot_bfj::{Binop, Unop};
    match e {
        Expr::Int(n) => *n,
        Expr::Var(v) if v.as_str() == "x" => xv,
        Expr::Unop(Unop::Neg, a) => -eval_int(a, xv),
        Expr::Binop(op, a, b) => {
            let (a, b) = (eval_int(a, xv), eval_int(b, xv));
            match op {
                Binop::Add => a + b,
                Binop::Sub => a - b,
                Binop::Mul => a * b,
                _ => panic!("unexpected op"),
            }
        }
        other => panic!("unexpected expr {other:?}"),
    }
}

fn eval_bool(e: &Expr, xv: i64, yv: i64, zv: i64) -> bool {
    use bigfoot_bfj::Binop;
    let val = |v: &Expr| -> i64 {
        match v {
            Expr::Int(n) => *n,
            Expr::Var(s) => match s.as_str() {
                "x" => xv,
                "y" => yv,
                "z" => zv,
                other => panic!("unexpected var {other}"),
            },
            Expr::Binop(Binop::Add, a, b) => {
                let (a, b) = (val_helper(a, xv, yv, zv), val_helper(b, xv, yv, zv));
                a + b
            }
            other => panic!("unexpected term {other:?}"),
        }
    };
    match e {
        Expr::Binop(op, a, b) => {
            let (a, b) = (val(a), val(b));
            match op {
                Binop::Le => a <= b,
                Binop::Lt => a < b,
                Binop::Ge => a >= b,
                Binop::Gt => a > b,
                Binop::Eq => a == b,
                Binop::Ne => a != b,
                other => panic!("unexpected cmp {other:?}"),
            }
        }
        other => panic!("unexpected bool {other:?}"),
    }
}

fn val_helper(e: &Expr, xv: i64, yv: i64, zv: i64) -> i64 {
    match e {
        Expr::Int(n) => *n,
        Expr::Var(s) => match s.as_str() {
            "x" => xv,
            "y" => yv,
            "z" => zv,
            other => panic!("unexpected var {other}"),
        },
        other => panic!("unexpected term {other:?}"),
    }
}

// ---------------- Lin against a BTreeMap reference model ----------------

/// The reference model for [`Lin`]: the same terms in a `BTreeMap`, with
/// the map-based arithmetic `Lin` must agree with, wrapping cases included.
/// Field order matches `Lin`'s, so the derived orderings are comparable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct MapLin {
    terms: BTreeMap<Atom, i64>,
    konst: i64,
}

impl MapLin {
    fn constant(k: i64) -> MapLin {
        MapLin {
            terms: BTreeMap::new(),
            konst: k,
        }
    }

    fn atom(a: Atom) -> MapLin {
        MapLin {
            terms: BTreeMap::from([(a, 1)]),
            konst: 0,
        }
    }

    /// Adds term by term; a sum that reaches zero drops its atom.
    fn add(&self, other: &MapLin) -> MapLin {
        let mut out = self.clone();
        out.konst = out.konst.wrapping_add(other.konst);
        for (a, c) in &other.terms {
            let e = out.terms.entry(*a).or_insert(0);
            *e = e.wrapping_add(*c);
            if *e == 0 {
                out.terms.remove(a);
            }
        }
        out
    }

    /// Scales every coefficient, keeping those that wrap to zero.
    fn scale(&self, c: i64) -> MapLin {
        if c == 0 {
            return MapLin::constant(0);
        }
        MapLin {
            terms: self
                .terms
                .iter()
                .map(|(a, k)| (*a, k.wrapping_mul(c)))
                .collect(),
            konst: self.konst.wrapping_mul(c),
        }
    }

    fn sub(&self, other: &MapLin) -> MapLin {
        self.add(&other.scale(-1))
    }

    fn offset(&self, k: i64) -> MapLin {
        MapLin {
            terms: self.terms.clone(),
            konst: self.konst.wrapping_add(k),
        }
    }

    fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.konst)
    }
}

fn atoms() -> [Atom; 5] {
    [
        Atom::Var(Sym::intern("lin_x")),
        Atom::Var(Sym::intern("lin_y")),
        Atom::Len(Sym::intern("lin_x")),
        Atom::Len(Sym::intern("lin_a")),
        Atom::Opaque(Sym::intern("lin_x * lin_y")),
    ]
}

/// Coefficients and constants: small values plus the wrapping edges.
fn coeff() -> BoxedStrategy<i64> {
    prop_oneof![
        -4i64..5,
        Just(i64::MIN),
        Just(i64::MAX),
        Just(i64::MIN + 1),
        Just(1i64 << 62),
        Just(-(1i64 << 62)),
        Just(2),
        Just(-1),
    ]
}

/// A `Lin` and its model, built from the constant `k` by adding
/// `coeff · atom` for each `(atom index, coeff)` and then scaling by `s`.
/// Scaling by a wrapping factor leaves zero-coefficient terms behind.
fn build(k: i64, terms: &[(usize, i64)], s: i64) -> (Lin, MapLin) {
    let atoms = atoms();
    let mut lin = Lin::constant(k);
    let mut model = MapLin::constant(k);
    for &(i, c) in terms {
        let a = atoms[i % atoms.len()];
        lin = lin.add(&Lin::atom(a).scale(c));
        model = model.add(&MapLin::atom(a).scale(c));
    }
    (lin.scale(s), model.scale(s))
}

/// The inputs of [`build`]: constant, `(atom index, coeff)` terms, scale.
type LinParts = (i64, Vec<(usize, i64)>, i64);

fn lin_parts() -> BoxedStrategy<LinParts> {
    (
        coeff(),
        prop::collection::vec((0usize..5, coeff()), 0..6),
        prop_oneof![Just(1i64), Just(-1), Just(2), Just(4), coeff()],
    )
        .boxed()
}

/// True if `lin` has exactly the model's terms and constant.
fn agrees(lin: &Lin, model: &MapLin) -> bool {
    let terms: Vec<(Atom, i64)> = model.terms.iter().map(|(a, c)| (*a, *c)).collect();
    lin.terms() == terms.as_slice() && lin.konst == model.konst
}

fn std_hash<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `add`, `sub`, `scale` and `offset` agree with the map model term
    /// for term, zero-coefficient terms and wrapping included.
    #[test]
    fn lin_arithmetic_matches_map_model(a in lin_parts(), b in lin_parts(), c in coeff()) {
        let (la, ma) = build(a.0, &a.1, a.2);
        let (lb, mb) = build(b.0, &b.1, b.2);
        prop_assert!(agrees(&la, &ma), "{:?} vs {:?}", la, ma);
        prop_assert!(agrees(&la.add(&lb), &ma.add(&mb)), "add {:?} {:?}", la, lb);
        prop_assert!(agrees(&la.sub(&lb), &ma.sub(&mb)), "sub {:?} {:?}", la, lb);
        prop_assert!(agrees(&la.scale(c), &ma.scale(c)), "scale {:?} by {}", la, c);
        prop_assert!(agrees(&la.offset(c), &ma.offset(c)), "offset {:?} by {}", la, c);
        let (fused, split) = (la.add_scaled(c, &lb, b.2), la.scale(c).add(&lb.scale(b.2)));
        prop_assert!(fused.terms() == split.terms() && fused.konst == split.konst,
            "add_scaled {:?} {} {:?} {}", la, c, lb, b.2);
    }

    /// `coeff`, `as_const` and `atoms` read the same terms as the model.
    #[test]
    fn lin_accessors_match_map_model(a in lin_parts()) {
        let (la, ma) = build(a.0, &a.1, a.2);
        for atom in atoms() {
            prop_assert_eq!(la.coeff(atom), ma.terms.get(&atom).copied().unwrap_or(0));
        }
        prop_assert_eq!(la.as_const(), ma.as_const());
        prop_assert_eq!(la.atoms().collect::<Vec<_>>(), ma.terms.keys().copied().collect::<Vec<_>>());
    }

    /// `Eq`, `Ord` and `Hash` of two `Lin`s agree with those of their
    /// models.
    #[test]
    fn lin_order_and_hash_match_map_model(a in lin_parts(), b in lin_parts()) {
        let (la, ma) = build(a.0, &a.1, a.2);
        let (lb, mb) = build(b.0, &b.1, b.2);
        prop_assert_eq!(la == lb, ma == mb);
        prop_assert_eq!(la.cmp(&lb), ma.cmp(&mb));
        prop_assert_eq!(std_hash(&la), std_hash(&ma));
    }

    /// `from_terms` sums repeated atoms (wrapping) and drops zero sums.
    #[test]
    fn lin_from_terms_matches_repeated_add(k in coeff(), terms in prop::collection::vec((0usize..5, coeff()), 0..8)) {
        let atoms = atoms();
        let pairs: Vec<(Atom, i64)> = terms.iter().map(|&(i, c)| (atoms[i], c)).collect();
        let mut model = MapLin::constant(k);
        for &(a, c) in &pairs {
            model = model.add(&MapLin::atom(a).scale(c));
        }
        prop_assert!(agrees(&Lin::from_terms(k, pairs), &model));
    }
}

/// The wrapping edge cases, spelled out.
#[test]
fn lin_wrapping_edges() {
    let x = Atom::Var(Sym::intern("lin_x"));
    // A coefficient that wraps to zero under `scale` stays a term...
    let z = Lin::atom(x).scale(1 << 62).scale(4);
    assert_eq!(z.terms(), &[(x, 0)]);
    assert_eq!(z.coeff(x), 0);
    assert_eq!(z.as_const(), None);
    // ...`add` keeps it where only the left operand has the atom...
    assert_eq!(z.add(&Lin::constant(3)).terms(), &[(x, 0)]);
    // ...and drops a zero at an atom of the right operand.
    assert!(Lin::constant(3).add(&z).is_const());
    assert!(z.add(&z).is_const());
    // i64::MIN is its own negation.
    let m = Lin::atom(x).scale(i64::MIN);
    assert_eq!(m.scale(-1), m);
    assert!(m.sub(&m).is_const());
    assert_eq!(m.add(&m).terms(), &[]);
    assert_eq!(Lin::constant(i64::MAX).offset(1), Lin::constant(i64::MIN));
}
