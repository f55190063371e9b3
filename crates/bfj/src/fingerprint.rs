//! Stable structural fingerprints of BFJ method bodies.
//!
//! The incremental StaticBF layer keys its persistent placement cache by
//! *what the analysis consumes*: the structure of a method body, with
//! identifier [`Sym`]s folded in as their interned **strings** (interner
//! indices are process-local) and [`StmtId`](crate::StmtId)s excluded
//! entirely (ids are renumbered wholesale and never influence placement
//! decisions). Two bodies get the same fingerprint iff they are
//! structurally identical up to statement ids — exactly the equivalence
//! the placement analysis cannot distinguish.
//!
//! Digests use [`StableHasher`], never `FxHash` or `std`'s seeded
//! `RandomState`: these fingerprints escape the process as cache keys.
//! [`FINGERPRINT_VERSION`] must be bumped whenever the traversal or tag
//! assignment below changes.
//!
//! # Examples
//!
//! ```
//! use bigfoot_bfj::{fingerprint_method, parse_program};
//!
//! let p1 = parse_program("class C { meth m(x) { y = x + 1; return y; } } main { skip; }").unwrap();
//! let p2 = parse_program("class C { meth m(x) { y = x + 2; return y; } } main { skip; }").unwrap();
//! let m1 = &p1.classes[0].methods[0];
//! let m2 = &p2.classes[0].methods[0];
//! assert_ne!(fingerprint_method(m1), fingerprint_method(m2));
//! assert_eq!(fingerprint_method(m1), fingerprint_method(&m1.clone()));
//! ```

use crate::ast::{Block, CheckPath, Expr, MethodDef, Path, Range, Stmt, StmtKind, Unop};
use crate::Sym;
use bigfoot_obs::stable::{StableHasher, STABLE_HASH_VERSION};
use bigfoot_vc::AccessKind;

/// Version of the fingerprint traversal. Folded into every digest (along
/// with [`STABLE_HASH_VERSION`]) so any change to the byte mapping
/// invalidates previously persisted fingerprints instead of colliding
/// with them.
pub const FINGERPRINT_VERSION: u32 = 1;

fn sym(h: &mut StableHasher, s: Sym) {
    h.write_str(s.as_str());
}

fn syms(h: &mut StableHasher, ss: &[Sym]) {
    h.write_usize(ss.len());
    for &s in ss {
        sym(h, s);
    }
}

fn expr(h: &mut StableHasher, e: &Expr) {
    match e {
        Expr::Int(v) => {
            h.write_u8(0);
            h.write_i64(*v);
        }
        Expr::Bool(v) => {
            h.write_u8(1);
            h.write_bool(*v);
        }
        Expr::Null => h.write_u8(2),
        Expr::Var(x) => {
            h.write_u8(3);
            sym(h, *x);
        }
        Expr::Unop(op, e) => {
            h.write_u8(4);
            h.write_u8(match op {
                Unop::Neg => 0,
                Unop::Not => 1,
            });
            expr(h, e);
        }
        Expr::Binop(op, l, r) => {
            h.write_u8(5);
            // `Binop` is `#[repr]`-unspecified; map explicitly so the
            // digest cannot drift with declaration order.
            h.write_u8(binop_tag(*op));
            expr(h, l);
            expr(h, r);
        }
        Expr::Len(a) => {
            h.write_u8(6);
            sym(h, *a);
        }
    }
}

fn binop_tag(op: crate::ast::Binop) -> u8 {
    use crate::ast::Binop::*;
    match op {
        Add => 0,
        Sub => 1,
        Mul => 2,
        Div => 3,
        Mod => 4,
        Eq => 5,
        Ne => 6,
        Lt => 7,
        Le => 8,
        Gt => 9,
        Ge => 10,
        And => 11,
        Or => 12,
    }
}

fn range(h: &mut StableHasher, r: &Range) {
    expr(h, &r.lo);
    expr(h, &r.hi);
    h.write_i64(r.step);
}

fn path(h: &mut StableHasher, p: &Path) {
    match p {
        Path::Fields { base, fields } => {
            h.write_u8(0);
            sym(h, *base);
            syms(h, fields);
        }
        Path::Arr { base, range: r } => {
            h.write_u8(1);
            sym(h, *base);
            range(h, r);
        }
    }
}

fn check_path(h: &mut StableHasher, c: &CheckPath) {
    h.write_u8(match c.kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    });
    path(h, &c.path);
}

fn stmt(h: &mut StableHasher, s: &Stmt) {
    // `s.id` is deliberately NOT hashed: ids are renumbered globally and
    // carry no placement-relevant content.
    match &s.kind {
        StmtKind::Skip => h.write_u8(0),
        StmtKind::Assign { x, e } => {
            h.write_u8(1);
            sym(h, *x);
            expr(h, e);
        }
        StmtKind::Rename { fresh, old } => {
            h.write_u8(2);
            sym(h, *fresh);
            sym(h, *old);
        }
        StmtKind::If {
            cond,
            then_b,
            else_b,
        } => {
            h.write_u8(3);
            expr(h, cond);
            block(h, then_b);
            block(h, else_b);
        }
        StmtKind::Loop { head, exit, tail } => {
            h.write_u8(4);
            block(h, head);
            expr(h, exit);
            block(h, tail);
        }
        StmtKind::Acquire { lock } => {
            h.write_u8(5);
            sym(h, *lock);
        }
        StmtKind::Release { lock } => {
            h.write_u8(6);
            sym(h, *lock);
        }
        StmtKind::New { x, class } => {
            h.write_u8(7);
            sym(h, *x);
            sym(h, *class);
        }
        StmtKind::NewArray { x, len } => {
            h.write_u8(8);
            sym(h, *x);
            expr(h, len);
        }
        StmtKind::ReadField { x, obj, field } => {
            h.write_u8(9);
            sym(h, *x);
            sym(h, *obj);
            sym(h, *field);
        }
        StmtKind::WriteField { obj, field, src } => {
            h.write_u8(10);
            sym(h, *obj);
            sym(h, *field);
            sym(h, *src);
        }
        StmtKind::ReadArr { x, arr, idx } => {
            h.write_u8(11);
            sym(h, *x);
            sym(h, *arr);
            expr(h, idx);
        }
        StmtKind::WriteArr { arr, idx, src } => {
            h.write_u8(12);
            sym(h, *arr);
            expr(h, idx);
            sym(h, *src);
        }
        StmtKind::Call {
            x,
            recv,
            meth,
            args,
        } => {
            h.write_u8(13);
            sym(h, *x);
            sym(h, *recv);
            sym(h, *meth);
            syms(h, args);
        }
        StmtKind::Fork {
            x,
            recv,
            meth,
            args,
        } => {
            h.write_u8(14);
            sym(h, *x);
            sym(h, *recv);
            sym(h, *meth);
            syms(h, args);
        }
        StmtKind::Join { t } => {
            h.write_u8(15);
            sym(h, *t);
        }
        StmtKind::Wait { lock } => {
            h.write_u8(16);
            sym(h, *lock);
        }
        StmtKind::Notify { lock } => {
            h.write_u8(17);
            sym(h, *lock);
        }
        StmtKind::Check { paths } => {
            h.write_u8(18);
            h.write_usize(paths.len());
            for c in paths {
                check_path(h, c);
            }
        }
    }
}

fn block(h: &mut StableHasher, b: &Block) {
    h.write_usize(b.stmts.len());
    for s in &b.stmts {
        stmt(h, s);
    }
}

fn seeded() -> StableHasher {
    let mut h = StableHasher::new();
    h.write_u32(STABLE_HASH_VERSION);
    h.write_u32(FINGERPRINT_VERSION);
    h
}

/// Stable structural fingerprint of a bare block (statement ids
/// excluded, identifiers hashed as strings).
pub fn fingerprint_block(b: &Block) -> u64 {
    let mut h = seeded();
    block(&mut h, b);
    h.finish()
}

/// Stable structural fingerprint of a method: name, parameters, body,
/// and return expression.
pub fn fingerprint_method(m: &MethodDef) -> u64 {
    let mut h = seeded();
    sym(&mut h, m.name);
    syms(&mut h, &m.params);
    block(&mut h, &m.body);
    expr(&mut h, &m.ret);
    h.finish()
}

/// Stable fingerprint of a parameter list plus body plus return — the
/// exact input the per-method placement analysis consumes (the name is
/// excluded so renames that cannot affect the method's own placement
/// hash identically; callers key entries by qualified name separately).
pub fn fingerprint_body(params: &[Sym], body: &Block, ret: &Expr) -> u64 {
    let mut h = seeded();
    syms(&mut h, params);
    block(&mut h, body);
    expr(&mut h, ret);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StmtId;
    use crate::parse_program;

    fn body_of(src: &str) -> MethodDef {
        parse_program(src).unwrap().classes[0].methods[0].clone()
    }

    #[test]
    fn stmt_ids_do_not_affect_fingerprint() {
        let m = body_of("class C { meth m(x) { y = x + 1; return y; } } main { skip; }");
        let mut renumbered = m.clone();
        for s in &mut renumbered.body.stmts {
            s.id = StmtId(s.id.0 + 1000);
        }
        assert_eq!(fingerprint_method(&m), fingerprint_method(&renumbered));
    }

    #[test]
    fn structural_change_changes_fingerprint() {
        let a = body_of("class C { meth m(x) { y = x + 1; return y; } } main { skip; }");
        let b = body_of("class C { meth m(x) { y = x - 1; return y; } } main { skip; }");
        assert_ne!(fingerprint_method(&a), fingerprint_method(&b));
    }

    #[test]
    fn identifier_rename_changes_fingerprint() {
        let a = body_of("class C { meth m(x) { y = x; return y; } } main { skip; }");
        let b = body_of("class C { meth m(x) { z = x; return z; } } main { skip; }");
        assert_ne!(fingerprint_method(&a), fingerprint_method(&b));
    }

    #[test]
    fn body_fingerprint_ignores_method_name() {
        let a = body_of("class C { meth m(x) { y = x; return y; } } main { skip; }");
        let b = body_of("class C { meth n(x) { y = x; return y; } } main { skip; }");
        assert_eq!(
            fingerprint_body(&a.params, &a.body, &a.ret),
            fingerprint_body(&b.params, &b.body, &b.ret)
        );
        assert_ne!(fingerprint_method(&a), fingerprint_method(&b));
    }

    #[test]
    fn adjacent_blocks_do_not_collide() {
        // `if (c) { skip; skip; } else { }` vs `if (c) { skip; } else { skip; }`
        let a = body_of("class C { meth m() { if (1 < 2) { skip; skip; } else { skip; } return 0; } } main { skip; }");
        let b = body_of("class C { meth m() { if (1 < 2) { skip; } else { skip; skip; } return 0; } } main { skip; }");
        assert_ne!(fingerprint_method(&a), fingerprint_method(&b));
    }
}
