//! Deterministic single-method program mutations.
//!
//! The incremental-analysis test harnesses (the mutation differential
//! suite, the `incremental` fuzz oracle, and the CI `incremental-smoke`
//! job) all need the same primitive: "edit exactly one method body" in a
//! way that is (a) a pure function of `(program, target, kind, salt)` so
//! shrinking and replay stay deterministic, and (b) classified by whether
//! the edit changes cross-method *facts* (kill-set effects, volatility)
//! or only the method's own body.
//!
//! Edits read only bound variables, so a mutated program never stops on
//! an unbound variable: an `acq` in `main` locks a fresh object of the
//! program's first class. A class method's `acq` locks its first
//! parameter, and running it is a type error when that holds an array.

use crate::ast::{Block, Expr, Program, Stmt, StmtKind};
use crate::Sym;

/// The kinds of single-method edits the harnesses sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// Append a heap-free assignment (`__mut = salt;`). Changes the body
    /// fingerprint but no kill-set effects: only the mutated method
    /// should be re-analyzed on a warm run.
    ArithTweak,
    /// Append a heap write (a field write when the enclosing class
    /// declares a field, otherwise a fresh array write). Flips the
    /// method's `writes_heap` effect, dirtying every transitive caller's
    /// fact fingerprint.
    AddFieldWrite,
    /// Append an `acq`/`rel` pair. Flips the method's `acquires` and
    /// `releases` effects — the strongest dependency-cone stressor,
    /// since lock effects feed both the forward and backward passes.
    /// A class method locks its first parameter (or `this`); `main` first
    /// binds `__ml = new C` for the program's first class `C` and locks
    /// that. `main` of a program without classes has no object to lock,
    /// so there the edit falls back to [`MutationKind::ArithTweak`].
    AddLock,
}

impl MutationKind {
    /// All kinds, for sweeps.
    pub const ALL: [MutationKind; 3] = [
        MutationKind::ArithTweak,
        MutationKind::AddFieldWrite,
        MutationKind::AddLock,
    ];

    /// True if the edit can change cross-method facts (kill-set
    /// effects), i.e. callers of the mutated method may need
    /// re-analysis too.
    pub fn changes_facts(self) -> bool {
        !matches!(self, MutationKind::ArithTweak)
    }

    /// Stable name, used by CLI flags and test labels.
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::ArithTweak => "arith",
            MutationKind::AddFieldWrite => "field-write",
            MutationKind::AddLock => "lock",
        }
    }

    /// Parses [`Self::name`].
    pub fn from_name(s: &str) -> Option<MutationKind> {
        MutationKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Number of mutation sites in `p`: every class method, plus `main`
/// (always the last site).
pub fn site_count(p: &Program) -> usize {
    p.classes.iter().map(|c| c.methods.len()).sum::<usize>() + 1
}

/// Applies `kind` to the `target`-th site (class methods in declaration
/// order, then `main`), appending statements derived from `salt`.
/// Returns the qualified name of the edited site (`"C.m"` or `"main"`),
/// or `None` if `target` is out of range. The program is renumbered
/// before returning so statement ids stay program-unique.
pub fn mutate(p: &mut Program, target: usize, kind: MutationKind, salt: i64) -> Option<String> {
    let sites = site_count(p);
    if target >= sites {
        return None;
    }
    let (body, name, class_field, lock) = locate(p, target);
    append_edit(body, kind, salt, class_field, lock);
    p.renumber();
    Some(name)
}

/// What an [`MutationKind::AddLock`] edit acquires.
enum Lock {
    /// A variable the method already binds.
    Bound(Sym),
    /// A fresh object of this class, bound to `__ml` first.
    Fresh(Sym),
    /// Nothing: the program has no class to allocate.
    Unavailable,
}

/// Resolves a site index to `(body, qualified-name, a declared
/// non-volatile field of the enclosing class if any, the lock to take)`.
fn locate(p: &mut Program, target: usize) -> (&mut Block, String, Option<(Sym, Sym)>, Lock) {
    let mut i = target;
    for ci in 0..p.classes.len() {
        let n = p.classes[ci].methods.len();
        if i < n {
            let class = &p.classes[ci];
            let label = format!("{}.{}", class.name.as_str(), class.methods[i].name.as_str());
            let field = class
                .fields
                .iter()
                .find(|f| !class.volatiles.contains(f))
                .map(|&f| (Sym::intern("this"), f));
            let lock = class.methods[i]
                .params
                .first()
                .copied()
                .unwrap_or_else(|| Sym::intern("this"));
            return (
                &mut p.classes[ci].methods[i].body,
                label,
                field,
                Lock::Bound(lock),
            );
        }
        i -= n;
    }
    let lock = match p.classes.first() {
        Some(c) => Lock::Fresh(c.name),
        None => Lock::Unavailable,
    };
    (&mut p.main, "main".to_string(), None, lock)
}

fn append_edit(
    body: &mut Block,
    kind: MutationKind,
    salt: i64,
    class_field: Option<(Sym, Sym)>,
    lock: Lock,
) {
    let push = |body: &mut Block, k: StmtKind| body.stmts.push(Stmt::new(k));
    match kind {
        MutationKind::ArithTweak => {
            push(
                body,
                StmtKind::Assign {
                    x: Sym::intern("__mut"),
                    e: Expr::Int(salt),
                },
            );
        }
        MutationKind::AddFieldWrite => {
            let src = Sym::intern("__mv");
            push(
                body,
                StmtKind::Assign {
                    x: src,
                    e: Expr::Int(salt),
                },
            );
            match class_field {
                Some((obj, field)) => {
                    push(body, StmtKind::WriteField { obj, field, src });
                }
                None => {
                    // No declared field in scope: a fresh array write
                    // flips `writes_heap` just the same.
                    let arr = Sym::intern("__ma");
                    push(
                        body,
                        StmtKind::NewArray {
                            x: arr,
                            len: Expr::Int(1),
                        },
                    );
                    push(
                        body,
                        StmtKind::WriteArr {
                            arr,
                            idx: Expr::Int(0),
                            src,
                        },
                    );
                }
            }
        }
        MutationKind::AddLock => {
            let lock_var = match lock {
                Lock::Bound(x) => x,
                Lock::Fresh(class) => {
                    let x = Sym::intern("__ml");
                    push(body, StmtKind::New { x, class });
                    x
                }
                Lock::Unavailable => {
                    return append_edit(body, MutationKind::ArithTweak, salt, class_field, lock)
                }
            };
            push(body, StmtKind::Acquire { lock: lock_var });
            push(
                body,
                StmtKind::Assign {
                    x: Sym::intern("__mut"),
                    e: Expr::Int(salt),
                },
            );
            push(body, StmtKind::Release { lock: lock_var });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint_method;
    use crate::parse_program;

    const SRC: &str =
        "class C { field f; meth m(x) { y = x; return y; } meth n() { skip; return 0; } } \
                       main { skip; }";

    #[test]
    fn site_count_includes_main() {
        let p = parse_program(SRC).unwrap();
        assert_eq!(site_count(&p), 3);
    }

    #[test]
    fn mutation_is_deterministic_and_single_method() {
        for kind in MutationKind::ALL {
            let mut a = parse_program(SRC).unwrap();
            let mut b = parse_program(SRC).unwrap();
            assert_eq!(mutate(&mut a, 0, kind, 7), Some("C.m".to_string()));
            assert_eq!(mutate(&mut b, 0, kind, 7), Some("C.m".to_string()));
            assert_eq!(a, b, "mutation must be deterministic ({kind:?})");
            let orig = parse_program(SRC).unwrap();
            assert_ne!(
                fingerprint_method(&a.classes[0].methods[0]),
                fingerprint_method(&orig.classes[0].methods[0]),
                "target body must change ({kind:?})"
            );
            assert_eq!(
                fingerprint_method(&a.classes[0].methods[1]),
                fingerprint_method(&orig.classes[0].methods[1]),
                "untouched bodies must not change ({kind:?})"
            );
        }
    }

    #[test]
    fn main_is_the_last_site() {
        let mut p = parse_program(SRC).unwrap();
        assert_eq!(
            mutate(&mut p, 2, MutationKind::ArithTweak, 1),
            Some("main".to_string())
        );
        assert_eq!(mutate(&mut p, 3, MutationKind::ArithTweak, 1), None);
    }

    #[test]
    fn add_lock_on_main_binds_its_lock() {
        let mut p = parse_program(SRC).unwrap();
        mutate(&mut p, 2, MutationKind::AddLock, 5);
        let text = crate::pretty(&p);
        assert!(text.contains("__ml = new C;"), "{text}");
        assert!(text.contains("acq(__ml);"), "{text}");
        // Without a class there is nothing to lock: an arithmetic tweak.
        let mut bare = parse_program("main { skip; }").unwrap();
        mutate(&mut bare, 0, MutationKind::AddLock, 5);
        let mut tweaked = parse_program("main { skip; }").unwrap();
        mutate(&mut tweaked, 0, MutationKind::ArithTweak, 5);
        assert_eq!(bare, tweaked);
    }

    #[test]
    fn ids_stay_program_unique_after_mutation() {
        let mut p = parse_program(SRC).unwrap();
        mutate(&mut p, 0, MutationKind::AddLock, 3);
        let mut seen = std::collections::HashSet::new();
        let mut count = 0usize;
        visit(&p.main, &mut seen, &mut count);
        for c in &p.classes {
            for m in &c.methods {
                visit(&m.body, &mut seen, &mut count);
            }
        }
        assert_eq!(seen.len(), count, "duplicate statement ids after mutate");
    }

    fn visit(b: &Block, seen: &mut std::collections::HashSet<u32>, count: &mut usize) {
        for s in &b.stmts {
            seen.insert(s.id.0);
            *count += 1;
            match &s.kind {
                StmtKind::If { then_b, else_b, .. } => {
                    visit(then_b, seen, count);
                    visit(else_b, seen, count);
                }
                StmtKind::Loop { head, tail, .. } => {
                    visit(head, seen, count);
                    visit(tail, seen, count);
                }
                _ => {}
            }
        }
    }
}
