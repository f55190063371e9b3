//! Analysis contexts `H • A` (§3.2): history and anticipated fact sets.
//!
//! History facts:
//!   * boolean expressions `be` (branch tests, assignment equalities),
//!   * heap-alias expressions `x = y.f` / `x = y[i]` (§5),
//!   * past accesses `p✁` (read/write tagged) whose checks are pending,
//!   * past checks `p√` (read/write tagged).
//!
//! Anticipated facts are future accesses `p✸` (read/write tagged) that are
//! guaranteed on every path to the next acquire.

use bigfoot_bfj::{pretty_expr, AccessKind, Expr, Path, Sym};
use bigfoot_entail::{linearize, AliasRhs, Kb, Lin, SymRange};

/// An analysis path: a single object field or a symbolic array range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum APath {
    /// `base.field`
    Field {
        /// The designator variable.
        base: Sym,
        /// The field.
        field: Sym,
    },
    /// `base[range]`
    Arr {
        /// The designator variable.
        base: Sym,
        /// The symbolic strided range.
        range: SymRange,
    },
}

impl APath {
    /// The designator variable.
    pub fn base(&self) -> Sym {
        match self {
            APath::Field { base, .. } | APath::Arr { base, .. } => *base,
        }
    }

    /// Builds from a syntactic check path. Returns `None` when the range
    /// bounds are not linearizable.
    pub fn from_ast(p: &Path) -> Option<Vec<APath>> {
        match p {
            Path::Fields { base, fields } => Some(
                fields
                    .iter()
                    .map(|f| APath::Field {
                        base: *base,
                        field: *f,
                    })
                    .collect(),
            ),
            Path::Arr { base, range } => Some(vec![APath::Arr {
                base: *base,
                range: SymRange::from_ast(range)?,
            }]),
        }
    }

    /// Converts to a syntactic path.
    pub fn to_ast(&self) -> Path {
        match self {
            APath::Field { base, field } => Path::field(*base, *field),
            APath::Arr { base, range } => Path::Arr {
                base: *base,
                range: range.to_ast(),
            },
        }
    }

    /// True if the path mentions variable `x` (as designator or in range
    /// bounds).
    pub fn mentions(&self, x: Sym) -> bool {
        match self {
            APath::Field { base, .. } => *base == x,
            APath::Arr { base, range } => {
                *base == x
                    || range.lo.atoms().any(|a| atom_mentions(a, x))
                    || range.hi.atoms().any(|a| atom_mentions(a, x))
            }
        }
    }

    /// Substitutes variable `from` by expression `to` in range bounds and,
    /// when `to` is a variable, in the designator. Returns `None` if the
    /// path would become ill-formed (non-variable designator).
    pub fn subst(&self, from: Sym, to: &Expr) -> Option<APath> {
        let new_base = |base: Sym| -> Option<Sym> {
            if base == from {
                match to {
                    Expr::Var(y) => Some(*y),
                    _ => None,
                }
            } else {
                Some(base)
            }
        };
        match self {
            APath::Field { base, field } => Some(APath::Field {
                base: new_base(*base)?,
                field: *field,
            }),
            APath::Arr { base, range } => {
                let to_lin = linearize(to)?;
                Some(APath::Arr {
                    base: new_base(*base)?,
                    range: range.map_bounds(|l| subst_lin(l, from, &to_lin)),
                })
            }
        }
    }
}

fn atom_mentions(a: bigfoot_entail::Atom, x: Sym) -> bool {
    match a {
        bigfoot_entail::Atom::Var(v) | bigfoot_entail::Atom::Len(v) => v == x,
        // Opaque atoms are keyed by their rendering, which parses back to
        // the original term, so we can resolve their variable sets
        // precisely (memoized). Unparseable atoms conservatively mention
        // everything.
        bigfoot_entail::Atom::Opaque(s) => match opaque_vars(s) {
            Some(vs) => vs.contains(&x),
            None => true,
        },
    }
}

/// The variable set of an opaque atom, memoized; `None` if the rendering
/// does not parse back (never the case for atoms we generate, but callers
/// must stay conservative).
fn opaque_vars(s: Sym) -> Option<&'static [Sym]> {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    type Memo = Mutex<HashMap<Sym, Option<&'static [Sym]>>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let mut memo = memo.lock().expect("opaque memo poisoned");
    if let Some(v) = memo.get(&s) {
        return *v;
    }
    let entry = match bigfoot_bfj::parse_expr(s.as_str()) {
        Ok(e) => {
            let mut vs = Vec::new();
            e.vars(&mut vs);
            vs.sort();
            vs.dedup();
            Some(&*Box::leak(vs.into_boxed_slice()))
        }
        Err(_) => None,
    };
    memo.insert(s, entry);
    entry
}

/// Substitutes `from := to` inside a linear term.
pub fn subst_lin(l: &Lin, from: Sym, to: &Lin) -> Lin {
    let e = l.to_expr().subst(from, &to.to_expr());
    linearize(&e).unwrap_or_else(|| l.clone())
}

impl std::fmt::Display for APath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            APath::Field { base, field } => write!(f, "{base}.{field}"),
            APath::Arr { base, range } => write!(f, "{base}[{range}]"),
        }
    }
}

/// A tagged path fact: `p✁`, `p√`, or `p✸` depending on the containing
/// set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathFact {
    /// The path.
    pub path: APath,
    /// Read or write.
    pub kind: AccessKind,
}

impl std::fmt::Display for PathFact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let k = match self.kind {
            AccessKind::Read => "r",
            AccessKind::Write => "w",
        };
        write!(f, "{}({k})", self.path)
    }
}

/// The history component `H` of a context.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    /// Boolean facts.
    pub bools: Vec<Expr>,
    /// Heap-alias facts `x = rhs`.
    pub aliases: Vec<(Sym, AliasRhs)>,
    /// Past accesses with pending checks (`p✁`).
    pub accesses: Vec<PathFact>,
    /// Past checks (`p√`).
    pub checks: Vec<PathFact>,
}

/// The anticipated component `A` of a context.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Anticipated {
    /// Future accesses (`p✸`).
    pub facts: Vec<PathFact>,
}

impl History {
    /// The empty history.
    pub fn new() -> History {
        History::default()
    }

    /// Builds a [`Kb`] from the boolean and alias facts.
    pub fn kb(&self) -> Kb {
        let mut kb = Kb::new();
        for b in &self.bools {
            kb.assume(b);
        }
        for (x, rhs) in &self.aliases {
            kb.assume_alias(*x, rhs.clone());
        }
        kb
    }

    /// Adds a boolean fact (deduplicated syntactically, capped to keep
    /// entailment fast).
    pub fn add_bool(&mut self, e: Expr) {
        if matches!(e, Expr::Bool(true)) || self.bools.contains(&e) {
            return;
        }
        const MAX_BOOLS: usize = 32;
        if self.bools.len() < MAX_BOOLS {
            self.bools.push(e);
        } else {
            bigfoot_obs::count!("static.budget.bools_dropped");
        }
    }

    /// Adds an alias fact.
    pub fn add_alias(&mut self, x: Sym, rhs: AliasRhs) {
        const MAX_ALIASES: usize = 32;
        if self.aliases.len() < MAX_ALIASES {
            self.aliases.push((x, rhs));
        } else {
            bigfoot_obs::count!("static.budget.aliases_dropped");
        }
    }

    /// Adds a past-access fact, deduplicating identical entries.
    pub fn add_access(&mut self, fact: PathFact) {
        if !self.accesses.contains(&fact) {
            self.accesses.push(fact);
        }
    }

    /// Adds a past-check fact.
    pub fn add_check(&mut self, fact: PathFact) {
        if !self.checks.contains(&fact) {
            self.checks.push(fact);
        }
    }

    /// Removes every fact mentioning variable `x`.
    pub fn kill_var(&mut self, x: Sym) {
        self.bools.retain(|b| !b.mentions(x));
        self.aliases.retain(|(lhs, rhs)| {
            *lhs != x
                && match rhs {
                    AliasRhs::Field { base, .. } => *base != x,
                    AliasRhs::Elem { base, index } => {
                        *base != x && !index.atoms().any(|a| atom_mentions(a, x))
                    }
                }
        });
        self.accesses.retain(|f| !f.path.mentions(x));
        self.checks.retain(|f| !f.path.mentions(x));
    }

    /// True if any fact mentions `x`.
    pub fn mentions(&self, x: Sym) -> bool {
        self.bools.iter().any(|b| b.mentions(x))
            || self.aliases.iter().any(|(lhs, rhs)| {
                *lhs == x
                    || match rhs {
                        AliasRhs::Field { base, .. } => *base == x,
                        AliasRhs::Elem { base, index } => {
                            *base == x || index.atoms().any(|a| atom_mentions(a, x))
                        }
                    }
            })
            || self.accesses.iter().any(|f| f.path.mentions(x))
            || self.checks.iter().any(|f| f.path.mentions(x))
    }

    /// Renames `old` to `fresh` in every fact (the `[RENAME]` rule: `fresh`
    /// holds the old value of `old`).
    pub fn rename(&mut self, old: Sym, fresh: Sym) {
        let to = Expr::Var(fresh);
        for b in &mut self.bools {
            *b = b.subst(old, &to);
        }
        for (lhs, rhs) in &mut self.aliases {
            if *lhs == old {
                *lhs = fresh;
            }
            match rhs {
                AliasRhs::Field { base, .. } => {
                    if *base == old {
                        *base = fresh;
                    }
                }
                AliasRhs::Elem { base, index } => {
                    if *base == old {
                        *base = fresh;
                    }
                    *index = subst_lin(index, old, &Lin::var(fresh));
                }
            }
        }
        let subst_facts = |facts: &mut Vec<PathFact>| {
            facts.retain_mut(|f| match f.path.subst(old, &to) {
                Some(p) => {
                    f.path = p;
                    true
                }
                None => false,
            });
        };
        subst_facts(&mut self.accesses);
        subst_facts(&mut self.checks);
    }

    /// Drops all past accesses and checks (the `[REL]` post-history),
    /// keeping boolean and alias facts.
    pub fn forget_accesses_and_checks(&mut self) {
        self.accesses.clear();
        self.checks.clear();
    }

    /// True if the access fact is covered by some past check in this
    /// history: a check of covering kind on a provably-equal designator
    /// whose extent subsumes the fact's.
    pub fn covered_by_check(&self, kb: &mut Kb, fact: &PathFact) -> bool {
        self.checks
            .iter()
            .any(|c| c.kind.covers(fact.kind) && path_subsumes(kb, &c.path, &fact.path))
    }

    /// True if the access fact is entailed by the *union* of past-access
    /// facts (same kind): used when validating loop invariants and branch
    /// merges.
    pub fn entails_access(&self, kb: &mut Kb, fact: &PathFact) -> bool {
        // A contradictory context (statically dead branch) entails
        // everything — this is what lets a check defer past a merge whose
        // other side is unreachable.
        if kb.is_inconsistent() {
            return true;
        }
        // Exact-path matches for fields; union coverage for ranges.
        match &fact.path {
            APath::Field { .. } => self
                .accesses
                .iter()
                .any(|a| a.kind == fact.kind && path_subsumes(kb, &a.path, &fact.path)),
            APath::Arr { base, range } => {
                let ranges: Vec<SymRange> = self
                    .accesses
                    .iter()
                    .filter_map(|a| match &a.path {
                        APath::Arr {
                            base: b2,
                            range: r2,
                        } if a.kind == fact.kind && kb.refs_equal(*base, *b2) => Some(r2.clone()),
                        _ => None,
                    })
                    .collect();
                bigfoot_entail::covered_by_union(kb, range, &ranges)
            }
        }
    }

    /// True if the boolean expression is entailed.
    pub fn entails_bool(&self, kb: &mut Kb, e: &Expr) -> bool {
        kb.entails(e)
    }

    /// Renders the history in the paper's notation (for golden tests).
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for b in &self.bools {
            parts.push(pretty_expr(b));
        }
        for a in &self.accesses {
            parts.push(format!("{a}✁"));
        }
        for c in &self.checks {
            parts.push(format!("{c}√"));
        }
        format!("{{{}}}", parts.join(", "))
    }
}

impl Anticipated {
    /// The empty anticipated set.
    pub fn new() -> Anticipated {
        Anticipated::default()
    }

    /// Adds a fact.
    pub fn add(&mut self, fact: PathFact) {
        if !self.facts.contains(&fact) {
            self.facts.push(fact);
        }
    }

    /// Removes facts mentioning `x`.
    pub fn kill_var(&mut self, x: Sym) {
        self.facts.retain(|f| !f.path.mentions(x));
    }

    /// Substitutes `x := e` (the `[ASSIGN]` backward rule), dropping facts
    /// that become ill-formed.
    pub fn subst(&mut self, x: Sym, e: &Expr) {
        self.facts.retain_mut(|f| match f.path.subst(x, e) {
            Some(p) => {
                f.path = p;
                true
            }
            None => false,
        });
    }

    /// True if an access fact is covered by some anticipated access: a
    /// future access whose (future) check will cover this one.
    pub fn covers(&self, kb: &mut Kb, fact: &PathFact) -> bool {
        self.facts
            .iter()
            .any(|a| a.kind.covers(fact.kind) && path_subsumes(kb, &a.path, &fact.path))
    }

    /// Renders the anticipated set in the paper's notation.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self.facts.iter().map(|f| format!("{f}✸")).collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// True if `big` covers every location of `small` (same designator and
/// extent subsumption).
pub fn path_subsumes(kb: &mut Kb, big: &APath, small: &APath) -> bool {
    match (big, small) {
        (
            APath::Field {
                base: b1,
                field: f1,
            },
            APath::Field {
                base: b2,
                field: f2,
            },
        ) => f1 == f2 && kb.refs_equal(*b1, *b2),
        (
            APath::Arr {
                base: b1,
                range: r1,
            },
            APath::Arr {
                base: b2,
                range: r2,
            },
        ) => kb.refs_equal(*b1, *b2) && bigfoot_entail::subsumes(kb, r1, r2),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(base: &str, f: &str) -> APath {
        APath::Field {
            base: Sym::intern(base),
            field: Sym::intern(f),
        }
    }

    fn arr(base: &str, lo: i64, hi_var: &str) -> APath {
        APath::Arr {
            base: Sym::intern(base),
            range: SymRange {
                lo: Lin::constant(lo),
                hi: Lin::var(Sym::intern(hi_var)),
                step: 1,
            },
        }
    }

    #[test]
    fn kill_var_removes_related_facts() {
        let mut h = History::new();
        h.add_access(PathFact {
            path: field("x", "f"),
            kind: AccessKind::Read,
        });
        h.add_access(PathFact {
            path: arr("a", 0, "i"),
            kind: AccessKind::Write,
        });
        h.kill_var(Sym::intern("i"));
        assert_eq!(h.accesses.len(), 1);
        h.kill_var(Sym::intern("x"));
        assert!(h.accesses.is_empty());
    }

    #[test]
    fn rename_rewrites_paths_and_bools() {
        let mut h = History::new();
        h.add_bool(Expr::Binop(
            bigfoot_bfj::Binop::Eq,
            Box::new(Expr::var("i")),
            Box::new(Expr::Int(0)),
        ));
        h.add_access(PathFact {
            path: arr("a", 0, "i"),
            kind: AccessKind::Write,
        });
        h.rename(Sym::intern("i"), Sym::intern("i'"));
        assert!(!h.mentions(Sym::intern("i")));
        assert!(h.mentions(Sym::intern("i'")));
        assert_eq!(h.render(), "{i' == 0, a[0..i'](w)✁}");
    }

    #[test]
    fn write_check_covers_read_access() {
        let mut h = History::new();
        h.add_check(PathFact {
            path: field("p", "x"),
            kind: AccessKind::Write,
        });
        let mut kb = h.kb();
        assert!(h.covered_by_check(
            &mut kb,
            &PathFact {
                path: field("p", "x"),
                kind: AccessKind::Read
            }
        ));
        // But a read check does not cover a write access.
        let mut h2 = History::new();
        h2.add_check(PathFact {
            path: field("p", "x"),
            kind: AccessKind::Read,
        });
        let mut kb2 = h2.kb();
        assert!(!h2.covered_by_check(
            &mut kb2,
            &PathFact {
                path: field("p", "x"),
                kind: AccessKind::Write
            }
        ));
    }

    #[test]
    fn alias_facts_equate_designators() {
        // x = b.f, y = b.f: a check on x.g covers an access to y.g.
        let mut h = History::new();
        let (x, y, b) = (Sym::intern("x"), Sym::intern("y"), Sym::intern("b"));
        h.add_alias(
            x,
            AliasRhs::Field {
                base: b,
                field: Sym::intern("f"),
            },
        );
        h.add_alias(
            y,
            AliasRhs::Field {
                base: b,
                field: Sym::intern("f"),
            },
        );
        h.add_check(PathFact {
            path: field("x", "g"),
            kind: AccessKind::Read,
        });
        let mut kb = h.kb();
        assert!(h.covered_by_check(
            &mut kb,
            &PathFact {
                path: field("y", "g"),
                kind: AccessKind::Read
            }
        ));
    }

    #[test]
    fn anticipated_substitution() {
        let mut a = Anticipated::new();
        a.add(PathFact {
            path: arr("a", 0, "i"),
            kind: AccessKind::Read,
        });
        // i := j + 1
        a.subst(Sym::intern("i"), &Expr::add(Expr::var("j"), Expr::Int(1)));
        assert_eq!(a.facts.len(), 1);
        assert!(a.facts[0].path.mentions(Sym::intern("j")));
    }

    #[test]
    fn union_entailment_of_accesses() {
        // {a[0..i]✁, a[i]✁, i' == i + 1} entails a[0..i']✁.
        let mut h = History::new();
        let i = Sym::intern("ui");
        let ip = Sym::intern("ui'");
        h.add_bool(Expr::Binop(
            bigfoot_bfj::Binop::Eq,
            Box::new(Expr::Var(ip)),
            Box::new(Expr::add(Expr::Var(i), Expr::Int(1))),
        ));
        h.add_bool(Expr::Binop(
            bigfoot_bfj::Binop::Ge,
            Box::new(Expr::Var(i)),
            Box::new(Expr::Int(0)),
        ));
        h.add_access(PathFact {
            path: APath::Arr {
                base: Sym::intern("a"),
                range: SymRange {
                    lo: Lin::constant(0),
                    hi: Lin::var(i),
                    step: 1,
                },
            },
            kind: AccessKind::Write,
        });
        h.add_access(PathFact {
            path: APath::Arr {
                base: Sym::intern("a"),
                range: SymRange::singleton(Lin::var(i)),
            },
            kind: AccessKind::Write,
        });
        let mut kb = h.kb();
        let query = PathFact {
            path: APath::Arr {
                base: Sym::intern("a"),
                range: SymRange {
                    lo: Lin::constant(0),
                    hi: Lin::var(ip),
                    step: 1,
                },
            },
            kind: AccessKind::Write,
        };
        assert!(h.entails_access(&mut kb, &query));
    }
}
