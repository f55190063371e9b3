//! The forward check-placement pass (Fig. 7), including loop-invariant
//! inference by Cartesian predicate abstraction (§5 "Loop Invariants").
//!
//! A method is analyzed in two forward runs around the backward pass:
//!
//! 1. [`record_histories`] is a *history-only* pre-pass. It evolves the
//!    bool, alias and access facts, infers every loop invariant, and places
//!    no check. It records the history at the start of every block (the
//!    first statement of the body, of each branch and of each loop body,
//!    which is all the backward pass reads) and the invariant of every
//!    loop.
//! 2. [`place_checks`] runs again with the backward pass's anticipated
//!    tables, places the checks and builds the instrumented body. It takes
//!    each loop invariant from the pre-pass instead of inferring it again.
//!
//! Both reuses are exact because placed checks only add `√` facts, and
//! nothing reads `√` facts to build bools, aliases or accesses: history
//! facts evolve identically with and without placement, and a loop
//! invariant depends only on the bool, alias and access facts at the loop
//! entry. [`forward_pass_view`] is the one-run form, which infers the
//! invariants itself; the pipeline uses it when anticipation is off.
//!
//! Invariant inference simulates the loop body in history-only mode. It is
//! memoized per (loop statement, entry bool/alias/access facts), so a loop
//! nested in another is inferred once per distinct entry history instead of
//! once per simulation of every enclosing loop.
//!
//! Checks are emitted only where the rules demand them: before
//! acquire-like and release-like operations (including calls whose kill
//! sets synchronize), at the ends of conditional branches for accesses the
//! merge forgets, before loops and at loop back edges for accesses the
//! invariant forgets, and at method end.

use crate::backward::ATables;
use crate::facts::{APath, Anticipated, History, PathFact};
use crate::killset::KillSets;
use crate::readset::FactView;
use bigfoot_bfj::{AccessKind, Binop, Block, Expr, Stmt, StmtId, StmtKind, Sym, Unop};
use bigfoot_entail::{linearize, AliasRhs, Lin, SymRange};
use std::collections::{HashMap, HashSet};

/// Maximum iterations of the loop-invariant greatest fixed point.
const MAX_INV_ITERS: usize = 4;

/// Results of one forward run over a method body.
#[derive(Debug, Default)]
pub struct ForwardTables {
    /// History at the start of each block, keyed by the block's first
    /// statement: the method body, both branches of every conditional and
    /// the head (or, when empty, the tail) of every loop. Bool, alias and
    /// access facts; `√` facts too on a placement run.
    pub h_pre: HashMap<StmtId, History>,
    /// Inferred loop invariant per loop statement.
    pub loop_inv: HashMap<StmtId, History>,
}

/// Tunable parts of the placement analysis, for the ablation study. The
/// defaults are the full BigFoot configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlacementOptions {
    /// §4 path coalescing in emitted checks.
    pub coalescing: bool,
    /// Loop-invariant inference (disabling leaves checks inside loops).
    pub loop_invariants: bool,
}

impl Default for PlacementOptions {
    fn default() -> Self {
        PlacementOptions {
            coalescing: true,
            loop_invariants: true,
        }
    }
}

/// Runs the forward placement pass in one run, inferring loop invariants
/// itself. `at` holds the backward pass's anticipated tables; with `None`
/// nothing is anticipated. Returns the rewritten body and the tables.
pub fn forward_pass(
    body: &Block,
    kills: &KillSets,
    volatiles: &HashSet<Sym>,
    at: Option<&ATables>,
) -> (Block, ForwardTables) {
    forward_pass_opts(body, kills, volatiles, at, PlacementOptions::default())
}

/// [`forward_pass`] with explicit [`PlacementOptions`].
pub fn forward_pass_opts(
    body: &Block,
    kills: &KillSets,
    volatiles: &HashSet<Sym>,
    at: Option<&ATables>,
    opts: PlacementOptions,
) -> (Block, ForwardTables) {
    forward_pass_view(body, FactView::new(kills, volatiles), at, opts)
}

/// [`forward_pass_opts`] over a [`FactView`], which may log every
/// cross-method fact query into a read-set for incremental re-analysis.
pub fn forward_pass_view(
    body: &Block,
    facts: FactView<'_>,
    at: Option<&ATables>,
    opts: PlacementOptions,
) -> (Block, ForwardTables) {
    let mut f = Fwd::new(facts, opts, true, at, None);
    let placed = f.method(body);
    (placed, f.tables)
}

/// The history-only pre-pass: evolves histories and infers loop
/// invariants without placing checks. Its tables equal those of a
/// placement run up to `√` facts.
pub(crate) fn record_histories(
    body: &Block,
    facts: FactView<'_>,
    opts: PlacementOptions,
) -> ForwardTables {
    let mut f = Fwd::new(facts, opts, false, None, None);
    f.method(body);
    f.tables
}

/// The placement run after a [`record_histories`] pre-pass `pre`: the same
/// body as [`forward_pass_view`] with `Some(at)`, with every loop invariant
/// taken from `pre.loop_inv`.
pub(crate) fn place_checks(
    body: &Block,
    facts: FactView<'_>,
    pre: &ForwardTables,
    at: &ATables,
    opts: PlacementOptions,
) -> Block {
    Fwd::new(facts, opts, true, Some(at), Some(&pre.loop_inv)).method(body)
}

struct Fwd<'a> {
    facts: FactView<'a>,
    at: Option<&'a ATables>,
    opts: PlacementOptions,
    /// Place checks and build the output body. False on the history-only
    /// pre-pass and inside invariant simulations.
    place: bool,
    /// Invariants of a history-only pre-pass, used instead of inferring.
    known_inv: Option<&'a HashMap<StmtId, History>>,
    /// Nesting depth of invariant simulations; tables record only at 0.
    simulating: usize,
    /// Inferred invariants per loop: (entry facts without `√`, invariant).
    inv_memo: HashMap<StmtId, Vec<(History, History)>>,
    tables: ForwardTables,
}

fn negate(e: &Expr) -> Expr {
    Expr::Unop(Unop::Not, Box::new(e.clone()))
}

/// The equality fact `x == e` recorded at assignments.
pub(crate) fn eq_fact(x: Sym, e: &Expr) -> Expr {
    Expr::Binop(Binop::Eq, Box::new(Expr::Var(x)), Box::new(e.clone()))
}

/// True if `a` and `b` agree on every fact but `√`.
fn same_history_facts(a: &History, b: &History) -> bool {
    a.bools == b.bools && a.aliases == b.aliases && a.accesses == b.accesses
}

impl<'a> Fwd<'a> {
    fn new(
        facts: FactView<'a>,
        opts: PlacementOptions,
        place: bool,
        at: Option<&'a ATables>,
        known_inv: Option<&'a HashMap<StmtId, History>>,
    ) -> Fwd<'a> {
        Fwd {
            facts,
            at,
            opts,
            place,
            known_inv,
            simulating: 0,
            inv_memo: HashMap::new(),
            tables: ForwardTables::default(),
        }
    }

    /// Runs over a method body and checks everything still pending at its
    /// end ([STMT]).
    fn method(&mut self, body: &Block) -> Block {
        let (mut stmts, mut h) = self.block(&body.stmts, History::new());
        self.check_pending(&mut h, None, None, &mut stmts);
        Block { stmts }
    }

    fn a_post(&self, id: StmtId) -> Option<&'a Anticipated> {
        self.at.and_then(|t| t.post.get(&id))
    }

    fn a_loop_head(&self, id: StmtId) -> Option<&'a Anticipated> {
        self.at.and_then(|t| t.loop_head.get(&id))
    }

    /// Copies an unchanged statement to the output when placing.
    fn copy(&self, s: &Stmt, out: &mut Vec<Stmt>) {
        if self.place {
            out.push(s.clone());
        }
    }

    /// Past accesses of `h` that still need a check here: not entailed by
    /// `against` (a merge/invariant context), not covered by a past check,
    /// and not excused by an anticipated future access.
    fn pending(
        &self,
        h: &History,
        against: Option<&History>,
        excuse: Option<&Anticipated>,
    ) -> Vec<PathFact> {
        let mut kb = h.kb();
        let mut out = Vec::new();
        for f in &h.accesses {
            if let Some(m) = against {
                if m.entails_access(&mut kb, f) {
                    continue;
                }
            }
            if h.covered_by_check(&mut kb, f) {
                continue;
            }
            if let Some(a) = excuse {
                if a.covers(&mut kb, f) {
                    continue;
                }
            }
            out.push(f.clone());
        }
        out
    }

    /// Checks the [`Fwd::pending`] accesses here, when placing.
    fn check_pending(
        &self,
        h: &mut History,
        against: Option<&History>,
        excuse: Option<&Anticipated>,
        out: &mut Vec<Stmt>,
    ) {
        if self.place {
            let facts = self.pending(h, against, excuse);
            self.emit(h, &facts, out);
        }
    }

    /// Emits a coalesced check for `facts` (if any) and records them as
    /// checked in `h`.
    fn emit(&self, h: &mut History, facts: &[PathFact], out: &mut Vec<Stmt>) {
        if facts.is_empty() {
            return;
        }
        let mut kb = h.kb();
        if let Some(stmt) = crate::coalesce::emit_check_opts(&mut kb, facts, self.opts.coalescing) {
            out.push(stmt);
        }
        for f in facts {
            h.add_check(f.clone());
        }
    }

    /// Freshness fallback: if `x` is still mentioned by the history
    /// (should not happen after the renaming pre-pass), check and drop the
    /// affected access facts so no pending check is lost.
    fn ensure_fresh(&self, h: &mut History, x: Sym, out: &mut Vec<Stmt>) {
        if !h.mentions(x) {
            return;
        }
        if self.place {
            let affected: Vec<PathFact> = {
                let mut kb = h.kb();
                h.accesses
                    .iter()
                    .filter(|f| f.path.mentions(x) && !h.covered_by_check(&mut kb, f))
                    .cloned()
                    .collect()
            };
            self.emit(h, &affected, out);
        }
        h.kill_var(x);
    }

    fn block(&mut self, stmts: &[Stmt], mut h: History) -> (Vec<Stmt>, History) {
        if let (0, Some(first)) = (self.simulating, stmts.first()) {
            self.tables.h_pre.insert(first.id, h.clone());
        }
        let mut out = Vec::new();
        for s in stmts {
            h = self.stmt(s, h, &mut out);
        }
        (out, h)
    }

    fn stmt(&mut self, s: &Stmt, mut h: History, out: &mut Vec<Stmt>) -> History {
        match &s.kind {
            StmtKind::Skip => {
                self.copy(s, out);
                h
            }
            StmtKind::Assign { x, e } => {
                self.ensure_fresh(&mut h, *x, out);
                if !e.mentions(*x) {
                    h.add_bool(eq_fact(*x, e));
                }
                self.copy(s, out);
                h
            }
            StmtKind::Rename { fresh, old } => {
                self.ensure_fresh(&mut h, *fresh, out);
                h.rename(*old, *fresh);
                self.copy(s, out);
                h
            }
            StmtKind::New { x, .. } => {
                self.ensure_fresh(&mut h, *x, out);
                h.kill_var(*x);
                self.copy(s, out);
                h
            }
            StmtKind::NewArray { x, len } => {
                self.ensure_fresh(&mut h, *x, out);
                h.kill_var(*x);
                if !len.mentions(*x) {
                    h.add_bool(Expr::Binop(
                        Binop::Eq,
                        Box::new(Expr::Len(*x)),
                        Box::new(len.clone()),
                    ));
                }
                self.copy(s, out);
                h
            }
            StmtKind::ReadField { x, obj, field } => {
                if self.facts.is_volatile(*field) {
                    // Volatile read: acquire-like synchronization; the
                    // access itself is not race-checked (§5).
                    self.check_pending(&mut h, None, None, out);
                    h.aliases.clear();
                    self.ensure_fresh(&mut h, *x, out);
                    h.kill_var(*x);
                    self.copy(s, out);
                    return h;
                }
                self.ensure_fresh(&mut h, *x, out);
                h.kill_var(*x);
                h.add_access(PathFact {
                    path: APath::Field {
                        base: *obj,
                        field: *field,
                    },
                    kind: AccessKind::Read,
                });
                h.add_alias(
                    *x,
                    AliasRhs::Field {
                        base: *obj,
                        field: *field,
                    },
                );
                self.copy(s, out);
                h
            }
            StmtKind::WriteField { obj, field, src } => {
                if self.facts.is_volatile(*field) {
                    // Volatile write: release-like synchronization.
                    self.check_pending(&mut h, None, self.a_post(s.id), out);
                    h.forget_accesses_and_checks();
                    let fld = *field;
                    h.aliases.retain(
                        |(_, rhs)| !matches!(rhs, AliasRhs::Field { field, .. } if *field == fld),
                    );
                    self.copy(s, out);
                    return h;
                }
                h.add_access(PathFact {
                    path: APath::Field {
                        base: *obj,
                        field: *field,
                    },
                    kind: AccessKind::Write,
                });
                // A same-thread write invalidates alias facts loaded from
                // this field (any base may alias `obj`).
                let fld = *field;
                h.aliases.retain(
                    |(_, rhs)| !matches!(rhs, AliasRhs::Field { field, .. } if *field == fld),
                );
                h.add_alias(
                    *src,
                    AliasRhs::Field {
                        base: *obj,
                        field: *field,
                    },
                );
                self.copy(s, out);
                h
            }
            StmtKind::ReadArr { x, arr, idx } => {
                self.ensure_fresh(&mut h, *x, out);
                h.kill_var(*x);
                self.copy(s, out);
                match linearize(idx) {
                    Some(l) => {
                        h.add_access(PathFact {
                            path: APath::Arr {
                                base: *arr,
                                range: SymRange::singleton(l.clone()),
                            },
                            kind: AccessKind::Read,
                        });
                        h.add_alias(
                            *x,
                            AliasRhs::Elem {
                                base: *arr,
                                index: l,
                            },
                        );
                    }
                    None => {
                        // Untrackable index: check immediately.
                        self.check_here(*arr, idx, AccessKind::Read, out);
                    }
                }
                h
            }
            StmtKind::WriteArr { arr, idx, src } => {
                self.copy(s, out);
                // Any array write invalidates element alias facts.
                h.aliases
                    .retain(|(_, rhs)| !matches!(rhs, AliasRhs::Elem { .. }));
                match linearize(idx) {
                    Some(l) => {
                        h.add_access(PathFact {
                            path: APath::Arr {
                                base: *arr,
                                range: SymRange::singleton(l.clone()),
                            },
                            kind: AccessKind::Write,
                        });
                        h.add_alias(
                            *src,
                            AliasRhs::Elem {
                                base: *arr,
                                index: l,
                            },
                        );
                    }
                    None => {
                        self.check_here(*arr, idx, AccessKind::Write, out);
                    }
                }
                h
            }
            StmtKind::Acquire { .. } | StmtKind::Join { .. } => {
                // [ACQ]: pre-anticipated is empty; every pending access
                // must be checked before the acquire. Accesses stay
                // pending afterwards (their legitimate range extends to
                // the next release); alias facts die (other threads'
                // writes become visible).
                self.check_pending(&mut h, None, None, out);
                h.aliases.clear();
                self.copy(s, out);
                h
            }
            StmtKind::Release { .. } => {
                // [REL]: anticipated accesses excuse pending checks; all
                // access and check facts are forgotten afterwards.
                self.check_pending(&mut h, None, self.a_post(s.id), out);
                h.forget_accesses_and_checks();
                self.copy(s, out);
                h
            }
            StmtKind::Fork { x, .. } => {
                self.check_pending(&mut h, None, self.a_post(s.id), out);
                h.forget_accesses_and_checks();
                self.ensure_fresh(&mut h, *x, out);
                h.kill_var(*x);
                self.copy(s, out);
                h
            }
            StmtKind::Call { x, meth, .. } => {
                let eff = self.facts.effects(*meth);
                if eff.acquires {
                    self.check_pending(&mut h, None, None, out);
                } else if eff.releases {
                    self.check_pending(&mut h, None, self.a_post(s.id), out);
                }
                if eff.releases {
                    h.forget_accesses_and_checks();
                }
                if eff.acquires || eff.writes_heap {
                    h.aliases.clear();
                }
                self.ensure_fresh(&mut h, *x, out);
                h.kill_var(*x);
                self.copy(s, out);
                h
            }
            StmtKind::Wait { .. } => {
                // Both a release and an acquire: every pending access must
                // be checked here, and nothing survives.
                self.check_pending(&mut h, None, None, out);
                h.forget_accesses_and_checks();
                h.aliases.clear();
                self.copy(s, out);
                h
            }
            StmtKind::Notify { .. } => {
                // The caller already holds the monitor; the wakeup edge
                // flows through the monitor's release, so no checks move.
                self.copy(s, out);
                h
            }
            StmtKind::Check { paths } => {
                // Pre-existing (hand-written) checks: record their √ facts.
                if self.place {
                    for cp in paths {
                        if let Some(aps) = APath::from_ast(&cp.path) {
                            for p in aps {
                                h.add_check(PathFact {
                                    path: p,
                                    kind: cp.kind,
                                });
                            }
                        }
                    }
                }
                self.copy(s, out);
                h
            }
            StmtKind::If {
                cond,
                then_b,
                else_b,
            } => {
                let mut h1 = h.clone();
                h1.add_bool(cond.clone());
                let mut h2 = h;
                h2.add_bool(negate(cond));
                let (mut rb1, mut h1p) = self.block(&then_b.stmts, h1);
                let (mut rb2, mut h2p) = self.block(&else_b.stmts, h2);
                // Accesses surviving the merge: entailed on both sides.
                let merged_hist = History {
                    accesses: merge_accesses(&h1p, &h2p),
                    ..History::new()
                };
                // Branch-end checks for forgotten accesses ([IF]).
                let a_out = self.a_post(s.id);
                self.check_pending(&mut h1p, Some(&merged_hist), a_out, &mut rb1);
                self.check_pending(&mut h2p, Some(&merged_hist), a_out, &mut rb2);
                let hout = merge(&h1p, &h2p, merged_hist.accesses);
                if self.place {
                    out.push(Stmt::new(StmtKind::If {
                        cond: cond.clone(),
                        then_b: Block { stmts: rb1 },
                        else_b: Block { stmts: rb2 },
                    }));
                }
                hout
            }
            StmtKind::Loop { head, exit, tail } => {
                let inv = match self.known_inv.and_then(|t| t.get(&s.id)) {
                    Some(inv) => inv.clone(),
                    None => self.infer_invariant(s.id, &h, head, exit, tail),
                };
                if self.simulating == 0 {
                    self.tables.loop_inv.insert(s.id, inv.clone());
                }
                let a_head = self.a_loop_head(s.id);
                // [LOOP] Cin: accesses of the entry context the invariant
                // forgets.
                self.check_pending(&mut h, Some(&inv), a_head, out);
                let (rhead, hj) = self.block(&head.stmts, inv.clone());
                let mut hout = hj.clone();
                hout.add_bool(exit.clone());
                let mut hback_pre = hj;
                hback_pre.add_bool(negate(exit));
                let (mut rtail, mut hback) = self.block(&tail.stmts, hback_pre);
                // [LOOP] Cback: accesses the back edge forgets.
                self.check_pending(&mut hback, Some(&inv), a_head, &mut rtail);
                if self.place {
                    out.push(Stmt::new(StmtKind::Loop {
                        head: Block { stmts: rhead },
                        exit: exit.clone(),
                        tail: Block { stmts: rtail },
                    }));
                }
                hout
            }
        }
    }

    /// Emits an immediate singleton check (for untrackable array indices).
    fn check_here(&self, arr: Sym, idx: &Expr, kind: AccessKind, out: &mut Vec<Stmt>) {
        if !self.place {
            return;
        }
        out.push(Stmt::new(StmtKind::Check {
            paths: vec![bigfoot_bfj::CheckPath {
                kind,
                path: bigfoot_bfj::Path::index(arr, idx.clone()),
            }],
        }));
    }

    // ---------------- loop invariants ----------------

    /// [`Fwd::compute_invariant`], memoized per loop statement and entry
    /// facts: the invariant reads no `√` fact of `h_in`.
    fn infer_invariant(
        &mut self,
        id: StmtId,
        h_in: &History,
        head: &Block,
        exit: &Expr,
        tail: &Block,
    ) -> History {
        let known = self.inv_memo.get(&id).and_then(|entries| {
            entries
                .iter()
                .find(|(entry, _)| same_history_facts(entry, h_in))
                .map(|(_, inv)| inv.clone())
        });
        if let Some(inv) = known {
            return inv;
        }
        let inv = self.compute_invariant(h_in, head, exit, tail);
        let entry = History {
            checks: Vec::new(),
            ..h_in.clone()
        };
        self.inv_memo
            .entry(id)
            .or_default()
            .push((entry, inv.clone()));
        inv
    }

    /// Infers the loop invariant history by Cartesian predicate
    /// abstraction: candidate facts from induction-variable analysis plus
    /// loop-invariant entry facts, pruned by a greatest fixed point over
    /// the loop body, which is simulated in history-only mode.
    fn compute_invariant(
        &mut self,
        h_in: &History,
        head: &Block,
        exit: &Expr,
        tail: &Block,
    ) -> History {
        let assigned = assigned_vars(head, tail);
        if !self.opts.loop_invariants {
            // Ablation: keep only loop-invariant boolean facts; no access
            // facts survive the loop head, so loop-body checks stay inside
            // the loop (no motion).
            let mut inv = History::new();
            for b in &h_in.bools {
                if !assigned.iter().any(|x| b.mentions(*x)) {
                    inv.add_bool(b.clone());
                }
            }
            return inv;
        }
        let body_eff = body_effects(head, tail, self.facts);
        let mut inv = History::new();
        // Loop-invariant entry facts.
        for b in &h_in.bools {
            if !assigned.iter().any(|x| b.mentions(*x)) {
                inv.add_bool(b.clone());
            }
        }
        if !body_eff.kills_aliases {
            for (x, rhs) in &h_in.aliases {
                let stable = !assigned.contains(x)
                    && match rhs {
                        AliasRhs::Field { base, field } => {
                            !assigned.contains(base) && !body_eff.written_fields.contains(field)
                        }
                        AliasRhs::Elem { base, .. } => {
                            !assigned.contains(base) && !body_eff.writes_arrays
                        }
                    };
                if stable {
                    inv.add_alias(*x, rhs.clone());
                }
            }
        }
        if !body_eff.releases {
            for f in &h_in.accesses {
                if !assigned.iter().any(|x| f.path.mentions(*x)) {
                    inv.add_access(f.clone());
                }
            }
        }
        // Induction-driven candidates.
        for ind in detect_induction(head, tail) {
            let Some(e0) = initial_value(h_in, ind.var, &assigned) else {
                continue;
            };
            let c = ind.step;
            // Bound and divisibility facts.
            let e0x = e0.to_expr();
            if c > 0 {
                inv.add_bool(Expr::Binop(
                    Binop::Ge,
                    Box::new(Expr::Var(ind.var)),
                    Box::new(e0x.clone()),
                ));
            } else {
                inv.add_bool(Expr::Binop(
                    Binop::Le,
                    Box::new(Expr::Var(ind.var)),
                    Box::new(e0x.clone()),
                ));
            }
            if c.abs() > 1 {
                inv.add_bool(Expr::Binop(
                    Binop::Eq,
                    Box::new(Expr::Binop(
                        Binop::Mod,
                        Box::new(Expr::sub(Expr::Var(ind.var), e0x.clone())),
                        Box::new(Expr::Int(c.abs())),
                    )),
                    Box::new(Expr::Int(0)),
                ));
            }
            // Range candidates from unconditional array accesses indexed
            // by the induction variable.
            for acc in unconditional_accesses(head, tail) {
                let APath::Arr { base, range } = &acc.path else {
                    continue;
                };
                if assigned.contains(base) || !range.is_singleton_shape() {
                    continue;
                }
                let f = &range.lo;
                let k = f.coeff(bigfoot_entail::Atom::Var(ind.var));
                // Other atoms of the index must be loop-invariant. Opaque
                // (non-linear) atoms such as `i * n` qualify when none of
                // their variables is assigned in the loop — this is what
                // lets row sweeps over flattened matrices (`m[i*n + j]`)
                // coalesce per row.
                let others_stable = f.atoms().all(|a| match a {
                    bigfoot_entail::Atom::Var(v) => v == ind.var || !assigned.contains(&v),
                    bigfoot_entail::Atom::Len(v) => !assigned.contains(&v),
                    bigfoot_entail::Atom::Opaque(s) => match bigfoot_bfj::parse_expr(s.as_str()) {
                        Ok(e) => {
                            let mut vs = Vec::new();
                            e.vars(&mut vs);
                            vs.iter().all(|v| *v != ind.var && !assigned.contains(v))
                        }
                        Err(_) => false,
                    },
                });
                if k == 0 || !others_stable {
                    continue;
                }
                let s = k * c; // index stride per iteration
                let f0 = crate::facts::subst_lin(f, ind.var, &e0);
                let range = if s > 0 {
                    SymRange {
                        lo: f0,
                        hi: f.clone(),
                        step: s,
                    }
                } else {
                    SymRange {
                        lo: f.sub(&Lin::constant(s)),
                        hi: f0.offset(1),
                        step: -s,
                    }
                };
                inv.add_access(PathFact {
                    path: APath::Arr { base: *base, range },
                    kind: acc.kind,
                });
            }
        }
        // Greatest fixed point: prune candidates until entry and back edge
        // both establish them.
        bigfoot_obs::count!("static.loop_invariant.loops");
        let place = std::mem::replace(&mut self.place, false);
        self.simulating += 1;
        let mut stable = false;
        for _ in 0..MAX_INV_ITERS {
            bigfoot_obs::count!("static.loop_invariant.iterations");
            let before = (inv.bools.len(), inv.aliases.len(), inv.accesses.len());
            // Entry.
            prune_by(&mut inv, h_in);
            // Back edge: simulate the body from the candidate invariant.
            let (_, hj) = self.block(&head.stmts, inv.clone());
            let mut hb = hj;
            hb.add_bool(negate(exit));
            let (_, hback) = self.block(&tail.stmts, hb);
            prune_by(&mut inv, &hback);
            if before == (inv.bools.len(), inv.aliases.len(), inv.accesses.len()) {
                stable = true;
                break;
            }
        }
        if !stable {
            bigfoot_obs::count!("static.budget.inv_iters");
        }
        self.simulating -= 1;
        self.place = place;
        inv
    }
}

/// Removes candidate facts of `inv` not entailed by `ctx`.
fn prune_by(inv: &mut History, ctx: &History) {
    let mut kb = ctx.kb();
    inv.bools.retain(|b| kb.entails(b));
    inv.aliases.retain(|al| ctx.aliases.contains(al));
    let accesses = std::mem::take(&mut inv.accesses);
    inv.accesses = accesses
        .into_iter()
        .filter(|f| ctx.entails_access(&mut kb, f))
        .collect();
}

/// Access facts surviving a branch merge: entailed on both sides.
fn merge_accesses(h1: &History, h2: &History) -> Vec<PathFact> {
    let mut kb1 = h1.kb();
    let mut kb2 = h2.kb();
    let mut out: Vec<PathFact> = Vec::new();
    for f in h1.accesses.iter().chain(h2.accesses.iter()) {
        if out.contains(f) {
            continue;
        }
        if h1.entails_access(&mut kb1, f) && h2.entails_access(&mut kb2, f) {
            out.push(f.clone());
        }
    }
    out
}

/// Full history merge at a branch join (`⊓`).
fn merge(h1: &History, h2: &History, merged_accesses: Vec<PathFact>) -> History {
    let mut kb1 = h1.kb();
    let mut kb2 = h2.kb();
    let mut out = History::new();
    for b in h1.bools.iter().chain(h2.bools.iter()) {
        if !out.bools.contains(b) && kb1.entails(b) && kb2.entails(b) {
            out.add_bool(b.clone());
        }
    }
    for al in &h1.aliases {
        if h2.aliases.contains(al) {
            out.add_alias(al.0, al.1.clone());
        }
    }
    out.accesses = merged_accesses;
    for c in h1.checks.iter().chain(h2.checks.iter()) {
        if !out.checks.contains(c)
            && h1.covered_by_check(&mut kb1, c)
            && h2.covered_by_check(&mut kb2, c)
        {
            out.add_check(c.clone());
        }
    }
    out
}

// ---------------- syntactic body scans ----------------

fn assigned_vars(head: &Block, tail: &Block) -> HashSet<Sym> {
    let mut out = HashSet::new();
    fn walk(b: &Block, out: &mut HashSet<Sym>) {
        for s in &b.stmts {
            match &s.kind {
                StmtKind::Assign { x, .. }
                | StmtKind::New { x, .. }
                | StmtKind::NewArray { x, .. }
                | StmtKind::ReadField { x, .. }
                | StmtKind::ReadArr { x, .. }
                | StmtKind::Call { x, .. }
                | StmtKind::Fork { x, .. } => {
                    out.insert(*x);
                }
                StmtKind::Rename { fresh, .. } => {
                    out.insert(*fresh);
                }
                _ => {}
            }
            match &s.kind {
                StmtKind::If { then_b, else_b, .. } => {
                    walk(then_b, out);
                    walk(else_b, out);
                }
                StmtKind::Loop { head, tail, .. } => {
                    walk(head, out);
                    walk(tail, out);
                }
                _ => {}
            }
        }
    }
    walk(head, &mut out);
    walk(tail, &mut out);
    out
}

/// Effects of a loop body relevant to invariant candidates.
struct BodyEffects {
    releases: bool,
    kills_aliases: bool,
    writes_arrays: bool,
    written_fields: HashSet<Sym>,
}

fn body_effects(head: &Block, tail: &Block, facts: FactView<'_>) -> BodyEffects {
    let mut eff = BodyEffects {
        releases: false,
        kills_aliases: false,
        writes_arrays: false,
        written_fields: HashSet::new(),
    };
    fn walk(b: &Block, eff: &mut BodyEffects, facts: FactView<'_>) {
        for s in &b.stmts {
            match &s.kind {
                StmtKind::Release { .. } | StmtKind::Fork { .. } => eff.releases = true,
                StmtKind::Acquire { .. } | StmtKind::Join { .. } => eff.kills_aliases = true,
                StmtKind::Wait { .. } => {
                    eff.releases = true;
                    eff.kills_aliases = true;
                }
                StmtKind::WriteArr { .. } => eff.writes_arrays = true,
                StmtKind::WriteField { field, .. } => {
                    eff.written_fields.insert(*field);
                }
                StmtKind::Call { meth, .. } => {
                    let e = facts.effects(*meth);
                    if e.releases {
                        eff.releases = true;
                    }
                    if e.acquires || e.writes_heap {
                        eff.kills_aliases = true;
                    }
                    if e.writes_heap {
                        eff.writes_arrays = true;
                    }
                }
                StmtKind::If { then_b, else_b, .. } => {
                    walk(then_b, eff, facts);
                    walk(else_b, eff, facts);
                }
                StmtKind::Loop { head, tail, .. } => {
                    walk(head, eff, facts);
                    walk(tail, eff, facts);
                }
                _ => {}
            }
        }
    }
    walk(head, &mut eff, facts);
    walk(tail, &mut eff, facts);
    eff
}

/// A detected linear induction variable: `var = var' + step` once per
/// iteration, at the top level of the body.
struct Induction {
    var: Sym,
    step: i64,
}

fn detect_induction(head: &Block, tail: &Block) -> Vec<Induction> {
    let mut assignment_counts: HashMap<Sym, usize> = HashMap::new();
    fn count(b: &Block, m: &mut HashMap<Sym, usize>) {
        for s in &b.stmts {
            if let StmtKind::Assign { x, .. } = &s.kind {
                *m.entry(*x).or_default() += 1;
            }
            match &s.kind {
                StmtKind::If { then_b, else_b, .. } => {
                    count(then_b, m);
                    count(else_b, m);
                }
                StmtKind::Loop { head, tail, .. } => {
                    count(head, m);
                    count(tail, m);
                }
                _ => {}
            }
        }
    }
    count(head, &mut assignment_counts);
    count(tail, &mut assignment_counts);

    let mut out = Vec::new();
    let mut renames: HashMap<Sym, Sym> = HashMap::new(); // old -> fresh
    for s in head.stmts.iter().chain(tail.stmts.iter()) {
        match &s.kind {
            StmtKind::Rename { fresh, old } => {
                renames.insert(*old, *fresh);
            }
            StmtKind::Assign { x, e } => {
                let Some(xp) = renames.get(x).copied() else {
                    continue;
                };
                if assignment_counts.get(x) != Some(&1) {
                    continue;
                }
                let Some(l) = linearize(e) else { continue };
                let mut expected = Lin::var(xp);
                expected.konst = l.konst;
                if l == expected && l.konst != 0 {
                    out.push(Induction {
                        var: *x,
                        step: l.konst,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// The induction variable's symbolic initial value, from an entry equality
/// fact `x == E` with loop-invariant `E`.
fn initial_value(h_in: &History, x: Sym, assigned: &HashSet<Sym>) -> Option<Lin> {
    for b in &h_in.bools {
        if let Expr::Binop(Binop::Eq, lhs, rhs) = b {
            let (l, r) = (lhs.as_ref(), rhs.as_ref());
            for (a, bexp) in [(l, r), (r, l)] {
                if let Expr::Var(v) = a {
                    if *v == x && !bexp.mentions(x) {
                        let mut vars = Vec::new();
                        bexp.vars(&mut vars);
                        if vars.iter().all(|v| !assigned.contains(v)) {
                            if let Some(lin) = linearize(bexp) {
                                return Some(lin);
                            }
                        }
                    }
                }
            }
        }
    }
    None
}

/// Heap accesses performed unconditionally on every iteration: top-level
/// statements of the head and tail (not under conditionals or nested
/// loops).
fn unconditional_accesses(head: &Block, tail: &Block) -> Vec<PathFact> {
    let mut out = Vec::new();
    for s in head.stmts.iter().chain(tail.stmts.iter()) {
        match &s.kind {
            StmtKind::ReadArr { arr, idx, .. } => {
                if let Some(l) = linearize(idx) {
                    out.push(PathFact {
                        path: APath::Arr {
                            base: *arr,
                            range: SymRange::singleton(l),
                        },
                        kind: AccessKind::Read,
                    });
                }
            }
            StmtKind::WriteArr { arr, idx, .. } => {
                if let Some(l) = linearize(idx) {
                    out.push(PathFact {
                        path: APath::Arr {
                            base: *arr,
                            range: SymRange::singleton(l),
                        },
                        kind: AccessKind::Write,
                    });
                }
            }
            _ => {}
        }
    }
    out
}
