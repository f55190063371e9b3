//! The backward *anticipated accesses* pass (the `✸` component of Fig. 7).
//!
//! An access is anticipated at a point if it occurs on every forward path
//! before the next acquire-like operation. Anticipated accesses let the
//! forward pass defer (or skip) checks: a pending past access whose
//! location will certainly be accessed again is covered by the future
//! access's check.
//!
//! Loops are a greatest fixed point over the loop body. The iterations run
//! *quiet*: a depth counter keeps them from recording per-statement
//! tables, and only the final pass with the converged head set records. A
//! loop's transfer is a pure function of the anticipated set after the
//! loop (the history tables are fixed for the whole pass), so it is
//! memoized per (loop statement, incoming set): a loop nested in another is
//! solved once per distinct incoming set instead of once per iteration of
//! every enclosing fixed point.
//!
//! The histories that sharpen the meets at joins come from the forward
//! pre-pass ([`crate::forward::record_histories`]), which records them at
//! the start of every branch and loop body.

use crate::facts::{APath, Anticipated, History, PathFact};
use crate::killset::KillSets;
use crate::readset::FactView;
use bigfoot_bfj::{AccessKind, Block, Expr, Stmt, StmtId, StmtKind};
use bigfoot_entail::{linearize, SymRange};
use std::collections::HashMap;

/// Maximum greatest-fixed-point iterations for loop anticipation.
const MAX_LOOP_ITERS: usize = 8;

/// Anticipated sets computed per program point.
#[derive(Debug, Default)]
pub struct ATables {
    /// Anticipated set immediately before each statement.
    pub pre: HashMap<StmtId, Anticipated>,
    /// Anticipated set immediately after each statement.
    pub post: HashMap<StmtId, Anticipated>,
    /// For each loop statement: the anticipated set at the loop head.
    pub loop_head: HashMap<StmtId, Anticipated>,
}

/// Runs the backward pass over a method body.
///
/// `h_pre` gives the history (bool/alias facts) before each statement,
/// from the forward pre-pass; it sharpens the entailment used when merging
/// anticipated sets at joins.
pub fn anticipate_body(
    body: &Block,
    kills: &KillSets,
    volatiles: &std::collections::HashSet<bigfoot_bfj::Sym>,
    h_pre: &HashMap<StmtId, History>,
) -> ATables {
    anticipate_body_view(body, FactView::new(kills, volatiles), h_pre)
}

/// [`anticipate_body`] over a [`FactView`], which may log every
/// cross-method fact query into a read-set for incremental re-analysis.
pub fn anticipate_body_view(
    body: &Block,
    facts: FactView<'_>,
    h_pre: &HashMap<StmtId, History>,
) -> ATables {
    let mut bw = BackwardPass {
        facts,
        h_pre,
        quiet: 0,
        loops: HashMap::new(),
        tables: ATables::default(),
    };
    // Nothing is anticipated at method end.
    bw.block(body, Anticipated::new());
    bw.tables
}

/// One solved loop: the anticipated set after it, the converged head set,
/// and the set before it.
struct LoopSolution {
    after: Anticipated,
    head: Anticipated,
    before: Anticipated,
}

struct BackwardPass<'a> {
    facts: FactView<'a>,
    h_pre: &'a HashMap<StmtId, History>,
    /// Nesting depth of fixed-point iterations; tables record only at 0.
    quiet: usize,
    /// Solved loops per loop statement.
    loops: HashMap<StmtId, Vec<LoopSolution>>,
    tables: ATables,
}

impl<'a> BackwardPass<'a> {
    /// Processes a block backward; returns the anticipated set at its
    /// start.
    fn block(&mut self, b: &Block, post: Anticipated) -> Anticipated {
        let mut a = post;
        for s in b.stmts.iter().rev() {
            a = self.stmt(s, a);
        }
        a
    }

    fn stmt(&mut self, s: &Stmt, post: Anticipated) -> Anticipated {
        if self.quiet > 0 {
            return self.transfer(s, post);
        }
        self.tables.post.insert(s.id, post.clone());
        let pre = self.transfer(s, post);
        self.tables.pre.insert(s.id, pre.clone());
        pre
    }

    fn transfer(&mut self, s: &Stmt, mut a: Anticipated) -> Anticipated {
        match &s.kind {
            StmtKind::Skip | StmtKind::Check { .. } => a,
            StmtKind::Assign { x, e } => {
                a.subst(*x, e);
                a
            }
            StmtKind::Rename { fresh, old } => {
                a.subst(*fresh, &Expr::Var(*old));
                a
            }
            StmtKind::New { x, .. } | StmtKind::NewArray { x, .. } => {
                // A fresh allocation cannot alias anything anticipated;
                // facts naming x refer to the new object.
                a.kill_var(*x);
                a
            }
            StmtKind::ReadField { x, obj, field } => {
                if self.facts.is_volatile(*field) {
                    // Acquire-like: kills all anticipation.
                    return Anticipated::new();
                }
                a.kill_var(*x);
                a.add(PathFact {
                    path: APath::Field {
                        base: *obj,
                        field: *field,
                    },
                    kind: AccessKind::Read,
                });
                a
            }
            StmtKind::WriteField { obj, field, .. } => {
                if self.facts.is_volatile(*field) {
                    // Release-like: anticipation flows through unchanged,
                    // but the volatile access itself is never anticipated.
                    return a;
                }
                a.add(PathFact {
                    path: APath::Field {
                        base: *obj,
                        field: *field,
                    },
                    kind: AccessKind::Write,
                });
                a
            }
            StmtKind::ReadArr { x, arr, idx } => {
                a.kill_var(*x);
                if let Some(l) = linearize(idx) {
                    a.add(PathFact {
                        path: APath::Arr {
                            base: *arr,
                            range: SymRange::singleton(l),
                        },
                        kind: AccessKind::Read,
                    });
                }
                a
            }
            StmtKind::WriteArr { arr, idx, .. } => {
                if let Some(l) = linearize(idx) {
                    a.add(PathFact {
                        path: APath::Arr {
                            base: *arr,
                            range: SymRange::singleton(l),
                        },
                        kind: AccessKind::Write,
                    });
                }
                a
            }
            // Acquire-like operations kill all anticipation: a check
            // covering an earlier access must happen before the next
            // acquire, so accesses beyond it cannot stand in.
            StmtKind::Acquire { .. } | StmtKind::Join { .. } | StmtKind::Wait { .. } => {
                Anticipated::new()
            }
            StmtKind::Release { .. } | StmtKind::Notify { .. } => a,
            StmtKind::Fork { x, .. } => {
                a.kill_var(*x);
                a
            }
            StmtKind::Call { x, meth, .. } => {
                if self.facts.effects(*meth).acquires {
                    Anticipated::new()
                } else {
                    a.kill_var(*x);
                    a
                }
            }
            StmtKind::If { then_b, else_b, .. } => {
                let a1 = self.block(then_b, a.clone());
                let a2 = self.block(else_b, a);
                let h1 = self.block_context(then_b.stmts.first());
                let h2 = self.block_context(else_b.stmts.first());
                meet(&a1, h1, &a2, h2)
            }
            StmtKind::Loop { head, tail, .. } => {
                let solved = self
                    .loops
                    .get(&s.id)
                    .and_then(|solved| solved.iter().find(|sol| sol.after == a));
                let known_head = match solved {
                    Some(sol) if self.quiet > 0 => return sol.before.clone(),
                    Some(sol) => Some(sol.head.clone()),
                    None => None,
                };
                // The history at the loop head, for the meets inside the loop.
                let h_ctx = self.block_context(head.stmts.first().or(tail.stmts.first()));
                let is_new = known_head.is_none();
                let a_head =
                    known_head.unwrap_or_else(|| self.loop_head_fixpoint(head, tail, &a, h_ctx));
                // One more pass with the converged head set yields the set
                // before the loop and, outside fixed-point iterations,
                // records the per-statement tables.
                let a_tail_pre = self.block(tail, a_head.clone());
                let a_junction = meet(&a, h_ctx, &a_tail_pre, h_ctx);
                let a_pre = self.block(head, a_junction);
                if self.quiet == 0 {
                    self.tables.loop_head.insert(s.id, a_head.clone());
                }
                if is_new {
                    self.loops.entry(s.id).or_default().push(LoopSolution {
                        after: a,
                        head: a_head,
                        before: a_pre.clone(),
                    });
                }
                a_pre
            }
        }
    }

    /// The pre-pass history at the start of the block that begins with
    /// `first` (empty when unrecorded).
    fn block_context(&self, first: Option<&Stmt>) -> &'a History {
        static EMPTY: History = History {
            bools: Vec::new(),
            aliases: Vec::new(),
            accesses: Vec::new(),
            checks: Vec::new(),
        };
        first.and_then(|s| self.h_pre.get(&s.id)).unwrap_or(&EMPTY)
    }

    /// The loop-head anticipated set: the greatest fixed point of
    ///   A_head = bw(head, meet(A_out, bw(tail, A_head)))
    /// where A_out is the anticipated set after the loop, seeded with the
    /// accesses the body performs. Iterations record no tables.
    fn loop_head_fixpoint(
        &mut self,
        head: &Block,
        tail: &Block,
        a: &Anticipated,
        h_ctx: &History,
    ) -> Anticipated {
        let mut a_head = seed_candidates(head, tail);
        self.quiet += 1;
        let mut stable = false;
        for _ in 0..MAX_LOOP_ITERS {
            let a_tail_pre = self.block(tail, a_head.clone());
            let a_junction = meet(a, h_ctx, &a_tail_pre, h_ctx);
            let next = intersect_entailed(&self.block(head, a_junction), &a_head, h_ctx);
            if next == a_head {
                stable = true;
                break;
            }
            a_head = next;
        }
        if !stable {
            bigfoot_obs::count!("static.budget.loop_iters");
        }
        self.quiet -= 1;
        a_head
    }
}

/// The meet of two anticipated sets under their histories: a fact survives
/// if both sides anticipate an access covering it.
fn meet(a1: &Anticipated, h1: &History, a2: &Anticipated, h2: &History) -> Anticipated {
    let mut kb1 = h1.kb();
    let mut kb2 = h2.kb();
    let mut out = Anticipated::new();
    for f in a1.facts.iter().chain(a2.facts.iter()) {
        if a1.covers(&mut kb1, f) && a2.covers(&mut kb2, f) {
            out.add(f.clone());
        }
    }
    out
}

/// Keeps the facts of `a` entailed by `bound` (forcing fixed-point
/// descent).
fn intersect_entailed(a: &Anticipated, bound: &Anticipated, h: &History) -> Anticipated {
    let mut kb = h.kb();
    let mut out = Anticipated::new();
    for f in &a.facts {
        if bound.covers(&mut kb, f) {
            out.add(f.clone());
        }
    }
    out
}

/// Seeds the loop-head anticipation with every access path syntactically
/// occurring in the loop body (the greatest plausible set, pruned by the
/// fixed point).
fn seed_candidates(head: &Block, tail: &Block) -> Anticipated {
    let mut a = Anticipated::new();
    collect(head, &mut a);
    collect(tail, &mut a);
    a
}

fn collect(b: &Block, a: &mut Anticipated) {
    // Note: volatile accesses never enter the seed — the fixed point would
    // prune them anyway (the transfer returns ∅ at the access), but keeping
    // them out makes convergence faster. The seed here is syntactic; the
    // GFP against the real transfer functions is what guarantees soundness.
    for s in &b.stmts {
        match &s.kind {
            StmtKind::ReadField { obj, field, .. } => a.add(PathFact {
                path: APath::Field {
                    base: *obj,
                    field: *field,
                },
                kind: AccessKind::Read,
            }),
            StmtKind::WriteField { obj, field, .. } => a.add(PathFact {
                path: APath::Field {
                    base: *obj,
                    field: *field,
                },
                kind: AccessKind::Write,
            }),
            StmtKind::ReadArr { arr, idx, .. } => {
                if let Some(l) = linearize(idx) {
                    a.add(PathFact {
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
                    a.add(PathFact {
                        path: APath::Arr {
                            base: *arr,
                            range: SymRange::singleton(l),
                        },
                        kind: AccessKind::Write,
                    });
                }
            }
            StmtKind::If { then_b, else_b, .. } => {
                collect(then_b, a);
                collect(else_b, a);
            }
            StmtKind::Loop { head, tail, .. } => {
                collect(head, a);
                collect(tail, a);
            }
            _ => {}
        }
    }
}

/// Convenience: the variable `x` (test helper naming).
#[cfg(test)]
pub(crate) fn var(x: &str) -> bigfoot_bfj::Sym {
    bigfoot_bfj::Sym::intern(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rename::freshen_body;
    use bigfoot_bfj::parse_program;

    /// Runs the backward pass on `main` of `src` (after freshening) and
    /// returns (body, tables).
    fn run(src: &str) -> (Block, ATables) {
        let mut p = parse_program(src).unwrap();
        let mut body = std::mem::take(&mut p.main);
        freshen_body(&mut body, &[]);
        p.main = body.clone();
        p.renumber();
        let body = p.main.clone();
        let kills = KillSets::compute(&p);
        let volatiles = crate::killset::volatile_fields(&p);
        let tables = anticipate_body(&body, &kills, &volatiles, &HashMap::new());
        (body, tables)
    }

    fn renders(a: &Anticipated) -> String {
        a.render()
    }

    #[test]
    fn straightline_anticipation_flows_backward() {
        let (body, t) = run("class C { field f; }
             main { c = new C; x = c.f; y = c.f; }");
        // Before the first read, c.f(r) is anticipated (from both reads).
        let first_read = &body.stmts[1];
        let pre = &t.pre[&first_read.id];
        assert!(renders(pre).contains("c.f(r)"), "{}", renders(pre));
    }

    #[test]
    fn acquire_kills_anticipation() {
        let (body, t) = run("class C { field f; }
             class L { }
             main { c = new C; l = new L; acq(l); x = c.f; rel(l); }");
        // Before the acquire nothing is anticipated.
        let acq = &body.stmts[2];
        assert!(matches!(acq.kind, StmtKind::Acquire { .. }));
        assert!(t.pre[&acq.id].facts.is_empty());
        // After the acquire, the read is anticipated.
        assert!(renders(&t.post[&acq.id]).contains("c.f(r)"));
    }

    #[test]
    fn release_preserves_anticipation() {
        let (body, t) = run("class C { field f; }
             class L { }
             main { c = new C; l = new L; acq(l); rel(l); x = c.f; }");
        // The read of c.f after the release is still anticipated before
        // the release (releases are not anticipation boundaries)...
        let rel = body
            .stmts
            .iter()
            .find(|s| matches!(s.kind, StmtKind::Release { .. }))
            .unwrap();
        assert!(renders(&t.pre[&rel.id]).contains("c.f(r)"));
        // ...but not before the acquire.
        let acq = body
            .stmts
            .iter()
            .find(|s| matches!(s.kind, StmtKind::Acquire { .. }))
            .unwrap();
        assert!(t.pre[&acq.id].facts.is_empty());
    }

    #[test]
    fn loop_head_anticipates_body_accesses() {
        // Fig. 6(b): at the loop head both b.f and a[i] are anticipated.
        let (body, t) = run("class B { field f; }
             main {
                 b = new B;
                 a = new_array(10);
                 i = 0;
                 while (i < 10) {
                     tv = b.f;
                     a[i] = tv;
                     i = i + 1;
                 }
             }");
        fn find_loop(b: &Block) -> Option<&Stmt> {
            for s in &b.stmts {
                match &s.kind {
                    StmtKind::Loop { .. } => return Some(s),
                    StmtKind::If { then_b, else_b, .. } => {
                        if let Some(l) = find_loop(then_b).or_else(|| find_loop(else_b)) {
                            return Some(l);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        let loop_stmt = find_loop(&body).expect("rotated loop");
        let head = &t.loop_head[&loop_stmt.id];
        let txt = renders(head);
        assert!(txt.contains("b.f(r)"), "{txt}");
        assert!(txt.contains("a[i]"), "{txt}");
    }

    #[test]
    fn conditional_meet_keeps_common_accesses() {
        let (body, t) = run("class C { field f; field g; }
             main {
                 c = new C;
                 p = 1;
                 if (p > 0) { x = c.f; y = c.g; } else { z = c.f; }
             }");
        let if_stmt = body
            .stmts
            .iter()
            .find(|s| matches!(s.kind, StmtKind::If { .. }))
            .unwrap();
        let pre = renders(&t.pre[&if_stmt.id]);
        assert!(pre.contains("c.f(r)"), "{pre}");
        assert!(!pre.contains("c.g"), "{pre}");
    }

    #[test]
    fn write_anticipation_covers_reads_at_meet() {
        // One branch writes c.f, the other reads it: the write covers the
        // read, so c.f(r) survives the meet.
        let (body, t) = run("class C { field f; }
             main {
                 c = new C;
                 p = 1;
                 v = 5;
                 if (p > 0) { c.f = v; } else { z = c.f; }
             }");
        let if_stmt = body
            .stmts
            .iter()
            .find(|s| matches!(s.kind, StmtKind::If { .. }))
            .unwrap();
        let pre = renders(&t.pre[&if_stmt.id]);
        assert!(pre.contains("c.f(r)"), "{pre}");
        assert!(!pre.contains("c.f(w)"), "{pre}");
    }

    #[test]
    fn assignment_substitutes_into_ranges() {
        let (body, t) = run("main {
                 a = new_array(10);
                 j = 3;
                 i = j + 1;
                 x = a[i];
             }");
        // Before `i = j + 1`, the anticipated access is a[j + 1].
        let assign = body
            .stmts
            .iter()
            .find(|s| matches!(&s.kind, StmtKind::Assign { x, .. } if *x == var("i")))
            .unwrap();
        let pre = renders(&t.pre[&assign.id]);
        assert!(pre.contains("a[j + 1]"), "{pre}");
    }
}
