//! The whole-program ownership pass: deletes check paths on abstract
//! locations that provably cannot race.
//!
//! A location is an allocation site, refined by field for objects (all
//! elements of an array site are one location). The pass rests on a
//! flow-insensitive, context-insensitive allocation-site points-to
//! analysis over locals, parameters, `this`, returns, fields and array
//! elements, solved to a fixed point under a step budget; exhausting the
//! budget prunes nothing.
//!
//! It prunes only in *concurrent code*: every method reachable through
//! calls from a fork target, and `main` from its first top-level statement
//! that may fork (a loop containing a fork counts whole) together with the
//! methods called from there. Everything else runs on the main thread
//! before any other thread exists, so it happens before every access of
//! every other thread. A path on site A in concurrent code is deleted when
//! each location it names satisfies one of:
//!
//! * **R1, thread-local** — no field, array element, fork receiver or fork
//!   argument may point to A, so only the allocating thread reaches it;
//! * **R2, lock-owned** — every access to the location in concurrent code
//!   happens while its method must-hold the same singleton lock site L
//!   (a `new` in `main` outside every loop, acquired through variables
//!   whose points-to set is exactly `{L}`);
//! * **R3, read-only after fork** — nothing in concurrent code writes the
//!   location (read paths only).
//!
//! Each rule leaves the location with no data race in any trace, and the
//! checks that survive on it never conflict, so "data race iff check race"
//! still holds for the pruned program (DESIGN.md gives the argument).

use bigfoot_bfj::{AccessKind, Block, CheckPath, Expr, Path, Program, Stmt, StmtKind, Sym};
use bigfoot_obs::fx::FxHashMap as HashMap;
use std::collections::HashSet;

/// Points-to solver budget, in constraint and site visits. The suite's
/// largest program needs a few thousand.
const MAX_STEPS: usize = 1 << 20;

/// Which rule proved a location race-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OwnershipRule {
    /// R1: no other thread can reach the allocation site's objects.
    Local,
    /// R2: every concurrent access holds one singleton lock.
    Locked,
    /// R3: no concurrent write (read paths only).
    ReadOnly,
}

impl OwnershipRule {
    /// The rule's name in reports and obs counters.
    pub fn name(self) -> &'static str {
        match self {
            OwnershipRule::Local => "local",
            OwnershipRule::Locked => "locked",
            OwnershipRule::ReadOnly => "readonly",
        }
    }
}

/// An allocation site: the `ordinal`-th `new`/`new_array` statement, in
/// pre-order, of one method body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocSite {
    /// `(class index, method index)`, or `None` for `main`.
    pub method: Option<(usize, usize)>,
    /// Pre-order position among the body's allocation statements.
    pub ordinal: usize,
}

impl AllocSite {
    /// `Class.method` or `main`, resolved against `p`.
    pub fn method_label(&self, p: &Program) -> String {
        match self.method {
            Some((ci, mi)) => format!("{}.{}", p.classes[ci].name, p.classes[ci].methods[mi].name),
            None => "main".to_owned(),
        }
    }

    /// The allocation statement's id in `p`, which must have the same
    /// allocation statements as the analyzed program (the source program
    /// does: placement inserts and deletes no allocation).
    pub fn stmt_in(&self, p: &Program) -> Option<bigfoot_bfj::StmtId> {
        let body = match self.method {
            Some((ci, mi)) => &p.classes.get(ci)?.methods.get(mi)?.body,
            None => &p.main,
        };
        let mut ids = Vec::new();
        for_each_stmt(&body.stmts, &mut |s| {
            if matches!(s.kind, StmtKind::New { .. } | StmtKind::NewArray { .. }) {
                ids.push(s.id);
            }
        });
        ids.get(self.ordinal).copied()
    }
}

/// One location whose check paths the pass deleted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedLocation {
    /// The allocation site.
    pub site: AllocSite,
    /// The field, or `None` for the elements of an array site.
    pub field: Option<Sym>,
    /// The rule that cleared the location.
    pub rule: OwnershipRule,
    /// For [`OwnershipRule::Locked`], the lock's allocation site.
    pub lock: Option<AllocSite>,
    /// Deleted check paths that named this location.
    pub paths: usize,
}

/// What one run of the pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OwnershipReport {
    /// Every location with deleted paths, in site then field order.
    pub locations: Vec<OwnedLocation>,
    /// Deleted paths per rule, indexed by `OwnershipRule as usize`; a path
    /// over several locations counts under the weakest rule among them
    /// (R1 before R2 before R3).
    pub paths_removed: [usize; 3],
    /// The points-to budget ran out, so nothing was pruned.
    pub budget_hit: bool,
}

impl OwnershipReport {
    /// Total deleted check paths.
    pub fn total_removed(&self) -> usize {
        self.paths_removed.iter().sum()
    }
}

/// Runs the ownership pass over a placed program, deleting check paths in
/// place (empty checks and the renames that fed only deleted paths are
/// left for `cleanup_program`). `volatiles` is the program-wide volatile
/// field set; volatile accesses are synchronization, not data accesses.
pub(crate) fn prune_owned(p: &mut Program, volatiles: &HashSet<Sym>) -> OwnershipReport {
    let _span = bigfoot_obs::span!("static.ownership");
    let mut report = OwnershipReport::default();
    match Analysis::run(p, volatiles) {
        Some(a) => a.prune(p, &mut report),
        None => report.budget_hit = true,
    }
    bigfoot_obs::count!(
        "static.ownership.paths_removed.local",
        report.paths_removed[OwnershipRule::Local as usize]
    );
    bigfoot_obs::count!(
        "static.ownership.paths_removed.locked",
        report.paths_removed[OwnershipRule::Locked as usize]
    );
    bigfoot_obs::count!(
        "static.ownership.paths_removed.readonly",
        report.paths_removed[OwnershipRule::ReadOnly as usize]
    );
    bigfoot_obs::count!("static.ownership.budget_hits", report.budget_hit as u64);
    report
}

// ---------------------------------------------------------------- sets

/// A set of allocation-site indices.
#[derive(Debug, Clone, Default)]
struct Sites(Vec<u64>);

impl PartialEq for Sites {
    fn eq(&self, other: &Sites) -> bool {
        let n = self.0.len().max(other.0.len());
        (0..n).all(|i| self.0.get(i).unwrap_or(&0) == other.0.get(i).unwrap_or(&0))
    }
}

impl Sites {
    fn insert(&mut self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, 1u64 << (i % 64));
        if self.0.len() <= w {
            self.0.resize(w + 1, 0);
        }
        let fresh = self.0[w] & b == 0;
        self.0[w] |= b;
        fresh
    }

    fn contains(&self, i: u32) -> bool {
        self.0
            .get(i as usize / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    fn union_with(&mut self, other: &Sites) -> bool {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            let n = *a | b;
            changed |= n != *a;
            *a = n;
        }
        changed
    }

    fn intersect_with(&mut self, other: &Sites) {
        for (i, a) in self.0.iter_mut().enumerate() {
            *a &= other.0.get(i).copied().unwrap_or(0);
        }
    }

    fn subtract(&mut self, other: &Sites) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= !b;
        }
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|w| *w == 0)
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits & (1u64 << b) != 0)
                .map(move |b| (w * 64 + b) as u32)
        })
    }

    /// The only element, if the set has exactly one.
    fn single(&self) -> Option<u32> {
        let mut it = self.iter();
        let first = it.next()?;
        it.next().is_none().then_some(first)
    }
}

// ------------------------------------------------------------ points-to

/// Method ids: class methods in declaration order, then `main`.
type MethodId = usize;

/// Points-to node ids: one per method return, then locals and heap cells.
type Node = usize;

struct SiteInfo {
    site: AllocSite,
    /// `Some(class)` for `new C`, `None` for `new_array`.
    class: Option<Sym>,
    /// A `new` in `main` outside every loop: at most one object.
    singleton: bool,
}

enum Con {
    Alloc {
        x: Node,
        site: u32,
    },
    Copy {
        dst: Node,
        src: Node,
    },
    Load {
        dst: Node,
        base: Node,
        field: Option<Sym>,
    },
    Store {
        base: Node,
        field: Option<Sym>,
        src: Node,
    },
    Call {
        dst: Option<Node>,
        recv: Node,
        meth: Sym,
        args: Vec<Node>,
    },
}

struct Pta {
    nodes: HashMap<(MethodId, Sym), Node>,
    cells: HashMap<(u32, Option<Sym>), Node>,
    pts: Vec<Sites>,
}

impl Pta {
    fn fresh(&mut self) -> Node {
        self.pts.push(Sites::default());
        self.pts.len() - 1
    }

    fn var(&mut self, m: MethodId, x: Sym) -> Node {
        if let Some(&n) = self.nodes.get(&(m, x)) {
            return n;
        }
        let n = self.fresh();
        self.nodes.insert((m, x), n);
        n
    }

    fn cell(&mut self, site: u32, field: Option<Sym>) -> Node {
        if let Some(&n) = self.cells.get(&(site, field)) {
            return n;
        }
        let n = self.fresh();
        self.cells.insert((site, field), n);
        n
    }

    /// `pts(dst) ⊇ pts(src)`; true if `dst` grew.
    fn flow(&mut self, dst: Node, src: Node) -> bool {
        if dst == src {
            return false;
        }
        let (d, s) = if dst < src {
            let (lo, hi) = self.pts.split_at_mut(src);
            (&mut lo[dst], &hi[0])
        } else {
            let (lo, hi) = self.pts.split_at_mut(dst);
            (&mut hi[0], &lo[src])
        };
        d.union_with(s)
    }

    /// Calls `f` on every site of `pts(n)`. The set is read a word at a
    /// time, so `f` may grow any set, `pts(n)` included.
    fn each_site(&mut self, n: Node, mut f: impl FnMut(&mut Pta, u32)) {
        let mut w = 0;
        while let Some(&word) = self.pts[n].0.get(w) {
            let mut bits = word;
            while bits != 0 {
                f(self, (w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
            w += 1;
        }
    }

    fn of(&self, m: MethodId, x: Sym) -> Option<&Sites> {
        self.nodes.get(&(m, x)).map(|&n| &self.pts[n])
    }
}

/// Pre-order walk over every statement of a block, nested ones included.
fn for_each_stmt<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in stmts {
        f(s);
        match &s.kind {
            StmtKind::If { then_b, else_b, .. } => {
                for_each_stmt(&then_b.stmts, f);
                for_each_stmt(&else_b.stmts, f);
            }
            StmtKind::Loop { head, tail, .. } => {
                for_each_stmt(&head.stmts, f);
                for_each_stmt(&tail.stmts, f);
            }
            _ => {}
        }
    }
}

struct MethodInfo<'p> {
    /// `(class index, method index)`, or `None` for `main`.
    loc: Option<(usize, usize)>,
    body: &'p Block,
    /// The returned variable, if the method returns one.
    ret: Option<Sym>,
    this: Node,
    params: Vec<Node>,
}

static NO_SITES: Sites = Sites(Vec::new());

/// The facts the pruning step reads, all over the solved points-to graph.
struct Analysis {
    pta: Pta,
    sites: Vec<SiteInfo>,
    /// Methods whose whole body is concurrent code (`main` excluded).
    concurrent: Vec<bool>,
    /// `main`'s concurrent code starts at this top-level statement.
    main_from: usize,
    /// Sites a field, array element, fork receiver or fork argument may
    /// point to.
    escaped: Sites,
    /// Per location, over every access in concurrent code.
    locs: HashMap<(u32, Option<Sym>), LocFacts>,
}

struct LocFacts {
    written: bool,
    /// Singleton locks held at every access.
    locks: Sites,
}

impl Analysis {
    /// Builds and solves the points-to graph and collects the per-location
    /// facts; `None` when a budget runs out.
    fn run(p: &Program, volatiles: &HashSet<Sym>) -> Option<Analysis> {
        let mut b = Builder::new(p);
        b.build();
        if !b.solve() {
            return None;
        }
        b.finish(volatiles)
    }

    /// The rule that clears location `(site, field)` for an access of
    /// `kind`, with R2's lock.
    fn rule(
        &self,
        site: u32,
        field: Option<Sym>,
        kind: AccessKind,
    ) -> Option<(OwnershipRule, Option<u32>)> {
        if !self.escaped.contains(site) {
            return Some((OwnershipRule::Local, None));
        }
        let facts = self.locs.get(&(site, field));
        if let Some(lock) = facts.and_then(|f| f.locks.iter().next()) {
            return Some((OwnershipRule::Locked, Some(lock)));
        }
        let written = facts.is_some_and(|f| f.written);
        (kind == AccessKind::Read && !written).then_some((OwnershipRule::ReadOnly, None))
    }

    fn prune(&self, p: &mut Program, report: &mut OwnershipReport) {
        let mut owned: HashMap<(u32, Option<Sym>), OwnedLocation> = HashMap::default();
        let mut m = 0;
        for c in &mut p.classes {
            for meth in &mut c.methods {
                if self.concurrent[m] {
                    self.prune_block(m, &mut meth.body.stmts, &mut owned, report);
                }
                m += 1;
            }
        }
        self.prune_block(m, &mut p.main.stmts[self.main_from..], &mut owned, report);
        let mut locations: Vec<_> = owned.into_iter().collect();
        locations.sort_by_key(|((site, field), _)| (*site, field.map(|f| f.as_str())));
        report.locations = locations.into_iter().map(|(_, l)| l).collect();
    }

    fn prune_block(
        &self,
        m: MethodId,
        stmts: &mut [Stmt],
        owned: &mut HashMap<(u32, Option<Sym>), OwnedLocation>,
        report: &mut OwnershipReport,
    ) {
        for s in stmts {
            match &mut s.kind {
                StmtKind::Check { paths } => {
                    paths.retain(|cp| !self.try_prune(m, cp, owned, report));
                }
                StmtKind::If { then_b, else_b, .. } => {
                    self.prune_block(m, &mut then_b.stmts, owned, report);
                    self.prune_block(m, &mut else_b.stmts, owned, report);
                }
                StmtKind::Loop { head, tail, .. } => {
                    self.prune_block(m, &mut head.stmts, owned, report);
                    self.prune_block(m, &mut tail.stmts, owned, report);
                }
                _ => {}
            }
        }
    }

    /// True (and accounted) if every location the path names is cleared.
    fn try_prune(
        &self,
        m: MethodId,
        cp: &CheckPath,
        owned: &mut HashMap<(u32, Option<Sym>), OwnedLocation>,
        report: &mut OwnershipReport,
    ) -> bool {
        let Some(pts) = self.pta.of(m, cp.path.base()).filter(|s| !s.is_empty()) else {
            return false;
        };
        let fields: Vec<Option<Sym>> = match &cp.path {
            Path::Fields { fields, .. } => fields.iter().map(|f| Some(*f)).collect(),
            Path::Arr { .. } => vec![None],
        };
        let mut cleared = Vec::new();
        for site in pts.iter() {
            for &field in &fields {
                match self.rule(site, field, cp.kind) {
                    Some((rule, lock)) => cleared.push((site, field, rule, lock)),
                    None => return false,
                }
            }
        }
        let weakest = cleared.iter().map(|c| c.2).max().expect("non-empty");
        report.paths_removed[weakest as usize] += 1;
        for (site, field, rule, lock) in cleared {
            owned
                .entry((site, field))
                .or_insert_with(|| OwnedLocation {
                    site: self.sites[site as usize].site,
                    field,
                    rule,
                    lock: lock.map(|l| self.sites[l as usize].site),
                    paths: 0,
                })
                .paths += 1;
        }
        true
    }
}

struct Builder<'p> {
    methods: Vec<MethodInfo<'p>>,
    /// `(class, method name)` → every method it may dispatch to.
    dispatch: HashMap<(Sym, Sym), Vec<MethodId>>,
    pta: Pta,
    sites: Vec<SiteInfo>,
    cons: Vec<Con>,
}

impl<'p> Builder<'p> {
    fn new(p: &'p Program) -> Builder<'p> {
        let mut pta = Pta {
            nodes: HashMap::default(),
            cells: HashMap::default(),
            pts: Vec::new(),
        };
        let count = p.methods().count() + 1;
        // Nodes `0..count` are the method returns.
        for _ in 0..count {
            pta.fresh();
        }
        let this = Sym::intern("this");
        let mut methods = Vec::with_capacity(count);
        let mut dispatch: HashMap<(Sym, Sym), Vec<MethodId>> = HashMap::default();
        for (ci, c) in p.classes.iter().enumerate() {
            for (mi, meth) in c.methods.iter().enumerate() {
                let id = methods.len();
                dispatch.entry((c.name, meth.name)).or_default().push(id);
                methods.push(MethodInfo {
                    loc: Some((ci, mi)),
                    body: &meth.body,
                    ret: match meth.ret {
                        Expr::Var(y) => Some(y),
                        _ => None,
                    },
                    this: pta.var(id, this),
                    params: meth.params.iter().map(|x| pta.var(id, *x)).collect(),
                });
            }
        }
        let main = methods.len();
        methods.push(MethodInfo {
            loc: None,
            body: &p.main,
            ret: None,
            this: pta.var(main, this),
            params: Vec::new(),
        });
        Builder {
            methods,
            dispatch,
            pta,
            sites: Vec::new(),
            cons: Vec::new(),
        }
    }

    fn main_id(&self) -> MethodId {
        self.methods.len() - 1
    }

    /// Collects every constraint and allocation site.
    fn build(&mut self) {
        for m in 0..self.methods.len() {
            if let Some(y) = self.methods[m].ret {
                let src = self.pta.var(m, y);
                self.cons.push(Con::Copy { dst: m, src });
            }
            let mut ordinal = 0;
            self.block(m, self.methods[m].body, 0, &mut ordinal);
        }
    }

    fn block(&mut self, m: MethodId, b: &'p Block, loops: usize, ordinal: &mut usize) {
        for s in &b.stmts {
            let con = match &s.kind {
                StmtKind::Assign { x, e: Expr::Var(y) } => Con::Copy {
                    dst: self.pta.var(m, *x),
                    src: self.pta.var(m, *y),
                },
                StmtKind::Rename { fresh, old } => Con::Copy {
                    dst: self.pta.var(m, *fresh),
                    src: self.pta.var(m, *old),
                },
                StmtKind::New { x, .. } | StmtKind::NewArray { x, .. } => {
                    let class = match &s.kind {
                        StmtKind::New { class, .. } => Some(*class),
                        _ => None,
                    };
                    self.sites.push(SiteInfo {
                        site: AllocSite {
                            method: self.methods[m].loc,
                            ordinal: *ordinal,
                        },
                        class,
                        singleton: class.is_some() && m == self.main_id() && loops == 0,
                    });
                    *ordinal += 1;
                    Con::Alloc {
                        x: self.pta.var(m, *x),
                        site: (self.sites.len() - 1) as u32,
                    }
                }
                StmtKind::ReadField { x, obj, field } => Con::Load {
                    dst: self.pta.var(m, *x),
                    base: self.pta.var(m, *obj),
                    field: Some(*field),
                },
                StmtKind::WriteField { obj, field, src } => Con::Store {
                    base: self.pta.var(m, *obj),
                    field: Some(*field),
                    src: self.pta.var(m, *src),
                },
                StmtKind::ReadArr { x, arr, .. } => Con::Load {
                    dst: self.pta.var(m, *x),
                    base: self.pta.var(m, *arr),
                    field: None,
                },
                StmtKind::WriteArr { arr, src, .. } => Con::Store {
                    base: self.pta.var(m, *arr),
                    field: None,
                    src: self.pta.var(m, *src),
                },
                StmtKind::Call {
                    x,
                    recv,
                    meth,
                    args,
                }
                | StmtKind::Fork {
                    x,
                    recv,
                    meth,
                    args,
                } => Con::Call {
                    // A fork's result is a thread handle, not a reference.
                    dst: matches!(s.kind, StmtKind::Call { .. }).then(|| self.pta.var(m, *x)),
                    recv: self.pta.var(m, *recv),
                    meth: *meth,
                    args: args.iter().map(|a| self.pta.var(m, *a)).collect(),
                },
                StmtKind::If { then_b, else_b, .. } => {
                    self.block(m, then_b, loops, ordinal);
                    self.block(m, else_b, loops, ordinal);
                    continue;
                }
                StmtKind::Loop { head, tail, .. } => {
                    self.block(m, head, loops + 1, ordinal);
                    self.block(m, tail, loops + 1, ordinal);
                    continue;
                }
                _ => continue,
            };
            self.cons.push(con);
        }
    }

    /// Chaotic iteration to the least fixed point; false when the step
    /// budget runs out first.
    fn solve(&mut self) -> bool {
        let mut steps = 0usize;
        loop {
            let mut changed = false;
            for c in &self.cons {
                steps += 1;
                match c {
                    Con::Alloc { x, site } => changed |= self.pta.pts[*x].insert(*site),
                    Con::Copy { dst, src } => changed |= self.pta.flow(*dst, *src),
                    Con::Load { dst, base, field } => self.pta.each_site(*base, |pta, site| {
                        steps += 1;
                        let cell = pta.cell(site, *field);
                        changed |= pta.flow(*dst, cell);
                    }),
                    Con::Store { base, field, src } => self.pta.each_site(*base, |pta, site| {
                        steps += 1;
                        let cell = pta.cell(site, *field);
                        changed |= pta.flow(cell, *src);
                    }),
                    Con::Call {
                        dst,
                        recv,
                        meth,
                        args,
                    } => {
                        let (sites, dispatch, methods) =
                            (&self.sites, &self.dispatch, &self.methods);
                        self.pta.each_site(*recv, |pta, site| {
                            let Some(class) = sites[site as usize].class else {
                                return;
                            };
                            for &t in dispatch.get(&(class, *meth)).into_iter().flatten() {
                                steps += 1 + args.len();
                                let callee = &methods[t];
                                changed |= pta.pts[callee.this].insert(site);
                                for (&param, &arg) in callee.params.iter().zip(args) {
                                    changed |= pta.flow(param, arg);
                                }
                                if let Some(dst) = dst {
                                    changed |= pta.flow(*dst, t);
                                }
                            }
                        });
                    }
                }
                if steps > MAX_STEPS {
                    return false;
                }
            }
            if !changed {
                return true;
            }
        }
    }

    fn pts(&self, m: MethodId, x: Sym) -> &Sites {
        self.pta.of(m, x).unwrap_or(&NO_SITES)
    }

    /// The methods a call in `m` on `recv` to `meth` may run (a method
    /// may come up more than once).
    fn call_targets(
        &self,
        m: MethodId,
        recv: Sym,
        meth: Sym,
    ) -> impl Iterator<Item = MethodId> + '_ {
        self.pts(m, recv)
            .iter()
            .filter_map(|s| self.sites[s as usize].class)
            .filter_map(move |c| self.dispatch.get(&(c, meth)))
            .flatten()
            .copied()
    }

    /// Derives the call graph, concurrent code, escapes and the lock
    /// facts from the solved points-to graph.
    fn finish(self, volatiles: &HashSet<Sym>) -> Option<Analysis> {
        let n = self.methods.len();
        let main = self.main_id();

        // Per method: call targets, fork targets, direct forks, and the
        // locks its own `rel` may release. `wait` re-acquires its monitor
        // before it returns, so it releases nothing a caller held.
        let mut callees: Vec<Vec<MethodId>> = vec![Vec::new(); n];
        let mut fork_targets: Vec<MethodId> = Vec::new();
        let mut forks = vec![false; n];
        let mut releases: Vec<Sites> = vec![Sites::default(); n];
        let mut escaped = Sites::default();
        for cell in self.pta.cells.values() {
            escaped.union_with(&self.pta.pts[*cell]);
        }
        for m in 0..n {
            for_each_stmt(&self.methods[m].body.stmts, &mut |s| match &s.kind {
                StmtKind::Call { recv, meth, .. } => {
                    callees[m].extend(self.call_targets(m, *recv, *meth));
                }
                StmtKind::Fork {
                    recv, meth, args, ..
                } => {
                    forks[m] = true;
                    fork_targets.extend(self.call_targets(m, *recv, *meth));
                    escaped.union_with(self.pts(m, *recv));
                    for a in args {
                        escaped.union_with(self.pts(m, *a));
                    }
                }
                StmtKind::Release { lock } => {
                    releases[m].union_with(self.pts(m, *lock));
                }
                _ => {}
            });
            callees[m].sort_unstable();
            callees[m].dedup();
        }
        fork_targets.sort_unstable();
        fork_targets.dedup();

        // May-fork and may-release, closed over calls.
        let mut changed = true;
        while changed {
            changed = false;
            for m in 0..n {
                for &t in &callees[m] {
                    if forks[t] && !forks[m] {
                        forks[m] = true;
                        changed = true;
                    }
                    if t != m {
                        let r = releases[t].clone();
                        changed |= releases[m].union_with(&r);
                    }
                }
            }
        }

        // `main`'s concurrent code: from the first top-level statement
        // that may fork, directly or through a call.
        let main_stmts = &self.methods[main].body.stmts;
        let main_from = main_stmts
            .iter()
            .position(|s| {
                let mut hit = false;
                for_each_stmt(std::slice::from_ref(s), &mut |s| match &s.kind {
                    StmtKind::Fork { .. } => hit = true,
                    StmtKind::Call { recv, meth, .. } => {
                        hit |= self.call_targets(main, *recv, *meth).any(|t| forks[t])
                    }
                    _ => {}
                });
                hit
            })
            .unwrap_or(main_stmts.len());

        // Concurrent methods: fork targets and the methods `main`'s
        // concurrent code calls, closed over calls.
        let mut concurrent = vec![false; n];
        let mut work = fork_targets.clone();
        for_each_stmt(&main_stmts[main_from..], &mut |s| {
            if let StmtKind::Call { recv, meth, .. } = &s.kind {
                work.extend(self.call_targets(main, *recv, *meth));
            }
        });
        while let Some(m) = work.pop() {
            if m != main && !concurrent[m] {
                concurrent[m] = true;
                work.extend(callees[m].iter().copied());
            }
        }

        // Lock facts: entry sets are the meet over call sites (empty for
        // `main` and fork targets), iterated to a fixed point; the last
        // round's per-location facts are the answer. Entry sets only
        // appear and shrink, which bounds the rounds.
        let mut singletons = Sites::default();
        for (i, site) in self.sites.iter().enumerate() {
            if site.singleton {
                singletons.insert(i as u32);
            }
        }
        let roots: Vec<Option<Sites>> = (0..n)
            .map(|m| (m == main || fork_targets.binary_search(&m).is_ok()).then(Sites::default))
            .collect();
        let mut entry = roots.clone();
        for _ in 0..=n * (self.sites.len() + 2) {
            let mut w = LockWalk {
                b: &self,
                volatiles,
                singletons: &singletons,
                releases: &releases,
                next: roots.clone(),
                locs: HashMap::default(),
            };
            for (m, e) in entry.iter().enumerate() {
                let Some(e) = e else { continue };
                let body = &self.methods[m].body.stmts;
                let mut held = e.clone();
                if m == main {
                    for (i, s) in body.iter().enumerate() {
                        w.stmts(m, std::slice::from_ref(s), &mut held, i >= main_from);
                    }
                } else {
                    w.stmts(m, body, &mut held, concurrent[m]);
                }
            }
            if w.next == entry {
                let locs = w.locs;
                return Some(Analysis {
                    pta: self.pta,
                    sites: self.sites,
                    concurrent,
                    main_from,
                    escaped,
                    locs,
                });
            }
            entry = w.next;
        }
        None
    }
}

/// One round of the intraprocedural must-hold lockset walk.
struct LockWalk<'a, 'p> {
    b: &'a Builder<'p>,
    volatiles: &'a HashSet<Sym>,
    singletons: &'a Sites,
    /// Per method, the locks it may release, callees included.
    releases: &'a [Sites],
    /// Callee entry sets met over this round's call sites.
    next: Vec<Option<Sites>>,
    locs: HashMap<(u32, Option<Sym>), LocFacts>,
}

impl LockWalk<'_, '_> {
    /// Walks `stmts` of method `m` with `held` the locks held on entry
    /// (updated to those held on exit), recording accesses when `record`.
    fn stmts(&mut self, m: MethodId, stmts: &[Stmt], held: &mut Sites, record: bool) {
        for s in stmts {
            match &s.kind {
                StmtKind::Acquire { lock } => {
                    if let Some(l) = self.b.pts(m, *lock).single() {
                        if self.singletons.contains(l) {
                            held.insert(l);
                        }
                    }
                }
                // `wait(l)` gives `l` up and takes it back before it
                // returns: the lock is held on both sides of it.
                StmtKind::Release { lock } => {
                    held.subtract(self.b.pts(m, *lock));
                }
                StmtKind::Call { recv, meth, .. } => {
                    let b = self.b;
                    for t in b.call_targets(m, *recv, *meth) {
                        match &mut self.next[t] {
                            Some(e) => e.intersect_with(held),
                            slot @ None => *slot = Some(held.clone()),
                        }
                        held.subtract(&self.releases[t]);
                    }
                }
                StmtKind::ReadField { obj, field, .. } if record => {
                    self.access(m, *obj, Some(*field), false, held)
                }
                StmtKind::WriteField { obj, field, .. } if record => {
                    self.access(m, *obj, Some(*field), true, held)
                }
                StmtKind::ReadArr { arr, .. } if record => self.access(m, *arr, None, false, held),
                StmtKind::WriteArr { arr, .. } if record => self.access(m, *arr, None, true, held),
                StmtKind::If { then_b, else_b, .. } => {
                    let mut other = held.clone();
                    self.stmts(m, &then_b.stmts, held, record);
                    self.stmts(m, &else_b.stmts, &mut other, record);
                    held.intersect_with(&other);
                }
                StmtKind::Loop { head, tail, .. } => {
                    // `loop { head; if (exit) break; tail }`: the head runs
                    // with the entry set met with every back edge's.
                    let before = held.clone();
                    loop {
                        let mut h = held.clone();
                        self.stmts(m, &head.stmts, &mut h, record);
                        let after_head = h.clone();
                        self.stmts(m, &tail.stmts, &mut h, record);
                        h.intersect_with(&before);
                        if h == *held {
                            *held = after_head;
                            break;
                        }
                        *held = h;
                    }
                }
                _ => {}
            }
        }
    }

    fn access(&mut self, m: MethodId, base: Sym, field: Option<Sym>, write: bool, held: &Sites) {
        if field.is_some_and(|f| self.volatiles.contains(&f)) {
            return;
        }
        for site in self.b.pts(m, base).iter() {
            let facts = self.locs.entry((site, field)).or_insert_with(|| LocFacts {
                written: false,
                locks: held.clone(),
            });
            facts.written |= write;
            facts.locks.intersect_with(held);
        }
    }
}
