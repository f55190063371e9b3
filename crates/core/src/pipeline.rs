//! The end-to-end S TATIC BF pipeline: freshen → forward pre-pass →
//! backward anticipation → placement → cleanup → field-proxy analysis.

use crate::backward::anticipate_body_view;
use crate::cache::{CacheEntry, PlacementCache, CACHE_VERSION};
use crate::cleanup::cleanup_program;
use crate::forward::{forward_pass_view, place_checks, record_histories, PlacementOptions};
use crate::killset::{scan_method_body, volatile_fields, KillSets, KillSummary};
use crate::ownership::{prune_owned, OwnershipReport};
use crate::proxy::field_proxies;
use crate::readset::{FactView, ReadSet, READSET_VERSION};
use crate::rename::freshen_body;
use bigfoot_bfj::{AccessKind, Block, CheckPath, Program, Stmt, StmtKind, Sym};
use bigfoot_detectors::ProxyTable;
use bigfoot_obs::stable::{StableHasher, STABLE_HASH_VERSION};
use std::cell::RefCell;
use std::collections::HashSet;
use std::path::Path as FsPath;
use std::time::{Duration, Instant};

/// Timing and size statistics for one static-analysis run (the data
/// behind Table 1's S TATIC BF columns).
#[derive(Debug, Clone, Default)]
pub struct AnalysisStats {
    /// Methods analyzed (including `main`).
    pub methods: usize,
    /// Total wall-clock analysis time.
    pub total_time: Duration,
    /// Per-method analysis time.
    pub per_method: Vec<(String, Duration)>,
    /// `check(C)` statements in the instrumented output.
    pub checks_inserted: usize,
}

impl AnalysisStats {
    /// Mean analysis time per method.
    pub fn time_per_method(&self) -> Duration {
        if self.methods == 0 {
            Duration::ZERO
        } else {
            self.total_time / self.methods as u32
        }
    }
}

/// An instrumented program plus everything the dynamic side needs.
#[derive(Debug, Clone)]
pub struct Instrumented {
    /// The program with `check(C)` statements inserted.
    pub program: Program,
    /// Field-proxy compression table for the detector.
    pub proxies: ProxyTable,
    /// Static-analysis statistics.
    pub stats: AnalysisStats,
    /// What the ownership pass deleted (empty when it is off).
    pub ownership: OwnershipReport,
}

/// Runs the full BigFoot static analysis on a program.
///
/// # Examples
///
/// ```
/// let p = bigfoot_bfj::parse_program(
///     "main {
///          a = new_array(10);
///          for (i = 0; i < 10; i = i + 1) { a[i] = i; }
///      }",
/// )?;
/// let inst = bigfoot::instrument(&p);
/// let text = bigfoot_bfj::pretty(&inst.program);
/// // The loop's writes are covered by one coalesced check after the loop
/// // (the bound is expressed via the renamed counter, `i' + 1 == i`).
/// assert!(text.contains("check(w: a[0.."), "{text}");
/// assert_eq!(text.matches("check(").count(), 1, "{text}");
/// # Ok::<(), bigfoot_bfj::ParseError>(())
/// ```
pub fn instrument(p: &Program) -> Instrumented {
    instrument_with(p, InstrumentOptions::default())
}

/// Knobs for the ablation study (`repro ablation`): each disables one of
/// the paper's ingredients while keeping placement sound.
#[derive(Debug, Clone, Copy)]
pub struct InstrumentOptions {
    /// Backward anticipation pass (disabling forces checks before every
    /// release and at branch merges even when a later access would cover).
    pub anticipation: bool,
    /// §4 path coalescing.
    pub coalescing: bool,
    /// Loop-invariant inference / check motion out of loops.
    pub loop_invariants: bool,
    /// Static field-proxy compression.
    pub field_proxies: bool,
    /// The whole-program ownership pass (`ownership.rs`), which goes
    /// beyond the paper: it deletes checks on thread-local, lock-owned and
    /// read-only-after-fork locations in concurrent code. Off, the output
    /// is the paper's own placement, which places a check for every access
    /// (§5 coverage).
    pub ownership: bool,
}

impl Default for InstrumentOptions {
    fn default() -> Self {
        InstrumentOptions {
            anticipation: true,
            coalescing: true,
            loop_invariants: true,
            field_proxies: true,
            ownership: true,
        }
    }
}

/// Runs the BigFoot static analysis with explicit [`InstrumentOptions`].
pub fn instrument_with(p: &Program, options: InstrumentOptions) -> Instrumented {
    let _span_total = bigfoot_obs::span!("static.instrument");
    register_budget_counters();
    let t_start = Instant::now();
    let mut out = p.clone();
    freshen_program(&mut out);

    let kills = {
        let _span = bigfoot_obs::span!("static.killsets");
        KillSets::compute(&out)
    };
    let volatiles = volatile_fields(&out);
    let mut stats = AnalysisStats::default();

    let analyze = |body: &Block, kills: &KillSets| -> (Block, Duration) {
        let t0 = Instant::now();
        let placed = analyze_body(body, FactView::new(kills, &volatiles), options);
        (placed, t0.elapsed())
    };

    for ci in 0..out.classes.len() {
        for mi in 0..out.classes[ci].methods.len() {
            let body = std::mem::take(&mut out.classes[ci].methods[mi].body);
            let (placed, dt) = analyze(&body, &kills);
            out.classes[ci].methods[mi].body = placed;
            let name = format!(
                "{}.{}",
                out.classes[ci].name, out.classes[ci].methods[mi].name
            );
            stats.per_method.push((name, dt));
            stats.methods += 1;
            // Progress counter track in the flight recorder: in Perfetto
            // this renders analysis throughput over the method loop.
            bigfoot_obs::trace_counter!("static.methods_done", stats.methods);
        }
    }
    let body = std::mem::take(&mut out.main);
    let (placed, dt) = analyze(&body, &kills);
    out.main = placed;
    stats.per_method.push(("main".to_owned(), dt));
    stats.methods += 1;

    let ownership = ownership_pass(&mut out, options, &volatiles);
    {
        let _span = bigfoot_obs::span!("static.cleanup");
        cleanup_program(&mut out);
    }
    stats.checks_inserted = count_checks(&out);
    stats.total_time = t_start.elapsed();
    let proxies = if options.field_proxies {
        let _span = bigfoot_obs::span!("static.proxy");
        field_proxies(&out)
    } else {
        bigfoot_detectors::ProxyTable::identity()
    };
    bigfoot_obs::count!("static.methods", stats.methods);
    bigfoot_obs::count!("static.checks_inserted", stats.checks_inserted);
    Instrumented {
        program: out,
        proxies,
        stats,
        ownership,
    }
}

/// Registers StaticBF's budget counters at 0, so a report that lists the
/// `static.budget.*` counters by prefix also shows the ones that never
/// fired. Each is bumped where its budget quietly weakens placement: the
/// FM atom gate and row cap (`entail`), dropped bool and alias facts
/// (`facts`), and cut-off loop fixed points (`forward`, `backward`).
fn register_budget_counters() {
    bigfoot_obs::count!("static.budget.fm_atoms", 0);
    bigfoot_obs::count!("static.budget.fm_rows", 0);
    bigfoot_obs::count!("static.budget.bools_dropped", 0);
    bigfoot_obs::count!("static.budget.aliases_dropped", 0);
    bigfoot_obs::count!("static.budget.inv_iters", 0);
    bigfoot_obs::count!("static.budget.loop_iters", 0);
}

/// The ownership pass when `options` enable it, on the assembled placed
/// program (before cleanup, so the renames that fed only deleted checks
/// go too).
fn ownership_pass(
    out: &mut Program,
    options: InstrumentOptions,
    volatiles: &HashSet<Sym>,
) -> OwnershipReport {
    if options.ownership {
        prune_owned(out, volatiles)
    } else {
        OwnershipReport::default()
    }
}

/// StaticBF on one freshened method body: the history-only forward
/// pre-pass, backward anticipation, then placement with the pre-pass's
/// loop invariants. Without anticipation, one placement run that infers
/// the invariants itself.
fn analyze_body(body: &Block, facts: FactView<'_>, options: InstrumentOptions) -> Block {
    let _span = bigfoot_obs::span!("static.method");
    let popts = PlacementOptions {
        coalescing: options.coalescing,
        loop_invariants: options.loop_invariants,
    };
    if !options.anticipation {
        let _span = bigfoot_obs::span!("static.forward");
        return forward_pass_view(body, facts, None, popts).0;
    }
    let (pre, at) = {
        let _span = bigfoot_obs::span!("static.backward");
        let pre = record_histories(body, facts, popts);
        let at = anticipate_body_view(body, facts, &pre.h_pre);
        (pre, at)
    };
    let _span = bigfoot_obs::span!("static.forward");
    place_checks(body, facts, &pre, &at, popts)
}

/// Freshens every body and renumbers so statement ids are program-unique
/// (the analysis tables are keyed by them). Deterministic, so cold and
/// warm runs see identical freshened programs.
fn freshen_program(out: &mut Program) {
    let _span = bigfoot_obs::span!("static.freshen");
    for c in &mut out.classes {
        for m in &mut c.methods {
            freshen_body(&mut m.body, &m.params);
        }
    }
    let mut main = std::mem::take(&mut out.main);
    freshen_body(&mut main, &[]);
    out.main = main;
    out.renumber();
}

/// Version of the placement pipeline's observable output (freshening,
/// pass order, cleanup). Folded into [`config_fingerprint`]; bump when a
/// pipeline change can alter placements for an unchanged input.
const PLACEMENT_VERSION: u32 = 1;

/// Stable fingerprint of everything configuration-shaped that placement
/// output depends on: the [`InstrumentOptions`] knobs plus the version
/// constants of every analysis layer (entailment semantics included). A
/// persistent cache whose `config_fp` differs is ignored wholesale.
pub fn config_fingerprint(options: InstrumentOptions) -> u64 {
    let mut h = StableHasher::new();
    h.write_u32(STABLE_HASH_VERSION);
    h.write_u32(CACHE_VERSION);
    h.write_u32(bigfoot_bfj::FINGERPRINT_VERSION);
    h.write_u32(READSET_VERSION);
    h.write_u32(bigfoot_entail::ENTAIL_VERSION);
    h.write_u32(PLACEMENT_VERSION);
    h.write_bool(options.anticipation);
    h.write_bool(options.coalescing);
    h.write_bool(options.loop_invariants);
    h.write_bool(options.field_proxies);
    h.write_bool(options.ownership);
    h.finish()
}

fn volatiles_fingerprint(volatiles: &HashSet<Sym>) -> u64 {
    let mut names: Vec<&'static str> = volatiles.iter().map(|s| s.as_str()).collect();
    names.sort_unstable();
    let mut h = StableHasher::new();
    h.write_u32(STABLE_HASH_VERSION);
    h.write_usize(names.len());
    for n in names {
        h.write_str(n);
    }
    h.finish()
}

/// Cache behavior observed during one [`instrument_incremental`] run.
#[derive(Debug, Clone, Default)]
pub struct IncrementalStats {
    /// Sites whose cached placement was replayed (analysis skipped).
    pub hits: usize,
    /// Sites analyzed from scratch.
    pub misses: usize,
    /// A cache file existed but was malformed (typed decode error); the
    /// run fell back to cold analysis.
    pub cache_invalid: bool,
    /// A decodable cache with a matching analysis config was found.
    pub warm: bool,
}

impl IncrementalStats {
    /// Fraction of sites skipped: `hits / (hits + misses)`.
    pub fn skip_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One analyzable site of the program: a class method or `main`.
struct Site {
    /// Cache key: `"Class.method#ordinal"` (ordinal among same-named
    /// methods of the class, so inserting an unrelated method does not
    /// shift other keys), or `"main"`.
    key: String,
    /// Human name for [`AnalysisStats::per_method`].
    label: String,
    /// Bare method name (kill sets are name-keyed); `"main"` for main.
    method_name: Sym,
    /// `Some((class_idx, method_idx))`, or `None` for main.
    loc: Option<(usize, usize)>,
    /// Structural fingerprint of the freshened body.
    body_fp: u64,
}

fn sites_of(out: &Program) -> Vec<Site> {
    let mut sites = Vec::new();
    for (ci, c) in out.classes.iter().enumerate() {
        for (mi, m) in c.methods.iter().enumerate() {
            let ordinal = c.methods[..mi].iter().filter(|o| o.name == m.name).count();
            sites.push(Site {
                key: format!("{}.{}#{}", c.name, m.name, ordinal),
                label: format!("{}.{}", c.name, m.name),
                method_name: m.name,
                loc: Some((ci, mi)),
                body_fp: bigfoot_bfj::fingerprint_body(&m.params, &m.body, &m.ret),
            });
        }
    }
    sites.push(Site {
        key: "main".to_owned(),
        label: "main".to_owned(),
        method_name: Sym::intern("main"),
        loc: None,
        body_fp: bigfoot_bfj::fingerprint_block(&out.main),
    });
    sites
}

/// [`instrument_with`] plus a persistent per-method placement cache in
/// `cache_dir` (the `.bigfoot-cache/` layout).
///
/// A cold run (no cache, malformed cache, or changed analysis config)
/// behaves exactly like [`instrument_with`] while recording, per method,
/// the body fingerprint, the cross-method fact read-set, the kill-scan
/// summary, and the placed body. A warm run replays cached placements
/// for every site whose body fingerprint and fact read-set digest still
/// match, re-analyzes only the rest, and rebuilds the kill-set fixpoint
/// from cached scan summaries (rescanning only edited bodies) — so the
/// cross-method fixpoint is recomputed only over the dirtied dependency
/// cone. The instrumented output is byte-identical to a cold run.
pub fn instrument_incremental(
    p: &Program,
    options: InstrumentOptions,
    cache_dir: &FsPath,
) -> (Instrumented, IncrementalStats) {
    let _span_total = bigfoot_obs::span!("static.instrument");
    register_budget_counters();
    let t_start = Instant::now();
    let config_fp = config_fingerprint(options);
    let mut inc = IncrementalStats::default();

    let cache = match PlacementCache::load(cache_dir) {
        Ok(Some(c)) if c.config_fp == config_fp => {
            inc.warm = true;
            Some(c)
        }
        // A cache from a different analysis config is not *invalid*,
        // just unusable for this run; overwrite it below.
        Ok(Some(_)) | Ok(None) => None,
        Err(_) => {
            inc.cache_invalid = true;
            bigfoot_obs::count!("static.cache.invalid");
            None
        }
    };

    let mut out = p.clone();
    freshen_program(&mut out);

    let volatiles = volatile_fields(&out);
    let volatiles_fp = volatiles_fingerprint(&volatiles);
    let sites = sites_of(&out);

    // Kill sets: rescan only bodies whose fingerprint changed (or all,
    // when the volatile set — which scanning depends on — changed).
    let kills = {
        let _span = bigfoot_obs::span!("static.killsets");
        let kill_reusable = cache
            .as_ref()
            .map(|c| c.volatiles_fp == volatiles_fp)
            .unwrap_or(false);
        let summaries: Vec<(Sym, KillSummary)> = sites
            .iter()
            .filter_map(|site| {
                let (ci, mi) = site.loc?;
                let cached = if kill_reusable {
                    cache.as_ref().and_then(|c| {
                        let e = c.entries.get(&site.key)?;
                        (e.body_fp == site.body_fp).then(|| e.kill.clone())
                    })
                } else {
                    None
                };
                let summary = cached.unwrap_or_else(|| {
                    scan_method_body(&out.classes[ci].methods[mi].body.stmts, &volatiles)
                });
                Some((site.method_name, summary))
            })
            .collect();
        KillSets::from_summaries(summaries)
    };

    let mut stats = AnalysisStats::default();
    let mut new_entries = std::collections::BTreeMap::new();

    for site in &sites {
        let body = match site.loc {
            Some((ci, mi)) => std::mem::take(&mut out.classes[ci].methods[mi].body),
            None => std::mem::take(&mut out.main),
        };
        let t0 = Instant::now();
        let hit = cache.as_ref().and_then(|c| {
            let e = c.entries.get(&site.key)?;
            (e.body_fp == site.body_fp
                && e.readset.fingerprint_against(&kills, &volatiles) == e.facts_fp)
                .then_some(e)
        });
        let (placed, entry) = match hit {
            Some(e) => {
                bigfoot_obs::count!("static.cache.hits");
                inc.hits += 1;
                (e.placed.clone(), e.clone())
            }
            None => {
                bigfoot_obs::count!("static.cache.misses");
                inc.misses += 1;
                let log = RefCell::new(ReadSet::default());
                let placed =
                    analyze_body(&body, FactView::tracked(&kills, &volatiles, &log), options);
                let readset = log.into_inner();
                let facts_fp = readset.fingerprint();
                let kill = scan_method_body(&body.stmts, &volatiles);
                let entry = CacheEntry {
                    method_name: site.method_name.as_str(),
                    body_fp: site.body_fp,
                    facts_fp,
                    readset,
                    kill,
                    placed: placed.clone(),
                };
                (placed, entry)
            }
        };
        match site.loc {
            Some((ci, mi)) => out.classes[ci].methods[mi].body = placed,
            None => out.main = placed,
        }
        new_entries.insert(site.key.clone(), entry);
        stats.per_method.push((site.label.clone(), t0.elapsed()));
        stats.methods += 1;
        bigfoot_obs::trace_counter!("static.methods_done", stats.methods);
    }
    bigfoot_obs::gauge_max_named("static.incremental.skipped_methods", inc.hits as u64);

    // The cache holds the placed bodies from before the pass, so a warm
    // run prunes exactly as a cold one does.
    let ownership = ownership_pass(&mut out, options, &volatiles);
    {
        let _span = bigfoot_obs::span!("static.cleanup");
        cleanup_program(&mut out);
    }
    stats.checks_inserted = count_checks(&out);
    stats.total_time = t_start.elapsed();
    let proxies = if options.field_proxies {
        let _span = bigfoot_obs::span!("static.proxy");
        field_proxies(&out)
    } else {
        bigfoot_detectors::ProxyTable::identity()
    };
    bigfoot_obs::count!("static.methods", stats.methods);
    bigfoot_obs::count!("static.checks_inserted", stats.checks_inserted);

    // Best-effort persist; a read-only cache dir degrades to cold runs.
    let _ = PlacementCache {
        config_fp,
        volatiles_fp,
        entries: new_entries,
    }
    .store(cache_dir);

    (
        Instrumented {
            program: out,
            proxies,
            stats,
            ownership,
        },
        inc,
    )
}

/// Instruments every access with an adjacent check (the unoptimized
/// placement a standard detector implies; used for verifier baselines).
pub fn naive_instrument(p: &Program) -> Program {
    let mut out = p.clone();
    let volatiles = volatile_fields(p);
    for c in &mut out.classes {
        for m in &mut c.methods {
            let stmts = std::mem::take(&mut m.body.stmts);
            m.body.stmts = naive_block(stmts, &volatiles);
        }
    }
    let stmts = std::mem::take(&mut out.main.stmts);
    out.main.stmts = naive_block(stmts, &volatiles);
    out.renumber();
    out
}

fn naive_block(
    stmts: Vec<Stmt>,
    volatiles: &std::collections::HashSet<bigfoot_bfj::Sym>,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len() * 2);
    for mut s in stmts {
        let check = match &s.kind {
            StmtKind::ReadField { obj, field, .. } if !volatiles.contains(field) => {
                Some(CheckPath {
                    kind: AccessKind::Read,
                    path: bigfoot_bfj::Path::field(*obj, *field),
                })
            }
            StmtKind::WriteField { obj, field, .. } if !volatiles.contains(field) => {
                Some(CheckPath {
                    kind: AccessKind::Write,
                    path: bigfoot_bfj::Path::field(*obj, *field),
                })
            }
            StmtKind::ReadArr { arr, idx, .. } => Some(CheckPath {
                kind: AccessKind::Read,
                path: bigfoot_bfj::Path::index(*arr, idx.clone()),
            }),
            StmtKind::WriteArr { arr, idx, .. } => Some(CheckPath {
                kind: AccessKind::Write,
                path: bigfoot_bfj::Path::index(*arr, idx.clone()),
            }),
            _ => None,
        };
        if let Some(cp) = check {
            out.push(Stmt::new(StmtKind::Check { paths: vec![cp] }));
        }
        match &mut s.kind {
            StmtKind::If { then_b, else_b, .. } => {
                then_b.stmts = naive_block(std::mem::take(&mut then_b.stmts), volatiles);
                else_b.stmts = naive_block(std::mem::take(&mut else_b.stmts), volatiles);
            }
            StmtKind::Loop { head, tail, .. } => {
                head.stmts = naive_block(std::mem::take(&mut head.stmts), volatiles);
                tail.stmts = naive_block(std::mem::take(&mut tail.stmts), volatiles);
            }
            _ => {}
        }
        out.push(s);
    }
    out
}

/// Counts `check(C)` statements in a program.
pub fn count_checks(p: &Program) -> usize {
    fn walk(b: &Block) -> usize {
        b.stmts
            .iter()
            .map(|s| match &s.kind {
                StmtKind::Check { .. } => 1,
                StmtKind::If { then_b, else_b, .. } => walk(then_b) + walk(else_b),
                StmtKind::Loop { head, tail, .. } => walk(head) + walk(tail),
                _ => 0,
            })
            .sum()
    }
    p.methods().map(|(_, m)| walk(&m.body)).sum::<usize>() + walk(&p.main)
}
