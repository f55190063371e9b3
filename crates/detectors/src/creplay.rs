//! Race detection directly on grammar-compressed (`BFTC`) traces.
//!
//! The offline replay path (`crate::replay`) runs three stages:
//! serial clock annotation, sharded detection, deterministic merge.
//! This module replaces stage 1's linear decode with a walk over the
//! compressed grammar that *memoizes* repeated rules: a loop body with
//! no intervening synchronization is annotated a bounded number of
//! times and its remaining repetitions are applied in O(1), so the
//! annotation pass runs sublinearly in the expanded trace length —
//! while the final [`Stats`] stay byte-identical to [`replay_trace`]
//! (and hence to the serial detector) at every worker count.
//!
//! # Why skipping repetitions is sound
//!
//! A rule is only considered *pure* if its expansion transitively
//! contains nothing but `Access` and `Check` events — no sync, no fork/
//! join, no allocations. Inside a pure run:
//!
//! - **Clocks are frozen.** Clocks only change at sync operations, so
//!   every emitted item snapshots the same `Arc`'d clock.
//! - **Shadow state reaches a fixpoint after one repetition.** The
//!   FastTrack cell ([`bigfoot_vc::VarState`]) returns a race *before*
//!   mutating state, and its same-epoch fast paths make a second
//!   application of an identical operation sequence a pure no-op that
//!   can only re-report the *same* races — which
//!   [`Stats::report_race`]'s per-location deduplication already
//!   suppresses. So repetitions beyond the second produce no new
//!   verdicts.
//! - **Footprints grow self-similarly.** Array indices are delta-coded
//!   per `(thread, array)` stream, so repetition `k` touches repetition
//!   1's indices shifted by `(k-1)·D` where `D` is the rule's net index
//!   delta. The annotator's greedy [`RangeSet`](bigfoot_shadow) merge
//!   is order-dependent, so instead of reasoning about it symbolically
//!   the walker *probes*: it expands three repetitions, checks that the
//!   third left every touched range-set structurally identical to the
//!   second except for its last range's upper bound growing by exactly
//!   the expected per-repetition delta (same `lo`, same stride, delta
//!   divisible by the stride), and only then extrapolates — that shape
//!   is translation-invariant, so each further repetition provably
//!   repeats it.
//!
//! The probe is also what keeps varying-shape runs honest: under a fine
//! (per-element) engine an advancing index produces different items in
//! repetitions 2 and 3, the equivalence check fails, and the walker
//! falls back to full expansion. Memoization never *changes* a verdict;
//! it only skips work it has proven redundant.
//!
//! Shard-side `shadow_ops` accounting uses a measured bracket: the
//! walker marks the third repetition with [`Item::MemoBegin`] /
//! [`Item::MemoScale`] on exactly the shards the second repetition
//! touched, and each shard scales the bracket's measured cost by the
//! number of skipped repetitions.

use crate::engine::{Annotator, ArrayEngine, CheckSource};
use crate::replay::{detect_and_merge, queued_annotator, Item, ReplayConfig, ShardQueues};
use crate::stats::Stats;
use bigfoot_bfj::trace::compress::{read_compressed, CompressedTrace, DeltaState};
use bigfoot_bfj::trace::TraceError;
use bigfoot_bfj::{CheckTarget, ConcreteRange, Event, Loc};
use bigfoot_obs::fx::FxHashMap;
use bigfoot_vc::AccessKind;

/// Minimum run length worth memoizing: three repetitions are expanded
/// as the probe, so anything shorter gains nothing.
const MIN_MEMO_REPS: u64 = 4;

/// Telemetry of one compressed replay run, for honest perf reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompressedReplayReport {
    /// Accepted memoized runs (rule runs whose tail was skipped).
    pub memo_runs: u64,
    /// Runs that were probed but fell back to full expansion.
    pub memo_fallbacks: u64,
    /// Events accounted without being materialized.
    pub skipped_events: u64,
    /// Total (logical) events in the trace.
    pub total_events: u64,
}

// ---------------- per-symbol static analysis ----------------

/// Per-`(thread, array)` stream summary of one symbol's expansion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StreamInfo {
    /// Net index delta over one expansion (sum of the symbol's
    /// delta-coded element accesses on this stream).
    net: i64,
    /// The expansion pushes *read* ranges into this stream's footprint
    /// under the active configuration.
    reads: bool,
    /// Likewise for writes.
    writes: bool,
}

/// What the walker needs to know about a symbol before running it.
#[derive(Debug, Clone, Default)]
struct SymInfo {
    /// Pure (only `Access`/`Check` events) and its stream deltas fit in
    /// `i64` — the preconditions for attempting memoization.
    memoable: bool,
    /// Touched streams, sorted by key for deterministic iteration.
    streams: Vec<((u32, u32), StreamInfo)>,
}

fn finish_info(memoable: bool, streams: FxHashMap<(u32, u32), StreamInfo>) -> SymInfo {
    if !memoable {
        return SymInfo {
            memoable,
            streams: Vec::new(),
        };
    }
    let mut streams: Vec<_> = streams.into_iter().collect();
    streams.sort_unstable_by_key(|(k, _)| *k);
    SymInfo { memoable, streams }
}

/// Computes purity, net stream deltas, and footprint-touch flags for
/// every symbol. Rules reference only earlier symbols, so one forward
/// pass suffices.
fn analyze(ct: &CompressedTrace, config: &ReplayConfig) -> Vec<SymInfo> {
    // Which event kind actually pushes footprints under this config:
    // raw accesses do iff the source is RawAccesses, check ranges do
    // iff the source is CheckEvents — and either only under the
    // Footprint engine (the fine engine emits items instead, which the
    // probe compares directly).
    let raw_fp =
        config.source == CheckSource::RawAccesses && config.engine == ArrayEngine::Footprint;
    let chk_fp =
        config.source == CheckSource::CheckEvents && config.engine == ArrayEngine::Footprint;
    let mut out: Vec<SymInfo> = Vec::with_capacity(ct.dict.len() + ct.rules.len());
    for ev in &ct.dict {
        let mut streams: FxHashMap<(u32, u32), StreamInfo> = FxHashMap::default();
        let memoable = match ev {
            Event::Access { t, kind, loc } => {
                if let Loc::Elem(arr, d) = loc {
                    let si = streams.entry((t.0, arr.0)).or_default();
                    si.net = *d;
                    if raw_fp {
                        match kind {
                            AccessKind::Read => si.reads = true,
                            AccessKind::Write => si.writes = true,
                        }
                    }
                }
                true
            }
            Event::Check { t, paths } => {
                for (kind, target) in paths {
                    if let CheckTarget::Range(arr, r) = target {
                        let si = streams.entry((t.0, arr.0)).or_default();
                        if chk_fp && !r.is_empty() {
                            match kind {
                                AccessKind::Read => si.reads = true,
                                AccessKind::Write => si.writes = true,
                            }
                        }
                    }
                }
                true
            }
            _ => false,
        };
        out.push(finish_info(memoable, streams));
    }
    for body in &ct.rules {
        let mut streams: FxHashMap<(u32, u32), StreamInfo> = FxHashMap::default();
        let mut memoable = true;
        for &(sym, count) in body {
            let child = &out[sym as usize];
            if !child.memoable {
                memoable = false;
                break;
            }
            for &(key, csi) in &child.streams {
                let si = streams.entry(key).or_default();
                match csi
                    .net
                    .checked_mul(count as i64)
                    .and_then(|x| si.net.checked_add(x))
                {
                    Some(v) => si.net = v,
                    None => memoable = false,
                }
                si.reads |= csi.reads;
                si.writes |= csi.writes;
            }
            if !memoable {
                break;
            }
        }
        out.push(finish_info(memoable, streams));
    }
    out
}

// ---------------- probe equivalence ----------------

/// Item equality modulo sequence number, with clock snapshots compared
/// by pointer (clocks are frozen inside a pure run, so the queues'
/// snapshot cache hands out the same `Arc`; a differing pointer means a
/// sync slipped in and memoization must not apply). Any variant other
/// than the two check kinds is conservatively unequal.
fn item_equiv(a: &Item, b: &Item) -> bool {
    match (a, b) {
        (
            Item::FieldCheck {
                act: a1,
                obj: o1,
                fields: f1,
            },
            Item::FieldCheck {
                act: a2,
                obj: o2,
                fields: f2,
            },
        ) => o1 == o2 && f1 == f2 && a1.same_act(a2),
        (
            Item::RangeCheck {
                act: a1,
                arr: r1,
                range: g1,
            },
            Item::RangeCheck {
                act: a2,
                arr: r2,
                range: g2,
            },
        ) => r1 == r2 && g1 == g2 && a1.same_act(a2),
        _ => false,
    }
}

fn items_equiv(a: &[(usize, Item)], b: &[(usize, Item)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((s1, i1), (s2, i2))| s1 == s2 && item_equiv(i1, i2))
}

// ---------------- footprint growth probe ----------------

type SetSnap = (Vec<ConcreteRange>, Vec<ConcreteRange>);

/// Validates one range-set's growth between probe repetitions 2 and 3
/// and returns the total growth to apply for the skipped repetitions,
/// or `None` if the shape is not provably extrapolable.
fn set_growth(
    v2: &[ConcreteRange],
    v3: &[ConcreteRange],
    expected: i64,
    times: u64,
) -> Option<i64> {
    if v2 == v3 {
        // Unchanged is only extrapolable when the configuration predicts
        // zero growth: with a nonzero net delta, "no visible change" can
        // mean the shifted indices were merely still contained — a later
        // repetition could escape, so fall back.
        return (expected == 0).then_some(0);
    }
    if expected == 0 || v2.is_empty() || v2.len() != v3.len() {
        return None;
    }
    let n = v2.len();
    if v2[..n - 1] != v3[..n - 1] {
        return None;
    }
    let (l2, l3) = (v2[n - 1], v3[n - 1]);
    if l2.lo != l3.lo || l2.step != l3.step {
        return None;
    }
    if l3.hi.checked_sub(l2.hi) != Some(expected) {
        return None;
    }
    // Same grid alignment for every further repetition.
    if expected % l3.step != 0 {
        return None;
    }
    let total = expected.checked_mul(i64::try_from(times).ok()?)?;
    l3.hi.checked_add(total)?;
    Some(total)
}

// ---------------- the walker ----------------

/// Scalar annotator tallies that scale linearly with skipped
/// repetitions (everything else — shadow ops, races, space — is owned
/// by the shards or fixed at sync points).
#[derive(Clone, Copy)]
struct Scalars {
    reads: u64,
    writes: u64,
    checks: u64,
    array_checks: u64,
    field_checks: u64,
    footprint_ops: u64,
    events: u64,
}

struct Walker<'a> {
    ct: &'a CompressedTrace,
    info: Vec<SymInfo>,
    ann: Annotator<ShardQueues>,
    /// Per-`(thread, array)` index reconstruction, advanced directly
    /// (wrapping, exactly like per-event decode) over skipped runs.
    delta: DeltaState,
    source: CheckSource,
    /// Inside a memoization probe: nested memoization is disabled so
    /// the three probe repetitions measure full expansions.
    probing: bool,
    report: CompressedReplayReport,
}

impl Walker<'_> {
    fn scalars(&self) -> Scalars {
        Scalars {
            reads: self.ann.stats.reads,
            writes: self.ann.stats.writes,
            checks: self.ann.stats.checks,
            array_checks: self.ann.stats.array_checks,
            field_checks: self.ann.stats.field_checks,
            footprint_ops: self.ann.stats.footprint_ops,
            events: self.ann.events,
        }
    }

    fn scale_scalars(&mut self, before: Scalars, after: Scalars, times: u64) {
        let s = &mut self.ann.stats;
        s.reads += (after.reads - before.reads) * times;
        s.writes += (after.writes - before.writes) * times;
        s.checks += (after.checks - before.checks) * times;
        s.array_checks += (after.array_checks - before.array_checks) * times;
        s.field_checks += (after.field_checks - before.field_checks) * times;
        s.footprint_ops += (after.footprint_ops - before.footprint_ops) * times;
        let ev_delta = (after.events - before.events) * times;
        self.ann.events += ev_delta;
        self.report.skipped_events += ev_delta;
    }

    /// Clones the touched streams' footprint range-sets (reads, writes).
    fn snap(&self, streams: &[((u32, u32), StreamInfo)]) -> Vec<SetSnap> {
        streams
            .iter()
            .map(|&((t, arr), _)| {
                self.ann
                    .footprints
                    .get(t as usize)
                    .and_then(|per| per.iter().find(|(a, _)| a.0 == arr))
                    .map(|(_, fp)| (fp.reads.ranges().to_vec(), fp.writes.ranges().to_vec()))
                    .unwrap_or_default()
            })
            .collect()
    }

    fn walk_top(&mut self) {
        let ct = self.ct;
        for &(sym, count) in &ct.top {
            self.walk(sym, count);
        }
    }

    fn walk(&mut self, sym: u64, count: u64) {
        if !self.probing && count >= MIN_MEMO_REPS && self.info[sym as usize].memoable {
            self.run_memoized(sym, count);
        } else {
            for _ in 0..count {
                self.emit_once(sym);
            }
        }
    }

    /// Expands one repetition of `sym` into the annotator. Rule bodies
    /// recurse through [`Walker::walk`], so nested runs may themselves
    /// memoize (unless a probe is in progress).
    fn emit_once(&mut self, sym: u64) {
        let ct = self.ct;
        if ct.is_rule(sym) {
            for &(s, c) in ct.rule_body(sym) {
                self.walk(s, c);
            }
        } else {
            let ev = self.delta.decode(&ct.dict[sym as usize]);
            self.ann.ingest(&ev);
        }
    }

    /// The memoization protocol: expand repetitions 1–3 (1 to reach the
    /// shadow/footprint fixpoint, 2–3 as the equivalence + growth
    /// probe), then account the remaining `count - 3` repetitions in
    /// O(1) if the probe proves them redundant, falling back to full
    /// expansion otherwise.
    fn run_memoized(&mut self, sym: u64, count: u64) {
        let streams = self.info[sym as usize].streams.clone();

        // Repetition 1: plain expansion (establishes the fixpoint).
        self.probing = true;
        self.emit_once(sym);

        // Repetition 2: record emitted items and their shard mask.
        self.ann.sink.rec = Some(Vec::new());
        self.ann.sink.mask = 0;
        self.emit_once(sym);
        let rec2 = self.ann.sink.rec.take().expect("recording armed");
        let mask2 = self.ann.sink.mask;
        let snap2 = self.snap(&streams);

        // Repetition 3: bracket the shards repetition 2 touched, record
        // again, and measure the scalar deltas of one repetition.
        let mut m = mask2;
        while m != 0 {
            let s = m.trailing_zeros() as usize;
            self.ann.sink.queues[s].push(Item::MemoBegin);
            m &= m - 1;
        }
        self.ann.sink.rec = Some(Vec::new());
        self.ann.sink.mask = 0;
        let before = self.scalars();
        self.emit_once(sym);
        let after = self.scalars();
        let rec3 = self.ann.sink.rec.take().expect("recording armed");
        let mask3 = self.ann.sink.mask;
        let snap3 = self.snap(&streams);
        self.probing = false;

        let times = count - 3;
        let growth = self.plan_growth(&streams, &snap2, &snap3, times);
        let fixpoint = (mask2 == mask3 && items_equiv(&rec2, &rec3))
            .then_some(growth)
            .flatten();
        if let Some(growth) = fixpoint {
            self.scale_scalars(before, after, times);
            for (i, &((t, arr), si)) in streams.iter().enumerate() {
                let (grow_r, grow_w) = growth[i];
                if grow_r > 0 || grow_w > 0 {
                    let fp = self
                        .ann
                        .footprints
                        .get_mut(t as usize)
                        .and_then(|per| per.iter_mut().find(|(a, _)| a.0 == arr))
                        .map(|(_, fp)| fp)
                        .expect("grown stream has a footprint");
                    if grow_r > 0 {
                        fp.reads.grow_last_hi(grow_r);
                    }
                    if grow_w > 0 {
                        fp.writes.grow_last_hi(grow_w);
                    }
                }
                // Keep the delta streams where full expansion would have
                // left them (wrapping, exactly like per-event decode).
                self.delta
                    .advance(t, arr, si.net.wrapping_mul(times as i64));
            }
            let mut m = mask2;
            while m != 0 {
                let s = m.trailing_zeros() as usize;
                self.ann.sink.queues[s].push(Item::MemoScale { times });
                m &= m - 1;
            }
            self.report.memo_runs += 1;
        } else {
            // Not provably redundant: expand the tail. The unmatched
            // MemoBegin markers only re-arm shard marks — harmless.
            self.report.memo_fallbacks += 1;
            for _ in 0..times {
                self.emit_once(sym);
            }
        }
    }

    /// Validates every touched stream's footprint growth between probe
    /// repetitions and returns the per-stream (reads, writes) totals to
    /// apply, or `None` if any stream is not extrapolable.
    fn plan_growth(
        &self,
        streams: &[((u32, u32), StreamInfo)],
        snap2: &[SetSnap],
        snap3: &[SetSnap],
        times: u64,
    ) -> Option<Vec<(i64, i64)>> {
        let mut out = Vec::with_capacity(streams.len());
        for (i, &(_, si)) in streams.iter().enumerate() {
            // Only singleton pushes from raw accesses shift with the
            // stream delta; instrumentation check ranges are absolute,
            // so their pushes repeat exactly and predict zero growth.
            let expect = |touched: bool| {
                if touched && self.source == CheckSource::RawAccesses {
                    si.net
                } else {
                    0
                }
            };
            let (r2, w2) = &snap2[i];
            let (r3, w3) = &snap3[i];
            let gr = set_growth(r2, r3, expect(si.reads), times)?;
            let gw = set_growth(w2, w3, expect(si.writes), times)?;
            out.push((gr, gw));
        }
        Some(out)
    }
}

/// Replays a grammar-compressed (`BFTC`) trace through the sharded
/// detection pipeline, memoizing repeated pure rules, and returns both
/// the stats and the memoization telemetry.
///
/// See [`replay_compressed`] for the plain-stats entry point and the
/// soundness discussion in the module docs.
pub fn replay_compressed_report(
    bytes: &[u8],
    config: &ReplayConfig,
) -> Result<(Stats, CompressedReplayReport), TraceError> {
    let ct = read_compressed(bytes)?;
    let info = analyze(&ct, config);
    let mut walker = Walker {
        ct: &ct,
        info,
        ann: queued_annotator(config),
        delta: DeltaState::default(),
        source: config.source,
        probing: false,
        report: CompressedReplayReport {
            total_events: ct.total_events,
            ..CompressedReplayReport::default()
        },
    };
    {
        let _span = bigfoot_obs::span!("creplay.annotate");
        walker.walk_top();
        walker.ann.finalize();
    }
    let report = walker.report;
    bigfoot_obs::count_named("replay.memo.runs", report.memo_runs);
    bigfoot_obs::count_named("replay.memo.fallbacks", report.memo_fallbacks);
    bigfoot_obs::count_named("replay.memo.skipped_events", report.skipped_events);
    bigfoot_obs::trace_counter!("replay.memo.skipped_events", report.skipped_events);
    Ok((
        detect_and_merge(walker.ann, config.engine, config.workers),
        report,
    ))
}

/// Replays a grammar-compressed (`BFTC`) trace and returns [`Stats`]
/// byte-identical to [`replay_trace`](crate::replay_trace) over the
/// equivalent uncompressed trace — at any worker count — while annotating
/// repeated loop bodies in O(1) per repetition where provably redundant.
///
/// # Errors
///
/// Returns [`TraceError`] if the container is malformed (see
/// `bigfoot_bfj::trace::compress::read_compressed` for the validation
/// guarantees).
///
/// # Examples
///
/// ```
/// use bigfoot_bfj::{
///     compile, parse_program, trace::compress, trace::TraceWriter, CompiledVm, SchedPolicy,
/// };
/// use bigfoot_detectors::{replay_compressed, replay_trace, ReplayConfig};
///
/// let p = parse_program(
///     "main {
///          a = new_array(64);
///          for (i = 0; i < 64; i = i + 1) { a[i] = i; }
///      }",
/// )?;
/// let mut w = TraceWriter::new();
/// CompiledVm::new(&compile(&p), SchedPolicy::default()).run(&mut w)?;
/// let raw = w.into_bytes();
/// let packed = compress::compress(&raw)?;
///
/// let config = ReplayConfig::slimstate(2);
/// let from_compressed = replay_compressed(&packed, &config)?;
/// let from_raw = replay_trace(&raw, &config)?;
/// assert_eq!(
///     from_compressed.to_json().to_string_compact(),
///     from_raw.to_json().to_string_compact(),
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn replay_compressed(bytes: &[u8], config: &ReplayConfig) -> Result<Stats, TraceError> {
    replay_compressed_report(bytes, config).map(|(stats, _)| stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ProxyTable;
    use crate::replay::replay_trace;
    use crate::Detector;
    use bigfoot_bfj::trace::compress::compress;
    use bigfoot_bfj::trace::TraceWriter;
    use bigfoot_bfj::{parse_program, EventSink, Interp, SchedPolicy};

    fn record(src: &str) -> Vec<u8> {
        let p = parse_program(src).expect("parse");
        let mut w = TraceWriter::new();
        Interp::new(&p, SchedPolicy::default())
            .run(&mut w)
            .expect("run");
        w.into_bytes()
    }

    fn serial_stats(bytes: &[u8], mut det: Detector) -> Stats {
        for ev in crate::replay::TraceReader::new(bytes).expect("header") {
            det.event(&ev.expect("event"));
        }
        det.finish()
    }

    fn all_configs(workers: usize) -> Vec<(&'static str, ReplayConfig, Detector)> {
        vec![
            (
                "fasttrack",
                ReplayConfig::fasttrack(workers),
                Detector::fasttrack(),
            ),
            (
                "redcard",
                ReplayConfig::redcard(ProxyTable::identity(), workers),
                Detector::redcard(ProxyTable::identity()),
            ),
            (
                "slimstate",
                ReplayConfig::slimstate(workers),
                Detector::slimstate(),
            ),
            (
                "slimcard",
                ReplayConfig::slimcard(ProxyTable::identity(), workers),
                Detector::slimcard(ProxyTable::identity()),
            ),
            (
                "bigfoot",
                ReplayConfig::bigfoot(ProxyTable::identity(), workers),
                Detector::bigfoot(ProxyTable::identity()),
            ),
        ]
    }

    fn assert_matches_everywhere(src: &str) {
        let raw = record(src);
        let packed = compress(&raw).expect("compress");
        for workers in [1, 4] {
            for (name, config, det) in all_configs(workers) {
                let serial = serial_stats(&raw, det);
                let from_raw = replay_trace(&raw, &config).expect("replay");
                let from_packed = replay_compressed(&packed, &config).expect("creplay");
                assert_eq!(
                    from_packed.to_json().to_string_compact(),
                    from_raw.to_json().to_string_compact(),
                    "{name} w={workers}: compressed vs raw replay"
                );
                assert_eq!(
                    from_packed.to_json().to_string_compact(),
                    serial.to_json().to_string_compact(),
                    "{name} w={workers}: compressed vs serial"
                );
                assert_eq!(from_packed.races, serial.races, "{name} w={workers}");
            }
        }
    }

    const LOOPY_RACY: &str = "
        class W { meth fill(a, v) {
            for (i = 0; i < a.length; i = i + 1) { a[i] = v; }
            check(w: a[0..a.length]);
            return 0; } }
        main {
            w = new W;
            a = new_array(48);
            fork t1 = w.fill(a, 1);
            fork t2 = w.fill(a, 2);
            join(t1); join(t2);
        }";

    const SYNC_IN_LOOP: &str = "
        class L { field g; }
        class W {
            field x;
            meth bump(l, n) {
                for (i = 0; i < n; i = i + 1) {
                    acq(l); this.x = this.x + 1; rel(l);
                }
                return 0; } }
        main {
            l = new L;
            w = new W;
            fork t1 = w.bump(l, 24);
            fork t2 = w.bump(l, 24);
            join(t1); join(t2);
        }";

    const FIELD_LOOP_RACY: &str = "
        class C { field x; meth spin(n) {
            for (i = 0; i < n; i = i + 1) { this.x = i; }
            return 0; } }
        main {
            c = new C;
            fork t1 = c.spin(32);
            fork t2 = c.spin(32);
            join(t1); join(t2);
        }";

    #[test]
    fn compressed_replay_matches_raw_everywhere() {
        for src in [LOOPY_RACY, SYNC_IN_LOOP, FIELD_LOOP_RACY] {
            assert_matches_everywhere(src);
        }
    }

    #[test]
    fn memoization_actually_fires_on_pure_loops() {
        let raw = record(
            "main {
                a = new_array(256);
                for (i = 0; i < 256; i = i + 1) { a[i] = i; }
             }",
        );
        let packed = compress(&raw).expect("compress");
        let (stats, report) =
            replay_compressed_report(&packed, &ReplayConfig::slimstate(1)).expect("creplay");
        assert!(report.memo_runs > 0, "pure loop must memoize: {report:?}");
        assert!(
            report.skipped_events > report.total_events / 2,
            "most of the trace should be skipped: {report:?}"
        );
        let serial = serial_stats(&raw, Detector::slimstate());
        assert_eq!(
            stats.to_json().to_string_compact(),
            serial.to_json().to_string_compact()
        );
    }

    #[test]
    fn fine_engine_advancing_indices_fall_back() {
        // FastTrack items carry absolute singleton ranges, so an
        // advancing loop produces different items in probe reps 2 and 3
        // and must fall back — and still match exactly.
        let raw = record(
            "main {
                a = new_array(128);
                for (i = 0; i < 128; i = i + 1) { a[i] = i; }
             }",
        );
        let packed = compress(&raw).expect("compress");
        let (stats, report) =
            replay_compressed_report(&packed, &ReplayConfig::fasttrack(1)).expect("creplay");
        assert_eq!(report.skipped_events, 0, "{report:?}");
        let serial = serial_stats(&raw, Detector::fasttrack());
        assert_eq!(
            stats.to_json().to_string_compact(),
            serial.to_json().to_string_compact()
        );
    }

    #[test]
    fn malformed_container_is_an_error() {
        assert!(matches!(
            replay_compressed(b"junk", &ReplayConfig::fasttrack(1)),
            Err(TraceError::BadMagic)
        ));
        let packed = compress(&record("main { a = new_array(4); a[0] = 1; }")).expect("compress");
        let mut cut = packed.clone();
        cut.truncate(cut.len() - 1);
        assert!(replay_compressed(&cut, &ReplayConfig::fasttrack(1)).is_err());
    }
}
