//! Race detection directly on grammar-compressed (`BFTC`) traces.
//!
//! Raw-trace replay (`crate::replay`) decodes every event straight into
//! the typed hooks of the serial detector, whose annotator applies each
//! check to one inline shard. This module drives the same annotator and
//! shard from a walk over the compressed grammar, and spends work only
//! where the configuration does:
//!
//! - **Count-only symbols are summed.** A detector that takes its checks
//!   from instrumentation (BigFoot, RedCard, SlimCard) only counts a raw
//!   access, and one that checks raw accesses (FastTrack, SlimState) only
//!   counts a `check` event. A symbol whose whole expansion is such events
//!   carries the `(events, reads, writes)` tallies of one expansion, and a
//!   run of it adds `count ×` those tallies in O(1): at any count, inside a
//!   memoization probe too, and without decoding an entry.
//! - **Pure runs are memoized.** A loop body with no intervening
//!   synchronization is annotated a bounded number of times and its
//!   remaining repetitions are applied in O(1).
//! - **Nothing is materialized.** The dictionary stays the container's
//!   bytes ([`Grammar`]): an entry the walk does expand is decoded through
//!   the one typed [`Decoder`] into the annotator's hooks, a delta-form
//!   element access getting its absolute index from [`DeltaState`] on the
//!   way ([`Absolute`]). The top-level sequence is walked as it is read
//!   from the bytes ([`Grammar::walk_top`]), so no pair list is built.
//!
//! So the annotation pass runs sublinearly in the expanded trace length,
//! while the final [`Stats`] stay byte-identical to [`replay_trace`]
//! (and hence to the serial detector). A container found malformed
//! part-way through the walk is an error, with the error
//! [`read_compressed`](bigfoot_bfj::read_compressed) gives, and the
//! partial run is dropped unpublished.
//!
//! # Why skipping repetitions is sound
//!
//! A rule is only considered *pure* if its expansion transitively
//! contains nothing but `Access` and `Check` events — no sync, no fork/
//! join, no allocations. Inside a pure run:
//!
//! - **Clocks are frozen.** Clocks only change at sync operations, so
//!   every check in the run carries the same clock generation.
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
//! (per-element) engine an advancing index produces different checks in
//! repetitions 2 and 3, the equivalence check fails, and the walker
//! falls back to full expansion. Memoization never *changes* a verdict;
//! it only skips work it has proven redundant.
//!
//! `shadow_ops` accounting uses a measured bracket: the walker reads the
//! shard's tally before and after the third repetition and adds the
//! difference once per skipped repetition.
//!
//! Summing a count-only symbol needs no probe. The annotator's hook for
//! such an event changes its counters and nothing else: under
//! instrumentation checks a raw access adds one to `events` and to
//! `reads` or `writes`, and under raw-access checks a `check` event adds
//! one to `events`. No clock, shadow cell, footprint or race report reads
//! those counters, so `count` repetitions add exactly `count ×` one
//! expansion's tallies wherever they fall, with or without sync around
//! them. The delta streams of summed raw accesses are not advanced; under
//! instrumentation checks no raw index reaches the shadow (check events
//! carry absolute ranges), so nothing reads them. Every symbol's expansion
//! and the container's are validated ≤ 2^40 events, so every product and
//! sum stays in `u64`.

use crate::engine::{Act, Annotator, ArrayEngine, CheckSource, ItemSink, ShardState};
use crate::replay::ReplayConfig;
use crate::stats::Stats;
use bigfoot_bfj::trace::compress::{read_grammar, Absolute, DeltaState, Grammar, Pair};
use bigfoot_bfj::trace::{Decoder, TraceError};
use bigfoot_bfj::{ArrId, CheckRef, ConcreteRange, Event, EventSink, Loc, ObjId};
use bigfoot_shadow::FieldGrouping;
use bigfoot_vc::{AccessKind, Tid};
use std::ops::Range;
use std::sync::Arc;

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

/// A `(thread, array)` delta stream.
type StreamKey = (u32, u32);

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

/// What one expansion of a count-only symbol adds to the tallies.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    events: u64,
    reads: u64,
    writes: u64,
}

impl Tally {
    /// `self += times × other`. A rule's tallies are at most its
    /// expansion size, validated ≤ 2^40, so this cannot overflow.
    fn add(&mut self, other: Tally, times: u64) {
        self.events += other.events * times;
        self.reads += other.reads * times;
        self.writes += other.writes * times;
    }
}

/// What the walker needs to know about a symbol before running it.
#[derive(Debug, Clone, Copy)]
enum SymInfo {
    /// The configuration only counts its whole expansion: raw accesses
    /// when checks come from instrumentation, checks when they come from
    /// raw accesses. A run of it is summed as `count × tally`.
    Counted(Tally),
    /// Pure (only `Access`/`Check` events), touches shadow state, and its
    /// stream deltas fit in `i64`: a memoization candidate. Its touched
    /// streams are `streams[start..end]` of the [`Analysis`].
    Pure { start: usize, end: usize },
    /// Anything else: always expanded.
    Expanded,
}

/// The per-symbol analysis: classifies each dictionary entry as the
/// container's dictionary is read (it is the dictionary's sink), then each
/// rule from its body. Rules reference only earlier symbols, so one
/// forward pass suffices. Every symbol's streams share one arena.
struct Analysis {
    source: CheckSource,
    /// Raw element accesses push footprints: raw accesses are checked,
    /// under the footprint engine (the fine engine applies items instead,
    /// which the probe compares directly).
    raw_fp: bool,
    /// Check ranges push footprints: instrumentation checks, under the
    /// footprint engine.
    chk_fp: bool,
    info: Vec<SymInfo>,
    streams: Vec<(StreamKey, StreamInfo)>,
    /// A rule's child streams, scaled by their counts, before merging.
    scratch: Vec<(StreamKey, i128, bool, bool)>,
}

impl Analysis {
    fn new(config: &ReplayConfig) -> Analysis {
        let footprint = config.engine == ArrayEngine::Footprint;
        Analysis {
            source: config.source,
            raw_fp: footprint && config.source == CheckSource::RawAccesses,
            chk_fp: footprint && config.source == CheckSource::CheckEvents,
            info: Vec::new(),
            streams: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Classifies every rule of `g`, after its dictionary.
    fn add_rules(&mut self, g: &Grammar<'_>) {
        self.info.reserve_exact(g.rule_count());
        for i in 0..g.rule_count() {
            let info = self.rule_info(g.rule_body((g.dict_len() + i) as u64));
            self.info.push(info);
        }
    }

    fn rule_info(&mut self, body: &[Pair]) -> SymInfo {
        let mut tally = Some(Tally::default());
        self.scratch.clear();
        for &(sym, count) in body {
            match self.info[sym as usize] {
                SymInfo::Counted(t) => {
                    if let Some(acc) = &mut tally {
                        acc.add(t, count);
                    }
                }
                SymInfo::Pure { start, end } => {
                    tally = None;
                    for &(key, si) in &self.streams[start..end] {
                        let net = i128::from(si.net) * i128::from(count);
                        self.scratch.push((key, net, si.reads, si.writes));
                    }
                }
                SymInfo::Expanded => return SymInfo::Expanded,
            }
        }
        if let Some(tally) = tally {
            return SymInfo::Counted(tally);
        }
        // Merge the children's streams by key.
        self.scratch.sort_unstable_by_key(|e| e.0);
        let start = self.streams.len();
        let mut rest = &self.scratch[..];
        while let Some(&(key, ..)) = rest.first() {
            let n = rest.iter().take_while(|e| e.0 == key).count();
            let mut net: Option<i128> = Some(0);
            let mut si = StreamInfo::default();
            for &(_, d, reads, writes) in &rest[..n] {
                net = net.and_then(|x| x.checked_add(d));
                si.reads |= reads;
                si.writes |= writes;
            }
            match net.and_then(|x| i64::try_from(x).ok()) {
                Some(net) => self.streams.push((key, StreamInfo { net, ..si })),
                None => {
                    self.streams.truncate(start);
                    return SymInfo::Expanded;
                }
            }
            rest = &rest[n..];
        }
        SymInfo::Pure {
            start,
            end: self.streams.len(),
        }
    }

    /// Adds to the streams of the entry being classified (from `start`).
    fn touch(&mut self, start: usize, key: StreamKey, net: i64, kind: Option<AccessKind>) {
        let si = match self.streams[start..].iter_mut().find(|(k, _)| *k == key) {
            Some((_, si)) => si,
            None => {
                self.streams.push((key, StreamInfo::default()));
                &mut self.streams.last_mut().expect("just pushed").1
            }
        };
        si.net = net;
        match kind {
            Some(AccessKind::Read) => si.reads = true,
            Some(AccessKind::Write) => si.writes = true,
            None => {}
        }
    }

    fn pure_from(&self, start: usize) -> SymInfo {
        SymInfo::Pure {
            start,
            end: self.streams.len(),
        }
    }
}

/// The dictionary's sink: one classification per entry, in delta form.
impl EventSink for Analysis {
    fn event(&mut self, _ev: &Event) {
        // Allocation or synchronization.
        self.info.push(SymInfo::Expanded);
    }

    fn access(&mut self, t: Tid, kind: AccessKind, loc: Loc) {
        if self.source == CheckSource::CheckEvents {
            let read = u64::from(kind == AccessKind::Read);
            self.info.push(SymInfo::Counted(Tally {
                events: 1,
                reads: read,
                writes: 1 - read,
            }));
            return;
        }
        let start = self.streams.len();
        if let Loc::Elem(arr, d) = loc {
            let pushes = self.raw_fp.then_some(kind);
            self.touch(start, (t.0, arr.0), d, pushes);
        }
        self.info.push(self.pure_from(start));
    }

    fn check(&mut self, t: Tid, paths: &[(AccessKind, CheckRef<'_>)]) {
        if self.source == CheckSource::RawAccesses {
            self.info.push(SymInfo::Counted(Tally {
                events: 1,
                ..Tally::default()
            }));
            return;
        }
        // Only a range that reaches a footprint matters to the probe;
        // check ranges are absolute, so their streams have no net delta.
        let start = self.streams.len();
        if self.chk_fp {
            for &(kind, path) in paths {
                if let CheckRef::Range(arr, r) = path {
                    if !r.is_empty() {
                        self.touch(start, (t.0, arr.0), 0, Some(kind));
                    }
                }
            }
        }
        self.info.push(self.pure_from(start));
    }
}

// ---------------- the inline shard and the probe log ----------------

/// One check logged during a memoization probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CheckRec {
    t: Tid,
    kind: AccessKind,
    /// The acting thread's clock generation: equal generations mean the
    /// same clock, so a sync between two repetitions makes them differ.
    gen: u64,
    target: RecTarget,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecTarget {
    /// A field check; its field list is `fields[start..end]` of the log.
    Fields {
        obj: ObjId,
        start: usize,
        end: usize,
    },
    /// An array range check.
    Range { arr: ArrId, range: ConcreteRange },
}

/// The checks of one probe repetition, in the order they were applied.
/// Two logs are equal exactly when the repetitions performed the same
/// checks under the same clocks: the field-list offsets of equal record
/// sequences coincide, so comparing the flat field vectors compares
/// every list.
#[derive(Debug, Default, PartialEq, Eq)]
struct CheckLog {
    recs: Vec<CheckRec>,
    fields: Vec<u32>,
}

/// Compressed replay's sink: the inline shard, plus the check log of a
/// memoization probe while one is armed. A probe covers a pure run —
/// no allocation, no sync, hence no space sample — so checks are all it
/// can see.
struct MemoSink {
    shard: ShardState,
    /// Per-thread clock generation, bumped whenever the clock changes.
    gens: Vec<u64>,
    log: Option<CheckLog>,
}

impl MemoSink {
    fn gen(&self, t: Tid) -> u64 {
        self.gens.get(t.index()).copied().unwrap_or(0)
    }

    /// Kept out of line so the plain walk pays one branch for it.
    #[cold]
    #[inline(never)]
    fn log_check(&mut self, act: Act<'_>, target: impl FnOnce(&mut Vec<u32>) -> RecTarget) {
        let gen = self.gen(act.t);
        if let Some(log) = &mut self.log {
            let target = target(&mut log.fields);
            log.recs.push(CheckRec {
                t: act.t,
                kind: act.kind,
                gen,
                target,
            });
        }
    }
}

impl ItemSink for MemoSink {
    fn alloc_obj(&mut self, obj: ObjId, grouping: &Arc<FieldGrouping>) {
        self.shard.alloc_obj(obj, grouping);
    }

    fn alloc_arr(&mut self, arr: ArrId, len: u64) {
        self.shard.alloc_arr(arr, len);
    }

    #[inline]
    fn check_fields(&mut self, act: Act<'_>, obj: ObjId, fields: &[u32], stats: &mut Stats) {
        if self.log.is_some() {
            self.log_check(act, |log| {
                let start = log.len();
                log.extend_from_slice(fields);
                RecTarget::Fields {
                    obj,
                    start,
                    end: log.len(),
                }
            });
        }
        ItemSink::check_fields(&mut self.shard, act, obj, fields, stats);
    }

    #[inline]
    fn check_range(&mut self, act: Act<'_>, arr: ArrId, range: ConcreteRange, stats: &mut Stats) {
        if self.log.is_some() {
            self.log_check(act, |_| RecTarget::Range { arr, range });
        }
        ItemSink::check_range(&mut self.shard, act, arr, range, stats);
    }

    fn space_probe(&mut self, footprint_units: u64, stats: &mut Stats) {
        self.shard.space_probe(footprint_units, stats);
    }

    fn invalidate(&mut self, t: Tid) {
        let ti = t.index();
        if self.gens.len() <= ti {
            self.gens.resize(ti + 1, 0);
        }
        self.gens[ti] += 1;
    }

    fn shadow_ops(&self) -> u64 {
        self.shard.shadow_ops
    }
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

/// Tallies that scale linearly with skipped repetitions (races add
/// nothing new and space is sampled only at sync points).
#[derive(Clone, Copy)]
struct Scalars {
    reads: u64,
    writes: u64,
    checks: u64,
    array_checks: u64,
    field_checks: u64,
    footprint_ops: u64,
    events: u64,
    shadow_ops: u64,
}

struct Walker<'g, 'a> {
    grammar: &'g Grammar<'a>,
    info: Vec<SymInfo>,
    streams: Vec<(StreamKey, StreamInfo)>,
    ann: Annotator<MemoSink>,
    decoder: Decoder,
    /// Per-`(thread, array)` index reconstruction, advanced directly
    /// (wrapping, exactly like per-event decode) over skipped runs. Only
    /// an expanded raw access consults it: when checks come from
    /// instrumentation, raw accesses are summed and it stays empty.
    delta: DeltaState,
    source: CheckSource,
    /// Sum count-only symbols and memoize pure runs; off, every
    /// repetition is expanded.
    memoize: bool,
    /// Inside a memoization probe: nested memoization is disabled so
    /// the three probe repetitions measure full expansions.
    probing: bool,
    report: CompressedReplayReport,
}

impl Walker<'_, '_> {
    fn scalars(&self) -> Scalars {
        Scalars {
            reads: self.ann.stats.reads,
            writes: self.ann.stats.writes,
            checks: self.ann.stats.checks,
            array_checks: self.ann.stats.array_checks,
            field_checks: self.ann.stats.field_checks,
            footprint_ops: self.ann.stats.footprint_ops,
            events: self.ann.events,
            shadow_ops: self.ann.sink.shard.shadow_ops,
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
        // The skipped repetitions perform exactly the measured
        // repetition's shadow ops (and only duplicate, already
        // deduplicated races).
        self.ann.sink.shard.shadow_ops += (after.shadow_ops - before.shadow_ops) * times;
    }

    /// Clones the touched streams' footprint range-sets (reads, writes).
    fn snap(&self, streams: Range<usize>) -> Vec<SetSnap> {
        self.streams[streams]
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

    #[inline]
    fn walk(&mut self, sym: u64, count: u64) {
        match self.info[sym as usize] {
            SymInfo::Counted(tally) if self.memoize => {
                // Summed in O(1), like a skipped repetition.
                let events = tally.events * count;
                self.ann.events += events;
                self.ann.stats.reads += tally.reads * count;
                self.ann.stats.writes += tally.writes * count;
                self.report.skipped_events += events;
            }
            SymInfo::Pure { start, end }
                if self.memoize && !self.probing && count >= MIN_MEMO_REPS =>
            {
                self.run_memoized(sym, count, start..end);
            }
            _ => {
                for _ in 0..count {
                    self.emit_once(sym);
                }
            }
        }
    }

    /// Expands one repetition of `sym` into the annotator. Rule bodies
    /// recurse through [`Walker::walk`], so nested runs may themselves
    /// be summed or memoized (unless a probe is in progress).
    fn emit_once(&mut self, sym: u64) {
        let g = self.grammar;
        if g.is_rule(sym) {
            for &(s, c) in g.rule_body(sym) {
                self.walk(s, c);
            }
        } else {
            // The entry is decoded from the container's bytes straight
            // into the annotator's typed hooks; an element access gets its
            // absolute index on the way.
            let mut abs = Absolute {
                delta: &mut self.delta,
                sink: &mut self.ann,
            };
            g.decode_entry(sym, &mut self.decoder, &mut abs);
        }
    }

    /// The memoization protocol: expand repetitions 1–3 (1 to reach the
    /// shadow/footprint fixpoint, 2–3 as the equivalence + growth
    /// probe), then account the remaining `count - 3` repetitions in
    /// O(1) if the probe proves them redundant, falling back to full
    /// expansion otherwise. `streams` indexes the symbol's streams.
    fn run_memoized(&mut self, sym: u64, count: u64, streams: Range<usize>) {
        // Repetition 1: plain expansion (establishes the fixpoint).
        self.probing = true;
        self.emit_once(sym);

        // Repetition 2: log its checks.
        self.ann.sink.log = Some(CheckLog::default());
        self.emit_once(sym);
        let log2 = self.ann.sink.log.take().expect("log armed");
        let snap2 = self.snap(streams.clone());

        // Repetition 3: log again, and measure the tallies of one
        // repetition.
        self.ann.sink.log = Some(CheckLog::default());
        let before = self.scalars();
        self.emit_once(sym);
        let after = self.scalars();
        let log3 = self.ann.sink.log.take().expect("log armed");
        let snap3 = self.snap(streams.clone());
        self.probing = false;

        let times = count - 3;
        let growth = self.plan_growth(streams.clone(), &snap2, &snap3, times);
        let fixpoint = (log2 == log3).then_some(growth).flatten();
        if let Some(growth) = fixpoint {
            self.scale_scalars(before, after, times);
            for (i, &((t, arr), si)) in self.streams[streams].iter().enumerate() {
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
                if si.net != 0 {
                    self.delta
                        .advance(t, arr, si.net.wrapping_mul(times as i64));
                }
            }
            self.report.memo_runs += 1;
        } else {
            // Not provably redundant: expand the tail.
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
        streams: Range<usize>,
        snap2: &[SetSnap],
        snap3: &[SetSnap],
        times: u64,
    ) -> Option<Vec<(i64, i64)>> {
        let mut out = Vec::with_capacity(streams.len());
        for (i, &(_, si)) in self.streams[streams].iter().enumerate() {
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

/// Replays a grammar-compressed (`BFTC`) trace on one inline shard,
/// memoizing repeated pure rules, and returns both the stats and the
/// memoization telemetry.
///
/// See [`replay_compressed`] for the plain-stats entry point and the
/// soundness discussion in the module docs.
pub fn replay_compressed_report(
    bytes: &[u8],
    config: &ReplayConfig,
) -> Result<(Stats, CompressedReplayReport), TraceError> {
    walk_compressed(bytes, config, true)
}

/// The grammar walk behind [`replay_compressed_report`]; with `memoize`
/// off every repetition is expanded.
///
/// The top-level sequence is walked as it is read from the bytes. A
/// container found malformed part-way is an error and the partial run is
/// dropped unpublished, like [`replay_trace`](crate::replay_trace)'s.
fn walk_compressed(
    bytes: &[u8],
    config: &ReplayConfig,
    memoize: bool,
) -> Result<(Stats, CompressedReplayReport), TraceError> {
    let mut analysis = Analysis::new(config);
    let grammar = read_grammar(bytes, &mut analysis)?;
    analysis.add_rules(&grammar);
    let sink = MemoSink {
        shard: ShardState::new(config.engine),
        gens: Vec::new(),
        log: None,
    };
    let mut walker = Walker {
        grammar: &grammar,
        info: analysis.info,
        streams: analysis.streams,
        ann: config.annotator(sink),
        decoder: Decoder::default(),
        delta: DeltaState::default(),
        source: config.source,
        memoize,
        probing: false,
        report: CompressedReplayReport::default(),
    };
    let (stats, total_events) = {
        let _span = bigfoot_obs::span!("creplay.annotate");
        let total_events = grammar.walk_top(|sym, count| walker.walk(sym, count))?;
        (walker.ann.finish(), total_events)
    };
    let report = CompressedReplayReport {
        total_events,
        ..walker.report
    };
    bigfoot_obs::count_named("replay.memo.runs", report.memo_runs);
    bigfoot_obs::count_named("replay.memo.fallbacks", report.memo_fallbacks);
    bigfoot_obs::count_named("replay.memo.skipped_events", report.skipped_events);
    bigfoot_obs::trace_counter!("replay.memo.skipped_events", report.skipped_events);
    Ok((stats, report))
}

/// Replays a grammar-compressed (`BFTC`) trace and returns [`Stats`]
/// byte-identical to [`replay_trace`](crate::replay_trace) over the
/// equivalent uncompressed trace, while annotating
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
/// let config = ReplayConfig::slimstate(1);
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

    fn all_configs() -> Vec<(&'static str, ReplayConfig, Detector)> {
        vec![
            (
                "fasttrack",
                ReplayConfig::fasttrack(1),
                Detector::fasttrack(),
            ),
            (
                "redcard",
                ReplayConfig::redcard(ProxyTable::identity(), 1),
                Detector::redcard(ProxyTable::identity()),
            ),
            (
                "slimstate",
                ReplayConfig::slimstate(1),
                Detector::slimstate(),
            ),
            (
                "slimcard",
                ReplayConfig::slimcard(ProxyTable::identity(), 1),
                Detector::slimcard(ProxyTable::identity()),
            ),
            (
                "bigfoot",
                ReplayConfig::bigfoot(ProxyTable::identity(), 1),
                Detector::bigfoot(ProxyTable::identity()),
            ),
        ]
    }

    fn assert_matches_everywhere(src: &str) {
        let raw = record(src);
        let packed = compress(&raw).expect("compress");
        for (name, config, det) in all_configs() {
            let serial = serial_stats(&raw, det);
            let from_raw = replay_trace(&raw, &config).expect("replay");
            let from_packed = replay_compressed(&packed, &config).expect("creplay");
            assert_eq!(
                from_packed.to_json().to_string_compact(),
                from_raw.to_json().to_string_compact(),
                "{name}: compressed vs raw replay"
            );
            assert_eq!(
                from_packed.to_json().to_string_compact(),
                serial.to_json().to_string_compact(),
                "{name}: compressed vs serial"
            );
            assert_eq!(from_packed.races, serial.races, "{name}");
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
    fn memoized_runs_account_like_full_expansion() {
        // Two threads sweep the same array: the sweeps memoize, and the
        // committed footprints race.
        let src = "
            class W { meth fill(a, v) {
                for (i = 0; i < a.length; i = i + 1) { a[i] = v; }
                return 0; } }
            main {
                w = new W;
                a = new_array(200);
                fork t1 = w.fill(a, 1);
                fork t2 = w.fill(a, 2);
                join(t1); join(t2);
            }";
        let packed = compress(&record(src)).expect("compress");
        let config = ReplayConfig::slimstate(1);
        let (memo, report) = walk_compressed(&packed, &config, true).expect("creplay");
        let (full, full_report) = walk_compressed(&packed, &config, false).expect("creplay");
        assert!(report.skipped_events > 0, "{report:?}");
        assert_eq!(full_report.skipped_events, 0, "{full_report:?}");
        assert!(memo.has_races());
        assert_eq!(memo.shadow_ops, full.shadow_ops);
        assert_eq!(memo.races, full.races);
        assert_eq!(memo.shadow_space_peak, full.shadow_space_peak);
        assert_eq!(
            memo.to_json().to_string_compact(),
            full.to_json().to_string_compact()
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

    /// Check events in a raw trace.
    fn check_events(raw: &[u8]) -> u64 {
        crate::replay::TraceReader::new(raw)
            .expect("header")
            .filter(|ev| matches!(ev, Ok(Event::Check { .. })))
            .count() as u64
    }

    #[test]
    fn count_only_symbols_are_summed() {
        // Two workers sweep three arrays in short inner loops, taking the
        // lock once per outer iteration: every outer iteration syncs, so
        // only the inner runs can be skipped, and BigFoot only counts
        // their raw accesses.
        let swept = record(
            "class L { field g; }
             class W { meth sweep(l, a, b, c, n) {
                 for (i = 0; i < n; i = i + 1) {
                     acq(l);
                     for (j = 0; j < 8; j = j + 1) { c[j] = a[j] + b[j]; }
                     rel(l);
                 }
                 return 0; } }
             main {
                 l = new L; w = new W;
                 a = new_array(8); b = new_array(8); c = new_array(8); d = new_array(8);
                 fork t1 = w.sweep(l, a, b, c, 40);
                 fork t2 = w.sweep(l, a, b, d, 40);
                 join(t1); join(t2);
             }",
        );
        // Check-heavy: a check statement per element, on an advancing
        // index, which FastTrack's fine engine cannot memoize.
        let checked = record(
            "main {
                 a = new_array(64);
                 for (i = 0; i < 64; i = i + 1) {
                     a[i] = i;
                     check(w: a[i..i + 1], r: a[0..64]);
                 }
             }",
        );
        for raw in [&swept, &checked] {
            let packed = compress(raw).expect("compress");
            for (name, config, _) in all_configs() {
                let (stats, report) = replay_compressed_report(&packed, &config).expect("creplay");
                let from_raw = replay_trace(raw, &config).expect("replay");
                assert_eq!(
                    stats.to_json().to_string_compact(),
                    from_raw.to_json().to_string_compact(),
                    "{name}"
                );
                assert!(report.skipped_events <= report.total_events, "{report:?}");
            }
        }
        let packed = compress(&swept).expect("compress");
        let bigfoot = ReplayConfig::bigfoot(ProxyTable::identity(), 1);
        let (_, report) = replay_compressed_report(&packed, &bigfoot).expect("creplay");
        assert!(
            report.skipped_events * 10 >= report.total_events * 9,
            "BigFoot only counts the sweeps' accesses: {report:?}"
        );
        let packed = compress(&checked).expect("compress");
        let (_, report) =
            replay_compressed_report(&packed, &ReplayConfig::fasttrack(1)).expect("creplay");
        let checks = check_events(&checked);
        assert!(checks >= 64);
        assert!(
            report.skipped_events >= checks,
            "FastTrack only counts the {checks} checks: {report:?}"
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
