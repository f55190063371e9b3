//! Parallel sharded trace-replay detection.
//!
//! The serial [`Detector`](crate::Detector) consumes events as the
//! interpreter produces them. This module replays a *recorded* trace (see
//! `bigfoot_bfj::trace`) instead, splitting detection into three stages:
//!
//! 1. **Annotate** (serial). Sync events (acquire/release/fork/join/
//!    volatiles/exit) are run in trace order against [`SyncClocks`], and
//!    every check — immediate field/fine-array checks as well as the
//!    deferred footprint commits that fire at each sync — is turned into a
//!    self-contained work item carrying a snapshot of the acting thread's
//!    [`VectorClock`] (shared via `Arc`; clocks only change at sync ops,
//!    so snapshots are cached between them). Items get a global sequence
//!    number in exactly the order the serial detector would perform the
//!    corresponding shadow operations.
//! 2. **Detect** (parallel). Items route to one of [`SHARDS`] fixed
//!    logical shards by owning object/array id, so a field group or a
//!    whole array — including all of an [`ArrayShadow`]'s adaptive
//!    refinement — always lands on one shard and stays sequential. `N`
//!    workers each own the shards `s % N == w`; because routing is by
//!    *shard* and not by worker, each shard sees the same item stream in
//!    the same order for every worker count.
//! 3. **Merge** (serial). Per-shard race candidates, tagged
//!    `(seq, intra_item_index)`, are sorted back into global trace order
//!    and fed through [`Stats::report_race`] — the same deduplication the
//!    serial detector applies inline — so the final report is
//!    **bit-identical** to the serial detector's, at any worker count.
//!
//! Shadow space is also reproduced exactly: the annotator emits a probe
//! item to every shard at each point the serial detector would sample
//! (every [`SPACE_SAMPLE_PERIOD`] sync ops and at finalization), records
//! its own footprint-buffer size at that point, and the merge sums the
//! per-shard measurements per probe.

use crate::detector::SPACE_SAMPLE_PERIOD;
use crate::detector::{ArrayEngine, CheckSource, ObjEntry, ProxyTable, FP_POOL_MAX};
use crate::stats::{Race, RaceTarget, Stats};
use crate::sync::SyncClocks;
use bigfoot_bfj::trace::{read_event, read_header, TraceError};
use bigfoot_bfj::{ArrId, CheckTarget, ConcreteRange, Event, Loc, ObjId};
use bigfoot_obs::fx::FxHashMap;
use bigfoot_shadow::{ArrayShadow, FieldGrouping, Footprint, ObjectShadow, Slab};
use bigfoot_vc::{AccessKind, Tid, VarState, VectorClock};
use std::sync::Arc;

/// Number of fixed logical shards.
///
/// Work routes to `SHARDS` queues regardless of the worker count; workers
/// then divide the *shards*, never the items. This is what makes replay
/// verdicts independent of `--replay-workers`: shard streams (and hence
/// per-shard shadow state evolution) are identical at every worker count.
pub const SHARDS: usize = 64;

#[inline]
fn obj_shard(obj: ObjId) -> usize {
    obj.0 as usize % SHARDS
}

#[inline]
fn arr_shard(arr: ArrId) -> usize {
    arr.0 as usize % SHARDS
}

/// Streaming decoder over a serialized trace buffer.
///
/// # Examples
///
/// ```
/// use bigfoot_bfj::{parse_program, trace::TraceWriter, Interp, SchedPolicy};
/// use bigfoot_detectors::TraceReader;
///
/// let p = parse_program("main { a = new_array(4); a[0] = 1; }")?;
/// let mut w = TraceWriter::new();
/// Interp::new(&p, SchedPolicy::default()).run(&mut w)?;
/// let bytes = w.into_bytes();
/// let events: Vec<_> = TraceReader::new(&bytes)?.collect::<Result<_, _>>()?;
/// assert!(!events.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> TraceReader<'a> {
    /// Validates the header and positions the reader at the first event.
    pub fn new(bytes: &'a [u8]) -> Result<TraceReader<'a>, TraceError> {
        let pos = read_header(bytes)?;
        Ok(TraceReader { bytes, pos })
    }
}

impl Iterator for TraceReader<'_> {
    type Item = Result<Event, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        match read_event(self.bytes, &mut self.pos) {
            Ok(Some(ev)) => Some(Ok(ev)),
            Ok(None) => None,
            Err(e) => {
                // Park the cursor at the end so a malformed trace yields
                // one error and then terminates the iterator.
                self.pos = self.bytes.len();
                Some(Err(e))
            }
        }
    }
}

/// Configuration of a replay run: the detector configuration plus the
/// worker count. Constructors mirror [`Detector`](crate::Detector)'s.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Where checks come from (raw accesses vs instrumentation).
    pub source: CheckSource,
    /// Fine per-element arrays vs footprint + adaptive compression.
    pub engine: ArrayEngine,
    /// Static field-proxy groupings.
    pub proxies: ProxyTable,
    /// Number of detection worker threads (clamped to `1..=SHARDS`).
    pub workers: usize,
}

impl ReplayConfig {
    /// FastTrack configuration at the given worker count.
    pub fn fasttrack(workers: usize) -> ReplayConfig {
        ReplayConfig {
            source: CheckSource::RawAccesses,
            engine: ArrayEngine::Fine,
            proxies: ProxyTable::identity(),
            workers,
        }
    }

    /// RedCard configuration.
    pub fn redcard(proxies: ProxyTable, workers: usize) -> ReplayConfig {
        ReplayConfig {
            source: CheckSource::CheckEvents,
            engine: ArrayEngine::Fine,
            proxies,
            workers,
        }
    }

    /// SlimState configuration.
    pub fn slimstate(workers: usize) -> ReplayConfig {
        ReplayConfig {
            source: CheckSource::RawAccesses,
            engine: ArrayEngine::Footprint,
            proxies: ProxyTable::identity(),
            workers,
        }
    }

    /// SlimCard configuration.
    pub fn slimcard(proxies: ProxyTable, workers: usize) -> ReplayConfig {
        ReplayConfig {
            source: CheckSource::CheckEvents,
            engine: ArrayEngine::Footprint,
            proxies,
            workers,
        }
    }

    /// BigFoot (DynamicBF) configuration.
    pub fn bigfoot(proxies: ProxyTable, workers: usize) -> ReplayConfig {
        ReplayConfig {
            source: CheckSource::CheckEvents,
            engine: ArrayEngine::Footprint,
            proxies,
            workers,
        }
    }
}

/// One unit of check work, routed to a shard. Items carry everything the
/// shard needs — in particular an `Arc` snapshot of the acting thread's
/// clock at the moment the serial detector would have read it.
#[derive(Clone)]
pub(crate) enum Item {
    AllocObj {
        obj: ObjId,
        grouping: Arc<FieldGrouping>,
    },
    AllocArr {
        arr: ArrId,
        len: u64,
    },
    /// A field check over an uncompressed field list (groups are resolved
    /// by the shard, which owns the object's grouping).
    FieldCheck {
        seq: u64,
        obj: ObjId,
        fields: Vec<u32>,
        kind: AccessKind,
        t: Tid,
        clock: Arc<VectorClock>,
    },
    /// A fine-grained (per-element) array check.
    FineRange {
        seq: u64,
        arr: ArrId,
        range: ConcreteRange,
        kind: AccessKind,
        t: Tid,
        clock: Arc<VectorClock>,
    },
    /// One committed footprint range against the adaptive shadow. The
    /// clock is the committing thread's clock *before* the triggering sync
    /// operation updated it, exactly as in the serial detector.
    CommitRange {
        seq: u64,
        arr: ArrId,
        range: ConcreteRange,
        kind: AccessKind,
        t: Tid,
        clock: Arc<VectorClock>,
    },
    /// Measure this shard's shadow space (one per global sample point).
    SpaceProbe,
    /// Compressed replay: mark the start of a memoization probe bracket.
    /// The shard records its `shadow_ops` tally so the bracket's cost can
    /// be measured. An unmatched marker (memoization fell back to full
    /// expansion) is harmless — it only re-arms the mark.
    MemoBegin,
    /// Compressed replay: the items since the matching [`Item::MemoBegin`]
    /// were one repetition of a rule whose remaining `times` repetitions
    /// are provably identical (state fixpoint, duplicate races only), so
    /// the shard accounts their shadow ops by scaling the measured bracket
    /// instead of re-applying it.
    MemoScale {
        /// Number of skipped repetitions to account for.
        times: u64,
    },
}

/// What one shard's detection produced.
#[derive(Default)]
struct ShardOutcome {
    items: u64,
    shadow_ops: u64,
    /// Race candidates tagged with `(global_seq, intra_item_index)`.
    races: Vec<(u64, u32, Race)>,
    /// Shadow space at each probe point, in clock-entry units.
    probe_spaces: Vec<u64>,
}

/// Per-shard detection state: exactly the serial detector's shadow stores,
/// restricted to the objects/arrays that route to this shard. Ids within
/// shard `s` are `s, s + SHARDS, …`, so strided slabs index by
/// `id / SHARDS` and stay dense per shard.
struct ShardState {
    engine: ArrayEngine,
    objects: Slab<ObjId, ObjEntry>,
    arrays_fine: Slab<ArrId, Vec<VarState>>,
    arrays_adaptive: Slab<ArrId, ArrayShadow>,
    /// Scratch for proxy-group deduplication in multi-field checks.
    group_scratch: Vec<u32>,
    /// `shadow_ops` tally at the last [`Item::MemoBegin`].
    memo_mark: u64,
    out: ShardOutcome,
}

impl ShardState {
    fn new(engine: ArrayEngine) -> ShardState {
        ShardState {
            engine,
            objects: Slab::with_stride(SHARDS as u32),
            arrays_fine: Slab::with_stride(SHARDS as u32),
            arrays_adaptive: Slab::with_stride(SHARDS as u32),
            group_scratch: Vec::new(),
            memo_mark: 0,
            out: ShardOutcome::default(),
        }
    }

    fn run(mut self, items: &[Item]) -> ShardOutcome {
        for item in items {
            self.out.items += 1;
            self.apply(item);
        }
        // Publish this worker thread's FastTrack path tallies.
        bigfoot_vc::path_stats::flush();
        self.out
    }

    fn apply(&mut self, item: &Item) {
        match item {
            Item::AllocObj { obj, grouping } => {
                let shadow = ObjectShadow::new(grouping.groups);
                self.objects.insert(
                    *obj,
                    ObjEntry {
                        grouping: Arc::clone(grouping),
                        shadow,
                    },
                );
            }
            Item::AllocArr { arr, len } => match self.engine {
                ArrayEngine::Fine => {
                    self.arrays_fine
                        .insert(*arr, vec![VarState::new(); *len as usize]);
                }
                ArrayEngine::Footprint => {
                    self.arrays_adaptive
                        .insert(*arr, ArrayShadow::new(*len as usize));
                }
            },
            Item::FieldCheck {
                seq,
                obj,
                fields,
                kind,
                t,
                clock,
            } => {
                let Some(entry) = self.objects.get_mut(*obj) else {
                    return; // unseen allocation: serial detector skips too
                };
                if let [f] = fields.as_slice() {
                    // Single-field fast path: no dedup scratch needed.
                    let g = entry.grouping.group(*f);
                    self.out.shadow_ops += 1;
                    if let Err(info) = entry.shadow.apply(g, *kind, *t, clock) {
                        self.out.races.push((
                            *seq,
                            0,
                            Race {
                                target: RaceTarget::Field(*obj, g),
                                info,
                            },
                        ));
                    }
                    return;
                }
                let groups = &mut self.group_scratch;
                groups.clear();
                groups.extend(fields.iter().map(|f| entry.grouping.group(*f)));
                groups.sort_unstable();
                groups.dedup();
                let mut idx = 0u32;
                for &g in groups.iter() {
                    self.out.shadow_ops += 1;
                    if let Err(info) = entry.shadow.apply(g, *kind, *t, clock) {
                        self.out.races.push((
                            *seq,
                            idx,
                            Race {
                                target: RaceTarget::Field(*obj, g),
                                info,
                            },
                        ));
                        idx += 1;
                    }
                }
            }
            Item::FineRange {
                seq,
                arr,
                range,
                kind,
                t,
                clock,
            } => {
                let Some(states) = self.arrays_fine.get_mut(*arr) else {
                    return;
                };
                let mut idx = 0u32;
                for i in range.indices() {
                    if i < 0 || i as usize >= states.len() {
                        continue;
                    }
                    self.out.shadow_ops += 1;
                    if let Err(info) = states[i as usize].apply(*kind, *t, clock) {
                        self.out.races.push((
                            *seq,
                            idx,
                            Race {
                                target: RaceTarget::Elems(*arr, ConcreteRange::singleton(i)),
                                info,
                            },
                        ));
                        idx += 1;
                    }
                }
            }
            Item::CommitRange {
                seq,
                arr,
                range,
                kind,
                t,
                clock,
            } => {
                let Some(shadow) = self.arrays_adaptive.get_mut(*arr) else {
                    return;
                };
                let outcome = shadow.apply(*range, *kind, *t, clock);
                self.out.shadow_ops += outcome.shadow_ops;
                for (idx, (extent, info)) in outcome.races.into_iter().enumerate() {
                    self.out.races.push((
                        *seq,
                        idx as u32,
                        Race {
                            target: RaceTarget::Elems(*arr, extent),
                            info,
                        },
                    ));
                }
            }
            Item::MemoBegin => {
                self.memo_mark = self.out.shadow_ops;
            }
            Item::MemoScale { times } => {
                // The bracket since MemoBegin was one rule repetition; its
                // skipped repetitions perform exactly the same shadow ops
                // (and only duplicate, already-deduplicated races).
                let bracket = self.out.shadow_ops - self.memo_mark;
                self.out.shadow_ops += bracket * times;
            }
            Item::SpaceProbe => {
                let mut units: u64 = 0;
                for o in self.objects.values() {
                    units += o.shadow.space_units() as u64;
                }
                for a in self.arrays_fine.values() {
                    units += a.iter().map(VarState::space_units).sum::<usize>() as u64;
                }
                for a in self.arrays_adaptive.values() {
                    units += a.space_units() as u64;
                }
                self.out.probe_spaces.push(units);
            }
        }
    }
}

/// Where the annotator's sequenced items go: the 64 in-memory shard
/// queues ([`ShardQueues`]), or compressed replay's recording sink,
/// which forwards to them. Because the annotator routes by *shard*,
/// per-shard item streams do not depend on the worker count — the root
/// of the worker-count-invariance argument.
pub(crate) trait ItemSink {
    fn item(&mut self, shard: usize, item: Item);
}

/// The offline sink: one in-memory queue per shard, drained by
/// [`detect_and_merge`]'s scoped workers after the stream ends.
pub(crate) struct ShardQueues(pub(crate) Vec<Vec<Item>>);

impl ShardQueues {
    pub(crate) fn new() -> ShardQueues {
        ShardQueues((0..SHARDS).map(|_| Vec::new()).collect())
    }
}

impl ItemSink for ShardQueues {
    #[inline]
    fn item(&mut self, shard: usize, item: Item) {
        self.0[shard].push(item);
    }
}

/// The serial clock-annotation pass: mirrors the serial detector's control
/// flow exactly, but instead of touching shadow state it emits sequenced
/// work items into an [`ItemSink`].
pub(crate) struct Annotator<S> {
    source: CheckSource,
    engine: ArrayEngine,
    proxies: ProxyTable,
    clocks: SyncClocks,
    /// Cached `Arc` snapshots of thread clocks (indexed by dense tid),
    /// invalidated when a sync operation changes the thread's clock.
    snapshots: Vec<Option<Arc<VectorClock>>>,
    /// Mirror of the serial detector's pending footprints (dense tid index,
    /// same insertion order), so commits drain identical coalesced ranges.
    /// `pub(crate)` so compressed replay can probe and extrapolate them.
    pub(crate) footprints: Vec<Vec<(ArrId, Footprint)>>,
    /// Drained footprints recycled across commit spans.
    fp_pool: Vec<Footprint>,
    /// Identity groupings shared per field count, as in the serial detector.
    identity_groupings: FxHashMap<u32, Arc<FieldGrouping>>,
    pub(crate) sink: S,
    next_seq: u64,
    /// Footprint-buffer space at each probe point (the shards measure the
    /// shadow maps; the annotator owns the footprints).
    probe_fp_space: Vec<u64>,
    /// Events processed, flushed to `det.events` at finalization (mirrors
    /// the serial detector's aggregate-then-flush counting).
    pub(crate) events: u64,
    pub(crate) stats: Stats,
    finished: bool,
}

impl Annotator<ShardQueues> {
    fn new(config: &ReplayConfig) -> Annotator<ShardQueues> {
        Annotator::with_sink(config, ShardQueues::new())
    }
}

impl<S: ItemSink> Annotator<S> {
    pub(crate) fn with_sink(config: &ReplayConfig, sink: S) -> Annotator<S> {
        Annotator {
            source: config.source,
            engine: config.engine,
            proxies: config.proxies.clone(),
            clocks: SyncClocks::new(),
            snapshots: Vec::new(),
            footprints: Vec::new(),
            fp_pool: Vec::new(),
            identity_groupings: FxHashMap::default(),
            sink,
            next_seq: 0,
            probe_fp_space: Vec::new(),
            events: 0,
            stats: Stats::default(),
            finished: false,
        }
    }

    /// Tears the finalized annotator apart for stage 2/3: the sink
    /// (whatever it buffered or routed), the per-probe footprint space,
    /// and the running stats the merge completes.
    pub(crate) fn into_parts(self) -> (ArrayEngine, S, Vec<u64>, Stats) {
        debug_assert!(self.finished, "finalize before consuming the annotator");
        (self.engine, self.sink, self.probe_fp_space, self.stats)
    }

    fn seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// The acting thread's current clock as a shared snapshot.
    fn snapshot(&mut self, t: Tid) -> Arc<VectorClock> {
        if let Some(Some(c)) = self.snapshots.get(t.index()) {
            return c.clone();
        }
        let c = Arc::new(self.clocks.clock(t).clone());
        if self.snapshots.len() <= t.index() {
            self.snapshots.resize(t.index() + 1, None);
        }
        self.snapshots[t.index()] = Some(c.clone());
        c
    }

    fn invalidate(&mut self, t: Tid) {
        if let Some(slot) = self.snapshots.get_mut(t.index()) {
            *slot = None;
        }
    }

    fn field_check(&mut self, t: Tid, obj: ObjId, fields: &[u32], kind: AccessKind) {
        self.stats.checks += 1;
        self.stats.field_checks += 1;
        let seq = self.seq();
        let clock = self.snapshot(t);
        self.sink.item(
            obj_shard(obj),
            Item::FieldCheck {
                seq,
                obj,
                fields: fields.to_vec(),
                kind,
                t,
                clock,
            },
        );
    }

    fn array_check(&mut self, t: Tid, arr: ArrId, range: ConcreteRange, kind: AccessKind) {
        self.stats.checks += 1;
        self.stats.array_checks += 1;
        match self.engine {
            ArrayEngine::Fine => {
                let seq = self.seq();
                let clock = self.snapshot(t);
                self.sink.item(
                    arr_shard(arr),
                    Item::FineRange {
                        seq,
                        arr,
                        range,
                        kind,
                        t,
                        clock,
                    },
                );
            }
            ArrayEngine::Footprint => {
                self.stats.footprint_ops += 1;
                let ti = t.index();
                if self.footprints.len() <= ti {
                    self.footprints.resize_with(ti + 1, Vec::new);
                }
                let per_thread = &mut self.footprints[ti];
                match per_thread.iter_mut().find(|(a, _)| *a == arr) {
                    Some((_, fp)) => fp.add(kind, range),
                    None => {
                        let mut fp = self.fp_pool.pop().unwrap_or_default();
                        fp.add(kind, range);
                        per_thread.push((arr, fp));
                    }
                }
            }
        }
    }

    /// Drains thread `t`'s pending footprints into sequenced commit items,
    /// in the serial detector's exact order: per-array insertion order,
    /// writes before reads, ranges in coalesced order. Uses `t`'s clock
    /// *before* the triggering sync op updates it.
    fn commit_footprints(&mut self, t: Tid) {
        if self.footprints.get(t.index()).is_none_or(Vec::is_empty) {
            return;
        }
        let clock = self.snapshot(t);
        let per_arr = &mut self.footprints[t.index()];
        for (arr, fp) in per_arr.iter_mut() {
            if fp.is_empty() {
                continue;
            }
            for (kind, ranges) in [
                (AccessKind::Write, fp.writes.ranges()),
                (AccessKind::Read, fp.reads.ranges()),
            ] {
                for &range in ranges {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.sink.item(
                        arr_shard(*arr),
                        Item::CommitRange {
                            seq,
                            arr: *arr,
                            range,
                            kind,
                            t,
                            clock: clock.clone(),
                        },
                    );
                }
            }
        }
        // Drain and recycle exactly as the serial detector does.
        for (_, mut fp) in per_arr.drain(..) {
            fp.clear();
            if self.fp_pool.len() < FP_POOL_MAX {
                self.fp_pool.push(fp);
            }
        }
    }

    /// Records a global space-sample point: footprint space here, shadow
    /// space in every shard.
    fn probe_space(&mut self) {
        let fp: u64 = self
            .footprints
            .iter()
            .map(|per_arr| {
                per_arr
                    .iter()
                    .map(|(_, fp)| fp.space_units())
                    .sum::<usize>() as u64
            })
            .sum();
        self.probe_fp_space.push(fp);
        for s in 0..SHARDS {
            self.sink.item(s, Item::SpaceProbe);
        }
    }

    fn on_sync(&mut self, ev: &Event) {
        // Commit before the sync updates the clocks, as in the serial
        // detector; invalidate snapshots of every thread the op touches.
        match ev {
            Event::Acquire { t, lock } => {
                self.commit_footprints(*t);
                self.clocks.acquire(*t, *lock);
                self.invalidate(*t);
            }
            Event::Release { t, lock } => {
                self.commit_footprints(*t);
                self.clocks.release(*t, *lock);
                self.invalidate(*t);
            }
            Event::Fork { parent, child } => {
                self.commit_footprints(*parent);
                self.clocks.fork(*parent, *child);
                self.invalidate(*parent);
                self.invalidate(*child);
            }
            Event::Join { parent, child } => {
                self.commit_footprints(*parent);
                self.clocks.join(*parent, *child);
                self.invalidate(*parent);
            }
            Event::ThreadExit { t } => {
                self.commit_footprints(*t);
                self.clocks.exit(*t);
            }
            Event::VolatileWrite { t, obj, field } => {
                self.commit_footprints(*t);
                self.clocks.volatile_write(*t, *obj, *field);
                self.invalidate(*t);
            }
            Event::VolatileRead { t, obj, field } => {
                self.commit_footprints(*t);
                self.clocks.volatile_read(*t, *obj, *field);
                self.invalidate(*t);
            }
            _ => unreachable!("on_sync requires a sync event"),
        }
        if self.clocks.sync_ops().is_multiple_of(SPACE_SAMPLE_PERIOD) {
            self.probe_space();
        }
    }

    pub(crate) fn ingest(&mut self, ev: &Event) {
        self.events += 1;
        match ev {
            Event::AllocObj {
                obj, class, fields, ..
            } => {
                let grouping = match self.proxies.grouping(*class) {
                    Some(g) => Arc::clone(g),
                    None => {
                        let n = *fields;
                        Arc::clone(
                            self.identity_groupings
                                .entry(n)
                                .or_insert_with(|| Arc::new(FieldGrouping::identity(n as usize))),
                        )
                    }
                };
                self.sink.item(
                    obj_shard(*obj),
                    Item::AllocObj {
                        obj: *obj,
                        grouping,
                    },
                );
            }
            Event::AllocArr { arr, len, .. } => {
                self.sink.item(
                    arr_shard(*arr),
                    Item::AllocArr {
                        arr: *arr,
                        len: *len,
                    },
                );
            }
            Event::Access { t, kind, loc } => {
                match kind {
                    AccessKind::Read => self.stats.reads += 1,
                    AccessKind::Write => self.stats.writes += 1,
                }
                if self.source == CheckSource::RawAccesses {
                    match loc {
                        Loc::Field(obj, f) => self.field_check(*t, *obj, &[*f], *kind),
                        Loc::Elem(arr, i) => {
                            self.array_check(*t, *arr, ConcreteRange::singleton(*i), *kind)
                        }
                    }
                }
            }
            Event::Check { t, paths } => {
                if self.source == CheckSource::CheckEvents {
                    for (kind, target) in paths {
                        match target {
                            CheckTarget::Fields(obj, idxs) => {
                                self.field_check(*t, *obj, idxs, *kind)
                            }
                            CheckTarget::Range(arr, r) => {
                                if !r.is_empty() {
                                    self.array_check(*t, *arr, *r, *kind)
                                }
                            }
                        }
                    }
                }
            }
            sync => self.on_sync(sync),
        }
    }

    /// Final commits (sorted-tid order, matching the serial detector's
    /// finalize) and the final space sample.
    pub(crate) fn finalize(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        // Ascending dense-tid order is exactly the serial detector's
        // sorted-tid final-commit order.
        for ti in 0..self.footprints.len() {
            self.commit_footprints(Tid(ti as u32));
        }
        self.probe_space();
        self.stats.sync_ops = self.clocks.sync_ops();
        bigfoot_obs::count_named("det.events", self.events);
    }
}

/// Stage 3: sort per-shard race candidates back into global
/// `(seq, intra_item_index)` order, feed them through
/// [`Stats::report_race`]'s inline deduplication, and sum the per-shard
/// space probes — producing stats bit-identical to the serial
/// detector's, however the shards were executed.
fn merge_outcomes(mut stats: Stats, probe_fp_space: &[u64], outcomes: &[ShardOutcome]) -> Stats {
    let mut candidates: Vec<(u64, u32, Race)> = Vec::new();
    for o in outcomes {
        stats.shadow_ops += o.shadow_ops;
        candidates.extend(o.races.iter().map(|(s, i, r)| (*s, *i, r.clone())));
    }
    candidates.sort_by_key(|(seq, idx, _)| (*seq, *idx));
    for (_, _, race) in candidates {
        stats.report_race(race);
    }
    for (k, fp_space) in probe_fp_space.iter().enumerate() {
        let shard_space: u64 = outcomes.iter().map(|o| o.probe_spaces[k]).sum();
        stats.observe_space(fp_space + shard_space);
    }
    stats.publish();
    stats
}

/// Stages 2 and 3 of [`replay_trace`]: parallel sharded detection over
/// the annotator's queues, then the deterministic seq-ordered merge. The
/// annotator must be finalized.
fn detect_and_merge(annotator: Annotator<ShardQueues>, num_workers: usize) -> Stats {
    let (engine, ShardQueues(queues), probe_fp_space, stats) = annotator.into_parts();
    detect_and_merge_parts(engine, queues, probe_fp_space, stats, num_workers)
}

/// [`detect_and_merge`] with the annotator already torn apart — shared
/// with compressed replay (`crate::creplay`), whose annotator wraps the
/// shard queues in a recording sink.
pub(crate) fn detect_and_merge_parts(
    engine: ArrayEngine,
    queues: Vec<Vec<Item>>,
    probe_fp_space: Vec<u64>,
    stats: Stats,
    num_workers: usize,
) -> Stats {
    // Stage 2: parallel sharded detection. Worker `w` owns the shards
    // `s % workers == w`; shard streams are identical at any worker count.
    let workers = num_workers.clamp(1, SHARDS);
    let outcomes: Vec<ShardOutcome> = {
        let _span = bigfoot_obs::span!("replay.detect");
        if workers == 1 {
            queues
                .iter()
                .map(|items| ShardState::new(engine).run(items))
                .collect()
        } else {
            let mut outcomes: Vec<Option<ShardOutcome>> = (0..SHARDS).map(|_| None).collect();
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for w in 0..workers {
                    let queues = &queues;
                    handles.push(scope.spawn(move || {
                        if bigfoot_obs::trace::enabled() {
                            bigfoot_obs::trace::set_thread_name(&format!("replay worker {w}"));
                        }
                        let mut owned = Vec::new();
                        let mut s = w;
                        while s < SHARDS {
                            // One span per non-empty shard: the worker's
                            // timeline shows which shards carried the
                            // work and where it idled.
                            let traced = bigfoot_obs::trace::enabled() && !queues[s].is_empty();
                            let _shard_span =
                                traced.then(|| bigfoot_obs::trace_span!("replay.shard"));
                            owned.push((s, ShardState::new(engine).run(&queues[s])));
                            s += workers;
                        }
                        owned
                    }));
                }
                for h in handles {
                    for (s, outcome) in h.join().expect("replay worker panicked") {
                        outcomes[s] = Some(outcome);
                    }
                }
            });
            outcomes
                .into_iter()
                .map(|o| o.expect("every shard processed"))
                .collect()
        }
    };

    // Stage 3: merge per-shard results back into global trace order.
    let _span = bigfoot_obs::span!("replay.merge");
    if bigfoot_obs::enabled() {
        for (s, o) in outcomes.iter().enumerate() {
            bigfoot_obs::count_named(&format!("replay.shard{s:02}.items"), o.items);
            bigfoot_obs::count_named(&format!("replay.shard{s:02}.shadow_ops"), o.shadow_ops);
            bigfoot_obs::count_named(&format!("replay.shard{s:02}.races"), o.races.len() as u64);
        }
    }
    merge_outcomes(stats, &probe_fp_space, &outcomes)
}

/// Replays a serialized trace through the sharded detection pipeline.
///
/// Produces [`Stats`] bit-identical to running the serial
/// [`Detector`](crate::Detector) with the same configuration over the same
/// event stream, for any worker count.
///
/// # Errors
///
/// Returns [`TraceError`] if the trace buffer is malformed.
///
/// # Examples
///
/// ```
/// use bigfoot_bfj::{parse_program, trace::TraceWriter, Interp, SchedPolicy};
/// use bigfoot_detectors::{replay_trace, Detector, ReplayConfig};
///
/// let p = parse_program(
///     "class C { field x; meth poke(v) { this.x = v; return 0; } }
///      main {
///          c = new C;
///          fork t1 = c.poke(1);
///          fork t2 = c.poke(2);
///          join(t1); join(t2);
///      }",
/// )?;
/// let mut w = TraceWriter::new();
/// Interp::new(&p, SchedPolicy::default()).run(&mut w)?;
/// let bytes = w.into_bytes();
///
/// let stats = replay_trace(&bytes, &ReplayConfig::fasttrack(4))?;
/// assert!(stats.has_races());
///
/// // Identical to the serial detector over the same trace:
/// let mut serial = Detector::fasttrack();
/// for ev in bigfoot_detectors::TraceReader::new(&bytes)? {
///     use bigfoot_bfj::EventSink;
///     serial.event(&ev?);
/// }
/// assert_eq!(stats.races, serial.finish().races);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn replay_trace(bytes: &[u8], config: &ReplayConfig) -> Result<Stats, TraceError> {
    // Stage 1: serial clock annotation.
    let mut annotator = Annotator::new(config);
    {
        let _span = bigfoot_obs::span!("replay.annotate");
        let mut pos = read_header(bytes)?;
        while let Some(ev) = read_event(bytes, &mut pos)? {
            annotator.ingest(&ev);
        }
        annotator.finalize();
    }
    Ok(detect_and_merge(annotator, config.workers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Detector;
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
        for ev in TraceReader::new(bytes).expect("header") {
            det.event(&ev.expect("event"));
        }
        det.finish()
    }

    fn assert_identical(stats: &Stats, serial: &Stats) {
        assert_eq!(stats.races, serial.races);
        assert_eq!(
            stats.to_json().to_string_compact(),
            serial.to_json().to_string_compact(),
            "replay stats must be bit-identical to serial"
        );
    }

    const RACY: &str = "
        class C { field x; meth poke(v) { this.x = v; return 0; } }
        main {
            c = new C;
            fork t1 = c.poke(1);
            fork t2 = c.poke(2);
            join(t1); join(t2);
        }";

    const ARRAY_SPLIT: &str = "
        class W { meth fill(a, lo, hi, v) {
            for (i = lo; i < hi; i = i + 1) { a[i] = v; }
            check(w: a[lo..hi]);
            return 0; } }
        main {
            w = new W;
            a = new_array(64);
            fork t1 = w.fill(a, 0, 32, 1);
            fork t2 = w.fill(a, 32, 64, 2);
            join(t1); join(t2);
        }";

    const ARRAY_RACY: &str = "
        class W { meth fill(a, v) {
            for (i = 0; i < a.length; i = i + 1) { a[i] = v; }
            check(w: a[0..a.length]);
            return 0; } }
        main {
            w = new W;
            a = new_array(32);
            fork t1 = w.fill(a, 1);
            fork t2 = w.fill(a, 2);
            join(t1); join(t2);
        }";

    #[test]
    fn replay_matches_serial_fasttrack() {
        let bytes = record(RACY);
        let serial = serial_stats(&bytes, Detector::fasttrack());
        for workers in [1, 2, 4] {
            let stats = replay_trace(&bytes, &ReplayConfig::fasttrack(workers)).expect("replay");
            assert!(stats.has_races());
            assert_identical(&stats, &serial);
        }
    }

    #[test]
    fn replay_matches_serial_bigfoot_deferred_commits() {
        for src in [ARRAY_SPLIT, ARRAY_RACY] {
            let bytes = record(src);
            let serial = serial_stats(&bytes, Detector::bigfoot(ProxyTable::identity()));
            for workers in [1, 3, 8] {
                let stats = replay_trace(
                    &bytes,
                    &ReplayConfig::bigfoot(ProxyTable::identity(), workers),
                )
                .expect("replay");
                assert_identical(&stats, &serial);
            }
        }
        assert!(replay_trace(
            &record(ARRAY_SPLIT),
            &ReplayConfig::bigfoot(ProxyTable::identity(), 2)
        )
        .expect("replay")
        .races
        .is_empty());
    }

    #[test]
    fn replay_matches_serial_slimstate() {
        let bytes = record(ARRAY_RACY);
        let serial = serial_stats(&bytes, Detector::slimstate());
        let stats = replay_trace(&bytes, &ReplayConfig::slimstate(4)).expect("replay");
        assert_identical(&stats, &serial);
        assert!(stats.has_races());
    }

    #[test]
    fn worker_count_never_changes_the_report() {
        let bytes = record(ARRAY_RACY);
        let baseline = replay_trace(&bytes, &ReplayConfig::fasttrack(1)).expect("replay");
        for workers in [2, 4, 8, 64, 1000] {
            let stats = replay_trace(&bytes, &ReplayConfig::fasttrack(workers)).expect("replay");
            assert_identical(&stats, &baseline);
        }
    }

    #[test]
    fn zero_length_arrays_replay_identically() {
        // Empty allocations flow through shard pinning, fine states, and
        // adaptive shadows without panicking or perturbing space units.
        let src = "
            class W { meth scan(a, b) {
                s = 0;
                for (i = 0; i < a.length; i = i + 1) { s = s + a[i]; }
                for (i = 0; i < b.length; i = i + 1) { b[i] = s; }
                return s; } }
            main {
                w = new W;
                a = new_array(0);
                b = new_array(8);
                fork t1 = w.scan(a, b);
                fork t2 = w.scan(a, b);
                join(t1); join(t2);
            }";
        let bytes = record(src);
        for (config, serial_det) in [
            (ReplayConfig::fasttrack(3), Detector::fasttrack()),
            (ReplayConfig::slimstate(3), Detector::slimstate()),
        ] {
            let reference = serial_stats(&bytes, serial_det);
            let stats = replay_trace(&bytes, &config).expect("replay");
            assert_identical(&stats, &reference);
            assert!(stats.has_races(), "b is raced over; a contributes nothing");
        }
    }

    #[test]
    fn malformed_trace_is_an_error() {
        assert!(matches!(
            replay_trace(b"junk", &ReplayConfig::fasttrack(1)),
            Err(TraceError::BadMagic)
        ));
        let mut bytes = record(RACY);
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            replay_trace(&bytes, &ReplayConfig::fasttrack(2)),
            Err(TraceError::Truncated { .. })
        ));
    }

    #[test]
    fn trace_reader_yields_one_error_then_stops() {
        let mut bytes = record(RACY);
        bytes.truncate(bytes.len() - 1);
        let results: Vec<_> = TraceReader::new(&bytes).expect("header").collect();
        assert!(results.last().expect("nonempty").is_err());
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
    }
}
