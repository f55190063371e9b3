//! The one detection engine behind every detector of Fig. 2.
//!
//! | detector   | check source        | array engine        | field proxies |
//! |------------|---------------------|---------------------|---------------|
//! | FastTrack  | every access        | fine per-element    | no            |
//! | RedCard    | instrumented checks | fine per-element    | static        |
//! | SlimState  | every access        | footprint + adaptive| no            |
//! | SlimCard   | instrumented checks | footprint + adaptive| static        |
//! | BigFoot    | instrumented checks | footprint + adaptive| static        |
//!
//! RedCard/SlimCard consume programs instrumented by the RedCard
//! redundant-check eliminator; BigFoot consumes programs instrumented by
//! the full check-placement analysis (which also moves and coalesces
//! checks). The engine itself is identical — that is the paper's point:
//! the win comes from *which checks arrive*, not from a different runtime.
//!
//! The engine has two halves joined by the [`ItemSink`] seam:
//!
//! - The [`Annotator`] consumes events in trace order. It owns the
//!   happens-before clocks and the pending footprints, counts accesses
//!   and checks, and turns every shadow operation — an immediate field or
//!   fine-array check, a footprint range committed at a sync, a space
//!   sample — into one sink call carrying borrowed data.
//! - [`ShardState`] owns the shadow stores and performs those operations.
//!
//! There is one transport: every driver applies each operation to a
//! single `ShardState` over every id the moment it is annotated, so races
//! go straight into [`Stats`] in trace order. The serial
//! [`Detector`](crate::Detector) and raw-trace replay
//! ([`replay_trace`](crate::replay_trace)) use `ShardState` itself as the
//! sink; compressed replay (`crate::creplay`) wraps it in a sink that also
//! logs the checks of a memoization probe.

use crate::stats::{Race, RaceTarget, Stats};
use crate::sync::SyncClocks;
use bigfoot_bfj::{ArrId, CheckRef, ConcreteRange, Event, Loc, ObjId};
use bigfoot_obs::fx::FxHashMap;
use bigfoot_shadow::{ArrayShadow, FieldGrouping, Footprint, ObjectShadow, Slab};
use bigfoot_vc::{AccessKind, Tid, VarState, VectorClock};
use std::sync::Arc;

/// Where the detector's race checks come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckSource {
    /// Check every raw heap access (FastTrack / SlimState style); `Check`
    /// events are ignored.
    RawAccesses,
    /// Consume `check(C)` events from instrumentation; raw accesses are
    /// only counted (RedCard / SlimCard / BigFoot style).
    CheckEvents,
}

/// How array checks are processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayEngine {
    /// One shadow location per element, checked immediately.
    Fine,
    /// Per-thread footprints committed at synchronization operations, over
    /// the adaptive compressed array shadow.
    Footprint,
}

/// Field-proxy groupings per class (from the static proxy analysis).
///
/// Groupings are shared (`Arc`), so handing one to each allocated object
/// is a reference-count bump, not a clone of the assignment vector.
#[derive(Debug, Clone, Default)]
pub struct ProxyTable {
    /// `by_class[c]` is the grouping for class index `c`; missing entries
    /// mean identity (no compression).
    pub by_class: Vec<Option<Arc<FieldGrouping>>>,
}

impl ProxyTable {
    /// A table with no compression at all.
    pub fn identity() -> ProxyTable {
        ProxyTable::default()
    }

    fn grouping(&self, class: u32) -> Option<&Arc<FieldGrouping>> {
        self.by_class.get(class as usize).and_then(|g| g.as_ref())
    }
}

/// Retained recycled footprints; beyond this the allocator takes over.
const FP_POOL_MAX: usize = 256;

/// How often (in sync ops) shadow space is sampled for the peak statistic.
const SPACE_SAMPLE_PERIOD: u64 = 256;

/// Who performs one shadow operation, how, and under which clock.
#[derive(Clone, Copy)]
pub(crate) struct Act<'a> {
    pub(crate) t: Tid,
    pub(crate) kind: AccessKind,
    pub(crate) clock: &'a VectorClock,
}

/// Per-object shadow entry: the field states and the grouping that maps
/// field indices onto them, fetched with a single slab lookup per check.
#[derive(Debug, Clone)]
struct ObjEntry {
    grouping: Arc<FieldGrouping>,
    shadow: ObjectShadow,
}

/// The shadow stores and the operations on them, over every id.
#[derive(Debug)]
pub(crate) struct ShardState {
    engine: ArrayEngine,
    objects: Slab<ObjId, ObjEntry>,
    arrays_fine: Slab<ArrId, Vec<VarState>>,
    arrays_adaptive: Slab<ArrId, ArrayShadow>,
    /// Scratch for proxy-group deduplication in multi-field checks.
    group_scratch: Vec<u32>,
    /// Shadow-location operations performed so far.
    pub(crate) shadow_ops: u64,
}

impl ShardState {
    pub(crate) fn new(engine: ArrayEngine) -> ShardState {
        ShardState {
            engine,
            objects: Slab::new(),
            arrays_fine: Slab::new(),
            arrays_adaptive: Slab::new(),
            group_scratch: Vec::new(),
            shadow_ops: 0,
        }
    }

    pub(crate) fn alloc_obj(&mut self, obj: ObjId, grouping: &Arc<FieldGrouping>) {
        let shadow = ObjectShadow::new(grouping.groups);
        self.objects.insert(
            obj,
            ObjEntry {
                grouping: Arc::clone(grouping),
                shadow,
            },
        );
    }

    pub(crate) fn alloc_arr(&mut self, arr: ArrId, len: u64) {
        match self.engine {
            ArrayEngine::Fine => {
                self.arrays_fine
                    .insert(arr, vec![VarState::new(); len as usize]);
            }
            ArrayEngine::Footprint => {
                self.arrays_adaptive
                    .insert(arr, ArrayShadow::new(len as usize));
            }
        }
    }

    /// A check of `fields` of `obj`: one shadow operation per distinct
    /// proxy group, so p.x/y/z over a single group costs one. Races go to
    /// `report` in the order they are found.
    pub(crate) fn check_fields(
        &mut self,
        act: Act<'_>,
        obj: ObjId,
        fields: &[u32],
        mut report: impl FnMut(Race),
    ) {
        let Some(entry) = self.objects.get_mut(obj) else {
            return; // unseen allocation (library object): skip
        };
        let (t, kind, clock) = (act.t, act.kind, act.clock);
        if let [f] = fields {
            // Single-field fast path (every raw access): no dedup needed.
            let g = entry.grouping.group(*f);
            self.shadow_ops += 1;
            if let Err(info) = entry.shadow.apply(g, kind, t, clock) {
                let target = RaceTarget::Field(obj, g);
                report(Race { target, info });
            }
            return;
        }
        let groups = &mut self.group_scratch;
        groups.clear();
        groups.extend(fields.iter().map(|f| entry.grouping.group(*f)));
        groups.sort_unstable();
        groups.dedup();
        for &g in groups.iter() {
            self.shadow_ops += 1;
            if let Err(info) = entry.shadow.apply(g, kind, t, clock) {
                let target = RaceTarget::Field(obj, g);
                report(Race { target, info });
            }
        }
    }

    /// A check of `range` of `arr`: element by element under the fine
    /// engine; under the footprint engine (where ranges arrive only as
    /// committed footprints) one adaptive-shadow application.
    // Always inlined: every raw array access of FastTrack lands here, and
    // left to its heuristics the compiler keeps this out of line.
    #[inline(always)]
    pub(crate) fn check_range(
        &mut self,
        act: Act<'_>,
        arr: ArrId,
        range: ConcreteRange,
        mut report: impl FnMut(Race),
    ) {
        let (t, kind, clock) = (act.t, act.kind, act.clock);
        match self.engine {
            ArrayEngine::Fine => {
                let Some(states) = self.arrays_fine.get_mut(arr) else {
                    return;
                };
                for i in range.indices() {
                    if i < 0 || i as usize >= states.len() {
                        continue;
                    }
                    self.shadow_ops += 1;
                    if let Err(info) = states[i as usize].apply(kind, t, clock) {
                        let target = RaceTarget::Elems(arr, ConcreteRange::singleton(i));
                        report(Race { target, info });
                    }
                }
            }
            ArrayEngine::Footprint => {
                let Some(shadow) = self.arrays_adaptive.get_mut(arr) else {
                    return;
                };
                let out = shadow.apply(range, kind, t, clock);
                self.shadow_ops += out.shadow_ops;
                for (extent, info) in out.races {
                    let target = RaceTarget::Elems(arr, extent);
                    report(Race { target, info });
                }
            }
        }
    }

    /// Shadow space held by the stores, in clock-entry units.
    pub(crate) fn space(&self) -> u64 {
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
        units
    }
}

/// Where the annotator's shadow operations go. Everything is borrowed,
/// so a sink that applies operations at once copies nothing.
pub(crate) trait ItemSink {
    fn alloc_obj(&mut self, obj: ObjId, grouping: &Arc<FieldGrouping>);
    fn alloc_arr(&mut self, arr: ArrId, len: u64);
    fn check_fields(&mut self, act: Act<'_>, obj: ObjId, fields: &[u32], stats: &mut Stats);
    fn check_range(&mut self, act: Act<'_>, arr: ArrId, range: ConcreteRange, stats: &mut Stats);
    /// A space sample; `footprint_units` is the annotator's share (its
    /// pending footprints), the sink adds the shadow stores'.
    fn space_probe(&mut self, footprint_units: u64, stats: &mut Stats);
    /// Thread `t`'s clock just changed.
    fn invalidate(&mut self, t: Tid);
    /// Shadow-location operations performed so far.
    fn shadow_ops(&self) -> u64;
}

/// The inline transport: one shard over every id, each operation applied
/// the moment it is annotated.
impl ItemSink for ShardState {
    #[inline]
    fn alloc_obj(&mut self, obj: ObjId, grouping: &Arc<FieldGrouping>) {
        ShardState::alloc_obj(self, obj, grouping);
    }

    #[inline]
    fn alloc_arr(&mut self, arr: ArrId, len: u64) {
        ShardState::alloc_arr(self, arr, len);
    }

    #[inline]
    fn check_fields(&mut self, act: Act<'_>, obj: ObjId, fields: &[u32], stats: &mut Stats) {
        ShardState::check_fields(self, act, obj, fields, |race| stats.report_race(race));
    }

    #[inline(always)]
    fn check_range(&mut self, act: Act<'_>, arr: ArrId, range: ConcreteRange, stats: &mut Stats) {
        ShardState::check_range(self, act, arr, range, |race| stats.report_race(race));
    }

    fn space_probe(&mut self, footprint_units: u64, stats: &mut Stats) {
        stats.observe_space(footprint_units + self.space());
    }

    #[inline]
    fn invalidate(&mut self, _t: Tid) {}

    fn shadow_ops(&self) -> u64 {
        self.shadow_ops
    }
}

/// The serial clock-annotation pass: runs sync events against
/// [`SyncClocks`], keeps each thread's pending footprints, and hands
/// every shadow operation to its [`ItemSink`] in trace order.
#[derive(Debug)]
pub(crate) struct Annotator<S> {
    source: CheckSource,
    engine: ArrayEngine,
    proxies: ProxyTable,
    clocks: SyncClocks,
    /// Pending footprints, indexed by dense thread id. A thread touches
    /// few arrays per release-free span, so a small vector beats nested
    /// hashing on the per-access hot path. `pub(crate)` so compressed
    /// replay can probe and extrapolate them.
    pub(crate) footprints: Vec<Vec<(ArrId, Footprint)>>,
    /// Drained footprints recycled across commit spans, so steady-state
    /// commits allocate nothing.
    fp_pool: Vec<Footprint>,
    /// Identity groupings for classes absent from the proxy table, shared
    /// per field count instead of rebuilt per allocation.
    identity_groupings: FxHashMap<u32, Arc<FieldGrouping>>,
    pub(crate) sink: S,
    /// Events processed, aggregated locally and flushed to the
    /// `det.events` obs counter at finalization — a per-event `count!`
    /// would put an atomic check on the hottest loop in the pipeline.
    pub(crate) events: u64,
    pub(crate) stats: Stats,
    pub(crate) finished: bool,
}

impl<S: ItemSink> Annotator<S> {
    pub(crate) fn new(
        source: CheckSource,
        engine: ArrayEngine,
        proxies: ProxyTable,
        sink: S,
    ) -> Annotator<S> {
        Annotator {
            source,
            engine,
            proxies,
            clocks: SyncClocks::new(),
            footprints: Vec::new(),
            fp_pool: Vec::new(),
            identity_groupings: FxHashMap::default(),
            sink,
            events: 0,
            stats: Stats::default(),
            finished: false,
        }
    }

    fn field_check(&mut self, t: Tid, obj: ObjId, fields: &[u32], kind: AccessKind) {
        self.stats.checks += 1;
        self.stats.field_checks += 1;
        let act = Act {
            t,
            kind,
            clock: self.clocks.clock(t),
        };
        self.sink.check_fields(act, obj, fields, &mut self.stats);
    }

    fn array_check(&mut self, t: Tid, arr: ArrId, range: ConcreteRange, kind: AccessKind) {
        self.stats.checks += 1;
        self.stats.array_checks += 1;
        match self.engine {
            ArrayEngine::Fine => {
                let act = Act {
                    t,
                    kind,
                    clock: self.clocks.clock(t),
                };
                self.sink.check_range(act, arr, range, &mut self.stats);
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
                        // Recycle a drained footprint when one is pooled;
                        // its range sets keep their capacity.
                        let mut fp = self.fp_pool.pop().unwrap_or_default();
                        fp.add(kind, range);
                        per_thread.push((arr, fp));
                    }
                }
            }
        }
    }

    /// Commits thread `t`'s pending footprints (called at each of `t`'s
    /// synchronization operations, *before* the sync updates its clock):
    /// per-array insertion order, writes before reads, ranges in
    /// coalesced order.
    fn commit_footprints(&mut self, t: Tid) {
        let Some(per_arr) = self.footprints.get_mut(t.index()) else {
            return;
        };
        if per_arr.is_empty() {
            return;
        }
        let clock = self.clocks.clock(t);
        for (arr, fp) in per_arr.iter() {
            for (kind, ranges) in [
                (AccessKind::Write, fp.writes.ranges()),
                (AccessKind::Read, fp.reads.ranges()),
            ] {
                for &range in ranges {
                    let act = Act { t, kind, clock };
                    self.sink.check_range(act, *arr, range, &mut self.stats);
                }
            }
        }
        // Every footprint was applied; drain the entries (so the
        // per-thread list does not grow with the number of distinct arrays
        // ever touched) and recycle the emptied footprints.
        for (_, mut fp) in per_arr.drain(..) {
            fp.clear();
            if self.fp_pool.len() < FP_POOL_MAX {
                self.fp_pool.push(fp);
            }
        }
    }

    /// Records a space sample: the pending footprints here, the shadow
    /// stores in the sink.
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
        self.sink.space_probe(fp, &mut self.stats);
    }

    fn on_sync(&mut self, ev: &Event) {
        // Deferred checks commit *before* the synchronization updates the
        // clocks, so they run with the clock the accesses happened under;
        // the sink then hears of every thread whose clock changed.
        match ev {
            Event::Acquire { t, lock } => {
                self.commit_footprints(*t);
                self.clocks.acquire(*t, *lock);
                self.sink.invalidate(*t);
            }
            Event::Release { t, lock } => {
                self.commit_footprints(*t);
                self.clocks.release(*t, *lock);
                self.sink.invalidate(*t);
            }
            Event::Fork { parent, child } => {
                self.commit_footprints(*parent);
                self.clocks.fork(*parent, *child);
                self.sink.invalidate(*parent);
                self.sink.invalidate(*child);
            }
            Event::Join { parent, child } => {
                self.commit_footprints(*parent);
                self.clocks.join(*parent, *child);
                self.sink.invalidate(*parent);
            }
            Event::ThreadExit { t } => {
                self.commit_footprints(*t);
                self.clocks.exit(*t);
            }
            Event::VolatileWrite { t, obj, field } => {
                self.commit_footprints(*t);
                self.clocks.volatile_write(*t, *obj, *field);
                self.sink.invalidate(*t);
            }
            Event::VolatileRead { t, obj, field } => {
                self.commit_footprints(*t);
                self.clocks.volatile_read(*t, *obj, *field);
                self.sink.invalidate(*t);
            }
            _ => unreachable!("on_sync requires a sync event"),
        }
        if self.clocks.sync_ops().is_multiple_of(SPACE_SAMPLE_PERIOD) {
            self.probe_space();
        }
    }

    // Always inlined into each event loop (the serial detector's `event`,
    // replay's decode loop, the grammar walker): out of line, the call per
    // event cost replay a few percent of its annotation time.
    #[inline(always)]
    pub(crate) fn ingest(&mut self, ev: &Event) {
        self.events += 1;
        match ev {
            Event::AllocObj {
                obj, class, fields, ..
            } => {
                let grouping = match self.proxies.grouping(*class) {
                    Some(g) => g,
                    None => {
                        let n = *fields;
                        &*self
                            .identity_groupings
                            .entry(n)
                            .or_insert_with(|| Arc::new(FieldGrouping::identity(n as usize)))
                    }
                };
                self.sink.alloc_obj(*obj, grouping);
            }
            Event::AllocArr { arr, len, .. } => self.sink.alloc_arr(*arr, *len),
            Event::Access { t, kind, loc } => self.access(*t, *kind, *loc),
            Event::Check { t, paths } => {
                self.check(*t, paths.iter().map(|(k, p)| (*k, p.borrowed())))
            }
            sync => self.on_sync(sync),
        }
    }

    /// One heap access: counted, and checked when the detector consumes
    /// raw accesses. [`Annotator::ingest`] and the typed
    /// [`EventSink::access`](bigfoot_bfj::EventSink::access) hook both
    /// land here, so the two paths cannot drift apart.
    #[inline(always)]
    pub(crate) fn access(&mut self, t: Tid, kind: AccessKind, loc: Loc) {
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        if self.source == CheckSource::RawAccesses {
            match loc {
                Loc::Field(obj, f) => self.field_check(t, obj, &[f], kind),
                Loc::Elem(arr, i) => self.array_check(t, arr, ConcreteRange::singleton(i), kind),
            }
        }
    }

    /// One executed `check(C)` statement, whether it arrived as an owned
    /// [`Event::Check`] or through the borrowed
    /// [`EventSink::check`](bigfoot_bfj::EventSink::check) hook; ignored
    /// by detectors that check raw accesses.
    #[inline(always)]
    pub(crate) fn check<'a>(
        &mut self,
        t: Tid,
        paths: impl IntoIterator<Item = (AccessKind, CheckRef<'a>)>,
    ) {
        if self.source != CheckSource::CheckEvents {
            return;
        }
        for (kind, path) in paths {
            match path {
                CheckRef::Fields(obj, idxs) => self.field_check(t, obj, idxs, kind),
                CheckRef::Range(arr, r) => {
                    if !r.is_empty() {
                        self.array_check(t, arr, r, kind)
                    }
                }
            }
        }
    }

    /// Final commits in ascending thread-id order (deterministic, so the
    /// races they surface are too), the final space sample and the sync
    /// count. Publishes `det.events`; the caller completes the stats.
    pub(crate) fn finalize(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        for ti in 0..self.footprints.len() {
            self.commit_footprints(Tid(ti as u32));
        }
        self.probe_space();
        self.stats.sync_ops = self.clocks.sync_ops();
        bigfoot_obs::count_named("det.events", self.events);
    }

    /// Finalizes the run and returns the completed statistics: the
    /// annotator's tallies plus the sink's shadow ops, published. Also
    /// publishes this thread's FastTrack path tallies.
    pub(crate) fn finish(&mut self) -> Stats {
        self.finalize();
        let mut stats = std::mem::take(&mut self.stats);
        stats.shadow_ops += self.sink.shadow_ops();
        bigfoot_vc::path_stats::flush();
        stats.publish();
        stats
    }
}
