//! Sharded trace replay: the engine's queued transport.
//!
//! The serial [`Detector`](crate::Detector) applies each check the moment
//! its event arrives. This module replays a *recorded* trace (see
//! `bigfoot_bfj::trace`) through the same engine (`crate::engine`), with
//! the shadow work queued per shard so it can run in parallel:
//!
//! 1. **Annotate** (serial). The engine's annotator runs the trace in
//!    order. Its sink, [`ShardQueues`], turns every shadow operation into
//!    a self-contained work item carrying a snapshot of the acting
//!    thread's [`VectorClock`] (shared via `Arc`; clocks only change at
//!    sync ops, so snapshots are cached between them). Check items are
//!    numbered (`seq`) in the order the annotator emits them, which is
//!    the order inline application performs them.
//! 2. **Detect** (parallel). Items route to one of [`SHARDS`] fixed
//!    logical shards by owning object/array id, so a field group or a
//!    whole array — including all of an [`ArrayShadow`]'s adaptive
//!    refinement — always lands on one shard and stays sequential. `N`
//!    workers each own the shards `s % N == w`; because routing is by
//!    *shard* and not by worker, each shard sees the same item stream in
//!    the same order for every worker count.
//! 3. **Merge** (serial). Per-shard race candidates, tagged with their
//!    item's `seq`, are stably sorted back into global trace order (one
//!    item's races all come from one shard, in the order it found them)
//!    and fed through [`Stats::report_race`] — the deduplication the
//!    inline transport applies as it goes — so the final report is
//!    **bit-identical** to the serial detector's, at any worker count.
//!
//! Shadow space is also reproduced exactly: at each space sample the
//! queues record the annotator's footprint space and send a probe item
//! to every shard, and the merge sums the per-shard measurements per
//! probe.
//!
//! [`ArrayShadow`]: bigfoot_shadow::ArrayShadow

use crate::engine::{Act, Annotator, ArrayEngine, CheckSource, ItemSink, ProxyTable, ShardState};
use crate::stats::{Race, Stats};
use bigfoot_bfj::trace::{read_event, read_header, TraceError};
use bigfoot_bfj::{ArrId, ConcreteRange, Event, ObjId};
use bigfoot_shadow::FieldGrouping;
use bigfoot_vc::{AccessKind, Tid, VectorClock};
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
/// use bigfoot_bfj::{compile, parse_program, trace::TraceWriter, CompiledVm, SchedPolicy};
/// use bigfoot_detectors::TraceReader;
///
/// let p = parse_program("main { a = new_array(4); a[0] = 1; }")?;
/// let mut w = TraceWriter::new();
/// CompiledVm::new(&compile(&p), SchedPolicy::default()).run(&mut w)?;
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

/// A detector configuration — one row of Fig. 2 — plus the replay worker
/// count. The five constructors are the one place the rows are spelled
/// out; [`Detector`](crate::Detector)'s constructors reuse them.
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

/// An [`Act`] as queued: the acting thread's clock as an `Arc` snapshot
/// taken when the annotator read it, plus the check's `seq`.
#[derive(Clone)]
pub(crate) struct QueuedAct {
    seq: u64,
    t: Tid,
    kind: AccessKind,
    clock: Arc<VectorClock>,
}

impl QueuedAct {
    fn act(&self) -> Act<'_> {
        Act {
            t: self.t,
            kind: self.kind,
            clock: &self.clock,
        }
    }

    /// The same act up to `seq`, with clocks compared by pointer.
    pub(crate) fn same_act(&self, other: &QueuedAct) -> bool {
        self.t == other.t && self.kind == other.kind && Arc::ptr_eq(&self.clock, &other.clock)
    }
}

/// One unit of check work, routed to a shard. Items carry everything the
/// shard needs.
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
        act: QueuedAct,
        obj: ObjId,
        fields: Vec<u32>,
    },
    /// An array range check: per element under the fine engine; under the
    /// footprint engine one committed footprint range, whose clock is the
    /// committing thread's clock *before* the triggering sync updated it.
    RangeCheck {
        act: QueuedAct,
        arr: ArrId,
        range: ConcreteRange,
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
    /// Race candidates tagged with their item's `seq`, in the order found.
    races: Vec<(u64, Race)>,
    /// Shadow space at each probe point, in clock-entry units.
    probe_spaces: Vec<u64>,
}

/// Runs one shard's queued items through a fresh [`ShardState`].
fn run_shard(engine: ArrayEngine, items: &[Item]) -> ShardOutcome {
    let mut shard = ShardState::new(engine, SHARDS as u32);
    let mut out = ShardOutcome::default();
    // `shadow_ops` tally at the last `MemoBegin`.
    let mut memo_mark = 0;
    for item in items {
        match item {
            Item::AllocObj { obj, grouping } => shard.alloc_obj(*obj, grouping),
            Item::AllocArr { arr, len } => shard.alloc_arr(*arr, *len),
            Item::FieldCheck { act, obj, fields } => {
                let report = |race| out.races.push((act.seq, race));
                shard.check_fields(act.act(), *obj, fields, report);
            }
            Item::RangeCheck { act, arr, range } => {
                let report = |race| out.races.push((act.seq, race));
                shard.check_range(act.act(), *arr, *range, report);
            }
            Item::SpaceProbe => out.probe_spaces.push(shard.space()),
            Item::MemoBegin => memo_mark = shard.shadow_ops,
            Item::MemoScale { times } => {
                // The bracket since MemoBegin was one rule repetition; its
                // skipped repetitions perform exactly the same shadow ops
                // (and only duplicate, already-deduplicated races).
                shard.shadow_ops += (shard.shadow_ops - memo_mark) * times;
            }
        }
    }
    out.items = items.len() as u64;
    out.shadow_ops = shard.shadow_ops;
    // Publish this worker thread's FastTrack path tallies.
    bigfoot_vc::path_stats::flush();
    out
}

/// The queued transport: one in-memory item queue per shard, drained by
/// [`detect_and_merge`]'s scoped workers after the stream ends. Because
/// items route by *shard*, per-shard streams do not depend on the worker
/// count — the root of the worker-count-invariance argument.
pub(crate) struct ShardQueues {
    pub(crate) queues: Vec<Vec<Item>>,
    /// `Arc` snapshots of thread clocks (indexed by dense tid), handed out
    /// unchanged until the annotator reports that the thread's clock
    /// changed. Compressed replay's probe relies on that pointer identity.
    snapshots: Vec<Option<Arc<VectorClock>>>,
    /// The annotator's footprint space at each probe point (the shards
    /// measure the shadow stores).
    probe_fp_space: Vec<u64>,
    /// The next check item's `seq`.
    next_seq: u64,
    /// Compressed replay's probe recorder: while armed, every routed item
    /// is also copied here and `mask` gathers the shards it went to.
    pub(crate) rec: Option<Vec<(usize, Item)>>,
    pub(crate) mask: u64,
}

impl ShardQueues {
    pub(crate) fn new() -> ShardQueues {
        ShardQueues {
            queues: (0..SHARDS).map(|_| Vec::new()).collect(),
            snapshots: Vec::new(),
            probe_fp_space: Vec::new(),
            next_seq: 0,
            rec: None,
            mask: 0,
        }
    }

    #[inline]
    fn route(&mut self, shard: usize, item: Item) {
        if self.rec.is_some() {
            self.record(shard, &item);
        }
        self.queues[shard].push(item);
    }

    /// Kept out of line so the plain replay path pays one branch for it.
    #[cold]
    #[inline(never)]
    fn record(&mut self, shard: usize, item: &Item) {
        if let Some(rec) = &mut self.rec {
            self.mask |= 1u64 << shard;
            rec.push((shard, item.clone()));
        }
    }

    /// Numbers the next check and snapshots its clock.
    #[inline]
    fn queue_act(&mut self, act: Act<'_>) -> QueuedAct {
        let clock = match self.snapshots.get(act.t.index()) {
            Some(Some(clock)) => Arc::clone(clock),
            _ => self.snapshot(act),
        };
        self.next_seq += 1;
        QueuedAct {
            seq: self.next_seq - 1,
            t: act.t,
            kind: act.kind,
            clock,
        }
    }

    /// Caches a fresh snapshot of the acting thread's clock.
    #[cold]
    fn snapshot(&mut self, act: Act<'_>) -> Arc<VectorClock> {
        let ti = act.t.index();
        if self.snapshots.len() <= ti {
            self.snapshots.resize(ti + 1, None);
        }
        Arc::clone(self.snapshots[ti].insert(Arc::new(act.clock.clone())))
    }
}

impl ItemSink for ShardQueues {
    fn alloc_obj(&mut self, obj: ObjId, grouping: &Arc<FieldGrouping>) {
        let grouping = Arc::clone(grouping);
        self.route(obj_shard(obj), Item::AllocObj { obj, grouping });
    }

    fn alloc_arr(&mut self, arr: ArrId, len: u64) {
        self.route(arr_shard(arr), Item::AllocArr { arr, len });
    }

    #[inline]
    fn check_fields(&mut self, act: Act<'_>, obj: ObjId, fields: &[u32], _: &mut Stats) {
        let item = Item::FieldCheck {
            act: self.queue_act(act),
            obj,
            fields: fields.to_vec(),
        };
        self.route(obj_shard(obj), item);
    }

    #[inline]
    fn check_range(&mut self, act: Act<'_>, arr: ArrId, range: ConcreteRange, _: &mut Stats) {
        let item = Item::RangeCheck {
            act: self.queue_act(act),
            arr,
            range,
        };
        self.route(arr_shard(arr), item);
    }

    fn space_probe(&mut self, footprint_units: u64, _: &mut Stats) {
        self.probe_fp_space.push(footprint_units);
        for s in 0..SHARDS {
            self.route(s, Item::SpaceProbe);
        }
    }

    fn invalidate(&mut self, t: Tid) {
        if let Some(slot) = self.snapshots.get_mut(t.index()) {
            *slot = None;
        }
    }
}

/// An annotator feeding fresh shard queues.
pub(crate) fn queued_annotator(config: &ReplayConfig) -> Annotator<ShardQueues> {
    Annotator::new(
        config.source,
        config.engine,
        config.proxies.clone(),
        ShardQueues::new(),
    )
}

/// Stage 3: stably sort per-shard race candidates back into global `seq`
/// order, feed them through [`Stats::report_race`]'s deduplication, and
/// sum the per-shard space probes — producing stats bit-identical to the
/// inline transport's, however the shards were executed.
fn merge_outcomes(mut stats: Stats, probe_fp_space: &[u64], outcomes: &[ShardOutcome]) -> Stats {
    let mut candidates: Vec<(u64, Race)> = Vec::new();
    for o in outcomes {
        stats.shadow_ops += o.shadow_ops;
        candidates.extend(o.races.iter().cloned());
    }
    candidates.sort_by_key(|(seq, _)| *seq);
    for (_, race) in candidates {
        stats.report_race(race);
    }
    for (k, fp_space) in probe_fp_space.iter().enumerate() {
        let shard_space: u64 = outcomes.iter().map(|o| o.probe_spaces[k]).sum();
        stats.observe_space(fp_space + shard_space);
    }
    stats.publish();
    stats
}

/// Stages 2 and 3: parallel sharded detection over a finalized
/// annotator's queues, then the deterministic seq-ordered merge. Shared
/// with compressed replay (`crate::creplay`).
pub(crate) fn detect_and_merge(
    annotator: Annotator<ShardQueues>,
    engine: ArrayEngine,
    num_workers: usize,
) -> Stats {
    debug_assert!(annotator.finished, "finalize before detection");
    let ShardQueues {
        queues,
        probe_fp_space,
        ..
    } = annotator.sink;
    let stats = annotator.stats;
    // Stage 2: parallel sharded detection. Worker `w` owns the shards
    // `s % workers == w`; shard streams are identical at any worker count.
    let workers = num_workers.clamp(1, SHARDS);
    let outcomes: Vec<ShardOutcome> = {
        let _span = bigfoot_obs::span!("replay.detect");
        if workers == 1 {
            queues
                .iter()
                .map(|items| run_shard(engine, items))
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
                            owned.push((s, run_shard(engine, &queues[s])));
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
/// use bigfoot_bfj::{compile, parse_program, trace::TraceWriter, CompiledVm, SchedPolicy};
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
/// CompiledVm::new(&compile(&p), SchedPolicy::default()).run(&mut w)?;
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
    let mut annotator = queued_annotator(config);
    {
        let _span = bigfoot_obs::span!("replay.annotate");
        let mut pos = read_header(bytes)?;
        while let Some(ev) = read_event(bytes, &mut pos)? {
            annotator.ingest(&ev);
        }
        annotator.finalize();
    }
    Ok(detect_and_merge(annotator, config.engine, config.workers))
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
