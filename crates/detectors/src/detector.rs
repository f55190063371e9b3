//! The serial detector: the engine's annotator driving one inline shard.
//!
//! [`Detector`] is the online face of the engine in `crate::engine`: the
//! annotator applies every check to a single [`ShardState`] over all ids
//! the moment the event arrives, so races are reported in trace order
//! with no queue and no per-check copy. Raw-trace replay
//! ([`replay_trace`](crate::replay_trace)) is this detector fed by the
//! trace decoder.

use crate::engine::{Annotator, ArrayEngine, CheckSource, ProxyTable, ShardState};
use crate::replay::ReplayConfig;
use crate::stats::Stats;
use bigfoot_bfj::{CheckRef, Event, EventSink, Loc};
use bigfoot_vc::{AccessKind, Tid};

/// A configurable precise dynamic race detector over the event stream.
///
/// # Examples
///
/// ```
/// use bigfoot_bfj::{compile, parse_program, CompiledVm, SchedPolicy};
/// use bigfoot_detectors::Detector;
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
/// let mut ft = Detector::fasttrack();
/// CompiledVm::new(&compile(&p), SchedPolicy::default()).run(&mut ft)?;
/// let stats = ft.finish();
/// assert!(stats.has_races(), "unsynchronized writes race");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Detector {
    name: String,
    ann: Annotator<ShardState>,
}

impl Detector {
    /// Creates a detector with an explicit configuration.
    pub fn new(
        name: impl Into<String>,
        source: CheckSource,
        engine: ArrayEngine,
        proxies: ProxyTable,
    ) -> Detector {
        Detector {
            name: name.into(),
            ann: Annotator::new(source, engine, proxies, ShardState::new(engine)),
        }
    }

    /// A preset row of Fig. 2, defined once by [`ReplayConfig`]'s
    /// constructors.
    fn preset(name: &str, config: ReplayConfig) -> Detector {
        Detector::new(name, config.source, config.engine, config.proxies)
    }

    /// The FastTrack baseline: a check on every access, fine shadow.
    pub fn fasttrack() -> Detector {
        Detector::preset("FastTrack", ReplayConfig::fasttrack(1))
    }

    /// RedCard: instrumented checks (redundancy-eliminated), fine arrays,
    /// static field proxies.
    pub fn redcard(proxies: ProxyTable) -> Detector {
        Detector::preset("RedCard", ReplayConfig::redcard(proxies, 1))
    }

    /// SlimState: a check on every access, dynamic array compression.
    pub fn slimstate() -> Detector {
        Detector::preset("SlimState", ReplayConfig::slimstate(1))
    }

    /// SlimCard: RedCard instrumentation + SlimState array compression.
    pub fn slimcard(proxies: ProxyTable) -> Detector {
        Detector::preset("SlimCard", ReplayConfig::slimcard(proxies, 1))
    }

    /// DynamicBF: BigFoot instrumentation (moved/coalesced checks),
    /// dynamic array compression, static field proxies.
    pub fn bigfoot(proxies: ProxyTable) -> Detector {
        Detector::preset("BigFoot", ReplayConfig::bigfoot(proxies, 1))
    }

    /// The detector's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Finalizes the run (commits any remaining footprints, records final
    /// space) and returns the statistics.
    pub fn finish(mut self) -> Stats {
        self.ann.finish()
    }

    /// Drops the detector without publishing anything, as if it had
    /// never run: replay of a malformed trace reports only the error.
    pub(crate) fn discard(mut self) {
        self.ann.finished = true;
    }
}

impl Drop for Detector {
    /// A detector abandoned before [`Detector::finish`] — an execution's
    /// `RuntimeError`, a panic unwinding past the run, a caller that just
    /// dropped it — still publishes its aggregated `det.events` count and
    /// the thread-local `bigfoot_vc::path_stats` tallies. Without this,
    /// a partial run's `bfc profile` report shows zero events and zero
    /// fast/slow-path hits as if the detector never ran. Shadow-state
    /// finalization (footprint commits, the final space sample) is *not*
    /// performed here: it can surface new races, and a drop during unwind
    /// must stay infallible.
    fn drop(&mut self) {
        if !self.ann.finished {
            bigfoot_obs::count_named("det.events", self.ann.events);
            bigfoot_vc::path_stats::flush();
        }
    }
}

/// The typed hooks run the annotator's per-kind functions that
/// `Annotator::ingest` dispatches to, so a detector fed by the VM's
/// hooks and one fed owned events compute the same thing. A detector
/// that consumes checks only counts an access here; no
/// [`Event::Access`] is ever built for it.
impl EventSink for Detector {
    #[inline]
    fn event(&mut self, ev: &Event) {
        self.ann.ingest(ev);
    }

    #[inline]
    fn access(&mut self, t: Tid, kind: AccessKind, loc: Loc) {
        self.ann.events += 1;
        self.ann.access(t, kind, loc);
    }

    #[inline]
    fn check(&mut self, t: Tid, paths: &[(AccessKind, CheckRef<'_>)]) {
        self.ann.events += 1;
        self.ann.check(t, paths.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigfoot_bfj::{parse_program, Interp, SchedPolicy};
    use std::sync::Arc;

    fn run(src: &str, mut det: Detector) -> Stats {
        let p = parse_program(src).expect("parse");
        Interp::new(&p, SchedPolicy::default())
            .run(&mut det)
            .expect("run");
        det.finish()
    }

    const RACY: &str = "
        class C { field x; meth poke(v) { this.x = v; return 0; } }
        main {
            c = new C;
            fork t1 = c.poke(1);
            fork t2 = c.poke(2);
            join(t1); join(t2);
        }";

    const LOCKED: &str = "
        class C { field x; meth poke(l, v) { acq(l); this.x = v; rel(l); return 0; } }
        class L { }
        main {
            c = new C;
            l = new L;
            fork t1 = c.poke(l, 1);
            fork t2 = c.poke(l, 2);
            join(t1); join(t2);
        }";

    #[test]
    fn fasttrack_finds_field_race() {
        let stats = run(RACY, Detector::fasttrack());
        assert!(stats.has_races());
        assert_eq!(stats.check_ratio(), 1.0);
    }

    #[test]
    fn fasttrack_accepts_locked_program() {
        let stats = run(LOCKED, Detector::fasttrack());
        assert!(!stats.has_races(), "{:?}", stats.races);
    }

    #[test]
    fn slimstate_agrees_with_fasttrack_on_fields() {
        assert!(run(RACY, Detector::slimstate()).has_races());
        assert!(!run(LOCKED, Detector::slimstate()).has_races());
    }

    #[test]
    fn array_race_found_by_raw_detectors() {
        let src = "
            class W { meth fill(a, v) {
                for (i = 0; i < a.length; i = i + 1) { a[i] = v; }
                return 0; } }
            main {
                w = new W;
                a = new_array(64);
                fork t1 = w.fill(a, 1);
                fork t2 = w.fill(a, 2);
                join(t1); join(t2);
            }";
        let ft = run(src, Detector::fasttrack());
        assert!(ft.has_races());
        let ss = run(src, Detector::slimstate());
        assert!(ss.has_races());
        // SlimState commits whole-array footprints: far fewer shadow ops.
        assert!(
            ss.shadow_ops < ft.shadow_ops / 4,
            "ss={} ft={}",
            ss.shadow_ops,
            ft.shadow_ops
        );
    }

    #[test]
    fn race_free_array_split_work() {
        let src = "
            class W { meth fill(a, lo, hi, v) {
                for (i = lo; i < hi; i = i + 1) { a[i] = v; }
                return 0; } }
            main {
                w = new W;
                a = new_array(64);
                fork t1 = w.fill(a, 0, 32, 1);
                fork t2 = w.fill(a, 32, 64, 2);
                join(t1); join(t2);
            }";
        for det in [Detector::fasttrack(), Detector::slimstate()] {
            let stats = run(src, det);
            assert!(!stats.has_races(), "{:?}", stats.races);
        }
    }

    #[test]
    fn check_events_drive_instrumented_detectors() {
        // A hand-instrumented program: the coalesced check covers the
        // whole traversal, as BigFoot's static analysis would emit.
        let src = "
            main {
                a = new_array(100);
                for (i = 0; i < 100; i = i + 1) { a[i] = i; }
                check(w: a[0..100]);
            }";
        let stats = run(src, Detector::bigfoot(ProxyTable::identity()));
        assert_eq!(stats.checks, 1);
        assert_eq!(stats.shadow_ops, 1, "single coalesced shadow op");
        assert!((stats.check_ratio() - 0.01).abs() < 1e-9);
        assert!(!stats.has_races());
    }

    #[test]
    fn coalesced_field_check_single_op_with_proxies() {
        let src = "
            class P { field x; field y; field z; }
            main {
                p = new P;
                p.x = 1; p.y = 2; p.z = 3;
                check(w: p.x/y/z);
            }";
        // Proxy table: class 0 groups all three fields together.
        let proxies = ProxyTable {
            by_class: vec![Some(Arc::new(
                bigfoot_shadow::FieldGrouping::from_assignment(vec![0, 0, 0]),
            ))],
        };
        let stats = run(src, Detector::bigfoot(proxies));
        assert_eq!(stats.checks, 1);
        assert_eq!(stats.shadow_ops, 1);
        // Without proxies the same check needs three shadow ops.
        let stats = run(src, Detector::bigfoot(ProxyTable::identity()));
        assert_eq!(stats.shadow_ops, 3);
    }

    #[test]
    fn deferred_checks_still_find_races() {
        // Both threads write the whole array with only a terminal check;
        // footprints commit at thread exit and the race is caught.
        let src = "
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
        let stats = run(src, Detector::bigfoot(ProxyTable::identity()));
        assert!(stats.has_races());
    }

    #[test]
    fn space_accounting_reflects_compression() {
        let src = "
            main {
                a = new_array(1000);
                for (i = 0; i < 1000; i = i + 1) { a[i] = i; }
                check(w: a[0..1000]);
            }";
        let bf = run(src, Detector::bigfoot(ProxyTable::identity()));
        let ft = run(src, Detector::fasttrack());
        assert!(
            bf.shadow_space_end * 10 < ft.shadow_space_end,
            "bf={} ft={}",
            bf.shadow_space_end,
            ft.shadow_space_end
        );
    }

    #[test]
    fn sync_ops_counted() {
        let stats = run(LOCKED, Detector::fasttrack());
        // 2 forks + 2 joins + 2 acq + 2 rel + 3 exits
        assert_eq!(stats.sync_ops, 11);
    }
}
