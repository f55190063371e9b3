//! Pipelined online detection: the executor (the compiled VM) produces the
//! event stream on one thread while the detector consumes it on another, with events
//! handed over in fixed-size **batches** through a bounded single-producer
//! / single-consumer ring.
//!
//! The serial path runs executor → detector in lockstep: every event
//! crosses the [`EventSink`] boundary one at a time, and neither side can
//! make progress while the other works. This module overlaps the two.
//! The producer appends events to a private batch (a plain `Vec<Event>`)
//! and only touches shared state once per batch commit, so the
//! per-event synchronization cost is amortized to (batch size)⁻¹ — a few
//! thousandths of a lock acquisition per event at the default batch
//! size. Drained batches are recycled to the producer through a second
//! ring, so the steady state allocates nothing on either side.
//!
//! Determinism is free: the consumer observes the exact total order the
//! producer emitted, so a pipelined run is **byte-identical** to the
//! serial detector over the same stream — the differential suite and the
//! fuzz pipeline oracle pin this.
//!
//! The ring itself lives in [`crate::channel`]; this module owns the
//! event-batching producer side ([`BatchSink`]), the single-consumer
//! driver ([`run_pipelined`]), and the `pipeline.*` accounting. A side
//! that cannot progress sleeps until the other moves; stalls are
//! tallied and flushed to `pipeline.*` obs counters at the end of the
//! run (backpressure on a full ring is the producer's stall; an empty
//! ring is the consumer's). Batches dropped on a dead ring — the consumer
//! unwound mid-stream — are tallied separately as
//! `pipeline.batches_dropped` / `pipeline.events_dropped`, so
//! `pipeline.events` counts exactly the events handed to the consumer.

use crate::channel::{DeadOnUnwind, Ring};
use crate::detector::Detector;
use crate::stats::Stats;
use bigfoot_bfj::{Event, EventSink};

/// Default events per batch.
///
/// Large enough that the per-batch atomics and the consumer's cache-cold
/// pickup are noise; small enough that a batch of [`Event`]s (~48 bytes
/// each) stays within a few L2-sized strides and the consumer starts
/// working long before the producer finishes.
pub const DEFAULT_BATCH_EVENTS: usize = 4096;

/// Default number of ring slots (must be a power of two).
pub const DEFAULT_RING_SLOTS: usize = 8;

/// Tuning knobs for [`run_pipelined`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Events per committed batch (≥ 1).
    pub batch_events: usize,
    /// Ring capacity in batches; rounded up to a power of two, minimum 2.
    pub ring_slots: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            batch_events: DEFAULT_BATCH_EVENTS,
            ring_slots: DEFAULT_RING_SLOTS,
        }
    }
}

/// Producer-side counters, aggregated locally and flushed once.
/// `batches`/`events` count accepted handoffs only; commits that a dead
/// ring refused land in `batches_dropped`/`events_dropped` instead.
#[derive(Debug, Default, Clone, Copy)]
struct ProducerTallies {
    batches: u64,
    events: u64,
    batches_dropped: u64,
    events_dropped: u64,
    full_stalls: u64,
    depth_max: u64,
    recycled: u64,
}

/// The producer's [`EventSink`]: buffers events into a private batch and
/// commits full batches to the ring. Obtain one inside [`run_pipelined`]'s
/// producer closure; the driver flushes the final partial batch and closes
/// the ring when the closure returns.
pub struct BatchSink<'r> {
    ring: &'r Ring<Vec<Event>>,
    free: &'r Ring<Vec<Event>>,
    batch: Vec<Event>,
    batch_events: usize,
    tallies: ProducerTallies,
    closed: bool,
}

impl<'r> BatchSink<'r> {
    fn new(
        ring: &'r Ring<Vec<Event>>,
        free: &'r Ring<Vec<Event>>,
        batch_events: usize,
    ) -> BatchSink<'r> {
        BatchSink {
            ring,
            free,
            batch: Vec::with_capacity(batch_events),
            batch_events: batch_events.max(1),
            tallies: ProducerTallies::default(),
            closed: false,
        }
    }

    fn commit(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        // Grab a recycled batch first so the swap below hands the ring the
        // full one; fall back to a fresh allocation when the consumer has
        // not returned one yet (start-up, or the consumer is behind).
        let next = match self.free.try_pop() {
            Some(recycled) => {
                self.tallies.recycled += 1;
                recycled
            }
            None => Vec::with_capacity(self.batch_events),
        };
        let full = std::mem::replace(&mut self.batch, next);
        let occupancy = full.len() as u64;
        // Tally *after* the push: a dead ring (the consumer unwound)
        // silently refuses the batch, and counting it as handed off
        // would make `pipeline.events` over-report exactly the events
        // that were never consumed. Accepted handoffs and drops are
        // tracked separately.
        if self.ring.push(full, &mut self.tallies.full_stalls) {
            self.tallies.batches += 1;
            self.tallies.events += occupancy;
        } else {
            self.tallies.batches_dropped += 1;
            self.tallies.events_dropped += occupancy;
            return;
        }
        let depth = self.ring.depth() as u64;
        self.tallies.depth_max = self.tallies.depth_max.max(depth);
        // Batch lifecycle on the producer's timeline: one instant per
        // handoff plus sampled counter tracks (ring depth right after
        // the push, and how full the committed batch was).
        bigfoot_obs::trace_instant!("pipeline.batch_commit");
        bigfoot_obs::trace_counter!("pipeline.ring_depth", depth);
        bigfoot_obs::trace_counter!("pipeline.batch_occupancy", occupancy);
    }

    /// Flushes the partial batch and closes the ring.
    fn finish(&mut self) {
        if !self.closed {
            self.commit();
            self.ring.close();
            self.closed = true;
        }
    }
}

impl Drop for BatchSink<'_> {
    /// Closing on drop keeps the consumer from waiting forever if the
    /// producer closure unwinds; the partial batch is still flushed, so a
    /// panicking producer's events-so-far are all observed.
    fn drop(&mut self) {
        self.finish();
    }
}

impl EventSink for BatchSink<'_> {
    #[inline]
    fn event(&mut self, ev: &Event) {
        self.batch.push(ev.clone());
        if self.batch.len() >= self.batch_events {
            self.commit();
        }
    }
}

/// Runs `producer` on the calling thread and `sink` on a second thread,
/// connected by the batch ring. Returns the producer's result and the
/// sink, which has consumed the entire event stream in order by the time
/// this returns.
///
/// The sink sees exactly the sequence of [`EventSink::event`] calls the
/// producer made, so any consumer that is deterministic over its input
/// stream (the serial [`Detector`], the replay annotator, …) produces
/// output identical to a lockstep run.
///
/// # Examples
///
/// ```
/// use bigfoot_bfj::{compile, parse_program, CompiledVm, SchedPolicy};
/// use bigfoot_detectors::{run_pipelined, Detector, PipelineConfig};
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
/// let lowered = compile(&p);
/// let (outcome, det) = run_pipelined(
///     &PipelineConfig::default(),
///     |sink| CompiledVm::new(&lowered, SchedPolicy::default()).run(sink),
///     Detector::fasttrack(),
/// );
/// outcome?;
/// assert!(det.finish().has_races());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_pipelined<S, T>(
    config: &PipelineConfig,
    producer: impl FnOnce(&mut BatchSink<'_>) -> T,
    mut sink: S,
) -> (T, S)
where
    S: EventSink + Send,
{
    let ring: Ring<Vec<Event>> = Ring::new(config.ring_slots);
    let free: Ring<Vec<Event>> = Ring::new(config.ring_slots);
    let (result, joined, tallies) = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            // Marks the ring dead if this thread unwinds, so the producer
            // bails out of its push loop instead of waiting forever and
            // the panic surfaces at `join()` below.
            let _guard = DeadOnUnwind(&ring);
            if bigfoot_obs::trace::enabled() {
                bigfoot_obs::trace::set_thread_name("detector (consumer)");
            }
            let mut empty_stalls = 0u64;
            while let Some(batch) = ring.pop(&mut empty_stalls) {
                // One span per drained batch: in Perfetto this is the
                // consumer's duty cycle, interleaved with pop_wait idle.
                let _batch_span = bigfoot_obs::trace_span!("pipeline.batch");
                for ev in &batch {
                    sink.event(ev);
                }
                let mut drained = batch;
                drained.clear();
                // Hand the emptied batch back; if the free ring is full
                // (the producer is far ahead) just let it drop.
                let _ = free.try_push(drained);
            }
            // The vc fast/slow-path tallies are thread-local and were
            // accrued on *this* thread; the detector's finalization runs
            // on the caller's thread, so drain them here or they die with
            // the thread and `vc.*` counters read zero under `--pipeline`.
            bigfoot_vc::path_stats::flush();
            (sink, empty_stalls)
        });
        if bigfoot_obs::trace::enabled() {
            bigfoot_obs::trace::set_thread_name("interpreter (producer)");
        }
        let mut batches = BatchSink::new(&ring, &free, config.batch_events);
        let result = producer(&mut batches);
        batches.finish();
        let tallies = batches.tallies;
        drop(batches);
        (result, consumer.join(), tallies)
    });
    // Flush the producer-side tallies *before* propagating a consumer
    // panic: the accepted/dropped split is exactly what a post-mortem
    // needs, and resuming the unwind first would lose it.
    flush_producer_tallies(&tallies);
    match joined {
        Ok((sink, empty_stalls)) => {
            if bigfoot_obs::enabled() {
                bigfoot_obs::count_named("pipeline.stall.ring_empty", empty_stalls);
            }
            (result, sink)
        }
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Flushes [`ProducerTallies`] to the `pipeline.*` registry names.
fn flush_producer_tallies(tallies: &ProducerTallies) {
    if !bigfoot_obs::enabled() {
        return;
    }
    bigfoot_obs::count_named("pipeline.batches", tallies.batches);
    bigfoot_obs::count_named("pipeline.events", tallies.events);
    bigfoot_obs::count_named("pipeline.batches_dropped", tallies.batches_dropped);
    bigfoot_obs::count_named("pipeline.events_dropped", tallies.events_dropped);
    bigfoot_obs::count_named("pipeline.batches_recycled", tallies.recycled);
    bigfoot_obs::count_named("pipeline.stall.ring_full", tallies.full_stalls);
    // A high-water mark: flushed as a max-gauge so back-to-back runs
    // report the max, where the old counter summed them.
    bigfoot_obs::gauge_max_named("pipeline.depth_max", tallies.depth_max);
}

/// Convenience wrapper: pipelined online detection with the serial
/// [`Detector`] as the consumer. Returns the producer's result and the
/// finalized [`Stats`] — byte-identical (via `Stats::to_json`) to running
/// the same detector in lockstep.
pub fn detect_pipelined<T>(
    config: &PipelineConfig,
    producer: impl FnOnce(&mut BatchSink<'_>) -> T,
    det: Detector,
) -> (T, Stats) {
    let (result, det) = run_pipelined(config, producer, det);
    (result, det.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ProxyTable;
    use bigfoot_bfj::{parse_program, Interp, RecordingSink, SchedPolicy};

    const RACY: &str = "
        class C { field x; meth poke(v) { this.x = v; return 0; } }
        main {
            c = new C;
            fork t1 = c.poke(1);
            fork t2 = c.poke(2);
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

    fn serial_stats(src: &str, mut det: Detector) -> Stats {
        let p = parse_program(src).expect("parse");
        Interp::new(&p, SchedPolicy::default())
            .run(&mut det)
            .expect("run");
        det.finish()
    }

    fn pipelined_stats(src: &str, det: Detector, config: &PipelineConfig) -> Stats {
        let p = parse_program(src).expect("parse");
        let (outcome, stats) = detect_pipelined(
            config,
            |sink| Interp::new(&p, SchedPolicy::default()).run(sink),
            det,
        );
        outcome.expect("run");
        stats
    }

    fn assert_identical(a: &Stats, b: &Stats) {
        assert_eq!(
            a.to_json().to_string_compact(),
            b.to_json().to_string_compact(),
            "pipelined stats must be byte-identical to serial"
        );
    }

    #[test]
    fn pipelined_matches_serial_across_batch_sizes() {
        // Batch sizes of 1 (every event is a handoff), a non-divisor of
        // the stream length, and larger-than-stream all agree with serial.
        for batch_events in [1, 3, 64, 1 << 20] {
            let config = PipelineConfig {
                batch_events,
                ring_slots: 4,
            };
            for (src, make) in [
                (RACY, Detector::fasttrack as fn() -> Detector),
                (RACY, Detector::slimstate),
            ] {
                let serial = serial_stats(src, make());
                let pipelined = pipelined_stats(src, make(), &config);
                assert_identical(&pipelined, &serial);
            }
            let serial = serial_stats(ARRAY_RACY, Detector::bigfoot(ProxyTable::identity()));
            let pipelined = pipelined_stats(
                ARRAY_RACY,
                Detector::bigfoot(ProxyTable::identity()),
                &config,
            );
            assert_identical(&pipelined, &serial);
        }
    }

    #[test]
    fn tiny_ring_exercises_backpressure() {
        // Two slots and one-event batches force the producer to wait on
        // the consumer constantly; the verdict must not change.
        let config = PipelineConfig {
            batch_events: 1,
            ring_slots: 2,
        };
        let serial = serial_stats(ARRAY_RACY, Detector::fasttrack());
        let pipelined = pipelined_stats(ARRAY_RACY, Detector::fasttrack(), &config);
        assert_identical(&pipelined, &serial);
    }

    #[test]
    fn consumer_sees_the_exact_event_sequence() {
        let p = parse_program(ARRAY_RACY).expect("parse");
        let mut lockstep = RecordingSink::default();
        Interp::new(&p, SchedPolicy::default())
            .run(&mut lockstep)
            .expect("run");
        let (outcome, piped) = run_pipelined(
            &PipelineConfig {
                batch_events: 7,
                ring_slots: 2,
            },
            |sink| Interp::new(&p, SchedPolicy::default()).run(sink),
            RecordingSink::default(),
        );
        outcome.expect("run");
        assert_eq!(piped.events, lockstep.events);
    }

    #[test]
    fn close_race_never_drops_the_final_batch() {
        // Regression: `Ring::pop`'s close check used to call `try_pop` a
        // second time inside the condition, silently dropping a batch
        // pushed between the first failed pop and the `closed` load. Race
        // the producer's final push+close against the consumer's empty
        // poll many times; every pushed event must come out.
        let p = parse_program(RACY).expect("parse");
        let mut events = RecordingSink::default();
        Interp::new(&p, SchedPolicy::default())
            .run(&mut events)
            .expect("run");
        let ev = &events.events[0];
        for round in 0..200 {
            let ring: Ring<Vec<Event>> = Ring::new(2);
            let batches = 3 + (round % 4);
            let consumed = std::thread::scope(|scope| {
                let consumer = scope.spawn(|| {
                    let mut stalls = 0u64;
                    let mut total = 0usize;
                    while let Some(batch) = ring.pop(&mut stalls) {
                        total += batch.len();
                    }
                    total
                });
                let mut stalls = 0u64;
                for _ in 0..batches {
                    assert!(ring.push(vec![ev.clone(); 5], &mut stalls));
                    std::hint::spin_loop();
                }
                ring.close();
                consumer.join().expect("consumer")
            });
            assert_eq!(consumed, batches * 5, "round {round} lost events");
        }
    }

    /// Panics on the first event it sees — models a consumer that
    /// unwinds mid-stream.
    #[derive(Debug)]
    struct PanickySink;
    impl EventSink for PanickySink {
        fn event(&mut self, _ev: &Event) {
            panic!("sink exploded");
        }
    }

    #[test]
    fn consumer_panic_propagates_instead_of_hanging() {
        // A panicking consumer must surface its panic through
        // `run_pipelined` rather than leaving the producer waiting on a
        // ring nobody drains.
        let p = parse_program(ARRAY_RACY).expect("parse");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pipelined(
                &PipelineConfig {
                    batch_events: 1,
                    ring_slots: 2,
                },
                |sink| Interp::new(&p, SchedPolicy::default()).run(sink),
                PanickySink,
            )
        }));
        let payload = result.expect_err("consumer panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "sink exploded");
    }

    #[test]
    fn dead_ring_drops_are_not_counted_as_handoffs() {
        // Regression (PR 7): `BatchSink::commit` used to bump
        // `tallies.batches`/`tallies.events` before `Ring::push`, which
        // silently drops the batch once the consumer has panicked — so
        // `pipeline.events` over-reported exactly the events that were
        // never consumed. Drive the sink against a dead ring directly
        // (the deterministic core of the bug) and assert the split.
        let ring: Ring<Vec<Event>> = Ring::new(2);
        let free: Ring<Vec<Event>> = Ring::new(2);
        let p = parse_program(RACY).expect("parse");
        let mut events = RecordingSink::default();
        Interp::new(&p, SchedPolicy::default())
            .run(&mut events)
            .expect("run");
        let ev = events.events[0].clone();

        let mut sink = BatchSink::new(&ring, &free, 1);
        sink.event(&ev);
        sink.event(&ev);
        ring.mark_dead(); // the consumer "panics" here
        sink.event(&ev);
        sink.event(&ev);
        sink.finish();
        assert_eq!(sink.tallies.events, 2, "only accepted handoffs count");
        assert_eq!(sink.tallies.batches, 2);
        assert_eq!(
            sink.tallies.events_dropped, 2,
            "dead-ring drops are tallied apart"
        );
        assert_eq!(sink.tallies.batches_dropped, 2);

        // End to end with the existing PanickySink: the counters must
        // balance — every emitted event is either a handoff or a drop,
        // and with a consumer that dies on its first event most of the
        // stream must land on the dropped side. Delta-based against the
        // global registry, with margins wide enough that concurrent
        // obs-enabled tests (which never drop) cannot break it.
        let _g = bigfoot_obs::EnabledGuard::new();
        let before = bigfoot_obs::snapshot();
        let long_racy = "
            class W { meth fill(a, v) {
                for (i = 0; i < a.length; i = i + 1) { a[i] = v; }
                return 0; } }
            main {
                w = new W;
                a = new_array(256);
                fork t1 = w.fill(a, 1);
                fork t2 = w.fill(a, 2);
                join(t1); join(t2);
            }";
        let p = parse_program(long_racy).expect("parse");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pipelined(
                &PipelineConfig {
                    batch_events: 1,
                    ring_slots: 2,
                },
                |sink| Interp::new(&p, SchedPolicy::default()).run(sink),
                PanickySink,
            )
        }));
        result.expect_err("consumer panic must propagate");
        let after = bigfoot_obs::snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        let accepted = delta("pipeline.events");
        let dropped = delta("pipeline.events_dropped");
        let total = {
            let mut rec = RecordingSink::default();
            let _ = Interp::new(&p, SchedPolicy::default()).run(&mut rec);
            rec.events.len() as u64
        };
        assert!(total > 100, "stream long enough to outlast the ring");
        assert!(
            dropped >= total - 64,
            "nearly the whole stream is dropped once the consumer dies \
             (dropped={dropped}, total={total})"
        );
        assert!(
            accepted < total,
            "pipeline.events must not claim the full stream was handed off \
             (accepted={accepted}, total={total})"
        );
    }

    #[test]
    fn consumer_thread_flushes_vc_path_tallies() {
        // The vc fast/slow-path tallies accrue in the consumer thread's
        // TLS; `run_pipelined` must drain them before that thread exits
        // or `vc.*` (including `vc.clock.spills`) reads zero under
        // `--pipeline`. Delta-based so parallel obs-enabled tests only
        // help, never hurt.
        let _g = bigfoot_obs::EnabledGuard::new();
        let before = bigfoot_obs::snapshot().counter_total("vc.");
        let p = parse_program(RACY).expect("parse");
        let (outcome, _det) = run_pipelined(
            &PipelineConfig::default(),
            |sink| Interp::new(&p, SchedPolicy::default()).run(sink),
            Detector::fasttrack(),
        );
        outcome.expect("run");
        let after = bigfoot_obs::snapshot().counter_total("vc.");
        assert!(
            after > before,
            "consumer-thread vc path tallies must be flushed (before={before}, after={after})"
        );
    }

    #[test]
    fn producer_error_still_drains_events_emitted_so_far() {
        // An interpreter error surfaces as the producer result while the
        // consumer still observes every event emitted before the failure.
        let p = parse_program("main { a = new_array(4); a[9] = 1; }").expect("parse");
        let (outcome, rec) = run_pipelined(
            &PipelineConfig::default(),
            |sink| Interp::new(&p, SchedPolicy::default()).run(sink),
            RecordingSink::default(),
        );
        assert!(outcome.is_err(), "out-of-bounds write must error");
        assert!(!rec.events.is_empty(), "the alloc event precedes the error");
    }
}
