//! Raw-trace (`BFTR`) replay.
//!
//! [`replay_trace`] is the serial [`Detector`] fed by the trace decoder:
//! `bigfoot_bfj::trace::decode_into` decodes each event straight into the
//! detector's typed hooks — an access into `access`, a check into `check`
//! with its paths borrowed from the decoder's scratch, anything else into
//! `event` — so no owned [`Event`] is built per event. The engine's
//! annotator (`crate::engine`) drives one inline shard, exactly as for a
//! live run: every check is applied the moment it is annotated, and its
//! races go straight into [`Stats`] in trace order. The report is
//! therefore byte-identical to the serial detector's over the same event
//! stream.

use crate::engine::{Annotator, ArrayEngine, CheckSource, ItemSink, ProxyTable};
use crate::stats::Stats;
use crate::Detector;
use bigfoot_bfj::trace::{decode_into, read_header, Decoder, TraceError};
use bigfoot_bfj::Event;

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
    decoder: Decoder,
}

impl<'a> TraceReader<'a> {
    /// Validates the header and positions the reader at the first event.
    pub fn new(bytes: &'a [u8]) -> Result<TraceReader<'a>, TraceError> {
        let pos = read_header(bytes)?;
        Ok(TraceReader {
            bytes,
            pos,
            decoder: Decoder::default(),
        })
    }
}

impl Iterator for TraceReader<'_> {
    type Item = Result<Event, TraceError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self.decoder.read_event(self.bytes, &mut self.pos) {
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

/// A detector configuration — one row of Fig. 2. The five constructors
/// are the one place the rows are spelled out; [`Detector`](crate::Detector)'s
/// constructors reuse them.
///
/// Each constructor still takes a `workers` argument, which is unused:
/// replay runs on one inline shard on the calling thread.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Where checks come from (raw accesses vs instrumentation).
    pub source: CheckSource,
    /// Fine per-element arrays vs footprint + adaptive compression.
    pub engine: ArrayEngine,
    /// Static field-proxy groupings.
    pub proxies: ProxyTable,
}

impl ReplayConfig {
    /// FastTrack configuration (`_workers` is unused).
    pub fn fasttrack(_workers: usize) -> ReplayConfig {
        ReplayConfig {
            source: CheckSource::RawAccesses,
            engine: ArrayEngine::Fine,
            proxies: ProxyTable::identity(),
        }
    }

    /// RedCard configuration (`_workers` is unused).
    pub fn redcard(proxies: ProxyTable, _workers: usize) -> ReplayConfig {
        ReplayConfig {
            source: CheckSource::CheckEvents,
            engine: ArrayEngine::Fine,
            proxies,
        }
    }

    /// SlimState configuration (`_workers` is unused).
    pub fn slimstate(_workers: usize) -> ReplayConfig {
        ReplayConfig {
            source: CheckSource::RawAccesses,
            engine: ArrayEngine::Footprint,
            proxies: ProxyTable::identity(),
        }
    }

    /// SlimCard configuration (`_workers` is unused).
    pub fn slimcard(proxies: ProxyTable, _workers: usize) -> ReplayConfig {
        ReplayConfig {
            source: CheckSource::CheckEvents,
            engine: ArrayEngine::Footprint,
            proxies,
        }
    }

    /// BigFoot (DynamicBF) configuration (`_workers` is unused).
    pub fn bigfoot(proxies: ProxyTable, _workers: usize) -> ReplayConfig {
        ReplayConfig {
            source: CheckSource::CheckEvents,
            engine: ArrayEngine::Footprint,
            proxies,
        }
    }

    /// A fresh annotator for this configuration over `sink`.
    pub(crate) fn annotator<S: ItemSink>(&self, sink: S) -> Annotator<S> {
        Annotator::new(self.source, self.engine, self.proxies.clone(), sink)
    }
}

/// Replays a serialized trace on one inline shard.
///
/// Produces [`Stats`] bit-identical to running the serial
/// [`Detector`](crate::Detector) with the same configuration over the same
/// event stream.
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
/// let stats = replay_trace(&bytes, &ReplayConfig::fasttrack(1))?;
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
    let mut det = Detector::new(
        "replay",
        config.source,
        config.engine,
        config.proxies.clone(),
    );
    let _span = bigfoot_obs::span!("replay.annotate");
    match decode_into(bytes, &mut det) {
        Ok(_) => Ok(det.finish()),
        Err(e) => {
            det.discard();
            Err(e)
        }
    }
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
        let stats = replay_trace(&bytes, &ReplayConfig::fasttrack(1)).expect("replay");
        assert!(stats.has_races());
        assert_identical(&stats, &serial);
    }

    #[test]
    fn replay_matches_serial_bigfoot_deferred_commits() {
        for src in [ARRAY_SPLIT, ARRAY_RACY] {
            let bytes = record(src);
            let serial = serial_stats(&bytes, Detector::bigfoot(ProxyTable::identity()));
            let stats = replay_trace(&bytes, &ReplayConfig::bigfoot(ProxyTable::identity(), 1))
                .expect("replay");
            assert_identical(&stats, &serial);
        }
        assert!(replay_trace(
            &record(ARRAY_SPLIT),
            &ReplayConfig::bigfoot(ProxyTable::identity(), 1)
        )
        .expect("replay")
        .races
        .is_empty());
    }

    #[test]
    fn replay_matches_serial_slimstate() {
        let bytes = record(ARRAY_RACY);
        let serial = serial_stats(&bytes, Detector::slimstate());
        let stats = replay_trace(&bytes, &ReplayConfig::slimstate(1)).expect("replay");
        assert_identical(&stats, &serial);
        assert!(stats.has_races());
    }

    #[test]
    fn worker_count_never_changes_the_report() {
        // The constructors still take a worker count, which replay ignores.
        let bytes = record(ARRAY_RACY);
        let baseline = replay_trace(&bytes, &ReplayConfig::fasttrack(1)).expect("replay");
        for workers in [0, 2, 64, 1000] {
            let stats = replay_trace(&bytes, &ReplayConfig::fasttrack(workers)).expect("replay");
            assert_identical(&stats, &baseline);
        }
    }

    #[test]
    fn zero_length_arrays_replay_identically() {
        // Empty allocations flow through fine states and adaptive
        // shadows without panicking or perturbing space units.
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
            (ReplayConfig::fasttrack(1), Detector::fasttrack()),
            (ReplayConfig::slimstate(1), Detector::slimstate()),
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
            replay_trace(&bytes, &ReplayConfig::fasttrack(1)),
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
