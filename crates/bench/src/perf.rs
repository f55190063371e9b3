//! The `repro perf` measurement: detector-only event-loop throughput,
//! static-analysis cost, and peak shadow space — the numbers committed to
//! `BENCH.json` as the tracked performance baseline.
//!
//! Unlike [`crate::measure`], which times VM + detector together (the
//! paper's overhead experiment), `perf` records each benchmark to a trace
//! once, decodes it once, and then streams the pre-decoded events through
//! each detector configuration. That isolates the detector event loop, so
//! `events_per_sec` moves when the detector moves and not when the VM
//! does — exactly what a perf baseline must track.

use crate::{geomean, run_vm, StaticObsStats, DETECTORS};
use bigfoot::{
    instrument, instrument_incremental, naive_instrument, redcard_instrument, InstrumentOptions,
    Instrumented, CACHE_FILE,
};
use bigfoot_bfj::{
    compile, mutate, site_count, trace::TraceWriter, Event, EventSink, Interp, MutationKind,
    NullSink, Program, SchedPolicy,
};
use bigfoot_detectors::{
    replay_compressed_report, replay_trace, ArrayEngine, CheckSource, Detector, ProxyTable,
    ReplayConfig, Stats, TraceReader,
};
use bigfoot_obs::json::Json;
use std::time::Instant;

/// Each detection run is repeated until it has consumed at least this
/// much wall time, so nanosecond-scale timer noise cannot dominate the
/// per-event quotient on small traces.
const MIN_SAMPLE_NS: u64 = 20_000_000;

/// [`MIN_SAMPLE_NS`] as a duration, for the wall-time samples of
/// `measure` and `measure_ablation`.
pub(crate) const MIN_SAMPLE: std::time::Duration = std::time::Duration::from_nanos(MIN_SAMPLE_NS);

/// One detector configuration's throughput on one benchmark.
#[derive(Debug, Clone)]
pub struct DetectorPerf {
    /// Short name (FT/RC/SS/SC/BF).
    pub name: &'static str,
    /// Events in the recorded trace for this configuration's program.
    pub events: u64,
    /// Median events/second over the measurement reps.
    pub events_per_sec: f64,
    /// Peak shadow space (space units) observed during detection.
    pub shadow_space_peak: u64,
}

/// All `perf` measurements for one benchmark.
#[derive(Debug)]
pub struct PerfBench {
    /// Benchmark name.
    pub name: &'static str,
    /// Static-analysis wall time and entailment share (obs span deltas).
    pub static_obs: StaticObsStats,
    /// Entailment-cache hits during the analysis (0 when uncached).
    pub entail_cache_hits: u64,
    /// Entailment-cache misses during the analysis.
    pub entail_cache_misses: u64,
    /// Per-detector throughput, in [`DETECTORS`] order.
    pub detectors: Vec<DetectorPerf>,
}

impl PerfBench {
    /// The run for a detector name.
    pub fn run(&self, name: &str) -> &DetectorPerf {
        self.detectors
            .iter()
            .find(|r| r.name == name)
            .expect("detector")
    }
}

/// Builds the detector for one configuration short name, given the proxy
/// tables from the RedCard and BigFoot instrumentations.
fn config_detector(d: &str, rc_proxies: &ProxyTable, bf_proxies: &ProxyTable) -> Detector {
    match d {
        "FT" => Detector::new(
            "FastTrack",
            CheckSource::CheckEvents,
            ArrayEngine::Fine,
            ProxyTable::identity(),
        ),
        "RC" => Detector::redcard(rc_proxies.clone()),
        "SS" => Detector::new(
            "SlimState",
            CheckSource::CheckEvents,
            ArrayEngine::Footprint,
            ProxyTable::identity(),
        ),
        "SC" => Detector::slimcard(rc_proxies.clone()),
        _ => Detector::bigfoot(bf_proxies.clone()),
    }
}

fn record(program: &Program) -> (u64, Vec<Event>) {
    let mut writer = TraceWriter::new();
    run_vm(&compile(program), &mut writer);
    let events = writer.events();
    let bytes = writer.into_bytes();
    let decoded: Vec<Event> = TraceReader::new(&bytes)
        .expect("trace header")
        .map(|ev| ev.expect("trace event"))
        .collect();
    (events, decoded)
}

fn drive(events: &[Event], mut det: Detector) -> Stats {
    for ev in events {
        det.event(ev);
    }
    det.finish()
}

/// Median events/sec over `reps` samples, where each sample loops whole
/// detection runs until [`MIN_SAMPLE_NS`] has elapsed.
fn throughput<F: Fn() -> Detector>(events: &[Event], reps: usize, make: F) -> (f64, Stats) {
    // Calibration run: how many whole detections fit one sample?
    let t0 = Instant::now();
    let stats = drive(events, make());
    let once = t0.elapsed().as_nanos().max(1) as u64;
    let iters = (MIN_SAMPLE_NS / once).clamp(1, 10_000) as usize;

    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(drive(events, make()));
        }
        let dt = t0.elapsed().as_secs_f64().max(1e-12);
        rates.push(events.len() as f64 * iters as f64 / dt);
    }
    rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (rates[rates.len() / 2], stats)
}

/// Runs the full `perf` measurement for one benchmark.
pub fn measure_perf(name: &'static str, program: &Program, reps: usize) -> PerfBench {
    let snap0 = bigfoot_obs::snapshot();
    let inst: Instrumented = instrument(program);
    let snap1 = bigfoot_obs::snapshot();
    let static_obs = StaticObsStats::between(&snap0, &snap1);
    let entail_cache_hits = snap1.counter("entail.cache.hit") - snap0.counter("entail.cache.hit");
    let entail_cache_misses =
        snap1.counter("entail.cache.miss") - snap0.counter("entail.cache.miss");

    let (rc_prog, rc_proxies) = redcard_instrument(program);
    let naive = naive_instrument(program);
    let (naive_events, naive_trace) = record(&naive);
    let (rc_events, rc_trace) = record(&rc_prog);
    let (bf_events, bf_trace) = record(&inst.program);

    // Metric collection off while timing: the baseline tracks the bare
    // detector loop (obs overhead is bounded separately by its own bench).
    let obs_was_on = bigfoot_obs::enabled();
    bigfoot_obs::set_enabled(false);
    let mut detectors = Vec::new();
    for d in DETECTORS {
        let (events, trace): (u64, &[Event]) = match d {
            "FT" | "SS" => (naive_events, &naive_trace),
            "RC" | "SC" => (rc_events, &rc_trace),
            _ => (bf_events, &bf_trace),
        };
        let (rate, stats) = throughput(trace, reps, || {
            config_detector(d, &rc_proxies, &inst.proxies)
        });
        detectors.push(DetectorPerf {
            name: d,
            events,
            events_per_sec: rate,
            shadow_space_peak: stats.shadow_space_peak,
        });
    }
    bigfoot_obs::set_enabled(obs_was_on);

    PerfBench {
        name,
        static_obs,
        entail_cache_hits,
        entail_cache_misses,
        detectors,
    }
}

/// Median end-to-end events/sec over `reps` samples of `run`, where each
/// sample loops whole runs until [`MIN_SAMPLE_NS`] has elapsed.
fn end_to_end_rate(events: u64, reps: usize, run: impl Fn()) -> f64 {
    let t0 = Instant::now();
    run();
    let once = t0.elapsed().as_nanos().max(1) as u64;
    let iters = (MIN_SAMPLE_NS / once).clamp(1, 10_000) as usize;
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        for _ in 0..iters {
            run();
        }
        let dt = t0.elapsed().as_secs_f64().max(1e-12);
        rates.push(events as f64 * iters as f64 / dt);
    }
    rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    rates[rates.len() / 2]
}

/// Interpreted vs compiled execution throughput for one benchmark
/// (`repro perf --compiled`).
///
/// The uninstrumented pair is the headline number for the compilation
/// tier: the same program, the same schedule, a [`NullSink`], so the
/// only difference is tree-walking interpretation vs flat bytecode.
/// The instrumented pair runs the BigFoot-placed program end-to-end into
/// the BigFoot detector, showing how much of the win survives once
/// detection work shares the loop.
#[derive(Debug, Clone)]
pub struct CompiledBench {
    /// Benchmark name.
    pub name: &'static str,
    /// Scheduler steps one uninstrumented run executes.
    pub steps: u64,
    /// Median steps/second, tree-walking interpreter, uninstrumented.
    pub interp_steps_per_sec: f64,
    /// Median steps/second, compiled bytecode VM, uninstrumented.
    pub compiled_steps_per_sec: f64,
    /// Events one BigFoot-instrumented run produces.
    pub events: u64,
    /// Median events/second, interpreter + BigFoot detector.
    pub interp_events_per_sec: f64,
    /// Median events/second, compiled VM + BigFoot detector.
    pub compiled_events_per_sec: f64,
}

impl CompiledBench {
    /// Compiled / interpreted throughput on the uninstrumented program.
    pub fn uninstrumented_speedup(&self) -> f64 {
        if self.interp_steps_per_sec > 0.0 {
            self.compiled_steps_per_sec / self.interp_steps_per_sec
        } else {
            1.0
        }
    }

    /// Compiled / interpreted end-to-end throughput under the BigFoot
    /// detector.
    pub fn instrumented_speedup(&self) -> f64 {
        if self.interp_events_per_sec > 0.0 {
            self.compiled_events_per_sec / self.interp_events_per_sec
        } else {
            1.0
        }
    }
}

/// Measures interpreted vs compiled throughput (`repro perf
/// --compiled`). Lowering happens once, outside the timed region — the
/// baseline tracks execution speed, and `vm.compile` has its own span.
/// The numbers land in an *additive* `compiled` section that the
/// [`check_against_baseline`] throughput gate never reads (though its
/// section-presence check still demands the section exist in both
/// reports).
pub fn measure_compiled(name: &'static str, program: &Program, reps: usize) -> CompiledBench {
    let steps = Interp::new(program, SchedPolicy::default())
        .run(&mut NullSink)
        .expect("run")
        .steps;
    let inst: Instrumented = instrument(program);
    struct CountSink(u64);
    impl EventSink for CountSink {
        fn event(&mut self, _: &Event) {
            self.0 += 1;
        }
    }
    let mut counter = CountSink(0);
    Interp::new(&inst.program, SchedPolicy::default())
        .run(&mut counter)
        .expect("run");
    let events = counter.0;

    let lowered = compile(program);
    let lowered_bf = compile(&inst.program);

    let obs_was_on = bigfoot_obs::enabled();
    bigfoot_obs::set_enabled(false);
    let interp_steps_per_sec = end_to_end_rate(steps, reps, || {
        Interp::new(program, SchedPolicy::default())
            .run(&mut NullSink)
            .expect("run");
    });
    let compiled_steps_per_sec = end_to_end_rate(steps, reps, || {
        run_vm(&lowered, &mut NullSink);
    });
    let interp_events_per_sec = end_to_end_rate(events, reps, || {
        let mut det = Detector::bigfoot(inst.proxies.clone());
        Interp::new(&inst.program, SchedPolicy::default())
            .run(&mut det)
            .expect("run");
        std::hint::black_box(det.finish());
    });
    let compiled_events_per_sec = end_to_end_rate(events, reps, || {
        let mut det = Detector::bigfoot(inst.proxies.clone());
        run_vm(&lowered_bf, &mut det);
        std::hint::black_box(det.finish());
    });
    bigfoot_obs::set_enabled(obs_was_on);

    CompiledBench {
        name,
        steps,
        interp_steps_per_sec,
        compiled_steps_per_sec,
        events,
        interp_events_per_sec,
        compiled_events_per_sec,
    }
}

/// Trace-size and replay-throughput numbers for one replay
/// configuration on one benchmark (`repro perf --compressed`).
///
/// Both rates time the whole offline path — decode (or grammar walk),
/// vector-clock annotation, detection, merge — over the same recorded
/// schedule, so `speedup` isolates what the memoizing compressed-replay
/// engine buys (or costs: rules carrying sync, or the fine array
/// engine, fall back to expansion and pay the walk for nothing).
#[derive(Debug, Clone)]
pub struct CompressedDetectorPerf {
    /// Short name (FT/RC/SS/SC/BF).
    pub name: &'static str,
    /// Events in this configuration's recorded trace.
    pub events: u64,
    /// Raw `BFTR` trace size in bytes.
    pub raw_bytes: u64,
    /// Grammar-compressed `BFTC` container size in bytes.
    pub compressed_bytes: u64,
    /// Median events/second replaying the raw trace.
    pub raw_events_per_sec: f64,
    /// Median events/second detecting directly on the compressed form.
    pub compressed_events_per_sec: f64,
    /// Memoized rule applications in one compressed replay.
    pub memo_runs: u64,
    /// Memoization probes that fell back to expansion.
    pub memo_fallbacks: u64,
    /// Events whose annotation was skipped by memoization.
    pub skipped_events: u64,
    /// Whether raw and compressed replay produced byte-identical stats.
    pub matches: bool,
}

impl CompressedDetectorPerf {
    /// Raw / compressed size ratio (> 1 means compression pays).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes > 0 {
            self.raw_bytes as f64 / self.compressed_bytes as f64
        } else {
            1.0
        }
    }

    /// Compressed / raw replay throughput ratio (> 1 means the memoizing
    /// engine beats raw replay).
    pub fn speedup(&self) -> f64 {
        if self.raw_events_per_sec > 0.0 {
            self.compressed_events_per_sec / self.raw_events_per_sec
        } else {
            1.0
        }
    }
}

/// All compressed-trace measurements for one benchmark.
#[derive(Debug)]
pub struct CompressedBench {
    /// Benchmark name.
    pub name: &'static str,
    /// Per-configuration numbers, in [`DETECTORS`] order.
    pub detectors: Vec<CompressedDetectorPerf>,
}

impl CompressedBench {
    /// The run for a detector name.
    pub fn run(&self, name: &str) -> &CompressedDetectorPerf {
        self.detectors
            .iter()
            .find(|r| r.name == name)
            .expect("detector")
    }
}

/// Measures trace compression and compressed-replay throughput
/// (`repro perf --compressed`). Each configuration's program is recorded
/// once to a raw `BFTR` trace, compressed once, and then both forms are
/// replayed to verdicts. The numbers land in an
/// *additive* `compressed` section that the [`check_against_baseline`]
/// throughput gate never reads.
pub fn measure_compressed(name: &'static str, program: &Program, reps: usize) -> CompressedBench {
    let record_bytes = |p: &Program| -> (u64, Vec<u8>) {
        let mut writer = TraceWriter::new();
        run_vm(&compile(p), &mut writer);
        (writer.events(), writer.into_bytes())
    };
    let inst: Instrumented = instrument(program);
    let (rc_prog, rc_proxies) = redcard_instrument(program);
    let (raw_events, raw_trace) = record_bytes(program);
    let (rc_events, rc_trace) = record_bytes(&rc_prog);
    let (bf_events, bf_trace) = record_bytes(&inst.program);

    let obs_was_on = bigfoot_obs::enabled();
    bigfoot_obs::set_enabled(false);
    let mut detectors = Vec::new();
    for d in DETECTORS {
        let (events, trace): (u64, &[u8]) = match d {
            // The replay engine's FastTrack/SlimState configurations
            // check raw accesses, so the uninstrumented trace is theirs.
            "FT" | "SS" => (raw_events, &raw_trace),
            "RC" | "SC" => (rc_events, &rc_trace),
            _ => (bf_events, &bf_trace),
        };
        let config = match d {
            "FT" => ReplayConfig::fasttrack(1),
            "SS" => ReplayConfig::slimstate(1),
            "RC" => ReplayConfig::redcard(rc_proxies.clone(), 1),
            "SC" => ReplayConfig::slimcard(rc_proxies.clone(), 1),
            _ => ReplayConfig::bigfoot(inst.proxies.clone(), 1),
        };
        let packed = bigfoot_bfj::compress(trace).expect("compress");
        let raw_stats = replay_trace(trace, &config).expect("raw replay");
        let (comp_stats, memo) =
            replay_compressed_report(&packed, &config).expect("compressed replay");
        let matches = raw_stats.to_json().to_string_compact()
            == comp_stats.to_json().to_string_compact()
            && raw_stats.races == comp_stats.races;
        let raw_rate = end_to_end_rate(events, reps, || {
            std::hint::black_box(replay_trace(trace, &config).expect("raw replay"));
        });
        let comp_rate = end_to_end_rate(events, reps, || {
            std::hint::black_box(
                bigfoot_detectors::replay_compressed(&packed, &config).expect("compressed replay"),
            );
        });
        detectors.push(CompressedDetectorPerf {
            name: d,
            events,
            raw_bytes: trace.len() as u64,
            compressed_bytes: packed.len() as u64,
            raw_events_per_sec: raw_rate,
            compressed_events_per_sec: comp_rate,
            memo_runs: memo.memo_runs,
            memo_fallbacks: memo.memo_fallbacks,
            skipped_events: memo.skipped_events,
            matches,
        });
    }
    bigfoot_obs::set_enabled(obs_was_on);

    CompressedBench { name, detectors }
}

/// Cold vs warm incremental static-analysis cost for one benchmark —
/// the data behind the always-on `static_incremental` section of the
/// `repro perf` report.
#[derive(Debug, Clone)]
pub struct StaticIncrementalBench {
    /// Benchmark name.
    pub name: &'static str,
    /// Cacheable analysis sites (class methods plus `main`).
    pub sites: usize,
    /// Median cold analysis wall time (empty cache).
    pub cold_ns: u64,
    /// Median warm analysis wall time with an up-to-date cache (every
    /// site replays).
    pub warm_ns: u64,
    /// Median warm analysis wall time after a one-method arithmetic
    /// tweak (one site re-analyzes, the rest replay).
    pub edit_warm_ns: u64,
    /// Cache hits during the post-edit warm run.
    pub edit_hits: usize,
    /// Cache misses during the post-edit warm run.
    pub edit_misses: usize,
}

impl StaticIncrementalBench {
    /// Warm / cold wall-time ratio (< 1 means the cache pays).
    pub fn warm_over_cold(&self) -> f64 {
        if self.cold_ns > 0 {
            self.warm_ns as f64 / self.cold_ns as f64
        } else {
            1.0
        }
    }

    /// Fraction of sites skipped on the post-edit warm run.
    pub fn edit_skip_rate(&self) -> f64 {
        let total = self.edit_hits + self.edit_misses;
        if total > 0 {
            self.edit_hits as f64 / total as f64
        } else {
            0.0
        }
    }
}

/// Median of raw nanosecond samples.
fn median_ns(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Measures the incremental static pipeline on one benchmark: cold
/// analysis into an empty cache, warm re-analysis of the unchanged
/// program, and warm re-analysis after a single-method non-fact edit
/// (the evolving-program case the cache exists for). Uses a throwaway
/// cache directory under the system temp dir.
pub fn measure_static_incremental(
    name: &'static str,
    program: &Program,
    reps: usize,
) -> StaticIncrementalBench {
    let opts = InstrumentOptions::default();
    let dir = std::env::temp_dir().join(format!(
        "bigfoot-perf-inc-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));

    // Timed runs measure the bare pipeline, not metric plumbing.
    let obs_was_on = bigfoot_obs::enabled();
    bigfoot_obs::set_enabled(false);

    let reps = reps.max(1);
    let mut cold = Vec::with_capacity(reps);
    for _ in 0..reps {
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        std::hint::black_box(instrument_incremental(program, opts, &dir));
        cold.push(t0.elapsed().as_nanos() as u64);
    }

    // The last cold run left a fresh cache behind; snapshot its bytes so
    // the post-edit runs below can each start from the same warm state.
    let seeded = std::fs::read(dir.join(CACHE_FILE)).expect("cache written");
    let mut warm = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(instrument_incremental(program, opts, &dir));
        warm.push(t0.elapsed().as_nanos() as u64);
    }

    let mut edited = program.clone();
    mutate(&mut edited, 0, MutationKind::ArithTweak, 5).expect("benchmark has a method");
    let mut edit_warm = Vec::with_capacity(reps);
    let (mut edit_hits, mut edit_misses) = (0, 0);
    for _ in 0..reps {
        std::fs::write(dir.join(CACHE_FILE), &seeded).expect("replant cache");
        let t0 = Instant::now();
        let (_, stats) = instrument_incremental(&edited, opts, &dir);
        edit_warm.push(t0.elapsed().as_nanos() as u64);
        edit_hits = stats.hits;
        edit_misses = stats.misses;
    }
    let _ = std::fs::remove_dir_all(&dir);
    bigfoot_obs::set_enabled(obs_was_on);

    StaticIncrementalBench {
        name,
        sites: site_count(program),
        cold_ns: median_ns(cold),
        warm_ns: median_ns(warm),
        edit_warm_ns: median_ns(edit_warm),
        edit_hits,
        edit_misses,
    }
}

/// The `repro perf --json` report (the `BENCH.json` schema). The
/// `compiled` and `compressed` sections are additive: present only when
/// `--compiled` and `--compressed` ran.
/// The `static_incremental` section is always present. Of all these,
/// [`check_against_baseline`] never reads the numbers, but it does
/// require the baseline and the fresh report to carry the same set of
/// sections.
pub fn perf_json(
    results: &[PerfBench],
    incremental: &[StaticIncrementalBench],
    compiled: Option<&[CompiledBench]>,
    compressed: Option<&[CompressedBench]>,
    scale: &str,
    reps: usize,
) -> Json {
    let mut env = crate::report::envelope("perf", scale, reps);
    let mut arr = Json::array();
    for r in results {
        let mut b = Json::object();
        b.set("name", r.name);
        let mut stat = Json::object();
        stat.set("analysis_ms", r.static_obs.analysis_ns as f64 / 1e6);
        stat.set("entail_ms", r.static_obs.entail_ns as f64 / 1e6);
        stat.set("entail_share", r.static_obs.entail_share());
        stat.set("entail_queries", r.static_obs.entail_queries);
        crate::report::set_fm_fields(&mut stat, &r.static_obs);
        stat.set("entail_cache_hits", r.entail_cache_hits);
        stat.set("entail_cache_misses", r.entail_cache_misses);
        b.set("static", stat);
        let mut dets = Json::object();
        for d in &r.detectors {
            let mut o = Json::object();
            o.set("events", d.events);
            o.set("events_per_sec", d.events_per_sec);
            o.set("shadow_space_peak", d.shadow_space_peak);
            dets.set(d.name, o);
        }
        b.set("detectors", dets);
        arr.push(b);
    }
    env.set("benchmarks", arr);

    let mut summary = Json::object();
    let mut rates = Json::object();
    for d in DETECTORS {
        rates.set(d, geomean(results.iter().map(|r| r.run(d).events_per_sec)));
    }
    summary.set("events_per_sec_geomean", rates);
    let total = StaticObsStats::total(results.iter().map(|r| &r.static_obs));
    summary.set("static_analysis_ms", total.analysis_ns as f64 / 1e6);
    summary.set("entail_share", total.entail_share());
    let mut space = Json::object();
    for d in DETECTORS {
        space.set(
            d,
            results
                .iter()
                .map(|r| r.run(d).shadow_space_peak)
                .sum::<u64>(),
        );
    }
    summary.set("shadow_space_peak_total", space);
    env.set("summary", summary);

    {
        let mut inc = Json::object();
        let mut arr = Json::array();
        for r in incremental {
            let mut b = Json::object();
            b.set("name", r.name);
            b.set("sites", r.sites as u64);
            b.set("cold_ms", r.cold_ns as f64 / 1e6);
            b.set("warm_ms", r.warm_ns as f64 / 1e6);
            b.set("warm_over_cold", r.warm_over_cold());
            b.set("edit_warm_ms", r.edit_warm_ns as f64 / 1e6);
            b.set("edit_hits", r.edit_hits as u64);
            b.set("edit_misses", r.edit_misses as u64);
            b.set("edit_skip_rate", r.edit_skip_rate());
            arr.push(b);
        }
        inc.set("benchmarks", arr);
        let mut isummary = Json::object();
        let cold_ns: u64 = incremental.iter().map(|r| r.cold_ns).sum();
        let warm_ns: u64 = incremental.iter().map(|r| r.warm_ns).sum();
        let edit_ns: u64 = incremental.iter().map(|r| r.edit_warm_ns).sum();
        isummary.set("cold_ms", cold_ns as f64 / 1e6);
        isummary.set("warm_ms", warm_ns as f64 / 1e6);
        isummary.set(
            "warm_over_cold",
            if cold_ns > 0 {
                warm_ns as f64 / cold_ns as f64
            } else {
                1.0
            },
        );
        isummary.set("edit_warm_ms", edit_ns as f64 / 1e6);
        let hits: usize = incremental.iter().map(|r| r.edit_hits).sum();
        let total: usize = incremental
            .iter()
            .map(|r| r.edit_hits + r.edit_misses)
            .sum();
        isummary.set(
            "edit_skip_rate",
            if total > 0 {
                hits as f64 / total as f64
            } else {
                0.0
            },
        );
        inc.set("summary", isummary);
        env.set("static_incremental", inc);
    }

    if let Some(compiled) = compiled {
        let mut c = Json::object();
        let mut arr = Json::array();
        for r in compiled {
            let mut b = Json::object();
            b.set("name", r.name);
            b.set("steps", r.steps);
            b.set("interp_steps_per_sec", r.interp_steps_per_sec);
            b.set("compiled_steps_per_sec", r.compiled_steps_per_sec);
            b.set("uninstrumented_speedup", r.uninstrumented_speedup());
            b.set("events", r.events);
            b.set("interp_events_per_sec", r.interp_events_per_sec);
            b.set("compiled_events_per_sec", r.compiled_events_per_sec);
            b.set("instrumented_speedup", r.instrumented_speedup());
            arr.push(b);
        }
        c.set("benchmarks", arr);
        let mut csummary = Json::object();
        csummary.set(
            "interp_steps_per_sec_geomean",
            geomean(compiled.iter().map(|r| r.interp_steps_per_sec)),
        );
        csummary.set(
            "compiled_steps_per_sec_geomean",
            geomean(compiled.iter().map(|r| r.compiled_steps_per_sec)),
        );
        csummary.set(
            "uninstrumented_speedup_geomean",
            geomean(compiled.iter().map(|r| r.uninstrumented_speedup())),
        );
        csummary.set(
            "instrumented_speedup_geomean",
            geomean(compiled.iter().map(|r| r.instrumented_speedup())),
        );
        c.set("summary", csummary);
        env.set("compiled", c);
    }

    if let Some(compressed) = compressed {
        let mut c = Json::object();
        let mut arr = Json::array();
        for r in compressed {
            let mut b = Json::object();
            b.set("name", r.name);
            let mut dets = Json::object();
            for d in &r.detectors {
                let mut o = Json::object();
                o.set("events", d.events);
                o.set("raw_bytes", d.raw_bytes);
                o.set("compressed_bytes", d.compressed_bytes);
                o.set("ratio", d.ratio());
                o.set("raw_events_per_sec", d.raw_events_per_sec);
                o.set("compressed_events_per_sec", d.compressed_events_per_sec);
                o.set("speedup", d.speedup());
                o.set("memo_runs", d.memo_runs);
                o.set("memo_fallbacks", d.memo_fallbacks);
                o.set("skipped_events", d.skipped_events);
                o.set("matches", d.matches);
                dets.set(d.name, o);
            }
            b.set("detectors", dets);
            arr.push(b);
        }
        c.set("benchmarks", arr);
        let mut csummary = Json::object();
        let mut ratios = Json::object();
        let mut speedups = Json::object();
        for d in DETECTORS {
            ratios.set(d, geomean(compressed.iter().map(|r| r.run(d).ratio())));
            speedups.set(d, geomean(compressed.iter().map(|r| r.run(d).speedup())));
        }
        csummary.set("compression_ratio_geomean", ratios);
        csummary.set("speedup_geomean", speedups);
        csummary.set(
            "all_match",
            compressed
                .iter()
                .all(|r| r.detectors.iter().all(|d| d.matches)),
        );
        c.set("summary", csummary);
        env.set("compressed", c);
    }
    env
}

/// Compares a fresh `perf` report against a committed baseline: fails if
/// the two reports disagree on their top-level sections (in either
/// direction), or if any detector's `events_per_sec_geomean` dropped by
/// more than `tolerance` (a fraction, e.g. `0.25`). Returns
/// human-readable lines on success; `Err` lists the problems.
pub fn check_against_baseline(
    current: &Json,
    baseline: &Json,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    // Section drift first: a check run with different flags than the
    // baseline (or a stale baseline missing a newer section) silently
    // compares only what both sides happen to share — so demand the
    // exact same top-level key set before reading any numbers.
    fn keys(j: &Json) -> Vec<&str> {
        j.entries().iter().map(|(k, _)| k.as_str()).collect()
    }
    let missing: Vec<&str> = keys(baseline)
        .into_iter()
        .filter(|k| current.get(k).is_none())
        .collect();
    let extra: Vec<&str> = keys(current)
        .into_iter()
        .filter(|k| baseline.get(k).is_none())
        .collect();
    if !missing.is_empty() || !extra.is_empty() {
        let mut parts = Vec::new();
        if !missing.is_empty() {
            parts.push(format!(
                "baseline sections missing from this run: {}",
                missing.join(", ")
            ));
        }
        if !extra.is_empty() {
            parts.push(format!(
                "sections in this run but not the baseline: {}",
                extra.join(", ")
            ));
        }
        return Err(format!(
            "report sections diverge from the baseline — {} \
             (run the check with the same flags the baseline was generated \
             with, or refresh it; see docs/PERFORMANCE.md)",
            parts.join("; ")
        ));
    }
    let rate = |j: &Json, d: &str| -> Result<f64, String> {
        j.get("summary")
            .and_then(|s| s.get("events_per_sec_geomean"))
            .and_then(|r| r.get(d))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing summary.events_per_sec_geomean.{d}"))
    };
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for d in DETECTORS {
        let old = rate(baseline, d).map_err(|e| format!("baseline: {e}"))?;
        let new = rate(current, d).map_err(|e| format!("current: {e}"))?;
        let ratio = if old > 0.0 { new / old } else { 1.0 };
        let line = format!(
            "{d}: {:.3e} -> {:.3e} events/sec ({:+.1}%)",
            old,
            new,
            (ratio - 1.0) * 100.0
        );
        if ratio < 1.0 - tolerance {
            failures.push(line);
        } else {
            lines.push(line);
        }
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(format!(
            "throughput regressed beyond the {:.0}% tolerance:\n  {}\n\
             (to refresh the baseline intentionally, see docs/PERFORMANCE.md)",
            tolerance * 100.0,
            failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::check_against_baseline;
    use bigfoot_obs::json::{parse, Json};

    /// A minimal report: the envelope keys plus a rate summary, with an
    /// optional extra section.
    fn report(rate: f64, extra_section: Option<&str>) -> Json {
        let mut j = parse(&format!(
            r#"{{"schema_version": 2, "tool": "repro", "command": "perf",
                 "benchmarks": [],
                 "summary": {{"events_per_sec_geomean":
                   {{"FT": {rate}, "RC": {rate}, "SS": {rate}, "SC": {rate}, "BF": {rate}}}}}}}"#
        ))
        .expect("report json");
        if let Some(name) = extra_section {
            j.set(name, Json::object());
        }
        j
    }

    #[test]
    fn matching_reports_pass() {
        let lines = check_against_baseline(&report(1e6, None), &report(1e6, None), 0.25)
            .expect("within tolerance");
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn regressions_beyond_tolerance_fail() {
        let err = check_against_baseline(&report(0.5e6, None), &report(1e6, None), 0.25)
            .expect_err("50% drop must fail a 25% gate");
        assert!(err.contains("regressed"), "unexpected error: {err}");
    }

    #[test]
    fn a_section_missing_from_the_current_run_fails() {
        // Baseline was generated with --compiled --compressed, the check
        // ran bare: the compiled/compressed numbers silently vanish unless
        // the gate demands section parity.
        let err = check_against_baseline(&report(1e6, None), &report(1e6, Some("compiled")), 0.25)
            .expect_err("missing section must fail");
        assert!(
            err.contains("missing from this run") && err.contains("compiled"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn a_section_missing_from_the_baseline_fails_too() {
        // The other direction: a stale baseline that predates a newer
        // additive section must be refreshed, not silently accepted.
        let err = check_against_baseline(&report(1e6, Some("compiled")), &report(1e6, None), 0.25)
            .expect_err("extra section must fail");
        assert!(
            err.contains("not the baseline") && err.contains("compiled"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn section_drift_is_reported_in_both_directions_at_once() {
        let err = check_against_baseline(
            &report(1e6, Some("compressed")),
            &report(1e6, Some("compiled")),
            0.25,
        )
        .expect_err("section mismatch must fail");
        assert!(err.contains("compressed") && err.contains("compiled"));
    }
}
