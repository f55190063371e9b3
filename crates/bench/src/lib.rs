//! Measurement harness shared by the `repro` binary and the criterion
//! benches: runs every detector configuration of the paper over a
//! benchmark program and collects timing, operation counts, and space.
//!
//! Every program runs on the compiled tier: it is lowered once with
//! [`compile()`], outside any timed region, and executed on [`CompiledVm`].

use bigfoot::{instrument, instrument_with, redcard_instrument, InstrumentOptions, Instrumented};
use bigfoot_bfj::{
    compile, trace::TraceWriter, CompiledProgram, CompiledVm, EventSink, NullSink, Program,
    RunOutcome, SchedPolicy,
};
use bigfoot_detectors::{replay_trace, Detector, ReplayConfig, Stats, TraceReader};
use std::time::{Duration, Instant};

pub mod perf;
pub mod report;

/// The detector configurations of Fig. 2, in presentation order.
pub const DETECTORS: [&str; 5] = ["FT", "RC", "SS", "SC", "BF"];

/// One detector's measurements on one benchmark.
#[derive(Debug, Clone)]
pub struct DetectorRun {
    /// Short name (FT/RC/SS/SC/BF).
    pub name: &'static str,
    /// Wall-clock time of the monitored run.
    pub time: Duration,
    /// Detector statistics.
    pub stats: Stats,
}

impl DetectorRun {
    /// Overhead versus the base time (CheckerTime − BaseTime), in
    /// multiples of the base time.
    pub fn overhead(&self, base: Duration) -> f64 {
        (self.time.as_secs_f64() - base.as_secs_f64()).max(0.0) / base.as_secs_f64().max(1e-9)
    }

    /// An architecture-independent cost model: one unit per shadow
    /// operation, a third per footprint insertion, a tenth per check
    /// dispatch, and three per synchronization operation (vector-clock
    /// joins). Used to cross-check the wall-clock numbers.
    pub fn model_cost(&self) -> f64 {
        self.stats.shadow_ops as f64
            + self.stats.footprint_ops as f64 / 3.0
            + self.stats.checks as f64 / 10.0
            + self.stats.sync_ops as f64 * 3.0
    }
}

/// Observability-derived static-analysis measurements: how much of the
/// StaticBF wall time went to the entailment engine (§6.1). Captured as a
/// snapshot delta around the `instrument` call in [`measure`]; all zero
/// when `bigfoot-obs` collection is disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticObsStats {
    /// Total `static.instrument` span time, ns.
    pub analysis_ns: u64,
    /// Total outermost `entail.query` time, ns.
    pub entail_ns: u64,
    /// Entailment queries issued (all `entail.query.*` counters).
    pub entail_queries: u64,
    /// Independent components Fourier–Motzkin ran over
    /// (`entail.fm.components`).
    pub fm_components: u64,
    /// Rows Fourier–Motzkin runs started from (`entail.fm.rows`).
    pub fm_rows: u64,
    /// Refutations that fell back to FM over all rows
    /// (`entail.fm.fallbacks`).
    pub fm_fallbacks: u64,
}

impl StaticObsStats {
    /// The delta between two snapshots taken around an analysis.
    pub fn between(
        before: &bigfoot_obs::Snapshot,
        after: &bigfoot_obs::Snapshot,
    ) -> StaticObsStats {
        let counter = |name: &str| after.counter(name) - before.counter(name);
        StaticObsStats {
            analysis_ns: after.timer_total("static.instrument")
                - before.timer_total("static.instrument"),
            entail_ns: after.timer_total("entail.query") - before.timer_total("entail.query"),
            entail_queries: after.counter_total("entail.query.")
                - before.counter_total("entail.query."),
            fm_components: counter("entail.fm.components"),
            fm_rows: counter("entail.fm.rows"),
            fm_fallbacks: counter("entail.fm.fallbacks"),
        }
    }

    /// The field-wise sum over several analyses.
    pub fn total<'a>(all: impl IntoIterator<Item = &'a StaticObsStats>) -> StaticObsStats {
        all.into_iter()
            .fold(StaticObsStats::default(), |acc, s| StaticObsStats {
                analysis_ns: acc.analysis_ns + s.analysis_ns,
                entail_ns: acc.entail_ns + s.entail_ns,
                entail_queries: acc.entail_queries + s.entail_queries,
                fm_components: acc.fm_components + s.fm_components,
                fm_rows: acc.fm_rows + s.fm_rows,
                fm_fallbacks: acc.fm_fallbacks + s.fm_fallbacks,
            })
    }

    /// Fraction of analysis wall time spent in the entailment engine.
    pub fn entail_share(&self) -> f64 {
        if self.analysis_ns == 0 {
            0.0
        } else {
            self.entail_ns as f64 / self.analysis_ns as f64
        }
    }
}

/// All measurements for one benchmark.
#[derive(Debug)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Wall-clock base (uninstrumented, no detector) time.
    pub base_time: Duration,
    /// Base heap cells (Table 2 denominator).
    pub heap_cells: u64,
    /// Static-analysis statistics for the BigFoot instrumentation.
    pub static_stats: bigfoot::AnalysisStats,
    /// Entailment-engine share of the analysis, from `bigfoot-obs` spans.
    pub static_obs: StaticObsStats,
    /// Per-detector runs, in [`DETECTORS`] order.
    pub runs: Vec<DetectorRun>,
}

impl BenchResult {
    /// The run for a detector name.
    pub fn run(&self, name: &str) -> &DetectorRun {
        self.runs.iter().find(|r| r.name == name).expect("detector")
    }
}

/// Runs a lowered program once on the compiled VM under the default
/// schedule, streaming its events into `sink`.
fn run_vm<S: EventSink>(program: &CompiledProgram, sink: &mut S) -> RunOutcome {
    CompiledVm::new(program, SchedPolicy::default())
        .run(sink)
        .expect("run")
}

/// Wall time of one run of the lowered `program` into `make_sink`'s
/// detector (or into `NullSink` for `None`), with the detector's stats.
fn run_once<F: FnMut() -> Option<Detector>>(
    program: &CompiledProgram,
    make_sink: &mut F,
) -> (Duration, Option<Stats>) {
    match make_sink() {
        None => {
            let t0 = Instant::now();
            run_vm(program, &mut NullSink);
            (t0.elapsed(), None)
        }
        Some(mut det) => {
            let t0 = Instant::now();
            run_vm(program, &mut det);
            let dt = t0.elapsed();
            (dt, Some(det.finish()))
        }
    }
}

/// Per-run wall time for running the lowered `program` into
/// `make_sink`'s detector (or `None` for the base run): the median of
/// `reps` samples, each the mean of as many whole runs as fill
/// `min_sample` (at least one), as [`perf`] samples detection. Returns
/// the calibration run's stats.
fn timed<F: FnMut() -> Option<Detector>>(
    program: &CompiledProgram,
    reps: usize,
    min_sample: Duration,
    mut make_sink: F,
) -> (Duration, Option<Stats>) {
    let (once, stats) = run_once(program, &mut make_sink);
    let iters = (min_sample.as_nanos() / once.as_nanos().max(1)).clamp(1, 10_000) as u32;
    let mut times: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let total: Duration = (0..iters)
                .map(|_| run_once(program, &mut make_sink).0)
                .sum();
            total / iters
        })
        .collect();
    times.sort();
    (times[times.len() / 2], stats)
}

/// Runs the full detector matrix over one benchmark program.
///
/// Every detector is charged for the events it consumes, as `bfc check`
/// and perfbench run it: FastTrack and SlimState check the raw access
/// events of the uninstrumented program (RoadRunner's one callback per
/// access), RedCard/SlimCard run the RedCard-instrumented program, and
/// BigFoot runs the BigFoot-instrumented program. Overheads are all
/// relative to the uninstrumented base run.
pub fn measure(name: &'static str, program: &Program, reps: usize) -> BenchResult {
    measure_sampled(name, program, reps, perf::MIN_SAMPLE)
}

fn measure_sampled(
    name: &'static str,
    program: &Program,
    reps: usize,
    min_sample: Duration,
) -> BenchResult {
    let snap0 = bigfoot_obs::snapshot();
    let inst: Instrumented = instrument(program);
    let snap1 = bigfoot_obs::snapshot();
    let static_obs = StaticObsStats::between(&snap0, &snap1);
    let (rc_prog, rc_proxies) = redcard_instrument(program);
    let base = compile(program);
    let rc_prog = compile(&rc_prog);
    let bf_prog = compile(&inst.program);

    let (base_time, _) = timed(&base, reps, min_sample, || None);
    let heap_cells = run_vm(&base, &mut NullSink).heap_cells;

    let matrix: [(&'static str, &CompiledProgram, &dyn Fn() -> Detector); 5] = [
        ("FT", &base, &Detector::fasttrack),
        ("RC", &rc_prog, &|| Detector::redcard(rc_proxies.clone())),
        ("SS", &base, &Detector::slimstate),
        ("SC", &rc_prog, &|| Detector::slimcard(rc_proxies.clone())),
        ("BF", &bf_prog, &|| Detector::bigfoot(inst.proxies.clone())),
    ];
    let runs = matrix
        .into_iter()
        .map(|(name, prog, make)| {
            let (time, stats) = timed(prog, reps, min_sample, || Some(make()));
            DetectorRun {
                name,
                time,
                stats: stats.expect("detector stats"),
            }
        })
        .collect();

    BenchResult {
        name,
        base_time,
        heap_cells,
        static_stats: inst.stats,
        static_obs,
        runs,
    }
}

/// One ablation configuration of the static analysis.
pub const ABLATIONS: [(&str, InstrumentOptions); 5] = [
    (
        "full",
        InstrumentOptions {
            anticipation: true,
            coalescing: true,
            loop_invariants: true,
            field_proxies: true,
        },
    ),
    (
        "-anticipation",
        InstrumentOptions {
            anticipation: false,
            coalescing: true,
            loop_invariants: true,
            field_proxies: true,
        },
    ),
    (
        "-coalescing",
        InstrumentOptions {
            anticipation: true,
            coalescing: false,
            loop_invariants: true,
            field_proxies: true,
        },
    ),
    (
        "-loop-motion",
        InstrumentOptions {
            anticipation: true,
            coalescing: true,
            loop_invariants: false,
            field_proxies: true,
        },
    ),
    (
        "-proxies",
        InstrumentOptions {
            anticipation: true,
            coalescing: true,
            loop_invariants: true,
            field_proxies: false,
        },
    ),
];

/// Runs the BigFoot detector under one ablation configuration and returns
/// (wall time, stats).
pub fn measure_ablation(program: &Program, options: InstrumentOptions, reps: usize) -> DetectorRun {
    let inst = instrument_with(program, options);
    let (t, s) = timed(&compile(&inst.program), reps, perf::MIN_SAMPLE, || {
        Some(Detector::bigfoot(inst.proxies.clone()))
    });
    DetectorRun {
        name: "BF",
        time: t,
        stats: s.expect("stats"),
    }
}

/// Geometric mean of positive values (zeroes clamped to a small epsilon,
/// as overheads of 0 would otherwise collapse the mean).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.max(1e-3).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Arithmetic mean.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// A pure-detector measurement that runs each program of the matrix
/// once, with no minimum sample time, for its statistics — cheap enough
/// for tests. Its times are single runs.
pub fn stats_only(name: &'static str, program: &Program) -> BenchResult {
    measure_sampled(name, program, 1, Duration::ZERO)
}

/// One worker count's replay measurement.
#[derive(Debug, Clone)]
pub struct ReplayRun {
    /// Worker threads used.
    pub workers: usize,
    /// Median wall time of the replay detection stage.
    pub time: Duration,
    /// True if the replay's stats and races are bit-identical to the
    /// serial detector's over the same trace (they must be).
    pub matches_serial: bool,
}

/// Record-once/replay-many measurements for one benchmark under the
/// BigFoot detector configuration.
#[derive(Debug)]
pub struct ReplayResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Serialized trace size, bytes.
    pub trace_bytes: u64,
    /// Events in the trace.
    pub trace_events: u64,
    /// Wall time of the recording run (VM + trace encoding).
    pub record_time: Duration,
    /// Median wall time of serial detection over the recorded trace.
    pub serial_time: Duration,
    /// Serial detection statistics (the reference verdicts).
    pub serial_stats: Stats,
    /// Parallel replay runs, one per requested worker count.
    pub replays: Vec<ReplayRun>,
}

impl ReplayResult {
    /// True if every worker count reproduced the serial verdicts exactly.
    pub fn all_match(&self) -> bool {
        self.replays.iter().all(|r| r.matches_serial)
    }
}

/// True if two stats blocks are bit-identical (races and every counter,
/// via the stable JSON serialization).
pub fn stats_identical(a: &Stats, b: &Stats) -> bool {
    a.races == b.races && a.to_json().to_string_compact() == b.to_json().to_string_compact()
}

/// Records one benchmark run to a trace, then measures serial detection
/// and sharded parallel replay over it at each worker count (median of
/// `reps`), verifying that every replay reproduces the serial verdicts.
///
/// Uses the BigFoot detector configuration (instrumented program +
/// proxies), the paper's headline detector.
pub fn measure_replay(
    name: &'static str,
    program: &Program,
    workers: &[usize],
    reps: usize,
) -> ReplayResult {
    let inst: Instrumented = instrument(program);
    let lowered = compile(&inst.program);

    let t0 = Instant::now();
    let mut writer = TraceWriter::new();
    run_vm(&lowered, &mut writer);
    let record_time = t0.elapsed();
    let trace_events = writer.events();
    let bytes = writer.into_bytes();

    let mut serial_times = Vec::with_capacity(reps);
    let mut serial_stats = None;
    for _ in 0..reps.max(1) {
        let mut det = Detector::bigfoot(inst.proxies.clone());
        let t0 = Instant::now();
        for ev in TraceReader::new(&bytes).expect("trace header") {
            det.event(&ev.expect("trace event"));
        }
        let stats = det.finish();
        serial_times.push(t0.elapsed());
        serial_stats = Some(stats);
    }
    serial_times.sort();
    let serial_time = serial_times[serial_times.len() / 2];
    let serial_stats = serial_stats.expect("serial stats");

    let replays = workers
        .iter()
        .map(|&w| {
            let config = ReplayConfig::bigfoot(inst.proxies.clone(), w);
            let mut times = Vec::with_capacity(reps);
            let mut matches = true;
            for _ in 0..reps.max(1) {
                let t0 = Instant::now();
                let stats = replay_trace(&bytes, &config).expect("replay");
                times.push(t0.elapsed());
                matches &= stats_identical(&stats, &serial_stats);
            }
            times.sort();
            ReplayRun {
                workers: w,
                time: times[times.len() / 2],
                matches_serial: matches,
            }
        })
        .collect();

    ReplayResult {
        name,
        trace_bytes: bytes.len() as u64,
        trace_events,
        record_time,
        serial_time,
        serial_stats,
        replays,
    }
}
