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
    /// Times a StaticBF budget fired and quietly weakened placement (all
    /// `static.budget.*` counters: the FM atom gate and row cap, dropped
    /// bool and alias facts, exhausted loop fixpoints).
    pub budget_hits: u64,
    /// Check paths the ownership pass deleted
    /// (`static.ownership.paths_removed.*`).
    pub ownership_paths_removed: u64,
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
            budget_hits: after.counter_total("static.budget.")
                - before.counter_total("static.budget."),
            ownership_paths_removed: after.counter_total("static.ownership.paths_removed.")
                - before.counter_total("static.ownership.paths_removed."),
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
                budget_hits: acc.budget_hits + s.budget_hits,
                ownership_paths_removed: acc.ownership_paths_removed + s.ownership_paths_removed,
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

/// One timed configuration: a lowered program and the detector it feeds
/// (`None` for the base run into `NullSink`).
type Config<'a> = (&'a CompiledProgram, &'a dyn Fn() -> Option<Detector>);

/// Per-run wall time of each configuration: the median of `reps`
/// samples, each the mean of as many whole runs as fill `min_sample` (at
/// least one), as [`perf`] samples detection. The samples are
/// interleaved: each rep takes one sample of every configuration in
/// turn, so the base run and the detectors see the same moments of a
/// shared host. Returns each configuration's calibration-run stats.
fn timed(
    configs: &[Config<'_>],
    reps: usize,
    min_sample: Duration,
) -> Vec<(Duration, Option<Stats>)> {
    let calibration: Vec<(u32, Option<Stats>)> = configs
        .iter()
        .map(|(prog, make)| {
            let (once, stats) = run_once(prog, &mut || make());
            let iters = (min_sample.as_nanos() / once.as_nanos().max(1)).clamp(1, 10_000) as u32;
            (iters, stats)
        })
        .collect();
    let mut times: Vec<Vec<Duration>> = vec![Vec::with_capacity(reps); configs.len()];
    for _ in 0..reps.max(1) {
        for (((prog, make), (iters, _)), samples) in
            configs.iter().zip(&calibration).zip(&mut times)
        {
            let total: Duration = (0..*iters).map(|_| run_once(prog, &mut || make()).0).sum();
            samples.push(total / *iters);
        }
    }
    times
        .into_iter()
        .zip(calibration)
        .map(|(mut t, (_, stats))| {
            t.sort();
            (t[t.len() / 2], stats)
        })
        .collect()
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

    let heap_cells = run_vm(&base, &mut NullSink).heap_cells;

    let names = ["FT", "RC", "SS", "SC", "BF"];
    let configs: [Config<'_>; 6] = [
        (&base, &|| None),
        (&base, &|| Some(Detector::fasttrack())),
        (&rc_prog, &|| Some(Detector::redcard(rc_proxies.clone()))),
        (&base, &|| Some(Detector::slimstate())),
        (&rc_prog, &|| Some(Detector::slimcard(rc_proxies.clone()))),
        (&bf_prog, &|| Some(Detector::bigfoot(inst.proxies.clone()))),
    ];
    let mut timings = timed(&configs, reps, min_sample).into_iter();
    let (base_time, _) = timings.next().expect("base run");
    let runs = names
        .into_iter()
        .zip(timings)
        .map(|(name, (time, stats))| DetectorRun {
            name,
            time,
            stats: stats.expect("detector stats"),
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

/// The ablation configurations of the static analysis. `full` is the
/// default; `-ownership` turns off the ownership pass, which goes beyond
/// the paper, leaving the paper's own placement; the other rows each
/// disable one of the paper's ingredients from that placement, so they
/// read against `-ownership` as the paper's ablation reads against its
/// full BigFoot.
pub const ABLATIONS: [(&str, InstrumentOptions); 6] = [
    ("full", FULL),
    ("-ownership", PAPER),
    (
        "-anticipation",
        InstrumentOptions {
            anticipation: false,
            ..PAPER
        },
    ),
    (
        "-coalescing",
        InstrumentOptions {
            coalescing: false,
            ..PAPER
        },
    ),
    (
        "-loop-motion",
        InstrumentOptions {
            loop_invariants: false,
            ..PAPER
        },
    ),
    (
        "-proxies",
        InstrumentOptions {
            field_proxies: false,
            ..PAPER
        },
    ),
];

/// Every ingredient on (`InstrumentOptions::default()`, in a `const`).
const FULL: InstrumentOptions = InstrumentOptions {
    anticipation: true,
    coalescing: true,
    loop_invariants: true,
    field_proxies: true,
    ownership: true,
};

/// The paper's placement: every ingredient but the ownership pass.
const PAPER: InstrumentOptions = InstrumentOptions {
    ownership: false,
    ..FULL
};

/// Runs the BigFoot detector under one ablation configuration and returns
/// (wall time, stats).
pub fn measure_ablation(program: &Program, options: InstrumentOptions, reps: usize) -> DetectorRun {
    let inst = instrument_with(program, options);
    let lowered = compile(&inst.program);
    let make = || Some(Detector::bigfoot(inst.proxies.clone()));
    let (t, s) = timed(&[(&lowered, &make)], reps, perf::MIN_SAMPLE)
        .pop()
        .expect("one configuration");
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
