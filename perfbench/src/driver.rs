//! The closed-loop driver every workload shares: set-up, whole passes in
//! a seeded order, known-answer checks outside the timed op, and the
//! end-to-end metrics.

use crate::layers;
use crate::ledger::{self, Tracer};
use crate::stats::{self, Rng};
use crate::{check_suite, recheck_edits, replay_suite};
use bigfoot_detectors::Stats;
use bigfoot_obs::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

macro_rules! counts {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Deterministic work counts of one op, summed over a phase.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct Counts {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counts {
            /// Adds `other` field by field.
            pub fn add(&mut self, other: &Counts) {
                $(self.$field += other.$field;)*
            }

            /// The counts as a JSON object.
            pub fn to_json(&self) -> Json {
                let mut j = Json::object();
                $(j.set(stringify!($field), self.$field);)*
                j
            }

            /// Reads [`Counts::to_json`] back; absent fields read 0.
            pub fn from_json(j: &Json) -> Counts {
                Counts {
                    $($field: j.get(stringify!($field)).and_then(Json::as_u64).unwrap_or(0),)*
                }
            }
        }
    };
}

counts! {
    /// BFJ source bytes parsed.
    source_bytes,
    /// Methods analyzed by StaticBF (including `main`).
    methods,
    /// `check` statements in the instrumented program.
    checks_inserted,
    /// Placement-cache sites replayed.
    cache_hits,
    /// Placement-cache sites analyzed from scratch.
    cache_misses,
    /// Placement caches found malformed.
    cache_invalid,
    /// Compiled VM instructions produced by lowering.
    instrs,
    /// VM steps executed.
    steps,
    /// Accesses, checks and sync operations the detector processed.
    events,
    /// Check operations processed.
    checks,
    /// Heap accesses observed.
    accesses,
    /// Shadow-location check-and-update operations.
    shadow_ops,
    /// Footprint insertions.
    footprint_ops,
    /// Synchronization operations processed.
    sync_ops,
    /// Peak shadow space, in clock-entry units.
    shadow_space_peak,
    /// Events replayed from raw `BFTR` traces.
    replay_events,
    /// Events in replayed `BFTC` containers.
    creplay_events,
    /// `BFTC` events skipped by memoized rule runs.
    creplay_skipped,
    /// `BFTC` rule runs that fell back to plain expansion.
    creplay_fallbacks,
    /// Events recorded into `BFTR` traces.
    trace_events,
    /// Bytes of recorded `BFTR` traces.
    trace_bytes,
    /// `BFTR` bytes the `BFTC`-recorded runs would have taken.
    bftc_raw_bytes,
    /// Bytes of recorded `BFTC` containers.
    bftc_bytes,
}

impl Counts {
    /// The detector counters of one run.
    pub fn from_stats(s: &Stats) -> Counts {
        Counts {
            events: s.accesses() + s.checks + s.sync_ops,
            checks: s.checks,
            accesses: s.accesses(),
            shadow_ops: s.shadow_ops,
            footprint_ops: s.footprint_ops,
            sync_ops: s.sync_ops,
            shadow_space_peak: s.shadow_space_peak,
            ..Counts::default()
        }
    }
}

/// What one op produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The verdict: true if a race was reported.
    pub racy: bool,
    /// Work done by the op.
    pub counts: Counts,
}

/// The traced run's extra measurements for one op's program: runs into
/// `NullSink` and into FastTrack give the Fig. 2 ratios, and a plain and a
/// cold incremental analysis of the same program give the cache's cold
/// cost. Times are nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Extras {
    /// Uninstrumented program into `NullSink`.
    pub base_ns: u64,
    /// Instrumented program into `NullSink`.
    pub instrumented_ns: u64,
    /// Uninstrumented program into `Detector::fasttrack`.
    pub fasttrack_ns: u64,
    /// Instrumented program into `Detector::bigfoot`.
    pub bigfoot_ns: u64,
    /// BigFoot checks per access.
    pub check_ratio: f64,
    /// Plain `instrument`, when measured.
    pub plain_static_ns: Option<u64>,
    /// Cold `instrument_incremental` into an empty cache, when measured.
    pub cold_cache_ns: Option<u64>,
}

/// One workload: its inputs and the timed call chain of one op.
pub trait Workload {
    /// The inputs' names, one op per input per pass.
    fn inputs(&self) -> &[String];
    /// A description of the op on `input` in `pass` (the input name, plus
    /// the edit where there is one).
    fn label(&self, input: usize, _pass: u64) -> String {
        self.inputs()[input].clone()
    }
    /// Runs the timed op. Artifacts the known answer or the extras need
    /// are kept until [`Workload::release`].
    fn op(&mut self, input: usize, pass: u64, tr: &mut Tracer) -> Result<Outcome, String>;
    /// The known answer for the last op, from a source other than BigFoot.
    fn known_answer(&mut self, input: usize) -> Result<bool, String>;
    /// The traced run's extra measurements for the last op, if the
    /// workload has any.
    fn extras(&mut self, _input: usize) -> Result<Option<Extras>, String> {
        Ok(None)
    }
    /// Puts `input`'s on-disk state back as set-up left it, outside the
    /// timed op.
    fn prepare(&mut self, _input: usize) -> Result<(), String> {
        Ok(())
    }
    /// Drops the last op's artifacts, outside the timed op.
    fn release(&mut self) {}
    /// Work done during set-up.
    fn setup_counts(&self) -> Counts;
}

/// The end-to-end metrics, with their units, in the order printed.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_best_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["check-suite", "recheck-edits", "replay-suite"];

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Workload seed: input order, edit salts.
    pub seed: u64,
    /// Seconds the timed phase lasts (whole passes, at least `min_ops`).
    pub seconds: f64,
    /// Run the traced per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// Scratch directory for the workloads' on-disk state and the span
    /// dump.
    pub work_dir: PathBuf,
    /// The benchmark executable, started once per timed pass.
    pub exe: PathBuf,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Run exactly this many timed passes instead of `seconds`.
    pub passes: Option<u64>,
    /// Fewest timed ops, so that at least ten lie beyond the p95.
    pub min_ops: usize,
    /// Flip every verdict on this input (self-tests of the known-answer
    /// check).
    pub flip_input: Option<usize>,
}

impl Config {
    /// Settings for one command-line run.
    pub fn new(
        workload: &str,
        seed: u64,
        seconds: f64,
        trace: bool,
        work_dir: PathBuf,
        exe: PathBuf,
    ) -> Config {
        Config {
            workload: workload.to_owned(),
            seed,
            seconds,
            trace,
            work_dir,
            exe,
            setups: 5,
            passes: None,
            min_ops: 200,
            flip_input: None,
        }
    }

    /// The directory for this run's on-disk state (placement caches,
    /// recorded traces), which the pass processes share.
    pub fn state_dir(&self) -> PathBuf {
        self.work_dir
            .join(format!("{}-seed{}", self.workload, self.seed))
    }
}

/// One phase of timed passes.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Op latencies in ms, per input.
    pub per_input: Vec<Vec<f64>>,
    /// Op latencies in ms, in op order.
    pub all: Vec<f64>,
    /// Ops attempted.
    pub ops: u64,
    /// Ops that errored or disagreed with the known answer.
    pub failed: u64,
    /// Whole passes run.
    pub passes: u64,
    /// Work counts summed over the ops.
    pub counts: Counts,
    /// The op sequence, as labels.
    pub labels: Vec<String>,
    /// Deltas of the in-library counters over the ops alone.
    pub obs: BTreeMap<String, u64>,
    /// Extra measurements per input.
    pub extras: Vec<Vec<Extras>>,
    /// Racy verdicts per input.
    pub racy: Vec<u64>,
}

impl Phase {
    /// Each input's fastest op, in ms.
    pub fn best(&self) -> Vec<f64> {
        self.per_input
            .iter()
            .map(|xs| xs.iter().copied().fold(f64::INFINITY, f64::min))
            .filter(|x| x.is_finite())
            .collect()
    }

    /// Verdicts per second of a pass run at every input's fastest latency.
    pub fn verdicts_per_s(&self) -> f64 {
        let pass_ms: f64 = self.best().iter().sum();
        if pass_ms > 0.0 {
            self.per_input.len() as f64 / (pass_ms / 1e3)
        } else {
            0.0
        }
    }

    /// The raw samples of one pass, as a pass process prints them.
    fn to_json(&self, rss_mb: f64) -> Json {
        let nums = |xs: &[f64]| {
            let mut a = Json::array();
            for x in xs {
                a.push(*x);
            }
            a
        };
        let mut per_input = Json::array();
        for xs in &self.per_input {
            per_input.push(nums(xs));
        }
        let mut racy = Json::array();
        for r in &self.racy {
            racy.push(*r);
        }
        let mut labels = Json::array();
        for l in &self.labels {
            labels.push(l.as_str());
        }
        let mut out = Json::object();
        out.set("per_input", per_input);
        out.set("all", nums(&self.all));
        out.set("ops", self.ops);
        out.set("failed", self.failed);
        out.set("racy", racy);
        out.set("labels", labels);
        out.set("counts", self.counts.to_json());
        out.set("rss_mb", rss_mb);
        out
    }

    /// Adds the samples of one pass process.
    fn merge(&mut self, j: &Json) -> Result<(), String> {
        let field = |k: &str| j.get(k).ok_or(format!("pass result lacks `{k}`"));
        let nums = |a: &Json| {
            a.items()
                .iter()
                .filter_map(Json::as_f64)
                .collect::<Vec<_>>()
        };
        let per_input = field("per_input")?.items();
        if self.passes == 0 {
            self.per_input = vec![Vec::new(); per_input.len()];
            self.racy = vec![0; per_input.len()];
        }
        if per_input.len() != self.per_input.len() {
            return Err("pass results disagree on the input count".into());
        }
        for (mine, theirs) in self.per_input.iter_mut().zip(per_input) {
            mine.extend(nums(theirs));
        }
        for (mine, r) in self.racy.iter_mut().zip(nums(field("racy")?)) {
            *mine += r as u64;
        }
        self.all.extend(nums(field("all")?));
        self.ops += field("ops")?.as_u64().unwrap_or(0);
        self.failed += field("failed")?.as_u64().unwrap_or(0);
        self.counts.add(&Counts::from_json(field("counts")?));
        let labels = field("labels")?.items();
        self.labels
            .extend(labels.iter().filter_map(|l| l.as_str().map(str::to_owned)));
        self.passes += 1;
        Ok(())
    }
}

struct PhaseSpec {
    first_pass: u64,
    min_seconds: f64,
    min_passes: u64,
    max_passes: Option<u64>,
    min_ops: usize,
    extras: bool,
    observe: bool,
}

fn one_pass(pass: u64) -> PhaseSpec {
    PhaseSpec {
        first_pass: pass,
        min_seconds: 0.0,
        min_passes: 1,
        max_passes: Some(1),
        min_ops: 0,
        extras: false,
        observe: false,
    }
}

/// The current value of every in-library counter.
fn obs_counters() -> BTreeMap<String, u64> {
    bigfoot_obs::snapshot()
        .counters
        .into_iter()
        .map(|c| (c.name, c.value))
        .collect()
}

/// Adds `after - before` into `into`, counter by counter.
fn add_delta(
    into: &mut BTreeMap<String, u64>,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) {
    for (k, v) in after {
        let d = v.saturating_sub(before.get(k).copied().unwrap_or(0));
        if d > 0 {
            *into.entry(k.clone()).or_default() += d;
        }
    }
}

fn run_phase(
    w: &mut dyn Workload,
    cfg: &Config,
    spec: PhaseSpec,
    tr: &mut Tracer,
) -> Result<Phase, String> {
    let n = w.inputs().len();
    let mut ph = Phase {
        per_input: vec![Vec::new(); n],
        extras: vec![Vec::new(); n],
        racy: vec![0; n],
        ..Phase::default()
    };
    let started = Instant::now();
    let mut pass = spec.first_pass;
    loop {
        let order = Rng::new(cfg.seed, 0x0bde_7000, pass).permutation(n);
        for (pos, input) in order.into_iter().enumerate() {
            w.prepare(input)?;
            let before = spec.observe.then(obs_counters);
            let t0 = Instant::now();
            tr.begin_op(pass * n as u64 + pos as u64, t0);
            let out = w.op(input, pass, tr);
            let t1 = Instant::now();
            tr.end_op(t1);
            if let Some(before) = before {
                add_delta(&mut ph.obs, &before, &obs_counters());
            }
            let ms = t1.duration_since(t0).as_nanos() as f64 / 1e6;
            ph.per_input[input].push(ms);
            ph.all.push(ms);
            ph.ops += 1;
            let label = w.label(input, pass);
            let verdict = out.and_then(|o| {
                ph.counts.add(&o.counts);
                ph.racy[input] += o.racy as u64;
                let expected = w.known_answer(input)?;
                let racy = o.racy != (cfg.flip_input == Some(input));
                if racy == expected {
                    Ok(())
                } else {
                    Err(format!("verdict racy={racy}, known answer racy={expected}"))
                }
            });
            if let Err(e) = verdict {
                ph.failed += 1;
                eprintln!(
                    "perfbench: FAILED op: workload {} seed {} pass {pass} op {label}: {e}",
                    cfg.workload, cfg.seed
                );
            }
            if spec.extras {
                if let Some(x) = w.extras(input)? {
                    ph.extras[input].push(x);
                }
            }
            w.release();
            ph.labels.push(label);
        }
        pass += 1;
        ph.passes += 1;
        let done = match spec.max_passes {
            Some(m) => ph.passes >= m,
            None => {
                started.elapsed().as_secs_f64() >= spec.min_seconds
                    && ph.passes >= spec.min_passes
                    && ph.all.len() >= spec.min_ops
            }
        };
        if done {
            return Ok(ph);
        }
    }
}

/// Opens the workload: `fresh` sets it up from nothing (generating,
/// parsing, warming caches, recording traces) and stores its on-disk
/// state; otherwise it attaches to the state an earlier set-up stored.
fn open_workload(cfg: &Config, tr: &mut Tracer, fresh: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match (cfg.workload.as_str(), fresh) {
        ("check-suite", _) => Box::new(check_suite::CheckSuite::setup(cfg)?),
        ("recheck-edits", true) => Box::new(recheck_edits::RecheckEdits::setup(cfg, tr)?),
        ("recheck-edits", false) => Box::new(recheck_edits::RecheckEdits::attach(cfg)?),
        ("replay-suite", true) => Box::new(replay_suite::ReplaySuite::setup(cfg, tr)?),
        ("replay-suite", false) => Box::new(replay_suite::ReplaySuite::attach(cfg)?),
        (other, _) => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every op agreed with its known answer.
    pub correct: bool,
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops that failed.
    pub failed: u64,
    /// The metrics of this mode.
    pub metrics: Vec<Metric>,
    /// The timed op sequence.
    pub labels: Vec<String>,
    /// Work counts summed over the timed ops.
    pub counts: Counts,
}

impl Report {
    /// The result line: one JSON object.
    pub fn to_json_line(&self) -> String {
        let mut metrics = Json::object();
        for (name, value, unit) in &self.metrics {
            let mut m = Json::object();
            m.set("value", if value.is_finite() { *value } else { 0.0 });
            m.set("unit", *unit);
            metrics.set(name, m);
        }
        let mut out = Json::object();
        out.set("correct", self.correct);
        out.set("attempted", self.attempted);
        out.set("failed", self.failed);
        out.set("metrics", metrics);
        out.to_string_compact()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Runs one invocation: the end-to-end metrics, or with `cfg.trace` the
/// per-layer ledger.
pub fn run(cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work_dir.display()))?;
    let report = if cfg.trace {
        run_traced(cfg)
    } else {
        run_plain(cfg)
    };
    let _ = std::fs::remove_dir_all(cfg.state_dir());
    report
}

/// The pass process: runs pass `pass` against the state a set-up stored
/// and returns its raw samples as one JSON line.
pub fn run_child_pass(cfg: &Config, pass: u64) -> Result<String, String> {
    let mut tr = Tracer::new(false);
    let mut w = open_workload(cfg, &mut tr, false)?;
    let ph = run_phase(&mut *w, cfg, one_pass(pass), &mut tr)?;
    Ok(ph.to_json(peak_rss_mb()?).to_string_compact())
}

/// Runs pass `pass` in a fresh process of the benchmark executable.
///
/// How fast an op runs depends on the heap its process built up before
/// it: in one process `batik` takes 5.5 ms per check, in another, after a
/// different order of earlier programs, 19 ms, for exactly the same work,
/// and the state holds for the rest of the process. A fresh process per
/// pass makes every pass an independent draw of that state, so the
/// per-input bests of a run do not depend on one history.
fn spawn_pass(cfg: &Config, pass: u64, flip_input: Option<usize>) -> Result<Json, String> {
    let mut cmd = std::process::Command::new(&cfg.exe);
    cmd.args(["--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", "0"])
        .arg("--work-dir")
        .arg(&cfg.work_dir)
        .args(["--child-pass", &pass.to_string()])
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit());
    if let Some(i) = flip_input {
        cmd.args(["--flip-input", &i.to_string()]);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", cfg.exe.display()))?;
    if !out.status.success() {
        return Err(format!("pass {pass} process failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("pass {pass} printed nothing"))?;
    bigfoot_obs::json::parse(line).map_err(|e| format!("pass {pass} result: {e}"))
}

fn run_plain(cfg: &Config) -> Result<Report, String> {
    let mut tr = Tracer::new(false);
    let mut setups = Vec::new();
    let mut rss: f64 = 0.0;
    let mut names = Vec::new();
    for _ in 0..cfg.setups.max(1) {
        // Housekeeping, not set-up: forget the previous set-up's state.
        let _ = std::fs::remove_dir_all(cfg.state_dir());
        let t0 = Instant::now();
        let w = open_workload(cfg, &mut tr, true)?;
        let warm = spawn_pass(cfg, 0, None)?;
        setups.push(t0.elapsed().as_secs_f64());
        names = w.inputs().to_vec();
        drop(w);
        if warm.get("failed").and_then(Json::as_u64) != Some(0) {
            return Err("the warm-up pass failed".into());
        }
        rss = rss.max(warm.get("rss_mb").and_then(Json::as_f64).unwrap_or(0.0));
    }
    let mut ph = Phase::default();
    let started = Instant::now();
    for pass in 1.. {
        let j = spawn_pass(cfg, pass, cfg.flip_input)?;
        rss = rss.max(j.get("rss_mb").and_then(Json::as_f64).unwrap_or(0.0));
        ph.merge(&j)?;
        let done = match cfg.passes {
            Some(m) => ph.passes >= m,
            None => started.elapsed().as_secs_f64() >= cfg.seconds && ph.all.len() >= cfg.min_ops,
        };
        if done {
            break;
        }
    }
    let best = ph.best();
    for (i, name) in names.iter().enumerate() {
        eprintln!(
            "  {name:<28} {:>4} ops, best {:>9.3} ms, median {:>9.3} ms, {} racy",
            ph.per_input[i].len(),
            best[i],
            stats::median(&ph.per_input[i]),
            ph.racy[i]
        );
    }
    eprintln!(
        "perfbench: {} seed {}: {} ops in {} passes over {} inputs; p50 {:.3} ms (geomean of per-input medians); p95 {:.3} ms from {} samples ({} beyond); setups {:?} s",
        cfg.workload,
        cfg.seed,
        ph.ops,
        ph.passes,
        ph.per_input.len(),
        stats::geomean_of_medians(&ph.per_input),
        stats::percentile(&ph.all, 0.95),
        ph.all.len(),
        stats::beyond(ph.all.len(), 0.95),
        setups
    );
    let values = [
        stats::median(&setups),
        ph.verdicts_per_s(),
        stats::geomean(&best),
        rss.max(peak_rss_mb()?),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    Ok(Report {
        correct: ph.failed == 0,
        attempted: ph.ops,
        failed: ph.failed,
        metrics,
        labels: ph.labels,
        counts: ph.counts,
    })
}

fn run_traced(cfg: &Config) -> Result<Report, String> {
    // Everything runs in this one process, so that one span list covers
    // it: set-up with spans and in-library counters on, one warm-up pass,
    // untraced passes, then the same passes traced. The throughput gap
    // over that one op sequence is the tracing overhead.
    let _ = std::fs::remove_dir_all(cfg.state_dir());
    let mut tr = Tracer::new(true);
    bigfoot_obs::set_enabled(true);
    let before = obs_counters();
    let mut w = open_workload(cfg, &mut tr, true)?;
    let mut setup_obs = BTreeMap::new();
    add_delta(&mut setup_obs, &before, &obs_counters());

    tr.set_enabled(false);
    bigfoot_obs::set_enabled(false);
    if run_phase(&mut *w, cfg, one_pass(0), &mut tr)?.failed > 0 {
        return Err("the warm-up pass failed".into());
    }
    let plain = run_phase(
        &mut *w,
        cfg,
        PhaseSpec {
            first_pass: 1,
            min_seconds: cfg.seconds / 3.0,
            min_passes: 2,
            max_passes: cfg.passes,
            min_ops: 0,
            extras: false,
            observe: false,
        },
        &mut tr,
    )?;

    tr.set_enabled(true);
    bigfoot_obs::set_enabled(true);
    let traced = run_phase(
        &mut *w,
        cfg,
        PhaseSpec {
            max_passes: Some(plain.passes),
            extras: true,
            observe: true,
            ..one_pass(1)
        },
        &mut tr,
    )?;
    bigfoot_obs::set_enabled(false);

    let led = ledger::account(tr.spans())?;
    let spans = cfg
        .work_dir
        .join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
    tr.write(&spans)
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tr.spans().len(),
        spans.display()
    );
    let metrics = layers::metrics(&layers::Inputs {
        ledger: &led,
        setup_counts: &w.setup_counts(),
        setup_obs: &setup_obs,
        traced: &traced,
        untraced: &plain,
        names: w.inputs(),
    });
    Ok(Report {
        correct: plain.failed + traced.failed == 0,
        attempted: plain.ops + traced.ops,
        failed: plain.failed + traced.failed,
        metrics,
        labels: traced.labels,
        counts: traced.counts,
    })
}
