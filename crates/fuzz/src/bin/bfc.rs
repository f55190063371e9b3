//! `bfc` — the BigFoot compiler/checker command line.
//!
//! ```text
//! bfc instrument <file.bfj> [--mode bigfoot|redcard|naive]
//! bfc analyze <file.bfj> [--incremental [--cache-dir DIR]] [--out FILE] [--json]
//! bfc mutate <file.bfj> [--site N] [--kind arith|field-write|lock]
//!                       [--salt K] [--out FILE] [--json]
//! bfc check <file.bfj> [--detector bigfoot|fasttrack|redcard|slimstate|slimcard|djit]
//!                      [--seed N] [--schedules N]
//!                      [--replay-workers N]
//!                      [--record-out FILE [--compress-trace]] [--json]
//! bfc run <file.bfj>
//! bfc stats <file.bfj> [--json]
//! bfc trace <file.bfj> [--seed N] [--limit N]
//! bfc profile <file.bfj> [--detector NAME]
//!                        [--record-out FILE [--compress-trace]] [--json]
//! bfc replay <trace> [--detector NAME] [--replay-workers N] [--json]
//! bfc compress <trace.bftr> <out.bftc>
//! bfc decompress <trace.bftc> <out.bftr>
//! bfc fuzz [--seed-range A..B] [--budget SECS] [--corpus DIR] [--json]
//! ```
//!
//! * `instrument` prints the instrumented program.
//! * `analyze` runs the static analysis and reports the placement: the
//!   stable per-site body fingerprints, the number of checks inserted,
//!   and — with `--incremental` — the persistent placement cache's
//!   hit/miss/skip accounting against `--cache-dir` (default
//!   `.bigfoot-cache`). `--out FILE` writes the instrumented program, so
//!   two invocations can be diffed for byte-identity. Fingerprints are
//!   process-independent: running `analyze` twice in separate processes
//!   prints the same digests.
//! * `mutate` applies one deterministic source edit (the incremental
//!   pipeline's differential-test mutations) to the `--site`-th method
//!   and prints the edited program — the driver for cold/warm cache
//!   experiments from the shell.
//! * Every command that executes a program — `run`, `check`, `stats`,
//!   `trace` and `profile` — lowers it once to flat bytecode and runs it
//!   on `bigfoot-bfj`'s `CompiledVm`. `check` and `profile` instrument
//!   and lower once per invocation, whatever the number of schedules.
//! * `check` executes the program under a detector (optionally across
//!   several random schedules) and reports any data races. With
//!   `--replay-workers N` the run is recorded to an in-memory trace and
//!   detection replays it through the sharded parallel engine — the
//!   verdicts are identical to the serial detector's at any `N`.
//!   Otherwise the detector runs inline, on the VM's thread.
//!   `--record-out FILE` additionally records the schedule's event
//!   stream to a binary trace file: raw `BFTR`, or — with
//!   `--compress-trace` — the grammar-compressed `BFTC` container.
//!   (`--trace-out` is taken by the flight recorder's Chrome trace, so
//!   event-stream recording uses `--record-out`.)
//! * `run` executes the program uninstrumented and prints `main`'s
//!   final integer variables.
//! * `stats` prints the static-analysis summary and per-detector work for
//!   one run.
//! * `profile` runs the full pipeline with `bigfoot-obs` collection on
//!   and prints the per-phase time/count breakdown (static-analysis
//!   spans, entailment share, shadow transitions, detector counters).
//!   With `--record-out`/`--compress-trace` the recording happens inside
//!   the profiled region, so the `trace.compressed_bytes`/
//!   `trace.dict_entries`/`trace.rules`/`trace.rule_hits` counters and
//!   the compression-ratio gauge show up in the metrics snapshot.
//! * `replay` detects races on a previously recorded trace file. The
//!   container format is auto-detected from the magic bytes: raw `BFTR`
//!   traces replay through the standard engine, `BFTC` containers run
//!   the memoizing compressed-replay engine directly on the grammar —
//!   verdicts are byte-identical either way. Field-proxy groupings are
//!   not part of the trace, so replay uses the identity table; record
//!   from the matching `--detector` to get the check events you expect.
//! * `compress` / `decompress` convert between the raw `BFTR` encoding
//!   and the `BFTC` grammar-compressed container (both directions are
//!   lossless; feeding the wrong format is a typed error).
//! * `fuzz` runs the differential fuzzing campaign: each seed in the
//!   range becomes a random program + schedule cross-checked between the
//!   unoptimized and BigFoot-optimized placements, the compiled VM and
//!   the reference interpreter, cold and warm incremental re-analysis,
//!   serial and sharded replay, and the trace codec round-trip.
//!   Divergences are shrunk to
//!   minimal reproducers and written to the corpus directory; the exit
//!   code is non-zero if any were found.
//! * `--json` on `check`, `stats`, `profile`, and `fuzz` emits a
//!   machine-readable report with a stable schema (see
//!   `docs/OBSERVABILITY.md`).

use bigfoot::{
    instrument, instrument_incremental, naive_instrument, redcard_instrument, InstrumentOptions,
    OwnershipReport,
};
use bigfoot_bfj::{
    compile, compress, decompress, fingerprint_block, fingerprint_method, is_compressed,
    mutate as mutate_site, parse_program_with_lines, pretty, site_count, trace::TraceWriter,
    CompiledProgram, CompiledVm, CompressedTraceWriter, EventSink, MutationKind, NullSink, Program,
    RunOutcome, RuntimeError, SchedPolicy, Tid, Value,
};
use bigfoot_detectors::{
    replay_compressed_report, replay_trace, Detector, DjitDetector, ProxyTable, ReplayConfig, Stats,
};
use bigfoot_fuzz::{run_campaign, FuzzOptions};
use bigfoot_obs::cli::CliArgs;
use bigfoot_obs::json::Json;
use std::io::Write;
use std::process::ExitCode;

/// `outln!` that tolerates a closed stdout (e.g. piping into `head`):
/// on a broken pipe the process exits quietly instead of panicking.
macro_rules! outln {
    ($($arg:tt)*) => {{
        let mut out = std::io::stdout().lock();
        if writeln!(out, $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

/// `print!` variant of [`outln!`].
macro_rules! outp {
    ($($arg:tt)*) => {{
        let mut out = std::io::stdout().lock();
        if write!(out, $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

/// Whether `name` is one of StaticBF's budget counters (each bump is a
/// place where a budget quietly weakened placement) or the ownership
/// pass's. The analysis registers them at 0, so `bfc profile` lists them
/// all even when none fired.
fn is_static_budget(name: &str) -> bool {
    name.starts_with("static.budget.") || name.starts_with("static.ownership.")
}

/// Schema version stamped into every `bfc --json` report.
/// v2: `metrics.timers.*` carry `p50`/`p90`/`p99` percentile fields and
/// the snapshot gained a `gauges` section (`pipeline.depth_max` moved
/// there from `counters`).
const SCHEMA_VERSION: u64 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(code) => code,
        Err(e @ CliError::Failed(_)) => {
            eprintln!("bfc: {e}");
            ExitCode::from(2)
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("bfc: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  bfc instrument <file.bfj> [--mode bigfoot|redcard|naive]");
            eprintln!(
                "  bfc analyze <file.bfj> [--incremental [--cache-dir DIR]] [--out FILE] [--json]"
            );
            eprintln!(
                "  bfc mutate <file.bfj> [--site N] [--kind arith|field-write|lock] [--salt K] \
                 [--out FILE] [--json]"
            );
            eprintln!(
                "  bfc check <file.bfj> [--detector NAME] [--seed N] [--schedules N] \
                 [--replay-workers N] \
                 [--record-out FILE [--compress-trace]] [--trace-out FILE] [--json]"
            );
            eprintln!("  bfc run <file.bfj>");
            eprintln!("  bfc stats <file.bfj> [--json]");
            eprintln!("  bfc trace <file.bfj> [--seed N] [--limit N]");
            eprintln!(
                "  bfc profile <file.bfj> [--detector NAME] \
                 [--record-out FILE [--compress-trace]] [--trace-out FILE] [--json]"
            );
            eprintln!("  bfc replay <trace.bftr|trace.bftc> [--detector NAME] [--replay-workers N] [--json]");
            eprintln!("  bfc compress <trace.bftr> <out.bftc>");
            eprintln!("  bfc decompress <trace.bftc> <out.bftr>");
            eprintln!("  bfc fuzz [--seed-range A..B] [--budget SECS] [--corpus DIR] [--json]");
            ExitCode::from(2)
        }
    }
}

/// Why a command failed. Both kinds exit with status 2; only a usage
/// error is followed by the usage text.
enum CliError {
    /// A malformed command line: unknown command or flag value, missing
    /// argument.
    Usage(String),
    /// The command line was fine but the command failed: unreadable or
    /// malformed input, an unwritable output, a run-time error.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Failed(msg) => f.write_str(msg),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::Usage(msg.to_owned())
    }
}

fn failed(msg: String) -> CliError {
    CliError::Failed(msg)
}

fn runtime_error(e: RuntimeError) -> CliError {
    failed(format!("runtime error: {e}"))
}

/// Parses a `.bfj` file, with the source line of every statement.
fn load(path: &str) -> Result<(Program, Vec<u32>), CliError> {
    let src =
        std::fs::read_to_string(path).map_err(|e| failed(format!("cannot read {path}: {e}")))?;
    parse_program_with_lines(&src).map_err(|e| failed(format!("{path}: {e}")))
}

/// One location the ownership pass cleared, located in the source.
struct OwnedRow {
    /// `Class.method` or `main`: where the allocation is.
    method: String,
    /// Source line of the allocation (0 if it cannot be found).
    line: u32,
    /// The field, or `[]` for an array's elements.
    field: String,
    rule: &'static str,
    /// Source line of the lock's allocation, for lock-owned locations.
    lock_line: Option<u32>,
    paths: usize,
}

/// `bfc analyze`'s view of the ownership pass. Allocation sites are
/// counted in pre-order per method, which placement does not change, so
/// they resolve against the source program `p` and its `lines`.
fn ownership_rows(p: &Program, lines: &[u32], report: &OwnershipReport) -> Vec<OwnedRow> {
    let line_of = |site: &bigfoot::AllocSite| {
        site.stmt_in(p)
            .and_then(|id| lines.get(id.0 as usize).copied())
            .unwrap_or(0)
    };
    report
        .locations
        .iter()
        .map(|l| OwnedRow {
            method: l.site.method_label(p),
            line: line_of(&l.site),
            field: l.field.map_or_else(|| "[]".to_owned(), |f| f.to_string()),
            rule: l.rule.name(),
            lock_line: l.lock.as_ref().map(line_of),
            paths: l.paths,
        })
        .collect()
}

/// Stable per-site fingerprints for `bfc analyze`: every class method
/// (keyed `Class.method#ordinal`, matching the placement cache) plus
/// `main`. The digests come from `bigfoot-bfj`'s structural hasher, so
/// they are identical across processes and machines.
fn site_fingerprints(p: &Program) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for c in &p.classes {
        for (mi, m) in c.methods.iter().enumerate() {
            let ordinal = c.methods[..mi].iter().filter(|o| o.name == m.name).count();
            out.push((
                format!("{}.{}#{}", c.name, m.name, ordinal),
                fingerprint_method(m),
            ));
        }
    }
    out.push(("main".to_owned(), fingerprint_block(&p.main)));
    out
}

/// The common envelope of every `bfc --json` report.
fn envelope(command: &str, file: &str) -> Json {
    let mut out = Json::object();
    out.set("schema_version", SCHEMA_VERSION);
    out.set("tool", "bfc");
    out.set("command", command);
    out.set("file", file);
    out
}

fn races_json(stats: &Stats) -> Json {
    let mut races = Json::array();
    for race in &stats.races {
        let mut r = Json::object();
        r.set("target", race.target.to_string());
        r.set("info", race.info.to_string());
        races.push(r);
    }
    races
}

fn run(args: Vec<String>) -> Result<ExitCode, CliError> {
    let args = CliArgs::parse(
        args,
        &[
            "--mode",
            "--detector",
            "--seed",
            "--schedules",
            "--limit",
            "--replay-workers",
            "--seed-range",
            "--budget",
            "--corpus",
            "--trace-out",
            "--record-out",
            "--cache-dir",
            "--site",
            "--kind",
            "--salt",
            "--out",
        ],
        &["--json", "--compress-trace", "--incremental"],
    )?;
    let cmd = args.positional(0).ok_or("missing command")?.to_owned();
    if cmd == "fuzz" {
        return fuzz_cmd(&args);
    }
    // Trace-file commands take a recorded trace, not a `.bfj` program.
    if matches!(cmd.as_str(), "replay" | "compress" | "decompress") {
        return trace_file_cmd(&cmd, &args);
    }
    let file = args.positional(1).ok_or("missing input file")?.to_owned();
    let (program, lines) = load(&file)?;
    let json = args.has("--json");
    match cmd.as_str() {
        "instrument" => {
            let mode = args.one_of("--mode", &["bigfoot", "redcard", "naive"])?;
            let out = match mode {
                "redcard" => redcard_instrument(&program).0,
                "naive" => naive_instrument(&program),
                _ => instrument(&program).program,
            };
            outp!("{}", pretty(&out));
            Ok(ExitCode::SUCCESS)
        }
        "analyze" => {
            let incremental = args.has("--incremental");
            let cache_dir = args.value("--cache-dir").unwrap_or(".bigfoot-cache");
            let out_file = args.value("--out");
            let (inst, inc) = if incremental {
                let (inst, stats) = instrument_incremental(
                    &program,
                    InstrumentOptions::default(),
                    std::path::Path::new(cache_dir),
                );
                (inst, Some(stats))
            } else {
                (instrument(&program), None)
            };
            if let Some(path) = out_file {
                std::fs::write(path, pretty(&inst.program))
                    .map_err(|e| failed(format!("cannot write {path}: {e}")))?;
            }
            let fps = site_fingerprints(&program);
            let rows = ownership_rows(&program, &lines, &inst.ownership);
            if json {
                let mut report = envelope("analyze", &file);
                report.set("incremental", incremental);
                let mut stat = Json::object();
                stat.set("methods", inst.stats.methods as u64);
                stat.set("checks_inserted", inst.stats.checks_inserted as u64);
                stat.set(
                    "ownership_paths_removed",
                    inst.ownership.total_removed() as u64,
                );
                stat.set("total_ms", inst.stats.total_time.as_secs_f64() * 1e3);
                report.set("static", stat);
                if let Some(stats) = &inc {
                    let mut c = Json::object();
                    c.set("warm", stats.warm);
                    c.set("hits", stats.hits as u64);
                    c.set("misses", stats.misses as u64);
                    c.set("invalid", stats.cache_invalid);
                    c.set("skip_rate", stats.skip_rate());
                    report.set("cache", c);
                }
                // Hex strings, not numbers: the JSON layer stores numbers
                // as f64, which cannot carry a full 64-bit digest.
                let mut sites = Json::array();
                for (key, fp) in &fps {
                    let mut s = Json::object();
                    s.set("site", key.as_str());
                    s.set("fingerprint", format!("{fp:016x}"));
                    sites.push(s);
                }
                report.set("fingerprints", sites);
                let mut owned = Json::array();
                for row in &rows {
                    let mut o = Json::object();
                    o.set("method", row.method.as_str());
                    o.set("line", row.line as u64);
                    o.set("field", row.field.as_str());
                    o.set("rule", row.rule);
                    if let Some(line) = row.lock_line {
                        o.set("lock_line", line as u64);
                    }
                    o.set("paths", row.paths as u64);
                    owned.push(o);
                }
                report.set("ownership", owned);
                outln!("{}", report.to_string_pretty());
            } else {
                outln!(
                    "{file}: {} site(s), {} check(s) inserted",
                    fps.len(),
                    inst.stats.checks_inserted
                );
                for (key, fp) in &fps {
                    outln!("  {key:<32} {fp:016x}");
                }
                for row in &rows {
                    let lock = row
                        .lock_line
                        .map(|l| format!(" (lock allocated on line {l})"))
                        .unwrap_or_default();
                    outln!(
                        "  ownership: {} line {} {} — {}{lock}, {} path(s) removed",
                        row.method,
                        row.line,
                        row.field,
                        row.rule,
                        row.paths
                    );
                }
                if let Some(stats) = &inc {
                    outln!(
                        "cache: {} — {} hit(s), {} miss(es), {:.1}% skipped{}",
                        if stats.warm { "warm" } else { "cold" },
                        stats.hits,
                        stats.misses,
                        stats.skip_rate() * 100.0,
                        if stats.cache_invalid {
                            " (previous cache was malformed)"
                        } else {
                            ""
                        }
                    );
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "mutate" => {
            let site: usize = args.parsed("--site")?.unwrap_or(0);
            let kind_name = args.one_of("--kind", &["arith", "field-write", "lock"])?;
            let kind = match kind_name {
                "field-write" => MutationKind::AddFieldWrite,
                "lock" => MutationKind::AddLock,
                _ => MutationKind::ArithTweak,
            };
            let salt: i64 = args.parsed("--salt")?.unwrap_or(1);
            let mut edited = program.clone();
            let sites = site_count(&edited);
            let name = mutate_site(&mut edited, site, kind, salt).ok_or_else(|| {
                format!("--site {site} out of range (program has {sites} site(s))")
            })?;
            let text = pretty(&edited);
            let out_file = args.value("--out");
            if let Some(path) = out_file {
                std::fs::write(path, &text)
                    .map_err(|e| failed(format!("cannot write {path}: {e}")))?;
            }
            if json {
                let mut report = envelope("mutate", &file);
                report.set("site", site as u64);
                report.set("kind", kind_name);
                report.set("salt", salt);
                report.set("edited", name.as_str());
                report.set("sites", sites as u64);
                // Without --out the edited program rides in the report.
                if out_file.is_none() {
                    report.set("program", text.as_str());
                }
                outln!("{}", report.to_string_pretty());
            } else if out_file.is_some() {
                outln!("edited {name} ({kind_name}, salt {salt})");
            } else {
                outp!("{text}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let lowered = compile(&program);
            let mut vm = CompiledVm::new(&lowered, SchedPolicy::default());
            vm.run(&mut NullSink).map_err(runtime_error)?;
            if let Some(env) = vm.final_env(Tid(0)) {
                let mut vars: Vec<_> = env
                    .iter()
                    .filter_map(|(k, v)| match v {
                        Value::Int(n) => Some((k.as_str(), *n)),
                        _ => None,
                    })
                    .collect();
                vars.sort();
                for (k, v) in vars {
                    if !k.contains('$') && !k.contains('\'') {
                        outln!("{k} = {v}");
                    }
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "check" => {
            let which = args.one_of(
                "--detector",
                &[
                    "bigfoot",
                    "fasttrack",
                    "redcard",
                    "slimstate",
                    "slimcard",
                    "djit",
                ],
            )?;
            let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
            let schedules: u64 = args.parsed("--schedules")?.unwrap_or(1);
            let replay_workers: Option<usize> = args.parsed("--replay-workers")?;
            validate_workers(replay_workers)?;
            let record_out = args.value("--record-out");
            let compress_trace = args.has("--compress-trace");
            validate_recording(record_out, compress_trace, schedules)?;
            // Enables the flight recorder for the whole run; the guard
            // writes the Chrome trace on drop too, so a panicking
            // detector still leaves a partial trace on disk.
            let trace_guard = args
                .value("--trace-out")
                .map(bigfoot_obs::TraceOutGuard::new);
            let prepared = prepare(which, &program);
            if let Some(path) = record_out {
                // `validate_recording` pinned schedules to 1, so this is
                // the same policy the detection loop below will use.
                let policy = if seed == 1 {
                    SchedPolicy::default()
                } else {
                    SchedPolicy::Random {
                        seed,
                        switch_inv: 2,
                    }
                };
                let bytes = record_trace(&prepared.lowered, policy, compress_trace)?;
                std::fs::write(path, &bytes)
                    .map_err(|e| failed(format!("cannot write {path}: {e}")))?;
            }
            let mut any_race = false;
            let mut schedule_reports = Json::array();
            for i in 0..schedules {
                let policy = if schedules == 1 && seed == 1 {
                    SchedPolicy::default()
                } else {
                    SchedPolicy::Random {
                        seed: seed + i,
                        switch_inv: 2,
                    }
                };
                let stats = check_once(which, &prepared, policy, replay_workers)?;
                if stats.has_races() {
                    any_race = true;
                }
                if json {
                    let mut sched = Json::object();
                    sched.set("schedule", i + 1);
                    sched.set("races", races_json(&stats));
                    sched.set("stats", stats.to_json());
                    schedule_reports.push(sched);
                } else if stats.has_races() {
                    outln!("schedule {}: {} race(s)", i + 1, stats.races.len());
                    for race in &stats.races {
                        outln!("  {} — {}", race.target, race.info);
                    }
                } else {
                    outln!(
                        "schedule {}: no races ({} accesses, {} checks, {} shadow ops)",
                        i + 1,
                        stats.accesses(),
                        stats.checks,
                        stats.shadow_ops
                    );
                }
            }
            if json {
                let mut report = envelope("check", &file);
                report.set("detector", which);
                report.set("seed", seed);
                report.set("schedules", schedules);
                if let Some(workers) = replay_workers {
                    report.set("replay_workers", workers as u64);
                }
                report.set("any_race", any_race);
                report.set("runs", schedule_reports);
                outln!("{}", report.to_string_pretty());
            }
            if let Some(guard) = trace_guard {
                let path = guard.path().display().to_string();
                guard
                    .finish()
                    .map_err(|e| failed(format!("cannot write trace to {path}: {e}")))?;
            }
            Ok(if any_race {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "stats" => {
            let inst = instrument(&program);
            let mut bf = Detector::bigfoot(inst.proxies.clone());
            execute(&compile(&inst.program), SchedPolicy::default(), &mut bf)?;
            let bf = bf.finish();
            let mut ft = Detector::fasttrack();
            execute(&compile(&program), SchedPolicy::default(), &mut ft)?;
            let ft = ft.finish();
            if json {
                let mut report = envelope("stats", &file);
                let mut stat = Json::object();
                stat.set("methods", inst.stats.methods as u64);
                stat.set("checks_inserted", inst.stats.checks_inserted as u64);
                stat.set(
                    "ownership_paths_removed",
                    inst.ownership.total_removed() as u64,
                );
                stat.set("total_ms", inst.stats.total_time.as_secs_f64() * 1e3);
                stat.set("sec_per_method", inst.stats.time_per_method().as_secs_f64());
                report.set("static", stat);
                let mut dets = Json::object();
                dets.set("fasttrack", ft.to_json());
                dets.set("bigfoot", bf.to_json());
                report.set("detectors", dets);
                outln!("{}", report.to_string_pretty());
                return Ok(ExitCode::SUCCESS);
            }
            outln!(
                "static analysis: {} methods, {:.3} ms/method, {} checks inserted",
                inst.stats.methods,
                inst.stats.time_per_method().as_secs_f64() * 1e3,
                inst.stats.checks_inserted
            );
            outln!("{:<20} {:>12} {:>12}", "", "FastTrack", "BigFoot");
            outln!(
                "{:<20} {:>12} {:>12}",
                "accesses",
                ft.accesses(),
                bf.accesses()
            );
            outln!("{:<20} {:>12} {:>12}", "checks", ft.checks, bf.checks);
            outln!(
                "{:<20} {:>12.3} {:>12.3}",
                "check ratio",
                ft.check_ratio(),
                bf.check_ratio()
            );
            outln!(
                "{:<20} {:>12} {:>12}",
                "shadow ops",
                ft.shadow_ops,
                bf.shadow_ops
            );
            outln!(
                "{:<20} {:>12} {:>12}",
                "shadow space",
                ft.shadow_space_end,
                bf.shadow_space_end
            );
            outln!(
                "{:<20} {:>12} {:>12}",
                "races",
                ft.races.len(),
                bf.races.len()
            );
            Ok(ExitCode::SUCCESS)
        }
        "trace" => {
            // Print the instrumented program's event stream — the exact
            // view a dynamic detector gets.
            let seed: u64 = args.parsed("--seed")?.unwrap_or(0);
            let limit: usize = args.parsed("--limit")?.unwrap_or(200);
            let inst = instrument(&program);
            let policy = if seed == 0 {
                SchedPolicy::default()
            } else {
                SchedPolicy::Random {
                    seed,
                    switch_inv: 2,
                }
            };
            let mut sink = bigfoot_bfj::RecordingSink::default();
            execute(&compile(&inst.program), policy, &mut sink)?;
            let total = sink.events.len();
            for ev in sink.events.iter().take(limit) {
                outln!("{ev:?}");
            }
            if total > limit {
                outln!(
                    "… {} more events (raise --limit to see them)",
                    total - limit
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "profile" => {
            let which = args.one_of(
                "--detector",
                &[
                    "bigfoot",
                    "fasttrack",
                    "redcard",
                    "slimstate",
                    "slimcard",
                    "djit",
                ],
            )?;
            let replay_workers: Option<usize> = args.parsed("--replay-workers")?;
            validate_workers(replay_workers)?;
            let record_out = args.value("--record-out");
            let compress_trace = args.has("--compress-trace");
            validate_recording(record_out, compress_trace, 1)?;
            let trace_guard = args
                .value("--trace-out")
                .map(bigfoot_obs::TraceOutGuard::new);
            bigfoot_obs::set_enabled(true);
            bigfoot_obs::reset();
            // Instrument, lower and record inside the profiled region: the
            // compressor flushes `trace.compressed_bytes`/
            // `trace.dict_entries`/`trace.rules`/`trace.rule_hits` and the
            // compression-ratio gauge into this snapshot.
            let prepared = prepare(which, &program);
            if let Some(path) = record_out {
                let bytes =
                    record_trace(&prepared.lowered, SchedPolicy::default(), compress_trace)?;
                std::fs::write(path, &bytes)
                    .map_err(|e| failed(format!("cannot write {path}: {e}")))?;
            }
            // A runtime error does not discard the profile: the detector
            // flushes its aggregated counters on drop, so the snapshot
            // below still describes the partial run. The report carries
            // the error and the exit code is non-zero.
            let (stats, run_error) =
                match check_once(which, &prepared, SchedPolicy::default(), replay_workers) {
                    Ok(stats) => (Some(stats), None),
                    Err(e) => (None, Some(e.to_string())),
                };
            // Fold recorder totals (`trace.events`/`trace.dropped`) into
            // the snapshot the report is built from.
            bigfoot_obs::trace::publish_counters();
            let snap = bigfoot_obs::snapshot();
            if let Some(guard) = trace_guard {
                let path = guard.path().display().to_string();
                guard
                    .finish()
                    .map_err(|e| failed(format!("cannot write trace to {path}: {e}")))?;
            }
            let exit = if run_error.is_some() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            };
            if json {
                let mut report = envelope("profile", &file);
                report.set("detector", which);
                if let Some(stats) = &stats {
                    report.set("stats", stats.to_json());
                }
                if let Some(e) = &run_error {
                    report.set("error", e.as_str());
                }
                report.set("metrics", snap.to_json());
                let mut budgets = Json::object();
                for c in snap.counters.iter().filter(|c| is_static_budget(&c.name)) {
                    budgets.set(&c.name, c.value);
                }
                report.set("static_budgets", budgets);
                outln!("{}", report.to_string_pretty());
                return Ok(exit);
            }
            outln!("== profile: {file} ({which}) ==");
            if let Some(e) = &run_error {
                outln!("!! {e} — profiling the partial run");
            }
            outln!();
            outln!("-- phases (wall clock) --");
            outln!(
                "{:<32} {:>8} {:>12} {:>12} {:>10} {:>10}",
                "span",
                "count",
                "total ms",
                "mean µs",
                "p50 µs",
                "p99 µs"
            );
            for t in &snap.timers {
                // `observe!` histograms are unit-less; keep them separate.
                if t.name.starts_with("shadow.commit") || t.name.starts_with("detector.") {
                    continue;
                }
                outln!(
                    "{:<32} {:>8} {:>12.3} {:>12.2} {:>10.2} {:>10.2}",
                    t.name,
                    t.count,
                    t.total as f64 / 1e6,
                    t.mean() / 1e3,
                    t.percentile(0.50) / 1e3,
                    t.percentile(0.99) / 1e3
                );
            }
            let analysis = snap.timer_total("static.instrument");
            let entail = snap.timer_total("entail.query");
            if analysis > 0 {
                outln!();
                outln!(
                    "entailment share of static analysis: {:.1}%",
                    entail as f64 / analysis as f64 * 100.0
                );
            }
            outln!();
            outln!("-- distributions --");
            for t in &snap.timers {
                if !(t.name.starts_with("shadow.commit") || t.name.starts_with("detector.")) {
                    continue;
                }
                outln!(
                    "{:<32} {:>8} obs, mean {:.1}, log2 buckets {:?}",
                    t.name,
                    t.count,
                    t.mean(),
                    t.buckets
                );
            }
            outln!();
            outln!("-- counters --");
            outln!("{:<32} {:>12}", "counter", "value");
            for c in &snap.counters {
                outln!("{:<32} {:>12}", c.name, c.value);
            }
            outln!();
            outln!("-- StaticBF budgets (times each fired) and the ownership pass --");
            for c in snap.counters.iter().filter(|c| is_static_budget(&c.name)) {
                outln!("{:<40} {:>12}", c.name, c.value);
            }
            if !snap.gauges.is_empty() {
                outln!();
                outln!("-- gauges --");
                outln!("{:<32} {:>12}", "gauge", "value");
                for g in &snap.gauges {
                    outln!("{:<32} {:>12}", g.name, g.value);
                }
            }
            Ok(exit)
        }
        other => Err(format!("unknown command `{other}`").into()),
    }
}

/// The `bfc fuzz` subcommand: a differential fuzzing campaign.
fn fuzz_cmd(args: &CliArgs) -> Result<ExitCode, CliError> {
    let json = args.has("--json");
    let range = args.value("--seed-range").unwrap_or("1..501");
    let (lo, hi) = range
        .split_once("..")
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
        .filter(|(a, b)| a < b)
        .ok_or_else(|| format!("--seed-range wants `A..B` with A < B, got `{range}`"))?;
    let budget_secs: u64 = args.parsed("--budget")?.unwrap_or(0);
    // Default the corpus next to the fuzz crate when run from the repo
    // root; otherwise a local directory.
    let corpus_dir = match args.value("--corpus") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let in_repo = std::path::Path::new("crates/fuzz/corpus");
            if in_repo.parent().is_some_and(|p| p.is_dir()) {
                in_repo.to_path_buf()
            } else {
                std::path::PathBuf::from("fuzz-corpus")
            }
        }
    };
    bigfoot_obs::set_enabled(true);
    bigfoot_obs::reset();
    let opts = FuzzOptions {
        seed_lo: lo,
        seed_hi: hi,
        budget_secs,
        corpus_dir: Some(corpus_dir),
        ..FuzzOptions::default()
    };
    let report = run_campaign(&opts);
    let snap = bigfoot_obs::snapshot();
    if json {
        let mut out = envelope("fuzz", "-");
        out.set("report", report.to_json());
        out.set("metrics", snap.to_json());
        outln!("{}", out.to_string_pretty());
    } else {
        outln!(
            "fuzzed {} case(s) over seeds {}..{} in {:.1}s{} — oracles: roundtrip {}, compiled {}, placement {}, incremental {}, replay {}, compressed {}",
            report.cases,
            report.seed_lo,
            report.seed_hi,
            report.elapsed.as_secs_f64(),
            if report.exhausted_budget {
                " (budget exhausted)"
            } else {
                ""
            },
            report.oracle_runs[0],
            report.oracle_runs[1],
            report.oracle_runs[2],
            report.oracle_runs[3],
            report.oracle_runs[4],
            report.oracle_runs[5],
        );
        for d in &report.divergences {
            outln!();
            outln!(
                "DIVERGENCE seed {} [{}] {}",
                d.seed,
                d.oracle.name(),
                d.detail
            );
            if let Some(p) = &d.corpus_file {
                outln!("  reproducer written to {}", p.display());
            }
            outp!("{}", d.minimized);
        }
        if report.divergences.is_empty() {
            outln!("no divergences");
        }
    }
    Ok(if report.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Driver-flag sanity check, applied at parse time so a bad flag fails
/// before any work starts. Zero replay workers is a contradiction — the
/// replay engine needs at least one worker to consume anything.
fn validate_workers(replay_workers: Option<usize>) -> Result<(), CliError> {
    if replay_workers == Some(0) {
        return Err("--replay-workers wants at least 1 worker".into());
    }
    Ok(())
}

/// Recording-flag sanity checks, applied at parse time like
/// [`validate_workers`]. `--compress-trace` only selects the container
/// `--record-out` writes, so on its own it is a contradiction; and a
/// recording covers exactly one schedule, so a multi-schedule sweep has
/// no single event stream to write.
fn validate_recording(
    record_out: Option<&str>,
    compress_trace: bool,
    schedules: u64,
) -> Result<(), CliError> {
    if compress_trace && record_out.is_none() {
        return Err("--compress-trace requires --record-out FILE to write the container to".into());
    }
    if record_out.is_some() && schedules != 1 {
        return Err("--record-out records exactly one schedule; drop --schedules".into());
    }
    Ok(())
}

/// Records one schedule of a prepared program to the binary trace
/// encoding: raw `BFTR`, or the grammar-compressed `BFTC` container with
/// `compress` set. Recording is a separate execution from the detection
/// run, but the scheduler is deterministic per policy, so both observe
/// the same interleaving.
fn record_trace(
    lowered: &CompiledProgram,
    policy: SchedPolicy,
    compress: bool,
) -> Result<Vec<u8>, CliError> {
    if compress {
        let mut w = CompressedTraceWriter::new();
        execute(lowered, policy, &mut w)?;
        Ok(w.into_bytes())
    } else {
        let mut w = TraceWriter::new();
        execute(lowered, policy, &mut w)?;
        Ok(w.into_bytes())
    }
}

/// The trace-file subcommands: `replay` detects races directly on a
/// recorded trace (raw or compressed, auto-detected from the magic
/// bytes), `compress`/`decompress` convert between the two encodings.
fn trace_file_cmd(cmd: &str, args: &CliArgs) -> Result<ExitCode, CliError> {
    let input = args.positional(1).ok_or("missing input trace file")?;
    let bytes = std::fs::read(input).map_err(|e| failed(format!("cannot read {input}: {e}")))?;
    match cmd {
        "compress" => {
            let output = args.positional(2).ok_or("missing output file")?;
            if is_compressed(&bytes) {
                return Err(failed(format!("{input}: already a BFTC container")));
            }
            let packed = compress(&bytes).map_err(|e| failed(format!("{input}: {e}")))?;
            std::fs::write(output, &packed)
                .map_err(|e| failed(format!("cannot write {output}: {e}")))?;
            outln!(
                "{output}: {} -> {} bytes ({:.2}x)",
                bytes.len(),
                packed.len(),
                bytes.len() as f64 / packed.len().max(1) as f64
            );
            Ok(ExitCode::SUCCESS)
        }
        "decompress" => {
            let output = args.positional(2).ok_or("missing output file")?;
            if !is_compressed(&bytes) {
                return Err(failed(format!(
                    "{input}: not a BFTC container (raw BFTR traces need no decompression)"
                )));
            }
            let raw = decompress(&bytes).map_err(|e| failed(format!("{input}: {e}")))?;
            std::fs::write(output, &raw)
                .map_err(|e| failed(format!("cannot write {output}: {e}")))?;
            outln!("{output}: {} -> {} bytes", bytes.len(), raw.len());
            Ok(ExitCode::SUCCESS)
        }
        _ => replay_file_cmd(input, &bytes, args),
    }
}

/// `bfc replay`: race detection on a recorded trace file. `BFTC`
/// containers run the memoizing compressed-replay engine directly on
/// the grammar; raw `BFTR` traces go through the standard replay path —
/// verdicts are byte-identical either way.
fn replay_file_cmd(input: &str, bytes: &[u8], args: &CliArgs) -> Result<ExitCode, CliError> {
    let which = args.one_of(
        "--detector",
        &["bigfoot", "fasttrack", "redcard", "slimstate", "slimcard"],
    )?;
    let workers: usize = args.parsed("--replay-workers")?.unwrap_or(1);
    if workers == 0 {
        return Err("--replay-workers wants at least 1 worker".into());
    }
    // Proxy groupings are a static-analysis artifact, not part of the
    // trace; the identity table keeps field checks ungrouped.
    let config = match which {
        "bigfoot" => ReplayConfig::bigfoot(ProxyTable::identity(), workers),
        "fasttrack" => ReplayConfig::fasttrack(workers),
        "slimstate" => ReplayConfig::slimstate(workers),
        "redcard" => ReplayConfig::redcard(ProxyTable::identity(), workers),
        _ => ReplayConfig::slimcard(ProxyTable::identity(), workers),
    };
    let compressed = is_compressed(bytes);
    let (stats, memo) = if compressed {
        let (stats, report) = replay_compressed_report(bytes, &config)
            .map_err(|e| failed(format!("{input}: {e}")))?;
        (stats, Some(report))
    } else {
        let stats = replay_trace(bytes, &config).map_err(|e| failed(format!("{input}: {e}")))?;
        (stats, None)
    };
    if args.has("--json") {
        let mut report = envelope("replay", input);
        report.set("detector", which);
        report.set("replay_workers", workers as u64);
        report.set("compressed", compressed);
        report.set("trace_bytes", bytes.len() as u64);
        if let Some(m) = memo {
            let mut j = Json::object();
            j.set("runs", m.memo_runs);
            j.set("fallbacks", m.memo_fallbacks);
            j.set("skipped_events", m.skipped_events);
            j.set("total_events", m.total_events);
            report.set("memo", j);
        }
        report.set("any_race", stats.has_races());
        report.set("races", races_json(&stats));
        report.set("stats", stats.to_json());
        outln!("{}", report.to_string_pretty());
    } else {
        outln!(
            "{input}: {} trace, {} bytes, detector {which}, {} worker(s)",
            if compressed { "BFTC" } else { "BFTR" },
            bytes.len(),
            workers
        );
        if let Some(m) = memo {
            outln!(
                "memoized {} rule run(s) ({} fallback(s)), skipped {} of {} events",
                m.memo_runs,
                m.memo_fallbacks,
                m.skipped_events,
                m.total_events
            );
        }
        if stats.has_races() {
            outln!("{} race(s)", stats.races.len());
            for race in &stats.races {
                outln!("  {} — {}", race.target, race.info);
            }
        } else {
            outln!(
                "no races ({} accesses, {} checks, {} shadow ops)",
                stats.accesses(),
                stats.checks,
                stats.shadow_ops
            );
        }
    }
    Ok(if stats.has_races() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The program one detector configuration runs, instrumented the way
/// that detector expects and lowered for the VM, with the field-proxy
/// table its detector groups checks by.
struct Prepared {
    lowered: CompiledProgram,
    proxies: ProxyTable,
}

/// Instruments and lowers `program` for the `which` detector, once per
/// invocation: every schedule and the recording run share the result.
fn prepare(which: &str, program: &Program) -> Prepared {
    let (lowered, proxies) = match which {
        "bigfoot" => {
            let inst = instrument(program);
            (compile(&inst.program), inst.proxies)
        }
        "redcard" | "slimcard" => {
            let (rc, proxies) = redcard_instrument(program);
            (compile(&rc), proxies)
        }
        // fasttrack / slimstate / djit detect on the raw event stream.
        _ => (compile(program), ProxyTable::identity()),
    };
    Prepared { lowered, proxies }
}

/// Runs a lowered program to completion on [`CompiledVm`], streaming its
/// events into `sink`.
fn execute<S: EventSink>(
    lowered: &CompiledProgram,
    policy: SchedPolicy,
    sink: &mut S,
) -> Result<RunOutcome, CliError> {
    CompiledVm::new(lowered, policy)
        .run(sink)
        .map_err(runtime_error)
}

/// Runs one schedule under the named detector configuration, with a
/// fresh detector. With `replay_workers` set, the schedule is recorded to
/// an in-memory trace and detection runs through the parallel sharded
/// replay engine instead of inline — same verdicts, record-once/
/// detect-many.
fn check_once(
    which: &str,
    prepared: &Prepared,
    policy: SchedPolicy,
    replay_workers: Option<usize>,
) -> Result<Stats, CliError> {
    let Prepared { lowered, proxies } = prepared;
    if let Some(workers) = replay_workers {
        let config = match which {
            "bigfoot" => ReplayConfig::bigfoot(proxies.clone(), workers),
            "fasttrack" => ReplayConfig::fasttrack(workers),
            "slimstate" => ReplayConfig::slimstate(workers),
            "redcard" => ReplayConfig::redcard(proxies.clone(), workers),
            "slimcard" => ReplayConfig::slimcard(proxies.clone(), workers),
            _ => return Err("--replay-workers is not supported for --detector djit".into()),
        };
        let mut w = TraceWriter::new();
        execute(lowered, policy, &mut w)?;
        return replay_trace(&w.into_bytes(), &config)
            .map_err(|e| failed(format!("replay error: {e}")));
    }
    if which == "djit" {
        let mut det = DjitDetector::new();
        execute(lowered, policy, &mut det)?;
        return Ok(det.finish());
    }
    let mut det = match which {
        "bigfoot" => Detector::bigfoot(proxies.clone()),
        "fasttrack" => Detector::fasttrack(),
        "slimstate" => Detector::slimstate(),
        "redcard" => Detector::redcard(proxies.clone()),
        _ => Detector::slimcard(proxies.clone()),
    };
    execute(lowered, policy, &mut det)?;
    Ok(det.finish())
}

#[cfg(test)]
mod tests {
    use super::{validate_recording, validate_workers};

    #[test]
    fn zero_workers_is_rejected_for_both_engines() {
        assert!(validate_workers(Some(0))
            .unwrap_err()
            .to_string()
            .contains("--replay-workers wants at least 1"));
    }

    #[test]
    fn valid_combinations_pass() {
        assert!(validate_workers(None).is_ok());
        assert!(validate_workers(Some(3)).is_ok());
    }

    #[test]
    fn compress_trace_without_record_out_is_rejected() {
        assert!(validate_recording(None, true, 1)
            .unwrap_err()
            .to_string()
            .contains("requires --record-out"));
    }

    #[test]
    fn record_out_excludes_multi_schedule_sweeps() {
        assert!(validate_recording(Some("t.bftr"), false, 3)
            .unwrap_err()
            .to_string()
            .contains("exactly one schedule"));
        // The missing-output contradiction is reported first.
        assert!(validate_recording(None, true, 3)
            .unwrap_err()
            .to_string()
            .contains("requires --record-out"));
    }

    #[test]
    fn valid_recording_combinations_pass() {
        assert!(validate_recording(None, false, 5).is_ok());
        assert!(validate_recording(Some("t.bftr"), false, 1).is_ok());
        assert!(validate_recording(Some("t.bftc"), true, 1).is_ok());
    }
}
