//! Regenerates every table and figure of the paper's evaluation (§6).
//!
//! Usage:
//!
//! ```text
//! repro [table1|table2|fig2|fig8|static|ablation|replay|fuzz|perf|all]
//!       [--scale small|full] [--reps N] [--bench NAME]
//!       [--replay-workers N] [--budget SECS]
//!       [--compiled] [--compressed]
//!       [--json] [--out FILE]
//! ```
//!
//! Every measurement executes programs on the compiled VM, lowered once
//! outside the timed region; only `perf --compiled` also runs the
//! reference interpreter, as the other side of its comparison.
//!
//! * `table1` — per-benchmark StaticBF time, check ratio, base time, and
//!   time overheads for FT/RC/SS/SC/BF (wall clock plus the op-count
//!   model).
//! * `table2` — shadow-space overhead relative to FastTrack.
//! * `fig2`   — the headline mean-overhead comparison row.
//! * `fig8`   — per-benchmark check ratios (arrays vs fields) and the
//!   BF/FT overhead ratio.
//! * `static` — the §6.1 static-analysis scaling claim, including the
//!   entailment engine's measured share of analysis time.
//! * `replay` — record each benchmark to an in-memory trace, then compare
//!   serial detection against the sharded parallel replay engine
//!   (`--replay-workers N` pins one worker count; default measures
//!   1, 2, and 4). Errors if any replay's verdicts diverge from serial.
//! * `fuzz`   — run the differential fuzzing campaign (placement,
//!   replay, and trace-codec oracles over seeded random programs and
//!   schedules; `--budget SECS` bounds wall-clock time). Errors if any
//!   oracle diverges.
//! * `perf`   — the tracked performance baseline: record each benchmark
//!   to a trace, stream the pre-decoded events through every detector
//!   configuration (detector-only events/sec), and report static-analysis
//!   wall time, entailment share, and peak shadow space. `--out
//!   BENCH.json` writes the baseline; `--check BENCH.json` re-measures
//!   and fails on a >`--tolerance` (default 0.25) throughput regression
//!   (see `docs/PERFORMANCE.md`). `--compiled` measures the bytecode
//!   compilation tier against the tree-walking interpreter
//!   (uninstrumented steps/sec and BigFoot-instrumented end-to-end
//!   events/sec) and adds an additive `compiled` section. `--compressed` records each configuration's
//!   trace, compresses it to the `BFTC` grammar container, and compares
//!   raw-trace replay against detection directly on the compressed form
//!   (per-benchmark compression ratio, replay events/sec both ways,
//!   memoization counts, and verdict equality) in an additive
//!   `compressed` section. An always-on `static_incremental` section
//!   reports the persistent placement cache's cold vs warm analysis
//!   wall time and the post-edit skip rate. The drift gate compares
//!   section *presence* in both directions, so `--check` must run with
//!   the same flags the committed baseline was generated with.
//! * `--json` — emit the machine-readable report (schema in
//!   `docs/OBSERVABILITY.md`) on stdout instead of the human tables;
//!   `--out FILE` writes it to a file as well.

use bigfoot_bench::report;
use bigfoot_bench::{
    geomean, mean, measure, measure_ablation, measure_replay, BenchResult, ReplayResult, ABLATIONS,
    DETECTORS,
};
use bigfoot_obs::cli::CliArgs;
use bigfoot_obs::json::Json;
use bigfoot_workloads::{benchmark, benchmarks, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("repro: {msg}");
            eprintln!();
            eprintln!(
                "usage: repro [table1|table2|fig2|fig8|static|ablation|replay|fuzz|perf|all] \
                 [--scale small|full] [--reps N] [--bench NAME] [--replay-workers N] \
                 [--budget SECS] [--check BENCH.json] [--tolerance FRAC] \
                 [--compiled] [--compressed] \
                 [--trace-out FILE] [--metrics-out FILE] [--json] [--out FILE]"
            );
            ExitCode::from(2)
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let args = CliArgs::parse(
        args,
        &[
            "--scale",
            "--reps",
            "--bench",
            "--out",
            "--replay-workers",
            "--budget",
            "--check",
            "--tolerance",
            "--trace-out",
            "--metrics-out",
        ],
        &["--json", "--compiled", "--compressed"],
    )?;
    // The flight recorder spans the whole command (`repro perf
    // --trace-out t.json` shows each measurement's spans); the guard's
    // drop path also writes the trace when a command errors out or
    // panics mid-run.
    let trace_guard = args
        .value("--trace-out")
        .map(bigfoot_obs::TraceOutGuard::new);
    let result = run_cmd(&args);
    if result.is_ok() {
        if let Some(path) = args.value("--metrics-out") {
            bigfoot_obs::trace::publish_counters();
            std::fs::write(path, bigfoot_obs::prometheus_text())
                .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
        }
    }
    if let Some(guard) = trace_guard {
        let path = guard.path().display().to_string();
        let finished = guard.finish();
        if result.is_ok() {
            finished.map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        }
    }
    result
}

fn run_cmd(args: &CliArgs) -> Result<(), String> {
    let what = args.positional(0).unwrap_or("all").to_owned();
    let scale_name = args.one_of("--scale", &["full", "small"])?;
    let scale = match scale_name {
        "small" => Scale::Small,
        _ => Scale::Full,
    };
    let reps: usize = args.parsed("--reps")?.unwrap_or(3);
    let json = args.has("--json");
    validate_workers(args.parsed("--replay-workers")?)?;

    // Collection feeds both the JSON reports (entailment share, §6.1) and
    // the human `static` table, so it is always on in this binary.
    bigfoot_obs::set_enabled(true);

    if what == "ablation" {
        let out = ablation(scale, reps, json);
        return emit(out, args, json);
    }

    if what == "fuzz" {
        // The differential soundness gate: random programs + schedules
        // through the placement, replay, and codec oracles. Scale picks
        // the seed window; the optional budget caps wall-clock time.
        let seeds = match scale {
            Scale::Small => 60,
            Scale::Full => 500,
        };
        let budget_secs: u64 = args.parsed("--budget")?.unwrap_or(0);
        eprintln!("fuzzing {seeds} seeded case(s) through the differential oracles …");
        let report = bigfoot_fuzz::run_campaign(&bigfoot_fuzz::FuzzOptions {
            seed_lo: 1,
            seed_hi: 1 + seeds,
            budget_secs,
            corpus_dir: None,
            ..bigfoot_fuzz::FuzzOptions::default()
        });
        if !report.divergences.is_empty() {
            for d in &report.divergences {
                eprintln!(
                    "DIVERGENCE seed {} [{}] {}",
                    d.seed,
                    d.oracle.name(),
                    d.detail
                );
                eprintln!("{}", d.minimized);
            }
            return Err(format!(
                "{} differential divergence(s) found — placement is unsound",
                report.divergences.len()
            ));
        }
        if json {
            let mut out = Json::object();
            out.set("schema_version", report::SCHEMA_VERSION);
            out.set("tool", "repro");
            out.set("command", "fuzz");
            out.set("report", report.to_json());
            return emit(Some(out), args, true);
        }
        println!(
            "fuzz: {} case(s) over seeds {}..{} in {:.1}s — all oracles agree \
             (roundtrip {}, compiled {}, placement {}, incremental {}, replay {}, \
             compressed {})",
            report.cases,
            report.seed_lo,
            report.seed_hi,
            report.elapsed.as_secs_f64(),
            report.oracle_runs[0],
            report.oracle_runs[1],
            report.oracle_runs[2],
            report.oracle_runs[3],
            report.oracle_runs[4],
            report.oracle_runs[5],
        );
        return Ok(());
    }

    let selected: Vec<_> = match args.value("--bench") {
        None => benchmarks(scale),
        Some(name) => {
            vec![benchmark(name, scale).ok_or_else(|| format!("unknown benchmark `{name}`"))?]
        }
    };

    if what == "perf" {
        eprintln!(
            "perf-profiling {} benchmark(s) at {scale:?} scale, {reps} reps per detector …",
            selected.len()
        );
        let results: Vec<bigfoot_bench::perf::PerfBench> = selected
            .iter()
            .map(|b| {
                eprintln!("  {}", b.name);
                bigfoot_bench::perf::measure_perf(b.name, &b.program, reps)
            })
            .collect();
        let compiled: Option<Vec<bigfoot_bench::perf::CompiledBench>> =
            args.has("--compiled").then(|| {
                eprintln!("compiled tier throughput (bytecode vs tree-walking interpreter) …");
                selected
                    .iter()
                    .map(|b| {
                        eprintln!("  {}", b.name);
                        bigfoot_bench::perf::measure_compiled(b.name, &b.program, reps)
                    })
                    .collect()
            });
        let compressed: Option<Vec<bigfoot_bench::perf::CompressedBench>> =
            args.has("--compressed").then(|| {
                eprintln!("compressed-trace detection (raw replay vs memoized grammar walk) …");
                selected
                    .iter()
                    .map(|b| {
                        eprintln!("  {}", b.name);
                        bigfoot_bench::perf::measure_compressed(b.name, &b.program, reps)
                    })
                    .collect()
            });
        if let Some(compressed) = &compressed {
            for r in compressed {
                for d in &r.detectors {
                    if !d.matches {
                        return Err(format!(
                            "compressed-replay verdicts diverge from raw replay on `{}` ({})",
                            r.name, d.name
                        ));
                    }
                }
            }
        }
        eprintln!("incremental static analysis (cold vs warm placement cache) …");
        let incremental: Vec<bigfoot_bench::perf::StaticIncrementalBench> = selected
            .iter()
            .map(|b| bigfoot_bench::perf::measure_static_incremental(b.name, &b.program, reps))
            .collect();
        let report = bigfoot_bench::perf::perf_json(
            &results,
            &incremental,
            compiled.as_deref(),
            compressed.as_deref(),
            scale_name,
            reps,
        );
        if let Some(path) = args.value("--check") {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
            let baseline = bigfoot_obs::json::parse(&text)
                .map_err(|e| format!("baseline {path} is not valid JSON: {e}"))?;
            let tolerance: f64 = args.parsed("--tolerance")?.unwrap_or(0.25);
            let lines = bigfoot_bench::perf::check_against_baseline(&report, &baseline, tolerance)?;
            for line in lines {
                eprintln!("  {line}");
            }
            eprintln!("perf within {:.0}% of {path}", tolerance * 100.0);
        }
        if json {
            return emit(Some(report), args, true);
        }
        perf_table(&results);
        incremental_table(&incremental);
        if let Some(compiled) = &compiled {
            compiled_table(compiled);
        }
        if let Some(compressed) = &compressed {
            compressed_table(compressed);
        }
        return Ok(());
    }

    if what == "replay" {
        let workers: Vec<usize> = match args.parsed::<usize>("--replay-workers")? {
            Some(n) => vec![n],
            None => vec![1, 2, 4],
        };
        eprintln!(
            "recording and replaying {} benchmark(s) at {scale:?} scale, workers {workers:?} …",
            selected.len()
        );
        let results: Vec<ReplayResult> = selected
            .iter()
            .map(|b| {
                eprintln!("  {}", b.name);
                measure_replay(b.name, &b.program, &workers, reps)
            })
            .collect();
        for r in &results {
            for run in &r.replays {
                if !run.matches_serial {
                    return Err(format!(
                        "replay verdicts diverge from serial detection on `{}` at {} worker(s)",
                        r.name, run.workers
                    ));
                }
            }
        }
        if json {
            return emit(
                Some(report::replay_json(&results, scale_name, reps)),
                args,
                true,
            );
        }
        replay_table(&results);
        return Ok(());
    }
    eprintln!(
        "measuring {} benchmark(s) at {scale:?} scale, {reps} reps per detector …",
        selected.len()
    );
    let results: Vec<BenchResult> = selected
        .iter()
        .map(|b| {
            eprintln!("  {}", b.name);
            measure(b.name, &b.program, reps)
        })
        .collect();
    // The `static` and `all` reports also cover the incremental pipeline
    // (cold vs warm placement-cache wall time and post-edit skip rate).
    let measure_inc = || -> Vec<bigfoot_bench::perf::StaticIncrementalBench> {
        eprintln!("incremental static analysis (cold vs warm placement cache) …");
        selected
            .iter()
            .map(|b| bigfoot_bench::perf::measure_static_incremental(b.name, &b.program, reps))
            .collect()
    };
    if json {
        let report = match what.as_str() {
            "table1" => report::table1_json(&results, scale_name, reps),
            "table2" => report::table2_json(&results, scale_name, reps),
            "fig2" => report::fig2_json(&results, scale_name, reps),
            "fig8" => report::fig8_json(&results, scale_name, reps),
            "static" => report::static_json(&results, &measure_inc(), scale_name, reps),
            "all" => {
                let mut all = report::envelope("all", scale_name, reps);
                all.set("table1", report::table1_json(&results, scale_name, reps));
                all.set("table2", report::table2_json(&results, scale_name, reps));
                all.set("fig2", report::fig2_json(&results, scale_name, reps));
                all.set("fig8", report::fig8_json(&results, scale_name, reps));
                all.set(
                    "static",
                    report::static_json(&results, &measure_inc(), scale_name, reps),
                );
                all
            }
            other => return Err(format!("unknown command `{other}`")),
        };
        return emit(Some(report), args, true);
    }
    match what.as_str() {
        "table1" => table1(&results),
        "table2" => table2(&results),
        "fig2" => fig2(&results),
        "fig8" => fig8(&results),
        "static" => {
            static_stats(&results);
            incremental_table(&measure_inc());
        }
        "all" => {
            table1(&results);
            println!();
            table2(&results);
            println!();
            fig8(&results);
            println!();
            fig2(&results);
            println!();
            static_stats(&results);
            incremental_table(&measure_inc());
        }
        other => return Err(format!("unknown command `{other}`")),
    }
    Ok(())
}

/// Prints the JSON report to stdout and, with `--out FILE`, writes it to
/// the file too.
fn emit(report: Option<Json>, args: &CliArgs, json: bool) -> Result<(), String> {
    let Some(report) = report else { return Ok(()) };
    if !json {
        return Ok(());
    }
    let text = report.to_string_pretty();
    println!("{text}");
    if let Some(path) = args.value("--out") {
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn table1(results: &[BenchResult]) {
    println!("== Table 1: checker performance ==");
    println!(
        "{:<11} {:>7} {:>9} {:>6} {:>9} | {:>7} {:>7} {:>7} {:>7} {:>7} | {:>6} {:>6} {:>6} {:>6}",
        "program",
        "methods",
        "s/meth",
        "CR",
        "base(ms)",
        "FT",
        "RC",
        "SS",
        "SC",
        "BF",
        "RC/FT",
        "SS/FT",
        "SC/FT",
        "BF/FT"
    );
    for r in results {
        let base = r.base_time;
        let ft = r.run("FT").overhead(base);
        let rc = r.run("RC").overhead(base);
        let ss = r.run("SS").overhead(base);
        let sc = r.run("SC").overhead(base);
        let bf = r.run("BF").overhead(base);
        let cr = r.run("BF").stats.check_ratio();
        println!(
            "{:<11} {:>7} {:>9.4} {:>6.2} {:>9.2} | {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} | {:>6.2} {:>6.2} {:>6.2} {:>6.2}",
            r.name,
            r.static_stats.methods,
            r.static_stats.time_per_method().as_secs_f64(),
            cr,
            base.as_secs_f64() * 1e3,
            ft,
            rc,
            ss,
            sc,
            bf,
            ratio(rc, ft),
            ratio(ss, ft),
            ratio(sc, ft),
            ratio(bf, ft),
        );
    }
    let mean_cr = mean(results.iter().map(|r| r.run("BF").stats.check_ratio()));
    print!(
        "{:<11} {:>7} {:>9.4} {:>6.2} {:>9} |",
        "Mean",
        results
            .iter()
            .map(|r| r.static_stats.methods)
            .sum::<usize>(),
        mean(
            results
                .iter()
                .map(|r| r.static_stats.time_per_method().as_secs_f64())
        ),
        mean_cr,
        ""
    );
    for d in ["FT", "RC", "SS", "SC", "BF"] {
        print!(
            " {:>7.2}",
            geomean(results.iter().map(|r| r.run(d).overhead(r.base_time)))
        );
    }
    print!(" |");
    for d in ["RC", "SS", "SC", "BF"] {
        print!(
            " {:>6.2}",
            geomean(results.iter().map(|r| ratio(
                r.run(d).overhead(r.base_time),
                r.run("FT").overhead(r.base_time)
            )))
        );
    }
    println!();
    println!();
    println!(
        "-- operation-count cost model (shadow+footprint+check+sync units, relative to FT) --"
    );
    println!(
        "{:<11} {:>10} | {:>6} {:>6} {:>6} {:>6}",
        "program", "FT units", "RC", "SS", "SC", "BF"
    );
    for r in results {
        let ft = r.run("FT").model_cost();
        println!(
            "{:<11} {:>10.0} | {:>6.2} {:>6.2} {:>6.2} {:>6.2}",
            r.name,
            ft,
            r.run("RC").model_cost() / ft,
            r.run("SS").model_cost() / ft,
            r.run("SC").model_cost() / ft,
            r.run("BF").model_cost() / ft,
        );
    }
    print!("{:<11} {:>10} |", "GeoMean", "");
    for d in ["RC", "SS", "SC", "BF"] {
        print!(
            " {:>6.2}",
            geomean(
                results
                    .iter()
                    .map(|r| r.run(d).model_cost() / r.run("FT").model_cost())
            )
        );
    }
    println!();
}

fn replay_table(results: &[ReplayResult]) {
    println!("== Trace replay: serial vs sharded parallel detection (BigFoot config) ==");
    println!(
        "{:<11} {:>9} {:>9} {:>10} {:>10} | replay ms (speedup) per workers",
        "program", "trace KB", "events", "record ms", "serial ms"
    );
    for r in results {
        print!(
            "{:<11} {:>9.1} {:>9} {:>10.2} {:>10.2} |",
            r.name,
            r.trace_bytes as f64 / 1024.0,
            r.trace_events,
            r.record_time.as_secs_f64() * 1e3,
            r.serial_time.as_secs_f64() * 1e3,
        );
        for run in &r.replays {
            print!(
                " {}w:{:.2} ({:.2}x)",
                run.workers,
                run.time.as_secs_f64() * 1e3,
                r.serial_time.as_secs_f64() / run.time.as_secs_f64().max(1e-9),
            );
        }
        println!();
    }
    if let Some(first) = results.first() {
        print!("geomean speedup:");
        for run in &first.replays {
            let w = run.workers;
            print!(
                " {}w {:.2}x",
                w,
                geomean(results.iter().map(|r| {
                    let replay = r.replays.iter().find(|x| x.workers == w).expect("worker");
                    r.serial_time.as_secs_f64() / replay.time.as_secs_f64().max(1e-9)
                }))
            );
        }
        println!();
    }
    println!("all replay verdicts matched serial detection bit-for-bit.");
}

fn perf_table(results: &[bigfoot_bench::perf::PerfBench]) {
    println!("== perf baseline: detector event-loop throughput (events/sec) ==");
    println!(
        "{:<11} {:>12} {:>12} {:>12} {:>12} {:>12} | {:>11} {:>7}",
        "program", "FT", "RC", "SS", "SC", "BF", "analysis ms", "entail"
    );
    for r in results {
        print!("{:<11}", r.name);
        for d in DETECTORS {
            print!(" {:>12.3e}", r.run(d).events_per_sec);
        }
        println!(
            " | {:>11.2} {:>6.1}%",
            r.static_obs.analysis_ns as f64 / 1e6,
            r.static_obs.entail_share() * 100.0
        );
    }
    print!("{:<11}", "GeoMean");
    for d in DETECTORS {
        print!(
            " {:>12.3e}",
            geomean(results.iter().map(|r| r.run(d).events_per_sec))
        );
    }
    println!(" |");
}

fn incremental_table(results: &[bigfoot_bench::perf::StaticIncrementalBench]) {
    println!();
    println!(
        "== incremental static analysis: cold vs warm placement cache \
         (warm-after-edit = one-method arithmetic tweak) =="
    );
    println!(
        "{:<11} {:>6} {:>10} {:>10} {:>7} | {:>12} {:>5} {:>5} {:>6}",
        "program", "sites", "cold ms", "warm ms", "w/c", "edit-warm ms", "hit", "miss", "skip"
    );
    for r in results {
        println!(
            "{:<11} {:>6} {:>10.3} {:>10.3} {:>6.2} | {:>12.3} {:>5} {:>5} {:>5.0}%",
            r.name,
            r.sites,
            r.cold_ns as f64 / 1e6,
            r.warm_ns as f64 / 1e6,
            r.warm_over_cold(),
            r.edit_warm_ns as f64 / 1e6,
            r.edit_hits,
            r.edit_misses,
            r.edit_skip_rate() * 100.0,
        );
    }
    let cold: u64 = results.iter().map(|r| r.cold_ns).sum();
    let warm: u64 = results.iter().map(|r| r.warm_ns).sum();
    let hits: usize = results.iter().map(|r| r.edit_hits).sum();
    let total: usize = results.iter().map(|r| r.edit_hits + r.edit_misses).sum();
    println!(
        "{:<11} {:>6} {:>10.3} {:>10.3} {:>6.2} | {:>12} {:>5} {:>5} {:>5.0}%",
        "Total",
        total,
        cold as f64 / 1e6,
        warm as f64 / 1e6,
        if cold > 0 {
            warm as f64 / cold as f64
        } else {
            1.0
        },
        "",
        hits,
        total - hits,
        if total > 0 {
            hits as f64 / total as f64 * 100.0
        } else {
            0.0
        },
    );
}

fn compiled_table(results: &[bigfoot_bench::perf::CompiledBench]) {
    println!();
    println!("== compiled tier: bytecode vs tree-walking interpreter ==");
    println!(
        "{:<11} {:>12} {:>12} {:>8} | {:>12} {:>12} {:>8}",
        "program", "interp st/s", "compiled", "speedup", "interp ev/s", "compiled", "speedup"
    );
    for r in results {
        println!(
            "{:<11} {:>12.3e} {:>12.3e} {:>7.2}x | {:>12.3e} {:>12.3e} {:>7.2}x",
            r.name,
            r.interp_steps_per_sec,
            r.compiled_steps_per_sec,
            r.uninstrumented_speedup(),
            r.interp_events_per_sec,
            r.compiled_events_per_sec,
            r.instrumented_speedup(),
        );
    }
    println!(
        "{:<11} {:>12.3e} {:>12.3e} {:>7.2}x | {:>12.3e} {:>12.3e} {:>7.2}x",
        "GeoMean",
        geomean(results.iter().map(|r| r.interp_steps_per_sec)),
        geomean(results.iter().map(|r| r.compiled_steps_per_sec)),
        geomean(results.iter().map(|r| r.uninstrumented_speedup())),
        geomean(results.iter().map(|r| r.interp_events_per_sec)),
        geomean(results.iter().map(|r| r.compiled_events_per_sec)),
        geomean(results.iter().map(|r| r.instrumented_speedup())),
    );
}

fn compressed_table(results: &[bigfoot_bench::perf::CompressedBench]) {
    println!();
    println!("== compressed traces: size ratio and replay speedup (BF config sizes; speedup per config) ==");
    println!(
        "{:<11} {:>9} {:>9} {:>7} | {:>7} {:>7} {:>7} {:>7} {:>7}",
        "program", "raw KB", "bftc KB", "ratio", "FT", "RC", "SS", "SC", "BF"
    );
    for r in results {
        let bf = r.run("BF");
        print!(
            "{:<11} {:>9.1} {:>9.1} {:>6.1}x |",
            r.name,
            bf.raw_bytes as f64 / 1024.0,
            bf.compressed_bytes as f64 / 1024.0,
            bf.ratio(),
        );
        for d in DETECTORS {
            print!(" {:>6.2}x", r.run(d).speedup());
        }
        println!();
    }
    print!(
        "{:<11} {:>9} {:>9} {:>6.1}x |",
        "GeoMean",
        "",
        "",
        geomean(results.iter().map(|r| r.run("BF").ratio()))
    );
    for d in DETECTORS {
        print!(
            " {:>6.2}x",
            geomean(results.iter().map(|r| r.run(d).speedup()))
        );
    }
    println!();
    println!("all compressed-replay verdicts matched raw replay bit-for-bit.");
}

/// Worker-count flags must make sense before any measurement starts:
/// zero workers is meaningless on the replay path. Mirrors `bfc`'s
/// validation so both CLIs reject the same nonsense the same way.
fn validate_workers(replay_workers: Option<usize>) -> Result<(), String> {
    if replay_workers == Some(0) {
        return Err("--replay-workers wants at least 1 worker".into());
    }
    Ok(())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b <= 1e-9 {
        1.0
    } else {
        a / b
    }
}

fn table2(results: &[BenchResult]) {
    println!("== Table 2: checker space overhead (relative to FastTrack) ==");
    println!(
        "{:<11} {:>10} {:>8} | {:>6} {:>6} {:>6} {:>6}",
        "program", "base cells", "FT/base", "RC/FT", "SS/FT", "SC/FT", "BF/FT"
    );
    for r in results {
        let ft = r.run("FT").stats.shadow_space_peak.max(1) as f64;
        println!(
            "{:<11} {:>10} {:>8.2} | {:>6.2} {:>6.2} {:>6.2} {:>6.2}",
            r.name,
            r.heap_cells,
            ft / r.heap_cells.max(1) as f64,
            r.run("RC").stats.shadow_space_peak as f64 / ft,
            r.run("SS").stats.shadow_space_peak as f64 / ft,
            r.run("SC").stats.shadow_space_peak as f64 / ft,
            r.run("BF").stats.shadow_space_peak as f64 / ft,
        );
    }
    print!(
        "{:<11} {:>10} {:>8.2} |",
        "GeoMean",
        "",
        geomean(results.iter().map(|r| {
            r.run("FT").stats.shadow_space_peak.max(1) as f64 / r.heap_cells.max(1) as f64
        }))
    );
    for d in ["RC", "SS", "SC", "BF"] {
        print!(
            " {:>6.2}",
            geomean(results.iter().map(|r| {
                r.run(d).stats.shadow_space_peak as f64
                    / r.run("FT").stats.shadow_space_peak.max(1) as f64
            }))
        );
    }
    println!();
}

fn fig2(results: &[BenchResult]) {
    println!("== Figure 2: detector comparison (geomean run-time overhead) ==");
    println!(
        "{:<10} {:>28} {:>12}",
        "detector", "check motion/compression", "overhead"
    );
    let descr = [
        ("FT", "none"),
        ("RC", "static redundancy elim."),
        ("SS", "dynamic array compression"),
        ("SC", "RC + SS"),
        ("BF", "static motion + coalescing"),
    ];
    for (d, what) in descr {
        let oh = geomean(results.iter().map(|r| r.run(d).overhead(r.base_time)));
        println!("{d:<10} {what:>28} {oh:>11.2}x");
    }
    let bf_over_ft = geomean(results.iter().map(|r| {
        ratio(
            r.run("BF").overhead(r.base_time),
            r.run("FT").overhead(r.base_time),
        )
    }));
    println!(
        "BigFoot incurs {:.0}% of FastTrack's overhead (paper: 39%).",
        bf_over_ft * 100.0
    );
}

fn fig8(results: &[BenchResult]) {
    println!("== Figure 8: check ratios and BF/FT overhead ==");
    println!(
        "{:<11} {:>9} {:>9} {:>9} {:>9}",
        "program", "FT CR", "BF CR", "BF arrays", "BF fields"
    );
    let mut rows: Vec<&BenchResult> = results.iter().collect();
    rows.sort_by(|a, b| {
        a.run("BF")
            .stats
            .check_ratio()
            .partial_cmp(&b.run("BF").stats.check_ratio())
            .unwrap()
    });
    for r in &rows {
        let bf = &r.run("BF").stats;
        let accesses = bf.accesses().max(1) as f64;
        println!(
            "{:<11} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            r.name,
            1.0,
            bf.check_ratio(),
            bf.array_checks as f64 / accesses,
            bf.field_checks as f64 / accesses,
        );
    }
    println!();
    println!("{:<11} {:>12}", "program", "BF/FT time");
    for r in &rows {
        println!(
            "{:<11} {:>12.2}",
            r.name,
            ratio(
                r.run("BF").overhead(r.base_time),
                r.run("FT").overhead(r.base_time)
            )
        );
    }
}

/// Ablation study: each row disables one ingredient of the analysis on a
/// representative benchmark subset. Returns the JSON report when `json`.
fn ablation(scale: Scale, reps: usize, json: bool) -> Option<Json> {
    let names = ["crypt", "moldyn", "raytracer", "lufact", "sparse", "h2"];
    let mut rows = Vec::new();
    if !json {
        println!("== Ablation: BigFoot minus one ingredient (op-model cost and check ratio) ==");
        println!(
            "{:<14} {:>12} {:>8} {:>12} {:>10}",
            "config", "benchmark", "CR", "model cost", "checks"
        );
    }
    for name in names {
        let b = benchmark(name, scale).expect("benchmark");
        for (label, opts) in ABLATIONS {
            let run = measure_ablation(&b.program, opts, reps);
            if json {
                rows.push(report::ablation_row_json(label, name, &run));
            } else {
                println!(
                    "{:<14} {:>12} {:>8.3} {:>12.0} {:>10}",
                    label,
                    name,
                    run.stats.check_ratio(),
                    run.model_cost(),
                    run.stats.checks,
                );
            }
        }
        if !json {
            println!();
        }
    }
    json.then(|| {
        report::ablation_json(
            rows,
            if scale == Scale::Small {
                "small"
            } else {
                "full"
            },
            reps,
        )
    })
}

fn static_stats(results: &[BenchResult]) {
    println!("== §6.1: StaticBF scaling ==");
    println!(
        "{:<11} {:>8} {:>12} {:>12} {:>9}",
        "program", "methods", "sec/method", "entail(ms)", "share"
    );
    for r in results {
        println!(
            "{:<11} {:>8} {:>12.5} {:>12.3} {:>8.1}%",
            r.name,
            r.static_stats.methods,
            r.static_stats.time_per_method().as_secs_f64(),
            r.static_obs.entail_ns as f64 / 1e6,
            r.static_obs.entail_share() * 100.0,
        );
    }
    let avg = mean(
        results
            .iter()
            .map(|r| r.static_stats.time_per_method().as_secs_f64()),
    );
    let total = bigfoot_bench::StaticObsStats::total(results.iter().map(|r| &r.static_obs));
    println!("mean: {avg:.5} s/method (paper: 0.16 s/method on much larger Java methods)");
    if total.analysis_ns > 0 {
        println!(
            "entailment engine: {:.1}% of analysis wall time ({} queries)",
            total.entail_share() * 100.0,
            total.entail_queries,
        );
        println!(
            "Fourier–Motzkin: {} component runs over {} rows, {} fallbacks to all rows",
            total.fm_components, total.fm_rows, total.fm_fallbacks,
        );
    }
    let _ = DETECTORS;
}

#[cfg(test)]
mod tests {
    use super::validate_workers;

    #[test]
    fn zero_workers_is_rejected_on_every_path() {
        assert!(validate_workers(Some(0))
            .unwrap_err()
            .contains("--replay-workers wants at least 1"));
    }

    #[test]
    fn valid_combinations_pass() {
        assert!(validate_workers(None).is_ok());
        assert!(validate_workers(Some(4)).is_ok());
    }
}
