//! Machine-readable reports for the `repro` binary.
//!
//! Every `repro <command> --json` emits one JSON object with a stable
//! schema (see `docs/OBSERVABILITY.md`):
//!
//! ```text
//! {
//!   "schema_version": 2,
//!   "tool": "repro",
//!   "command": "table1",
//!   "scale": "small",
//!   "reps": 3,
//!   "benchmarks": [ { per-benchmark block } ],
//!   "summary":    { command-specific aggregates }
//! }
//! ```
//!
//! The per-benchmark block is shared by every command so downstream
//! tooling can parse all reports with one schema. The golden tests in
//! `crates/bench/tests/golden_json.rs` pin the invariants (keys present,
//! `checks <= accesses`, check ratio in `[0, 1]`, …).

use crate::{geomean, mean, BenchResult, DetectorRun, ReplayResult, StaticObsStats, DETECTORS};
use bigfoot_detectors::Stats;
use bigfoot_obs::json::Json;

/// Schema version stamped into every report; bump on breaking changes.
/// v2: kept in lockstep with `bfc`'s report schema, whose snapshot
/// timers gained `p50`/`p90`/`p99` percentile fields and a `gauges`
/// section in the same release.
pub const SCHEMA_VERSION: u64 = 2;

/// The common envelope of every `repro` report.
pub fn envelope(command: &str, scale: &str, reps: usize) -> Json {
    let mut out = Json::object();
    out.set("schema_version", SCHEMA_VERSION);
    out.set("tool", "repro");
    out.set("command", command);
    out.set("scale", scale);
    out.set("reps", reps as u64);
    out
}

/// Detector statistics as a JSON object (same schema as `bfc --json`).
pub fn stats_json(s: &Stats) -> Json {
    s.to_json()
}

fn detector_run_json(run: &DetectorRun, base: std::time::Duration) -> Json {
    let mut out = Json::object();
    out.set("time_ms", run.time.as_secs_f64() * 1e3);
    out.set("overhead", run.overhead(base));
    out.set("model_cost", run.model_cost());
    out.set("stats", stats_json(&run.stats));
    out
}

/// The shared per-benchmark block.
pub fn benchmark_json(r: &BenchResult) -> Json {
    let mut out = Json::object();
    out.set("name", r.name);
    out.set("base_ms", r.base_time.as_secs_f64() * 1e3);
    out.set("heap_cells", r.heap_cells);

    let mut stat = Json::object();
    stat.set("methods", r.static_stats.methods as u64);
    stat.set("checks_inserted", r.static_stats.checks_inserted as u64);
    stat.set("total_ms", r.static_stats.total_time.as_secs_f64() * 1e3);
    stat.set(
        "sec_per_method",
        r.static_stats.time_per_method().as_secs_f64(),
    );
    let mut per_method = Json::array();
    for (name, dt) in &r.static_stats.per_method {
        let mut m = Json::object();
        m.set("name", name.as_str());
        m.set("ms", dt.as_secs_f64() * 1e3);
        per_method.push(m);
    }
    stat.set("per_method", per_method);
    stat.set("entail_ms", r.static_obs.entail_ns as f64 / 1e6);
    stat.set("entail_share", r.static_obs.entail_share());
    stat.set("entail_queries", r.static_obs.entail_queries);
    set_fm_fields(&mut stat, &r.static_obs);
    out.set("static", stat);

    let mut detectors = Json::object();
    for d in DETECTORS {
        detectors.set(d, detector_run_json(r.run(d), r.base_time));
    }
    out.set("detectors", detectors);
    out
}

/// The Fourier–Motzkin split counters of a static block.
pub(crate) fn set_fm_fields(stat: &mut Json, s: &StaticObsStats) {
    stat.set("fm_components", s.fm_components);
    stat.set("fm_rows", s.fm_rows);
    stat.set("fm_fallbacks", s.fm_fallbacks);
    stat.set("budget_hits", s.budget_hits);
    stat.set("ownership_paths_removed", s.ownership_paths_removed);
}

fn with_benchmarks(mut env: Json, results: &[BenchResult]) -> Json {
    let mut arr = Json::array();
    for r in results {
        arr.push(benchmark_json(r));
    }
    env.set("benchmarks", arr);
    env
}

fn overhead_geomeans(results: &[BenchResult]) -> Json {
    let mut out = Json::object();
    for d in DETECTORS {
        out.set(
            d,
            geomean(results.iter().map(|r| r.run(d).overhead(r.base_time))),
        );
    }
    out
}

fn ft_relative(results: &[BenchResult], f: impl Fn(&BenchResult, &str) -> f64) -> Json {
    let mut out = Json::object();
    for d in ["RC", "SS", "SC", "BF"] {
        out.set(d, geomean(results.iter().map(|r| f(r, d))));
    }
    out
}

/// `repro table1 --json`: overheads and the op-count cost model.
pub fn table1_json(results: &[BenchResult], scale: &str, reps: usize) -> Json {
    let env = with_benchmarks(envelope("table1", scale, reps), results);
    let mut summary = Json::object();
    summary.set(
        "mean_check_ratio",
        mean(results.iter().map(|r| r.run("BF").stats.check_ratio())),
    );
    summary.set("overhead_geomean", overhead_geomeans(results));
    summary.set(
        "overhead_vs_ft_geomean",
        ft_relative(results, |r, d| {
            safe_ratio(
                r.run(d).overhead(r.base_time),
                r.run("FT").overhead(r.base_time),
            )
        }),
    );
    summary.set(
        "model_cost_vs_ft_geomean",
        ft_relative(results, |r, d| {
            r.run(d).model_cost() / r.run("FT").model_cost().max(1e-9)
        }),
    );
    finish(env, summary)
}

/// `repro table2 --json`: shadow-space overhead relative to FastTrack.
pub fn table2_json(results: &[BenchResult], scale: &str, reps: usize) -> Json {
    let env = with_benchmarks(envelope("table2", scale, reps), results);
    let mut summary = Json::object();
    summary.set(
        "ft_over_base_geomean",
        geomean(results.iter().map(|r| {
            r.run("FT").stats.shadow_space_peak.max(1) as f64 / r.heap_cells.max(1) as f64
        })),
    );
    summary.set(
        "space_vs_ft_geomean",
        ft_relative(results, |r, d| {
            r.run(d).stats.shadow_space_peak as f64
                / r.run("FT").stats.shadow_space_peak.max(1) as f64
        }),
    );
    finish(env, summary)
}

/// `repro fig2 --json`: the headline geomean-overhead comparison.
pub fn fig2_json(results: &[BenchResult], scale: &str, reps: usize) -> Json {
    let env = with_benchmarks(envelope("fig2", scale, reps), results);
    let mut summary = Json::object();
    summary.set("overhead_geomean", overhead_geomeans(results));
    summary.set("bf_over_ft", bf_over_ft(results));
    finish(env, summary)
}

/// `repro fig8 --json`: check ratios and the BF/FT overhead ratio.
pub fn fig8_json(results: &[BenchResult], scale: &str, reps: usize) -> Json {
    let env = with_benchmarks(envelope("fig8", scale, reps), results);
    let mut summary = Json::object();
    summary.set(
        "mean_check_ratio",
        mean(results.iter().map(|r| r.run("BF").stats.check_ratio())),
    );
    summary.set("bf_over_ft", bf_over_ft(results));
    finish(env, summary)
}

/// `repro static --json`: the §6.1 scaling claim, with per-method wall
/// times, the entailment engine's measured share of analysis time
/// (sourced from `bigfoot-obs` spans), and the incremental pipeline's
/// cold/warm wall times and post-edit skip rate.
pub fn static_json(
    results: &[BenchResult],
    incremental: &[crate::perf::StaticIncrementalBench],
    scale: &str,
    reps: usize,
) -> Json {
    let env = with_benchmarks(envelope("static", scale, reps), results);
    let mut summary = Json::object();
    summary.set(
        "mean_sec_per_method",
        mean(
            results
                .iter()
                .map(|r| r.static_stats.time_per_method().as_secs_f64()),
        ),
    );
    let total = StaticObsStats::total(results.iter().map(|r| &r.static_obs));
    summary.set("analysis_ms", total.analysis_ns as f64 / 1e6);
    summary.set("entail_ms", total.entail_ns as f64 / 1e6);
    summary.set("entail_share", total.entail_share());
    summary.set("entail_queries", total.entail_queries);
    set_fm_fields(&mut summary, &total);
    let cold_ns: u64 = incremental.iter().map(|r| r.cold_ns).sum();
    let warm_ns: u64 = incremental.iter().map(|r| r.warm_ns).sum();
    summary.set("incremental_cold_ms", cold_ns as f64 / 1e6);
    summary.set("incremental_warm_ms", warm_ns as f64 / 1e6);
    summary.set(
        "incremental_warm_over_cold",
        if cold_ns > 0 {
            warm_ns as f64 / cold_ns as f64
        } else {
            1.0
        },
    );
    let hits: usize = incremental.iter().map(|r| r.edit_hits).sum();
    let total: usize = incremental
        .iter()
        .map(|r| r.edit_hits + r.edit_misses)
        .sum();
    summary.set(
        "incremental_edit_skip_rate",
        if total > 0 {
            hits as f64 / total as f64
        } else {
            0.0
        },
    );
    finish(env, summary)
}

/// One `repro ablation --json` row.
pub fn ablation_row_json(config: &str, benchmark: &str, run: &DetectorRun) -> Json {
    let mut out = Json::object();
    out.set("config", config);
    out.set("benchmark", benchmark);
    out.set("check_ratio", run.stats.check_ratio());
    out.set("model_cost", run.model_cost());
    out.set("checks", run.stats.checks);
    out.set("races", run.stats.races.len() as u64);
    out
}

/// The `repro ablation --json` envelope around collected rows.
pub fn ablation_json(rows: Vec<Json>, scale: &str, reps: usize) -> Json {
    let mut env = envelope("ablation", scale, reps);
    let mut arr = Json::array();
    for row in rows {
        arr.push(row);
    }
    env.set("rows", arr);
    env
}

/// `repro replay --json`: serial detection vs trace replay.
///
/// Deterministic content (trace shape, races, counters, the
/// `serial_matches` verdict) lives under each benchmark's `verdicts`
/// block; wall-clock measurements live under `timing` and the top-level
/// `timing_summary` key.
pub fn replay_json(results: &[ReplayResult], scale: &str, reps: usize) -> Json {
    let mut env = envelope("replay", scale, reps);
    let mut arr = Json::array();
    for r in results {
        let mut b = Json::object();
        b.set("name", r.name);

        let mut verdicts = Json::object();
        verdicts.set("trace_bytes", r.trace_bytes);
        verdicts.set("trace_events", r.trace_events);
        let mut races = Json::array();
        for race in &r.serial_stats.races {
            let mut row = Json::object();
            row.set("target", race.target.to_string());
            row.set("info", race.info.to_string());
            races.push(row);
        }
        verdicts.set("races", races);
        verdicts.set("stats", stats_json(&r.serial_stats));
        verdicts.set("serial_matches", r.matches_serial);
        b.set("verdicts", verdicts);

        let mut timing = Json::object();
        timing.set("record_ms", r.record_time.as_secs_f64() * 1e3);
        timing.set("serial_ms", r.serial_time.as_secs_f64() * 1e3);
        timing.set("replay_ms", r.replay_time.as_secs_f64() * 1e3);
        b.set("timing", timing);
        arr.push(b);
    }
    env.set("benchmarks", arr);

    let mut summary = Json::object();
    summary.set("all_match", results.iter().all(|r| r.matches_serial));
    env.set("summary", summary);

    let mut timing_summary = Json::object();
    timing_summary.set(
        "speedup_geomean",
        geomean(
            results
                .iter()
                .map(|r| r.serial_time.as_secs_f64() / r.replay_time.as_secs_f64().max(1e-9)),
        ),
    );
    env.set("timing_summary", timing_summary);
    env
}

fn bf_over_ft(results: &[BenchResult]) -> f64 {
    geomean(results.iter().map(|r| {
        safe_ratio(
            r.run("BF").overhead(r.base_time),
            r.run("FT").overhead(r.base_time),
        )
    }))
}

fn safe_ratio(a: f64, b: f64) -> f64 {
    if b <= 1e-9 {
        1.0
    } else {
        a / b
    }
}

fn finish(mut env: Json, summary: Json) -> Json {
    env.set("summary", summary);
    env
}
