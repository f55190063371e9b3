//! Golden tests for the `repro --json` report schema.
//!
//! These drive the real `repro` binary and assert the machine-readable
//! reports parse and respect their documented invariants (see
//! `docs/OBSERVABILITY.md`): stable envelope keys, `checks <= accesses`,
//! check ratios in `[0, 1]`, and non-negative measured times.

use bigfoot_obs::json::{parse, Json};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

fn parse_stdout(out: &Output) -> Json {
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    parse(&text).unwrap_or_else(|e| panic!("invalid JSON at offset {}: {e:?}\n{text}", e.offset))
}

fn check_envelope(report: &Json, command: &str) {
    assert_eq!(report.get("schema_version").and_then(Json::as_u64), Some(2));
    assert_eq!(report.get("tool").and_then(Json::as_str), Some("repro"));
    assert_eq!(report.get("command").and_then(Json::as_str), Some(command));
    assert_eq!(report.get("scale").and_then(Json::as_str), Some("small"));
    assert_eq!(report.get("reps").and_then(Json::as_u64), Some(1));
}

fn check_benchmark_block(b: &Json) {
    for key in ["name", "base_ms", "heap_cells", "static", "detectors"] {
        assert!(b.get(key).is_some(), "missing benchmark key `{key}`");
    }
    let stat = b.get("static").unwrap();
    assert!(stat.get("methods").and_then(Json::as_u64).unwrap() > 0);
    let per_method = stat.get("per_method").unwrap();
    assert!(!per_method.items().is_empty(), "per-method times present");
    for m in per_method.items() {
        assert!(m.get("name").and_then(Json::as_str).is_some());
        assert!(m.get("ms").and_then(Json::as_f64).unwrap() >= 0.0);
    }
    let share = stat.get("entail_share").and_then(Json::as_f64).unwrap();
    assert!(
        (0.0..=1.0).contains(&share),
        "entail share {share} outside [0,1]"
    );
    assert!(stat.get("entail_queries").and_then(Json::as_u64).unwrap() > 0);

    let detectors = b.get("detectors").unwrap();
    for d in ["FT", "RC", "SS", "SC", "BF"] {
        let run = detectors
            .get(d)
            .unwrap_or_else(|| panic!("missing detector {d}"));
        let stats = run.get("stats").unwrap();
        let accesses = stats.get("accesses").and_then(Json::as_u64).unwrap();
        let checks = stats.get("checks").and_then(Json::as_u64).unwrap();
        assert!(
            checks <= accesses,
            "{d}: checks {checks} > accesses {accesses}"
        );
        let cr = stats.get("check_ratio").and_then(Json::as_f64).unwrap();
        assert!(
            (0.0..=1.0).contains(&cr),
            "{d}: check ratio {cr} outside [0,1]"
        );
        assert!(run.get("time_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(run.get("model_cost").and_then(Json::as_f64).unwrap() >= 0.0);
    }
    // BigFoot must not check more often than the detector it improves on.
    let bf = detectors.get("BF").unwrap().get("stats").unwrap();
    let ft = detectors.get("FT").unwrap().get("stats").unwrap();
    assert!(
        bf.get("checks").and_then(Json::as_u64).unwrap()
            <= ft.get("checks").and_then(Json::as_u64).unwrap()
    );
}

#[test]
fn table1_json_schema_and_invariants() {
    let out = repro(&[
        "table1", "--json", "--scale", "small", "--reps", "1", "--bench", "crypt",
    ]);
    let report = parse_stdout(&out);
    check_envelope(&report, "table1");
    let benches = report.get("benchmarks").unwrap().items();
    assert_eq!(benches.len(), 1);
    check_benchmark_block(&benches[0]);
    let summary = report.get("summary").unwrap();
    for key in [
        "mean_check_ratio",
        "overhead_geomean",
        "overhead_vs_ft_geomean",
        "model_cost_vs_ft_geomean",
    ] {
        assert!(summary.get(key).is_some(), "missing summary key `{key}`");
    }
    let cr = summary
        .get("mean_check_ratio")
        .and_then(Json::as_f64)
        .unwrap();
    assert!((0.0..=1.0).contains(&cr));
}

#[test]
fn static_json_reports_entailment_share_from_spans() {
    let out = repro(&[
        "static", "--json", "--scale", "small", "--reps", "1", "--bench", "moldyn",
    ]);
    let report = parse_stdout(&out);
    check_envelope(&report, "static");
    let summary = report.get("summary").unwrap();
    let analysis_ms = summary.get("analysis_ms").and_then(Json::as_f64).unwrap();
    let entail_ms = summary.get("entail_ms").and_then(Json::as_f64).unwrap();
    let share = summary.get("entail_share").and_then(Json::as_f64).unwrap();
    // The obs spans must have actually observed the analysis: a non-zero
    // total, a non-zero solver share within it, and a sane ratio.
    assert!(analysis_ms > 0.0, "static.instrument span not recorded");
    assert!(entail_ms > 0.0, "entail.query span not recorded");
    assert!(
        entail_ms <= analysis_ms,
        "solver time exceeds analysis time"
    );
    assert!((0.0..=1.0).contains(&share));
    assert!(
        summary
            .get("entail_queries")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    // The solver's component split ran and never fell back on the
    // suite.
    let fm = |key: &str| summary.get(key).and_then(Json::as_u64).unwrap();
    assert!(fm("fm_components") > 0);
    assert!(fm("fm_rows") > 0);
    assert_eq!(fm("fm_fallbacks"), 0);
    // The incremental pipeline's cold/warm wall times and skip rate.
    let cold = summary
        .get("incremental_cold_ms")
        .and_then(Json::as_f64)
        .unwrap();
    let warm = summary
        .get("incremental_warm_ms")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(cold > 0.0, "cold incremental analysis not measured");
    assert!(warm > 0.0, "warm incremental analysis not measured");
    let ratio = summary
        .get("incremental_warm_over_cold")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(ratio > 0.0);
    let skip = summary
        .get("incremental_edit_skip_rate")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(
        (0.0..1.0).contains(&skip),
        "one edited method must miss, the rest hit: {skip}"
    );
    assert!(skip > 0.0, "unchanged methods must hit the cache");
}

#[test]
fn perf_json_always_carries_the_static_incremental_section() {
    let out = repro(&[
        "perf", "--json", "--scale", "small", "--reps", "1", "--bench", "crypt",
    ]);
    let report = parse_stdout(&out);
    check_envelope(&report, "perf");
    let inc = report
        .get("static_incremental")
        .expect("static_incremental section is always on");
    let benches = inc.get("benchmarks").unwrap().items();
    assert_eq!(benches.len(), 1);
    let b = &benches[0];
    assert_eq!(b.get("name").and_then(Json::as_str), Some("crypt"));
    let sites = b.get("sites").and_then(Json::as_u64).unwrap();
    assert!(sites >= 2);
    assert!(b.get("cold_ms").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(b.get("warm_ms").and_then(Json::as_f64).unwrap() > 0.0);
    assert_eq!(
        b.get("edit_misses").and_then(Json::as_u64),
        Some(1),
        "an arithmetic tweak dirties exactly one method"
    );
    assert_eq!(b.get("edit_hits").and_then(Json::as_u64), Some(sites - 1));
    let summary = inc.get("summary").unwrap();
    for key in [
        "cold_ms",
        "warm_ms",
        "warm_over_cold",
        "edit_warm_ms",
        "edit_skip_rate",
    ] {
        assert!(
            summary.get(key).and_then(Json::as_f64).is_some(),
            "missing static_incremental summary key `{key}`"
        );
    }
}

#[test]
fn races_stable_across_identical_invocations() {
    // Same seed/config twice: the reported race count and check counts
    // must be identical (the pipeline is deterministic end to end).
    let run = || {
        let out = repro(&[
            "table1", "--json", "--scale", "small", "--reps", "1", "--bench", "sor",
        ]);
        let report = parse_stdout(&out);
        let b = &report.get("benchmarks").unwrap().items()[0];
        let stats = b
            .get("detectors")
            .unwrap()
            .get("BF")
            .unwrap()
            .get("stats")
            .unwrap();
        (
            stats.get("races").and_then(Json::as_u64).unwrap(),
            stats.get("checks").and_then(Json::as_u64).unwrap(),
            stats.get("accesses").and_then(Json::as_u64).unwrap(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn out_flag_writes_the_report_to_a_file() {
    let dir = std::env::temp_dir().join("repro-golden-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig2.json");
    let path_str = path.to_string_lossy().into_owned();
    let out = repro(&[
        "fig2", "--json", "--scale", "small", "--reps", "1", "--bench", "crypt", "--out", &path_str,
    ]);
    let on_stdout = parse_stdout(&out);
    let from_file = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(on_stdout.to_string_compact(), from_file.to_string_compact());
    check_envelope(&from_file, "fig2");
}

#[test]
fn scale_flag_requires_its_own_value() {
    // The regression the shared parser fixes: a stray `small` positional
    // must not silently select small scale; and unknown flags must error.
    let out = repro(&["table1", "--wat"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
    let out = repro(&["table1", "--scale", "tiny"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scale"));
    // Inline detection is the only online driver: `perf --pipeline` is
    // an unknown flag.
    let out = repro(&["perf", "--pipeline"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("unknown flag `--pipeline`"), "{err}");
    assert!(err.contains("usage:"), "printed no usage: {err}");
    // Replay runs on one inline shard: the worker count is gone.
    let out = repro(&["replay", "--replay-workers", "2"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("unknown flag `--replay-workers`"), "{err}");
    assert!(err.contains("usage:"), "printed no usage: {err}");
}
