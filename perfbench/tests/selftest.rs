//! Self-tests of the benchmark: determinism of the op sequence and the
//! counts, the summary statistics, the known-answer check and the ledger.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the workload tests analyze and run real programs.

use bigfoot_perfbench::driver::{run, Config, END_TO_END, WORKLOADS};
use bigfoot_perfbench::layers::PER_LAYER;
use bigfoot_perfbench::ledger::{account, Span, OP_SPAN};
use bigfoot_perfbench::stats::{beyond, geomean, geomean_of_medians, median, percentile, Rng};
use std::path::PathBuf;

fn config(workload: &str, seed: u64, passes: u64, trace: bool) -> Config {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}-{trace}"));
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    let mut cfg = Config::new(workload, seed, 1.0, trace, dir, exe);
    cfg.setups = 1;
    cfg.passes = Some(passes);
    cfg.min_ops = 0;
    cfg
}

#[test]
fn median_percentile_and_geomean_match_hand_computed_values() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);

    // Nearest rank: the 95th percentile of 1..=20 is the 19th value, and
    // one sample lies beyond it.
    let xs: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(percentile(&xs, 0.95), 19.0);
    assert_eq!(beyond(20, 0.95), 1);
    assert_eq!(percentile(&xs, 0.5), 10.0);
    assert_eq!(percentile(&[7.0], 0.95), 7.0);
    // 200 samples leave exactly ten beyond the p95.
    assert_eq!(beyond(200, 0.95), 10);

    assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
    // Per-input medians 2, 8 (even count: mean of the middle two) → 4.
    let per_input = vec![vec![1.0, 2.0, 100.0], vec![6.0, 10.0]];
    assert!((geomean_of_medians(&per_input) - 4.0).abs() < 1e-12);
}

#[test]
fn permutations_are_seeded() {
    let a = Rng::new(7, 1, 2).permutation(19);
    let b = Rng::new(7, 1, 2).permutation(19);
    let c = Rng::new(8, 1, 2).permutation(19);
    assert_eq!(a, b);
    assert_ne!(a, c);
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..19).collect::<Vec<_>>());
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: Some(0),
    }
}

#[test]
fn layer_self_times_plus_remainder_make_the_op_time() {
    let spans = vec![
        Span {
            op: None,
            ..span("parse", 0, 5, None)
        },
        span(OP_SPAN, 10, 110, None),
        span("static", 12, 40, Some(1)),
        span("exec", 45, 100, Some(1)),
    ];
    let led = account(&spans).expect("well-formed spans");
    assert_eq!(led.op_total_ns, 100);
    assert_eq!(led.op_ns("static"), Some(28));
    assert_eq!(led.op_ns("exec"), Some(55));
    assert_eq!(led.remainder_ns, 100 - 28 - 55);
    assert_eq!(led.setup_ns.get("parse"), Some(&5));

    let overlapping = vec![
        span(OP_SPAN, 0, 100, None),
        span("static", 10, 50, Some(0)),
        span("exec", 40, 90, Some(0)),
    ];
    assert!(account(&overlapping).is_err());
}

#[test]
fn same_seed_gives_the_same_ops_and_counts() {
    let a = run(&config("recheck-edits", 5, 2, false)).expect("run");
    let b = run(&config("recheck-edits", 5, 2, false)).expect("run");
    assert!(a.correct && b.correct);
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.counts, b.counts);
    assert!(a.counts.events > 0 && a.counts.checks_inserted > 0);
    assert!(a.counts.cache_hits > 0 && a.counts.cache_misses > 0);

    let c = run(&config("recheck-edits", 6, 2, false)).expect("run");
    assert_ne!(a.labels, c.labels, "another seed draws other salts");
}

#[test]
fn a_flipped_verdict_counts_as_failed() {
    let mut cfg = config("check-suite", 1, 1, false);
    cfg.flip_input = Some(0);
    let r = run(&cfg).expect("run");
    assert!(!r.correct);
    assert_eq!(r.failed, 1);
    assert_eq!(r.attempted, 19);
}

#[test]
fn the_traced_run_reports_every_per_layer_metric() {
    let r = run(&config("replay-suite", 1, 1, true)).expect("run");
    assert!(r.correct);
    let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names, expected);
    let value = |n: &str| r.metrics.iter().find(|m| m.0 == n).expect("metric").1;
    assert!(value("replay.ms") > 0.0);
    assert!(value("creplay.ms") > 0.0);
    assert!(value("compress.ratio") > 1.0);
}

#[test]
fn benchmark_json_lists_the_metrics_the_runs_print() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let spec = bigfoot_obs::json::parse(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .expect(key)
            .items()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
        ms.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").and_then(|n| n.as_str()).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
