//! Golden tests for the `bfc --json` report schema, driving the real
//! binary (see `docs/OBSERVABILITY.md` for the schema).

use bigfoot_obs::json::{parse, Json};
use std::io::Write;
use std::process::{Command, Output};

fn bfc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bfc"))
        .args(args)
        .output()
        .expect("run bfc")
}

fn write_program(name: &str, src: &str) -> String {
    let dir = std::env::temp_dir().join("bfc-golden-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(src.as_bytes()).unwrap();
    path.to_string_lossy().into_owned()
}

fn parse_stdout(out: &Output) -> Json {
    let text = String::from_utf8_lossy(&out.stdout);
    parse(&text).unwrap_or_else(|e| panic!("invalid JSON at offset {}: {e:?}\n{text}", e.offset))
}

const RACY: &str = "
    class C { field x; meth poke(v) { this.x = v; return 0; } }
    main {
        c = new C;
        fork t1 = c.poke(1);
        fork t2 = c.poke(2);
        join(t1); join(t2);
    }";

const CLEAN: &str = "
    main {
        a = new_array(16);
        for (i = 0; i < 16; i = i + 1) { a[i] = i; }
        total = 0;
        for (i = 0; i < 16; i = i + 1) { total = total + a[i]; }
    }";

fn check_stats_block(stats: &Json) {
    let accesses = stats.get("accesses").and_then(Json::as_u64).unwrap();
    let checks = stats.get("checks").and_then(Json::as_u64).unwrap();
    assert!(checks <= accesses, "checks {checks} > accesses {accesses}");
    let cr = stats.get("check_ratio").and_then(Json::as_f64).unwrap();
    assert!((0.0..=1.0).contains(&cr), "check ratio {cr} outside [0,1]");
    assert_eq!(
        stats.get("reads").and_then(Json::as_u64).unwrap()
            + stats.get("writes").and_then(Json::as_u64).unwrap(),
        accesses
    );
}

#[test]
fn check_json_schema_and_exit_codes() {
    let racy = write_program("racy.bfj", RACY);
    let out = bfc(&["check", &racy, "--json"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "racy program still exits 1 under --json"
    );
    let report = parse_stdout(&out);
    assert_eq!(report.get("schema_version").and_then(Json::as_u64), Some(2));
    assert_eq!(report.get("tool").and_then(Json::as_str), Some("bfc"));
    assert_eq!(report.get("command").and_then(Json::as_str), Some("check"));
    assert_eq!(
        report.get("detector").and_then(Json::as_str),
        Some("bigfoot")
    );
    assert_eq!(report.get("any_race").and_then(Json::as_bool), Some(true));
    let runs = report.get("runs").unwrap().items();
    assert_eq!(runs.len(), 1);
    let races = runs[0].get("races").unwrap().items();
    assert!(!races.is_empty());
    assert!(races[0].get("target").and_then(Json::as_str).is_some());
    assert!(races[0].get("info").and_then(Json::as_str).is_some());
    check_stats_block(runs[0].get("stats").unwrap());
}

#[test]
fn check_json_races_stable_across_identical_seeds() {
    let racy = write_program("racy-seed.bfj", RACY);
    let run = |seed: &str| {
        let out = bfc(&["check", &racy, "--json", "--seed", seed, "--schedules", "3"]);
        let report = parse_stdout(&out);
        report.to_string_compact()
    };
    // Identical seeds: byte-identical reports (stats, races, everything).
    assert_eq!(run("42"), run("42"));
}

#[test]
fn clean_program_check_json_has_no_races() {
    let clean = write_program("clean-json.bfj", CLEAN);
    let out = bfc(&["check", &clean, "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let report = parse_stdout(&out);
    assert_eq!(report.get("any_race").and_then(Json::as_bool), Some(false));
    let runs = report.get("runs").unwrap().items();
    assert!(runs[0].get("races").unwrap().items().is_empty());
    check_stats_block(runs[0].get("stats").unwrap());
}

#[test]
fn stats_json_compares_fasttrack_and_bigfoot() {
    let clean = write_program("stats-json.bfj", CLEAN);
    let out = bfc(&["stats", &clean, "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let report = parse_stdout(&out);
    assert_eq!(report.get("command").and_then(Json::as_str), Some("stats"));
    let stat = report.get("static").unwrap();
    assert!(stat.get("methods").and_then(Json::as_u64).unwrap() > 0);
    assert!(stat.get("checks_inserted").and_then(Json::as_u64).unwrap() > 0);
    let dets = report.get("detectors").unwrap();
    let ft = dets.get("fasttrack").unwrap();
    let bf = dets.get("bigfoot").unwrap();
    check_stats_block(ft);
    check_stats_block(bf);
    // The whole point: BigFoot checks strictly less often than FastTrack
    // on this loop-heavy program.
    assert!(
        bf.get("checks").and_then(Json::as_u64).unwrap()
            < ft.get("checks").and_then(Json::as_u64).unwrap()
    );
}

#[test]
fn profile_json_exposes_spans_and_counters() {
    let clean = write_program("profile-json.bfj", CLEAN);
    let out = bfc(&["profile", &clean, "--json"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = parse_stdout(&out);
    assert_eq!(
        report.get("command").and_then(Json::as_str),
        Some("profile")
    );
    let metrics = report.get("metrics").unwrap();
    let timers = metrics.get("timers").unwrap();
    // The pipeline's key spans must have fired.
    for span in ["static.instrument", "static.forward", "entail.query"] {
        let t = timers
            .get(span)
            .unwrap_or_else(|| panic!("missing span {span}"));
        assert!(
            t.get("count").and_then(Json::as_u64).unwrap() > 0,
            "{span} never recorded"
        );
        assert!(
            t.get("total").and_then(Json::as_u64).unwrap() > 0,
            "{span} total is zero"
        );
        // Schema v2: every timer carries interpolated percentiles, and
        // they respect the obvious ordering.
        let pct = |key: &str| {
            t.get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{span} missing {key}"))
        };
        let (p50, p90, p99) = (pct("p50"), pct("p90"), pct("p99"));
        assert!(p50 > 0.0, "{span} p50 is zero");
        assert!(
            p50 <= p90 && p90 <= p99,
            "{span} percentiles out of order: {p50} {p90} {p99}"
        );
    }
    // Solver time is a strict subset of analysis time.
    let total = |name: &str| {
        timers
            .get(name)
            .unwrap()
            .get("total")
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert!(total("entail.query") <= total("static.instrument"));
    // Schema v2: a `gauges` section always exists (it only has entries
    // when a gauge fired, e.g. `pipeline.depth_max` under `--pipeline`).
    assert!(metrics.get("gauges").is_some(), "missing gauges section");
    let counters = metrics.get("counters").unwrap();
    assert!(counters.get("vm.steps").and_then(Json::as_u64).unwrap() > 0);
    assert!(
        counters
            .get("detector.runs")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );
}

#[test]
fn profile_human_output_reports_entailment_share() {
    let clean = write_program("profile-human.bfj", CLEAN);
    let out = bfc(&["profile", &clean]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("static.instrument"), "{text}");
    assert!(
        text.contains("entailment share of static analysis"),
        "{text}"
    );
    assert!(text.contains("-- counters --"), "{text}");
}
