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
    // when a gauge fired, e.g. `trace.compression_ratio_x1000` under
    // `--record-out FILE --compress-trace`).
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
fn profile_json_counts_the_compressed_container() {
    let clean = write_program("profile-bftc.bfj", CLEAN);
    let trace = std::env::temp_dir()
        .join("bfc-golden-tests")
        .join("profile.bftc");
    let trace = trace.to_string_lossy().into_owned();
    let out = bfc(&[
        "profile",
        &clean,
        "--json",
        "--record-out",
        &trace,
        "--compress-trace",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let counters = parse_stdout(&out)
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .cloned()
        .expect("counters");
    let counter = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
    let bytes = std::fs::read(&trace).unwrap();
    let ct = bigfoot_bfj::read_compressed(&bytes).expect("valid BFTC");
    assert_eq!(counter("trace.dict_entries"), ct.dict.len() as u64);
    assert_eq!(counter("trace.rules"), ct.rules.len() as u64);
    assert_eq!(counter("trace.compressed_bytes"), bytes.len() as u64 - 5);
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

/// A lock-bound program: `main` fills `input` before the first fork,
/// the workers read it (R3), touch `out` and `cur.pos` only under the one
/// lock `main` allocates (R2), and keep a scratch array of their own (R1).
const OWNED: &str = "class Cursor { field pos; }
class Lk { }
class T {
    meth work(input, out, cur, lock) {
        tmp = new_array(4);
        for (i = 0; i < input.length; i = i + 1) {
            tmp[i % 4] = input[i];
            acq(lock);
            p = cur.pos;
            out[p % out.length] = tmp[i % 4];
            cur.pos = p + 1;
            rel(lock);
        }
        return 0;
    }
}
main {
    input = new_array(8);
    for (i = 0; i < 8; i = i + 1) { input[i] = i; }
    out = new_array(8);
    cur = new Cursor;
    lock = new Lk;
    t = new T;
    fork t1 = t.work(input, out, cur, lock);
    fork t2 = t.work(input, out, cur, lock);
    join(t1);
    join(t2);
}
";

#[test]
fn analyze_json_explains_the_ownership_pass() {
    let file = write_program("owned.bfj", OWNED);
    let out = bfc(&["analyze", &file, "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let report = parse_stdout(&out);
    let stat = report.get("static").unwrap();
    assert_eq!(
        stat.get("ownership_paths_removed").and_then(Json::as_u64),
        Some(4)
    );
    let rows: Vec<String> = report
        .get("ownership")
        .unwrap()
        .items()
        .iter()
        .map(|o| {
            format!(
                "{}:{} {} {} lock={:?} paths={}",
                o.get("method").and_then(Json::as_str).unwrap(),
                o.get("line").and_then(Json::as_u64).unwrap(),
                o.get("field").and_then(Json::as_str).unwrap(),
                o.get("rule").and_then(Json::as_str).unwrap(),
                o.get("lock_line").and_then(Json::as_u64),
                o.get("paths").and_then(Json::as_u64).unwrap(),
            )
        })
        .collect();
    assert_eq!(
        rows,
        [
            "T.work:5 [] local lock=None paths=1",
            "main:18 [] readonly lock=None paths=1",
            "main:20 [] locked lock=Some(22) paths=1",
            "main:21 pos locked lock=Some(22) paths=1",
        ]
    );
    // The human report names the same locations.
    let text = String::from_utf8_lossy(&bfc(&["analyze", &file]).stdout).into_owned();
    assert!(
        text.contains("ownership: main line 21 pos — locked (lock allocated on line 22)"),
        "{text}"
    );
}

#[test]
fn profile_reports_static_budgets_even_at_zero() {
    let file = write_program("owned-profile.bfj", OWNED);
    let out = bfc(&["profile", &file, "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let report = parse_stdout(&out);
    let budgets = report.get("static_budgets").unwrap();
    for name in [
        "static.budget.fm_atoms",
        "static.budget.fm_rows",
        "static.budget.bools_dropped",
        "static.budget.aliases_dropped",
        "static.budget.inv_iters",
        "static.budget.loop_iters",
        "static.ownership.budget_hits",
    ] {
        assert_eq!(budgets.get(name).and_then(Json::as_u64), Some(0), "{name}");
    }
    assert_eq!(
        budgets
            .get("static.ownership.paths_removed.locked")
            .and_then(Json::as_u64),
        Some(2)
    );
    let timers = report.get("metrics").unwrap().get("timers").unwrap();
    assert!(timers.get("static.ownership").is_some());
}
