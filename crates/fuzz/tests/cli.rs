//! Integration tests for the `bfc` command line, driving the real binary.

use std::io::Write;
use std::process::{Command, Output};

fn bfc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bfc"))
        .args(args)
        .output()
        .expect("run bfc")
}

fn write_program(name: &str, src: &str) -> String {
    let dir = std::env::temp_dir().join("bfc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(src.as_bytes()).unwrap();
    path.to_string_lossy().into_owned()
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

#[test]
fn check_exit_codes_signal_races() {
    let racy = write_program("racy.bfj", RACY);
    let clean = write_program("clean.bfj", CLEAN);
    let out = bfc(&["check", &racy]);
    assert_eq!(out.status.code(), Some(1), "racy program must exit 1");
    assert!(String::from_utf8_lossy(&out.stdout).contains("race"));
    let out = bfc(&["check", &clean]);
    assert_eq!(out.status.code(), Some(0), "clean program must exit 0");
    assert!(String::from_utf8_lossy(&out.stdout).contains("no races"));
}

#[test]
fn instrument_output_reparses_and_runs() {
    let clean = write_program("clean2.bfj", CLEAN);
    let out = bfc(&["instrument", &clean]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("check("), "{text}");
    // Round-trip: the printed program is valid BFJ and runs identically.
    let round = write_program("clean2-inst.bfj", &text);
    let out = bfc(&["run", &round]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("total = 120"));
}

#[test]
fn run_prints_final_variables() {
    let clean = write_program("clean3.bfj", CLEAN);
    let out = bfc(&["run", &clean]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("total = 120"));
}

#[test]
fn stats_compares_detectors() {
    let clean = write_program("clean4.bfj", CLEAN);
    let out = bfc(&["stats", &clean]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        text.contains("FastTrack") && text.contains("BigFoot"),
        "{text}"
    );
    assert!(text.contains("check ratio"), "{text}");
}

#[test]
fn trace_prints_events_with_limit() {
    let clean = write_program("clean5.bfj", CLEAN);
    let out = bfc(&["trace", &clean, "--limit", "5"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("AllocArr"), "{text}");
    assert!(text.contains("more events"), "{text}");
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(bfc(&[]).status.code(), Some(2));
    assert_eq!(bfc(&["frobnicate", "x.bfj"]).status.code(), Some(2));
    assert_eq!(
        bfc(&["check", "/definitely/missing.bfj"]).status.code(),
        Some(2)
    );
    let clean = write_program("clean6.bfj", CLEAN);
    assert_eq!(
        bfc(&["check", &clean, "--detector", "nosuch"])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        bfc(&["check", &clean, "--schedules", "abc"]).status.code(),
        Some(2)
    );
}

#[test]
fn unknown_and_clashing_driver_flags_are_usage_errors() {
    let racy = write_program("racy3.bfj", RACY);
    for (args, want) in [
        (
            vec!["check", racy.as_str(), "--detect-workers", "2"],
            "--detect-workers",
        ),
        (
            vec!["profile", racy.as_str(), "--detect-workers", "2"],
            "--detect-workers",
        ),
        // The VM is the only executor; the old tier switch is gone.
        (vec!["check", racy.as_str(), "--compiled"], "--compiled"),
        // Inline detection is the only online driver.
        (vec!["check", racy.as_str(), "--pipeline"], "--pipeline"),
        (vec!["profile", racy.as_str(), "--pipeline"], "--pipeline"),
    ] {
        let out = bfc(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(want), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?} printed no usage: {err}");
    }
}

#[test]
fn runtime_errors_exit_2_without_usage_text() {
    let neg = write_program("negative_len.bfj", "main { n = 0 - 3; a = new_array(n); }");
    for args in [vec!["run", neg.as_str()], vec!["check", neg.as_str()]] {
        let out = bfc(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("runtime error: negative array length -3"),
            "{args:?}: {err}"
        );
        assert!(!err.contains("usage:"), "{args:?} printed usage: {err}");
    }
    // A usage error still prints the usage text.
    let err = String::from_utf8_lossy(&bfc(&["frobnicate", &neg]).stderr).into_owned();
    assert!(err.contains("usage:"), "{err}");
}

/// Runs `args` on `path` and expects exit 2 with `want` on stderr and no
/// usage text.
fn expect_typed_error(path: &str, want: &str) {
    for args in [vec!["run", path], vec!["check", path], vec!["stats", path]] {
        let out = bfc(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(want), "{args:?}: {err}");
        assert!(!err.contains("usage:"), "{args:?} printed usage: {err}");
    }
}

#[test]
fn huge_arrays_are_a_runtime_error_not_an_abort() {
    let huge = write_program("huge_array.bfj", "main { a = new_array(4000000000000); }");
    expect_typed_error(
        &huge,
        "runtime error: array length 4000000000000 exceeds the limit",
    );
}

#[test]
fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
    let deep = 20_000;
    let parens = format!("main {{ x = {}1{}; }}", "(".repeat(deep), ")".repeat(deep));
    let chain = format!("main {{ x = 1{}; }}", " + 1".repeat(deep));
    let negs = format!("main {{ x = {}1; }}", "-".repeat(deep));
    let blocks = format!(
        "main {{ {}{} }}",
        "if (true) { ".repeat(deep),
        "}".repeat(deep)
    );
    for (name, src) in [
        ("deep_parens.bfj", parens),
        ("deep_chain.bfj", chain),
        ("deep_negs.bfj", negs),
        ("deep_blocks.bfj", blocks),
    ] {
        expect_typed_error(&write_program(name, &src), "nesting deeper than");
    }
    // Just under the budget everything still works, in the debug build too.
    let ok = format!(
        "main {{ y = 3; x = {}y; a = new_array(2); a[0] = {}x{}; }}",
        "-".repeat(90),
        "(".repeat(90),
        ")".repeat(90)
    );
    let ok = write_program("deep_ok.bfj", &ok);
    for args in [vec!["run", ok.as_str()], vec!["check", ok.as_str()]] {
        let out = bfc(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn every_detector_flag_works() {
    let racy = write_program("racy2.bfj", RACY);
    for det in [
        "bigfoot",
        "fasttrack",
        "redcard",
        "slimstate",
        "slimcard",
        "djit",
    ] {
        let out = bfc(&["check", &racy, "--detector", det, "--schedules", "3"]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{det} must find the race: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

/// Records `main { a = new_array(4); a[0] = 1; }` with `--record-out` and
/// returns the raw (`BFTR`) or compressed (`BFTC`) trace bytes plus the
/// offset of the array allocation's length byte.
fn recorded_small_array(compressed: bool) -> (Vec<u8>, usize) {
    let src = write_program("small_array.bfj", "main { a = new_array(4); a[0] = 1; }");
    let (name, len_at) = if compressed {
        // Header, one-byte dictionary count, then the allocation event.
        ("small_array.bftc", 9)
    } else {
        ("small_array.bftr", 8)
    };
    let trace = std::env::temp_dir().join("bfc-cli-tests").join(name);
    let trace = trace.to_string_lossy().into_owned();
    let mut args = vec!["check", &src, "--record-out", &trace];
    if compressed {
        args.push("--compress-trace");
    }
    assert_eq!(bfc(&args).status.code(), Some(0));
    let bytes = std::fs::read(&trace).unwrap();
    // TAG_ALLOC_ARR, thread 0, array 0, length 4.
    assert_eq!(
        bytes[len_at - 3..=len_at],
        [1, 0, 0, 4],
        "{name}: {bytes:?}"
    );
    (bytes, len_at)
}

#[test]
fn oversized_array_traces_are_a_typed_error_not_an_abort() {
    let detectors = ["bigfoot", "fasttrack", "redcard", "slimstate", "slimcard"];
    for compressed in [false, true] {
        let (bytes, len_at) = recorded_small_array(compressed);
        let path = |tag: &str| {
            let ext = if compressed { "bftc" } else { "bftr" };
            let p = std::env::temp_dir()
                .join("bfc-cli-tests")
                .join(format!("{tag}.{ext}"));
            p.to_string_lossy().into_owned()
        };
        let replay = |file: &str, det: &str| bfc(&["replay", file, "--detector", det]);

        // The untouched recording replays cleanly; a truncated one is a
        // typed error (exit 2) — and so is an impossible array length.
        let intact = path("intact");
        std::fs::write(&intact, &bytes).unwrap();
        let cut = path("cut");
        std::fs::write(&cut, &bytes[..bytes.len() - 1]).unwrap();
        for det in detectors {
            assert_eq!(replay(&intact, det).status.code(), Some(0), "{det}");
            assert_eq!(replay(&cut, det).status.code(), Some(2), "{det}");
        }
        for len in [1u64 << 40, u64::MAX] {
            let mut huge = Vec::new();
            let mut v = len;
            loop {
                let b = (v & 0x7f) as u8;
                v >>= 7;
                if v == 0 {
                    huge.push(b);
                    break;
                }
                huge.push(b | 0x80);
            }
            let mut bad = bytes.clone();
            bad.splice(len_at..=len_at, huge);
            let file = path(&format!("huge{len}"));
            std::fs::write(&file, &bad).unwrap();
            for det in detectors {
                let out = replay(&file, det);
                let err = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(2), "{file} {det}: {err}");
                assert!(
                    err.contains(&format!("array length {len}"))
                        && err.contains("exceeds the limit"),
                    "{file} {det}: {err}"
                );
                assert!(!err.contains("usage:"), "{file} {det}: {err}");
            }
        }
    }
}
