//! Placement golden test: StaticBF's output for a fixed input set must not
//! change unless a change means to change placements.
//!
//! Each input is instrumented under the default [`InstrumentOptions`] and
//! under every single-ingredient ablation (`no-ownership` is the paper's
//! own placement). The test folds the pretty-printed
//! instrumented program and the field-proxy table into one
//! [`StableHasher`] digest per (input, configuration) and compares the
//! digests against `tests/golden/placements.txt`.
//!
//! Inputs: the 19 full-scale suite programs, plus 200 seeded random
//! programs cycling through every combination of the generator's shape
//! knobs (racy, two locks, volatiles, strided loops, symbolic bounds, fork
//! trees).
//!
//! On a mismatch the test writes the digests it computed to
//! `placements.actual` in the system temp dir. An intended placement
//! change replaces the golden file with that one.

use bigfoot::{instrument_with, InstrumentOptions, Instrumented};
use bigfoot_bfj::{parse_program, pretty, Program};
use bigfoot_obs::stable::StableHasher;
use bigfoot_workloads::{benchmarks, random_program, RandomConfig, Scale};

const GOLDEN: &str = include_str!("golden/placements.txt");

/// Seeded random inputs. They are half the generator's default size, which
/// keeps the test to seconds in a debug build.
const RANDOM_PROGRAMS: u64 = 200;

fn configs() -> Vec<(&'static str, InstrumentOptions)> {
    let full = InstrumentOptions::default();
    vec![
        ("default", full),
        (
            "no-anticipation",
            InstrumentOptions {
                anticipation: false,
                ..full
            },
        ),
        (
            "no-coalescing",
            InstrumentOptions {
                coalescing: false,
                ..full
            },
        ),
        (
            "no-loop-invariants",
            InstrumentOptions {
                loop_invariants: false,
                ..full
            },
        ),
        (
            "no-field-proxies",
            InstrumentOptions {
                field_proxies: false,
                ..full
            },
        ),
        (
            "no-ownership",
            InstrumentOptions {
                ownership: false,
                ..full
            },
        ),
    ]
}

/// Random program `i`: bit `k` of `i` switches on the `k`-th shape knob,
/// so every 64 consecutive seeds cover every knob combination.
fn random_input(i: u64) -> Program {
    let cfg = RandomConfig {
        seed: 0x9e37_79b9 ^ (i + 1),
        racy: i & 1 != 0,
        locks: if i & 2 != 0 { 2 } else { 1 },
        volatiles: i & 4 != 0,
        strided: i & 8 != 0,
        symbolic_bounds: i & 16 != 0,
        fork_trees: i & 32 != 0,
        size: 6,
        ..RandomConfig::default()
    };
    let src = random_program(&cfg);
    parse_program(&src).unwrap_or_else(|e| panic!("random program {i} does not parse: {e}"))
}

fn inputs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = benchmarks(Scale::Full)
        .into_iter()
        .map(|b| (b.name.to_owned(), b.program))
        .collect();
    out.extend((0..RANDOM_PROGRAMS).map(|i| (format!("random-{i:03}"), random_input(i))));
    out
}

/// Digest of everything placement hands to the dynamic side.
fn digest(inst: &Instrumented) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&pretty(&inst.program));
    h.write_usize(inst.proxies.by_class.len());
    for g in &inst.proxies.by_class {
        match g {
            None => h.write_u8(0),
            Some(g) => {
                h.write_u8(1);
                h.write_u32(g.groups);
                h.write_usize(g.group_of.len());
                for &x in &g.group_of {
                    h.write_u32(x);
                }
            }
        }
    }
    h.finish()
}

fn render() -> String {
    let mut out = String::new();
    for (name, program) in inputs() {
        for (config, options) in configs() {
            let inst = instrument_with(&program, options);
            out.push_str(&format!("{name} {config} {:016x}\n", digest(&inst)));
        }
    }
    out
}

#[test]
fn placements_match_golden_digests() {
    let actual = render();
    if actual == GOLDEN {
        return;
    }
    let path = std::env::temp_dir().join("placements.actual");
    let _ = std::fs::write(&path, &actual);
    let diffs: Vec<String> = actual
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(a, g)| a != g)
        .take(10)
        .map(|(a, g)| format!("  expected {g}\n  actual   {a}"))
        .collect();
    panic!(
        "placements differ from tests/golden/placements.txt \
         ({} vs {} lines; digests written to {}):\n{}",
        actual.lines().count(),
        GOLDEN.lines().count(),
        path.display(),
        diffs.join("\n")
    );
}
