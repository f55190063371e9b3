//! BFTC golden test: the bytes of every compressed container the live
//! [`CompressedTraceWriter`] emits for a fixed input set must not change
//! unless a change means to change the container format or the grammar
//! builder.
//!
//! Each input runs once on the compiled VM into a `CompressedTraceWriter`
//! and once into a [`TraceWriter`]. The test asserts that compressing the
//! raw `BFTR` trace after the fact (`compress`) yields the live container
//! byte for byte, then folds the container into one [`StableHasher`]
//! digest per input and compares the digests against
//! `tests/golden/bftc.txt`.
//!
//! Inputs: the 19 full-scale suite programs, instrumented and
//! uninstrumented (the traces `repro perf --compressed` and perfbench's
//! replay workload record); 56 seeded random programs, instrumented,
//! under the default and a seeded random scheduler; and the fuzz corpus
//! programs, instrumented and uninstrumented.
//!
//! On a mismatch the test writes the digests it computed to `bftc.actual`
//! in the system temp dir. An intended container change replaces the
//! golden file with that one.

use bigfoot::instrument;
use bigfoot_bfj::{
    compile, compress, parse_program, CompiledVm, CompressedTraceWriter, Program, SchedPolicy,
    TraceWriter,
};
use bigfoot_obs::stable::StableHasher;
use bigfoot_workloads::{benchmarks, random_program, RandomConfig, Scale};
use std::path::Path;

const GOLDEN: &str = include_str!("golden/bftc.txt");

const RANDOM_PROGRAMS: u64 = 56;

const POLICIES: [SchedPolicy; 2] = [
    SchedPolicy::RoundRobin { quantum: 64 },
    SchedPolicy::Random {
        seed: 0xB7C,
        switch_inv: 2,
    },
];

/// Random program `i`: bit 0 makes it racy, bit 1 adds two workers, bit 2
/// turns on volatiles and strided loops, bit 3 fork trees and a second
/// lock.
fn random_input(i: u64) -> String {
    random_program(&RandomConfig {
        seed: 0xB7C0_0000 ^ (i + 1),
        size: 16,
        threads: if i & 2 != 0 { 4 } else { 2 },
        array_len: 32,
        racy: i & 1 != 0,
        locks: if i & 8 != 0 { 2 } else { 1 },
        volatiles: i & 4 != 0,
        strided: i & 4 != 0,
        symbolic_bounds: i & 16 != 0,
        fork_trees: i & 8 != 0,
    })
}

/// The fuzz corpus programs, sorted by file name.
fn corpus() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../fuzz/corpus");
    let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "bfj"))
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&p).expect("read corpus entry");
            (name, src)
        })
        .collect();
    out.sort();
    assert!(!out.is_empty(), "no corpus programs in {}", dir.display());
    out
}

/// Records `program` under `policy` both ways, checks that the offline
/// compressor reproduces the live container, and digests the container.
fn digest(name: &str, program: &Program, policy: SchedPolicy) -> u64 {
    let lowered = compile(program);
    let mut live = CompressedTraceWriter::new();
    let live_run = CompiledVm::new(&lowered, policy).run(&mut live);
    let events = live.events();
    let container = live.into_bytes();
    let mut raw = TraceWriter::new();
    let raw_run = CompiledVm::new(&lowered, policy).run(&mut raw);
    assert_eq!(
        format!("{live_run:?}"),
        format!("{raw_run:?}"),
        "{name}: the two recordings ran differently"
    );
    let offline = compress(&raw.into_bytes()).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        offline == container,
        "{name}: compress(bftr) differs from the live container \
         ({} vs {} bytes)",
        offline.len(),
        container.len()
    );
    let mut h = StableHasher::new();
    h.write_bool(live_run.is_ok());
    h.write_u64(events);
    h.write_bytes(&container);
    h.finish()
}

fn render() -> String {
    let mut out = String::new();
    let mut line = |name: &str, d: u64| out.push_str(&format!("{name} {d:016x}\n"));
    for b in benchmarks(Scale::Full) {
        let inst = instrument(&b.program).program;
        let name = format!("{}/instrumented", b.name);
        line(&name, digest(&name, &inst, SchedPolicy::default()));
        let name = format!("{}/base", b.name);
        line(&name, digest(&name, &b.program, SchedPolicy::default()));
    }
    for i in 0..RANDOM_PROGRAMS {
        let program = parse_program(&random_input(i)).expect("random program parses");
        let inst = instrument(&program).program;
        for (k, policy) in POLICIES.into_iter().enumerate() {
            let name = format!("random-{i:02}/p{k}");
            line(&name, digest(&name, &inst, policy));
        }
    }
    for (file, src) in corpus() {
        let program = parse_program(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
        let inst = instrument(&program).program;
        let name = format!("{file}/instrumented");
        line(&name, digest(&name, &inst, SchedPolicy::default()));
        let name = format!("{file}/base");
        line(&name, digest(&name, &program, SchedPolicy::default()));
    }
    out
}

#[test]
fn containers_match_golden_digests() {
    let actual = render();
    if actual == GOLDEN {
        return;
    }
    let path = std::env::temp_dir().join("bftc.actual");
    let _ = std::fs::write(&path, &actual);
    let diffs: Vec<String> = actual
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(a, g)| a != g)
        .take(10)
        .map(|(a, g)| format!("  expected {g}\n  actual   {a}"))
        .collect();
    panic!(
        "BFTC containers differ from tests/golden/bftc.txt \
         ({} vs {} lines; digests written to {}):\n{}",
        actual.lines().count(),
        GOLDEN.lines().count(),
        path.display(),
        diffs.join("\n")
    );
}
