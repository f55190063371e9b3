//! Parity test: detection over grammar-compressed (`BFTC`) traces must
//! reproduce the report of the serial detector fed the live run
//! **bit-for-bit**: same races in the same order, same counters, same
//! space accounting — including runs whose repetitions the grammar walk
//! skipped by memoization.
//!
//! Coverage: every suite benchmark (small scale), every fuzz-corpus
//! program and 60 seeded random programs under randomized schedules,
//! each under all five detector configurations of Fig. 2 with the
//! program each detector expects; the compressed container's byte-exact
//! round trip; and memoized runs against full expansion.

use bigfoot::{instrument, redcard_instrument};
use bigfoot_bfj::trace::compress::{compress, decompress};
use bigfoot_bfj::{
    compile, parse_program, trace::TraceWriter, CompiledProgram, CompiledVm, Program, SchedPolicy,
};
use bigfoot_detectors::{
    replay_compressed_report, replay_trace, CompressedReplayReport, Detector, ReplayConfig, Stats,
};
use bigfoot_workloads::{benchmarks, random_program, RandomConfig, Scale};
use std::path::Path;

/// One Fig. 2 configuration: the program its detector consumes, lowered,
/// and the detector's configuration.
struct Fig2 {
    name: &'static str,
    program: CompiledProgram,
    config: ReplayConfig,
}

/// The five configurations of Fig. 2 for `program`.
fn fig2(program: &Program) -> Vec<Fig2> {
    let inst = instrument(program);
    let (rc, rc_proxies) = redcard_instrument(program);
    let row = |name, program: &Program, config| Fig2 {
        name,
        program: compile(program),
        config,
    };
    vec![
        row("fasttrack", program, ReplayConfig::fasttrack(1)),
        row("slimstate", program, ReplayConfig::slimstate(1)),
        row("redcard", &rc, ReplayConfig::redcard(rc_proxies.clone(), 1)),
        row("slimcard", &rc, ReplayConfig::slimcard(rc_proxies, 1)),
        row(
            "bigfoot",
            &inst.program,
            ReplayConfig::bigfoot(inst.proxies, 1),
        ),
    ]
}

/// The serial detector of `config`, fed the live run.
fn live(program: &CompiledProgram, policy: SchedPolicy, config: &ReplayConfig) -> Stats {
    let mut det = Detector::new("live", config.source, config.engine, config.proxies.clone());
    CompiledVm::new(program, policy).run(&mut det).expect("run");
    det.finish()
}

fn record(program: &CompiledProgram, policy: SchedPolicy) -> Vec<u8> {
    let mut w = TraceWriter::new();
    CompiledVm::new(program, policy).run(&mut w).expect("run");
    w.into_bytes()
}

#[track_caller]
fn assert_identical(label: &str, compressed: &Stats, live: &Stats) {
    assert_eq!(compressed.races, live.races, "{label}: races diverge");
    assert_eq!(
        compressed.to_json().to_string_compact(),
        live.to_json().to_string_compact(),
        "{label}: stats diverge"
    );
}

/// Compresses, checks the byte-exact round trip, and returns the packed
/// container.
fn pack(label: &str, raw: &[u8]) -> Vec<u8> {
    let packed = compress(raw).expect("compress");
    assert_eq!(
        decompress(&packed).expect("decompress").as_slice(),
        raw,
        "{label}: compressed round trip must be byte-exact"
    );
    packed
}

/// Detects on `c`'s compressed trace and compares it with the live run;
/// returns the live stats and the memoization report.
fn assert_parity(label: &str, c: &Fig2, policy: SchedPolicy) -> (Stats, CompressedReplayReport) {
    let label = format!("{label}/{}", c.name);
    let truth = live(&c.program, policy, &c.config);
    let packed = pack(&label, &record(&c.program, policy));
    let (stats, report) = replay_compressed_report(&packed, &c.config).expect("creplay");
    assert_identical(&label, &stats, &truth);
    (truth, report)
}

/// The `n`-th seeded random program and its schedule: alternating racy /
/// race-free, with varying thread counts and sizes.
fn random_case(n: u64) -> (Program, SchedPolicy) {
    let cfg = RandomConfig {
        seed: n + 1,
        size: 8 + (n as usize % 9),
        threads: 2 + (n as usize % 3),
        array_len: 16 + (n as usize % 17),
        racy: n.is_multiple_of(2),
        ..RandomConfig::default()
    };
    let program = parse_program(&random_program(&cfg)).expect("generated program parses");
    let policy = SchedPolicy::Random {
        seed: n * 31 + 7,
        switch_inv: 2,
    };
    (program, policy)
}

#[test]
fn suite_benchmarks_detect_identically_on_compressed_traces() {
    let mut skipped = 0;
    for b in benchmarks(Scale::Small) {
        for c in fig2(&b.program) {
            skipped += assert_parity(b.name, &c, SchedPolicy::default())
                .1
                .skipped_events;
        }
    }
    assert!(skipped > 0, "memoization never engaged on the suite");
}

#[test]
fn corpus_programs_detect_identically_on_compressed_traces() {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../fuzz/corpus"));
    let entries = bigfoot_fuzz::load_dir(dir).expect("corpus loads");
    assert!(!entries.is_empty(), "the fuzz corpus has entries");
    for e in entries {
        let program = parse_program(&e.source).expect("corpus entry parses");
        let label = e.path.display().to_string();
        for c in fig2(&program) {
            assert_parity(&label, &c, e.policy);
        }
    }
}

#[test]
fn random_programs_detect_identically_on_compressed_traces() {
    let mut races_seen = 0usize;
    for n in 0..60u64 {
        let (program, policy) = random_case(n);
        for c in fig2(&program) {
            if assert_parity(&format!("random seed {n}"), &c, policy)
                .0
                .has_races()
            {
                races_seen += 1;
            }
        }
    }
    assert!(
        races_seen > 0,
        "the racy generator configurations should race at least once"
    );
}

#[test]
fn memoized_runs_match_full_expansion() {
    // Two threads sweep one array: SlimState memoizes each sweep, and
    // the committed footprints race.
    let program = parse_program(
        "class W { meth fill(a, v) {
             for (i = 0; i < a.length; i = i + 1) { a[i] = v; }
             return 0; } }
         main {
             w = new W;
             a = new_array(300);
             fork t1 = w.fill(a, 1);
             fork t2 = w.fill(a, 2);
             join(t1); join(t2);
         }",
    )
    .expect("parse");
    let c = fig2(&program).swap_remove(1);
    assert_eq!(c.name, "slimstate");
    let (truth, report) = assert_parity("sweep", &c, SchedPolicy::default());
    assert!(
        report.memo_runs > 0 && report.skipped_events > 0,
        "{report:?}"
    );
    assert!(truth.has_races());
    // Full expansion: the same events decoded one by one.
    let raw = record(&c.program, SchedPolicy::default());
    let (memo, _) = replay_compressed_report(&pack("sweep", &raw), &c.config).expect("creplay");
    let full = replay_trace(&raw, &c.config).expect("replay");
    assert_eq!(memo.shadow_ops, full.shadow_ops);
    assert_eq!(memo.races, full.races);
    assert_eq!(memo.shadow_space_peak, full.shadow_space_peak);
}

#[test]
fn compression_pays_on_loop_heavy_benchmarks() {
    // Not a perf gate — a structural sanity check that the grammar layer
    // actually compresses the loop-heavy suite members instead of
    // degenerating to pass-through.
    let mut best = 0.0f64;
    for b in benchmarks(Scale::Small) {
        let bytes = record(&compile(&b.program), SchedPolicy::default());
        let packed = pack(b.name, &bytes);
        let ratio = bytes.len() as f64 / packed.len() as f64;
        best = best.max(ratio);
    }
    assert!(
        best >= 4.0,
        "at least one loop-heavy benchmark should compress well, best ratio {best:.2}"
    );
}
