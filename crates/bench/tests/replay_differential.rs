//! Parity test: replaying a recorded raw (`BFTR`) trace must reproduce
//! the report of the serial detector fed the live run **bit-for-bit** —
//! same races in the same order, same counters, same space accounting.
//!
//! Coverage: every suite benchmark (small scale), every fuzz-corpus
//! program and 60 seeded random programs — racy and race-free, under
//! randomized schedules — each under all five detector configurations
//! of Fig. 2, with the program each detector expects (uninstrumented for
//! FastTrack/SlimState, RedCard-instrumented for RedCard/SlimCard,
//! BigFoot-instrumented for BigFoot).

use bigfoot::{instrument, redcard_instrument};
use bigfoot_bfj::{
    compile, parse_program, trace::TraceWriter, CompiledProgram, CompiledVm, Program, SchedPolicy,
};
use bigfoot_detectors::{replay_trace, Detector, ProxyTable, ReplayConfig, Stats};
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
fn assert_identical(label: &str, replay: &Stats, live: &Stats) {
    assert_eq!(replay.races, live.races, "{label}: races diverge");
    assert_eq!(
        replay.to_json().to_string_compact(),
        live.to_json().to_string_compact(),
        "{label}: stats diverge"
    );
}

/// Replays `c`'s recorded trace and compares it with the live run;
/// returns the live stats.
fn assert_parity(label: &str, c: &Fig2, policy: SchedPolicy) -> Stats {
    let truth = live(&c.program, policy, &c.config);
    let bytes = record(&c.program, policy);
    let stats = replay_trace(&bytes, &c.config).expect("replay");
    assert_identical(&format!("{label}/{}", c.name), &stats, &truth);
    truth
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
fn suite_benchmarks_replay_identically_under_bigfoot() {
    // The check-event configurations: deferred footprints, adaptive
    // array shadows and field proxies.
    for b in benchmarks(Scale::Small) {
        for c in fig2(&b.program).iter().skip(2) {
            assert_parity(b.name, c, SchedPolicy::default());
        }
    }
}

#[test]
fn suite_benchmarks_replay_identically_under_fasttrack() {
    // The raw-access configurations: a check on every access.
    for b in benchmarks(Scale::Small) {
        for c in fig2(&b.program).iter().take(2) {
            assert_parity(b.name, c, SchedPolicy::default());
        }
    }
}

#[test]
fn corpus_programs_replay_identically() {
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
fn random_programs_replay_identically() {
    let mut races_seen = 0usize;
    for n in 0..60u64 {
        let (program, policy) = random_case(n);
        for c in fig2(&program) {
            if assert_parity(&format!("random seed {n}"), &c, policy).has_races() {
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
fn replay_default_proxy_table_matches_serial() {
    // Identity proxies under the check-event source (RedCard-like path).
    for b in benchmarks(Scale::Small).into_iter().take(4) {
        let c = Fig2 {
            name: "redcard-identity",
            program: compile(&instrument(&b.program).program),
            config: ReplayConfig::redcard(ProxyTable::identity(), 1),
        };
        assert_parity(b.name, &c, SchedPolicy::default());
    }
}
