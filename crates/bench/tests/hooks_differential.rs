//! The typed sink hooks must be invisible in the report: a detector fed
//! live by the compiled VM — accesses through `EventSink::access`,
//! checks through `EventSink::check` with borrowed paths — must give the
//! same `Stats` (races, reads, writes, checks, shadow, footprint and sync
//! operations, space) as the same detector fed the recorded owned events
//! through `EventSink::event`.
//!
//! Coverage: the five Fig. 2 detectors (each on the program its
//! instrumentation produces) plus DJIT+, over every Small suite program
//! and seeded random programs (racy and race-free, under a randomized
//! scheduler).

use bigfoot::{instrument, redcard_instrument};
use bigfoot_bench::stats_identical;
use bigfoot_bfj::{
    compile, parse_program, CompiledVm, EventSink, Program, RecordingSink, SchedPolicy,
};
use bigfoot_detectors::{Detector, DjitDetector, Stats};
use bigfoot_workloads::{benchmarks, random_program, RandomConfig, Scale};

/// Runs `program` once into `sink`.
fn run(program: &Program, policy: SchedPolicy, sink: &mut impl EventSink) {
    CompiledVm::new(&compile(program), policy)
        .run(sink)
        .expect("compiled run");
}

/// Two fresh detectors from `make`: one fed live by the VM through the
/// hooks, one fed the recorded owned events through `event`.
fn live_and_replayed<D: EventSink>(
    program: &Program,
    policy: SchedPolicy,
    make: impl Fn() -> D,
) -> (D, D) {
    let mut live = make();
    run(program, policy, &mut live);
    let mut rec = RecordingSink::default();
    run(program, policy, &mut rec);
    let mut replayed = make();
    for ev in &rec.events {
        replayed.event(ev);
    }
    (live, replayed)
}

#[track_caller]
fn assert_same(label: &str, name: &str, live: &Stats, replayed: &Stats) {
    assert!(
        stats_identical(live, replayed),
        "{label} / {name}: hooked run {} differs from owned events {}",
        live.to_json().to_string_compact(),
        replayed.to_json().to_string_compact()
    );
}

/// Checks every detector of the matrix on `program`; returns whether
/// FastTrack found a race.
fn assert_hooks_match(label: &str, program: &Program, policy: SchedPolicy) -> bool {
    let bf = instrument(program);
    let (rc_prog, rc_proxies) = redcard_instrument(program);
    type Make<'a> = Box<dyn Fn() -> Detector + 'a>;
    let matrix: [(&str, &Program, Make); 5] = [
        ("FastTrack", program, Box::new(Detector::fasttrack)),
        ("SlimState", program, Box::new(Detector::slimstate)),
        (
            "RedCard",
            &rc_prog,
            Box::new(|| Detector::redcard(rc_proxies.clone())),
        ),
        (
            "SlimCard",
            &rc_prog,
            Box::new(|| Detector::slimcard(rc_proxies.clone())),
        ),
        (
            "BigFoot",
            &bf.program,
            Box::new(|| Detector::bigfoot(bf.proxies.clone())),
        ),
    ];
    let mut ft_racy = false;
    for (name, prog, make) in &matrix {
        let (live, replayed) = live_and_replayed(prog, policy, make);
        let (live, replayed) = (live.finish(), replayed.finish());
        assert_same(label, name, &live, &replayed);
        ft_racy |= *name == "FastTrack" && live.has_races();
    }
    let (live, replayed) = live_and_replayed(program, policy, DjitDetector::new);
    assert_same(label, "DJIT+", &live.finish(), &replayed.finish());
    ft_racy
}

#[test]
fn suite_programs_report_identically_through_hooks() {
    for b in benchmarks(Scale::Small) {
        assert_hooks_match(b.name, &b.program, SchedPolicy::default());
    }
}

#[test]
fn random_programs_report_identically_through_hooks() {
    let mut races_seen = 0usize;
    for seed in 0..24u64 {
        let cfg = RandomConfig {
            seed: seed + 1,
            size: 8 + (seed as usize % 9),
            threads: 2 + (seed as usize % 3),
            array_len: 16 + (seed as usize % 17),
            racy: seed % 2 == 0,
            ..RandomConfig::default()
        };
        let program = parse_program(&random_program(&cfg)).expect("generated program parses");
        let policy = SchedPolicy::Random {
            seed: seed * 31 + 7,
            switch_inv: 2,
        };
        if assert_hooks_match(&format!("random seed {seed}"), &program, policy) {
            races_seen += 1;
        }
    }
    assert!(
        races_seen > 0,
        "the racy configurations should race at least once"
    );
}
