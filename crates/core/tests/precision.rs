//! Precision validation (§2, §5, §6): BigFoot-instrumented programs have
//! *precise checks* (every access covered, every check legitimate), and
//! every detector configuration reports the same races as FastTrack on the
//! same trace — across hand-written programs, random programs, and many
//! schedules.
//!
//! Coverage is a property of the paper's placement, so the precision
//! checks run with the ownership pass off (it deletes the checks of
//! locations that cannot race); verdict agreement is checked on the
//! pruned placement too.

use bigfoot::{instrument, instrument_with, redcard_instrument, InstrumentOptions, Instrumented};
use bigfoot_bfj::{parse_program, Event, EventSink, Interp, RecordingSink, SchedPolicy};
use bigfoot_detectors::{verify_precise_checks, Detector};
use bigfoot_workloads::{random_program, RandomConfig};

/// The paper's placement: every option on but the ownership pass.
fn paper_options() -> InstrumentOptions {
    InstrumentOptions {
        ownership: false,
        ..InstrumentOptions::default()
    }
}

fn paper_placement(p: &bigfoot_bfj::Program) -> Instrumented {
    instrument_with(p, paper_options())
}

/// Runs `program` deterministically and returns the trace.
fn trace_of(src_program: &bigfoot_bfj::Program, policy: SchedPolicy) -> Vec<Event> {
    let mut sink = RecordingSink::default();
    Interp::new(src_program, policy)
        .with_max_steps(50_000_000)
        .run(&mut sink)
        .expect("run");
    sink.events
}

/// Feeds a recorded trace to a detector.
fn replay(events: &[Event], mut det: Detector) -> bigfoot_detectors::Stats {
    for ev in events {
        det.event(ev);
    }
    det.finish()
}

/// The hand-written scenarios: racy and race-free variants of
/// field/array/lock/fork patterns.
fn scenarios() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "racy_field",
            "class C { field x; meth poke(v) { this.x = v; return 0; } }
             main {
                 c = new C;
                 fork t1 = c.poke(1);
                 fork t2 = c.poke(2);
                 join(t1); join(t2);
             }",
        ),
        (
            "locked_field",
            "class C { field x; meth poke(l, v) { acq(l); this.x = this.x + v; rel(l); return 0; } }
             class L { }
             main {
                 c = new C;
                 l = new L;
                 fork t1 = c.poke(l, 1);
                 fork t2 = c.poke(l, 2);
                 join(t1); join(t2);
             }",
        ),
        (
            "racy_array_overlap",
            "class W { meth fill(a, lo, hi, v) {
                 for (i = lo; i < hi; i = i + 1) { a[i] = v; }
                 return 0; } }
             main {
                 w = new W;
                 a = new_array(40);
                 fork t1 = w.fill(a, 0, 30, 1);
                 fork t2 = w.fill(a, 20, 40, 2);
                 join(t1); join(t2);
             }",
        ),
        (
            "disjoint_array",
            "class W { meth fill(a, lo, hi, v) {
                 for (i = lo; i < hi; i = i + 1) { a[i] = v; }
                 return 0; } }
             main {
                 w = new W;
                 a = new_array(40);
                 fork t1 = w.fill(a, 0, 20, 1);
                 fork t2 = w.fill(a, 20, 40, 2);
                 join(t1); join(t2);
             }",
        ),
        (
            "fork_join_ordered",
            "class W { field acc;
                 meth sum(a) {
                     s = 0;
                     for (i = 0; i < a.length; i = i + 1) { s = s + a[i]; }
                     this.acc = s;
                     return s;
                 } }
             main {
                 w = new W;
                 a = new_array(16);
                 for (i = 0; i < 16; i = i + 1) { a[i] = i; }
                 fork t = w.sum(a);
                 join(t);
                 r = w.acc;
             }",
        ),
        (
            "read_shared",
            "class W { meth scan(a) {
                 s = 0;
                 for (i = 0; i < a.length; i = i + 1) { s = s + a[i]; }
                 return s; } }
             main {
                 w = new W;
                 a = new_array(32);
                 for (i = 0; i < 32; i = i + 1) { a[i] = i * 2; }
                 fork t1 = w.scan(a);
                 fork t2 = w.scan(a);
                 join(t1); join(t2);
             }",
        ),
        (
            "racy_read_write",
            "class W {
                 meth scan(a) {
                     s = 0;
                     for (i = 0; i < a.length; i = i + 1) { s = s + a[i]; }
                     return s;
                 }
                 meth fill(a) {
                     for (i = 0; i < a.length; i = i + 1) { a[i] = i; }
                     return 0;
                 } }
             main {
                 w = new W;
                 a = new_array(32);
                 fork t1 = w.scan(a);
                 fork t2 = w.fill(a);
                 join(t1); join(t2);
             }",
        ),
        (
            "strided_disjoint",
            "class W { meth fill(a, off) {
                 for (i = off; i < a.length; i = i + 2) { a[i] = off; }
                 return 0; } }
             main {
                 w = new W;
                 a = new_array(64);
                 fork t1 = w.fill(a, 0);
                 fork t2 = w.fill(a, 1);
                 join(t1); join(t2);
             }",
        ),
    ]
}

/// Every BigFoot-instrumented scenario trace has precise checks.
#[test]
fn bigfoot_placement_is_precise_on_scenarios() {
    for (name, src) in scenarios() {
        let p = parse_program(src).unwrap();
        let inst = paper_placement(&p);
        for policy in [
            SchedPolicy::RoundRobin { quantum: 1 },
            SchedPolicy::RoundRobin { quantum: 64 },
            SchedPolicy::Random {
                seed: 42,
                switch_inv: 3,
            },
        ] {
            let events = trace_of(&inst.program, policy);
            verify_precise_checks(&events).unwrap_or_else(|e| {
                panic!(
                    "{name}: imprecise checks: {e}\n{}",
                    bigfoot_bfj::pretty(&inst.program)
                )
            });
        }
    }
}

/// RedCard placement is also precise (per-access, redundancy-eliminated).
#[test]
fn redcard_placement_is_precise_on_scenarios() {
    for (name, src) in scenarios() {
        let p = parse_program(src).unwrap();
        let (rc, _) = redcard_instrument(&p);
        let events = trace_of(&rc, SchedPolicy::RoundRobin { quantum: 8 });
        verify_precise_checks(&events).unwrap_or_else(|e| panic!("{name}: imprecise checks: {e}"));
    }
}

/// On the *same* trace, BigFoot reports a race iff FastTrack does (trace
/// precision), and on the same objects/arrays (address precision at
/// compression granularity).
#[test]
fn detectors_agree_on_scenarios() {
    for (name, src) in scenarios() {
        let p = parse_program(src).unwrap();
        let inst = instrument(&p);
        let (rc_prog, rc_proxies) = redcard_instrument(&p);
        for seed in [3u64, 17, 99] {
            let policy = SchedPolicy::Random {
                seed,
                switch_inv: 2,
            };
            // FastTrack and SlimState watch raw accesses of the BigFoot
            // binary; BigFoot watches the checks. One trace each — the
            // interpreter is deterministic, so both views see the same
            // execution.
            let events = trace_of(&inst.program, policy);
            let ft = replay(&events, Detector::fasttrack());
            let ss = replay(&events, Detector::slimstate());
            let bf = replay(&events, Detector::bigfoot(inst.proxies.clone()));
            assert_eq!(
                ft.has_races(),
                bf.has_races(),
                "{name} seed {seed}: FT={:?} BF={:?}",
                ft.races,
                bf.races
            );
            assert_eq!(ft.has_races(), ss.has_races(), "{name} seed {seed}");
            assert_eq!(
                ft.racy_locations(),
                bf.racy_locations(),
                "{name} seed {seed}"
            );
            // RedCard / SlimCard run their own instrumentation.
            let rc_events = trace_of(&rc_prog, policy);
            let rc_ft = replay(&rc_events, Detector::fasttrack());
            let rc = replay(&rc_events, Detector::redcard(rc_proxies.clone()));
            let sc = replay(&rc_events, Detector::slimcard(rc_proxies.clone()));
            assert_eq!(rc_ft.has_races(), rc.has_races(), "{name} seed {seed} (RC)");
            assert_eq!(rc_ft.has_races(), sc.has_races(), "{name} seed {seed} (SC)");
            assert_eq!(rc_ft.racy_locations(), rc.racy_locations(), "{name} (RC)");
        }
    }
}

/// Property test over random programs: precise checks and verdict
/// agreement, racy and race-free, many seeds.
#[test]
fn random_programs_precise_and_agreeing() {
    for seed in 1..=15u64 {
        for racy in [false, true] {
            let cfg = RandomConfig {
                seed,
                racy,
                size: 10,
                threads: 2,
                array_len: 16,
                ..RandomConfig::default()
            };
            let src = random_program(&cfg);
            let p = parse_program(&src).unwrap();
            let policy = SchedPolicy::Random {
                seed: seed * 31 + 7,
                switch_inv: 3,
            };
            for (pruned, inst) in [(false, paper_placement(&p)), (true, instrument(&p))] {
                let events = trace_of(&inst.program, policy);
                if !pruned {
                    verify_precise_checks(&events).unwrap_or_else(|e| {
                        panic!(
                            "seed {seed} racy={racy}: {e}\nsource:\n{src}\ninstrumented:\n{}",
                            bigfoot_bfj::pretty(&inst.program)
                        )
                    });
                }
                let ft = replay(&events, Detector::fasttrack());
                let bf = replay(&events, Detector::bigfoot(inst.proxies.clone()));
                assert_eq!(
                    ft.has_races(),
                    bf.has_races(),
                    "seed {seed} racy={racy} pruned={pruned}: FT={:?} BF={:?}\n{src}",
                    ft.races,
                    bf.races
                );
                assert_eq!(
                    ft.racy_locations(),
                    bf.racy_locations(),
                    "seed {seed} racy={racy} pruned={pruned}\n{src}"
                );
                if !racy {
                    assert!(!ft.has_races(), "race-free program raced: {:?}", ft.races);
                }
            }
        }
    }
}

/// BigFoot's check ratio is strictly below FastTrack's 1.0 on loop-heavy
/// programs (the whole point of the paper).
#[test]
fn check_ratio_improves() {
    let src = "
        class W { meth fill(a) {
            for (i = 0; i < a.length; i = i + 1) { a[i] = a[i] + 1; }
            return 0; } }
        main {
            w = new W;
            a = new_array(200);
            r1 = w.fill(a);
            r2 = w.fill(a);
        }";
    let p = parse_program(src).unwrap();
    let inst = instrument(&p);
    let events = trace_of(&inst.program, SchedPolicy::default());
    let ft = replay(&events, Detector::fasttrack());
    let bf = replay(&events, Detector::bigfoot(inst.proxies.clone()));
    assert_eq!(ft.check_ratio(), 1.0);
    assert!(
        bf.check_ratio() < 0.02,
        "BF check ratio {} too high",
        bf.check_ratio()
    );
    assert!(bf.shadow_ops * 10 < ft.shadow_ops);
}

/// The known theoretical exception (§5): a racy write between two aliased
/// reads can hide the dependent race — BigFoot stays trace-precise (the
/// *first* race is still caught) but may drop the second address.
#[test]
fn alias_hazard_still_reports_first_race() {
    let src = "
        class A { field f; }
        class B { field g; }
        class W {
            meth swap(a, nb) { a.f = nb; return 0; }
            meth reader(a) {
                x = a.f;
                s = x.g;
                y = a.f;
                t = y.g;
                return s + t;
            }
        }
        main {
            a = new A;
            b1 = new B;
            a.f = b1;
            w = new W;
            b2 = new B;
            fork t1 = w.reader(a);
            fork t2 = w.swap(a, b2);
            join(t1); join(t2);
        }";
    let p = parse_program(src).unwrap();
    let inst = instrument(&p);
    for seed in 1..30u64 {
        let events = trace_of(
            &inst.program,
            SchedPolicy::Random {
                seed,
                switch_inv: 1,
            },
        );
        let ft = replay(&events, Detector::fasttrack());
        let bf = replay(&events, Detector::bigfoot(inst.proxies.clone()));
        // Trace precision must hold: both see *some* race (on a.f).
        assert_eq!(ft.has_races(), bf.has_races(), "seed {seed}");
        if ft.has_races() {
            // The race on a.f itself is always reported by both.
            let ft_locs = ft.racy_locations();
            let bf_locs = bf.racy_locations();
            assert!(bf_locs.iter().any(|l| ft_locs.contains(l)), "seed {seed}");
        }
    }
}

/// Every ablation configuration must still place *precise* checks — the
/// knobs trade performance, never soundness.
#[test]
fn ablations_remain_precise() {
    let paper = paper_options();
    let configs = [
        InstrumentOptions {
            anticipation: false,
            ..paper
        },
        InstrumentOptions {
            coalescing: false,
            ..paper
        },
        InstrumentOptions {
            loop_invariants: false,
            ..paper
        },
        InstrumentOptions {
            field_proxies: false,
            ..paper
        },
    ];
    for (name, src) in scenarios() {
        let p = parse_program(src).unwrap();
        for (ci, opts) in configs.iter().enumerate() {
            let inst = instrument_with(&p, *opts);
            let events = trace_of(&inst.program, SchedPolicy::RoundRobin { quantum: 16 });
            verify_precise_checks(&events).unwrap_or_else(|e| panic!("{name} config {ci}: {e}"));
            let ft = replay(&events, Detector::fasttrack());
            let bf = replay(&events, Detector::bigfoot(inst.proxies.clone()));
            assert_eq!(ft.has_races(), bf.has_races(), "{name} config {ci}");
            assert_eq!(
                ft.racy_locations(),
                bf.racy_locations(),
                "{name} config {ci}"
            );
        }
    }
}

/// DJIT+ and FastTrack are both precise: identical verdicts on identical
/// traces, including on random programs.
#[test]
fn djit_differential_on_random_programs() {
    use bigfoot_detectors::DjitDetector;
    for seed in 1..=10u64 {
        for racy in [false, true] {
            let cfg = RandomConfig {
                seed,
                racy,
                size: 8,
                threads: 2,
                array_len: 12,
                ..RandomConfig::default()
            };
            let src = random_program(&cfg);
            let p = parse_program(&src).unwrap();
            let events = trace_of(
                &p,
                SchedPolicy::Random {
                    seed: seed * 13 + 5,
                    switch_inv: 2,
                },
            );
            let ft = replay(&events, Detector::fasttrack());
            let mut dj = DjitDetector::new();
            for ev in &events {
                dj.event(ev);
            }
            let dj = dj.finish();
            assert_eq!(ft.has_races(), dj.has_races(), "seed {seed} racy={racy}");
            assert_eq!(
                ft.racy_locations(),
                dj.racy_locations(),
                "seed {seed} racy={racy}\n{src}"
            );
        }
    }
}
