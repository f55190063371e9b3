//! End-to-end tests for volatile fields and wait/notify (§5: "BigFoot
//! handles all basic synchronization operations present in Java").

use bigfoot::{instrument, instrument_with, InstrumentOptions, Instrumented};
use bigfoot_bfj::{
    parse_program, Event, EventSink, Interp, RecordingSink, SchedPolicy, Sym, Tid, Value,
};
use bigfoot_detectors::{verify_precise_checks, Detector};

/// The classic volatile publication idiom: the producer fills a buffer and
/// raises a volatile flag; the consumer spins on the flag then reads the
/// buffer. Race-free thanks to the volatile edge.
const PUBLICATION: &str = "
    class Q {
        volatile ready;
        meth produce(buf) {
            for (i = 0; i < buf.length; i = i + 1) { buf[i] = i * i; }
            this.ready = 1;
            return 0;
        }
        meth consume(buf) {
            spin = 0;
            r = this.ready;
            while (r == 0 && spin < 100000) {
                spin = spin + 1;
                r = this.ready;
            }
            sum = 0;
            if (r == 1) {
                for (i = 0; i < buf.length; i = i + 1) { sum = sum + buf[i]; }
            }
            return sum;
        }
    }
    main {
        q = new Q;
        buf = new_array(32);
        fork p = q.produce(buf);
        fork c = q.consume(buf);
        join(p); join(c);
    }";

/// The paper's placement (ownership pass off): the one §5 coverage
/// (`verify_precise_checks`) is a property of.
fn paper_placement(p: &bigfoot_bfj::Program) -> Instrumented {
    instrument_with(
        p,
        InstrumentOptions {
            ownership: false,
            ..InstrumentOptions::default()
        },
    )
}

fn replay(events: &[Event], mut det: Detector) -> bigfoot_detectors::Stats {
    for ev in events {
        det.event(ev);
    }
    det.finish()
}

#[test]
fn volatile_publication_is_race_free() {
    let p = parse_program(PUBLICATION).unwrap();
    for (pruned, inst) in [(false, paper_placement(&p)), (true, instrument(&p))] {
        for seed in 1..20u64 {
            let mut sink = RecordingSink::default();
            Interp::new(
                &inst.program,
                SchedPolicy::Random {
                    seed,
                    switch_inv: 2,
                },
            )
            .run(&mut sink)
            .unwrap();
            let ft = replay(&sink.events, Detector::fasttrack());
            let bf = replay(&sink.events, Detector::bigfoot(inst.proxies.clone()));
            assert!(
                !ft.has_races(),
                "seed {seed} pruned={pruned}: {:?}",
                ft.races
            );
            assert!(
                !bf.has_races(),
                "seed {seed} pruned={pruned}: {:?}",
                bf.races
            );
            if !pruned {
                verify_precise_checks(&sink.events).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
        }
    }
}

#[test]
fn without_volatile_the_same_idiom_races() {
    // Identical program with a plain field: the flag itself (and, on some
    // schedules, the buffer) races.
    let src = PUBLICATION.replace("volatile ready;", "field ready;");
    let p = parse_program(&src).unwrap();
    let inst = instrument(&p);
    let mut raced = false;
    for seed in 1..20u64 {
        let mut sink = RecordingSink::default();
        Interp::new(
            &inst.program,
            SchedPolicy::Random {
                seed,
                switch_inv: 2,
            },
        )
        .run(&mut sink)
        .unwrap();
        let ft = replay(&sink.events, Detector::fasttrack());
        let bf = replay(&sink.events, Detector::bigfoot(inst.proxies.clone()));
        assert_eq!(ft.has_races(), bf.has_races(), "seed {seed}");
        raced |= ft.has_races();
    }
    assert!(raced, "the non-volatile flag must race on some schedule");
}

#[test]
fn volatile_accesses_are_not_checked() {
    let p = parse_program(
        "class C { volatile v; field f; }
         main {
             c = new C;
             c.v = 1;
             x = c.v;
             c.f = x;
         }",
    )
    .unwrap();
    let inst = instrument(&p);
    let text = bigfoot_bfj::pretty(&inst.program);
    // Only the plain field write gets a check.
    assert_eq!(text.matches("check(").count(), 1, "{text}");
    assert!(text.contains("check(w: c.f)"), "{text}");
}

#[test]
fn checks_move_across_volatile_writes_but_not_reads() {
    // A volatile *write* is release-like: an anticipated later access can
    // still cover the earlier one (coverage only ends at acquires), so a
    // single deferred check suffices.
    let p = parse_program(
        "class C { volatile v; field f; }
         main {
             c = new C;
             c.f = 1;
             c.v = 1;
             c.f = 2;
         }",
    )
    .unwrap();
    let inst = instrument(&p);
    let text = bigfoot_bfj::pretty(&inst.program);
    assert_eq!(text.matches("check(w: c.f)").count(), 1, "{text}");
    // A volatile *read* is acquire-like: the covering range of the first
    // write ends there, forcing a check before it. That same check then
    // covers the second write too (no intervening release — the Fig. 3
    // pattern), so one check still suffices, but it must sit before the
    // volatile read.
    let p = parse_program(
        "class C { volatile v; field f; }
         main {
             c = new C;
             c.f = 1;
             x = c.v;
             c.f = 2;
         }",
    )
    .unwrap();
    let inst = instrument(&p);
    let text = bigfoot_bfj::pretty(&inst.program);
    assert_eq!(text.matches("check(w: c.f)").count(), 1, "{text}");
    let first_check = text.find("check(w: c.f)").unwrap();
    let volatile_read = text.find("x = c.v").unwrap();
    assert!(first_check < volatile_read, "{text}");
    // Acquire *then* release between the two writes: the first check's
    // coverage ends at the release, so the second write needs its own.
    let p = parse_program(
        "class C { volatile v; field f; }
         main {
             c = new C;
             c.f = 1;
             x = c.v;
             c.v = x + 1;
             c.f = 2;
         }",
    )
    .unwrap();
    let inst = instrument(&p);
    let text = bigfoot_bfj::pretty(&inst.program);
    assert_eq!(text.matches("check(w: c.f)").count(), 2, "{text}");
}

#[test]
fn wait_notify_roundtrip() {
    // Producer/consumer over a 1-slot mailbox with wait/notify.
    let src = "
        class Box {
            field full; field item;
            meth put(lock, v) {
                acq(lock);
                while (this.full == 1) { wait(lock); }
                this.item = v;
                this.full = 1;
                notify(lock);
                rel(lock);
                return 0;
            }
            meth take(lock) {
                acq(lock);
                while (this.full == 0) { wait(lock); }
                v = this.item;
                this.full = 0;
                notify(lock);
                rel(lock);
                return v;
            }
            meth produce(lock, n) {
                for (i = 1; i <= n; i = i + 1) { r = this.put(lock, i); }
                return 0;
            }
            meth consume(lock, n) {
                total = 0;
                for (i = 1; i <= n; i = i + 1) {
                    v = this.take(lock);
                    total = total + v;
                }
                return total;
            }
        }
        class Lk { }
        main {
            b = new Box;
            lock = new Lk;
            fork p = b.produce(lock, 10);
            fork c = b.consume(lock, 10);
            join(p); join(c);
            done = 1;
        }";
    let p = parse_program(src).unwrap();
    // Runs to completion (no deadlock) and is race-free under both
    // detectors across schedules.
    for (pruned, inst) in [(false, paper_placement(&p)), (true, instrument(&p))] {
        for seed in 1..10u64 {
            let mut sink = RecordingSink::default();
            let mut interp = Interp::new(
                &inst.program,
                SchedPolicy::Random {
                    seed,
                    switch_inv: 3,
                },
            )
            .with_max_steps(5_000_000);
            interp.run(&mut sink).unwrap();
            assert_eq!(
                interp.final_env(Tid(0)).unwrap()[&Sym::intern("done")],
                Value::Int(1)
            );
            let ft = replay(&sink.events, Detector::fasttrack());
            let bf = replay(&sink.events, Detector::bigfoot(inst.proxies.clone()));
            assert!(
                !ft.has_races(),
                "seed {seed} pruned={pruned}: {:?}",
                ft.races
            );
            assert!(
                !bf.has_races(),
                "seed {seed} pruned={pruned}: {:?}",
                bf.races
            );
            if !pruned {
                verify_precise_checks(&sink.events).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
        }
    }
}

#[test]
fn wait_without_lock_is_an_error() {
    let p = parse_program("class L { } main { l = new L; wait(l); }").unwrap();
    let err = Interp::new(&p, SchedPolicy::default())
        .run(&mut bigfoot_bfj::NullSink)
        .unwrap_err();
    assert_eq!(err, bigfoot_bfj::RuntimeError::IllegalRelease);
}

#[test]
fn wait_with_no_notifier_deadlocks() {
    let p = parse_program(
        "class L { }
         main { l = new L; acq(l); wait(l); rel(l); }",
    )
    .unwrap();
    let err = Interp::new(&p, SchedPolicy::default())
        .run(&mut bigfoot_bfj::NullSink)
        .unwrap_err();
    assert_eq!(err, bigfoot_bfj::RuntimeError::Deadlock);
}

#[test]
fn volatile_name_collision_stays_sound() {
    // Class A declares `v` volatile; class B has a plain field `v`. BFJ
    // resolves volatility by field *name* program-wide (the analysis
    // cannot type designators), so B's `v` is also treated as volatile by
    // both the analysis and the run time — crucially they must agree, or
    // B.v accesses would go unchecked yet still be reported as plain
    // accesses.
    let src = "
        class A { volatile v; }
        class B { field v; field w; }
        main {
            a = new A;
            b = new B;
            a.v = 1;
            b.v = 2;
            b.w = 3;
        }";
    let p = parse_program(src).unwrap();
    let inst = instrument(&p);
    let mut sink = RecordingSink::default();
    Interp::new(&inst.program, SchedPolicy::default())
        .run(&mut sink)
        .unwrap();
    // Both v-writes are volatile events; only b.w is a checked access.
    verify_precise_checks(&sink.events).unwrap();
    let ft = replay(&sink.events, Detector::fasttrack());
    let bf = replay(&sink.events, Detector::bigfoot(inst.proxies.clone()));
    assert_eq!(ft.accesses(), 1, "only b.w is a plain access");
    assert_eq!(bf.checks, 1);
    assert!(!ft.has_races() && !bf.has_races());
}
