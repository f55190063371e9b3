//! The ownership pass: what it deletes, what it must keep, and that the
//! pruned program still reports exactly DJIT+'s racy locations.
//!
//! The adversarial programs live in the fuzz corpus
//! (`crates/fuzz/corpus/ownership-*.bfj`), so the fuzzer's corpus replay
//! runs them through every oracle as well. Each looks owned — thread-local,
//! lock-owned or read-only — but races.

use bigfoot::{instrument, instrument_with, InstrumentOptions};
use bigfoot_bfj::{
    parse_program, pretty, Event, EventSink, Interp, Program, RecordingSink, SchedPolicy,
};
use bigfoot_detectors::{Detector, DjitDetector, Stats};
use bigfoot_workloads::{benchmark, Scale};

const ADVERSARIAL: [(&str, &str); 9] = [
    (
        "lock-in-loop",
        include_str!("../../fuzz/corpus/ownership-lock-in-loop.bfj"),
    ),
    (
        "lock-reassigned",
        include_str!("../../fuzz/corpus/ownership-lock-reassigned.bfj"),
    ),
    (
        "mixed-call-sites",
        include_str!("../../fuzz/corpus/ownership-mixed-call-sites.bfj"),
    ),
    (
        "main-after-fork",
        include_str!("../../fuzz/corpus/ownership-main-after-fork.bfj"),
    ),
    (
        "escape-field",
        include_str!("../../fuzz/corpus/ownership-escape-field.bfj"),
    ),
    (
        "escape-fork-arg",
        include_str!("../../fuzz/corpus/ownership-escape-fork-arg.bfj"),
    ),
    (
        "escape-return",
        include_str!("../../fuzz/corpus/ownership-escape-return.bfj"),
    ),
    (
        "fork-in-thread",
        include_str!("../../fuzz/corpus/ownership-fork-in-thread.bfj"),
    ),
    (
        "wait-notify",
        include_str!("../../fuzz/corpus/ownership-wait-notify.bfj"),
    ),
];

fn policies() -> Vec<SchedPolicy> {
    let mut out = vec![
        SchedPolicy::RoundRobin { quantum: 1 },
        SchedPolicy::RoundRobin { quantum: 64 },
    ];
    for seed in 1..=16 {
        for switch_inv in 1..=3 {
            out.push(SchedPolicy::Random { seed, switch_inv });
        }
    }
    out
}

fn trace_of(p: &Program, policy: SchedPolicy) -> Vec<Event> {
    let mut sink = RecordingSink::default();
    Interp::new(p, policy)
        .with_max_steps(5_000_000)
        .run(&mut sink)
        .expect("run");
    sink.events
}

fn bigfoot_on(events: &[Event], inst: &bigfoot::Instrumented) -> Stats {
    let mut det = Detector::bigfoot(inst.proxies.clone());
    for ev in events {
        det.event(ev);
    }
    det.finish()
}

fn djit_on(events: &[Event]) -> Stats {
    let mut det = DjitDetector::new();
    for ev in events {
        det.event(ev);
    }
    det.finish()
}

fn paper_placement(p: &Program) -> bigfoot::Instrumented {
    instrument_with(
        p,
        InstrumentOptions {
            ownership: false,
            ..InstrumentOptions::default()
        },
    )
}

/// Checks in class methods (thread code in every program below).
fn method_checks(p: &Program) -> usize {
    let mut q = p.clone();
    q.main.stmts.clear();
    bigfoot::count_checks(&q)
}

#[test]
fn adversarial_programs_report_exactly_djits_races() {
    for (name, src) in ADVERSARIAL {
        let p = parse_program(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let inst = instrument(&p);
        let mut raced = false;
        for policy in policies() {
            let events = trace_of(&inst.program, policy);
            let djit = djit_on(&events);
            let bf = bigfoot_on(&events, &inst);
            assert_eq!(
                djit.racy_locations(),
                bf.racy_locations(),
                "{name} under {policy:?}: DJIT+ {:?}, BigFoot {:?}\n{}",
                djit.races,
                bf.races,
                pretty(&inst.program)
            );
            raced |= djit.has_races();
        }
        assert!(raced, "{name} never raced, so it tests nothing");
    }
}

#[test]
fn lock_bound_suite_programs_keep_no_thread_checks() {
    for name in ["h2", "xalan", "tomcat", "pmd", "avrora"] {
        let p = benchmark(name, Scale::Full).unwrap().program;
        let paper = paper_placement(&p);
        let inst = instrument(&p);
        assert!(method_checks(&paper.program) > 0, "{name}");
        assert_eq!(
            method_checks(&inst.program),
            0,
            "{name}:\n{}",
            pretty(&inst.program)
        );
        assert!(inst.ownership.total_removed() > 0);
        assert!(!inst.ownership.budget_hit);
    }
}

#[test]
fn fork_free_programs_are_untouched() {
    for src in [
        "class P { field x; meth inc() { this.x = this.x + 1; return 0; } }
         main { p = new P; r = p.inc(); r = p.inc(); }",
        "main {
             a = new_array(10);
             for (i = 0; i < 10; i = i + 1) { a[i] = i; }
             s = 0;
             for (i = 0; i < 10; i = i + 1) { s = s + a[i]; }
         }",
    ] {
        let p = parse_program(src).unwrap();
        let inst = instrument(&p);
        assert_eq!(inst.program, paper_placement(&p).program, "{src}");
        assert_eq!(inst.ownership.total_removed(), 0);
    }
}

#[test]
fn reports_name_the_rule_and_the_lock() {
    // `input` is written before the first fork and only read after it
    // (R3), `out` and `cur.pos` are touched only under `lock` (R2), and
    // each worker's scratch array never leaves it (R1).
    let src = "
        class Cursor { field pos; }
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
        }";
    let p = parse_program(src).unwrap();
    let inst = instrument(&p);
    let found: Vec<String> = inst
        .ownership
        .locations
        .iter()
        .map(|l| {
            format!(
                "{}#{} {:?} {:?} lock={:?}",
                l.site.method_label(&inst.program),
                l.site.ordinal,
                l.field.map(|f| f.as_str()),
                l.rule,
                l.lock.map(|s| s.ordinal),
            )
        })
        .collect();
    assert_eq!(
        found,
        [
            "T.work#0 None Local lock=None",
            "main#0 None ReadOnly lock=None",
            "main#1 None Locked lock=Some(3)",
            "main#2 Some(\"pos\") Locked lock=Some(3)",
        ],
        "{}",
        pretty(&inst.program)
    );
    // The loop filling `input` runs before the first fork: its check stays.
    assert_eq!(method_checks(&inst.program), 0, "{}", pretty(&inst.program));
    assert!(
        pretty(&inst.program).contains("check(w: input["),
        "{}",
        pretty(&inst.program)
    );
    for policy in policies().into_iter().take(8) {
        let events = trace_of(&inst.program, policy);
        assert!(!bigfoot_on(&events, &inst).has_races());
        assert!(!djit_on(&events).has_races());
    }
}

#[test]
fn a_loop_that_forks_is_concurrent_code_as_a_whole() {
    // The write at the top of the loop runs again after the first
    // iteration's fork, so it is not "before the first fork": it races
    // with the second worker's read and must keep its check.
    let src = "
        class Box { field v; }
        class W { meth read(b) { x = b.v; return x; } }
        main {
            b = new Box;
            w = new W;
            for (k = 0; k < 2; k = k + 1) {
                b.v = k;
                fork t = w.read(b);
            }
        }";
    let p = parse_program(src).unwrap();
    let inst = instrument(&p);
    assert_eq!(
        inst.ownership.total_removed(),
        0,
        "{}",
        pretty(&inst.program)
    );
    let raced = policies().into_iter().any(|policy| {
        let events = trace_of(&inst.program, policy);
        let bf = bigfoot_on(&events, &inst);
        assert_eq!(bf.racy_locations(), djit_on(&events).racy_locations());
        bf.has_races()
    });
    assert!(raced);
}

#[test]
fn an_access_after_wait_is_still_lock_owned() {
    // `wait(l)` re-acquires `l` before it returns, so the read of
    // `f.ready` in the loop and the write of `d.v` after it are still
    // inside the critical section: R2 clears both.
    let src = "
        class Flag { field ready; }
        class Data { field v; }
        class Lk { }
        class W {
            meth waiter(f, d, l) {
                acq(l);
                while (f.ready == 0) { wait(l); }
                d.v = d.v + 1;
                rel(l);
                return 0;
            }
            meth notifier(f, d, l) {
                acq(l);
                d.v = 5;
                f.ready = 1;
                notify(l);
                rel(l);
                return 0;
            }
        }
        main {
            f = new Flag;
            d = new Data;
            l = new Lk;
            w = new W;
            fork t1 = w.waiter(f, d, l);
            fork t2 = w.notifier(f, d, l);
            join(t1);
            join(t2);
        }";
    let p = parse_program(src).unwrap();
    let inst = instrument(&p);
    assert!(method_checks(&paper_placement(&p).program) > 0);
    let found: Vec<String> = inst
        .ownership
        .locations
        .iter()
        .map(|l| {
            format!(
                "{}#{} {:?} {:?} lock={:?}",
                l.site.method_label(&inst.program),
                l.site.ordinal,
                l.field.map(|f| f.as_str()),
                l.rule,
                l.lock.map(|s| s.ordinal),
            )
        })
        .collect();
    assert_eq!(
        found,
        [
            "main#0 Some(\"ready\") Locked lock=Some(2)",
            "main#1 Some(\"v\") Locked lock=Some(2)",
        ],
        "{}",
        pretty(&inst.program)
    );
    assert_eq!(method_checks(&inst.program), 0, "{}", pretty(&inst.program));
    for policy in policies() {
        let events = trace_of(&inst.program, policy);
        assert!(!bigfoot_on(&events, &inst).has_races(), "{policy:?}");
        assert!(!djit_on(&events).has_races(), "{policy:?}");
    }
}
