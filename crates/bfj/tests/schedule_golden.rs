//! Schedule golden test: the event stream each executor emits for a fixed
//! input set must not change unless a change means to change schedules.
//!
//! Every input runs on both [`Interp`] and [`CompiledVm`] under each of
//! four scheduling policies (small and default round-robin quanta, and two
//! seeded random policies). The test folds the run's outcome (its
//! [`RunOutcome`] or [`RuntimeError`]) and the BFTR bytes of its event
//! stream into one [`StableHasher`] digest per (input, policy, executor)
//! and compares the digests against `tests/golden/schedules.txt`.
//!
//! The interpreted-vs-compiled differentials compare the two executors
//! with each other; this test compares both with a fixed record, so it
//! also catches a scheduling change that moves both executors alike.
//!
//! Inputs: the 19 small-scale suite programs, the racy programs of the
//! perfbench `recheck-edits` corpus, 48 seeded random programs (fork
//! trees, two locks and volatiles, racy and race-free), and the monitor
//! and error programs of `compiled_vm.rs`.
//!
//! On a mismatch the test writes the digests it computed to
//! `schedules.actual` in the system temp dir. An intended schedule change
//! replaces the golden file with that one.

use bigfoot_bfj::{
    compile, parse_program, CompiledVm, Interp, Program, RunOutcome, RuntimeError, SchedPolicy,
    TraceWriter,
};
use bigfoot_obs::stable::StableHasher;
use bigfoot_workloads::{benchmarks, random_program, RandomConfig, Scale};

const GOLDEN: &str = include_str!("golden/schedules.txt");

const POLICIES: [SchedPolicy; 4] = [
    SchedPolicy::RoundRobin { quantum: 1 },
    SchedPolicy::RoundRobin { quantum: 64 },
    SchedPolicy::Random {
        seed: 0xB16F_00D5 ^ 0xC0FFEE,
        switch_inv: 1,
    },
    SchedPolicy::Random {
        seed: 42,
        switch_inv: 3,
    },
];

/// A bound no input reaches; it keeps a scheduling bug that livelocks an
/// input from hanging the test.
const MAX_STEPS: u64 = 2_000_000;

const RANDOM_PROGRAMS: u64 = 48;

/// The monitor programs of `compiled_vm.rs`: contended locks, reentrancy,
/// wait/notify hand-off, and a two-worker composite.
const MONITOR_PROGRAMS: [&str; 4] = [
    "class W { field done; meth run(l) { acq(l); this.done = 1; rel(l); return 0; } }
     main {
         l = new W;
         w = new W;
         fork t1 = w.run(l);
         fork t2 = w.run(l);
         join(t1); join(t2);
         acq(l); d = w.done; rel(l);
     }",
    "class L { meth m(l) { acq(l); acq(l); rel(l); rel(l); return 0; } }
     main { l = new L; o = new L; fork t = o.m(l); acq(l); rel(l); join(t); }",
    "class Cell {
         field full;
         meth put(l) {
             acq(l);
             this.full = 1;
             notify(l);
             rel(l);
             return 0;
         }
         meth take(l) {
             acq(l);
             f = this.full;
             while (f == 0) { wait(l); f = this.full; }
             rel(l);
             return f;
         }
     }
     main {
         l = new Cell; c = new Cell;
         c.full = 0;
         fork t = c.take(l);
         fork u = c.put(l);
         join(t); join(u);
     }",
    "class Worker {
         field sum;
         volatile flag;
         meth work(l, a, lo, hi) {
             i = lo;
             while (i < hi) {
                 v = a[i];
                 acq(l);
                 s = this.sum;
                 this.sum = s + v;
                 rel(l);
                 i = i + 1;
             }
             this.flag = 1;
             return this.sum;
         }
     }
     main {
         l = new Worker; w = new Worker;
         w.sum = 0;
         a = new_array(40);
         i = 0;
         while (i < 40) { a[i] = i; i = i + 1; }
         fork t1 = w.work(l, a, 0, 20);
         fork t2 = w.work(l, a, 20, 40);
         f = w.flag;
         join(t1);
         join(t2);
         acq(l); total = w.sum; rel(l);
     }",
];

/// The error programs of `compiled_vm.rs`: every runtime error, including
/// deadlock and illegal monitor use.
const ERROR_PROGRAMS: [&str; 28] = [
    "main { x = 1 / 0; }",
    "main { x = 5 % 0; }",
    "main { x = y + 1; }",
    "main { x = 1 + true; }",
    "main { x = !3; }",
    "main { x = true < false; }",
    "main { a = new_array(3); x = a[3]; }",
    "main { a = new_array(3); x = a[0 - 1]; }",
    "main { a = new_array(3); y = 7; a[y] = y; }",
    "main { a = new_array(0 - 2); }",
    "main { x = new Nope; }",
    "class A { } main { a = new A; a.f = 1; }",
    "class A { } main { a = new A; x = a.f; }",
    "class A { } main { a = new A; x = a.m(); }",
    "class A { meth m(p) { return p; } } main { a = new A; x = a.m(); }",
    "main { x = 3; acq(x); }",
    "main { x = 3; x.f = 1; }",
    "main { x = 3; y = x[0]; }",
    "main { x = 3; n = x.length; }",
    "main { x = 3; join(x); }",
    "main { l = new_array(1); rel(l); }",
    "class L { } main { l = new L; rel(l); }",
    "class L { } main { l = new L; notify(l); }",
    "class L { } main { l = new L; wait(l); }",
    "class L { } main { l = new L; acq(l); wait(l); }",
    "class P { field x; } main { p = new P; check(r: p.x/y); }",
    "main { check(r: p.x); }",
    "main { a = new_array(4); check(r: a[z..4:1]); }",
];

/// The racy programs of perfbench's `recheck-edits` corpus (seeds 14 and
/// 15): six workers with volatiles, strided loops and two locks.
fn corpus_input(seed: u64) -> String {
    random_program(&RandomConfig {
        seed,
        size: 24,
        threads: 6,
        array_len: 48,
        racy: true,
        locks: 2,
        volatiles: true,
        strided: true,
        symbolic_bounds: false,
        fork_trees: false,
    })
}

/// Random program `i`: fork trees, two locks and volatiles throughout;
/// bit 0 of `i` makes it racy, bit 1 adds a third worker.
fn random_input(i: u64) -> String {
    random_program(&RandomConfig {
        seed: 0x5eed_5c4e ^ (i + 1),
        racy: i & 1 != 0,
        threads: if i & 2 != 0 { 3 } else { 2 },
        locks: 2,
        volatiles: true,
        fork_trees: true,
        ..RandomConfig::default()
    })
}

fn parse(name: &str, src: &str) -> Program {
    parse_program(src).unwrap_or_else(|e| panic!("{name} does not parse: {e}"))
}

/// Every input with its step limit: each program runs to completion under
/// [`MAX_STEPS`], and a few multi-threaded ones are also cut short at a
/// small limit, which pins where the step limit lands in a schedule.
fn inputs() -> Vec<(String, Program, u64)> {
    let mut out: Vec<(String, Program, u64)> = benchmarks(Scale::Small)
        .into_iter()
        .map(|b| (b.name.to_owned(), b.program, MAX_STEPS))
        .collect();
    let mut push = |name: String, src: &str| {
        let program = parse(&name, src);
        out.push((name, program, MAX_STEPS));
    };
    for seed in [14, 15] {
        push(format!("corpus-{seed}"), &corpus_input(seed));
    }
    for i in 0..RANDOM_PROGRAMS {
        push(format!("random-{i:02}"), &random_input(i));
    }
    for (i, src) in MONITOR_PROGRAMS.iter().enumerate() {
        push(format!("monitor-{i}"), src);
    }
    for (i, src) in ERROR_PROGRAMS.iter().enumerate() {
        push(format!("error-{i:02}"), src);
    }
    for limit in [1, 200, 260, 1000] {
        let name = format!("monitor-3-limit-{limit}");
        out.push((name.clone(), parse(&name, MONITOR_PROGRAMS[3]), limit));
    }
    let name = "corpus-14-limit-5000".to_owned();
    out.push((name.clone(), parse(&name, &corpus_input(14)), 5000));
    out
}

fn digest(result: &Result<RunOutcome, RuntimeError>, trace: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    match result {
        Ok(o) => {
            h.write_u8(0);
            h.write_u64(o.steps);
            h.write_usize(o.threads);
            h.write_u64(o.heap_cells);
        }
        Err(e) => {
            h.write_u8(1);
            h.write_str(&format!("{e:?}"));
        }
    }
    h.write_bytes(trace);
    h.finish()
}

fn render() -> String {
    let mut out = String::new();
    for (name, program, max_steps) in inputs() {
        let lowered = compile(&program);
        for (k, policy) in POLICIES.into_iter().enumerate() {
            let mut w = TraceWriter::new();
            let res = Interp::new(&program, policy)
                .with_max_steps(max_steps)
                .run(&mut w);
            let interp = digest(&res, &w.into_bytes());
            let mut w = TraceWriter::new();
            let res = CompiledVm::new(&lowered, policy)
                .with_max_steps(max_steps)
                .run(&mut w);
            let vm = digest(&res, &w.into_bytes());
            out.push_str(&format!("{name} p{k} {interp:016x} {vm:016x}\n"));
        }
    }
    out
}

#[test]
fn schedules_match_golden_digests() {
    let actual = render();
    if actual == GOLDEN {
        return;
    }
    let path = std::env::temp_dir().join("schedules.actual");
    let _ = std::fs::write(&path, &actual);
    let diffs: Vec<String> = actual
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(a, g)| a != g)
        .take(10)
        .map(|(a, g)| format!("  expected {g}\n  actual   {a}"))
        .collect();
    panic!(
        "schedules differ from tests/golden/schedules.txt \
         ({} vs {} lines; digests written to {}):\n{}",
        actual.lines().count(),
        GOLDEN.lines().count(),
        path.display(),
        diffs.join("\n")
    );
}
