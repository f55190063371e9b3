//! Find a data race: run a buggy work-queue program under several seeds
//! and watch FastTrack and BigFoot report the same race — BigFoot just
//! checks far less often.
//!
//! ```text
//! cargo run --example find_race
//! ```

use bigfoot_bfj::{compile, parse_program, CompiledVm, EventSink, RecordingSink, SchedPolicy};
use bigfoot_detectors::Detector;

/// A classic bug: the "done" flag is published without holding the lock
/// that protects the results buffer, so the consumer can read the buffer
/// while the producer is still filling it.
const SOURCE: &str = r#"
    class Queue {
        field done;
        meth produce(buf, lock) {
            acq(lock);
            for (i = 0; i < buf.length; i = i + 1) {
                buf[i] = i * i;
            }
            rel(lock);
            this.done = 1;
            return 0;
        }
        meth consume(buf, lock) {
            spin = 0;
            d = this.done;
            while (d == 0 && spin < 10000) {
                spin = spin + 1;
                d = this.done;
            }
            sum = 0;
            for (i = 0; i < buf.length; i = i + 1) {
                sum = sum + buf[i];
            }
            return sum;
        }
    }
    class Lk { }
    main {
        q = new Queue;
        lock = new Lk;
        buf = new_array(64);
        fork producer = q.produce(buf, lock);
        fork consumer = q.consume(buf, lock);
        join(producer);
        join(consumer);
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = parse_program(SOURCE)?;
    let inst = bigfoot::instrument(&program);
    println!("instrumented with {} checks\n", inst.stats.checks_inserted);
    let lowered = compile(&inst.program);

    let mut found = 0;
    for seed in 1..=10u64 {
        // One deterministic execution, observed by both detectors.
        let mut trace = RecordingSink::default();
        CompiledVm::new(
            &lowered,
            SchedPolicy::Random {
                seed,
                switch_inv: 2,
            },
        )
        .run(&mut trace)?;

        let mut ft = Detector::fasttrack();
        let mut bf = Detector::bigfoot(inst.proxies.clone());
        for ev in &trace.events {
            ft.event(ev);
            bf.event(ev);
        }
        let ft = ft.finish();
        let bf = bf.finish();
        assert_eq!(
            ft.has_races(),
            bf.has_races(),
            "detectors must agree on the same trace"
        );
        assert_eq!(ft.racy_locations(), bf.racy_locations());
        if bf.has_races() {
            found += 1;
            println!("seed {seed:>2}: RACE");
            for race in bf.races.iter().take(3) {
                println!("    {} — {}", race.target, race.info);
            }
            println!(
                "    FastTrack needed {} checks, BigFoot {} ({}x fewer)",
                ft.accesses(),
                bf.checks,
                ft.accesses() / bf.checks.max(1),
            );
        } else {
            println!("seed {seed:>2}: this schedule happened to be race-free");
        }
    }
    println!("\nthe unsynchronized done-flag race manifested in {found}/10 schedules;");
    println!("both detectors agreed on every one of them.");
    Ok(())
}
