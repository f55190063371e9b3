//! Differential test: pipelined detection (interpreter producing into the
//! batched SPSC ring, detector consuming on its own thread) must reproduce
//! the serial detector's report **bit-for-bit** — same races in the same
//! order, same counters, same space accounting — for every detector
//! `bfc check --pipeline` can run.
//!
//! Coverage: every suite benchmark (small scale) under all five detector
//! configurations (FT/RC/SS/SC/BF) and DJIT+, and 60 seeded random
//! programs — racy and race-free — under randomized schedules. Batch and
//! ring sizes are swept so batch boundaries, partial final batches, and
//! producer backpressure all fire.

use bigfoot::instrument;
use bigfoot_bfj::{parse_program, EventSink, Interp, Program, RecordingSink, SchedPolicy};
use bigfoot_detectors::{
    detect_pipelined, run_pipelined, Detector, DjitDetector, PipelineConfig, ProxyTable, Stats,
};
use bigfoot_workloads::{benchmarks, random_program, RandomConfig, Scale};

/// Runs the program once and returns the recorded event stream, so the
/// serial and pipelined detectors consume the *same* execution.
fn record(program: &Program, policy: SchedPolicy) -> RecordingSink {
    let mut rec = RecordingSink::default();
    Interp::new(program, policy).run(&mut rec).expect("run");
    rec
}

fn serial(rec: &RecordingSink, mut det: Detector) -> Stats {
    for ev in &rec.events {
        det.event(ev);
    }
    det.finish()
}

fn pipelined(rec: &RecordingSink, config: &PipelineConfig, det: Detector) -> Stats {
    let (_, stats) = detect_pipelined(
        config,
        |sink| {
            for ev in &rec.events {
                sink.event(ev);
            }
        },
        det,
    );
    stats
}

fn serial_djit(rec: &RecordingSink) -> Stats {
    let mut det = DjitDetector::new();
    for ev in &rec.events {
        det.event(ev);
    }
    det.finish()
}

fn pipelined_djit(rec: &RecordingSink, config: &PipelineConfig) -> Stats {
    let (_, det) = run_pipelined(
        config,
        |sink| {
            for ev in &rec.events {
                sink.event(ev);
            }
        },
        DjitDetector::new(),
    );
    det.finish()
}

#[track_caller]
fn assert_identical(label: &str, pipelined: &Stats, serial: &Stats) {
    assert_eq!(
        pipelined.races, serial.races,
        "{label}: races diverge between pipelined and serial detection"
    );
    assert_eq!(
        pipelined.to_json().to_string_compact(),
        serial.to_json().to_string_compact(),
        "{label}: stats diverge between pipelined and serial detection"
    );
}

/// One odd batch size that never divides the event count, one production
/// default; rings small enough that backpressure fires on real programs.
const SWEEP: [PipelineConfig; 2] = [
    PipelineConfig {
        batch_events: 7,
        ring_slots: 2,
    },
    PipelineConfig {
        batch_events: 4096,
        ring_slots: 8,
    },
];

#[test]
fn suite_benchmarks_pipeline_identically_under_all_configs() {
    for b in benchmarks(Scale::Small) {
        let inst = instrument(&b.program);
        let raw = record(&b.program, SchedPolicy::default());
        let checked = record(&inst.program, SchedPolicy::default());
        // (config name, detector factory, which trace it consumes)
        type ConfigRow<'a> = (&'a str, Box<dyn Fn() -> Detector + 'a>, &'a RecordingSink);
        let configs: [ConfigRow; 5] = [
            ("ft", Box::new(Detector::fasttrack), &raw),
            (
                "rc",
                Box::new(|| Detector::redcard(inst.proxies.clone())),
                &checked,
            ),
            ("ss", Box::new(Detector::slimstate), &raw),
            (
                "sc",
                Box::new(|| Detector::slimcard(inst.proxies.clone())),
                &checked,
            ),
            (
                "bf",
                Box::new(|| Detector::bigfoot(inst.proxies.clone())),
                &checked,
            ),
        ];
        for (name, make, rec) in &configs {
            let reference = serial(rec, make());
            for cfg in &SWEEP {
                let stats = pipelined(rec, cfg, make());
                assert_identical(
                    &format!("{} [{name}] batch {}", b.name, cfg.batch_events),
                    &stats,
                    &reference,
                );
            }
        }
    }
}

#[test]
fn suite_benchmarks_pipeline_djit_identically() {
    // DJIT+ runs on the raw event stream, outside the `Detector`
    // configurations above, so it gets its own sweep.
    for b in benchmarks(Scale::Small) {
        let raw = record(&b.program, SchedPolicy::default());
        let reference = serial_djit(&raw);
        for cfg in &SWEEP {
            assert_identical(
                &format!("{} [djit] batch {}", b.name, cfg.batch_events),
                &pipelined_djit(&raw, cfg),
                &reference,
            );
        }
    }
}

#[test]
fn random_programs_pipeline_identically() {
    // 60 seeded generator configurations (≥ 50 per the pipelined-mode
    // acceptance bar): alternating racy / race-free, varying thread
    // counts and sizes, under randomized schedules.
    let tiny = PipelineConfig {
        batch_events: 3,
        ring_slots: 2,
    };
    let mut races_seen = 0usize;
    for seed in 0..60u64 {
        let cfg = RandomConfig {
            seed: seed + 1,
            size: 8 + (seed as usize % 9),
            threads: 2 + (seed as usize % 3),
            array_len: 16 + (seed as usize % 17),
            racy: seed % 2 == 0,
            ..RandomConfig::default()
        };
        let src = random_program(&cfg);
        let program = parse_program(&src).expect("generated program parses");
        let policy = SchedPolicy::Random {
            seed: seed * 31 + 7,
            switch_inv: 2,
        };
        let rec = record(&program, policy);
        let reference = serial(&rec, Detector::fasttrack());
        if reference.has_races() {
            races_seen += 1;
        }
        let stats = pipelined(&rec, &tiny, Detector::fasttrack());
        assert_identical(&format!("random seed {seed}"), &stats, &reference);
        // The slim (footprint) engine exercises the commit path on the
        // same events, and DJIT+ its full vector-clock pairs.
        assert_identical(
            &format!("random seed {seed} (slimstate)"),
            &pipelined(&rec, &tiny, Detector::slimstate()),
            &serial(&rec, Detector::slimstate()),
        );
        assert_identical(
            &format!("random seed {seed} (djit)"),
            &pipelined_djit(&rec, &tiny),
            &serial_djit(&rec),
        );
    }
    assert!(
        races_seen > 0,
        "the racy generator configurations should race at least once"
    );
}

#[test]
fn pipeline_default_proxy_table_matches_serial() {
    // Identity proxies under the check-event source (RedCard-like path).
    for b in benchmarks(Scale::Small).into_iter().take(4) {
        let inst = instrument(&b.program);
        let checked = record(&inst.program, SchedPolicy::default());
        let reference = serial(&checked, Detector::redcard(ProxyTable::identity()));
        let stats = pipelined(
            &checked,
            &PipelineConfig::default(),
            Detector::redcard(ProxyTable::identity()),
        );
        assert_identical(b.name, &stats, &reference);
    }
}
