//! Corpus regression replay + a small always-on fuzz smoke campaign.
//!
//! Every minimized reproducer ever committed to `crates/fuzz/corpus/` is
//! replayed through all oracles on every `cargo test` run — a bug fixed
//! once stays fixed. The smoke campaign then runs a fixed seed window so
//! plain `cargo test` exercises the whole differential harness even when
//! the corpus is empty.

use std::path::Path;

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
}

#[test]
fn corpus_entries_never_diverge_again() {
    let failures = bigfoot_fuzz::replay_corpus(corpus_dir()).expect("corpus loads");
    assert!(
        failures.is_empty(),
        "corpus reproducers diverged again:\n{}",
        failures
            .iter()
            .map(|(e, d)| format!("  {} [{}] {}", e.path.display(), d.oracle.name(), d.detail))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn adversarial_pipeline_configs_agree_on_fuzz_cases() {
    // The most hostile pipeline geometry — one-event batches through
    // two-slot rings, so the ring hits batch boundaries and backpressure
    // on every event — over generated fuzz cases rather than
    // hand-written programs, for FastTrack and DJIT+.
    use bigfoot_bfj::{EventSink, Interp, RecordingSink};
    use bigfoot_detectors::{
        detect_pipelined, run_pipelined, Detector, DjitDetector, PipelineConfig,
    };

    let pcfg = PipelineConfig {
        batch_events: 1,
        ring_slots: 2,
    };
    for seed in 1..=6u64 {
        let case = bigfoot_fuzz::FuzzCase::from_seed(seed).expect("generator");
        let mut rec = RecordingSink::default();
        Interp::new(&case.program, case.policy)
            .run(&mut rec)
            .expect("run");
        let events = rec.events;
        let feed = |sink: &mut bigfoot_detectors::BatchSink<'_>| {
            for ev in &events {
                sink.event(ev);
            }
        };

        let mut ft = Detector::fasttrack();
        let mut djit = DjitDetector::new();
        for ev in &events {
            ft.event(ev);
            djit.event(ev);
        }
        let (_, got) = detect_pipelined(&pcfg, feed, Detector::fasttrack());
        assert_eq!(
            got.to_json().to_string_compact(),
            ft.finish().to_json().to_string_compact(),
            "seed {seed}: pipelined fasttrack diverges"
        );
        let (_, got) = run_pipelined(&pcfg, feed, DjitDetector::new());
        assert_eq!(
            got.finish().to_json().to_string_compact(),
            djit.finish().to_json().to_string_compact(),
            "seed {seed}: pipelined djit diverges"
        );
    }
}

#[test]
fn smoke_campaign_finds_no_divergence() {
    let report = bigfoot_fuzz::run_campaign(&bigfoot_fuzz::FuzzOptions {
        seed_lo: 1,
        seed_hi: 41,
        budget_secs: 0,
        corpus_dir: None, // never write into the source tree from a test
        shrink_budget: 100,
    });
    assert_eq!(report.cases, 40);
    assert_eq!(report.oracle_runs, [40; 7]);
    assert!(
        report.divergences.is_empty(),
        "divergences: {:#?}",
        report
            .divergences
            .iter()
            .map(|d| format!(
                "seed {} [{}] {}\n{}",
                d.seed,
                d.oracle.name(),
                d.detail,
                d.minimized
            ))
            .collect::<Vec<_>>()
    );
}
