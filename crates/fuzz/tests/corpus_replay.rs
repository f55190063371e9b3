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
fn smoke_campaign_finds_no_divergence() {
    let report = bigfoot_fuzz::run_campaign(&bigfoot_fuzz::FuzzOptions {
        seed_lo: 1,
        seed_hi: 41,
        budget_secs: 0,
        corpus_dir: None, // never write into the source tree from a test
        shrink_budget: 100,
    });
    assert_eq!(report.cases, 40);
    assert_eq!(report.oracle_runs, [40; 6]);
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
