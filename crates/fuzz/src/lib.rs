//! Differential fuzzing for the BigFoot pipeline.
//!
//! Static check placement is only correct if it is *invisible*: a
//! BigFoot-instrumented program must produce exactly the race verdict the
//! unoptimized detector produces (the paper's precision theorem, §3.5),
//! the parallel replay engine must be bit-identical to serial detection,
//! and the binary trace codec must be lossless. This crate cross-checks
//! all three on seeded random programs *and* schedules:
//!
//! 1. [`FuzzCase::from_seed`] expands one seed into a generator
//!    configuration (threads, nested locks, volatiles, strided loops,
//!    symbolic bounds, fork trees, racy or race-free) plus a scheduler
//!    policy.
//! 2. [`run_oracles`] runs the case through the round-trip, compiled,
//!    placement, incremental, replay, and compressed oracles; any
//!    disagreement is a [`Divergence`].
//! 3. [`shrink`] delta-debugs a diverging case to a minimal deterministic
//!    reproducer, which [`run_campaign`] commits to the corpus
//!    (`crates/fuzz/corpus/`) where `cargo test` replays it forever.
//!
//! The `bfc fuzz` subcommand and `repro fuzz` drive campaigns from the
//! command line; per-oracle counters (`fuzz.cases`, `fuzz.oracle.*`,
//! `fuzz.divergence`) and spans (`fuzz.case`, `fuzz.shrink`) flow through
//! `bigfoot-obs` like every other phase.

mod case;
mod corpus;
mod oracle;
mod shrink;

pub use case::FuzzCase;
pub use corpus::{load_dir, parse_entry, render_entry, write_entry, CorpusEntry};
pub use oracle::{run_oracles, Divergence, OracleKind};
pub use shrink::{shrink, Shrunk};

use bigfoot_bfj::pretty;
use bigfoot_obs::json::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// First seed (inclusive).
    pub seed_lo: u64,
    /// Last seed (exclusive).
    pub seed_hi: u64,
    /// Wall-clock budget in seconds; 0 means run the whole seed range.
    pub budget_secs: u64,
    /// Where to write minimized reproducers; `None` skips the write.
    pub corpus_dir: Option<PathBuf>,
    /// Oracle-run budget per shrink.
    pub shrink_budget: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed_lo: 1,
            seed_hi: 501,
            budget_secs: 0,
            corpus_dir: None,
            shrink_budget: 400,
        }
    }
}

/// One divergence found (and minimized) during a campaign.
#[derive(Debug, Clone)]
pub struct FoundDivergence {
    /// The campaign seed that produced it.
    pub seed: u64,
    /// Which oracle fired.
    pub oracle: OracleKind,
    /// Divergence description for the *minimized* program.
    pub detail: String,
    /// The schedule policy of the case.
    pub policy: bigfoot_bfj::SchedPolicy,
    /// Minimized source.
    pub minimized: String,
    /// Where the reproducer was written, when a corpus dir was given.
    pub corpus_file: Option<PathBuf>,
    /// Oracle runs the shrinker spent.
    pub shrink_runs: usize,
}

/// Campaign summary.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// First seed actually covered (inclusive).
    pub seed_lo: u64,
    /// Seeds covered before the budget ran out (exclusive bound).
    pub seed_hi: u64,
    /// Cases executed (== seeds covered).
    pub cases: u64,
    /// Times each oracle suite completed (round-trip, compiled,
    /// placement, incremental, replay, compressed).
    pub oracle_runs: [u64; 6],
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// True when the time budget stopped the campaign early.
    pub exhausted_budget: bool,
    /// Every divergence found, minimized.
    pub divergences: Vec<FoundDivergence>,
}

impl CampaignReport {
    /// Machine-readable form (hangs off the `bfc --json` envelope).
    pub fn to_json(&self) -> Json {
        let mut out = Json::object();
        out.set("seed_lo", self.seed_lo);
        out.set("seed_hi", self.seed_hi);
        out.set("cases", self.cases);
        let mut oracles = Json::object();
        oracles.set("roundtrip", self.oracle_runs[0]);
        oracles.set("compiled", self.oracle_runs[1]);
        oracles.set("placement", self.oracle_runs[2]);
        oracles.set("incremental", self.oracle_runs[3]);
        oracles.set("replay", self.oracle_runs[4]);
        oracles.set("compressed", self.oracle_runs[5]);
        out.set("oracle_runs", oracles);
        out.set("elapsed_ms", self.elapsed.as_secs_f64() * 1e3);
        out.set("exhausted_budget", self.exhausted_budget);
        let mut divs = Json::array();
        for d in &self.divergences {
            let mut j = Json::object();
            j.set("seed", d.seed);
            j.set("oracle", d.oracle.name());
            j.set("detail", d.detail.as_str());
            j.set("minimized", d.minimized.as_str());
            j.set("shrink_runs", d.shrink_runs as u64);
            if let Some(p) = &d.corpus_file {
                j.set("corpus_file", p.display().to_string());
            }
            divs.push(j);
        }
        out.set("divergences", divs);
        out
    }
}

/// Runs a fuzzing campaign over `[seed_lo, seed_hi)`.
///
/// Each seed expands to a program + schedule, runs through every oracle,
/// and — on divergence — is shrunk to a minimal deterministic reproducer
/// and (optionally) committed to the corpus. The campaign keeps going
/// after a divergence: one bug must not mask another.
pub fn run_campaign(opts: &FuzzOptions) -> CampaignReport {
    let start = Instant::now();
    let budget = (opts.budget_secs > 0).then(|| Duration::from_secs(opts.budget_secs));
    let mut report = CampaignReport {
        seed_lo: opts.seed_lo,
        seed_hi: opts.seed_lo,
        cases: 0,
        oracle_runs: [0; 6],
        elapsed: Duration::ZERO,
        exhausted_budget: false,
        divergences: Vec::new(),
    };
    for seed in opts.seed_lo..opts.seed_hi {
        if let Some(b) = budget {
            if start.elapsed() >= b {
                report.exhausted_budget = true;
                break;
            }
        }
        bigfoot_obs::count!("fuzz.cases");
        report.cases += 1;
        report.seed_hi = seed + 1;
        let case = match FuzzCase::from_seed(seed) {
            Ok(c) => c,
            Err(e) => {
                // Generator contract violation: report it like a
                // divergence, but there is no program to shrink.
                bigfoot_obs::count!("fuzz.divergence");
                report.divergences.push(FoundDivergence {
                    seed,
                    oracle: OracleKind::Execution,
                    detail: e,
                    policy: bigfoot_bfj::SchedPolicy::default(),
                    minimized: String::new(),
                    corpus_file: None,
                    shrink_runs: 0,
                });
                continue;
            }
        };
        let Some(div) = run_oracles(&case.program, case.policy) else {
            for run in &mut report.oracle_runs {
                *run += 1;
            }
            continue;
        };
        bigfoot_obs::count!("fuzz.divergence");
        let shrunk = shrink(&case.program, case.policy, div.oracle, opts.shrink_budget);
        let minimized = pretty(&shrunk.program);
        let corpus_file = opts.corpus_dir.as_ref().and_then(|dir| {
            write_entry(
                dir,
                seed,
                div.oracle,
                case.policy,
                &shrunk.divergence.detail,
                &minimized,
            )
            .map_err(|e| eprintln!("fuzz: {e}"))
            .ok()
        });
        report.divergences.push(FoundDivergence {
            seed,
            oracle: div.oracle,
            detail: shrunk.divergence.detail,
            policy: case.policy,
            minimized,
            corpus_file,
            shrink_runs: shrunk.oracle_runs,
        });
    }
    report.elapsed = start.elapsed();
    report
}

/// Replays every corpus entry through all oracles; returns the entries
/// that (still) diverge. An empty result means every past bug stays
/// fixed.
pub fn replay_corpus(dir: &std::path::Path) -> Result<Vec<(CorpusEntry, Divergence)>, String> {
    let mut failures = Vec::new();
    for entry in load_dir(dir)? {
        let program = bigfoot_bfj::parse_program(&entry.source)
            .map_err(|e| format!("{}: {e}", entry.path.display()))?;
        if let Some(d) = run_oracles(&program, entry.policy) {
            failures.push((entry, d));
        }
    }
    Ok(failures)
}
