//! `check-suite`: one `bfc check --detector bigfoot --compiled` verdict
//! per op over the 19 full-scale suite programs.
//!
//! The op is the chain `parse_program` → `instrument` → `compile` →
//! `CompiledVm::run` into `Detector::bigfoot` → `finish`. Every suite
//! program is race-free by construction, which is the known answer.

use crate::driver::{Config, Counts, Extras, Outcome, Workload};
use crate::exec;
use crate::ledger::Tracer;
use bigfoot::{instrument, instrument_incremental, InstrumentOptions, Instrumented};
use bigfoot_bfj::{compile, parse_program, CompiledProgram, Program};
use bigfoot_workloads::{source, Scale, NAMES};
use std::path::PathBuf;

struct Last {
    program: Program,
    inst: Instrumented,
    lowered: CompiledProgram,
}

/// The `check-suite` workload.
pub struct CheckSuite {
    names: Vec<String>,
    sources: Vec<String>,
    /// Empty placement-cache directory for the traced run's cold
    /// incremental analyses.
    cold_dir: PathBuf,
    last: Option<Last>,
}

impl CheckSuite {
    /// Generates the suite's source texts; there is no on-disk state.
    pub fn setup(cfg: &Config) -> Result<CheckSuite, String> {
        let sources = NAMES
            .iter()
            .map(|n| source(n, Scale::Full).ok_or(format!("no suite program `{n}`")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CheckSuite {
            names: NAMES.iter().map(|n| n.to_string()).collect(),
            sources,
            cold_dir: cfg.state_dir().join("cold-cache"),
            last: None,
        })
    }
}

impl Workload for CheckSuite {
    fn inputs(&self) -> &[String] {
        &self.names
    }

    fn op(&mut self, input: usize, _pass: u64, tr: &mut Tracer) -> Result<Outcome, String> {
        let src = &self.sources[input];
        let program = tr
            .span("parse", || parse_program(src))
            .map_err(|e| format!("parse error: {e}"))?;
        let inst = tr.span("static", || instrument(&program));
        let lowered = tr.span("lower", || compile(&inst.program));
        let (steps, stats) = tr.span("exec", || exec::check_bigfoot(&lowered, &inst.proxies))?;
        let counts = Counts {
            source_bytes: src.len() as u64,
            methods: inst.stats.methods as u64,
            checks_inserted: inst.stats.checks_inserted as u64,
            instrs: lowered.instr_count() as u64,
            steps,
            ..Counts::from_stats(&stats)
        };
        self.last = Some(Last {
            program,
            inst,
            lowered,
        });
        Ok(Outcome {
            racy: stats.has_races(),
            counts,
        })
    }

    fn known_answer(&mut self, _input: usize) -> Result<bool, String> {
        Ok(false)
    }

    fn extras(&mut self, _input: usize) -> Result<Option<Extras>, String> {
        let last = self.last.as_ref().ok_or("no op to measure")?;
        let mut x = exec::fig2(&last.program, &last.lowered, &last.inst.proxies)?;
        let (_, plain) = exec::timed(|| instrument(&last.program));
        // Removing a directory that is not there is not an error here.
        let _ = std::fs::remove_dir_all(&self.cold_dir);
        let (_, cold) = exec::timed(|| {
            instrument_incremental(&last.program, InstrumentOptions::default(), &self.cold_dir)
        });
        let _ = std::fs::remove_dir_all(&self.cold_dir);
        x.plain_static_ns = Some(plain);
        x.cold_cache_ns = Some(cold);
        Ok(Some(x))
    }

    fn release(&mut self) {
        self.last = None;
    }

    fn setup_counts(&self) -> Counts {
        Counts::default()
    }
}
