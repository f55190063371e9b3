//! `recheck-edits`: re-check a program after a one-method edit, against a
//! warm placement cache.
//!
//! Each input is one (program, method, edit kind). Its op applies the edit
//! with `bfj::mutate` and a fresh seeded salt, runs `instrument_incremental`
//! against the program's warm cache, then compiles, runs and takes the
//! BigFoot verdict. Before every op the cache is put back as set-up warmed
//! it from the unedited program, so each op is the same work: the edited
//! method, plus its callers when the edit changes what the method does to
//! locks or the heap. The known answer is DJIT+ over the trace of the same
//! instrumented program, run outside the timed op.

use crate::driver::{Config, Counts, Extras, Outcome, Workload};
use crate::exec;
use crate::ledger::Tracer;
use crate::stats::Rng;
use bigfoot::{instrument, instrument_incremental, InstrumentOptions, Instrumented, CACHE_FILE};
use bigfoot_bfj::{compile, mutate, parse_program, CompiledProgram, MutationKind, Program};
use bigfoot_workloads::{random_program, RandomConfig};
use std::path::PathBuf;

/// The corpus: generation seed and `racy` flag per program. The corpus is
/// fixed so that runs with different workload seeds measure the same
/// programs; the workload seed draws the edit salts and the pass order.
/// Each racy program races on the default schedule.
const CORPUS: [(u64, bool); 4] = [(11, false), (14, true), (12, false), (15, true)];

/// One generated program of the corpus.
#[derive(Debug, Clone)]
pub struct CorpusProgram {
    /// Program name.
    pub name: String,
    /// BFJ source text.
    pub source: String,
    /// Generated with unprotected shared accesses.
    pub racy: bool,
}

/// The seeded random programs `recheck-edits` edits and `replay-suite`
/// replays: six worker methods with volatiles, strided loops and two
/// locks, half of them racy.
pub fn corpus() -> Vec<CorpusProgram> {
    CORPUS
        .iter()
        .map(|&(seed, racy)| {
            let cfg = RandomConfig {
                seed,
                size: 24,
                threads: 6,
                array_len: 48,
                racy,
                locks: 2,
                volatiles: true,
                strided: true,
                symbolic_bounds: false,
                fork_trees: false,
            };
            CorpusProgram {
                name: format!("rand{seed}-{}", if racy { "racy" } else { "safe" }),
                source: random_program(&cfg),
                racy,
            }
        })
        .collect()
}

/// One input: an edit of one method of one corpus program.
struct Input {
    program: usize,
    site: usize,
    kind: MutationKind,
    cache_dir: PathBuf,
}

struct Last {
    program: Program,
    inst: Instrumented,
    lowered: CompiledProgram,
}

/// The `recheck-edits` workload.
pub struct RecheckEdits {
    seed: u64,
    names: Vec<String>,
    programs: Vec<Program>,
    /// Each program's cache as the cold analysis of the unedited program
    /// left it.
    warm_caches: Vec<Vec<u8>>,
    inputs: Vec<Input>,
    setup_counts: Counts,
    last: Option<Last>,
}

impl RecheckEdits {
    /// Generates and parses the corpus and warms one placement cache per
    /// program from cold.
    pub fn setup(cfg: &Config, tr: &mut Tracer) -> Result<RecheckEdits, String> {
        RecheckEdits::open(cfg, tr, true)
    }

    /// Generates and parses the corpus, using the caches a set-up warmed.
    pub fn attach(cfg: &Config) -> Result<RecheckEdits, String> {
        RecheckEdits::open(cfg, &mut Tracer::new(false), false)
    }

    fn open(cfg: &Config, tr: &mut Tracer, fresh: bool) -> Result<RecheckEdits, String> {
        let root = cfg.state_dir();
        let mut w = RecheckEdits {
            seed: cfg.seed,
            names: Vec::new(),
            programs: Vec::new(),
            warm_caches: Vec::new(),
            inputs: Vec::new(),
            setup_counts: Counts::default(),
            last: None,
        };
        for (p, c) in corpus().into_iter().enumerate() {
            let program = tr
                .span("parse", || parse_program(&c.source))
                .map_err(|e| format!("{}: parse error: {e}", c.name))?;
            w.setup_counts.source_bytes += c.source.len() as u64;
            let dir = root.join(format!("cold-{p}"));
            if fresh {
                if tr.enabled() {
                    // Plain analysis of the same program, for the cold
                    // incremental run's cost ratio.
                    let inst = tr.span("static", || instrument(&program));
                    w.setup_counts.methods += inst.stats.methods as u64;
                    w.setup_counts.checks_inserted += inst.stats.checks_inserted as u64;
                }
                let (_, inc) = tr.span("cache.cold", || {
                    instrument_incremental(&program, InstrumentOptions::default(), &dir)
                });
                w.setup_counts.cache_misses += inc.misses as u64;
                w.setup_counts.cache_invalid += inc.cache_invalid as u64;
            }
            let cache = std::fs::read(dir.join(CACHE_FILE))
                .map_err(|e| format!("{}: no placement cache written: {e}", c.name))?;
            w.warm_caches.push(cache);
            for (k, kind) in MutationKind::ALL.into_iter().enumerate() {
                // One worker method per kind, fixed so that every seed
                // edits the same methods. Edits go to class methods
                // only: `mutate` appends `acq(__ml)` to `main` with
                // `__ml` never bound, so an `AddLock` on `main` dies
                // with `UnboundVar` at run time.
                let site = 2 * k + p % 2;
                let i = w.inputs.len();
                w.names.push(format!("{}/{}@{site}", c.name, kind.name()));
                w.inputs.push(Input {
                    program: p,
                    site,
                    kind,
                    cache_dir: root.join(i.to_string()),
                });
            }
            w.programs.push(program);
        }
        Ok(w)
    }

    /// The edit salt of `input` in `pass`, drawn from the workload seed.
    pub fn salt(&self, input: usize, pass: u64) -> i64 {
        Rng::new(self.seed, 0xed17_0000 + input as u64, pass).below(1 << 20) as i64
    }
}

impl Workload for RecheckEdits {
    fn inputs(&self) -> &[String] {
        &self.names
    }

    fn label(&self, input: usize, pass: u64) -> String {
        format!("{} salt {}", self.names[input], self.salt(input, pass))
    }

    fn prepare(&mut self, input: usize) -> Result<(), String> {
        let inp = &self.inputs[input];
        let io = |e: std::io::Error| format!("cannot reset {}: {e}", inp.cache_dir.display());
        std::fs::create_dir_all(&inp.cache_dir).map_err(io)?;
        std::fs::write(
            inp.cache_dir.join(CACHE_FILE),
            &self.warm_caches[inp.program],
        )
        .map_err(io)
    }

    fn op(&mut self, input: usize, pass: u64, tr: &mut Tracer) -> Result<Outcome, String> {
        let salt = self.salt(input, pass);
        let inp = &self.inputs[input];
        let base = &self.programs[inp.program];
        let program = tr.span("edit", || {
            let mut p = base.clone();
            mutate(&mut p, inp.site, inp.kind, salt).map(|_| p)
        });
        let program = program.ok_or(format!("edit site {} out of range", inp.site))?;
        let (inst, inc) = tr.span("cache", || {
            instrument_incremental(&program, InstrumentOptions::default(), &inp.cache_dir)
        });
        let lowered = tr.span("lower", || compile(&inst.program));
        let (steps, stats) = tr.span("exec", || exec::check_bigfoot(&lowered, &inst.proxies))?;
        let counts = Counts {
            methods: inst.stats.methods as u64,
            checks_inserted: inst.stats.checks_inserted as u64,
            cache_hits: inc.hits as u64,
            cache_misses: inc.misses as u64,
            cache_invalid: inc.cache_invalid as u64,
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
        let last = self.last.as_ref().ok_or("no op to check")?;
        exec::djit_racy(&last.lowered)
    }

    fn extras(&mut self, _input: usize) -> Result<Option<Extras>, String> {
        let last = self.last.as_ref().ok_or("no op to measure")?;
        exec::fig2(&last.program, &last.lowered, &last.inst.proxies).map(Some)
    }

    fn release(&mut self) {
        self.last = None;
    }

    fn setup_counts(&self) -> Counts {
        self.setup_counts.clone()
    }
}
