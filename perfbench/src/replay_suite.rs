//! `replay-suite`: race detection on recorded traces, one worker.
//!
//! Set-up records every suite program once on the compiled VM in three
//! forms — `BFTR` for the BigFoot configuration, `BFTR` for FastTrack and
//! `BFTC` for BigFoot — plus the racy programs of the `recheck-edits`
//! corpus, so that replay meets positive answers. Each op replays one
//! trace with `replay_trace` or `replay_compressed_report`. Known answers:
//! no race on suite traces (race-free by construction), and DJIT+ over the
//! same trace for the corpus programs.
//!
//! Set-up writes the traces to files, as `bfc check --record-out` does,
//! and the pass processes read them back. Like `bfc replay`, BigFoot
//! replays with the identity proxy table: proxy groupings are a product of
//! the static analysis and are not stored in a trace.

use crate::driver::{Config, Counts, Outcome, Workload};
use crate::exec;
use crate::ledger::Tracer;
use crate::recheck_edits::corpus;
use bigfoot::instrument;
use bigfoot_bfj::{
    compile, decompress, parse_program, trace::TraceWriter, CompressedTraceWriter, EventSink,
};
use bigfoot_detectors::{
    replay_compressed_report, replay_trace, DjitDetector, ProxyTable, ReplayConfig, TraceReader,
};
use bigfoot_workloads::{source, Scale, NAMES};
use std::fmt::Write as _;
use std::path::Path;

/// Replay worker count: one, since the host has two CPUs and the
/// benchmark runs single-threaded.
const WORKERS: usize = 1;

struct Input {
    bytes: Vec<u8>,
    config: ReplayConfig,
    compressed: bool,
    /// Events in the trace.
    events: u64,
    /// The known answer.
    racy: bool,
}

/// The replay configuration of a trace form.
fn config(form: &str) -> ReplayConfig {
    if form.starts_with("ft") {
        ReplayConfig::fasttrack(WORKERS)
    } else {
        ReplayConfig::bigfoot(ProxyTable::identity(), WORKERS)
    }
}

/// The file listing the recorded traces: one line per input with its
/// name, event count, known answer and trace file.
const MANIFEST: &str = "manifest.tsv";

/// The `replay-suite` workload.
pub struct ReplaySuite {
    names: Vec<String>,
    inputs: Vec<Input>,
    setup_counts: Counts,
}

/// DJIT+ over the events of a raw trace.
fn djit_on_trace(bftr: &[u8]) -> Result<bool, String> {
    let mut det = DjitDetector::new();
    for ev in TraceReader::new(bftr).map_err(|e| e.to_string())? {
        det.event(&ev.map_err(|e| e.to_string())?);
    }
    Ok(det.finish().has_races())
}

impl ReplaySuite {
    /// Parses, instruments and records every program in all three forms,
    /// and writes the traces to files.
    pub fn setup(cfg: &Config, tr: &mut Tracer) -> Result<ReplaySuite, String> {
        let mut programs: Vec<(String, String, bool)> = NAMES
            .iter()
            .map(|n| {
                let src = source(n, Scale::Full).ok_or(format!("no suite program `{n}`"))?;
                Ok((n.to_string(), src, false))
            })
            .collect::<Result<_, String>>()?;
        programs.extend(
            corpus()
                .into_iter()
                .filter(|c| c.racy)
                .map(|c| (c.name, c.source, true)),
        );
        let mut w = ReplaySuite {
            names: Vec::new(),
            inputs: Vec::new(),
            setup_counts: Counts::default(),
        };
        for (name, src, from_corpus) in programs {
            let c = &mut w.setup_counts;
            let program = tr
                .span("parse", || parse_program(&src))
                .map_err(|e| format!("{name}: parse error: {e}"))?;
            c.source_bytes += src.len() as u64;
            let inst = tr.span("static", || instrument(&program));
            c.methods += inst.stats.methods as u64;
            c.checks_inserted += inst.stats.checks_inserted as u64;
            let (base, checked) = tr.span("lower", || (compile(&program), compile(&inst.program)));
            c.instrs += (base.instr_count() + checked.instr_count()) as u64;

            let mut raw = Vec::new();
            for prog in [&checked, &base] {
                let (steps, writer) = tr.span("trace.record", || {
                    let mut w = TraceWriter::new();
                    exec::run_into(prog, &mut w).map(|s| (s, w))
                })?;
                c.steps += steps;
                let events = writer.events();
                c.trace_events += events;
                let bytes = writer.into_bytes();
                c.trace_bytes += bytes.len() as u64;
                raw.push((bytes, events));
            }
            let (steps, writer) = tr.span("compress.record", || {
                let mut w = CompressedTraceWriter::new();
                exec::run_into(&checked, &mut w).map(|s| (s, w))
            })?;
            c.steps += steps;
            c.bftc_raw_bytes += writer.raw_bytes();
            let compressed_events = writer.events();
            let packed = tr.span("compress", || writer.into_bytes());
            c.bftc_bytes += packed.len() as u64;

            let (ft, ft_events) = raw.pop().expect("two raw traces");
            let (bf, bf_events) = raw.pop().expect("two raw traces");
            let (bf_racy, ft_racy, bftc_racy) = if from_corpus {
                let unpacked = decompress(&packed).map_err(|e| format!("{name}: {e}"))?;
                (
                    djit_on_trace(&bf)?,
                    djit_on_trace(&ft)?,
                    djit_on_trace(&unpacked)?,
                )
            } else {
                (false, false, false)
            };
            let forms = [
                ("bf-bftr", bf, bf_events, bf_racy),
                ("ft-bftr", ft, ft_events, ft_racy),
                ("bf-bftc", packed, compressed_events, bftc_racy),
            ];
            for (form, bytes, events, racy) in forms {
                w.names.push(format!("{name}/{form}"));
                w.inputs.push(Input {
                    bytes,
                    config: config(form),
                    compressed: form.ends_with("bftc"),
                    events,
                    racy,
                });
            }
        }
        w.store(&cfg.state_dir())?;
        Ok(w)
    }

    fn store(&self, dir: &Path) -> Result<(), String> {
        let io = |e: std::io::Error| format!("cannot write traces to {}: {e}", dir.display());
        std::fs::create_dir_all(dir).map_err(io)?;
        let mut manifest = String::new();
        for (i, (name, inp)) in self.names.iter().zip(&self.inputs).enumerate() {
            let file = format!("{i}.{}", if inp.compressed { "bftc" } else { "bftr" });
            std::fs::write(dir.join(&file), &inp.bytes).map_err(io)?;
            let _ = writeln!(manifest, "{name}\t{}\t{}\t{file}", inp.events, inp.racy);
        }
        std::fs::write(dir.join(MANIFEST), manifest).map_err(io)
    }

    /// Reads the traces a set-up wrote.
    pub fn attach(cfg: &Config) -> Result<ReplaySuite, String> {
        let dir = cfg.state_dir();
        let io = |e: std::io::Error| format!("cannot read traces in {}: {e}", dir.display());
        let manifest = std::fs::read_to_string(dir.join(MANIFEST)).map_err(io)?;
        let mut w = ReplaySuite {
            names: Vec::new(),
            inputs: Vec::new(),
            setup_counts: Counts::default(),
        };
        for line in manifest.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            let [name, events, racy, file] = fields[..] else {
                return Err(format!("bad manifest line `{line}`"));
            };
            let form = name.rsplit('/').next().unwrap_or(name);
            w.inputs.push(Input {
                bytes: std::fs::read(dir.join(file)).map_err(io)?,
                config: config(form),
                compressed: form.ends_with("bftc"),
                events: events
                    .parse()
                    .map_err(|_| format!("bad event count in `{line}`"))?,
                racy: racy == "true",
            });
            w.names.push(name.to_owned());
        }
        Ok(w)
    }
}

impl Workload for ReplaySuite {
    fn inputs(&self) -> &[String] {
        &self.names
    }

    fn op(&mut self, input: usize, _pass: u64, tr: &mut Tracer) -> Result<Outcome, String> {
        let inp = &self.inputs[input];
        if inp.compressed {
            let (stats, report) = tr
                .span("creplay", || {
                    replay_compressed_report(&inp.bytes, &inp.config)
                })
                .map_err(|e| e.to_string())?;
            Ok(Outcome {
                racy: stats.has_races(),
                counts: Counts {
                    creplay_events: report.total_events,
                    creplay_skipped: report.skipped_events,
                    creplay_fallbacks: report.memo_fallbacks,
                    ..Counts::from_stats(&stats)
                },
            })
        } else {
            let stats = tr
                .span("replay", || replay_trace(&inp.bytes, &inp.config))
                .map_err(|e| e.to_string())?;
            Ok(Outcome {
                racy: stats.has_races(),
                counts: Counts {
                    replay_events: inp.events,
                    ..Counts::from_stats(&stats)
                },
            })
        }
    }

    fn known_answer(&mut self, input: usize) -> Result<bool, String> {
        Ok(self.inputs[input].racy)
    }

    fn setup_counts(&self) -> Counts {
        self.setup_counts.clone()
    }
}
