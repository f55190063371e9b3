//! The differential oracles.
//!
//! Every case runs through six independent cross-checks, each of which
//! has a ground truth the others don't:
//!
//! * **round-trip** — the binary trace codec must be lossless: decoding
//!   the recorded bytes yields the recorded events, and re-encoding the
//!   events yields the recorded bytes.
//! * **compiled** — the bytecode compilation tier must be invisible: for
//!   both the unoptimized and the BigFoot-instrumented program, running
//!   the compiled form under the same schedule must produce the same
//!   outcome and a byte-identical BFTR event stream as the interpreter.
//! * **placement** — the precision theorem (§3.5): the paper's placement
//!   (ownership pass off) must be *precise* (`verify_precise_checks`),
//!   and both it and the default, ownership-pruned placement must make the
//!   detector report exactly FastTrack's race verdict — same boolean, same
//!   set of racy locations. The theorem is *per trace*: both detectors
//!   consume the **same** recorded execution of the instrumented program
//!   (FastTrack checks at each access and ignores the `check` statements;
//!   BigFoot checks only at them). Comparing two separate executions
//!   would be unsound — the original and instrumented programs interleave
//!   differently under a randomized scheduler, and a racy program's
//!   verdict may legitimately differ between schedules. FastTrack, the
//!   ground truth here, is itself held to the independent DJIT+ detector:
//!   same racy locations on the unoptimized trace.
//! * **replay** — the sharded parallel replay engine must be bit-identical
//!   to serial detection at every worker count, for both the unoptimized
//!   and the optimized placement. Both run the same engine (annotator and
//!   shard state); what this checks is the queued transport — owned
//!   items, per-shard queues and the `seq` merge — against applying each
//!   check inline.
//! * **compressed** — the grammar-compressed trace layer must be
//!   invisible: the `BFTC` container must round-trip to the exact `BFTR`
//!   bytes, and detection directly on the compressed form (with rule
//!   memoization) must be byte-identical to serial detection, for both
//!   placements at every worker count. Like replay, it checks the
//!   queued transport and the `seq` merge against inline application.
//! * **incremental** — the persistent placement cache must be invisible:
//!   a cold incremental run must equal direct instrumentation, and after
//!   a deterministic single-method mutation (derived from the case), a
//!   warm re-analysis replaying cached placements must be byte-identical
//!   to a cold run of the mutated program.
//!
//! All oracles are deterministic functions of `(program, policy)`, which
//! is what lets the shrinker re-validate determinism at every step.

use bigfoot::{
    instrument, instrument_incremental, instrument_with, InstrumentOptions, Instrumented,
};
use bigfoot_bfj::{
    compile, fingerprint_block, mutate, site_count,
    trace::{read_event, read_header},
    CompiledVm, Event, EventSink, Interp, MutationKind, Program, RecordingSink, RunOutcome,
    SchedPolicy, TraceWriter,
};
use bigfoot_detectors::{
    replay_compressed, replay_trace, verify_precise_checks, Detector, DjitDetector, ReplayConfig,
    Stats,
};

/// Step bound for generated programs (they terminate well before this;
/// the bound turns a generator bug into an error instead of a hang).
const MAX_STEPS: u64 = 50_000_000;

/// Worker counts the replay oracle exercises (one even divisor of the
/// shard count, one that is not).
const REPLAY_WORKERS: [usize; 2] = [2, 5];

/// Which oracle observed a divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// The program failed to run at all (generator contract violation).
    Execution,
    /// Trace encode/decode round-trip mismatch.
    RoundTrip,
    /// Compiled (bytecode VM) run diverges from the interpreted run.
    Compiled,
    /// FastTrack vs BigFoot placement verdict mismatch, or imprecise
    /// checks.
    Placement,
    /// Parallel replay verdict differs from serial detection.
    Replay,
    /// Compressed-trace round trip or compressed-form detection differs
    /// from the uncompressed path.
    Compressed,
    /// Warm incremental re-analysis (persistent placement cache) differs
    /// from a cold run.
    Incremental,
}

impl OracleKind {
    /// Stable lowercase name (used in corpus directives and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            OracleKind::Execution => "execution",
            OracleKind::RoundTrip => "roundtrip",
            OracleKind::Compiled => "compiled",
            OracleKind::Placement => "placement",
            OracleKind::Replay => "replay",
            OracleKind::Compressed => "compressed",
            OracleKind::Incremental => "incremental",
        }
    }

    /// Inverse of [`OracleKind::name`].
    pub fn from_name(name: &str) -> Option<OracleKind> {
        Some(match name {
            "execution" => OracleKind::Execution,
            "roundtrip" => OracleKind::RoundTrip,
            "compiled" => OracleKind::Compiled,
            "placement" => OracleKind::Placement,
            "replay" => OracleKind::Replay,
            "compressed" => OracleKind::Compressed,
            "incremental" => OracleKind::Incremental,
            _ => return None,
        })
    }
}

/// A cross-check failure: which oracle fired and a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The oracle that fired.
    pub oracle: OracleKind,
    /// One-line description of the disagreement.
    pub detail: String,
}

impl Divergence {
    fn new(oracle: OracleKind, detail: impl Into<String>) -> Divergence {
        let detail: String = detail.into();
        // Corpus directives are line-oriented; keep the detail on one.
        let detail = detail.replace('\n', "; ");
        Divergence { oracle, detail }
    }
}

/// Feeds one interpreter run into both the binary trace writer and an
/// in-memory event recording, so the two views come from the *same*
/// execution.
struct Tee<'a> {
    writer: &'a mut TraceWriter,
    rec: &'a mut RecordingSink,
}

impl EventSink for Tee<'_> {
    fn event(&mut self, ev: &Event) {
        self.writer.event(ev);
        self.rec.event(ev);
    }
}

/// Runs `program` once, returning the encoded trace, the event list, and
/// the run outcome (the compiled oracle compares the latter too).
fn record(
    program: &Program,
    policy: SchedPolicy,
) -> Result<(Vec<u8>, Vec<Event>, RunOutcome), String> {
    let mut writer = TraceWriter::new();
    let mut rec = RecordingSink::default();
    let mut tee = Tee {
        writer: &mut writer,
        rec: &mut rec,
    };
    let outcome = Interp::new(program, policy)
        .with_max_steps(MAX_STEPS)
        .run(&mut tee)
        .map_err(|e| format!("runtime error: {e}"))?;
    Ok((writer.into_bytes(), rec.events, outcome))
}

/// The compiled-tier oracle: lowering `program` to bytecode and running
/// it under the same policy must reproduce the interpreter's outcome and
/// its exact trace bytes.
fn compiled_matches(
    label: &str,
    program: &Program,
    policy: SchedPolicy,
    interp_bytes: &[u8],
    interp_outcome: &RunOutcome,
) -> Option<Divergence> {
    let compiled = compile(program);
    let mut writer = TraceWriter::new();
    let outcome = match CompiledVm::new(&compiled, policy)
        .with_max_steps(MAX_STEPS)
        .run(&mut writer)
    {
        Ok(o) => o,
        Err(e) => {
            return Some(Divergence::new(
                OracleKind::Compiled,
                format!("{label}: compiled run failed where the interpreter succeeded: {e}"),
            ))
        }
    };
    if outcome != *interp_outcome {
        return Some(Divergence::new(
            OracleKind::Compiled,
            format!("{label}: compiled outcome {outcome:?}, interpreted {interp_outcome:?}"),
        ));
    }
    let bytes = writer.into_bytes();
    if bytes != interp_bytes {
        let first = bytes
            .iter()
            .zip(interp_bytes)
            .position(|(a, b)| a != b)
            .unwrap_or(bytes.len().min(interp_bytes.len()));
        return Some(Divergence::new(
            OracleKind::Compiled,
            format!(
                "{label}: compiled trace diverges at byte {first} \
                 ({} compiled bytes vs {} interpreted)",
                bytes.len(),
                interp_bytes.len()
            ),
        ));
    }
    None
}

/// Feeds a recorded trace to a serial detector.
fn serial(events: &[Event], mut det: Detector) -> Stats {
    for ev in events {
        det.event(ev);
    }
    det.finish()
}

/// The round-trip oracle for one (bytes, events) pair.
fn roundtrip(label: &str, bytes: &[u8], events: &[Event]) -> Option<Divergence> {
    // Decode the bytes and compare event-by-event.
    let mut pos = match read_header(bytes) {
        Ok(p) => p,
        Err(e) => {
            return Some(Divergence::new(
                OracleKind::RoundTrip,
                format!("{label}: recorded trace has a bad header: {e}"),
            ))
        }
    };
    let mut decoded = 0usize;
    loop {
        match read_event(bytes, &mut pos) {
            Ok(None) => break,
            Ok(Some(ev)) => {
                match events.get(decoded) {
                    Some(expected) if *expected == ev => {}
                    Some(expected) => {
                        return Some(Divergence::new(
                            OracleKind::RoundTrip,
                            format!(
                                "{label}: event {decoded} decodes to {ev:?}, recorded {expected:?}"
                            ),
                        ))
                    }
                    None => {
                        return Some(Divergence::new(
                            OracleKind::RoundTrip,
                            format!("{label}: trace decodes more events than were recorded"),
                        ))
                    }
                }
                decoded += 1;
            }
            Err(e) => {
                return Some(Divergence::new(
                    OracleKind::RoundTrip,
                    format!("{label}: decode error at event {decoded}: {e}"),
                ))
            }
        }
    }
    if decoded != events.len() {
        return Some(Divergence::new(
            OracleKind::RoundTrip,
            format!(
                "{label}: trace decodes {decoded} events, recorder saw {}",
                events.len()
            ),
        ));
    }
    // Re-encode the recorded events and compare the bytes.
    let mut w = TraceWriter::new();
    for ev in events {
        w.event(ev);
    }
    if w.into_bytes() != bytes {
        return Some(Divergence::new(
            OracleKind::RoundTrip,
            format!("{label}: re-encoding the recorded events changes the byte stream"),
        ));
    }
    None
}

/// Compares a replay verdict against the serial ground truth.
fn replay_matches(
    label: &str,
    bytes: &[u8],
    config: &ReplayConfig,
    workers: usize,
    truth: &Stats,
) -> Option<Divergence> {
    let got = match replay_trace(bytes, config) {
        Ok(s) => s,
        Err(e) => {
            return Some(Divergence::new(
                OracleKind::Replay,
                format!("{label}: replay at {workers} worker(s) failed: {e}"),
            ))
        }
    };
    if got.races != truth.races {
        return Some(Divergence::new(
            OracleKind::Replay,
            format!(
                "{label}: replay at {workers} worker(s) reports races {:?}, serial {:?}",
                got.races, truth.races
            ),
        ));
    }
    let got_json = got.to_json().to_string_compact();
    let truth_json = truth.to_json().to_string_compact();
    if got_json != truth_json {
        return Some(Divergence::new(
            OracleKind::Replay,
            format!(
                "{label}: replay at {workers} worker(s) stats diverge: {got_json} vs {truth_json}"
            ),
        ));
    }
    None
}

/// The compressed-trace oracle for one recorded trace: byte-exact
/// container round trip, then compressed-form detection (memoized
/// grammar walk) against the serial ground truth for each configuration.
fn compressed_matches(
    label: &str,
    bytes: &[u8],
    configs: &[(&str, ReplayConfig, &Stats)],
) -> Option<Divergence> {
    let packed = match bigfoot_bfj::compress(bytes) {
        Ok(p) => p,
        Err(e) => {
            return Some(Divergence::new(
                OracleKind::Compressed,
                format!("{label}: compressing the recorded trace failed: {e}"),
            ))
        }
    };
    match bigfoot_bfj::decompress(&packed) {
        Ok(back) if back == bytes => {}
        Ok(back) => {
            let first = back
                .iter()
                .zip(bytes)
                .position(|(a, b)| a != b)
                .unwrap_or(back.len().min(bytes.len()));
            return Some(Divergence::new(
                OracleKind::Compressed,
                format!(
                    "{label}: round trip diverges at byte {first} \
                     ({} decompressed bytes vs {} recorded)",
                    back.len(),
                    bytes.len()
                ),
            ));
        }
        Err(e) => {
            return Some(Divergence::new(
                OracleKind::Compressed,
                format!("{label}: decompressing the container failed: {e}"),
            ))
        }
    }
    for (name, config, truth) in configs {
        for workers in REPLAY_WORKERS {
            let mut config = config.clone();
            config.workers = workers;
            let got = match replay_compressed(&packed, &config) {
                Ok(s) => s,
                Err(e) => {
                    return Some(Divergence::new(
                        OracleKind::Compressed,
                        format!(
                            "{label}: compressed {name} replay at {workers} worker(s) failed: {e}"
                        ),
                    ))
                }
            };
            let got_json = got.to_json().to_string_compact();
            let truth_json = truth.to_json().to_string_compact();
            if got.races != truth.races || got_json != truth_json {
                return Some(Divergence::new(
                    OracleKind::Compressed,
                    format!(
                        "{label}: compressed {name} detection at {workers} worker(s) \
                         diverges from serial: {got_json} vs {truth_json}"
                    ),
                ));
            }
        }
    }
    None
}

/// Runs every oracle over one case. `None` means all cross-checks agree.
///
/// Deterministic in `(program, policy)`: calling this twice on the same
/// inputs yields the same answer (the shrinker relies on that).
pub fn run_oracles(program: &Program, policy: SchedPolicy) -> Option<Divergence> {
    let _span = bigfoot_obs::span!("fuzz.case");

    // One execution per placement; every oracle below reuses these.
    let (ft_bytes, ft_events, ft_outcome) = match record(program, policy) {
        Ok(x) => x,
        Err(e) => return Some(Divergence::new(OracleKind::Execution, e)),
    };
    let inst = instrument(program);
    let (bf_bytes, bf_events, bf_outcome) = match record(&inst.program, policy) {
        Ok(x) => x,
        Err(e) => {
            return Some(Divergence::new(
                OracleKind::Execution,
                format!("instrumented program: {e}"),
            ))
        }
    };

    bigfoot_obs::count!("fuzz.oracle.roundtrip");
    if let Some(d) = roundtrip("unoptimized", &ft_bytes, &ft_events) {
        return Some(d);
    }
    if let Some(d) = roundtrip("instrumented", &bf_bytes, &bf_events) {
        return Some(d);
    }

    // The compiled tier must be invisible for both placements: same
    // outcome, byte-identical trace. Running it right after round-trip
    // means a codec bug cannot masquerade as a compilation bug.
    bigfoot_obs::count!("fuzz.oracle.compiled");
    if let Some(d) = compiled_matches("unoptimized", program, policy, &ft_bytes, &ft_outcome) {
        return Some(d);
    }
    if let Some(d) = compiled_matches(
        "instrumented",
        &inst.program,
        policy,
        &bf_bytes,
        &bf_outcome,
    ) {
        return Some(d);
    }

    // Per-trace comparison: both detectors read the instrumented run.
    // Coverage (§5) is a property of the paper's placement, so precision
    // is verified with the ownership pass off; the verdicts must agree on
    // both placements.
    bigfoot_obs::count!("fuzz.oracle.placement");
    let paper = instrument_with(
        program,
        InstrumentOptions {
            ownership: false,
            ..InstrumentOptions::default()
        },
    );
    let paper_events = if paper.program == inst.program {
        None
    } else {
        match record(&paper.program, policy) {
            Ok((_, events, _)) => Some(events),
            Err(e) => {
                return Some(Divergence::new(
                    OracleKind::Execution,
                    format!("paper placement: {e}"),
                ))
            }
        }
    };
    if let Err(e) = verify_precise_checks(paper_events.as_deref().unwrap_or(&bf_events)) {
        return Some(Divergence::new(
            OracleKind::Placement,
            format!("imprecise checks: {e}"),
        ));
    }
    if let Some(events) = &paper_events {
        let ft = serial(events, Detector::fasttrack());
        let bf = serial(events, Detector::bigfoot(paper.proxies.clone()));
        if let Some(d) = placement_agrees("paper placement", &ft, &bf) {
            return Some(d);
        }
    }
    let ft = serial(&bf_events, Detector::fasttrack());
    let bf = serial(&bf_events, Detector::bigfoot(inst.proxies.clone()));
    if let Some(d) = placement_agrees("pruned placement", &ft, &bf) {
        return Some(d);
    }
    // FastTrack's own verdict is the ground truth above, so hold it to
    // the independent DJIT+ reference (both are precise) on the
    // unoptimized trace.
    let ft_truth = serial(&ft_events, Detector::fasttrack());
    let djit_truth = serial_djit(&ft_events);
    if ft_truth.racy_locations() != djit_truth.racy_locations() {
        return Some(Divergence::new(
            OracleKind::Placement,
            format!(
                "fasttrack sees races at {:?}, djit+ at {:?}",
                ft_truth.racy_locations(),
                djit_truth.racy_locations()
            ),
        ));
    }

    // The persistent placement cache must be invisible: cold incremental
    // == direct instrumentation, and a warm replay after a deterministic
    // mutation == a cold run of the mutated program, byte for byte.
    bigfoot_obs::count!("fuzz.oracle.incremental");
    if let Some(d) = incremental_matches(program, policy, &inst) {
        return Some(d);
    }

    bigfoot_obs::count!("fuzz.oracle.replay");
    for workers in REPLAY_WORKERS {
        if let Some(d) = replay_matches(
            "unoptimized",
            &ft_bytes,
            &ReplayConfig::fasttrack(workers),
            workers,
            &ft_truth,
        ) {
            return Some(d);
        }
        if let Some(d) = replay_matches(
            "instrumented",
            &bf_bytes,
            &ReplayConfig::bigfoot(inst.proxies.clone(), workers),
            workers,
            &bf,
        ) {
            return Some(d);
        }
    }

    // Detection straight off the grammar-compressed container must be
    // invisible: both engines on the raw trace (fine FastTrack, which
    // stresses fallback, and footprint SlimState, which stresses memoized
    // extrapolation) plus BigFoot on the instrumented trace.
    bigfoot_obs::count!("fuzz.oracle.compressed");
    let ss_truth = serial(&ft_events, Detector::slimstate());
    if let Some(d) = compressed_matches(
        "unoptimized",
        &ft_bytes,
        &[
            ("fasttrack", ReplayConfig::fasttrack(1), &ft_truth),
            ("slimstate", ReplayConfig::slimstate(1), &ss_truth),
        ],
    ) {
        return Some(d);
    }
    if let Some(d) = compressed_matches(
        "instrumented",
        &bf_bytes,
        &[(
            "bigfoot",
            ReplayConfig::bigfoot(inst.proxies.clone(), 1),
            &bf,
        )],
    ) {
        return Some(d);
    }
    None
}

/// The §3.5 theorem on one trace: BigFoot reports exactly FastTrack's
/// racy locations.
fn placement_agrees(what: &str, ft: &Stats, bf: &Stats) -> Option<Divergence> {
    (ft.has_races() != bf.has_races() || ft.racy_locations() != bf.racy_locations()).then(|| {
        Divergence::new(
            OracleKind::Placement,
            format!(
                "{what}: fasttrack sees races at {:?}, bigfoot at {:?}",
                ft.racy_locations(),
                bf.racy_locations()
            ),
        )
    })
}

/// The incremental-placement oracle: run the cold incremental pipeline
/// into a throwaway cache, apply a single-method mutation derived
/// deterministically from the case, then check that the warm re-analysis
/// (replaying cached placements for clean methods) is byte-identical to
/// a cold run of the mutated program.
///
/// The mutation choice is a pure function of `(program, policy)` — via
/// the stable body fingerprint and the policy's scheduling parameters —
/// so the whole oracle stays deterministic and shrinkable.
fn incremental_matches(
    program: &Program,
    policy: SchedPolicy,
    inst: &Instrumented,
) -> Option<Divergence> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bigfoot-fuzz-inc-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = InstrumentOptions::default();

    let diverge = |detail: String| {
        let _ = std::fs::remove_dir_all(&dir);
        Some(Divergence::new(OracleKind::Incremental, detail))
    };

    let (cold, cold_stats) = instrument_incremental(program, opts, &dir);
    if cold.program != inst.program {
        return diverge(format!(
            "cold incremental placement differs from direct instrumentation \
             ({} hit(s) on an empty cache)",
            cold_stats.hits
        ));
    }

    // Deterministic mutation: body fingerprints are stable across runs,
    // and the policy folds in so different schedules of the same program
    // explore different edits.
    let fp = fingerprint_block(&program.main)
        ^ match policy {
            SchedPolicy::RoundRobin { quantum } => quantum as u64,
            SchedPolicy::Random { seed, switch_inv } => seed.rotate_left(7) ^ switch_inv as u64,
        };
    let sites = site_count(program);
    let site = (fp % sites as u64) as usize;
    let kind = MutationKind::ALL[(fp >> 8) as usize % MutationKind::ALL.len()];
    let salt = (fp % 97) as i64;
    let mut edited = program.clone();
    let Some(edited_name) = mutate(&mut edited, site, kind, salt) else {
        let _ = std::fs::remove_dir_all(&dir);
        return None;
    };

    let direct = instrument(&edited);
    let (warm, warm_stats) = instrument_incremental(&edited, opts, &dir);
    if !warm_stats.warm {
        return diverge("the cache written by the cold run was not usable on the warm run".into());
    }
    if warm_stats.hits + warm_stats.misses != sites {
        return diverge(format!(
            "warm run accounted for {} site(s), program has {sites}",
            warm_stats.hits + warm_stats.misses
        ));
    }
    if warm.program != direct.program {
        return diverge(format!(
            "warm replay after a {} edit to {edited_name} diverges from a cold run \
             ({} hit(s), {} miss(es))",
            kind.name(),
            warm_stats.hits,
            warm_stats.misses
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    None
}

/// Feeds a recorded trace to the serial DJIT+ detector.
fn serial_djit(events: &[Event]) -> Stats {
    let mut det = DjitDetector::new();
    for ev in events {
        det.event(ev);
    }
    det.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigfoot_bfj::parse_program;

    #[test]
    fn agreeing_program_passes_every_oracle() {
        let p = parse_program(
            "class C { field x; meth poke(l, v) { acq(l); this.x = v; rel(l); return 0; } }
             class L { }
             main {
                 c = new C; l = new L;
                 fork t1 = c.poke(l, 1);
                 fork t2 = c.poke(l, 2);
                 join(t1); join(t2);
             }",
        )
        .unwrap();
        assert_eq!(run_oracles(&p, SchedPolicy::default()), None);
    }

    #[test]
    fn racy_program_still_passes_because_all_sides_agree() {
        // Divergence means *disagreement between* detectors, not races.
        let p = parse_program(
            "class C { field x; meth poke(v) { this.x = v; return 0; } }
             main {
                 c = new C;
                 fork t1 = c.poke(1);
                 fork t2 = c.poke(2);
                 join(t1); join(t2);
             }",
        )
        .unwrap();
        assert_eq!(
            run_oracles(
                &p,
                SchedPolicy::Random {
                    seed: 3,
                    switch_inv: 2
                }
            ),
            None
        );
    }

    #[test]
    fn corrupt_codec_would_be_caught() {
        // Sanity-check the round-trip comparator itself: flipping one
        // payload byte in a recorded trace must register as a divergence.
        let p = parse_program("main { a = new_array(4); a[1] = 2; x = a[1]; }").unwrap();
        let (mut bytes, events, _) = record(&p, SchedPolicy::default()).unwrap();
        assert!(roundtrip("ok", &bytes, &events).is_none());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x7;
        assert!(roundtrip("bad", &bytes, &events).is_some());
    }
}
