//! Compiled-tier execution shared by the workloads that run programs.

use crate::driver::Extras;
use bigfoot_bfj::{
    compile, CompiledProgram, CompiledVm, EventSink, NullSink, Program, SchedPolicy,
};
use bigfoot_detectors::{Detector, DjitDetector, ProxyTable, Stats};
use std::time::Instant;

/// Runs `prog` on the compiled VM under the default (deterministic)
/// scheduler, streaming its events into `sink`; returns the VM steps.
pub fn run_into<S: EventSink>(prog: &CompiledProgram, sink: &mut S) -> Result<u64, String> {
    CompiledVm::new(prog, SchedPolicy::default())
        .run(sink)
        .map(|o| o.steps)
        .map_err(|e| format!("runtime error: {e}"))
}

/// One BigFoot verdict run, as `bfc check --detector bigfoot --compiled`
/// makes it: the instrumented program into `Detector::bigfoot`.
pub fn check_bigfoot(prog: &CompiledProgram, proxies: &ProxyTable) -> Result<(u64, Stats), String> {
    let mut det = Detector::bigfoot(proxies.clone());
    let steps = run_into(prog, &mut det)?;
    Ok((steps, det.finish()))
}

/// The DJIT+ verdict on the trace of `prog`: full vector clocks, blind to
/// `check` events. The scheduler is deterministic, so this sees the same
/// trace as the BigFoot run of the same compiled program.
pub fn djit_racy(prog: &CompiledProgram) -> Result<bool, String> {
    let mut det = DjitDetector::new();
    run_into(prog, &mut det)?;
    Ok(det.finish().has_races())
}

/// Runs `f` and returns its result with its wall time in nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// The Fig. 2 runs of one program: uninstrumented and instrumented into
/// `NullSink`, uninstrumented into FastTrack, instrumented into BigFoot.
pub fn fig2(
    program: &Program,
    instrumented: &CompiledProgram,
    proxies: &ProxyTable,
) -> Result<Extras, String> {
    let base = compile(program);
    let (r, base_ns) = timed(|| run_into(&base, &mut NullSink));
    r?;
    let (r, instrumented_ns) = timed(|| run_into(instrumented, &mut NullSink));
    r?;
    let (r, fasttrack_ns) = timed(|| {
        let mut det = Detector::fasttrack();
        run_into(&base, &mut det).map(|_| det.finish())
    });
    r?;
    let (r, bigfoot_ns) = timed(|| check_bigfoot(instrumented, proxies));
    let (_, bf) = r?;
    Ok(Extras {
        base_ns,
        instrumented_ns,
        fasttrack_ns,
        bigfoot_ns,
        check_ratio: bf.check_ratio(),
        plain_static_ns: None,
        cold_cache_ns: None,
    })
}
