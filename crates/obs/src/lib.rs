//! Dependency-free observability substrate for the BigFoot reproduction.
//!
//! Every layer of the pipeline — the StaticBF analysis, the entailment
//! engine, the shadow substrate, the detectors, and the BFJ interpreter —
//! reports into one global, thread-safe registry of named metrics:
//!
//! * [`count!`] — monotonic counters (atomics);
//! * [`span!`] — RAII wall-clock spans recording durations into a
//!   count/total/log2-histogram timer;
//! * [`snapshot`] / [`reset`] — consistent read and zeroing of every
//!   metric, feeding the machine-readable reports of `bfc --json`,
//!   `repro --json`, and `bfc profile`.
//!
//! Instrumentation is **near-zero-cost when disabled**: every macro first
//! checks a global flag with one relaxed atomic load and touches nothing
//! else. The flag starts *off*; binaries and harnesses that want metrics
//! call [`set_enabled`]`(true)`. The `obs_overhead` criterion bench in
//! `bigfoot-bench` holds the <5% detector-throughput overhead bound.
//!
//! The crate deliberately has no dependencies (the build environment is
//! offline), so it also hosts a few small pieces of shared plumbing its
//! consumers would otherwise duplicate: a minimal JSON tree with
//! serializer and parser ([`json`]), the CLI argument parser shared by
//! `bfc` and `repro` ([`cli`]), a fast non-cryptographic hasher for
//! integer-keyed hot-path maps ([`fx`]), and a seed-free versioned hasher
//! for fingerprints that persist across processes ([`stable`]).
//!
//! # Examples
//!
//! ```
//! bigfoot_obs::set_enabled(true);
//! bigfoot_obs::reset();
//! {
//!     let _g = bigfoot_obs::span!("demo.phase");
//!     bigfoot_obs::count!("demo.items", 3);
//! }
//! let snap = bigfoot_obs::snapshot();
//! assert_eq!(snap.counter("demo.items"), 3);
//! assert_eq!(snap.timer("demo.phase").unwrap().count, 1);
//! bigfoot_obs::set_enabled(false);
//! ```

pub mod cli;
pub mod fx;
pub mod json;
pub mod prometheus;
mod registry;
pub mod stable;
pub mod trace;

pub use prometheus::prometheus_text;
pub use registry::{
    count_named, gauge_max_named, reset, snapshot, CounterSnap, GaugeSnap, LazyCounter, LazyTimer,
    Snapshot, SpanGuard, TimerSnap,
};
pub use trace::TraceOutGuard;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric collection on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True if metric collection is on. One relaxed load — this is the whole
/// disabled-path cost of every instrumentation site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables collection for the duration of a scope (used by binaries and
/// tests).
///
/// Guards may overlap, on one thread or on several (parallel tests), and
/// drop in any order. Collection stays on while any guard is live; the
/// last guard out restores the state from before the first guard in.
pub struct EnabledGuard {
    _private: (),
}

/// Live [`EnabledGuard`]s and the state the first of them found.
static GUARDS: std::sync::Mutex<(usize, bool)> = std::sync::Mutex::new((0, false));

impl EnabledGuard {
    /// Enables collection until this guard and every other live one drop.
    #[allow(clippy::new_without_default)]
    pub fn new() -> EnabledGuard {
        let mut g = GUARDS.lock().unwrap_or_else(|e| e.into_inner());
        if g.0 == 0 {
            g.1 = enabled();
        }
        g.0 += 1;
        set_enabled(true);
        EnabledGuard { _private: () }
    }
}

impl Drop for EnabledGuard {
    fn drop(&mut self) {
        let mut g = GUARDS.lock().unwrap_or_else(|e| e.into_inner());
        g.0 -= 1;
        if g.0 == 0 {
            set_enabled(g.1);
        }
    }
}

/// Bumps a named counter (by 1, or by an explicit amount).
///
/// The counter cell is resolved once per call site and cached in a
/// static, so the enabled path is one relaxed load, one pointer read, and
/// one relaxed `fetch_add`.
#[macro_export]
macro_rules! count {
    ($name:literal) => {
        $crate::count!($name, 1u64)
    };
    ($name:literal, $n:expr) => {
        if $crate::enabled() {
            static CELL: $crate::LazyCounter = $crate::LazyCounter::new($name);
            CELL.add($n as u64);
        }
    };
}

/// Records one observation into a named timer's histogram without timing
/// anything (useful for size distributions, e.g. commit extents).
#[macro_export]
macro_rules! observe {
    ($name:literal, $value:expr) => {
        if $crate::enabled() {
            static CELL: $crate::LazyTimer = $crate::LazyTimer::new($name);
            CELL.record($value as u64);
        }
    };
}

/// Opens a wall-clock span, closed when the returned guard drops.
///
/// When flight-recorder tracing is on ([`trace::set_enabled`]) the same
/// guard also brackets a begin/end pair on the calling thread's
/// timeline, so every `span!` site doubles as a trace span for free.
///
/// ```
/// # bigfoot_obs::set_enabled(true);
/// let _guard = bigfoot_obs::span!("phase.name");
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static CELL: $crate::LazyTimer = $crate::LazyTimer::new($name);
        static TNAME: $crate::trace::LazyTraceName = $crate::trace::LazyTraceName::new($name);
        $crate::SpanGuard::enter_traced(&CELL, &TNAME)
    }};
}

/// Opens a flight-recorder-only span (no metric timer), closed when the
/// returned guard drops. Records nothing while tracing is disabled.
#[macro_export]
macro_rules! trace_span {
    ($name:literal) => {{
        static TNAME: $crate::trace::LazyTraceName = $crate::trace::LazyTraceName::new($name);
        $crate::trace::TraceSpanGuard::enter(&TNAME)
    }};
}

/// Records an instant marker on the calling thread's timeline (a single
/// tick in the exported trace). No-op while tracing is disabled.
#[macro_export]
macro_rules! trace_instant {
    ($name:literal) => {
        if $crate::trace::enabled() {
            static TNAME: $crate::trace::LazyTraceName = $crate::trace::LazyTraceName::new($name);
            $crate::trace::instant(&TNAME);
        }
    };
}

/// Records one sample of a counter track on the calling thread's
/// timeline (rendered as a stepped graph in Perfetto). No-op while
/// tracing is disabled.
#[macro_export]
macro_rules! trace_counter {
    ($name:literal, $value:expr) => {
        if $crate::trace::enabled() {
            static TNAME: $crate::trace::LazyTraceName = $crate::trace::LazyTraceName::new($name);
            $crate::trace::counter(&TNAME, $value as u64);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Metric state is global; keep every assertion in one test so
    // parallel test threads cannot interleave resets.
    #[test]
    fn counters_spans_and_reset_roundtrip() {
        let _g = EnabledGuard::new();
        reset();

        count!("test.hits");
        count!("test.hits", 4);
        observe!("test.sizes", 9);
        // A max-gauge flushed twice reports the max, not the sum — the
        // `pipeline.depth_max` regression that motivated the primitive.
        gauge_max_named("test.depth_max", 7);
        gauge_max_named("test.depth_max", 7);
        gauge_max_named("test.depth_max", 3);
        {
            let _s = span!("test.span");
            std::hint::black_box(0);
        }
        let snap = snapshot();
        assert_eq!(snap.counter("test.hits"), 5);
        assert_eq!(snap.counter("test.unknown"), 0);
        assert_eq!(
            snap.gauge("test.depth_max"),
            7,
            "gauge_max must keep the max across repeated flushes"
        );
        assert_eq!(snap.gauge("test.unknown"), 0);
        let t = snap.timer("test.span").expect("span recorded");
        assert_eq!(t.count, 1);
        let sizes = snap.timer("test.sizes").expect("observation recorded");
        assert_eq!(sizes.count, 1);
        assert_eq!(sizes.total, 9);
        // log2(9) bucket is 3.
        assert_eq!(sizes.buckets, vec![(3, 1)]);

        reset();
        let snap = snapshot();
        assert_eq!(snap.counter("test.hits"), 0);
        assert_eq!(snap.gauge("test.depth_max"), 0);
        assert!(snap.timer("test.span").map(|t| t.count).unwrap_or(0) == 0);

        set_enabled(false);
        count!("test.hits", 100);
        {
            let _s = span!("test.span");
        }
        set_enabled(true);
        let snap = snapshot();
        assert_eq!(
            snap.counter("test.hits"),
            0,
            "disabled sites must not record"
        );
        assert_eq!(snap.timer("test.span").map(|t| t.count).unwrap_or(0), 0);
    }
}
