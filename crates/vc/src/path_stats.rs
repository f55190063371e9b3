//! Thread-local fast/slow-path tallies for [`VarState`](crate::VarState).
//!
//! The FastTrack read/write hot paths run once per shadow operation — the
//! innermost loop of the whole pipeline — so even the *disabled* cost of a
//! `bigfoot_obs::count!` site (one relaxed atomic load and branch each) is
//! measurable there. Instead, the paths bump plain thread-local cells and
//! [`flush`] publishes the accumulated tallies to the observability
//! registry under the same counter names as before
//! (`vc.read.fast_path`, …). Detectors, raw replay and compressed replay
//! flush when they finish.
//!
//! Tallies accumulated while collection is disabled are dropped at flush
//! time (matching `count!`, which drops them at the increment).

use std::cell::Cell;

thread_local! {
    static READ_FAST: Cell<u64> = const { Cell::new(0) };
    static READ_SLOW: Cell<u64> = const { Cell::new(0) };
    static READ_INFLATIONS: Cell<u64> = const { Cell::new(0) };
    static WRITE_FAST: Cell<u64> = const { Cell::new(0) };
    static WRITE_SLOW: Cell<u64> = const { Cell::new(0) };
    static CLOCK_SPILLS: Cell<u64> = const { Cell::new(0) };
}

#[inline(always)]
fn bump(cell: &'static std::thread::LocalKey<Cell<u64>>) {
    cell.with(|c| c.set(c.get() + 1));
}

#[inline(always)]
pub(crate) fn read_fast() {
    bump(&READ_FAST);
}

#[inline(always)]
pub(crate) fn read_slow() {
    bump(&READ_SLOW);
}

#[inline(always)]
pub(crate) fn read_inflation() {
    bump(&READ_INFLATIONS);
}

#[inline(always)]
pub(crate) fn write_fast() {
    bump(&WRITE_FAST);
}

#[inline(always)]
pub(crate) fn write_slow() {
    bump(&WRITE_SLOW);
}

/// A [`VectorClock`](crate::VectorClock) left its inline representation
/// for a heap vector. `vc.clock.spills == 0` after a run is the proof
/// that the per-event clock paths (clone, join, read-state inflation)
/// allocated nothing.
#[inline(always)]
pub(crate) fn clock_spill() {
    bump(&CLOCK_SPILLS);
}

/// Drains this thread's tallies into the observability registry (no-ops,
/// but still drains, when collection is disabled).
pub fn flush() {
    for (cell, name) in [
        (&READ_FAST, "vc.read.fast_path"),
        (&READ_SLOW, "vc.read.slow_path"),
        (&READ_INFLATIONS, "vc.read.inflations"),
        (&WRITE_FAST, "vc.write.fast_path"),
        (&WRITE_SLOW, "vc.write.slow_path"),
        (&CLOCK_SPILLS, "vc.clock.spills"),
    ] {
        let n = cell.with(Cell::take);
        if n != 0 {
            bigfoot_obs::count_named(name, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Tid, VarState, VectorClock};

    #[test]
    fn paths_tally_and_flush_drains() {
        let mut c = VectorClock::new();
        c.tick(Tid(0));
        let mut v = VarState::new();
        v.read(Tid(0), &c).unwrap(); // slow (first read)
        v.read(Tid(0), &c).unwrap(); // fast (same epoch)
        super::READ_FAST.with(|cell| assert!(cell.get() >= 1));
        super::flush();
        super::READ_FAST.with(|cell| assert_eq!(cell.get(), 0));
        super::READ_SLOW.with(|cell| assert_eq!(cell.get(), 0));
    }
}
