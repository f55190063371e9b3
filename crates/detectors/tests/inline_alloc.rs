//! The serial detector applies every check inline, so a check between
//! two synchronization operations must not touch the heap: no work item,
//! no clock snapshot, no copy of the checked field list.
//!
//! A counting global allocator tallies the allocations made by this
//! thread while pre-built events — raw field and element accesses,
//! single- and multi-field checks, array range checks — flow into
//! `Detector::bigfoot` and `Detector::fasttrack`. One warm-up span of the
//! same shape runs first, so pooled footprints, per-thread lists and
//! scratch buffers already have their capacity. The live path is held to
//! the same rule: an instrumented loop program run on `CompiledVm` into
//! `Detector::bigfoot` must allocate as much at 10·N iterations as at N,
//! so an executed check, its accesses and its syncs allocate nothing.
//! Lives in its own integration binary because the allocator is
//! process-global.

use bigfoot_bfj::{
    compile, parse_program, ArrId, CheckTarget, CompiledVm, ConcreteRange, Event, EventSink, Loc,
    ObjId, SchedPolicy,
};
use bigfoot_detectors::{Detector, ProxyTable};
use bigfoot_shadow::FieldGrouping;
use bigfoot_vc::{AccessKind, Tid};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// This thread's allocations while `COUNTING` is set. Per thread, so
    /// the tests of this binary can run side by side.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

/// Allocations this thread makes while running `f`.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.with(Cell::get) - before, out)
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which meets the same contract; the counting around it reads
// and bumps const-initialised thread-locals, which neither allocates nor
// touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while feeding `events` to `det`.
fn allocations_while(det: &mut Detector, events: &[Event]) -> u64 {
    allocations_during(|| {
        for ev in events {
            det.event(ev);
        }
    })
    .0
}

const LEN: i64 = 64;

/// Allocates both threads' objects and arrays and the lock, then forks
/// thread 1.
fn setup() -> Vec<Event> {
    let mut evs = Vec::new();
    for i in 0..2 {
        evs.push(Event::AllocObj {
            t: Tid(0),
            obj: ObjId(i),
            class: 0,
            fields: 3,
        });
        evs.push(Event::AllocArr {
            t: Tid(0),
            arr: ArrId(i),
            len: LEN as u64,
        });
    }
    // The lock object.
    evs.push(Event::AllocObj {
        t: Tid(0),
        obj: ObjId(2),
        class: 1,
        fields: 0,
    });
    evs.push(Event::Fork {
        parent: Tid(0),
        child: Tid(1),
    });
    evs
}

/// One release-free span: each thread works on its own object and array.
fn span() -> Vec<Event> {
    let mut evs = Vec::new();
    for t in 0..2u32 {
        let (tid, obj, arr) = (Tid(t), ObjId(t), ArrId(t));
        for (kind, f) in [(AccessKind::Write, 0), (AccessKind::Read, 1)] {
            evs.push(Event::Access {
                t: tid,
                kind,
                loc: Loc::Field(obj, f),
            });
        }
        for i in 0..LEN {
            evs.push(Event::Access {
                t: tid,
                kind: AccessKind::Write,
                loc: Loc::Elem(arr, i),
            });
        }
        evs.push(Event::Check {
            t: tid,
            paths: vec![
                (AccessKind::Write, CheckTarget::Fields(obj, vec![0, 1, 2])),
                (AccessKind::Read, CheckTarget::Fields(obj, vec![1])),
                (
                    AccessKind::Write,
                    CheckTarget::Range(
                        arr,
                        ConcreteRange {
                            lo: 0,
                            hi: 32,
                            step: 1,
                        },
                    ),
                ),
                (
                    AccessKind::Read,
                    CheckTarget::Range(
                        arr,
                        ConcreteRange {
                            lo: 32,
                            hi: LEN,
                            step: 2,
                        },
                    ),
                ),
            ],
        });
    }
    evs
}

/// Both threads pass through the lock, committing their footprints.
fn sync() -> Vec<Event> {
    let lock = ObjId(2);
    (0..2)
        .flat_map(|t| {
            [
                Event::Acquire { t: Tid(t), lock },
                Event::Release { t: Tid(t), lock },
            ]
        })
        .collect()
}

fn assert_inline_checks_allocate_nothing(name: &str, mut det: Detector) {
    for ev in setup().iter().chain(&span()).chain(&sync()) {
        det.event(ev);
    }
    let measured = span();
    assert_eq!(
        allocations_while(&mut det, &measured),
        0,
        "{name}: a warmed-up span of checks allocated"
    );
    for ev in &sync() {
        det.event(ev);
    }
    let stats = det.finish();
    assert!(!stats.has_races(), "{name}: {:?}", stats.races);
    assert!(stats.shadow_ops > 0, "{name} did no shadow work");
}

#[test]
fn inline_checks_allocate_nothing_between_syncs() {
    // Class 0 groups fields 0 and 1, so multi-field checks dedup groups.
    let proxies = ProxyTable {
        by_class: vec![Some(Arc::new(FieldGrouping::from_assignment(vec![
            0, 0, 1,
        ])))],
    };
    assert_inline_checks_allocate_nothing("BigFoot", Detector::bigfoot(proxies));
    assert_inline_checks_allocate_nothing("FastTrack", Detector::fasttrack());
}

/// Two workers run `n` iterations each. Every iteration executes one
/// check statement with a multi-field, a single-field, a contiguous and
/// a strided array path, between an acquire and a release that commit
/// the array footprints.
fn loop_program(n: u32) -> String {
    format!(
        "class P {{ field x; field y; field z; }}
         class L {{ }}
         class W {{
             meth work(p, a, l, n) {{
                 for (i = 0; i < n; i = i + 1) {{
                     acq(l);
                     p.x = i; p.y = p.x; p.z = p.y;
                     a[i % 8] = i;
                     check(w: p.x/y/z, r: p.x, w: a[0..8], r: a[1..8:2]);
                     rel(l);
                 }}
                 return 0;
             }}
         }}
         main {{
             l = new L;
             p = new P; q = new P;
             a = new_array(8); b = new_array(8);
             w = new W;
             fork t1 = w.work(p, a, l, {n});
             fork t2 = w.work(q, b, l, {n});
             join(t1); join(t2);
         }}"
    )
}

/// Allocations this thread makes running the lowered `n`-iteration loop
/// program into a fresh BigFoot detector (lowering excluded), with the
/// checks the detector saw.
fn vm_run_allocations(n: u32) -> (u64, u64) {
    let program = compile(&parse_program(&loop_program(n)).expect("parse"));
    let (allocations, stats) = allocations_during(|| {
        let mut det = Detector::bigfoot(ProxyTable::identity());
        CompiledVm::new(&program, SchedPolicy::default())
            .run(&mut det)
            .expect("run");
        det.finish()
    });
    assert!(!stats.has_races(), "{:?}", stats.races);
    (allocations, stats.checks)
}

#[test]
fn vm_checks_into_bigfoot_allocate_nothing_per_iteration() {
    const N: u32 = 50;
    // Warm-up: one-time registrations (obs counters, thread-locals).
    vm_run_allocations(N);
    let (small, small_checks) = vm_run_allocations(N);
    let (large, large_checks) = vm_run_allocations(10 * N);
    assert!(
        large_checks >= 10 * small_checks - 40,
        "the checks run per iteration: {small_checks} at N, {large_checks} at 10N"
    );
    assert_eq!(
        large, small,
        "allocations grew with the iteration count: {small} at N, {large} at 10N"
    );
}
