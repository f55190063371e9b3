//! The serial detector applies every check inline, so a check between
//! two synchronization operations must not touch the heap: no work item,
//! no clock snapshot, no copy of the checked field list.
//!
//! A counting global allocator tallies the allocations made by this
//! thread while pre-built events — raw field and element accesses,
//! single- and multi-field checks, array range checks — flow into
//! `Detector::bigfoot` and `Detector::fasttrack`. One warm-up span of the
//! same shape runs first, so pooled footprints, per-thread lists and
//! scratch buffers already have their capacity. Lives in its own
//! integration binary because the allocator is process-global.

use bigfoot_bfj::{ArrId, CheckTarget, ConcreteRange, Event, EventSink, Loc, ObjId};
use bigfoot_detectors::{Detector, ProxyTable};
use bigfoot_shadow::FieldGrouping;
use bigfoot_vc::{AccessKind, Tid};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which meets the same contract; the counting around it reads
// a const-initialised thread-local and bumps an atomic, neither of which
// allocates or touches the memory handed out.
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    for ev in events {
        det.event(ev);
    }
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
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
