//! Run-time events observed by dynamic race detectors.
//!
//! The interpreter emits a totally-ordered stream of [`Event`]s to an
//! [`EventSink`]. This is the exact interface a RoadRunner-style dynamic
//! analysis sees: memory accesses, explicit race checks (from
//! instrumentation), and synchronization operations.

use bigfoot_vc::{AccessKind, Tid};

/// Identifier of a heap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub u32);

/// Identifier of a heap array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrId(pub u32);

impl std::fmt::Display for ObjId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl std::fmt::Display for ArrId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// A concrete memory location: an object field or an array element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Loc {
    /// Field number `1` of object `0`.
    Field(ObjId, u32),
    /// Element `1` of array `0`.
    Elem(ArrId, i64),
}

impl std::fmt::Display for Loc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Loc::Field(o, i) => write!(f, "{o}.f{i}"),
            Loc::Elem(a, i) => write!(f, "{a}[{i}]"),
        }
    }
}

/// A concrete strided index range `lo..hi:step` (step > 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConcreteRange {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Exclusive upper bound.
    pub hi: i64,
    /// Positive stride.
    pub step: i64,
}

impl ConcreteRange {
    /// The singleton range covering exactly `i`.
    pub fn singleton(i: i64) -> Self {
        ConcreteRange {
            lo: i,
            hi: i + 1,
            step: 1,
        }
    }

    /// The contiguous range `lo..hi`.
    pub fn contiguous(lo: i64, hi: i64) -> Self {
        ConcreteRange { lo, hi, step: 1 }
    }

    /// True if no index is covered.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// Number of covered indices.
    pub fn len(&self) -> i64 {
        if self.is_empty() {
            0
        } else {
            (self.hi - self.lo + self.step - 1) / self.step
        }
    }

    /// True if index `i` is covered.
    pub fn contains(&self, i: i64) -> bool {
        i >= self.lo && i < self.hi && (i - self.lo) % self.step == 0
    }

    /// Iterates over covered indices in increasing order.
    #[inline]
    pub fn indices(&self) -> impl Iterator<Item = i64> + '_ {
        let (lo, hi, step) = (self.lo, self.hi, self.step);
        (lo..hi)
            .step_by(step.max(1) as usize)
            .filter(move |_| step > 0)
    }

    /// The largest covered index plus one, or `lo` when empty.
    pub fn last_plus_one(&self) -> i64 {
        if self.is_empty() {
            self.lo
        } else {
            self.lo + (self.len() - 1) * self.step + 1
        }
    }
}

impl std::fmt::Display for ConcreteRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.step == 1 {
            write!(f, "{}..{}", self.lo, self.hi)
        } else {
            write!(f, "{}..{}:{}", self.lo, self.hi, self.step)
        }
    }
}

/// One resolved path of a `check(C)` statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckTarget {
    /// A (possibly coalesced) group of fields of one object.
    Fields(ObjId, Vec<u32>),
    /// A strided range of one array.
    Range(ArrId, ConcreteRange),
}

impl CheckTarget {
    /// This path, borrowed (the form [`EventSink::check`] receives).
    #[inline]
    pub fn borrowed(&self) -> CheckRef<'_> {
        match self {
            CheckTarget::Fields(obj, idxs) => CheckRef::Fields(*obj, idxs),
            CheckTarget::Range(arr, r) => CheckRef::Range(*arr, *r),
        }
    }
}

/// One resolved path of a `check(C)` statement, borrowed: the field
/// list points into storage the executor keeps, so handing a check to
/// [`EventSink::check`] copies nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckRef<'a> {
    /// A (possibly coalesced) group of fields of one object.
    Fields(ObjId, &'a [u32]),
    /// A strided range of one array.
    Range(ArrId, ConcreteRange),
}

impl CheckRef<'_> {
    /// An owned copy of this path (what [`Event::Check`] holds).
    pub fn to_target(self) -> CheckTarget {
        match self {
            CheckRef::Fields(obj, idxs) => CheckTarget::Fields(obj, idxs.to_vec()),
            CheckRef::Range(arr, r) => CheckTarget::Range(arr, r),
        }
    }
}

/// A dynamic event, in program execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// An object allocation (detectors size their shadow state from this).
    AllocObj {
        t: Tid,
        obj: ObjId,
        /// Index of the class in `Program::classes`.
        class: u32,
        /// Number of fields.
        fields: u32,
    },
    /// An array allocation.
    AllocArr { t: Tid, arr: ArrId, len: u64 },
    /// A heap access (always emitted, whether or not instrumented).
    Access { t: Tid, kind: AccessKind, loc: Loc },
    /// An explicit race check from instrumentation. One event per executed
    /// `check(C)` statement; `paths` holds each coalesced path.
    Check {
        t: Tid,
        paths: Vec<(AccessKind, CheckTarget)>,
    },
    /// A read of a volatile field: acquire-like synchronization, not
    /// itself checked for races (§5).
    VolatileRead { t: Tid, obj: ObjId, field: u32 },
    /// A write of a volatile field: release-like synchronization.
    VolatileWrite { t: Tid, obj: ObjId, field: u32 },
    /// Lock acquire (after the lock is granted).
    Acquire { t: Tid, lock: ObjId },
    /// Lock release.
    Release { t: Tid, lock: ObjId },
    /// Thread `child` forked by `parent`.
    Fork { parent: Tid, child: Tid },
    /// `parent` joined on completed thread `child`.
    Join { parent: Tid, child: Tid },
    /// Thread finished executing.
    ThreadExit { t: Tid },
}

impl Event {
    /// The thread that performed this event.
    pub fn thread(&self) -> Tid {
        match self {
            Event::AllocObj { t, .. }
            | Event::AllocArr { t, .. }
            | Event::Access { t, .. }
            | Event::Check { t, .. }
            | Event::VolatileRead { t, .. }
            | Event::VolatileWrite { t, .. }
            | Event::Acquire { t, .. }
            | Event::Release { t, .. }
            | Event::ThreadExit { t } => *t,
            Event::Fork { parent, .. } | Event::Join { parent, .. } => *parent,
        }
    }

    /// True for synchronization operations (where deferred footprints
    /// commit).
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            Event::Acquire { .. }
                | Event::Release { .. }
                | Event::VolatileRead { .. }
                | Event::VolatileWrite { .. }
                | Event::Fork { .. }
                | Event::Join { .. }
                | Event::ThreadExit { .. }
        )
    }
}

/// Consumer of the interpreter's event stream.
///
/// Implemented by every dynamic race detector, by the trace recorder used
/// in tests, and by the precision verifier.
///
/// The executors hand heap accesses and checks — the two events of the
/// hot path — to the typed hooks [`access`](EventSink::access) and
/// [`check`](EventSink::check) instead of building an [`Event`]. Their
/// defaults build the owned event and pass it to
/// [`event`](EventSink::event), so a sink that implements only `event`
/// sees exactly the stream it would otherwise. A sink that overrides a
/// hook must treat the call as that event: the stream is the same
/// either way.
pub trait EventSink {
    /// Observes the next event in the global total order.
    fn event(&mut self, ev: &Event);

    /// Observes [`Event::Access`] `{ t, kind, loc }`.
    #[inline]
    fn access(&mut self, t: Tid, kind: AccessKind, loc: Loc) {
        self.event(&Event::Access { t, kind, loc });
    }

    /// Observes [`Event::Check`] for thread `t`, its paths borrowed.
    #[inline]
    fn check(&mut self, t: Tid, paths: &[(AccessKind, CheckRef<'_>)]) {
        let paths = paths.iter().map(|(k, p)| (*k, p.to_target())).collect();
        self.event(&Event::Check { t, paths });
    }
}

/// A sink that discards all events (used to measure base running time).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline]
    fn event(&mut self, _ev: &Event) {}

    #[inline]
    fn access(&mut self, _t: Tid, _kind: AccessKind, _loc: Loc) {}

    #[inline]
    fn check(&mut self, _t: Tid, _paths: &[(AccessKind, CheckRef<'_>)]) {}
}

/// A sink that records the full trace (used by tests and the verifier).
#[derive(Debug, Default, Clone)]
pub struct RecordingSink {
    /// The recorded events, in order.
    pub events: Vec<Event>,
}

impl EventSink for RecordingSink {
    fn event(&mut self, ev: &Event) {
        self.events.push(ev.clone());
    }
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    #[inline]
    fn event(&mut self, ev: &Event) {
        (**self).event(ev);
    }

    #[inline]
    fn access(&mut self, t: Tid, kind: AccessKind, loc: Loc) {
        (**self).access(t, kind, loc);
    }

    #[inline]
    fn check(&mut self, t: Tid, paths: &[(AccessKind, CheckRef<'_>)]) {
        (**self).check(t, paths);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_membership_and_len() {
        let r = ConcreteRange {
            lo: 2,
            hi: 11,
            step: 3,
        };
        assert_eq!(r.len(), 3);
        assert!(r.contains(2));
        assert!(r.contains(5));
        assert!(r.contains(8));
        assert!(!r.contains(11));
        assert!(!r.contains(3));
        assert_eq!(r.indices().collect::<Vec<_>>(), vec![2, 5, 8]);
        assert_eq!(r.last_plus_one(), 9);
    }

    #[test]
    fn empty_range() {
        let r = ConcreteRange::contiguous(5, 5);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.indices().count(), 0);
    }

    #[test]
    fn singleton_range() {
        let r = ConcreteRange::singleton(7);
        assert_eq!(r.len(), 1);
        assert!(r.contains(7));
        assert!(!r.contains(8));
    }

    #[test]
    fn event_thread_and_sync() {
        let ev = Event::Acquire {
            t: Tid(3),
            lock: ObjId(0),
        };
        assert_eq!(ev.thread(), Tid(3));
        assert!(ev.is_sync());
        let acc = Event::Access {
            t: Tid(1),
            kind: AccessKind::Read,
            loc: Loc::Elem(ArrId(0), 4),
        };
        assert!(!acc.is_sync());
    }
}
