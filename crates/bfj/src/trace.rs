//! Compact serialized trace format for record-once / replay-many
//! detection.
//!
//! The interpreter's [`Event`] stream can be captured by a [`TraceWriter`]
//! (an [`EventSink`]) into a flat byte buffer, then replayed any number of
//! times — by `bigfoot-detectors`' `replay_trace`, which feeds the
//! decoded events to the same engine the serial
//! [`Detector`](../../bigfoot_detectors/struct.Detector.html) runs —
//! without re-running the program. Recording is cheap enough to leave on:
//! one tag byte plus LEB128 varints per event, no allocation beyond the
//! growing buffer.
//!
//! Layout:
//!
//! ```text
//! magic "BFTR" | version u8 | event*      (no length prefix; EOF ends it)
//! event := tag u8, payload varints (see `encode_event`)
//! ```
//!
//! Unsigned fields are LEB128 varints; signed array indices/bounds are
//! zigzag-encoded first. The decoder lives here next to the encoder so the
//! two cannot drift. There is one: [`Decoder`] decodes each tag in one
//! routine and dispatches the event straight into an [`EventSink`]'s typed
//! hooks — an access to `access`, a check to `check` with its paths
//! borrowed from reused scratch, anything else to `event` — so replay
//! builds no owned [`Event`] per event. [`decode_into`] runs it over a
//! whole trace; [`read_event`] is the same decoder into a one-event
//! capturing sink, for callers that keep the events (the replay engine's
//! `TraceReader`, the fuzz round-trip oracle). The compressed container's
//! dictionary keeps no events: each use of an entry decodes its bytes
//! through the typed face.

use crate::event::{ArrId, CheckRef, ConcreteRange, Event, EventSink, Loc, ObjId};
use crate::interp::MAX_ARRAY_LEN;
use bigfoot_vc::{AccessKind, Tid};

pub mod compress;

/// File magic for serialized traces.
pub const TRACE_MAGIC: [u8; 4] = *b"BFTR";

/// Current trace format version.
pub const TRACE_VERSION: u8 = 1;

/// Event tag bytes (one per [`Event`] variant).
const TAG_ALLOC_OBJ: u8 = 0;
const TAG_ALLOC_ARR: u8 = 1;
const TAG_ACCESS: u8 = 2;
const TAG_CHECK: u8 = 3;
const TAG_VOLATILE_READ: u8 = 4;
const TAG_VOLATILE_WRITE: u8 = 5;
const TAG_ACQUIRE: u8 = 6;
const TAG_RELEASE: u8 = 7;
const TAG_FORK: u8 = 8;
const TAG_JOIN: u8 = 9;
const TAG_THREAD_EXIT: u8 = 10;

/// A malformed or truncated serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The buffer does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The header's version byte is not [`TRACE_VERSION`].
    UnsupportedVersion(u8),
    /// The buffer ended mid-event.
    Truncated {
        /// Byte offset where decoding stopped.
        offset: usize,
    },
    /// An unknown tag byte was encountered.
    BadTag {
        /// Byte offset of the tag.
        offset: usize,
        /// The offending byte.
        tag: u8,
    },
    /// A decoded range carried a non-positive stride. Strides are
    /// validated at parse time, so this only arises from corrupt or
    /// hand-crafted traces — rejecting it here keeps `step >= 1` an
    /// invariant every detector downstream may rely on (a zero stride
    /// would otherwise divide-by-zero in shadow clamping).
    InvalidStride {
        /// Byte offset just past the offending range.
        offset: usize,
        /// The decoded stride.
        step: i64,
    },
    /// An array allocation claimed more than [`MAX_ARRAY_LEN`] elements.
    /// Neither executor can allocate such an array, so only a corrupt or
    /// hand-crafted trace carries one — rejecting it here keeps detectors
    /// from sizing per-element shadow state by an attacker-chosen length.
    OversizedArray {
        /// Byte offset just past the offending length.
        offset: usize,
        /// The decoded length.
        len: u64,
    },
    /// A compressed-container rule referenced a symbol that does not
    /// exist yet. Rules may only reference dictionary entries and
    /// *earlier* rules, which makes every accepted grammar acyclic by
    /// construction — self-references and forward references land here.
    BadRuleRef {
        /// Index of the offending rule (or `u64::MAX` for the top-level
        /// sequence).
        rule: u64,
        /// The out-of-range symbol.
        sym: u64,
    },
    /// A compressed-container run carried a zero repeat count.
    BadCount {
        /// Index of the offending rule (or `u64::MAX` for the top-level
        /// sequence).
        rule: u64,
    },
    /// A compressed container claims an expansion larger than the
    /// decoder is willing to materialize (or its run counts overflow).
    OversizedExpansion {
        /// The claimed number of expanded events.
        claimed: u64,
    },
    /// The compressed container's header-declared event total does not
    /// match the grammar's actual expansion size.
    ExpansionMismatch {
        /// Event count declared in the container header.
        claimed: u64,
        /// Event count the grammar actually expands to.
        actual: u64,
    },
    /// A compressed-container rule chain nests deeper than
    /// [`compress::MAX_RULE_DEPTH`], which would make expansion
    /// recursion unsafe.
    RuleTooDeep {
        /// Index of the offending rule.
        rule: u64,
    },
    /// Bytes remained after the last structural element of a compressed
    /// container. BFTR streams are length-free, but BFTC containers are
    /// fully structured, so trailing garbage is always an error.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        offset: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a BFTR trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (expected {TRACE_VERSION})"
                )
            }
            TraceError::Truncated { offset } => {
                write!(f, "trace truncated at byte {offset}")
            }
            TraceError::BadTag { offset, tag } => {
                write!(f, "unknown event tag {tag} at byte {offset}")
            }
            TraceError::InvalidStride { offset, step } => {
                write!(f, "non-positive range stride {step} at byte {offset}")
            }
            TraceError::OversizedArray { offset, len } => {
                write!(
                    f,
                    "array length {len} at byte {offset} exceeds the limit of {MAX_ARRAY_LEN}"
                )
            }
            TraceError::BadRuleRef { rule, sym } => {
                if *rule == u64::MAX {
                    write!(f, "top-level sequence references undefined symbol {sym}")
                } else {
                    write!(f, "rule {rule} references undefined symbol {sym}")
                }
            }
            TraceError::BadCount { rule } => {
                if *rule == u64::MAX {
                    write!(f, "zero repeat count in top-level sequence")
                } else {
                    write!(f, "zero repeat count in rule {rule}")
                }
            }
            TraceError::OversizedExpansion { claimed } => {
                write!(
                    f,
                    "compressed trace claims oversized expansion ({claimed} events)"
                )
            }
            TraceError::ExpansionMismatch { claimed, actual } => {
                write!(
                    f,
                    "compressed trace declares {claimed} events but expands to {actual}"
                )
            }
            TraceError::RuleTooDeep { rule } => {
                write!(f, "rule {rule} nests deeper than the expansion limit")
            }
            TraceError::TrailingBytes { offset } => {
                write!(
                    f,
                    "trailing bytes after compressed trace at offset {offset}"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

// ---------------- varint primitives ----------------

pub(crate) fn put_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    put_u64(buf, v as u64);
}

pub(crate) fn put_i64(buf: &mut Vec<u8>, v: i64) {
    // Zigzag: small magnitudes (of either sign) stay short.
    put_u64(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Length in bytes of `v` as [`put_i64`] writes it.
pub(crate) fn i64_len(v: i64) -> usize {
    let z = ((v << 1) ^ (v >> 63)) as u64;
    (64 - (z | 1).leading_zeros() as usize).div_ceil(7)
}

#[inline(always)]
pub(crate) fn get_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    // Thread ids, small field indices and index deltas are mostly below
    // 128, so most varints of a trace are one byte.
    if let Some(&byte) = bytes.get(*pos) {
        if byte & 0x80 == 0 {
            *pos += 1;
            return Ok(u64::from(byte));
        }
    }
    get_u64_long(bytes, pos)
}

/// [`get_u64`] for a varint of more than one byte (or none at all).
fn get_u64_long(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = get_byte(bytes, pos)?;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(TraceError::Truncated { offset: *pos });
        }
    }
}

/// The byte at `*pos`, advancing past it.
#[inline(always)]
fn get_byte(bytes: &[u8], pos: &mut usize) -> Result<u8, TraceError> {
    let byte = *bytes
        .get(*pos)
        .ok_or(TraceError::Truncated { offset: *pos })?;
    *pos += 1;
    Ok(byte)
}

#[inline(always)]
pub(crate) fn get_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, TraceError> {
    Ok(get_u64(bytes, pos)? as u32)
}

#[inline(always)]
pub(crate) fn get_i64(bytes: &[u8], pos: &mut usize) -> Result<i64, TraceError> {
    let z = get_u64(bytes, pos)?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

fn put_kind(buf: &mut Vec<u8>, kind: AccessKind) {
    buf.push(match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    });
}

fn get_kind(bytes: &[u8], pos: &mut usize) -> Result<AccessKind, TraceError> {
    match get_byte(bytes, pos)? {
        0 => Ok(AccessKind::Read),
        1 => Ok(AccessKind::Write),
        tag => Err(TraceError::BadTag {
            offset: *pos - 1,
            tag,
        }),
    }
}

fn put_range(buf: &mut Vec<u8>, r: &ConcreteRange) {
    put_i64(buf, r.lo);
    put_i64(buf, r.hi);
    put_i64(buf, r.step);
}

fn get_range(bytes: &[u8], pos: &mut usize) -> Result<ConcreteRange, TraceError> {
    let r = ConcreteRange {
        lo: get_i64(bytes, pos)?,
        hi: get_i64(bytes, pos)?,
        step: get_i64(bytes, pos)?,
    };
    if r.step < 1 {
        return Err(TraceError::InvalidStride {
            offset: *pos,
            step: r.step,
        });
    }
    Ok(r)
}

// ---------------- event codec ----------------

/// Appends one encoded event to `buf`.
pub fn encode_event(buf: &mut Vec<u8>, ev: &Event) {
    match ev {
        Event::AllocObj {
            t,
            obj,
            class,
            fields,
        } => {
            buf.push(TAG_ALLOC_OBJ);
            put_u32(buf, t.0);
            put_u32(buf, obj.0);
            put_u32(buf, *class);
            put_u32(buf, *fields);
        }
        Event::AllocArr { t, arr, len } => {
            buf.push(TAG_ALLOC_ARR);
            put_u32(buf, t.0);
            put_u32(buf, arr.0);
            put_u64(buf, *len);
        }
        Event::Access { t, kind, loc } => encode_access(buf, *t, *kind, *loc),
        Event::Check { t, paths } => {
            put_check_header(buf, *t, paths.len());
            for (kind, target) in paths {
                put_check_path(buf, *kind, target.borrowed());
            }
        }
        Event::VolatileRead { t, obj, field } => {
            buf.push(TAG_VOLATILE_READ);
            put_u32(buf, t.0);
            put_u32(buf, obj.0);
            put_u32(buf, *field);
        }
        Event::VolatileWrite { t, obj, field } => {
            buf.push(TAG_VOLATILE_WRITE);
            put_u32(buf, t.0);
            put_u32(buf, obj.0);
            put_u32(buf, *field);
        }
        Event::Acquire { t, lock } => {
            buf.push(TAG_ACQUIRE);
            put_u32(buf, t.0);
            put_u32(buf, lock.0);
        }
        Event::Release { t, lock } => {
            buf.push(TAG_RELEASE);
            put_u32(buf, t.0);
            put_u32(buf, lock.0);
        }
        Event::Fork { parent, child } => {
            buf.push(TAG_FORK);
            put_u32(buf, parent.0);
            put_u32(buf, child.0);
        }
        Event::Join { parent, child } => {
            buf.push(TAG_JOIN);
            put_u32(buf, parent.0);
            put_u32(buf, child.0);
        }
        Event::ThreadExit { t } => {
            buf.push(TAG_THREAD_EXIT);
            put_u32(buf, t.0);
        }
    }
}

/// Appends the encoding of [`Event::Access`] `{ t, kind, loc }` to `buf`
/// (what [`encode_event`] writes for it, without building the event).
pub(crate) fn encode_access(buf: &mut Vec<u8>, t: Tid, kind: AccessKind, loc: Loc) {
    buf.push(TAG_ACCESS);
    put_u32(buf, t.0);
    put_kind(buf, kind);
    match loc {
        Loc::Field(obj, f) => {
            buf.push(0);
            put_u32(buf, obj.0);
            put_u32(buf, f);
        }
        Loc::Elem(arr, i) => {
            buf.push(1);
            put_u32(buf, arr.0);
            put_i64(buf, i);
        }
    }
}

/// Appends the encoding of [`Event::Check`] for thread `t` with borrowed
/// paths to `buf` (what [`encode_event`] writes for the owned event).
pub(crate) fn encode_check(buf: &mut Vec<u8>, t: Tid, paths: &[(AccessKind, CheckRef<'_>)]) {
    put_check_header(buf, t, paths.len());
    for &(kind, target) in paths {
        put_check_path(buf, kind, target);
    }
}

fn put_check_header(buf: &mut Vec<u8>, t: Tid, npaths: usize) {
    buf.push(TAG_CHECK);
    put_u32(buf, t.0);
    put_u64(buf, npaths as u64);
}

fn put_check_path(buf: &mut Vec<u8>, kind: AccessKind, target: CheckRef<'_>) {
    put_kind(buf, kind);
    match target {
        CheckRef::Fields(obj, idxs) => {
            buf.push(0);
            put_u32(buf, obj.0);
            put_u64(buf, idxs.len() as u64);
            for &f in idxs {
                put_u32(buf, f);
            }
        }
        CheckRef::Range(arr, r) => {
            buf.push(1);
            put_u32(buf, arr.0);
            put_range(buf, &r);
        }
    }
}

/// Validates the trace header and returns the offset of the first event.
pub fn read_header(bytes: &[u8]) -> Result<usize, TraceError> {
    if bytes.len() < TRACE_MAGIC.len() + 1 || bytes[..TRACE_MAGIC.len()] != TRACE_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = bytes[TRACE_MAGIC.len()];
    if version != TRACE_VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    Ok(TRACE_MAGIC.len() + 1)
}

/// The BFTR event decoder: one decoding routine per tag, which hands each
/// event to an [`EventSink`]'s typed hooks.
///
/// An access goes to [`access`](EventSink::access) and a check to
/// [`check`](EventSink::check), its paths borrowed from scratch the
/// decoder keeps, so decoding a check allocates nothing once that scratch
/// has grown to fit. Every other event is built on the stack and goes to
/// [`event`](EventSink::event). [`decode_into`] runs the decoder over a
/// whole trace; [`Decoder::read_event`] and [`read_event`] are its
/// owned-event face, for callers that keep the events.
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    /// The field indices of the check being decoded, path after path.
    fields: Vec<u32>,
    /// Where each field path's indices end in `fields`.
    ends: Vec<usize>,
    /// The paths of the check being decoded. Empty between events: it
    /// only carries its allocation from one check to the next.
    paths: Vec<(AccessKind, CheckRef<'static>)>,
}

impl Decoder {
    /// Decodes the event at `*pos` into `sink`, advancing `*pos` past it.
    /// Returns `Ok(false)` at a clean end of buffer.
    #[inline(always)]
    fn decode_event<S: EventSink>(
        &mut self,
        bytes: &[u8],
        pos: &mut usize,
        sink: &mut S,
    ) -> Result<bool, TraceError> {
        let Some(&tag) = bytes.get(*pos) else {
            return Ok(false);
        };
        let tag_offset = *pos;
        *pos += 1;
        let ev = match tag {
            TAG_ACCESS => {
                let t = Tid(get_u32(bytes, pos)?);
                let kind = get_kind(bytes, pos)?;
                let loc = match get_byte(bytes, pos)? {
                    0 => Loc::Field(ObjId(get_u32(bytes, pos)?), get_u32(bytes, pos)?),
                    1 => Loc::Elem(ArrId(get_u32(bytes, pos)?), get_i64(bytes, pos)?),
                    tag => {
                        return Err(TraceError::BadTag {
                            offset: *pos - 1,
                            tag,
                        })
                    }
                };
                sink.access(t, kind, loc);
                return Ok(true);
            }
            TAG_CHECK => {
                self.decode_check(bytes, pos, sink)?;
                return Ok(true);
            }
            TAG_ALLOC_OBJ => Event::AllocObj {
                t: Tid(get_u32(bytes, pos)?),
                obj: ObjId(get_u32(bytes, pos)?),
                class: get_u32(bytes, pos)?,
                fields: get_u32(bytes, pos)?,
            },
            TAG_ALLOC_ARR => {
                let t = Tid(get_u32(bytes, pos)?);
                let arr = ArrId(get_u32(bytes, pos)?);
                let len = get_u64(bytes, pos)?;
                if len > MAX_ARRAY_LEN as u64 {
                    return Err(TraceError::OversizedArray { offset: *pos, len });
                }
                Event::AllocArr { t, arr, len }
            }
            TAG_VOLATILE_READ => Event::VolatileRead {
                t: Tid(get_u32(bytes, pos)?),
                obj: ObjId(get_u32(bytes, pos)?),
                field: get_u32(bytes, pos)?,
            },
            TAG_VOLATILE_WRITE => Event::VolatileWrite {
                t: Tid(get_u32(bytes, pos)?),
                obj: ObjId(get_u32(bytes, pos)?),
                field: get_u32(bytes, pos)?,
            },
            TAG_ACQUIRE => Event::Acquire {
                t: Tid(get_u32(bytes, pos)?),
                lock: ObjId(get_u32(bytes, pos)?),
            },
            TAG_RELEASE => Event::Release {
                t: Tid(get_u32(bytes, pos)?),
                lock: ObjId(get_u32(bytes, pos)?),
            },
            TAG_FORK => Event::Fork {
                parent: Tid(get_u32(bytes, pos)?),
                child: Tid(get_u32(bytes, pos)?),
            },
            TAG_JOIN => Event::Join {
                parent: Tid(get_u32(bytes, pos)?),
                child: Tid(get_u32(bytes, pos)?),
            },
            TAG_THREAD_EXIT => Event::ThreadExit {
                t: Tid(get_u32(bytes, pos)?),
            },
            tag => {
                return Err(TraceError::BadTag {
                    offset: tag_offset,
                    tag,
                })
            }
        };
        sink.event(&ev);
        Ok(true)
    }

    /// Decodes a check's payload (after its tag) into `sink.check`.
    #[inline]
    fn decode_check<S: EventSink>(
        &mut self,
        bytes: &[u8],
        pos: &mut usize,
        sink: &mut S,
    ) -> Result<(), TraceError> {
        let t = Tid(get_u32(bytes, pos)?);
        // The length words are untrusted input: a corrupt trace can claim
        // billions of paths or fields. Nothing is reserved for them; the
        // scratch grows one decoded item at a time, and every item costs at
        // least one byte, so a bogus length hits `Truncated` first.
        let n = get_u64(bytes, pos)?;
        self.fields.clear();
        self.ends.clear();
        let mut paths = recycle(std::mem::take(&mut self.paths));
        for _ in 0..n {
            let kind = get_kind(bytes, pos)?;
            let target = match get_byte(bytes, pos)? {
                0 => {
                    let obj = ObjId(get_u32(bytes, pos)?);
                    let k = get_u64(bytes, pos)?;
                    for _ in 0..k {
                        self.fields.push(get_u32(bytes, pos)?);
                    }
                    self.ends.push(self.fields.len());
                    // Pointed at its indices below, once `fields` stops
                    // growing.
                    CheckRef::Fields(obj, &[])
                }
                1 => CheckRef::Range(ArrId(get_u32(bytes, pos)?), get_range(bytes, pos)?),
                tag => {
                    return Err(TraceError::BadTag {
                        offset: *pos - 1,
                        tag,
                    })
                }
            };
            paths.push((kind, target));
        }
        let (mut start, mut ends) = (0, self.ends.iter());
        for (_, path) in &mut paths {
            if let CheckRef::Fields(_, idxs) = path {
                let end = *ends.next().expect("one end per field path");
                *idxs = &self.fields[start..end];
                start = end;
            }
        }
        sink.check(t, &paths);
        self.paths = recycle(paths);
        Ok(())
    }

    /// Decodes the event at `*pos` into an owned [`Event`], advancing
    /// `*pos` past it. Returns `Ok(None)` at a clean end of buffer.
    #[inline]
    pub fn read_event(
        &mut self,
        bytes: &[u8],
        pos: &mut usize,
    ) -> Result<Option<Event>, TraceError> {
        let mut one = Capture(None);
        self.decode_event(bytes, pos, &mut one)?;
        Ok(one.0)
    }
}

/// `paths`, emptied and re-typed to borrow for another lifetime. Both
/// element types have one layout, so the collect reuses the allocation
/// in place: the check scratch keeps its capacity from check to check.
fn recycle<'b>(mut paths: Vec<(AccessKind, CheckRef<'_>)>) -> Vec<(AccessKind, CheckRef<'b>)> {
    paths.clear();
    paths
        .into_iter()
        .map(|_| -> (AccessKind, CheckRef<'b>) { unreachable!("the paths were cleared") })
        .collect()
}

/// The sink behind the owned-event face: keeps the one event it is handed.
struct Capture(Option<Event>);

impl EventSink for Capture {
    fn event(&mut self, ev: &Event) {
        self.0 = Some(ev.clone());
    }

    fn access(&mut self, t: Tid, kind: AccessKind, loc: Loc) {
        self.0 = Some(Event::Access { t, kind, loc });
    }

    fn check(&mut self, t: Tid, paths: &[(AccessKind, CheckRef<'_>)]) {
        let paths = paths.iter().map(|&(k, p)| (k, p.to_target())).collect();
        self.0 = Some(Event::Check { t, paths });
    }
}

/// Decodes the event at `*pos`, advancing `*pos` past it. Returns
/// `Ok(None)` at a clean end of buffer.
///
/// A fresh [`Decoder`] per call: a caller that reads many events keeps
/// one and calls [`Decoder::read_event`], so checks reuse its scratch.
pub fn read_event(bytes: &[u8], pos: &mut usize) -> Result<Option<Event>, TraceError> {
    Decoder::default().read_event(bytes, pos)
}

/// Decodes the whole trace `bytes` (header included) into `sink`, through
/// its typed hooks, and returns the number of events decoded.
///
/// # Errors
///
/// Returns [`TraceError`] at the first malformed byte; the events before
/// it have reached `sink`.
///
/// # Examples
///
/// ```
/// use bigfoot_bfj::{compile, parse_program, trace, CompiledVm, RecordingSink, SchedPolicy};
///
/// let p = parse_program("main { a = new_array(4); a[0] = 1; }")?;
/// let mut w = trace::TraceWriter::new();
/// CompiledVm::new(&compile(&p), SchedPolicy::default()).run(&mut w)?;
/// let bytes = w.into_bytes();
/// let mut rec = RecordingSink::default();
/// let n = trace::decode_into(&bytes, &mut rec)?;
/// assert_eq!(n, rec.events.len() as u64);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[inline]
pub fn decode_into<S: EventSink>(bytes: &[u8], sink: &mut S) -> Result<u64, TraceError> {
    let mut pos = read_header(bytes)?;
    let mut decoder = Decoder::default();
    let mut events = 0;
    while decoder.decode_event(bytes, &mut pos, sink)? {
        events += 1;
    }
    Ok(events)
}

/// An [`EventSink`] that serializes the stream into a trace buffer.
///
/// # Examples
///
/// ```
/// use bigfoot_bfj::{compile, parse_program, trace, CompiledVm, SchedPolicy};
///
/// let p = parse_program("main { a = new_array(4); a[0] = 1; }")?;
/// let mut w = trace::TraceWriter::new();
/// CompiledVm::new(&compile(&p), SchedPolicy::default()).run(&mut w)?;
/// let bytes = w.into_bytes();
/// let start = trace::read_header(&bytes)?;
/// let mut pos = start;
/// let mut events = 0;
/// while trace::read_event(&bytes, &mut pos)?.is_some() {
///     events += 1;
/// }
/// assert!(events >= 3); // alloc, access, thread exit
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceWriter {
    buf: Vec<u8>,
    /// Per-event encode scratch, reused across the whole recording so the
    /// steady-state encode path performs no allocation of its own: the
    /// event is encoded into `scratch` (whose capacity persists) and then
    /// copied into `buf` in one `extend_from_slice`.
    scratch: Vec<u8>,
    events: u64,
    /// Payload bytes encoded since the last flush to the
    /// `trace.bytes_written` obs counter (flushed when the writer is
    /// consumed or dropped — including a drop during unwind from a failed
    /// run, so partial recordings are accounted too).
    unflushed_bytes: u64,
}

impl TraceWriter {
    /// Creates a writer with the header already emitted.
    pub fn new() -> TraceWriter {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&TRACE_MAGIC);
        buf.push(TRACE_VERSION);
        TraceWriter {
            buf,
            scratch: Vec::with_capacity(64),
            events: 0,
            unflushed_bytes: 0,
        }
    }

    /// Number of events recorded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Size of the encoded trace so far, in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Event payload bytes written so far (the trace size minus the
    /// header). This is exactly what the `trace.bytes_written` counter
    /// accumulates, so the two can be cross-checked.
    pub fn bytes_written(&self) -> u64 {
        (self.buf.len() - TRACE_MAGIC.len() - 1) as u64
    }

    /// True if no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Consumes the writer, returning the serialized trace.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.flush_bytes();
        std::mem::take(&mut self.buf)
    }

    fn flush_bytes(&mut self) {
        if self.unflushed_bytes != 0 {
            bigfoot_obs::count_named("trace.bytes_written", self.unflushed_bytes);
            self.unflushed_bytes = 0;
        }
    }
}

impl Default for TraceWriter {
    fn default() -> Self {
        TraceWriter::new()
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        self.flush_bytes();
    }
}

impl TraceWriter {
    /// Appends the event just encoded into `scratch`.
    #[inline]
    fn push_scratch(&mut self) {
        self.buf.extend_from_slice(&self.scratch);
        self.unflushed_bytes += self.scratch.len() as u64;
        self.events += 1;
    }
}

impl EventSink for TraceWriter {
    fn event(&mut self, ev: &Event) {
        self.scratch.clear();
        encode_event(&mut self.scratch, ev);
        self.push_scratch();
    }

    #[inline]
    fn access(&mut self, t: Tid, kind: AccessKind, loc: Loc) {
        self.scratch.clear();
        encode_access(&mut self.scratch, t, kind, loc);
        self.push_scratch();
    }

    #[inline]
    fn check(&mut self, t: Tid, paths: &[(AccessKind, CheckRef<'_>)]) {
        self.scratch.clear();
        encode_check(&mut self.scratch, t, paths);
        self.push_scratch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CheckTarget;
    use crate::{parse_program, Interp, RecordingSink, SchedPolicy};

    fn decode_all(bytes: &[u8]) -> Vec<Event> {
        let mut pos = read_header(bytes).expect("header");
        let mut out = Vec::new();
        while let Some(ev) = read_event(bytes, &mut pos).expect("event") {
            out.push(ev);
        }
        out
    }

    #[test]
    fn decoding_rejects_non_positive_strides() {
        // `encode_event` is trusted (the interpreter never emits such a
        // range), but a corrupt or crafted trace must not smuggle a
        // zero/negative stride past the decoder.
        for step in [0i64, -2] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&TRACE_MAGIC);
            buf.push(TRACE_VERSION);
            encode_event(
                &mut buf,
                &Event::Check {
                    t: Tid(0),
                    paths: vec![(
                        AccessKind::Read,
                        CheckTarget::Range(ArrId(0), ConcreteRange { lo: 0, hi: 8, step }),
                    )],
                },
            );
            let mut pos = read_header(&buf).expect("header");
            assert!(
                matches!(
                    read_event(&buf, &mut pos),
                    Err(TraceError::InvalidStride { step: s, .. }) if s == step
                ),
                "stride {step} must be rejected"
            );
        }
    }

    #[test]
    fn i64_len_is_the_written_length() {
        let mut probes = vec![0i64, 1, -1, i64::MIN, i64::MAX];
        for k in 0..63 {
            let b = 1i64 << k;
            probes.extend([b - 1, b, -b, -b - 1]);
        }
        for v in probes {
            let mut buf = Vec::new();
            put_i64(&mut buf, v);
            assert_eq!(i64_len(v), buf.len(), "{v}");
        }
    }

    #[test]
    fn roundtrip_every_variant() {
        let events = vec![
            Event::AllocObj {
                t: Tid(0),
                obj: ObjId(7),
                class: 2,
                fields: 3,
            },
            Event::AllocArr {
                t: Tid(1),
                arr: ArrId(4),
                len: 1_000_000,
            },
            Event::Access {
                t: Tid(2),
                kind: AccessKind::Read,
                loc: Loc::Field(ObjId(7), 1),
            },
            Event::Access {
                t: Tid(2),
                kind: AccessKind::Write,
                loc: Loc::Elem(ArrId(4), -3),
            },
            Event::Check {
                t: Tid(0),
                paths: vec![
                    (AccessKind::Write, CheckTarget::Fields(ObjId(7), vec![0, 2])),
                    (
                        AccessKind::Read,
                        CheckTarget::Range(
                            ArrId(4),
                            ConcreteRange {
                                lo: 0,
                                hi: 100,
                                step: 3,
                            },
                        ),
                    ),
                ],
            },
            Event::VolatileRead {
                t: Tid(1),
                obj: ObjId(9),
                field: 0,
            },
            Event::VolatileWrite {
                t: Tid(1),
                obj: ObjId(9),
                field: 0,
            },
            Event::Acquire {
                t: Tid(3),
                lock: ObjId(5),
            },
            Event::Release {
                t: Tid(3),
                lock: ObjId(5),
            },
            Event::Fork {
                parent: Tid(0),
                child: Tid(3),
            },
            Event::Join {
                parent: Tid(0),
                child: Tid(3),
            },
            Event::ThreadExit { t: Tid(3) },
        ];
        let mut w = TraceWriter::new();
        for ev in &events {
            w.event(ev);
        }
        assert_eq!(w.events(), events.len() as u64);
        let bytes = w.into_bytes();
        assert_eq!(decode_all(&bytes), events);
    }

    #[test]
    fn recorded_trace_matches_recording_sink() {
        let p = parse_program(
            "class C { field x; meth poke(v) { this.x = v; return 0; } }
             main {
                 c = new C;
                 a = new_array(8);
                 for (i = 0; i < 8; i = i + 1) { a[i] = i; }
                 fork t1 = c.poke(1);
                 join(t1);
             }",
        )
        .expect("parse");
        let mut rec = RecordingSink::default();
        Interp::new(&p, SchedPolicy::default())
            .run(&mut rec)
            .expect("run");
        let mut w = TraceWriter::new();
        Interp::new(&p, SchedPolicy::default())
            .run(&mut w)
            .expect("run");
        assert_eq!(decode_all(&w.into_bytes()), rec.events);
    }

    /// Decodes `bytes` through the typed face into a [`RecordingSink`]
    /// and through the owned face into another, and returns both streams.
    fn both_faces(bytes: &[u8]) -> (Vec<Event>, Vec<Event>) {
        let mut typed = RecordingSink::default();
        let n = decode_into(bytes, &mut typed).expect("typed decode");
        assert_eq!(n, typed.events.len() as u64);
        let mut owned = RecordingSink::default();
        for ev in decode_all(bytes) {
            owned.event(&ev);
        }
        (typed.events, owned.events)
    }

    #[test]
    fn typed_and_owned_faces_decode_the_same_events() {
        let fields = |obj, idxs: &[u32]| CheckTarget::Fields(ObjId(obj), idxs.to_vec());
        let range =
            |arr, lo, hi, step| CheckTarget::Range(ArrId(arr), ConcreteRange { lo, hi, step });
        let (r, w) = (AccessKind::Read, AccessKind::Write);
        let mut events = vec![
            Event::AllocArr {
                t: Tid(0),
                arr: ArrId(1),
                len: 64,
            },
            Event::Check {
                t: Tid(0),
                paths: vec![
                    (w, fields(3, &[0, 1, 2])),
                    (r, range(1, 0, 64, 1)),
                    (r, fields(4, &[])),
                    (w, range(1, -9, 60, 7)),
                    (r, fields(5, &[300, 7])),
                ],
            },
            // Zero paths, after a check that grew the scratch.
            Event::Check {
                t: Tid(1),
                paths: vec![],
            },
            Event::Check {
                t: Tid(2),
                paths: vec![(w, fields(6, &[]))],
            },
            Event::Check {
                t: Tid(1),
                paths: vec![(r, range(1, i64::MIN, i64::MAX, i64::MAX))],
            },
        ];
        for i in [i64::MIN, i64::MAX, -1, 0, 63, 64, 1 << 40] {
            events.push(Event::Access {
                t: Tid(3),
                kind: w,
                loc: Loc::Elem(ArrId(1), i),
            });
        }
        events.push(Event::Access {
            t: Tid(3),
            kind: r,
            loc: Loc::Field(ObjId(u32::MAX), u32::MAX),
        });
        events.push(Event::ThreadExit { t: Tid(3) });
        let mut w = TraceWriter::new();
        for ev in &events {
            w.event(ev);
        }
        let (typed, owned) = both_faces(&w.into_bytes());
        assert_eq!(typed, events);
        assert_eq!(owned, events);

        // And a recorded run, whose checks come from the executor's hook.
        let p = parse_program(
            "class P { field x; field y; field z; }
             class W { meth fill(p, a, n) {
                 for (i = 0; i < n; i = i + 1) { a[i] = i; p.x = i; p.z = i; }
                 check(w: p.x/z, r: p.y, w: a[0..n:2], w: a[1..n:2]);
                 return 0; } }
             main {
                 p = new P; q = new P;
                 a = new_array(16); b = new_array(16);
                 w = new W;
                 fork t1 = w.fill(p, a, 16);
                 fork t2 = w.fill(q, b, 16);
                 join(t1); join(t2);
             }",
        )
        .expect("parse");
        let mut rec = RecordingSink::default();
        Interp::new(&p, SchedPolicy::default())
            .run(&mut rec)
            .expect("run");
        let mut w = TraceWriter::new();
        Interp::new(&p, SchedPolicy::default())
            .run(&mut w)
            .expect("run");
        let (typed, owned) = both_faces(&w.into_bytes());
        assert!(rec
            .events
            .iter()
            .any(|ev| matches!(ev, Event::Check { paths, .. } if paths.len() > 1)));
        assert_eq!(typed, rec.events);
        assert_eq!(owned, rec.events);
    }

    #[test]
    fn header_is_validated() {
        assert_eq!(read_header(b"nope"), Err(TraceError::BadMagic));
        assert_eq!(
            read_header(b"BFTR\x63"),
            Err(TraceError::UnsupportedVersion(0x63))
        );
        let w = TraceWriter::new();
        let bytes = w.into_bytes();
        let mut pos = read_header(&bytes).expect("header");
        assert_eq!(read_event(&bytes, &mut pos), Ok(None));
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = TraceWriter::new();
        w.event(&Event::AllocArr {
            t: Tid(0),
            arr: ArrId(1),
            len: 300,
        });
        let bytes = w.into_bytes();
        let cut = &bytes[..bytes.len() - 1];
        let mut pos = read_header(cut).expect("header");
        assert!(matches!(
            read_event(cut, &mut pos),
            Err(TraceError::Truncated { .. })
        ));
    }

    #[test]
    fn scratch_encode_is_byte_identical_to_direct_encode() {
        // The writer stages each event through a reused scratch buffer;
        // the resulting trace must match encoding straight into one
        // buffer, and the byte accounting must match the buffer growth.
        let p = parse_program(
            "class C { field x; meth poke(v) { this.x = v; return 0; } }
             main {
                 c = new C;
                 a = new_array(16);
                 for (i = 0; i < 16; i = i + 1) { a[i] = i; }
                 fork t1 = c.poke(1);
                 join(t1);
             }",
        )
        .expect("parse");
        let mut rec = RecordingSink::default();
        Interp::new(&p, SchedPolicy::default())
            .run(&mut rec)
            .expect("run");
        let mut direct = Vec::new();
        direct.extend_from_slice(&TRACE_MAGIC);
        direct.push(TRACE_VERSION);
        for ev in &rec.events {
            encode_event(&mut direct, ev);
        }
        let mut w = TraceWriter::new();
        for ev in &rec.events {
            w.event(ev);
        }
        assert_eq!(w.bytes_written(), (direct.len() - 5) as u64);
        assert_eq!(w.into_bytes(), direct);
    }

    #[test]
    fn varints_keep_small_traces_small() {
        let mut w = TraceWriter::new();
        for i in 0..100 {
            w.event(&Event::Access {
                t: Tid(0),
                kind: AccessKind::Write,
                loc: Loc::Elem(ArrId(0), i),
            });
        }
        // Tag + tid + kind + subtag + arr + zigzag index: at most 7
        // bytes/event for indices below 100.
        assert!(w.len() <= 5 + 100 * 7, "trace too large: {}", w.len());
    }
}
