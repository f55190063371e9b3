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
//! zigzag-encoded first. The decoder entry points ([`read_header`],
//! [`read_event`]) live here next to the encoder so the two cannot drift;
//! the replay engine's `TraceReader` in `bigfoot-detectors` wraps them
//! into an iterator.

use crate::event::{ArrId, CheckRef, CheckTarget, ConcreteRange, Event, EventSink, Loc, ObjId};
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

pub(crate) fn get_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes
            .get(*pos)
            .ok_or(TraceError::Truncated { offset: *pos })?;
        *pos += 1;
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

pub(crate) fn get_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, TraceError> {
    Ok(get_u64(bytes, pos)? as u32)
}

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
    let byte = *bytes
        .get(*pos)
        .ok_or(TraceError::Truncated { offset: *pos })?;
    *pos += 1;
    match byte {
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

/// Decodes the event at `*pos`, advancing `*pos` past it. Returns
/// `Ok(None)` at a clean end of buffer.
pub fn read_event(bytes: &[u8], pos: &mut usize) -> Result<Option<Event>, TraceError> {
    let Some(&tag) = bytes.get(*pos) else {
        return Ok(None);
    };
    let tag_offset = *pos;
    *pos += 1;
    let ev = match tag {
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
        TAG_ACCESS => {
            let t = Tid(get_u32(bytes, pos)?);
            let kind = get_kind(bytes, pos)?;
            let subtag = *bytes
                .get(*pos)
                .ok_or(TraceError::Truncated { offset: *pos })?;
            *pos += 1;
            let loc = match subtag {
                0 => Loc::Field(ObjId(get_u32(bytes, pos)?), get_u32(bytes, pos)?),
                1 => Loc::Elem(ArrId(get_u32(bytes, pos)?), get_i64(bytes, pos)?),
                tag => {
                    return Err(TraceError::BadTag {
                        offset: *pos - 1,
                        tag,
                    })
                }
            };
            Event::Access { t, kind, loc }
        }
        TAG_CHECK => {
            let t = Tid(get_u32(bytes, pos)?);
            let n = get_u64(bytes, pos)? as usize;
            // The length words are untrusted input: a corrupt trace can
            // claim billions of paths. Every path costs at least one
            // byte, so capping the pre-allocation at the bytes actually
            // remaining keeps a bogus length from allocating gigabytes
            // before the loop below hits `Truncated`.
            let mut paths = Vec::with_capacity(n.min(bytes.len().saturating_sub(*pos)));
            for _ in 0..n {
                let kind = get_kind(bytes, pos)?;
                let subtag = *bytes
                    .get(*pos)
                    .ok_or(TraceError::Truncated { offset: *pos })?;
                *pos += 1;
                let target = match subtag {
                    0 => {
                        let obj = ObjId(get_u32(bytes, pos)?);
                        let k = get_u64(bytes, pos)? as usize;
                        let mut idxs = Vec::with_capacity(k.min(bytes.len().saturating_sub(*pos)));
                        for _ in 0..k {
                            idxs.push(get_u32(bytes, pos)?);
                        }
                        CheckTarget::Fields(obj, idxs)
                    }
                    1 => CheckTarget::Range(ArrId(get_u32(bytes, pos)?), get_range(bytes, pos)?),
                    tag => {
                        return Err(TraceError::BadTag {
                            offset: *pos - 1,
                            tag,
                        })
                    }
                };
                paths.push((kind, target));
            }
            Event::Check { t, paths }
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
    Ok(Some(ev))
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
