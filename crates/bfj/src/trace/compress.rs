//! Grammar-compressed trace container (`BFTC`).
//!
//! Loop-heavy BFJ traces are extremely repetitive: crypt's block
//! traversals and lufact's triangular sweeps emit the *same* handful of
//! event shapes millions of times, differing only in the array index.
//! This module exploits that in two steps:
//!
//! 1. **Delta transform + dictionary.** Each event is rewritten so that
//!    array-element access indices are delta-encoded per `(thread,
//!    array)` stream (a stride-1 loop becomes the same `+1` token every
//!    iteration), then interned into a dictionary of distinct encoded
//!    events. The trace body becomes a sequence of small symbol ids.
//! 2. **RLE + tandem-repeat grammar.** The symbol sequence is run-length
//!    collapsed, then repeatedly scanned for tandem repeats (`abcabcabc`
//!    with period ≤ `MAX_PERIOD` = 64); each repeated block is extracted
//!    into a straight-line-program rule and replaced by one
//!    `(rule, count)` pair. Rounds nest, so a loop nest collapses into a
//!    rule hierarchy.
//!
//! The writer does both steps in one pass over the stream, in time
//! linear in its length. Each event is encoded once, straight from the
//! executor's typed [`access`](EventSink::access) and
//! [`check`](EventSink::check) hooks, and looked up by its bytes in a
//! dictionary hashed with the standard library's SipHash. The
//! workspace's `FxHasher` leaves the low hash bits, which pick the
//! bucket, blind to the high bytes of each word, and check-heavy traces
//! (fop: 81,937 distinct events in 98,313) then piled their keys into a
//! few hundred buckets. The symbol is RLE-merged into the pair list as it
//! arrives. A tandem round needs `pairs[i + p] == pairs[i]` for a period
//! `p` to repeat, so it tries only the distances to the next occurrences
//! of position `i`'s symbol, nearest first, and compares the whole block
//! only for those: the same smallest-`p` choice as trying every `p`,
//! without the work.
//!
//! The result is a fully structured, versioned container:
//!
//! ```text
//! magic "BFTC" | version u8
//! | dict_len varint   | event*            (BFTR event encoding, delta form)
//! | rule_count varint | rule*             (rule := npairs varint, pair*)
//! | top_npairs varint | pair*             (pair := sym varint, count varint)
//! | total_events varint                   (must equal the expansion size)
//! ```
//!
//! Symbols `0..dict_len` are dictionary entries; symbol `dict_len + i`
//! is rule `i`. A rule may reference only dictionary entries and
//! *earlier* rules, so every accepted grammar is acyclic by
//! construction. The decoder validates counts, symbol references,
//! expansion size and nesting depth up front ([`read_compressed`]), so
//! expansion ([`decompress_to`]) cannot run away on crafted input.
//!
//! Compressed detection in `bigfoot-detectors` walks this grammar
//! directly (memoizing pure rules) instead of expanding it; the
//! byte-stream round trip ([`compress`] / [`decompress`]) is pinned
//! exact by tests and the fuzz oracle.

use super::{
    encode_access, encode_check, encode_event, get_u64, i64_len, put_u64, read_event, read_header,
    TraceError, TRACE_MAGIC, TRACE_VERSION,
};
use crate::event::{CheckRef, Event, EventSink, Loc};
use bigfoot_obs::fx::FxHashMap;
use bigfoot_vc::{AccessKind, Tid};
use std::collections::HashMap;

/// File magic for compressed trace containers.
pub const COMPRESSED_MAGIC: [u8; 4] = *b"BFTC";

/// Current compressed container version.
pub const COMPRESSED_VERSION: u8 = 1;

/// Maximum rule nesting depth the decoder accepts. Expansion recurses
/// at most this deep, so the bound doubles as a stack-safety guarantee.
pub const MAX_RULE_DEPTH: u32 = 64;

/// Maximum number of expanded events a container may claim (2^40, far
/// above any real trace but small enough that size arithmetic cannot
/// overflow when multiplied by per-event costs).
pub const MAX_EXPANSION: u64 = 1 << 40;

/// Longest tandem-repeat period (in `(sym, count)` pairs) the builder
/// searches for per round. Longer loop bodies are still caught once
/// inner rounds have collapsed their repetitive interior.
const MAX_PERIOD: usize = 64;

/// Maximum grammar-build rounds. Each round can only nest rules one
/// level deeper, so this also bounds produced rule depth well below
/// [`MAX_RULE_DEPTH`].
const MAX_ROUNDS: usize = 12;

/// One `(symbol, repeat-count)` run in a rule body or the top sequence.
pub type Pair = (u64, u64);

/// Tracks the per-`(thread, array)` last element index so access events
/// can be delta-encoded (and decoded) symmetrically. The transform is
/// wrapping in both directions, so it is exact for any `i64` index.
#[derive(Debug, Default, Clone)]
pub struct DeltaState {
    last: FxHashMap<(u32, u32), i64>,
}

impl DeltaState {
    /// Moves the `(thread, array)` stream to element `i` and returns the
    /// delta from its previous position: the index the delta form of an
    /// access of `arr[i]` by thread `t` carries.
    pub(crate) fn delta(&mut self, t: u32, arr: u32, i: i64) -> i64 {
        let slot = self.last.entry((t, arr)).or_insert(0);
        let d = i.wrapping_sub(*slot);
        *slot = i;
        d
    }

    /// Rewrites a delta-form event back into absolute-index form.
    pub fn decode(&mut self, ev: &Event) -> Event {
        match ev {
            Event::Access {
                t,
                kind,
                loc: Loc::Elem(arr, d),
            } => {
                let slot = self.last.entry((t.0, arr.0)).or_insert(0);
                let i = slot.wrapping_add(*d);
                *slot = i;
                Event::Access {
                    t: *t,
                    kind: *kind,
                    loc: Loc::Elem(*arr, i),
                }
            }
            _ => ev.clone(),
        }
    }

    /// Advances the `(thread, array)` stream position by `delta` without
    /// materializing events — used by the memoized compressed-replay
    /// walker when it skips whole rule repetitions.
    pub fn advance(&mut self, t: u32, arr: u32, delta: i64) {
        let slot = self.last.entry((t, arr)).or_insert(0);
        *slot = slot.wrapping_add(delta);
    }
}

/// A parsed, fully validated compressed trace.
///
/// Invariants established by [`read_compressed`] (and by construction in
/// the writer): every symbol reference points at a dictionary entry or
/// an earlier rule; every count is ≥ 1; the expansion totals
/// [`CompressedTrace::total_events`] ≤ [`MAX_EXPANSION`]; rule nesting
/// is ≤ [`MAX_RULE_DEPTH`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedTrace {
    /// Distinct delta-form events, indexed by symbol id.
    pub dict: Vec<Event>,
    /// Grammar rules; rule `i` is symbol `dict.len() + i`.
    pub rules: Vec<Vec<Pair>>,
    /// The top-level run sequence.
    pub top: Vec<Pair>,
    /// Total number of events the container expands to.
    pub total_events: u64,
}

impl CompressedTrace {
    /// True if `sym` names a rule (as opposed to a dictionary entry).
    pub fn is_rule(&self, sym: u64) -> bool {
        sym >= self.dict.len() as u64
    }

    /// The body of rule symbol `sym` (panics if `sym` is a terminal).
    pub fn rule_body(&self, sym: u64) -> &[Pair] {
        &self.rules[(sym - self.dict.len() as u64) as usize]
    }
}

// ---------------- grammar builder ----------------

/// Appends `(sym, count)` to `out`, merging with the previous pair when
/// it carries the same symbol (`(s,a)(s,b)` expands identically to
/// `(s,a+b)`).
fn push_run(out: &mut Vec<Pair>, sym: u64, count: u64) {
    if let Some(last) = out.last_mut() {
        if last.0 == sym {
            last.1 += count;
            return;
        }
    }
    out.push((sym, count));
}

/// One tandem-repeat collapse round: scans `pairs` left to right, finds
/// the smallest period `p ≤ period_cap` repeating at least twice,
/// extracts the block as a rule (deduplicated through `body_index`) and
/// replaces the whole run with a single `(rule, k)` pair.
///
/// Only periods whose first pair matches can repeat, so the candidates
/// for position `i` are the distances to the later occurrences of its
/// symbol, walked nearest first through a `next` chain built in one
/// backward pass. The whole block is compared only for those.
fn tandem_round(
    pairs: &[Pair],
    rules: &mut Vec<Vec<Pair>>,
    body_index: &mut HashMap<Vec<Pair>, u64>,
    dict_len: u64,
    period_cap: usize,
) -> Vec<Pair> {
    let n = pairs.len();
    // next[i]: the next position holding the symbol of position i, or n.
    let mut last = vec![n; dict_len as usize + rules.len()];
    let mut next = vec![n; n];
    for (i, &(sym, _)) in pairs.iter().enumerate().rev() {
        next[i] = std::mem::replace(&mut last[sym as usize], i);
    }
    let mut out = Vec::with_capacity(n / 2 + 1);
    let mut i = 0;
    while i < n {
        let max_p = period_cap.min((n - i) / 2);
        let mut found = None;
        let mut j = next[i];
        while j - i <= max_p {
            let p = j - i;
            if p >= 2 && pairs[j] == pairs[i] && pairs[i + 1..j] == pairs[j + 1..j + p] {
                found = Some(p);
                break;
            }
            j = next[j];
        }
        let Some(p) = found else {
            push_run(&mut out, pairs[i].0, pairs[i].1);
            i += 1;
            continue;
        };
        let body = &pairs[i..i + p];
        let mut k = 2;
        while i + (k + 1) * p <= n && pairs[i + k * p..i + (k + 1) * p] == *body {
            k += 1;
        }
        let sym = match body_index.get(body) {
            Some(&sym) => sym,
            None => {
                let sym = dict_len + rules.len() as u64;
                rules.push(body.to_vec());
                body_index.insert(body.to_vec(), sym);
                sym
            }
        };
        push_run(&mut out, sym, k as u64);
        i += k * p;
    }
    out
}

/// Runs tandem rounds over the RLE-collapsed symbol sequence `pairs`
/// until fixpoint; returns the rules and the top-level sequence.
///
/// The period cap grows 2, 4, 8, … per round so tight inner repeats
/// collapse before longer periods are considered — a greedy
/// left-to-right scan would otherwise capture a misaligned outer block
/// (e.g. `C(AB)^8` instead of `(AB)^8 C`) and freeze the interior
/// uncompressed.
fn build_grammar(mut pairs: Vec<Pair>, dict_len: u64) -> (Vec<Vec<Pair>>, Vec<Pair>) {
    let mut rules: Vec<Vec<Pair>> = Vec::new();
    let mut body_index: HashMap<Vec<Pair>, u64> = HashMap::new();
    let mut period_cap = 2usize;
    for _ in 0..MAX_ROUNDS {
        let before = pairs.len();
        pairs = tandem_round(&pairs, &mut rules, &mut body_index, dict_len, period_cap);
        if pairs.len() == before && period_cap >= MAX_PERIOD {
            break;
        }
        period_cap = (period_cap * 2).min(MAX_PERIOD);
    }
    (rules, pairs)
}

// ---------------- writer ----------------

/// An [`EventSink`] that tokenizes the stream on the fly and emits a
/// `BFTC` container from [`CompressedTraceWriter::into_bytes`].
///
/// Drop-in compatible with [`TraceWriter`](super::TraceWriter): record
/// through it, then feed the bytes to `replay_compressed` (or
/// [`decompress`] them back into an exact `BFTR` stream).
#[derive(Debug, Default)]
pub struct CompressedTraceWriter {
    delta: DeltaState,
    /// The container's dictionary section: the encoding of each distinct
    /// delta-form event, in first-seen order.
    dict_bytes: Vec<u8>,
    /// Each dictionary entry's encoding and symbol. The keys are event
    /// encodings, which may come from a trace file, so the map keeps the
    /// standard library's keyed hasher: it spreads byte keys and resists
    /// crafted collisions. `FxHasher` put fop's 81,937 keys into 223 of
    /// 131,072 buckets (see `bigfoot_obs::fx`).
    dict_index: HashMap<Vec<u8>, u64>,
    /// The symbol stream, RLE-collapsed as it arrives.
    pairs: Vec<Pair>,
    scratch: Vec<u8>,
    events: u64,
    raw_bytes: u64,
}

impl CompressedTraceWriter {
    /// Creates an empty writer.
    pub fn new() -> CompressedTraceWriter {
        CompressedTraceWriter::default()
    }

    /// Number of events recorded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// True if no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Bytes the equivalent *uncompressed* `BFTR` payload would occupy
    /// (used for ratio reporting).
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// Interns the delta-form event encoded in `scratch`, whose `BFTR`
    /// form takes `raw_len` bytes, and appends its symbol to the pairs.
    #[inline]
    fn intern(&mut self, raw_len: usize) {
        self.events += 1;
        self.raw_bytes += raw_len as u64;
        let sym = match self.dict_index.get(self.scratch.as_slice()) {
            Some(&sym) => sym,
            None => {
                let sym = self.dict_index.len() as u64;
                self.dict_bytes.extend_from_slice(&self.scratch);
                self.dict_index.insert(self.scratch.clone(), sym);
                sym
            }
        };
        push_run(&mut self.pairs, sym, 1);
    }

    /// Builds the grammar and serializes the container, flushing the
    /// `trace.*` compression counters.
    pub fn into_bytes(self) -> Vec<u8> {
        let dict_len = self.dict_index.len() as u64;
        // The index is done with; free it before the grammar build.
        drop(self.dict_index);
        let (rules, pairs) = build_grammar(self.pairs, dict_len);

        let mut buf = Vec::with_capacity(64 + self.dict_bytes.len() + pairs.len() * 4);
        buf.extend_from_slice(&COMPRESSED_MAGIC);
        buf.push(COMPRESSED_VERSION);
        put_u64(&mut buf, dict_len);
        buf.extend_from_slice(&self.dict_bytes);
        put_u64(&mut buf, rules.len() as u64);
        let mut rule_hits = 0u64;
        let put_pairs = |buf: &mut Vec<u8>, body: &[Pair], hits: &mut u64| {
            put_u64(buf, body.len() as u64);
            for &(sym, count) in body {
                if sym >= dict_len {
                    *hits += count;
                }
                put_u64(buf, sym);
                put_u64(buf, count);
            }
        };
        for rule in &rules {
            put_pairs(&mut buf, rule, &mut rule_hits);
        }
        put_pairs(&mut buf, &pairs, &mut rule_hits);
        put_u64(&mut buf, self.events);

        let payload = (buf.len() - COMPRESSED_MAGIC.len() - 1) as u64;
        bigfoot_obs::count_named("trace.compressed_bytes", payload);
        bigfoot_obs::count_named("trace.dict_entries", dict_len);
        bigfoot_obs::count_named("trace.rules", rules.len() as u64);
        bigfoot_obs::count_named("trace.rule_hits", rule_hits);
        // Permille so sub-10x ratios survive integer truncation.
        if let Some(ratio) = self.raw_bytes.saturating_mul(1000).checked_div(payload) {
            bigfoot_obs::gauge_max_named("trace.compression_ratio_x1000", ratio);
            bigfoot_obs::trace_counter!("trace.compression_ratio_x1000", ratio);
        }
        bigfoot_obs::trace_counter!("trace.compressed_bytes", payload);
        bigfoot_obs::trace_counter!("trace.dict_entries", dict_len);
        bigfoot_obs::trace_counter!("trace.rules", rules.len() as u64);
        buf
    }
}

impl EventSink for CompressedTraceWriter {
    fn event(&mut self, ev: &Event) {
        if let Event::Access { t, kind, loc } = *ev {
            return self.access(t, kind, loc);
        }
        // Only element accesses have a delta form that differs.
        self.scratch.clear();
        encode_event(&mut self.scratch, ev);
        self.intern(self.scratch.len());
    }

    #[inline]
    fn access(&mut self, t: Tid, kind: AccessKind, loc: Loc) {
        self.scratch.clear();
        let raw_len = match loc {
            Loc::Field(..) => {
                encode_access(&mut self.scratch, t, kind, loc);
                self.scratch.len()
            }
            Loc::Elem(arr, i) => {
                // The raw form differs from the delta form only in the
                // index, so its size follows without a second encoding.
                let d = self.delta.delta(t.0, arr.0, i);
                encode_access(&mut self.scratch, t, kind, Loc::Elem(arr, d));
                self.scratch.len() - i64_len(d) + i64_len(i)
            }
        };
        self.intern(raw_len);
    }

    #[inline]
    fn check(&mut self, t: Tid, paths: &[(AccessKind, CheckRef<'_>)]) {
        self.scratch.clear();
        encode_check(&mut self.scratch, t, paths);
        self.intern(self.scratch.len());
    }
}

// ---------------- decoder ----------------

/// True if `bytes` starts with the compressed-container magic. Used to
/// auto-detect `BFTR` vs `BFTC` inputs by sniffing, e.g. on `bfc replay`.
pub fn is_compressed(bytes: &[u8]) -> bool {
    bytes.len() >= COMPRESSED_MAGIC.len() && bytes[..COMPRESSED_MAGIC.len()] == COMPRESSED_MAGIC
}

/// Validates the container header and returns the offset just past it.
pub fn read_compressed_header(bytes: &[u8]) -> Result<usize, TraceError> {
    if bytes.len() < COMPRESSED_MAGIC.len() + 1 || !is_compressed(bytes) {
        return Err(TraceError::BadMagic);
    }
    let version = bytes[COMPRESSED_MAGIC.len()];
    if version != COMPRESSED_VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    Ok(COMPRESSED_MAGIC.len() + 1)
}

/// Reads one `(npairs, pair*)` body, validating counts and symbol
/// references against the symbols defined so far.
fn read_body(
    bytes: &[u8],
    pos: &mut usize,
    rule: u64,
    defined_syms: u64,
) -> Result<Vec<Pair>, TraceError> {
    let n = get_u64(bytes, pos)? as usize;
    // Length words are untrusted: cap pre-allocation at what the
    // remaining bytes could possibly hold (≥ 2 bytes per pair).
    let mut body = Vec::with_capacity(n.min(bytes.len().saturating_sub(*pos) / 2 + 1));
    for _ in 0..n {
        let sym = get_u64(bytes, pos)?;
        let count = get_u64(bytes, pos)?;
        if sym >= defined_syms {
            return Err(TraceError::BadRuleRef { rule, sym });
        }
        if count == 0 {
            return Err(TraceError::BadCount { rule });
        }
        body.push((sym, count));
    }
    Ok(body)
}

/// Parses and fully validates a `BFTC` container.
///
/// Guarantees on success: acyclic rules (references strictly precede
/// definitions), counts ≥ 1, nesting depth ≤ [`MAX_RULE_DEPTH`],
/// expansion size = `total_events` ≤ [`MAX_EXPANSION`], and no trailing
/// bytes. Corrupt input gets a typed [`TraceError`], never a panic or
/// unbounded allocation.
pub fn read_compressed(bytes: &[u8]) -> Result<CompressedTrace, TraceError> {
    let mut pos = read_compressed_header(bytes)?;

    let dict_len = get_u64(bytes, &mut pos)? as usize;
    let mut dict = Vec::with_capacity(dict_len.min(bytes.len().saturating_sub(pos) + 1));
    for _ in 0..dict_len {
        match read_event(bytes, &mut pos)? {
            Some(ev) => dict.push(ev),
            None => return Err(TraceError::Truncated { offset: pos }),
        }
    }

    let rule_count = get_u64(bytes, &mut pos)? as usize;
    let mut rules = Vec::with_capacity(rule_count.min(bytes.len().saturating_sub(pos) + 1));
    // sizes[sym] / depth[sym] for every defined symbol; terminals are
    // size 1, depth 0.
    let mut sizes: Vec<u64> = vec![1; dict.len()];
    let mut depths: Vec<u32> = vec![0; dict.len()];
    let expand_of = |body: &[Pair], rule: u64, sizes: &[u64], depths: &[u32]| {
        let mut size: u128 = 0;
        let mut depth: u32 = 0;
        for &(sym, count) in body {
            size += sizes[sym as usize] as u128 * count as u128;
            depth = depth.max(depths[sym as usize] + 1);
            if size > MAX_EXPANSION as u128 {
                return Err(TraceError::OversizedExpansion {
                    claimed: size.min(u64::MAX as u128) as u64,
                });
            }
        }
        if depth > MAX_RULE_DEPTH {
            return Err(TraceError::RuleTooDeep { rule });
        }
        Ok((size as u64, depth))
    };
    for i in 0..rule_count {
        let rule = i as u64;
        let body = read_body(bytes, &mut pos, rule, (dict.len() + i) as u64)?;
        let (size, depth) = expand_of(&body, rule, &sizes, &depths)?;
        sizes.push(size);
        depths.push(depth);
        rules.push(body);
    }

    let top = read_body(bytes, &mut pos, u64::MAX, (dict.len() + rules.len()) as u64)?;
    let (actual, _) = expand_of(&top, u64::MAX, &sizes, &depths)?;

    let claimed = get_u64(bytes, &mut pos)?;
    if claimed != actual {
        return Err(TraceError::ExpansionMismatch { claimed, actual });
    }
    if pos != bytes.len() {
        return Err(TraceError::TrailingBytes { offset: pos });
    }
    Ok(CompressedTrace {
        dict,
        rules,
        top,
        total_events: actual,
    })
}

/// Replays a compressed container into any [`EventSink`], undoing the
/// delta transform. Returns the number of events emitted.
pub fn decompress_to<S: EventSink>(bytes: &[u8], sink: &mut S) -> Result<u64, TraceError> {
    let ct = read_compressed(bytes)?;
    let mut delta = DeltaState::default();
    let mut emitted = 0u64;
    for &(sym, count) in &ct.top {
        expand(&ct, sym, count, &mut delta, sink, &mut emitted);
    }
    debug_assert_eq!(emitted, ct.total_events);
    Ok(emitted)
}

/// Expands one `(sym, count)` run into `sink`. Recursion depth is the
/// rule nesting depth, ≤ [`MAX_RULE_DEPTH`] by validation.
fn expand<S: EventSink>(
    ct: &CompressedTrace,
    sym: u64,
    count: u64,
    delta: &mut DeltaState,
    sink: &mut S,
    emitted: &mut u64,
) {
    if ct.is_rule(sym) {
        for _ in 0..count {
            for &(s, c) in ct.rule_body(sym) {
                expand(ct, s, c, delta, sink, emitted);
            }
        }
    } else {
        let template = &ct.dict[sym as usize];
        for _ in 0..count {
            let ev = delta.decode(template);
            sink.event(&ev);
            *emitted += 1;
        }
    }
}

/// Compresses a raw `BFTR` trace into a `BFTC` container.
pub fn compress(raw: &[u8]) -> Result<Vec<u8>, TraceError> {
    if is_compressed(raw) {
        // A BFTC container is not a BFTR stream; make the misuse a typed
        // error instead of a confusing BadMagic from the BFTR header.
        return Err(TraceError::BadMagic);
    }
    let mut pos = read_header(raw)?;
    let mut w = CompressedTraceWriter::new();
    while let Some(ev) = read_event(raw, &mut pos)? {
        w.event(&ev);
    }
    Ok(w.into_bytes())
}

/// Decompresses a `BFTC` container back into an exact `BFTR` byte
/// stream (`decompress(compress(raw)) == raw` for any valid trace).
pub fn decompress(bytes: &[u8]) -> Result<Vec<u8>, TraceError> {
    struct Raw {
        buf: Vec<u8>,
    }
    impl EventSink for Raw {
        fn event(&mut self, ev: &Event) {
            encode_event(&mut self.buf, ev);
        }
    }
    let mut out = Raw {
        buf: Vec::with_capacity(bytes.len() * 2),
    };
    out.buf.extend_from_slice(&TRACE_MAGIC);
    out.buf.push(TRACE_VERSION);
    decompress_to(bytes, &mut out)?;
    Ok(out.buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArrId, CheckTarget, ConcreteRange, ObjId, RecordingSink};
    use crate::sched::Rng;
    use crate::trace::TraceWriter;
    use crate::{parse_program, Interp, SchedPolicy};
    use std::hash::BuildHasher;

    fn record(src: &str) -> (Vec<u8>, Vec<Event>) {
        let p = parse_program(src).expect("parse");
        let mut w = TraceWriter::new();
        Interp::new(&p, SchedPolicy::default())
            .run(&mut w)
            .expect("run");
        let bytes = w.into_bytes();
        let p2 = parse_program(src).expect("parse");
        let mut rec = RecordingSink::default();
        Interp::new(&p2, SchedPolicy::default())
            .run(&mut rec)
            .expect("run");
        (bytes, rec.events)
    }

    const LOOPY: &str = "main {
        a = new_array(64);
        b = new_array(64);
        for (i = 0; i < 64; i = i + 1) { a[i] = i; b[i] = i; }
        s = 0;
        for (i = 0; i < 64; i = i + 1) { s = s + a[i] + b[i]; }
    }";

    #[test]
    fn roundtrip_is_byte_exact() {
        let (raw, events) = record(LOOPY);
        let compressed = compress(&raw).expect("compress");
        assert_eq!(decompress(&compressed).expect("decompress"), raw);
        let mut rec = RecordingSink::default();
        let n = decompress_to(&compressed, &mut rec).expect("decompress_to");
        assert_eq!(rec.events, events);
        assert_eq!(n, events.len() as u64);
    }

    #[test]
    fn loopy_traces_shrink() {
        let (raw, _) = record(LOOPY);
        let compressed = compress(&raw).expect("compress");
        assert!(
            compressed.len() * 4 < raw.len(),
            "expected ≥4x shrink, got {} -> {}",
            raw.len(),
            compressed.len()
        );
        let ct = read_compressed(&compressed).expect("parse");
        assert!(!ct.rules.is_empty(), "loop body should become a rule");
    }

    #[test]
    fn empty_trace_roundtrips() {
        let raw = TraceWriter::new().into_bytes();
        let compressed = compress(&raw).expect("compress");
        let ct = read_compressed(&compressed).expect("parse");
        assert_eq!(ct.total_events, 0);
        assert_eq!(decompress(&compressed).expect("decompress"), raw);
    }

    #[test]
    fn compressing_a_container_is_rejected() {
        let raw = TraceWriter::new().into_bytes();
        let compressed = compress(&raw).expect("compress");
        assert_eq!(compress(&compressed), Err(TraceError::BadMagic));
        // And the reverse misuse: decompressing a raw trace.
        assert_eq!(decompress(&raw), Err(TraceError::BadMagic));
    }

    #[test]
    fn delta_state_is_symmetric() {
        let evs = vec![
            Event::Access {
                t: Tid(0),
                kind: AccessKind::Write,
                loc: Loc::Elem(ArrId(3), 10),
            },
            Event::Access {
                t: Tid(0),
                kind: AccessKind::Write,
                loc: Loc::Elem(ArrId(3), 11),
            },
            Event::Access {
                t: Tid(1),
                kind: AccessKind::Read,
                loc: Loc::Elem(ArrId(3), -5),
            },
            Event::Access {
                t: Tid(0),
                kind: AccessKind::Write,
                loc: Loc::Elem(ArrId(4), i64::MAX),
            },
            Event::Access {
                t: Tid(0),
                kind: AccessKind::Write,
                loc: Loc::Elem(ArrId(4), i64::MIN),
            },
            Event::Acquire {
                t: Tid(0),
                lock: ObjId(1),
            },
        ];
        let mut enc = DeltaState::default();
        let mut dec = DeltaState::default();
        for ev in &evs {
            let d = match *ev {
                Event::Access {
                    t,
                    kind,
                    loc: Loc::Elem(arr, i),
                } => Event::Access {
                    t,
                    kind,
                    loc: Loc::Elem(arr, enc.delta(t.0, arr.0, i)),
                },
                ref other => other.clone(),
            };
            assert_eq!(&dec.decode(&d), ev);
        }
    }

    fn rle(tokens: &[u64]) -> Vec<Pair> {
        let mut pairs = Vec::new();
        for &t in tokens {
            push_run(&mut pairs, t, 1);
        }
        pairs
    }

    #[test]
    fn tandem_rounds_collapse_nested_loops() {
        // Tokens: (AB)^8 C, repeated 5 times — two nesting levels.
        let mut tokens = Vec::new();
        for _ in 0..5 {
            for _ in 0..8 {
                tokens.push(0u64);
                tokens.push(1u64);
            }
            tokens.push(2u64);
        }
        let (rules, pairs) = build_grammar(rle(&tokens), 3);
        assert!(pairs.len() <= 2, "outer loop should collapse: {pairs:?}");
        assert!(rules.len() >= 2, "need nested rules: {rules:?}");
    }

    /// The grammar builder with every candidate period compared in full:
    /// the definition `tandem_round`'s chained first-pair scan must match.
    fn reference_grammar(mut pairs: Vec<Pair>, dict_len: u64) -> (Vec<Vec<Pair>>, Vec<Pair>) {
        let mut rules: Vec<Vec<Pair>> = Vec::new();
        let mut index: HashMap<Vec<Pair>, u64> = HashMap::new();
        let mut cap = 2usize;
        for _ in 0..MAX_ROUNDS {
            let n = pairs.len();
            let mut out = Vec::new();
            let mut i = 0;
            while i < n {
                let max_p = cap.min((n - i) / 2);
                match (2..=max_p).find(|&p| pairs[i..i + p] == pairs[i + p..i + 2 * p]) {
                    None => {
                        push_run(&mut out, pairs[i].0, pairs[i].1);
                        i += 1;
                    }
                    Some(p) => {
                        let body = pairs[i..i + p].to_vec();
                        let mut k = 2;
                        while i + (k + 1) * p <= n && pairs[i + k * p..i + (k + 1) * p] == body {
                            k += 1;
                        }
                        let sym = *index.entry(body.clone()).or_insert_with(|| {
                            rules.push(body);
                            dict_len + rules.len() as u64 - 1
                        });
                        push_run(&mut out, sym, k as u64);
                        i += k * p;
                    }
                }
            }
            let before = pairs.len();
            pairs = out;
            if pairs.len() == before && cap >= MAX_PERIOD {
                break;
            }
            cap = (cap * 2).min(MAX_PERIOD);
        }
        (rules, pairs)
    }

    /// Appends a random loop nest over symbols `0..alphabet` to `out`.
    fn loop_nest(rng: &mut Rng, depth: u32, alphabet: u64, out: &mut Vec<u64>) {
        for _ in 0..1 + rng.below(4) {
            if depth == 0 || rng.below(3) == 0 {
                out.push(rng.below(alphabet));
            } else {
                let mut body = Vec::new();
                loop_nest(rng, depth - 1, alphabet, &mut body);
                for _ in 0..1 + rng.below(9) {
                    out.extend_from_slice(&body);
                }
            }
        }
    }

    #[test]
    fn chained_scan_builds_the_reference_grammar() {
        let mut rng = Rng::new(0x7A4D);
        for case in 0..400 {
            let alphabet = 2 + rng.below(12);
            let mut tokens = Vec::new();
            while tokens.len() < 200 + case {
                loop_nest(&mut rng, 4, alphabet, &mut tokens);
            }
            let pairs = rle(&tokens);
            assert_eq!(
                build_grammar(pairs.clone(), alphabet),
                reference_grammar(pairs, alphabet),
                "case {case}: {tokens:?}"
            );
        }
    }

    #[test]
    fn dictionary_hash_spreads_check_encodings() {
        // Single-path field checks on 60,000 objects, the shape of fop's
        // dictionary. The object id sits in the high bytes of the first
        // 8-byte word, where plain `FxHasher` leaves the low bits blind:
        // it put fop's 81,937 keys into 223 of 131,072 buckets.
        let keys = 60_000u32;
        let mask = u64::from(keys).next_power_of_two() - 1;
        let writer = CompressedTraceWriter::new();
        let build = writer.dict_index.hasher();
        let mut buckets = std::collections::HashSet::new();
        let mut key = Vec::new();
        for o in 0..keys {
            key.clear();
            encode_event(
                &mut key,
                &Event::Check {
                    t: Tid(1 + o % 3),
                    paths: vec![(
                        AccessKind::Write,
                        CheckTarget::Fields(ObjId(1000 + o), vec![0, 2]),
                    )],
                },
            );
            buckets.insert(build.hash_one(key.as_slice()) & mask);
        }
        assert!(
            buckets.len() * 2 >= keys as usize,
            "{keys} keys fell into {} of {} low-bit buckets",
            buckets.len(),
            mask + 1
        );
    }

    #[test]
    fn typed_hooks_write_the_event_container() {
        // The executors record through `access`/`check`; `compress` feeds
        // owned events through `event`. Both must write the same bytes,
        // in either container.
        let paths = [
            (AccessKind::Read, CheckRef::Fields(ObjId(9), &[0, 3][..])),
            (
                AccessKind::Write,
                CheckRef::Range(ArrId(2), ConcreteRange::contiguous(-4, 70)),
            ),
        ];
        let mut hooks = CompressedTraceWriter::new();
        let mut events = CompressedTraceWriter::new();
        let mut raw_hooks = TraceWriter::new();
        let mut raw = TraceWriter::new();
        for i in [0i64, 1, 2, 300, -7, i64::MIN, i64::MAX, 5] {
            for t in [Tid(0), Tid(1)] {
                let loc = Loc::Elem(ArrId(2), i);
                hooks.access(t, AccessKind::Write, loc);
                hooks.check(t, &paths);
                raw_hooks.access(t, AccessKind::Write, loc);
                raw_hooks.check(t, &paths);
                for ev in [
                    Event::Access {
                        t,
                        kind: AccessKind::Write,
                        loc,
                    },
                    Event::Check {
                        t,
                        paths: paths.iter().map(|&(k, p)| (k, p.to_target())).collect(),
                    },
                ] {
                    events.event(&ev);
                    raw.event(&ev);
                }
            }
        }
        assert_eq!(hooks.raw_bytes(), raw.bytes_written());
        let raw = raw.into_bytes();
        assert_eq!(raw_hooks.into_bytes(), raw);
        let container = hooks.into_bytes();
        assert_eq!(container, events.into_bytes());
        assert_eq!(compress(&raw), Ok(container));
    }
}
