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
//! few hundred buckets. The dictionary keeps no key of its own: each
//! entry is a range of the container's dictionary section, found through
//! its hash, so a new entry allocates nothing. The symbol is RLE-merged
//! into the pair list as it arrives. A tandem round needs
//! `pairs[i + p] == pairs[i]` for a period
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
//! construction.
//!
//! Reading a container builds no owned [`Event`]. [`read_grammar`] keeps
//! the dictionary as the container's bytes: a [`Grammar`] holds where
//! each entry ends, the rule bodies, and each rule's expansion size and
//! nesting depth. Each use of an entry decodes it through the one typed
//! [`Decoder`] into a sink ([`Grammar::decode_entry`]), and [`Absolute`]
//! restores an element access's index on the way. The top-level sequence
//! is not stored: [`Grammar::walk_top`] reads it from the bytes and hands
//! on each pair as it is read. Counts, symbol references, expansion size
//! and nesting depth are validated as each part is read, with the same
//! errors in the same order whoever reads it. [`read_compressed`] runs the
//! whole validation up front, so expansion ([`decompress_to`]) cannot run
//! away on crafted input.
//!
//! Compressed detection in `bigfoot-detectors` walks this grammar
//! directly (summing count-only symbols, memoizing pure rules) instead
//! of expanding it; the byte-stream round trip ([`compress`] /
//! [`decompress`]) is pinned exact by tests and the fuzz oracle.

use super::{
    decode_into, encode_access, encode_check, encode_event, get_u64, i64_len, put_u64, Decoder,
    TraceError, TRACE_MAGIC, TRACE_VERSION,
};
use crate::event::{CheckRef, Event, EventSink, Loc, NullSink};
use bigfoot_obs::fx::FxHashMap;
use bigfoot_vc::{AccessKind, Tid};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::BuildHasher;

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

    /// Advances the `(thread, array)` stream position by `delta` and
    /// returns the new position. For the delta form of an access of
    /// `arr[i]` by thread `t` that position is `i`, the absolute index;
    /// the memoized compressed-replay walker also advances a stream by a
    /// whole skipped run at once.
    #[inline]
    pub fn advance(&mut self, t: u32, arr: u32, delta: i64) -> i64 {
        let slot = self.last.entry((t, arr)).or_insert(0);
        *slot = slot.wrapping_add(delta);
        *slot
    }
}

/// The dictionary and rules of a container, over its bytes: everything a
/// walk needs before the top-level sequence, which [`Grammar::walk_top`]
/// reads from the bytes.
///
/// Invariants established by [`read_grammar`]: every dictionary entry
/// decodes; every rule references only dictionary entries and earlier
/// rules, with counts ≥ 1, an expansion ≤ [`MAX_EXPANSION`] and nesting
/// ≤ [`MAX_RULE_DEPTH`]. A dictionary entry is kept as its byte range, so
/// the grammar holds no owned [`Event`]: each use decodes the entry
/// through the one [`Decoder`] ([`Grammar::decode_entry`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grammar<'a> {
    bytes: &'a [u8],
    /// Where the first dictionary entry starts.
    dict_start: usize,
    /// Where each dictionary entry's encoding ends in `bytes`; entry `k`
    /// starts where entry `k - 1` ends.
    dict_ends: Vec<usize>,
    /// Every rule body, rule after rule.
    rule_pairs: Vec<Pair>,
    /// Per rule: where its body ends in `rule_pairs`, its expansion size
    /// and its nesting depth.
    rules: Vec<RuleInfo>,
    /// Where the top-level sequence starts (its pair count).
    top_at: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RuleInfo {
    end: usize,
    size: u64,
    depth: u32,
}

/// A parsed, fully validated compressed trace.
///
/// Invariants established by [`read_compressed`] (and by construction in
/// the writer): those of [`Grammar`], and a top-level sequence whose
/// symbols are defined, whose counts are ≥ 1 and whose expansion totals
/// [`CompressedTrace::total_events`] ≤ [`MAX_EXPANSION`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedTrace<'a> {
    /// The dictionary and the rules.
    pub grammar: Grammar<'a>,
    /// Total number of events the container expands to.
    pub total_events: u64,
}

impl<'a> Grammar<'a> {
    /// Number of dictionary entries: symbols `0..dict_len()`.
    pub fn dict_len(&self) -> usize {
        self.dict_ends.len()
    }

    /// Number of rules: rule `i` is symbol `dict_len() + i`.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// True if `sym` names a rule (as opposed to a dictionary entry).
    pub fn is_rule(&self, sym: u64) -> bool {
        sym >= self.dict_ends.len() as u64
    }

    /// The body of rule symbol `sym` (panics if `sym` is a terminal).
    pub fn rule_body(&self, sym: u64) -> &[Pair] {
        let i = (sym - self.dict_ends.len() as u64) as usize;
        let start = if i == 0 { 0 } else { self.rules[i - 1].end };
        &self.rule_pairs[start..self.rules[i].end]
    }

    /// Decodes dictionary entry `sym` into `sink` through `decoder`. An
    /// element access arrives in delta form; [`Absolute`] restores its
    /// index. Panics if `sym` is a rule.
    #[inline]
    pub fn decode_entry<S: EventSink>(&self, sym: u64, decoder: &mut Decoder, sink: &mut S) {
        let k = sym as usize;
        let mut pos = if k == 0 {
            self.dict_start
        } else {
            self.dict_ends[k - 1]
        };
        let decoded = decoder.decode_event(self.bytes, &mut pos, sink);
        // The entry decoded when the grammar was read, and decoding is a
        // function of the bytes.
        debug_assert_eq!((decoded, pos), (Ok(true), self.dict_ends[k]));
    }

    /// The expansion size and nesting depth of symbol `sym`.
    #[inline]
    fn extent(&self, sym: u64) -> (u64, u32) {
        match sym.checked_sub(self.dict_ends.len() as u64) {
            None => (1, 0),
            Some(i) => {
                let r = self.rules[i as usize];
                (r.size, r.depth)
            }
        }
    }

    /// Reads the top-level sequence from the bytes and hands each pair to
    /// `visit` as it is read: the one reader of the top-level sequence,
    /// behind [`read_compressed`], [`decompress_to`] and compressed replay.
    /// Returns the number of events the sequence expands to.
    ///
    /// Each pair gets the checks [`read_compressed`] applies: a defined
    /// symbol, a count ≥ 1, nesting ≤ [`MAX_RULE_DEPTH`] and a running
    /// expansion ≤ [`MAX_EXPANSION`]. After the last pair the claimed
    /// total must equal the expansion and no byte may follow. On an error
    /// `visit` has seen the pairs before it. A pair that fails the size or
    /// nesting check is not visited, but the error waits until the rest of
    /// the sequence is read, so that it is the one a whole-body validation
    /// finds.
    #[inline]
    pub fn walk_top(&self, mut visit: impl FnMut(u64, u64)) -> Result<u64, TraceError> {
        let bytes = self.bytes;
        let mut pos = self.top_at;
        let pairs = get_u64(bytes, &mut pos)?;
        let defined = (self.dict_len() + self.rule_count()) as u64;
        let mut expanded: u128 = 0;
        for read in 1..=pairs {
            let (sym, count) = read_pair(bytes, &mut pos, TOP, defined)?;
            let (size, depth) = self.extent(sym);
            let sized = add_expansion(&mut expanded, size, count).and_then(|()| {
                if depth >= MAX_RULE_DEPTH {
                    return Err(TraceError::RuleTooDeep { rule: TOP });
                }
                Ok(())
            });
            if let Err(err) = sized {
                return Err(self.rest_error(err, pos, pairs - read, expanded));
            }
            visit(sym, count);
        }
        let actual = expanded as u64;
        let claimed = get_u64(bytes, &mut pos)?;
        if claimed != actual {
            return Err(TraceError::ExpansionMismatch { claimed, actual });
        }
        if pos != bytes.len() {
            return Err(TraceError::TrailingBytes { offset: pos });
        }
        Ok(actual)
    }

    /// The error of a top-level sequence whose pair failed with `err`,
    /// with `left` pairs still to read at `pos`: a rule body is read whole
    /// before it is sized, so a malformed pair further on is the error
    /// instead, and so is an oversized expansion after a nesting error.
    #[cold]
    fn rest_error(
        &self,
        mut err: TraceError,
        mut pos: usize,
        left: u64,
        mut expanded: u128,
    ) -> TraceError {
        let defined = (self.dict_len() + self.rule_count()) as u64;
        for _ in 0..left {
            let (sym, count) = match read_pair(self.bytes, &mut pos, TOP, defined) {
                Ok(pair) => pair,
                Err(e) => return e,
            };
            if let TraceError::RuleTooDeep { .. } = err {
                if let Err(e) = add_expansion(&mut expanded, self.extent(sym).0, count) {
                    err = e;
                }
            }
        }
        err
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

/// `next[i]`: the next position after `i` holding the symbol of position
/// `i`, or `pairs.len()`; built in one backward pass.
fn next_chain(pairs: &[Pair], symbols: usize) -> Vec<usize> {
    let n = pairs.len();
    let mut last = vec![n; symbols];
    let mut next = vec![n; n];
    for (i, &(sym, _)) in pairs.iter().enumerate().rev() {
        next[i] = std::mem::replace(&mut last[sym as usize], i);
    }
    next
}

/// The smallest period `p` in `2..=max_p` with which the block starting
/// at `i` repeats right after itself. Only periods whose first pair
/// matches can repeat, so the candidates are the distances to the later
/// occurrences of `i`'s symbol, walked nearest first along `next`; the
/// whole block is compared only for those. `max_p` must be at most
/// `(pairs.len() - i) / 2`.
fn period_at(pairs: &[Pair], next: &[usize], i: usize, max_p: usize) -> Option<usize> {
    let mut j = next[i];
    while j - i <= max_p {
        let p = j - i;
        if p >= 2 && pairs[j] == pairs[i] && pairs[i + 1..j] == pairs[j + 1..j + p] {
            return Some(p);
        }
        j = next[j];
    }
    None
}

/// One tandem-repeat collapse round: scans `pairs` left to right, finds
/// the smallest period `p ≤ period_cap` repeating at least twice,
/// extracts the block as a rule (deduplicated through `body_index`) and
/// replaces the whole run with a single `(rule, k)` pair.
fn tandem_round(
    pairs: &[Pair],
    rules: &mut Vec<Vec<Pair>>,
    body_index: &mut HashMap<Vec<Pair>, u64>,
    dict_len: u64,
    period_cap: usize,
) -> Vec<Pair> {
    let n = pairs.len();
    let next = next_chain(pairs, dict_len as usize + rules.len());
    let mut out = Vec::with_capacity(n / 2 + 1);
    let mut i = 0;
    while i < n {
        let Some(p) = period_at(pairs, &next, i, period_cap.min((n - i) / 2)) else {
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

/// The smallest period up to [`MAX_PERIOD`] that repeats anywhere in
/// `pairs`, or `None`. Stops at the first period within `enough`, since
/// callers only need to know the answer beyond it.
fn smallest_period(pairs: &[Pair], symbols: usize, enough: usize) -> Option<usize> {
    let n = pairs.len();
    let next = next_chain(pairs, symbols);
    let mut best: Option<usize> = None;
    for i in 0..n {
        let max_p = best.map_or(MAX_PERIOD, |b| b - 1).min((n - i) / 2);
        if let Some(p) = period_at(pairs, &next, i, max_p) {
            if p <= enough {
                return Some(p);
            }
            best = Some(p);
        }
    }
    best
}

/// A grammar as the builder makes it.
struct BuiltGrammar {
    rules: Vec<Vec<Pair>>,
    /// The top-level sequence.
    top: Vec<Pair>,
    /// Tandem rounds run.
    rounds: usize,
}

/// Runs tandem rounds over the RLE-collapsed symbol sequence `pairs`
/// until fixpoint; returns the rules and the top-level sequence.
///
/// The period cap grows 2, 4, 8, … per round so tight inner repeats
/// collapse before longer periods are considered — a greedy
/// left-to-right scan would otherwise capture a misaligned outer block
/// (e.g. `C(AB)^8` instead of `(AB)^8 C`) and freeze the interior
/// uncompressed.
///
/// A round that collapses nothing leaves the sequence as it was, so the
/// rounds after it find nothing either until the cap reaches the
/// smallest period that repeats. One search for that period replaces
/// them: they count against [`MAX_ROUNDS`] but are not run, and when no
/// period up to [`MAX_PERIOD`] repeats, the build ends.
fn build_grammar(mut pairs: Vec<Pair>, dict_len: u64) -> BuiltGrammar {
    let mut rules: Vec<Vec<Pair>> = Vec::new();
    let mut body_index: HashMap<Vec<Pair>, u64> = HashMap::new();
    let mut period_cap = 2usize;
    let mut round = 0;
    let mut rounds = 0;
    while round < MAX_ROUNDS {
        round += 1;
        rounds += 1;
        let before = pairs.len();
        pairs = tandem_round(&pairs, &mut rules, &mut body_index, dict_len, period_cap);
        if pairs.len() == before {
            if period_cap >= MAX_PERIOD {
                break;
            }
            let symbols = dict_len as usize + rules.len();
            let Some(p) = smallest_period(&pairs, symbols, 2 * period_cap) else {
                break;
            };
            // Skip the idle rounds whose cap is still below `p`.
            period_cap *= 2;
            while period_cap < p {
                round += 1;
                period_cap *= 2;
            }
            period_cap = period_cap.min(MAX_PERIOD);
            continue;
        }
        period_cap = (period_cap * 2).min(MAX_PERIOD);
    }
    BuiltGrammar {
        rules,
        top: pairs,
        rounds,
    }
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
    /// Where each dictionary entry's encoding ends in `dict_bytes`; entry
    /// `k` is `dict_bytes[ends[k - 1]..ends[k]]`, so an entry costs no
    /// allocation of its own.
    ends: Vec<usize>,
    /// The keyed hash of event encodings. The encodings may come from a
    /// trace file, so this is the standard library's SipHash: it spreads
    /// byte keys and resists crafted collisions. `FxHasher` put fop's
    /// 81,937 keys into 223 of 131,072 buckets (see `bigfoot_obs::fx`).
    hasher: RandomState,
    /// Each dictionary entry's symbol, under its encoding's keyed hash.
    /// Two encodings with one hash take consecutive slots (see
    /// [`CompressedTraceWriter::intern`]). The slots are SipHash values,
    /// so the map's own hash, `FxHasher` on one word, keeps their spread.
    dict_index: FxHashMap<u64, u64>,
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
        let key = self.scratch.as_slice();
        // Probe from the key's hash; a slot holding another encoding (a
        // 64-bit hash collision) passes the probe on to the next slot.
        let mut slot = self.hasher.hash_one(key);
        let sym = loop {
            match self.dict_index.entry(slot) {
                Entry::Occupied(e) => {
                    let sym = *e.get() as usize;
                    let start = if sym == 0 { 0 } else { self.ends[sym - 1] };
                    if self.dict_bytes[start..self.ends[sym]] == *key {
                        break sym as u64;
                    }
                    slot = slot.wrapping_add(1);
                }
                Entry::Vacant(e) => {
                    let sym = self.ends.len() as u64;
                    self.dict_bytes.extend_from_slice(key);
                    self.ends.push(self.dict_bytes.len());
                    e.insert(sym);
                    break sym;
                }
            }
        };
        push_run(&mut self.pairs, sym, 1);
    }

    /// Builds the grammar and serializes the container, flushing the
    /// `trace.*` compression counters.
    pub fn into_bytes(self) -> Vec<u8> {
        let dict_len = self.ends.len() as u64;
        // The index is done with; free it before the grammar build.
        drop(self.dict_index);
        drop(self.ends);
        let BuiltGrammar {
            rules,
            top: pairs,
            rounds,
        } = build_grammar(self.pairs, dict_len);

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
        bigfoot_obs::count_named("trace.grammar_rounds", rounds as u64);
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

/// Reads one `(sym, count)` pair of rule `rule` (`u64::MAX` for the
/// top-level sequence), checking that the symbol is among the
/// `defined_syms` defined so far and that the count is at least 1.
#[inline(always)]
fn read_pair(
    bytes: &[u8],
    pos: &mut usize,
    rule: u64,
    defined_syms: u64,
) -> Result<Pair, TraceError> {
    let sym = get_u64(bytes, pos)?;
    let count = get_u64(bytes, pos)?;
    if sym >= defined_syms {
        return Err(TraceError::BadRuleRef { rule, sym });
    }
    if count == 0 {
        return Err(TraceError::BadCount { rule });
    }
    Ok((sym, count))
}

/// Adds `count` repetitions of a symbol of size `size` to the running
/// expansion `total`, which may not pass [`MAX_EXPANSION`].
#[inline(always)]
fn add_expansion(total: &mut u128, size: u64, count: u64) -> Result<(), TraceError> {
    *total += size as u128 * count as u128;
    if *total > MAX_EXPANSION as u128 {
        return Err(TraceError::OversizedExpansion {
            claimed: (*total).min(u64::MAX as u128) as u64,
        });
    }
    Ok(())
}

/// Parses and validates a container's dictionary and rules, handing each
/// dictionary entry, in delta form, to `dict_sink` as it is decoded.
/// The top-level sequence is left to [`Grammar::walk_top`], which
/// validates it as it reads it.
pub fn read_grammar<'a, S: EventSink>(
    bytes: &'a [u8],
    dict_sink: &mut S,
) -> Result<Grammar<'a>, TraceError> {
    let mut pos = read_compressed_header(bytes)?;

    let dict_len = get_u64(bytes, &mut pos)? as usize;
    let dict_start = pos;
    // Length words are untrusted: cap pre-allocation at what the
    // remaining bytes could possibly hold (≥ 1 byte per entry).
    let mut dict_ends = Vec::with_capacity(dict_len.min(bytes.len() - pos));
    let mut decoder = Decoder::default();
    for _ in 0..dict_len {
        if !decoder.decode_event(bytes, &mut pos, dict_sink)? {
            return Err(TraceError::Truncated { offset: pos });
        }
        dict_ends.push(pos);
    }

    let rule_count = get_u64(bytes, &mut pos)? as usize;
    let mut grammar = Grammar {
        bytes,
        dict_start,
        dict_ends,
        rule_pairs: Vec::new(),
        // ≥ 1 byte per rule.
        rules: Vec::with_capacity(rule_count.min(bytes.len() - pos)),
        top_at: 0,
    };
    for i in 0..rule_count {
        let rule = i as u64;
        let defined = (dict_len + i) as u64;
        let start = grammar.rule_pairs.len();
        let n = get_u64(bytes, &mut pos)?;
        for _ in 0..n {
            let pair = read_pair(bytes, &mut pos, rule, defined)?;
            grammar.rule_pairs.push(pair);
        }
        let mut size: u128 = 0;
        let mut depth: u32 = 0;
        for &(sym, count) in &grammar.rule_pairs[start..] {
            let (s, d) = grammar.extent(sym);
            add_expansion(&mut size, s, count)?;
            depth = depth.max(d + 1);
        }
        if depth > MAX_RULE_DEPTH {
            return Err(TraceError::RuleTooDeep { rule });
        }
        grammar.rules.push(RuleInfo {
            end: grammar.rule_pairs.len(),
            size: size as u64,
            depth,
        });
    }
    grammar.top_at = pos;
    Ok(grammar)
}

/// The rule number that errors give the top-level sequence.
const TOP: u64 = u64::MAX;

/// Parses and fully validates a `BFTC` container.
///
/// Guarantees on success: acyclic rules (references strictly precede
/// definitions), counts ≥ 1, nesting depth ≤ [`MAX_RULE_DEPTH`],
/// expansion size = `total_events` ≤ [`MAX_EXPANSION`], and no trailing
/// bytes. Corrupt input gets a typed [`TraceError`], never a panic or
/// unbounded allocation.
pub fn read_compressed(bytes: &[u8]) -> Result<CompressedTrace<'_>, TraceError> {
    let grammar = read_grammar(bytes, &mut NullSink)?;
    let total_events = grammar.walk_top(|_, _| {})?;
    Ok(CompressedTrace {
        grammar,
        total_events,
    })
}

/// An [`EventSink`] adapter that restores the absolute index of each
/// delta-form element access, tracking the streams in `delta`, and hands
/// every event on to `sink`: what a walk over a [`Grammar`] puts between
/// [`Grammar::decode_entry`] and the consumer of the expanded trace.
#[derive(Debug)]
pub struct Absolute<'s, S> {
    /// The per-`(thread, array)` stream positions.
    pub delta: &'s mut DeltaState,
    /// The consumer.
    pub sink: &'s mut S,
}

impl<S: EventSink> EventSink for Absolute<'_, S> {
    #[inline]
    fn event(&mut self, ev: &Event) {
        self.sink.event(ev);
    }

    #[inline]
    fn access(&mut self, t: Tid, kind: AccessKind, loc: Loc) {
        let loc = match loc {
            Loc::Elem(arr, d) => Loc::Elem(arr, self.delta.advance(t.0, arr.0, d)),
            field => field,
        };
        self.sink.access(t, kind, loc);
    }

    #[inline]
    fn check(&mut self, t: Tid, paths: &[(AccessKind, CheckRef<'_>)]) {
        self.sink.check(t, paths);
    }
}

/// Replays a compressed container into any [`EventSink`], undoing the
/// delta transform. Returns the number of events emitted. The container
/// is validated first, so on an error nothing reaches `sink`.
pub fn decompress_to<S: EventSink>(bytes: &[u8], sink: &mut S) -> Result<u64, TraceError> {
    let ct = read_compressed(bytes)?;
    let mut x = Expansion {
        grammar: &ct.grammar,
        decoder: Decoder::default(),
        delta: DeltaState::default(),
        emitted: 0,
    };
    // Validated above, so the pairs read again without an error.
    ct.grammar
        .walk_top(|sym, count| x.expand(sym, count, sink))?;
    debug_assert_eq!(x.emitted, ct.total_events);
    Ok(x.emitted)
}

/// The plain expansion of a grammar into a sink.
struct Expansion<'g, 'a> {
    grammar: &'g Grammar<'a>,
    decoder: Decoder,
    delta: DeltaState,
    emitted: u64,
}

impl Expansion<'_, '_> {
    /// Expands one `(sym, count)` run into `sink`. Recursion depth is the
    /// rule nesting depth, ≤ [`MAX_RULE_DEPTH`] by validation.
    fn expand<S: EventSink>(&mut self, sym: u64, count: u64, sink: &mut S) {
        let g = self.grammar;
        for _ in 0..count {
            if g.is_rule(sym) {
                for &(s, c) in g.rule_body(sym) {
                    self.expand(s, c, sink);
                }
            } else {
                let mut abs = Absolute {
                    delta: &mut self.delta,
                    sink,
                };
                g.decode_entry(sym, &mut self.decoder, &mut abs);
                self.emitted += 1;
            }
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
    let mut w = CompressedTraceWriter::new();
    decode_into(raw, &mut w)?;
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
        assert!(
            ct.grammar.rule_count() > 0,
            "loop body should become a rule"
        );
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
            if let Event::Access {
                t,
                loc: Loc::Elem(arr, i),
                ..
            } = *ev
            {
                let d = enc.delta(t.0, arr.0, i);
                assert_eq!(dec.advance(t.0, arr.0, d), i, "{ev:?}");
            }
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
        let g = build_grammar(rle(&tokens), 3);
        assert!(g.top.len() <= 2, "outer loop should collapse: {:?}", g.top);
        assert!(g.rules.len() >= 2, "need nested rules: {:?}", g.rules);
    }

    #[test]
    fn a_stream_without_repeats_takes_one_round() {
        // A square-free word over three symbols (the runs of ones
        // between the zeros of the Thue–Morse sequence): every symbol
        // recurs within a few positions, but no block repeats back to
        // back. The first round finds nothing, and no larger cap could,
        // so the build stops there instead of running the five idle
        // rounds that grow the cap to `MAX_PERIOD`.
        let mut tokens = Vec::new();
        let mut ones = 0u64;
        for i in 1u64.. {
            if i.count_ones() % 2 == 1 {
                ones += 1;
            } else {
                tokens.push(ones);
                ones = 0;
                if tokens.len() == 4000 {
                    break;
                }
            }
        }
        let pairs = rle(&tokens);
        assert_eq!(pairs.len(), tokens.len(), "no symbol repeats in place");
        let g = build_grammar(pairs.clone(), 3);
        assert_eq!(g.rounds, 1);
        assert!(g.rules.is_empty());
        assert_eq!(g.top, pairs);
        assert_eq!((g.rules, g.top), reference_grammar(pairs, 3));
    }

    #[test]
    fn idle_rounds_below_the_smallest_period_are_skipped() {
        // A block of 20 distinct symbols, repeated: rounds at caps 2, 4,
        // 8 and 16 find nothing; the round at cap 32 collapses it, and
        // one more round confirms the fixpoint.
        let tokens: Vec<u64> = (0..3).flat_map(|_| 0..20u64).collect();
        let pairs = rle(&tokens);
        let g = build_grammar(pairs.clone(), 20);
        assert_eq!(g.rounds, 3);
        assert_eq!(g.top, vec![(20, 3)]);
        assert_eq!((g.rules, g.top), reference_grammar(pairs, 20));
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
            let g = build_grammar(pairs.clone(), alphabet);
            assert_eq!(
                (g.rules, g.top),
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
        let build = &writer.hasher;
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
    fn a_hash_collision_probes_on_to_the_next_slot() {
        // Forge two encodings with one 64-bit hash: file `b`'s symbol
        // under `a`'s slot too. `a` must still get a symbol of its own,
        // found again past `b`, and `b` must stay itself.
        let a = Event::Release {
            t: Tid(0),
            lock: ObjId(1),
        };
        let b = Event::Acquire {
            t: Tid(0),
            lock: ObjId(1),
        };
        let mut w = CompressedTraceWriter::new();
        w.event(&b);
        let mut key = Vec::new();
        encode_event(&mut key, &a);
        let slot = w.hasher.hash_one(key.as_slice());
        w.dict_index.insert(slot, 0);
        for ev in [&a, &a, &b] {
            w.event(ev);
        }
        assert_eq!(w.pairs, vec![(0, 1), (1, 2), (0, 1)]);
        assert_eq!(w.dict_index.get(&slot.wrapping_add(1)), Some(&1));
        let mut raw = TraceWriter::new();
        for ev in [&b, &a, &a, &b] {
            raw.event(ev);
        }
        assert_eq!(decompress(&w.into_bytes()), Ok(raw.into_bytes()));
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
