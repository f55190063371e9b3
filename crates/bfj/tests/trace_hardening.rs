//! BFTR decode hardening: untrusted trace bytes must always produce a
//! typed [`TraceError`] or a clean end — never a panic, a hang, or an
//! attacker-chosen allocation.
//!
//! The recorded trace below covers every tag the writer can emit
//! (allocations, field/array accesses, checks with field sets *and*
//! strided ranges, volatiles, lock acquire/release, fork/join, thread
//! exit), then gets systematically damaged: truncated at every byte
//! boundary, mutated at every byte position, and spliced with
//! hand-crafted corrupt payloads (oversized LEB128 varints, unknown
//! tags, absurd claimed lengths). Every damaged trace goes through both
//! faces of the one decoder, the typed `decode_into` and the owned-event
//! `read_event`, which must agree.

use bigfoot_bfj::trace::{decode_into, read_event, read_header};
use bigfoot_bfj::{
    parse_program, Interp, RecordingSink, SchedPolicy, TraceError, TraceWriter, MAX_ARRAY_LEN,
    TRACE_MAGIC,
};

/// Records one run that exercises every event tag in the codec.
fn recorded_trace() -> Vec<u8> {
    let p = parse_program(
        "class C {
             field x; field y; volatile v;
             meth poke(l) {
                 acq(l);
                 this.x = 1;
                 this.v = 2;
                 w = this.v;
                 rel(l);
                 return w;
             }
         }
         main {
             c = new C; l = new C;
             a = new_array(8);
             check(w: c.x/y, r: a[0..8:2], r: a[3]);
             a[3] = 5;
             z = a[3];
             fork t = c.poke(l);
             join(t);
         }",
    )
    .expect("parse");
    let mut w = TraceWriter::new();
    Interp::new(&p, SchedPolicy::default())
        .run(&mut w)
        .expect("run");
    w.into_bytes()
}

/// Decodes every event in `bytes`, returning how many decoded before a
/// clean end (`Ok`) or a typed error (`Err`). Panics and hangs are the
/// failures this harness exists to rule out.
///
/// Both faces of the decoder run: the typed `decode_into` and the
/// owned-event `read_event` loop. They must hand over the same events and
/// end the same way — the same count, or the same error at the same
/// offset.
fn decode_all(bytes: &[u8]) -> Result<usize, TraceError> {
    let mut owned = Vec::new();
    let owned_end = (|| {
        let mut pos = read_header(bytes)?;
        while let Some(ev) = read_event(bytes, &mut pos)? {
            owned.push(ev);
        }
        Ok(owned.len())
    })();
    let mut typed = RecordingSink::default();
    let typed_end = decode_into(bytes, &mut typed).map(|n| n as usize);
    assert_eq!(typed_end, owned_end, "the two faces end differently");
    assert_eq!(typed.events, owned, "the two faces decode different events");
    owned_end
}

#[test]
fn intact_trace_decodes_completely() {
    let bytes = recorded_trace();
    let n = decode_all(&bytes).expect("intact trace");
    assert!(n > 10, "expected a rich trace, decoded only {n} events");
}

#[test]
fn every_truncation_errors_or_ends_cleanly() {
    let bytes = recorded_trace();
    for len in 0..bytes.len() {
        match decode_all(&bytes[..len]) {
            // A cut between events is indistinguishable from a shorter
            // trace — that is a clean end, not corruption.
            Ok(_) => {}
            Err(
                TraceError::BadMagic
                | TraceError::UnsupportedVersion(_)
                | TraceError::Truncated { .. }
                | TraceError::BadTag { .. }
                | TraceError::InvalidStride { .. },
            ) => {}
            // Container-level errors belong to the BFTC decoder; the
            // raw event codec must never produce them.
            Err(e) => panic!("raw decode produced a container error: {e:?}"),
        }
    }
}

#[test]
fn every_single_byte_mutation_decodes_or_errors() {
    let bytes = recorded_trace();
    for pos in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0xff] {
            let mut bad = bytes.clone();
            bad[pos] ^= mask;
            // Either outcome is fine; what must not happen is a panic,
            // an unbounded loop, or an unbounded allocation.
            let _ = decode_all(&bad);
        }
    }
}

/// Mutated bytes that still decode must survive the codec round-trip:
/// re-encoding the decoded events yields a trace that decodes to the
/// same events again. This is the fuzz crate's round-trip oracle applied
/// to byte-level damage instead of generated programs.
#[test]
fn mutations_that_still_decode_round_trip() {
    use bigfoot_bfj::{Event, EventSink};
    let bytes = recorded_trace();
    let decode_events = |bytes: &[u8]| -> Result<Vec<Event>, TraceError> {
        let mut pos = read_header(bytes)?;
        let mut evs = Vec::new();
        while let Some(ev) = read_event(bytes, &mut pos)? {
            evs.push(ev);
        }
        Ok(evs)
    };
    let mut survivors = 0;
    for pos in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x01;
        let Ok(evs) = decode_events(&bad) else {
            continue;
        };
        survivors += 1;
        let mut w = TraceWriter::new();
        for ev in &evs {
            w.event(ev);
        }
        let reencoded = w.into_bytes();
        assert_eq!(
            decode_events(&reencoded).expect("re-encoded trace must decode"),
            evs,
            "round-trip diverged after mutating byte {pos}"
        );
    }
    assert!(survivors > 0, "no mutation survived — test lost its teeth");
}

#[test]
fn oversized_leb128_shift_is_a_typed_error() {
    // TAG_ALLOC_ARR = 1: tid, arr, then a u64 length whose varint never
    // terminates — eleven continuation bytes push the shift past 63.
    let mut bytes = TRACE_MAGIC.to_vec();
    bytes.push(1); // version
    bytes.push(1); // TAG_ALLOC_ARR
    bytes.push(0); // tid
    bytes.push(0); // arr id
    bytes.extend_from_slice(&[0xff; 11]);
    assert!(matches!(
        decode_all(&bytes),
        Err(TraceError::Truncated { .. })
    ));
}

#[test]
fn unknown_tags_are_typed_errors() {
    for tag in [11u8, 0x42, 0xff] {
        let mut bytes = TRACE_MAGIC.to_vec();
        bytes.push(1); // version
        bytes.push(tag);
        assert!(
            matches!(decode_all(&bytes), Err(TraceError::BadTag { tag: t, .. }) if t == tag),
            "tag {tag} must be rejected"
        );
    }
}

#[test]
fn absurd_check_path_count_errors_without_matching_allocation() {
    // TAG_CHECK = 3 claiming u64::MAX paths, then nothing. The decoder
    // must cap its pre-allocation at the (tiny) remaining input and fail
    // with `Truncated` — not reserve entries for the claimed length.
    let mut bytes = TRACE_MAGIC.to_vec();
    bytes.push(1); // version
    bytes.push(3); // TAG_CHECK
    bytes.push(0); // tid
    bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]); // u64::MAX
    assert!(matches!(
        decode_all(&bytes),
        Err(TraceError::Truncated { .. })
    ));

    // Same for the field-index count inside one path: one claimed path,
    // a Fields target with u64::MAX indices, then nothing.
    let mut bytes = TRACE_MAGIC.to_vec();
    bytes.push(1); // version
    bytes.push(3); // TAG_CHECK
    bytes.push(0); // tid
    bytes.push(1); // one path
    bytes.push(0); // kind = read
    bytes.push(0); // subtag = Fields
    bytes.push(7); // obj id
    bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]); // u64::MAX
    assert!(matches!(
        decode_all(&bytes),
        Err(TraceError::Truncated { .. })
    ));
}

#[test]
fn bad_magic_and_version_are_typed_errors() {
    assert!(matches!(decode_all(b"NOPE"), Err(TraceError::BadMagic)));
    assert!(matches!(decode_all(b""), Err(TraceError::BadMagic)));
    let mut bytes = TRACE_MAGIC.to_vec();
    bytes.push(99);
    assert!(matches!(
        decode_all(&bytes),
        Err(TraceError::UnsupportedVersion(99))
    ));
}

// ---------------- compressed (`BFTC`) container hardening ----------------
//
// The grammar-compressed container adds untrusted structure on top of the
// event codec: a rule table whose symbol references, repeat counts,
// claimed expansion size, and nesting depth are all attacker-controlled.
// Each gets a typed error — never a panic, hang, cycle, or unbounded
// allocation.

mod compressed {
    use super::{decode_all, recorded_trace, TraceError};
    use bigfoot_bfj::{compress, decompress, read_compressed, COMPRESSED_MAGIC};

    /// LEB128 varint, matching the codec's unsigned encoding.
    fn vu64(buf: &mut Vec<u8>, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                buf.push(b);
                break;
            }
            buf.push(b | 0x80);
        }
    }

    /// A dictionary entry in BFTR event encoding:
    /// `AllocArr { t: 0, arr: 0, len: 8 }`.
    const DICT_EVENT: &[u8] = &[1, 0, 0, 8];

    /// Hand-assembles a container with one dictionary entry, the given
    /// rule bodies, top sequence, and claimed expansion size.
    fn container(rules: &[Vec<(u64, u64)>], top: &[(u64, u64)], total: u64) -> Vec<u8> {
        let mut b = COMPRESSED_MAGIC.to_vec();
        b.push(1); // version
        vu64(&mut b, 1); // dict_len
        b.extend_from_slice(DICT_EVENT);
        vu64(&mut b, rules.len() as u64);
        for r in rules {
            vu64(&mut b, r.len() as u64);
            for &(s, c) in r {
                vu64(&mut b, s);
                vu64(&mut b, c);
            }
        }
        vu64(&mut b, top.len() as u64);
        for &(s, c) in top {
            vu64(&mut b, s);
            vu64(&mut b, c);
        }
        vu64(&mut b, total);
        b
    }

    #[test]
    fn hand_assembled_container_is_valid() {
        // The baseline the corruption tests damage: rule 0 = (sym 0)^4,
        // top = rule 0 twice, 8 events total.
        let bytes = container(&[vec![(0, 4)]], &[(1, 2)], 8);
        let ct = read_compressed(&bytes).expect("valid container");
        assert_eq!(ct.total_events, 8);
        assert_eq!(decode_all(&decompress(&bytes).expect("expand")), Ok(8));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        // Unlike raw BFTR (where a cut between events reads as a shorter
        // trace), the container's trailing expansion count makes *every*
        // proper prefix invalid.
        let full = compress(&recorded_trace()).expect("compress");
        read_compressed(&full).expect("intact container parses");
        for len in 0..full.len() {
            assert!(
                read_compressed(&full[..len]).is_err(),
                "truncation to {len} bytes must not parse"
            );
            assert!(decompress(&full[..len]).is_err());
        }
    }

    #[test]
    fn every_single_byte_mutation_parses_or_errors() {
        let full = compress(&recorded_trace()).expect("compress");
        for pos in 0..full.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut bad = full.clone();
                bad[pos] ^= mask;
                // Either outcome is fine; what must not happen is a
                // panic, a cycle, or an unbounded allocation.
                let _ = decompress(&bad);
            }
        }
    }

    #[test]
    fn self_and_forward_rule_refs_are_rejected() {
        // Rule 0 referencing itself (symbol 1 = first rule)…
        let bytes = container(&[vec![(1, 2)]], &[(0, 1)], 1);
        assert_eq!(
            read_compressed(&bytes),
            Err(TraceError::BadRuleRef { rule: 0, sym: 1 })
        );
        // …or a rule defined later (symbol 2 = second rule).
        let bytes = container(&[vec![(2, 2)], vec![(0, 1)]], &[(0, 1)], 1);
        assert_eq!(
            read_compressed(&bytes),
            Err(TraceError::BadRuleRef { rule: 0, sym: 2 })
        );
        // Top-level references are validated too (rule = u64::MAX marks
        // the top sequence).
        let bytes = container(&[], &[(7, 1)], 1);
        assert_eq!(
            read_compressed(&bytes),
            Err(TraceError::BadRuleRef {
                rule: u64::MAX,
                sym: 7
            })
        );
    }

    #[test]
    fn zero_repeat_counts_are_rejected() {
        let bytes = container(&[vec![(0, 0)]], &[(0, 1)], 1);
        assert_eq!(
            read_compressed(&bytes),
            Err(TraceError::BadCount { rule: 0 })
        );
        let bytes = container(&[], &[(0, 0)], 0);
        assert_eq!(
            read_compressed(&bytes),
            Err(TraceError::BadCount { rule: u64::MAX })
        );
    }

    #[test]
    fn oversized_expansion_claims_are_rejected() {
        // A huge count on one pair…
        let bytes = container(&[], &[(0, 1 << 41)], 1 << 41);
        assert!(matches!(
            read_compressed(&bytes),
            Err(TraceError::OversizedExpansion { .. })
        ));
        // …and a doubling rule chain that overflows multiplicatively
        // with tiny counts: rule i expands to 2^(i+1) events, so 41
        // rules blow past the 2^40 cap without any large varint.
        let mut rules: Vec<Vec<(u64, u64)>> = vec![vec![(0, 2)]];
        for i in 1..41u64 {
            rules.push(vec![(i, 2)]); // symbol i = rule i-1
        }
        let bytes = container(&rules, &[(41, 1)], 1 << 41);
        assert!(matches!(
            read_compressed(&bytes),
            Err(TraceError::OversizedExpansion { .. })
        ));
    }

    #[test]
    fn deep_rule_nesting_is_rejected() {
        // A 65-deep chain: rule i wraps rule i-1 once. Depth 65 exceeds
        // MAX_RULE_DEPTH = 64, caught at validation — expansion never
        // runs, so the recursion bound holds unconditionally.
        let mut rules: Vec<Vec<(u64, u64)>> = vec![vec![(0, 1)]];
        for i in 1..65u64 {
            rules.push(vec![(i, 1)]);
        }
        let bytes = container(&rules, &[(65, 1)], 1);
        assert_eq!(
            read_compressed(&bytes),
            Err(TraceError::RuleTooDeep { rule: 64 })
        );
    }

    #[test]
    fn a_top_level_error_is_the_first_whole_sequence_error() {
        // The top-level sequence is read whole before it is sized: a bad
        // reference after an oversized pair is the error…
        let bytes = container(&[], &[(0, 1 << 41), (7, 1)], 1);
        assert_eq!(
            read_compressed(&bytes),
            Err(TraceError::BadRuleRef {
                rule: u64::MAX,
                sym: 7
            })
        );
        // …as is a cut after it…
        let bytes = container(&[], &[(0, 1 << 41), (0, 1)], 1);
        assert!(matches!(
            read_compressed(&bytes[..bytes.len() - 2]),
            Err(TraceError::Truncated { .. })
        ));
        // …and an oversized expansion after a pair nested too deep.
        let mut rules: Vec<Vec<(u64, u64)>> = vec![vec![(0, 1)]];
        for i in 1..64u64 {
            rules.push(vec![(i, 1)]);
        }
        let bytes = container(&rules, &[(64, 1), (0, 1 << 41)], 1);
        assert!(matches!(
            read_compressed(&bytes),
            Err(TraceError::OversizedExpansion { .. })
        ));
        let bytes = container(&rules, &[(64, 1), (0, 1)], 2);
        assert_eq!(
            read_compressed(&bytes),
            Err(TraceError::RuleTooDeep { rule: u64::MAX })
        );
    }

    #[test]
    fn wrong_expansion_total_is_rejected() {
        let bytes = container(&[vec![(0, 4)]], &[(1, 2)], 9);
        assert_eq!(
            read_compressed(&bytes),
            Err(TraceError::ExpansionMismatch {
                claimed: 9,
                actual: 8
            })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = container(&[vec![(0, 4)]], &[(1, 2)], 8);
        let end = bytes.len();
        bytes.push(0);
        assert_eq!(
            read_compressed(&bytes),
            Err(TraceError::TrailingBytes { offset: end })
        );
    }

    #[test]
    fn absurd_claimed_lengths_allocate_bounded() {
        // dict_len = u64::MAX, then nothing: the decoder must cap its
        // pre-allocation at the remaining input and fail typed.
        let mut bytes = COMPRESSED_MAGIC.to_vec();
        bytes.push(1);
        bytes.extend([0xff; 10]);
        bytes.push(0x01);
        assert!(read_compressed(&bytes).is_err());

        // Same for a rule's claimed pair count.
        let mut bytes = COMPRESSED_MAGIC.to_vec();
        bytes.push(1);
        vu64(&mut bytes, 1); // dict_len
        bytes.extend_from_slice(DICT_EVENT);
        vu64(&mut bytes, 1); // one rule
        bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]); // npairs = u64::MAX
        assert!(matches!(
            read_compressed(&bytes),
            Err(TraceError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_dictionary_arrays_are_typed_errors() {
        // Dictionary events decode through the BFTR codec, so the array
        // length bound holds inside containers too: swap the baseline
        // dictionary entry's length byte for a huge varint.
        for len in [1u64 << 40, u64::MAX] {
            let mut bytes = container(&[], &[(0, 1)], 1);
            let len_at = COMPRESSED_MAGIC.len() + 2 + DICT_EVENT.len() - 1;
            let mut huge = Vec::new();
            vu64(&mut huge, len);
            bytes.splice(len_at..=len_at, huge);
            assert!(matches!(
                read_compressed(&bytes),
                Err(TraceError::OversizedArray { len: l, .. }) if l == len
            ));
            assert!(decompress(&bytes).is_err());
        }
        // The untouched baseline still parses.
        read_compressed(&container(&[], &[(0, 1)], 1)).expect("baseline container");
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        assert_eq!(read_compressed(b"BFTX"), Err(TraceError::BadMagic));
        assert_eq!(read_compressed(b""), Err(TraceError::BadMagic));
        let mut bytes = COMPRESSED_MAGIC.to_vec();
        bytes.push(9);
        assert_eq!(
            read_compressed(&bytes),
            Err(TraceError::UnsupportedVersion(9))
        );
    }
}

#[test]
fn invalid_stride_is_a_typed_error() {
    // TAG_CHECK with one Range path whose step is 0 (zigzag 0).
    let mut bytes = TRACE_MAGIC.to_vec();
    bytes.push(1); // version
    bytes.push(3); // TAG_CHECK
    bytes.push(0); // tid
    bytes.push(1); // one path
    bytes.push(0); // kind = read
    bytes.push(1); // subtag = Range
    bytes.push(0); // arr id
    bytes.push(0); // lo = 0
    bytes.push(8); // hi = 4 (zigzag)
    bytes.push(0); // step = 0 — invalid
    assert!(matches!(
        decode_all(&bytes),
        Err(TraceError::InvalidStride { step: 0, .. })
    ));
}

#[test]
fn oversized_array_lengths_are_typed_errors() {
    // TAG_ALLOC_ARR with a length no executor can allocate: the decoder
    // rejects it before any detector sizes shadow state by it.
    let alloc = |len: u64| {
        let mut bytes = TRACE_MAGIC.to_vec();
        bytes.push(1); // version
        bytes.push(1); // TAG_ALLOC_ARR
        bytes.push(0); // tid
        bytes.push(0); // arr id
        let mut v = len;
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                bytes.push(b);
                break;
            }
            bytes.push(b | 0x80);
        }
        bytes
    };
    for len in [MAX_ARRAY_LEN as u64 + 1, 1 << 40, u64::MAX] {
        assert!(matches!(
            decode_all(&alloc(len)),
            Err(TraceError::OversizedArray { len: l, .. }) if l == len
        ));
    }
    assert_eq!(decode_all(&alloc(MAX_ARRAY_LEN as u64)), Ok(1));
}
