//! A fast, non-cryptographic hasher for integer-keyed maps on hot paths.
//!
//! The detector event loop and the entailment engine key maps by dense
//! integer ids (`ObjId`, `Tid`, `Sym`, …). The standard library's SipHash
//! is DoS-resistant but costs tens of nanoseconds per lookup, which
//! dominates those paths. This module provides the well-known
//! multiply-rotate "Fx" construction (one rotate, one xor, one multiply
//! per word), adequate for trusted in-process keys.
//!
//! It is for integer ids, not for byte strings or multi-word keys. The
//! final multiply never shifts the high bits back down, so the low bits
//! of the hash depend only on the low bits of each word, and hash tables
//! pick buckets by the low bits. Keys that differ only in the high bytes
//! of a word (a varint-encoded trace event, say) then share a handful of
//! buckets: the BFTC writer's dictionary once put 81,937 event encodings
//! into 223 of 131,072. Such keys need a hasher that mixes its state
//! before `finish`, like the standard library's SipHash, which that
//! dictionary now uses.
//!
//! The build environment is offline, so this lives here rather than as a
//! `rustc-hash` dependency; `bigfoot-obs` is the dependency-free crate
//! every other crate already links.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;
/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher; not DoS-resistant, for trusted keys only.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip_and_determinism() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        for k in 0..1000u32 {
            m.insert(k, "v");
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&999), Some(&"v"));
        assert_eq!(m.get(&1000), None);

        let h = |x: u64| {
            let mut h = FxHasher::default();
            h.write_u64(x);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));

        // Byte writes agree with the chunked path for whole words.
        let mut a = FxHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
