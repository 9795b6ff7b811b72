//! A minimal multiplicative hasher for the simulators' hot maps.
//!
//! The keys are simulated row numbers (the device model's per-bank row
//! table, the mitigations' counter tables in `vrd-memsim`), not input an
//! adversary picks, so SipHash's flood resistance buys nothing. Its cost
//! does show: it dominates the row-table lookups once the batch engine
//! strips the rest of the per-session work, and a multi-row mitigation
//! hook call. No output depends on iteration order, so the hasher only
//! affects membership probing — campaign results and goldens are
//! hash-order independent by construction.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplicative constant rustc's FxHash uses (a 64-bit golden-ratio
/// derivative); any odd constant with good bit dispersion works here.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// One-word-at-a-time multiplicative hasher (FxHash-style).
///
/// Not keyed and not DoS-resistant — only for maps whose keys the
/// simulator itself generates (row indices).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = 0u64;
            for (i, &b) in rest.iter().enumerate() {
                tail |= u64::from(b) << (8 * i);
            }
            self.add(tail);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` probed by the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(f: impl Fn(&mut FxHasher)) -> u64 {
        let mut h = FxHasher::default();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn equal_inputs_hash_equal_and_nearby_inputs_differ() {
        assert_eq!(hash_of(|h| h.write_u32(42)), hash_of(|h| h.write_u32(42)));
        assert_ne!(hash_of(|h| h.write_u32(42)), hash_of(|h| h.write_u32(43)));
        assert_ne!(hash_of(|h| h.write_u64(1)), hash_of(|h| h.write_u64(1 << 32)));
    }

    #[test]
    fn byte_slices_cover_the_tail_path() {
        assert_eq!(hash_of(|h| h.write(b"abcdefghij")), hash_of(|h| h.write(b"abcdefghij")));
        assert_ne!(hash_of(|h| h.write(b"abcdefghij")), hash_of(|h| h.write(b"abcdefghik")));
        assert_ne!(hash_of(|h| h.write(b"abc")), hash_of(|h| h.write(b"abd")));
    }

    #[test]
    fn map_round_trips() {
        let mut map: FxHashMap<u32, &str> = FxHashMap::default();
        for i in 0..1_000 {
            map.insert(i, "row");
        }
        assert_eq!(map.len(), 1_000);
        assert!(map.contains_key(&999));
        assert!(!map.contains_key(&1_000));
    }
}
