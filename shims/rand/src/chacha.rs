//! ChaCha12 block cipher in counter mode, used as a PRNG.
//!
//! This is the generator family behind `rand` 0.8's `StdRng` and
//! `rand_chacha`'s `ChaCha12Rng`. The implementation follows RFC 7539's
//! state layout (constants, 256-bit key, 64-bit counter + 64-bit
//! nonce) with 12 rounds.
//!
//! The output is block 0, 1, 2, … of the stream, sixteen words each,
//! read in order; how many blocks a refill computes never shows in it.
//! A stream's first refill computes block 0 alone with the scalar
//! `block`, because most streams (device construction's bias draws,
//! one row's weak cells) end inside it. Every later refill computes
//! the next eight blocks at once with the AVX2 kernel in `avx2`, which
//! is chosen at run time by `is_x86_feature_detected!("avx2")`; on
//! other CPUs and targets it computes one scalar block, as the first
//! refill does. The kernel module holds the crate's only `unsafe`: the
//! call into the AVX2 function after detection, and the unaligned lane
//! loads and stores. The scalar block is the product path where the
//! kernel does not run and the oracle the tests hold the kernel to.

use crate::{RngCore, SeedableRng};

#[cfg(target_arch = "x86_64")]
mod avx2;

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
const BLOCK_WORDS: usize = 16;
/// Blocks per refill of the AVX2 kernel.
const WIDE_BLOCKS: usize = 8;
const BUFFER_WORDS: usize = BLOCK_WORDS * WIDE_BLOCKS;
/// Where a one-block refill puts its block: the buffer's last 16 words.
const TAIL: usize = BUFFER_WORDS - BLOCK_WORDS;

/// A deterministic ChaCha12 random number generator.
#[derive(Debug, Clone)]
pub struct ChaCha12Rng {
    key: [u32; 8],
    /// The next block to compute.
    counter: u64,
    /// Unread output is `buffer[index..]`.
    buffer: [u32; BUFFER_WORDS],
    index: usize,
}

impl ChaCha12Rng {
    #[inline(never)]
    fn refill(&mut self) {
        // Block 0 alone: most streams end inside it.
        if self.counter != 0 && self.wide_refill() {
            self.counter = self.counter.wrapping_add(WIDE_BLOCKS as u64);
            self.index = 0;
        } else {
            self.buffer[TAIL..].copy_from_slice(&block(&self.key, self.counter));
            self.counter = self.counter.wrapping_add(1);
            self.index = TAIL;
        }
    }

    /// Fills the whole buffer with blocks `counter .. counter + 8`,
    /// where the CPU has the AVX2 kernel; returns whether it did.
    fn wide_refill(&mut self) -> bool {
        #[cfg(test)]
        if tests::SCALAR_ONLY.get() {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            avx2::blocks(&self.key, self.counter, &mut self.buffer)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }
}

/// Block `counter` of the stream keyed by `key`.
fn block(key: &[u32; 8], counter: u64) -> [u32; BLOCK_WORDS] {
    let mut state = [0u32; BLOCK_WORDS];
    state[..4].copy_from_slice(&CONSTANTS);
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
    state[14] = 0;
    state[15] = 0;

    let mut working = state;
    for _ in 0..6 {
        // Two rounds per iteration: one column round, one diagonal.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    for (w, s) in working.iter_mut().zip(&state) {
        *w = w.wrapping_add(*s);
    }
    working
}

#[inline]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl SeedableRng for ChaCha12Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        // An empty buffer forces a refill on first use.
        ChaCha12Rng { key, counter: 0, buffer: [0; BUFFER_WORDS], index: BUFFER_WORDS }
    }
}

impl RngCore for ChaCha12Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUFFER_WORDS {
            self.refill();
        }
        let v = self.buffer[self.index];
        self.index += 1;
        v
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = self.index;
        if let Some(&[lo, hi]) = self.buffer.get(i..i + 2) {
            self.index = i + 2;
            return u64::from(lo) | (u64::from(hi) << 32);
        }
        // At most one word left: the two halves straddle a refill.
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        lo | (hi << 32)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        /// Makes every refill on this thread compute one scalar block,
        /// as on a CPU without AVX2.
        pub(super) static SCALAR_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    /// The stream from block `counter` on, one scalar block at a time.
    fn oracle(key: [u32; 8], counter: u64) -> impl Iterator<Item = u32> {
        (0..).flat_map(move |i| block(&key, counter.wrapping_add(i)))
    }

    /// Draws `draws` values from `rng`, each a `next_u32` or a
    /// `next_u64` as `pick` decides, and checks every one against the
    /// stream of `expected`.
    fn check_draws(
        rng: &mut ChaCha12Rng,
        expected: &mut impl Iterator<Item = u32>,
        pick: &mut ChaCha12Rng,
        draws: usize,
    ) {
        let mut word = move || u64::from(expected.next().expect("expected stream ran out"));
        for n in 0..draws {
            if pick.next_u32() & 1 == 0 {
                assert_eq!(u64::from(rng.next_u32()), word(), "draw {n} (u32)");
            } else {
                let lo = word();
                assert_eq!(rng.next_u64(), lo | (word() << 32), "draw {n} (u64)");
            }
        }
    }

    #[test]
    fn wide_refills_equal_one_scalar_block_at_a_time() {
        let mut pick = ChaCha12Rng::seed_from_u64(0xD1CE);
        for seed in 0..300 {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut expected = oracle(rng.key, 0);
            // About 1200 words: block 0 and the eight-block refills
            // after it, entered at every mix of word offsets.
            check_draws(&mut rng, &mut expected, &mut pick, 800);
        }
    }

    #[test]
    fn lane_counters_wrap_inside_one_refill() {
        let mut pick = ChaCha12Rng::seed_from_u64(6);
        // The 64-bit counter wraps to 0, or only its low word carries,
        // within the first refill's eight lanes.
        for start in [u64::MAX, u64::MAX - 3, u64::from(u32::MAX) - 2] {
            let mut rng = ChaCha12Rng::seed_from_u64(5);
            rng.counter = start;
            let mut expected = oracle(rng.key, start);
            check_draws(&mut rng, &mut expected, &mut pick, 400);
        }
    }

    #[test]
    fn a_fresh_stream_refills_one_block_first() {
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        rng.next_u32();
        assert_eq!((rng.counter, rng.index), (1, TAIL + 1));
        for _ in 1..BLOCK_WORDS {
            rng.next_u32();
        }
        assert_eq!(rng.index, BUFFER_WORDS);
        rng.next_u32();
        #[cfg(target_arch = "x86_64")]
        let wide = std::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let wide = false;
        if wide {
            assert_eq!((rng.counter, rng.index), (1 + WIDE_BLOCKS as u64, 1));
        } else {
            assert_eq!((rng.counter, rng.index), (2, TAIL + 1));
        }
    }

    #[test]
    fn the_scalar_path_gives_the_same_stream() {
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                SCALAR_ONLY.set(false);
            }
        }
        let mut pick = ChaCha12Rng::seed_from_u64(7);
        for seed in [0, 2025, u64::MAX] {
            let mut wide = ChaCha12Rng::seed_from_u64(seed);
            let wide_words: Vec<u32> = (0..600).map(|_| wide.next_u32()).collect();

            SCALAR_ONLY.set(true);
            let _reset = Reset;
            let mut scalar = ChaCha12Rng::seed_from_u64(seed);
            check_draws(&mut scalar, &mut wide_words.iter().copied(), &mut pick, 250);
            assert!(scalar.index >= TAIL, "a scalar refill fills one block");
        }
    }

    #[test]
    fn chacha_is_deterministic_and_full_period_blocks() {
        let mut a = ChaCha12Rng::seed_from_u64(7);
        let first: Vec<u32> = (0..40).map(|_| a.next_u32()).collect();
        let mut b = ChaCha12Rng::seed_from_u64(7);
        let second: Vec<u32> = (0..40).map(|_| b.next_u32()).collect();
        assert_eq!(first, second);
        // Crosses block boundaries (16 words per block) without repeats.
        assert_ne!(&first[..16], &first[16..32]);
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = ChaCha12Rng::seed_from_u64(1);
        let mut b = ChaCha12Rng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn bit_balance_is_plausible() {
        let mut rng = ChaCha12Rng::seed_from_u64(99);
        let ones: u32 = (0..1000).map(|_| rng.next_u64().count_ones()).sum();
        // 64,000 bits, expect ~32,000 ones.
        assert!((31_000..33_000).contains(&ones), "ones {ones}");
    }
}
