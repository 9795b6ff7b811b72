//! Frozen random streams of the `rand` shim's ChaCha12 generator.
//!
//! Every golden, scoreboard and stored benchmark counter in the
//! repository depends on these streams, so they are pinned here by
//! value: FNV-1a digests of long runs of `next_u32` and `next_u64`
//! draws, of a mixed sequence through the `Rng` sampling methods, and
//! of clones taken mid-stream. The digests were recorded on the
//! one-block-per-refill generator; any change to how the generator
//! buffers its output must leave every one of them as it is.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const SEEDS: [u64; 5] = [0, 1, 2025, 31337, u64::MAX];

/// 64-bit FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn next_u32_streams_are_frozen() {
    const EXPECTED: [u64; 5] = [
        0xef2d_ea58_5a65_baa6,
        0x0957_f708_d334_2cba,
        0xf680_a082_4b50_5544,
        0x1354_9c2e_934d_1198,
        0x461e_8b0b_ad74_2c9f,
    ];
    let got = SEEDS.map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = Fnv::new();
        for _ in 0..4096 {
            h.bytes(&rng.next_u32().to_le_bytes());
        }
        h.0
    });
    assert_eq!(got, EXPECTED, "digests {got:#018x?}");
}

#[test]
fn next_u64_streams_are_frozen() {
    const EXPECTED: [u64; 5] = [
        0x2544_df98_d5ac_f230,
        0xb4cd_2367_0e3f_4b54,
        0x2f39_dd6c_d6c5_61c4,
        0x70fa_3ddc_13b0_5ff9,
        0x4418_7831_921b_4550,
    ];
    let got = SEEDS.map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = Fnv::new();
        for _ in 0..4096 {
            h.bytes(&rng.next_u64().to_le_bytes());
        }
        h.0
    });
    assert_eq!(got, EXPECTED, "digests {got:#018x?}");
}

/// One cycle of sampling calls, each drawing an even number of 32-bit
/// words (every method but `next_u32` draws whole `next_u64`s), so a
/// cycle keeps the stream's word parity.
fn even_cycle(rng: &mut StdRng, h: &mut Fnv, words: &mut Vec<(usize, usize)>) {
    let mut at = words.last().map_or(0, |&(start, len)| start + len);
    let mut drew = |len: usize| {
        words.push((at, len));
        at += len;
    };
    h.bytes(&rng.next_u64().to_le_bytes());
    drew(2);
    h.bytes(&rng.gen::<f64>().to_bits().to_le_bytes());
    drew(2);
    h.bytes(&rng.gen_range(0u32..1000).to_le_bytes());
    drew(2);
    h.bytes(&rng.gen_range(-5i64..=5).to_le_bytes());
    drew(2);
    h.bytes(&rng.gen_range(0.0f64..2.0).to_bits().to_le_bytes());
    drew(2);
    h.bytes(&[u8::from(rng.gen_bool(0.3))]);
    drew(2);
    let mut five = [0u8; 5];
    rng.fill_bytes(&mut five);
    h.bytes(&five);
    drew(2);
    let mut thirteen = [0u8; 13];
    rng.fill_bytes(&mut thirteen);
    h.bytes(&thirteen);
    drew(2);
    drew(2);
}

fn odd_u32(rng: &mut StdRng, h: &mut Fnv, words: &mut Vec<(usize, usize)>) {
    let at = words.last().map_or(0, |&(start, len)| start + len);
    h.bytes(&rng.next_u32().to_le_bytes());
    words.push((at, 1));
}

#[test]
fn a_mixed_sequence_is_frozen() {
    const EXPECTED: [u64; 5] = [
        0x1bab_0821_189d_5d08,
        0xae2a_6606_73de_e4ca,
        0xe593_33bf_5afe_e10e,
        0x6fe5_88e2_308f_c1a5,
        0x6176_bbd6_99a9_f8b6,
    ];
    let got = SEEDS.map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = Fnv::new();
        // (first word, word count) of every draw, in stream order.
        let mut words = Vec::new();
        // One word puts the stream at an odd offset: every 64-bit draw
        // of the next 30 cycles takes a pair of words (2k+1, 2k+2).
        odd_u32(&mut rng, &mut h, &mut words);
        for _ in 0..30 {
            even_cycle(&mut rng, &mut h, &mut words);
        }
        // Three more words restore even offsets for 20 cycles.
        for _ in 0..3 {
            odd_u32(&mut rng, &mut h, &mut words);
        }
        for _ in 0..20 {
            even_cycle(&mut rng, &mut h, &mut words);
        }
        // Word 16·k starts block k. A 64-bit draw from the last word of
        // block 8 or block 16 (the ends of the first two eight-block
        // runs after block 0) crosses from one buffered run into the
        // next at an odd word offset.
        for last in [143, 271] {
            assert!(words.contains(&(last, 2)), "no 64-bit draw takes words {last}|{}", last + 1);
        }
        h.0
    });
    assert_eq!(got, EXPECTED, "digests {got:#018x?}");
}

#[test]
fn a_clone_taken_mid_buffer_continues_the_same_stream() {
    const EXPECTED: [u64; 3] =
        [0x86c7_39e7_9e6f_c7f2, 0x6e7a_2e11_1981_b597, 0x06e2_3621_cdd1_7415];
    // Inside block 0, on the last word of block 8, and deep into the
    // stream at an odd word.
    let got = [5usize, 143, 1001].map(|skip| {
        let mut rng = StdRng::seed_from_u64(2025);
        for _ in 0..skip {
            rng.next_u32();
        }
        let mut clone = rng.clone();
        let mut h = Fnv::new();
        for _ in 0..1000 {
            let v = rng.next_u64();
            assert_eq!(clone.next_u64(), v, "skip {skip}: the clone diverged");
            h.bytes(&v.to_le_bytes());
        }
        h.0
    });
    assert_eq!(got, EXPECTED, "digests {got:#018x?}");
}
