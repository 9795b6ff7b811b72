//! Eight consecutive ChaCha12 blocks at once, with AVX2.
//!
//! Each of the sixteen state words lives in one 256-bit vector whose
//! lane `j` belongs to block `counter + j`, so every vector instruction
//! advances one word of all eight blocks. The rounds are the scalar
//! block's, word for word; only the 16- and 8-bit rotations are byte
//! shuffles. Two 8 × 8 transposes turn the sixteen word vectors back
//! into eight blocks of sixteen words for the output buffer.
//!
//! This module holds the crate's only `unsafe`: the call into the
//! AVX2 function after runtime detection, and the unaligned lane loads
//! and stores.

use core::arch::x86_64::{
    __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_or_si256, _mm256_permute2x128_si256,
    _mm256_set1_epi32, _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8,
    _mm256_slli_epi32, _mm256_srli_epi32, _mm256_storeu_si256, _mm256_unpackhi_epi32,
    _mm256_unpackhi_epi64, _mm256_unpacklo_epi32, _mm256_unpacklo_epi64, _mm256_xor_si256,
};

use super::{BUFFER_WORDS, CONSTANTS, WIDE_BLOCKS};

/// Writes blocks `counter, counter + 1, …, counter + 7` (the counter
/// wrapping at `u64::MAX`) of the stream keyed by `key` to `out`, block
/// `counter + j` at words `16j .. 16j + 16`, and returns true. Returns
/// false and leaves `out` as it is on a CPU without AVX2.
pub(super) fn blocks(key: &[u32; 8], counter: u64, out: &mut [u32; BUFFER_WORDS]) -> bool {
    if !std::is_x86_feature_detected!("avx2") {
        return false;
    }
    // SAFETY: the check above found AVX2, the only target feature
    // `blocks_avx2` enables, on the CPU this runs on.
    unsafe { blocks_avx2(key, counter, out) };
    true
}

#[target_feature(enable = "avx2")]
fn blocks_avx2(key: &[u32; 8], counter: u64, out: &mut [u32; BUFFER_WORDS]) {
    let counters: [u64; WIDE_BLOCKS] = core::array::from_fn(|j| counter.wrapping_add(j as u64));
    let mut init = [_mm256_setzero_si256(); 16];
    for (v, &c) in init.iter_mut().zip(&CONSTANTS) {
        *v = _mm256_set1_epi32(c as i32);
    }
    for (v, &k) in init[4..12].iter_mut().zip(key) {
        *v = _mm256_set1_epi32(k as i32);
    }
    init[12] = load(&counters.map(|c| c as u32));
    init[13] = load(&counters.map(|c| (c >> 32) as u32));
    // Words 14 and 15, the nonce, stay zero.

    // Byte shuffles that rotate every 32-bit lane left by 16 and by 8.
    let rot16 = _mm256_setr_epi8(
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
    );
    let rot8 = _mm256_setr_epi8(
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
    );
    let mut v = init;
    for _ in 0..6 {
        // Two rounds per iteration: one column round, one diagonal.
        quarter_round(&mut v, [0, 4, 8, 12], rot16, rot8);
        quarter_round(&mut v, [1, 5, 9, 13], rot16, rot8);
        quarter_round(&mut v, [2, 6, 10, 14], rot16, rot8);
        quarter_round(&mut v, [3, 7, 11, 15], rot16, rot8);
        quarter_round(&mut v, [0, 5, 10, 15], rot16, rot8);
        quarter_round(&mut v, [1, 6, 11, 12], rot16, rot8);
        quarter_round(&mut v, [2, 7, 8, 13], rot16, rot8);
        quarter_round(&mut v, [3, 4, 9, 14], rot16, rot8);
    }
    for (w, s) in v.iter_mut().zip(&init) {
        *w = _mm256_add_epi32(*w, *s);
    }

    let low = transpose(v[..8].try_into().expect("eight word vectors"));
    let high = transpose(v[8..].try_into().expect("eight word vectors"));
    // Row 2j holds words 0..8 of block j, row 2j + 1 words 8..16.
    let (rows, _) = out.as_chunks_mut::<8>();
    for ((pair, lo), hi) in rows.chunks_exact_mut(2).zip(low).zip(high) {
        store(&mut pair[0], lo);
        store(&mut pair[1], hi);
    }
}

#[inline]
#[target_feature(enable = "avx2")]
fn quarter_round(v: &mut [__m256i; 16], [a, b, c, d]: [usize; 4], rot16: __m256i, rot8: __m256i) {
    v[a] = _mm256_add_epi32(v[a], v[b]);
    v[d] = _mm256_shuffle_epi8(_mm256_xor_si256(v[d], v[a]), rot16);
    v[c] = _mm256_add_epi32(v[c], v[d]);
    v[b] = rotate_left::<12, 20>(_mm256_xor_si256(v[b], v[c]));
    v[a] = _mm256_add_epi32(v[a], v[b]);
    v[d] = _mm256_shuffle_epi8(_mm256_xor_si256(v[d], v[a]), rot8);
    v[c] = _mm256_add_epi32(v[c], v[d]);
    v[b] = rotate_left::<7, 25>(_mm256_xor_si256(v[b], v[c]));
}

/// Rotates every 32-bit lane left by `L` bits; `R` must be `32 - L`.
#[inline]
#[target_feature(enable = "avx2")]
fn rotate_left<const L: i32, const R: i32>(x: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi32::<L>(x), _mm256_srli_epi32::<R>(x))
}

/// Transposes an 8 × 8 matrix of 32-bit lanes: lane `j` of input `w`
/// becomes lane `w` of output `j`.
#[inline]
#[target_feature(enable = "avx2")]
fn transpose(a: [__m256i; 8]) -> [__m256i; 8] {
    // Interleave pairs, then quads, within each 128-bit half ...
    let t0 = _mm256_unpacklo_epi32(a[0], a[1]);
    let t1 = _mm256_unpackhi_epi32(a[0], a[1]);
    let t2 = _mm256_unpacklo_epi32(a[2], a[3]);
    let t3 = _mm256_unpackhi_epi32(a[2], a[3]);
    let t4 = _mm256_unpacklo_epi32(a[4], a[5]);
    let t5 = _mm256_unpackhi_epi32(a[4], a[5]);
    let t6 = _mm256_unpacklo_epi32(a[6], a[7]);
    let t7 = _mm256_unpackhi_epi32(a[6], a[7]);
    // ... so that u_k holds lane k of a[0..4] in its low half and lane
    // k + 4 of a[0..4] in its high half (u_{k+4}: the same of a[4..8]).
    let u0 = _mm256_unpacklo_epi64(t0, t2);
    let u1 = _mm256_unpackhi_epi64(t0, t2);
    let u2 = _mm256_unpacklo_epi64(t1, t3);
    let u3 = _mm256_unpackhi_epi64(t1, t3);
    let u4 = _mm256_unpacklo_epi64(t4, t6);
    let u5 = _mm256_unpackhi_epi64(t4, t6);
    let u6 = _mm256_unpacklo_epi64(t5, t7);
    let u7 = _mm256_unpackhi_epi64(t5, t7);
    // Then join the halves across the 128-bit boundary.
    [
        _mm256_permute2x128_si256::<0x20>(u0, u4),
        _mm256_permute2x128_si256::<0x20>(u1, u5),
        _mm256_permute2x128_si256::<0x20>(u2, u6),
        _mm256_permute2x128_si256::<0x20>(u3, u7),
        _mm256_permute2x128_si256::<0x31>(u0, u4),
        _mm256_permute2x128_si256::<0x31>(u1, u5),
        _mm256_permute2x128_si256::<0x31>(u2, u6),
        _mm256_permute2x128_si256::<0x31>(u3, u7),
    ]
}

#[inline]
#[target_feature(enable = "avx2")]
fn load(lanes: &[u32; 8]) -> __m256i {
    // SAFETY: `lanes` is 32 readable bytes, exactly what an unaligned
    // 256-bit load reads.
    unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn store(lanes: &mut [u32; 8], v: __m256i) {
    // SAFETY: `lanes` is 32 writable bytes, exactly what an unaligned
    // 256-bit store writes.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v) }
}
