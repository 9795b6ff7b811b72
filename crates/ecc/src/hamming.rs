//! Hamming(72,64) codes: SEC and SEC-DED.
//!
//! The 72-bit codeword uses the classic extended-Hamming layout: bit
//! positions 1..=71 carry the Hamming code (parity bits at the
//! power-of-two positions 1, 2, 4, …, 64; the 64 data bits fill the
//! rest), and position 0 carries the overall (even) parity that upgrades
//! SEC to SEC-DED.

use serde::{Deserialize, Serialize};

use crate::DecodeOutcome;

/// Positions 1..=71 that are *not* powers of two, in ascending order:
/// these hold the data bits.
fn data_positions() -> impl Iterator<Item = u32> {
    (1u32..72).filter(|p| !p.is_power_of_two())
}

fn encode_internal(data: u64) -> u128 {
    let mut word: u128 = 0;
    for (i, pos) in data_positions().enumerate() {
        if (data >> i) & 1 == 1 {
            word |= 1u128 << pos;
        }
    }
    // Hamming parity bits: parity at 2^i covers positions with bit i set.
    for i in 0..7u32 {
        let p = 1u32 << i;
        let mut parity = 0u32;
        for pos in 1..72u32 {
            if pos & p != 0 && (word >> pos) & 1 == 1 {
                parity ^= 1;
            }
        }
        if parity == 1 {
            word |= 1u128 << p;
        }
    }
    // Overall parity (even) at position 0.
    if (word.count_ones() % 2) == 1 {
        word |= 1;
    }
    word
}

fn syndrome(word: u128) -> (u32, bool) {
    let mut s = 0u32;
    for pos in 1..72u32 {
        if (word >> pos) & 1 == 1 {
            s ^= pos;
        }
    }
    let parity_odd = word.count_ones() % 2 == 1;
    (s, parity_odd)
}

fn extract(word: u128) -> u64 {
    let mut data = 0u64;
    for (i, pos) in data_positions().enumerate() {
        if (word >> pos) & 1 == 1 {
            data |= 1u64 << i;
        }
    }
    data
}

/// Hamming(72,64) in SEC-DED configuration: corrects any single bit,
/// detects any double bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Secded72;

impl Secded72 {
    /// Creates the code (stateless).
    pub fn new() -> Self {
        Secded72
    }

    /// Encodes 64 data bits into a 72-bit codeword.
    pub fn encode(&self, data: u64) -> u128 {
        encode_internal(data)
    }

    /// Decodes a (possibly corrupted) codeword.
    pub fn decode(&self, word: u128) -> DecodeOutcome {
        let word = word & ((1u128 << 72) - 1);
        let (s, parity_odd) = syndrome(word);
        match (s, parity_odd) {
            (0, false) => DecodeOutcome::Clean { data: extract(word) },
            (0, true) => {
                // The overall-parity bit itself flipped.
                DecodeOutcome::Corrected { data: extract(word), bits_corrected: 1 }
            }
            (s, true) if s < 72 => {
                let fixed = word ^ (1u128 << s);
                DecodeOutcome::Corrected { data: extract(fixed), bits_corrected: 1 }
            }
            // Non-zero syndrome with even parity: an even number (≥2) of
            // bits flipped — detected, uncorrectable.
            _ => DecodeOutcome::DetectedUncorrectable,
        }
    }
}

/// Hamming(72,64) decoded as plain SEC (no double-error detection): any
/// nonzero syndrome is "corrected", so double errors silently miscorrect.
/// This is the SEC row of the paper's Table 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sec72;

impl Sec72 {
    /// Creates the code (stateless).
    pub fn new() -> Self {
        Sec72
    }

    /// Encodes 64 data bits into a 72-bit codeword (same encoding as
    /// [`Secded72`]).
    pub fn encode(&self, data: u64) -> u128 {
        encode_internal(data)
    }

    /// Decodes, correcting whatever single-bit error the syndrome points
    /// at — without double-error detection.
    pub fn decode(&self, word: u128) -> DecodeOutcome {
        let word = word & ((1u128 << 72) - 1);
        let (s, parity_odd) = syndrome(word);
        if s == 0 {
            if parity_odd {
                return DecodeOutcome::Corrected { data: extract(word), bits_corrected: 1 };
            }
            return DecodeOutcome::Clean { data: extract(word) };
        }
        let fixed = word ^ (1u128 << s);
        DecodeOutcome::Corrected { data: extract(fixed), bits_corrected: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: [u64; 5] =
        [0, u64::MAX, 0xDEAD_BEEF_0BAD_F00D, 0x0123_4567_89AB_CDEF, 0x8000_0000_0000_0001];

    #[test]
    fn clean_round_trip() {
        let code = Secded72::new();
        for data in SAMPLES {
            let word = code.encode(data);
            assert_eq!(code.decode(word), DecodeOutcome::Clean { data });
        }
    }

    #[test]
    fn codeword_has_even_parity() {
        let code = Secded72::new();
        for data in SAMPLES {
            assert_eq!(code.encode(data).count_ones() % 2, 0);
        }
    }

    #[test]
    fn every_single_error_corrects() {
        let code = Secded72::new();
        let data = 0xDEAD_BEEF_0BAD_F00D;
        let word = code.encode(data);
        for bit in 0..72u32 {
            match code.decode(word ^ (1u128 << bit)) {
                DecodeOutcome::Corrected { data: d, bits_corrected: 1 } => {
                    assert_eq!(d, data, "wrong correction at bit {bit}");
                }
                other => panic!("bit {bit}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_double_error_detects() {
        let code = Secded72::new();
        let word = code.encode(0x0123_4567_89AB_CDEF);
        for a in (0..72u32).step_by(5) {
            for b in 0..72u32 {
                if a == b {
                    continue;
                }
                let corrupted = word ^ (1u128 << a) ^ (1u128 << b);
                assert_eq!(
                    code.decode(corrupted),
                    DecodeOutcome::DetectedUncorrectable,
                    "double error ({a},{b}) must be detected"
                );
            }
        }
    }

    #[test]
    fn triple_errors_may_be_silent() {
        // SEC-DED miscorrects some triple errors: the syndrome of three
        // flips can equal a valid single-bit position.
        let code = Secded72::new();
        let data = 0xABCD_EF01_2345_6789;
        let word = code.encode(data);
        let mut silent = 0;
        let mut detected = 0;
        for a in [1u32, 9, 33] {
            for b in [2u32, 18, 40] {
                for c in [4u32, 27, 55] {
                    let corrupted = word ^ (1u128 << a) ^ (1u128 << b) ^ (1u128 << c);
                    match code.decode(corrupted).classify_against(data) {
                        DecodeOutcome::SilentCorruption { .. } => silent += 1,
                        DecodeOutcome::DetectedUncorrectable => detected += 1,
                        DecodeOutcome::Corrected { .. } | DecodeOutcome::Clean { .. } => {}
                    }
                }
            }
        }
        assert!(silent > 0, "some triple errors must miscorrect");
        let _ = detected;
    }

    #[test]
    fn sec_corrects_singles() {
        let code = Sec72::new();
        let data = 0x1122_3344_5566_7788;
        let word = code.encode(data);
        for bit in 0..72u32 {
            let out = code.decode(word ^ (1u128 << bit)).classify_against(data);
            assert!(
                matches!(out, DecodeOutcome::Corrected { .. }),
                "bit {bit}: SEC must correct, got {out:?}"
            );
        }
    }

    #[test]
    fn sec_miscorrects_doubles_silently() {
        // Without DED, double errors decode to wrong data (SDC) — the
        // paper's Table 3 puts SEC's undetectable rate equal to its
        // uncorrectable rate.
        let code = Sec72::new();
        let data = 0x1122_3344_5566_7788;
        let word = code.encode(data);
        let mut sdc = 0;
        let mut total = 0;
        for a in (0..72u32).step_by(7) {
            for b in (1..72u32).step_by(11) {
                if a == b {
                    continue;
                }
                total += 1;
                let out = code.decode(word ^ (1u128 << a) ^ (1u128 << b)).classify_against(data);
                if out.is_sdc() {
                    sdc += 1;
                }
            }
        }
        assert!(sdc * 2 > total, "most double errors under SEC are silent ({sdc}/{total})");
    }

    #[test]
    fn data_positions_count() {
        assert_eq!(data_positions().count(), 64);
    }
}
