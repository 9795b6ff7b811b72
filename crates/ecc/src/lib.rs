//! Error-correcting-code substrate for the VRD reproduction.
//!
//! The paper (§6.4, Table 3) evaluates whether ECC can absorb the
//! read-disturbance bitflips that slip past a guardbanded read-disturbance
//! threshold. This crate provides real encoders and decoders — not just
//! formulas — for the three code classes the paper considers:
//!
//! - [`hamming`] — Hamming(72,64) in both SEC (single error correction)
//!   and SEC-DED (single error correction, double error detection)
//!   configurations.
//! - [`rs`] — a Chipkill-class single-symbol-correcting (SSC) shortened
//!   Reed–Solomon code over GF(2⁸) with 18 symbols (144 bits) per
//!   codeword, built on [`gf256`].
//! - [`analysis`] — the analytic binomial error-probability model behind
//!   the paper's Table 3, cross-checked against the real decoders by
//!   this crate's tests.
//!
//! On-die ECC, which the paper's methodology disables (§3.1), is not a
//! code here: the device model owns it as an interference control
//! (`vrd_dram::DramDevice::set_on_die_ecc_enabled`).
//!
//! [`DecodeOutcome`] classifies every decode uniformly so campaign code
//! can count corrected / detected / silently-corrupted words the way the
//! paper does.
//!
//! # Examples
//!
//! ```
//! use vrd_ecc::hamming::Secded72;
//! use vrd_ecc::DecodeOutcome;
//!
//! let code = Secded72::new();
//! let word = code.encode(0xDEAD_BEEF_0BAD_F00D);
//! let corrupted = word ^ (1 << 17); // single bitflip
//! match code.decode(corrupted) {
//!     DecodeOutcome::Corrected { data, .. } => assert_eq!(data, 0xDEAD_BEEF_0BAD_F00D),
//!     other => panic!("single error must correct, got {other:?}"),
//! }
//! ```

pub mod analysis;
pub mod gf256;
pub mod hamming;
pub mod rs;

use serde::{Deserialize, Serialize};

/// Uniform classification of a decode attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecodeOutcome {
    /// The codeword was clean; data extracted unchanged.
    Clean {
        /// The decoded data bits.
        data: u64,
    },
    /// An error was corrected.
    Corrected {
        /// The decoded (corrected) data bits.
        data: u64,
        /// Number of bits the decoder changed.
        bits_corrected: u32,
    },
    /// An uncorrectable error was *detected* (the memory controller would
    /// raise a machine check rather than return bad data).
    DetectedUncorrectable,
    /// The decoder returned data, but it does not match what was encoded —
    /// a silent data corruption. Only test harnesses that know the
    /// original data can produce this variant; see
    /// [`classify_against`](DecodeOutcome::classify_against).
    SilentCorruption {
        /// The wrong data the decoder returned.
        data: u64,
    },
}

impl DecodeOutcome {
    /// Re-labels a decode outcome given knowledge of the originally
    /// encoded data: a `Clean`/`Corrected` result whose data mismatches
    /// the original becomes [`SilentCorruption`](Self::SilentCorruption).
    pub fn classify_against(self, original: u64) -> DecodeOutcome {
        match self {
            DecodeOutcome::Clean { data } | DecodeOutcome::Corrected { data, .. }
                if data != original =>
            {
                DecodeOutcome::SilentCorruption { data }
            }
            other => other,
        }
    }

    /// Whether the outcome is a silent data corruption.
    pub fn is_sdc(&self) -> bool {
        matches!(self, DecodeOutcome::SilentCorruption { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_against_detects_sdc() {
        let ok = DecodeOutcome::Clean { data: 5 }.classify_against(5);
        assert_eq!(ok, DecodeOutcome::Clean { data: 5 });
        let bad = DecodeOutcome::Clean { data: 6 }.classify_against(5);
        assert!(bad.is_sdc());
        let corrected = DecodeOutcome::Corrected { data: 7, bits_corrected: 1 }.classify_against(5);
        assert!(corrected.is_sdc());
    }
}
