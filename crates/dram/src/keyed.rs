//! Counter-based (keyed) random streams for hammer-session dynamics.
//!
//! The sequential dynamics RNG in [`crate::device::DramDevice`] makes
//! every stochastic draw depend on the *number and order* of preceding
//! draws: skipping a hammer session (as an adaptive RDT search does)
//! shifts the stream and silently re-randomizes everything after it. A
//! [`KeyedRng`] instead derives its stream purely from *what is being
//! drawn* — the dynamics seed, the measurement epoch, and the identity
//! of the cell/trap — so any search strategy that visits a grid point
//! obtains exactly the draws a linear sweep would have obtained there.
//!
//! Concretely, each draw site builds a fresh `KeyedRng` from a key
//! tuple (splitmix64-folded, Philox-style counter stream) and pulls the
//! few values it needs:
//!
//! - [`KeyedRng::for_threshold`] — the per-measurement lognormal
//!   threshold jitter of one weak cell. Keyed by epoch (not by session):
//!   within one measurement every session sees the *same* sampled
//!   threshold, which makes the flip predicate monotone in the hammer
//!   count and the gallop/bisect search exact.
//! - [`KeyedRng::for_trap`] — the compound Markov catch-up step of one
//!   trap for one measurement epoch.
//!
//! The sequential RNG remains in place for everything outside keyed
//! sessions (device construction, row materialization, legacy probes),
//! byte-compatible with earlier releases.

use rand::RngCore;

/// Domain-separation tag for per-measurement threshold jitter draws.
pub const TAG_THRESHOLD: u64 = 0x7472_6573_686F_6C64; // "treshold"
/// Domain-separation tag for per-measurement trap catch-up draws.
pub const TAG_TRAP: u64 = 0x7472_6170_5F6B_6579; // "trap_key"

/// Finalizing 64-bit mixer (splitmix64): full avalanche, bijective.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A unit normal hashed from `(seed, index)`: the SplitMix finalizer of
/// the key, then Box–Muller on two uniforms taken from the hash and from
/// its golden-ratio multiple. `salt` keeps the streams of different
/// sites (subarrays, HBM2 banks) independent.
pub(crate) fn hashed_normal(seed: u64, index: u64, salt: u64) -> f64 {
    let z = mix64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt);
    let u1 = ((z >> 11) as f64 / (1u64 << 53) as f64).clamp(1e-12, 1.0);
    let u2 = ((z.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64)
        .clamp(0.0, 1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A counter-based random stream keyed by draw identity.
///
/// Construction folds the key parts through `mix64`; the stream then
/// advances exactly like the shim's `SplitMix64` (golden-ratio counter +
/// finalizer), so statistical quality matches the seeded generators used
/// elsewhere in the model.
#[derive(Debug, Clone)]
pub struct KeyedRng {
    state: u64,
}

impl KeyedRng {
    /// Builds a stream from explicit key parts. Order matters; callers
    /// should lead with a domain tag so different draw sites with equal
    /// numeric keys cannot collide.
    #[inline]
    pub fn from_key(parts: &[u64]) -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for &part in parts {
            state = mix64(state ^ part).wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        KeyedRng { state }
    }

    /// The stream for one weak cell's threshold jitter in measurement
    /// `epoch`. Deliberately *not* keyed by session index: a single
    /// threshold per measurement keeps the flip predicate monotone in
    /// hammer count (see the module docs).
    #[inline]
    pub fn for_threshold(dynamics_seed: u64, epoch: u64, bank: u64, row: u32, bit: u32) -> Self {
        KeyedRng::from_key(&[
            TAG_THRESHOLD,
            dynamics_seed,
            epoch,
            bank,
            u64::from(row),
            u64::from(bit),
        ])
    }

    /// The stream for one trap's compound Markov catch-up step covering
    /// measurement `epoch`.
    #[inline]
    pub fn for_trap(
        dynamics_seed: u64,
        epoch: u64,
        bank: u64,
        row: u32,
        bit: u32,
        trap_idx: u64,
    ) -> Self {
        KeyedRng::from_key(&[
            TAG_TRAP,
            dynamics_seed,
            epoch,
            bank,
            u64::from(row),
            u64::from(bit),
            trap_idx,
        ])
    }
}

impl RngCore for KeyedRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_key_reproduces_the_stream() {
        let mut a = KeyedRng::for_threshold(7, 3, 0, 100, 12);
        let mut b = KeyedRng::for_threshold(7, 3, 0, 100, 12);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn any_key_part_changes_the_stream() {
        let base = KeyedRng::for_threshold(7, 3, 0, 100, 12).next_u64();
        assert_ne!(base, KeyedRng::for_threshold(8, 3, 0, 100, 12).next_u64());
        assert_ne!(base, KeyedRng::for_threshold(7, 4, 0, 100, 12).next_u64());
        assert_ne!(base, KeyedRng::for_threshold(7, 3, 1, 100, 12).next_u64());
        assert_ne!(base, KeyedRng::for_threshold(7, 3, 0, 101, 12).next_u64());
        assert_ne!(base, KeyedRng::for_threshold(7, 3, 0, 100, 13).next_u64());
    }

    #[test]
    fn domain_tags_separate_draw_sites() {
        let t = KeyedRng::for_threshold(7, 3, 0, 100, 12).next_u64();
        let trap = KeyedRng::for_trap(7, 3, 0, 100, 12, 0).next_u64();
        assert_ne!(t, trap);
    }

    #[test]
    fn stream_is_uniform_enough_for_gen_bool() {
        // Coarse sanity: the keyed stream feeds gen_bool/gen::<f64>, so
        // the f64 mapping must cover (0, 1) evenly at the ~1% level.
        let mut rng = KeyedRng::from_key(&[1, 2, 3]);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean of uniform draws was {mean}");
    }

    #[test]
    fn construction_is_order_sensitive() {
        assert_ne!(KeyedRng::from_key(&[1, 2]).next_u64(), KeyedRng::from_key(&[2, 1]).next_u64());
    }
}
