//! Batched struct-of-arrays evaluation of a victim row's weak cells.
//!
//! Under keyed dynamics ([`crate::keyed`]) every per-measurement draw is
//! a pure function of `(dynamics seed, epoch, cell identity)`: within one
//! measurement epoch a weak cell's sampled threshold is a *constant*, and
//! trap evolution advances exactly once per epoch. The scalar hot path
//! still re-derives those constants on every hammer session — three
//! per-row restorations per probe, each running the full lognormal
//! sampler per cell.
//!
//! This module is the struct-of-arrays alternative: a
//! [`RowBatchProfile`] captures one `(epoch, bank, row)` by drawing all
//! per-bit thresholds once, laid out as dense lanes
//! ([`LaneThresholds`]), after which each probe of the epoch reduces to
//! one branch-free compare pass: thresholds are compared against the
//! probe's effective hammer count 64 lanes at a time, flips materialize
//! as `u64` lane masks, and set lanes are extracted with
//! `trailing_zeros` in cell order — bit-for-bit the flips the scalar
//! path would have pushed.
//!
//! The profile is built by
//! [`DramDevice::prepare_batch_epoch`](crate::device::DramDevice::prepare_batch_epoch)
//! and consumed by
//! [`DramDevice::batch_hammer_session`](crate::device::DramDevice::batch_hammer_session);
//! the byte-identity contract between the two paths is enforced by the
//! differential suites in `tests/batch_equivalence.rs`.

/// Per-cell sampled thresholds for one measurement epoch, padded to
/// 64-lane words for branch-free mask building.
///
/// Lane `i` holds cell `i`'s threshold (in the row's weak-cell order);
/// padding lanes hold `f64::INFINITY` so they never compare as flipped.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneThresholds {
    /// Sampled thresholds, length padded up to a multiple of 64.
    thresholds: Vec<f64>,
    /// Bit position of each real lane (unpadded length).
    bits: Vec<u32>,
}

impl LaneThresholds {
    /// Builds a lane set from parallel `bits`/`thresholds` arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays disagree in length.
    pub fn new(bits: Vec<u32>, mut thresholds: Vec<f64>) -> Self {
        assert_eq!(bits.len(), thresholds.len(), "one threshold per cell");
        let padded = thresholds.len().div_ceil(64) * 64;
        thresholds.resize(padded, f64::INFINITY);
        LaneThresholds { thresholds, bits }
    }

    /// Number of real (unpadded) lanes.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the set holds no cells at all.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Appends the bit positions of every lane whose threshold is at or
    /// below `effective_hammers`, in lane (= weak-cell) order.
    ///
    /// The compare loop runs over `chunks_exact(64)` with a branch-free
    /// select per lane, so it vectorizes; only words with at least one
    /// flip pay for bit extraction.
    pub fn flips_into(&self, effective_hammers: f64, out: &mut Vec<u32>) {
        for (word, chunk) in self.thresholds.chunks_exact(64).enumerate() {
            let mut mask = 0u64;
            for (lane, &threshold) in chunk.iter().enumerate() {
                mask |= u64::from(effective_hammers >= threshold) << lane;
            }
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                out.push(self.bits[(word << 6) | lane]);
                mask &= mask - 1;
            }
        }
    }

    /// Number of lanes that flip at `effective_hammers` (popcount over
    /// the lane masks, no extraction).
    pub fn count(&self, effective_hammers: f64) -> u32 {
        let mut total = 0u32;
        for chunk in self.thresholds.chunks_exact(64) {
            let mut mask = 0u64;
            for (lane, &threshold) in chunk.iter().enumerate() {
                mask |= u64::from(effective_hammers >= threshold) << lane;
            }
            total += mask.count_ones();
        }
        total
    }
}

/// One `(epoch, bank, victim row)` prepared for batched hammer sessions.
///
/// Captures everything a probe needs: the addresses involved in a
/// double-sided session, the fills the session writes, the aggressor
/// on-time, and the per-cell threshold lanes for the epoch — one set for
/// hammered probes and (when the on-time differs) one for idle
/// (`hammer_count == 0`) probes, whose accumulated on-time never exceeds
/// the minimum `t_RAS`.
#[derive(Debug, Clone)]
pub struct RowBatchProfile {
    /// Measurement epoch the thresholds were drawn for.
    pub(crate) epoch: u64,
    /// Bank of the victim row.
    pub(crate) bank: usize,
    /// The victim row.
    pub(crate) victim: u32,
    /// Physical neighbor below the victim (first aggressor).
    pub(crate) below: u32,
    /// Physical neighbor above the victim (second aggressor).
    pub(crate) above: u32,
    /// Physical neighbor below the first aggressor, if any.
    pub(crate) outer_below: Option<u32>,
    /// Physical neighbor above the second aggressor, if any.
    pub(crate) outer_above: Option<u32>,
    /// Fill byte the session writes to the victim row.
    pub(crate) victim_fill: u8,
    /// Fill byte the session writes to both aggressor rows.
    pub(crate) aggressor_fill: u8,
    /// Aggressor on-time of hammered probes (ns), already clamped to the
    /// platform's `t_RAS`.
    pub(crate) hammer_t_on_ns: f64,
    /// Threshold lanes under the hammered-probe conditions.
    pub(crate) hammer: LaneThresholds,
    /// Threshold lanes for idle probes; `None` when identical to
    /// [`hammer`](Self::hammer) (the common minimum-`t_RAS` case).
    pub(crate) idle: Option<LaneThresholds>,
}

impl RowBatchProfile {
    /// Measurement epoch the profile was prepared for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bank of the victim row.
    pub fn bank(&self) -> usize {
        self.bank
    }

    /// The victim row.
    pub fn victim(&self) -> u32 {
        self.victim
    }

    /// The below aggressor row.
    pub fn below(&self) -> u32 {
        self.below
    }

    /// The above aggressor row.
    pub fn above(&self) -> u32 {
        self.above
    }

    /// Fill byte the session writes to the victim row.
    pub fn victim_fill(&self) -> u8 {
        self.victim_fill
    }

    /// Fill byte the session writes to both aggressor rows.
    pub fn aggressor_fill(&self) -> u8 {
        self.aggressor_fill
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_never_flips() {
        let lanes = LaneThresholds::new(Vec::new(), Vec::new());
        assert!(lanes.is_empty());
        let mut out = Vec::new();
        lanes.flips_into(1e18, &mut out);
        assert!(out.is_empty());
        assert_eq!(lanes.count(1e18), 0);
    }

    #[test]
    fn flips_match_scalar_compare_in_cell_order() {
        // 70 lanes spanning two words, thresholds descending so the
        // flip set grows from the back as the hammer count rises.
        let bits: Vec<u32> = (0..70).map(|i| 1000 + i).collect();
        let thresholds: Vec<f64> = (0..70).map(|i| f64::from(100 - i)).collect();
        let lanes = LaneThresholds::new(bits.clone(), thresholds.clone());
        for eff in [0.0, 30.5, 31.0, 100.0, 1e9] {
            let mut got = Vec::new();
            lanes.flips_into(eff, &mut got);
            let want: Vec<u32> =
                bits.iter().zip(&thresholds).filter(|&(_, &t)| eff >= t).map(|(&b, _)| b).collect();
            assert_eq!(got, want, "eff = {eff}");
            assert_eq!(lanes.count(eff) as usize, want.len());
        }
    }

    #[test]
    fn boundary_is_inclusive_like_the_scalar_predicate() {
        // The scalar path flips on `hammers >= threshold`; the lane
        // compare must keep the equality case.
        let lanes = LaneThresholds::new(vec![7], vec![500.0]);
        let mut out = Vec::new();
        lanes.flips_into(500.0, &mut out);
        assert_eq!(out, vec![7]);
        out.clear();
        lanes.flips_into(499.999, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn padding_lanes_stay_silent() {
        // One real lane in a 64-lane word: infinity padding must never
        // flip even at absurd hammer counts.
        let lanes = LaneThresholds::new(vec![3], vec![1.0]);
        let mut out = Vec::new();
        lanes.flips_into(f64::MAX, &mut out);
        assert_eq!(out, vec![3]);
    }

    #[test]
    #[should_panic(expected = "one threshold per cell")]
    fn mismatched_arrays_panic() {
        LaneThresholds::new(vec![1, 2], vec![1.0]);
    }
}
