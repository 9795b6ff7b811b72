//! Spatial variation of read-disturbance vulnerability.
//!
//! The paper's row-selection methodology (§5: scan the *first, middle,
//! and last* 1,024 rows of a bank) exists because RDT varies spatially
//! across a bank in an unpredictable way (the paper's reference \[134\],
//! "Spatial Variation-Aware Read Disturbance Defenses"). Two spatial
//! structures dominate: DRAM banks are tiled into *subarrays* of a few
//! hundred rows, and rows near a subarray boundary sit next to the
//! sense-amplifier stripe, giving them systematically different (usually
//! lower) disturbance thresholds, on top of random row-to-row variation.
//!
//! [`SpatialProfile`] captures both: a per-subarray lognormal factor and
//! a deterministic edge-row weakening. The device model multiplies weak
//! cells' base thresholds by [`SpatialProfile::factor`].

use serde::{Deserialize, Serialize};

/// Spatial threshold structure of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpatialProfile {
    /// Rows per subarray tile.
    pub subarray_rows: u32,
    /// Threshold multiplier for rows adjacent to the subarray edge
    /// (typically < 1: edge rows are weaker).
    pub edge_factor: f64,
    /// How many rows at each subarray boundary count as "edge".
    pub edge_rows: u32,
    /// Sigma (ln units) of the per-subarray random factor.
    pub subarray_sigma: f64,
}

impl SpatialProfile {
    /// A typical DDR4 layout: 512-row subarrays whose two boundary rows
    /// are ~12% weaker, with ±5% subarray-to-subarray variation.
    pub fn ddr4_default() -> Self {
        SpatialProfile { subarray_rows: 512, edge_factor: 0.88, edge_rows: 2, subarray_sigma: 0.05 }
    }

    /// A flat profile (no spatial structure).
    pub fn flat() -> Self {
        SpatialProfile {
            subarray_rows: u32::MAX,
            edge_factor: 1.0,
            edge_rows: 0,
            subarray_sigma: 0.0,
        }
    }

    /// A wide spatial spread: the order-of-magnitude row-to-row
    /// disturbance-threshold variation that spatial-variation studies
    /// report across a bank (the paper's reference \[134\]), versus the
    /// mild ±5% of [`ddr4_default`](Self::ddr4_default). Used by the
    /// spatial-aware-defense evaluation, where the gap between the
    /// weakest and strongest subarrays is what a profile-driven
    /// mitigation exploits.
    pub fn wide() -> Self {
        SpatialProfile { subarray_rows: 512, edge_factor: 0.5, edge_rows: 2, subarray_sigma: 0.45 }
    }

    /// The smallest spatial factor over a physical-row range — the
    /// worst case a defense covering those rows must be configured for.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn min_factor_in(&self, rows: std::ops::Range<u32>, device_seed: u64) -> f64 {
        assert!(!rows.is_empty(), "need at least one row");
        rows.map(|r| self.factor(r, device_seed)).fold(f64::INFINITY, f64::min)
    }

    /// The physical row with the smallest spatial factor in a range,
    /// with its factor — the most vulnerable row a spatial-aware
    /// attacker would target in that region. Ties resolve to the lowest
    /// row.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn min_factor_row_in(&self, rows: std::ops::Range<u32>, device_seed: u64) -> (u32, f64) {
        assert!(!rows.is_empty(), "need at least one row");
        let mut best = (rows.start, f64::INFINITY);
        for row in rows {
            let f = self.factor(row, device_seed);
            if f < best.1 {
                best = (row, f);
            }
        }
        best
    }

    /// The subarray index of a physical row.
    pub fn subarray_of(&self, physical_row: u32) -> u32 {
        physical_row / self.subarray_rows.max(1)
    }

    /// Whether a physical row sits at a subarray edge.
    pub fn is_edge_row(&self, physical_row: u32) -> bool {
        if self.edge_rows == 0 || self.subarray_rows == u32::MAX {
            return false;
        }
        let offset = physical_row % self.subarray_rows;
        offset < self.edge_rows || offset >= self.subarray_rows - self.edge_rows
    }

    /// Deterministic spatial threshold factor for a physical row, given
    /// the device seed: subarray lognormal × edge weakening.
    pub fn factor(&self, physical_row: u32, device_seed: u64) -> f64 {
        let mut f = 1.0;
        if self.is_edge_row(physical_row) {
            f *= self.edge_factor;
        }
        if self.subarray_sigma > 0.0 && self.subarray_rows != u32::MAX {
            let sub = u64::from(self.subarray_of(physical_row));
            let n = crate::keyed::hashed_normal(device_seed, sub, 0x50A7_1A11);
            f *= (self.subarray_sigma * n).exp();
        }
        f
    }
}

impl Default for SpatialProfile {
    fn default() -> Self {
        SpatialProfile::ddr4_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_rows_detected() {
        let p = SpatialProfile::ddr4_default();
        assert!(p.is_edge_row(0));
        assert!(p.is_edge_row(1));
        assert!(!p.is_edge_row(2));
        assert!(!p.is_edge_row(509));
        assert!(p.is_edge_row(510));
        assert!(p.is_edge_row(511));
        assert!(p.is_edge_row(512));
    }

    #[test]
    fn flat_profile_is_identity() {
        let p = SpatialProfile::flat();
        for row in [0u32, 1, 511, 512, 100_000] {
            assert_eq!(p.factor(row, 42), 1.0);
            assert!(!p.is_edge_row(row));
        }
    }

    #[test]
    fn edge_rows_are_weaker() {
        let p = SpatialProfile::ddr4_default();
        let edge = p.factor(512, 7);
        let inner = p.factor(512 + 100, 7);
        // Same subarray factor; the edge row additionally weakened.
        assert!((edge / inner - p.edge_factor).abs() < 1e-12);
    }

    #[test]
    fn subarray_factor_is_deterministic_and_varies() {
        let p = SpatialProfile::ddr4_default();
        assert_eq!(p.factor(100, 3), p.factor(100, 3));
        // Rows in the same subarray share the factor.
        assert_eq!(p.factor(100, 3), p.factor(200, 3));
        // Across many subarrays the factors differ.
        let distinct: std::collections::BTreeSet<u64> =
            (0..50u32).map(|s| p.factor(s * 512 + 100, 3).to_bits()).collect();
        assert!(distinct.len() > 30, "subarray factors must vary");
    }

    #[test]
    fn subarray_factor_centered_near_one() {
        let p = SpatialProfile::ddr4_default();
        let mean: f64 = (0..400u32).map(|s| p.factor(s * 512 + 100, 11)).sum::<f64>() / 400.0;
        assert!((mean - 1.0).abs() < 0.05, "mean subarray factor {mean}");
    }

    #[test]
    fn different_seeds_reshuffle_subarrays() {
        let p = SpatialProfile::ddr4_default();
        let a: Vec<u64> = (0..20u32).map(|s| p.factor(s * 512 + 9, 1).to_bits()).collect();
        let b: Vec<u64> = (0..20u32).map(|s| p.factor(s * 512 + 9, 2).to_bits()).collect();
        assert_ne!(a, b);
    }
}
