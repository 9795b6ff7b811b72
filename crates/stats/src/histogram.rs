//! Equal-width histograms with the paper's Fig.-4 binning convention.
//!
//! The paper bins each RDT series into `k` equal-width bins where `k` is the
//! number of *unique* measured RDT values, with bin width
//! `(max - min) / k`. [`Histogram::with_unique_value_bins`] reproduces that;
//! [`Histogram::with_bins`] gives explicit control.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::error::StatsError;

/// An equal-width histogram over `f64` data.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), vrd_stats::StatsError> {
/// let h = vrd_stats::Histogram::with_bins(&[0.0, 0.5, 1.0, 2.0], 2)?;
/// assert_eq!(h.counts(), &[2, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Builds a histogram with `bins` equal-width bins spanning
    /// `[min(values), max(values)]`. The last bin is closed on both sides.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] if `values` is empty and
    /// [`StatsError::InvalidParameter`] if `bins` is zero.
    pub fn with_bins(values: &[f64], bins: usize) -> Result<Self, StatsError> {
        if values.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if bins == 0 {
            return Err(StatsError::InvalidParameter("bins must be nonzero"));
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let mut counts = vec![0u64; bins];
        let width = (hi - lo) / bins as f64;
        for &v in values {
            let idx = if width == 0.0 { 0 } else { (((v - lo) / width) as usize).min(bins - 1) };
            counts[idx] += 1;
        }
        Ok(Histogram { lo, hi, counts, total: values.len() as u64 })
    }

    /// Builds a histogram of an integer series using the paper's Fig.-4
    /// convention: the number of bins equals the number of unique values.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] if `values` is empty.
    pub fn with_unique_value_bins(values: &[u32]) -> Result<Self, StatsError> {
        if values.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let unique = unique_count(values);
        let as_f64: Vec<f64> = values.iter().map(|&v| f64::from(v)).collect();
        Self::with_bins(&as_f64, unique)
    }

    /// Lower bound of the histogram range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the histogram range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of modes: local maxima in the count sequence separated by a
    /// strictly lower bin. Used to detect bimodal RDT distributions like the
    /// paper observed for HBM2 Chip1 (Finding 2).
    pub fn mode_count(&self) -> usize {
        // Collapse zero-count bins, then count strictly-greater-than-
        // neighbors peaks on the collapsed profile.
        let nz: Vec<u64> = self.counts.iter().copied().filter(|&c| c > 0).collect();
        if nz.is_empty() {
            return 0;
        }
        let mut peaks = 0;
        for i in 0..nz.len() {
            let left = if i == 0 { 0 } else { nz[i - 1] };
            let right = if i + 1 == nz.len() { 0 } else { nz[i + 1] };
            if nz[i] > left && nz[i] >= right && (i + 1 == nz.len() || nz[i] > right) {
                peaks += 1;
            }
        }
        peaks.max(1)
    }
}

/// Number of distinct values in an integer series (the paper's "number of
/// unique measured RDT values", Finding 2).
///
/// # Examples
///
/// ```
/// assert_eq!(vrd_stats::histogram::unique_count(&[5, 5, 7, 9]), 3);
/// ```
pub fn unique_count(values: &[u32]) -> usize {
    values.iter().collect::<BTreeSet<_>>().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_error() {
        assert!(Histogram::with_bins(&[], 3).is_err());
        assert!(Histogram::with_unique_value_bins(&[]).is_err());
    }

    #[test]
    fn zero_bins_is_error() {
        assert!(Histogram::with_bins(&[1.0], 0).is_err());
    }

    #[test]
    fn counts_sum_to_total() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let h = Histogram::with_bins(&values, 7).unwrap();
        assert_eq!(h.counts().iter().sum::<u64>(), 100);
        assert_eq!(h.total(), 100);
    }

    #[test]
    fn max_value_lands_in_last_bin() {
        let h = Histogram::with_bins(&[0.0, 10.0], 5).unwrap();
        assert_eq!(h.counts()[4], 1);
        assert_eq!(h.counts()[0], 1);
    }

    #[test]
    fn constant_series_single_bin() {
        let h = Histogram::with_bins(&[3.0; 10], 4).unwrap();
        assert_eq!(h.counts()[0], 10);
    }

    #[test]
    fn unique_value_bins_matches_unique_count() {
        let values = [100u32, 100, 110, 120, 120, 130];
        let h = Histogram::with_unique_value_bins(&values).unwrap();
        assert_eq!(h.bins(), 4);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn unique_count_basic() {
        assert_eq!(unique_count(&[1, 1, 1]), 1);
        assert_eq!(unique_count(&[1, 2, 3]), 3);
    }

    #[test]
    fn unimodal_detected() {
        let values: Vec<f64> = vec![1.0, 2.0, 2.0, 2.0, 3.0];
        let h = Histogram::with_bins(&values, 3).unwrap();
        assert_eq!(h.mode_count(), 1);
    }

    #[test]
    fn bimodal_detected() {
        let mut values = vec![0.0; 20];
        values.extend(vec![10.0; 20]);
        values.push(5.0);
        let h = Histogram::with_bins(&values, 11).unwrap();
        assert_eq!(h.mode_count(), 2);
    }
}
