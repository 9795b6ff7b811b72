//! Sorted percentile curves ("S-curves", paper Fig. 7a).
//!
//! The paper plots the coefficient of variation of every tested DRAM row,
//! sorted ascending, and marks percentile points (P50, P100). [`SCurve`]
//! captures that: a sorted copy of the data with percentile lookup.

use serde::{Deserialize, Serialize};

use crate::descriptive::percentile_of_sorted;
use crate::error::StatsError;

/// An ascending-sorted series with percentile lookup.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), vrd_stats::StatsError> {
/// let s = vrd_stats::SCurve::from_values(vec![0.5, 0.03, 0.52, 0.1])?;
/// assert_eq!(s.max(), 0.52);
/// assert!(s.value_at_percentile(50.0) >= 0.03);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SCurve {
    sorted: Vec<f64>,
}

impl SCurve {
    /// Builds an S-curve from unsorted `values` (takes ownership, sorts in
    /// place).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] if `values` is empty.
    pub fn from_values(mut values: Vec<f64>) -> Result<Self, StatsError> {
        if values.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN values"));
        Ok(SCurve { sorted: values })
    }

    /// The sorted values (the y-series of the S-curve; x is the index).
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the curve is empty (never true for a constructed curve).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Smallest value (P0).
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest value (P100).
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Interpolated value at percentile `p` in `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn value_at_percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        percentile_of_sorted(&self.sorted, p)
    }

    /// Fraction of points strictly greater than `threshold` (e.g. the
    /// paper's "50% of rows have CV > 0.03").
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        let first_above = self.sorted.partition_point(|&v| v <= threshold);
        (self.sorted.len() - first_above) as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_error() {
        assert_eq!(SCurve::from_values(vec![]), Err(StatsError::EmptyInput));
    }

    #[test]
    fn sorted_ascending() {
        let s = SCurve::from_values(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn percentile_lookup() {
        let s = SCurve::from_values((0..=100).map(f64::from).collect()).unwrap();
        assert_eq!(s.value_at_percentile(0.0), 0.0);
        assert_eq!(s.value_at_percentile(50.0), 50.0);
        assert_eq!(s.value_at_percentile(100.0), 100.0);
    }

    #[test]
    fn fraction_above_threshold() {
        let s = SCurve::from_values(vec![0.0, 0.1, 0.2, 0.3]).unwrap();
        assert_eq!(s.fraction_above(0.15), 0.5);
        assert_eq!(s.fraction_above(1.0), 0.0);
        assert_eq!(s.fraction_above(-1.0), 1.0);
    }

    #[test]
    fn fraction_above_is_strict() {
        let s = SCurve::from_values(vec![1.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.fraction_above(1.0), 0.5);
    }
}
