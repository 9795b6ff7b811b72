//! Minimum-RDT subsampling analysis (paper §5.1, Figs. 8–12, 15, 25).
//!
//! The paper treats the 1,000 recorded RDT measurements of a row as the
//! row's RDT population, then asks: with only `N < 1000` measurements,
//! what is the probability of observing the population minimum, and how
//! far above it does the sample minimum sit in expectation? The paper
//! answers by 10,000-iteration Monte-Carlo subsampling; this module
//! computes the same quantities in exact combinatorial form
//! (hypergeometric order statistics). The root test suite keeps the
//! Monte-Carlo estimators as an oracle and checks that they agree.

use serde::{Deserialize, Serialize};

use crate::series::RdtSeries;

/// The measurement counts the paper evaluates (Figs. 8 and 25).
pub const PAPER_N_VALUES: [usize; 6] = [1, 3, 5, 10, 50, 500];

/// The guardband margins the paper evaluates (Fig. 15), as fractions.
pub const PAPER_MARGINS: [f64; 5] = [0.10, 0.20, 0.30, 0.40, 0.50];

/// Per-row, per-N subsampling statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinRdtStats {
    /// Subsample size N.
    pub n: usize,
    /// Probability that N measurements include the population minimum.
    pub p_find_min: f64,
    /// Expected minimum of N measurements, normalized to the population
    /// minimum (the paper's "expected normalized value of the minimum
    /// RDT"; ≥ 1).
    pub expected_normalized_min: f64,
}

/// Exact probability that a uniform without-replacement subsample of size
/// `n` from the series contains the series minimum:
/// `1 − C(len − c, n) / C(len, n)`, where `c` counts the minimum's
/// occurrences.
///
/// # Panics
///
/// Panics if the series is empty or `n` is not in `1..=len`.
pub fn exact_p_find_min(series: &RdtSeries, n: usize) -> f64 {
    let values = series.values();
    assert!(!values.is_empty(), "series must be non-empty");
    let len = values.len();
    assert!(n >= 1 && n <= len, "n must be in 1..=len");
    let global_min = *values.iter().min().expect("non-empty");
    let c = values.iter().filter(|&&v| v == global_min).count();
    if n > len - c {
        return 1.0;
    }
    // C(len-c, n) / C(len, n) = prod_{i=0..n-1} (len - c - i) / (len - i)
    let mut ratio = 1.0f64;
    for i in 0..n {
        ratio *= (len - c - i) as f64 / (len - i) as f64;
    }
    1.0 - ratio
}

/// Exact expected minimum of an `n`-subsample, normalized to the series
/// minimum, via hypergeometric order statistics:
/// `P(min > v) = C(#{x > v}, n) / C(len, n)`.
///
/// # Panics
///
/// Panics if the series is empty or `n` is not in `1..=len`.
pub fn exact_expected_normalized_min(series: &RdtSeries, n: usize) -> f64 {
    let values = series.values();
    assert!(!values.is_empty(), "series must be non-empty");
    let len = values.len();
    assert!(n >= 1 && n <= len, "n must be in 1..=len");
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let global_min = f64::from(sorted[0]);
    // E[min] = Σ_v v · P(min = v) over distinct values.
    // P(min >= sorted[i]) = C(len - i, n) / C(len, n) — the sample must
    // avoid the i smallest entries.
    let tail_prob = |avoid: usize| -> f64 {
        if len - avoid < n {
            return 0.0;
        }
        let mut r = 1.0f64;
        for j in 0..n {
            r *= (len - avoid - j) as f64 / (len - j) as f64;
        }
        r
    };
    let mut expected = 0.0f64;
    let mut i = 0usize;
    while i < len {
        let v = sorted[i];
        let mut j = i;
        while j < len && sorted[j] == v {
            j += 1;
        }
        let p_ge_this = tail_prob(i);
        let p_ge_next = tail_prob(j);
        expected += f64::from(v) * (p_ge_this - p_ge_next);
        i = j;
    }
    expected / global_min
}

/// Exact statistics for one `n`.
pub fn exact_stats(series: &RdtSeries, n: usize) -> MinRdtStats {
    MinRdtStats {
        n,
        p_find_min: exact_p_find_min(series, n),
        expected_normalized_min: exact_expected_normalized_min(series, n),
    }
}

/// Probability that an `n`-subsample's minimum lies within `margin`
/// (fractional) of the series minimum — the paper's Fig. 15 metric — in
/// exact form: `1 − C(#{x > (1+margin)·min}, n) / C(len, n)`.
///
/// # Panics
///
/// Panics if the series is empty, `n` not in `1..=len`, or `margin < 0`.
pub fn exact_p_within_margin(series: &RdtSeries, n: usize, margin: f64) -> f64 {
    assert!(margin >= 0.0, "margin must be non-negative");
    let values = series.values();
    assert!(!values.is_empty(), "series must be non-empty");
    let len = values.len();
    assert!(n >= 1 && n <= len, "n must be in 1..=len");
    let threshold = f64::from(values.iter().copied().min().expect("non-empty")) * (1.0 + margin);
    let above = values.iter().filter(|&&v| f64::from(v) > threshold).count();
    // P(all n sampled values > threshold) = C(above, n) / C(len, n);
    // zero when fewer than n values lie above the threshold.
    let mut r = 1.0f64;
    for j in 0..n {
        if above < j + 1 {
            r = 0.0;
            break;
        }
        r *= (above - j) as f64 / (len - j) as f64;
    }
    1.0 - r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> RdtSeries {
        // 100 values, minimum 900 appearing 3 times.
        let mut v: Vec<u32> = (0..97).map(|i| 1_000 + (i * 13) % 400).collect();
        v.extend([900, 900, 900]);
        RdtSeries::new(v, 0)
    }

    #[test]
    fn exact_p_find_min_full_sample_is_one() {
        let s = series();
        assert_eq!(exact_p_find_min(&s, 100), 1.0);
    }

    #[test]
    fn exact_p_find_min_single_draw() {
        let s = series();
        assert!((exact_p_find_min(&s, 1) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn exact_expected_min_is_at_least_one_and_decreasing() {
        let s = series();
        let mut prev = f64::INFINITY;
        for n in [1, 3, 5, 10, 50, 100] {
            let e = exact_expected_normalized_min(&s, n);
            assert!(e >= 1.0 - 1e-12, "n={n}: {e}");
            assert!(e <= prev + 1e-12, "expected min must shrink with n");
            prev = e;
        }
        assert!((exact_expected_normalized_min(&s, 100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn margin_probability_grows_with_margin_and_n() {
        let s = series();
        let p_small = exact_p_within_margin(&s, 5, 0.1);
        let p_wide = exact_p_within_margin(&s, 5, 0.5);
        assert!(p_wide >= p_small);
        let p_few = exact_p_within_margin(&s, 1, 0.1);
        let p_many = exact_p_within_margin(&s, 50, 0.1);
        assert!(p_many >= p_few);
    }

    #[test]
    fn margin_zero_equals_find_min_for_unique_min() {
        let s = series();
        // margin 0 keeps only values ≤ min ⇒ same as finding the min.
        assert!((exact_p_within_margin(&s, 7, 0.0) - exact_p_find_min(&s, 7)).abs() < 1e-12);
    }

    #[test]
    fn constant_series_always_finds_min() {
        let s = RdtSeries::new(vec![500; 50], 0);
        assert_eq!(exact_p_find_min(&s, 1), 1.0);
        assert_eq!(exact_expected_normalized_min(&s, 1), 1.0);
        assert_eq!(exact_p_within_margin(&s, 1, 0.1), 1.0);
    }

    #[test]
    fn paper_constants() {
        assert_eq!(PAPER_N_VALUES, [1, 3, 5, 10, 50, 500]);
        assert_eq!(PAPER_MARGINS.len(), 5);
    }
}
