//! The paper's §5.1 Monte-Carlo subsampling, kept as a test oracle.
//!
//! The paper estimates P(find min RDT | N), the expected normalized
//! minimum and the within-margin probability by drawing 10,000 uniform
//! N-subsamples of a row's recorded measurements.
//! `vrd::core::montecarlo` computes the same quantities in exact
//! hypergeometric form; suites include this file via
//! `#[path = "util/subsample.rs"] mod subsample;` and check that the
//! two agree within binomial error. The draws take a caller-seeded RNG,
//! so they are reproducible.

use rand::Rng;

use vrd::core::montecarlo::MinRdtStats;
use vrd::core::RdtSeries;

/// Uniformly samples `k` distinct indices from `0..n` (partial
/// Fisher–Yates). The result is unordered.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_indices_without_replacement<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    k: usize,
) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} of {n} without replacement");
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// The minimum of one uniform `k`-subsample of `values`.
fn subsample_min<R: Rng + ?Sized>(rng: &mut R, values: &[u32], k: usize) -> u32 {
    let idx = sample_indices_without_replacement(rng, values.len(), k);
    idx.iter().map(|&i| values[i]).min().expect("k > 0")
}

/// Estimates, by `iterations` draws, the expected minimum of `k` values
/// uniformly subsampled (without replacement) from `values`, and the
/// probability that this minimum equals the global minimum of `values`.
///
/// Returns `(expected_min, probability_of_global_min)`.
///
/// # Panics
///
/// Panics if `values` is empty, `k` is not in `1..=values.len()`, or
/// `iterations == 0`.
pub fn subsample_min_statistics<R: Rng + ?Sized>(
    rng: &mut R,
    values: &[u32],
    k: usize,
    iterations: usize,
) -> (f64, f64) {
    assert!(!values.is_empty(), "values must be non-empty");
    assert!(k > 0 && k <= values.len(), "k must be in 1..=len");
    assert!(iterations > 0, "iterations must be nonzero");
    let global_min = *values.iter().min().expect("non-empty");
    let mut sum_min = 0.0f64;
    let mut hits = 0usize;
    for _ in 0..iterations {
        let m = subsample_min(rng, values, k);
        sum_min += f64::from(m);
        hits += usize::from(m == global_min);
    }
    (sum_min / iterations as f64, hits as f64 / iterations as f64)
}

/// The fraction of `iterations` uniform `k`-subsamples of `values` whose
/// minimum lies at or below `threshold`.
///
/// # Panics
///
/// Panics if `k` is not in `1..=values.len()` or `iterations == 0`.
pub fn within_margin_rate<R: Rng + ?Sized>(
    rng: &mut R,
    values: &[u32],
    k: usize,
    threshold: f64,
    iterations: usize,
) -> f64 {
    assert!(k > 0 && k <= values.len(), "k must be in 1..=len");
    assert!(iterations > 0, "iterations must be nonzero");
    let hits = (0..iterations).filter(|_| f64::from(subsample_min(rng, values, k)) <= threshold);
    hits.count() as f64 / iterations as f64
}

/// The paper's §5.1 estimate of [`vrd::core::montecarlo::exact_stats`]:
/// `iterations` uniform subsamples of size `n`.
pub fn monte_carlo_stats<R: Rng + ?Sized>(
    rng: &mut R,
    series: &RdtSeries,
    n: usize,
    iterations: usize,
) -> MinRdtStats {
    let (expected_min, p_find) = subsample_min_statistics(rng, series.values(), n, iterations);
    let global_min = f64::from(series.min().expect("non-empty series"));
    MinRdtStats { n, p_find_min: p_find, expected_normalized_min: expected_min / global_min }
}

/// The paper's Fig.-15 estimate of
/// [`vrd::core::montecarlo::exact_p_within_margin`]: the rate at which
/// an `n`-subsample's minimum lies within `margin` (fractional) of the
/// series minimum.
pub fn monte_carlo_p_within_margin<R: Rng + ?Sized>(
    rng: &mut R,
    series: &RdtSeries,
    n: usize,
    margin: f64,
    iterations: usize,
) -> f64 {
    assert!(margin >= 0.0, "margin must be non-negative");
    let threshold = f64::from(series.min().expect("non-empty series")) * (1.0 + margin);
    within_margin_rate(rng, series.values(), n, threshold, iterations)
}
