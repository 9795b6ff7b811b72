//! Monte-Carlo utilities: subsampling and its exact probabilities.
//!
//! The paper's §5.1 analysis runs 10,000 Monte-Carlo iterations per row,
//! uniformly randomly selecting N of the 1,000 recorded RDT measurements.
//! The draws take a caller-seeded RNG, so they are reproducible.

use rand::Rng;

/// Uniformly samples `k` distinct indices from `0..n` (partial
/// Fisher–Yates). The result is unordered.
///
/// # Panics
///
/// Panics if `k > n`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let idx = vrd_stats::sample_indices_without_replacement(&mut rng, 10, 3);
/// assert_eq!(idx.len(), 3);
/// assert!(idx.iter().all(|&i| i < 10));
/// ```
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

/// Estimates, by `iterations` Monte-Carlo draws, the expected minimum of
/// `k` values uniformly subsampled (without replacement) from `values`, and
/// the probability that this minimum equals the global minimum of `values`.
///
/// Returns `(expected_min, probability_of_global_min)`.
///
/// # Panics
///
/// Panics if `values` is empty, `k == 0`, `k > values.len()`, or
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
        let idx = sample_indices_without_replacement(rng, values.len(), k);
        let m = idx.iter().map(|&i| values[i]).min().expect("k > 0");
        sum_min += f64::from(m);
        if m == global_min {
            hits += 1;
        }
    }
    (sum_min / iterations as f64, hits as f64 / iterations as f64)
}

/// Exact (combinatorial) probability that a uniform without-replacement
/// subsample of size `k` from `values` contains at least one occurrence of
/// the global minimum:
/// `1 - C(n - c, k) / C(n, k)` where `c` counts the minimum's occurrences.
///
/// This is the closed form behind the paper's "probability of finding the
/// minimum RDT with N measurements"; the Monte-Carlo estimate of
/// [`subsample_min_statistics`] converges to it.
///
/// # Panics
///
/// Panics if `values` is empty or `k` is not in `1..=values.len()`.
pub fn exact_min_hit_probability(values: &[u32], k: usize) -> f64 {
    assert!(!values.is_empty(), "values must be non-empty");
    assert!(k > 0 && k <= values.len(), "k must be in 1..=len");
    let n = values.len();
    let global_min = *values.iter().min().expect("non-empty");
    let c = values.iter().filter(|&&v| v == global_min).count();
    if k > n - c {
        return 1.0;
    }
    // C(n-c, k) / C(n, k) = prod_{i=0..k-1} (n - c - i) / (n - i)
    let mut ratio = 1.0f64;
    for i in 0..k {
        ratio *= (n - c - i) as f64 / (n - i) as f64;
    }
    1.0 - ratio
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_without_replacement_distinct() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let mut idx = sample_indices_without_replacement(&mut rng, 20, 20);
            idx.sort_unstable();
            assert_eq!(idx, (0..20).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "without replacement")]
    fn sample_more_than_n_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        sample_indices_without_replacement(&mut rng, 3, 4);
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            for i in sample_indices_without_replacement(&mut rng, 10, 3) {
                counts[i] += 1;
            }
        }
        // Each index expected 3000 times.
        for &c in &counts {
            assert!((f64::from(c) - 3000.0).abs() < 300.0, "counts {counts:?}");
        }
    }

    #[test]
    fn subsample_full_always_hits_min() {
        let mut rng = StdRng::seed_from_u64(1);
        let values = [5u32, 9, 3, 7];
        let (emin, p) = subsample_min_statistics(&mut rng, &values, 4, 100);
        assert_eq!(emin, 3.0);
        assert_eq!(p, 1.0);
    }

    #[test]
    fn subsample_single_expected_value() {
        let mut rng = StdRng::seed_from_u64(2);
        let values = [10u32, 20];
        let (emin, p) = subsample_min_statistics(&mut rng, &values, 1, 50_000);
        assert!((emin - 15.0).abs() < 0.5);
        assert!((p - 0.5).abs() < 0.02);
    }

    #[test]
    fn exact_probability_matches_monte_carlo() {
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<u32> = (0..100).map(|i| 1000 + (i * 37) % 50).collect();
        for &k in &[1usize, 5, 20, 50] {
            let exact = exact_min_hit_probability(&values, k);
            let (_, mc) = subsample_min_statistics(&mut rng, &values, k, 20_000);
            assert!((exact - mc).abs() < 0.02, "k={k}: exact {exact} vs mc {mc}");
        }
    }

    #[test]
    fn exact_probability_monotone_in_k() {
        let values: Vec<u32> = (0..1000).map(|i| 500 + (i % 97)).collect();
        let mut prev = 0.0;
        for k in [1, 3, 5, 10, 50, 500] {
            let p = exact_min_hit_probability(&values, k);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn exact_probability_certain_when_k_exceeds_non_min() {
        // 3 values, 2 are the minimum: any 2-subset must include a min.
        let values = [1u32, 1, 9];
        assert_eq!(exact_min_hit_probability(&values, 2), 1.0);
    }
}
