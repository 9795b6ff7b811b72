//! The Monte-Carlo subsampling oracle (`util/subsample.rs`) and its
//! agreement with the exact §5.1 forms in `vrd::core::montecarlo`.
//!
//! The sampler and estimators are checked on their own first (distinct,
//! uniform, exact on degenerate inputs), then against
//! [`exact_p_find_min`], [`exact_stats`] and [`exact_p_within_margin`]
//! on synthetic series.

#[path = "util/subsample.rs"]
mod subsample;

use rand::rngs::StdRng;
use rand::SeedableRng;

use subsample::{
    monte_carlo_p_within_margin, monte_carlo_stats, sample_indices_without_replacement,
    subsample_min_statistics,
};
use vrd::core::montecarlo::{exact_p_find_min, exact_p_within_margin, exact_stats, PAPER_MARGINS};
use vrd::core::RdtSeries;

// ----- the sampler and the estimators ------------------------------------

#[test]
fn sample_returns_k_indices_below_n() {
    let mut rng = StdRng::seed_from_u64(0);
    let idx = sample_indices_without_replacement(&mut rng, 10, 3);
    assert_eq!(idx.len(), 3);
    assert!(idx.iter().all(|&i| i < 10));
}

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

// ----- exact against the oracle ------------------------------------------

#[test]
fn exact_probability_matches_monte_carlo() {
    let mut rng = StdRng::seed_from_u64(3);
    let values: Vec<u32> = (0..100).map(|i| 1000 + (i * 37) % 50).collect();
    let series = RdtSeries::new(values.clone(), 0);
    for &k in &[1usize, 5, 20, 50] {
        let exact = exact_p_find_min(&series, k);
        let (_, mc) = subsample_min_statistics(&mut rng, &values, k, 20_000);
        assert!((exact - mc).abs() < 0.02, "k={k}: exact {exact} vs mc {mc}");
    }
}

#[test]
fn exact_probability_monotone_in_k() {
    let series = RdtSeries::new((0..1000).map(|i| 500 + (i % 97)).collect(), 0);
    let mut prev = 0.0;
    for k in [1, 3, 5, 10, 50, 500] {
        let p = exact_p_find_min(&series, k);
        assert!(p >= prev);
        prev = p;
    }
}

#[test]
fn exact_probability_certain_when_k_exceeds_non_min() {
    // 3 values, 2 are the minimum: any 2-subset must include a min.
    let series = RdtSeries::new(vec![1, 1, 9], 0);
    assert_eq!(exact_p_find_min(&series, 2), 1.0);
}

/// 100 values, minimum 900 appearing 3 times.
fn series() -> RdtSeries {
    let mut v: Vec<u32> = (0..97).map(|i| 1_000 + (i * 13) % 400).collect();
    v.extend([900, 900, 900]);
    RdtSeries::new(v, 0)
}

#[test]
fn monte_carlo_agrees_with_exact() {
    let s = series();
    let mut rng = StdRng::seed_from_u64(0);
    for n in [1usize, 5, 20] {
        let exact = exact_stats(&s, n);
        let mc = monte_carlo_stats(&mut rng, &s, n, 20_000);
        assert!(
            (exact.p_find_min - mc.p_find_min).abs() < 0.02,
            "n={n}: {} vs {}",
            exact.p_find_min,
            mc.p_find_min
        );
        assert!(
            (exact.expected_normalized_min - mc.expected_normalized_min).abs() < 0.02,
            "n={n}: {} vs {}",
            exact.expected_normalized_min,
            mc.expected_normalized_min
        );
    }
}

#[test]
fn margin_probability_exact_matches_monte_carlo() {
    let s = series();
    let mut rng = StdRng::seed_from_u64(1);
    for &margin in &PAPER_MARGINS {
        for n in [1usize, 10, 50] {
            let exact = exact_p_within_margin(&s, n, margin);
            let mc = monte_carlo_p_within_margin(&mut rng, &s, n, margin, 20_000);
            assert!((exact - mc).abs() < 0.02, "n={n} margin={margin}: {exact} vs {mc}");
        }
    }
}
