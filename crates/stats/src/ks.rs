//! The two-sample Kolmogorov–Smirnov test.
//!
//! A binning-free comparison of two measurement series: campaigns use it
//! to ask "did the RDT distribution change between conditions?"
//! (Findings 12–16).

use serde::{Deserialize, Serialize};

use crate::error::StatsError;

/// Outcome of a KS test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KsResult {
    /// The KS statistic (max CDF distance).
    pub statistic: f64,
    /// Asymptotic p-value (Kolmogorov distribution).
    pub p_value: f64,
}

impl KsResult {
    /// Whether the null hypothesis ("same distribution") survives at
    /// level `alpha`.
    pub fn same_distribution(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

/// Asymptotic Kolmogorov survival function
/// `Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}`.
fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda < 1e-3 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64).powi(2) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Two-sample KS test between `a` and `b`.
///
/// # Errors
///
/// Returns [`StatsError::TooFewSamples`] if either sample has fewer than
/// 8 values.
pub fn ks_test_two_sample(a: &[f64], b: &[f64]) -> Result<KsResult, StatsError> {
    for sample in [a, b] {
        if sample.len() < 8 {
            return Err(StatsError::TooFewSamples { required: 8, actual: sample.len() });
        }
    }
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).expect("non-NaN values"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("non-NaN values"));
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d = 0.0f64;
    while i < sa.len() && j < sb.len() {
        let xa = sa[i];
        let xb = sb[j];
        let x = xa.min(xb);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    let ne = na * nb / (na + nb);
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    Ok(KsResult { statistic: d, p_value: kolmogorov_sf(lambda) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn two_samples_from_same_distribution_pass() {
        let mut rng = StdRng::seed_from_u64(4);
        let a: Vec<f64> =
            (0..2000).map(|_| crate::normal::sample_normal(&mut rng, 5.0, 1.0)).collect();
        let b: Vec<f64> =
            (0..2000).map(|_| crate::normal::sample_normal(&mut rng, 5.0, 1.0)).collect();
        let r = ks_test_two_sample(&a, &b).unwrap();
        assert!(r.same_distribution(0.05), "p = {}", r.p_value);
    }

    #[test]
    fn two_samples_with_different_spread_fail() {
        let mut rng = StdRng::seed_from_u64(5);
        let a: Vec<f64> =
            (0..2000).map(|_| crate::normal::sample_normal(&mut rng, 5.0, 1.0)).collect();
        let b: Vec<f64> =
            (0..2000).map(|_| crate::normal::sample_normal(&mut rng, 5.0, 1.6)).collect();
        let r = ks_test_two_sample(&a, &b).unwrap();
        assert!(!r.same_distribution(0.05));
    }

    #[test]
    fn statistic_is_bounded() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let b = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0];
        let r = ks_test_two_sample(&a, &b).unwrap();
        assert!((r.statistic - 1.0).abs() < 1e-12, "disjoint supports give D = 1");
        assert!(r.p_value < 0.01);
    }

    #[test]
    fn too_few_samples_error() {
        assert!(ks_test_two_sample(&[1.0; 5], &[1.0; 20]).is_err());
    }

    #[test]
    fn kolmogorov_sf_limits() {
        assert!((kolmogorov_sf(0.0) - 1.0).abs() < 1e-9);
        assert!(kolmogorov_sf(3.0) < 1e-6);
        // Known value: Q(1.0) ≈ 0.27.
        assert!((kolmogorov_sf(1.0) - 0.27).abs() < 0.01);
    }
}
