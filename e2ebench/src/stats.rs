//! Order statistics for timing samples.
//!
//! Quantiles use the "exclusive" method of Python's
//! `statistics.quantiles`, so a spread printed here is the spread a
//! reader recomputes from the printed samples with the standard library.

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `q`-quantile cut points `1/q .. (q-1)/q` by the exclusive
/// method (`statistics.quantiles(samples, n=q)`). One sample yields that
/// sample for every cut point.
///
/// # Panics
///
/// Panics on an empty slice or `q < 2`.
pub fn quantiles(samples: &[f64], q: usize) -> Vec<f64> {
    assert!(!samples.is_empty(), "quantiles of no samples");
    assert!(q >= 2, "need at least two intervals");
    let s = sorted(samples);
    let ld = s.len();
    if ld == 1 {
        return vec![s[0]; q - 1];
    }
    let m = ld + 1;
    (1..q)
        .map(|i| {
            let j = (i * m / q).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * q) as f64;
            (s[j - 1] * (q as f64 - delta) + s[j] * delta) / q as f64
        })
        .collect()
}

/// First quartile, median, third quartile.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let q = quantiles(samples, 4);
    (q[0], median(samples), q[2])
}

/// The interquartile range as a share of the median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// The `p`-th percentile (0 < p < 100) by the same exclusive method.
pub fn percentile(samples: &[f64], p: usize) -> f64 {
    quantiles(samples, 100)[p - 1]
}

/// Samples strictly above `value`.
pub fn beyond(samples: &[f64], value: f64) -> usize {
    samples.iter().filter(|&&x| x > value).count()
}

/// Candidate tail percentiles, highest first.
pub const TAIL_PERCENTILES: [usize; 4] = [99, 95, 90, 75];

/// The samples a percentile needs beyond it before it is printed.
pub const MIN_BEYOND: usize = 10;

/// The highest tail percentile with at least [`MIN_BEYOND`] samples
/// beyond it, with its value; `None` when the sample is too small for
/// any of them.
pub fn reportable_tail(samples: &[f64]) -> Option<(usize, f64)> {
    if samples.len() < 2 {
        return None;
    }
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let v = percentile(samples, p);
        (beyond(samples, v) >= MIN_BEYOND).then_some((p, v))
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&xs, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quantiles(&[5.0, 1.0, 4.0, 2.0, 3.0], 4), vec![1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[1.0, 2.0], 4), vec![0.75, 1.5, 2.25]);
        let (q1, med, q3) = quartiles(&xs);
        assert_eq!((q1, med, q3), (2.75, 5.5, 8.25));
        assert!((iqr_share(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_monotone() {
        // The exclusive method may extrapolate past the extremes for the
        // outermost percentiles, as Python's does; it never decreases.
        let xs: Vec<f64> = (0..57).map(|i| f64::from(i * 7 % 57)).collect();
        let mut last = f64::NEG_INFINITY;
        for p in 1..100 {
            let v = percentile(&xs, p);
            assert!(v >= last);
            last = v;
        }
        assert_eq!(percentile(&xs, 50), median(&xs));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: p75 leaves 4 above it, so nothing is printed.
        let small: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(reportable_tail(&small), None);
        // 40 samples: p75 = 30.75 leaves exactly 10 above it; p90 does not.
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        let (p, v) = reportable_tail(&forty).expect("p75 has ten beyond");
        assert_eq!(p, 75);
        assert_eq!(beyond(&forty, v), 10);
        assert!(beyond(&forty, percentile(&forty, 90)) < MIN_BEYOND);
        // 39 samples: p75 = 30.0 leaves only 9 above it.
        let thirty_nine: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(reportable_tail(&thirty_nine), None);
        // 1000 samples: p99 leaves 10 above it.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(reportable_tail(&many).map(|(p, _)| p), Some(99));
    }

    #[test]
    fn ties_do_not_count_as_beyond() {
        let flat = vec![1.0; 100];
        assert_eq!(reportable_tail(&flat), None);
    }
}
