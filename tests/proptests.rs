//! Property-based tests over the core data structures and invariants,
//! spanning crates.

use proptest::prelude::*;

use vrd::core::montecarlo::{exact_expected_normalized_min, exact_p_find_min};
use vrd::core::{RdtSeries, SweepSpec};
use vrd::dram::RowMapping;
use vrd::ecc::hamming::Secded72;
use vrd::ecc::rs::Ssc18;
use vrd::ecc::DecodeOutcome;
use vrd::stats::{BoxSummary, Histogram};

proptest! {
    #[test]
    fn row_mappings_are_bijective(logical in 0u32..(1 << 20)) {
        for scheme in RowMapping::ALL {
            let phys = scheme.physical_of(logical);
            prop_assert_eq!(scheme.logical_of(phys), logical);
        }
    }

    #[test]
    fn neighbors_are_physically_adjacent(logical in 1u32..65_535) {
        let rows = 65_536;
        for scheme in RowMapping::ALL {
            let (below, above) = scheme.neighbors_of(logical, rows);
            let phys = scheme.physical_of(logical);
            if let Some(b) = below {
                prop_assert_eq!(scheme.physical_of(b), phys - 1);
            }
            if let Some(a) = above {
                prop_assert_eq!(scheme.physical_of(a), phys + 1);
            }
        }
    }

    #[test]
    fn sweep_grid_is_sorted_within_bounds(guess in 1u32..1_000_000) {
        let sweep = SweepSpec::from_guess(guess);
        let grid: Vec<u32> = sweep.grid().collect();
        prop_assert_eq!(grid.len(), sweep.len());
        prop_assert!(grid.windows(2).all(|w| w[0] < w[1]));
        if let (Some(first), Some(last)) = (grid.first(), grid.last()) {
            prop_assert!(*first == sweep.min);
            prop_assert!(*last < sweep.max);
        }
    }

    #[test]
    fn box_summary_orders_quantiles(values in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let b = BoxSummary::from_values(&values).unwrap();
        prop_assert!(b.min <= b.q1 + 1e-9);
        prop_assert!(b.q1 <= b.median + 1e-9);
        prop_assert!(b.median <= b.q3 + 1e-9);
        prop_assert!(b.q3 <= b.max + 1e-9);
        prop_assert!(b.min <= b.mean && b.mean <= b.max);
        prop_assert!(b.iqr() >= 0.0);
    }

    #[test]
    fn histogram_conserves_counts(values in prop::collection::vec(0.0f64..1e4, 1..300),
                                  bins in 1usize..40) {
        let h = Histogram::with_bins(&values, bins).unwrap();
        prop_assert_eq!(h.counts().iter().sum::<u64>(), values.len() as u64);
        prop_assert_eq!(h.bins(), bins);
    }

    #[test]
    fn p_find_min_bounds_and_monotonicity(values in prop::collection::vec(1u32..10_000, 2..150)) {
        let series = RdtSeries::new(values, 0);
        let len = series.len();
        let mut prev = 0.0;
        for n in [1usize, 2, len / 2 + 1, len] {
            let n = n.clamp(1, len);
            let p = exact_p_find_min(&series, n);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
            prop_assert!(p >= prev - 1e-12, "monotone in n");
            prev = p;
        }
        prop_assert!((exact_p_find_min(&series, len) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_normalized_min_bounds(values in prop::collection::vec(1u32..10_000, 2..150)) {
        let series = RdtSeries::new(values, 0);
        let len = series.len();
        let e1 = exact_expected_normalized_min(&series, 1);
        let efull = exact_expected_normalized_min(&series, len);
        let mean = series.summary().unwrap().mean;
        let min = f64::from(series.min().unwrap());
        prop_assert!((efull - 1.0).abs() < 1e-9, "full sample always finds the min");
        prop_assert!(e1 >= 1.0 - 1e-12);
        // E[min of 1 draw] is the mean of the series.
        prop_assert!((e1 - mean / min).abs() < 1e-6);
    }

    #[test]
    fn secded_corrects_any_single_bit(data in any::<u64>(), bit in 0u32..72) {
        let code = Secded72::new();
        let word = code.encode(data) ^ (1u128 << bit);
        match code.decode(word) {
            DecodeOutcome::Corrected { data: d, .. } => prop_assert_eq!(d, data),
            other => prop_assert!(false, "expected correction, got {:?}", other),
        }
    }

    #[test]
    fn secded_detects_any_double_bit(data in any::<u64>(), a in 0u32..72, b in 0u32..72) {
        prop_assume!(a != b);
        let code = Secded72::new();
        let word = code.encode(data) ^ (1u128 << a) ^ (1u128 << b);
        prop_assert_eq!(code.decode(word), DecodeOutcome::DetectedUncorrectable);
    }

    #[test]
    fn ssc_corrects_any_single_symbol(data in prop::array::uniform16(any::<u8>()),
                                      symbol in 0usize..18,
                                      error in 1u8..=255) {
        let code = Ssc18::new();
        let mut word = code.encode(&data);
        word[symbol] ^= error;
        prop_assert!(code.decode(&word).matches(&data));
    }

    #[test]
    fn ssc_never_returns_wrong_data_as_clean(data in prop::array::uniform16(any::<u8>()),
                                             symbol in 0usize..18,
                                             error in 1u8..=255) {
        // A corrupted word must never decode as Clean with wrong data.
        let code = Ssc18::new();
        let mut word = code.encode(&data);
        word[symbol] ^= error;
        if let vrd::ecc::rs::SscOutcome::Clean { data: d } = code.decode(&word) { prop_assert_eq!(d, data) }
    }

    #[test]
    fn estimate_time_monotone_in_hammers(hc in 1u64..1_000_000) {
        use vrd::bender::estimate::{one_measurement_time_ns, MeasurementSpec};
        use vrd::bender::TimingParams;
        let timing = TimingParams::ddr5();
        let t1 = one_measurement_time_ns(&timing, &MeasurementSpec::rowhammer(hc));
        let t2 = one_measurement_time_ns(&timing, &MeasurementSpec::rowhammer(hc + 1));
        prop_assert!(t2 > t1);
    }

    #[test]
    fn chunk_summaries_bracket_values(values in prop::collection::vec(1u32..100_000, 1..500),
                                      chunk in 1usize..64) {
        let series = RdtSeries::new(values.clone(), 0);
        for (mean, min, max) in series.chunk_summaries(chunk) {
            prop_assert!(f64::from(min) <= mean && mean <= f64::from(max));
            prop_assert!(values.contains(&min) && values.contains(&max));
        }
    }
}

/// Fuzz the device with arbitrary (possibly illegal) command sequences:
/// the model must never panic, and errors must only be the documented
/// ones.
mod device_fuzz {
    use proptest::prelude::*;
    use vrd::dram::device::{DeviceConfig, DramDevice};
    use vrd::dram::DramError;

    #[derive(Debug, Clone)]
    enum Cmd {
        Act(usize, u32),
        Pre(usize),
        Write(usize, u32, u8),
        ReadCompare(usize, u32, u8),
        Hammer(usize, u32, u32),
        Refresh,
        SetTemp(f64),
    }

    fn cmd_strategy() -> impl Strategy<Value = Cmd> {
        prop_oneof![
            (0usize..3, 0u32..5000).prop_map(|(b, r)| Cmd::Act(b, r)),
            (0usize..3).prop_map(Cmd::Pre),
            (0usize..3, 0u32..5000, any::<u8>()).prop_map(|(b, r, f)| Cmd::Write(b, r, f)),
            (0usize..3, 0u32..5000, any::<u8>()).prop_map(|(b, r, f)| Cmd::ReadCompare(b, r, f)),
            (0usize..3, 1u32..4000, 1u32..30_000).prop_map(|(b, r, n)| Cmd::Hammer(b, r, n)),
            Just(Cmd::Refresh),
            (20.0f64..95.0).prop_map(Cmd::SetTemp),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn arbitrary_command_sequences_never_panic(
            seed in any::<u64>(),
            cmds in prop::collection::vec(cmd_strategy(), 1..60),
        ) {
            let mut dev = DramDevice::new(DeviceConfig::small_test(), seed);
            let banks = dev.config().banks() as usize;
            let rows = dev.config().rows_per_bank();
            for cmd in cmds {
                match cmd {
                    Cmd::Act(b, r) => {
                        let result = dev.activate(b, r);
                        if b >= banks {
                            let bank_err = matches!(result, Err(DramError::BankOutOfRange { .. }));
                            prop_assert!(bank_err, "expected BankOutOfRange");
                        } else if r >= rows {
                            let row_err = matches!(result, Err(DramError::RowOutOfRange { .. }));
                            prop_assert!(row_err, "expected RowOutOfRange");
                        }
                    }
                    Cmd::Pre(b) => {
                        let result = dev.precharge(b);
                        prop_assert_eq!(result.is_err(), b >= banks);
                    }
                    Cmd::Write(b, r, f) => {
                        if b < banks && r < rows {
                            dev.write_row(b, r, f);
                        }
                    }
                    Cmd::ReadCompare(b, r, f) => {
                        if b < banks && r < rows {
                            let _ = dev.read_and_compare(b, r, f);
                        }
                    }
                    Cmd::Hammer(b, r, n) => {
                        if b < banks && r + 1 < rows && r >= 1 {
                            // Both neighbours of the (direct-mapped) victim.
                            for aggressor in [r - 1, r + 1] {
                                dev.precharge(b).unwrap();
                                dev.activate_n(b, aggressor, n, 35.0).unwrap();
                                dev.precharge(b).unwrap();
                            }
                        }
                    }
                    Cmd::Refresh => dev.refresh(),
                    Cmd::SetTemp(t) => dev.set_temperature_c(t),
                }
            }
        }

        #[test]
        fn read_after_write_returns_written_fill(
            seed in any::<u64>(),
            row in 1u32..4000,
            fill in any::<u8>(),
        ) {
            // Without hammering, data integrity holds for any row/fill.
            let mut dev = DramDevice::new(DeviceConfig::small_test(), seed);
            dev.write_row(0, row, fill);
            let flips = dev.read_and_compare(0, row, fill);
            prop_assert!(flips.is_empty(), "unhammed row must read back clean");
        }
    }
}

mod executor {
    use proptest::prelude::*;
    use vrd::core::exec::{derive_unit_seed, execute, ExecConfig, Unit, UnitKey};

    fn units(count: usize) -> Vec<Unit<usize>> {
        (0..count).map(|i| Unit::new(UnitKey::cell("P0", i as u32, 1), i)).collect()
    }

    proptest! {
        #[test]
        fn every_unit_reported_exactly_once_in_input_order(
            count in 0usize..48,
            threads in 1usize..10,
            seed in any::<u64>(),
        ) {
            let cfg = ExecConfig::new(threads, seed);
            let report = execute(&cfg, units(count), |ctx, &i| (i, ctx.seed));
            prop_assert_eq!(report.outcomes.len(), count);
            prop_assert_eq!(report.progress.units_done, count);
            prop_assert_eq!(report.progress.units_panicked, 0);
            for (index, (i, unit_seed)) in report.into_results().into_iter().enumerate() {
                prop_assert_eq!(i, index);
                let expected = derive_unit_seed(seed, &UnitKey::cell("P0", index as u32, 1));
                prop_assert_eq!(unit_seed, expected);
            }
        }

        #[test]
        fn thread_count_never_changes_the_output(
            count in 1usize..32,
            seed in any::<u64>(),
        ) {
            let serial = execute(&ExecConfig::new(1, seed), units(count), |ctx, &i| {
                (i * 3, ctx.seed)
            })
            .into_results();
            for threads in [2usize, 5, 16] {
                let parallel = execute(&ExecConfig::new(threads, seed), units(count), |ctx, &i| {
                    (i * 3, ctx.seed)
                })
                .into_results();
                prop_assert_eq!(&serial, &parallel);
            }
        }
    }

    proptest! {
        // Few cases: each panicking unit prints a captured-panic trace.
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn panicking_units_never_deadlock_or_go_missing(
            count in 1usize..24,
            threads in 1usize..10,
            panic_mask in any::<u16>(),
        ) {
            let cfg = ExecConfig::new(threads, 7);
            let report = execute(&cfg, units(count), |_, &i| {
                assert!(panic_mask & (1 << (i % 16)) == 0, "unit {i} told to panic");
                i
            });
            prop_assert_eq!(report.outcomes.len(), count);
            let mut expected_panics = 0;
            for (i, outcome) in report.outcomes.iter().enumerate() {
                let should_panic = panic_mask & (1 << (i % 16)) != 0;
                prop_assert_eq!(outcome.is_panicked(), should_panic);
                expected_panics += usize::from(should_panic);
            }
            prop_assert_eq!(report.progress.units_done, count);
            prop_assert_eq!(report.progress.units_panicked, expected_panics);
        }
    }
}

/// Degenerate-input behavior of the statistics kernels: empty, tiny, and
/// constant series must produce a `StatsError` or a well-defined value —
/// never a panic, and never NaN/∞ leaking out of an `Ok`.
mod stats_edge_cases {
    use super::*;

    use vrd::stats::runlength::{immediate_change_fraction, longest_run, run_lengths};
    use vrd::stats::{
        autocorrelation, chi_square_gof_normal, ks_test_two_sample, run_length_histogram,
        white_noise_bound, StatsError,
    };

    proptest! {
        #[test]
        fn ks_two_sample_handles_tiny_and_constant_series(
            la in 0usize..12,
            lb in 0usize..12,
            value in -5.0f64..5.0,
        ) {
            let a = vec![value; la];
            let b = vec![value; lb];
            match ks_test_two_sample(&a, &b) {
                Ok(r) => {
                    // Identical constant samples: D = 0, p = 1 (both finite).
                    prop_assert!(la >= 8 && lb >= 8);
                    prop_assert!(r.statistic.abs() < 1e-12);
                    prop_assert!((r.p_value - 1.0).abs() < 1e-9);
                }
                Err(StatsError::TooFewSamples { required: 8, .. }) => {
                    prop_assert!(la < 8 || lb < 8);
                }
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
            }
        }

        #[test]
        fn chi_square_errors_on_tiny_or_constant_series(
            len in 0usize..120,
            value in -10.0f64..10.0,
        ) {
            // A constant series always errors: too few samples below 30,
            // zero variance at and above it. Either way, no panic, no NaN.
            let constant = vec![value; len];
            match chi_square_gof_normal(&constant, None) {
                Err(StatsError::TooFewSamples { required: 30, .. }) => prop_assert!(len < 30),
                Err(StatsError::InvalidParameter(_)) => prop_assert!(len >= 30),
                other => {
                    return Err(TestCaseError::fail(format!(
                        "constant series must not fit a normal: {other:?}"
                    )))
                }
            }
        }

        #[test]
        fn acf_errors_on_short_or_constant_series(
            len in 0usize..40,
            max_lag in 0usize..50,
            value in -10.0f64..10.0,
        ) {
            let constant = vec![value; len];
            match autocorrelation(&constant, max_lag) {
                Err(StatsError::TooFewSamples { .. }) => prop_assert!(len <= max_lag),
                Err(StatsError::InvalidParameter(_)) | Err(StatsError::EmptyInput) => {
                    prop_assert!(len > max_lag)
                }
                other => {
                    return Err(TestCaseError::fail(format!(
                        "constant series has undefined ACF and must error: {other:?}"
                    )))
                }
            }
        }

        #[test]
        fn acf_values_stay_finite_and_bounded(
            seeds in prop::collection::vec(0u32..100, 9..60),
            max_lag in 1usize..8,
        ) {
            // A varying series (strictly increasing tail breaks constancy)
            // must yield finite ACF with lag 0 pinned at 1.
            let values: Vec<f64> =
                seeds.iter().enumerate().map(|(i, &s)| f64::from(s) + i as f64 * 0.01).collect();
            let acf = autocorrelation(&values, max_lag).unwrap();
            prop_assert_eq!(acf.len(), max_lag + 1);
            prop_assert!((acf[0] - 1.0).abs() < 1e-12);
            for r in &acf {
                prop_assert!(r.is_finite() && r.abs() <= 1.0 + 1e-9);
            }
        }

        #[test]
        fn white_noise_bound_is_finite_for_positive_n(n in 1usize..1_000_000) {
            // n == 0 panics by documented contract; every valid n gives a
            // finite positive bound.
            let bound = white_noise_bound(n);
            prop_assert!(bound.is_finite() && bound > 0.0);
        }

        #[test]
        fn run_length_stats_are_total_on_any_series(
            values in prop::collection::vec(0u8..4, 0..64),
        ) {
            let runs = run_lengths(&values);
            prop_assert_eq!(runs.iter().sum::<usize>(), values.len());
            prop_assert_eq!(
                run_length_histogram(&values).values().sum::<u64>(),
                runs.len() as u64
            );
            prop_assert_eq!(longest_run(&values), runs.iter().copied().max().unwrap_or(0));
            match immediate_change_fraction(&values) {
                // Defined only when a state change exists; always in [0, 1].
                Some(frac) => {
                    prop_assert!(runs.len() >= 2);
                    prop_assert!((0.0..=1.0).contains(&frac));
                }
                None => prop_assert!(runs.len() < 2),
            }
        }
    }

    #[test]
    #[should_panic(expected = "white_noise_bound requires n > 0")]
    fn white_noise_bound_panics_on_zero() {
        let _ = white_noise_bound(0);
    }
}

/// Property coverage for the discovery stopping rule's binomial kernel:
/// the Clopper–Pearson bound is monotone in both evidence (trials) and
/// demanded confidence (alpha), the pmf agrees with a brute-force
/// expansion at small n, and every out-of-domain input is an error —
/// never a NaN leaking out of an `Ok`.
mod stats_binomial {
    use proptest::prelude::*;
    use vrd::stats::{
        binomial_cdf, binomial_pmf, binomial_sf, binomial_upper_confidence,
        zero_success_upper_confidence,
    };

    /// Pascal's-triangle pmf, exact enough for n this small.
    fn brute_pmf(k: u64, n: u64, p: f64) -> f64 {
        let mut choose = 1.0f64;
        for i in 0..k {
            choose *= (n - i) as f64 / (i + 1) as f64;
        }
        choose * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32)
    }

    proptest! {
        #[test]
        fn pmf_matches_brute_force_and_sums_to_one(
            n in 1u64..=16,
            p in 0.0f64..=1.0,
        ) {
            let mut total = 0.0;
            for k in 0..=n {
                let exact = binomial_pmf(k, n, p).unwrap();
                prop_assert!((exact - brute_pmf(k, n, p)).abs() < 1e-10);
                total += exact;
            }
            prop_assert!((total - 1.0).abs() < 1e-9, "pmf must sum to 1, got {}", total);
        }

        #[test]
        fn cdf_and_sf_partition_unity_everywhere(
            n in 1u64..60,
            k_frac in 0.0f64..=1.0,
            p in 0.0f64..=1.0,
        ) {
            let k = ((n as f64) * k_frac) as u64;
            let cdf = binomial_cdf(k, n, p).unwrap();
            let sf = binomial_sf(k, n, p).unwrap();
            prop_assert!((0.0..=1.0).contains(&cdf) && (0.0..=1.0).contains(&sf));
            prop_assert!((cdf + sf - 1.0).abs() < 1e-9);
        }

        #[test]
        fn upper_bound_is_monotone_in_trials(
            successes in 0u64..5,
            n_lo in 5u64..200,
            extra in 1u64..200,
            alpha in 0.005f64..0.5,
        ) {
            // Same success count on more trials is stronger evidence, so
            // the bound must not grow.
            let loose = binomial_upper_confidence(successes, n_lo, alpha).unwrap();
            let tight = binomial_upper_confidence(successes, n_lo + extra, alpha).unwrap();
            prop_assert!((0.0..=1.0).contains(&loose) && (0.0..=1.0).contains(&tight));
            prop_assert!(tight <= loose + 1e-12, "n={} -> {}, n={} -> {}",
                         n_lo, loose, n_lo + extra, tight);
        }

        #[test]
        fn upper_bound_is_monotone_in_alpha(
            successes in 0u64..5,
            n in 5u64..200,
            alpha_lo in 0.005f64..0.4,
            ratio in 1.05f64..20.0,
        ) {
            // Demanding more confidence (smaller alpha) loosens the bound.
            let alpha_hi = (alpha_lo * ratio).min(0.99);
            let demanding = binomial_upper_confidence(successes, n, alpha_lo).unwrap();
            let lenient = binomial_upper_confidence(successes, n, alpha_hi).unwrap();
            prop_assert!(demanding >= lenient - 1e-12,
                         "alpha={} -> {}, alpha={} -> {}",
                         alpha_lo, demanding, alpha_hi, lenient);
        }

        #[test]
        fn zero_success_closed_form_matches_bisection(
            n in 1u64..400,
            alpha in 0.005f64..0.5,
        ) {
            let bisected = binomial_upper_confidence(0, n, alpha).unwrap();
            let closed = zero_success_upper_confidence(n, alpha).unwrap();
            prop_assert!((bisected - closed).abs() < 1e-8);
        }

        #[test]
        fn degenerate_inputs_error_not_nan(
            n in 1u64..50,
            k_past in 1u64..10,
            bad_p in prop_oneof![Just(-0.25f64), Just(1.25), Just(f64::NAN), Just(f64::INFINITY)],
            bad_alpha in prop_oneof![Just(0.0f64), Just(1.0), Just(-0.5), Just(f64::NAN)],
        ) {
            // Zero trials, k > n, and out-of-range p/alpha (including NaN
            // and infinity) must all be rejected up front.
            prop_assert!(binomial_pmf(0, 0, 0.5).is_err());
            prop_assert!(binomial_cdf(0, 0, 0.5).is_err());
            prop_assert!(binomial_sf(0, 0, 0.5).is_err());
            prop_assert!(binomial_pmf(n + k_past, n, 0.5).is_err());
            prop_assert!(binomial_cdf(n + k_past, n, 0.5).is_err());
            prop_assert!(binomial_pmf(0, n, bad_p).is_err());
            prop_assert!(binomial_cdf(0, n, bad_p).is_err());
            prop_assert!(binomial_sf(0, n, bad_p).is_err());
            prop_assert!(binomial_upper_confidence(0, n, bad_alpha).is_err());
            prop_assert!(binomial_upper_confidence(n + k_past, n, 0.05).is_err());
            prop_assert!(binomial_upper_confidence(0, 0, 0.05).is_err());
            prop_assert!(zero_success_upper_confidence(0, 0.05).is_err());
            prop_assert!(zero_success_upper_confidence(n, bad_alpha).is_err());
        }
    }
}
