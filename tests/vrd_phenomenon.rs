//! End-to-end checks of the VRD phenomenon across the full stack:
//! device model → testing platform → Algorithm 1 → statistics.

#[path = "util/subsample.rs"]
mod subsample;

use rand::SeedableRng;

use subsample::{monte_carlo_p_within_margin, monte_carlo_stats};
use vrd::bender::TestPlatform;
use vrd::core::metrics::SeriesMetrics;
use vrd::core::montecarlo::{exact_p_within_margin, exact_stats, PAPER_MARGINS, PAPER_N_VALUES};
use vrd::core::predictability::analyze;
use vrd::core::{find_victim, test_loop, SweepSpec};
use vrd::dram::{DataPattern, ModuleSpec, TestConditions};

fn measured_series(seed: u64, measurements: u32) -> vrd::core::RdtSeries {
    let spec = ModuleSpec::by_name("M1").expect("M1 exists");
    let mut platform = TestPlatform::for_module_with_row_bytes(spec, seed, 512);
    platform.set_temperature_c(50.0);
    let conditions = TestConditions::foundational();
    let (row, guess) =
        find_victim(&mut platform, 0, &conditions, 40_000, 2..20_000).expect("vulnerable row");
    test_loop(&mut platform, 0, row, &conditions, measurements, &SweepSpec::from_guess(guess))
}

#[test]
fn finding1_rdt_changes_over_repeated_measurements() {
    let series = measured_series(1, 200);
    assert!(series.len() >= 150, "most sweeps find a flip");
    assert!(
        vrd::stats::histogram::unique_count(series.values()) > 1,
        "the RDT must take multiple values over time"
    );
}

#[test]
fn finding2_rdt_has_multiple_states() {
    let series = measured_series(2, 400);
    let states = vrd::stats::histogram::unique_count(series.values());
    assert!(states >= 3, "expected several RDT states, got {states}");
}

#[test]
fn finding3_rdt_changes_frequently() {
    let series = measured_series(3, 400);
    let metrics = SeriesMetrics::of(&series);
    let frac = metrics.immediate_change_fraction.expect("series changes state");
    assert!(frac > 0.3, "immediate-change fraction {frac} too low (paper: 0.79)");
    assert!(metrics.longest_run < series.len(), "the series must not be constant");
}

#[test]
fn finding4_series_is_unpredictable() {
    let series = measured_series(4, 1_500);
    let report = analyze(&series, 50).expect("series long enough");
    assert!(
        report.is_unpredictable(),
        "ACF must look like white noise, significant fraction {}",
        report.significant_lag_fraction
    );
}

#[test]
fn takeaway2_min_rdt_is_hard_to_find() {
    let series = measured_series(5, 800);
    let one = exact_stats(&series, 1);
    let many = exact_stats(&series, 500.min(series.len()));
    assert!(one.p_find_min < many.p_find_min, "more measurements must help");
    assert!(one.expected_normalized_min >= 1.0);
    assert!(one.expected_normalized_min >= many.expected_normalized_min - 1e-12);
}

#[test]
fn monte_carlo_and_exact_agree_on_measured_series() {
    let series = measured_series(6, 500);
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0);
    for n in [1usize, 10, 50] {
        let exact = exact_stats(&series, n);
        let mc = monte_carlo_stats(&mut rng, &series, n, 10_000);
        assert!(
            (exact.p_find_min - mc.p_find_min).abs() < 0.03,
            "n={n}: exact {} vs MC {}",
            exact.p_find_min,
            mc.p_find_min
        );
    }
}

/// Four standard errors of a mean of `iterations` draws whose standard
/// deviation is at most `sd`, plus three draws' worth of slack for rates
/// so close to 0 or 1 that the normal approximation fails.
fn tolerance(sd: f64, iterations: usize) -> f64 {
    let i = iterations as f64;
    4.0 * sd / i.sqrt() + 3.0 / i
}

#[test]
fn monte_carlo_oracle_agrees_with_exact_forms_on_the_paper_grid() {
    // A row's 1,000 measurements, as in the paper; every N it evaluates
    // and every Fig.-15 margin. A rate `p` estimated from `I` draws has
    // standard error √(p(1−p)/I); the normalized minimum lies in
    // [1, max/min], so its per-draw standard deviation is at most half
    // that range.
    const ITERATIONS: usize = 1_000;
    let series = measured_series(7, 1_000);
    assert!(series.len() >= 500, "N = 500 must fit in {} measured RDTs", series.len());
    let (min, max) = (series.min().unwrap(), series.values().iter().copied().max().unwrap());
    let range = f64::from(max) / f64::from(min) - 1.0;
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
    let rate_sd = |p: f64| (p * (1.0 - p)).sqrt();
    for n in PAPER_N_VALUES {
        let exact = exact_stats(&series, n);
        let mc = monte_carlo_stats(&mut rng, &series, n, ITERATIONS);
        let tol = tolerance(rate_sd(exact.p_find_min), ITERATIONS);
        assert!((exact.p_find_min - mc.p_find_min).abs() <= tol, "n={n}: {exact:?} vs {mc:?}");
        let tol = tolerance(range / 2.0, ITERATIONS);
        assert!(
            (exact.expected_normalized_min - mc.expected_normalized_min).abs() <= tol,
            "n={n}: {exact:?} vs {mc:?}"
        );
        for margin in PAPER_MARGINS {
            let exact = exact_p_within_margin(&series, n, margin);
            let mc = monte_carlo_p_within_margin(&mut rng, &series, n, margin, ITERATIONS);
            let tol = tolerance(rate_sd(exact), ITERATIONS);
            assert!((exact - mc).abs() <= tol, "n={n} margin={margin}: {exact} vs {mc}");
        }
    }
}

#[test]
fn pattern_changes_the_measured_rdt_distribution() {
    // Finding 12/13 at row granularity: at least one row measures a
    // different RDT distribution under a different data pattern.
    let spec = ModuleSpec::by_name("S2").expect("S2 exists");
    let mut platform = TestPlatform::for_module_with_row_bytes(spec, 11, 512);
    platform.set_temperature_c(50.0);
    let base = TestConditions::foundational();
    let (row, guess) =
        find_victim(&mut platform, 0, &base, 40_000, 2..20_000).expect("vulnerable row");
    let sweep = SweepSpec::from_guess(guess);
    let a = test_loop(&mut platform, 0, row, &base, 120, &sweep);
    let b =
        test_loop(&mut platform, 0, row, &base.with_pattern(DataPattern::Rowstripe1), 120, &sweep);
    // Means may differ or censoring may differ; require *some* observable
    // difference between the two distributions.
    let mean_a = a.summary().map(|s| s.mean).unwrap_or(0.0);
    let mean_b = b.summary().map(|s| s.mean).unwrap_or(0.0);
    assert!(
        (mean_a - mean_b).abs() > 1e-9 || a.censored() != b.censored(),
        "patterns produced identical distributions: {mean_a} vs {mean_b}"
    );
}

#[test]
fn rowpress_lowers_the_measured_rdt() {
    let spec = ModuleSpec::by_name("H3").expect("H3 exists");
    let mut platform = TestPlatform::for_module_with_row_bytes(spec, 13, 512);
    platform.set_temperature_c(50.0);
    let base = TestConditions::foundational();
    let (row, _) = find_victim(&mut platform, 0, &base, 40_000, 2..20_000).expect("vulnerable row");
    let press = base.with_t_agg_on_ns(vrd::dram::conditions::T_AGG_ON_TREFI_NS);
    let guess_hammer = vrd::bender::routines::guess_rdt(&mut platform, 0, row, &base, 1 << 20)
        .expect("row flips under RowHammer");
    let guess_press = vrd::bender::routines::guess_rdt(&mut platform, 0, row, &press, 1 << 20)
        .expect("row flips under RowPress");
    assert!(
        guess_press < guess_hammer,
        "RowPress must need fewer activations: {guess_press} !< {guess_hammer}"
    );
}

#[test]
fn refresh_disabled_is_required_for_clean_measurement() {
    // §3.1 methodology: with refresh (and TRR) on, RDT measurement is
    // interfered with — the same hammer count stops flipping.
    let spec = ModuleSpec::by_name("M4").expect("M4 exists");
    let mut platform = TestPlatform::for_module_with_row_bytes(spec, 17, 512);
    let conditions = TestConditions::foundational();
    let (row, guess) =
        find_victim(&mut platform, 0, &conditions, 40_000, 2..20_000).expect("vulnerable row");
    // A 1 ms test budget fits inside the 64 ms refresh window…
    assert!(platform.interference_free(1e6));
    // …but a 1 s budget does not (retention failures would interfere).
    assert!(!platform.interference_free(1e9));
    platform.set_refresh_enabled(true);
    assert!(!platform.interference_free(1e6));
    // Hammer slowly in small chunks with refresh interleaved.
    let pattern = conditions.pattern;
    platform.device_mut().write_row(0, row, pattern.victim_byte());
    for _ in 0..40 {
        vrd::bender::routines::hammer_double_sided(&mut platform, 0, row, guess / 32, &conditions);
    }
    let flips = vrd::bender::routines::read_compare(&mut platform, 0, row, pattern);
    assert!(
        flips.is_empty(),
        "periodic refresh must reset sub-threshold disturbance between chunks"
    );
}
