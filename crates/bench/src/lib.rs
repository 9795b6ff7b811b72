//! Shared fixtures for the Criterion benchmark harness.
//!
//! Each bench target corresponds to one experiment family of the paper
//! (see `DESIGN.md`'s experiment index); the fixtures here build the
//! platforms, series, and configurations the benches measure.

use vrd_bender::TestPlatform;
use vrd_core::algorithm::{
    find_victim, test_loop, test_loop_using, EvalStrategy, SearchStrategy, SweepSpec,
};
use vrd_core::RdtSeries;
use vrd_dram::{ModuleSpec, TestConditions};

/// Builds a ready-to-hammer platform for a Table-1 module with a located
/// victim row and its sweep.
pub fn prepared_platform(module: &str, seed: u64) -> (TestPlatform, u32, SweepSpec) {
    let spec = ModuleSpec::by_name(module).expect("module exists in Table 1");
    let mut platform = TestPlatform::for_module_with_row_bytes(spec, seed, 512);
    platform.set_temperature_c(50.0);
    let conditions = TestConditions::foundational();
    let (row, guess) =
        find_victim(&mut platform, 0, &conditions, 40_000, 2..20_000).expect("vulnerable row");
    (platform, row, SweepSpec::from_guess(guess))
}

/// Produces a measured RDT series of the requested length.
pub fn measured_series(module: &str, seed: u64, measurements: u32) -> RdtSeries {
    let (mut platform, row, sweep) = prepared_platform(module, seed);
    let conditions = TestConditions::foundational();
    test_loop(&mut platform, 0, row, &conditions, measurements, &sweep)
}

/// One search strategy's measured cost on a fresh, identically-seeded
/// platform: the series it measured plus the hammer sessions and wall
/// time `test_loop` spent (victim search excluded).
#[derive(Debug)]
pub struct SearchCost {
    /// The measured RDT series.
    pub series: RdtSeries,
    /// Hammer sessions spent by the `test_loop` alone.
    pub sessions: u64,
    /// Wall-clock time of the `test_loop`.
    pub wall: std::time::Duration,
    /// Sweep grid points (the linear strategy's sessions per
    /// non-censored measurement is bounded by this).
    pub grid_points: usize,
}

/// Runs the foundational `test_loop` under one [`SearchStrategy`] and
/// reports its cost. Identical `(module, seed, measurements)` inputs
/// measure the identical series under either strategy.
pub fn search_cost(
    module: &str,
    seed: u64,
    measurements: u32,
    search: SearchStrategy,
) -> SearchCost {
    let (mut platform, row, sweep) = prepared_platform(module, seed);
    let conditions = TestConditions::foundational();
    let before = platform.hammer_sessions();
    let started = std::time::Instant::now();
    let series = test_loop_using(
        &mut platform,
        0,
        row,
        &conditions,
        measurements,
        &sweep,
        search,
        EvalStrategy::Batch,
    );
    SearchCost {
        series,
        sessions: platform.hammer_sessions() - before,
        wall: started.elapsed(),
        grid_points: sweep.len(),
    }
}

/// One evaluation strategy's measured cost on a fresh, identically-seeded
/// platform: the series it measured plus the hammer sessions and wall
/// time `test_loop` spent (victim search excluded). Both strategies run
/// the adaptive search, so the session counts are identical and the
/// interesting ratio is sessions per second of wall time.
#[derive(Debug)]
pub struct EvalCost {
    /// The measured RDT series.
    pub series: RdtSeries,
    /// Hammer sessions spent by the `test_loop` alone.
    pub sessions: u64,
    /// Wall-clock time of the `test_loop`.
    pub wall: std::time::Duration,
}

/// Runs the foundational `test_loop` under one [`EvalStrategy`] and
/// reports its cost. Identical `(module, seed, measurements)` inputs
/// measure the identical series under either strategy.
pub fn eval_cost(module: &str, seed: u64, measurements: u32, eval: EvalStrategy) -> EvalCost {
    let (mut platform, row, sweep) = prepared_platform(module, seed);
    let conditions = TestConditions::foundational();
    let before = platform.hammer_sessions();
    let started = std::time::Instant::now();
    let series = test_loop_using(
        &mut platform,
        0,
        row,
        &conditions,
        measurements,
        &sweep,
        SearchStrategy::Adaptive,
        eval,
    );
    EvalCost { series, sessions: platform.hammer_sessions() - before, wall: started.elapsed() }
}

/// The discovery campaign's measured cost on one module, compared
/// against the fixed epoch budget a same-seed in-depth characterization
/// of the same rows would spend.
#[derive(Debug)]
pub struct DiscoveryCost {
    /// Rows the campaign bounded.
    pub rows: usize,
    /// Measurement epochs the early-stopping campaign actually spent.
    pub epochs_spent: u64,
    /// Epochs a fixed budget would spend on the same rows
    /// (`rows * fixed_budget`).
    pub fixed_epochs: u64,
    /// Rows whose guardbanded bound lower-bounds the minimum of the
    /// full fixed-budget reference series (must equal `rows`).
    pub sound_rows: usize,
    /// Wall-clock time of the discovery campaign alone.
    pub wall: std::time::Duration,
}

/// Runs the early-stopping discovery campaign on `module` with the
/// ceiling raised to `fixed_budget`, then replays the same rows through
/// the fixed-budget in-depth campaign (same seed, same selection
/// parameters, so its condition-0 stream extends the discovery stream)
/// to price the epochs saved and check per-row soundness.
pub fn discovery_cost(module: &str, seed: u64, fixed_budget: u32) -> DiscoveryCost {
    use vrd_core::campaign::{in_depth_campaign, InDepthConfig};
    use vrd_core::discovery::{run_discovery, DiscoveryConfig};
    use vrd_core::exec::ExecConfig;
    use vrd_core::run::RunOptions;

    let spec = ModuleSpec::by_name(module).expect("module exists in Table 1");
    let cfg = DiscoveryConfig::quick().to_builder().seed(seed).max_epochs(fixed_budget).build();
    let started = std::time::Instant::now();
    let discovery = run_discovery(&spec, &cfg);
    let wall = started.elapsed();

    let indepth_cfg =
        InDepthConfig::quick().to_builder().seed(seed).measurements(fixed_budget).build();
    let opts = RunOptions::new(ExecConfig::serial(indepth_cfg.seed));
    let indepth =
        in_depth_campaign(&[spec], &indepth_cfg, &opts).expect("plain run cannot fail").remove(0);

    let rows = discovery.rows.len();
    let epochs_spent = discovery.rows.iter().map(|r| u64::from(r.epochs_used)).sum();
    let sound_rows = discovery
        .rows
        .iter()
        .filter(|r| {
            indepth
                .rows
                .iter()
                .find(|reference| reference.row == r.row)
                .and_then(|reference| reference.per_condition.first())
                .and_then(|cell| cell.series.min())
                .is_some_and(|reference_min| r.bound <= reference_min)
        })
        .count();
    DiscoveryCost {
        rows,
        epochs_spent,
        fixed_epochs: rows as u64 * u64::from(fixed_budget),
        sound_rows,
        wall,
    }
}

/// A deterministic synthetic series (no device in the loop) for
/// statistics benchmarks.
pub fn synthetic_series(len: usize) -> RdtSeries {
    let values: Vec<u32> =
        (0..len).map(|i| 4_000 + ((i * 2_654_435_761) % 37) as u32 * 20).collect();
    RdtSeries::new(values, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let (platform, row, sweep) = prepared_platform("M1", 3);
        assert!(row > 0);
        assert!(!sweep.is_empty());
        assert!(platform.spec().is_some());
        let series = synthetic_series(100);
        assert_eq!(series.len(), 100);
    }
}
