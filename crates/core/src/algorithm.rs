//! Algorithm 1: the paper's RDT temporal-variation test.
//!
//! Two phases: `find_victim` scans rows for one that is relatively
//! vulnerable (guessed RDT below 40,000 at minimum `t_AggOn` with
//! Checkered0, as the mean of 10 guesses); `test_loop` then measures that
//! row's RDT repeatedly, each measurement sweeping hammer counts from
//! `RDT_guess/2` to `RDT_guess×3` in increments of `RDT_guess/100` and
//! recording the first hammer count that produces a bitflip.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use vrd_bender::routines::{guess_rdt, hammer_session};
use vrd_bender::TestPlatform;
use vrd_dram::TestConditions;

use crate::series::RdtSeries;

/// The paper's vulnerability cutoff for victim selection (Alg. 1 line 6).
pub const FIND_VICTIM_CUTOFF: u32 = 40_000;

/// How one RDT measurement locates the first flipping hammer count on the
/// sweep grid.
///
/// Both strategies probe the *same* grid (see [`SweepSpec::grid`]) under
/// keyed per-measurement dynamics (see
/// [`vrd_dram::device::DramDevice::begin_keyed_session`]), which make the
/// flip outcome at a grid point a pure function of the measurement epoch
/// — independent of which other grid points were probed before it. The
/// flip predicate is then monotone in the hammer count, so both
/// strategies return the identical first flipping count:
///
/// - [`Linear`](SearchStrategy::Linear) walks the grid in ascending
///   order, one hammer session per point — Alg. 1 as written, O(grid).
/// - [`Adaptive`](SearchStrategy::Adaptive) gallops and bisects
///   ([`vrd_bender::search::first_true`]) — O(log grid) sessions.
///
/// `tests/search_equivalence.rs` proves the byte-identity of the two on
/// full campaigns. [`Adaptive`](SearchStrategy::Adaptive) is the product
/// path; [`Linear`](SearchStrategy::Linear) is a test oracle, reachable
/// only through [`test_loop_using`] and
/// [`ExecConfigBuilder::search`](crate::exec::ExecConfigBuilder::search).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SearchStrategy {
    /// Ascending linear scan of the sweep grid.
    Linear,
    /// Gallop + bisect over the sweep grid.
    #[default]
    Adaptive,
}

impl SearchStrategy {
    /// The first grid point of `sweep` for which `probe` returns true,
    /// found by this strategy.
    fn first_flip(self, sweep: &SweepSpec, mut probe: impl FnMut(u32) -> bool) -> Option<u32> {
        match self {
            SearchStrategy::Linear => sweep.grid().find(|&hc| probe(hc)),
            SearchStrategy::Adaptive => sweep.search_grid(probe),
        }
    }
}

/// How one RDT measurement evaluates the hammer sessions of its sweep.
///
/// Both strategies produce byte-identical results — the same flip
/// outcomes, counters and simulated time/energy — because batched
/// evaluation replays exactly the state transitions of the scalar
/// command sequence and charges its time through the same platform cost
/// function (see [`vrd_dram::batch`] and `tests/batch_equivalence.rs`):
///
/// - [`Scalar`](EvalStrategy::Scalar) issues every session's DRAM
///   commands, re-deriving each cell's per-epoch threshold on every
///   probe.
/// - [`Batch`](EvalStrategy::Batch) draws all of the epoch's per-bit
///   thresholds once into struct-of-arrays lanes
///   ([`vrd_dram::LaneThresholds`]) and reduces each probe to one
///   branch-free `u64` lane-mask compare pass over the whole row.
///
/// Rows the batch engine cannot capture (refresh/TRR interference, edge
/// victims, asymmetric mappings) silently fall back to the scalar path,
/// so `Batch` is safe — and the product path — everywhere.
/// [`Scalar`](EvalStrategy::Scalar) is a test oracle, reachable only
/// through [`test_loop_using`] and
/// [`ExecConfigBuilder::eval`](crate::exec::ExecConfigBuilder::eval).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EvalStrategy {
    /// Per-session DRAM command execution.
    Scalar,
    /// Whole-row struct-of-arrays evaluation per epoch.
    #[default]
    Batch,
}

/// Hammer-count sweep grid of one RDT measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// First hammer count tested.
    pub min: u32,
    /// Upper bound (exclusive).
    pub max: u32,
    /// Grid step.
    pub step: u32,
}

impl SweepSpec {
    /// The paper's sweep for a guessed RDT: `[guess/2, guess×3)` in steps
    /// of `guess/100` (Alg. 1 lines 14–16).
    ///
    /// # Panics
    ///
    /// Panics if `guess` is zero.
    pub fn from_guess(guess: u32) -> Self {
        assert!(guess > 0, "guess must be nonzero");
        SweepSpec { min: guess / 2, max: guess.saturating_mul(3), step: (guess / 100).max(1) }
    }

    /// The hammer counts of the sweep, ascending.
    pub fn grid(&self) -> impl Iterator<Item = u32> + '_ {
        (self.min..self.max).step_by(self.step as usize)
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        if self.max <= self.min {
            0
        } else {
            ((self.max - self.min) as usize).div_ceil(self.step as usize)
        }
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `idx`-th hammer count of the grid (`idx < self.len()`),
    /// i.e. the value `self.grid().nth(idx)` yields.
    pub fn point(&self, idx: usize) -> u32 {
        self.min + (idx as u32) * self.step
    }

    /// Finds the first grid point for which `probe` returns true via
    /// gallop + bisect ([`vrd_bender::search::first_true`]), in O(log
    /// grid) probes. Returns exactly what
    /// `self.grid().find(|&hc| probe(hc))` returns provided `probe` is
    /// monotone in the hammer count (false below some grid point, true
    /// from it on) — which keyed measurement dynamics guarantee for the
    /// flip predicate.
    pub fn search_grid(&self, mut probe: impl FnMut(u32) -> bool) -> Option<u32> {
        vrd_bender::search::first_true(self.len(), |i| probe(self.point(i))).map(|i| self.point(i))
    }
}

/// One RDT measurement (Alg. 1's inner loop): finds the first hammer
/// count on the sweep grid whose session flips the victim, or `None` if
/// the row survives the whole sweep (a censored measurement).
///
/// The measurement opens a new *measurement epoch* on the platform and
/// runs every hammer session of the sweep in keyed-dynamics mode: the
/// per-cell threshold draw and the between-measurement trap evolution are
/// pure functions of `(dynamics seed, epoch, cell)`, independent of how
/// many sessions ran before or in which order. It uses the default
/// strategies; [`test_loop_using`] is the strategy-explicit oracle.
pub fn measure_rdt_once(
    platform: &mut TestPlatform,
    bank: usize,
    victim: u32,
    conditions: &TestConditions,
    sweep: &SweepSpec,
) -> Option<u32> {
    measure_rdt_once_using(
        platform,
        bank,
        victim,
        conditions,
        sweep,
        SearchStrategy::default(),
        EvalStrategy::default(),
    )
}

/// One RDT measurement with explicit [`SearchStrategy`] and
/// [`EvalStrategy`].
///
/// Under [`EvalStrategy::Batch`] the measurement first tries to capture
/// the epoch as a [`vrd_dram::RowBatchProfile`] (one struct-of-arrays
/// threshold draw for the whole row); each probe then costs one
/// lane-compare pass instead of a full command session. When the
/// row cannot be captured — or the sweep is empty, so no session would
/// run at all — the measurement falls back to the scalar command path,
/// byte-identically.
pub(crate) fn measure_rdt_once_using(
    platform: &mut TestPlatform,
    bank: usize,
    victim: u32,
    conditions: &TestConditions,
    sweep: &SweepSpec,
    search: SearchStrategy,
    eval: EvalStrategy,
) -> Option<u32> {
    let epoch = platform.begin_measurement();
    let session = |hc: u32| u64::from((hc - sweep.min) / sweep.step);
    let profile = if eval == EvalStrategy::Batch && !sweep.is_empty() {
        platform.prepare_batch_epoch(epoch, bank, victim, conditions)
    } else {
        None
    };
    let first = match profile {
        Some(profile) => search.first_flip(sweep, |hc| {
            platform.begin_keyed_session(epoch, session(hc));
            platform.run_batched_session(&profile, hc)
        }),
        None => search.first_flip(sweep, |hc| {
            platform.begin_keyed_session(epoch, session(hc));
            !hammer_session(platform, bank, victim, hc, conditions).is_empty()
        }),
    };
    platform.end_keyed_session();
    first
}

/// Alg. 1's `find_victim`: scans `rows` in order, guessing each row's RDT
/// as the mean of 10 quick estimates; returns the first row whose guess
/// is below `cutoff`, together with the guess.
pub fn find_victim(
    platform: &mut TestPlatform,
    bank: usize,
    conditions: &TestConditions,
    cutoff: u32,
    rows: Range<u32>,
) -> Option<(u32, u32)> {
    for row in rows {
        // A cheap probe first: rows that never flip within 4× the cutoff
        // are skipped without spending 10 estimates.
        let Some(first) = guess_rdt(platform, bank, row, conditions, cutoff.saturating_mul(4))
        else {
            continue;
        };
        let mut sum = u64::from(first);
        let mut count = 1u64;
        for _ in 1..10 {
            if let Some(g) = guess_rdt(platform, bank, row, conditions, cutoff.saturating_mul(4)) {
                sum += u64::from(g);
                count += 1;
            }
        }
        let mean = (sum / count) as u32;
        if mean < cutoff {
            return Some((row, mean));
        }
    }
    None
}

/// Alg. 1's `test_loop`: measures the victim's RDT `measurements` times
/// over the given sweep, returning the series (censored sweeps counted
/// separately).
pub fn test_loop(
    platform: &mut TestPlatform,
    bank: usize,
    victim: u32,
    conditions: &TestConditions,
    measurements: u32,
    sweep: &SweepSpec,
) -> RdtSeries {
    test_loop_using(
        platform,
        bank,
        victim,
        conditions,
        measurements,
        sweep,
        SearchStrategy::default(),
        EvalStrategy::default(),
    )
}

/// Alg. 1's `test_loop` with explicit [`SearchStrategy`] and
/// [`EvalStrategy`]: the oracle entry point. Every strategy pair
/// measures the same series; the equivalence suites and the strategy
/// benchmarks compare them through this function.
#[allow(clippy::too_many_arguments)]
pub fn test_loop_using(
    platform: &mut TestPlatform,
    bank: usize,
    victim: u32,
    conditions: &TestConditions,
    measurements: u32,
    sweep: &SweepSpec,
    search: SearchStrategy,
    eval: EvalStrategy,
) -> RdtSeries {
    let mut values = Vec::with_capacity(measurements as usize);
    let mut censored = 0u32;
    for _ in 0..measurements {
        match measure_rdt_once_using(platform, bank, victim, conditions, sweep, search, eval) {
            Some(rdt) => values.push(rdt),
            None => censored += 1,
        }
    }
    RdtSeries::new(values, censored)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_from_guess_matches_alg1() {
        let s = SweepSpec::from_guess(10_000);
        assert_eq!(s.min, 5_000);
        assert_eq!(s.max, 30_000);
        assert_eq!(s.step, 100);
        assert_eq!(s.len(), 250);
    }

    #[test]
    fn sweep_small_guess_has_unit_step() {
        let s = SweepSpec::from_guess(50);
        assert_eq!(s.step, 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn sweep_grid_is_ascending() {
        let s = SweepSpec::from_guess(1_000);
        let grid: Vec<u32> = s.grid().collect();
        assert_eq!(grid.len(), s.len());
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(grid[0], 500);
    }

    #[test]
    fn find_victim_locates_vulnerable_row() {
        let mut platform = TestPlatform::small_test(9);
        let conditions = TestConditions::foundational();
        let found = find_victim(&mut platform, 0, &conditions, FIND_VICTIM_CUTOFF, 2..2000);
        let (row, guess) = found.expect("the test platform has vulnerable rows");
        assert!(guess < FIND_VICTIM_CUTOFF);
        assert!(row >= 2);
    }

    #[test]
    fn test_loop_produces_measurements_in_sweep_range() {
        let mut platform = TestPlatform::small_test(9);
        let conditions = TestConditions::foundational();
        let (row, guess) =
            find_victim(&mut platform, 0, &conditions, FIND_VICTIM_CUTOFF, 2..2000).unwrap();
        let sweep = SweepSpec::from_guess(guess);
        let series = test_loop(&mut platform, 0, row, &conditions, 30, &sweep);
        assert_eq!(series.len() + series.censored() as usize, 30);
        for &v in series.values() {
            assert!(v >= sweep.min && v < sweep.max);
            assert_eq!((v - sweep.min) % sweep.step, 0, "values lie on the grid");
        }
    }

    #[test]
    fn repeated_measurements_vary() {
        // The VRD phenomenon itself: the measured RDT changes over time.
        let mut platform = TestPlatform::small_test(9);
        let conditions = TestConditions::foundational();
        let (row, guess) =
            find_victim(&mut platform, 0, &conditions, FIND_VICTIM_CUTOFF, 2..2000).unwrap();
        let series =
            test_loop(&mut platform, 0, row, &conditions, 60, &SweepSpec::from_guess(guess));
        assert!(series.len() >= 30, "most sweeps must find a flip");
        assert!(
            vrd_stats::histogram::unique_count(series.values()) > 1,
            "RDT must take multiple states: {:?}",
            series.values()
        );
    }

    #[test]
    fn measure_rdt_once_none_for_invulnerable_row() {
        let mut platform = TestPlatform::small_test(9);
        let conditions = TestConditions::foundational();
        let strong = (2..2000)
            .find(|&r| platform.device_mut().oracle_row_threshold(0, r, &conditions).is_none())
            .expect("some row has no weak cell");
        let sweep = SweepSpec { min: 100, max: 2_000, step: 100 };
        assert_eq!(measure_rdt_once(&mut platform, 0, strong, &conditions, &sweep), None);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_guess_panics() {
        SweepSpec::from_guess(0);
    }

    #[test]
    fn point_matches_grid_order() {
        let s = SweepSpec::from_guess(10_000);
        for (i, hc) in s.grid().enumerate() {
            assert_eq!(s.point(i), hc);
        }
    }

    #[test]
    fn linear_and_adaptive_measure_identical_series() {
        let conditions = TestConditions::foundational();
        let measure = |search| {
            let mut platform = TestPlatform::small_test(9);
            let (row, guess) =
                find_victim(&mut platform, 0, &conditions, FIND_VICTIM_CUTOFF, 2..2000).unwrap();
            let sweep = SweepSpec::from_guess(guess);
            let before = platform.hammer_sessions();
            let series = test_loop_using(
                &mut platform,
                0,
                row,
                &conditions,
                40,
                &sweep,
                search,
                EvalStrategy::Batch,
            );
            (series, platform.hammer_sessions() - before)
        };
        let (linear, linear_sessions) = measure(SearchStrategy::Linear);
        let (adaptive, adaptive_sessions) = measure(SearchStrategy::Adaptive);
        assert_eq!(linear, adaptive, "strategies must measure identical RDT series");
        assert!(
            adaptive_sessions * 4 <= linear_sessions,
            "adaptive must use ≤¼ the sessions ({adaptive_sessions} vs {linear_sessions})"
        );
    }

    #[test]
    fn linear_and_adaptive_agree_on_censored_sweeps() {
        let conditions = TestConditions::foundational();
        let run = |search| {
            let mut platform = TestPlatform::small_test(9);
            let strong = (2..2000)
                .find(|&r| platform.device_mut().oracle_row_threshold(0, r, &conditions).is_none())
                .expect("some row has no weak cell");
            let sweep = SweepSpec { min: 100, max: 2_000, step: 100 };
            test_loop_using(
                &mut platform,
                0,
                strong,
                &conditions,
                10,
                &sweep,
                search,
                EvalStrategy::Batch,
            )
        };
        let linear = run(SearchStrategy::Linear);
        let adaptive = run(SearchStrategy::Adaptive);
        assert_eq!(linear, adaptive);
        assert_eq!(adaptive.censored(), 10);
    }

    #[test]
    fn scalar_and_batch_measure_identical_series() {
        let conditions = TestConditions::foundational();
        let measure = |eval| {
            let mut platform = TestPlatform::small_test(9);
            let (row, guess) =
                find_victim(&mut platform, 0, &conditions, FIND_VICTIM_CUTOFF, 2..2000).unwrap();
            let sweep = SweepSpec::from_guess(guess);
            let series = test_loop_using(
                &mut platform,
                0,
                row,
                &conditions,
                40,
                &sweep,
                SearchStrategy::Adaptive,
                eval,
            );
            (series, platform.hammer_sessions(), platform.elapsed_ns(), platform.energy_j())
        };
        let scalar = measure(EvalStrategy::Scalar);
        let batch = measure(EvalStrategy::Batch);
        assert_eq!(scalar.0, batch.0, "strategies must measure identical RDT series");
        assert_eq!(scalar.1, batch.1, "hammer-session counters must match");
        assert_eq!(scalar.2.to_bits(), batch.2.to_bits(), "simulated time must match bitwise");
        assert_eq!(scalar.3.to_bits(), batch.3.to_bits(), "simulated energy must match bitwise");
    }

    #[test]
    fn batch_falls_back_when_refresh_is_enabled() {
        // With refresh (and thus TRR) on, the batch engine must decline
        // and the scalar fallback must still measure.
        let conditions = TestConditions::foundational();
        let mut platform = TestPlatform::small_test(9);
        let (row, guess) =
            find_victim(&mut platform, 0, &conditions, FIND_VICTIM_CUTOFF, 2..2000).unwrap();
        platform.set_refresh_enabled(true);
        let sweep = SweepSpec::from_guess(guess);
        let batch = test_loop_using(
            &mut platform,
            0,
            row,
            &conditions,
            5,
            &sweep,
            SearchStrategy::Adaptive,
            EvalStrategy::Batch,
        );
        assert_eq!(batch.len() + batch.censored() as usize, 5);
    }
}
