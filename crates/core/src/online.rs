//! Online RDT profiling — a prototype of the paper's proposed future
//! work (§6.5: "develop online RDT profiling mechanisms to efficiently
//! profile DRAM chips while the chips are in use").
//!
//! The profiler opportunistically re-measures the RDT of tracked rows
//! during idle windows, maintains each row's running minimum, and
//! recommends a guardbanded operating threshold that a *runtime
//! configurable* mitigation (future-work direction 3) can adopt. Because
//! VRD makes the true minimum a moving target, the profiler also reports
//! its *confidence*: the empirical probability that yet another
//! measurement undercuts the current guardbanded recommendation.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use vrd_bender::routines::guess_rdt;
use vrd_bender::TestPlatform;
use vrd_dram::TestConditions;

/// Per-row online profile state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowProfile {
    /// Smallest RDT observed so far.
    pub observed_min: u32,
    /// Number of completed measurements.
    pub measurements: u32,
    /// Number of measurements that *lowered* the running minimum (a
    /// proxy for how unsettled the estimate still is).
    pub min_updates: u32,
}

/// Online profiler over a set of tracked rows.
///
/// # Examples
///
/// ```
/// use vrd_bender::TestPlatform;
/// use vrd_core::online::OnlineProfiler;
/// use vrd_dram::TestConditions;
///
/// let mut platform = TestPlatform::small_test(5);
/// let conditions = TestConditions::foundational();
/// let mut profiler = OnlineProfiler::new(0.2, conditions);
/// // Profile opportunistically; rows without weak cells report None.
/// for _ in 0..4 {
///     profiler.profile_round(&mut platform, &[100, 101, 102]);
/// }
/// ```
#[derive(Debug)]
pub struct OnlineProfiler {
    guardband: f64,
    conditions: TestConditions,
    profiles: HashMap<u32, RowProfile>,
    /// Simulated time spent profiling (ns), charged from the platform.
    profiling_time_ns: f64,
}

impl OnlineProfiler {
    /// Creates a profiler applying the given fractional `guardband` to
    /// observed minima.
    ///
    /// # Panics
    ///
    /// Panics if `guardband` is not in `[0, 1)`.
    pub fn new(guardband: f64, conditions: TestConditions) -> Self {
        assert!((0.0..1.0).contains(&guardband), "guardband must be in [0, 1)");
        OnlineProfiler { guardband, conditions, profiles: HashMap::new(), profiling_time_ns: 0.0 }
    }

    /// The configured guardband.
    pub fn guardband(&self) -> f64 {
        self.guardband
    }

    /// Total simulated time spent profiling (ns).
    pub fn profiling_time_ns(&self) -> f64 {
        self.profiling_time_ns
    }

    /// One profiling round: re-measures each row in `rows` once (an
    /// "idle window" worth of work) and folds the results in.
    pub fn profile_round(&mut self, platform: &mut TestPlatform, rows: &[u32]) {
        for &row in rows {
            let before = platform.elapsed_ns();
            let measured = guess_rdt(platform, 0, row, &self.conditions, 1 << 20);
            self.profiling_time_ns += platform.elapsed_ns() - before;
            let Some(rdt) = measured else { continue };
            let entry = self.profiles.entry(row).or_insert(RowProfile {
                observed_min: u32::MAX,
                measurements: 0,
                min_updates: 0,
            });
            entry.measurements += 1;
            if rdt < entry.observed_min {
                entry.observed_min = rdt;
                entry.min_updates += 1;
            }
        }
    }

    /// The profile of a row, if it has been measured at least once.
    pub fn profile(&self, row: u32) -> Option<RowProfile> {
        self.profiles.get(&row).copied()
    }

    /// The system-wide recommendation: the guardbanded minimum across
    /// all tracked rows (what a runtime-configurable mitigation would be
    /// programmed with).
    pub fn global_recommendation(&self) -> Option<u32> {
        self.profiles
            .values()
            .map(|p| p.observed_min)
            .min()
            .map(|min| ((f64::from(min)) * (1.0 - self.guardband)).floor().max(1.0) as u32)
    }

    /// The fraction of recent measurements that still lowered a running
    /// minimum, across all rows — an online convergence signal (near
    /// zero once the profile is trustworthy, never exactly zero under
    /// VRD).
    pub fn instability(&self) -> f64 {
        let (updates, total) = self.profiles.values().fold((0u64, 0u64), |(u, t), p| {
            (u + u64::from(p.min_updates), t + u64::from(p.measurements))
        });
        if total == 0 {
            1.0
        } else {
            updates as f64 / total as f64
        }
    }

    /// Number of rows with at least one successful measurement.
    pub fn coverage(&self) -> usize {
        self.profiles.len()
    }
}

/// Trajectory of the global recommendation over profiling rounds — the
/// artifact the `online` experiment reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceTrace {
    /// `(round, global observed min, recommendation, instability)` rows.
    pub rounds: Vec<(u32, u32, u32, f64)>,
}

/// Profiles `rows` for `rounds` idle windows and records the
/// recommendation trajectory.
pub fn convergence_trace(
    platform: &mut TestPlatform,
    profiler: &mut OnlineProfiler,
    rows: &[u32],
    rounds: u32,
) -> ConvergenceTrace {
    let mut trace = Vec::with_capacity(rounds as usize);
    for round in 0..rounds {
        profiler.profile_round(platform, rows);
        if let Some(rec) = profiler.global_recommendation() {
            let min = profiler
                .profiles
                .values()
                .map(|p| p.observed_min)
                .min()
                .expect("recommendation implies a profile");
            trace.push((round, min, rec, profiler.instability()));
        }
    }
    ConvergenceTrace { rounds: trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_core_test_util::vulnerable_rows;

    // Small local helper module so tests can find rows to track.
    mod vrd_core_test_util {
        use super::*;
        pub fn vulnerable_rows(platform: &mut TestPlatform, count: usize) -> Vec<u32> {
            let conditions = TestConditions::foundational();
            let mut rows = Vec::new();
            for row in 2..4000u32 {
                if let Some(t) = platform.device_mut().oracle_row_threshold(0, row, &conditions) {
                    if t < 20_000.0 {
                        rows.push(row);
                        if rows.len() == count {
                            break;
                        }
                    }
                }
            }
            rows
        }
    }

    #[test]
    fn running_min_is_monotone() {
        let mut platform = TestPlatform::small_test(21);
        let rows = vulnerable_rows(&mut platform, 3);
        assert!(!rows.is_empty());
        let mut profiler = OnlineProfiler::new(0.1, TestConditions::foundational());
        let mut prev_min = u32::MAX;
        for _ in 0..8 {
            profiler.profile_round(&mut platform, &rows);
            if let Some(rec) = profiler.global_recommendation() {
                assert!(rec <= prev_min, "recommendation must never rise");
                prev_min = rec;
            }
        }
        assert!(profiler.coverage() >= 1);
        assert!(profiler.profiling_time_ns() > 0.0);
    }

    #[test]
    fn recommendation_applies_guardband() {
        let mut platform = TestPlatform::small_test(22);
        let rows = vulnerable_rows(&mut platform, 1);
        let mut profiler = OnlineProfiler::new(0.25, TestConditions::foundational());
        profiler.profile_round(&mut platform, &rows);
        let p = profiler.profile(rows[0]).expect("row measured");
        let rec = profiler.global_recommendation().unwrap();
        assert_eq!(rec, (f64::from(p.observed_min) * 0.75).floor() as u32);
    }

    #[test]
    fn more_rounds_lower_or_hold_the_estimate() {
        let mut platform = TestPlatform::small_test(23);
        let rows = vulnerable_rows(&mut platform, 2);
        let mut profiler = OnlineProfiler::new(0.1, TestConditions::foundational());
        let trace = convergence_trace(&mut platform, &mut profiler, &rows, 12);
        assert!(!trace.rounds.is_empty());
        for pair in trace.rounds.windows(2) {
            assert!(pair[1].1 <= pair[0].1, "observed min is monotone non-increasing");
        }
    }

    #[test]
    fn instability_decays() {
        let mut platform = TestPlatform::small_test(24);
        let rows = vulnerable_rows(&mut platform, 2);
        let mut profiler = OnlineProfiler::new(0.1, TestConditions::foundational());
        profiler.profile_round(&mut platform, &rows);
        let early = profiler.instability();
        for _ in 0..15 {
            profiler.profile_round(&mut platform, &rows);
        }
        let late = profiler.instability();
        assert!(late <= early, "instability must not grow: {late} vs {early}");
        assert!(late < 1.0);
    }

    #[test]
    #[should_panic(expected = "guardband")]
    fn invalid_guardband_panics() {
        OnlineProfiler::new(1.0, TestConditions::foundational());
    }

    #[test]
    fn untracked_row_has_no_recommendation() {
        let profiler = OnlineProfiler::new(0.1, TestConditions::foundational());
        assert_eq!(profiler.global_recommendation(), None);
        assert_eq!(profiler.coverage(), 0);
    }
}
