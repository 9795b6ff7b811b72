//! Test conditions: the environmental axes the paper sweeps (§5).
//!
//! A VRD profile is a function of data pattern, aggressor-row on-time
//! (`t_AggOn`), and temperature. [`TestConditions`] bundles the three, with
//! the paper's standard values as constructors.

use serde::{Deserialize, Serialize};

use crate::pattern::DataPattern;

/// Minimum `t_RAS`-like aggressor on-time used by the paper (≈ 35 ns).
pub const T_AGG_ON_MIN_TRAS_NS: f64 = 35.0;

/// DDR4 `t_REFI` (7.8 µs) in nanoseconds — the paper's second on-time.
pub const T_AGG_ON_TREFI_NS: f64 = 7_800.0;

/// `9 × t_REFI` (70.2 µs) in nanoseconds — the paper's third on-time, the
/// maximum time a row may stay open per the DDR4/HBM2 standards.
pub const T_AGG_ON_9TREFI_NS: f64 = 70_200.0;

/// The three aggressor on-time values tested in §5.
pub const T_AGG_ON_VALUES_NS: [f64; 3] =
    [T_AGG_ON_MIN_TRAS_NS, T_AGG_ON_TREFI_NS, T_AGG_ON_9TREFI_NS];

/// The three temperatures tested in §5 (°C).
pub const TEMPERATURES_C: [f64; 3] = [50.0, 65.0, 80.0];

/// One combination of the paper's test parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestConditions {
    /// Data pattern used to initialize victim/aggressor/outer rows.
    pub pattern: DataPattern,
    /// Aggressor row on-time per activation, in nanoseconds.
    pub t_agg_on_ns: f64,
    /// DRAM temperature in °C.
    pub temperature_c: f64,
}

impl TestConditions {
    /// The paper's foundational-experiment conditions: Checkered0 data
    /// pattern, minimum `t_RAS` on-time, 50 °C.
    pub fn foundational() -> Self {
        TestConditions {
            pattern: DataPattern::Checkered0,
            t_agg_on_ns: T_AGG_ON_MIN_TRAS_NS,
            temperature_c: 50.0,
        }
    }

    /// Replaces the data pattern.
    pub fn with_pattern(mut self, pattern: DataPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Replaces the aggressor on-time (ns).
    ///
    /// # Panics
    ///
    /// Panics if `t_agg_on_ns` is not positive.
    pub fn with_t_agg_on_ns(mut self, t_agg_on_ns: f64) -> Self {
        assert!(t_agg_on_ns > 0.0, "t_agg_on must be positive");
        self.t_agg_on_ns = t_agg_on_ns;
        self
    }

    /// The full 4 × 3 × 3 grid of test-parameter combinations of §5.
    pub fn full_grid() -> Vec<TestConditions> {
        let mut grid = Vec::with_capacity(36);
        for pattern in DataPattern::ALL {
            for &t in &T_AGG_ON_VALUES_NS {
                for &temp in &TEMPERATURES_C {
                    grid.push(TestConditions { pattern, t_agg_on_ns: t, temperature_c: temp });
                }
            }
        }
        grid
    }
}

impl Default for TestConditions {
    fn default() -> Self {
        TestConditions::foundational()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn foundational_matches_paper() {
        let c = TestConditions::foundational();
        assert_eq!(c.pattern, DataPattern::Checkered0);
        assert_eq!(c.t_agg_on_ns, 35.0);
        assert_eq!(c.temperature_c, 50.0);
    }

    #[test]
    fn grid_has_36_combinations() {
        let g = TestConditions::full_grid();
        assert_eq!(g.len(), 36);
        // All distinct.
        for (i, a) in g.iter().enumerate() {
            for b in &g[i + 1..] {
                assert!(a != b);
            }
        }
    }

    #[test]
    fn builders_replace_fields() {
        let c = TestConditions::foundational()
            .with_pattern(DataPattern::Rowstripe1)
            .with_t_agg_on_ns(T_AGG_ON_TREFI_NS);
        assert_eq!(c.pattern, DataPattern::Rowstripe1);
        assert_eq!(c.t_agg_on_ns, 7800.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_on_time_panics() {
        TestConditions::foundational().with_t_agg_on_ns(0.0);
    }

    #[test]
    fn trefi_values_consistent() {
        assert!((T_AGG_ON_9TREFI_NS - 9.0 * T_AGG_ON_TREFI_NS).abs() < 1e-9);
    }
}
