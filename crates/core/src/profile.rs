//! Consolidated VRD profiles — the paper's Table 7 as a library type.
//!
//! A [`VrdProfile`] summarizes one module's in-depth campaign the way the
//! paper's Table 7 does: the expected normalized value of the minimum RDT
//! for N ∈ {1, 5, 50, 500} (median and maximum across rows and condition
//! combinations) plus the minimum observed RDT at the RowHammer and
//! RowPress on-times.

use serde::{Deserialize, Serialize};

use vrd_dram::conditions::{T_AGG_ON_MIN_TRAS_NS, T_AGG_ON_TREFI_NS};

use crate::campaign::InDepthResult;
use crate::montecarlo::exact_stats;

/// The measurement counts Table 7 reports.
pub const TABLE7_N_VALUES: [usize; 4] = [1, 5, 50, 500];

/// `(median, max)` of the expected normalized minimum RDT at one N.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NormMinSummary {
    /// Subsample size N.
    pub n: usize,
    /// Median across rows × conditions.
    pub median: f64,
    /// Maximum (the worst row).
    pub max: f64,
}

/// One module's VRD profile (a Table-7 row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VrdProfile {
    /// Module name.
    pub module: String,
    /// Rows contributing series.
    pub rows_measured: usize,
    /// Expected-normalized-minimum summaries per N.
    pub norm_min: Vec<NormMinSummary>,
    /// Minimum observed RDT at `t_AggOn` ≈ min `t_RAS` (RowHammer).
    pub min_rdt_tras: Option<u32>,
    /// Minimum observed RDT at `t_AggOn` = `t_REFI` (RowPress).
    pub min_rdt_trefi: Option<u32>,
    /// Largest max/min ratio over any single series (Finding 5's 3.5×).
    pub worst_max_over_min: f64,
}

impl VrdProfile {
    /// Builds the profile from an in-depth campaign result.
    pub fn from_in_depth(result: &InDepthResult) -> Self {
        let mut norm_min = Vec::new();
        for &n in &TABLE7_N_VALUES {
            let mut values = Vec::new();
            for row in &result.rows {
                for cs in &row.per_condition {
                    if cs.series.len() >= n {
                        values.push(exact_stats(&cs.series, n).expected_normalized_min);
                    }
                }
            }
            if values.is_empty() {
                continue;
            }
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            norm_min.push(NormMinSummary {
                n,
                median: values[values.len() / 2],
                max: *values.last().expect("non-empty"),
            });
        }

        let min_at = |target: f64, tolerance: f64| -> Option<u32> {
            result
                .rows
                .iter()
                .flat_map(|r| r.per_condition.iter())
                .filter(|cs| (cs.conditions.t_agg_on_ns - target).abs() <= tolerance)
                .filter_map(|cs| cs.series.min())
                .min()
        };
        let worst_max_over_min = result
            .rows
            .iter()
            .flat_map(|r| r.per_condition.iter())
            .filter_map(|cs| cs.series.max_over_min())
            .fold(1.0, f64::max);

        VrdProfile {
            module: result.module.clone(),
            rows_measured: result.rows.len(),
            norm_min,
            min_rdt_tras: min_at(T_AGG_ON_MIN_TRAS_NS, 50.0),
            min_rdt_trefi: min_at(T_AGG_ON_TREFI_NS, 1.0),
            worst_max_over_min,
        }
    }

    /// The summary for a given N, if measured.
    pub fn at_n(&self, n: usize) -> Option<NormMinSummary> {
        self.norm_min.iter().copied().find(|s| s.n == n)
    }

    /// The smallest RDT observed at any measured on-time — the
    /// worst-case anchor a mitigation threshold (or a per-region
    /// mitigation profile derived from it) must not exceed. `None` when
    /// the campaign measured no series at the profiled on-times.
    pub fn min_observed_rdt(&self) -> Option<u32> {
        match (self.min_rdt_tras, self.min_rdt_trefi) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Whether this profile is *worse* than `other` at N = 1 (the paper's
    /// density/revision comparison, Finding 11): higher median expected
    /// normalized minimum.
    pub fn worse_than(&self, other: &VrdProfile) -> Option<bool> {
        Some(self.at_n(1)?.median > other.at_n(1)?.median)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{in_depth_campaign, InDepthConfig};
    use crate::exec::ExecConfig;
    use crate::run::RunOptions;
    use vrd_dram::ModuleSpec;

    fn quick_profile(name: &str) -> VrdProfile {
        let spec = ModuleSpec::by_name(name).expect("Table-1 module");
        let cfg = InDepthConfig::quick();
        let opts = RunOptions::new(ExecConfig::serial(cfg.seed));
        let result = in_depth_campaign(&[spec], &cfg, &opts).expect("plain run cannot fail");
        VrdProfile::from_in_depth(&result[0])
    }

    #[test]
    fn profile_has_monotone_norm_min() {
        let p = quick_profile("M1");
        assert_eq!(p.module, "M1");
        assert!(p.rows_measured > 0);
        let mut prev = f64::INFINITY;
        for s in &p.norm_min {
            assert!(s.median >= 1.0 - 1e-9, "N={}: median {}", s.n, s.median);
            assert!(s.max >= s.median - 1e-12);
            assert!(s.median <= prev + 1e-9, "median must shrink with N");
            prev = s.median;
        }
    }

    #[test]
    fn worst_ratio_at_least_one() {
        let p = quick_profile("S2");
        assert!(p.worst_max_over_min >= 1.0);
    }

    #[test]
    fn at_n_lookup() {
        let p = quick_profile("H3");
        assert!(p.at_n(1).is_some());
        assert_eq!(p.at_n(999), None);
    }

    #[test]
    fn min_rdt_tras_present_for_quick_grid() {
        // The quick config tests only the foundational conditions (min
        // tRAS), so the tRAS minimum exists and the tREFI one does not.
        let p = quick_profile("M4");
        assert!(p.min_rdt_tras.is_some());
        assert_eq!(p.min_rdt_trefi, None);
    }

    #[test]
    fn min_observed_rdt_takes_the_smaller_on_time_minimum() {
        let mut p = quick_profile("M1");
        assert_eq!(p.min_observed_rdt(), p.min_rdt_tras, "quick grid has only tRAS minima");
        p.min_rdt_trefi = Some(1);
        assert_eq!(p.min_observed_rdt(), Some(1));
        p.min_rdt_tras = None;
        assert_eq!(p.min_observed_rdt(), Some(1));
        p.min_rdt_trefi = None;
        assert_eq!(p.min_observed_rdt(), None);
    }
}
