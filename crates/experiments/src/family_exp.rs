//! Device-family comparison study: per-bank RDT variation.
//!
//! The HBM read-disturbance characterization this repo's HBM2 roster is
//! calibrated against reports substantially larger bank-to-bank spread
//! in read-disturbance thresholds than DDR4 modules show. The family
//! descriptor models that spread as a per-bank lognormal factor
//! ([`vrd_dram::BankVariation`], zero for DDR4), and this study
//! measures it back out of the device model through the threshold
//! oracle: for every module in scope it probes the same row indices in
//! a stride of banks, averages each bank's log-thresholds, and reports
//! the cross-bank standard deviation of those means.
//!
//! Probing identical row indices in every bank is what makes the
//! statistic family-specific: the spatial (subarray) factor depends
//! only on the physical row, so it contributes the same offset to every
//! bank and cancels out of the cross-bank spread. What remains is the
//! per-bank factor plus row-lottery noise, and the latter shrinks with
//! the number of rows averaged while the former does not.
//!
//! Findings F20 and F21 (the scoreboard entries beyond the paper's 17
//! and the defenses sweep's F18/F19) are predicates over this study.

use serde::{Deserialize, Serialize};

use vrd_dram::fleet::Module;
use vrd_dram::{DramStandard, TestConditions};

use crate::opts::Options;
use crate::render::{f, Table};

/// Banks probed per module (strided across the whole bank space so
/// HBM2 pseudo-channels and bank groups are all represented).
const BANKS_PROBED: u32 = 16;

/// Row indices sampled per bank. Each bank's log-threshold mean is
/// taken over this many rows, so the row-lottery noise floor of the
/// cross-bank spread scales as `sigma_ln / sqrt(ROWS_PER_BANK)`.
const ROWS_PER_BANK: u32 = 64;

/// Per-bank oracle thresholds for one module.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModuleBankSpread {
    /// Module name from Table 1.
    pub module: String,
    /// Device family the module belongs to.
    pub standard: DramStandard,
    /// Flat bank indices probed.
    pub banks: Vec<u32>,
    /// Mean `ln(threshold)` per probed bank, over the sampled rows that
    /// hold at least one weak cell.
    pub per_bank_mean_ln: Vec<f64>,
    /// Standard deviation of the per-bank means (log space): the
    /// cross-bank RDT spread.
    pub cross_bank_sigma: f64,
    /// `exp(max - min)` of the per-bank means: how much weaker the
    /// weakest probed bank is than the strongest.
    pub worst_to_best_ratio: f64,
}

/// Per-bank RDT spread for every module in scope.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FamilyStudy {
    /// One entry per module, in roster order.
    pub per_module: Vec<ModuleBankSpread>,
}

impl FamilyStudy {
    /// Median cross-bank sigma over the modules of one family, or
    /// `None` if the family is not in scope.
    pub fn family_sigma(&self, standard: DramStandard) -> Option<f64> {
        let sigmas: Vec<f64> = self
            .per_module
            .iter()
            .filter(|m| m.standard == standard)
            .map(|m| m.cross_bank_sigma)
            .collect();
        vrd_stats::descriptive::median(&sigmas).ok()
    }
}

/// Runs the study on every module of `specs` (the CLI passes the module
/// scope, the fleet service its synthetic modules). Pure computation
/// against the threshold oracle: no campaign harness, no checkpoint (a
/// service job that restarts simply reruns it).
pub fn run_with(opts: &Options, specs: Vec<vrd_dram::ModuleSpec>) -> FamilyStudy {
    let conditions = TestConditions::default();
    let mut per_module = Vec::new();
    for spec in specs {
        let name = spec.name.clone();
        let standard = spec.standard;
        let topology = spec.family().topology;
        let mut module = Module::new_with_row_bytes(spec, opts.seed, opts.row_bytes);
        let device = module.device_mut();

        let total_banks = topology.banks();
        let probed = total_banks.min(BANKS_PROBED);
        let stride = (total_banks / probed).max(1);
        let banks: Vec<u32> = (0..probed).map(|i| i * stride).collect();

        // The same row indices in every bank: the spatial factor is a
        // function of the row alone, so it cancels across banks.
        let rows: Vec<u32> = (1..=ROWS_PER_BANK)
            .map(|i| i * (topology.rows_per_bank / (ROWS_PER_BANK + 2)))
            .collect();

        let mut per_bank_mean_ln = Vec::with_capacity(banks.len());
        for &bank in &banks {
            let lns: Vec<f64> = rows
                .iter()
                .filter_map(|&row| device.oracle_row_threshold(bank as usize, row, &conditions))
                .map(f64::ln)
                .collect();
            let mean = lns.iter().sum::<f64>() / (lns.len().max(1) as f64);
            per_bank_mean_ln.push(mean);
        }

        let sigma = vrd_stats::descriptive::stddev(&per_bank_mean_ln).unwrap_or(0.0);
        let max = per_bank_mean_ln.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = per_bank_mean_ln.iter().copied().fold(f64::INFINITY, f64::min);
        per_module.push(ModuleBankSpread {
            module: name,
            standard,
            banks,
            per_bank_mean_ln,
            cross_bank_sigma: sigma,
            worst_to_best_ratio: (max - min).exp(),
        });
    }
    FamilyStudy { per_module }
}

/// Renders the study as a per-module table.
pub fn render_family(study: &FamilyStudy) -> String {
    let mut table = Table::new(["module", "family", "banks", "cross-bank sigma", "worst/best"]);
    for m in &study.per_module {
        table.row([
            m.module.clone(),
            format!("{:?}", m.standard),
            m.banks.len().to_string(),
            f(m.cross_bank_sigma, 4),
            f(m.worst_to_best_ratio, 3),
        ]);
    }
    let mut out = format!(
        "Per-bank RDT variation ({} rows/bank through the threshold oracle)\n{}",
        ROWS_PER_BANK,
        table.render()
    );
    if let (Some(hbm), Some(ddr)) =
        (study.family_sigma(DramStandard::Hbm2), study.family_sigma(DramStandard::Ddr4))
    {
        out.push_str(&format!(
            "family medians: HBM2 {} vs DDR4 {} ({}x)\n",
            f(hbm, 4),
            f(ddr, 4),
            f(hbm / ddr.max(1e-12), 2),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(opts: &Options) -> FamilyStudy {
        run_with(opts, opts.specs())
    }

    fn two_family_opts() -> Options {
        Options { modules: vec!["M1".into(), "Chip0".into()], row_bytes: 512, ..Options::default() }
    }

    #[test]
    fn study_covers_scope_in_roster_order() {
        let study = run(&two_family_opts());
        let names: Vec<&str> = study.per_module.iter().map(|m| m.module.as_str()).collect();
        assert_eq!(names, ["M1", "Chip0"]);
        for m in &study.per_module {
            assert_eq!(m.per_bank_mean_ln.len(), m.banks.len());
            assert!(m.banks.len() <= BANKS_PROBED as usize);
            assert!(m.cross_bank_sigma.is_finite());
            assert!(m.worst_to_best_ratio >= 1.0);
        }
    }

    #[test]
    fn hbm2_spread_exceeds_ddr4() {
        let study = run(&two_family_opts());
        let hbm = study.family_sigma(DramStandard::Hbm2).expect("Chip0 in scope");
        let ddr = study.family_sigma(DramStandard::Ddr4).expect("M1 in scope");
        assert!(
            hbm > ddr,
            "HBM2 cross-bank sigma {hbm:.4} must exceed DDR4's noise floor {ddr:.4}"
        );
    }

    #[test]
    fn probed_banks_span_hbm2_pseudo_channels() {
        let study =
            run(&Options { modules: vec!["Chip1".into()], row_bytes: 512, ..Options::default() });
        let spec = vrd_dram::ModuleSpec::by_name("Chip1").expect("Chip1 exists");
        let topology = spec.family().topology;
        let channels: std::collections::BTreeSet<u32> = study.per_module[0]
            .banks
            .iter()
            .map(|&b| topology.address_of(b).pseudo_channel)
            .collect();
        assert_eq!(channels.len(), 2, "both pseudo-channels probed");
    }
}
