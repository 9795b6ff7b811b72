//! §6.4 guardband experiment (Fig. 16) and the worst-BER bridge into
//! Table 3.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use vrd_core::exec::{self, Unit, UnitKey};
use vrd_core::guardband::{
    run_guardband, worst_bit_error_rate, GuardbandConfig, RowGuardbandResult,
};
use vrd_dram::ModuleSpec;

use crate::opts::Options;
use crate::render::{sci, Table};

/// The guardband study across modules.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GuardbandStudy {
    /// Per-module row results.
    pub per_module: Vec<(String, Vec<RowGuardbandResult>)>,
    /// Row size used (bits), for BER conversion.
    pub row_bits: u32,
}

/// Runs the guardband experiment across the module scope (DDR4 only, as
/// in the paper's §6.4).
pub fn run(opts: &Options) -> GuardbandStudy {
    let results = map_modules(opts, |spec| {
        if spec.standard != vrd_dram::DramStandard::Ddr4 {
            return (spec.name.clone(), Vec::new());
        }
        let cfg = GuardbandConfig {
            trials: opts.guardband_trials,
            rows: opts.guardband_rows,
            seed: opts.seed,
            row_bytes: opts.row_bytes,
            ..GuardbandConfig::default()
        };
        (spec.name.clone(), run_guardband(spec, &cfg))
    });
    GuardbandStudy { per_module: results, row_bits: opts.row_bytes * 8 }
}

/// Maps `f` over the option's module specs on the deterministic executor
/// ([`vrd_core::exec`]), preserving Table-1 order in the output. One
/// unit per module; a panicking module panics the call.
fn map_modules<T, F>(opts: &Options, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&ModuleSpec) -> T + Sync,
{
    let units: Vec<Unit<ModuleSpec>> =
        opts.specs().into_iter().map(|s| Unit::new(UnitKey::module(&s.name), s)).collect();
    exec::execute(&opts.exec_config(), units, |_ctx, spec| f(spec)).into_results()
}

/// Histogram of unique bitflips per row at the given margin (Fig. 16).
pub fn unique_flip_histogram(study: &GuardbandStudy, margin: f64) -> BTreeMap<usize, u32> {
    let mut hist = BTreeMap::new();
    for (_, rows) in &study.per_module {
        for row in rows {
            for m in &row.per_margin {
                if (m.margin - margin).abs() < 1e-9 {
                    *hist.entry(m.unique_flip_bits.len()).or_insert(0) += 1;
                }
            }
        }
    }
    hist
}

/// Renders Fig. 16 plus the §6.4 observations.
pub fn render_fig16(study: &GuardbandStudy) -> String {
    let hist = unique_flip_histogram(study, 0.1);
    let mut table = Table::new(["unique bitflips", "# of rows"]);
    for (flips, count) in &hist {
        table.row([flips.to_string(), count.to_string()]);
    }
    let max_chips = study
        .per_module
        .iter()
        .flat_map(|(_, rows)| rows.iter())
        .flat_map(|r| r.per_margin.iter())
        .filter(|m| (m.margin - 0.1).abs() < 1e-9)
        .map(|m| m.unique_chips)
        .max()
        .unwrap_or(0);
    let max_per_codeword = study
        .per_module
        .iter()
        .flat_map(|(_, rows)| rows.iter())
        .flat_map(|r| r.per_margin.iter())
        .filter(|m| (m.margin - 0.1).abs() < 1e-9)
        .map(|m| m.max_flips_per_secded_word)
        .max()
        .unwrap_or(0);
    let worst_ber = worst_margin_ber(study, 0.1);
    let wide_margin_flips: usize = study
        .per_module
        .iter()
        .flat_map(|(_, rows)| rows.iter())
        .flat_map(|r| r.per_margin.iter())
        .filter(|m| m.margin > 0.15)
        .map(|m| m.unique_flip_bits.len())
        .sum();
    format!(
        "Fig. 16 — unique bitflips per row at a 10% safety margin:\n{}\n\
         worst-case chips affected per module: {max_chips} (paper: up to 4)\n\
         worst-case flips in one SECDED codeword: {max_per_codeword} (paper: at most 1)\n\
         worst observed bit error rate at 10% margin: {} (paper: 7.6e-5)\n\
         total unique flips at margins > 10%: {wide_margin_flips} (paper: none beyond 1 per row)\n",
        table.render(),
        sci(worst_ber),
    )
}

/// The worst bit error rate across modules at a margin.
pub fn worst_margin_ber(study: &GuardbandStudy, margin: f64) -> f64 {
    study
        .per_module
        .iter()
        .map(|(_, rows)| worst_bit_error_rate(rows, margin, study.row_bits))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn smoke_study() -> &'static GuardbandStudy {
        static STUDY: OnceLock<GuardbandStudy> = OnceLock::new();
        STUDY.get_or_init(|| {
            let mut opts = Options::smoke();
            opts.modules = vec!["M4".into(), "S0".into()];
            opts.guardband_trials = 120;
            opts.guardband_rows = 3;
            run(&opts)
        })
    }

    #[test]
    fn map_modules_preserves_order() {
        let mut opts = Options::smoke();
        opts.modules = vec!["H0".into(), "M1".into(), "S0".into()];
        let names = map_modules(&opts, |spec| spec.name.clone());
        assert_eq!(names, vec!["H0", "M1", "S0"]);
    }

    #[test]
    fn map_modules_parallel_matches_serial() {
        let mut opts = Options::smoke();
        opts.modules.clear(); // all 25
        opts.threads = 8;
        let parallel = map_modules(&opts, |spec| spec.family().topology.rows_per_bank);
        opts.threads = 1;
        let serial = map_modules(&opts, |spec| spec.family().topology.rows_per_bank);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn study_produces_rows() {
        let study = smoke_study();
        let rows: usize = study.per_module.iter().map(|(_, r)| r.len()).sum();
        assert!(rows > 0, "guardband study must test rows");
    }

    #[test]
    fn histogram_totals_match_rows() {
        let study = smoke_study();
        let hist = unique_flip_histogram(study, 0.1);
        let total: u32 = hist.values().sum();
        let rows: usize = study
            .per_module
            .iter()
            .flat_map(|(_, rows)| rows.iter())
            .filter(|r| r.per_margin.iter().any(|m| (m.margin - 0.1).abs() < 1e-9))
            .count();
        assert_eq!(total as usize, rows);
    }

    #[test]
    fn tighter_margin_flips_at_least_as_much() {
        let study = smoke_study();
        let flips_at = |margin: f64| -> usize {
            study
                .per_module
                .iter()
                .flat_map(|(_, rows)| rows.iter())
                .flat_map(|r| r.per_margin.iter())
                .filter(|m| (m.margin - margin).abs() < 1e-9)
                .map(|m| m.unique_flip_bits.len())
                .sum()
        };
        assert!(flips_at(0.1) >= flips_at(0.5));
    }

    #[test]
    fn render_contains_key_lines() {
        let s = render_fig16(smoke_study());
        assert!(s.contains("unique bitflips"));
        assert!(s.contains("bit error rate"));
    }
}
