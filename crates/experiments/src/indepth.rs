//! The §5 in-depth study and its figures (Figs. 7, 9–13) plus Table 7.

use serde::{Deserialize, Serialize};

use vrd_core::campaign::{in_depth_campaign, ConditionSeries, InDepthConfig, InDepthResult};
use vrd_core::montecarlo::{exact_stats, PAPER_N_VALUES};
use vrd_dram::cells::CellPolarity;
use vrd_dram::conditions::T_AGG_ON_TREFI_NS;
use vrd_dram::{DataPattern, ModuleSpec, TestConditions};
use vrd_stats::{BoxSummary, SCurve};

use crate::opts::Options;
use crate::render::{f, Table};

/// The in-depth study output across the module scope.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InDepthStudy {
    /// Per-module campaign results.
    pub per_module: Vec<InDepthResult>,
}

impl InDepthStudy {
    /// Every measured series with its module's name, in study order:
    /// module, then row, then condition.
    pub fn cells(&self) -> impl Iterator<Item = (&str, &ConditionSeries)> {
        self.per_module.iter().flat_map(|module| {
            let name = module.module.as_str();
            module.rows.iter().flat_map(|row| &row.per_condition).map(move |cs| (name, cs))
        })
    }
}

/// The in-depth campaign configuration at this scale.
pub fn config(opts: &Options) -> InDepthConfig {
    InDepthConfig {
        measurements: opts.indepth_measurements,
        segment_rows: opts.segment_rows,
        picks_per_segment: opts.picks_per_segment,
        conditions: opts.condition_grid(),
        seed: opts.seed,
        row_bytes: opts.row_bytes,
    }
}

/// Runs the in-depth campaign over an explicit spec list under
/// caller-supplied [`RunOptions`](vrd_core::run::RunOptions) — the
/// reusable core both the CLI harness
/// ([`Studies::indepth`](crate::studies::Studies::indepth)) and the
/// fleet service drive. Every (module × row × condition) cell is one
/// work unit sharing a single pool, so thin modules do not idle
/// threads, and the output is identical at any thread count.
///
/// # Errors
///
/// Propagates checkpoint I/O errors and cooperative interruption.
pub fn run_with(
    opts: &Options,
    specs: &[ModuleSpec],
    run_opts: &vrd_core::run::RunOptions<'_>,
) -> Result<InDepthStudy, vrd_core::checkpoint::CheckpointError> {
    let cfg = config(opts);
    Ok(InDepthStudy { per_module: in_depth_campaign(specs, &cfg, run_opts)? })
}

/// The maximum CV across condition combinations for every tested row
/// (the y-values of Fig. 7a).
pub fn max_cv_per_row(study: &InDepthStudy) -> Vec<f64> {
    let mut cvs = Vec::new();
    for module in &study.per_module {
        for row in &module.rows {
            let max_cv = row
                .per_condition
                .iter()
                .filter_map(|cs| cs.series.cv().ok())
                .fold(f64::NAN, f64::max);
            if max_cv.is_finite() {
                cvs.push(max_cv);
            }
        }
    }
    cvs
}

/// Fig. 7: the CV S-curve and the P50/P100 example rows.
pub fn render_fig7(study: &InDepthStudy) -> String {
    let cvs = max_cv_per_row(study);
    let Ok(curve) = SCurve::from_values(cvs) else {
        return "no rows measured".to_owned();
    };
    let mut table = Table::new(["percentile", "max CV across conditions"]);
    for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
        table.row([f(p, 0), f(curve.value_at_percentile(p), 4)]);
    }
    format!(
        "Fig. 7a — S-curve of per-row max coefficient of variation ({} rows):\n{}\n\
         fraction of rows with CV > 0.03: {:.1}% (paper: ~50%)\n\
         maximum CV: {:.3} (paper: 0.52)\n",
        curve.len(),
        table.render(),
        100.0 * curve.fraction_above(0.03),
        curve.max()
    )
}

/// One labelled group of expected-normalized-min distributions per N.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NormMinGroup {
    /// Group label (e.g. `"Mfr. M 16Gb-F"` or `"Checkered0"`).
    pub label: String,
    /// `(N, box summary)` pairs.
    pub per_n: Vec<(usize, BoxSummary)>,
}

fn group_table(groups: &[NormMinGroup]) -> String {
    let mut table = Table::new(["group", "N", "median", "Q3", "max"]);
    for g in groups {
        for (n, b) in &g.per_n {
            table.row([g.label.clone(), n.to_string(), f(b.median, 3), f(b.q3, 3), f(b.max, 3)]);
        }
    }
    table.render()
}

fn boxes_for(
    study: &InDepthStudy,
    label: String,
    module_filter: impl Fn(&str) -> bool,
    condition_filter: impl Fn(&TestConditions) -> bool,
) -> Option<NormMinGroup> {
    let per_n: Vec<(usize, BoxSummary)> = PAPER_N_VALUES
        .into_iter()
        .filter_map(|n| {
            let values: Vec<f64> = study
                .cells()
                .filter(|(module, cs)| {
                    module_filter(module)
                        && condition_filter(&cs.conditions)
                        && cs.series.len() >= n
                })
                .map(|(_, cs)| exact_stats(&cs.series, n).expected_normalized_min)
                .collect();
            BoxSummary::from_values(&values).ok().map(|b| (n, b))
        })
        .collect();
    (!per_n.is_empty()).then_some(NormMinGroup { label, per_n })
}

/// The manufacturer classes of Figs. 10 and 11: a label and the prefix
/// of its Table-1 module names.
const CLASSES: [(&str, &str); 4] =
    [("Mfr. H", "H"), ("Mfr. M", "M"), ("Mfr. S", "S"), ("HBM2", "Chip")];

/// The distinct values one condition parameter takes across the study
/// (values within 1e-9 count as one), ascending.
fn distinct_values(study: &InDepthStudy, param: fn(&TestConditions) -> f64) -> Vec<f64> {
    let mut values: Vec<f64> = Vec::new();
    for (_, cs) in study.cells() {
        let v = param(&cs.conditions);
        if !values.iter().any(|&t| (t - v).abs() < 1e-9) {
            values.push(v);
        }
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    values
}

/// Fig. 9: expected normalized minimum RDT grouped by manufacturer ×
/// density × die revision.
pub fn fig9_groups(study: &InDepthStudy) -> Vec<NormMinGroup> {
    use std::collections::BTreeMap;
    let mut by_group: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for module in &study.per_module {
        let Some(spec) = ModuleSpec::by_name(&module.module) else { continue };
        if spec.standard != vrd_dram::DramStandard::Ddr4 {
            continue;
        }
        let label = format!(
            "{} {}Gb-{}",
            spec.manufacturer,
            spec.density.gigabits().unwrap_or(0),
            spec.die_revision.unwrap_or('?')
        );
        by_group.entry(label).or_default().push(module.module.clone());
    }
    by_group
        .into_iter()
        .filter_map(|(label, members)| {
            boxes_for(study, label, |name| members.iter().any(|m| m == name), |_| true)
        })
        .collect()
}

/// Renders Fig. 9.
pub fn render_fig9(study: &InDepthStudy) -> String {
    format!(
        "Fig. 9 — expected normalized min RDT by die density & revision:\n{}",
        group_table(&fig9_groups(study))
    )
}

/// Fig. 10: grouped by data pattern within each manufacturer (+ HBM2).
pub fn fig10_groups(study: &InDepthStudy) -> Vec<NormMinGroup> {
    let mut groups = Vec::new();
    for (mfr_label, prefix) in CLASSES {
        let in_class = |name: &str| name.starts_with(prefix);
        for pattern in DataPattern::ALL {
            let label = format!("{mfr_label} {pattern}");
            groups.extend(boxes_for(study, label, in_class, |c| c.pattern == pattern));
        }
    }
    groups
}

/// Renders Fig. 10.
pub fn render_fig10(study: &InDepthStudy) -> String {
    format!(
        "Fig. 10 — expected normalized min RDT by data pattern:\n{}",
        group_table(&fig10_groups(study))
    )
}

/// Fig. 11: grouped by aggressor on-time within each manufacturer class.
pub fn fig11_groups(study: &InDepthStudy) -> Vec<NormMinGroup> {
    let on_times = distinct_values(study, |c| c.t_agg_on_ns);
    let mut groups = Vec::new();
    for (mfr_label, prefix) in CLASSES {
        let in_class = |name: &str| name.starts_with(prefix);
        for &t in &on_times {
            let label = format!("{mfr_label} tAggOn={t}ns");
            groups.extend(boxes_for(study, label, in_class, |c| (c.t_agg_on_ns - t).abs() < 1e-9));
        }
    }
    groups
}

/// Renders Fig. 11.
pub fn render_fig11(study: &InDepthStudy) -> String {
    format!(
        "Fig. 11 — expected normalized min RDT by aggressor on-time:\n{}",
        group_table(&fig11_groups(study))
    )
}

/// Fig. 12: grouped by temperature for up to six example chips
/// (Rowstripe1, minimum `t_RAS`).
pub fn fig12_groups(study: &InDepthStudy) -> Vec<NormMinGroup> {
    let examples = ["M0", "M1", "S0", "S2", "H1", "H3"];
    let temps = distinct_values(study, |c| c.temperature_c);
    let mut groups = Vec::new();
    for name in examples {
        for &temp in &temps {
            groups.extend(boxes_for(
                study,
                format!("{name} @{temp}°C"),
                |n| n == name,
                |c| {
                    (c.temperature_c - temp).abs() < 1e-9
                        && c.pattern == DataPattern::Rowstripe1
                        && c.t_agg_on_ns < 100.0
                },
            ));
        }
    }
    groups
}

/// Renders Fig. 12.
pub fn render_fig12(study: &InDepthStudy) -> String {
    format!(
        "Fig. 12 — expected normalized min RDT (N = 1) by temperature:\n{}",
        group_table(&fig12_groups(study))
    )
}

/// The CVs of M0's series split by their row's cell polarity,
/// `(anti-cell, true-cell)` (Fig. 13 and Finding 17); `None` when M0 is
/// not in the study.
pub fn m0_cvs_by_polarity(study: &InDepthStudy) -> Option<(Vec<f64>, Vec<f64>)> {
    let m0 = study.per_module.iter().find(|m| m.module == "M0")?;
    let family = ModuleSpec::by_name("M0").expect("M0 is a Table-1 module").family();
    let (layout, mapping) = (family.cell_layout, family.mapping);
    let (mut anti, mut true_cells) = (Vec::new(), Vec::new());
    for row in &m0.rows {
        let polarity = layout.polarity_of_physical_row(mapping.physical_of(row.row));
        for cs in &row.per_condition {
            if let Ok(cv) = cs.series.cv() {
                match polarity {
                    CellPolarity::Anti => anti.push(cv),
                    CellPolarity::True => true_cells.push(cv),
                }
            }
        }
    }
    Some((anti, true_cells))
}

/// Fig. 13: CV distributions of anti-cell vs true-cell rows in M0.
pub fn render_fig13(study: &InDepthStudy) -> String {
    let Some((anti, true_cells)) = m0_cvs_by_polarity(study) else {
        return "module M0 not in scope".to_owned();
    };
    let mut table = Table::new(["cell type", "rows×conds", "median CV", "Q3", "max"]);
    for (label, values) in [("anti-cell", &anti), ("true-cell", &true_cells)] {
        if let Ok(b) = BoxSummary::from_values(values) {
            table.row([
                label.to_owned(),
                values.len().to_string(),
                f(b.median, 4),
                f(b.q3, 4),
                f(b.max, 4),
            ]);
        }
    }
    format!(
        "Fig. 13 — CV of RDT for anti- vs true-cell rows in M0 (Finding 17: \
         no significant difference expected):\n{}",
        table.render()
    )
}

/// One module's Table-7 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table7Row {
    /// Module name.
    pub module: String,
    /// `(N, median, max)` expected normalized min RDT.
    pub norm_min: Vec<(usize, f64, f64)>,
    /// Minimum observed RDT at `t_AggOn` ≈ min `t_RAS`.
    pub min_rdt_tras: Option<u32>,
    /// Minimum observed RDT at `t_AggOn` = `t_REFI`.
    pub min_rdt_trefi: Option<u32>,
}

/// Computes Table 7 from the study.
pub fn table7(study: &InDepthStudy) -> Vec<Table7Row> {
    let ns = [1usize, 5, 50, 500];
    study
        .per_module
        .iter()
        .map(|module| {
            let mut norm_min = Vec::new();
            for &n in &ns {
                let mut values = Vec::new();
                for row in &module.rows {
                    for cs in &row.per_condition {
                        if cs.series.len() >= n {
                            values.push(exact_stats(&cs.series, n).expected_normalized_min);
                        }
                    }
                }
                if let (Ok(med), Some(max)) = (
                    vrd_stats::descriptive::median(&values),
                    values
                        .iter()
                        .copied()
                        .fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.max(v)))),
                ) {
                    norm_min.push((n, med, max));
                }
            }
            let min_at = |pred: &dyn Fn(f64) -> bool| -> Option<u32> {
                module
                    .rows
                    .iter()
                    .flat_map(|r| r.per_condition.iter())
                    .filter(|cs| pred(cs.conditions.t_agg_on_ns))
                    .filter_map(|cs| cs.series.min())
                    .min()
            };
            Table7Row {
                module: module.module.clone(),
                norm_min,
                min_rdt_tras: min_at(&|t| t < 100.0),
                min_rdt_trefi: min_at(&|t| (t - T_AGG_ON_TREFI_NS).abs() < 1.0),
            }
        })
        .collect()
}

/// Renders Table 7.
pub fn render_table7(study: &InDepthStudy) -> String {
    let rows = table7(study);
    let mut table = Table::new([
        "module",
        "N=1 med",
        "N=1 max",
        "N=5 med",
        "N=50 med",
        "N=500 med",
        "minRDT tRAS",
        "minRDT tREFI",
    ]);
    for r in rows {
        let get = |n: usize| r.norm_min.iter().find(|(m, _, _)| *m == n);
        table.row([
            r.module.clone(),
            get(1).map(|(_, m, _)| f(*m, 3)).unwrap_or_else(|| "-".into()),
            get(1).map(|(_, _, x)| f(*x, 3)).unwrap_or_else(|| "-".into()),
            get(5).map(|(_, m, _)| f(*m, 3)).unwrap_or_else(|| "-".into()),
            get(50).map(|(_, m, _)| f(*m, 3)).unwrap_or_else(|| "-".into()),
            get(500).map(|(_, m, _)| f(*m, 3)).unwrap_or_else(|| "-".into()),
            r.min_rdt_tras.map(|v| v.to_string()).unwrap_or_else(|| "-".into()),
            r.min_rdt_trefi.map(|v| v.to_string()).unwrap_or_else(|| "-".into()),
        ]);
    }
    format!("Table 7 — per-module VRD profile:\n{}", table.render())
}

/// Fraction of rows exhibiting temporal variation under *all* tested
/// conditions (Finding 6's 97.1%).
pub fn all_condition_variation_fraction(study: &InDepthStudy) -> f64 {
    let mut total = 0usize;
    let mut varying_everywhere = 0usize;
    for module in &study.per_module {
        for row in &module.rows {
            if row.per_condition.is_empty() {
                continue;
            }
            total += 1;
            let everywhere = row
                .per_condition
                .iter()
                .all(|cs| vrd_stats::histogram::unique_count(cs.series.values()) > 1);
            if everywhere {
                varying_everywhere += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        varying_everywhere as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn smoke_study() -> &'static InDepthStudy {
        static STUDY: OnceLock<InDepthStudy> = OnceLock::new();
        STUDY.get_or_init(|| {
            let mut opts = Options::smoke();
            opts.modules = vec!["M0".into(), "M1".into(), "H3".into()];
            opts.indepth_measurements = 80;
            opts.picks_per_segment = 3;
            crate::studies::Studies::new(&opts).indepth().clone()
        })
    }

    #[test]
    fn study_has_rows_and_series() {
        let study = smoke_study();
        assert_eq!(study.per_module.len(), 3);
        let measured: usize = study
            .per_module
            .iter()
            .flat_map(|m| m.rows.iter())
            .map(|r| r.per_condition.len())
            .sum();
        assert!(measured > 0, "in-depth study must produce series");
    }

    #[test]
    fn fig7_cv_values_nonnegative() {
        let cvs = max_cv_per_row(smoke_study());
        assert!(!cvs.is_empty());
        assert!(cvs.iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn table7_rows_cover_modules() {
        let rows = table7(smoke_study());
        assert_eq!(rows.len(), 3);
        for r in &rows {
            if let Some(n1) = r.norm_min.iter().find(|(n, _, _)| *n == 1) {
                assert!(n1.1 >= 1.0, "{}: median normalized min ≥ 1", r.module);
                assert!(n1.2 >= n1.1, "max ≥ median");
            }
        }
    }

    #[test]
    fn renders_nonempty() {
        let study = smoke_study();
        for s in [
            render_fig7(study),
            render_fig9(study),
            render_fig10(study),
            render_fig11(study),
            render_fig12(study),
            render_fig13(study),
            render_table7(study),
        ] {
            assert!(s.len() > 30, "short render: {s}");
        }
    }

    #[test]
    fn finding6_most_rows_vary_everywhere() {
        let frac = all_condition_variation_fraction(smoke_study());
        assert!(frac > 0.5, "most rows vary under all conditions, got {frac}");
    }
}
