//! The §4 foundational study and its figures (Figs. 1, 3, 4, 5, 6).
//!
//! One victim row per module, measured `foundational_measurements` times
//! under the Checkered0 / min `t_RAS` / 50 °C conditions. The same
//! campaign output feeds all five figures, so it runs once and is shared.

use serde::{Deserialize, Serialize};

use vrd_core::campaign::{foundational_campaign, FoundationalConfig, FoundationalResult};
use vrd_core::metrics::SeriesMetrics;
use vrd_core::predictability::{analyze, PredictabilityReport};
use vrd_stats::{BoxSummary, Histogram};

use crate::opts::Options;
use crate::render::{f, Table};

/// The full foundational study output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FoundationalStudy {
    /// Per-module results (modules with no sufficiently vulnerable row in
    /// the scanned range are omitted, like rows that never flip).
    pub per_module: Vec<FoundationalResult>,
}

/// The foundational campaign configuration at this scale.
pub fn config(opts: &Options) -> FoundationalConfig {
    FoundationalConfig {
        measurements: opts.foundational_measurements,
        seed: opts.seed,
        row_bytes: opts.row_bytes,
        ..FoundationalConfig::default()
    }
}

/// Runs the foundational campaign over an explicit spec list under
/// caller-supplied [`RunOptions`](vrd_core::run::RunOptions) — the
/// reusable core both the CLI harness
/// ([`Studies::foundational`](crate::studies::Studies::foundational))
/// and the fleet service drive. Output is a pure function of
/// `(config, specs)`; the run options only decide threading,
/// observation, checkpointing, and cancellation.
///
/// # Errors
///
/// Propagates checkpoint I/O errors and cooperative interruption.
pub fn run_with(
    opts: &Options,
    specs: &[vrd_dram::ModuleSpec],
    run_opts: &vrd_core::run::RunOptions<'_>,
) -> Result<FoundationalStudy, vrd_core::checkpoint::CheckpointError> {
    let cfg = config(opts);
    let results = foundational_campaign(specs, &cfg, run_opts)?;
    Ok(FoundationalStudy { per_module: results.into_iter().flatten().collect() })
}

/// Fig. 1: per-1,000-measurement mean ± range of one module's series,
/// plus the zoomed last-1,000 values.
pub fn render_fig1(study: &FoundationalStudy) -> String {
    let Some(result) = study.per_module.first() else {
        return "no module produced a measurable row".to_owned();
    };
    let chunk = (result.series.len() / 100).max(10);
    let mut table = Table::new(["measurement", "mean RDT", "min", "max"]);
    for (i, (mean, min, max)) in result.series.chunk_summaries(chunk).iter().enumerate() {
        table.row([format!("{}", i * chunk), f(*mean, 1), format!("{min}"), format!("{max}")]);
    }
    let min_idx = result.series.first_min_index().unwrap_or(0);
    format!(
        "Fig. 1 — RDT of row {} in {} over {} measurements (chunk = {}):\n{}\n\
         first occurrence of the minimum RDT: measurement #{}\n",
        result.row,
        result.module,
        result.series.len(),
        chunk,
        table.render(),
        min_idx
    )
}

/// Fig. 3: RDT box-whisker distribution per module.
pub fn render_fig3(study: &FoundationalStudy) -> String {
    let mut table = Table::new(["module", "min", "Q1", "median", "Q3", "max", "mean", "max/min"]);
    for r in &study.per_module {
        let Ok(b) = r.series.box_summary() else { continue };
        table.row([
            r.module.clone(),
            f(b.min, 0),
            f(b.q1, 0),
            f(b.median, 0),
            f(b.q3, 0),
            f(b.max, 0),
            f(b.mean, 1),
            f(b.max / b.min.max(1.0), 3),
        ]);
    }
    format!("Fig. 3 — RDT distribution of one victim row per module:\n{}", table.render())
}

/// The box summaries backing Fig. 3 (for tests and JSON output).
pub fn fig3_summaries(study: &FoundationalStudy) -> Vec<(String, BoxSummary)> {
    study
        .per_module
        .iter()
        .filter_map(|r| Some((r.module.clone(), r.series.box_summary().ok()?)))
        .collect()
}

/// Fig. 4: histogram of RDT values per module with unique-value bins.
pub fn render_fig4(study: &FoundationalStudy) -> String {
    let mut out = String::from("Fig. 4 — RDT histograms (bins = unique measured values):\n");
    let mut table = Table::new(["module", "unique states", "modes", "bin counts (first 12)"]);
    for r in &study.per_module {
        let Ok(h) = Histogram::with_unique_value_bins(r.series.values()) else { continue };
        let head: Vec<String> = h.counts().iter().take(12).map(|c| c.to_string()).collect();
        table.row([
            r.module.clone(),
            h.bins().to_string(),
            h.mode_count().to_string(),
            head.join(","),
        ]);
    }
    out.push_str(&table.render());
    out
}

/// Fig. 5: aggregated run-length histogram + the Finding-3 headline.
pub fn render_fig5(study: &FoundationalStudy) -> String {
    let mut merged: Option<SeriesMetrics> = None;
    let mut immediate_weighted = 0.0;
    let mut weight = 0.0;
    for r in &study.per_module {
        let m = SeriesMetrics::of(&r.series);
        if let Some(frac) = m.immediate_change_fraction {
            immediate_weighted += frac * r.series.len() as f64;
            weight += r.series.len() as f64;
        }
        match &mut merged {
            Some(acc) => acc.merge_run_lengths(&m),
            None => merged = Some(m),
        }
    }
    let Some(merged) = merged else {
        return "no series collected".to_owned();
    };
    let mut table = Table::new(["run length", "count"]);
    for (len, count) in &merged.run_length_histogram {
        table.row([len.to_string(), count.to_string()]);
    }
    format!(
        "Fig. 5 — consecutive measurements with the same RDT (all modules):\n{}\n\
         fraction of state changes after a single measurement: {:.1}% (paper: 79.0%)\n\
         longest run: {}\n",
        table.render(),
        100.0 * immediate_weighted / weight.max(1.0),
        merged.longest_run
    )
}

/// Fig. 6 + Finding 4: ACF of each series vs the white-noise band, and
/// the chi-square normality p-values.
pub fn render_fig6(study: &FoundationalStudy) -> String {
    let mut table = Table::new([
        "module",
        "normality p",
        "looks normal",
        "|ACF|>band lags",
        "band",
        "unpredictable",
    ]);
    for r in &study.per_module {
        let Ok(report) = analyze(&r.series, 50) else { continue };
        table.row([
            r.module.clone(),
            report.normality_p_value.map(|p| f(p, 3)).unwrap_or_else(|| "-".into()),
            report.looks_normal.to_string(),
            f(report.significant_lag_fraction * 50.0, 0),
            f(report.white_noise_bound, 4),
            report.is_unpredictable().to_string(),
        ]);
    }
    format!(
        "Fig. 6 — autocorrelation vs white noise and normality of the RDT series:\n{}",
        table.render()
    )
}

/// The predictability reports backing Fig. 6.
pub fn fig6_reports(study: &FoundationalStudy) -> Vec<(String, PredictabilityReport)> {
    study
        .per_module
        .iter()
        .filter_map(|r| Some((r.module.clone(), analyze(&r.series, 50).ok()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_study() -> FoundationalStudy {
        let mut opts = Options::smoke();
        opts.foundational_measurements = 300;
        crate::studies::Studies::new(&opts).foundational().clone()
    }

    #[test]
    fn study_covers_smoke_modules() {
        let study = smoke_study();
        assert!(!study.per_module.is_empty());
        for r in &study.per_module {
            assert!(r.series.len() > 100);
        }
    }

    #[test]
    fn renders_are_nonempty() {
        let study = smoke_study();
        for render in [
            render_fig1(&study),
            render_fig3(&study),
            render_fig4(&study),
            render_fig5(&study),
            render_fig6(&study),
        ] {
            assert!(render.len() > 40, "render too short: {render}");
        }
    }

    #[test]
    fn fig3_summaries_bracket_series() {
        let study = smoke_study();
        for (_, b) in fig3_summaries(&study) {
            assert!(b.min <= b.median && b.median <= b.max);
        }
    }

    #[test]
    fn finding1_rdt_changes_over_time() {
        let study = smoke_study();
        for r in &study.per_module {
            assert!(
                vrd_stats::histogram::unique_count(r.series.values()) > 1,
                "{} must exhibit VRD",
                r.module
            );
        }
    }
}
