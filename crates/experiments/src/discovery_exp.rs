//! The DiscoRD-style early-stopping discovery study: bound every
//! selected row's reliable RDT with the sequential stopping rule and
//! report how many measurement epochs that saved against a fixed
//! in-depth-style budget.

use serde::{Deserialize, Serialize};

use vrd_core::discovery::{discovery_campaign, DiscoveryConfig, DiscoveryResult};

use crate::opts::Options;
use crate::render::{f, Table};

/// The discovery study output across the module scope.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiscoveryStudy {
    /// The configuration the campaign ran under.
    pub config: DiscoveryConfig,
    /// Per-module campaign results.
    pub per_module: Vec<DiscoveryResult>,
}

/// Runs the discovery campaign over an explicit spec list under
/// caller-supplied [`RunOptions`](vrd_core::run::RunOptions) — the
/// reusable core both the CLI harness
/// ([`Studies::discovery`](crate::studies::Studies::discovery)) and the
/// fleet service drive. One unit per selected row; identical output at
/// any thread count.
///
/// # Errors
///
/// Propagates checkpoint I/O errors and cooperative interruption.
pub fn run_with(
    opts: &Options,
    specs: &[vrd_dram::ModuleSpec],
    run_opts: &vrd_core::run::RunOptions<'_>,
) -> Result<DiscoveryStudy, vrd_core::checkpoint::CheckpointError> {
    let cfg = opts.discovery_config();
    let per_module = discovery_campaign(specs, &cfg, run_opts)?;
    Ok(DiscoveryStudy { config: cfg, per_module })
}

/// Mean measurement epochs spent per bounded row, or `None` when no
/// row was bounded.
pub fn mean_epochs_per_row(study: &DiscoveryStudy) -> Option<f64> {
    let rows: Vec<&vrd_core::discovery::DiscoveryRowResult> =
        study.per_module.iter().flat_map(|m| &m.rows).collect();
    if rows.is_empty() {
        return None;
    }
    let total: u64 = rows.iter().map(|r| u64::from(r.epochs_used)).sum();
    Some(total as f64 / rows.len() as f64)
}

/// The per-row bounds table plus the epochs-saved summary.
pub fn render(study: &DiscoveryStudy) -> String {
    let mut table = Table::new(["module", "row", "bound", "min RDT", "epochs", "early stop"]);
    let mut rows = 0usize;
    let mut early = 0usize;
    for module in &study.per_module {
        for row in &module.rows {
            rows += 1;
            early += usize::from(row.stopped_early);
            table.row([
                module.module.clone(),
                row.row.to_string(),
                row.bound.to_string(),
                row.min_observed.to_string(),
                row.epochs_used.to_string(),
                if row.stopped_early { "yes".into() } else { "no".into() },
            ]);
        }
    }
    if rows == 0 {
        return "no rows bounded".to_owned();
    }
    let mean = mean_epochs_per_row(study).expect("rows > 0");
    format!(
        "Discovery — reliable-RDT bounds at {:.0}% confidence \
         (quiet-streak rule, ceiling {} epochs):\n{}\n\
         rows bounded: {rows}   stopped early: {early}   \
         mean epochs/row: {} (fixed in-depth budget would spend {})\n",
        100.0 * study.config.confidence,
        study.config.max_epochs,
        table.render(),
        f(mean, 1),
        study.config.max_epochs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovery_study_runs_and_renders_at_smoke_scale() {
        let mut opts = Options::smoke();
        opts.modules = vec!["M1".into()];
        let studies = crate::studies::Studies::new(&opts);
        let study = studies.discovery();
        assert_eq!(study.per_module.len(), 1);
        assert!(!study.per_module[0].rows.is_empty());
        let rendered = render(study);
        assert!(rendered.contains("rows bounded"));
        assert!(rendered.contains("M1"));
        assert!(mean_epochs_per_row(study).unwrap() >= f64::from(study.config.min_epochs));
    }
}
