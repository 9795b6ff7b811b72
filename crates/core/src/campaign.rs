//! The measurement campaigns of the paper: foundational (§4, one row per
//! module × 100,000 measurements) and in-depth (§5, 150 rows per module ×
//! 1,000 measurements × the data-pattern / `t_AggOn` / temperature grid).
//!
//! Campaign scale is configurable: the defaults match the paper; tests
//! and quick runs shrink the measurement counts and row ranges. The
//! configurations are plain data — write a struct literal over
//! `..FoundationalConfig::default()` or `..InDepthConfig::quick()`.
//!
//! [`foundational_campaign`] and [`in_depth_campaign`] shard the work
//! across the deterministic executor ([`crate::exec`]) through
//! [`run_units`]: every unit (module, or module × row × condition cell)
//! runs on a fresh platform whose dynamics RNG is reseeded from the
//! unit's derived seed, so the campaign output is bit-identical at any
//! thread count. A [`RunOptions`] value selects the capabilities —
//! progress counters, event observers, checkpointing, cancellation.
//! A serial run is `RunOptions::new(ExecConfig::new(1, seed))`.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use vrd_bender::routines::guess_rdt;
use vrd_bender::TestPlatform;
use vrd_dram::spec::ModuleSpec;
use vrd_dram::TestConditions;

use crate::algorithm::{
    find_victim, test_loop_using, EvalStrategy, SearchStrategy, SweepSpec, FIND_VICTIM_CUTOFF,
};
use crate::checkpoint::CheckpointError;
use crate::exec::{ExecConfig, ExecReport, Progress, Unit, UnitCtx, UnitKey};
use crate::obs::{CampaignSummary, Event};
use crate::run::{run_units, RunOptions};
use crate::series::RdtSeries;

/// Campaign label of the foundational (§4) campaign, used in events and
/// checkpoint manifests.
pub const FOUNDATIONAL: &str = "foundational";

/// Campaign label of the in-depth (§5) campaign.
pub const IN_DEPTH: &str = "in_depth";

/// Configuration of the §4 foundational campaign; the
/// [`Default`] is the paper's scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoundationalConfig {
    /// RDT measurements per victim row (paper: 100,000).
    pub measurements: u32,
    /// Test conditions (paper: Checkered0, min `t_RAS`, 50 °C).
    pub conditions: TestConditions,
    /// Device seed.
    pub seed: u64,
    /// Row size in bytes for the device model (smaller is faster; the
    /// weak-cell physics is size-independent).
    pub row_bytes: u32,
    /// How many rows `find_victim` may scan.
    pub scan_rows: u32,
}

impl Default for FoundationalConfig {
    fn default() -> Self {
        FoundationalConfig {
            measurements: 100_000,
            conditions: TestConditions::foundational(),
            seed: 2025,
            row_bytes: 2048,
            scan_rows: 8192,
        }
    }
}

/// Result of the foundational campaign for one module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoundationalResult {
    /// Module name (paper Table 1).
    pub module: String,
    /// The victim row measured.
    pub row: u32,
    /// The guessed RDT that parameterized the sweep.
    pub rdt_guess: u32,
    /// The measurement series.
    pub series: RdtSeries,
    /// Simulated test time spent (ns).
    pub test_time_ns: f64,
}

/// Runs the foundational campaign across a fleet of modules on the
/// deterministic executor, under [`RunOptions`]: plain, observed,
/// checkpointed, and cancellable are all configurations of this one
/// entry point.
///
/// Each module is one work unit: a fresh platform built from `cfg.seed`
/// (which fixes the weak-cell layout) with its dynamics RNG reseeded
/// from the unit's derived seed. Output order follows `specs`; entries
/// are `None` for modules with no vulnerable row in the scanned range.
///
/// Emits [`Event::CampaignStarted`] / [`Event::CampaignFinished`]
/// around the run's phase and unit events.
///
/// # Errors
///
/// [`CheckpointError::Interrupted`] when cancellation stopped the run
/// early, plus the checkpoint open/decode errors when `opts` carries a
/// checkpoint. A run without checkpoint or cancellation cannot fail.
pub fn foundational_campaign(
    specs: &[ModuleSpec],
    cfg: &FoundationalConfig,
    opts: &RunOptions<'_>,
) -> Result<Vec<Option<FoundationalResult>>, CheckpointError> {
    let ExecConfig { search, eval, .. } = opts.exec;
    run_campaign_phases(opts, FOUNDATIONAL, |opts| {
        run_units(opts, FOUNDATIONAL, "measure", foundational_units(specs), |ctx, spec| {
            foundational_unit(spec, cfg, search, eval, &ctx)
        })
        .map(ExecReport::into_results)
    })
}

/// Wraps a campaign body with the campaign-level concerns shared by
/// every entry point: a guaranteed [`Progress`] (so the summary has
/// counters even when the caller supplied none), the
/// [`Event::CampaignStarted`] / [`Event::CampaignFinished`] bracket,
/// and the campaign wall-clock measurement.
pub(crate) fn run_campaign_phases<T>(
    opts: &RunOptions<'_>,
    campaign: &str,
    body: impl FnOnce(&RunOptions<'_>) -> Result<T, CheckpointError>,
) -> Result<T, CheckpointError> {
    let own_progress = Progress::new();
    let progress = opts.progress.unwrap_or(&own_progress);
    let opts = opts.progress(progress);
    opts.observer.on_event(&Event::CampaignStarted { campaign: campaign.to_owned() });
    let started = Instant::now();
    let result = body(&opts)?;
    let snap = progress.snapshot();
    opts.observer.on_event(&Event::CampaignFinished {
        campaign: campaign.to_owned(),
        summary: CampaignSummary {
            units_total: snap.units_total,
            units_done: snap.units_done,
            units_panicked: snap.units_panicked,
            bitflips: snap.flips_found,
            sim_time_ns: snap.sim_time_ns,
            sim_energy_j: snap.sim_energy_j,
            wall_ns: started.elapsed().as_nanos() as u64,
        },
    });
    Ok(result)
}

/// Reports a unit's platform work: hammer sessions, measurement epochs
/// (0 for row selection, which opens none), simulated test time and
/// energy. Bitflips stay with each caller.
pub(crate) fn record_platform(ctx: &UnitCtx<'_>, platform: &TestPlatform) {
    ctx.record_hammer_sessions(platform.hammer_sessions());
    ctx.record_measurement_epochs(platform.measurement_epochs());
    ctx.record_sim_time_ns(platform.elapsed_ns());
    ctx.record_sim_energy_j(platform.energy_j());
}

/// One unit per module, keyed by module name.
fn foundational_units(specs: &[ModuleSpec]) -> Vec<Unit<ModuleSpec>> {
    specs.iter().map(|s| Unit::new(UnitKey::module(&s.name), s.clone())).collect()
}

/// One foundational work unit: Alg. 1 against one module on a fresh,
/// unit-seeded platform.
fn foundational_unit(
    spec: &ModuleSpec,
    cfg: &FoundationalConfig,
    search: SearchStrategy,
    eval: EvalStrategy,
    ctx: &UnitCtx<'_>,
) -> Option<FoundationalResult> {
    let mut platform =
        TestPlatform::for_module_with_row_bytes(spec.clone(), cfg.seed, cfg.row_bytes);
    platform.reseed_dynamics(ctx.seed);
    platform.set_temperature_c(cfg.conditions.temperature_c);
    let (row, guess) =
        find_victim(&mut platform, 0, &cfg.conditions, FIND_VICTIM_CUTOFF, 2..cfg.scan_rows)?;
    let sweep = SweepSpec::from_guess(guess);
    let series = test_loop_using(
        &mut platform,
        0,
        row,
        &cfg.conditions,
        cfg.measurements,
        &sweep,
        search,
        eval,
    );
    ctx.record_flips(series.len() as u64);
    record_platform(ctx, &platform);
    Some(FoundationalResult {
        module: spec.name.clone(),
        row,
        rdt_guess: guess,
        series,
        test_time_ns: platform.elapsed_ns(),
    })
}

/// Configuration of the §5 in-depth campaign; the [`Default`] is the
/// paper's scale and [`InDepthConfig::quick`] a reduced one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InDepthConfig {
    /// RDT measurements per row per condition (paper: 1,000).
    pub measurements: u32,
    /// Rows scanned per segment (paper: the first/middle/last 1,024).
    pub segment_rows: u32,
    /// Rows selected per segment (paper: the 50 with smallest mean RDT).
    pub picks_per_segment: usize,
    /// The test-condition grid (paper: 4 patterns × 3 on-times × 3
    /// temperatures).
    pub conditions: Vec<TestConditions>,
    /// Device seed.
    pub seed: u64,
    /// Row size in bytes for the device model.
    pub row_bytes: u32,
}

impl Default for InDepthConfig {
    fn default() -> Self {
        InDepthConfig {
            measurements: 1_000,
            segment_rows: 1_024,
            picks_per_segment: 50,
            conditions: TestConditions::full_grid(),
            seed: 5025,
            row_bytes: 2048,
        }
    }
}

impl InDepthConfig {
    /// A reduced configuration for tests and quick runs.
    pub fn quick() -> Self {
        InDepthConfig {
            measurements: 60,
            segment_rows: 96,
            picks_per_segment: 4,
            conditions: vec![TestConditions::foundational()],
            seed: 5025,
            row_bytes: 512,
        }
    }
}

/// One row's series under one condition combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConditionSeries {
    /// The test conditions.
    pub conditions: TestConditions,
    /// The guessed RDT parameterizing the sweep under these conditions.
    pub rdt_guess: u32,
    /// The measurement series.
    pub series: RdtSeries,
}

/// All series of one tested row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowResult {
    /// Row address.
    pub row: u32,
    /// Selection-time mean RDT guess.
    pub selection_guess: u32,
    /// One entry per tested condition combination (conditions under
    /// which the row never flipped within range are omitted).
    pub per_condition: Vec<ConditionSeries>,
}

/// In-depth campaign result for one module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InDepthResult {
    /// Module name.
    pub module: String,
    /// Per-row results.
    pub rows: Vec<RowResult>,
}

/// Selects test rows per §5: scan the first, middle, and last
/// `segment_rows` rows of the bank, estimate each row's RDT as the mean
/// of `estimates` quick measurements, and keep the `picks` smallest per
/// segment. Returns `(row, mean_guess)` pairs.
pub fn select_rows(
    platform: &mut TestPlatform,
    bank: usize,
    conditions: &TestConditions,
    segment_rows: u32,
    picks: usize,
    estimates: u32,
) -> Vec<(u32, u32)> {
    let total_rows = platform.device().config().rows_per_bank();
    let seg = segment_rows.min(total_rows / 3);
    let segments = [
        0..seg,
        (total_rows / 2 - seg / 2)..(total_rows / 2 - seg / 2 + seg),
        (total_rows - seg)..total_rows,
    ];
    let mut selected = Vec::new();
    for range in segments {
        let mut candidates: Vec<(u32, u32)> = Vec::new();
        for row in range {
            if row == 0 || row + 1 >= total_rows {
                continue; // edge rows lack a double-sided neighbor pair
            }
            let mut sum = 0u64;
            let mut count = 0u64;
            for _ in 0..estimates {
                if let Some(g) = guess_rdt(platform, bank, row, conditions, FIND_VICTIM_CUTOFF * 4)
                {
                    sum += u64::from(g);
                    count += 1;
                }
            }
            if let Some(mean) = sum.checked_div(count) {
                candidates.push((row, mean as u32));
            }
        }
        candidates.sort_by_key(|&(_, guess)| guess);
        selected.extend(candidates.into_iter().take(picks));
    }
    selected
}

/// Runs the §5 in-depth campaign across a fleet of modules on the
/// deterministic executor, under [`RunOptions`] (plain, observed,
/// checkpointed, and cancellable are configurations, as in
/// [`foundational_campaign`]), in two phases:
///
/// 1. **Selection** — one unit per module scans the three bank segments
///    and picks the most vulnerable rows (fresh platform per module, so
///    selection is already scheduling-independent).
/// 2. **Measurement** — every (module × row × condition) cell is one
///    unit: a fresh platform reseeded from the cell's derived seed
///    re-guesses the RDT under the cell's conditions and runs the
///    `test_loop` sweep. All cells across all modules share one pool,
///    so a module with few vulnerable rows does not idle its threads.
///
/// Output order follows `specs`; within a module, rows follow selection
/// order and conditions follow `cfg.conditions` order, independent of
/// the thread count.
///
/// When `opts` carries a checkpoint, both phases share one journal:
/// selection units are keyed `(module, WHOLE_MODULE, WHOLE_MODULE)` and
/// measurement cells `(module, row, condition)`, so the keys never
/// collide. A resumed campaign restores whatever subset of either phase
/// is journaled and produces output byte-identical to an uninterrupted
/// run. When `opts` carries progress counters or an observer, both
/// phases feed them: selection units first, then every measurement
/// cell, under the phase labels `"select"` and `"measure"`.
///
/// # Errors
///
/// [`CheckpointError::Interrupted`] when cancellation stopped the run
/// early (with a checkpoint, the journal then holds every committed
/// unit), plus checkpoint open/decode errors. A run without checkpoint
/// or cancellation cannot fail.
pub fn in_depth_campaign(
    specs: &[ModuleSpec],
    cfg: &InDepthConfig,
    opts: &RunOptions<'_>,
) -> Result<Vec<InDepthResult>, CheckpointError> {
    let ExecConfig { search, eval, .. } = opts.exec;
    run_campaign_phases(opts, IN_DEPTH, |opts| {
        // Phase 1: per-module row selection.
        let selections: Vec<Vec<(u32, u32)>> =
            run_units(opts, IN_DEPTH, "select", selection_units(specs), |ctx, spec| {
                select_unit(spec, cfg, &ctx)
            })?
            .into_results();

        // Phase 2: one unit per (module × row × condition) cell, all
        // modules in one pool.
        let units = cell_units(specs, cfg, &selections);
        let cells: Vec<Option<ConditionSeries>> =
            run_units(opts, IN_DEPTH, "measure", units, |ctx, &(module_idx, row, conditions)| {
                measure_cell(&specs[module_idx], cfg, row, &conditions, search, eval, &ctx)
            })?
            .into_results();

        Ok(merge_in_depth(specs, selections, cells, cfg.conditions.len()))
    })
}

/// Phase-1 units: one per module, keyed by module name.
fn selection_units(specs: &[ModuleSpec]) -> Vec<Unit<ModuleSpec>> {
    specs.iter().map(|s| Unit::new(UnitKey::module(&s.name), s.clone())).collect()
}

/// One phase-1 unit: segment scan + row selection for one module.
fn select_unit(spec: &ModuleSpec, cfg: &InDepthConfig, ctx: &UnitCtx<'_>) -> Vec<(u32, u32)> {
    select_unit_with(spec, cfg.seed, cfg.row_bytes, cfg.segment_rows, cfg.picks_per_segment, ctx)
}

/// The shared body of a row-selection unit. The discovery campaign
/// calls this with the same parameters as the in-depth campaign so
/// both select identical rows from identical platforms — the anchor of
/// the discovery soundness proof (`tests/discovery_validation.rs`).
pub(crate) fn select_unit_with(
    spec: &ModuleSpec,
    seed: u64,
    row_bytes: u32,
    segment_rows: u32,
    picks_per_segment: usize,
    ctx: &UnitCtx<'_>,
) -> Vec<(u32, u32)> {
    let mut platform = TestPlatform::for_module_with_row_bytes(spec.clone(), seed, row_bytes);
    let selection_conditions = TestConditions::foundational();
    platform.set_temperature_c(selection_conditions.temperature_c);
    let rows =
        select_rows(&mut platform, 0, &selection_conditions, segment_rows, picks_per_segment, 3);
    record_platform(ctx, &platform);
    rows
}

/// Phase-2 units: one per (module × selected row × condition) cell.
fn cell_units(
    specs: &[ModuleSpec],
    cfg: &InDepthConfig,
    selections: &[Vec<(u32, u32)>],
) -> Vec<Unit<(usize, u32, TestConditions)>> {
    let mut units = Vec::new();
    for (module_idx, spec) in specs.iter().enumerate() {
        for &(row, _) in &selections[module_idx] {
            for (condition_idx, conditions) in cfg.conditions.iter().enumerate() {
                units.push(Unit::new(
                    UnitKey::cell(&spec.name, row, condition_idx as u32),
                    (module_idx, row, *conditions),
                ));
            }
        }
    }
    units
}

/// Merges phase-2 cells back into per-module results in stable
/// (module, selection, condition) order.
fn merge_in_depth(
    specs: &[ModuleSpec],
    selections: Vec<Vec<(u32, u32)>>,
    cells: Vec<Option<ConditionSeries>>,
    conditions_per_row: usize,
) -> Vec<InDepthResult> {
    let mut cells = cells.into_iter();
    specs
        .iter()
        .zip(selections)
        .map(|(spec, rows)| InDepthResult {
            module: spec.name.clone(),
            rows: rows
                .into_iter()
                .map(|(row, selection_guess)| RowResult {
                    row,
                    selection_guess,
                    per_condition: cells.by_ref().take(conditions_per_row).flatten().collect(),
                })
                .collect(),
        })
        .collect()
}

/// One in-depth measurement cell: re-guess the RDT under the cell's
/// conditions and sweep, on a fresh platform reseeded from the unit
/// seed. Returns `None` when the row never flips within range under
/// these conditions (such cells are omitted, as in the paper).
fn measure_cell(
    spec: &ModuleSpec,
    cfg: &InDepthConfig,
    row: u32,
    conditions: &TestConditions,
    search: SearchStrategy,
    eval: EvalStrategy,
    ctx: &UnitCtx<'_>,
) -> Option<ConditionSeries> {
    let mut platform =
        TestPlatform::for_module_with_row_bytes(spec.clone(), cfg.seed, cfg.row_bytes);
    platform.reseed_dynamics(ctx.seed);
    platform.set_temperature_c(conditions.temperature_c);
    // Re-guess under these specific conditions: RowPress and temperature
    // shift the testable range substantially.
    let guess = guess_rdt(&mut platform, 0, row, conditions, FIND_VICTIM_CUTOFF * 8)?;
    let sweep = SweepSpec::from_guess(guess);
    let series =
        test_loop_using(&mut platform, 0, row, conditions, cfg.measurements, &sweep, search, eval);
    ctx.record_flips(series.len() as u64);
    record_platform(ctx, &platform);
    if series.is_empty() {
        return None;
    }
    Some(ConditionSeries { conditions: *conditions, rdt_guess: guess, series })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_foundational() -> FoundationalConfig {
        FoundationalConfig {
            measurements: 50,
            row_bytes: 512,
            scan_rows: 3000,
            ..FoundationalConfig::default()
        }
    }

    /// The foundational campaign against one module on one thread.
    fn serial_foundational(spec: &ModuleSpec, cfg: &FoundationalConfig) -> FoundationalResult {
        let opts = RunOptions::new(ExecConfig::new(1, cfg.seed));
        foundational_campaign(std::slice::from_ref(spec), cfg, &opts)
            .unwrap()
            .pop()
            .unwrap()
            .expect("the module has weak rows")
    }

    #[test]
    fn foundational_campaign_measures_one_row() {
        let spec = ModuleSpec::by_name("M1").unwrap();
        let result = serial_foundational(&spec, &quick_foundational());
        assert_eq!(result.module, "M1");
        assert_eq!(result.series.len() + result.series.censored() as usize, 50);
        assert!(result.rdt_guess < FIND_VICTIM_CUTOFF);
        assert!(result.test_time_ns > 0.0);
    }

    #[test]
    fn foundational_series_exhibits_vrd() {
        let spec = ModuleSpec::by_name("M1").unwrap();
        let mut cfg = quick_foundational();
        cfg.measurements = 120;
        let result = serial_foundational(&spec, &cfg);
        assert!(
            vrd_stats::histogram::unique_count(result.series.values()) > 1,
            "Finding 1: the RDT must change over repeated measurements"
        );
    }

    #[test]
    fn row_selection_picks_vulnerable_rows() {
        let spec = ModuleSpec::by_name("S2").unwrap();
        let mut platform = TestPlatform::for_module_with_row_bytes(spec, 7, 512);
        let conditions = TestConditions::foundational();
        let rows = select_rows(&mut platform, 0, &conditions, 64, 3, 2);
        assert!(!rows.is_empty(), "selection must find vulnerable rows");
        assert!(rows.len() <= 9);
        for &(row, guess) in &rows {
            assert!(row > 0);
            assert!(guess > 0);
        }
        // Rows come from three disjoint segments.
        let total = platform.device().config().rows_per_bank();
        assert!(rows.iter().any(|&(r, _)| r < 64) || rows.iter().any(|&(r, _)| r > total - 65));
    }

    /// The in-depth campaign against one module on one thread.
    fn serial_in_depth(spec: &ModuleSpec, cfg: &InDepthConfig) -> InDepthResult {
        let opts = RunOptions::new(ExecConfig::new(1, cfg.seed));
        in_depth_campaign(std::slice::from_ref(spec), cfg, &opts).unwrap().pop().unwrap()
    }

    #[test]
    fn in_depth_campaign_produces_series_per_condition() {
        let spec = ModuleSpec::by_name("H3").unwrap();
        let result = serial_in_depth(&spec, &InDepthConfig::quick());
        assert_eq!(result.module, "H3");
        assert!(!result.rows.is_empty());
        for row in &result.rows {
            for cs in &row.per_condition {
                assert!(!cs.series.is_empty());
                assert_eq!(cs.conditions, TestConditions::foundational());
            }
        }
    }

    #[test]
    fn in_depth_parallel_equals_serial() {
        let spec = ModuleSpec::by_name("H3").unwrap();
        let cfg = InDepthConfig::quick();
        let serial = serial_in_depth(&spec, &cfg);
        let parallel = in_depth_campaign(
            std::slice::from_ref(&spec),
            &cfg,
            &RunOptions::new(ExecConfig::new(4, cfg.seed)),
        )
        .unwrap();
        assert_eq!(parallel.len(), 1);
        assert_eq!(serial, parallel[0], "thread count must not change the results");
    }

    #[test]
    fn foundational_campaign_is_thread_invariant_and_ordered() {
        let specs: Vec<ModuleSpec> =
            ["M1", "S2", "H3"].iter().map(|n| ModuleSpec::by_name(n).unwrap()).collect();
        let cfg = quick_foundational();
        let serial =
            foundational_campaign(&specs, &cfg, &RunOptions::new(ExecConfig::new(1, cfg.seed)))
                .unwrap();
        let parallel =
            foundational_campaign(&specs, &cfg, &RunOptions::new(ExecConfig::new(8, cfg.seed)))
                .unwrap();
        assert_eq!(serial, parallel);
        let names: Vec<&str> = serial.iter().flatten().map(|r| r.module.as_str()).collect();
        assert_eq!(names, vec!["M1", "S2", "H3"], "output follows input order");
    }

    #[test]
    fn campaign_progress_spans_both_phases() {
        let spec = ModuleSpec::by_name("H3").unwrap();
        let cfg = InDepthConfig::quick();
        let progress = Progress::new();
        let results = in_depth_campaign(
            std::slice::from_ref(&spec),
            &cfg,
            &RunOptions::new(ExecConfig::new(2, cfg.seed)).progress(&progress),
        )
        .unwrap();
        let snap = progress.snapshot();
        let cells: usize = results[0].rows.len() * cfg.conditions.len();
        assert_eq!(snap.units_total, 1 + cells, "selection unit + every measurement cell");
        assert_eq!(snap.units_done, snap.units_total);
        assert!(snap.flips_found > 0);
        assert!(snap.sim_time_ns > 0.0);
        assert!(snap.sim_energy_j > 0.0, "units must report Appendix-A test energy");
    }

    #[test]
    fn campaign_events_bracket_phases_and_count_units() {
        use crate::obs::{Event, MemorySink};
        let spec = ModuleSpec::by_name("H3").unwrap();
        let cfg = InDepthConfig::quick();
        let sink = MemorySink::new();
        let results = in_depth_campaign(
            std::slice::from_ref(&spec),
            &cfg,
            &RunOptions::new(ExecConfig::new(2, cfg.seed)).observer(&sink),
        )
        .unwrap();
        let events = sink.events();
        assert!(matches!(&events[0], Event::CampaignStarted { campaign } if campaign == IN_DEPTH));
        let phases: Vec<(String, usize)> = events
            .iter()
            .filter_map(|e| match e {
                Event::PhaseStarted { phase, units, .. } => Some((phase.clone(), *units)),
                _ => None,
            })
            .collect();
        let cells = results[0].rows.len() * cfg.conditions.len();
        assert_eq!(phases, vec![("select".to_owned(), 1), ("measure".to_owned(), cells)]);
        let finished = events.iter().filter(|e| matches!(e, Event::UnitFinished { .. })).count();
        assert_eq!(finished, 1 + cells, "one UnitFinished per unit");
        let Some(Event::CampaignFinished { summary, .. }) = events.last() else {
            panic!("stream must end with CampaignFinished");
        };
        assert_eq!(summary.units_done, 1 + cells);
        assert!(summary.sim_time_ns > 0.0);
        assert!(summary.sim_energy_j > 0.0);
    }

    /// Satellite regression for the batch engine: the scalar and batch
    /// evaluation strategies must report identical results *and*
    /// identical progress counters — hammer sessions and measurement
    /// epochs included.
    #[test]
    fn eval_strategies_report_identical_progress_snapshots() {
        let specs = vec![ModuleSpec::by_name("M1").unwrap()];
        let cfg = quick_foundational();
        let run = |eval| {
            let mut exec_cfg = ExecConfig::new(1, cfg.seed);
            exec_cfg.eval = eval;
            let progress = Progress::new();
            let results =
                foundational_campaign(&specs, &cfg, &RunOptions::new(exec_cfg).progress(&progress))
                    .unwrap();
            (results, progress.snapshot())
        };
        let (scalar_results, scalar_snap) = run(EvalStrategy::Scalar);
        let (batch_results, batch_snap) = run(EvalStrategy::Batch);
        assert_eq!(scalar_results, batch_results, "campaign output must not depend on eval");
        assert_eq!(scalar_snap, batch_snap, "progress counters must not depend on eval");
        assert_eq!(
            batch_snap.measurement_epochs,
            u64::from(cfg.measurements),
            "one epoch per RDT measurement"
        );
        assert!(batch_snap.hammer_sessions > 0);
    }
}
