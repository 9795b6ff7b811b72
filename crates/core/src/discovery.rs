//! DiscoRD-style early-stopping discovery campaign.
//!
//! The in-depth campaign (§5) characterizes each selected row with a
//! *fixed* number of RDT measurements. That is the right tool for
//! studying temporal variation, but wasteful when the question is only
//! "what RDT can this row be trusted down to?" — most rows settle their
//! running minimum long before the fixed budget runs out. Following the
//! DiscoRD observation (see `PAPERS.md`), [`discovery_campaign`] bounds
//! each row's reliable RDT with a *sequential* stopping rule instead:
//! it keeps measuring until the running minimum has survived a long
//! enough quiet streak that, at the configured confidence, the
//! probability of a future epoch undercutting it is below
//! [`DiscoveryConfig::epsilon`] (see [`vrd_stats::StoppingRule`]).
//!
//! Row selection is byte-identical to the in-depth campaign's phase 1
//! (same platform construction, same scan), and each row's measurement
//! stream replays the in-depth campaign's condition-0 cell exactly: the
//! discovery unit key equals the in-depth cell key, so the derived unit
//! seed — and therefore every keyed measurement epoch — matches. A
//! discovery run that stops after `k` epochs has observed a strict
//! *prefix* of what the in-depth campaign observes for the same cell,
//! which is the anchor of the soundness suite
//! (`tests/discovery_validation.rs`).
//!
//! The reported [`DiscoveryRowResult::bound`] applies a multiplicative
//! guardband below the observed minimum, mirroring how a deployed
//! mitigation would derate the discovered threshold.
//!
//! Mid-row checkpointing: with a
//! [`Checkpoint`](crate::checkpoint::Checkpoint) configured, every
//! [`DiscoveryConfig::stash_every`] epochs the row's observation stream
//! so far is journaled under a sentinel key
//! ([`DISCOVERY_STATE_CONDITION`]); later stashes of a row supersede
//! earlier ones, and a torn stash at the crash point falls back to the
//! previous one. A resumed run replays the stash by
//! fast-forwarding the platform's epoch counter — measured values are
//! pure functions of `(unit seed, epoch)`, so the continuation is
//! byte-identical to an uninterrupted run.

use serde::{Deserialize, Serialize};

use vrd_bender::routines::guess_rdt;
use vrd_bender::TestPlatform;
use vrd_dram::spec::ModuleSpec;
use vrd_dram::TestConditions;
use vrd_stats::{
    chi_square_gof_normal, ks_test_two_sample, SequentialMin, StatsError, StoppingRule,
};

use crate::algorithm::{
    measure_rdt_once_using, EvalStrategy, SearchStrategy, SweepSpec, FIND_VICTIM_CUTOFF,
};
use crate::campaign::{record_platform, run_campaign_phases, select_unit_with};
use crate::checkpoint::CheckpointError;
use crate::exec::{ExecConfig, Unit, UnitCtx, UnitKey};
use crate::obs::Event;
use crate::run::{run_units, RunOptions};
use crate::series::RdtSeries;

/// Campaign label of the discovery campaign, used in events and
/// checkpoint manifests.
pub const DISCOVERY: &str = "discovery";

/// Sentinel condition index for a row's mid-measurement stash key.
/// Distinct from [`UnitKey::WHOLE_MODULE`] and far above any real
/// condition index, so stash records never collide with unit records in
/// a shared journal.
pub const DISCOVERY_STATE_CONDITION: u32 = u32::MAX - 1;

/// Configuration of the discovery campaign; [`DiscoveryConfig::quick`]
/// is a reduced scale. [`discovery_campaign`] checks the stopping-rule
/// parameters and the guardband before it runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscoveryConfig {
    /// Confidence target of the stopping rule (in `(0, 1)`).
    pub confidence: f64,
    /// Tolerated per-epoch undercut probability once stopped.
    pub epsilon: f64,
    /// Epoch floor: no row stops earlier.
    pub min_epochs: u32,
    /// Epoch ceiling: every row stops here at the latest.
    pub max_epochs: u32,
    /// Multiplicative derating applied below the observed minimum when
    /// reporting [`DiscoveryRowResult::bound`] (in `[0, 1)`).
    pub guardband: f64,
    /// Stash the row's observation stream into the checkpoint every
    /// this many epochs (0 disables mid-row stashing).
    pub stash_every: u32,
    /// Rows scanned per segment during selection (as in-depth).
    pub segment_rows: u32,
    /// Rows selected per segment (as in-depth).
    pub picks_per_segment: usize,
    /// Test conditions of the measurement stream.
    pub conditions: TestConditions,
    /// Device seed.
    pub seed: u64,
    /// Row size in bytes for the device model.
    pub row_bytes: u32,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            confidence: 0.9,
            epsilon: 0.05,
            min_epochs: 10,
            max_epochs: 400,
            guardband: 0.15,
            stash_every: 16,
            segment_rows: 1_024,
            picks_per_segment: 50,
            conditions: TestConditions::foundational(),
            seed: 5025,
            row_bytes: 2048,
        }
    }
}

impl DiscoveryConfig {
    /// A reduced configuration for tests and quick runs. Selection
    /// parameters match [`crate::campaign::InDepthConfig::quick`], so
    /// both campaigns pick identical rows.
    pub fn quick() -> Self {
        DiscoveryConfig {
            max_epochs: 120,
            stash_every: 8,
            segment_rows: 96,
            picks_per_segment: 4,
            row_bytes: 512,
            ..DiscoveryConfig::default()
        }
    }

    /// The stopping rule this configuration describes.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] when the confidence, epsilon,
    /// or epoch bounds are out of range (see [`StoppingRule::new`]).
    pub fn stopping_rule(&self) -> Result<StoppingRule, StatsError> {
        StoppingRule::new(self.confidence, self.epsilon, self.min_epochs, self.max_epochs)
    }
}

/// The stash payload of one partially measured row: the observation
/// stream so far, in epoch order (`None` = censored epoch). Replaying
/// it reconstructs the sequential state exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscoveryRowState {
    /// Per-epoch outcomes, in epoch order.
    pub observations: Vec<Option<u32>>,
}

/// Discovery outcome for one row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscoveryRowResult {
    /// Row address.
    pub row: u32,
    /// Selection-time mean RDT guess.
    pub selection_guess: u32,
    /// The re-guessed RDT parameterizing the sweep.
    pub rdt_guess: u32,
    /// The reliable-RDT bound: the observed minimum derated by the
    /// guardband.
    pub bound: u32,
    /// Smallest RDT observed before stopping.
    pub min_observed: u32,
    /// Measurement epochs spent (including censored ones).
    pub epochs_used: u32,
    /// Whether the quiet-streak rule stopped the row before the
    /// `max_epochs` ceiling forced it.
    pub stopped_early: bool,
    /// The confidence target the stopping rule was run at.
    pub confidence: f64,
    /// The full observed series (for downstream statistics).
    pub series: RdtSeries,
    /// Split-half two-sample KS p-value of the observed stream — a
    /// sanity check that early and late epochs are exchangeable.
    /// `None` when either half is too small.
    pub ks_split_p: Option<f64>,
    /// Chi-square normality p-value of the observed stream. `None`
    /// when the sample is too small or degenerate.
    pub chi_square_p: Option<f64>,
}

/// Discovery campaign result for one module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscoveryResult {
    /// Module name.
    pub module: String,
    /// Per-row outcomes, in selection order (rows whose measurement
    /// stream was fully censored are omitted).
    pub rows: Vec<DiscoveryRowResult>,
}

/// Runs the early-stopping discovery campaign across a fleet of modules
/// on the deterministic executor, under [`RunOptions`], in two phases:
///
/// 1. **Selection** — identical to the in-depth campaign's phase 1.
/// 2. **Discovery** — one unit per selected row, keyed like the
///    in-depth campaign's condition-0 cell. Each unit measures the row
///    repeatedly under the configured conditions and stops as soon as
///    the [`StoppingRule`] is satisfied, emitting
///    [`Event::DiscoveryStopped`] with the epochs spent and the bound.
///
/// Output order follows `specs`; within a module, rows follow selection
/// order, independent of the thread count.
///
/// When `opts` carries a checkpoint, finished rows restore from the
/// journal and *unfinished* rows restore their stashed prefix (see the
/// module docs); a resumed campaign is byte-identical to an
/// uninterrupted one. When cancellation fires mid-row, the row stashes
/// its progress and reports itself interrupted instead of committing a
/// truncated result.
///
/// # Errors
///
/// [`CheckpointError::Interrupted`] when cancellation stopped the run
/// early, plus checkpoint open/decode errors. A run without checkpoint
/// or cancellation cannot fail.
///
/// # Panics
///
/// When the stopping-rule parameters are invalid (confidence or epsilon
/// outside `(0, 1)`, `min_epochs == 0`, `max_epochs < min_epochs`) or
/// the guardband is outside `[0, 1)`.
pub fn discovery_campaign(
    specs: &[ModuleSpec],
    cfg: &DiscoveryConfig,
    opts: &RunOptions<'_>,
) -> Result<Vec<DiscoveryResult>, CheckpointError> {
    let ExecConfig { search, eval, .. } = opts.exec;
    let rule = cfg.stopping_rule().expect("discovery stopping-rule parameters must be valid");
    assert!((0.0..1.0).contains(&cfg.guardband), "guardband must be in [0, 1)");
    run_campaign_phases(opts, DISCOVERY, |opts| {
        // Phase 1: per-module row selection, exactly as in-depth.
        let selection_units: Vec<Unit<ModuleSpec>> =
            specs.iter().map(|s| Unit::new(UnitKey::module(&s.name), s.clone())).collect();
        let selections: Vec<Vec<(u32, u32)>> =
            run_units(opts, DISCOVERY, "select", selection_units, |ctx, spec| {
                select_unit_with(
                    spec,
                    cfg.seed,
                    cfg.row_bytes,
                    cfg.segment_rows,
                    cfg.picks_per_segment,
                    &ctx,
                )
            })?
            .into_results();

        // Phase 2: one unit per selected row, all modules in one pool.
        let units = row_units(specs, &selections);
        let rows: Vec<Option<DiscoveryRowResult>> =
            run_units(opts, DISCOVERY, "discover", units, |ctx, &(module_idx, row, guess)| {
                discover_row(&specs[module_idx], cfg, &rule, row, guess, search, eval, &ctx, opts)
            })?
            .into_results();

        Ok(merge_discovery(specs, selections, rows))
    })
}

/// Phase-2 units: one per (module × selected row), keyed exactly like
/// the in-depth campaign's condition-0 cell so the derived unit seed —
/// and with it every measurement epoch — matches.
fn row_units(specs: &[ModuleSpec], selections: &[Vec<(u32, u32)>]) -> Vec<Unit<(usize, u32, u32)>> {
    let mut units = Vec::new();
    for (module_idx, spec) in specs.iter().enumerate() {
        for &(row, selection_guess) in &selections[module_idx] {
            units.push(Unit::new(
                UnitKey::cell(&spec.name, row, 0),
                (module_idx, row, selection_guess),
            ));
        }
    }
    units
}

/// Merges phase-2 rows back into per-module results in stable
/// (module, selection) order.
fn merge_discovery(
    specs: &[ModuleSpec],
    selections: Vec<Vec<(u32, u32)>>,
    rows: Vec<Option<DiscoveryRowResult>>,
) -> Vec<DiscoveryResult> {
    let mut rows = rows.into_iter();
    specs
        .iter()
        .zip(selections)
        .map(|(spec, selected)| DiscoveryResult {
            module: spec.name.clone(),
            rows: selected.iter().filter_map(|_| rows.next().flatten()).collect(),
        })
        .collect()
}

/// One discovery unit: bound one row's reliable RDT with the sequential
/// stopping rule. Returns `None` when the row never flips within range
/// (no guess) or every epoch before stopping was censored — and also,
/// vacuously, when the unit is interrupted mid-row (the executor then
/// discards the value and reports the unit skipped).
#[allow(clippy::too_many_arguments)]
fn discover_row(
    spec: &ModuleSpec,
    cfg: &DiscoveryConfig,
    rule: &StoppingRule,
    row: u32,
    selection_guess: u32,
    search: SearchStrategy,
    eval: EvalStrategy,
    ctx: &UnitCtx<'_>,
    opts: &RunOptions<'_>,
) -> Option<DiscoveryRowResult> {
    let mut platform =
        TestPlatform::for_module_with_row_bytes(spec.clone(), cfg.seed, cfg.row_bytes);
    platform.reseed_dynamics(ctx.seed);
    platform.set_temperature_c(cfg.conditions.temperature_c);
    let guess = guess_rdt(&mut platform, 0, row, &cfg.conditions, FIND_VICTIM_CUTOFF * 8)?;
    let sweep = SweepSpec::from_guess(guess);

    let ckpt = opts.checkpoint;
    let stash_key = UnitKey::cell(&spec.name, row, DISCOVERY_STATE_CONDITION);
    let mut observations: Vec<Option<u32>> = Vec::new();
    let mut state = SequentialMin::new();
    if let Some(ckpt) = ckpt {
        match ckpt.cached::<DiscoveryRowState>(&stash_key) {
            Ok(Some(stash)) => {
                // Fast-forward: each measured value is a pure function
                // of (dynamics seed, epoch), so replaying an already
                // observed epoch only needs the epoch counter advanced.
                for &observed in &stash.observations {
                    platform.begin_measurement();
                    state.observe(observed);
                }
                observations = stash.observations;
            }
            Ok(None) => {}
            Err(e) => panic!("discovery stash for {}/{row} does not decode: {e}", spec.name),
        }
    }

    // Stashes go through the same commit as a finished unit, so
    // observers and fault plans count them alike.
    let commit_stash = |ckpt, observations: &[Option<u32>]| {
        let state = DiscoveryRowState { observations: observations.to_vec() };
        opts.commit(ckpt, &stash_key, &state);
    };
    let mut stashed_len = observations.len();
    while !rule.should_stop(&state) {
        if ctx.is_cancelled() {
            if let Some(ckpt) = ckpt {
                if observations.len() > stashed_len {
                    commit_stash(ckpt, &observations);
                }
            }
            ctx.interrupt();
            return None;
        }
        let value =
            measure_rdt_once_using(&mut platform, 0, row, &cfg.conditions, &sweep, search, eval);
        state.observe(value);
        observations.push(value);
        if let Some(ckpt) = ckpt {
            // No stash once the rule is satisfied: the final commit is
            // the unit's own journal record.
            if cfg.stash_every > 0
                && (observations.len() - stashed_len) >= cfg.stash_every as usize
                && !rule.should_stop(&state)
            {
                commit_stash(ckpt, &observations);
                stashed_len = observations.len();
            }
        }
    }

    record_platform(ctx, &platform);

    let values: Vec<u32> = observations.iter().flatten().copied().collect();
    let censored = (observations.len() - values.len()) as u32;
    ctx.record_flips(values.len() as u64);
    let series = RdtSeries::new(values, censored);
    let min_observed = series.min()?;
    let epochs_used = state.epochs() as u32;
    let stopped_early = epochs_used < rule.max_epochs();
    let bound = (f64::from(min_observed) * (1.0 - cfg.guardband)).floor() as u32;

    let sample = series.to_f64();
    let ks_split_p = if sample.len() >= 16 {
        let (early, late) = sample.split_at(sample.len() / 2);
        ks_test_two_sample(early, late).ok().map(|r| r.p_value)
    } else {
        None
    };
    let chi_square_p = chi_square_gof_normal(&sample, None).ok().map(|r| r.p_value);

    opts.observer.on_event(&Event::DiscoveryStopped {
        key: ctx.key.clone(),
        epochs_used,
        bound,
        confidence: rule.confidence(),
    });

    Some(DiscoveryRowResult {
        row,
        selection_guess,
        rdt_guess: guess,
        bound,
        min_observed,
        epochs_used,
        stopped_early,
        confidence: rule.confidence(),
        series,
        ks_split_p,
        chi_square_p,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::MemorySink;

    /// The discovery campaign against one module on one thread.
    fn serial_discovery(spec: &ModuleSpec, cfg: &DiscoveryConfig) -> DiscoveryResult {
        let opts = RunOptions::new(ExecConfig::new(1, cfg.seed));
        discovery_campaign(std::slice::from_ref(spec), cfg, &opts).unwrap().pop().unwrap()
    }

    #[test]
    fn quick_discovery_bounds_every_row() {
        let spec = ModuleSpec::by_name("M1").unwrap();
        let cfg = DiscoveryConfig::quick();
        let result = serial_discovery(&spec, &cfg);
        assert_eq!(result.module, "M1");
        assert!(!result.rows.is_empty(), "selection must find vulnerable rows");
        for row in &result.rows {
            assert!(row.epochs_used >= cfg.min_epochs);
            assert!(row.epochs_used <= cfg.max_epochs);
            assert!(row.bound <= row.min_observed, "guardband derates the bound");
            assert_eq!(row.confidence, cfg.confidence);
            assert_eq!(row.series.len() + row.series.censored() as usize, row.epochs_used as usize);
        }
    }

    #[test]
    fn discovery_is_thread_invariant() {
        let spec = ModuleSpec::by_name("H3").unwrap();
        let cfg = DiscoveryConfig::quick();
        let serial = serial_discovery(&spec, &cfg);
        let parallel = discovery_campaign(
            std::slice::from_ref(&spec),
            &cfg,
            &RunOptions::new(ExecConfig::new(4, cfg.seed)),
        )
        .unwrap();
        assert_eq!(parallel.len(), 1);
        assert_eq!(serial, parallel[0], "thread count must not change the results");
    }

    #[test]
    fn discovery_emits_stop_events_with_bounds() {
        let spec = ModuleSpec::by_name("M1").unwrap();
        let cfg = DiscoveryConfig::quick();
        let sink = MemorySink::new();
        let results = discovery_campaign(
            std::slice::from_ref(&spec),
            &cfg,
            &RunOptions::new(ExecConfig::new(1, cfg.seed)).observer(&sink),
        )
        .unwrap();
        let stops: Vec<(u32, u32, f64)> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::DiscoveryStopped { epochs_used, bound, confidence, .. } => {
                    Some((*epochs_used, *bound, *confidence))
                }
                _ => None,
            })
            .collect();
        assert_eq!(stops.len(), results[0].rows.len(), "one stop event per bounded row");
        for ((epochs, bound, confidence), row) in stops.iter().zip(&results[0].rows) {
            assert_eq!(*epochs, row.epochs_used);
            assert_eq!(*bound, row.bound);
            assert_eq!(*confidence, row.confidence);
        }
    }

    #[test]
    fn discovery_saves_epochs_vs_ceiling() {
        let spec = ModuleSpec::by_name("M1").unwrap();
        let cfg = DiscoveryConfig::quick();
        let result = serial_discovery(&spec, &cfg);
        assert!(
            result.rows.iter().any(|r| r.stopped_early),
            "the quiet-streak rule must fire before the ceiling on typical rows"
        );
    }

    #[test]
    #[should_panic(expected = "stopping-rule")]
    fn builder_rejects_invalid_confidence() {
        let spec = ModuleSpec::by_name("M1").unwrap();
        serial_discovery(&spec, &DiscoveryConfig { confidence: 1.5, ..DiscoveryConfig::quick() });
    }

    #[test]
    #[should_panic(expected = "guardband")]
    fn builder_rejects_invalid_guardband() {
        let spec = ModuleSpec::by_name("M1").unwrap();
        serial_discovery(&spec, &DiscoveryConfig { guardband: 1.0, ..DiscoveryConfig::quick() });
    }
}
