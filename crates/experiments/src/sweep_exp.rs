//! The spatial-aware defenses sweep (`vrd-exp memsim-sweep`).
//!
//! The paper's §6 argues a mitigation threshold must not exceed the RDT
//! any victim row ever experiences; its reference \[134\] ("Spatial
//! Variation-Aware Read Disturbance Defenses") adds that configuring the
//! *whole bank* for the weakest row wastes mitigation work wherever rows
//! are spatially stronger. This experiment reproduces that crossover on
//! the attack model of [`vrd_memsim::security`]:
//!
//! 1. Run the in-depth characterization campaign and pool one module's
//!    measured RDT series into an empirical per-epoch distribution; its
//!    minimum anchors the [`MitigationProfile`] artifact
//!    (`mitigation_profile.json`, reloadable via
//!    [`MitigationProfile::load`]).
//! 2. Scale the distribution to the Fig.-14 nominal RDTs and lay the
//!    rows out under a wide spatial spread
//!    ([`SpatialProfile::wide`]), one attack victim per profile region
//!    (the region's weakest row).
//! 3. For every (RDT, guardband, mechanism) cell, pit three
//!    configurations against the multi-victim round-robin attack:
//!    **naive** (flat at the *strongest* region's threshold — what a
//!    characterization that sampled only strong rows would pick),
//!    **uniform** (flat at the weakest region's threshold — the
//!    classical worst-case configuration), and **profiled** (per-region
//!    thresholds from the characterization).
//!
//! The crossover the findings scoreboard checks (F18/F19): the profiled
//! variant keeps the uniform variant's zero-escape coverage while
//! issuing measurably fewer mitigation actions, and the naive variant is
//! cheaper still but leaks bitflips on the weak regions.

use serde::{Deserialize, Serialize};

use vrd_dram::spatial::SpatialProfile;
use vrd_memsim::security::{simulate_attack, AttackConfig, SpatialVictim};
use vrd_memsim::workload::region_victim_rows;
use vrd_memsim::{MitigationKind, MitigationProfile};

use crate::indepth::InDepthStudy;
use crate::opts::Options;
use crate::render::{f, Table};

/// The nominal RDTs the sweep scales the measured distribution to
/// (Fig. 14's two operating points).
pub const RDT_TARGETS: [u32; 2] = [1024, 128];

/// The guardband factors swept (multiplicative, 1.0 = thresholds at the
/// measured minima).
pub const GUARDBANDS: [f64; 4] = [1.0, 0.9, 0.75, 0.5];

/// Profile regions the sweep characterizes (rows covered =
/// `regions × region_rows`).
pub const SWEEP_REGIONS: u32 = 8;

/// One mitigation configuration's outcome against the spatial attack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariantOutcome {
    /// Smallest effective threshold the variant was configured with.
    pub configured_min: u32,
    /// Largest effective threshold the variant was configured with.
    pub configured_max: u32,
    /// Bitflip escapes across all victims.
    pub escapes: u64,
    /// Preventive victim refreshes issued.
    pub preventive_refreshes: u64,
    /// Total mitigation actions issued (the overhead axis).
    pub actions: u64,
    /// Whether the configuration held everywhere (zero escapes).
    pub secure: bool,
}

/// One (RDT target × guardband × mechanism) cell of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Mechanism evaluated.
    pub mitigation: MitigationKind,
    /// Nominal RDT the distribution was scaled to.
    pub rdt_target: u32,
    /// Guardband factor applied to every threshold.
    pub guardband_factor: f64,
    /// Flat configuration at the strongest region's threshold.
    pub naive: VariantOutcome,
    /// Flat configuration at the weakest region's threshold.
    pub uniform: VariantOutcome,
    /// Per-region configuration from the characterization profile.
    pub profiled: VariantOutcome,
}

/// The full sweep output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepStudy {
    /// Module whose campaign fed the profile.
    pub module: String,
    /// Device seed the spatial factors derive from.
    pub device_seed: u64,
    /// Rows per profile region.
    pub region_rows: u32,
    /// Rows covered by the profile.
    pub rows_covered: u32,
    /// Attacker activations per simulation.
    pub activations: u64,
    /// Measured minimum RDT of the pooled campaign distribution.
    pub measured_min_rdt: u32,
    /// Pooled distribution size (epoch draws).
    pub distribution_len: usize,
    /// Strongest-over-weakest region threshold ratio at guardband 1.0.
    pub spatial_spread: f64,
    /// One victim per region: the region's weakest row, with its
    /// true-RDT factor relative to the weakest region.
    pub victims: Vec<SpatialVictim>,
    /// The characterization-derived artifact (measured minimum, no
    /// guardband) written as `mitigation_profile.json`.
    pub profile: MitigationProfile,
    /// All sweep cells.
    pub points: Vec<SweepPoint>,
}

/// Pools every measured RDT value of one module's in-depth result into
/// an empirical per-epoch distribution.
fn pooled_distribution(study: &InDepthStudy) -> Option<(String, Vec<u32>)> {
    for module in &study.per_module {
        let values: Vec<u32> = module
            .rows
            .iter()
            .flat_map(|r| r.per_condition.iter())
            .flat_map(|cs| cs.series.values().iter().copied())
            .collect();
        if !values.is_empty() {
            return Some((module.module.clone(), values));
        }
    }
    None
}

/// Scales the distribution so its minimum lands exactly on `target`.
fn scale_distribution(dist: &[u32], measured_min: u32, target: u32) -> Vec<u32> {
    dist.iter()
        .map(|&v| {
            let scaled = f64::from(v) * f64::from(target) / f64::from(measured_min);
            scaled.round().max(1.0) as u32
        })
        .collect()
}

fn outcome(
    kind: MitigationKind,
    profile: &MitigationProfile,
    attack: &AttackConfig,
) -> VariantOutcome {
    let mut mitigation = kind.build(profile, 1, attack.seed);
    let result = simulate_attack(mitigation.as_mut(), attack);
    VariantOutcome {
        configured_min: profile.min_threshold(),
        configured_max: profile.max_region_threshold(),
        escapes: result.escapes,
        preventive_refreshes: result.preventive_refreshes,
        actions: result.actions,
        secure: result.secure(),
    }
}

/// Whether `study` measured any series, so that [`run_with`] can
/// derive a profile from it.
pub(crate) fn has_series(study: &InDepthStudy) -> bool {
    pooled_distribution(study).is_some()
}

/// Runs the sweep on top of an already-run in-depth study, resolving
/// the campaign module's spec from `specs` before Table 1 — required
/// for synthetic-fleet modules, whose renamed specs
/// `ModuleSpec::by_name` cannot find.
///
/// # Panics
///
/// Panics when the study measured no series or the
/// module's spec is in neither `specs` nor Table 1.
pub fn run_with(
    opts: &Options,
    specs: &[vrd_dram::ModuleSpec],
    study: &InDepthStudy,
) -> SweepStudy {
    let (module, dist) =
        pooled_distribution(study).expect("in-depth study must contain measured series");
    let measured_min = *dist.iter().min().expect("non-empty distribution");

    let spec = specs
        .iter()
        .find(|s| s.name == module)
        .cloned()
        .or_else(|| vrd_dram::ModuleSpec::by_name(&module))
        .expect("campaign module is in the spec list or Table 1");
    let device_seed =
        vrd_dram::Module::new_with_row_bytes(spec, opts.seed, opts.row_bytes).device().seed();
    let spatial = SpatialProfile::wide();
    let region_rows = opts.region_rows.max(1);
    let rows_covered = region_rows.saturating_mul(SWEEP_REGIONS);

    let region_minima = region_victim_rows(&spatial, device_seed, rows_covered, region_rows);
    let weakest = region_minima.iter().map(|&(_, f)| f).fold(f64::INFINITY, f64::min);
    let victims: Vec<SpatialVictim> = region_minima
        .iter()
        .map(|&(row, factor)| SpatialVictim { row, factor: factor / weakest })
        .collect();

    let profile = MitigationProfile::from_characterization(
        module.clone(),
        measured_min,
        &spatial,
        device_seed,
        rows_covered,
        region_rows,
        1.0,
    );
    let spatial_spread =
        f64::from(profile.max_region_threshold()) / f64::from(profile.min_threshold());

    let mut points = Vec::new();
    for &target in &RDT_TARGETS {
        let scaled = scale_distribution(&dist, measured_min, target);
        for (gi, &guardband) in GUARDBANDS.iter().enumerate() {
            let profiled = MitigationProfile::from_characterization(
                module.clone(),
                target,
                &spatial,
                device_seed,
                rows_covered,
                region_rows,
                guardband,
            );
            let uniform = MitigationProfile::flat(profiled.min_threshold());
            let naive = MitigationProfile::flat(profiled.max_region_threshold());
            for (ki, &kind) in MitigationKind::EVALUATED.iter().enumerate() {
                let seed = opts.seed ^ (u64::from(target) << 32) ^ ((gi as u64) << 8) ^ (ki as u64);
                let mut attack = AttackConfig::new(scaled.clone(), victims.clone(), seed);
                attack.activations = opts.sweep_activations.max(1);
                points.push(SweepPoint {
                    mitigation: kind,
                    rdt_target: target,
                    guardband_factor: guardband,
                    naive: outcome(kind, &naive, &attack),
                    uniform: outcome(kind, &uniform, &attack),
                    profiled: outcome(kind, &profiled, &attack),
                });
            }
        }
    }

    SweepStudy {
        module,
        device_seed,
        region_rows,
        rows_covered,
        activations: opts.sweep_activations.max(1),
        measured_min_rdt: measured_min,
        distribution_len: dist.len(),
        spatial_spread,
        victims,
        profile,
        points,
    }
}

/// The sweep cells where the uniform worst-case configuration held
/// (zero escapes) — the coverage bar the profiled variant must match.
pub fn covered_points(study: &SweepStudy) -> Vec<&SweepPoint> {
    study.points.iter().filter(|p| p.uniform.secure).collect()
}

/// `(uniform, profiled)` total mitigation actions over the covered
/// cells, or `None` when no cell is covered.
pub fn covered_actions(study: &SweepStudy) -> Option<(u64, u64)> {
    let covered = covered_points(study);
    if covered.is_empty() {
        return None;
    }
    Some((
        covered.iter().map(|p| p.uniform.actions).sum(),
        covered.iter().map(|p| p.profiled.actions).sum(),
    ))
}

/// Mechanisms for which the naive (strongest-region) configuration
/// leaks bitflips somewhere in the sweep.
pub fn naive_leaking_kinds(study: &SweepStudy) -> Vec<MitigationKind> {
    MitigationKind::EVALUATED
        .into_iter()
        .filter(|&k| study.points.iter().any(|p| p.mitigation == k && p.naive.escapes > 0))
        .collect()
}

/// Renders the crossover table plus the coverage/overhead summary.
pub fn render(study: &SweepStudy) -> String {
    let mut table = Table::new([
        "RDT",
        "guard",
        "mitigation",
        "naive esc",
        "naive acts",
        "uniform esc",
        "uniform acts",
        "profiled esc",
        "profiled acts",
    ]);
    for p in &study.points {
        table.row([
            p.rdt_target.to_string(),
            format!("{:.2}", p.guardband_factor),
            p.mitigation.name().to_owned(),
            p.naive.escapes.to_string(),
            p.naive.actions.to_string(),
            p.uniform.escapes.to_string(),
            p.uniform.actions.to_string(),
            p.profiled.escapes.to_string(),
            p.profiled.actions.to_string(),
        ]);
    }
    let covered = covered_points(study);
    let coverage_kept = covered.iter().filter(|p| p.profiled.secure).count();
    let overhead = match covered_actions(study) {
        Some((uniform, profiled)) => format!(
            "actions over covered cells: uniform {uniform} vs profiled {profiled} ({}x fewer)",
            f(uniform as f64 / (profiled as f64).max(1.0), 2)
        ),
        None => "no cell was covered by the uniform worst case".to_owned(),
    };
    let leaking: Vec<&str> = naive_leaking_kinds(study).into_iter().map(|k| k.name()).collect();
    format!(
        "Spatial-aware defenses sweep — module {} (measured min RDT {}, {} epoch draws, \
         {} regions x {} rows, spatial spread {}x):\n{}\n\
         uniform-secure cells: {}/{}; profiled keeps coverage on {coverage_kept} of them\n\
         {overhead}\n\
         naive (strongest-region) configuration leaks for: {}\n",
        study.module,
        study.measured_min_rdt,
        study.distribution_len,
        study.victims.len(),
        study.region_rows,
        f(study.spatial_spread, 2),
        table.render(),
        covered.len(),
        study.points.len(),
        if leaking.is_empty() { "none".to_owned() } else { leaking.join(", ") },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn smoke_sweep() -> &'static SweepStudy {
        static STUDY: OnceLock<SweepStudy> = OnceLock::new();
        STUDY.get_or_init(|| {
            let mut opts = Options::smoke();
            opts.modules = vec!["M1".into()];
            opts.sweep_activations = 40_000;
            crate::studies::Studies::new(&opts).sweep().expect("M1 measures series").clone()
        })
    }

    #[test]
    fn sweep_covers_the_full_grid() {
        let s = smoke_sweep();
        assert_eq!(
            s.points.len(),
            RDT_TARGETS.len() * GUARDBANDS.len() * MitigationKind::EVALUATED.len()
        );
        assert_eq!(s.victims.len(), SWEEP_REGIONS as usize);
        assert_eq!(s.module, "M1");
        assert!(s.measured_min_rdt > 0);
    }

    #[test]
    fn profile_artifact_is_valid_and_spread_is_wide() {
        let s = smoke_sweep();
        s.profile.validate().expect("artifact validates");
        assert_eq!(s.profile.min_threshold(), s.measured_min_rdt);
        assert!(
            s.spatial_spread > 2.0,
            "wide layout must spread regions, got {}",
            s.spatial_spread
        );
        let back = MitigationProfile::from_json(&s.profile.to_json()).expect("round trip");
        assert_eq!(back, s.profile);
    }

    #[test]
    fn profiled_keeps_uniform_coverage_at_lower_cost() {
        let s = smoke_sweep();
        let covered = covered_points(s);
        assert!(!covered.is_empty(), "some cells must be covered");
        for p in &covered {
            assert!(
                p.profiled.secure,
                "{} at RDT {} g {} lost coverage",
                p.mitigation.name(),
                p.rdt_target,
                p.guardband_factor
            );
            assert!(p.profiled.actions <= p.uniform.actions);
        }
        let (uniform, profiled) = covered_actions(s).expect("covered cells exist");
        assert!(profiled < uniform, "profiled must act less overall ({profiled} vs {uniform})");
    }

    #[test]
    fn naive_configuration_leaks_for_counter_mechanisms() {
        let leaking = naive_leaking_kinds(smoke_sweep());
        assert!(leaking.len() >= 2, "strongest-region config must leak, got {leaking:?}");
    }

    #[test]
    fn scaling_anchors_the_minimum() {
        let scaled = scale_distribution(&[3_500, 4_800, 5_200], 3_500, 128);
        assert_eq!(scaled[0], 128);
        assert!(scaled[1] > scaled[0] && scaled[2] > scaled[1]);
    }

    #[test]
    fn render_summarizes_the_crossover() {
        let text = render(smoke_sweep());
        assert!(text.contains("Spatial-aware defenses sweep"));
        assert!(text.contains("uniform-secure cells"));
        for name in ["Graphene", "PRAC", "PARA", "MINT"] {
            assert!(text.contains(name), "missing {name}");
        }
    }
}
