//! Extension experiments beyond the paper's figures:
//!
//! - [`ablation`] — which model mechanism drives which finding: rerun
//!   the foundational study with jitter, traps, or slow mixing removed
//!   (the design-choice ablations `DESIGN.md` calls out).
//! - [`security`] — the §6.1 claim made executable: escape rates of
//!   mitigations configured from few-shot RDT estimates, versus the
//!   guardband (uses `vrd-memsim`'s attack model with measured RDT
//!   distributions).
//! - [`online`] — the paper's future-work direction: online RDT
//!   profiling convergence and its residual risk.

use serde::{Deserialize, Serialize};

use vrd_bender::TestPlatform;
use vrd_core::algorithm::{find_victim, test_loop, SweepSpec, FIND_VICTIM_CUTOFF};
use vrd_core::campaign::select_rows;
use vrd_core::metrics::SeriesMetrics;
use vrd_core::montecarlo::exact_stats;
use vrd_core::online::{convergence_trace, OnlineProfiler};
use vrd_dram::device::{DeviceConfig, DramDevice};
use vrd_dram::spec::VrdModelParams;
use vrd_dram::{ModuleSpec, TestConditions};
use vrd_memsim::security::{security_sweep, AttackConfig, SpatialVictim};
use vrd_memsim::MitigationKind;

use crate::foundational::FoundationalStudy;
use crate::opts::Options;
use crate::render::{f, sci, Table};

// ---------------------------------------------------------------- ablation

/// One model variant of the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AblationVariant {
    /// The full calibrated model.
    Full,
    /// Per-session threshold jitter removed (traps only).
    NoJitter,
    /// All traps removed (jitter only).
    NoTraps,
    /// Trap mixing forced fast (state redrawn nearly every session).
    FastMixing,
}

impl AblationVariant {
    /// All variants in presentation order.
    pub const ALL: [AblationVariant; 4] = [
        AblationVariant::Full,
        AblationVariant::NoJitter,
        AblationVariant::NoTraps,
        AblationVariant::FastMixing,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AblationVariant::Full => "full model",
            AblationVariant::NoJitter => "no jitter",
            AblationVariant::NoTraps => "no traps",
            AblationVariant::FastMixing => "fast mixing",
        }
    }

    /// Applies the ablation to the calibrated parameters.
    pub fn apply(self, mut params: VrdModelParams) -> VrdModelParams {
        match self {
            AblationVariant::Full => {}
            AblationVariant::NoJitter => params.jitter_sigma_range = (0.0, 0.0),
            AblationVariant::NoTraps => {
                params.typical_assist = 0.0;
                params.tail_probability = 0.0;
                params.bimodal = false;
            }
            AblationVariant::FastMixing => params.mix_rate_range = (0.6, 0.95),
        }
        params
    }
}

/// Measured behaviour of one ablation variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Which variant.
    pub variant: AblationVariant,
    /// Unique RDT states over the series (Finding 2).
    pub unique_states: usize,
    /// Immediate state-change fraction (Finding 3; `None` if constant).
    pub immediate_change: Option<f64>,
    /// P(find min | N = 1) (Finding 7).
    pub p_find_min_n1: f64,
    /// E\[normalized min | N = 1\] (Finding 8).
    pub expected_norm_min_n1: f64,
    /// Max/min ratio over the series (Finding 5).
    pub max_over_min: f64,
}

/// Runs the ablation on one module's victim row.
pub fn ablation(opts: &Options) -> Vec<AblationRow> {
    let spec = opts
        .specs()
        .into_iter()
        .next()
        .unwrap_or_else(|| ModuleSpec::by_name("M1").expect("M1 exists"));
    let measurements = opts.foundational_measurements.clamp(200, 5_000);
    let mut rows = Vec::new();
    let family = spec.family();
    for variant in AblationVariant::ALL {
        let config = DeviceConfig {
            topology: family.topology,
            row_bytes: opts.row_bytes,
            mapping: family.mapping,
            cell_layout: family.cell_layout,
            vrd: variant.apply(spec.vrd_params()),
            spatial: vrd_dram::spatial::SpatialProfile::ddr4_default(),
            bank_variation: family.bank_variation,
            rows_per_refresh: 64,
        };
        let device = DramDevice::new(config, opts.seed);
        let mut platform = TestPlatform::new(device, vrd_bender::TimingParams::ddr4());
        platform.set_temperature_c(50.0);
        let conditions = TestConditions::foundational();
        let Some((victim, guess)) =
            find_victim(&mut platform, 0, &conditions, FIND_VICTIM_CUTOFF, 2..8192)
        else {
            continue;
        };
        let series = test_loop(
            &mut platform,
            0,
            victim,
            &conditions,
            measurements,
            &SweepSpec::from_guess(guess),
        );
        if series.len() < 10 {
            continue;
        }
        let metrics = SeriesMetrics::of(&series);
        let stats = exact_stats(&series, 1);
        rows.push(AblationRow {
            variant,
            unique_states: metrics.unique_states,
            immediate_change: metrics.immediate_change_fraction,
            p_find_min_n1: stats.p_find_min,
            expected_norm_min_n1: stats.expected_normalized_min,
            max_over_min: series.max_over_min().unwrap_or(1.0),
        });
    }
    rows
}

/// Renders the ablation table.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut table = Table::new([
        "variant",
        "unique states",
        "immediate change",
        "P(min|N=1)",
        "E[norm min|N=1]",
        "max/min",
    ]);
    for r in rows {
        table.row([
            r.variant.name().to_owned(),
            r.unique_states.to_string(),
            r.immediate_change.map(|v| f(v, 3)).unwrap_or_else(|| "-".into()),
            sci(r.p_find_min_n1),
            f(r.expected_norm_min_n1, 4),
            f(r.max_over_min, 3),
        ]);
    }
    format!(
        "Ablation — which mechanism drives which VRD finding \
         (one victim row, foundational conditions):\n{}\n\
         expectations: removing jitter collapses the state count toward the trap\n\
         states; removing traps keeps the normal bulk but loses the deep rare\n\
         minima (higher P(min)); fast mixing re-creates the race that makes the\n\
         minimum common (high P(min), the failure mode a VRD model must avoid).\n",
        table.render()
    )
}

// ---------------------------------------------------------------- security

/// Security-sweep results for one module and mitigation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SecurityRow {
    /// Module whose measured RDT distribution drives the attack.
    pub module: String,
    /// Mitigation evaluated.
    pub mitigation: MitigationKind,
    /// Estimate of the min from this many draws (the vendor's test
    /// budget).
    pub estimate_n: usize,
    /// `(margin, configured threshold, escapes per million)` points.
    pub points: Vec<(f64, u32, f64)>,
    /// True minimum of the distribution.
    pub true_min: u32,
    /// The few-shot estimate the margins were applied to.
    pub estimated_min: u32,
}

/// Runs the security sweep against measured foundational distributions,
/// preferring the rows with the widest VRD range (those are the ones an
/// inaccurate configuration endangers) and estimating the minimum from a
/// *single* measurement — the paper's worst case, where one measurement
/// can land 1.9–3.2× above the true minimum.
pub fn security(study: &FoundationalStudy, opts: &Options) -> Vec<SecurityRow> {
    let mut candidates: Vec<&vrd_core::campaign::FoundationalResult> =
        study.per_module.iter().filter(|r| r.series.len() >= 100).collect();
    candidates.sort_by(|a, b| {
        let ra = a.series.max_over_min().unwrap_or(1.0);
        let rb = b.series.max_over_min().unwrap_or(1.0);
        rb.partial_cmp(&ra).expect("finite ratios")
    });

    let mut rows = Vec::new();
    for result in candidates.into_iter().take(4) {
        let config = AttackConfig {
            activations: 4_000_000,
            rdt_distribution: result.series.values().to_vec(),
            victims: vec![SpatialVictim { row: 7, factor: 1.0 }],
            seed: opts.seed,
        };
        for kind in [MitigationKind::Graphene, MitigationKind::Para, MitigationKind::Prac] {
            let sweep = security_sweep(kind, &config, 1);
            rows.push(SecurityRow {
                module: result.module.clone(),
                mitigation: kind,
                estimate_n: 1,
                points: sweep.points,
                true_min: sweep.true_min,
                estimated_min: sweep.estimated_min,
            });
        }
    }
    rows
}

/// Renders the security table.
pub fn render_security(rows: &[SecurityRow]) -> String {
    let mut table = Table::new([
        "module",
        "mitigation",
        "est. min (1 meas)",
        "true min",
        "margin",
        "configured",
        "escapes/M acts",
    ]);
    for r in rows {
        for (margin, configured, escapes) in &r.points {
            table.row([
                r.module.clone(),
                r.mitigation.name().to_owned(),
                r.estimated_min.to_string(),
                r.true_min.to_string(),
                format!("{:.0}%", margin * 100.0),
                configured.to_string(),
                f(*escapes, 3),
            ]);
        }
    }
    format!(
        "Security — escapes of guardbanded mitigations under a continuous\n\
         hammer attack when the RDT varies per the measured distribution\n\
         (§6.1: an overestimated RDT compromises the security guarantee):\n{}",
        table.render()
    )
}

// ------------------------------------------------------------------ online

/// Online-profiling convergence for one module.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineResult {
    /// Module profiled.
    pub module: String,
    /// Guardband used.
    pub guardband: f64,
    /// `(round, observed min, recommendation, instability)` trajectory.
    pub trace: Vec<(u32, u32, u32, f64)>,
    /// Offline reference: the minimum over a long measurement series.
    pub offline_min: u32,
    /// Simulated profiling time spent (ns).
    pub profiling_time_ns: f64,
}

/// Runs the online-profiling experiment on the first in-scope module.
pub fn online(opts: &Options) -> Option<OnlineResult> {
    let spec = opts.specs().into_iter().next()?;
    let mut platform =
        TestPlatform::for_module_with_row_bytes(spec.clone(), opts.seed, opts.row_bytes);
    platform.set_temperature_c(50.0);
    let conditions = TestConditions::foundational();
    let rows: Vec<u32> =
        select_rows(&mut platform, 0, &conditions, 128, 6, 2).into_iter().map(|(r, _)| r).collect();
    if rows.is_empty() {
        return None;
    }

    // Offline reference: a long series on the most vulnerable row.
    let (victim, guess) =
        find_victim(&mut platform, 0, &conditions, FIND_VICTIM_CUTOFF, rows[0]..rows[0] + 1)
            .or_else(|| find_victim(&mut platform, 0, &conditions, FIND_VICTIM_CUTOFF, 2..8192))?;
    let offline = test_loop(
        &mut platform,
        0,
        victim,
        &conditions,
        opts.foundational_measurements.clamp(200, 2_000),
        &SweepSpec::from_guess(guess),
    );
    let offline_min = offline.min()?;

    let mut profiler = OnlineProfiler::new(0.15, conditions);
    let trace = convergence_trace(&mut platform, &mut profiler, &rows, 40);
    Some(OnlineResult {
        module: spec.name,
        guardband: profiler.guardband(),
        trace: trace.rounds,
        offline_min,
        profiling_time_ns: profiler.profiling_time_ns(),
    })
}

/// Renders the online-profiling trajectory.
pub fn render_online(result: &OnlineResult) -> String {
    let mut table = Table::new(["round", "observed min", "recommendation", "instability"]);
    for (round, min, rec, instability) in &result.trace {
        table.row([round.to_string(), min.to_string(), rec.to_string(), f(*instability, 3)]);
    }
    format!(
        "Online RDT profiling on {} (guardband {:.0}%):\n{}\n\
         offline long-series minimum of the most vulnerable row: {}\n\
         profiling time charged: {:.2} ms of DRAM traffic\n\
         (future-work prototype per §6.5: the recommendation converges\n\
         downward but VRD means it can never be final — the instability\n\
         column is the online signal for how much to trust it.)\n",
        result.module,
        result.guardband * 100.0,
        table.render(),
        result.offline_min,
        result.profiling_time_ns / 1e6,
    )
}

// --------------------------------------------------------------- takeaways

/// Renders the paper's four takeaway lessons with the simulated fleet's
/// supporting numbers.
pub fn render_takeaways(
    foundational: &FoundationalStudy,
    indepth: &crate::indepth::InDepthStudy,
) -> String {
    use vrd_core::predictability::analyze;

    // Takeaway 1: randomness/unpredictability.
    let mut unpredictable = 0usize;
    let mut analyzed = 0usize;
    for r in &foundational.per_module {
        if let Ok(report) = analyze(&r.series, 50) {
            analyzed += 1;
            if report.is_unpredictable() {
                unpredictable += 1;
            }
        }
    }

    // Takeaway 2: few measurements miss the minimum. Use the largest
    // informative N available (a subsample strictly smaller than the
    // series, else P is trivially 1).
    let mut p1 = Vec::new();
    let mut p_many = Vec::new();
    let mut n_many = 0usize;
    for (_, cs) in indepth.cells().filter(|(_, cs)| cs.series.len() >= 2) {
        p1.push(exact_stats(&cs.series, 1).p_find_min);
        let n = 500.min(cs.series.len() / 2).max(1);
        n_many = n_many.max(n);
        p_many.push(exact_stats(&cs.series, n).p_find_min);
    }
    let med = |v: &mut Vec<f64>| -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    };
    let p1_med = med(&mut p1);
    let p_many_med = med(&mut p_many);

    // Takeaway 3: pattern dependence of the group medians.
    let pattern_groups = crate::indepth::fig10_groups(indepth);
    let n1 = |g: &crate::indepth::NormMinGroup| {
        g.per_n.iter().find(|(n, _)| *n == 1).map(|(_, b)| b.median)
    };
    let pattern_medians: Vec<f64> = pattern_groups.iter().filter_map(n1).collect();
    let pattern_span = pattern_medians.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - pattern_medians.iter().copied().fold(f64::INFINITY, f64::min);

    // Takeaway 4: on-time and temperature dependence.
    let on_groups = crate::indepth::fig11_groups(indepth);
    let on_medians: Vec<f64> = on_groups.iter().filter_map(n1).collect();
    let on_span = on_medians.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - on_medians.iter().copied().fold(f64::INFINITY, f64::min);

    [
        format!(
            "Takeaway 1 — RDT changes randomly and unpredictably: {unpredictable}/{analyzed} \
             measured series are statistically indistinguishable from white noise."
        ),
        format!(
            "Takeaway 2 — few measurements are unlikely to identify the minimum RDT: median \
             P(find min) is {p1_med:.4} at N = 1 and still only {p_many_med:.3} at N = {n_many}."
        ),
        format!(
            "Takeaway 3 — how the lowest RDT varies depends on the data pattern: per-pattern \
             group medians of E[norm min | N = 1] span {pattern_span:.4}."
        ),
        format!(
            "Takeaway 4 — temperature and tAggOn affect VRD: per-on-time group medians span \
             {on_span:.4}; one operating point does not predict the others."
        ),
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::studies::Studies;

    #[test]
    fn takeaways_render_from_smoke_studies() {
        let mut opts = Options::smoke();
        opts.modules = vec!["M1".into()];
        opts.foundational_measurements = 300;
        opts.indepth_measurements = 60;
        let studies = Studies::new(&opts);
        let text = render_takeaways(studies.foundational(), studies.indepth());
        assert!(text.contains("Takeaway 1"));
        assert!(text.contains("Takeaway 4"));
    }

    #[test]
    fn ablation_covers_variants_and_separates_them() {
        let mut opts = Options::smoke();
        opts.foundational_measurements = 400;
        opts.modules = vec!["M1".into()];
        let rows = ablation(&opts);
        assert!(rows.len() >= 3, "most variants must find a victim, got {}", rows.len());
        let full = rows.iter().find(|r| r.variant == AblationVariant::Full).expect("full runs");
        assert!(full.unique_states > 1);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.p_find_min_n1), "{:?}", r.variant);
            assert!(r.expected_norm_min_n1 >= 1.0 - 1e-9, "{:?}", r.variant);
            assert!(r.max_over_min >= 1.0, "{:?}", r.variant);
        }
        // Removing the jitter collapses the continuum into the discrete
        // trap states.
        if let Some(no_jitter) = rows.iter().find(|r| r.variant == AblationVariant::NoJitter) {
            assert!(
                no_jitter.unique_states <= full.unique_states,
                "jitter removal cannot add states ({} vs {})",
                no_jitter.unique_states,
                full.unique_states
            );
        }
    }

    #[test]
    fn security_rows_show_margin_benefit() {
        let mut opts = Options::smoke();
        opts.modules = vec!["M1".into()];
        opts.foundational_measurements = 400;
        let rows = security(Studies::new(&opts).foundational(), &opts);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.estimated_min >= r.true_min);
            let escapes: Vec<f64> = r.points.iter().map(|(_, _, e)| *e).collect();
            for pair in escapes.windows(2) {
                assert!(
                    pair[1] <= pair[0] + 1e-9,
                    "{}: wider margin must not escape more: {escapes:?}",
                    r.mitigation.name()
                );
            }
        }
    }

    #[test]
    fn online_converges_downward() {
        let mut opts = Options::smoke();
        opts.modules = vec!["S2".into()];
        opts.foundational_measurements = 300;
        let result = online(&opts).expect("S2 has vulnerable rows");
        assert!(!result.trace.is_empty());
        for pair in result.trace.windows(2) {
            assert!(pair[1].1 <= pair[0].1);
        }
        assert!(result.profiling_time_ns > 0.0);
        let render = render_online(&result);
        assert!(render.contains("Online RDT profiling"));
    }

    #[test]
    fn renders_nonempty() {
        let mut opts = Options::smoke();
        opts.foundational_measurements = 300;
        opts.modules = vec!["M1".into()];
        let rows = ablation(&opts);
        assert!(render_ablation(&rows).contains("variant"));
    }
}
