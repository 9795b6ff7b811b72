//! Security analysis: do mitigations configured with a *measured* RDT
//! actually prevent bitflips when the row's true threshold varies?
//!
//! This operationalizes the paper's central claim (§6.1): "the RDT value
//! used to configure a mitigation technique cannot be larger than the
//! one experienced (at any time) by any victim DRAM row … otherwise the
//! mitigation's security guarantees are compromised."
//!
//! The model: an attacker round-robin hammers one or more victim rows
//! continuously (one victim per bank region in the spatial sweep, a
//! single one in the guardband sweep). Each victim's *instantaneous* RDT
//! for each inter-refresh epoch is drawn from an empirical VRD
//! distribution (e.g. a measured `vrd-core` series), scaled by the
//! victim's spatial strength. The mitigation — built by
//! [`MitigationKind::build`] with some threshold profile — occasionally
//! refreshes a victim, resetting its accumulated hammer count. An
//! **escape** occurs whenever the accumulated count reaches the epoch's
//! true RDT before a preventive refresh lands.
//!
//! An attack advances in chunks: one run-length
//! [`Mitigation::on_activate`] call takes the round-robin cycle of
//! victim rows for every activation up to the first that can change
//! anything outside the mechanism's counters — the mechanism's next
//! action, the first victim to reach its epoch RDT, the next tREFI or
//! tREFW, or the attack's end. That produces exactly what stepping
//! every activation would.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use crate::mitigation::{Mitigation, MitigationAction, MitigationKind, Split};
use crate::profile::MitigationProfile;

/// One victim of an attack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpatialVictim {
    /// The victim's row number (its aggressor hammers the same row
    /// address in this single-aggressor model).
    pub row: u32,
    /// True-RDT multiplier relative to the weakest victim (≥ 1 for
    /// spatially stronger rows; the weakest victim has factor 1).
    pub factor: f64,
}

/// Configuration of one attack simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackConfig {
    /// Total attacker activations (spread round-robin over the victims).
    pub activations: u64,
    /// Empirical RDT distribution of the *weakest* victim; each victim's
    /// epoch RDT is a draw scaled by its spatial factor.
    pub rdt_distribution: Vec<u32>,
    /// The victims under attack.
    pub victims: Vec<SpatialVictim>,
    /// RNG seed.
    pub seed: u64,
}

impl AttackConfig {
    /// A default attack of 2M activations.
    pub fn new(rdt_distribution: Vec<u32>, victims: Vec<SpatialVictim>, seed: u64) -> Self {
        assert!(!rdt_distribution.is_empty(), "need a non-empty RDT distribution");
        assert!(!victims.is_empty(), "need at least one victim");
        assert!(victims.iter().all(|v| v.factor >= 1.0), "factors are relative to the weakest");
        AttackConfig { activations: 2_000_000, rdt_distribution, victims, seed }
    }
}

/// Result of one attack simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackResult {
    /// Activations issued.
    pub activations: u64,
    /// Preventive victim refreshes the mitigation performed.
    pub preventive_refreshes: u64,
    /// Total mitigation actions issued (refreshes + blocking actions) —
    /// the overhead axis of the attack-vs-defense tradeoff.
    pub actions: u64,
    /// Attacker time lost to blocking actions (ns).
    pub blocked_ns: u64,
    /// Escapes across all victims.
    pub escapes: u64,
    /// Escapes per victim, in `victims` order.
    pub per_victim_escapes: Vec<u64>,
}

impl AttackResult {
    /// Escapes per million attacker activations.
    pub fn escapes_per_million(&self) -> f64 {
        self.escapes as f64 / (self.activations as f64 / 1e6)
    }

    /// Whether the mitigation held everywhere (no escape on any victim).
    pub fn secure(&self) -> bool {
        self.escapes == 0
    }
}

/// Simulates a continuous round-robin hammer attack against an already
/// built mitigation.
///
/// The attacker issues one ACT per tRC (46 ns) to the next victim's row
/// and is slowed down by any blocking actions (throttling, back-offs).
/// A victim's true RDT is redrawn after every restoration (preventive
/// refresh, escape, or the periodic refresh that restores every victim
/// once per tREFW), modelling VRD's unpredictable epoch-to-epoch
/// threshold changes. The mitigation's `on_refresh` hook runs at the
/// first tREFI after each activation, which models MINT's REF-time
/// mitigation at its real cadence: the tREFIs of a throttled stretch
/// with no activation in between would append nothing.
///
/// Each [`Mitigation::on_activate`] call takes a whole chunk of the
/// round-robin cycle: the chunk ends at the mechanism's next action, at
/// the activation that brings the first victim to its epoch RDT, at the
/// first activation at or past the next tREFI or tREFW, or at the end
/// of the attack, whichever comes first, so every event lands on the
/// activation it would land on one step at a time.
///
/// # Panics
///
/// Panics when two victims share a row: a preventive refresh of that
/// row would restore only one of them.
pub fn simulate_attack(mitigation: &mut dyn Mitigation, config: &AttackConfig) -> AttackResult {
    const T_RC_NS: u64 = 46;
    const T_REFI_NS: u64 = 3_900;
    const T_REFW_NS: u64 = 32_000_000;

    let mut rng = ChaCha12Rng::seed_from_u64(config.seed);
    let dist = &config.rdt_distribution;
    let draw_rdt = |rng: &mut ChaCha12Rng, factor: f64| -> u64 {
        let base = f64::from(dist[rng.gen_range(0..dist.len())]);
        (base * factor).round().max(1.0) as u64
    };
    let victims = &config.victims;
    let victim_of = |row: u32| victims.iter().position(|v| v.row == row);
    for (i, victim) in victims.iter().enumerate() {
        assert_eq!(victim_of(victim.row), Some(i), "victim rows must be distinct");
    }

    let n = victims.len();
    // The cycle starting at victim `v` is `doubled[v..v + n]`.
    let doubled: Vec<u32> = victims.iter().chain(victims).map(|v| v.row).collect();
    let mut accumulated = vec![0u64; n];
    let mut true_rdt: Vec<u64> = victims.iter().map(|v| draw_rdt(&mut rng, v.factor)).collect();
    let mut result = AttackResult {
        activations: config.activations,
        preventive_refreshes: 0,
        actions: 0,
        blocked_ns: 0,
        escapes: 0,
        per_victim_escapes: vec![0; n],
    };
    let mut time_ns = 0u64;
    let mut next_refi = T_REFI_NS;
    let mut next_periodic = T_REFW_NS;

    // Victims that start a fresh epoch after this activation, in victim
    // order (the order their RDTs are redrawn in). `any_restore` keeps
    // the common activation, which restores nobody, O(1).
    let mut restore = vec![false; n];
    let mut any_restore = false;
    let mut actions = Vec::new();
    let bank = 0usize;
    let mut v = 0usize;
    let mut done = 0u64;
    while done < config.activations {
        // Every bound is at least 1: each victim is below its epoch RDT
        // and `time_ns` below both refresh deadlines between chunks. The
        // victim at place `p` of the cycle reaches its epoch RDT after
        // `p + n·(left − 1) + 1` activations.
        let cycle = || (v..n).chain(0..v).enumerate();
        let crossing = cycle()
            .map(|(p, i)| p as u64 + n as u64 * (true_rdt[i] - accumulated[i] - 1) + 1)
            .min()
            .expect("at least one victim");
        let max = crossing
            .min((next_refi - time_ns).div_ceil(T_RC_NS))
            .min((next_periodic - time_ns).div_ceil(T_RC_NS))
            .min(config.activations - done);
        let performed = mitigation.on_activate(bank, &doubled[v..v + n], max, &mut actions);
        done += performed;
        time_ns += performed * T_RC_NS;
        let split = Split::new(performed, n);
        for (p, i) in cycle() {
            accumulated[i] += split.share(p);
        }
        // Only the last victim activated can have reached its epoch RDT.
        let mut last = v + split.last();
        if last >= n {
            last -= n;
        }
        if accumulated[last] >= true_rdt[last] {
            result.escapes += 1;
            result.per_victim_escapes[last] += 1;
            restore[last] = true;
            any_restore = true;
        }
        for action in actions.drain(..) {
            result.actions += 1;
            match action {
                MitigationAction::RefreshNeighbors { row, .. } => {
                    result.preventive_refreshes += 1;
                    if let Some(i) = victim_of(row) {
                        restore[i] = true;
                        any_restore = true;
                    }
                }
                // Blocking actions slow the attacker down but do not
                // restore a victim directly.
                MitigationAction::BlockBank { duration, .. }
                | MitigationAction::BlockChannel { duration } => {
                    time_ns += duration;
                    result.blocked_ns += duration;
                }
            }
        }
        // One hook call covers every tREFI elapsed since the last
        // activation: a refresh with no activation since the previous
        // one appends nothing (see `Mitigation::on_refresh`).
        if time_ns >= next_refi {
            next_refi += (time_ns - next_refi) / T_REFI_NS * T_REFI_NS + T_REFI_NS;
            mitigation.on_refresh(&mut actions);
            for action in actions.drain(..) {
                result.actions += 1;
                if let MitigationAction::RefreshNeighbors { row, .. } = action {
                    result.preventive_refreshes += 1;
                    if let Some(i) = victim_of(row) {
                        restore[i] = true;
                        any_restore = true;
                    }
                }
            }
        }
        while time_ns >= next_periodic {
            next_periodic += T_REFW_NS;
            restore.fill(true);
            any_restore = true;
        }
        if any_restore {
            any_restore = false;
            for (i, flagged) in restore.iter_mut().enumerate() {
                if std::mem::take(flagged) {
                    accumulated[i] = 0;
                    true_rdt[i] = draw_rdt(&mut rng, victims[i].factor);
                }
            }
        }
        v = if last + 1 == n { 0 } else { last + 1 };
    }
    result
}

/// Sweeps configured thresholds derived from N-measurement estimates of
/// the distribution's minimum with different guardbands, reporting the
/// escape rate of each — the "inaccurate RDT ⇒ insecure" curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SecuritySweep {
    /// `(margin, configured threshold, escapes per million)` rows.
    pub points: Vec<(f64, u32, f64)>,
    /// The distribution's true minimum.
    pub true_min: u32,
    /// The N-measurement estimate the margins were applied to.
    pub estimated_min: u32,
}

/// Runs the sweep for one mitigation: estimate the minimum from
/// `estimate_n` random draws (as a vendor with limited test time would),
/// then configure a flat threshold with margins `0%, 10%, 25%, 50%`
/// below that estimate and attack each configuration with `config`.
pub fn security_sweep(
    kind: MitigationKind,
    config: &AttackConfig,
    estimate_n: usize,
) -> SecuritySweep {
    let mut rng = ChaCha12Rng::seed_from_u64(config.seed ^ 0xEC0);
    let dist = &config.rdt_distribution;
    let estimated_min = (0..estimate_n.max(1))
        .map(|_| dist[rng.gen_range(0..dist.len())])
        .min()
        .expect("estimate_n >= 1");
    let true_min = *dist.iter().min().expect("non-empty");

    let mut points = Vec::new();
    for margin in [0.0f64, 0.10, 0.25, 0.50] {
        let configured = ((f64::from(estimated_min)) * (1.0 - margin)).floor().max(1.0) as u32;
        let mut mitigation = kind.build(&MitigationProfile::flat(configured), 1, config.seed);
        let result = simulate_attack(mitigation.as_mut(), config);
        points.push((margin, configured, result.escapes_per_million()));
    }
    SecuritySweep { points, true_min, estimated_min }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A VRD-like distribution: bulk near 5000, rare dips to 3500.
    fn vrd_distribution() -> Vec<u32> {
        let mut d: Vec<u32> = (0..990).map(|i| 4_800 + (i % 17) * 25).collect();
        d.extend([3_500, 3_520, 3_540, 3_560, 3_580, 3_600, 3_650, 3_700, 3_750, 3_800]);
        d
    }

    /// The one-victim attack of the guardband sweep.
    fn single_victim(seed: u64) -> AttackConfig {
        AttackConfig::new(vrd_distribution(), vec![SpatialVictim { row: 7, factor: 1.0 }], seed)
    }

    /// A one-victim attack against `kind` configured flat at `threshold`.
    fn attack(kind: MitigationKind, threshold: u32, seed: u64) -> AttackResult {
        let mut mitigation = kind.build(&MitigationProfile::flat(threshold), 1, seed);
        simulate_attack(mitigation.as_mut(), &single_victim(seed))
    }

    #[test]
    fn correctly_configured_graphene_is_secure() {
        // Configured at the true minimum: Graphene refreshes at
        // threshold/4, far before any epoch's RDT.
        let result = attack(MitigationKind::Graphene, 3_500, 1);
        assert!(result.secure(), "true-min config must hold, {} escapes", result.escapes);
        assert!(result.preventive_refreshes > 0);
    }

    #[test]
    fn overconfigured_graphene_leaks() {
        // Configured with the *bulk* RDT (as a few measurements would
        // suggest): rare low-RDT epochs escape.
        let result = attack(MitigationKind::Graphene, 3_500 * 5, 2);
        assert!(
            !result.secure(),
            "a 5x-too-high configuration must leak (trigger = threshold/4 > low epochs)"
        );
    }

    #[test]
    fn guardband_reduces_escapes_monotonically() {
        // Estimate from only 3 measurements: almost surely misses the
        // 1% low tail.
        let sweep = security_sweep(MitigationKind::Graphene, &single_victim(3), 3);
        assert!(sweep.estimated_min >= sweep.true_min);
        let rates: Vec<f64> = sweep.points.iter().map(|(_, _, r)| *r).collect();
        for pair in rates.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9, "wider margins must not leak more: {rates:?}");
        }
    }

    #[test]
    fn prac_secure_when_configured_at_true_min() {
        let result = attack(MitigationKind::Prac, 3_500, 4);
        assert!(result.secure(), "{} escapes", result.escapes);
    }

    #[test]
    fn para_escape_rate_shrinks_with_lower_threshold() {
        let loose = attack(MitigationKind::Para, 12_000, 5);
        let tight = attack(MitigationKind::Para, 3_500, 5);
        assert!(tight.escapes <= loose.escapes);
    }

    #[test]
    fn blockhammer_throttling_is_secure_at_true_min() {
        // Throttling never refreshes the victim, but it stretches the
        // attack across refresh windows so the threshold is unreachable.
        let result = attack(MitigationKind::BlockHammer, 3_500, 7);
        assert!(result.secure(), "{} escapes", result.escapes);
    }

    #[test]
    fn baseline_always_leaks() {
        let result = attack(MitigationKind::None, 3_500, 6);
        assert!(result.escapes > 100, "no mitigation ⇒ steady escapes, got {}", result.escapes);
    }

    #[test]
    #[should_panic(expected = "victim rows must be distinct")]
    fn attack_rejects_victims_sharing_a_row() {
        let victims =
            vec![SpatialVictim { row: 7, factor: 1.0 }, SpatialVictim { row: 7, factor: 2.0 }];
        let mut graphene = MitigationKind::Graphene.build(&MitigationProfile::flat(3_500), 1, 1);
        simulate_attack(graphene.as_mut(), &AttackConfig::new(vrd_distribution(), victims, 1));
    }

    #[test]
    fn escape_rate_units() {
        let r = AttackResult {
            activations: 2_000_000,
            preventive_refreshes: 0,
            actions: 0,
            blocked_ns: 0,
            escapes: 4,
            per_victim_escapes: vec![4],
        };
        assert!((r.escapes_per_million() - 2.0).abs() < 1e-12);
    }

    /// Four regions of 100 rows whose spatial strength doubles per
    /// region; one victim (the region's weakest row) per region.
    fn spatial_scenario(seed: u64) -> (AttackConfig, MitigationProfile) {
        let victims = vec![
            SpatialVictim { row: 0, factor: 1.0 },
            SpatialVictim { row: 100, factor: 2.0 },
            SpatialVictim { row: 200, factor: 4.0 },
            SpatialVictim { row: 300, factor: 8.0 },
        ];
        let mut attack = AttackConfig::new(vrd_distribution(), victims, seed);
        attack.activations = 400_000;
        let profile = MitigationProfile {
            region_rows: 100,
            regions: vec![3_500, 7_000, 14_000, 28_000],
            fallback_threshold: 3_500,
            ..MitigationProfile::flat(3_500)
        };
        (attack, profile)
    }

    #[test]
    fn spatial_profile_matches_uniform_coverage_at_lower_overhead() {
        let (attack, profile) = spatial_scenario(11);
        for kind in [MitigationKind::Graphene, MitigationKind::Prac] {
            let mut uniform = kind.build(&MitigationProfile::flat(3_500), 1, 11);
            let mut profiled = kind.build(&profile, 1, 11);
            let u = simulate_attack(uniform.as_mut(), &attack);
            let p = simulate_attack(profiled.as_mut(), &attack);
            assert!(u.secure(), "{}: uniform worst-case must hold", kind.name());
            assert!(p.secure(), "{}: profile-driven must hold", kind.name());
            assert!(
                p.actions < u.actions,
                "{}: profile must act less ({} vs {})",
                kind.name(),
                p.actions,
                u.actions
            );
        }
    }

    #[test]
    fn spatially_unaware_estimate_leaks_on_the_weak_region() {
        // A characterization that sampled only the strongest region
        // would configure threshold 28000 everywhere.
        let (attack, _) = spatial_scenario(13);
        let mut naive = MitigationKind::Graphene.build(&MitigationProfile::flat(28_000), 1, 13);
        let result = simulate_attack(naive.as_mut(), &attack);
        assert!(!result.secure(), "an 8x-too-high uniform threshold must leak");
        assert!(
            result.per_victim_escapes[0] > 0,
            "escapes concentrate on the weakest region: {:?}",
            result.per_victim_escapes
        );
    }

    #[test]
    fn spatial_baseline_leaks_everywhere() {
        let (attack, _) = spatial_scenario(17);
        let mut baseline = MitigationKind::None.build(&MitigationProfile::flat(3_500), 1, 0);
        let result = simulate_attack(baseline.as_mut(), &attack);
        assert!(result.escapes > 0);
        assert!(
            result.per_victim_escapes.iter().all(|&e| e > 0),
            "every victim must flip without mitigation: {:?}",
            result.per_victim_escapes
        );
    }
}
