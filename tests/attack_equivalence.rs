//! The run-length activation hook against its one-activation-per-call
//! reading.
//!
//! [`Mitigation::on_activate`] may take up to `max` activations cycling
//! through several rows in a call, and `simulate_attack` hands an
//! attack's quiet stretches of its round-robin cycle to it whole. Two
//! layers of evidence that this changes nothing:
//!
//! 1. **Mechanism level.** For the baseline and every `EXTENDED` kind,
//!    under flat and multi-region profiles, a random stream of runs over
//!    cycles of 1–8 distinct rows and of refreshes, driven through
//!    chunked calls of random `max` that each pass the cycle rotated to
//!    where its run stands, yields the same actions at the same
//!    activation index as the same stream unrolled into one-row
//!    `max = 1` calls. A shared one-row `max = 1` tail afterwards then
//!    also matches, so the mechanisms' internal state matches too. Both
//!    sides run the same closed forms, so Graphene's and PRAC's are also
//!    checked against a model that needs none: a row acts on every
//!    `trigger`-th activation of its own.
//! 2. **Attack level.** `simulate_attack` on a mechanism returns the same
//!    [`AttackResult`] as on [`PerActivation`], an adapter that forwards
//!    every call as one row with `max = 1` (the per-activation loop, kept
//!    here as the oracle). The configurations include escapes
//!    (over-configured thresholds and no mitigation), PRAC's blocked
//!    time, attacks that cross tREFW, the defenses sweep's 8 victims and
//!    victims at different epoch RDTs.
//! 3. **Refresh catch-up.** `simulate_attack` covers every tREFI that
//!    elapsed since the last activation with one `on_refresh` call. It
//!    returns the same result as [`reference_attack`], which steps one
//!    activation and one tREFI at a time, on BlockHammer throttles that
//!    span hundreds of tREFIs each.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use vrd::dram::spatial::SpatialProfile;
use vrd::memsim::mitigation::{Graphene, Mitigation, MitigationAction, MitigationKind, Prac};
use vrd::memsim::security::{simulate_attack, AttackConfig, AttackResult, SpatialVictim};
use vrd::memsim::workload::region_victim_rows;
use vrd::memsim::MitigationProfile;

/// The baseline and every extended mechanism.
fn kinds() -> impl Iterator<Item = MitigationKind> {
    [MitigationKind::None].into_iter().chain(MitigationKind::EXTENDED)
}

// ----- mechanism level ---------------------------------------------------

/// One element of a driven stream.
#[derive(Debug, Clone)]
enum Step {
    /// `len` activations in `bank` cycling through the distinct `rows`.
    Run { bank: usize, rows: Vec<u32>, len: u64 },
    /// One periodic refresh.
    Refresh,
}

/// An action and where it landed: the 0-based index of the activation
/// it belongs to, or, for a refresh's action, the number of activations
/// before that refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Activation(u64, MitigationAction),
    Refresh(u64, MitigationAction),
}

/// A random stream: long runs over cycles of 1–8 hot rows spread over
/// several regions and both banks, some with a fresh noise row in the
/// cycle, one-off noise rows (enough distinct ones to saturate and evict
/// Graphene's smaller tables), and refreshes.
fn random_stream(rng: &mut ChaCha12Rng) -> Vec<Step> {
    let mut noise = 10_000u32;
    (0..rng.gen_range(40..120))
        .map(|_| match rng.gen_range(0..10) {
            0 => Step::Refresh,
            1..=3 => {
                noise += 1;
                Step::Run { bank: rng.gen_range(0..2), rows: vec![noise], len: 1 }
            }
            _ => {
                let n = rng.gen_range(1..=8);
                let mut rows = Vec::new();
                while rows.len() < n {
                    let row = rng.gen_range(0..12);
                    if !rows.contains(&row) {
                        rows.push(row);
                    }
                }
                if rng.gen_range(0..5) == 0 {
                    noise += 1;
                    rows.insert(rng.gen_range(0..=n), noise);
                }
                let len = rng.gen_range(1..1_500 * rows.len() as u64);
                Step::Run { bank: rng.gen_range(0..2), rows, len }
            }
        })
        .collect()
}

/// A flat profile, or four regions of 3 rows at independent thresholds
/// (rows 12 and up, the noise rows, take the fallback).
fn random_profile(rng: &mut ChaCha12Rng, flat: bool) -> MitigationProfile {
    let mut threshold = || rng.gen_range(8u32..6_000);
    if flat {
        return MitigationProfile::flat(threshold());
    }
    MitigationProfile {
        region_rows: 3,
        regions: (0..4).map(|_| threshold()).collect(),
        fallback_threshold: threshold(),
        ..MitigationProfile::flat(1)
    }
}

/// Drives `stream` with a random `max` per call (often the whole rest
/// of the run), passing each run's cycle rotated to where the run
/// stands, and records every action by activation index.
fn drive_chunked(m: &mut dyn Mitigation, stream: &[Step], rng: &mut ChaCha12Rng) -> Vec<Event> {
    let (mut events, mut out, mut done) = (Vec::new(), Vec::new(), 0u64);
    for step in stream {
        match step {
            Step::Run { bank, rows, len } => {
                let n = rows.len();
                let doubled: Vec<u32> = rows.iter().chain(rows).copied().collect();
                let mut ran = 0;
                while ran < *len {
                    let left = len - ran;
                    let max = if rng.gen_bool(0.5) { left } else { rng.gen_range(1..=left) };
                    let start = (ran % n as u64) as usize;
                    let performed = m.on_activate(*bank, &doubled[start..start + n], max, &mut out);
                    assert!((1..=max).contains(&performed), "{m:?} performed {performed} of {max}");
                    done += performed;
                    ran += performed;
                    events.extend(out.drain(..).map(|a| Event::Activation(done - 1, a)));
                }
            }
            Step::Refresh => {
                m.on_refresh(&mut out);
                events.extend(out.drain(..).map(|a| Event::Refresh(done, a)));
            }
        }
    }
    events
}

/// The same stream, one activation of one row per call.
fn drive_unrolled(m: &mut dyn Mitigation, stream: &[Step]) -> Vec<Event> {
    let (mut events, mut out, mut done) = (Vec::new(), Vec::new(), 0u64);
    for step in stream {
        match step {
            Step::Run { bank, rows, len } => {
                for k in 0..*len {
                    let row = rows[(k % rows.len() as u64) as usize];
                    assert_eq!(m.on_activate(*bank, &[row], 1, &mut out), 1, "{m:?}");
                    done += 1;
                    events.extend(out.drain(..).map(|a| Event::Activation(done - 1, a)));
                }
            }
            Step::Refresh => {
                m.on_refresh(&mut out);
                events.extend(out.drain(..).map(|a| Event::Refresh(done, a)));
            }
        }
    }
    events
}

#[test]
fn chunked_calls_match_the_unrolled_stream_action_for_action() {
    let mut acted = [0usize; 6];
    for seed in 0..8u64 {
        for flat in [true, false] {
            for (k, kind) in kinds().enumerate() {
                let mut rng = ChaCha12Rng::seed_from_u64(seed);
                let profile = random_profile(&mut rng, flat);
                let stream = random_stream(&mut rng);
                let mut chunked = kind.build(&profile, 2, seed);
                let mut unrolled = kind.build(&profile, 2, seed);
                let got = drive_chunked(chunked.as_mut(), &stream, &mut rng);
                let want = drive_unrolled(unrolled.as_mut(), &stream);
                assert_eq!(got, want, "{} seed {seed} flat {flat}", kind.name());
                acted[k] += want.len();

                // A shared per-activation tail: any state the chunked calls
                // left behind differently would show here.
                let (mut a, mut b) = (Vec::new(), Vec::new());
                for i in 0..3_000u32 {
                    let (bank, row) = (i as usize % 2, [0, 4, 7, 11][i as usize % 4]);
                    assert_eq!(chunked.on_activate(bank, &[row], 1, &mut a), 1);
                    assert_eq!(unrolled.on_activate(bank, &[row], 1, &mut b), 1);
                    if i % 97 == 96 {
                        chunked.on_refresh(&mut a);
                        unrolled.on_refresh(&mut b);
                    }
                    assert_eq!(a, b, "{} seed {seed} flat {flat}: tail call {i}", kind.name());
                    a.clear();
                    b.clear();
                }
            }
        }
    }
    for (kind, acted) in kinds().zip(acted) {
        assert_eq!(acted > 0, kind != MitigationKind::None, "{} acted {acted} times", kind.name());
    }
}

/// The activations (0-based stream indices) on which a row that acts on
/// every `trigger(row)`-th activation of its own acts.
fn trigger_model(stream: &[Step], trigger: impl Fn(u32) -> u32) -> Vec<u64> {
    let (mut acts, mut per_row, mut done) = (Vec::new(), [[0u64; 12]; 2], 0u64);
    for step in stream {
        let Step::Run { bank, rows, len } = step else { continue };
        for k in 0..*len {
            let row = rows[(k % rows.len() as u64) as usize];
            per_row[*bank][row as usize] += 1;
            if per_row[*bank][row as usize] % u64::from(trigger(row)) == 0 {
                acts.push(done);
            }
            done += 1;
        }
    }
    acts
}

/// The activation indices of the neighbor refreshes in `events`.
fn refresh_indices(events: &[Event]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Activation(i, MitigationAction::RefreshNeighbors { .. }) => Some(*i),
            _ => None,
        })
        .collect()
}

#[test]
fn graphene_and_prac_act_on_every_trigger_th_activation_of_a_row() {
    for seed in 0..8u64 {
        for flat in [true, false] {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let profile = random_profile(&mut rng, flat);
            // Hot rows only: at most 12 rows per bank stay within
            // Graphene's smallest table, so no row is ever evicted.
            let stream: Vec<Step> = random_stream(&mut rng)
                .into_iter()
                .filter(|s| matches!(s, Step::Run { rows, .. } if rows.iter().all(|r| *r < 12)))
                .collect();

            let mut graphene = Graphene::new(profile.clone(), 2);
            let want = trigger_model(&stream, |row| graphene.trigger_for(row));
            assert!(!want.is_empty(), "seed {seed}: the stream must reach a trigger");
            let got = refresh_indices(&drive_chunked(&mut graphene, &stream, &mut rng));
            assert_eq!(got, want, "Graphene seed {seed} flat {flat}");

            let mut prac = Prac::new(profile.clone());
            let want = trigger_model(&stream, |row| prac.alert_for(row));
            let got = refresh_indices(&drive_chunked(&mut prac, &stream, &mut rng));
            assert_eq!(got, want, "PRAC seed {seed} flat {flat}");
        }
    }
}

// ----- attack level ------------------------------------------------------

/// Forwards every call as its first row with `max = 1`:
/// `simulate_attack` then steps one activation at a time, as the loop
/// did before the run-length hook.
#[derive(Debug)]
struct PerActivation(Box<dyn Mitigation>);

impl Mitigation for PerActivation {
    fn on_activate(
        &mut self,
        bank: usize,
        rows: &[u32],
        _max: u64,
        out: &mut Vec<MitigationAction>,
    ) -> u64 {
        self.0.on_activate(bank, &rows[..1], 1, out)
    }

    fn on_refresh(&mut self, out: &mut Vec<MitigationAction>) {
        self.0.on_refresh(out);
    }
}

/// Forwards every call unchanged, counts the activations performed and
/// notes how many had been performed at each periodic refresh.
#[derive(Debug)]
struct Counting {
    inner: Box<dyn Mitigation>,
    activations: u64,
    refreshed_at: Vec<u64>,
}

impl Counting {
    fn new(inner: Box<dyn Mitigation>) -> Self {
        Counting { inner, activations: 0, refreshed_at: Vec::new() }
    }
}

impl Mitigation for Counting {
    fn on_activate(
        &mut self,
        bank: usize,
        rows: &[u32],
        max: u64,
        out: &mut Vec<MitigationAction>,
    ) -> u64 {
        let performed = self.inner.on_activate(bank, rows, max, out);
        self.activations += performed;
        performed
    }

    fn on_refresh(&mut self, out: &mut Vec<MitigationAction>) {
        self.refreshed_at.push(self.activations);
        self.inner.on_refresh(out);
    }
}

/// A VRD-like distribution: bulk near 5000, rare dips to 3500.
fn vrd_distribution() -> Vec<u32> {
    let mut d: Vec<u32> = (0..990).map(|i| 4_800 + (i % 17) * 25).collect();
    d.extend([3_500, 3_520, 3_540, 3_560, 3_580, 3_600, 3_650, 3_700, 3_750, 3_800]);
    d
}

/// Four victims of doubling spatial strength, one per 100-row region.
fn spatial_victims() -> Vec<SpatialVictim> {
    [(0, 1.0), (100, 2.0), (200, 4.0), (300, 8.0)]
        .map(|(row, factor)| SpatialVictim { row, factor })
        .to_vec()
}

/// The region profile matching `spatial_victims`, scaled so `base` is
/// the weakest region's threshold.
fn spatial_profile(base: u32) -> MitigationProfile {
    MitigationProfile {
        region_rows: 100,
        regions: vec![base, base * 2, base * 4, base * 8],
        fallback_threshold: base,
        ..MitigationProfile::flat(base)
    }
}

/// Runs `config` against `kind` built from `profile`, chunked and per
/// activation, and returns the (equal) result. The periodic refreshes
/// must also land after the same activations on both sides.
fn both_ways(
    kind: MitigationKind,
    profile: &MitigationProfile,
    config: &AttackConfig,
) -> AttackResult {
    let mut chunked = Counting::new(kind.build(profile, 1, config.seed));
    let mut oracle = Counting::new(Box::new(PerActivation(kind.build(profile, 1, config.seed))));
    let got = simulate_attack(&mut chunked, config);
    let want = simulate_attack(&mut oracle, config);
    let what = format!(
        "{} with {} victims, {} activations, seed {}",
        kind.name(),
        config.victims.len(),
        config.activations,
        config.seed
    );
    assert_eq!(chunked.activations, config.activations, "{what}: overran or fell short");
    assert_eq!(got, want, "{what}");
    assert_eq!(chunked.refreshed_at, oracle.refreshed_at, "{what}: refresh cadence");
    want
}

#[test]
fn single_victim_attacks_match_the_per_activation_loop() {
    let mut escapes = 0;
    for seed in [1u64, 31337] {
        let mut config = AttackConfig::new(
            vrd_distribution(),
            vec![SpatialVictim { row: 7, factor: 1.0 }],
            seed,
        );
        config.activations = 100_000;
        // At the true minimum, at the bulk, and 5x over it: the last two
        // let low-RDT epochs escape.
        for threshold in [3_500, 5_000, 17_500] {
            for kind in kinds() {
                let result = both_ways(kind, &MitigationProfile::flat(threshold), &config);
                escapes += result.escapes;
                if kind == MitigationKind::Prac {
                    assert!(result.blocked_ns > 0, "PRAC's back-off must block");
                }
            }
        }
    }
    assert!(escapes > 0, "the suite must exercise escapes");
}

#[test]
fn attacks_across_the_refresh_window_match_the_per_activation_loop() {
    // 800k activations at 46 ns span more than one 32 ms tREFW.
    let mut config =
        AttackConfig::new(vrd_distribution(), vec![SpatialVictim { row: 3, factor: 1.0 }], 31337);
    config.activations = 800_000;
    for (kind, threshold) in [
        (MitigationKind::None, 3_500),
        (MitigationKind::Graphene, 3_500),
        (MitigationKind::Graphene, 17_500),
        (MitigationKind::Prac, 5_000),
        (MitigationKind::Para, 12_000),
        (MitigationKind::BlockHammer, 3_500),
    ] {
        let result = both_ways(kind, &MitigationProfile::flat(threshold), &config);
        if kind == MitigationKind::None {
            assert!(result.escapes > 0);
        }
    }
}

#[test]
fn multi_victim_attacks_match_the_per_activation_loop() {
    let mut escapes = 0;
    for seed in [11u64, 31337] {
        let mut config = AttackConfig::new(vrd_distribution(), spatial_victims(), seed);
        config.activations = 120_000;
        for kind in kinds() {
            for profile in [spatial_profile(3_500), MitigationProfile::flat(28_000)] {
                escapes += both_ways(kind, &profile, &config).escapes;
            }
        }
    }
    assert!(escapes > 0, "the suite must exercise multi-victim escapes");
}

#[test]
fn escape_bound_attacks_across_the_refresh_window_match_the_per_activation_loop() {
    // Epoch RDTs below the ~84 activations per tREFI make the victim's
    // RDT the binding chunk end, and the tREFW restore lands mid-epoch.
    let mut escapes = 0;
    for rdts in [vec![2], vec![3], vec![5, 7], vec![40, 83, 84, 85]] {
        let config = AttackConfig {
            activations: 700_000,
            ..AttackConfig::new(rdts, vec![SpatialVictim { row: 1, factor: 1.0 }], 31337)
        };
        escapes += both_ways(MitigationKind::None, &MitigationProfile::flat(64), &config).escapes;
        both_ways(MitigationKind::Prac, &MitigationProfile::flat(64), &config);
    }
    assert!(escapes > 0);
}

#[test]
fn short_attacks_stop_exactly_at_the_activation_budget() {
    // Budgets that end on either side of the first tREFI (the 85th
    // activation) and of Graphene's and PRAC's first triggers (the 875th
    // and the 2625th).
    for activations in [1, 2, 83, 84, 85, 875, 876, 877, 2_625] {
        for kind in kinds() {
            let config = AttackConfig {
                activations,
                ..AttackConfig::new(vec![3_500], vec![SpatialVictim { row: 1, factor: 1.0 }], 5)
            };
            both_ways(kind, &MitigationProfile::flat(3_500), &config);
        }
    }
}

/// The spatial-aware defenses sweep's attack at one RDT target: its 8
/// victims (the weakest row of each of 8 regions of 512 rows under the
/// wide spatial spread), the distribution scaled so its minimum is
/// `target`, and its naive, uniform and profiled configurations.
fn sweep_scenario(target: u32, seed: u64) -> (AttackConfig, [MitigationProfile; 3]) {
    const DEVICE_SEED: u64 = 2025;
    const REGION_ROWS: u32 = 512;
    let spatial = SpatialProfile::wide();
    let minima = region_victim_rows(&spatial, DEVICE_SEED, 8 * REGION_ROWS, REGION_ROWS);
    let weakest = minima.iter().map(|&(_, f)| f).fold(f64::INFINITY, f64::min);
    let victims =
        minima.iter().map(|&(row, f)| SpatialVictim { row, factor: f / weakest }).collect();
    let dist = vrd_distribution();
    let min = f64::from(*dist.iter().min().unwrap());
    let scaled = dist
        .iter()
        .map(|&v| (f64::from(v) * f64::from(target) / min).round().max(1.0) as u32)
        .collect();
    let profiled = MitigationProfile::from_characterization(
        "M1",
        target,
        &spatial,
        DEVICE_SEED,
        8 * REGION_ROWS,
        REGION_ROWS,
        1.0,
    );
    let uniform = MitigationProfile::flat(profiled.min_threshold());
    let naive = MitigationProfile::flat(profiled.max_region_threshold());
    let config = AttackConfig { activations: 40_000, ..AttackConfig::new(scaled, victims, seed) };
    (config, [naive, uniform, profiled])
}

#[test]
fn sweep_attacks_match_the_per_activation_loop() {
    let mut escapes = 0;
    for (target, seed) in [(128, 7u64), (1024, 31337)] {
        let (config, profiles) = sweep_scenario(target, seed);
        assert_eq!(config.victims.len(), 8);
        for kind in kinds() {
            for profile in &profiles {
                escapes += both_ways(kind, profile, &config).escapes;
            }
        }
    }
    assert!(escapes > 0, "the naive configurations must let victims escape");
}

#[test]
fn victims_at_different_epoch_rdts_match_the_per_activation_loop() {
    // Epoch RDTs far below the ~84 activations per tREFI, scaled apart
    // per victim, make each victim's crossing the binding chunk end in
    // turn; over-configured thresholds let them escape.
    let victims = [(3, 1.0), (40, 1.5), (41, 2.0), (90, 3.0)]
        .map(|(row, factor)| SpatialVictim { row, factor })
        .to_vec();
    let mut escapes = 0;
    for rdts in [vec![2], vec![5, 7], vec![40, 83, 84, 85], vec![300, 640]] {
        let config =
            AttackConfig { activations: 8_000, ..AttackConfig::new(rdts, victims.clone(), 31337) };
        for kind in kinds() {
            // At 1000 every victim still passes its region's quota under
            // the region profile.
            let base = if kind == MitigationKind::BlockHammer { 1_000 } else { 16 };
            for profile in [MitigationProfile::flat(4 * base), spatial_profile(base)] {
                escapes += both_ways(kind, &profile, &config).escapes;
            }
        }
    }
    assert!(escapes > 0);
}

#[test]
fn multi_victim_attacks_across_the_refresh_window_match_the_per_activation_loop() {
    // 720k activations at 46 ns span more than one 32 ms tREFW.
    let mut config = AttackConfig::new(vrd_distribution(), spatial_victims(), 5);
    config.activations = 720_000;
    for (kind, profile) in [
        (MitigationKind::None, MitigationProfile::flat(3_500)),
        (MitigationKind::Graphene, spatial_profile(3_500)),
        (MitigationKind::Graphene, MitigationProfile::flat(28_000)),
        (MitigationKind::Prac, spatial_profile(3_500)),
        (MitigationKind::Para, MitigationProfile::flat(12_000)),
        (MitigationKind::Mint, spatial_profile(40)),
        (MitigationKind::BlockHammer, spatial_profile(3_500)),
    ] {
        let result = both_ways(kind, &profile, &config);
        if kind == MitigationKind::None {
            assert!(result.escapes > 0);
        }
    }
}

// ----- refresh catch-up --------------------------------------------------

/// `simulate_attack` one activation at a time, with one `on_refresh`
/// call per elapsed tREFI: the attack loop before it caught up several
/// tREFIs in one call.
fn reference_attack(m: &mut dyn Mitigation, config: &AttackConfig) -> AttackResult {
    const T_RC_NS: u64 = 46;
    const T_REFI_NS: u64 = 3_900;
    const T_REFW_NS: u64 = 32_000_000;
    let victim_of = |row: u32| config.victims.iter().position(|v| v.row == row);
    let mut rng = ChaCha12Rng::seed_from_u64(config.seed);
    let dist = &config.rdt_distribution;
    let mut draw = |factor: f64| {
        let base = f64::from(dist[rng.gen_range(0..dist.len())]);
        (base * factor).round().max(1.0) as u64
    };
    let victims = &config.victims;
    let n = victims.len();
    let mut true_rdt: Vec<u64> = victims.iter().map(|v| draw(v.factor)).collect();
    let mut accumulated = vec![0u64; n];
    let mut restore = vec![false; n];
    let mut result = AttackResult {
        activations: config.activations,
        preventive_refreshes: 0,
        actions: 0,
        blocked_ns: 0,
        escapes: 0,
        per_victim_escapes: vec![0; n],
    };
    let (mut time_ns, mut next_refi, mut next_periodic) = (0, T_REFI_NS, T_REFW_NS);
    let mut actions = Vec::new();
    for a in 0..config.activations {
        let v = (a % n as u64) as usize;
        assert_eq!(m.on_activate(0, &[victims[v].row], 1, &mut actions), 1);
        time_ns += T_RC_NS;
        accumulated[v] += 1;
        if accumulated[v] >= true_rdt[v] {
            result.escapes += 1;
            result.per_victim_escapes[v] += 1;
            restore[v] = true;
        }
        for action in actions.drain(..) {
            result.actions += 1;
            match action {
                MitigationAction::RefreshNeighbors { row, .. } => {
                    result.preventive_refreshes += 1;
                    if let Some(i) = victim_of(row) {
                        restore[i] = true;
                    }
                }
                MitigationAction::BlockBank { duration, .. }
                | MitigationAction::BlockChannel { duration } => {
                    time_ns += duration;
                    result.blocked_ns += duration;
                }
            }
        }
        while time_ns >= next_refi {
            next_refi += T_REFI_NS;
            m.on_refresh(&mut actions);
            for action in actions.drain(..) {
                result.actions += 1;
                if let MitigationAction::RefreshNeighbors { row, .. } = action {
                    result.preventive_refreshes += 1;
                    if let Some(i) = victim_of(row) {
                        restore[i] = true;
                    }
                }
            }
        }
        while time_ns >= next_periodic {
            next_periodic += T_REFW_NS;
            restore.fill(true);
        }
        for (i, flagged) in restore.iter_mut().enumerate() {
            if std::mem::take(flagged) {
                accumulated[i] = 0;
                true_rdt[i] = draw(victims[i].factor);
            }
        }
    }
    result
}

#[test]
fn refresh_catch_up_matches_the_per_trefi_reference() {
    // At thresholds 16–64 BlockHammer's quota is 8–32 activations per
    // window and each later activation of the row is throttled for
    // 32 ms / quota, 256–1026 tREFIs. Epoch RDTs around the quota let
    // victims escape before the throttle engages.
    let mut escapes = 0;
    for threshold in [16, 32, 64] {
        for victims in [vec![SpatialVictim { row: 1, factor: 1.0 }], spatial_victims()] {
            let config = AttackConfig {
                activations: 1_200,
                ..AttackConfig::new(vec![6, 12, 20, 40, 300], victims, 31337)
            };
            for kind in kinds() {
                let profile = MitigationProfile::flat(threshold);
                let mut caught_up = Counting::new(kind.build(&profile, 1, config.seed));
                let mut stepped = Counting::new(kind.build(&profile, 1, config.seed));
                let got = simulate_attack(&mut caught_up, &config);
                let want = reference_attack(&mut stepped, &config);
                let what =
                    format!("{} at {threshold}, {} victims", kind.name(), config.victims.len());
                assert_eq!(got, want, "{what}");
                // The reference's calls after one activation collapse into
                // the catch-up's one call there.
                let mut at = stepped.refreshed_at.clone();
                at.dedup();
                assert_eq!(caught_up.refreshed_at, at, "{what}: refresh cadence");
                if kind == MitigationKind::BlockHammer {
                    assert!(
                        stepped.refreshed_at.len() > 100 * caught_up.refreshed_at.len(),
                        "{what}: the throttles must span many tREFIs"
                    );
                    escapes += want.escapes;
                }
            }
        }
    }
    assert!(escapes > 0, "BlockHammer must let victims below its quota escape");
}
