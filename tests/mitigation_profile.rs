//! Validation suite for profile-driven spatial-variation-aware
//! mitigations.
//!
//! Three layers of evidence that the per-region threshold machinery is
//! safe to trust:
//!
//! 1. **Flat-profile equivalence (proptest).** A multi-region profile
//!    whose regions all share one threshold must drive every mechanism
//!    action-for-action identically to the flat (classical uniform)
//!    profile, across random seeds, thresholds, region geometries, and
//!    access scripts: the region lookup adds no behavior of its own.
//! 2. **Per-region monotonicity (proptest).** Lowering one region's
//!    threshold — configuring it as *weaker* — never decreases the
//!    mechanism's protective actions, neither in total nor for
//!    aggressors inside that region. A defense that could act *less*
//!    when told a region is weaker would be unsound.
//! 3. **Artifact robustness + golden sweep output.** The profile JSON
//!    round-trips exactly; every truncation of the artifact is a typed
//!    parse error (never a panic), mirroring the checkpoint journal's
//!    torn-tail discipline; and the `memsim-sweep` experiment's
//!    scoreboard and crossover table are pinned as goldens, re-run at
//!    several thread counts (bless with
//!    `UPDATE_GOLDEN=mitigation_profile`).

#[path = "util/golden.rs"]
mod golden;

use std::sync::OnceLock;

use proptest::prelude::*;

use vrd::memsim::mitigation::{Mitigation, MitigationAction, MitigationKind};
use vrd::memsim::profile::{MitigationProfile, ProfileError, FORMAT_VERSION};
use vrd_experiments::studies::Studies;
use vrd_experiments::{findings, sweep_exp, Options};

/// Drives `mitigation` through `script`, interleaving a periodic refresh
/// every 16 activations through one reused buffer, and returns every
/// action batch in order.
fn drive(mitigation: &mut dyn Mitigation, script: &[(usize, u32)]) -> Vec<Vec<MitigationAction>> {
    let mut batches = Vec::with_capacity(script.len());
    let mut out = Vec::new();
    for (i, &(bank, row)) in script.iter().enumerate() {
        mitigation.on_activate(bank, &[row], 1, &mut out);
        batches.push(out.clone());
        out.clear();
        if i % 16 == 15 {
            mitigation.on_refresh(&mut out);
            batches.push(out.clone());
            out.clear();
        }
    }
    batches
}

/// Protective actions in a batch stream: total count and the count of
/// neighbor refreshes whose aggressor row lies in `rows`.
fn count_actions(batches: &[Vec<MitigationAction>], rows: std::ops::Range<u32>) -> (usize, usize) {
    let total = batches.iter().map(Vec::len).sum();
    let in_region = batches
        .iter()
        .flatten()
        .filter(
            |a| matches!(a, MitigationAction::RefreshNeighbors { row, .. } if rows.contains(row)),
        )
        .count();
    (total, in_region)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Layer 1: a profile whose regions all carry one threshold is
    // indistinguishable from the flat profile, action for action.
    // Thresholds stay >= 40 so PARA's probability is < 1 and its RNG
    // draw cadence is identical on both sides.
    #[test]
    fn all_equal_profile_matches_flat_action_for_action(
        threshold in 40u32..2_000,
        seed in any::<u64>(),
        region_rows in 1u32..64,
        region_count in 1usize..12,
        script in prop::collection::vec((0usize..2, 0u32..12), 1..300),
    ) {
        let profile = MitigationProfile {
            format_version: FORMAT_VERSION,
            module: "proptest".to_owned(),
            region_rows,
            regions: vec![threshold; region_count],
            fallback_threshold: threshold,
            guardband_factor: 1.0,
        };
        for kind in MitigationKind::EXTENDED {
            let mut flat = kind.build(&MitigationProfile::flat(threshold), 2, seed);
            let mut profiled = kind.build(&profile, 2, seed);
            let flat_batches = drive(flat.as_mut(), &script);
            let profiled_batches = drive(profiled.as_mut(), &script);
            prop_assert!(
                flat_batches == profiled_batches,
                "{} diverged from flat under an all-equal profile",
                kind.name()
            );
        }
    }

    // Layer 2: declaring one region weaker (lowering its threshold) must
    // not reduce protection — not in total, and not for aggressors
    // inside that region. Halving keeps the lowered threshold >= 40.
    #[test]
    fn lowering_a_region_threshold_never_reduces_protection(
        thresholds in prop::collection::vec(80u32..2_000, 4..5),
        weak_region in 0usize..4,
        seed in any::<u64>(),
        script in prop::collection::vec((0usize..2, 0u32..32), 50..400),
    ) {
        const REGION_ROWS: u32 = 8;
        let base = MitigationProfile {
            format_version: FORMAT_VERSION,
            module: "proptest".to_owned(),
            region_rows: REGION_ROWS,
            regions: thresholds.clone(),
            fallback_threshold: *thresholds.iter().max().unwrap(),
            guardband_factor: 1.0,
        };
        let mut lowered = base.clone();
        lowered.regions[weak_region] /= 2;

        let region_rows =
            weak_region as u32 * REGION_ROWS..(weak_region as u32 + 1) * REGION_ROWS;
        for kind in [MitigationKind::Graphene, MitigationKind::Prac, MitigationKind::Para] {
            let mut with_base = kind.build(&base, 2, seed);
            let mut with_lowered = kind.build(&lowered, 2, seed);
            let (base_total, base_region) =
                count_actions(&drive(with_base.as_mut(), &script), region_rows.clone());
            let (low_total, low_region) =
                count_actions(&drive(with_lowered.as_mut(), &script), region_rows.clone());
            prop_assert!(
                low_total >= base_total,
                "{}: lowering region {weak_region} reduced total actions {base_total} -> {low_total}",
                kind.name()
            );
            prop_assert!(
                low_region >= base_region,
                "{}: lowering region {weak_region} reduced its refreshes {base_region} -> {low_region}",
                kind.name()
            );
        }
    }

    // Layer 3a: the artifact round-trips exactly through its JSON form.
    #[test]
    fn profile_json_roundtrips_exactly(
        regions in prop::collection::vec(1u32..50_000, 1..16),
        region_rows in 1u32..5_000,
        fallback in 1u32..50_000,
        guardband_pct in 1u32..=100,
    ) {
        let profile = MitigationProfile {
            format_version: FORMAT_VERSION,
            module: "roundtrip".to_owned(),
            region_rows,
            regions,
            fallback_threshold: fallback,
            guardband_factor: f64::from(guardband_pct) / 100.0,
        };
        let back = MitigationProfile::from_json(&profile.to_json()).expect("valid profile parses");
        prop_assert_eq!(back, profile);
    }
}

fn characterized_profile() -> MitigationProfile {
    MitigationProfile::from_characterization(
        "M1",
        777,
        &vrd::dram::spatial::SpatialProfile::wide(),
        42,
        4_096,
        512,
        0.75,
    )
}

// Layer 3b: every truncation of the artifact is a typed parse error,
// never a panic — a torn write must not take the consumer down.
#[test]
fn every_truncation_is_a_parse_error() {
    let json = characterized_profile().to_json();
    let complete = json.trim_end().len();
    for cut in 0..complete {
        match MitigationProfile::from_json(&json[..cut]) {
            Err(ProfileError::Parse(_)) => {}
            Err(other) => panic!("cut at {cut}: expected a parse error, got {other:?}"),
            Ok(_) => panic!("cut at {cut}: truncated artifact must not parse"),
        }
    }
    assert!(MitigationProfile::from_json(&json[..complete]).is_ok());
}

#[test]
fn save_load_and_failure_modes() {
    let dir = std::env::temp_dir().join(format!("vrd_profile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mitigation_profile.json");

    let profile = characterized_profile();
    profile.save(&path).expect("save");
    assert_eq!(MitigationProfile::load(&path).expect("load"), profile);

    // Torn tail on disk: parse error, not a panic.
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
    assert!(matches!(MitigationProfile::load(&path), Err(ProfileError::Parse(_))));

    // Future format versions are rejected with the version error.
    let mut bumped = profile.clone();
    bumped.format_version = FORMAT_VERSION + 1;
    std::fs::write(&path, serde_json::to_string(&bumped).expect("serialize")).expect("write");
    assert!(matches!(
        MitigationProfile::load(&path),
        Err(ProfileError::Version { found, expected })
            if found == FORMAT_VERSION + 1 && expected == FORMAT_VERSION
    ));

    // Missing file: IO error.
    assert!(matches!(MitigationProfile::load(&dir.join("missing.json")), Err(ProfileError::Io(_))));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_save_over_a_profile_is_never_torn() {
    let dir = std::env::temp_dir().join(format!("vrd_profile_atomic_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mitigation_profile.json");
    let old = characterized_profile();
    let new = MitigationProfile::flat(old.min_threshold() / 2);
    old.save(&path).expect("save");

    // A reader polling the file while saves alternate between the two
    // profiles sees one of them, whole, every time.
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut reads = 0u64;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                let loaded = MitigationProfile::load(&path).expect("a whole profile");
                assert!(loaded == old || loaded == new, "a third profile appeared");
                reads += 1;
            }
            reads
        });
        for i in 0..400 {
            if i % 2 == 0 { &new } else { &old }.save(&path).expect("save");
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(reader.join().expect("reader") > 0);
    });
    assert_eq!(MitigationProfile::load(&path).expect("load"), old);

    // A save that cannot write its temporary file leaves the old profile.
    std::fs::create_dir_all(dir.join("mitigation_profile.json.tmp")).expect("blocking dir");
    assert!(matches!(new.save(&path), Err(ProfileError::Io(_))));
    assert_eq!(MitigationProfile::load(&path).expect("load"), old);
    assert_eq!(std::fs::read_to_string(&path).expect("read"), old.to_json());

    let _ = std::fs::remove_dir_all(&dir);
}

// Layer 3c: golden sweep output, thread-invariant.

fn sweep_opts(threads: usize) -> Options {
    let mut opts = Options::smoke();
    opts.modules = vec!["M1".into()];
    opts.threads = threads;
    opts.sweep_activations = 40_000;
    opts
}

fn sweep_at(threads: usize) -> sweep_exp::SweepStudy {
    let studies = Studies::new(&sweep_opts(threads));
    studies.sweep().expect("M1 measures in-depth series").clone()
}

fn reference_sweep() -> &'static sweep_exp::SweepStudy {
    static SWEEP: OnceLock<sweep_exp::SweepStudy> = OnceLock::new();
    SWEEP.get_or_init(|| sweep_at(1))
}

fn scoreboard(study: &sweep_exp::SweepStudy) -> String {
    let mut out = String::new();
    for c in findings::check_sweep(study) {
        out.push_str(&format!(
            "F{} {} {} — {}\n",
            c.id,
            if c.passed { "PASS" } else { "FAIL" },
            c.title,
            c.detail
        ));
    }
    out
}

#[test]
fn sweep_crossover_table_matches_golden() {
    golden::assert_golden(
        "mitigation_profile",
        "memsim_sweep_crossover.txt",
        &sweep_exp::render(reference_sweep()),
    );
}

#[test]
fn sweep_scoreboard_matches_golden_and_passes() {
    let checks = findings::check_sweep(reference_sweep());
    assert!(checks.iter().all(|c| c.passed), "F18/F19 must hold at golden scale: {checks:?}");
    golden::assert_golden(
        "mitigation_profile",
        "memsim_sweep_scoreboard.txt",
        &scoreboard(reference_sweep()),
    );
}

#[test]
fn sweep_is_thread_invariant() {
    let reference = reference_sweep();
    for threads in [2, 8] {
        let study = sweep_at(threads);
        assert_eq!(
            sweep_exp::render(&study),
            sweep_exp::render(reference),
            "sweep output changed at {threads} threads"
        );
        assert_eq!(scoreboard(&study), scoreboard(reference));
    }
}

// The sweep's profile artifact feeds memsim directly: what the
// experiment writes is exactly what `MitigationKind::build` consumes.
#[test]
fn sweep_artifact_feeds_the_simulator() {
    let study = reference_sweep();
    let reloaded =
        MitigationProfile::from_json(&study.profile.to_json()).expect("artifact round-trips");
    let mut out = Vec::new();
    for kind in MitigationKind::EVALUATED {
        kind.build(&reloaded, 1, 9).on_activate(0, &[0], 1, &mut out);
    }
}
