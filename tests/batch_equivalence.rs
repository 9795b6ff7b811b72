//! Differential tests for the batched device hot path.
//!
//! The contract under test: [`EvalStrategy::Batch`] — which draws every
//! per-bit threshold for a `(epoch, bank, row)` once and evaluates whole
//! probes as u64 lane masks — is a pure optimization. For every campaign,
//! seed, module, thread count, condition, and ECC setting it reports
//! **byte-identical** results to the scalar per-session command path: the same bitflip sets, the same hammer-session and
//! measurement-epoch counters, and (unlike the search-strategy
//! equivalence, which must strip `test_time_ns`) the same simulated test
//! time and energy, bit for bit.

use proptest::prelude::*;

use vrd::bender::TestPlatform;
use vrd::core::algorithm::{find_victim, test_loop_using, FIND_VICTIM_CUTOFF};
use vrd::core::campaign::{
    foundational_campaign, in_depth_campaign, FoundationalConfig, InDepthConfig,
};
use vrd::core::discovery::{discovery_campaign, DiscoveryConfig};
use vrd::core::exec::ExecConfig;
use vrd::core::run::RunOptions;
use vrd::core::{EvalStrategy, SearchStrategy, SweepSpec};
use vrd::dram::conditions::{T_AGG_ON_9TREFI_NS, T_AGG_ON_TREFI_NS};
use vrd::dram::{DataPattern, ModuleSpec, TestConditions};

fn exec(threads: usize, seed: u64, eval: EvalStrategy) -> RunOptions<'static> {
    let mut cfg = ExecConfig::new(threads, seed);
    cfg.eval = eval;
    RunOptions::new(cfg)
}

fn foundational_json(threads: usize, seed: u64, eval: EvalStrategy) -> String {
    use serde::Serialize as _;
    let specs: Vec<ModuleSpec> =
        ["M1", "S2"].iter().map(|n| ModuleSpec::by_name(n).expect("Table-1 module")).collect();
    let cfg = FoundationalConfig {
        measurements: 40,
        seed,
        row_bytes: 512,
        scan_rows: 3_000,
        ..FoundationalConfig::default()
    };
    let results = foundational_campaign(&specs, &cfg, &exec(threads, seed, eval))
        .expect("plain campaign run cannot fail");
    // Deliberately NOT stripping `test_time_ns`: the batch engine must
    // replicate the command executor's elapsed-time fold bitwise.
    serde_json::to_string_pretty(&results.to_value()).expect("serializable results")
}

fn in_depth_json(threads: usize, seed: u64, eval: EvalStrategy) -> String {
    let specs: Vec<ModuleSpec> =
        ["H3", "M1"].iter().map(|n| ModuleSpec::by_name(n).expect("Table-1 module")).collect();
    let cfg = InDepthConfig { seed, ..InDepthConfig::quick() };
    let results = in_depth_campaign(&specs, &cfg, &exec(threads, seed, eval))
        .expect("plain campaign run cannot fail");
    serde_json::to_string_pretty(&results).expect("serializable results")
}

#[test]
fn foundational_campaign_is_eval_invariant_across_seeds_and_threads() {
    for seed in [2025, 4242] {
        let reference = foundational_json(1, seed, EvalStrategy::Scalar);
        for threads in [1, 2, 8] {
            assert_eq!(
                reference,
                foundational_json(threads, seed, EvalStrategy::Batch),
                "batch eval changed foundational results at seed={seed} threads={threads}"
            );
        }
    }
}

fn discovery_json(threads: usize, seed: u64, eval: EvalStrategy) -> String {
    let specs: Vec<ModuleSpec> =
        ["H3", "M1"].iter().map(|n| ModuleSpec::by_name(n).expect("Table-1 module")).collect();
    let cfg = DiscoveryConfig { seed, ..DiscoveryConfig::quick() };
    let results = discovery_campaign(&specs, &cfg, &exec(threads, seed, eval))
        .expect("plain campaign run cannot fail");
    serde_json::to_string_pretty(&results).expect("serializable results")
}

#[test]
fn discovery_campaign_is_eval_invariant() {
    // Early stopping raises the stakes: a single divergent measurement
    // would not only change a value but shift the stopping epoch, so
    // `epochs_used` (serialized per row) must match too — the batch
    // path must stop after *exactly* the same number of epochs as the
    // scalar path on every row.
    for seed in [5025, 31] {
        let reference = discovery_json(1, seed, EvalStrategy::Scalar);
        for threads in [1, 2, 8] {
            assert_eq!(
                reference,
                discovery_json(threads, seed, EvalStrategy::Batch),
                "batch eval changed discovery results at seed={seed} threads={threads}"
            );
        }
    }
}

#[test]
fn in_depth_campaign_is_eval_invariant() {
    // The in-depth campaign sweeps the full condition grid (patterns ×
    // t_aggon × temperature), so this exercises the batch engine's idle
    // lane set (t_aggon > t_RAS) and every data pattern in one shot.
    for seed in [5025, 31] {
        let reference = in_depth_json(1, seed, EvalStrategy::Scalar);
        for threads in [1, 2, 8] {
            assert_eq!(
                reference,
                in_depth_json(threads, seed, EvalStrategy::Batch),
                "batch eval changed in-depth results at seed={seed} threads={threads}"
            );
        }
    }
}

/// Everything the two evaluation strategies could possibly disagree on,
/// captured after an identical measurement sequence on a fresh platform.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    values: Vec<u32>,
    censored: u32,
    hammer_sessions: u64,
    measurement_epochs: u64,
    elapsed_ns_bits: u64,
    energy_j_bits: u64,
    total_activations: u64,
    /// Post-run device state: surviving bitflips around the victim,
    /// read back row by row against the pattern's expected bytes.
    post_state: Vec<(u32, Vec<u32>)>,
}

fn fingerprint(
    platform: &mut TestPlatform,
    conditions: &TestConditions,
    measurements: u32,
    eval: EvalStrategy,
) -> Option<Fingerprint> {
    let (row, guess) = find_victim(platform, 0, conditions, FIND_VICTIM_CUTOFF, 2..2_000)?;
    let sweep = SweepSpec::from_guess(guess);
    let series = test_loop_using(
        platform,
        0,
        row,
        conditions,
        measurements,
        &sweep,
        SearchStrategy::Adaptive,
        eval,
    );
    let post_state = (row.saturating_sub(2)..=row + 2)
        .map(|r| {
            let expected = if r == row {
                conditions.pattern.victim_byte()
            } else {
                conditions.pattern.aggressor_byte()
            };
            let flips = platform.device_mut().read_and_compare(0, r, expected);
            (r, flips.iter().map(|f| f.bit).collect())
        })
        .collect();
    Some(Fingerprint {
        values: series.values().to_vec(),
        censored: series.censored(),
        hammer_sessions: platform.hammer_sessions(),
        measurement_epochs: platform.measurement_epochs(),
        elapsed_ns_bits: platform.elapsed_ns().to_bits(),
        energy_j_bits: platform.energy_j().to_bits(),
        total_activations: platform.device().total_activations(),
        post_state,
    })
}

fn assert_fingerprints_match(seed: u64, ecc: bool, conditions: &TestConditions, measurements: u32) {
    let run = |eval| {
        let mut platform = TestPlatform::small_test(seed);
        platform.device_mut().set_on_die_ecc_enabled(ecc);
        fingerprint(&mut platform, conditions, measurements, eval)
    };
    let scalar = run(EvalStrategy::Scalar);
    let batch = run(EvalStrategy::Batch);
    assert_eq!(scalar, batch, "eval strategies diverged at seed={seed} ecc={ecc}");
    assert!(scalar.is_some(), "small_test(seed={seed}) should contain a vulnerable row");
}

#[test]
fn full_platform_fingerprints_match_under_foundational_conditions() {
    for seed in [3, 41, 1234] {
        assert_fingerprints_match(seed, false, &TestConditions::foundational(), 12);
    }
}

#[test]
fn full_platform_fingerprints_match_with_on_die_ecc() {
    // On-die ECC makes flip visibility non-monotone per codeword
    // (`visible_flips` hides single-bit errors and miscorrects others),
    // so both strategies must apply it to identical raw flip sets.
    for seed in [3, 41, 7] {
        assert_fingerprints_match(seed, true, &TestConditions::foundational(), 12);
    }
    let long_on = TestConditions::foundational().with_t_agg_on_ns(T_AGG_ON_TREFI_NS);
    assert_fingerprints_match(41, true, &long_on, 8);
}

#[test]
fn fingerprints_match_across_patterns_and_on_times() {
    for pattern in [DataPattern::Rowstripe1, DataPattern::Checkered1] {
        for t_agg_on in [T_AGG_ON_TREFI_NS, T_AGG_ON_9TREFI_NS] {
            let conditions =
                TestConditions::foundational().with_pattern(pattern).with_t_agg_on_ns(t_agg_on);
            assert_fingerprints_match(41, false, &conditions, 8);
        }
    }
}

#[test]
fn zero_hammer_probes_use_the_idle_lane_set() {
    // A sweep that starts at hammer count 0 probes a session that never
    // hammers. Under RowPress-style conditions (t_aggon = t_REFI) the
    // batch engine must then fall back to its *idle* lane set — sampled
    // at minimum t_RAS on-time, like the scalar path's read of a row
    // that was only initialized — rather than the hammer lane set.
    let conditions = TestConditions::foundational().with_t_agg_on_ns(T_AGG_ON_TREFI_NS);
    let run = |eval| {
        let mut platform = TestPlatform::small_test(41);
        let (row, guess) =
            find_victim(&mut platform, 0, &conditions, FIND_VICTIM_CUTOFF, 2..2_000).unwrap();
        let sweep = SweepSpec { min: 0, max: guess.saturating_mul(3), step: (guess / 50).max(1) };
        let series = test_loop_using(
            &mut platform,
            0,
            row,
            &conditions,
            10,
            &sweep,
            SearchStrategy::Linear,
            eval,
        );
        (
            series,
            platform.hammer_sessions(),
            platform.elapsed_ns().to_bits(),
            platform.energy_j().to_bits(),
            platform.device().total_activations(),
        )
    };
    assert_eq!(run(EvalStrategy::Scalar), run(EvalStrategy::Batch));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Randomized differential check over the axes the batch engine
    // branches on: RNG seed, module geometry, ECC, pattern, and on-time.
    // Deliberately few cases — each runs two full adaptive test loops —
    // but every case is a fresh (seed, module, conditions) triple.
    #[test]
    fn batch_equals_scalar_for_arbitrary_platforms(
        seed in 0u64..1_000_000,
        module_idx in 0usize..3,
        ecc_bit in 0u8..2,
        pattern_idx in 0usize..4,
        t_agg_idx in 0usize..2,
        measurements in 1u32..5,
    ) {
        let ecc = ecc_bit == 1;
        let spec = ModuleSpec::by_name(["M1", "S2", "H3"][module_idx]).expect("Table-1 module");
        let conditions = TestConditions::foundational()
            .with_pattern(DataPattern::ALL[pattern_idx])
            .with_t_agg_on_ns([35.0, T_AGG_ON_TREFI_NS][t_agg_idx]);
        let run = |eval| {
            let mut platform = TestPlatform::for_module_with_row_bytes(spec.clone(), seed, 256);
            platform.device_mut().set_on_die_ecc_enabled(ecc);
            fingerprint(&mut platform, &conditions, measurements, eval)
        };
        prop_assert_eq!(run(EvalStrategy::Scalar), run(EvalStrategy::Batch));
    }
}
