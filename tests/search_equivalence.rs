//! Differential tests for the RDT search strategies.
//!
//! The contract under test: the adaptive (gallop + bisect) search is a
//! pure optimization — for every campaign, seed, module, thread count,
//! and condition, it reports **exactly** the measurement series the
//! exhaustive linear sweep reports. This holds because each measurement
//! epoch draws its stochastic state from a counter-based RNG keyed by
//! `(dynamics_seed, epoch, cell)`, making the flip predicate a fixed
//! monotone function of the grid index for the duration of one sweep —
//! independent of how many grid points the search visits or in what
//! order.

use proptest::prelude::*;

use vrd::bender::search::first_true;
use vrd::bender::TestPlatform;
use vrd::core::algorithm::{find_victim, test_loop_using, FIND_VICTIM_CUTOFF};
use vrd::core::campaign::{
    foundational_campaign, in_depth_campaign, FoundationalConfig, InDepthConfig,
};
use vrd::core::exec::ExecConfig;
use vrd::core::run::RunOptions;
use vrd::core::{EvalStrategy, SearchStrategy, SweepSpec};
use vrd::dram::{ModuleSpec, TestConditions};

fn exec(threads: usize, seed: u64, search: SearchStrategy) -> RunOptions<'static> {
    let mut cfg = ExecConfig::new(threads, seed);
    cfg.search = search;
    RunOptions::new(cfg)
}

/// Serializes campaign results with every `test_time_ns` field removed:
/// simulated test time is the one result field the strategies *should*
/// disagree on (the adaptive search hammers less).
fn strip_time(v: &serde::Value) -> serde::Value {
    match v {
        serde::Value::Seq(items) => serde::Value::Seq(items.iter().map(strip_time).collect()),
        serde::Value::Map(entries) => serde::Value::Map(
            entries
                .iter()
                .filter(|(k, _)| k != "test_time_ns")
                .map(|(k, val)| (k.clone(), strip_time(val)))
                .collect(),
        ),
        other => other.clone(),
    }
}

fn foundational_json(threads: usize, seed: u64, search: SearchStrategy) -> String {
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
    let results = foundational_campaign(&specs, &cfg, &exec(threads, seed, search))
        .expect("plain campaign run cannot fail");
    serde_json::to_string_pretty(&strip_time(&results.to_value())).expect("serializable results")
}

fn in_depth_json(threads: usize, seed: u64, search: SearchStrategy) -> String {
    let specs: Vec<ModuleSpec> =
        ["H3", "M1"].iter().map(|n| ModuleSpec::by_name(n).expect("Table-1 module")).collect();
    let cfg = InDepthConfig { seed, ..InDepthConfig::quick() };
    let results = in_depth_campaign(&specs, &cfg, &exec(threads, seed, search))
        .expect("plain campaign run cannot fail");
    serde_json::to_string_pretty(&results).expect("serializable results")
}

#[test]
fn foundational_campaign_is_search_invariant_across_seeds_and_threads() {
    for seed in [2025, 4242, 77] {
        let reference = foundational_json(1, seed, SearchStrategy::Linear);
        for threads in [1, 2, 8] {
            assert_eq!(
                reference,
                foundational_json(threads, seed, SearchStrategy::Adaptive),
                "adaptive search changed foundational results at seed={seed} threads={threads}"
            );
        }
    }
}

#[test]
fn in_depth_campaign_is_search_invariant() {
    // The in-depth results carry no time field, so the equality here is
    // full byte-identity of the serialized campaign — across the whole
    // condition grid (patterns × t_aggon × temperature).
    for seed in [5025, 31] {
        let reference = in_depth_json(1, seed, SearchStrategy::Linear);
        for threads in [1, 2, 8] {
            assert_eq!(
                reference,
                in_depth_json(threads, seed, SearchStrategy::Adaptive),
                "adaptive search changed in-depth results at seed={seed} threads={threads}"
            );
        }
    }
}

#[test]
fn strategies_agree_on_fully_censored_sweeps() {
    // A row with no weak cell never flips: the linear sweep probes every
    // grid point and censors; the adaptive gallop must reach the same
    // verdict (it probes the last grid point before giving up).
    let conditions = TestConditions::foundational();
    let run = |search| {
        let mut platform = TestPlatform::small_test(41);
        let strong = (2..2000)
            .find(|&r| platform.device_mut().oracle_row_threshold(0, r, &conditions).is_none())
            .expect("some row has no weak cell");
        let sweep = SweepSpec { min: 100, max: 2_000, step: 100 };
        test_loop_using(
            &mut platform,
            0,
            strong,
            &conditions,
            12,
            &sweep,
            search,
            EvalStrategy::Batch,
        )
    };
    let linear = run(SearchStrategy::Linear);
    let adaptive = run(SearchStrategy::Adaptive);
    assert_eq!(linear, adaptive);
    assert_eq!(adaptive.censored(), 12);
    assert!(adaptive.is_empty());
}

#[test]
fn strategies_agree_when_the_first_grid_point_flips() {
    // The other edge: a sweep whose minimum already exceeds the row's
    // threshold, so the very first grid point flips. The gallop's first
    // probe *is* index 0, so both strategies must report `sweep.min`
    // every time.
    let conditions = TestConditions::foundational();
    let run = |search| {
        let mut platform = TestPlatform::small_test(41);
        let (row, guess) =
            find_victim(&mut platform, 0, &conditions, FIND_VICTIM_CUTOFF, 2..2000).unwrap();
        // Start the sweep at 3× the guess — comfortably above every
        // threshold draw the model can produce for this row.
        let sweep =
            SweepSpec { min: guess.saturating_mul(3), max: guess.saturating_mul(4), step: guess };
        test_loop_using(&mut platform, 0, row, &conditions, 12, &sweep, search, EvalStrategy::Batch)
    };
    let linear = run(SearchStrategy::Linear);
    let adaptive = run(SearchStrategy::Adaptive);
    assert_eq!(linear, adaptive);
    assert_eq!(adaptive.censored(), 0);
    assert!(adaptive.values().iter().all(|&v| v == adaptive.values()[0]));
}

proptest! {
    #[test]
    fn first_true_matches_linear_scan_on_monotone_predicates(
        n in 0usize..400,
        first_flip in 0usize..500,
    ) {
        // Monotone predicate: false below `first_flip`, true from it on
        // (possibly entirely false over the probed range).
        let probe = |i: usize| i >= first_flip;
        prop_assert_eq!(first_true(n, probe), (0..n).find(|&i| probe(i)));
    }

    #[test]
    fn search_grid_matches_linear_grid_find(
        guess in 1u32..1_000_000,
        threshold in 0u32..4_000_000,
    ) {
        let sweep = SweepSpec::from_guess(guess);
        let probe = |hc: u32| hc >= threshold;
        prop_assert_eq!(sweep.search_grid(probe), sweep.grid().find(|&hc| probe(hc)));
    }

    #[test]
    fn first_true_never_probes_out_of_range(n in 0usize..300, first_flip in 0usize..400) {
        let mut probed = Vec::new();
        let _ = first_true(n, |i| {
            probed.push(i);
            i >= first_flip
        });
        prop_assert!(probed.iter().all(|&i| i < n), "probed {:?} with n={}", probed, n);
    }
}
