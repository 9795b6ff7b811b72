//! Thread-invariance and golden-result tests for the deterministic
//! campaign executor.
//!
//! The contract under test: a campaign's serialized output is
//! **byte-identical** at any `threads` value, because every work unit
//! derives its own dynamics seed from `(campaign_seed, unit_key)` and
//! runs on a fresh platform. The golden files additionally pin the
//! absolute numbers for fixed seeds, so an accidental change to the
//! seed-derivation scheme (which would silently re-randomize every
//! campaign) fails loudly.
//!
//! To bless new golden files after an *intentional* model change:
//!
//! ```text
//! UPDATE_GOLDEN=parallel_determinism cargo test --test parallel_determinism
//! ```

#[path = "util/golden.rs"]
mod golden;

use vrd::core::campaign::{
    foundational_campaign, in_depth_campaign, FoundationalConfig, InDepthConfig,
};
use vrd::core::exec::ExecConfig;
use vrd::core::run::RunOptions;
use vrd::dram::ModuleSpec;

/// A shrunk foundational campaign over two modules.
fn foundational_json(threads: usize, seed: u64) -> String {
    let specs: Vec<ModuleSpec> =
        ["M1", "S2"].iter().map(|n| ModuleSpec::by_name(n).expect("Table-1 module")).collect();
    let cfg = FoundationalConfig {
        measurements: 40,
        seed,
        row_bytes: 512,
        scan_rows: 3_000,
        ..FoundationalConfig::default()
    };
    let results =
        foundational_campaign(&specs, &cfg, &RunOptions::new(ExecConfig::new(threads, seed)))
            .expect("plain campaign run cannot fail");
    serde_json::to_string_pretty(&results).expect("serializable results")
}

/// A shrunk in-depth campaign over two modules sharing one pool.
fn in_depth_json(threads: usize, seed: u64) -> String {
    let specs: Vec<ModuleSpec> =
        ["H3", "M1"].iter().map(|n| ModuleSpec::by_name(n).expect("Table-1 module")).collect();
    let cfg = InDepthConfig { seed, ..InDepthConfig::quick() };
    let results = in_depth_campaign(&specs, &cfg, &RunOptions::new(ExecConfig::new(threads, seed)))
        .expect("plain campaign run cannot fail");
    serde_json::to_string_pretty(&results).expect("serializable results")
}

#[test]
fn foundational_campaign_is_byte_identical_across_thread_counts() {
    let reference = foundational_json(1, 2025);
    for threads in [2, 8] {
        assert_eq!(
            reference,
            foundational_json(threads, 2025),
            "foundational campaign output changed between threads=1 and threads={threads}"
        );
    }
}

#[test]
fn in_depth_campaign_is_byte_identical_across_thread_counts() {
    let reference = in_depth_json(1, 5025);
    for threads in [2, 8] {
        assert_eq!(
            reference,
            in_depth_json(threads, 5025),
            "in-depth campaign output changed between threads=1 and threads={threads}"
        );
    }
}

#[test]
fn campaign_seed_changes_the_results() {
    // The other direction of the determinism contract: different
    // campaign seeds must actually produce different measurements.
    assert_ne!(foundational_json(2, 2025), foundational_json(2, 4242));
}

/// Compares `actual` against `tests/golden/<name>`, or rewrites the
/// file when `UPDATE_GOLDEN` names this suite (see `tests/util/golden.rs`).
fn assert_golden(name: &str, actual: &str) {
    golden::assert_golden("parallel_determinism", name, actual);
}

#[test]
fn golden_foundational_seed_2025() {
    assert_golden("foundational_seed_2025.json", &foundational_json(4, 2025));
}

#[test]
fn golden_foundational_seed_4242() {
    assert_golden("foundational_seed_4242.json", &foundational_json(4, 4242));
}

#[test]
fn golden_in_depth_seed_5025() {
    assert_golden("in_depth_seed_5025.json", &in_depth_json(4, 5025));
}
