//! The building blocks of the paper's Algorithm 1: row initialization,
//! double-sided hammering/pressing, read-and-compare, and RDT guessing.
//!
//! These are the `initialize_rows` / `hammer_doublesided` / `compare_data`
//! primitives of Alg. 1, expressed as DRAM-Bender test programs executed
//! on a [`TestPlatform`]. The RDT measurement loop itself lives in
//! `vrd-core` (it is the paper's contribution).

use vrd_dram::{Bitflip, DataPattern, TestConditions};

use crate::platform::TestPlatform;
use crate::search::first_true;

/// Write bursts needed to fill one row (the Appendix-A tables use 128
/// bursts of 64 bytes for an 8 KiB row).
pub const BURSTS_PER_ROW: u32 = 128;

/// Initializes the victim row, the two aggressors, and — when
/// `include_outer` — the surrounding rows V ± \[2..8\] with the pattern's
/// bytes (Table 2).
///
/// Returns the simulated time spent (ns).
///
/// # Panics
///
/// Panics if the addresses are invalid for the platform's device (the
/// campaign code validates row selection beforehand).
pub fn initialize_rows(
    platform: &mut TestPlatform,
    bank: usize,
    victim: u32,
    pattern: DataPattern,
    include_outer: bool,
) -> f64 {
    let rows = platform.device().config().rows_per_bank();
    let mut elapsed = 0.0;
    let mut init = |platform: &mut TestPlatform, row: u32, fill: u8| {
        elapsed += platform
            .run_init_row(bank, row, fill, BURSTS_PER_ROW)
            .expect("valid init program")
            .elapsed_ns;
    };

    init(platform, victim, pattern.victim_byte());
    let (below, above) = platform.device().config().mapping.neighbors_of(victim, rows);
    for aggressor in [below, above].into_iter().flatten() {
        init(platform, aggressor, pattern.aggressor_byte());
    }
    if include_outer {
        for dist in 2..=8u32 {
            for row in [victim.checked_sub(dist), victim.checked_add(dist)]
                .into_iter()
                .flatten()
                .filter(|&r| r < rows)
            {
                init(platform, row, pattern.outer_byte());
            }
        }
    }
    elapsed
}

/// Performs the paper's double-sided access pattern: `hammer_count`
/// activations of each physical neighbor of `victim`, holding each open
/// for `conditions.t_agg_on_ns` (RowHammer at min `t_RAS`, RowPress
/// beyond).
///
/// Returns the simulated time spent (ns).
pub fn hammer_double_sided(
    platform: &mut TestPlatform,
    bank: usize,
    victim: u32,
    hammer_count: u32,
    conditions: &TestConditions,
) -> f64 {
    let rows = platform.device().config().rows_per_bank();
    let (below, above) = platform.device().config().mapping.neighbors_of(victim, rows);
    let (a1, a2) = match (below, above) {
        (Some(a1), Some(a2)) => (a1, a2),
        (Some(a), None) | (None, Some(a)) => (a, a),
        (None, None) => return 0.0,
    };
    platform
        .run_double_sided_hammer(bank, a1, a2, hammer_count, conditions.t_agg_on_ns)
        .expect("valid hammer program")
        .elapsed_ns
}

/// Reads the victim row and compares against the pattern's victim byte,
/// returning the observed bitflips (Alg. 1's `compare_data`).
pub fn read_compare(
    platform: &mut TestPlatform,
    bank: usize,
    victim: u32,
    pattern: DataPattern,
) -> Vec<Bitflip> {
    platform.device_mut().read_and_compare(bank, victim, pattern.victim_byte())
}

/// One complete hammer *session*: initialize, hammer with `hammer_count`,
/// read and compare. Returns the bitflips.
pub fn hammer_session(
    platform: &mut TestPlatform,
    bank: usize,
    victim: u32,
    hammer_count: u32,
    conditions: &TestConditions,
) -> Vec<Bitflip> {
    platform.note_hammer_session();
    initialize_rows(platform, bank, victim, conditions.pattern, false);
    hammer_double_sided(platform, bank, victim, hammer_count, conditions);
    read_compare(platform, bank, victim, conditions.pattern)
}

/// Estimates a row's RDT by exponential search followed by bisection
/// (Alg. 1's `guess_RDT` primitive). Returns `None` when the row does not
/// flip within `max_hammer_count`.
///
/// The returned estimate is a single noisy sample of the row's RDT; the
/// paper averages several (`vrd-core` does that too).
pub fn guess_rdt(
    platform: &mut TestPlatform,
    bank: usize,
    victim: u32,
    conditions: &TestConditions,
    max_hammer_count: u32,
) -> Option<u32> {
    if max_hammer_count == 0 {
        return None;
    }
    // Exponential probe upward, starting no higher than the cap (so caps
    // below the historical 512 start still get probed) and always ending
    // on the cap itself before declaring the row non-flipping.
    let mut lo = 0u32;
    let mut hc = 512u32.min(max_hammer_count);
    let hi = loop {
        if !hammer_session(platform, bank, victim, hc, conditions).is_empty() {
            break hc;
        }
        if hc >= max_hammer_count {
            return None;
        }
        lo = hc;
        hc = hc.saturating_mul(2).min(max_hammer_count);
    };
    // Refine to ~3% precision over a uniform grid of counts in (lo, hi]
    // with the shared gallop+bisect primitive. The per-session threshold
    // is noisy, so the probe is not strictly monotone; when the search
    // finds no flip at all, `hi` (which did flip above) is the estimate.
    let step = ((hi - lo) / 32).max(1);
    let n = ((hi - lo) / step) as usize;
    let first = first_true(n, |i| {
        let count = lo + (i as u32 + 1) * step;
        !hammer_session(platform, bank, victim, count, conditions).is_empty()
    });
    Some(first.map_or(hi, |i| lo + (i as u32 + 1) * step))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_dram::TestConditions;

    /// Finds a row with a usable weak cell for routine tests.
    fn vulnerable_row(platform: &mut TestPlatform) -> u32 {
        let cond = TestConditions::foundational();
        for row in 2..4000 {
            if let Some(t) = platform.device_mut().oracle_row_threshold(0, row, &cond) {
                if t < 15_000.0 {
                    return row;
                }
            }
        }
        panic!("no vulnerable row found");
    }

    #[test]
    fn initialize_rows_writes_all_three() {
        let mut p = TestPlatform::small_test(5);
        let elapsed = initialize_rows(&mut p, 0, 100, DataPattern::Checkered0, false);
        assert!(elapsed > 0.0);
        let dev = p.device_mut();
        dev.activate(0, 100).unwrap();
        assert!(dev.read_open_row(0, 100).unwrap().iter().all(|&b| b == 0x55));
        dev.precharge(0).unwrap();
        dev.activate(0, 99).unwrap();
        assert!(dev.read_open_row(0, 99).unwrap().iter().all(|&b| b == 0xAA));
        dev.precharge(0).unwrap();
    }

    #[test]
    fn initialize_with_outer_rows_costs_more() {
        let mut a = TestPlatform::small_test(5);
        let without = initialize_rows(&mut a, 0, 100, DataPattern::Rowstripe0, false);
        let mut b = TestPlatform::small_test(5);
        let with = initialize_rows(&mut b, 0, 100, DataPattern::Rowstripe0, true);
        assert!(with > without * 4.0);
    }

    #[test]
    fn session_with_huge_count_flips_vulnerable_row() {
        let mut p = TestPlatform::small_test(5);
        let victim = vulnerable_row(&mut p);
        let cond = TestConditions::foundational();
        let flips = hammer_session(&mut p, 0, victim, 400_000, &cond);
        assert!(!flips.is_empty());
    }

    #[test]
    fn session_with_tiny_count_is_clean() {
        let mut p = TestPlatform::small_test(5);
        let victim = vulnerable_row(&mut p);
        let cond = TestConditions::foundational();
        let flips = hammer_session(&mut p, 0, victim, 3, &cond);
        assert!(flips.is_empty());
    }

    #[test]
    fn guess_rdt_brackets_oracle_threshold() {
        let mut p = TestPlatform::small_test(5);
        let victim = vulnerable_row(&mut p);
        let cond = TestConditions::foundational();
        let guess = guess_rdt(&mut p, 0, victim, &cond, 1 << 20).expect("row flips");
        let oracle = p.device_mut().oracle_row_threshold(0, victim, &cond).unwrap();
        // The threshold fluctuates between sessions (that is the point of
        // the paper); the guess lands within a generous band around the
        // oracle value.
        assert!(
            f64::from(guess) > oracle * 0.3 && f64::from(guess) < oracle * 3.0,
            "guess {guess} vs oracle {oracle}"
        );
    }

    #[test]
    fn guess_rdt_none_for_strong_row() {
        let mut p = TestPlatform::small_test(5);
        // Find a row without weak cells.
        let cond = TestConditions::foundational();
        let strong = (2..4000)
            .find(|&r| p.device_mut().oracle_row_threshold(0, r, &cond).is_none())
            .expect("some row has no weak cell");
        assert_eq!(guess_rdt(&mut p, 0, strong, &cond, 1 << 16), None);
    }

    #[test]
    fn guess_rdt_works_below_old_gallop_start() {
        // Regression: the gallop used to start at a hard-coded 512, so a
        // cap below 512 (or a module whose RDTs sit below it) returned
        // `None` without a single probe.
        use vrd_dram::device::{DeviceConfig, DramDevice};
        let mut cfg = DeviceConfig::small_test();
        cfg.vrd.median_rdt = 100.0;
        cfg.vrd.weak_cells_per_row = 3.0;
        let mut p = TestPlatform::new(DramDevice::new(cfg, 9), crate::timing::TimingParams::ddr4());
        let victim = vulnerable_row(&mut p);
        let guess =
            guess_rdt(&mut p, 0, victim, &TestConditions::foundational(), 450).expect("flips");
        assert!(guess <= 450, "estimate {guess} must respect the cap");
    }

    #[test]
    fn guess_rdt_probes_the_cap_before_censoring() {
        // Regression: the gallop used to overstep the cap without ever
        // probing the cap itself, censoring rows whose RDT lies between
        // the last power-of-two probe and the cap. On a never-flipping
        // row the probe sequence is deterministic: 512, 1024, …, 65536
        // and then the cap itself — 9 sessions, where the old code
        // stopped at 8 without testing 100 000.
        let mut p = TestPlatform::small_test(5);
        let cond = TestConditions::foundational();
        let strong = (2..4000)
            .find(|&r| p.device_mut().oracle_row_threshold(0, r, &cond).is_none())
            .expect("some row has no weak cell");
        assert_eq!(guess_rdt(&mut p, 0, strong, &cond, 100_000), None);
        assert_eq!(p.hammer_sessions(), 9, "the cap must be probed before censoring");
    }

    #[test]
    fn guess_rdt_terminates_at_u32_max_cap() {
        // Regression: with `max_hammer_count == u32::MAX` the saturating
        // doubling used to pin `hc` at the cap and loop forever on a row
        // that never flips.
        let mut p = TestPlatform::small_test(5);
        let cond = TestConditions::foundational();
        let strong = (2..4000)
            .find(|&r| p.device_mut().oracle_row_threshold(0, r, &cond).is_none())
            .expect("some row has no weak cell");
        assert_eq!(guess_rdt(&mut p, 0, strong, &cond, u32::MAX), None);
    }

    #[test]
    fn hammer_sessions_are_counted() {
        let mut p = TestPlatform::small_test(5);
        let cond = TestConditions::foundational();
        assert_eq!(p.hammer_sessions(), 0);
        hammer_session(&mut p, 0, 100, 50, &cond);
        hammer_session(&mut p, 0, 100, 50, &cond);
        assert_eq!(p.hammer_sessions(), 2);
    }

    #[test]
    fn repeated_sessions_hit_the_program_cache() {
        let mut p = TestPlatform::small_test(5);
        let cond = TestConditions::foundational();
        for _ in 0..4 {
            hammer_session(&mut p, 0, 100, 1_000, &cond);
        }
        let (hits, builds) = p.program_cache_stats();
        assert!(builds <= 4, "4 identical sessions need at most 4 distinct programs");
        assert!(hits >= 12, "repeat sessions must reuse cached programs (hits={hits})");
    }

    #[test]
    fn hammering_accrues_platform_time() {
        let mut p = TestPlatform::small_test(5);
        let cond = TestConditions::foundational();
        let t = hammer_double_sided(&mut p, 0, 100, 10_000, &cond);
        assert!(t > 0.0);
        assert_eq!(p.elapsed_ns(), t);
    }
}
