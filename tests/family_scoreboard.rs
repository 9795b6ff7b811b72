//! Cross-family findings scoreboard and roster invariants.
//!
//! The device-family redesign must leave the paper's findings intact on
//! DDR4 *and* make them reproducible on the HBM2 family: this suite
//! runs the full scoreboard (F1–F17 plus the family findings F20/F21)
//! with both families in scope, pins it to a golden snapshot, and
//! asserts the underlying campaigns are byte-identical at 1, 2, and 8
//! worker threads. It also pins the roster invariants the family API
//! promises: every Table-1 name resolves, and the family scopes
//! partition the roster disjointly and exhaustively under sharding.

use std::collections::BTreeSet;

use vrd_dram::fleet::{shard_specs, FleetScope};
use vrd_dram::{DramStandard, ModuleSpec};
use vrd_experiments::studies::Studies;
use vrd_experiments::{findings, Options};

#[path = "util/golden.rs"]
mod golden;

fn scoreboard_opts(threads: usize) -> Options {
    Options {
        modules: vec!["M1".into(), "S0".into(), "Chip0".into(), "Chip2".into()],
        foundational_measurements: 1_000,
        indepth_measurements: 80,
        threads,
        ..Options::default()
    }
}

/// Runs the scoreboard campaigns at one thread count, returning the
/// rendered PASS/FAIL lines and the serialized in-depth study (the
/// thread-invariance witness).
fn scoreboard(threads: usize) -> (String, String) {
    let opts = scoreboard_opts(threads);
    let studies = Studies::new(&opts);
    let d = studies.indepth();
    let mut checks = findings::check_foundational(studies.foundational());
    checks.extend(findings::check_indepth(d));
    checks.extend(findings::check_cells(d));
    checks.extend(findings::check_family(studies.family()));

    let failing: String = checks
        .iter()
        .filter(|c| !c.passed)
        .map(|c| format!("  F{}: {} — {}\n", c.id, c.title, c.detail))
        .collect();
    assert!(failing.is_empty(), "findings regressed on the two-family scope:\n{failing}");

    let lines: String = checks
        .iter()
        .map(|c| format!("F{} {}", c.id, if c.passed { "PASS" } else { "FAIL" }))
        .collect::<Vec<_>>()
        .join("\n");
    let indepth_json = serde_json::to_string(&d.per_module).expect("in-depth study serializes");
    (lines, indepth_json)
}

#[test]
fn hbm2_scoreboard_matches_golden_at_every_thread_count() {
    let (lines, indepth_t1) = scoreboard(1);
    assert!(lines.contains("F20 PASS"), "HBM2 bank-variation finding missing:\n{lines}");
    assert!(lines.contains("F21 PASS"), "HBM2 worst-bank finding missing:\n{lines}");
    golden::assert_golden("family_scoreboard", "findings_scoreboard_hbm2.txt", &lines);

    for threads in [2, 8] {
        let (other_lines, other_indepth) = scoreboard(threads);
        assert_eq!(other_lines, lines, "scoreboard drifted at {threads} threads");
        assert_eq!(
            other_indepth, indepth_t1,
            "in-depth campaign is not byte-identical at {threads} threads"
        );
    }
}

#[test]
fn every_table1_name_resolves() {
    let roster = ModuleSpec::table1();
    assert_eq!(roster.len(), 25);
    for spec in &roster {
        let found = ModuleSpec::by_name(&spec.name)
            .unwrap_or_else(|| panic!("{} must resolve via by_name", spec.name));
        assert_eq!(&found, spec, "{}: by_name returns a different spec", spec.name);
        // Every roster entry must also carry a coherent family
        // descriptor: positive geometry and matching standard.
        let family = found.family();
        assert_eq!(family.standard, found.standard, "{}", spec.name);
        assert!(family.topology.banks() > 0, "{}", spec.name);
        assert!(family.topology.rows_per_bank > 0, "{}", spec.name);
    }
}

#[test]
fn family_scopes_partition_the_roster() {
    let names = |specs: &[ModuleSpec]| -> BTreeSet<String> {
        specs.iter().map(|s| s.name.clone()).collect()
    };
    let all = names(&ModuleSpec::table1());

    let scoped = |scope: FleetScope| -> Vec<ModuleSpec> {
        Options { family: scope, ..Options::default() }.specs()
    };
    let ddr4 = scoped(FleetScope::Ddr4);
    let hbm2 = scoped(FleetScope::Hbm2);

    // Disjoint and exhaustive across families.
    assert!(names(&ddr4).is_disjoint(&names(&hbm2)));
    let union: BTreeSet<String> = names(&ddr4).union(&names(&hbm2)).cloned().collect();
    assert_eq!(union, all);
    assert!(ddr4.iter().all(|s| s.standard == DramStandard::Ddr4));
    assert!(hbm2.iter().all(|s| s.standard == DramStandard::Hbm2));

    // Sharding a family-filtered roster stays disjoint and exhaustive.
    for family in [&ddr4, &hbm2] {
        for count in [1usize, 2, 3] {
            let shards: Vec<Vec<ModuleSpec>> =
                (0..count).map(|i| shard_specs(family, i, count)).collect();
            let mut seen = BTreeSet::new();
            for shard in &shards {
                for spec in shard {
                    assert!(seen.insert(spec.name.clone()), "{} in two shards", spec.name);
                }
            }
            assert_eq!(seen, names(family), "sharding {count}-way dropped modules");
        }
    }
}
