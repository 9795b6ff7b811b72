//! Online RDT profiling with attack-driven validation — the paper's two
//! future-work directions (§6.5) working together.
//!
//! 1. An online profiler opportunistically re-measures tracked rows and
//!    maintains a guardbanded threshold recommendation.
//! 2. A runtime-configurable mitigation adopts each recommendation; we
//!    replay a continuous hammer attack against every configuration and
//!    report how the escape rate falls as the profile matures.
//!
//! Run with: `cargo run --release --example online_profiling`

use vrd::bender::TestPlatform;
use vrd::core::campaign::select_rows;
use vrd::core::online::OnlineProfiler;
use vrd::core::{find_victim, test_loop, SweepSpec};
use vrd::dram::{ModuleSpec, TestConditions};
use vrd::memsim::security::{simulate_attack, AttackConfig, SpatialVictim};
use vrd::memsim::{MitigationKind, MitigationProfile};

fn main() {
    let spec = ModuleSpec::by_name("S2").expect("S2 is in Table 1");
    let mut platform = TestPlatform::for_module_with_row_bytes(spec, 2026, 1024);
    platform.set_temperature_c(50.0);
    let conditions = TestConditions::foundational();

    // Track a handful of vulnerable rows, like a controller would after
    // manufacturing test flagged them.
    let rows: Vec<u32> =
        select_rows(&mut platform, 0, &conditions, 128, 5, 2).into_iter().map(|(r, _)| r).collect();
    println!("tracking {} rows on S2", rows.len());

    // Ground truth for the attack: a long measured RDT series of the
    // most vulnerable tracked row.
    let (victim, guess) = find_victim(&mut platform, 0, &conditions, 40_000, 2..20_000)
        .expect("vulnerable row exists");
    let truth =
        test_loop(&mut platform, 0, victim, &conditions, 1_500, &SweepSpec::from_guess(guess));
    println!(
        "ground-truth distribution: min {} / max {} over {} measurements\n",
        truth.min().unwrap(),
        truth.max().unwrap(),
        truth.len()
    );

    let mut profiler = OnlineProfiler::new(0.15, conditions);
    println!("rounds  observed-min  recommendation  instability  escapes/M (Graphene)");
    println!("--------------------------------------------------------------------------");
    for checkpoint in [1u32, 2, 5, 10, 20, 40] {
        while profiler.profile(rows[0]).map(|p| p.measurements).unwrap_or(0) < checkpoint {
            profiler.profile_round(&mut platform, &rows);
        }
        let Some(rec) = profiler.global_recommendation() else { continue };
        let observed = (f64::from(rec) / (1.0 - profiler.guardband())).round() as u32;
        // Reconfigure the mitigation with the current recommendation and
        // replay the attack against the ground-truth distribution.
        let attack = AttackConfig {
            activations: 2_000_000,
            rdt_distribution: truth.values().to_vec(),
            victims: vec![SpatialVictim { row: 7, factor: 1.0 }],
            seed: 9,
        };
        let mut graphene = MitigationKind::Graphene.build(&MitigationProfile::flat(rec), 1, 9);
        let result = simulate_attack(graphene.as_mut(), &attack);
        println!(
            "{checkpoint:<7} {observed:<13} {rec:<15} {:<12.3} {:.3}",
            profiler.instability(),
            result.escapes_per_million(),
        );
    }

    println!(
        "\nprofiling cost so far: {:.1} ms of DRAM traffic",
        profiler.profiling_time_ns() / 1e6
    );
    println!("(§6.5: online profiling + runtime-configurable mitigations can chase");
    println!(" the moving minimum, at the price of permanent profiling overhead.)");
}
