//! Profile a module's VRD behaviour the way a DRAM vendor would have to:
//! select vulnerable rows, measure each repeatedly under several data
//! patterns, and report how unreliable few-shot RDT estimation is.
//!
//! This is a miniature of the paper's §5 in-depth campaign, showing the
//! per-row probability of finding the minimum RDT with N measurements
//! (Fig. 8) directly from the library API.
//!
//! Run with: `cargo run --release --example profile_module -- [module]`

use vrd::core::campaign::{in_depth_campaign, InDepthConfig};
use vrd::core::exec::ExecConfig;
use vrd::core::montecarlo::exact_stats;
use vrd::core::run::RunOptions;
use vrd::dram::conditions::T_AGG_ON_MIN_TRAS_NS;
use vrd::dram::{DataPattern, ModuleSpec, TestConditions};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "S0".to_owned());
    let spec = match ModuleSpec::by_name(&name) {
        Some(spec) => spec,
        None => {
            eprintln!("unknown module {name:?}; use a Table-1 name like M1, S0, H3, Chip0");
            std::process::exit(2);
        }
    };
    println!("profiling {name} (min observed RDT anchor: {})", spec.anchor.min_rdt_tras);

    let conditions: Vec<TestConditions> = DataPattern::ALL
        .into_iter()
        .map(|pattern| TestConditions {
            pattern,
            t_agg_on_ns: T_AGG_ON_MIN_TRAS_NS,
            temperature_c: 50.0,
        })
        .collect();
    let cfg = InDepthConfig {
        measurements: 200,
        segment_rows: 128,
        picks_per_segment: 5,
        conditions,
        seed: 99,
        row_bytes: 1024,
    };
    let opts = RunOptions::new(ExecConfig::new(1, cfg.seed));
    let result = in_depth_campaign(&[spec], &cfg, &opts).expect("plain run cannot fail").remove(0);

    println!("\nrow      pattern      min RDT  max/min   P(min|N=1)  E[min|N=1]/min");
    println!("---------------------------------------------------------------------");
    for row in &result.rows {
        for cs in &row.per_condition {
            let stats = exact_stats(&cs.series, 1);
            println!(
                "{:<8} {:<12} {:<8} {:<9.3} {:<11.4} {:.4}",
                row.row,
                cs.conditions.pattern.name(),
                cs.series.min().unwrap_or(0),
                cs.series.max_over_min().unwrap_or(1.0),
                stats.p_find_min,
                stats.expected_normalized_min,
            );
        }
    }

    // The takeaway-2 aggregate: how does reliability grow with N?
    println!("\nmeasurements (N) vs median probability of finding the row's minimum RDT:");
    for n in [1usize, 3, 5, 10, 50] {
        let mut probabilities: Vec<f64> = result
            .rows
            .iter()
            .flat_map(|r| r.per_condition.iter())
            .filter(|cs| cs.series.len() >= n)
            .map(|cs| exact_stats(&cs.series, n).p_find_min)
            .collect();
        probabilities.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        if probabilities.is_empty() {
            continue;
        }
        let median = probabilities[probabilities.len() / 2];
        println!("  N = {n:<4} median P = {median:.4}");
    }
    println!("\n(Takeaway 2: even many measurements do not reliably find the minimum.)");
}
