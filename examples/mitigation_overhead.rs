//! What does a guardband cost in system performance? (paper §6.3, Fig. 14)
//!
//! Runs the cycle-level DDR5 memory-system simulator with four
//! read-disturbance mitigations at RDT 1024 and 128 under increasing
//! guardbands, printing performance normalized to the unmitigated
//! baseline.
//!
//! Run with: `cargo run --release --example mitigation_overhead`

use vrd::memsim::system::{SimConfig, SimStats, System};
use vrd::memsim::workload::WorkloadParams;
use vrd::memsim::MitigationKind;

fn main() {
    let cycles = 500_000u64;
    // The unmitigated baseline reads neither the threshold nor the
    // mitigation seed: one run per mix serves every cell.
    let mixes: Vec<(SimConfig, u64, SimStats)> = WorkloadParams::paper_mixes()
        .into_iter()
        .take(3)
        .enumerate()
        .map(|(i, mix)| {
            let cfg = SimConfig { cycles, banks: 16, mix };
            let seed = 7 ^ ((i as u64) << 8);
            (cfg, seed, System::run_mix(&cfg, MitigationKind::None, u32::MAX, seed))
        })
        .collect();

    println!("4-core memory-intensive mixes: {} | {} ns simulated per run\n", mixes.len(), cycles);
    println!("RDT    margin  effective  Graphene  PRAC    PARA    MINT");
    println!("----------------------------------------------------------");
    for rdt in [1024u32, 128] {
        for margin in [0.0f64, 0.10, 0.25, 0.50] {
            let effective = ((f64::from(rdt)) * (1.0 - margin)).round().max(1.0) as u32;
            let mut cells = Vec::new();
            for kind in MitigationKind::EVALUATED {
                let mut sum = 0.0;
                for (cfg, seed, baseline) in &mixes {
                    let run = System::run_mix(cfg, kind, effective, *seed);
                    sum += run.weighted_ipc(baseline);
                }
                cells.push(sum / mixes.len() as f64);
            }
            println!(
                "{:<6} {:<7} {:<10} {:<9.3} {:<7.3} {:<7.3} {:.3}",
                rdt,
                format!("{:.0}%", margin * 100.0),
                effective,
                cells[0],
                cells[1],
                cells[2],
                cells[3],
            );
        }
        println!();
    }
    println!("(paper: a 50% guardband at RDT 128 costs PARA ~35% and MINT ~45%,");
    println!(" while counter-based Graphene/PRAC degrade far more gracefully.)");
}
