//! Fig. 14: mitigation performance overheads under guardbanded RDTs.

use serde::{Deserialize, Serialize};

use vrd_memsim::system::{SimConfig, SimStats, System};
use vrd_memsim::workload::WorkloadParams;
use vrd_memsim::MitigationKind;

use crate::opts::Options;
use crate::render::{f, Table};

/// The RDT values evaluated in Fig. 14.
pub const RDT_VALUES: [u32; 2] = [1024, 128];

/// The guardband margins evaluated in Fig. 14.
pub const MARGINS: [f64; 4] = [0.0, 0.10, 0.25, 0.50];

/// The threshold a mechanism is configured with at `rdt` under a
/// guardband of `margin`.
pub fn effective_threshold(rdt: u32, margin: f64) -> u32 {
    (f64::from(rdt) * (1.0 - margin)).round().max(1.0) as u32
}

/// Normalized performance of one mitigation at one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig14Point {
    /// Mitigation evaluated.
    pub mitigation: MitigationKind,
    /// Nominal RDT.
    pub rdt: u32,
    /// Guardband margin.
    pub margin: f64,
    /// Effective threshold after the guardband.
    pub effective_threshold: u32,
    /// Weighted speedup normalized to the unmitigated baseline, averaged
    /// over the workload mixes.
    pub normalized_performance: f64,
}

/// The full Fig. 14 sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig14Result {
    /// All points.
    pub points: Vec<Fig14Point>,
    /// Number of workload mixes averaged.
    pub mixes: usize,
}

/// Runs the Fig. 14 sweep. The unmitigated baseline reads neither the
/// threshold nor the mitigation seed, so each mix's baseline runs once
/// and serves every cell.
pub fn run(opts: &Options) -> Fig14Result {
    let mixes: Vec<(SimConfig, u64, SimStats)> = WorkloadParams::paper_mixes()
        .into_iter()
        .take(opts.mixes.max(1))
        .enumerate()
        .map(|(mix_idx, mix)| {
            let cfg = SimConfig { cycles: opts.sim_cycles, banks: 16, mix };
            let seed = opts.seed ^ ((mix_idx as u64) << 16);
            (cfg, seed, System::run_mix(&cfg, MitigationKind::None, u32::MAX, seed))
        })
        .collect();
    let mut points = Vec::new();
    for &rdt in &RDT_VALUES {
        for &margin in &MARGINS {
            let effective = effective_threshold(rdt, margin);
            for kind in MitigationKind::EVALUATED {
                let mut sum = 0.0;
                for (cfg, seed, baseline) in &mixes {
                    let mitigated = System::run_mix(cfg, kind, effective, *seed);
                    sum += mitigated.weighted_ipc(baseline);
                }
                points.push(Fig14Point {
                    mitigation: kind,
                    rdt,
                    margin,
                    effective_threshold: effective,
                    normalized_performance: sum / mixes.len() as f64,
                });
            }
        }
    }
    Fig14Result { points, mixes: mixes.len() }
}

/// Renders Fig. 14.
pub fn render(result: &Fig14Result) -> String {
    let mut table = Table::new(["RDT", "margin", "effective", "Graphene", "PRAC", "PARA", "MINT"]);
    for &rdt in &RDT_VALUES {
        for &margin in &MARGINS {
            let get = |kind: MitigationKind| -> String {
                result
                    .points
                    .iter()
                    .find(|p| {
                        p.mitigation == kind && p.rdt == rdt && (p.margin - margin).abs() < 1e-9
                    })
                    .map(|p| f(p.normalized_performance, 3))
                    .unwrap_or_else(|| "-".into())
            };
            let effective = effective_threshold(rdt, margin);
            table.row([
                rdt.to_string(),
                format!("{:.0}%", margin * 100.0),
                effective.to_string(),
                get(MitigationKind::Graphene),
                get(MitigationKind::Prac),
                get(MitigationKind::Para),
                get(MitigationKind::Mint),
            ]);
        }
    }
    format!(
        "Fig. 14 — normalized performance vs the unmitigated baseline \
         ({} four-core memory-intensive mixes):\n{}",
        result.mixes,
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn smoke_result() -> &'static Fig14Result {
        static RESULT: OnceLock<Fig14Result> = OnceLock::new();
        RESULT.get_or_init(|| {
            let mut opts = Options::smoke();
            opts.mixes = 2;
            opts.sim_cycles = 150_000;
            run(&opts)
        })
    }

    /// The performance a mitigation loses going from no margin to
    /// `margin` at `rdt` (the paper's "reduces by X% compared to no
    /// margin").
    fn margin_cost(result: &Fig14Result, kind: MitigationKind, rdt: u32, margin: f64) -> f64 {
        let at = |m: f64| {
            result
                .points
                .iter()
                .find(|p| p.mitigation == kind && p.rdt == rdt && (p.margin - m).abs() < 1e-9)
                .map(|p| p.normalized_performance)
                .expect("grid point")
        };
        at(0.0) - at(margin)
    }

    #[test]
    fn covers_all_configurations() {
        let r = smoke_result();
        assert_eq!(r.points.len(), 2 * 4 * 4);
    }

    #[test]
    fn performance_is_normalized() {
        for p in &smoke_result().points {
            assert!(
                p.normalized_performance > 0.2 && p.normalized_performance <= 1.05,
                "{:?} out of range: {}",
                p.mitigation,
                p.normalized_performance
            );
        }
    }

    #[test]
    fn larger_guardband_costs_more_at_low_rdt() {
        // The paper's key observation: a 50% margin at RDT 128 hurts
        // PARA and MINT substantially more than a 10% margin.
        let r = smoke_result();
        for kind in [MitigationKind::Para, MitigationKind::Mint] {
            let c10 = margin_cost(r, kind, 128, 0.10);
            let c50 = margin_cost(r, kind, 128, 0.50);
            assert!(
                c50 >= c10 - 0.02,
                "{}: 50% margin must cost at least as much as 10% ({c50} vs {c10})",
                kind.name()
            );
        }
    }

    #[test]
    fn render_mentions_all_mitigations() {
        let s = render(smoke_result());
        for name in ["Graphene", "PRAC", "PARA", "MINT"] {
            assert!(s.contains(name));
        }
    }
}
