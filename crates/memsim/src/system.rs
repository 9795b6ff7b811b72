//! The assembled memory system: cores + per-bank queues + FR-FCFS
//! scheduling + DRAM channel + mitigation.

use serde::{Deserialize, Serialize};

use crate::cpu::Core;
use crate::dram::{DramChannel, DramTiming};
use crate::mitigation::{Mitigation, MitigationAction, MitigationKind};
use crate::profile::MitigationProfile;
use crate::workload::{AccessStream, WorkloadParams};

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulated nanoseconds.
    pub cycles: u64,
    /// DRAM banks in the channel.
    pub banks: usize,
    /// The four cores' workload parameters.
    pub mix: [WorkloadParams; 4],
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { cycles: 1_000_000, banks: 16, mix: WorkloadParams::paper_mixes()[0] }
    }
}

/// Simulation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Instructions committed per core.
    pub instructions: Vec<u64>,
    /// Simulated nanoseconds.
    pub cycles: u64,
    /// Total row activations.
    pub activations: u64,
    /// Preventive operations (neighbor refreshes, back-offs, RFMs).
    pub preventive_ops: u64,
    /// Periodic refreshes.
    pub refreshes: u64,
}

impl SimStats {
    /// Per-core IPC values.
    pub fn ipcs(&self) -> Vec<f64> {
        self.instructions.iter().map(|&i| i as f64 / self.cycles as f64).collect()
    }

    /// Weighted speedup relative to a baseline run of the same mix
    /// (the paper's Fig.-14 normalized-performance metric):
    /// `Σ IPCᵢ/IPCᵢ_baseline / n`.
    ///
    /// # Panics
    ///
    /// Panics if the baseline has a different core count or zero IPC.
    pub fn weighted_ipc(&self, baseline: &SimStats) -> f64 {
        assert_eq!(self.instructions.len(), baseline.instructions.len());
        let mine = self.ipcs();
        let base = baseline.ipcs();
        let mut sum = 0.0;
        for (m, b) in mine.iter().zip(&base) {
            assert!(*b > 0.0, "baseline core must make progress");
            sum += m / b;
        }
        sum / mine.len() as f64
    }
}

/// One in-flight memory request.
#[derive(Debug, Clone, Copy)]
struct QueuedRequest {
    core: usize,
    row: u32,
    arrival: u64,
}

/// The four-core memory system under one mitigation.
#[derive(Debug)]
pub struct System {
    cores: Vec<Core>,
    channel: DramChannel,
    queues: Vec<Vec<QueuedRequest>>,
    completions: Vec<(u64, usize)>,
    mitigation: Box<dyn Mitigation>,
    /// The mitigation's action buffer, reused by every hook call.
    actions: Vec<MitigationAction>,
    now: u64,
}

impl System {
    /// Builds a system for `cfg` with the given mitigation at the given
    /// uniform effective threshold.
    pub fn new(cfg: &SimConfig, kind: MitigationKind, threshold: u32, seed: u64) -> Self {
        let cores = cfg
            .mix
            .iter()
            .enumerate()
            .map(|(i, p)| Core::new(AccessStream::new(*p, cfg.banks, seed ^ (i as u64) << 32)))
            .collect();
        System {
            cores,
            channel: DramChannel::new(cfg.banks, DramTiming::default()),
            queues: vec![Vec::new(); cfg.banks],
            completions: Vec::new(),
            mitigation: kind.build(&MitigationProfile::flat(threshold), cfg.banks, seed),
            actions: Vec::new(),
            now: 0,
        }
    }

    /// Runs a full simulation and returns the statistics.
    pub fn run_mix(cfg: &SimConfig, kind: MitigationKind, threshold: u32, seed: u64) -> SimStats {
        let mut system = System::new(cfg, kind, threshold, seed);
        system.run_for(cfg.cycles);
        system.stats()
    }

    /// Advances the system by `cycles` nanoseconds.
    pub fn run_for(&mut self, cycles: u64) {
        let end = self.now + cycles;
        while self.now < end {
            self.step();
        }
    }

    /// The statistics so far.
    pub fn stats(&self) -> SimStats {
        SimStats {
            instructions: self.cores.iter().map(|c| c.instructions).collect(),
            cycles: self.now,
            activations: self.channel.total_activations(),
            preventive_ops: self.channel.preventive_ops,
            refreshes: self.channel.refreshes,
        }
    }

    fn step(&mut self) {
        let now = self.now;

        // Periodic refresh (and the mitigation's REF-time hook).
        if self.channel.maybe_refresh(now) {
            self.mitigation.on_refresh(&mut self.actions);
            self.apply_actions(now);
        }

        // Deliver completed requests.
        let mut i = 0;
        while i < self.completions.len() {
            if self.completions[i].0 <= now {
                let (_, core) = self.completions.swap_remove(i);
                self.cores[core].complete_miss();
            } else {
                i += 1;
            }
        }

        // Step cores and enqueue their requests.
        for (core_idx, core) in self.cores.iter_mut().enumerate() {
            core.step();
            if let Some(access) = core.take_request() {
                self.queues[access.bank].push(QueuedRequest {
                    core: core_idx,
                    row: access.row,
                    arrival: now,
                });
            }
        }

        // FR-FCFS per bank: serve the oldest row hit, else the oldest.
        for bank in 0..self.queues.len() {
            let Some(pick) = self.pick_request(bank) else {
                continue;
            };
            let row = self.queues[bank][pick].row;
            let was_hit = self.channel.is_row_hit(bank, row);
            if let Some(done_at) = self.channel.service(bank, row, now) {
                let req = self.queues[bank].swap_remove(pick);
                self.completions.push((done_at, req.core));
            } else if !was_hit && self.channel.is_row_hit(bank, row) {
                // An activation just happened: inform the mitigation.
                self.mitigation.on_activate(bank, row, 1, &mut self.actions);
                self.apply_actions(now);
            }
        }

        self.now += 1;
    }

    fn pick_request(&self, bank: usize) -> Option<usize> {
        let queue = &self.queues[bank];
        if queue.is_empty() {
            return None;
        }
        // Oldest row hit first; otherwise the oldest request.
        let mut best_idx = 0usize;
        let mut best_hit = self.channel.is_row_hit(bank, queue[0].row);
        let mut best_arrival = queue[0].arrival;
        for (i, req) in queue.iter().enumerate().skip(1) {
            let hit = self.channel.is_row_hit(bank, req.row);
            let better = (hit && !best_hit) || (hit == best_hit && req.arrival < best_arrival);
            if better {
                best_idx = i;
                best_hit = hit;
                best_arrival = req.arrival;
            }
        }
        Some(best_idx)
    }

    /// Applies and empties the buffered mitigation actions.
    fn apply_actions(&mut self, now: u64) {
        let t_rfm = self.channel.timing().t_rfm;
        for action in self.actions.drain(..) {
            match action {
                MitigationAction::RefreshNeighbors { bank, .. } => {
                    self.channel.block_bank(bank, now, t_rfm);
                }
                MitigationAction::BlockBank { bank, duration } => {
                    self.channel.block_bank(bank, now, duration);
                }
                MitigationAction::BlockChannel { duration } => {
                    self.channel.block_all(now, duration);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SimConfig {
        SimConfig { cycles: 120_000, ..SimConfig::default() }
    }

    #[test]
    fn baseline_makes_progress() {
        let stats = System::run_mix(&quick_cfg(), MitigationKind::None, 1024, 1);
        assert_eq!(stats.instructions.len(), 4);
        for &i in &stats.instructions {
            assert!(i > 1_000, "every core must commit instructions, got {i}");
        }
        assert!(stats.activations > 100);
        assert!(stats.refreshes > 10);
        assert_eq!(stats.preventive_ops, 0);
    }

    #[test]
    fn baseline_weighted_ipc_is_one_against_itself() {
        let stats = System::run_mix(&quick_cfg(), MitigationKind::None, 1024, 1);
        assert!((stats.weighted_ipc(&stats) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mitigations_never_speed_things_up() {
        let cfg = quick_cfg();
        let baseline = System::run_mix(&cfg, MitigationKind::None, 128, 7);
        for kind in MitigationKind::EVALUATED {
            let stats = System::run_mix(&cfg, kind, 128, 7);
            let ws = stats.weighted_ipc(&baseline);
            assert!(ws <= 1.02, "{} gave weighted speedup {ws} > 1", kind.name());
        }
    }

    #[test]
    fn para_overhead_grows_with_smaller_threshold() {
        let cfg = quick_cfg();
        let baseline = System::run_mix(&cfg, MitigationKind::None, 1024, 3);
        let high = System::run_mix(&cfg, MitigationKind::Para, 1024, 3);
        let low = System::run_mix(&cfg, MitigationKind::Para, 64, 3);
        assert!(
            low.weighted_ipc(&baseline) < high.weighted_ipc(&baseline),
            "PARA at RDT 64 must be slower than at 1024"
        );
    }

    #[test]
    fn mint_cliff_below_acts_per_trefi() {
        let cfg = quick_cfg();
        let baseline = System::run_mix(&cfg, MitigationKind::None, 1024, 5);
        let high = System::run_mix(&cfg, MitigationKind::Mint, 1024, 5);
        let low = System::run_mix(&cfg, MitigationKind::Mint, 64, 5);
        let ws_high = high.weighted_ipc(&baseline);
        let ws_low = low.weighted_ipc(&baseline);
        assert!(ws_high > 0.97, "MINT at 1024 is near-free, got {ws_high}");
        assert!(ws_low < ws_high - 0.02, "MINT at 64 pays for RFMs: {ws_low} vs {ws_high}");
    }

    #[test]
    fn graphene_is_cheap_at_high_threshold() {
        let cfg = quick_cfg();
        let baseline = System::run_mix(&cfg, MitigationKind::None, 1024, 11);
        let g = System::run_mix(&cfg, MitigationKind::Graphene, 1024, 11);
        assert!(g.weighted_ipc(&baseline) > 0.95);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = quick_cfg();
        let a = System::run_mix(&cfg, MitigationKind::Prac, 128, 9);
        let b = System::run_mix(&cfg, MitigationKind::Prac, 128, 9);
        assert_eq!(a, b);
    }
}
