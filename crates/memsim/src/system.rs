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
///
/// The system advances event by event. Each step simulates one
/// nanosecond: refresh, completions, one instruction per unstalled core,
/// and a visit to every bank with queued requests whose wake time has
/// come. It then jumps to the next nanosecond at which anything but an
/// instruction count can change, and credits the unstalled cores with
/// the instructions of the nanoseconds in between.
#[derive(Debug)]
pub struct System {
    cores: Vec<Core>,
    channel: DramChannel,
    queues: Vec<Vec<QueuedRequest>>,
    /// One bit per bank whose queue is not empty, 64 banks per word.
    queued: Vec<u64>,
    /// Per bank, a lower bound on the next time servicing its FR-FCFS
    /// pick can issue a command; a visit before it would change nothing.
    /// `u64::MAX` for a bank whose last command emptied its queue.
    wake: Vec<u64>,
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
            queued: vec![0; cfg.banks.div_ceil(64)],
            wake: vec![0; cfg.banks],
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
            let next = self.step().min(end);
            for core in &mut self.cores {
                core.skip(next - self.now - 1);
            }
            self.now = next;
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

    /// Simulates nanosecond `now` and returns the next one at which
    /// anything but an unstalled core's instruction count can change:
    /// the next refresh, completion, core request or bank wake time.
    fn step(&mut self) -> u64 {
        let now = self.now;

        // Periodic refresh (and the mitigation's REF-time hook).
        if self.channel.maybe_refresh(now) {
            self.wake.fill(0);
            self.mitigation.on_refresh(&mut self.actions);
            self.apply_actions(now);
        }
        let mut next = self.channel.next_refresh();

        // Deliver completed requests.
        let mut i = 0;
        while i < self.completions.len() {
            let (done_at, core) = self.completions[i];
            if done_at <= now {
                self.completions.swap_remove(i);
                self.cores[core].complete_miss();
            } else {
                next = next.min(done_at);
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
                self.queued[access.bank / 64] |= 1 << (access.bank % 64);
                self.wake[access.bank] = 0;
            }
            if let Some(steps) = core.next_request_in() {
                next = next.min(now + steps);
            }
        }

        // FR-FCFS per bank, in bank order, over the banks whose wake time
        // has come. The wake times read here and the completions the
        // visits issue bound the next event. A wake time at or before
        // `now` (one already past, or reset mid-loop by a mitigation
        // action) ends the step at `now + 1`.
        for word in 0..self.queued.len() {
            let mut bits = self.queued[word];
            while bits != 0 {
                let bank = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.wake[bank] <= now {
                    if let Some(done_at) = self.visit(bank, now) {
                        next = next.min(done_at);
                    }
                }
                next = next.min(self.wake[bank]);
            }
        }
        next.max(now + 1)
    }

    /// Services `bank`'s FR-FCFS pick at `now` if it can issue a command,
    /// and sets the bank's wake time to when its pick, new after a
    /// command, becomes ready. Returns the completion time of a column
    /// access it issued.
    fn visit(&mut self, bank: usize, now: u64) -> Option<u64> {
        let pick = self.pick_request(bank).expect("a queued bank has a request");
        let row = self.queues[bank][pick].row;
        let ready = self.channel.ready_at(bank, row);
        if ready > now {
            self.wake[bank] = ready;
            return None;
        }
        // The pick is ready, so a closed bank activates it.
        let activates = self.channel.bank(bank).open_row.is_none();
        let done_at = self.channel.service(bank, row, now);
        if let Some(done_at) = done_at {
            let req = self.queues[bank].swap_remove(pick);
            self.completions.push((done_at, req.core));
            if self.queues[bank].is_empty() {
                self.queued[bank / 64] &= !(1 << (bank % 64));
            }
        }
        // Until the bank's own next command or a reset of its wake, only
        // other banks' commands change its state, and they only delay it.
        self.wake[bank] = match self.pick_request(bank) {
            Some(pick) => self.channel.ready_at(bank, self.queues[bank][pick].row),
            None => u64::MAX,
        };
        if done_at.is_none() && activates {
            // An activation just happened: inform the mitigation. An
            // action resets every bank's wake, this one's included.
            self.mitigation.on_activate(bank, std::slice::from_ref(&row), 1, &mut self.actions);
            self.apply_actions(now);
        }
        done_at
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

    /// Applies and empties the buffered mitigation actions; any action
    /// resets every bank's wake time.
    fn apply_actions(&mut self, now: u64) {
        if !self.actions.is_empty() {
            self.wake.fill(0);
        }
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
    use crate::dram::BankState;
    use proptest::prelude::*;

    /// The per-nanosecond reference: one call simulates one nanosecond,
    /// stepping every core and servicing every bank's FR-FCFS pick.
    /// `run_for` must be equal to repeating it.
    fn oracle_step(s: &mut System) {
        let now = s.now;

        if s.channel.maybe_refresh(now) {
            s.mitigation.on_refresh(&mut s.actions);
            s.apply_actions(now);
        }

        let mut i = 0;
        while i < s.completions.len() {
            if s.completions[i].0 <= now {
                let (_, core) = s.completions.swap_remove(i);
                s.cores[core].complete_miss();
            } else {
                i += 1;
            }
        }

        for (core_idx, core) in s.cores.iter_mut().enumerate() {
            core.step();
            if let Some(access) = core.take_request() {
                s.queues[access.bank].push(QueuedRequest {
                    core: core_idx,
                    row: access.row,
                    arrival: now,
                });
            }
        }

        for bank in 0..s.queues.len() {
            let Some(pick) = s.pick_request(bank) else {
                continue;
            };
            let row = s.queues[bank][pick].row;
            let was_hit = s.channel.is_row_hit(bank, row);
            if let Some(done_at) = s.channel.service(bank, row, now) {
                let req = s.queues[bank].swap_remove(pick);
                s.completions.push((done_at, req.core));
            } else if !was_hit && s.channel.is_row_hit(bank, row) {
                s.mitigation.on_activate(bank, std::slice::from_ref(&row), 1, &mut s.actions);
                s.apply_actions(now);
            }
        }

        s.now += 1;
    }

    /// `System::run_mix` through the per-nanosecond reference.
    fn oracle_run(cfg: &SimConfig, kind: MitigationKind, threshold: u32, seed: u64) -> SimStats {
        let mut system = System::new(cfg, kind, threshold, seed);
        while system.now < cfg.cycles {
            oracle_step(&mut system);
        }
        system.stats()
    }

    /// What the two advances must agree on: the statistics (every
    /// core's instruction count included), every bank's state and every
    /// core's outstanding misses.
    fn fingerprint(s: &System) -> (SimStats, Vec<BankState>, Vec<usize>) {
        let banks = (0..s.queues.len()).map(|b| *s.channel.bank(b)).collect();
        (s.stats(), banks, s.cores.iter().map(|c| c.outstanding).collect())
    }

    fn workload() -> impl Strategy<Value = WorkloadParams> {
        (5.0f64..400.0, 0.0f64..=1.0, 1u32..1024, (0.0f64..=1.0, 1u32..8)).prop_map(
            |(mpki, row_locality, rows_per_bank, (hot_fraction, hot_rows))| WorkloadParams {
                mpki,
                row_locality,
                rows_per_bank,
                hot_fraction,
                hot_rows,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn run_for_equals_the_per_ns_reference(
            banks in prop_oneof![Just(1usize), Just(6usize), Just(16usize), 1usize..=64, 65usize..=130],
            mix in (workload(), workload(), workload(), workload()),
            mechanism in (0usize..=MitigationKind::EXTENDED.len(), 16u32..=2048, any::<u64>()),
            run in (1u64..10_000, prop::collection::vec(0u64..4_000, 0..6)),
        ) {
            let (kind, threshold, seed) = mechanism;
            let kind = [MitigationKind::None].into_iter().chain(MitigationKind::EXTENDED).nth(kind).unwrap();
            let (cycles, chunks) = run;
            let cfg = SimConfig { cycles, banks, mix: [mix.0, mix.1, mix.2, mix.3] };

            let mut reference = System::new(&cfg, kind, threshold, seed);
            while reference.now < cycles {
                oracle_step(&mut reference);
            }
            let mut whole = System::new(&cfg, kind, threshold, seed);
            whole.run_for(cycles);
            prop_assert_eq!(fingerprint(&whole), fingerprint(&reference));

            // The same run, cut into chunks at arbitrary boundaries.
            let mut split = System::new(&cfg, kind, threshold, seed);
            for chunk in chunks {
                split.run_for(chunk.min(cycles - split.now));
            }
            split.run_for(cycles - split.now);
            prop_assert_eq!(fingerprint(&split), fingerprint(&whole));
        }
    }

    #[test]
    fn the_baseline_ignores_the_threshold() {
        // `memsim_exp::run` runs each mix's baseline once, at
        // `u32::MAX`, and compares every cell's threshold against it.
        let cfg = quick_cfg();
        let baseline = System::run_mix(&cfg, MitigationKind::None, 1024, 5);
        for threshold in [1, 64, 128, u32::MAX] {
            assert_eq!(System::run_mix(&cfg, MitigationKind::None, threshold, 5), baseline);
        }
    }

    #[test]
    fn event_driven_run_equals_the_per_ns_reference_at_paper_scale() {
        let cfg = SimConfig { cycles: 20_000, ..SimConfig::default() };
        for kind in std::iter::once(MitigationKind::None).chain(MitigationKind::EXTENDED) {
            for threshold in [1024, 64] {
                assert_eq!(
                    System::run_mix(&cfg, kind, threshold, 2025),
                    oracle_run(&cfg, kind, threshold, 2025),
                    "{} at {threshold}",
                    kind.name()
                );
            }
        }
    }

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
