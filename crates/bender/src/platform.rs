//! The assembled test platform: device + timing + thermal rig +
//! interference controls (paper §3).
//!
//! A [`TestPlatform`] is the software analogue of the paper's
//! host-machine + FPGA + heater setup: it owns one device under test,
//! issues Alg. 1's session commands (row initialization, double-sided
//! hammering) straight to the device with JEDEC timing, regulates
//! temperature, and implements the §3.1 methodology of disabling
//! interference sources (periodic refresh → TRR, on-die ECC).

use vrd_dram::device::{DeviceConfig, DramDevice};
use vrd_dram::spec::ModuleSpec;
use vrd_dram::{DramError, RowBatchProfile, TestConditions};

use crate::estimate::EnergyModel;
use crate::routines::BURSTS_PER_ROW;
use crate::thermal::ThermalController;
use crate::timing::TimingParams;

/// One step of an Alg. 1 hammer session, as [`TestPlatform::charge`]
/// costs it.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Row initialization: `ACT`, [`BURSTS_PER_ROW`] write bursts, `PRE`.
    Init,
    /// Double-sided hammer: `count` activations of each aggressor, each
    /// held open `t_eff_ns` (`max(t_AggOn, t_RAS)`).
    Hammer { count: u32, t_eff_ns: f64 },
}

/// A DRAM module under test, with timing, thermal control, and
/// interference configuration.
#[derive(Debug)]
pub struct TestPlatform {
    device: DramDevice,
    spec: Option<ModuleSpec>,
    timing: TimingParams,
    thermal: ThermalController,
    refresh_enabled: bool,
    elapsed_ns: f64,
    next_refresh_ns: f64,
    energy: EnergyModel,
    energy_nj: f64,
    hammer_sessions: u64,
    measurement_epoch: u64,
}

impl TestPlatform {
    /// Assembles a platform around an existing device.
    pub fn new(device: DramDevice, timing: TimingParams) -> Self {
        let ambient = 25.0;
        TestPlatform {
            thermal: ThermalController::new(ambient, device.temperature_c()),
            device,
            spec: None,
            timing,
            refresh_enabled: false,
            elapsed_ns: 0.0,
            next_refresh_ns: 0.0,
            energy: EnergyModel::default(),
            energy_nj: 0.0,
            hammer_sessions: 0,
            measurement_epoch: 0,
        }
    }

    /// Instantiates the platform for one of the paper's Table-1 modules.
    pub fn for_module(spec: ModuleSpec, seed: u64) -> Self {
        let module = vrd_dram::Module::new(spec.clone(), seed);
        let timing = TimingParams::for_family(&spec.family());
        let mut p = Self::new(module.into_device(), timing);
        p.spec = Some(spec);
        p
    }

    /// Like [`for_module`](Self::for_module) with a reduced row size for
    /// fast tests and campaigns.
    pub fn for_module_with_row_bytes(spec: ModuleSpec, seed: u64, row_bytes: u32) -> Self {
        let module = vrd_dram::Module::new_with_row_bytes(spec.clone(), seed, row_bytes);
        let timing = TimingParams::for_family(&spec.family());
        let mut p = Self::new(module.into_device(), timing);
        p.spec = Some(spec);
        p
    }

    /// A small self-contained platform for unit tests.
    pub fn small_test(seed: u64) -> Self {
        let mut cfg = DeviceConfig::small_test();
        cfg.vrd.median_rdt = 4_000.0;
        cfg.vrd.weak_cells_per_row = 3.0;
        Self::new(DramDevice::new(cfg, seed), TimingParams::ddr4())
    }

    /// The device under test.
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Mutable access to the device under test.
    pub fn device_mut(&mut self) -> &mut DramDevice {
        &mut self.device
    }

    /// The module spec, when the platform was built from Table 1.
    pub fn spec(&self) -> Option<&ModuleSpec> {
        self.spec.as_ref()
    }

    /// Reseeds the device's dynamics RNG (see
    /// [`DramDevice::reseed_dynamics`]). The weak-cell layout is
    /// unaffected; only the stochastic measurement dynamics restart from
    /// the given seed.
    pub fn reseed_dynamics(&mut self, seed: u64) {
        self.device.reseed_dynamics(seed);
    }

    /// The active timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Total simulated test time so far (ns).
    pub fn elapsed_ns(&self) -> f64 {
        self.elapsed_ns
    }

    /// Total simulated test energy so far (joules), from the Appendix-A
    /// per-command energy model plus background power over the elapsed
    /// time.
    pub fn energy_j(&self) -> f64 {
        (self.energy_nj + self.elapsed_ns * self.energy.background_mw * 1e-6) * 1e-9
    }

    /// Enables or disables periodic refresh. The paper's methodology
    /// disables it, which also disables on-die TRR (§3.1); enabling it
    /// here re-enables the TRR emulation as a real chip would.
    pub fn set_refresh_enabled(&mut self, enabled: bool) {
        self.refresh_enabled = enabled;
        self.device.set_trr_enabled(enabled);
        if enabled {
            self.next_refresh_ns = self.elapsed_ns + self.timing.t_refi;
        }
    }

    /// Whether periodic refresh is currently issued.
    pub fn refresh_enabled(&self) -> bool {
        self.refresh_enabled
    }

    /// Sets the target temperature and blocks until the thermal rig
    /// settles within ±0.5 °C (the settling time is *not* charged to the
    /// DRAM test time, matching how the paper heats before testing).
    pub fn set_temperature_c(&mut self, target_c: f64) {
        self.thermal.set_target_c(target_c);
        self.thermal.settle();
        self.device.set_temperature_c(self.thermal.temperature_c());
    }

    /// The chip temperature as reported by the thermal rig.
    pub fn temperature_c(&self) -> f64 {
        self.thermal.temperature_c()
    }

    /// Initializes one row as DRAM Bender does: `ACT`, [`BURSTS_PER_ROW`]
    /// write bursts of `fill`, `PRE`. The model's fill write is
    /// row-wide, so one device write carries the data and the bursts
    /// only cost time. Returns the step's time (ns), without the
    /// refreshes it makes due.
    ///
    /// # Errors
    ///
    /// Propagates device command errors.
    pub(crate) fn init_row(&mut self, bank: usize, row: u32, fill: u8) -> Result<f64, DramError> {
        self.device.activate(bank, row)?;
        self.device.write_open_row(bank, row, fill)?;
        self.device.precharge(bank)?;
        Ok(self.charge(Step::Init))
    }

    /// Hammers `aggr1`, then `aggr2`, `count` times each, holding every
    /// activation open `max(t_on_ns, t_RAS)` (an on-time beyond `t_RAS`
    /// turns RowHammer into RowPress). Each aggressor's activations go to
    /// the device as one bulk [`DramDevice::activate_n`]. A count of 0
    /// issues nothing and costs nothing. Returns the step's time (ns),
    /// without the refreshes it makes due.
    ///
    /// # Errors
    ///
    /// Propagates device command errors.
    pub(crate) fn hammer(
        &mut self,
        bank: usize,
        aggr1: u32,
        aggr2: u32,
        count: u32,
        t_on_ns: f64,
    ) -> Result<f64, DramError> {
        if count == 0 {
            return Ok(0.0);
        }
        let t_eff_ns = t_on_ns.max(self.timing.t_ras);
        for row in [aggr1, aggr2] {
            self.device.precharge(bank)?;
            self.device.activate_n(bank, row, count, t_eff_ns)?;
            self.device.precharge(bank)?;
        }
        Ok(self.charge(Step::Hammer { count, t_eff_ns }))
    }

    /// Charges one session step to the platform clock and energy account
    /// and returns its time (ns), then issues the refreshes that fell due
    /// when refresh is enabled (coarse: after the step, which is accurate
    /// for steps shorter than tREFI and conservative for longer ones).
    ///
    /// An init costs `ACT` (`t_RCD`), the first write burst, the other
    /// bursts and `PRE` (`t_RP`), folded in that `f64` order; a hammer
    /// costs `count · (t_eff + t_RP)` per side. The scalar steps and
    /// [`run_batched_session`](Self::run_batched_session) both charge
    /// through here, so their clocks agree bit for bit.
    fn charge(&mut self, step: Step) -> f64 {
        let (elapsed_ns, energy_nj) = match step {
            Step::Init => {
                let t = &self.timing;
                (
                    t.t_rcd + t.t_ccd_l_wr + t.t_ccd_l_wr * f64::from(BURSTS_PER_ROW - 1) + t.t_rp,
                    self.energy.act_pre_nj + f64::from(BURSTS_PER_ROW) * self.energy.write_nj,
                )
            }
            Step::Hammer { count, t_eff_ns } => {
                let per_side = f64::from(count) * (t_eff_ns + self.timing.t_rp);
                (per_side + per_side, (2 * u64::from(count)) as f64 * self.energy.act_pre_nj)
            }
        };
        self.elapsed_ns += elapsed_ns;
        self.energy_nj += energy_nj;
        if self.refresh_enabled {
            while self.next_refresh_ns <= self.elapsed_ns {
                self.device.refresh();
                self.elapsed_ns += self.timing.t_rfc;
                self.next_refresh_ns += self.timing.t_refi;
            }
        }
        elapsed_ns
    }

    /// Always `(0, 0)`: the platform sends a session's commands straight
    /// to the device and builds no test programs, so nothing is cached.
    /// Kept only because the frozen benchmark (`e2ebench/src/replay.rs`)
    /// still reports a program-cache layer; the next benchmark change
    /// deletes it.
    pub fn program_cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Records one completed hammer session (init + hammer + read of a
    /// victim). The RDT search layers use this to compare how many
    /// sessions each search strategy spends per measurement.
    pub fn note_hammer_session(&mut self) {
        self.hammer_sessions += 1;
    }

    /// Total hammer sessions recorded on this platform.
    pub fn hammer_sessions(&self) -> u64 {
        self.hammer_sessions
    }

    /// Starts a new measurement epoch and returns its number (1-based).
    ///
    /// Epochs number the RDT measurements on this platform in order; the
    /// keyed dynamics mode draws per-measurement thresholds and trap
    /// catch-up steps from the epoch number, which is identical no matter
    /// which search strategy performs the measurement. The counter is
    /// *not* reset by [`reseed_dynamics`](Self::reseed_dynamics): a
    /// campaign reseeds per unit but epochs keep advancing, and the
    /// keyed draws depend on (seed, epoch) jointly.
    pub fn begin_measurement(&mut self) -> u64 {
        self.measurement_epoch += 1;
        self.measurement_epoch
    }

    /// Total measurement epochs begun on this platform.
    pub fn measurement_epochs(&self) -> u64 {
        self.measurement_epoch
    }

    /// Enters keyed-dynamics mode on the device for one hammer session of
    /// the given measurement epoch (see
    /// [`DramDevice::begin_keyed_session`]).
    pub fn begin_keyed_session(&mut self, epoch: u64, session: u64) {
        self.device.begin_keyed_session(epoch, session);
    }

    /// Prepares one measurement epoch for batched hammer sessions (see
    /// [`DramDevice::prepare_batch_epoch`]).
    ///
    /// On success the platform is left in keyed-dynamics mode for
    /// `epoch` and the returned [`RowBatchProfile`] drives
    /// [`run_batched_session`](Self::run_batched_session); callers end
    /// the keyed session when the measurement completes, exactly as on
    /// the scalar path. Returns `None` — leaving keyed mode untouched —
    /// whenever the scalar command path must be used instead (refresh
    /// interference enabled, or any device-side gate).
    pub fn prepare_batch_epoch(
        &mut self,
        epoch: u64,
        bank: usize,
        victim: u32,
        conditions: &TestConditions,
    ) -> Option<RowBatchProfile> {
        if self.refresh_enabled {
            return None;
        }
        self.begin_keyed_session(epoch, 0);
        let t_eff = conditions.t_agg_on_ns.max(self.timing.t_ras);
        let profile = self.device.prepare_batch_epoch(bank, victim, conditions.pattern, t_eff);
        if profile.is_none() {
            self.end_keyed_session();
        }
        profile
    }

    /// Runs one double-sided hammer session of a prepared batch epoch:
    /// the session counter, time and energy advance exactly as the
    /// scalar init/hammer/read sequence advances them, and the device
    /// replays the session's end state in one lane-compare pass. Returns
    /// whether the read observed any (post-ECC) bitflip.
    pub fn run_batched_session(&mut self, profile: &RowBatchProfile, hammer_count: u32) -> bool {
        self.note_hammer_session();
        // Victim, below aggressor, above aggressor.
        for _ in 0..3 {
            self.charge(Step::Init);
        }
        // A zero-hammer step charges +0.0, as the scalar path's skipped
        // hammer does.
        self.charge(Step::Hammer { count: hammer_count, t_eff_ns: profile.hammer_t_on_ns() });
        self.device.batch_hammer_session(profile, hammer_count)
    }

    /// Leaves keyed-dynamics mode (see [`DramDevice::end_keyed_session`]).
    pub fn end_keyed_session(&mut self) {
        self.device.end_keyed_session();
    }

    /// Verifies the §3.1 preconditions for interference-free RDT
    /// measurement: refresh (and thus TRR) disabled and a test budget
    /// within one refresh window so no retention failures occur.
    pub fn interference_free(&self, planned_test_ns: f64) -> bool {
        !self.refresh_enabled && planned_test_ns <= self.timing.t_refw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_dram::{DataPattern, ModuleSpec};

    #[test]
    fn small_platform_runs_program() {
        let mut p = TestPlatform::small_test(1);
        let elapsed_ns = p.init_row(0, 10, 0x55).unwrap();
        assert!(elapsed_ns > 0.0);
        assert_eq!(p.elapsed_ns(), elapsed_ns);
        assert!(p.energy_j() > 0.0);
    }

    #[test]
    fn init_writes_the_fill() {
        let mut p = TestPlatform::small_test(1);
        p.init_row(0, 42, 0xAA).unwrap();
        assert_eq!(p.device().total_activations(), 1);
        let dev = p.device_mut();
        dev.activate(0, 42).unwrap();
        assert!(dev.read_open_row(0, 42).unwrap().iter().all(|&b| b == 0xAA));
        dev.precharge(0).unwrap();
        // The init's own ACT plus the read-back's.
        assert_eq!(p.device().total_activations(), 2);
    }

    #[test]
    fn init_charges_the_exact_burst_loop_cost() {
        let mut p = TestPlatform::small_test(1);
        let elapsed_ns = p.init_row(0, 42, 0xAA).unwrap();
        // ACT, the first burst, the other 127 bursts folded, PRE.
        let t = TimingParams::ddr4();
        let want_ns = ((t.t_rcd + t.t_ccd_l_wr) + t.t_ccd_l_wr * 127.0) + t.t_rp;
        assert_eq!(elapsed_ns.to_bits(), want_ns.to_bits());
        assert_eq!(p.elapsed_ns().to_bits(), want_ns.to_bits());
        let e = EnergyModel::default();
        let want_nj = e.act_pre_nj + 128.0 * e.write_nj;
        assert_eq!(p.energy_nj.to_bits(), want_nj.to_bits());
    }

    #[test]
    fn hammer_adds_2n_activations_and_exact_time() {
        let t = TimingParams::ddr4();
        for (n, t_on) in [(1u32, 35.0), (777, 35.0), (50_000, 35.0), (300, 7_800.0)] {
            let mut p = TestPlatform::small_test(1);
            let elapsed_ns = p.hammer(0, 99, 101, n, t_on).unwrap();
            assert_eq!(p.device().total_activations(), 2 * u64::from(n));
            let per_side = f64::from(n) * (f64::max(t_on, t.t_ras) + t.t_rp);
            assert_eq!(elapsed_ns.to_bits(), (per_side + per_side).to_bits(), "n={n}");
            assert_eq!(p.elapsed_ns().to_bits(), elapsed_ns.to_bits());
            let act_pre_nj = EnergyModel::default().act_pre_nj;
            assert_eq!(p.energy_nj.to_bits(), (f64::from(2 * n) * act_pre_nj).to_bits());
        }
        // 100k activations × (tRAS + tRP) = 100k × 48.75 ns.
        let mut p = TestPlatform::small_test(1);
        let elapsed_ns = p.hammer(0, 99, 101, 50_000, 35.0).unwrap();
        assert!((elapsed_ns - 100_000.0 * (35.0 + 13.75)).abs() < 1e-6);
    }

    #[test]
    fn hammer_time_scales_with_on_time() {
        let mut p = TestPlatform::small_test(1);
        let short = p.hammer(0, 9, 11, 100, 35.0).unwrap();
        let long = p.hammer(0, 9, 11, 100, 7_800.0).unwrap();
        assert!(long > short * 100.0);
    }

    #[test]
    fn a_zero_hammer_is_free() {
        let mut p = TestPlatform::small_test(1);
        p.init_row(0, 7, 0x55).unwrap();
        let (acts, elapsed, energy) =
            (p.device().total_activations(), p.elapsed_ns(), p.energy_j());
        assert_eq!(p.hammer(0, 6, 8, 0, 35.0).unwrap(), 0.0);
        assert_eq!(p.device().total_activations(), acts);
        assert_eq!(p.elapsed_ns().to_bits(), elapsed.to_bits());
        assert_eq!(p.energy_j().to_bits(), energy.to_bits());
    }

    #[test]
    fn an_edge_victim_gets_2n_activations_from_its_one_neighbour() {
        let mut p = TestPlatform::small_test(1);
        let cond = vrd_dram::TestConditions::foundational();
        let elapsed_ns = crate::routines::hammer_double_sided(&mut p, 0, 0, 1_000, &cond);
        assert_eq!(p.device().total_activations(), 2_000);
        let per_side: f64 = 1_000.0 * (35.0 + 13.75);
        assert_eq!(elapsed_ns.to_bits(), (per_side + per_side).to_bits());
    }

    #[test]
    fn energy_grows_with_hammering() {
        let mut p = TestPlatform::small_test(1);
        p.hammer(0, 50, 52, 1_000, 35.0).unwrap();
        let after_1k = p.energy_j();
        p.hammer(0, 50, 52, 10_000, 35.0).unwrap();
        assert!(p.energy_j() > after_1k * 5.0);
    }

    #[test]
    fn for_module_uses_standard_timing() {
        let spec = ModuleSpec::by_name("Chip0").unwrap();
        let p = TestPlatform::for_module_with_row_bytes(spec, 1, 256);
        assert_eq!(*p.timing(), TimingParams::hbm2());
        assert!(p.spec().is_some());
    }

    #[test]
    fn temperature_control_settles() {
        let mut p = TestPlatform::small_test(1);
        p.set_temperature_c(80.0);
        assert!((p.temperature_c() - 80.0).abs() <= 0.5);
        assert!((p.device().temperature_c() - 80.0).abs() <= 0.5);
    }

    #[test]
    fn refresh_fires_when_enabled() {
        let mut p = TestPlatform::small_test(1);
        p.set_refresh_enabled(true);
        // A hammer long enough to cross several tREFI intervals.
        p.hammer(0, 50, 52, 2_000, 35.0).unwrap();
        // 2000 hammers × 2 × ~48.75ns ≈ 195 µs → ~25 refreshes at 7.8 µs.
        assert!(p.elapsed_ns() > 150_000.0);
    }

    #[test]
    fn refresh_fires_between_steps() {
        let t = TimingParams::ddr4();
        let mut p = TestPlatform::small_test(1);
        p.set_refresh_enabled(true);
        // Enough inits to cross one tREFI, then a hammer that crosses
        // another: each step issues the refresh it made due.
        let mut steps_ns = 0.0;
        while p.elapsed_ns() < t.t_refi {
            steps_ns += p.init_row(0, 5, 0x55).unwrap();
        }
        let after_inits = p.elapsed_ns();
        assert_eq!(after_inits.to_bits(), (steps_ns + t.t_rfc).to_bits());
        let hammer_ns = p.hammer(0, 4, 6, 100, 35.0).unwrap();
        assert_eq!(p.elapsed_ns().to_bits(), (after_inits + hammer_ns + t.t_rfc).to_bits());
        let mut off = TestPlatform::small_test(1);
        off.init_row(0, 5, 0x55).unwrap();
        assert!(off.elapsed_ns() < t.t_refi, "nothing refreshes when disabled");
    }

    #[test]
    fn interference_free_requires_refresh_off() {
        let mut p = TestPlatform::small_test(1);
        assert!(p.interference_free(1_000_000.0));
        p.set_refresh_enabled(true);
        assert!(!p.interference_free(1_000_000.0));
        p.set_refresh_enabled(false);
        // Longer than a refresh window: retention failures possible.
        assert!(!p.interference_free(100_000_000_000.0));
    }

    #[test]
    fn refresh_prevents_flips_like_a_real_chip() {
        // With refresh enabled, a slow hammer (interrupted by refreshes)
        // must not flip; with refresh disabled it may.
        let spec = ModuleSpec::by_name("M1").unwrap();
        let mut p = TestPlatform::for_module_with_row_bytes(spec, 3, 256);
        p.set_refresh_enabled(true);
        let pattern = DataPattern::Checkered0;
        let victim = 1000u32;
        p.device_mut().write_row(0, victim, pattern.victim_byte());
        // Hammer in small chunks so refresh interleaves.
        for _ in 0..200 {
            p.hammer(0, victim - 1, victim + 1, 500, 35.0).unwrap();
        }
        let flips = p.device_mut().read_and_compare(0, victim, pattern.victim_byte());
        assert!(flips.is_empty(), "refresh must prevent slow-hammer flips");
    }
}
