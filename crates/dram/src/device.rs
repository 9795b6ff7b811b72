//! The behavioural DRAM device: banks, rows, activation-driven read
//! disturbance, refresh, TRR emulation, and on-die-ECC emulation.
//!
//! # Model semantics
//!
//! - Activating a row disturbs its two *physical* neighbors: each
//!   activation adds one "hammer" of accumulated disturbance, tagged with
//!   the aggressor's on-time. Single-sided hammering is weaker than
//!   double-sided (weight [`SINGLE_SIDED_WEIGHT`] for the unbalanced part).
//! - Activating a row also *restores* it: pending bitflips are
//!   materialized from the accumulated disturbance (they occurred during
//!   the preceding hammering), the accumulated disturbance resets, and the
//!   row's trap states take one Markov step (the paper's §4.2 mechanism).
//! - Reading returns the stored fill bytes with materialized bitflips
//!   applied. Writing clears flips (data is overwritten).
//! - Refresh restores a sliding window of rows per bank, like a real
//!   chip's internal refresh counter. When TRR emulation is on, recently
//!   activated rows' neighbors are additionally restored — this is why
//!   the paper's methodology disables refresh (§3.1).
//!
//! The device is command-level, not cycle-level: time lives in
//! `vrd-bender`, which issues these operations with JEDEC timing.

use std::collections::HashMap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use crate::batch::{LaneThresholds, RowBatchProfile};
use crate::cells::CellLayout;
use crate::conditions::{TestConditions, T_AGG_ON_MIN_TRAS_NS};
use crate::error::DramError;
use crate::family::{BankVariation, Topology};
use crate::hashing::FxHashMap;
use crate::keyed::KeyedRng;
use crate::mapping::RowMapping;
use crate::pattern::DataPattern;
use crate::spatial::SpatialProfile;
use crate::spec::VrdModelParams;
use crate::vrd::{Trap, WeakCell};

/// Relative disturbance weight of unbalanced (single-sided) activations
/// compared to balanced double-sided hammering.
pub const SINGLE_SIDED_WEIGHT: f64 = 0.4;

/// Static configuration of a [`DramDevice`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Bank hierarchy and row count (see [`Topology`]). The device
    /// addresses banks by their flat index; the topology defines how
    /// that index decomposes into channel / pseudo-channel / bank group.
    pub topology: Topology,
    /// Bytes per row (the paper's rows are 64 Kibit = 8192 bytes).
    pub row_bytes: u32,
    /// Logical→physical row mapping.
    pub mapping: RowMapping,
    /// True-/anti-cell layout.
    pub cell_layout: CellLayout,
    /// Stochastic VRD engine parameters.
    pub vrd: VrdModelParams,
    /// Spatial threshold structure (subarray tiles + edge weakening).
    pub spatial: SpatialProfile,
    /// Per-bank threshold spread ([`BankVariation::none`] for families
    /// whose banks are modeled as identical).
    pub bank_variation: BankVariation,
    /// Rows restored per bank by one refresh command.
    pub rows_per_refresh: u32,
}

impl DeviceConfig {
    /// A small configuration for fast unit tests: 2 banks × 4096 rows of
    /// 1 KiB, direct mapping, test-friendly VRD parameters.
    pub fn small_test() -> Self {
        DeviceConfig {
            topology: Topology::linear(2, 4096),
            row_bytes: 1024,
            mapping: RowMapping::Direct,
            cell_layout: CellLayout::default(),
            vrd: VrdModelParams::small_test(),
            spatial: SpatialProfile::flat(),
            bank_variation: BankVariation::none(),
            rows_per_refresh: 8,
        }
    }

    /// Total banks (the flat index range), from the topology.
    pub fn banks(&self) -> u32 {
        self.topology.banks()
    }

    /// Rows per bank, from the topology.
    pub fn rows_per_bank(&self) -> u32 {
        self.topology.rows_per_bank
    }
}

/// One observed read-disturbance bitflip in a victim row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Bitflip {
    /// Bit position within the row (0 = LSB of byte 0).
    pub bit: u32,
}

/// Accumulated disturbance on one victim row since its last restore.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct DisturbState {
    /// Activations of the physically-below neighbor.
    below: f64,
    /// Activations of the physically-above neighbor.
    above: f64,
    /// Largest aggressor on-time seen during accumulation (ns).
    t_on_ns: f64,
}

impl DisturbState {
    /// Effective double-sided hammer count: the balanced part counts in
    /// full, the unbalanced excess at [`SINGLE_SIDED_WEIGHT`].
    fn effective_hammers(&self) -> f64 {
        let lo = self.below.min(self.above);
        let hi = self.below.max(self.above);
        lo + SINGLE_SIDED_WEIGHT * (hi - lo)
    }

    fn is_clean(&self) -> bool {
        self.below == 0.0 && self.above == 0.0
    }
}

#[derive(Debug)]
struct RowState {
    /// The byte every byte of the row was last written with.
    fill: u8,
    /// Bit positions whose stored value is currently inverted by a flip.
    flipped: Vec<u32>,
    disturb: DisturbState,
    /// Weak cells, generated lazily and deterministically per row.
    cells: Vec<WeakCell>,
    /// Last measurement epoch whose keyed trap evolution this row has
    /// absorbed (see [`DramDevice::begin_keyed_session`]). Rows touched
    /// only by the sequential path stay at their creation epoch.
    trap_epoch: u64,
}

#[derive(Debug)]
struct Bank {
    open_row: Option<u32>,
    rows: FxHashMap<u32, RowState>,
    refresh_ptr: u32,
    /// Recently activated rows (ring buffer) for TRR emulation.
    recent_activations: Vec<u32>,
}

impl Bank {
    fn new() -> Self {
        Bank {
            open_row: None,
            rows: FxHashMap::default(),
            refresh_ptr: 0,
            recent_activations: Vec::new(),
        }
    }
}

/// The identity of the hammer session currently executing under
/// counter-based RNG keying (see [`DramDevice::begin_keyed_session`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyedSession {
    /// Measurement epoch: one RDT measurement = one epoch. Threshold
    /// jitter and trap evolution are keyed by this value, so every
    /// session within a measurement samples identical dynamics.
    pub epoch: u64,
    /// Session index within the measurement (the sweep's grid index).
    /// Not part of any stochastic key — recorded for diagnostics only,
    /// because the flip predicate must be independent of *which*
    /// sessions a search strategy chooses to run.
    pub session: u64,
}

/// Compound trap Markov steps charged per measurement epoch under keyed
/// dynamics: approximately the per-measurement restore count of a linear
/// Algorithm-1 sweep (two restorations per session, a few dozen sessions
/// until the first flip).
pub const TRAP_STEPS_PER_MEASUREMENT: u32 = 100;

/// A behavioural DRAM device with a stochastic read-disturbance engine.
///
/// See the [module documentation](self) for the model semantics.
#[derive(Debug)]
pub struct DramDevice {
    config: DeviceConfig,
    seed: u64,
    banks: Vec<Bank>,
    rng: ChaCha12Rng,
    /// Key material for counter-based draws ([`crate::keyed`]): follows
    /// the sequential RNG's seed through [`Self::reseed_dynamics`].
    dynamics_seed: u64,
    /// When set, restoration dynamics draw from keyed streams instead of
    /// the sequential RNG.
    keyed_session: Option<KeyedSession>,
    temperature_c: f64,
    trr_enabled: bool,
    on_die_ecc_enabled: bool,
    total_activations: u64,
    /// Device-wide pattern-dependent VRD-strength bias: every chip
    /// design couples the four data patterns into its noise mechanisms
    /// differently, so which pattern yields the worst VRD profile varies
    /// across chips (Finding 13).
    pattern_vrd_bias: [f64; 4],
}

impl DramDevice {
    /// Creates a device from `config`, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero banks, rows, or row bytes.
    pub fn new(config: DeviceConfig, seed: u64) -> Self {
        assert!(config.banks() > 0, "device needs at least one bank");
        assert!(config.rows_per_bank() > 1, "device needs at least two rows");
        assert!(config.row_bytes > 0, "rows need at least one byte");
        let banks = (0..config.banks()).map(|_| Bank::new()).collect();
        let mut bias_rng = ChaCha12Rng::seed_from_u64(seed ^ 0xB1A5_u64);
        let mut pattern_vrd_bias = [1.0f64; 4];
        for b in &mut pattern_vrd_bias {
            *b = (0.25 * sample_normal(&mut bias_rng)).exp();
        }
        DramDevice {
            banks,
            rng: ChaCha12Rng::seed_from_u64(seed ^ 0xD12A_0DE1_u64),
            dynamics_seed: seed ^ 0xD12A_0DE1_u64,
            keyed_session: None,
            seed,
            config,
            temperature_c: 50.0,
            trr_enabled: false,
            on_die_ecc_enabled: false,
            total_activations: 0,
            pattern_vrd_bias,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The device seed. Together with [`DeviceConfig::spatial`] this
    /// fully determines the per-row spatial factors
    /// ([`SpatialProfile::factor`](crate::spatial::SpatialProfile::factor)),
    /// so external tooling can reconstruct the spatial threshold map
    /// without probing every row.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current device temperature (°C). Set by the test platform's
    /// thermal controller.
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Sets the device temperature (°C).
    pub fn set_temperature_c(&mut self, temperature_c: f64) {
        self.temperature_c = temperature_c;
    }

    /// Enables or disables the on-die TRR (target-row-refresh) emulation.
    /// The paper's methodology disables it by disabling periodic refresh.
    pub fn set_trr_enabled(&mut self, enabled: bool) {
        self.trr_enabled = enabled;
    }

    /// Enables or disables on-die-ECC emulation (single-bit correction per
    /// 64-bit word at read time). HBM2 chips expose this through a mode
    /// register; the paper sets it to zero.
    pub fn set_on_die_ecc_enabled(&mut self, enabled: bool) {
        self.on_die_ecc_enabled = enabled;
    }

    /// Total activate commands the device has seen.
    pub fn total_activations(&self) -> u64 {
        self.total_activations
    }

    /// Reseeds the *dynamics* RNG (threshold sampling and trap stepping)
    /// without touching the device seed, so the weak-cell layout — which
    /// is derived per row from the device seed — stays identical.
    ///
    /// This is the determinism hook of the parallel campaign executor:
    /// every work unit reseeds its platform with a seed derived from
    /// `(campaign_seed, unit key)`, making the unit's measurements
    /// independent of whatever ran on the device before it and therefore
    /// bit-identical regardless of thread count or scheduling order.
    pub fn reseed_dynamics(&mut self, seed: u64) {
        self.rng = ChaCha12Rng::seed_from_u64(seed ^ 0xD12A_0DE1_u64);
        self.dynamics_seed = seed ^ 0xD12A_0DE1_u64;
    }

    /// Enters (or re-keys) a keyed hammer session: until
    /// [`end_keyed_session`](Self::end_keyed_session), restoration
    /// dynamics — per-measurement threshold jitter and trap evolution —
    /// draw from counter-based streams keyed by `(dynamics seed, epoch,
    /// cell identity)` instead of consuming the sequential RNG (see
    /// [`crate::keyed`]). Because the keyed draws are a pure function of
    /// the epoch and the cell, running *fewer* or *different* sessions
    /// (an adaptive search) observes bit-identical dynamics to a full
    /// linear sweep, and the sequential RNG's stream position is left
    /// untouched for the surrounding unkeyed code.
    ///
    /// Epochs must be distinct per RDT measurement and are expected to
    /// increase monotonically over a device's lifetime; the session
    /// index is diagnostic only.
    pub fn begin_keyed_session(&mut self, epoch: u64, session: u64) {
        self.keyed_session = Some(KeyedSession { epoch, session });
    }

    /// Leaves keyed-session mode: restoration dynamics return to the
    /// sequential RNG.
    pub fn end_keyed_session(&mut self) {
        self.keyed_session = None;
    }

    /// The keyed session currently in effect, if any.
    pub fn keyed_session(&self) -> Option<KeyedSession> {
        self.keyed_session
    }

    /// The currently open row of `bank`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn open_row(&self, bank: usize) -> Option<u32> {
        self.banks[bank].open_row
    }

    fn check_addr(&self, bank: usize, row: u32) -> Result<(), DramError> {
        if bank >= self.config.banks() as usize {
            return Err(DramError::BankOutOfRange { bank, banks: self.config.banks() as usize });
        }
        if row >= self.config.rows_per_bank() {
            return Err(DramError::RowOutOfRange { row, rows: self.config.rows_per_bank() });
        }
        Ok(())
    }

    /// Activates (opens) `row` in `bank` with the default minimum-`t_RAS`
    /// on-time.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses or if another row is
    /// already open in the bank (a real controller must precharge first).
    pub fn activate(&mut self, bank: usize, row: u32) -> Result<(), DramError> {
        self.activate_n(bank, row, 1, T_AGG_ON_MIN_TRAS_NS)
    }

    /// Applies `n` consecutive activate/precharge cycles of `row`
    /// (semantically identical to `n` single activations, each held open
    /// for `t_on_ns`), leaving the row open after the final activation.
    ///
    /// This is the device-side fast path for hammering loops.
    ///
    /// # Errors
    ///
    /// Same as [`activate`](Self::activate).
    pub fn activate_n(
        &mut self,
        bank: usize,
        row: u32,
        n: u32,
        t_on_ns: f64,
    ) -> Result<(), DramError> {
        self.check_addr(bank, row)?;
        if n == 0 {
            return Ok(());
        }
        if let Some(open) = self.banks[bank].open_row {
            if open != row {
                return Err(DramError::RowNotOpen { bank, row });
            }
        }
        self.total_activations += u64::from(n);
        // Restore this row (it is being activated): materialize pending
        // flips, clear disturbance, step traps n times.
        self.restore_row(bank, row, n);
        self.banks[bank].open_row = Some(row);

        // Disturb physical neighbors.
        let (below, above) = self.config.mapping.neighbors_of(row, self.config.rows_per_bank());
        if let Some(b) = below {
            self.add_disturbance(bank, b, /*from_below=*/ false, n, t_on_ns);
        }
        if let Some(a) = above {
            self.add_disturbance(bank, a, /*from_below=*/ true, n, t_on_ns);
        }

        // TRR bookkeeping.
        if self.trr_enabled {
            let recent = &mut self.banks[bank].recent_activations;
            recent.push(row);
            if recent.len() > 16 {
                recent.remove(0);
            }
        }
        Ok(())
    }

    /// Precharges (closes) the open row of `bank`, if any.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range bank.
    pub fn precharge(&mut self, bank: usize) -> Result<(), DramError> {
        if bank >= self.config.banks() as usize {
            return Err(DramError::BankOutOfRange { bank, banks: self.config.banks() as usize });
        }
        self.banks[bank].open_row = None;
        Ok(())
    }

    /// Writes `fill` to every byte of the *open* row of `bank`, clearing
    /// any bitflips (data is overwritten).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowNotOpen`] if `row` is not the open row.
    pub fn write_open_row(&mut self, bank: usize, row: u32, fill: u8) -> Result<(), DramError> {
        self.check_addr(bank, row)?;
        if self.banks[bank].open_row != Some(row) {
            return Err(DramError::RowNotOpen { bank, row });
        }
        let state = self.row_state(bank, row);
        state.fill = fill;
        state.flipped.clear();
        Ok(())
    }

    /// Convenience: activate + fill-write + precharge.
    ///
    /// # Panics
    ///
    /// Panics on invalid addresses (use the command-level API for fallible
    /// access).
    pub fn write_row(&mut self, bank: usize, row: u32, fill: u8) {
        self.precharge(bank).expect("valid bank");
        self.activate(bank, row).expect("valid address");
        self.write_open_row(bank, row, fill).expect("row is open");
        self.precharge(bank).expect("valid bank");
    }

    /// Reads the open row's current contents (with flips applied, and
    /// on-die ECC correction if enabled).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowNotOpen`] if `row` is not the open row.
    pub fn read_open_row(&mut self, bank: usize, row: u32) -> Result<Vec<u8>, DramError> {
        self.check_addr(bank, row)?;
        if self.banks[bank].open_row != Some(row) {
            return Err(DramError::RowNotOpen { bank, row });
        }
        let row_bytes = self.config.row_bytes as usize;
        let on_die_ecc = self.on_die_ecc_enabled;
        let state = self.row_state(bank, row);
        let mut bytes = vec![state.fill; row_bytes];
        let flips = visible_flips(&state.flipped, on_die_ecc);
        for bit in flips {
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        Ok(bytes)
    }

    /// Convenience: activate (materializing pending flips) + compare the
    /// row against a uniform `expected` fill + precharge. Returns the
    /// observed bitflips.
    ///
    /// # Panics
    ///
    /// Panics on invalid addresses.
    pub fn read_and_compare(&mut self, bank: usize, row: u32, expected: u8) -> Vec<Bitflip> {
        self.precharge(bank).expect("valid bank");
        self.activate(bank, row).expect("valid address");
        let on_die_ecc = self.on_die_ecc_enabled;
        let state = self.row_state(bank, row);
        let mut flips: Vec<Bitflip> = visible_flips(&state.flipped, on_die_ecc)
            .into_iter()
            .map(|bit| Bitflip { bit })
            .collect();
        // Also report any mismatch between stored fill and expectation
        // (e.g. the row was never initialized).
        let mismatch = state.fill ^ expected;
        if mismatch != 0 {
            // Whole-row mismatch: report the first differing bit of
            // each byte value; campaigns never hit this path.
            for bit in 0..8u32 {
                if mismatch >> bit & 1 == 1 {
                    flips.push(Bitflip { bit });
                }
            }
        }
        self.precharge(bank).expect("valid bank");
        flips.sort_unstable_by_key(|f| f.bit);
        flips.dedup();
        flips
    }

    /// Issues one refresh command: restores the next
    /// `rows_per_refresh` rows in every bank (and, with TRR enabled, the
    /// neighbors of recently activated rows).
    pub fn refresh(&mut self) {
        for bank_idx in 0..self.config.banks() as usize {
            let start = self.banks[bank_idx].refresh_ptr;
            for offset in 0..self.config.rows_per_refresh {
                let row = (start + offset) % self.config.rows_per_bank();
                self.restore_row(bank_idx, row, 1);
            }
            self.banks[bank_idx].refresh_ptr =
                (start + self.config.rows_per_refresh) % self.config.rows_per_bank();

            if self.trr_enabled {
                let recent = std::mem::take(&mut self.banks[bank_idx].recent_activations);
                for row in &recent {
                    let (below, above) =
                        self.config.mapping.neighbors_of(*row, self.config.rows_per_bank());
                    for neighbor in [below, above].into_iter().flatten() {
                        self.restore_row(bank_idx, neighbor, 1);
                    }
                }
                self.banks[bank_idx].recent_activations = recent;
            }
        }
    }

    /// The smallest hammer count at which the given row can currently
    /// flip under `conditions` — the row's instantaneous ground-truth
    /// threshold (all weak cells, current trap states, current data).
    /// Returns `None` for rows without weak cells.
    ///
    /// This is an oracle for tests and analyses; real campaigns must
    /// measure it the hard way, which is the point of the paper.
    pub fn oracle_row_threshold(
        &mut self,
        bank: usize,
        row: u32,
        conditions: &TestConditions,
    ) -> Option<f64> {
        self.check_addr(bank, row).ok()?;
        self.ensure_row(bank, row);
        let state = self.banks[bank].rows.get(&row).expect("ensured");
        let mut min: Option<f64> = None;
        for cell in &state.cells {
            let stored = fill_bit(state.fill, cell.bit) ^ state.flipped.contains(&cell.bit);
            let t = cell.effective_threshold(conditions, stored);
            min = Some(min.map_or(t, |m: f64| m.min(t)));
        }
        min
    }

    /// Number of weak cells in a row (oracle for tests).
    pub fn oracle_weak_cell_count(&mut self, bank: usize, row: u32) -> usize {
        if self.check_addr(bank, row).is_err() {
            return 0;
        }
        self.ensure_row(bank, row);
        self.banks[bank].rows[&row].cells.len()
    }

    // ----- internals -------------------------------------------------

    fn row_state(&mut self, bank: usize, row: u32) -> &mut RowState {
        self.ensure_row(bank, row);
        self.banks[bank].rows.get_mut(&row).expect("ensured")
    }

    fn ensure_row(&mut self, bank: usize, row: u32) {
        if self.banks[bank].rows.contains_key(&row) {
            return;
        }
        let cells = self.generate_weak_cells(bank, row);
        // Rows born inside a keyed session owe no catch-up for epochs
        // they did not exist in.
        let trap_epoch = self.keyed_session.map_or(0, |s| s.epoch);
        self.banks[bank].rows.insert(
            row,
            RowState {
                fill: 0,
                flipped: Vec::new(),
                disturb: DisturbState::default(),
                cells,
                trap_epoch,
            },
        );
    }

    /// Deterministic per-row weak-cell generation from the device seed.
    fn generate_weak_cells(&mut self, bank: usize, row: u32) -> Vec<WeakCell> {
        let seed = derive_row_seed(self.seed, bank as u64, u64::from(row));
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let p = &self.config.vrd;
        let physical = self.config.mapping.physical_of(row);
        let polarity = self.config.cell_layout.polarity_of_physical_row(physical);
        let row_bits = self.config.row_bytes * 8;

        let spatial_factor = self.config.spatial.factor(physical, self.seed);
        // Per-bank spread (HBM2): a pure hash of (bank, seed), so it
        // consumes no RNG draws; with zero sigma the factor is exactly
        // 1.0 and the multiplication below is bitwise identity.
        let bank_factor = self.config.bank_variation.factor(bank as u32, self.seed);
        let count = sample_poisson(&mut rng, p.weak_cells_per_row);
        let mut cells = Vec::with_capacity(count);
        for _ in 0..count {
            let base_ln = (p.median_rdt * spatial_factor * bank_factor).ln()
                + p.sigma_ln * sample_normal(&mut rng);
            let mut pattern_sense = [1.0f64; 4];
            for s in &mut pattern_sense {
                *s = (p.pattern_spread * sample_normal(&mut rng)).exp();
            }
            let press = (p.press_coeff * (0.08 * sample_normal(&mut rng)).exp()).max(0.01);
            let temp_coeff = p.temp_coeff_mean + p.temp_coeff_spread * sample_normal(&mut rng);
            let discharged_penalty = 2.0 + 2.0 * rng.gen::<f64>();

            let jitter_sigma = p.jitter_sigma_range.0
                + (p.jitter_sigma_range.1 - p.jitter_sigma_range.0) * rng.gen::<f64>();
            let mut pattern_vrd_sense = self.pattern_vrd_bias;
            for s in &mut pattern_vrd_sense {
                *s *= (0.15 * sample_normal(&mut rng)).exp();
            }
            let mix = |rng: &mut ChaCha12Rng| {
                p.mix_rate_range.0 + (p.mix_rate_range.1 - p.mix_rate_range.0) * rng.gen::<f64>()
            };
            let mut traps = Vec::new();
            if p.bimodal {
                // One dominant, moderately occupied trap: two clearly
                // separated RDT populations (HBM2 Chip1 in Fig. 4).
                traps.push(Trap::new(&mut rng, 0.4, 0.02, p.tail_assist.max(0.18)));
            } else {
                // A few small traps add discrete states on top of the
                // session jitter.
                let n_traps = 1 + sample_geometric(&mut rng, 0.5).min(3);
                for _ in 0..n_traps {
                    let occupancy = 0.2 + 0.6 * rng.gen::<f64>();
                    let m = mix(&mut rng);
                    let assist = (p.typical_assist * (0.5 + rng.gen::<f64>())).min(0.6);
                    traps.push(Trap::new(&mut rng, occupancy, m, assist));
                }
                if rng.gen_bool(p.tail_probability) {
                    // A deep trap whose occupied state is rare: the
                    // minimum RDT appears in only a small fraction of
                    // measurements (Findings 7–9). Occupancy is sampled
                    // log-uniformly over the configured range.
                    let (lo, hi) = p.tail_occupancy_range;
                    let occupancy = (lo.ln() + (hi.ln() - lo.ln()) * rng.gen::<f64>()).exp();
                    let m = mix(&mut rng) * 0.5;
                    traps.push(Trap::new(&mut rng, occupancy, m.max(1e-4), p.tail_assist));
                }
            }

            cells.push(WeakCell {
                bit: rng.gen_range(0..row_bits),
                polarity,
                base_threshold: base_ln.exp(),
                pattern_sense,
                press_coeff: press,
                temp_coeff,
                discharged_penalty,
                jitter_sigma,
                pattern_vrd_sense,
                traps,
            });
        }
        cells
    }

    fn add_disturbance(
        &mut self,
        bank: usize,
        victim: u32,
        from_below: bool,
        n: u32,
        t_on_ns: f64,
    ) {
        self.ensure_row(bank, victim);
        // Rows without weak cells never flip in the tested range; skip
        // the bookkeeping for them (the dominant case).
        let state = self.banks[bank].rows.get_mut(&victim).expect("ensured");
        if state.cells.is_empty() {
            return;
        }
        if from_below {
            state.disturb.below += f64::from(n);
        } else {
            state.disturb.above += f64::from(n);
        }
        state.disturb.t_on_ns = state.disturb.t_on_ns.max(t_on_ns);
    }

    /// Charge restoration of a row: materialize pending flips, reset
    /// accumulated disturbance, evolve traps.
    ///
    /// Sequential mode steps traps `n` times and samples a fresh
    /// threshold per restoration from the device RNG. Keyed mode (see
    /// [`begin_keyed_session`](Self::begin_keyed_session)) draws both
    /// from counter-based streams: one threshold and one compound trap
    /// step per *measurement epoch*, independent of how many sessions
    /// the epoch runs.
    fn restore_row(&mut self, bank: usize, row: u32, n: u32) {
        // Avoid instantiating untouched rows on refresh.
        if !self.banks[bank].rows.contains_key(&row) {
            return;
        }
        let temperature = self.temperature_c;
        let conditions = self.infer_conditions(bank, row);
        let keyed = self.keyed_session;
        let dynamics_seed = self.dynamics_seed;
        if let Some(session) = keyed {
            self.catch_up_traps(bank, row, session.epoch);
            let state = self.banks[bank].rows.get_mut(&row).expect("checked");
            if !state.disturb.is_clean() {
                let hammers = state.disturb.effective_hammers();
                for cell in &state.cells {
                    let already = state.flipped.contains(&cell.bit);
                    let stored = fill_bit(state.fill, cell.bit) ^ already;
                    let mut rng = KeyedRng::for_threshold(
                        dynamics_seed,
                        session.epoch,
                        bank as u64,
                        row,
                        cell.bit,
                    );
                    let threshold = cell.sample_threshold(&mut rng, &conditions, stored);
                    if hammers >= threshold && !already {
                        state.flipped.push(cell.bit);
                    }
                }
                state.disturb = DisturbState::default();
            }
            return;
        }
        let state = self.banks[bank].rows.get_mut(&row).expect("checked");
        if !state.disturb.is_clean() {
            let hammers = state.disturb.effective_hammers();
            for cell in &state.cells {
                let already = state.flipped.contains(&cell.bit);
                let stored = fill_bit(state.fill, cell.bit) ^ already;
                let threshold = cell.sample_threshold(&mut self.rng, &conditions, stored);
                if hammers >= threshold && !already {
                    state.flipped.push(cell.bit);
                }
            }
            state.disturb = DisturbState::default();
        }
        if !state.cells.is_empty() {
            // One Markov step per restoration event; bulk restorations
            // step with the compound redraw probability.
            for cell in &mut state.cells {
                for trap in &mut cell.traps {
                    step_trap_n(trap, &mut self.rng, temperature, n);
                }
            }
        }
    }

    /// Infers the effective test conditions for a victim row from its
    /// stored fill (the Table-2 pattern nearest to it; every pattern's
    /// aggressor fill is the victim fill's complement) plus device
    /// temperature and the recorded aggressor on-time.
    fn infer_conditions(&self, bank: usize, row: u32) -> TestConditions {
        let state = self.banks[bank].rows.get(&row).expect("caller ensured");
        let t_on =
            if state.disturb.t_on_ns > 0.0 { state.disturb.t_on_ns } else { T_AGG_ON_MIN_TRAS_NS };
        TestConditions {
            pattern: nearest_pattern(state.fill),
            t_agg_on_ns: t_on,
            temperature_c: self.temperature_c,
        }
    }

    /// Catches up trap evolution of `row` to `epoch` under keyed
    /// dynamics: one compound step per elapsed epoch, keyed by epoch, so
    /// it does not matter which session (or which search strategy, or
    /// the batch engine) triggers the catch-up.
    fn catch_up_traps(&mut self, bank: usize, row: u32, epoch: u64) {
        let temperature = self.temperature_c;
        let dynamics_seed = self.dynamics_seed;
        let Some(state) = self.banks[bank].rows.get_mut(&row) else {
            return;
        };
        if state.trap_epoch >= epoch || state.cells.is_empty() {
            return;
        }
        for e in state.trap_epoch + 1..=epoch {
            for cell in &mut state.cells {
                for (trap_idx, trap) in cell.traps.iter_mut().enumerate() {
                    let mut rng = KeyedRng::for_trap(
                        dynamics_seed,
                        e,
                        bank as u64,
                        row,
                        cell.bit,
                        trap_idx as u64,
                    );
                    step_trap_n(trap, &mut rng, temperature, TRAP_STEPS_PER_MEASUREMENT);
                }
            }
        }
        state.trap_epoch = epoch;
    }

    /// Prepares one `(epoch, bank, victim)` for batched double-sided
    /// hammer sessions: materializes the rows a session touches, catches
    /// their traps up to the current keyed epoch, and draws every weak
    /// cell's per-epoch threshold once into dense lanes.
    ///
    /// `hammer_t_on_ns` is the aggressor on-time of hammered probes as
    /// the memory controller applies it (already clamped to `t_RAS`).
    ///
    /// Returns `None` — leaving the device in a state the scalar path
    /// reproduces exactly — whenever the scalar path could diverge from
    /// the batch replay: no keyed session, invalid address, TRR
    /// emulation, an edge victim without two distinct aggressors, an
    /// asymmetric mapping, or a row whose weak cells share a bit
    /// position (their flip evaluation is order-dependent).
    pub fn prepare_batch_epoch(
        &mut self,
        bank: usize,
        victim: u32,
        pattern: DataPattern,
        hammer_t_on_ns: f64,
    ) -> Option<RowBatchProfile> {
        let session = self.keyed_session?;
        self.check_addr(bank, victim).ok()?;
        if self.trr_enabled {
            return None;
        }
        let rows = self.config.rows_per_bank();
        let (below, above) = self.config.mapping.neighbors_of(victim, rows);
        let (below, above) = match (below, above) {
            (Some(b), Some(a)) => (b, a),
            // Edge victims hammer a single aggressor twice; keep them
            // on the scalar path.
            _ => return None,
        };
        let (outer_below, below_up) = self.config.mapping.neighbors_of(below, rows);
        let (above_down, outer_above) = self.config.mapping.neighbors_of(above, rows);
        if below_up != Some(victim) || above_down != Some(victim) {
            return None;
        }

        let epoch = session.epoch;
        for row in [victim, below, above] {
            self.ensure_row(bank, row);
            self.catch_up_traps(bank, row, epoch);
        }

        let victim_fill = pattern.victim_byte();
        let aggressor_fill = pattern.aggressor_byte();
        let hammer_t_on = T_AGG_ON_MIN_TRAS_NS.max(hammer_t_on_ns);
        // The conditions the read restore will infer from the rows the
        // session has just written.
        let cond_hammer = TestConditions {
            pattern: nearest_pattern(victim_fill),
            t_agg_on_ns: hammer_t_on,
            temperature_c: self.temperature_c,
        };
        let cond_idle = TestConditions { t_agg_on_ns: T_AGG_ON_MIN_TRAS_NS, ..cond_hammer };

        let state = self.banks[bank].rows.get(&victim).expect("ensured");
        let bits: Vec<u32> = state.cells.iter().map(|c| c.bit).collect();
        let mut sorted = bits.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        let dynamics_seed = self.dynamics_seed;
        let sample_set = |cond: &TestConditions| {
            let mut thresholds = Vec::with_capacity(state.cells.len());
            for cell in &state.cells {
                let stored = (victim_fill >> (cell.bit % 8)) & 1 == 1;
                let mut rng =
                    KeyedRng::for_threshold(dynamics_seed, epoch, bank as u64, victim, cell.bit);
                thresholds.push(cell.sample_threshold(&mut rng, cond, stored));
            }
            LaneThresholds::new(bits.clone(), thresholds)
        };
        let hammer = sample_set(&cond_hammer);
        let idle =
            (cond_idle.t_agg_on_ns != cond_hammer.t_agg_on_ns).then(|| sample_set(&cond_idle));

        Some(RowBatchProfile {
            epoch,
            bank,
            victim,
            below,
            above,
            outer_below,
            outer_above,
            victim_fill,
            aggressor_fill,
            hammer_t_on_ns,
            hammer,
            idle,
        })
    }

    /// Replays one double-sided hammer session against a prepared
    /// [`RowBatchProfile`], byte-identical in device state to the scalar
    /// init/hammer/read command sequence, and returns whether the read
    /// would have observed any (post-ECC) bitflip.
    ///
    /// Per-cell work collapses to one branch-free lane-compare pass over
    /// the profile's precomputed thresholds; everything else is counter
    /// and end-state bookkeeping.
    pub fn batch_hammer_session(&mut self, profile: &RowBatchProfile, hammer_count: u32) -> bool {
        debug_assert_eq!(
            self.keyed_session.map(|s| s.epoch),
            Some(profile.epoch),
            "batch sessions must run inside the profile's keyed epoch"
        );
        let hc = hammer_count;
        // Init activates victim and both aggressors once; the hammer
        // activates each aggressor `hc` times; the read activates the
        // victim once more.
        self.total_activations += 4 + 2 * u64::from(hc);

        // Both victim neighbors accumulate one init activation plus the
        // hammer count, so the read restore sees a balanced disturbance.
        let effective = 1.0 + f64::from(hc);
        let lanes = if hc == 0 {
            profile.idle.as_ref().unwrap_or(&profile.hammer)
        } else {
            &profile.hammer
        };
        let ecc = self.on_die_ecc_enabled;

        // Victim end state: freshly written fill, materialized flips,
        // disturbance consumed by the read restore. The victim's flip
        // buffer is reused across sessions, keeping the probe
        // allocation-free once its capacity settles.
        let state = self.banks[profile.bank].rows.get_mut(&profile.victim).expect("prepared");
        state.fill = profile.victim_fill;
        state.disturb = DisturbState::default();
        state.flipped.clear();
        lanes.flips_into(effective, &mut state.flipped);
        let flipped = if ecc {
            !visible_flips(&state.flipped, true).is_empty()
        } else {
            !state.flipped.is_empty()
        };

        // Aggressor end state: written fill, cleared flips, and exactly
        // one pending disturbance from the final read of the victim —
        // folded inline so each row is hashed once per session.
        for (row, from_below) in [(profile.below, false), (profile.above, true)] {
            let state = self.banks[profile.bank].rows.get_mut(&row).expect("prepared");
            state.fill = profile.aggressor_fill;
            state.flipped.clear();
            state.disturb = DisturbState::default();
            if !state.cells.is_empty() {
                if from_below {
                    state.disturb.below += 1.0;
                } else {
                    state.disturb.above += 1.0;
                }
                state.disturb.t_on_ns = state.disturb.t_on_ns.max(T_AGG_ON_MIN_TRAS_NS);
            }
        }
        // Outer rows are disturbed by the aggressors' init and hammer
        // activations and never restored within the session; the two
        // accumulations must stay separate f64 additions, in the scalar
        // path's order (init read at minimum on-time, then the hammer).
        for (outer, from_below) in [(profile.outer_below, false), (profile.outer_above, true)] {
            if let Some(row) = outer {
                self.ensure_row(profile.bank, row);
                let state = self.banks[profile.bank].rows.get_mut(&row).expect("ensured");
                if state.cells.is_empty() {
                    continue;
                }
                if from_below {
                    state.disturb.below += 1.0;
                } else {
                    state.disturb.above += 1.0;
                }
                state.disturb.t_on_ns = state.disturb.t_on_ns.max(T_AGG_ON_MIN_TRAS_NS);
                if hc > 0 {
                    if from_below {
                        state.disturb.below += f64::from(hc);
                    } else {
                        state.disturb.above += f64::from(hc);
                    }
                    state.disturb.t_on_ns = state.disturb.t_on_ns.max(profile.hammer_t_on_ns);
                }
            }
        }
        self.banks[profile.bank].open_row = None;
        flipped
    }
}

/// Maps an arbitrary victim fill byte to the Table-2 pattern with the
/// nearest coupling behaviour: exact matches first, then by Hamming
/// distance of the fill to the four victim bytes (coupling is driven by
/// which victim bits sit against inverted aggressor bits, which the
/// Hamming distance captures to first order).
pub fn nearest_pattern(victim_fill: u8) -> DataPattern {
    DataPattern::ALL
        .into_iter()
        .min_by_key(|p| (victim_fill ^ p.victim_byte()).count_ones())
        .expect("four candidates")
}

/// The stored value of bit `bit` in a row written with `fill`.
fn fill_bit(fill: u8, bit: u32) -> bool {
    (fill >> (bit % 8)) & 1 == 1
}

fn visible_flips(flipped: &[u32], on_die_ecc: bool) -> Vec<u32> {
    if !on_die_ecc {
        return flipped.to_vec();
    }
    // On-die ECC corrects a single bit error per aligned 64-bit word.
    let mut per_word: HashMap<u32, Vec<u32>> = HashMap::new();
    for &bit in flipped {
        per_word.entry(bit / 64).or_default().push(bit);
    }
    let mut visible = Vec::new();
    for (_, bits) in per_word {
        if bits.len() > 1 {
            visible.extend(bits);
        }
    }
    visible.sort_unstable();
    visible
}

/// Steps a trap `n` times in one draw using the compound redraw
/// probability `1 - (1 - r)^n` (statistically identical to `n` single
/// steps for a redraw-style chain).
fn step_trap_n<R: Rng + ?Sized>(trap: &mut Trap, rng: &mut R, temperature_c: f64, n: u32) {
    if n == 0 {
        return;
    }
    if n == 1 {
        trap.step(rng, temperature_c);
        return;
    }
    let accel = 1.0 + 0.01 * (temperature_c - 50.0);
    let rate = (trap.mix_rate * accel).clamp(f64::MIN_POSITIVE, 1.0);
    let compound = 1.0 - (1.0 - rate).powi(n as i32);
    if rng.gen_bool(compound.clamp(0.0, 1.0)) {
        trap.occupied = rng.gen_bool(trap.occupancy);
    }
}

fn derive_row_seed(device_seed: u64, bank: u64, row: u64) -> u64 {
    crate::keyed::mix64(
        device_seed ^ bank.rotate_left(32) ^ row.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

fn sample_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> usize {
    // Knuth's method; lambda is small (≈ 1–2) everywhere we use it.
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 64 {
            return k; // guard against pathological lambda
        }
    }
}

fn sample_geometric<R: Rng + ?Sized>(rng: &mut R, p: f64) -> usize {
    let mut k = 0usize;
    while !rng.gen_bool(p) && k < 32 {
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strong_config() -> DeviceConfig {
        // Dense weak cells with low thresholds so hammering reliably flips.
        let mut cfg = DeviceConfig::small_test();
        cfg.vrd.median_rdt = 3_000.0;
        cfg.vrd.weak_cells_per_row = 4.0;
        cfg
    }

    /// Hammers both neighbours of a non-edge `victim` in bank 0 (direct
    /// mapping), `count` activations each, as Alg. 1's session does.
    fn hammer_both_sides(dev: &mut DramDevice, victim: u32, count: u32) {
        for aggressor in [victim - 1, victim + 1] {
            dev.precharge(0).unwrap();
            dev.activate_n(0, aggressor, count, 35.0).unwrap();
            dev.precharge(0).unwrap();
        }
    }

    /// Finds a row whose weak-cell threshold is low enough to flip fast.
    fn find_vulnerable_row(dev: &mut DramDevice) -> u32 {
        let cond = TestConditions::foundational();
        for row in 2..4000 {
            if let Some(t) = dev.oracle_row_threshold(0, row, &cond) {
                if t < 20_000.0 {
                    return row;
                }
            }
        }
        panic!("no vulnerable row in test device");
    }

    #[test]
    fn construction_is_deterministic() {
        let mut a = DramDevice::new(DeviceConfig::small_test(), 7);
        let mut b = DramDevice::new(DeviceConfig::small_test(), 7);
        for row in 0..200 {
            assert_eq!(a.oracle_weak_cell_count(0, row), b.oracle_weak_cell_count(0, row));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DramDevice::new(DeviceConfig::small_test(), 1);
        let mut b = DramDevice::new(DeviceConfig::small_test(), 2);
        let counts_a: Vec<usize> = (0..100).map(|r| a.oracle_weak_cell_count(0, r)).collect();
        let counts_b: Vec<usize> = (0..100).map(|r| b.oracle_weak_cell_count(0, r)).collect();
        assert_ne!(counts_a, counts_b);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut dev = DramDevice::new(DeviceConfig::small_test(), 0);
        assert!(matches!(dev.activate(9, 0), Err(DramError::BankOutOfRange { .. })));
        assert!(matches!(dev.activate(0, 1 << 30), Err(DramError::RowOutOfRange { .. })));
    }

    #[test]
    fn activate_requires_precharge_between_rows() {
        let mut dev = DramDevice::new(DeviceConfig::small_test(), 0);
        dev.activate(0, 10).unwrap();
        assert!(matches!(dev.activate(0, 11), Err(DramError::RowNotOpen { .. })));
        dev.precharge(0).unwrap();
        dev.activate(0, 11).unwrap();
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut dev = DramDevice::new(DeviceConfig::small_test(), 0);
        dev.write_row(0, 5, 0x55);
        dev.activate(0, 5).unwrap();
        let data = dev.read_open_row(0, 5).unwrap();
        assert!(data.iter().all(|&b| b == 0x55));
        dev.precharge(0).unwrap();
    }

    #[test]
    fn heavy_hammer_flips_vulnerable_row() {
        let mut dev = DramDevice::new(strong_config(), 42);
        let victim = find_vulnerable_row(&mut dev);
        let p = DataPattern::Checkered0;
        dev.write_row(0, victim, p.victim_byte());
        dev.write_row(0, victim - 1, p.aggressor_byte());
        dev.write_row(0, victim + 1, p.aggressor_byte());
        hammer_both_sides(&mut dev, victim, 500_000);
        let flips = dev.read_and_compare(0, victim, p.victim_byte());
        assert!(!flips.is_empty(), "500k hammers must flip a vulnerable row");
    }

    #[test]
    fn light_hammer_does_not_flip() {
        let mut dev = DramDevice::new(strong_config(), 42);
        let victim = find_vulnerable_row(&mut dev);
        let p = DataPattern::Checkered0;
        dev.write_row(0, victim, p.victim_byte());
        dev.write_row(0, victim - 1, p.aggressor_byte());
        dev.write_row(0, victim + 1, p.aggressor_byte());
        hammer_both_sides(&mut dev, victim, 5);
        let flips = dev.read_and_compare(0, victim, p.victim_byte());
        assert!(flips.is_empty(), "5 hammers must not flip anything");
    }

    #[test]
    fn rewriting_clears_flips() {
        let mut dev = DramDevice::new(strong_config(), 42);
        let victim = find_vulnerable_row(&mut dev);
        let p = DataPattern::Checkered0;
        dev.write_row(0, victim, p.victim_byte());
        dev.write_row(0, victim - 1, p.aggressor_byte());
        dev.write_row(0, victim + 1, p.aggressor_byte());
        hammer_both_sides(&mut dev, victim, 500_000);
        assert!(!dev.read_and_compare(0, victim, p.victim_byte()).is_empty());
        // Re-initialize and read without hammering: clean.
        dev.write_row(0, victim, p.victim_byte());
        assert!(dev.read_and_compare(0, victim, p.victim_byte()).is_empty());
    }

    #[test]
    fn bulk_activation_equals_repeated_activation() {
        // Statistical equivalence of activate_n and n× activate on the
        // disturbance counters (trap RNG draws differ; counters must not).
        let mut a = DramDevice::new(strong_config(), 3);
        let mut b = DramDevice::new(strong_config(), 3);
        let victim = find_vulnerable_row(&mut a);
        let aggressor = victim + 1;
        a.activate_n(0, aggressor, 100, 35.0).unwrap();
        for _ in 0..100 {
            b.activate(0, aggressor).unwrap();
            b.precharge(0).unwrap();
        }
        let da = a.banks[0].rows[&victim].disturb;
        let db = b.banks[0].rows[&victim].disturb;
        assert_eq!(da.below, db.below);
        assert_eq!(da.above, db.above);
    }

    #[test]
    fn single_sided_is_weaker() {
        let s = DisturbState { below: 1000.0, above: 1000.0, t_on_ns: 35.0 };
        assert_eq!(s.effective_hammers(), 1000.0);
        let s = DisturbState { below: 1000.0, above: 0.0, t_on_ns: 35.0 };
        assert_eq!(s.effective_hammers(), 400.0);
    }

    #[test]
    fn refresh_resets_disturbance() {
        let mut cfg = strong_config();
        cfg.rows_per_refresh = cfg.rows_per_bank(); // refresh all rows at once
        let mut dev = DramDevice::new(cfg, 42);
        let victim = find_vulnerable_row(&mut dev);
        let p = DataPattern::Checkered0;
        dev.write_row(0, victim, p.victim_byte());
        dev.write_row(0, victim - 1, p.aggressor_byte());
        dev.write_row(0, victim + 1, p.aggressor_byte());
        // Hammer heavily but refresh before reading: refresh restores the
        // row, but flips already "occurred" during hammering, so restore
        // materializes them — hammering must flip regardless of whether
        // the read or the refresh performs the restore.
        hammer_both_sides(&mut dev, victim, 500_000);
        dev.refresh();
        let flips = dev.read_and_compare(0, victim, p.victim_byte());
        assert!(!flips.is_empty());

        // But split hammering with interleaved refreshes never crosses
        // the threshold: each refresh resets accumulation.
        dev.write_row(0, victim, p.victim_byte());
        for _ in 0..50 {
            hammer_both_sides(&mut dev, victim, 100);
            dev.refresh();
        }
        let flips = dev.read_and_compare(0, victim, p.victim_byte());
        assert!(flips.is_empty(), "interleaved refresh must prevent flips");
    }

    #[test]
    fn on_die_ecc_hides_single_flips() {
        let mut dev = DramDevice::new(strong_config(), 42);
        let victim = find_vulnerable_row(&mut dev);
        let p = DataPattern::Checkered0;
        dev.write_row(0, victim, p.victim_byte());
        dev.write_row(0, victim - 1, p.aggressor_byte());
        dev.write_row(0, victim + 1, p.aggressor_byte());
        hammer_both_sides(&mut dev, victim, 500_000);
        dev.set_on_die_ecc_enabled(true);
        let with_ecc = dev.read_and_compare(0, victim, p.victim_byte());
        dev.set_on_die_ecc_enabled(false);
        let without_ecc = dev.read_and_compare(0, victim, p.victim_byte());
        assert!(with_ecc.len() <= without_ecc.len());
    }

    #[test]
    fn nearest_pattern_by_hamming_distance() {
        assert_eq!(nearest_pattern(0x00), DataPattern::Rowstripe0);
        assert_eq!(nearest_pattern(0xFF), DataPattern::Rowstripe1);
        assert_eq!(nearest_pattern(0x01), DataPattern::Rowstripe0);
        assert_eq!(nearest_pattern(0xFE), DataPattern::Rowstripe1);
        assert_eq!(nearest_pattern(0x54), DataPattern::Checkered0);
        assert_eq!(nearest_pattern(0xAB), DataPattern::Checkered1);
    }

    #[test]
    fn oracle_threshold_none_for_strong_rows() {
        let mut cfg = DeviceConfig::small_test();
        cfg.vrd.weak_cells_per_row = 0.0;
        let mut dev = DramDevice::new(cfg, 0);
        assert_eq!(dev.oracle_row_threshold(0, 100, &TestConditions::foundational()), None);
    }

    #[test]
    fn total_activations_counts_bulk() {
        let mut dev = DramDevice::new(DeviceConfig::small_test(), 0);
        dev.activate_n(0, 1, 500, 35.0).unwrap();
        dev.precharge(0).unwrap();
        dev.activate(0, 2).unwrap();
        assert_eq!(dev.total_activations(), 501);
    }
}
