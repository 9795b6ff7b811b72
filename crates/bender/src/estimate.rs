//! Appendix-A RDT test time and energy estimation (Tables 4–6,
//! Figs. 17–24).
//!
//! The paper estimates how long (and how much energy) exhaustive RDT
//! testing takes by tightly scheduling the DRAM commands of one test
//! iteration — initialize three rows, double-sided hammer, read the
//! victim — under DDR5 timing (Table 6), for one bank (Table 4) or for
//! several banks tested simultaneously while obeying `t_RRD_S`/`t_CCD_S`
//! (Table 5). This module reproduces those formulas and the derived
//! campaign-scale projections.

use serde::{Deserialize, Serialize};

use crate::timing::TimingParams;

/// Per-command energy constants derived from Micron 16Gb DDR5 IDD values
/// (the paper's reference \[243\]): an ACT/PRE pair, one column burst, and one hammer-hold
/// nanosecond of an open row (IDD1-class background while pressing).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy of one ACT + PRE pair (nJ).
    pub act_pre_nj: f64,
    /// Energy of one write burst (nJ).
    pub write_nj: f64,
    /// Energy of one read burst (nJ).
    pub read_nj: f64,
    /// Active-standby power while a row is held open (mW), charged per
    /// nanosecond of hold time (RowPress dominates through this term).
    pub open_row_mw: f64,
    /// Idle background power of the device (mW).
    pub background_mw: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // VDD 1.1 V; IDD0 ≈ 65 mA over a tRC window ⇒ ~2 nJ per ACT/PRE;
        // IDD4W/IDD4R bursts ⇒ ~1.5/1.2 nJ; IDD3N ≈ 45 mA ⇒ ~50 mW.
        EnergyModel {
            act_pre_nj: 2.0,
            write_nj: 1.5,
            read_nj: 1.2,
            open_row_mw: 50.0,
            background_mw: 55.0,
        }
    }
}

/// Command counts of one RDT measurement for one victim row (Table 4
/// shape), scaled by the number of simultaneously tested banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommandCounts {
    /// Row activations (init + hammer + read).
    pub acts: u64,
    /// Write bursts.
    pub writes: u64,
    /// Read bursts.
    pub reads: u64,
    /// Precharges.
    pub pres: u64,
}

/// Parameters of one RDT measurement, Appendix-A style.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasurementSpec {
    /// Activations per aggressor row (the hammer count).
    pub hammer_count: u64,
    /// Aggressor on-time in ns (`t_RAS` for RowHammer, 7.8 µs for the
    /// paper's RowPress projection).
    pub t_agg_on_ns: f64,
    /// Number of banks tested simultaneously (1 uses the Table-4
    /// schedule; more uses the Table-5 schedule).
    pub banks: u32,
}

impl MeasurementSpec {
    /// RowHammer at min `t_RAS` on one bank with the given hammer count.
    pub fn rowhammer(hammer_count: u64) -> Self {
        MeasurementSpec { hammer_count, t_agg_on_ns: TimingParams::ddr5().t_ras, banks: 1 }
    }

    /// Tests `banks` banks simultaneously.
    pub fn with_banks(mut self, banks: u32) -> Self {
        assert!(banks > 0, "banks must be nonzero");
        self.banks = banks;
        self
    }
}

/// Command counts for one measurement of one victim row *per bank*
/// (Tables 4 and 5 both issue the same commands; parallelism changes the
/// schedule, not the counts).
pub fn commands_per_measurement(spec: &MeasurementSpec) -> CommandCounts {
    let b = u64::from(spec.banks);
    CommandCounts {
        // 3 row inits + read ACT per bank, plus 2 aggressors × hammers.
        acts: (3 + 1) * b + 2 * spec.hammer_count * b,
        writes: 128 * 3 * b,
        reads: 128 * b,
        pres: (3 + 1) * b + 2 * spec.hammer_count * b,
    }
}

/// Time of one RDT measurement (ns) under `timing`, per Tables 4 and 5.
///
/// For `banks > 1` the schedule overlaps across banks: activations are
/// spaced `t_RRD_S`, write bursts `t_CCD_S`, and the hammer ACT interval
/// is `max(t_AggOn + t_RP, t_RRD_S × banks)` (Table 5's
/// `Max(t_AggOn, t_RRD_S·16)` row, plus the precharge).
pub fn one_measurement_time_ns(timing: &TimingParams, spec: &MeasurementSpec) -> f64 {
    let b = f64::from(spec.banks);
    let hc = spec.hammer_count as f64;
    let t_on = spec.t_agg_on_ns.max(timing.t_ras);
    if spec.banks == 1 {
        // Table 4: three inits, hammer loop, read.
        let init_one_row = timing.t_rcd + 127.0 * timing.t_ccd_l_wr + timing.t_wr + timing.t_rp;
        let hammer = hc * 2.0 * (t_on + timing.t_rp);
        let read = timing.t_rcd + 127.0 * timing.t_ccd_l + timing.t_rtp;
        3.0 * init_one_row + hammer + read
    } else {
        // Table 5: B banks in lockstep.
        let init_one_row_group =
            b * timing.t_rrd_s + (128.0 * b - 1.0) * timing.t_ccd_s + timing.t_wr + timing.t_rp;
        let hammer_interval = (t_on + timing.t_rp).max(timing.t_rrd_s * b + timing.t_rp);
        let hammer = hc * 2.0 * hammer_interval;
        let read =
            timing.t_rcd + (128.0 * b - 1.0) * timing.t_ccd_l.min(timing.t_ccd_s) + timing.t_rtp;
        3.0 * init_one_row_group + hammer + read
    }
}

/// Energy of one RDT measurement (nJ).
pub fn one_measurement_energy_nj(
    timing: &TimingParams,
    spec: &MeasurementSpec,
    energy: &EnergyModel,
) -> f64 {
    let counts = commands_per_measurement(spec);
    let time_ns = one_measurement_time_ns(timing, spec);
    let hold_ns =
        spec.hammer_count as f64 * 2.0 * spec.t_agg_on_ns.max(timing.t_ras) * f64::from(spec.banks);
    counts.acts as f64 * energy.act_pre_nj
        + counts.writes as f64 * energy.write_nj
        + counts.reads as f64 * energy.read_nj
        + hold_ns * energy.open_row_mw * 1e-3 * 1e-9 * 1e9 // mW × ns = pJ·10³ → nJ: mW·ns = 1e-3 J/s × 1e-9 s = 1e-12 J = 1e-3 nJ
        * 1e-3
        + time_ns * energy.background_mw * 1e-6
}

/// A campaign-scale projection: `measurements` RDT measurements for each
/// of `rows` victim rows, testing `spec.banks` banks in parallel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Per-measurement parameters.
    pub measurement: MeasurementSpec,
    /// Victim rows to test (total across the device).
    pub rows: u64,
    /// RDT measurements per row.
    pub measurements: u64,
}

impl CampaignSpec {
    /// Total campaign time in nanoseconds.
    pub fn total_time_ns(&self, timing: &TimingParams) -> f64 {
        let per = one_measurement_time_ns(timing, &self.measurement);
        // Banks in parallel test `banks` rows at once.
        let groups = (self.rows as f64 / f64::from(self.measurement.banks)).ceil();
        per * groups * self.measurements as f64
    }

    /// Total campaign energy in joules.
    pub fn total_energy_j(&self, timing: &TimingParams, energy: &EnergyModel) -> f64 {
        let per = one_measurement_energy_nj(timing, &self.measurement, energy);
        let groups = (self.rows as f64 / f64::from(self.measurement.banks)).ceil();
        per * groups * self.measurements as f64 * 1e-9
    }
}

/// The paper's headline projection (§1): testing one row's RDT 94,467
/// times with an average RDT of 1,000 takes ≈ 9.5 s; this helper returns
/// the model's figure for any measurement count / mean RDT.
pub fn single_row_test_time_s(measurements: u64, mean_rdt: u64) -> f64 {
    // The Appendix-A methodology charges one Table-4 iteration
    // (initialize three rows, hammer at the mean RDT, read the victim)
    // per RDT measurement.
    let timing = TimingParams::ddr5();
    let spec = MeasurementSpec::rowhammer(mean_rdt);
    one_measurement_time_ns(&timing, &spec) * measurements as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RowPress at the paper's `t_AggOn` = 7.8 µs on one bank.
    fn rowpress(hammer_count: u64) -> MeasurementSpec {
        MeasurementSpec { t_agg_on_ns: 7_800.0, ..MeasurementSpec::rowhammer(hammer_count) }
    }

    fn days(spec: &CampaignSpec, timing: &TimingParams) -> f64 {
        spec.total_time_ns(timing) / 1e9 / 86_400.0
    }

    #[test]
    fn command_counts_match_table4_shape() {
        let c = commands_per_measurement(&MeasurementSpec::rowhammer(1000));
        assert_eq!(c.writes, 384); // 3 rows × 128 bursts
        assert_eq!(c.reads, 128);
        assert_eq!(c.acts, 4 + 2000);
        assert_eq!(c.pres, c.acts);
    }

    #[test]
    fn counts_scale_with_banks() {
        let one = commands_per_measurement(&MeasurementSpec::rowhammer(1000));
        let sixteen = commands_per_measurement(&MeasurementSpec::rowhammer(1000).with_banks(16));
        assert_eq!(sixteen.acts, one.acts * 16);
        assert_eq!(sixteen.writes, one.writes * 16);
    }

    #[test]
    fn hammer_dominates_time_at_high_counts() {
        let timing = TimingParams::ddr5();
        let small = one_measurement_time_ns(&timing, &MeasurementSpec::rowhammer(100));
        let large = one_measurement_time_ns(&timing, &MeasurementSpec::rowhammer(100_000));
        assert!(large > small * 100.0);
    }

    #[test]
    fn rowpress_is_much_slower() {
        let timing = TimingParams::ddr5();
        let rh = one_measurement_time_ns(&timing, &MeasurementSpec::rowhammer(1000));
        let rp = one_measurement_time_ns(&timing, &rowpress(1000));
        // 7.8 µs vs 32 ns on-time: two orders of magnitude.
        assert!(rp / rh > 50.0, "ratio {}", rp / rh);
    }

    #[test]
    fn bank_parallelism_amortizes_time() {
        let timing = TimingParams::ddr5();
        let spec1 = CampaignSpec {
            measurement: MeasurementSpec::rowhammer(1000),
            rows: 1024,
            measurements: 10,
        };
        let spec16 = CampaignSpec {
            measurement: MeasurementSpec::rowhammer(1000).with_banks(16),
            rows: 1024,
            measurements: 10,
        };
        let t1 = spec1.total_time_ns(&timing);
        let t16 = spec16.total_time_ns(&timing);
        assert!(t16 < t1, "16-bank parallel testing must be faster overall");
        assert!(t16 > t1 / 16.0, "but not a free 16× (tRRD_S throttles)");
    }

    #[test]
    fn paper_scale_100k_measurements_takes_weeks() {
        // §1/Appendix: 100K measurements of each row of a 32-bank chip at
        // hammer count 1K lands in the tens of days.
        let timing = TimingParams::ddr5();
        let spec = CampaignSpec {
            measurement: MeasurementSpec::rowhammer(1000).with_banks(32),
            rows: 32 * 256 * 1024,
            measurements: 100_000,
        };
        let days = days(&spec, &timing);
        assert!(days > 20.0 && days < 200.0, "got {days} days");
    }

    #[test]
    fn paper_scale_1k_measurements_takes_hours() {
        // Appendix: 1K measurements of a 32-bank chip ⇒ ~15 hours.
        let timing = TimingParams::ddr5();
        let spec = CampaignSpec {
            measurement: MeasurementSpec::rowhammer(1000).with_banks(32),
            rows: 32 * 256 * 1024,
            measurements: 1_000,
        };
        let hours = days(&spec, &timing) * 24.0;
        assert!(hours > 5.0 && hours < 50.0, "got {hours} hours");
    }

    #[test]
    fn rowpress_campaign_takes_years() {
        // Appendix: RowPress at 7.8 µs for 100K measurements ⇒ years.
        let timing = TimingParams::ddr5();
        let spec = CampaignSpec {
            measurement: rowpress(1000).with_banks(32),
            rows: 32 * 256 * 1024,
            measurements: 100_000,
        };
        let years = days(&spec, &timing) / 365.0;
        assert!(years > 3.0, "got {years} years");
    }

    #[test]
    fn energy_scales_with_hammers() {
        let timing = TimingParams::ddr5();
        let e = EnergyModel::default();
        let small = one_measurement_energy_nj(&timing, &MeasurementSpec::rowhammer(100), &e);
        let large = one_measurement_energy_nj(&timing, &MeasurementSpec::rowhammer(10_000), &e);
        assert!(large > small * 20.0);
    }

    #[test]
    fn single_row_headline_projection() {
        // The paper: 94,467 measurements at mean RDT 1,000 ≈ 9.5 s.
        let s = single_row_test_time_s(94_467, 1_000);
        assert!(s > 5.0 && s < 20.0, "got {s} s (paper: ~9.5 s)");
    }

    #[test]
    fn campaign_energy_is_positive_and_scales() {
        let timing = TimingParams::ddr5();
        let e = EnergyModel::default();
        let base = CampaignSpec {
            measurement: MeasurementSpec::rowhammer(1000).with_banks(32),
            rows: 1024,
            measurements: 100,
        };
        let double = CampaignSpec { measurements: 200, ..base };
        assert!(base.total_energy_j(&timing, &e) > 0.0);
        assert!(
            (double.total_energy_j(&timing, &e) / base.total_energy_j(&timing, &e) - 2.0).abs()
                < 1e-9
        );
    }
}
