//! JEDEC DRAM timing parameter tables.
//!
//! The DDR5 values are exactly the paper's Table 6 (used by the
//! Appendix-A time/energy estimation at 8800 MT/s); DDR4 and HBM2 values
//! follow the respective JEDEC standards at common speed bins.

use serde::{Deserialize, Serialize};

/// DRAM timing parameters in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// ACT-to-ACT delay, different bank group.
    pub t_rrd_s: f64,
    /// Column-to-column delay, different bank group.
    pub t_ccd_s: f64,
    /// Column-to-column delay, same bank group (reads).
    pub t_ccd_l: f64,
    /// Column-to-column delay, same bank group (writes).
    pub t_ccd_l_wr: f64,
    /// ACT-to-column delay.
    pub t_rcd: f64,
    /// Precharge latency.
    pub t_rp: f64,
    /// Minimum row-open time (charge restoration latency).
    pub t_ras: f64,
    /// Read-to-precharge delay.
    pub t_rtp: f64,
    /// Write recovery time.
    pub t_wr: f64,
    /// Average refresh command interval.
    pub t_refi: f64,
    /// Refresh window (every row refreshed once per window).
    pub t_refw: f64,
    /// Refresh command latency.
    pub t_rfc: f64,
}

impl TimingParams {
    /// DDR5 timings from the paper's Table 6 (JESD79-5C, 8800 MT/s).
    pub fn ddr5() -> Self {
        TimingParams {
            t_rrd_s: 1.816,
            t_ccd_s: 1.816,
            t_ccd_l: 5.0,
            t_ccd_l_wr: 20.0,
            t_rcd: 14.090,
            t_rp: 14.090,
            t_ras: 32.0,
            t_rtp: 7.5,
            t_wr: 30.0,
            t_refi: 3_900.0,
            t_refw: 32_000_000.0,
            t_rfc: 295.0,
        }
    }

    /// DDR4 timings (JESD79-4C, 3200 MT/s bin).
    pub fn ddr4() -> Self {
        TimingParams {
            t_rrd_s: 5.3,
            t_ccd_s: 5.0,
            t_ccd_l: 6.25,
            t_ccd_l_wr: 10.0,
            t_rcd: 13.75,
            t_rp: 13.75,
            t_ras: 35.0,
            t_rtp: 7.5,
            t_wr: 15.0,
            t_refi: 7_800.0,
            t_refw: 64_000_000.0,
            t_rfc: 350.0,
        }
    }

    /// HBM2 timings (JESD235D).
    pub fn hbm2() -> Self {
        TimingParams {
            t_rrd_s: 4.0,
            t_ccd_s: 2.0,
            t_ccd_l: 4.0,
            t_ccd_l_wr: 8.0,
            t_rcd: 14.0,
            t_rp: 14.0,
            t_ras: 33.0,
            t_rtp: 7.5,
            t_wr: 16.0,
            t_refi: 3_900.0,
            t_refw: 32_000_000.0,
            t_rfc: 260.0,
        }
    }

    /// Timing table for a DRAM standard at its default speed bin.
    pub fn for_standard(standard: vrd_dram::DramStandard) -> Self {
        match standard {
            vrd_dram::DramStandard::Ddr4 => Self::ddr4(),
            vrd_dram::DramStandard::Hbm2 => Self::hbm2(),
        }
    }

    /// Timing table for a device family: the standard's speed bin,
    /// with the disturbance-relevant parameters (tRAS/tRC/tREFI) taken
    /// from the family descriptor so platform and device model cannot
    /// disagree on them.
    pub fn for_family(family: &vrd_dram::DeviceFamily) -> Self {
        let mut t = Self::for_standard(family.standard);
        t.t_ras = family.timings.t_ras_ns;
        t.t_refi = family.timings.t_refi_ns;
        t.t_rp = family.timings.t_rc_ns - family.timings.t_ras_ns;
        t
    }

    /// Row cycle time tRC (ACT-to-ACT on the same bank).
    pub fn t_rc(&self) -> f64 {
        self.t_ras + self.t_rp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr5_matches_table6() {
        let t = TimingParams::ddr5();
        assert_eq!(t.t_rrd_s, 1.816);
        assert_eq!(t.t_ccd_s, 1.816);
        assert_eq!(t.t_ccd_l, 5.0);
        assert_eq!(t.t_ccd_l_wr, 20.0);
        assert_eq!(t.t_rcd, 14.090);
        assert_eq!(t.t_rp, 14.090);
        assert_eq!(t.t_ras, 32.0);
        assert_eq!(t.t_rtp, 7.5);
        assert_eq!(t.t_wr, 30.0);
    }

    #[test]
    fn ddr4_refresh_parameters() {
        let t = TimingParams::ddr4();
        // 64 ms window / 7.8 µs interval = 8192 refreshes.
        assert_eq!((t.t_refw / t.t_refi).round(), 8205.0);
    }

    #[test]
    fn standards_dispatch() {
        assert_eq!(TimingParams::for_standard(vrd_dram::DramStandard::Ddr4), TimingParams::ddr4());
        assert_eq!(TimingParams::for_standard(vrd_dram::DramStandard::Hbm2), TimingParams::hbm2());
    }

    #[test]
    fn family_timings_agree_with_speed_bins() {
        // The family descriptors and the JEDEC bins here must name the
        // same tRAS/tREFI/tRC, so `for_family` is a no-op override for
        // every Table-1 roster entry.
        for spec in vrd_dram::ModuleSpec::table1() {
            let family = spec.family();
            let bin = TimingParams::for_standard(family.standard);
            let t = TimingParams::for_family(&family);
            assert_eq!(t, bin, "{}: family timings must match the bin", spec.name);
            assert_eq!(t.t_rc(), family.timings.t_rc_ns, "{}", spec.name);
        }
    }

    #[test]
    fn all_params_positive() {
        for t in [TimingParams::ddr4(), TimingParams::ddr5(), TimingParams::hbm2()] {
            for v in [
                t.t_rrd_s,
                t.t_ccd_s,
                t.t_ccd_l,
                t.t_ccd_l_wr,
                t.t_rcd,
                t.t_rp,
                t.t_ras,
                t.t_rtp,
                t.t_wr,
                t.t_refi,
                t.t_refw,
                t.t_rfc,
            ] {
                assert!(v > 0.0);
            }
        }
    }
}
