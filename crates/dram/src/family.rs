//! Device-family descriptors: topology, timings, and policy per DRAM
//! standard.
//!
//! The paper tests two very different device families — 21 DDR4 DIMMs
//! and 4 HBM2 chips — and the related HBM study (PAPERS.md, *Read
//! Disturbance in High Bandwidth Memory*) adds per-bank and
//! pseudo-channel-level structure that a flat `(bank, row)` model cannot
//! express. A [`DeviceFamily`] gathers everything that used to be
//! scattered `match`-on-standard lookups:
//!
//! - [`Topology`]: channels → pseudo-channels → bank groups → banks →
//!   rows, with flat-index ↔ [`BankAddress`] conversion. All geometry is
//!   `u32`, so indices compose without casts.
//! - [`FamilyTimings`]: the tRAS/tRC/tREFI the disturbance model and the
//!   test platform agree on (the full JEDEC bin lives in `vrd-bender`).
//! - Row-mapping and true-/anti-cell layout policy.
//! - [`ChipMapping`]: a well-defined bit → chip (or bit → pseudo-channel)
//!   rule per family, replacing byte-interleave math that silently
//!   degenerated on HBM2.
//! - [`BankVariation`]: the per-bank disturbance-threshold spread. DDR4
//!   banks are modeled as identical (factor exactly 1.0); HBM2 banks are
//!   calibrated to the HBM study's per-bank RDT variation.
//!
//! [`crate::spec::ModuleSpec`] is a thin roster entry over a family
//! descriptor: `spec.family()` is the single source of geometry.

use serde::{Deserialize, Serialize};

use crate::cells::CellLayout;
use crate::mapping::RowMapping;
use crate::spec::{DieDensity, DramStandard, Manufacturer};

/// Hierarchical bank organization of one device.
///
/// The flat bank index used by the device model enumerates the hierarchy
/// with the innermost level fastest:
/// `flat = ((channel × pseudo_channels + pc) × bank_groups + group) ×
/// banks_per_group + bank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Topology {
    /// Independent channels (1 for a DDR4 DIMM rank; HBM2 stacks expose
    /// several, but the paper tests one channel per chip).
    pub channels: u32,
    /// Pseudo-channels per channel (HBM2 splits each channel in two;
    /// DDR4 has none, i.e. 1).
    pub pseudo_channels: u32,
    /// Bank groups per pseudo-channel.
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
}

impl Topology {
    /// A flat one-level topology (tests and synthetic devices).
    pub fn linear(banks: u32, rows_per_bank: u32) -> Self {
        Topology {
            channels: 1,
            pseudo_channels: 1,
            bank_groups: 1,
            banks_per_group: banks,
            rows_per_bank,
        }
    }

    /// Total banks across the whole hierarchy.
    pub fn banks(&self) -> u32 {
        self.channels * self.pseudo_channels * self.bank_groups * self.banks_per_group
    }

    /// Total rows across all banks.
    pub fn rows(&self) -> u64 {
        u64::from(self.banks()) * u64::from(self.rows_per_bank)
    }

    /// Decomposes a flat bank index into its hierarchical address.
    ///
    /// # Panics
    ///
    /// Panics if `bank >= self.banks()`.
    pub fn address_of(&self, bank: u32) -> BankAddress {
        assert!(bank < self.banks(), "bank {bank} out of range for {} banks", self.banks());
        let in_group = bank % self.banks_per_group;
        let rest = bank / self.banks_per_group;
        let group = rest % self.bank_groups;
        let rest = rest / self.bank_groups;
        let pseudo_channel = rest % self.pseudo_channels;
        let channel = rest / self.pseudo_channels;
        BankAddress { channel, pseudo_channel, bank_group: group, bank: in_group }
    }
}

/// Hierarchical address of one bank within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BankAddress {
    /// Channel index.
    pub channel: u32,
    /// Pseudo-channel within the channel.
    pub pseudo_channel: u32,
    /// Bank group within the pseudo-channel.
    pub bank_group: u32,
    /// Bank within the bank group.
    pub bank: u32,
}

/// The timing parameters the disturbance model itself depends on, per
/// family (ns). The full JEDEC speed-bin table lives in `vrd-bender`;
/// these three are duplicated here because the device model's RowPress
/// scaling and refresh bookkeeping need them without a `vrd-bender`
/// dependency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FamilyTimings {
    /// Minimum row-open time `tRAS`.
    pub t_ras_ns: f64,
    /// Row cycle time `tRC` (ACT-to-ACT, same bank).
    pub t_rc_ns: f64,
    /// Average refresh command interval `tREFI`.
    pub t_refi_ns: f64,
}

impl FamilyTimings {
    /// DDR4 (JESD79-4C, 3200 MT/s bin): tRC = tRAS 35 + tRP 13.75.
    pub fn ddr4() -> Self {
        FamilyTimings { t_ras_ns: 35.0, t_rc_ns: 48.75, t_refi_ns: 7_800.0 }
    }

    /// HBM2 (JESD235D): tRC = tRAS 33 + tRP 14.
    pub fn hbm2() -> Self {
        FamilyTimings { t_ras_ns: 33.0, t_rc_ns: 47.0, t_refi_ns: 3_900.0 }
    }
}

/// Which physical chip (or pseudo-channel) drives a given data bit of a
/// row — a well-defined per-family rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChipMapping {
    /// DDR4 DIMM: consecutive `chip_width`-bit slices of the data bus
    /// interleave across the module's chips (x8 parts contribute one
    /// byte each, x16 parts two).
    ByteInterleaved {
        /// Chips on the module.
        chips: u32,
        /// Data bits per chip slice (8 or 16).
        chip_width: u32,
    },
    /// HBM2: a single die whose row bits belong to pseudo-channels in
    /// `word_bits`-wide interleaved words (JESD235D pseudo-channel mode:
    /// 128-bit words).
    PseudoChannel {
        /// Pseudo-channels sharing the row.
        pseudo_channels: u32,
        /// Bits per pseudo-channel word.
        word_bits: u32,
    },
}

impl ChipMapping {
    /// Number of distinct chips (or pseudo-channels) bits map onto.
    pub fn chips(&self) -> u32 {
        match *self {
            ChipMapping::ByteInterleaved { chips, .. } => chips,
            ChipMapping::PseudoChannel { pseudo_channels, .. } => pseudo_channels,
        }
    }

    /// The chip (or pseudo-channel) that drives data bit `bit` of a row.
    pub fn chip_of_bit(&self, bit: u32) -> u32 {
        match *self {
            ChipMapping::ByteInterleaved { chips, chip_width } => (bit / chip_width) % chips,
            ChipMapping::PseudoChannel { pseudo_channels, word_bits } => {
                (bit / word_bits) % pseudo_channels
            }
        }
    }
}

/// Per-bank disturbance-threshold variation of one family.
///
/// The HBM study reports that minimum hammer counts vary noticeably from
/// bank to bank within an HBM2 channel (and between pseudo-channels),
/// whereas the DDR4 methodology of the source paper treats banks as
/// interchangeable. The factor is a pure hash of `(bank, device seed)` —
/// it consumes no sequential RNG draws, so enabling it cannot perturb
/// any other stochastic stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BankVariation {
    /// Sigma (ln units) of the per-bank lognormal threshold factor.
    /// Zero means every bank is identical (factor exactly 1.0).
    pub sigma_ln: f64,
}

impl BankVariation {
    /// No per-bank variation: `factor` returns exactly 1.0.
    pub fn none() -> Self {
        BankVariation { sigma_ln: 0.0 }
    }

    /// HBM2 per-bank spread calibrated to the HBM study's bank-to-bank
    /// minimum-hammer-count variation (~±25% across a channel).
    pub fn hbm2() -> Self {
        BankVariation { sigma_ln: 0.12 }
    }

    /// Deterministic threshold factor for one bank. Exactly 1.0 when
    /// `sigma_ln` is zero, so families without per-bank variation are
    /// bitwise unaffected.
    pub fn factor(&self, bank: u32, device_seed: u64) -> f64 {
        if self.sigma_ln == 0.0 {
            return 1.0;
        }
        // The bank index hashed into a unit normal, salted apart from
        // `SpatialProfile::factor`'s subarray stream.
        (self.sigma_ln * crate::keyed::hashed_normal(device_seed, u64::from(bank), 0xBA5E_BA11))
            .exp()
    }
}

/// Everything the device model needs to know about a family of parts:
/// topology, timing, addressing policy, and disturbance-variation
/// structure. [`crate::spec::ModuleSpec::family`] derives one per roster
/// entry; future families (DDR5, LPDDR) are new constructors here plus
/// roster additions, not code edits elsewhere.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceFamily {
    /// The JEDEC standard this family implements.
    pub standard: DramStandard,
    /// Bank hierarchy and row count.
    pub topology: Topology,
    /// The timing parameters the disturbance model depends on.
    pub timings: FamilyTimings,
    /// Logical→physical row mapping policy.
    pub mapping: RowMapping,
    /// True-/anti-cell layout policy.
    pub cell_layout: CellLayout,
    /// Bit → chip / pseudo-channel mapping.
    pub chip_mapping: ChipMapping,
    /// Per-bank disturbance-threshold spread.
    pub bank_variation: BankVariation,
}

impl DeviceFamily {
    /// The DDR4 family descriptor for one module: 16 banks in 4 bank
    /// groups, rows scaled with die density, vendor-specific row mapping
    /// and cell layout, byte-interleaved chip mapping, identical banks.
    pub fn ddr4(
        manufacturer: Manufacturer,
        density: DieDensity,
        chips: u32,
        chip_width: u32,
    ) -> Self {
        let rows_per_bank = match density {
            DieDensity::Gb4 => 32 * 1024,
            DieDensity::Gb8 => 64 * 1024,
            DieDensity::Gb16 => 128 * 1024,
            // Conservative default for parts whose density is not
            // discernible (none of the Table-1 DDR4 modules need it).
            DieDensity::Unknown => 64 * 1024,
        };
        DeviceFamily {
            standard: DramStandard::Ddr4,
            topology: Topology {
                channels: 1,
                pseudo_channels: 1,
                bank_groups: 4,
                banks_per_group: 4,
                rows_per_bank,
            },
            timings: FamilyTimings::ddr4(),
            mapping: match manufacturer {
                Manufacturer::H => RowMapping::VendorA,
                Manufacturer::M => RowMapping::VendorB,
                Manufacturer::S => RowMapping::VendorC,
            },
            cell_layout: match manufacturer {
                Manufacturer::H => CellLayout::new(512, false),
                Manufacturer::M => CellLayout::new(256, false),
                Manufacturer::S => CellLayout::new(512, true),
            },
            chip_mapping: ChipMapping::ByteInterleaved { chips, chip_width },
            bank_variation: BankVariation::none(),
        }
    }

    /// The HBM2 family descriptor: one tested channel split into two
    /// pseudo-channels of 4×4 banks (32 flat banks), 16 Ki rows per
    /// bank, direct row mapping, 128-bit pseudo-channel words, and the
    /// HBM study's per-bank threshold spread.
    pub fn hbm2() -> Self {
        DeviceFamily {
            standard: DramStandard::Hbm2,
            topology: Topology {
                channels: 1,
                pseudo_channels: 2,
                bank_groups: 4,
                banks_per_group: 4,
                rows_per_bank: 16 * 1024,
            },
            timings: FamilyTimings::hbm2(),
            mapping: RowMapping::Direct,
            cell_layout: CellLayout::new(512, true),
            chip_mapping: ChipMapping::PseudoChannel { pseudo_channels: 2, word_bits: 128 },
            bank_variation: BankVariation::hbm2(),
        }
    }

    /// The family descriptor for a roster entry's fields — the single
    /// dispatch point from standard to family.
    pub fn for_module(
        standard: DramStandard,
        manufacturer: Manufacturer,
        density: DieDensity,
        chips: u32,
        chip_width: u32,
    ) -> Self {
        match standard {
            DramStandard::Ddr4 => Self::ddr4(manufacturer, density, chips, chip_width),
            DramStandard::Hbm2 => Self::hbm2(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_topology_matches_jedec() {
        let f = DeviceFamily::ddr4(Manufacturer::M, DieDensity::Gb16, 8, 8);
        assert_eq!(f.topology.banks(), 16);
        assert_eq!(f.topology.rows_per_bank, 128 * 1024);
        assert_eq!(f.topology.rows(), 16 * 128 * 1024);
    }

    #[test]
    fn hbm2_topology_has_pseudo_channels() {
        let f = DeviceFamily::hbm2();
        assert_eq!(f.topology.banks(), 32);
        assert_eq!(f.topology.pseudo_channels, 2);
        assert_eq!(f.topology.rows_per_bank, 16 * 1024);
    }

    #[test]
    fn bank_addresses_are_distinct_and_in_range() {
        for topo in [DeviceFamily::hbm2().topology, Topology::linear(5, 100)] {
            let mut seen = std::collections::HashSet::new();
            for bank in 0..topo.banks() {
                let addr = topo.address_of(bank);
                assert!(seen.insert(addr), "bank {bank} shares an address");
                assert!(addr.channel < topo.channels);
                assert!(addr.pseudo_channel < topo.pseudo_channels);
                assert!(addr.bank_group < topo.bank_groups);
                assert!(addr.bank < topo.banks_per_group);
            }
        }
    }

    #[test]
    fn hbm2_flat_order_walks_banks_fastest() {
        let topo = DeviceFamily::hbm2().topology;
        // Banks 0..16 are pseudo-channel 0, 16..32 pseudo-channel 1.
        assert_eq!(topo.address_of(0).pseudo_channel, 0);
        assert_eq!(topo.address_of(15).pseudo_channel, 0);
        assert_eq!(topo.address_of(16).pseudo_channel, 1);
        assert_eq!(topo.address_of(3).bank_group, 0);
        assert_eq!(topo.address_of(4).bank_group, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn address_of_checks_bounds() {
        let _ = Topology::linear(2, 10).address_of(2);
    }

    #[test]
    fn byte_interleaved_chip_mapping() {
        let m = ChipMapping::ByteInterleaved { chips: 8, chip_width: 8 };
        assert_eq!(m.chip_of_bit(0), 0);
        assert_eq!(m.chip_of_bit(7), 0);
        assert_eq!(m.chip_of_bit(8), 1);
        assert_eq!(m.chip_of_bit(63), 7);
        assert_eq!(m.chip_of_bit(64), 0);
    }

    #[test]
    fn pseudo_channel_chip_mapping_alternates_words() {
        let m = DeviceFamily::hbm2().chip_mapping;
        assert_eq!(m.chips(), 2);
        assert_eq!(m.chip_of_bit(0), 0);
        assert_eq!(m.chip_of_bit(127), 0);
        assert_eq!(m.chip_of_bit(128), 1);
        assert_eq!(m.chip_of_bit(255), 1);
        assert_eq!(m.chip_of_bit(256), 0);
    }

    #[test]
    fn zero_sigma_bank_factor_is_exactly_one() {
        let v = BankVariation::none();
        for bank in 0..32 {
            for seed in [0u64, 1, 42, u64::MAX] {
                assert_eq!(v.factor(bank, seed).to_bits(), 1.0f64.to_bits());
            }
        }
    }

    #[test]
    fn hbm2_bank_factor_is_deterministic_and_varies() {
        let v = BankVariation::hbm2();
        assert_eq!(v.factor(3, 7), v.factor(3, 7));
        let distinct: std::collections::BTreeSet<u64> =
            (0..32u32).map(|b| v.factor(b, 7).to_bits()).collect();
        assert!(distinct.len() > 24, "bank factors must vary");
        let mean: f64 = (0..32u32).map(|b| v.factor(b, 7)).sum::<f64>() / 32.0;
        assert!((mean - 1.0).abs() < 0.15, "mean bank factor {mean}");
    }

    #[test]
    fn different_seeds_reshuffle_bank_factors() {
        let v = BankVariation::hbm2();
        let a: Vec<u64> = (0..16u32).map(|b| v.factor(b, 1).to_bits()).collect();
        let b: Vec<u64> = (0..16u32).map(|b| v.factor(b, 2).to_bits()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn family_timings_are_distinct_per_standard() {
        let d = FamilyTimings::ddr4();
        let h = FamilyTimings::hbm2();
        assert!(d.t_refi_ns > h.t_refi_ns, "DDR4 refreshes half as often");
        assert!((d.t_rc_ns - (d.t_ras_ns + 13.75)).abs() < 1e-9);
        assert!((h.t_rc_ns - (h.t_ras_ns + 14.0)).abs() < 1e-9);
    }

    #[test]
    fn for_module_dispatches_by_standard() {
        let d =
            DeviceFamily::for_module(DramStandard::Ddr4, Manufacturer::H, DieDensity::Gb8, 8, 8);
        assert_eq!(d.standard, DramStandard::Ddr4);
        assert_eq!(d.mapping, RowMapping::VendorA);
        let h = DeviceFamily::for_module(
            DramStandard::Hbm2,
            Manufacturer::S,
            DieDensity::Unknown,
            1,
            0,
        );
        assert_eq!(h, DeviceFamily::hbm2());
    }
}
