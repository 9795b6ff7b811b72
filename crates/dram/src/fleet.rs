//! The fleet of simulated modules matching the paper's Table 1.
//!
//! A [`Module`] instantiates the device for one tested module/chip, with
//! the VRD parameters calibrated from Table 7. Constructing a device is
//! cheap; rows materialize on first touch. The roster helpers here scope
//! ([`FleetScope`]), shard, fingerprint and synthesize module specs.

use serde::{Deserialize, Serialize};

use crate::device::{DeviceConfig, DramDevice};
use crate::spec::{DramStandard, ModuleSpec};

/// One simulated module: its spec plus a live device model.
#[derive(Debug)]
pub struct Module {
    spec: ModuleSpec,
    device: DramDevice,
}

/// Derives a per-module device seed: campaigns pass one campaign seed,
/// but each module must get its own RNG streams (chip-to-chip variation
/// is the point of testing 25 of them).
fn module_seed(spec: &ModuleSpec, seed: u64) -> u64 {
    let mut h = seed ^ 0x005E_ED0F_3E0D_u64;
    for b in spec.name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        h ^= h >> 29;
    }
    h
}

impl Module {
    /// Instantiates the device model for `spec` with `row_bytes`-byte
    /// rows (the paper's Fig. 16 uses 8 KiB; smaller is faster),
    /// deterministic in `seed` (internally combined with the module
    /// name, so the same campaign seed yields distinct per-module
    /// devices).
    pub fn new_with_row_bytes(spec: ModuleSpec, seed: u64, row_bytes: u32) -> Self {
        let family = spec.family();
        let config = DeviceConfig {
            topology: family.topology,
            row_bytes,
            mapping: family.mapping,
            cell_layout: family.cell_layout,
            vrd: spec.vrd_params(),
            spatial: crate::spatial::SpatialProfile::ddr4_default(),
            bank_variation: family.bank_variation,
            rows_per_refresh: 64,
        };
        let seed = module_seed(&spec, seed);
        Module { device: DramDevice::new(config, seed), spec }
    }

    /// The module's specification.
    pub fn spec(&self) -> &ModuleSpec {
        &self.spec
    }

    /// The device model.
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Mutable access to the device model.
    pub fn device_mut(&mut self) -> &mut DramDevice {
        &mut self.device
    }

    /// Consumes the module, returning the device model.
    pub fn into_device(self) -> DramDevice {
        self.device
    }
}

/// Splits a module roster into round-robin shards for spreading one
/// campaign across several processes or hosts: shard `index` of `count`
/// takes every `count`-th spec starting at `index`, preserving roster
/// order. Because campaign unit seeds derive from module names and row
/// addresses — never from roster position — a module's results are
/// bit-identical whether it runs inside a shard or the full fleet.
///
/// # Panics
///
/// Panics if `count` is zero or `index >= count`.
pub fn shard_specs(specs: &[ModuleSpec], index: usize, count: usize) -> Vec<ModuleSpec> {
    assert!(count > 0, "shard count must be positive");
    assert!(index < count, "shard index {index} out of range for {count} shards");
    specs.iter().skip(index).step_by(count).cloned().collect()
}

/// Generates a synthetic fleet of `count` module specs by cycling the
/// Table-1 roster and renaming each clone `{base}-f{index:04}`. Because
/// per-module device seeds derive from the module *name* (see
/// [`Module::new_with_row_bytes`]), every synthetic module gets its own
/// weak-cell layout even when it shares a base spec; and because
/// [`ModuleSpec::family`]/[`ModuleSpec::vrd_params`] derive from the
/// spec's fields rather than its name, renamed clones behave in
/// campaigns exactly like their Table-1 ancestors. The Table-7 anchors
/// are given a mild deterministic jitter (±6% on the RDT minima, seeded
/// by `seed` and the synthetic name) so fleet-scale sweeps see
/// chip-to-chip spread in expected RDT, not 40 copies of one anchor.
pub fn synthetic_specs(count: usize, seed: u64) -> Vec<ModuleSpec> {
    let base = ModuleSpec::table1();
    (0..count)
        .map(|i| {
            let mut spec = base[i % base.len()].clone();
            spec.name = format!("{}-f{i:04}", spec.name);
            // FNV-1a over (seed, name) → two independent jitter draws.
            let mut h = seed ^ 0x5F1E_E7F1_EE75_u64;
            for b in spec.name.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
            }
            let jitter = |h: u64| -> f64 {
                // Map 16 hash bits onto [-0.06, +0.06].
                ((h & 0xFFFF) as f64 / 65535.0 - 0.5) * 0.12
            };
            let (ja, jb) = (jitter(h), jitter(h >> 16));
            let scale = |v: u32, j: f64| -> u32 { ((v as f64 * (1.0 + j)).round() as u32).max(1) };
            spec.anchor.min_rdt_tras = scale(spec.anchor.min_rdt_tras, ja);
            spec.anchor.min_rdt_trefi = scale(spec.anchor.min_rdt_trefi, jb);
            spec
        })
        .collect()
}

/// Stable fingerprint of a module roster: FNV-1a over the ordered
/// module names with a separator fold between names. Campaign
/// checkpoints store this (alongside the shard index/count) in their
/// manifest, so a journal written for one roster — or one shard of it —
/// is rejected when opened against another instead of silently merging
/// results across fleets.
pub fn roster_fingerprint(specs: &[ModuleSpec]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for spec in specs {
        for b in spec.name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        // Separator fold so ["AB"] and ["A", "B"] differ.
        h = (h ^ 0xFF).wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Identifier scoping which part of the fleet an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetScope {
    /// All 21 DDR4 modules and 4 HBM2 chips.
    All,
    /// Only the DDR4 modules.
    Ddr4,
    /// Only the HBM2 chips.
    Hbm2,
}

impl FleetScope {
    /// Whether `spec` belongs to this part of the fleet.
    pub fn includes(self, spec: &ModuleSpec) -> bool {
        match self {
            FleetScope::All => true,
            FleetScope::Ddr4 => spec.standard == DramStandard::Ddr4,
            FleetScope::Hbm2 => spec.standard == DramStandard::Hbm2,
        }
    }
}

/// Parses `ddr4`, `hbm2` or `all`, ignoring ASCII case.
impl std::str::FromStr for FleetScope {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "all" => Ok(FleetScope::All),
            "ddr4" => Ok(FleetScope::Ddr4),
            "hbm2" => Ok(FleetScope::Hbm2),
            _ => Err(format!("unknown family {s:?} (expected ddr4|hbm2|all)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(name: &str) -> Module {
        Module::new_with_row_bytes(ModuleSpec::by_name(name).expect("Table-1 name"), 1, 8192)
    }

    #[test]
    fn scopes_partition_roster() {
        let all = ModuleSpec::table1();
        let count = |scope: FleetScope| all.iter().filter(|s| scope.includes(s)).count();
        assert_eq!(count(FleetScope::All), 25);
        assert_eq!(count(FleetScope::Ddr4), 21);
        assert_eq!(count(FleetScope::Hbm2), 4);
    }

    #[test]
    fn scopes_parse_from_their_names_in_any_case() {
        assert_eq!("ddr4".parse::<FleetScope>(), Ok(FleetScope::Ddr4));
        assert_eq!("HBM2".parse::<FleetScope>(), Ok(FleetScope::Hbm2));
        assert_eq!("All".parse::<FleetScope>(), Ok(FleetScope::All));
        assert!("ddr5".parse::<FleetScope>().unwrap_err().contains("\"ddr5\""));
    }

    #[test]
    fn modules_have_distinct_seeds() {
        // Two same-spec modules (H3/H4) built from one campaign seed must
        // still get different weak-cell layouts because their names differ.
        let counts = |name: &str| -> Vec<usize> {
            let mut m = module(name);
            (0..200).map(|r| m.device_mut().oracle_weak_cell_count(0, r)).collect()
        };
        assert_ne!(counts("H3"), counts("H4"));
    }

    #[test]
    fn shards_partition_the_roster_in_order() {
        let all = ModuleSpec::table1();
        let shards: Vec<Vec<ModuleSpec>> = (0..4).map(|i| shard_specs(&all, i, 4)).collect();
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(total, all.len(), "shards cover every module exactly once");
        let mut names: Vec<&str> =
            shards.iter().flat_map(|s| s.iter().map(|m| m.name.as_str())).collect();
        names.sort_unstable();
        let mut expected: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        expected.sort_unstable();
        assert_eq!(names, expected, "shards are disjoint");
        for shard in &shards {
            let positions: Vec<usize> =
                shard.iter().map(|m| all.iter().position(|a| a.name == m.name).unwrap()).collect();
            assert!(positions.windows(2).all(|w| w[0] < w[1]), "order preserved");
        }
    }

    #[test]
    fn single_shard_is_identity() {
        let all = ModuleSpec::table1();
        assert_eq!(shard_specs(&all, 0, 1).len(), all.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_out_of_range_panics() {
        let _ = shard_specs(&ModuleSpec::table1(), 3, 3);
    }

    #[test]
    fn roster_fingerprint_distinguishes_rosters_and_shards() {
        let all = ModuleSpec::table1();
        let full = roster_fingerprint(&all);
        assert_eq!(full, roster_fingerprint(&all), "fingerprint is stable");
        for i in 0..3 {
            assert_ne!(
                full,
                roster_fingerprint(&shard_specs(&all, i, 3)),
                "shard {i} must not fingerprint like the full roster"
            );
        }
        assert_ne!(
            roster_fingerprint(&shard_specs(&all, 0, 3)),
            roster_fingerprint(&shard_specs(&all, 1, 3)),
            "distinct shards get distinct fingerprints"
        );
        let mut reordered = all.clone();
        reordered.reverse();
        assert_ne!(full, roster_fingerprint(&reordered), "fingerprint is order-sensitive");
    }

    #[test]
    fn synthetic_specs_scale_the_roster_deterministically() {
        let fleet = synthetic_specs(1000, 7);
        assert_eq!(fleet.len(), 1000);
        // Names are unique (distinct names ⇒ distinct device seeds).
        let mut names: Vec<&str> = fleet.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 1000);
        // Both standards are represented at scale.
        assert!(fleet.iter().any(|s| s.standard == DramStandard::Ddr4));
        assert!(fleet.iter().any(|s| s.standard == DramStandard::Hbm2));
        // Deterministic in (count, seed); seed moves the anchors.
        assert_eq!(roster_fingerprint(&fleet), roster_fingerprint(&synthetic_specs(1000, 7)));
        let a: Vec<u32> = fleet.iter().map(|s| s.anchor.min_rdt_tras).collect();
        let b: Vec<u32> = synthetic_specs(1000, 8).iter().map(|s| s.anchor.min_rdt_tras).collect();
        assert_ne!(a, b, "seed must jitter the anchors");
        // Clones of one base spec still get spread-out anchors.
        let clones: Vec<u32> = fleet
            .iter()
            .filter(|s| s.name.starts_with("M1-"))
            .map(|s| s.anchor.min_rdt_tras)
            .collect();
        assert!(clones.len() > 10);
        let mut uniq = clones.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > clones.len() / 2, "jitter should spread clone anchors");
    }

    #[test]
    fn synthetic_specs_build_working_devices() {
        let specs = synthetic_specs(30, 7);
        let spec = specs[25].clone();
        let mut module = Module::new_with_row_bytes(spec, 7, 512);
        // The device is live: weak cells materialize on first touch.
        let counts: Vec<usize> =
            (0..50).map(|r| module.device_mut().oracle_weak_cell_count(0, r)).collect();
        assert!(counts.iter().any(|&c| c > 0) || counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn device_config_matches_spec() {
        let m = module("M0");
        assert_eq!(m.device().config().banks(), 16);
        assert_eq!(m.device().config().rows_per_bank(), 128 * 1024);
        let c = module("Chip0");
        assert_eq!(c.device().config().banks(), 32);
        assert_eq!(c.device().config().topology.pseudo_channels, 2);
    }
}
