//! Per-region mitigation threshold profiles.
//!
//! Every mechanism in [`crate::mitigation`] is classically keyed off one
//! uniform worst-case threshold: the weakest row anywhere in the bank
//! sets the trigger for every row, which is exactly the guardband waste
//! that *Spatial Variation-Aware Read Disturbance Defenses* quantifies.
//! A [`MitigationProfile`] instead carries one effective threshold per
//! fixed-size row region, derived from a characterization campaign's
//! measured minimum plus the device's spatial threshold structure
//! ([`vrd_dram::spatial::SpatialProfile`]): strong regions get higher
//! thresholds, so profile-aware mechanisms act less often there while
//! keeping the weakest region exactly as protected as before.
//!
//! The profile is a serde-round-trippable artifact: a sweep experiment
//! writes it as JSON next to its results, and [`MitigationProfile::load`]
//! re-reads it — returning a typed [`ProfileError`] (never panicking) on
//! truncated or corrupt input, mirroring the checkpoint journal's
//! torn-tail discipline.

use serde::{Deserialize, Serialize};
use std::path::Path;
use vrd_dram::spatial::SpatialProfile;

/// On-disk format version of the profile artifact.
pub const FORMAT_VERSION: u32 = 1;

/// A per-region effective-threshold map for one bank.
///
/// Rows are grouped into contiguous regions of `region_rows` physical
/// rows; region `i` covers rows `[i * region_rows, (i + 1) * region_rows)`.
/// Rows beyond the last region fall back to `fallback_threshold`, which
/// is the worst-case (uncharacterized) threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MitigationProfile {
    /// Artifact format version ([`FORMAT_VERSION`]).
    pub format_version: u32,
    /// Module the characterization came from (informational).
    pub module: String,
    /// Rows per region.
    pub region_rows: u32,
    /// Effective threshold per region, lowest rows first.
    pub regions: Vec<u32>,
    /// Threshold for rows beyond the characterized regions (worst case).
    pub fallback_threshold: u32,
    /// Multiplicative guardband applied when the profile was derived
    /// (in `(0, 1]`; 1.0 means thresholds sit at the measured minima).
    pub guardband_factor: f64,
}

impl MitigationProfile {
    /// A flat profile: one region covering every row at `threshold`.
    /// Mechanisms built from a flat profile behave byte-identically to
    /// their uniform counterparts.
    pub fn flat(threshold: u32) -> Self {
        MitigationProfile {
            format_version: FORMAT_VERSION,
            module: String::new(),
            region_rows: u32::MAX,
            regions: vec![threshold.max(1)],
            fallback_threshold: threshold.max(1),
            guardband_factor: 1.0,
        }
    }

    /// Derives a profile from a characterization: the campaign's
    /// measured minimum RDT (`base_min_rdt`, the weakest covered row)
    /// anchors the weakest region, and each region's threshold scales by
    /// its spatial factor relative to the weakest one, then shrinks by
    /// `guardband_factor`. Rows outside `rows_covered` get the
    /// worst-case `base_min_rdt × guardband_factor`.
    ///
    /// # Panics
    ///
    /// Panics when `base_min_rdt`, `rows_covered`, or `region_rows` is
    /// zero, or `guardband_factor` is outside `(0, 1]`.
    pub fn from_characterization(
        module: impl Into<String>,
        base_min_rdt: u32,
        spatial: &SpatialProfile,
        device_seed: u64,
        rows_covered: u32,
        region_rows: u32,
        guardband_factor: f64,
    ) -> Self {
        assert!(base_min_rdt >= 1, "base minimum RDT must be positive");
        assert!(rows_covered >= 1, "need at least one covered row");
        assert!(region_rows >= 1, "regions must hold at least one row");
        assert!(
            guardband_factor > 0.0 && guardband_factor <= 1.0,
            "guardband factor must be in (0, 1]"
        );
        let global_min = spatial.min_factor_in(0..rows_covered, device_seed);
        let regions = (0..rows_covered.div_ceil(region_rows))
            .map(|region| {
                let start = region * region_rows;
                let end = (start.saturating_add(region_rows)).min(rows_covered);
                let relative = spatial.min_factor_in(start..end, device_seed) / global_min;
                scaled_threshold(base_min_rdt, relative, guardband_factor)
            })
            .collect();
        MitigationProfile {
            format_version: FORMAT_VERSION,
            module: module.into(),
            region_rows,
            regions,
            fallback_threshold: scaled_threshold(base_min_rdt, 1.0, guardband_factor),
            guardband_factor,
        }
    }

    /// The region index a row falls into (may exceed the profiled
    /// regions, in which case lookups use the fallback threshold).
    pub fn region_of(&self, row: u32) -> usize {
        (row / self.region_rows.max(1)) as usize
    }

    /// The effective threshold for a row.
    pub fn threshold_for(&self, row: u32) -> u32 {
        self.regions.get(self.region_of(row)).copied().unwrap_or(self.fallback_threshold)
    }

    /// The smallest threshold anywhere (profiled regions and fallback) —
    /// what a uniform worst-case configuration would use.
    pub fn min_threshold(&self) -> u32 {
        self.regions.iter().copied().min().unwrap_or(u32::MAX).min(self.fallback_threshold)
    }

    /// The largest profiled region threshold — what a spatially unaware
    /// characterization that happened to sample a strong region would
    /// report.
    pub fn max_region_threshold(&self) -> u32 {
        self.regions.iter().copied().max().unwrap_or(self.fallback_threshold)
    }

    /// Whether every region (and the fallback) shares one threshold.
    pub fn is_flat(&self) -> bool {
        self.regions.iter().all(|&t| t == self.fallback_threshold)
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Invalid`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), ProfileError> {
        if self.region_rows == 0 {
            return Err(ProfileError::Invalid("region_rows must be positive".into()));
        }
        if self.regions.is_empty() {
            return Err(ProfileError::Invalid("profile must have at least one region".into()));
        }
        if self.regions.contains(&0) || self.fallback_threshold == 0 {
            return Err(ProfileError::Invalid("thresholds must be positive".into()));
        }
        if !(self.guardband_factor > 0.0 && self.guardband_factor <= 1.0) {
            return Err(ProfileError::Invalid("guardband_factor must be in (0, 1]".into()));
        }
        Ok(())
    }

    /// Serializes the profile as pretty JSON (trailing newline).
    pub fn to_json(&self) -> String {
        let mut json =
            serde_json::to_string_pretty(self).expect("profile serialization cannot fail");
        json.push('\n');
        json
    }

    /// Parses and validates a profile from JSON text.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Parse`] on malformed JSON (including truncated
    /// files), [`ProfileError::Version`] on a format-version mismatch,
    /// [`ProfileError::Invalid`] on out-of-range fields.
    pub fn from_json(text: &str) -> Result<Self, ProfileError> {
        let profile: MitigationProfile = serde_json::from_str(text)?;
        if profile.format_version != FORMAT_VERSION {
            return Err(ProfileError::Version {
                found: profile.format_version,
                expected: FORMAT_VERSION,
            });
        }
        profile.validate()?;
        Ok(profile)
    }

    /// Writes the profile artifact to `path` atomically: the bytes go to
    /// `<path>.tmp`, which is then renamed over `path`, so a reader, or
    /// a crash mid-save, finds the old profile or the new one, never a
    /// torn one.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ProfileError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and validates a profile artifact from `path`.
    ///
    /// # Errors
    ///
    /// As [`MitigationProfile::from_json`], plus [`ProfileError::Io`]
    /// when the file cannot be read.
    pub fn load(path: &Path) -> Result<Self, ProfileError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

fn scaled_threshold(base: u32, relative_factor: f64, guardband: f64) -> u32 {
    let scaled = (f64::from(base) * relative_factor * guardband).floor();
    if scaled >= f64::from(u32::MAX) {
        u32::MAX
    } else {
        (scaled as u32).max(1)
    }
}

/// Failure to read, parse, or validate a profile artifact.
#[derive(Debug)]
pub enum ProfileError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed JSON (truncated or corrupt artifact).
    Parse(serde_json::Error),
    /// The artifact was written by an incompatible format version.
    Version {
        /// Version found in the artifact.
        found: u32,
        /// Version this library reads.
        expected: u32,
    },
    /// Structurally valid JSON with out-of-range fields.
    Invalid(String),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Io(e) => write!(f, "profile io error: {e}"),
            ProfileError::Parse(e) => write!(f, "profile parse error: {e}"),
            ProfileError::Version { found, expected } => {
                write!(f, "profile format version {found} (this build reads {expected})")
            }
            ProfileError::Invalid(reason) => write!(f, "invalid profile: {reason}"),
        }
    }
}

impl std::error::Error for ProfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileError::Io(e) => Some(e),
            ProfileError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProfileError {
    fn from(e: std::io::Error) -> Self {
        ProfileError::Io(e)
    }
}

impl From<serde_json::Error> for ProfileError {
    fn from(e: serde_json::Error) -> Self {
        ProfileError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_profile_is_flat_everywhere() {
        let p = MitigationProfile::flat(512);
        assert!(p.is_flat());
        for row in [0u32, 1, 1_000_000, u32::MAX] {
            assert_eq!(p.threshold_for(row), 512);
        }
        assert_eq!(p.min_threshold(), 512);
        assert_eq!(p.max_region_threshold(), 512);
        p.validate().expect("flat profile is valid");
    }

    #[test]
    fn region_lookup_uses_fallback_beyond_coverage() {
        let p = MitigationProfile {
            format_version: FORMAT_VERSION,
            module: "M1".into(),
            region_rows: 100,
            regions: vec![200, 400, 800],
            fallback_threshold: 150,
            guardband_factor: 1.0,
        };
        assert_eq!(p.threshold_for(0), 200);
        assert_eq!(p.threshold_for(99), 200);
        assert_eq!(p.threshold_for(100), 400);
        assert_eq!(p.threshold_for(299), 800);
        assert_eq!(p.threshold_for(300), 150, "beyond coverage falls back");
        assert_eq!(p.min_threshold(), 150);
        assert_eq!(p.max_region_threshold(), 800);
        assert!(!p.is_flat());
    }

    #[test]
    fn characterization_anchors_weakest_region_at_base() {
        let spatial = SpatialProfile::wide();
        let p = MitigationProfile::from_characterization("M1", 128, &spatial, 7, 4096, 512, 1.0);
        assert_eq!(p.regions.len(), 8);
        assert_eq!(p.min_threshold(), 128, "the weakest region sits at the measured minimum");
        assert!(
            p.max_region_threshold() > 128,
            "a wide spatial spread must produce stronger regions"
        );
        assert_eq!(p.fallback_threshold, 128, "uncovered rows assume the worst case");
        // Each region threshold is sound: no row in the region has a
        // spatial factor below what the threshold assumes.
        for (i, &t) in p.regions.iter().enumerate() {
            let start = i as u32 * 512;
            let region_min = spatial.min_factor_in(start..start + 512, 7);
            let global_min = spatial.min_factor_in(0..4096, 7);
            let implied = f64::from(t) / 128.0;
            assert!(
                implied <= region_min / global_min + 1e-9,
                "region {i}: threshold multiple {implied} exceeds spatial floor"
            );
        }
    }

    #[test]
    fn guardband_scales_thresholds_down() {
        let spatial = SpatialProfile::wide();
        let full =
            MitigationProfile::from_characterization("M1", 1000, &spatial, 3, 2048, 512, 1.0);
        let half =
            MitigationProfile::from_characterization("M1", 1000, &spatial, 3, 2048, 512, 0.5);
        for (a, b) in full.regions.iter().zip(&half.regions) {
            assert_eq!(*b, a / 2);
        }
        assert_eq!(half.fallback_threshold, 500);
    }

    #[test]
    fn json_round_trip() {
        let spatial = SpatialProfile::wide();
        let p = MitigationProfile::from_characterization("S2", 300, &spatial, 11, 4096, 512, 0.9);
        let back = MitigationProfile::from_json(&p.to_json()).expect("round trip");
        assert_eq!(back, p);
    }

    #[test]
    fn truncated_json_is_a_parse_error() {
        let json = MitigationProfile::flat(64).to_json();
        for cut in [1, json.len() / 2, json.len() - 2] {
            let err = MitigationProfile::from_json(&json[..cut])
                .expect_err("truncated artifact must not parse");
            assert!(matches!(err, ProfileError::Parse(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let mut p = MitigationProfile::flat(64);
        p.format_version = 999;
        let err = MitigationProfile::from_json(&p.to_json()).expect_err("version must mismatch");
        assert!(matches!(err, ProfileError::Version { found: 999, expected: FORMAT_VERSION }));
    }

    #[test]
    fn invalid_fields_rejected() {
        let mut zero_threshold = MitigationProfile::flat(64);
        zero_threshold.regions = vec![0];
        assert!(matches!(
            MitigationProfile::from_json(&zero_threshold.to_json()),
            Err(ProfileError::Invalid(_))
        ));
        let mut no_regions = MitigationProfile::flat(64);
        no_regions.regions.clear();
        assert!(matches!(no_regions.validate(), Err(ProfileError::Invalid(_))));
        let mut bad_guardband = MitigationProfile::flat(64);
        bad_guardband.guardband_factor = 0.0;
        assert!(matches!(bad_guardband.validate(), Err(ProfileError::Invalid(_))));
    }
}
