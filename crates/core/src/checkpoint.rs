//! Crash-safe campaign checkpointing.
//!
//! The paper's characterization campaigns represent months of simulated
//! hammer time; losing a campaign to a crash, OOM kill, or preempted
//! shard is not acceptable at that scale. This module persists every
//! finished work unit to an append-only, checksummed journal so a killed
//! campaign can be resumed — and, because unit seeds derive from
//! `(campaign_seed, unit_key)` rather than scheduling order (see
//! [`crate::exec`]), a resumed campaign is **byte-identical** to one
//! that never crashed. The fault-injection suite in
//! `tests/checkpoint_resume.rs` proves exactly that.
//!
//! # On-disk layout
//!
//! A checkpoint directory holds two files:
//!
//! - `manifest.json` — a pretty-printed [`CheckpointManifest`] binding
//!   the journal to one campaign: format version, campaign label,
//!   config hash, campaign seed, roster shard (`index`/`count`), and a
//!   roster fingerprint. [`Checkpoint::open`] rejects a directory whose
//!   manifest disagrees with the caller's on *any* field — a stale or
//!   foreign checkpoint is an error, never silently merged.
//! - `journal.jsonl` — one record per finished unit:
//!
//!   ```text
//!   vrd1 <16-hex fnv1a64> {"key":<UnitKey>,"value":<result>}
//!   ```
//!
//!   The checksum covers the JSON payload bytes. Records are appended
//!   and flushed as each unit commits through [`journal::append`], so a
//!   process crash (`kill -9`, OOM kill, exit) can lose at most the
//!   record being written. Nothing calls `fsync`, so power loss is
//!   outside the contract.
//!
//! # Recovery semantics
//!
//! On open, the journal is read under [`journal::open`]'s tail rule: a
//! torn tail record (trailing bytes with no newline, or a bad last line)
//! is cut off and its unit simply reruns; a bad record *before* the tail
//! means the file was tampered with or the disk is lying — that is
//! [`CheckpointError::Corrupted`], a hard error.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize, Value};
use vrd_dram::fleet::roster_fingerprint;
use vrd_dram::spec::ModuleSpec;

use crate::exec::UnitKey;
use crate::journal::{self, JournalError};

/// Version tag of the journal/manifest format; bump on incompatible
/// layout changes so old checkpoints are rejected instead of misread.
pub const FORMAT_VERSION: u32 = 1;

/// Magic prefix of every journal record.
const RECORD_MAGIC: &str = "vrd1";

/// File names inside a checkpoint directory.
const MANIFEST_FILE: &str = "manifest.json";
const JOURNAL_FILE: &str = "journal.jsonl";

/// FNV-1a over a byte string; the journal's record checksum and the
/// config hash both use it (no cryptographic strength needed — this
/// guards against torn writes and stale configs, not adversaries).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Hashes a campaign configuration for the manifest: FNV-1a over its
/// canonical (compact) JSON serialization. Any config field change —
/// measurement count, condition grid, row bytes — changes the hash and
/// invalidates old checkpoints.
pub fn config_hash<T: Serialize>(config: &T) -> u64 {
    let json = serde_json::to_string(config).expect("config serializes");
    fnv1a64(json.as_bytes())
}

/// Identity of the campaign a checkpoint belongs to. Every field must
/// match for a resume to be accepted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointManifest {
    /// Journal format version ([`FORMAT_VERSION`]).
    pub format_version: u32,
    /// Campaign label (e.g. `"foundational"`, `"in_depth"`), so two
    /// campaigns never share a journal even under one directory root.
    pub campaign: String,
    /// [`config_hash`] of the campaign configuration.
    pub config_hash: u64,
    /// The campaign seed every unit seed derives from.
    pub campaign_seed: u64,
    /// Roster shard index (0 when unsharded).
    pub shard_index: u64,
    /// Roster shard count (1 when unsharded).
    pub shard_count: u64,
    /// Fingerprint of the (sharded) module roster, from
    /// [`roster_fingerprint`].
    pub roster_fingerprint: u64,
}

impl CheckpointManifest {
    /// The manifest of an unsharded run of `campaign` over `specs`: the
    /// current [`FORMAT_VERSION`], shard 0 of 1, and the roster's
    /// fingerprint. A sharded run overrides the two shard fields.
    pub fn for_campaign(
        campaign: &str,
        config_hash: u64,
        campaign_seed: u64,
        specs: &[ModuleSpec],
    ) -> Self {
        CheckpointManifest {
            format_version: FORMAT_VERSION,
            campaign: campaign.to_owned(),
            config_hash,
            campaign_seed,
            shard_index: 0,
            shard_count: 1,
            roster_fingerprint: roster_fingerprint(specs),
        }
    }

    /// Compares against a manifest found on disk, naming the first
    /// mismatching field.
    fn verify_against(&self, found: &CheckpointManifest) -> Result<(), CheckpointError> {
        let fields: [(&'static str, String, String); 7] = [
            ("format_version", self.format_version.to_string(), found.format_version.to_string()),
            ("campaign", self.campaign.clone(), found.campaign.clone()),
            ("config_hash", self.config_hash.to_string(), found.config_hash.to_string()),
            ("campaign_seed", self.campaign_seed.to_string(), found.campaign_seed.to_string()),
            ("shard_index", self.shard_index.to_string(), found.shard_index.to_string()),
            ("shard_count", self.shard_count.to_string(), found.shard_count.to_string()),
            (
                "roster_fingerprint",
                self.roster_fingerprint.to_string(),
                found.roster_fingerprint.to_string(),
            ),
        ];
        for (field, expected, actual) in fields {
            if expected != actual {
                return Err(CheckpointError::ManifestMismatch { field, expected, found: actual });
            }
        }
        Ok(())
    }
}

/// Why a checkpoint could not be opened, read, or completed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The directory belongs to a different campaign/config/shard.
    ManifestMismatch {
        /// First manifest field that disagreed.
        field: &'static str,
        /// The value the running campaign expected.
        expected: String,
        /// The value found on disk.
        found: String,
    },
    /// The manifest or a non-tail journal record is unreadable.
    Corrupted {
        /// 1-based journal line (0 for the manifest).
        line: usize,
        /// What failed to parse or verify.
        reason: String,
    },
    /// A journaled value no longer decodes as the campaign's result
    /// type (format drift without a version bump).
    Decode {
        /// The unit whose record failed to decode.
        key: UnitKey,
        /// The decode failure.
        reason: String,
    },
    /// The run was cancelled (e.g. by an injected fault) before every
    /// unit finished; completed units are journaled and resumable.
    Interrupted {
        /// Units whose results are safely in the journal.
        completed: usize,
        /// Units the campaign needed in total.
        total: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::ManifestMismatch { field, expected, found } => write!(
                f,
                "checkpoint belongs to a different campaign: manifest field `{field}` is \
                 {found}, expected {expected}; refusing to merge (use a fresh directory)"
            ),
            CheckpointError::Corrupted { line, reason } => {
                write!(f, "checkpoint corrupted at journal line {line}: {reason}")
            }
            CheckpointError::Decode { key, reason } => write!(
                f,
                "journaled result for unit {}/{}/{} does not decode: {reason}",
                key.module, key.row, key.condition
            ),
            CheckpointError::Interrupted { completed, total } => write!(
                f,
                "campaign interrupted after {completed}/{total} units; rerun with --resume"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Hooks around unit execution. [`crate::run::run_units`] calls these
/// at well-defined points; [`crate::exec::faults::FaultPlan`] uses them
/// to inject deterministic failures, and they default to no-ops so
/// production campaigns pay nothing.
pub trait UnitHooks: Sync {
    /// Called before a unit's work closure runs (on the worker thread).
    fn before_unit(&self, _key: &UnitKey) {}

    /// Called after a record has been appended **and flushed** to the
    /// journal — the unit (or mid-unit stash) is durable once this fires.
    fn after_commit(&self, _key: &UnitKey) {}
}

/// An open checkpoint: the verified manifest, the set of units already
/// completed by previous runs, and an append handle to the journal.
pub struct Checkpoint {
    dir: PathBuf,
    manifest: CheckpointManifest,
    /// Journaled results by unit key, as compact JSON of the value.
    completed: HashMap<UnitKey, String>,
    /// Whether opening dropped a torn tail record.
    recovered_torn_tail: bool,
    writer: Mutex<File>,
}

impl fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpoint")
            .field("dir", &self.dir)
            .field("manifest", &self.manifest)
            .field("completed", &self.completed.len())
            .field("recovered_torn_tail", &self.recovered_torn_tail)
            .finish()
    }
}

impl Checkpoint {
    /// Opens (creating if absent) the checkpoint directory `dir` for the
    /// campaign described by `manifest`.
    ///
    /// # Errors
    ///
    /// - [`CheckpointError::ManifestMismatch`] when `dir` already holds a
    ///   checkpoint for a different campaign, config, seed, or shard.
    /// - [`CheckpointError::Corrupted`] when the manifest or a non-tail
    ///   journal record is unreadable (a torn *tail* record is recovered
    ///   silently instead; see [`Checkpoint::recovered_torn_tail`]).
    /// - [`CheckpointError::Io`] on filesystem failure.
    pub fn open(
        dir: impl AsRef<Path>,
        manifest: CheckpointManifest,
    ) -> Result<Self, CheckpointError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        let manifest_path = dir.join(MANIFEST_FILE);
        if manifest_path.exists() {
            let text = fs::read_to_string(&manifest_path)?;
            let found: CheckpointManifest = serde_json::from_str(text.trim()).map_err(|e| {
                CheckpointError::Corrupted { line: 0, reason: format!("manifest unreadable: {e}") }
            })?;
            manifest.verify_against(&found)?;
        } else {
            let text = serde_json::to_string_pretty(&manifest).expect("manifest serializes");
            journal::write_atomic(&manifest_path, format!("{text}\n"))?;
        }

        let log = journal::open(dir.join(JOURNAL_FILE), parse_record).map_err(|e| match e {
            JournalError::Io(e) => CheckpointError::Io(e),
            JournalError::Corrupted { line, reason } => CheckpointError::Corrupted { line, reason },
        })?;
        Ok(Checkpoint {
            dir,
            manifest,
            // Records under one key supersede each other: last one wins.
            completed: log.records.into_iter().collect(),
            recovered_torn_tail: log.torn,
            writer: Mutex::new(log.file),
        })
    }

    /// The manifest this checkpoint was opened with.
    pub fn manifest(&self) -> &CheckpointManifest {
        &self.manifest
    }

    /// Number of units already completed by previous runs.
    pub fn completed_units(&self) -> usize {
        self.completed.len()
    }

    /// Whether opening dropped a torn (truncated or corrupt) tail
    /// record; the affected unit reruns.
    pub fn recovered_torn_tail(&self) -> bool {
        self.recovered_torn_tail
    }

    /// Path of the journal file (tests and tooling).
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    /// The most recent journaled record under `key`, decoded as `T`, if
    /// present. Records under one key supersede each other (the journal
    /// replays front to back, last record wins), which is what lets the
    /// discovery campaign stash a row's mid-unit state repeatedly under
    /// a sentinel key.
    pub(crate) fn cached<T: Deserialize>(
        &self,
        key: &UnitKey,
    ) -> Result<Option<T>, CheckpointError> {
        let Some(json) = self.completed.get(key) else { return Ok(None) };
        match serde_json::from_str::<T>(json) {
            Ok(v) => Ok(Some(v)),
            Err(e) => Err(CheckpointError::Decode { key: key.clone(), reason: e.to_string() }),
        }
    }

    /// Appends one record and flushes, making it durable.
    pub(crate) fn append<T: Serialize>(&self, key: &UnitKey, value: &T) -> std::io::Result<()> {
        let body = format!(
            "{{\"key\":{},\"value\":{}}}",
            serde_json::to_string(key).expect("key serializes"),
            serde_json::to_string(value).expect("value serializes"),
        );
        let line = format!("{RECORD_MAGIC} {:016x} {body}", fnv1a64(body.as_bytes()));
        journal::append(&mut *self.writer.lock().unwrap_or_else(PoisonError::into_inner), &line)
    }
}

/// Parses and verifies one journal record line.
fn parse_record(line: &str) -> Result<(UnitKey, String), String> {
    let rest = line
        .strip_prefix(RECORD_MAGIC)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| format!("missing `{RECORD_MAGIC}` magic"))?;
    let (checksum_hex, body) =
        rest.split_once(' ').ok_or_else(|| "missing checksum field".to_owned())?;
    let checksum =
        u64::from_str_radix(checksum_hex, 16).map_err(|e| format!("bad checksum field: {e}"))?;
    if checksum_hex.len() != 16 {
        return Err("bad checksum field: wrong width".to_owned());
    }
    let actual = fnv1a64(body.as_bytes());
    if actual != checksum {
        return Err(format!("checksum mismatch: recorded {checksum:016x}, actual {actual:016x}"));
    }
    let record: Value =
        serde_json::from_str(body).map_err(|e| format!("record is not JSON: {e}"))?;
    let key = record
        .get("key")
        .ok_or_else(|| "record has no `key`".to_owned())
        .and_then(|v| UnitKey::from_value(v).map_err(|e| format!("bad unit key: {e}")))?;
    let value = record.get("value").ok_or_else(|| "record has no `value`".to_owned())?;
    let value_json = serde_json::to_string(value).expect("value re-serializes");
    Ok((key, value_json))
}
