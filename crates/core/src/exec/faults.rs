//! Deterministic fault injection for the checkpoint/resume machinery:
//! the crash/resume test suites and the CLI's `--fail-after-units`
//! simulated crash.
//!
//! A [`FaultPlan`] implements [`UnitHooks`] and can:
//!
//! - **kill** a run at the Nth unit-commit boundary — cooperatively
//!   (in-process: pass [`FaultPlan::kill_flag`] to
//!   [`RunOptions::cancel`](crate::run::RunOptions::cancel)) or hard
//!   (simulated crash via `process::exit`, for CLI-level testing with
//!   `--fail-after-units`);
//! - **panic** specific units by key, exercising the journal's
//!   "panicked units are never journaled" property;
//!
//! and the free functions tamper with journal files the way real
//! crashes do: truncating mid-record and flipping payload bytes.
//!
//! Everything here is deterministic: the kill counter counts *commits*
//! (journal appends), which happen exactly once per executed unit, so
//! "kill after N units" means the journal holds at least N records no
//! matter how the pool scheduled them.

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::checkpoint::UnitHooks;
use crate::exec::UnitKey;

/// A deterministic fault schedule, applied through [`UnitHooks`].
#[derive(Default)]
pub struct FaultPlan {
    /// Stop the run after this many units have committed.
    kill_after_units: Option<u64>,
    /// When set, the kill is a simulated crash: `process::exit(code)`
    /// instead of cooperative cancellation.
    exit_code: Option<i32>,
    /// Units whose work closure panics instead of running.
    panic_keys: HashSet<UnitKey>,
    /// Called with the committed-unit count right before a simulated
    /// crash exits, so the embedding binary can announce it (library
    /// code prints nothing).
    announce: Option<Box<dyn Fn(u64) + Send + Sync>>,
    committed: AtomicU64,
    cancel: AtomicBool,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("kill_after_units", &self.kill_after_units)
            .field("exit_code", &self.exit_code)
            .field("panic_keys", &self.panic_keys)
            .field("announce", &self.announce.is_some())
            .field("committed", &self.committed)
            .field("cancel", &self.cancel)
            .finish()
    }
}

impl FaultPlan {
    /// A plan that injects nothing (hooks still fire; useful as a
    /// commit counter).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Cancels the run cooperatively once `units` have committed:
    /// in-flight units finish and commit, never-started units come back
    /// as skipped, and the campaign reports
    /// `CheckpointError::Interrupted`. The run must be given the plan's
    /// [`FaultPlan::kill_flag`] as its cancellation flag.
    pub fn kill_after(units: u64) -> Self {
        FaultPlan { kill_after_units: Some(units), ..FaultPlan::default() }
    }

    /// Simulates a hard crash: exits the whole process with `code` right
    /// after the `units`-th commit is flushed. Only reachable from a
    /// process you own (the experiments CLI under
    /// `--fail-after-units`).
    pub fn exit_after(units: u64, code: i32) -> Self {
        FaultPlan { kill_after_units: Some(units), exit_code: Some(code), ..FaultPlan::default() }
    }

    /// Additionally panics the unit with `key` when it is about to run.
    pub fn panic_on(mut self, key: UnitKey) -> Self {
        self.panic_keys.insert(key);
        self
    }

    /// Installs a callback invoked with the committed-unit count right
    /// before a simulated crash ([`FaultPlan::exit_after`]) exits the
    /// process. The library itself prints nothing; the experiments CLI
    /// uses this to announce the crash on stderr.
    pub fn announce_with(mut self, announce: impl Fn(u64) + Send + Sync + 'static) -> Self {
        self.announce = Some(Box::new(announce));
        self
    }

    /// How many units have committed so far.
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::SeqCst)
    }

    /// Whether the kill fault has fired.
    pub fn fired(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// The flag the kill fault sets: install it with
    /// [`RunOptions::cancel`](crate::run::RunOptions::cancel) so a
    /// [`FaultPlan::kill_after`] plan stops the run.
    pub fn kill_flag(&self) -> &AtomicBool {
        &self.cancel
    }
}

impl UnitHooks for FaultPlan {
    fn before_unit(&self, key: &UnitKey) {
        if self.panic_keys.contains(key) {
            panic!(
                "fault injection: unit {}/{}/{} ordered to panic",
                key.module, key.row, key.condition
            );
        }
    }

    fn after_commit(&self, _key: &UnitKey) {
        let done = self.committed.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(kill_at) = self.kill_after_units {
            if done >= kill_at {
                if let Some(code) = self.exit_code {
                    // The record is already flushed; this is a process
                    // killed at the unit boundary.
                    if let Some(announce) = &self.announce {
                        announce(done);
                    }
                    std::process::exit(code);
                }
                self.cancel.store(true, Ordering::SeqCst);
            }
        }
    }
}

/// Truncates the last `bytes` bytes off a journal file, simulating a
/// torn write (a process killed mid-record).
pub fn truncate_tail_bytes(journal: &Path, bytes: u64) -> std::io::Result<()> {
    let len = std::fs::metadata(journal)?.len();
    let file = std::fs::OpenOptions::new().write(true).open(journal)?;
    file.set_len(len.saturating_sub(bytes))
}

/// Flips one byte in the middle of the journal's last record,
/// simulating bit rot or a tampered file. The record keeps its
/// shape but fails its checksum.
pub fn corrupt_tail_record(journal: &Path) -> std::io::Result<()> {
    corrupt_record(journal, usize::MAX)
}

/// Flips one byte in the middle of the 0-based `line`-th record (or the
/// last record when `line` is out of range).
pub fn corrupt_record(journal: &Path, line: usize) -> std::io::Result<()> {
    let mut bytes = std::fs::read(journal)?;
    let mut starts: Vec<usize> = vec![0];
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' && i + 1 < bytes.len() {
            starts.push(i + 1);
        }
    }
    let start = starts[line.min(starts.len() - 1)];
    let end = bytes[start..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |nl| start + nl);
    assert!(end > start, "journal record is empty");
    // Flip a low bit mid-record: ASCII stays ASCII, the newline framing
    // stays intact, and the checksum no longer matches.
    bytes[start + (end - start) / 2] ^= 0x04;
    std::fs::write(journal, bytes)
}
