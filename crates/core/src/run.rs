//! The campaign-run surface: one [`RunOptions`] value and one
//! [`run_units`] body under every campaign.
//!
//! [`RunOptions`] bundles everything configurable about a run — the
//! executor, an event observer, shared progress counters, a checkpoint,
//! unit hooks, and a cancellation flag — so *observed*, *checkpointed*
//! and *cancellable* are configurations of each campaign entry point in
//! [`crate::campaign`] and [`crate::discovery`], not separate functions.
//! [`run_units`] runs one phase of a campaign under those options: it
//! restores journaled units, runs the rest on the executor, and commits
//! each finished unit to the journal when a checkpoint is present.
//!
//! ```
//! use vrd_core::campaign::{foundational_campaign, FoundationalConfig};
//! use vrd_core::exec::ExecConfig;
//! use vrd_core::obs::MemorySink;
//! use vrd_core::run::RunOptions;
//! use vrd_dram::spec::ModuleSpec;
//!
//! let specs = vec![ModuleSpec::by_name("M1").unwrap()];
//! let cfg = FoundationalConfig {
//!     measurements: 50,
//!     row_bytes: 512,
//!     scan_rows: 3000,
//!     ..FoundationalConfig::default()
//! };
//! let sink = MemorySink::new();
//! let opts = RunOptions::new(ExecConfig::new(1, 7)).observer(&sink);
//! let results = foundational_campaign(&specs, &cfg, &opts).unwrap();
//! assert_eq!(results.len(), 1);
//! assert!(!sink.events().is_empty());
//! ```

use std::sync::atomic::AtomicBool;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::checkpoint::{Checkpoint, CheckpointError, UnitHooks};
use crate::exec::{self, ExecConfig, ExecReport, Progress, Unit, UnitCtx, UnitKey, UnitOutcome};
use crate::obs::{Event, NullObserver, Observer};

/// Everything configurable about one campaign run: the executor, an
/// event sink, shared progress counters, a checkpoint, unit hooks, and
/// a cancellation flag. Borrowed pieces default to inert values
/// ([`NullObserver`], no checkpoint, no hooks, no cancel), so
/// `RunOptions::new(exec)` alone is a plain run. Construct with
/// [`RunOptions::new`] and the chaining setters.
#[derive(Clone, Copy)]
pub struct RunOptions<'a> {
    pub(crate) exec: ExecConfig,
    pub(crate) observer: &'a dyn Observer,
    pub(crate) progress: Option<&'a Progress>,
    pub(crate) checkpoint: Option<&'a Checkpoint>,
    pub(crate) hooks: Option<&'a dyn UnitHooks>,
    pub(crate) cancel: Option<&'a AtomicBool>,
}

impl std::fmt::Debug for RunOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("exec", &self.exec)
            .field("progress", &self.progress.is_some())
            .field("checkpoint", &self.checkpoint)
            .field("hooks", &self.hooks.is_some())
            .field("cancel", &self.cancel.is_some())
            .finish()
    }
}

impl<'a> RunOptions<'a> {
    /// A plain run: the given executor config, no observer, no
    /// checkpoint, no cancellation.
    pub fn new(exec: ExecConfig) -> Self {
        RunOptions {
            exec,
            observer: &NullObserver,
            progress: None,
            checkpoint: None,
            hooks: None,
            cancel: None,
        }
    }

    /// Sends campaign events to `observer` (fan out with
    /// [`crate::obs::MultiObserver`]).
    pub fn observer(mut self, observer: &'a dyn Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Accumulates progress into caller-owned counters (for live
    /// polling); without this, each run uses its own private counters.
    pub fn progress(mut self, progress: &'a Progress) -> Self {
        self.progress = progress.into();
        self
    }

    /// Journals every finished unit into `checkpoint` and restores
    /// already-journaled units instead of re-running them.
    pub fn checkpoint(mut self, checkpoint: &'a Checkpoint) -> Self {
        self.checkpoint = checkpoint.into();
        self
    }

    /// Installs unit-boundary hooks (fault injection, commit callbacks).
    pub fn hooks(mut self, hooks: &'a dyn UnitHooks) -> Self {
        self.hooks = hooks.into();
        self
    }

    /// Makes the run cooperatively cancellable: when the flag flips,
    /// unstarted units are skipped and the run reports
    /// [`CheckpointError::Interrupted`].
    pub fn cancel(mut self, cancel: &'a AtomicBool) -> Self {
        self.cancel = cancel.into();
        self
    }

    /// Appends `value` under `key` to `checkpoint` and flushes it, then
    /// emits [`Event::CheckpointCommitted`] with the commit latency and
    /// fires [`UnitHooks::after_commit`]: the record is durable once the
    /// hook runs. Unit commits and the discovery campaign's mid-row
    /// stashes both go through here, so observers and fault plans count
    /// them alike.
    ///
    /// # Panics
    ///
    /// When the append itself fails (disk full / I/O error): continuing
    /// would silently lose crash safety.
    pub(crate) fn commit<T: Serialize>(&self, checkpoint: &Checkpoint, key: &UnitKey, value: &T) {
        let started = Instant::now();
        if let Err(e) = checkpoint.append(key, value) {
            panic!("checkpoint journal append failed: {e}");
        }
        self.observer.on_event(&Event::CheckpointCommitted {
            key: key.clone(),
            latency_ns: started.elapsed().as_nanos() as u64,
        });
        if let Some(hooks) = self.hooks {
            hooks.after_commit(key);
        }
    }
}

/// Runs one phase of a campaign under `opts` and returns one outcome per
/// unit, in input order.
///
/// Emits [`Event::PhaseStarted`]. With a checkpoint, units already in
/// the journal are restored without running (each emitting
/// [`Event::UnitRestored`] and counted as done in the progress
/// counters), and every other unit is appended and flushed to the
/// journal as it finishes, emitting [`Event::CheckpointCommitted`] and
/// then firing [`UnitHooks::after_commit`]. A unit that yields to
/// cancellation mid-run ([`UnitCtx::interrupt`]) is never journaled, so
/// a resume reruns it. Hooks see [`UnitHooks::before_unit`] before each
/// unit runs.
///
/// Campaign entry points call this once per phase under one set of
/// options, so the phases of a multi-phase campaign share progress
/// counters, the checkpoint journal, and the event stream.
///
/// # Errors
///
/// - [`CheckpointError::Interrupted`] when cancellation skipped units
///   (committed units stay in the journal, resumable).
/// - [`CheckpointError::Decode`] when a journaled record does not decode
///   as `T` (a checkpoint written by an incompatible build).
///
/// # Panics
///
/// When a journal append fails (disk full / I/O error): continuing
/// would silently lose crash safety.
pub fn run_units<I, T, F>(
    opts: &RunOptions<'_>,
    campaign: &str,
    phase: &str,
    units: Vec<Unit<I>>,
    f: F,
) -> Result<ExecReport<T>, CheckpointError>
where
    I: Send + Sync,
    T: Serialize + Deserialize + Send,
    F: Fn(UnitCtx<'_>, &I) -> T + Sync,
{
    opts.observer.on_event(&Event::PhaseStarted {
        campaign: campaign.to_owned(),
        phase: phase.to_owned(),
        units: units.len(),
    });
    let own_progress = Progress::new();
    let progress = opts.progress.unwrap_or(&own_progress);

    // Restored units fill their slots now; the rest run on the pool and
    // fill the empty slots in input order.
    let total = units.len();
    let mut slots: Vec<Option<UnitOutcome<T>>> = Vec::with_capacity(total);
    let mut pending: Vec<Unit<I>> = Vec::new();
    for unit in units {
        let cached = match opts.checkpoint {
            Some(ckpt) => ckpt.cached::<T>(&unit.key)?,
            None => None,
        };
        match cached {
            Some(value) => {
                opts.observer.on_event(&Event::UnitRestored { key: unit.key.clone() });
                slots.push(Some(UnitOutcome::Completed(value)));
            }
            None => {
                slots.push(None);
                pending.push(unit);
            }
        }
    }
    progress.restore(total - pending.len());

    let report = exec::execute_run(
        &opts.exec,
        pending,
        progress,
        opts.cancel,
        opts.observer,
        |ctx, payload| {
            if let Some(hooks) = opts.hooks {
                hooks.before_unit(ctx.key);
            }
            let value = f(ctx, payload);
            // An interrupted unit's value is partial: the executor
            // reports it skipped, and it must not reach the journal.
            if let Some(ckpt) = opts.checkpoint.filter(|_| !ctx.was_interrupted()) {
                opts.commit(ckpt, ctx.key, &value);
            }
            value
        },
    );

    let mut ran = report.outcomes.into_iter();
    let outcomes: Vec<UnitOutcome<T>> = slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| ran.next().expect("one outcome per pending unit")))
        .collect();
    let skipped = outcomes.iter().filter(|o| o.is_skipped()).count();
    if skipped > 0 {
        return Err(CheckpointError::Interrupted { completed: total - skipped, total });
    }
    Ok(ExecReport { outcomes, progress: report.progress })
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use super::*;
    use crate::exec::UnitKey;
    use crate::obs::MemorySink;

    fn units(n: usize) -> Vec<Unit<usize>> {
        (0..n).map(|i| Unit::new(UnitKey::cell("M1", i as u32, 0), i)).collect()
    }

    #[test]
    fn plain_run_completes_and_reports_phase() {
        let sink = MemorySink::new();
        let opts = RunOptions::new(ExecConfig::new(1, 1)).observer(&sink);
        let report = run_units(&opts, "c", "p", units(4), |_, &i| i * 2).unwrap();
        assert_eq!(report.into_results(), vec![0, 2, 4, 6]);
        let events = sink.events();
        assert!(matches!(
            &events[0],
            Event::PhaseStarted { campaign, phase, units: 4 }
                if campaign == "c" && phase == "p"
        ));
        let finished = events.iter().filter(|e| matches!(e, Event::UnitFinished { .. })).count();
        assert_eq!(finished, 4);
    }

    #[test]
    fn explicit_cancel_interrupts_a_plain_run() {
        let cancel = AtomicBool::new(false);
        let opts = RunOptions::new(ExecConfig::new(1, 1)).cancel(&cancel);
        let err = run_units(&opts, "c", "p", units(5), |_, &i| {
            if i == 1 {
                cancel.store(true, Ordering::SeqCst);
            }
            i
        })
        .unwrap_err();
        let CheckpointError::Interrupted { completed, total } = err else {
            panic!("expected Interrupted, got {err:?}");
        };
        assert_eq!((completed, total), (2, 5));
    }

    #[test]
    fn shared_progress_spans_phases() {
        let progress = Progress::new();
        let opts = RunOptions::new(ExecConfig::new(1, 1)).progress(&progress);
        run_units(&opts, "c", "a", units(3), |_, &i| i).unwrap();
        run_units(&opts, "c", "b", units(2), |_, &i| i).unwrap();
        let snap = progress.snapshot();
        assert_eq!((snap.units_total, snap.units_done), (5, 5));
    }
}
