//! The unified campaign-run surface.
//!
//! PRs 1–3 grew each campaign into a `run_X_campaign` / `_observed` /
//! `_checkpointed` triad — a combinatorial API that every new capability
//! (cancellation, tracing, metrics) would double again. [`RunOptions`]
//! collapses the axes into one value: *observed* and *checkpointed* are
//! configurations, not separate functions. The campaign entry points in
//! [`crate::campaign`] take `&RunOptions` and behave like whichever
//! member of the old triad the options describe.
//!
//! ```
//! use vrd_core::campaign::{foundational_campaign, FoundationalConfig};
//! use vrd_core::exec::ExecConfig;
//! use vrd_core::obs::MemorySink;
//! use vrd_core::run::RunOptions;
//! use vrd_dram::spec::ModuleSpec;
//!
//! let specs = vec![ModuleSpec::by_name("M1").unwrap()];
//! let cfg =
//!     FoundationalConfig::builder().measurements(50).row_bytes(512).scan_rows(3000).build();
//! let sink = MemorySink::new();
//! let opts = RunOptions::new(ExecConfig::serial(7)).observer(&sink);
//! let results = foundational_campaign(&specs, &cfg, &opts).unwrap();
//! assert_eq!(results.len(), 1);
//! assert!(!sink.events().is_empty());
//! ```

use std::sync::atomic::AtomicBool;

use serde::{Deserialize, Serialize};

use crate::checkpoint::{self, Checkpoint, CheckpointError, UnitHooks};
use crate::exec::{self, ExecConfig, ExecReport, Progress, Unit, UnitCtx};
use crate::obs::{Event, NullObserver, Observer};

/// Everything configurable about one campaign run: the executor, an
/// event sink, shared progress counters, a checkpoint, unit hooks, and
/// a cancellation flag. Borrowed pieces default to inert values
/// ([`NullObserver`], no checkpoint, no cancel), so
/// `RunOptions::new(exec)` alone reproduces the plain triad member.
///
/// `#[non_exhaustive]`: construct with [`RunOptions::new`] and the
/// chaining setters.
#[derive(Clone, Copy)]
#[non_exhaustive]
pub struct RunOptions<'a> {
    exec: ExecConfig,
    observer: &'a dyn Observer,
    progress: Option<&'a Progress>,
    checkpoint: Option<&'a Checkpoint>,
    hooks: Option<&'a dyn UnitHooks>,
    cancel: Option<&'a AtomicBool>,
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

    /// The executor configuration.
    pub fn exec(&self) -> &ExecConfig {
        &self.exec
    }

    /// The event sink.
    pub fn observer_ref(&self) -> &'a dyn Observer {
        self.observer
    }

    /// Whether caller-owned progress counters are installed.
    pub fn has_progress(&self) -> bool {
        self.progress.is_some()
    }

    /// The shared progress counters, if any.
    pub fn progress_ref(&self) -> Option<&'a Progress> {
        self.progress
    }

    /// The checkpoint, if any.
    pub fn checkpoint_ref(&self) -> Option<&'a Checkpoint> {
        self.checkpoint
    }

    /// The unit-boundary hooks, if any. Campaign code that commits
    /// mid-unit state (the discovery campaign's [`Checkpoint::stash`])
    /// fires [`UnitHooks::after_commit`] through this, so fault plans
    /// count stash commits like unit commits.
    pub fn hooks_ref(&self) -> Option<&'a dyn UnitHooks> {
        self.hooks
    }

    /// The effective cancellation flag: the explicit one, else the
    /// hooks' flag.
    pub fn effective_cancel(&self) -> Option<&'a AtomicBool> {
        self.cancel.or_else(|| self.hooks.and_then(UnitHooks::cancel_flag))
    }
}

/// Runs one phase of a campaign under `opts`: emits
/// [`Event::PhaseStarted`], dispatches to the checkpointed or plain
/// executor, and turns cancellation into
/// [`CheckpointError::Interrupted`].
///
/// Campaign entry points call this once per phase; the multi-phase
/// in-depth campaign calls it twice under one set of options, so the
/// phases share progress counters, the checkpoint journal, and the
/// event stream.
///
/// # Errors
///
/// - [`CheckpointError::Interrupted`] when cancellation skipped units.
/// - Checkpoint open/decode errors when a checkpoint is configured.
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
    let own_progress;
    let progress = match opts.progress {
        Some(p) => p,
        None => {
            own_progress = Progress::new();
            &own_progress
        }
    };
    if let Some(ckpt) = opts.checkpoint {
        return checkpoint::execute_checkpointed_run(opts, ckpt, units, progress, f);
    }
    let total = units.len();
    let hooks = opts.hooks;
    let cancel = opts.effective_cancel();
    let report = exec::execute_run(&opts.exec, units, progress, cancel, opts.observer, |ctx, p| {
        if let Some(h) = hooks {
            h.before_unit(ctx.key);
        }
        f(ctx, p)
    });
    let skipped = report.outcomes.iter().filter(|o| o.is_skipped()).count();
    if skipped > 0 {
        return Err(CheckpointError::Interrupted { completed: total - skipped, total });
    }
    Ok(report)
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
        let opts = RunOptions::new(ExecConfig::serial(1)).observer(&sink);
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
        let opts = RunOptions::new(ExecConfig::serial(1)).cancel(&cancel);
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
        let opts = RunOptions::new(ExecConfig::serial(1)).progress(&progress);
        run_units(&opts, "c", "a", units(3), |_, &i| i).unwrap();
        run_units(&opts, "c", "b", units(2), |_, &i| i).unwrap();
        let snap = progress.snapshot();
        assert_eq!((snap.units_total, snap.units_done), (5, 5));
    }
}
