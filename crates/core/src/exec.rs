//! Deterministic parallel campaign executor.
//!
//! The paper's campaigns are embarrassingly parallel — §4 measures one
//! row per module across the fleet, §5 sweeps 150 rows × data-pattern ×
//! `t_AggOn` × temperature grids — but naive parallelism would make the
//! results depend on scheduling: the device's dynamics RNG advances with
//! every measurement, so whichever unit runs first draws different
//! numbers.
//!
//! This executor makes parallel campaigns **bit-identical regardless of
//! thread count or scheduling order** by construction:
//!
//! 1. Work is split into *units* (module × row × condition cell), each
//!    identified by a stable [`UnitKey`].
//! 2. Every unit derives its own ChaCha seed from
//!    `(campaign_seed, unit_key)` via [`derive_unit_seed`] and reseeds
//!    its platform's dynamics RNG with it, so no unit observes RNG state
//!    left behind by another.
//! 3. Results are collected over a channel tagged with the unit's input
//!    index and stored in that index's slot, so the output sequence is
//!    stable no matter which worker finished first.
//!
//! Since no output depends on which worker runs a unit, scheduling is
//! one shared cursor: each worker claims the next input index with an
//! atomic `fetch_add` until the list runs out. A panicking unit is
//! caught, reported as [`UnitOutcome::Panicked`], and never blocks the
//! pool.
//!
//! Shared progress lives in [`Progress`] (atomic counters): units
//! done, bitflips found, and simulated test time consumed, for CLI
//! throughput rendering while a campaign runs.
//!
//! Workers run in a [`std::thread::scope`] and send outcomes over a
//! [`std::sync::mpsc`] channel.
//!
//! [`crate::run::run_units`] is the campaign-facing entry point: it
//! layers checkpointing ([`crate::checkpoint`]), unit hooks, a
//! cancellation flag, and an [`Observer`] over this pool. [`execute`] is
//! the plain pool, for work whose results need not serialize. The
//! cancellation flag is checked before each unit is claimed; units never
//! started report [`UnitOutcome::Skipped`], and in-flight units finish
//! normally unless they poll [`UnitCtx::is_cancelled`] themselves and
//! yield via [`UnitCtx::interrupt`] (long per-unit loops, like the
//! discovery campaign's epoch loop, do — an interrupted unit also
//! reports `Skipped` and reruns on resume). The [`faults`] module drives
//! the flag and the hooks deterministically, for crash/resume testing
//! and the CLI's simulated crash. Observation emits
//! [`crate::obs::Event::UnitStarted`] / `UnitFinished` (with per-unit
//! wall time, simulated test time/energy, and bitflips), feeding JSONL
//! traces and `metrics.json`; it is purely additive — it never touches
//! seeds, scheduling, or outputs.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::algorithm::{EvalStrategy, SearchStrategy};
use crate::obs::{Event, NullObserver, Observer, OutcomeKind};

pub mod faults;

/// Executor configuration: worker-thread count and the campaign seed all
/// unit seeds derive from.
///
/// `#[non_exhaustive]`: construct through [`ExecConfig::new`] (one
/// thread is the reference ordering that parallel runs must match byte
/// for byte), so future fields are not breaking changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ExecConfig {
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// The campaign seed; combined with each [`UnitKey`] into the
    /// per-unit dynamics seed.
    pub campaign_seed: u64,
    /// How RDT measurements locate the first flipping grid point. Both
    /// strategies produce byte-identical campaign results (see
    /// [`SearchStrategy`]); [`Adaptive`](SearchStrategy::Adaptive), the
    /// default, is the product path and `Linear` a test oracle.
    pub search: SearchStrategy,
    /// How RDT measurements evaluate the hammer sessions they probe.
    /// Both strategies produce byte-identical campaign results (see
    /// [`EvalStrategy`]); [`Batch`](EvalStrategy::Batch), the default, is
    /// the product path and `Scalar` a test oracle.
    pub eval: EvalStrategy,
}

impl ExecConfig {
    /// A configuration with the given thread count (0 = all available
    /// cores) and campaign seed, on the product search and evaluation
    /// strategies. The equivalence suites set [`search`](Self::search)
    /// or [`eval`](Self::eval) afterwards to pick an oracle.
    pub fn new(threads: usize, campaign_seed: u64) -> Self {
        ExecConfig {
            threads,
            campaign_seed,
            search: SearchStrategy::default(),
            eval: EvalStrategy::default(),
        }
    }

    /// A builder seeded with this configuration's values.
    pub fn to_builder(self) -> ExecConfigBuilder {
        ExecConfigBuilder { cfg: self }
    }

    /// The effective worker count for `unit_count` units.
    pub fn effective_threads(&self, unit_count: usize) -> usize {
        let configured = if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        } else {
            self.threads
        };
        configured.clamp(1, unit_count.max(1))
    }
}

/// Builder for [`ExecConfig`]; obtained from [`ExecConfig::to_builder`].
#[derive(Debug, Clone, Copy)]
pub struct ExecConfigBuilder {
    cfg: ExecConfig,
}

impl ExecConfigBuilder {
    /// Sets the worker-thread count (0 = all available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Sets the campaign seed.
    pub fn campaign_seed(mut self, campaign_seed: u64) -> Self {
        self.cfg.campaign_seed = campaign_seed;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> ExecConfig {
        self.cfg
    }
}

/// Stable identity of one work unit. The seed derivation uses the key's
/// *contents* (not its position), so inserting or removing units never
/// shifts the seeds of the others.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UnitKey {
    /// Module name (paper Table 1).
    pub module: String,
    /// Row address, or [`UnitKey::WHOLE_MODULE`] for module-level units.
    pub row: u32,
    /// Condition-grid index, or [`UnitKey::WHOLE_MODULE`] for
    /// module-level units.
    pub condition: u32,
}

impl UnitKey {
    /// Sentinel row/condition for units spanning a whole module.
    pub const WHOLE_MODULE: u32 = u32::MAX;

    /// Key of a module-level unit (e.g. one foundational campaign run or
    /// the in-depth row-selection phase).
    pub fn module(name: &str) -> Self {
        UnitKey { module: name.to_owned(), row: Self::WHOLE_MODULE, condition: Self::WHOLE_MODULE }
    }

    /// Key of a (module × row × condition) measurement cell.
    pub fn cell(module: &str, row: u32, condition: u32) -> Self {
        UnitKey { module: module.to_owned(), row, condition }
    }
}

/// Derives the per-unit ChaCha seed from the campaign seed and the unit
/// key: FNV-1a over the module name folded with a splitmix64 finalizer
/// over `(row, condition)`. Documented in EXPERIMENTS.md; changing this
/// changes every campaign's numbers, so it is locked by the golden
/// tests.
pub fn derive_unit_seed(campaign_seed: u64, key: &UnitKey) -> u64 {
    let mut h = campaign_seed ^ 0xCAFE_F00D_D15E_A5E5_u64;
    for b in key.module.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    h ^= u64::from(key.row).rotate_left(32) ^ u64::from(key.condition);
    // splitmix64 finalizer.
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// One schedulable unit: a stable key plus the payload the work closure
/// consumes.
#[derive(Debug, Clone)]
pub struct Unit<I> {
    /// Stable identity (drives the seed and output labelling).
    pub key: UnitKey,
    /// Input handed to the work closure.
    pub payload: I,
}

impl<I> Unit<I> {
    /// Bundles a key with its payload.
    pub fn new(key: UnitKey, payload: I) -> Self {
        Unit { key, payload }
    }
}

/// Shared live progress counters of one executor run. Cheap to read
/// concurrently; the experiments CLI polls this from a heartbeat thread
/// while the campaign runs.
#[derive(Debug, Default)]
pub struct Progress {
    total: AtomicUsize,
    done: AtomicUsize,
    panicked: AtomicUsize,
    flips: AtomicU64,
    hammer_sessions: AtomicU64,
    measurement_epochs: AtomicU64,
    sim_time_ns: AtomicU64,
    sim_energy_pj: AtomicU64,
}

impl Progress {
    /// Fresh counters (total is set by the executor on entry).
    pub fn new() -> Self {
        Progress::default()
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            units_total: self.total.load(Ordering::Relaxed),
            units_done: self.done.load(Ordering::Relaxed),
            units_panicked: self.panicked.load(Ordering::Relaxed),
            flips_found: self.flips.load(Ordering::Relaxed),
            hammer_sessions: self.hammer_sessions.load(Ordering::Relaxed),
            measurement_epochs: self.measurement_epochs.load(Ordering::Relaxed),
            sim_time_ns: self.sim_time_ns.load(Ordering::Relaxed) as f64,
            sim_energy_j: self.sim_energy_pj.load(Ordering::Relaxed) as f64 * 1e-12,
        }
    }

    /// Enrolls another batch of units. Counters accumulate, so one
    /// `Progress` can observe a multi-phase campaign (selection units
    /// first, then measurement cells) as a single progress bar.
    fn enroll(&self, total: usize) {
        self.total.fetch_add(total, Ordering::Relaxed);
    }

    fn record_flips(&self, n: u64) {
        self.flips.fetch_add(n, Ordering::Relaxed);
    }

    fn record_hammer_sessions(&self, n: u64) {
        self.hammer_sessions.fetch_add(n, Ordering::Relaxed);
    }

    fn record_measurement_epochs(&self, n: u64) {
        self.measurement_epochs.fetch_add(n, Ordering::Relaxed);
    }

    fn record_sim_time_ns(&self, ns: f64) {
        // Whole nanoseconds are plenty for throughput display.
        self.sim_time_ns.fetch_add(ns.max(0.0) as u64, Ordering::Relaxed);
    }

    fn record_sim_energy_j(&self, joules: f64) {
        // Stored in whole picojoules: plenty of resolution for display
        // and aggregation, and an atomic u64 holds up to ~18 MJ.
        self.sim_energy_pj.fetch_add((joules.max(0.0) * 1e12) as u64, Ordering::Relaxed);
    }

    /// Enrolls `n` units restored from a checkpoint journal as already
    /// done, so a resumed campaign's progress bar starts where the
    /// previous run left off.
    pub(crate) fn restore(&self, n: usize) {
        self.total.fetch_add(n, Ordering::Relaxed);
        self.done.fetch_add(n, Ordering::Relaxed);
    }
}

/// A point-in-time view of [`Progress`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgressSnapshot {
    /// Units submitted to this run.
    pub units_total: usize,
    /// Units finished (completed or panicked).
    pub units_done: usize,
    /// Units that panicked.
    pub units_panicked: usize,
    /// Bitflips (successful RDT measurements) reported by units so far.
    pub flips_found: u64,
    /// Hammer sessions (init + hammer + read) executed so far — the unit
    /// of work the RDT search strategy minimizes.
    pub hammer_sessions: u64,
    /// RDT measurement epochs opened so far. Search and eval strategies
    /// may change how many *sessions* an epoch costs, never how many
    /// epochs a campaign opens — the regression tests pin this.
    pub measurement_epochs: u64,
    /// Simulated DRAM test time consumed so far (ns).
    pub sim_time_ns: f64,
    /// Estimated DRAM test energy consumed so far (J), per the bender
    /// platform's Appendix-A energy model.
    pub sim_energy_j: f64,
}

impl ProgressSnapshot {
    /// Simulated test time in seconds.
    pub fn sim_time_s(&self) -> f64 {
        self.sim_time_ns * 1e-9
    }
}

/// Per-unit tallies of what the work closure reported, kept on the
/// worker's stack so the `UnitFinished` event can carry the unit's own
/// deltas (the shared [`Progress`] only holds campaign-wide sums).
#[derive(Debug, Default)]
struct UnitTally {
    flips: Cell<u64>,
    hammer_sessions: Cell<u64>,
    sim_time_ns: Cell<f64>,
    sim_energy_j: Cell<f64>,
    /// Set by [`UnitCtx::interrupt`]: the closure yielded mid-unit to a
    /// cancellation request, so its return value is partial and must not
    /// be committed.
    interrupted: Cell<bool>,
}

/// Per-unit context handed to the work closure.
#[derive(Clone, Copy)]
pub struct UnitCtx<'a> {
    /// The unit's derived dynamics seed; reseed the platform with this.
    pub seed: u64,
    /// The unit's stable key.
    pub key: &'a UnitKey,
    progress: &'a Progress,
    tally: &'a UnitTally,
    cancel: Option<&'a AtomicBool>,
}

impl UnitCtx<'_> {
    /// Reports successful RDT measurements (bitflips found).
    pub fn record_flips(&self, n: u64) {
        self.progress.record_flips(n);
        self.tally.flips.set(self.tally.flips.get() + n);
    }

    /// Reports hammer sessions executed (read from
    /// [`vrd_bender::TestPlatform::hammer_sessions`] deltas).
    pub fn record_hammer_sessions(&self, n: u64) {
        self.progress.record_hammer_sessions(n);
        self.tally.hammer_sessions.set(self.tally.hammer_sessions.get() + n);
    }

    /// Reports measurement epochs opened (read from
    /// [`vrd_bender::TestPlatform::measurement_epochs`] deltas).
    pub fn record_measurement_epochs(&self, n: u64) {
        self.progress.record_measurement_epochs(n);
    }

    /// Reports simulated test time consumed (ns).
    pub fn record_sim_time_ns(&self, ns: f64) {
        self.progress.record_sim_time_ns(ns);
        self.tally.sim_time_ns.set(self.tally.sim_time_ns.get() + ns);
    }

    /// Reports estimated test energy consumed (J).
    pub fn record_sim_energy_j(&self, joules: f64) {
        self.progress.record_sim_energy_j(joules);
        self.tally.sim_energy_j.set(self.tally.sim_energy_j.get() + joules);
    }

    /// Whether the run's cancellation flag has flipped. Long-running
    /// units (the discovery campaign's per-row epoch loops) poll this to
    /// yield mid-unit instead of finishing a row the run no longer
    /// wants.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(|flag| flag.load(Ordering::SeqCst))
    }

    /// Marks this unit as interrupted: its return value is partial and
    /// must be discarded, not committed. The executor reports the unit
    /// as [`UnitOutcome::Skipped`] (so a resume reruns it) and
    /// [`crate::run::run_units`] skips the journal append.
    pub fn interrupt(&self) {
        self.tally.interrupted.set(true);
    }

    /// Whether [`UnitCtx::interrupt`] was called on this unit.
    pub fn was_interrupted(&self) -> bool {
        self.tally.interrupted.get()
    }
}

/// How one unit ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitOutcome<T> {
    /// The unit ran to completion.
    Completed(T),
    /// The unit panicked; the message is the panic payload.
    Panicked(String),
    /// The run was cancelled before the unit was started.
    Skipped,
}

impl<T> UnitOutcome<T> {
    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            UnitOutcome::Completed(v) => Some(v),
            UnitOutcome::Panicked(_) | UnitOutcome::Skipped => None,
        }
    }

    /// Whether the unit panicked.
    pub fn is_panicked(&self) -> bool {
        matches!(self, UnitOutcome::Panicked(_))
    }

    /// Whether the unit was skipped by cancellation.
    pub fn is_skipped(&self) -> bool {
        matches!(self, UnitOutcome::Skipped)
    }
}

/// The executor's result: one outcome per unit, **in input order**, plus
/// the final progress snapshot.
#[derive(Debug)]
pub struct ExecReport<T> {
    /// Per-unit outcomes, index-aligned with the submitted units.
    pub outcomes: Vec<UnitOutcome<T>>,
    /// Final counters.
    pub progress: ProgressSnapshot,
}

impl<T> ExecReport<T> {
    /// Unwraps all outcomes into their values.
    ///
    /// # Panics
    ///
    /// Re-raises the first unit panic (campaign code treats a panicking
    /// unit as a bug).
    pub fn into_results(self) -> Vec<T> {
        self.outcomes
            .into_iter()
            .map(|o| match o {
                UnitOutcome::Completed(v) => v,
                UnitOutcome::Panicked(msg) => panic!("campaign unit panicked: {msg}"),
                UnitOutcome::Skipped => panic!("campaign unit skipped: run was cancelled"),
            })
            .collect()
    }
}

/// Runs every unit through `f` on the thread pool and returns the
/// outcomes in input order. See the [module docs](self) for the
/// determinism contract.
pub fn execute<I, T, F>(cfg: &ExecConfig, units: Vec<Unit<I>>, f: F) -> ExecReport<T>
where
    I: Send + Sync,
    T: Send,
    F: Fn(UnitCtx<'_>, &I) -> T + Sync,
{
    execute_run(cfg, units, &Progress::new(), None, &NullObserver, f)
}

/// The fully general pool behind [`execute`] and
/// [`crate::run::run_units`]: reports into caller-owned `progress`, stops
/// claiming units once `cancel` flips (never-started units come back as
/// [`UnitOutcome::Skipped`]), and emits [`Event::UnitStarted`] and
/// [`Event::UnitFinished`] (with the unit's wall time and its own
/// bitflip / simulated-time / simulated-energy deltas) into `observer`.
/// Events are emitted from worker threads, so their interleaving is
/// scheduling-dependent; their contents are not (see
/// [`crate::obs::canonical`]).
pub(crate) fn execute_run<I, T, F>(
    cfg: &ExecConfig,
    units: Vec<Unit<I>>,
    progress: &Progress,
    cancel: Option<&AtomicBool>,
    observer: &dyn Observer,
    f: F,
) -> ExecReport<T>
where
    I: Send + Sync,
    T: Send,
    F: Fn(UnitCtx<'_>, &I) -> T + Sync,
{
    progress.enroll(units.len());
    if units.is_empty() {
        return ExecReport { outcomes: Vec::new(), progress: progress.snapshot() };
    }
    let threads = cfg.effective_threads(units.len());
    // The next input index to claim; an index past the end means the
    // list is drained.
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, UnitOutcome<T>)>();
    let units = &units;
    let cursor = &cursor;
    let f = &f;

    let mut slots: Vec<Option<UnitOutcome<T>>> = Vec::new();
    slots.resize_with(units.len(), || None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || {
                while !cancel.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(unit) = units.get(index) else { break };
                    observer.on_event(&Event::UnitStarted { key: unit.key.clone() });
                    let tally = UnitTally::default();
                    let started = Instant::now();
                    let ctx = UnitCtx {
                        seed: derive_unit_seed(cfg.campaign_seed, &unit.key),
                        key: &unit.key,
                        progress,
                        tally: &tally,
                        cancel,
                    };
                    let caught = catch_unwind(AssertUnwindSafe(|| f(ctx, &unit.payload)));
                    let interrupted = tally.interrupted.get();
                    let outcome = match caught {
                        // An interrupted closure's value is partial; report
                        // the unit as never-finished so a resume reruns it.
                        Ok(_) if interrupted => UnitOutcome::Skipped,
                        Ok(value) => UnitOutcome::Completed(value),
                        Err(payload) => {
                            progress.panicked.fetch_add(1, Ordering::Relaxed);
                            UnitOutcome::Panicked(panic_message(payload.as_ref()))
                        }
                    };
                    if !interrupted {
                        progress.done.fetch_add(1, Ordering::Relaxed);
                    }
                    observer.on_event(&Event::UnitFinished {
                        key: unit.key.clone(),
                        outcome: match &outcome {
                            UnitOutcome::Panicked(msg) => OutcomeKind::Panicked(msg.clone()),
                            UnitOutcome::Skipped => OutcomeKind::Interrupted,
                            UnitOutcome::Completed(_) => OutcomeKind::Completed,
                        },
                        wall_ns: started.elapsed().as_nanos() as u64,
                        sim_time_ns: tally.sim_time_ns.get(),
                        sim_energy_j: tally.sim_energy_j.get(),
                        bitflips: tally.flips.get(),
                    });
                    // The receiver outlives the scope; send cannot fail.
                    tx.send((index, outcome)).expect("receiver alive");
                }
            });
        }
        // Workers hold the remaining senders. Collect on the scope's own
        // thread, overlapping execution; the iterator ends once every
        // worker has exited and dropped its sender.
        drop(tx);
        for (index, outcome) in rx.iter() {
            slots[index] = Some(outcome);
        }
    });

    ExecReport {
        // A slot left empty means its unit was never claimed before
        // cancellation; without a cancel flag every slot is filled.
        outcomes: slots.into_iter().map(|s| s.unwrap_or(UnitOutcome::Skipped)).collect(),
        progress: progress.snapshot(),
    }
}

/// Renders a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unit panicked".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Unit<usize>> {
        (0..n).map(|i| Unit::new(UnitKey::cell("M1", i as u32, 0), i)).collect()
    }

    #[test]
    fn output_order_matches_input_order() {
        for threads in [1, 2, 8] {
            let cfg = ExecConfig::new(threads, 1);
            let report = execute(&cfg, keys(37), |_, &i| i * 2);
            let values = report.into_results();
            assert_eq!(values, (0..37).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn unit_seeds_are_thread_invariant_and_key_derived() {
        let cfg1 = ExecConfig::new(1, 9);
        let cfg8 = ExecConfig::new(8, 9);
        let seeds = |cfg: &ExecConfig| execute(cfg, keys(20), |ctx, _| ctx.seed).into_results();
        let serial = seeds(&cfg1);
        assert_eq!(serial, seeds(&cfg8), "seeds must not depend on thread count");
        assert_eq!(serial.len(), 20);
        let distinct: std::collections::HashSet<u64> = serial.iter().copied().collect();
        assert_eq!(distinct.len(), 20, "every unit key gets its own seed");
    }

    #[test]
    fn seed_depends_on_campaign_seed_and_every_key_field() {
        let base = derive_unit_seed(1, &UnitKey::cell("M1", 5, 2));
        assert_ne!(base, derive_unit_seed(2, &UnitKey::cell("M1", 5, 2)));
        assert_ne!(base, derive_unit_seed(1, &UnitKey::cell("M2", 5, 2)));
        assert_ne!(base, derive_unit_seed(1, &UnitKey::cell("M1", 6, 2)));
        assert_ne!(base, derive_unit_seed(1, &UnitKey::cell("M1", 5, 3)));
    }

    #[test]
    fn panicking_units_are_reported_not_fatal() {
        let cfg = ExecConfig::new(4, 0);
        let report = execute(&cfg, keys(10), |_, &i| {
            assert!(i != 3 && i != 7, "unit {i} exploded");
            i
        });
        assert_eq!(report.progress.units_done, 10);
        assert_eq!(report.progress.units_panicked, 2);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.is_panicked(), i == 3 || i == 7, "unit {i}");
        }
    }

    #[test]
    fn progress_counters_accumulate() {
        let cfg = ExecConfig::new(2, 0);
        let report = execute(&cfg, keys(6), |ctx, &i| {
            ctx.record_flips(10);
            ctx.record_sim_time_ns(1_000.0);
            ctx.record_sim_energy_j(2e-9);
            i
        });
        assert_eq!(report.progress.units_total, 6);
        assert_eq!(report.progress.flips_found, 60);
        assert!((report.progress.sim_time_ns - 6_000.0).abs() < 1.0);
        assert!((report.progress.sim_energy_j - 12e-9).abs() < 1e-12);
    }

    #[test]
    fn observer_sees_each_unit_start_and_finish_with_its_own_deltas() {
        use crate::obs::{Event, MemorySink, OutcomeKind};
        let cfg = ExecConfig::new(2, 7);
        let sink = MemorySink::new();
        let progress = Progress::new();
        execute_run(&cfg, keys(5), &progress, None, &sink, |ctx, &i| {
            ctx.record_flips(i as u64);
            ctx.record_sim_time_ns(100.0 * i as f64);
            ctx.record_sim_energy_j(1e-9 * i as f64);
            assert!(i != 3, "unit 3 exploded");
            i
        });
        let events = sink.events();
        let started = events.iter().filter(|e| matches!(e, Event::UnitStarted { .. })).count();
        assert_eq!(started, 5);
        let mut finished = 0;
        for event in &events {
            let Event::UnitFinished { key, outcome, sim_time_ns, sim_energy_j, bitflips, .. } =
                event
            else {
                continue;
            };
            finished += 1;
            let i = u64::from(key.row);
            // Per-unit deltas, not campaign-wide sums.
            assert_eq!(*bitflips, i, "unit {i}");
            assert!((sim_time_ns - 100.0 * i as f64).abs() < 1e-9);
            assert!((sim_energy_j - 1e-9 * i as f64).abs() < 1e-18);
            assert_eq!(matches!(outcome, OutcomeKind::Panicked(_)), i == 3);
        }
        assert_eq!(finished, 5);
    }

    #[test]
    fn empty_unit_list_is_fine() {
        let cfg = ExecConfig::new(4, 0);
        let report = execute(&cfg, Vec::<Unit<u32>>::new(), |_, &v| v);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.progress.units_total, 0);
    }

    #[test]
    fn more_threads_than_units_is_fine() {
        let cfg = ExecConfig::new(64, 0);
        let values = execute(&cfg, keys(3), |_, &i| i).into_results();
        assert_eq!(values, vec![0, 1, 2]);
    }

    #[test]
    fn cancelled_run_skips_unstarted_units() {
        let cfg = ExecConfig::new(1, 0);
        let cancel = AtomicBool::new(false);
        let progress = Progress::new();
        let report =
            execute_run(&cfg, keys(10), &progress, Some(&cancel), &NullObserver, |_, &i| {
                if i == 2 {
                    cancel.store(true, Ordering::SeqCst);
                }
                i
            });
        let done = report.outcomes.iter().filter(|o| !o.is_skipped()).count();
        assert_eq!(done, 3, "serial run stops right after the flag flips");
        assert!(report.outcomes[3..].iter().all(UnitOutcome::is_skipped));
        assert_eq!(report.progress.units_done, 3);
        assert_eq!(report.progress.units_total, 10);
    }

    #[test]
    fn unset_cancel_flag_changes_nothing() {
        let cfg = ExecConfig::new(4, 1);
        let cancel = AtomicBool::new(false);
        let progress = Progress::new();
        let report =
            execute_run(&cfg, keys(12), &progress, Some(&cancel), &NullObserver, |_, &i| i * 3);
        assert_eq!(report.into_results(), (0..12).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "campaign unit skipped")]
    fn into_results_reraises_skips() {
        let cfg = ExecConfig::new(1, 0);
        let cancel = AtomicBool::new(true);
        let progress = Progress::new();
        let report = execute_run(&cfg, keys(2), &progress, Some(&cancel), &NullObserver, |_, &i| i);
        let _ = report.into_results();
    }

    #[test]
    #[should_panic(expected = "campaign unit panicked")]
    fn into_results_reraises_unit_panics() {
        let cfg = ExecConfig::new(1, 0);
        let report = execute(&cfg, keys(2), |_, &i| {
            assert!(i != 1, "boom");
            i
        });
        let _ = report.into_results();
    }
}
