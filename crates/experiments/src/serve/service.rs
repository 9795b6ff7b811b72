//! The fleet campaign service: state directory, scheduler persistence,
//! crash-safe restart, and the bounded worker pool.
//!
//! # State directory layout
//!
//! ```text
//! <state-dir>/
//!   service.json        identity (seeds, fleet size) verified on restart
//!   sched_log.jsonl     the submission log: one SchedOp per line,
//!                       appended+flushed before any submission is acked
//!   dispatch.jsonl      job ids in dispatch order (determinism artifact)
//!   events.jsonl        the multiplexed obs stream (JobScoped-wrapped)
//!   fleet_metrics.json  aggregated dashboard over all jobs
//!   endpoint.txt        bound HTTP address (when serving HTTP)
//!   jobs/<id>/
//!     job.json          JobRecord, rewritten atomically on state change
//!     checkpoint/       the job's campaign journal + manifest
//!     trace.jsonl       the job's own (unwrapped) event stream
//!     artifacts/result.json
//! ```
//!
//! # Determinism
//!
//! Scheduling decisions are a pure function of `(service_seed,
//! sched_log.jsonl)`: the log records every submit/cancel/dispatch, and
//! restart replays it through [`vrd_core::scheduler::replay`]. In
//! `--script` mode every submission is enqueued before the workers
//! start, so the dispatch trace is additionally invariant in
//! `--workers` — worker threads race only for *who* runs a job, never
//! for *which* job is next (selection happens under one lock against a
//! fixed queue).
//!
//! # Restart semantics
//!
//! On boot with `--resume`, the service replays the submission log,
//! reloads every `job.json`, and sorts jobs into: terminal (left
//! alone), dispatched-but-unfinished (resumed from their own checkpoint
//! journals — **not** re-dispatched, so `dispatch.jsonl` keeps the
//! uninterrupted sequence), and queued (still in the replayed
//! scheduler). Torn tails — in the submission log or in a job's
//! checkpoint journal — are dropped, exactly like the single-campaign
//! checkpoint contract.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

use vrd_core::checkpoint::{self, Checkpoint, CheckpointError, CheckpointManifest};
use vrd_core::exec::faults::FaultPlan;
use vrd_core::obs::trace::JsonlSink;
use vrd_core::obs::{Event, Level, MultiObserver, Observer};
use vrd_core::run::RunOptions;
use vrd_core::scheduler::{FairShareScheduler, SchedOp};
use vrd_dram::fleet::{roster_fingerprint, synthetic_specs};
use vrd_dram::ModuleSpec;

use crate::serve::job::{JobKind, JobRecord, JobSpec, JobState};
use crate::sinks;
use crate::{discovery_exp, family_exp, foundational, indepth, sweep_exp};

/// Service configuration (the `vrd-exp serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// State directory root.
    pub state_dir: String,
    /// HTTP bind address, or `"none"` for script-only operation.
    pub addr: String,
    /// Synthetic fleet size (1k–10k typical).
    pub fleet_size: usize,
    /// Seed of the synthetic fleet generation.
    pub fleet_seed: u64,
    /// Seed of the fair-share scheduler's tie-breaks.
    pub service_seed: u64,
    /// Worker pool size.
    pub workers: usize,
    /// JSONL file of job specs to submit on boot (batch mode: the
    /// service exits once every job is terminal).
    pub script: Option<String>,
    /// Reopen an existing state directory.
    pub resume: bool,
    /// Fault injection: exit(3) after N checkpoint commits across all
    /// jobs.
    pub fail_after_units: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            state_dir: String::new(),
            addr: "127.0.0.1:0".to_owned(),
            fleet_size: 1_000,
            fleet_seed: 7,
            service_seed: 2025,
            workers: 2,
            script: None,
            resume: false,
            fail_after_units: None,
        }
    }
}

/// The persisted service identity, verified on restart so a state
/// directory can never be silently reused with a different fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ServiceManifest {
    format_version: u32,
    service_seed: u64,
    fleet_size: u64,
    fleet_seed: u64,
    roster_fingerprint: u64,
}

/// One row of the `fleet_metrics.json` dashboard.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Job id.
    pub id: String,
    /// Submitting tenant.
    pub tenant: String,
    /// Campaign kind.
    pub kind: String,
    /// Lifecycle state.
    pub state: String,
    /// Modules the job resolved against the fleet.
    pub modules: u64,
    /// Failure message, if failed.
    pub error: Option<String>,
}

/// State-count totals of the dashboard.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FleetTotals {
    /// Jobs ever submitted.
    pub submitted: u64,
    /// Jobs waiting for dispatch.
    pub queued: u64,
    /// Jobs on a worker.
    pub running: u64,
    /// Jobs finished successfully.
    pub done: u64,
    /// Jobs that errored.
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
}

/// The aggregated dashboard (`fleet_metrics.json`): deterministic —
/// derived only from job records, never from wall clocks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetMetrics {
    /// Dashboard schema version.
    pub format_version: u32,
    /// Scheduler seed.
    pub service_seed: u64,
    /// Fleet size.
    pub fleet_size: u64,
    /// Fleet generation seed.
    pub fleet_seed: u64,
    /// Per-job rows, sorted by id.
    pub jobs: Vec<JobMetrics>,
    /// State-count totals.
    pub totals: FleetTotals,
}

struct JobEntry {
    record: JobRecord,
    cancel: Arc<AtomicBool>,
}

struct Inner {
    sched: FairShareScheduler,
    jobs: BTreeMap<String, JobEntry>,
    /// Dispatched-before-crash, unfinished jobs to resume first (in
    /// original dispatch order). Popped front before polling the
    /// scheduler so `dispatch.jsonl` is never re-appended for them.
    resume: Vec<String>,
    sched_log: File,
    dispatch: File,
    submitted: u64,
}

/// Fan-out hub for the multiplexed event stream: the `events.jsonl`
/// file plus live SSE subscribers.
pub struct EventHub {
    file: Mutex<File>,
    subscribers: Mutex<Vec<Sender<String>>>,
}

impl EventHub {
    fn new(file: File) -> Self {
        EventHub { file: Mutex::new(file), subscribers: Mutex::new(Vec::new()) }
    }

    /// Registers a live subscriber; every subsequent event line is sent
    /// to it (history is served by `events.jsonl`, not replayed here).
    pub fn subscribe(&self, tx: Sender<String>) {
        self.subscribers.lock().unwrap_or_else(PoisonError::into_inner).push(tx);
    }

    /// Serializes and publishes one event: appended (and flushed) to
    /// `events.jsonl`, then fanned out to live subscribers; closed
    /// subscribers are dropped.
    pub fn publish(&self, event: &Event) {
        let line = serde_json::to_string(event).expect("event serializes");
        {
            let mut f = self.file.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        }
        self.subscribers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|tx| tx.send(line.clone()).is_ok());
    }
}

/// Wraps every event of one job in [`Event::JobScoped`] before handing
/// it to the service hub.
struct JobObserver<'a> {
    job: String,
    hub: &'a EventHub,
}

impl Observer for JobObserver<'_> {
    fn on_event(&self, event: &Event) {
        self.hub
            .publish(&Event::JobScoped { job: self.job.clone(), event: Box::new(event.clone()) });
    }
}

/// The running fleet service.
pub struct Service {
    cfg: ServeConfig,
    specs: Vec<ModuleSpec>,
    inner: Mutex<Inner>,
    /// Wakes idle workers; notified under `inner` changes that can give
    /// a worker something to do or let it exit: submit, job finish,
    /// cancel and shutdown.
    work: Condvar,
    events: EventHub,
    fault: Option<FaultPlan>,
    /// Set under the `inner` lock, so a worker that checked it there
    /// before waiting cannot miss the wakeup.
    shutdown: AtomicBool,
    /// Serializes dashboard rewrites: they share one temp file, and an
    /// older snapshot must never replace a newer one.
    dashboard: Mutex<()>,
}

impl Service {
    /// Boots the service: generates the fleet, creates or (with
    /// `resume`) recovers the state directory, and replays the
    /// submission log.
    ///
    /// # Errors
    ///
    /// Returns a message on identity mismatch, a corrupted submission
    /// log, or I/O failure.
    pub fn boot(cfg: ServeConfig) -> Result<Self, String> {
        let root = PathBuf::from(&cfg.state_dir);
        fs::create_dir_all(root.join("jobs")).map_err(|e| format!("create state dir: {e}"))?;
        let specs = synthetic_specs(cfg.fleet_size, cfg.fleet_seed);
        let manifest = ServiceManifest {
            format_version: 1,
            service_seed: cfg.service_seed,
            fleet_size: cfg.fleet_size as u64,
            fleet_seed: cfg.fleet_seed,
            roster_fingerprint: roster_fingerprint(&specs),
        };
        let manifest_path = root.join("service.json");
        if manifest_path.exists() {
            if !cfg.resume {
                return Err(format!(
                    "state dir {} already holds a service; pass --resume to reopen it",
                    root.display()
                ));
            }
            let text = fs::read_to_string(&manifest_path).map_err(|e| e.to_string())?;
            let existing: ServiceManifest =
                serde_json::from_str(&text).map_err(|e| format!("service.json: {e}"))?;
            if existing != manifest {
                return Err(format!(
                    "service.json mismatch: state dir was created with seed {}/fleet {}x{}, \
                     asked to reopen with seed {}/fleet {}x{}",
                    existing.service_seed,
                    existing.fleet_size,
                    existing.fleet_seed,
                    manifest.service_seed,
                    manifest.fleet_size,
                    manifest.fleet_seed,
                ));
            }
        } else {
            let json = serde_json::to_string_pretty(&manifest).expect("manifest serializes");
            fs::write(&manifest_path, json).map_err(|e| e.to_string())?;
        }

        let (ops, torn_tail) = read_sched_log(&root.join("sched_log.jsonl"))?;
        if torn_tail {
            // Same contract as the checkpoint journal: drop the torn
            // line for good, so later appends never land behind it.
            let recovered: String = ops
                .iter()
                .map(|op| serde_json::to_string(op).expect("op serializes") + "\n")
                .collect();
            let tmp = root.join("sched_log.jsonl.tmp");
            fs::write(&tmp, recovered).map_err(|e| e.to_string())?;
            fs::rename(&tmp, root.join("sched_log.jsonl")).map_err(|e| e.to_string())?;
        }
        let submitted = ops.iter().filter(|op| matches!(op, SchedOp::Submit { .. })).count() as u64;
        let sched = vrd_core::scheduler::replay(cfg.service_seed, &ops)
            .map_err(|e| format!("sched_log.jsonl replay: {e}"))?;

        // Every acked submission has a Submit op; those are the known
        // job ids whose records must exist.
        let submitted_ids: Vec<&String> = ops
            .iter()
            .filter_map(|op| match op {
                SchedOp::Submit { job, .. } => Some(job),
                _ => None,
            })
            .collect();
        let mut jobs = BTreeMap::new();
        for id in &submitted_ids {
            let path = root.join("jobs").join(id.as_str()).join("job.json");
            let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let record: JobRecord =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            jobs.insert(
                (*id).clone(),
                JobEntry { record, cancel: Arc::new(AtomicBool::new(false)) },
            );
        }
        // A job dir whose id the log never saw is an unacked submission
        // (crash between job.json and the log append): drop it.
        if let Ok(entries) = fs::read_dir(root.join("jobs")) {
            for entry in entries.flatten() {
                let id = entry.file_name().to_string_lossy().into_owned();
                if !jobs.contains_key(&id) {
                    let _ = fs::remove_dir_all(entry.path());
                }
            }
        }
        // Dispatched but unfinished jobs resume; a queued record that
        // left the queue without dispatching was cancelled mid-crash.
        let queued_ids: Vec<String> = sched.queued().into_iter().map(|q| q.job).collect();
        let mut resume = Vec::new();
        for id in sched.dispatch_trace() {
            let entry = jobs.get_mut(id).expect("dispatched job has a record");
            if !entry.record.state.is_terminal() {
                entry.record.state = JobState::Running;
                resume.push(id.clone());
            }
        }
        for (id, entry) in &mut jobs {
            let queued_now = queued_ids.iter().any(|q| q == id);
            if entry.record.state == JobState::Queued && !queued_now && !resume.contains(id) {
                entry.record.state = JobState::Cancelled;
                let record = entry.record.clone();
                write_json_atomic(&root.join("jobs").join(id).join("job.json"), &record)?;
            }
        }

        let append = |name: &str| -> Result<File, String> {
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(root.join(name))
                .map_err(|e| format!("{name}: {e}"))
        };
        let sched_log = append("sched_log.jsonl")?;
        let dispatch = append("dispatch.jsonl")?;
        let events = EventHub::new(append("events.jsonl")?);

        let fault = cfg.fail_after_units.map(|n| {
            FaultPlan::exit_after(n, 3).announce_with(|done| {
                sinks::error(format!("simulated service crash after {done} committed units"));
            })
        });

        let service = Service {
            cfg,
            specs,
            inner: Mutex::new(Inner { sched, jobs, resume, sched_log, dispatch, submitted }),
            work: Condvar::new(),
            events,
            fault,
            shutdown: AtomicBool::new(false),
            dashboard: Mutex::new(()),
        };
        service.write_fleet_metrics();
        Ok(service)
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The synthetic fleet roster.
    pub fn fleet(&self) -> &[ModuleSpec] {
        &self.specs
    }

    /// The live event hub (SSE subscriptions).
    pub fn events(&self) -> &EventHub {
        &self.events
    }

    /// Whether shutdown was requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a graceful shutdown: running jobs finish, queued jobs
    /// stay queued (they resume on the next boot).
    pub fn request_shutdown(&self) {
        let _inner = self.lock_inner();
        self.shutdown.store(true, Ordering::SeqCst);
        self.work.notify_all();
    }

    /// Locks the service state. Like every lock in the service it
    /// ignores poisoning: a panicking job is caught outside the lock,
    /// and the service keeps serving.
    fn lock_inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn root(&self) -> PathBuf {
        PathBuf::from(&self.cfg.state_dir)
    }

    fn job_dir(&self, id: &str) -> PathBuf {
        self.root().join("jobs").join(id)
    }

    /// Submits one job: persists the record, appends the submission to
    /// the log (flushed before acking), and enqueues it.
    ///
    /// # Errors
    ///
    /// Returns a message on validation failure or after shutdown.
    pub fn submit(&self, spec: JobSpec) -> Result<String, String> {
        spec.validate()?;
        if self.is_shutdown() {
            return Err("service is shutting down".into());
        }
        if spec.select_specs(&self.specs).is_empty() {
            return Err("job scope matches no fleet module".into());
        }
        let mut inner = self.lock_inner();
        let id = format!("job-{:05}", inner.submitted);
        let record =
            JobRecord { id: id.clone(), spec: spec.clone(), state: JobState::Queued, error: None };
        let dir = self.job_dir(&id);
        fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        write_json_atomic(&dir.join("job.json"), &record)?;
        let op = SchedOp::Submit {
            job: id.clone(),
            tenant: spec.tenant.clone(),
            priority: spec.priority,
        };
        // Log first: a failed append leaves the scheduler and the id
        // sequence untouched, so the next submit reuses the id cleanly.
        append_op(&mut inner.sched_log, &op)?;
        inner
            .sched
            .submit(&id, &spec.tenant, spec.priority)
            .expect("the scheduler has seen exactly the logged ids, and this one is new");
        inner.submitted += 1;
        inner
            .jobs
            .insert(id.clone(), JobEntry { record, cancel: Arc::new(AtomicBool::new(false)) });
        drop(inner);
        self.work.notify_all();
        self.events.publish(&Event::Message {
            level: Level::Info,
            body: format!("job {id} submitted ({} by {})", spec.kind.as_str(), spec.tenant),
        });
        Ok(id)
    }

    /// Cancels a job: queued jobs leave the queue (logged), running
    /// jobs get their cancellation flag flipped and report through the
    /// worker.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown ids and already-terminal jobs.
    pub fn cancel(&self, id: &str) -> Result<(), String> {
        let mut inner = self.lock_inner();
        let state = match inner.jobs.get(id) {
            Some(entry) => entry.record.state,
            None => return Err(format!("unknown job {id:?}")),
        };
        match state {
            JobState::Queued => {
                // Log first: a failed append leaves the job queued.
                append_op(&mut inner.sched_log, &SchedOp::Cancel { job: id.to_owned() })?;
                inner.sched.cancel(id).expect("a Queued record is in the scheduler's queue");
                let entry = inner.jobs.get_mut(id).expect("checked above");
                entry.record.state = JobState::Cancelled;
                let record = entry.record.clone();
                write_json_atomic(&self.job_dir(id).join("job.json"), &record)?;
                drop(inner);
                self.work.notify_all();
                self.write_fleet_metrics();
                Ok(())
            }
            JobState::Running => {
                inner.jobs.get(id).expect("checked above").cancel.store(true, Ordering::SeqCst);
                Ok(())
            }
            terminal => Err(format!("job {id:?} is already {}", terminal.as_str())),
        }
    }

    /// All job records, sorted by id.
    pub fn records(&self) -> Vec<JobRecord> {
        self.lock_inner().jobs.values().map(|e| e.record.clone()).collect()
    }

    /// One job's record.
    pub fn record(&self, id: &str) -> Option<JobRecord> {
        self.lock_inner().jobs.get(id).map(|e| e.record.clone())
    }

    /// The aggregated dashboard, computed fresh.
    pub fn fleet_metrics(&self) -> FleetMetrics {
        let inner = self.lock_inner();
        let mut totals = FleetTotals { submitted: inner.submitted, ..FleetTotals::default() };
        let jobs: Vec<JobMetrics> = inner
            .jobs
            .values()
            .map(|e| {
                match e.record.state {
                    JobState::Queued => totals.queued += 1,
                    JobState::Running => totals.running += 1,
                    JobState::Done => totals.done += 1,
                    JobState::Failed => totals.failed += 1,
                    JobState::Cancelled => totals.cancelled += 1,
                }
                JobMetrics {
                    id: e.record.id.clone(),
                    tenant: e.record.spec.tenant.clone(),
                    kind: e.record.spec.kind.as_str().to_owned(),
                    state: e.record.state.as_str().to_owned(),
                    modules: e.record.spec.select_specs(&self.specs).len() as u64,
                    error: e.record.error.clone(),
                }
            })
            .collect();
        FleetMetrics {
            format_version: 1,
            service_seed: self.cfg.service_seed,
            fleet_size: self.cfg.fleet_size as u64,
            fleet_seed: self.cfg.fleet_seed,
            jobs,
            totals,
        }
    }

    /// Rewrites `fleet_metrics.json` atomically (write-then-rename, like
    /// `job.json`), reporting a failed write as an error message.
    pub fn write_fleet_metrics(&self) {
        let _serial = self.dashboard.lock().unwrap_or_else(PoisonError::into_inner);
        let path = self.root().join("fleet_metrics.json");
        if let Err(e) = write_json_atomic(&path, &self.fleet_metrics()) {
            sinks::error(format!("write {}: {e}", path.display()));
        }
    }

    /// Takes the next unit of work: a resumed job first, else the
    /// scheduler's pick (its `Poll` logged before the pop, its id
    /// appended to `dispatch.jsonl` after, both before the lock drops).
    /// Returns `None` once shutdown was requested, so queued jobs stay
    /// queued for the next boot. A failed `Poll` append pops nothing:
    /// it reports the error and shuts the service down, leaving the
    /// queue to the next boot. A failed `dispatch.jsonl` line comes
    /// after the logged `Poll`, so that job has left the queue (a
    /// replay agrees) and ends `Failed` with the write error.
    fn take_task(&self) -> Option<(JobRecord, Arc<AtomicBool>, bool)> {
        let mut inner = self.lock_inner();
        if self.is_shutdown() {
            return None;
        }
        if !inner.resume.is_empty() {
            let id = inner.resume.remove(0);
            let entry = inner.jobs.get(&id).expect("resumed job has a record");
            let (record, cancel) = (entry.record.clone(), Arc::clone(&entry.cancel));
            let _ = write_json_atomic(&self.job_dir(&id).join("job.json"), &record);
            return Some((record, cancel, true));
        }
        if inner.sched.pending() == 0 {
            return None;
        }
        if let Err(e) = append_op(&mut inner.sched_log, &SchedOp::Poll) {
            drop(inner);
            self.events.publish(&Event::Message {
                level: Level::Error,
                body: format!("dispatch stopped: sched_log.jsonl: {e}; shutting down"),
            });
            self.request_shutdown();
            return None;
        }
        let queued = inner.sched.next().expect("pending jobs were checked above");
        let written = writeln!(inner.dispatch, "{}", queued.job)
            .and_then(|()| inner.dispatch.flush())
            .map_err(|e| format!("dispatch.jsonl: {e}"));
        if let Err(e) = written {
            let error = Some(format!("dispatch failed: {e}"));
            self.settle(inner, &queued.job, JobState::Failed, error, false);
            return None;
        }
        let entry = inner.jobs.get_mut(&queued.job).expect("queued job has a record");
        entry.record.state = JobState::Running;
        let (record, cancel) = (entry.record.clone(), Arc::clone(&entry.cancel));
        let _ = write_json_atomic(&self.job_dir(&queued.job).join("job.json"), &record);
        Some((record, cancel, false))
    }

    /// One worker thread: pull jobs until drained (script mode) or
    /// shutdown. An idle worker blocks on the `work` condvar; it checks
    /// for work, drain and shutdown under the same lock that every
    /// notifier changes them under, so no wakeup is lost.
    pub fn worker_loop(&self) {
        loop {
            if let Some((record, cancel, resumed)) = self.take_task() {
                self.run_job(record, &cancel, resumed);
                continue;
            }
            let inner = self.lock_inner();
            let idle = inner.sched.pending() == 0 && inner.resume.is_empty();
            let running = inner.jobs.values().any(|e| e.record.state == JobState::Running);
            if self.is_shutdown() || (self.cfg.script.is_some() && idle && !running) {
                break;
            }
            if idle {
                drop(self.work.wait(inner).unwrap_or_else(PoisonError::into_inner));
            }
        }
    }

    /// Runs one job end to end under its own harness: per-job trace
    /// sink + multiplexed hub observer, per-job checkpoint journal,
    /// per-job cancel flag, service-wide fault plan.
    fn run_job(&self, record: JobRecord, cancel: &Arc<AtomicBool>, resumed: bool) {
        let dir = self.job_dir(&record.id);
        // A job that panics (a campaign re-raises its units' panics)
        // fails alone; its worker goes on serving.
        let outcome = catch_unwind(AssertUnwindSafe(|| self.execute(&record, cancel, &dir)));
        let (state, error) = match outcome {
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .unwrap_or_default();
                (JobState::Failed, Some(format!("job panicked: {message}")))
            }
            Ok(Ok(json)) => {
                let artifacts = dir.join("artifacts");
                let write = fs::create_dir_all(&artifacts)
                    .and_then(|()| fs::write(artifacts.join("result.json"), json));
                match write {
                    Ok(()) => (JobState::Done, None),
                    Err(e) => (JobState::Failed, Some(format!("write result: {e}"))),
                }
            }
            Ok(Err(CheckpointError::Interrupted { .. })) if cancel.load(Ordering::SeqCst) => {
                (JobState::Cancelled, None)
            }
            Ok(Err(e)) => (JobState::Failed, Some(e.to_string())),
        };
        self.settle(self.lock_inner(), &record.id, state, error, resumed);
    }

    /// Ends job `id` in a terminal `state`: records it (and `error`)
    /// under the held `inner` lock and in `job.json`, then wakes idle
    /// workers, publishes a `Message` event and rewrites the dashboard.
    fn settle(
        &self,
        mut inner: MutexGuard<'_, Inner>,
        id: &str,
        state: JobState,
        error: Option<String>,
        resumed: bool,
    ) {
        let entry = inner.jobs.get_mut(id).expect("settled job has a record");
        entry.record.state = state;
        entry.record.error = error.clone();
        let record = entry.record.clone();
        let _ = write_json_atomic(&self.job_dir(id).join("job.json"), &record);
        drop(inner);
        self.work.notify_all();
        self.events.publish(&Event::Message {
            level: if state == JobState::Failed { Level::Error } else { Level::Info },
            body: match &error {
                Some(e) => format!("job {id} {}: {e}", state.as_str()),
                None => format!(
                    "job {id} {}{}",
                    state.as_str(),
                    if resumed { " (resumed)" } else { "" }
                ),
            },
        });
        self.write_fleet_metrics();
    }

    /// The campaign dispatch: returns the pretty-printed result JSON.
    fn execute(
        &self,
        record: &JobRecord,
        cancel: &AtomicBool,
        dir: &Path,
    ) -> Result<String, CheckpointError> {
        let opts = record.spec.to_options();
        let specs = record.spec.select_specs(&self.specs);
        let trace_file = File::create(dir.join("trace.jsonl"))?;
        let trace = JsonlSink::new(trace_file);
        let scoped = JobObserver { job: record.id.clone(), hub: &self.events };
        let fanout = MultiObserver::new(vec![&trace as &dyn Observer, &scoped]);
        let mut run_opts = RunOptions::new(opts.exec_config()).observer(&fanout).cancel(cancel);
        let ckpt = match record.spec.kind.campaign_label() {
            Some(label) => {
                let config_hash = match record.spec.kind {
                    JobKind::Foundational => checkpoint::config_hash(&foundational::config(&opts)),
                    JobKind::InDepth | JobKind::MemsimSweep => {
                        checkpoint::config_hash(&indepth::config(&opts))
                    }
                    JobKind::Discovery => checkpoint::config_hash(&opts.discovery_config()),
                    JobKind::Family => unreachable!("family has no campaign label"),
                };
                let manifest = CheckpointManifest {
                    format_version: checkpoint::FORMAT_VERSION,
                    campaign: label.to_owned(),
                    config_hash,
                    campaign_seed: opts.seed,
                    shard_index: 0,
                    shard_count: 1,
                    roster_fingerprint: roster_fingerprint(&specs),
                };
                Some(Checkpoint::open(dir.join("checkpoint"), manifest)?)
            }
            None => None,
        };
        if let Some(ckpt) = &ckpt {
            run_opts = run_opts.checkpoint(ckpt);
        }
        if let Some(plan) = &self.fault {
            run_opts = run_opts.hooks(plan);
        }
        fn pretty<T: Serialize>(study: &T) -> String {
            serde_json::to_string_pretty(study).expect("study serializes")
        }
        match record.spec.kind {
            JobKind::Foundational => {
                let study = foundational::run_with(&opts, &specs, &run_opts)?;
                Ok(pretty(&study))
            }
            JobKind::InDepth => {
                let study = indepth::run_with(&opts, &specs, &run_opts)?;
                Ok(pretty(&study))
            }
            JobKind::Discovery => {
                let study = discovery_exp::run_with(&opts, &specs, &run_opts)?;
                Ok(pretty(&study))
            }
            JobKind::MemsimSweep => {
                let study = indepth::run_with(&opts, &specs, &run_opts)?;
                let sweep = sweep_exp::run_with(&opts, &specs, &study);
                Ok(pretty(&sweep))
            }
            JobKind::Family => {
                let study = family_exp::run_with(&opts, specs.clone());
                Ok(pretty(&study))
            }
        }
    }

    /// Submits the tail of a `--script` file, skipping entries already
    /// logged (crash-restart picks up where the log stopped).
    ///
    /// # Errors
    ///
    /// Returns a message on unreadable or unparseable script lines.
    pub fn submit_script(&self, path: &str) -> Result<usize, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let already = self.lock_inner().submitted as usize;
        let mut submitted = 0usize;
        for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
            if i < already {
                continue;
            }
            let spec: JobSpec =
                serde_json::from_str(line).map_err(|e| format!("{path} line {}: {e}", i + 1))?;
            self.submit(spec).map_err(|e| format!("{path} line {}: {e}", i + 1))?;
            submitted += 1;
        }
        Ok(submitted)
    }
}

/// Parses the submission log, dropping a torn trailing line (the same
/// crash-tolerance contract as the checkpoint journal); a malformed
/// line *before* the tail is corruption and rejected. The second
/// return is whether a torn tail was dropped (the caller rewrites the
/// file so future appends never land behind the garbage).
fn read_sched_log(path: &Path) -> Result<(Vec<SchedOp>, bool), String> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut ops = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match serde_json::from_str::<SchedOp>(line) {
            Ok(op) => ops.push(op),
            Err(_) if i + 1 == lines.len() => return Ok((ops, true)), // torn tail
            Err(e) => {
                return Err(format!("{} line {}: {e}", path.display(), i + 1));
            }
        }
    }
    Ok((ops, false))
}

/// Appends one op as a JSON line, flushed before returning — the ack
/// ordering the determinism contract needs.
fn append_op(log: &mut File, op: &SchedOp) -> Result<(), String> {
    let line = serde_json::to_string(op).expect("op serializes");
    writeln!(log, "{line}").map_err(|e| e.to_string())?;
    log.flush().map_err(|e| e.to_string())
}

/// Atomic JSON rewrite: write `<path>.tmp`, then rename over `path`.
fn write_json_atomic<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).expect("value serializes");
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, json).map_err(|e| e.to_string())?;
    fs::rename(&tmp, path).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vrd-serve-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_config(dir: &Path) -> ServeConfig {
        ServeConfig {
            state_dir: dir.to_string_lossy().into_owned(),
            addr: "none".into(),
            fleet_size: 30,
            workers: 1,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn boot_submit_run_and_metrics() {
        let dir = scratch("basic");
        let svc = Service::boot(tiny_config(&dir)).unwrap();
        let mut spec = JobSpec::new("alice", JobKind::Family);
        spec.limit = 1;
        let id = svc.submit(spec).unwrap();
        assert_eq!(id, "job-00000");
        assert_eq!(svc.record(&id).unwrap().state, JobState::Queued);
        // Drain manually (no worker threads in this unit test).
        let (record, cancel, resumed) = svc.take_task().unwrap();
        assert!(!resumed);
        svc.run_job(record, &cancel, resumed);
        assert_eq!(svc.record(&id).unwrap().state, JobState::Done);
        assert!(dir.join("jobs").join(&id).join("artifacts/result.json").exists());
        let metrics = svc.fleet_metrics();
        assert_eq!(metrics.totals.done, 1);
        assert_eq!(metrics.jobs.len(), 1);
        assert_eq!(metrics.jobs[0].state, "done");
        // The dispatch artifact holds exactly this job.
        let dispatch = fs::read_to_string(dir.join("dispatch.jsonl")).unwrap();
        assert_eq!(dispatch.trim(), id);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_requires_resume_and_verifies_identity() {
        let dir = scratch("identity");
        drop(Service::boot(tiny_config(&dir)).unwrap());
        let err = Service::boot(tiny_config(&dir)).err().expect("boot must refuse");
        assert!(err.contains("--resume"), "{err}");
        let mut resumed = tiny_config(&dir);
        resumed.resume = true;
        assert!(Service::boot(resumed).is_ok());
        let mut wrong = tiny_config(&dir);
        wrong.resume = true;
        wrong.fleet_size = 31;
        let err = Service::boot(wrong).err().expect("identity mismatch must refuse");
        assert!(err.contains("mismatch"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn queued_jobs_survive_restart_without_duplication() {
        let dir = scratch("requeue");
        {
            let svc = Service::boot(tiny_config(&dir)).unwrap();
            svc.submit(JobSpec::new("alice", JobKind::Family)).unwrap();
            svc.submit(JobSpec::new("bob", JobKind::Family)).unwrap();
            svc.cancel("job-00001").unwrap();
        }
        let mut cfg = tiny_config(&dir);
        cfg.resume = true;
        let svc = Service::boot(cfg).unwrap();
        let records = svc.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].state, JobState::Queued);
        assert_eq!(records[1].state, JobState::Cancelled);
        // The next submission continues the id sequence.
        let id = svc.submit(JobSpec::new("carol", JobKind::Family)).unwrap();
        assert_eq!(id, "job-00002");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_sched_log_tail_is_dropped() {
        let dir = scratch("torn");
        {
            let svc = Service::boot(tiny_config(&dir)).unwrap();
            svc.submit(JobSpec::new("alice", JobKind::Family)).unwrap();
        }
        // Simulate a crash mid-append: a half-written op line.
        let mut log = OpenOptions::new().append(true).open(dir.join("sched_log.jsonl")).unwrap();
        write!(log, "{{\"Submit\":{{\"job\":\"job-0").unwrap();
        drop(log);
        let mut cfg = tiny_config(&dir);
        cfg.resume = true;
        let svc = Service::boot(cfg).unwrap();
        assert_eq!(svc.records().len(), 1);
        // The torn line is truncated away, not left for later appends
        // to land behind.
        let log = fs::read_to_string(dir.join("sched_log.jsonl")).unwrap();
        assert!(
            log.lines().all(|l| serde_json::from_str::<SchedOp>(l).is_ok()),
            "every surviving line must parse after recovery: {log:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_rejects_empty_scope_and_duplicate_free_ids() {
        let dir = scratch("reject");
        let svc = Service::boot(tiny_config(&dir)).unwrap();
        let mut spec = JobSpec::new("alice", JobKind::Family);
        spec.modules = vec!["not-a-module".into()];
        assert!(svc.submit(spec).is_err());
        let a = svc.submit(JobSpec::new("alice", JobKind::Family)).unwrap();
        let b = svc.submit(JobSpec::new("alice", JobKind::Family)).unwrap();
        assert_ne!(a, b);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dashboard_is_rewritten_whole_and_survives_a_failed_write() {
        let dir = scratch("dashboard");
        let svc = Service::boot(tiny_config(&dir)).unwrap();
        svc.submit(JobSpec::new("alice", JobKind::Family)).unwrap();
        svc.write_fleet_metrics();
        let path = dir.join("fleet_metrics.json");
        let text = fs::read_to_string(&path).unwrap();
        let parsed: FleetMetrics = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed.totals.queued, 1);
        assert!(!dir.join("fleet_metrics.json.tmp").exists(), "temp file renamed away");
        // A dashboard path that cannot be replaced is reported, not fatal.
        fs::remove_file(&path).unwrap();
        fs::create_dir(&path).unwrap();
        svc.write_fleet_metrics();
        assert!(path.is_dir());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Blocks until the hub publishes a line containing `needle`.
    fn await_event(rx: &std::sync::mpsc::Receiver<String>, needle: &str) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            let line = rx.recv_timeout(left).unwrap_or_else(|e| panic!("no {needle:?}: {e}"));
            if line.contains(needle) {
                return;
            }
        }
    }

    #[test]
    fn idle_daemon_worker_wakes_on_submit_and_returns_on_shutdown() {
        let dir = scratch("idle");
        let svc = Arc::new(Service::boot(tiny_config(&dir)).unwrap());
        let (events, rx) = std::sync::mpsc::channel();
        svc.events().subscribe(events);
        let (exited, worker_done) = std::sync::mpsc::channel();
        // Not scoped: a worker that misses a wakeup must fail the test,
        // not hang it in the scope's join.
        let worker = Arc::clone(&svc);
        std::thread::spawn(move || {
            worker.worker_loop();
            let _ = exited.send(());
        });
        // Each pause lets the worker block on the condvar before the
        // next submit or the shutdown, so a lost wakeup fails the test.
        // Passing never depends on the pause; only catching one does.
        let pause = || std::thread::sleep(std::time::Duration::from_millis(100));
        for expected in ["job-00000 done", "job-00001 done"] {
            pause();
            svc.submit(JobSpec::new("alice", JobKind::Family)).unwrap();
            await_event(&rx, expected);
        }
        pause();
        assert!(worker_done.try_recv().is_err(), "a daemon worker idles, it does not exit");
        svc.request_shutdown();
        worker_done
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("an idle worker returns promptly after shutdown");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_job_fails_alone_and_the_worker_keeps_serving() {
        let dir = scratch("panic");
        let mut cfg = tiny_config(&dir);
        cfg.script = Some(String::new());
        let mut svc = Service::boot(cfg).unwrap();
        let (doomed, healthy) = (svc.fleet()[0].name.clone(), svc.fleet()[1].name.clone());
        svc.fault = Some(FaultPlan::none().panic_on(vrd_core::exec::UnitKey::module(&doomed)));
        for module in [doomed, healthy] {
            let mut spec = JobSpec::new("alice", JobKind::Foundational);
            spec.modules = vec![module];
            spec.measurements = 4;
            svc.submit(spec).unwrap();
        }
        svc.worker_loop();
        let records = svc.records();
        assert_eq!(records[0].state, JobState::Failed);
        let error = records[0].error.as_deref().unwrap_or_default();
        assert!(
            error.starts_with("job panicked: ") && error.contains("fault injection"),
            "{error}"
        );
        assert_eq!(records[1].state, JobState::Done, "the next job still runs");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_dispatch_write_fails_the_job_instead_of_stranding_it() {
        let dir = scratch("dispatch-fail");
        let mut cfg = tiny_config(&dir);
        cfg.script = Some(String::new());
        let svc = Service::boot(cfg).unwrap();
        let (events, rx) = std::sync::mpsc::channel();
        svc.events().subscribe(events);
        for tenant in ["alice", "bob"] {
            svc.submit(JobSpec::new(tenant, JobKind::Family)).unwrap();
        }
        // A read-only handle: every dispatch line fails to write.
        svc.lock_inner().dispatch = File::open(dir.join("dispatch.jsonl")).unwrap();
        svc.worker_loop();
        for id in ["job-00000", "job-00001"] {
            let record = svc.record(id).unwrap();
            assert_eq!(record.state, JobState::Failed, "{id} left the queue, so it must fail");
            let error = record.error.unwrap_or_default();
            assert!(error.starts_with("dispatch failed: dispatch.jsonl: "), "{error}");
            let text = fs::read_to_string(dir.join("jobs").join(id).join("job.json")).unwrap();
            let on_disk: JobRecord = serde_json::from_str(&text).unwrap();
            assert_eq!((on_disk.state, on_disk.error), (JobState::Failed, Some(error)));
        }
        let text = fs::read_to_string(dir.join("fleet_metrics.json")).unwrap();
        let dashboard: FleetMetrics = serde_json::from_str(&text).unwrap();
        assert_eq!((dashboard.totals.failed, dashboard.totals.queued), (2, 0));
        let messages: Vec<String> = rx.try_iter().collect();
        for id in ["job-00000", "job-00001"] {
            let needle = format!("job {id} failed: dispatch failed");
            assert!(messages.iter().any(|m| m.contains(&needle)), "{needle} in {messages:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A read-only handle on `sched_log.jsonl`: every op append fails.
    fn break_sched_log(svc: &Service, dir: &Path) {
        svc.lock_inner().sched_log = File::open(dir.join("sched_log.jsonl")).unwrap();
    }

    fn mend_sched_log(svc: &Service, dir: &Path) {
        let log = OpenOptions::new().append(true).open(dir.join("sched_log.jsonl")).unwrap();
        svc.lock_inner().sched_log = log;
    }

    fn small_family(tenant: &str) -> JobSpec {
        let mut spec = JobSpec::new(tenant, JobKind::Family);
        spec.limit = 1;
        spec
    }

    #[test]
    fn a_failed_submit_append_changes_nothing_and_the_next_submit_runs() {
        let dir = scratch("submit-fail");
        let mut cfg = tiny_config(&dir);
        cfg.script = Some(String::new());
        let svc = Service::boot(cfg).unwrap();
        break_sched_log(&svc, &dir);
        assert!(svc.submit(small_family("alice")).is_err());
        assert_eq!(svc.lock_inner().sched.pending(), 0, "an unlogged job must not queue");
        mend_sched_log(&svc, &dir);
        let id = svc.submit(small_family("alice")).expect("the id was never taken");
        assert_eq!(id, "job-00000");
        svc.worker_loop();
        let states: Vec<JobState> = svc.records().iter().map(|r| r.state).collect();
        assert_eq!(states, vec![JobState::Done]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_cancel_append_keeps_the_job_queued_and_it_runs() {
        let dir = scratch("cancel-fail");
        let mut cfg = tiny_config(&dir);
        cfg.script = Some(String::new());
        let svc = Service::boot(cfg).unwrap();
        let id = svc.submit(small_family("alice")).unwrap();
        break_sched_log(&svc, &dir);
        assert!(svc.cancel(&id).is_err());
        assert_eq!(svc.record(&id).unwrap().state, JobState::Queued);
        mend_sched_log(&svc, &dir);
        svc.worker_loop();
        assert_eq!(svc.record(&id).unwrap().state, JobState::Done);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_poll_append_shuts_down_and_a_resume_runs_the_job_once() {
        let dir = scratch("poll-fail");
        let mut cfg = tiny_config(&dir);
        cfg.script = Some(String::new());
        let svc = Service::boot(cfg.clone()).unwrap();
        let (events, rx) = std::sync::mpsc::channel();
        svc.events().subscribe(events);
        let id = svc.submit(small_family("alice")).unwrap();
        break_sched_log(&svc, &dir);
        svc.worker_loop();
        assert_eq!(svc.record(&id).unwrap().state, JobState::Queued, "nothing was popped");
        assert!(svc.is_shutdown());
        assert_eq!(fs::read_to_string(dir.join("dispatch.jsonl")).unwrap(), "");
        let messages: Vec<String> = rx.try_iter().collect();
        assert!(
            messages.iter().any(|m| m.contains("dispatch stopped: sched_log.jsonl")),
            "{messages:?}"
        );
        drop(svc);

        cfg.resume = true;
        let svc = Service::boot(cfg).unwrap();
        svc.worker_loop();
        assert_eq!(svc.record(&id).unwrap().state, JobState::Done);
        let dispatch = fs::read_to_string(dir.join("dispatch.jsonl")).unwrap();
        assert_eq!(dispatch.lines().collect::<Vec<_>>(), vec![id.as_str()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_worker_dispatches_nothing_after_shutdown_and_a_resume_runs_the_queue() {
        let dir = scratch("shutdown-queued");
        let svc = Service::boot(tiny_config(&dir)).unwrap();
        for tenant in ["alice", "bob"] {
            let mut spec = JobSpec::new(tenant, JobKind::Family);
            spec.limit = 1;
            svc.submit(spec).unwrap();
        }
        svc.request_shutdown();
        // A daemon worker returns at once, leaving the queue for the next boot.
        svc.worker_loop();
        let states: Vec<JobState> = svc.records().iter().map(|r| r.state).collect();
        assert_eq!(states, vec![JobState::Queued; 2]);
        assert_eq!(fs::read_to_string(dir.join("dispatch.jsonl")).unwrap(), "");
        drop(svc);

        let mut cfg = tiny_config(&dir);
        cfg.resume = true;
        cfg.script = Some(String::new());
        let svc = Service::boot(cfg).unwrap();
        svc.worker_loop();
        let states: Vec<JobState> = svc.records().iter().map(|r| r.state).collect();
        assert_eq!(states, vec![JobState::Done; 2]);
        let dispatch = fs::read_to_string(dir.join("dispatch.jsonl")).unwrap();
        assert_eq!(dispatch.lines().count(), 2, "{dispatch}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_of_queued_job_is_logged_and_terminal() {
        let dir = scratch("cancel");
        let svc = Service::boot(tiny_config(&dir)).unwrap();
        let id = svc.submit(JobSpec::new("alice", JobKind::Family)).unwrap();
        svc.cancel(&id).unwrap();
        assert_eq!(svc.record(&id).unwrap().state, JobState::Cancelled);
        assert!(svc.cancel(&id).is_err(), "terminal jobs cannot re-cancel");
        assert!(svc.take_task().is_none(), "cancelled job must not dispatch");
        let log = fs::read_to_string(dir.join("sched_log.jsonl")).unwrap();
        assert!(log.contains("Cancel"), "{log}");
        let _ = fs::remove_dir_all(&dir);
    }
}
