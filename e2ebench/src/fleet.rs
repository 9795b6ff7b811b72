//! The `fleet` workload: one drained batch of the campaign service per
//! iteration.
//!
//! Set-up boots a fresh service on an empty state directory with a
//! 1000-module synthetic fleet and one worker, without HTTP. The
//! iteration submits a batch of small foundational, in-depth,
//! discovery and family jobs from several tenants at mixed priorities
//! and drains it through `Service::worker_loop`. Every unit is
//! checkpointed and every event is written to `events.jsonl`. Service
//! polls never fire: every job is queued before the worker starts, and
//! the worker exits as soon as the batch is drained. The seed picks the
//! job order, tenants and priorities. The fleet, the scheduler seed, the
//! job mix, the modules each job tests, each job's seed (a job's only
//! seed, which is also its device seed) and every size are fixed, so the
//! seed changes the order of the work, not the work.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use vrd_core::obs::Event;
use vrd_core::scheduler::{FairShareScheduler, Priority, SchedOp};
use vrd_dram::fleet::{roster_fingerprint, synthetic_specs};
use vrd_dram::ModuleSpec;
use vrd_experiments::discovery_exp::DiscoveryStudy;
use vrd_experiments::family_exp::FamilyStudy;
use vrd_experiments::foundational::{self, FoundationalStudy};
use vrd_experiments::indepth::InDepthStudy;
use vrd_experiments::serve::{JobKind, JobSpec, JobState, ServeConfig, Service};

use crate::characterize::mix;
use crate::counters::Digest;
use crate::replay::Replay;
use crate::stats::median;
use crate::trace::{span, Tracer};
use crate::{Outcome, Workload};

/// Synthetic fleet size.
pub const FLEET_SIZE: usize = 1_000;

/// Seed of the synthetic fleet (fixed: the seed never changes the fleet).
pub const FLEET_SEED: u64 = 7;

/// Seed of the scheduler's tie-breaks (fixed: the seed picks the
/// submission log, not the policy).
pub const SERVICE_SEED: u64 = 2025;

/// Tenants the seed assigns jobs to.
pub const TENANTS: [&str; 4] = ["alice", "bob", "carol", "dave"];

/// The fixed job mix, in generation order.
pub const MIX: [JobKind; 16] = [
    JobKind::Foundational,
    JobKind::InDepth,
    JobKind::Discovery,
    JobKind::Family,
    JobKind::Foundational,
    JobKind::InDepth,
    JobKind::Discovery,
    JobKind::Family,
    JobKind::Foundational,
    JobKind::InDepth,
    JobKind::Discovery,
    JobKind::Family,
    JobKind::Foundational,
    JobKind::InDepth,
    JobKind::Discovery,
    JobKind::Family,
];

/// Fleet modules each job tests.
pub const MODULES_PER_JOB: usize = 2;

/// How long the traced run waits for the next service event before it
/// gives up on a stalled worker.
const EVENT_TIMEOUT: Duration = Duration::from_secs(120);

/// The seeded batch: job `i` of [`MIX`] tests fleet modules
/// `2i, 2i + 1` with a fixed job seed; the benchmark seed picks its
/// tenant and priority, and the submission order.
pub fn batch(seed: u64, fleet: &[ModuleSpec]) -> Vec<JobSpec> {
    let priorities = [Priority::Low, Priority::Normal, Priority::High];
    let mut jobs: Vec<JobSpec> = MIX
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let i64 = i as u64;
            let mut spec = JobSpec::new(TENANTS[(mix(seed, 200 + i64) % 4) as usize], kind);
            spec.priority = priorities[(mix(seed, 300 + i64) % 3) as usize];
            spec.seed = mix(SERVICE_SEED, 100 + i64);
            spec.modules = fleet[i * MODULES_PER_JOB..(i + 1) * MODULES_PER_JOB]
                .iter()
                .map(|s| s.name.clone())
                .collect();
            spec.limit = MODULES_PER_JOB;
            spec
        })
        .collect();
    // Fisher–Yates with seeded draws.
    for k in (1..jobs.len()).rev() {
        let j = (mix(seed, 400 + k as u64) % (k as u64 + 1)) as usize;
        jobs.swap(k, j);
    }
    jobs
}

/// The batch as the JSONL submission script `vrd-exp serve --script`
/// reads.
pub fn script(jobs: &[JobSpec]) -> String {
    jobs.iter().map(|j| serde_json::to_string(j).expect("job spec serializes") + "\n").collect()
}

/// Lines and bytes of a file (zero when it does not exist).
fn lines_and_bytes(path: &Path) -> (u64, u64) {
    match std::fs::read_to_string(path) {
        Ok(text) => {
            (text.lines().filter(|l| !l.trim().is_empty()).count() as u64, text.len() as u64)
        }
        Err(_) => (0, 0),
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The modules a job's result names.
fn result_modules(kind: JobKind, json: &str) -> Result<Vec<String>, String> {
    let err = |e: serde_json::Error| format!("result of a {} job: {e}", kind.as_str());
    Ok(match kind {
        JobKind::Foundational => serde_json::from_str::<FoundationalStudy>(json)
            .map_err(err)?
            .per_module
            .into_iter()
            .map(|m| m.module)
            .collect(),
        JobKind::InDepth | JobKind::MemsimSweep => serde_json::from_str::<InDepthStudy>(json)
            .map_err(err)?
            .per_module
            .into_iter()
            .map(|m| m.module)
            .collect(),
        JobKind::Discovery => serde_json::from_str::<DiscoveryStudy>(json)
            .map_err(err)?
            .per_module
            .into_iter()
            .map(|m| m.module)
            .collect(),
        JobKind::Family => serde_json::from_str::<FamilyStudy>(json)
            .map_err(err)?
            .per_module
            .into_iter()
            .map(|m| m.module)
            .collect(),
    })
}

/// Host times of one drained batch; the traced run takes the worker's
/// from the live event stream.
#[derive(Debug, Default)]
struct Timeline {
    /// Duration of every `Service::submit` (µs).
    submit_us: Vec<f64>,
    /// Per job id: when its submission returned.
    submitted: BTreeMap<String, Instant>,
    /// When the worker started (traced runs only).
    worker_started: Option<Instant>,
    /// Per job id: when its terminal message arrived, in arrival order
    /// (traced runs only).
    finished: Vec<(String, Instant)>,
}

/// The job id of a terminal job message (`"job <id> done"`, ...).
fn terminal_job(line: &str) -> Option<String> {
    if !line.contains("\"Message\"") {
        return None;
    }
    let Ok(Event::Message { body, .. }) = serde_json::from_str::<Event>(line) else {
        return None;
    };
    let mut words = body.split(' ');
    let (Some("job"), Some(id), Some(state)) = (words.next(), words.next(), words.next()) else {
        return None;
    };
    ["done", "failed", "cancelled"].contains(&state).then(|| id.to_owned())
}

/// The workload.
pub struct Fleet {
    state: PathBuf,
    fleet: Vec<ModuleSpec>,
    jobs: Vec<JobSpec>,
    booted: usize,
    service: Option<(Service, PathBuf)>,
}

impl Fleet {
    /// The workload's inputs for one benchmark seed; `state` is the
    /// directory each iteration's service state goes under.
    pub fn new(seed: u64, state: PathBuf) -> Self {
        let fleet = synthetic_specs(FLEET_SIZE, FLEET_SEED);
        let jobs = batch(seed, &fleet);
        Fleet { state, fleet, jobs, booted: 0, service: None }
    }

    /// Submits the batch and drains it; in traced runs the worker runs
    /// on a second thread while this one timestamps the event stream.
    fn drain(&self, svc: &Service, traced: bool) -> Result<Timeline, String> {
        let mut timeline = Timeline::default();
        for job in &self.jobs {
            let start = Instant::now();
            let id = svc.submit(job.clone())?;
            timeline.submit_us.push(start.elapsed().as_secs_f64() * 1e6);
            timeline.submitted.insert(id, Instant::now());
        }
        if !traced {
            svc.worker_loop();
            return Ok(timeline);
        }
        let (tx, rx) = mpsc::channel();
        svc.events().subscribe(tx);
        timeline.worker_started = Some(Instant::now());
        std::thread::scope(|s| {
            let worker = s.spawn(|| svc.worker_loop());
            while timeline.finished.len() < self.jobs.len() {
                let line = rx
                    .recv_timeout(EVENT_TIMEOUT)
                    .map_err(|e| format!("no service event within {EVENT_TIMEOUT:?}: {e}"))?;
                if let Some(id) = terminal_job(&line) {
                    timeline.finished.push((id, Instant::now()));
                }
            }
            worker.join().map_err(|_| "the service worker panicked".to_owned())
        })?;
        Ok(timeline)
    }
}

impl Workload for Fleet {
    fn inputs(&self) -> String {
        script(&self.jobs)
    }

    fn setup(&mut self, tracer: Option<&Tracer>) -> Result<Outcome, String> {
        let dir = self.state.join(format!("boot-{}", self.booted));
        self.booted += 1;
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let script_path = dir.join("batch.jsonl");
        std::fs::write(&script_path, script(&self.jobs))
            .map_err(|e| format!("{}: {e}", script_path.display()))?;
        let cfg = ServeConfig {
            state_dir: dir.join("service").to_string_lossy().into_owned(),
            addr: "none".into(),
            fleet_size: FLEET_SIZE,
            fleet_seed: FLEET_SEED,
            service_seed: SERVICE_SEED,
            workers: 1,
            script: Some(script_path.to_string_lossy().into_owned()),
            resume: false,
            fail_after_units: None,
        };
        let mut out = Outcome::default();
        let start = Instant::now();
        let svc = span(tracer, "serve.boot", || Service::boot(cfg))?;
        out.wall = start.elapsed();

        out.check(svc.fleet() == self.fleet.as_slice(), || {
            "the service's fleet differs from the generated fleet".to_owned()
        });
        out.count("fleet.fingerprint", roster_fingerprint(svc.fleet()));
        if let Some(t) = tracer {
            // The fleet is generated inside `Service::boot`; its cost is
            // measured by generating it again.
            let replay = Tracer::default();
            replay.span("dram.build", || synthetic_specs(FLEET_SIZE, FLEET_SEED));
            out.layers.insert("dram.build_s", replay.busy_s("dram.build"));
            out.layers.insert("serve.boot_s", t.busy_s("serve.boot"));
        }
        self.service = Some((svc, dir));
        Ok(out)
    }

    fn iterate(&mut self, tracer: Option<&Tracer>) -> Result<Outcome, String> {
        let (svc, dir) = self.service.take().ok_or("iteration before set-up")?;
        let mut out = Outcome::default();
        let start = Instant::now();
        let drained = self.drain(&svc, tracer.is_some());
        out.wall = start.elapsed();
        let timeline = drained?;
        let root = dir.join("service");

        let records = svc.records();
        out.check(records.len() == self.jobs.len(), || {
            format!("{} of {} jobs were accepted", records.len(), self.jobs.len())
        });
        let mut digest = Digest::default();
        let mut commits = (0u64, 0u64);
        let mut replay = Replay::default();
        for record in &records {
            let job_dir = root.join("jobs").join(&record.id);
            out.check(record.state == JobState::Done, || {
                format!("job {} ended {}: {:?}", record.id, record.state.as_str(), record.error)
            });
            let result = read(&job_dir.join("artifacts").join("result.json"));
            let present = match &result {
                Ok(json) => result_modules(record.spec.kind, json)?,
                Err(_) => Vec::new(),
            };
            let selected = record.spec.select_specs(svc.fleet());
            out.check(selected.len() == MODULES_PER_JOB, || {
                format!("job {} selected {} fleet modules", record.id, selected.len())
            });
            for spec in &selected {
                out.check(present.contains(&spec.name), || {
                    format!("job {} result lacks module {}", record.id, spec.name)
                });
            }
            let (lines, bytes) = lines_and_bytes(&job_dir.join("checkpoint").join("journal.jsonl"));
            commits = (commits.0 + lines, commits.1 + bytes);
            if let Ok(json) = &result {
                digest.add(&record.id, json.as_bytes());
                if tracer.is_some() && record.spec.kind == JobKind::Foundational {
                    let opts = record.spec.to_options();
                    let study: FoundationalStudy =
                        serde_json::from_str(json).map_err(|e| e.to_string())?;
                    let r = Replay::foundational(
                        &selected,
                        &foundational::config(&opts),
                        &opts.exec_config(),
                        &study.per_module,
                    )?;
                    replay.add(&r);
                }
            }
        }
        let done = records.iter().filter(|r| r.state == JobState::Done).count() as u64;

        let events_text = read(&root.join("events.jsonl"))?;
        let mut events = 0u64;
        let mut commit_ns = Vec::new();
        let mut units = 0u64;
        let mut unit_ns = 0u64;
        let mut sim_ns = 0.0f64;
        for line in events_text.lines().filter(|l| !l.trim().is_empty()) {
            let event: Event =
                serde_json::from_str(line).map_err(|e| format!("events.jsonl: {e}"))?;
            events += 1;
            let inner = match &event {
                Event::JobScoped { event, .. } => event.as_ref(),
                other => other,
            };
            match inner {
                Event::CheckpointCommitted { latency_ns, .. } => commit_ns.push(*latency_ns as f64),
                Event::UnitFinished { wall_ns, .. } => {
                    units += 1;
                    unit_ns += wall_ns;
                }
                Event::CampaignFinished { summary, .. } => sim_ns += summary.sim_time_ns,
                _ => {}
            }
            digest.add(
                "event",
                serde_json::to_string(&event.without_wall_clock()).expect("event").as_bytes(),
            );
        }
        let sched_text = read(&root.join("sched_log.jsonl"))?;
        let ops: Vec<SchedOp> = sched_text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| serde_json::from_str(l).map_err(|e| format!("sched_log.jsonl: {e}")))
            .collect::<Result<_, _>>()?;
        let dispatch = read(&root.join("dispatch.jsonl"))?;
        let replay_start = Instant::now();
        let replayed = vrd_core::scheduler::replay(SERVICE_SEED, &ops);
        let replay_s = replay_start.elapsed().as_secs_f64();
        let trace_ok = replayed
            .as_ref()
            .is_ok_and(|s| s.dispatch_trace().iter().map(String::as_str).eq(dispatch.lines()));
        out.check(trace_ok, || "the replayed scheduler log differs from dispatch.jsonl".to_owned());
        digest.add("dispatch", dispatch.as_bytes());
        digest.add("fleet_metrics", read(&root.join("fleet_metrics.json"))?.as_bytes());

        out.count("jobs.done", done);
        out.count("checkpoint.commits", commits.0);
        out.count("checkpoint.bytes", commits.1);
        out.count("obs.events", events);
        out.count("exec.units", units);
        out.count("campaign.sim_ns", sim_ns as u64);
        out.count("scheduler.ops", ops.len() as u64);
        out.count("outputs.digest", digest.value());

        if let Some(t) = tracer {
            // Inside the drain, the layer time is the submits and the
            // units (whose wall time includes their checkpoint commits);
            // what is left is the service's own job harness, scheduler,
            // obs stream and dashboard.
            let submit_us: f64 = timeline.submit_us.iter().sum();
            t.attribute("serve.submit", Duration::from_secs_f64(submit_us / 1e6));
            t.attribute("exec.unit", Duration::from_nanos(unit_ns));
            let mut depth = 0usize;
            let mut sched = FairShareScheduler::new(SERVICE_SEED);
            for op in &ops {
                sched.apply(op).map_err(|e| e.to_string())?;
                depth = depth.max(sched.pending());
            }
            // One worker runs the jobs back to back: a job's time is the
            // gap since the previous terminal message (or the start).
            let mut last = timeline.worker_started;
            let mut job_s = Vec::new();
            let mut turnaround_s = Vec::new();
            for (id, at) in &timeline.finished {
                if let Some(prev) = last {
                    job_s.push((*at - prev).as_secs_f64());
                }
                if let Some(sub) = timeline.submitted.get(id) {
                    turnaround_s.push((*at - *sub).as_secs_f64());
                }
                last = Some(*at);
            }
            let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
            let l = &mut out.layers;
            replay.record(l);
            l.insert("serve.jobs", records.len() as f64);
            l.insert("serve.submit_p50_us", med(&timeline.submit_us));
            l.insert("serve.job_p50_s", med(&job_s));
            l.insert("serve.turnaround_p50_s", med(&turnaround_s));
            l.insert("scheduler.ops", ops.len() as f64);
            l.insert("scheduler.max_depth", depth as f64);
            l.insert("scheduler.replay_s", replay_s);
            l.insert("checkpoint.commits", commits.0 as f64);
            l.insert("checkpoint.bytes", commits.1 as f64);
            l.insert("checkpoint.commit_p50_us", med(&commit_ns) / 1e3);
            l.insert("obs.events", events as f64);
            l.insert("obs.bytes", events_text.len() as f64);
            l.insert("exec.units", units as f64);
        }
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_batches() {
        let fleet = synthetic_specs(FLEET_SIZE, FLEET_SEED);
        assert_eq!(script(&batch(11, &fleet)), script(&batch(11, &fleet)));
        assert_ne!(script(&batch(11, &fleet)), script(&batch(12, &fleet)));
    }

    #[test]
    fn the_seed_never_changes_the_work() {
        let fleet = synthetic_specs(FLEET_SIZE, FLEET_SEED);
        let work = |seed| {
            let mut w: Vec<(String, Vec<String>, usize, u64)> = batch(seed, &fleet)
                .into_iter()
                .map(|j| (j.kind.as_str().to_owned(), j.modules, j.measurements as usize, j.seed))
                .collect();
            w.sort();
            w
        };
        assert_eq!(work(1), work(2));
        assert_eq!(work(1).len(), MIX.len());
    }
}
