//! Kill-and-restart soak test of the fleet campaign service.
//!
//! A five-job script (three tenants, four checkpointed foundational
//! campaigns plus one pure family job) runs three times against the
//! same 1k-module fleet:
//!
//! - a **reference** run, uninterrupted, on two workers;
//! - a **crash** run on one worker under `--fail-after-units 3`, which
//!   dies by a simulated crash mid-way through its second
//!   checkpointed job — leaving jobs in every live state (done,
//!   running, queued);
//! - a **restart** of the crash state dir with `--resume`, after the
//!   test tears the tail off the interrupted job's checkpoint journal
//!   and appends a torn half-line to the scheduler log, the two
//!   corruptions a real crash produces.
//!
//! The restart must finish every job with **no loss and no
//! duplication**, and the recovered state dir must be byte-identical
//! to the reference in everything the determinism contract covers:
//! `dispatch.jsonl`, `sched_log.jsonl`, every `artifacts/result.json`,
//! and `fleet_metrics.json` — despite the different worker count, the
//! crash, and the injected corruption.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

use vrd_core::exec::faults::truncate_tail_bytes;
use vrd_core::scheduler::SchedOp;
use vrd_experiments::serve::{FleetMetrics, JobRecord, JobState};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("vrd-serve-soak-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Three tenants; the four foundational jobs commit two checkpoint
/// units each (one per module), the family job commits none — so
/// `--fail-after-units 3` on one worker always dies one unit into the
/// second checkpointed job.
const SCRIPT: &str = r#"{"tenant": "alice", "kind": "foundational", "limit": 2, "measurements": 30, "seed": 11}
{"tenant": "bob", "kind": "foundational", "limit": 2, "measurements": 30, "seed": 12}
{"tenant": "alice", "kind": "foundational", "limit": 2, "measurements": 30, "seed": 13, "priority": "high"}
{"tenant": "bob", "kind": "foundational", "limit": 2, "measurements": 30, "seed": 14}
{"tenant": "carol", "kind": "family", "limit": 3, "seed": 15}
"#;

fn serve(state: &Path, script: &Path, workers: &str, extra: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vrd-exp"));
    cmd.args(["serve", "--state-dir"])
        .arg(state)
        .args(["--addr", "none", "--script"])
        .arg(script)
        .args(["--fleet-size", "1000", "--fleet-seed", "7", "--workers", workers])
        .args(extra);
    cmd.output().expect("spawn vrd-exp serve")
}

/// Every persisted `jobs/<id>/job.json`, keyed by job id.
fn job_records(state: &Path) -> BTreeMap<String, JobRecord> {
    let mut records = BTreeMap::new();
    for entry in std::fs::read_dir(state.join("jobs")).expect("jobs dir") {
        let dir = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(dir.join("job.json")).expect("job.json");
        let record: JobRecord = serde_json::from_str(&text).expect("job.json parses");
        records.insert(record.id.clone(), record);
    }
    records
}

fn read(state: &Path, rel: &str) -> String {
    std::fs::read_to_string(state.join(rel))
        .unwrap_or_else(|e| panic!("read {rel} in {}: {e}", state.display()))
}

#[test]
fn killed_service_restarts_to_byte_identical_artifacts() {
    let script_path = scratch_dir("script").with_extension("jsonl");
    std::fs::create_dir_all(script_path.parent().unwrap()).unwrap();
    std::fs::write(&script_path, SCRIPT).unwrap();

    // Reference: the same script, uninterrupted, on two workers. Also
    // the worker-count half of the determinism contract — the crash
    // state dir below runs on one.
    let reference = scratch_dir("ref");
    let out = serve(&reference, &script_path, "2", &[]);
    assert!(out.status.success(), "reference run failed: {}", String::from_utf8_lossy(&out.stderr));
    let ref_records = job_records(&reference);
    assert_eq!(ref_records.len(), 5);
    assert!(ref_records.values().all(|r| r.state == JobState::Done), "{ref_records:?}");

    // Crash run: one worker, simulated crash after the third
    // committed unit — inside the second checkpointed job.
    let crash = scratch_dir("crash");
    let out = serve(&crash, &script_path, "1", &["--fail-after-units", "3"]);
    assert_eq!(out.status.code(), Some(3), "expected the simulated-crash exit code");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("simulated service crash"),
        "crash announcement missing: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The wreckage holds jobs in every live state.
    let wrecked = job_records(&crash);
    assert_eq!(wrecked.len(), 5);
    let in_state = |s: JobState| wrecked.values().filter(|r| r.state == s).count();
    assert_eq!(in_state(JobState::Running), 1, "{wrecked:?}");
    assert!(in_state(JobState::Done) >= 1, "{wrecked:?}");
    assert!(in_state(JobState::Queued) >= 2, "{wrecked:?}");
    let interrupted =
        wrecked.values().find(|r| r.state == JobState::Running).expect("one running job");

    // Make the wreckage worse, the way a process killed mid-write
    // does: tear the tail off the interrupted job's checkpoint journal
    // (its one committed record becomes a torn half-record) and leave a
    // torn half-line at the end of the scheduler log.
    let journal = crash.join("jobs").join(&interrupted.id).join("checkpoint/journal.jsonl");
    assert!(journal.exists(), "interrupted job must have started its journal");
    truncate_tail_bytes(&journal, 7).expect("truncate journal tail");
    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .open(crash.join("sched_log.jsonl"))
        .expect("open sched log");
    write!(log, "{{\"Submit\":{{\"job\":\"job-9").expect("append torn tail");
    drop(log);

    // Restart the same state dir. The script is re-passed (as a
    // supervisor would): every line is already journaled, so nothing
    // is re-submitted.
    let out = serve(&crash, &script_path, "1", &["--resume"]);
    assert!(out.status.success(), "restart failed: {}", String::from_utf8_lossy(&out.stderr));

    // No loss, no duplication: all five jobs done, each dispatched
    // exactly once.
    let recovered = job_records(&crash);
    assert_eq!(recovered.len(), 5);
    assert!(recovered.values().all(|r| r.state == JobState::Done), "{recovered:?}");
    let dispatch = read(&crash, "dispatch.jsonl");
    let dispatched: Vec<&str> = dispatch.lines().collect();
    assert_eq!(dispatched.len(), 5);
    let unique: std::collections::BTreeSet<&str> = dispatched.iter().copied().collect();
    assert_eq!(unique, recovered.keys().map(String::as_str).collect());

    // The recovered state dir is byte-identical to the uninterrupted
    // reference in everything the determinism contract covers.
    assert_eq!(dispatch, read(&reference, "dispatch.jsonl"), "dispatch order diverged");
    assert_eq!(
        read(&crash, "fleet_metrics.json"),
        read(&reference, "fleet_metrics.json"),
        "dashboard diverged"
    );
    for id in recovered.keys() {
        let rel = format!("jobs/{id}/artifacts/result.json");
        assert_eq!(read(&crash, &rel), read(&reference, &rel), "{id} result diverged");
    }

    // The torn scheduler-log tail is gone for good: the recovered log
    // replays cleanly and matches the reference byte for byte (script
    // mode journals all submissions before any poll, in both runs).
    let log = read(&crash, "sched_log.jsonl");
    assert!(log.lines().all(|l| serde_json::from_str::<SchedOp>(l).is_ok()), "{log:?}");
    assert_eq!(log, read(&reference, "sched_log.jsonl"), "scheduler log diverged");

    // The dashboard agrees with the per-job records.
    let metrics: FleetMetrics =
        serde_json::from_str(&read(&crash, "fleet_metrics.json")).expect("metrics parse");
    assert_eq!(metrics.totals.submitted, 5);
    assert_eq!(metrics.totals.done, 5);
    assert_eq!(metrics.totals.running + metrics.totals.queued + metrics.totals.failed, 0);

    for dir in [reference, crash] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_file(&script_path);
}
