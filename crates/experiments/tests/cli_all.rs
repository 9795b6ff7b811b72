//! `vrd-exp all` frozen end to end: at a small fixed scale, every id's
//! stdout artifact, every JSON result file and the order in which the
//! shared campaigns start must stay byte-identical, at one thread and at
//! two. The digests pin the outputs of the whole CLI surface, so a
//! refactor of how ids dispatch to studies cannot change what a run
//! prints or writes.

use std::path::{Path, PathBuf};
use std::process::Command;

use vrd_core::checkpoint::fnv1a64;
use vrd_core::obs::Event;

/// FNV-1a of the 29 `Artifact` lines on stdout (28 ids plus
/// `tab3-paper`).
const STDOUT_DIGEST: u64 = 0x1ac8799bdd369565;
/// FNV-1a over `name\n content\n` of every JSON file in `--out` but
/// `metrics.json`, whose wall-clock fields change from run to run.
const JSON_DIGEST: u64 = 0x6874a8030400e3b9;
/// FNV-1a of the `running …` status lines, newline-joined, in order.
const STATUS_DIGEST: u64 = 0x93cb04bc00008654;

const ALL: &[&str] = &[
    "all",
    "--modules",
    "M1,Chip1",
    "--measurements",
    "300",
    "--indepth",
    "30",
    "--rows",
    "2",
    "--trials",
    "50",
    "--mixes",
    "1",
    "--cycles",
    "20000",
    "--sweep-acts",
    "20000",
    "--max-epochs",
    "60",
    "--log-format",
    "json",
];

fn out_dir(threads: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vrd-cli-all-{}-{threads}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Digests every `*.json` in `dir` except `metrics.json`, in name order.
fn json_digest(dir: &Path) -> (u64, Vec<String>) {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("out dir exists")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json") && n != "metrics.json")
        .collect();
    names.sort();
    let mut bytes = Vec::new();
    for name in &names {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(b'\n');
        bytes.extend(std::fs::read(dir.join(name)).expect("read artifact"));
        bytes.push(b'\n');
    }
    (fnv1a64(&bytes), names)
}

fn check_all_at(threads: &str) {
    let out = out_dir(threads);
    let out_str = out.to_str().expect("utf-8 temp path");
    let run = Command::new(env!("CARGO_BIN_EXE_vrd-exp"))
        .args(ALL)
        .args(["--threads", threads, "--out", out_str])
        .output()
        .expect("spawn vrd-exp");
    assert!(run.status.success(), "vrd-exp all --threads {threads} failed: {run:?}");

    let stdout = String::from_utf8(run.stdout).expect("utf-8 stdout");
    assert_eq!(stdout.lines().count(), 29, "one Artifact line per id plus tab3-paper");
    let status: Vec<String> = String::from_utf8_lossy(&run.stderr)
        .lines()
        .filter_map(|line| match serde_json::from_str::<Event>(line) {
            Ok(Event::Message { body, .. }) if body.starts_with("running ") => Some(body),
            _ => None,
        })
        .collect();
    let (json, names) = json_digest(&out);
    let _ = std::fs::remove_dir_all(&out);

    assert_eq!(fnv1a64(stdout.as_bytes()), STDOUT_DIGEST, "--threads {threads}: stdout drifted");
    assert_eq!(json, JSON_DIGEST, "--threads {threads}: JSON artifacts drifted: {names:?}");
    assert_eq!(
        fnv1a64(status.join("\n").as_bytes()),
        STATUS_DIGEST,
        "--threads {threads}: campaign order drifted: {status:#?}"
    );
}

#[test]
fn all_is_frozen_at_one_thread() {
    check_all_at("1");
}

#[test]
fn all_is_frozen_at_two_threads() {
    check_all_at("2");
}
