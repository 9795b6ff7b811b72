//! Argument-parsing boundary of the `vrd-exp` CLI: requests the program
//! cannot honour exactly exit 2 with a one-line error naming the
//! offending input, before any campaign runs.

use std::process::{Command, Output};

fn vrd_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vrd-exp")).args(args).output().expect("spawn vrd-exp")
}

fn assert_rejected(args: &[&str], needle: &str) {
    let run = vrd_exp(args);
    assert_eq!(run.status.code(), Some(2), "{args:?} must exit 2: {run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains(needle), "{args:?}: stderr must name {needle}: {stderr}");
    assert!(run.stdout.is_empty(), "{args:?}: nothing may run: {run:?}");
}

#[test]
fn unknown_module_names_are_rejected() {
    assert_rejected(&["fig1", "--modules", "M1,M99", "--measurements", "10"], "\"M99\"");
    assert_rejected(&["fig1", "--modules", "m1"], "\"m1\"");
    assert_rejected(&["fig1", "--modules", "M1,", "--measurements", "10"], "\"\"");
}

#[test]
fn a_module_scope_that_selects_nothing_is_rejected() {
    let fig3 = ["fig3", "--modules", "M1", "--family", "hbm2", "--measurements", "50"];
    assert_rejected(&fig3, "--modules M1 and --family hbm2 select no Table-1 module");
    // An empty shard of a non-empty scope is still a valid run.
    let out = std::env::temp_dir().join(format!("vrd-cli-args-{}", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    let run = vrd_exp(&["fig3", "--modules", "M1", "--shard", "1/2", "--out", out]);
    assert!(run.status.success(), "an empty shard must run: {run:?}");
    let _ = std::fs::remove_dir_all(out);
}

#[test]
fn discovery_knobs_outside_the_stopping_rule_are_rejected() {
    let ceiling = ["discovery", "--modules", "M1", "--max-epochs", "5"];
    assert_rejected(&ceiling, "max_epochs must be >= min_epochs");
    assert_rejected(&["discovery", "--modules", "M1", "--confidence", "1"], "confidence");
    assert_rejected(&["fig1", "--min-epochs", "0"], "min_epochs must be at least 1");
}

#[test]
fn retired_strategy_flags_are_unknown_arguments() {
    assert_rejected(&["fig1", "--search", "adaptive"], "unknown argument \"--search\"");
    assert_rejected(&["fig1", "--eval", "batch"], "unknown argument \"--eval\"");
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vrd-cli-args-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The flags of a fast empty-shard run: M1 is the scope's only module,
/// so shard 1 of 2 measures nothing.
const EMPTY_SHARD: &[&str] =
    &["--modules", "M1", "--shard", "1/2", "--mixes", "1", "--cycles", "20000", "--trials", "50"];

#[test]
fn an_empty_shard_skips_the_defenses_sweep_with_a_warning() {
    for id in ["memsim-sweep", "findings", "all"] {
        let out = scratch_dir(id);
        let out_str = out.to_str().expect("utf-8 temp path");
        let run = vrd_exp(&[&[id, "--out", out_str], EMPTY_SHARD].concat());
        assert!(run.status.success(), "{id} on an empty shard must run: {run:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        if id != "findings" {
            assert!(stderr.contains("nothing to sweep"), "{id}: {stderr}");
            assert!(!out.join("memsim-sweep.json").exists(), "{id} wrote a sweep");
            assert!(!out.join("mitigation_profile.json").exists(), "{id} wrote a profile");
        }
        if id != "memsim-sweep" {
            assert!(stderr.contains("F18/F19 omitted"), "{id}: {stderr}");
            let checks = std::fs::read_to_string(out.join("findings.json")).expect("findings");
            assert!(!checks.contains("\"id\": 18"), "{id}: F18 without a sweep");
            assert!(checks.contains("\"id\": 20"), "{id}: the family findings stay");
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}

#[test]
fn an_unwritable_out_dir_exits_2_naming_the_file() {
    let blocker = scratch_dir("file");
    std::fs::write(&blocker, "not a directory").expect("write blocker file");
    let out = blocker.to_str().expect("utf-8 temp path");
    // Campaign ids fail on metrics.json, which the first campaign writes;
    // the rest fail on their own artifact.
    for (args, file) in [
        (&["fig1", "fig3", "--modules", "M1", "--measurements", "50"][..], "metrics.json"),
        (&["fig17-20"][..], "fig17-20.json"),
    ] {
        let run = vrd_exp(&[args, &["--out", out]].concat());
        assert_eq!(run.status.code(), Some(2), "{args:?} must exit 2: {run:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        let path = blocker.join(file);
        assert!(
            stderr.contains(&format!("cannot write {}", path.display())),
            "{args:?}: stderr must name {}: {stderr}",
            path.display()
        );
    }
    let _ = std::fs::remove_file(&blocker);

    // A mitigation profile that cannot replace what sits at its path.
    let out = scratch_dir("profile");
    std::fs::create_dir_all(out.join("mitigation_profile.json").join("occupied"))
        .expect("occupy the profile path");
    let out_str = out.to_str().expect("utf-8 temp path");
    let run = vrd_exp(&[
        "memsim-sweep",
        "--modules",
        "M1",
        "--indepth",
        "30",
        "--rows",
        "2",
        "--sweep-acts",
        "20000",
        "--out",
        out_str,
    ]);
    assert_eq!(run.status.code(), Some(2), "an unwritable profile must exit 2: {run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("mitigation_profile.json"), "must name the profile: {stderr}");
    let _ = std::fs::remove_dir_all(&out);
}
