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
fn retired_strategy_flags_are_unknown_arguments() {
    assert_rejected(&["fig1", "--search", "adaptive"], "unknown argument \"--search\"");
    assert_rejected(&["fig1", "--eval", "batch"], "unknown argument \"--eval\"");
}
