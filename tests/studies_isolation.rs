//! Two `run_studies` calls in one process keep their state apart.
//!
//! Each run owns its metrics aggregator and its `--trace-out` file, so
//! two concurrent runs with their own `--out` and `--trace-out` must
//! each write a `metrics.json` holding exactly their own campaign
//! report and a trace holding exactly their own unit events.

use std::path::{Path, PathBuf};

use vrd_core::obs::metrics::MetricsReport;
use vrd_core::obs::trace::parse_jsonl;
use vrd_core::obs::Event;
use vrd_experiments::studies::run_studies;
use vrd_experiments::Options;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vrd-isolation-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(dir: &Path, modules: &[&str]) -> Options {
    Options {
        modules: modules.iter().map(|&m| m.to_owned()).collect(),
        foundational_measurements: 50,
        threads: 1,
        out_dir: dir.join("out").to_string_lossy().into_owned(),
        trace_out: Some(dir.join("trace.jsonl").to_string_lossy().into_owned()),
        ..Options::smoke()
    }
}

/// Checks one finished run against its own module list.
fn assert_isolated(tag: &str, dir: &Path, modules: &[&str]) {
    let metrics = std::fs::read_to_string(dir.join("out").join("metrics.json"))
        .unwrap_or_else(|e| panic!("{tag}: metrics.json: {e}"));
    let reports: Vec<MetricsReport> = serde_json::from_str(&metrics).expect("metrics parse");
    assert_eq!(reports.len(), 1, "{tag}: one campaign, one report");
    assert_eq!(reports[0].campaign, "foundational", "{tag}: the report's campaign");
    assert_eq!(reports[0].unit_wall_time.count, modules.len(), "{tag}: one unit per module");

    let trace = std::fs::read_to_string(dir.join("trace.jsonl"))
        .unwrap_or_else(|e| panic!("{tag}: trace.jsonl: {e}"));
    let events = parse_jsonl(&trace).expect("every trace line parses");
    let mut finished: Vec<String> = events
        .iter()
        .filter_map(|e| match e {
            Event::UnitFinished { key, .. } => Some(key.module.clone()),
            _ => None,
        })
        .collect();
    finished.sort();
    let mut expected: Vec<String> = modules.iter().map(|&m| m.to_owned()).collect();
    expected.sort();
    assert_eq!(finished, expected, "{tag}: the trace holds only this run's units");
}

#[test]
fn concurrent_runs_keep_their_metrics_and_traces_apart() {
    let runs: [(&str, &[&str]); 2] = [("a", &["M1"]), ("b", &["S2", "M1", "S0"])];
    let dirs: Vec<PathBuf> = runs.iter().map(|(tag, _)| scratch_dir(tag)).collect();
    std::thread::scope(|scope| {
        for ((_, modules), dir) in runs.iter().zip(&dirs) {
            let opts = options(dir, modules);
            scope.spawn(move || run_studies(&["fig3"], &opts));
        }
    });
    for ((tag, modules), dir) in runs.iter().zip(&dirs) {
        assert_isolated(tag, dir, modules);
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
