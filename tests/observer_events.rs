//! Observer-stream determinism and metrics-structure tests.
//!
//! The tentpole contract of the observability layer: attaching
//! observers never changes campaign results (the golden suites pin
//! that separately), and the event stream itself is deterministic
//! modulo scheduling — [`canonical_jsonl`] of a campaign's stream is
//! **byte-identical at any thread count**, because every event field
//! except host wall time derives from `(campaign_seed, unit_key)`.
//!
//! On top of that, the stream's shape is pinned (campaign/phase
//! brackets, one `UnitFinished` per executed unit, commit/restore
//! events under checkpointing) and the `metrics.json` key structure is
//! held by a golden file:
//!
//! ```text
//! UPDATE_GOLDEN=observer_events cargo test --test observer_events
//! ```

#[path = "util/golden.rs"]
mod golden;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;
use vrd::core::campaign::{
    foundational_campaign, in_depth_campaign, FoundationalConfig, InDepthConfig, FOUNDATIONAL,
};
use vrd::core::checkpoint::{self, Checkpoint, CheckpointManifest};
use vrd::core::exec::faults::FaultPlan;
use vrd::core::exec::ExecConfig;
use vrd::core::obs::metrics::MetricsSink;
use vrd::core::obs::trace::{parse_jsonl, JsonlSink};
use vrd::core::obs::{canonical_jsonl, Event, Level, MemorySink, Observer};
use vrd::core::run::RunOptions;
use vrd::dram::ModuleSpec;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("vrd-obs-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn modules(names: &[&str]) -> Vec<ModuleSpec> {
    names.iter().map(|n| ModuleSpec::by_name(n).expect("Table-1 module")).collect()
}

fn foundational_cfg(seed: u64) -> FoundationalConfig {
    FoundationalConfig {
        measurements: 25,
        seed,
        row_bytes: 512,
        scan_rows: 2_000,
        ..FoundationalConfig::default()
    }
}

fn manifest(cfg: &FoundationalConfig, specs: &[ModuleSpec]) -> CheckpointManifest {
    CheckpointManifest::for_campaign(FOUNDATIONAL, checkpoint::config_hash(cfg), cfg.seed, specs)
}

fn foundational_events(threads: usize) -> Vec<Event> {
    let specs = modules(&["M1", "S2"]);
    let cfg = foundational_cfg(2025);
    let sink = MemorySink::new();
    foundational_campaign(
        &specs,
        &cfg,
        &RunOptions::new(ExecConfig::new(threads, cfg.seed)).observer(&sink),
    )
    .expect("plain campaign run cannot fail");
    sink.events()
}

fn in_depth_events(threads: usize) -> Vec<Event> {
    let specs = modules(&["H3"]);
    let cfg = InDepthConfig::quick();
    let sink = MemorySink::new();
    in_depth_campaign(
        &specs,
        &cfg,
        &RunOptions::new(ExecConfig::new(threads, cfg.seed)).observer(&sink),
    )
    .expect("plain campaign run cannot fail");
    sink.events()
}

// ----- thread-invariance of the canonical stream ---------------------

#[test]
fn foundational_event_stream_is_canonically_identical_across_threads() {
    let reference = canonical_jsonl(&foundational_events(1));
    for threads in [2, 8] {
        assert_eq!(
            reference,
            canonical_jsonl(&foundational_events(threads)),
            "canonical foundational event stream changed between threads=1 and \
             threads={threads}"
        );
    }
}

#[test]
fn in_depth_event_stream_is_canonically_identical_across_threads() {
    let reference = canonical_jsonl(&in_depth_events(1));
    for threads in [2, 8] {
        assert_eq!(
            reference,
            canonical_jsonl(&in_depth_events(threads)),
            "canonical in-depth event stream changed between threads=1 and threads={threads}"
        );
    }
}

// ----- stream shape --------------------------------------------------

#[test]
fn foundational_stream_brackets_one_phase_and_counts_every_unit() {
    let events = foundational_events(2);
    assert!(
        matches!(&events[0], Event::CampaignStarted { campaign } if campaign == "foundational")
    );
    assert!(matches!(events.last(), Some(Event::CampaignFinished { .. })));

    let phases: Vec<(&str, usize)> = events
        .iter()
        .filter_map(|e| match e {
            Event::PhaseStarted { phase, units, .. } => Some((phase.as_str(), *units)),
            _ => None,
        })
        .collect();
    assert_eq!(phases, vec![("measure", 2)], "one phase, one unit per module");

    let started = events.iter().filter(|e| matches!(e, Event::UnitStarted { .. })).count();
    let finished = events.iter().filter(|e| matches!(e, Event::UnitFinished { .. })).count();
    assert_eq!((started, finished), (2, 2), "every unit starts and finishes exactly once");

    let Some(Event::CampaignFinished { summary, .. }) = events.last() else { unreachable!() };
    assert_eq!((summary.units_total, summary.units_done), (2, 2));
    assert!(summary.sim_time_ns > 0.0, "campaign must consume simulated test time");
    assert!(summary.sim_energy_j > 0.0, "campaign must consume simulated test energy");
}

#[test]
fn in_depth_stream_reports_both_phases_under_one_campaign() {
    let events = in_depth_events(2);
    let phases: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            Event::PhaseStarted { phase, .. } => Some(phase.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(phases, vec!["select", "measure"]);

    let submitted: usize = events
        .iter()
        .filter_map(|e| match e {
            Event::PhaseStarted { units, .. } => Some(*units),
            _ => None,
        })
        .sum();
    let finished = events.iter().filter(|e| matches!(e, Event::UnitFinished { .. })).count();
    assert_eq!(finished, submitted, "every submitted unit reports UnitFinished");
}

// ----- checkpointing events ------------------------------------------

#[test]
fn crash_and_resume_emit_commit_and_restore_events() {
    let specs = modules(&["M1", "S2", "H3"]);
    let cfg = foundational_cfg(2025);
    let dir = scratch_dir("events");

    // First run: cooperative kill after one committed unit.
    let plan = FaultPlan::kill_after(1);
    let ckpt = Checkpoint::open(&dir, manifest(&cfg, &specs)).unwrap();
    let sink = MemorySink::new();
    let _ = foundational_campaign(
        &specs,
        &cfg,
        &RunOptions::new(ExecConfig::new(1, cfg.seed))
            .observer(&sink)
            .checkpoint(&ckpt)
            .hooks(&plan)
            .cancel(plan.kill_flag()),
    );
    let commits =
        sink.events().iter().filter(|e| matches!(e, Event::CheckpointCommitted { .. })).count();
    assert_eq!(commits as u64, plan.committed(), "one commit event per journal append");
    assert!(commits >= 1);
    drop(ckpt);

    // Resume: journaled units surface as UnitRestored, the rest run.
    let ckpt = Checkpoint::open(&dir, manifest(&cfg, &specs)).unwrap();
    let restored_expected = ckpt.completed_units();
    let sink = MemorySink::new();
    foundational_campaign(
        &specs,
        &cfg,
        &RunOptions::new(ExecConfig::new(1, cfg.seed)).observer(&sink).checkpoint(&ckpt),
    )
    .expect("resume completes");
    let events = sink.events();
    let restored = events.iter().filter(|e| matches!(e, Event::UnitRestored { .. })).count();
    let finished = events.iter().filter(|e| matches!(e, Event::UnitFinished { .. })).count();
    let committed =
        events.iter().filter(|e| matches!(e, Event::CheckpointCommitted { .. })).count();
    assert_eq!(restored, restored_expected, "every journaled unit reports UnitRestored");
    assert_eq!(finished, specs.len() - restored, "only non-restored units run");
    assert_eq!(committed, finished, "every freshly run unit commits exactly once");

    let _ = std::fs::remove_dir_all(&dir);
}

// ----- metrics.json structure (golden) -------------------------------

/// Collects every key path (`a.b.c`, arrays as `a[]`) of a serialized
/// value tree.
/// A writer that takes every byte it is given and counts its calls.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A crash between two writes of one event would leave it without its
/// newline, and the next event would land on the same line.
#[test]
fn jsonl_sink_writes_each_event_line_in_one_call() {
    let events = foundational_events(1);
    let sink = JsonlSink::new(CountingWriter::default());
    for event in &events {
        sink.on_event(event);
    }
    sink.on_event(&Event::Message { level: Level::Info, body: "tenant ålice".into() });
    let writer = sink.into_inner();
    assert_eq!(writer.writes, events.len() + 1);
    let parsed = parse_jsonl(&String::from_utf8(writer.bytes).unwrap()).unwrap();
    assert_eq!(parsed[..events.len()], events[..]);
}

fn collect_paths(value: &serde::Value, prefix: &str, out: &mut Vec<String>) {
    match value {
        serde::Value::Map(entries) => {
            for (key, val) in entries {
                let path = if prefix.is_empty() { key.clone() } else { format!("{prefix}.{key}") };
                out.push(path.clone());
                collect_paths(val, &path, out);
            }
        }
        serde::Value::Seq(items) => {
            if let Some(first) = items.first() {
                collect_paths(first, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

#[test]
fn metrics_report_key_structure_matches_golden() {
    let specs = modules(&["M1", "S2"]);
    let cfg = foundational_cfg(2025);
    let dir = scratch_dir("metrics");

    // Checkpointed run, so the report carries the checkpoint block too.
    let ckpt = Checkpoint::open(&dir, manifest(&cfg, &specs)).unwrap();
    let metrics = MetricsSink::new();
    foundational_campaign(
        &specs,
        &cfg,
        &RunOptions::new(ExecConfig::new(2, cfg.seed)).observer(&metrics).checkpoint(&ckpt),
    )
    .expect("campaign completes");
    let _ = std::fs::remove_dir_all(&dir);

    let reports = metrics.reports();
    assert_eq!(reports.len(), 1, "one CampaignFinished, one report");
    let report = &reports[0];
    assert!(report.unit_wall_time.count == 2, "both units sampled into the histogram");
    assert!(!report.unit_wall_time.buckets.is_empty(), "histogram must have buckets");
    assert!(report.throughput_units_per_s > 0.0, "throughput must be positive");

    let mut paths = Vec::new();
    collect_paths(&report.to_value(), "", &mut paths);
    paths.sort();
    paths.dedup();
    golden::assert_golden("observer_events", "metrics_keys.txt", &paths.join("\n"));
}
