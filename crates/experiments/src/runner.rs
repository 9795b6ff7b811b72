//! Campaign execution plumbing: the unified run harness (progress
//! heartbeat, `--trace-out` stream, metrics aggregation, checkpoint
//! journal, fault injection) and result persistence.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock, PoisonError};

use serde::Serialize;

use vrd_core::checkpoint::{self, Checkpoint, CheckpointError, CheckpointManifest};
use vrd_core::exec::faults::FaultPlan;
use vrd_core::exec::{self, Progress, Unit, UnitKey};
use vrd_core::obs::metrics::MetricsSink;
use vrd_core::obs::trace::JsonlSink;
use vrd_core::obs::{MultiObserver, Observer};
use vrd_core::run::RunOptions;
use vrd_dram::ModuleSpec;

use crate::opts::Options;
use crate::sinks::{self, CliProgressSink};

/// Maps `f` over the option's module specs on the deterministic executor
/// ([`vrd_core::exec`]), preserving Table-1 order in the output. One
/// unit per module; a panicking module panics the call, as the old
/// scoped-thread runner did.
pub fn map_modules<T, F>(opts: &Options, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&ModuleSpec) -> T + Sync,
{
    let units: Vec<Unit<ModuleSpec>> =
        opts.specs().into_iter().map(|s| Unit::new(UnitKey::module(&s.name), s)).collect();
    exec::execute(&opts.exec_config(), units, |_ctx, spec| f(spec)).into_results()
}

/// Runs one campaign `body` under the full CLI harness: a shared
/// [`Progress`] with an event-driven heartbeat, the optional
/// `--trace-out` JSONL stream, the process-wide metrics aggregator
/// (rewritten to `<out_dir>/metrics.json` after every campaign), the
/// optional `--checkpoint-dir` journal, and the `--fail-after-units`
/// fault plan. Campaign errors (interruption, checkpoint I/O) exit the
/// process with status 2.
///
/// `body` receives the assembled [`RunOptions`] and calls one of the
/// unified campaign entry points in [`vrd_core::campaign`].
pub fn run_campaign<C, T, F>(opts: &Options, campaign: &str, cfg: &C, body: F) -> T
where
    C: Serialize,
    F: FnOnce(&RunOptions<'_>) -> Result<T, CheckpointError>,
{
    let ckpt = campaign_checkpoint(opts, campaign, cfg);
    let plan = fault_plan(opts);
    let progress = Progress::new();
    let heartbeat = CliProgressSink::new(format!("{campaign} campaign"), &progress);
    let trace = trace_file(opts).map(JsonlSink::new);
    let mut observers: Vec<&dyn Observer> = vec![&heartbeat, metrics_sink()];
    if let Some(trace) = &trace {
        observers.push(trace);
    }
    let fanout = MultiObserver::new(observers);
    let mut run_opts = RunOptions::new(opts.exec_config()).observer(&fanout).progress(&progress);
    if let Some(ckpt) = &ckpt {
        run_opts = run_opts.checkpoint(ckpt);
    }
    if let Some(plan) = &plan {
        run_opts = run_opts.hooks(plan);
    }
    let out = body(&run_opts).unwrap_or_else(|e| {
        sinks::error(format!("{campaign} campaign failed: {e}"));
        std::process::exit(2);
    });
    write_metrics(opts);
    out
}

/// The process-wide metrics aggregator: one sink observes every
/// campaign the process runs (the `all` mode runs several), so
/// `metrics.json` always holds the full set of reports.
fn metrics_sink() -> &'static MetricsSink {
    static SINK: OnceLock<MetricsSink> = OnceLock::new();
    SINK.get_or_init(MetricsSink::new)
}

/// Rewrites `<out_dir>/metrics.json` with every campaign report
/// aggregated so far. One writer at a time: concurrent campaigns in one
/// process would otherwise race on the shared temporary file.
fn write_metrics(opts: &Options) {
    static WRITER: Mutex<()> = Mutex::new(());
    let _writer = WRITER.lock().unwrap_or_else(PoisonError::into_inner);
    let json = serde_json::to_string_pretty(&metrics_sink().reports()).expect("serializable");
    save(opts, "metrics.json", &json);
}

/// The process-wide `--trace-out` file, created (truncated) once; all
/// campaigns of a multi-campaign run append to the same stream.
fn trace_file(opts: &Options) -> Option<&'static File> {
    static FILE: OnceLock<Option<File>> = OnceLock::new();
    FILE.get_or_init(|| {
        let path = opts.trace_out.as_deref()?;
        if let Some(parent) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match File::create(path) {
            Ok(file) => Some(file),
            Err(e) => {
                sinks::error(format!("cannot open trace file {path}: {e}"));
                std::process::exit(2);
            }
        }
    })
    .as_ref()
}

/// Opens the `campaign` checkpoint under `--checkpoint-dir`, bound to
/// the campaign's config hash, seed, and roster shard. Returns `None`
/// when checkpointing is off.
///
/// Exits the process with an explanatory message when the directory
/// already holds a checkpoint but `--resume` was not passed, or when
/// the existing checkpoint belongs to a different campaign/config/shard
/// (stale checkpoints are rejected, never merged).
pub fn campaign_checkpoint<C: Serialize>(
    opts: &Options,
    campaign: &str,
    cfg: &C,
) -> Option<Checkpoint> {
    let root = opts.checkpoint_dir.as_deref()?;
    let manifest = CheckpointManifest {
        shard_index: opts.shard_index as u64,
        shard_count: opts.shard_count as u64,
        ..CheckpointManifest::for_campaign(
            campaign,
            checkpoint::config_hash(cfg),
            opts.seed,
            &opts.specs(),
        )
    };
    let dir = Path::new(root).join(campaign);
    if dir.join("manifest.json").exists() && !opts.resume {
        sinks::error(format!(
            "checkpoint {} already exists; pass --resume to continue it \
             or remove the directory to start over",
            dir.display()
        ));
        std::process::exit(2);
    }
    match Checkpoint::open(&dir, manifest) {
        Ok(ckpt) => {
            if ckpt.completed_units() > 0 || ckpt.recovered_torn_tail() {
                sinks::status(format!(
                    "resuming {campaign}: {} completed units restored{}",
                    ckpt.completed_units(),
                    if ckpt.recovered_torn_tail() { " (dropped a torn tail record)" } else { "" },
                ));
            }
            Some(ckpt)
        }
        Err(e) => {
            sinks::error(format!("cannot open checkpoint {}: {e}", dir.display()));
            std::process::exit(2);
        }
    }
}

/// The `--fail-after-units` fault plan: a simulated crash (exit code 3)
/// after the Nth journal commit, announced on the status stream.
pub fn fault_plan(opts: &Options) -> Option<FaultPlan> {
    opts.fail_after_units.map(|n| {
        FaultPlan::exit_after(n, 3).announce_with(|done| {
            sinks::error(format!("simulated crash after {done} committed units"));
        })
    })
}

/// Writes `text` to `<out_dir>/<file>` through
/// [`vrd_core::journal::write_atomic`], so a crash never leaves a
/// half-written artifact, and returns the path. A failed write names
/// the path and the error and exits the process with status 2.
pub fn save(opts: &Options, file: &str, text: &str) -> PathBuf {
    let path = Path::new(&opts.out_dir).join(file);
    let written = fs::create_dir_all(&opts.out_dir)
        .and_then(|()| vrd_core::journal::write_atomic(&path, text));
    if let Err(e) = written {
        sinks::error(format!("cannot write {}: {e}", path.display()));
        std::process::exit(2);
    }
    path
}

#[cfg(test)]
mod tests {
    use vrd_core::campaign::{foundational_campaign, FoundationalConfig};

    use super::*;
    use crate::opts::TestOutDir;

    #[test]
    fn map_modules_preserves_order() {
        let mut opts = Options::smoke();
        opts.modules = vec!["H0".into(), "M1".into(), "S0".into()];
        let names = map_modules(&opts, |spec| spec.name.clone());
        assert_eq!(names, vec!["H0", "M1", "S0"]);
    }

    #[test]
    fn map_modules_parallel_matches_serial() {
        let mut opts = Options::smoke();
        opts.modules.clear(); // all 25
        opts.threads = 8;
        let parallel = map_modules(&opts, |spec| spec.family().topology.rows_per_bank);
        opts.threads = 1;
        let serial = map_modules(&opts, |spec| spec.family().topology.rows_per_bank);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn run_campaign_returns_body_result_and_writes_metrics() {
        let out = TestOutDir::new();
        let mut opts = out.smoke();
        opts.modules = vec!["M1".into(), "S0".into()];
        let cfg = FoundationalConfig {
            measurements: 50,
            seed: opts.seed,
            row_bytes: 512,
            scan_rows: 3_000,
            ..FoundationalConfig::default()
        };
        let specs = opts.specs();
        let results = run_campaign(&opts, "foundational", &cfg, |run_opts| {
            foundational_campaign(&specs, &cfg, run_opts)
        });
        assert_eq!(results.len(), 2);
        let metrics =
            std::fs::read_to_string(Path::new(&opts.out_dir).join("metrics.json")).unwrap();
        assert!(metrics.contains("\"foundational\""), "metrics must name the campaign");
        assert!(metrics.contains("unit_wall_time"), "metrics must carry the histogram");
    }

    #[test]
    fn save_creates_the_directory_and_returns_the_path() {
        let out = TestOutDir::new();
        let opts = out.smoke();
        let path = save(&opts, "probe.json", "[1, 2, 3]");
        assert_eq!(path, Path::new(&opts.out_dir).join("probe.json"));
        assert_eq!(std::fs::read_to_string(path).unwrap(), "[1, 2, 3]");
    }
}
