//! The `vrd-exp` study table: one [`Study`] per CLI id in [`STUDIES`],
//! the lazy [`Studies`] cache of the campaigns they share, and
//! [`run_studies`], which runs a list of ids against one cache and
//! writes their JSON artifacts.
//!
//! [`Studies`] owns everything one run needs: the module specs in
//! scope, the metrics aggregator and the `--trace-out` file. It is the
//! only code that runs a campaign under the CLI harness (progress
//! heartbeat, trace stream, metrics, checkpoint journal, fault
//! injection), and runs each campaign at most once however many ids
//! read it. Two caches share nothing, so concurrent runs with their own
//! `--out` and `--trace-out` stay apart.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use serde::Serialize;

use vrd_core::checkpoint::{self, Checkpoint, CheckpointError, CheckpointManifest};
use vrd_core::exec::faults::FaultPlan;
use vrd_core::exec::Progress;
use vrd_core::obs::metrics::MetricsSink;
use vrd_core::obs::trace::JsonlSink;
use vrd_core::obs::{Level, MultiObserver, Observer};
use vrd_core::run::RunOptions;
use vrd_dram::ModuleSpec;

use crate::discovery_exp::{self, DiscoveryStudy};
use crate::family_exp::{self, FamilyStudy};
use crate::foundational::{self, FoundationalStudy};
use crate::guardband_exp::{self, GuardbandStudy};
use crate::indepth::{self, InDepthStudy};
use crate::sinks::{self, CliProgressSink};
use crate::sweep_exp::{self, SweepStudy};
use crate::{ecc_exp, estimate_exp, extensions, findings, mc, memsim_exp, Options};

/// The checkpointed campaigns: the one place a campaign's label meets
/// its config, for the CLI and the fleet service alike.
#[derive(Clone, Copy)]
pub(crate) enum Campaign {
    Foundational,
    InDepth,
    Discovery,
}

impl Campaign {
    fn label(self) -> &'static str {
        match self {
            Campaign::Foundational => vrd_core::campaign::FOUNDATIONAL,
            Campaign::InDepth => vrd_core::campaign::IN_DEPTH,
            Campaign::Discovery => vrd_core::discovery::DISCOVERY,
        }
    }

    /// The checkpoint manifest of this campaign over `specs` at `opts`'
    /// scale: label, config hash, seed, shard and roster.
    pub(crate) fn manifest(self, opts: &Options, specs: &[ModuleSpec]) -> CheckpointManifest {
        let config_hash = match self {
            Campaign::Foundational => checkpoint::config_hash(&foundational::config(opts)),
            Campaign::InDepth => checkpoint::config_hash(&indepth::config(opts)),
            Campaign::Discovery => checkpoint::config_hash(&opts.discovery_config()),
        };
        CheckpointManifest {
            shard_index: opts.shard_index as u64,
            shard_count: opts.shard_count as u64,
            ..CheckpointManifest::for_campaign(self.label(), config_hash, opts.seed, specs)
        }
    }
}

/// The campaigns several ids share, each run on first use, and the
/// sinks every campaign of the run reports to.
pub struct Studies {
    opts: Options,
    specs: Vec<ModuleSpec>,
    metrics: MetricsSink,
    /// The `--trace-out` file, created (truncated) by the first
    /// campaign; later campaigns append to the same stream.
    trace: OnceLock<Option<File>>,
    foundational: OnceLock<FoundationalStudy>,
    indepth: OnceLock<InDepthStudy>,
    guardband: OnceLock<GuardbandStudy>,
    discovery: OnceLock<DiscoveryStudy>,
    sweep: OnceLock<Option<SweepStudy>>,
    family: OnceLock<FamilyStudy>,
}

impl Studies {
    /// An empty cache over `opts`' scale and module scope.
    pub fn new(opts: &Options) -> Self {
        Studies {
            opts: opts.clone(),
            specs: opts.specs(),
            metrics: MetricsSink::new(),
            trace: OnceLock::new(),
            foundational: OnceLock::new(),
            indepth: OnceLock::new(),
            guardband: OnceLock::new(),
            discovery: OnceLock::new(),
            sweep: OnceLock::new(),
            family: OnceLock::new(),
        }
    }

    /// The §4 foundational campaign. With `--checkpoint-dir`, every
    /// finished module is journaled and a `--resume` run restores
    /// completed modules instead of remeasuring them, to byte-identical
    /// output.
    pub fn foundational(&self) -> &FoundationalStudy {
        self.foundational.get_or_init(|| {
            sinks::status(format!(
                "running foundational campaign ({} measurements/row)...",
                self.opts.foundational_measurements
            ));
            self.run_campaign(Campaign::Foundational, |run_opts| {
                foundational::run_with(&self.opts, &self.specs, run_opts)
            })
        })
    }

    /// The §5 in-depth campaign: every (module × row × condition) cell
    /// is one work unit of a single pool.
    pub fn indepth(&self) -> &InDepthStudy {
        self.indepth.get_or_init(|| {
            sinks::status(format!(
                "running in-depth campaign ({} meas/row/cond, {} conds)...",
                self.opts.indepth_measurements,
                self.opts.condition_grid().len()
            ));
            self.run_campaign(Campaign::InDepth, |run_opts| {
                indepth::run_with(&self.opts, &self.specs, run_opts)
            })
        })
    }

    /// The §6.4 guardband experiment.
    pub fn guardband(&self) -> &GuardbandStudy {
        self.guardband.get_or_init(|| {
            sinks::status(format!(
                "running guardband experiment ({} trials/margin)...",
                self.opts.guardband_trials
            ));
            guardband_exp::run(&self.opts)
        })
    }

    /// The early-stopping discovery campaign.
    pub fn discovery(&self) -> &DiscoveryStudy {
        self.discovery.get_or_init(|| {
            sinks::status(format!(
                "running discovery campaign ({:.0}% confidence, <= {} epochs/row)...",
                100.0 * self.opts.discovery_confidence,
                self.opts.discovery_max_epochs
            ));
            self.run_campaign(Campaign::Discovery, |run_opts| {
                discovery_exp::run_with(&self.opts, &self.specs, run_opts)
            })
        })
    }

    /// The spatial-aware defenses sweep over the in-depth study, or
    /// `None` when the in-depth study measured no series (an empty
    /// shard): there is no distribution to derive a profile from.
    pub fn sweep(&self) -> Option<&SweepStudy> {
        self.sweep
            .get_or_init(|| {
                let study = self.indepth();
                if !sweep_exp::has_series(study) {
                    return None;
                }
                sinks::status(format!(
                    "running spatial-aware defenses sweep ({} activations/attack)...",
                    self.opts.sweep_activations
                ));
                Some(sweep_exp::run_with(&self.opts, &self.specs, study))
            })
            .as_ref()
    }

    /// The per-bank RDT spread across device families.
    pub fn family(&self) -> &FamilyStudy {
        self.family.get_or_init(|| {
            sinks::status("running device-family bank-variation study...");
            family_exp::run_with(&self.opts, self.specs.clone())
        })
    }

    /// Runs one campaign `body` under the CLI harness: a [`Progress`]
    /// with an event-driven heartbeat, this run's metrics aggregator
    /// and `--trace-out` stream, the optional `--checkpoint-dir`
    /// journal, and the `--fail-after-units` fault plan. Campaign
    /// errors (interruption, checkpoint I/O) exit the process with
    /// status 2.
    fn run_campaign<T>(
        &self,
        campaign: Campaign,
        body: impl FnOnce(&RunOptions<'_>) -> Result<T, CheckpointError>,
    ) -> T {
        let label = campaign.label();
        let ckpt = campaign_checkpoint(&self.opts, campaign, &self.specs);
        let plan = fault_plan(&self.opts);
        let progress = Progress::new();
        let heartbeat = CliProgressSink::new(format!("{label} campaign"), &progress);
        let trace = self.trace().map(JsonlSink::new);
        let mut observers: Vec<&dyn Observer> = vec![&heartbeat, &self.metrics];
        if let Some(trace) = &trace {
            observers.push(trace);
        }
        let fanout = MultiObserver::new(observers);
        let mut run_opts =
            RunOptions::new(self.opts.exec_config()).observer(&fanout).progress(&progress);
        if let Some(ckpt) = &ckpt {
            run_opts = run_opts.checkpoint(ckpt);
        }
        if let Some(plan) = &plan {
            run_opts = run_opts.hooks(plan);
        }
        body(&run_opts).unwrap_or_else(|e| {
            sinks::error(format!("{label} campaign failed: {e}"));
            std::process::exit(2);
        })
    }

    /// The `--trace-out` file, opened on first use; a path that cannot
    /// be created exits the process with status 2.
    fn trace(&self) -> Option<&File> {
        self.trace
            .get_or_init(|| {
                let path = self.opts.trace_out.as_deref()?;
                if let Some(parent) = Path::new(path).parent() {
                    let _ = fs::create_dir_all(parent);
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
}

/// Opens `campaign`'s checkpoint under `--checkpoint-dir`, bound to its
/// [`Campaign::manifest`]. Returns `None` when checkpointing is off.
///
/// Exits the process with an explanatory message when the directory
/// already holds a checkpoint but `--resume` was not passed, or when
/// the existing checkpoint belongs to a different campaign/config/shard
/// (stale checkpoints are rejected, never merged).
fn campaign_checkpoint(
    opts: &Options,
    campaign: Campaign,
    specs: &[ModuleSpec],
) -> Option<Checkpoint> {
    let root = opts.checkpoint_dir.as_deref()?;
    let label = campaign.label();
    let dir = Path::new(root).join(label);
    if dir.join("manifest.json").exists() && !opts.resume {
        sinks::error(format!(
            "checkpoint {} already exists; pass --resume to continue it \
             or remove the directory to start over",
            dir.display()
        ));
        std::process::exit(2);
    }
    match Checkpoint::open(&dir, campaign.manifest(opts, specs)) {
        Ok(ckpt) => {
            if ckpt.completed_units() > 0 || ckpt.recovered_torn_tail() {
                sinks::status(format!(
                    "resuming {label}: {} completed units restored{}",
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
fn fault_plan(opts: &Options) -> Option<FaultPlan> {
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
fn save(opts: &Options, file: &str, text: &str) -> PathBuf {
    let path = Path::new(&opts.out_dir).join(file);
    let written = fs::create_dir_all(&opts.out_dir)
        .and_then(|()| vrd_core::journal::write_atomic(&path, text));
    if let Err(e) = written {
        sinks::error(format!("cannot write {}: {e}", path.display()));
        std::process::exit(2);
    }
    path
}

/// One `vrd-exp` id.
pub struct Study {
    /// The id as the command line names it.
    pub id: &'static str,
    /// Prints the id's artifacts and returns the files it writes under
    /// `--out`; receives the id so the body need not repeat it.
    run: fn(&Studies, &'static str) -> Vec<Saved>,
}

const fn study(id: &'static str, run: fn(&Studies, &'static str) -> Vec<Saved>) -> Study {
    Study { id, run }
}

/// A file one id writes under `--out`.
struct Saved {
    file: String,
    text: String,
    /// What to call the file in a status line once it is written.
    announce: Option<&'static str>,
}

impl Saved {
    /// `<name>.json`, pretty-printed.
    fn json<T: Serialize>(name: &str, value: &T) -> Self {
        let text = serde_json::to_string_pretty(value).expect("serializable result");
        Saved { file: format!("{name}.json"), text, announce: None }
    }
}

/// Prints `text` as artifact `id` and saves nothing.
fn print(id: &str, text: String) -> Vec<Saved> {
    sinks::artifact(id, text);
    vec![]
}

/// Prints `text` as artifact `id` and saves `value` as `<id>.json`.
fn show<T: Serialize>(id: &str, text: String, value: &T) -> Vec<Saved> {
    sinks::artifact(id, text);
    vec![Saved::json(id, value)]
}

fn warn(body: &str) {
    sinks::message(Level::Warn, body);
}

/// Every `vrd-exp` id, in the order `all` runs them.
pub const STUDIES: &[Study] = &[
    study("fig1", |s, id| {
        let study = s.foundational();
        show(id, foundational::render_fig1(study), &study.per_module)
    }),
    study("fig3", |s, id| {
        let study = s.foundational();
        show(id, foundational::render_fig3(study), &foundational::fig3_summaries(study))
    }),
    study("fig4", |s, id| print(id, foundational::render_fig4(s.foundational()))),
    study("fig5", |s, id| print(id, foundational::render_fig5(s.foundational()))),
    study("fig6", |s, id| {
        let study = s.foundational();
        show(id, foundational::render_fig6(study), &foundational::fig6_reports(study))
    }),
    study("fig7", |s, id| {
        show(id, indepth::render_fig7(s.indepth()), &indepth::max_cv_per_row(s.indepth()))
    }),
    study("fig8", |s, id| show(id, mc::render_fig8(s.indepth()), &mc::fig8_stats(s.indepth()))),
    study("fig9", |s, id| {
        show(id, indepth::render_fig9(s.indepth()), &indepth::fig9_groups(s.indepth()))
    }),
    study("fig10", |s, id| {
        show(id, indepth::render_fig10(s.indepth()), &indepth::fig10_groups(s.indepth()))
    }),
    study("fig11", |s, id| {
        show(id, indepth::render_fig11(s.indepth()), &indepth::fig11_groups(s.indepth()))
    }),
    study("fig12", |s, id| {
        show(id, indepth::render_fig12(s.indepth()), &indepth::fig12_groups(s.indepth()))
    }),
    study("fig13", |s, id| print(id, indepth::render_fig13(s.indepth()))),
    study("fig14", |s, id| {
        sinks::status("running Fig.-14 mitigation sweep...");
        let result = memsim_exp::run(&s.opts);
        show(id, memsim_exp::render(&result), &result)
    }),
    study("fig15", |s, id| show(id, mc::render_fig15(s.indepth()), &mc::fig15_stats(s.indepth()))),
    study("fig16", |s, id| show(id, guardband_exp::render_fig16(s.guardband()), s.guardband())),
    study("fig17-20", |_, id| {
        let sweep = estimate_exp::rowhammer_sweep();
        show(id, estimate_exp::render(&sweep), &sweep)
    }),
    study("fig21-24", |_, id| {
        let sweep = estimate_exp::rowpress_sweep();
        show(id, estimate_exp::render(&sweep), &sweep)
    }),
    study("fig25", |s, id| print(id, mc::render_fig25(s.indepth()))),
    study("tab3", |s, id| {
        let measured = guardband_exp::worst_margin_ber(s.guardband(), 0.1);
        let ber = if measured > 0.0 { measured } else { vrd_ecc::analysis::PAPER_WORST_BER };
        let seed = s.opts.seed;
        sinks::artifact(id, ecc_exp::render(&ecc_exp::run(ber, 20_000, seed)));
        // Also emit the paper's exact operating point for reference.
        let paper = ecc_exp::run_paper(20_000, seed);
        sinks::artifact("tab3-paper", ecc_exp::render(&paper));
        vec![Saved::json(id, &paper)]
    }),
    study("tab7", |s, id| {
        show(id, indepth::render_table7(s.indepth()), &indepth::table7(s.indepth()))
    }),
    study("findings", |s, id| {
        let mut checks = findings::check_foundational(s.foundational());
        checks.extend(findings::check_indepth(s.indepth()));
        checks.extend(findings::check_cells(s.indepth()));
        match s.sweep() {
            Some(sweep) => checks.extend(findings::check_sweep(sweep)),
            None => warn("no in-depth series in scope: F18/F19 omitted"),
        }
        checks.extend(findings::check_family(s.family()));
        show(id, findings::render(&checks), &checks)
    }),
    study("discovery", |s, id| show(id, discovery_exp::render(s.discovery()), s.discovery())),
    study("memsim-sweep", |s, id| {
        let Some(study) = s.sweep() else {
            warn("no in-depth series in scope: nothing to sweep");
            return vec![];
        };
        let mut saved = show(id, sweep_exp::render(study), study);
        let text = study.profile.to_json();
        let file = "mitigation_profile.json".into();
        saved.push(Saved { file, text, announce: Some("mitigation profile artifact") });
        saved
    }),
    study("family", |s, id| show(id, family_exp::render_family(s.family()), s.family())),
    study("ablation", |s, id| {
        sinks::status("running model ablation...");
        let rows = extensions::ablation(&s.opts);
        show(id, extensions::render_ablation(&rows), &rows)
    }),
    study("security", |s, id| {
        let study = s.foundational();
        sinks::status("running guardband security sweep...");
        let rows = extensions::security(study, &s.opts);
        show(id, extensions::render_security(&rows), &rows)
    }),
    study("online", |s, id| {
        sinks::status("running online-profiling experiment...");
        let Some(result) = extensions::online(&s.opts) else {
            warn("no module in scope produced profilable rows");
            return vec![];
        };
        show(id, extensions::render_online(&result), &result)
    }),
    study("takeaways", |s, id| {
        print(id, extensions::render_takeaways(s.foundational(), s.indepth()))
    }),
];

/// Runs `ids` in order against one [`Studies`] cache over `opts`,
/// printing each id's artifacts and writing its JSON files under
/// `opts.out_dir`. After each id that ran a campaign, and before that
/// id's own files, `metrics.json` is rewritten with every campaign
/// report of the run so far.
///
/// An id missing from [`STUDIES`], or a file that cannot be written,
/// names itself on the error stream and exits the process with status
/// 2, as campaign checkpoint errors do.
pub fn run_studies(ids: &[&str], opts: &Options) {
    let studies: Vec<&Study> = ids
        .iter()
        .map(|&id| {
            STUDIES.iter().find(|s| s.id == id).unwrap_or_else(|| {
                sinks::error(format!("unknown experiment {id:?}"));
                std::process::exit(2);
            })
        })
        .collect();
    let cache = Studies::new(opts);
    let mut reported = 0;
    for study in studies {
        let files = (study.run)(&cache, study.id);
        let reports = cache.metrics.reports();
        if reports.len() > reported {
            reported = reports.len();
            let json = serde_json::to_string_pretty(&reports).expect("serializable");
            save(opts, "metrics.json", &json);
        }
        for saved in files {
            let path = save(opts, &saved.file, &saved.text);
            if let Some(what) = saved.announce {
                sinks::status(format!("{what} written to {}", path.display()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_creates_the_directory_and_returns_the_path() {
        let dir = std::env::temp_dir().join(format!("vrd-exp-save-{}", std::process::id()));
        let opts = Options { out_dir: dir.to_string_lossy().into_owned(), ..Options::smoke() };
        let path = save(&opts, "probe.json", "[1, 2, 3]");
        assert_eq!(path, dir.join("probe.json"));
        assert_eq!(std::fs::read_to_string(path).unwrap(), "[1, 2, 3]");
        let _ = std::fs::remove_dir_all(dir);
    }
}
