//! The `vrd-exp` study table: one [`Study`] per CLI id in [`STUDIES`],
//! the lazy [`Studies`] cache of the campaigns they share, and
//! [`run_studies`], which runs a list of ids against one cache and
//! writes their JSON artifacts.
//!
//! [`Studies`] is the only code that runs a campaign under the CLI
//! harness ([`runner::run_campaign`]): it binds each campaign's
//! checkpoint label and config to the one [`Options`] it was built
//! with, and runs each campaign at most once however many ids read it.

use std::sync::OnceLock;

use serde::Serialize;

use vrd_core::obs::Level;

use crate::discovery_exp::{self, DiscoveryStudy};
use crate::family_exp::{self, FamilyStudy};
use crate::foundational::{self, FoundationalStudy};
use crate::guardband_exp::{self, GuardbandStudy};
use crate::indepth::{self, InDepthStudy};
use crate::sweep_exp::{self, SweepStudy};
use crate::{ecc_exp, estimate_exp, extensions, findings, mc, memsim_exp, runner, sinks, Options};

/// The campaigns several ids share, each run on first use.
pub struct Studies {
    opts: Options,
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
            let opts = &self.opts;
            sinks::status(format!(
                "running foundational campaign ({} measurements/row)...",
                opts.foundational_measurements
            ));
            let cfg = foundational::config(opts);
            runner::run_campaign(opts, vrd_core::campaign::FOUNDATIONAL, &cfg, |run_opts| {
                foundational::run_with(opts, &opts.specs(), run_opts)
            })
        })
    }

    /// The §5 in-depth campaign: every (module × row × condition) cell
    /// is one work unit of a single pool.
    pub fn indepth(&self) -> &InDepthStudy {
        self.indepth.get_or_init(|| {
            let opts = &self.opts;
            sinks::status(format!(
                "running in-depth campaign ({} meas/row/cond, {} conds)...",
                opts.indepth_measurements,
                opts.condition_grid().len()
            ));
            let cfg = indepth::config(opts);
            runner::run_campaign(opts, vrd_core::campaign::IN_DEPTH, &cfg, |run_opts| {
                indepth::run_with(opts, &opts.specs(), run_opts)
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
            let opts = &self.opts;
            sinks::status(format!(
                "running discovery campaign ({:.0}% confidence, <= {} epochs/row)...",
                100.0 * opts.discovery_confidence,
                opts.discovery_max_epochs
            ));
            let cfg = opts.discovery_config();
            runner::run_campaign(opts, vrd_core::discovery::DISCOVERY, &cfg, |run_opts| {
                discovery_exp::run_with(opts, &opts.specs(), run_opts)
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
                Some(sweep_exp::run_with(&self.opts, &self.opts.specs(), study))
            })
            .as_ref()
    }

    /// The per-bank RDT spread across device families.
    pub fn family(&self) -> &FamilyStudy {
        self.family.get_or_init(|| {
            sinks::status("running device-family bank-variation study...");
            family_exp::run_with(&self.opts, self.opts.specs())
        })
    }
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
/// `opts.out_dir`.
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
    for study in studies {
        for saved in (study.run)(&cache, study.id) {
            let path = runner::save(opts, &saved.file, &saved.text);
            if let Some(what) = saved.announce {
                sinks::status(format!("{what} written to {}", path.display()));
            }
        }
    }
}
