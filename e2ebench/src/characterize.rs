//! The `characterize` workload: one regeneration of the paper's
//! characterization slice per iteration.
//!
//! An iteration runs the foundational, in-depth and discovery
//! campaigns, guardband plus Table-3 ECC, the family study, every
//! figure and table render of those studies, and findings F1–F17 and
//! F20/F21, over a fixed DDR4 + HBM2 roster with no checkpoint and no
//! trace. The seed picks only the campaign seed (the root of the
//! executor's unit seeds); the roster, the device seed, every other
//! seed and every size are fixed, so the amount of work does not depend
//! on it.

use std::time::Instant;

use vrd_bender::platform::TestPlatform;
use vrd_core::exec::{ExecConfig, Progress};
use vrd_core::obs::{NullObserver, Observer};
use vrd_core::run::RunOptions;
use vrd_dram::fleet::roster_fingerprint;
use vrd_dram::{Module, ModuleSpec};
use vrd_experiments::{
    discovery_exp, ecc_exp, family_exp, findings, foundational, guardband_exp, indepth, mc, Options,
};

use crate::counters::Digest;
use crate::replay::Replay;
use crate::stats::median;
use crate::trace::{span, PhaseObserver, Tracer};
use crate::{Outcome, Workload};

/// The fixed roster: two DDR4 modules and two HBM2 chips.
pub const ROSTER: [&str; 4] = ["M1", "S0", "Chip0", "Chip2"];

/// Device seed of every module (fixed: the seed never changes devices).
pub const DEVICE_SEED: u64 = 2025;

/// Decoder trials per Table-3 check.
pub const ECC_TRIALS: usize = 8_000;

/// Consecutive set-ups averaged into one `setup_s` sample.
const SETUP_BATCH: u32 = 500;

/// Decodes per ECC trial (SEC, SECDED double, SECDED triple, SSC).
const DECODES_PER_TRIAL: u64 = 4;

/// The characterization scale.
pub fn options() -> Options {
    Options {
        modules: ROSTER.iter().map(|&m| m.to_owned()).collect(),
        foundational_measurements: 1_000,
        indepth_measurements: 50,
        picks_per_segment: 4,
        segment_rows: 128,
        discovery_max_epochs: 120,
        guardband_trials: 300,
        guardband_rows: 3,
        seed: DEVICE_SEED,
        row_bytes: 512,
        threads: 1,
        ..Options::default()
    }
}

/// splitmix64: derives independent seeds from the benchmark seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds every roster module's device model once and checks that every
/// requested name resolved. Rows are built lazily, on first access, so
/// this times the `dram` layer's constructors, not the row state a
/// campaign goes on to build.
pub fn build_roster(opts: &Options, tracer: Option<&Tracer>, out: &mut Outcome) -> Vec<ModuleSpec> {
    let specs = span(tracer, "dram.build", || {
        let specs = opts.specs();
        for spec in &specs {
            std::hint::black_box(Module::new_with_row_bytes(
                spec.clone(),
                opts.seed,
                opts.row_bytes,
            ));
        }
        specs
    });
    for name in &opts.modules {
        out.check(specs.iter().any(|s| &s.name == name), || {
            format!("requested module {name} is missing from the resolved roster")
        });
    }
    out.count("roster.fingerprint", roster_fingerprint(&specs));
    if let Some(t) = tracer {
        out.layers.insert("dram.build_s", t.busy_s("dram.build"));
    }
    specs
}

/// Records one campaign's progress counters under `prefix`.
pub fn count_progress(out: &mut Outcome, prefix: &str, progress: &Progress) {
    let snap = progress.snapshot();
    out.count(&format!("{prefix}.hammer_sessions"), snap.hammer_sessions);
    out.count(&format!("{prefix}.measurement_epochs"), snap.measurement_epochs);
    out.count(&format!("{prefix}.sim_ns"), snap.sim_time_ns as u64);
    out.count(&format!("{prefix}.units"), snap.units_done as u64);
    out.check(snap.units_panicked == 0, || {
        format!("{prefix}: {} units panicked", snap.units_panicked)
    });
}

/// Checks that every module of `expected` appears in an output.
pub fn check_modules<'a>(
    out: &mut Outcome,
    output: &str,
    expected: &[ModuleSpec],
    present: impl Iterator<Item = &'a str> + Clone,
) {
    for spec in expected {
        out.check(present.clone().any(|m| m == spec.name), || {
            format!("module {} is missing from the {output} output", spec.name)
        });
    }
}

/// Checks every finding and folds the scoreboard into the digest.
pub fn check_findings(out: &mut Outcome, digest: &mut Digest, checks: &[findings::FindingCheck]) {
    for c in checks {
        out.check(c.passed, || format!("finding F{} does not PASS: {}", c.id, c.detail));
    }
    digest.add_json("findings", &checks);
}

/// The workload.
pub struct Characterize {
    opts: Options,
    exec: ExecConfig,
    specs: Vec<ModuleSpec>,
}

impl Characterize {
    /// The workload's inputs for one benchmark seed.
    pub fn new(seed: u64) -> Self {
        let opts = options();
        Characterize { exec: campaign_exec(&opts, seed), opts, specs: Vec::new() }
    }
}

/// The executor for `opts` on one thread, with the campaign seed (the
/// root of every unit seed) drawn from the benchmark seed.
pub fn campaign_exec(opts: &Options, seed: u64) -> ExecConfig {
    opts.exec_config().to_builder().threads(1).campaign_seed(mix(seed, 1)).build()
}

impl Workload for Characterize {
    fn inputs(&self) -> String {
        let opts = serde_json::to_string(&self.opts).expect("options serialize");
        format!("{opts}\ncampaign_seed {}\n", self.exec.campaign_seed)
    }

    /// One set-up resolves the roster (the program's only set-up here)
    /// and builds each module's device model and test platform, the
    /// constructors every campaign unit calls before its first
    /// measurement.
    fn setup(&mut self, tracer: Option<&Tracer>) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let start = Instant::now();
        self.specs = build_roster(&self.opts, tracer, &mut out);
        span(tracer, "bender.build", || {
            for spec in &self.specs {
                std::hint::black_box(TestPlatform::for_module_with_row_bytes(
                    spec.clone(),
                    self.opts.seed,
                    self.opts.row_bytes,
                ));
            }
        });
        out.wall = start.elapsed();
        Ok(out)
    }

    /// A set-up takes microseconds.
    fn setup_batch(&self) -> u32 {
        SETUP_BATCH
    }

    fn iterate(&mut self, tracer: Option<&Tracer>) -> Result<Outcome, String> {
        let (opts, specs) = (&self.opts, &self.specs);
        let mut out = Outcome::default();
        let phases = PhaseObserver::default();
        let observer: &dyn Observer = if tracer.is_some() { &phases } else { &NullObserver };
        let progress = [Progress::new(), Progress::new(), Progress::new()];
        let run_opts =
            |i: usize| RunOptions::new(self.exec).observer(observer).progress(&progress[i]);
        let err = |e: vrd_core::checkpoint::CheckpointError| e.to_string();
        let t = tracer;
        let mut digest = Digest::default();
        let mut render = |id: &str, text: String| digest.add(id, text.as_bytes());

        let start = Instant::now();
        let f =
            span(t, "campaign.foundational", || foundational::run_with(opts, specs, &run_opts(0)))
                .map_err(err)?;
        let d = span(t, "campaign.in_depth", || indepth::run_with(opts, specs, &run_opts(1)))
            .map_err(err)?;
        let disc = span(t, "discovery", || discovery_exp::run_with(opts, specs, &run_opts(2)))
            .map_err(err)?;
        let gb = span(t, "guardband", || guardband_exp::run(opts));
        let (t3, t3_paper) = span(t, "ecc", || {
            let measured = guardband_exp::worst_margin_ber(&gb, 0.1);
            let ber = if measured > 0.0 { measured } else { vrd_ecc::analysis::PAPER_WORST_BER };
            (ecc_exp::run(ber, ECC_TRIALS, opts.seed), ecc_exp::run_paper(ECC_TRIALS, opts.seed))
        });
        let fam = span(t, "family", || family_exp::run_with(opts, specs.clone()));
        let stats = |f: &dyn Fn() -> String| span(t, "stats", f);
        render("fig1", stats(&|| foundational::render_fig1(&f)));
        render("fig3", stats(&|| foundational::render_fig3(&f)));
        render("fig4", stats(&|| foundational::render_fig4(&f)));
        render("fig5", stats(&|| foundational::render_fig5(&f)));
        render("fig6", stats(&|| foundational::render_fig6(&f)));
        render("fig7", stats(&|| indepth::render_fig7(&d)));
        render("fig8", stats(&|| mc::render_fig8(&d)));
        render("fig9", stats(&|| indepth::render_fig9(&d)));
        render("fig10", stats(&|| indepth::render_fig10(&d)));
        render("fig11", stats(&|| indepth::render_fig11(&d)));
        render("fig12", stats(&|| indepth::render_fig12(&d)));
        render("fig13", stats(&|| indepth::render_fig13(&d)));
        render("fig15", stats(&|| mc::render_fig15(&d)));
        render("fig16", stats(&|| guardband_exp::render_fig16(&gb)));
        render("fig25", stats(&|| mc::render_fig25(&d)));
        render("tab3", stats(&|| ecc_exp::render(&t3)));
        render("tab3-paper", stats(&|| ecc_exp::render(&t3_paper)));
        render("tab7", stats(&|| indepth::render_table7(&d)));
        render("discovery", stats(&|| discovery_exp::render(&disc)));
        render("family", stats(&|| family_exp::render_family(&fam)));
        let checks = span(t, "stats", || {
            let mut checks = findings::check_foundational(&f);
            checks.extend(findings::check_indepth(&d));
            checks.extend(findings::check_cells(&d));
            checks.extend(findings::check_family(&fam));
            checks
        });
        out.wall = start.elapsed();

        check_findings(&mut out, &mut digest, &checks);
        check_modules(
            &mut out,
            "foundational",
            specs,
            f.per_module.iter().map(|m| m.module.as_str()),
        );
        check_modules(&mut out, "in-depth", specs, d.per_module.iter().map(|m| m.module.as_str()));
        check_modules(
            &mut out,
            "discovery",
            specs,
            disc.per_module.iter().map(|m| m.module.as_str()),
        );
        check_modules(&mut out, "guardband", specs, gb.per_module.iter().map(|(m, _)| m.as_str()));
        check_modules(&mut out, "family", specs, fam.per_module.iter().map(|m| m.module.as_str()));
        for (i, name) in ["foundational", "in_depth", "discovery"].iter().enumerate() {
            count_progress(&mut out, name, &progress[i]);
        }
        let disc_rows: Vec<_> = disc.per_module.iter().flat_map(|m| &m.rows).collect();
        let disc_epochs: u64 = disc_rows.iter().map(|r| u64::from(r.epochs_used)).sum();
        let gb_rows: usize = gb.per_module.iter().map(|(_, rows)| rows.len()).sum();
        out.count("discovery.rows", disc_rows.len() as u64);
        out.count("discovery.epochs", disc_epochs);
        out.count("guardband.rows", gb_rows as u64);
        digest.add_json("foundational", &f);
        digest.add_json("in_depth", &d);
        digest.add_json("discovery.study", &disc);
        digest.add_json("guardband", &gb);
        digest.add_json("tab3", &(&t3, &t3_paper));
        digest.add_json("family.study", &fam);
        out.count("outputs.digest", digest.value());

        if let Some(t) = tracer {
            let replay = Replay::foundational(
                specs,
                &foundational::config(opts),
                &self.exec,
                &f.per_module,
            )?;
            let l = &mut out.layers;
            replay.record(l);
            let units = phases.unit_wall_ns();
            let unit_ms: Vec<f64> = units.iter().map(|&ns| ns as f64 / 1e6).collect();
            l.insert("exec.units", units.len() as f64);
            l.insert("exec.unit_p50_ms", if unit_ms.is_empty() { 0.0 } else { median(&unit_ms) });
            l.insert("exec.select_s", phases.phase_s("select"));
            l.insert("exec.measure_s", phases.phase_s("measure") + phases.phase_s("discover"));
            l.insert("campaign.foundational_s", t.busy_s("campaign.foundational"));
            l.insert("campaign.in_depth_s", t.busy_s("campaign.in_depth"));
            l.insert("discovery.rows", disc_rows.len() as f64);
            l.insert("discovery.epochs", disc_epochs as f64);
            l.insert("discovery.busy_s", t.busy_s("discovery"));
            l.insert("guardband.rows", gb_rows as f64);
            l.insert("guardband.busy_s", t.busy_s("guardband"));
            l.insert("ecc.codewords", (2 * ECC_TRIALS) as f64 * DECODES_PER_TRIAL as f64);
            l.insert("ecc.busy_s", t.busy_s("ecc"));
            l.insert("family.busy_s", t.busy_s("family"));
            l.insert("stats.calls", t.total("stats").calls as f64);
            l.insert("stats.busy_s", t.busy_s("stats"));
        }
        Ok(out)
    }
}
