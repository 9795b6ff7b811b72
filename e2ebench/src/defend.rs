//! The `defend` workload: defense evaluations fed by one
//! characterization.
//!
//! Set-up runs a small foundational and in-depth characterization,
//! derives the mitigation profile from it, and saves and reloads the
//! profile, the way `MitigationProfile::save`/`load` lets one
//! characterization feed many defense evaluations. Each iteration runs
//! the Fig.-14 grid, the spatial-aware defenses sweep with findings
//! F18/F19, and the guardband security sweep, and renders all three.
//! Almost all of that time is spent in the memory-system and attack
//! simulators. The seed picks only the characterization's campaign seed
//! (the root of its unit seeds), which moves the measured RDT
//! distribution the defenses are evaluated against; the roster, the
//! device seed, every other seed and every size are fixed.

use std::path::{Path, PathBuf};
use std::time::Instant;

use vrd_core::exec::{ExecConfig, Progress};
use vrd_core::run::RunOptions;
use vrd_dram::spatial::SpatialProfile;
use vrd_dram::{Module, ModuleSpec};
use vrd_experiments::extensions::{self, SecurityRow};
use vrd_experiments::foundational::FoundationalStudy;
use vrd_experiments::indepth::InDepthStudy;
use vrd_experiments::memsim_exp::{self, Fig14Point, Fig14Result, MARGINS, RDT_VALUES};
use vrd_experiments::sweep_exp::{self, SweepStudy, GUARDBANDS, RDT_TARGETS, SWEEP_REGIONS};
use vrd_experiments::{findings, foundational, indepth, Options};
use vrd_memsim::workload::WorkloadParams;
use vrd_memsim::{MitigationKind, MitigationProfile, SimConfig, System};

use crate::characterize::{
    build_roster, campaign_exec, check_findings, check_modules, count_progress,
};
use crate::counters::Digest;
use crate::trace::{span, Tracer};
use crate::{Outcome, Workload};

/// The characterized roster (one DDR4 module).
pub const ROSTER: [&str; 1] = ["M1"];

/// Attacker activations per `simulate_attack` in
/// `extensions::security` (fixed there).
pub const SECURITY_ACTIVATIONS: u64 = 4_000_000;

/// Margins per security sweep (fixed in `security_sweep`).
const SECURITY_MARGINS: u64 = 4;

/// Consecutive set-ups averaged into one `setup_s` sample: a set-up
/// takes tens of milliseconds, and samples that short vary several-fold
/// within a run.
const SETUP_BATCH: u32 = 4;

/// Spatial-attack configurations per sweep point (naive, uniform,
/// profiled).
const VARIANTS: u64 = 3;

/// The scale of the characterization and of the defense evaluations.
/// `seed` is the device seed and also seeds the workload mixes and the
/// attack draws; like every device seed it is fixed.
pub fn options() -> Options {
    Options {
        modules: ROSTER.iter().map(|&m| m.to_owned()).collect(),
        foundational_measurements: 400,
        indepth_measurements: 40,
        picks_per_segment: 2,
        segment_rows: 48,
        mixes: 1,
        sim_cycles: 40_000,
        sweep_activations: 30_000,
        region_rows: 512,
        seed: crate::characterize::DEVICE_SEED,
        row_bytes: 512,
        threads: 1,
        ..Options::default()
    }
}

/// Summed statistics of the memory-system runs of one grid.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct SystemTotals {
    runs: u64,
    sim_ns: u64,
    activations: u64,
    preventive_ops: u64,
}

/// The Fig.-14 grid computed call by call through `System::run_mix`,
/// in the order and with the seeds `memsim_exp::run` uses, so that the
/// memory-system runs can be counted. Its result must equal
/// `memsim_exp::run`'s; it is computed once per run, at set-up, and
/// never timed.
fn fig14_grid(opts: &Options) -> (Fig14Result, SystemTotals) {
    let mixes: Vec<[WorkloadParams; 4]> =
        WorkloadParams::paper_mixes().into_iter().take(opts.mixes.max(1)).collect();
    let mut totals = SystemTotals::default();
    let mut points = Vec::new();
    for &rdt in &RDT_VALUES {
        for &margin in &MARGINS {
            let effective = (f64::from(rdt) * (1.0 - margin)).round().max(1.0) as u32;
            for kind in MitigationKind::EVALUATED {
                let mut sum = 0.0;
                for (mix_idx, mix) in mixes.iter().enumerate() {
                    let cfg = SimConfig { cycles: opts.sim_cycles, banks: 16, mix: *mix };
                    let seed = opts.seed ^ ((mix_idx as u64) << 16);
                    let mut run = |kind| {
                        let stats = System::run_mix(&cfg, kind, effective, seed);
                        totals.runs += 1;
                        totals.sim_ns += stats.cycles;
                        totals.activations += stats.activations;
                        totals.preventive_ops += stats.preventive_ops;
                        stats
                    };
                    let baseline = run(MitigationKind::None);
                    let mitigated = run(kind);
                    sum += mitigated.weighted_ipc(&baseline);
                }
                points.push(Fig14Point {
                    mitigation: kind,
                    rdt,
                    margin,
                    effective_threshold: effective,
                    normalized_performance: sum / mixes.len() as f64,
                });
            }
        }
    }
    (Fig14Result { points, mixes: mixes.len() }, totals)
}

/// Rebuilds the sweep's profiles (the measured one and, per RDT target
/// and guardband, the profiled, uniform and naive ones), returning the
/// number built and whether the measured one equals the sweep's. The
/// sweep builds the same profiles inside `sweep_exp::run_with`, where no
/// timer reaches; the traced run times this replay instead.
fn replay_profiles(sweep: &SweepStudy) -> (u64, bool) {
    let spatial = SpatialProfile::wide();
    let build = |rdt, guardband| {
        MitigationProfile::from_characterization(
            sweep.module.clone(),
            rdt,
            &spatial,
            sweep.device_seed,
            sweep.rows_covered,
            sweep.region_rows,
            guardband,
        )
    };
    let measured = build(sweep.measured_min_rdt, 1.0);
    let mut builds = 1;
    for &target in &RDT_TARGETS {
        for &guardband in &GUARDBANDS {
            let profiled = build(target, guardband);
            std::hint::black_box(MitigationProfile::flat(profiled.min_threshold()));
            std::hint::black_box(MitigationProfile::flat(profiled.max_region_threshold()));
            builds += 3;
        }
    }
    (builds, measured == sweep.profile)
}

/// Saves and reloads a profile; `true` when it survives unchanged.
fn round_trip(profile: &MitigationProfile, path: &Path) -> Result<bool, String> {
    profile.save(path).map_err(|e| format!("save {}: {e}", path.display()))?;
    let loaded =
        MitigationProfile::load(path).map_err(|e| format!("load {}: {e}", path.display()))?;
    Ok(&loaded == profile)
}

/// Escapes of one security row, recovered from its per-million rates.
fn security_escapes(rows: &[SecurityRow]) -> u64 {
    rows.iter()
        .flat_map(|r| &r.points)
        .map(|&(_, _, per_million)| {
            (per_million * SECURITY_ACTIVATIONS as f64 / 1e6).round() as u64
        })
        .sum()
}

/// The workload.
pub struct Defend {
    opts: Options,
    exec: ExecConfig,
    state: PathBuf,
    specs: Vec<ModuleSpec>,
    foundational: Option<FoundationalStudy>,
    in_depth: Option<InDepthStudy>,
    profile: Option<MitigationProfile>,
    grid_totals: Option<SystemTotals>,
}

impl Defend {
    /// The workload's inputs for one benchmark seed; `state` is the
    /// directory profiles are saved to.
    pub fn new(seed: u64, state: PathBuf) -> Self {
        let opts = options();
        Defend {
            exec: campaign_exec(&opts, seed),
            opts,
            state,
            specs: Vec::new(),
            foundational: None,
            in_depth: None,
            profile: None,
            grid_totals: None,
        }
    }

    /// Checks once per run that the call-by-call grid equals
    /// `memsim_exp::run`, and keeps the grid's memory-system totals, which
    /// every iteration's `memsim_exp::run` repeats exactly.
    fn verify_grid(&mut self, out: &mut Outcome) {
        if self.grid_totals.is_some() {
            return;
        }
        let (grid, totals) = fig14_grid(&self.opts);
        let reference = memsim_exp::run(&self.opts);
        let json = |r: &Fig14Result| serde_json::to_string(r).expect("grid serializes");
        out.check(json(&grid) == json(&reference), || {
            "the call-by-call Fig.-14 grid differs from memsim_exp::run".to_owned()
        });
        self.grid_totals = Some(totals);
    }

    fn profile_path(&self) -> PathBuf {
        self.state.join("mitigation_profile.json")
    }
}

/// Records the memory-system counters of one grid.
fn count_grid(out: &mut Outcome, t: &SystemTotals) {
    out.count("memsim.system.runs", t.runs);
    out.count("memsim.system.sim_ns", t.sim_ns);
    out.count("memsim.system.activations", t.activations);
    out.count("memsim.system.preventive_ops", t.preventive_ops);
}

impl Workload for Defend {
    fn inputs(&self) -> String {
        let opts = serde_json::to_string(&self.opts).expect("options serialize");
        format!("{opts}\ncampaign_seed {}\n", self.exec.campaign_seed)
    }

    fn setup_batch(&self) -> u32 {
        SETUP_BATCH
    }

    fn setup(&mut self, tracer: Option<&Tracer>) -> Result<Outcome, String> {
        std::fs::create_dir_all(&self.state)
            .map_err(|e| format!("create {}: {e}", self.state.display()))?;
        let mut out = Outcome::default();
        let progress = [Progress::new(), Progress::new()];
        let run_opts = |i: usize| RunOptions::new(self.exec).progress(&progress[i]);
        let err = |e: vrd_core::checkpoint::CheckpointError| e.to_string();
        let opts = &self.opts;

        let start = Instant::now();
        let specs = build_roster(opts, tracer, &mut out);
        let f = span(tracer, "campaign.foundational", || {
            foundational::run_with(opts, &specs, &run_opts(0))
        })
        .map_err(err)?;
        let d = span(tracer, "campaign.in_depth", || indepth::run_with(opts, &specs, &run_opts(1)))
            .map_err(err)?;
        let (module, measured_min) = d
            .per_module
            .iter()
            .find_map(|m| {
                let min = m
                    .rows
                    .iter()
                    .flat_map(|r| &r.per_condition)
                    .flat_map(|c| c.series.values().iter().copied())
                    .min()?;
                Some((m.module.clone(), min))
            })
            .ok_or("the characterization measured no RDT series")?;
        let spec = specs.iter().find(|s| s.name == module).cloned().ok_or("unknown module")?;
        let device_seed =
            Module::new_with_row_bytes(spec, opts.seed, opts.row_bytes).device().seed();
        let region_rows = opts.region_rows.max(1);
        let profile = span(tracer, "memsim.profile", || {
            MitigationProfile::from_characterization(
                module,
                measured_min,
                &SpatialProfile::wide(),
                device_seed,
                region_rows.saturating_mul(SWEEP_REGIONS),
                region_rows,
                1.0,
            )
        });
        let survived = round_trip(&profile, &self.profile_path())?;
        out.wall = start.elapsed();

        out.check(survived, || "the mitigation profile did not survive save/load".to_owned());
        check_modules(
            &mut out,
            "foundational",
            &specs,
            f.per_module.iter().map(|m| m.module.as_str()),
        );
        check_modules(&mut out, "in-depth", &specs, d.per_module.iter().map(|m| m.module.as_str()));
        for (i, name) in ["foundational", "in_depth"].iter().enumerate() {
            count_progress(&mut out, name, &progress[i]);
        }
        let mut digest = Digest::default();
        digest.add_json("foundational", &f);
        digest.add_json("in_depth", &d);
        digest.add("profile", profile.to_json().as_bytes());
        out.count("setup.digest", digest.value());
        if let Some(t) = tracer {
            let replay = crate::replay::Replay::foundational(
                &specs,
                &foundational::config(opts),
                &self.exec,
                &f.per_module,
            )?;
            replay.record(&mut out.layers);
            out.layers.insert("campaign.foundational_s", t.busy_s("campaign.foundational"));
            out.layers.insert("campaign.in_depth_s", t.busy_s("campaign.in_depth"));
        }
        self.specs = specs;
        self.foundational = Some(f);
        self.in_depth = Some(d);
        self.profile = Some(profile);
        self.verify_grid(&mut out);
        Ok(out)
    }

    fn iterate(&mut self, tracer: Option<&Tracer>) -> Result<Outcome, String> {
        let (Some(f), Some(d), Some(profile), Some(verified)) =
            (&self.foundational, &self.in_depth, &self.profile, self.grid_totals)
        else {
            return Err("iteration before set-up".into());
        };
        let opts = &self.opts;
        let mut out = Outcome::default();
        let mut digest = Digest::default();
        let t = tracer;

        let start = Instant::now();
        let fig14 = span(t, "memsim.system", || memsim_exp::run(opts));
        let sweep = span(t, "memsim.spatial", || sweep_exp::run_with(opts, &self.specs, d));
        let security = span(t, "memsim.security", || extensions::security(f, opts));
        let stats = |f: &dyn Fn() -> String| span(t, "stats", f);
        digest.add("fig14", stats(&|| memsim_exp::render(&fig14)).as_bytes());
        digest.add("memsim-sweep", stats(&|| sweep_exp::render(&sweep)).as_bytes());
        digest.add("security", stats(&|| extensions::render_security(&security)).as_bytes());
        let checks = span(t, "stats", || findings::check_sweep(&sweep));
        out.wall = start.elapsed();

        let replay_start = Instant::now();
        let (builds, rebuilt) = replay_profiles(&sweep);
        let profile_s = replay_start.elapsed().as_secs_f64();
        let survived = round_trip(&sweep.profile, &self.profile_path())?;

        check_findings(&mut out, &mut digest, &checks);
        let cells = RDT_VALUES.len() * MARGINS.len() * MitigationKind::EVALUATED.len();
        out.check(
            fig14.points.len() == cells
                && fig14.points.iter().all(|p| {
                    p.normalized_performance.is_finite() && p.normalized_performance > 0.0
                }),
            || format!("incomplete Fig.-14 grid: {} of {cells} cells", fig14.points.len()),
        );
        out.check(survived, || "the swept mitigation profile did not survive save/load".to_owned());
        out.check(rebuilt && &sweep.profile == profile, || {
            "the sweep's profile differs from the set-up's saved profile".to_owned()
        });
        out.check(!security.is_empty(), || "the security sweep produced no rows".to_owned());
        check_modules(
            &mut out,
            "memsim-sweep",
            &self.specs,
            std::iter::once(sweep.module.as_str()),
        );
        check_modules(
            &mut out,
            "security",
            &self.specs,
            security.iter().map(|r| r.module.as_str()),
        );

        count_grid(&mut out, &verified);
        let outcomes = sweep.points.iter().flat_map(|p| [p.naive, p.uniform, p.profiled]);
        let spatial_acts = sweep.points.len() as u64 * VARIANTS * sweep.activations;
        let actions: u64 = outcomes.clone().map(|o| o.actions).sum();
        let escapes: u64 = outcomes.map(|o| o.escapes).sum();
        let security_acts = security.len() as u64 * SECURITY_MARGINS * SECURITY_ACTIVATIONS;
        let security_escapes = security_escapes(&security);
        out.count("memsim.spatial.activations", spatial_acts);
        out.count("memsim.spatial.actions", actions);
        out.count("memsim.spatial.escapes", escapes);
        out.count("memsim.security.activations", security_acts);
        out.count("memsim.security.escapes", security_escapes);
        out.count("memsim.profile.builds", builds);
        digest.add_json("fig14.result", &fig14);
        digest.add_json("memsim-sweep.study", &sweep);
        digest.add_json("security.rows", &security);
        out.count("outputs.digest", digest.value());

        if let Some(t) = tracer {
            let l = &mut out.layers;
            let per = |busy: f64, n: u64| if n == 0 { 0.0 } else { busy * 1e9 / n as f64 };
            let system_s = t.busy_s("memsim.system");
            l.insert("memsim.system.runs", verified.runs as f64);
            l.insert("memsim.system.busy_s", system_s);
            l.insert("memsim.system.sim_ns", verified.sim_ns as f64);
            l.insert("memsim.system.activations", verified.activations as f64);
            l.insert("memsim.system.preventive_ops", verified.preventive_ops as f64);
            l.insert("memsim.system.host_ns_per_sim_ns", per(system_s, verified.sim_ns));
            let spatial_s = t.busy_s("memsim.spatial");
            l.insert("memsim.spatial.busy_s", spatial_s);
            l.insert("memsim.spatial.activations", spatial_acts as f64);
            l.insert("memsim.spatial.actions", actions as f64);
            l.insert("memsim.spatial.escapes", escapes as f64);
            l.insert("memsim.spatial.host_ns_per_act", per(spatial_s, spatial_acts));
            let security_s = t.busy_s("memsim.security");
            l.insert("memsim.security.busy_s", security_s);
            l.insert("memsim.security.activations", security_acts as f64);
            l.insert("memsim.security.escapes", security_escapes as f64);
            l.insert("memsim.security.host_ns_per_act", per(security_s, security_acts));
            l.insert("memsim.profile.builds", builds as f64);
            l.insert("memsim.profile.busy_s", profile_s);
            l.insert("stats.calls", t.total("stats").calls as f64);
            l.insert("stats.busy_s", t.busy_s("stats"));
        }
        Ok(out)
    }
}
