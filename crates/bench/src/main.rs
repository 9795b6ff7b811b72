//! `vrd-bench`: the repository's one gate binary.
//!
//! One run executes seven suites and a few ungated timings and writes
//! one record list:
//!
//! - `rdt_search`: the linear vs adaptive RDT search on identically
//!   seeded platforms. Both must measure the same series, and adaptive
//!   may spend at most a quarter of linear's hammer sessions.
//! - `batch`: scalar vs batch device evaluation. Both must measure the
//!   same series with the same sessions, and batch must be at least 5×
//!   faster on best-of walls.
//! - `discovery`: the early-stopping discovery campaign against the
//!   fixed in-depth epoch budget it must stay sound against.
//! - `memsim_sweep`: the spatial-aware defenses crossover (F18/F19).
//! - `memsim_spatial`: one attack per evaluated mechanism on the
//!   sweep's 8 victims under its profile, a round-robin cycle of rows.
//!   Graphene, PRAC and MINT absorb each quiet stretch of the cycle in
//!   one run-length hook call, so they may make at most one call per 50
//!   activations; PARA's calls and every attack's ns per activation are
//!   recorded ungated.
//! - `memsim_security`: one 4M-activation single-victim attack per
//!   Graphene, PRAC and PARA, as the security sweep runs them, gated the
//!   same way on Graphene and PRAC.
//! - `memsim_system`: the Fig.-14 grid over one mix, as
//!   `memsim_exp::run` simulates it (one unmitigated baseline, then every
//!   evaluated mechanism at every RDT and margin). Its run count,
//!   simulated ns, activations and preventive operations are
//!   deterministic counts, and host ns per simulated ns is an ungated
//!   best-of-3.
//! - `fleet`: fair-share scheduler replay, dispatch-once, bounded wait
//!   and overhead at 1k/4k/10k jobs, plus an in-process service drain on
//!   one and two workers.
//!
//! Each record is `{name, layer, unit, value, baseline, gate}`. `layer`
//! uses the end-to-end benchmark's layer names, `baseline` is the
//! reference path's figure or null, and `gate` is null or one bound on
//! `value`. The binary exits 1 if any gate fails and 2 on a bad
//! argument.
//!
//! ```text
//! cargo run --release -p vrd-bench -- [--out BENCH_records.json]
//! ```
//!
//! Every suite input is a constant below; `--out` is the only option.
//! The gated figures are deterministic counts, except the batch speedup
//! and the scheduler's ns/op, which are wall-time ratios over best-of
//! samples with wide margins (measured ~6× against 5×, and µs against a
//! 1 ms ceiling).

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use vrd_bender::estimate::{
    one_measurement_energy_nj, one_measurement_time_ns, CampaignSpec, EnergyModel, MeasurementSpec,
};
use vrd_bender::{TestPlatform, TimingParams};
use vrd_core::algorithm::{find_victim, test_loop_using, EvalStrategy, SearchStrategy, SweepSpec};
use vrd_core::campaign::{in_depth_campaign, InDepthConfig};
use vrd_core::discovery::{discovery_campaign, DiscoveryConfig};
use vrd_core::exec::{execute, ExecConfig, Unit, UnitKey};
use vrd_core::obs::metrics::MetricsSink;
use vrd_core::run::RunOptions;
use vrd_core::scheduler::{replay, FairShareScheduler, Priority};
use vrd_core::RdtSeries;
use vrd_dram::fleet::synthetic_specs;
use vrd_dram::{ModuleSpec, TestConditions};
use vrd_experiments::memsim_exp::{effective_threshold, MARGINS, RDT_VALUES};
use vrd_experiments::serve::{JobKind, JobSpec, JobState, ServeConfig, Service};
use vrd_experiments::studies::Studies;
use vrd_experiments::sweep_exp::{covered_actions, covered_points};
use vrd_experiments::{findings, Options};
use vrd_memsim::mitigation::{Mitigation, MitigationAction, MitigationKind};
use vrd_memsim::security::{simulate_attack, AttackConfig, SpatialVictim};
use vrd_memsim::{MitigationProfile, SimConfig, System};

/// Seed of every suite.
const SEED: u64 = 2025;
/// Modules covering the three vendors' Table-1 stochastic profiles.
const MODULES: [&str; 3] = ["M1", "S0", "Chip1"];
/// RDT measurements per module in the `rdt_search` and `batch` suites.
const MEASUREMENTS: u32 = 40;
/// Epochs per row of the fixed budget discovery is compared against.
const FIXED_BUDGET: u32 = 300;
/// In-depth measurements behind the defenses sweep's profile.
const SWEEP_INDEPTH: u32 = 80;
/// Attack activations per defenses-sweep cell.
const SWEEP_ACTIVATIONS: u64 = 120_000;
/// Activations of each memsim_security attack (the security sweep's).
const SECURITY_ACTIVATIONS: u64 = 4_000_000;
/// The mechanisms the security sweep attacks.
const SECURITY_KINDS: [MitigationKind; 3] =
    [MitigationKind::Graphene, MitigationKind::Prac, MitigationKind::Para];
/// Timed repetitions of each memsim_security and memsim_spatial attack.
const ATTACK_REPS: usize = 3;
/// Simulated nanoseconds of each memory-system run in the grid.
const SYSTEM_CYCLES: u64 = 40_000;
/// Timed repetitions of the memory-system grid.
const SYSTEM_REPS: usize = 3;
/// Scheduler queue depths (one job per fleet module).
const FLEET_SIZES: [usize; 3] = [1_000, 4_000, 10_000];
const TENANTS: [&str; 8] = ["alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"];
/// Foundational jobs in the in-process service drain.
const SERVICE_JOBS: usize = 6;
/// Measured time each batch-suite strategy accumulates per module, so
/// its median and spread rest on many samples.
const BATCH_WINDOW: Duration = Duration::from_millis(20);
/// Samples behind each best-of figure outside the batch suite.
const TIMING_REPS: usize = 10;
/// Observed/unobserved campaign pairs behind the observer-overhead ratio.
const OBSERVER_PAIRS: usize = 20;
/// Calls per sample of the nanosecond-scale estimator timings.
const ESTIMATE_CALLS: u32 = 100_000;
/// `next_u64` draws per sample of the generator timing.
const RNG_DRAWS: u32 = 16_000_000;
/// Samples behind the generator timing.
const RNG_REPS: usize = 5;

/// Adaptive search spends at most 1/4 of linear's sessions.
const MIN_SESSION_REDUCTION: f64 = 4.0;
/// Batch evaluation's best-of speedup over scalar.
const MIN_BATCH_SPEEDUP: f64 = 5.0;
/// Fixed-over-spent discovery epochs.
const MIN_DISCOVERY_SAVINGS: f64 = 2.0;
/// Uniform-over-profiled mitigation actions on the covered cells.
const MIN_ACTION_RATIO: f64 = 1.2;
/// Bounded wait: between two dispatches of a backlogged tenant no other
/// tenant appears more than twice.
const MAX_INTERLEAVE: f64 = 2.0;
/// Mean scheduler overhead per op; catches only quadratic blowups.
const MAX_NS_PER_OP: f64 = 1_000_000.0;
/// Attack activations per run-length hook call, at least, for the
/// mechanisms whose quiet stretches have a closed form.
const MIN_ACTS_PER_CALL: f64 = 50.0;
/// The mechanisms held to `MIN_ACTS_PER_CALL` on the sweep's attack
/// (PARA draws once per activation).
const SPATIAL_GATED: [MitigationKind; 3] =
    [MitigationKind::Graphene, MitigationKind::Prac, MitigationKind::Mint];
/// The mechanisms held to `MIN_ACTS_PER_CALL` on the security attack.
const SECURITY_GATED: [MitigationKind; 2] = [MitigationKind::Graphene, MitigationKind::Prac];

/// One bound on a record's value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Gate {
    /// Passes when `value >= bound`.
    AtLeast(f64),
    /// Passes when `value <= bound`.
    AtMost(f64),
}

impl Gate {
    /// NaN fails either bound.
    fn passes(self, value: f64) -> bool {
        match self {
            Gate::AtLeast(bound) => value >= bound,
            Gate::AtMost(bound) => value <= bound,
        }
    }
}

/// One measured figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    name: String,
    layer: String,
    unit: String,
    value: f64,
    baseline: Option<f64>,
    gate: Option<Gate>,
}

impl Record {
    fn new(name: impl Into<String>, layer: &str, unit: &str, value: f64) -> Self {
        Record {
            name: name.into(),
            layer: layer.to_owned(),
            unit: unit.to_owned(),
            value,
            baseline: None,
            gate: None,
        }
    }

    /// A property recorded as 1 (holds) or 0, gated on holding.
    fn holds(name: impl Into<String>, layer: &str, holds: bool) -> Self {
        Record::new(name, layer, "bool", f64::from(u8::from(holds))).gate(Gate::AtLeast(1.0))
    }

    fn baseline(self, baseline: f64) -> Self {
        Record { baseline: Some(baseline), ..self }
    }

    fn gate(self, gate: Gate) -> Self {
        Record { gate: Some(gate), ..self }
    }

    fn passes(&self) -> bool {
        self.gate.is_none_or(|gate| gate.passes(self.value))
    }
}

/// Every measurement one run takes, before it becomes records.
struct Runs {
    search: Vec<Comparison>,
    batch: Vec<Comparison>,
    discovery: Vec<DiscoveryRun>,
    sweep: SweepRun,
    spatial: Vec<AttackRun>,
    security: Vec<AttackRun>,
    system: SystemRun,
    scheduler: Vec<SchedulerRun>,
    service: ServiceRun,
    timings: Timings,
}

/// One module's reference path (linear search, scalar eval) against the
/// product path (adaptive search, batch eval).
struct Comparison {
    module: &'static str,
    /// The two paths measured the same series (and, for `batch`, spent
    /// the same sessions).
    identical: bool,
    reference_sessions: u64,
    product_sessions: u64,
    /// Wall-time samples of each path's `test_loop`, in ms.
    reference_ms: Vec<f64>,
    product_ms: Vec<f64>,
}

struct DiscoveryRun {
    module: &'static str,
    rows: usize,
    epochs_spent: u64,
    /// `rows * FIXED_BUDGET`.
    fixed_epochs: u64,
    /// Rows whose bound the fixed-budget replay's minimum undercuts.
    violations: usize,
    /// The confidence the rows record they were stopped at.
    confidence: f64,
    wall_ms: f64,
}

struct SweepRun {
    f18: bool,
    f19: bool,
    uniform_actions: u64,
    profiled_actions: u64,
    covered_cells: usize,
    wall_ms: f64,
}

/// One mechanism's attack, repeated for timing.
struct AttackRun {
    kind: MitigationKind,
    /// Activations the mechanism performed, summed over its hook calls.
    activations: u64,
    /// `on_activate` calls the attack made.
    calls: u64,
    /// Wall-time samples of the attack, in ms.
    wall_ms: Vec<f64>,
}

/// The memory-system grid's summed statistics.
struct SystemRun {
    /// `System::run_mix` calls of one grid.
    runs: u64,
    /// The calls with a baseline run for every cell.
    per_cell_runs: u64,
    sim_ns: u64,
    activations: u64,
    preventive_ops: u64,
    /// Wall-time samples of the grid, in ms.
    wall_ms: Vec<f64>,
}

struct SchedulerRun {
    fleet_size: usize,
    replay_identical: bool,
    dispatch_once: bool,
    max_interleave: usize,
    ns_per_op: f64,
}

struct ServiceRun {
    wall_ms_one_worker: f64,
    wall_ms_two_workers: f64,
    all_done: bool,
    dispatch_invariant: bool,
}

/// Timings no e2ebench per-layer metric reports.
struct Timings {
    in_depth_threads_1_ms: f64,
    in_depth_threads_4_ms: f64,
    /// Observed over unobserved wall time of each back-to-back pair of
    /// 4-thread campaigns.
    observer_ratios: Vec<f64>,
    executor_ns_per_unit: f64,
    /// `one_measurement_time_ns`, `one_measurement_energy_nj` and
    /// `CampaignSpec::total_time_ns`, ns per call.
    estimate_ns: [f64; 3],
    /// `StdRng::next_u64`, ns per draw.
    rng_ns_per_u64: f64,
}

fn main() -> ExitCode {
    let out = match parse_out(std::env::args().skip(1)) {
        Ok(out) => out,
        Err(message) => {
            eprintln!("vrd-bench: {message}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let records = records(&measure());
    let json = serde_json::to_string_pretty(&records).expect("records serialize");
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("vrd-bench: writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    for r in &records {
        let baseline = r.baseline.map_or("-".to_owned(), |b| format!("{b:.4}"));
        let (gate, verdict) = match r.gate {
            None => ("-".to_owned(), "-"),
            Some(Gate::AtLeast(b)) => (format!(">= {b}"), if r.passes() { "PASS" } else { "FAIL" }),
            Some(Gate::AtMost(b)) => (format!("<= {b}"), if r.passes() { "PASS" } else { "FAIL" }),
        };
        println!(
            "{:<40} {:<14} {:>14.4} {:>14} {:<9} {:<12} {verdict}",
            r.name, r.layer, r.value, baseline, r.unit, gate
        );
    }
    println!("{} records in {:.1} s -> {out}", records.len(), started.elapsed().as_secs_f64());
    let failures = failures(&records);
    for failure in &failures {
        eprintln!("FAIL: {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The output path: `--out PATH`, the only option.
fn parse_out(args: impl IntoIterator<Item = String>) -> Result<String, String> {
    let mut out = "BENCH_records.json".to_owned();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().ok_or("--out requires a path")?,
            other => return Err(format!("unknown argument: {other} (the only option is --out)")),
        }
    }
    Ok(out)
}

/// Duplicate names and failed gates, one line each.
fn failures(records: &[Record]) -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut failures = Vec::new();
    for r in records {
        if !seen.insert(r.name.as_str()) {
            failures.push(format!("duplicate record name {}", r.name));
        }
        if !r.passes() {
            failures.push(format!("{} = {} fails its gate {:?}", r.name, r.value, r.gate));
        }
    }
    failures
}

fn measure() -> Runs {
    let series = run_loop("M1", SearchStrategy::Adaptive, EvalStrategy::Batch).series;
    let (sweep, spatial) = measure_sweep(series.values());
    Runs {
        search: MODULES.map(measure_search).into(),
        batch: MODULES.map(measure_batch).into(),
        discovery: MODULES.map(measure_discovery).into(),
        sweep,
        spatial,
        security: measure_security(series.values()),
        system: measure_system(),
        scheduler: FLEET_SIZES.map(measure_scheduler).into(),
        service: measure_service(),
        timings: measure_timings(),
    }
}

fn records(runs: &Runs) -> Vec<Record> {
    let mut records = search_records(&runs.search);
    records.extend(batch_records(&runs.batch));
    records.extend(discovery_records(&runs.discovery));
    records.extend(sweep_records(&runs.sweep));
    records.extend(attack_records(
        "memsim_spatial",
        "memsim.spatial",
        &SPATIAL_GATED,
        &runs.spatial,
    ));
    records.extend(attack_records(
        "memsim_security",
        "memsim.security",
        &SECURITY_GATED,
        &runs.security,
    ));
    records.extend(system_records(&runs.system));
    records.extend(fleet_records(&runs.scheduler, &runs.service));
    records.extend(timing_records(&runs.timings));
    records
}

fn ms(wall: Duration) -> f64 {
    wall.as_secs_f64() * 1e3
}

fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `p`-th percentile of a non-empty sample.
fn quartile(samples: &[f64], p: f64) -> f64 {
    vrd_stats::percentile(samples, p).expect("samples are non-empty")
}

fn iqr(samples: &[f64]) -> f64 {
    quartile(samples, 75.0) - quartile(samples, 25.0)
}

/// The best of `reps` timed calls.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed()
        })
        .min()
        .expect("reps > 0")
}

// ----- rdt_search and batch -------------------------------------------

/// One `test_loop` on a fresh platform: the series, the hammer sessions
/// it spent and its wall time (victim search excluded).
struct LoopRun {
    series: RdtSeries,
    sessions: u64,
    wall: Duration,
}

fn run_loop(module: &str, search: SearchStrategy, eval: EvalStrategy) -> LoopRun {
    let spec = ModuleSpec::by_name(module).expect("module exists in Table 1");
    let mut platform = TestPlatform::for_module_with_row_bytes(spec, SEED, 512);
    platform.set_temperature_c(50.0);
    let conditions = TestConditions::foundational();
    let (row, guess) =
        find_victim(&mut platform, 0, &conditions, 40_000, 2..20_000).expect("vulnerable row");
    let sweep = SweepSpec::from_guess(guess);
    let before = platform.hammer_sessions();
    let started = Instant::now();
    let series =
        test_loop_using(&mut platform, 0, row, &conditions, MEASUREMENTS, &sweep, search, eval);
    LoopRun { series, sessions: platform.hammer_sessions() - before, wall: started.elapsed() }
}

fn measure_search(module: &'static str) -> Comparison {
    let linear = run_loop(module, SearchStrategy::Linear, EvalStrategy::Batch);
    let adaptive = run_loop(module, SearchStrategy::Adaptive, EvalStrategy::Batch);
    Comparison {
        module,
        identical: linear.series == adaptive.series,
        reference_sessions: linear.sessions,
        product_sessions: adaptive.sessions,
        reference_ms: vec![ms(linear.wall)],
        product_ms: vec![ms(adaptive.wall)],
    }
}

fn search_records(runs: &[Comparison]) -> Vec<Record> {
    let mut records = Vec::new();
    for c in runs {
        let name = |what: &str| format!("rdt_search.{}.{what}", c.module);
        records.push(
            Record::new(name("sessions"), "algorithm", "count", c.product_sessions as f64)
                .baseline(c.reference_sessions as f64),
        );
        records.push(
            Record::new(name("wall_ms"), "algorithm", "ms", best(&c.product_ms))
                .baseline(best(&c.reference_ms)),
        );
    }
    let linear: u64 = runs.iter().map(|c| c.reference_sessions).sum();
    let adaptive: u64 = runs.iter().map(|c| c.product_sessions).sum();
    let mismatches = runs.iter().filter(|c| !c.identical).count();
    records.push(
        Record::new("rdt_search.series_mismatches", "algorithm", "modules", mismatches as f64)
            .gate(Gate::AtMost(0.0)),
    );
    records.push(
        Record::new(
            "rdt_search.session_reduction",
            "algorithm",
            "ratio",
            linear as f64 / (adaptive as f64).max(1.0),
        )
        .gate(Gate::AtLeast(MIN_SESSION_REDUCTION)),
    );
    records
}

/// Repeats one evaluation strategy until its walls add up to
/// [`BATCH_WINDOW`] (at least three runs). Every run is on a fresh,
/// identically seeded platform, so every run does the same work.
fn window(module: &str, eval: EvalStrategy) -> (LoopRun, Vec<f64>) {
    let first = run_loop(module, SearchStrategy::Adaptive, eval);
    let mut total = first.wall;
    let mut walls = vec![ms(first.wall)];
    while total < BATCH_WINDOW || walls.len() < 3 {
        let run = run_loop(module, SearchStrategy::Adaptive, eval);
        total += run.wall;
        walls.push(ms(run.wall));
    }
    (first, walls)
}

fn measure_batch(module: &'static str) -> Comparison {
    let (scalar, scalar_ms) = window(module, EvalStrategy::Scalar);
    let (batch, batch_ms) = window(module, EvalStrategy::Batch);
    Comparison {
        module,
        identical: scalar.series == batch.series && scalar.sessions == batch.sessions,
        reference_sessions: scalar.sessions,
        product_sessions: batch.sessions,
        reference_ms: scalar_ms,
        product_ms: batch_ms,
    }
}

fn batch_records(runs: &[Comparison]) -> Vec<Record> {
    let mut records = Vec::new();
    for c in runs {
        let name = |what: &str| format!("batch.{}.{what}", c.module);
        let (scalar, batch) = (&c.reference_ms, &c.product_ms);
        records.push(
            Record::new(name("best_ms"), "algorithm", "ms", best(batch)).baseline(best(scalar)),
        );
        records.push(
            Record::new(name("median_ms"), "algorithm", "ms", quartile(batch, 50.0))
                .baseline(quartile(scalar, 50.0)),
        );
        records
            .push(Record::new(name("iqr_ms"), "algorithm", "ms", iqr(batch)).baseline(iqr(scalar)));
        records.push(
            Record::new(name("samples"), "algorithm", "count", batch.len() as f64)
                .baseline(scalar.len() as f64),
        );
    }
    let scalar_ms: f64 = runs.iter().map(|c| best(&c.reference_ms)).sum();
    let batch_ms: f64 = runs.iter().map(|c| best(&c.product_ms)).sum();
    let mismatches = runs.iter().filter(|c| !c.identical).count();
    records.push(
        Record::new("batch.mismatches", "algorithm", "modules", mismatches as f64)
            .gate(Gate::AtMost(0.0)),
    );
    records.push(
        Record::new("batch.speedup", "algorithm", "ratio", scalar_ms / batch_ms.max(1e-9))
            .gate(Gate::AtLeast(MIN_BATCH_SPEEDUP)),
    );
    records
}

// ----- discovery --------------------------------------------------------

/// Runs the early-stopping discovery campaign with its ceiling raised
/// to [`FIXED_BUDGET`], then replays the same rows through the
/// fixed-budget in-depth campaign (same seed and selection parameters,
/// so its condition-0 stream extends the discovery stream) to price the
/// epochs saved and check each row's bound.
fn measure_discovery(module: &'static str) -> DiscoveryRun {
    let spec = ModuleSpec::by_name(module).expect("module exists in Table 1");
    let cfg = DiscoveryConfig { seed: SEED, max_epochs: FIXED_BUDGET, ..DiscoveryConfig::quick() };
    let started = Instant::now();
    let discovery = discovery_campaign(
        std::slice::from_ref(&spec),
        &cfg,
        &RunOptions::new(ExecConfig::new(1, cfg.seed)),
    )
    .expect("plain run cannot fail")
    .remove(0);
    let wall_ms = ms(started.elapsed());

    let indepth_cfg =
        InDepthConfig { seed: SEED, measurements: FIXED_BUDGET, ..InDepthConfig::quick() };
    let opts = RunOptions::new(ExecConfig::new(1, indepth_cfg.seed));
    let reference =
        in_depth_campaign(&[spec], &indepth_cfg, &opts).expect("plain run cannot fail").remove(0);
    let violations = discovery
        .rows
        .iter()
        .filter(|r| {
            let reference_min = reference
                .rows
                .iter()
                .find(|reference| reference.row == r.row)
                .and_then(|reference| reference.per_condition.first())
                .and_then(|cell| cell.series.min());
            reference_min.is_none_or(|min| r.bound > min)
        })
        .count();
    let rows = discovery.rows.len();
    DiscoveryRun {
        module,
        rows,
        epochs_spent: discovery.rows.iter().map(|r| u64::from(r.epochs_used)).sum(),
        fixed_epochs: rows as u64 * u64::from(FIXED_BUDGET),
        violations,
        // Every row of one run records the same configured confidence;
        // the largest is the strictest claim.
        confidence: discovery.rows.iter().map(|r| r.confidence).fold(0.0, f64::max),
        wall_ms,
    }
}

/// The violation rate a per-row `confidence`-level bound allows over
/// `rows` rows: the nominal miss rate plus 3σ of binomial slack.
fn allowed_violation_rate(confidence: f64, rows: usize) -> f64 {
    let nominal_miss = 1.0 - confidence;
    nominal_miss + 3.0 * (nominal_miss * confidence / (rows as f64).max(1.0)).sqrt()
}

fn discovery_records(runs: &[DiscoveryRun]) -> Vec<Record> {
    let mut records = Vec::new();
    for d in runs {
        let name = |what: &str| format!("discovery.{}.{what}", d.module);
        records.push(
            Record::new(name("rows"), "discovery", "rows", d.rows as f64).gate(Gate::AtLeast(1.0)),
        );
        records.push(
            Record::new(name("epochs"), "discovery", "count", d.epochs_spent as f64)
                .baseline(d.fixed_epochs as f64),
        );
        records.push(Record::new(name("wall_ms"), "discovery", "ms", d.wall_ms));
    }
    let rows: usize = runs.iter().map(|d| d.rows).sum();
    let spent: u64 = runs.iter().map(|d| d.epochs_spent).sum();
    let fixed: u64 = runs.iter().map(|d| d.fixed_epochs).sum();
    let violations: usize = runs.iter().map(|d| d.violations).sum();
    let confidence = runs.iter().map(|d| d.confidence).fold(0.0, f64::max);
    records.push(
        Record::new(
            "discovery.savings",
            "discovery",
            "ratio",
            fixed as f64 / (spent as f64).max(1.0),
        )
        .gate(Gate::AtLeast(MIN_DISCOVERY_SAVINGS)),
    );
    records.push(
        Record::new(
            "discovery.violation_rate",
            "discovery",
            "ratio",
            violations as f64 / (rows as f64).max(1.0),
        )
        .gate(Gate::AtMost(allowed_violation_rate(confidence, rows))),
    );
    records
}

// ----- memsim_sweep -----------------------------------------------------

/// Runs the defenses sweep, then attacks its 8 victims under its
/// characterization profile with epoch RDTs following `series` (M1's
/// measured RDTs), once per evaluated mechanism.
fn measure_sweep(series: &[u32]) -> (SweepRun, Vec<AttackRun>) {
    let opts = Options {
        modules: vec!["M1".into()],
        indepth_measurements: SWEEP_INDEPTH,
        picks_per_segment: 2,
        sweep_activations: SWEEP_ACTIVATIONS,
        seed: SEED,
        ..Options::default()
    };
    let started = Instant::now();
    let studies = Studies::new(&opts);
    let study = studies.sweep().expect("M1 measures in-depth series");
    let wall_ms = ms(started.elapsed());
    let (uniform_actions, profiled_actions) = covered_actions(study).unwrap_or((0, 0));
    let checks = findings::check_sweep(study);
    let passed = |id: u8| checks.iter().any(|c| c.id == id && c.passed);
    let sweep = SweepRun {
        f18: passed(18),
        f19: passed(19),
        uniform_actions,
        profiled_actions,
        covered_cells: covered_points(study).len(),
        wall_ms,
    };
    let config = AttackConfig {
        activations: SWEEP_ACTIVATIONS,
        rdt_distribution: series.to_vec(),
        victims: study.victims.clone(),
        seed: SEED,
    };
    let attacks = MitigationKind::EVALUATED
        .iter()
        .map(|&kind| measure_attack(kind, &study.profile, &config))
        .collect();
    (sweep, attacks)
}

fn sweep_records(s: &SweepRun) -> Vec<Record> {
    const LAYER: &str = "memsim.spatial";
    vec![
        Record::holds("memsim_sweep.f18", LAYER, s.f18),
        Record::holds("memsim_sweep.f19", LAYER, s.f19),
        Record::new(
            "memsim_sweep.action_ratio",
            LAYER,
            "ratio",
            s.uniform_actions as f64 / (s.profiled_actions as f64).max(1.0),
        )
        .gate(Gate::AtLeast(MIN_ACTION_RATIO)),
        Record::new("memsim_sweep.actions", LAYER, "count", s.profiled_actions as f64)
            .baseline(s.uniform_actions as f64),
        Record::new("memsim_sweep.covered_cells", LAYER, "count", s.covered_cells as f64),
        Record::new("memsim_sweep.wall_ms", LAYER, "ms", s.wall_ms),
    ]
}

// ----- memsim_spatial and memsim_security -----------------------------

/// Forwards every hook call and counts the calls and the activations
/// they performed.
#[derive(Debug)]
struct Counting {
    inner: Box<dyn Mitigation>,
    calls: u64,
    activations: u64,
}

impl Mitigation for Counting {
    fn on_activate(
        &mut self,
        bank: usize,
        rows: &[u32],
        max: u64,
        out: &mut Vec<MitigationAction>,
    ) -> u64 {
        let performed = self.inner.on_activate(bank, rows, max, out);
        self.calls += 1;
        self.activations += performed;
        performed
    }

    fn on_refresh(&mut self, out: &mut Vec<MitigationAction>) {
        self.inner.on_refresh(out);
    }
}

/// Runs `config` against `kind` built from `profile`, `ATTACK_REPS`
/// times, counting the hook calls and activations of the last run.
fn measure_attack(
    kind: MitigationKind,
    profile: &MitigationProfile,
    config: &AttackConfig,
) -> AttackRun {
    let mut run = AttackRun { kind, activations: 0, calls: 0, wall_ms: Vec::new() };
    for _ in 0..ATTACK_REPS {
        let inner = kind.build(profile, 1, config.seed);
        let mut counting = Counting { inner, calls: 0, activations: 0 };
        let started = Instant::now();
        black_box(simulate_attack(&mut counting, config));
        run.wall_ms.push(ms(started.elapsed()));
        (run.calls, run.activations) = (counting.calls, counting.activations);
    }
    run
}

/// Attacks one victim whose epoch RDTs follow M1's measured series,
/// with each mechanism configured flat at the series' minimum.
fn measure_security(series: &[u32]) -> Vec<AttackRun> {
    let threshold = series.iter().copied().min().expect("non-empty series");
    let config = AttackConfig {
        activations: SECURITY_ACTIVATIONS,
        rdt_distribution: series.to_vec(),
        victims: vec![SpatialVictim { row: 7, factor: 1.0 }],
        seed: SEED,
    };
    let profile = MitigationProfile::flat(threshold);
    SECURITY_KINDS.iter().map(|&kind| measure_attack(kind, &profile, &config)).collect()
}

/// `<suite>.<kind>.calls`, gated for the `gated` kinds, and
/// `<suite>.<kind>.ns_per_act` of each attack.
fn attack_records(
    suite: &str,
    layer: &str,
    gated: &[MitigationKind],
    runs: &[AttackRun],
) -> Vec<Record> {
    let mut records = Vec::new();
    for r in runs {
        let name = |what: &str| format!("{suite}.{}.{what}", r.kind.name());
        // The per-activation loop's figure: one call per activation.
        let calls = Record::new(name("calls"), layer, "count", r.calls as f64)
            .baseline(r.activations as f64);
        records.push(if gated.contains(&r.kind) {
            calls.gate(Gate::AtMost(r.activations as f64 / MIN_ACTS_PER_CALL))
        } else {
            calls
        });
        records.push(Record::new(
            name("ns_per_act"),
            layer,
            "ns",
            best(&r.wall_ms) * 1e6 / (r.activations as f64).max(1.0),
        ));
    }
    records
}

// ----- memsim_system ---------------------------------------------------

/// Runs the Fig.-14 grid over the default mix: one unmitigated baseline,
/// then every evaluated mechanism at every RDT and margin.
fn measure_system() -> SystemRun {
    let cfg = SimConfig { cycles: SYSTEM_CYCLES, ..SimConfig::default() };
    let grid = || {
        let mut stats = vec![System::run_mix(&cfg, MitigationKind::None, u32::MAX, SEED)];
        for rdt in RDT_VALUES {
            for margin in MARGINS {
                let threshold = effective_threshold(rdt, margin);
                for kind in MitigationKind::EVALUATED {
                    stats.push(System::run_mix(&cfg, kind, threshold, SEED));
                }
            }
        }
        stats
    };
    let mut wall_ms = Vec::new();
    let mut stats = Vec::new();
    for _ in 0..SYSTEM_REPS {
        let started = Instant::now();
        stats = black_box(grid());
        wall_ms.push(ms(started.elapsed()));
    }
    let runs = stats.len() as u64;
    SystemRun {
        runs,
        per_cell_runs: 2 * (runs - 1),
        sim_ns: stats.iter().map(|s| s.cycles).sum(),
        activations: stats.iter().map(|s| s.activations).sum(),
        preventive_ops: stats.iter().map(|s| s.preventive_ops).sum(),
        wall_ms,
    }
}

fn system_records(r: &SystemRun) -> Vec<Record> {
    const LAYER: &str = "memsim.system";
    vec![
        Record::new("memsim_system.runs", LAYER, "count", r.runs as f64)
            .baseline(r.per_cell_runs as f64),
        Record::new("memsim_system.sim_ns", LAYER, "ns", r.sim_ns as f64),
        Record::new("memsim_system.activations", LAYER, "count", r.activations as f64),
        Record::new("memsim_system.preventive_ops", LAYER, "count", r.preventive_ops as f64),
        Record::new(
            "memsim_system.host_ns_per_sim_ns",
            LAYER,
            "ratio",
            best(&r.wall_ms) * 1e6 / (r.sim_ns as f64).max(1.0),
        ),
    ]
}

// ----- fleet ------------------------------------------------------------

/// Submits one job per fleet module across the tenant roster, drains
/// the queue, and checks replay, dispatch-once and bounded wait.
fn measure_scheduler(fleet_size: usize) -> SchedulerRun {
    let fleet = synthetic_specs(fleet_size, SEED);
    let priorities = [Priority::Low, Priority::Normal, Priority::High];
    let started = Instant::now();
    let mut sched = FairShareScheduler::new(SEED);
    for (i, spec) in fleet.iter().enumerate() {
        sched
            .submit(&format!("job-{}", spec.name), TENANTS[i % TENANTS.len()], priorities[i % 3])
            .expect("fleet module names are unique");
    }
    let mut tenant_trace = Vec::with_capacity(fleet_size);
    while let Some(q) = sched.next() {
        tenant_trace.push(q.tenant);
    }
    let wall = started.elapsed();
    let ops = sched.ops().len();

    let replayed = replay(SEED, sched.ops()).expect("own op log replays");
    let unique: BTreeSet<&String> = sched.dispatch_trace().iter().collect();

    // Every tenant stays backlogged until its last dispatch, so between
    // two consecutive dispatches of one tenant count the others.
    let mut max_interleave = 0;
    for tenant in TENANTS {
        let hits: Vec<usize> =
            (0..tenant_trace.len()).filter(|&i| tenant_trace[i] == tenant).collect();
        for gap in hits.windows(2) {
            let mut per_other = BTreeMap::new();
            for other in &tenant_trace[gap[0] + 1..gap[1]] {
                *per_other.entry(other.as_str()).or_insert(0usize) += 1;
            }
            max_interleave = per_other.values().copied().max().unwrap_or(0).max(max_interleave);
        }
    }
    SchedulerRun {
        fleet_size,
        replay_identical: replayed.dispatch_trace() == sched.dispatch_trace()
            && replayed.pending() == 0,
        dispatch_once: sched.dispatch_trace().len() == fleet_size && unique.len() == fleet_size,
        max_interleave,
        ns_per_op: wall.as_secs_f64() * 1e9 / ops.max(1) as f64,
    }
}

/// Boots a script-mode service in `dir`, submits [`SERVICE_JOBS`]
/// foundational campaigns and drains them on `workers` workers. Returns
/// the drain's wall ms, whether every job finished, and the dispatch
/// journal.
fn drain_service(dir: &Path, workers: usize) -> (f64, bool, String) {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = ServeConfig {
        state_dir: dir.display().to_string(),
        addr: "none".to_owned(),
        fleet_size: FLEET_SIZES[0],
        fleet_seed: SEED,
        service_seed: SEED,
        workers,
        // Script mode: workers return once the queue drains.
        script: Some(String::new()),
        ..ServeConfig::default()
    };
    let service = Service::boot(cfg).expect("service boots");
    for i in 0..SERVICE_JOBS {
        let mut spec = JobSpec::new(TENANTS[i % 3], JobKind::Foundational);
        spec.limit = 1;
        spec.measurements = 20;
        spec.seed = SEED + i as u64;
        service.submit(spec).expect("submission accepted");
    }
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| service.worker_loop());
        }
    });
    let wall_ms = ms(started.elapsed());
    let records = service.records();
    let all_done =
        records.len() == SERVICE_JOBS && records.iter().all(|r| r.state == JobState::Done);
    let dispatch = std::fs::read_to_string(dir.join("dispatch.jsonl")).unwrap_or_default();
    (wall_ms, all_done, dispatch)
}

fn measure_service() -> ServiceRun {
    let scratch = std::env::temp_dir().join(format!("vrd-bench-service-{}", std::process::id()));
    let (wall_one, done_one, dispatch_one) = drain_service(&scratch.join("w1"), 1);
    let (wall_two, done_two, dispatch_two) = drain_service(&scratch.join("w2"), 2);
    let _ = std::fs::remove_dir_all(&scratch);
    ServiceRun {
        wall_ms_one_worker: wall_one,
        wall_ms_two_workers: wall_two,
        all_done: done_one && done_two,
        dispatch_invariant: !dispatch_one.is_empty() && dispatch_one == dispatch_two,
    }
}

fn fleet_records(scheduler: &[SchedulerRun], service: &ServiceRun) -> Vec<Record> {
    let mut records = Vec::new();
    for s in scheduler {
        let name = |what: &str| format!("fleet.{}.{what}", s.fleet_size);
        records.push(Record::holds(name("replay_identical"), "scheduler", s.replay_identical));
        records.push(Record::holds(name("dispatch_once"), "scheduler", s.dispatch_once));
        records.push(
            Record::new(name("max_interleave"), "scheduler", "count", s.max_interleave as f64)
                .gate(Gate::AtMost(MAX_INTERLEAVE)),
        );
        records.push(
            Record::new(name("ns_per_op"), "scheduler", "ns", s.ns_per_op)
                .gate(Gate::AtMost(MAX_NS_PER_OP)),
        );
    }
    records.push(Record::holds("service.all_done", "serve", service.all_done));
    records.push(Record::holds(
        "service.dispatch_worker_invariant",
        "serve",
        service.dispatch_invariant,
    ));
    records.push(
        Record::new("service.drain_ms", "serve", "ms", service.wall_ms_two_workers)
            .baseline(service.wall_ms_one_worker),
    );
    records
}

// ----- ungated timings --------------------------------------------------

fn measure_timings() -> Timings {
    // A campaign of a few dozen cells: large enough that the pool's
    // set-up is small beside it, small enough to repeat.
    let specs: Vec<ModuleSpec> =
        ["H3", "M1"].iter().map(|n| ModuleSpec::by_name(n).expect("module")).collect();
    let cfg = InDepthConfig {
        measurements: 30,
        segment_rows: 48,
        picks_per_segment: 3,
        ..InDepthConfig::quick()
    };
    let time_ms = |f: &dyn Fn()| {
        let started = Instant::now();
        f();
        ms(started.elapsed())
    };
    let campaign = |opts: &RunOptions<'_>| {
        black_box(in_depth_campaign(&specs, &cfg, opts).expect("plain run cannot fail"));
    };
    // Round-robin samples, so drift on a shared host hits both thread
    // counts alike.
    let mut threads_ms = [f64::INFINITY; 2];
    for _ in 0..TIMING_REPS {
        for (best, threads) in threads_ms.iter_mut().zip([1, 4]) {
            let opts = RunOptions::new(ExecConfig::new(threads, cfg.seed));
            *best = best.min(time_ms(&|| campaign(&opts)));
        }
    }
    // Back-to-back pairs, alternating which half runs first, so drift
    // lands on both halves of a pair and cancels in its ratio.
    let observer_ratios = (0..OBSERVER_PAIRS)
        .map(|pair| {
            let plain = RunOptions::new(ExecConfig::new(4, cfg.seed));
            let unobserved = || campaign(&plain);
            let observed = || {
                let metrics = MetricsSink::new();
                campaign(&plain.observer(&metrics));
                black_box(metrics.reports());
            };
            let (observed_ms, unobserved_ms) = if pair % 2 == 0 {
                let observed_ms = time_ms(&observed);
                (observed_ms, time_ms(&unobserved))
            } else {
                let unobserved_ms = time_ms(&unobserved);
                (time_ms(&observed), unobserved_ms)
            };
            observed_ms / unobserved_ms
        })
        .collect();
    let overhead = best_of(TIMING_REPS, || {
        let units: Vec<Unit<u64>> =
            (0..1000u32).map(|i| Unit::new(UnitKey::cell("OVH", i, 0), u64::from(i))).collect();
        execute(&ExecConfig::new(4, 1), units, |ctx, &v| black_box(v ^ ctx.seed))
    });

    let timing = TimingParams::ddr5();
    let energy = EnergyModel::default();
    let spec = MeasurementSpec::rowhammer(1_000).with_banks(32);
    let projection = CampaignSpec { measurement: spec, rows: 8 << 20, measurements: 100_000 };
    let per_call = |f: &dyn Fn() -> f64| {
        best_of(TIMING_REPS, || (0..ESTIMATE_CALLS).map(|_| black_box(f())).sum::<f64>())
            .as_secs_f64()
            * 1e9
            / f64::from(ESTIMATE_CALLS)
    };
    let draws = best_of(RNG_REPS, || {
        let mut rng = StdRng::seed_from_u64(SEED);
        (0..RNG_DRAWS).fold(0u64, |acc, _| acc ^ rng.next_u64())
    });
    Timings {
        in_depth_threads_1_ms: threads_ms[0],
        in_depth_threads_4_ms: threads_ms[1],
        observer_ratios,
        executor_ns_per_unit: overhead.as_secs_f64() * 1e9 / 1000.0,
        estimate_ns: [
            per_call(&|| one_measurement_time_ns(black_box(&timing), black_box(&spec))),
            per_call(&|| one_measurement_energy_nj(black_box(&timing), black_box(&spec), &energy)),
            per_call(&|| projection.total_time_ns(black_box(&timing))),
        ],
        rng_ns_per_u64: draws.as_secs_f64() * 1e9 / f64::from(RNG_DRAWS),
    }
}

fn timing_records(t: &Timings) -> Vec<Record> {
    let [time, energy, projection] = t.estimate_ns;
    vec![
        Record::new("exec.in_depth_threads_4", "exec", "ms", t.in_depth_threads_4_ms)
            .baseline(t.in_depth_threads_1_ms),
        Record::new(
            "exec.observer_ratio.median",
            "exec",
            "ratio",
            quartile(&t.observer_ratios, 50.0),
        ),
        Record::new("exec.observer_ratio.iqr", "exec", "ratio", iqr(&t.observer_ratios)),
        Record::new("exec.observer_ratio.pairs", "exec", "count", t.observer_ratios.len() as f64),
        Record::new("exec.overhead_per_unit", "exec", "ns", t.executor_ns_per_unit),
        Record::new("bender.estimate.one_measurement_time", "bender", "ns", time),
        Record::new("bender.estimate.one_measurement_energy", "bender", "ns", energy),
        Record::new("bender.estimate.campaign_projection", "bender", "ns", projection),
        // The generator behind PARA's one draw per attack activation.
        Record::new("rng.chacha12.ns_per_u64", "memsim.security", "ns", t.rng_ns_per_u64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comparison(module: &'static str, reference: u64, product: u64) -> Comparison {
        Comparison {
            module,
            identical: true,
            reference_sessions: reference,
            product_sessions: product,
            reference_ms: vec![5.0, 6.0, 7.0],
            product_ms: vec![1.0, 1.1, 1.2],
        }
    }

    fn discovery(module: &'static str, rows: usize, violations: usize) -> DiscoveryRun {
        DiscoveryRun {
            module,
            rows,
            epochs_spent: 60 * rows as u64,
            fixed_epochs: u64::from(FIXED_BUDGET) * rows as u64,
            violations,
            confidence: 0.9,
            wall_ms: 30.0,
        }
    }

    /// Every figure at a comfortably passing value.
    fn passing() -> Runs {
        Runs {
            search: MODULES.iter().map(|m| comparison(m, 2_000, 480)).collect(),
            batch: MODULES.iter().map(|m| comparison(m, 480, 480)).collect(),
            discovery: MODULES.iter().map(|m| discovery(m, 12, 0)).collect(),
            sweep: SweepRun {
                f18: true,
                f19: true,
                uniform_actions: 216_575,
                profiled_actions: 135_478,
                covered_cells: 28,
                wall_ms: 400.0,
            },
            spatial: MitigationKind::EVALUATED
                .iter()
                .map(|&kind| AttackRun {
                    kind,
                    activations: SWEEP_ACTIVATIONS,
                    calls: 2_000,
                    wall_ms: vec![3.0, 2.5, 2.6],
                })
                .collect(),
            security: SECURITY_KINDS
                .iter()
                .map(|&kind| AttackRun {
                    kind,
                    activations: SECURITY_ACTIVATIONS,
                    calls: 48_000,
                    wall_ms: vec![3.0, 2.5, 2.6],
                })
                .collect(),
            system: SystemRun {
                runs: 33,
                per_cell_runs: 64,
                sim_ns: 33 * SYSTEM_CYCLES,
                activations: 120_000,
                preventive_ops: 3_000,
                wall_ms: vec![60.0, 55.0, 58.0],
            },
            scheduler: FLEET_SIZES
                .iter()
                .map(|&fleet_size| SchedulerRun {
                    fleet_size,
                    replay_identical: true,
                    dispatch_once: true,
                    max_interleave: 1,
                    ns_per_op: 6_000.0,
                })
                .collect(),
            service: ServiceRun {
                wall_ms_one_worker: 12.0,
                wall_ms_two_workers: 25.0,
                all_done: true,
                dispatch_invariant: true,
            },
            timings: Timings {
                in_depth_threads_1_ms: 80.0,
                in_depth_threads_4_ms: 80.0,
                observer_ratios: vec![0.98, 1.0, 1.01, 1.03],
                executor_ns_per_unit: 200.0,
                estimate_ns: [5.0, 9.0, 6.0],
                rng_ns_per_u64: 3.0,
            },
        }
    }

    /// Whether the record named `name` passes.
    fn passes(records: &[Record], name: &str) -> bool {
        records
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no record {name}"))
            .passes()
    }

    #[test]
    fn passing_runs_pass_with_unique_names() {
        let records = records(&passing());
        assert!(failures(&records).is_empty(), "{:?}", failures(&records));
        let mut twice = records.clone();
        twice.push(records[0].clone());
        assert_eq!(failures(&twice), vec![format!("duplicate record name {}", records[0].name)]);
    }

    #[test]
    fn session_reduction_gate_matches_adaptive_times_four_at_most_linear() {
        for adaptive in 1..=40u64 {
            for linear in 0..=200u64 {
                let records = search_records(&[comparison("M1", linear, adaptive)]);
                let parent_passes = adaptive * 4 <= linear;
                assert_eq!(passes(&records, "rdt_search.session_reduction"), parent_passes);
            }
        }
        // Exactly 4.0 passes; 3.99 fails.
        assert!(passes(
            &search_records(&[comparison("M1", 400, 100)]),
            "rdt_search.session_reduction"
        ));
        assert!(!passes(
            &search_records(&[comparison("M1", 399, 100)]),
            "rdt_search.session_reduction"
        ));
    }

    #[test]
    fn series_identity_is_gated_in_both_comparisons() {
        let mut differing = comparison("S0", 400, 100);
        differing.identical = false;
        let search = search_records(&[comparison("M1", 400, 100), differing]);
        assert!(!passes(&search, "rdt_search.series_mismatches"));
        let mut differing = comparison("S0", 480, 480);
        differing.identical = false;
        let batch = batch_records(&[differing]);
        assert!(!passes(&batch, "batch.mismatches"));
    }

    #[test]
    fn batch_speedup_gate_is_on_summed_best_of_walls() {
        let run = |scalar: Vec<f64>, batch: Vec<f64>| {
            let mut c = comparison("M1", 480, 480);
            (c.reference_ms, c.product_ms) = (scalar, batch);
            batch_records(&[c])
        };
        // Best-of, not median: the slow outliers do not count.
        assert!(passes(&run(vec![5.0, 50.0], vec![1.0, 9.0]), "batch.speedup"));
        assert!(!passes(&run(vec![4.99, 50.0], vec![1.0, 1.0]), "batch.speedup"));
        let records = run(vec![4.0, 5.0, 6.0, 8.0, 100.0], vec![1.0, 1.0, 2.0, 3.0, 3.0]);
        let value = |name: &str| records.iter().find(|r| r.name == name).unwrap().value;
        assert_eq!(value("batch.M1.median_ms"), 2.0);
        assert_eq!(value("batch.M1.iqr_ms"), 2.0);
        assert_eq!(value("batch.M1.samples"), 5.0);
    }

    #[test]
    fn discovery_gates_match_the_parent_edges() {
        // Every module bounds at least one row.
        assert!(passes(&discovery_records(&[discovery("M1", 1, 0)]), "discovery.M1.rows"));
        assert!(!passes(&discovery_records(&[discovery("M1", 0, 0)]), "discovery.M1.rows"));
        // Savings of exactly 2.0 pass.
        let mut d = discovery("M1", 12, 0);
        d.epochs_spent = d.fixed_epochs / 2;
        assert!(passes(&discovery_records(&[d]), "discovery.savings"));
        let mut d = discovery("M1", 12, 0);
        d.epochs_spent = d.fixed_epochs / 2 + 1;
        assert!(!passes(&discovery_records(&[d]), "discovery.savings"));
        // At confidence 0.9 over 36 rows the allowance is 0.1 + 3σ ≈ 0.25.
        let rate_passes = |violations: usize, confidence: f64| {
            let mut d = discovery("M1", 36, violations);
            d.confidence = confidence;
            passes(&discovery_records(&[d]), "discovery.violation_rate")
        };
        assert!(rate_passes(8, 0.9));
        assert!(!rate_passes(9, 0.9), "9/36 exceeds 0.1 + 3σ, as at the parent");
        // The allowance follows the confidence the rows were run at.
        assert!(rate_passes(14, 0.8));
        assert!(!rate_passes(3, 0.99));
    }

    #[test]
    fn sweep_gates_match_the_parent_edges() {
        let ratio_passes = |uniform: u64, profiled: u64| {
            let mut s = passing().sweep;
            (s.uniform_actions, s.profiled_actions) = (uniform, profiled);
            passes(&sweep_records(&s), "memsim_sweep.action_ratio")
        };
        assert!(ratio_passes(120, 100), "exactly 1.2 passes");
        assert!(!ratio_passes(119, 100));
        for (f18, f19) in [(false, true), (true, false)] {
            let mut s = passing().sweep;
            (s.f18, s.f19) = (f18, f19);
            assert!(!failures(&sweep_records(&s)).is_empty());
        }
    }

    #[test]
    fn attack_calls_are_gated_at_one_per_fifty_activations_except_para() {
        let calls_pass = |suite: &str, gated: &[MitigationKind], r: AttackRun| {
            let name = format!("{suite}.{}.calls", r.kind.name());
            passes(&attack_records(suite, "memsim", gated, &[r]), &name)
        };
        for (suite, gated, acts) in [
            ("memsim_spatial", &SPATIAL_GATED[..], SWEEP_ACTIVATIONS),
            ("memsim_security", &SECURITY_GATED[..], SECURITY_ACTIVATIONS),
        ] {
            let run =
                |kind, calls| AttackRun { kind, activations: acts, calls, wall_ms: vec![1.0] };
            for &kind in gated {
                assert!(calls_pass(suite, gated, run(kind, acts / 50)), "exactly 1/50 passes");
                assert!(!calls_pass(suite, gated, run(kind, acts / 50 + 1)));
            }
            let para = run(MitigationKind::Para, acts);
            assert!(calls_pass(suite, gated, para), "PARA is ungated");
        }
        assert!(SPATIAL_GATED.contains(&MitigationKind::Mint));
        let records = records(&passing());
        let value = |name: &str| records.iter().find(|r| r.name == name).unwrap().value;
        assert_eq!(value("memsim_security.PRAC.ns_per_act"), 2.5e6 / 4e6);
        assert_eq!(value("memsim_spatial.MINT.ns_per_act"), 2.5e6 / 120_000.0);
    }

    #[test]
    fn system_records_are_ungated_with_a_best_of_rate() {
        let records = system_records(&passing().system);
        assert!(records.iter().all(|r| r.gate.is_none()));
        let value = |name: &str| records.iter().find(|r| r.name == name).unwrap().value;
        assert_eq!(value("memsim_system.host_ns_per_sim_ns"), 55.0e6 / (33.0 * 40_000.0));
        let runs = records.iter().find(|r| r.name == "memsim_system.runs").unwrap();
        assert_eq!((runs.value, runs.baseline), (33.0, Some(64.0)));
    }

    #[test]
    fn fleet_gates_match_the_parent_edges() {
        let scheduler_fails = |edit: &dyn Fn(&mut SchedulerRun)| {
            let mut s = passing().scheduler.remove(0);
            edit(&mut s);
            !failures(&fleet_records(&[s], &passing().service)).is_empty()
        };
        assert!(!scheduler_fails(&|s| s.max_interleave = 2));
        assert!(scheduler_fails(&|s| s.max_interleave = 3));
        assert!(!scheduler_fails(&|s| s.ns_per_op = 1_000_000.0));
        assert!(scheduler_fails(&|s| s.ns_per_op = 1_000_000.5));
        assert!(scheduler_fails(&|s| s.replay_identical = false));
        assert!(scheduler_fails(&|s| s.dispatch_once = false));
        let edits: [fn(&mut ServiceRun); 2] =
            [|s| s.all_done = false, |s| s.dispatch_invariant = false];
        for edit in edits {
            let mut service = passing().service;
            edit(&mut service);
            assert!(!failures(&fleet_records(&[], &service)).is_empty());
        }
    }

    #[test]
    fn out_is_the_only_option() {
        let parse = |args: &[&str]| parse_out(args.iter().map(|a| (*a).to_owned()));
        assert_eq!(parse(&[]).unwrap(), "BENCH_records.json");
        assert_eq!(parse(&["--out", "x.json"]).unwrap(), "x.json");
        assert!(parse(&["--out"]).is_err());
        for retired in ["--check", "--seed", "--measurements"] {
            assert!(parse(&[retired, "1"]).is_err(), "{retired}");
        }
    }

    #[test]
    fn committed_records_parse_pass_and_match_this_binary() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_records.json");
        let text = std::fs::read_to_string(&path).expect("BENCH_records.json is committed");
        let committed: Vec<Record> = serde_json::from_str(&text).expect("committed records parse");
        assert!(failures(&committed).is_empty(), "{:?}", failures(&committed));
        let names = |records: &[Record]| records.iter().map(|r| r.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&committed), names(&records(&passing())), "regenerate with vrd-bench");
        for r in &committed {
            let expected = records(&passing()).into_iter().find(|e| e.name == r.name).unwrap();
            assert_eq!((&r.layer, &r.unit), (&expected.layer, &expected.unit), "{}", r.name);
            assert_eq!(r.gate.is_some(), expected.gate.is_some(), "{}", r.name);
        }
    }
}
