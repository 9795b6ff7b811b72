//! End-to-end benchmark of the VRD reproduction.
//!
//! ```text
//! vrd-e2ebench --workload characterize|defend|fleet --seed N --seconds S --trace 0|1
//!              [--record-counters]
//! ```
//!
//! One invocation runs one workload in-process: it repeats a set-up and
//! an iteration of the workload until `--seconds` have passed, checking
//! every output, and prints medians. With
//! `--trace 1` it alternates untraced and traced iterations and prints
//! the per-layer metrics instead. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `--record-counters` stores this seed's work counters under
//! `counters/`, against which later runs of the same seed are compared.
//! See `README.md` beside this file.

mod characterize;
mod counters;
mod defend;
mod fleet;
mod replay;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use counters::Counters;
use trace::Tracer;

/// The seed no tuning run used; later claims are checked on it.
pub const HELD_OUT_SEED: u64 = 31_337;

/// Iterations a run makes even when `--seconds` is already spent.
const MIN_ITERATIONS: usize = 4;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("max_rss_mb", "MB")];

/// Per-layer metrics, printed with `--trace 1` (a layer a workload does
/// not call prints its zero work).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dram.build_s", "s"),
    ("algorithm.victim.calls", "count"),
    ("algorithm.victim.busy_s", "s"),
    ("algorithm.victim.sessions", "count"),
    ("algorithm.rdt.measurements", "count"),
    ("algorithm.rdt.busy_s", "s"),
    ("algorithm.rdt.sessions", "count"),
    ("algorithm.rdt.epochs", "count"),
    ("algorithm.rdt.sessions_per_measurement", "ratio"),
    ("bender.program_builds", "count"),
    ("bender.program_hits", "count"),
    ("bender.cache_hit_ratio", "ratio"),
    ("exec.units", "count"),
    ("exec.unit_p50_ms", "ms"),
    ("exec.select_s", "s"),
    ("exec.measure_s", "s"),
    ("campaign.foundational_s", "s"),
    ("campaign.in_depth_s", "s"),
    ("discovery.rows", "count"),
    ("discovery.epochs", "count"),
    ("discovery.busy_s", "s"),
    ("guardband.rows", "count"),
    ("guardband.busy_s", "s"),
    ("ecc.codewords", "count"),
    ("ecc.busy_s", "s"),
    ("family.busy_s", "s"),
    ("stats.calls", "count"),
    ("stats.busy_s", "s"),
    ("memsim.system.runs", "count"),
    ("memsim.system.busy_s", "s"),
    ("memsim.system.sim_ns", "ns"),
    ("memsim.system.activations", "count"),
    ("memsim.system.preventive_ops", "count"),
    ("memsim.system.host_ns_per_sim_ns", "ratio"),
    ("memsim.spatial.busy_s", "s"),
    ("memsim.spatial.activations", "count"),
    ("memsim.spatial.actions", "count"),
    ("memsim.spatial.escapes", "count"),
    ("memsim.spatial.host_ns_per_act", "ns"),
    ("memsim.security.busy_s", "s"),
    ("memsim.security.activations", "count"),
    ("memsim.security.escapes", "count"),
    ("memsim.security.host_ns_per_act", "ns"),
    ("memsim.profile.builds", "count"),
    ("memsim.profile.busy_s", "s"),
    ("serve.boot_s", "s"),
    ("serve.jobs", "count"),
    ("serve.submit_p50_us", "us"),
    ("serve.job_p50_s", "s"),
    ("serve.turnaround_p50_s", "s"),
    ("scheduler.ops", "count"),
    ("scheduler.max_depth", "count"),
    ("scheduler.replay_s", "s"),
    ("checkpoint.commits", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.commit_p50_us", "us"),
    ("obs.events", "count"),
    ("obs.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// Per-layer values of one traced set-up or iteration.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one set-up or iteration did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host time of the workload's calls; the checks made after them
    /// are not included.
    pub wall: Duration,
    /// Deterministic work counters and output digests.
    pub counters: Counters,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check, one line each.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
}

impl Outcome {
    /// Counts one checked operation, recording `what` if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a counter.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Everything before work can start. Called before every iteration,
    /// so that set-up samples are spread over the run like iteration
    /// samples; each call leaves the state the next iteration uses.
    fn setup(&mut self, tracer: Option<&Tracer>) -> Result<Outcome, String>;

    /// Consecutive set-ups whose mean is one `setup_s` sample. A set-up
    /// much shorter than the host's bursts of contention needs several.
    fn setup_batch(&self) -> u32 {
        1
    }

    /// One iteration of the workload's work.
    fn iterate(&mut self, tracer: Option<&Tracer>) -> Result<Outcome, String>;

    /// The inputs generated from the seed, serialized.
    fn inputs(&self) -> String;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_counters: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record_counters: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                };
            }
            "--record-counters" => args.record_counters = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The directory runs write their state under, inside the benchmark's
/// own directory.
pub fn state_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".state")
}

fn counters_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("counters").join(format!("{workload}.json"))
}

fn make_workload(name: &str, seed: u64, state: PathBuf) -> Result<Box<dyn Workload>, String> {
    match name {
        "characterize" => Ok(Box::new(characterize::Characterize::new(seed))),
        "defend" => Ok(Box::new(defend::Defend::new(seed, state))),
        "fleet" => Ok(Box::new(fleet::Fleet::new(seed, state))),
        other => Err(format!("unknown workload {other:?} (characterize|defend|fleet)")),
    }
}

/// Peak resident memory of this process (MB), from `/proc`.
fn max_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Everything a run gathered.
#[derive(Default)]
struct Run {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    traced_wall_s: Vec<f64>,
    unattributed: Vec<f64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failures: Vec<String>,
    first_setup: Option<Counters>,
    first_iteration: Option<Counters>,
    inputs_digest: u64,
    /// Peak resident memory after the first [`MIN_ITERATIONS`] set-ups
    /// and iterations.
    max_rss_mb: Option<f64>,
}

impl Run {
    /// Folds one outcome in, comparing its counters with the first of
    /// its kind.
    fn absorb(&mut self, what: &str, mut outcome: Outcome, setup: bool, tracer: Option<&Tracer>) {
        self.attempted += outcome.attempted + 1;
        self.failures.append(&mut outcome.failures);
        let first = if setup { &mut self.first_setup } else { &mut self.first_iteration };
        match first {
            None => *first = Some(outcome.counters),
            Some(expected) => {
                let d = counters::diff(expected, &outcome.counters);
                if !d.is_empty() {
                    self.failures.push(format!("{what}: counters changed: {}", d.join("; ")));
                }
            }
        }
        let secs = outcome.wall.as_secs_f64();
        match (setup, tracer) {
            (true, _) => {}
            (false, None) => self.wall_s.push(secs),
            (false, Some(t)) => {
                self.traced_wall_s.push(secs);
                let covered = t.attributed().as_secs_f64().min(secs);
                self.unattributed.push(if secs > 0.0 { 1.0 - covered / secs } else { 0.0 });
            }
        }
        for (name, v) in outcome.layers {
            self.layers.entry(name).or_default().push(v);
        }
    }
}

fn execute(args: &Args) -> Result<Run, String> {
    let state = state_root().join(format!("{}-{}", args.workload, std::process::id()));
    let mut workload = make_workload(&args.workload, args.seed, state.clone())?;
    let mut inputs = counters::Digest::default();
    inputs.add("inputs", workload.inputs().as_bytes());
    let result = measure(workload.as_mut(), args).map(|mut run| {
        run.inputs_digest = inputs.value();
        run
    });
    drop(workload);
    let _ = std::fs::remove_dir_all(&state);
    result
}

fn measure(workload: &mut dyn Workload, args: &Args) -> Result<Run, String> {
    let mut run = Run::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 0usize;
    while i < MIN_ITERATIONS || Instant::now() < deadline {
        // Traced runs alternate untraced and traced iterations, so both
        // see the same host conditions.
        let traced = args.trace && i % 2 == 1;
        let batch = workload.setup_batch();
        let mut setup = Duration::ZERO;
        for _ in 0..batch {
            let tracer = traced.then(Tracer::default);
            let outcome = workload.setup(tracer.as_ref())?;
            setup += outcome.wall;
            run.absorb(&format!("set-up {i}"), outcome, true, None);
        }
        run.setup_s.push(setup.as_secs_f64() / f64::from(batch));
        let tracer = traced.then(Tracer::default);
        let outcome = workload.iterate(tracer.as_ref())?;
        run.absorb(&format!("iteration {i}"), outcome, false, tracer.as_ref());
        i += 1;
        // The heap keeps growing a little with every iteration, and how
        // many fit in `--seconds` depends on host speed; the peak is
        // therefore read after a fixed amount of work.
        if i == MIN_ITERATIONS {
            run.max_rss_mb = Some(max_rss_mb()?);
        }
    }
    Ok(run)
}

fn summary(name: &str, unit: &str, samples: &[f64]) -> String {
    let (q1, med, q3) = stats::quartiles(samples);
    let tail = match stats::reportable_tail(samples) {
        Some((p, v)) => format!(", p{p} {v:.6}"),
        None => String::new(),
    };
    let all: Vec<String> = samples.iter().map(|s| format!("{s:.6}")).collect();
    format!(
        "{name}: median {med:.6} {unit} over {} samples (q1 {q1:.6}, q3 {q3:.6}, iqr/median {:.4}{tail})\n  samples: {}",
        samples.len(),
        stats::iqr_share(samples),
        all.join(" "),
    )
}

fn metric(value: f64, unit: &str) -> serde::Value {
    serde::Value::Map(vec![
        ("value".into(), serde::Value::Float(value)),
        ("unit".into(), serde::Value::Str(unit.into())),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vrd-e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let mut run = match execute(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("vrd-e2ebench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let counters = run.first_iteration.clone().unwrap_or_default();
    let path = counters_path(&args.workload);
    match counters::load(&path) {
        Ok(mut stored) => {
            if args.record_counters {
                stored.insert(args.seed, counters.clone());
                if let Err(e) = counters::save(&path, &stored) {
                    run.failures.push(format!("cannot store counters: {e}"));
                }
            } else if let Some(expected) = stored.get(&args.seed) {
                run.attempted += 1;
                let d = counters::diff(expected, &counters);
                if !d.is_empty() {
                    run.failures.push(format!(
                        "stored counters for seed {} differ: {}",
                        args.seed,
                        d.join("; ")
                    ));
                }
            }
        }
        Err(e) => run.failures.push(format!("cannot read stored counters: {e}")),
    }

    println!(
        "workload {} seed {} (held-out seed {HELD_OUT_SEED}), trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("inputs digest {:016x}", run.inputs_digest);
    for (name, value) in &counters {
        println!("counter {name} = {value}");
    }
    let mut metrics = Vec::new();
    println!("{}", summary("setup_s", "s", &run.setup_s));
    if args.trace {
        let untraced = stats::median(&run.wall_s);
        let traced = stats::median(&run.traced_wall_s);
        println!("{}", summary("untraced wall_s", "s", &run.wall_s));
        println!("{}", summary("traced wall_s", "s", &run.traced_wall_s));
        run.layers.insert("trace.overhead_ratio", vec![traced / untraced]);
        run.layers.insert("trace.unattributed_share", vec![stats::median(&run.unattributed)]);
        for &(name, unit) in PER_LAYER {
            let value = run.layers.get(name).map_or(0.0, |v| stats::median(v));
            println!("layer {name} = {value} {unit}");
            metrics.push((name.to_owned(), metric(value, unit)));
        }
    } else {
        println!("{}", summary("wall_s", "s", &run.wall_s));
        let rss = run.max_rss_mb.expect("every run makes MIN_ITERATIONS iterations");
        println!("max_rss_mb: {rss:.3} MB after {MIN_ITERATIONS} set-ups and iterations");
        for (name, value) in [
            ("wall_s", stats::median(&run.wall_s)),
            ("setup_s", stats::median(&run.setup_s)),
            ("max_rss_mb", rss),
        ] {
            let unit = END_TO_END.iter().find(|(n, _)| *n == name).map_or("", |(_, u)| *u);
            metrics.push((name.to_owned(), metric(value, unit)));
        }
    }
    for f in &run.failures {
        println!("FAILED: {f}");
    }
    let failed = run.failures.len() as u64;
    let result = serde::Value::Map(vec![
        ("correct".into(), serde::Value::Bool(failed == 0)),
        ("attempted".into(), serde::Value::UInt(run.attempted.max(1))),
        ("failed".into(), serde::Value::UInt(failed)),
        ("metrics".into(), serde::Value::Map(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("result serializes"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_and_units(list: &serde::Value) -> Vec<(String, String)> {
        let serde::Value::Seq(items) = list else { panic!("expected a list") };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(serde::Value::Str(n)), Some(serde::Value::Str(u))) => (n.clone(), u.clone()),
                other => panic!("metric without name and unit: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_every_metric_this_program_prints() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
        let json: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect()
        };
        assert_eq!(names_and_units(json.get("end_to_end").unwrap()), owned(&END_TO_END));
        assert_eq!(names_and_units(json.get("per_layer").unwrap()), owned(PER_LAYER));
        let serde::Value::Seq(workloads) = json.get("workloads").unwrap() else { panic!() };
        for w in workloads {
            let Some(serde::Value::Str(name)) = w.get("name") else { panic!("unnamed workload") };
            assert!(make_workload(name, 1, state_root()).is_ok(), "unknown workload {name}");
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for name in ["characterize", "defend", "fleet"] {
            let inputs = |seed| make_workload(name, seed, state_root()).unwrap().inputs();
            assert_eq!(inputs(9), inputs(9), "{name}");
            assert_ne!(inputs(9), inputs(10), "{name}: the seed must pick the inputs");
        }
    }
}
