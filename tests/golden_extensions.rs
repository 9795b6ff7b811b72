//! Fixed-seed golden snapshots for the extension experiments (ablation,
//! security sweep, online profiling), the ECC Table-3 path and the
//! Fig.-14 memory-system grid.
//!
//! The parallel-determinism suite pins the two core campaigns; these
//! goldens extend the same byte-level regression net over the
//! evaluation's remaining entry points, so a model or RNG change that
//! shifts any downstream number is caught at review time, not after.
//!
//! To bless after an intentional model change:
//!
//! ```text
//! UPDATE_GOLDEN=golden_extensions cargo test --test golden_extensions
//! ```

#[path = "util/golden.rs"]
mod golden;

use vrd_experiments::studies::Studies;
use vrd_experiments::{ecc_exp, extensions, memsim_exp, Options};
use vrd_memsim::workload::WorkloadParams;
use vrd_memsim::{MitigationKind, SimConfig, SimStats, System};

/// Compares `actual` against `tests/golden/<name>`, or rewrites the
/// file when `UPDATE_GOLDEN` names this suite (see `tests/util/golden.rs`).
fn assert_golden(name: &str, actual: &str) {
    golden::assert_golden("golden_extensions", name, actual);
}

/// Fixed-scale options shared by the extension goldens. Smoke scale
/// but with an explicit roster and enough measurements for the security
/// sweep's `len() >= 100` candidate filter.
fn golden_opts() -> Options {
    Options {
        foundational_measurements: 300,
        modules: vec!["M1".into(), "S2".into()],
        seed: 2025,
        threads: 1,
        ..Options::smoke()
    }
}

fn pretty<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializable result")
}

#[test]
fn golden_ablation_seed_2025() {
    assert_golden("ablation_seed_2025.json", &pretty(&extensions::ablation(&golden_opts())));
}

#[test]
fn golden_security_seed_2025() {
    let opts = golden_opts();
    let study = Studies::new(&opts);
    let rows = extensions::security(study.foundational(), &opts);
    assert_golden("security_seed_2025.json", &pretty(&rows));
}

#[test]
fn golden_online_seed_2025() {
    let result = extensions::online(&golden_opts()).expect("online profiling finds a victim");
    assert_golden("online_seed_2025.json", &pretty(&result));
}

#[test]
fn golden_ecc_table3_seed_2025() {
    assert_golden("ecc_table3_seed_2025.json", &pretty(&ecc_exp::run_paper(5_000, 2025)));
}

/// One `System::run_mix` of the Fig.-14 golden.
#[derive(serde::Serialize)]
struct SystemRun {
    kind: MitigationKind,
    threshold: u32,
    stats: SimStats,
}

/// The Fig.-14 grid plus one mix's memory-system statistics under no
/// mitigation and every extended mechanism, at a high and a low
/// threshold.
#[derive(serde::Serialize)]
struct Fig14Golden {
    fig14: memsim_exp::Fig14Result,
    runs: Vec<SystemRun>,
}

#[test]
fn golden_fig14_seed_2025() {
    let opts = Options { mixes: 2, ..golden_opts() };
    let cfg =
        SimConfig { cycles: opts.sim_cycles, banks: 16, mix: WorkloadParams::paper_mixes()[0] };
    let mut runs = Vec::new();
    for threshold in [1024, 64] {
        for kind in std::iter::once(MitigationKind::None).chain(MitigationKind::EXTENDED) {
            let stats = System::run_mix(&cfg, kind, threshold, opts.seed);
            runs.push(SystemRun { kind, threshold, stats });
        }
    }
    let golden = Fig14Golden { fig14: memsim_exp::run(&opts), runs };
    assert_golden("fig14_seed_2025.json", &pretty(&golden));
}

#[test]
fn extension_goldens_are_thread_invariant() {
    // The goldens above run serial; the same entry points at 4 threads
    // must not drift (they share the deterministic executor contract).
    let mut opts = golden_opts();
    opts.threads = 4;
    let rows = extensions::security(Studies::new(&opts).foundational(), &opts);
    assert_golden("security_seed_2025.json", &pretty(&rows));
}
