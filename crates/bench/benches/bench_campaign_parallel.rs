//! Benchmarks the deterministic campaign executor: serial vs parallel
//! in-depth campaigns (same seed, so the parallel run produces
//! bit-identical results while the wall clock shrinks), the raw
//! executor overhead on trivial units, and the extra cost of journaling
//! every unit to a crash-safe checkpoint.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vrd_core::campaign::{in_depth_campaign, InDepthConfig};
use vrd_core::checkpoint::{self, Checkpoint, CheckpointManifest};
use vrd_core::exec::{execute, ExecConfig, Progress, Unit, UnitKey};
use vrd_core::obs::metrics::MetricsSink;
use vrd_core::run::{run_units, RunOptions};
use vrd_core::EvalStrategy;
use vrd_dram::fleet::roster_fingerprint;
use vrd_dram::ModuleSpec;

/// A campaign sized to a few dozen measurement cells: big enough that
/// the parallel speedup dominates the pool setup, small enough to
/// benchmark.
fn bench_cfg() -> InDepthConfig {
    InDepthConfig::quick()
        .to_builder()
        .measurements(30)
        .segment_rows(48)
        .picks_per_segment(3)
        .build()
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh checkpoint directory per iteration, so every measured run
/// pays the full journal-write cost instead of a cache replay.
fn scratch_dir() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("vrd-bench-ckpt-{}-{n}", std::process::id()))
}

fn manifest(campaign: &str, seed: u64, fingerprint: u64) -> CheckpointManifest {
    CheckpointManifest {
        format_version: checkpoint::FORMAT_VERSION,
        campaign: campaign.to_owned(),
        config_hash: 0,
        campaign_seed: seed,
        shard_index: 0,
        shard_count: 1,
        roster_fingerprint: fingerprint,
    }
}

fn bench(c: &mut Criterion) {
    let specs: Vec<ModuleSpec> =
        ["H3", "M1"].iter().map(|n| ModuleSpec::by_name(n).expect("module")).collect();
    let cfg = bench_cfg();
    let fingerprint = roster_fingerprint(&specs);

    let mut group = c.benchmark_group("campaign_parallel");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_function(&format!("in_depth_threads_{threads}"), |b| {
            b.iter(|| {
                in_depth_campaign(
                    black_box(&specs),
                    black_box(&cfg),
                    &RunOptions::new(ExecConfig::new(threads, cfg.seed)),
                )
                .unwrap()
            })
        });
    }
    // The same serial campaign forced onto the scalar per-session
    // device path: the delta against in_depth_threads_1 (which runs the
    // default batch eval) is the batch engine's whole-campaign speedup.
    group.bench_function("in_depth_threads_1_scalar_eval", |b| {
        b.iter(|| {
            let exec = ExecConfig::new(1, cfg.seed).to_builder().eval(EvalStrategy::Scalar).build();
            in_depth_campaign(black_box(&specs), black_box(&cfg), &RunOptions::new(exec)).unwrap()
        })
    });
    // The same campaign with a metrics observer attached to every
    // event: the delta against in_depth_threads_4 is the observability
    // overhead (the acceptance bar is ≤ 5%).
    group.bench_function("in_depth_threads_4_observed", |b| {
        b.iter(|| {
            let metrics = MetricsSink::new();
            let opts = RunOptions::new(ExecConfig::new(4, cfg.seed)).observer(&metrics);
            let results = in_depth_campaign(black_box(&specs), black_box(&cfg), &opts).unwrap();
            black_box(metrics.reports());
            results
        })
    });
    // The same campaign with every unit journaled: the delta against
    // in_depth_threads_4 is the end-to-end checkpointing overhead.
    group.bench_function("in_depth_threads_4_checkpointed", |b| {
        b.iter(|| {
            let dir = scratch_dir();
            let ckpt = Checkpoint::open(&dir, manifest("in_depth", cfg.seed, fingerprint)).unwrap();
            let progress = Progress::new();
            let opts =
                RunOptions::new(ExecConfig::new(4, cfg.seed)).progress(&progress).checkpoint(&ckpt);
            let results = in_depth_campaign(black_box(&specs), black_box(&cfg), &opts).unwrap();
            drop(ckpt);
            let _ = std::fs::remove_dir_all(&dir);
            results
        })
    });
    group.finish();

    // Raw executor overhead: scheduling 1,000 near-empty units.
    c.bench_function("executor_overhead_1000_units", |b| {
        b.iter(|| {
            let units: Vec<Unit<u64>> =
                (0..1000u32).map(|i| Unit::new(UnitKey::cell("OVH", i, 0), u64::from(i))).collect();
            execute(&ExecConfig::new(4, 1), units, |ctx, &v| black_box(v ^ ctx.seed))
        })
    });

    // The same 1,000 units with a journal append + flush per commit:
    // divide the delta against executor_overhead_1000_units by 1,000 for
    // the checkpoint-write overhead per unit.
    c.bench_function("checkpointed_overhead_1000_units", |b| {
        b.iter(|| {
            let dir = scratch_dir();
            let ckpt = Checkpoint::open(&dir, manifest("overhead", 1, 0)).unwrap();
            let units: Vec<Unit<u64>> =
                (0..1000u32).map(|i| Unit::new(UnitKey::cell("OVH", i, 0), u64::from(i))).collect();
            let opts = RunOptions::new(ExecConfig::new(4, 1)).checkpoint(&ckpt);
            let report =
                run_units(&opts, "overhead", "units", units, |ctx, &v| black_box(v ^ ctx.seed))
                    .unwrap();
            drop(ckpt);
            let _ = std::fs::remove_dir_all(&dir);
            report
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
