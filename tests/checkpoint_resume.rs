//! Fault-injection and resume-equivalence suite for crash-safe
//! campaign checkpointing.
//!
//! The property under test is the strongest one the determinism
//! contract allows: a campaign **killed after N units and resumed is
//! byte-identical** (as serde_json output) to a campaign that never
//! crashed, at any thread count. On top of that, the journal's recovery
//! semantics are pinned: a torn tail record is dropped and recomputed,
//! a mismatched manifest (config drift, wrong seed, wrong shard) is a
//! hard reject, and corruption before the tail never passes silently.
//!
//! The suite also closes the shard-union property of
//! `fleet::shard_specs`: running every `--shard i/N` and merging is
//! byte-identical to the unsharded run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use vrd::core::campaign::{
    foundational_campaign, in_depth_campaign, FoundationalConfig, FoundationalResult,
    InDepthConfig, FOUNDATIONAL, IN_DEPTH,
};
use vrd::core::checkpoint::{self, Checkpoint, CheckpointError, CheckpointManifest, UnitHooks};
use vrd::core::discovery::{discovery_campaign, DiscoveryConfig, DISCOVERY};
use vrd::core::exec::faults::{self, FaultPlan};
use vrd::core::exec::{ExecConfig, Progress, Unit, UnitKey};
use vrd::core::run::{run_units, RunOptions};
use vrd::dram::fleet::shard_specs;
use vrd::dram::ModuleSpec;

// ----- fixtures ------------------------------------------------------

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh, collision-free scratch directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("vrd-ckpt-{}-{tag}-{n}", std::process::id()));
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

fn foundational_manifest(cfg: &FoundationalConfig, specs: &[ModuleSpec]) -> CheckpointManifest {
    CheckpointManifest::for_campaign(FOUNDATIONAL, checkpoint::config_hash(cfg), cfg.seed, specs)
}

fn foundational_json(results: &[Option<FoundationalResult>]) -> String {
    serde_json::to_string_pretty(&results.to_vec()).expect("serializable results")
}

// ----- resume equivalence (the headline property) --------------------

#[test]
fn foundational_killed_and_resumed_is_byte_identical() {
    let specs = modules(&["M1", "S2", "H3"]);
    let cfg = foundational_cfg(2025);
    let golden = foundational_json(
        &foundational_campaign(&specs, &cfg, &RunOptions::new(ExecConfig::new(1, cfg.seed)))
            .expect("plain campaign run cannot fail"),
    );

    for threads in [1usize, 2, 8] {
        for kill_after in [1u64, 2] {
            let dir = scratch_dir("resume");
            let exec_cfg = ExecConfig::new(threads, cfg.seed);

            // First run: the fault plan cancels the campaign once
            // `kill_after` units have committed to the journal.
            let plan = FaultPlan::kill_after(kill_after);
            let ckpt = Checkpoint::open(&dir, foundational_manifest(&cfg, &specs)).unwrap();
            let first = foundational_campaign(
                &specs,
                &cfg,
                &RunOptions::new(exec_cfg).checkpoint(&ckpt).hooks(&plan).cancel(plan.kill_flag()),
            );
            assert!(plan.fired(), "threads={threads}: kill fault must fire");
            assert!(plan.committed() >= kill_after);
            if threads == 1 {
                // Serial scheduling is fully deterministic: the run stops
                // exactly at the kill boundary.
                match first {
                    Err(CheckpointError::Interrupted { completed, total }) => {
                        assert_eq!(completed as u64, kill_after);
                        assert_eq!(total, specs.len());
                    }
                    other => panic!("expected Interrupted, got {other:?}"),
                }
            }
            drop(ckpt);

            // Second run: same campaign, no faults. Journaled units are
            // restored, the rest run live.
            let ckpt = Checkpoint::open(&dir, foundational_manifest(&cfg, &specs)).unwrap();
            assert!(ckpt.completed_units() >= kill_after as usize);
            let progress = Progress::new();
            let resumed = foundational_campaign(
                &specs,
                &cfg,
                &RunOptions::new(exec_cfg).progress(&progress).checkpoint(&ckpt),
            )
            .expect("resume completes");
            assert_eq!(
                foundational_json(&resumed),
                golden,
                "threads={threads}, kill_after={kill_after}: resumed output must be \
                 byte-identical to an uninterrupted run"
            );
            let snap = progress.snapshot();
            assert_eq!(snap.units_done, specs.len(), "restored units count as done");

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn in_depth_killed_and_resumed_is_byte_identical() {
    let specs = modules(&["H3"]);
    let cfg = InDepthConfig::quick();
    let golden = serde_json::to_string_pretty(
        &in_depth_campaign(&specs, &cfg, &RunOptions::new(ExecConfig::new(1, cfg.seed)))
            .expect("plain campaign run cannot fail"),
    )
    .unwrap();
    let manifest = || {
        CheckpointManifest::for_campaign(IN_DEPTH, checkpoint::config_hash(&cfg), cfg.seed, &specs)
    };

    // kill_after=1 dies inside phase 1 (selection); kill_after=4 dies
    // mid phase 2 (measurement cells). Both phases share one journal.
    for threads in [1usize, 2, 8] {
        for kill_after in [1u64, 4] {
            let dir = scratch_dir("indepth");
            let exec_cfg = ExecConfig::new(threads, cfg.seed);

            let plan = FaultPlan::kill_after(kill_after);
            let ckpt = Checkpoint::open(&dir, manifest()).unwrap();
            let first = in_depth_campaign(
                &specs,
                &cfg,
                &RunOptions::new(exec_cfg).checkpoint(&ckpt).hooks(&plan).cancel(plan.kill_flag()),
            );
            assert!(plan.fired());
            if threads == 1 && kill_after > 1 {
                assert!(first.is_err(), "serial run with mid-phase-2 kill must be interrupted");
            }
            drop(ckpt);

            let ckpt = Checkpoint::open(&dir, manifest()).unwrap();
            let resumed =
                in_depth_campaign(&specs, &cfg, &RunOptions::new(exec_cfg).checkpoint(&ckpt))
                    .expect("resume completes");
            assert_eq!(
                serde_json::to_string_pretty(&resumed).unwrap(),
                golden,
                "threads={threads}, kill_after={kill_after}"
            );

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn discovery_stash_with_torn_tail_resumes_byte_identical() {
    // The discovery campaign journals *partial* row state (epoch
    // observations) between stashes, so the torn-tail drop interacts
    // with mid-row resume: losing the tail stash record must fall back
    // to the previous stash of the same row, fast-forward the RNG, and
    // still land on the uninterrupted run's bytes.
    let specs = modules(&["M1"]);
    let cfg = DiscoveryConfig { seed: 5025, stash_every: 4, ..DiscoveryConfig::quick() };
    let manifest = || {
        CheckpointManifest::for_campaign(DISCOVERY, checkpoint::config_hash(&cfg), cfg.seed, &specs)
    };
    let exec_cfg = ExecConfig::new(1, cfg.seed);
    let golden = serde_json::to_string_pretty(
        &discovery_campaign(&specs, &cfg, &RunOptions::new(exec_cfg))
            .expect("plain campaign run cannot fail"),
    )
    .unwrap();

    let dir = scratch_dir("disc-torn");

    // First run: die after the third journal append — one selection
    // commit plus two row stashes, i.e. mid-row with partial epoch
    // state on disk.
    let plan = FaultPlan::kill_after(3);
    let ckpt = Checkpoint::open(&dir, manifest()).unwrap();
    let opts = RunOptions::new(exec_cfg).checkpoint(&ckpt).hooks(&plan).cancel(plan.kill_flag());
    let first = discovery_campaign(&specs, &cfg, &opts);
    assert!(plan.fired(), "kill fault must fire");
    assert!(first.is_err(), "a mid-campaign kill must interrupt the run");
    drop(ckpt);

    // Tear the tail stash record mid-write, as a process killed mid-write would.
    faults::truncate_tail_bytes(&journal_of(&dir), 5).unwrap();
    let ckpt = Checkpoint::open(&dir, manifest()).unwrap();
    assert!(ckpt.recovered_torn_tail(), "torn stash tail must be detected");
    assert!(ckpt.completed_units() >= 1, "earlier records survive the recovery");

    let resumed = discovery_campaign(&specs, &cfg, &RunOptions::new(exec_cfg).checkpoint(&ckpt))
        .expect("resume completes");
    assert_eq!(
        serde_json::to_string_pretty(&resumed).unwrap(),
        golden,
        "resume after a torn stash tail must be byte-identical to an uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ----- journal mechanics on a synthetic workload ---------------------

fn synth_manifest() -> CheckpointManifest {
    CheckpointManifest {
        format_version: checkpoint::FORMAT_VERSION,
        campaign: "synthetic".to_owned(),
        config_hash: 42,
        campaign_seed: 7,
        shard_index: 0,
        shard_count: 1,
        roster_fingerprint: 0,
    }
}

fn synth_units(n: u32) -> Vec<Unit<u32>> {
    (0..n).map(|i| Unit::new(UnitKey::cell("CKPT", i, 0), i)).collect()
}

/// Runs the 6-unit synthetic campaign; `ran` counts closure executions.
fn run_synth(
    dir: &Path,
    hooks: Option<&dyn UnitHooks>,
    ran: &AtomicU64,
) -> Result<Vec<u64>, CheckpointError> {
    let ckpt = Checkpoint::open(dir, synth_manifest())?;
    let mut opts = RunOptions::new(ExecConfig::new(1, 7)).checkpoint(&ckpt);
    if let Some(hooks) = hooks {
        opts = opts.hooks(hooks);
    }
    run_units(&opts, "synthetic", "units", synth_units(6), |ctx, &i| {
        ran.fetch_add(1, Ordering::SeqCst);
        ctx.seed ^ u64::from(i)
    })
    .map(|report| report.into_results())
}

fn journal_of(dir: &Path) -> PathBuf {
    dir.join("journal.jsonl")
}

#[test]
fn resume_restores_from_journal_without_recompute() {
    let dir = scratch_dir("cache");
    let ran = AtomicU64::new(0);
    let golden = run_synth(&dir, None, &ran).unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 6, "first run executes every unit");

    let again = run_synth(&dir, None, &ran).unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 6, "second run restores everything from the journal");
    assert_eq!(again, golden);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_tail_is_dropped_and_recomputed() {
    let dir = scratch_dir("torn");
    let ran = AtomicU64::new(0);
    let golden = run_synth(&dir, None, &ran).unwrap();

    // Tear the last record mid-write, as a process killed mid-write would.
    faults::truncate_tail_bytes(&journal_of(&dir), 5).unwrap();
    let ckpt = Checkpoint::open(&dir, synth_manifest()).unwrap();
    assert!(ckpt.recovered_torn_tail(), "torn tail must be detected");
    assert_eq!(ckpt.completed_units(), 5, "only the torn record is lost");
    drop(ckpt);

    let resumed = run_synth(&dir, None, &ran).unwrap();
    assert_eq!(resumed, golden, "the torn unit is recomputed to the same value");
    assert_eq!(ran.load(Ordering::SeqCst), 7, "exactly one unit reran");

    // The journal healed: reopening finds all six records intact.
    let ckpt = Checkpoint::open(&dir, synth_manifest()).unwrap();
    assert!(!ckpt.recovered_torn_tail());
    assert_eq!(ckpt.completed_units(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_tail_record_is_dropped_and_recomputed() {
    let dir = scratch_dir("bitrot");
    let ran = AtomicU64::new(0);
    let golden = run_synth(&dir, None, &ran).unwrap();

    // Flip a byte inside the last record: framing intact, checksum dead.
    faults::corrupt_tail_record(&journal_of(&dir)).unwrap();
    let ckpt = Checkpoint::open(&dir, synth_manifest()).unwrap();
    assert!(ckpt.recovered_torn_tail());
    assert_eq!(ckpt.completed_units(), 5);
    drop(ckpt);

    assert_eq!(run_synth(&dir, None, &ran).unwrap(), golden);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_journal_corruption_is_a_hard_error() {
    let dir = scratch_dir("midrot");
    let ran = AtomicU64::new(0);
    run_synth(&dir, None, &ran).unwrap();

    // Corruption *before* the tail cannot be a torn write; refusing to
    // guess is the only safe answer.
    faults::corrupt_record(&journal_of(&dir), 1).unwrap();
    match Checkpoint::open(&dir, synth_manifest()) {
        Err(CheckpointError::Corrupted { line, .. }) => assert_eq!(line, 2),
        other => panic!("expected Corrupted, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicked_units_are_not_journaled_and_recompute_on_resume() {
    let dir = scratch_dir("panic");
    let ran = AtomicU64::new(0);

    // First run: unit 3 is ordered to panic. The run completes (panics
    // are per-unit outcomes, not fatal), journaling the other five.
    let plan = FaultPlan::none().panic_on(UnitKey::cell("CKPT", 3, 0));
    let ckpt = Checkpoint::open(&dir, synth_manifest()).unwrap();
    let opts = RunOptions::new(ExecConfig::new(1, 7)).checkpoint(&ckpt).hooks(&plan);
    let report = run_units(&opts, "synthetic", "units", synth_units(6), |ctx, &i| {
        ran.fetch_add(1, Ordering::SeqCst);
        ctx.seed ^ u64::from(i)
    })
    .unwrap();
    assert!(report.outcomes[3].is_panicked());
    assert_eq!(report.outcomes.iter().filter(|o| o.is_panicked()).count(), 1);
    drop(ckpt);

    let ckpt = Checkpoint::open(&dir, synth_manifest()).unwrap();
    assert_eq!(ckpt.completed_units(), 5, "the panicked unit must not be journaled");
    drop(ckpt);

    // Resume without the fault: only the panicked unit reruns.
    let before = ran.load(Ordering::SeqCst);
    let resumed = run_synth(&dir, None, &ran).unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), before + 1);
    assert_eq!(resumed.len(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----- manifest (config-drift) rejection -----------------------------

#[test]
fn manifest_drift_is_rejected_field_by_field() {
    let dir = scratch_dir("drift");
    let ran = AtomicU64::new(0);
    run_synth(&dir, None, &ran).unwrap();

    let drifts: Vec<(&str, CheckpointManifest)> = vec![
        ("format_version", CheckpointManifest { format_version: 2, ..synth_manifest() }),
        ("campaign", CheckpointManifest { campaign: "in_depth".into(), ..synth_manifest() }),
        ("config_hash", CheckpointManifest { config_hash: 43, ..synth_manifest() }),
        ("campaign_seed", CheckpointManifest { campaign_seed: 8, ..synth_manifest() }),
        ("shard_index", CheckpointManifest { shard_index: 1, shard_count: 2, ..synth_manifest() }),
        ("roster_fingerprint", CheckpointManifest { roster_fingerprint: 9, ..synth_manifest() }),
    ];
    for (expected_field, manifest) in drifts {
        match Checkpoint::open(&dir, manifest) {
            Err(CheckpointError::ManifestMismatch { field, .. }) => assert_eq!(
                field, expected_field,
                "the first differing manifest field must be named"
            ),
            other => panic!("{expected_field}: expected ManifestMismatch, got {other:?}"),
        }
    }

    // The journal itself is untouched by rejected opens.
    let ckpt = Checkpoint::open(&dir, synth_manifest()).unwrap();
    assert_eq!(ckpt.completed_units(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_hash_tracks_config_changes() {
    let cfg = foundational_cfg(2025);
    assert_eq!(checkpoint::config_hash(&cfg), checkpoint::config_hash(&cfg.clone()));
    let mut changed = foundational_cfg(2025);
    changed.measurements += 1;
    assert_ne!(
        checkpoint::config_hash(&cfg),
        checkpoint::config_hash(&changed),
        "any config field change must invalidate old checkpoints"
    );
}

// ----- shard-union equivalence (satellite) ---------------------------

#[test]
fn shard_union_is_byte_identical_to_unsharded_run() {
    let specs = modules(&["M1", "S2", "H3", "S0"]);
    let cfg = foundational_cfg(2025);
    let run_opts = RunOptions::new(ExecConfig::new(2, cfg.seed));
    let golden =
        foundational_campaign(&specs, &cfg, &run_opts).expect("plain campaign run cannot fail");

    for count in [2usize, 3] {
        let shard_runs: Vec<Vec<Option<FoundationalResult>>> = (0..count)
            .map(|index| {
                foundational_campaign(&shard_specs(&specs, index, count), &cfg, &run_opts)
                    .expect("plain campaign run cannot fail")
            })
            .collect();

        // Round-robin sharding: global module i lives at position i/count
        // of shard i%count. Reassemble and compare bytes.
        let merged: Vec<Option<FoundationalResult>> =
            (0..specs.len()).map(|i| shard_runs[i % count][i / count].clone()).collect();
        assert_eq!(
            foundational_json(&merged),
            foundational_json(&golden),
            "merging {count} shards must reproduce the unsharded output byte-for-byte"
        );
    }
}
