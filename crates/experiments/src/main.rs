//! `vrd-exp`: regenerate the VRD paper's tables and figures.
//!
//! ```text
//! vrd-exp <id>... [flags]
//! vrd-exp serve --state-dir DIR [flags]   (fleet campaign service;
//!                                          see vrd_experiments::serve)
//!
//! ids: every entry of vrd_experiments::studies::STUDIES, in the order
//!      `all` runs them; `vrd-exp --help` lists them
//!
//! flags:
//!   --paper               paper-scale base (slow!); every other flag
//!                         overrides it, in any order
//!   --measurements N      foundational measurements per row
//!   --indepth N           in-depth measurements per row per condition
//!   --rows N              rows selected per segment (in-depth)
//!   --trials N            guardband trials per margin
//!   --confidence C        discovery stopping-rule confidence target in
//!                         (0, 1) (default 0.9)
//!   --min-epochs N        discovery epoch floor: no row stops earlier
//!   --max-epochs N        discovery epoch ceiling: every row stops
//!                         here at the latest (also the fixed budget
//!                         savings are quoted against)
//!   --mixes N             Fig.-14 workload mixes
//!   --cycles N            Fig.-14 simulated nanoseconds
//!   --region-rows N       rows per mitigation-profile region in the
//!                         spatial-aware defenses sweep (default 512,
//!                         one device-model subarray per region)
//!   --sweep-acts N        attacker activations per defenses-sweep
//!                         attack simulation
//!   --modules A,B,...     restrict the module roster (Table-1 names;
//!                         an unknown name is an error)
//!   --family F            restrict the roster to one device family:
//!                         ddr4, hbm2, or all (default); composes with
//!                         --modules as an intersection
//!   --seed N              root RNG seed
//!   --threads N           worker threads (0 = all cores); results are
//!                         identical at any thread count
//!   --shard I/N           run only the I-th of N round-robin roster
//!                         shards (for spreading a campaign across
//!                         processes; per-module results are unchanged)
//!   --out DIR             JSON output directory (default: results)
//!   --checkpoint-dir DIR  journal finished campaign units under DIR so
//!                         a killed run can be resumed; each campaign
//!                         uses its own subdirectory
//!   --resume              continue from an existing checkpoint (same
//!                         config/seed/shard required; resumed output is
//!                         byte-identical to an uninterrupted run)
//!   --fail-after-units N  fault injection: simulate a crash (exit 3)
//!                         after N units commit (needs --checkpoint-dir)
//!   --trace-out FILE      write every campaign observability event
//!                         (unit lifecycle, checkpoint commits, phase
//!                         boundaries) as JSONL to FILE
//!   --log-format FMT      terminal output encoding: human (default;
//!                         [vrd-exp] status lines + plain tables) or
//!                         json (one serialized event per line)
//! ```

use vrd_experiments::opts::flag_value;
use vrd_experiments::studies::{run_studies, STUDIES};
use vrd_experiments::{sinks, Options};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        vrd_experiments::serve::main(&args[1..]);
    }
    match parse(&args) {
        Ok((ids, opts)) => {
            sinks::set_log_format(opts.log_format);
            if ids.is_empty() {
                sinks::error("usage: vrd-exp <id>... [flags]; see --help");
                std::process::exit(2);
            }
            run_studies(&ids, &opts);
        }
        Err(message) => {
            sinks::error(message);
            std::process::exit(2);
        }
    }
}

/// Parses the command line into experiment ids (in first-occurrence
/// order, each once) and options. `--paper` picks the base scale wherever
/// it appears, so every other flag overrides it in any order.
fn parse(args: &[String]) -> Result<(Vec<&'static str>, Options), String> {
    let mut opts =
        if args.iter().any(|a| a == "--paper") { Options::paper() } else { Options::default() };
    let mut ids = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                let ids: Vec<&str> = STUDIES.iter().map(|s| s.id).collect();
                sinks::artifact(
                    "help",
                    format!("vrd-exp <id>... [flags]\nids: {} all", ids.join(" ")),
                );
                std::process::exit(0);
            }
            "--paper" => {}
            "--measurements" => opts.foundational_measurements = flag_value(&mut iter, arg)?,
            "--indepth" => opts.indepth_measurements = flag_value(&mut iter, arg)?,
            "--rows" => opts.picks_per_segment = flag_value(&mut iter, arg)?,
            "--trials" => opts.guardband_trials = flag_value(&mut iter, arg)?,
            "--confidence" => opts.discovery_confidence = flag_value(&mut iter, arg)?,
            "--min-epochs" => opts.discovery_min_epochs = flag_value(&mut iter, arg)?,
            "--max-epochs" => opts.discovery_max_epochs = flag_value(&mut iter, arg)?,
            "--mixes" => opts.mixes = flag_value(&mut iter, arg)?,
            "--cycles" => opts.sim_cycles = flag_value(&mut iter, arg)?,
            "--region-rows" => {
                opts.region_rows = flag_value(&mut iter, arg)?;
                if opts.region_rows == 0 {
                    return Err(format!("{arg}: must be positive"));
                }
            }
            "--sweep-acts" => {
                opts.sweep_activations = flag_value(&mut iter, arg)?;
                if opts.sweep_activations == 0 {
                    return Err(format!("{arg}: must be positive"));
                }
            }
            "--modules" => {
                opts.modules = flag_value::<String>(&mut iter, arg)?
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .collect();
                let table1 = vrd_dram::ModuleSpec::table1();
                if let Some(unknown) =
                    opts.modules.iter().find(|m| !table1.iter().any(|s| &s.name == *m))
                {
                    return Err(format!("{arg}: unknown module {unknown:?} (not in Table 1)"));
                }
            }
            "--family" => opts.family = flag_value(&mut iter, arg)?,
            "--seed" => opts.seed = flag_value(&mut iter, arg)?,
            "--threads" => opts.threads = flag_value(&mut iter, arg)?,
            "--shard" => {
                let raw = flag_value::<String>(&mut iter, arg)?;
                let (index, count) = raw
                    .split_once('/')
                    .ok_or_else(|| format!("{arg}: expected I/N, got {raw:?}"))?;
                opts.shard_index = index.parse().map_err(|e| format!("{arg}: {e}"))?;
                opts.shard_count = count.parse().map_err(|e| format!("{arg}: {e}"))?;
                if opts.shard_count == 0 || opts.shard_index >= opts.shard_count {
                    return Err(format!("{arg}: index must be < count, got {raw}"));
                }
            }
            "--out" => opts.out_dir = flag_value(&mut iter, arg)?,
            "--checkpoint-dir" => opts.checkpoint_dir = Some(flag_value(&mut iter, arg)?),
            "--resume" => opts.resume = true,
            "--trace-out" => opts.trace_out = Some(flag_value(&mut iter, arg)?),
            "--log-format" => opts.log_format = flag_value(&mut iter, arg)?,
            "--fail-after-units" => opts.fail_after_units = Some(flag_value(&mut iter, arg)?),
            "all" => ids.extend(STUDIES.iter().map(|s| s.id)),
            other => match STUDIES.iter().find(|s| s.id == other) {
                Some(study) => ids.push(study.id),
                None => return Err(format!("unknown argument {other:?}")),
            },
        }
    }
    let mut seen = std::collections::HashSet::new();
    ids.retain(|id| seen.insert(*id));
    if opts.fail_after_units.is_some() && opts.checkpoint_dir.is_none() {
        return Err("--fail-after-units needs --checkpoint-dir (nothing survives otherwise)".into());
    }
    if opts.resume && opts.checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint-dir".into());
    }
    if let Err(e) = opts.discovery_config().stopping_rule() {
        return Err(format!("--confidence/--min-epochs/--max-epochs: {e}"));
    }
    if opts.scope().is_empty() {
        return Err(format!(
            "--modules {} and --family {} select no Table-1 module",
            opts.modules.join(","),
            format!("{:?}", opts.family).to_ascii_lowercase()
        ));
    }
    Ok((ids, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(args: &str) -> (Vec<&'static str>, Options) {
        let args: Vec<String> = args.split_whitespace().map(str::to_owned).collect();
        parse(&args).expect("valid command line")
    }

    #[test]
    fn paper_is_a_base_every_flag_overrides_in_any_order() {
        let paper = Options::paper();
        for line in [
            "fig1 --out D --checkpoint-dir C --threads 1 --measurements 7 --paper",
            "--paper fig1 --out D --checkpoint-dir C --threads 1 --measurements 7",
        ] {
            let (_, opts) = parse_str(line);
            assert_eq!(opts.out_dir, "D", "{line}");
            assert_eq!(opts.checkpoint_dir.as_deref(), Some("C"), "{line}");
            assert_eq!(opts.threads, 1, "{line}");
            assert_eq!(opts.foundational_measurements, 7, "{line}");
            assert_eq!(opts.indepth_measurements, paper.indepth_measurements, "{line}");
            assert_eq!(opts.row_bytes, paper.row_bytes, "{line}");
        }
        let (_, opts) = parse_str("fig1 --threads 1");
        assert_eq!(opts.row_bytes, Options::default().row_bytes);
    }

    #[test]
    fn each_id_runs_once_in_first_occurrence_order() {
        let (ids, _) = parse_str("fig5 fig1 fig5");
        assert_eq!(ids, ["fig5", "fig1"]);
        let all: Vec<&str> = STUDIES.iter().map(|s| s.id).collect();
        let (ids, _) = parse_str("all fig1");
        assert_eq!(ids, all);
        let (ids, _) = parse_str("tab7 all");
        assert_eq!(ids.len(), all.len());
        assert_eq!(ids[0], "tab7");
    }
}
