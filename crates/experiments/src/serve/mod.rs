//! `vrd-exp serve`: the fleet-scale campaign service.
//!
//! A long-running process that generates a synthetic fleet of module
//! specs (scaled from the Table-1 roster by
//! [`vrd_dram::fleet::synthetic_specs`]), accepts campaign submissions
//! from multiple tenants, schedules them fairly
//! ([`vrd_core::scheduler::FairShareScheduler`]), runs them on a
//! bounded worker pool, and survives crashes: every scheduling decision
//! is journaled before it is acked, and every job checkpoints its
//! campaign units, so a killed service restarts with `--resume` and
//! finishes byte-identically.
//!
//! ```text
//! vrd-exp serve --state-dir DIR [flags]
//!
//! flags:
//!   --state-dir DIR       service state root (required)
//!   --addr HOST:PORT      HTTP bind address (default 127.0.0.1:0;
//!                         "none" disables HTTP — script mode only)
//!   --fleet-size N        synthetic fleet size (default 1000)
//!   --fleet-seed N        fleet generation seed (default 7)
//!   --service-seed N      scheduler tie-break seed (default 2025)
//!   --workers N           worker pool size (default 2)
//!   --script FILE         submit one JobSpec JSON per line, run until
//!                         every job is terminal, then exit
//!   --resume              reopen an existing state dir (replays the
//!                         submission log, resumes in-flight jobs)
//!   --fail-after-units N  fault injection: exit(3) after N checkpoint
//!                         commits across all jobs
//!   --log-format FMT      human (default) or json
//! ```
//!
//! Submissions are JSON [`job::JobSpec`] objects; only `tenant` and
//! `kind` are required:
//!
//! ```json
//! {"tenant": "alice", "kind": "foundational", "limit": 2, "seed": 7}
//! ```

pub mod http;
pub mod job;
pub mod service;

use std::sync::Arc;

use crate::opts::flag_value;
use crate::sinks;

pub use job::{JobKind, JobRecord, JobSpec, JobState};
pub use service::{FleetMetrics, ServeConfig, Service};

/// Parses `serve` flags into a [`ServeConfig`].
///
/// # Errors
///
/// Returns a usage message on unknown flags, missing values, or a
/// missing `--state-dir`.
pub fn parse(args: &[String]) -> Result<(ServeConfig, sinks::LogFormat), String> {
    let mut cfg = ServeConfig::default();
    let mut log_format = sinks::LogFormat::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--state-dir" => cfg.state_dir = flag_value(&mut iter, arg)?,
            "--addr" => cfg.addr = flag_value(&mut iter, arg)?,
            "--fleet-size" => {
                cfg.fleet_size = flag_value(&mut iter, arg)?;
                if cfg.fleet_size == 0 {
                    return Err(format!("{arg}: must be positive"));
                }
            }
            "--fleet-seed" => cfg.fleet_seed = flag_value(&mut iter, arg)?,
            "--service-seed" => cfg.service_seed = flag_value(&mut iter, arg)?,
            "--workers" => {
                cfg.workers = flag_value(&mut iter, arg)?;
                if cfg.workers == 0 {
                    return Err(format!("{arg}: must be positive"));
                }
            }
            "--script" => cfg.script = Some(flag_value(&mut iter, arg)?),
            "--resume" => cfg.resume = true,
            "--fail-after-units" => cfg.fail_after_units = Some(flag_value(&mut iter, arg)?),
            "--log-format" => log_format = flag_value(&mut iter, arg)?,
            other => return Err(format!("serve: unknown argument {other:?}")),
        }
    }
    if cfg.state_dir.is_empty() {
        return Err("serve needs --state-dir".into());
    }
    if cfg.addr == "none" && cfg.script.is_none() {
        return Err("serve with --addr none needs --script (nothing to do otherwise)".into());
    }
    Ok((cfg, log_format))
}

/// The `vrd-exp serve` entry point: boots the service, starts the
/// worker pool and (unless `--addr none`) the HTTP front end, and runs
/// until the script drains or a shutdown is requested.
pub fn main(args: &[String]) -> ! {
    let (cfg, log_format) = match parse(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            sinks::set_log_format(sinks::LogFormat::default());
            sinks::error(message);
            std::process::exit(2);
        }
    };
    sinks::set_log_format(log_format);
    let script = cfg.script.clone();
    let addr = cfg.addr.clone();
    let workers = cfg.workers;
    let service = match Service::boot(cfg) {
        Ok(service) => Arc::new(service),
        Err(message) => {
            sinks::error(message);
            std::process::exit(2);
        }
    };
    sinks::status(format!(
        "fleet service up: {} modules, seed {}, {workers} workers",
        service.config().fleet_size,
        service.config().service_seed,
    ));
    if addr != "none" {
        match http::serve(Arc::clone(&service), &addr) {
            Ok(bound) => sinks::status(format!("listening on {bound}")),
            Err(message) => {
                sinks::error(message);
                std::process::exit(2);
            }
        }
    }
    // Script submissions land before any worker starts, which is what
    // makes the dispatch trace invariant in --workers.
    if let Some(path) = &script {
        match service.submit_script(path) {
            Ok(n) => sinks::status(format!("script submitted {n} jobs")),
            Err(message) => {
                sinks::error(message);
                std::process::exit(2);
            }
        }
    }
    let pool: Vec<std::thread::JoinHandle<()>> = (0..workers)
        .map(|_| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.worker_loop())
        })
        .collect();
    for handle in pool {
        let _ = handle.join();
    }
    service.write_fleet_metrics();
    sinks::status("fleet service drained");
    // HTTP mode without a shutdown request never reaches here (workers
    // only exit on drain in script mode or on shutdown).
    service.request_shutdown();
    std::process::exit(0);
}
