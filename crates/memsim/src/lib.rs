//! Cycle-level DDR5 memory-system simulator for the paper's §6.3
//! guardband-overhead evaluation (Fig. 14).
//!
//! The paper evaluates four read-disturbance mitigations — Graphene,
//! PRAC, PARA, and MINT — in a DDR5 system simulated with Ramulator 2.0,
//! measuring multi-core performance normalized to a baseline without
//! mitigation, for read-disturbance thresholds 1024 and 128 with 0%,
//! 10%, 25%, and 50% guardbands. This crate rebuilds that experiment:
//!
//! - [`dram`] — a DDR5 channel: banks with open-row state and JEDEC
//!   timing (tRCD/tRP/tRAS/tRC/tCCD/tRFC/tREFI).
//! - [`workload`] — synthetic trace generation with configurable memory
//!   intensity (MPKI), row-buffer locality, and bank spread; mixes of
//!   four "highly memory intensive" cores stand in for the paper's
//!   SPEC/TPC/MediaBench/YCSB mixes.
//! - [`cpu`] — a simple MLP-limited core model (1 IPC when unblocked, a
//!   bounded window of outstanding misses).
//! - [`mitigation`] — Graphene (Misra–Gries counters), PARA
//!   (probabilistic), PRAC (per-row activation counters with back-off),
//!   and MINT (minimalist in-DRAM tracker with RFMs).
//! - [`profile`] — per-region effective-threshold maps
//!   ([`MitigationProfile`]) derived from a characterization campaign +
//!   the device's spatial layout; every mechanism in [`mitigation`] can
//!   consult one instead of a uniform worst-case threshold.
//! - [`system`] — ties everything into a steppable system and reports
//!   weighted speedup.
//!
//! # Event-driven advance
//!
//! [`System::run_for`] simulates only the nanoseconds at which something
//! can change, and gives the same results as stepping every nanosecond.
//! Each bank with queued requests keeps a wake time: a lower bound on
//! when servicing its FR-FCFS pick can next issue a command. Every visit
//! sets it to the time the pick — after a command, the new pick — becomes
//! ready: tRCD and the data bus for a row hit, tRAS for a conflict, and
//! tRC, tFAW and tRRD for a closed bank, each raised by refreshes and
//! blocks. An enqueue resets it, and a refresh or any mitigation action
//! resets every bank's. A simulated nanosecond visits, in bank order,
//! only the banks whose wake time has come. `now` then jumps to the
//! earliest of the next refresh, the next completion (including one a
//! visit just issued), each unstalled core's next request and the
//! smallest wake time, but at least one nanosecond, and the unstalled
//! cores commit the skipped instructions in one add.
//!
//! The unmitigated baseline reads neither the threshold nor the
//! mitigation seed, so the Fig.-14 grid runs it once per mix.
//!
//! # Examples
//!
//! ```
//! use vrd_memsim::system::{SimConfig, System};
//! use vrd_memsim::mitigation::MitigationKind;
//!
//! let cfg = SimConfig { cycles: 200_000, ..SimConfig::default() };
//! let baseline = System::run_mix(&cfg, MitigationKind::None, 1024, 42);
//! let para = System::run_mix(&cfg, MitigationKind::Para, 1024, 42);
//! assert!(para.weighted_ipc(&baseline) <= 1.01);
//! ```

pub mod cpu;
pub mod dram;
pub mod mitigation;
pub mod profile;
pub mod security;
pub mod system;
pub mod workload;

pub use mitigation::MitigationKind;
pub use profile::{MitigationProfile, ProfileError};
pub use system::{SimConfig, SimStats, System};
