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
