//! Software reimplementation of a DRAM-Bender-style testing infrastructure.
//!
//! The paper builds its characterization on DRAM Bender, an FPGA-based
//! platform that executes DRAM command sequences with precise timing and a
//! PID-controlled thermal rig. This crate reproduces that stack in
//! software against the [`vrd_dram`] device model:
//!
//! - [`command`] — the DRAM command set (ACT/PRE/RD/WR/REF).
//! - [`timing`] — JEDEC timing parameter tables (DDR4, DDR5 per the
//!   paper's Table 6, HBM2).
//! - [`program`] — test programs (command sequences with waits and
//!   hardware-style repeat loops, built in code through
//!   `Program::new().cmd(..).wait_ns(..).repeat(..)`) and their executor.
//! - [`routines`] — the building blocks of Algorithm 1: row
//!   initialization, double-sided hammering/pressing, read-and-compare.
//! - [`thermal`] — the heater-pad + PID temperature controller
//!   (±0.5 °C, like the paper's MaxWell FT200 setup).
//! - [`platform`] — the assembled test platform with interference
//!   controls (refresh, TRR, on-die ECC) per the paper's §3.1.
//! - [`estimate`] — the Appendix-A RDT test time and energy estimation
//!   methodology (Tables 4–6, Figs. 17–24).
//!
//! # Examples
//!
//! ```
//! use vrd_bender::platform::TestPlatform;
//! use vrd_dram::{DataPattern, TestConditions};
//!
//! let mut platform = TestPlatform::small_test(7);
//! let conditions = TestConditions::foundational();
//! vrd_bender::routines::initialize_rows(&mut platform, 0, 100, conditions.pattern, true);
//! vrd_bender::routines::hammer_double_sided(&mut platform, 0, 100, 10_000, &conditions);
//! let flips = vrd_bender::routines::read_compare(&mut platform, 0, 100, conditions.pattern);
//! println!("{} flips after 10k hammers", flips.len());
//! ```

pub mod command;
pub mod estimate;
pub mod platform;
pub mod program;
pub mod routines;
pub mod search;
pub mod thermal;
pub mod timing;

pub use command::DramCommand;
pub use platform::{BatchMeasurement, TestPlatform};
pub use program::{Instr, Program};
pub use thermal::ThermalController;
pub use timing::TimingParams;
