//! Behavioural DRAM device model for the VRD reproduction.
//!
//! This crate replaces the real DDR4/HBM2 chips of the paper with a
//! software device model whose read-disturbance behaviour follows the
//! paper's own hypothetical explanation for variable read disturbance
//! (§4.2): weak victim cells whose effective disturbance thresholds are
//! modulated by charge traps that randomly occupy/vacate between hammer
//! sessions.
//!
//! Main entry points:
//!
//! - [`device::DramDevice`] — a bank-organized DRAM chip you can
//!   activate/precharge/read/write; reading a row materializes
//!   read-disturbance bitflips from accumulated aggressor activity.
//! - [`spec::ModuleSpec`] and [`fleet::Module`] — the 21 DDR4 modules and
//!   4 HBM2 chips of the paper's Table 1, with per-module VRD model
//!   parameters calibrated to Table 7.
//! - [`family::DeviceFamily`] — per-family descriptors (topology, timing,
//!   addressing policy, per-bank variation); `spec.family()` is the
//!   single source of device geometry.
//! - [`mapping::RowMapping`] — logical→physical row address translation
//!   schemes plus reverse engineering (§3.1).
//! - [`pattern::DataPattern`] — the four data patterns of Table 2.
//!
//! A row stores one fill byte, as every Table-2 pattern is a uniform
//! fill. The model covers read disturbance only: the paper's tests
//! finish within one refresh window (§3.1), so retention failures are
//! out of scope. The on-die mechanisms the methodology disables (TRR,
//! on-die ECC) are switches on [`DramDevice`].
//!
//! # Examples
//!
//! ```
//! use vrd_dram::device::{DeviceConfig, DramDevice};
//! use vrd_dram::pattern::DataPattern;
//!
//! let mut dev = DramDevice::new(DeviceConfig::small_test(), 42);
//! let victim = 100;
//! dev.write_row(0, victim, DataPattern::Checkered0.victim_byte());
//! dev.write_row(0, victim - 1, DataPattern::Checkered0.aggressor_byte());
//! dev.write_row(0, victim + 1, DataPattern::Checkered0.aggressor_byte());
//! // Double-sided hammer: 200k activations of each neighbour, 35 ns open.
//! for aggressor in [victim - 1, victim + 1] {
//!     dev.precharge(0).unwrap();
//!     dev.activate_n(0, aggressor, 200_000, 35.0).unwrap();
//!     dev.precharge(0).unwrap();
//! }
//! let flips = dev.read_and_compare(0, victim, DataPattern::Checkered0.victim_byte());
//! // A heavy enough hammer count flips at least the row's weakest cell,
//! // if the row has any weak cell at all.
//! println!("{} bitflips", flips.len());
//! ```

pub mod batch;
pub mod cells;
pub mod conditions;
pub mod device;
pub mod error;
pub mod family;
pub mod fleet;
pub mod hashing;
pub mod keyed;
pub mod mapping;
pub mod pattern;
pub mod spatial;
pub mod spec;
pub mod vrd;

pub use batch::{LaneThresholds, RowBatchProfile};
pub use cells::CellPolarity;
pub use conditions::TestConditions;
pub use device::{Bitflip, DeviceConfig, DramDevice};
pub use error::DramError;
pub use family::{BankAddress, BankVariation, ChipMapping, DeviceFamily, FamilyTimings, Topology};
pub use fleet::Module;
pub use mapping::RowMapping;
pub use pattern::DataPattern;
pub use spec::{DieDensity, DramStandard, Manufacturer, ModuleSpec};
