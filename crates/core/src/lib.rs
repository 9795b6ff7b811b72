//! The VRD paper's primary contribution, as a library.
//!
//! This crate implements the characterization methodology of
//! *"Variable Read Disturbance: An Experimental Analysis of Temporal
//! Variation in DRAM Read Disturbance"* (HPCA 2025) on top of the
//! device-model and testing-infrastructure substrates:
//!
//! - [`algorithm`] — Algorithm 1: `find_victim` (row selection by guessed
//!   RDT) and the repeated-measurement `test_loop` sweeping hammer counts
//!   from `RDT_guess/2` to `RDT_guess×3` in steps of `RDT_guess/100`.
//! - [`series`] — the [`RdtSeries`] type holding one row's repeated RDT
//!   measurements plus the summary operations the figures need.
//! - [`metrics`] — VRD metrics: coefficient of variation, unique RDT
//!   states, run lengths (Fig. 5), first occurrence of the minimum.
//! - [`predictability`] — §4.1: chi-square goodness of fit against a
//!   fitted normal and autocorrelation comparison with white noise.
//! - [`montecarlo`] — §5.1: probability of finding the minimum RDT with N
//!   measurements, expected normalized minimum RDT, and within-margin
//!   probabilities, in closed form (the paper estimates them by
//!   Monte-Carlo subsampling, which the root test suite keeps as an
//!   oracle).
//! - [`campaign`] — the foundational (§4) and in-depth (§5) measurement
//!   campaigns against simulated modules.
//! - [`discovery`] — the DiscoRD-style early-stopping campaign: bound
//!   each row's reliable RDT with a sequential quiet-streak stopping
//!   rule instead of a fixed measurement budget.
//! - [`exec`] — the deterministic executor that shards campaign work
//!   units across threads with per-unit derived seeds, so parallel
//!   campaigns are bit-identical to serial ones.
//! - [`checkpoint`] — crash-safe campaign persistence: an append-only,
//!   checksummed journal of finished units plus a manifest binding it to
//!   one campaign config/seed/shard, so a killed campaign resumes to
//!   byte-identical output.
//! - [`journal`] — durable state on disk: one record append, one
//!   torn-tail rule and one atomic whole-file write, shared by the
//!   checkpoint journal, trace sinks and the campaign service's logs.
//! - [`obs`] — structured observability: typed campaign events
//!   (unit/phase/checkpoint lifecycle with wall time, simulated test
//!   time/energy, and bitflips) flowing to pluggable sinks — JSONL
//!   traces, metrics aggregation, in-memory capture.
//! - [`run`] — the campaign-run surface: [`run::RunOptions`] bundles
//!   executor config, observer, checkpoint, hooks, and cancellation, so
//!   observed/checkpointed are configurations of one entry point, and
//!   [`run::run_units`] is the one body every campaign phase runs
//!   through.
//! - [`scheduler`] — deterministic fair-share scheduling for
//!   multi-tenant campaign services: stride scheduling across tenants
//!   with a replayable op log, so dispatch order is a pure function of
//!   `(service_seed, submission log)`.
//! - [`guardband`] — §6.3/6.4: guardbanded hammering, unique-bitflip
//!   accounting (Fig. 16), and ECC codeword classification.
//!
//! # Examples
//!
//! Measure a row's RDT a few times and inspect the variation:
//!
//! ```
//! use vrd_bender::TestPlatform;
//! use vrd_core::algorithm::{find_victim, test_loop, SweepSpec};
//! use vrd_dram::TestConditions;
//!
//! let mut platform = TestPlatform::small_test(3);
//! let conditions = TestConditions::foundational();
//! let (row, guess) =
//!     find_victim(&mut platform, 0, &conditions, 40_000, 2..2000).expect("vulnerable row");
//! let series = test_loop(&mut platform, 0, row, &conditions, 20, &SweepSpec::from_guess(guess));
//! assert_eq!(series.len(), 20);
//! ```

pub mod algorithm;
pub mod campaign;
pub mod checkpoint;
pub mod discovery;
pub mod exec;
pub mod guardband;
pub mod journal;
pub mod metrics;
pub mod montecarlo;
pub mod obs;
pub mod online;
pub mod predictability;
pub mod run;
pub mod scheduler;
pub mod series;

pub use algorithm::{
    find_victim, test_loop, test_loop_using, EvalStrategy, SearchStrategy, SweepSpec,
};
pub use series::RdtSeries;
