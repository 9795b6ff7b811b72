//! Statistics substrate for the VRD reproduction.
//!
//! This crate provides the numerical building blocks used throughout the
//! workspace to analyze read-disturbance-threshold (RDT) measurement series
//! the way the VRD paper does:
//!
//! - [`descriptive`] — means, variances, coefficients of variation,
//!   percentiles, and summary records.
//! - [`boxplot`] — five-number box-and-whiskers summaries following the
//!   paper's quartile convention (footnote 6: quartiles are medians of the
//!   ordered halves).
//! - [`histogram`] — equal-width histograms with unique-value bin counts
//!   (Fig. 4 of the paper).
//! - [`runlength`] — run-length encoding of equal consecutive values
//!   (Fig. 5).
//! - [`acf`] — sample autocorrelation functions (Fig. 6).
//! - [`chi_square`] — Pearson chi-square goodness-of-fit against a fitted
//!   normal distribution (§4.1), with the required special functions
//!   implemented in [`special`].
//! - [`ks`] — the two-sample Kolmogorov–Smirnov test between
//!   measurement series (did the RDT distribution change?).
//! - [`normal`] — normal/lognormal sampling (Box–Muller) and CDF/PDF.
//! - [`scurve`] — sorted percentile curves (Fig. 7a).
//! - [`binomial`] — binomial pmf/cdf and exact Clopper–Pearson
//!   confidence bounds.
//! - [`sequential`] — the DiscoRD-style early-stopping rule bounding a
//!   row's reliable minimum RDT at a confidence target.
//!
//! # Examples
//!
//! ```
//! use vrd_stats::descriptive::coefficient_of_variation;
//!
//! let series = [1740.0, 2040.0, 1900.0, 1880.0];
//! let cv = coefficient_of_variation(&series).unwrap();
//! assert!(cv > 0.0 && cv < 1.0);
//! ```

pub mod acf;
pub mod binomial;
pub mod boxplot;
pub mod chi_square;
pub mod descriptive;
pub mod error;
pub mod histogram;
pub mod ks;
pub mod normal;
pub mod runlength;
pub mod scurve;
pub mod sequential;
pub mod special;

pub use acf::{autocorrelation, white_noise_bound};
pub use binomial::{
    binomial_cdf, binomial_pmf, binomial_sf, binomial_upper_confidence,
    zero_success_upper_confidence,
};
pub use boxplot::BoxSummary;
pub use chi_square::{chi_square_gof_normal, ChiSquareResult};
pub use descriptive::{coefficient_of_variation, mean, percentile, stddev, Summary};
pub use error::StatsError;
pub use histogram::Histogram;
pub use ks::{ks_test_two_sample, KsResult};
pub use runlength::run_length_histogram;
pub use scurve::SCurve;
pub use sequential::{SequentialMin, StoppingRule};
