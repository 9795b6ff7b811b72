//! Experiment driver regenerating every table and figure of the VRD
//! paper's evaluation.
//!
//! Each experiment is a function that takes an [`opts::Options`] scale
//! configuration and returns a serializable result that the `vrd-exp`
//! binary renders as the same rows/series the paper reports and writes
//! as JSON under `results/`. [`studies::STUDIES`] lists every id the
//! binary accepts; `vrd-exp all` runs them in that order.
//!
//! | IDs | Paper artifact | Module |
//! |---|---|---|
//! | `fig1 fig3 fig4 fig5 fig6` | §4 foundational study | [`foundational`] |
//! | `fig7 fig9 fig10 fig11 fig12 fig13 tab7` | §5 in-depth study | [`indepth`] |
//! | `fig8 fig15 fig25` | §5.1 subsampling analysis | [`mc`] |
//! | `fig14` | §6.3 mitigation overheads | [`memsim_exp`] |
//! | `fig16` | §6.4 guardband bitflips | [`guardband_exp`] |
//! | `tab3` | §6.4 ECC error rates | [`ecc_exp`] |
//! | `fig17`–`fig24` | Appendix A time/energy | [`estimate_exp`] |
//! | `findings` | Findings 1–21 | [`findings`] |
//! | `discovery` | DiscoRD-style early-stopping RDT bounds | [`discovery_exp`] |
//! | `memsim-sweep` | spatial-aware defenses sweep (ref \[134\]) | [`sweep_exp`] |
//! | `ablation` `security` `online` `takeaways` | extensions beyond the paper | [`extensions`] |
//! | `family` | per-bank RDT spread across device families | [`family_exp`] |
//! | `serve` | fleet-scale multi-tenant campaign service | [`serve`] |

pub mod discovery_exp;
pub mod ecc_exp;
pub mod estimate_exp;
pub mod extensions;
pub mod family_exp;
pub mod findings;
pub mod foundational;
pub mod guardband_exp;
pub mod indepth;
pub mod mc;
pub mod memsim_exp;
pub mod opts;
pub mod render;
pub mod serve;
pub mod sinks;
pub mod studies;
pub mod sweep_exp;

pub use opts::Options;
