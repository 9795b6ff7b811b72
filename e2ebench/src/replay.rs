//! Replays of campaign units for the traced run.
//!
//! Victim selection and RDT measurement run inside campaign units,
//! where the benchmark cannot put a timer. The traced run therefore
//! replays each foundational unit through the public
//! `algorithm::find_victim` and `algorithm::test_loop_using` on the
//! same platform and seeds the campaign used, and times those calls.
//! The replay must reproduce the campaign's series exactly; the
//! algorithm and bender numbers it yields are the replay's.

use std::time::{Duration, Instant};

use vrd_bender::platform::TestPlatform;
use vrd_core::algorithm::FIND_VICTIM_CUTOFF;
use vrd_core::campaign::{FoundationalConfig, FoundationalResult};
use vrd_core::exec::{derive_unit_seed, ExecConfig, UnitKey};
use vrd_core::{find_victim, test_loop_using, SweepSpec};
use vrd_dram::ModuleSpec;

use crate::Layers;

/// Totals over the replayed units.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    victim_calls: u64,
    victim_busy: Duration,
    victim_sessions: u64,
    measurements: u64,
    rdt_busy: Duration,
    rdt_sessions: u64,
    rdt_epochs: u64,
    program_builds: u64,
    program_hits: u64,
}

impl Replay {
    /// Replays the foundational units of `specs` and checks each against
    /// the campaign's result for that module.
    ///
    /// # Errors
    ///
    /// Names the first module whose replay differs from the campaign.
    pub fn foundational(
        specs: &[ModuleSpec],
        cfg: &FoundationalConfig,
        exec: &ExecConfig,
        results: &[FoundationalResult],
    ) -> Result<Self, String> {
        let mut r = Replay::default();
        for spec in specs {
            let mut platform =
                TestPlatform::for_module_with_row_bytes(spec.clone(), cfg.seed, cfg.row_bytes);
            platform.reseed_dynamics(derive_unit_seed(
                exec.campaign_seed,
                &UnitKey::module(&spec.name),
            ));
            platform.set_temperature_c(cfg.conditions.temperature_c);
            let expected = results.iter().find(|f| f.module == spec.name);

            let start = Instant::now();
            let found = find_victim(
                &mut platform,
                0,
                &cfg.conditions,
                FIND_VICTIM_CUTOFF,
                2..cfg.scan_rows,
            );
            r.victim_busy += start.elapsed();
            r.victim_calls += 1;
            r.victim_sessions += platform.hammer_sessions();

            let (row, guess) = match (found, expected) {
                (None, None) => continue,
                (Some(found), Some(e)) if found == (e.row, e.rdt_guess) => found,
                (found, e) => {
                    return Err(format!(
                        "replayed victim of {} is {found:?}, the campaign found {:?}",
                        spec.name,
                        e.map(|e| (e.row, e.rdt_guess))
                    ))
                }
            };
            let (sessions, epochs) = (platform.hammer_sessions(), platform.measurement_epochs());
            let start = Instant::now();
            let series = test_loop_using(
                &mut platform,
                0,
                row,
                &cfg.conditions,
                cfg.measurements,
                &SweepSpec::from_guess(guess),
                exec.search,
                exec.eval,
            );
            r.rdt_busy += start.elapsed();
            r.measurements += u64::from(cfg.measurements);
            r.rdt_sessions += platform.hammer_sessions() - sessions;
            r.rdt_epochs += platform.measurement_epochs() - epochs;
            if Some(&series) != expected.map(|e| &e.series) {
                return Err(format!(
                    "replayed RDT series of {} differs from the campaign",
                    spec.name
                ));
            }
            let (hits, builds) = platform.program_cache_stats();
            r.program_hits += hits;
            r.program_builds += builds;
        }
        Ok(r)
    }

    /// Adds the replay's algorithm and bender metrics to `layers`.
    pub fn record(&self, layers: &mut Layers) {
        let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        layers.insert("algorithm.victim.calls", self.victim_calls as f64);
        layers.insert("algorithm.victim.busy_s", self.victim_busy.as_secs_f64());
        layers.insert("algorithm.victim.sessions", self.victim_sessions as f64);
        layers.insert("algorithm.rdt.measurements", self.measurements as f64);
        layers.insert("algorithm.rdt.busy_s", self.rdt_busy.as_secs_f64());
        layers.insert("algorithm.rdt.sessions", self.rdt_sessions as f64);
        layers.insert("algorithm.rdt.epochs", self.rdt_epochs as f64);
        layers.insert(
            "algorithm.rdt.sessions_per_measurement",
            ratio(self.rdt_sessions, self.measurements),
        );
        layers.insert("bender.program_builds", self.program_builds as f64);
        layers.insert("bender.program_hits", self.program_hits as f64);
        layers.insert(
            "bender.cache_hit_ratio",
            ratio(self.program_hits, self.program_hits + self.program_builds),
        );
    }

    /// Sums two replays.
    pub fn add(&mut self, other: &Replay) {
        self.victim_calls += other.victim_calls;
        self.victim_busy += other.victim_busy;
        self.victim_sessions += other.victim_sessions;
        self.measurements += other.measurements;
        self.rdt_busy += other.rdt_busy;
        self.rdt_sessions += other.rdt_sessions;
        self.rdt_epochs += other.rdt_epochs;
        self.program_builds += other.program_builds;
        self.program_hits += other.program_hits;
    }
}
