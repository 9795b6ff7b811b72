//! Metrics aggregation sink: folds the event stream into per-campaign
//! [`MetricsReport`]s — per-unit wall-time histograms, units/s
//! throughput, checkpoint-commit latency, and the simulated-vs-wall
//! time ratio (how far the host run is from DRAM real time, the
//! quantity Appendix A budgets). The experiments runner serializes the
//! reports as `metrics.json` next to the campaign outputs.

use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use super::{Event, Observer, OutcomeKind};

/// Summary statistics plus a log2-bucketed histogram of a duration
/// sample set (nanoseconds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurationHistogram {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample (ns); 0 when empty.
    pub min_ns: u64,
    /// Largest sample (ns); 0 when empty.
    pub max_ns: u64,
    /// Arithmetic mean (ns); 0 when empty.
    pub mean_ns: f64,
    /// Median, nearest-rank (ns).
    pub p50_ns: u64,
    /// 90th percentile, nearest-rank (ns).
    pub p90_ns: u64,
    /// 99th percentile, nearest-rank (ns).
    pub p99_ns: u64,
    /// Occupied power-of-two buckets, ascending.
    pub buckets: Vec<HistogramBucket>,
}

/// One occupied histogram bucket: samples with `ns <= le_ns` (and above
/// the previous bucket's bound).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket (`2^k - 1` ns).
    pub le_ns: u64,
    /// Samples in the bucket.
    pub count: u64,
}

impl DurationHistogram {
    /// Builds the histogram from raw samples.
    pub fn from_samples(samples: &[u64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let count = sorted.len();
        let pct = |p: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((p * count as f64).ceil() as usize).clamp(1, count);
            sorted[rank - 1]
        };
        // log2 buckets: sample n lands in the bucket [2^k, 2^(k+1)-1]
        // containing it; bound stored as 2^(k+1)-1.
        let mut by_bucket = std::collections::BTreeMap::new();
        for &s in &sorted {
            let bits = 64 - s.leading_zeros(); // 0 for s == 0
            let le_ns = if bits >= 64 { u64::MAX } else { (1u64 << bits) - 1 };
            *by_bucket.entry(le_ns).or_insert(0u64) += 1;
        }
        DurationHistogram {
            count,
            min_ns: sorted.first().copied().unwrap_or(0),
            max_ns: sorted.last().copied().unwrap_or(0),
            mean_ns: if count == 0 {
                0.0
            } else {
                sorted.iter().map(|&s| s as f64).sum::<f64>() / count as f64
            },
            p50_ns: pct(0.50),
            p90_ns: pct(0.90),
            p99_ns: pct(0.99),
            buckets: by_bucket
                .into_iter()
                .map(|(le_ns, count)| HistogramBucket { le_ns, count })
                .collect(),
        }
    }
}

/// Early-stopping statistics of a discovery campaign: how many epochs
/// the sequential stopping rule actually spent per row (the quantity
/// DiscoRD minimizes against a fixed-epoch characterization).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscoveryMetrics {
    /// Rows whose stopping rule fired (one per
    /// [`Event::DiscoveryStopped`]).
    pub rows: usize,
    /// Measurement epochs summed over those rows.
    pub epochs_total: u64,
    /// Mean epochs per row.
    pub mean_epochs_per_row: f64,
}

/// Checkpoint-journal commit statistics for one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointMetrics {
    /// Journal records appended (one per freshly finished unit).
    pub commits: usize,
    /// Units restored from the journal instead of re-running.
    pub restored: usize,
    /// Append+flush latency distribution.
    pub commit_latency: DurationHistogram,
}

/// The aggregated metrics of one campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Campaign label (`"foundational"`, `"in_depth"`, ...).
    pub campaign: String,
    /// Units submitted across all phases.
    pub units_total: usize,
    /// Units finished (ran to completion or panicked) this run.
    pub units_done: usize,
    /// Units that panicked.
    pub units_panicked: usize,
    /// Bitflips reported by the units.
    pub bitflips: u64,
    /// Campaign wall-clock time (ns).
    pub wall_time_ns: u64,
    /// Units finished per wall-clock second (0 when wall time is 0).
    pub throughput_units_per_s: f64,
    /// Per-unit wall-time distribution.
    pub unit_wall_time: DurationHistogram,
    /// Simulated DRAM test time consumed (ns), summed over units.
    pub sim_time_ns_total: f64,
    /// Estimated DRAM test energy (J), summed over units.
    pub sim_energy_j_total: f64,
    /// Simulated test time over host wall time: > 1 means the host
    /// outruns DRAM real time, the ROADMAP's "fast as the hardware
    /// allows" direction.
    pub sim_to_wall_ratio: f64,
    /// Checkpoint statistics; `None` when the run had no checkpoint.
    pub checkpoint: Option<CheckpointMetrics>,
    /// Early-stopping statistics; `None` unless the campaign emitted
    /// [`Event::DiscoveryStopped`] events.
    pub discovery: Option<DiscoveryMetrics>,
}

#[derive(Default)]
struct CampaignAccum {
    campaign: String,
    unit_wall_ns: Vec<u64>,
    units_panicked: usize,
    commit_latency_ns: Vec<u64>,
    restored: usize,
    discovery_rows: usize,
    discovery_epochs: u64,
}

impl CampaignAccum {
    fn finish(&mut self, summary: &super::CampaignSummary) -> MetricsReport {
        let wall_s = summary.wall_ns as f64 / 1e9;
        let discovery = if self.discovery_rows == 0 {
            None
        } else {
            Some(DiscoveryMetrics {
                rows: self.discovery_rows,
                epochs_total: self.discovery_epochs,
                mean_epochs_per_row: self.discovery_epochs as f64 / self.discovery_rows as f64,
            })
        };
        let checkpoint = if self.commit_latency_ns.is_empty() && self.restored == 0 {
            None
        } else {
            Some(CheckpointMetrics {
                commits: self.commit_latency_ns.len(),
                restored: self.restored,
                commit_latency: DurationHistogram::from_samples(&self.commit_latency_ns),
            })
        };
        MetricsReport {
            campaign: std::mem::take(&mut self.campaign),
            units_total: summary.units_total,
            units_done: summary.units_done,
            units_panicked: self.units_panicked,
            bitflips: summary.bitflips,
            wall_time_ns: summary.wall_ns,
            throughput_units_per_s: if wall_s > 0.0 {
                self.unit_wall_ns.len() as f64 / wall_s
            } else {
                0.0
            },
            unit_wall_time: DurationHistogram::from_samples(&self.unit_wall_ns),
            sim_time_ns_total: summary.sim_time_ns,
            sim_energy_j_total: summary.sim_energy_j,
            sim_to_wall_ratio: if summary.wall_ns > 0 {
                summary.sim_time_ns / summary.wall_ns as f64
            } else {
                0.0
            },
            checkpoint,
            discovery,
        }
    }
}

/// Folds events into per-campaign [`MetricsReport`]s. One sink can
/// observe several campaigns in sequence (the CLI's `all` mode); each
/// `CampaignFinished` closes out one report.
pub struct MetricsSink {
    state: Mutex<MetricsState>,
}

impl Default for MetricsSink {
    fn default() -> Self {
        MetricsSink { state: Mutex::new(MetricsState::default()) }
    }
}

#[derive(Default)]
struct MetricsState {
    current: CampaignAccum,
    reports: Vec<MetricsReport>,
}

impl MetricsSink {
    /// An empty sink.
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// The reports of all campaigns finished so far.
    pub fn reports(&self) -> Vec<MetricsReport> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).reports.clone()
    }
}

impl Observer for MetricsSink {
    fn on_event(&self, event: &Event) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match event {
            Event::CampaignStarted { campaign } => {
                state.current = CampaignAccum { campaign: campaign.clone(), ..Default::default() };
            }
            Event::UnitFinished { outcome, wall_ns, .. } => {
                state.current.unit_wall_ns.push(*wall_ns);
                if matches!(outcome, OutcomeKind::Panicked(_)) {
                    state.current.units_panicked += 1;
                }
            }
            Event::UnitRestored { .. } => state.current.restored += 1,
            Event::CheckpointCommitted { latency_ns, .. } => {
                state.current.commit_latency_ns.push(*latency_ns);
            }
            Event::DiscoveryStopped { epochs_used, .. } => {
                state.current.discovery_rows += 1;
                state.current.discovery_epochs += u64::from(*epochs_used);
            }
            Event::CampaignFinished { summary, .. } => {
                let report = state.current.finish(summary);
                state.reports.push(report);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::CampaignSummary;
    use super::*;
    use crate::exec::UnitKey;

    #[test]
    fn histogram_statistics_are_exact_on_known_samples() {
        let h = DurationHistogram::from_samples(&[1, 2, 3, 4, 100]);
        assert_eq!(h.count, 5);
        assert_eq!(h.min_ns, 1);
        assert_eq!(h.max_ns, 100);
        assert_eq!(h.p50_ns, 3);
        assert_eq!(h.p99_ns, 100);
        assert!((h.mean_ns - 22.0).abs() < 1e-9);
        // 1 -> le 1; 2,3 -> le 3; 4 -> le 7; 100 -> le 127.
        let bounds: Vec<u64> = h.buckets.iter().map(|b| b.le_ns).collect();
        assert_eq!(bounds, vec![1, 3, 7, 127]);
        assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), 5);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = DurationHistogram::from_samples(&[]);
        assert_eq!((h.count, h.min_ns, h.max_ns, h.p50_ns), (0, 0, 0, 0));
        assert!(h.buckets.is_empty());
    }

    #[test]
    fn sink_folds_a_campaign_into_one_report() {
        let sink = MetricsSink::new();
        sink.on_event(&Event::CampaignStarted { campaign: "foundational".into() });
        sink.on_event(&Event::PhaseStarted {
            campaign: "foundational".into(),
            phase: "measure".into(),
            units: 3,
        });
        sink.on_event(&Event::UnitRestored { key: UnitKey::module("M0") });
        for (row, wall) in [(1u32, 1_000u64), (2, 3_000)] {
            sink.on_event(&Event::UnitStarted { key: UnitKey::cell("M1", row, 0) });
            sink.on_event(&Event::UnitFinished {
                key: UnitKey::cell("M1", row, 0),
                outcome: OutcomeKind::Completed,
                wall_ns: wall,
                sim_time_ns: 500.0,
                sim_energy_j: 1e-9,
                bitflips: 2,
            });
            sink.on_event(&Event::CheckpointCommitted {
                key: UnitKey::cell("M1", row, 0),
                latency_ns: 10,
            });
        }
        sink.on_event(&Event::CampaignFinished {
            campaign: "foundational".into(),
            summary: CampaignSummary {
                units_total: 3,
                units_done: 3,
                units_panicked: 0,
                bitflips: 4,
                sim_time_ns: 1_000.0,
                sim_energy_j: 2e-9,
                wall_ns: 8_000,
            },
        });

        let reports = sink.reports();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.campaign, "foundational");
        assert_eq!(r.units_total, 3);
        assert_eq!(r.unit_wall_time.count, 2);
        assert_eq!(r.bitflips, 4);
        let ckpt = r.checkpoint.as_ref().expect("checkpointed");
        assert_eq!(ckpt.commits, 2);
        assert_eq!(ckpt.restored, 1);
        // 2 units in 8 µs of wall time = 250k units/s.
        assert!((r.throughput_units_per_s - 250_000.0).abs() < 1e-6);
        assert!((r.sim_to_wall_ratio - 0.125).abs() < 1e-12);
    }

    #[test]
    fn discovery_stops_fold_into_their_own_section() {
        let sink = MetricsSink::new();
        sink.on_event(&Event::CampaignStarted { campaign: "discovery".into() });
        for (row, epochs) in [(3u32, 40u32), (9, 60)] {
            sink.on_event(&Event::DiscoveryStopped {
                key: UnitKey::cell("M1", row, 0),
                epochs_used: epochs,
                bound: 4_000,
                confidence: 0.9,
            });
        }
        sink.on_event(&Event::CampaignFinished {
            campaign: "discovery".into(),
            summary: CampaignSummary {
                units_total: 2,
                units_done: 2,
                units_panicked: 0,
                bitflips: 100,
                sim_time_ns: 1.0,
                sim_energy_j: 0.0,
                wall_ns: 10,
            },
        });
        let reports = sink.reports();
        let d = reports[0].discovery.as_ref().expect("discovery section");
        assert_eq!((d.rows, d.epochs_total), (2, 100));
        assert!((d.mean_epochs_per_row - 50.0).abs() < 1e-12);
    }

    #[test]
    fn report_round_trips_through_json() {
        let sink = MetricsSink::new();
        sink.on_event(&Event::CampaignStarted { campaign: "c".into() });
        sink.on_event(&Event::UnitFinished {
            key: UnitKey::module("M1"),
            outcome: OutcomeKind::Panicked("x".into()),
            wall_ns: 5,
            sim_time_ns: 1.0,
            sim_energy_j: 0.0,
            bitflips: 0,
        });
        sink.on_event(&Event::CampaignFinished {
            campaign: "c".into(),
            summary: CampaignSummary {
                units_total: 1,
                units_done: 1,
                units_panicked: 1,
                bitflips: 0,
                sim_time_ns: 1.0,
                sim_energy_j: 0.0,
                wall_ns: 10,
            },
        });
        let reports = sink.reports();
        let json = serde_json::to_string(&reports).unwrap();
        let back: Vec<MetricsReport> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, reports);
    }
}
