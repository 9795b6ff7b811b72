//! Structured campaign observability: typed events and pluggable sinks.
//!
//! The paper's campaigns are week-long measurement runs whose test time
//! and energy are budgeted explicitly (Appendix A); follow-ups such as
//! DiscoRD exist precisely because RDT-discovery cost must be measured
//! before it can be minimized. This module gives every campaign a
//! structured telemetry stream instead of ad-hoc prints:
//!
//! - [`Event`] — the typed event vocabulary: campaign/phase boundaries,
//!   per-unit lifecycle with wall time, simulated test time, estimated
//!   test energy (from the bender platform's Appendix-A energy model),
//!   and bitflip counts, checkpoint-commit latencies, and free-form
//!   messages/artifacts from the CLI layer.
//! - [`Observer`] — the sink trait. The executor ([`crate::exec`]), the
//!   checkpoint journal ([`crate::checkpoint`]), and the campaign entry
//!   points ([`crate::campaign`]) all emit into one observer.
//! - Sinks: [`NullObserver`] (default, zero-cost), [`MemorySink`] (test
//!   capture), [`MultiObserver`] (fan-out), [`trace::JsonlSink`] (one
//!   JSON line per event, `--trace-out`), and [`metrics::MetricsSink`]
//!   (wall-time histograms, throughput, checkpoint latency,
//!   simulated-vs-wall ratio → `metrics.json`).
//!
//! # Determinism
//!
//! Unit-scoped events are emitted from worker threads, so their raw
//! interleaving depends on scheduling. The event *contents* do not:
//! everything except the wall-clock fields derives from
//! `(campaign_seed, unit_key)`. [`canonical`] normalizes a stream —
//! zeroing wall-clock fields and sorting unit events between structural
//! boundaries — into a form that is byte-identical at any thread count,
//! which the observer test suite asserts at `--threads 1/2/8`.

use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use crate::exec::UnitKey;

pub mod metrics;
pub mod trace;

/// Message severity for [`Event::Message`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Level {
    /// Routine progress/status.
    Info,
    /// Something surprising but survivable.
    Warn,
    /// A failure the run cannot recover from.
    Error,
}

/// How a unit's work closure ended (the event-layer mirror of
/// [`crate::exec::UnitOutcome`], without the payload).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutcomeKind {
    /// Ran to completion.
    Completed,
    /// Panicked with the contained message.
    Panicked(String),
    /// Yielded mid-unit to a cancellation request
    /// ([`crate::exec::UnitCtx::interrupt`]); the unit reruns on resume.
    Interrupted,
}

/// End-of-campaign roll-up carried by [`Event::CampaignFinished`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Units submitted across all phases.
    pub units_total: usize,
    /// Units finished (completed or panicked), including units restored
    /// from a checkpoint.
    pub units_done: usize,
    /// Units that panicked.
    pub units_panicked: usize,
    /// Bitflips (successful RDT measurements) found.
    pub bitflips: u64,
    /// Simulated DRAM test time consumed (ns).
    pub sim_time_ns: f64,
    /// Estimated DRAM test energy (J), from the bender platform's
    /// Appendix-A command/background energy model.
    pub sim_energy_j: f64,
    /// Host wall-clock time of the campaign (ns). Zeroed by
    /// [`canonical`].
    pub wall_ns: u64,
}

/// One observability event. Serialized externally tagged
/// (`{"UnitFinished": {...}}`), one JSON object per line in the trace
/// stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A campaign entry point was invoked.
    CampaignStarted {
        /// Campaign label (`"foundational"`, `"in_depth"`, ...).
        campaign: String,
    },
    /// A phase (one executor pass) is about to run.
    PhaseStarted {
        /// The owning campaign's label.
        campaign: String,
        /// Phase label (`"measure"`, `"select"`, ...).
        phase: String,
        /// Units submitted to this phase, including ones that will be
        /// restored from a checkpoint instead of running.
        units: usize,
    },
    /// A unit was restored from the checkpoint journal (it does not
    /// run, and reports no `UnitStarted`/`UnitFinished`).
    UnitRestored {
        /// The restored unit.
        key: UnitKey,
    },
    /// A worker popped the unit and is about to run it.
    UnitStarted {
        /// The unit.
        key: UnitKey,
    },
    /// A unit's work closure returned (or panicked).
    UnitFinished {
        /// The unit.
        key: UnitKey,
        /// How the closure ended.
        outcome: OutcomeKind,
        /// Host wall-clock time the unit took (ns). Zeroed by
        /// [`canonical`].
        wall_ns: u64,
        /// Simulated DRAM test time the unit consumed (ns).
        sim_time_ns: f64,
        /// Estimated DRAM test energy the unit consumed (J).
        sim_energy_j: f64,
        /// Bitflips (successful RDT measurements) the unit reported.
        bitflips: u64,
    },
    /// A freshly finished unit's record was appended **and flushed** to
    /// the checkpoint journal.
    CheckpointCommitted {
        /// The committed unit.
        key: UnitKey,
        /// Time the append + flush took (ns). Zeroed by [`canonical`].
        latency_ns: u64,
    },
    /// A discovery-campaign row unit's sequential stopping rule fired:
    /// the row's reliable-RDT bound is certified at the configured
    /// confidence after `epochs_used` measurement epochs (instead of a
    /// fixed-epoch characterization).
    DiscoveryStopped {
        /// The row unit.
        key: UnitKey,
        /// Measurement epochs the row consumed before stopping.
        epochs_used: u32,
        /// The guardbanded reliable-RDT lower bound reported for the
        /// row.
        bound: u32,
        /// The confidence target the stopping rule certified.
        confidence: f64,
    },
    /// A campaign entry point returned successfully.
    CampaignFinished {
        /// Campaign label.
        campaign: String,
        /// The roll-up.
        summary: CampaignSummary,
    },
    /// A free-form log line (the CLI's status messages).
    Message {
        /// Severity.
        level: Level,
        /// The message body.
        body: String,
    },
    /// A rendered experiment artifact (a figure/table the CLI would
    /// print to stdout in human mode).
    Artifact {
        /// Artifact id (`"fig5"`, `"tab7"`, ...).
        id: String,
        /// The rendered text.
        text: String,
    },
    /// An event from one job of a multi-job service run, wrapped with
    /// the job's id. The fleet service multiplexes every job's stream
    /// into one feed of these; [`trace::demux_jobs`] recovers the
    /// per-job streams. Never nested: the inner event is always one of
    /// the plain variants.
    JobScoped {
        /// Owning job id.
        job: String,
        /// The job's own event.
        event: Box<Event>,
    },
}

impl Event {
    /// The event with every host wall-clock field zeroed; all remaining
    /// fields are deterministic functions of `(campaign_seed,
    /// unit_key)`.
    pub fn without_wall_clock(&self) -> Event {
        let mut e = self.clone();
        match &mut e {
            Event::UnitFinished { wall_ns, .. } => *wall_ns = 0,
            Event::CheckpointCommitted { latency_ns, .. } => *latency_ns = 0,
            Event::CampaignFinished { summary, .. } => summary.wall_ns = 0,
            Event::JobScoped { event, .. } => **event = event.without_wall_clock(),
            _ => {}
        }
        e
    }

    /// Whether the event is emitted from worker threads (and therefore
    /// interleaves nondeterministically under parallel execution).
    pub fn is_unit_scoped(&self) -> bool {
        matches!(
            self,
            Event::UnitStarted { .. }
                | Event::UnitFinished { .. }
                | Event::UnitRestored { .. }
                | Event::CheckpointCommitted { .. }
                | Event::DiscoveryStopped { .. }
        )
    }
}

/// Receives events. Implementations must be cheap and non-blocking
/// relative to unit cost: they run on worker threads, inline with the
/// campaign.
pub trait Observer: Sync {
    /// Handles one event.
    fn on_event(&self, event: &Event);
}

/// The do-nothing sink (the default observer of every run).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&self, _event: &Event) {}
}

/// Captures every event in memory, for tests and post-hoc inspection.
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl Default for MemorySink {
    fn default() -> Self {
        MemorySink { events: Mutex::new(Vec::new()) }
    }
}

impl std::fmt::Debug for MemorySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySink").field("events", &self.len()).finish()
    }
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A copy of everything captured so far, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).is_empty()
    }
}

impl Observer for MemorySink {
    fn on_event(&self, event: &Event) {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).push(event.clone());
    }
}

/// Fans every event out to several sinks, in order.
pub struct MultiObserver<'a> {
    sinks: Vec<&'a dyn Observer>,
}

impl<'a> MultiObserver<'a> {
    /// Builds the fan-out from borrowed sinks.
    pub fn new(sinks: Vec<&'a dyn Observer>) -> Self {
        MultiObserver { sinks }
    }
}

impl Observer for MultiObserver<'_> {
    fn on_event(&self, event: &Event) {
        for sink in &self.sinks {
            sink.on_event(event);
        }
    }
}

/// Rank used to order a unit's own events when sorting
/// ([`UnitRestored`](Event::UnitRestored) <
/// [`UnitStarted`](Event::UnitStarted) <
/// [`CheckpointCommitted`](Event::CheckpointCommitted) <
/// [`DiscoveryStopped`](Event::DiscoveryStopped) <
/// [`UnitFinished`](Event::UnitFinished)).
fn unit_event_rank(event: &Event) -> u8 {
    match event {
        Event::UnitRestored { .. } => 0,
        Event::UnitStarted { .. } => 1,
        Event::CheckpointCommitted { .. } => 2,
        Event::DiscoveryStopped { .. } => 3,
        Event::UnitFinished { .. } => 4,
        _ => 5,
    }
}

fn unit_event_key(event: &Event) -> Option<&UnitKey> {
    match event {
        Event::UnitRestored { key }
        | Event::UnitStarted { key }
        | Event::CheckpointCommitted { key, .. }
        | Event::DiscoveryStopped { key, .. }
        | Event::UnitFinished { key, .. } => Some(key),
        _ => None,
    }
}

/// Normalizes an event stream into its canonical, scheduling-independent
/// form: wall-clock fields are zeroed, and runs of unit-scoped events
/// between structural events (campaign/phase boundaries, messages,
/// artifacts) are sorted by `(module, row, condition, rank)`.
///
/// Two runs of the same campaign at different thread counts produce
/// canonical streams that serialize to identical bytes; the observer
/// test suite pins exactly that.
pub fn canonical(events: &[Event]) -> Vec<Event> {
    let mut out: Vec<Event> = Vec::with_capacity(events.len());
    let mut run: Vec<Event> = Vec::new();
    let flush = |run: &mut Vec<Event>, out: &mut Vec<Event>| {
        run.sort_by(|a, b| {
            let ka = unit_event_key(a).expect("unit-scoped");
            let kb = unit_event_key(b).expect("unit-scoped");
            (&ka.module, ka.row, ka.condition, unit_event_rank(a)).cmp(&(
                &kb.module,
                kb.row,
                kb.condition,
                unit_event_rank(b),
            ))
        });
        out.append(run);
    };
    for event in events {
        let normalized = event.without_wall_clock();
        if normalized.is_unit_scoped() {
            run.push(normalized);
        } else {
            flush(&mut run, &mut out);
            out.push(normalized);
        }
    }
    flush(&mut run, &mut out);
    out
}

/// Serializes a canonical stream as JSONL (one event per line) — the
/// byte-comparable form the determinism tests diff.
pub fn canonical_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for event in canonical(events) {
        out.push_str(&serde_json::to_string(&event).expect("event serializes"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(module: &str, row: u32, wall: u64) -> Event {
        Event::UnitFinished {
            key: UnitKey::cell(module, row, 0),
            outcome: OutcomeKind::Completed,
            wall_ns: wall,
            sim_time_ns: 10.0,
            sim_energy_j: 1e-6,
            bitflips: 3,
        }
    }

    #[test]
    fn canonical_zeroes_wall_clock_and_sorts_units() {
        let scrambled = vec![
            Event::PhaseStarted { campaign: "c".into(), phase: "p".into(), units: 2 },
            finished("M1", 7, 999),
            Event::UnitStarted { key: UnitKey::cell("M1", 7, 0) },
            finished("M1", 2, 1),
            Event::UnitStarted { key: UnitKey::cell("M1", 2, 0) },
        ];
        let ordered = vec![
            Event::PhaseStarted { campaign: "c".into(), phase: "p".into(), units: 2 },
            Event::UnitStarted { key: UnitKey::cell("M1", 2, 0) },
            finished("M1", 2, 5),
            Event::UnitStarted { key: UnitKey::cell("M1", 7, 0) },
            finished("M1", 7, 6),
        ];
        assert_eq!(canonical_jsonl(&scrambled), canonical_jsonl(&ordered));
    }

    #[test]
    fn structural_events_are_order_preserving_barriers() {
        let stream = vec![
            Event::PhaseStarted { campaign: "c".into(), phase: "a".into(), units: 1 },
            finished("Z", 1, 0),
            Event::PhaseStarted { campaign: "c".into(), phase: "b".into(), units: 1 },
            finished("A", 1, 0),
        ];
        let canon = canonical(&stream);
        // The phase barrier keeps Z's unit ahead of A's despite Z > A.
        assert!(matches!(&canon[1], Event::UnitFinished { key, .. } if key.module == "Z"));
        assert!(matches!(&canon[3], Event::UnitFinished { key, .. } if key.module == "A"));
    }

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            Event::CampaignStarted { campaign: "foundational".into() },
            finished("M1", 3, 42),
            Event::CheckpointCommitted { key: UnitKey::module("M1"), latency_ns: 17 },
            Event::DiscoveryStopped {
                key: UnitKey::cell("M1", 9, 0),
                epochs_used: 57,
                bound: 4_180,
                confidence: 0.9,
            },
            Event::UnitFinished {
                key: UnitKey::cell("M1", 9, 0),
                outcome: OutcomeKind::Interrupted,
                wall_ns: 1,
                sim_time_ns: 2.0,
                sim_energy_j: 3e-9,
                bitflips: 0,
            },
            Event::Message { level: Level::Warn, body: "hello".into() },
            Event::Artifact { id: "fig5".into(), text: "table".into() },
            Event::CampaignFinished {
                campaign: "foundational".into(),
                summary: CampaignSummary {
                    units_total: 1,
                    units_done: 1,
                    units_panicked: 0,
                    bitflips: 3,
                    sim_time_ns: 10.0,
                    sim_energy_j: 1e-6,
                    wall_ns: 5,
                },
            },
        ];
        for event in &events {
            let json = serde_json::to_string(event).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, event);
        }
    }

    #[test]
    fn job_scoped_round_trips_and_normalizes_recursively() {
        let event =
            Event::JobScoped { job: "job-00003".into(), event: Box::new(finished("M1", 7, 1234)) };
        let json = serde_json::to_string(&event).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, event);
        let normalized = event.without_wall_clock();
        let Event::JobScoped { job, event: inner } = &normalized else {
            panic!("variant preserved");
        };
        assert_eq!(job, "job-00003");
        assert!(matches!(**inner, Event::UnitFinished { wall_ns: 0, .. }));
        // Job-scoped events are structural: the multiplexed stream keeps
        // arrival order, and per-job canonicalization happens after demux.
        assert!(!event.is_unit_scoped());
    }

    #[test]
    fn memory_sink_captures_in_order() {
        let sink = MemorySink::new();
        sink.on_event(&Event::CampaignStarted { campaign: "x".into() });
        sink.on_event(&finished("M1", 1, 2));
        assert_eq!(sink.len(), 2);
        assert!(matches!(sink.events()[0], Event::CampaignStarted { .. }));
    }

    #[test]
    fn multi_observer_fans_out() {
        let a = MemorySink::new();
        let b = MemorySink::new();
        let multi = MultiObserver::new(vec![&a, &b]);
        multi.on_event(&Event::CampaignStarted { campaign: "x".into() });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }
}
