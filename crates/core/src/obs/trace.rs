//! JSONL trace sink: one JSON object per event, written as events
//! arrive. The format is line-delimited and externally tagged
//! (`{"UnitFinished":{...}}`), so a trace is trivially parseable
//! line-by-line and convertible to chrome://tracing's event format
//! (`UnitStarted`/`UnitFinished` pairs carry the wall-clock durations).

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Mutex, PoisonError};

use super::{Event, Observer};
use crate::journal;

/// Writes every event as one JSON line to the wrapped writer through
/// [`journal::append`]: one `write_all` and a flush per line, so a crash
/// loses at most the event in flight (the same contract as the
/// checkpoint journal).
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer: Mutex::new(writer) }
    }

    /// Unwraps the inner writer (flushing is per-line, so nothing is
    /// buffered here).
    pub fn into_inner(self) -> W {
        self.writer.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<W: Write + Send> Observer for JsonlSink<W> {
    fn on_event(&self, event: &Event) {
        let line = serde_json::to_string(event).expect("event serializes");
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        // Trace output is best-effort telemetry: a full disk must not
        // abort a week-long campaign, so IO errors are swallowed.
        let _ = journal::append(&mut *w, &line);
    }
}

/// Parses a JSONL trace back into events, failing on the first
/// malformed line. The inverse of [`JsonlSink`]; tests use it to prove
/// `--trace-out` streams are parseable.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            serde_json::from_str::<Event>(line).map_err(|e| format!("trace line {}: {e:?}", i + 1))
        })
        .collect()
}

/// Splits a multiplexed service stream back into per-job streams:
/// every [`Event::JobScoped`] is unwrapped into its job's bucket (in
/// arrival order, which for one job is that job's own emission order).
/// Unscoped events — the service's own messages — are ignored. The
/// stream-conformance suite feeds each bucket to
/// [`super::canonical_jsonl`] and diffs it against the job's own trace
/// file.
pub fn demux_jobs(events: &[Event]) -> BTreeMap<String, Vec<Event>> {
    let mut jobs: BTreeMap<String, Vec<Event>> = BTreeMap::new();
    for event in events {
        if let Event::JobScoped { job, event } = event {
            jobs.entry(job.clone()).or_default().push((**event).clone());
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::super::{CampaignSummary, Level, OutcomeKind};
    use super::*;
    use crate::exec::UnitKey;

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        let events = vec![
            Event::CampaignStarted { campaign: "foundational".into() },
            Event::PhaseStarted {
                campaign: "foundational".into(),
                phase: "measure".into(),
                units: 1,
            },
            Event::UnitRestored { key: UnitKey::module("M1") },
            Event::UnitStarted { key: UnitKey::cell("M1", 4, 1) },
            Event::UnitFinished {
                key: UnitKey::cell("M1", 4, 1),
                outcome: OutcomeKind::Panicked("boom".into()),
                wall_ns: 12,
                sim_time_ns: 3.5,
                sim_energy_j: 2e-9,
                bitflips: 0,
            },
            Event::CheckpointCommitted { key: UnitKey::module("M1"), latency_ns: 9 },
            Event::Message { level: Level::Info, body: "status".into() },
            Event::Artifact { id: "fig3".into(), text: "rendered".into() },
            Event::CampaignFinished {
                campaign: "foundational".into(),
                summary: CampaignSummary {
                    units_total: 1,
                    units_done: 1,
                    units_panicked: 1,
                    bitflips: 0,
                    sim_time_ns: 3.5,
                    sim_energy_j: 2e-9,
                    wall_ns: 40,
                },
            },
        ];
        let sink = JsonlSink::new(Vec::new());
        for e in &events {
            sink.on_event(e);
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), events.len());
        assert_eq!(parse_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn parse_rejects_malformed_lines_with_position() {
        let err =
            parse_jsonl("{\"CampaignStarted\":{\"campaign\":\"x\"}}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    /// Events from one campaign, as a trace sink would write them.
    fn campaign_stream(campaign: &str, module: &str) -> Vec<Event> {
        vec![
            Event::CampaignStarted { campaign: campaign.into() },
            Event::PhaseStarted { campaign: campaign.into(), phase: "measure".into(), units: 1 },
            Event::UnitStarted { key: UnitKey::module(module) },
            Event::UnitFinished {
                key: UnitKey::module(module),
                outcome: OutcomeKind::Completed,
                wall_ns: 7,
                sim_time_ns: 1.0,
                sim_energy_j: 1e-9,
                bitflips: 2,
            },
            Event::CampaignFinished {
                campaign: campaign.into(),
                summary: CampaignSummary {
                    units_total: 1,
                    units_done: 1,
                    units_panicked: 0,
                    bitflips: 2,
                    sim_time_ns: 1.0,
                    sim_energy_j: 1e-9,
                    wall_ns: 9,
                },
            },
        ]
    }

    #[test]
    fn parse_accepts_interleaved_multi_campaign_input() {
        // Two concurrent campaigns' sinks append to one file: lines
        // interleave arbitrarily but each line stays a complete event.
        let a = campaign_stream("foundational", "M1");
        let b = campaign_stream("discovery", "S0");
        let sink = JsonlSink::new(Vec::new());
        for pair in a.iter().zip(b.iter()) {
            sink.on_event(pair.0);
            sink.on_event(pair.1);
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), a.len() + b.len());
        // Both campaigns' events all survive, in their own order.
        let of = |c: &str| -> Vec<Event> {
            parsed
                .iter()
                .filter(|e| match e {
                    Event::CampaignStarted { campaign }
                    | Event::PhaseStarted { campaign, .. }
                    | Event::CampaignFinished { campaign, .. } => campaign == c,
                    Event::UnitStarted { key } | Event::UnitFinished { key, .. } => {
                        key.module == if c == "foundational" { "M1" } else { "S0" }
                    }
                    _ => false,
                })
                .cloned()
                .collect()
        };
        assert_eq!(of("foundational"), a);
        assert_eq!(of("discovery"), b);
    }

    #[test]
    fn demux_recovers_per_job_streams_from_a_multiplexed_feed() {
        let a = campaign_stream("foundational", "M1");
        let b = campaign_stream("in_depth", "S0");
        // Multiplex: wrap each job's events and interleave them.
        let mut feed: Vec<Event> = Vec::new();
        feed.push(Event::Message { level: Level::Info, body: "service boot".into() });
        for pair in a.iter().zip(b.iter()) {
            feed.push(Event::JobScoped {
                job: "job-00002".into(),
                event: Box::new(pair.1.clone()),
            });
            feed.push(Event::JobScoped {
                job: "job-00001".into(),
                event: Box::new(pair.0.clone()),
            });
        }
        // The multiplexed feed itself parses line-by-line.
        let sink = JsonlSink::new(Vec::new());
        for e in &feed {
            sink.on_event(e);
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, feed);
        // Demux recovers each job's exact stream; unscoped events drop.
        let jobs = demux_jobs(&parsed);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs["job-00001"], a);
        assert_eq!(jobs["job-00002"], b);
        assert_eq!(
            super::super::canonical_jsonl(&jobs["job-00001"]),
            super::super::canonical_jsonl(&a),
        );
    }
}
