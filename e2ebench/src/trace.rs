//! Span recording for the traced run.
//!
//! Every span is recorded by the benchmark around its own call into a
//! layer's public function, or taken from a time the program reports in
//! its events; the program itself is not instrumented. A [`Tracer`]
//! sums busy time and calls per span name and tracks which spans were
//! outermost, so the traced iteration can say what share of its wall
//! time no layer span covers. Only layer spans go into a tracer; the
//! benchmark never wraps a whole iteration in one. [`PhaseObserver`] is the benchmark's
//! own [`Observer`], passed through `RunOptions`, that turns campaign,
//! phase and unit events into spans.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vrd_core::obs::{Event, Observer};

/// Busy time and call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    /// Calls recorded.
    pub calls: u64,
    /// Summed duration.
    pub busy: Duration,
}

/// Per-iteration span recorder (single-threaded; spans nest).
#[derive(Debug, Default)]
pub struct Tracer {
    spans: RefCell<BTreeMap<&'static str, SpanTotal>>,
    depth: Cell<u32>,
    outermost: Cell<Duration>,
}

impl Tracer {
    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.depth.set(self.depth.get() + 1);
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.depth.set(self.depth.get() - 1);
        if self.depth.get() == 0 {
            self.outermost.set(self.outermost.get() + took);
        }
        let mut spans = self.spans.borrow_mut();
        let total = spans.entry(name).or_default();
        total.calls += 1;
        total.busy += took;
        out
    }

    /// Records `took` of layer time that the program measured itself (a
    /// unit's wall time from its `UnitFinished` event, say) as one
    /// outermost span named `name`.
    pub fn attribute(&self, name: &'static str, took: Duration) {
        self.outermost.set(self.outermost.get() + took);
        let mut spans = self.spans.borrow_mut();
        let total = spans.entry(name).or_default();
        total.calls += 1;
        total.busy += took;
    }

    /// The totals of one span name (zero when it never ran).
    pub fn total(&self, name: &str) -> SpanTotal {
        self.spans.borrow().get(name).copied().unwrap_or_default()
    }

    /// Seconds spent in spans named `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.total(name).busy.as_secs_f64()
    }

    /// Time covered by outermost spans.
    pub fn attributed(&self) -> Duration {
        self.outermost.get()
    }
}

/// Runs `f` in a span when tracing, plainly otherwise.
pub fn span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

#[derive(Debug, Default)]
struct PhaseState {
    open_phase: Option<(String, Instant)>,
    phases: BTreeMap<String, Duration>,
    unit_wall_ns: Vec<u64>,
}

/// The benchmark's observer: phase durations by phase name (timed from
/// one `PhaseStarted` to the next or to `CampaignFinished`) and every
/// unit's wall time.
#[derive(Debug, Default)]
pub struct PhaseObserver {
    state: Mutex<PhaseState>,
}

impl PhaseObserver {
    /// Seconds spent in phases named `phase`, across campaigns.
    pub fn phase_s(&self, phase: &str) -> f64 {
        self.lock().phases.get(phase).map_or(0.0, Duration::as_secs_f64)
    }

    /// Wall time of every finished unit (ns).
    pub fn unit_wall_ns(&self) -> Vec<u64> {
        self.lock().unit_wall_ns.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PhaseState> {
        self.state.lock().expect("no observer callback panics while holding the state")
    }
}

impl Observer for PhaseObserver {
    fn on_event(&self, event: &Event) {
        let now = Instant::now();
        let mut state = self.lock();
        let close = |state: &mut PhaseState| {
            if let Some((phase, started)) = state.open_phase.take() {
                *state.phases.entry(phase).or_default() += now - started;
            }
        };
        match event {
            Event::PhaseStarted { phase, .. } => {
                close(&mut state);
                state.open_phase = Some((phase.clone(), now));
            }
            Event::CampaignFinished { .. } => close(&mut state),
            Event::UnitFinished { wall_ns, .. } => state.unit_wall_ns.push(*wall_ns),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_outermost_spans_count_as_attributed() {
        let t = Tracer::default();
        t.span("outer", || {
            t.span("inner", || std::thread::sleep(Duration::from_millis(2)));
        });
        assert_eq!(t.total("outer").calls, 1);
        assert_eq!(t.total("inner").calls, 1);
        assert!(t.total("outer").busy >= t.total("inner").busy);
        assert_eq!(t.attributed(), t.total("outer").busy);
        assert_eq!(t.total("never").calls, 0);
    }

    #[test]
    fn attributed_time_counts_as_an_outermost_span() {
        let t = Tracer::default();
        t.span("call", || {});
        t.attribute("unit", Duration::from_millis(3));
        assert_eq!(t.total("unit").calls, 1);
        assert_eq!(t.busy_s("unit"), 0.003);
        assert_eq!(t.attributed(), t.total("call").busy + Duration::from_millis(3));
    }

    #[test]
    fn observer_times_phases_until_the_campaign_ends() {
        let obs = PhaseObserver::default();
        let phase =
            |name: &str| Event::PhaseStarted { campaign: "c".into(), phase: name.into(), units: 1 };
        obs.on_event(&phase("select"));
        obs.on_event(&phase("measure"));
        std::thread::sleep(Duration::from_millis(2));
        obs.on_event(&Event::CampaignFinished {
            campaign: "c".into(),
            summary: vrd_core::obs::CampaignSummary {
                units_total: 0,
                units_done: 0,
                units_panicked: 0,
                bitflips: 0,
                sim_time_ns: 0.0,
                sim_energy_j: 0.0,
                wall_ns: 0,
            },
        });
        assert!(obs.phase_s("measure") >= 0.002);
        assert!(obs.phase_s("select") < obs.phase_s("measure"));
        assert_eq!(obs.phase_s("discover"), 0.0);
    }
}
