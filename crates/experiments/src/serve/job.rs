//! Job submissions: what a tenant asks the fleet service to run.
//!
//! A [`JobSpec`] is one line of the submission format (JSON over HTTP
//! or one line of a `--script` file): the tenant, the campaign kind,
//! a within-tenant [`Priority`], a module scope against the service's
//! synthetic fleet, and the scale knobs of the underlying experiment.
//! Every knob defaults to the smoke scale so a submission can be as
//! small as `{"tenant": "alice", "kind": "discovery"}`.

use serde::{Deserialize, Serialize, Value};

use vrd_core::scheduler::Priority;
use vrd_dram::fleet::FleetScope;
use vrd_dram::ModuleSpec;

use crate::opts::Options;

/// The campaign kinds the service accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// §4 foundational study ([`crate::foundational`]).
    Foundational,
    /// §5 in-depth study ([`crate::indepth`]).
    InDepth,
    /// DiscoRD-style early-stopping bounds ([`crate::discovery_exp`]).
    Discovery,
    /// In-depth study + spatial-aware defenses sweep
    /// ([`crate::sweep_exp`]).
    MemsimSweep,
    /// Per-bank family comparison ([`crate::family_exp`]); pure oracle
    /// computation, no checkpoint (a restarted job reruns it).
    Family,
}

impl JobKind {
    /// Every kind, in submission-format order.
    pub const ALL: [JobKind; 5] = [
        JobKind::Foundational,
        JobKind::InDepth,
        JobKind::Discovery,
        JobKind::MemsimSweep,
        JobKind::Family,
    ];

    /// The submission-format name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Foundational => "foundational",
            JobKind::InDepth => "in_depth",
            JobKind::Discovery => "discovery",
            JobKind::MemsimSweep => "memsim-sweep",
            JobKind::Family => "family",
        }
    }
}

impl std::str::FromStr for JobKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().replace('-', "_").as_str() {
            "foundational" => Ok(JobKind::Foundational),
            "in_depth" | "indepth" => Ok(JobKind::InDepth),
            "discovery" => Ok(JobKind::Discovery),
            "memsim_sweep" => Ok(JobKind::MemsimSweep),
            "family" => Ok(JobKind::Family),
            other => Err(format!(
                "unknown job kind {other:?} (expected foundational|in_depth|discovery|\
                 memsim-sweep|family)"
            )),
        }
    }
}

impl Serialize for JobKind {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_owned())
    }
}

impl Deserialize for JobKind {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::Str(s) => s.parse().map_err(serde::Error::msg),
            other => {
                Err(serde::Error::msg(format!("job kind must be a string, got {}", other.kind())))
            }
        }
    }
}

/// One campaign submission. See the module docs for the format.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobSpec {
    /// Submitting tenant (required, non-empty).
    pub tenant: String,
    /// Campaign kind (required).
    pub kind: JobKind,
    /// Within-tenant priority (`"low"|"normal"|"high"`, default normal).
    pub priority: Priority,
    /// Fleet module names to test; empty = the first [`limit`](Self::limit)
    /// modules of the (family-scoped) fleet.
    pub modules: Vec<String>,
    /// Device-family scope (`"ddr4"|"hbm2"`, default both).
    pub family: Option<String>,
    /// Fleet modules taken when [`modules`](Self::modules) is empty.
    pub limit: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Foundational measurements per row.
    pub measurements: u32,
    /// In-depth measurements per row per condition.
    pub indepth_measurements: u32,
    /// Rows selected per segment (in-depth/discovery).
    pub picks_per_segment: usize,
    /// Rows scanned per segment.
    pub segment_rows: u32,
    /// Discovery epoch ceiling.
    pub discovery_max_epochs: u32,
    /// Attacker activations per defenses-sweep simulation.
    pub sweep_activations: u64,
    /// Device-model row size in bytes.
    pub row_bytes: u32,
    /// Executor threads *inside* the job (the worker pool provides
    /// cross-job concurrency; per-job threading defaults to 1).
    pub threads: usize,
}

impl JobSpec {
    /// A spec with every knob at its submission-format default.
    pub fn new(tenant: impl Into<String>, kind: JobKind) -> Self {
        JobSpec {
            tenant: tenant.into(),
            kind,
            priority: Priority::Normal,
            modules: Vec::new(),
            family: None,
            limit: 2,
            seed: 7,
            measurements: 60,
            indepth_measurements: 40,
            picks_per_segment: 2,
            segment_rows: 48,
            discovery_max_epochs: 120,
            sweep_activations: 60_000,
            row_bytes: 512,
            threads: 1,
        }
    }

    /// Submission-side validation.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenant.trim().is_empty() {
            return Err("tenant must be non-empty".into());
        }
        self.fleet_scope()?;
        if self.limit == 0 {
            return Err("limit must be positive".into());
        }
        if self.row_bytes == 0 {
            return Err("row_bytes must be positive".into());
        }
        if self.kind == JobKind::Discovery {
            // The same stopping-rule check the campaign asserts, so a
            // bad epoch ceiling is refused here instead of panicking
            // the job.
            if let Err(e) = self.to_options().discovery_config().stopping_rule() {
                return Err(format!("discovery_max_epochs: {e}"));
            }
        }
        Ok(())
    }

    /// The parsed `family` field.
    ///
    /// # Errors
    ///
    /// Returns a message when the field names no known family.
    pub fn fleet_scope(&self) -> Result<FleetScope, String> {
        self.family.as_deref().map_or(Ok(FleetScope::All), str::parse)
    }

    /// The experiment scale this submission maps onto. Module scoping
    /// is *not* encoded here — the service resolves specs against its
    /// own fleet via [`select_specs`](Self::select_specs); campaigns
    /// run through the `run_with` entry points, which take specs
    /// explicitly.
    pub fn to_options(&self) -> Options {
        let mut o = Options::smoke();
        o.modules = self.modules.clone();
        o.family = self.fleet_scope().unwrap_or(FleetScope::All);
        o.seed = self.seed;
        o.foundational_measurements = self.measurements;
        o.indepth_measurements = self.indepth_measurements;
        o.picks_per_segment = self.picks_per_segment;
        o.segment_rows = self.segment_rows;
        o.discovery_max_epochs = self.discovery_max_epochs;
        o.sweep_activations = self.sweep_activations;
        o.row_bytes = self.row_bytes;
        o.threads = self.threads.max(1);
        o.checkpoint_dir = None;
        o.trace_out = None;
        o
    }

    /// Resolves the submission's module scope against the service
    /// fleet: family filter first, then either the named modules (in
    /// fleet order) or the first [`limit`](Self::limit) modules.
    /// Deterministic in `(spec, fleet)`.
    pub fn select_specs(&self, fleet: &[ModuleSpec]) -> Vec<ModuleSpec> {
        let scope = self.fleet_scope().unwrap_or(FleetScope::All);
        let scoped = fleet.iter().filter(|s| scope.includes(s));
        if self.modules.is_empty() {
            scoped.take(self.limit).cloned().collect()
        } else {
            scoped.filter(|s| self.modules.iter().any(|m| m == &s.name)).cloned().collect()
        }
    }
}

/// Manual impl: the derive shim has no `#[serde(default)]`, and every
/// knob except `tenant`/`kind` must be optional in the submission
/// format.
impl Deserialize for JobSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        if !matches!(v, Value::Map(_)) {
            return Err(serde::Error::msg(format!("job spec must be an object, got {}", v.kind())));
        }
        fn field<T: Deserialize>(v: &Value, name: &str, default: T) -> Result<T, serde::Error> {
            match v.get(name) {
                Some(raw) => T::from_value(raw)
                    .map_err(|e| serde::Error::msg(format!("field `{name}`: {e}"))),
                None => Ok(default),
            }
        }
        let tenant: String = match v.get("tenant") {
            Some(raw) => String::from_value(raw)?,
            None => return Err(serde::Error::msg("missing field `tenant`")),
        };
        let kind: JobKind = match v.get("kind") {
            Some(raw) => JobKind::from_value(raw)?,
            None => return Err(serde::Error::msg("missing field `kind`")),
        };
        let priority = match v.get("priority") {
            Some(Value::Str(s)) => s.parse::<Priority>().map_err(serde::Error::msg)?,
            Some(other) => {
                return Err(serde::Error::msg(format!(
                    "field `priority` must be a string, got {}",
                    other.kind()
                )))
            }
            None => Priority::Normal,
        };
        let d = JobSpec::new(tenant, kind);
        Ok(JobSpec {
            tenant: d.tenant,
            kind: d.kind,
            priority,
            modules: field(v, "modules", d.modules)?,
            family: field(v, "family", d.family)?,
            limit: field(v, "limit", d.limit)?,
            seed: field(v, "seed", d.seed)?,
            measurements: field(v, "measurements", d.measurements)?,
            indepth_measurements: field(v, "indepth_measurements", d.indepth_measurements)?,
            picks_per_segment: field(v, "picks_per_segment", d.picks_per_segment)?,
            segment_rows: field(v, "segment_rows", d.segment_rows)?,
            discovery_max_epochs: field(v, "discovery_max_epochs", d.discovery_max_epochs)?,
            sweep_activations: field(v, "sweep_activations", d.sweep_activations)?,
            row_bytes: field(v, "row_bytes", d.row_bytes)?,
            threads: field(v, "threads", d.threads)?,
        })
    }
}

/// Lifecycle state of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Accepted, waiting for dispatch.
    Queued,
    /// Dispatched to a worker.
    Running,
    /// Finished; `artifacts/result.json` holds the study.
    Done,
    /// The campaign errored; see the record's `error`.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl JobState {
    /// Whether the job will never run again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }

    /// Lowercase display name (status endpoint / dashboard).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// The persisted per-job record (`jobs/<id>/job.json`), rewritten
/// atomically (tmp + rename) on every state change so a crash never
/// leaves a torn record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Service-wide unique id (`job-{submission seq:05}`).
    pub id: String,
    /// The submission.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Failure message when [`JobState::Failed`].
    pub error: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_submission_parses_with_defaults() {
        let spec: JobSpec =
            serde_json::from_str(r#"{"tenant": "alice", "kind": "discovery"}"#).unwrap();
        assert_eq!(spec.tenant, "alice");
        assert_eq!(spec.kind, JobKind::Discovery);
        assert_eq!(spec.priority, Priority::Normal);
        assert_eq!(spec.limit, 2);
        assert_eq!(spec.row_bytes, 512);
        spec.validate().unwrap();
    }

    #[test]
    fn full_submission_round_trips() {
        let mut spec = JobSpec::new("bob", JobKind::MemsimSweep);
        spec.priority = Priority::High;
        spec.modules = vec!["M1-f0008".into()];
        spec.family = Some("ddr4".into());
        spec.seed = 99;
        let json = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn missing_required_fields_are_rejected() {
        assert!(serde_json::from_str::<JobSpec>(r#"{"kind": "family"}"#).is_err());
        assert!(serde_json::from_str::<JobSpec>(r#"{"tenant": "a"}"#).is_err());
        assert!(serde_json::from_str::<JobSpec>(r#"{"tenant": "a", "kind": "nope"}"#).is_err());
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in JobKind::ALL {
            assert_eq!(kind.as_str().parse::<JobKind>().unwrap(), kind);
        }
        assert_eq!("memsim-sweep".parse::<JobKind>().unwrap(), JobKind::MemsimSweep);
    }

    #[test]
    fn select_specs_scopes_the_fleet_deterministically() {
        let fleet = vrd_dram::fleet::synthetic_specs(50, 7);
        let mut spec = JobSpec::new("t", JobKind::Family);
        spec.limit = 3;
        let picked = spec.select_specs(&fleet);
        assert_eq!(picked.len(), 3);
        assert_eq!(picked[0].name, fleet[0].name);

        spec.family = Some("hbm2".into());
        let hbm = spec.select_specs(&fleet);
        assert_eq!(hbm.len(), 3);
        assert!(hbm.iter().all(|s| s.standard == vrd_dram::DramStandard::Hbm2));

        spec.family = None;
        spec.modules = vec![fleet[5].name.clone(), fleet[1].name.clone()];
        let named = spec.select_specs(&fleet);
        // Fleet order, not request order.
        assert_eq!(named.len(), 2);
        assert_eq!(named[0].name, fleet[1].name);
        assert_eq!(named[1].name, fleet[5].name);
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut spec = JobSpec::new("", JobKind::Family);
        assert!(spec.validate().is_err());
        spec.tenant = "t".into();
        spec.validate().unwrap();
        spec.family = Some("ddr5".into());
        assert!(spec.validate().is_err());
        spec.family = None;
        spec.limit = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn a_discovery_ceiling_below_the_epoch_floor_is_rejected() {
        let mut spec = JobSpec::new("t", JobKind::Discovery);
        spec.validate().unwrap();
        spec.discovery_max_epochs = 0;
        let error = spec.validate().unwrap_err();
        assert!(error.contains("discovery_max_epochs"), "{error}");
        assert!(error.contains("max_epochs must be >= min_epochs"), "{error}");
        // Only discovery jobs read the ceiling.
        spec.kind = JobKind::Foundational;
        spec.validate().unwrap();
    }

    #[test]
    fn record_round_trips_through_json() {
        let record = JobRecord {
            id: "job-00003".into(),
            spec: JobSpec::new("carol", JobKind::Foundational),
            state: JobState::Failed,
            error: Some("boom".into()),
        };
        let json = serde_json::to_string_pretty(&record).unwrap();
        let back: JobRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
        assert!(back.state.is_terminal());
    }
}
