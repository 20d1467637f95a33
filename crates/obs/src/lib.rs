//! `smn-obs` — deterministic observability for the SMN pipeline.
//!
//! The whole CLDS → coarsen → CDG → controller → incident pipeline used to
//! run as a black box: when a degradation ladder fired or a chaos campaign
//! misrouted an incident there was no trace of *why*. This crate is the
//! from-scratch, zero-external-dep answer, deterministic by construction:
//!
//! * **Tracing** ([`trace`]): span enter/exit and point events with typed
//!   key-value fields, exported as JSONL;
//! * **Metrics** ([`metrics`]): counters, gauges, and fixed-bucket
//!   histograms with a Prometheus-style text snapshot;
//! * **Audit trail** ([`audit`]): every CLTO decision — incident routes,
//!   degradation-ladder transitions, coarsening fallbacks — with its
//!   triggering evidence.
//!
//! All timestamps come from the [`clock::Clock`] trait backed by sim-time
//! (no implementation here reads the wall clock), so two identically
//! seeded runs produce **byte-identical** traces, trails, and snapshots.
//! Wall-clock latencies enter only as histogram *values* measured by the
//! bench binaries through `smn_bench::timer`, the workspace's single
//! audited wall-clock read.
//!
//! The [`Obs`] handle is the single front door. A disabled handle
//! ([`Obs::disabled`]) is a cheap no-op — every method early-returns on
//! one boolean load — so library code can be instrumented unconditionally
//! without taxing hot loops (the `obs_overhead` bench binary holds this
//! under 2%).

#![warn(missing_docs)]

pub mod audit;
pub mod clock;
pub mod metrics;
pub mod profile;
pub mod summary;
pub mod trace;

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use audit::AuditState;
use clock::{Clock, SimClock};
use metrics::MetricsState;
use profile::ProfileState;
use trace::{FieldValue, TracerState};

pub use metrics::{Histogram, DEFAULT_MS_BUCKETS};
pub use profile::{PhaseGuard, PhaseStat};
pub use trace::{EventKind, TraceEvent};

/// The observability handle: tracer + metrics + audit trail behind one
/// enabled flag, shared by `Arc` across the pipeline. A separate
/// wall-time profile registry ([`Obs::phase`]) rides along for the perf
/// trajectory; it never feeds the deterministic exports.
pub struct Obs {
    enabled: bool,
    clock: Arc<dyn Clock>,
    tracer: Mutex<TracerState>,
    metrics: Mutex<MetricsState>,
    audit: Mutex<AuditState>,
    profile: Mutex<ProfileState>,
}

// The three state mutexes are deliberately elided: dumping thousands of
// recorded events through `Debug` would make every instrumented struct's
// own `Debug` output unreadable.
#[allow(clippy::missing_fields_in_debug)]
impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs").field("enabled", &self.enabled).finish()
    }
}

impl Obs {
    /// An enabled handle reading timestamps from `clock`.
    pub fn enabled(clock: Arc<dyn Clock>) -> Arc<Obs> {
        Arc::new(Obs {
            enabled: true,
            clock,
            tracer: Mutex::new(TracerState::default()),
            metrics: Mutex::new(MetricsState::default()),
            audit: Mutex::new(AuditState::default()),
            profile: Mutex::new(ProfileState::default()),
        })
    }

    /// A disabled handle: every recording method is a near-free no-op.
    /// This is the default wired into instrumented components.
    #[must_use]
    pub fn disabled() -> Arc<Obs> {
        Arc::new(Obs {
            enabled: false,
            clock: SimClock::new(),
            tracer: Mutex::new(TracerState::default()),
            metrics: Mutex::new(MetricsState::default()),
            audit: Mutex::new(AuditState::default()),
            profile: Mutex::new(ProfileState::default()),
        })
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Current observability time in simulated seconds.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    // ------------------------------------------------------------- tracing

    /// Open a span; it closes (emitting the exit event) when the returned
    /// guard drops. Fields added via [`Span::field`] attach to the exit.
    pub fn span(&self, name: &str) -> Span<'_> {
        self.span_with(name, &[])
    }

    /// Open a span with fields on the enter event.
    pub fn span_with(&self, name: &str, fields: &[(&str, FieldValue)]) -> Span<'_> {
        if !self.enabled {
            return Span { obs: None, id: 0, name: String::new(), exit_fields: Vec::new() };
        }
        let owned: Vec<(String, FieldValue)> =
            fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect();
        let id = self.tracer.lock().enter(self.clock.now(), name, owned);
        Span { obs: Some(self), id, name: name.to_string(), exit_fields: Vec::new() }
    }

    /// Emit a point event inside the currently open span.
    pub fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        if !self.enabled {
            return;
        }
        let owned: Vec<(String, FieldValue)> =
            fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect();
        self.tracer.lock().point(self.clock.now(), name, owned);
    }

    // ----------------------------------------------------------- profiling

    // `Obs::phase` and `Obs::fork`, the two entry points that read the
    // wall clock, live in `profile.rs` beside their one clock read.

    /// Fold one synthetic observation into the wall profile — the pure,
    /// deterministic front door used by tests and report replays.
    pub fn record_phase_ns(&self, path: &str, ns: u64) {
        if !self.enabled {
            return;
        }
        self.profile.lock().record(path, ns);
    }

    /// The accumulated wall profile, path-sorted.
    pub fn wall_profile(&self) -> Vec<PhaseStat> {
        self.profile.lock().stats()
    }

    // ------------------------------------------------------------- metrics

    /// Add `delta` to a counter.
    pub fn inc_by(&self, name: &str, delta: u64) {
        if !self.enabled {
            return;
        }
        self.metrics.lock().inc(name, delta);
    }

    /// Add 1 to a counter.
    pub fn inc(&self, name: &str) {
        self.inc_by(name, 1);
    }

    /// Set a gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        self.metrics.lock().set_gauge(name, value);
    }

    /// Observe into a histogram with [`DEFAULT_MS_BUCKETS`] (registered on
    /// first use).
    pub fn observe_ms(&self, name: &str, ms: f64) {
        self.observe(name, &DEFAULT_MS_BUCKETS, ms);
    }

    /// Observe into a histogram with explicit bucket bounds (used only on
    /// first observation of `name`).
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        if !self.enabled {
            return;
        }
        self.metrics.lock().observe(name, bounds, value);
    }

    // --------------------------------------------------------------- audit

    /// Record a controller decision with its triggering evidence.
    pub fn audit(&self, actor: &str, action: &str, evidence: &[(&str, String)]) {
        if !self.enabled {
            return;
        }
        let owned: Vec<(String, String)> =
            evidence.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect();
        self.audit.lock().record(self.clock.now(), actor, action, owned);
    }

    // -------------------------------------------------------------- export

    /// The trace as JSONL (one event per line).
    pub fn trace_jsonl(&self) -> String {
        self.tracer.lock().to_jsonl()
    }

    /// Number of trace events recorded so far.
    pub fn trace_len(&self) -> usize {
        self.tracer.lock().events.len()
    }

    /// The metrics registry as Prometheus-style text.
    pub fn metrics_text(&self) -> String {
        self.metrics.lock().render_prometheus()
    }

    /// The audit trail as JSONL (one decision per line).
    pub fn audit_jsonl(&self) -> String {
        self.audit.lock().to_jsonl()
    }

    /// Number of audit records recorded so far.
    pub fn audit_len(&self) -> usize {
        self.audit.lock().records.len()
    }

    /// Current value of a counter (0 when absent) — for assertions.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge — for assertions.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.metrics.lock().gauges.get(name).copied()
    }

    /// Clone of a histogram — for assertions.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.metrics.lock().histograms.get(name).cloned()
    }
}

/// An open span; exits (recording the exit event) on drop.
pub struct Span<'a> {
    obs: Option<&'a Obs>,
    id: u64,
    name: String,
    exit_fields: Vec<(String, FieldValue)>,
}

impl Span<'_> {
    /// Attach a field to the span's exit event.
    pub fn field(&mut self, key: &str, value: impl Into<FieldValue>) {
        if self.obs.is_some() {
            self.exit_fields.push((key.to_string(), value.into()));
        }
    }

    /// The span id (0 for spans from a disabled handle).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(obs) = self.obs {
            let fields = std::mem::take(&mut self.exit_fields);
            obs.tracer.lock().exit(obs.clock.now(), self.id, &self.name, fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        {
            let mut s = obs.span_with("loop", &[("w", 1u64.into())]);
            s.field("n", 2u64);
            obs.event("mid", &[]);
        }
        obs.inc("c_total");
        obs.gauge("g", 1.0);
        obs.observe_ms("h_ms", 5.0);
        obs.audit("controller", "route", &[("team", "app".to_string())]);
        assert!(obs.trace_jsonl().is_empty());
        assert!(obs.metrics_text().is_empty());
        assert!(obs.audit_jsonl().is_empty());
        assert_eq!(obs.trace_len(), 0);
    }

    #[test]
    fn enabled_handle_stamps_sim_time() {
        let clock = SimClock::new();
        let obs = Obs::enabled(clock.clone());
        clock.set(3600);
        {
            let mut s = obs.span("window");
            clock.set(7200);
            s.field("routed", true);
        }
        obs.inc_by("windows_total", 1);
        let events: Vec<TraceEvent> =
            obs.trace_jsonl().lines().map(|l| TraceEvent::from_json_line(l).unwrap()).collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ts, 3600);
        assert_eq!(events[1].ts, 7200);
        assert_eq!(events[1].fields[0].0, "routed");
        assert_eq!(obs.counter("windows_total"), 1);
    }

    #[test]
    fn audit_trail_orders_decisions() {
        let obs = Obs::enabled(SimClock::new());
        obs.audit("controller/incident", "degrade", &[("reason", "outage".to_string())]);
        obs.audit("controller/incident", "route-incident", &[("team", "net".to_string())]);
        let jsonl = obs.audit_jsonl();
        let lines: Vec<&str> = jsonl.lines().map(str::trim).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"degrade\""));
        assert!(lines[1].contains("\"route-incident\""));
        assert_eq!(obs.audit_len(), 2);
    }
}
