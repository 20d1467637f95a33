//! The record vocabulary of the Cross-Layer Data Store (CLDS).
//!
//! §2 of the paper lists the data an SMN centralizes: bandwidth logs,
//! alerts, incidents, health telemetry, probe results, and unstructured log
//! events. These types are the uniform schema every crate in the workspace
//! speaks; the data lake stores them, coarsenings compress them, and the
//! CLTO consumes them.

use serde::{Deserialize, Serialize};

use crate::time::Ts;

/// One row of an (uncoarsened) bandwidth log: the paper's Listing 1 format
/// `ts, src_dc, dst_dc, bw_Gbps`, with datacenters as dense indices into
/// the WAN's node table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthRecord {
    /// Epoch-start timestamp.
    pub ts: Ts,
    /// Source datacenter (WAN node index).
    pub src: u32,
    /// Destination datacenter (WAN node index).
    pub dst: u32,
    /// Observed demand in Gbps over the epoch.
    pub gbps: f64,
}

/// Alert severity levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational.
    Info,
    /// Degraded but functioning.
    Warning,
    /// Failing for some requests.
    Error,
    /// Hard down.
    Critical,
}

/// An alert raised by a team's monitoring against one of its components.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// When the alert fired.
    pub ts: Ts,
    /// Component that alerted (fine-grained name, e.g. `"cassandra-2"`).
    pub component: String,
    /// Owning team (coarse label, e.g. `"storage"`). Aggregating alerts by
    /// this label is the coarsening in war story 4.
    pub team: String,
    /// Alert kind, e.g. `"latency-slo"`, `"error-rate"`.
    pub kind: String,
    /// Severity.
    pub severity: Severity,
    /// Free-text message (unstructured — the data-lake part of the CLDS).
    pub message: String,
}

/// A sample of an internal health metric, polled by the monitoring agent at
/// one-minute intervals (§5: "application health checks polled by a
/// monitoring agent at 1-minute intervals").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthSample {
    /// Sample time.
    pub ts: Ts,
    /// Component the metric belongs to.
    pub component: String,
    /// Metric name, e.g. `"error_rate"`, `"p99_latency_ms"`, `"cache_hit_rate"`.
    pub metric: String,
    /// Metric value.
    pub value: f64,
}

/// Result of one pairwise reachability probe between application-server
/// clusters (§5), Pingmesh-style.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeResult {
    /// Probe time.
    pub ts: Ts,
    /// Probing cluster.
    pub src_cluster: String,
    /// Probed cluster.
    pub dst_cluster: String,
    /// Whether the probe succeeded.
    pub success: bool,
    /// Round-trip latency in milliseconds (meaningful when `success`).
    pub latency_ms: f64,
}

/// An unstructured log event (the "data lake" end of the CLDS spectrum).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogEvent {
    /// Event time.
    pub ts: Ts,
    /// Emitting component.
    pub component: String,
    /// Severity.
    pub severity: Severity,
    /// Raw text.
    pub text: String,
}

/// An incident: the unit the CLTO routes to a team (§5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentRecord {
    /// Stable incident id.
    pub id: u64,
    /// When the incident opened.
    pub opened_at: Ts,
    /// Short title.
    pub title: String,
    /// Team the incident is currently routed to, if any.
    pub routed_to: Option<String>,
    /// Ground-truth responsible team, when known (simulation only).
    pub ground_truth_team: Option<String>,
    /// Priority, 0 = highest.
    pub priority: u8,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::EPOCH_SECS;

    #[test]
    fn severity_is_ordered() {
        assert!(Severity::Critical > Severity::Error);
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn records_roundtrip_serde() {
        let r = BandwidthRecord { ts: Ts(EPOCH_SECS), src: 3, dst: 7, gbps: 42.5 };
        let json = serde_json::to_string(&r).unwrap();
        let back: BandwidthRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
