//! Ingestion pipeline with denoising (§6 AIOps engine, step (1):
//! "denoise telemetry and logs on injection into the data lake").
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use smn_obs::Obs;
use smn_telemetry::record::{Alert, BandwidthRecord, Severity};
use smn_telemetry::time::Ts;

use crate::store::{Clds, TimeStore};

/// A stage that may drop or rewrite alerts before they reach the lake.
pub trait Denoiser {
    /// Return `Some(alert)` to keep (possibly rewritten), `None` to drop.
    fn filter(&mut self, alert: Alert) -> Option<Alert>;
}

/// Passes everything through.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopDenoiser;

impl Denoiser for NoopDenoiser {
    fn filter(&mut self, alert: Alert) -> Option<Alert> {
        Some(alert)
    }
}

/// Drops duplicate alerts: an alert is suppressed when the same
/// `(component, kind)` already alerted within the dedup window, unless its
/// severity increased. This is the classic alert-fatigue reducer; the
/// paper's war story 4 is about six *teams* each dedup-ing locally and
/// missing the global picture — the SMN dedups here, globally.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DedupDenoiser {
    /// Suppression window in seconds.
    pub window_secs: u64,
    /// Last time each `(component, kind)` alerted, with its severity.
    seen: HashMap<(String, String), (Ts, Severity)>,
    /// Stream timestamp of the last expiry sweep.
    last_sweep: Ts,
}

impl DedupDenoiser {
    /// New denoiser with the given suppression window.
    #[must_use]
    pub fn new(window_secs: u64) -> Self {
        Self { window_secs, seen: HashMap::new(), last_sweep: Ts(0) }
    }

    /// Number of `(component, kind)` pairs currently tracked.
    #[must_use]
    pub fn tracked(&self) -> usize {
        self.seen.len()
    }

    /// Drop entries too old to suppress anything at stream time `now`.
    /// Amortized: a full sweep runs at most once per window, so the map only
    /// ever holds pairs seen within the last two windows.
    fn sweep(&mut self, now: Ts) {
        if now.0.saturating_sub(self.last_sweep.0) < self.window_secs {
            return;
        }
        let horizon = now.0.saturating_sub(self.window_secs);
        self.seen.retain(|_, (last, _)| last.0 >= horizon);
        self.last_sweep = now;
    }
}

impl Denoiser for DedupDenoiser {
    fn filter(&mut self, alert: Alert) -> Option<Alert> {
        self.sweep(alert.ts);
        match self.seen.entry((alert.component.clone(), alert.kind.clone())) {
            Entry::Occupied(mut e) => {
                let (last, severity) = *e.get();
                let within = alert.ts.0.saturating_sub(last.0) < self.window_secs;
                if within && alert.severity <= severity {
                    return None; // duplicate, not escalating
                }
                *e.get_mut() = (alert.ts, alert.severity);
            }
            Entry::Vacant(e) => {
                e.insert((alert.ts, alert.severity));
            }
        }
        Some(alert)
    }
}

/// Statistics from one ingestion batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestReport {
    /// Records written to the lake.
    pub ingested: usize,
    /// Records suppressed by the denoiser.
    pub suppressed: usize,
}

/// Ingest a batch of alerts through `denoiser` into the CLDS.
pub fn ingest_alerts(
    clds: &Clds,
    denoiser: &mut dyn Denoiser,
    alerts: impl IntoIterator<Item = Alert>,
) -> IngestReport {
    let mut report = IngestReport::default();
    let mut store = clds.alerts.write();
    for alert in alerts {
        match denoiser.filter(alert) {
            Some(a) => {
                store.append(a);
                report.ingested += 1;
            }
            None => report.suppressed += 1,
        }
    }
    report
}

/// Append one tick's bandwidth records to the CLDS bandwidth store — the
/// streaming controller's per-tick feed. The time index requires
/// nondecreasing timestamps, so records older than the store's latest
/// timestamp are suppressed and counted instead of corrupting the index
/// (telemetry is append-only; a stale record is a transport replay, not
/// new information).
pub fn ingest_bandwidth(clds: &Clds, records: &[BandwidthRecord]) -> IngestReport {
    ingest_into(&mut clds.bandwidth.write(), records)
}

/// [`ingest_bandwidth`] into a locked store: one batch append.
fn ingest_into(
    store: &mut TimeStore<BandwidthRecord>,
    records: &[BandwidthRecord],
) -> IngestReport {
    let mut suppressed = 0;
    store.extend_with(records.iter().copied(), |_, _| suppressed += 1);
    IngestReport { ingested: records.len() - suppressed, suppressed }
}

/// [`ingest_bandwidth`] run inside a profiled `lake/ingest-bw` phase:
/// bumps the `lake_bw_ingested_total` / `lake_bw_suppressed_total`
/// counters and records the batch's wall time in the perf trajectory's
/// wall profile. The phase's `copies` field counts the lake copies the
/// batch made (1 when a reader still shared the lake's records, else 0).
pub fn ingest_bandwidth_profiled(
    clds: &Clds,
    records: &[BandwidthRecord],
    obs: &Obs,
) -> IngestReport {
    let mut phase = obs.phase("lake/ingest-bw");
    let mut store = clds.bandwidth.write();
    let copies = store.copies();
    let report = ingest_into(&mut store, records);
    phase.field("copies", store.copies() - copies);
    drop(store);
    obs.inc_by("lake_bw_ingested_total", report.ingested as u64);
    obs.inc_by("lake_bw_suppressed_total", report.suppressed as u64);
    phase.field("ingested", report.ingested);
    phase.field("suppressed", report.suppressed);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(ts: u64, component: &str, severity: Severity) -> Alert {
        Alert {
            ts: Ts(ts),
            component: component.into(),
            team: "app".into(),
            kind: "error-rate".into(),
            severity,
            message: "errors above threshold".into(),
        }
    }

    #[test]
    fn noop_keeps_everything() {
        let clds = Clds::new();
        let mut d = NoopDenoiser;
        let r = ingest_alerts(&clds, &mut d, (0..5).map(|i| alert(i, "web-1", Severity::Warning)));
        assert_eq!(r.ingested, 5);
        assert_eq!(r.suppressed, 0);
        assert_eq!(clds.alerts.read().len(), 5);
    }

    #[test]
    fn dedup_suppresses_repeats_within_window() {
        let clds = Clds::new();
        let mut d = DedupDenoiser::new(600);
        let alerts = vec![
            alert(0, "web-1", Severity::Warning),
            alert(60, "web-1", Severity::Warning),  // dup
            alert(120, "web-2", Severity::Warning), // different component
            alert(700, "web-1", Severity::Warning), // outside window
        ];
        let r = ingest_alerts(&clds, &mut d, alerts);
        assert_eq!(r.ingested, 3);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn dedup_lets_escalations_through() {
        let clds = Clds::new();
        let mut d = DedupDenoiser::new(600);
        let alerts = vec![
            alert(0, "web-1", Severity::Warning),
            alert(60, "web-1", Severity::Critical), // escalation
            alert(120, "web-1", Severity::Warning), // de-escalation: suppressed
        ];
        let r = ingest_alerts(&clds, &mut d, alerts);
        assert_eq!(r.ingested, 2);
        assert_eq!(r.suppressed, 1);
        let stored = clds.alerts.read();
        assert_eq!(stored.all()[1].severity, Severity::Critical);
    }

    #[test]
    fn dedup_state_stays_bounded_by_window() {
        let mut d = DedupDenoiser::new(600);
        // 10k distinct components spread over many windows: old entries must
        // be evicted, so the map never grows near 10k.
        for i in 0..10_000u64 {
            let mut a = alert(i * 60, &format!("web-{i}"), Severity::Warning);
            a.component = format!("web-{i}");
            assert!(d.filter(a).is_some());
        }
        // Each entry is one minute apart; two windows is 20 entries.
        assert!(d.tracked() <= 21, "tracked {}", d.tracked());
    }

    #[test]
    fn dedup_still_suppresses_after_sweep() {
        let mut d = DedupDenoiser::new(600);
        assert!(d.filter(alert(0, "web-1", Severity::Warning)).is_some());
        // t=900 is outside the window, so it passes and refreshes the entry;
        // the refreshed entry must survive sweeps and keep suppressing.
        assert!(d.filter(alert(900, "web-1", Severity::Warning)).is_some());
        assert!(d.filter(alert(1000, "web-1", Severity::Warning)).is_none());
    }

    #[test]
    fn bandwidth_ingest_appends_and_suppresses_stale() {
        let bw = |ts: u64| BandwidthRecord { ts: Ts(ts), src: 0, dst: 1, gbps: 10.0 };
        let clds = Clds::new();
        let r = ingest_bandwidth(&clds, &[bw(0), bw(300), bw(300), bw(600)]);
        assert_eq!(r, IngestReport { ingested: 4, suppressed: 0 });
        // A replayed stale record is counted, not appended (the time index
        // would panic on an out-of-order append).
        let r = ingest_bandwidth(&clds, &[bw(300), bw(900)]);
        assert_eq!(r, IngestReport { ingested: 1, suppressed: 1 });
        assert_eq!(clds.bandwidth.read().len(), 5);
        assert_eq!(clds.bandwidth.read().latest_ts(), Some(Ts(900)));
    }

    #[test]
    fn bandwidth_ingest_profiled_lands_in_wall_profile() {
        let clds = Clds::new();
        let obs = Obs::enabled(smn_obs::clock::SimClock::new());
        let bw = BandwidthRecord { ts: Ts(0), src: 0, dst: 1, gbps: 1.0 };
        let r = ingest_bandwidth_profiled(&clds, &[bw], &obs);
        assert_eq!(r.ingested, 1);
        assert!(obs.wall_profile().iter().any(|p| p.path == "lake/ingest-bw"));
        assert_eq!(obs.counter("lake_bw_ingested_total"), 1);
        let held = clds.bandwidth.read().shared_range(Ts(0), Ts(1));
        ingest_bandwidth_profiled(&clds, &[bw], &obs);
        drop(held);
        ingest_bandwidth_profiled(&clds, &[bw], &obs);
        let trace = obs.trace_jsonl();
        let copies: Vec<&str> = trace
            .lines()
            .filter(|l| l.contains("\"name\":\"lake/ingest-bw\""))
            .filter_map(|l| l.split("\"copies\":").nth(1)?.split([',', '}']).next())
            .collect();
        assert_eq!(copies, ["0", "1", "0"], "only the batch behind a held range copies");
    }
}
