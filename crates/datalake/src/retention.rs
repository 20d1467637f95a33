//! Retention policies for the Network History store.
//!
//! §6: "The SMN needs sophisticated retention policies: e.g., it can retain
//! all data that are related to incidents for a long period of time.
//! Further, while such positive examples are essential for data-driven
//! automation, they must be balanced by negative examples. The CLDS can
//! also retain a small sample of failure-free data."

use serde::{Deserialize, Serialize};
use smn_telemetry::time::{Ts, DAY};

use crate::store::{TimeStore, Timestamped};

/// An interval `[start, end)` around an incident whose data is protected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtectedWindow {
    /// Window start.
    pub start: Ts,
    /// Window end (exclusive).
    pub end: Ts,
}

impl ProtectedWindow {
    /// Window of `pad_secs` on each side of an incident instant.
    #[must_use]
    pub fn around(incident: Ts, pad_secs: u64) -> Self {
        Self { start: Ts(incident.0.saturating_sub(pad_secs)), end: incident + pad_secs }
    }

    /// Whether `ts` falls inside the window.
    #[must_use]
    pub fn contains(&self, ts: Ts) -> bool {
        self.start <= ts && ts < self.end
    }
}

/// The retention policy of the history store.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Plain records older than this are eligible for deletion.
    pub max_age_days: u64,
    /// Records inside an incident window are kept regardless of age
    /// (positive examples for pattern learning).
    pub keep_incident_windows: bool,
    /// Of age-expired, non-incident records, keep this fraction as
    /// failure-free negative examples (deterministic 1-in-N sampling).
    pub failure_free_sample: f64,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        Self { max_age_days: 90, keep_incident_windows: true, failure_free_sample: 0.01 }
    }
}

/// Outcome of one enforcement pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RetentionReport {
    /// Records deleted.
    pub dropped: usize,
    /// Age-expired records kept because they sit in an incident window.
    pub kept_incident: usize,
    /// Age-expired records kept as failure-free samples.
    pub kept_sampled: usize,
}

impl RetentionPolicy {
    /// Enforce the policy on `store` as of time `now`, protecting
    /// `incident_windows`. Deterministic: the failure-free sample keeps
    /// every ⌊1/fraction⌋-th expired record.
    pub fn enforce<T: Timestamped>(
        &self,
        store: &mut TimeStore<T>,
        now: Ts,
        incident_windows: &[ProtectedWindow],
    ) -> RetentionReport {
        let cutoff = Ts(now.0.saturating_sub(self.max_age_days * DAY));
        let stride = if self.failure_free_sample <= 0.0 {
            usize::MAX
        } else {
            (1.0 / self.failure_free_sample).round().max(1.0) as usize
        };
        let mut report = RetentionReport::default();
        let mut expired_seen = 0usize;
        store.retain(|r| {
            let ts = r.ts();
            if ts >= cutoff {
                return true; // fresh
            }
            if self.keep_incident_windows && incident_windows.iter().any(|w| w.contains(ts)) {
                report.kept_incident += 1;
                return true;
            }
            expired_seen += 1;
            if stride != usize::MAX && expired_seen.is_multiple_of(stride) {
                report.kept_sampled += 1;
                true
            } else {
                report.dropped += 1;
                false
            }
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_telemetry::record::BandwidthRecord;

    fn store_with_days(days: u64) -> TimeStore<BandwidthRecord> {
        let mut s = TimeStore::default();
        for d in 0..days {
            s.append(BandwidthRecord { ts: Ts::from_days(d), src: 0, dst: 1, gbps: d as f64 });
        }
        s
    }

    #[test]
    fn fresh_records_always_kept() {
        let mut s = store_with_days(10);
        let policy = RetentionPolicy { max_age_days: 30, ..Default::default() };
        let report = policy.enforce(&mut s, Ts::from_days(10), &[]);
        assert_eq!(report.dropped, 0);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn old_records_dropped_except_samples() {
        let mut s = store_with_days(200);
        let policy = RetentionPolicy {
            max_age_days: 50,
            keep_incident_windows: false,
            failure_free_sample: 0.1,
        };
        let report = policy.enforce(&mut s, Ts::from_days(200), &[]);
        // Days 0..150 expired (150 records); 1 in 10 kept.
        assert_eq!(report.kept_sampled, 15);
        assert_eq!(report.dropped, 135);
        assert_eq!(s.len(), 200 - 135);
    }

    #[test]
    fn incident_windows_protected_forever() {
        let mut s = store_with_days(200);
        let policy = RetentionPolicy {
            max_age_days: 50,
            keep_incident_windows: true,
            failure_free_sample: 0.0,
        };
        // Protect day 10 +- 2 days.
        let w = ProtectedWindow::around(Ts::from_days(10), 2 * DAY);
        let report = policy.enforce(&mut s, Ts::from_days(200), &[w]);
        // Days 8,9,10,11 fall in [8,12): 4 kept.
        assert_eq!(report.kept_incident, 4);
        assert_eq!(report.kept_sampled, 0);
        assert_eq!(s.len(), 50 + 4);
        // The kept old records are exactly the protected ones.
        assert!(s.all().iter().any(|r| r.ts() == Ts::from_days(9)));
        assert!(!s.all().iter().any(|r| r.ts() == Ts::from_days(13)));
    }

    #[test]
    fn zero_sample_fraction_drops_all_expired() {
        let mut s = store_with_days(100);
        let policy = RetentionPolicy {
            max_age_days: 10,
            keep_incident_windows: false,
            failure_free_sample: 0.0,
        };
        let report = policy.enforce(&mut s, Ts::from_days(100), &[]);
        assert_eq!(report.kept_sampled, 0);
        assert_eq!(s.len(), 10);
        assert_eq!(report.dropped, 90);
    }

    #[test]
    fn window_contains_boundaries() {
        let w = ProtectedWindow::around(Ts(1000), 100);
        assert!(w.contains(Ts(900)));
        assert!(w.contains(Ts(1099)));
        assert!(!w.contains(Ts(1100)));
        // Saturates at zero.
        let w0 = ProtectedWindow::around(Ts(50), 100);
        assert_eq!(w0.start, Ts(0));
    }
}
