//! Typed, time-ordered stores and the CLDS bundle.
//!
//! The Cross-Layer Cross-Team Data Store (CLDS, Figure 1) holds every record
//! type in one place so "teams and central leaders can also easily discover
//! and consume data from other teams" (§6). Stores are append-mostly with
//! binary-searched time-range queries; a [`Clds`] bundles one store per
//! record type behind `parking_lot` locks so producer teams and the CLTO
//! can share it.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use smn_telemetry::record::{
    Alert, BandwidthRecord, HealthSample, IncidentRecord, LogEvent, ProbeResult,
};
use smn_telemetry::time::Ts;

use crate::catalog::{builtin_descriptors, Catalog};

/// Anything with a timestamp can live in a [`TimeStore`].
pub trait Timestamped {
    /// The record's timestamp.
    fn ts(&self) -> Ts;
}

impl Timestamped for BandwidthRecord {
    fn ts(&self) -> Ts {
        self.ts
    }
}
impl Timestamped for Alert {
    fn ts(&self) -> Ts {
        self.ts
    }
}
impl Timestamped for HealthSample {
    fn ts(&self) -> Ts {
        self.ts
    }
}
impl Timestamped for ProbeResult {
    fn ts(&self) -> Ts {
        self.ts
    }
}
impl Timestamped for LogEvent {
    fn ts(&self) -> Ts {
        self.ts
    }
}
impl Timestamped for IncidentRecord {
    fn ts(&self) -> Ts {
        self.opened_at
    }
}

/// Where every [`TimeStore`] stamp comes from: each one handed out is new
/// in this process.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    // A stamp publishes no other data: the atomic add alone makes each
    // one unique, so `Relaxed` is enough.
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// An append-mostly, time-ordered store of records.
///
/// Appends must be non-decreasing in time (telemetry arrives in order);
/// range queries binary-search. Retention enforcement (the one mutation
/// besides append) rebuilds the vector.
///
/// Every store carries a **stamp** ([`TimeStore::stamp`]): a value new in
/// this process whenever a store is built or cloned, and renewed by every
/// [`TimeStore::retain`]. An append keeps it. So two reads of stores with
/// the same stamp see the same records before the earlier read's latest
/// timestamp: all that can have changed is records appended at or after
/// it. A reader that proved something about the older records (the
/// streaming reconcile's sealed windows) can skip them while the stamp
/// holds.
#[derive(Debug)]
pub struct TimeStore<T> {
    records: Vec<T>,
    stamp: u64,
}

impl<T> Default for TimeStore<T> {
    fn default() -> Self {
        Self { records: Vec::new(), stamp: fresh_stamp() }
    }
}

/// A clone is another store: it gets its own stamp.
impl<T: Clone> Clone for TimeStore<T> {
    fn clone(&self) -> Self {
        Self { records: self.records.clone(), stamp: fresh_stamp() }
    }
}

impl<T: Timestamped> TimeStore<T> {
    /// Append a record.
    ///
    /// # Panics
    /// Panics if `r` is older than the last stored record.
    pub fn append(&mut self, r: T) {
        if let Some(last) = self.records.last() {
            assert!(r.ts() >= last.ts(), "out-of-order append: {:?} after {:?}", r.ts(), last.ts());
        }
        self.records.push(r);
    }

    /// Append many records (must also be ordered).
    pub fn extend(&mut self, rs: impl IntoIterator<Item = T>) {
        for r in rs {
            self.append(r);
        }
    }

    /// All records.
    #[must_use]
    pub fn all(&self) -> &[T] {
        &self.records
    }

    /// Records with `ts >= start`.
    #[must_use]
    pub fn since(&self, start: Ts) -> &[T] {
        let lo = self.records.partition_point(|r| r.ts() < start);
        self.records.get(lo..).unwrap_or_default()
    }

    /// Records with `start <= ts < end`; empty when `start > end`.
    #[must_use]
    pub fn range(&self, start: Ts, end: Ts) -> &[T] {
        let lo = self.records.partition_point(|r| r.ts() < start);
        let hi = self.records.partition_point(|r| r.ts() < end);
        self.records.get(lo..hi).unwrap_or_default()
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Keep only records satisfying `keep` (retention enforcement),
    /// renewing the stamp. Returns how many records were dropped.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) -> usize {
        let before = self.records.len();
        self.records.retain(keep);
        self.stamp = fresh_stamp();
        before - self.records.len()
    }

    /// This store's stamp: equal stamps mean the same store, changed since
    /// only by appends.
    #[must_use]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Timestamp of the newest record.
    #[must_use]
    pub fn latest_ts(&self) -> Option<Ts> {
        self.records.last().map(|r| r.ts())
    }
}

/// The Cross-Layer Cross-Team Data Store: one store per record type plus
/// the global catalog. This is the "realtime data lake that provides a
/// global view" of §6, scoped to the record vocabulary of the simulation.
#[derive(Debug, Default)]
pub struct Clds {
    /// Global dataset catalog.
    pub catalog: RwLock<Catalog>,
    /// Bandwidth logs (capacity-planning telemetry).
    pub bandwidth: RwLock<TimeStore<BandwidthRecord>>,
    /// Alerts from all teams.
    pub alerts: RwLock<TimeStore<Alert>>,
    /// Internal health metrics from all teams.
    pub health: RwLock<TimeStore<HealthSample>>,
    /// Pairwise reachability probes.
    pub probes: RwLock<TimeStore<ProbeResult>>,
    /// Unstructured logs.
    pub logs: RwLock<TimeStore<LogEvent>>,
    /// Incident records.
    pub incidents: RwLock<TimeStore<IncidentRecord>>,
}

impl Clds {
    /// A CLDS with the built-in catalog pre-registered.
    #[must_use]
    pub fn new() -> Self {
        let clds = Clds::default();
        {
            let mut cat = clds.catalog.write();
            for d in builtin_descriptors() {
                cat.register(d);
            }
        }
        clds
    }

    /// Total records across all stores (the "storage" the paper worries
    /// about centralizing).
    pub fn total_records(&self) -> usize {
        self.bandwidth.read().len()
            + self.alerts.read().len()
            + self.health.read().len()
            + self.probes.read().len()
            + self.logs.read().len()
            + self.incidents.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw(ts: u64, gbps: f64) -> BandwidthRecord {
        BandwidthRecord { ts: Ts(ts), src: 0, dst: 1, gbps }
    }

    #[test]
    fn append_and_range_query() {
        let mut s = TimeStore::default();
        for i in 0..10 {
            s.append(bw(i * 100, i as f64));
        }
        assert_eq!(s.len(), 10);
        let r = s.range(Ts(250), Ts(600));
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].gbps, 3.0);
        assert_eq!(s.range(Ts(5000), Ts(6000)).len(), 0);
        assert_eq!(s.range(Ts(600), Ts(250)).len(), 0, "inverted range is empty");
        assert_eq!(s.latest_ts(), Some(Ts(900)));
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_append_rejected() {
        let mut s = TimeStore::default();
        s.append(bw(100, 1.0));
        s.append(bw(50, 2.0));
    }

    #[test]
    fn equal_timestamps_allowed() {
        let mut s = TimeStore::default();
        s.append(bw(100, 1.0));
        s.append(bw(100, 2.0));
        assert_eq!(s.range(Ts(100), Ts(101)).len(), 2);
    }

    #[test]
    fn retain_drops_and_counts() {
        let mut s = TimeStore::default();
        s.extend((0..10).map(|i| bw(i * 10, i as f64)));
        let dropped = s.retain(|r| r.gbps >= 5.0);
        assert_eq!(dropped, 5);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn appends_keep_the_stamp_and_anything_else_renews_it() {
        let mut s = TimeStore::default();
        let built = s.stamp();
        s.extend((0..4).map(|i| bw(i * 10, 1.0)));
        assert_eq!(s.stamp(), built, "an in-order append keeps the stamp");
        assert_eq!(s.since(Ts(15)).len(), 2);
        assert_eq!(s.since(Ts(0)).len(), 4);
        assert!(s.since(Ts(31)).is_empty());
        let copy = s.clone();
        assert_ne!(copy.stamp(), built, "a clone is another store");
        assert_ne!(TimeStore::<BandwidthRecord>::default().stamp(), built);
        s.retain(|_| true);
        assert_ne!(s.stamp(), built, "every retain renews the stamp");
        assert_ne!(s.stamp(), copy.stamp());
    }

    #[test]
    fn clds_bundles_stores_with_catalog() {
        let clds = Clds::new();
        assert_eq!(clds.catalog.read().len(), 6);
        clds.bandwidth.write().append(bw(0, 10.0));
        clds.alerts.write().append(Alert {
            ts: Ts(1),
            component: "web-1".into(),
            team: "app".into(),
            kind: "latency".into(),
            severity: smn_telemetry::Severity::Warning,
            message: "p99 above SLO".into(),
        });
        assert_eq!(clds.total_records(), 2);
    }
}
