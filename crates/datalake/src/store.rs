//! Typed, time-ordered stores and the CLDS bundle.
//!
//! The Cross-Layer Cross-Team Data Store (CLDS, Figure 1) holds every record
//! type in one place so "teams and central leaders can also easily discover
//! and consume data from other teams" (§6). Stores are append-mostly with
//! binary-searched time-range queries; a [`Clds`] bundles one store per
//! record type behind `parking_lot` locks so producer teams and the CLTO
//! can share it.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
/// The records sit in one shared buffer, so a reader can keep a range of
/// them without copying it out ([`TimeStore::shared_range`]). Every
/// mutation is copy-on-write: while a [`SharedRange`] (or a clone of the
/// store) still holds the buffer, the next batch copies every record once
/// before changing its own copy, and [`TimeStore::copies`] counts it.
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
    records: Arc<Vec<T>>,
    stamp: u64,
    copies: u64,
}

impl<T> Default for TimeStore<T> {
    fn default() -> Self {
        Self { records: Arc::default(), stamp: fresh_stamp(), copies: 0 }
    }
}

/// A clone is another store: it gets its own stamp, and shares the
/// records until either store changes them.
impl<T> Clone for TimeStore<T> {
    fn clone(&self) -> Self {
        Self { records: Arc::clone(&self.records), stamp: fresh_stamp(), copies: 0 }
    }
}

impl<T: Timestamped> TimeStore<T> {
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

    /// The indices of the records with `start <= ts < end`; empty when
    /// `start > end`.
    fn bounds(&self, start: Ts, end: Ts) -> Range<usize> {
        let lo = self.records.partition_point(|r| r.ts() < start);
        let hi = self.records.partition_point(|r| r.ts() < end);
        lo..hi.max(lo)
    }

    /// Records with `start <= ts < end`; empty when `start > end`.
    #[must_use]
    pub fn range(&self, start: Ts, end: Ts) -> &[T] {
        self.records.get(self.bounds(start, end)).unwrap_or_default()
    }

    /// [`TimeStore::range`] shared with the store instead of borrowed from
    /// it: the range outlives the borrow (and any lock around the store),
    /// and keeps reading these records whatever the store does next.
    #[must_use]
    pub fn shared_range(&self, start: Ts, end: Ts) -> SharedRange<T> {
        SharedRange { records: Arc::clone(&self.records), range: self.bounds(start, end) }
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

    /// This store's stamp: equal stamps mean the same store, changed since
    /// only by appends.
    #[must_use]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// How many mutations copied the records because a [`SharedRange`] or
    /// a clone still held them.
    #[must_use]
    pub fn copies(&self) -> u64 {
        self.copies
    }

    /// Timestamp of the newest record.
    #[must_use]
    pub fn latest_ts(&self) -> Option<Ts> {
        self.records.last().map(Timestamped::ts)
    }
}

impl<T: Timestamped + Clone> TimeStore<T> {
    /// The one way the records change: `f` gets them once the store owns
    /// its buffer alone, which costs one copy (counted) while a reader
    /// still holds it.
    fn mutate<R>(&mut self, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
        if Arc::get_mut(&mut self.records).is_none() {
            self.copies += 1;
        }
        f(Arc::make_mut(&mut self.records))
    }

    /// Append a batch in order. A record older than the newest one before
    /// it (stored or earlier in the batch) is not stored: it goes to
    /// `stale`, with that newest timestamp. An empty batch changes nothing,
    /// so it never copies.
    pub fn extend_with(&mut self, rs: impl IntoIterator<Item = T>, mut stale: impl FnMut(T, Ts)) {
        let mut rs = rs.into_iter().peekable();
        if rs.peek().is_none() {
            return;
        }
        self.mutate(|records| {
            // No `reserve` for the batch: it would size a bulk load's
            // buffer exactly, and the next tick's growth would then copy
            // it (≈30 MB more resident on a 300-DC lake).
            let mut latest = records.last().map(Timestamped::ts);
            for r in rs {
                match latest {
                    Some(newest) if r.ts() < newest => stale(r, newest),
                    _ => {
                        latest = Some(r.ts());
                        records.push(r);
                    }
                }
            }
        });
    }

    /// Append a record.
    ///
    /// # Panics
    /// Panics if `r` is older than the last stored record.
    pub fn append(&mut self, r: T) {
        self.extend(std::iter::once(r));
    }

    /// Append many records (must also be ordered).
    ///
    /// # Panics
    /// Panics at the first record older than the one before it.
    pub fn extend(&mut self, rs: impl IntoIterator<Item = T>) {
        self.extend_with(rs, |r, newest| {
            // Only stale records get here, so this always fails.
            assert!(r.ts() >= newest, "out-of-order append: {:?} after {:?}", r.ts(), newest);
        });
    }

    /// Keep only records satisfying `keep` (retention enforcement),
    /// renewing the stamp. Returns how many records were dropped.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) -> usize {
        self.stamp = fresh_stamp();
        self.mutate(|records| {
            let before = records.len();
            records.retain(keep);
            before - records.len()
        })
    }
}

/// A range of a [`TimeStore`]'s records that shares the store's buffer
/// instead of copying it: it derefs to the range's slice, as the store
/// held it when the range was taken. While it is alive, the store's next
/// mutation copies the whole buffer once ([`TimeStore::copies`]).
#[derive(Clone)]
pub struct SharedRange<T> {
    records: Arc<Vec<T>>,
    range: Range<usize>,
}

/// An empty range of an empty store.
impl<T> Default for SharedRange<T> {
    fn default() -> Self {
        Self { records: Arc::default(), range: 0..0 }
    }
}

impl<T> Deref for SharedRange<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.records.get(self.range.clone()).unwrap_or_default()
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedRange<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: PartialEq> PartialEq for SharedRange<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
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
    fn a_shared_range_keeps_its_records_and_costs_one_copy() {
        let mut s = TimeStore::default();
        s.extend((0..4).map(|i| bw(i * 10, i as f64)));
        let held = s.shared_range(Ts(10), Ts(30));
        assert_eq!(&*held, s.range(Ts(10), Ts(30)));
        assert_eq!(held.as_ptr(), s.range(Ts(10), Ts(30)).as_ptr(), "shared, not copied");
        assert!(s.shared_range(Ts(30), Ts(10)).is_empty(), "inverted range is empty");
        s.extend([]);
        assert_eq!(s.copies(), 0, "an empty batch changes nothing");
        s.extend((4..6).map(|i| bw(i * 10, i as f64)));
        s.append(bw(60, 6.0));
        assert_eq!(s.copies(), 1, "only the first batch after the range copies");
        s.retain(|r| r.gbps >= 2.0);
        assert_eq!(s.copies(), 1);
        let gbps: Vec<f64> = held.iter().map(|r| r.gbps).collect();
        assert_eq!(gbps, [1.0, 2.0], "the range reads the records it was taken over");
        drop(held);
        s.append(bw(70, 7.0));
        assert_eq!(s.copies(), 1, "nothing holds the buffer: no copy");
        let copy = s.clone();
        s.append(bw(80, 8.0));
        assert_eq!((s.copies(), s.len(), copy.len()), (2, 7, 6), "a clone shares until a change");
    }

    #[test]
    fn a_batch_hands_stale_records_on() {
        let mut s = TimeStore::default();
        s.append(bw(20, 0.0));
        let mut stale = Vec::new();
        s.extend_with([bw(10, 1.0), bw(30, 2.0), bw(25, 3.0), bw(30, 4.0)], |r, newest| {
            stale.push((r.ts, newest));
        });
        assert_eq!(stale, [(Ts(10), Ts(20)), (Ts(25), Ts(30))]);
        let gbps: Vec<f64> = s.all().iter().map(|r| r.gbps).collect();
        assert_eq!(gbps, [0.0, 2.0, 4.0]);
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
