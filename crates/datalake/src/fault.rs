//! Fallible CLDS access: typed lake errors and a deterministic fault
//! wrapper.
//!
//! Production data lakes fail — partitions take regions of history offline,
//! and individual queries flake. [`FaultyStore`] wraps a [`Clds`] and makes
//! every read return a `Result<_, LakeError>`, with failures injected
//! deterministically from a [`FaultProfile`] (seeded hash of the query
//! counter, plus configured unavailability windows over simulated time).
//! Callers that want resilience compose this with the retry/circuit-breaker
//! machinery in [`crate::access`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};
use smn_telemetry::record::{Alert, BandwidthRecord, LogEvent, ProbeResult};
use smn_telemetry::time::Ts;

use crate::store::Clds;

/// Typed errors a lake query can fail with.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LakeError {
    /// The dataset's backing partition is offline for the queried window.
    /// Persistent: retrying the same query will keep failing.
    Unavailable {
        /// Dataset that was queried.
        dataset: String,
        /// Start of the outage window that intersects the query.
        outage_start: Ts,
        /// End of that outage window.
        outage_end: Ts,
    },
    /// A transient per-query failure (timeout, shard flake). Retrying may
    /// succeed.
    QueryFailed {
        /// Dataset that was queried.
        dataset: String,
        /// Sequence number of the failed query (for reproducibility).
        query: u64,
    },
    /// The circuit breaker is open: the lake is presumed down and calls
    /// fail fast without touching it.
    CircuitOpen {
        /// Queries remaining before the breaker half-opens.
        cooldown_remaining: u64,
    },
    /// The stored bytes are malformed: decoding a dataset's wire format
    /// failed. Persistent: the data itself is damaged, retries cannot help.
    Corrupt {
        /// Dataset whose encoding failed to parse.
        dataset: String,
        /// What was wrong with the bytes.
        detail: String,
    },
}

impl LakeError {
    /// Whether retrying the same operation could plausibly succeed.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, LakeError::QueryFailed { .. })
    }
}

impl fmt::Display for LakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LakeError::Unavailable { dataset, outage_start, outage_end } => write!(
                f,
                "dataset {dataset} unavailable: partition down for [{outage_start}, {outage_end})"
            ),
            LakeError::QueryFailed { dataset, query } => {
                write!(f, "transient failure querying {dataset} (query #{query})")
            }
            LakeError::CircuitOpen { cooldown_remaining } => {
                write!(f, "circuit open: failing fast ({cooldown_remaining} queries to half-open)")
            }
            LakeError::Corrupt { dataset, detail } => {
                write!(f, "dataset {dataset} corrupt: {detail}")
            }
        }
    }
}

impl std::error::Error for LakeError {}

/// A window of simulated time during which the lake cannot serve queries
/// that touch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outage {
    /// Outage start (inclusive).
    pub start: Ts,
    /// Outage end (exclusive).
    pub end: Ts,
}

impl Outage {
    /// Whether a query over `[start, end)` touches this outage.
    #[must_use]
    pub fn overlaps(&self, start: Ts, end: Ts) -> bool {
        start < self.end && self.start < end
    }
}

/// Dataset name of the alerts stream (as reported in [`LakeError`]s and
/// matched by dataset-scoped outages).
pub const DATASET_ALERTS: &str = "ops/alerts";
/// Dataset name of the probe-result stream.
pub const DATASET_PROBES: &str = "ops/probes";

/// An [`Outage`] confined to one dataset: the rest of the lake keeps
/// serving. Models partial control-plane loss — e.g. the alerts pipeline
/// offline for a window while probes survive — which is what walks the
/// controller down a *specific* degradation rung instead of blinding it
/// outright.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetOutage {
    /// Dataset the outage confines to, e.g. [`DATASET_ALERTS`].
    pub dataset: String,
    /// The unavailability window.
    pub outage: Outage,
}

/// How unreliable the lake is. Like the telemetry chaos profiles, failures
/// are a pure function of `(seed, query counter)` so campaigns replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Seed for per-query failure decisions.
    pub seed: u64,
    /// Probability each query fails transiently.
    pub error_rate: f64,
    /// Simulated-time windows whose data is unreachable (partitions).
    pub outages: Vec<Outage>,
    /// Unavailability windows confined to a single dataset.
    pub dataset_outages: Vec<DatasetOutage>,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            seed: 0x1A4E,
            error_rate: 0.0,
            outages: Vec::new(),
            dataset_outages: Vec::new(),
        }
    }
}

impl FaultProfile {
    /// A profile that never fails.
    #[must_use]
    pub fn reliable() -> Self {
        Self::default()
    }

    /// Set the transient per-query error rate.
    #[must_use]
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "error rate must be in [0, 1]");
        self.error_rate = rate;
        self
    }

    /// Add an unavailability window.
    #[must_use]
    pub fn with_outage(mut self, start: Ts, end: Ts) -> Self {
        assert!(start < end, "empty outage window");
        self.outages.push(Outage { start, end });
        self
    }

    /// Add an unavailability window confined to one dataset.
    #[must_use]
    pub fn with_dataset_outage(mut self, dataset: &str, start: Ts, end: Ts) -> Self {
        assert!(start < end, "empty outage window");
        self.dataset_outages
            .push(DatasetOutage { dataset: dataset.to_string(), outage: Outage { start, end } });
        self
    }

    /// Set the fault seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Hash helpers mirroring `smn_telemetry::det` (duplicated to keep the
/// dependency edge pointing the existing direction only).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn mix(parts: &[u64]) -> u64 {
    let mut acc = 0xCBF2_9CE4_8422_2325u64;
    for &p in parts {
        acc = splitmix64(acc ^ p);
    }
    acc
}

fn uniform01(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`Clds`] whose reads can fail, per a [`FaultProfile`].
///
/// Writes go through [`FaultyStore::clds`] unchanged — ingestion-side chaos
/// is modeled upstream by `smn_telemetry::chaos`. Reads are range queries
/// returning owned vectors (a remote lake hands back result sets, not
/// borrows into its own memory).
#[derive(Debug)]
pub struct FaultyStore {
    clds: Clds,
    profile: FaultProfile,
    queries: AtomicU64,
}

impl FaultyStore {
    /// Wrap a CLDS with a fault profile.
    pub fn new(clds: Clds, profile: FaultProfile) -> Self {
        FaultyStore { clds, profile, queries: AtomicU64::new(0) }
    }

    /// Wrap a CLDS with a profile that never fails.
    pub fn reliable(clds: Clds) -> Self {
        Self::new(clds, FaultProfile::reliable())
    }

    /// Direct access to the underlying store (writes, ingestion, tests).
    pub fn clds(&self) -> &Clds {
        &self.clds
    }

    /// Total queries served or failed so far.
    pub fn query_count(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Fault gate shared by every read: outage overlap is persistent,
    /// per-query errors are transient and keyed by the query counter.
    fn gate(&self, dataset: &str, start: Ts, end: Ts) -> Result<(), LakeError> {
        let q = self.queries.fetch_add(1, Ordering::Relaxed);
        if let Some(outage) = self.profile.outages.iter().find(|o| o.overlaps(start, end)) {
            return Err(LakeError::Unavailable {
                dataset: dataset.to_string(),
                outage_start: outage.start,
                outage_end: outage.end,
            });
        }
        if let Some(d) = self
            .profile
            .dataset_outages
            .iter()
            .find(|d| d.dataset == dataset && d.outage.overlaps(start, end))
        {
            return Err(LakeError::Unavailable {
                dataset: dataset.to_string(),
                outage_start: d.outage.start,
                outage_end: d.outage.end,
            });
        }
        if self.profile.error_rate > 0.0
            && uniform01(mix(&[self.profile.seed, q, 0xE4_40])) < self.profile.error_rate
        {
            return Err(LakeError::QueryFailed { dataset: dataset.to_string(), query: q });
        }
        Ok(())
    }

    /// Bandwidth records with `start <= ts < end`.
    pub fn bandwidth_range(&self, start: Ts, end: Ts) -> Result<Vec<BandwidthRecord>, LakeError> {
        self.with_bandwidth_range(start, end, <[_]>::to_vec)
    }

    /// `f` over the bandwidth records with `start <= ts < end`, borrowed
    /// under the dataset's read lock instead of copied out: one gated
    /// query, exactly like [`FaultyStore::bandwidth_range`], whose result
    /// `f` turns into what the caller keeps. Writers wait until `f`
    /// returns.
    ///
    /// # Errors
    /// The gate's [`LakeError`]: an outage over the range, or a seeded
    /// transient failure; `f` is not called then.
    pub fn with_bandwidth_range<T>(
        &self,
        start: Ts,
        end: Ts,
        f: impl FnOnce(&[BandwidthRecord]) -> T,
    ) -> Result<T, LakeError> {
        self.gate("wan/bandwidth-logs", start, end)?;
        Ok(f(self.clds.bandwidth.read().range(start, end)))
    }

    /// Alerts with `start <= ts < end`.
    pub fn alerts_range(&self, start: Ts, end: Ts) -> Result<Vec<Alert>, LakeError> {
        self.gate(DATASET_ALERTS, start, end)?;
        Ok(self.clds.alerts.read().range(start, end).to_vec())
    }

    /// Probe results with `start <= ts < end`.
    pub fn probes_range(&self, start: Ts, end: Ts) -> Result<Vec<ProbeResult>, LakeError> {
        self.gate(DATASET_PROBES, start, end)?;
        Ok(self.clds.probes.read().range(start, end).to_vec())
    }

    /// Log events with `start <= ts < end`.
    pub fn logs_range(&self, start: Ts, end: Ts) -> Result<Vec<LogEvent>, LakeError> {
        self.gate("ops/logs", start, end)?;
        Ok(self.clds.logs.read().range(start, end).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_store(profile: FaultProfile) -> FaultyStore {
        let clds = Clds::new();
        {
            let mut bw = clds.bandwidth.write();
            for i in 0..100u64 {
                bw.append(BandwidthRecord { ts: Ts(i * 300), src: 0, dst: 1, gbps: 1.0 });
            }
        }
        FaultyStore::new(clds, profile)
    }

    #[test]
    fn reliable_store_always_serves() {
        let store = seeded_store(FaultProfile::reliable());
        for _ in 0..50 {
            assert_eq!(store.bandwidth_range(Ts(0), Ts(30_000)).unwrap().len(), 100);
        }
    }

    #[test]
    fn outage_window_fails_persistently() {
        let store = seeded_store(FaultProfile::reliable().with_outage(Ts(1000), Ts(2000)));
        // Overlapping query fails every time (not transient).
        for _ in 0..5 {
            let err = store.bandwidth_range(Ts(500), Ts(1500)).unwrap_err();
            assert!(matches!(err, LakeError::Unavailable { .. }));
            assert!(!err.is_transient());
        }
        // Disjoint query is fine.
        assert!(store.bandwidth_range(Ts(2000), Ts(3000)).is_ok());
    }

    #[test]
    fn error_rate_is_deterministic_per_query_counter() {
        let profile = FaultProfile::reliable().with_error_rate(0.5).with_seed(11);
        let a = seeded_store(profile.clone());
        let b = seeded_store(profile);
        let outcomes_a: Vec<bool> =
            (0..200).map(|_| a.bandwidth_range(Ts(0), Ts(300)).is_ok()).collect();
        let outcomes_b: Vec<bool> =
            (0..200).map(|_| b.bandwidth_range(Ts(0), Ts(300)).is_ok()).collect();
        assert_eq!(outcomes_a, outcomes_b);
        let failures = outcomes_a.iter().filter(|ok| !**ok).count();
        assert!((60..140).contains(&failures), "failures {failures}");
    }

    #[test]
    fn dataset_outage_blinds_only_its_dataset() {
        let store = seeded_store(FaultProfile::reliable().with_dataset_outage(
            DATASET_ALERTS,
            Ts(0),
            Ts(1000),
        ));
        // The scoped dataset fails persistently inside the window...
        for _ in 0..3 {
            let err = store.alerts_range(Ts(0), Ts(500)).unwrap_err();
            assert!(matches!(err, LakeError::Unavailable { .. }));
        }
        // ...while sibling datasets and disjoint windows keep serving.
        assert!(store.probes_range(Ts(0), Ts(500)).is_ok());
        assert!(store.bandwidth_range(Ts(0), Ts(500)).is_ok());
        assert!(store.alerts_range(Ts(1000), Ts(2000)).is_ok());
    }

    #[test]
    fn borrowed_range_read_matches_copying_read() {
        let profiles = [
            FaultProfile::reliable().with_outage(Ts(1000), Ts(2000)),
            FaultProfile::reliable().with_dataset_outage("wan/bandwidth-logs", Ts(0), Ts(900)),
            FaultProfile::reliable().with_error_rate(0.4).with_seed(23),
        ];
        for profile in profiles {
            let (copying, borrowing) = (seeded_store(profile.clone()), seeded_store(profile));
            let mut failed = 0;
            for i in 0..40u64 {
                let (start, end) = (Ts(i * 250), Ts(i * 250 + 1200));
                let copied = copying.bandwidth_range(start, end);
                let borrowed = borrowing.with_bandwidth_range(start, end, <[_]>::to_vec);
                assert_eq!(copied, borrowed, "query {i} over [{start}, {end})");
                let counted = borrowing.with_bandwidth_range(start, end, <[_]>::len);
                assert_eq!(counted, copying.bandwidth_range(start, end).map(|v| v.len()));
                failed += usize::from(copied.is_err());
            }
            assert!((1..40).contains(&failed), "{failed} of 40 queries failed");
            assert_eq!(copying.query_count(), borrowing.query_count());
        }
    }

    #[test]
    fn transient_failures_are_marked_transient() {
        let store = seeded_store(FaultProfile::reliable().with_error_rate(1.0));
        let err = store.alerts_range(Ts(0), Ts(100)).unwrap_err();
        assert!(err.is_transient());
    }
}
