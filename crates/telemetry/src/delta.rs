//! Typed telemetry deltas — the unit of the streaming ingest path.
//!
//! A [`TelemetryDelta`] carries the bandwidth records that arrived during
//! one controller tick. The incremental coarseners (`smn_core::stream`)
//! apply deltas in place, touching only the (pair, window) cells a delta
//! dirties, instead of re-coarsening the whole history every control
//! period. Deltas are *append-only*: telemetry never rewrites history, so
//! the concatenation of all deltas in tick order is exactly the batch log
//! the reconciliation oracle recomputes from.

use serde::{Deserialize, Serialize};

use crate::record::BandwidthRecord;
use crate::time::Ts;

/// The bandwidth records that arrived during one streaming tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryDelta {
    /// Tick index; deltas must be applied in strictly increasing order.
    pub tick: u64,
    /// New records, in arrival order. The incremental coarseners merge
    /// each cell's samples into a buffer kept sorted under
    /// `f64::total_cmp` — the order the batch oracle summarizes in — so
    /// their floating-point summaries are bit-identical to a batch pass
    /// over the concatenated log whatever the order within a delta.
    pub records: Vec<BandwidthRecord>,
}

impl TelemetryDelta {
    /// A delta for `tick` carrying `records`.
    #[must_use]
    pub fn new(tick: u64, records: Vec<BandwidthRecord>) -> Self {
        Self { tick, records }
    }

    /// Number of records in the delta.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the delta carries no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The distinct (src, dst) pairs this delta touches, sorted.
    #[must_use]
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = self.records.iter().map(|r| (r.src, r.dst)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Earliest record timestamp, `None` when empty.
    #[must_use]
    pub fn min_ts(&self) -> Option<Ts> {
        self.records.iter().map(|r| r.ts).min()
    }

    /// Latest record timestamp, `None` when empty.
    #[must_use]
    pub fn max_ts(&self) -> Option<Ts> {
        self.records.iter().map(|r| r.ts).max()
    }

    /// Split a time-ordered log into per-epoch deltas: one delta per
    /// distinct timestamp, ticks numbered from `first_tick`. This is the
    /// delta-emission shim for replaying a batch-generated log through
    /// the streaming path; record order within each delta is preserved.
    #[must_use]
    pub fn split_epochs(log: &[BandwidthRecord], first_tick: u64) -> Vec<TelemetryDelta> {
        let mut out: Vec<TelemetryDelta> = Vec::new();
        for r in log {
            let open_epoch =
                out.last().is_some_and(|d| d.records.last().is_some_and(|prev| prev.ts == r.ts));
            if !open_epoch {
                let tick = first_tick + u64::try_from(out.len()).unwrap_or(u64::MAX);
                out.push(TelemetryDelta::new(tick, Vec::new()));
            }
            if let Some(d) = out.last_mut() {
                d.records.push(*r);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, src: u32, dst: u32, gbps: f64) -> BandwidthRecord {
        BandwidthRecord { ts: Ts(ts), src, dst, gbps }
    }

    #[test]
    fn pairs_are_sorted_and_distinct() {
        let d = TelemetryDelta::new(
            0,
            vec![rec(3600, 2, 1, 5.0), rec(3700, 0, 1, 1.0), rec(10, 2, 1, 2.0)],
        );
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.pairs(), vec![(0, 1), (2, 1)]);
        assert_eq!(d.min_ts(), Some(Ts(10)));
        assert_eq!(d.max_ts(), Some(Ts(3700)));
    }

    #[test]
    fn split_epochs_partitions_in_order() {
        let log = vec![rec(0, 0, 1, 1.0), rec(0, 1, 0, 2.0), rec(300, 0, 1, 3.0)];
        let deltas = TelemetryDelta::split_epochs(&log, 7);
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].tick, 7);
        assert_eq!(deltas[1].tick, 8);
        assert_eq!(deltas[0].records.len(), 2);
        assert_eq!(deltas[1].records.len(), 1);
        let rejoined: Vec<BandwidthRecord> =
            deltas.iter().flat_map(|d| d.records.iter().copied()).collect();
        assert_eq!(rejoined, log, "concatenating deltas reproduces the log");
        assert!(TelemetryDelta::split_epochs(&[], 0).is_empty());
    }
}
