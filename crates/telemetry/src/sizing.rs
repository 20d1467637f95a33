//! Byte-level size accounting for telemetry.
//!
//! The paper's §4 quantifies coarsening by log-volume reduction ("a 10X
//! reduction in log size"). A log's volume counts its rows and its bytes:
//! rows × [`BW_RECORD_BYTES`], the width of a record's binary encoding.

use serde::{Deserialize, Serialize};

use crate::record::BandwidthRecord;

/// Binary width of one encoded [`BandwidthRecord`]:
/// u64 ts + u32 src + u32 dst + f64 gbps.
pub const BW_RECORD_BYTES: usize = 8 + 4 + 4 + 8;

/// Volume of a log: row count and encoded bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogVolume {
    /// Number of rows.
    pub rows: usize,
    /// Encoded size in bytes.
    pub bytes: usize,
}

impl LogVolume {
    /// Volume of a bandwidth log.
    #[must_use]
    pub fn of_bw_log(records: &[BandwidthRecord]) -> LogVolume {
        LogVolume { rows: records.len(), bytes: records.len() * BW_RECORD_BYTES }
    }

    /// Reduction factor of `self` relative to `original` (by rows).
    /// A value of 10.0 means "10× fewer rows".
    #[must_use]
    pub fn row_reduction_vs(&self, original: LogVolume) -> f64 {
        if self.rows == 0 {
            f64::INFINITY
        } else {
            original.rows as f64 / self.rows as f64
        }
    }

    /// Reduction factor by bytes.
    #[must_use]
    pub fn byte_reduction_vs(&self, original: LogVolume) -> f64 {
        if self.bytes == 0 {
            f64::INFINITY
        } else {
            original.bytes as f64 / self.bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Ts;

    fn sample_log(n: usize) -> Vec<BandwidthRecord> {
        (0..n)
            .map(|i| BandwidthRecord {
                ts: Ts(i as u64 * 300),
                src: i as u32 % 7,
                dst: (i as u32 + 1) % 7,
                gbps: 100.0 + i as f64,
            })
            .collect()
    }

    #[test]
    fn volume_and_reduction() {
        let orig = LogVolume::of_bw_log(&sample_log(1000));
        let coarse = LogVolume::of_bw_log(&sample_log(100));
        assert_eq!(orig.rows, 1000);
        assert_eq!(orig.bytes, 24_000);
        assert_eq!(coarse.row_reduction_vs(orig), 10.0);
        assert_eq!(coarse.byte_reduction_vs(orig), 10.0);
        let empty = LogVolume::of_bw_log(&[]);
        assert!(empty.row_reduction_vs(orig).is_infinite());
    }
}
