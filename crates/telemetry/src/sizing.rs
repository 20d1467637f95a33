//! Byte-level size accounting for telemetry.
//!
//! The paper's §4 quantifies coarsening by log-volume reduction ("a 10X
//! reduction in log size"). To measure that honestly we encode records into
//! an actual wire format (via `bytes`) and count rows *and* bytes, rather
//! than assuming a row width.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use crate::record::BandwidthRecord;
use crate::time::Ts;

/// Binary width of one encoded [`BandwidthRecord`]:
/// u64 ts + u32 src + u32 dst + f64 gbps.
pub const BW_RECORD_BYTES: usize = 8 + 4 + 4 + 8;

/// Encode one bandwidth record into `buf`.
pub fn encode_bw_record(buf: &mut BytesMut, r: &BandwidthRecord) {
    buf.put_u64(r.ts.0);
    buf.put_u32(r.src);
    buf.put_u32(r.dst);
    buf.put_f64(r.gbps);
}

/// Encode a whole log.
#[must_use]
pub fn encode_bw_log(records: &[BandwidthRecord]) -> Bytes {
    let mut buf = BytesMut::with_capacity(records.len() * BW_RECORD_BYTES);
    for r in records {
        encode_bw_record(&mut buf, r);
    }
    buf.freeze()
}

/// Decode a log encoded by [`encode_bw_log`].
///
/// # Panics
/// Panics if `bytes` is not a whole number of records.
#[must_use]
pub fn decode_bw_log(mut bytes: Bytes) -> Vec<BandwidthRecord> {
    assert_eq!(bytes.len() % BW_RECORD_BYTES, 0, "truncated bandwidth log");
    let mut out = Vec::with_capacity(bytes.len() / BW_RECORD_BYTES);
    while bytes.has_remaining() {
        out.push(BandwidthRecord {
            ts: Ts(bytes.get_u64()),
            src: bytes.get_u32(),
            dst: bytes.get_u32(),
            gbps: bytes.get_f64(),
        });
    }
    out
}

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
    fn encode_decode_roundtrip() {
        let log = sample_log(10);
        let bytes = encode_bw_log(&log);
        assert_eq!(bytes.len(), 10 * BW_RECORD_BYTES);
        let back = decode_bw_log(bytes);
        assert_eq!(log, back);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn decode_rejects_truncated() {
        let mut bytes = encode_bw_log(&sample_log(2));
        let truncated = bytes.split_to(BW_RECORD_BYTES + 3);
        let _ = decode_bw_log(truncated);
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
