//! # sdr-storage — the columnar star-schema substrate
//!
//! The physical layer beneath the subcube implementation strategy of
//! Section 7: segmented, column-encoded fact tables with byte-accurate
//! size accounting. Dimension tables live in `sdr-mdm` (interned values
//! with roll-up arrays — exactly a star schema's dimension tables); this
//! crate stores the fact side.
//!
//! * [`encode`] — per-column plain/RLE/delta encoding for sealed
//!   segments;
//! * [`csv`] — human-readable fact interchange (export with rendered
//!   values, import of bottom-granularity facts);
//! * [`table`] — segmented [`FactTable`]s with append/seal/scan,
//!   MO interchange, serialization, and [`TableStats`] used by the
//!   storage-gain experiment (E1 in `DESIGN.md`);
//! * [`fs`] — the [`Fs`] filesystem trait with a durable [`RealFs`]
//!   (fsync discipline) and the deterministic fault-injection
//!   [`FailpointFs`] shim behind it;
//! * [`wal`] — length-prefixed, CRC-checksummed write-ahead-log framing
//!   with torn-tail detection and repair.

#![warn(missing_docs)]

pub mod csv;
pub mod encode;
pub mod error;
pub mod fs;
pub mod table;
pub mod wal;

pub use csv::{export_csv, import_csv};
pub use encode::ColumnEnc;
pub use error::StorageError;
pub use fs::{atomic_write, FailpointFs, FaultMode, Fs, MemFs, RealFs};
pub use table::{FactRow, FactTable, SealedSegment, TableStats, DEFAULT_SEGMENT_ROWS};
pub use wal::{
    crc32, is_group, pack_group, scan_wal, truncate_wal_records, unpack_group, Wal, WalScan,
    WAL_GROUP_TAG, WAL_MAGIC,
};

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_workload::{paper_mo, ClickstreamConfig};
    use std::sync::Arc;

    #[test]
    fn roundtrip_paper_mo() {
        let (mo, _) = paper_mo();
        let mut t = FactTable::from_mo(&mo, 4).unwrap();
        assert_eq!(t.len(), 7);
        let back = t.to_mo().unwrap();
        assert_eq!(back.len(), 7);
        for (a, b) in mo.facts().zip(back.facts()) {
            assert_eq!(mo.coords(a), back.coords(b));
            assert_eq!(mo.measures_of(a), back.measures_of(b));
        }
        // Serialization roundtrip.
        let bytes = t.serialize();
        let t2 = FactTable::deserialize(Arc::clone(mo.schema()), bytes).unwrap();
        assert_eq!(t2.scan().unwrap(), t.scan().unwrap());
    }

    #[test]
    fn seal_boundaries_and_order() {
        let (mo, _) = paper_mo();
        // Segment size 3 → segments of 3,3,1 rows.
        let t = FactTable::from_mo(&mo, 3).unwrap();
        let rows = t.scan().unwrap();
        assert_eq!(rows.len(), 7);
        // Insertion order preserved across segment boundaries.
        for (i, f) in mo.facts().enumerate() {
            assert_eq!(rows[i].coords, mo.coords(f));
        }
    }

    #[test]
    fn stats_reflect_encoding_gains() {
        // A day of identical-ish clicks: category columns are constant,
        // so encoded size must be far below raw size.
        let c = sdr_workload::generate(&ClickstreamConfig {
            clicks_per_day: 500,
            start: (2000, 1, 1),
            end: (2000, 1, 10),
            ..Default::default()
        });
        let t = FactTable::from_mo(&c.mo, 1 << 16).unwrap();
        let s = t.stats();
        assert_eq!(s.rows, c.mo.len());
        assert!(s.encoded_bytes < s.raw_bytes, "{s:?}");
        // The two category columns alone are pure runs: at least ~15% off.
        assert!((s.encoded_bytes as f64) < 0.9 * s.raw_bytes as f64, "{s:?}");
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (mo, _) = paper_mo();
        let mut t = FactTable::new(Arc::clone(mo.schema()));
        let err = t.append(&FactRow {
            coords: vec![],
            measures: vec![],
            origin: 0,
        });
        assert!(matches!(err, Err(StorageError::ShapeMismatch)));
    }

    #[test]
    fn deserialize_rejects_garbage() {
        let (mo, _) = paper_mo();
        let schema = Arc::clone(mo.schema());
        assert!(FactTable::deserialize(Arc::clone(&schema), [0u8; 0]).is_err());
        assert!(FactTable::deserialize(Arc::clone(&schema), [0u8; 64]).is_err());
        // Truncation of a valid stream.
        let mut t = FactTable::from_mo(&mo, 4).unwrap();
        let full = t.serialize();
        let cut = &full[..full.len() - 5];
        assert!(FactTable::deserialize(schema, cut).is_err());
    }

    #[test]
    fn save_to_preserves_io_error_kind() {
        // A missing parent directory surfaces as a structured Io error
        // with the original kind — not a stringified message.
        let (mo, _) = paper_mo();
        let mut t = FactTable::from_mo(&mo, 4).unwrap();
        let err = t
            .save_to("/nonexistent-sdr-dir/cube-0.sdr")
            .expect_err("write into a missing directory must fail");
        match err {
            StorageError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected StorageError::Io, got {other:?}"),
        }
    }

    #[test]
    fn save_to_roundtrips_durably() {
        let (mo, _) = paper_mo();
        let dir = std::env::temp_dir().join(format!("sdr-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sdr");
        let mut t = FactTable::from_mo(&mo, 4).unwrap();
        t.save_to(&path).unwrap();
        let back = FactTable::load_from(Arc::clone(mo.schema()), &path).unwrap();
        assert_eq!(back.scan().unwrap(), t.scan().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_table() {
        let (mo, _) = paper_mo();
        let mut t = FactTable::new(Arc::clone(mo.schema()));
        assert!(t.is_empty());
        assert_eq!(t.stats().rows, 0);
        let b = t.serialize();
        let t2 = FactTable::deserialize(Arc::clone(mo.schema()), b).unwrap();
        assert!(t2.is_empty());
    }
}
