//! Segmented columnar fact tables.
//!
//! The physical backing for multidimensional objects and subcubes: facts
//! are appended into an *active* segment; full segments are *sealed*
//! (immutable, column-encoded). This mirrors how "standard data warehouse
//! technology" (Section 7) stores fact tables, and gives the storage-gain
//! experiment byte-accurate numbers for raw vs. encoded vs. reduced data.

use std::sync::Arc;

use sdr_mdm::{CatId, DimValue, KeyPacker, Mo, Schema};

use crate::encode::{ColumnEnc, GetLe, PutLe};
use crate::error::StorageError;

/// Default number of rows per segment.
pub const DEFAULT_SEGMENT_ROWS: usize = 64 * 1024;

/// Format-1 file magic (`"SDRFACT1"`): plain/RLE/delta columns, no
/// segment zone maps. Still readable; never written anymore.
const MAGIC_V1: u64 = 0x5344_5246_4143_5431;

/// Format-2 file magic (`"SDRFACT2"`): adds dictionary/bit-packed
/// columns and a per-segment min/max zone map over the order-preserving
/// packed cell key ([`KeyPacker`]).
const MAGIC_V2: u64 = 0x5344_5246_4143_5432;

/// One row of a fact table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactRow {
    /// Coordinates, one per dimension.
    pub coords: Vec<DimValue>,
    /// Measure values.
    pub measures: Vec<i64>,
    /// Provenance tag (see [`sdr_mdm::ORIGIN_USER`]).
    pub origin: u32,
}

/// A mutable (unsealed) segment in plain columnar layout.
#[derive(Debug, Clone)]
struct OpenSegment {
    cat: Vec<Vec<u64>>,
    code: Vec<Vec<u64>>,
    measures: Vec<Vec<u64>>,
    origin: Vec<u64>,
    len: usize,
}

impl OpenSegment {
    fn new(n_dims: usize, n_measures: usize) -> Self {
        OpenSegment {
            cat: vec![Vec::new(); n_dims],
            code: vec![Vec::new(); n_dims],
            measures: vec![Vec::new(); n_measures],
            origin: Vec::new(),
            len: 0,
        }
    }
}

/// A sealed, column-encoded segment.
#[derive(Debug, Clone)]
pub struct SealedSegment {
    /// Encoded category columns (one per dimension).
    cat: Vec<ColumnEnc>,
    /// Encoded code columns (one per dimension).
    code: Vec<ColumnEnc>,
    /// Encoded measure columns.
    measures: Vec<ColumnEnc>,
    /// Encoded origin column.
    origin: ColumnEnc,
    /// Min/max packed cell key of the segment's rows — `None` when the
    /// schema exceeds the 128-bit packing budget, the segment is empty,
    /// or the file predates format 2. Range scans skip disjoint segments
    /// without decoding them.
    zone: Option<(u128, u128)>,
    len: usize,
}

impl SealedSegment {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the segment has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encoded size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.cat.iter().map(ColumnEnc::encoded_bytes).sum::<usize>()
            + self
                .code
                .iter()
                .map(ColumnEnc::encoded_bytes)
                .sum::<usize>()
            + self
                .measures
                .iter()
                .map(ColumnEnc::encoded_bytes)
                .sum::<usize>()
            + self.origin.encoded_bytes()
    }
}

/// Storage size statistics of a fact table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableStats {
    /// Number of facts.
    pub rows: usize,
    /// Bytes in the plain (unencoded) columnar layout.
    pub raw_bytes: usize,
    /// Bytes after sealing/encoding (plain for the open segment).
    pub encoded_bytes: usize,
}

/// A segmented columnar fact table over a fixed schema.
#[derive(Debug, Clone)]
pub struct FactTable {
    schema: Arc<Schema>,
    sealed: Vec<SealedSegment>,
    open: OpenSegment,
    segment_rows: usize,
}

impl FactTable {
    /// An empty table with the default segment size.
    pub fn new(schema: Arc<Schema>) -> Self {
        Self::with_segment_rows(schema, DEFAULT_SEGMENT_ROWS)
    }

    /// An empty table with a custom segment size (≥ 1).
    pub fn with_segment_rows(schema: Arc<Schema>, segment_rows: usize) -> Self {
        let open = OpenSegment::new(schema.n_dims(), schema.n_measures());
        FactTable {
            schema,
            sealed: Vec::new(),
            open,
            segment_rows: segment_rows.max(1),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.sealed.iter().map(SealedSegment::len).sum::<usize>() + self.open.len
    }

    /// True when the table has no facts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one fact row.
    pub fn append(&mut self, row: &FactRow) -> Result<(), StorageError> {
        if row.coords.len() != self.schema.n_dims()
            || row.measures.len() != self.schema.n_measures()
        {
            return Err(StorageError::ShapeMismatch);
        }
        for (i, v) in row.coords.iter().enumerate() {
            self.open.cat[i].push(v.cat.0 as u64);
            self.open.code[i].push(v.code);
        }
        for (j, &m) in row.measures.iter().enumerate() {
            self.open.measures[j].push(m as u64);
        }
        self.open.origin.push(row.origin as u64);
        self.open.len += 1;
        if self.open.len >= self.segment_rows {
            self.seal_open();
        }
        Ok(())
    }

    /// Seals the open segment (no-op when empty).
    pub fn seal(&mut self) {
        if self.open.len > 0 {
            self.seal_open();
        }
    }

    fn seal_open(&mut self) {
        let span = sdr_obs::span("storage.encode");
        let open = std::mem::replace(
            &mut self.open,
            OpenSegment::new(self.schema.n_dims(), self.schema.n_measures()),
        );
        let seg = SealedSegment {
            cat: open.cat.iter().map(|c| ColumnEnc::encode(c)).collect(),
            code: open.code.iter().map(|c| ColumnEnc::encode(c)).collect(),
            measures: open.measures.iter().map(|c| ColumnEnc::encode(c)).collect(),
            origin: ColumnEnc::encode(&open.origin),
            zone: Self::zone_of(&self.schema, &open),
            len: open.len,
        };
        drop(span);
        if sdr_obs::enabled() {
            sdr_obs::add("storage.rows_sealed", seg.len as u64);
            sdr_obs::add("storage.encoded_bytes", seg.encoded_bytes() as u64);
            sdr_obs::record("storage.segment_bytes", seg.encoded_bytes() as u64);
        }
        self.sealed.push(seg);
    }

    /// The min/max packed key of an open segment's rows, `None` when the
    /// schema does not pack, the segment is empty, or a raw category
    /// index falls outside the typed range (possible only for foreign
    /// bytes — such segments simply carry no zone map).
    fn zone_of(schema: &Schema, open: &OpenSegment) -> Option<(u128, u128)> {
        if open.len == 0 {
            return None;
        }
        let packer = KeyPacker::new(schema)?;
        let n_dims = schema.n_dims();
        let (mut lo, mut hi) = (u128::MAX, 0u128);
        let mut coords = Vec::with_capacity(n_dims);
        for r in 0..open.len {
            coords.clear();
            for d in 0..n_dims {
                let cat = CatId::try_from_index(open.cat[d][r]).ok()?;
                coords.push(DimValue::new(cat, open.code[d][r]));
            }
            let k = packer.pack_coords(&coords);
            lo = lo.min(k);
            hi = hi.max(k);
        }
        Some((lo, hi))
    }

    /// Scans every row in insertion order.
    ///
    /// # Errors
    /// [`StorageError::Model`] when a stored category index exceeds the
    /// `u8` range of [`CatId`]. The typed [`append`](FactTable::append)
    /// path cannot produce one, but a table deserialized from corrupted
    /// or foreign bytes can — truncating the index would silently alias
    /// a different category, so the scan refuses instead.
    pub fn scan(&self) -> Result<Vec<FactRow>, StorageError> {
        let n_dims = self.schema.n_dims();
        let n_measures = self.schema.n_measures();
        let mut out = Vec::with_capacity(self.len());
        let mut emit = |cat: &[Vec<u64>],
                        code: &[Vec<u64>],
                        ms: &[Vec<u64>],
                        org: &[u64],
                        len: usize|
         -> Result<(), StorageError> {
            for r in 0..len {
                let coords = (0..n_dims)
                    .map(|i| {
                        let cat = CatId::try_from_index(cat[i][r]).map_err(StorageError::Model)?;
                        Ok(DimValue::new(cat, code[i][r]))
                    })
                    .collect::<Result<Vec<DimValue>, StorageError>>()?;
                out.push(FactRow {
                    coords,
                    measures: (0..n_measures).map(|j| ms[j][r] as i64).collect(),
                    origin: org[r] as u32,
                });
            }
            Ok(())
        };
        for s in &self.sealed {
            let cat: Vec<Vec<u64>> = s.cat.iter().map(ColumnEnc::decode).collect();
            let code: Vec<Vec<u64>> = s.code.iter().map(ColumnEnc::decode).collect();
            let ms: Vec<Vec<u64>> = s.measures.iter().map(ColumnEnc::decode).collect();
            let org = s.origin.decode();
            emit(&cat, &code, &ms, &org, s.len)?;
        }
        emit(
            &self.open.cat,
            &self.open.code,
            &self.open.measures,
            &self.open.origin,
            self.open.len,
        )?;
        Ok(out)
    }

    /// Scans only rows whose order-preserving packed cell key
    /// ([`KeyPacker`]) lies in `[lo, hi]`, skipping sealed segments whose
    /// zone map is disjoint from the range without decoding them.
    ///
    /// When the schema exceeds the 128-bit packing budget no keys exist
    /// and the scan degenerates to [`scan`](FactTable::scan) (every row —
    /// callers must re-filter). Publishes `storage.segments_skipped` /
    /// `storage.segments_scanned` counters.
    pub fn scan_range(&self, lo: u128, hi: u128) -> Result<Vec<FactRow>, StorageError> {
        let Some(packer) = KeyPacker::new(&self.schema) else {
            return self.scan();
        };
        let mut out = Vec::new();
        let (mut skipped, mut scanned) = (0u64, 0u64);
        let mut emit = |cat: &[Vec<u64>],
                        code: &[Vec<u64>],
                        ms: &[Vec<u64>],
                        org: &[u64],
                        len: usize|
         -> Result<(), StorageError> {
            let n_dims = self.schema.n_dims();
            for r in 0..len {
                let coords = (0..n_dims)
                    .map(|i| {
                        let cat = CatId::try_from_index(cat[i][r]).map_err(StorageError::Model)?;
                        Ok(DimValue::new(cat, code[i][r]))
                    })
                    .collect::<Result<Vec<DimValue>, StorageError>>()?;
                let k = packer.pack_coords(&coords);
                if k < lo || k > hi {
                    continue;
                }
                out.push(FactRow {
                    coords,
                    measures: (0..self.schema.n_measures())
                        .map(|j| ms[j][r] as i64)
                        .collect(),
                    origin: org[r] as u32,
                });
            }
            Ok(())
        };
        for s in &self.sealed {
            if let Some((zlo, zhi)) = s.zone {
                if zhi < lo || zlo > hi {
                    skipped += 1;
                    continue;
                }
            }
            scanned += 1;
            let cat: Vec<Vec<u64>> = s.cat.iter().map(ColumnEnc::decode).collect();
            let code: Vec<Vec<u64>> = s.code.iter().map(ColumnEnc::decode).collect();
            let ms: Vec<Vec<u64>> = s.measures.iter().map(ColumnEnc::decode).collect();
            let org = s.origin.decode();
            emit(&cat, &code, &ms, &org, s.len)?;
        }
        emit(
            &self.open.cat,
            &self.open.code,
            &self.open.measures,
            &self.open.origin,
            self.open.len,
        )?;
        if sdr_obs::enabled() {
            sdr_obs::add("storage.segments_skipped", skipped);
            sdr_obs::add("storage.segments_scanned", scanned);
        }
        Ok(out)
    }

    /// Storage statistics (raw vs. encoded bytes).
    pub fn stats(&self) -> TableStats {
        let rows = self.len();
        let row_bytes = self.schema.n_dims() * 9 + self.schema.n_measures() * 8 + 4;
        let raw_bytes = rows * row_bytes;
        let sealed_bytes: usize = self.sealed.iter().map(SealedSegment::encoded_bytes).sum();
        let open_bytes = self.open.len * row_bytes;
        TableStats {
            rows,
            raw_bytes,
            encoded_bytes: sealed_bytes + open_bytes,
        }
    }

    /// Builds a table from an MO (sealing all segments).
    pub fn from_mo(mo: &Mo, segment_rows: usize) -> Result<FactTable, StorageError> {
        let mut t = FactTable::with_segment_rows(Arc::clone(mo.schema()), segment_rows);
        for f in mo.facts() {
            t.append(&FactRow {
                coords: mo.coords(f),
                measures: mo.measures_of(f),
                origin: mo.store().origin[f.index()],
            })?;
        }
        t.seal();
        Ok(t)
    }

    /// Materializes the table back into an MO.
    pub fn to_mo(&self) -> Result<Mo, StorageError> {
        let mut mo = Mo::new(Arc::clone(&self.schema));
        for row in self.scan()? {
            mo.insert_fact_at(&row.coords, &row.measures, row.origin)
                .map_err(StorageError::Model)?;
        }
        Ok(mo)
    }

    /// Serializes the table (all segments sealed first) to a byte buffer
    /// in the current (format-2) layout.
    pub fn serialize(&mut self) -> Vec<u8> {
        let _span = sdr_obs::span("storage.serialize");
        self.seal();
        let mut buf = Vec::new();
        buf.put_u64_le(MAGIC_V2);
        buf.put_u32_le(self.schema.n_dims() as u32);
        buf.put_u32_le(self.schema.n_measures() as u32);
        buf.put_u32_le(self.sealed.len() as u32);
        for s in &self.sealed {
            buf.put_u64_le(s.len as u64);
            match s.zone {
                Some((lo, hi)) => {
                    buf.put_u8(1);
                    for k in [lo, hi] {
                        buf.put_u64_le(k as u64);
                        buf.put_u64_le((k >> 64) as u64);
                    }
                }
                None => buf.put_u8(0),
            }
            for c in s.cat.iter().chain(&s.code).chain(&s.measures) {
                c.write(&mut buf);
            }
            s.origin.write(&mut buf);
        }
        sdr_obs::add("storage.serialized_bytes", buf.len() as u64);
        buf
    }

    /// Serializes in the legacy format-1 layout (`SDRFACT1` magic,
    /// plain/RLE/delta columns only, no zone maps) — exactly what
    /// pre-format-2 builds wrote. Sealed columns are transcoded through
    /// the legacy encoder. Only the format-migration tests should need
    /// this.
    pub fn serialize_legacy(&mut self) -> Vec<u8> {
        self.seal();
        let mut buf = Vec::new();
        buf.put_u64_le(MAGIC_V1);
        buf.put_u32_le(self.schema.n_dims() as u32);
        buf.put_u32_le(self.schema.n_measures() as u32);
        buf.put_u32_le(self.sealed.len() as u32);
        for s in &self.sealed {
            buf.put_u64_le(s.len as u64);
            for c in s.cat.iter().chain(&s.code).chain(&s.measures) {
                ColumnEnc::encode_legacy(&c.decode()).write(&mut buf);
            }
            ColumnEnc::encode_legacy(&s.origin.decode()).write(&mut buf);
        }
        buf
    }

    /// Persists the table (all segments sealed) to a file, durably: the
    /// file is flushed and fsynced, and the parent directory entry is
    /// synced too, so the table survives a crash immediately after this
    /// call returns. I/O failures come back as [`StorageError::Io`] with
    /// the underlying [`std::io::Error`] (and its kind) intact.
    pub fn save_to(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), StorageError> {
        self.save_to_fs(&crate::fs::RealFs, path.as_ref())
    }

    /// [`FactTable::save_to`] through an explicit [`crate::fs::Fs`] —
    /// the hook the fault-injection harness uses.
    pub fn save_to_fs(
        &mut self,
        fs: &dyn crate::fs::Fs,
        path: &std::path::Path,
    ) -> Result<(), StorageError> {
        let bytes = self.serialize();
        fs.write(path, &bytes)?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs.sync_dir(parent)?;
            }
        }
        Ok(())
    }

    /// Opens a table previously written with [`FactTable::save_to`].
    pub fn load_from(
        schema: Arc<Schema>,
        path: impl AsRef<std::path::Path>,
    ) -> Result<FactTable, StorageError> {
        let bytes = std::fs::read(path)?;
        Self::deserialize(schema, bytes)
    }

    /// Deserializes a table previously produced by [`FactTable::serialize`]
    /// for the same schema. Category indices are *not* validated here —
    /// [`scan`](FactTable::scan)/[`to_mo`](FactTable::to_mo) reject
    /// out-of-range ones on materialization.
    pub fn deserialize(
        schema: Arc<Schema>,
        buf: impl AsRef<[u8]>,
    ) -> Result<FactTable, StorageError> {
        let mut buf = buf.as_ref();
        let bad = || StorageError::Corrupt("truncated or malformed table".into());
        if buf.len() < 20 {
            return Err(bad());
        }
        let magic = buf.get_u64_le();
        if magic != MAGIC_V1 && magic != MAGIC_V2 {
            return Err(StorageError::Corrupt("bad magic".into()));
        }
        let n_dims = buf.get_u32_le() as usize;
        let n_measures = buf.get_u32_le() as usize;
        if n_dims != schema.n_dims() || n_measures != schema.n_measures() {
            return Err(StorageError::SchemaMismatch);
        }
        let n_segments = buf.get_u32_le() as usize;
        let mut t = FactTable::new(schema);
        for _ in 0..n_segments {
            if buf.len() < 8 {
                return Err(bad());
            }
            let len = buf.get_u64_le() as usize;
            let zone = if magic == MAGIC_V2 {
                if buf.is_empty() {
                    return Err(bad());
                }
                match buf.get_u8() {
                    0 => None,
                    1 => {
                        if buf.len() < 32 {
                            return Err(bad());
                        }
                        let mut next = || {
                            let lo = buf.get_u64_le() as u128;
                            lo | ((buf.get_u64_le() as u128) << 64)
                        };
                        let (lo, hi) = (next(), next());
                        if lo > hi {
                            return Err(bad());
                        }
                        Some((lo, hi))
                    }
                    _ => return Err(bad()),
                }
            } else {
                None
            };
            let read_cols = |k: usize, buf: &mut &[u8]| -> Result<Vec<ColumnEnc>, StorageError> {
                (0..k)
                    .map(|_| ColumnEnc::read(buf).ok_or_else(bad))
                    .collect()
            };
            let cat = read_cols(n_dims, &mut buf)?;
            let code = read_cols(n_dims, &mut buf)?;
            let measures = read_cols(n_measures, &mut buf)?;
            let origin = ColumnEnc::read(&mut buf).ok_or_else(bad)?;
            t.sealed.push(SealedSegment {
                cat,
                code,
                measures,
                origin,
                zone,
                len,
            });
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_workload::paper_mo;

    #[test]
    fn v2_roundtrip_preserves_rows_and_zones() {
        let (mo, _) = paper_mo();
        let mut t = FactTable::from_mo(&mo, 4).unwrap();
        let rows = t.scan().unwrap();
        let packer = KeyPacker::new(mo.schema()).unwrap();
        for s in &t.sealed {
            let (lo, hi) = s.zone.expect("packable schema → zone maps");
            assert!(lo <= hi);
        }
        let bytes = t.serialize();
        let t2 = FactTable::deserialize(Arc::clone(mo.schema()), bytes).unwrap();
        assert_eq!(t2.scan().unwrap(), rows);
        for (a, b) in t.sealed.iter().zip(&t2.sealed) {
            assert_eq!(a.zone, b.zone, "zone maps round-trip");
        }
        // Every row's key is inside its segment's zone.
        for s in &t2.sealed {
            let (lo, hi) = s.zone.unwrap();
            let cat: Vec<Vec<u64>> = s.cat.iter().map(ColumnEnc::decode).collect();
            let code: Vec<Vec<u64>> = s.code.iter().map(ColumnEnc::decode).collect();
            for r in 0..s.len {
                let coords: Vec<DimValue> = (0..mo.schema().n_dims())
                    .map(|i| DimValue::new(CatId(cat[i][r] as u8), code[i][r]))
                    .collect();
                let k = packer.pack_coords(&coords);
                assert!(lo <= k && k <= hi);
            }
        }
    }

    #[test]
    fn legacy_format1_files_still_load() {
        let (mo, _) = paper_mo();
        let mut t = FactTable::from_mo(&mo, 4).unwrap();
        let rows = t.scan().unwrap();
        let legacy = t.serialize_legacy();
        // The legacy writer reproduces the old layout bit-for-bit at the
        // header: old magic, no zone bytes.
        assert_eq!(&legacy[..8], &MAGIC_V1.to_le_bytes());
        let t1 = FactTable::deserialize(Arc::clone(mo.schema()), legacy).unwrap();
        assert_eq!(t1.scan().unwrap(), rows);
        assert!(t1.sealed.iter().all(|s| s.zone.is_none()));
        // Re-serializing a legacy-loaded table upgrades it to format 2
        // and the rows survive unchanged.
        let mut t1 = t1;
        let upgraded = t1.serialize();
        assert_eq!(&upgraded[..8], &MAGIC_V2.to_le_bytes());
        let t2 = FactTable::deserialize(Arc::clone(mo.schema()), upgraded).unwrap();
        assert_eq!(t2.scan().unwrap(), rows);
    }

    #[test]
    fn scan_range_matches_filtered_full_scan_and_skips_segments() {
        let (mo, _) = paper_mo();
        let mut t = FactTable::from_mo(&mo, 2).unwrap();
        t.seal();
        assert!(t.sealed.len() >= 3, "small segments → several zones");
        let packer = KeyPacker::new(mo.schema()).unwrap();
        let mut keys: Vec<u128> = t
            .scan()
            .unwrap()
            .iter()
            .map(|r| packer.pack_coords(&r.coords))
            .collect();
        keys.sort_unstable();
        let (lo, hi) = (keys[keys.len() / 3], keys[2 * keys.len() / 3]);
        let want: Vec<FactRow> = t
            .scan()
            .unwrap()
            .into_iter()
            .filter(|r| {
                let k = packer.pack_coords(&r.coords);
                lo <= k && k <= hi
            })
            .collect();
        assert_eq!(t.scan_range(lo, hi).unwrap(), want);
        // A range outside every zone decodes nothing.
        assert_eq!(t.scan_range(u128::MAX - 1, u128::MAX).unwrap(), vec![]);
    }

    #[test]
    fn scan_rejects_category_index_beyond_u8() {
        let (mo, _) = paper_mo();
        let mut t = FactTable::from_mo(&mo, 4).unwrap();
        assert!(t.scan().is_ok());
        // The typed append path cannot produce an index above u8::MAX, so
        // model the corrupt/foreign-bytes case by widening a raw column:
        // exactly u8::MAX still scans, u8::MAX + 1 must refuse.
        let row = t.scan().unwrap().into_iter().next().unwrap();
        t.open.cat[0].push(u8::MAX as u64);
        t.open.code[0].push(row.coords[0].code);
        for d in 1..t.schema.n_dims() {
            t.open.cat[d].push(row.coords[d].cat.0 as u64);
            t.open.code[d].push(row.coords[d].code);
        }
        for (j, &m) in row.measures.iter().enumerate() {
            t.open.measures[j].push(m as u64);
        }
        t.open.origin.push(row.origin as u64);
        t.open.len += 1;
        let rows = t.scan().expect("u8::MAX is a representable index");
        assert_eq!(rows.last().unwrap().coords[0].cat, CatId(u8::MAX));
        // One past the boundary: the scan must error, not truncate.
        t.open.cat[0][0] = u8::MAX as u64 + 1;
        let err = t.scan().expect_err("index 256 must be rejected");
        assert!(matches!(err, StorageError::Model(_)), "{err:?}");
        assert!(err.to_string().contains("256"), "{err}");
        assert!(t.to_mo().is_err(), "to_mo refuses the same way");
    }
}
