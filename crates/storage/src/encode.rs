//! Column encodings for sealed segments.
//!
//! Sealed (immutable) segments encode each column with the smallest of
//! plain, run-length, delta (zigzag-varint), frame-of-reference
//! bit-packed, or dictionary layout. Reduced warehouses are extremely
//! compression-friendly: after aggregation, coordinate columns contain
//! long runs (facts grouped by cell), category columns are near-constant
//! within a subcube, bounded-cardinality code columns bit-pack to
//! `ceil(log2(cardinality))` bits per row, and append-ordered time
//! columns are near-sorted — this is where a large share of the paper's
//! "huge storage gains" materializes physically.

/// Little-endian appends onto a byte vector: the write half of the
/// column and table codecs.
pub(crate) trait PutLe {
    fn put_u8(&mut self, v: u8);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
}

impl PutLe for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

/// A little-endian read cursor over a byte slice: every `get_*` consumes
/// from the front. Like the codecs' callers, it trusts a preceding
/// `len()` check and panics on a short slice.
pub(crate) trait GetLe<'a> {
    fn take(&mut self, n: usize) -> &'a [u8];
    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }
}

impl<'a> GetLe<'a> for &'a [u8] {
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.split_at(n);
        *self = rest;
        head
    }
}

/// An encoded `u64` column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnEnc {
    /// Plain fixed-width values.
    Plain(Vec<u64>),
    /// Run-length encoded `(value, run_length)` pairs.
    Rle(Vec<(u64, u32)>),
    /// Delta encoding: a base value plus zigzag-varint deltas. Near-sorted
    /// columns — time coordinates of append-ordered click streams — shrink
    /// to ~1 byte per row.
    Delta {
        /// First value of the column.
        base: u64,
        /// Zigzag-varint encoded successive deltas.
        deltas: Vec<u8>,
        /// Number of logical values (including the base).
        count: u64,
    },
    /// Frame-of-reference bit packing: values minus the column minimum,
    /// packed at `width = ceil(log2(max - min + 1))` bits per row.
    /// Bounded unsorted columns — dimension codes with a few thousand
    /// distinct values — drop from 8 bytes to ~1–2 bytes per row.
    BitPacked {
        /// The column minimum (the frame of reference).
        min: u64,
        /// Bits per value (0 when the column is constant).
        width: u8,
        /// Number of logical values.
        count: u64,
        /// LSB-first packed payload.
        words: Vec<u64>,
    },
    /// Dictionary encoding: the sorted distinct values plus bit-packed
    /// indices (`width = ceil(log2(n_distinct))`). The sorted dictionary
    /// keeps the encoding order-preserving — index order equals value
    /// order — which wide, shuffled, low-cardinality columns (biased
    /// packed time codes) need to beat frame-of-reference packing.
    Dict {
        /// Sorted distinct values.
        dict: Vec<u64>,
        /// Bits per index (0 when the dictionary has one entry).
        width: u8,
        /// Number of logical values.
        count: u64,
        /// LSB-first packed dictionary indices.
        words: Vec<u64>,
    },
}

/// Bits needed to represent `v` (0 for `v == 0`).
#[inline]
fn bits_for(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

/// Packs `values` at `width` bits each, LSB-first across little-endian
/// words. `width == 0` packs to nothing.
fn pack_bits(values: impl ExactSizeIterator<Item = u64>, width: u8) -> Vec<u64> {
    if width == 0 {
        return Vec::new();
    }
    let n = values.len();
    let total_bits = n as u128 * width as u128;
    let mut words = vec![0u64; total_bits.div_ceil(64) as usize];
    let mut bit = 0usize;
    for v in values {
        let (w, off) = (bit / 64, (bit % 64) as u32);
        words[w] |= v << off;
        if off + width as u32 > 64 {
            words[w + 1] |= v >> (64 - off);
        }
        bit += width as usize;
    }
    words
}

/// Reads the `i`-th `width`-bit value from an LSB-first packed payload.
#[inline]
fn unpack_bits(words: &[u64], width: u8, i: usize) -> u64 {
    if width == 0 {
        return 0;
    }
    let bit = i * width as usize;
    let (w, off) = (bit / 64, (bit % 64) as u32);
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut v = words[w] >> off;
    if off + width as u32 > 64 {
        v |= words[w + 1] << (64 - off);
    }
    v & mask
}

/// Expected word count for `count` values at `width` bits.
#[inline]
fn packed_words(count: u64, width: u8) -> usize {
    (count as u128 * width as u128).div_ceil(64) as usize
}

/// Zigzag-encodes a signed delta to an unsigned varint payload.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

impl ColumnEnc {
    /// Encodes a column, choosing the smallest of plain, RLE, delta,
    /// frame-of-reference bit-packed, and dictionary layouts.
    pub fn encode(values: &[u64]) -> ColumnEnc {
        Self::encode_impl(values, true)
    }

    /// Encodes with the format-1 repertoire only (plain, RLE, delta) —
    /// what sealed segments used before the `SDRFACT2` table format.
    /// Retained so tests can fabricate legacy files that old readers
    /// would have produced.
    pub fn encode_legacy(values: &[u64]) -> ColumnEnc {
        Self::encode_impl(values, false)
    }

    fn encode_impl(values: &[u64], packed: bool) -> ColumnEnc {
        let plain_bytes = values.len() * 8;
        // Candidate 1: RLE.
        let mut runs: Vec<(u64, u32)> = Vec::new();
        for &v in values {
            match runs.last_mut() {
                Some((rv, n)) if *rv == v && *n < u32::MAX => *n += 1,
                _ => runs.push((v, 1)),
            }
        }
        let rle_bytes = runs.len() * 12;
        // Candidate 2: delta (only meaningful with ≥ 2 values).
        let delta = if values.len() >= 2 {
            let base = values[0];
            let mut deltas = Vec::with_capacity(values.len());
            for w in values.windows(2) {
                put_varint(&mut deltas, zigzag((w[1] as i64).wrapping_sub(w[0] as i64)));
            }
            Some(ColumnEnc::Delta {
                base,
                count: values.len() as u64,
                deltas,
            })
        } else {
            None
        };
        let delta_bytes = delta
            .as_ref()
            .map(|d| d.encoded_bytes())
            .unwrap_or(usize::MAX);
        // Candidates 3 and 4: frame-of-reference bit packing and the
        // sorted dictionary (format ≥ 2 segments only).
        let (mut bp, mut dict) = (None, None);
        if packed && !values.is_empty() {
            let (mut lo, mut hi) = (u64::MAX, 0u64);
            for &v in values {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let width = bits_for(hi - lo);
            bp = Some(ColumnEnc::BitPacked {
                min: lo,
                width,
                count: values.len() as u64,
                words: pack_bits(values.iter().map(|&v| v - lo), width),
            });
            let mut index = std::collections::BTreeMap::new();
            for &v in values {
                let next = index.len() as u64;
                index.entry(v).or_insert(next);
                if index.len() > (1 << 16) {
                    break;
                }
            }
            if index.len() <= (1 << 16) {
                // BTreeMap insertion order is value order only for sorted
                // input; re-rank so indices are order-preserving.
                for (rank, (_, slot)) in index.iter_mut().enumerate() {
                    *slot = rank as u64;
                }
                let width = bits_for(index.len() as u64 - 1);
                dict = Some(ColumnEnc::Dict {
                    width,
                    count: values.len() as u64,
                    words: pack_bits(values.iter().map(|v| index[v]), width),
                    dict: index.into_keys().collect(),
                });
            }
        }
        let bp_bytes = bp.as_ref().map(|e| e.encoded_bytes()).unwrap_or(usize::MAX);
        let dict_bytes = dict
            .as_ref()
            .map(|e| e.encoded_bytes())
            .unwrap_or(usize::MAX);
        let best = plain_bytes
            .min(rle_bytes)
            .min(delta_bytes)
            .min(bp_bytes)
            .min(dict_bytes);
        if best == delta_bytes {
            delta.expect("delta computed")
        } else if best == rle_bytes {
            ColumnEnc::Rle(runs)
        } else if best == bp_bytes {
            bp.expect("bit-packed computed")
        } else if best == dict_bytes {
            dict.expect("dictionary computed")
        } else {
            ColumnEnc::Plain(values.to_vec())
        }
    }

    /// Number of logical values.
    pub fn len(&self) -> usize {
        match self {
            ColumnEnc::Plain(v) => v.len(),
            ColumnEnc::Rle(r) => r.iter().map(|(_, n)| *n as usize).sum(),
            ColumnEnc::Delta { count, .. } => *count as usize,
            ColumnEnc::BitPacked { count, .. } => *count as usize,
            ColumnEnc::Dict { count, .. } => *count as usize,
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encoded size in bytes (payload only).
    pub fn encoded_bytes(&self) -> usize {
        match self {
            ColumnEnc::Plain(v) => v.len() * 8,
            ColumnEnc::Rle(r) => r.len() * 12,
            ColumnEnc::Delta { deltas, .. } => 16 + deltas.len(),
            ColumnEnc::BitPacked { words, .. } => 9 + words.len() * 8,
            ColumnEnc::Dict { dict, words, .. } => 9 + (dict.len() + words.len()) * 8,
        }
    }

    /// Decodes back to plain values.
    pub fn decode(&self) -> Vec<u64> {
        match self {
            ColumnEnc::Plain(v) => v.clone(),
            ColumnEnc::Rle(r) => {
                let mut out = Vec::with_capacity(self.len());
                for &(v, n) in r {
                    out.extend(std::iter::repeat_n(v, n as usize));
                }
                out
            }
            ColumnEnc::Delta {
                base,
                deltas,
                count,
            } => {
                let mut out = Vec::with_capacity(*count as usize);
                let mut cur = *base;
                out.push(cur);
                let mut pos = 0usize;
                for _ in 1..*count {
                    let d = get_varint(deltas, &mut pos).expect("well-formed deltas");
                    cur = (cur as i64).wrapping_add(unzigzag(d)) as u64;
                    out.push(cur);
                }
                out
            }
            ColumnEnc::BitPacked {
                min,
                width,
                count,
                words,
            } => (0..*count as usize)
                .map(|i| min.wrapping_add(unpack_bits(words, *width, i)))
                .collect(),
            ColumnEnc::Dict {
                dict,
                width,
                count,
                words,
            } => (0..*count as usize)
                .map(|i| dict[unpack_bits(words, *width, i) as usize])
                .collect(),
        }
    }

    /// Serializes the column into `buf` (tag + length + payload).
    pub fn write(&self, buf: &mut Vec<u8>) {
        match self {
            ColumnEnc::Plain(v) => {
                buf.put_u8(0);
                buf.put_u64_le(v.len() as u64);
                for &x in v {
                    buf.put_u64_le(x);
                }
            }
            ColumnEnc::Rle(r) => {
                buf.put_u8(1);
                buf.put_u64_le(r.len() as u64);
                for &(v, n) in r {
                    buf.put_u64_le(v);
                    buf.put_u32_le(n);
                }
            }
            ColumnEnc::Delta {
                base,
                deltas,
                count,
            } => {
                buf.put_u8(2);
                buf.put_u64_le(*count);
                buf.put_u64_le(*base);
                buf.put_u64_le(deltas.len() as u64);
                buf.extend_from_slice(deltas);
            }
            ColumnEnc::BitPacked {
                min,
                width,
                count,
                words,
            } => {
                buf.put_u8(3);
                buf.put_u64_le(*count);
                buf.put_u64_le(*min);
                buf.put_u8(*width);
                for &w in words {
                    buf.put_u64_le(w);
                }
            }
            ColumnEnc::Dict {
                dict,
                width,
                count,
                words,
            } => {
                buf.put_u8(4);
                buf.put_u64_le(*count);
                buf.put_u64_le(dict.len() as u64);
                buf.put_u8(*width);
                for &v in dict {
                    buf.put_u64_le(v);
                }
                for &w in words {
                    buf.put_u64_le(w);
                }
            }
        }
    }

    /// Deserializes a column previously written with [`ColumnEnc::write`].
    ///
    /// Returns `None` on malformed input.
    pub fn read(buf: &mut &[u8]) -> Option<ColumnEnc> {
        if buf.len() < 9 {
            return None;
        }
        let tag = buf.get_u8();
        let n = buf.get_u64_le() as usize;
        match tag {
            0 => {
                if buf.len() < n * 8 {
                    return None;
                }
                Some(ColumnEnc::Plain((0..n).map(|_| buf.get_u64_le()).collect()))
            }
            1 => {
                if buf.len() < n * 12 {
                    return None;
                }
                Some(ColumnEnc::Rle(
                    (0..n)
                        .map(|_| (buf.get_u64_le(), buf.get_u32_le()))
                        .collect(),
                ))
            }
            2 => {
                if buf.len() < 16 {
                    return None;
                }
                let base = buf.get_u64_le();
                let dlen = buf.get_u64_le() as usize;
                if buf.len() < dlen {
                    return None;
                }
                let deltas = buf.take(dlen).to_vec();
                // Validate the payload decodes to exactly count-1 deltas.
                let mut pos = 0usize;
                for _ in 1..n {
                    get_varint(&deltas, &mut pos)?;
                }
                if pos != deltas.len() {
                    return None;
                }
                Some(ColumnEnc::Delta {
                    base,
                    deltas,
                    count: n as u64,
                })
            }
            3 => {
                if buf.len() < 9 {
                    return None;
                }
                let min = buf.get_u64_le();
                let width = buf.get_u8();
                if width > 64 {
                    return None;
                }
                let n_words = packed_words(n as u64, width);
                if buf.len() < n_words.checked_mul(8)? {
                    return None;
                }
                let words: Vec<u64> = (0..n_words).map(|_| buf.get_u64_le()).collect();
                Some(ColumnEnc::BitPacked {
                    min,
                    width,
                    count: n as u64,
                    words,
                })
            }
            4 => {
                if buf.len() < 9 {
                    return None;
                }
                let dict_len = buf.get_u64_le() as usize;
                let width = buf.get_u8();
                if width > 64 {
                    return None;
                }
                let n_words = packed_words(n as u64, width);
                let need = dict_len
                    .checked_add(n_words)
                    .and_then(|t| t.checked_mul(8))?;
                if buf.len() < need {
                    return None;
                }
                let dict: Vec<u64> = (0..dict_len).map(|_| buf.get_u64_le()).collect();
                let words: Vec<u64> = (0..n_words).map(|_| buf.get_u64_le()).collect();
                // Every packed index must address the dictionary; a
                // truncated or forged payload fails here instead of
                // panicking during a later decode.
                for i in 0..n {
                    if unpack_bits(&words, width, i) as usize >= dict_len {
                        return None;
                    }
                }
                Some(ColumnEnc::Dict {
                    dict,
                    width,
                    count: n as u64,
                    words,
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_wins_on_runs() {
        let col: Vec<u64> = std::iter::repeat_n(7u64, 1000)
            .chain(std::iter::repeat_n(9u64, 500))
            .collect();
        let e = ColumnEnc::encode(&col);
        assert!(matches!(e, ColumnEnc::Rle(_)));
        assert_eq!(e.encoded_bytes(), 24);
        assert_eq!(e.decode(), col);
        assert_eq!(e.len(), 1500);
    }

    #[test]
    fn delta_wins_on_sorted() {
        let col: Vec<u64> = (0..1000u64).map(|i| i * 3).collect();
        let e = ColumnEnc::encode(&col);
        assert!(matches!(e, ColumnEnc::Delta { .. }), "{e:?}");
        // ~1 byte per row instead of 8.
        assert!(e.encoded_bytes() < 1100, "{}", e.encoded_bytes());
        assert_eq!(e.decode(), col);
    }

    #[test]
    fn plain_wins_on_noise() {
        // Wide pseudo-random values: every delta needs ≥ 9 varint bytes,
        // so plain fixed-width is the smallest.
        let col: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let e = ColumnEnc::encode(&col);
        assert!(matches!(e, ColumnEnc::Plain(_)), "{e:?}");
        assert_eq!(e.encoded_bytes(), 8000);
        assert_eq!(e.decode(), col);
    }

    #[test]
    fn delta_handles_negative_steps_and_extremes() {
        let col = vec![100u64, 50, 75, 0, u64::MAX / 4, 3];
        let e = ColumnEnc::encode(&col);
        assert_eq!(e.decode(), col);
        // Zigzag varints roundtrip through serialization too.
        let mut buf = Vec::new();
        e.write(&mut buf);
        let mut b = &buf[..];
        assert_eq!(ColumnEnc::read(&mut b).unwrap().decode(), col);
    }

    #[test]
    fn serialization_roundtrip() {
        for col in [
            vec![],
            vec![42u64],
            std::iter::repeat_n(7u64, 100).collect::<Vec<_>>(),
            (0..100u64).collect::<Vec<_>>(),
        ] {
            let e = ColumnEnc::encode(&col);
            let mut buf = Vec::new();
            e.write(&mut buf);
            let mut b = &buf[..];
            let d = ColumnEnc::read(&mut b).unwrap();
            assert_eq!(d.decode(), col);
        }
    }

    #[test]
    fn bitpacked_wins_on_bounded_noise() {
        // Shuffled codes in [0, 1000): plain is 8 B/row, delta ~2 B/row,
        // frame-of-reference packing 10 bits/row.
        let col: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1000)
            .collect();
        let e = ColumnEnc::encode(&col);
        assert!(matches!(e, ColumnEnc::BitPacked { width: 10, .. }), "{e:?}");
        assert!(e.encoded_bytes() < 1300, "{}", e.encoded_bytes());
        assert_eq!(e.decode(), col);
        assert_eq!(e.len(), 1000);
        // The legacy repertoire must not produce the new tags.
        let legacy = ColumnEnc::encode_legacy(&col);
        assert!(
            !matches!(legacy, ColumnEnc::BitPacked { .. } | ColumnEnc::Dict { .. }),
            "{legacy:?}"
        );
        assert_eq!(legacy.decode(), col);
    }

    #[test]
    fn dict_wins_on_wide_low_cardinality() {
        // 36 distinct wide values (biased month codes), shuffled: the
        // sorted dictionary packs each row to 6 bits.
        let months: Vec<u64> = (0..36u64).map(|m| (1u64 << 40) + m * 31).collect();
        let col: Vec<u64> = (0..1000u64)
            .map(|i| months[(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 36) as usize])
            .collect();
        let e = ColumnEnc::encode(&col);
        let ColumnEnc::Dict {
            ref dict, width, ..
        } = e
        else {
            panic!("{e:?}")
        };
        assert_eq!(width, 6);
        assert!(dict.windows(2).all(|w| w[0] < w[1]), "dictionary sorted");
        assert!(e.encoded_bytes() < 1100, "{}", e.encoded_bytes());
        assert_eq!(e.decode(), col);
    }

    #[test]
    fn packed_encodings_roundtrip_serialization() {
        let cases: Vec<ColumnEnc> = vec![
            ColumnEnc::encode(&(0..257u64).map(|i| i * 7 % 131).collect::<Vec<_>>()),
            ColumnEnc::encode(&[5u64; 1]),
            ColumnEnc::BitPacked {
                min: 3,
                width: 64,
                count: 3,
                words: vec![u64::MAX - 3, 7, 0],
            },
            ColumnEnc::Dict {
                dict: vec![10, 20, 30],
                width: 2,
                count: 5,
                words: vec![0b10_01_00_01_10],
            },
        ];
        for e in cases {
            let col = e.decode();
            let mut buf = Vec::new();
            e.write(&mut buf);
            let mut b = &buf[..];
            let d = ColumnEnc::read(&mut b).unwrap();
            assert_eq!(d, e);
            assert_eq!(d.decode(), col);
            assert_eq!(b.len(), 0, "reader consumed the column exactly");
        }
    }

    #[test]
    fn read_rejects_out_of_range_dict_index() {
        let e = ColumnEnc::Dict {
            dict: vec![10, 20],
            width: 2,
            count: 4,
            // Index 3 is out of range for a 2-entry dictionary.
            words: vec![0b11_01_00_01],
        };
        let mut buf = Vec::new();
        e.write(&mut buf);
        let mut b = &buf[..];
        assert!(ColumnEnc::read(&mut b).is_none());
    }

    #[test]
    fn packed_truncation_rejected() {
        for col in [
            (0..100u64).map(|i| i % 9).collect::<Vec<_>>(),
            (0..100u64)
                .map(|i| (1 << 50) + i % 4 * 1000)
                .collect::<Vec<_>>(),
        ] {
            let e = ColumnEnc::encode(&col);
            assert!(
                matches!(e, ColumnEnc::BitPacked { .. } | ColumnEnc::Dict { .. }),
                "{e:?}"
            );
            let mut buf = Vec::new();
            e.write(&mut buf);
            let full = &buf[..];
            let mut truncated = &full[..full.len() - 5];
            assert!(ColumnEnc::read(&mut truncated).is_none());
        }
    }

    #[test]
    fn read_rejects_truncation() {
        let e = ColumnEnc::encode(&(0..100u64).collect::<Vec<_>>());
        let mut buf = Vec::new();
        e.write(&mut buf);
        let full = &buf[..];
        let mut truncated = &full[..full.len() - 4];
        assert!(ColumnEnc::read(&mut truncated).is_none());
        let mut empty: &[u8] = &[];
        assert!(ColumnEnc::read(&mut empty).is_none());
    }
}
