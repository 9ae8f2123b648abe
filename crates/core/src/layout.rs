//! Binary row encoding — the analogue of Spark's `UnsafeRow`.
//!
//! Paper, §2: row batches are *"collections of binary, unsafe arrays"*. A
//! row payload is encoded as:
//!
//! ```text
//! | null bitmap: ceil(n/8) bytes | fixed section: 8 bytes per column | var section |
//! ```
//!
//! Fixed slots hold the value directly for primitives, or
//! `(var_offset: u32, byte_len: u32)` for strings, with the var section
//! appended after the fixed slots.

use idf_engine::column::{push_validity, Column, PrimVec, StrVec};
use idf_engine::error::{EngineError, Result};
use idf_engine::schema::SchemaRef;
use idf_engine::types::{DataType, Value};

/// Encoder/decoder for one schema.
#[derive(Debug, Clone)]
pub struct RowLayout {
    schema: SchemaRef,
    null_bytes: usize,
}

/// A payload that does not match the layout — truncated fixed section,
/// var-section pointer past the end, or invalid UTF-8. Decoding is the
/// untrusted half of the row format: a corrupt backward pointer can hand
/// us arbitrary committed bytes, and that must surface as a typed error,
/// never a slice panic that poisons the append mutex.
#[cold]
fn corrupt(what: &str) -> EngineError {
    EngineError::internal(format!("corrupt row payload: {what}"))
}

/// Checked fixed-width read of `W` bytes at `at`.
#[inline]
fn fixed<const W: usize>(payload: &[u8], at: usize) -> Result<[u8; W]> {
    at.checked_add(W)
        .and_then(|end| payload.get(at..end))
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| corrupt("fixed slot out of bounds"))
}

/// Write `bytes` into the fixed section at `at` during encoding. The
/// encoder just resized the buffer to cover the whole fixed section, so
/// a miss is a programmer error in the offset arithmetic.
#[inline]
fn put(out: &mut [u8], at: usize, bytes: &[u8]) {
    // idf-lint: allow(hot-path-panic) -- indexing a buffer encode just resized
    out[at..at + bytes.len()].copy_from_slice(bytes);
}

impl RowLayout {
    /// Layout for `schema`.
    pub fn new(schema: SchemaRef) -> Self {
        let null_bytes = schema.len().div_ceil(8);
        RowLayout { schema, null_bytes }
    }

    /// The row schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    #[inline]
    fn fixed_offset(&self, col: usize) -> usize {
        self.null_bytes + col * 8
    }

    #[inline]
    fn var_start(&self) -> usize {
        self.null_bytes + self.schema.len() * 8
    }

    /// Bytes of the smallest payload this layout encodes: the null bitmap
    /// plus the fixed section, with an empty var section.
    pub fn min_payload_len(&self) -> usize {
        self.var_start()
    }

    /// Encode one row (appending to `out`, which the caller clears).
    /// Values must match the schema's types (or be `Null`).
    pub fn encode(&self, values: &[Value], out: &mut Vec<u8>) -> Result<()> {
        if values.len() != self.schema.len() {
            return Err(EngineError::internal(format!(
                "row width {} vs schema width {}",
                values.len(),
                self.schema.len()
            )));
        }
        let base = out.len();
        out.resize(base + self.var_start(), 0);
        // The writes below index into the section the resize just sized:
        // a miss is a programmer error in the offset arithmetic, not
        // data-dependent, so plain indexing is in-contract here (the
        // decode half is where bytes are untrusted).
        for (col, v) in values.iter().enumerate() {
            if v.is_null() {
                // idf-lint: allow(hot-path-panic) -- bitmap byte sized by the resize above
                out[base + col / 8] |= 1 << (col % 8);
                continue;
            }
            let slot = base + self.fixed_offset(col);
            let dt = self.schema.field(col).data_type;
            match (dt, v) {
                (DataType::Boolean, Value::Boolean(b)) => put(out, slot, &[u8::from(*b)]),
                (DataType::Int32, Value::Int32(x)) => put(out, slot, &x.to_le_bytes()),
                (DataType::Int64, Value::Int64(x)) | (DataType::Timestamp, Value::Timestamp(x)) => {
                    put(out, slot, &x.to_le_bytes())
                }
                (DataType::Float64, Value::Float64(x)) => put(out, slot, &x.to_le_bytes()),
                (DataType::Utf8, Value::Utf8(s)) => {
                    let var_off = (out.len() - base - self.var_start()) as u32;
                    let len = s.len() as u32;
                    out.extend_from_slice(s.as_bytes());
                    put(out, slot, &var_off.to_le_bytes());
                    put(out, slot + 4, &len.to_le_bytes());
                }
                (dt, v) => {
                    return Err(EngineError::type_err(format!(
                        "value {v:?} does not fit {dt} column '{}'",
                        self.schema.field(col).name
                    )))
                }
            }
        }
        Ok(())
    }

    #[inline]
    fn column_at(&self, col: usize) -> ColumnAt {
        ColumnAt {
            null_byte: col / 8,
            null_mask: 1 << (col % 8),
            slot: self.fixed_offset(col),
            var_start: self.var_start(),
        }
    }

    /// Decode one column of an encoded payload.
    ///
    /// # Errors
    /// Fails when the payload does not match this layout (truncated,
    /// out-of-range var pointer, or invalid UTF-8) — a typed `corrupt row payload` error.
    pub fn decode_column(&self, payload: &[u8], col: usize) -> Result<Value> {
        let at = self.column_at(col);
        if at.is_null(payload)? {
            return Ok(Value::Null);
        }
        let slot = at.slot;
        Ok(match self.schema.field(col).data_type {
            DataType::Boolean => {
                let [b] = fixed::<1>(payload, slot)?;
                Value::Boolean(b != 0)
            }
            DataType::Int32 => Value::Int32(i32::from_le_bytes(fixed(payload, slot)?)),
            DataType::Int64 => Value::Int64(i64::from_le_bytes(fixed(payload, slot)?)),
            DataType::Timestamp => Value::Timestamp(i64::from_le_bytes(fixed(payload, slot)?)),
            DataType::Float64 => Value::Float64(f64::from_le_bytes(fixed(payload, slot)?)),
            DataType::Utf8 => Value::Utf8(at.utf8(payload)?.to_owned()),
        })
    }

    /// Decode an entire row.
    ///
    /// # Errors
    /// Fails when the payload does not match this layout.
    pub fn decode_row(&self, payload: &[u8]) -> Result<Vec<Value>> {
        (0..self.schema.len())
            .map(|c| self.decode_column(payload, c))
            .collect()
    }

    /// Decode one column across many payloads into a column vector.
    ///
    /// # Errors
    /// Fails when any payload does not match this layout.
    pub fn decode_column_batch(&self, payloads: &[&[u8]], col: usize) -> Result<Column> {
        let mut decoder = self.column_decoder(col, payloads.len());
        decoder.extend(payloads)?;
        Ok(decoder.finish())
    }

    /// A typed decoder for column `col`, pre-sized for `capacity` rows.
    pub fn column_decoder(&self, col: usize, capacity: usize) -> ColumnDecoder {
        let out = match self.schema.field(col).data_type {
            DataType::Boolean => Column::Boolean(prim_with_capacity(capacity)),
            DataType::Int32 => Column::Int32(prim_with_capacity(capacity)),
            DataType::Int64 => Column::Int64(prim_with_capacity(capacity)),
            DataType::Float64 => Column::Float64(prim_with_capacity(capacity)),
            DataType::Timestamp => Column::Timestamp(prim_with_capacity(capacity)),
            DataType::Utf8 => {
                let mut offsets = Vec::with_capacity(capacity + 1);
                offsets.push(0);
                Column::Utf8(StrVec {
                    offsets,
                    bytes: Vec::new(),
                    validity: None,
                })
            }
        };
        ColumnDecoder {
            at: self.column_at(col),
            out,
        }
    }
}

fn prim_with_capacity<T>(capacity: usize) -> PrimVec<T> {
    PrimVec {
        values: Vec::with_capacity(capacity),
        validity: None,
    }
}

/// Where one column lives inside every payload of a layout.
#[derive(Debug, Clone, Copy)]
struct ColumnAt {
    null_byte: usize,
    null_mask: u8,
    slot: usize,
    var_start: usize,
}

impl ColumnAt {
    #[inline]
    fn is_null(&self, payload: &[u8]) -> Result<bool> {
        let byte = payload
            .get(self.null_byte)
            .ok_or_else(|| corrupt("null bitmap truncated"))?;
        Ok(byte & self.null_mask != 0)
    }

    /// The bytes of this (non-NULL) string column in the var section.
    #[inline]
    fn str_bytes<'a>(&self, payload: &'a [u8]) -> Result<&'a [u8]> {
        let var_off = u32::from_le_bytes(fixed(payload, self.slot)?) as usize;
        let len = u32::from_le_bytes(fixed(payload, self.slot + 4)?) as usize;
        let start = self
            .var_start
            .checked_add(var_off)
            .ok_or_else(|| corrupt("var offset overflows"))?;
        let end = start
            .checked_add(len)
            .ok_or_else(|| corrupt("var length overflows"))?;
        payload
            .get(start..end)
            .ok_or_else(|| corrupt("var section out of bounds"))
    }

    #[inline]
    fn utf8<'a>(&self, payload: &'a [u8]) -> Result<&'a str> {
        std::str::from_utf8(self.str_bytes(payload)?)
            .map_err(|_| corrupt("string column is not valid utf8"))
    }

    /// Fixed-width kernel: one checked slot read per row; a NULL row
    /// stores `T::default()` and (lazily) a cleared validity bit.
    #[inline]
    fn extend_fixed<T: Copy + Default, const W: usize>(
        &self,
        v: &mut PrimVec<T>,
        payloads: &[&[u8]],
        from: impl Fn([u8; W]) -> T,
    ) -> Result<()> {
        v.values.reserve(payloads.len());
        for p in payloads {
            let bytes = fixed::<W>(p, self.slot)?;
            let null = self.is_null(p)?;
            push_validity(&mut v.validity, v.values.len(), !null);
            v.values.push(if null { T::default() } else { from(bytes) });
        }
        Ok(())
    }

    /// String kernel: copy every value's bytes, then validate the block's
    /// bytes as UTF-8 once. A valid whole whose every value starts on a
    /// character boundary is valid value by value.
    fn extend_utf8(&self, v: &mut StrVec, payloads: &[&[u8]]) -> Result<()> {
        let first_row = v.len();
        let first_byte = v.bytes.len();
        v.offsets.reserve(payloads.len());
        for p in payloads {
            let null = self.is_null(p)?;
            if !null {
                v.bytes.extend_from_slice(self.str_bytes(p)?);
            }
            let rows = v.len();
            push_validity(&mut v.validity, rows, !null);
            v.offsets.push(v.bytes.len() as u32);
        }
        let not_utf8 = || corrupt("string column is not valid utf8");
        let added = v.bytes.get(first_byte..).unwrap_or_default();
        let added = std::str::from_utf8(added).map_err(|_| not_utf8())?;
        let starts = v.offsets.get(first_row..).unwrap_or_default();
        if starts
            .iter()
            .all(|&o| added.is_char_boundary(o as usize - first_byte))
        {
            Ok(())
        } else {
            Err(not_utf8())
        }
    }
}

/// The one column kernel of the row format: decodes a column of many
/// payloads in a typed loop, straight into the final vector — values into
/// a pre-sized `Vec<T>`, validity created on the first NULL. Full scans
/// feed it block by block; chain lookups and the indexed join's output
/// gather feed it once per result.
#[derive(Debug)]
pub struct ColumnDecoder {
    at: ColumnAt,
    out: Column,
}

impl ColumnDecoder {
    /// Append this column's value of every payload, in order.
    ///
    /// # Errors
    /// Fails when a payload does not match the layout (truncated,
    /// out-of-range var pointer, or invalid UTF-8) — a typed
    /// `corrupt row payload` error.
    pub fn extend(&mut self, payloads: &[&[u8]]) -> Result<()> {
        let at = self.at;
        match &mut self.out {
            Column::Boolean(v) => at.extend_fixed(v, payloads, |[b]: [u8; 1]| b != 0),
            Column::Int32(v) => at.extend_fixed(v, payloads, i32::from_le_bytes),
            Column::Int64(v) | Column::Timestamp(v) => {
                at.extend_fixed(v, payloads, i64::from_le_bytes)
            }
            Column::Float64(v) => at.extend_fixed(v, payloads, f64::from_le_bytes),
            Column::Utf8(v) => at.extend_utf8(v, payloads),
        }
    }

    /// The decoded column.
    pub fn finish(self) -> Column {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idf_engine::schema::{Field, Schema};
    use std::sync::Arc;

    fn layout() -> RowLayout {
        RowLayout::new(Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("score", DataType::Float64),
            Field::new("active", DataType::Boolean),
            Field::new("small", DataType::Int32),
            Field::new("ts", DataType::Timestamp),
        ])))
    }

    fn roundtrip(values: Vec<Value>) {
        let l = layout();
        let mut buf = Vec::new();
        l.encode(&values, &mut buf).unwrap();
        assert_eq!(l.decode_row(&buf).unwrap(), values);
    }

    #[test]
    fn encodes_and_decodes_all_types() {
        roundtrip(vec![
            Value::Int64(42),
            Value::Utf8("hello world".into()),
            Value::Float64(2.5),
            Value::Boolean(true),
            Value::Int32(-7),
            Value::Timestamp(1_234_567),
        ]);
    }

    #[test]
    fn all_nulls() {
        roundtrip(vec![Value::Null; 6]);
    }

    #[test]
    fn empty_and_unicode_strings() {
        roundtrip(vec![
            Value::Int64(0),
            Value::Utf8("héllo→wörld".into()),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ]);
        roundtrip(vec![
            Value::Int64(0),
            Value::Utf8(String::new()),
            Value::Float64(0.0),
            Value::Boolean(false),
            Value::Int32(0),
            Value::Timestamp(0),
        ]);
    }

    #[test]
    fn corrupt_payloads_error_instead_of_panicking() {
        let l = layout();
        let mut buf = Vec::new();
        l.encode(
            &[
                Value::Int64(1),
                Value::Utf8("abc".into()),
                Value::Float64(0.5),
                Value::Boolean(true),
                Value::Int32(2),
                Value::Timestamp(3),
            ],
            &mut buf,
        )
        .unwrap();

        // Empty payload: even the null bitmap is missing.
        assert!(l.decode_row(&[]).is_err());
        // Truncated fixed section.
        assert!(l.decode_row(&buf[..3]).is_err());
        assert!(l.decode_column(&buf[..3], 0).is_err());
        // String length pointing past the var section (slot of column 1 is
        // null_bytes + 8 = 9; its len field sits at slot + 4).
        let mut evil = buf.clone();
        evil[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(l.decode_column(&evil, 1).is_err());
        assert!(l.decode_column_batch(&[&evil], 1).is_err());
        // Invalid UTF-8 in the var section.
        let mut bad_utf8 = buf.clone();
        let var = bad_utf8.len() - 3;
        bad_utf8[var] = 0xFF;
        assert!(l.decode_column(&bad_utf8, 1).is_err());
        // Other columns of a partly corrupt row still decode.
        assert_eq!(l.decode_column(&bad_utf8, 0).unwrap(), Value::Int64(1));
        assert!(l.decode_column_batch(&[&bad_utf8], 1).is_err());
        assert!(l.decode_column_batch(&[&buf[..3]], 0).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let l = layout();
        let mut buf = Vec::new();
        let mut row = vec![Value::Null; 6];
        row[0] = Value::Utf8("not an int".into());
        assert!(l.encode(&row, &mut buf).is_err());
    }

    #[test]
    fn width_mismatch_rejected() {
        let l = layout();
        let mut buf = Vec::new();
        assert!(l.encode(&[Value::Int64(1)], &mut buf).is_err());
    }

    #[test]
    fn column_decoder_matches_row_at_a_time_decode() {
        let l = layout();
        let rows = [
            vec![
                Value::Int64(7),
                Value::Utf8("x".into()),
                Value::Float64(1.0),
                Value::Boolean(false),
                Value::Int32(3),
                Value::Timestamp(9),
            ],
            vec![Value::Null; 6],
            vec![
                Value::Int64(-1),
                Value::Utf8("héllo→wörld".into()),
                Value::Null,
                Value::Boolean(true),
                Value::Null,
                Value::Timestamp(i64::MIN),
            ],
        ];
        let bufs: Vec<Vec<u8>> = rows
            .iter()
            .map(|r| {
                let mut b = Vec::new();
                l.encode(r, &mut b).unwrap();
                b
            })
            .collect();
        let payloads: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
        for col in 0..6 {
            // Fed whole and fed one block at a time, same column.
            let whole = l.decode_column_batch(&payloads, col).unwrap();
            let mut blocks = l.column_decoder(col, 0);
            for p in &payloads {
                blocks.extend(&[p]).unwrap();
            }
            assert_eq!(blocks.finish(), whole);
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(whole.value_at(i), row[col], "col {col} row {i}");
            }
        }
    }

    #[test]
    fn encode_appends_after_existing_bytes() {
        let l = layout();
        let mut buf = vec![0xAA, 0xBB];
        let row = vec![
            Value::Int64(1),
            Value::Utf8("abc".into()),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ];
        l.encode(&row, &mut buf).unwrap();
        assert_eq!(&buf[..2], &[0xAA, 0xBB]);
        assert_eq!(l.decode_row(&buf[2..]).unwrap(), row);
    }
}
