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

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use std::sync::Arc;

use idf_engine::chunk::Chunk;
use idf_engine::column::{push_validity, Column, ColumnRef, PrimVec, StrVec};
use idf_engine::error::{EngineError, Result};
use idf_engine::expr::BinaryOp;
use idf_engine::schema::SchemaRef;
use idf_engine::types::{DataType, Value};

/// Encoder/decoder for one schema.
#[derive(Debug, Clone)]
pub struct RowLayout {
    schema: SchemaRef,
    null_bytes: usize,
    /// Whether the schema has no `Utf8` column, so every payload is
    /// exactly [`RowLayout::min_payload_len`] bytes.
    fixed_width: bool,
}

/// A payload that does not match the layout — truncated fixed section,
/// var-section pointer past the end, or invalid UTF-8. Decoding is the
/// untrusted half of the row format: a corrupt backward pointer can hand
/// us arbitrary committed bytes, and that must surface as a typed error,
/// never a slice panic that poisons the append mutex.
#[cold]
pub(crate) fn corrupt(what: &str) -> EngineError {
    EngineError::internal(format!("corrupt row payload: {what}"))
}

/// Checked fixed-width read of `W` bytes at `at`.
#[inline]
pub(crate) fn fixed<const W: usize>(payload: &[u8], at: usize) -> Result<[u8; W]> {
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
    #[allow(clippy::indexing_slicing)] // indexing a buffer encode just resized
    out[at..at + bytes.len()].copy_from_slice(bytes);
}

impl RowLayout {
    /// Layout for `schema`.
    pub fn new(schema: SchemaRef) -> Self {
        let null_bytes = schema.len().div_ceil(8);
        let fixed_width = schema.fields.iter().all(|f| f.data_type != DataType::Utf8);
        RowLayout {
            schema,
            null_bytes,
            fixed_width,
        }
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

    /// The length of every payload this layout encodes when the schema has
    /// no `Utf8` column (nothing then goes into the var section); `None`
    /// when payloads vary in length.
    pub fn fixed_width(&self) -> Option<usize> {
        self.fixed_width.then(|| self.var_start())
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
        #[allow(clippy::indexing_slicing)] // bitmap byte sized by the resize above
        for (col, v) in values.iter().enumerate() {
            if v.is_null() {
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

    /// Encode rows `rows` of `columns`, in that order, back to back onto
    /// `out`, pushing the offset in `out` where each payload ends onto
    /// `ends`. Each payload holds the bytes [`Self::encode`] writes for
    /// that row's values, written a column at a time straight from the
    /// typed vectors: the inverse of [`ColumnDecoder`].
    ///
    /// # Errors
    /// Fails when there are not as many columns as fields, or when a
    /// column of another type than its field holds a non-NULL value in
    /// `rows` — with the error [`Self::encode`] gives for the first such
    /// value. Nothing is written then.
    pub fn encode_rows(
        &self,
        columns: &[ColumnRef],
        rows: &[u32],
        out: &mut Vec<u8>,
        ends: &mut Vec<usize>,
    ) -> Result<()> {
        if columns.len() != self.schema.len() {
            return Err(EngineError::internal(format!(
                "row width {} vs schema width {}",
                columns.len(),
                self.schema.len()
            )));
        }
        // A column of another type fits only where it is NULL, which makes
        // it NULL in every row.
        let mut all_null = vec![false; columns.len()];
        for ((col, column), null) in columns.iter().enumerate().zip(&mut all_null) {
            let field = self.schema.field(col);
            if column.data_type() == field.data_type {
                continue;
            }
            if let Some(&r) = rows.iter().find(|&&r| column.is_valid(r as usize)) {
                return Err(EngineError::type_err(format!(
                    "value {:?} does not fit {} column '{}'",
                    column.value_at(r as usize),
                    field.data_type,
                    field.name
                )));
            }
            *null = true;
        }
        let strings: Vec<&StrVec> = columns
            .iter()
            .zip(&all_null)
            .filter_map(|(c, &null)| match c.as_ref() {
                Column::Utf8(v) if !null => Some(v),
                _ => None,
            })
            .collect();
        let mut starts = Vec::with_capacity(rows.len());
        let mut end = out.len();
        ends.reserve(rows.len());
        for &r in rows {
            starts.push(end);
            end += self.var_start();
            end += strings.iter().map(|v| str_at(v, r).len()).sum::<usize>();
            ends.push(end);
        }
        out.resize(end, 0);
        // Bytes each row's var section holds so far.
        let mut filled = vec![0u32; if strings.is_empty() { 0 } else { rows.len() }];
        for ((col, column), null) in columns.iter().enumerate().zip(all_null) {
            let at = self.column_at(col);
            if null {
                at.encode_nulls(out, &starts);
                continue;
            }
            match column.as_ref() {
                Column::Boolean(v) => at.encode_fixed(out, &starts, rows, v, |b| [u8::from(b)]),
                Column::Int32(v) => at.encode_fixed(out, &starts, rows, v, i32::to_le_bytes),
                Column::Int64(v) | Column::Timestamp(v) => {
                    at.encode_fixed(out, &starts, rows, v, i64::to_le_bytes)
                }
                Column::Float64(v) => at.encode_fixed(out, &starts, rows, v, f64::to_le_bytes),
                Column::Utf8(v) => at.encode_utf8(out, &starts, rows, v, &mut filled),
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

    /// Check that `payload` is what [`Self::encode`] writes for some row,
    /// so equal payloads hold equal rows: slots in bounds, a NULL slot
    /// zero, a Boolean or Int32 slot zero past its value, strings valid
    /// UTF-8 and back to back in column order, nothing after the last, no
    /// null bit past the last column.
    ///
    /// # Errors
    /// A typed `corrupt row payload` error.
    pub fn validate(&self, payload: &[u8]) -> Result<()> {
        let mut var = 0usize;
        for (col, field) in self.schema.fields.iter().enumerate() {
            let at = self.column_at(col);
            let word = u64::from_le_bytes(fixed(payload, at.slot)?);
            let canonical = match (at.is_null(payload)?, field.data_type) {
                (true, _) => word == 0,
                (false, DataType::Boolean) => word <= 1,
                (false, DataType::Int32) => word >> 32 == 0,
                (false, DataType::Utf8) => {
                    let in_place = word as u32 as usize == var;
                    var += at.utf8(payload)?.len();
                    in_place
                }
                (false, _) => true,
            };
            if !canonical {
                return Err(corrupt("slot holds bytes no row encodes to"));
            }
        }
        let used = self.schema.len() % 8;
        let spare = used > 0
            && payload
                .get(self.null_bytes - 1)
                .is_some_and(|b| b >> used != 0);
        if spare || payload.len() != self.var_start() + var {
            return Err(corrupt("bytes outside the row's columns"));
        }
        Ok(())
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

    /// Columns `cols` (each below the schema's width) of `payloads` as one
    /// chunk, a column at a time through [`ColumnDecoder`]. With no
    /// columns the chunk has no columns and `payloads.len()` rows.
    ///
    /// # Errors
    /// Fails when any payload does not match this layout.
    pub fn decode_chunk(&self, payloads: &[&[u8]], cols: &[usize]) -> Result<Chunk> {
        if cols.is_empty() {
            return Ok(Chunk::new_empty_columns(payloads.len()));
        }
        let columns = cols
            .iter()
            .map(|&c| Ok(Arc::new(self.decode_column_batch(payloads, c)?)))
            .collect::<Result<_>>()?;
        Chunk::new(columns)
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

    /// `column op value` as a predicate over encoded payloads, for an
    /// Int32, Int64 or Timestamp column (an Int32 slot compares widened, as
    /// `CAST(col AS BIGINT)` would) and a comparison `op`; `None` for any
    /// other column type or operator.
    pub fn slot_predicate(&self, col: usize, op: BinaryOp, value: i64) -> Option<SlotPredicate> {
        let width = match self.schema.fields.get(col)?.data_type {
            DataType::Int32 => SlotWidth::Four,
            DataType::Int64 | DataType::Timestamp => SlotWidth::Eight,
            _ => return None,
        };
        let op = match op {
            BinaryOp::Eq => CmpOp::Eq,
            BinaryOp::NotEq => CmpOp::NotEq,
            BinaryOp::Lt => CmpOp::Lt,
            BinaryOp::LtEq => CmpOp::LtEq,
            BinaryOp::Gt => CmpOp::Gt,
            BinaryOp::GtEq => CmpOp::GtEq,
            _ => return None,
        };
        Some(SlotPredicate {
            at: self.column_at(col),
            width,
            op,
            value,
        })
    }
}

/// How a kernel reaches the payloads it reads. Chain lookups and the
/// indexed join hand the kernels payload slices ([`Payloads`]); a scan
/// hands them the payload starts its header pass found in one batch's
/// bytes (`crate::batch::BatchRows`). Each predicate and column kernel has
/// one body, generic over this.
pub trait RowAccess<'a> {
    /// How one row is named: a payload slice, or a payload start.
    type Row: Copy;

    /// The bytes of `row`'s payload a slot read may touch: the null bitmap
    /// and the fixed section at least; `None` when the row cannot hold
    /// them. Kernels fold a miss into one typed error after their loop, so
    /// the loop itself has no early exit. A window of one length for every
    /// row lets the compiler prove each slot read in bounds once per loop.
    fn fixed_section(&self, row: Self::Row) -> Option<&'a [u8]>;

    /// `row`'s whole payload, for the var section.
    ///
    /// # Errors
    /// Fails when the row's framing does not hold it.
    fn payload(&self, row: Self::Row) -> Result<&'a [u8]>;
}

/// Rows named by their payload slices: each read is bounded by its own
/// payload.
#[derive(Debug, Clone, Copy)]
pub struct Payloads;

impl<'a> RowAccess<'a> for Payloads {
    type Row = &'a [u8];

    #[inline]
    fn fixed_section(&self, row: &'a [u8]) -> Option<&'a [u8]> {
        Some(row)
    }

    #[inline]
    fn payload(&self, row: &'a [u8]) -> Result<&'a [u8]> {
        Ok(row)
    }
}

#[derive(Debug, Clone, Copy)]
enum SlotWidth {
    Four,
    Eight,
}

#[derive(Debug, Clone, Copy)]
enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

/// A comparison of one fixed-width integer column against a constant,
/// evaluated on the encoded payloads themselves (see
/// [`RowLayout::slot_predicate`]). A NULL slot never passes, as a NULL
/// comparison outcome never passes a filter.
#[derive(Debug, Clone, Copy)]
pub struct SlotPredicate {
    at: ColumnAt,
    width: SlotWidth,
    op: CmpOp,
    value: i64,
}

impl SlotPredicate {
    /// Keep the rows of `rows` that pass, in order. Branch-free per row:
    /// every row is written back and the write position advances by its
    /// outcome, so a predicate that passes about half of randomly ordered
    /// rows costs no mispredictions.
    ///
    /// # Errors
    /// Fails when a payload is too short for its slot or null bitmap — a
    /// typed `corrupt row payload` error.
    pub fn retain<'a, A: RowAccess<'a>>(&self, access: &A, rows: &mut Vec<A::Row>) -> Result<()> {
        match self.width {
            SlotWidth::Four => self.retain_op(access, rows, |b| i64::from(i32::from_le_bytes(b))),
            SlotWidth::Eight => self.retain_op(access, rows, i64::from_le_bytes),
        }
    }

    /// [`Self::retain`] with the slot width fixed by `read`.
    #[inline]
    fn retain_op<'a, A: RowAccess<'a>, const W: usize>(
        &self,
        access: &A,
        rows: &mut Vec<A::Row>,
        read: impl Fn([u8; W]) -> i64,
    ) -> Result<()> {
        let c = self.value;
        match self.op {
            CmpOp::Eq => self.retain_by(access, rows, read, |v| v == c),
            CmpOp::NotEq => self.retain_by(access, rows, read, |v| v != c),
            CmpOp::Lt => self.retain_by(access, rows, read, |v| v < c),
            CmpOp::LtEq => self.retain_by(access, rows, read, |v| v <= c),
            CmpOp::Gt => self.retain_by(access, rows, read, |v| v > c),
            CmpOp::GtEq => self.retain_by(access, rows, read, |v| v >= c),
        }
    }

    /// The one predicate kernel: `read` widens the slot, `pass` compares.
    #[inline]
    fn retain_by<'a, A: RowAccess<'a>, const W: usize>(
        &self,
        access: &A,
        rows: &mut Vec<A::Row>,
        read: impl Fn([u8; W]) -> i64,
        pass: impl Fn(i64) -> bool,
    ) -> Result<()> {
        let at = self.at;
        let (mut kept, mut short) = (0usize, false);
        for i in 0..rows.len() {
            let Some(&row) = rows.get(i) else { break };
            let keep = match access.fixed_section(row).and_then(|f| at.read::<W>(f)) {
                Some((slot, null)) => pass(read(slot)) & !null,
                None => {
                    short = true;
                    false
                }
            };
            // `kept <= i`: the write lands on a row already read.
            if let Some(slot) = rows.get_mut(kept) {
                *slot = row;
            }
            kept += usize::from(keep);
        }
        if short {
            return Err(corrupt("fixed slot out of bounds"));
        }
        rows.truncate(kept);
        Ok(())
    }
}

/// The bytes of row `r` of `v`; none for a NULL.
#[inline]
fn str_at(v: &StrVec, r: u32) -> &[u8] {
    let r = r as usize;
    if v.is_valid(r) {
        v.bytes_at(r)
    } else {
        &[]
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
    /// The slot's `W` bytes and whether the column is NULL, from a row's
    /// fixed section (see [`RowAccess::fixed_section`]).
    #[inline]
    fn read<const W: usize>(&self, fixed: &[u8]) -> Option<([u8; W], bool)> {
        let slot = fixed.get(self.slot..self.slot + W)?.try_into().ok()?;
        let nulls = fixed.get(self.null_byte)?;
        Some((slot, nulls & self.null_mask != 0))
    }

    /// Mark this column NULL in the rows starting at `starts`.
    #[allow(clippy::indexing_slicing)] // rows `encode_rows` just sized
    fn encode_nulls(&self, out: &mut [u8], starts: &[usize]) {
        for &start in starts {
            out[start + self.null_byte] |= self.null_mask;
        }
    }

    /// Fixed-width encode kernel, the inverse of [`Self::extend_fixed`]:
    /// row `rows[i]` of `v` into the slot of the row starting at
    /// `starts[i]`, or its null bit.
    #[allow(clippy::indexing_slicing)] // rows `encode_rows` just sized
    fn encode_fixed<T: Copy + Default, const W: usize>(
        &self,
        out: &mut [u8],
        starts: &[usize],
        rows: &[u32],
        v: &PrimVec<T>,
        to: impl Fn(T) -> [u8; W],
    ) {
        for (&start, &r) in starts.iter().zip(rows) {
            let r = r as usize;
            if v.is_valid(r) {
                let slot = start + self.slot;
                out[slot..slot + W].copy_from_slice(&to(v.values[r]));
            } else {
                out[start + self.null_byte] |= self.null_mask;
            }
        }
    }

    /// String encode kernel: each value's bytes after what the row's var
    /// section holds (`filled`), and their offset and length in the slot.
    #[allow(clippy::indexing_slicing)] // rows `encode_rows` just sized
    fn encode_utf8(
        &self,
        out: &mut [u8],
        starts: &[usize],
        rows: &[u32],
        v: &StrVec,
        filled: &mut [u32],
    ) {
        for ((&start, &r), filled) in starts.iter().zip(rows).zip(filled) {
            if !v.is_valid(r as usize) {
                out[start + self.null_byte] |= self.null_mask;
                continue;
            }
            let bytes = str_at(v, r);
            let len = bytes.len() as u32;
            let var = start + self.var_start + *filled as usize;
            out[var..var + bytes.len()].copy_from_slice(bytes);
            let slot = start + self.slot;
            out[slot..slot + 4].copy_from_slice(&filled.to_le_bytes());
            out[slot + 4..slot + 8].copy_from_slice(&len.to_le_bytes());
            *filled += len;
        }
    }

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

    /// Fixed-width kernel: one checked slot read per row, written into
    /// values sized up front; a NULL row stores `T::default()` and
    /// (lazily) a cleared validity bit.
    #[inline]
    fn extend_fixed<'a, A: RowAccess<'a>, T: Copy + Default, const W: usize>(
        &self,
        v: &mut PrimVec<T>,
        access: &A,
        rows: &[A::Row],
        from: impl Fn([u8; W]) -> T,
    ) -> Result<()> {
        let at = *self;
        let PrimVec { values, validity } = v;
        let first = values.len();
        values.resize(first + rows.len(), T::default());
        let out = values.get_mut(first..).unwrap_or_default();
        let mut short = false;
        for (i, (value, &row)) in out.iter_mut().zip(rows).enumerate() {
            let Some((bytes, null)) = access.fixed_section(row).and_then(|f| at.read::<W>(f))
            else {
                short = true;
                continue;
            };
            push_validity(validity, first + i, !null);
            *value = if null { T::default() } else { from(bytes) };
        }
        if short {
            return Err(corrupt("fixed slot out of bounds"));
        }
        Ok(())
    }

    /// String kernel: copy every value's bytes, then validate the rows'
    /// bytes as UTF-8 once. A valid whole whose every value starts on a
    /// character boundary is valid value by value.
    fn extend_utf8<'a, A: RowAccess<'a>>(
        &self,
        v: &mut StrVec,
        access: &A,
        rows: &[A::Row],
    ) -> Result<()> {
        let first_row = v.len();
        let first_byte = v.bytes.len();
        v.offsets.reserve(rows.len());
        for &row in rows {
            let payload = access.payload(row)?;
            let null = self.is_null(payload)?;
            if !null {
                v.bytes.extend_from_slice(self.str_bytes(payload)?);
            }
            let n = v.len();
            push_validity(&mut v.validity, n, !null);
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

/// The one column kernel of the row format: decodes a column of many rows
/// in a typed loop, straight into the final vector — values into a
/// pre-sized `Vec<T>`, validity created on the first NULL. Scans feed it
/// the payload starts that survive their predicates, segment by segment;
/// chain lookups and the indexed join's output gather feed it payload
/// slices once per result.
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
        self.extend_rows(&Payloads, payloads)
    }

    /// Append this column's value of every row of `rows`, reached through
    /// `access`, in order.
    ///
    /// # Errors
    /// As [`Self::extend`].
    pub fn extend_rows<'a, A: RowAccess<'a>>(&mut self, access: &A, rows: &[A::Row]) -> Result<()> {
        let at = self.at;
        match &mut self.out {
            Column::Boolean(v) => at.extend_fixed(v, access, rows, |[b]: [u8; 1]| b != 0),
            Column::Int32(v) => at.extend_fixed(v, access, rows, i32::from_le_bytes),
            Column::Int64(v) | Column::Timestamp(v) => {
                at.extend_fixed(v, access, rows, i64::from_le_bytes)
            }
            Column::Float64(v) => at.extend_fixed(v, access, rows, f64::from_le_bytes),
            Column::Utf8(v) => at.extend_utf8(v, access, rows),
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
        l.validate(&buf).unwrap();
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

        // `validate` takes exactly the payloads `encode` writes.
        l.validate(&buf).unwrap();
        for bad in [&[][..], &buf[..3], &evil, &bad_utf8] {
            assert!(l.validate(bad).is_err());
        }
        // Bytes no row encodes to (column `c`'s slot starts at 1 + 8c).
        let edited = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = buf.clone();
            edit(&mut bad);
            bad
        };
        for (what, bad) in [
            ("a Boolean of 2", edited(&|b| b[25] = 2)),
            ("an Int32's upper half", edited(&|b| b[37] = 1)),
            ("a string out of place", edited(&|b| b[9] = 1)),
            ("a spare null bit", edited(&|b| b[0] |= 0x40)),
            ("a NULL slot not zero", edited(&|b| b[0] |= 1 << 2)),
            ("a byte after the last string", edited(&|b| b.push(0))),
        ] {
            assert!(l.validate(&bad).is_err(), "{what}");
        }
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
    fn encode_rows_writes_what_encode_writes() {
        let l = layout();
        let rows = vec![
            vec![
                Value::Int64(7),
                Value::Utf8("x".into()),
                Value::Float64(-0.0),
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
            vec![
                Value::Null,
                Value::Utf8(String::new()),
                Value::Float64(f64::NAN),
                Value::Null,
                Value::Int32(i32::MIN),
                Value::Null,
            ],
        ];
        let chunk = idf_engine::chunk::Chunk::from_rows(l.schema(), &rows).unwrap();
        let order = [2u32, 0, 3, 1, 2];
        let (mut out, mut ends) = (vec![0xAA], Vec::new());
        l.encode_rows(chunk.columns(), &order, &mut out, &mut ends)
            .unwrap();
        let (mut want, mut want_ends) = (vec![0xAA], Vec::new());
        for &r in &order {
            l.encode(&rows[r as usize], &mut want).unwrap();
            want_ends.push(want.len());
        }
        assert_eq!(out, want);
        assert_eq!(ends, want_ends);
    }

    #[test]
    fn encode_rows_takes_a_mistyped_column_only_when_null() {
        let l = layout();
        let row = vec![
            Value::Utf8("not an int".into()),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ];
        let nulls = vec![Value::Null; 6];
        let schema = Arc::new(Schema::new(
            std::iter::once(Field::new("id", DataType::Utf8))
                .chain(l.schema().fields[1..].iter().cloned())
                .collect(),
        ));
        let chunk =
            idf_engine::chunk::Chunk::from_rows(&schema, &[nulls.clone(), row.clone()]).unwrap();
        let (mut out, mut ends) = (Vec::new(), Vec::new());
        let err = l
            .encode_rows(chunk.columns(), &[0, 1], &mut out, &mut ends)
            .unwrap_err();
        let mut buf = Vec::new();
        assert_eq!(err, l.encode(&row, &mut buf).unwrap_err());
        assert!(out.is_empty() && ends.is_empty());
        // NULL in every row taken, the column fits as NULLs.
        l.encode_rows(chunk.columns(), &[0], &mut out, &mut ends)
            .unwrap();
        assert_eq!(l.decode_row(&out).unwrap(), nulls);
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
