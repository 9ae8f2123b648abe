//! Columnar vectors — the engine's cached, in-memory representation.
//!
//! Vanilla Spark caches DataFrames in a columnar format; this module is the
//! analogue. The Indexed DataFrame instead caches *row batches* (see
//! `idf-core`), which is why the paper's Figure 2 shows projection being
//! slower on the indexed representation: a columnar cache touches only the
//! projected columns, a row cache must walk whole rows.

use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::error::{EngineError, Result};
use crate::types::{DataType, Value};

/// A typed column of values with optional validity (null) bitmap.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Booleans.
    Boolean(PrimVec<bool>),
    /// 32-bit integers.
    Int32(PrimVec<i32>),
    /// 64-bit integers.
    Int64(PrimVec<i64>),
    /// 64-bit floats.
    Float64(PrimVec<f64>),
    /// UTF-8 strings (offsets + byte buffer).
    Utf8(StrVec),
    /// Timestamps (millis since epoch).
    Timestamp(PrimVec<i64>),
}

/// Shared column handle.
pub type ColumnRef = Arc<Column>;

/// Fixed-width values plus optional validity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PrimVec<T> {
    /// The values; invalid slots hold an unspecified value.
    pub values: Vec<T>,
    /// Valid (non-null) bits; `None` means all valid.
    pub validity: Option<Bitmap>,
}

impl<T: Copy + Default> PrimVec<T> {
    /// All-valid vector.
    pub fn from_values(values: Vec<T>) -> Self {
        PrimVec {
            values,
            validity: None,
        }
    }

    /// Vector from optional values.
    pub fn from_options(values: Vec<Option<T>>) -> Self {
        values.into_iter().collect()
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether slot `i` is valid (non-null).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|b| b.get(i))
    }

    /// Value at `i`, or `None` when null.
    #[inline]
    pub fn get(&self, i: usize) -> Option<T> {
        if self.is_valid(i) {
            Some(self.values[i])
        } else {
            None
        }
    }

    fn take(&self, indices: &[u32]) -> Self {
        let values = indices.iter().map(|&i| self.values[i as usize]).collect();
        let validity = self.validity.as_ref().map(|b| b.take(indices));
        PrimVec { values, validity }
    }

    fn concat(parts: &[&Self]) -> Self {
        let mut values = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            values.extend_from_slice(&p.values);
        }
        let validity = concat_validity(parts.iter().map(|p| (p.validity.as_ref(), p.len())));
        PrimVec { values, validity }
    }
}

/// The validity of vectors laid end to end, each given as its bitmap (if
/// any) and length; `None` when none of them has a null.
fn concat_validity<'a>(
    parts: impl Iterator<Item = (Option<&'a Bitmap>, usize)> + Clone,
) -> Option<Bitmap> {
    if parts.clone().all(|(validity, _)| validity.is_none()) {
        return None;
    }
    Some(
        parts
            .flat_map(|(validity, len)| (0..len).map(move |i| validity.is_none_or(|b| b.get(i))))
            .collect(),
    )
}

/// Record whether the row about to become row `rows` of a vector is
/// valid. The bitmap is created (all valid so far) by the first null, so
/// vectors without nulls never carry one.
#[inline]
pub fn push_validity(validity: &mut Option<Bitmap>, rows: usize, valid: bool) {
    if !valid || validity.is_some() {
        validity
            .get_or_insert_with(|| Bitmap::ones(rows))
            .push(valid);
    }
}

/// Collects values straight into the vector, `None` as a null slot; the
/// validity bitmap appears with the first null.
impl<T: Copy + Default> FromIterator<Option<T>> for PrimVec<T> {
    fn from_iter<I: IntoIterator<Item = Option<T>>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut values = Vec::with_capacity(iter.size_hint().0);
        let mut validity: Option<Bitmap> = None;
        for v in iter {
            push_validity(&mut validity, values.len(), v.is_some());
            values.push(v.unwrap_or_default());
        }
        PrimVec { values, validity }
    }
}

/// Strings stored as a contiguous byte buffer plus offsets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StrVec {
    /// `offsets.len() == len + 1`; string `i` is `bytes[offsets[i]..offsets[i+1]]`.
    pub offsets: Vec<u32>,
    /// Concatenated UTF-8 bytes.
    pub bytes: Vec<u8>,
    /// Valid (non-null) bits; `None` means all valid.
    pub validity: Option<Bitmap>,
}

impl StrVec {
    /// Empty string vector.
    pub fn new() -> Self {
        StrVec {
            offsets: vec![0],
            bytes: Vec::new(),
            validity: None,
        }
    }

    /// Build from string slices.
    pub fn from_strs<S: AsRef<str>>(values: &[S]) -> Self {
        let mut v = StrVec::new();
        for s in values {
            v.push(Some(s.as_ref()));
        }
        v
    }

    /// Build from optional string slices.
    pub fn from_options<S: AsRef<str>>(values: &[Option<S>]) -> Self {
        let mut v = StrVec::new();
        for s in values {
            v.push(s.as_ref().map(|s| s.as_ref()));
        }
        v
    }

    /// Append a value (null when `None`).
    pub fn push(&mut self, value: Option<&str>) {
        let rows = self.len();
        push_validity(&mut self.validity, rows, value.is_some());
        if let Some(s) = value {
            self.bytes.extend_from_slice(s.as_bytes());
        }
        self.offsets.push(self.bytes.len() as u32);
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether slot `i` is valid (non-null).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|b| b.get(i))
    }

    /// String at `i`, or `None` when null.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&str> {
        if !self.is_valid(i) {
            return None;
        }
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        // SAFETY-FREE: bytes were appended from &str, always valid UTF-8.
        Some(std::str::from_utf8(&self.bytes[start..end]).expect("column holds valid utf8"))
    }

    /// The bytes of slot `i` (empty for a NULL slot).
    ///
    /// # Panics
    /// When `i` is out of range, as [`StrVec::get`] does.
    #[inline]
    pub fn bytes_at(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Gather the slots at `indices`, copying each value's bytes as they
    /// are: they came from a `StrVec`, so they are valid UTF-8 already.
    fn take(&self, indices: &[u32]) -> Self {
        let mut offsets = Vec::with_capacity(indices.len() + 1);
        offsets.push(0);
        let mut bytes = Vec::new();
        let mut validity = None;
        for (row, &i) in indices.iter().enumerate() {
            let i = i as usize;
            let valid = self.is_valid(i);
            push_validity(&mut validity, row, valid);
            if valid {
                bytes.extend_from_slice(self.bytes_at(i));
            }
            offsets.push(bytes.len() as u32);
        }
        StrVec {
            offsets,
            bytes,
            validity,
        }
    }

    fn concat(parts: &[&Self]) -> Self {
        let mut offsets = Vec::with_capacity(1 + parts.iter().map(|p| p.len()).sum::<usize>());
        let mut bytes = Vec::with_capacity(parts.iter().map(|p| p.bytes.len()).sum());
        offsets.push(0);
        for p in parts {
            let base = bytes.len() as u32;
            offsets.extend(p.offsets[1..].iter().map(|&o| base + o));
            bytes.extend_from_slice(&p.bytes);
        }
        let validity = concat_validity(parts.iter().map(|p| (p.validity.as_ref(), p.len())));
        StrVec {
            offsets,
            bytes,
            validity,
        }
    }
}

impl Column {
    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Boolean(_) => DataType::Boolean,
            Column::Int32(_) => DataType::Int32,
            Column::Int64(_) => DataType::Int64,
            Column::Float64(_) => DataType::Float64,
            Column::Utf8(_) => DataType::Utf8,
            Column::Timestamp(_) => DataType::Timestamp,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Boolean(v) => v.len(),
            Column::Int32(v) => v.len(),
            Column::Int64(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Utf8(v) => v.len(),
            Column::Timestamp(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The validity bitmap; `None` means every row is valid.
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Column::Boolean(v) => v.validity.as_ref(),
            Column::Int32(v) => v.validity.as_ref(),
            Column::Int64(v) | Column::Timestamp(v) => v.validity.as_ref(),
            Column::Float64(v) => v.validity.as_ref(),
            Column::Utf8(v) => v.validity.as_ref(),
        }
    }

    /// Whether row `i` is valid (non-null).
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity().is_none_or(|b| b.get(i))
    }

    /// The value at row `i` as a scalar.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Boolean(v) => v.get(i).map_or(Value::Null, Value::Boolean),
            Column::Int32(v) => v.get(i).map_or(Value::Null, Value::Int32),
            Column::Int64(v) => v.get(i).map_or(Value::Null, Value::Int64),
            Column::Float64(v) => v.get(i).map_or(Value::Null, Value::Float64),
            Column::Utf8(v) => v.get(i).map_or(Value::Null, |s| Value::Utf8(s.to_owned())),
            Column::Timestamp(v) => v.get(i).map_or(Value::Null, Value::Timestamp),
        }
    }

    /// An empty column of type `dt`.
    pub fn empty(dt: DataType) -> Column {
        match dt {
            DataType::Boolean => Column::Boolean(PrimVec::default()),
            DataType::Int32 => Column::Int32(PrimVec::default()),
            DataType::Int64 => Column::Int64(PrimVec::default()),
            DataType::Float64 => Column::Float64(PrimVec::default()),
            DataType::Utf8 => Column::Utf8(StrVec::new()),
            DataType::Timestamp => Column::Timestamp(PrimVec::default()),
        }
    }

    /// Build a column of type `dt` from scalars (which must match `dt` or
    /// be `Null`).
    pub fn from_values(dt: DataType, values: &[Value]) -> Result<Column> {
        let mut b = ColumnBuilder::new(dt);
        for v in values {
            b.push(v)?;
        }
        Ok(b.finish())
    }

    /// A column of `len` copies of `value`.
    pub fn repeat(dt: DataType, value: &Value, len: usize) -> Result<Column> {
        let mut b = ColumnBuilder::new(dt);
        for _ in 0..len {
            b.push(value)?;
        }
        Ok(b.finish())
    }

    /// Gather rows at `indices`.
    pub fn take(&self, indices: &[u32]) -> Column {
        match self {
            Column::Boolean(v) => Column::Boolean(v.take(indices)),
            Column::Int32(v) => Column::Int32(v.take(indices)),
            Column::Int64(v) => Column::Int64(v.take(indices)),
            Column::Float64(v) => Column::Float64(v.take(indices)),
            Column::Utf8(v) => Column::Utf8(v.take(indices)),
            Column::Timestamp(v) => Column::Timestamp(v.take(indices)),
        }
    }

    /// Keep rows where `mask` is set.
    pub fn filter(&self, mask: &Bitmap) -> Column {
        self.take(&mask.set_indices())
    }

    /// Lay columns of one type end to end, copying each value once.
    pub fn concat(parts: &[&Column]) -> Result<Column> {
        /// The vectors inside `parts`, if every part is the `$variant`.
        macro_rules! all {
            ($variant:ident) => {
                parts
                    .iter()
                    .map(|p| match p {
                        Column::$variant(v) => Some(v),
                        _ => None,
                    })
                    .collect::<Option<Vec<_>>>()
            };
        }
        let mismatch = || {
            let types: Vec<String> = parts.iter().map(|p| p.data_type().to_string()).collect();
            EngineError::type_err(format!("cannot concat {}", types.join(" with ")))
        };
        Ok(match parts.first() {
            None => return Err(EngineError::internal("concat of zero columns")),
            Some(Column::Boolean(_)) => {
                Column::Boolean(PrimVec::concat(&all!(Boolean).ok_or_else(mismatch)?))
            }
            Some(Column::Int32(_)) => {
                Column::Int32(PrimVec::concat(&all!(Int32).ok_or_else(mismatch)?))
            }
            Some(Column::Int64(_)) => {
                Column::Int64(PrimVec::concat(&all!(Int64).ok_or_else(mismatch)?))
            }
            Some(Column::Float64(_)) => {
                Column::Float64(PrimVec::concat(&all!(Float64).ok_or_else(mismatch)?))
            }
            Some(Column::Utf8(_)) => {
                Column::Utf8(StrVec::concat(&all!(Utf8).ok_or_else(mismatch)?))
            }
            Some(Column::Timestamp(_)) => {
                Column::Timestamp(PrimVec::concat(&all!(Timestamp).ok_or_else(mismatch)?))
            }
        })
    }

    /// Approximate heap size in bytes (used for broadcast decisions and the
    /// memory-overhead experiment).
    pub fn byte_size(&self) -> usize {
        let validity = |b: &Option<Bitmap>| b.as_ref().map_or(0, |b| b.len().div_ceil(8));
        match self {
            Column::Boolean(v) => v.values.len() + validity(&v.validity),
            Column::Int32(v) => v.values.len() * 4 + validity(&v.validity),
            Column::Int64(v) | Column::Timestamp(v) => v.values.len() * 8 + validity(&v.validity),
            Column::Float64(v) => v.values.len() * 8 + validity(&v.validity),
            Column::Utf8(v) => v.bytes.len() + v.offsets.len() * 4 + validity(&v.validity),
        }
    }
}

/// Incremental column builder.
#[derive(Debug)]
pub enum ColumnBuilder {
    /// Boolean builder.
    Boolean(Vec<Option<bool>>),
    /// Int32 builder.
    Int32(Vec<Option<i32>>),
    /// Int64 builder.
    Int64(Vec<Option<i64>>),
    /// Float64 builder.
    Float64(Vec<Option<f64>>),
    /// Utf8 builder.
    Utf8(StrVec),
    /// Timestamp builder.
    Timestamp(Vec<Option<i64>>),
}

impl ColumnBuilder {
    /// A builder for type `dt`.
    pub fn new(dt: DataType) -> Self {
        match dt {
            DataType::Boolean => ColumnBuilder::Boolean(Vec::new()),
            DataType::Int32 => ColumnBuilder::Int32(Vec::new()),
            DataType::Int64 => ColumnBuilder::Int64(Vec::new()),
            DataType::Float64 => ColumnBuilder::Float64(Vec::new()),
            DataType::Utf8 => ColumnBuilder::Utf8(StrVec::new()),
            DataType::Timestamp => ColumnBuilder::Timestamp(Vec::new()),
        }
    }

    /// Append a scalar; it must match the builder's type or be `Null`.
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match (self, v) {
            (ColumnBuilder::Boolean(b), Value::Boolean(x)) => b.push(Some(*x)),
            (ColumnBuilder::Boolean(b), Value::Null) => b.push(None),
            (ColumnBuilder::Int32(b), Value::Int32(x)) => b.push(Some(*x)),
            (ColumnBuilder::Int32(b), Value::Null) => b.push(None),
            (ColumnBuilder::Int64(b), Value::Int64(x)) => b.push(Some(*x)),
            (ColumnBuilder::Int64(b), Value::Null) => b.push(None),
            (ColumnBuilder::Float64(b), Value::Float64(x)) => b.push(Some(*x)),
            (ColumnBuilder::Float64(b), Value::Null) => b.push(None),
            (ColumnBuilder::Utf8(b), Value::Utf8(s)) => b.push(Some(s)),
            (ColumnBuilder::Utf8(b), Value::Null) => b.push(None),
            (ColumnBuilder::Timestamp(b), Value::Timestamp(x)) => b.push(Some(*x)),
            (ColumnBuilder::Timestamp(b), Value::Null) => b.push(None),
            (me, v) => {
                return Err(EngineError::type_err(format!(
                    "cannot append {v:?} to {} column",
                    me.data_type()
                )))
            }
        }
        Ok(())
    }

    /// The builder's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnBuilder::Boolean(_) => DataType::Boolean,
            ColumnBuilder::Int32(_) => DataType::Int32,
            ColumnBuilder::Int64(_) => DataType::Int64,
            ColumnBuilder::Float64(_) => DataType::Float64,
            ColumnBuilder::Utf8(_) => DataType::Utf8,
            ColumnBuilder::Timestamp(_) => DataType::Timestamp,
        }
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        match self {
            ColumnBuilder::Boolean(b) => b.len(),
            ColumnBuilder::Int32(b) => b.len(),
            ColumnBuilder::Int64(b) => b.len(),
            ColumnBuilder::Float64(b) => b.len(),
            ColumnBuilder::Utf8(b) => b.len(),
            ColumnBuilder::Timestamp(b) => b.len(),
        }
    }

    /// Whether the builder is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish into a column.
    pub fn finish(self) -> Column {
        match self {
            ColumnBuilder::Boolean(b) => Column::Boolean(PrimVec::from_options(b)),
            ColumnBuilder::Int32(b) => Column::Int32(PrimVec::from_options(b)),
            ColumnBuilder::Int64(b) => Column::Int64(PrimVec::from_options(b)),
            ColumnBuilder::Float64(b) => Column::Float64(PrimVec::from_options(b)),
            ColumnBuilder::Utf8(b) => Column::Utf8(b),
            ColumnBuilder::Timestamp(b) => Column::Timestamp(PrimVec::from_options(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primvec_options_roundtrip() {
        let v = PrimVec::from_options(vec![Some(1i64), None, Some(3)]);
        assert_eq!(v.get(0), Some(1));
        assert_eq!(v.get(1), None);
        assert_eq!(v.get(2), Some(3));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn strvec_nulls_and_slices() {
        let mut v = StrVec::new();
        v.push(Some("hello"));
        v.push(None);
        v.push(Some(""));
        v.push(Some("world"));
        assert_eq!(v.get(0), Some("hello"));
        assert_eq!(v.get(1), None);
        assert_eq!(v.get(2), Some(""));
        assert_eq!(v.get(3), Some("world"));
    }

    #[test]
    fn column_take_filter() {
        let c = Column::Int64(PrimVec::from_options(vec![
            Some(10),
            None,
            Some(30),
            Some(40),
        ]));
        let t = c.take(&[3, 0]);
        assert_eq!(t.value_at(0), Value::Int64(40));
        assert_eq!(t.value_at(1), Value::Int64(10));
        let mask = Bitmap::from_bools(&[false, true, true, false]);
        let f = c.filter(&mask);
        assert_eq!(f.len(), 2);
        assert_eq!(f.value_at(0), Value::Null);
        assert_eq!(f.value_at(1), Value::Int64(30));
    }

    #[test]
    fn column_concat_type_mismatch() {
        let a = Column::Int64(PrimVec::from_values(vec![1]));
        let b = Column::Utf8(StrVec::from_strs(&["x"]));
        assert!(Column::concat(&[&a, &b]).is_err());
        let c = Column::Int64(PrimVec::from_values(vec![2, 3]));
        let ab = Column::concat(&[&a, &c]).unwrap();
        assert_eq!(ab.len(), 3);
        assert_eq!(ab.value_at(2), Value::Int64(3));
    }

    #[test]
    fn builder_rejects_wrong_type() {
        let mut b = ColumnBuilder::new(DataType::Int64);
        assert!(b.push(&Value::Utf8("x".into())).is_err());
        b.push(&Value::Int64(1)).unwrap();
        b.push(&Value::Null).unwrap();
        let c = b.finish();
        assert_eq!(c.len(), 2);
        assert!(!c.is_valid(1));
    }

    #[test]
    fn from_values_and_repeat() {
        let c =
            Column::from_values(DataType::Utf8, &[Value::Utf8("a".into()), Value::Null]).unwrap();
        assert_eq!(c.value_at(0), Value::Utf8("a".into()));
        assert_eq!(c.value_at(1), Value::Null);
        let r = Column::repeat(DataType::Int32, &Value::Int32(7), 5).unwrap();
        assert_eq!(r.len(), 5);
        assert_eq!(r.value_at(4), Value::Int32(7));
    }

    #[test]
    fn byte_size_sane() {
        let c = Column::Int64(PrimVec::from_values(vec![0; 100]));
        assert_eq!(c.byte_size(), 800);
        let s = Column::Utf8(StrVec::from_strs(&["abcd"; 10]));
        assert!(s.byte_size() >= 40);
    }

    #[test]
    fn concat_mixed_validity() {
        let a = Column::Int64(PrimVec::from_values(vec![1, 2]));
        let b = Column::Int64(PrimVec::from_options(vec![None, Some(4)]));
        let c = Column::concat(&[&a, &b]).unwrap();
        assert!(c.is_valid(0) && c.is_valid(1) && !c.is_valid(2) && c.is_valid(3));
    }

    /// A byte-range gather equals one that pushes every value again, as a
    /// `Column`: offsets, bytes and validity, NULLs and repeats included.
    #[test]
    fn strvec_take_equals_a_push_per_value() {
        let v = StrVec::from_options(&[Some("héllo"), None, Some(""), Some("wörld"), None]);
        for indices in [
            vec![],
            vec![0, 2, 3],
            vec![4, 1, 0, 0, 3, 2],
            vec![1],
            vec![3, 3, 3],
        ] {
            let mut pushed = StrVec::new();
            for &i in &indices {
                pushed.push(v.get(i as usize));
            }
            assert_eq!(
                Column::Utf8(v.clone()).take(&indices),
                Column::Utf8(pushed),
                "{indices:?}"
            );
        }
    }
}
