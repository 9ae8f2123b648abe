//! Chunks: the unit of data flow between physical operators (a "record
//! batch" — a set of equal-length columns).

use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnBuilder, ColumnRef};
use crate::error::{EngineError, Result};
use crate::schema::SchemaRef;
use crate::types::Value;

/// A horizontal slice of a table: equal-length columns.
#[derive(Debug, Clone)]
pub struct Chunk {
    columns: Vec<ColumnRef>,
    len: usize,
}

impl Chunk {
    /// Build a chunk; all columns must have equal length.
    pub fn new(columns: Vec<ColumnRef>) -> Result<Chunk> {
        let len = columns.first().map_or(0, |c| c.len());
        for c in &columns {
            if c.len() != len {
                return Err(EngineError::internal(format!(
                    "chunk column length mismatch: {} vs {}",
                    c.len(),
                    len
                )));
            }
        }
        Ok(Chunk { columns, len })
    }

    /// A zero-column chunk that still reports `len` rows (for `COUNT(*)`
    /// over projections that need no columns).
    pub fn new_empty_columns(len: usize) -> Chunk {
        Chunk {
            columns: Vec::new(),
            len,
        }
    }

    /// An empty chunk matching `schema`.
    pub fn empty(schema: &SchemaRef) -> Chunk {
        let columns = schema
            .fields
            .iter()
            .map(|f| Arc::new(Column::empty(f.data_type)))
            .collect();
        Chunk { columns, len: 0 }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &ColumnRef {
        &self.columns[i]
    }

    /// All columns.
    pub fn columns(&self) -> &[ColumnRef] {
        &self.columns
    }

    /// The scalar at (`row`, `col`).
    pub fn value_at(&self, col: usize, row: usize) -> Value {
        self.columns[col].value_at(row)
    }

    /// One row as scalars.
    pub fn row_values(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value_at(row)).collect()
    }

    /// Keep rows where `mask` is set. Nothing is gathered when the mask
    /// keeps every row or the chunk has no columns.
    pub fn filter(&self, mask: &Bitmap) -> Result<Chunk> {
        debug_assert_eq!(mask.len(), self.len);
        let kept = mask.count_ones();
        if kept == self.len {
            return Ok(self.clone());
        }
        if self.columns.is_empty() {
            return Ok(Chunk::new_empty_columns(kept));
        }
        self.take(&mask.set_indices())
    }

    /// Gather rows at `indices`.
    pub fn take(&self, indices: &[u32]) -> Result<Chunk> {
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.take(indices)))
            .collect();
        Ok(Chunk {
            columns,
            len: indices.len(),
        })
    }

    /// Keep only the columns at `indices` (cheap: `Arc` clones).
    pub fn project(&self, indices: &[usize]) -> Chunk {
        let columns = indices
            .iter()
            .map(|&i| Arc::clone(&self.columns[i]))
            .collect();
        Chunk {
            columns,
            len: self.len,
        }
    }

    /// First `n` rows.
    pub fn limit(&self, n: usize) -> Result<Chunk> {
        if n >= self.len {
            return Ok(self.clone());
        }
        let indices: Vec<u32> = (0..n as u32).collect();
        self.take(&indices)
    }

    /// Vertically concatenate chunks (which must have identical layouts).
    pub fn concat(chunks: &[Chunk]) -> Result<Chunk> {
        let Some(first) = chunks.first() else {
            return Err(EngineError::internal("concat of zero chunks"));
        };
        if chunks.len() == 1 {
            return Ok(first.clone());
        }
        let mut columns = Vec::with_capacity(first.num_columns());
        for ci in 0..first.num_columns() {
            let parts: Vec<&Column> = chunks.iter().map(|c| c.columns[ci].as_ref()).collect();
            columns.push(Arc::new(Column::concat(&parts)?));
        }
        let len = chunks.iter().map(Chunk::len).sum();
        if columns.is_empty() {
            return Ok(Chunk::new_empty_columns(len));
        }
        Ok(Chunk { columns, len })
    }

    /// Build a chunk from rows of scalars, one builder per field of
    /// `schema`.
    pub fn from_rows(schema: &SchemaRef, rows: &[Vec<Value>]) -> Result<Chunk> {
        let mut builders: Vec<ColumnBuilder> = schema
            .fields
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type))
            .collect();
        for row in rows {
            if row.len() != builders.len() {
                return Err(EngineError::internal(format!(
                    "row width {} does not match schema width {}",
                    row.len(),
                    builders.len()
                )));
            }
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v)?;
            }
        }
        Chunk::new(builders.into_iter().map(|b| Arc::new(b.finish())).collect())
    }

    /// All rows as scalars (row-major).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len).map(|r| self.row_values(r)).collect()
    }

    /// Approximate heap bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::PrimVec;
    use crate::schema::{Field, Schema};
    use crate::types::DataType;

    fn sample_schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]))
    }

    fn sample_chunk() -> Chunk {
        Chunk::from_rows(
            &sample_schema(),
            &[
                vec![Value::Int64(1), Value::Utf8("a".into())],
                vec![Value::Int64(2), Value::Utf8("b".into())],
                vec![Value::Int64(3), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_roundtrip() {
        let c = sample_chunk();
        assert_eq!(c.len(), 3);
        assert_eq!(c.num_columns(), 2);
        let rows = c.to_rows();
        assert_eq!(rows[1], vec![Value::Int64(2), Value::Utf8("b".into())]);
        assert_eq!(rows[2][1], Value::Null);
    }

    #[test]
    fn length_mismatch_rejected() {
        let a = Arc::new(Column::Int64(PrimVec::from_values(vec![1, 2])));
        let b = Arc::new(Column::Int64(PrimVec::from_values(vec![1])));
        assert!(Chunk::new(vec![a, b]).is_err());
    }

    #[test]
    fn filter_take_project_limit() {
        let c = sample_chunk();
        let f = c.filter(&Bitmap::from_bools(&[true, false, true])).unwrap();
        assert_eq!(f.len(), 2);
        assert_eq!(f.value_at(0, 1), Value::Int64(3));
        let t = c.take(&[2, 2, 0]).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.value_at(0, 0), Value::Int64(3));
        let p = c.project(&[1]);
        assert_eq!(p.num_columns(), 1);
        assert_eq!(p.value_at(0, 0), Value::Utf8("a".into()));
        let l = c.limit(2).unwrap();
        assert_eq!(l.len(), 2);
        assert_eq!(c.limit(100).unwrap().len(), 3);
    }

    #[test]
    fn filter_shortcuts_match_the_gather() {
        let c = sample_chunk();
        // All rows kept: the very same column allocations come back.
        let all = c.filter(&Bitmap::ones(3)).unwrap();
        assert!(Arc::ptr_eq(all.column(0), c.column(0)));
        assert_eq!(all.to_rows(), c.to_rows());
        // No row kept: empty, but still typed like the input.
        let none = c.filter(&Bitmap::zeros(3)).unwrap();
        assert_eq!((none.len(), none.num_columns()), (0, 2));
        assert_eq!(none.column(1).data_type(), DataType::Utf8);
        // No columns: only the count survives.
        let counted = Chunk::new_empty_columns(3)
            .filter(&Bitmap::from_bools(&[true, false, true]))
            .unwrap();
        assert_eq!((counted.len(), counted.num_columns()), (2, 0));
        assert_eq!(
            Chunk::new_empty_columns(0)
                .filter(&Bitmap::zeros(0))
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn concat_chunks() {
        let a = sample_chunk();
        let b = sample_chunk();
        let c = Chunk::concat(&[a, b]).unwrap();
        assert_eq!(c.len(), 6);
        assert_eq!(c.value_at(0, 3), Value::Int64(1));
    }

    #[test]
    fn zero_column_chunk_counts_rows() {
        let c = Chunk::new_empty_columns(42);
        assert_eq!(c.len(), 42);
        assert_eq!(c.num_columns(), 0);
        let cc =
            Chunk::concat(&[Chunk::new_empty_columns(1), Chunk::new_empty_columns(2)]).unwrap();
        assert_eq!(cc.len(), 3);
    }

    #[test]
    fn from_rows_width_mismatch() {
        let res = Chunk::from_rows(&sample_schema(), &[vec![Value::Int64(1)]]);
        assert!(res.is_err());
    }
}
