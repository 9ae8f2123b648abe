//! Table sources and the session catalog.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::chunk::Chunk;
use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::query::QueryContext;
use crate::schema::SchemaRef;
use crate::types::Value;

/// Iterator of chunks produced by one partition of a source or operator.
pub type ChunkIter = Box<dyn Iterator<Item = Result<Chunk>> + Send>;

/// Coarse statistics used for planning (broadcast-join decisions).
#[derive(Debug, Clone, Copy, Default)]
pub struct Statistics {
    /// Estimated number of rows, if known.
    pub row_count: Option<usize>,
    /// Estimated total bytes, if known.
    pub byte_size: Option<usize>,
}

/// What a source promises, at plan time, about a scan with a given set
/// of pushed filters (see [`TableSource::prune`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanPruning {
    /// The only partitions that can produce rows, ascending: scanning
    /// just these with the filters pushed returns exactly what scanning
    /// every partition would.
    pub partitions: Vec<usize>,
    /// Estimated rows the filtered scan produces.
    pub rows: usize,
}

/// A table that can be scanned partition-by-partition.
///
/// This is the extension seam the Indexed DataFrame plugs into: its
/// `IndexedSource` implements this trait, advertises filter pushdown for
/// equality predicates on the indexed column, and is recognized (via
/// [`TableSource::as_any`] downcasting) by the index-aware planning
/// strategy — the analogue of the paper's custom Catalyst rules.
pub trait TableSource: Send + Sync {
    /// The table's schema (unqualified).
    fn schema(&self) -> SchemaRef;

    /// Number of scan partitions.
    fn num_partitions(&self) -> usize;

    /// Scan one partition, optionally projecting a subset of columns
    /// (indices into [`TableSource::schema`]).
    fn scan(&self, partition: usize, projection: Option<&[usize]>) -> Result<ChunkIter>;

    /// Whether the source can evaluate `filter` natively during the scan
    /// (e.g. an index lookup). Sources returning `true` must apply the
    /// filter in [`TableSource::scan_with_filters`].
    fn supports_filter_pushdown(&self, _filter: &Expr) -> bool {
        false
    }

    /// Scan with pushed-down filters. Only called with filters for which
    /// [`TableSource::supports_filter_pushdown`] returned `true`.
    fn scan_with_filters(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        _filters: &[Expr],
    ) -> Result<ChunkIter> {
        self.scan(partition, projection)
    }

    /// Plan-time partition pruning: which partitions a scan with `filters`
    /// pushed can touch, and how many rows it is expected to produce. The
    /// planner exposes only those partitions, so a key lookup plans as a
    /// single-partition scan and needs no exchange above it. `None` (the
    /// default, and the only answer for an empty `filters`) means every
    /// partition and no bound. `filters` are a scan's pushed filters —
    /// each one claimed by [`TableSource::supports_filter_pushdown`] —
    /// after parameters are bound to literals.
    fn prune(&self, _filters: &[Expr]) -> Option<ScanPruning> {
        None
    }

    /// The column this source is hash-partitioned by, if any: `Some(c)`
    /// promises that partition `p` holds exactly the rows with
    /// `hash_values(&[row[c]]) % num_partitions() == p` (the function
    /// [`crate::physical::hash_values`], which exchanges also use), so the
    /// planner can aggregate or join on `c` without moving a row.
    fn hash_partitioned_by(&self) -> Option<usize> {
        None
    }

    /// The column whose index answers this source's pushed filters, if
    /// any — named in `EXPLAIN` beside the filters it probes for.
    fn indexed_by(&self) -> Option<usize> {
        None
    }

    /// Whether a pushed `filter` is answered by probing the index (`true`,
    /// the default) or evaluated on the rows the scan reads. `EXPLAIN`
    /// prints the first kind as `pushed=[…]` and the second as `where=[…]`.
    fn probes_index(&self, _filter: &Expr) -> bool {
        true
    }

    /// Scan one partition under a query lifecycle token. Sources that run
    /// long per-partition work (index probes, large decodes) should
    /// override this to check `query` for cancellation between units of
    /// work and charge it for materialized buffers; the default ignores
    /// `query` and delegates to the plain scan methods (per-chunk
    /// lifecycle checks still apply via the operator wrapper).
    fn scan_with_ctx(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Expr],
        query: &Arc<QueryContext>,
    ) -> Result<ChunkIter> {
        let _ = query;
        if filters.is_empty() {
            self.scan(partition, projection)
        } else {
            self.scan_with_filters(partition, projection, filters)
        }
    }

    /// Planning statistics.
    fn statistics(&self) -> Statistics {
        Statistics::default()
    }

    /// Append rows to this source (SQL `INSERT`). Sources default to
    /// read-only; updatable sources (the engine's [`AppendTable`], the
    /// Indexed DataFrame's live source) override this. Implementations
    /// must validate row width and value types against
    /// [`TableSource::schema`] and return the number of rows appended.
    fn append_rows(&self, rows: &[Vec<Value>]) -> Result<usize> {
        let _ = rows;
        Err(EngineError::Unsupported(
            "this table source does not support INSERT".to_string(),
        ))
    }

    /// Apply one DML statement (SQL `UPDATE`/`DELETE`): remove the rows in
    /// `deletes` (by value identity — the executor hands back exactly the
    /// rows its bound scan matched) and add the rows in `inserts` (an
    /// `UPDATE`'s new images; empty for a plain `DELETE`). Returns the
    /// number of rows that matched — the statement's rows-affected count.
    ///
    /// Sources default to read-only. A delete row no longer present (a
    /// concurrent statement removed it first) is skipped, not an error.
    fn apply_dml(&self, deletes: &[Vec<Value>], inserts: &[Vec<Value>]) -> Result<usize> {
        let _ = (deletes, inserts);
        Err(EngineError::Unsupported(
            "this table source does not support UPDATE/DELETE".to_string(),
        ))
    }

    /// Downcast support for custom planning strategies.
    fn as_any(&self) -> &dyn Any;
}

/// An in-memory, partitioned, columnar table — the engine's analogue of a
/// cached (vanilla) Spark DataFrame.
pub struct MemTable {
    schema: SchemaRef,
    partitions: Vec<Vec<Chunk>>,
}

impl MemTable {
    /// Build from pre-partitioned chunks.
    pub fn new(schema: SchemaRef, partitions: Vec<Vec<Chunk>>) -> Self {
        MemTable { schema, partitions }
    }

    /// Build a single-partition table from one chunk.
    pub fn from_chunk(schema: SchemaRef, chunk: Chunk) -> Self {
        MemTable {
            schema,
            partitions: vec![vec![chunk]],
        }
    }

    /// Split `chunk` round-robin into `n` partitions.
    pub fn from_chunk_partitioned(schema: SchemaRef, chunk: Chunk, n: usize) -> Result<Self> {
        let n = n.max(1);
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n];
        for row in 0..chunk.len() {
            buckets[row % n].push(row as u32);
        }
        let partitions = buckets
            .into_iter()
            .map(|idx| Ok(vec![chunk.take(&idx)?]))
            .collect::<Result<Vec<_>>>()?;
        Ok(MemTable { schema, partitions })
    }

    /// The chunks of every partition.
    pub fn partitions(&self) -> &[Vec<Chunk>] {
        &self.partitions
    }

    /// Total rows across partitions.
    pub fn row_count(&self) -> usize {
        self.partitions.iter().flatten().map(Chunk::len).sum()
    }
}

impl TableSource for MemTable {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn num_partitions(&self) -> usize {
        self.partitions.len().max(1)
    }

    fn scan(&self, partition: usize, projection: Option<&[usize]>) -> Result<ChunkIter> {
        let chunks = self.partitions.get(partition).cloned().unwrap_or_default();
        let projected: Vec<Chunk> = match projection {
            Some(idx) => {
                let idx = idx.to_vec();
                chunks.iter().map(|c| c.project(&idx)).collect()
            }
            None => chunks,
        };
        Ok(Box::new(projected.into_iter().map(Ok)))
    }

    fn statistics(&self) -> Statistics {
        let rows = self.row_count();
        let bytes = self.partitions.iter().flatten().map(Chunk::byte_size).sum();
        Statistics {
            row_count: Some(rows),
            byte_size: Some(bytes),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Validate `rows` against `schema` for an append: exact width, and every
/// value either NULL or of the column's type. Shared by every
/// [`TableSource::append_rows`] implementation so INSERT has one
/// type-checking contract.
pub fn check_append_rows(schema: &SchemaRef, rows: &[Vec<Value>]) -> Result<()> {
    for row in rows {
        if row.len() != schema.len() {
            return Err(EngineError::type_err(format!(
                "INSERT row has {} values; table has {} columns",
                row.len(),
                schema.len()
            )));
        }
        for (value, field) in row.iter().zip(&schema.fields) {
            match value.data_type() {
                None => {}
                Some(dt) if dt == field.data_type => {}
                Some(dt) => {
                    return Err(EngineError::type_err(format!(
                        "INSERT value {value} has type {dt}; column {} is {}",
                        field.name, field.data_type
                    )));
                }
            }
        }
    }
    Ok(())
}

/// An appendable in-memory table: the engine's default backing for SQL
/// `CREATE TABLE` when no installed
/// [`crate::session::SessionExtension`] mints one. Appends take a short
/// write lock; scans clone the chunk list under a read lock, so readers
/// in flight keep the rows they saw (appends are only ever additive).
pub struct AppendTable {
    schema: SchemaRef,
    chunks: RwLock<Vec<Chunk>>,
}

impl AppendTable {
    /// An empty appendable table with `schema`.
    pub fn new(schema: SchemaRef) -> Self {
        AppendTable {
            schema,
            chunks: RwLock::new(Vec::new()),
        }
    }

    /// Total rows currently stored.
    pub fn row_count(&self) -> usize {
        self.chunks.read().iter().map(Chunk::len).sum()
    }
}

impl TableSource for AppendTable {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn num_partitions(&self) -> usize {
        1
    }

    fn scan(&self, partition: usize, projection: Option<&[usize]>) -> Result<ChunkIter> {
        let chunks: Vec<Chunk> = if partition == 0 {
            self.chunks.read().clone()
        } else {
            Vec::new()
        };
        let projected: Vec<Chunk> = match projection {
            Some(idx) => {
                let idx = idx.to_vec();
                chunks.iter().map(|c| c.project(&idx)).collect()
            }
            None => chunks,
        };
        Ok(Box::new(projected.into_iter().map(Ok)))
    }

    fn statistics(&self) -> Statistics {
        let chunks = self.chunks.read();
        Statistics {
            row_count: Some(chunks.iter().map(Chunk::len).sum()),
            byte_size: Some(chunks.iter().map(Chunk::byte_size).sum()),
        }
    }

    fn append_rows(&self, rows: &[Vec<Value>]) -> Result<usize> {
        check_append_rows(&self.schema, rows)?;
        let chunk = Chunk::from_rows(&self.schema, rows)?;
        self.chunks.write().push(chunk);
        Ok(rows.len())
    }

    fn apply_dml(&self, deletes: &[Vec<Value>], inserts: &[Vec<Value>]) -> Result<usize> {
        check_append_rows(&self.schema, deletes)?;
        check_append_rows(&self.schema, inserts)?;
        // One write lock for the whole statement keeps it atomic: readers
        // see either all of it or none of it.
        let mut chunks = self.chunks.write();
        let mut pending: Vec<&Vec<Value>> = deletes.iter().collect();
        let mut kept: Vec<Vec<Value>> = Vec::new();
        for chunk in chunks.iter() {
            for r in 0..chunk.len() {
                let row = chunk.row_values(r);
                match pending.iter().position(|d| **d == row) {
                    Some(i) => {
                        pending.swap_remove(i);
                    }
                    None => kept.push(row),
                }
            }
        }
        let matched = deletes.len() - pending.len();
        kept.extend(inserts.iter().cloned());
        let rebuilt = if kept.is_empty() {
            Vec::new()
        } else {
            vec![Chunk::from_rows(&self.schema, &kept)?]
        };
        *chunks = rebuilt;
        Ok(matched)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The session's table registry.
#[derive(Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<dyn TableSource>>>,
    /// Bumped by every change that can invalidate a bound plan (see
    /// [`Catalog::generation`]).
    generation: std::sync::atomic::AtomicU64,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// A counter that moves whenever a plan bound earlier may no longer
    /// be valid: every registration, replacement or removal of a table
    /// (materialized views register as tables), and every optimizer rule
    /// or planning strategy the session adds. A plan bound after reading
    /// generation `g` is current for as long as the counter still reads
    /// `g`; the session plan cache is stamped with it.
    pub fn generation(&self) -> u64 {
        self.generation.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Advance [`Catalog::generation`]. Called *after* the change it
    /// announces is visible, so a reader that sees the new generation
    /// also sees the change.
    pub(crate) fn bump_generation(&self) {
        self.generation
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }

    /// Register (or replace) a table under `name`.
    pub fn register(&self, name: impl Into<String>, table: Arc<dyn TableSource>) {
        let mut tables = self.tables.write();
        tables.insert(name.into(), table);
        self.bump_generation();
    }

    /// Register a table under `name` only if the name is free, atomically:
    /// the vacancy check and the insert happen under one write lock, so of
    /// two racing registrations exactly one wins and the loser gets a
    /// typed [`EngineError::TableAlreadyExists`] — the winner's source is
    /// never silently replaced (the DDL path; contrast
    /// [`Catalog::register`], which replaces).
    pub fn register_new(&self, name: impl Into<String>, table: Arc<dyn TableSource>) -> Result<()> {
        let name = name.into();
        let mut tables = self.tables.write();
        match tables.entry(name.clone()) {
            std::collections::hash_map::Entry::Occupied(_) => {
                Err(EngineError::TableAlreadyExists(name))
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(table);
                self.bump_generation();
                Ok(())
            }
        }
    }

    /// Remove the table registered under `name`.
    pub fn deregister(&self, name: &str) -> Option<Arc<dyn TableSource>> {
        let mut tables = self.tables.write();
        let removed = tables.remove(name);
        if removed.is_some() {
            self.bump_generation();
        }
        removed
    }

    /// Fetch the table registered under `name`.
    pub fn get(&self, name: &str) -> Result<Arc<dyn TableSource>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::TableNotFound(name.to_string()))
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::types::{DataType, Value};

    fn table() -> MemTable {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let chunk = Chunk::from_rows(
            &schema,
            &(0..10).map(|i| vec![Value::Int64(i)]).collect::<Vec<_>>(),
        )
        .unwrap();
        MemTable::from_chunk_partitioned(schema, chunk, 3).unwrap()
    }

    #[test]
    fn partitioning_covers_all_rows() {
        let t = table();
        assert_eq!(t.num_partitions(), 3);
        assert_eq!(t.row_count(), 10);
        let mut all: Vec<i64> = Vec::new();
        for p in 0..3 {
            for chunk in t.scan(p, None).unwrap() {
                let chunk = chunk.unwrap();
                for r in 0..chunk.len() {
                    if let Value::Int64(v) = chunk.value_at(0, r) {
                        all.push(v);
                    }
                }
            }
        }
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn scan_projection() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Utf8),
        ]));
        let chunk =
            Chunk::from_rows(&schema, &[vec![Value::Int64(1), Value::Utf8("x".into())]]).unwrap();
        let t = MemTable::from_chunk(schema, chunk);
        let got: Vec<Chunk> = t
            .scan(0, Some(&[1]))
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(got[0].num_columns(), 1);
        assert_eq!(got[0].value_at(0, 0), Value::Utf8("x".into()));
    }

    #[test]
    fn catalog_register_lookup() {
        let c = Catalog::new();
        assert!(c.get("t").is_err());
        c.register("t", Arc::new(table()));
        assert!(c.get("t").is_ok());
        assert_eq!(c.table_names(), vec!["t"]);
        c.deregister("t");
        assert!(c.get("t").is_err());
    }

    #[test]
    fn register_new_is_first_writer_wins() {
        let c = Catalog::new();
        c.register_new("t", Arc::new(table())).unwrap();
        let err = c.register_new("t", Arc::new(table())).unwrap_err();
        assert_eq!(err, EngineError::TableAlreadyExists("t".into()));
        // Plain register still replaces.
        c.register("t", Arc::new(table()));
        assert!(c.get("t").is_ok());
    }

    #[test]
    fn append_table_appends_and_scans() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]));
        let t = AppendTable::new(Arc::clone(&schema));
        assert_eq!(t.row_count(), 0);
        let n = t
            .append_rows(&[
                vec![Value::Int64(1), Value::Utf8("a".into())],
                vec![Value::Int64(2), Value::Null],
            ])
            .unwrap();
        assert_eq!(n, 2);
        t.append_rows(&[vec![Value::Int64(3), Value::Utf8("c".into())]])
            .unwrap();
        assert_eq!(t.row_count(), 3);
        let chunks: Vec<Chunk> = t.scan(0, None).unwrap().collect::<Result<_>>().unwrap();
        assert_eq!(chunks.iter().map(Chunk::len).sum::<usize>(), 3);
        // Projection works and off-range partitions are empty.
        let projected: Vec<Chunk> = t
            .scan(0, Some(&[1]))
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(projected[0].num_columns(), 1);
        assert_eq!(t.scan(1, None).unwrap().count(), 0);
        assert_eq!(t.statistics().row_count, Some(3));
    }

    #[test]
    fn append_table_rejects_bad_rows() {
        let schema = Arc::new(Schema::new(vec![Field::new("id", DataType::Int64)]));
        let t = AppendTable::new(Arc::clone(&schema));
        // Wrong arity.
        let err = t
            .append_rows(&[vec![Value::Int64(1), Value::Int64(2)]])
            .unwrap_err();
        assert!(matches!(err, EngineError::Type(_)), "got {err:?}");
        // Wrong type.
        let err = t.append_rows(&[vec![Value::Utf8("x".into())]]).unwrap_err();
        assert!(matches!(err, EngineError::Type(_)), "got {err:?}");
        // Nothing was appended by the failed calls.
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn memtable_is_read_only() {
        let t = table();
        let err = t.append_rows(&[vec![Value::Int64(1)]]).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)), "got {err:?}");
        let err = t.apply_dml(&[vec![Value::Int64(1)]], &[]).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)), "got {err:?}");
    }

    #[test]
    fn append_table_dml_deletes_and_updates() {
        let schema = Arc::new(Schema::new(vec![Field::new("id", DataType::Int64)]));
        let t = AppendTable::new(Arc::clone(&schema));
        t.append_rows(&(0..5).map(|i| vec![Value::Int64(i)]).collect::<Vec<_>>())
            .unwrap();
        // Plain delete; a miss does not count toward rows-affected.
        let n = t
            .apply_dml(&[vec![Value::Int64(3)], vec![Value::Int64(99)]], &[])
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(t.row_count(), 4);
        // Update = delete old image + insert new image.
        let n = t
            .apply_dml(&[vec![Value::Int64(0)]], &[vec![Value::Int64(100)]])
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(t.row_count(), 4);
        let chunks: Vec<Chunk> = t.scan(0, None).unwrap().collect::<Result<_>>().unwrap();
        let mut all: Vec<Value> = chunks
            .iter()
            .flat_map(|c| (0..c.len()).map(|r| c.value_at(0, r)))
            .collect();
        all.sort();
        assert_eq!(
            all,
            [1i64, 2, 4, 100].map(Value::Int64).to_vec(),
            "3 gone, 0 became 100"
        );
        // Duplicate rows: each delete row consumes one copy.
        t.append_rows(&[vec![Value::Int64(1)]]).unwrap();
        assert_eq!(t.apply_dml(&[vec![Value::Int64(1)]], &[]).unwrap(), 1);
        let total: usize = t.scan(0, None).unwrap().map(|c| c.unwrap().len()).sum();
        assert_eq!(total, 4, "one of the two copies survives");
        // Type errors are typed.
        assert!(t.apply_dml(&[vec![Value::Utf8("x".into())]], &[]).is_err());
    }

    #[test]
    fn statistics_populated() {
        let t = table();
        let s = t.statistics();
        assert_eq!(s.row_count, Some(10));
        assert!(s.byte_size.unwrap() >= 80);
    }
}
